//! Rule `determinism`: the differential-tested serving path stays
//! bit-exact and replayable.
//!
//! The harness in `tests/` asserts the parallel and serial engines emit
//! identical token streams; three things can silently break that:
//!
//! * **Unordered iteration** — `HashMap`/`HashSet` iteration order varies
//!   per process (`RandomState`), so any use in the serving path risks
//!   reordering float accumulation. Banned outright in the configured
//!   paths (use `BTreeMap`/`Vec`).
//! * **FMA contraction** — `f32::mul_add` contracts rounding differently
//!   from `a * b + c`, so results depend on where it is used. Only the
//!   runtime-dispatched kernel module may use it (both of its
//!   realizations are differentially tested against each other). The
//!   same holds for its vector spelling, the explicit fused intrinsics
//!   (`_mm256_fmadd_ps`, `_mm512_fnmsub_pd`, …): a SIMD arm elsewhere that
//!   fused would silently stop matching the scalar chain it stands for.
//! * **Ambient entropy** — wall-clock and OS-RNG calls make replays
//!   diverge. Seeded, caller-provided RNGs (the `Sampler`) live outside
//!   the configured paths by construction.

use super::{ident_occurrences, in_path_set, FileInput, Violation};
use crate::config::Config;

/// Ambient nondeterminism patterns checked inside the configured paths.
pub(crate) const AMBIENT: &[(&str, &str)] = &[
    ("HashMap", "HashMap"),
    ("HashSet", "HashSet"),
    ("Instant::now", "Instant::now"),
    ("SystemTime", "SystemTime"),
    ("thread_rng", "thread_rng"),
    ("from_entropy", "from_entropy"),
    ("rand::random", "rand::random"),
];

/// Name parts of the explicit fused multiply-add intrinsics
/// (`_mm_fmadd_ss`, `_mm256_fmaddsub_ps`, `_mm512_fnmsub_pd`, …).
const FUSED_PARTS: &[&str] = &["fmadd", "fmsub", "fnmadd", "fnmsub"];

/// The fused multiply-add intrinsics named on `line`.
fn fused_intrinsics(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|id| id.starts_with("_mm") && FUSED_PARTS.iter().any(|part| id.contains(part)))
}

/// Check one file.
pub fn check(file: &FileInput, cfg: &Config) -> Vec<Violation> {
    let in_diff_path = in_path_set(&file.rel_path, &cfg.determinism_paths);
    let mul_add_ok = in_path_set(&file.rel_path, &cfg.mul_add_allowed_in);
    let mut out = Vec::new();
    for (idx, text) in file.model.code.iter().enumerate() {
        let line = idx + 1;
        if file.model.in_test(line) {
            continue;
        }
        if in_diff_path {
            for &(needle, id) in AMBIENT {
                if !ident_occurrences(text, needle).is_empty() {
                    out.push(Violation {
                        rule: "determinism",
                        pattern: id.to_string(),
                        path: file.rel_path.clone(),
                        line,
                        message: format!(
                            "`{id}` in a differential-tested path — unordered iteration, \
                             wall-clock, and ambient RNG break token-exact replay"
                        ),
                    });
                }
            }
        }
        if !mul_add_ok && !ident_occurrences(text, "mul_add").is_empty() {
            out.push(Violation {
                rule: "determinism",
                pattern: "mul_add".to_string(),
                path: file.rel_path.clone(),
                line,
                message: "`mul_add` outside the dispatch-guarded kernel module — FMA \
                          contraction changes rounding, so it is confined to the \
                          differentially-tested kernels"
                    .to_string(),
            });
        }
        if !mul_add_ok {
            for id in fused_intrinsics(text) {
                out.push(Violation {
                    rule: "determinism",
                    pattern: id.to_string(),
                    path: file.rel_path.clone(),
                    line,
                    message: format!(
                        "`{id}` outside the dispatch-guarded kernel module — a fused \
                         multiply-add rounds once where `a * b + c` rounds twice, so \
                         it is confined with `mul_add` to the differentially-tested \
                         kernels"
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config {
            determinism_paths: vec!["crates/llm/src/batch.rs".to_string()],
            mul_add_allowed_in: vec!["crates/llm/src/kernels.rs".to_string()],
            ..Config::default()
        }
    }

    #[test]
    fn hash_iteration_and_clock_flagged_in_diff_path() {
        let src = "\
use std::collections::HashMap;
fn round(m: &HashMap<u32, f32>) -> f64 {
    let t = std::time::Instant::now();
    let _ = t;
    m.values().map(|&v| v as f64).sum()
}
";
        let v = check(&FileInput::new("crates/llm/src/batch.rs", src), &cfg());
        let pats: Vec<&str> = v.iter().map(|v| v.pattern.as_str()).collect();
        assert!(pats.contains(&"HashMap"));
        assert!(pats.contains(&"Instant::now"));
    }

    #[test]
    fn same_code_outside_diff_path_passes() {
        let src =
            "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) -> usize { m.len() }\n";
        assert!(check(&FileInput::new("crates/tco/src/lib.rs", src), &cfg()).is_empty());
    }

    #[test]
    fn mul_add_only_in_kernel_module() {
        let src = "fn fma(a: f32, b: f32, c: f32) -> f32 {\n    a.mul_add(b, c)\n}\n";
        let v = check(&FileInput::new("crates/llm/src/dataflow.rs", src), &cfg());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].pattern, "mul_add");
        assert!(check(&FileInput::new("crates/llm/src/kernels.rs", src), &cfg()).is_empty());
    }

    #[test]
    fn fused_intrinsics_only_in_kernel_module() {
        let src = "\
unsafe fn lanes(a: __m512, b: __m512, c: __m512) -> (__m512, __m256) {
    let x = _mm512_fmadd_ps(a, b, c);
    let y = _mm256_fnmsub_ps(_mm512_castps512_ps256(x), _mm256_setzero_ps(), _mm256_setzero_ps());
    (_mm512_add_ps(x, _mm512_mul_ps(a, b)), y)
}
";
        let v = check(&FileInput::new("crates/llm/src/tensor.rs", src), &cfg());
        let pats: Vec<&str> = v.iter().map(|v| v.pattern.as_str()).collect();
        assert_eq!(pats, ["_mm512_fmadd_ps", "_mm256_fnmsub_ps"]);
        assert_eq!((v[0].line, v[1].line), (2, 3));
        assert!(check(&FileInput::new("crates/llm/src/kernels.rs", src), &cfg()).is_empty());
        // A name that merely contains the word is not an intrinsic.
        let plain = "fn fmadd_count(fmadd_ops: usize) -> usize {\n    fmadd_ops\n}\n";
        assert!(check(&FileInput::new("crates/llm/src/tensor.rs", plain), &cfg()).is_empty());
    }

    #[test]
    fn embedded_identifiers_not_flagged() {
        let src =
            "fn f(mul_add_allowed_in: &[String]) -> usize {\n    mul_add_allowed_in.len()\n}\n";
        assert!(check(&FileInput::new("crates/llm/src/batch.rs", src), &cfg()).is_empty());
    }

    #[test]
    fn ordered_containers_pass() {
        let src = "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u32, f32>) -> f32 {\n    m.values().sum()\n}\n";
        assert!(check(&FileInput::new("crates/llm/src/batch.rs", src), &cfg()).is_empty());
    }
}
