//! Emit (or gate on) the committed inference benchmark trajectory.
//!
//! `BENCH_inference.json` holds an append-only **trajectory**: one point
//! per landed performance PR, each with per-benchmark ns/op, tokens/s
//! where the benchmark has a token interpretation, the realized kernel
//! path, and the headline speedup ratios. Default mode runs the full
//! `hnlpu_bench::inference` suite and appends a new point tagged with
//! `--id <tag>` (default `local`); earlier points are never rewritten —
//! only a trailing point with the *same* id is refreshed, so iterating
//! on one PR does not duplicate its point.
//!
//! `--check` is the CI regression gate: it validates the committed
//! trajectory's shape, re-runs the suite (honoring `HNLPU_BENCH_QUICK`),
//! and fails (exit 1) when a measured headline ratio falls below the
//! latest committed point's by more than the tolerance band
//! (`HNLPU_BENCH_TOLERANCE`, default `0.5` — measured must stay above
//! half the committed ratio). Ratios are machine-relative, so the gate
//! holds across runner generations where raw ns/op would not.
//!
//! ```text
//! cargo run --release -p hnlpu-bench --example bench_baseline -- --id pr7
//! cargo run --release -p hnlpu-bench --example bench_baseline -- --check
//! ```

use criterion::Criterion;
use hnlpu::llm::kernels;
use hnlpu_bench::inference::{
    inference_suite, prefix_cache_effectiveness, EXPERT_GROUP_SWEEP, PREFILL_BENCH_EXPERTS,
    ROUND_DEAL_ROUNDS, ROUND_DEAL_SHAPES, TOKENS_PER_ITER,
};
use serde_json::Value;

const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_inference.json");
const SCHEMA: &str = "hnlpu-bench/inference/v2";
/// Environment variable overriding the `--check` tolerance band.
const TOLERANCE_ENV: &str = "HNLPU_BENCH_TOLERANCE";
const DEFAULT_TOLERANCE: f64 = 0.5;

/// The headline ratios the trajectory records and `--check` gates on:
/// `(json key, numerator label, denominator label)` — each ratio is
/// `ns(numerator) / ns(denominator)`, i.e. the denominator's speedup.
const RATIOS: &[(&str, &str, &str)] = &[
    (
        "decode_speedup_packed_over_naive",
        "inference/decode/naive",
        "inference/decode/packed",
    ),
    (
        "prefill_matmul_speedup_t16",
        "inference/prefill_matmul/per_token",
        "inference/prefill_matmul/t16",
    ),
    (
        "prefill_matmul_speedup_t64",
        "inference/prefill_matmul/per_token",
        "inference/prefill_matmul/t64",
    ),
    (
        "decode_batch_speedup_b4",
        "inference/decode_batch/step_b4",
        "inference/decode_batch/batch_b4",
    ),
    (
        "decode_batch_speedup_b16",
        "inference/decode_batch/step_b16",
        "inference/decode_batch/batch_b16",
    ),
    (
        "decode_batch_speedup_b64",
        "inference/decode_batch/step_b64",
        "inference/decode_batch/batch_b64",
    ),
    (
        "prefix_prefill_speedup_share90",
        "inference/prefix_prefill/share0",
        "inference/prefix_prefill/share90",
    ),
];

fn tokens_per_iter(label: &str) -> Option<f64> {
    TOKENS_PER_ITER
        .iter()
        .find(|(l, _)| *l == label)
        .map(|&(_, t)| t as f64)
}

fn ns_of(results: &[(String, f64)], label: &str) -> f64 {
    results
        .iter()
        .find(|(l, _)| l == label)
        .map(|&(_, ns)| ns)
        .unwrap_or(f64::NAN)
}

fn measured_ratio(results: &[(String, f64)], key: &str) -> Option<f64> {
    RATIOS
        .iter()
        .find(|(k, _, _)| *k == key)
        .map(|&(_, num, den)| ns_of(results, num) / ns_of(results, den))
}

/// One trajectory point rendered from a suite run.
fn render_point(c: &Criterion, id: &str) -> Value {
    let results = c.results();
    let mut fields: Vec<(String, Value)> = vec![
        ("id".into(), Value::String(id.into())),
        (
            "kernel_path".into(),
            Value::String(kernels::kernel_path().into()),
        ),
    ];
    for &(key, num, den) in RATIOS {
        let ratio = ns_of(results, num) / ns_of(results, den);
        fields.push((key.into(), Value::Number((ratio * 1e3).round() / 1e3)));
    }
    // Cache-effectiveness companions to the prefix-reuse ratio: both are
    // deterministic functions of the workload, not timing measurements.
    let (hit_rate, evicted) = prefix_cache_effectiveness();
    fields.push((
        "prefix_hit_rate".into(),
        Value::Number((hit_rate * 1e3).round() / 1e3),
    ));
    fields.push(("prefix_pages_evicted".into(), Value::Number(evicted as f64)));
    // Host time per round of each `round_deal` shape (the plan's time
    // over its named rounds; the rounds that admit the decoders and emit
    // their last token are inside it). Recorded, never gated: how far
    // `skewed` drops depends on how many cores the runner deals across,
    // which is written beside it.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    fields.push(("round_deal_threads".into(), Value::Number(threads as f64)));
    for &(shape, _, _) in ROUND_DEAL_SHAPES {
        let ns = ns_of(results, &format!("inference/round_deal/{shape}"));
        fields.push((
            format!("round_deal_{shape}_ns_per_round"),
            Value::Number((ns / ROUND_DEAL_ROUNDS as f64).round()),
        ));
    }
    // Host time for one gathered row to cross one expert (up, gate and
    // down) at each group size. Recorded, never gated: raw ns move with
    // the runner, and with `kernel_path` written above — the block height
    // of the arm that ran is what shapes this curve.
    for &rows in EXPERT_GROUP_SWEEP {
        let ns = ns_of(results, &format!("inference/expert_group/g{rows}"));
        fields.push((
            format!("expert_group_g{rows}_ns_per_row"),
            Value::Number((ns / (PREFILL_BENCH_EXPERTS * rows) as f64).round()),
        ));
    }
    fields.push((
        "raw_ns_per_iter".into(),
        Value::Object(
            results
                .iter()
                .map(|(l, ns)| (l.clone(), Value::Number((ns * 10.0).round() / 10.0)))
                .collect(),
        ),
    ));
    let benches: Vec<(String, Value)> = results
        .iter()
        .map(|(label, ns)| {
            let mut entry: Vec<(String, Value)> = Vec::new();
            match tokens_per_iter(label) {
                Some(toks) => {
                    entry.push((
                        "ns_per_op".into(),
                        Value::Number((ns / toks * 10.0).round() / 10.0),
                    ));
                    entry.push((
                        "tokens_per_s".into(),
                        Value::Number((toks / (ns * 1e-9) * 10.0).round() / 10.0),
                    ));
                }
                None => entry.push((
                    "ns_per_op".into(),
                    Value::Number((ns * 10.0).round() / 10.0),
                )),
            }
            (label.clone(), Value::Object(entry))
        })
        .collect();
    fields.push(("benches".into(), Value::Object(benches)));
    Value::Object(fields)
}

/// Parse the committed file into its trajectory, validating shape.
fn load_trajectory() -> Vec<Value> {
    let text = std::fs::read_to_string(BASELINE_PATH)
        .unwrap_or_else(|e| panic!("cannot read {BASELINE_PATH}: {e}"));
    let v: Value = serde_json::from_str(&text).expect("BENCH_inference.json is not valid JSON");
    assert_eq!(v["schema"], Value::String(SCHEMA.into()), "schema tag");
    let traj = v["trajectory"]
        .as_array()
        .expect("trajectory must be an array");
    assert!(!traj.is_empty(), "trajectory must not be empty");
    for point in traj {
        let id = point["id"].as_str().expect("every point needs an id");
        assert!(
            point["kernel_path"].as_str().is_some(),
            "point {id}: kernel_path must be a string"
        );
        assert!(
            point["decode_speedup_packed_over_naive"].as_f64().is_some(),
            "point {id}: decode speedup must be a number"
        );
        let Some(Value::Object(benches)) = point.get("benches") else {
            panic!("point {id}: benches must be an object");
        };
        assert!(!benches.is_empty(), "point {id}: benches must not be empty");
        for (label, entry) in benches {
            assert!(
                entry["ns_per_op"].as_f64().is_some_and(|ns| ns > 0.0),
                "point {id}: bench {label} needs a positive ns_per_op"
            );
        }
    }
    traj.clone()
}

fn write_trajectory(traj: &[Value]) {
    let doc = Value::Object(vec![
        ("schema".into(), Value::String(SCHEMA.into())),
        ("trajectory".into(), Value::Array(traj.to_vec())),
    ]);
    let mut text = doc.render_pretty();
    text.push('\n');
    std::fs::write(BASELINE_PATH, text)
        .unwrap_or_else(|e| panic!("cannot write {BASELINE_PATH}: {e}"));
}

fn tolerance() -> f64 {
    std::env::var(TOLERANCE_ENV)
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(DEFAULT_TOLERANCE)
}

/// CI gate: structural validation, then measure and compare the headline
/// ratios against the latest committed point.
fn check() {
    let traj = load_trajectory();
    let Some(last) = traj.last() else {
        panic!("trajectory must not be empty");
    };
    let last_id = last["id"].as_str().unwrap_or("?");
    println!(
        "BENCH_inference.json ok: {} trajectory point(s), latest '{last_id}'",
        traj.len()
    );

    let mut c = Criterion::default();
    inference_suite(&mut c);
    let tol = tolerance();
    let mut regressed = false;
    for &(key, _, _) in RATIOS {
        // Older points may predate a ratio; gate only on what the latest
        // committed point actually recorded.
        let Some(committed) = last[key].as_f64() else {
            continue;
        };
        let Some(measured) = measured_ratio(c.results(), key) else {
            continue;
        };
        let floor = committed * tol;
        let verdict = if measured.is_nan() || measured < floor {
            regressed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "  {key}: measured {measured:.2}x vs committed {committed:.2}x (floor {floor:.2}x) {verdict}"
        );
    }
    if regressed {
        eprintln!(
            "bench regression beyond tolerance {tol} against trajectory point '{last_id}' \
             (override band with {TOLERANCE_ENV})"
        );
        std::process::exit(1);
    }
    println!("bench check passed (tolerance {tol})");
}

fn emit(id: &str) {
    let mut c = Criterion::default();
    inference_suite(&mut c);
    let point = render_point(&c, id);
    // Append-only: existing points are never rewritten, except a trailing
    // point with the same id, which this run refreshes.
    let mut traj = if std::path::Path::new(BASELINE_PATH).exists() {
        load_trajectory()
    } else {
        Vec::new()
    };
    if traj.last().is_some_and(|p| p["id"].as_str() == Some(id)) {
        traj.pop();
    }
    traj.push(point);
    write_trajectory(&traj);
    let decode =
        measured_ratio(c.results(), "decode_speedup_packed_over_naive").unwrap_or(f64::NAN);
    let prefill = measured_ratio(c.results(), "prefill_matmul_speedup_t16").unwrap_or(f64::NAN);
    println!(
        "wrote {BASELINE_PATH}: point '{id}' ({} total), kernel_path={}, \
         decode {decode:.2}x, prefill t16 {prefill:.2}x",
        traj.len(),
        kernels::kernel_path(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--check") {
        check();
        return;
    }
    let id = args
        .iter()
        .position(|a| a == "--id")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("local");
    emit(id);
}
