//! Per-rule fixture tests: every rule has a failing (bad) and a passing
//! (good) fixture, checked in both directions.

use hnlpu_analyze::config::Config;
use hnlpu_analyze::rules::{self, FileInput, Violation};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Config that puts the fixture file in scope of every configured rule.
fn cfg_for(rel_path: &str) -> Config {
    Config {
        hot_modules: vec![rel_path.to_string()],
        determinism_paths: vec![rel_path.to_string()],
        mul_add_allowed_in: vec![],
        index_paths: vec![rel_path.to_string()],
        arith_paths: vec![rel_path.to_string()],
        arith_tracked: vec![
            "micros".to_string(),
            "tokens".to_string(),
            "bytes".to_string(),
        ],
        cast_paths: vec![rel_path.to_string()],
        allows: vec![],
    }
}

fn run(name: &str, rule: &str) -> Vec<Violation> {
    let rel = format!("crates/demo/src/{name}");
    let file = FileInput::new(&rel, &fixture(name));
    let cfg = cfg_for(&rel);
    rules::run_file_rules(&file, &cfg)
        .into_iter()
        .filter(|v| v.rule == rule)
        .collect()
}

#[test]
fn alloc_bad_fixture_flagged() {
    let v = run("alloc_bad.rs", "hot-path-alloc");
    assert!(v.len() >= 6, "expected ≥6 alloc violations, got {v:#?}");
    let pats: Vec<&str> = v.iter().map(|v| v.pattern.as_str()).collect();
    for expected in ["Vec::new", "to_vec", "format!", "Box::new", "collect"] {
        assert!(pats.contains(&expected), "missing `{expected}` in {pats:?}");
    }
}

#[test]
fn alloc_good_fixture_clean() {
    assert_eq!(run("alloc_good.rs", "hot-path-alloc"), vec![]);
}

#[test]
fn alloc_hot_annotation_works_outside_hot_modules() {
    // Registered under a path that is NOT a hot module: only the
    // `// analyze: hot` fn is audited.
    let file = FileInput::new("crates/demo/src/other.rs", &fixture("alloc_bad.rs"));
    let cfg = Config::default();
    let v: Vec<Violation> = rules::run_file_rules(&file, &cfg)
        .into_iter()
        .filter(|v| v.rule == "hot-path-alloc")
        .collect();
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].pattern, "to_vec");
}

#[test]
fn unsafe_bad_fixture_flagged() {
    let v = run("unsafe_bad.rs", "unsafe-audit");
    assert_eq!(v.len(), 2, "{v:#?}");
}

#[test]
fn unsafe_good_fixture_clean() {
    assert_eq!(run("unsafe_good.rs", "unsafe-audit"), vec![]);
}

#[test]
fn determinism_bad_fixture_flagged() {
    let v = run("determinism_bad.rs", "determinism");
    let pats: Vec<&str> = v.iter().map(|v| v.pattern.as_str()).collect();
    for expected in [
        "HashMap",
        "HashSet",
        "Instant::now",
        "mul_add",
        "_mm256_fmadd_ps",
    ] {
        assert!(pats.contains(&expected), "missing `{expected}` in {pats:?}");
    }
}

#[test]
fn determinism_good_fixture_clean() {
    assert_eq!(run("determinism_good.rs", "determinism"), vec![]);
}

#[test]
fn panic_bad_fixture_flagged() {
    let v = run("panic_bad.rs", "panic-policy");
    let pats: Vec<&str> = v.iter().map(|v| v.pattern.as_str()).collect();
    for expected in ["unwrap", "expect", "panic!", "todo!", "index"] {
        assert!(pats.contains(&expected), "missing `{expected}` in {pats:?}");
    }
}

#[test]
fn panic_good_fixture_clean() {
    assert_eq!(run("panic_good.rs", "panic-policy"), vec![]);
}

#[test]
fn arith_bad_fixture_flagged() {
    let v = run("arith_bad.rs", "arith-overflow");
    let pats: Vec<&str> = v.iter().map(|v| v.pattern.as_str()).collect();
    for expected in ["+", "+=", "*"] {
        assert!(pats.contains(&expected), "missing `{expected}` in {pats:?}");
    }
}

#[test]
fn arith_good_fixture_clean() {
    assert_eq!(run("arith_good.rs", "arith-overflow"), vec![]);
}

#[test]
fn casts_bad_fixture_flagged() {
    let v = run("casts_bad.rs", "lossy-cast");
    let pats: Vec<&str> = v.iter().map(|v| v.pattern.as_str()).collect();
    for expected in ["f64", "u32", "usize"] {
        assert!(pats.contains(&expected), "missing `{expected}` in {pats:?}");
    }
}

#[test]
fn casts_good_fixture_clean() {
    assert_eq!(run("casts_good.rs", "lossy-cast"), vec![]);
}

#[test]
fn concurrency_bad_fixture_flagged() {
    let v = run("concurrency_bad.rs", "concurrency-capture");
    let pats: Vec<&str> = v.iter().map(|v| v.pattern.as_str()).collect();
    for expected in ["shared-mut-capture", "static-mut"] {
        assert!(pats.contains(&expected), "missing `{expected}` in {pats:?}");
    }
}

#[test]
fn concurrency_good_fixture_clean() {
    assert_eq!(run("concurrency_good.rs", "concurrency-capture"), vec![]);
}

#[test]
fn cfg_parity_bad_fixture_flagged() {
    let manifest = fixture("cfg_bad/Cargo.toml");
    let features = rules::cfg_parity::declared_features(&manifest);
    let file = FileInput::new("crates/cfg_bad/src/lib.rs", &fixture("cfg_bad/src/lib.rs"));
    let v = rules::cfg_parity::check(&file, &features);
    let pats: Vec<&str> = v.iter().map(|v| v.pattern.as_str()).collect();
    assert_eq!(pats, vec!["paralel", "simd"], "{v:#?}");
}

#[test]
fn cfg_parity_good_fixture_clean() {
    let manifest = fixture("cfg_good/Cargo.toml");
    let features = rules::cfg_parity::declared_features(&manifest);
    let file = FileInput::new(
        "crates/cfg_good/src/lib.rs",
        &fixture("cfg_good/src/lib.rs"),
    );
    assert_eq!(rules::cfg_parity::check(&file, &features), vec![]);
}
