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
fn determinism_bad_fixture_flagged() {
    let v = run("determinism_bad.rs", "determinism");
    let pats: Vec<&str> = v.iter().map(|v| v.pattern.as_str()).collect();
    for expected in [
        "HashMap",
        "HashSet",
        "Instant::now",
        "mul_add",
        "_mm256_fmadd_ps",
        ".exp()",
    ] {
        assert!(pats.contains(&expected), "missing `{expected}` in {pats:?}");
    }
}

#[test]
fn determinism_good_fixture_clean() {
    assert_eq!(run("determinism_good.rs", "determinism"), vec![]);
}
