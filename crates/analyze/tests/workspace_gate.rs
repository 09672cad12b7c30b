//! End-to-end gates: the real workspace passes with zero unallowlisted
//! violations, and the binary exits nonzero on the known-bad mini
//! workspace fixture.

use hnlpu_analyze::{analyze_workspace, config::Config};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn load_config(root: &Path) -> Config {
    let text = std::fs::read_to_string(root.join("analyze.toml")).expect("analyze.toml reads");
    Config::parse(&text).expect("analyze.toml parses")
}

#[test]
fn real_workspace_has_no_unallowlisted_violations() {
    let root = repo_root();
    let cfg = load_config(&root);
    let analysis = analyze_workspace(&root, &cfg).expect("workspace scans");
    assert!(
        analysis.violations.is_empty(),
        "unallowlisted violations:\n{}",
        analysis
            .violations
            .iter()
            .map(|v| format!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        analysis.stale_allows.is_empty(),
        "stale allowlist entries: {:?}",
        analysis.stale_allows
    );
    assert!(analysis.files_scanned > 50, "walker found the workspace");
    // Every suppression carries a nonempty reason (Config::parse enforces
    // it at load; this asserts the committed file actually exercises it).
    for sup in &analysis.suppressed {
        assert!(!sup.reason.trim().is_empty());
    }
}

#[test]
fn mini_bad_workspace_flags_every_rule() {
    let root = fixture_root("mini_bad");
    let cfg = load_config(&root);
    let analysis = analyze_workspace(&root, &cfg).expect("fixture scans");
    let rules: Vec<&str> = analysis.violations.iter().map(|v| v.rule).collect();
    for rule in ["hot-path-alloc", "determinism"] {
        assert!(rules.contains(&rule), "missing {rule} in {rules:?}");
    }
}

#[test]
fn interproc_gate_catches_allocation_two_crates_away() {
    let root = fixture_root("mini_interproc");
    let cfg = load_config(&root);
    let analysis = analyze_workspace(&root, &cfg).expect("fixture scans");
    let hits: Vec<_> = analysis
        .violations
        .iter()
        .filter(|v| v.rule == "hot-path-alloc")
        .collect();
    assert_eq!(hits.len(), 1, "{:#?}", analysis.violations);
    assert_eq!(hits[0].path, "crates/back/src/lib.rs");
    assert_eq!(hits[0].pattern, "to_vec");
    assert!(
        hits[0]
            .message
            .contains("decode_step -> mid_stage -> far_helper"),
        "chain missing from message: {}",
        hits[0].message
    );
}

#[test]
fn binary_exits_nonzero_on_bad_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_hnlpu-analyze"))
        .arg("--root")
        .arg(fixture_root("mini_bad"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[determinism]"), "{stdout}");
    let report = std::fs::read_to_string(fixture_root("mini_bad").join("analyze-report.json"))
        .expect("report written");
    assert!(report.contains("\"total_violations\""));
    std::fs::remove_file(fixture_root("mini_bad").join("analyze-report.json")).ok();
}

#[test]
fn binary_exits_zero_on_good_workspace_and_writes_report() {
    let report_path = std::env::temp_dir().join("hnlpu-analyze-mini-good.json");
    let out = Command::new(env!("CARGO_BIN_EXE_hnlpu-analyze"))
        .arg("--root")
        .arg(fixture_root("mini_good"))
        .arg("--report")
        .arg(&report_path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let report = std::fs::read_to_string(&report_path).expect("report written");
    assert!(report.contains("\"total_violations\": 0"), "{report}");
    assert!(report.contains("\"total_allowed\": 1"), "{report}");
    std::fs::remove_file(&report_path).ok();
}

#[test]
fn binary_exits_two_on_missing_config() {
    let out = Command::new(env!("CARGO_BIN_EXE_hnlpu-analyze"))
        .arg("--root")
        .arg(fixture_root("mini_good"))
        .arg("--config")
        .arg("does-not-exist.toml")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn stale_allow_entry_fails_the_gate() {
    let root = fixture_root("mini_good");
    let mut cfg = load_config(&root);
    cfg.allows.push(hnlpu_analyze::config::Allow {
        rule: "determinism".to_string(),
        path: "crates/demo/src/lib.rs".to_string(),
        pattern: Some("HashMap".to_string()),
        line: None,
        reason: "obsolete entry that matches nothing".to_string(),
    });
    let analysis = analyze_workspace(&root, &cfg).expect("fixture scans");
    assert!(analysis.violations.is_empty());
    assert_eq!(
        analysis.stale_allows.len(),
        1,
        "{:?}",
        analysis.stale_allows
    );
    assert!(!analysis.ok());
}
