//! Smoke-run every example binary end to end.
//!
//! Ignored by default (each run spawns a `cargo run --release`, which is
//! slow under `cargo test`); CI runs it explicitly:
//!
//! ```sh
//! cargo test -p hnlpu-integration --test examples_smoke -- --ignored
//! ```

use std::path::Path;
use std::process::{Command, Stdio};

/// Every `[[example]]` registered in crates/core/Cargo.toml.
const EXAMPLES: &[&str] = &[
    "quickstart",
    "serving_simulator",
    "design_space_explorer",
    "tco_planner",
    "dataflow_verifier",
    "metal_embedding_compiler",
    "generate_reports",
    "rtl_export",
    "prompt_interface",
];

#[test]
#[ignore = "spawns one cargo run per example; exercised explicitly in CI"]
fn every_example_runs_cleanly() {
    let workspace_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits inside the workspace");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    for name in EXAMPLES {
        let output = Command::new(&cargo)
            .current_dir(workspace_root)
            .args([
                "run",
                "--release",
                "--offline",
                "-p",
                "hnlpu",
                "--example",
                name,
            ])
            .stdin(Stdio::null())
            .output()
            .unwrap_or_else(|e| panic!("spawning cargo for example {name}: {e}"));
        assert!(
            output.status.success(),
            "example {name} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
        assert!(!output.stdout.is_empty(), "example {name} printed nothing");
        if *name == "serving_simulator" {
            // The committed reports it rewrites are checked byte for byte
            // by CI's `git diff --exit-code`; here, that the online
            // section and its SLO table ran.
            let stdout = String::from_utf8_lossy(&output.stdout);
            for line in ["online: event-driven serving", "TTFT p99 s"] {
                assert!(stdout.contains(line), "{line:?} missing:\n{stdout}");
            }
        }
    }
}
