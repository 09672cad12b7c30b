//! CLI for the workspace invariant analyzer.
//!
//! ```text
//! cargo run --release -p hnlpu-analyze [-- --root DIR --config FILE --report FILE]
//! ```
//!
//! Exit codes: `0` clean, `1` unallowlisted violations or stale allowlist
//! entries, `2` configuration or I/O failure. Human diagnostics go to
//! stdout as `path:line: [rule] message`; the machine-readable report is
//! written to `analyze-report.json` (or `--report`).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

use hnlpu_analyze::config::Config;
use hnlpu_analyze::{analyze_workspace, report::Analysis};
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    config: Option<PathBuf>,
    report: Option<PathBuf>,
}

fn main() -> ExitCode {
    let mut opts = Options {
        root: PathBuf::from("."),
        config: None,
        report: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" | "--config" | "--report" => {
                let Some(value) = args.next() else {
                    eprintln!("hnlpu-analyze: {arg} requires a path argument");
                    return ExitCode::from(2);
                };
                match arg.as_str() {
                    "--root" => opts.root = PathBuf::from(value),
                    "--config" => opts.config = Some(PathBuf::from(value)),
                    _ => opts.report = Some(PathBuf::from(value)),
                }
            }
            "--help" | "-h" => {
                println!(
                    "hnlpu-analyze: static workspace invariant checks\n\
                     \n\
                     USAGE: hnlpu-analyze [--root DIR] [--config FILE] [--report FILE]\n\
                     \n\
                     --root DIR      workspace root to scan (default: .)\n\
                     --config FILE   allowlist/scoping config (default: ROOT/analyze.toml)\n\
                     --report FILE   JSON report path (default: ROOT/analyze-report.json)\n\
                     \n\
                     Exit codes: 0 clean, 1 violations or stale allows, 2 config/io error."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("hnlpu-analyze: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    run(&opts)
}

fn run(opts: &Options) -> ExitCode {
    let config_path = opts
        .config
        .clone()
        .unwrap_or_else(|| opts.root.join("analyze.toml"));
    let config_text = match fs::read_to_string(&config_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("hnlpu-analyze: cannot read {}: {e}", config_path.display());
            return ExitCode::from(2);
        }
    };
    let cfg = match Config::parse(&config_text) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("hnlpu-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let analysis = match analyze_workspace(&opts.root, &cfg) {
        Ok(analysis) => analysis,
        Err(e) => {
            eprintln!("hnlpu-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    print_human(&analysis);

    let report_path = opts
        .report
        .clone()
        .unwrap_or_else(|| opts.root.join("analyze-report.json"));
    if let Err(e) = fs::write(&report_path, analysis.to_json()) {
        eprintln!("hnlpu-analyze: cannot write {}: {e}", report_path.display());
        return ExitCode::from(2);
    }

    if analysis.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_human(analysis: &Analysis) {
    for v in &analysis.violations {
        println!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.message);
    }
    for stale in &analysis.stale_allows {
        println!(
            "analyze.toml: [stale-allow] entry `{stale}` no longer matches anything — \
             remove it"
        );
    }
    println!(
        "hnlpu-analyze: {} files; {} violations, {} allowed, {} stale allows",
        analysis.files_scanned,
        analysis.violations.len(),
        analysis.suppressed.len(),
        analysis.stale_allows.len()
    );
}
