//! `hnlpu-analyze`: static enforcement of the two workspace invariants
//! no rustc or clippy lint can express.
//!
//! The serving path makes promises the type system cannot see: the decode
//! hot loop allocates nothing, down every call chain it reaches, and the
//! differentially-tested path is bit-exact and replayable. This crate
//! lexes the workspace's sources (comment/string-aware, std-only —
//! consistent with the vendored-shim offline build) and checks those two
//! promises on every CI run, with a committed allowlist (`analyze.toml`)
//! where each exception states its reason. The workspace's other static
//! invariants (typed errors instead of aborts, documented `unsafe`,
//! declared `cfg`s, checked ledger arithmetic, audited casts, disjoint
//! fan-out captures) are rustc and clippy lints set in the crate roots
//! and on the files they scope; DESIGN.md §"Static invariants" maps them.
//!
//! The analysis is two-pass and workspace-wide:
//! 1. **Pass 1** lexes every file, builds a symbol table and a
//!    conservative call graph ([`symbols`], [`callgraph`]), and runs the
//!    per-file rules, in file order, so the report is byte-deterministic.
//! 2. **Pass 2** propagates hotness and determinism taint over the call
//!    graph ([`interproc`]), closing the cross-file blind spot: a hot fn
//!    calling an allocating helper two crates away is now a finding.
//!
//! Library layout:
//! * [`lexer`] — sanitizing scanner producing a [`lexer::SourceModel`]
//! * [`rules`] — the two invariant rules, pure per-file functions
//! * [`symbols`] / [`callgraph`] / [`interproc`] — the interprocedural pass
//! * [`config`] — `analyze.toml` parsing (TOML subset, no deps)
//! * [`report`] — deterministic JSON report emission

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

pub mod callgraph;
pub mod config;
pub mod interproc;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod symbols;

use config::{Allow, Config};
use report::{Analysis, Suppressed};
use rules::{FileInput, Violation};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Analysis-level failure: unreadable tree or undecodable source.
#[derive(Debug, Clone)]
pub struct AnalyzeError {
    /// What went wrong, with the offending path inline.
    pub message: String,
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for AnalyzeError {}

fn io_err(context: &str, path: &Path, e: std::io::Error) -> AnalyzeError {
    AnalyzeError {
        message: format!("{context} {}: {e}", path.display()),
    }
}

/// Analyze every workspace crate under `root/crates/*/src`.
///
/// Walk order is sorted (and violations re-sorted by path/line/rule) so
/// output and the JSON report are deterministic. The allowlist in `cfg`
/// is applied here: covered findings move to `suppressed`, and entries
/// that cover nothing are reported as stale — the allowlist can only
/// shrink as code is fixed.
///
/// # Errors
///
/// Returns [`AnalyzeError`] when the tree cannot be read (missing
/// `crates/` dir or an unreadable file).
pub fn analyze_workspace(root: &Path, cfg: &Config) -> Result<Analysis, AnalyzeError> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| io_err("cannot read", &crates_dir, e))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut analysis = Analysis::default();
    let mut files: Vec<FileInput> = Vec::new();
    let mut raw_violations: Vec<Violation> = Vec::new();

    // Pass 1: lex every file and run the per-file rules, in walk order.
    for crate_dir in &crate_dirs {
        let src_dir = crate_dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        collect_rust_files(&src_dir, &mut paths)?;
        for path in paths {
            let source = fs::read_to_string(&path).map_err(|e| io_err("cannot read", &path, e))?;
            let file = FileInput::new(&rel_path(root, &path), &source);
            raw_violations.extend(rules::run_file_rules(&file, cfg));
            files.push(file);
            analysis.files_scanned += 1;
        }
    }

    // Pass 2: call-graph propagation over the whole workspace.
    let (interproc_violations, stats) = interproc::check(&files, cfg);
    raw_violations.extend(interproc_violations);
    analysis.interproc = stats;

    raw_violations.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.pattern.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.pattern.as_str(),
        ))
    });
    raw_violations.dedup_by(|a, b| {
        a.path == b.path && a.line == b.line && a.rule == b.rule && a.pattern == b.pattern
    });

    let mut allow_used = vec![false; cfg.allows.len()];
    for v in raw_violations {
        let hit = cfg.allows.iter().position(|allow| allow_covers(allow, &v));
        match hit {
            Some(i) => {
                allow_used[i] = true;
                analysis.suppressed.push(Suppressed {
                    reason: cfg.allows[i].reason.clone(),
                    violation: v,
                });
            }
            None => analysis.violations.push(v),
        }
    }
    for (allow, used) in cfg.allows.iter().zip(&allow_used) {
        if !used {
            analysis
                .stale_allows
                .push(format!("{} @ {}", allow.rule, allow.path));
        }
    }
    Ok(analysis)
}

/// Does `allow` cover violation `v`?
fn allow_covers(allow: &Allow, v: &Violation) -> bool {
    allow.rule == v.rule
        && rules::path_matches(&v.path, &allow.path)
        && allow.pattern.as_ref().is_none_or(|p| p == &v.pattern)
        && allow.line.is_none_or(|l| l == v.line)
}

/// Recursively gather `.rs` files under `dir`, sorted at each level.
fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), AnalyzeError> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| io_err("cannot read", dir, e))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rust_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_matching_narrows_by_pattern_and_line() {
        let v = Violation {
            rule: "determinism",
            pattern: "Instant::now".to_string(),
            path: "crates/llm/src/telemetry.rs".to_string(),
            line: 74,
            message: String::new(),
        };
        let base = Allow {
            rule: "determinism".to_string(),
            path: "llm/src/telemetry.rs".to_string(),
            pattern: None,
            line: None,
            reason: "r".to_string(),
        };
        assert!(allow_covers(&base, &v));
        let narrowed = Allow {
            pattern: Some("Instant::now".to_string()),
            line: Some(74),
            ..base.clone()
        };
        assert!(allow_covers(&narrowed, &v));
        let wrong_line = Allow {
            line: Some(75),
            ..base.clone()
        };
        assert!(!allow_covers(&wrong_line, &v));
        let wrong_rule = Allow {
            rule: "hot-path-alloc".to_string(),
            ..base
        };
        assert!(!allow_covers(&wrong_rule, &v));
    }
}
