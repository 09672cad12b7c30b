//! The rule engine: the two invariant rules no rustc or clippy lint can
//! express, over lexed source models.
//!
//! Each per-file rule is a pure function from a [`FileInput`] (plus
//! config scoping) to a list of [`Violation`]s, so every rule is
//! independently testable on fixture snippets without touching the
//! filesystem (the interprocedural pass in [`crate::interproc`] runs
//! separately, over all files at once). DESIGN.md §"Static invariants"
//! maps each rule to the runtime property it protects.

pub mod alloc;
pub mod determinism;

use crate::config::Config;
use crate::lexer::SourceModel;

/// One lexed source file plus its repo-relative path.
#[derive(Debug)]
pub struct FileInput {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Lexed model.
    pub model: SourceModel,
}

impl FileInput {
    /// Lex `source` under the repo-relative label `rel_path`.
    pub fn new(rel_path: &str, source: &str) -> FileInput {
        FileInput {
            rel_path: rel_path.to_string(),
            model: SourceModel::parse(source),
        }
    }
}

/// One rule finding at `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id.
    pub rule: &'static str,
    /// Pattern id within the rule (e.g. `clone`, `Instant::now`, `HashMap`).
    pub pattern: String,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

/// Does `rel_path` match `configured` (exact, or suffix at a `/` boundary)?
pub fn path_matches(rel_path: &str, configured: &str) -> bool {
    rel_path == configured
        || (rel_path.len() > configured.len()
            && rel_path.ends_with(configured)
            && rel_path.as_bytes()[rel_path.len() - configured.len() - 1] == b'/')
}

/// Is `rel_path` in the configured path list?
pub fn in_path_set(rel_path: &str, set: &[String]) -> bool {
    set.iter().any(|p| path_matches(rel_path, p))
}

/// Run every per-file rule over `file`.
pub fn run_file_rules(file: &FileInput, cfg: &Config) -> Vec<Violation> {
    let mut out = alloc::check(file, cfg);
    out.extend(determinism::check(file, cfg));
    out
}

/// Word-boundary-aware occurrences of `needle` in `haystack` (byte
/// columns). A match must not be embedded in a longer identifier.
pub fn ident_occurrences(haystack: &str, needle: &str) -> Vec<usize> {
    let bytes = haystack.as_bytes();
    let mut cols = Vec::new();
    let mut start = 0usize;
    while let Some(pos) = haystack[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            cols.push(at);
        }
        start = at + needle.len().max(1);
    }
    cols
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_suffix_matching() {
        assert!(path_matches(
            "crates/llm/src/batch.rs",
            "crates/llm/src/batch.rs"
        ));
        assert!(path_matches("crates/llm/src/batch.rs", "llm/src/batch.rs"));
        assert!(path_matches("crates/llm/src/batch.rs", "batch.rs"));
        assert!(!path_matches("crates/llm/src/rebatch.rs", "batch.rs"));
        assert!(!path_matches("batch.rs", "llm/src/batch.rs"));
    }

    #[test]
    fn ident_occurrences_respect_boundaries() {
        assert_eq!(ident_occurrences("HashMap::new()", "HashMap"), vec![0]);
        assert!(ident_occurrences("HashMaps()", "HashMap").is_empty());
        assert!(ident_occurrences("my_HashMap()", "HashMap").is_empty());
    }
}
