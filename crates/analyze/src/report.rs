//! Machine-readable report: `analyze-report.json`.
//!
//! The JSON is hand-rendered (std only, deterministic field and entry
//! order, no timestamps) so successive runs over an unchanged workspace
//! are byte-identical — future PRs diff violation counts the way
//! `BENCH_inference.json` tracks perf.

use crate::interproc::InterprocStats;
use crate::rules::Violation;
use std::fmt::Write as _;

/// A suppressed finding: the violation plus the allowlist reason.
#[derive(Debug, Clone)]
pub struct Suppressed {
    /// The finding.
    pub violation: Violation,
    /// The `[[allow]]` reason that covers it.
    pub reason: String,
}

/// Outcome of one analysis run.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Unallowlisted violations (nonzero ⇒ gate fails).
    pub violations: Vec<Violation>,
    /// Allowlisted findings, kept for the report.
    pub suppressed: Vec<Suppressed>,
    /// Stale `[[allow]]` entries (matched nothing; also fail the gate),
    /// rendered as `rule @ path`.
    pub stale_allows: Vec<String>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Call-graph / propagation statistics from the interprocedural pass.
    pub interproc: InterprocStats,
}

impl Analysis {
    /// Does the gate pass?
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.stale_allows.is_empty()
    }

    /// Render the JSON report.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"tool\": \"hnlpu-analyze\",");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"total_violations\": {},", self.violations.len());
        let _ = writeln!(s, "  \"total_allowed\": {},", self.suppressed.len());
        let _ = writeln!(s, "  \"stale_allows\": {},", self.stale_allows.len());
        s.push_str("  \"interprocedural\": {\n");
        let _ = writeln!(s, "    \"fns_indexed\": {},", self.interproc.fns_indexed);
        let _ = writeln!(s, "    \"call_edges\": {},", self.interproc.call_edges);
        let _ = writeln!(
            s,
            "    \"hot_reachable_fns\": {},",
            self.interproc.hot_reachable
        );
        let _ = writeln!(
            s,
            "    \"determinism_tainted_fns\": {}",
            self.interproc.determinism_tainted
        );
        s.push_str("  },\n");
        s.push_str("  \"rules\": {\n");
        let rules = ["hot-path-alloc", "determinism"];
        for (i, rule) in rules.iter().enumerate() {
            let violations = self.violations.iter().filter(|v| v.rule == *rule).count();
            let allowed = self
                .suppressed
                .iter()
                .filter(|sup| sup.violation.rule == *rule)
                .count();
            let _ = writeln!(
                s,
                "    {}: {{\"violations\": {violations}, \"allowed\": {allowed}}}{}",
                json_str(rule),
                if i + 1 < rules.len() { "," } else { "" }
            );
        }
        s.push_str("  },\n");
        s.push_str("  \"violations\": [\n");
        render_violations(&mut s, self.violations.iter().map(|v| (v, None)));
        s.push_str("  ],\n");
        s.push_str("  \"allowed\": [\n");
        render_violations(
            &mut s,
            self.suppressed
                .iter()
                .map(|sup| (&sup.violation, Some(sup.reason.as_str()))),
        );
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

fn render_violations<'a, I>(s: &mut String, items: I)
where
    I: Iterator<Item = (&'a Violation, Option<&'a str>)>,
{
    let items: Vec<_> = items.collect();
    for (i, (v, reason)) in items.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"pattern\": {}, \"message\": {}",
            json_str(v.rule),
            json_str(&v.path),
            v.line,
            json_str(&v.pattern),
            json_str(&v.message),
        );
        if let Some(r) = reason {
            let _ = write!(s, ", \"reason\": {}", json_str(r));
        }
        let _ = writeln!(s, "}}{}", if i + 1 < items.len() { "," } else { "" });
    }
}

/// JSON-escape a string.
fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_valid_shape_and_deterministic() {
        let a = Analysis {
            violations: vec![Violation {
                rule: "determinism",
                pattern: "HashMap".to_string(),
                path: "crates/x/src/lib.rs".to_string(),
                line: 3,
                message: "a \"quoted\" message".to_string(),
            }],
            suppressed: vec![],
            stale_allows: vec![],
            files_scanned: 1,
            interproc: InterprocStats::default(),
        };
        let j1 = a.to_json();
        let j2 = a.to_json();
        assert_eq!(j1, j2);
        assert!(j1.contains("\\\"quoted\\\""));
        assert!(j1.contains("\"total_violations\": 1"));
        assert!(!a.ok());
    }

    #[test]
    fn empty_analysis_passes() {
        assert!(Analysis::default().ok());
    }
}
