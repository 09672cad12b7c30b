//! `analyze.toml`: rule scoping and the committed allowlist.
//!
//! The workspace builds fully offline with vendored shims, so this module
//! hand-parses the small TOML subset the config actually uses — comments,
//! `[section]` tables, `[[allow]]` array-of-tables, string / integer /
//! string-array values — rather than growing a dependency. Every `[[allow]]`
//! entry must carry a nonempty `reason`; a reasonless suppression is a
//! config error, not a style nit.

use std::fmt;

/// One allowlist entry: suppress diagnostics of `rule` in `path`.
///
/// `pattern` and `line` narrow the match; when omitted the entry covers
/// every diagnostic of that rule in that file (used for e.g. a file-level
/// indexing audit). An entry that suppresses nothing is *stale* and is
/// itself reported as a violation, so the allowlist can only shrink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule id (`hot-path-alloc` or `determinism`).
    pub rule: String,
    /// Repo-relative path (suffix match, so `llm/src/batch.rs` works).
    pub path: String,
    /// Pattern id to match (e.g. `Instant::now`, `clone`).
    pub pattern: Option<String>,
    /// Exact 1-based line, for single-site precision.
    pub line: Option<usize>,
    /// Why this finding is acceptable. Required, nonempty.
    pub reason: String,
}

/// Parsed `analyze.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Files audited whole-module by hot-path-alloc (`// analyze: cold`
    /// exempts a fn; `// analyze: hot` opts fns in anywhere else).
    pub hot_modules: Vec<String>,
    /// Files covered by the determinism rule (the differential-tested
    /// serving path).
    pub determinism_paths: Vec<String>,
    /// Files where `mul_add` contraction is permitted (the runtime-
    /// dispatched kernel module).
    pub mul_add_allowed_in: Vec<String>,
    /// Allowlist entries, in file order.
    pub allows: Vec<Allow>,
}

/// Config load/parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line in `analyze.toml` (0 for semantic errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "analyze.toml:{}: {}", self.line, self.message)
        } else {
            write!(f, "analyze.toml: {}", self.message)
        }
    }
}

impl std::error::Error for ConfigError {}

/// A parsed scalar or array value.
enum Value {
    Str(String),
    Int(usize),
    List(Vec<String>),
}

impl Config {
    /// Parse the TOML-subset text of `analyze.toml`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on unknown sections/keys, malformed values,
    /// or an `[[allow]]` entry missing a nonempty `reason`.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut current_allow: Option<(Allow, usize)> = None;

        let raw_lines: Vec<&str> = text.lines().collect();
        let mut idx = 0usize;
        while idx < raw_lines.len() {
            let line_no = idx + 1;
            let mut line = strip_comment(raw_lines[idx]).trim().to_string();
            idx += 1;
            // Multi-line arrays: keep consuming lines until the bracket
            // closes (arrays here hold only strings — no nesting).
            if line.contains('=') && line.contains('[') && !line.contains(']') {
                while idx < raw_lines.len() {
                    let cont = strip_comment(raw_lines[idx]).trim().to_string();
                    idx += 1;
                    line.push(' ');
                    line.push_str(&cont);
                    if cont.contains(']') {
                        break;
                    }
                }
            }
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                finish_allow(&mut cfg, &mut current_allow)?;
                if name.trim() != "allow" {
                    return Err(err(line_no, format!("unknown array section [[{name}]]")));
                }
                section = "allow".to_string();
                current_allow = Some((
                    Allow {
                        rule: String::new(),
                        path: String::new(),
                        pattern: None,
                        line: None,
                        reason: String::new(),
                    },
                    line_no,
                ));
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                finish_allow(&mut cfg, &mut current_allow)?;
                section = name.trim().to_string();
                match section.as_str() {
                    "hot_path" | "determinism" => {}
                    other => return Err(err(line_no, format!("unknown section [{other}]"))),
                }
                continue;
            }
            let Some((key, value)) = parse_key_value(&line, line_no)? else {
                return Err(err(
                    line_no,
                    format!("expected `key = value`, got `{line}`"),
                ));
            };
            match (section.as_str(), key.as_str()) {
                ("hot_path", "modules") => cfg.hot_modules = expect_list(value, line_no)?,
                ("determinism", "paths") => cfg.determinism_paths = expect_list(value, line_no)?,
                ("determinism", "mul_add_allowed_in") => {
                    cfg.mul_add_allowed_in = expect_list(value, line_no)?
                }
                ("allow", k) => {
                    let Some((allow, _)) = current_allow.as_mut() else {
                        return Err(err(line_no, "key outside of any [[allow]] entry".into()));
                    };
                    match (k, value) {
                        ("rule", Value::Str(s)) => allow.rule = s,
                        ("path", Value::Str(s)) => allow.path = s,
                        ("pattern", Value::Str(s)) => allow.pattern = Some(s),
                        ("reason", Value::Str(s)) => allow.reason = s,
                        ("line", Value::Int(n)) => allow.line = Some(n),
                        (k, _) => {
                            return Err(err(line_no, format!("unknown [[allow]] key `{k}`")));
                        }
                    }
                }
                (s, k) => {
                    return Err(err(line_no, format!("unknown key `{k}` in section [{s}]")));
                }
            }
        }
        finish_allow(&mut cfg, &mut current_allow)?;
        Ok(cfg)
    }
}

fn err(line: usize, message: String) -> ConfigError {
    ConfigError { line, message }
}

/// Validate and commit a pending `[[allow]]` entry.
fn finish_allow(cfg: &mut Config, pending: &mut Option<(Allow, usize)>) -> Result<(), ConfigError> {
    if let Some((allow, line)) = pending.take() {
        if allow.rule.is_empty() {
            return Err(err(line, "[[allow]] entry missing `rule`".into()));
        }
        if allow.path.is_empty() {
            return Err(err(line, "[[allow]] entry missing `path`".into()));
        }
        if allow.reason.trim().is_empty() {
            return Err(err(
                line,
                format!(
                    "[[allow]] entry for rule `{}` in `{}` has no reason — every \
                     suppression must say why",
                    allow.rule, allow.path
                ),
            ));
        }
        cfg.allows.push(allow);
    }
    Ok(())
}

/// Drop a `#`-to-end-of-line comment (respecting quoted strings).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse `key = value`; `Ok(None)` when there is no `=`.
fn parse_key_value(line: &str, line_no: usize) -> Result<Option<(String, Value)>, ConfigError> {
    let Some((key, rest)) = line.split_once('=') else {
        return Ok(None);
    };
    let key = key.trim().to_string();
    let rest = rest.trim();
    let value = if let Some(body) = rest.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err(err(line_no, "unterminated array".into()));
        };
        let mut items = Vec::new();
        for item in split_top_level(body) {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            items.push(parse_string(item, line_no)?);
        }
        Value::List(items)
    } else if rest.starts_with('"') {
        Value::Str(parse_string(rest, line_no)?)
    } else if let Ok(n) = rest.parse::<usize>() {
        Value::Int(n)
    } else {
        return Err(err(line_no, format!("unsupported value `{rest}`")));
    };
    Ok(Some((key, value)))
}

/// Split a bracket-free array body on commas.
fn split_top_level(body: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    for (i, c) in body.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    parts
}

/// Parse a double-quoted string (no escape support needed here).
fn parse_string(text: &str, line_no: usize) -> Result<String, ConfigError> {
    let t = text.trim();
    let inner = t
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| err(line_no, format!("expected a quoted string, got `{t}`")))?;
    Ok(inner.to_string())
}

fn expect_list(value: Value, line_no: usize) -> Result<Vec<String>, ConfigError> {
    match value {
        Value::List(items) => Ok(items),
        _ => Err(err(line_no, "expected a string array".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# Workspace invariants.
[hot_path]
modules = ["crates/llm/src/kernels.rs", "crates/model/src/packed.rs"]

[determinism]
paths = ["crates/llm/src/batch.rs"]
mul_add_allowed_in = ["crates/llm/src/kernels.rs"]

[[allow]]
rule = "determinism"
path = "crates/llm/src/batch.rs"
pattern = "Instant::now"
reason = "wall-clock only feeds the throughput report"

[[allow]]
rule = "hot-path-alloc"
path = "crates/llm/src/kv_cache.rs"
pattern = "clone"
line = 258
reason = "cold path reached only on a prefix miss"
"#;

    #[test]
    fn parses_sections_and_allows() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(cfg.hot_modules.len(), 2);
        assert_eq!(cfg.determinism_paths, vec!["crates/llm/src/batch.rs"]);
        assert_eq!(cfg.allows.len(), 2);
        assert_eq!(cfg.allows[0].pattern.as_deref(), Some("Instant::now"));
        assert_eq!(cfg.allows[1].line, Some(258));
    }

    /// The sections of the rules that became clippy lints are errors (the
    /// binary exits 2 on any parse error), so a stale config cannot
    /// silently stop checking what it names.
    #[test]
    fn removed_sections_are_config_errors() {
        for text in [
            "[arith]\npaths = [\"serve.rs\"]\ntracked = [\"micros\"]\n",
            "[casts]\npaths = [\"serve.rs\"]\n",
            "[panic_policy]\nindex_paths = [\"batch.rs\"]\n",
        ] {
            let e = Config::parse(text).unwrap_err();
            assert_eq!(e.line, 1, "{e}");
            assert!(e.message.contains("unknown section"), "{e}");
        }
    }

    #[test]
    fn multi_line_arrays_parse() {
        let cfg =
            Config::parse("[hot_path]\nmodules = [\n    \"a.rs\",  # kernel\n    \"b.rs\",\n]\n")
                .unwrap();
        assert_eq!(cfg.hot_modules, vec!["a.rs", "b.rs"]);
    }

    #[test]
    fn reasonless_allow_rejected() {
        let bad = "[[allow]]\nrule = \"determinism\"\npath = \"x.rs\"\n";
        let e = Config::parse(bad).unwrap_err();
        assert!(e.message.contains("no reason"), "{e}");
    }

    #[test]
    fn unknown_section_rejected() {
        let e = Config::parse("[what]\nkey = \"v\"\n").unwrap_err();
        assert!(e.message.contains("unknown section"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let cfg = Config::parse("# only comments\n\n# more\n").unwrap();
        assert!(cfg.allows.is_empty());
    }

    #[test]
    fn missing_rule_or_path_rejected() {
        let e = Config::parse("[[allow]]\nreason = \"r\"\npath = \"p\"\n").unwrap_err();
        assert!(e.message.contains("missing `rule`"));
    }
}
