//! Comment/string/raw-string-aware source scanner.
//!
//! Every rule operates on a [`SourceModel`]: the file's lines with comment
//! and string *interiors* blanked to spaces (so `"vec!"` in a string or
//! `HashMap` in a doc comment never trips a rule), a side list of the
//! comments themselves (where the `// analyze:` annotations live), plus
//! structural facts recovered by brace matching — function spans and
//! `#[cfg(test)]` regions.
//!
//! This is a lexer, not a parser: it understands Rust's token-level
//! lexical grammar (nested block comments, `r#"…"#` raw strings, char
//! literals vs lifetimes) and nothing more. That is exactly enough for
//! pattern rules with `file:line` diagnostics, and it keeps the crate
//! dependency-free.

/// One comment, with its 1-based line number. Block comments spanning
/// several lines produce one entry per line so "walk the contiguous
/// comment run above an item" is a line-level operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based source line.
    pub line: usize,
    /// Comment text for that line, delimiters included, trimmed.
    pub text: String,
}

/// A function item recovered by the structural pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnInfo {
    /// Function name (the identifier after `fn`).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub decl_line: usize,
    /// 1-based line of the body's opening brace (equals the closing line
    /// for `fn f();` declarations without a body).
    pub body_start: usize,
    /// 1-based line of the body's closing brace.
    pub body_end: usize,
    /// `// analyze: hot` / `// analyze: cold` annotation, if present in
    /// the comment run immediately above the declaration.
    pub annotation: Option<Annotation>,
}

/// Hot-path annotation attached to a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Annotation {
    /// Opt this function *into* the hot-path-alloc rule.
    Hot,
    /// Opt this function *out* (init-time code inside a hot module).
    Cold,
}

/// Lexed view of one source file.
#[derive(Debug, Clone)]
pub struct SourceModel {
    /// Source lines with comment and string interiors blanked to spaces.
    /// String delimiters are kept, so `f("…")` still reads as a call.
    pub code: Vec<String>,
    /// All comments, in line order.
    pub comments: Vec<Comment>,
    /// Function spans, in declaration order.
    pub fns: Vec<FnInfo>,
    /// 1-based inclusive line ranges covered by `#[cfg(test)]` items or
    /// `#[test]` functions.
    pub test_regions: Vec<(usize, usize)>,
}

impl SourceModel {
    /// Lex `source` into a model.
    pub fn parse(source: &str) -> SourceModel {
        let (code, comments) = sanitize(source);
        let test_regions = find_test_regions(&code);
        let fns = find_fns(&code, &comments);
        SourceModel {
            code,
            comments,
            fns,
            test_regions,
        }
    }

    /// Is 1-based `line` inside a `#[cfg(test)]` item or `#[test]` fn?
    pub fn in_test(&self, line: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }
}

/// Scanner state while blanking comments and strings.
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

/// Blank comment and string interiors; collect comments per line.
fn sanitize(source: &str) -> (Vec<String>, Vec<Comment>) {
    let mut code_lines: Vec<String> = Vec::new();
    let mut comments: Vec<Comment> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut line_no = 1usize;
    let mut state = State::Code;
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0usize;

    macro_rules! end_line {
        () => {{
            if let State::LineComment = state {
                state = State::Code;
            }
            if !comment.trim().is_empty() {
                comments.push(Comment {
                    line: line_no,
                    text: comment.trim().to_string(),
                });
            }
            comment.clear();
            code_lines.push(std::mem::take(&mut code));
            line_no += 1;
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            end_line!();
            i += 1;
            continue;
        }
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    comment.push_str("//");
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    comment.push_str("/*");
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                }
                '"' => {
                    state = State::Str;
                    code.push('"');
                    i += 1;
                }
                'r' | 'b' if is_raw_string_start(&chars, i) => {
                    let (hashes, consumed) = raw_string_open(&chars, i);
                    state = State::RawStr(hashes);
                    for _ in 0..consumed {
                        code.push(' ');
                    }
                    code.push('"');
                    i += consumed;
                }
                '\'' => {
                    // Char literal vs lifetime. `'\…'` and `'X'` are
                    // literals; anything else (`'a`, `'static`) is a
                    // lifetime and only the quote is consumed.
                    if next == Some('\\') {
                        code.push('\'');
                        i += 2; // skip the backslash
                        while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
                            code.push(' ');
                            i += 1;
                        }
                        if chars.get(i) == Some(&'\'') {
                            code.push('\'');
                            i += 1;
                        }
                    } else if chars.get(i + 2) == Some(&'\'') {
                        code.push('\'');
                        code.push(' ');
                        code.push('\'');
                        i += 3;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                }
                _ => {
                    code.push(c);
                    i += 1;
                }
            },
            State::LineComment => {
                comment.push(c);
                code.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    comment.push_str("*/");
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                    if depth == 1 {
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                } else if c == '/' && next == Some('*') {
                    comment.push_str("/*");
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                    state = State::BlockComment(depth + 1);
                } else {
                    comment.push(c);
                    code.push(' ');
                    i += 1;
                }
            }
            State::Str => match c {
                // A `\` at end of line is a line continuation: consume only
                // the backslash so the newline still closes the line.
                '\\' if next == Some('\n') => {
                    code.push(' ');
                    i += 1;
                }
                '\\' => {
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                }
                '"' => {
                    code.push('"');
                    state = State::Code;
                    i += 1;
                }
                _ => {
                    code.push(' ');
                    i += 1;
                }
            },
            State::RawStr(hashes) => {
                if c == '"' && closes_raw_string(&chars, i, hashes) {
                    code.push('"');
                    for _ in 0..hashes {
                        code.push(' ');
                    }
                    i += 1 + hashes as usize;
                    state = State::Code;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
        }
    }
    // Final line without trailing newline.
    if !code.is_empty() || !comment.trim().is_empty() {
        end_line!();
    }
    let _ = (state, line_no);
    (code_lines, comments)
}

/// Does a raw (byte) string literal start at `i` (`r"`, `r#"`, `br"`, …)?
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // Not a raw string if the prefix is part of an identifier (`for`,
    // `attr"…"` can't happen, but `var` followed by `"` can't either —
    // an ident char before `r` disqualifies it).
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) != Some(&'r') {
            return false;
        }
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Length and hash count of the raw-string opener at `i`.
fn raw_string_open(chars: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    j += 1; // the `r`
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // the opening quote
    (hashes, j - i)
}

/// Is the `"` at `i` followed by `hashes` `#` characters?
fn closes_raw_string(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Find `#[cfg(test)]` / `#[test]` item spans by brace matching.
fn find_test_regions(code: &[String]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut line = 0usize;
    while line < code.len() {
        let text = &code[line];
        if text.contains("#[cfg(test)]") || text.contains("# [cfg (test)]") || is_test_attr(text) {
            if let Some((_, end)) = item_span(code, line) {
                regions.push((line + 1, end + 1));
                line = end + 1;
                continue;
            }
        }
        line += 1;
    }
    regions
}

/// Does this sanitized line carry a bare `#[test]` attribute?
fn is_test_attr(text: &str) -> bool {
    let t = text.trim();
    t == "#[test]" || t.starts_with("#[test]") && !t.starts_with("#[test_")
}

/// Span (start line, end line), 0-based, of the item whose attribute sits
/// on `attr_line`: scan forward to the first `{` and brace-match to its
/// close. Returns `None` when no brace follows (e.g. `use` statements).
fn item_span(code: &[String], attr_line: usize) -> Option<(usize, usize)> {
    let mut depth = 0i64;
    let mut seen_open = false;
    for (l, text) in code.iter().enumerate().skip(attr_line) {
        for c in text.chars() {
            match c {
                '{' => {
                    depth += 1;
                    seen_open = true;
                }
                '}' => {
                    depth -= 1;
                    if seen_open && depth == 0 {
                        return Some((attr_line, l));
                    }
                }
                ';' if !seen_open && l > attr_line => return Some((attr_line, l)),
                _ => {}
            }
        }
    }
    None
}

/// Recover function spans and their `// analyze:` annotations.
fn find_fns(code: &[String], comments: &[Comment]) -> Vec<FnInfo> {
    let mut fns = Vec::new();
    for (l, text) in code.iter().enumerate() {
        let Some(col) = fn_keyword_col(text) else {
            continue;
        };
        let Some(name) = ident_after(text, col + 2) else {
            continue;
        };
        let Some((body_start, body_end)) = fn_body_span(code, l, col) else {
            continue;
        };
        let annotation = annotation_above(code, comments, l);
        fns.push(FnInfo {
            name,
            decl_line: l + 1,
            body_start: body_start + 1,
            body_end: body_end + 1,
            annotation,
        });
    }
    fns
}

/// Column of a `fn` keyword on this line, if any (word-boundary checked).
fn fn_keyword_col(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut start = 0usize;
    while let Some(pos) = text[start..].find("fn") {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1] as char);
        let after_ok = at + 2 >= bytes.len() || !is_ident_char(bytes[at + 2] as char);
        // `fn` followed by `(` is the `Fn(..)`-style trait sugar, not a
        // declaration; require whitespace then an identifier.
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 2;
    }
    None
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifier starting at/after byte `from` (skipping whitespace).
fn ident_after(text: &str, from: usize) -> Option<String> {
    let rest = text.get(from..)?;
    let rest = rest.trim_start();
    let end = rest
        .char_indices()
        .find(|&(_, c)| !is_ident_char(c))
        .map(|(i, _)| i)
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    Some(rest[..end].to_string())
}

/// Find the body span of the fn declared at (`line`, `col`): skip the
/// parameter list, then brace-match the first `{` (a `;` first means a
/// bodyless declaration).
fn fn_body_span(code: &[String], line: usize, col: usize) -> Option<(usize, usize)> {
    let mut paren = 0i64;
    let mut brace = 0i64;
    let mut body_start: Option<usize> = None;
    for (l, text) in code.iter().enumerate().skip(line) {
        let start_col = if l == line { col } else { 0 };
        for c in text.chars().skip(start_col) {
            match c {
                '(' | '[' => paren += 1,
                ')' | ']' => paren -= 1,
                '{' => {
                    if paren == 0 && body_start.is_none() {
                        body_start = Some(l);
                    }
                    brace += 1;
                }
                '}' => {
                    brace -= 1;
                    if body_start.is_some() && brace == 0 {
                        return Some((body_start.unwrap_or(l), l));
                    }
                }
                ';' if paren == 0 && body_start.is_none() => {
                    return Some((l, l));
                }
                _ => {}
            }
        }
    }
    None
}

/// `// analyze: hot` / `// analyze: cold` in the comment/attribute run
/// directly above 0-based line `decl` (doc comments and attributes are
/// transparent; the first code line stops the walk).
fn annotation_above(code: &[String], comments: &[Comment], decl: usize) -> Option<Annotation> {
    let mut l = decl;
    while l > 0 {
        l -= 1;
        let text = code[l].trim();
        if let Some(c) = comments.iter().find(|c| c.line == l + 1) {
            if c.text.contains("analyze: hot") {
                return Some(Annotation::Hot);
            }
            if c.text.contains("analyze: cold") {
                return Some(Annotation::Cold);
            }
            continue; // other comment (incl. docs): keep walking
        }
        if text.is_empty() || text.starts_with("#[") || text.starts_with("#![") {
            continue;
        }
        break;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let m = SourceModel::parse(
            "let s = \"panic!()\"; // unsafe here\nlet r = r#\"HashMap\"#;\n/* vec![] */ let x = 1;\n",
        );
        assert!(!m.code[0].contains("panic!"));
        assert!(m.code[0].contains("let s = \""));
        assert!(!m.code[1].contains("HashMap"));
        assert!(!m.code[2].contains("vec!"));
        assert!(m.code[2].contains("let x = 1;"));
        assert_eq!(m.comments.len(), 2);
        assert!(m.comments[0].text.contains("unsafe here"));
    }

    #[test]
    fn string_line_continuation_keeps_line_count() {
        let src =
            "fn f() -> &'static str {\n    \"first part \\\n     second part\"\n}\nfn g() {}\n";
        let m = SourceModel::parse(src);
        assert_eq!(m.code.len(), 5);
        assert!(m.code[4].contains("fn g"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let m = SourceModel::parse("/* outer /* inner */ still comment */ let a = 2;\n");
        assert!(m.code[0].contains("let a = 2;"));
        assert!(!m.code[0].contains("outer"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let m = SourceModel::parse("fn f<'a>(x: &'a str) -> char { '\\'' }\nlet c = 'x';\n");
        // Lifetimes survive, char-literal interiors are blanked.
        assert!(m.code[0].contains("'a>"));
        assert!(!m.code[1].contains('x'));
    }

    #[test]
    fn fn_spans_and_annotations() {
        let src = "\
/// Docs.
// analyze: hot
pub fn hot_one(x: &mut [f32]) {
    x.fill(0.0);
}

// analyze: cold
fn setup() -> Vec<f32> {
    vec![0.0]
}

fn plain() {}
";
        let m = SourceModel::parse(src);
        assert_eq!(m.fns.len(), 3);
        assert_eq!(m.fns[0].name, "hot_one");
        assert_eq!(m.fns[0].annotation, Some(Annotation::Hot));
        assert_eq!((m.fns[0].body_start, m.fns[0].body_end), (3, 5));
        assert_eq!(m.fns[1].annotation, Some(Annotation::Cold));
        assert_eq!(m.fns[2].annotation, None);
    }

    #[test]
    fn cfg_test_region_detected() {
        let src = "\
fn lib_code() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert!(true);
    }
}
";
        let m = SourceModel::parse(src);
        assert!(!m.in_test(1));
        assert!(m.in_test(4));
        assert!(m.in_test(9));
    }

    #[test]
    fn test_attr_fn_region_detected() {
        let src = "#[test]\nfn standalone() {\n    let v = vec![1];\n}\nfn normal() {}\n";
        let m = SourceModel::parse(src);
        assert!(m.in_test(3));
        assert!(!m.in_test(5));
    }

    #[test]
    fn fn_type_sugar_is_not_a_declaration() {
        let m =
            SourceModel::parse("fn takes(f: impl Fn(usize) -> usize) -> usize {\n    f(1)\n}\n");
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "takes");
    }
}
