//! Per-file analysis context: line table, prod-vs-test classification,
//! `lint:allow` suppressions, and a lightweight function map.
//!
//! Classification is byte-range based. A byte is *test context* when the
//! file itself is a test artifact (`tests/`, `benches/`, or a
//! `fixtures/` corpus) or when it falls inside an item annotated
//! `#[cfg(test)]` (the item span is recovered by brace matching over the
//! token stream, so braces inside strings or comments cannot confuse
//! it). Rules that only police production code call
//! [`SourceFile::in_test`] before firing.

use crate::lexer::{lex, Token, TokenKind};
use std::ops::Range;

/// A parsed `// lint:allow(rule-name): reason` comment.
///
/// A suppression silences diagnostics of `rule` on its own line and on
/// the line directly below it (so it can sit above the offending
/// expression or trail it on the same line). A missing `: reason` is
/// itself reported by the engine's suppression-hygiene check.
#[derive(Debug, Clone)]
pub struct Suppression {
    pub rule: String,
    /// 1-based line the comment sits on.
    pub line: usize,
    pub has_reason: bool,
}

/// A function item discovered in the token stream.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// Byte offset of the `fn` keyword.
    pub kw_start: usize,
    /// Byte range of the body, `{` through `}` inclusive. Empty range at
    /// the signature end for bodyless (trait) declarations.
    pub body: Range<usize>,
    /// Whether `Result` appears in the signature (return type or
    /// parameters) — the analyzer's definition of a *fallible* function.
    pub returns_result: bool,
}

/// One workspace source file plus everything the rules need to know
/// about it.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable across OSes,
    /// used in diagnostics and for path-scoped rules).
    pub path: String,
    pub src: String,
    pub tokens: Vec<Token>,
    /// Indices of the non-trivia tokens (rules operate on this view).
    code: Vec<usize>,
    line_starts: Vec<usize>,
    test_ranges: Vec<Range<usize>>,
    file_is_test: bool,
    pub suppressions: Vec<Suppression>,
    pub fns: Vec<FnSpan>,
}

impl SourceFile {
    pub fn new(path: String, src: String) -> Self {
        let tokens = lex(&src);
        let mut line_starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let file_is_test = {
            let p = path.as_str();
            p.contains("/tests/")
                || p.starts_with("tests/")
                || p.contains("/benches/")
                || p.contains("/fixtures/")
        };
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].is_trivia())
            .collect();
        let test_ranges = cfg_test_ranges(&src, &tokens, &code);
        let suppressions = parse_suppressions(&src, &tokens, &line_starts);
        let fns = find_fns(&src, &tokens, &code);
        SourceFile {
            path,
            src,
            tokens,
            code,
            line_starts,
            test_ranges,
            file_is_test,
            suppressions,
            fns,
        }
    }

    /// 1-based (line, column) of a byte offset.
    pub fn line_col(&self, byte: usize) -> (usize, usize) {
        let line = match self.line_starts.binary_search(&byte) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (line + 1, byte - self.line_starts[line] + 1)
    }

    /// Is this byte inside test context (test file or `#[cfg(test)]`
    /// item)?
    pub fn in_test(&self, byte: usize) -> bool {
        self.file_is_test || self.test_ranges.iter().any(|r| r.contains(&byte))
    }

    /// Is `rule` suppressed at (1-based) `line` by a `lint:allow` on
    /// this or the previous line?
    pub fn is_suppressed(&self, rule: &str, line: usize) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.rule == rule && (s.line == line || s.line + 1 == line))
    }

    /// The innermost function whose body contains `byte`.
    pub fn enclosing_fn(&self, byte: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.body.contains(&byte))
            .min_by_key(|f| f.body.len())
    }

    /// Indices of non-trivia tokens (rules operate on this view).
    pub fn code_tokens(&self) -> &[usize] {
        &self.code
    }
}

/// Byte ranges of items annotated `#[cfg(test)]`.
///
/// Finds each `#[cfg(test)]` attribute (any attribute whose tokens
/// include both `cfg` and `test`), then extends the range across any
/// further attributes and the following item up to its matching `}` (or
/// `;` for bodyless items).
fn cfg_test_ranges(src: &str, tokens: &[Token], code: &[usize]) -> Vec<Range<usize>> {
    let tok = |ci: usize| -> &Token { &tokens[code[ci]] };
    let text = |ci: usize| -> &str { tok(ci).text(src) };
    let mut ranges = Vec::new();
    let mut ci = 0;
    while ci + 1 < code.len() {
        if !(tok(ci).kind == TokenKind::Punct && text(ci) == "#" && text(ci + 1) == "[") {
            ci += 1;
            continue;
        }
        // Scan the attribute body for `cfg` … `test` while finding `]`.
        let attr_start = tok(ci).start;
        let mut depth = 0usize;
        let mut j = ci + 1;
        let (mut saw_cfg, mut saw_test) = (false, false);
        while j < code.len() {
            match (tok(j).kind, text(j)) {
                (TokenKind::Punct, "[") => depth += 1,
                (TokenKind::Punct, "]") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                (TokenKind::Ident, "cfg") => saw_cfg = true,
                (TokenKind::Ident, "test") => saw_test = true,
                _ => {}
            }
            j += 1;
        }
        if !(saw_cfg && saw_test) {
            ci = j.max(ci + 1);
            continue;
        }
        // Skip any further attributes, then find the item's end.
        let mut k = j + 1;
        while k + 1 < code.len() && text(k) == "#" && text(k + 1) == "[" {
            let mut d = 0usize;
            while k < code.len() {
                match text(k) {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        // Item: consume to the matching close of its first `{`, or to a
        // top-level `;` (e.g. `#[cfg(test)] use …;`).
        let mut brace = 0usize;
        let mut end = attr_start;
        while k < code.len() {
            match text(k) {
                "{" => brace += 1,
                "}" => {
                    brace = brace.saturating_sub(1);
                    if brace == 0 {
                        end = tok(k).end;
                        break;
                    }
                }
                ";" if brace == 0 => {
                    end = tok(k).end;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        if end > attr_start {
            ranges.push(attr_start..end);
            ci = k + 1;
        } else {
            ci += 1;
        }
    }
    ranges
}

fn parse_suppressions(src: &str, tokens: &[Token], line_starts: &[usize]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in tokens {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let text = t.text(src);
        let Some(at) = text.find("lint:allow(") else {
            continue;
        };
        let rest = &text[at + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let has_reason = after
            .strip_prefix(':')
            .is_some_and(|r| !r.trim().is_empty());
        let line = match line_starts.binary_search(&t.start) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        out.push(Suppression {
            rule,
            line,
            has_reason,
        });
    }
    out
}

/// A flat function map: each `fn name … { body }` with its body span and
/// whether the signature mentions `Result`. Nested functions appear as
/// separate (overlapping) entries; [`SourceFile::enclosing_fn`] picks
/// the innermost.
fn find_fns(src: &str, tokens: &[Token], code: &[usize]) -> Vec<FnSpan> {
    let tok = |ci: usize| -> &Token { &tokens[code[ci]] };
    let text = |ci: usize| -> &str { tok(ci).text(src) };
    let mut out = Vec::new();
    for ci in 0..code.len() {
        if !(tok(ci).kind == TokenKind::Ident && text(ci) == "fn") {
            continue;
        }
        let Some(name_ci) = code.get(ci + 1).map(|_| ci + 1) else {
            continue;
        };
        if tok(name_ci).kind != TokenKind::Ident {
            continue; // `fn(` in a function-pointer type
        }
        let name = text(name_ci).to_string();
        // Signature runs to the first `{` at paren/bracket depth 0 (or a
        // `;` for bodyless declarations).
        let mut depth = 0i32;
        let mut j = name_ci + 1;
        let mut returns_result = false;
        let mut body_open: Option<usize> = None;
        while j < code.len() {
            match (tok(j).kind, text(j)) {
                (TokenKind::Punct, "(") | (TokenKind::Punct, "[") => depth += 1,
                (TokenKind::Punct, ")") | (TokenKind::Punct, "]") => depth -= 1,
                (TokenKind::Ident, "Result") if depth >= 0 => returns_result = true,
                (TokenKind::Punct, "{") if depth == 0 => {
                    body_open = Some(j);
                    break;
                }
                (TokenKind::Punct, ";") if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let body = match body_open {
            Some(open) => {
                let mut brace = 0i32;
                let mut k = open;
                let start = tok(open).start;
                let mut end = src.len();
                while k < code.len() {
                    match text(k) {
                        "{" => brace += 1,
                        "}" => {
                            brace -= 1;
                            if brace == 0 {
                                end = tok(k).end;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                start..end
            }
            None => {
                let end = tok(j.min(code.len() - 1)).end;
                end..end
            }
        };
        out.push(FnSpan {
            name,
            kw_start: tok(ci).start,
            body,
            returns_result,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_cfg_test_items() {
        let src = "fn prod() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n\
                   fn prod2() {}\n";
        let f = SourceFile::new("crates/comm/src/x.rs".into(), src.into());
        let prod_at = src.find("x.unwrap").unwrap();
        let test_at = src.find("y.unwrap").unwrap();
        let prod2_at = src.find("prod2").unwrap();
        assert!(!f.in_test(prod_at));
        assert!(f.in_test(test_at));
        assert!(!f.in_test(prod2_at));
    }

    #[test]
    fn test_paths_are_fully_test() {
        let f = SourceFile::new("crates/comm/tests/chaos.rs".into(), "fn a() {}".into());
        assert!(f.in_test(0));
    }

    #[test]
    fn suppressions_cover_own_and_next_line() {
        let src = "// lint:allow(no-unwrap-on-comm-path): provably infallible\n\
                   x.unwrap();\n\
                   y.unwrap();\n\
                   z.unwrap(); // lint:allow(other-rule)\n";
        let f = SourceFile::new("crates/comm/src/x.rs".into(), src.into());
        assert!(f.is_suppressed("no-unwrap-on-comm-path", 1));
        assert!(f.is_suppressed("no-unwrap-on-comm-path", 2));
        assert!(!f.is_suppressed("no-unwrap-on-comm-path", 3));
        assert!(f.is_suppressed("other-rule", 4));
        assert!(f
            .suppressions
            .iter()
            .any(|s| s.rule == "other-rule" && !s.has_reason));
    }

    #[test]
    fn fn_map_tracks_result_signatures() {
        let src = "fn plain(x: u32) -> u32 { x }\n\
                   fn fallible() -> Result<(), E> { inner();\n Ok(()) }\n";
        let f = SourceFile::new("crates/kfac/src/x.rs".into(), src.into());
        assert_eq!(f.fns.len(), 2);
        assert!(!f.fns[0].returns_result);
        assert!(f.fns[1].returns_result);
        let inner_at = src.find("inner").unwrap();
        assert_eq!(f.enclosing_fn(inner_at).unwrap().name, "fallible");
    }
}
