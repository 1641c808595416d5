//! Per-file analysis context: line table, token tree, prod-vs-test
//! classification, `lint:allow` suppressions, and a lightweight function
//! map.
//!
//! The **token tree** is one partner table over the code (non-trivia)
//! tokens: every `(`/`)`, `[`/`]` and `{`/`}` is matched once, in one
//! stack pass, when the file is loaded. The lexer makes strings, chars,
//! lifetimes and comments single tokens, so no bracket inside one reaches
//! the pass. Whatever asks where a group, an item or a statement ends
//! asks [`View::partner`], [`View::next_at_level`] or
//! [`View::prev_outward`].
//!
//! Classification is byte-range based. A byte is *test context* when the
//! file itself is a test artifact (`tests/`, `benches/`, or a
//! `fixtures/` corpus) or when it falls inside an item annotated
//! `#[cfg(test)]`. Rules that only police production code call
//! [`SourceFile::in_test`] before firing.

use crate::engine::Diagnostic;
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
    /// Code-token range of the signature: the `fn` keyword up to, not
    /// including, the body's `{` (or a bodyless declaration's `;`).
    pub sig: Range<usize>,
    /// Code-token range of the body, `{` through `}` inclusive; empty for
    /// bodyless (trait) declarations.
    pub body_tokens: Range<usize>,
    /// Byte range of the body, `{` through `}` inclusive. Empty range at
    /// the signature end for bodyless (trait) declarations.
    pub body: Range<usize>,
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
    /// Per code token, the code index of the bracket it pairs with;
    /// `None` for every other token and for an unmatched bracket.
    partner: Vec<Option<usize>>,
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
        let partner = match_brackets(&src, &tokens, &code);
        let suppressions = parse_suppressions(&src, &tokens, &line_starts);
        let mut file = SourceFile {
            path,
            src,
            tokens,
            code,
            partner,
            line_starts,
            test_ranges: Vec::new(),
            file_is_test,
            suppressions,
            fns: Vec::new(),
        };
        let v = View::new(&file);
        let (test_ranges, fns) = (cfg_test_ranges(&v), find_fns(&v));
        file.test_ranges = test_ranges;
        file.fns = fns;
        file
    }

    /// 1-based (line, column) of a byte offset.
    pub(crate) fn line_col(&self, byte: usize) -> (usize, usize) {
        let line = match self.line_starts.binary_search(&byte) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (line + 1, byte - self.line_starts[line] + 1)
    }

    /// Is this byte inside test context (test file or `#[cfg(test)]`
    /// item)?
    pub(crate) fn in_test(&self, byte: usize) -> bool {
        self.file_is_test || self.test_ranges.iter().any(|r| r.contains(&byte))
    }

    /// Is `rule` suppressed at (1-based) `line` by a `lint:allow` on
    /// this or the previous line?
    pub(crate) fn is_suppressed(&self, rule: &str, line: usize) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.rule == rule && (s.line == line || s.line + 1 == line))
    }

    /// The innermost function whose body contains `byte`.
    pub(crate) fn enclosing_fn(&self, byte: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.body.contains(&byte))
            .min_by_key(|f| f.body.len())
    }
}

const OPEN: [&str; 3] = ["(", "[", "{"];
const CLOSE: [&str; 3] = [")", "]", "}"];

/// The partner table: one stack pass over the code tokens. A closer pairs
/// with the innermost open bracket of its kind, and any opener still
/// open above that one stays unmatched, so a stray bracket in a truncated
/// or hostile file cannot unbalance the rest.
fn match_brackets(src: &str, tokens: &[Token], code: &[usize]) -> Vec<Option<usize>> {
    let mut partner = vec![None; code.len()];
    let mut open: Vec<(usize, usize)> = Vec::new();
    for (ci, &ti) in code.iter().enumerate() {
        let t = &tokens[ti];
        if t.kind != TokenKind::Punct {
            continue;
        }
        let text = t.text(src);
        if let Some(kind) = OPEN.iter().position(|&o| o == text) {
            open.push((ci, kind));
        } else if let Some(kind) = CLOSE.iter().position(|&c| c == text) {
            if let Some(at) = open.iter().rposition(|&(_, k)| k == kind) {
                let opener = open[at].0;
                open.truncate(at);
                partner[opener] = Some(ci);
                partner[ci] = Some(opener);
            }
        }
    }
    partner
}

/// A non-trivia view over a file's tokens and its token tree, shared by
/// the rules. `ci` below is a code-token index.
pub(crate) struct View<'a> {
    pub file: &'a SourceFile,
    pub code: &'a [usize],
}

impl<'a> View<'a> {
    pub fn new(file: &'a SourceFile) -> Self {
        View {
            file,
            code: &file.code,
        }
    }

    pub fn len(&self) -> usize {
        self.code.len()
    }

    pub(crate) fn tok(&self, ci: usize) -> &'a Token {
        &self.file.tokens[self.code[ci]]
    }

    pub fn text(&self, ci: usize) -> &'a str {
        self.tok(ci).text(&self.file.src)
    }

    pub(crate) fn kind(&self, ci: usize) -> TokenKind {
        self.tok(ci).kind
    }

    /// Is the non-trivia token at `ci` exactly `Punct(p)`?
    pub(crate) fn is_punct(&self, ci: usize, p: &str) -> bool {
        ci < self.len() && self.kind(ci) == TokenKind::Punct && self.text(ci) == p
    }

    /// Is the non-trivia token at `ci` exactly `Ident(name)`?
    pub(crate) fn is_ident(&self, ci: usize, name: &str) -> bool {
        ci < self.len() && self.kind(ci) == TokenKind::Ident && self.text(ci) == name
    }

    /// Is the token at `ci` a `(`, `[` or `{`?
    pub(crate) fn is_open(&self, ci: usize) -> bool {
        OPEN.iter().any(|o| self.is_punct(ci, o))
    }

    /// Is the token at `ci` a `)`, `]` or `}`?
    pub(crate) fn is_close(&self, ci: usize) -> bool {
        CLOSE.iter().any(|c| self.is_punct(ci, c))
    }

    /// The bracket that pairs with the one at `ci`; `None` for any other
    /// token and for an unmatched bracket.
    pub(crate) fn partner(&self, ci: usize) -> Option<usize> {
        self.file.partner.get(ci).copied().flatten()
    }

    /// The first token from `from` on, at `from`'s nesting level, that
    /// satisfies `pred`. A bracket group on the way is offered to `pred`
    /// at its opener and otherwise skipped whole. `None` once the walk
    /// reaches any other bracket (the close of the enclosing group, or an
    /// unmatched one) or the end of the file.
    pub(crate) fn next_at_level(
        &self,
        from: usize,
        mut pred: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        let mut k = from;
        while k < self.len() {
            if pred(k) {
                return Some(k);
            }
            match self.partner(k) {
                Some(close) if close > k => k = close + 1,
                None if !self.is_open(k) && !self.is_close(k) => k += 1,
                _ => return None,
            }
        }
        None
    }

    /// Walking back from `at` (exclusive), the first token that satisfies
    /// `pred`. A bracket group closed before `at` is skipped whole; the
    /// opener of each group `at` sits in is offered to `pred` as the walk
    /// climbs out through it.
    pub(crate) fn prev_outward(
        &self,
        at: usize,
        mut pred: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        let mut k = at;
        while k > 0 {
            k -= 1;
            match self.partner(k) {
                Some(open) if open < k => k = open,
                _ if pred(k) => return Some(k),
                _ => {}
            }
        }
        None
    }

    /// Build a diagnostic pointing at token `ci`.
    pub(crate) fn diag(&self, rule: &'static str, ci: usize, message: String) -> Diagnostic {
        let (line, col) = self.file.line_col(self.tok(ci).start);
        Diagnostic {
            rule,
            path: self.file.path.clone(),
            line,
            col,
            message,
        }
    }
}

/// Byte ranges of items annotated `#[cfg(test)]`.
///
/// Finds each attribute whose tokens include both `cfg` and `test`,
/// skips any further attributes, and extends the range across the item
/// that follows ([`item_last`]).
fn cfg_test_ranges(v: &View) -> Vec<Range<usize>> {
    // The `]` of the attribute `#[…]` starting at `ci`.
    let attribute = |ci: usize| {
        v.partner(ci + 1)
            .filter(|_| v.is_punct(ci, "#") && v.is_punct(ci + 1, "["))
    };
    let mut ranges = Vec::new();
    let mut ci = 0;
    while ci < v.len() {
        let Some(close) = attribute(ci) else {
            ci += 1;
            continue;
        };
        let names = |name: &str| (ci..close).any(|k| v.is_ident(k, name));
        if !(names("cfg") && names("test")) {
            ci = close + 1;
            continue;
        }
        let mut k = close + 1;
        while let Some(close) = attribute(k) {
            k = close + 1;
        }
        match item_last(v, k) {
            Some(last) => {
                ranges.push(v.tok(ci).start..v.tok(last).end);
                ci = last + 1;
            }
            None => ci += 1,
        }
    }
    ranges
}

/// The last token of the item starting at `at`: a field (`[pub] name:
/// …`) runs up to the next `,` at its level or the close of its group;
/// any other item to the `}` of its first `{…}` group or to its `;`.
fn item_last(v: &View, mut at: usize) -> Option<usize> {
    if v.is_ident(at, "pub") {
        at += 1;
        if v.is_punct(at, "(") {
            at = v.partner(at)? + 1;
        }
    }
    if v.is_punct(at + 1, ":") && !v.is_punct(at + 2, ":") && v.kind(at) == TokenKind::Ident {
        let stop = v.next_at_level(at, |k| v.is_punct(k, ",") || v.is_close(k));
        return Some(stop.unwrap_or(v.len()) - 1);
    }
    let stop = v.next_at_level(at, |k| v.is_punct(k, "{") || v.is_punct(k, ";"))?;
    if v.is_punct(stop, "{") {
        v.partner(stop)
    } else {
        Some(stop)
    }
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

/// A flat function map: each `fn name … { body }` with its signature and
/// body spans. The signature runs to the first `{` or `;` at its level.
/// Nested functions appear as separate (overlapping) entries;
/// [`SourceFile::enclosing_fn`] picks the innermost.
fn find_fns(v: &View) -> Vec<FnSpan> {
    let mut out = Vec::new();
    for ci in 0..v.len().saturating_sub(1) {
        // `fn(` in a function-pointer type has no name.
        if !v.is_ident(ci, "fn") || v.kind(ci + 1) != TokenKind::Ident {
            continue;
        }
        let stop = v.next_at_level(ci + 2, |k| v.is_punct(k, "{") || v.is_punct(k, ";"));
        let stop = stop.unwrap_or(ci + 1);
        let (body_tokens, body) = if v.is_punct(stop, "{") {
            // An unclosed body runs to the end of the file.
            let close = v.partner(stop);
            let end = close.map_or(v.file.src.len(), |c| v.tok(c).end);
            (
                stop..close.map_or(v.len(), |c| c + 1),
                v.tok(stop).start..end,
            )
        } else {
            let end = v.tok(stop).end;
            (stop..stop, end..end)
        };
        out.push(FnSpan {
            name: v.text(ci + 1).to_string(),
            kw_start: v.tok(ci).start,
            sig: ci..stop,
            body_tokens,
            body,
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
    fn a_cfg_test_item_ends_at_its_own_close_whatever_the_bracket() {
        // The `;` inside `[u8; 4]` does not end the item, and neither
        // does a brace inside a literal.
        let src = "#[cfg(test)]\nfn t(a: [u8; 4]) -> u8 { *a.first().unwrap() }\n\
                   #[cfg(test)]\nfn u() { let s = \"}\"; let c = '}'; x.unwrap(); }\n\
                   fn prod() { y.unwrap(); }\n";
        let f = SourceFile::new("crates/comm/src/x.rs".into(), src.into());
        assert!(f.in_test(src.find("unwrap").unwrap()));
        assert!(f.in_test(src.find("x.unwrap").unwrap()));
        assert!(!f.in_test(src.find("y.unwrap").unwrap()));
    }

    #[test]
    fn a_cfg_test_field_is_one_field() {
        let src = "struct S {\n    #[cfg(test)]\n    builds: u32,\n    live: Vec<u8>,\n}\n\
                   fn new() -> S { S {\n    #[cfg(test)]\n    builds: 0,\n    live: load(),\n} }\n";
        let f = SourceFile::new("crates/kfac/src/x.rs".into(), src.into());
        assert!(f.in_test(src.find("builds: u32").unwrap()));
        assert!(!f.in_test(src.find("live: Vec").unwrap()));
        assert!(f.in_test(src.find("builds: 0").unwrap()));
        assert!(!f.in_test(src.find("load").unwrap()));
    }

    #[test]
    fn brackets_pair_across_literals_and_lifetimes() {
        let src = "fn f<'a>(s: &'a str) -> [u8; 2] { let b = b'['; g(\"(\", '{', r#\")\"#, |x| { x }); [0, 1] }";
        let f = SourceFile::new("crates/core/src/x.rs".into(), src.into());
        let v = View::new(&f);
        let at = |text: &str, nth: usize| {
            (0..v.len())
                .filter(|&ci| v.text(ci) == text)
                .nth(nth)
                .unwrap()
        };
        let body = at("{", 0);
        assert_eq!(v.partner(body), Some(v.len() - 1));
        assert_eq!(v.partner(v.len() - 1), Some(body));
        assert_eq!(v.partner(at("(", 1)), Some(at(")", 1)));
        assert_eq!(v.partner(at("let", 0)), None);
        // `g(…)` is one group at the body's level: the next `;` there is
        // the one after it, and the walk stops at the body's `}`.
        let g = at("g", 0);
        assert_eq!(v.next_at_level(g, |k| v.is_punct(k, ";")), Some(at(";", 2)));
        assert_eq!(v.next_at_level(g, |k| v.is_ident(k, "x")), None);
        assert_eq!(v.prev_outward(at("x", 1), |k| v.is_ident(k, "g")), Some(g));
        let f = &f.fns[0];
        assert_eq!((f.sig.start, f.body_tokens.clone()), (0, body..v.len()));
    }

    #[test]
    fn test_paths_are_fully_test() {
        let f = SourceFile::new("crates/comm/tests/chaos.rs".into(), "fn a() {}".into());
        assert!(f.in_test(0));
    }

    #[test]
    fn suppressions_cover_own_and_next_line() {
        let src = "// lint:allow(collective-order): every rank branches alike\n\
                   x.unwrap();\n\
                   y.unwrap();\n\
                   z.unwrap(); // lint:allow(other-rule)\n";
        let f = SourceFile::new("crates/comm/src/x.rs".into(), src.into());
        assert!(f.is_suppressed("collective-order", 1));
        assert!(f.is_suppressed("collective-order", 2));
        assert!(!f.is_suppressed("collective-order", 3));
        assert!(f.is_suppressed("other-rule", 4));
        assert!(f
            .suppressions
            .iter()
            .any(|s| s.rule == "other-rule" && !s.has_reason));
    }

    #[test]
    fn fn_map_finds_the_enclosing_fn() {
        let src = "fn plain(x: u32) -> u32 { x }\n\
                   fn fallible() -> Result<(), E> { inner();\n Ok(()) }\n";
        let f = SourceFile::new("crates/kfac/src/x.rs".into(), src.into());
        assert_eq!(f.fns.len(), 2);
        let inner_at = src.find("inner").unwrap();
        assert_eq!(f.enclosing_fn(inner_at).unwrap().name, "fallible");
    }
}
