//! A small, honest Rust lexer.
//!
//! The analyzer cannot use `syn` (offline workspace, std only), so every
//! rule is built on this hand-rolled token stream instead of a full AST.
//! The lexer's contract is deliberately narrow and testable:
//!
//! 1. **Spans tile the file.** Every byte of the input belongs to exactly
//!    one token: `tokens[0].start == 0`, `tokens[i].end ==
//!    tokens[i+1].start`, and `tokens.last().end == src.len()`. A
//!    property test in `tests/tiling.rs` asserts this over every source
//!    file in the workspace (and over random prefixes of them).
//! 2. **Comments and literals are opaque.** A `0xC5` inside a string or a
//!    doc comment never reaches a rule as an `Int` token, which is what
//!    makes the lexical rules sound.
//! 3. **Malformed input never panics.** Unterminated strings/comments
//!    are consumed to end-of-file as a single token; the lexer is total.
//!
//! It understands the parts of the language that matter for those
//! guarantees: line and (nested) block comments, string / raw-string /
//! byte-string / raw-byte-string literals, char and byte literals, the
//! lifetime-vs-char-literal ambiguity (`'a` vs `'a'`), raw identifiers
//! (`r#fn`), and numeric literals with underscores, exponents, and type
//! suffixes. Everything else is an identifier or a one-byte `Punct`.

/// Classification of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A maximal run of whitespace.
    Whitespace,
    /// `// …` (including `///` and `//!` doc comments), newline excluded.
    LineComment,
    /// `/* … */`, nesting-aware; unterminated runs to end of file.
    BlockComment,
    /// Identifier or keyword, including raw identifiers (`r#match`).
    Ident,
    /// `'lifetime` (no closing quote).
    Lifetime,
    /// Integer literal (any base, underscores and suffix included).
    Int,
    /// Float literal (fraction and/or exponent, suffix included).
    Float,
    /// `"…"` string literal.
    Str,
    /// `r"…"` / `r#"…"#` raw string literal.
    RawStr,
    /// `b"…"` byte string literal.
    ByteStr,
    /// `br"…"` / `br#"…"#` raw byte string literal.
    RawByteStr,
    /// `'x'` char literal (escapes included).
    Char,
    /// `b'x'` byte literal.
    Byte,
    /// A single punctuation byte (`.`, `(`, `::` is two tokens, …).
    Punct,
}

/// One token: a [`TokenKind`] plus its byte span `start..end` in the
/// source. Spans are always non-empty and always tile the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub start: usize,
    pub end: usize,
}

impl Token {
    /// The token's text within `src` (the same string it was lexed from).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// True for trivia (whitespace and comments) that rules skip over.
    pub(crate) fn is_trivia(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        )
    }
}

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn peek_at(&self, n: usize) -> Option<char> {
        self.src[self.pos..].chars().nth(n)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn eat_while(&mut self, pred: impl Fn(char) -> bool) {
        while let Some(c) = self.peek() {
            if pred(c) {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s)
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lex `src` into a token stream whose spans exactly tile the input.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor { src, pos: 0 };
    let mut out = Vec::new();
    while cur.pos < src.len() {
        let start = cur.pos;
        let kind = next_kind(&mut cur);
        debug_assert!(cur.pos > start, "lexer must always make progress");
        out.push(Token {
            kind,
            start,
            end: cur.pos,
        });
    }
    out
}

fn next_kind(cur: &mut Cursor) -> TokenKind {
    let c = match cur.peek() {
        Some(c) => c,
        None => return TokenKind::Punct, // unreachable: caller checks pos < len
    };
    if c.is_whitespace() {
        cur.eat_while(|c| c.is_whitespace());
        return TokenKind::Whitespace;
    }
    if c == '/' {
        if cur.starts_with("//") {
            cur.eat_while(|c| c != '\n');
            return TokenKind::LineComment;
        }
        if cur.starts_with("/*") {
            return block_comment(cur);
        }
        cur.bump();
        return TokenKind::Punct;
    }
    if c == '"' {
        return string(cur, TokenKind::Str);
    }
    if c == '\'' {
        return lifetime_or_char(cur);
    }
    if c == 'r' {
        if let Some(kind) = raw_string_or_raw_ident(cur, TokenKind::RawStr) {
            return kind;
        }
        // Fall through: plain identifier starting with `r`.
    }
    if c == 'b' {
        if let Some(kind) = byte_prefixed(cur) {
            return kind;
        }
        // Fall through: plain identifier starting with `b`.
    }
    if is_ident_start(c) {
        cur.eat_while(is_ident_continue);
        return TokenKind::Ident;
    }
    if c.is_ascii_digit() {
        return number(cur);
    }
    cur.bump();
    TokenKind::Punct
}

/// `/* … */` with nesting; consumes to end of file when unterminated.
fn block_comment(cur: &mut Cursor) -> TokenKind {
    cur.bump(); // '/'
    cur.bump(); // '*'
    let mut depth = 1usize;
    while depth > 0 {
        if cur.starts_with("/*") {
            cur.bump();
            cur.bump();
            depth += 1;
        } else if cur.starts_with("*/") {
            cur.bump();
            cur.bump();
            depth -= 1;
        } else if cur.bump().is_none() {
            break; // unterminated
        }
    }
    TokenKind::BlockComment
}

/// `"…"` with `\"` / `\\` escapes; consumes to end of file when
/// unterminated. `kind` distinguishes `Str` from `ByteStr`.
fn string(cur: &mut Cursor, kind: TokenKind) -> TokenKind {
    cur.bump(); // opening '"'
    loop {
        match cur.bump() {
            Some('\\') => {
                cur.bump(); // whatever is escaped, including '"' and '\\'
            }
            Some('"') | None => break,
            Some(_) => {}
        }
    }
    kind
}

/// `r"…"`, `r#"…"#`, or a raw identifier `r#ident`. Returns `None` when
/// the `r` begins a plain identifier (caller falls through). `raw_kind`
/// distinguishes `RawStr` (called at `r`) from `RawByteStr` (at `br`).
fn raw_string_or_raw_ident(cur: &mut Cursor, raw_kind: TokenKind) -> Option<TokenKind> {
    // Count hashes after the prefix char without consuming anything yet.
    let mut n = 1; // chars after the leading 'r'
    let mut hashes = 0usize;
    while cur.peek_at(n) == Some('#') {
        hashes += 1;
        n += 1;
    }
    match cur.peek_at(n) {
        Some('"') => {
            // Raw string: consume r, hashes, quote, then scan for `"###`.
            for _ in 0..=n {
                cur.bump();
            }
            let close: String = std::iter::once('"')
                .chain("#".repeat(hashes).chars())
                .collect();
            while cur.pos < cur.src.len() && !cur.starts_with(&close) {
                cur.bump();
            }
            for _ in 0..close.len().min(cur.src.len() - cur.pos) {
                cur.bump();
            }
            Some(raw_kind)
        }
        Some(c) if hashes == 1 && is_ident_start(c) && raw_kind == TokenKind::RawStr => {
            // Raw identifier r#ident.
            cur.bump(); // r
            cur.bump(); // #
            cur.eat_while(is_ident_continue);
            Some(TokenKind::Ident)
        }
        _ => None,
    }
}

/// `b"…"`, `br"…"`, `b'…'`, or `None` when `b` starts a plain identifier.
fn byte_prefixed(cur: &mut Cursor) -> Option<TokenKind> {
    match cur.peek_at(1) {
        Some('"') => {
            cur.bump(); // b
            Some(string(cur, TokenKind::ByteStr))
        }
        Some('\'') => {
            cur.bump(); // b
            cur.bump(); // '
            match cur.bump() {
                Some('\\') => {
                    cur.bump();
                }
                Some('\'') => return Some(TokenKind::Byte), // b'' (malformed, but total)
                _ => {}
            }
            if cur.peek() == Some('\'') {
                cur.bump();
            }
            Some(TokenKind::Byte)
        }
        Some('r') => {
            // Maybe br"…" / br#"…"#: delegate with the cursor advanced past b.
            let saved = cur.pos;
            cur.bump(); // b
            match raw_string_or_raw_ident(cur, TokenKind::RawByteStr) {
                Some(TokenKind::RawByteStr) => Some(TokenKind::RawByteStr),
                _ => {
                    cur.pos = saved;
                    None
                }
            }
        }
        _ => None,
    }
}

/// Resolve the `'a` (lifetime) vs `'a'` (char literal) ambiguity.
///
/// After the opening quote: a backslash or a non-identifier char means a
/// char literal; an identifier run means a lifetime *unless* it is a
/// single char immediately closed by another quote.
fn lifetime_or_char(cur: &mut Cursor) -> TokenKind {
    cur.bump(); // opening '
    match cur.peek() {
        Some('\\') => {
            // Escaped char literal: '\n', '\'', '\u{1F600}', …
            cur.bump(); // backslash
            cur.bump(); // escaped char (or 'u' of \u{…})
            cur.eat_while(|c| c != '\'' && c != '\n');
            if cur.peek() == Some('\'') {
                cur.bump();
            }
            TokenKind::Char
        }
        Some(c) if is_ident_start(c) => {
            cur.eat_while(is_ident_continue);
            if cur.peek() == Some('\'') {
                cur.bump();
                TokenKind::Char
            } else {
                TokenKind::Lifetime
            }
        }
        Some('\'') => {
            // `''` is malformed; consume both quotes as one token.
            cur.bump();
            TokenKind::Char
        }
        Some(_) => {
            // Non-identifier char literal: ' ', '+', '→', …
            cur.bump();
            if cur.peek() == Some('\'') {
                cur.bump();
            }
            TokenKind::Char
        }
        None => TokenKind::Punct, // lone trailing quote
    }
}

/// Integer or float literal, including base prefixes, underscores,
/// exponents, and type suffixes (`0xC5u8`, `1_000`, `2.5e-3f32`).
fn number(cur: &mut Cursor) -> TokenKind {
    if cur.starts_with("0x") || cur.starts_with("0X") {
        cur.bump();
        cur.bump();
        cur.eat_while(|c| c.is_ascii_hexdigit() || c == '_');
        cur.eat_while(is_ident_continue); // suffix (u8, usize, …)
        return TokenKind::Int;
    }
    if cur.starts_with("0o") || cur.starts_with("0b") {
        cur.bump();
        cur.bump();
        cur.eat_while(|c| c.is_ascii_alphanumeric() || c == '_'); // digits + suffix
        return TokenKind::Int;
    }
    cur.eat_while(|c| c.is_ascii_digit() || c == '_');
    let mut float = false;
    // Fraction: only when a digit follows the dot, so `1..2` lexes as
    // Int Punct Punct Int and `1.max(2)` as Int Punct Ident ….
    if cur.peek() == Some('.') && cur.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
        float = true;
        cur.bump(); // .
        cur.eat_while(|c| c.is_ascii_digit() || c == '_');
    } else if cur.peek() == Some('.')
        && !cur
            .peek_at(1)
            .is_some_and(|c| is_ident_start(c) || c == '.')
    {
        // Trailing-dot float: `1.` (followed by `)`, whitespace, …).
        float = true;
        cur.bump();
    }
    // Exponent: e/E, optional sign, at least one digit.
    if matches!(cur.peek(), Some('e') | Some('E')) {
        let sign = matches!(cur.peek_at(1), Some('+') | Some('-'));
        let digit_at = if sign { 2 } else { 1 };
        if cur.peek_at(digit_at).is_some_and(|c| c.is_ascii_digit()) {
            float = true;
            cur.bump(); // e
            if sign {
                cur.bump();
            }
            cur.eat_while(|c| c.is_ascii_digit() || c == '_');
        }
    }
    cur.eat_while(is_ident_continue); // suffix
    if float {
        TokenKind::Float
    } else {
        TokenKind::Int
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src)
            .iter()
            .filter(|t| !t.is_trivia())
            .map(|t| t.kind)
            .collect()
    }

    fn assert_tiles(src: &str) {
        let toks = lex(src);
        let mut pos = 0;
        for t in &toks {
            assert_eq!(t.start, pos, "gap or overlap at {pos} in {src:?}");
            assert!(t.end > t.start, "empty token in {src:?}");
            pos = t.end;
        }
        assert_eq!(pos, src.len(), "tokens do not reach EOF in {src:?}");
    }

    #[test]
    fn comments_are_opaque() {
        let src = "// magic 0xC5\nlet x = 1; /* nested /* 0xC6 */ still comment */ y";
        assert_tiles(src);
        let ints: Vec<_> = lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Int)
            .map(|t| t.text(src).to_string())
            .collect();
        assert_eq!(ints, vec!["1"]);
    }

    #[test]
    fn strings_and_raw_strings() {
        let src =
            r####"let a = "0xC5 \" quote"; let b = r#"raw " 0xC6"#; let c = br##"bytes"##;"####;
        assert_tiles(src);
        let toks = lex(src);
        assert!(toks.iter().any(|t| t.kind == TokenKind::Str));
        assert!(toks.iter().any(|t| t.kind == TokenKind::RawStr));
        assert!(toks.iter().any(|t| t.kind == TokenKind::RawByteStr));
        assert!(!toks.iter().any(|t| t.kind == TokenKind::Int));
    }

    #[test]
    fn lifetime_vs_char() {
        let src = "fn f<'a>(x: &'a str) { let c = 'a'; let nl = '\\n'; let sp = ' '; }";
        assert_tiles(src);
        let toks = lex(src);
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Char).count(), 3);
    }

    #[test]
    fn raw_identifiers_and_byte_literals() {
        let src = "let r#fn = b'x'; let bare = r * 2; let b = r; b'\\n';";
        assert_tiles(src);
        let toks = lex(src);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text(src) == "r#fn"));
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Byte).count(), 2);
    }

    #[test]
    fn numbers() {
        let src = "0xC5u8 1_000 2.5e-3f32 1..2 1.max(2) 7usize 0b1010 1. ";
        assert_tiles(src);
        let texts: Vec<(TokenKind, &str)> = lex(src)
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Int | TokenKind::Float))
            .map(|t| (t.kind, t.text(src)))
            .collect();
        assert_eq!(
            texts,
            vec![
                (TokenKind::Int, "0xC5u8"),
                (TokenKind::Int, "1_000"),
                (TokenKind::Float, "2.5e-3f32"),
                (TokenKind::Int, "1"),
                (TokenKind::Int, "2"),
                (TokenKind::Int, "1"),
                (TokenKind::Int, "2"),
                (TokenKind::Int, "7usize"),
                (TokenKind::Int, "0b1010"),
                (TokenKind::Float, "1."),
            ]
        );
    }

    #[test]
    fn unterminated_constructs_are_total() {
        for src in ["\"abc", "/* never closed", "r#\"raw", "'", "b'"] {
            assert_tiles(src);
        }
    }

    #[test]
    fn punct_structure_survives() {
        assert_eq!(
            kinds("x.unwrap()"),
            vec![
                TokenKind::Ident,
                TokenKind::Punct,
                TokenKind::Ident,
                TokenKind::Punct,
                TokenKind::Punct
            ]
        );
    }
}
