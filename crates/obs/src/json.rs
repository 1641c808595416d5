//! Hand-rolled JSON utilities: string escaping for the report writer and
//! a strict recursive-descent validator used by the tier-1 tests to check
//! reports are well-formed without pulling in a parser dependency.

/// Escapes a string for inclusion in a JSON document (quotes not added).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Validates that `input` is exactly one well-formed JSON value (with
/// optional surrounding whitespace). Returns a byte offset + message on
/// the first syntax error.
pub fn validate(input: &str) -> Result<(), (usize, &'static str)> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err((pos, "trailing data after JSON value"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), (usize, &'static str)> {
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, b"true"),
        Some(b'f') => literal(b, pos, b"false"),
        Some(b'n') => literal(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        _ => Err((*pos, "expected a JSON value")),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), (usize, &'static str)> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err((*pos, "malformed literal"))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<(), (usize, &'static str)> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err((*pos, "expected object key"));
        }
        string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err((*pos, "expected ':' after key"));
        }
        *pos += 1;
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err((*pos, "expected ',' or '}' in object")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<(), (usize, &'static str)> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err((*pos, "expected ',' or ']' in array")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), (usize, &'static str)> {
    *pos += 1; // opening quote
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => match b.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = b
                        .get(*pos + 2..*pos + 6)
                        .ok_or((*pos, "short \\u escape"))?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err((*pos, "bad \\u escape"));
                    }
                    *pos += 6;
                }
                _ => return Err((*pos, "bad escape")),
            },
            0x00..=0x1F => return Err((*pos, "raw control character in string")),
            _ => *pos += 1,
        }
    }
    Err((*pos, "unterminated string"))
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), (usize, &'static str)> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err((start, "expected digits"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err((*pos, "expected fraction digits"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err((*pos, "expected exponent digits"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            r#"{"a": [1, 2.5, {"b": "x\ny"}], "c": true, "d": null}"#,
            "  {\n\"k\": -0.0}  ",
        ] {
            assert!(validate(doc).is_ok(), "{doc}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{'a': 1}",
            "{\"a\": 1} extra",
            "01a",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
        ] {
            assert!(validate(doc).is_err(), "{doc}");
        }
    }

    #[test]
    fn escape_round_trips_through_validation() {
        let nasty = "quote\" backslash\\ newline\n tab\t ctrl\u{1} unicode\u{203d}";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        assert!(validate(&doc).is_ok(), "{doc}");
    }
}
