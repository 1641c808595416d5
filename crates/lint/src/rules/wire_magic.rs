//! `wire-magic-registry`: every wire-format magic byte must come from
//! the central `compso_core::wire::magic` module.
//!
//! The workspace reserves the `0xC0..=0xCF` byte range for wire magics
//! (nine are assigned today: stream v1/v2, group, membership, PowerSGD,
//! ckpt tensors/manifest, rejoin delta, CRC frame). A bare two-hex-digit literal in that
//! range appearing in production code is either a duplicated magic
//! (drift waiting to happen) or a new format dodging the uniqueness
//! check — both are exactly what the central registry exists to prevent.
//!
//! The only place such literals may appear is the registry itself: the
//! `mod magic { … }` block inside `crates/core/src/wire.rs`. Test code
//! (corruption tests forge bad magics on purpose) is out of scope.

use super::{Rule, View};
use crate::engine::{Context, Diagnostic};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::ops::Range;

pub struct WireMagicRegistry;

const NAME: &str = "wire-magic-registry";

impl Rule for WireMagicRegistry {
    fn name(&self) -> &'static str {
        NAME
    }

    fn check(&self, file: &SourceFile, _ctx: &Context, out: &mut Vec<Diagnostic>) {
        let v = View::new(file);
        let registry = magic_module_range(&v);
        for ci in 0..v.len() {
            if v.kind(ci) != TokenKind::Int {
                continue;
            }
            let t = v.tok(ci);
            if file.in_test(t.start) {
                continue;
            }
            if let Some(r) = &registry {
                if r.contains(&t.start) {
                    continue;
                }
            }
            if let Some(value) = wire_magic_value(v.text(ci)) {
                out.push(v.diag(
                    NAME,
                    ci,
                    format!(
                        "bare wire magic literal 0x{value:02X} in production code; \
                         use the named constant from compso_core::wire::magic"
                    ),
                ));
            }
        }
    }
}

/// Parse a literal like `0xC5` / `0xC5u8` / `0xC_5`; `Some(value)` when
/// it is a two-hex-digit literal in the reserved `0xC0..=0xCF` range.
/// Wider literals (`0xCBF4_3926` CRC polynomials, …) never match.
fn wire_magic_value(text: &str) -> Option<u8> {
    let rest = text
        .strip_prefix("0x")
        .or_else(|| text.strip_prefix("0X"))?;
    let mut digits = String::new();
    for c in rest.chars() {
        if c == '_' {
            continue;
        }
        if c.is_ascii_hexdigit() {
            digits.push(c);
        } else {
            break; // type suffix (u8, usize, …)
        }
    }
    if digits.len() != 2 {
        return None;
    }
    let value = u8::from_str_radix(&digits, 16).ok()?;
    (0xC0..=0xCF).contains(&value).then_some(value)
}

/// Byte range of a `mod magic { … }` block in this file, if any — the
/// one sanctioned home for bare magic literals.
fn magic_module_range(v: &View) -> Option<Range<usize>> {
    for ci in 0..v.len().saturating_sub(2) {
        if v.is_ident(ci, "mod") && v.is_ident(ci + 1, "magic") && v.is_punct(ci + 2, "{") {
            let start = v.tok(ci).start;
            let mut depth = 0i32;
            for k in (ci + 2)..v.len() {
                if v.is_punct(k, "{") {
                    depth += 1;
                } else if v.is_punct(k, "}") {
                    depth -= 1;
                    if depth == 0 {
                        return Some(start..v.tok(k).end);
                    }
                }
            }
            return Some(start..v.file.src.len());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_literal_shapes() {
        assert_eq!(wire_magic_value("0xC5"), Some(0xC5));
        assert_eq!(wire_magic_value("0xC5u8"), Some(0xC5));
        assert_eq!(wire_magic_value("0xCF"), Some(0xCF));
        assert_eq!(wire_magic_value("0xBF"), None); // outside the range
        assert_eq!(wire_magic_value("0xCBF4_3926"), None); // CRC constant
        assert_eq!(wire_magic_value("0xC5C5"), None); // too wide
        assert_eq!(wire_magic_value("197"), None); // decimal never matches
    }
}
