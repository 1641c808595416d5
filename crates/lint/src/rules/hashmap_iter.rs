//! `nondeterministic-wire-iteration`: iteration order must not leak
//! into wire bytes.
//!
//! `HashMap` iteration order is randomized per process. If an encoder, a
//! snapshot builder, or any other wire-producing function walks a
//! `HashMap` while emitting bytes, two ranks (or two runs) produce
//! different bytes for the same state — breaking the bit-identical
//! replica invariant the distributed tests pin, and breaking checkpoint
//! fingerprints. Wire-adjacent code must use `BTreeMap` or collect and
//! sort before emitting.
//!
//! Heuristic (production code only):
//!
//! 1. Collect the file's *hashmap-ish identifiers*: `name: HashMap<…>`
//!    annotations (struct fields, lets, fn params) and `let name =
//!    HashMap::new()/with_capacity()/from(…)` bindings.
//! 2. Inside functions whose name suggests wire output (`encode`,
//!    `compress`, `serialize`, `snapshot`, `to_bytes`, `write`,
//!    `export`, `save`, `frame`), flag `h.iter()/keys()/values()/
//!    drain()/into_iter()` calls and `for … in … h …` loop headers over
//!    those identifiers.
//!
//! A deliberate iterate-then-sort is fine — annotate it with
//! `lint:allow(nondeterministic-wire-iteration): sorted before encoding`.

use super::{Rule, View};
use crate::engine::{Context, Diagnostic};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::collections::BTreeSet;

pub struct NondeterministicWireIteration;

const NAME: &str = "nondeterministic-wire-iteration";

/// Substrings of function names that mark wire-producing paths.
const WIRE_FNS: &[&str] = &[
    "encode",
    "compress",
    "serialize",
    "snapshot",
    "to_bytes",
    "write",
    "export",
    "save",
    "frame",
];

/// Iterator adaptors whose call on a HashMap leaks ordering.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

impl Rule for NondeterministicWireIteration {
    fn name(&self) -> &'static str {
        NAME
    }

    fn check(&self, file: &SourceFile, _ctx: &Context, out: &mut Vec<Diagnostic>) {
        let v = View::new(file);
        let maps = hashmap_idents(&v);
        if maps.is_empty() {
            return;
        }
        for f in &file.fns {
            if f.body.is_empty() || file.in_test(f.body.start) {
                continue;
            }
            let fname = f.name.to_ascii_lowercase();
            if !WIRE_FNS.iter().any(|w| fname.contains(w)) {
                continue;
            }
            for ci in f.body_tokens.clone() {
                if v.kind(ci) != TokenKind::Ident || !maps.contains(v.text(ci)) {
                    continue;
                }
                let fire = is_iter_call(&v, ci) || in_for_header(&v, ci);
                if fire {
                    let map = v.text(ci).to_string();
                    out.push(v.diag(
                        NAME,
                        ci,
                        format!(
                            "iteration over HashMap `{map}` in wire-producing fn `{}`; \
                             use BTreeMap or sort before bytes are emitted",
                            f.name
                        ),
                    ));
                }
            }
        }
    }
}

/// Identifiers bound or annotated as `HashMap` anywhere in the file.
/// Shared with the call-graph pass ([`crate::callgraph`]), which treats
/// HashMap iteration as an impurity source in *any* function.
pub(crate) fn hashmap_idents(v: &View) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for ci in 0..v.len() {
        if !v.is_ident(ci, "HashMap") {
            continue;
        }
        // `name : HashMap <` — field, let, or parameter annotation.
        if ci >= 2 && v.is_punct(ci - 1, ":") && v.kind(ci - 2) == TokenKind::Ident {
            out.insert(v.text(ci - 2).to_string());
        }
        // `let [mut] name = HashMap :: …` — constructor binding.
        if ci >= 2 && v.is_punct(ci - 1, "=") {
            let mut k = ci - 2;
            if v.kind(k) == TokenKind::Ident && !v.is_ident(k, "mut") {
                out.insert(v.text(k).to_string());
            } else if v.is_ident(k, "mut") && k >= 1 {
                k -= 1;
                if v.kind(k) == TokenKind::Ident {
                    out.insert(v.text(k).to_string());
                }
            }
        }
    }
    out
}

/// `map . iter (` style call at token `ci`.
pub(crate) fn is_iter_call(v: &View, ci: usize) -> bool {
    v.is_punct(ci + 1, ".")
        && ci + 2 < v.len()
        && v.kind(ci + 2) == TokenKind::Ident
        && ITER_METHODS.contains(&v.text(ci + 2))
        && v.is_punct(ci + 3, "(")
}

/// Is `ci` inside a `for … in … { ` header (between `for` and its `{`)?
pub(crate) fn in_for_header(v: &View, ci: usize) -> bool {
    // Walk back looking for `for` before any `{`/`;`/`}` boundary.
    let mut saw_in = false;
    for k in (0..ci).rev() {
        if v.is_punct(k, "{") || v.is_punct(k, "}") || v.is_punct(k, ";") {
            return false;
        }
        if v.is_ident(k, "in") {
            saw_in = true;
        }
        if v.is_ident(k, "for") {
            return saw_in;
        }
    }
    false
}
