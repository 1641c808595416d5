//! `unchecked-length-prefix`: a length read from the wire must be
//! bounds-checked before it sizes an allocation.
//!
//! Every decoder in this workspace reads `u32`/`u64` length prefixes
//! from untrusted bytes (hostile-payload tests forge them on purpose).
//! Feeding such a length straight into `Vec::with_capacity`, a
//! `vec![0u8; n]`, or a `take(n)` lets a 4-byte payload demand a
//! multi-gigabyte allocation. The sanctioned pattern is the one
//! `compso_core::wire` provides: clamp through `checked_count` /
//! compare against `Reader::remaining` *before* allocating.
//!
//! Heuristic (token-level, per function body, production code only):
//!
//! 1. A `let` statement whose initializer calls `.u32()` / `.u64()`
//!    *taints* the bound identifier — unless the same statement already
//!    guards it (e.g. `let n = checked_count(r.u32()? as u64)?;`).
//! 2. A later statement mentioning the identifier together with a guard
//!    marker (a `<`/`>`/`==`/`!=` comparison, `min`/`max`, or a call
//!    whose name contains `check`/`ensure`/`remaining`/`bound`/`assert`
//!    or starts with `MAX`) clears the taint — comparisons against
//!    trusted expectations are this codebase's sanctioned validation
//!    shape. Re-binding the name clears it too.
//! 3. A statement that uses a still-tainted identifier **as an
//!    allocation size** — inside `with_capacity(…)`, after the `;` of
//!    `vec![…; …]`, or inside `.take(…)` — fires.
//!
//! **Cross-function taint**: a helper that merely *returns* a wire-read
//! length launders the taint past the per-body heuristic — the live
//! pattern is `compso_comm::membership::rank_count`, whose callers must
//! compare against `RANKS_MAX` themselves. Pass 1
//! ([`collect_length_sources`]) finds every function whose signature
//! returns an integer width, whose body reads `.u32()`/`.u64()`, and
//! whose body contains *no* guard marker: its return value is an
//! unclamped wire length. The engine unions these names over the checked
//! set into [`Context::length_sources`]; pass 2 treats a call to any such
//! function exactly like a direct `.u32()` read when tainting a `let`
//! binding.

use super::{Rule, View};
use crate::engine::{Context, Diagnostic};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::collections::BTreeSet;
use std::ops::Range;

pub(crate) struct UncheckedLengthPrefix;

const NAME: &str = "unchecked-length-prefix";

impl Rule for UncheckedLengthPrefix {
    fn name(&self) -> &'static str {
        NAME
    }

    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Diagnostic>) {
        let v = View::new(file);
        let sources = &ctx.length_sources;
        for f in &file.fns {
            if f.body.is_empty() || file.in_test(f.body.start) {
                continue;
            }
            // The source function itself returns the raw length by
            // design; the obligation sits on its callers.
            if sources.contains(&f.name) {
                continue;
            }
            check_body(&v, f.body_tokens.clone(), sources, out);
        }
    }
}

/// Pass 1 of the cross-function analysis: names of functions in `file`
/// whose **return value is an unclamped wire-read length** — signature
/// returns an integer width (`usize`/`u32`/`u64`, possibly inside
/// `Result<…>`), body calls `.u32()`/`.u64()`, and no guard marker
/// appears anywhere in the body. Callers must treat these like direct
/// wire reads. Test code never contributes sources.
pub(crate) fn collect_length_sources(file: &SourceFile) -> Vec<String> {
    let v = View::new(file);
    let mut out = Vec::new();
    for f in &file.fns {
        if f.body.is_empty() || file.in_test(f.kw_start) {
            continue;
        }
        if !returns_integer(&v, f.sig.clone()) {
            continue;
        }
        let body = f.body_tokens.clone();
        if reads_wire_len(&v, body.clone()) && !has_guard(&v, body) {
            out.push(f.name.clone());
        }
    }
    out
}

/// Does the signature's return type (tokens after `->`) mention an
/// integer width a length could travel through?
fn returns_integer(v: &View, sig: Range<usize>) -> bool {
    let Some(arrow) = sig
        .clone()
        .find(|&ci| v.is_punct(ci, "-") && v.is_punct(ci + 1, ">"))
    else {
        return false;
    };
    (arrow + 2..sig.end)
        .any(|ci| v.kind(ci) == TokenKind::Ident && matches!(v.text(ci), "usize" | "u32" | "u64"))
}

fn check_body(v: &View, body: Range<usize>, sources: &BTreeSet<String>, out: &mut Vec<Diagnostic>) {
    // Statements: body token runs split on `;` — except inside `[...]`,
    // so `vec![0u8; n]` stays one statement (nested blocks split like
    // the body, which is good enough for a taint heuristic).
    let mut stmts = Vec::new();
    let (mut start, mut ci) = (body.start, body.start);
    while ci < body.end {
        if v.is_punct(ci, "[") {
            ci = v.partner(ci).unwrap_or(body.end);
        } else if v.is_punct(ci, ";") {
            stmts.push(start..ci);
            start = ci + 1;
        }
        ci += 1;
    }
    if start < body.end {
        stmts.push(start..body.end);
    }

    let mut tainted: Vec<String> = Vec::new();
    for mut stmt in stmts {
        // Trim block-structure tokens: the body's own `{`, nested block
        // openers (`if ok { let n = ... }`), and closers, so `let` is
        // the statement's first meaningful token when present.
        while stmt.start < stmt.end && (v.is_punct(stmt.start, "{") || v.is_punct(stmt.start, "}"))
        {
            stmt.start += 1;
        }
        let mentions = |name: &str| {
            stmt.clone()
                .any(|ci| v.kind(ci) == TokenKind::Ident && v.text(ci) == name)
        };
        let guarded = has_guard(v, stmt.clone());

        // Allocation check first: a statement like `let m = vec![0; n]`
        // must fire on the *old* taint of `n` before `m` bookkeeping.
        if let Some(flag_ci) = alloc_use(v, stmt.clone(), &tainted) {
            if !guarded {
                let name = v.text(flag_ci).to_string();
                out.push(v.diag(
                    NAME,
                    flag_ci,
                    format!(
                        "wire-read length `{name}` sizes an allocation without a bound \
                         check; clamp via checked_count / compare against remaining() first"
                    ),
                ));
                tainted.retain(|t| t != &name); // report once per taint
            }
        }

        // Guard statements clear taint for every identifier they mention.
        if guarded {
            tainted.retain(|t| !mentions(t));
        }

        // New taints: `let [mut] X … = … .u32()/.u64() …` without a guard
        // in the same statement. Re-binding clears the old taint either way.
        if let Some(name) = let_binding(v, stmt.clone()) {
            tainted.retain(|t| t != &name);
            if (reads_wire_len(v, stmt.clone()) || calls_source(v, stmt, sources)) && !guarded {
                tainted.push(name);
            }
        }
    }
}

/// `let [mut] X` at the start of a statement → `Some(X)`.
fn let_binding(v: &View, stmt: Range<usize>) -> Option<String> {
    if stmt.is_empty() || !v.is_ident(stmt.start, "let") {
        return None;
    }
    let at = stmt.start + 1 + usize::from(v.is_ident(stmt.start + 1, "mut"));
    (at < stmt.end && v.kind(at) == TokenKind::Ident).then(|| v.text(at).to_string())
}

/// Does this statement call `.u32()` or `.u64()` (a wire length read)?
fn reads_wire_len(v: &View, stmt: Range<usize>) -> bool {
    (stmt.start..stmt.end.saturating_sub(2)).any(|ci| {
        v.is_punct(ci, ".")
            && (v.is_ident(ci + 1, "u32") || v.is_ident(ci + 1, "u64"))
            && v.is_punct(ci + 2, "(")
    })
}

/// Does this statement call a known length-source helper (`name(…)`)?
/// Those return unclamped wire lengths and taint like a direct read.
fn calls_source(v: &View, stmt: Range<usize>, sources: &BTreeSet<String>) -> bool {
    !sources.is_empty()
        && (stmt.start..stmt.end.saturating_sub(1)).any(|ci| {
            v.kind(ci) == TokenKind::Ident
                && v.is_punct(ci + 1, "(")
                && sources.contains(v.text(ci))
        })
}

/// Does this statement contain a bound-check marker?
fn has_guard(v: &View, stmt: Range<usize>) -> bool {
    stmt.clone().any(|ci| match v.kind(ci) {
        // `==` / `!=` lex as two adjacent Punct tokens.
        TokenKind::Punct => {
            let t = v.text(ci);
            t == "<"
                || t == ">"
                || ((t == "=" || t == "!") && ci + 1 < stmt.end && v.is_punct(ci + 1, "="))
        }
        TokenKind::Ident => {
            let t = v.text(ci);
            t == "min"
                || t == "max"
                || t.starts_with("MAX")
                || t.contains("check")
                || t.contains("ensure")
                || t.contains("remaining")
                || t.contains("bound")
                || t.contains("assert")
        }
        _ => false,
    })
}

/// If this statement uses a tainted identifier as an allocation *size*,
/// return the token index of that identifier.
fn alloc_use(v: &View, stmt: Range<usize>, tainted: &[String]) -> Option<usize> {
    if tainted.is_empty() {
        return None;
    }
    let is_tainted =
        |ci: usize| v.kind(ci) == TokenKind::Ident && tainted.iter().any(|t| t == v.text(ci));
    // The group opened at `open`, cut at the statement's end.
    let close = |open: usize| v.partner(open).unwrap_or(stmt.end).min(stmt.end);
    for pos in stmt.clone() {
        // `with_capacity( … )` and `.take( … )`: tainted ident anywhere
        // in the argument list.
        let callee = v.is_ident(pos, "with_capacity")
            || (v.is_ident(pos, "take") && pos > stmt.start && v.is_punct(pos - 1, "."));
        if callee && pos + 1 < stmt.end && v.is_punct(pos + 1, "(") {
            if let Some(ci) = (pos + 2..close(pos + 1)).find(|&ci| is_tainted(ci)) {
                return Some(ci);
            }
        }
        // `vec![ … ; LEN ]`: tainted ident in the length position only.
        if v.is_ident(pos, "vec")
            && pos + 2 < stmt.end
            && v.is_punct(pos + 1, "!")
            && v.is_punct(pos + 2, "[")
        {
            let end = close(pos + 2);
            let semi = v.next_at_level(pos + 3, |k| v.is_punct(k, ";"));
            if let Some(ci) = semi.and_then(|semi| (semi + 1..end).find(|&ci| is_tainted(ci))) {
                return Some(ci);
            }
        }
    }
    None
}
