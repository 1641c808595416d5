//! `counter-registry`: every obs counter / span / collective-label name
//! must be registered in `compso_obs::names`, and every registered name
//! must be read.
//!
//! Observability names are string-keyed: `Recorder::incr("kfac/step")`,
//! `recv_labeled(src, "comm/barrier")`, `StepReport` phase tables, and
//! test assertions all meet on literal strings. Before the registry,
//! renaming a counter silently broke the step report and whichever test
//! pinned the old literal. The registry makes membership checkable; this
//! rule makes it checked:
//!
//! 1. Any string literal **shaped like a counter name** — `core/…`,
//!    `comm/…`, `kfac/…`, `ckpt/…`, or `ctrl/…` with lowercase
//!    `[a-z0-9_/]` segments — must be a member of the registry. This
//!    applies to tests too: a test asserting an unregistered name is
//!    drift by definition.
//! 2. Any **literal argument to a name-keyed API** (`incr`, `add`,
//!    `observe`, `span`, `add_time_ns`, `recv_labeled`) must be
//!    registered, whatever its shape — catching typos that dodge the
//!    name pattern entirely.
//! 3. Any **registered name nothing reads** fails at its `const` line
//!    ([`unread_names`], a workspace pass). A file other than the
//!    registry reads a name by spelling its constant or its value
//!    anywhere except as the first argument of a recording API (`incr`,
//!    `add`, `observe`, `span`, `add_time_ns`): a report, a test, a gate,
//!    a collective label. The benchmark's sources are lexed as readers
//!    only; no rule runs on them.
//!
//! The registry itself is parsed from `crates/obs/src/names.rs` by the
//! engine (`const NAME: &str = "…";` entries), so its definitions
//! trivially satisfy checks 1 and 2.

use super::{Rule, View};
use crate::engine::{Context, Diagnostic};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::collections::BTreeSet;

pub(crate) struct CounterRegistry;

const NAME: &str = "counter-registry";

/// Obs namespaces whose string shape implies "this is a counter name".
const NAMESPACES: &[&str] = &["core", "comm", "kfac", "ckpt", "ctrl"];

/// Name-keyed APIs whose literal arguments must be registered.
const KEYED_APIS: &[&str] = &[
    "incr",
    "add",
    "observe",
    "span",
    "add_time_ns",
    "recv_labeled",
];

/// The registry's defining file.
const REGISTRY: &str = "crates/obs/src/names.rs";

/// APIs whose first argument is a name being recorded, not read.
const RECORDING_APIS: &[&str] = &["incr", "add", "observe", "span", "add_time_ns"];

impl Rule for CounterRegistry {
    fn name(&self) -> &'static str {
        NAME
    }

    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Diagnostic>) {
        let v = View::new(file);
        for ci in 0..v.len() {
            if v.kind(ci) != TokenKind::Str {
                continue;
            }
            let Some(value) = str_value(v.text(ci)) else {
                continue;
            };
            if ctx.registered_names.contains(value) {
                continue;
            }
            if counter_shaped(value) {
                out.push(v.diag(
                    NAME,
                    ci,
                    format!(
                        "counter-shaped literal \"{value}\" is not registered in \
                         compso_obs::names; add it there and use the constant"
                    ),
                ));
            } else if enclosing_call(&v, ci).is_some_and(|(c, _)| KEYED_APIS.contains(&v.text(c)))
                && !file.in_test(v.tok(ci).start)
            {
                out.push(v.diag(
                    NAME,
                    ci,
                    format!(
                        "literal \"{value}\" passed to a name-keyed obs API; \
                         register it in compso_obs::names and use the constant"
                    ),
                ));
            }
        }
    }
}

/// The literal's value, for plain (non-raw) strings without escapes —
/// counter names never need either.
fn str_value(text: &str) -> Option<&str> {
    let inner = text.strip_prefix('"')?.strip_suffix('"')?;
    (!inner.contains('\\')).then_some(inner)
}

/// `namespace/segment(/segment)*` with lowercase snake segments.
fn counter_shaped(s: &str) -> bool {
    let Some((ns, rest)) = s.split_once('/') else {
        return false;
    };
    if !NAMESPACES.contains(&ns) || rest.is_empty() {
        return false;
    }
    rest.split('/').all(|seg| {
        !seg.is_empty()
            && seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    })
}

/// The call whose parentheses hold token `ci`, through any block between
/// (`incr(if c { "a" } else { "b" })`): the callee's token and whether
/// `ci` is in the first argument. `None` outside a call or past a `;`.
fn enclosing_call(v: &View, ci: usize) -> Option<(usize, bool)> {
    let mut first = true;
    let open = v.prev_outward(ci, |k| {
        first &= !v.is_punct(k, ",");
        v.is_punct(k, "(") || v.is_punct(k, "[") || v.is_punct(k, ";")
    })?;
    let callee = open.checked_sub(1).filter(|_| v.is_punct(open, "("))?;
    (v.kind(callee) == TokenKind::Ident).then_some((callee, first))
}

/// `(constant token, constant, value)` per `const NAME: &str = "value";`
/// in the registry's token stream.
pub(crate) fn registry_entries<'v>(v: &'v View) -> Vec<(usize, &'v str, &'v str)> {
    let shape = [":", "&", "str", "="];
    (0..v.len().saturating_sub(6))
        .filter(|&i| v.is_ident(i, "const") && (0..4).all(|k| v.text(i + 2 + k) == shape[k]))
        .filter_map(|i| Some((i + 1, v.text(i + 1), str_value(v.text(i + 6))?)))
        .collect()
}

/// Check 3 over the workspace: the registry entries no file in `files`
/// (the registry aside) reads, reported at their `const` line.
pub(crate) fn unread_names(files: &[SourceFile]) -> Vec<Diagnostic> {
    let Some(registry) = files.iter().find(|f| f.path == REGISTRY) else {
        return Vec::new();
    };
    let reg = View::new(registry);
    let entries = registry_entries(&reg);
    let spellings: BTreeSet<&str> = entries.iter().flat_map(|&(_, c, val)| [c, val]).collect();
    let mut read = BTreeSet::new();
    for f in files.iter().filter(|f| f.path != REGISTRY) {
        let v = View::new(f);
        for ci in 0..v.len() {
            let text = match v.kind(ci) {
                TokenKind::Ident => Some(v.text(ci)),
                TokenKind::Str => str_value(v.text(ci)),
                _ => None,
            };
            let Some(&name) = text.and_then(|t| spellings.get(t)) else {
                continue;
            };
            let recorded = enclosing_call(&v, ci)
                .is_some_and(|(c, first)| first && RECORDING_APIS.contains(&v.text(c)));
            if !recorded {
                read.insert(name);
            }
        }
    }
    (entries.iter())
        .filter(|(_, c, val)| !read.contains(c) && !read.contains(val))
        .map(|&(ci, c, val)| {
            let message = format!(
                "registered name {c} (\"{val}\") is never read outside its recording \
                 calls; read it in a report, a test or a gate, or delete it"
            );
            reg.diag(NAME, ci, message)
        })
        .filter(|d| !registry.is_suppressed(NAME, d.line))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_detection() {
        assert!(counter_shaped("comm/recv"));
        assert!(counter_shaped("kfac/step/other"));
        assert!(counter_shaped("core/encode_v2"));
        assert!(counter_shaped("ctrl/decisions"));
        assert!(!counter_shaped("kfac/")); // dangling namespace prefix
        assert!(!counter_shaped("global/step")); // not an obs namespace
        assert!(!counter_shaped("comm/Recv")); // uppercase
        assert!(!counter_shaped("comm")); // no slash
        assert!(!counter_shaped("kfac/{idx}")); // format! placeholder
    }

    #[test]
    fn a_name_only_recorded_is_unread() {
        let registry = "pub const A: &str = \"comm/a\";\n\
                        pub const B: &str = \"comm/b\";\n\
                        pub const C: &str = \"comm/c\";\n\
                        pub const D: &str = \"comm/d\";\n\
                        pub const E: &str = \"comm/e\";\n\
                        pub const ALL: &[&str] = &[A, B, C, D, E];\n";
        let unread = |readers: &[(&str, &str)]| -> Vec<(usize, usize)> {
            let mut files = vec![SourceFile::new(REGISTRY.into(), registry.into())];
            files.extend(
                readers
                    .iter()
                    .map(|&(p, s)| SourceFile::new(p.into(), s.into())),
            );
            unread_names(&files)
                .iter()
                .map(|d| (d.line, d.col))
                .collect()
        };
        let prod = (
            "crates/comm/src/x.rs",
            "fn f(rec: &Recorder) {\n    let _s = rec.span(names::A);\n    \
             rec.add(names::B, rec.counter(names::C));\n    \
             comm.recv_labeled(src, names::D);\n}\n",
        );
        // A is recorded, B recorded and read only by the benchmark; C is
        // read as an argument, D as a label.
        let bench = (
            "benchmark/src/ledger.rs",
            "fn g() { s.counter(names::B); }\n",
        );
        assert_eq!(unread(&[prod]), [(1, 11), (2, 11), (5, 11)]);
        assert_eq!(unread(&[prod, bench]), [(1, 11), (5, 11)]);
        // A test reading a value by its literal counts.
        let test = (
            "tests/t.rs",
            "fn t() { assert_eq!(s.counter(\"comm/e\"), 0); }\n",
        );
        assert_eq!(unread(&[prod, bench, test]), [(1, 11)]);
        // The registry's own `ALL` list is not a reader.
        assert_eq!(unread(&[]).len(), 5);
    }
}
