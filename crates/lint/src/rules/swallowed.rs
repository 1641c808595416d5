//! `swallowed-comm-error`: `let _ = <comm call>` silently discards a
//! `CommError`.
//!
//! PR 3 made the comm stack fallible end to end so peer failures surface
//! as errors instead of hangs. Binding a collective or send result to
//! `_` undoes that: the error is computed, then dropped on the floor,
//! and the caller proceeds as if the group were healthy — the same
//! regression class as `no-unwrap-on-comm-path`, in the opposite
//! direction.
//!
//! Heuristic (production comm/kfac code): a `let _ = …;` statement whose
//! initializer calls a collective ([`super::COLLECTIVES`]), a
//! transitively-collective helper (call-graph facts), or a raw send
//! (`send`, `send_raw_frame`). A `?` anywhere in the statement means the
//! error already propagated (`let _ = x?;` discards only the Ok value)
//! and is clean.
//!
//! The remedy in a `Result`-returning function is `EXPR?;`. Genuinely
//! best-effort sends (ACKs, rejoin advertisements) must say so:
//! `lint:allow(swallowed-comm-error): <why best-effort is correct>`.

use super::{Rule, View, COLLECTIVES};
use crate::callgraph::file_facts;
use crate::engine::{Context, Diagnostic};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

pub struct SwallowedCommError;

const NAME: &str = "swallowed-comm-error";

/// Raw point-to-point sends whose `Result` must not be dropped.
const SENDS: &[&str] = &["send", "send_raw_frame"];

impl Rule for SwallowedCommError {
    fn name(&self) -> &'static str {
        NAME
    }

    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Diagnostic>) {
        let v = View::new(file);
        let facts = file_facts(file, ctx);
        for stmt in let_underscore_stmts(&v) {
            if file.in_test(v.tok(stmt.start).start) {
                continue;
            }
            // Already propagated?
            if (stmt.clone()).any(|ci| v.is_punct(ci, "?")) {
                continue;
            }
            for ci in stmt.clone() {
                if v.kind(ci) != TokenKind::Ident || ci + 1 >= v.len() || !v.is_punct(ci + 1, "(") {
                    continue;
                }
                let callee = v.text(ci);
                let fallible = COLLECTIVES.contains(&callee)
                    || SENDS.contains(&callee)
                    || facts.collective(callee);
                if !fallible {
                    continue;
                }
                out.push(v.diag(
                    NAME,
                    ci,
                    format!(
                        "`let _ = …` discards the Result of comm call `{callee}`; \
                         propagate it (`{callee}(…)?`) or annotate \
                         lint:allow({NAME}): <why best-effort is correct here>"
                    ),
                ));
                break; // one finding per statement
            }
        }
    }
}

/// Code-index ranges of `let _ = … ;` statements: from the `let` token
/// through the terminating `;` (exclusive), tracked at bracket depth 0.
fn let_underscore_stmts(v: &View) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    for ci in 0..v.len().saturating_sub(2) {
        if !(v.is_ident(ci, "let") && v.text(ci + 1) == "_" && v.is_punct(ci + 2, "=")) {
            continue;
        }
        let mut depth = 0i32;
        let mut end = ci + 3;
        while end < v.len() {
            if v.is_punct(end, "(") || v.is_punct(end, "[") || v.is_punct(end, "{") {
                depth += 1;
            } else if v.is_punct(end, ")") || v.is_punct(end, "]") || v.is_punct(end, "}") {
                depth -= 1;
            } else if v.is_punct(end, ";") && depth == 0 {
                break;
            }
            end += 1;
        }
        if end < v.len() {
            out.push(ci..end);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::check_file;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new(path.into(), src.into());
        let ctx = Context::with_names(Vec::new());
        let mut out = Vec::new();
        check_file(&f, &ctx, &mut out);
        out.retain(|d| d.rule == NAME);
        out
    }

    #[test]
    fn discarded_collective_fires() {
        let out = diags(
            "crates/comm/src/x.rs",
            "fn quiesce(c: &mut C) {\n    let _ = c.barrier();\n}\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`barrier`"));
    }

    #[test]
    fn discarded_transitive_collective_fires() {
        let out = diags(
            "crates/kfac/src/x.rs",
            "fn helper(c: &mut C) -> Result<(), E> { c.allreduce_sum(&mut []) }\n\
             fn step(c: &mut C) {\n    let _ = helper(c);\n}\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn propagated_and_bound_results_are_clean() {
        let out = diags(
            "crates/comm/src/x.rs",
            "fn a(c: &mut C) -> Result<(), E> {\n    let _ = c.barrier()?;\n    Ok(())\n}\n\
             fn b(c: &mut C) -> Result<(), E> {\n    let r = c.barrier();\n    r\n}\n\
             fn d(c: &mut C) {\n    let _ = c.infallible_thing();\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
