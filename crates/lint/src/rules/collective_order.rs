//! `collective-order`: every rank must issue the same collective
//! sequence, or the group deadlocks.
//!
//! The synchronous K-FAC pipeline (PAPER.md §4) assumes all ranks reach
//! `allreduce`/`allgather`/`barrier` calls in lockstep. A collective —
//! direct, or transitive through a helper — issued under a branch that
//! only *some* ranks take is the deadlock shape: the branching rank
//! blocks in the collective while its peers never enter it. Two
//! variants are flagged in production comm/kfac code:
//!
//! 1. **Conditional collective**: a collective call inside an
//!    `if`/`else if`/`else` chain whose condition mentions a rank/peer
//!    identity (`rank`, `phys_rank`, `peer`, `.rank()`, …).
//! 2. **Early return before a collective**: a rank-conditional branch
//!    containing `return`, while the enclosing function issues a
//!    collective *after* the chain — returning ranks skip it.
//!
//! Point-to-point sends/recvs inside rank branches are fine (that is
//! how collectives are *implemented*); only collective entry points
//! synchronize the whole group. Transitivity comes from the call-graph
//! facts ([`crate::callgraph`]): a helper that reaches a collective is
//! as dangerous as the collective itself.
//!
//! Deliberate single-rank collectives (e.g. a quiesce barrier guarded
//! by a fault-plane check) must carry
//! `lint:allow(collective-order): <why every live rank takes the same
//! branch>`.

use super::{Rule, View, COLLECTIVES};
use crate::engine::{Context, Diagnostic};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::ops::Range;

pub(crate) struct CollectiveOrder;

const NAME: &str = "collective-order";

/// Identifiers in an `if` condition that mark it rank-conditional.
const RANK_IDENTS: &[&str] = &[
    "rank",
    "my_rank",
    "phys_rank",
    "virtual_rank",
    "peer",
    "leader",
    "joiner",
    "root_rank",
];

impl Rule for CollectiveOrder {
    fn name(&self) -> &'static str {
        NAME
    }

    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Diagnostic>) {
        let v = View::new(file);
        for f in &file.fns {
            if f.body.is_empty() || file.in_test(f.body.start) {
                continue;
            }
            // The collectives themselves are implemented with
            // rank-conditional point-to-point phases and may legally
            // branch on rank around nested collective entry points
            // (e.g. pipelined_allgather falling back to allgather).
            if COLLECTIVES.contains(&f.name.as_str()) {
                continue;
            }
            let body = f.body_tokens.clone();
            for chain in rank_conditional_chains(&v, body.clone()) {
                let mut saw_return = None;
                for ci in chain.clone() {
                    if v.is_ident(ci, "return") {
                        saw_return.get_or_insert(ci);
                    }
                    // Callee position: `ident (`.
                    if v.kind(ci) != TokenKind::Ident || !v.is_punct(ci + 1, "(") {
                        continue;
                    }
                    let callee = v.text(ci);
                    if COLLECTIVES.contains(&callee) {
                        out.push(v.diag(
                            NAME,
                            ci,
                            format!(
                                "collective `{callee}` issued under a rank-conditional \
                                 branch in `{}`; ranks that skip the branch never enter \
                                 it and the group deadlocks — hoist it, or annotate \
                                 lint:allow({NAME}): <why every live rank branches \
                                 identically>",
                                f.name
                            ),
                        ));
                    } else if reaches_collective(ctx, callee) {
                        out.push(v.diag(
                            NAME,
                            ci,
                            format!(
                                "`{callee}` transitively issues a collective, and is \
                                 called under a rank-conditional branch in `{}`; hoist \
                                 the call or annotate lint:allow({NAME}): <proof>",
                                f.name
                            ),
                        ));
                    }
                }
                // Early-return shape: a rank-conditional return while the
                // function issues a collective later in the body.
                let Some(ret) = saw_return else {
                    continue;
                };
                if let Some(after) = first_collective_after(&v, chain.end..body.end, ctx) {
                    out.push(v.diag(
                        NAME,
                        ret,
                        format!(
                            "rank-conditional early return in `{}` skips the \
                             collective `{}` issued later in the function; \
                             returning ranks leave their peers blocked — \
                             restructure, or annotate lint:allow({NAME}): <proof>",
                            f.name,
                            v.text(after),
                        ),
                    ));
                }
            }
        }
    }
}

/// Code-token ranges of each rank-conditional `if … { } else if … { }
/// else { }` chain in `body`: from the first branch's `{` through the
/// last branch's `}`. The *whole* chain is rank-conditional if any
/// branch condition in it is.
fn rank_conditional_chains(v: &View, body: Range<usize>) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut ci = body.start;
    while ci < body.end {
        let chain = if v.is_ident(ci, "if") {
            if_chain(v, ci)
        } else {
            None
        };
        match chain {
            // The whole chain is covered; skip past it (nested ifs inside
            // are already in the range).
            Some((first, last, true)) => {
                out.push(first..last + 1);
                ci = last + 1;
            }
            // Not rank-conditional: step *into* the first block so nested
            // rank-conditional ifs still get scanned.
            Some((first, _, false)) => ci = first + 1,
            None => ci += 1,
        }
    }
    out
}

/// The `if` chain whose first `if` is at `at`: its first block's `{`,
/// its last block's `}`, and whether any branch condition names a rank
/// identity. Each condition runs from its `if` to the first `{` at its
/// level; `else if` continues the chain and `else { }` ends it.
fn if_chain(v: &View, at: usize) -> Option<(usize, usize, bool)> {
    let (mut cond, mut start, mut rankish) = (at + 1, None, false);
    loop {
        let open = v.next_at_level(cond, |k| v.is_punct(k, "{"))?;
        rankish |= (cond..open)
            .any(|ci| v.kind(ci) == TokenKind::Ident && RANK_IDENTS.contains(&v.text(ci)));
        let first = *start.get_or_insert(open);
        let close = v.partner(open)?;
        if !v.is_ident(close + 1, "else") {
            return Some((first, close, rankish));
        }
        if v.is_ident(close + 2, "if") {
            cond = close + 3;
            continue;
        }
        let last = match v.partner(close + 2) {
            Some(end) if v.is_punct(close + 2, "{") => end,
            _ => close,
        };
        return Some((first, last, rankish));
    }
}

/// Does `name` issue a collective transitively (call-graph facts)?
fn reaches_collective(ctx: &Context, name: &str) -> bool {
    ctx.facts.get(name).is_some_and(|f| f.collective)
}

/// The first token in `span` holding a collective call (direct or via
/// facts), if any.
fn first_collective_after(v: &View, span: Range<usize>, ctx: &Context) -> Option<usize> {
    span.into_iter().find(|&ci| {
        v.kind(ci) == TokenKind::Ident
            && v.is_punct(ci + 1, "(")
            && (COLLECTIVES.contains(&v.text(ci)) || reaches_collective(ctx, v.text(ci)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::check_files;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new(path.into(), src.into());
        let mut out = check_files(&[f], Context::with_names(Vec::new()));
        out.retain(|d| d.rule == NAME);
        out
    }

    #[test]
    fn conditional_collective_fires() {
        let out = diags(
            "crates/kfac/src/x.rs",
            "fn sync(c: &mut C) -> Result<(), E> {\n\
                 if c.rank == 0 {\n        c.barrier()?;\n    }\n    Ok(())\n}\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`barrier`"));
    }

    #[test]
    fn transitive_collective_fires() {
        let out = diags(
            "crates/kfac/src/x.rs",
            "fn helper(c: &mut C) -> Result<(), E> { c.allreduce_sum(&mut []) }\n\
             fn sync(c: &mut C, rank: usize) -> Result<(), E> {\n\
                 if rank == 0 { helper(c)?; }\n    Ok(())\n}\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`helper`"));
    }

    #[test]
    fn early_return_before_collective_fires() {
        let out = diags(
            "crates/comm/src/x.rs",
            "fn step(c: &mut C, rank: usize) -> Result<(), E> {\n\
                 if rank != 0 {\n        return Ok(());\n    }\n\
                 c.barrier()?;\n    Ok(())\n}\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("early return"));
    }

    #[test]
    fn unconditional_and_non_rank_branches_are_clean() {
        let out = diags(
            "crates/comm/src/x.rs",
            "fn sync(c: &mut C) -> Result<(), E> {\n\
                 c.barrier()?;\n\
                 if c.config.enabled {\n        c.allreduce_sum(&mut [])?;\n    }\n\
                 Ok(())\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn point_to_point_sends_in_rank_branches_are_fine() {
        let out = diags(
            "crates/comm/src/x.rs",
            "fn bcast(c: &mut C, rank: usize) -> Result<(), E> {\n\
                 if rank == 0 { c.send(1, payload)?; } else { c.recv_from(0)?; }\n\
                 Ok(())\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
