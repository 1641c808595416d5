//! The rule catalogue, as **declarative tables**.
//!
//! Every rule implements [`Rule`] over a [`SourceFile`] token stream and
//! appends [`Diagnostic`]s. Rules never see suppressed lines — the
//! engine filters `lint:allow` afterwards — and they are expected to be
//! *sound over the token stream*: literals and comments are opaque
//! tokens, so a magic byte in a doc comment or a counter name inside a
//! test string can never fire by accident.
//!
//! v3 moved all scoping out of the rule bodies and into data:
//!
//! - [`RULES`] — one [`RuleSpec`] per rule: include/exclude path
//!   prefixes, constructor. The engine consults `applies_to`
//!   before running a rule on a file, so rules no longer hard-code
//!   their own path checks or self-exclusion carve-outs.
//! - [`GLOBAL_EXCLUDE`] — paths no rule ever runs on (the analyzer
//!   itself: its tables spell out the byte ranges and name shapes they
//!   hunt for, and its fixtures contain deliberate violations). The
//!   lexer tiling property still covers these files.
//! - [`COLLECTIVES`], [`CRITICAL_ROOTS`], [`DETERMINISM_ALLOWLIST`] —
//!   the workspace-contract vocabulary the call-graph rules share (see
//!   [`crate::callgraph`]).

use crate::engine::{Context, Diagnostic, SUPPRESSION_HYGIENE};
use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

mod collective_order;
mod counter_registry;
mod deterministic_state;
mod float_reduction;
mod hashmap_iter;
pub mod length_prefix;
mod no_unwrap;
mod swallowed;
mod wire_magic;

pub use collective_order::CollectiveOrder;
pub use counter_registry::CounterRegistry;
pub use deterministic_state::DeterministicState;
pub use float_reduction::FloatReductionOrder;
pub use hashmap_iter::NondeterministicWireIteration;
pub use length_prefix::UncheckedLengthPrefix;
pub use no_unwrap::NoUnwrapOnCommPath;
pub use swallowed::SwallowedCommError;
pub use wire_magic::WireMagicRegistry;

pub(crate) use hashmap_iter::{hashmap_idents, in_for_header, is_iter_call};

/// A single analysis rule.
pub trait Rule {
    fn name(&self) -> &'static str;
    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Diagnostic>);
}

/// One row of the rule table: everything the engine needs to decide
/// *whether* to run a rule on a file, separated from the rule's
/// token-level logic. Every finding fails `--deny`.
pub struct RuleSpec {
    pub name: &'static str,
    /// Path prefixes the rule is confined to; empty = whole workspace.
    pub include: &'static [&'static str],
    /// Path prefixes excluded on top of [`GLOBAL_EXCLUDE`].
    pub exclude: &'static [&'static str],
    make: fn() -> Box<dyn Rule>,
}

impl RuleSpec {
    /// Does this rule run on `path` (workspace-relative, `/`-separated)?
    pub fn applies_to(&self, path: &str) -> bool {
        if GLOBAL_EXCLUDE.iter().any(|p| path.starts_with(p)) {
            return false;
        }
        if self.exclude.iter().any(|p| path.starts_with(p)) {
            return false;
        }
        self.include.is_empty() || self.include.iter().any(|p| path.starts_with(p))
    }

    pub fn rule(&self) -> Box<dyn Rule> {
        (self.make)()
    }
}

/// Paths no rule ever runs on: the analyzer's own sources and fixtures.
pub const GLOBAL_EXCLUDE: &[&str] = &["crates/lint/"];

/// The rule table, in catalogue order (DESIGN.md §11.2).
pub const RULES: &[RuleSpec] = &[
    RuleSpec {
        name: "wire-magic-registry",
        include: &[],
        exclude: &[],
        make: || Box::new(WireMagicRegistry),
    },
    RuleSpec {
        name: "no-unwrap-on-comm-path",
        // The comm crate *is* the fallible path; kfac is in scope only
        // inside Result-returning fns (a behavioral refinement the rule
        // keeps — it is not a path scope).
        include: &["crates/comm/src/", "crates/kfac/src/"],
        exclude: &[],
        make: || Box::new(NoUnwrapOnCommPath),
    },
    RuleSpec {
        name: "unchecked-length-prefix",
        include: &[],
        exclude: &[],
        make: || Box::new(UncheckedLengthPrefix),
    },
    RuleSpec {
        name: "counter-registry",
        include: &[],
        exclude: &[],
        make: || Box::new(CounterRegistry),
    },
    RuleSpec {
        name: "nondeterministic-wire-iteration",
        include: &[],
        exclude: &[],
        make: || Box::new(NondeterministicWireIteration),
    },
    RuleSpec {
        name: "collective-order",
        // Deadlocks need a group: only comm/kfac issue collectives.
        include: &["crates/comm/src/", "crates/kfac/src/"],
        exclude: &[],
        make: || Box::new(CollectiveOrder),
    },
    RuleSpec {
        name: "deterministic-state",
        include: &[],
        exclude: &[],
        make: || Box::new(DeterministicState),
    },
    RuleSpec {
        name: "float-reduction-order",
        include: &[],
        // The sanctioned scalar oracles: fixed-order reference
        // reductions every parallel kernel is pinned against.
        exclude: &["crates/tensor/src/reduce.rs"],
        make: || Box::new(FloatReductionOrder),
    },
    RuleSpec {
        name: "swallowed-comm-error",
        include: &["crates/comm/src/", "crates/kfac/src/"],
        exclude: &[],
        make: || Box::new(SwallowedCommError),
    },
];

/// Rule names valid in `lint:allow(...)` (includes the hygiene rule).
/// Pinned equal to the table by `rule_names_match_table`.
pub const RULE_NAMES: &[&str] = &[
    "wire-magic-registry",
    "no-unwrap-on-comm-path",
    "unchecked-length-prefix",
    "counter-registry",
    "nondeterministic-wire-iteration",
    "collective-order",
    "deterministic-state",
    "float-reduction-order",
    "swallowed-comm-error",
    SUPPRESSION_HYGIENE,
];

/// The workspace's collective-call vocabulary: a call to any of these
/// names is a synchronization point every rank must reach in the same
/// order (`crates/comm/src/collectives.rs` + `CommGroup`).
pub const COLLECTIVES: &[&str] = &[
    "allreduce_sum",
    "allreduce_mean",
    "reduce_scatter_sum",
    "allgather",
    "allgather_var",
    "allgather_var_quiet",
    "pipelined_allgather",
    "compressed_allreduce_mean",
    "barrier",
];

/// A determinism-critical root: replicas must compute bit-identical
/// state through this function, so no impurity source may be reachable
/// from it (outside the audited allowlist).
pub struct CriticalRoot {
    pub path_prefix: &'static str,
    pub fn_name: &'static str,
    /// `fn_name` is a prefix match (`encode*`) instead of exact.
    pub prefix: bool,
}

/// The determinism-critical roots (ISSUE/DESIGN.md §11.3): controller
/// decisions, wire codecs, checkpoint snapshot/restore, and the
/// distributed step itself. Matching is `(defining path, fn name)`.
pub const CRITICAL_ROOTS: &[CriticalRoot] = &[
    // Controller: every rank replays identical decisions without
    // consensus.
    CriticalRoot {
        path_prefix: "crates/ctrl/src/",
        fn_name: "observe",
        prefix: false,
    },
    CriticalRoot {
        path_prefix: "crates/ctrl/src/",
        fn_name: "decide",
        prefix: false,
    },
    // Wire codecs: byte streams must be pure functions of their inputs.
    CriticalRoot {
        path_prefix: "crates/core/src/",
        fn_name: "encode",
        prefix: true,
    },
    CriticalRoot {
        path_prefix: "crates/core/src/",
        fn_name: "decode",
        prefix: true,
    },
    CriticalRoot {
        path_prefix: "crates/comm/src/",
        fn_name: "encode",
        prefix: true,
    },
    CriticalRoot {
        path_prefix: "crates/comm/src/",
        fn_name: "decode",
        prefix: true,
    },
    CriticalRoot {
        path_prefix: "crates/ckpt/src/",
        fn_name: "encode",
        prefix: true,
    },
    CriticalRoot {
        path_prefix: "crates/ckpt/src/",
        fn_name: "decode",
        prefix: true,
    },
    CriticalRoot {
        path_prefix: "crates/kfac/src/",
        fn_name: "encode",
        prefix: true,
    },
    CriticalRoot {
        path_prefix: "crates/kfac/src/",
        fn_name: "decode",
        prefix: true,
    },
    // Checkpoints: snapshot bytes and restored state must be replayable.
    CriticalRoot {
        path_prefix: "crates/ckpt/src/",
        fn_name: "snapshot",
        prefix: true,
    },
    CriticalRoot {
        path_prefix: "crates/ckpt/src/",
        fn_name: "restore",
        prefix: true,
    },
    CriticalRoot {
        path_prefix: "crates/kfac/src/",
        fn_name: "snapshot",
        prefix: true,
    },
    CriticalRoot {
        path_prefix: "crates/kfac/src/",
        fn_name: "restore",
        prefix: true,
    },
    // DistKfac::step / step_elastic: the whole training step is pinned
    // bit-identical at 1/2/4 ranks.
    CriticalRoot {
        path_prefix: "crates/kfac/src/",
        fn_name: "step",
        prefix: true,
    },
];

/// Does `(path, fn_name)` match a critical root?
pub fn is_critical_root(path: &str, fn_name: &str) -> bool {
    CRITICAL_ROOTS.iter().any(|r| {
        path.starts_with(r.path_prefix)
            && if r.prefix {
                fn_name.starts_with(r.fn_name)
            } else {
                fn_name == r.fn_name
            }
    })
}

/// Audited allowlist for `deterministic-state`: functions where
/// wall-clock reads are *legitimate* — ARQ retransmit deadlines, NACK
/// backoff, recv timeouts. Their timing affects *when* bytes move,
/// never *which* bytes move, so replicas stay bit-identical. The
/// call-graph solver pins their impurity to zero and root cones stop at
/// them: an entry here audits the entire subtree behind the function.
pub const DETERMINISM_ALLOWLIST: &[(&str, &str)] = &[
    (
        "send_to_phys",
        "ARQ flight timestamping for retransmit deadlines; payload bytes are clock-independent",
    ),
    (
        "wire_delay",
        "bandwidth-delay pacing of the modeled wire; delays delivery, never alters bytes",
    ),
    (
        "transmit",
        "ARQ retransmit timestamping (sent_at bookkeeping)",
    ),
    (
        "recv_arq_inner",
        "ARQ receive loop: NACK backoff and recv_timeout deadlines gate retries, not payloads",
    ),
    (
        "barrier",
        "barrier recv_timeout deadline; completion is rank-count based, not time based",
    ),
    (
        "wait_barrier",
        "barrier deadline bookkeeping under the caller-provided Instant",
    ),
    (
        "send_raw_frame",
        "raw membership frame ARQ timestamping",
    ),
    (
        "recv_raw_membership",
        "membership frame recv deadline; a timeout surfaces as CommError, not divergent state",
    ),
    (
        "span",
        "wall-time observability span; the elapsed duration lands in timer counters and never feeds the value path",
    ),
];

/// Allowlist lookup: `Some(audit reason)` when `fn_name` is covered.
pub fn determinism_allow(fn_name: &str) -> Option<&'static str> {
    DETERMINISM_ALLOWLIST
        .iter()
        .find(|(n, _)| *n == fn_name)
        .map(|(_, reason)| *reason)
}

/// A non-trivia view over a file's tokens, shared by the rules.
pub struct View<'a> {
    pub file: &'a SourceFile,
    pub code: Vec<usize>,
}

impl<'a> View<'a> {
    pub fn new(file: &'a SourceFile) -> Self {
        View {
            file,
            code: file.code_tokens(),
        }
    }

    pub fn len(&self) -> usize {
        self.code.len()
    }

    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    pub fn tok(&self, ci: usize) -> &Token {
        &self.file.tokens[self.code[ci]]
    }

    pub fn text(&self, ci: usize) -> &str {
        self.tok(ci).text(&self.file.src)
    }

    pub fn kind(&self, ci: usize) -> TokenKind {
        self.tok(ci).kind
    }

    /// Is the non-trivia token at `ci` exactly `Punct(p)`?
    pub fn is_punct(&self, ci: usize, p: &str) -> bool {
        ci < self.len() && self.kind(ci) == TokenKind::Punct && self.text(ci) == p
    }

    /// Is the non-trivia token at `ci` exactly `Ident(name)`?
    pub fn is_ident(&self, ci: usize, name: &str) -> bool {
        ci < self.len() && self.kind(ci) == TokenKind::Ident && self.text(ci) == name
    }

    /// Build a diagnostic pointing at token `ci`.
    pub fn diag(&self, rule: &'static str, ci: usize, message: String) -> Diagnostic {
        let (line, col) = self.file.line_col(self.tok(ci).start);
        Diagnostic {
            rule,
            path: self.file.path.clone(),
            line,
            col,
            message,
        }
    }

    /// Code-token indices whose span starts inside `range`.
    pub fn in_range(&self, range: &std::ops::Range<usize>) -> Vec<usize> {
        (0..self.len())
            .filter(|&ci| range.contains(&self.tok(ci).start))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_match_table() {
        let mut from_table: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        from_table.push(SUPPRESSION_HYGIENE);
        assert_eq!(RULE_NAMES, from_table.as_slice());
        for spec in RULES {
            assert_eq!(spec.rule().name(), spec.name, "constructor/name drift");
        }
    }

    #[test]
    fn scoping_comes_from_the_table() {
        let spec = |n: &str| RULES.iter().find(|r| r.name == n).unwrap();
        // The analyzer itself is globally excluded.
        for r in RULES {
            assert!(!r.applies_to("crates/lint/src/engine.rs"));
            assert!(!r.applies_to("crates/lint/fixtures/wire-magic-registry/fires.rs"));
        }
        // Path-confined rules.
        assert!(spec("no-unwrap-on-comm-path").applies_to("crates/comm/src/group.rs"));
        assert!(!spec("no-unwrap-on-comm-path").applies_to("crates/tensor/src/lib.rs"));
        assert!(spec("collective-order").applies_to("crates/kfac/src/distributed.rs"));
        assert!(!spec("collective-order").applies_to("crates/ctrl/src/controller.rs"));
        // The oracle module is carved out of float-reduction-order only.
        assert!(!spec("float-reduction-order").applies_to("crates/tensor/src/reduce.rs"));
        assert!(spec("float-reduction-order").applies_to("crates/tensor/src/dense.rs"));
        assert!(spec("deterministic-state").applies_to("crates/tensor/src/reduce.rs"));
    }

    #[test]
    fn critical_root_matching() {
        assert!(is_critical_root("crates/ctrl/src/controller.rs", "observe"));
        assert!(!is_critical_root("crates/obs/src/recorder.rs", "observe"));
        assert!(is_critical_root(
            "crates/kfac/src/distributed.rs",
            "step_elastic"
        ));
        assert!(is_critical_root("crates/ckpt/src/lib.rs", "restore_local"));
        assert!(is_critical_root("crates/comm/src/wire.rs", "encode_view"));
        assert!(!is_critical_root(
            "crates/kfac/src/distributed.rs",
            "helper"
        ));
    }

    #[test]
    fn allowlist_is_audited() {
        for (name, reason) in DETERMINISM_ALLOWLIST {
            assert!(
                !reason.is_empty(),
                "allowlist entry `{name}` needs a reason"
            );
        }
        assert!(determinism_allow("recv_arq_inner").is_some());
        assert!(determinism_allow("observe").is_none());
    }
}
