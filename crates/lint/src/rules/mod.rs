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
use crate::source::SourceFile;
pub use crate::source::View;

mod collective_order;
mod counter_registry;
mod deterministic_state;
mod hashmap_iter;
mod instance_selection;
pub mod length_prefix;
mod reachable_pub;
mod wire_magic;

pub use collective_order::CollectiveOrder;
pub use counter_registry::CounterRegistry;
pub use deterministic_state::DeterministicState;
pub use hashmap_iter::NondeterministicWireIteration;
pub use instance_selection::InstanceSelection;
pub use length_prefix::UncheckedLengthPrefix;
pub use reachable_pub::ReachablePub;
pub use wire_magic::WireMagicRegistry;

pub(crate) use counter_registry::{registry_entries, unread_names};
pub(crate) use hashmap_iter::{hashmap_idents, in_for_header, is_iter_call};
pub(crate) use reachable_pub::outside_names;

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
        name: "reachable-pub",
        // Only library crates' `src/` has items to check (`library_of`);
        // every other file is a reader.
        include: &[],
        exclude: &[],
        make: || Box::new(ReachablePub),
    },
    RuleSpec {
        name: "instance-selection",
        include: &[],
        exclude: &[],
        make: || Box::new(InstanceSelection),
    },
];

/// Rule names valid in `lint:allow(...)`: the table's, then the hygiene
/// rule's.
pub fn rule_names() -> impl Iterator<Item = &'static str> {
    RULES.iter().map(|r| r.name).chain([SUPPRESSION_HYGIENE])
}

/// The workspace's collective-call vocabulary: a call to any of these
/// names is a synchronization point every rank must reach in the same
/// order (`crates/comm/src/collectives.rs` + `CommGroup`).
pub const COLLECTIVES: &[&str] = &[
    "allreduce_sum",
    "allreduce_mean",
    "reduce_scatter_sum",
    "reduce_scatter_pieced",
    "allgather",
    "allgather_var",
    "allgather_var_quiet",
    "pipelined_allgather",
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

/// compso-comm's one reader of time: `deterministic-state` fires on a
/// time read anywhere else in `crates/comm/src/`.
pub const CLOCK_MODULE: &str = "crates/comm/src/clock.rs";

/// Audited allowlist for `deterministic-state`, keyed by (defining file,
/// fn name): the functions where a wall-clock read is *legitimate*.
/// compso-comm reads time in exactly one place, its transport
/// `Clock::now` (deadlines, NACK backoff, the modeled wire's pacing), and
/// observability times spans; both decide *when* bytes move or how long
/// something took, never *which* bytes move, so replicas stay
/// bit-identical. The call-graph solver pins their impurity to zero and
/// root cones stop at them: an entry here audits the entire subtree
/// behind the function. A same-named function in any other file is not
/// covered, and the name-keyed graph node it merges into loses the
/// exemption.
pub const DETERMINISM_ALLOWLIST: &[(&str, &str, &str)] = &[
    (
        CLOCK_MODULE,
        "now",
        "the transport clock's one time read; deadlines, backoff and modeled-wire pacing move when bytes arrive, never which",
    ),
    (
        "crates/obs/src/lib.rs",
        "span",
        "wall-time observability span; the elapsed duration lands in timer counters and never feeds the value path",
    ),
];

/// Allowlist lookup: `Some(audit reason)` when `fn_name` defined in
/// `path` is covered.
pub fn determinism_allow(path: &str, fn_name: &str) -> Option<&'static str> {
    DETERMINISM_ALLOWLIST
        .iter()
        .find(|(p, n, _)| *p == path && *n == fn_name)
        .map(|(_, _, reason)| *reason)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_constructor_carries_its_table_name() {
        for spec in RULES {
            assert_eq!(spec.rule().name(), spec.name, "constructor/name drift");
        }
        assert_eq!(rule_names().last(), Some(SUPPRESSION_HYGIENE));
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
        assert!(spec("collective-order").applies_to("crates/comm/src/group.rs"));
        assert!(!spec("collective-order").applies_to("crates/tensor/src/lib.rs"));
        assert!(spec("collective-order").applies_to("crates/kfac/src/distributed.rs"));
        assert!(!spec("collective-order").applies_to("crates/ctrl/src/controller.rs"));
    }

    #[test]
    fn critical_root_matching() {
        assert!(is_critical_root("crates/ctrl/src/controller.rs", "observe"));
        assert!(!is_critical_root("crates/obs/src/recorder.rs", "observe"));
        assert!(is_critical_root(
            "crates/kfac/src/distributed.rs",
            "step_elastic"
        ));
        assert!(is_critical_root("crates/kfac/src/checkpoint.rs", "restore"));
        // A rejoin's catch-up shard is built and parsed under a root name.
        assert!(is_critical_root(
            "crates/kfac/src/checkpoint.rs",
            "encode_catch_up_shard"
        ));
        assert!(is_critical_root(
            "crates/kfac/src/checkpoint.rs",
            "decode_catch_up_shards"
        ));
        assert!(is_critical_root("crates/comm/src/wire.rs", "encode_view"));
        assert!(!is_critical_root(
            "crates/kfac/src/distributed.rs",
            "helper"
        ));
    }

    #[test]
    fn allowlist_is_audited() {
        for (path, name, reason) in DETERMINISM_ALLOWLIST {
            assert!(
                !reason.is_empty(),
                "allowlist entry `{path}::{name}` needs a reason"
            );
        }
        assert!(determinism_allow(CLOCK_MODULE, "now").is_some());
        assert!(determinism_allow("crates/obs/src/lib.rs", "span").is_some());
        assert!(determinism_allow("crates/kfac/src/doctored.rs", "now").is_none());
        assert!(determinism_allow("crates/comm/src/clock.rs", "span").is_none());
        assert!(determinism_allow(CLOCK_MODULE, "recv_arq").is_none());
    }
}
