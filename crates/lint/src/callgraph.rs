//! Workspace call-graph engine: per-function summaries and a transitive
//! fact solver.
//!
//! This generalizes PR 8's ad-hoc length-source pre-pass into the shared
//! substrate the v3 rules stand on. Pass 1 walks every production
//! function and records a [`FnSummary`]: the set of callee names it
//! mentions (`ident (` pairs — method calls and free calls look the same
//! at token level), which *impurity sources* it touches directly
//! (wall-clock reads, RNG, `HashMap` iteration), whether it names a
//! collective, and whether it is a length-source (PR 8's definition).
//! Pass 2 ([`solve`]) merges the summaries into a name-keyed graph and
//! runs a monotone fixpoint:
//!
//! - `impure`: a bitmask of [`CLOCK`]/[`RNG`]/[`MAP_ITER`], OR-folded
//!   over callees — except through *allowlisted* functions (audited
//!   transport deadlines/backoff, see
//!   [`crate::rules::determinism_allow`]), whose impurity is pinned to
//!   zero so it never propagates to callers;
//! - `collective`: does the function, directly or transitively, issue a
//!   collective call ([`crate::rules::COLLECTIVES`]);
//! - `roots`: which *determinism-critical* functions
//!   ([`crate::rules::CRITICAL_ROOTS`] — controller observe/decide, wire
//!   codecs, checkpoint snapshot/restore, `DistKfac::step*`) reach this
//!   function. The root cone is a forward BFS over call edges that never
//!   enters an allowlisted node: an audited allow covers the whole
//!   subtree behind it.
//!
//! The graph is **name-keyed**: two functions with the same name merge
//! into one node (callees unioned, flags OR-ed). That over-approximates
//! — a trait has many impls, `step` exists on three optimizers — which
//! is the sound direction for every consumer: more reachability can only
//! add findings, never hide one, and audited `lint:allow` carries the
//! precision back. Test code never contributes summaries.

use crate::engine::Context;
use crate::rules::{determinism_allow, is_critical_root, View, COLLECTIVES};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Impurity kind: reads the wall clock (`Instant::now`, `SystemTime`).
pub const CLOCK: u8 = 1;
/// Impurity kind: nondeterministic randomness (`thread_rng`, `OsRng`…).
pub const RNG: u8 = 2;
/// Impurity kind: iterates a `HashMap` (order is per-process random).
pub const MAP_ITER: u8 = 4;

/// Human name for the lowest set impurity bit (diagnostics).
pub fn impurity_name(mask: u8) -> &'static str {
    if mask & CLOCK != 0 {
        "wall-clock read"
    } else if mask & RNG != 0 {
        "nondeterministic RNG"
    } else if mask & MAP_ITER != 0 {
        "HashMap iteration order"
    } else {
        "impurity"
    }
}

/// One production function's direct facts, before propagation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSummary {
    pub name: String,
    /// Names this function mentions in call position (`ident (`).
    pub callees: BTreeSet<String>,
    /// Direct impurity sources in the body (CLOCK | RNG | MAP_ITER).
    pub direct_impure: u8,
    /// PR 8 length-source: returns an unclamped wire-read length.
    pub length_source: bool,
}

/// All summaries from one file, tagged with its workspace path (root
/// matching is `(defining path, fn name)`-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSummaries {
    pub path: String,
    pub fns: Vec<FnSummary>,
}

/// Transitive facts for one function name after [`solve`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnFacts {
    /// Reachable impurity kinds (cut at allowlisted functions).
    pub impure: u8,
    /// Issues a collective, directly or transitively.
    pub collective: bool,
    /// Length-source (any definition under this name).
    pub length_source: bool,
    /// Determinism-critical roots whose call cone contains this fn.
    pub roots: BTreeSet<String>,
}

/// One direct impurity site in a file: `(code-token index, kind)`.
pub struct ImpuritySite {
    pub ci: usize,
    pub kind: u8,
}

/// Identifiers that mark nondeterministic randomness at token level.
const RNG_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// Keyword-ish identifiers never treated as callee names even when
/// followed by `(` (control flow, bindings, common enum constructors).
const NOT_CALLEES: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "fn", "let", "mut", "move",
    "else", "impl", "where", "use", "pub", "mod", "dyn", "ref", "break", "continue", "await",
    "unsafe", "Some", "None", "Ok", "Err", "Self", "self",
];

/// Direct impurity sites in a file's production code, in token order.
///
/// - `Instant :: now` / `SystemTime :: now` → [`CLOCK`] (at the type
///   ident, so the diagnostic points at the read);
/// - an RNG identifier ([`RNG_IDENTS`]) → [`RNG`];
/// - an iteration call or `for`-header use of a `HashMap`-typed
///   identifier → [`MAP_ITER`] (same detection the
///   `nondeterministic-wire-iteration` rule uses, but in any function).
pub fn impurity_sites(v: &View) -> Vec<ImpuritySite> {
    let mut out = Vec::new();
    let maps = crate::rules::hashmap_idents(v);
    let all: Vec<usize> = (0..v.len()).collect();
    for ci in 0..v.len() {
        if v.file.in_test(v.tok(ci).start) {
            continue;
        }
        let text = v.text(ci);
        if (text == "Instant" || text == "SystemTime")
            && v.is_punct(ci + 1, ":")
            && v.is_punct(ci + 2, ":")
            && v.is_ident(ci + 3, "now")
        {
            out.push(ImpuritySite { ci, kind: CLOCK });
        } else if RNG_IDENTS.contains(&text) {
            out.push(ImpuritySite { ci, kind: RNG });
        } else if maps.contains(text)
            && (crate::rules::is_iter_call(v, &all, ci) || crate::rules::in_for_header(v, &all, ci))
        {
            out.push(ImpuritySite { ci, kind: MAP_ITER });
        }
    }
    out
}

/// Pass 1: summarize every production function in `file`.
///
/// Tokens are attributed to the innermost enclosing function; a call to
/// a nested fn from its parent still yields the edge (the call site sits
/// in the parent's body but outside the nested body).
pub fn summarize(file: &SourceFile) -> FileSummaries {
    let v = View::new(file);
    // One summary slot per FnSpan, keyed by span identity (duplicates
    // by name merge later, in solve).
    let mut fns: Vec<FnSummary> = file
        .fns
        .iter()
        .map(|f| FnSummary {
            name: f.name.clone(),
            callees: BTreeSet::new(),
            direct_impure: 0,
            length_source: false,
        })
        .collect();
    let slot_of = |byte: usize| -> Option<usize> {
        // Innermost enclosing fn, as an index into `file.fns`.
        file.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.body.contains(&byte))
            .min_by_key(|(_, f)| f.body.len())
            .map(|(i, _)| i)
    };

    // Callee edges: `ident (` pairs in prod code, minus keywords and
    // definition sites (`fn name(`).
    for ci in 0..v.len().saturating_sub(1) {
        if !v.is_punct(ci + 1, "(") {
            continue;
        }
        let t = v.tok(ci);
        if t.kind != crate::lexer::TokenKind::Ident {
            continue;
        }
        let name = v.text(ci);
        if NOT_CALLEES.contains(&name) {
            continue;
        }
        if ci > 0 && v.is_ident(ci - 1, "fn") {
            continue;
        }
        if file.in_test(t.start) {
            continue;
        }
        if let Some(slot) = slot_of(t.start) {
            fns[slot].callees.insert(name.to_string());
        }
    }

    for site in impurity_sites(&v) {
        if let Some(slot) = slot_of(v.tok(site.ci).start) {
            fns[slot].direct_impure |= site.kind;
        }
    }

    let sources = crate::rules::length_prefix::collect_length_sources(file);
    for f in &mut fns {
        if sources.iter().any(|s| s == &f.name) {
            f.length_source = true;
        }
    }

    // Drop test fns (no body tokens contributed anyway, but their empty
    // summaries would still merge into the graph under their name).
    let keep: Vec<bool> = file.fns.iter().map(|f| !file.in_test(f.kw_start)).collect();
    let fns = fns
        .into_iter()
        .zip(keep)
        .filter_map(|(s, k)| k.then_some(s))
        .collect();
    FileSummaries {
        path: file.path.clone(),
        fns,
    }
}

/// Pass 2: merge summaries into the name-keyed graph and run the
/// fixpoint. See the module docs for the propagation rules.
///
/// Names are interned to dense ids up front so the fixpoint and root
/// BFS walk integer edges over flat arrays instead of hashing strings
/// on every edge of every round.
pub fn solve(files: &[FileSummaries]) -> BTreeMap<String, FnFacts> {
    let mut ids: BTreeMap<&str, usize> = BTreeMap::new();
    for f in files.iter().flat_map(|fs| &fs.fns) {
        let next = ids.len();
        ids.entry(f.name.as_str()).or_insert(next);
    }
    let n = ids.len();
    let mut names: Vec<&str> = vec![""; n];
    let mut impure = vec![0u8; n];
    let mut collective = vec![false; n];
    let mut length_source = vec![false; n];
    // A name is allowed only if every definition of it is allowlisted at
    // its own path (cleared below by any other definition).
    let mut allowed = vec![true; n];
    let mut root = vec![false; n];
    let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (name, &i) in &ids {
        names[i] = name;
    }
    for fs in files {
        for f in &fs.fns {
            let i = ids[f.name.as_str()];
            allowed[i] &= determinism_allow(&fs.path, &f.name).is_some();
            impure[i] |= f.direct_impure;
            length_source[i] |= f.length_source;
            collective[i] |= COLLECTIVES.contains(&f.name.as_str())
                || f.callees.iter().any(|c| COLLECTIVES.contains(&c.as_str()));
            root[i] |= is_critical_root(&fs.path, &f.name);
            // Edges to undefined names carry no facts; drop them here.
            callees[i].extend(f.callees.iter().filter_map(|c| ids.get(c.as_str())));
        }
    }
    for es in &mut callees {
        es.sort_unstable();
        es.dedup();
    }
    // Allowlisted nodes: impurity pinned to zero (the audit covers
    // whatever they reach). Collectives still propagate through them.
    for i in 0..n {
        if allowed[i] {
            impure[i] = 0;
        }
    }

    // Monotone fixpoint over (impure, collective).
    loop {
        let mut changed = false;
        for i in 0..n {
            let mut im = impure[i];
            let mut co = collective[i];
            for &j in &callees[i] {
                if !allowed[i] {
                    im |= impure[j];
                }
                co |= collective[j];
            }
            if (im, co) != (impure[i], collective[i]) {
                impure[i] = im;
                collective[i] = co;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Root cones: forward BFS from each critical root, not entering
    // allowlisted nodes.
    let mut roots_of: Vec<Vec<usize>> = vec![Vec::new(); n];
    for r in 0..n {
        if !root[r] {
            continue;
        }
        let mut queue = VecDeque::from([r]);
        let mut seen = vec![false; n];
        seen[r] = true;
        while let Some(at) = queue.pop_front() {
            roots_of[at].push(r);
            for &j in &callees[at] {
                if allowed[j] || seen[j] {
                    continue;
                }
                seen[j] = true;
                queue.push_back(j);
            }
        }
    }

    ids.iter()
        .map(|(name, &i)| {
            (
                name.to_string(),
                FnFacts {
                    impure: impure[i],
                    collective: collective[i],
                    length_source: length_source[i],
                    roots: roots_of[i].iter().map(|&r| names[r].to_string()).collect(),
                },
            )
        })
        .collect()
}

/// Rule-side view over facts: the file's own local solve unioned with
/// the workspace-wide solve from the engine [`Context`]. Single-file
/// entry points (fixtures, direct `check_file`) still get intra-file
/// transitivity; workspace runs see the full graph.
pub struct Facts<'a> {
    local: BTreeMap<String, FnFacts>,
    global: &'a BTreeMap<String, FnFacts>,
}

impl Facts<'_> {
    /// Union of the local and global facts for `name`.
    pub fn get(&self, name: &str) -> FnFacts {
        let mut out = self.local.get(name).cloned().unwrap_or_default();
        if let Some(g) = self.global.get(name) {
            out.impure |= g.impure;
            out.collective |= g.collective;
            out.length_source |= g.length_source;
            out.roots.extend(g.roots.iter().cloned());
        }
        out
    }

    pub fn collective(&self, name: &str) -> bool {
        self.local.get(name).is_some_and(|f| f.collective)
            || self.global.get(name).is_some_and(|f| f.collective)
    }
}

/// Build the merged facts view for one file under `ctx`.
pub fn file_facts<'a>(file: &SourceFile, ctx: &'a Context) -> Facts<'a> {
    Facts {
        local: solve(&[summarize(file)]),
        global: &ctx.facts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(path: &str, src: &str) -> SourceFile {
        SourceFile::new(path.into(), src.into())
    }

    #[test]
    fn direct_and_transitive_impurity() {
        let f = sf(
            "crates/comm/src/x.rs",
            "fn leaf() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n\
             fn mid() -> u64 { leaf() }\n\
             fn top() -> u64 { mid() + 1 }\n\
             fn pure(x: u64) -> u64 { x + 1 }\n",
        );
        let facts = solve(&[summarize(&f)]);
        assert_eq!(facts["leaf"].impure, CLOCK);
        assert_eq!(facts["mid"].impure, CLOCK);
        assert_eq!(facts["top"].impure, CLOCK);
        assert_eq!(facts["pure"].impure, 0);
    }

    #[test]
    fn collectives_propagate_and_roots_cone() {
        let f = sf(
            "crates/kfac/src/distributed.rs",
            "fn step(c: &C) -> Result<(), E> { sync(c) }\n\
             fn sync(c: &C) -> Result<(), E> { c.allreduce_sum(&mut [0.0]) }\n\
             fn unrelated() {}\n",
        );
        let facts = solve(&[summarize(&f)]);
        assert!(facts["sync"].collective);
        assert!(facts["step"].collective);
        assert!(!facts["unrelated"].collective);
        // `step` in crates/kfac is a critical root; its cone covers sync.
        assert!(facts["step"].roots.contains("step"));
        assert!(facts["sync"].roots.contains("step"));
        assert!(facts["unrelated"].roots.is_empty());
    }

    #[test]
    fn allowlist_cuts_impurity_and_root_cone() {
        // `now` in the clock module (the transport clock's entry point) is
        // on the audited allowlist: its clock read must not leak to
        // callers, and root cones stop at it.
        let step = sf(
            "crates/kfac/src/distributed.rs",
            "fn step(c: &C) -> Result<(), E> { now(c) }\n\
             fn clocky(c: &C) -> Result<(), E> { let t = Instant::now(); c.go(t) }\n",
        );
        let clock = |path: &str| sf(path, "fn now(c: &C) -> Result<(), E> { clocky(c) }\n");
        let facts = solve(&[
            summarize(&step),
            summarize(&clock(crate::rules::CLOCK_MODULE)),
        ]);
        assert_eq!(facts["clocky"].impure, CLOCK);
        assert_eq!(facts["now"].impure, 0, "allow pins impurity");
        assert_eq!(facts["step"].impure, 0, "allow cuts propagation");
        assert!(facts["step"].roots.contains("step"));
        assert!(
            !facts["clocky"].roots.contains("step"),
            "root cone must not pass through an allowlisted node"
        );
        // The same `now` defined anywhere else is no one's audit, and a
        // second definition beside the audited one un-allows the merged
        // node.
        for files in [
            vec![
                summarize(&step),
                summarize(&clock("crates/kfac/src/doctored.rs")),
            ],
            vec![
                summarize(&step),
                summarize(&clock(crate::rules::CLOCK_MODULE)),
                summarize(&clock("crates/kfac/src/doctored.rs")),
            ],
        ] {
            let facts = solve(&files);
            assert_eq!(facts["step"].impure, CLOCK);
            assert!(facts["clocky"].roots.contains("step"));
        }
    }

    #[test]
    fn cross_file_edges_resolve_in_one_solve() {
        let a = sf(
            "crates/ctrl/src/controller.rs",
            "pub fn observe(&mut self) -> Decision { helper() }\n",
        );
        let b = sf(
            "crates/ctrl/src/util.rs",
            "pub fn helper() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
        );
        let facts = solve(&[summarize(&a), summarize(&b)]);
        assert_eq!(facts["observe"].impure, CLOCK);
        assert!(facts["helper"].roots.contains("observe"));
    }

    #[test]
    fn test_code_contributes_nothing() {
        let f = sf(
            "crates/comm/src/x.rs",
            "fn prod() {}\n\
             #[cfg(test)]\nmod tests {\n    fn t() { let r = thread_rng(); prod(); }\n}\n",
        );
        let s = summarize(&f);
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].name, "prod");
        let facts = solve(&[s]);
        assert!(!facts.contains_key("t"));
        assert_eq!(facts["prod"].impure, 0);
    }

    #[test]
    fn hashmap_iteration_is_an_impurity_source() {
        let f = sf(
            "crates/ckpt/src/x.rs",
            "fn snapshot(m: HashMap<u32, u32>) -> Vec<u8> {\n\
                 let mut out = Vec::new();\n\
                 for (k, v) in m.iter() { out.push(*k as u8); }\n\
                 out\n}\n",
        );
        let facts = solve(&[summarize(&f)]);
        assert_eq!(facts["snapshot"].impure & MAP_ITER, MAP_ITER);
    }
}
