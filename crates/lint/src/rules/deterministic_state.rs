//! `deterministic-state`: no impurity source may be reachable from a
//! determinism-critical function.
//!
//! The controller (`Controller::observe`/`decide`), the wire codecs,
//! checkpoint snapshot/restore, and `DistKfac::step*` must be pure
//! functions of (config, seed, inputs): every rank replays the same
//! decisions and bytes *without consensus* — that is what the 1/2/4-rank
//! bit-identity tests pin after the fact, and what this rule proves
//! statically. An `Instant::now()` in a helper three calls below
//! `observe` breaks replicas just as surely as one in `observe` itself.
//!
//! The rule fires **at the impurity site** (the clock read, the RNG
//! call, the HashMap iteration), naming the critical root whose call
//! cone reaches it — so a legitimate site can carry an inline
//! `lint:allow(deterministic-state): reason` right where the claim is
//! made. Reachability comes from the workspace call graph
//! ([`crate::callgraph`]); transport deadline/backoff functions on the
//! audited [`super::DETERMINISM_ALLOWLIST`] are exempt and cut the cone
//! for everything behind them.

use super::{determinism_allow, Rule, View};
use crate::callgraph::{file_facts, impurity_name, impurity_sites};
use crate::engine::{Context, Diagnostic};
use crate::source::SourceFile;

pub struct DeterministicState;

const NAME: &str = "deterministic-state";

impl Rule for DeterministicState {
    fn name(&self) -> &'static str {
        NAME
    }

    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Diagnostic>) {
        let v = View::new(file);
        let sites = impurity_sites(&v);
        if sites.is_empty() {
            return;
        }
        let facts = file_facts(file, ctx);
        for site in sites {
            let at = v.tok(site.ci).start;
            let Some(f) = file.enclosing_fn(at) else {
                continue; // impurity in const/static init: out of scope
            };
            if determinism_allow(&f.name).is_some() {
                continue;
            }
            let roots = facts.get(&f.name).roots;
            let Some(root) = roots.iter().next() else {
                continue; // not reachable from any critical root
            };
            out.push(v.diag(
                NAME,
                site.ci,
                format!(
                    "{} in `{}`, which is reachable from determinism-critical \
                     `{root}`{}; replicas must compute identical state — hoist the \
                     impurity out of the cone or annotate lint:allow({NAME}): <why \
                     this cannot diverge replicas>",
                    impurity_name(site.kind),
                    f.name,
                    if roots.len() > 1 {
                        format!(" (+{} more roots)", roots.len() - 1)
                    } else {
                        String::new()
                    },
                ),
            ));
        }
    }
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
    fn clock_in_root_cone_fires_at_the_site() {
        let out = diags(
            "crates/ctrl/src/controller.rs",
            "pub fn observe(&mut self, s: &Signals) -> Decision {\n\
                 let jitter = helper();\n    pick(s, jitter)\n}\n\
             fn helper() -> u64 {\n\
                 Instant::now().elapsed().as_nanos() as u64\n}\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 6, "fires at the clock read, not the root");
        assert!(out[0].message.contains("`observe`"));
        assert!(out[0].message.contains("wall-clock read"));
    }

    #[test]
    fn impurity_outside_any_cone_is_clean() {
        let out = diags(
            "crates/bench/src/lib.rs",
            "pub fn measure() -> u64 {\n\
                 Instant::now().elapsed().as_nanos() as u64\n}\n",
        );
        assert!(out.is_empty(), "bench timing is no one's root: {out:?}");
    }

    #[test]
    fn allowlisted_fn_is_exempt() {
        // `encode_stamp` is a determinism-critical root (a comm codec)
        // whose cone reaches the clock read: exempt only because `now` is
        // the audited clock entry point.
        let src = "pub(crate) fn now(&self) -> Instant {\n    Instant::now()\n}\n\
                   pub fn encode_stamp(&self) -> Vec<u8> { stamp(self.now()) }\n";
        let out = diags("crates/comm/src/clock.rs", src);
        assert!(out.is_empty(), "audited transport clock: {out:?}");
        let renamed = src
            .replace("fn now", "fn read_wall")
            .replace("self.now()", "self.read_wall()");
        assert_eq!(
            diags("crates/comm/src/clock.rs", &renamed).len(),
            1,
            "the same read outside the clock's entry point fires"
        );
    }
}
