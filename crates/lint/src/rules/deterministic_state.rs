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
//! ([`crate::callgraph`]); the functions on the audited
//! [`super::DETERMINISM_ALLOWLIST`], each named with its defining file,
//! are exempt and cut the cone for everything behind them.
//!
//! One clause needs no root: compso-comm reads time through its `Clock`
//! ([`super::CLOCK_MODULE`]) alone, so in `crates/comm/src/` a time read
//! anywhere else (`Instant::now`, `SystemTime::now`, `thread::sleep`, a
//! `recv_timeout(` wait) fires whether or not a root reaches it.

use super::{determinism_allow, Rule, View, CLOCK_MODULE};
use crate::callgraph::{file_facts, impurity_name, impurity_sites, CLOCK};
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
        let one_clock = file.path.starts_with("crates/comm/src/") && file.path != CLOCK_MODULE;
        let msg = format!("time read outside {CLOCK_MODULE}, compso-comm's one reader of time");
        for ci in (0..v.len()).filter(|&ci| one_clock && is_wait(&v, ci)) {
            out.push(v.diag(NAME, ci, msg.clone()));
        }
        let sites = impurity_sites(&v);
        if sites.is_empty() {
            return;
        }
        let facts = file_facts(file, ctx);
        for site in sites {
            if one_clock && site.kind == CLOCK {
                out.push(v.diag(NAME, site.ci, msg.clone()));
                continue;
            }
            let at = v.tok(site.ci).start;
            let Some(f) = file.enclosing_fn(at) else {
                continue; // impurity in const/static init: out of scope
            };
            if determinism_allow(&file.path, &f.name).is_some() {
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

/// Is the production token at `ci` a timed wait, `thread::sleep` or a
/// `recv_timeout(` call? (The clock reads are [`impurity_sites`]' `CLOCK`.)
fn is_wait(v: &View, ci: usize) -> bool {
    let sleep = v.is_ident(ci, "thread") && v.is_punct(ci + 1, ":") && v.is_ident(ci + 3, "sleep");
    (sleep || v.is_ident(ci, "recv_timeout") && v.is_punct(ci + 1, "("))
        && !v.file.in_test(v.tok(ci).start)
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
        // The allowlist names a file as well as a function: a `now` helper
        // anywhere else is no one's audit.
        let out = diags(
            "crates/kfac/src/doctored.rs",
            "pub fn step_probe() -> u64 { now() }\n\
             fn now() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("in `now`"), "{out:?}");
    }

    #[test]
    fn comm_reads_time_only_in_its_clock() {
        // No critical root reaches `poll`: the one-clock clause fires on
        // every time read in compso-comm outside clock.rs all the same.
        let src = "fn poll(rx: &Receiver<u8>) {\n\
                   let t = Instant::now();\n\
                   std::thread::sleep(d);\n\
                   let _ = rx.recv_timeout(d);\n\
                   let _ = SystemTime::now();\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { let _ = Instant::now(); }\n}\n";
        let lines = |path: &str| {
            let mut lines: Vec<_> = diags(path, src).iter().map(|d| d.line).collect();
            lines.sort();
            lines
        };
        assert_eq!(lines("crates/comm/src/arq.rs"), [2, 3, 4, 5]);
        assert!(lines(CLOCK_MODULE).is_empty());
        assert!(lines("crates/kfac/src/poll.rs").is_empty());
    }
}
