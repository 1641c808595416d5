//! `no-unwrap-on-comm-path`: no `.unwrap()` / `.expect(…)` in the
//! fallible communication stack.
//!
//! PR 3 made the comm stack fallible end to end: collectives return
//! `Result<_, CommError>` and the distributed K-FAC step threads those
//! errors up instead of tearing the process down. A stray `unwrap` in
//! that path silently converts a recoverable peer failure back into a
//! whole-rank panic — exactly the regression class this rule pins.
//!
//! Scope:
//! - **`crates/comm/src/`**: all production code. The comm crate *is*
//!   the fallible path.
//! - **`crates/kfac/src/`**: production code inside functions whose
//!   signature mentions `Result` (the analyzer's definition of the
//!   fallible K-FAC path — `DistKfac::step`, checkpoint restore, …).
//!   Infallible single-process helpers (`Kfac::step`) have no error
//!   channel to convert into and stay out of scope.
//!
//! Provably-infallible cases stay, but must carry an explicit
//! `// lint:allow(no-unwrap-on-comm-path): reason` so the proof is
//! written next to the claim.

use super::{Rule, View};
use crate::engine::{Context, Diagnostic};
use crate::source::SourceFile;

pub struct NoUnwrapOnCommPath;

const NAME: &str = "no-unwrap-on-comm-path";

impl Rule for NoUnwrapOnCommPath {
    fn name(&self) -> &'static str {
        NAME
    }

    fn check(&self, file: &SourceFile, _ctx: &Context, out: &mut Vec<Diagnostic>) {
        // Path scope (comm + kfac) comes from the rule table; what stays
        // here is the *behavioral* refinement: kfac is only in scope
        // inside fallible (Result-signature) functions.
        let kfac = file.path.starts_with("crates/kfac/src/");
        let v = View::new(file);
        for ci in 1..v.len() {
            let method = v.text(ci);
            if !(method == "unwrap" || method == "expect") {
                continue;
            }
            if !v.is_punct(ci - 1, ".") || !v.is_punct(ci + 1, "(") {
                continue;
            }
            let at = v.tok(ci).start;
            if file.in_test(at) {
                continue;
            }
            if kfac {
                // Only inside fallible functions.
                let fallible = file.enclosing_fn(at).is_some_and(|f| f.returns_result);
                if !fallible {
                    continue;
                }
            }
            out.push(v.diag(
                NAME,
                ci,
                format!(
                    ".{method}() on the fallible path; return CommError \
                     (poisoned mutex => CommError::Poisoned) or annotate \
                     lint:allow({NAME}): <proof>"
                ),
            ));
        }
    }
}
