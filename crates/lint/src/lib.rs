//! **compso-lint** — in-repo static analysis for the COMPSO workspace.
//!
//! Clippy cannot express this project's invariants: which byte values
//! are wire magics, which crates form the fallible comm path, which
//! string literals are obs counter names, which functions must stay
//! deterministic, and which calls synchronize every rank. This crate is
//! a std-only analyzer (no `syn`, no registry deps — the build
//! environment is offline) built from these layers:
//!
//! - [`lexer`] — a real Rust lexer whose token spans exactly tile every
//!   input file (property-tested over the whole workspace);
//! - [`source`] — per-file context: line table, prod-vs-`#[cfg(test)]`
//!   classification, `lint:allow` suppressions, a function map;
//! - [`callgraph`] — the workspace symbol table + call graph: per-fn
//!   summaries (callees, impurity sources, collectives, length
//!   sources) and a fixpoint solver for transitive facts;
//! - [`rules`] — the rule catalogue as declarative tables (match
//!   patterns, path scopes — see `DESIGN.md` §11);
//! - [`engine`] + [`walker`] — diagnostics, the registry context,
//!   suppression hygiene, and deterministic file discovery.
//!
//! Every run is one cold pass ([`check_workspace`]): lex each file,
//! summarize it, solve the call graph once, run the rule table. The
//! binary (`cargo run -p compso-lint`) does that over the workspace and
//! in `--deny` mode exits non-zero on any finding — wired into
//! `scripts/ci.sh`. Fixture corpora under `fixtures/` pin each rule's
//! firing, clean, and suppressed behavior via golden diagnostics.

pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod walker;

pub use engine::{check_file, check_files, to_json, Context, Diagnostic};
pub use source::SourceFile;

use std::path::Path;

/// Is `rel_path` (workspace-relative, `/`-separated) subject to rule
/// runs at all? Driven by the rule table's
/// [`rules::GLOBAL_EXCLUDE`] — the analyzer itself is the one excluded
/// subtree (its rule tables spell out the byte ranges and name shapes
/// they hunt for, and its fixtures contain deliberate violations). The
/// lexer tiling property still covers excluded files.
pub fn rules_apply_to(rel_path: &str) -> bool {
    !rules::GLOBAL_EXCLUDE
        .iter()
        .any(|p| rel_path.starts_with(p))
}

/// Load and check the whole workspace rooted at `root`. Returns sorted
/// diagnostics; IO failures surface as `Err`.
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for path in walker::collect_files(root, false) {
        let rel = walker::rel_path(root, &path);
        if !rules_apply_to(&rel) {
            continue;
        }
        let src = std::fs::read_to_string(&path)?;
        files.push(SourceFile::new(rel, src));
    }
    Ok(check_files(&files, &Context::from_workspace(root)?))
}
