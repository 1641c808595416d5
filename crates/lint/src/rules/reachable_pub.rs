//! `reachable-pub`: every `pub fn`, `pub const` and `pub static` of a
//! library crate is named outside that crate, or it loses `pub`.
//!
//! rustc's dead-code analysis stops at `pub`: an item another crate
//! *could* call is live, whether or not anything does. This rule closes
//! that gap by name. "Outside" a library crate (`crates/<c>/src/` or the
//! root `src/`) is any file that is not part of it: another crate's
//! source, a bin target (`src/main.rs`, `src/bin/`), `examples/`, root
//! `tests/`, `crates/*/tests/`, and `benchmark/src`, which is lexed as a
//! reader only. An item whose name none of them spells becomes
//! `pub(crate)` or private, and rustc's transitive `dead_code` then
//! reports whatever nothing reaches.
//!
//! The rule is keyed on names, as the call graph is: any identifier
//! token outside the crate that equals the item's name counts, so a
//! common name (`new`, `len`) is never flagged. Types are not checked;
//! a type returned by a kept function is reached through inference, and
//! rustc's `private_interfaces` already polices it. Items inside
//! `#[cfg(test)]` are test code and not checked either.
//!
//! The rule needs the workspace: [`outside_names`] is built once per run
//! by [`crate::check_workspace`] and carried in
//! [`Context::named_outside`]. A single-file check (no workspace) skips
//! it.

use super::{Rule, View};
use crate::engine::{Context, Diagnostic};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::collections::{BTreeSet, HashMap};

pub struct ReachablePub;

const NAME: &str = "reachable-pub";

/// Keywords that may sit between `pub` and `fn`.
const FN_QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];

impl Rule for ReachablePub {
    fn name(&self) -> &'static str {
        NAME
    }

    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Diagnostic>) {
        let (Some(named), Some(lib)) = (&ctx.named_outside, library_of(&file.path)) else {
            return;
        };
        let v = View::new(file);
        for (kind, name_ci) in checked_items(&v) {
            let name = v.text(name_ci);
            let reached = named
                .get(name)
                .is_some_and(|owners| owners.iter().any(|o| o != lib));
            if !reached {
                out.push(v.diag(
                    NAME,
                    name_ci,
                    format!(
                        "`pub {kind} {name}` is named nowhere outside {lib}; make it \
                         pub(crate) or private, and delete what rustc then reports unused"
                    ),
                ));
            }
        }
    }
}

/// Every item of `v`'s file the rule checks: each `pub` function,
/// constant or static outside `#[cfg(test)]`, as its kind and the token
/// of its name.
fn checked_items<'v>(v: &'v View) -> impl Iterator<Item = (&'static str, usize)> + 'v {
    (0..v.len())
        .filter(|&ci| v.is_ident(ci, "pub") && !v.file.in_test(v.tok(ci).start))
        .filter_map(|ci| pub_item(v, ci + 1))
}

/// The item a `pub` at token `ci - 1` introduces, when it is a function,
/// constant or static: its kind and the token of its name. `pub(crate)`
/// and friends start with `(` and are not public.
fn pub_item(v: &View, mut ci: usize) -> Option<(&'static str, usize)> {
    if let Some(kind) = ["const", "static"].into_iter().find(|k| v.is_ident(ci, k)) {
        let name = ci + 1 + usize::from(v.is_ident(ci + 1, "mut"));
        // `const fn` falls through to the function case.
        if v.is_punct(name + 1, ":") {
            return Some((kind, name));
        }
    }
    while ci < v.len() && FN_QUALIFIERS.contains(&v.text(ci)) {
        // `extern "C"` carries an ABI string.
        ci += 1 + usize::from(ci + 1 < v.len() && v.kind(ci + 1) == TokenKind::Str);
    }
    (v.is_ident(ci, "fn") && ci + 1 < v.len() && v.kind(ci + 1) == TokenKind::Ident)
        .then_some(("fn", ci + 1))
}

/// The library crate whose sources hold `path` — its `src/` prefix,
/// `crates/<c>/src/` or the root `src/` — or `None` for a file outside
/// every library crate: a bin target, a test, an example, the benchmark.
fn library_of(path: &str) -> Option<&str> {
    let lib = if path.starts_with("src/") {
        "src/"
    } else {
        let rest = path.strip_prefix("crates/")?;
        let end = "crates/".len() + rest.find('/')? + 1;
        path.get(..end + "src/".len())
            .filter(|p| p.ends_with("/src/"))?
    };
    let inner = &path[lib.len()..];
    (inner != "main.rs" && !inner.starts_with("bin/")).then_some(lib)
}

/// The name of every library `pub` item [`ReachablePub`] checks, with
/// the library crates (by [`library_of`]; `""` for none) whose files in
/// `files` spell it. Two passes: the items' names first, so the scan of
/// every identifier token allocates only on a new owner of one of them.
pub(crate) fn outside_names<'a>(
    files: impl IntoIterator<Item = &'a SourceFile> + Clone,
) -> HashMap<String, BTreeSet<String>> {
    let mut named: HashMap<String, BTreeSet<String>> = HashMap::new();
    for f in files.clone() {
        if library_of(&f.path).is_some() {
            let v = View::new(f);
            for (_, name_ci) in checked_items(&v) {
                named.entry(v.text(name_ci).to_string()).or_default();
            }
        }
    }
    for f in files {
        let owner = library_of(&f.path).unwrap_or_default();
        for tok in f.tokens.iter().filter(|t| t.kind == TokenKind::Ident) {
            match named.get_mut(tok.text(&f.src)) {
                Some(owners) if !owners.contains(owner) => {
                    owners.insert(owner.to_string());
                }
                _ => {}
            }
        }
    }
    named
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_crates_are_src_minus_bins() {
        assert_eq!(
            library_of("crates/comm/src/group.rs"),
            Some("crates/comm/src/")
        );
        assert_eq!(
            library_of("crates/bench/src/lib.rs"),
            Some("crates/bench/src/")
        );
        assert_eq!(library_of("src/lib.rs"), Some("src/"));
        for outside in [
            "crates/bench/src/bin/fig1.rs",
            "crates/lint/src/main.rs",
            "crates/lint/tests/fixtures.rs",
            "tests/chaos.rs",
            "examples/quickstart.rs",
            "benchmark/src/surface.rs",
            "crates/src",
        ] {
            assert_eq!(library_of(outside), None, "{outside}");
        }
    }

    #[test]
    fn items_are_functions_constants_and_statics() {
        let src = "pub fn a() {}\npub const fn b() {}\npub unsafe extern \"C\" fn c() {}\n\
                   pub const D: u8 = 0;\npub static mut E: u8 = 0;\npub(crate) fn f() {}\n\
                   pub struct G;\npub use x::h;\npub mod i {}\n";
        let f = SourceFile::new("crates/x/src/lib.rs".into(), src.into());
        let v = View::new(&f);
        let items: Vec<(&str, &str)> = (0..v.len())
            .filter(|&ci| v.is_ident(ci, "pub"))
            .filter_map(|ci| pub_item(&v, ci + 1))
            .map(|(kind, ci)| (kind, v.text(ci)))
            .collect();
        assert_eq!(
            items,
            [
                ("fn", "a"),
                ("fn", "b"),
                ("fn", "c"),
                ("const", "D"),
                ("static", "E")
            ]
        );
    }

    #[test]
    fn a_planted_workspace_fires_on_what_only_its_crate_names() {
        let lib = "pub fn unreached() {}\n\
                   pub fn named_in_crate() {}\n\
                   pub fn for_the_benchmark() {}\n\
                   pub fn for_a_root_test() {}\n\
                   pub fn for_a_bin() {}\n\
                   pub fn for_another_crate() {}\n\
                   pub const UNREACHED: u8 = 0;\n";
        let files = [
            ("crates/obs/src/names.rs", ""),
            ("crates/demo/src/lib.rs", lib),
            (
                "crates/demo/src/other.rs",
                "fn f() { crate::named_in_crate(); }\n",
            ),
            (
                "crates/demo/src/bin/tool.rs",
                "fn main() { demo::for_a_bin(); }\n",
            ),
            (
                "crates/user/src/lib.rs",
                "fn g() { demo::for_another_crate(); }\n",
            ),
            (
                "benchmark/src/surface.rs",
                "pub use demo::for_the_benchmark;\n",
            ),
            (
                "tests/api.rs",
                "#[test]\nfn t() { demo::for_a_root_test(); }\n",
            ),
        ];
        let root = std::env::temp_dir().join(format!("compso-lint-planted-{}", std::process::id()));
        for (path, src) in files {
            let path = root.join(path);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, src).unwrap();
        }
        let diags = crate::check_workspace(&root);
        std::fs::remove_dir_all(&root).unwrap();
        let fired: Vec<(&str, String, usize)> = (diags.unwrap().into_iter())
            .map(|d| (d.rule, d.path, d.line))
            .collect();
        let at = |line| (NAME, "crates/demo/src/lib.rs".to_string(), line);
        assert_eq!(fired, [at(1), at(2), at(7)]);
    }
}
