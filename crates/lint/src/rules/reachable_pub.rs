//! `reachable-pub`: every `pub` function, constant, static, struct,
//! enum, trait and type alias of a library crate is reached from outside
//! that crate, or it loses `pub`.
//!
//! rustc's dead-code analysis stops at `pub`: an item another crate
//! *could* use is live, whether or not anything does. This rule closes
//! that gap by name. "Outside" a library crate (`crates/<c>/src/` or the
//! root `src/`) is any file that is not part of it: another crate's
//! source, a bin target (`src/main.rs`, `src/bin/`), `examples/`, root
//! `tests/`, `crates/*/tests/`, and `benchmark/src`, which is lexed as a
//! reader only. An item whose name none of them spells becomes
//! `pub(crate)` or private, and rustc's transitive `dead_code` then
//! reports whatever nothing reaches.
//!
//! One exemption, the one rustc forces: a type is also reached when its
//! name is spelled in the interface of a reached item of its crate — a
//! function's signature, a constant's or static's type, a struct's
//! generics or `pub` fields, an enum's or trait's body, an alias's right
//! side. Such a type is often named nowhere because callers infer it
//! (`recorder.span(..)` hands back a guard nobody spells), yet making it
//! less public than the item that carries it is rustc's
//! `private_interfaces`, or E0365 for a crate-root `pub use` of it. A
//! type exempted this way reaches the types of its own interface in
//! turn.
//!
//! The rule is keyed on names, as the call graph is: any identifier
//! token that equals the item's name counts, so a common name (`new`,
//! `len`) is never flagged. Items inside `#[cfg(test)]` are test code
//! and not checked.
//!
//! The rule needs the workspace: [`reached_names`] is built once per run
//! by [`crate::check_workspace`] and carried in [`Context::reached`]. A
//! single-file check (no workspace) skips it.

use super::{Rule, View};
use crate::engine::{Context, Diagnostic};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

pub(crate) struct ReachablePub;

const NAME: &str = "reachable-pub";

/// Keywords that may sit between `pub` and `fn` or `trait`.
const QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];

/// The item kinds the exemption applies to.
const TYPES: &[&str] = &["struct", "enum", "trait", "type"];

impl Rule for ReachablePub {
    fn name(&self) -> &'static str {
        NAME
    }

    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Diagnostic>) {
        let (Some(reached), Some(lib)) = (&ctx.reached, library_of(&file.path)) else {
            return;
        };
        let v = View::new(file);
        for (kind, name_ci) in checked_items(&v) {
            let name = v.text(name_ci);
            if !reached.get(lib).is_some_and(|names| names.contains(name)) {
                out.push(v.diag(
                    NAME,
                    name_ci,
                    format!(
                        "`pub {kind} {name}` is named nowhere outside {lib}, nor in the \
                         interface of an item that is; make it pub(crate) or private, and \
                         delete what rustc then reports unused"
                    ),
                ));
            }
        }
    }
}

/// Every item of `v`'s file the rule checks: each `pub` function,
/// constant, static, struct, enum, trait or type alias outside
/// `#[cfg(test)]`, as its kind and the token of its name.
fn checked_items<'v>(v: &'v View) -> impl Iterator<Item = (&'static str, usize)> + 'v {
    (0..v.len())
        .filter(|&ci| v.is_ident(ci, "pub") && !v.file.in_test(v.tok(ci).start))
        .filter_map(|ci| pub_item(v, ci + 1))
}

/// The item a `pub` at token `ci - 1` introduces, when it is one the
/// rule checks: its kind and the token of its name. `pub(crate)` and
/// friends start with `(` and are not public.
fn pub_item(v: &View, mut ci: usize) -> Option<(&'static str, usize)> {
    if let Some(kind) = ["const", "static"].into_iter().find(|k| v.is_ident(ci, k)) {
        let name = ci + 1 + usize::from(v.is_ident(ci + 1, "mut"));
        // `const fn` falls through to the function case.
        if v.is_punct(name + 1, ":") {
            return Some((kind, name));
        }
    }
    while ci < v.len() && QUALIFIERS.contains(&v.text(ci)) {
        // `extern "C"` carries an ABI string.
        ci += 1 + usize::from(ci + 1 < v.len() && v.kind(ci + 1) == TokenKind::Str);
    }
    let kind = ["fn"]
        .iter()
        .chain(TYPES)
        .copied()
        .find(|k| v.is_ident(ci, k))?;
    (ci + 1 < v.len() && v.kind(ci + 1) == TokenKind::Ident).then_some((kind, ci + 1))
}

/// The identifiers of the interface of the `kind` item named at token
/// `name`: what rustc requires to be as public as the item. A function's
/// signature up to its body; a constant's or static's type; an alias's
/// right side; an enum's or trait's whole body; a struct's generics and
/// `pub` fields.
fn interface<'a>(v: &View<'a>, kind: &str, name: usize) -> Vec<&'a str> {
    let idents = |r: Range<usize>| {
        r.filter(|&k| v.kind(k) == TokenKind::Ident)
            .map(|k| v.text(k))
    };
    let at = |stops: &[&str]| {
        v.next_at_level(name + 1, |k| stops.iter().any(|p| v.is_punct(k, p)))
            .unwrap_or(v.len())
    };
    let end = match kind {
        "fn" => at(&["{", ";"]),
        "const" | "static" => at(&["=", ";"]),
        "type" => at(&[";"]),
        "enum" | "trait" => {
            let open = at(&["{"]);
            v.partner(open).unwrap_or(open)
        }
        _ => {
            // A struct: its generics, then each field that is `pub`.
            let open = at(&["{", "(", ";"]);
            let mut spelled: Vec<&str> = idents(name + 1..open).collect();
            let close = v.partner(open).unwrap_or(open);
            let mut k = open + 1;
            while k < close {
                // A field ends at a comma outside its type's `<…>`.
                let mut angle = 0;
                let end = v
                    .next_at_level(k, |j| {
                        if v.is_punct(j, "<") {
                            angle += 1;
                        } else if v.is_punct(j, ">") && !v.is_punct(j - 1, "-") {
                            angle -= 1;
                        }
                        angle == 0 && v.is_punct(j, ",")
                    })
                    .unwrap_or(close);
                let mut field = k;
                while v.is_punct(field, "#") {
                    field = v.partner(field + 1).map_or(end, |c| c + 1);
                }
                if v.is_ident(field, "pub") && !v.is_punct(field + 1, "(") {
                    spelled.extend(idents(field + 1..end));
                }
                k = end + 1;
            }
            return spelled;
        }
    };
    idents(name + 1..end).collect()
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

/// For each library crate (by [`library_of`]), the names of the items
/// [`ReachablePub`] checks that are reached: spelled by a file of `files`
/// outside the crate, or, for a type, spelled in the [`interface`] of a
/// reached item of the crate. Three passes: the items and their
/// interfaces, then one scan of every identifier token for the crates
/// that spell an item's name, then the exemption to a fixed point.
pub(crate) fn reached_names<'a>(
    files: impl IntoIterator<Item = &'a SourceFile> + Clone,
) -> BTreeMap<String, BTreeSet<String>> {
    let mut items = Vec::new();
    for f in files.clone() {
        if let Some(lib) = library_of(&f.path) {
            let v = View::new(f);
            for (kind, name) in checked_items(&v) {
                let spelled = interface(&v, kind, name);
                items.push((lib, v.text(name), TYPES.contains(&kind), spelled));
            }
        }
    }
    let mut owners: BTreeMap<&str, BTreeSet<&str>> =
        items.iter().map(|i| (i.1, BTreeSet::new())).collect();
    for f in files {
        let owner = library_of(&f.path).unwrap_or_default();
        for tok in f.tokens.iter().filter(|t| t.kind == TokenKind::Ident) {
            if let Some(o) = owners.get_mut(tok.text(&f.src)) {
                o.insert(owner);
            }
        }
    }
    let types: BTreeSet<(&str, &str)> =
        (items.iter().filter(|i| i.2)).map(|i| (i.0, i.1)).collect();
    let mut reached: BTreeSet<(&str, &str)> = (items.iter())
        .filter(|(lib, name, ..)| owners[name].iter().any(|o| o != lib))
        .map(|i| (i.0, i.1))
        .collect();
    loop {
        let exempt: Vec<(&str, &str)> = (items.iter())
            .filter(|i| reached.contains(&(i.0, i.1)))
            .flat_map(|(lib, _, _, spelled)| spelled.iter().map(move |n| (*lib, *n)))
            .filter(|t| types.contains(t) && !reached.contains(t))
            .collect();
        if exempt.is_empty() {
            break;
        }
        reached.extend(exempt);
    }
    let mut by_lib: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (lib, name) in reached {
        by_lib.entry(lib.into()).or_default().insert(name.into());
    }
    by_lib
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
    fn items_are_functions_constants_statics_and_types() {
        let src = "pub fn a() {}\npub const fn b() {}\npub unsafe extern \"C\" fn c() {}\n\
                   pub const D: u8 = 0;\npub static mut E: u8 = 0;\npub(crate) fn f() {}\n\
                   pub struct G;\npub use x::h;\npub mod i {}\npub enum J {}\n\
                   pub unsafe trait K {}\npub type L = u8;\npub(crate) struct M;\n";
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
                ("static", "E"),
                ("struct", "G"),
                ("enum", "J"),
                ("trait", "K"),
                ("type", "L")
            ]
        );
    }

    #[test]
    fn an_interface_is_what_rustc_needs_as_public_as_the_item() {
        let src = "pub fn f<T: A>(b: B) -> C where T: D { E }\n\
                   pub const G: H = I;\n\
                   pub type J = K<L>;\n\
                   pub enum M { N(O), P { q: Q } }\n\
                   pub trait R: S { fn t(&self) -> U; }\n\
                   pub struct V<W: X> { pub y: BTreeMap<K, Y>, #[doc = \"z\"] pub z: Z, pub(crate) a: AA, bb: BB }\n\
                   pub struct CC(pub DD, EE);\n";
        let f = SourceFile::new("crates/x/src/lib.rs".into(), src.into());
        let v = View::new(&f);
        let spelled: Vec<String> = checked_items(&v)
            .map(|(kind, ci)| format!("{}: {}", v.text(ci), interface(&v, kind, ci).join(" ")))
            .collect();
        assert_eq!(
            spelled,
            [
                "f: T A b B C where T D",
                "G: H",
                "J: K L",
                "M: N O P q Q",
                "R: S fn t self U",
                "V: W X y BTreeMap K Y z Z",
                "CC: DD"
            ]
        );
    }

    #[test]
    fn a_planted_workspace_fires_on_what_only_its_crate_names() {
        let lib = "pub fn unreached(_: OnlyInAnUnreachedFn) {}\n\
                   pub fn named_in_crate() {}\n\
                   pub fn for_the_benchmark() {}\n\
                   pub fn for_a_root_test() {}\n\
                   pub fn for_a_bin() {}\n\
                   pub fn for_another_crate() {}\n\
                   pub const UNREACHED: u8 = 0;\n\
                   pub struct Unnamed;\n\
                   pub struct Inferred { pub inner: Carried, hidden: Hidden }\n\
                   pub struct Carried;\n\
                   pub struct Hidden;\n\
                   pub fn for_a_bin_too() -> Inferred { todo!() }\n\
                   pub enum OnlyInAnUnreachedFn {}\n\
                   pub trait Named {}\n";
        let files = [
            ("crates/obs/src/names.rs", ""),
            ("crates/demo/src/lib.rs", lib),
            (
                "crates/demo/src/other.rs",
                "fn f() { crate::named_in_crate(); }\n",
            ),
            (
                "crates/demo/src/bin/tool.rs",
                "fn main() { demo::for_a_bin(); demo::for_a_bin_too(); }\n",
            ),
            (
                "crates/user/src/lib.rs",
                "fn g() { demo::for_another_crate(); }\nimpl demo::Named for u8 {}\n",
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
        // `Inferred` is reached through `for_a_bin_too`'s signature and
        // `Carried` through its `pub` field; `Hidden` sits in a private
        // field and `OnlyInAnUnreachedFn` in the signature of a function that
        // is not reached.
        assert_eq!(fired, [at(1), at(2), at(7), at(8), at(11), at(13)]);
    }

    #[test]
    fn compso_lint_names_every_pub_item_it_keeps() {
        // No rule runs on the analyzer itself (`GLOBAL_EXCLUDE`: its rule
        // tables spell what they hunt), so its own surface is checked
        // here: each `pub` item of its library is named by its binary or
        // its tests, or carried by one that is.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut paths = Vec::new();
        crate::walker::walk(&dir.join("src"), &mut paths);
        crate::walker::walk(&dir.join("tests"), &mut paths);
        let files: Vec<SourceFile> = (paths.iter())
            .map(|p| {
                let rel = format!("crates/lint/{}", crate::walker::rel_path(dir, p));
                SourceFile::new(rel, std::fs::read_to_string(p).unwrap())
            })
            .collect();
        let ctx = Context {
            reached: Some(reached_names(&files)),
            ..Context::with_names(Vec::new())
        };
        let mut out = Vec::new();
        for f in &files {
            ReachablePub.check(f, &ctx, &mut out);
        }
        let found: Vec<String> = out.iter().map(Diagnostic::human).collect();
        assert!(
            found.is_empty(),
            "{} findings:\n{}",
            found.len(),
            found.join("\n")
        );
    }
}
