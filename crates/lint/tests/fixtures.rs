//! Golden fixture corpus: every rule has at least one firing, one
//! clean, and one suppressed case under `fixtures/<rule>/`.
//!
//! Fixture format:
//! - first line `//# path: crates/…/fake.rs` — the pretend workspace
//!   path the file is analyzed under (rules are path-scoped);
//! - a trailing `//~ rule-name` marker on every line expected to fire
//!   (repeat the marker — `//~ a //~ b` — when several rules fire on
//!   one line).
//!
//! The test asserts the *exact* set of `(line, rule)` diagnostics per
//! fixture — extra findings fail as loudly as missing ones — and pins a
//! handful of full human renderings as goldens.

use compso_lint::{check_file, Context, SourceFile};
use std::collections::BTreeSet;
use std::path::Path;

/// Names considered registered while analyzing fixtures. The
/// `reachable-pub` corpus, whose rule needs a workspace, also gets the
/// names spelled outside its pretend crate: `encode_frame` by a test or
/// bin, `FRAME_LIMIT` by another crate, `unreached_helper` only inside
/// `crates/core/src/` itself.
fn fixture_context(rule: &str) -> Context {
    let mut ctx = Context::with_names(
        ["comm/recv", "comm/barrier", "kfac/step", "ctrl/decisions"]
            .into_iter()
            .map(String::from),
    );
    if rule == "reachable-pub" {
        let named = [
            ("encode_frame", ""),
            ("FRAME_LIMIT", "crates/comm/src/"),
            ("unreached_helper", "crates/core/src/"),
        ];
        ctx.named_outside = Some(
            (named.into_iter())
                .map(|(name, owner)| (name.to_string(), BTreeSet::from([owner.to_string()])))
                .collect(),
        );
    }
    ctx
}

fn fixture_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// Parse a fixture: pretend path + expected `(line, rule)` markers.
fn parse_fixture(src: &str, file: &Path) -> (String, Vec<(usize, String)>) {
    let first = src.lines().next().unwrap_or_default();
    let path = first
        .strip_prefix("//# path: ")
        .unwrap_or_else(|| panic!("{}: first line must be `//# path: …`", file.display()))
        .trim()
        .to_string();
    let mut expected = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(at) = line.find("//~") {
            for rule in line[at + 3..].split("//~") {
                let rule = rule.trim().to_string();
                assert!(
                    !rule.is_empty(),
                    "{}:{}: empty //~ marker",
                    file.display(),
                    i + 1
                );
                expected.push((i + 1, rule));
            }
        }
    }
    (path, expected)
}

fn check_fixture(file: &Path) -> (Vec<(usize, String)>, Vec<String>) {
    let src = std::fs::read_to_string(file).expect("read fixture");
    let (pretend, expected) = parse_fixture(&src, file);
    let rule = file
        .parent()
        .and_then(|d| d.file_name())
        .unwrap_or_default();
    let sf = SourceFile::new(pretend, src);
    let mut diags = Vec::new();
    check_file(&sf, &fixture_context(&rule.to_string_lossy()), &mut diags);
    // Line and column: the order the CLI prints a file's findings in.
    diags.sort_by_key(|d| (d.line, d.col));
    let mut got: Vec<(usize, String)> =
        diags.iter().map(|d| (d.line, d.rule.to_string())).collect();
    got.sort();
    let mut want = expected;
    want.sort();
    assert_eq!(
        got,
        want,
        "{}: diagnostics do not match //~ markers\n  got: {:?}",
        file.display(),
        diags.iter().map(|d| d.human()).collect::<Vec<_>>()
    );
    (got, diags.iter().map(|d| d.human()).collect())
}

#[test]
fn every_rule_has_firing_clean_and_suppressed_fixtures() {
    let root = fixture_root();
    for rule in compso_lint::rules::RULES.iter().map(|r| r.name) {
        let dir = root.join(rule);
        for required in ["fires.rs", "clean.rs", "suppressed.rs"] {
            assert!(
                dir.join(required).is_file(),
                "missing fixture {rule}/{required}"
            );
        }
    }
    // The hygiene rule has no "suppressed" case: suppressing hygiene
    // findings with broken suppressions would be circular.
    assert!(root.join("suppression-hygiene/fires.rs").is_file());
    assert!(root.join("suppression-hygiene/clean.rs").is_file());
}

#[test]
fn all_fixtures_match_their_markers() {
    let root = fixture_root();
    let mut checked = 0;
    let mut dirs: Vec<_> = std::fs::read_dir(&root)
        .expect("fixtures dir")
        .flatten()
        .map(|e| e.path())
        .collect();
    dirs.sort();
    for dir in dirs {
        if !dir.is_dir() {
            continue;
        }
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("rule dir")
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        files.sort();
        for file in files {
            let (got, _) = check_fixture(&file);
            let stem = file.file_stem().unwrap().to_string_lossy().to_string();
            match stem.as_str() {
                // Firing fixtures must fire; clean/suppressed must not.
                "fires" | "one_clock" | "brackets" => assert!(
                    !got.is_empty(),
                    "{}: expected at least one finding",
                    file.display()
                ),
                _ => assert!(
                    got.is_empty(),
                    "{}: expected no findings, got {got:?}",
                    file.display()
                ),
            }
            checked += 1;
        }
    }
    assert!(checked >= 30, "fixture corpus shrank: {checked} files");
}

#[test]
fn golden_diagnostic_renderings() {
    let root = fixture_root();
    let (_, human) = check_fixture(&root.join("wire-magic-registry/fires.rs"));
    assert_eq!(
        human[0],
        "crates/core/src/fake_codec.rs:5:14: [wire-magic-registry] bare wire magic \
         literal 0xC9 in production code; use the named constant from \
         compso_core::wire::magic"
    );
    let (_, human) = check_fixture(&root.join("unchecked-length-prefix/fires.rs"));
    assert!(
        human[0].starts_with("crates/core/src/fake_decoder.rs:6:38: [unchecked-length-prefix]"),
        "{human:?}"
    );
    let (_, human) = check_fixture(&root.join("deterministic-state/fires.rs"));
    assert_eq!(
        human[0],
        "crates/ctrl/src/fake_controller.rs:13:5: [deterministic-state] wall-clock \
         read in `sample_jitter`, which is reachable from determinism-critical \
         `observe`; replicas must compute identical state — hoist the impurity out \
         of the cone or annotate lint:allow(deterministic-state): <why this cannot \
         diverge replicas>"
    );
    let (_, human) = check_fixture(&root.join("deterministic-state/one_clock.rs"));
    assert_eq!(
        human[0],
        "crates/comm/src/fake_arq.rs:7:17: [deterministic-state] time read outside \
         crates/comm/src/clock.rs, compso-comm's one reader of time"
    );
    let (_, human) = check_fixture(&root.join("instance-selection/fires.rs"));
    assert_eq!(
        human[0],
        "crates/tensor/src/fake_wide.rs:11:14: [instance-selection] `unsafe` other than \
         `unsafe { wide(…) }` in an arm of instances that have its features, one call \
         of this file's `target_feature` fn on plain places; every instance emits the \
         portable instance's bits"
    );
    let (_, human) = check_fixture(&root.join("collective-order/fires.rs"));
    assert!(
        human[0].starts_with("crates/comm/src/fake_group.rs:8:18: [collective-order]"),
        "{human:?}"
    );
    let (_, human) = check_fixture(&root.join("reachable-pub/fires.rs"));
    assert_eq!(
        human[0],
        "crates/core/src/fake_api.rs:11:8: [reachable-pub] `pub fn unreached_helper` is \
         named nowhere outside crates/core/src/; make it pub(crate) or private, and \
         delete what rustc then reports unused"
    );
}

#[test]
fn seeded_violation_is_detected_via_library_path() {
    // The CI gate's contract, exercised hermetically: a clean file
    // passes, and seeding a violation into the same pretend crate flips
    // it to a finding with the right location.
    let ctx = fixture_context("");
    let clean = SourceFile::new(
        "crates/comm/src/seeded.rs".into(),
        "pub fn ok(magic: u8) -> u8 {\n    magic\n}\n".into(),
    );
    let mut diags = Vec::new();
    check_file(&clean, &ctx, &mut diags);
    assert!(diags.is_empty());

    let seeded = SourceFile::new(
        "crates/comm/src/seeded.rs".into(),
        "pub fn bad() -> u8 {\n    0xC9\n}\n".into(),
    );
    check_file(&seeded, &ctx, &mut diags);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, "wire-magic-registry");
    assert_eq!((diags[0].line, diags[0].col), (2, 5));
}
