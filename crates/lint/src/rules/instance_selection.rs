//! `instance-selection`: compso-tensor's `Instance` is the one run-time
//! choice of instruction set, and no instance can round differently.
//!
//! A wide body is a `#[target_feature]` function of one of two feature
//! sets: `enable = "avx2"`, or `enable = "avx512f,avx512dq"`. The only way
//! in is the `unsafe { … }` of a match arm whose instances
//! `Instance::current` picks only where the CPU reported that set: an AVX2
//! body from an `Instance::Avx2` or `Instance::Avx2 | Instance::Avx512`
//! arm (the AVX-512 instance has AVX2 too), an AVX-512 body from an
//! `Instance::Avx512` arm alone. So every production `unsafe` is exactly
//! `unsafe { wide(a, &b, &mut c.d) }` inside such an arm: one call of a
//! wide fn of the same file on plain places, so the block can do nothing
//! else unsafe (`unsafe fn`, `unsafe impl`, a deref, a method call and an
//! `unsafe` elsewhere all fire). Every `#[target_feature]` enables exactly
//! one of the two sets.
//!
//! Every instance emits the portable instance's bits, so two things stay
//! out of production code: a fused multiply-add (`mul_add`, `fma`, an
//! `_mm*_fmadd`/`fmsub` intrinsic), which rounds once where the portable
//! body rounds twice, and a pointer-taking `_mm*` intrinsic (load, store,
//! gather, broadcast from memory, …): wide bodies move data through
//! slices, so `unsafe` never dereferences a pointer.

use super::{Rule, View};
use crate::engine::{Context, Diagnostic};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

pub(crate) struct InstanceSelection;

const NAME: &str = "instance-selection";

/// The finding for a fused multiply-add, by name or intrinsic.
const FMA: &str = "a fused multiply-add, which rounds once where the portable body rounds twice";
/// Fragments of the fused multiply-add `_mm*` intrinsics' names.
const FMA_OPS: &str = "_fmadd|_fmsub|_fnmadd|_fnmsub";
/// Fragments of the pointer-taking `_mm*` intrinsics' names (`broadcast_`
/// is the memory form; the register forms read `broadcastsd_pd` etc.).
const POINTER_OPS: &str = "load|store|stream|gather|lddqu|prefetch|maskmove|broadcast_";
/// The finding for an `unsafe` that does more than enter a wide body.
const ENTRY: &str = "`unsafe` other than `unsafe { wide(…) }` in an arm of instances that have \
                     its features, one call of this file's `target_feature` fn on plain places";
/// The finding for a wide body built for another feature set.
const OTHER_FEATURES: &str =
    "a `target_feature` other than `enable = \"avx2\"` or `enable = \"avx512f,avx512dq\"`";

/// The two feature sets a wide body is built with, each with the
/// instances whose arms may enter it: those `Instance::current` picks
/// only where the CPU reported the whole set.
const FEATURE_SETS: [(&str, &[&str]); 2] = [
    ("\"avx2\"", &["Avx2", "Avx512"]),
    ("\"avx512f,avx512dq\"", &["Avx512"]),
];

impl Rule for InstanceSelection {
    fn name(&self) -> &'static str {
        NAME
    }

    fn check(&self, file: &SourceFile, _ctx: &Context, out: &mut Vec<Diagnostic>) {
        let v = View::new(file);
        let wide: Vec<Wide> = (0..v.len())
            .filter_map(|ci| Some((ci, feature_set(&v, ci)?)))
            .filter_map(|(ci, arms)| {
                let k = (ci..v.len() - 1).find(|&k| v.is_ident(k, "fn"))?;
                Some((v.text(k + 1), arms))
            })
            .collect();
        for ci in 0..v.len() {
            if let Some(what) = breach(&v, ci, &wide).filter(|_| !file.in_test(v.tok(ci).start)) {
                let msg = format!("{what}; every instance emits the portable instance's bits");
                out.push(v.diag(NAME, ci, msg));
            }
        }
    }
}

/// A wide fn of the file: its name and the instances whose arms may
/// enter it.
type Wide<'a> = (&'a str, &'static [&'static str]);

/// What the token at `ci` breaks, if anything. Literals and comments are
/// their own tokens, so only code can match.
fn breach(v: &View, ci: usize, wide: &[Wide]) -> Option<&'static str> {
    let text = v.text(ci);
    let mm = |ops: &str| text.starts_with("_mm") && ops.split('|').any(|op| text.contains(op));
    match text {
        _ if mm(FMA_OPS) => Some(FMA),
        _ if mm(POINTER_OPS) => Some("a pointer-taking intrinsic; wide bodies go through slices"),
        "unsafe" if !enters_wide_fn(v, ci, wide) => Some(ENTRY),
        "target_feature" if v.is_punct(ci + 1, "(") && feature_set(v, ci).is_none() => {
            Some(OTHER_FEATURES)
        }
        "mul_add" | "fma" => Some(FMA),
        _ => None,
    }
}

/// If the token at `ci` is the `target_feature` of
/// `target_feature(enable = "…")` with one of [`FEATURE_SETS`], the
/// instances whose arms may enter its fn.
fn feature_set(v: &View, ci: usize) -> Option<&'static [&'static str]> {
    let attr = ["target_feature", "(", "enable", "="];
    let head =
        ci + 6 <= v.len() && (0..4).map(|k| v.text(ci + k)).eq(attr) && v.is_punct(ci + 5, ")");
    let set = FEATURE_SETS
        .iter()
        .find(|(set, _)| head && v.text(ci + 4) == *set);
    set.map(|&(_, arms)| arms)
}

/// Is the `unsafe` at `at` exactly `unsafe { f(…) }`, `f` one of the file's
/// `wide` fns and its arguments names, `&`, `mut`, `,` and `.` alone, in
/// an arm whose every instance may enter `f`?
fn enters_wide_fn(v: &View, at: usize, wide: &[Wide]) -> bool {
    let place = |k: usize| v.kind(k) == TokenKind::Ident || [",", "&", "."].contains(&v.text(k));
    let close = (at + 4..v.len()).find(|&k| !place(k));
    let arm = arm_instances(v, at);
    v.is_punct(at + 1, "{")
        && wide.iter().any(|&(f, may)| {
            v.is_ident(at + 2, f) && !arm.is_empty() && arm.iter().all(|i| may.contains(i))
        })
        && v.is_punct(at + 3, "(")
        && close.is_some_and(|k| v.is_punct(k, ")") && v.is_punct(k + 1, "}"))
}

/// The instances of the match arm the `unsafe` at `at` sits in, if its
/// pattern is `Instance::A | Instance::B …`; empty otherwise. Walking
/// back, the first `=>` outside every group closed on the way is the arm
/// it belongs to.
fn arm_instances<'v>(v: &'v View, at: usize) -> Vec<&'v str> {
    let arrow = v.prev_outward(at, |k| {
        k > 0 && v.is_punct(k, ">") && v.is_punct(k - 1, "=")
    });
    arrow.map_or_else(Vec::new, |k| pattern(v, k - 1))
}

/// The variants of an `Instance::A | Instance::B …` pattern ending just
/// before the `=` at `eq`, or nothing if the pattern is anything else.
fn pattern<'v>(v: &'v View, eq: usize) -> Vec<&'v str> {
    let mut variants = Vec::new();
    let mut end = eq;
    while end >= 4
        && (end - 4..end - 1)
            .map(|k| v.text(k))
            .eq(["Instance", ":", ":"])
    {
        variants.push(v.text(end - 1));
        if end >= 5 && v.is_punct(end - 5, "|") {
            end -= 5;
        } else {
            return variants;
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::check_files;

    fn lines(src: &str) -> Vec<usize> {
        let f = SourceFile::new("crates/tensor/src/x.rs".into(), src.into());
        check_files(&[f], Context::with_names(Vec::new()))
            .iter()
            .filter(|d| d.rule == NAME)
            .map(|d| d.line)
            .collect()
    }

    /// A wide fn `w` for the sources below to enter.
    const WIDE: &str = "#[target_feature(enable = \"avx2\")]\nfn w() {}\n";

    #[test]
    fn an_unsafe_block_is_entered_only_from_the_avx2_arm() {
        // The arm's body, a closure inside the arm, a block arm's tail.
        let ok = "fn a(i: Instance) {\n    match i {\n        Instance::Avx2 => unsafe { w() },\n        _ => p(),\n    }\n}\n\
                  fn b(i: Instance) {\n    match i {\n        Instance::Avx2 => j().for_each(|(s, o)| unsafe { w(s, &mut o.x) }),\n        _ => p(),\n    }\n}\n\
                  fn c(i: Instance) {\n    match i {\n        Instance::Avx2 => { let x = 1; unsafe { w(x) } }\n        _ => p(),\n    }\n}\n";
        let ok = format!("{WIDE}{ok}");
        assert!(lines(&ok).is_empty(), "{:?}", lines(&ok));
        let bad = "fn a(i: Instance) {\n    match i {\n        Instance::Avx2 => w(),\n        _ => unsafe { w() },\n    }\n}\n\
                   fn b(i: Instance) {\n    match i {\n        Instance::Avx2 => w(),\n        _ => p(),\n    }\n    unsafe { w() }\n}\n\
                   unsafe fn c() {}\n\
                   fn d(i: Instance) {\n    match i {\n        Instance::Portable => unsafe { w() },\n        _ => p(),\n    }\n}\n";
        assert_eq!(lines(&format!("{WIDE}{bad}")), [6, 14, 16, 19]);
    }

    #[test]
    fn the_avx2_arm_block_is_one_call_of_a_wide_fn_on_places() {
        let arm = |body: &str| {
            let src = format!("{WIDE}fn a(i: Instance) {{\n    match i {{\n        Instance::Avx2 => {body},\n        _ => p(),\n    }}\n}}\n");
            lines(&src)
        };
        assert!(arm("unsafe { w(a, &b, &mut c.d) }").is_empty());
        for body in [
            "unsafe { *a.as_ptr().add(i) }",
            "unsafe { w(*p) }",
            "unsafe { w(a.get_unchecked(0)) }",
            "unsafe { w(std::slice::from_raw_parts(p, n)) }",
            "unsafe { w(a); x() }",
            "unsafe { w(a) + 1 }",
            "unsafe { p(a) }",
            "unsafe { w }",
        ] {
            assert_eq!(arm(body), [5], "{body}");
        }
        // A fn built for another feature set is no way in either.
        let other = "#[target_feature(enable = \"avx2,fma\")]\nfn w() {}\n";
        let src = format!("{other}fn a(i: Instance) {{\n    match i {{\n        Instance::Avx2 => unsafe {{ w() }},\n        _ => p(),\n    }}\n}}\n");
        assert_eq!(lines(&src), [1, 5]);
    }

    #[test]
    fn each_feature_set_is_entered_from_the_arms_of_instances_that_have_it() {
        let wide = "#[target_feature(enable = \"avx2\")]\nfn w() {}\n\
                    #[target_feature(enable = \"avx512f,avx512dq\")]\nfn z() {}\n";
        let arm = |pat: &str, f: &str| {
            let src = format!("{wide}fn a(i: Instance) {{\n    match i {{\n        {pat} => unsafe {{ {f}() }},\n        Instance::Portable => p(),\n    }}\n}}\n");
            lines(&src)
        };
        for (pat, f) in [
            ("Instance::Avx2", "w"),
            ("Instance::Avx2 | Instance::Avx512", "w"),
            ("Instance::Avx512 | Instance::Avx2", "w"),
            ("Instance::Avx512", "w"),
            ("Instance::Avx512", "z"),
        ] {
            assert!(arm(pat, f).is_empty(), "{pat} => {f}");
        }
        for (pat, f) in [
            ("Instance::Avx2", "z"),
            ("Instance::Avx2 | Instance::Avx512", "z"),
            ("Instance::Portable | Instance::Avx2", "w"),
            ("Instance::Avx2 | x", "w"),
            ("_", "w"),
        ] {
            assert_eq!(arm(pat, f), [7], "{pat} => {f}");
        }
        // Half a feature set, or a set in another order, is no wide body.
        for attr in ["avx512f", "avx512dq,avx512f", "avx2,avx512f,avx512dq"] {
            let src = format!("#[target_feature(enable = \"{attr}\")]\nfn z() {{}}\n");
            assert_eq!(lines(&src), [1], "{attr}");
        }
    }

    #[test]
    fn wide_code_rounds_as_the_portable_code_and_takes_no_pointer() {
        let src = "#[target_feature(enable = \"avx2\")]\nfn w() {\n    let s = _mm256_add_pd(a, b);\n    let t = _mm256_broadcastsd_pd(c);\n}\n\
                   #[target_feature(enable = \"avx2,fma\")]\nfn x() {\n    let s = a.mul_add(b, c);\n    let t = _mm256_fmadd_pd(a, b, c);\n\
                   let u = _mm256_loadu_pd;\n    _mm256_storeu_si256(p, v);\n    let b = _mm256_broadcast_sd(&y);\n    _mm_maskmoveu_si128(a, m, p);\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { let _ = 1.0f64.mul_add(2.0, 3.0); }\n}\n";
        assert_eq!(lines(src), [6, 8, 9, 10, 11, 12, 13]);
    }
}
