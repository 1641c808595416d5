//! `instance-selection`: compso-tensor's `Instance` is the one run-time
//! choice of instruction set, and no instance can round differently.
//!
//! A wide body is a `#[target_feature(enable = "avx2")]` function, and the
//! only way in is the `unsafe { … }` of its kernel's `Instance::Avx2 =>`
//! arm, which `Instance::current` picks only where the CPU reported AVX2.
//! So every production `unsafe` is exactly `unsafe { wide(a, &b, &mut c.d) }`
//! inside such an arm: one call of a wide fn of the same file on plain
//! places, so the block can do nothing else unsafe (`unsafe fn`, `unsafe
//! impl`, a deref, a method call and an `unsafe` elsewhere all fire). Every
//! `#[target_feature]` enables exactly `"avx2"`.
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

pub struct InstanceSelection;

const NAME: &str = "instance-selection";

/// The finding for a fused multiply-add, by name or intrinsic.
const FMA: &str = "a fused multiply-add, which rounds once where the portable body rounds twice";
/// Fragments of the fused multiply-add `_mm*` intrinsics' names.
const FMA_OPS: &str = "_fmadd|_fmsub|_fnmadd|_fnmsub";
/// Fragments of the pointer-taking `_mm*` intrinsics' names (`broadcast_`
/// is the memory form; the register forms read `broadcastsd_pd` etc.).
const POINTER_OPS: &str = "load|store|stream|gather|lddqu|prefetch|maskmove|broadcast_";
/// The finding for an `unsafe` that does more than enter a wide body.
const ENTRY: &str = "`unsafe` other than `unsafe { wide(…) }` in an `Instance::Avx2 =>` arm, \
                     one call of this file's `target_feature` fn on plain places";
/// The finding for a wide body built for more than AVX2.
const NOT_AVX2: &str = "a `target_feature` other than `enable = \"avx2\"`";

impl Rule for InstanceSelection {
    fn name(&self) -> &'static str {
        NAME
    }

    fn check(&self, file: &SourceFile, _ctx: &Context, out: &mut Vec<Diagnostic>) {
        let v = View::new(file);
        let wide: Vec<&str> = (0..v.len())
            .filter(|&ci| enables_avx2(&v, ci))
            .filter_map(|ci| (ci..v.len() - 1).find(|&k| v.is_ident(k, "fn")))
            .map(|k| v.text(k + 1))
            .collect();
        for ci in 0..v.len() {
            if let Some(what) = breach(&v, ci, &wide).filter(|_| !file.in_test(v.tok(ci).start)) {
                let msg = format!("{what}; every instance emits the portable instance's bits");
                out.push(v.diag(NAME, ci, msg));
            }
        }
    }
}

/// What the token at `ci` breaks, if anything. Literals and comments are
/// their own tokens, so only code can match.
fn breach(v: &View, ci: usize, wide: &[&str]) -> Option<&'static str> {
    let text = v.text(ci);
    let mm = |ops: &str| text.starts_with("_mm") && ops.split('|').any(|op| text.contains(op));
    match text {
        _ if mm(FMA_OPS) => Some(FMA),
        _ if mm(POINTER_OPS) => Some("a pointer-taking intrinsic; wide bodies go through slices"),
        "unsafe" if !(enters_wide_fn(v, ci, wide) && in_avx2_arm(v, ci)) => Some(ENTRY),
        "target_feature" if v.is_punct(ci + 1, "(") && !enables_avx2(v, ci) => Some(NOT_AVX2),
        "mul_add" | "fma" => Some(FMA),
        _ => None,
    }
}

/// Is the token at `ci` the `target_feature` of `target_feature(enable = "avx2")`?
fn enables_avx2(v: &View, ci: usize) -> bool {
    let attr = ["target_feature", "(", "enable", "=", "\"avx2\"", ")"];
    ci + 6 <= v.len() && (0..6).map(|k| v.text(ci + k)).eq(attr)
}

/// Is the `unsafe` at `at` exactly `unsafe { f(…) }`, `f` one of the file's
/// `wide` fns and its arguments names, `&`, `mut`, `,` and `.` alone?
fn enters_wide_fn(v: &View, at: usize, wide: &[&str]) -> bool {
    let place = |k: usize| v.kind(k) == TokenKind::Ident || [",", "&", "."].contains(&v.text(k));
    let close = (at + 4..v.len()).find(|&k| !place(k));
    v.is_punct(at + 1, "{")
        && wide.iter().any(|f| v.is_ident(at + 2, f))
        && v.is_punct(at + 3, "(")
        && close.is_some_and(|k| v.is_punct(k, ")") && v.is_punct(k + 1, "}"))
}

/// Does the `unsafe` at `at` sit in the expression of an
/// `Instance::Avx2 =>` match arm? Walking back, the first `=>` at the
/// outermost nesting level reached so far is the arm it belongs to.
fn in_avx2_arm(v: &View, at: usize) -> bool {
    let (mut level, mut floor) = (0i32, 0i32);
    for ci in (5..at).rev() {
        match v.text(ci) {
            ")" | "]" | "}" => level += 1,
            "(" | "[" | "{" => {
                level -= 1;
                floor = floor.min(level);
            }
            ">" if level == floor && v.is_punct(ci - 1, "=") => {
                return (ci - 5..ci - 1)
                    .map(|k| v.text(k))
                    .eq(["Instance", ":", ":", "Avx2"]);
            }
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::check_file;

    fn lines(src: &str) -> Vec<usize> {
        let f = SourceFile::new("crates/tensor/src/x.rs".into(), src.into());
        let mut out = Vec::new();
        check_file(&f, &Context::with_names(Vec::new()), &mut out);
        out.iter()
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
    fn wide_code_rounds_as_the_portable_code_and_takes_no_pointer() {
        let src = "#[target_feature(enable = \"avx2\")]\nfn w() {\n    let s = _mm256_add_pd(a, b);\n    let t = _mm256_broadcastsd_pd(c);\n}\n\
                   #[target_feature(enable = \"avx2,fma\")]\nfn x() {\n    let s = a.mul_add(b, c);\n    let t = _mm256_fmadd_pd(a, b, c);\n\
                   let u = _mm256_loadu_pd;\n    _mm256_storeu_si256(p, v);\n    let b = _mm256_broadcast_sd(&y);\n    _mm_maskmoveu_si128(a, m, p);\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { let _ = 1.0f64.mul_add(2.0, 3.0); }\n}\n";
        assert_eq!(lines(src), [6, 8, 9, 10, 11, 12, 13]);
    }
}
