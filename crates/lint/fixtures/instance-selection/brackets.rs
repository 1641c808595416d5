//# path: crates/tensor/src/fake_brackets.rs
// Fixture: brackets inside string, char, byte and raw-string literals,
// lifetimes, nested closures and a match arm block do not move which arm
// an `unsafe` sits in.

#[target_feature(enable = "avx2")]
fn scan_avx2<'a>(a: &'a [u8], out: &mut [u8]) {
    horizontal(a, out)
}

pub fn scan(inst: Instance, a: &[u8], out: &mut [u8]) {
    let label = "Instance::Avx2 => unsafe { scan_avx2(a, out) }";
    let brace = '}';
    match inst {
        Instance::Avx2 => {
            let ones = |x: &[u8]| x.iter().map(|b| { if *b == b'}' { 1 } else { 0 } }).sum::<u32>();
            let raw = r#"} ) ]"#;
            unsafe { scan_avx2(a, out) }
        }
        Instance::Portable => {
            let code = |c: char| match c { '{' => 1, _ => 0 };
            unsafe { scan_avx2(a, out) } //~ instance-selection
        }
        _ => portable(a, out),
    }
}
