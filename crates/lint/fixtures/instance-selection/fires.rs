//# path: crates/tensor/src/fake_wide.rs
// Fixture: a wide body entered from a portable arm, entered outside any
// match, built for a second feature, fused and reading through pointers,
// Avx2-arm blocks that do more than enter a wide fn, an AVX-512 body
// entered from an arm of an instance without AVX-512, and a feature
// string that is neither set.

pub fn dot(inst: Instance, a: &[f64], b: &[f64]) -> f64 {
    match inst {
        Instance::Avx2 => dot_portable(a, b),
        _ => unsafe { dot_avx2(a, b) }, //~ instance-selection
    }
}

pub fn norm(a: &[f64]) -> f64 {
    unsafe { dot_avx2(a, a) } //~ instance-selection
}

pub unsafe fn raw(p: *const f64) -> f64 { //~ instance-selection
    *p
}

pub fn first(inst: Instance, a: &[f64]) -> f64 {
    match inst {
        Instance::Avx2 => unsafe { *a.as_ptr() }, //~ instance-selection
        Instance::Portable => a[0],
    }
}

pub fn tail(inst: Instance, a: &[f64]) -> f64 {
    match inst {
        Instance::Avx2 => unsafe { sum_avx2(a.get_unchecked(1..)) }, //~ instance-selection
        _ => a[1..].iter().sum(),
    }
}

pub fn both(inst: Instance, a: &[f64], b: &[f64]) -> f64 {
    match inst {
        Instance::Avx2 => unsafe { dot_avx2(a, b) }, //~ instance-selection
        _ => dot_portable(a, b),
    }
}

#[target_feature(enable = "avx2,fma")] //~ instance-selection
fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    let acc = _mm256_fmadd_pd(x, y, z); //~ instance-selection
    let v = _mm256_loadu_pd(a.as_ptr()); //~ instance-selection
    let w = _mm256_broadcast_sd(&b[0]); //~ instance-selection
    a[0].mul_add(b[0], 0.0) //~ instance-selection
}

#[target_feature(enable = "avx2")]
fn sum_avx2(a: &[f64]) -> f64 {
    horizontal(a)
}

pub fn wider(inst: Instance, a: &[f64]) -> f64 {
    match inst {
        Instance::Avx2 => unsafe { sum_avx512(a) }, //~ instance-selection
        Instance::Avx512 => unsafe { sum_avx512(a) },
        Instance::Portable => a.iter().sum(),
    }
}

#[target_feature(enable = "avx512f,avx512dq")]
fn sum_avx512(a: &[f64]) -> f64 {
    horizontal(a)
}

#[target_feature(enable = "avx512f")] //~ instance-selection
fn sum_avx512f(a: &[f64]) -> f64 {
    horizontal(a)
}
