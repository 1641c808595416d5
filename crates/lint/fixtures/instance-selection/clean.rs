//# path: crates/tensor/src/fake_wide_clean.rs
// Fixture: the one shape a wide body is entered by — an `unsafe` block in
// an arm of instances that have the body's features (`Instance::Avx2`, or
// `Instance::Avx2 | Instance::Avx512` for an AVX2 body, `Instance::Avx512`
// for an AVX-512 one) that calls one of the file's wide fns on plain
// places, as the arm's body or inside a closure there —
// with register-only intrinsics and separate multiply and add.

pub fn dot(inst: Instance, a: &[f64], b: &[f64]) -> f64 {
    match inst {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `current` yields `Avx2` only where the CPU reported it.
        Instance::Avx2 => unsafe { dot_avx2(a, b) },
        _ => a.iter().zip(b).map(|(x, y)| x * y).sum(),
    }
}

pub fn rows(inst: Instance, jobs: Vec<Job>) {
    match inst {
        Instance::Avx2 => jobs.into_iter().for_each(|(s, o)| unsafe { rows_avx2(s, o) }),
        _ => jobs.into_iter().for_each(|(s, o)| rows_portable(s, o)),
    }
}

#[target_feature(enable = "avx2")]
fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    let v = _mm256_set_pd(a[3], a[2], a[1], a[0]);
    let w = _mm256_broadcastsd_pd(_mm_set_sd(b[0]));
    let s = _mm256_add_pd(_mm256_mul_pd(v, w), v);
    // A comment naming mul_add or unsafe is not code.
    horizontal(s)
}

pub fn sum(inst: Instance, a: &[f64]) -> f64 {
    match inst {
        Instance::Avx512 => unsafe { sum_avx512(a) },
        Instance::Avx2 | Instance::Avx512 => unsafe { dot_avx2(a, a) },
        Instance::Portable => a.iter().sum(),
    }
}

#[target_feature(enable = "avx512f,avx512dq")]
fn sum_avx512(a: &[f64]) -> f64 {
    let v = _mm512_set1_pd(a[0]);
    let s = _mm512_add_pd(_mm512_mul_pd(v, v), v);
    horizontal(s)
}

#[target_feature(enable = "avx2")]
fn rows_avx2(strips: Range<usize>, out: &mut [f32]) {
    rows_portable(strips, out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fused_oracle() {
        assert_eq!(2.0f64.mul_add(3.0, 1.0), 7.0);
        let _ = unsafe { std::ptr::read(&1u8) };
    }
}
