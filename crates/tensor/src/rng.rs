//! Deterministic pseudo-random number generation.
//!
//! Stochastic rounding (the heart of COMPSO's quantizer) must be
//! reproducible across runs, platforms, and thread counts, so this crate
//! ships its own small PRNG rather than relying on an external crate whose
//! output stream may change between versions. The generator is
//! xoshiro256++ seeded through SplitMix64 — the standard construction
//! recommended by the xoshiro authors. `fork` derives statistically
//! independent streams, which lets each parallel compression chunk own a
//! deterministic generator regardless of rayon's scheduling order.

/// SplitMix64 step: used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator.
///
/// Not cryptographically secure; statistically strong and extremely fast,
/// which is what a compression kernel sampling one uniform per gradient
/// element needs.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the Box-Muller transform.
    spare_normal: Option<f64>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            spare_normal: None,
        }
    }

    /// Exports the full generator state — the xoshiro256++ word vector
    /// plus the cached Box-Muller spare — so a checkpointed stream can be
    /// resumed **bit-identically** mid-sequence. Inverse of
    /// [`Rng::from_state`].
    pub fn state(&self) -> ([u64; 4], Option<f64>) {
        (self.s, self.spare_normal)
    }

    /// Rebuilds a generator from a [`Rng::state`] export. The restored
    /// generator produces exactly the sequence the exported one would
    /// have produced, including the pending Box-Muller spare.
    pub fn from_state(s: [u64; 4], spare_normal: Option<f64>) -> Rng {
        Rng { s, spare_normal }
    }

    /// Derives an independent stream identified by `stream`.
    ///
    /// Two forks of the same generator with different stream ids produce
    /// uncorrelated sequences; forking is deterministic, so parallel code
    /// that forks by chunk index is reproducible under any scheduling.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut sm = self.s[0]
            .wrapping_mul(0xA24B_AED4_963E_E407)
            .wrapping_add(stream.wrapping_mul(0x9FB2_1C65_1E98_DF25));
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            spare_normal: None,
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Next 32-bit output (high bits of the 64-bit state, which are the
    /// strongest bits of xoshiro++).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)` with 24 bits of precision.
    #[inline]
    pub fn uniform_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform_f32()
    }

    /// Uniform integer in `[0, n)` using Lemire's multiply-shift rejection.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Rejection-free fast path is fine for our use (n never adversarial):
        // a single widening multiply has bias < 2^-64 * n, negligible here,
        // but we keep the standard rejection loop for exactness.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Standard normal sample via the Box-Muller transform (cached pair).
    pub fn normal_f64(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // u1 in (0,1] so ln(u1) is finite.
        let u1 = 1.0 - self.uniform_f64();
        let u2 = self.uniform_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * core::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Standard normal as `f32`.
    #[inline]
    pub fn normal_f32(&mut self) -> f32 {
        self.normal_f64() as f32
    }

    /// Fills `out` with standard-normal samples.
    pub fn fill_normal(&mut self, out: &mut [f32]) {
        for v in out {
            *v = self.normal_f32();
        }
    }

    /// Fills `out` with uniform samples in `[lo, hi)`.
    pub fn fill_uniform(&mut self, out: &mut [f32], lo: f32, hi: f32) {
        for v in out {
            *v = self.range_f32(lo, hi);
        }
    }

    /// Laplace(0, b) sample — used to synthesize gradient-like heavy-tailed
    /// data (DNN gradients are closer to Laplacian than Gaussian).
    pub fn laplace(&mut self, scale: f32) -> f32 {
        let u = self.uniform_f64() - 0.5;
        let s = if u < 0.0 { -1.0 } else { 1.0 };
        (-s * (1.0 - 2.0 * u.abs()).ln() * scale as f64) as f32
    }

    /// A Fisher-Yates shuffle of `xs`.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        let n = xs.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.below((i + 1) as u64) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let root = Rng::new(7);
        let mut f1 = root.fork(0);
        let mut f2 = root.fork(1);
        let mut f1b = root.fork(0);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        let overlap = (0..64).filter(|_| f1.next_u64() == f2.next_u64()).count();
        assert_eq!(overlap, 0);
    }

    #[test]
    fn state_roundtrip_is_bit_identical_mid_stream() {
        let mut a = Rng::new(314);
        // Consume an odd number of normals so a Box-Muller spare is cached.
        for _ in 0..7 {
            let _ = a.normal_f64();
        }
        let (s, spare) = a.state();
        assert!(spare.is_some(), "odd normal count must cache a spare");
        let mut b = Rng::from_state(s, spare);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(a.normal_f64().to_bits(), b.normal_f64().to_bits());
    }

    #[test]
    fn uniform_in_range() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.uniform_f32();
            assert!((0.0..1.0).contains(&x));
            let y = r.range_f32(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&y));
        }
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut r = Rng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(5);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal_f64()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::new(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(13);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn laplace_is_symmetric_heavy_tailed() {
        let mut r = Rng::new(23);
        let n = 100_000;
        let xs: Vec<f32> = (0..n).map(|_| r.laplace(1.0)).collect();
        let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        // Var of Laplace(0,1) is 2.
        let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((var - 2.0).abs() < 0.1, "var {var}");
    }
}
