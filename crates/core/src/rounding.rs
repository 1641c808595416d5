//! Rounding modes for quantization (§2.3 and §4.2 of the paper).
//!
//! Three modes are analyzed in the paper:
//!
//! * **RN** — deterministic round-to-nearest (used by SZ). Error on a bin
//!   of width `w` is uniform on `[-w/2, w/2]`.
//! * **SR** — stochastic rounding (Eq. 4, used by QSGD and COMPSO): round
//!   up with probability equal to the fractional position inside the bin.
//!   Unbiased (`E[round(x)] = x`); error on a bin of width `w` is
//!   *triangular* on `(-w, w)` over a distribution of inputs.
//! * **P0.5** — "mode-2 SR": round up/down with probability ½ regardless
//!   of position. Non-deterministic but *biased per-value* and its error
//!   is uniform — the control experiment showing that it is the error
//!   *shape*, not mere non-determinism, that preserves accuracy.

use compso_tensor::rng::Rng;

/// The rounding rule applied to a real-valued bin coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RoundingMode {
    /// Deterministic round-to-nearest.
    Nearest,
    /// Stochastic rounding, Eq. 4.
    Stochastic,
    /// Equal-probability up/down rounding ("mode-2 SR" of Croci et al.).
    HalfProbability,
}

impl RoundingMode {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            RoundingMode::Nearest => "RN",
            RoundingMode::Stochastic => "SR",
            RoundingMode::HalfProbability => "P0.5",
        }
    }

    /// Rounds a bin coordinate `x` (value expressed in units of the bin
    /// width) to an integer bin index.
    #[inline]
    pub(crate) fn round(self, x: f64, rng: &mut Rng) -> i64 {
        match self {
            RoundingMode::Nearest => x.round_ties_even() as i64,
            RoundingMode::Stochastic => {
                let floor = x.floor();
                let p = x - floor; // probability of rounding up (Eq. 4)
                if rng.uniform_f64() < p {
                    floor as i64 + 1
                } else {
                    floor as i64
                }
            }
            RoundingMode::HalfProbability => {
                let floor = x.floor();
                if x == floor {
                    return floor as i64; // exact grid point: no choice to make
                }
                if rng.uniform_f64() < 0.5 {
                    floor as i64 + 1
                } else {
                    floor as i64
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compso_tensor::stats::{classify_error_shape, ErrorShape};

    #[test]
    fn nearest_is_deterministic_and_bounded() {
        let mut rng = Rng::new(1);
        for &(x, want) in &[(0.4, 0i64), (0.6, 1), (-0.4, 0), (-0.6, -1), (2.0, 2)] {
            assert_eq!(RoundingMode::Nearest.round(x, &mut rng), want, "x={x}");
        }
    }

    #[test]
    fn stochastic_rounds_to_adjacent_integers_only() {
        let mut rng = Rng::new(2);
        for i in 0..10_000 {
            let x = -5.0 + (i as f64) * 0.001;
            let r = RoundingMode::Stochastic.round(x, &mut rng);
            assert!(r == x.floor() as i64 || r == x.ceil() as i64, "x={x} r={r}");
        }
    }

    #[test]
    fn stochastic_is_unbiased() {
        let mut rng = Rng::new(3);
        let x = 2.3;
        let n = 200_000;
        let mean: f64 = (0..n)
            .map(|_| RoundingMode::Stochastic.round(x, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - x).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn half_probability_is_biased_toward_half() {
        // P0.5 rounds x=2.9 up only half the time -> expectation 2.5, not 2.9.
        let mut rng = Rng::new(4);
        let x = 2.9;
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| RoundingMode::HalfProbability.round(x, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 2.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn exact_integers_are_preserved_by_all_modes() {
        let mut rng = Rng::new(5);
        for m in [
            RoundingMode::Nearest,
            RoundingMode::Stochastic,
            RoundingMode::HalfProbability,
        ] {
            for x in [-3.0, 0.0, 7.0] {
                for _ in 0..100 {
                    assert_eq!(m.round(x, &mut rng), x as i64, "{m:?} x={x}");
                }
            }
        }
    }

    /// The paper's Figure 5 claim, as a unit test: RN error over random
    /// inputs is uniform; SR error is triangular.
    #[test]
    fn error_shapes_match_paper_figure5() {
        let mut rng = Rng::new(6);
        let n = 300_000;
        let mut rn_errors = Vec::with_capacity(n);
        let mut sr_errors = Vec::with_capacity(n);
        let mut p5_errors = Vec::with_capacity(n);
        for _ in 0..n {
            let x = rng.range_f32(-100.0, 100.0) as f64;
            rn_errors.push((RoundingMode::Nearest.round(x, &mut rng) as f64 - x) as f32);
            sr_errors.push((RoundingMode::Stochastic.round(x, &mut rng) as f64 - x) as f32);
            p5_errors.push((RoundingMode::HalfProbability.round(x, &mut rng) as f64 - x) as f32);
        }
        let (rn_shape, ..) = classify_error_shape(&rn_errors, 0.5, 16);
        assert_eq!(rn_shape, ErrorShape::Uniform);
        let (sr_shape, ..) = classify_error_shape(&sr_errors, 1.0, 16);
        assert_eq!(sr_shape, ErrorShape::Triangular);
        let (p5_shape, ..) = classify_error_shape(&p5_errors, 1.0, 16);
        assert_eq!(p5_shape, ErrorShape::Uniform);
    }

    #[test]
    fn rounding_error_is_bounded_by_one_bin() {
        let mut rng = Rng::new(7);
        for m in [
            RoundingMode::Nearest,
            RoundingMode::Stochastic,
            RoundingMode::HalfProbability,
        ] {
            for _ in 0..50_000 {
                let x = rng.range_f32(-50.0, 50.0) as f64;
                let r = m.round(x, &mut rng) as f64;
                let bound = if m == RoundingMode::Nearest { 0.5 } else { 1.0 };
                assert!((r - x).abs() <= bound + 1e-9, "{m:?}: x={x} r={r}");
            }
        }
    }
}
