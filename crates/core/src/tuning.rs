//! Threshold auto-tuning (the paper's future-work item §7-1: "precisely
//! optimizing filter thresholds and quantization error bounds, moving
//! beyond empirical settings").
//!
//! A grid search over (eb_f, eb_q) pairs on a gradient sample: maximize
//! compression ratio subject to a relative-L2 reconstruction-error
//! budget. The budget plays the role of the accuracy proxy — §4.2
//! established that (for a fixed SR error shape) smaller reconstruction
//! error preserves accuracy better, so bounding it bounds the accuracy
//! impact.

use crate::kernels::{ChunkedCompso, CompsoConfig};
use crate::rounding::RoundingMode;
use crate::traits::Compressor;
use compso_tensor::rng::Rng;

/// The search space and constraint.
#[derive(Clone, Debug)]
pub struct TuningGrid {
    /// Candidate filter bounds (relative); `None` is always tried too.
    pub filter_bounds: Vec<f32>,
    /// Candidate quantizer bounds (relative).
    pub quant_bounds: Vec<f32>,
    /// Constraint: `‖x − x̂‖₂ / ‖x‖₂` must stay below this.
    pub max_rel_l2: f64,
}

impl Default for TuningGrid {
    fn default() -> Self {
        TuningGrid {
            filter_bounds: vec![1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2],
            quant_bounds: vec![1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2],
            max_rel_l2: 0.20,
        }
    }
}

/// The tuner's verdict.
#[derive(Clone, Copy, Debug)]
pub struct TunedBounds {
    /// The winning configuration (SR rounding, default codec).
    pub config: CompsoConfig,
    /// Its measured compression ratio on the sample.
    pub ratio: f64,
    /// Its measured relative L2 error on the sample.
    pub rel_l2: f64,
}

/// Grid-searches (eb_f, eb_q) on `sample`, returning the
/// highest-ratio configuration within the error budget. Falls back to
/// the tightest configuration if nothing satisfies the budget.
pub fn tune_bounds(sample: &[f32], grid: &TuningGrid, seed: u64) -> TunedBounds {
    assert!(!sample.is_empty(), "tuner needs a gradient sample");
    let norm = compso_tensor::reduce::l2_norm(sample).max(1e-30);
    let mut best: Option<TunedBounds> = None;
    let mut tightest: Option<TunedBounds> = None;

    let mut candidates: Vec<(Option<f32>, f32)> = Vec::new();
    for &ebq in &grid.quant_bounds {
        candidates.push((None, ebq));
        for &ebf in &grid.filter_bounds {
            candidates.push((Some(ebf), ebq));
        }
    }

    for (ebf, ebq) in candidates {
        let config = CompsoConfig {
            eb_filter: ebf,
            eb_quant: ebq,
            mode: RoundingMode::Stochastic,
            codec: CompsoConfig::default().codec,
        };
        let compso = ChunkedCompso::new(config);
        let mut rng = Rng::new(seed);
        let bytes = compso.compress(sample, &mut rng);
        let back = compso
            .decompress(&bytes)
            .expect("self-compressed sample must decode");
        let err: f64 = sample
            .iter()
            .zip(&back)
            .map(|(&a, &b)| ((a - b) as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        let rel_l2 = err / norm;
        let ratio = (sample.len() * 4) as f64 / bytes.len().max(1) as f64;
        let verdict = TunedBounds {
            config,
            ratio,
            rel_l2,
        };
        if rel_l2 <= grid.max_rel_l2 && best.is_none_or(|b| ratio > b.ratio) {
            best = Some(verdict);
        }
        if tightest.is_none_or(|t| rel_l2 < t.rel_l2) {
            tightest = Some(verdict);
        }
    }
    best.or(tightest).expect("grid cannot be empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, GradientProfile};

    #[test]
    fn tuned_config_respects_budget() {
        let data = generate(200_000, 1, GradientProfile::kfac());
        let grid = TuningGrid::default();
        let tuned = tune_bounds(&data, &grid, 2);
        assert!(tuned.rel_l2 <= grid.max_rel_l2, "rel_l2 {}", tuned.rel_l2);
        assert!(tuned.ratio > 1.0);
    }

    #[test]
    fn tuner_beats_or_matches_tightest_setting() {
        let data = generate(200_000, 3, GradientProfile::kfac());
        let grid = TuningGrid::default();
        let tuned = tune_bounds(&data, &grid, 4);
        // The tightest grid point is (no filter, 1e-3): the tuner must
        // find at least that ratio.
        let tight = ChunkedCompso::new(CompsoConfig::conservative(1e-3));
        let mut rng = Rng::new(4);
        let tight_ratio = tight.ratio(&data, &mut rng);
        assert!(
            tuned.ratio >= tight_ratio * 0.99,
            "tuned {} vs tight {}",
            tuned.ratio,
            tight_ratio
        );
    }

    #[test]
    fn stricter_budget_yields_tighter_bounds() {
        let data = generate(200_000, 5, GradientProfile::kfac());
        let loose = tune_bounds(
            &data,
            &TuningGrid {
                max_rel_l2: 0.5,
                ..Default::default()
            },
            6,
        );
        let strict = tune_bounds(
            &data,
            &TuningGrid {
                max_rel_l2: 0.02,
                ..Default::default()
            },
            6,
        );
        assert!(strict.rel_l2 <= loose.rel_l2 + 1e-12);
        assert!(strict.ratio <= loose.ratio);
    }

    #[test]
    fn impossible_budget_falls_back_to_tightest() {
        let data = generate(50_000, 7, GradientProfile::kfac());
        let tuned = tune_bounds(
            &data,
            &TuningGrid {
                max_rel_l2: 0.0,
                ..Default::default()
            },
            8,
        );
        // Fallback is the minimum-error grid point.
        assert!(tuned.rel_l2 > 0.0);
        assert_eq!(tuned.config.eb_quant, 1e-3);
    }

    #[test]
    #[should_panic(expected = "tuner needs a gradient sample")]
    fn empty_sample_panics() {
        tune_bounds(&[], &TuningGrid::default(), 1);
    }
}
