//! Iteration-wise adaptive compression (Alg. 1, lines 5–24).
//!
//! The error bounds follow the learning-rate schedule: while the LR is
//! still high (early training), errors are cheap — compress aggressively
//! with filter + SR at loose bounds; as the LR decays and steps become
//! precise, switch to conservative SR-only compression at tight bounds.
//!
//! * **StepLR**: loose bounds until the first LR drop, tight after.
//! * **SmoothLR** (cosine-style): training is split into `z` stages; stage
//!   0 is aggressive, later stages decay both bounds by `α` per stage and
//!   drop the filter.

use crate::kernels::CompsoConfig;
use crate::rounding::RoundingMode;

/// Which learning-rate schedule the training run uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LrScheduleKind {
    /// LR drops by a factor at fixed iterations; `first_drop` is the first.
    Step { first_drop: usize },
    /// LR decays smoothly; compression runs in `stages` stages over
    /// `total_iters`, each decaying the bounds by `decay`.
    Smooth {
        total_iters: usize,
        stages: usize,
        decay: f32,
    },
}

/// The strategy selected for one iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CompressionStrategy {
    /// Filter + SR at the given (filter, quantizer) bounds.
    Aggressive { eb_filter: f32, eb_quant: f32 },
    /// SR only at the given quantizer bound.
    Conservative { eb_quant: f32 },
}

impl CompressionStrategy {
    /// Materializes the strategy as a pipeline configuration.
    pub fn to_config(self, mode: RoundingMode) -> CompsoConfig {
        match self {
            CompressionStrategy::Aggressive {
                eb_filter,
                eb_quant,
            } => CompsoConfig {
                eb_filter: Some(eb_filter),
                eb_quant,
                mode,
                codec: CompsoConfig::default().codec,
            },
            CompressionStrategy::Conservative { eb_quant } => CompsoConfig {
                eb_filter: None,
                eb_quant,
                mode,
                codec: CompsoConfig::default().codec,
            },
        }
    }

    /// The quantizer bound in effect.
    #[cfg(test)]
    pub fn eb_quant(self) -> f32 {
        match self {
            CompressionStrategy::Aggressive { eb_quant, .. } => eb_quant,
            CompressionStrategy::Conservative { eb_quant } => eb_quant,
        }
    }

    /// True when the filter branch is active.
    #[cfg(test)]
    pub(crate) fn is_aggressive(self) -> bool {
        matches!(self, CompressionStrategy::Aggressive { .. })
    }
}

/// The iteration→bounds schedule of Alg. 1.
#[derive(Clone, Copy, Debug)]
pub struct BoundSchedule {
    /// The LR schedule this run follows.
    pub kind: LrScheduleKind,
    /// Loose (early-training) bounds: `(eb_filter, eb_quant)`.
    pub loose: (f32, f32),
    /// Tight (late-training) quantizer bound.
    pub tight: f32,
}

impl BoundSchedule {
    /// The paper's ResNet-50/Mask R-CNN setting: aggressive at 4E-3 before
    /// the first StepLR drop, conservative at 2E-3 after.
    pub fn step_paper(first_drop: usize) -> Self {
        BoundSchedule {
            kind: LrScheduleKind::Step { first_drop },
            loose: (4e-3, 4e-3),
            tight: 2e-3,
        }
    }

    /// The paper's BERT/GPT setting: `z` stages over `total_iters`,
    /// refining from 4E-3 toward 2E-3.
    pub fn smooth_paper(total_iters: usize, stages: usize) -> Self {
        // α chosen so the bound reaches `tight` by the final stage.
        let decay = if stages > 1 {
            (2e-3f32 / 4e-3).powf(1.0 / (stages as f32 - 1.0))
        } else {
            1.0
        };
        BoundSchedule {
            kind: LrScheduleKind::Smooth {
                total_iters,
                stages,
                decay,
            },
            loose: (4e-3, 4e-3),
            tight: 2e-3,
        }
    }

    /// Strategy in effect at iteration `t` (Alg. 1's bound-adjustment
    /// block).
    pub fn strategy_at(&self, t: usize) -> CompressionStrategy {
        match self.kind {
            LrScheduleKind::Step { first_drop } => {
                if t < first_drop {
                    CompressionStrategy::Aggressive {
                        eb_filter: self.loose.0,
                        eb_quant: self.loose.1,
                    }
                } else {
                    CompressionStrategy::Conservative {
                        eb_quant: self.tight,
                    }
                }
            }
            LrScheduleKind::Smooth {
                total_iters,
                stages,
                decay,
            } => {
                let stage_len = total_iters.div_ceil(stages.max(1)).max(1);
                let stage = (t / stage_len).min(stages.saturating_sub(1));
                if stage == 0 {
                    CompressionStrategy::Aggressive {
                        eb_filter: self.loose.0,
                        eb_quant: self.loose.1,
                    }
                } else {
                    let eb = self.loose.1 * decay.powi(stage as i32);
                    CompressionStrategy::Conservative {
                        eb_quant: eb.max(self.tight.min(self.loose.1)),
                    }
                }
            }
        }
    }

    /// Pipeline configuration at iteration `t` with SR rounding.
    pub fn config_at(&self, t: usize) -> CompsoConfig {
        self.strategy_at(t).to_config(RoundingMode::Stochastic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_schedule_switches_at_first_drop() {
        let s = BoundSchedule::step_paper(650);
        assert!(s.strategy_at(0).is_aggressive());
        assert!(s.strategy_at(649).is_aggressive());
        assert!(!s.strategy_at(650).is_aggressive());
        assert!(!s.strategy_at(10_000).is_aggressive());
    }

    #[test]
    fn step_bounds_match_paper_numbers() {
        let s = BoundSchedule::step_paper(650);
        assert_eq!(
            s.strategy_at(0),
            CompressionStrategy::Aggressive {
                eb_filter: 4e-3,
                eb_quant: 4e-3
            }
        );
        assert_eq!(
            s.strategy_at(650),
            CompressionStrategy::Conservative { eb_quant: 2e-3 }
        );
    }

    #[test]
    fn smooth_schedule_has_monotone_nonincreasing_bounds() {
        let s = BoundSchedule::smooth_paper(1000, 4);
        let mut prev = f32::INFINITY;
        for t in (0..1000).step_by(50) {
            let eb = s.strategy_at(t).eb_quant();
            assert!(eb <= prev * 1.0001, "t={t}: {eb} > {prev}");
            prev = eb;
        }
    }

    #[test]
    fn smooth_schedule_reaches_tight_bound_by_final_stage() {
        let s = BoundSchedule::smooth_paper(1000, 4);
        let final_eb = s.strategy_at(999).eb_quant();
        assert!((final_eb - 2e-3).abs() < 2e-4, "final eb {final_eb}");
    }

    #[test]
    fn smooth_first_stage_is_aggressive_rest_conservative() {
        let s = BoundSchedule::smooth_paper(1000, 4);
        assert!(s.strategy_at(0).is_aggressive());
        assert!(s.strategy_at(249).is_aggressive());
        assert!(!s.strategy_at(250).is_aggressive());
        assert!(!s.strategy_at(999).is_aggressive());
    }

    #[test]
    fn iterations_beyond_total_stay_in_last_stage() {
        let s = BoundSchedule::smooth_paper(1000, 4);
        assert_eq!(
            s.strategy_at(999).eb_quant(),
            s.strategy_at(100_000).eb_quant()
        );
    }

    #[test]
    fn config_materialization() {
        let s = BoundSchedule::step_paper(10);
        let early = s.config_at(0);
        assert_eq!(early.eb_filter, Some(4e-3));
        assert_eq!(early.mode, RoundingMode::Stochastic);
        let late = s.config_at(10);
        assert_eq!(late.eb_filter, None);
        assert_eq!(late.eb_quant, 2e-3);
    }

    #[test]
    fn single_stage_smooth_degenerates_gracefully() {
        let s = BoundSchedule::smooth_paper(100, 1);
        assert!(s.strategy_at(0).is_aggressive());
        assert!(s.strategy_at(99).is_aggressive());
    }
}
