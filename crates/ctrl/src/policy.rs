//! Policy vocabulary: compressor families, concrete settings, the
//! fidelity ladder, candidate priors, and the controller configuration.

/// The compressor families the controller can select between. `None` is
/// the warmup identity; the other three are structurally different
/// design points (error-bounded filter+SR, fixed-rate quantization,
/// low-rank factorization), which is what makes switching worthwhile.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Identity (uncompressed) — warmup and last-resort fidelity.
    None,
    /// COMPSO filter + stochastic-rounding quantization (chunked path).
    Compso,
    /// QSGD fixed-rate quantization with Elias-gamma coding.
    Qsgd,
    /// PowerSGD rank-r low-rank power iteration.
    PowerSgd,
}

impl Family {
    /// Lowercase display name.
    pub fn name(&self) -> &'static str {
        match self {
            Family::None => "none",
            Family::Compso => "compso",
            Family::Qsgd => "qsgd",
            Family::PowerSgd => "powersgd",
        }
    }
}

/// One concrete operating point: a family plus its knobs. Unused knobs
/// stay zero so settings compare exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Setting {
    /// Compressor family.
    pub family: Family,
    /// Quantization bit width (QSGD; 0 elsewhere).
    pub bits: u8,
    /// Filter/quantizer error bound (COMPSO; 0.0 elsewhere).
    pub threshold: f64,
    /// Factor rank (PowerSGD; 0 elsewhere).
    pub rank: u8,
}

impl Setting {
    /// The warmup identity setting.
    pub fn uncompressed() -> Self {
        Setting {
            family: Family::None,
            bits: 0,
            threshold: 0.0,
            rank: 0,
        }
    }

    /// COMPSO at error bound `threshold` (aggressive filter + SR).
    pub fn compso(threshold: f64) -> Self {
        Setting {
            family: Family::Compso,
            bits: 0,
            threshold,
            rank: 0,
        }
    }

    /// QSGD at `bits` bits per value.
    pub fn qsgd(bits: u8) -> Self {
        Setting {
            family: Family::Qsgd,
            bits,
            threshold: 0.0,
            rank: 0,
        }
    }

    /// PowerSGD at rank `rank`.
    pub fn powersgd(rank: u8) -> Self {
        Setting {
            family: Family::PowerSgd,
            bits: 0,
            threshold: 0.0,
            rank,
        }
    }

    /// The next rung up the fidelity ladder — what the controller backs
    /// off to when error feedback diverges under this setting. Each rung
    /// strictly lowers the expected compression error; the ladder
    /// terminates at the identity, which cannot diverge.
    pub(crate) fn higher_fidelity(&self) -> Setting {
        match self.family {
            Family::None => *self,
            // Quartering the error bound tightens both filter and
            // quantizer; below 1e-4 the ratio is gone, go uncompressed.
            Family::Compso => {
                if self.threshold > 1e-4 {
                    Setting::compso(self.threshold / 4.0)
                } else {
                    Setting::uncompressed()
                }
            }
            Family::Qsgd => {
                if self.bits < 8 {
                    Setting::qsgd(8)
                } else {
                    Setting::uncompressed()
                }
            }
            Family::PowerSgd => {
                if self.rank < 16 {
                    Setting::powersgd((self.rank.max(1)) * 2)
                } else {
                    Setting::uncompressed()
                }
            }
        }
    }

    /// Human-readable label for traces and logs.
    pub fn label(&self) -> String {
        match self.family {
            Family::None => "none".to_string(),
            Family::Compso => format!("compso(eb={:.0e})", self.threshold),
            Family::Qsgd => format!("qsgd({}bit)", self.bits),
            Family::PowerSgd => format!("powersgd(r{})", self.rank),
        }
    }
}

/// A selectable operating point plus its model priors: the estimate the
/// controller holds *before* it has measured the candidate. Priors come
/// from the §4.4 IterationModel / offline `CompressorProfile`s; once a
/// candidate has run, measurements replace them via EMA.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// The operating point.
    pub setting: Setting,
    /// Predicted compression ratio (orig bytes ÷ wire bytes).
    pub prior_cr: f64,
    /// Predicted encode throughput in arbitrary-but-consistent units
    /// (bytes/ns works); only products and ratios matter.
    pub prior_tput: f64,
}

impl Candidate {
    /// Builds a candidate from a setting and its model priors.
    pub fn new(setting: Setting, prior_cr: f64, prior_tput: f64) -> Self {
        Candidate {
            setting,
            prior_cr,
            prior_tput,
        }
    }
}

/// Controller phase (see the crate-level state machine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Holding the identity compressor while gradients stabilize.
    Warmup,
    /// Measuring, exploring, and switching on sustained margins.
    Steady,
    /// Temporarily pinned to a higher-fidelity rung after divergence.
    Backoff,
}

/// Controller configuration. Everything is deterministic; `seed` only
/// offsets the exploration cadence so fleets don't probe in lockstep.
#[derive(Clone, Debug)]
pub struct ControlConfig {
    /// Steps held uncompressed before the first compressed setting.
    pub warmup_steps: u64,
    /// Steps between switch evaluations in `Steady`.
    pub eval_every: u64,
    /// Consecutive losing evaluations before a switch commits.
    pub patience: u32,
    /// Relative margin an alternative's CR×throughput product must hold
    /// over the active one to count an evaluation as "losing".
    pub switch_margin: f64,
    /// Measured relative compression error above which error feedback is
    /// considered diverging.
    pub divergence_ceiling: f64,
    /// Steps spent pinned to the backoff rung before re-selection.
    pub backoff_steps: u64,
    /// Penalty factor applied to a diverging candidate's estimated
    /// product on backoff entry (0.5 halves it).
    pub divergence_penalty: f64,
    /// Measured wall ÷ model-predicted wall above which the step counts
    /// as a model mismatch (forces an immediate evaluation).
    pub model_mistrust: f64,
    /// EMA weight of the newest measurement (0 < ema ≤ 1).
    pub ema: f64,
    /// Every `explore_every`-th evaluation probes an unobserved
    /// candidate instead of exploiting; 0 disables exploration.
    pub explore_every: u64,
    /// Offsets the exploration cadence deterministically.
    pub seed: u64,
    /// The selectable operating points with their model priors.
    pub candidates: Vec<Candidate>,
}

impl ControlConfig {
    /// A reasonable default ladder over all four families. Priors are
    /// deliberately conservative (well under typical measured products)
    /// so measurements, not priors, decide the winner once exploration
    /// has visited a candidate.
    pub(crate) fn default_candidates() -> Vec<Candidate> {
        vec![
            Candidate::new(Setting::compso(4e-3), 5.0, 1.0),
            Candidate::new(Setting::compso(4e-2), 8.0, 1.0),
            Candidate::new(Setting::qsgd(8), 4.0, 1.0),
            Candidate::new(Setting::qsgd(4), 6.0, 1.0),
            Candidate::new(Setting::powersgd(4), 10.0, 1.0),
        ]
    }
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            warmup_steps: 20,
            eval_every: 10,
            patience: 2,
            switch_margin: 0.15,
            divergence_ceiling: 0.9,
            backoff_steps: 20,
            divergence_penalty: 0.5,
            model_mistrust: 1.5,
            ema: 0.3,
            explore_every: 3,
            seed: 0,
            candidates: ControlConfig::default_candidates(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_ladder_terminates_at_identity() {
        for start in [
            Setting::compso(4e-2),
            Setting::qsgd(4),
            Setting::powersgd(2),
            Setting::uncompressed(),
        ] {
            let mut s = start;
            for _ in 0..64 {
                s = s.higher_fidelity();
            }
            assert_eq!(s.family, Family::None, "from {}", start.label());
            assert_eq!(s.higher_fidelity(), s, "identity is a fixed point");
        }
    }

    #[test]
    fn ladder_strictly_tightens() {
        let c = Setting::compso(4e-3);
        assert!(c.higher_fidelity().threshold < c.threshold);
        let q = Setting::qsgd(4);
        assert_eq!(q.higher_fidelity().bits, 8);
        let p = Setting::powersgd(4);
        assert_eq!(p.higher_fidelity().rank, 8);
    }

    #[test]
    fn labels_are_distinct() {
        let all = [
            Setting::uncompressed(),
            Setting::compso(4e-3),
            Setting::qsgd(8),
            Setting::powersgd(4),
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
    }
}
