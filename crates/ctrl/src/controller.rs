//! The online controller: measured signals in, decisions out, every
//! decision mirrored into registered `ctrl/*` counters and a bounded
//! decision trace.

use crate::policy::{ControlConfig, Phase, Setting};
use compso_obs::{names, Recorder};

/// Upper bound on the retained decision trace; runs long enough to hit
/// it still reconcile via the counters (`decisions` keeps counting).
const TRACE_CAP: usize = 65_536;

/// Measured signals for one observed step (or one layer-step when the
/// controller runs per layer). All fields are *measurements* — the
/// controller never reads clocks or randomness itself, which is what
/// makes its decision trace a pure function of the signal sequence.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Signals {
    /// Raw bytes entering the compressor this step.
    pub bytes_in: u64,
    /// Wire bytes leaving it (0 ⇒ no ratio measurement this step).
    pub bytes_out: u64,
    /// Measured compress+transfer wall for the step, nanoseconds
    /// (0 ⇒ no throughput measurement this step).
    pub wall_ns: u64,
    /// IterationModel-predicted wall for the active setting, nanoseconds
    /// (0 ⇒ no prediction available).
    pub predicted_wall_ns: u64,
    /// Measured relative compression error (‖decoded − original‖ ÷
    /// ‖original‖) or the compressor's error-feedback residual norm —
    /// the divergence signal.
    pub error_rel: f64,
}

/// Why a decision came out the way it did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reason {
    /// Warmup phase, holding the identity.
    WarmupHold,
    /// Warmup ended; first compressed setting installed.
    WarmupExit,
    /// Steady phase, no change.
    Hold,
    /// Divergence detected; fidelity ladder engaged.
    BackoffEnter,
    /// Pinned to the backoff rung, waiting out `backoff_steps`.
    BackoffHold,
    /// Backoff elapsed; steady selection resumed.
    BackoffExit,
    /// Exploration probe of a not-yet-measured candidate.
    Explore,
    /// Sustained-margin switch within the same family.
    SettingSwitch,
    /// Sustained-margin switch across families.
    FamilySwitch,
}

/// One controller decision: what was chosen, when, and why.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Decision {
    /// 0-based observed-step index.
    pub step: u64,
    /// The setting in force *after* this decision.
    pub setting: Setting,
    /// Phase after this decision.
    pub phase: Phase,
    /// Whether the setting changed.
    pub switched: bool,
    /// The rule that produced it.
    pub reason: Reason,
}

/// Running estimate of one candidate's CR×throughput product.
#[derive(Clone, Copy, Debug)]
struct Estimate {
    cr: f64,
    tput: f64,
    observed: bool,
}

impl Estimate {
    fn product(&self) -> f64 {
        self.cr * self.tput
    }
}

/// The per-layer/per-step adaptive compression controller.
pub struct Controller {
    cfg: ControlConfig,
    estimates: Vec<Estimate>,
    /// Index into `cfg.candidates` of the steady-state choice.
    active: usize,
    /// Overrides the candidate setting during `Backoff`.
    override_setting: Option<Setting>,
    phase: Phase,
    step: u64,
    evals: u64,
    losing: u32,
    backoff_until: u64,
    trace: Vec<Decision>,
    dropped_decisions: u64,
}

impl Controller {
    /// Builds a controller; panics if the config has no candidates.
    pub fn new(cfg: ControlConfig) -> Self {
        assert!(
            !cfg.candidates.is_empty(),
            "controller needs at least one candidate"
        );
        let estimates = cfg
            .candidates
            .iter()
            .map(|c| Estimate {
                cr: c.prior_cr,
                tput: c.prior_tput,
                observed: false,
            })
            .collect();
        Controller {
            estimates,
            active: 0,
            override_setting: None,
            phase: Phase::Warmup,
            step: 0,
            evals: 0,
            losing: 0,
            backoff_until: 0,
            trace: Vec::new(),
            dropped_decisions: 0,
            cfg,
        }
    }

    /// The setting currently in force.
    pub fn active_setting(&self) -> Setting {
        match self.phase {
            Phase::Warmup => Setting::uncompressed(),
            Phase::Backoff => self
                .override_setting
                .unwrap_or(self.cfg.candidates[self.active].setting),
            Phase::Steady => self.cfg.candidates[self.active].setting,
        }
    }

    /// The retained decision trace (capped at an internal bound; the
    /// decisions evicted past it are still counted).
    pub fn trace(&self) -> &[Decision] {
        &self.trace
    }

    /// Checks the decision trace against a (cumulative) set of `ctrl/*`
    /// counters: every trace-derived tally must equal its counter.
    /// Returns the first discrepancy as `(what, trace, counter)`.
    pub fn reconcile(&self, rec: &Recorder) -> Result<(), (&'static str, u64, u64)> {
        let tally =
            |f: &dyn Fn(&Decision) -> bool| self.trace.iter().filter(|d| f(d)).count() as u64;
        let checks: [(&'static str, u64, u64); 5] = [
            (
                "decisions",
                self.trace.len() as u64 + self.dropped_decisions,
                rec.counter(names::CTRL_DECISIONS),
            ),
            (
                "switches",
                tally(&|d| d.switched),
                rec.counter(names::CTRL_SWITCHES),
            ),
            (
                "warmup_exits",
                tally(&|d| d.reason == Reason::WarmupExit),
                rec.counter(names::CTRL_WARMUP_EXITS),
            ),
            (
                "backoffs",
                tally(&|d| d.reason == Reason::BackoffEnter),
                rec.counter(names::CTRL_BACKOFFS),
            ),
            (
                "warmup_steps",
                tally(&|d| d.reason == Reason::WarmupHold),
                rec.counter(names::CTRL_WARMUP_STEPS),
            ),
        ];
        for (what, from_trace, from_counter) in checks {
            if self.dropped_decisions == 0 && from_trace != from_counter {
                return Err((what, from_trace, from_counter));
            }
        }
        Ok(())
    }

    /// Feeds one step's measured signals and returns the decision. The
    /// counter side effects land in `rec`; pass
    /// `Recorder::disabled()` to run uninstrumented.
    pub fn observe(&mut self, sig: &Signals, rec: &Recorder) -> Decision {
        rec.incr(names::CTRL_DECISIONS);
        let step = self.step;
        self.step += 1;

        let before = self.active_setting();

        // Phase 1: warmup.
        if self.phase == Phase::Warmup {
            if step < self.cfg.warmup_steps {
                rec.incr(names::CTRL_WARMUP_STEPS);
                return self.push(rec, step, before, Reason::WarmupHold);
            }
            // Exit to the best prior product (ties → lowest index).
            self.phase = Phase::Steady;
            self.active = self.argmax_product();
            rec.incr(names::CTRL_WARMUP_EXITS);
            return self.push(rec, step, before, Reason::WarmupExit);
        }

        // Measurement update for the active candidate (only outside
        // backoff overrides: rung settings aren't candidates).
        let mismatch = sig.predicted_wall_ns > 0
            && sig.wall_ns as f64 > sig.predicted_wall_ns as f64 * self.cfg.model_mistrust;
        if self.phase == Phase::Steady {
            let est = &mut self.estimates[self.active];
            if sig.bytes_out > 0 {
                let cr = sig.bytes_in as f64 / sig.bytes_out as f64;
                est.cr = if est.observed {
                    est.cr + self.cfg.ema * (cr - est.cr)
                } else {
                    cr
                };
            }
            if sig.wall_ns > 0 && sig.bytes_in > 0 {
                let tput = sig.bytes_in as f64 / sig.wall_ns as f64;
                est.tput = if est.observed {
                    est.tput + self.cfg.ema * (tput - est.tput)
                } else {
                    tput
                };
            }
            if sig.bytes_out > 0 || sig.wall_ns > 0 {
                est.observed = true;
            }
        }

        // Divergence: engage the fidelity ladder.
        if sig.error_rel > self.cfg.divergence_ceiling {
            if self.phase == Phase::Steady {
                let rung = before.higher_fidelity();
                // Distrust the offender so re-selection won't bounce
                // straight back to it.
                let est = &mut self.estimates[self.active];
                est.cr *= self.cfg.divergence_penalty;
                self.phase = Phase::Backoff;
                self.override_setting = Some(rung);
                self.backoff_until = step + self.cfg.backoff_steps;
                rec.incr(names::CTRL_BACKOFFS);
                return self.push(rec, step, before, Reason::BackoffEnter);
            }
            // Already backing off and still diverging: extend the hold.
            self.backoff_until = step + self.cfg.backoff_steps;
        }

        // Phase 3: pinned to the backoff rung.
        if self.phase == Phase::Backoff {
            if step < self.backoff_until {
                return self.push(rec, step, before, Reason::BackoffHold);
            }
            self.phase = Phase::Steady;
            self.override_setting = None;
            self.active = self.argmax_product();
            self.losing = 0;
            return self.push(rec, step, before, Reason::BackoffExit);
        }

        // Phase 2: steady-state evaluation on the eval cadence (model
        // mismatch forces one immediately).
        let due = self.cfg.eval_every > 0 && step.is_multiple_of(self.cfg.eval_every);
        if !(due || mismatch) {
            return self.push(rec, step, before, Reason::Hold);
        }
        self.evals += 1;

        // Exploration: deterministically probe unobserved candidates so
        // priors get replaced by measurements.
        if self.cfg.explore_every > 0
            && (self.evals + self.cfg.seed).is_multiple_of(self.cfg.explore_every)
        {
            if let Some(idx) = self
                .estimates
                .iter()
                .position(|e| !e.observed)
                .filter(|&idx| idx != self.active)
            {
                self.active = idx;
                self.losing = 0;
                return self.push(rec, step, before, Reason::Explore);
            }
        }

        // Exploitation: sustained-margin switch.
        let best = self.argmax_product();
        let margin_beaten = best != self.active
            && self.estimates[best].product()
                > self.estimates[self.active].product() * (1.0 + self.cfg.switch_margin);
        if margin_beaten {
            self.losing += 1;
        } else {
            self.losing = 0;
        }
        if self.losing >= self.cfg.patience {
            self.losing = 0;
            let reason = if self.cfg.candidates[best].setting.family == before.family {
                Reason::SettingSwitch
            } else {
                Reason::FamilySwitch
            };
            self.active = best;
            return self.push(rec, step, before, reason);
        }
        self.push(rec, step, before, Reason::Hold)
    }

    /// Index of the best estimated CR×throughput product, ties broken by
    /// the lowest index (strict `>` keeps it deterministic).
    fn argmax_product(&self) -> usize {
        let mut best = 0usize;
        for (i, e) in self.estimates.iter().enumerate() {
            if e.product() > self.estimates[best].product() {
                best = i;
            }
        }
        best
    }

    /// Finalizes a decision: derives `switched` from the before/after
    /// settings, mirrors it into the counters, appends to the trace.
    fn push(&mut self, rec: &Recorder, step: u64, before: Setting, reason: Reason) -> Decision {
        let after = self.active_setting();
        let switched = after != before;
        if switched {
            rec.incr(names::CTRL_SWITCHES);
            if after.family != before.family {
                rec.incr(names::CTRL_FAMILY_SWITCHES);
            }
        }
        let d = Decision {
            step,
            setting: after,
            phase: self.phase,
            switched,
            reason,
        };
        if self.trace.len() < TRACE_CAP {
            self.trace.push(d);
        } else {
            self.dropped_decisions += 1;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Candidate, Family};

    fn cfg() -> ControlConfig {
        ControlConfig {
            warmup_steps: 4,
            eval_every: 2,
            patience: 2,
            switch_margin: 0.1,
            divergence_ceiling: 0.8,
            backoff_steps: 3,
            divergence_penalty: 0.5,
            model_mistrust: 1.5,
            ema: 0.5,
            explore_every: 0,
            seed: 0,
            candidates: vec![
                Candidate::new(Setting::compso(4e-3), 5.0, 1.0),
                Candidate::new(Setting::qsgd(8), 4.0, 1.0),
                Candidate::new(Setting::powersgd(4), 10.0, 1.0),
            ],
        }
    }

    fn quiet(bytes_out: u64, wall_ns: u64) -> Signals {
        Signals {
            bytes_in: 4000,
            bytes_out,
            wall_ns,
            predicted_wall_ns: 0,
            error_rel: 0.1,
        }
    }

    #[test]
    fn warmup_holds_then_exits_to_best_prior() {
        let rec = Recorder::enabled();
        let mut c = Controller::new(cfg());
        for i in 0..4 {
            let d = c.observe(&quiet(0, 0), &rec);
            assert_eq!(d.reason, Reason::WarmupHold, "step {i}");
            assert_eq!(d.setting, Setting::uncompressed());
            assert!(!d.switched);
        }
        let d = c.observe(&quiet(0, 0), &rec);
        assert_eq!(d.reason, Reason::WarmupExit);
        assert!(d.switched);
        // powersgd has the best prior product (10 × 1).
        assert_eq!(d.setting, Setting::powersgd(4));
        assert_eq!(rec.counter(names::CTRL_WARMUP_STEPS), 4);
        assert_eq!(rec.counter(names::CTRL_WARMUP_EXITS), 1);
        assert_eq!(rec.counter(names::CTRL_FAMILY_SWITCHES), 1);
        c.reconcile(&rec).unwrap();
    }

    #[test]
    fn measured_product_drop_switches_family_after_patience() {
        let rec = Recorder::enabled();
        let mut c = Controller::new(cfg());
        // Through warmup.
        for _ in 0..5 {
            c.observe(&quiet(0, 0), &rec);
        }
        assert_eq!(c.active_setting().family, Family::PowerSgd);
        // Active candidate measures terribly: CR 1.25 at slow walls →
        // product far below compso's prior 5. Patience is 2 evals; evals
        // happen on even steps.
        let mut switched_at = None;
        for i in 0..12 {
            let d = c.observe(&quiet(3200, 4000), &rec);
            if d.switched {
                switched_at = Some((i, d));
                break;
            }
        }
        let (_, d) = switched_at.expect("sustained loss must force a switch");
        assert_eq!(d.reason, Reason::FamilySwitch);
        assert_eq!(d.setting.family, Family::Compso);
        assert!(rec.counter(names::CTRL_FAMILY_SWITCHES) >= 2);
        c.reconcile(&rec).unwrap();
    }

    #[test]
    fn divergence_backs_off_up_the_ladder_and_returns() {
        let rec = Recorder::enabled();
        let mut c = Controller::new(cfg());
        for _ in 0..5 {
            c.observe(&quiet(0, 0), &rec);
        }
        assert_eq!(c.active_setting(), Setting::powersgd(4));
        // Divergence: error above the 0.8 ceiling. Signals keep measured
        // throughput at the priors' unit scale (4000 bytes / 4000 ns = 1)
        // so the CR estimate alone decides re-selection.
        let bad = Signals {
            error_rel: 0.95,
            ..quiet(400, 4000)
        };
        let d = c.observe(&bad, &rec);
        assert_eq!(d.reason, Reason::BackoffEnter);
        assert_eq!(d.setting, Setting::powersgd(8), "one rung up the ladder");
        assert_eq!(d.phase, Phase::Backoff);
        // Held for backoff_steps.
        let d = c.observe(&quiet(400, 4000), &rec);
        assert_eq!(d.reason, Reason::BackoffHold);
        let d = c.observe(&quiet(400, 4000), &rec);
        assert_eq!(d.reason, Reason::BackoffHold);
        let d = c.observe(&quiet(400, 4000), &rec);
        assert_eq!(d.reason, Reason::BackoffExit);
        assert_eq!(d.phase, Phase::Steady);
        // The offender's estimate was halved (10 → 5 ≤ compso's 5 prior;
        // ties break to the lower index, which is compso).
        assert_eq!(d.setting.family, Family::Compso);
        assert_eq!(rec.counter(names::CTRL_BACKOFFS), 1);
        c.reconcile(&rec).unwrap();
    }

    #[test]
    fn model_mismatch_forces_off_cadence_eval() {
        // Odd steps don't evaluate… unless the model is mistrusted. The
        // active candidate loses by the margin from step 5 on; patience is
        // 2 evals, so even step 6 switches only if odd step 5's mistrusted
        // wall (4000 ns against a 100 ns prediction) forced the first one.
        let run = |predicted_wall_ns| {
            let rec = Recorder::enabled();
            let mut c = Controller::new(cfg());
            for _ in 0..5 {
                c.observe(&quiet(0, 0), &rec);
            }
            let losing = quiet(3200, 4000);
            let d = c.observe(
                &Signals {
                    predicted_wall_ns,
                    ..losing
                },
                &rec,
            );
            assert_eq!(d.reason, Reason::Hold);
            let d = c.observe(&losing, &rec);
            c.reconcile(&rec).unwrap();
            d.reason
        };
        assert_eq!(run(100), Reason::FamilySwitch);
        assert_eq!(run(0), Reason::Hold);
    }

    #[test]
    fn exploration_probes_unobserved_candidates() {
        let rec = Recorder::enabled();
        let mut cfg = cfg();
        cfg.explore_every = 1;
        let mut c = Controller::new(cfg);
        for _ in 0..5 {
            c.observe(&quiet(0, 0), &rec);
        }
        let mut explored = Vec::new();
        for _ in 0..20 {
            let d = c.observe(&quiet(800, 1000), &rec);
            if d.reason == Reason::Explore {
                explored.push(d.setting.family);
            }
        }
        assert!(
            !explored.is_empty(),
            "exploration cadence must fire with unobserved candidates"
        );
        c.reconcile(&rec).unwrap();
    }

    #[test]
    fn identical_signal_sequences_yield_identical_traces() {
        let script: Vec<Signals> = (0..64)
            .map(|i| Signals {
                bytes_in: 4000,
                bytes_out: 400 + (i * 37) % 900,
                wall_ns: 1000 + (i * 113) % 5000,
                predicted_wall_ns: 2500,
                error_rel: if i == 40 { 0.95 } else { 0.2 },
            })
            .collect();
        let run = || {
            let rec = Recorder::enabled();
            let mut c = Controller::new(ControlConfig {
                explore_every: 2,
                seed: 7,
                ..cfg()
            });
            for s in &script {
                c.observe(s, &rec);
            }
            c.reconcile(&rec).unwrap();
            c.trace().to_vec()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_panics() {
        let _ = Controller::new(ControlConfig {
            candidates: vec![],
            ..ControlConfig::default()
        });
    }
}
