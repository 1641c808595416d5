//! Per-step JSON reports assembled from metric [`Snapshot`]s.
//!
//! A [`StepReport`] is the measured counterpart of the §5 performance
//! model's per-iteration breakdown: phase wall times, phase fractions over
//! the step, live compression ratio, and raw counters, rendered as a
//! single JSON object per step (one line per step makes reports
//! greppable and trivially machine-readable).

use crate::json::escape;
use crate::names;
use crate::snapshot::Snapshot;
use std::collections::BTreeMap;

/// The sub-phases that partition [`names::KFAC_STEP`], mirroring the
/// paper's Fig. 1 taxonomy (grad sync ≙ "Others", factor ≙ "KFAC
/// Computations + Allreduce", inverse ≙ eigendecomposition, allgather ≙
/// "KFAC Allgather" incl. compression, update ≙ install).
pub const STEP_PHASES: &[&str] = &[
    names::KFAC_GRAD_SYNC,
    names::KFAC_FACTOR,
    names::KFAC_INVERSE,
    names::KFAC_ALLGATHER,
    names::KFAC_UPDATE,
];

/// Name of the synthetic phase covering step time outside the tracked
/// sub-phases (registered as [`names::KFAC_STEP_OTHER`]).
pub(crate) const PHASE_OTHER: &str = names::KFAC_STEP_OTHER;

/// Counters that stay 0 in a fault-free step: transport recovery (ARQ),
/// degradation-ladder activity, degraded or resharded restores and
/// membership churn. Clean checkpoint saves (`ckpt/saves`, `ckpt/bytes`)
/// are not on the list: a run that checkpoints is still quiet.
pub(crate) const QUIET_COUNTERS: &[&str] = &[
    names::COMM_FAULT_CRC_DETECTED,
    names::COMM_RETRY_RESENDS,
    names::COMM_RETRY_NACKS_SENT,
    names::KFAC_DEGRADE_CHECKSUM_FAILURES,
    names::KFAC_DEGRADE_REPAIR_REQUESTS,
    names::KFAC_DEGRADE_REPAIR_COMPRESSED_OK,
    names::KFAC_DEGRADE_REPAIR_UNCOMPRESSED_OK,
    names::KFAC_DEGRADE_FALLBACK_LAST_GOOD,
    names::KFAC_DEGRADE_FALLBACK_SGD,
    names::CKPT_RESTORE_RUNGS,
    names::CKPT_RESTORE_RUNGS_WORLD_SIZE,
    names::COMM_MEMBERSHIP_EPOCHS,
    names::COMM_MEMBERSHIP_SHRINKS,
    names::COMM_MEMBERSHIP_REJOINS,
    names::KFAC_ELASTIC_RESHARDS,
];

impl Snapshot {
    /// True when every counter on the quiet list (`QUIET_COUNTERS` in
    /// `report.rs`) is 0 — the invariant a disabled fault plane must
    /// preserve. Clean checkpoint saves stay quiet.
    pub fn is_quiet(&self) -> bool {
        QUIET_COUNTERS.iter().all(|n| self.counter(n) == 0)
    }

    /// Degradation events that changed what got installed: every repair
    /// request minus the repairs that fully recovered it.
    pub fn degraded_installs(&self) -> u64 {
        self.counter(names::KFAC_DEGRADE_REPAIR_REQUESTS)
            .saturating_sub(
                self.counter(names::KFAC_DEGRADE_REPAIR_COMPRESSED_OK)
                    + self.counter(names::KFAC_DEGRADE_REPAIR_UNCOMPRESSED_OK),
            )
    }
}

/// One step's measured observability report: its counter map plus the
/// values derived from the snapshot. A counter is read from `counters`
/// by its [`names`] key, never copied into a field of its own.
#[derive(Clone, Debug, Default)]
pub struct StepReport {
    /// Step index.
    pub step: u64,
    /// Wall seconds of the whole step (the [`names::KFAC_STEP`] timer).
    pub wall_s: f64,
    /// Seconds per recorded timer.
    pub phases: BTreeMap<String, f64>,
    /// Fraction of the step per [`STEP_PHASES`] entry (plus
    /// `PHASE_OTHER`); sums to 1 whenever the step timer is present.
    pub fractions: BTreeMap<String, f64>,
    /// Every counter, by registered name.
    pub counters: BTreeMap<String, u64>,
    /// Live compression ratio `core/bytes_in ÷ core/bytes_out`, when the
    /// compressor recorded traffic.
    pub ratio: Option<f64>,
    /// Achieved compression–communication overlap of the pipelined
    /// gather, when it ran: `1 − comm/pipeline/wait ÷ kfac/step/allgather`
    /// (the fraction of the gather wall NOT spent blocked on the wire),
    /// clamped to `[0, 1]`. The measured counterpart of the §4.4 model's
    /// predicted overlap.
    pub overlap_frac: Option<f64>,
}

impl StepReport {
    /// Builds the report for `step` from a (delta) snapshot.
    pub fn from_snapshot(step: u64, snap: &Snapshot) -> Self {
        let mut phases = BTreeMap::new();
        for (k, t) in &snap.timers {
            phases.insert(k.clone(), t.seconds());
        }
        let wall_s = snap.timer_seconds(names::KFAC_STEP);

        let mut fractions = BTreeMap::new();
        let tracked: f64 = STEP_PHASES.iter().map(|p| snap.timer_seconds(p)).sum();
        // Normalize over the full step when measured, else over the
        // tracked sub-phases alone.
        let denom = if wall_s > 0.0 {
            wall_s.max(tracked)
        } else {
            tracked
        };
        if denom > 0.0 {
            for p in STEP_PHASES {
                fractions.insert((*p).to_string(), snap.timer_seconds(p) / denom);
            }
            if wall_s > 0.0 {
                fractions.insert(PHASE_OTHER.to_string(), (denom - tracked).max(0.0) / denom);
            }
        }

        let bytes_in = snap.counter(names::CORE_BYTES_IN);
        let bytes_out = snap.counter(names::CORE_BYTES_OUT);
        let ratio = (bytes_out > 0).then(|| bytes_in as f64 / bytes_out as f64);

        let gather_s = snap.timer_seconds(names::KFAC_ALLGATHER);
        let overlap_frac = (snap.timers.contains_key(names::COMM_PIPELINE_WAIT) && gather_s > 0.0)
            .then(|| {
                let wait_s = snap.timer_seconds(names::COMM_PIPELINE_WAIT);
                (1.0 - wait_s / gather_s).clamp(0.0, 1.0)
            });

        StepReport {
            step,
            wall_s,
            phases,
            fractions,
            counters: snap.counters.clone(),
            ratio,
            overlap_frac,
        }
    }

    /// Sum of the reported fractions (≈1 for a well-formed step report).
    pub fn fraction_sum(&self) -> f64 {
        self.fractions.values().sum()
    }

    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        out.push_str(&format!("\"step\":{}", self.step));
        out.push_str(&format!(",\"wall_s\":{}", fmt_f64(self.wall_s)));
        out.push_str(",\"phases\":{");
        push_f64_map(&mut out, &self.phases);
        out.push_str("},\"fractions\":{");
        push_f64_map(&mut out, &self.fractions);
        out.push_str("},\"counters\":{");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{}", escape(k), v));
        }
        out.push('}');
        match self.ratio {
            Some(r) => out.push_str(&format!(",\"ratio\":{}", fmt_f64(r))),
            None => out.push_str(",\"ratio\":null"),
        }
        match self.overlap_frac {
            Some(v) => out.push_str(&format!(",\"overlap_frac\":{}", fmt_f64(v))),
            None => out.push_str(",\"overlap_frac\":null"),
        }
        out.push('}');
        out
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

fn push_f64_map(out: &mut String, map: &BTreeMap<String, f64>) {
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{}\":{}", escape(k), fmt_f64(*v)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use crate::snapshot::TimerStat;
    use crate::Recorder;

    fn sample_snapshot() -> Snapshot {
        let rec = Recorder::enabled();
        rec.add_time_ns(names::KFAC_STEP, 1_000_000);
        rec.add_time_ns(names::KFAC_GRAD_SYNC, 100_000);
        rec.add_time_ns(names::KFAC_FACTOR, 300_000);
        rec.add_time_ns(names::KFAC_INVERSE, 200_000);
        rec.add_time_ns(names::KFAC_ALLGATHER, 250_000);
        rec.add_time_ns(names::KFAC_UPDATE, 100_000);
        rec.add(names::CORE_BYTES_IN, 4000);
        rec.add(names::CORE_BYTES_OUT, 200);
        rec.add(names::KFAC_INVERSE_REFRESHES, 4);
        rec.incr(names::KFAC_FACTOR_SYNCS);
        rec.snapshot()
    }

    #[test]
    fn fractions_partition_the_step() {
        let report = StepReport::from_snapshot(3, &sample_snapshot());
        assert_eq!(report.step, 3);
        assert!((report.wall_s - 1e-3).abs() < 1e-12);
        assert!(
            (report.fraction_sum() - 1.0).abs() < 1e-9,
            "{}",
            report.fraction_sum()
        );
        assert!((report.fractions[names::KFAC_FACTOR] - 0.3).abs() < 1e-9);
        assert!((report.fractions[PHASE_OTHER] - 0.05).abs() < 1e-9);
        assert_eq!(report.ratio, Some(20.0));
    }

    #[test]
    fn json_is_well_formed() {
        let report = StepReport::from_snapshot(0, &sample_snapshot());
        let doc = report.to_json();
        validate(&doc).unwrap_or_else(|(pos, msg)| panic!("{msg} at {pos} in {doc}"));
        assert!(doc.contains("\"ratio\":2e1"), "{doc}");
        let counters = &doc[doc.find("\"counters\":{").expect("counters")..];
        let counters = &counters[..counters.find('}').expect("counters close")];
        assert!(counters.contains("\"kfac/factor_syncs\":1"), "{doc}");
        assert!(doc.contains(&format!("\"{}\"", names::KFAC_FACTOR)));
    }

    #[test]
    fn quietness_and_degraded_installs_read_the_counter_map() {
        // Each listed counter, alone, breaks quietness...
        for name in QUIET_COUNTERS {
            let mut snap = Snapshot::default();
            snap.counters.insert(name.to_string(), 1);
            assert!(!snap.is_quiet(), "{name}");
        }
        // ...while a clean checkpoint save, alone, does not.
        let rec = Recorder::enabled();
        rec.incr(names::CKPT_SAVES);
        rec.add(names::CKPT_BYTES, 4096);
        assert!(rec.snapshot().is_quiet());
        // (requests, compressed ok, uncompressed ok) -> degraded installs,
        // saturating at 0.
        let rows = [
            ((2, 1, 0), 1),
            ((2, 1, 1), 0),
            ((1, 2, 1), 0),
            ((0, 0, 0), 0),
        ];
        for ((requests, compressed, uncompressed), want) in rows {
            let rec = Recorder::enabled();
            rec.add(names::KFAC_DEGRADE_REPAIR_REQUESTS, requests);
            rec.add(names::KFAC_DEGRADE_REPAIR_COMPRESSED_OK, compressed);
            rec.add(names::KFAC_DEGRADE_REPAIR_UNCOMPRESSED_OK, uncompressed);
            let got = rec.snapshot().degraded_installs();
            assert_eq!(got, want, "{requests} {compressed} {uncompressed}");
        }
    }

    #[test]
    fn empty_snapshot_yields_empty_but_valid_report() {
        let report = StepReport::from_snapshot(9, &Snapshot::default());
        assert_eq!(report.wall_s, 0.0);
        assert!(report.fractions.is_empty());
        assert_eq!(report.ratio, None);
        assert_eq!(report.overlap_frac, None);
        validate(&report.to_json()).expect("valid JSON");
    }

    #[test]
    fn overlap_frac_measures_hidden_gather_time() {
        // 250 µs gather wall with 50 µs blocked on the wire → 80% of the
        // gather was overlapped with compression/decode.
        let rec = Recorder::enabled();
        rec.add_time_ns(names::KFAC_STEP, 1_000_000);
        rec.add_time_ns(names::KFAC_ALLGATHER, 250_000);
        rec.add_time_ns(names::COMM_PIPELINE_WAIT, 50_000);
        let report = StepReport::from_snapshot(0, &rec.snapshot());
        let f = report.overlap_frac.expect("pipeline ran");
        assert!((f - 0.8).abs() < 1e-9, "{f}");
        let doc = report.to_json();
        validate(&doc).unwrap_or_else(|(pos, msg)| panic!("{msg} at {pos} in {doc}"));
        assert!(doc.contains("\"overlap_frac\":8e-1"), "{doc}");
        // Wait exceeding the gather span (clock skew) clamps to 0.
        let rec = Recorder::enabled();
        rec.add_time_ns(names::KFAC_ALLGATHER, 10_000);
        rec.add_time_ns(names::COMM_PIPELINE_WAIT, 20_000);
        let report = StepReport::from_snapshot(1, &rec.snapshot());
        assert_eq!(report.overlap_frac, Some(0.0));
    }

    #[test]
    fn overlap_frac_absent_without_pipeline_timers() {
        // The serial compress-then-gather path never records a pipeline
        // wait, so the report must not invent an overlap number.
        let report = StepReport::from_snapshot(0, &sample_snapshot());
        assert_eq!(report.overlap_frac, None);
        assert!(report.to_json().contains("\"overlap_frac\":null"));
    }

    #[test]
    fn missing_step_timer_normalizes_over_subphases() {
        let mut snap = Snapshot::default();
        snap.timers.insert(
            names::KFAC_FACTOR.to_string(),
            TimerStat {
                total_ns: 300,
                count: 1,
            },
        );
        snap.timers.insert(
            names::KFAC_UPDATE.to_string(),
            TimerStat {
                total_ns: 100,
                count: 1,
            },
        );
        let report = StepReport::from_snapshot(0, &snap);
        assert!((report.fraction_sum() - 1.0).abs() < 1e-9);
        assert!((report.fractions[names::KFAC_FACTOR] - 0.75).abs() < 1e-9);
        assert!(!report.fractions.contains_key(PHASE_OTHER));
    }

    #[test]
    fn clock_skew_other_clamps_to_zero() {
        // Sub-phases can sum past the step timer by a few ns of guard
        // overhead; "other" must clamp rather than go negative.
        let mut snap = Snapshot::default();
        snap.timers.insert(
            names::KFAC_STEP.to_string(),
            TimerStat {
                total_ns: 90,
                count: 1,
            },
        );
        snap.timers.insert(
            names::KFAC_FACTOR.to_string(),
            TimerStat {
                total_ns: 100,
                count: 1,
            },
        );
        let report = StepReport::from_snapshot(0, &snap);
        assert!(report.fractions[PHASE_OTHER] >= 0.0);
        assert!((report.fraction_sum() - 1.0).abs() < 1e-9);
    }
}
