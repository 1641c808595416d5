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
pub const PHASE_OTHER: &str = names::KFAC_STEP_OTHER;

/// The structured resilience view of a step: transport-level fault
/// handling (ARQ) and the K-FAC degradation-ladder activity, pulled out
/// of the raw counter map so chaos tooling and dashboards can reconcile
/// them against a fault-injection ledger without knowing counter names.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Resilience {
    /// Transport envelopes whose CRC failed on receive (ARQ detected).
    pub crc_detected: u64,
    /// Clean-copy retransmissions the ARQ performed (drops + corruption).
    pub resends: u64,
    /// NACKs receivers sent to trigger those resends.
    pub nacks_sent: u64,
    /// Nanoseconds spent in retry backoff sleeps.
    pub backoff_ns: u64,
    /// All-gather payloads that failed their checksum frame or decode.
    pub checksum_failures: u64,
    /// Degradation-ladder repair handshakes requested (= failures).
    pub repair_requests: u64,
    /// Repairs satisfied by the rung-1 compressed resend.
    pub repair_compressed_ok: u64,
    /// Repairs satisfied by the rung-2 uncompressed resend.
    pub repair_uncompressed_ok: u64,
    /// Rung-3 layer groups served from the last-good store.
    pub fallback_last_good: u64,
    /// Rung-3 layer groups degraded to a plain-SGD step.
    pub fallback_sgd: u64,
    /// Coordinated checkpoints committed this step (informational: a
    /// clean run that checkpoints is still "quiet").
    pub ckpt_saves: u64,
    /// Encoded checkpoint bytes written this step (informational).
    pub ckpt_bytes: u64,
    /// Restore attempts that skipped a torn/corrupt snapshot and fell
    /// back to an older one. Non-zero means recovery took a degraded
    /// path, so it counts against quietness.
    pub ckpt_restore_rungs: u64,
    /// Restores that resharded a snapshot taken at a different world
    /// size across the current ownership map. The run recovered, but
    /// through an elastic path, so it counts against quietness.
    pub ckpt_restore_world_size: u64,
    /// Committed membership-view changes (shrinks + rejoins).
    pub membership_epochs: u64,
    /// Quorum-agreed view shrinks (dead peers evicted).
    pub membership_shrinks: u64,
    /// Live rejoins committed (dead peers re-admitted).
    pub membership_rejoins: u64,
    /// Ownership/schedule rebuilds forced by an epoch change.
    pub elastic_reshards: u64,
}

impl Resilience {
    /// Extracts the resilience counters from a (delta) snapshot.
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        Resilience {
            crc_detected: snap.counter(names::COMM_FAULT_CRC_DETECTED),
            resends: snap.counter(names::COMM_RETRY_RESENDS),
            nacks_sent: snap.counter(names::COMM_RETRY_NACKS_SENT),
            backoff_ns: snap.counter(names::COMM_RETRY_BACKOFF_NS),
            checksum_failures: snap.counter(names::KFAC_DEGRADE_CHECKSUM_FAILURES),
            repair_requests: snap.counter(names::KFAC_DEGRADE_REPAIR_REQUESTS),
            repair_compressed_ok: snap.counter(names::KFAC_DEGRADE_REPAIR_COMPRESSED_OK),
            repair_uncompressed_ok: snap.counter(names::KFAC_DEGRADE_REPAIR_UNCOMPRESSED_OK),
            fallback_last_good: snap.counter(names::KFAC_DEGRADE_FALLBACK_LAST_GOOD),
            fallback_sgd: snap.counter(names::KFAC_DEGRADE_FALLBACK_SGD),
            ckpt_saves: snap.counter(names::CKPT_SAVES),
            ckpt_bytes: snap.counter(names::CKPT_BYTES),
            ckpt_restore_rungs: snap.counter(names::CKPT_RESTORE_RUNGS),
            ckpt_restore_world_size: snap.counter(names::CKPT_RESTORE_RUNGS_WORLD_SIZE),
            membership_epochs: snap.counter(names::COMM_MEMBERSHIP_EPOCHS),
            membership_shrinks: snap.counter(names::COMM_MEMBERSHIP_SHRINKS),
            membership_rejoins: snap.counter(names::COMM_MEMBERSHIP_REJOINS),
            elastic_reshards: snap.counter(names::KFAC_ELASTIC_RESHARDS),
        }
    }

    /// True when the step saw no transport faults, no ladder activity,
    /// and no degraded restore (the invariant a disabled fault plane
    /// must preserve). Clean checkpoint saves do **not** break
    /// quietness: `ckpt_saves`/`ckpt_bytes` are informational.
    pub fn is_quiet(&self) -> bool {
        let informational = Resilience {
            ckpt_saves: self.ckpt_saves,
            ckpt_bytes: self.ckpt_bytes,
            ..Resilience::default()
        };
        *self == informational
    }

    /// Degradation events that changed what got installed: every failure
    /// minus the repairs that fully recovered it.
    pub fn degraded_installs(&self) -> u64 {
        self.repair_requests
            .saturating_sub(self.repair_compressed_ok + self.repair_uncompressed_ok)
    }
}

/// The compressor setting the control plane held at report time —
/// descriptive state the controller publishes alongside its counters
/// (the counters say *how often* it acted; this says *what* it chose).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ActiveSetting {
    /// Compressor family name (e.g. `"compso"`, `"qsgd"`, `"powersgd"`,
    /// `"none"` during warmup).
    pub family: String,
    /// Quantization bit width, 0 when the family has none.
    pub bits: u8,
    /// Filter / error-bound threshold, 0.0 when the family has none.
    pub threshold: f64,
    /// Low-rank factor rank, 0 for non-low-rank families.
    pub rank: u8,
    /// Policy phase: `"warmup"`, `"steady"`, or `"backoff"`.
    pub phase: String,
}

/// The adaptive-compression control-plane view of a step: every `ctrl/*`
/// decision counter plus the setting held when the snapshot was taken.
/// `None` on [`StepReport`] when no controller ran (all `ctrl/*`
/// counters absent), so static-compressor reports are unchanged.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ControlBlock {
    /// Controller decisions evaluated.
    pub decisions: u64,
    /// Decisions that changed the active setting.
    pub switches: u64,
    /// Setting changes that crossed compressor families.
    pub family_switches: u64,
    /// Steps held uncompressed in warmup.
    pub warmup_steps: u64,
    /// Warmup→compressed transitions.
    pub warmup_exits: u64,
    /// Error-feedback divergence detections.
    pub ef_divergence: u64,
    /// Backoffs to a higher-fidelity setting.
    pub backoffs: u64,
    /// Measured-vs-predicted step-wall mistrust events.
    pub model_mismatch: u64,
    /// Layer-schedule rebuilds forced by a compressor switch.
    pub schedule_invalidations: u64,
    /// Setting held at snapshot time, when the harness published it.
    pub active: Option<ActiveSetting>,
}

impl ControlBlock {
    /// Extracts the control-plane counters from a (delta) snapshot, or
    /// `None` when no `ctrl/*` activity was recorded.
    pub fn from_snapshot(snap: &Snapshot) -> Option<Self> {
        let block = ControlBlock {
            decisions: snap.counter(names::CTRL_DECISIONS),
            switches: snap.counter(names::CTRL_SWITCHES),
            family_switches: snap.counter(names::CTRL_FAMILY_SWITCHES),
            warmup_steps: snap.counter(names::CTRL_WARMUP_STEPS),
            warmup_exits: snap.counter(names::CTRL_WARMUP_EXITS),
            ef_divergence: snap.counter(names::CTRL_EF_DIVERGENCE),
            backoffs: snap.counter(names::CTRL_BACKOFFS),
            model_mismatch: snap.counter(names::CTRL_MODEL_MISMATCH),
            schedule_invalidations: snap.counter(names::CTRL_SCHEDULE_INVALIDATIONS),
            active: None,
        };
        (block != ControlBlock::default()).then_some(block)
    }
}

/// One step's measured observability report.
#[derive(Clone, Debug, Default)]
pub struct StepReport {
    /// Step index.
    pub step: u64,
    /// Wall seconds of the whole step (the [`names::KFAC_STEP`] timer).
    pub wall_s: f64,
    /// Seconds per recorded timer.
    pub phases: BTreeMap<String, f64>,
    /// Fraction of the step per [`STEP_PHASES`] entry (plus
    /// [`PHASE_OTHER`]); sums to 1 whenever the step timer is present.
    pub fractions: BTreeMap<String, f64>,
    /// Raw counter values.
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
    /// Factor decompositions this rank performed (`kfac/inverse_refreshes`:
    /// two per refresh of a layer it owns; zero off refresh steps).
    pub inverse_refreshes: u64,
    /// Factor all-reduces this rank issued (`kfac/factor_syncs`: one on
    /// a step whose refresh consumes the factors, zero otherwise).
    pub factor_syncs: u64,
    /// Structured fault-handling / degradation-ladder view of the step.
    pub resilience: Resilience,
    /// Adaptive-compression control-plane view of the step; `None` when
    /// no controller ran.
    pub control: Option<ControlBlock>,
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
            inverse_refreshes: snap.counter(names::KFAC_INVERSE_REFRESHES),
            factor_syncs: snap.counter(names::KFAC_FACTOR_SYNCS),
            resilience: Resilience::from_snapshot(snap),
            control: ControlBlock::from_snapshot(snap),
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
        out.push_str(&format!(
            ",\"inverse_refreshes\":{},\"factor_syncs\":{}",
            self.inverse_refreshes, self.factor_syncs
        ));
        let rz = &self.resilience;
        out.push_str(&format!(
            ",\"resilience\":{{\"crc_detected\":{},\"resends\":{},\"nacks_sent\":{},\
             \"backoff_ns\":{},\"checksum_failures\":{},\"repair_requests\":{},\
             \"repair_compressed_ok\":{},\"repair_uncompressed_ok\":{},\
             \"fallback_last_good\":{},\"fallback_sgd\":{},\
             \"ckpt_saves\":{},\"ckpt_bytes\":{},\"ckpt_restore_rungs\":{},\
             \"ckpt_restore_world_size\":{},\"membership_epochs\":{},\
             \"membership_shrinks\":{},\"membership_rejoins\":{},\
             \"elastic_reshards\":{}}}",
            rz.crc_detected,
            rz.resends,
            rz.nacks_sent,
            rz.backoff_ns,
            rz.checksum_failures,
            rz.repair_requests,
            rz.repair_compressed_ok,
            rz.repair_uncompressed_ok,
            rz.fallback_last_good,
            rz.fallback_sgd,
            rz.ckpt_saves,
            rz.ckpt_bytes,
            rz.ckpt_restore_rungs,
            rz.ckpt_restore_world_size,
            rz.membership_epochs,
            rz.membership_shrinks,
            rz.membership_rejoins,
            rz.elastic_reshards,
        ));
        match &self.control {
            None => out.push_str(",\"control\":null"),
            Some(c) => {
                out.push_str(&format!(
                    ",\"control\":{{\"decisions\":{},\"switches\":{},\
                     \"family_switches\":{},\"warmup_steps\":{},\
                     \"warmup_exits\":{},\"ef_divergence\":{},\"backoffs\":{},\
                     \"model_mismatch\":{},\"schedule_invalidations\":{},\
                     \"active\":",
                    c.decisions,
                    c.switches,
                    c.family_switches,
                    c.warmup_steps,
                    c.warmup_exits,
                    c.ef_divergence,
                    c.backoffs,
                    c.model_mismatch,
                    c.schedule_invalidations,
                ));
                match &c.active {
                    None => out.push_str("null"),
                    Some(a) => out.push_str(&format!(
                        "{{\"family\":\"{}\",\"bits\":{},\"threshold\":{},\
                         \"rank\":{},\"phase\":\"{}\"}}",
                        escape(&a.family),
                        a.bits,
                        fmt_f64(a.threshold),
                        a.rank,
                        escape(&a.phase),
                    )),
                }
                out.push('}');
            }
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
        assert_eq!(report.inverse_refreshes, 4);
        assert!(doc.contains("\"inverse_refreshes\":4"), "{doc}");
        assert_eq!(report.factor_syncs, 1);
        assert!(doc.contains("\"factor_syncs\":1"), "{doc}");
        assert!(doc.contains(&format!("\"{}\"", names::KFAC_FACTOR)));
    }

    #[test]
    fn resilience_section_extracts_and_serializes() {
        let rec = Recorder::enabled();
        rec.add_time_ns(names::KFAC_STEP, 1_000_000);
        rec.add(names::COMM_FAULT_CRC_DETECTED, 3);
        rec.add(names::COMM_RETRY_RESENDS, 5);
        rec.add(names::KFAC_DEGRADE_CHECKSUM_FAILURES, 2);
        rec.add(names::KFAC_DEGRADE_REPAIR_REQUESTS, 2);
        rec.add(names::KFAC_DEGRADE_REPAIR_COMPRESSED_OK, 1);
        rec.add(names::KFAC_DEGRADE_FALLBACK_SGD, 1);
        let report = StepReport::from_snapshot(0, &rec.snapshot());
        let rz = report.resilience;
        assert!(!rz.is_quiet());
        assert_eq!(rz.crc_detected, 3);
        assert_eq!(rz.resends, 5);
        assert_eq!(rz.checksum_failures, 2);
        assert_eq!(rz.repair_compressed_ok, 1);
        assert_eq!(rz.degraded_installs(), 1);
        let doc = report.to_json();
        validate(&doc).unwrap_or_else(|(pos, msg)| panic!("{msg} at {pos} in {doc}"));
        assert!(doc.contains("\"resilience\":{\"crc_detected\":3"), "{doc}");
        assert!(doc.contains("\"fallback_sgd\":1"), "{doc}");
    }

    #[test]
    fn ckpt_saves_stay_quiet_but_restore_rungs_do_not() {
        let rec = Recorder::enabled();
        rec.add_time_ns(names::KFAC_STEP, 1_000_000);
        rec.add(names::CKPT_SAVES, 1);
        rec.add(names::CKPT_BYTES, 4096);
        let report = StepReport::from_snapshot(0, &rec.snapshot());
        assert_eq!(report.resilience.ckpt_saves, 1);
        assert_eq!(report.resilience.ckpt_bytes, 4096);
        // A clean run that happens to checkpoint is still quiet...
        assert!(report.resilience.is_quiet());
        // ...but a restore that had to skip a torn snapshot is not.
        rec.add(names::CKPT_RESTORE_RUNGS, 1);
        let report = StepReport::from_snapshot(1, &rec.snapshot());
        assert!(!report.resilience.is_quiet());
        let doc = report.to_json();
        validate(&doc).unwrap_or_else(|(pos, msg)| panic!("{msg} at {pos} in {doc}"));
        assert!(doc.contains("\"ckpt_restore_rungs\":1"), "{doc}");
    }

    #[test]
    fn membership_activity_counts_against_quietness() {
        let rec = Recorder::enabled();
        rec.add_time_ns(names::KFAC_STEP, 1_000_000);
        rec.add(names::COMM_MEMBERSHIP_EPOCHS, 2);
        rec.add(names::COMM_MEMBERSHIP_SHRINKS, 1);
        rec.add(names::COMM_MEMBERSHIP_REJOINS, 1);
        rec.add(names::KFAC_ELASTIC_RESHARDS, 2);
        rec.add(names::CKPT_RESTORE_RUNGS_WORLD_SIZE, 1);
        let report = StepReport::from_snapshot(0, &rec.snapshot());
        let rz = report.resilience;
        assert!(!rz.is_quiet());
        assert_eq!(rz.membership_epochs, 2);
        assert_eq!(rz.membership_shrinks, 1);
        assert_eq!(rz.membership_rejoins, 1);
        assert_eq!(rz.elastic_reshards, 2);
        assert_eq!(rz.ckpt_restore_world_size, 1);
        let doc = report.to_json();
        validate(&doc).unwrap_or_else(|(pos, msg)| panic!("{msg} at {pos} in {doc}"));
        assert!(doc.contains("\"membership_epochs\":2"), "{doc}");
        assert!(doc.contains("\"elastic_reshards\":2"), "{doc}");
        assert!(doc.contains("\"ckpt_restore_world_size\":1"), "{doc}");
    }

    #[test]
    fn control_block_absent_without_controller_activity() {
        let report = StepReport::from_snapshot(0, &sample_snapshot());
        assert_eq!(report.control, None);
        assert!(report.to_json().contains("\"control\":null"));
    }

    #[test]
    fn control_block_extracts_and_serializes() {
        let rec = Recorder::enabled();
        rec.add_time_ns(names::KFAC_STEP, 1_000_000);
        rec.add(names::CTRL_DECISIONS, 10);
        rec.add(names::CTRL_SWITCHES, 2);
        rec.add(names::CTRL_FAMILY_SWITCHES, 1);
        rec.add(names::CTRL_WARMUP_STEPS, 5);
        rec.add(names::CTRL_WARMUP_EXITS, 1);
        rec.add(names::CTRL_EF_DIVERGENCE, 1);
        rec.add(names::CTRL_BACKOFFS, 1);
        rec.add(names::CTRL_SCHEDULE_INVALIDATIONS, 2);
        let mut report = StepReport::from_snapshot(0, &rec.snapshot());
        let c = report.control.as_mut().expect("controller ran");
        assert_eq!(c.decisions, 10);
        assert_eq!(c.switches, 2);
        assert_eq!(c.family_switches, 1);
        assert_eq!(c.warmup_exits, 1);
        assert_eq!(c.backoffs, 1);
        assert_eq!(c.schedule_invalidations, 2);
        c.active = Some(ActiveSetting {
            family: "powersgd".to_string(),
            bits: 0,
            threshold: 0.0,
            rank: 4,
            phase: "steady".to_string(),
        });
        let doc = report.to_json();
        validate(&doc).unwrap_or_else(|(pos, msg)| panic!("{msg} at {pos} in {doc}"));
        assert!(doc.contains("\"control\":{\"decisions\":10"), "{doc}");
        assert!(doc.contains("\"family\":\"powersgd\""), "{doc}");
        assert!(doc.contains("\"phase\":\"steady\""), "{doc}");
    }

    #[test]
    fn quiet_step_reports_quiet_resilience() {
        let report = StepReport::from_snapshot(1, &sample_snapshot());
        assert!(report.resilience.is_quiet());
        assert_eq!(report.resilience.degraded_installs(), 0);
        assert!(report
            .to_json()
            .contains("\"resilience\":{\"crc_detected\":0"));
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
        rec.reset();
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
