//! Metric definitions: names, units, directions and bounds of the nine
//! end-to-end metrics, and the per-layer ledger's rows with the
//! end-to-end metric and workload each should move.

use crate::json::{obj, Json};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How `compare` judges two result files of the same seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// May worsen by this share of the baseline.
    Relative(f64),
    /// Counts and byte totals repeat exactly for one seed: any
    /// difference is a behaviour change.
    Exact,
}

pub struct E2eDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `compare`'s rule between two runs of one seed.
    pub bound: Bound,
    /// `BENCHMARK.json`'s bound: medians over different seeds, so even
    /// the exact counts get a tolerance there. `None`: not in
    /// `BENCHMARK.json`, whose contract wants metrics that are never 0
    /// and whose runs of one commit spread less than 0.25 of the median
    /// on a host that slows some whole runs of compute-bound code by
    /// more (see README.md "Bounds").
    pub seed_bound: Option<f64>,
    pub what: &'static str,
}

pub const E2E: [E2eDef; 9] = [
    E2eDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Relative(0.10),
        seed_bound: Some(0.25),
        what: "data + model + group build + warm-up steps (one eigen_refresh cycle); fastest of the run's three set-ups",
    },
    E2eDef {
        name: "steps_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Relative(0.10),
        seed_bound: Some(0.25),
        what: "timed steps / their quiet wall: every step charged the 2nd-percentile wall of its kind (place in the refresh period, checkpoint save, Alg. 1 strategy), eigen-refresh steps and checkpoint stalls included",
    },
    E2eDef {
        name: "step_ms_p02",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Relative(0.10),
        seed_bound: None,
        what: "2nd-percentile timed step wall (slowest rank): the typical step on a quiet host",
    },
    E2eDef {
        name: "time_to_target_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Relative(0.10),
        seed_bound: Some(0.25),
        what: "cumulative quiet wall (as in steps_per_s) of the timed steps up to the first eval whose held-out loss is at or under the target; gather_resnet50: of all its verified steps",
    },
    E2eDef {
        name: "steps_to_target",
        unit: "count",
        better: Better::Lower,
        bound: Bound::Exact,
        seed_bound: Some(0.15),
        what: "the same event, in timed steps",
    },
    E2eDef {
        name: "final_eval_loss",
        unit: "nats",
        better: Better::Lower,
        bound: Bound::Relative(0.02),
        seed_bound: Some(0.25),
        what: "held-out loss after the last step; gather_resnet50: relative L2 error of the last step's decoded gradients",
    },
    E2eDef {
        name: "wire_bytes_per_step",
        unit: "bytes",
        better: Better::Lower,
        bound: Bound::Exact,
        seed_bound: Some(0.05),
        what: "sum over ranks of Communicator::sent_bytes over the timed steps / timed steps",
    },
    E2eDef {
        name: "gather_ratio",
        unit: "x",
        better: Better::Higher,
        bound: Bound::Exact,
        seed_bound: Some(0.05),
        what: "sum of gather_bytes_original / sum of gather_bytes_wire",
    },
    E2eDef {
        name: "ops_failed_frac",
        unit: "share",
        better: Better::Lower,
        bound: Bound::Exact,
        seed_bound: None,
        what: "failed / attempted operations (steps, digests, bounds, restore, target)",
    },
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this row should move.
    pub moves: &'static str,
}

const fn row(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const EIGEN: &str = "steps_per_s, kfac.refresh_step_ms_p50 on cnn_ctrl_ckpt (mlp_wire_* via refresh steps); not gather_resnet50";
const DNN: &str =
    "step_ms_p02 on cnn_ctrl_ckpt; <= 10 % of the step on mlp_wire_*; absent on gather_resnet50";
const KFAC: &str = "step_ms_p02, time_to_target_s on the training workloads";
const CORE: &str =
    "step_ms_p02, steps_per_s on gather_resnet50; small on mlp_wire_compso; zero on mlp_wire_plain";
const COMM: &str =
    "step_ms_p02, time_to_target_s on mlp_wire_plain and gather_resnet50; ~0 on cnn_ctrl_ckpt";
const CTRL: &str = "steps_per_s on cnn_ctrl_ckpt (must stay < 1e-3 of a step)";
const CKPT: &str = "steps_per_s on cnn_ctrl_ckpt";
const GUARD: &str = "none: guards the other rows";
const NORM: &str = "none: normaliser";

pub const PER_LAYER: [LayerDef; 50] = [
    row("tensor.sym_eig_ms", "ms", Lower, EIGEN),
    row("tensor.matmul_gflops", "GFLOP/s", Higher, EIGEN),
    row("dnn.forward_ms", "ms", Lower, DNN),
    row("dnn.backward_ms", "ms", Lower, DNN),
    row("dnn.update_ms", "ms", Lower, DNN),
    row("kfac.dist_step_ms", "ms", Lower, KFAC),
    row(
        "kfac.refresh_step_ms_p50",
        "ms",
        Lower,
        "steps_per_s on cnn_ctrl_ckpt and mlp_wire_*",
    ),
    row(
        "kfac.step_ms_max",
        "ms",
        Lower,
        "steps_per_s; grows with ownership imbalance",
    ),
    row("kfac.covariance_ms", "ms", Lower, KFAC),
    row("kfac.precondition_ms", "ms", Lower, KFAC),
    row(
        "kfac.phase.grad_sync_ms",
        "ms",
        Lower,
        "step_ms_p02 on mlp_wire_*",
    ),
    row(
        "kfac.phase.factor_ms",
        "ms",
        Lower,
        "step_ms_p02 on mlp_wire_* (wire) and cnn_ctrl_ckpt (covariances)",
    ),
    row(
        "kfac.phase.inverse_ms",
        "ms",
        Lower,
        "steps_per_s on cnn_ctrl_ckpt",
    ),
    row(
        "kfac.phase.allgather_ms",
        "ms",
        Lower,
        "step_ms_p02 on mlp_wire_plain vs mlp_wire_compso",
    ),
    row("kfac.phase.update_ms", "ms", Lower, KFAC),
    row(
        "kfac.grad_bucket_bytes",
        "bytes",
        Lower,
        "step_ms_p02 on mlp_wire_*",
    ),
    row(
        "kfac.factor_bucket_bytes",
        "bytes",
        Lower,
        "step_ms_p02 on mlp_wire_*; nothing on cnn_ctrl_ckpt",
    ),
    row(
        "kfac.gather_share_of_wire",
        "share",
        Higher,
        "bounds what gather compression can save on mlp_wire_compso",
    ),
    row("core.compress_MBps", "MB/s", Higher, CORE),
    row("core.decompress_MBps", "MB/s", Higher, CORE),
    row(
        "core.ratio",
        "x",
        Higher,
        "wire_bytes_per_step, gather_ratio",
    ),
    row(
        "core.rel_error",
        "share",
        Lower,
        "final_eval_loss, steps_to_target",
    ),
    row("core.bytes_in_per_step", "bytes", Lower, CORE),
    row("core.encode_calls_per_step", "count", Lower, CORE),
    row("comm.allreduce_grad_ms", "ms", Lower, COMM),
    row("comm.allreduce_factor_ms", "ms", Lower, COMM),
    row("comm.allgather_var_ms", "ms", Lower, COMM),
    row("comm.pipelined_allgather_ms", "ms", Lower, COMM),
    row(
        "comm.wire_ideal_ms",
        "ms",
        Lower,
        "step_ms_p02 floor on the modeled-wire workloads",
    ),
    row("comm.exposed_ms", "ms", Lower, COMM),
    row(
        "comm.pipeline_overlap_frac",
        "share",
        Higher,
        "step_ms_p02 on gather_resnet50",
    ),
    row("comm.collective_calls_per_step", "count", Lower, COMM),
    row("comm.barrier_us", "us", Lower, COMM),
    row("ctrl.decide_ns", "ns", Lower, CTRL),
    row("ctrl.switches", "count", Lower, CTRL),
    row("ctrl.schedule_invalidations", "count", Lower, CTRL),
    row("ckpt.save_stall_ms", "ms", Lower, CKPT),
    row(
        "ckpt.restore_ms",
        "ms",
        Lower,
        "none: restore is outside the timed interval",
    ),
    row("ckpt.bytes_per_save", "bytes", Lower, CKPT),
    row("ckpt.save_MBps", "MB/s", Higher, CKPT),
    row("obs.trace_overhead_frac", "share", Lower, GUARD),
    row("obs.fraction_sum_err", "share", Lower, GUARD),
    row(
        "sim.gather_residual_frac",
        "share",
        Lower,
        "none: says whether the model may size a change",
    ),
    row("host.nproc", "count", Higher, NORM),
    row("host.ranks", "count", Higher, NORM),
    row("host.rayon_workers", "count", Higher, NORM),
    row("host.membw_GBps", "GB/s", Higher, NORM),
    row("ref.single_rank_step_ms_p50", "ms", Lower, NORM),
    row("trace.steps", "count", Higher, NORM),
    row(
        "trace.step_ms_p02",
        "ms",
        Lower,
        "the traced run's step_ms_p02: the plain step, which BENCHMARK.json does not bound",
    ),
];

/// One measured value. `None` is a row this workload or host cannot
/// measure: written `"n/a"`, never a copy of another row.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: Option<f64>) -> Self {
        Metric {
            name,
            unit,
            value: value.filter(|v| v.is_finite()),
        }
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("value", self.value.map_or(Json::from("n/a"), Json::Num)),
            ("unit", self.unit.into()),
        ])
    }

    pub fn show(&self) -> String {
        match self.value {
            Some(v) => format!("{:<34} {:>16.6} {}", self.name, v, self.unit),
            None => format!("{:<34} {:>16} {}", self.name, "n/a", self.unit),
        }
    }
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.to_json()))
            .collect(),
    )
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// The runs of one side spread wider than the bound: nothing can be
    /// said either way.
    Unresolved,
    NotApplicable,
}

/// Judges candidate samples against baseline samples of one metric on
/// one workload. With several runs per side the medians are compared
/// and a spread (max − min over the median) wider than the bound is
/// `Unresolved` unless every candidate run beats every baseline run.
pub fn judge(def: &E2eDef, base: &[f64], cand: &[f64]) -> Verdict {
    use crate::harness::median;
    if base.is_empty() || cand.is_empty() {
        return Verdict::NotApplicable;
    }
    let (b, c) = (median(base), median(cand));
    let worse_by = match def.better {
        Better::Lower => c - b,
        Better::Higher => b - c,
    };
    match def.bound {
        Bound::Exact => {
            if base.iter().chain(cand).all(|v| *v == base[0]) {
                Verdict::Unchanged
            } else if worse_by > 0.0 {
                Verdict::Regressed
            } else if worse_by < 0.0 {
                Verdict::Improved
            } else {
                Verdict::Unresolved
            }
        }
        Bound::Relative(bound) => {
            let scale = b.abs().max(f64::MIN_POSITIVE);
            let spread = |v: &[f64]| {
                let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                (hi - lo) / scale
            };
            if spread(base).max(spread(cand)) > bound {
                let all_better = cand.iter().all(|c| {
                    base.iter().all(|b| match def.better {
                        Better::Lower => c < b,
                        Better::Higher => c > b,
                    })
                });
                return if all_better {
                    Verdict::Improved
                } else {
                    Verdict::Unresolved
                };
            }
            if worse_by / scale > bound {
                Verdict::Regressed
            } else if -worse_by / scale > bound {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static E2eDef {
        E2E.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn exact_metrics_must_be_equal() {
        let d = def("wire_bytes_per_step");
        assert_eq!(judge(d, &[10.0], &[10.0]), Verdict::Unchanged);
        assert_eq!(judge(d, &[10.0], &[11.0]), Verdict::Regressed);
        assert_eq!(judge(d, &[10.0], &[9.0]), Verdict::Improved);
    }

    #[test]
    fn timing_metrics_use_direction_and_bound() {
        let lower = def("step_ms_p02");
        assert_eq!(judge(lower, &[100.0], &[105.0]), Verdict::Unchanged);
        assert_eq!(judge(lower, &[100.0], &[115.0]), Verdict::Regressed);
        assert_eq!(judge(lower, &[100.0], &[80.0]), Verdict::Improved);
        let higher = def("steps_per_s");
        assert_eq!(judge(higher, &[100.0], &[85.0]), Verdict::Regressed);
        assert_eq!(judge(higher, &[100.0], &[120.0]), Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let d = def("step_ms_p02");
        assert_eq!(
            judge(d, &[90.0, 100.0, 112.0], &[95.0, 100.0, 101.0]),
            Verdict::Unresolved
        );
        // ... unless every candidate run beats every baseline run.
        assert_eq!(
            judge(d, &[90.0, 100.0, 112.0], &[70.0, 71.0, 72.0]),
            Verdict::Improved
        );
    }

    #[test]
    fn names_are_unique_and_units_fit_the_contract() {
        let mut names: Vec<&str> = E2E.iter().map(|d| d.name).collect();
        names.extend(PER_LAYER.iter().map(|d| d.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        let ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(E2E.iter().all(|d| ok(d.unit)));
        assert!(PER_LAYER.iter().all(|d| ok(d.unit)));
    }
}
