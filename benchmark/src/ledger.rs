//! The traced run: per-layer metrics from benchmark-owned spans, probes
//! and the `StepReport` phases the program already records.
//!
//! End-to-end metrics are never taken from here: the traced pass pays
//! for `Recorder::enabled()` and the span pushes, and
//! `obs.trace_overhead_frac` says how much.

use crate::gather::{strategies, GatherData};
use crate::harness::{median, nproc, quantile, span_ms, Span, RANKS, WORKERS_PER_RANK};
use crate::json::{obj, Json};
use crate::metrics::{metrics_json, Metric, PER_LAYER};
use crate::probes::{self, CommProbe, CoreProbe, Groups};
use crate::surface::{
    instantiate, names, pipelined_wall, ChunkedCompso, Compressor, NoCompression, Setting,
    Snapshot, STEP_PHASES,
};
use crate::train::{Capture, PassOut, Policy, TrainPlan, TrainSpec};
use crate::workloads::{step_walls_ms, summarize, Kind, Workload, MLP, QUIET_QUANTILE, WIRE_MBPS};
use std::collections::BTreeMap;
use std::path::Path;

/// Steps of the single-rank reference run.
const REFERENCE_RUN_STEPS: usize = 50;

pub struct Traced {
    pub workload: &'static str,
    pub steps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub trace_path: std::path::PathBuf,
}

fn p50(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool) -> Option<f64> {
    let ms = span_ms(spans, name, keep);
    (!ms.is_empty()).then(|| median(&ms))
}

/// Mean milliseconds per step of timer `name`, averaged over ranks.
fn timer_ms_per_step(snaps: &[&Snapshot], name: &str, steps: usize) -> f64 {
    snaps.iter().map(|s| s.timer_seconds(name)).sum::<f64>() / snaps.len() as f64 * 1e3
        / steps as f64
}

/// Collective calls one rank issued, from the counters the program
/// already keeps.
fn collective_calls(snapshot: &Snapshot) -> u64 {
    [
        names::COMM_ALLREDUCE_CALLS,
        names::COMM_ALLGATHER_VAR_CALLS,
        names::COMM_PIPELINED_ALLGATHER_CALLS,
    ]
    .iter()
    .map(|name| snapshot.counter(name))
    .sum()
}

fn counter_per_step(snaps: &[&Snapshot], name: &str, steps: usize) -> f64 {
    snaps.iter().map(|s| s.counter(name)).sum::<u64>() as f64 / steps as f64
}

/// The codec the workload's gather mostly runs, and every family it
/// visits (the controller workload drives three).
fn families(w: &Workload) -> Vec<Box<dyn Compressor>> {
    match w.kind {
        Kind::Train(TrainSpec {
            policy: Policy::Plain,
            ..
        }) => vec![Box::new(NoCompression)],
        Kind::Train(TrainSpec {
            policy: Policy::Controller,
            ..
        }) => [
            Setting::compso(4e-3),
            Setting::qsgd(8),
            Setting::powersgd(2),
        ]
        .iter()
        .map(instantiate)
        .collect(),
        _ => vec![Box::new(ChunkedCompso::default())],
    }
}

fn capture_groups(capture: &Capture) -> Groups<'_> {
    (0..RANKS)
        .map(|r| {
            let owned: Vec<(u64, &[f32])> = capture
                .owners
                .iter()
                .enumerate()
                .filter(|(_, &o)| o == r)
                .map(|(pos, _)| (pos as u64, capture.pre[pos].as_slice()))
                .collect();
            owned.chunks(4).map(<[_]>::to_vec).collect()
        })
        .collect()
}

fn gather_groups(data: &GatherData) -> Groups<'_> {
    data.groups
        .iter()
        .map(|groups| {
            groups
                .iter()
                .map(|ids| {
                    ids.iter()
                        .map(|&i| (i as u64, data.layers[i].as_slice()))
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn core_json(p: &CoreProbe) -> Json {
    obj([
        ("family", p.family.into()),
        ("original_bytes", p.original_bytes.into()),
        ("compressed_bytes", p.compressed_bytes.into()),
        ("compress_MBps", p.compress_mbps().into()),
        ("decompress_MBps", p.decompress_mbps().into()),
        ("ratio", p.ratio().into()),
        ("rel_error", p.rel_error.into()),
    ])
}

/// The single-worker baseline: a plain 1-rank run of the
/// `mlp_wire_plain` task. With 2 ranks on 2 cores, wall-clock scaling
/// beyond it is not reported.
fn single_rank_step_ms(seed: u64, out_dir: &Path) -> f64 {
    let spec = TrainSpec { ranks: 1, ..MLP };
    let pass = crate::train::run(&TrainPlan {
        spec,
        seed,
        steps: REFERENCE_RUN_STEPS,
        run_steps: REFERENCE_RUN_STEPS,
        traced: false,
        scratch: out_dir.join("unused"),
    });
    median(&step_walls_ms(&pass))
}

/// The rows being filled in and the probe detail that goes to the trace
/// file beside them. A row never set stays `n/a`.
#[derive(Default)]
struct Ledger {
    rows: BTreeMap<&'static str, f64>,
    probes: Vec<(String, Json)>,
}

impl Ledger {
    fn set(&mut self, name: &'static str, value: impl Into<Option<f64>>) {
        if let Some(v) = value.into() {
            self.rows.insert(name, v);
        }
    }

    fn core_rows(&mut self, core: &CoreProbe) {
        self.set("core.compress_MBps", core.compress_mbps());
        self.set("core.decompress_MBps", core.decompress_mbps());
        self.set("core.ratio", core.ratio());
        self.set("core.rel_error", core.rel_error);
    }

    fn comm_rows(&mut self, comm: &CommProbe) {
        self.set(
            "comm.allreduce_grad_ms",
            comm.allreduce_grad_s.map(|s| s * 1e3),
        );
        self.set(
            "comm.allreduce_factor_ms",
            comm.allreduce_factor_s.map(|s| s * 1e3),
        );
        self.set("comm.allgather_var_ms", comm.allgather_var_s * 1e3);
        self.set("comm.pipelined_allgather_ms", comm.pipelined_s * 1e3);
        let serial = comm.compress_s + comm.allgather_var_s + comm.decode_s;
        self.set(
            "comm.pipeline_overlap_frac",
            1.0 - comm.pipelined_s / serial,
        );
        self.set("comm.barrier_us", comm.barrier_s * 1e6);
        self.probes.push((
            "comm".into(),
            obj([
                ("compress_ms", (comm.compress_s * 1e3).into()),
                ("allgather_var_ms", (comm.allgather_var_s * 1e3).into()),
                ("decode_ms", (comm.decode_s * 1e3).into()),
                ("pipelined_ms", (comm.pipelined_s * 1e3).into()),
                ("own_frame_bytes", comm.own_frame_bytes.into()),
                ("peer_frame_bytes", comm.peer_frame_bytes.into()),
            ]),
        ));
    }
}

/// What the traced pass of one workload left behind.
struct TracedPass<'a> {
    pass: &'a PassOut,
    spans: Vec<Span>,
    snaps: Vec<&'a Snapshot>,
    warmup: usize,
    /// Timed steps every rank finished (at least 1, as a divisor).
    steps: usize,
}

impl TracedPass<'_> {
    fn timed(&self, s: &Span) -> bool {
        s.step as usize >= self.warmup
    }

    fn p50(&self, name: &str) -> Option<f64> {
        p50(&self.spans, name, |s| self.timed(s))
    }
}

/// Rows read from the counters and timers the program already keeps.
fn recorder_rows(ledger: &mut Ledger, t: &TracedPass, wire_mbps: Option<f64>) {
    let n = t.steps;
    let sent_per_step =
        t.pass.ranks.iter().map(|r| r.sent_bytes).max().unwrap_or(0) as f64 / n as f64;
    let ideal_ms = wire_mbps.map(|mbps| sent_per_step / (mbps * 1e6) * 1e3);
    ledger.set("comm.wire_ideal_ms", ideal_ms);
    if t.snaps.is_empty() {
        return;
    }
    let snaps = &t.snaps;
    ledger.set(
        "comm.collective_calls_per_step",
        snaps.iter().map(|s| collective_calls(s)).sum::<u64>() as f64
            / snaps.len() as f64
            / n as f64,
    );
    // Time inside collectives, less the codec work the pipelined gather
    // runs inside its own span.
    let in_collectives_ms = [
        names::COMM_ALLREDUCE,
        names::COMM_ALLGATHER_VAR,
        names::COMM_ALLGATHER_REPAIR,
        names::COMM_PIPELINED_ALLGATHER,
    ]
    .iter()
    .map(|timer| timer_ms_per_step(snaps, timer, n))
    .sum::<f64>()
        - timer_ms_per_step(snaps, names::COMM_PIPELINE_PRODUCE, n)
        - timer_ms_per_step(snaps, names::COMM_PIPELINE_DELIVER, n);
    ledger.set("comm.exposed_ms", ideal_ms.map(|i| in_collectives_ms - i));
    ledger.set(
        "core.bytes_in_per_step",
        counter_per_step(snaps, names::CORE_BYTES_IN, n),
    );
    let produce_calls: u64 = snaps
        .iter()
        .filter_map(|s| s.timers.get(names::COMM_PIPELINE_PRODUCE))
        .map(|timer| timer.count)
        .sum();
    ledger.set(
        "core.encode_calls_per_step",
        produce_calls as f64 / n as f64,
    );
}

/// `dnn`, `kfac`, `ctrl`, `ckpt`, `tensor` and the probes of a training
/// workload.
fn train_rows(ledger: &mut Ledger, t: &TracedPass, spec: &TrainSpec, w: &Workload) {
    let (n, snaps, ranks) = (t.steps, &t.snaps, &t.pass.ranks);
    ledger.set("dnn.forward_ms", t.p50("dnn.forward"));
    ledger.set("dnn.backward_ms", t.p50("dnn.backward"));
    ledger.set("dnn.update_ms", t.p50("dnn.update"));
    ledger.set("kfac.dist_step_ms", t.p50("kfac.dist_step"));
    ledger.set(
        "kfac.refresh_step_ms_p50",
        p50(&t.spans, "kfac.dist_step", |s| {
            t.timed(s) && (s.step as usize).is_multiple_of(spec.eigen_refresh)
        }),
    );
    ledger.set(
        "kfac.step_ms_max",
        span_ms(&t.spans, "kfac.dist_step", |s| t.timed(s))
            .into_iter()
            .reduce(f64::max),
    );
    if !snaps.is_empty() {
        for (metric, phase) in [
            "kfac.phase.grad_sync_ms",
            "kfac.phase.factor_ms",
            "kfac.phase.inverse_ms",
            "kfac.phase.allgather_ms",
            "kfac.phase.update_ms",
        ]
        .into_iter()
        .zip(STEP_PHASES)
        {
            ledger.set(metric, timer_ms_per_step(snaps, phase, n));
        }
    }
    // The ROADMAP ledger check, per rank, worst rank reported: the phases
    // the program records against the span the harness put around the
    // same call.
    let worst = ranks
        .iter()
        .enumerate()
        .filter_map(|(r, rank)| {
            let snap = rank.snapshot.as_ref()?;
            let phases: f64 = STEP_PHASES.iter().map(|p| snap.timer_seconds(p)).sum();
            let measured = span_ms(&t.spans, "kfac.dist_step", |s| {
                t.timed(s) && s.rank as usize == r
            })
            .iter()
            .sum::<f64>()
                / 1e3;
            (measured > 0.0).then(|| (phases - measured).abs() / measured)
        })
        .reduce(f64::max);
    ledger.set("obs.fraction_sum_err", worst);

    let gather_wire: u64 = ranks.iter().map(|r| r.gather_wire).sum();
    let sent: u64 = ranks.iter().map(|r| r.sent_bytes).sum();
    // Every gather frame crosses p − 1 links.
    ledger.set(
        "kfac.gather_share_of_wire",
        (sent > 0).then(|| (gather_wire * (RANKS as u64 - 1)) as f64 / sent as f64),
    );

    if spec.policy == Policy::Controller {
        let decide: Vec<f64> = ranks
            .iter()
            .flat_map(|r| r.ctrl_decide_ns.iter().map(|&ns| ns as f64))
            .collect();
        ledger.set("ctrl.decide_ns", median(&decide));
        ledger.set("ctrl.switches", ranks[0].ctrl_switches as f64);
        ledger.set(
            "ctrl.schedule_invalidations",
            snaps
                .first()
                .map(|s| s.counter(names::CTRL_SCHEDULE_INVALIDATIONS) as f64),
        );
    }
    if spec.ckpt_every.is_some() {
        let stall = t.p50("ckpt.save");
        ledger.set("ckpt.save_stall_ms", stall);
        ledger.set(
            "ckpt.restore_ms",
            ranks.iter().filter_map(|r| r.restore_ms).reduce(f64::max),
        );
        let saves = ranks[0].saves.max(1) as f64;
        let bytes: u64 = snaps.iter().map(|s| s.counter(names::CKPT_BYTES)).sum();
        let raw: u64 = snaps.iter().map(|s| s.counter(names::CKPT_RAW_BYTES)).sum();
        ledger.set("ckpt.bytes_per_save", bytes as f64 / saves);
        ledger.set(
            "ckpt.save_MBps",
            stall.map(|ms| raw as f64 / saves / (ms / 1e3) / 1e6),
        );
    }

    let Some(capture) = ranks[0].capture.as_ref() else {
        return;
    };
    ledger.set(
        "kfac.grad_bucket_bytes",
        capture.grad_bucket_elems as f64 * 4.0,
    );
    ledger.set(
        "kfac.factor_bucket_bytes",
        capture.factor_bucket_elems as f64 * 4.0,
    );
    let (tensor, kfac) = probes::tensor_and_kfac(capture);
    ledger.set("tensor.sym_eig_ms", tensor.sym_eig_ms);
    ledger.set("tensor.matmul_gflops", tensor.matmul_gflops);
    ledger.set("kfac.covariance_ms", kfac.covariance_ms);
    ledger.set("kfac.precondition_ms", kfac.precondition_ms);

    let groups = capture_groups(capture);
    let family_list = families(w);
    let primary: &dyn Compressor = family_list[0].as_ref();
    // `core` rows stay n/a where the codec is bypassed.
    if spec.policy != Policy::Plain {
        let all: Vec<CoreProbe> = family_list
            .iter()
            .map(|c| probes::core(c.as_ref(), &groups[0]))
            .collect();
        ledger.probes.push((
            "core_families".into(),
            Json::Arr(all.iter().map(core_json).collect()),
        ));
        ledger.core_rows(&all[0]);
    }
    ledger.comm_rows(&probes::comm(
        primary,
        &groups,
        spec.wire_mbps,
        Some(capture.grad_bucket_elems),
        Some(capture.factor_bucket_elems),
    ));
}

/// `core`, `comm` and `sim` on `gather_resnet50`: one probe per strategy,
/// as a step gathers once under each; the rows are their totals.
fn gather_rows(ledger: &mut Ledger, seed: u64, untraced_p50: f64) {
    let data = GatherData::build(seed, RANKS);
    let groups = gather_groups(&data);
    let own_original = (0..RANKS)
        .map(|r| data.original_bytes(r))
        .max()
        .unwrap_or(0);
    let stages = data.groups.iter().map(Vec::len).max().unwrap_or(1);
    let mut cores = Vec::new();
    let mut total: Option<(CoreProbe, CommProbe)> = None;
    let mut predicted_ms = 0.0;
    for config in strategies() {
        let compressor = ChunkedCompso::new(config);
        let core = probes::core(&compressor, &groups[0]);
        let comm = probes::comm(&compressor, &groups, Some(WIRE_MBPS), None, None);
        // sim: the §4.4 pipelined-wall model fed the probed profile and
        // the modeled bandwidth.
        let compress_tput = core.original_bytes as f64 / core.compress_s;
        let decompress_tput = core.compressed_bytes as f64 / core.decompress_s;
        let compute_s = own_original as f64 / compress_tput
            + (comm.peer_frame_bytes + comm.own_frame_bytes) as f64 / decompress_tput;
        let comm_s = comm.peer_frame_bytes as f64 / (WIRE_MBPS * 1e6);
        predicted_ms += pipelined_wall(compute_s, comm_s, stages) * 1e3;
        cores.push(core_json(&core));
        total = Some(match total {
            None => (core, comm),
            Some((c, m)) => (c.plus(&core), m.plus(&comm)),
        });
    }
    ledger
        .probes
        .push(("core_families".into(), Json::Arr(cores)));
    ledger.set(
        "sim.gather_residual_frac",
        (untraced_p50 - predicted_ms) / predicted_ms,
    );
    ledger.probes.push((
        "sim".into(),
        obj([
            ("stages", stages.into()),
            ("predicted_ms", predicted_ms.into()),
            ("untraced_step_ms_p50", untraced_p50.into()),
        ]),
    ));
    if let Some((core, comm)) = total {
        ledger.core_rows(&core);
        ledger.comm_rows(&comm);
    }
}

/// Runs the traced pass between two untraced reference passes over the
/// first third of the steps, then the probes; writes
/// `trace_<workload>.json`.
pub fn trace(w: &Workload, seed: u64, seconds: f64, out_dir: &Path) -> Traced {
    let steps = w.steps_for(seconds);
    let warmup = w.warmup_steps();
    // The first pass of a process runs cold (page faults, allocator
    // growth) and later passes keep getting slightly faster, so the
    // untraced reference brackets the traced pass and the two halves'
    // drift cancels.
    let reference_steps = (steps / 3).max(1);
    let before = w.pass(seed, steps, reference_steps, false, out_dir);
    let pass = w.pass(seed, steps, steps, true, out_dir);
    let after = w.pass(seed, steps, reference_steps, false, out_dir);

    let summary = summarize(w, steps, vec![pass.setup_s], &pass);
    let traced_walls = step_walls_ms(&pass);
    let t = TracedPass {
        pass: &pass,
        spans: pass.ranks.iter().flat_map(|r| r.spans.clone()).collect(),
        snaps: pass
            .ranks
            .iter()
            .filter_map(|r| r.snapshot.as_ref())
            .collect(),
        warmup,
        steps: traced_walls.len().max(1),
    };
    let mut ledger = Ledger::default();

    ledger.set("host.nproc", nproc() as f64);
    ledger.set("host.ranks", RANKS as f64);
    ledger.set("host.rayon_workers", WORKERS_PER_RANK as f64);
    ledger.set("host.membw_GBps", probes::membw_gbps());
    ledger.set(
        "ref.single_rank_step_ms_p50",
        single_rank_step_ms(seed, out_dir),
    );
    ledger.set("trace.steps", traced_walls.len() as f64);
    ledger.set("trace.step_ms_p02", quantile(&traced_walls, QUIET_QUANTILE));

    // obs: traced against untraced median step over the same steps.
    let k = reference_steps.min(traced_walls.len());
    let untraced_p50 = [&before, &after]
        .iter()
        .map(|pass| median(&step_walls_ms(pass)))
        .sum::<f64>()
        / 2.0;
    if k > 0 && untraced_p50.is_finite() {
        ledger.set(
            "obs.trace_overhead_frac",
            median(&traced_walls[..k]) / untraced_p50 - 1.0,
        );
    }

    recorder_rows(&mut ledger, &t, w.wire_mbps());
    match w.kind {
        Kind::Train(spec) => train_rows(&mut ledger, &t, &spec, w),
        Kind::Gather => gather_rows(&mut ledger, seed, untraced_p50),
    }

    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|def| Metric::new(def.name, def.unit, ledger.rows.get(def.name).copied()))
        .collect();

    let trace_path = out_dir.join(format!("trace_{}.json", w.name));
    let timers: Vec<(String, Json)> = t
        .snaps
        .first()
        .map(|s| {
            s.timers
                .iter()
                .map(|(name, timer)| {
                    (
                        name.clone(),
                        obj([
                            ("total_ms", (timer.seconds() * 1e3).into()),
                            ("count", timer.count.into()),
                        ]),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    let file = obj([
        ("workload", w.name.into()),
        ("seed", seed.into()),
        ("timed_steps", traced_walls.len().into()),
        ("warmup_steps", warmup.into()),
        ("per_layer", metrics_json(&metrics)),
        ("probes", Json::Obj(ledger.probes)),
        ("rank0_recorder_timers", Json::Obj(timers)),
        (
            "spans",
            Json::Arr(t.spans.iter().map(|s| s.to_json()).collect()),
        ),
    ]);
    std::fs::create_dir_all(out_dir).expect("create the benchmark's out directory");
    std::fs::write(&trace_path, file.compact()).expect("write the trace file");

    Traced {
        workload: w.name,
        steps,
        attempted: summary.attempted,
        failed: summary.failed,
        failures: summary.failures,
        metrics,
        trace_path,
    }
}
