//! The three training workloads: one step loop, three gather policies.
//!
//! Closed loop, fixed step counts. A timed step is barrier → forward +
//! loss + backward + `DistKfac::step` + `update_params` (+ a checkpoint
//! save when one is due); its wall is the slowest rank's elapsed. Eval
//! and the restore check run between steps, outside the timed interval.
//! The first `eigen_refresh` steps are warm-up and belong to set-up.

use crate::harness::{comm_config, derive, digest_f32, recorder, Span, Tracer, DIGEST_INIT};
use crate::surface::{
    fingerprint, gaussian_blobs, instantiate, mlp, noisy_images, run_ranks_with, small_cnn,
    softmax_cross_entropy, BoundSchedule, Candidate, CheckpointConfig, CheckpointCoordinator,
    ChunkedCompso, Communicator, Compressor, ControlConfig, Controller, Dataset, DistKfac,
    DistKfacConfig, FaultPlane, InversionMethod, KfacConfig, Matrix, NoCompression, Recorder, Rng,
    Sequential, Setting, Signals, Snapshot,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Timed steps between evals.
pub const EVAL_EVERY: usize = 20;
/// The task instance — dataset draw and initial weights — is part of
/// the workload, not of `--seed`: late in training the held-out loss of
/// two instances differs by ±30 % (measured over ten), which would bury
/// any codec effect and no bound could hold across seeds. `--seed` draws
/// what a rerun of one task varies: the order each rank sees its shard
/// in and every codec's rounding stream.
const TASK_SEED: u64 = 0x7A5C;
/// Steps both replicas take after the restore check to prove the
/// restored optimizer state, not just the parameters, is identical.
const RESTORE_REPLAY_STEPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// MLP `[64,128,128,128,8]` on `gaussian_blobs(4096,64,8,0.8)`.
    Mlp,
    /// `small_cnn(1,12,12,4,16)` on `noisy_images(1024,1,12,12,4,0.45)`.
    Cnn,
}

impl Task {
    /// Held-out samples the eval loss is averaged over. Late in training
    /// a few near-boundary samples carry the whole loss, so a small set
    /// makes the loss depend on the draw more than on the optimizer; the
    /// sizes are what one eval can afford (an MLP forward is cheap, a
    /// conv forward is not).
    pub fn held_out(self) -> usize {
        match self {
            Task::Mlp => 2048,
            Task::Cnn => 512,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// `NoCompression` every step.
    Plain,
    /// `ChunkedCompso` on Alg. 1's step schedule: aggressive for the
    /// first half of the timed steps, conservative after.
    Compso,
    /// A `Controller` cycling `{compso(4e-3), qsgd(8), powersgd(2)}` on
    /// a scripted signal tape.
    Controller,
}

#[derive(Clone, Copy, Debug)]
pub struct TrainSpec {
    pub task: Task,
    pub policy: Policy,
    pub ranks: usize,
    pub batch: usize,
    pub lr: f32,
    pub eigen_refresh: usize,
    pub wire_mbps: Option<f64>,
    pub ckpt_every: Option<usize>,
    pub target_loss: f64,
}

impl TrainSpec {
    pub fn warmup_steps(&self) -> usize {
        self.eigen_refresh
    }
}

/// What one invocation of the step loop should do.
#[derive(Clone, Debug)]
pub struct TrainPlan {
    pub spec: TrainSpec,
    pub seed: u64,
    /// Timed steps of the full workload (fixes the Alg. 1 switch point).
    pub steps: usize,
    /// Timed steps to actually execute (`0` = set-up only).
    pub run_steps: usize,
    /// Install `Recorder::enabled()` and record benchmark-owned spans.
    pub traced: bool,
    /// Scratch directory for checkpoints (inside the checkout).
    pub scratch: PathBuf,
}

/// Tensors captured on rank 0 at the last warm-up step, replayed by the
/// probes through single layers.
pub struct Capture {
    /// Per K-FAC layer: captured activations and output gradients.
    pub stats: Vec<(Matrix, Matrix)>,
    /// Per K-FAC layer: the running `A`, `G` factors.
    pub factors: Vec<(Matrix, Matrix)>,
    /// Per K-FAC layer: raw and preconditioned gradient.
    pub grads: Vec<Matrix>,
    pub pre: Vec<Matrix>,
    pub owners: Vec<usize>,
    pub grad_bucket_elems: usize,
    pub factor_bucket_elems: usize,
}

/// What one rank hands back.
pub struct RankOut {
    pub warmup_done: Instant,
    /// Elapsed nanoseconds per timed step.
    pub step_ns: Vec<u64>,
    /// `(timed steps done, held-out loss)`; rank 0 only.
    pub evals: Vec<(usize, f64)>,
    pub sent_bytes: u64,
    pub gather_original: u64,
    pub gather_wire: u64,
    pub allreduce_bytes: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub digest: u64,
    pub spans: Vec<Span>,
    /// Recorder delta over the timed steps (traced runs).
    pub snapshot: Option<Snapshot>,
    pub capture: Option<Capture>,
    pub ctrl_switches: u64,
    pub ctrl_decide_ns: Vec<u64>,
    pub saves: u64,
    pub restore_ms: Option<f64>,
}

impl RankOut {
    pub fn new(epoch: Instant, steps: usize) -> Self {
        RankOut {
            warmup_done: epoch,
            step_ns: Vec::with_capacity(steps),
            evals: Vec::new(),
            sent_bytes: 0,
            gather_original: 0,
            gather_wire: 0,
            allreduce_bytes: 0,
            attempted: 0,
            failures: Vec::new(),
            digest: 0,
            spans: Vec::new(),
            snapshot: None,
            capture: None,
            ctrl_switches: 0,
            ctrl_decide_ns: Vec::new(),
            saves: 0,
            restore_ms: None,
        }
    }
}

/// One pass over a workload: set-up plus `run_steps` timed steps.
pub struct PassOut {
    /// Data + model + group build + warm-up, seconds.
    pub setup_s: f64,
    pub ranks: Vec<RankOut>,
}

impl PassOut {
    /// Set-up ends when the slowest rank finishes its warm-up.
    pub fn new(epoch: Instant, ranks: Vec<RankOut>) -> Self {
        let ready = ranks
            .iter()
            .map(|r| r.warmup_done)
            .max()
            .expect("at least one rank");
        PassOut {
            setup_s: (ready - epoch).as_secs_f64(),
            ranks,
        }
    }
}

fn split(d: &Dataset, n_train: usize) -> (Dataset, Dataset) {
    let take = |range: std::ops::Range<usize>| {
        let mut x = Matrix::zeros(range.len(), d.features());
        for (r, src) in range.clone().enumerate() {
            x.row_mut(r).copy_from_slice(d.x.row(src));
        }
        Dataset {
            x,
            y: d.y[range].to_vec(),
            classes: d.classes,
        }
    };
    (take(0..n_train), take(n_train..d.len()))
}

/// The rows of `d` in an order drawn from `seed`.
fn reorder(d: &Dataset, seed: u64) -> Dataset {
    let mut order: Vec<usize> = (0..d.len()).collect();
    Rng::new(seed).shuffle(&mut order);
    let mut x = Matrix::zeros(d.len(), d.features());
    for (r, &src) in order.iter().enumerate() {
        x.row_mut(r).copy_from_slice(d.x.row(src));
    }
    Dataset {
        x,
        y: order.iter().map(|&src| d.y[src]).collect(),
        classes: d.classes,
    }
}

fn build_data(task: Task, seed: u64) -> (Dataset, Dataset) {
    match task {
        Task::Mlp => split(
            &gaussian_blobs(4096 + task.held_out(), 64, 8, 0.8, seed),
            4096,
        ),
        Task::Cnn => split(
            &noisy_images(1024 + task.held_out(), 1, 12, 12, 4, 0.45, seed),
            1024,
        ),
    }
}

fn build_model(task: Task, rng: &mut Rng) -> Sequential {
    match task {
        Task::Mlp => mlp(&[64, 128, 128, 128, 8], rng),
        Task::Cnn => small_cnn(1, 12, 12, 4, 16, rng),
    }
}

fn build_optimizer(spec: &TrainSpec, seed: u64) -> DistKfac {
    DistKfac::new(
        DistKfacConfig {
            kfac: KfacConfig {
                damping: 0.05,
                ema_decay: 0.95,
                eigen_refresh: spec.eigen_refresh,
                inversion: InversionMethod::Eigen,
            },
            aggregation: 4,
            pipeline_gather: true,
        },
        seed,
    )
}

fn param_digest(model: &Sequential) -> u64 {
    (0..model.len())
        .filter_map(|i| model.layer(i).params())
        .fold(DIGEST_INIT, |h, p| digest_f32(h, p.as_slice()))
}

fn eval_loss(model: &mut Sequential, held: &Dataset) -> f64 {
    let logits = model.forward(&held.x, false);
    f64::from(softmax_cross_entropy(&logits, &held.y).0)
}

/// The controller's scripted tape: a pure function of the step index and
/// the step's all-reduce volume (identical on every rank, unlike the
/// per-rank gather bytes), so replicas decide in lockstep. The achieved
/// ratio swings on a 60-step wave, which keeps dethroning the active
/// candidate, and every 97th step spikes the error signal into backoff.
fn scripted_signal(step: u64, allreduce_bytes: u64) -> Signals {
    let wave = (step % 60) as f64 / 60.0;
    let ratio = 2.0 + 10.0 * (1.0 - (2.0 * wave - 1.0).abs());
    let bytes_in = allreduce_bytes.max(1);
    Signals {
        bytes_in,
        bytes_out: (bytes_in as f64 / ratio) as u64 + 1,
        wall_ns: 40_000 + (step % 7) * 1_000,
        predicted_wall_ns: 40_000,
        error_rel: if step % 97 == 96 { 3.0 } else { 0.05 },
    }
}

fn controller_config() -> ControlConfig {
    ControlConfig {
        warmup_steps: 4,
        eval_every: 5,
        patience: 1,
        explore_every: 2,
        backoff_steps: 6,
        seed: 0,
        candidates: vec![
            Candidate::new(Setting::compso(4e-3), 5.0, 1.0),
            Candidate::new(Setting::qsgd(8), 4.0, 1.0),
            Candidate::new(Setting::powersgd(2), 6.0, 1.0),
        ],
        ..ControlConfig::default()
    }
}

/// Picks the step's compressor. Controller-held instances live in a bank
/// keyed by setting label so PowerSGD's keyed state survives while its
/// setting is held.
struct Gather {
    policy: Policy,
    schedule: BoundSchedule,
    chunked: ChunkedCompso,
    controller: Option<Controller>,
    bank: BTreeMap<String, Box<dyn Compressor>>,
}

impl Gather {
    fn new(spec: &TrainSpec, steps: usize) -> Self {
        Gather {
            policy: spec.policy,
            schedule: BoundSchedule::step_paper(spec.warmup_steps() + steps / 2),
            chunked: ChunkedCompso::default(),
            controller: (spec.policy == Policy::Controller)
                .then(|| Controller::new(controller_config())),
            bank: BTreeMap::new(),
        }
    }

    fn compressor(&mut self, step: usize) -> &dyn Compressor {
        match self.policy {
            Policy::Plain => &NoCompression,
            Policy::Compso => {
                self.chunked = ChunkedCompso::new(self.schedule.config_at(step));
                &self.chunked
            }
            Policy::Controller => {
                let setting = self
                    .controller
                    .as_ref()
                    .expect("controller policy")
                    .active_setting();
                let held = self
                    .bank
                    .entry(setting.label())
                    .or_insert_with(|| instantiate(&setting));
                &**held
            }
        }
    }
}

/// Everything one replica trains with; built twice on the checkpoint
/// workload (live + restored).
struct Replica {
    model: Sequential,
    opt: DistKfac,
}

impl Replica {
    fn new(spec: &TrainSpec, init_seed: u64, codec_seed: u64, recorder: &Recorder) -> Self {
        let model = build_model(spec.task, &mut Rng::new(init_seed));
        let mut opt = build_optimizer(spec, codec_seed);
        opt.set_recorder(recorder.clone());
        Replica { model, opt }
    }
}

struct StepOutcome {
    loss: f32,
    allreduce_bytes: u64,
    gather_original: u64,
    gather_wire: u64,
}

/// Forward + loss + backward + `DistKfac::step` + `update_params`.
#[allow(clippy::too_many_arguments)]
fn train_step(
    comm: &mut Communicator,
    replica: &mut Replica,
    x: &Matrix,
    y: &[usize],
    compressor: &dyn Compressor,
    lr: f32,
    step: usize,
    tracer: &mut Tracer,
    mut after_backward: impl FnMut(&Sequential),
) -> Result<StepOutcome, String> {
    let Replica { model, opt } = replica;
    let logits = tracer.time("dnn.forward", step, || model.forward(x, true));
    let (loss, grad) = tracer.time("dnn.loss", step, || softmax_cross_entropy(&logits, y));
    tracer.time("dnn.backward", step, || model.backward(&grad));
    after_backward(model);
    let stats = tracer
        .time("kfac.dist_step", step, || opt.step(comm, model, compressor))
        .map_err(|e| format!("step {step}: DistKfac::step: {e}"))?;
    tracer.time("dnn.update", step, || {
        model.update_params(|p, g| p.axpy(-lr, g))
    });
    Ok(StepOutcome {
        loss,
        allreduce_bytes: stats.allreduce_bytes,
        gather_original: stats.gather_bytes_original,
        gather_wire: stats.gather_bytes_wire,
    })
}

/// The half of a [`Capture`] taken after backward, before
/// `DistKfac::step` replaces the raw gradients.
struct RawCapture {
    stats: Vec<(Matrix, Matrix)>,
    grads: Vec<Matrix>,
    grad_bucket_elems: usize,
}

fn capture_raw(model: &Sequential) -> RawCapture {
    let mut stats = Vec::new();
    let mut grads = Vec::new();
    for idx in model.kfac_indices() {
        let s = model.kfac_stats(idx).expect("kfac layer has statistics");
        stats.push((s.a, s.g));
        grads.push(
            model
                .layer(idx)
                .grads()
                .expect("kfac layer has a gradient")
                .clone(),
        );
    }
    let grad_bucket_elems = model
        .trainable_indices()
        .iter()
        .filter_map(|&i| model.layer(i).grads())
        .map(Matrix::len)
        .sum();
    RawCapture {
        stats,
        grads,
        grad_bucket_elems,
    }
}

fn rank_main(
    comm: &mut Communicator,
    plan: &TrainPlan,
    train: &Dataset,
    held: &Dataset,
    epoch: Instant,
) -> RankOut {
    let spec = &plan.spec;
    let rank = comm.rank();
    let recorder = recorder(plan.traced);
    comm.set_recorder(recorder.clone());
    let mut tracer = Tracer::new(epoch, rank, plan.traced);
    let shard = reorder(
        &train.shard(rank, spec.ranks),
        derive(plan.seed, 5 + rank as u64),
    );
    let mut replica = Replica::new(spec, derive(TASK_SEED, 2), derive(plan.seed, 3), &recorder);
    let mut gather = Gather::new(spec, plan.steps);
    let coordinator = spec.ckpt_every.map(|_| {
        CheckpointCoordinator::new(CheckpointConfig::new(
            &plan.scratch,
            fingerprint(&["benchmark", "cnn_ctrl_ckpt"]),
        ))
        .expect("open checkpoint store inside the checkout")
    });

    let warmup = spec.warmup_steps();
    let mut out = RankOut::new(epoch, plan.run_steps);
    let mut sent_at_warmup = 0u64;
    let mut snap_at_warmup = None;
    let mut raw_capture: Option<RawCapture> = None;

    'steps: for step in 0..warmup + plan.run_steps {
        let timed = step >= warmup;
        if step == warmup {
            out.warmup_done = Instant::now();
            sent_at_warmup = comm.sent_bytes();
            snap_at_warmup = plan.traced.then(|| recorder.snapshot());
        }
        let (x, y) = shard.batch(step, spec.batch);
        out.attempted += 1;
        if let Err(e) = comm.barrier() {
            out.failures.push(format!("step {step}: barrier: {e}"));
            break 'steps;
        }
        let start = Instant::now();
        let capture_now = plan.traced && rank == 0 && step + 1 == warmup;
        let compressor = gather.compressor(step);
        let outcome = train_step(
            comm,
            &mut replica,
            &x,
            &y,
            compressor,
            spec.lr,
            step,
            &mut tracer,
            |model| {
                if capture_now {
                    raw_capture = Some(capture_raw(model));
                }
            },
        );
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                out.failures.push(e);
                break 'steps;
            }
        };
        if !outcome.loss.is_finite() {
            out.failures
                .push(format!("step {step}: loss is {}", outcome.loss));
        }
        if let Some(ctl) = gather.controller.as_mut() {
            let t0 = Instant::now();
            let decision = ctl.observe(
                &scripted_signal(step as u64, outcome.allreduce_bytes),
                &recorder,
            );
            let t1 = Instant::now();
            if timed {
                out.ctrl_decide_ns.push((t1 - t0).as_nanos() as u64);
                out.ctrl_switches += u64::from(decision.switched);
            }
            tracer.record("ctrl.observe", Some("step"), step, t0, t1);
        }
        let done = (step + 1).saturating_sub(warmup);
        if let (Some(every), Some(coord), true) = (spec.ckpt_every, &coordinator, timed) {
            if done.is_multiple_of(every) {
                out.attempted += 1;
                let saved = tracer.time("ckpt.save", step, || {
                    coord.save(comm, (step + 1) as u64, &replica.opt, &replica.model, &[])
                });
                match saved {
                    Ok(()) => out.saves += 1,
                    Err(e) => out.failures.push(format!("step {step}: save: {e}")),
                }
            }
        }
        let end = Instant::now();
        tracer.record("step", None, step, start, end);
        if timed {
            out.step_ns.push((end - start).as_nanos() as u64);
            out.allreduce_bytes += outcome.allreduce_bytes;
            out.gather_original += outcome.gather_original;
            out.gather_wire += outcome.gather_wire;
        }
        if let Some(raw) = raw_capture.take() {
            out.capture = Some(finish_capture(&replica, raw));
        }
        if timed && rank == 0 && (done.is_multiple_of(EVAL_EVERY) || done == plan.run_steps) {
            out.evals.push((done, eval_loss(&mut replica.model, held)));
        }
    }
    if plan.run_steps == 0 {
        out.warmup_done = Instant::now();
        return out;
    }
    out.sent_bytes = comm.sent_bytes() - sent_at_warmup;
    out.snapshot = snap_at_warmup.map(|before| recorder.snapshot().delta_since(&before));
    out.digest = param_digest(&replica.model);

    // Restore check: a fresh replica restored from the last snapshot must
    // equal the live one, and stay equal over a few more steps (which
    // exercises the restored factors, eigendecompositions and RNG).
    if let (Some(coord), true) = (&coordinator, out.failures.is_empty() && out.saves > 0) {
        out.attempted += 1;
        if let Err(e) = restore_check(comm, plan, coord, &mut replica, &shard, &mut out) {
            out.failures.push(e);
        }
    }
    out.spans = tracer.into_spans();
    out
}

/// The other half, after the step: the factors it folded and the
/// gradients it would gather.
fn finish_capture(replica: &Replica, raw: RawCapture) -> Capture {
    let RawCapture {
        stats,
        grads,
        grad_bucket_elems,
    } = raw;
    let kfac = replica.opt.kfac();
    let layers = replica.model.kfac_indices();
    let factors: Vec<(Matrix, Matrix)> = layers
        .iter()
        .map(|&idx| {
            let (a, g) = kfac.factors(idx).expect("factor state after a step");
            (a.clone(), g.clone())
        })
        .collect();
    let pre = layers
        .iter()
        .zip(&grads)
        .map(|(&idx, grad)| kfac.precondition_layer(idx, grad))
        .collect();
    Capture {
        factor_bucket_elems: factors.iter().map(|(a, g)| a.len() + g.len()).sum(),
        stats,
        factors,
        grads,
        pre,
        owners: replica
            .opt
            .owners()
            .expect("ownership map after a step")
            .to_vec(),
        grad_bucket_elems,
    }
}

fn restore_check(
    comm: &mut Communicator,
    plan: &TrainPlan,
    coord: &CheckpointCoordinator,
    live: &mut Replica,
    shard: &Dataset,
    out: &mut RankOut,
) -> Result<(), String> {
    let spec = &plan.spec;
    let last_step = spec.warmup_steps() + plan.run_steps;
    if !plan.run_steps.is_multiple_of(spec.ckpt_every.unwrap_or(1)) {
        return Err("restore check needs the last step to be a save step".into());
    }
    // Garbage-initialised on purpose: restore must overwrite all of it.
    let mut restored = Replica::new(
        spec,
        derive(plan.seed, 98),
        derive(plan.seed, 99),
        &Recorder::disabled(),
    );
    let t0 = Instant::now();
    let snapshot = coord
        .restore(comm, &mut restored.opt, &mut restored.model)
        .map_err(|e| format!("restore: {e}"))?;
    out.restore_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
    if snapshot.step != last_step as u64 {
        return Err(format!(
            "restore: snapshot is of step {}, expected {last_step}",
            snapshot.step
        ));
    }
    if param_digest(&restored.model) != param_digest(&live.model) {
        return Err("restore: parameters differ from the uninterrupted replica".into());
    }
    let compressor = ChunkedCompso::default();
    let mut quiet = Tracer::new(Instant::now(), comm.rank(), false);
    for replica in [&mut *live, &mut restored] {
        for step in last_step..last_step + RESTORE_REPLAY_STEPS {
            let (x, y) = shard.batch(step, spec.batch);
            train_step(
                comm,
                replica,
                &x,
                &y,
                &compressor,
                spec.lr,
                step,
                &mut quiet,
                |_| {},
            )?;
        }
    }
    if param_digest(&restored.model) != param_digest(&live.model) {
        return Err("restore: replicas diverge after resuming".into());
    }
    Ok(())
}

/// Builds the data, spawns the ranks, runs warm-up and `run_steps` timed
/// steps. Panics propagate (the caller catches them per workload).
pub fn run(plan: &TrainPlan) -> PassOut {
    let epoch = Instant::now();
    let (train, held) = build_data(plan.spec.task, derive(TASK_SEED, 1));
    let config = comm_config(plan.spec.wire_mbps);
    let ranks = run_ranks_with(plan.spec.ranks, FaultPlane::disabled(), config, |comm| {
        rank_main(comm, plan, &train, &held, epoch)
    });
    PassOut::new(epoch, ranks)
}
