//! `gather_resnet50`: the paper's own regime, with no model in the way.
//!
//! Per gather each rank compresses its greedy-assigned share of
//! ResNet-50-shaped synthetic K-FAC gradients into CRC frames, moves
//! them with `pipelined_allgather` over the modeled wire and decodes
//! every group; a step is one gather under each of Alg. 1's two
//! strategies. No training: `dnn`, `tensor` and `kfac` do nothing here,
//! so an eigen or conv optimisation must not move this workload.

use crate::harness::{comm_config, derive, digest_f32, recorder, RelError, Tracer, DIGEST_INIT};
use crate::surface::{
    assign_layers, frame_checksummed, generate, pipelined_allgather, run_ranks_with,
    unframe_checksummed, BoundSchedule, ChunkedCompso, Communicator, Compressor, CompsoConfig,
    FaultPlane, GradientProfile, LayerSchedule, ModelSpec, Rng,
};
use crate::train::{PassOut, RankOut};
use std::cell::RefCell;
use std::time::Instant;

/// Total gradient elements across the model (8 MiB of f32).
pub const TOTAL_ELEMS: usize = 2 << 20;
/// Layers per compressed unit (§4.4's `m`), as in the training workloads.
pub const AGGREGATION: usize = 4;
/// Untimed gather steps that fill codec tables and scratch arenas.
pub const WARMUP_STEPS: usize = 5;

#[derive(Clone, Debug)]
pub struct GatherPlan {
    pub ranks: usize,
    pub wire_mbps: f64,
    pub seed: u64,
    /// Timed steps to actually execute (`0` = set-up only).
    pub run_steps: usize,
    pub traced: bool,
}

/// The model's gradients and who compresses which.
pub struct GatherData {
    pub layers: Vec<Vec<f32>>,
    /// `max − min` per layer: the error bound is relative to it.
    pub ranges: Vec<f32>,
    /// Per rank, its aggregation groups as layer indices.
    pub groups: Vec<Vec<Vec<usize>>>,
}

impl GatherData {
    /// ResNet-50 layer shapes scaled to [`TOTAL_ELEMS`], values from the
    /// K-FAC gradient profile with a per-layer magnitude jitter, owners
    /// from the greedy eigendecomposition-cost split `DistKfac` uses.
    pub fn build(seed: u64, ranks: usize) -> Self {
        let spec = ModelSpec::resnet50();
        let scale = spec.total_grad_elems() as f64 / TOTAL_ELEMS as f64;
        let profile = GradientProfile::kfac();
        let mut jitter = Rng::new(derive(seed, 11));
        let layers: Vec<Vec<f32>> = spec
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let n = ((l.grad_elems() as f64 / scale).round() as usize).max(16);
                let p = GradientProfile {
                    scale: profile.scale * 10.0f32.powf(jitter.range_f32(-0.7, 0.7)),
                    ..profile
                };
                generate(n, derive(seed, 100 + i as u64), p)
            })
            .collect();
        let ranges = layers
            .iter()
            .map(|l| {
                let (lo, hi) = l
                    .iter()
                    .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                        (lo.min(v), hi.max(v))
                    });
                hi - lo
            })
            .collect();
        let costs: Vec<f64> = spec.layers.iter().map(|l| l.eigen_flops()).collect();
        let owners = assign_layers(&costs, ranks);
        let groups = (0..ranks)
            .map(|r| {
                let owned: Vec<usize> = (0..layers.len()).filter(|&i| owners[i] == r).collect();
                owned.chunks(AGGREGATION).map(<[usize]>::to_vec).collect()
            })
            .collect();
        GatherData {
            layers,
            ranges,
            groups,
        }
    }

    pub fn group_layers(&self, rank: usize, g: usize) -> Vec<&[f32]> {
        self.groups[rank][g]
            .iter()
            .map(|&i| self.layers[i].as_slice())
            .collect()
    }

    /// One cached `LayerSchedule` per group of `rank`.
    pub fn schedules(&self, rank: usize, compressor: &dyn Compressor) -> Vec<LayerSchedule> {
        self.groups[rank]
            .iter()
            .map(|group| {
                let sizes: Vec<usize> = group.iter().map(|&i| self.layers[i].len()).collect();
                let chunk = compressor
                    .chunk_elems_for(sizes.iter().sum())
                    .expect("chunked compressor names a chunk size");
                LayerSchedule::build(&sizes, chunk)
            })
            .collect()
    }

    pub fn original_bytes(&self, rank: usize) -> u64 {
        self.groups[rank]
            .iter()
            .flatten()
            .map(|&i| self.layers[i].len() as u64 * 4)
            .sum()
    }
}

/// The bound a decoded value must sit inside: filter and quantizer
/// bounds are both relative to the layer's value range, and a filtered
/// value decodes to zero.
fn bound_of(config: &CompsoConfig, range: f32) -> f32 {
    config.eb_quant.max(config.eb_filter.unwrap_or(0.0)) * range * 1.01 + 1e-7
}

/// Alg. 1's two strategies, aggressive then conservative. A training run
/// spends its first phase in one and the rest in the other; with no
/// training there is no phase, so every timed step gathers the model
/// once under each. A step's cost is then one distribution, not two
/// whose mix a quantile would have to straddle.
pub fn strategies() -> [CompsoConfig; 2] {
    let schedule = BoundSchedule::step_paper(1);
    [schedule.config_at(0), schedule.config_at(1)]
}

/// `decoded[origin][group]` = the group's layers.
type Decoded = Vec<Vec<Vec<Vec<f32>>>>;

/// What one gather under one strategy left behind.
struct Gathered {
    config: CompsoConfig,
    decoded: Decoded,
    own_frame_bytes: u64,
    error: Option<String>,
}

fn rank_main(
    comm: &mut Communicator,
    plan: &GatherPlan,
    data: &GatherData,
    epoch: Instant,
) -> RankOut {
    let me = comm.rank();
    let recorder = recorder(plan.traced);
    comm.set_recorder(recorder.clone());
    let tracer = RefCell::new(Tracer::new(epoch, me, plan.traced));
    let schedules = data.schedules(me, &ChunkedCompso::default());
    let n_groups: Vec<usize> = data.groups.iter().map(Vec::len).collect();
    let mut rng = Rng::new(derive(plan.seed, 12 + me as u64));
    let mut out = RankOut::new(epoch, plan.run_steps);
    let mut sent_at_warmup = 0;
    let mut snap_at_warmup = None;
    let mut digest = DIGEST_INIT;

    for step in 0..WARMUP_STEPS + plan.run_steps {
        let timed = step >= WARMUP_STEPS;
        if step == WARMUP_STEPS {
            out.warmup_done = Instant::now();
            sent_at_warmup = comm.sent_bytes();
            snap_at_warmup = plan.traced.then(|| recorder.snapshot());
        }
        out.attempted += 1;
        if let Err(e) = comm.barrier() {
            out.failures.push(format!("step {step}: barrier: {e}"));
            break;
        }
        let start = Instant::now();
        let mut gathers: Vec<Gathered> = Vec::with_capacity(2);
        let mut transport_error = None;
        for config in strategies() {
            let compressor = ChunkedCompso::new(config);
            let mut decoded: Decoded = n_groups.iter().map(|&g| vec![Vec::new(); g]).collect();
            let mut own_frames: Vec<Vec<u8>> = Vec::with_capacity(n_groups[me]);
            let mut error: Option<String> = None;
            let decode = |frame: &[u8]| -> Result<Vec<Vec<f32>>, String> {
                let payload = unframe_checksummed(frame).map_err(|e| format!("{e:?}"))?;
                compressor
                    .decompress_group(payload, &recorder)
                    .map_err(|e| e.to_string())
            };
            let gather_start = Instant::now();
            let gathered = pipelined_allgather(
                comm,
                &n_groups,
                |g| {
                    let t0 = Instant::now();
                    let layers = data.group_layers(me, g);
                    let block = compressor.compress_group(
                        &layers,
                        Some(&schedules[g]),
                        &mut rng,
                        &recorder,
                    );
                    let frame = frame_checksummed(&block);
                    tracer.borrow_mut().record(
                        "core.compress",
                        Some("step"),
                        step,
                        t0,
                        Instant::now(),
                    );
                    own_frames.push(frame.clone());
                    frame
                },
                |origin, g, frame| {
                    let t0 = Instant::now();
                    match decode(&frame) {
                        Ok(layers) => decoded[origin][g] = layers,
                        Err(e) => error = Some(format!("origin {origin} group {g}: {e}")),
                    }
                    tracer.borrow_mut().record(
                        "core.decompress",
                        Some("step"),
                        step,
                        t0,
                        Instant::now(),
                    );
                },
            );
            let gather_end = Instant::now();
            // Like `DistKfac`, a rank installs its own groups from the
            // frames it sent, so every replica holds the same lossy values.
            for (g, frame) in own_frames.iter().enumerate() {
                match decode(frame) {
                    Ok(layers) => decoded[me][g] = layers,
                    Err(e) => error = Some(format!("own group {g}: {e}")),
                }
            }
            {
                let mut t = tracer.borrow_mut();
                t.record(
                    "comm.pipelined_allgather",
                    Some("step"),
                    step,
                    gather_start,
                    gather_end,
                );
                t.record(
                    "core.decompress_own",
                    Some("step"),
                    step,
                    gather_end,
                    Instant::now(),
                );
            }
            if let Err(e) = gathered {
                transport_error = Some(format!("step {step}: pipelined_allgather: {e}"));
                break;
            }
            gathers.push(Gathered {
                config,
                decoded,
                own_frame_bytes: own_frames.iter().map(|f| f.len() as u64).sum(),
                error,
            });
        }
        let end = Instant::now();
        tracer.borrow_mut().record("step", None, step, start, end);
        if let Some(e) = transport_error {
            out.failures.push(e);
            break;
        }

        // Outside the timed interval: every decoded value inside the
        // configured bound, and a digest the other rank must match.
        let last_step = step + 1 == WARMUP_STEPS + plan.run_steps;
        let mut fidelity = RelError::default();
        for gathered in &gathers {
            let mut violation = gathered.error.clone();
            for (origin, groups) in gathered.decoded.iter().enumerate() {
                for (g, layers) in groups.iter().enumerate() {
                    let ids = &data.groups[origin][g];
                    if layers.len() != ids.len() {
                        violation.get_or_insert(format!("origin {origin} group {g}: layer count"));
                        continue;
                    }
                    for (&id, got) in ids.iter().zip(layers) {
                        let want = &data.layers[id];
                        let bound = bound_of(&gathered.config, data.ranges[id]);
                        let inside = got.len() == want.len()
                            && want.iter().zip(got).all(|(x, y)| (x - y).abs() <= bound);
                        if !inside {
                            violation.get_or_insert(format!(
                                "layer {id}: decoded value outside {bound:e}"
                            ));
                        }
                        digest = digest_f32(digest, got);
                        if last_step && me == 0 {
                            fidelity.add(want, got);
                        }
                    }
                }
            }
            if let Some(v) = violation {
                out.failures.push(format!("step {step}: {v}"));
            }
        }
        // The fidelity the last step's gathers delivered stands in for a
        // model's final loss: relative L2 error over every decoded layer.
        if last_step && me == 0 {
            out.evals.push((plan.run_steps, fidelity.value()));
        }
        if timed {
            out.step_ns.push((end - start).as_nanos() as u64);
            out.gather_original += gathers.len() as u64 * data.original_bytes(me);
            out.gather_wire += gathers.iter().map(|g| g.own_frame_bytes).sum::<u64>();
        }
    }
    if plan.run_steps == 0 {
        out.warmup_done = Instant::now();
        return out;
    }
    out.sent_bytes = comm.sent_bytes() - sent_at_warmup;
    out.snapshot = snap_at_warmup.map(|before| recorder.snapshot().delta_since(&before));
    out.digest = digest;
    out.spans = tracer.into_inner().into_spans();
    out
}

/// Generates the gradients, spawns the ranks, runs warm-up and
/// `run_steps` timed gathers.
pub fn run(plan: &GatherPlan) -> PassOut {
    let epoch = Instant::now();
    let data = GatherData::build(plan.seed, plan.ranks);
    let config = comm_config(Some(plan.wire_mbps));
    let ranks = run_ranks_with(plan.ranks, FaultPlane::disabled(), config, |comm| {
        rank_main(comm, plan, &data, epoch)
    });
    PassOut::new(epoch, ranks)
}
