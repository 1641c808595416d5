//! Probes: tensors captured from a workload, replayed through one
//! layer's public functions in isolation, fastest of [`REPS`].

use crate::harness::{comm_config, min_of, RelError, RANKS};
use crate::surface::{
    allgather_var, allreduce_mean, covariance, frame_checksummed, pipelined_allgather,
    precondition, run_ranks_with, sym_eig, unframe_checksummed, Compressor, FaultPlane, Matrix,
    Recorder, Rng,
};
use crate::train::Capture;
use std::time::Instant;

const REPS: usize = 5;
const DAMPING: f32 = 0.05;

/// The gradients one step gathers: `[rank][group][layer]`, each layer
/// with the stable key `DistKfac` would pass (its global index).
pub type Groups<'a> = Vec<Vec<Vec<(u64, &'a [f32])>>>;

pub struct TensorProbe {
    pub sym_eig_ms: f64,
    pub matmul_gflops: f64,
}

pub struct KfacProbe {
    pub covariance_ms: f64,
    pub precondition_ms: f64,
}

/// `tensor` and `kfac` through the captured factor statistics.
pub fn tensor_and_kfac(capture: &Capture) -> (TensorProbe, KfacProbe) {
    let largest = capture
        .factors
        .iter()
        .flat_map(|(a, g)| [a, g])
        .max_by_key(|m| m.rows())
        .expect("at least one factor");
    let sym_eig_ms = min_of(3, || sym_eig(largest)) * 1e3;

    // The precondition shapes of the widest layer: A-side (a×a)·(a×g)
    // and G-side (a×g)·(g×g).
    let (wide_a, wide_g) = capture
        .factors
        .iter()
        .max_by_key(|(a, g)| a.rows() * g.rows())
        .expect("at least one layer");
    let (a, g) = (wide_a.rows(), wide_g.rows());
    let mut rng = Rng::new(1);
    let grad = Matrix::random_normal(a, g, &mut rng);
    let flops = 2.0 * (a * a * g + a * g * g) as f64;
    let matmul_s = min_of(REPS, || wide_a.matmul(&grad).matmul(wide_g));

    let covariance_ms = min_of(REPS, || {
        capture
            .stats
            .iter()
            .map(|(a, g)| (covariance(a), covariance(g)))
            .collect::<Vec<_>>()
    }) * 1e3;

    let eigen: Vec<_> = capture
        .factors
        .iter()
        .map(|(a, g)| (sym_eig(a), sym_eig(g)))
        .collect();
    let precondition_ms = min_of(REPS, || {
        capture
            .grads
            .iter()
            .zip(&eigen)
            .map(|(grad, (ea, eg))| precondition(grad, ea, eg, DAMPING))
            .collect::<Vec<_>>()
    }) * 1e3;

    (
        TensorProbe {
            sym_eig_ms,
            matmul_gflops: flops / matmul_s / 1e9,
        },
        KfacProbe {
            covariance_ms,
            precondition_ms,
        },
    )
}

/// One codec family on one rank's groups.
pub struct CoreProbe {
    pub family: &'static str,
    pub original_bytes: u64,
    pub compressed_bytes: u64,
    pub compress_s: f64,
    pub decompress_s: f64,
    pub rel_error: f64,
}

impl CoreProbe {
    pub fn compress_mbps(&self) -> f64 {
        self.original_bytes as f64 / self.compress_s / 1e6
    }
    pub fn decompress_mbps(&self) -> f64 {
        self.original_bytes as f64 / self.decompress_s / 1e6
    }
    pub fn ratio(&self) -> f64 {
        self.original_bytes as f64 / self.compressed_bytes.max(1) as f64
    }

    /// Both probes' work done back to back, on the same data.
    pub fn plus(&self, other: &CoreProbe) -> CoreProbe {
        CoreProbe {
            family: self.family,
            original_bytes: self.original_bytes + other.original_bytes,
            compressed_bytes: self.compressed_bytes + other.compressed_bytes,
            compress_s: self.compress_s + other.compress_s,
            decompress_s: self.decompress_s + other.decompress_s,
            rel_error: ((self.rel_error.powi(2) + other.rel_error.powi(2)) / 2.0).sqrt(),
        }
    }
}

fn encode(compressor: &dyn Compressor, group: &[(u64, &[f32])], rng: &mut Rng) -> Vec<u8> {
    compressor.compress_group_keyed(group, None, rng, &Recorder::disabled())
}

/// `compress_group`/`decompress_group` over `groups`, alone on the host.
pub fn core(compressor: &dyn Compressor, groups: &[Vec<(u64, &[f32])>]) -> CoreProbe {
    let rec = Recorder::disabled();
    let mut rng = Rng::new(7);
    let mut blocks: Vec<Vec<u8>> = Vec::new();
    let compress_s = min_of(REPS, || {
        blocks = groups
            .iter()
            .map(|g| encode(compressor, g, &mut rng))
            .collect();
    });
    let mut decoded: Vec<Vec<Vec<f32>>> = Vec::new();
    let decompress_s = min_of(REPS, || {
        decoded = blocks
            .iter()
            .map(|b| {
                compressor
                    .decompress_group(b, &rec)
                    .expect("own block decodes")
            })
            .collect();
    });
    let mut rel_error = RelError::default();
    for (group, layers) in groups.iter().zip(&decoded) {
        for ((_, want), got) in group.iter().zip(layers) {
            rel_error.add(want, got);
        }
    }
    CoreProbe {
        family: compressor.name(),
        original_bytes: groups
            .iter()
            .flatten()
            .map(|(_, l)| l.len() as u64 * 4)
            .sum(),
        compressed_bytes: blocks.iter().map(|b| b.len() as u64).sum(),
        compress_s,
        decompress_s,
        rel_error: rel_error.value(),
    }
}

/// Collectives at the workload's sizes; each figure is the slowest
/// rank's fastest repetition, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommProbe {
    pub allreduce_grad_s: Option<f64>,
    pub allreduce_factor_s: Option<f64>,
    /// Serial path: compress every own group, one `allgather_var` of the
    /// concatenated frames, decode every peer group.
    pub compress_s: f64,
    pub allgather_var_s: f64,
    pub decode_s: f64,
    /// The same work through `pipelined_allgather`.
    pub pipelined_s: f64,
    pub barrier_s: f64,
    /// Bytes the slowest rank receives in one gather.
    pub peer_frame_bytes: u64,
    pub own_frame_bytes: u64,
}

impl CommProbe {
    /// Both probes' gathers done back to back.
    pub fn plus(&self, other: &CommProbe) -> CommProbe {
        CommProbe {
            allreduce_grad_s: self.allreduce_grad_s,
            allreduce_factor_s: self.allreduce_factor_s,
            compress_s: self.compress_s + other.compress_s,
            allgather_var_s: self.allgather_var_s + other.allgather_var_s,
            decode_s: self.decode_s + other.decode_s,
            pipelined_s: self.pipelined_s + other.pipelined_s,
            barrier_s: self.barrier_s,
            peer_frame_bytes: self.peer_frame_bytes + other.peer_frame_bytes,
            own_frame_bytes: self.own_frame_bytes + other.own_frame_bytes,
        }
    }
}

pub fn comm(
    compressor: &dyn Compressor,
    groups: &Groups,
    wire_mbps: Option<f64>,
    grad_bucket_elems: Option<usize>,
    factor_bucket_elems: Option<usize>,
) -> CommProbe {
    let config = comm_config(wire_mbps);
    let n_groups: Vec<usize> = groups.iter().map(Vec::len).collect();
    let per_rank = run_ranks_with(RANKS, FaultPlane::disabled(), config, |comm| {
        let me = comm.rank();
        let rec = Recorder::disabled();
        let mut rng = Rng::new(9 + me as u64);
        // One barrier, then the timed call: fastest of REPS per rank.
        macro_rules! timed {
            ($body:expr) => {{
                let mut best = f64::INFINITY;
                for _ in 0..REPS {
                    comm.barrier().expect("probe barrier");
                    let t0 = Instant::now();
                    std::hint::black_box($body);
                    best = best.min(t0.elapsed().as_secs_f64());
                }
                best
            }};
        }
        let mut probe = CommProbe::default();
        for (elems, slot) in [
            (grad_bucket_elems, &mut probe.allreduce_grad_s),
            (factor_bucket_elems, &mut probe.allreduce_factor_s),
        ] {
            if let Some(n) = elems {
                let mut bucket = vec![0.25f32; n];
                *slot = Some(timed!(allreduce_mean(comm, &mut bucket).expect("allreduce")));
            }
        }

        let frame =
            |g: usize, rng: &mut Rng| frame_checksummed(&encode(compressor, &groups[me][g], rng));
        let decode = |bytes: &[u8]| {
            let payload = unframe_checksummed(bytes).expect("probe frame");
            compressor
                .decompress_group(payload, &rec)
                .expect("probe frame decodes")
        };
        let mut frames: Vec<Vec<u8>> = Vec::new();
        probe.compress_s = timed!({
            frames = (0..n_groups[me]).map(|g| frame(g, &mut rng)).collect();
        });
        probe.own_frame_bytes = frames.iter().map(|f| f.len() as u64).sum();
        let mut gathered: Vec<Vec<u8>> = Vec::new();
        probe.allgather_var_s = timed!({
            gathered = allgather_var(comm, frames.concat()).expect("allgather_var");
        });
        probe.peer_frame_bytes = gathered
            .iter()
            .enumerate()
            .filter(|(r, _)| *r != me)
            .map(|(_, b)| b.len() as u64)
            .sum();
        // Peer frames, split back at their self-delimiting headers.
        let peer_frames: Vec<Vec<u8>> = {
            let mut all = Vec::new();
            pipelined_allgather(
                comm,
                &n_groups,
                |g| frames[g].clone(),
                |_, _, bytes| all.push(bytes),
            )
            .expect("pipelined_allgather");
            all
        };
        probe.decode_s = timed!(peer_frames.iter().map(|f| decode(f)).collect::<Vec<_>>());
        probe.pipelined_s = timed!({
            let mut sink = Vec::new();
            pipelined_allgather(
                comm,
                &n_groups,
                |g| frame(g, &mut rng),
                |_, _, bytes| sink.push(decode(&bytes)),
            )
            .expect("pipelined_allgather");
            sink
        });
        let t0 = Instant::now();
        for _ in 0..200 {
            comm.barrier().expect("probe barrier");
        }
        probe.barrier_s = t0.elapsed().as_secs_f64() / 200.0;
        probe
    });
    // A step waits for the slowest rank.
    let slowest = |f: fn(&CommProbe) -> f64| per_rank.iter().map(f).fold(0.0, f64::max);
    let slowest_opt = |f: fn(&CommProbe) -> Option<f64>| {
        per_rank
            .iter()
            .map(f)
            .try_fold(0.0f64, |acc, v| v.map(|v| acc.max(v)))
    };
    CommProbe {
        allreduce_grad_s: slowest_opt(|p| p.allreduce_grad_s),
        allreduce_factor_s: slowest_opt(|p| p.allreduce_factor_s),
        compress_s: slowest(|p| p.compress_s),
        allgather_var_s: slowest(|p| p.allgather_var_s),
        decode_s: slowest(|p| p.decode_s),
        pipelined_s: slowest(|p| p.pipelined_s),
        barrier_s: slowest(|p| p.barrier_s),
        peer_frame_bytes: per_rank
            .iter()
            .map(|p| p.peer_frame_bytes)
            .max()
            .unwrap_or(0),
        own_frame_bytes: per_rank
            .iter()
            .map(|p| p.own_frame_bytes)
            .max()
            .unwrap_or(0),
    }
}

/// Single-stream copy bandwidth, GB/s: the normaliser for codec MB/s.
pub fn membw_gbps() -> f64 {
    let n = 32 << 20;
    let src = vec![1u8; n];
    let mut dst = vec![0u8; n];
    dst.copy_from_slice(&src);
    let s = min_of(3, || {
        dst.copy_from_slice(&src);
        dst[n / 2]
    });
    2.0 * n as f64 / s / 1e9
}
