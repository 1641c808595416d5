//! The paper's two evaluation clusters and their α–β network model.
//!
//! Collective costs are the standard expressions:
//!
//! * ring all-gather of per-rank blocks `m` over `p` ranks:
//!   `T = (p-1)·α + (p-1)·m / B_eff`
//! * ring all-reduce of a buffer `M` over `p` ranks:
//!   `T = 2(p-1)·α + 2·(p-1)/p·M / B_eff`
//! * pipelined tree broadcast: `T = ⌈log₂p⌉·α + M / B_eff`
//!
//! `B_eff` accounts for (a) a small-message ramp (`size/(size+s_half)`),
//! (b) the intra-node (NVLink) vs inter-node (Slingshot) path, and
//! (c) for broadcasts only, fabric contention from the many concurrent
//! per-layer trees distributed K-FAC launches (ring collectives use
//! disjoint neighbor links and stay contention-free). §4.4's "offline
//! lookup table" of throughput by message size and GPU count is these
//! formulas, queried directly.

/// A GPU cluster and its interconnect.
#[derive(Clone, Debug)]
pub struct Platform {
    /// Display name.
    pub name: &'static str,
    /// Number of nodes available.
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Sustained per-GPU training throughput for mixed dense compute,
    /// FLOPs/s. A100 peak is 19.5 TF fp32 / 156 TF tf32; sustained
    /// end-to-end training throughput is far lower — this constant is
    /// calibrated so the Fig. 1 phase ratios land in the published bands.
    pub gpu_flops: f64,
    /// Sustained GPU memory bandwidth, bytes/s (gates the memory-bound
    /// compression kernels).
    pub gpu_membw: f64,
    /// Per-message launch latency (the α term), seconds.
    latency_s: f64,
    /// Peak inter-node bandwidth per GPU pair direction, bytes/second.
    internode_bw: f64,
    /// Peak intra-node (NVLink) bandwidth, bytes/second.
    intranode_bw: f64,
    /// Message size at which effective bandwidth reaches half of peak.
    half_saturation_bytes: f64,
    /// Fabric-contention coefficient: effective per-flow bandwidth drops
    /// as `1 / (1 + congestion · (nodes − 1))` when collectives from many
    /// nodes share the interconnect — the reason communication grows into
    /// the dominant phase at scale (Fig. 1) and compression pays more at
    /// higher GPU counts (Figs. 7/9).
    congestion: f64,
}

impl Platform {
    /// Platform 1: 16 nodes × 4 A100, Slingshot 10 (100 Gb/s ≈ 12.5 GB/s).
    pub fn platform1() -> Platform {
        Platform {
            name: "Platform1-Slingshot10",
            nodes: 16,
            gpus_per_node: 4,
            gpu_flops: 3.0e13,
            gpu_membw: 1.3e12,
            latency_s: 12e-6,
            internode_bw: 12.5e9,
            intranode_bw: 300e9,
            half_saturation_bytes: 256.0 * 1024.0,
            congestion: 0.22,
        }
    }

    /// Platform 2: 64 nodes × 4 A100, Slingshot 11 (200 Gb/s ≈ 25 GB/s).
    pub fn platform2() -> Platform {
        Platform {
            name: "Platform2-Slingshot11",
            nodes: 64,
            gpus_per_node: 4,
            gpu_flops: 3.0e13,
            gpu_membw: 1.3e12,
            latency_s: 8e-6,
            internode_bw: 25e9,
            intranode_bw: 300e9,
            half_saturation_bytes: 256.0 * 1024.0,
            congestion: 0.18,
        }
    }

    /// Maximum GPU count on this platform.
    pub fn max_gpus(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// Effective point-to-point bandwidth for a message of `bytes`;
    /// `congested` applies the fabric-contention discount.
    fn effective_bw(&self, bytes: f64, gpus: usize, congested: bool) -> f64 {
        let ramp = bytes / (bytes + self.half_saturation_bytes);
        // On a ring laid out node-by-node, `nodes` of the `gpus` hops cross
        // the network; the ring proceeds in lockstep, so the slowest hop
        // (inter-node) gates every step once any hop crosses nodes.
        let crosses_nodes = gpus > self.gpus_per_node;
        let base = if crosses_nodes {
            let nodes = gpus.div_ceil(self.gpus_per_node) as f64;
            let contention = if congested {
                1.0 + self.congestion * (nodes - 1.0)
            } else {
                1.0
            };
            self.internode_bw / contention
        } else {
            self.intranode_bw
        };
        (base * ramp).max(1.0)
    }

    /// Ring all-gather time: each rank contributes `block_bytes`; total
    /// gathered size is `gpus * block_bytes`.
    pub fn allgather_time(&self, gpus: usize, block_bytes: f64) -> f64 {
        if gpus <= 1 {
            return 0.0;
        }
        let p = gpus as f64;
        let bw = self.effective_bw(block_bytes, gpus, false);
        (p - 1.0) * self.latency_s + (p - 1.0) * block_bytes / bw
    }

    /// Ring all-reduce time for a buffer of `bytes` replicated on all ranks.
    pub fn allreduce_time(&self, gpus: usize, bytes: f64) -> f64 {
        if gpus <= 1 {
            return 0.0;
        }
        let p = gpus as f64;
        let chunk = bytes / p;
        let bw = self.effective_bw(chunk.max(1.0), gpus, false);
        2.0 * (p - 1.0) * self.latency_s + 2.0 * (p - 1.0) / p * bytes / bw
    }

    /// Pipelined binary-tree broadcast time for `bytes` from one root
    /// (NCCL-style: latency scales with tree depth, not rank count).
    pub fn broadcast_time(&self, gpus: usize, bytes: f64) -> f64 {
        if gpus <= 1 {
            return 0.0;
        }
        let depth = (gpus as f64).log2().ceil();
        let bw = self.effective_bw(bytes, gpus, true);
        depth * self.latency_s + bytes / bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_capacities_match_paper() {
        assert_eq!(Platform::platform1().max_gpus(), 64);
        assert_eq!(Platform::platform2().max_gpus(), 256);
    }

    #[test]
    fn platform2_has_faster_network() {
        assert!(Platform::platform2().internode_bw > Platform::platform1().internode_bw);
    }

    #[test]
    fn faster_network_is_faster() {
        let s10 = Platform::platform1();
        let s11 = Platform::platform2();
        let bytes = 64.0 * 1024.0 * 1024.0;
        assert!(s11.allgather_time(32, bytes) < s10.allgather_time(32, bytes));
    }

    #[test]
    fn more_gpus_cost_more_time_for_allgather_of_same_block() {
        let s = Platform::platform1();
        let bytes = 4.0 * 1024.0 * 1024.0;
        assert!(s.allgather_time(16, bytes) < s.allgather_time(64, bytes));
    }

    #[test]
    fn single_gpu_is_free() {
        let s = Platform::platform1();
        assert_eq!(s.allreduce_time(1, 1e9), 0.0);
        assert_eq!(s.allgather_time(1, 1e9), 0.0);
        assert_eq!(s.broadcast_time(1, 1e9), 0.0);
    }

    #[test]
    fn small_messages_are_latency_bound() {
        let s = Platform::platform1();
        // A tiny message's time should be close to the pure-latency term.
        // The bandwidth ramp also penalizes tiny messages, so allow a few
        // multiples of the pure alpha term — but the time must be nowhere
        // near what naive peak-bandwidth extrapolation would suggest.
        let t = s.allgather_time(8, 64.0);
        let latency_only = 7.0 * s.latency_s;
        assert!(t < 5.0 * latency_only, "t={t} lat={latency_only}");
        assert!(t >= latency_only);
    }

    #[test]
    fn big_messages_approach_peak_bandwidth() {
        let s = Platform::platform1();
        let bytes = 1e9;
        let t = s.broadcast_time(8, bytes);
        let ideal = bytes / s.internode_bw;
        assert!(t < 1.5 * ideal, "t={t} ideal={ideal}");
    }

    #[test]
    fn intranode_fast_path() {
        let s = Platform::platform1();
        // 4 GPUs fit in one node -> NVLink bandwidth -> much faster.
        let t_intra = s.allreduce_time(4, 1e8);
        let t_inter = s.allreduce_time(8, 1e8);
        assert!(t_intra * 4.0 < t_inter, "intra {t_intra} inter {t_inter}");
    }

    #[test]
    fn compression_reduces_modeled_time_proportionally() {
        let s = Platform::platform2();
        let original = 128.0 * 1024.0 * 1024.0;
        let t_full = s.allgather_time(64, original);
        let t_compressed = s.allgather_time(64, original / 20.0);
        let speedup = t_full / t_compressed;
        assert!(speedup > 10.0 && speedup < 25.0, "speedup {speedup}");
    }
}
