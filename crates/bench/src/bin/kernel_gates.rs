//! Back-to-back ratio gates: the perf checks that no row of the
//! `benchmark/` ledger can express. Each gate but the two `codec.*_cost`
//! byte counts is a ratio of two timings taken next to each other in one
//! process, so it holds through a noisy host where a millisecond or MB/s
//! floor would not, and needs neither a committed baseline nor a
//! tolerance. Throughput itself is reported by `benchmark/` alone (see
//! `BENCHMARK.json`). Both sides of every ratio but the `pipeline.*` and
//! `reduce.*` walls are timed in the thread's on-CPU time ([`Stopwatch`]),
//! so a neighbour that takes the CPU mid-timing does not bend a ratio.
//!
//! Prints one `kernel_gates: <name>: <value> <bound> -> ok|REGRESSION`
//! line per gate (the two timings or sizes behind the ratio follow in
//! brackets) and exits 1 if any gate failed:
//!
//! * `eigen.cliff_289 <= 2.0` — `sym_eig` on seeded K-FAC-shaped factors
//!   at n = 145 and 289 (fastest of 5): `t289 / (8·t145)` is the
//!   n³-normalised slowdown past the point where the solver's f64 n×n
//!   buffer stops fitting the near cache. A stride-n walk in an O(n³)
//!   loop reads 2.6 to 3.4.
//! * `eigen.gemm_ratio_289 <= 26.5` — the same `t289` in units of one
//!   289³ `Matrix::matmul`. Tridiagonalisation + QL read 7.2 to 7.5, the
//!   cyclic Jacobi it replaced 94 to 115; the ceiling is the geometric
//!   mean of the two, so a relapse to a Jacobi-class flop count fails.
//!   Since the GEMM core's AVX2 instance the matmul is ≈ 2× faster and QL
//!   read 18.4 to 23.1 in wall time, 12.1 to 13.8 in thread CPU time;
//!   with `A` read where it lies and an aligned `B` pack, 13.0 to 16.9
//!   (the AVX2 matmul ≈ 20 % faster).
//!   Both timings run on one rayon worker — the solver is serial, and
//!   against a two-worker matmul the ratio swung 15 to 28 with whether
//!   the second core was free — and on the AVX2 instance the ceiling was
//!   set on; the AVX-512 matmul, ≈ 1.4× faster, prints beside it.
//! * `covariance.syrk_speedup >= 1.3` — `Matrix::gram` (the SYRK
//!   `covariance()` runs) against `t_matmul` of the same matrix with
//!   itself on one seeded ReLU-sparse statistics matrix at the CNN
//!   proxy's conv-factor shape (1152 × 289), the median of 25
//!   interleaved per-sample ratios, on one rayon worker. Half the flops,
//!   so ≈ 2 in the limit; the pack of B and the mirror are the same on
//!   both sides, and the data are finite, so both sides walk the zeros
//!   like any value. Reads 1.63 to 1.71 in 36 runs, 16 of them at the
//!   end of ci.sh. The ratio of the two sides' fastest samples, which
//!   gated it until a slow phase on one side's fastest sample read 1.13
//!   at the end of a ci.sh run, prints beside it (1.58 to 1.83 in those
//!   runs).
//! * `covariance.tall_gram_vs_copy <= 13.0` — `Matrix::gram` of the CNN's
//!   first conv statistics (4608 × 10: 9 taps and the bias column, so a
//!   10 × 10 output of one or two strips whose walk runs all 4608 k)
//!   against one `clone` of that operand, fastest of 25, interleaved, one
//!   rayon worker: what the product spends beyond reading its operand.
//!   Reads 8.8 to 11.9; with every strip of `A` gathered element by
//!   element per k-block and `B` packed element by element into a fresh
//!   zero-filled buffer it read 13.4 to 18.7. The ceiling is ≈ 10 % over
//!   the highest reading, the margin the speedup floors keep under their
//!   lowest.
//! * `gemm.wide_speedup >= 1.5` — the GEMM core's AVX2 instance against
//!   its portable one on the MLP's precondition product (128 × 128 ·
//!   128 × 129, dense, so both take the tile's dense walk), fastest of 5,
//!   interleaved, one rayon worker. Reads 1.60 to 2.02; with the AVX2
//!   feature on the dispatcher instead of the job body the tile runs at
//!   baseline codegen and it reads 0.80 to 0.97. `n/a` on a host without
//!   AVX2.
//! * `gemm.avx512_speedup >= 1.2` — the GEMM core's AVX-512 instance (the
//!   8 × 16 `tile_avx512`) against its AVX2 one at 289³, the median of
//!   15 interleaved per-sample ratios, one rayon worker. Reads 1.15 to
//!   1.39; the ratio of the fastest samples, which gated it before,
//!   prints beside it (1.17 to 1.44, and 1.02 once, when only the AVX2
//!   side's fastest sample fell in a quick phase). Neither clears the
//!   host's slow phases, which last seconds and slow every sample of a
//!   run, the AVX-512 side more: in 36 runs the median read under 1.20
//!   in 8, the fastest samples' ratio in 6 (two more printed 1.20). 0.96
//!   to 1.02 with the `Avx512` arm running the AVX2 job body, and 1.11 to
//!   1.17 with the held `B` pack starting mid-line (every 64-byte panel
//!   load split two lines). `n/a` without AVX-512.
//! * `eigen.wide_speedup >= 1.2` — `sym_eig`'s AVX2 instance against its
//!   portable one on a seeded 289-dim factor (the CNN's conv-factor
//!   size), fastest of 5, interleaved, one rayon worker. Reads 1.33 to
//!   1.34; with the solver's stages compiled outside the AVX2 body (not
//!   inlined into it) 0.96 to 1.00. `n/a` without AVX2.
//! * `core.sr_lanes_speedup >= 1.3` — stochastic rounding of eight 16 Ki
//!   K-FAC-shaped chunks at 501 codes, each with its own stream, on the
//!   AVX2 instance of `quantize_sr_lanes` (two 4-lane registers) against
//!   the portable one, fastest of 15, interleaved. Reads 2.1 to 3.0; 1.00
//!   to 1.10 with the AVX2 arm running the lanes one by one in scalar
//!   code. `n/a` without AVX2.
//! * `core.sr_lanes_avx512_speedup >= 1.4` — the same eight chunks in one
//!   AVX-512 register against the two AVX2 ones. Reads 1.56 to 1.93;
//!   0.99 to 1.00 with the `Avx512` arm running the AVX2 body. `n/a`
//!   without AVX-512.
//! * `core.extrema_speedup >= 1.5`, `core.drop_mask_speedup >= 1.5`,
//!   `codec.dequant_speedup >= 1.5` — the AVX2 instances of three
//!   per-element passes of the chunk kernels against their portable ones
//!   on one seeded 256 Ki K-FAC-like layer, fastest of 15, interleaved,
//!   one rayon worker: `minmax_hierarchical` (pass 1's extrema),
//!   `filter_kernel` at the aggressive strategy's threshold (`4e-3 ×` the
//!   range) and `CodeRecord::dequantize_into` over the layer's
//!   conservative (`eb 2e-3`, 9-bit) codes split into 16 Ki chunk
//!   records, the decoder's expression per code on the portable side.
//!   Outputs are asserted equal. The first two read 2.1 to 2.7, the
//!   dequantize 3.2 to 3.4; 0.99, 0.99 and 0.96 to 0.99 with the `Avx2`
//!   arms running the portable bodies. `n/a` without AVX2.
//! * `codec.pack_speedup >= 1.5` — `microkernel::split_into` on the
//!   instance production runs (what the chunk kernels run on every code:
//!   a low-byte stream and, past 8 bits, a packed high-bit plane) against
//!   its scalar oracle `bitpack::split` on one seeded stream of 256 Ki
//!   9-bit codes, fastest of 5, interleaved. The portable instance builds
//!   the plane eight codes to a `u64` store, its tail through a register
//!   window; a packer that reads its own output back (a load–or–store of
//!   a memory window per code) read 0.68 against the per-bit loop it
//!   exists to replace.
//! * `codec.rans_decode_speedup >= 1.4`, `codec.rans_encode_speedup >=
//!   1.4` — the rANS coder's AVX2 instance against its portable one on
//!   one seeded 256 KiB low-byte stream of `eb 2e-3` codes (one codec
//!   block of what the chunk kernels feed it), fastest of 15,
//!   interleaved, one rayon worker. Decode reads 1.85 to 1.91 and encode
//!   1.65 to 1.88; with the `Avx2` decode arm running the portable loop
//!   decode reads 0.99 to 1.00. `n/a` without AVX2.
//! * `codec.wide_cost <= 1.45` — frame bytes at Alg. 1's conservative
//!   bound (`eb 2e-3`, 9-bit codes) ÷ frame bytes at `eb 4e-3` (8-bit)
//!   on one seeded 256 Ki K-FAC-like layer, SR only. A count, not a
//!   timing: one more bit of resolution should cost about one more bit
//!   per element (≈ 1.28). Bit-packing the 9-bit codes ahead of the
//!   byte-wise entropy coder read 2.75; the byte/plane split without
//!   the zero-centring rotation 1.38.
//! * `codec.narrow_cost <= 1.0` — frame bytes at `eb 1e-2` (7-bit codes)
//!   ÷ frame bytes at `eb 4e-3` on the same layer, seed and generator: one
//!   fewer bit of resolution must never cost more bytes. A count, not a
//!   timing. With codes of up to 7 bits bit-packed ahead of the
//!   byte-wise coder (every symbol straddling two codes) it read 1.73.
//! * `pipeline.speedup_2w >= 1.0`, `pipeline.speedup_4w >= 1.0` — the
//!   step-5 gather scheduling A/B: compress-then-`allgather_var` against
//!   `pipelined_allgather` (each group on the wire as soon as it is
//!   compressed, decode in the waits for the link) on an
//!   imbalanced-ownership workload over a modeled wire. Overlap must
//!   never lose to compress-then-gather. (At one worker there is no wire
//!   to overlap and the ratio is 1.0 by construction; it is not run.)
//! * `pipeline.wire_floor_2w >= 1.0`, `pipeline.wire_floor_4w >= 1.0` —
//!   the same passes against physics: from the first rank's start to the
//!   last rank's end, no pass of either schedule may take less than the
//!   busiest rank's sent bytes ÷ the modeled bandwidth (the lowest
//!   wall ÷ floor over every timed pass). A modeled wire that drains the
//!   messages on one link concurrently reads ≈ 0.5 here.
//! * `reduce.overlap_2w >= 1.3`, `reduce.overlap_4w >= 1.3` — the work
//!   `DistKfac` hides behind its gradient reduce: ranks reduce a bucket
//!   with `reduce_scatter_pieced` over the modeled wire while `Idle`
//!   sleeps 0.9 of a hop's drain (the covariance fold) and the landed
//!   pieces share 0.9 of one (0.5 at two ranks, where `Idle` waits on
//!   the same hop) — the per-layer precondition. Serial sum (busiest
//!   rank's sent bytes ÷ bandwidth + one rank's sleeps) ÷ wall, the
//!   highest over the timed passes: it nears 1.0 as the hidden work
//!   moves behind the receives.
//! * `dnn.relu_vs_copy <= 8.0` — `Relu` forward (training, so the mask
//!   too) + backward on one CNN activation (32 × 2304) against two
//!   `Matrix::clone`s of it, fastest of 5, interleaved, one rayon worker.
//!   Selects move what a copy moves; the data-dependent branch they
//!   replaced read 56 to 67.
//! * `dnn.glue_ratio <= 1.5` — `small_cnn(1, 12, 12, 4, 16)` forward +
//!   backward at batch 32 against the same conv GEMMs run bare on the
//!   operands that step captured (`patches · W`, `patchesᵀ · g`,
//!   `g · W[..patch]ᵀ` per conv), fastest of 25, interleaved, one rayon
//!   worker: what the step spends beyond its GEMMs. Since feature maps
//!   travel as HWC rows, so that a conv's GEMM product is its output and
//!   `dY` its `g` with no relayout copy either way, it read 1.23 to 1.47
//!   standalone, highest when the host runs slow. With the conv GEMMs
//!   ≈ 35 % faster (operands read where they lie) and the patch matrix
//!   and `g` refilled in the last step's allocations it reads 1.34 to
//!   1.46, once 1.56: the glue (≈ 0.8 ms, mostly im2col and col2im, one
//!   gather or scatter-add per patch element) did not shrink with the
//!   GEMMs. Alternated runs of the
//!   CHW tree, with its two relayouts, read 1.21 to 1.40. Their ≈ 0.27 ms
//!   is inside this gate's spread, which is why the bound stays 1.5. With
//!   im2col/col2im redoing the bounds arithmetic per element and the
//!   branchy ReLU it read 1.89 to 2.05, and with only the two loops 1.52
//!   to 1.72. One relapsed loop (≈ 0.35 ms, a tenth of the GEMMs) is
//!   below what this gate resolves: the bounds-checked im2col alone read
//!   1.39 to 1.45.

use compso_comm::collectives::{
    allgather_var, block_ranges, pipelined_allgather, reduce_scatter_pieced, ReduceEvent,
};
use compso_comm::fault::FaultPlane;
use compso_comm::{run_ranks_with, CommConfig};
use compso_core::encoders::rans;
use compso_core::kernels::{LayerSchedule, CHUNK_ELEMS};
use compso_core::microkernel::{quantize_sr_lanes, CodeRecord, SrLane, SR_LANES};
use compso_core::quantize::Quantizer;
use compso_core::synthetic::{generate, GradientProfile};
use compso_core::wire::{frame_checksummed, framed_len, unframe_checksummed};
use compso_core::{bitpack, microkernel};
use compso_core::{ChunkedCompso, Compressor, CompsoConfig, RoundingMode};
use compso_dnn::layer::Relu;
use compso_dnn::models::small_cnn;
use compso_dnn::Layer;
use compso_kfac::kfac::covariance;
use compso_obs::Recorder;
use compso_tensor::reduce::minmax_hierarchical;
use compso_tensor::{sym_eig, Instance, Matrix, Rng};
use std::hint::black_box;
use std::time::Instant;

/// Gather A/B workload: rank 0 owns `BIG_GROUPS` groups of `BIG_ELEMS`
/// floats, every other rank one group of `SMALL_ELEMS` — one rank owns
/// most of the bytes, as heterogeneous layer costs make routine, so peers
/// stream-decode its early groups while it is still compressing the
/// later ones.
const BIG_GROUPS: usize = 8;
const BIG_ELEMS: usize = 256 * 1024;
const SMALL_ELEMS: usize = 64 * 1024;
/// Modeled wire bandwidth for the gather A/B. 50 MB/s keeps the
/// wire-to-compressor throughput ratio in the same regime as the paper's
/// clusters: this CPU codec moves ~170 MB/s where an A100's moves
/// ~100 GB/s, so a 100 Gb/s (12.5 GB/s) fabric scales down to tens of
/// MB/s with it. The ratio is what matters — it decides how much drain
/// each compression stage can hide.
const WIRE_MBPS: f64 = 50.0;
/// Timed serial/pipelined pairs per worker count (best of). With 1 MiB
/// groups a pass is 80–370 ms of compression and drain; at a sixteenth
/// of that a pass is ≈ 10 ms, mostly wake-up latency, and the 2-worker
/// ratio read below 1.0 on an unchanged tree (0.91 once in six runs of
/// three pairs, 0.98 once in 29 runs of ten).
const GATHER_REPS: usize = 3;

/// Wall-clock A/B of the step-5 gather schedules at `workers`
/// in-process ranks. Both modes compress each group into its own CRC
/// frame, move the frames around the ring, and decode everything (peers'
/// groups and the rank's own clean copies) exactly as the production hot
/// path does; rayon is pinned to one worker so the pipeline schedule —
/// not data-parallel kernel fan-out — is what's measured.
///
/// The two modes alternate serial-then-pipelined *within* each rep of
/// one rank session, so ambient load on the host perturbs both sides of
/// the comparison equally; each rep also asserts the two schedules
/// decode bit-identical values (same per-rep RNG seed → same stochastic
/// rounding → same wire bytes, the §4.2 determinism contract). Returns
/// `(serial, pipelined)` best-of-[`GATHER_REPS`] slowest-rank walls in
/// seconds, and the `(wall, wire floor)` of the timed pass of either mode
/// with the lowest `wall ÷ floor` — wall from the earliest rank's start
/// to the latest rank's end, floor the busiest rank's sent bytes over
/// [`WIRE_MBPS`].
fn gather_walls(workers: usize) -> (f64, f64, (f64, f64)) {
    let _guard = rayon::scoped_thread_override(1);
    // The modeled wire is what makes the overlap physical: a sender
    // sleeping through a payload's drain releases its core, so peers
    // decode (pipelined) or merely wait (serial) while bytes are "on
    // the wire" — the same resource split as GPU compress + NIC DMA.
    let config = CommConfig {
        modeled_wire_mbps: Some(WIRE_MBPS),
        ..CommConfig::default()
    };
    /// One rank's view of one pass: start, end, bytes it sent.
    type Pass = (Instant, Instant, u64);
    let times: Vec<Vec<[Pass; 2]>> =
        run_ranks_with(workers, FaultPlane::disabled(), config, move |comm| {
            let me = comm.rank();
            let p = comm.size();
            let mine: Vec<Vec<f32>> = if me == 0 {
                (0..BIG_GROUPS)
                    .map(|g| generate(BIG_ELEMS, 31 + g as u64, GradientProfile::kfac()))
                    .collect()
            } else {
                vec![generate(
                    SMALL_ELEMS,
                    131 + me as u64,
                    GradientProfile::kfac(),
                )]
            };
            let n_groups: Vec<usize> = (0..p)
                .map(|q| if q == 0 { BIG_GROUPS } else { 1 })
                .collect();
            // Conservative SR at a tight bound: dense, hard-to-compress
            // payloads (ratio near 1) make the per-byte wire work — ARQ
            // CRC on both ends, the 0xCF envelope check, ring forwarding,
            // payload staging — a real fraction of the wall, which is
            // exactly the traffic the pipeline schedule restructures. The
            // aggressive strategy's ~27x ratio shrinks the wire to noise
            // and the A/B collapses to the rank-local compress+decode cost,
            // identical in both modes by construction.
            let compressor = ChunkedCompso::new(CompsoConfig::conservative(1e-6));
            let chunk = CHUNK_ELEMS;
            let schedules: Vec<LayerSchedule> = mine
                .iter()
                .map(|l| LayerSchedule::build(&[l.len()], chunk))
                .collect();
            let rec = Recorder::disabled();

            // One gather pass in the given mode; returns its span and sent
            // bytes, and a checksum over every decoded f32 of the step.
            let mut pass = |pipelined: bool, seed: u64| -> (Pass, u64) {
                comm.barrier().expect("barrier");
                let sent_before = comm.sent_bytes();
                let t0 = Instant::now();
                let mut rng = Rng::new(seed);
                let mut clean: Vec<Vec<u8>> = Vec::with_capacity(mine.len());
                let mut decoded_elems = 0usize;
                let mut checksum = 0u64;
                // The two schedules deliver foreign groups in different
                // orders (rank-major vs slot-major), so the step checksum
                // is a commutative sum of order-sensitive per-delivery
                // digests: equal iff every delivered group decoded to the
                // same values.
                let mut absorb = |layers: Vec<Vec<f32>>| {
                    let mut digest = 0xcbf2_9ce4_8422_2325u64;
                    for l in &layers {
                        decoded_elems += l.len();
                        for v in l {
                            digest = digest
                                .wrapping_mul(0x100_0000_01b3)
                                .wrapping_add(v.to_bits() as u64);
                        }
                    }
                    checksum = checksum.wrapping_add(digest);
                };
                if pipelined {
                    pipelined_allgather(
                        comm,
                        &n_groups,
                        |g| {
                            let frame = frame_checksummed(&compressor.compress_group(
                                &[mine[g].as_slice()],
                                Some(&schedules[g]),
                                &mut rng,
                                &rec,
                            ));
                            clean.push(frame.clone());
                            frame
                        },
                        |_, _, bytes| {
                            let body = unframe_checksummed(&bytes).expect("group frame");
                            absorb(compressor.decompress_group(body, &rec).expect("group"));
                        },
                    )
                    .expect("pipelined_allgather");
                } else {
                    for (g, layer) in mine.iter().enumerate() {
                        clean.push(frame_checksummed(&compressor.compress_group(
                            &[layer.as_slice()],
                            Some(&schedules[g]),
                            &mut rng,
                            &rec,
                        )));
                    }
                    let gathered = allgather_var(comm, clean.concat()).expect("allgather_var");
                    for (q, payload) in gathered.iter().enumerate() {
                        if q == me {
                            continue;
                        }
                        let mut off = 0usize;
                        while off < payload.len() {
                            let len = framed_len(&payload[off..]).expect("group frame header");
                            let body =
                                unframe_checksummed(&payload[off..off + len]).expect("group frame");
                            absorb(compressor.decompress_group(body, &rec).expect("group"));
                            off += len;
                        }
                    }
                }
                // Own groups decode from the clean frames in both modes,
                // mirroring the production hot path.
                for frame in &clean {
                    let body = unframe_checksummed(frame).expect("clean frame");
                    absorb(compressor.decompress_group(body, &rec).expect("own group"));
                }
                let end = Instant::now();
                assert_eq!(
                    decoded_elems,
                    BIG_GROUPS * BIG_ELEMS + (p - 1) * SMALL_ELEMS
                );
                ((t0, end, comm.sent_bytes() - sent_before), checksum)
            };

            // One untimed warm-up pass per mode (cold caches, lazy codec
            // tables), then the timed serial/pipelined pairs.
            let _ = pass(false, 7);
            let _ = pass(true, 7);
            let mut walls = Vec::with_capacity(GATHER_REPS);
            for rep in 0..GATHER_REPS {
                let seed = 100 + rep as u64;
                let (serial, serial_sum) = pass(false, seed);
                let (pipelined, pipe_sum) = pass(true, seed);
                assert_eq!(
                    serial_sum, pipe_sum,
                    "pipelined gather must decode bit-identical values"
                );
                walls.push([serial, pipelined]);
            }
            walls
        });
    // Per rep the slowest rank defines the wall; report the best rep.
    let secs = |d: std::time::Duration| d.as_secs_f64();
    let best = |mode: usize| {
        (0..GATHER_REPS)
            .map(|i| {
                let rank_wall = |t: &Vec<[Pass; 2]>| secs(t[i][mode].1 - t[i][mode].0);
                times.iter().map(rank_wall).fold(0.0f64, f64::max)
            })
            .fold(f64::INFINITY, f64::min)
    };
    let tightest = (0..GATHER_REPS)
        .flat_map(|i| [(i, 0), (i, 1)])
        .map(|(i, mode)| {
            let passes = || times.iter().map(move |t| t[i][mode]);
            let start = passes().map(|p| p.0).min().expect("ranks");
            let end = passes().map(|p| p.1).max().expect("ranks");
            let busiest = passes().map(|p| p.2).max().expect("ranks");
            (secs(end - start), busiest as f64 / (WIRE_MBPS * 1e6))
        })
        .min_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)))
        .expect("passes");
    (best(0), best(1), tightest)
}

/// Floats per rank's block of the reduce overlap bucket: 0.96 MB, a
/// 19.2 ms hop at [`WIRE_MBPS`] — long next to a thread wake-up.
const REDUCE_BLOCK: usize = 240_000;
/// Pieces each block lands in on the reduce's last hop.
const REDUCE_PIECES: usize = 6;

/// `workers` ranks reduce a bucket of one [`REDUCE_BLOCK`] per rank with
/// `reduce_scatter_pieced`, `Idle` and every landed piece sleeping their
/// stand-in cost. After an untimed pass, [`GATHER_REPS`] timed ones;
/// returns the `(serial sum, wall)` of the one with the highest ratio —
/// wall from the earliest rank's start to the latest rank's end, serial
/// sum the busiest rank's sent bytes over [`WIRE_MBPS`] plus one rank's
/// sleeps.
fn reduce_overlap(workers: usize) -> (f64, f64) {
    let config = CommConfig {
        modeled_wire_mbps: Some(WIRE_MBPS),
        ..CommConfig::default()
    };
    // Each sleep fits the wait it hides in: `Idle` 0.9 of the first
    // hop's drain, the pieces 0.9 of the last hop's — or, at two ranks,
    // where the first hop is the last, half of it.
    let hop = REDUCE_BLOCK as f64 * 4.0 / (WIRE_MBPS * 1e6);
    let idle = std::time::Duration::from_secs_f64(0.9 * hop);
    let piece_share = if workers == 2 { 0.5 } else { 0.9 };
    // Per landed float, so a block landing whole costs what its pieces do.
    let landed = |len: usize| {
        std::time::Duration::from_secs_f64(piece_share * hop * len as f64 / REDUCE_BLOCK as f64)
    };
    let ranges = block_ranges(workers * REDUCE_BLOCK, workers);
    let pieces = vec![vec![REDUCE_BLOCK / REDUCE_PIECES; REDUCE_PIECES]; workers];
    let (ranges, pieces) = (&ranges, &pieces);
    let passes: Vec<Vec<(Instant, Instant, u64)>> =
        run_ranks_with(workers, FaultPlane::disabled(), config, move |comm| {
            let mut data = vec![1.0f32; workers * REDUCE_BLOCK];
            (0..=GATHER_REPS)
                .map(|_| {
                    comm.barrier().expect("barrier");
                    let sent = comm.sent_bytes();
                    let t0 = Instant::now();
                    reduce_scatter_pieced(comm, &mut data, ranges, pieces, None, |event| {
                        std::thread::sleep(match event {
                            ReduceEvent::Idle => idle,
                            ReduceEvent::Landed(range, _) => landed(range.len()),
                        })
                    })
                    .expect("reduce_scatter_pieced");
                    (t0, Instant::now(), comm.sent_bytes() - sent)
                })
                .collect()
        });
    let sleeps = (idle + landed(REDUCE_BLOCK)).as_secs_f64();
    (1..=GATHER_REPS)
        .map(|i| {
            let start = passes.iter().map(|p| p[i].0).min().expect("ranks");
            let end = passes.iter().map(|p| p[i].1).max().expect("ranks");
            let busiest = passes.iter().map(|p| p[i].2).max().expect("ranks");
            let serial = busiest as f64 / (WIRE_MBPS * 1e6) + sleeps;
            (serial, (end - start).as_secs_f64())
        })
        .max_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)))
        .expect("passes")
}

/// A timer of this thread's on-CPU time, which every gate below but the
/// `pipeline.*` and `reduce.*` walls (rank threads, modeled-wire sleeps)
/// takes both sides of its ratio in: time the host gives other threads
/// does not count, so a slow host phase does not bend a ratio. It reads
/// field 1 of `/proc/thread-self/schedstat` (ns on a CPU) after a yield,
/// which makes the kernel account the running slice first — unyielded,
/// the field lags by up to a scheduler tick. Wall time where the file
/// cannot be read (off Linux).
struct Stopwatch {
    cpu: Option<u64>,
    wall: Instant,
}

impl Stopwatch {
    fn start() -> Self {
        Stopwatch {
            cpu: thread_cpu_ns(),
            wall: Instant::now(),
        }
    }

    /// Seconds since [`Stopwatch::start`].
    fn secs(&self) -> f64 {
        match (self.cpu, thread_cpu_ns()) {
            (Some(t0), Some(t1)) => (t1 - t0) as f64 * 1e-9,
            _ => self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// The middle of an odd count of per-sample ratios of two interleaved
/// timings. A slow phase that lands on one side of one sample moves one
/// ratio past the middle, where it can decide the fastest sample of
/// that side.
fn median(mut ratios: Vec<f64>) -> f64 {
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Nanoseconds this thread has run on a CPU, where the kernel says.
fn thread_cpu_ns() -> Option<u64> {
    std::thread::yield_now();
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

fn main() {
    let mut failed = false;
    // `op` is "<=" for a ceiling-gated cost ratio, ">=" for a floor-gated
    // speedup; `detail` names the two timings behind the value.
    let mut gate = |name: &str, value: f64, op: &str, bound: f64, detail: String| {
        let ok = if op == "<=" {
            value <= bound
        } else {
            value >= bound
        };
        failed |= !ok;
        println!(
            "kernel_gates: {name}: {value:.2} {op} {bound:.2} -> {} ({detail})",
            if ok { "ok" } else { "REGRESSION" },
        );
    };

    // Eigensolver. Tridiagonalisation + QL is n³-scaling, so
    // t289 ≈ 8·t145 and what is left of that ratio is the price of the
    // working set (n²·8 B: 168 KB at 145, 668 KB at 289) leaving the
    // near cache; against one same-size matmul the solver's flop count
    // shows (≈ 9n³ in f64 vs 2n³ in f32). One worker, as the solver has.
    //
    // Both sides run on the instance the ceiling was set on: AVX2 where
    // the host has it. The AVX-512 GEMM tile makes the matmul ≈ 1.3×
    // faster, so its reading prints beside the gate.
    {
        let _guard = rayon::scoped_thread_override(1);
        let calibrated = if Instance::Avx2.available() {
            Instance::Avx2
        } else {
            Instance::Portable
        };
        let _pin = calibrated.pin();
        let factor = |n: usize| {
            let mut rng = Rng::new(31 + n as u64);
            covariance(&Matrix::random_normal(4 * n, n, &mut rng))
        };
        let sizes = [factor(145), factor(289)];
        let mut best = [f64::INFINITY; 4];
        for _ in 0..5 {
            for (f, t) in sizes.iter().zip(&mut best) {
                let t0 = Stopwatch::start();
                let e = black_box(sym_eig(black_box(f)));
                *t = t.min(t0.secs());
                assert_eq!(e.values.len(), f.rows());
            }
            let t0 = Stopwatch::start();
            black_box(black_box(&sizes[1]).matmul(&sizes[1]));
            best[2] = best[2].min(t0.secs());
            if Instance::Avx512.available() {
                let _pin = Instance::Avx512.pin();
                let t0 = Stopwatch::start();
                black_box(black_box(&sizes[1]).matmul(&sizes[1]));
                best[3] = best[3].min(t0.secs());
            }
        }
        let [t145, t289, t_matmul, t_avx512] = best.map(|t| t * 1e3);
        gate(
            "eigen.cliff_289",
            t289 / (8.0 * t145),
            "<=",
            2.0,
            format!("sym_eig {t289:.3} ms at 289, {t145:.3} ms at 145"),
        );
        let avx512 = if Instance::Avx512.available() {
            format!("; Avx512 matmul {t_avx512:.3} ms, {:.2}", t289 / t_avx512)
        } else {
            String::new()
        };
        gate(
            "eigen.gemm_ratio_289",
            t289 / t_matmul,
            "<=",
            26.5,
            format!("sym_eig {t289:.3} ms, {calibrated:?} matmul {t_matmul:.3} ms at 289{avx512}"),
        );
    }

    // Covariance kernel: 32 samples × 36 positions of a 3×3 patch over
    // 32 channels + bias, behind a ReLU (so about half the entries are
    // exact zeros, which the dense walk meets: the data are finite). One
    // rayon worker: the gate prices the kernel's flop count. gram's
    // triangle is split between workers by area, but at two workers both
    // sides also pay the shim's thread spawn and the serial pack of B,
    // and on a shared 2-core host the second core is not always there:
    // ten runs read 1.26-1.62, one below the floor, where one worker
    // reads 1.55-1.76.
    {
        let _guard = rayon::scoped_thread_override(1);
        let mut s = Matrix::random_normal(1152, 289, &mut Rng::new(289));
        for v in s.as_mut_slice() {
            *v = v.max(0.0);
        }
        let mut best = [f64::INFINITY; 2];
        let mut ratios = Vec::new();
        for _ in 0..25 {
            let t0 = Stopwatch::start();
            let full = black_box(black_box(&s).t_matmul(&s));
            let t_full = t0.secs();
            let t0 = Stopwatch::start();
            let half = black_box(black_box(&s).gram());
            let t_half = t0.secs();
            assert_eq!(full, half, "gram diverged from t_matmul");
            best = [best[0].min(t_full), best[1].min(t_half)];
            ratios.push(t_full / t_half);
        }
        let [t_matmul, gram] = best.map(|t| t * 1e3);
        gate(
            "covariance.syrk_speedup",
            median(ratios),
            ">=",
            1.3,
            format!(
                "median of 25 interleaved ratios; fastest t_matmul {t_matmul:.3} ms, \
                 gram {gram:.3} ms, {:.2}",
                t_matmul / gram
            ),
        );
    }

    // The tall covariance: `small_cnn`'s first conv statistics at batch 32
    // (4608 patch rows of 9 taps and the bias column) give a 10 × 10
    // gram, one or two strips whose walk runs all 4608 k. Against one
    // clone of the operand, which reads and writes each value once, it
    // prices what the product spends beyond reading its operand: the
    // strips' reads of `A` and the pack of `B`. One rayon worker, as the
    // fold runs per layer.
    {
        let _guard = rayon::scoped_thread_override(1);
        let mut a = Matrix::random_normal(4608, 10, &mut Rng::new(4608));
        (0..a.rows()).for_each(|r| a.set(r, 9, 1.0));
        let mut best = [f64::INFINITY; 2];
        for _ in 0..25 {
            let t0 = Stopwatch::start();
            black_box(black_box(&a).gram());
            best[0] = best[0].min(t0.secs());
            let t0 = Stopwatch::start();
            black_box(black_box(&a).clone());
            best[1] = best[1].min(t0.secs());
        }
        let [gram, copy] = best.map(|t| t * 1e3);
        gate(
            "covariance.tall_gram_vs_copy",
            gram / copy,
            "<=",
            13.0,
            format!("gram {gram:.3} ms, clone {copy:.3} ms"),
        );
    }

    // The portable and AVX2 GEMM instances at the MLP's precondition
    // shape, and the AVX2 and AVX-512 ones at 289³, one rayon worker.
    {
        let mut rng = Rng::new(128);
        let q = Matrix::random_normal(128, 128, &mut rng);
        let v = Matrix::random_normal(128, 129, &mut rng);
        if Instance::Avx2.available() {
            let _guard = rayon::scoped_thread_override(1);
            let mut best = [f64::INFINITY; 2];
            let mut out = [Matrix::zeros(0, 0), Matrix::zeros(0, 0)];
            for _ in 0..5 {
                for (i, inst) in [Instance::Portable, Instance::Avx2].into_iter().enumerate() {
                    let _pin = inst.pin();
                    let t0 = Stopwatch::start();
                    out[i] = black_box(black_box(&q).matmul(&v));
                    best[i] = best[i].min(t0.secs());
                }
                assert_eq!(out[0], out[1], "the GEMM instances diverged");
            }
            let [portable, avx2] = best.map(|t| t * 1e3);
            gate(
                "gemm.wide_speedup",
                portable / avx2,
                ">=",
                1.5,
                format!("portable {portable:.3} ms, avx2 {avx2:.3} ms"),
            );
        } else {
            println!("kernel_gates: gemm.wide_speedup: n/a (no AVX2 on this host)");
        }
        if Instance::Avx512.available() {
            let _guard = rayon::scoped_thread_override(1);
            let a = Matrix::random_normal(289, 289, &mut rng);
            let b = Matrix::random_normal(289, 289, &mut rng);
            let mut best = [f64::INFINITY; 2];
            let mut ratios = Vec::new();
            let mut out = [Matrix::zeros(0, 0), Matrix::zeros(0, 0)];
            for _ in 0..15 {
                let mut t = [0.0; 2];
                for (i, inst) in [Instance::Avx2, Instance::Avx512].into_iter().enumerate() {
                    let _pin = inst.pin();
                    let t0 = Stopwatch::start();
                    out[i] = black_box(black_box(&a).matmul(&b));
                    t[i] = t0.secs();
                    best[i] = best[i].min(t[i]);
                }
                assert_eq!(out[0], out[1], "the GEMM instances diverged");
                ratios.push(t[0] / t[1]);
            }
            let [avx2, avx512] = best.map(|t| t * 1e3);
            gate(
                "gemm.avx512_speedup",
                median(ratios),
                ">=",
                1.2,
                format!(
                    "median of 15 interleaved ratios; fastest avx2 {avx2:.3} ms, \
                     avx512 {avx512:.3} ms at 289, {:.2}",
                    avx2 / avx512
                ),
            );
        } else {
            println!("kernel_gates: gemm.avx512_speedup: n/a (no AVX-512 on this host)");
        }
    }

    // The eigensolver's two instances at the CNN's conv-factor size.
    if Instance::Avx2.available() {
        let _guard = rayon::scoped_thread_override(1);
        let f = covariance(&Matrix::random_normal(4 * 289, 289, &mut Rng::new(320)));
        let mut best = [f64::INFINITY; 2];
        let mut values: [Vec<f32>; 2] = Default::default();
        for _ in 0..5 {
            for (i, inst) in [Instance::Portable, Instance::Avx2].into_iter().enumerate() {
                let _pin = inst.pin();
                let t0 = Stopwatch::start();
                values[i] = black_box(sym_eig(black_box(&f))).values;
                best[i] = best[i].min(t0.secs());
            }
            assert_eq!(values[0], values[1], "the sym_eig instances diverged");
        }
        let [portable, avx2] = best.map(|t| t * 1e3);
        gate(
            "eigen.wide_speedup",
            portable / avx2,
            ">=",
            1.2,
            format!("portable {portable:.3} ms, avx2 {avx2:.3} ms at 289"),
        );
    } else {
        println!("kernel_gates: eigen.wide_speedup: n/a (no AVX2 on this host)");
    }

    // Stochastic rounding of eight 16 Ki chunks at the conservative
    // strategy's 501 codes, each chunk with its own stream, on the
    // instances of the lane kernel: [portable, avx2, avx512].
    if Instance::Avx2.available() {
        const N: usize = 16 * 1024;
        let chunks: Vec<Vec<f32>> = (0..SR_LANES as u64)
            .map(|i| generate(N, 40 + i, GradientProfile::kfac()))
            .collect();
        let headers: Vec<(f32, f64)> = chunks
            .iter()
            .map(|c| {
                let lo = c.iter().copied().fold(f32::INFINITY, f32::min);
                let hi = c.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                (lo, 500.0 / (hi - lo) as f64)
            })
            .collect();
        let base = Rng::new(41);
        let insts: Vec<Instance> = Instance::ALL
            .into_iter()
            .filter(|inst| inst.available())
            .collect();
        let mut codes = vec![vec![vec![0u32; N]; SR_LANES]; insts.len()];
        let mut best = [f64::INFINITY; 3];
        for _ in 0..15 {
            for (i, &inst) in insts.iter().enumerate() {
                let mut rngs: Vec<Rng> = (0..SR_LANES as u64).map(|j| base.fork(j)).collect();
                let mut lanes: Vec<SrLane> = (chunks.iter().zip(&headers))
                    .zip(&mut rngs)
                    .zip(&mut codes[i])
                    .map(|(((kept, &(lo, inv_w)), rng), codes)| SrLane {
                        kept,
                        lo,
                        inv_w,
                        n_bins: 500,
                        rng,
                        codes,
                    })
                    .collect();
                let t0 = Stopwatch::start();
                quantize_sr_lanes(inst, black_box(&mut lanes));
                best[i] = best[i].min(t0.secs());
            }
            assert!(
                codes.iter().all(|c| *c == codes[0]),
                "the SR lane instances diverged"
            );
        }
        let ns = |t: f64| t * 1e9 / (SR_LANES * N) as f64;
        let [portable, avx2, avx512] = best.map(ns);
        gate(
            "core.sr_lanes_speedup",
            portable / avx2,
            ">=",
            1.3,
            format!("portable {portable:.3} ns/value, avx2 {avx2:.3} ns/value"),
        );
        if Instance::Avx512.available() {
            gate(
                "core.sr_lanes_avx512_speedup",
                avx2 / avx512,
                ">=",
                1.4,
                format!("avx2 {avx2:.3} ns/value, avx512 {avx512:.3} ns/value"),
            );
        } else {
            println!("kernel_gates: core.sr_lanes_avx512_speedup: n/a (no AVX-512 on this host)");
        }
    } else {
        for name in ["core.sr_lanes_speedup", "core.sr_lanes_avx512_speedup"] {
            println!("kernel_gates: {name}: n/a (no AVX2 on this host)");
        }
    }

    // Byte/plane splitter: the conservative strategy's code width
    // (`eb 2e-3` → 501 codes → 9 bits), rotated as a range symmetric
    // about zero is (code 250 to 128).
    {
        let mut rng = Rng::new(9);
        let codes: Vec<u32> = (0..256 * 1024).map(|_| rng.next_u32() % 501).collect();
        let bias = bitpack::split_bias(-1.0, 4e-3, 500);
        let (mut low, mut planes) = (Vec::new(), Vec::new());
        let mut best = [f64::INFINITY; 2];
        for _ in 0..5 {
            let t0 = Stopwatch::start();
            let scalar = black_box(bitpack::split(black_box(&codes), 9, bias));
            best[0] = best[0].min(t0.secs());
            let t0 = Stopwatch::start();
            let inst = Instance::current();
            microkernel::split_into(inst, black_box(&codes), 9, bias, &mut low, &mut planes);
            best[1] = best[1].min(t0.secs());
            assert_eq!(
                (black_box(&low), black_box(&planes)),
                (&scalar.0, &scalar.1),
                "split_into diverged from split"
            );
        }
        let [scalar, fast] = best.map(|t| t * 1e3);
        gate(
            "codec.pack_speedup",
            scalar / fast,
            ">=",
            1.5,
            format!("bitpack::split {scalar:.3} ms, split_into {fast:.3} ms"),
        );
    }

    // Pass 1's extrema, the drop mask and the decoder's dequantize on
    // their two instances, over one layer.
    if Instance::Avx2.available() {
        let _guard = rayon::scoped_thread_override(1);
        let layer = generate(256 * 1024, 24, GradientProfile::kfac());
        let range = minmax_hierarchical(&layer);
        let threshold = 4e-3 * (range.max - range.min);
        let q =
            Quantizer::relative(2e-3, RoundingMode::Stochastic).quantize(&layer, &mut Rng::new(25));
        let bias = bitpack::split_bias(q.lo, q.bin_width, q.n_bins);
        let (low, planes) = bitpack::split(&q.codes, q.bits(), bias);
        let records: Vec<CodeRecord> = (0..layer.len())
            .step_by(CHUNK_ELEMS)
            .map(|at| {
                let end = (at + CHUNK_ELEMS).min(layer.len());
                CodeRecord {
                    low: &low[at..end],
                    planes: &planes[at / 8..end.div_ceil(8)],
                    bits: q.bits(),
                    lo: q.lo,
                    bin_width: q.bin_width,
                    n_bins: q.n_bins,
                }
            })
            .collect();
        let mut kept: [(Vec<u8>, Vec<f32>); 2] = Default::default();
        let mut values = [vec![0.0f32; layer.len()], vec![0.0f32; layer.len()]];
        // [extrema, drop mask, dequantize] × [portable, avx2]
        let mut best = [[f64::INFINITY; 2]; 3];
        for _ in 0..15 {
            let mut ranges = Vec::new();
            for (i, inst) in [Instance::Portable, Instance::Avx2].into_iter().enumerate() {
                let _pin = inst.pin();
                let t0 = Stopwatch::start();
                ranges.push(black_box(minmax_hierarchical(black_box(&layer))));
                best[0][i] = best[0][i].min(t0.secs());
                let (bitmap, survivors) = &mut kept[i];
                let t0 = Stopwatch::start();
                microkernel::filter_kernel(inst, black_box(&layer), threshold, bitmap, survivors);
                best[1][i] = best[1][i].min(t0.secs());
                let t0 = Stopwatch::start();
                for (record, out) in records.iter().zip(values[i].chunks_mut(CHUNK_ELEMS)) {
                    record
                        .dequantize_into(inst, black_box(out))
                        .expect("the quantizer's codes are in range");
                }
                best[2][i] = best[2][i].min(t0.secs());
            }
            let bits = |r: &compso_tensor::reduce::MinMax| (r.min.to_bits(), r.max.to_bits());
            assert_eq!(
                bits(&ranges[0]),
                bits(&ranges[1]),
                "the extrema instances diverged"
            );
            assert_eq!(kept[0], kept[1], "the drop mask instances diverged");
            assert_eq!(values[0], values[1], "the dequantize instances diverged");
        }
        let ns = |t: f64| t * 1e9 / layer.len() as f64;
        for (name, [portable, avx2]) in [
            ("core.extrema_speedup", best[0]),
            ("core.drop_mask_speedup", best[1]),
            ("codec.dequant_speedup", best[2]),
        ] {
            gate(
                name,
                portable / avx2,
                ">=",
                1.5,
                format!(
                    "portable {:.3} ns/elem, avx2 {:.3} ns/elem",
                    ns(portable),
                    ns(avx2)
                ),
            );
        }
    } else {
        for name in [
            "core.extrema_speedup",
            "core.drop_mask_speedup",
            "codec.dequant_speedup",
        ] {
            println!("kernel_gates: {name}: n/a (no AVX2 on this host)");
        }
    }

    // The rANS coder's two instances on what `encode_blocks` feeds it
    // most: the low-byte stream of Alg. 1's conservative codes (`eb
    // 2e-3`, 9 bits) of one 256 Ki layer, one codec block.
    if Instance::Avx2.available() {
        let _guard = rayon::scoped_thread_override(1);
        let layer = generate(256 * 1024, 24, GradientProfile::kfac());
        let q =
            Quantizer::relative(2e-3, RoundingMode::Stochastic).quantize(&layer, &mut Rng::new(25));
        let bias = bitpack::split_bias(q.lo, q.bin_width, q.n_bins);
        let (low, _) = bitpack::split(&q.codes, q.bits(), bias);
        let frame = rans::encode(Instance::Portable, &low);
        // [encode, decode] × [portable, avx2]
        let mut best = [[f64::INFINITY; 2]; 2];
        for _ in 0..15 {
            for (i, inst) in [Instance::Portable, Instance::Avx2].into_iter().enumerate() {
                let t0 = Stopwatch::start();
                let enc = black_box(rans::encode(inst, black_box(&low)));
                best[0][i] = best[0][i].min(t0.secs());
                assert_eq!(enc, frame, "the rANS instances' frames diverged");
                let t0 = Stopwatch::start();
                let dec = black_box(rans::decode(inst, black_box(&frame)));
                best[1][i] = best[1][i].min(t0.secs());
                assert_eq!(dec.as_deref(), Ok(&low[..]), "{inst:?} decode");
            }
        }
        for (what, [portable, avx2]) in [("decode", best[1]), ("encode", best[0])] {
            let ns_per_byte = |t: f64| t * 1e9 / low.len() as f64;
            gate(
                &format!("codec.rans_{what}_speedup"),
                portable / avx2,
                ">=",
                1.4,
                format!(
                    "portable {:.2} ns/B, avx2 {:.2} ns/B",
                    ns_per_byte(portable),
                    ns_per_byte(avx2)
                ),
            );
        }
    } else {
        for what in ["decode", "encode"] {
            println!("kernel_gates: codec.rans_{what}_speedup: n/a (no AVX2 on this host)");
        }
    }

    // What the ninth bit costs on the wire, and what dropping the eighth
    // saves: the same layer, the same seed, SR only, at Alg. 1's two
    // bounds and §4.3's 7-bit example.
    {
        let layer = generate(256 * 1024, 24, GradientProfile::kfac());
        let frame_bytes = |eb: f32| {
            let c = ChunkedCompso::new(CompsoConfig::conservative(eb));
            c.compress(&layer, &mut Rng::new(25)).len()
        };
        let (wide, narrow) = (frame_bytes(2e-3), frame_bytes(4e-3));
        gate(
            "codec.wide_cost",
            wide as f64 / narrow as f64,
            "<=",
            1.45,
            format!("{wide} B at eb 2e-3, {narrow} B at eb 4e-3"),
        );
        let loose = frame_bytes(1e-2);
        gate(
            "codec.narrow_cost",
            loose as f64 / narrow as f64,
            "<=",
            1.0,
            format!("{loose} B at eb 1e-2, {narrow} B at eb 4e-3"),
        );
    }

    // The conv/ReLU step's glue, one rayon worker. ReLU on `small_cnn`'s
    // first activation (16 channels × 12 × 12 at batch 32): a select pass
    // reads and writes what a copy does.
    {
        let _guard = rayon::scoped_thread_override(1);
        let mut rng = Rng::new(2304);
        let x = Matrix::random_normal(32, 2304, &mut rng);
        let g = Matrix::random_normal(32, 2304, &mut rng);
        let mut relu = Relu::new();
        let mut best = [f64::INFINITY; 2];
        for _ in 0..5 {
            let t0 = Stopwatch::start();
            black_box(relu.forward(black_box(&x), true));
            black_box(relu.backward(black_box(&g)));
            best[0] = best[0].min(t0.secs());
            let t0 = Stopwatch::start();
            black_box(black_box(&x).clone());
            black_box(black_box(&x).clone());
            best[1] = best[1].min(t0.secs());
        }
        let [relu, copies] = best.map(|t| t * 1e3);
        gate(
            "dnn.relu_vs_copy",
            relu / copies,
            "<=",
            8.0,
            format!("relu fwd + bwd {relu:.3} ms, two clones {copies:.3} ms"),
        );
    }

    // The whole CNN step against its conv GEMMs alone, replayed on the
    // operands the step captured (the weights do not move between steps).
    // A round is 5 to 9 ms: five of them fit inside one burst of host
    // load, and fastest of 5 read 1.27 to 1.75 on an unchanged tree where
    // fastest of 25 read 1.32 to 1.39.
    {
        let _guard = rayon::scoped_thread_override(1);
        let mut rng = Rng::new(12);
        let mut model = small_cnn(1, 12, 12, 4, 16, &mut rng);
        let x = Matrix::random_normal(32, 144, &mut rng);
        let probe = Matrix::random_normal(32, 4, &mut rng);
        model.forward(&x, true);
        model.backward(&probe);
        let convs: Vec<(Matrix, Matrix, Matrix)> = (0..model.len())
            .map(|i| model.layer(i))
            .filter(|l| l.name() == "Conv2d")
            .map(|l| {
                let (a, g) = l.kfac_stats_ref().expect("captured conv statistics");
                let w = l.params().expect("conv weight");
                (a.clone(), g.clone(), w.clone())
            })
            .collect();
        let mut best = [f64::INFINITY; 2];
        for _ in 0..25 {
            let t0 = Stopwatch::start();
            black_box(model.forward(black_box(&x), true));
            black_box(model.backward(black_box(&probe)));
            best[0] = best[0].min(t0.secs());
            let t0 = Stopwatch::start();
            for (a, g, w) in &convs {
                black_box(black_box(a).matmul(w));
                black_box(black_box(a).t_matmul(g));
                black_box(black_box(g).matmul_t_first(w, w.rows() - 1));
            }
            best[1] = best[1].min(t0.secs());
        }
        let [step, gemms] = best.map(|t| t * 1e3);
        gate(
            "dnn.glue_ratio",
            step / gemms,
            "<=",
            1.5,
            format!("small_cnn fwd + bwd {step:.3} ms, its conv GEMMs {gemms:.3} ms"),
        );
    }

    // Gather scheduling: serial compress-then-gather vs the pipelined
    // ring, imbalanced ownership.
    for workers in [2usize, 4] {
        let (serial, pipelined, (wall, floor)) = gather_walls(workers);
        gate(
            &format!("pipeline.speedup_{workers}w"),
            serial / pipelined,
            ">=",
            1.0,
            format!(
                "serial {:.3} ms, pipelined {:.3} ms",
                serial * 1e3,
                pipelined * 1e3
            ),
        );
        gate(
            &format!("pipeline.wire_floor_{workers}w"),
            wall / floor,
            ">=",
            1.0,
            format!(
                "tightest of {} passes: wall {:.3} ms, busiest rank's bytes / {WIRE_MBPS} MB/s {:.3} ms",
                2 * GATHER_REPS,
                wall * 1e3,
                floor * 1e3
            ),
        );
    }

    // Work hidden behind the gradient reduce.
    for workers in [2usize, 4] {
        let (serial, wall) = reduce_overlap(workers);
        gate(
            &format!("reduce.overlap_{workers}w"),
            serial / wall,
            ">=",
            1.3,
            format!(
                "best of {GATHER_REPS} passes: serial sum {:.3} ms, wall {:.3} ms",
                serial * 1e3,
                wall * 1e3
            ),
        );
    }

    if failed {
        std::process::exit(1);
    }
}
