//! Back-to-back ratio gates: the perf checks that no row of the
//! `benchmark/` ledger can express. Each gate is a ratio of two timings
//! taken next to each other in one process, so it holds through a noisy
//! host where a millisecond or MB/s floor would not, and needs neither a
//! committed baseline nor a tolerance. Throughput itself is reported by
//! `benchmark/` alone (see `BENCHMARK.json`).
//!
//! Prints one `kernel_gates: <name>: <value> <bound> -> ok|REGRESSION`
//! line per gate (the two timings behind the ratio follow in brackets)
//! and exits 1 if any gate failed:
//!
//! * `eigen.cliff_289 <= 2.0` — `sym_eig` on seeded K-FAC-shaped factors
//!   at n = 145 and 289 (fastest of 5): `t289 / (8·t145)` is the
//!   n³-normalised slowdown past the point where the solver's f64 n×n
//!   buffer stops fitting the near cache. A stride-n walk in an O(n³)
//!   loop reads 2.6 to 3.4.
//! * `eigen.gemm_ratio_289 <= 26.5` — the same `t289` in units of one
//!   289³ `Matrix::matmul`. Tridiagonalisation + QL reads 7.2 to 7.5, the
//!   cyclic Jacobi it replaced 94 to 115; the ceiling is the geometric
//!   mean of the two, so a relapse to a Jacobi-class flop count fails.
//! * `covariance.syrk_speedup >= 1.3` — `Matrix::gram` (the SYRK
//!   `covariance()` runs) against `t_matmul` of the same matrix with
//!   itself on one seeded ReLU-sparse statistics matrix at the CNN
//!   proxy's conv-factor shape (1152 × 289), fastest of 5, interleaved,
//!   on one rayon worker. Half the flops, so ≈ 2 in the limit; the
//!   pack of B and the mirror are the same on both sides.
//! * `codec.pack_speedup >= 1.5` — `microkernel::split_into` (what the
//!   chunk kernels run on codes wider than a byte: a low-byte stream and
//!   a packed high-bit plane) against its scalar oracle `bitpack::split`
//!   on one seeded stream of 256 Ki 9-bit codes, fastest of 5,
//!   interleaved. The plane goes through `pack_into`'s register window;
//!   a packer that reads its own output back (a load–or–store of a
//!   memory window per code) read 0.68 against the per-bit loop it
//!   exists to replace.
//! * `codec.wide_cost <= 1.45` — frame bytes at Alg. 1's conservative
//!   bound (`eb 2e-3`, 9-bit codes) ÷ frame bytes at `eb 4e-3` (8-bit)
//!   on one seeded 256 Ki K-FAC-like layer, SR only. A count, not a
//!   timing: one more bit of resolution should cost about one more bit
//!   per element (≈ 1.28). Bit-packing the 9-bit codes ahead of the
//!   byte-wise entropy coder read 2.75; the byte/plane split without
//!   the zero-centring rotation 1.38.
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

use compso_comm::collectives::{allgather_var, pipelined_allgather};
use compso_comm::fault::FaultPlane;
use compso_comm::{run_ranks_with, CommConfig};
use compso_core::kernels::{KernelConfig, LayerSchedule};
use compso_core::synthetic::{generate, GradientProfile};
use compso_core::wire::{frame_checksummed, framed_len, unframe_checksummed};
use compso_core::{bitpack, microkernel};
use compso_core::{ChunkedCompso, Compressor, CompsoConfig};
use compso_kfac::kfac::covariance;
use compso_obs::Recorder;
use compso_tensor::{sym_eig, Matrix, Rng};
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
            let chunk = KernelConfig::default().chunk_elems;
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
    // shows (≈ 9n³ in f64 vs 2n³ in f32).
    {
        let factor = |n: usize| {
            let mut rng = Rng::new(31 + n as u64);
            covariance(&Matrix::random_normal(4 * n, n, &mut rng))
        };
        let sizes = [factor(145), factor(289)];
        let mut best = [f64::INFINITY; 3];
        for _ in 0..5 {
            for (f, t) in sizes.iter().zip(&mut best) {
                let t0 = Instant::now();
                let e = black_box(sym_eig(black_box(f)));
                *t = t.min(t0.elapsed().as_secs_f64());
                assert_eq!(e.values.len(), f.rows());
            }
            let t0 = Instant::now();
            black_box(black_box(&sizes[1]).matmul(&sizes[1]));
            best[2] = best[2].min(t0.elapsed().as_secs_f64());
        }
        let [t145, t289, t_matmul] = best.map(|t| t * 1e3);
        gate(
            "eigen.cliff_289",
            t289 / (8.0 * t145),
            "<=",
            2.0,
            format!("sym_eig {t289:.3} ms at 289, {t145:.3} ms at 145"),
        );
        gate(
            "eigen.gemm_ratio_289",
            t289 / t_matmul,
            "<=",
            26.5,
            format!("sym_eig {t289:.3} ms, matmul {t_matmul:.3} ms at 289"),
        );
    }

    // Covariance kernel: 32 samples × 36 positions of a 3×3 patch over
    // 32 channels + bias, behind a ReLU (so about half the entries are
    // exact zeros and take the kernels' zero-skip). One rayon worker: the
    // gate prices the kernel's flop count. gram's triangle is split
    // between workers by area, but at two workers both sides also pay
    // the shim's thread spawn and the serial pack of B, and on a shared
    // 2-core host the second core is not always there: ten runs read
    // 1.26-1.62, one below the floor, where one worker reads 1.55-1.76.
    {
        let _guard = rayon::scoped_thread_override(1);
        let mut s = Matrix::random_normal(1152, 289, &mut Rng::new(289));
        for v in s.as_mut_slice() {
            *v = v.max(0.0);
        }
        let mut best = [f64::INFINITY; 2];
        for _ in 0..5 {
            let t0 = Instant::now();
            let full = black_box(black_box(&s).t_matmul(&s));
            best[0] = best[0].min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let half = black_box(black_box(&s).gram());
            best[1] = best[1].min(t0.elapsed().as_secs_f64());
            assert_eq!(full, half, "gram diverged from t_matmul");
        }
        let [t_matmul, gram] = best.map(|t| t * 1e3);
        gate(
            "covariance.syrk_speedup",
            t_matmul / gram,
            ">=",
            1.3,
            format!("t_matmul {t_matmul:.3} ms, gram {gram:.3} ms"),
        );
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
            let t0 = Instant::now();
            let scalar = black_box(bitpack::split(black_box(&codes), 9, bias));
            best[0] = best[0].min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            microkernel::split_into(black_box(&codes), 9, bias, &mut low, &mut planes);
            best[1] = best[1].min(t0.elapsed().as_secs_f64());
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

    // What the ninth bit costs on the wire: the same layer, the same
    // seed, SR only, at Alg. 1's two bounds.
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

    if failed {
        std::process::exit(1);
    }
}
