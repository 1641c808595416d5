//! Snapshot benchmark for the parallel compression hot path.
//!
//! Round-trips a synthetic K-FAC gradient buffer through the kernels and
//! emits a JSON snapshot (`BENCH_compress.json` via
//! `scripts/bench_snapshot.sh`):
//!
//! 1. `chunked_1thread` — the chunked kernels pinned to one worker,
//! 2. `chunked_nthread` — the chunked kernels at the host's natural
//!    worker count (the production configuration); `"n/a"` when that
//!    count is 1, where it would only repeat the row above,
//! 3. `ckpt` — the checkpoint store's rank-file save/load over the same
//!    buffer (lossless rANS payloads, CRC framing, fsync'd commit), so
//!    snapshot cost is tracked alongside the gradient hot path.
//! 4. `pipeline` — the step-5 gather scheduling A/B: compress-then-
//!    `allgather_var` vs `pipelined_allgather` (compression of group
//!    k+1 overlapped with group k's ring hops, streaming per-group
//!    decode) at 1/2/4 in-process workers, on the imbalanced-ownership
//!    workload where overlap pays (one rank owns most of the bytes, as
//!    heterogeneous layer costs make routine — peers stream-decode its
//!    early groups while it is still compressing the later ones). The
//!    A/B runs over a modeled wire ([`CommConfig::modeled_wire_mbps`]):
//!    every message drains at a fixed bandwidth on the receiver side,
//!    so the serial schedule exposes one bulk drain per ring hop while
//!    the pipelined schedule hides each per-group drain behind the next
//!    group's compression. Serial and pipelined passes are interleaved
//!    within each rep (ambient host noise hits both sides equally) and
//!    every rep asserts the two schedules decode bit-identical values.
//! 5. `powersgd` — the rank-4 low-rank family's stateless encode/decode
//!    over the same buffer (cold-start Q, the worst case).
//! 6. `controller` — ns per adaptive-controller decision over a
//!    scripted signal tape, and that cost as a fraction of the chunked
//!    compress wall (`overhead_frac`, gated < 1% by bench_check.sh).
//! 7. `eigen` — `sym_eig` on seeded K-FAC-shaped factors at n = 145 and
//!    289 and one 289³ `Matrix::matmul` (fastest of 5, the three timed
//!    back to back). `cliff_289 = t289 / (8·t145)` is the n³-normalised
//!    slowdown past the point where the solver's f64 n×n buffer stops
//!    fitting the near cache (gated ≤ 2.0 by bench_check.sh);
//!    `gemm_ratio_289 = t289 / t_matmul` prices the solver in units of
//!    a same-size product, so a relapse to a Jacobi-class flop count
//!    fails its ceiling. Ratios of neighbouring timings survive a noisy
//!    host where an absolute ms gate would not.
//! 8. `covariance` — the factor phase's kernel: `Matrix::gram` (the SYRK
//!    `covariance()` runs) against `t_matmul` of the same matrix with
//!    itself (what it ran before) on one seeded ReLU-sparse statistics
//!    matrix at the CNN proxy's conv-factor shape (1152 × 289), fastest
//!    of 5, interleaved; `syrk_speedup = t_matmul_ms / gram_ms` is gated
//!    ≥ 1.3 by bench_check.sh (half the flops, so ≈ 2 in the limit).
//!
//! Environment knobs: `COMPSO_BENCH_ELEMS` (default 4 Mi f32 = 16 MiB),
//! `COMPSO_BENCH_REPS` (default 3; best-of-N is reported),
//! `COMPSO_BENCH_PIPE_GROUPS` (default 8 groups on the big-owner rank)
//! and `COMPSO_BENCH_WIRE_MBPS` (default 50 — see the justification at
//! the call site). The output path is `argv[1]`, defaulting to
//! `BENCH_compress.json`. The JSON records `threads` so readers can
//! judge the `chunked_nthread` row.

use compso_comm::collectives::{allgather_var, pipelined_allgather};
use compso_comm::fault::FaultPlane;
use compso_comm::{run_ranks_with, CommConfig};
use compso_core::baselines::PowerSgd;
use compso_core::kernels::{compress_chunked, decompress_chunked, KernelConfig, LayerSchedule};
use compso_core::synthetic::{generate, GradientProfile};
use compso_core::wire::{frame_checksummed, framed_len, unframe_checksummed};
use compso_core::{ChunkedCompso, Compressor, CompsoConfig};
use compso_ctrl::{ControlConfig, Controller, Signals};
use compso_kfac::kfac::covariance;
use compso_obs::Recorder;
use compso_tensor::{sym_eig, Matrix, Rng};
use std::hint::black_box;
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Sample {
    compress_mbps: f64,
    decompress_mbps: f64,
    ratio: f64,
}

impl Sample {
    fn json(&self) -> String {
        format!(
            "{{\"compress_MBps\": {:.2}, \"decompress_MBps\": {:.2}, \"ratio\": {:.2}}}",
            self.compress_mbps, self.decompress_mbps, self.ratio
        )
    }
}

/// Runs `run` `reps` times; reports best-of-N throughput (MB/s of
/// uncompressed input) for each of the two timed phases.
fn measure(reps: usize, bytes: usize, mut run: impl FnMut() -> (f64, f64, usize)) -> Sample {
    let mut ct = f64::INFINITY;
    let mut dt = f64::INFINITY;
    let mut comp = 0usize;
    for _ in 0..reps {
        let (c, d, n) = run();
        ct = ct.min(c);
        dt = dt.min(d);
        comp = n;
    }
    Sample {
        compress_mbps: bytes as f64 / ct.max(1e-12) / 1e6,
        decompress_mbps: bytes as f64 / dt.max(1e-12) / 1e6,
        ratio: bytes as f64 / comp.max(1) as f64,
    }
}

/// Wall-clock A/B of the step-5 gather schedules at `workers`
/// in-process ranks: rank 0 owns `big_groups` groups of `big_elems`
/// floats, every other rank one group of `small_elems`. Both modes
/// compress each group into its own CRC frame, move the frames around
/// the ring, and decode everything (peers' groups and the rank's own
/// clean copies) exactly as the production hot path does; rayon is
/// pinned to one worker so the pipeline schedule — not data-parallel
/// kernel fan-out — is what's measured.
///
/// The two modes alternate serial-then-pipelined *within* each rep of
/// one rank session, so ambient load on the host perturbs both sides of
/// the comparison equally; each rep also asserts the two schedules
/// decode bit-identical values (same per-rep RNG seed → same stochastic
/// rounding → same wire bytes, the §4.2 determinism contract). Returns
/// `(serial, pipelined)` best-of-`reps` slowest-rank walls in seconds.
fn gather_walls(
    workers: usize,
    big_groups: usize,
    big_elems: usize,
    small_elems: usize,
    wire_mbps: f64,
    reps: usize,
) -> (f64, f64) {
    let _guard = rayon::scoped_thread_override(1);
    // The modeled wire is what makes the overlap physical: a sender
    // sleeping through a payload's drain releases its core, so peers
    // decode (pipelined) or merely wait (serial) while bytes are "on
    // the wire" — the same resource split as GPU compress + NIC DMA.
    let config = CommConfig {
        modeled_wire_mbps: Some(wire_mbps),
        ..CommConfig::default()
    };
    let times: Vec<Vec<(f64, f64)>> =
        run_ranks_with(workers, FaultPlane::disabled(), config, move |comm| {
            let me = comm.rank();
            let p = comm.size();
            let mine: Vec<Vec<f32>> = if me == 0 {
                (0..big_groups)
                    .map(|g| generate(big_elems, 31 + g as u64, GradientProfile::kfac()))
                    .collect()
            } else {
                vec![generate(
                    small_elems,
                    131 + me as u64,
                    GradientProfile::kfac(),
                )]
            };
            let n_groups: Vec<usize> = (0..p)
                .map(|q| if q == 0 { big_groups } else { 1 })
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

            // One gather pass in the given mode; returns (wall seconds,
            // checksum over every decoded f32 of the step).
            let mut pass = |pipelined: bool, seed: u64| -> (f64, u64) {
                comm.barrier().expect("barrier");
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
                let wall = t0.elapsed().as_secs_f64();
                assert_eq!(
                    decoded_elems,
                    big_groups * big_elems + (p - 1) * small_elems
                );
                (wall, checksum)
            };

            // One untimed warm-up pass per mode (cold caches, lazy codec
            // tables), then `reps` timed serial/pipelined pairs.
            let _ = pass(false, 7);
            let _ = pass(true, 7);
            let mut walls = Vec::with_capacity(reps);
            for rep in 0..reps {
                let seed = 100 + rep as u64;
                let (serial_wall, serial_sum) = pass(false, seed);
                let (pipe_wall, pipe_sum) = pass(true, seed);
                assert_eq!(
                    serial_sum, pipe_sum,
                    "pipelined gather must decode bit-identical values"
                );
                walls.push((serial_wall, pipe_wall));
            }
            walls
        });
    // Per rep the slowest rank defines the wall; report the best rep.
    let best = |pick: fn(&(f64, f64)) -> f64| {
        (0..reps)
            .map(|i| times.iter().map(|t| pick(&t[i])).fold(0.0f64, f64::max))
            .fold(f64::INFINITY, f64::min)
    };
    (best(|t| t.0), best(|t| t.1))
}

fn main() {
    let elems = env_usize("COMPSO_BENCH_ELEMS", 4 << 20).max(1024);
    let reps = env_usize("COMPSO_BENCH_REPS", 3).max(1);
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_compress.json".to_string());
    let bytes = elems * 4;

    let data = generate(elems, 21, GradientProfile::kfac());
    let cfg = CompsoConfig::aggressive(4e-3);
    let kc = KernelConfig::default();
    let schedule = LayerSchedule::build(&[data.len()], kc.chunk_elems);

    let off = Recorder::disabled();
    let chunked_at = |threads: Option<usize>| {
        let _guard = threads.map(rayon::scoped_thread_override);
        measure(reps, bytes, || {
            let rng = Rng::new(11);
            let t0 = Instant::now();
            let enc = compress_chunked(&[&data], &cfg, &kc, &schedule, &rng, &off);
            let ct = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let dec = decompress_chunked(&enc, &off).expect("chunked roundtrip");
            let dt = t1.elapsed().as_secs_f64();
            assert_eq!(dec[0].len(), elems);
            (ct, dt, enc.len())
        })
    };

    let chunked_1 = chunked_at(Some(1));
    let threads = rayon::current_num_threads().max(1);
    let chunked_n = (threads > 1).then(|| chunked_at(None));
    // The production row: the natural worker count where there is one.
    let chunked = chunked_n.as_ref().unwrap_or(&chunked_1);

    // Checkpoint store round-trip: the same buffer as snapshot tensors
    // through the full on-disk path (encode + CRC frame + fsync'd
    // commit, then validated load).
    let ckpt = {
        use compso_ckpt::{CheckpointStore, Manifest, Snapshot, TensorData, TensorEntry};
        use compso_core::encoders::Codec;
        let dir = std::env::temp_dir().join(format!("compso-bench-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, 1).expect("open bench store");
        let mut snap = Snapshot::new(0);
        for (i, part) in data.chunks(elems.div_ceil(8)).enumerate() {
            snap.push(TensorEntry::vector(
                format!("bench/{i}"),
                TensorData::F32(part.to_vec()),
            ));
        }
        let sample = measure(reps, bytes, || {
            store.prepare_tmp(0).expect("prepare");
            let t0 = Instant::now();
            let (meta, stats) = store
                .write_rank_file(0, 0, &snap, Codec::Ans)
                .expect("write rank file");
            let manifest = Manifest {
                step: 0,
                world_size: 1,
                fingerprint: 0,
                epoch: 0,
                ranks: vec![meta],
            };
            store.commit(&manifest).expect("commit");
            let ct = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let back = store.load_rank(0, &manifest, 0).expect("load rank file");
            let dt = t1.elapsed().as_secs_f64();
            assert_eq!(back.tensors.len(), snap.tensors.len());
            (ct, dt, stats.bytes_written as usize)
        });
        let _ = std::fs::remove_dir_all(&dir);
        sample
    };

    // PowerSGD low-rank family: stateless rank-4 encode/decode over the
    // same buffer. The stateless path cold-starts Q each call, so this
    // is the worst-case encode cost (warm-started group steps only get
    // cheaper).
    let powersgd = {
        let c = PowerSgd::rank(4);
        measure(reps, bytes, || {
            let t0 = Instant::now();
            let enc = c.encode(&data);
            let ct = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let dec = PowerSgd::decode(&enc).expect("powersgd roundtrip");
            let dt = t1.elapsed().as_secs_f64();
            assert_eq!(dec.len(), elems);
            (ct, dt, enc.len())
        })
    };

    // Controller decision overhead: scripted signal tape through a live
    // (instrumented) controller, reported both as ns/decision and as a
    // fraction of the production chunked compress wall for this buffer —
    // the gate is that decisions stay well under 1% of the step.
    let controller = {
        let decide_steps = env_usize("COMPSO_BENCH_CTRL_STEPS", 10_000).max(100);
        let rec = Recorder::enabled();
        let mut ctl = Controller::new(ControlConfig::default());
        let t0 = Instant::now();
        for i in 0..decide_steps as u64 {
            let sig = Signals {
                bytes_in: bytes as u64,
                bytes_out: bytes as u64 / 4 + (i % 7) * 1024,
                wall_ns: 1_000_000 + (i % 13) * 10_000,
                predicted_wall_ns: 1_000_000,
                error_rel: 0.01,
            };
            ctl.observe(&sig, &rec);
        }
        let decide_ns = t0.elapsed().as_nanos() as f64 / decide_steps as f64;
        let step_wall_ns = bytes as f64 / (chunked.compress_mbps.max(1e-9) * 1e6) * 1e9;
        format!(
            "{{\"steps\": {decide_steps}, \"decide_ns\": {decide_ns:.1}, \
             \"step_wall_ns\": {step_wall_ns:.0}, \"overhead_frac\": {:.8}}}",
            decide_ns / step_wall_ns
        )
    };

    // Gather-scheduling A/B: serial compress-then-gather vs the
    // pipelined ring, 1/2/4 workers, imbalanced ownership.
    let big_groups = env_usize("COMPSO_BENCH_PIPE_GROUPS", 8).max(1);
    let big_elems = (elems / (2 * big_groups)).max(1024);
    let small_elems = (elems / 64).max(256);
    // Modeled wire bandwidth for the gather A/B. 50 MB/s keeps the
    // wire-to-compressor throughput ratio in the same regime as the
    // paper's clusters: this CPU codec moves ~170 MB/s where an A100's
    // moves ~100 GB/s, so a 100 Gb/s (12.5 GB/s) fabric scales down to
    // tens of MB/s with it. The ratio is what matters — it decides how
    // much drain each compression stage can hide.
    let wire_mbps = env_usize("COMPSO_BENCH_WIRE_MBPS", 50).max(1) as f64;
    let mut pipeline = format!(
        "{{\"big_groups\": {big_groups}, \"big_elems\": {big_elems}, \"small_elems\": {small_elems}, \"wire_MBps\": {wire_mbps}"
    );
    for workers in [1usize, 2, 4] {
        let (serial_s, pipe_s) =
            gather_walls(workers, big_groups, big_elems, small_elems, wire_mbps, reps);
        pipeline.push_str(&format!(
            ", \"serial_ms_{workers}w\": {:.3}, \"pipelined_ms_{workers}w\": {:.3}, \
             \"speedup_{workers}w\": {:.2}",
            serial_s * 1e3,
            pipe_s * 1e3,
            serial_s / pipe_s.max(1e-12),
        ));
    }
    pipeline.push('}');

    // Eigensolver gates. Tridiagonalisation + QL is n³-scaling, so
    // t289 ≈ 8·t145 and what is left of that ratio is the price of the
    // working set (n²·8 B: 168 KB at 145, 668 KB at 289) leaving the
    // near cache; against one same-size matmul the solver's flop count
    // shows (≈ 9n³ in f64 vs 2n³ in f32). Fixed sizes and reps: the
    // gates must not move with the smoke run's COMPSO_BENCH_ELEMS/REPS.
    let eigen = {
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
        format!(
            "{{\"sym_eig_ms_145\": {:.3}, \"sym_eig_ms_289\": {:.3}, \"cliff_289\": {:.2}, \
             \"matmul_ms_289\": {:.3}, \"gemm_ratio_289\": {:.2}}}",
            best[0] * 1e3,
            best[1] * 1e3,
            best[1] / (8.0 * best[0]).max(1e-12),
            best[2] * 1e3,
            best[1] / best[2].max(1e-12),
        )
    };

    // Covariance kernel ratio gate, fixed shape and reps like `eigen`:
    // 32 samples × 36 positions of a 3×3 patch over 32 channels + bias,
    // behind a ReLU (so about half the entries are exact zeros and take
    // the kernels' zero-skip).
    let syrk = {
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
        format!(
            "{{\"t_matmul_ms\": {:.3}, \"gram_ms\": {:.3}, \"syrk_speedup\": {:.2}}}",
            best[0] * 1e3,
            best[1] * 1e3,
            best[0] / best[1].max(1e-12),
        )
    };

    let json = format!(
        "{{\n  \"elems\": {elems},\n  \"bytes\": {bytes},\n  \"reps\": {reps},\n  \
         \"threads\": {threads},\n  \"chunked_1thread\": {},\n  \
         \"chunked_nthread\": {},\n  \"ckpt\": {},\n  \"powersgd\": {},\n  \
         \"controller\": {controller},\n  \"pipeline\": {pipeline},\n  \
         \"eigen\": {eigen},\n  \"covariance\": {syrk}\n}}\n",
        chunked_1.json(),
        chunked_n
            .as_ref()
            .map_or("\"n/a\"".to_string(), Sample::json),
        ckpt.json(),
        powersgd.json(),
    );
    print!("{json}");
    std::fs::write(&out_path, &json).expect("write snapshot");
    eprintln!("wrote {out_path}");
}
