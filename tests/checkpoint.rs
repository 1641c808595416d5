//! Coordinated checkpoint/restore acceptance (ISSUE: compso-ckpt).
//!
//! The headline invariant: training N steps straight and training N/2
//! steps → coordinated save → **drop all live state** → restore → N/2
//! more steps produce *bit-identical* parameters, at every world size
//! and under both the lossless identity compressor and the quantized
//! stochastic COMPSO pipeline (whose per-rank RNG streams make resume
//! correctness non-trivial).
//!
//! The crash campaign replays the paper's operational story end to end:
//! a seeded [`FaultPlane`] kills a rank mid-run, the surviving process
//! group tears down, a fresh group restores the last coordinated
//! snapshot and finishes — landing on the exact same trajectory as an
//! uninterrupted run. Every assertion is reconciled against the
//! `ckpt/*` observability counters.

use compso::comm::{run_ranks, run_ranks_with, CommConfig, FaultConfig, FaultPlane};
use compso::core::{ChunkedCompso, Compressor, CompsoConfig, NoCompression};
use compso::dnn::loss::softmax_cross_entropy;
use compso::dnn::{data, models, Sequential};
use compso::kfac::checkpoint::fingerprint;
use compso::kfac::{CheckpointConfig, CheckpointCoordinator, DistKfac, DistKfacConfig};
use compso::obs::{names, Recorder};
use compso::tensor::{Matrix, Rng};
use std::path::PathBuf;
use std::time::Duration;

const BATCH: usize = 8;

/// Fresh per-test store root under the system temp dir.
fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "compso-ckpt-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn params_of(model: &Sequential) -> Vec<Matrix> {
    (0..model.len())
        .filter_map(|i| model.layer(i).params().cloned())
        .collect()
}

/// One training step of the shared fixture loop.
fn train_step(
    comm: &mut compso::comm::Communicator,
    model: &mut Sequential,
    opt: &mut DistKfac,
    shard: &data::Dataset,
    compressor: &dyn Compressor,
    step: usize,
) {
    let (x, y) = shard.batch(step, BATCH);
    let logits = model.forward(&x, true);
    let (_, grad) = softmax_cross_entropy(&logits, &y);
    model.backward(&grad);
    opt.step(comm, model, compressor).expect("step");
    model.update_params(|p, g| p.axpy(-0.02, g));
}

fn make_compressor(quantized: bool) -> Box<dyn Compressor> {
    if quantized {
        Box::new(ChunkedCompso::new(CompsoConfig::aggressive(4e-3)))
    } else {
        Box::new(NoCompression)
    }
}

/// Straight `steps`-step run; per-rank final params.
fn straight(ranks: usize, steps: usize, quantized: bool) -> Vec<Vec<Matrix>> {
    let d = data::gaussian_blobs(240, 6, 3, 0.3, 55);
    let d_ref = &d;
    run_ranks(ranks, move |comm| {
        let mut rng = Rng::new(13);
        let mut model = models::mlp(&[6, 16, 3], &mut rng);
        let shard = d_ref.shard(comm.rank(), ranks);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
        let compressor = make_compressor(quantized);
        for step in 0..steps {
            train_step(
                comm,
                &mut model,
                &mut opt,
                &shard,
                compressor.as_ref(),
                step,
            );
        }
        params_of(&model)
    })
}

/// Half the run, coordinated save, then **all live state is dropped**:
/// a fresh garbage-initialized model and a fresh optimizer restore from
/// disk and train the second half.
fn resumed(
    ranks: usize,
    steps: usize,
    quantized: bool,
    dir: &std::path::Path,
    rec: &Recorder,
) -> Vec<Vec<Matrix>> {
    let d = data::gaussian_blobs(240, 6, 3, 0.3, 55);
    let d_ref = &d;
    let fp = fingerprint(&[
        "ckpt-it",
        &format!("ranks={ranks}"),
        &format!("q={quantized}"),
    ]);
    run_ranks(ranks, move |comm| {
        let shard = d_ref.shard(comm.rank(), ranks);
        let compressor = make_compressor(quantized);
        let coord = CheckpointCoordinator::new(CheckpointConfig::new(dir, fp)).expect("open store");
        let half = steps / 2;
        {
            let mut rng = Rng::new(13);
            let mut model = models::mlp(&[6, 16, 3], &mut rng);
            let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
            opt.set_recorder(rec.clone());
            for step in 0..half {
                train_step(
                    comm,
                    &mut model,
                    &mut opt,
                    &shard,
                    compressor.as_ref(),
                    step,
                );
            }
            coord
                .save(comm, half as u64, &opt, &model, &[])
                .expect("coordinated save");
            // `model`, `opt`, and the rank RNG stream drop here.
        }
        // Different garbage init per rank: restore must overwrite all of it.
        let mut garbage = Rng::new(7000 + comm.rank() as u64);
        let mut model = models::mlp(&[6, 16, 3], &mut garbage);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
        opt.set_recorder(rec.clone());
        let restored = coord
            .restore(comm, &mut opt, &mut model)
            .expect("restore from snapshot");
        assert_eq!(restored.step, half as u64);
        for step in half..steps {
            train_step(
                comm,
                &mut model,
                &mut opt,
                &shard,
                compressor.as_ref(),
                step,
            );
        }
        params_of(&model)
    })
}

#[test]
fn resume_is_bit_identical_at_every_world_size_and_compressor() {
    // 8 steps resume inside a refresh period (`eigen_refresh` is 10);
    // 16 steps save at 8, so the resumed half crosses step 10's factor
    // sync + refresh and reads the restored running factors — including
    // the rank-local ones of layers a rank does not own.
    for steps in [8usize, 16] {
        for ranks in [1usize, 2, 4] {
            for quantized in [false, true] {
                let dir = temp_root(&format!("resume-{steps}-{ranks}-{quantized}"));
                let rec = Recorder::enabled();
                let direct = straight(ranks, steps, quantized);
                let rejoined = resumed(ranks, steps, quantized, &dir, &rec);
                for r in 0..ranks {
                    assert_eq!(
                        direct[r], rejoined[r],
                        "steps={steps} ranks={ranks} quantized={quantized} rank {r}: \
                         resumed trajectory diverged from the straight run"
                    );
                }
                // Counter reconciliation: one coordinated save per rank,
                // real bytes on disk, zero restore rungs (the snapshot was
                // clean) — and a clean checkpointing run stays "quiet" in
                // the report.
                let snap = rec.snapshot();
                assert_eq!(snap.counter(names::CKPT_SAVES), ranks as u64);
                assert!(snap.counter(names::CKPT_BYTES) > 0);
                assert!(snap.counter(names::CKPT_RAW_BYTES) > 0);
                assert_eq!(snap.counter(names::CKPT_RESTORE_RUNGS), 0);
                assert_eq!(snap.timers[names::CKPT_SAVE].count, ranks as u64);
                assert_eq!(snap.timers[names::CKPT_LOAD].count, ranks as u64);
                let counters = &snap.counters;
                assert!(
                    snap.is_quiet(),
                    "clean save/restore must stay quiet: {counters:?}"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

#[test]
fn restore_walks_past_torn_and_corrupt_snapshots_with_rung_accounting() {
    let ranks = 2;
    let steps = 8;
    let dir = temp_root("ladder");
    let fp = fingerprint(&["ckpt-ladder"]);
    let d = data::gaussian_blobs(240, 6, 3, 0.3, 55);

    // Take three snapshots (steps 2, 4, 6) with retain_last = 3.
    let d_ref = &d;
    let dir_ref = dir.as_path();
    run_ranks(ranks, move |comm| {
        let mut rng = Rng::new(13);
        let mut model = models::mlp(&[6, 16, 3], &mut rng);
        let shard = d_ref.shard(comm.rank(), ranks);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
        let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
        let coord = CheckpointCoordinator::new(CheckpointConfig {
            retain_last: 3,
            ..CheckpointConfig::new(dir_ref, fp)
        })
        .expect("open store");
        for step in 0..steps {
            train_step(comm, &mut model, &mut opt, &shard, &compso, step);
            let done = step + 1;
            if done % 2 == 0 && done < steps {
                coord
                    .save(comm, done as u64, &opt, &model, &[])
                    .expect("save");
            }
        }
    });

    // Sabotage newest-first: step 6 gets a flipped payload byte (CRC
    // catches it), step 4 loses its manifest (torn, as if the commit
    // rename never happened). Step 2 stays pristine.
    let newest = dir.join("step-000000000006").join("rank-0.bin");
    let mut bytes = std::fs::read(&newest).expect("read rank file");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).expect("rewrite rank file");
    std::fs::remove_file(dir.join("step-000000000004").join("MANIFEST")).expect("remove manifest");

    // A fresh group restores: it must land on step 2, burn exactly two
    // rungs per rank on the way down, and the report must notice.
    let rec = Recorder::enabled();
    let rec_ref = &rec;
    let dir_ref = dir.as_path();
    let restored_steps = run_ranks(ranks, move |comm| {
        let mut garbage = Rng::new(9000 + comm.rank() as u64);
        let mut model = models::mlp(&[6, 16, 3], &mut garbage);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
        opt.set_recorder(rec_ref.clone());
        let coord = CheckpointCoordinator::new(CheckpointConfig {
            retain_last: 3,
            ..CheckpointConfig::new(dir_ref, fp)
        })
        .expect("open store");
        let restored = coord
            .restore(comm, &mut opt, &mut model)
            .expect("older snapshot must restore");
        restored.step
    });
    assert!(restored_steps.iter().all(|&s| s == 2));
    let snap = rec.snapshot();
    assert_eq!(
        snap.counter(names::CKPT_RESTORE_RUNGS),
        2 * ranks as u64,
        "two sabotaged snapshots, each skipped once per rank"
    );
    let counters = &snap.counters;
    assert!(
        !snap.is_quiet(),
        "burned restore rungs must surface: {counters:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_campaign_restores_last_snapshot_and_matches_uninterrupted_run() {
    const RANKS: usize = 4;
    const STEPS: usize = 12;
    const SAVE_EVERY: usize = 4;
    const CRASH_STEP: u64 = 6;
    let dir = temp_root("crash");
    let fp = fingerprint(&["ckpt-crash", "ranks=4"]);
    let comm_config = CommConfig {
        recv_timeout: Duration::from_secs(30),
        retry_initial: Duration::from_millis(40),
        max_retries: 10,
        ..CommConfig::default()
    };

    // Uninterrupted reference trajectory.
    let reference = straight(RANKS, STEPS, true);

    // Doomed run: snapshots every SAVE_EVERY steps, rank 1 killed by the
    // fault plane at the top of step CRASH_STEP. The group must tear
    // down (harness re-panics naming the rank), not hang.
    let plane = FaultPlane::new(FaultConfig {
        seed: 0xDEAD,
        crash_at: Some((1, CRASH_STEP)),
        ..FaultConfig::default()
    });
    let ledger_plane = plane.clone();
    let doomed_rec = Recorder::enabled();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let d = data::gaussian_blobs(240, 6, 3, 0.3, 55);
        let d_ref = &d;
        let dir_ref = dir.as_path();
        let rec_ref = &doomed_rec;
        run_ranks_with(RANKS, plane, comm_config, move |comm| {
            let mut rng = Rng::new(13);
            let mut model = models::mlp(&[6, 16, 3], &mut rng);
            let shard = d_ref.shard(comm.rank(), RANKS);
            let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
            opt.set_recorder(rec_ref.clone());
            let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
            let coord =
                CheckpointCoordinator::new(CheckpointConfig::new(dir_ref, fp)).expect("open store");
            for step in 0..STEPS {
                let (x, y) = shard.batch(step, BATCH);
                let logits = model.forward(&x, true);
                let (_, grad) = softmax_cross_entropy(&logits, &y);
                model.backward(&grad);
                if opt.step(comm, &mut model, &compso).is_err() {
                    return; // survivor: group poisoned by the crash
                }
                model.update_params(|p, g| p.axpy(-0.02, g));
                let done = step + 1;
                if done % SAVE_EVERY == 0 && done < STEPS {
                    coord
                        .save(comm, done as u64, &opt, &model, &[])
                        .expect("save before crash");
                }
            }
        });
    }));
    let panic_msg = match outcome {
        Ok(_) => panic!("crash campaign completed without a panic"),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic>".into()),
    };
    assert!(
        panic_msg.contains("rank 1"),
        "panic names the rank: {panic_msg}"
    );
    assert_eq!(ledger_plane.ledger().crashes, 1);
    // Exactly one coordinated snapshot (step 4) landed before the crash.
    let doomed_snap = doomed_rec.snapshot();
    assert_eq!(doomed_snap.counter(names::CKPT_SAVES), RANKS as u64);
    assert!(doomed_snap.counter(names::CKPT_BYTES) > 0);

    // Recovery: a fresh group restores the snapshot and finishes the
    // run. It must land exactly on the uninterrupted trajectory.
    let rec = Recorder::enabled();
    let rec_ref = &rec;
    let d = data::gaussian_blobs(240, 6, 3, 0.3, 55);
    let d_ref = &d;
    let dir_ref = dir.as_path();
    let recovered = run_ranks(RANKS, move |comm| {
        let mut garbage = Rng::new(8000 + comm.rank() as u64);
        let mut model = models::mlp(&[6, 16, 3], &mut garbage);
        let shard = d_ref.shard(comm.rank(), RANKS);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
        opt.set_recorder(rec_ref.clone());
        let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
        let coord =
            CheckpointCoordinator::new(CheckpointConfig::new(dir_ref, fp)).expect("open store");
        let restored = coord
            .restore(comm, &mut opt, &mut model)
            .expect("restore after crash");
        assert_eq!(restored.step, SAVE_EVERY as u64);
        for step in restored.step as usize..STEPS {
            train_step(comm, &mut model, &mut opt, &shard, &compso, step);
        }
        params_of(&model)
    });
    for r in 0..RANKS {
        assert_eq!(
            reference[r], recovered[r],
            "rank {r}: post-crash recovery diverged from the uninterrupted run"
        );
    }
    // The snapshot was intact: recovery burned no restore rungs.
    let snap = rec.snapshot();
    assert_eq!(snap.counter(names::CKPT_RESTORE_RUNGS), 0);
    assert_eq!(snap.timers[names::CKPT_LOAD].count, RANKS as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restore an N-rank snapshot into an M-rank group: the striped factor
/// reshard must install the exact saved state (model params replicated,
/// every owner-sharded factor loaded exactly once group-wide) and the
/// result must be deterministic — two fresh M-rank processes restoring
/// the same snapshot and training on land bit-identically, which is the
/// elastic bit-identity yardstick (no N-rank reference trajectory
/// exists once the world size changed).
#[test]
fn cross_world_restore_reshards_and_stays_deterministic() {
    const SAVE_STEP: usize = 4;
    const EXTRA: usize = 4;
    for (n, m) in [(4usize, 2usize), (2, 4), (3, 1)] {
        let dir = temp_root(&format!("xworld-{n}-{m}"));
        // The fingerprint must be rank-free: the same training job, run
        // at any world size, shares one snapshot lineage.
        let fp = fingerprint(&["ckpt-xworld", "mlp-6-16-3"]);
        let d = data::gaussian_blobs(240, 6, 3, 0.3, 55);

        // Train SAVE_STEP steps at N ranks, coordinated save, and keep
        // the (replicated) parameters at save time as ground truth.
        let d_ref = &d;
        let dir_ref = dir.as_path();
        let saved = run_ranks(n, move |comm| {
            let mut rng = Rng::new(13);
            let mut model = models::mlp(&[6, 16, 3], &mut rng);
            let shard = d_ref.shard(comm.rank(), n);
            let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
            let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
            let coord =
                CheckpointCoordinator::new(CheckpointConfig::new(dir_ref, fp)).expect("open store");
            for step in 0..SAVE_STEP {
                train_step(comm, &mut model, &mut opt, &shard, &compso, step);
            }
            coord
                .save(comm, SAVE_STEP as u64, &opt, &model, &[])
                .expect("save at world size N");
            params_of(&model)
        });
        let saved_params = &saved[0];

        // One M-rank restore-and-continue run, repeatable.
        let resharded_run = |rec: &Recorder| {
            let d_ref = &d;
            let rec_ref = rec;
            run_ranks(m, move |comm| {
                let mut garbage = Rng::new(6000 + comm.rank() as u64);
                let mut model = models::mlp(&[6, 16, 3], &mut garbage);
                let shard = d_ref.shard(comm.rank(), m);
                let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
                opt.set_recorder(rec_ref.clone());
                let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
                let coord = CheckpointCoordinator::new(CheckpointConfig::new(dir_ref, fp))
                    .expect("open store");
                let restored = coord
                    .restore(comm, &mut opt, &mut model)
                    .expect("cross-world restore");
                assert_eq!(restored.step, SAVE_STEP as u64);
                // The resharded ownership map rebuilds at the next step.
                assert!(opt.owners().is_none(), "stale N-rank ownership survived");
                let installed = params_of(&model);
                let factors: Vec<Matrix> = (model.kfac_indices().iter())
                    .flat_map(|&idx| {
                        let (a, g) = opt.kfac().factors(idx).expect("restored factors");
                        [a.clone(), g.clone()]
                    })
                    .collect();
                for step in SAVE_STEP..SAVE_STEP + EXTRA {
                    train_step(comm, &mut model, &mut opt, &shard, &compso, step);
                }
                (installed, params_of(&model), factors)
            })
        };

        let rec = Recorder::enabled();
        let first = resharded_run(&rec);
        for (r, (installed, _, factors)) in first.iter().enumerate() {
            assert_eq!(
                installed, saved_params,
                "{n}->{m} rank {r}: restored parameters differ from the saved ones"
            );
            // The old world's rank-local factors are dropped: every rank
            // holds the owner's copy, so the factors are replicated.
            assert_eq!(
                factors, &first[0].2,
                "{n}->{m} rank {r}: cross-world restore left rank-local factors"
            );
        }
        // Counter reconciliation: every rank took the world-size path
        // exactly once, burned no rungs, and the report surfaces the
        // elastic restore (not quiet).
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter(names::CKPT_RESTORE_RUNGS_WORLD_SIZE),
            m as u64,
            "{n}->{m}: one world-size reshard per restoring rank"
        );
        assert_eq!(snap.counter(names::CKPT_RESTORE_RUNGS), 0);
        let counters = &snap.counters;
        assert!(
            !snap.is_quiet(),
            "elastic restore must surface: {counters:?}"
        );

        // Determinism pin: a second fresh group restoring the same
        // snapshot lands bit-identically, including the training
        // continuation (per-rank RNG streams and all).
        let second = resharded_run(&Recorder::enabled());
        for r in 0..m {
            assert_eq!(
                first[r].1, second[r].1,
                "{n}->{m} rank {r}: cross-world restore is not deterministic"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
