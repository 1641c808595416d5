//! Distributed K-FAC training with COMPSO-compressed communication.
//!
//! Spawns four in-process ranks, trains a classifier with KAISA-style
//! distributed K-FAC (Fig. 2 of the paper), and compares the wire
//! traffic of the preconditioned-gradient all-gather with and without
//! COMPSO.
//!
//! ```text
//! cargo run --release --example distributed_kfac
//! ```
//!
//! Checkpoint/resume: pass `--ckpt-dir <dir>` to take a coordinated
//! snapshot every [`SAVE_EVERY`] steps while training, and add
//! `--resume` to restore the newest snapshot from that directory and
//! continue from there instead of starting fresh. Resuming continues
//! the interrupted trajectory bit-identically:
//!
//! ```text
//! cargo run --release --example distributed_kfac -- --ckpt-dir /tmp/ckpt
//! # kill it mid-run, then:
//! cargo run --release --example distributed_kfac -- --ckpt-dir /tmp/ckpt --resume
//! ```

use compso::comm::{
    admit_pending, rejoin, run_ranks, run_ranks_elastic, CommConfig, FaultConfig, FaultPlane,
};
use compso::core::adaptive::BoundSchedule;
use compso::core::{ChunkedCompso, Compressor, NoCompression};
use compso::dnn::loss::{accuracy, softmax_cross_entropy};
use compso::dnn::{data, models};
use compso::kfac::checkpoint::{catch_up_rejoined, fingerprint};
use compso::kfac::{CheckpointConfig, CheckpointCoordinator, DistKfac, DistKfacConfig};
use compso::obs::{names, Recorder, Snapshot};
use compso::tensor::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const RANKS: usize = 4;
const STEPS: usize = 120;
/// Snapshot cadence for the `--ckpt-dir` mode.
const SAVE_EVERY: usize = 20;

fn train(compressed: bool) -> (f64, u64, u64) {
    let dataset = data::gaussian_blobs(640, 10, 4, 0.5, 99);
    let schedule = BoundSchedule::step_paper(STEPS / 2);
    let results = run_ranks(RANKS, |comm| {
        let mut rng = Rng::new(11); // same init on every rank
        let mut model = models::mlp(&[10, 48, 48, 4], &mut rng);
        let shard = dataset.shard(comm.rank(), RANKS);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 5);
        let mut original = 0u64;
        let mut wire = 0u64;
        for step in 0..STEPS {
            let (x, y) = shard.batch(step, 16);
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &y);
            model.backward(&grad);
            // Iteration-wise adaptive strategy (Alg. 1): aggressive
            // before the LR drop, conservative after.
            let stats = if compressed {
                let compso = ChunkedCompso::new(schedule.config_at(step));
                opt.step(comm, &mut model, &compso).expect("step")
            } else {
                opt.step(comm, &mut model, &NoCompression).expect("step")
            };
            original += stats.gather_bytes_original;
            wire += stats.gather_bytes_wire;
            model.update_params(|p, g| p.axpy(-0.01, g));
        }
        let logits = model.forward(&dataset.x, false);
        (accuracy(&logits, &dataset.y), original, wire)
    });
    let acc = results[0].0;
    let original: u64 = results.iter().map(|r| r.1).sum();
    let wire: u64 = results.iter().map(|r| r.2).sum();
    (acc, original, wire)
}

/// Compressed training with coordinated snapshots every [`SAVE_EVERY`]
/// steps. With `resume`, restores the newest snapshot under `dir` and
/// continues the interrupted trajectory bit-identically.
fn train_with_checkpoints(dir: &std::path::Path, resume: bool) -> f64 {
    let dataset = data::gaussian_blobs(640, 10, 4, 0.5, 99);
    let schedule = BoundSchedule::step_paper(STEPS / 2);
    let results = run_ranks(RANKS, |comm| {
        let mut rng = Rng::new(11); // same init on every rank
        let mut model = models::mlp(&[10, 48, 48, 4], &mut rng);
        let shard = dataset.shard(comm.rank(), RANKS);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 5);
        let coord = CheckpointCoordinator::new(CheckpointConfig::new(
            dir,
            fingerprint(&["distributed_kfac", "seed=5", "ranks=4", "compso"]),
        ))
        .expect("open checkpoint store");
        let mut start = 0usize;
        if resume {
            let restored = coord
                .restore(comm, &mut opt, &mut model)
                .expect("restore from snapshot");
            start = restored.step as usize;
            if comm.rank() == 0 {
                println!("resumed from snapshot at step {start}");
            }
        }
        for step in start..STEPS {
            let (x, y) = shard.batch(step, 16);
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &y);
            model.backward(&grad);
            let compso = ChunkedCompso::new(schedule.config_at(step));
            opt.step(comm, &mut model, &compso).expect("step");
            model.update_params(|p, g| p.axpy(-0.01, g));
            let done = step + 1;
            if done % SAVE_EVERY == 0 && done < STEPS {
                coord
                    .save(comm, done as u64, &opt, &model, &[])
                    .expect("coordinated save");
            }
        }
        let logits = model.forward(&dataset.x, false);
        accuracy(&logits, &dataset.y)
    });
    results[0]
}

/// Elastic-membership demo (ISSUE: elastic tentpole). Four ranks train
/// with compressed K-FAC and coordinated snapshots; a seeded fault
/// plane crashes rank 2 mid-run. The survivors detect the loss at the
/// step boundary, quorum-shrink to three ranks, reshard the K-FAC
/// aggregation groups, and keep training; the crashed rank comes back
/// with a fresh model, rejoins live at an epoch boundary, restores its
/// factors and parameters from its peers, and finishes in the group.
/// Returns `(elastic loss, reference loss)` plus the membership
/// counters; the caller compares the losses within tolerance (CI smoke).
fn train_elastic(dir: &std::path::Path) -> (f32, f32, Snapshot) {
    const ELASTIC_STEPS: u64 = 30;
    const SAVE_AT: u64 = 10;
    const CRASH_STEP: u64 = 15;
    let dataset = data::gaussian_blobs(640, 10, 4, 0.5, 99);
    let fp = fingerprint(&["distributed_kfac", "seed=5", "elastic"]);
    let plane = FaultPlane::new(FaultConfig {
        seed: 0xE1A5,
        crash_at: Some((2, CRASH_STEP)),
        ..FaultConfig::default()
    });
    let config = CommConfig {
        recv_timeout: Duration::from_secs(10),
        retry_initial: Duration::from_millis(40),
        max_retries: 10,
        ..CommConfig::default()
    };
    let rec = Recorder::enabled();
    // The scheduled crash is an ordinary panic on the doomed rank's
    // thread; keep the default hook for everything else so genuine
    // failures still print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));
    // The revived rank may ask to rejoin once the survivors completed
    // two steps on the shrunk view; the survivors then hold at the
    // admission sweep until it lands.
    let may_rejoin = AtomicBool::new(false);
    let may_rejoin_ref = &may_rejoin;
    let dataset_ref = &dataset;
    let rec_ref = &rec;
    let results = run_ranks_elastic(RANKS, plane, config, move |comm, revived| {
        let mut rng = Rng::new(11);
        let mut model = models::mlp(&[10, 48, 48, 4], &mut rng);
        let shard = dataset_ref.shard(comm.phys_rank(), RANKS);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 5);
        opt.set_recorder(rec_ref.clone());
        comm.set_recorder(rec_ref.clone());
        let compso = ChunkedCompso::default();
        let coord = CheckpointCoordinator::new(CheckpointConfig::new(dir, fp))
            .expect("open checkpoint store");
        if revived {
            while !may_rejoin_ref.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            println!("rank {}: revived, rejoining", comm.phys_rank());
            rejoin(comm).expect("rejoin after revival");
            catch_up_rejoined(comm, &mut opt, &mut model, comm.phys_rank())
                .expect("joiner catch-up");
            println!(
                "rank {}: rejoined at epoch {}, step {}",
                comm.phys_rank(),
                comm.epoch(),
                comm.current_step()
            );
        }
        let mut shrunk_done = 0u32;
        let mut loss = f32::NAN;
        while comm.current_step() < ELASTIC_STEPS {
            let missing: Vec<usize> = (0..RANKS)
                .filter(|r| !comm.live_ranks().contains(r))
                .collect();
            let admitted = if may_rejoin_ref.load(Ordering::Acquire) && comm.size() < RANKS {
                loop {
                    match admit_pending(comm).expect("admission sweep") {
                        Some(vc) => break Some(vc),
                        None => std::thread::sleep(Duration::from_millis(1)),
                    }
                }
            } else {
                admit_pending(comm).expect("admission sweep")
            };
            if admitted.is_some() {
                let joiner = *missing.first().expect("an admitted rank was missing");
                catch_up_rejoined(comm, &mut opt, &mut model, joiner).expect("member catch-up");
            }
            let step = comm.current_step() as usize;
            let (x, y) = shard.batch(step, 16);
            let logits = model.forward(&x, true);
            let (l, grad) = softmax_cross_entropy(&logits, &y);
            loss = l;
            model.backward(&grad);
            let before = comm.epoch();
            opt.step_elastic(comm, &mut model, &compso)
                .expect("elastic step must absorb the crash");
            if comm.epoch() != before && comm.phys_rank() == comm.live_ranks()[0] {
                println!(
                    "step {step}: view shrank to {:?} (epoch {}), resharded and continued",
                    comm.live_ranks(),
                    comm.epoch()
                );
            }
            model.update_params(|p, g| p.axpy(-0.01, g));
            if comm.size() < RANKS {
                shrunk_done += 1;
                if shrunk_done == 2 {
                    may_rejoin_ref.store(true, Ordering::Release);
                }
            }
            if comm.current_step() == SAVE_AT {
                coord
                    .save(comm, SAVE_AT, &opt, &model, &[])
                    .expect("coordinated save");
            }
        }
        loss
    });
    let _ = std::panic::take_hook();
    let elastic_loss = results[0].expect("rank 0 finishes the elastic run");
    for (r, slot) in results.iter().enumerate() {
        assert!(slot.is_some(), "rank {r} did not finish the elastic run");
    }

    // Fixed-membership reference over the same step budget.
    let reference = run_ranks(RANKS, |comm| {
        let mut rng = Rng::new(11);
        let mut model = models::mlp(&[10, 48, 48, 4], &mut rng);
        let shard = dataset_ref.shard(comm.rank(), RANKS);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 5);
        let compso = ChunkedCompso::default();
        let mut loss = f32::NAN;
        for step in 0..ELASTIC_STEPS as usize {
            let (x, y) = shard.batch(step, 16);
            let logits = model.forward(&x, true);
            let (l, grad) = softmax_cross_entropy(&logits, &y);
            loss = l;
            model.backward(&grad);
            opt.step(comm, &mut model, &compso).expect("reference step");
            model.update_params(|p, g| p.axpy(-0.01, g));
        }
        loss
    });
    (elastic_loss, reference[0], rec.snapshot())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ckpt_dir = args
        .iter()
        .position(|a| a == "--ckpt-dir")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let resume = args.iter().any(|a| a == "--resume");
    if args.iter().any(|a| a == "--elastic") {
        let dir = ckpt_dir.map(std::path::PathBuf::from).unwrap_or_else(|| {
            std::env::temp_dir().join(format!("compso-elastic-{}", std::process::id()))
        });
        let _ = std::fs::remove_dir_all(&dir);
        println!("elastic 4-rank run: rank 2 crashes mid-run, rejoins live...\n");
        let (elastic, reference, snap) = train_elastic(&dir);
        let (shrinks, rejoins) = (
            snap.counter(names::COMM_MEMBERSHIP_SHRINKS),
            snap.counter(names::COMM_MEMBERSHIP_REJOINS),
        );
        println!(
            "\nmembership: {} epochs ({shrinks} shrinks, {rejoins} rejoins), {} ownership reshards",
            snap.counter(names::COMM_MEMBERSHIP_EPOCHS),
            snap.counter(names::KFAC_ELASTIC_RESHARDS)
        );
        println!("final loss: elastic {elastic:.4} vs fixed-membership {reference:.4}");
        let _ = std::fs::remove_dir_all(&dir);
        // CI smoke contract: the elastic trajectory loses one abandoned
        // step and runs two on the shrunk view (the joiner restores the
        // group's live state from its peers, not an older snapshot) — it
        // must still land within tolerance of the reference.
        let gap = (elastic - reference).abs();
        if !(shrinks > 0 && rejoins > 0) {
            eprintln!("elastic run recorded no membership churn");
            std::process::exit(1);
        }
        if !(gap < 0.25 && elastic.is_finite()) {
            eprintln!("elastic loss strayed from the reference: gap {gap:.4}");
            std::process::exit(1);
        }
        println!("within tolerance (gap {gap:.4})");
        return;
    }
    if let Some(dir) = ckpt_dir {
        let mode = if resume { "resuming" } else { "fresh run" };
        println!("checkpointed 4-rank distributed K-FAC ({mode}, dir {dir})...\n");
        let acc = train_with_checkpoints(std::path::Path::new(&dir), resume);
        println!("final accuracy: {acc:.3}");
        return;
    } else if resume {
        eprintln!("--resume requires --ckpt-dir <dir>");
        std::process::exit(2);
    }

    println!("training a 4-rank distributed K-FAC classifier...\n");
    let (acc_plain, orig_plain, wire_plain) = train(false);
    let (acc_compso, orig_compso, wire_compso) = train(true);

    println!("                     accuracy   gather bytes (orig -> wire)");
    println!("no compression:        {acc_plain:.3}     {orig_plain} -> {wire_plain}");
    println!("COMPSO (adaptive):     {acc_compso:.3}     {orig_compso} -> {wire_compso}");
    println!(
        "\nall-gather wire reduction: {:.1}x, accuracy delta: {:+.3}",
        wire_plain as f64 / wire_compso as f64,
        acc_compso - acc_plain
    );
    // Also show the name so readers see where to plug their own method.
    let c = ChunkedCompso::default();
    println!("compressor under test: {}", c.name());
}
