//! Chaos suite: seeded fault campaigns against full 4-rank distributed
//! K-FAC training (ISSUE PR 3, tentpole acceptance).
//!
//! Every campaign is deterministic in its [`FaultConfig`] seed, so a
//! failure here reproduces exactly. The assertions reconcile three
//! independent books:
//!
//! 1. the fault plane's **injection ledger** (ground truth: what was
//!    actually dropped / flipped / delayed / crashed),
//! 2. the **observability counters** (what the ARQ and the degradation
//!    ladder *noticed* and *did* about it), and
//! 3. the **training outcome** (all steps complete, loss within
//!    tolerance of the fault-free run, replicas consistent where the
//!    ladder guarantees consistency).

use compso::comm::{
    admit_pending, rejoin, run_ranks, run_ranks_elastic, run_ranks_with, CommConfig, CommError,
    FaultConfig, FaultPlane,
};
use compso::core::{ChunkedCompso, CompsoConfig};
use compso::dnn::loss::softmax_cross_entropy;
use compso::dnn::{data, models};
use compso::kfac::checkpoint::{catch_up_rejoined, fingerprint};
use compso::kfac::{CheckpointConfig, CheckpointCoordinator, DistKfac, DistKfacConfig};
use compso::obs::{names, Recorder};
use compso::tensor::{Matrix, Rng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

const RANKS: usize = 4;
const STEPS: usize = 12;
const BATCH: usize = 8;

/// A short chaos-friendly transport config: generous enough that real
/// recoveries finish, tight enough that a genuine hang fails the test
/// instead of stalling CI.
fn chaos_comm_config() -> CommConfig {
    CommConfig {
        recv_timeout: Duration::from_secs(30),
        retry_initial: Duration::from_millis(40),
        max_retries: 10,
        ..CommConfig::default()
    }
}

/// Runs `STEPS` of 4-rank compressed distributed K-FAC training under
/// `plane`, returning per-rank `(final loss, layer-0 params)`.
fn train(plane: FaultPlane, rec: &Recorder) -> Vec<(f32, Matrix)> {
    train_on(plane, chaos_comm_config(), rec)
}

/// [`train`] over the transport `config`.
fn train_on(plane: FaultPlane, config: CommConfig, rec: &Recorder) -> Vec<(f32, Matrix)> {
    let d = data::gaussian_blobs(320, 6, 3, 0.3, 91);
    let d_ref = &d;
    run_ranks_with(RANKS, plane, config, move |comm| {
        let mut rng = Rng::new(17);
        let mut model = models::mlp(&[6, 16, 3], &mut rng);
        let shard = d_ref.shard(comm.rank(), RANKS);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
        opt.set_recorder(rec.clone());
        comm.set_recorder(rec.clone());
        let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
        let mut loss = f32::NAN;
        for step in 0..STEPS {
            let (x, y) = shard.batch(step, BATCH);
            let logits = model.forward(&x, true);
            let (l, grad) = softmax_cross_entropy(&logits, &y);
            loss = l;
            model.backward(&grad);
            opt.step(comm, &mut model, &compso)
                .expect("chaos campaign must be absorbed, not surfaced");
            model.update_params(|p, g| p.axpy(-0.02, g));
        }
        (loss, model.layer(0).params().unwrap().clone())
    })
}

/// Fault-free reference trajectory.
fn baseline() -> Vec<(f32, Matrix)> {
    train(FaultPlane::disabled(), &Recorder::disabled())
}

#[test]
fn chaos_campaign_converges_with_exact_fault_accounting() {
    // The headline campaign: 2% transport drops, 2% in-flight bit flips,
    // 30% per-(rank, step) origin payload corruption, one straggler —
    // training must complete every step, repairs must all succeed at
    // rung 1 (repair traffic is pristine), and every book must balance.
    let plane = FaultPlane::new(FaultConfig {
        seed: 0xC0FFEE,
        drop_p: 0.02,
        corrupt_wire_p: 0.02,
        corrupt_payload_p: 0.30,
        straggler: Some((2, Duration::from_millis(1))),
        ..FaultConfig::default()
    });
    let ledger_plane = plane.clone();
    let rec = Recorder::enabled();
    let chaos = train(plane, &rec);
    let clean = baseline();

    // Training outcome: all ranks finished all steps; every successful
    // rung-1 repair reinstalls the origin's exact bytes, so the faulted
    // trajectory is not merely "within 5%" — it is the fault-free one.
    for r in 0..RANKS {
        let rel = (chaos[r].0 - clean[r].0).abs() / clean[r].0.abs().max(1e-6);
        assert!(rel < 0.05, "rank {r} loss drifted {rel} under chaos");
        assert_eq!(
            chaos[r].1, clean[r].1,
            "rank {r}: rung-1 repairs must restore the exact trajectory"
        );
    }
    for r in 1..RANKS {
        assert_eq!(chaos[0].1, chaos[r].1, "rank {r} replica diverged");
    }

    // Book-keeping: ledger vs counters, exactly.
    let ledger = ledger_plane.ledger();
    let snap = rec.snapshot();
    assert!(ledger.dropped > 0, "campaign injected no drops");
    assert!(ledger.corrupted_wire > 0, "campaign flipped no wire bits");
    assert!(
        ledger.corrupted_payload > 0,
        "campaign corrupted no payloads"
    );
    assert!(ledger.delayed > 0, "straggler never delayed a send");
    // Every in-flight flip was caught by the envelope CRC exactly once.
    assert_eq!(
        snap.counter(names::COMM_FAULT_CRC_DETECTED),
        ledger.corrupted_wire
    );
    // Every drop and every wire flip was recovered by a retransmission.
    // Under multi-rank cascade stalls a timer NACK can race a message
    // that was just (re)sent and trigger a benign duplicate resend —
    // duplicates are de-duplicated by sequence number at the receiver —
    // so the resend count is bounded below by the injected losses and
    // above by the NACKs that could have asked for one.
    let resends = snap.counter(names::COMM_RETRY_RESENDS);
    assert!(
        resends >= ledger.dropped + ledger.corrupted_wire,
        "resends {resends} < injected losses {}",
        ledger.dropped + ledger.corrupted_wire
    );
    assert!(
        resends <= snap.counter(names::COMM_RETRY_NACKS_SENT),
        "more resends than NACKs"
    );
    // Each origin-corrupted payload failed on every *other* rank (the
    // origin decodes its clean copy), each failure filed one repair
    // request, and every repair succeeded on the first resend.
    let expected_failures = ledger.corrupted_payload * (RANKS as u64 - 1);
    assert_eq!(
        snap.counter(names::KFAC_DEGRADE_CHECKSUM_FAILURES),
        expected_failures
    );
    assert_eq!(
        snap.counter(names::KFAC_DEGRADE_REPAIR_REQUESTS),
        expected_failures
    );
    assert_eq!(
        snap.counter(names::KFAC_DEGRADE_REPAIR_OK),
        expected_failures
    );
    assert_eq!(snap.counter(names::KFAC_DEGRADE_FALLBACK_LAST_GOOD), 0);
    assert_eq!(snap.counter(names::KFAC_DEGRADE_FALLBACK_SGD), 0);
    assert_eq!(ledger.corrupted_repair, 0);
    assert_eq!(ledger.crashes, 0);
    assert_eq!(snap.degraded_installs(), 0);
    assert!(!snap.is_quiet());
}

#[test]
fn ladder_rung_two_absorbs_corrupted_compressed_resends() {
    // corrupt_repair_rungs = 1: every rung-1 resend is bit-flipped, so
    // every repair must fall through to rung 2 — which resends the
    // origin's clean frames again, and they decode on every rank to what
    // the origin installed, so the trajectory still matches fault-free
    // exactly.
    let plane = FaultPlane::new(FaultConfig {
        seed: 0xBEEF,
        corrupt_payload_p: 0.30,
        corrupt_repair_rungs: 1,
        ..FaultConfig::default()
    });
    let ledger_plane = plane.clone();
    let rec = Recorder::enabled();
    let chaos = train(plane, &rec);
    let clean = baseline();
    for r in 0..RANKS {
        assert_eq!(
            chaos[r].1, clean[r].1,
            "rank {r}: rung-2 repairs must restore the exact trajectory"
        );
    }

    let ledger = ledger_plane.ledger();
    let snap = rec.snapshot();
    let failures = ledger.corrupted_payload * (RANKS as u64 - 1);
    assert!(failures > 0, "campaign never fired");
    assert_eq!(snap.counter(names::KFAC_DEGRADE_REPAIR_REQUESTS), failures);
    // Every first resend was corrupted (one injection per repair), and
    // every second one repaired.
    assert_eq!(ledger.corrupted_repair, failures);
    assert_eq!(snap.counter(names::KFAC_DEGRADE_REPAIR_OK), failures);
    assert_eq!(snap.counter(names::KFAC_DEGRADE_FALLBACK_LAST_GOOD), 0);
    assert_eq!(snap.counter(names::KFAC_DEGRADE_FALLBACK_SGD), 0);
}

/// One 2-rank step under `plane`: per rank, the bits of every installed
/// gradient, the bytes of the clean frames it gathered and its
/// `sent_bytes`.
fn one_two_rank_step(plane: FaultPlane, rec: &Recorder) -> Vec<(Vec<Vec<u32>>, u64, u64)> {
    let d = data::gaussian_blobs(64, 6, 3, 0.3, 91);
    let d_ref = &d;
    run_ranks_with(2, plane, chaos_comm_config(), move |comm| {
        let mut rng = Rng::new(17);
        let mut model = models::mlp(&[6, 16, 3], &mut rng);
        let (x, y) = d_ref.shard(comm.rank(), 2).batch(0, BATCH);
        let logits = model.forward(&x, true);
        let (_, grad) = softmax_cross_entropy(&logits, &y);
        model.backward(&grad);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
        opt.set_recorder(rec.clone());
        let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
        let stats = opt.step(comm, &mut model, &compso).unwrap();
        let grads = (model.trainable_indices().into_iter())
            .map(|idx| {
                let grad = model.layer(idx).grads().unwrap().as_slice();
                grad.iter().map(|v| v.to_bits()).collect()
            })
            .collect();
        (grads, stats.gather_bytes_wire, comm.sent_bytes())
    })
}

#[test]
fn ladder_rung_two_resends_the_clean_frames_and_a_one_byte_ack() {
    // Every gather payload is corrupted at its origin, so each of the two
    // ranks repairs the other's. With `corrupt_repair_rungs: 1` the first
    // resend is corrupted too and rung 2 runs: its whole cost over a
    // rung-1 repair is one more copy of the origin's clean frames and one
    // more one-byte ack.
    let plane = |rungs: u8| {
        FaultPlane::new(FaultConfig {
            seed: 0xF00D,
            corrupt_payload_p: 1.0,
            corrupt_repair_rungs: rungs,
            ..FaultConfig::default()
        })
    };
    let clean = one_two_rank_step(FaultPlane::disabled(), &Recorder::disabled());
    let [rung1, rung2] = [0u8, 1].map(|rungs| {
        let (faulted, rec) = (plane(rungs), Recorder::enabled());
        let ranks = one_two_rank_step(faulted.clone(), &rec);
        let ledger = faulted.ledger();
        assert_eq!(ledger.corrupted_payload, 2, "rungs {rungs}");
        assert_eq!(ledger.corrupted_repair, 2 * u64::from(rungs));
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter(names::KFAC_DEGRADE_REPAIR_OK),
            2,
            "rungs {rungs}"
        );
        assert_eq!(snap.degraded_installs(), 0, "rungs {rungs}");
        for r in 0..2 {
            assert_eq!(ranks[r].0, clean[r].0, "rank {r}, rungs {rungs}: installs");
        }
        ranks
    });
    for r in 0..2 {
        let frames = rung1[r].1;
        assert_eq!(rung2[r].1, frames, "rank {r}");
        assert_eq!(
            rung2[r].2 - rung1[r].2,
            frames + 1,
            "rank {r}: rung 2's bytes"
        );
    }
}

#[test]
fn ladder_bottom_rung_degrades_locally_and_training_survives() {
    // corrupt_repair_rungs = 2: both resends are bit-flipped, so every
    // repair fails and the affected ranks degrade locally (last-good
    // preconditioned gradient, or a plain-SGD step before one exists).
    // Training must still complete every step with a finite, sane loss.
    let plane = FaultPlane::new(FaultConfig {
        seed: 0xDEAD_0001,
        corrupt_payload_p: 0.25,
        corrupt_repair_rungs: 2,
        ..FaultConfig::default()
    });
    let ledger_plane = plane.clone();
    let rec = Recorder::enabled();
    let chaos = train(plane, &rec);
    let clean = baseline();
    for r in 0..RANKS {
        assert!(chaos[r].0.is_finite(), "rank {r} loss diverged");
        // Degraded steps lose some preconditioning but not the descent
        // direction: the final loss stays in the fault-free ballpark.
        let rel = (chaos[r].0 - clean[r].0).abs() / clean[r].0.abs().max(1e-6);
        assert!(
            rel < 0.5,
            "rank {r} loss {} vs clean {}",
            chaos[r].0,
            clean[r].0
        );
    }

    let ledger = ledger_plane.ledger();
    let snap = rec.snapshot();
    let failures = ledger.corrupted_payload * (RANKS as u64 - 1);
    assert!(failures > 0, "campaign never fired");
    assert_eq!(snap.counter(names::KFAC_DEGRADE_REPAIR_REQUESTS), failures);
    // Both rungs corrupted per repair: two injections each, no repair
    // successes, and every failure landed on a rung-3 fallback.
    assert_eq!(ledger.corrupted_repair, 2 * failures);
    assert_eq!(snap.counter(names::KFAC_DEGRADE_REPAIR_OK), 0);
    let fallbacks = snap.counter(names::KFAC_DEGRADE_FALLBACK_LAST_GOOD)
        + snap.counter(names::KFAC_DEGRADE_FALLBACK_SGD);
    assert!(
        fallbacks > 0,
        "no rung-3 fallback despite unrepaired payloads"
    );
    assert_eq!(snap.degraded_installs(), failures);
}

#[test]
fn scheduled_crash_poisons_the_group_and_names_the_rank() {
    // Rank 2 crashes at the top of step 3. Survivors must not hang:
    // their next collective surfaces a CommError naming the dead rank,
    // and the harness re-raises the crash with the rank id.
    let plane = FaultPlane::new(FaultConfig {
        seed: 5,
        crash_at: Some((2, 3)),
        ..FaultConfig::default()
    });
    let ledger_plane = plane.clone();
    let survivor_errors: Mutex<Vec<(usize, CommError)>> = Mutex::new(Vec::new());
    let errs_ref = &survivor_errors;
    let outcome = std::panic::catch_unwind(|| {
        let d = data::gaussian_blobs(320, 6, 3, 0.3, 91);
        let d_ref = &d;
        run_ranks_with(RANKS, plane, chaos_comm_config(), move |comm| {
            let mut rng = Rng::new(17);
            let mut model = models::mlp(&[6, 16, 3], &mut rng);
            let shard = d_ref.shard(comm.rank(), RANKS);
            let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
            let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
            for step in 0..STEPS {
                let (x, y) = shard.batch(step, BATCH);
                let logits = model.forward(&x, true);
                let (_, grad) = softmax_cross_entropy(&logits, &y);
                model.backward(&grad);
                if let Err(e) = opt.step(comm, &mut model, &compso) {
                    errs_ref.lock().unwrap().push((comm.rank(), e));
                    return;
                }
                model.update_params(|p, g| p.axpy(-0.02, g));
            }
        });
    });
    // The harness re-panics with the crashed rank's id.
    let panic_msg = match outcome {
        Ok(_) => panic!("crash campaign completed without a panic"),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic>".into()),
    };
    assert!(
        panic_msg.contains("rank 2"),
        "panic must name the crashed rank: {panic_msg}"
    );
    assert_eq!(ledger_plane.ledger().crashes, 1);
    // Every survivor got a deadline-bounded error naming rank 2 — not a
    // hang, not an anonymous failure.
    let errs = survivor_errors.into_inner().unwrap();
    assert_eq!(errs.len(), RANKS - 1, "all survivors must surface an error");
    for (rank, e) in &errs {
        match e {
            CommError::Poisoned { rank: dead }
            | CommError::Timeout { rank: dead, .. }
            | CommError::Disconnected { rank: dead } => {
                assert_eq!(*dead, 2, "rank {rank} blamed rank {dead}: {e:?}");
            }
            other => panic!("rank {rank}: unexpected error {other:?}"),
        }
    }
}

/// The elastic tentpole campaign: rank 2 is SIGKILL-analog crashed at
/// the top of step 5 of a 10-step seeded 4-rank run. The survivors must
/// detect the loss at the step boundary, quorum-shrink to 3 ranks,
/// reshard ownership, and keep training; the revived rank comes back
/// with a fresh model, rejoins live at an epoch boundary, restores its
/// factors and parameters from its peers, and finishes the run in the
/// group. Exact epoch/shrink/rejoin/reshard counters and replica
/// equality across all four final ranks are pinned.
#[test]
fn elastic_campaign_shrinks_reshards_and_readmits_the_crashed_rank() {
    const STEPS: u64 = 10;
    const SAVE_AT: u64 = 4;
    const CRASH_STEP: u64 = 5;
    let dir = std::env::temp_dir().join(format!(
        "compso-chaos-elastic-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // Rank-free fingerprint: the rejoining rank restores the snapshot
    // the full group wrote.
    let fp = fingerprint(&["chaos-elastic", "mlp-6-16-3"]);
    let plane = FaultPlane::new(FaultConfig {
        seed: 0xE1A5,
        crash_at: Some((2, CRASH_STEP)),
        ..FaultConfig::default()
    });
    let ledger_plane = plane.clone();
    let rec = Recorder::enabled();
    let config = CommConfig {
        recv_timeout: Duration::from_secs(10),
        retry_initial: Duration::from_millis(40),
        max_retries: 10,
        ..CommConfig::default()
    };
    // Deterministic elastic schedule, as in the membership suite: the
    // revived rank may ask to rejoin only after the survivors completed
    // two steps on the shrunk view; the survivors then hold at the
    // admission sweep until it lands.
    let may_rejoin = AtomicBool::new(false);
    let may_rejoin_ref = &may_rejoin;
    let d = data::gaussian_blobs(320, 6, 3, 0.3, 91);
    let d_ref = &d;
    let dir_ref = dir.as_path();
    let rec_ref = &rec;
    let results = run_ranks_elastic(RANKS, plane, config, move |comm, revived| {
        let mut rng = Rng::new(17);
        let mut model = models::mlp(&[6, 16, 3], &mut rng);
        let shard = d_ref.shard(comm.phys_rank(), RANKS);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
        opt.set_recorder(rec_ref.clone());
        comm.set_recorder(rec_ref.clone());
        let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
        let coord =
            CheckpointCoordinator::new(CheckpointConfig::new(dir_ref, fp)).expect("open store");
        if revived {
            while !may_rejoin_ref.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            // Live readmission, then factor/parameter catch-up from the
            // members.
            rejoin(comm).expect("rejoin after revival");
            catch_up_rejoined(comm, &mut opt, &mut model, comm.phys_rank())
                .expect("joiner catch-up");
        }
        let mut shrunk_done = 0u32;
        let mut loss = f32::NAN;
        while comm.current_step() < STEPS {
            // Admission sweep at the step boundary. Once the joiner is
            // released, the shrunk members hold here until it lands (the
            // sweep is a broadcast round, so members stay SPMD).
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
            let (x, y) = shard.batch(step, BATCH);
            let logits = model.forward(&x, true);
            let (l, grad) = softmax_cross_entropy(&logits, &y);
            loss = l;
            model.backward(&grad);
            // Rank 2 panics inside begin_step at CRASH_STEP; survivors'
            // collectives surface the culprit and step_elastic shrinks,
            // resyncs, and retries. The interrupted step is abandoned
            // uniformly on every survivor.
            opt.step_elastic(comm, &mut model, &compso)
                .expect("elastic step must absorb the crash");
            model.update_params(|p, g| p.axpy(-0.02, g));
            if comm.size() < RANKS {
                shrunk_done += 1;
                if shrunk_done == 2 {
                    may_rejoin_ref.store(true, Ordering::Release);
                }
            }
            if comm.current_step() == SAVE_AT {
                coord
                    .save(comm, SAVE_AT, &opt, &model, &[])
                    .expect("coordinated save before the crash");
            }
        }
        (
            comm.epoch(),
            comm.live_ranks().to_vec(),
            loss,
            model.layer(0).params().unwrap().clone(),
        )
    });

    // Every rank — including the crashed-and-revived one — finished.
    let finished: Vec<_> = results
        .iter()
        .enumerate()
        .map(|(r, slot)| slot.as_ref().unwrap_or_else(|| panic!("rank {r} died")))
        .collect();
    for (r, (epoch, live, loss, _)) in finished.iter().enumerate() {
        assert_eq!(*epoch, 2, "rank {r}: one shrink + one rejoin = epoch 2");
        assert_eq!(*live, vec![0, 1, 2, 3], "rank {r}: view whole again");
        assert!(loss.is_finite(), "rank {r}: loss diverged");
    }
    // Replica consistency across the elastic membership churn: the
    // catch-up broadcast and the gathered updates keep all four ranks
    // bit-identical at the end.
    for r in 1..RANKS {
        assert_eq!(
            finished[0].3, finished[r].3,
            "rank {r} replica diverged across shrink/rejoin"
        );
    }
    // Final loss stays near the fixed-membership 10-step reference: two
    // steps ran shrunk and one step was abandoned (the joiner itself
    // resumes from its peers' live state), so the trajectories genuinely
    // differ — the pin is an absolute gap, not bit-identity.
    let clean = run_ranks(RANKS, move |comm| {
        let mut rng = Rng::new(17);
        let mut model = models::mlp(&[6, 16, 3], &mut rng);
        let shard = d_ref.shard(comm.rank(), RANKS);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
        let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
        let mut loss = f32::NAN;
        for step in 0..STEPS as usize {
            let (x, y) = shard.batch(step, BATCH);
            let logits = model.forward(&x, true);
            let (l, grad) = softmax_cross_entropy(&logits, &y);
            loss = l;
            model.backward(&grad);
            opt.step(comm, &mut model, &compso).unwrap();
            model.update_params(|p, g| p.axpy(-0.02, g));
        }
        loss
    });
    for (r, (_, _, loss, _)) in finished.iter().enumerate() {
        let gap = (loss - clean[r]).abs();
        assert!(
            gap < 0.25,
            "rank {r} loss {loss} strayed from the fixed-membership reference {}",
            clean[r]
        );
    }

    // Book-keeping: the injection ledger and the membership counters
    // reconcile exactly. One crash; three survivors each commit one
    // shrink; three members plus the joiner each commit one rejoin.
    assert_eq!(ledger_plane.ledger().crashes, 1);
    let snap = rec.snapshot();
    assert_eq!(snap.counter(names::COMM_MEMBERSHIP_SHRINKS), 3);
    assert_eq!(snap.counter(names::COMM_MEMBERSHIP_REJOINS), 4);
    assert_eq!(snap.counter(names::COMM_MEMBERSHIP_EPOCHS), 7);
    // Survivors reshard twice (after the shrink and after the rejoin);
    // the joiner rebuilds from scratch, which is not a reshard.
    assert_eq!(snap.counter(names::KFAC_ELASTIC_RESHARDS), 6);
    assert_eq!(snap.counter(names::CKPT_SAVES), RANKS as u64);
    assert!(!snap.is_quiet());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disabled_plane_is_bit_identical_and_quiet() {
    // Arming the machinery with a disabled plane must cost nothing
    // semantically: the plain run_ranks path and the run_ranks_with
    // (disabled) path produce identical parameters, and every counter
    // on the quiet list stays zero.
    let rec = Recorder::enabled();
    let with_plane = train(FaultPlane::disabled(), &rec);
    let d = data::gaussian_blobs(320, 6, 3, 0.3, 91);
    let d_ref = &d;
    let plain = run_ranks(RANKS, move |comm| {
        let mut rng = Rng::new(17);
        let mut model = models::mlp(&[6, 16, 3], &mut rng);
        let shard = d_ref.shard(comm.rank(), RANKS);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
        let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
        let mut loss = f32::NAN;
        for step in 0..STEPS {
            let (x, y) = shard.batch(step, BATCH);
            let logits = model.forward(&x, true);
            let (l, grad) = softmax_cross_entropy(&logits, &y);
            loss = l;
            model.backward(&grad);
            opt.step(comm, &mut model, &compso).unwrap();
            model.update_params(|p, g| p.axpy(-0.02, g));
        }
        (loss, model.layer(0).params().unwrap().clone())
    });
    for r in 0..RANKS {
        assert_eq!(with_plane[r].1, plain[r].1, "rank {r} params differ");
        assert_eq!(with_plane[r].0, plain[r].0, "rank {r} loss differs");
    }
    let snap = rec.snapshot();
    assert!(
        snap.is_quiet(),
        "fault-free run recorded resilience activity: {:?}",
        snap.counters
    );
}

#[test]
fn pipelined_gather_absorbs_drops_and_stragglers_mid_stream() {
    // Faults landing *mid-pipeline*: the step-5 gather streams groups
    // through the ring in stages, so a dropped or delayed hop stalls
    // one stage while compression of the next group keeps running, and
    // the ARQ retransmit has to slot back into the stream. Run the
    // campaign over a modeled wire so retransmissions also pay (and
    // re-stamp) the bandwidth-delay, then reconcile all three books.
    let plane = FaultPlane::new(FaultConfig {
        seed: 0x9192_6525,
        drop_p: 0.04,
        straggler: Some((3, Duration::from_millis(1))),
        ..FaultConfig::default()
    });
    let ledger_plane = plane.clone();
    let rec = Recorder::enabled();
    let config = CommConfig {
        modeled_wire_mbps: Some(200.0),
        ..chaos_comm_config()
    };
    let chaos = train_on(plane, config.clone(), &rec);
    // The fault-free run on the same priced wire, whose reduce carries
    // the same last-hop codec.
    let clean = train_on(FaultPlane::disabled(), config, &Recorder::disabled());

    // Transport-level faults are invisible above the ARQ: the pipelined
    // trajectory is bit-identical to fault-free on every rank.
    for r in 0..RANKS {
        assert_eq!(chaos[r].1, clean[r].1, "rank {r} params differ");
        assert_eq!(chaos[r].0, clean[r].0, "rank {r} loss differs");
    }

    let ledger = ledger_plane.ledger();
    let snap = rec.snapshot();
    assert!(ledger.dropped > 0, "campaign injected no drops");
    assert!(ledger.delayed > 0, "straggler never delayed a send");
    assert_eq!(ledger.corrupted_wire, 0);
    assert_eq!(ledger.corrupted_payload, 0);
    // Every drop was recovered by a NACK-triggered resend (plus benign
    // duplicates, bounded by the NACKs that could have requested one).
    let resends = snap.counter(names::COMM_RETRY_RESENDS);
    assert!(
        resends >= ledger.dropped,
        "resends {resends} < injected drops {}",
        ledger.dropped
    );
    assert!(
        resends <= snap.counter(names::COMM_RETRY_NACKS_SENT),
        "more resends than NACKs"
    );
    // The faults landed inside the pipelined gather: one pipelined span
    // per rank per step, stages and produce/wait timers all live.
    let calls = (RANKS * STEPS) as u64;
    assert_eq!(snap.counter(names::COMM_PIPELINED_ALLGATHER_CALLS), calls);
    assert!(snap.counter(names::COMM_PIPELINE_STAGES) >= calls);
    assert!(snap.timers[names::COMM_PIPELINE_PRODUCE].count > 0);
    assert!(snap.timers[names::COMM_PIPELINE_WAIT].count > 0);
    // No payload corruption was injected, so the degradation ladder
    // stayed idle: transport recovery alone absorbed the campaign.
    assert_eq!(snap.counter(names::KFAC_DEGRADE_CHECKSUM_FAILURES), 0);
    assert_eq!(snap.degraded_installs(), 0);
    assert_eq!(snap.counter(names::KFAC_DEGRADE_REPAIR_REQUESTS), 0);
}

#[test]
fn straggler_only_campaign_is_slow_but_exact() {
    // A lone straggler exercises the deadline plumbing without any data
    // faults: the result must be bit-identical to fault-free and the
    // ledger must show only delays.
    let plane = FaultPlane::new(FaultConfig {
        seed: 31,
        straggler: Some((1, Duration::from_millis(2))),
        ..FaultConfig::default()
    });
    let ledger_plane = plane.clone();
    let rec = Recorder::enabled();
    let slow = train(plane, &rec);
    let clean = baseline();
    for r in 0..RANKS {
        assert_eq!(slow[r].1, clean[r].1, "rank {r} params differ");
    }
    let ledger = ledger_plane.ledger();
    assert!(ledger.delayed > 0);
    assert_eq!(ledger.dropped, 0);
    assert_eq!(ledger.corrupted_wire, 0);
    assert_eq!(ledger.corrupted_payload, 0);
    assert_eq!(
        rec.snapshot().counter(names::KFAC_DEGRADE_REPAIR_REQUESTS),
        0
    );
}
