//! Adaptive-controller integration suite (ISSUE: compso-ctrl tentpole).
//!
//! Three contracts cross crate boundaries and are pinned here rather
//! than in unit tests:
//!
//! 1. **Decision determinism across world sizes** — a controller is a
//!    pure function of `(config, seed, signal sequence)`, so every rank
//!    of a 1/2/4-rank world feeding identical signals must produce the
//!    identical decision trace. This is what lets each rank run its own
//!    controller instance without a consensus round: agreement is by
//!    construction, not by communication.
//! 2. **PowerSGD bit-identity across world sizes** — the keyed group
//!    path ties warm-start/error-feedback state to *global layer
//!    indices*, and the encoder never consumes shared RNG, so the same
//!    replicated workload trains to bit-identical parameters whether the
//!    layers' compression work is done by 1, 2, or 4 ranks.
//! 3. **Controller × chaos** — family switching (including the PowerSGD
//!    family and the divergence-backoff ladder) composed with transport
//!    faults must complete every step behind the degradation ladder: no
//!    deadlock, replicas in lockstep, the schedule-invalidation path
//!    exercised on every switch.

use compso::comm::{run_ranks, run_ranks_with, CommConfig, FaultConfig, FaultPlane};
use compso::core::baselines::PowerSgd;
use compso::core::Compressor;
use compso::ctrl::{
    instantiate, Candidate, ControlConfig, Controller, Decision, Family, Reason, Setting, Signals,
};
use compso::dnn::loss::softmax_cross_entropy;
use compso::dnn::{data, models};
use compso::kfac::{DistKfac, DistKfacConfig};
use compso::obs::{names, Recorder};
use compso::tensor::Rng;
use std::collections::BTreeMap;
use std::time::Duration;

/// A scripted 64-step signal tape that walks the whole state machine:
/// warmup, steady measurement, exploration, a divergence spike, backoff,
/// and recovery. Pure function of the step index — every caller that
/// replays it sees the same tape.
fn scripted_signal(step: u64) -> Signals {
    Signals {
        bytes_in: 16_384,
        bytes_out: 1_024 + (step % 5) * 256,
        wall_ns: 2_000 + (step % 3) * 500,
        predicted_wall_ns: 2_000,
        error_rel: if step == 40 { 3.0 } else { 0.05 },
    }
}

fn scripted_config(seed: u64) -> ControlConfig {
    ControlConfig {
        warmup_steps: 8,
        eval_every: 4,
        patience: 1,
        explore_every: 2,
        backoff_steps: 6,
        seed,
        ..ControlConfig::default()
    }
}

/// Replays the scripted tape through a fresh controller; returns the
/// full decision trace.
fn scripted_trace(seed: u64, rec: &Recorder) -> Vec<Decision> {
    let mut ctl = Controller::new(scripted_config(seed));
    for step in 0..64 {
        ctl.observe(&scripted_signal(step), rec);
    }
    ctl.trace().to_vec()
}

#[test]
fn decision_traces_are_identical_at_every_world_size() {
    // Reference trace, computed outside any communicator.
    let reference = scripted_trace(5, &Recorder::disabled());
    assert!(reference.iter().any(|d| d.reason == Reason::WarmupExit));
    assert!(reference.iter().any(|d| d.reason == Reason::BackoffEnter));

    for world in [1usize, 2, 4] {
        let traces: Vec<Vec<Decision>> = run_ranks(world, |comm| {
            // Each rank runs its own controller instance; the barrier
            // interleaves ranks arbitrarily, which must not matter.
            comm.barrier().expect("barrier");
            scripted_trace(5, &Recorder::disabled())
        });
        for (rank, trace) in traces.iter().enumerate() {
            assert_eq!(
                trace, &reference,
                "rank {rank} of {world} diverged from the reference trace"
            );
        }
    }
}

#[test]
fn scripted_trace_reconciles_against_counters() {
    let rec = Recorder::enabled();
    let mut ctl = Controller::new(scripted_config(5));
    for step in 0..64 {
        ctl.observe(&scripted_signal(step), &rec);
    }
    ctl.reconcile(&rec)
        .expect("decision trace must reconcile against ctrl/* counters");
    assert_eq!(rec.counter(names::CTRL_DECISIONS), 64);
}

/// Trains a replicated (unsharded) workload under PowerSGD through the
/// distributed K-FAC gather at `world` ranks; returns each rank's final
/// layer-0 parameters.
fn train_powersgd(world: usize, steps: usize) -> Vec<Vec<f32>> {
    let d = data::gaussian_blobs(240, 6, 3, 0.35, 41);
    let d_ref = &d;
    run_ranks(world, move |comm| {
        let mut rng = Rng::new(29);
        let mut model = models::mlp(&[6, 16, 3], &mut rng);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 11);
        let compressor = PowerSgd::rank(4);
        for step in 0..steps {
            // Replicated data: every rank computes the same gradients, so
            // any cross-world-size difference can only come from the
            // compression path.
            let (x, y) = d_ref.batch(step, 16);
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &y);
            model.backward(&grad);
            opt.step(comm, &mut model, &compressor).expect("step");
            model.update_params(|p, g| p.axpy(-0.02, g));
        }
        model.layer(0).params().unwrap().as_slice().to_vec()
    })
}

#[test]
fn powersgd_training_is_bit_identical_across_1_2_4_ranks() {
    let steps = 14;
    let solo = train_powersgd(1, steps);
    for world in [2usize, 4] {
        let results = train_powersgd(world, steps);
        for (rank, params) in results.iter().enumerate() {
            assert_eq!(
                params, &solo[0],
                "rank {rank} of {world} diverged from the 1-rank trajectory"
            );
        }
    }
}

#[test]
fn controller_driven_training_survives_chaos_without_deadlock() {
    const RANKS: usize = 4;
    const STEPS: usize = 26;
    // Fast-cycling config so 26 steps cross every phase: warmup exit at
    // 3, an exploration probe on every eval, a scripted divergence spike
    // at step 16, and a short backoff that ends inside the run.
    let cfg = ControlConfig {
        warmup_steps: 3,
        eval_every: 2,
        patience: 1,
        explore_every: 1,
        backoff_steps: 3,
        seed: 1,
        candidates: vec![
            Candidate::new(Setting::compso(4e-3), 5.0, 1.0),
            Candidate::new(Setting::qsgd(8), 4.0, 1.0),
            Candidate::new(Setting::powersgd(2), 6.0, 1.0),
        ],
        ..ControlConfig::default()
    };
    let plane = FaultPlane::new(FaultConfig {
        seed: 0xBADCAB,
        drop_p: 0.02,
        corrupt_wire_p: 0.02,
        corrupt_payload_p: 0.20,
        straggler: Some((1, Duration::from_millis(1))),
        ..FaultConfig::default()
    });
    let comm_config = CommConfig {
        recv_timeout: Duration::from_secs(30),
        retry_initial: Duration::from_millis(40),
        max_retries: 10,
        ..CommConfig::default()
    };
    let rec = Recorder::enabled();
    let rec_ref = &rec;
    let cfg_ref = &cfg;
    let d = data::gaussian_blobs(320, 6, 3, 0.3, 93);
    let d_ref = &d;

    let results: Vec<(Vec<f32>, Vec<Decision>)> =
        run_ranks_with(RANKS, plane, comm_config, move |comm| {
            let mut rng = Rng::new(19);
            let mut model = models::mlp(&[6, 16, 3], &mut rng);
            let shard = d_ref.shard(comm.rank(), RANKS);
            let mut opt = DistKfac::new(DistKfacConfig::default(), 13);
            opt.set_recorder(rec_ref.clone());
            comm.set_recorder(rec_ref.clone());
            let mut ctl = Controller::new(cfg_ref.clone());
            // Live instance per setting: PowerSGD keyed state must
            // survive while its setting is held.
            let mut bank: BTreeMap<String, Box<dyn Compressor>> = BTreeMap::new();
            for step in 0..STEPS {
                let (x, y) = shard.batch(step, 8);
                let logits = model.forward(&x, true);
                let (_, grad) = softmax_cross_entropy(&logits, &y);
                model.backward(&grad);
                let setting = ctl.active_setting();
                let compressor = bank
                    .entry(setting.label())
                    .or_insert_with(|| instantiate(&setting));
                opt.step(comm, &mut model, compressor.as_ref())
                    .expect("chaos must be absorbed by the ladder, not surfaced");
                // The signal tape is a pure function of the step index —
                // per-rank byte counts only cover a rank's *own* groups,
                // so feeding them raw would desynchronize the replicas.
                // (Production shares one symmetric measurement; here the
                // tape is scripted so the campaign is reproducible.)
                let wall = 500 + (step as u64 % 4) * 100;
                ctl.observe(
                    &Signals {
                        bytes_in: 8_192,
                        bytes_out: 900 + (step as u64 % 5) * 300,
                        wall_ns: wall,
                        predicted_wall_ns: wall,
                        error_rel: if step == 16 { 2.0 } else { 0.1 },
                    },
                    rec_ref,
                );
                model.update_params(|p, g| p.axpy(-0.02, g));
            }
            (
                model.layer(0).params().unwrap().as_slice().to_vec(),
                ctl.trace().to_vec(),
            )
        });

    // No deadlock (we got here), replicas in lockstep, and every rank
    // took the same decisions.
    for rank in 1..RANKS {
        assert_eq!(
            results[rank].0, results[0].0,
            "rank {rank} parameters drifted under chaos"
        );
        assert_eq!(
            results[rank].1, results[0].1,
            "rank {rank} decisions diverged under chaos"
        );
    }
    let trace = &results[0].1;
    let families: std::collections::BTreeSet<&'static str> = trace
        .iter()
        .filter(|d| d.setting.family != Family::None)
        .map(|d| d.setting.family.name())
        .collect();
    assert!(
        families.len() >= 2,
        "chaos run visited only {families:?}; wanted ≥2 compressed families"
    );
    assert!(
        trace.iter().any(|d| d.reason == Reason::BackoffEnter),
        "divergence spike never engaged the ladder"
    );
    assert!(
        trace.iter().any(|d| d.reason == Reason::BackoffExit),
        "backoff never released"
    );
    // Every compressor change invalidates the gather schedule cache —
    // four ranks each see every switch.
    let switches = results[0]
        .1
        .iter()
        .filter(|d| d.switched && d.step > 0)
        .count() as u64;
    assert!(
        rec.counter(names::CTRL_SCHEDULE_INVALIDATIONS) >= switches,
        "schedule invalidations {} < switches {switches}",
        rec.counter(names::CTRL_SCHEDULE_INVALIDATIONS)
    );
}
