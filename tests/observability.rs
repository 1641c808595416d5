//! Tier-1 observability integration tests: an end-to-end distributed
//! K-FAC training run with a live [`Recorder`] must produce well-formed
//! per-step JSON reports whose phase fractions partition the step, and
//! the disabled recorder must leave the training trajectory untouched.

use compso::comm::run_ranks;
use compso::core::{ChunkedCompso, CompsoConfig};
use compso::dnn::loss::softmax_cross_entropy;
use compso::dnn::{data, models};
use compso::kfac::{DistKfac, DistKfacConfig};
use compso::obs::{json, names, Recorder, Snapshot, StepReport};
use compso::tensor::Rng;

const RANKS: usize = 3;
const STEPS: usize = 5;

/// Runs a small compressed distributed training loop with `rec` attached
/// everywhere, returning rank 0's per-step delta reports and the final
/// layer-0 parameters per rank.
fn instrumented_run(rec: &Recorder, seed: u64) -> (Vec<StepReport>, Vec<Vec<f32>>) {
    let d = data::gaussian_blobs(300, 6, 3, 0.3, seed);
    let d_ref = &d;
    let results = run_ranks(RANKS, |comm| {
        let mut rng = Rng::new(23);
        let mut model = models::mlp(&[6, 16, 3], &mut rng);
        let shard = d_ref.shard(comm.rank(), RANKS);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
        opt.set_recorder(rec.clone());
        comm.set_recorder(rec.clone());
        let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
        let mut reports = Vec::new();
        let mut prev = Snapshot::default();
        for step in 0..STEPS {
            let (x, y) = shard.batch(step, 8);
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &y);
            model.backward(&grad);
            opt.step(comm, &mut model, &compso).unwrap();
            model.update_params(|p, g| p.axpy(-0.02, g));
            comm.barrier().unwrap();
            if comm.rank() == 0 {
                let cur = rec.snapshot();
                reports.push(StepReport::from_snapshot(
                    step as u64,
                    &cur.delta_since(&prev),
                ));
                prev = cur;
            }
            comm.barrier().unwrap();
        }
        (
            reports,
            model.layer(0).params().unwrap().as_slice().to_vec(),
        )
    });
    let mut reports = Vec::new();
    let mut params = Vec::new();
    for (i, (r, p)) in results.into_iter().enumerate() {
        if i == 0 {
            reports = r;
        }
        params.push(p);
    }
    (reports, params)
}

#[test]
fn step_reports_are_well_formed_json_with_partitioning_fractions() {
    let rec = Recorder::enabled();
    let (reports, _) = instrumented_run(&rec, 31);
    assert_eq!(reports.len(), STEPS);
    for r in &reports {
        let doc = r.to_json();
        json::validate(&doc).unwrap_or_else(|(pos, msg)| panic!("{msg} at byte {pos} in {doc}"));
        assert!(r.wall_s > 0.0, "step {} has no wall time", r.step);
        let sum = r.fraction_sum();
        assert!(
            (sum - 1.0).abs() < 0.01,
            "step {}: fractions sum to {sum}",
            r.step
        );
        // The compressed all-gather recorded live traffic each step.
        assert!(r.ratio.is_some(), "step {}: no compression ratio", r.step);
        assert!(r.ratio.unwrap() > 1.0);
    }
}

#[test]
fn recorder_sees_every_layer_of_the_stack() {
    let rec = Recorder::enabled();
    instrumented_run(&rec, 37);
    let snap = rec.snapshot();
    // kfac: every sub-phase timed once per rank per step.
    let expect = (RANKS * STEPS) as u64;
    assert_eq!(snap.timers[names::KFAC_STEP].count, expect);
    for phase in compso::obs::STEP_PHASES {
        assert_eq!(snap.timers[*phase].count, expect, "{phase}");
    }
    // core: compressor phases and byte counters flowed in.
    assert!(snap.timers[names::CORE_CHUNKED_COMPRESS].count > 0);
    assert!(snap.counter(names::CORE_BYTES_IN) > snap.counter(names::CORE_BYTES_OUT));
    // comm: collectives timed, traffic counted and histogrammed. The
    // default step-5 gather is the pipelined ring, so the pipelined
    // span fires (once per rank per step) and its stage counter runs;
    // the serial allgather_var is off the default path.
    assert!(snap.timers[names::COMM_ALLREDUCE].count > 0);
    assert_eq!(snap.timers[names::COMM_PIPELINED_ALLGATHER].count, expect);
    assert_eq!(
        snap.counter(names::COMM_PIPELINED_ALLGATHER_CALLS),
        expect,
        "one pipelined gather per rank per step"
    );
    assert!(snap.counter(names::COMM_PIPELINE_STAGES) > 0);
    assert!(snap.timers[names::COMM_PIPELINE_PRODUCE].count > 0);
    let sent = snap.counter(names::COMM_BYTES_SENT);
    assert!(sent > 0);
    assert_eq!(snap.hists[names::COMM_MSG_BYTES].sum, sent);
}

#[test]
fn instrumentation_does_not_perturb_training() {
    // Identical seeds, recorder on vs off: bit-identical trajectories.
    let (_, with_rec) = instrumented_run(&Recorder::enabled(), 41);
    let (_, without) = instrumented_run(&Recorder::disabled(), 41);
    assert_eq!(with_rec, without);
}

#[test]
fn disabled_recorder_snapshot_stays_empty() {
    let rec = Recorder::disabled();
    instrumented_run(&rec, 43);
    let snap = rec.snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.timers.is_empty());
    assert!(snap.hists.is_empty());
}
