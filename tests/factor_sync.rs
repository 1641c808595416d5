//! The deferred factor sync's invariants (DESIGN.md §13.6).
//!
//! `DistKfac::step` folds each rank's *local* covariances into its
//! running factors every step and all-reduces the running factors only
//! on the step whose inverse refresh consumes them. These tests pin what
//! that rests on: the EMA's linearity (the synced factors are the ones a
//! sync-every-step optimizer would hold), what is replicated when, how
//! many collectives a run issues, and that membership changes and
//! elastic retries neither skip a sync nor fold twice.

use compso::comm::collectives::{allreduce_mean, reduce_scatter_sum};
use compso::comm::{run_ranks, run_ranks_elastic, CommConfig, Communicator};
use compso::comm::{FaultConfig, FaultPlane};
use compso::core::{ChunkedCompso, CompsoConfig, NoCompression};
use compso::dnn::loss::softmax_cross_entropy;
use compso::dnn::{data, models, Sequential};
use compso::kfac::kfac::{covariance, ema_fold};
use compso::kfac::{DistKfac, DistKfacConfig, KfacConfig};
use compso::obs::{names, Recorder, StepReport};
use compso::tensor::{Matrix, Rng};

const REFRESH: usize = 4;
/// Two and a half refresh periods: syncs at steps 0, 4 and 8.
const STEPS: usize = 2 * REFRESH + REFRESH / 2;
const BATCH: usize = 8;

fn config(pipeline_gather: bool) -> DistKfacConfig {
    DistKfacConfig {
        kfac: KfacConfig {
            eigen_refresh: REFRESH,
            ..KfacConfig::default()
        },
        pipeline_gather,
        ..DistKfacConfig::default()
    }
}

fn fresh_model() -> Sequential {
    models::mlp(&[6, 16, 16, 3], &mut Rng::new(13))
}

/// Forward + loss + backward on the shard's batch for `step`.
fn backward(model: &mut Sequential, shard: &data::Dataset, step: usize) {
    let (x, y) = shard.batch(step, BATCH);
    let logits = model.forward(&x, true);
    let (_, grad) = softmax_cross_entropy(&logits, &y);
    model.backward(&grad);
}

fn apply(model: &mut Sequential) {
    model.update_params(|p, g| p.axpy(-0.02, g));
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Every running factor's bit pattern, `A` then `G`, in layer order.
fn factor_bits(opt: &DistKfac, model: &Sequential) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for idx in model.kfac_indices() {
        let (a, g) = opt.kfac().factors(idx).expect("factor state");
        out.extend([bits(a), bits(g)]);
    }
    out
}

fn param_bits(model: &Sequential) -> Vec<Vec<u32>> {
    (0..model.len())
        .filter_map(|i| model.layer(i).params().map(bits))
        .collect()
}

#[test]
fn synced_factors_match_the_sync_every_step_oracle() {
    let d = data::gaussian_blobs(320, 6, 3, 0.3, 55);
    for ranks in [1usize, 2, 4] {
        run_ranks(ranks, |comm| {
            let mut model = fresh_model();
            let shard = d.shard(comm.rank(), ranks);
            let mut opt = DistKfac::new(config(true), 7);
            let layers = model.kfac_indices();
            let decay = KfacConfig::default().ema_decay;
            let mut oracle = vec![Matrix::zeros(0, 0); 2 * layers.len()];
            for step in 0..STEPS {
                backward(&mut model, &shard, step);
                // The oracle is the path the deferred sync replaced:
                // average the covariances group-wide EVERY step, fold the
                // averages.
                for (pos, &idx) in layers.iter().enumerate() {
                    let s = model.kfac_stats(idx).expect("captured statistics");
                    for (k, stat) in [&s.a, &s.g].into_iter().enumerate() {
                        let mut cov = covariance(stat);
                        allreduce_mean(comm, cov.as_mut_slice()).unwrap();
                        ema_fold(&mut oracle[2 * pos + k], &cov, decay, step);
                    }
                }
                opt.step(comm, &mut model, &NoCompression).unwrap();
                apply(&mut model);
                // At one rank the all-reduce is the identity, so the two
                // paths do the same arithmetic on every step.
                if ranks > 1 && step % REFRESH != 0 {
                    continue;
                }
                for (pos, &idx) in layers.iter().enumerate() {
                    let (a, g) = opt.kfac().factors(idx).unwrap();
                    for (k, got) in [a, g].into_iter().enumerate() {
                        let want = &oracle[2 * pos + k];
                        if ranks == 1 {
                            assert_eq!(bits(got), bits(want), "step {step} layer {idx}/{k}");
                        } else {
                            assert!(
                                got.max_diff(want) <= 1e-5 * want.max_abs(),
                                "{ranks} ranks, step {step}, layer {idx}/{k}: |Δ| {} vs max|F| {}",
                                got.max_diff(want),
                                want.max_abs()
                            );
                        }
                    }
                }
            }
        });
    }
}

#[test]
fn factors_are_replicated_at_sync_steps_and_rank_local_in_between() {
    let d = data::gaussian_blobs(320, 6, 3, 0.3, 56);
    for ranks in [2usize, 4] {
        let per_rank = run_ranks(ranks, |comm| {
            let mut model = fresh_model();
            let shard = d.shard(comm.rank(), ranks);
            let mut opt = DistKfac::new(config(true), 7);
            let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
            let mut trail = Vec::new();
            for step in 0..STEPS {
                backward(&mut model, &shard, step);
                opt.step(comm, &mut model, &compso).unwrap();
                apply(&mut model);
                let asymmetry = (model.kfac_indices().iter())
                    .flat_map(|&idx| {
                        let (a, g) = opt.kfac().factors(idx).unwrap();
                        [a.asymmetry(), g.asymmetry()]
                    })
                    .fold(0.0f32, f32::max);
                trail.push((factor_bits(&opt, &model), asymmetry, param_bits(&model)));
            }
            trail
        });
        for step in 0..STEPS {
            let (factors0, _, params0) = &per_rank[0][step];
            for (r, trail) in per_rank.iter().enumerate() {
                let (factors, asymmetry, params) = &trail[step];
                assert_eq!(
                    params, params0,
                    "{ranks} ranks, step {step}: rank {r} params"
                );
                assert_eq!(*asymmetry, 0.0, "{ranks} ranks, step {step}: rank {r}");
                match step % REFRESH {
                    0 => assert_eq!(factors, factors0, "rank {r} right after the sync"),
                    1 if r > 0 => assert_ne!(factors, factors0, "rank {r} one step later"),
                    _ => {}
                }
            }
        }
    }
}

#[test]
fn one_factor_allreduce_per_refresh_period_in_both_gather_modes() {
    let d = data::gaussian_blobs(320, 6, 3, 0.3, 57);
    let syncs = STEPS.div_ceil(REFRESH);
    for pipeline_gather in [true, false] {
        for ranks in [1usize, 2, 4] {
            let rec = Recorder::enabled();
            run_ranks(ranks, |comm| {
                let mut model = fresh_model();
                let shard = d.shard(comm.rank(), ranks);
                let mut opt = DistKfac::new(config(pipeline_gather), 7);
                opt.set_recorder(rec.clone());
                comm.set_recorder(rec.clone());
                let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
                for step in 0..STEPS {
                    backward(&mut model, &shard, step);
                    let stats = opt.step(comm, &mut model, &compso).unwrap();
                    apply(&mut model);
                    // `allreduce_bytes` tells the truth per step: the
                    // packed factor bucket is in it on sync steps only.
                    let grads: usize = (model.trainable_indices().iter())
                        .map(|&i| model.layer(i).grads().unwrap().len())
                        .sum();
                    let bucket: usize = (model.kfac_indices().iter())
                        .flat_map(|&idx| {
                            let (a, g) = opt.kfac().factors(idx).unwrap();
                            [a.rows(), g.rows()]
                        })
                        .map(|n| n * (n + 1) / 2)
                        .sum();
                    let moved = grads + if step % REFRESH == 0 { bucket } else { 0 };
                    assert_eq!(stats.allreduce_bytes, 4 * moved as u64, "step {step}");
                }
            });
            let snap = rec.snapshot();
            let tag = format!("{ranks} ranks, pipeline_gather={pipeline_gather}");
            assert_eq!(
                snap.counter(names::COMM_ALLREDUCE_CALLS),
                (ranks * (STEPS + syncs)) as u64,
                "{tag}"
            );
            let report = StepReport::from_snapshot(0, &snap);
            let n = (ranks * syncs) as u64;
            assert_eq!(report.counters[names::KFAC_FACTOR_SYNCS], n, "{tag}");
            let key = format!("\"{}\":{n}", names::KFAC_FACTOR_SYNCS);
            assert!(report.to_json().contains(&key), "{tag}");
        }
    }
}

/// One elastic training step. (A retried step calls `begin_step` once
/// per attempt, so callers count calls themselves.)
fn elastic_step(
    comm: &mut Communicator,
    opt: &mut DistKfac,
    model: &mut Sequential,
    shard: &data::Dataset,
    step: usize,
) {
    backward(model, shard, step);
    opt.step_elastic(comm, model, &NoCompression).unwrap();
    apply(model);
}

#[test]
fn a_membership_change_syncs_every_layer_off_schedule() {
    // Rank 1 crashes at the top of step 2, mid-period. The survivors
    // shrink 4→3 and the retried step must re-average every running
    // factor over the new view although no refresh is due.
    let plane = FaultPlane::new(FaultConfig {
        crash_at: Some((1, 2)),
        ..FaultConfig::default()
    });
    let d = data::gaussian_blobs(320, 6, 3, 0.3, 58);
    let results = run_ranks_elastic(4, plane, CommConfig::default(), |comm, revived| {
        if revived {
            return None;
        }
        let mut model = fresh_model();
        let shard = d.shard(comm.phys_rank(), 4);
        let mut opt = DistKfac::new(config(true), 7);
        let rec = Recorder::enabled();
        opt.set_recorder(rec.clone());
        let syncs = |rec: &Recorder| rec.snapshot().counter(names::KFAC_FACTOR_SYNCS);
        let mut trail = Vec::new();
        for step in 0..4 {
            let before = syncs(&rec);
            elastic_step(comm, &mut opt, &mut model, &shard, step);
            trail.push((syncs(&rec) - before, factor_bits(&opt, &model)));
        }
        Some((comm.size(), trail))
    });
    let survivors: Vec<_> = results.into_iter().flatten().flatten().collect();
    assert_eq!(survivors.len(), 3);
    for (size, trail) in &survivors {
        assert_eq!(*size, 3);
        let issued: Vec<u64> = trail.iter().map(|t| t.0).collect();
        assert_eq!(issued, [1, 0, 1, 0], "step 0 on schedule, step 2 off it");
        assert_eq!(
            trail[2].1, survivors[0].1[2].1,
            "replicated after the resync"
        );
    }
    assert_ne!(survivors[0].1[3].1, survivors[1].1[3].1, "and local again");
}

#[test]
fn a_retried_refresh_step_folds_once_and_still_refreshes() {
    // Rank 1 takes part in step 4's gradient reduce and dies before
    // the factor all-reduce of that refresh step, so the survivors fail
    // *inside* the factor sync, shrink and retry. The abandoned attempt
    // already folded: the retry must neither fold again nor lose `due`.
    let d = data::gaussian_blobs(320, 6, 3, 0.3, 59);
    // Armed but fault-free: the failure detector and the membership
    // protocol only run on the fault-tolerant transport.
    let plane = FaultPlane::new(FaultConfig::default());
    let results = run_ranks_elastic(4, plane, CommConfig::default(), |comm, revived| {
        if revived {
            return None;
        }
        let mut model = fresh_model();
        let shard = d.shard(comm.phys_rank(), 4);
        let mut opt = DistKfac::new(config(true), 7);
        let rec = Recorder::enabled();
        opt.set_recorder(rec.clone());
        for step in 0..REFRESH {
            elastic_step(comm, &mut opt, &mut model, &shard, step);
        }
        if comm.phys_rank() == 1 {
            backward(&mut model, &shard, REFRESH);
            comm.begin_step();
            // Step 2 by hand: the K-FAC gradients rank by rank in
            // ownership order, each rank's span reduced onto it.
            let owners = opt.owners().unwrap();
            let mut bucket: Vec<f32> = Vec::new();
            let mut spans = Vec::new();
            for r in 0..comm.size() {
                let start = bucket.len();
                for (&idx, _) in (model.kfac_indices().iter().zip(owners)).filter(|o| *o.1 == r) {
                    bucket.extend_from_slice(model.layer(idx).grads().unwrap().as_slice());
                }
                spans.push(start..bucket.len());
            }
            reduce_scatter_sum(comm, &mut bucket, &spans).unwrap();
            panic!("injected fault: rank 1 dies between the two reductions");
        }
        let refreshes = |rec: &Recorder| rec.snapshot().counter(names::KFAC_INVERSE_REFRESHES);
        let before = refreshes(&rec);
        elastic_step(comm, &mut opt, &mut model, &shard, REFRESH);
        let folds: Vec<usize> = (model.kfac_indices().iter())
            .map(|&idx| opt.kfac().export_layer_state(idx).unwrap().steps)
            .collect();
        Some((
            REFRESH + 1,
            folds,
            refreshes(&rec) - before,
            factor_bits(&opt, &model),
            param_bits(&model),
        ))
    });
    let survivors: Vec<_> = results.into_iter().flatten().flatten().collect();
    assert_eq!(survivors.len(), 3);
    let layers = survivors[0].1.len() as u64;
    for (calls, folds, _, factors, params) in &survivors {
        assert!(folds.iter().all(|f| f == calls), "folds {folds:?}");
        assert_eq!(factors, &survivors[0].3, "factors right after the sync");
        assert_eq!(params, &survivors[0].4);
    }
    // Every layer was due, so every layer's (new) owner decomposed A and
    // G in that same call — not just the layers that changed hands.
    let refreshed: u64 = survivors.iter().map(|s| s.2).sum();
    assert_eq!(refreshed, 2 * layers);
}
