//! Step 2 of `DistKfac::step` reduces each K-FAC layer's gradient to its
//! owner — one `reduce_scatter_sum` over an ownership-ordered bucket —
//! instead of all-reducing it to everyone (DESIGN.md §8.4). These tests
//! pin, through the public API: the trajectory (replica-identical at
//! 1–4 ranks, bit-identical to the all-reduce it replaced at 2), the
//! bytes and collectives a step spends on gradients, the all-reduce tail
//! that layers without K-FAC statistics keep, ranks that own nothing,
//! and that an elastic retry reduces the local gradients afresh.

use compso::comm::collectives::reduce_scatter_sum;
use compso::comm::{run_ranks, run_ranks_elastic, CommConfig, Communicator};
use compso::comm::{FaultConfig, FaultPlane};
use compso::core::{ChunkedCompso, CompsoConfig, NoCompression};
use compso::dnn::loss::softmax_cross_entropy;
use compso::dnn::{data, models, Sequential};
use compso::kfac::distributed::assign_layers;
use compso::kfac::{DistKfac, DistKfacConfig, KfacConfig, StepStats};
use compso::obs::{names, Recorder};
use compso::tensor::{Matrix, Rng};
use std::ops::Range;

const REFRESH: usize = 3;
const STEPS: usize = 7;
const BATCH: usize = 8;

fn config() -> DistKfacConfig {
    DistKfacConfig {
        kfac: KfacConfig {
            eigen_refresh: REFRESH,
            ..KfacConfig::default()
        },
        ..DistKfacConfig::default()
    }
}

fn mlp() -> Sequential {
    models::mlp(&[6, 16, 16, 3], &mut Rng::new(31))
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

fn param_bits(model: &Sequential) -> Vec<Vec<u32>> {
    (0..model.len())
        .filter_map(|i| model.layer(i).params().map(bits))
        .collect()
}

/// The gradients of the layers in `idxs`, as bit patterns.
fn grad_bits(model: &Sequential, idxs: &[usize]) -> Vec<Vec<u32>> {
    (idxs.iter())
        .map(|&i| bits(model.layer(i).grads().expect("gradient")))
        .collect()
}

/// FNV-1a over every parameter's bit pattern.
fn digest(model: &Sequential) -> u64 {
    param_bits(model)
        .iter()
        .flatten()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The digest script: `STEPS` compressed steps of the shared MLP.
fn train(ranks: usize) -> Vec<(Vec<Vec<u32>>, u64)> {
    let d = data::gaussian_blobs(320, 6, 3, 0.3, 91);
    run_ranks(ranks, |comm| {
        let mut model = mlp();
        let shard = d.shard(comm.rank(), ranks);
        let mut opt = DistKfac::new(config(), 7);
        let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
        for step in 0..STEPS {
            backward(&mut model, &shard, step);
            opt.step(comm, &mut model, &compso).unwrap();
            apply(&mut model);
        }
        (param_bits(&model), digest(&model))
    })
}

/// What [`train`] leaves in the parameters at 2 ranks when step 2 is the
/// all-reduce of the parent commit (b214b47, recorded from it): with two
/// terms the owner's reduce adds the same floats in the other order, so
/// not a bit may move.
const PARENT_TWO_RANK_DIGEST: u64 = 0xbdbf_4367_1774_2ba3;

#[test]
fn replicas_agree_at_1_to_4_ranks_and_two_ranks_match_the_all_reduce_bit_for_bit() {
    for ranks in [1usize, 2, 3, 4] {
        let results = train(ranks);
        for (r, (params, _)) in results.iter().enumerate() {
            assert_eq!(params, &results[0].0, "{ranks} ranks: rank {r} diverged");
        }
        if ranks == 2 {
            assert_eq!(
                results[0].1, PARENT_TWO_RANK_DIGEST,
                "digest {:#018x}",
                results[0].1
            );
        }
    }
}

/// Element counts of `model`'s K-FAC gradients and of the trainable
/// layers without K-FAC statistics (the all-reduce tail).
fn bucket_elems(model: &Sequential) -> (usize, usize) {
    let kfac = model.kfac_indices();
    let len = |i: &usize| model.layer(*i).grads().expect("gradient").len();
    let trainable = model.trainable_indices();
    let n_kfac = kfac.iter().map(len).sum();
    let n_tail = (trainable.iter().filter(|i| !kfac.contains(i)))
        .map(len)
        .sum();
    (n_kfac, n_tail)
}

/// The bytes all ranks together sent for step 2, given the step's total:
/// everything else a fault-free step sends follows from its statistics.
/// A ring moves a reduced bucket of `n` bytes as `(p − 1)·n` per half,
/// each rank's gather frames and `p` repair-status bytes `p − 1` hops.
fn gradient_phase_bytes(p: u64, sent: u64, stats: &[StepStats], grad_elems: usize) -> u64 {
    let factor_bucket = stats[0].allreduce_bytes - 4 * grad_elems as u64;
    let gather: u64 = stats.iter().map(|s| s.gather_bytes_wire).sum();
    sent - 2 * (p - 1) * factor_bucket - (p - 1) * gather - (p - 1) * p * p
}

/// Runs `STEPS` steps of `model` on every rank and checks each step's
/// gradient-phase bytes and the run's all-reduce call count.
fn check_gradient_traffic(
    ranks: usize,
    model: impl Fn() -> Sequential + Sync,
    d: &data::Dataset,
    tail_calls: usize,
) {
    let rec = Recorder::enabled();
    let per_rank = run_ranks(ranks, |comm| {
        comm.set_recorder(rec.clone());
        let mut model = model();
        let shard = d.shard(comm.rank(), ranks);
        let mut opt = DistKfac::new(config(), 7);
        let mut trail = Vec::new();
        for step in 0..STEPS {
            backward(&mut model, &shard, step);
            let elems = bucket_elems(&model);
            let before = comm.sent_bytes();
            let stats = opt.step(comm, &mut model, &NoCompression).unwrap();
            trail.push((comm.sent_bytes() - before, stats, elems));
            apply(&mut model);
        }
        trail
    });
    let p = ranks as u64;
    for step in 0..STEPS {
        let sent: u64 = per_rank.iter().map(|t| t[step].0).sum();
        let stats: Vec<StepStats> = per_rank.iter().map(|t| t[step].1).collect();
        let (n_kfac, n_tail) = per_rank[0][step].2;
        assert_eq!(
            gradient_phase_bytes(p, sent, &stats, n_kfac + n_tail),
            (p - 1) * 4 * n_kfac as u64 + 2 * (p - 1) * 4 * n_tail as u64,
            "{ranks} ranks, step {step}"
        );
    }
    // Per rank: the owner-reduce every step, the tail's all-reduce when
    // the model has one, the factor bucket once per refresh period.
    let syncs = STEPS.div_ceil(REFRESH);
    assert_eq!(
        rec.snapshot().counter(names::COMM_ALLREDUCE_CALLS),
        (ranks * (STEPS * (1 + tail_calls) + syncs)) as u64,
        "{ranks} ranks"
    );
}

#[test]
fn gradient_phase_sends_each_layer_once_per_non_owner_hop() {
    let d = data::gaussian_blobs(320, 6, 3, 0.3, 92);
    for ranks in [1usize, 2, 3, 4] {
        check_gradient_traffic(ranks, mlp, &d, 0);
    }
    // A LayerNorm between the linears: its gain and bias have no K-FAC
    // statistics, so they ride the all-reduce tail (both ring halves).
    let d = data::token_sequences(320, 4, 2, 93);
    let lm = || models::mlp_lm(4, 2, 12, &mut Rng::new(32));
    for ranks in [2usize, 3] {
        check_gradient_traffic(ranks, lm, &d, 1);
    }
}

#[test]
fn layers_without_kfac_statistics_end_the_step_averaged_on_every_rank() {
    let d = data::token_sequences(320, 4, 2, 94);
    for ranks in [2usize, 3] {
        let per_rank = run_ranks(ranks, |comm| {
            let mut model = models::mlp_lm(4, 2, 12, &mut Rng::new(33));
            let shard = d.shard(comm.rank(), ranks);
            let mut opt = DistKfac::new(config(), 7);
            let mut trail = Vec::new();
            for step in 0..4 {
                backward(&mut model, &shard, step);
                let kfac = model.kfac_indices();
                let mut tail = model.trainable_indices();
                tail.retain(|i| !kfac.contains(i));
                assert!(!tail.is_empty(), "the model must have a LayerNorm");
                let local: Vec<Matrix> = (tail.iter())
                    .map(|&i| model.layer(i).grads().unwrap().clone())
                    .collect();
                opt.step(comm, &mut model, &NoCompression).unwrap();
                let installed: Vec<Matrix> = (tail.iter())
                    .map(|&i| model.layer(i).grads().unwrap().clone())
                    .collect();
                trail.push((local, installed, grad_bits(&model, &kfac)));
                apply(&mut model);
            }
            trail
        });
        for step in 0..4 {
            let (_, installed0, kfac0) = &per_rank[0][step];
            for (r, trail) in per_rank.iter().enumerate() {
                let tag = format!("{ranks} ranks, step {step}, rank {r}");
                let (_, installed, kfac) = &trail[step];
                assert_eq!(kfac, kfac0, "{tag}: preconditioned gradients");
                assert_eq!(installed, installed0, "{tag}: tail gradients");
            }
            for (l, got) in installed0.iter().enumerate() {
                let mut mean = Matrix::zeros(got.rows(), got.cols());
                for trail in &per_rank {
                    mean.axpy(1.0 / ranks as f32, &trail[step].0[l]);
                }
                assert!(
                    got.max_diff(&mean) <= 1e-6 + 1e-5 * mean.max_abs(),
                    "{ranks} ranks, step {step}, tail layer {l}: |Δ| {}",
                    got.max_diff(&mean)
                );
            }
        }
    }
}

#[test]
fn ranks_that_own_no_layer_reduce_an_empty_block() {
    // Two K-FAC layers over four ranks: two ranks own nothing, so their
    // spans of the bucket — and their gather payloads — are empty.
    let d = data::gaussian_blobs(320, 6, 3, 0.3, 95);
    let results = run_ranks(4, |comm| {
        let mut model = models::mlp(&[6, 16, 3], &mut Rng::new(34));
        let shard = d.shard(comm.rank(), 4);
        let mut opt = DistKfac::new(config(), 7);
        for step in 0..STEPS {
            backward(&mut model, &shard, step);
            opt.step(comm, &mut model, &NoCompression).unwrap();
            apply(&mut model);
        }
        let owned = (opt.owners().unwrap().iter())
            .filter(|&&o| o == comm.rank())
            .count();
        (owned, param_bits(&model))
    });
    let mut owned: Vec<usize> = results.iter().map(|r| r.0).collect();
    owned.sort_unstable();
    assert_eq!(owned, [0, 0, 1, 1]);
    for (r, (_, params)) in results.iter().enumerate() {
        assert_eq!(params, &results[0].1, "rank {r} diverged");
    }
}

/// The step-2 bucket of `model` under `owners` over `ranks` ranks — the
/// K-FAC gradients rank by rank, each rank's in layer order — and every
/// rank's span of it.
fn owner_ordered_bucket(
    model: &Sequential,
    owners: &[usize],
    ranks: usize,
) -> (Vec<f32>, Vec<Range<usize>>) {
    let mut bucket = Vec::new();
    let mut spans = Vec::new();
    for r in 0..ranks {
        let start = bucket.len();
        for (&idx, _) in (model.kfac_indices().iter().zip(owners)).filter(|(_, &o)| o == r) {
            bucket.extend_from_slice(model.layer(idx).grads().unwrap().as_slice());
        }
        spans.push(start..bucket.len());
    }
    (bucket, spans)
}

/// One step of the survivor-only comparison: backward on physical rank
/// `phys`'s batch 0, then the installed gradients.
fn first_step_installed(comm: &mut Communicator, phys: usize, d: &data::Dataset) -> Vec<Vec<u32>> {
    let mut model = mlp();
    backward(&mut model, &d.shard(phys, 4), 0);
    let mut opt = DistKfac::new(config(), 7);
    (opt.step_elastic(comm, &mut model, &NoCompression)).unwrap();
    grad_bits(&model, &model.trainable_indices())
}

#[test]
fn an_elastic_retry_reduces_the_local_gradients_afresh() {
    // Rank 1 takes part in step 0's gradient reduce and dies before the
    // factor all-reduce, so the survivors' first attempt completes step 2
    // over four ranks and fails in step 3. The retry must average the
    // three survivors' LOCAL gradients — what a group that never had a
    // fourth rank installs — not whatever the failed attempt reduced.
    let d = data::gaussian_blobs(320, 6, 3, 0.3, 96);
    // Armed but fault-free: the failure detector and the membership
    // protocol only run on the fault-tolerant transport.
    let plane = FaultPlane::new(FaultConfig::default());
    let results = run_ranks_elastic(4, plane, CommConfig::default(), |comm, revived| {
        if revived {
            return None;
        }
        if comm.phys_rank() != 1 {
            return Some(first_step_installed(comm, comm.phys_rank(), &d));
        }
        let mut model = mlp();
        backward(&mut model, &d.shard(1, 4), 0);
        comm.begin_step();
        // The ownership map every rank lays out: KAISA's greedy split
        // over the decomposition costs a³ + g³.
        let costs: Vec<f64> = (model.kfac_indices().iter())
            .map(|&idx| {
                let s = model.kfac_stats(idx).unwrap();
                (s.a.cols() as f64).powi(3) + (s.g.cols() as f64).powi(3)
            })
            .collect();
        let (mut bucket, spans) = owner_ordered_bucket(&model, &assign_layers(&costs, 4), 4);
        reduce_scatter_sum(comm, &mut bucket, &spans).unwrap();
        panic!("injected fault: rank 1 dies between the gradient and the factor reduce");
    });
    let survivors: Vec<_> = results.into_iter().flatten().flatten().collect();
    assert_eq!(survivors.len(), 3);
    let fresh = run_ranks(3, |comm| {
        let phys = [0usize, 2, 3][comm.rank()];
        first_step_installed(comm, phys, &d)
    });
    assert_eq!(survivors, fresh);
}
