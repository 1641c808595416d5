//! Step 2 of `DistKfac::step` reduces each K-FAC layer's gradient to its
//! owner — one `reduce_scatter_pieced` over an ownership-ordered bucket —
//! instead of all-reducing it to everyone (DESIGN.md §8.4), and hides the
//! covariance fold and the landed layers' preconditioning in its waits.
//! These tests pin, through the public API: the trajectory
//! (replica-identical at 1–4 ranks, bit-identical to the all-reduce it
//! replaced at 2), the bytes and collectives a step spends on gradients,
//! the all-reduce tail that layers without K-FAC statistics keep, ranks
//! that own nothing, that an elastic retry reduces the local gradients
//! afresh and folds once, and that preconditioning layers as they land
//! installs what preconditioning after the reduce did — and never on a
//! refresh step or after an epoch change. On a priced wire the reduce's
//! owner-bound hop carries the step's tiling codec: replicas stay
//! identical, that hop's bytes shrink, a resume from a save replays
//! the codec's draws, and one rank's +Inf gradients are coded like any
//! value.

use compso::comm::collectives::reduce_scatter_sum;
use compso::comm::{run_ranks, run_ranks_elastic, run_ranks_with, CommConfig, Communicator};
use compso::comm::{FaultConfig, FaultPlane, Payload};
use compso::core::{ChunkedCompso, Compressor, CompsoConfig, NoCompression};
use compso::dnn::loss::softmax_cross_entropy;
use compso::dnn::{data, models, Sequential};
use compso::kfac::checkpoint::fingerprint;
use compso::kfac::distributed::assign_layers;
use compso::kfac::{CheckpointConfig, CheckpointCoordinator};
use compso::kfac::{DistKfac, DistKfacConfig, KfacConfig, StepStats};
use compso::obs::{names, Recorder};
use compso::tensor::{Instance, Matrix, Rng};
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

/// The digest script: `STEPS` steps of the shared MLP compressed with
/// `codec`, rank `r` running its kernels on `pins[r]` (the widest
/// instance where `pins` names none).
fn train(ranks: usize, pins: &[Instance], codec: CompsoConfig) -> Vec<(Vec<Vec<u32>>, u64)> {
    let d = data::gaussian_blobs(320, 6, 3, 0.3, 91);
    run_ranks(ranks, |comm| {
        let _pin = pins.get(comm.rank()).map(|inst| inst.pin());
        let mut model = mlp();
        let shard = d.shard(comm.rank(), ranks);
        let mut opt = DistKfac::new(config(), 7);
        let compso = ChunkedCompso::new(codec);
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
        let results = train(ranks, &[], CompsoConfig::aggressive(4e-3));
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

/// Every instance computes the same bits, so two ranks land on the
/// parent's digest whichever instance each runs — alike or mixed. The
/// script's MLP has ReLUs, so its products meet zeros in `A` on every
/// instance. What this pins is the digest across instance pairs: a
/// worker that ran another instance would reach the same bits, so it
/// cannot show where a pin reaches. That the pin reaches the rayon
/// workers rests on the code: the kernels on this script's path (GEMM,
/// eigensolver, COMPSO chunk kernels) read the instance on the rank's
/// thread and hand it to their jobs. `conservative(1e-3)` writes 10-bit
/// codes, which take the portable path past 9 bits on every instance;
/// its pairs land on the `[P, P]` run's parameters.
#[test]
fn two_ranks_land_on_the_parent_digest_on_every_instance_pair() {
    use Instance::{Avx2 as A2, Avx512 as A512, Portable as P};
    let wide = CompsoConfig::conservative(1e-3);
    let portable = train(2, &[P, P], wide);
    for pins in [[P, P], [A2, A2], [A512, A512], [P, A512], [A2, P]] {
        if !pins.iter().all(|inst| inst.available()) {
            continue;
        }
        let results = train(2, &pins, CompsoConfig::aggressive(4e-3));
        assert_eq!(results[1].0, results[0].0, "{pins:?}: rank 1 diverged");
        assert_eq!(
            results[0].1, PARENT_TWO_RANK_DIGEST,
            "{pins:?}: digest {:#018x}",
            results[0].1
        );
        let results = train(2, &pins, wide);
        for (r, (params, _)) in results.iter().enumerate() {
            assert_eq!(params, &portable[0].0, "{pins:?}, 10-bit codes: rank {r}");
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

/// A wire that prices bytes: the one the reduce's last-hop codec rides.
fn priced_wire() -> CommConfig {
    CommConfig {
        modeled_wire_mbps: Some(50.0),
        ..CommConfig::default()
    }
}

/// Layers wide enough that a frame's header is small beside its values.
fn wide_mlp(seed: u64) -> Sequential {
    models::mlp(&[24, 96, 96, 96, 3], &mut Rng::new(seed))
}

/// Per step, what one rank sent and the step's statistics; then its
/// final parameters.
type WireTrail = (Vec<(u64, StepStats)>, Vec<Vec<u32>>);

/// `STEPS` steps of [`wide_mlp`] over [`priced_wire`] under `compressor`;
/// with `resume_at`, the run saves after that many steps to `dir`, drops
/// its model and optimizer, and restores fresh ones to finish.
fn wire_run(
    ranks: usize,
    compressor: &(dyn Compressor + Sync),
    resume_at: Option<(usize, &std::path::Path)>,
) -> Vec<WireTrail> {
    let d = data::gaussian_blobs(320, 24, 3, 0.3, 99);
    run_ranks_with(ranks, FaultPlane::disabled(), priced_wire(), |comm| {
        let shard = d.shard(comm.rank(), ranks);
        let mut model = wide_mlp(37);
        let mut opt = DistKfac::new(config(), 7);
        let mut trail = Vec::new();
        for step in 0..STEPS {
            if let Some((at, dir)) = resume_at.filter(|&(at, _)| at == step) {
                let fp = fingerprint(&["grad-sync-wire", &format!("ranks={ranks}")]);
                let coord = CheckpointCoordinator::new(CheckpointConfig::new(dir, fp)).unwrap();
                coord.save(comm, at as u64, &opt, &model, &[]).unwrap();
                // Garbage weights and another seed: restore overwrites both.
                model = wide_mlp(900 + comm.rank() as u64);
                opt = DistKfac::new(config(), 8);
                coord.restore(comm, &mut opt, &mut model).unwrap();
            }
            backward(&mut model, &shard, step);
            let before = comm.sent_bytes();
            let stats = opt.step(comm, &mut model, compressor).unwrap();
            trail.push((comm.sent_bytes() - before, stats));
            apply(&mut model);
        }
        (trail, param_bits(&model))
    })
}

#[test]
fn a_priced_wire_compresses_the_owner_bound_hop_and_resumes_exactly() {
    // Every layer of an MLP is a K-FAC layer.
    let model = wide_mlp(37);
    let n_kfac: u64 = (model.trainable_indices().iter())
        .map(|&i| model.layer(i).params().expect("parameters").len() as u64)
        .sum();
    let codec = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
    for ranks in [2usize, 4] {
        let p = ranks as u64;
        let coded = wire_run(ranks, &codec, None);
        let plain = wire_run(ranks, &NoCompression, None);
        for run in [&coded, &plain] {
            for (r, (_, params)) in run.iter().enumerate() {
                assert_eq!(params, &run[0].1, "{ranks} ranks: rank {r} diverged");
            }
        }
        // Step 2 of every step: the earlier hops of a longer ring move
        // `(p − 2)·n` raw values; the owner-bound hop is the one the
        // codec shrinks.
        let last_hop = |run: &[WireTrail], step: usize| {
            let sent: u64 = run.iter().map(|t| t.0[step].0).sum();
            let stats: Vec<StepStats> = run.iter().map(|t| t.0[step].1).collect();
            gradient_phase_bytes(p, sent, &stats, n_kfac as usize) - (p - 2) * 4 * n_kfac
        };
        for step in 0..STEPS {
            assert_eq!(
                last_hop(&plain, step),
                4 * n_kfac,
                "{ranks} ranks, step {step}"
            );
            let hop = last_hop(&coded, step);
            assert!(
                3 * hop <= 4 * n_kfac,
                "{ranks} ranks, step {step}: {hop} B against {} B raw",
                4 * n_kfac
            );
        }
        // The codec drew from the generator a checkpoint keeps.
        let dir = std::env::temp_dir().join(format!(
            "compso-grad-sync-wire-{ranks}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let resumed = wire_run(ranks, &codec, Some((STEPS / 2, &dir)));
        let _ = std::fs::remove_dir_all(&dir);
        for (r, (trail, params)) in resumed.iter().enumerate() {
            assert_eq!(params, &coded[r].1, "{ranks} ranks: rank {r} after resume");
            assert_eq!(trail[STEPS - 1].0, coded[r].0[STEPS - 1].0, "{ranks} ranks");
        }
    }
}

#[test]
fn an_infinite_gradient_on_one_rank_is_coded_like_any_value() {
    // Rank 0 writes +Inf into the first element of every K-FAC layer's
    // gradient. The owner-bound hop and the gather code it as they code
    // any value: no rank panics, both install the same gradients, and
    // no rung of the degradation ladder runs.
    let d = data::gaussian_blobs(320, 24, 3, 0.3, 99);
    let codec = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
    let results = run_ranks_with(2, FaultPlane::disabled(), priced_wire(), |comm| {
        let rec = Recorder::enabled();
        let shard = d.shard(comm.rank(), 2);
        let mut model = wide_mlp(37);
        let mut opt = DistKfac::new(config(), 7);
        opt.set_recorder(rec.clone());
        backward(&mut model, &shard, 0);
        let kfac = model.kfac_indices();
        if comm.rank() == 0 {
            for &idx in &kfac {
                let grad = model.layer_mut(idx).grads_mut().expect("gradient");
                grad.as_mut_slice()[0] = f32::INFINITY;
            }
        }
        let step = opt.step(comm, &mut model, &codec).map(|_| ());
        let snap = rec.snapshot();
        let degrade: Vec<(String, u64)> = (snap.counters.into_iter())
            .filter(|(name, _)| name.starts_with("kfac/degrade/"))
            .collect();
        (step, grad_bits(&model, &kfac), degrade)
    });
    for (r, (step, grads, degrade)) in results.iter().enumerate() {
        assert!(step.is_ok(), "rank {r}: {step:?}");
        assert_eq!(grads, &results[0].1, "rank {r} installed other gradients");
        assert!(
            degrade.iter().all(|(_, n)| *n == 0),
            "rank {r}: {degrade:?}"
        );
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

/// What one step of the survivor-only comparison leaves on a rank:
/// backward on physical rank `phys`'s batch 0, one `step_elastic`, the
/// update. The installed gradients, the running factors, the
/// parameters, and how often the call folded its covariances.
type FirstStep = (Vec<Vec<u32>>, Vec<Vec<u32>>, Vec<Vec<u32>>, u64);

fn first_step(comm: &mut Communicator, phys: usize, d: &data::Dataset) -> FirstStep {
    let mut model = mlp();
    backward(&mut model, &d.shard(phys, 4), 0);
    let mut opt = DistKfac::new(config(), 7);
    let rec = Recorder::enabled();
    opt.set_recorder(rec.clone());
    (opt.step_elastic(comm, &mut model, &NoCompression)).unwrap();
    let installed = grad_bits(&model, &model.trainable_indices());
    let factors = (model.kfac_indices().iter())
        .flat_map(|&idx| {
            let (a, g) = opt.kfac().factors(idx).expect("folded");
            [bits(a), bits(g)]
        })
        .collect();
    apply(&mut model);
    let folds = rec.snapshot().timers[names::KFAC_FOLD].count;
    (installed, factors, param_bits(&model), folds)
}

#[test]
fn an_elastic_retry_reduces_the_local_gradients_afresh() {
    // Rank 1 fails step 0 in two places. After the gradient reduce:
    // it takes part in all of it and dies before the factor all-reduce,
    // so the survivors' first attempt completes step 2 over four ranks
    // and fails in step 3. Mid-reduce: it sends its first hop and dies,
    // after the survivors' first sends — where the fold runs, in the
    // wait for the left link. Either way the retry must average the
    // three survivors' LOCAL gradients — what a group that never had a
    // fourth rank installs — not whatever the failed attempt reduced,
    // and fold exactly once: the factors, too, are the fresh group's.
    let d = data::gaussian_blobs(320, 6, 3, 0.3, 96);
    for mid_reduce in [false, true] {
        // Armed but fault-free: the failure detector and the membership
        // protocol only run on the fault-tolerant transport.
        let plane = FaultPlane::new(FaultConfig::default());
        let results = run_ranks_elastic(4, plane, CommConfig::default(), |comm, revived| {
            if revived {
                return None;
            }
            if comm.phys_rank() != 1 {
                return Some(first_step(comm, comm.phys_rank(), &d));
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
            if mid_reduce {
                // Hop 0 of the ring: rank 1 sends block 0 rightwards.
                let first = bucket[spans[0].clone()].to_vec();
                comm.send(comm.right(), Payload::F32(first)).unwrap();
                panic!("injected fault: rank 1 dies after its first hop");
            }
            reduce_scatter_sum(comm, &mut bucket, &spans).unwrap();
            panic!("injected fault: rank 1 dies between the gradient and the factor reduce");
        });
        let survivors: Vec<_> = results.into_iter().flatten().flatten().collect();
        assert_eq!(survivors.len(), 3);
        let fresh = run_ranks(3, |comm| {
            let phys = [0usize, 2, 3][comm.rank()];
            first_step(comm, phys, &d)
        });
        assert_eq!(survivors, fresh, "mid_reduce = {mid_reduce}");
        assert!(fresh.iter().all(|f| f.3 == 1), "one fold per call");
    }
}

/// FNV-1a of `words` continued from `h`.
fn fnv(h: u64, words: impl IntoIterator<Item = u32>) -> u64 {
    (words.into_iter().flat_map(u32::to_le_bytes)).fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One rank's [`installed_trail`]: a digest of every gradient it
/// installed, the layers it owns, and per step how many it preconditioned
/// as they landed and how often it folded.
type Trail = (u64, usize, Vec<(u64, u64)>);

/// `STEPS` uncompressed steps of `model` at `ranks` ranks (refreshes at
/// steps 0, 3 and 6), per rank.
fn installed_trail(
    ranks: usize,
    model: impl Fn() -> Sequential + Sync,
    d: &data::Dataset,
) -> Vec<Trail> {
    run_ranks(ranks, |comm| {
        let mut model = model();
        let shard = d.shard(comm.rank(), ranks);
        let mut opt = DistKfac::new(config(), 7);
        let rec = Recorder::enabled();
        opt.set_recorder(rec.clone());
        let count = |name| rec.snapshot().timers.get(name).map_or(0, |t| t.count);
        let (mut h, mut trail) = (0xcbf2_9ce4_8422_2325, Vec::new());
        for step in 0..STEPS {
            backward(&mut model, &shard, step);
            let before = (
                count(names::KFAC_PRECONDITION_LANDED),
                count(names::KFAC_FOLD),
            );
            opt.step(comm, &mut model, &NoCompression).unwrap();
            let landed = count(names::KFAC_PRECONDITION_LANDED) - before.0;
            trail.push((landed, count(names::KFAC_FOLD) - before.1));
            h = fnv(h, grad_bits(&model, &model.trainable_indices()).concat());
            apply(&mut model);
        }
        let owned = (opt.owners().unwrap().iter())
            .filter(|&&o| o == comm.rank())
            .count();
        (h, owned, trail)
    })
}

/// What [`installed_trail`] digests on the parent commit (b3c26d5,
/// recorded from it), where every owned layer was preconditioned after
/// the whole reduce: two and three ranks over four layers (two owned
/// layers land one after the other on some rank), and four ranks over two
/// (two ranks own nothing).
const PARENT_INSTALLED: [(usize, &[usize], u64); 3] = [
    (2, &[6, 16, 16, 16, 3], 0x6c87_c98f_ea1e_4dbb),
    (3, &[6, 16, 16, 16, 3], 0x5b24_e333_8f72_3151),
    (4, &[6, 16, 3], 0x8d89_778f_3e1c_b10c),
];

#[test]
fn preconditioning_as_layers_land_installs_what_the_parent_installed() {
    let d = data::gaussian_blobs(320, 6, 3, 0.3, 97);
    for (ranks, widths, parent) in PARENT_INSTALLED {
        let trails = installed_trail(ranks, || models::mlp(widths, &mut Rng::new(35)), &d);
        for (r, (digest, owned, trail)) in trails.iter().enumerate() {
            let tag = format!("{ranks} ranks, rank {r}");
            assert_eq!(*digest, parent, "{tag}: digest {digest:#018x}");
            // Refresh steps precondition after the refresh; every other
            // step, each owned layer as it lands. One fold per step.
            for (step, &(landed, folds)) in trail.iter().enumerate() {
                let due = step % REFRESH == 0;
                assert_eq!(
                    landed,
                    if due { 0 } else { *owned as u64 },
                    "{tag} step {step}"
                );
                assert_eq!(folds, 1, "{tag} step {step}");
            }
        }
        let owned: Vec<usize> = trails.iter().map(|t| t.1).collect();
        assert_eq!(owned.iter().sum::<usize>(), widths.len() - 1);
        assert_eq!(owned.contains(&0), ranks == 4, "{owned:?}");
    }
}

#[test]
fn after_an_epoch_change_every_layer_is_preconditioned_after_the_reduce() {
    // Rank 1 crashes at the top of step 4, between refreshes: the
    // survivors' step 4 runs in a new membership epoch, where the
    // factors are synced again, so no layer may be preconditioned before
    // the reduce completes — at steps 1, 2 and 5 every owned layer is.
    let d = data::gaussian_blobs(320, 6, 3, 0.3, 98);
    let plane = FaultPlane::new(FaultConfig {
        crash_at: Some((1, 4)),
        ..FaultConfig::default()
    });
    let results = run_ranks_elastic(4, plane, CommConfig::default(), |comm, revived| {
        if revived {
            return None;
        }
        let mut model = models::mlp(&[6, 16, 16, 16, 3], &mut Rng::new(36));
        let shard = d.shard(comm.phys_rank(), 4);
        let mut opt = DistKfac::new(config(), 7);
        let rec = Recorder::enabled();
        opt.set_recorder(rec.clone());
        let count = || {
            (rec.snapshot().timers)
                .get(names::KFAC_PRECONDITION_LANDED)
                .map_or(0, |t| t.count)
        };
        let mut trail = Vec::new();
        for step in 0..6 {
            backward(&mut model, &shard, step);
            let before = count();
            opt.step_elastic(comm, &mut model, &NoCompression).unwrap();
            let owned = (opt.owners().unwrap().iter())
                .filter(|&&o| o == comm.rank())
                .count();
            trail.push((count() - before, owned as u64, comm.size()));
            apply(&mut model);
        }
        Some((trail, param_bits(&model)))
    });
    let survivors: Vec<_> = results.into_iter().flatten().flatten().collect();
    assert_eq!(survivors.len(), 3);
    for (trail, params) in &survivors {
        assert_eq!(params, &survivors[0].1, "replicas diverged");
        let sizes: Vec<usize> = trail.iter().map(|t| t.2).collect();
        assert_eq!(sizes, [4, 4, 4, 4, 3, 3]);
        for (step, &(landed, owned, _)) in trail.iter().enumerate() {
            let early = matches!(step, 1 | 2 | 5);
            assert_eq!(
                landed,
                if early { owned } else { 0 },
                "step {step}: {trail:?}"
            );
        }
    }
    let early: u64 = survivors.iter().map(|(t, _)| t[5].0).sum();
    assert_eq!(
        early, 4,
        "all four layers land early once the epoch settles"
    );
}
