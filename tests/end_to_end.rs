//! End-to-end integration tests across the whole workspace: distributed
//! K-FAC training through real collectives with real compression.

use compso::comm::run_ranks;
use compso::core::adaptive::BoundSchedule;
use compso::core::{ChunkedCompso, NoCompression};
use compso::dnn::loss::{accuracy, softmax_cross_entropy};
use compso::dnn::{data, models};
use compso::kfac::{DistKfac, DistKfacConfig};
use compso::tensor::Rng;

fn train_distributed(
    ranks: usize,
    steps: usize,
    use_compso: bool,
    seed: u64,
) -> Vec<(f64, Vec<f32>, f64)> {
    let dataset = data::gaussian_blobs(480, 8, 3, 0.4, seed);
    let schedule = BoundSchedule::step_paper(steps / 2);
    run_ranks(ranks, |comm| {
        let mut rng = Rng::new(17);
        let mut model = models::mlp(&[8, 32, 3], &mut rng);
        let shard = dataset.shard(comm.rank(), ranks);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 3);
        let mut original = 0u64;
        let mut wire = 0u64;
        for step in 0..steps {
            let (x, y) = shard.batch(step, 16);
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &y);
            model.backward(&grad);
            let stats = if use_compso {
                let compso = ChunkedCompso::new(schedule.config_at(step));
                opt.step(comm, &mut model, &compso).unwrap()
            } else {
                opt.step(comm, &mut model, &NoCompression).unwrap()
            };
            original += stats.gather_bytes_original;
            wire += stats.gather_bytes_wire;
            model.update_params(|p, g| p.axpy(-0.02, g));
        }
        let logits = model.forward(&dataset.x, false);
        let params = model.layer(0).params().unwrap().as_slice().to_vec();
        (
            accuracy(&logits, &dataset.y),
            params,
            original as f64 / wire.max(1) as f64,
        )
    })
}

#[test]
fn compressed_distributed_training_converges() {
    let results = train_distributed(4, 80, true, 5);
    for (acc, _, _) in &results {
        assert!(*acc > 0.93, "accuracy {acc}");
    }
}

#[test]
fn all_ranks_hold_identical_parameters_under_compression() {
    let results = train_distributed(3, 30, true, 7);
    for r in 1..results.len() {
        assert_eq!(results[0].1, results[r].1, "rank {r} drifted from rank 0");
    }
}

#[test]
fn compression_reduces_wire_traffic_without_hurting_accuracy() {
    let plain = train_distributed(4, 80, false, 9);
    let compressed = train_distributed(4, 80, true, 9);
    let acc_plain = plain[0].0;
    let acc_comp = compressed[0].0;
    assert!(
        acc_comp > acc_plain - 0.05,
        "accuracy {acc_comp} vs {acc_plain}"
    );
    // Aggregate gather ratio across ranks exceeds 2x even at toy layer
    // sizes (headers cap the achievable ratio well below paper scale).
    let ratio = compressed
        .iter()
        .map(|(_, _, r)| r)
        .fold(0.0f64, |a, &b| a.max(b));
    assert!(ratio > 2.0, "gather ratio {ratio}");
}

#[test]
fn training_is_deterministic_for_fixed_seeds() {
    let a = train_distributed(2, 20, true, 11);
    let b = train_distributed(2, 20, true, 11);
    assert_eq!(a[0].1, b[0].1, "non-deterministic training");
    assert_eq!(a[0].0, b[0].0);
}

#[test]
fn adaptive_strategy_switch_keeps_ranks_synchronized() {
    // The Alg. 1 switch from aggressive (filter+SR) to conservative
    // (SR-only) happens mid-run at steps/2; replicas must stay identical
    // through the boundary.
    let results = train_distributed(4, 44, true, 13); // switch at 22
    for r in 1..results.len() {
        assert_eq!(results[0].1, results[r].1, "rank {r} drifted");
    }
}
