//! `DistKfacConfig::pipeline_gather` selects how many aggregation groups a
//! ring slot of the step-5 gather carries — one, or all of a rank's — and
//! nothing else: one `pipelined_allgather` per step either way, the same
//! frames, the same RNG stream. These tests pin that through the public
//! API: bit-identical parameters and equal traffic statistics in both
//! modes, and the slot accounting that tells the modes apart.

use compso::comm::run_ranks;
use compso::core::{ChunkedCompso, CompsoConfig, NoCompression};
use compso::dnn::loss::softmax_cross_entropy;
use compso::dnn::{data, models};
use compso::kfac::{DistKfac, DistKfacConfig};
use compso::obs::{names, Recorder, Snapshot};
use compso::tensor::{Matrix, Rng};

/// One rank's outcome: its parameters and the ownership map it used.
type RankRun = (Vec<Matrix>, Vec<usize>);

/// Trains the shared MLP for `steps` steps on every rank under `config`
/// and returns, per rank, its parameters and the ownership map, plus the
/// recorder both `DistKfac` and the communicator reported into.
fn train(
    ranks: usize,
    steps: usize,
    config: impl Fn() -> DistKfacConfig + Sync,
) -> (Vec<RankRun>, Snapshot) {
    let d = data::gaussian_blobs(240, 6, 3, 0.3, 87);
    let rec = Recorder::enabled();
    let results = run_ranks(ranks, |comm| {
        let mut rng = Rng::new(88);
        let mut model = models::mlp(&[6, 16, 16, 3], &mut rng);
        let shard = d.shard(comm.rank(), ranks);
        let mut opt = DistKfac::new(config(), 7);
        opt.set_recorder(rec.clone());
        comm.set_recorder(rec.clone());
        let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
        for step in 0..steps {
            let (x, y) = shard.batch(step, 8);
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &y);
            model.backward(&grad);
            opt.step(comm, &mut model, &compso).unwrap();
            model.update_params(|p, g| p.axpy(-0.02, g));
        }
        let params: Vec<Matrix> = (0..model.len())
            .filter_map(|i| model.layer(i).params().cloned())
            .collect();
        (params, opt.owners().unwrap().to_vec())
    });
    (results, rec.snapshot())
}

fn config(aggregation: usize, pipeline_gather: bool) -> DistKfacConfig {
    DistKfacConfig {
        aggregation,
        pipeline_gather,
        ..DistKfacConfig::default()
    }
}

#[test]
fn pipelined_gather_is_bit_identical_to_serial_at_1_2_4_ranks() {
    // The tentpole invariant: streaming groups through the ring
    // (compress k+1 while k's hops are in flight, decode on arrival)
    // must not change a single bit of the training trajectory
    // relative to compress-then-gather, at any rank count.
    let aggregation = DistKfacConfig::default().aggregation;
    for &ranks in &[1usize, 2, 4] {
        let (pipelined, _) = train(ranks, 5, || config(aggregation, true));
        let (serial, _) = train(ranks, 5, || config(aggregation, false));
        for (r, ((a, _), (b, _))) in pipelined.iter().zip(&serial).enumerate() {
            assert_eq!(
                a, b,
                "rank {r}/{ranks} params differ between pipelined and serial gather"
            );
        }
    }
}

#[test]
fn step_stats_agree_in_both_modes() {
    // The canonical wire payload (a rank's concatenated group frames) is
    // the same however it is spread over ring slots, so the traffic
    // accounting cannot tell the modes apart.
    let d = data::gaussian_blobs(100, 6, 3, 0.3, 23);
    let run = |pipeline: bool| {
        run_ranks(2, |comm| {
            let mut rng = Rng::new(44);
            let mut model = models::mlp(&[6, 8, 3], &mut rng);
            let shard = d.shard(comm.rank(), 2);
            let mut opt = DistKfac::new(config(1, pipeline), 7);
            let (x, y) = shard.batch(0, 8);
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &y);
            model.backward(&grad);
            opt.step(comm, &mut model, &NoCompression).unwrap()
        })
    };
    let (pipelined, serial) = (run(true), run(false));
    for (a, b) in pipelined.iter().zip(&serial) {
        assert!(a.gather_bytes_original > 0);
        assert_eq!(a.allreduce_bytes, b.allreduce_bytes);
        assert_eq!(a.gather_bytes_original, b.gather_bytes_original);
        assert_eq!(a.gather_bytes_wire, b.gather_bytes_wire);
    }
}

#[test]
fn both_modes_run_one_pipelined_gather_and_differ_only_in_slots() {
    // Three K-FAC layers over two ranks at `aggregation: 1`: one rank
    // owns two groups, so the two modes genuinely schedule differently —
    // two ring slots against one — and must still agree to the bit.
    let (ranks, steps) = (2usize, 3usize);
    let (pipelined, pipelined_snap) = train(ranks, steps, || config(1, true));
    let (serial, serial_snap) = train(ranks, steps, || config(1, false));
    for (r, ((a, _), (b, _))) in pipelined.iter().zip(&serial).enumerate() {
        assert_eq!(a, b, "rank {r} params differ between the two modes");
    }
    let owners = &pipelined[0].1;
    let max_groups = (0..ranks)
        .map(|r| owners.iter().filter(|&&o| o == r).count())
        .max()
        .unwrap();
    assert_eq!(max_groups, 2, "the workload must span more than one slot");
    let calls = (ranks * steps) as u64;
    for snap in [&pipelined_snap, &serial_snap] {
        assert_eq!(snap.counter(names::COMM_PIPELINED_ALLGATHER_CALLS), calls);
        assert_eq!(snap.counter(names::COMM_ALLGATHER_VAR_CALLS), 0);
    }
    // Every call adds its slot count: the widest rank's group count when
    // groups stream one per slot, one slot when they travel together.
    assert_eq!(
        pipelined_snap.counter(names::COMM_PIPELINE_STAGES),
        calls * max_groups as u64
    );
    assert_eq!(serial_snap.counter(names::COMM_PIPELINE_STAGES), calls);
}
