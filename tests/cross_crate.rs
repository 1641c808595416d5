//! Cross-crate integration: the compressor meets the collectives, the
//! kernels, the performance model, and the simulator through the facade.

use compso::comm::collectives::allgather_var;
use compso::comm::run_ranks;
use compso::core::kernels::{compress_chunked, decompress_chunked, KernelConfig, LayerSchedule};
use compso::core::perfmodel::{comm_speedup, end_to_end_gain, CompressorProfile};
use compso::core::synthetic::{generate, generate_layers, GradientProfile};
use compso::core::{ChunkedCompso, Compressor, CompsoConfig};
use compso::dnn::ModelSpec;
use compso::obs::Recorder;
use compso::sim::{IterationModel, Platform};
use compso::tensor::Rng;

#[test]
fn compressed_allgather_is_bit_consistent_across_ranks() {
    // Each rank compresses its own gradient; after the all-gather every
    // rank must decode byte-identical buffers for every source.
    let decoded_per_rank = run_ranks(4, |comm| {
        let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
        let mut rng = Rng::new(100 + comm.rank() as u64);
        let mine = generate(20_000, 7 + comm.rank() as u64, GradientProfile::kfac());
        let bytes = compso.compress(&mine, &mut rng);
        let gathered = allgather_var(comm, bytes).unwrap();
        gathered
            .into_iter()
            .map(|b| compso.decompress(&b).expect("peer stream decodes"))
            .collect::<Vec<_>>()
    });
    for rank in 1..4 {
        assert_eq!(
            decoded_per_rank[0], decoded_per_rank[rank],
            "rank {rank} decoded different gradients"
        );
    }
}

#[test]
fn free_kernels_and_compressor_trait_agree_on_error_contract() {
    let layers = generate_layers(&[30_000, 500, 8_000], 21, GradientProfile::kfac());
    let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
    let cfg = CompsoConfig::aggressive(4e-3);

    // The free kernels on a caller-built 4 Ki-tile schedule.
    let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
    let schedule = LayerSchedule::build(&sizes, 4096);
    let rng = Rng::new(22);
    let off = Recorder::disabled();
    let chunked = decompress_chunked(
        &compress_chunked(&refs, &cfg, &KernelConfig::default(), &schedule, &rng, &off),
        &off,
    )
    .unwrap();

    // The group surface, which computes its own tile.
    let compso = ChunkedCompso::new(cfg);
    let mut rng2 = Rng::new(22);
    let grouped = compso
        .decompress_group(&compso.compress_group(&refs, None, &mut rng2, &off), &off)
        .unwrap();

    // Different streams (different tiles and RNG forks), same contract.
    for (layer, (c, s)) in layers.iter().zip(chunked.iter().zip(&grouped)) {
        let mm = compso::tensor::reduce::minmax_flat(layer);
        let bound = 4e-3 * (mm.max - mm.min) * 1.01 + 1e-7;
        for ((&x, &yc), &ys) in layer.iter().zip(c).zip(s) {
            if yc != 0.0 {
                assert!((x - yc).abs() <= bound);
            }
            if ys != 0.0 {
                assert!((x - ys).abs() <= bound);
            }
        }
    }
}

#[test]
fn measured_profile_feeds_the_simulator_sensibly() {
    // Compress real synthetic gradients, feed the measured ratio into the
    // simulator with GPU-class codec throughput, and check the end-to-end
    // verdict lands in the paper's band.
    let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
    let mut rng = Rng::new(31);
    let data = generate(1 << 20, 32, GradientProfile::kfac());
    let ratio = compso.ratio(&data, &mut rng);
    assert!(ratio > 10.0, "ratio {ratio}");

    let profile = CompressorProfile {
        ratio,
        compress_tput: 40e9,
        decompress_tput: 60e9,
    };
    let model = IterationModel::new(Platform::platform1());
    let spec = ModelSpec::resnet50();
    let plain = model.breakdown(&spec, 64, 1, None);
    let comp = model.breakdown(&spec, 64, 4, Some(&profile));
    let gain = plain.total() / comp.total();
    assert!((1.05..2.5).contains(&gain), "gain {gain}");
}

#[test]
fn eq5_algebra_matches_hand_computation() {
    let profile = CompressorProfile {
        ratio: 20.0,
        compress_tput: 50e9,
        decompress_tput: 100e9,
    };
    let l_o = 100e6;
    let l_c = 5e6;
    let s = comm_speedup(l_o, l_c, 10e9, 10e9, &profile);
    // t_orig = 0.01; t_comp = 5e-4 + 2e-3 + 5e-5 = 2.55e-3.
    assert!((s - 0.01 / 2.55e-3).abs() < 1e-9, "s {s}");
    let gain = end_to_end_gain(0.4, s);
    assert!((gain - 1.0 / (0.6 + 0.4 / s)).abs() < 1e-12);
}

#[test]
fn corrupted_peer_traffic_fails_loudly_not_silently() {
    // A corrupted compressed block must error at decode — never decode to
    // garbage gradients silently.
    let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
    let mut rng = Rng::new(41);
    let data = generate(50_000, 42, GradientProfile::kfac());
    let mut bytes = compso.compress(&data, &mut rng);
    let n = bytes.len();
    // Truncations always error.
    for cut in [0, 1, n / 3, n - 1] {
        assert!(compso.decompress(&bytes[..cut]).is_err(), "cut {cut}");
    }
    // Header corruption errors.
    bytes[0] ^= 0xFF;
    assert!(compso.decompress(&bytes).is_err());
}

#[test]
fn facade_reexports_are_usable_together() {
    // Smoke-check that the facade's module aliases compose.
    let mut rng = compso::tensor::Rng::new(1);
    let m = compso::tensor::Matrix::random_normal(4, 4, &mut rng);
    let eig = compso::tensor::sym_eig(&{
        let mut s = m.t_matmul(&m);
        s.symmetrize();
        s
    });
    assert_eq!(eig.values.len(), 4);
    let spec = compso::dnn::ModelSpec::bert_large();
    assert!(spec.total_grad_elems() > 100_000_000);
    let net = compso::comm::NetworkSpec::slingshot10();
    assert!(net.allreduce_time(8, 1e6) > 0.0);
}
