//! The offline-online performance model (§4.4) end to end: profile the
//! compressor on warm-up data, query the offline communication tables,
//! pick the best-fit encoder and the layer-aggregation factor, and
//! estimate the end-to-end gain before committing to a full run.
//!
//! ```text
//! cargo run --release --example performance_model
//! ```

use compso::core::perfmodel::{
    choose_aggregation, choose_encoder, comm_speedup, end_to_end_gain, measure_encoders,
    OnlineProfiler,
};
use compso::core::synthetic::{generate_layers, GradientProfile};
use compso::core::{ChunkedCompso, Compressor, CompsoConfig};
use compso::dnn::ModelSpec;
use compso::sim::{IterationModel, Platform};
use compso::tensor::Rng;
use std::time::Instant;

fn main() {
    let platform = Platform::platform1();
    let spec = ModelSpec::resnet50();
    println!("system: {}, model: {}\n", platform.name, spec.name);

    // --- online phase: profile the first k warm-up iterations ---------
    let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
    let mut rng = Rng::new(3);
    let mut profiler = OnlineProfiler::new();
    let k = 5;
    for iter in 0..k {
        // Scaled-down per-layer gradients for the warm-up sample.
        let sizes: Vec<usize> = spec.layers.iter().map(|l| l.grad_elems() / 16).collect();
        let layers = generate_layers(&sizes, 100 + iter, GradientProfile::kfac());
        for layer in &layers {
            let t0 = Instant::now();
            let bytes = compso.compress(layer, &mut rng);
            let ct = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let _ = compso.decompress(&bytes).unwrap();
            let dt = t1.elapsed().as_secs_f64();
            profiler.record(layer.len() as u64 * 4, bytes.len() as u64, ct, dt);
        }
    }
    let host_profile = profiler.profile().unwrap();
    println!(
        "measured over {k} warm-up iterations (host CPU): ratio {:.1}x, compress {:.2} GB/s, decompress {:.2} GB/s",
        host_profile.ratio,
        host_profile.compress_tput / 1e9,
        host_profile.decompress_tput / 1e9
    );

    // The codec is memory-bound (§4.5), so its throughput on the
    // simulated A100 scales with the memory-bandwidth ratio between this
    // host and the GPU (see DESIGN.md §1).
    let host_membw = {
        let n = 32 << 20;
        let src = vec![1u8; n];
        let mut dst = vec![0u8; n];
        dst.copy_from_slice(&src);
        let t0 = Instant::now();
        for _ in 0..3 {
            dst.copy_from_slice(&src);
            std::hint::black_box(&dst);
        }
        (2 * 3 * n) as f64 / t0.elapsed().as_secs_f64()
    };
    let scale = (platform.gpu_membw / host_membw).max(1.0);
    let profile = compso::core::perfmodel::CompressorProfile {
        ratio: host_profile.ratio,
        compress_tput: host_profile.compress_tput * scale,
        decompress_tput: host_profile.decompress_tput * scale,
    };
    println!(
        "translated to the simulated A100 (bandwidth ratio {scale:.0}x): compress {:.1} GB/s, decompress {:.1} GB/s\n",
        profile.compress_tput / 1e9,
        profile.decompress_tput / 1e9
    );

    // --- encoder selection on sampled quantized data -------------------
    let sample: Vec<u8> = generate_layers(&[1 << 20], 7, GradientProfile::kfac())[0]
        .iter()
        .map(|v| (v.abs() * 4096.0) as u8)
        .collect();
    let measurements = measure_encoders(&sample);
    let slow_pick = choose_encoder(&measurements, 1e6);
    let fast_pick = choose_encoder(&measurements, 25e9);
    println!("encoder pick on a slow network: {}", slow_pick.name());
    println!("encoder pick on a fast network: {}\n", fast_pick.name());

    // --- aggregation factor from the offline lookup table --------------
    let gpus = 64;
    let net = platform.network.clone();
    let m = choose_aggregation(
        &spec.layer_grad_bytes(),
        move |bytes| bytes / net.broadcast_time(gpus, bytes).max(1e-12),
        &profile,
        platform.gpu_membw,
        16,
    );
    println!("chosen layer-aggregation factor m = {m}");

    // --- Eq. 5 + end-to-end estimate ----------------------------------
    let l_o = spec.total_grad_bytes() as f64;
    let l_c = l_o / profile.ratio;
    let tput = |bytes: f64| bytes / platform.network.broadcast_time(gpus, bytes).max(1e-12);
    let s = comm_speedup(l_o, l_c, tput(l_o), tput(l_c), &profile);
    let model = IterationModel::new(platform);
    let r = model.breakdown(&spec, gpus, 1, None).comm_fraction();
    println!(
        "Eq. 5 communication speedup s = {s:.1}x at r = {:.0}%",
        r * 100.0
    );
    println!(
        "estimated end-to-end gain ((1-r) + r/s)^-1 = {:.2}x",
        end_to_end_gain(r, s)
    );
}
