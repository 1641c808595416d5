//! The offline-online performance model (§4.4) end to end: profile the
//! compressor on warm-up data, price communication with the platform's
//! network model, pick the best-fit encoder and the layer-aggregation
//! factor, and estimate the end-to-end gain before committing to a full
//! run.
//!
//! ```text
//! cargo run --release --example performance_model
//! ```

use compso::core::synthetic::{generate_layers, GradientProfile};
use compso::core::{ChunkedCompso, CompsoConfig};
use compso::dnn::ModelSpec;
use compso::sim::{
    choose_encoder, comm_speedup, end_to_end_gain, gpu_profile, measure_encoders, measure_membw,
    measure_profile, AggregationPolicy, IterationModel, Platform,
};

fn main() {
    let platform = Platform::platform1();
    let spec = ModelSpec::resnet50();
    println!("system: {}, model: {}\n", platform.name, spec.name);

    // --- online phase: profile the first k warm-up iterations ---------
    let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
    let k = 5;
    // Scaled-down per-layer gradients for the warm-up sample.
    let sizes: Vec<usize> = spec.layers.iter().map(|l| l.grad_elems() / 16).collect();
    let warmup: Vec<Vec<f32>> = (0..k)
        .flat_map(|iter| generate_layers(&sizes, 100 + iter, GradientProfile::kfac()))
        .collect();
    let host_profile = measure_profile(&compso, &warmup, 3);
    println!(
        "measured over {k} warm-up iterations (host CPU): ratio {:.1}x, compress {:.2} GB/s, decompress {:.2} GB/s",
        host_profile.ratio,
        host_profile.compress_tput / 1e9,
        host_profile.decompress_tput / 1e9
    );

    // The codec is memory-bound (§4.5), so its throughput on the
    // simulated A100 scales with the memory-bandwidth ratio between this
    // host and the GPU (see DESIGN.md §1).
    let profile = gpu_profile(&host_profile, platform.gpu_membw, measure_membw());
    println!(
        "translated to the simulated A100: compress {:.1} GB/s, decompress {:.1} GB/s\n",
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

    // --- aggregation factor from the network model ---------------------
    let gpus = 64;
    let m = AggregationPolicy::PerformanceModel.resolve(&spec, &platform, gpus, &profile);
    println!("chosen layer-aggregation factor m = {m}");

    // --- Eq. 5 + end-to-end estimate ----------------------------------
    let l_o = spec.total_grad_bytes() as f64;
    let l_c = l_o / profile.ratio;
    let tput = |bytes: f64| bytes / platform.broadcast_time(gpus, bytes).max(1e-12);
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
