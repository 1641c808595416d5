//! # compso-bench
//!
//! Shared harness utilities plus one binary per table/figure of the
//! paper's evaluation section (see DESIGN.md §4 for the index):
//!
//! ```text
//! cargo run -p compso-bench --release --bin fig1   # time breakdown
//! cargo run -p compso-bench --release --bin fig3   # CR vs accuracy
//! cargo run -p compso-bench --release --bin fig5   # RN/SR error shapes
//! cargo run -p compso-bench --release --bin fig6   # convergence curves
//! cargo run -p compso-bench --release --bin tab1   # fine-tune quality
//! cargo run -p compso-bench --release --bin fig7   # comm speedup
//! cargo run -p compso-bench --release --bin tab2   # encoder comparison
//! cargo run -p compso-bench --release --bin fig8   # codec throughput
//! cargo run -p compso-bench --release --bin fig9   # end-to-end gain
//! cargo run -p compso-bench --release --bin ablations
//! ```
//!
//! Criterion microbenchmarks live in `benches/`.

pub mod proxy;

use compso_core::perfmodel::CompressorProfile;
use compso_core::synthetic::{generate, GradientProfile};
use compso_core::Compressor;
use compso_dnn::ModelSpec;
use compso_tensor::Rng;
use std::time::Instant;

/// Default element budget for spec-shaped gradient samples. Ratio and
/// throughput are size-stable well below full model scale; 8M elements
/// keeps every harness run in seconds.
pub const SAMPLE_BUDGET: usize = 8 << 20;

/// The gradient value profile matching a paper model: transformers have
/// sparser, wider-tailed K-FAC gradients than CNNs (Fig. 3's higher
/// BERT ratios).
pub fn profile_for(spec: &ModelSpec) -> GradientProfile {
    match spec.name {
        "BERT-large" | "GPT-neo-125M" => GradientProfile::transformer(),
        _ => GradientProfile::kfac(),
    }
}

/// Generates per-layer synthetic K-FAC gradients shaped like `spec`,
/// scaled down so the total stays within `budget` elements (layer size
/// ratios preserved).
pub fn spec_gradients(spec: &ModelSpec, budget: usize, seed: u64) -> Vec<Vec<f32>> {
    let total = spec.total_grad_elems().max(1);
    let scale = (total as f64 / budget as f64).max(1.0);
    let profile = profile_for(spec);
    let mut rng = Rng::new(seed ^ 0xBEEF);
    spec.layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let n = ((l.grad_elems() as f64 / scale).round() as usize).max(16);
            let jitter = 10.0f32.powf(rng.range_f32(-0.7, 0.7));
            let p = GradientProfile {
                scale: profile.scale * jitter,
                ..profile
            };
            generate(n, seed.wrapping_add(i as u64 * 104_729), p)
        })
        .collect()
}

/// A flattened single-buffer sample of `spec`'s gradients.
pub fn spec_gradient_flat(spec: &ModelSpec, budget: usize, seed: u64) -> Vec<f32> {
    spec_gradients(spec, budget, seed).concat()
}

/// Measures a compressor's ratio and throughput on per-layer data,
/// producing the profile the performance model consumes.
pub fn measure_profile(
    compressor: &dyn Compressor,
    layers: &[Vec<f32>],
    seed: u64,
) -> CompressorProfile {
    let mut rng = Rng::new(seed);
    let mut orig = 0u64;
    let mut comp = 0u64;
    let mut ct = 0.0f64;
    let mut dt = 0.0f64;
    for layer in layers {
        let t0 = Instant::now();
        let bytes = compressor.compress(layer, &mut rng);
        ct += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let back = compressor
            .decompress(&bytes)
            .expect("self-compressed stream must decode");
        dt += t1.elapsed().as_secs_f64();
        assert_eq!(back.len(), layer.len());
        orig += layer.len() as u64 * 4;
        comp += bytes.len() as u64;
    }
    CompressorProfile {
        ratio: orig as f64 / comp.max(1) as f64,
        compress_tput: orig as f64 / ct.max(1e-9),
        decompress_tput: comp as f64 / dt.max(1e-9),
    }
}

/// Measures this host's effective single-stream memory bandwidth
/// (bytes/s) with a large copy — the normalizer for translating measured
/// CPU codec throughput to the simulated A100.
pub fn measure_membw() -> f64 {
    let n = 64 << 20;
    let src = vec![1u8; n];
    let mut dst = vec![0u8; n];
    // Warm-up + 3 timed passes.
    dst.copy_from_slice(&src);
    let t0 = Instant::now();
    for _ in 0..3 {
        dst.copy_from_slice(&src);
        std::hint::black_box(&dst);
    }
    // A copy moves 2n bytes per pass.
    (2 * 3 * n) as f64 / t0.elapsed().as_secs_f64()
}

/// Translates a CPU-measured codec profile to the simulated GPU platform.
///
/// §4.5 establishes that the (de)compression kernels are memory-bound
/// with O(1) arithmetic intensity, so their throughput scales with
/// memory bandwidth; the simulator therefore scales measured CPU
/// throughput by `gpu_membw / host_membw` (ratio is unchanged — it is a
/// property of the data, not the machine).
pub fn gpu_profile(p: &CompressorProfile, gpu_membw: f64, host_membw: f64) -> CompressorProfile {
    let scale = (gpu_membw / host_membw).max(1.0);
    CompressorProfile {
        ratio: p.ratio,
        compress_tput: p.compress_tput * scale,
        decompress_tput: p.decompress_tput * scale,
    }
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style table header with separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Formats a float with fixed precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Formats a throughput in GB/s.
pub fn gbps(bytes_per_sec: f64) -> String {
    format!("{:.2}", bytes_per_sec / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use compso_core::{ChunkedCompso, CompsoConfig, NoCompression};

    #[test]
    fn spec_gradients_respect_budget_and_shape() {
        let spec = ModelSpec::bert_large();
        let layers = spec_gradients(&spec, 1 << 20, 1);
        assert_eq!(layers.len(), spec.layers.len());
        let total: usize = layers.iter().map(|l| l.len()).sum();
        assert!(total <= (1 << 20) + spec.layers.len() * 16, "total {total}");
        // Size ordering preserved: the FFN layers stay the biggest.
        let max = layers.iter().map(|l| l.len()).max().unwrap();
        let ffn_in = layers[4].len(); // encoder.0.ffn.in
        assert!(ffn_in >= max / 2);
    }

    #[test]
    fn measure_profile_no_compression_is_ratio_one() {
        let layers = spec_gradients(&ModelSpec::resnet50(), 1 << 18, 2);
        let p = measure_profile(&NoCompression, &layers, 3);
        assert!(p.ratio > 0.9 && p.ratio <= 1.0, "ratio {}", p.ratio);
        assert!(p.compress_tput > 1e6);
    }

    #[test]
    fn measure_profile_compso_beats_ten_x() {
        let layers = spec_gradients(&ModelSpec::resnet50(), 1 << 20, 4);
        let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
        let p = measure_profile(&compso, &layers, 5);
        assert!(p.ratio > 10.0, "ratio {}", p.ratio);
    }
}
