//! Quickstart: compress and decompress one K-FAC gradient buffer.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use compso::core::synthetic::{generate, GradientProfile};
use compso::core::{ChunkedCompso, Compressor, CompsoConfig};
use compso::tensor::Rng;

fn main() {
    // A synthetic K-FAC-gradient-like buffer (1M values). In real use
    // this is the preconditioned gradient a distributed K-FAC rank is
    // about to all-gather.
    let gradient = generate(1 << 20, 42, GradientProfile::kfac());

    // The paper's aggressive strategy: filter + stochastic rounding at a
    // 4E-3 (relative to value range) error bound, ANS entropy coding.
    let compressor = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
    let mut rng = Rng::new(7);

    let compressed = compressor.compress(&gradient, &mut rng);
    let restored = compressor.decompress(&compressed).expect("own stream");

    let original_bytes = gradient.len() * 4;
    println!("original:   {original_bytes} bytes");
    println!("compressed: {} bytes", compressed.len());
    println!(
        "ratio:      {:.1}x",
        original_bytes as f64 / compressed.len() as f64
    );

    // The error contract: filtered values decode to exactly zero, kept
    // values stay within the bound.
    let mm = compso::tensor::reduce::minmax_flat(&gradient);
    let bound = 4e-3 * (mm.max - mm.min);
    let max_err = gradient
        .iter()
        .zip(&restored)
        .map(|(&a, &b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("max error:  {max_err:.2e} (bound {bound:.2e})");
    assert!(max_err <= bound * 1.01);
    println!("error bound verified.");
}
