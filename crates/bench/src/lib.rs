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
//! Compressor profiling and the host → A100 translation the figures use
//! live in `compso-sim` beside the model they feed.

pub mod proxy;

use compso_core::synthetic::{generate, GradientProfile};
use compso_dnn::ModelSpec;
use compso_tensor::Rng;

/// Default element budget for spec-shaped gradient samples. Ratio and
/// throughput are size-stable well below full model scale; 8M elements
/// keeps every harness run in seconds.
pub const SAMPLE_BUDGET: usize = 8 << 20;

/// The gradient value profile matching a paper model: transformers have
/// sparser, wider-tailed K-FAC gradients than CNNs (Fig. 3's higher
/// BERT ratios).
pub(crate) fn profile_for(spec: &ModelSpec) -> GradientProfile {
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
}
