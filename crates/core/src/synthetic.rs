//! Synthetic gradient generators.
//!
//! The paper measures compression on K-FAC gradients of ImageNet/COCO/
//! Wiki/Pile training runs — data this reproduction cannot obtain. The
//! generator here produces value streams with the distributional
//! structure that drives the paper's compression results:
//!
//! * a dominant **near-zero mass** (Laplacian) — what the filter removes
//!   and what makes entropy coding effective;
//! * a **log-uniform shoulder** spanning two decades of magnitude — the
//!   informative gradient components that survive the filter and cost
//!   quantization bits (appearing in short bursts, mimicking channel/row
//!   structure, which is what gives SZ's predictor traction);
//! * rare **full-range outliers** — "KFAC gradients have a larger range
//!   than SGD gradients" (§3), the property that spreads quantized values
//!   and degrades fixed-rate encoders.

use compso_tensor::rng::Rng;

/// Distribution profile of a synthetic gradient stream. Magnitudes are
/// relative to `scale` (the stream's absmax target).
#[derive(Clone, Copy, Debug)]
pub struct GradientProfile {
    /// Overall magnitude (≈ absmax of the stream).
    pub scale: f32,
    /// Laplace scale of the near-zero component, relative to `scale`.
    pub tiny_scale: f32,
    /// Fraction of elements in the shoulder component.
    pub shoulder_fraction: f64,
    /// Shoulder magnitude band (log-uniform), relative to `scale`.
    pub shoulder_band: (f32, f32),
    /// Mean shoulder burst length (adjacent same-magnitude-scale values).
    pub burst_len: f64,
    /// Fraction of full-range outliers.
    pub outlier_fraction: f64,
}

impl GradientProfile {
    /// K-FAC-gradient-like (CNN layers): wide range, a solid shoulder.
    pub fn kfac() -> Self {
        GradientProfile {
            scale: 0.05,
            tiny_scale: 2e-3,
            shoulder_fraction: 0.15,
            shoulder_band: (8e-3, 0.6),
            burst_len: 3.0,
            outlier_fraction: 1e-4,
        }
    }

    /// SGD-gradient-like: the same shape but a much narrower range
    /// (§3's K-FAC-vs-SGD range observation).
    #[cfg(test)]
    pub(crate) fn sgd() -> Self {
        GradientProfile {
            scale: 0.012,
            tiny_scale: 8e-3,
            shoulder_fraction: 0.3,
            shoulder_band: (2e-2, 0.5),
            burst_len: 3.0,
            outlier_fraction: 1e-4,
        }
    }

    /// Transformer-layer profile: sparser shoulder, stronger zero mass —
    /// the reason BERT-large compresses 2-3x better than ResNet-50 in
    /// Fig. 3 and Table 2.
    pub fn transformer() -> Self {
        GradientProfile {
            scale: 0.08,
            tiny_scale: 1e-3,
            shoulder_fraction: 0.11,
            shoulder_band: (8e-3, 0.5),
            burst_len: 4.0,
            outlier_fraction: 5e-5,
        }
    }
}

/// Generates `n` gradient-like values.
pub fn generate(n: usize, seed: u64, profile: GradientProfile) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(n);
    let (lo, hi) = profile.shoulder_band;
    let ln_lo = lo.ln();
    let ln_hi = hi.ln();
    let continue_burst = 1.0 - 1.0 / profile.burst_len.max(1.0);
    // `shoulder_fraction` is the target *mass*; each burst start yields
    // ~burst_len elements, so starts fire at fraction/burst_len.
    let start_prob = profile.shoulder_fraction / profile.burst_len.max(1.0);
    while out.len() < n {
        let u = rng.uniform_f64();
        if u < profile.outlier_fraction {
            // Full-range spike.
            let sign = if rng.uniform_f64() < 0.5 { -1.0 } else { 1.0 };
            out.push(sign * profile.scale * rng.range_f32(0.7, 1.0));
        } else if u < profile.outlier_fraction + start_prob {
            // A burst of shoulder values around a common magnitude.
            let base = (ln_lo + (ln_hi - ln_lo) * rng.uniform_f32()).exp();
            loop {
                let jitter = (1.0 + 0.35 * rng.normal_f32()).abs().max(0.05);
                let sign = if rng.uniform_f64() < 0.5 { -1.0 } else { 1.0 };
                out.push(sign * profile.scale * base * jitter);
                if out.len() >= n || rng.uniform_f64() >= continue_burst {
                    break;
                }
            }
        } else {
            out.push(rng.laplace(profile.tiny_scale * profile.scale));
        }
    }
    out
}

/// A multi-layer K-FAC gradient snapshot: one buffer per layer with
/// per-layer scale jitter (layers differ in magnitude by orders of
/// magnitude, the motivation for per-layer normalization ranges in §4.5).
pub fn generate_layers(
    layer_sizes: &[usize],
    seed: u64,
    profile: GradientProfile,
) -> Vec<Vec<f32>> {
    let mut rng = Rng::new(seed ^ 0xD00D);
    layer_sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            // Log-uniform per-layer scale in [0.1x, 10x].
            let jitter = 10.0f32.powf(rng.range_f32(-1.0, 1.0));
            let p = GradientProfile {
                scale: profile.scale * jitter,
                ..profile
            };
            generate(n, seed.wrapping_add(i as u64 * 7919), p)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use compso_tensor::reduce;

    #[test]
    fn deterministic() {
        let a = generate(1000, 42, GradientProfile::kfac());
        let b = generate(1000, 42, GradientProfile::kfac());
        assert_eq!(a, b);
    }

    #[test]
    fn kfac_range_exceeds_sgd_range() {
        // The §3 observation that breaks fixed-rate quantizers on K-FAC
        // gradients.
        let n = 500_000;
        let kfac = generate(n, 1, GradientProfile::kfac());
        let sgd = generate(n, 1, GradientProfile::sgd());
        let kfac_range = reduce::minmax_flat(&kfac);
        let sgd_range = reduce::minmax_flat(&sgd);
        assert!(
            kfac_range.abs_max() > 2.0 * sgd_range.abs_max(),
            "kfac {} sgd {}",
            kfac_range.abs_max(),
            sgd_range.abs_max()
        );
    }

    #[test]
    fn most_mass_is_filterable_at_paper_bounds() {
        // ~80% of elements sit below the aggressive 4E-3 (relative to
        // range) filter bound — the regime that gives COMPSO its ~20x.
        let data = generate(500_000, 2, GradientProfile::kfac());
        let mm = reduce::minmax_flat(&data);
        let range = mm.max - mm.min;
        let below = reduce::count_below(&data, 4e-3 * range);
        let frac = below as f64 / data.len() as f64;
        assert!((0.6..0.95).contains(&frac), "filterable fraction {frac}");
    }

    #[test]
    fn shoulder_values_cluster_in_bursts() {
        let p = GradientProfile::kfac();
        let data = generate(400_000, 3, p);
        let mm = reduce::minmax_flat(&data);
        let range = mm.max - mm.min;
        let is_shoulder: Vec<bool> = data.iter().map(|v| v.abs() > 4e-3 * range).collect();
        let shoulder_frac = is_shoulder.iter().filter(|&&s| s).count() as f64 / data.len() as f64;
        // P(next is shoulder | current is shoulder) should exceed the
        // unconditional shoulder probability by a wide margin.
        let pairs = is_shoulder.windows(2).filter(|w| w[0]).count();
        let both = is_shoulder.windows(2).filter(|w| w[0] && w[1]).count();
        let conditional = both as f64 / pairs as f64;
        assert!(
            conditional > 1.8 * shoulder_frac,
            "conditional {conditional} vs base {shoulder_frac}"
        );
    }

    #[test]
    fn transformer_is_sparser_than_cnn() {
        let n = 400_000;
        let cnn = generate(n, 4, GradientProfile::kfac());
        let tr = generate(n, 4, GradientProfile::transformer());
        let frac = |data: &[f32]| {
            let mm = reduce::minmax_flat(data);
            let range = mm.max - mm.min;
            reduce::count_below(data, 4e-3 * range) as f64 / data.len() as f64
        };
        assert!(
            frac(&tr) > frac(&cnn),
            "tr {} cnn {}",
            frac(&tr),
            frac(&cnn)
        );
    }

    #[test]
    fn layers_have_diverse_scales() {
        let layers = generate_layers(&[10_000; 12], 4, GradientProfile::kfac());
        let scales: Vec<f32> = layers.iter().map(|l| reduce::absmax_flat(l)).collect();
        let max = scales.iter().fold(0.0f32, |a, &b| a.max(b));
        let min = scales.iter().fold(f32::INFINITY, |a, &b| a.min(b));
        assert!(max / min > 3.0, "scale spread {}", max / min);
    }

    #[test]
    fn layer_sizes_respected() {
        let layers = generate_layers(&[5, 100, 0, 77], 5, GradientProfile::sgd());
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        assert_eq!(sizes, vec![5, 100, 0, 77]);
    }
}
