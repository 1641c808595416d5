//! Histograms and distribution-shape diagnostics.
//!
//! §4.2 of the paper classifies quantization-error distributions as
//! *uniform* (round-to-nearest, P0.5) or *triangular* (stochastic rounding)
//! and ties that shape to accuracy preservation. This module provides the
//! histogram machinery plus goodness-of-fit scores against the uniform and
//! triangular references, which the Figure 5 harness and the rounding tests
//! use to classify measured error distributions.

/// A fixed-width histogram over `[lo, hi]`.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    /// Samples outside `[lo, hi]`.
    outliers: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` equal-width bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            outliers: 0,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() || x < self.lo || x > self.hi {
            self.outliers += 1;
            return;
        }
        let bins = self.counts.len();
        let mut idx = ((x - self.lo) / (self.hi - self.lo) * bins as f64) as usize;
        if idx >= bins {
            idx = bins - 1; // x == hi lands in the last bin
        }
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Adds many samples.
    pub fn add_all(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.add(x);
        }
    }

    /// Normalized densities (sum to 1 over in-range mass).
    pub fn densities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Total-variation distance to a given probability mass function.
    pub(crate) fn tv_distance(&self, pmf: &[f64]) -> f64 {
        assert_eq!(pmf.len(), self.counts.len(), "pmf length");
        let d = self.densities();
        0.5 * d.iter().zip(pmf).map(|(a, b)| (a - b).abs()).sum::<f64>()
    }

    /// The uniform reference pmf over this histogram's bins.
    pub(crate) fn uniform_pmf(&self) -> Vec<f64> {
        let n = self.counts.len();
        vec![1.0 / n as f64; n]
    }

    /// The symmetric-triangular reference pmf centered on the range midpoint
    /// (the shape stochastic rounding induces on quantization error).
    pub(crate) fn triangular_pmf(&self) -> Vec<f64> {
        let n = self.counts.len();
        let mid = (n as f64 - 1.0) / 2.0;
        let mut pmf: Vec<f64> = (0..n)
            .map(|i| {
                let d = (i as f64 - mid).abs() / (mid + 0.5);
                (1.0 - d).max(0.0)
            })
            .collect();
        let s: f64 = pmf.iter().sum();
        for p in &mut pmf {
            *p /= s;
        }
        pmf
    }
}

/// Which reference shape a sample of quantization errors matches better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorShape {
    /// Flat density — round-to-nearest / P0.5.
    Uniform,
    /// Peaked-at-zero density — stochastic rounding.
    Triangular,
}

/// Classifies an error sample over `[-bound, bound]` as uniform-shaped or
/// triangular-shaped by total-variation distance to each reference, and
/// returns the two distances alongside the verdict.
pub fn classify_error_shape(errors: &[f32], bound: f64, bins: usize) -> (ErrorShape, f64, f64) {
    let mut h = Histogram::new(-bound, bound, bins);
    h.add_all(errors.iter().map(|&e| e as f64));
    let d_uni = h.tv_distance(&h.uniform_pmf());
    let d_tri = h.tv_distance(&h.triangular_pmf());
    let shape = if d_tri < d_uni {
        ErrorShape::Triangular
    } else {
        ErrorShape::Uniform
    };
    (shape, d_uni, d_tri)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn histogram_bins_and_edges() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(0.0); // bin 0
        h.add(0.26); // bin 1
        h.add(0.51); // bin 2
        h.add(1.0); // clamps to bin 3
        h.add(2.0); // outlier
        assert_eq!(h.counts, [1, 1, 1, 1]);
        assert_eq!(h.outliers, 1);
        assert_eq!(h.total, 4);
    }

    #[test]
    fn densities_sum_to_one() {
        let mut h = Histogram::new(-1.0, 1.0, 10);
        let mut rng = Rng::new(1);
        h.add_all((0..10_000).map(|_| rng.range_f32(-1.0, 1.0) as f64));
        let s: f64 = h.densities().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_sample_classified_uniform() {
        let mut rng = Rng::new(2);
        let errors: Vec<f32> = (0..200_000).map(|_| rng.range_f32(-0.5, 0.5)).collect();
        let (shape, d_uni, d_tri) = classify_error_shape(&errors, 0.5, 32);
        assert_eq!(shape, ErrorShape::Uniform);
        assert!(d_uni < 0.02, "d_uni {d_uni}");
        assert!(d_tri > d_uni);
    }

    #[test]
    fn triangular_sample_classified_triangular() {
        // Sum of two independent uniforms is triangular.
        let mut rng = Rng::new(3);
        let errors: Vec<f32> = (0..200_000)
            .map(|_| 0.5 * (rng.range_f32(-0.5, 0.5) + rng.range_f32(-0.5, 0.5)))
            .collect();
        let (shape, d_uni, d_tri) = classify_error_shape(&errors, 0.5, 32);
        assert_eq!(shape, ErrorShape::Triangular);
        assert!(d_tri < d_uni);
    }

    #[test]
    fn triangular_pmf_properties() {
        let h = Histogram::new(-1.0, 1.0, 9);
        let pmf = h.triangular_pmf();
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Peak at middle, symmetric.
        assert!(pmf[4] > pmf[0]);
        assert!((pmf[1] - pmf[7]).abs() < 1e-12);
    }
}
