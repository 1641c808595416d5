//! The lossy gradient filter (step 1 of Fig. 4a, lines 26–32 of Alg. 1).
//!
//! Values with `|g| < eb_f` are dropped and reconstructed as exactly 0.0;
//! a one-bit-per-element [`Bitmap`] records which positions were dropped.
//! K-FAC gradients concentrate mass near zero, so the filter typically
//! removes the majority of elements, and the resulting mostly-ones bitmap
//! is itself highly compressible. Unlike CocktailSGD's fixed 20% top-k
//! sparsity, the threshold is a *value* bound: selectivity adapts to the
//! gradient distribution (§5.2's "advantage of our method").

use crate::bitmap::Bitmap;

/// Output of the filter: the drop bitmap and the surviving values in
/// their original order.
#[derive(Clone, Debug)]
pub struct Filtered {
    /// Bit `i` set ⇔ element `i` was dropped (reconstructs as 0.0).
    pub bitmap: Bitmap,
    /// The values with `|g| ≥ eb_f`, order-preserving.
    pub kept: Vec<f32>,
}

impl Filtered {
    /// Fraction of elements removed.
    pub fn drop_ratio(&self) -> f64 {
        if self.bitmap.is_empty() {
            return 0.0;
        }
        self.bitmap.count_ones() as f64 / self.bitmap.len() as f64
    }
}

/// Splits `data` into dropped (|g| < eb_f) and kept parts.
pub fn filter(data: &[f32], eb_f: f32) -> Filtered {
    assert!(eb_f >= 0.0, "filter bound must be non-negative");
    let mut kept = Vec::new();
    let bitmap = Bitmap::from_fn(data.len(), |i| {
        let dropped = data[i].abs() < eb_f;
        if !dropped {
            kept.push(data[i]);
        }
        dropped
    });
    Filtered { bitmap, kept }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    // Explicit import: proptest's prelude also globs a `Rng` trait.
    use compso_tensor::rng::Rng;

    #[test]
    fn basic_split() {
        let data = [0.5f32, -0.01, 0.2, 0.0, -0.9];
        let f = filter(&data, 0.1);
        assert_eq!(f.kept, vec![0.5, 0.2, -0.9]);
        assert!(f.bitmap.get(1) && f.bitmap.get(3));
        assert!(!f.bitmap.get(0) && !f.bitmap.get(2) && !f.bitmap.get(4));
    }

    /// Bit `i` is set exactly when `|data[i]| < eb` — so rebuilding a
    /// dropped element as 0.0 errs by less than `eb` — and `kept` holds
    /// every other element, bit-exact and in order.
    fn assert_split(data: &[f32], eb: f32, f: &Filtered) {
        assert_eq!(f.bitmap.len(), data.len());
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(f.bitmap.get(i), x.abs() < eb, "i={i} x={x}");
        }
        let survivors: Vec<f32> = data.iter().copied().filter(|x| x.abs() >= eb).collect();
        assert_eq!(f.kept, survivors);
    }

    #[test]
    fn split_keeps_survivors_exactly_and_drops_only_below_the_bound() {
        for (seed, n, eb) in [(1, 5000, 0.5), (2, 10_000, 0.3)] {
            let mut rng = Rng::new(seed);
            let mut data = vec![0.0f32; n];
            rng.fill_normal(&mut data);
            assert_split(&data, eb, &filter(&data, eb));
        }
    }

    #[test]
    fn zero_threshold_drops_nothing() {
        let data = [0.0f32, 1.0, -1.0, 1e-30];
        let f = filter(&data, 0.0);
        assert_eq!(f.kept.len(), 4);
        assert_eq!(f.drop_ratio(), 0.0);
    }

    #[test]
    fn boundary_is_strict_less_than() {
        // |g| == eb_f is *kept* (Alg. 1: |g| < eb_f is filtered).
        let data = [0.1f32, -0.1, 0.0999];
        let f = filter(&data, 0.1);
        assert_eq!(f.kept, vec![0.1, -0.1]);
    }

    #[test]
    fn drop_ratio_on_laplacian_gradients_is_high() {
        // Gradient-like heavy-tailed data: most mass is near zero, so a
        // modest threshold removes most elements — the premise behind the
        // filter's compression-ratio contribution.
        let mut rng = Rng::new(3);
        let data: Vec<f32> = (0..50_000).map(|_| rng.laplace(0.01)).collect();
        let f = filter(&data, 0.02);
        assert!(f.drop_ratio() > 0.7, "ratio {}", f.drop_ratio());
    }

    #[test]
    fn empty_input() {
        let f = filter(&[], 0.1);
        assert!(f.kept.is_empty());
        assert_eq!(f.drop_ratio(), 0.0);
        assert!(f.bitmap.is_empty());
    }

    proptest! {
        #[test]
        fn prop_split_semantics(
            data in proptest::collection::vec(-2.0f32..2.0, 0..400),
            eb in 0.0f32..1.0,
        ) {
            assert_split(&data, eb, &filter(&data, eb));
        }

        #[test]
        fn prop_kept_count_consistent(
            data in proptest::collection::vec(-2.0f32..2.0, 0..400),
            eb in 0.0f32..1.0,
        ) {
            let f = filter(&data, eb);
            prop_assert_eq!(f.kept.len() + f.bitmap.count_ones(), data.len());
        }
    }
}
