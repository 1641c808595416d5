//! Exact Top-k sparsification (the Ok-topk-style comparator of §4.3).
//!
//! "Our design differs from previous sparsification approaches, such as
//! Ok-topk, which maintains a fixed error bound across all iterations;
//! we adaptively vary the error bound based on the learning rate." This
//! baseline keeps exactly the `k` largest-magnitude values (a fixed
//! *density*, the other rigidity §5.2 contrasts with COMPSO's
//! value-adaptive filter), stores them at full f32 precision with a
//! Huffman-coded position bitmap.

use crate::bitmap::Bitmap;
use crate::encoders::huffman;
use crate::kernels::LayerSchedule;
use crate::traits::{CompressError, Compressor};
use crate::wire::{Reader, WireError, Writer};
use compso_obs::Recorder;
use compso_tensor::rng::Rng;

/// Exact Top-k sparsification at a fixed density.
#[derive(Clone, Copy, Debug)]
pub struct TopK {
    /// Fraction of elements kept.
    pub density: f32,
}

impl TopK {
    /// A Top-k compressor keeping `density` of the elements.
    pub fn new(density: f32) -> Self {
        assert!(
            density > 0.0 && density <= 1.0,
            "density {density} out of (0,1]"
        );
        TopK { density }
    }

    fn k_for(&self, n: usize) -> usize {
        // The 1e-6 relative shave absorbs f32→f64 widening artifacts
        // (0.1f32 widens to 0.10000000149, which would ceil one element
        // too many at large n).
        let exact = n as f64 * self.density as f64 * (1.0 - 1e-6);
        (exact.ceil() as usize).clamp(usize::from(n > 0), n.max(1))
    }

    /// One layer's block: count, the Huffman-coded position bitmap, then
    /// the kept values at full precision.
    pub fn encode(&self, data: &[f32]) -> Vec<u8> {
        let n = data.len();
        let k = if n == 0 { 0 } else { self.k_for(n) };
        // Exact selection: nth_element by |v| (O(n) average).
        let mut idx: Vec<usize> = (0..n).collect();
        if k < n {
            idx.select_nth_unstable_by(k.saturating_sub(1), |&a, &b| {
                data[b]
                    .abs()
                    .partial_cmp(&data[a].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        let mut keep = vec![false; n];
        for &i in idx.iter().take(k) {
            keep[i] = true;
        }
        let mut kept = Vec::with_capacity(k);
        let bitmap = Bitmap::from_fn(n, |i| {
            if keep[i] {
                kept.push(data[i]);
            }
            !keep[i]
        });

        let enc_bitmap = huffman::encode(&bitmap.to_bytes());
        let mut w = Writer::with_capacity(kept.len() * 4 + enc_bitmap.len() + 24);
        w.u64(n as u64);
        w.block(&enc_bitmap);
        for &v in &kept {
            w.f32(v);
        }
        w.into_bytes()
    }

    /// Inverse of [`TopK::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Vec<f32>, CompressError> {
        let mut r = Reader::new(bytes);
        let n = crate::wire::checked_count(r.u64()?)?;
        let bitmap_bytes = huffman::decode(r.block()?)?;
        let bitmap = Bitmap::from_bytes(n, &bitmap_bytes)?;
        let kept = bitmap.count_zeros();
        if r.remaining() != kept * 4 {
            return Err(WireError::Invalid("topk value stream length").into());
        }
        let mut out = vec![0.0f32; n];
        for (i, slot) in out.iter_mut().enumerate() {
            if !bitmap.get(i) {
                *slot = r.f32()?;
            }
        }
        Ok(out)
    }
}

impl Compressor for TopK {
    fn name(&self) -> &'static str {
        "TopK"
    }

    /// Layer-parallel ([`super::compress_per_layer`]): selection is per
    /// layer and deterministic, so the per-layer generators go unused.
    fn compress_group_keyed(
        &self,
        layers: &[(u64, &[f32])],
        _schedule: Option<&LayerSchedule>,
        rng: &mut Rng,
        _rec: &Recorder,
    ) -> Vec<u8> {
        super::compress_per_layer(layers, rng, |layer, _| self.encode(layer))
    }

    fn decompress_group(
        &self,
        bytes: &[u8],
        _rec: &Recorder,
    ) -> Result<Vec<Vec<f32>>, CompressError> {
        super::decompress_per_layer(bytes, Self::decode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, GradientProfile};
    use proptest::prelude::*;
    // Explicit import: proptest's prelude also globs a `Rng` trait.
    use compso_tensor::rng::Rng;

    #[test]
    fn keeps_exactly_the_largest() {
        let data = vec![0.1f32, -5.0, 0.3, 2.0, -0.2, 0.05];
        let t = TopK::new(0.34); // k = ceil(6*0.34) = 3
        let mut rng = Rng::new(1);
        let back = t.decompress(&t.compress(&data, &mut rng)).unwrap();
        assert_eq!(back, vec![0.0, -5.0, 0.3, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn kept_values_are_bit_exact() {
        let data = generate(50_000, 2, GradientProfile::kfac());
        let t = TopK::new(0.1);
        let mut rng = Rng::new(3);
        let back = t.decompress(&t.compress(&data, &mut rng)).unwrap();
        let mut kept = 0usize;
        for (&x, &y) in data.iter().zip(&back) {
            if y != 0.0 {
                assert_eq!(x.to_bits(), y.to_bits());
                kept += 1;
            }
        }
        let expected = (data.len() as f64 * 0.1).ceil() as usize;
        assert_eq!(kept, expected);
    }

    #[test]
    fn zeroed_values_are_smaller_than_kept_ones() {
        let data = generate(20_000, 4, GradientProfile::kfac());
        let t = TopK::new(0.2);
        let mut rng = Rng::new(5);
        let back = t.decompress(&t.compress(&data, &mut rng)).unwrap();
        let min_kept = data
            .iter()
            .zip(&back)
            .filter(|(_, &y)| y != 0.0)
            .map(|(&x, _)| x.abs())
            .fold(f32::INFINITY, f32::min);
        let max_dropped = data
            .iter()
            .zip(&back)
            .filter(|(_, &y)| y == 0.0)
            .map(|(&x, _)| x.abs())
            .fold(0.0f32, f32::max);
        assert!(max_dropped <= min_kept, "{max_dropped} > {min_kept}");
    }

    #[test]
    fn ratio_is_density_plus_bitmap() {
        // 10% density: 0.1*32 bits + ~H(0.1)≈0.47 bits -> ~3.7 bits/val
        // -> CR around 8-9x.
        let data = generate(200_000, 6, GradientProfile::kfac());
        let t = TopK::new(0.1);
        let mut rng = Rng::new(7);
        let ratio = t.ratio(&data, &mut rng);
        assert!((5.0..11.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn empty_and_degenerate() {
        let t = TopK::new(0.5);
        let mut rng = Rng::new(8);
        for data in [vec![], vec![1.0f32], vec![0.0f32; 10]] {
            let back = t.decompress(&t.compress(&data, &mut rng)).unwrap();
            assert_eq!(back.len(), data.len());
        }
    }

    #[test]
    fn truncation_detected() {
        let data = generate(1000, 9, GradientProfile::kfac());
        let t = TopK::new(0.2);
        let mut rng = Rng::new(10);
        let bytes = t.compress(&data, &mut rng);
        for cut in [0usize, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(t.decompress(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            data in proptest::collection::vec(-10.0f32..10.0, 0..500),
            density in 0.01f32..1.0,
        ) {
            let t = TopK::new(density);
            let mut rng = Rng::new(11);
            let back = t.decompress(&t.compress(&data, &mut rng)).unwrap();
            prop_assert_eq!(back.len(), data.len());
            // Non-zero outputs are exact copies.
            for (&x, &y) in data.iter().zip(&back) {
                if y != 0.0 {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }
}
