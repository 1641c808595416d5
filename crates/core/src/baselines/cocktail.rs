//! CocktailSGD: random-sampled top-k sparsification + quantization.
//!
//! §2.4/§5: "Sparsification of CocktailSGD ... selects the most frequent
//! values and represents the SGD gradient in a sparse format", evaluated
//! at "20% sparsity + 8-bit quant". The top-k threshold is estimated from
//! a random sample (the paper's "Top-k with random sampling", which is
//! also why its GPU cost is high, §5.3); surviving values are 8-bit
//! round-to-nearest quantized; positions travel in a Huffman-coded
//! bitmap. The density is *fixed* regardless of the gradient
//! distribution — the contrast §5.2 draws with COMPSO's value-adaptive
//! filter.

use crate::bitmap::Bitmap;
use crate::encoders::huffman;
use crate::kernels::LayerSchedule;
use crate::traits::{CompressError, Compressor};
use crate::wire::{Reader, WireError, Writer};
use compso_obs::Recorder;
use compso_tensor::rng::Rng;

/// Sample size used for threshold estimation.
const SAMPLE: usize = 2048;

/// The CocktailSGD compressor.
#[derive(Clone, Copy, Debug)]
pub struct CocktailSgd {
    /// Fraction of elements kept (0.2 in all paper experiments).
    pub density: f32,
    /// Quantization bits for kept values (8 in all paper experiments).
    pub bits: u32,
}

impl CocktailSgd {
    /// The paper's configuration: 20% density, 8-bit quantization.
    pub fn standard() -> Self {
        CocktailSgd {
            density: 0.2,
            bits: 8,
        }
    }

    /// Estimates the |v| threshold whose exceedance fraction is `density`,
    /// from a random sample — O(sample log sample) instead of a full sort.
    fn threshold(&self, data: &[f32], rng: &mut Rng) -> f32 {
        if data.is_empty() {
            return 0.0;
        }
        let mut mags: Vec<f32> = if data.len() <= SAMPLE {
            data.iter().map(|v| v.abs()).collect()
        } else {
            (0..SAMPLE)
                .map(|_| data[rng.below(data.len() as u64) as usize].abs())
                .collect()
        };
        // Total order: a sampled NaN sorts first and, as a threshold,
        // keeps nothing.
        mags.sort_by(|a, b| b.total_cmp(a));
        let k = ((mags.len() as f32 * self.density).ceil() as usize).clamp(1, mags.len());
        mags[k - 1]
    }

    /// One layer's block: count, scale, bit width, the Huffman-coded
    /// position bitmap, then one quantized byte per kept value. `rng`
    /// draws the threshold sample.
    pub(crate) fn encode(&self, data: &[f32], rng: &mut Rng) -> Vec<u8> {
        let thr = self.threshold(data, rng);
        let mut kept: Vec<f32> = Vec::new();
        let bitmap = Bitmap::from_fn(data.len(), |i| {
            let keep = data[i].abs() >= thr && thr > 0.0;
            if keep {
                kept.push(data[i]);
            }
            !keep
        });

        // 8-bit RN quantization of the kept values (symmetric levels).
        let levels = (1u32 << (self.bits - 1)) - 1;
        let scale = compso_tensor::reduce::absmax_flat(&kept);
        let codes: Vec<u8> = if scale > 0.0 {
            let sf = levels as f64 / scale as f64;
            kept.iter()
                .map(|&v| {
                    let q = ((v.abs() as f64) * sf).round() as i64;
                    let q = q.clamp(0, levels as i64) as u8;
                    // Sign in the top bit.
                    if v < 0.0 {
                        q | 0x80
                    } else {
                        q
                    }
                })
                .collect()
        } else {
            vec![0; kept.len()]
        };

        let enc_bitmap = huffman::encode(&bitmap.to_bytes());
        let mut w = Writer::with_capacity(codes.len() + enc_bitmap.len() + 32);
        w.u64(data.len() as u64);
        w.f32(scale);
        w.u8(self.bits as u8);
        w.block(&enc_bitmap);
        w.block(&codes);
        w.into_bytes()
    }

    /// Inverse of [`CocktailSgd::encode`] (the block carries its own
    /// bit width).
    pub(crate) fn decode(bytes: &[u8]) -> Result<Vec<f32>, CompressError> {
        let mut r = Reader::new(bytes);
        let n = crate::wire::checked_count(r.u64()?)?;
        let scale = r.f32()?;
        if !scale.is_finite() || scale < 0.0 {
            return Err(WireError::Invalid("cocktail scale").into());
        }
        let bits = r.u8()? as u32;
        if !(2..=8).contains(&bits) {
            return Err(WireError::Invalid("cocktail bits").into());
        }
        let levels = (1u32 << (bits - 1)) - 1;
        let bitmap_bytes = huffman::decode(r.block()?)?;
        let bitmap = Bitmap::from_bytes(n, &bitmap_bytes)?;
        let codes = r.block()?;
        if codes.len() != bitmap.count_zeros() {
            return Err(CompressError::Corrupt("cocktail code count"));
        }
        let inv = scale as f64 / levels as f64;
        let mut out = vec![0.0f32; n];
        let mut next = 0usize;
        for (i, slot) in out.iter_mut().enumerate() {
            if !bitmap.get(i) {
                let c = codes[next];
                next += 1;
                let mag = (c & 0x7f) as f64;
                if mag > levels as f64 {
                    return Err(CompressError::Corrupt("cocktail level"));
                }
                let sign = if c & 0x80 != 0 { -1.0 } else { 1.0 };
                *slot = (sign * mag * inv) as f32;
            }
        }
        Ok(out)
    }
}

impl Compressor for CocktailSgd {
    fn name(&self) -> &'static str {
        "CocktailSGD"
    }

    /// Layer-parallel ([`super::compress_per_layer`]): each layer samples its
    /// threshold from its own forked generator.
    fn compress_group_keyed(
        &self,
        layers: &[(u64, &[f32])],
        _schedule: Option<&LayerSchedule>,
        rng: &mut Rng,
        _rec: &Recorder,
    ) -> Vec<u8> {
        super::compress_per_layer(layers, rng, |layer, rng| self.encode(layer, rng))
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
    use proptest::prelude::*;
    // Explicit import: proptest's prelude also globs a `Rng` trait.
    use compso_tensor::rng::Rng;

    fn gradient_like(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| rng.laplace(0.01)).collect()
    }

    #[test]
    fn density_close_to_target() {
        let data = gradient_like(100_000, 1);
        let c = CocktailSgd::standard();
        let mut rng = Rng::new(2);
        let bytes = c.compress(&data, &mut rng);
        let back = c.decompress(&bytes).unwrap();
        let nonzero = back.iter().filter(|&&v| v != 0.0).count();
        let density = nonzero as f64 / data.len() as f64;
        assert!((density - 0.2).abs() < 0.05, "density {density}");
    }

    #[test]
    fn large_values_survive_small_values_zeroed() {
        let data = gradient_like(50_000, 3);
        let c = CocktailSgd::standard();
        let mut rng = Rng::new(4);
        let back = c.decompress(&c.compress(&data, &mut rng)).unwrap();
        // The largest-magnitude element must survive and be close.
        let (imax, &vmax) = data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap();
        assert!(back[imax] != 0.0);
        assert!((back[imax] - vmax).abs() < vmax.abs() * 0.02);
    }

    #[test]
    fn ratio_in_expected_band() {
        // Nominal 20x less index overhead: expect low-to-mid teens.
        let data = gradient_like(200_000, 5);
        let c = CocktailSgd::standard();
        let mut rng = Rng::new(6);
        let ratio = c.ratio(&data, &mut rng);
        assert!(ratio > 8.0 && ratio < 25.0, "ratio {ratio}");
    }

    #[test]
    fn kept_values_bounded_error() {
        let data = gradient_like(20_000, 7);
        let c = CocktailSgd::standard();
        let mut rng = Rng::new(8);
        let back = c.decompress(&c.compress(&data, &mut rng)).unwrap();
        let kept: Vec<(f32, f32)> = data
            .iter()
            .zip(&back)
            .filter(|(_, &y)| y != 0.0)
            .map(|(&x, &y)| (x, y))
            .collect();
        assert!(!kept.is_empty());
        let scale = kept.iter().map(|&(x, _)| x.abs()).fold(0.0f32, f32::max);
        let step = scale / 127.0;
        for &(x, y) in &kept {
            assert!((x - y).abs() <= step * 0.51 + 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn empty_and_zero_inputs() {
        let c = CocktailSgd::standard();
        let mut rng = Rng::new(9);
        for data in [vec![], vec![0.0f32; 100]] {
            let back = c.decompress(&c.compress(&data, &mut rng)).unwrap();
            assert_eq!(back, data);
        }
    }

    #[test]
    fn small_inputs_use_exact_topk() {
        let data = vec![1.0f32, -3.0, 0.1, 0.2, 2.0];
        let c = CocktailSgd {
            density: 0.4,
            bits: 8,
        };
        let mut rng = Rng::new(10);
        let back = c.decompress(&c.compress(&data, &mut rng)).unwrap();
        // Top-40% of 5 = 2 elements: -3.0 and 2.0 survive.
        assert!(back[1] != 0.0 && back[4] != 0.0);
        assert_eq!(back[2], 0.0);
    }

    #[test]
    fn truncation_detected() {
        let data = gradient_like(5000, 11);
        let c = CocktailSgd::standard();
        let mut rng = Rng::new(12);
        let bytes = c.compress(&data, &mut rng);
        for cut in [0usize, 6, 14, bytes.len() / 2] {
            assert!(c.decompress(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_roundtrip_structure(
            data in proptest::collection::vec(-1.0f32..1.0, 0..600),
            seed in any::<u64>(),
        ) {
            let c = CocktailSgd::standard();
            let mut rng = Rng::new(seed);
            let back = c.decompress(&c.compress(&data, &mut rng)).unwrap();
            prop_assert_eq!(back.len(), data.len());
            // Every reconstructed value is either 0 or within the 8-bit
            // quantization step of its original.
            let scale = compso_tensor::reduce::absmax_flat(&data);
            for (&x, &y) in data.iter().zip(&back) {
                if y != 0.0 {
                    prop_assert!((x - y).abs() <= scale / 127.0 + scale * 1e-4 + 1e-6);
                }
            }
        }
    }
}
