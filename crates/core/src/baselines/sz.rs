//! SZ-style prediction-based error-bounded lossy compression.
//!
//! §2.4: "SZ includes prediction, RN-based quantization, and Huffman
//! encoding. SZ uses the surroundings to predict a data value and
//! quantizes the prediction error." This is the 1D Lorenzo variant: the
//! predictor is the previously *decoded* value, the prediction error is
//! quantized with round-to-nearest at bin width `2·eb` (so the absolute
//! error never exceeds `eb`), unpredictable values fall out to a raw
//! outlier list, and the quantization codes are entropy coded.
//!
//! Entropy-coder note: cuSZ's Huffman runs over u16 *symbols* (a 65536-
//! entry codebook), so its per-value cost can exceed 1 bit only when the
//! code actually carries information. A byte-granularity Huffman would
//! floor at 1 bit per byte (2 bits per value) on the zero-dominated code
//! streams gradients produce; this port therefore uses rANS — an entropy
//! coder of the same role without the per-symbol floor — as the
//! capacity-faithful substitute (see DESIGN.md §1).

use crate::encoders::rans;
use crate::kernels::LayerSchedule;
use crate::quantize::codable_range;
use crate::traits::{CompressError, Compressor};
use crate::wire::{Reader, WireError, Writer};
use compso_obs::Recorder;
use compso_tensor::reduce::minmax_flat;
use compso_tensor::rng::Rng;
use compso_tensor::Instance;

/// Code values are zigzag-mapped into u16; this sentinel marks outliers.
const OUTLIER: u16 = u16::MAX;
/// Largest representable zigzag code (keeps the sentinel distinct).
const MAX_CODE: i64 = (OUTLIER as i64 - 1) / 2;

/// The SZ compressor with a range-relative error bound.
#[derive(Clone, Copy, Debug)]
pub struct Sz {
    /// Error bound relative to the buffer's value range (the paper's
    /// "4E-3, relative to value range" convention).
    pub eb_rel: f32,
}

impl Sz {
    /// Creates an SZ compressor.
    pub fn new(eb_rel: f32) -> Self {
        assert!(eb_rel > 0.0 && eb_rel < 1.0, "eb {eb_rel} out of (0,1)");
        Sz { eb_rel }
    }
}

#[inline]
fn zigzag(v: i64) -> u16 {
    debug_assert!(v.abs() <= MAX_CODE);
    (((v << 1) ^ (v >> 63)) & 0xFFFF) as u16
}

#[inline]
fn unzigzag(v: u16) -> i64 {
    let v = v as i64;
    (v >> 1) ^ -(v & 1)
}

impl Sz {
    /// One layer's block: count, absolute bound, the rANS-coded
    /// prediction-error codes, then the raw outliers. The bound is
    /// relative to the layer's [`codable_range`]; a value no code
    /// reaches from its prediction — an infinity, and the value after
    /// it — is an outlier, and NaN takes the prediction. `inst` runs the
    /// rANS coder; every instance writes the same bytes.
    pub(crate) fn encode(&self, inst: Instance, data: &[f32]) -> Vec<u8> {
        let range = codable_range(data, minmax_flat(data));
        let eb = self.eb_rel * (range.max - range.min);

        let mut codes: Vec<u16> = Vec::with_capacity(data.len());
        let mut outliers: Vec<f32> = Vec::new();
        if eb > 0.0 {
            let bin = 2.0 * eb as f64;
            let mut prev = 0.0f64; // predictor over *decoded* values
            for &v in data {
                let diff = v as f64 - prev;
                let code = (diff / bin).round_ties_even() as i64;
                if code.unsigned_abs() > MAX_CODE as u64 {
                    codes.push(OUTLIER);
                    outliers.push(v);
                    prev = v as f64;
                } else {
                    codes.push(zigzag(code));
                    prev += code as f64 * bin;
                }
            }
        } else {
            // Degenerate range: every finite value identical (or none) —
            // store the first value, saturated to the range, as a single
            // outlier.
            if let Some(&v0) = data.first() {
                codes.push(OUTLIER);
                outliers.push(v0.clamp(range.min, range.max));
                codes.extend(std::iter::repeat_n(zigzag(0), data.len() - 1));
            }
        }

        // Entropy-code the u16-LE code bytes; high bytes are almost
        // always zero, and rANS has no per-symbol bit floor (see the
        // module docs for why rANS stands in for cuSZ's u16 Huffman).
        let mut code_bytes = Vec::with_capacity(codes.len() * 2);
        for c in &codes {
            code_bytes.extend_from_slice(&c.to_le_bytes());
        }
        let enc_codes = rans::encode(inst, &code_bytes);

        let mut w = Writer::with_capacity(enc_codes.len() + outliers.len() * 4 + 32);
        w.u64(data.len() as u64);
        w.f32(eb);
        w.block(&enc_codes);
        w.u64(outliers.len() as u64);
        for &v in &outliers {
            w.f32(v);
        }
        w.into_bytes()
    }

    /// Inverse of [`Sz::encode`] (the block carries its own bound).
    pub fn decode(inst: Instance, bytes: &[u8]) -> Result<Vec<f32>, CompressError> {
        let mut r = Reader::new(bytes);
        let n = crate::wire::checked_count(r.u64()?)?;
        let eb = r.f32()?;
        if !eb.is_finite() || eb < 0.0 {
            return Err(WireError::Invalid("sz eb").into());
        }
        let code_bytes = rans::decode(inst, r.block()?)?;
        if code_bytes.len() != n * 2 {
            return Err(CompressError::Corrupt("sz code stream length"));
        }
        let n_outliers = crate::wire::checked_count(r.u64()?)?;
        if n_outliers > n {
            return Err(CompressError::Corrupt("sz outlier count"));
        }
        let mut outliers = Vec::with_capacity(n_outliers);
        for _ in 0..n_outliers {
            outliers.push(r.f32()?);
        }

        let bin = 2.0 * eb as f64;
        let mut out = Vec::with_capacity(n);
        let mut prev = 0.0f64;
        let mut next_outlier = 0usize;
        for i in 0..n {
            let code = u16::from_le_bytes([code_bytes[2 * i], code_bytes[2 * i + 1]]);
            if code == OUTLIER {
                let v = *outliers
                    .get(next_outlier)
                    .ok_or(CompressError::Corrupt("sz missing outlier"))?;
                next_outlier += 1;
                out.push(v);
                prev = v as f64;
            } else {
                prev += unzigzag(code) as f64 * bin;
                out.push(prev as f32);
            }
        }
        Ok(out)
    }
}

impl Compressor for Sz {
    fn name(&self) -> &'static str {
        "SZ"
    }

    /// Layer-parallel ([`super::compress_per_layer`]): SZ's predictor is per
    /// layer (the first value always predicts from 0) and deterministic,
    /// so the per-layer generators go unused. The instance is read once, on
    /// the calling thread, so [`Instance::pin`] reaches every layer.
    fn compress_group_keyed(
        &self,
        layers: &[(u64, &[f32])],
        _schedule: Option<&LayerSchedule>,
        rng: &mut Rng,
        _rec: &Recorder,
    ) -> Vec<u8> {
        let inst = Instance::current();
        super::compress_per_layer(layers, rng, |layer, _| self.encode(inst, layer))
    }

    fn decompress_group(
        &self,
        bytes: &[u8],
        _rec: &Recorder,
    ) -> Result<Vec<Vec<f32>>, CompressError> {
        let inst = Instance::current();
        super::decompress_per_layer(bytes, |block| Self::decode(inst, block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    // Explicit import: proptest's prelude also globs a `Rng` trait.
    use compso_tensor::rng::Rng;

    fn smooth_data(n: usize, seed: u64) -> Vec<f32> {
        // AR(1)-correlated data: the regime SZ's predictor exploits.
        let mut rng = Rng::new(seed);
        let mut v = 0.0f32;
        (0..n)
            .map(|_| {
                v = 0.95 * v + 0.05 * rng.normal_f32();
                v
            })
            .collect()
    }

    fn gradient_like(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| rng.laplace(0.01)).collect()
    }

    #[test]
    fn error_bound_contract() {
        for eb_rel in [1e-1f32, 4e-3, 1e-3] {
            let data = gradient_like(20_000, 1);
            let sz = Sz::new(eb_rel);
            let mut rng = Rng::new(2);
            let back = sz.decompress(&sz.compress(&data, &mut rng)).unwrap();
            let mm = compso_tensor::reduce::minmax_flat(&data);
            let range = mm.max - mm.min;
            for (&x, &y) in data.iter().zip(&back) {
                assert!(
                    (x - y).abs() <= eb_rel * range * 1.001 + 1e-7,
                    "eb={eb_rel}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data = smooth_data(100_000, 3);
        let sz = Sz::new(1e-2);
        let mut rng = Rng::new(4);
        let ratio = sz.ratio(&data, &mut rng);
        assert!(ratio > 6.0, "ratio {ratio}");
    }

    #[test]
    fn looser_bound_higher_ratio() {
        let data = gradient_like(100_000, 5);
        let mut rng = Rng::new(6);
        let loose = Sz::new(1e-1).ratio(&data, &mut rng);
        let tight = Sz::new(4e-3).ratio(&data, &mut rng);
        assert!(loose > tight, "loose {loose} tight {tight}");
    }

    #[test]
    fn deterministic() {
        // SZ uses RN: identical inputs give identical bytes.
        let data = gradient_like(5000, 7);
        let sz = Sz::new(1e-2);
        let mut rng = Rng::new(8);
        let a = sz.compress(&data, &mut rng);
        let b = sz.compress(&data, &mut rng);
        assert_eq!(a, b);
    }

    #[test]
    fn constant_and_empty_inputs() {
        let sz = Sz::new(1e-2);
        let mut rng = Rng::new(9);
        for data in [vec![], vec![5.5f32; 100]] {
            let back = sz.decompress(&sz.compress(&data, &mut rng)).unwrap();
            assert_eq!(back, data);
        }
    }

    #[test]
    fn outliers_are_exact() {
        // Huge jumps exceed the code range and go through the outlier path.
        let mut data = vec![0.0f32; 1000];
        data[500] = 1e7;
        data[501] = -1e7;
        let sz = Sz::new(1e-6);
        let mut rng = Rng::new(10);
        let back = sz.decompress(&sz.compress(&data, &mut rng)).unwrap();
        assert_eq!(back[500], 1e7);
        assert_eq!(back[501], -1e7);
    }

    #[test]
    fn truncation_detected() {
        let data = gradient_like(1000, 11);
        let sz = Sz::new(1e-2);
        let mut rng = Rng::new(12);
        let bytes = sz.compress(&data, &mut rng);
        for cut in [0usize, 4, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(sz.decompress(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [-MAX_CODE, -100, -1, 0, 1, 100, MAX_CODE] {
            assert_eq!(unzigzag(zigzag(v)), v, "v={v}");
        }
    }

    #[test]
    fn parallel_group_matches_per_layer_serial_and_roundtrips() {
        let layers: Vec<Vec<f32>> = vec![
            smooth_data(4000, 20),
            vec![],
            gradient_like(900, 21),
            vec![7.5f32; 50],
        ];
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let sz = Sz::new(4e-3);
        let rec = Recorder::disabled();
        let run = |inst: Instance, threads: usize| {
            let _pin = inst.pin();
            let _guard = rayon::scoped_thread_override(threads);
            let mut rng = Rng::new(22);
            sz.compress_group(&refs, None, &mut rng, &rec)
        };
        let bytes = run(Instance::Portable, 1);
        assert_eq!(bytes[0], crate::wire::magic::MAGIC_GROUP);
        // Every instance's rANS coder writes the portable bytes, at every
        // worker count.
        let here = Instance::ALL.into_iter().filter(|inst| inst.available());
        for inst in here.clone() {
            for threads in [1usize, 2, 4] {
                assert_eq!(run(inst, threads), bytes, "{inst:?}, threads={threads}");
            }
        }
        // One RNG rule for every layer-parallel family: the caller's
        // generator advances exactly once per group, even though SZ never
        // reads the per-layer forks.
        let mut rng = Rng::new(22);
        let _ = sz.compress_group(&refs, None, &mut rng, &rec);
        let mut once = Rng::new(22);
        once.next_u64();
        assert_eq!(rng.next_u64(), once.next_u64());
        let back = sz.decompress_group(&bytes, &rec).unwrap();
        for inst in here {
            let _pin = inst.pin();
            assert_eq!(sz.decompress_group(&bytes, &rec).unwrap(), back, "{inst:?}");
        }
        assert_eq!(back.len(), layers.len());
        for (li, (orig, dec)) in layers.iter().zip(&back).enumerate() {
            assert_eq!(orig.len(), dec.len(), "layer {li}");
            let mm = compso_tensor::reduce::minmax_flat(orig);
            let range = if orig.is_empty() {
                0.0
            } else {
                mm.max - mm.min
            };
            for (&x, &y) in orig.iter().zip(dec) {
                assert!(
                    (x - y).abs() <= 4e-3 * range * 1.001 + 1e-7,
                    "layer {li}: {x} vs {y}"
                );
            }
        }
        for cut in [0usize, 1, 3, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                sz.decompress_group(&bytes[..cut], &rec).is_err(),
                "cut={cut}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_error_bound(
            data in proptest::collection::vec(-100.0f32..100.0, 0..600),
            eb in 0.001f32..0.2,
        ) {
            let sz = Sz::new(eb);
            let mut rng = Rng::new(1);
            let back = sz.decompress(&sz.compress(&data, &mut rng)).unwrap();
            prop_assert_eq!(back.len(), data.len());
            let mm = compso_tensor::reduce::minmax_flat(&data);
            let range = if data.is_empty() { 0.0 } else { mm.max - mm.min };
            for (&x, &y) in data.iter().zip(&back) {
                prop_assert!((x - y).abs() <= eb * range + range * 1e-5 + 1e-6);
            }
        }
    }
}
