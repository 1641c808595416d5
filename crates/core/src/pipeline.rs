//! The COMPSO compression pipeline (Fig. 4a, Alg. 1).
//!
//! A [`Compso`] instance fixes one compression *strategy* — filter bound,
//! quantizer bound, rounding mode, lossless codec. The iteration-wise
//! adaptive mechanism ([`crate::adaptive`]) swaps strategies across
//! training; the layer-wise mechanism aggregates several layers per call
//! via [`Compso::compress_layers`] while keeping each layer's
//! normalization range separate (the GPU implementation's "padded shared
//! memory" rule, §4.5).

use crate::bitmap::Bitmap;
use crate::encoders::Codec;
use crate::filter::{filter, unfilter};
use crate::quantize::{Quantized, Quantizer};
use crate::rounding::RoundingMode;
use crate::traits::{CompressError, Compressor};
use crate::wire::{Reader, WireError, Writer};
use compso_obs::{names, Recorder};
use compso_tensor::rng::Rng;

/// Magic byte opening every COMPSO stream (registered as
/// [`crate::wire::magic::MAGIC_STREAM_V1`]).
pub const MAGIC: u8 = crate::wire::magic::MAGIC_STREAM_V1;
/// Wire format version.
pub const VERSION: u8 = 1;

const FLAG_FILTER: u8 = 0b0000_0001;

/// One COMPSO compression strategy.
#[derive(Clone, Copy, Debug)]
pub struct CompsoConfig {
    /// Filter bound, relative to the layer's value range. `None` disables
    /// the filter branch (the "conservative, SR-only" mode of §5.1).
    pub eb_filter: Option<f32>,
    /// Quantizer bound, relative to the surviving values' range.
    pub eb_quant: f32,
    /// Rounding rule for the quantizer (SR for COMPSO proper; RN and P0.5
    /// exist for the §4.2 ablation).
    pub mode: RoundingMode,
    /// Lossless encoder applied to the bitmap and the packed codes.
    pub codec: Codec,
}

impl CompsoConfig {
    /// The paper's aggressive strategy: filter + SR at a loose bound
    /// (4E-3 in the ResNet-50/Mask R-CNN experiments).
    pub fn aggressive(eb: f32) -> Self {
        CompsoConfig {
            eb_filter: Some(eb),
            eb_quant: eb,
            mode: RoundingMode::Stochastic,
            codec: Codec::Ans,
        }
    }

    /// The paper's conservative strategy: SR only, no filtering.
    pub fn conservative(eb: f32) -> Self {
        CompsoConfig {
            eb_filter: None,
            eb_quant: eb,
            mode: RoundingMode::Stochastic,
            codec: Codec::Ans,
        }
    }

    /// Replaces the lossless codec (encoder selection, §4.4).
    pub fn with_codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
        self
    }

    /// Replaces the rounding mode (§4.2 ablations).
    pub fn with_mode(mut self, mode: RoundingMode) -> Self {
        self.mode = mode;
        self
    }
}

impl Default for CompsoConfig {
    fn default() -> Self {
        CompsoConfig::aggressive(4e-3)
    }
}

/// The COMPSO compressor.
#[derive(Clone, Copy, Debug, Default)]
pub struct Compso {
    /// The active strategy.
    pub config: CompsoConfig,
}

impl Compso {
    /// Creates a compressor with the given strategy.
    pub fn new(config: CompsoConfig) -> Self {
        Compso { config }
    }

    /// Serializes one layer's payload (bitmap? + quantized codes) into `w`.
    /// The bitmap and code streams stay *unencoded* here; the caller
    /// aggregates across layers before invoking the lossless codec, which
    /// is exactly the layer-aggregation mechanism of §4.4.
    fn encode_layer(
        &self,
        data: &[f32],
        rng: &mut Rng,
        bitmaps: &mut Vec<u8>,
        codes: &mut Writer,
        rec: &Recorder,
    ) {
        let mm = compso_tensor::reduce::minmax_flat(data);
        let range = if data.is_empty() {
            0.0
        } else {
            mm.max - mm.min
        };

        let filtered = {
            let _span = rec.span(names::CORE_FILTER);
            match self.config.eb_filter {
                Some(ebf) if range > 0.0 => Some(filter(data, ebf * range)),
                _ => None,
            }
        };

        codes.u64(data.len() as u64);
        match &filtered {
            Some(f) => {
                codes.u8(1);
                bitmaps.extend_from_slice(&f.bitmap.to_bytes());
            }
            None => codes.u8(0),
        }
        // The no-filter branch quantizes `data` in place — no `to_vec`
        // copy of the whole layer on the hot path.
        let kept: &[f32] = filtered.as_ref().map_or(data, |f| f.kept.as_slice());
        let _span = rec.span(names::CORE_QUANTIZE);
        let quantizer = Quantizer::relative(self.config.eb_quant, self.config.mode);
        let quant = quantizer.quantize(kept, rng);
        quant.write(codes);
    }

    /// Deserializes one layer written by [`Compso::encode_layer`].
    fn decode_layer(codes: &mut Reader, bitmaps: &mut Reader) -> Result<Vec<f32>, CompressError> {
        let n = usize::try_from(codes.u64()?).map_err(|_| WireError::Invalid("layer length"))?;
        let has_bitmap = match codes.u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::Invalid("bitmap flag").into()),
        };
        let bitmap = if has_bitmap {
            let bytes = bitmaps.bytes(n.div_ceil(8))?;
            Some(Bitmap::from_bytes(n, bytes)?)
        } else {
            None
        };
        let quant = Quantized::read(codes)?;
        let kept = quant.dequantize();
        match bitmap {
            Some(b) => {
                if kept.len() != b.count_zeros() {
                    return Err(CompressError::Corrupt("kept count vs bitmap"));
                }
                Ok(unfilter(&b, &kept))
            }
            None => {
                if kept.len() != n {
                    return Err(CompressError::Corrupt("value count vs layer length"));
                }
                Ok(kept)
            }
        }
    }

    /// Compresses several layers as one aggregated unit (§4.4's
    /// layer-aggregation factor `m`). Each layer keeps its own
    /// normalization range; the bitmap and code streams are concatenated
    /// across layers before the single lossless-encoder invocation.
    ///
    /// Phase timings and traffic counters go to `rec`: spans
    /// `core/filter`, `core/quantize`, `core/encode`; counters
    /// `core/bytes_in` (uncompressed f32 bytes) and `core/bytes_out` (wire
    /// bytes), whose running quotient is the live compression ratio.
    pub fn compress_layers(&self, layers: &[&[f32]], rng: &mut Rng, rec: &Recorder) -> Vec<u8> {
        // Pre-size both working buffers from the layer sizes: the bitmap
        // stream is exactly one bit per element when the filter runs, and
        // the code stream is bounded by ~2 bytes/element plus small
        // per-layer headers for the bounds used here — so the hot path
        // reallocates (almost) never instead of doubling repeatedly.
        let total: usize = layers.iter().map(|l| l.len()).sum();
        let bitmap_cap = if self.config.eb_filter.is_some() {
            layers.iter().map(|l| l.len().div_ceil(8)).sum()
        } else {
            0
        };
        let mut bitmaps: Vec<u8> = Vec::with_capacity(bitmap_cap);
        let mut codes = Writer::with_capacity(total * 2 + layers.len() * 32);
        for layer in layers {
            self.encode_layer(layer, rng, &mut bitmaps, &mut codes, rec);
        }
        let out = {
            let _span = rec.span(names::CORE_ENCODE);
            let enc_bitmaps = self.config.codec.encode(&bitmaps);
            let enc_codes = self.config.codec.encode(&codes.into_bytes());

            let mut w = Writer::with_capacity(enc_bitmaps.len() + enc_codes.len() + 32);
            w.u8(MAGIC);
            w.u8(VERSION);
            w.u8(self.config.codec.tag());
            w.u8(if self.config.eb_filter.is_some() {
                FLAG_FILTER
            } else {
                0
            });
            w.u32(layers.len() as u32);
            w.block(&enc_bitmaps);
            w.block(&enc_codes);
            w.into_bytes()
        };
        if rec.is_enabled() {
            let n: usize = layers.iter().map(|l| l.len()).sum();
            rec.add(names::CORE_BYTES_IN, (n * 4) as u64);
            rec.add(names::CORE_BYTES_OUT, out.len() as u64);
        }
        out
    }

    /// Inverse of [`Compso::compress_layers`], timed under the
    /// `core/decode` span with incoming wire bytes counted in
    /// `core/decode_bytes_in`.
    pub fn decompress_layers(
        &self,
        bytes: &[u8],
        rec: &Recorder,
    ) -> Result<Vec<Vec<f32>>, CompressError> {
        let _span = rec.span(names::CORE_DECODE);
        rec.add(names::CORE_DECODE_BYTES_IN, bytes.len() as u64);
        let mut r = Reader::new(bytes);
        if r.u8()? != MAGIC {
            return Err(WireError::Invalid("magic byte").into());
        }
        if r.u8()? != VERSION {
            return Err(WireError::Invalid("version").into());
        }
        let codec = Codec::from_tag(r.u8()?).ok_or(WireError::Invalid("codec tag"))?;
        let _flags = r.u8()?;
        let n_layers = crate::wire::checked_count(r.u32()? as u64)?;
        let bitmaps = codec.decode(r.block()?)?;
        let codes = codec.decode(r.block()?)?;
        if !r.is_exhausted() {
            return Err(CompressError::Corrupt("trailing bytes"));
        }
        let mut bitmaps_r = Reader::new(&bitmaps);
        let mut codes_r = Reader::new(&codes);
        let mut out = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            out.push(Self::decode_layer(&mut codes_r, &mut bitmaps_r)?);
        }
        Ok(out)
    }
}

impl Compressor for Compso {
    fn name(&self) -> &'static str {
        "COMPSO"
    }

    /// The serial pipeline has its own native multi-layer aggregation
    /// (§4.4); keys and the chunk schedule mean nothing to it.
    fn compress_group_keyed(
        &self,
        layers: &[(u64, &[f32])],
        _schedule: Option<&crate::kernels::LayerSchedule>,
        rng: &mut Rng,
        rec: &Recorder,
    ) -> Vec<u8> {
        let layers: Vec<&[f32]> = layers.iter().map(|&(_, l)| l).collect();
        self.compress_layers(&layers, rng, rec)
    }

    fn decompress_group(
        &self,
        bytes: &[u8],
        rec: &Recorder,
    ) -> Result<Vec<Vec<f32>>, CompressError> {
        self.decompress_layers(bytes, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    // Explicit import: proptest's prelude also globs a `Rng` trait.
    use compso_tensor::rng::Rng;

    /// K-FAC-shaped gradients (heavy zero mass, wide outlier-driven
    /// range); the `scale` argument scales the whole stream.
    fn gradient_like(n: usize, seed: u64, scale: f32) -> Vec<f32> {
        let mut data =
            crate::synthetic::generate(n, seed, crate::synthetic::GradientProfile::kfac());
        let k = scale / 0.004;
        for v in &mut data {
            *v *= k;
        }
        data
    }

    #[test]
    fn roundtrip_error_contract_aggressive() {
        let data = gradient_like(50_000, 1, 0.01);
        let eb = 4e-3f32;
        let compso = Compso::new(CompsoConfig::aggressive(eb));
        let mut rng = Rng::new(2);
        let bytes = compso.compress(&data, &mut rng);
        let back = compso.decompress(&bytes).unwrap();
        assert_eq!(back.len(), data.len());
        let mm = compso_tensor::reduce::minmax_flat(&data);
        let range = mm.max - mm.min;
        for (i, (&x, &y)) in data.iter().zip(&back).enumerate() {
            if y == 0.0 {
                // Filtered: original must have been below the filter bound.
                assert!(x.abs() <= eb * range * 1.001, "i={i} x={x}");
            } else {
                // Quantized: within the quantizer bound of the kept range.
                assert!(
                    (x - y).abs() <= eb * range * 1.01 + 1e-7,
                    "i={i} {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn conservative_mode_never_zeroes_large_values() {
        let data = gradient_like(10_000, 3, 0.1);
        let compso = Compso::new(CompsoConfig::conservative(4e-3));
        let mut rng = Rng::new(4);
        let back = compso
            .decompress(&compso.compress(&data, &mut rng))
            .unwrap();
        // No filter: every element reconstructs within the quantizer bound.
        let mm = compso_tensor::reduce::minmax_flat(&data);
        let range = mm.max - mm.min;
        for (&x, &y) in data.iter().zip(&back) {
            assert!((x - y).abs() <= 4e-3 * range + 1e-6);
        }
    }

    #[test]
    fn achieves_high_compression_ratio_on_gradients() {
        // The headline claim: >20x on K-FAC-gradient-like data.
        let data = gradient_like(200_000, 5, 0.005);
        let compso = Compso::new(CompsoConfig::aggressive(4e-3));
        let mut rng = Rng::new(6);
        let ratio = compso.ratio(&data, &mut rng);
        assert!(ratio > 10.0, "ratio {ratio}");
    }

    #[test]
    fn filter_improves_ratio_over_sr_only() {
        let data = gradient_like(100_000, 7, 0.005);
        let mut rng = Rng::new(8);
        let with_filter = Compso::new(CompsoConfig::aggressive(4e-3)).ratio(&data, &mut rng);
        let without = Compso::new(CompsoConfig::conservative(4e-3)).ratio(&data, &mut rng);
        assert!(
            with_filter > without,
            "filter {with_filter} vs sr-only {without}"
        );
    }

    #[test]
    fn layer_aggregation_roundtrip() {
        let l1 = gradient_like(1000, 9, 0.01);
        let l2 = gradient_like(5000, 10, 1.0); // very different range
        let l3 = vec![0.0f32; 100];
        let l4: Vec<f32> = Vec::new();
        let compso = Compso::new(CompsoConfig::aggressive(4e-3));
        let mut rng = Rng::new(11);
        let bytes = compso.compress_layers(&[&l1, &l2, &l3, &l4], &mut rng, &Recorder::disabled());
        let back = compso
            .decompress_layers(&bytes, &Recorder::disabled())
            .unwrap();
        assert_eq!(back.len(), 4);
        assert_eq!(back[0].len(), 1000);
        assert_eq!(back[1].len(), 5000);
        assert!(back[2].iter().all(|&v| v == 0.0));
        assert!(back[3].is_empty());
        // Per-layer ranges stayed separate: the small-scale layer must not
        // be destroyed by the large-scale layer's range.
        let mm1 = compso_tensor::reduce::minmax_flat(&l1);
        let range1 = mm1.max - mm1.min;
        for (&x, &y) in l1.iter().zip(&back[0]) {
            assert!((x - y).abs() <= 4e-3 * range1 * 1.01 + 1e-7, "{x} vs {y}");
        }
    }

    #[test]
    fn aggregation_amortizes_headers_on_small_layers() {
        // The aggregation win: one codec invocation (one header, one
        // frequency table) across many small layers, vs. per-layer fixed
        // costs. This is why §4.4 aggregates small layers before
        // compression.
        let layers: Vec<Vec<f32>> = (0..64).map(|i| gradient_like(400, 20 + i, 0.01)).collect();
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let compso = Compso::new(CompsoConfig::aggressive(4e-3));
        let mut rng = Rng::new(30);
        let together = compso
            .compress_layers(&refs, &mut rng, &Recorder::disabled())
            .len();
        let separate: usize = refs
            .iter()
            .map(|l| {
                compso
                    .compress_layers(&[l], &mut rng, &Recorder::disabled())
                    .len()
            })
            .sum();
        // Per-layer fixed costs are already small (codecs fall back to
        // stored blocks on tiny inputs), so the win is real but modest.
        assert!(
            together < separate,
            "together {together} separate {separate}"
        );
    }

    #[test]
    fn aggregation_ratio_cost_is_bounded_on_large_layers() {
        // On large layers with shifted per-layer code distributions, the
        // shared entropy table can cost some ratio; that cost must stay
        // modest (the latency/throughput win is what aggregation buys).
        let layers: Vec<Vec<f32>> = (0..8)
            .map(|i| gradient_like(20_000, 20 + i, 0.01))
            .collect();
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let compso = Compso::new(CompsoConfig::aggressive(4e-3));
        let mut rng = Rng::new(30);
        let together = compso
            .compress_layers(&refs, &mut rng, &Recorder::disabled())
            .len();
        let separate: usize = refs
            .iter()
            .map(|l| {
                compso
                    .compress_layers(&[l], &mut rng, &Recorder::disabled())
                    .len()
            })
            .sum();
        assert!(
            (together as f64) < separate as f64 * 1.5,
            "together {together} separate {separate}"
        );
    }

    #[test]
    fn all_codecs_work_in_pipeline() {
        let data = gradient_like(5000, 40, 0.01);
        for codec in Codec::all() {
            let compso = Compso::new(CompsoConfig::aggressive(4e-3).with_codec(codec));
            let mut rng = Rng::new(41);
            let bytes = compso.compress(&data, &mut rng);
            let back = compso.decompress(&bytes).unwrap();
            assert_eq!(back.len(), data.len(), "{}", codec.name());
        }
    }

    #[test]
    fn empty_and_constant_inputs() {
        let compso = Compso::default();
        let mut rng = Rng::new(50);
        for data in [vec![], vec![0.0f32; 100], vec![7.5f32; 64]] {
            let bytes = compso.compress(&data, &mut rng);
            let back = compso.decompress(&bytes).unwrap();
            assert_eq!(back.len(), data.len());
            for (&x, &y) in data.iter().zip(&back) {
                assert_eq!(x, y, "degenerate inputs are exact");
            }
        }
    }

    #[test]
    fn corrupt_magic_rejected() {
        let data = gradient_like(100, 60, 0.01);
        let compso = Compso::default();
        let mut rng = Rng::new(61);
        let mut bytes = compso.compress(&data, &mut rng);
        bytes[0] = 0x00;
        assert!(compso.decompress(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let data = gradient_like(2000, 62, 0.01);
        let compso = Compso::default();
        let mut rng = Rng::new(63);
        let bytes = compso.compress(&data, &mut rng);
        for cut in [0usize, 1, 3, 7, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(compso.decompress(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn smaller_eb_means_lower_ratio_higher_fidelity() {
        let data = gradient_like(100_000, 64, 0.01);
        let mut rng = Rng::new(65);
        let loose = Compso::new(CompsoConfig::aggressive(1e-1)).ratio(&data, &mut rng);
        let tight = Compso::new(CompsoConfig::aggressive(4e-3)).ratio(&data, &mut rng);
        assert!(loose > tight, "loose {loose} tight {tight}");
    }

    #[test]
    fn recorded_compression_tracks_phases_and_traffic() {
        let data = gradient_like(30_000, 70, 0.01);
        let compso = Compso::new(CompsoConfig::aggressive(4e-3));
        let mut rng = Rng::new(71);
        let rec = compso_obs::Recorder::enabled();
        let bytes = compso.compress_layers(&[&data], &mut rng, &rec);
        let back = compso.decompress_layers(&bytes, &rec).unwrap();
        assert_eq!(back[0].len(), data.len());
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter(compso_obs::names::CORE_BYTES_IN),
            (data.len() * 4) as u64
        );
        assert_eq!(
            snap.counter(compso_obs::names::CORE_BYTES_OUT),
            bytes.len() as u64
        );
        assert_eq!(
            snap.counter(compso_obs::names::CORE_DECODE_BYTES_IN),
            bytes.len() as u64
        );
        for name in [
            compso_obs::names::CORE_FILTER,
            compso_obs::names::CORE_QUANTIZE,
            compso_obs::names::CORE_ENCODE,
            compso_obs::names::CORE_DECODE,
        ] {
            assert!(snap.timers[name].count > 0, "{name} never timed");
        }
        // Recording never changes the bytes.
        let mut rng2 = Rng::new(71);
        assert_eq!(
            bytes,
            compso.compress_layers(&[&data], &mut rng2, &Recorder::disabled())
        );
    }

    #[test]
    fn disabled_recorder_leaves_output_unchanged() {
        let data = gradient_like(5000, 80, 0.01);
        let compso = Compso::default();
        let rec = compso_obs::Recorder::disabled();
        let mut rng = Rng::new(81);
        let a = compso.compress_layers(&[&data], &mut rng, &rec);
        let mut rng = Rng::new(81);
        let b = compso.compress_layers(&[&data], &mut rng, &Recorder::enabled());
        assert_eq!(a, b);
        assert!(rec.snapshot().counters.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_roundtrip_length_and_bound(
            data in proptest::collection::vec(-10.0f32..10.0, 0..2000),
            seed in any::<u64>(),
        ) {
            let eb = 0.01f32;
            let compso = Compso::new(CompsoConfig::aggressive(eb));
            let mut rng = Rng::new(seed);
            let bytes = compso.compress(&data, &mut rng);
            let back = compso.decompress(&bytes).unwrap();
            prop_assert_eq!(back.len(), data.len());
            let mm = compso_tensor::reduce::minmax_flat(&data);
            let range = if data.is_empty() { 0.0 } else { mm.max - mm.min };
            for (&x, &y) in data.iter().zip(&back) {
                if y == 0.0 {
                    prop_assert!(x.abs() <= eb * range + range * 1e-5 + 1e-6);
                } else {
                    prop_assert!((x - y).abs() <= eb * range + range * 1e-5 + 1e-6);
                }
            }
        }
    }
}
