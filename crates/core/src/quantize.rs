//! The error-bounded quantizer (step 2-1 of Fig. 4a).
//!
//! Unlike fixed-rate schemes (QSGD's 4/8-bit), COMPSO derives the number
//! of quantization bins from the error bound: with a relative bound
//! `eb = 1e-2` the value range is divided into `⌈1/eb⌉ = 100` bins of
//! width `eb × range`, representable in 7 bits (§4.3). Any rounding mode
//! from [`crate::rounding`] can sit on top; the error contract is
//! `|x − x̂| ≤ eb × range` for every element (SR errs by at most one bin,
//! RN by half a bin).

use crate::bitpack;
use crate::microkernel;
use crate::rounding::RoundingMode;
use crate::wire::Writer;
#[cfg(test)]
use crate::{
    traits::CompressError,
    wire::{Reader, WireError},
};
use compso_tensor::reduce::{minmax_flat, MinMax};
use compso_tensor::rng::Rng;

/// The grid of a bound `eb` over `[lo, hi]` for `n` values: the bin
/// width and the largest code. The width is `eb × (hi − lo)`, the SZ
/// convention the paper uses for all its error-bound numbers (e.g.
/// "4E-3, relative to value range"); a constant range or no values is the
/// degenerate grid `(0.0, 0)`.
///
/// A bound over a subnormal range (`[0.0, 1e-44]` at `4e-3`) underflows
/// the product to zero; the bin width is then the smallest positive f32,
/// the tightest bound such data can be held to.
pub(crate) fn grid(eb: f32, lo: f32, hi: f32, n: usize) -> (f32, u32) {
    assert!(hi >= lo, "invalid range [{lo}, {hi}]");
    let range = hi - lo;
    if range == 0.0 || n == 0 {
        return (0.0, 0);
    }
    let w = eb * range;
    let bin_width = if w == 0.0 && eb > 0.0 {
        f32::from_bits(1)
    } else {
        w
    };
    assert!(bin_width > 0.0, "error bound collapsed to zero");
    (bin_width, (range as f64 / bin_width as f64).ceil() as u32)
}

/// The range a codec codes `data` over, from `scan`, a min/max scan of
/// it: the min and max of its finite values, `[0, 0]` where it has none
/// (empty, all NaN, all ±Inf), and both ends clamped to ±`f32::MAX / 2`
/// where their span overflows, so `hi − lo` is always finite and every
/// header an encoder derives from it decodes. The quantizers saturate a
/// value outside the range to its nearer end and give NaN the lowest
/// code (DESIGN.md §9.7). A finite `scan` span is the range as it
/// stands, so only a layer holding an infinity (or nothing but NaN) is
/// scanned again.
pub(crate) fn codable_range(data: &[f32], scan: MinMax) -> MinMax {
    if (scan.max - scan.min).is_finite() {
        return scan;
    }
    let (min, max) = (data.iter().filter(|x| x.is_finite()))
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    if min > max {
        MinMax { min: 0.0, max: 0.0 }
    } else if (max - min).is_finite() {
        MinMax { min, max }
    } else {
        let half = f32::MAX / 2.0;
        MinMax {
            min: min.max(-half),
            max: max.min(half),
        }
    }
}

/// An error-bounded uniform quantizer with a pluggable rounding mode.
#[derive(Clone, Copy, Debug)]
pub struct Quantizer {
    /// The error bound, relative to the value range.
    pub eb: f32,
    /// The rounding rule.
    pub mode: RoundingMode,
}

/// Quantized representation of one block of values.
#[derive(Clone, Debug, PartialEq)]
pub struct Quantized {
    /// Bin indices, one per input element, each in `0..=n_bins`.
    pub codes: Vec<u32>,
    /// Lower end of the value range (the code-0 reconstruction point).
    pub lo: f32,
    /// Bin width in value units.
    pub bin_width: f32,
    /// Largest valid code.
    pub n_bins: u32,
}

impl Quantizer {
    /// Creates a quantizer with a range-relative bound.
    pub fn relative(eb: f32, mode: RoundingMode) -> Self {
        assert!(
            eb > 0.0 && eb < 1.0,
            "relative error bound {eb} out of (0,1)"
        );
        Quantizer { eb, mode }
    }

    /// Quantizes `data` over its [`codable_range`].
    pub fn quantize(&self, data: &[f32], rng: &mut Rng) -> Quantized {
        let range = codable_range(data, minmax_flat(data));
        self.quantize_with_range(data, range.min, range.max, rng)
    }

    /// Quantizes `data` against an externally supplied range with
    /// [`microkernel::quantize_kernel`], on the grid the chunk kernels
    /// use. A degenerate grid draws nothing: every code is 0, `lo`.
    pub(crate) fn quantize_with_range(
        &self,
        data: &[f32],
        lo: f32,
        hi: f32,
        rng: &mut Rng,
    ) -> Quantized {
        let (bin_width, n_bins) = grid(self.eb, lo, hi, data.len());
        let mut codes = vec![0; data.len()];
        if bin_width > 0.0 {
            let inv_w = 1.0 / bin_width as f64;
            microkernel::quantize_kernel(data, lo, inv_w, n_bins, self.mode, rng, &mut codes);
        }
        Quantized {
            codes,
            lo,
            bin_width,
            n_bins,
        }
    }
}

/// Rounds each value's grid coordinate `(x − lo) / bin_width` by `mode`
/// and clamps it to `0..=n_bins`: the scalar oracle of
/// [`microkernel::quantize_kernel`].
#[cfg(test)]
pub(crate) fn quantize_on_grid(
    data: &[f32],
    lo: f32,
    bin_width: f32,
    n_bins: u32,
    mode: RoundingMode,
    rng: &mut Rng,
) -> Quantized {
    let inv_w = 1.0 / bin_width as f64;
    let codes = data
        .iter()
        .map(|&x| {
            let coord = (x as f64 - lo as f64) * inv_w;
            let c = mode.round(coord, rng);
            c.clamp(0, n_bins as i64) as u32
        })
        .collect();
    Quantized {
        codes,
        lo,
        bin_width,
        n_bins,
    }
}

impl Quantized {
    /// Bits per code.
    pub fn bits(&self) -> u32 {
        bitpack::bits_for(self.n_bins)
    }

    /// Reconstructs the values.
    pub fn dequantize(&self) -> Vec<f32> {
        self.codes
            .iter()
            .map(|&c| (self.lo as f64 + c as f64 * self.bin_width as f64) as f32)
            .collect()
    }

    /// Writes the record (DESIGN.md §8.2) — range start, bin width,
    /// largest code, count, then one low byte per code — and returns the
    /// codes' bits past 8 ([`bitpack::split`]), which travel in a plane
    /// stream of their own: empty for codes that fit a byte. A constant
    /// block (no bins) carries no code bytes at all.
    #[must_use = "the plane bytes are the codes' high bits"]
    pub fn write(&self, w: &mut Writer) -> Vec<u8> {
        w.f32(self.lo);
        w.f32(self.bin_width);
        w.u32(self.n_bins);
        w.u64(self.codes.len() as u64);
        if self.n_bins == 0 {
            return Vec::new();
        }
        let bias = bitpack::split_bias(self.lo, self.bin_width, self.n_bins);
        let (low, planes) = bitpack::split(&self.codes, self.bits(), bias);
        w.bytes(&low);
        planes
    }

    /// Test oracle: reads a record written by [`Quantized::write`] from
    /// `r` and its plane bytes, which must be exactly as long as its
    /// codes need, refusing an element count above `max_count`.
    ///
    /// The degenerate `n_bins == 0` encoding (constant-valued blocks)
    /// carries *no* code bytes — that is the whole point of the encoding —
    /// so its element count cannot be validated against the remaining
    /// buffer the way stored codes can; the cap keeps a hostile count in
    /// a corrupted stream from driving an oversized allocation. The
    /// chunked decoder inlines these checks; the tests hold it to this
    /// reader.
    #[cfg(test)]
    pub(crate) fn read_capped(
        r: &mut Reader,
        planes: &[u8],
        max_count: usize,
    ) -> Result<Self, CompressError> {
        let lo = r.f32()?;
        let bin_width = r.f32()?;
        let n_bins = r.u32()?;
        let count = crate::wire::checked_count(r.u64()?)?;
        if count > max_count {
            return Err(WireError::Invalid("quantized count over cap").into());
        }
        if !lo.is_finite() || !bin_width.is_finite() || bin_width < 0.0 {
            return Err(WireError::Invalid("quantized header").into());
        }
        let bits = bitpack::bits_for(n_bins);
        let stored = if n_bins == 0 { 0 } else { count };
        let low = r.bytes(stored)?;
        if planes.len() != (stored * bitpack::plane_width(bits) as usize).div_ceil(8) {
            return Err(CompressError::Corrupt("chunk plane length"));
        }
        let bias = bitpack::split_bias(lo, bin_width, n_bins);
        let mut codes = bitpack::unsplit(low, planes, bits, bias)?;
        if codes.iter().any(|&c| c > n_bins) {
            return Err(WireError::Invalid("quantized code out of range").into());
        }
        codes.resize(count, 0);
        Ok(Quantized {
            codes,
            lo,
            bin_width,
            n_bins,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    // Explicit import: proptest's prelude also globs a `Rng` trait.
    use compso_tensor::rng::Rng;

    fn sample_data(n: usize, seed: u64, lo: f32, hi: f32) -> Vec<f32> {
        let mut rng = Rng::new(seed);
        let mut v = vec![0.0f32; n];
        rng.fill_uniform(&mut v, lo, hi);
        v
    }

    #[test]
    fn paper_example_100_bins_7_bits() {
        let q = Quantizer::relative(1e-2, RoundingMode::Stochastic);
        let mut rng = Rng::new(1);
        let data = sample_data(1000, 2, -1.0, 1.0);
        let quant = q.quantize(&data, &mut rng);
        // ceil(1/1e-2) = 100 bins -> 7 bits, as §4.3 describes.
        assert_eq!(quant.n_bins, 100);
        assert_eq!(quant.bits(), 7);
    }

    #[test]
    fn error_bound_contract_all_modes() {
        for mode in [
            RoundingMode::Nearest,
            RoundingMode::Stochastic,
            RoundingMode::HalfProbability,
        ] {
            let eb = 4e-3f32;
            let q = Quantizer::relative(eb, mode);
            let mut rng = Rng::new(3);
            let data = sample_data(20_000, 4, -0.3, 0.7);
            let quant = q.quantize(&data, &mut rng);
            let back = quant.dequantize();
            let range = 1.0f32; // hi - lo of the sample distribution, approx
            for (i, (&x, &y)) in data.iter().zip(&back).enumerate() {
                assert!(
                    (x - y).abs() <= eb * range * 1.01 + 1e-7,
                    "{mode:?} i={i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn stochastic_quantization_is_unbiased_in_aggregate() {
        let q = Quantizer::relative(0.05, RoundingMode::Stochastic);
        let mut rng = Rng::new(7);
        let data = sample_data(200_000, 8, -1.0, 1.0);
        let quant = q.quantize(&data, &mut rng);
        let back = quant.dequantize();
        let bias: f64 = data
            .iter()
            .zip(&back)
            .map(|(&x, &y)| (y - x) as f64)
            .sum::<f64>()
            / data.len() as f64;
        // SR is unbiased; mean reconstruction error should vanish.
        assert!(bias.abs() < 5e-4, "bias {bias}");
    }

    #[test]
    fn nearest_quantization_is_biased_less_than_half_bin() {
        let q = Quantizer::relative(0.05, RoundingMode::Nearest);
        let mut rng = Rng::new(9);
        let data = sample_data(50_000, 10, 0.0, 1.0);
        let quant = q.quantize(&data, &mut rng);
        let back = quant.dequantize();
        for (&x, &y) in data.iter().zip(&back) {
            assert!((x - y).abs() <= 0.5 * quant.bin_width + 1e-6);
        }
    }

    #[test]
    fn constant_data_degenerates_gracefully() {
        let q = Quantizer::relative(0.01, RoundingMode::Stochastic);
        let mut rng = Rng::new(11);
        let data = vec![3.75f32; 100];
        let quant = q.quantize(&data, &mut rng);
        assert_eq!(quant.n_bins, 0);
        assert!(quant.dequantize().iter().all(|&v| v == 3.75));
    }

    #[test]
    fn empty_data() {
        let q = Quantizer::relative(0.01, RoundingMode::Nearest);
        let mut rng = Rng::new(12);
        let quant = q.quantize(&[], &mut rng);
        assert!(quant.codes.is_empty());
        assert!(quant.dequantize().is_empty());
    }

    #[test]
    fn wire_roundtrip() {
        let q = Quantizer::relative(2e-3, RoundingMode::Stochastic);
        let mut rng = Rng::new(13);
        let data = sample_data(777, 14, -5.0, 2.0);
        let quant = q.quantize(&data, &mut rng);
        assert_eq!(quant.bits(), 9);
        let mut w = Writer::new();
        let planes = quant.write(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            (bytes.len(), planes.len()),
            (20 + 777, 777usize.div_ceil(8))
        );
        let mut r = Reader::new(&bytes);
        let back = Quantized::read_capped(&mut r, &planes, data.len()).unwrap();
        assert_eq!(back, quant);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_wire_rejected() {
        let q = Quantizer::relative(1e-2, RoundingMode::Nearest);
        let mut rng = Rng::new(15);
        let data = sample_data(100, 16, -1.0, 1.0);
        let quant = q.quantize(&data, &mut rng);
        let mut w = Writer::new();
        let planes = quant.write(&mut w);
        let bytes = w.into_bytes();
        for cut in [0usize, 3, 8, 15, bytes.len() - 1] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                Quantized::read_capped(&mut r, &planes, data.len()).is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn hostile_constant_block_count_is_capped() {
        // A constant block (n_bins == 0) carries no code bytes, so its
        // count field is the one length a reader cannot check against the
        // buffer. `read_capped` bounds it with caller context instead.
        let mut w = Writer::new();
        w.f32(1.0); // lo
        w.f32(0.0); // bin_width
        w.u32(0); // n_bins: constant encoding
        w.u64(1 << 27); // hostile: claims 128Mi elements backed by nothing
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            Quantized::read_capped(&mut r, &[], 1024),
            Err(WireError::Invalid("quantized count over cap").into())
        );
        // The honest count decodes fine under the same cap.
        let mut w = Writer::new();
        w.f32(1.0);
        w.f32(0.0);
        w.u32(0);
        w.u64(1024);
        let bytes = w.into_bytes();
        let q = Quantized::read_capped(&mut Reader::new(&bytes), &[], 1024).unwrap();
        assert_eq!(q.codes.len(), 1024);
        assert!(q.dequantize().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn quantizer_rounds_as_the_scalar_oracle_on_its_grid() {
        // Codes and RNG position against `quantize_on_grid` over the
        // codable range, for every mode: a wide range, a subnormal one,
        // one holding ±Inf (coded over its finite values, the infinities
        // saturating) and a constant block (no draws).
        let datasets = [
            sample_data(5000, 19, -2.0, 3.0),
            vec![0.0, 1e-44, 4e-45],
            vec![1.0, f32::INFINITY, -1.0, f32::NEG_INFINITY, 0.25],
            vec![0.5; 9],
        ];
        for data in &datasets {
            for mode in [
                RoundingMode::Nearest,
                RoundingMode::Stochastic,
                RoundingMode::HalfProbability,
            ] {
                let (mut rng, mut rng_ref) = (Rng::new(20), Rng::new(20));
                let got = Quantizer::relative(2e-3, mode).quantize(data, &mut rng);
                let mm = codable_range(data, minmax_flat(data));
                let (bin_width, n_bins) = grid(2e-3, mm.min, mm.max, data.len());
                let want = if bin_width > 0.0 {
                    quantize_on_grid(data, mm.min, bin_width, n_bins, mode, &mut rng_ref)
                } else {
                    let codes = vec![0; data.len()];
                    Quantized {
                        codes,
                        lo: mm.min,
                        bin_width,
                        n_bins,
                    }
                };
                assert_eq!(got, want, "{mode:?} over {} values", data.len());
                assert_eq!(rng.next_u64(), rng_ref.next_u64(), "{mode:?} RNG position");
            }
        }
    }

    #[test]
    fn the_codable_range_spans_the_finite_values_and_stays_finite() {
        let range = |data: &[f32]| {
            let r = codable_range(data, minmax_flat(data));
            (r.min, r.max)
        };
        let (inf, nan, max) = (f32::INFINITY, f32::NAN, f32::MAX);
        assert_eq!(range(&[0.5, -2.0, 3.0]), (-2.0, 3.0));
        assert_eq!(range(&[-1.0, max]), (-1.0, max), "a finite span stays");
        for none in [
            &[][..],
            &[nan, nan],
            &[inf, inf],
            &[-inf],
            &[inf, nan, -inf],
        ] {
            assert_eq!(range(none), (0.0, 0.0), "{none:?}");
        }
        assert_eq!(range(&[1.0, inf, nan, -1.0, -inf]), (-1.0, 1.0));
        assert_eq!(range(&[max, 0.0, f32::MIN]), (-max / 2.0, max / 2.0));
        assert_eq!(range(&[max, -0.75 * max]), (-max / 2.0, max / 2.0));
        assert_eq!(range(&[0.75 * max, -0.4 * max]), (-0.4 * max, max / 2.0));
    }

    #[test]
    fn smaller_bound_means_more_bins() {
        let mut rng = Rng::new(17);
        let data = sample_data(100, 18, -1.0, 1.0);
        let coarse = Quantizer::relative(1e-1, RoundingMode::Nearest).quantize(&data, &mut rng);
        let fine = Quantizer::relative(1e-3, RoundingMode::Nearest).quantize(&data, &mut rng);
        assert!(fine.n_bins > coarse.n_bins * 50);
        assert!(fine.bits() > coarse.bits());
    }

    proptest! {
        #[test]
        fn prop_error_bound_holds(
            data in proptest::collection::vec(-1000.0f32..1000.0, 1..300),
            eb in 0.001f32..0.3,
            seed in any::<u64>(),
        ) {
            let mut rng = Rng::new(seed);
            let q = Quantizer::relative(eb, RoundingMode::Stochastic);
            let quant = q.quantize(&data, &mut rng);
            let back = quant.dequantize();
            let mm = compso_tensor::reduce::minmax_flat(&data);
            let range = mm.max - mm.min;
            for (&x, &y) in data.iter().zip(&back) {
                // One-bin SR error plus f32 round-off slack.
                prop_assert!((x - y).abs() <= eb * range + range * 1e-5 + 1e-6);
            }
        }

        #[test]
        fn prop_wire_roundtrip(
            data in proptest::collection::vec(-10.0f32..10.0, 0..200),
            seed in any::<u64>(),
        ) {
            let mut rng = Rng::new(seed);
            let q = Quantizer::relative(0.01, RoundingMode::Stochastic);
            let quant = q.quantize(&data, &mut rng);
            let mut w = Writer::new();
            let planes = quant.write(&mut w);
            let bytes = w.into_bytes();
            let back = Quantized::read_capped(&mut Reader::new(&bytes), &planes, data.len());
            prop_assert_eq!(back.unwrap(), quant);
        }
    }
}
