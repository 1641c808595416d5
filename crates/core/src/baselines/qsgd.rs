//! QSGD: fixed-rate stochastic quantization with Elias-gamma coding.
//!
//! Each buffer is normalized by its L∞ norm; magnitudes are stochastically
//! rounded onto `s = 2^(bits-1) - 1` levels (so "8-bit QSGD" has 127
//! magnitude levels plus sign); levels are Elias-gamma coded, signs ride
//! along as single bits. This is the §2.4 description: "QSGD includes
//! SR-based quantization and Elias Encoding".

use crate::kernels::LayerSchedule;
use crate::quantize::codable_range;
use crate::traits::{CompressError, Compressor};
use crate::wire::{Reader, WireError, Writer};
use compso_obs::Recorder;
use compso_tensor::reduce::minmax_flat;
use compso_tensor::rng::Rng;

/// The QSGD compressor at a fixed bit width.
#[derive(Clone, Copy, Debug)]
pub struct Qsgd {
    /// Bits per value in the nominal fixed-rate scheme (e.g. 4 or 8).
    pub bits: u32,
}

impl Qsgd {
    /// Standard 8-bit QSGD (the accuracy-preserving setting of Fig. 3).
    pub fn bits8() -> Self {
        Qsgd { bits: 8 }
    }

    /// 4-bit QSGD (the high-ratio, accuracy-losing setting of Fig. 3).
    pub fn bits4() -> Self {
        Qsgd { bits: 4 }
    }

    /// Number of magnitude levels.
    pub fn levels(&self) -> u32 {
        (1u32 << (self.bits - 1)) - 1
    }
}

/// MSB-first bit writer (shared with the gamma coder below).
struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    n: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            out: Vec::new(),
            acc: 0,
            n: 0,
        }
    }

    fn bit(&mut self, b: u32) {
        self.acc = (self.acc << 1) | b as u64;
        self.n += 1;
        if self.n == 8 {
            self.out.push(self.acc as u8);
            self.acc = 0;
            self.n = 0;
        }
    }

    /// Elias-gamma code of `v >= 1`: ⌊log₂v⌋ zeros, then v's bits.
    fn gamma(&mut self, v: u32) {
        debug_assert!(v >= 1);
        let nbits = 32 - v.leading_zeros();
        for _ in 0..nbits - 1 {
            self.bit(0);
        }
        for i in (0..nbits).rev() {
            self.bit((v >> i) & 1);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        while self.n != 0 {
            self.bit(0);
        }
        self.out
    }
}

struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    fn bit(&mut self) -> Result<u32, WireError> {
        let byte = self.pos / 8;
        if byte >= self.bytes.len() {
            return Err(WireError::Truncated {
                need: byte + 1,
                have: self.bytes.len(),
            });
        }
        let b = (self.bytes[byte] >> (7 - self.pos % 8)) & 1;
        self.pos += 1;
        Ok(b as u32)
    }

    fn gamma(&mut self) -> Result<u32, WireError> {
        let mut zeros = 0u32;
        while self.bit()? == 0 {
            zeros += 1;
            if zeros > 31 {
                return Err(WireError::Invalid("gamma code too long"));
            }
        }
        let mut v = 1u32;
        for _ in 0..zeros {
            v = (v << 1) | self.bit()?;
        }
        Ok(v)
    }
}

impl Qsgd {
    /// One layer's block: bit width, count, L∞ scale, then the
    /// gamma-coded levels and sign bits. The scale is the L∞ norm of the
    /// layer's [`codable_range`]: a larger magnitude takes the top level,
    /// NaN level 0.
    pub(crate) fn encode(&self, data: &[f32], rng: &mut Rng) -> Vec<u8> {
        let s = self.levels();
        let scale = codable_range(data, minmax_flat(data)).abs_max();
        let mut bits = BitWriter::new();
        // An all-zero layer still spends its one bit per element (every
        // level is 0), so the count a block declares is always backed by
        // payload bits.
        let sf = if scale > 0.0 {
            s as f64 / scale as f64
        } else {
            0.0
        };
        for &v in data {
            let mag = (v.abs() as f64) * sf;
            // Stochastic rounding of the magnitude (Eq. 4).
            let floor = mag.floor();
            let level = if rng.uniform_f64() < mag - floor {
                floor as u32 + 1
            } else {
                floor as u32
            }
            .min(s);
            // Gamma codes start at 1; level 0 -> 1, etc.
            bits.gamma(level + 1);
            if level > 0 {
                bits.bit(u32::from(v < 0.0));
            }
        }
        let payload = bits.finish();
        let mut w = Writer::with_capacity(payload.len() + 24);
        w.u8(self.bits as u8);
        w.u64(data.len() as u64);
        w.f32(scale);
        w.block(&payload);
        w.into_bytes()
    }

    /// Inverse of [`Qsgd::encode`] (the block carries its own bit width).
    pub(crate) fn decode(bytes: &[u8]) -> Result<Vec<f32>, CompressError> {
        let mut r = Reader::new(bytes);
        let bits_field = r.u8()? as u32;
        if !(2..=16).contains(&bits_field) {
            return Err(WireError::Invalid("qsgd bits").into());
        }
        let s = (1u32 << (bits_field - 1)) - 1;
        let n = crate::wire::checked_count(r.u64()?)?;
        let scale = r.f32()?;
        if !scale.is_finite() || scale < 0.0 {
            return Err(WireError::Invalid("qsgd scale").into());
        }
        let payload = r.block()?;
        if n > payload.len() * 8 {
            return Err(CompressError::Corrupt("qsgd count vs payload bits"));
        }
        let mut br = BitReader::new(payload);
        let mut out = Vec::with_capacity(n);
        let inv = scale as f64 / s as f64;
        for _ in 0..n {
            let level = br
                .gamma()?
                .checked_sub(1)
                .ok_or(WireError::Invalid("level"))?;
            if level > s {
                return Err(CompressError::Corrupt("qsgd level out of range"));
            }
            if level == 0 {
                out.push(0.0);
            } else {
                let sign = if br.bit()? == 1 { -1.0 } else { 1.0 };
                out.push((sign * level as f64 * inv) as f32);
            }
        }
        Ok(out)
    }
}

impl Compressor for Qsgd {
    fn name(&self) -> &'static str {
        match self.bits {
            4 => "QSGD-4bit",
            8 => "QSGD-8bit",
            _ => "QSGD",
        }
    }

    /// Layer-parallel ([`super::compress_per_layer`]); QSGD has no use for
    /// keys or a chunk schedule (its unit of work is the whole layer).
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
    fn roundtrip_error_bound() {
        let data = gradient_like(20_000, 1);
        let q = Qsgd::bits8();
        let mut rng = Rng::new(2);
        let back = q.decompress(&q.compress(&data, &mut rng)).unwrap();
        let scale = compso_tensor::reduce::absmax_flat(&data);
        let step = scale / q.levels() as f32;
        for (&x, &y) in data.iter().zip(&back) {
            assert!((x - y).abs() <= step * 1.001, "{x} vs {y}");
        }
    }

    #[test]
    fn four_bit_ratio_exceeds_eight_bit() {
        let data = gradient_like(100_000, 3);
        let mut rng = Rng::new(4);
        let r4 = Qsgd::bits4().ratio(&data, &mut rng);
        let r8 = Qsgd::bits8().ratio(&data, &mut rng);
        assert!(r4 > r8, "r4 {r4} r8 {r8}");
        // Fig. 3 ballpark: 8-bit lands around 4-6x on conv-style gradients.
        assert!(r8 > 3.0, "r8 {r8}");
    }

    #[test]
    fn gamma_coding_favors_small_levels() {
        // Gradients hug zero -> most levels are 0 or 1 -> far below the
        // nominal bits/value.
        let data = gradient_like(100_000, 5);
        let q = Qsgd::bits8();
        let mut rng = Rng::new(6);
        let bytes = q.compress(&data, &mut rng);
        let bits_per_value = bytes.len() as f64 * 8.0 / data.len() as f64;
        assert!(bits_per_value < 8.0, "bits/value {bits_per_value}");
    }

    #[test]
    fn unbiasedness_of_sr() {
        let data = vec![0.37f32; 50_000];
        let q = Qsgd::bits4();
        let mut rng = Rng::new(7);
        let back = q.decompress(&q.compress(&data, &mut rng)).unwrap();
        let mean: f64 = back.iter().map(|&v| v as f64).sum::<f64>() / back.len() as f64;
        assert!((mean - 0.37).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn zeros_and_empty() {
        let q = Qsgd::bits8();
        let mut rng = Rng::new(8);
        for data in [vec![], vec![0.0f32; 100]] {
            let back = q.decompress(&q.compress(&data, &mut rng)).unwrap();
            assert_eq!(back, data);
        }
    }

    #[test]
    fn declared_count_is_backed_by_payload_bits() {
        // An all-zero layer spends one bit per element like any other, so
        // a flipped count byte cannot buy an unbacked allocation.
        let q = Qsgd::bits8();
        let mut block = q.encode(&[0.0f32; 64], &mut Rng::new(1));
        assert_eq!(Qsgd::decode(&block).unwrap(), vec![0.0; 64]);
        block[4] ^= 0x01; // count += 2^24 (u8 bits, then the u64 count)
        assert!(Qsgd::decode(&block).is_err());
    }

    #[test]
    fn signs_preserved() {
        let data = vec![0.9f32, -0.9, 0.5, -0.5];
        let q = Qsgd::bits8();
        let mut rng = Rng::new(9);
        let back = q.decompress(&q.compress(&data, &mut rng)).unwrap();
        for (&x, &y) in data.iter().zip(&back) {
            assert!(x.signum() == y.signum() || y == 0.0, "{x} vs {y}");
        }
    }

    #[test]
    fn truncation_detected() {
        let data = gradient_like(1000, 10);
        let q = Qsgd::bits8();
        let mut rng = Rng::new(11);
        let bytes = q.compress(&data, &mut rng);
        for cut in [0usize, 5, 12, bytes.len() / 2] {
            assert!(q.decompress(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn gamma_codes_roundtrip() {
        let mut w = BitWriter::new();
        let vals = [1u32, 2, 3, 7, 8, 100, 65_535, u32::MAX >> 1];
        for &v in &vals {
            w.gamma(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &vals {
            assert_eq!(r.gamma().unwrap(), v);
        }
    }

    #[test]
    fn parallel_group_roundtrips_and_is_thread_deterministic() {
        let layers: Vec<Vec<f32>> = vec![
            gradient_like(3000, 20),
            vec![],
            gradient_like(700, 21),
            vec![0.0f32; 64],
        ];
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let q = Qsgd::bits8();
        let rec = Recorder::disabled();
        let run = |threads: usize| {
            let _guard = rayon::scoped_thread_override(threads);
            let mut rng = Rng::new(22);
            q.compress_group(&refs, None, &mut rng, &rec)
        };
        let bytes = run(1);
        assert_eq!(bytes[0], crate::wire::magic::MAGIC_GROUP);
        for threads in [2usize, 4] {
            assert_eq!(run(threads), bytes, "threads={threads}");
        }
        let back = q.decompress_group(&bytes, &rec).unwrap();
        assert_eq!(back.len(), layers.len());
        let scale0 = compso_tensor::reduce::absmax_flat(&layers[0]);
        let step = scale0 / q.levels() as f32;
        for (&x, &y) in layers[0].iter().zip(&back[0]) {
            assert!((x - y).abs() <= step * 1.001, "{x} vs {y}");
        }
        assert_eq!(back[1], layers[1]);
        assert_eq!(back[3], layers[3]);
        // The caller's RNG advanced exactly once per group call.
        let mut a = Rng::new(22);
        let mut b = Rng::new(22);
        let _ = q.compress_group(&refs, None, &mut a, &rec);
        let _ = b.next_u64();
        assert_eq!(a.next_u64(), b.next_u64());
        // Truncations of the group frame are detected, never panic.
        for cut in [0usize, 1, 3, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                q.decompress_group(&bytes[..cut], &rec).is_err(),
                "cut={cut}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip_bounded(
            data in proptest::collection::vec(-5.0f32..5.0, 0..800),
            seed in any::<u64>(),
        ) {
            let q = Qsgd::bits8();
            let mut rng = Rng::new(seed);
            let back = q.decompress(&q.compress(&data, &mut rng)).unwrap();
            prop_assert_eq!(back.len(), data.len());
            let scale = compso_tensor::reduce::absmax_flat(&data);
            let step = scale / q.levels() as f32;
            for (&x, &y) in data.iter().zip(&back) {
                prop_assert!((x - y).abs() <= step + scale * 1e-5 + 1e-6);
            }
        }
    }
}
