//! The common compressor interface shared by COMPSO and the baselines.
//!
//! Everything the evaluation harness compares — COMPSO, QSGD, SZ,
//! CocktailSGD, and the no-compression identity — implements
//! [`Compressor`], so convergence and throughput experiments are generic
//! over the method under test.

use crate::kernels::LayerSchedule;
use crate::wire::{checked_count, frame_group, unframe_group, Reader, WireError, Writer};
use compso_obs::Recorder;
use compso_tensor::rng::Rng;

/// Error produced by decompression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompressError {
    /// Malformed or truncated byte stream.
    Wire(WireError),
    /// Stream decoded but violated an internal consistency rule.
    Corrupt(&'static str),
}

impl From<WireError> for CompressError {
    fn from(e: WireError) -> Self {
        CompressError::Wire(e)
    }
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Wire(e) => write!(f, "wire error: {e}"),
            CompressError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
        }
    }
}

impl std::error::Error for CompressError {}

/// A lossy (or lossless) gradient compressor.
///
/// The unit of compression is the aggregated layer group (§4.4's factor
/// `m`): an implementation supplies [`Compressor::name`], the keyed group
/// pair [`Compressor::compress_group_keyed`] /
/// [`Compressor::decompress_group`] and, if it tiles layers, overrides
/// [`Compressor::chunk_elems_for`]. Everything else is provided on top of
/// that pair and is not meant to be overridden. Streams are
/// self-describing: decoding needs no side information.
pub trait Compressor: Send + Sync {
    /// Display name used in result tables.
    fn name(&self) -> &'static str;

    /// Compresses several layers as one self-describing unit. Each layer
    /// carries a caller-stable identity key (`DistKfac` passes the global
    /// layer index): stateless compressors ignore it, stateful ones
    /// ([`crate::baselines::PowerSgd`]) look up per-layer error-feedback /
    /// warm-start state by it — keys are stable across world sizes
    /// (unlike positions within an aggregation group), which is what
    /// keeps 1/2/4-rank runs bit-identical. `schedule` is an optional
    /// caller-cached [`LayerSchedule`] (the paper's "pre-determined
    /// layer-block hashmap" built once at K-FAC-optimizer init), a pure
    /// hint that only tiling compressors read. `rng` feeds stochastic
    /// rounding; deterministic compressors leave it untouched. Phase
    /// timings and traffic counters go to `rec`.
    fn compress_group_keyed(
        &self,
        layers: &[(u64, &[f32])],
        schedule: Option<&LayerSchedule>,
        rng: &mut Rng,
        rec: &Recorder,
    ) -> Vec<u8>;

    /// Inverse of [`Compressor::compress_group_keyed`]: one buffer per
    /// layer, in order.
    fn decompress_group(
        &self,
        bytes: &[u8],
        rec: &Recorder,
    ) -> Result<Vec<Vec<f32>>, CompressError>;

    /// Chunk tile size this compressor wants the [`LayerSchedule`] of a
    /// `total_elems`-element group built with, or `None` (the default)
    /// when it has no use for a schedule. Must be a **pure function of
    /// `total_elems`** — never of live thread counts or timings — so
    /// every rank builds identical schedules and replicas stay
    /// bit-identical.
    fn chunk_elems_for(&self, total_elems: usize) -> Option<usize> {
        let _ = total_elems;
        None
    }

    /// [`Compressor::compress_group_keyed`] with each layer keyed by its
    /// position in `layers`.
    fn compress_group(
        &self,
        layers: &[&[f32]],
        schedule: Option<&LayerSchedule>,
        rng: &mut Rng,
        rec: &Recorder,
    ) -> Vec<u8> {
        let keyed: Vec<(u64, &[f32])> = (0u64..).zip(layers.iter().copied()).collect();
        self.compress_group_keyed(&keyed, schedule, rng, rec)
    }

    /// Compresses one buffer: a one-layer group.
    fn compress(&self, data: &[f32], rng: &mut Rng) -> Vec<u8> {
        self.compress_group(&[data], None, rng, &Recorder::disabled())
    }

    /// Inverse of [`Compressor::compress`].
    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f32>, CompressError> {
        let mut layers = self.decompress_group(bytes, &Recorder::disabled())?;
        match (layers.pop(), layers.is_empty()) {
            (Some(layer), true) => Ok(layer),
            _ => Err(CompressError::Corrupt("expected a single layer")),
        }
    }

    /// Compression ratio achieved on `data` (original bytes / compressed
    /// bytes); convenience for the ratio experiments.
    fn ratio(&self, data: &[f32], rng: &mut Rng) -> f64 {
        let compressed = self.compress(data, rng);
        if compressed.is_empty() {
            return f64::INFINITY;
        }
        (data.len() * 4) as f64 / compressed.len() as f64
    }
}

/// The identity "compressor": raw little-endian f32 bytes. The paper's
/// "KFAC (No Comp.)" baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoCompression;

impl NoCompression {
    /// One layer's block: `u64 n` then `n` little-endian f32s.
    pub(crate) fn encode(data: &[f32]) -> Vec<u8> {
        let mut w = Writer::with_capacity(data.len() * 4 + 8);
        w.u64(data.len() as u64);
        w.bytes(&f32s_to_bytes(data));
        w.into_bytes()
    }

    /// Inverse of [`NoCompression::encode`].
    pub(crate) fn decode(block: &[u8]) -> Result<Vec<f32>, CompressError> {
        let mut r = Reader::new(block);
        let n = checked_count(r.u64()?)?;
        if r.remaining() != n * 4 {
            return Err(CompressError::Corrupt("value bytes vs element count"));
        }
        Ok(bytes_to_f32s(r.bytes(n * 4)?)?)
    }
}

impl Compressor for NoCompression {
    fn name(&self) -> &'static str {
        "NoCompression"
    }

    fn compress_group_keyed(
        &self,
        layers: &[(u64, &[f32])],
        _schedule: Option<&LayerSchedule>,
        _rng: &mut Rng,
        _rec: &Recorder,
    ) -> Vec<u8> {
        let blocks: Vec<Vec<u8>> = layers.iter().map(|&(_, l)| Self::encode(l)).collect();
        frame_group(&blocks)
    }

    fn decompress_group(
        &self,
        bytes: &[u8],
        _rec: &Recorder,
    ) -> Result<Vec<Vec<f32>>, CompressError> {
        unframe_group(bytes)?
            .into_iter()
            .map(Self::decode)
            .collect()
    }
}

/// Converts an f32 slice to raw LE bytes (used for wire-size accounting).
pub(crate) fn f32s_to_bytes(data: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 4);
    for &v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Converts raw LE bytes back to f32s.
pub(crate) fn bytes_to_f32s(bytes: &[u8]) -> Result<Vec<f32>, WireError> {
    if !bytes.len().is_multiple_of(4) {
        return Err(WireError::Invalid("byte length not divisible by 4"));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::magic::MAGIC_GROUP;

    #[test]
    fn no_compression_roundtrip() {
        let data = vec![1.5f32, -2.25, 0.0, f32::MIN_POSITIVE];
        let mut rng = Rng::new(1);
        let c = NoCompression;
        let bytes = c.compress(&data, &mut rng);
        assert_eq!(c.decompress(&bytes).unwrap(), data);
        assert_eq!(
            NoCompression::decode(&NoCompression::encode(&data)).unwrap(),
            data
        );
    }

    #[test]
    fn no_compression_ratio_is_near_one() {
        let data = vec![0.5f32; 1000];
        let mut rng = Rng::new(2);
        let r = NoCompression.ratio(&data, &mut rng);
        assert!(r > 0.99 && r <= 1.0, "ratio {r}");
    }

    #[test]
    fn no_compression_block_length_checked_against_count() {
        let mut block = NoCompression::encode(&[1.0f32; 10]);
        assert!(NoCompression::decode(&block[..block.len() - 2]).is_err());
        block.extend_from_slice(&[0; 4]);
        assert!(NoCompression::decode(&block).is_err(), "trailing value");
        // A count the block cannot back never sizes an allocation.
        block[..8].copy_from_slice(&(1u64 << 27).to_le_bytes());
        assert!(NoCompression::decode(&block).is_err());
    }

    #[test]
    fn f32_bytes_roundtrip() {
        let data = vec![0.1f32, -1e30, f32::INFINITY, -0.0];
        let bytes = f32s_to_bytes(&data);
        let back = bytes_to_f32s(&bytes).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn misaligned_bytes_rejected() {
        assert!(bytes_to_f32s(&[1, 2, 3]).is_err());
    }

    #[test]
    fn group_framing_roundtrips_and_ignores_schedule_and_keys() {
        let layers: Vec<Vec<f32>> = vec![vec![1.0, -2.0, 3.5], vec![], vec![0.25; 17]];
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let rec = Recorder::disabled();
        let c = NoCompression;
        let mut rng = Rng::new(5);
        let bytes = c.compress_group(&refs, None, &mut rng, &rec);
        assert_eq!(bytes[0], MAGIC_GROUP);
        let back = c.decompress_group(&bytes, &rec).unwrap();
        assert_eq!(back, layers);
        // A schedule is a pure hint and the keys are identity only:
        // neither changes a byte of a stateless compressor's output.
        let schedule = crate::kernels::LayerSchedule::build(&[3, 0, 17], 8);
        let keyed: Vec<(u64, &[f32])> = refs.iter().map(|&l| (99, l)).collect();
        assert_eq!(
            c.compress_group_keyed(&keyed, Some(&schedule), &mut rng, &rec),
            bytes
        );
        assert_eq!(c.chunk_elems_for(20), None);
    }

    #[test]
    fn single_buffer_wrappers_are_one_layer_groups() {
        let data = vec![0.5f32, -0.25, 8.0];
        let rec = Recorder::disabled();
        let c = NoCompression;
        let bytes = c.compress(&data, &mut Rng::new(6));
        assert_eq!(
            bytes,
            c.compress_group(&[&data], None, &mut Rng::new(6), &rec)
        );
        // `decompress` refuses anything but exactly one layer.
        let two = c.compress_group(&[&data, &data], None, &mut Rng::new(6), &rec);
        assert!(c.decompress(&two).is_err());
        let none = c.compress_group(&[], None, &mut Rng::new(6), &rec);
        assert!(c.decompress(&none).is_err());
    }

    #[test]
    fn group_framing_rejects_corruption() {
        let layers: Vec<Vec<f32>> = vec![vec![1.0; 9], vec![2.0; 4]];
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let rec = Recorder::disabled();
        let c = NoCompression;
        let mut rng = Rng::new(6);
        let mut bytes = c.compress_group(&refs, None, &mut rng, &rec);
        assert!(c.decompress_group(&bytes[..bytes.len() - 1], &rec).is_err());
        bytes.push(0);
        assert!(c.decompress_group(&bytes, &rec).is_err(), "trailing bytes");
        bytes.pop();
        bytes[0] = 0x00;
        assert!(c.decompress_group(&bytes, &rec).is_err(), "magic");
    }
}
