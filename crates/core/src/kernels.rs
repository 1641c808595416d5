//! Parallel compression kernels — the CPU analogue of §4.5's GPU work.
//!
//! The paper's GPU optimizations and their counterparts here:
//!
//! | paper (CUDA)                               | this module (rayon)       |
//! |--------------------------------------------|---------------------------|
//! | fuse filter/quantize/pack into one kernel  | [`KernelConfig::fused`]: one data sweep per chunk vs. staged passes with materialized intermediates |
//! | block reduction + warp shuffle for extrema | [`KernelConfig::hierarchical_extrema`]: chunk-local scans merged in a reduction tree vs. a flat serial scan |
//! | padded shared-memory buffers per layer     | chunks never span layers; each chunk's bitmap is padded to a byte boundary |
//! | pre-built layer→block hashmap              | [`LayerSchedule`] built once at optimizer init, reused every iteration |
//! | block-parallel decompression               | v2's per-chunk byte-offset index lets [`decompress_chunked`] decode every chunk concurrently |
//!
//! The entropy coder behind the kernels is byte-wise. Codes of up to 8
//! bits are bit-packed at their width; wider ones (Alg. 1's conservative
//! bound needs 9) would straddle its symbols, so they travel code-aligned
//! instead: a low-byte stream plus a zero-centred high-bit plane stream
//! ([`FLAG_WIDE`], DESIGN.md §8.2).
//!
//! Compression is memory-bound with O(1) arithmetic intensity (§4.5), so
//! pass-count is the first-order cost and the fused/staged ablation is
//! directly measurable (`compso-bench`'s `fig8` and `ablations`).
//!
//! [`ChunkedCompso`] packages these kernels behind the [`Compressor`]
//! trait so `DistKfac` can drive them as the production compression path.

use crate::bitpack::{self, bits_for, split_bias, SPLIT_MIN_WIDTH};
use crate::encoders::Codec;
use crate::microkernel;
use crate::quantize::{ErrorBound, Quantized, Quantizer};
use crate::rounding::RoundingMode;
use crate::traits::{CompressError, Compressor};
use crate::wire::{Reader, WireError, Writer};
use compso_obs::{names, Recorder};
use compso_tensor::reduce::{minmax_flat, minmax_hierarchical, MinMax};
use compso_tensor::rng::Rng;
use rayon::prelude::*;

/// Magic byte of the chunked-parallel wire format (registered as
/// [`crate::wire::magic::MAGIC_STREAM_V2`]).
pub const MAGIC_CHUNKED: u8 = crate::wire::magic::MAGIC_STREAM_V2;

/// Version of the chunked wire format. v2 added the per-chunk byte-offset
/// index over the code and bitmap streams, which is what makes
/// [`decompress_chunked`] chunk-parallel: each worker seeks straight to
/// its chunk's records instead of replaying every earlier chunk's
/// variable-length headers.
pub const CHUNKED_VERSION: u8 = 2;

/// Bit 0 of the frame's `flags` byte: some chunk's codes are wider than
/// a byte, so every offset-index row carries a third column and a third
/// block — the plane stream — follows the bitmap and code streams. No
/// other bit is assigned; a reader refuses any.
pub const FLAG_WIDE: u8 = 1;

/// Byte-block granularity of the parallel entropy-coding stage.
pub const CODEC_BLOCK: usize = 256 * 1024;

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

/// Kernel structure knobs (the §4.5 ablation axes).
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// Elements per chunk (the "thread block" tile).
    pub chunk_elems: usize,
    /// One fused sweep per chunk (true) vs. staged passes with
    /// materialized intermediates (false).
    pub fused: bool,
    /// Tree-reduction extrema (true) vs. flat serial scan (false).
    pub hierarchical_extrema: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            chunk_elems: 16 * 1024,
            fused: true,
            hierarchical_extrema: true,
        }
    }
}

/// One chunk of the precomputed layer→block schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkDesc {
    /// Layer index the chunk belongs to.
    pub layer: usize,
    /// Element offset within the layer.
    pub offset: usize,
    /// Elements in this chunk.
    pub len: usize,
}

/// The reusable layer→chunk assignment (§4.5's "pre-determined
/// layer-block hashmap ... built during the initialization of the KFAC
/// optimizer and reused for the rest of the iterations").
#[derive(Clone, Debug)]
pub struct LayerSchedule {
    layer_sizes: Vec<usize>,
    chunk_elems: usize,
    chunks: Vec<ChunkDesc>,
}

impl LayerSchedule {
    /// Builds the schedule: each layer is tiled independently, so no chunk
    /// ever mixes two layers' normalization ranges.
    pub fn build(layer_sizes: &[usize], chunk_elems: usize) -> Self {
        assert!(chunk_elems > 0, "chunk size must be positive");
        let mut chunks = Vec::new();
        for (layer, &n) in layer_sizes.iter().enumerate() {
            let mut offset = 0;
            while offset < n {
                let len = (n - offset).min(chunk_elems);
                chunks.push(ChunkDesc { layer, offset, len });
                offset += len;
            }
            if n == 0 {
                // Zero-size layers still need a (empty) slot so decompression
                // emits them in order.
                chunks.push(ChunkDesc {
                    layer,
                    offset: 0,
                    len: 0,
                });
            }
        }
        LayerSchedule {
            layer_sizes: layer_sizes.to_vec(),
            chunk_elems,
            chunks,
        }
    }

    /// The chunks, in layer-then-offset order.
    pub fn chunks(&self) -> &[ChunkDesc] {
        &self.chunks
    }

    /// Per-layer sizes the schedule was built for.
    pub fn layer_sizes(&self) -> &[usize] {
        &self.layer_sizes
    }

    /// The chunk tile size the schedule was built with.
    pub fn chunk_elems(&self) -> usize {
        self.chunk_elems
    }

    /// Whether this schedule was built for exactly these layer sizes.
    pub fn matches(&self, layer_sizes: &[usize]) -> bool {
        self.layer_sizes == layer_sizes
    }
}

/// Per-chunk compression product.
struct ChunkOut {
    /// Padded bitmap bytes (empty when the filter is off).
    bitmap: Vec<u8>,
    /// The chunk's code-stream record (29-byte header + code bytes), then
    /// its plane bytes: one buffer, so the third stream costs a chunk no
    /// allocation of its own.
    record: Vec<u8>,
    /// Where `record` divides between the two streams.
    codes_len: usize,
}

impl ChunkOut {
    /// The chunk's slice of the code stream: the record header, then the
    /// codes packed at their width — or, past 8 bits, one low byte each.
    fn codes(&self) -> &[u8] {
        &self.record[..self.codes_len]
    }

    /// The chunk's slice of the plane stream: a wide chunk's high bits,
    /// empty for every other chunk.
    fn planes(&self) -> &[u8] {
        &self.record[self.codes_len..]
    }
}

/// Stage-1 product: the filter sweep over one chunk.
struct FilteredChunk {
    /// Padded bitmap bytes (empty when the filter is off).
    bitmap: Vec<u8>,
    /// Surviving (unfiltered) values.
    kept: Vec<f32>,
    /// Original chunk element count.
    n: usize,
    /// Whether the filter branch ran.
    used_filter: bool,
}

/// The filter sweep of one chunk against the *layer-global* range. Shared
/// verbatim by the fused and staged kernel paths, so the §4.5 ablation
/// stays bit-identical by construction.
fn filter_chunk(data: &[f32], range: MinMax, cfg: &CompsoConfig) -> FilteredChunk {
    let span = if data.is_empty() {
        0.0
    } else {
        range.max - range.min
    };
    let threshold = match cfg.eb_filter {
        Some(ebf) if span > 0.0 => ebf * span,
        _ => 0.0,
    };
    let use_filter = threshold > 0.0;

    let mut bitmap = if use_filter {
        vec![0u8; data.len().div_ceil(8)]
    } else {
        Vec::new()
    };
    let mut kept: Vec<f32> = Vec::with_capacity(data.len());
    if use_filter {
        for (i, &v) in data.iter().enumerate() {
            if v.abs() < threshold {
                bitmap[i / 8] |= 1 << (i % 8);
            } else {
                kept.push(v);
            }
        }
    } else {
        kept.extend_from_slice(data);
    }
    FilteredChunk {
        bitmap,
        kept,
        n: data.len(),
        used_filter: use_filter,
    }
}

/// The quantize sweep of one chunk. Quantizes against the LAYER range
/// (not the chunk range): every chunk of a layer shares one
/// normalization, matching the GPU kernel. Shared by both kernel paths.
fn quantize_chunk(
    kept: &[f32],
    n: usize,
    range: MinMax,
    cfg: &CompsoConfig,
    rng: &mut Rng,
) -> Quantized {
    let quantizer = Quantizer {
        bound: crate::quantize::ErrorBound::Relative(cfg.eb_quant),
        mode: cfg.mode,
    };
    let (lo, hi) = if n == 0 {
        (0.0, 0.0)
    } else {
        (range.min, range.max)
    };
    quantizer.quantize_with_range(kept, lo, hi, rng)
}

/// Serializes one chunk's record from the scalar stages' products: the
/// staged path's third pass, and the layout oracle of
/// [`compress_chunk_fast`]. A chunk whose codes fit a byte is
/// [`Quantized::write`]'s record; a wider one keeps that record's header
/// and carries [`bitpack::split`]'s two streams instead of packed codes.
fn serialize_chunk(f: FilteredChunk, quant: &Quantized) -> ChunkOut {
    let mut w = Writer::new();
    w.u64(f.n as u64);
    w.u8(u8::from(f.used_filter));
    let codes_len = if quant.bits() >= SPLIT_MIN_WIDTH && !quant.is_empty() {
        let bias = split_bias(quant.lo, quant.bin_width, quant.n_bins);
        let (low, planes) = bitpack::split(&quant.codes, quant.bits(), bias);
        quant.write_header(&mut w);
        w.bytes(&low);
        let codes_len = w.len();
        w.bytes(&planes);
        codes_len
    } else {
        quant.write(&mut w);
        w.len()
    };
    ChunkOut {
        bitmap: f.bitmap,
        record: w.into_bytes(),
        codes_len,
    }
}

/// Compresses one chunk in a single fused sweep: filter decision,
/// kept-value collection, quantization, and serialization without
/// materializing cross-chunk intermediates.
///
/// Scalar composition of the shared per-stage helpers, retained as the
/// bit-identity oracle for [`compress_chunk_fast`] (§12 of DESIGN.md).
#[cfg(test)]
fn compress_chunk_fused(
    data: &[f32],
    range: MinMax,
    cfg: &CompsoConfig,
    rng: &mut Rng,
) -> ChunkOut {
    let f = filter_chunk(data, range, cfg);
    let quant = quantize_chunk(&f.kept, f.n, range, cfg, rng);
    serialize_chunk(f, &quant)
}

/// The production fused sweep, rebuilt on the [`microkernel`] layer: the
/// word-at-a-time filter kernel, the mode-hoisted (branchless-SR) quantize
/// kernel, and the register-window bit-packer — or, for codes wider than
/// a byte, the byte/plane splitter — all writing through the per-thread
/// compress arena instead of fresh `Vec`s.
///
/// Bit-identical to [`compress_chunk_fused`] by construction: the
/// threshold/range/bin arithmetic below replicates `filter_chunk` +
/// `Quantizer::quantize_with_range` exactly (f32 span, f64 coordinate,
/// same clamp, same per-element RNG draws), and the staged ablation path
/// still runs the scalar helpers — so the existing fused-vs-staged wire
/// equality test doubles as the end-to-end microkernel bit-identity pin.
fn compress_chunk_fast(data: &[f32], range: MinMax, cfg: &CompsoConfig, rng: &mut Rng) -> ChunkOut {
    microkernel::with_compress_scratch(|s| {
        // Filter threshold: identical derivation to `filter_chunk`.
        let span = if data.is_empty() {
            0.0
        } else {
            range.max - range.min
        };
        let threshold = match cfg.eb_filter {
            Some(ebf) if span > 0.0 => ebf * span,
            _ => 0.0,
        };
        let use_filter = threshold > 0.0;
        let mut bitmap = Vec::new();
        let kept = if use_filter {
            microkernel::filter_kernel(data, threshold, &mut bitmap, &mut s.kept);
            s.kept.as_slice()
        } else {
            data
        };

        // Quantizer header: identical derivation to `quantize_chunk` /
        // `Quantizer::quantize_with_range` (layer-global range, f32 span,
        // f64 reciprocal width).
        let (lo, hi) = if data.is_empty() {
            (0.0, 0.0)
        } else {
            (range.min, range.max)
        };
        assert!(hi >= lo, "invalid range [{lo}, {hi}]");
        let qrange = hi - lo;
        let (bin_width, n_bins) = if qrange == 0.0 || kept.is_empty() {
            (0.0f32, 0u32)
        } else {
            let eb_abs = ErrorBound::Relative(cfg.eb_quant).absolute_for_range(qrange);
            assert!(eb_abs > 0.0, "error bound collapsed to zero");
            (eb_abs, (qrange as f64 / eb_abs as f64).ceil() as u32)
        };
        s.packed.clear();
        s.planes.clear();
        if n_bins > 0 {
            let inv_w = 1.0 / bin_width as f64;
            microkernel::quantize_kernel(kept, lo, inv_w, n_bins, cfg.mode, rng, &mut s.codes);
            let bits = bits_for(n_bins);
            if bits >= SPLIT_MIN_WIDTH {
                let bias = split_bias(lo, bin_width, n_bins);
                microkernel::split_into(&s.codes, bits, bias, &mut s.packed, &mut s.planes);
            } else {
                microkernel::pack_into(&s.codes, bits, &mut s.packed);
            }
        }

        // Serialize: same record layout as `serialize_chunk`, straight
        // from the arena.
        let mut w = Writer::with_capacity(29 + s.packed.len() + s.planes.len());
        w.u64(data.len() as u64);
        w.u8(u8::from(use_filter));
        w.f32(lo);
        w.f32(bin_width);
        w.u32(n_bins);
        w.u64(kept.len() as u64);
        w.bytes(&s.packed);
        let codes_len = w.len();
        w.bytes(&s.planes);
        ChunkOut {
            bitmap,
            record: w.into_bytes(),
            codes_len,
        }
    })
}

/// Compresses multiple layers with the chunked-parallel kernels.
///
/// The output is the self-describing v2 chunked format (see
/// [`CHUNKED_VERSION`]); decode with [`decompress_chunked`]. The result is
/// deterministic for a fixed `rng` seed regardless of thread count: each
/// chunk forks its own RNG stream by chunk index.
///
/// The whole kernel sweep is timed under `rec`'s `core/chunked_compress`
/// span and in/out traffic counted in `core/bytes_in` / `core/bytes_out`,
/// whose running quotient is the live compression ratio.
pub fn compress_chunked(
    layers: &[&[f32]],
    cfg: &CompsoConfig,
    kc: &KernelConfig,
    schedule: &LayerSchedule,
    rng: &Rng,
    rec: &Recorder,
) -> Vec<u8> {
    let span = rec.span(names::CORE_CHUNKED_COMPRESS);
    assert_eq!(
        schedule.layer_sizes,
        layers.iter().map(|l| l.len()).collect::<Vec<_>>(),
        "schedule does not match layer sizes"
    );

    // Pass 1: per-layer extrema. min/max skip NaN, so an all-NaN layer
    // comes back unordered like an empty one; both take the [0, 0] range
    // (no filter, zero bins) the chunk kernels give an empty chunk.
    let ranges: Vec<MinMax> = layers
        .iter()
        .map(|l| {
            let mm = if kc.hierarchical_extrema {
                minmax_hierarchical(l)
            } else {
                minmax_flat(l)
            };
            if mm.min > mm.max {
                MinMax { min: 0.0, max: 0.0 }
            } else {
                mm
            }
        })
        .collect();

    // Pass 2(+): the chunk sweep.
    let outs: Vec<ChunkOut> = if kc.fused {
        schedule
            .chunks
            .par_iter()
            .enumerate()
            .map(|(idx, c)| {
                let slice = &layers[c.layer][c.offset..c.offset + c.len];
                let mut chunk_rng = rng.fork(idx as u64);
                compress_chunk_fast(slice, ranges[c.layer], cfg, &mut chunk_rng)
            })
            .collect()
    } else {
        // Staged: materialize the filter products for every chunk first,
        // then quantize, then serialize — three full traversals, matching
        // an unfused multi-kernel GPU pipeline. Each stage reuses the same
        // per-chunk helpers as the fused path, so both paths emit
        // bit-identical bytes.
        let stage1: Vec<FilteredChunk> = schedule
            .chunks
            .par_iter()
            .map(|c| {
                let slice = &layers[c.layer][c.offset..c.offset + c.len];
                filter_chunk(slice, ranges[c.layer], cfg)
            })
            .collect();
        let stage2: Vec<Quantized> = schedule
            .chunks
            .par_iter()
            .enumerate()
            .map(|(idx, c)| {
                let s1 = &stage1[idx];
                let mut chunk_rng = rng.fork(idx as u64);
                quantize_chunk(&s1.kept, s1.n, ranges[c.layer], cfg, &mut chunk_rng)
            })
            .collect();
        stage1
            .into_par_iter()
            .zip(stage2)
            .map(|(s1, quant)| serialize_chunk(s1, &quant))
            .collect()
    };

    // Gather the per-chunk products into contiguous streams, recording the
    // byte offset of every chunk in each — the v2 index that makes decode
    // chunk-parallel.
    let total_bitmap: usize = outs.iter().map(|o| o.bitmap.len()).sum();
    let total_codes: usize = outs.iter().map(|o| o.codes_len).sum();
    let total_planes: usize = outs.iter().map(|o| o.planes().len()).sum();
    let mut bitmaps = Vec::with_capacity(total_bitmap);
    let mut codes = Vec::with_capacity(total_codes);
    let mut planes = Vec::with_capacity(total_planes);
    let mut offsets: Vec<[u64; 3]> = Vec::with_capacity(outs.len());
    for o in &outs {
        offsets.push([codes.len(), bitmaps.len(), planes.len()].map(|at| at as u64));
        codes.extend_from_slice(o.codes());
        bitmaps.extend_from_slice(&o.bitmap);
        planes.extend_from_slice(o.planes());
    }
    // The plane stream — its index column and its block — exists only in
    // a frame with a wide chunk (a wide chunk has a code, so a plane
    // byte); every other frame is the two-stream layout, flags 0.
    let wide = !planes.is_empty();
    let columns = if wide { 3 } else { 2 };
    // nvCOMP-style block-parallel entropy coding (§5.2's "block
    // processing scheme") — the codec stage scales with cores like the
    // chunk sweep does. Each stream is coded under its own model.
    let enc_bitmaps = cfg.codec.encode_blocks(&bitmaps, CODEC_BLOCK);
    let enc_codes = cfg.codec.encode_blocks(&codes, CODEC_BLOCK);
    let enc_planes = wide.then(|| cfg.codec.encode_blocks(&planes, CODEC_BLOCK));

    let mut w = Writer::with_capacity(
        enc_bitmaps.len()
            + enc_codes.len()
            + enc_planes.as_ref().map_or(0, Vec::len)
            + 8 * columns * offsets.len()
            + 64,
    );
    w.u8(MAGIC_CHUNKED);
    w.u8(CHUNKED_VERSION);
    w.u8(cfg.codec.tag());
    w.u8(if wide { FLAG_WIDE } else { 0 });
    w.u32(schedule.layer_sizes.len() as u32);
    for &n in &schedule.layer_sizes {
        w.u64(n as u64);
    }
    w.u64(schedule.chunk_elems as u64);
    w.u32(offsets.len() as u32);
    for row in &offsets {
        for &off in &row[..columns] {
            w.u64(off);
        }
    }
    w.block(&enc_bitmaps);
    w.block(&enc_codes);
    if let Some(enc_planes) = &enc_planes {
        w.block(enc_planes);
    }
    let out = w.into_bytes();
    drop(span);
    if rec.is_enabled() {
        let n: usize = layers.iter().map(|l| l.len()).sum();
        rec.add(names::CORE_BYTES_IN, (n * 4) as u64);
        rec.add(names::CORE_BYTES_OUT, out.len() as u64);
    }
    out
}

/// Decodes one chunk's record from its exact byte slices. Both readers
/// must be fully consumed — a chunk that under- or over-runs its indexed
/// slice is corrupt.
///
/// Microkernel rewrite of [`decompress_chunk_ref`] in which values
/// materialize directly in the caller's pre-zeroed output window (the
/// chunk's slice of the final layer buffer, so decode has no assembly
/// copy at all). An unfiltered chunk dequantizes as it unpacks
/// ([`microkernel::unpack_map`]); a filtered one unpacks through the
/// u64-window [`microkernel::unpack_into`] into a per-thread code buffer
/// (no per-chunk `Vec<u32>` churn) and fuses dequantize with the
/// keep-mask scatter ([`microkernel::scatter_kept`]). Every validation
/// check and error string of the scalar reference is preserved, in the
/// same order.
///
/// `out` must be zero-filled and exactly `c.len` long.
fn decompress_chunk_into(
    c: &ChunkDesc,
    codes: &[u8],
    planes: &[u8],
    bitmaps: &[u8],
    out: &mut [f32],
) -> Result<(), CompressError> {
    debug_assert_eq!(out.len(), c.len);
    let mut cr = Reader::new(codes);
    let n = usize::try_from(cr.u64()?).map_err(|_| WireError::Invalid("chunk len"))?;
    if n != c.len {
        return Err(CompressError::Corrupt("chunk length mismatch"));
    }
    let used_filter = match cr.u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError::Invalid("filter flag").into()),
    };
    // Inline `Quantized::read_capped` with identical validation (the
    // chunk's element count from the schedule caps the carried count), but
    // unpacking into the thread-local code buffer.
    let lo = cr.f32()?;
    let bin_width = cr.f32()?;
    let n_bins = cr.u32()?;
    let count = crate::wire::checked_count(cr.u64()?)?;
    if count > c.len {
        return Err(WireError::Invalid("quantized count over cap").into());
    }
    if !lo.is_finite() || !bin_width.is_finite() || bin_width < 0.0 {
        return Err(WireError::Invalid("quantized header").into());
    }
    // A zero-bin or zero-count record is the constant block: `count`
    // codes of value 0, backed by zero stream bytes.
    let constant = count == 0 || n_bins == 0;
    let bits = bits_for(n_bins);
    // Past 8 bits the record carries one (low) byte per code and the
    // chunk's plane slice their high bits; every other chunk's plane
    // slice is empty. Either way the slice is held to its exact length.
    let wide = !constant && bits >= SPLIT_MIN_WIDTH;
    let (packed, plane_len) = if constant {
        (&[][..], 0)
    } else if wide {
        let plane_len = (count * (bits - 8) as usize).div_ceil(8);
        (cr.bytes(count)?, plane_len)
    } else {
        (cr.bytes((count * bits as usize).div_ceil(8))?, 0)
    };
    if planes.len() != plane_len {
        return Err(CompressError::Corrupt("chunk plane length"));
    }
    let bias = if wide {
        split_bias(lo, bin_width, n_bins)
    } else {
        0
    };
    let check_max = |maxc: u32| {
        if maxc > n_bins {
            Err(WireError::Invalid("quantized code out of range"))
        } else {
            Ok(())
        }
    };
    let lo64 = lo as f64;
    let bw64 = bin_width as f64;
    let dequantize = |code: u32| (lo64 + code as f64 * bw64) as f32;
    if !used_filter {
        // Every value is kept, so the codes dequantize as they unpack
        // (`count ≤ c.len` was checked above; a short count is refused
        // below, behind the checks that have always come before it).
        // Code 0 dequantizes to exactly `lo` (f32→f64→f32 is exact),
        // independent of the carried bin width.
        let kept = &mut out[..count];
        if constant {
            kept.fill(lo);
        } else if wide {
            check_max(microkernel::unsplit_map(
                packed, planes, bits, bias, kept, dequantize,
            )?)?;
        } else {
            check_max(microkernel::unpack_map(packed, bits, kept, dequantize)?)?;
        }
        if !cr.is_exhausted() {
            return Err(CompressError::Corrupt("chunk codes overrun"));
        }
        if !bitmaps.is_empty() {
            return Err(CompressError::Corrupt("unexpected bitmap bytes"));
        }
        if count != n {
            return Err(CompressError::Corrupt("unfiltered chunk size"));
        }
        return Ok(());
    }
    microkernel::with_decode_codes(|qcodes| {
        if constant {
            qcodes.clear();
        } else if wide {
            qcodes.clear();
            qcodes.resize(count, 0);
            check_max(microkernel::unsplit_map(
                packed,
                planes,
                bits,
                bias,
                qcodes,
                |code| code,
            )?)?;
        } else {
            check_max(microkernel::unpack_into(packed, bits, count, qcodes)?)?;
        }
        if !cr.is_exhausted() {
            return Err(CompressError::Corrupt("chunk codes overrun"));
        }
        let mut br = Reader::new(bitmaps);
        let bm = br.bytes(n.div_ceil(8))?;
        if !br.is_exhausted() {
            return Err(CompressError::Corrupt("chunk bitmap overrun"));
        }
        let res = if constant {
            microkernel::scatter_kept(bm, n, count, out, |_| lo)
        } else {
            let qc: &[u32] = qcodes;
            microkernel::scatter_kept(bm, n, count, out, |k| dequantize(qc[k]))
        };
        match res {
            Ok(()) => Ok(()),
            Err(microkernel::ScatterError::Underrun) => {
                Err(CompressError::Corrupt("kept underrun"))
            }
            Err(microkernel::ScatterError::Overrun) => Err(CompressError::Corrupt("kept overrun")),
        }
    })
}

/// [`decompress_chunk_into`] materializing its own output vector — the
/// shape the equivalence and corruption proptests drive directly.
#[cfg(test)]
fn decompress_chunk(
    c: &ChunkDesc,
    codes: &[u8],
    planes: &[u8],
    bitmaps: &[u8],
) -> Result<Vec<f32>, CompressError> {
    let mut out = vec![0.0f32; c.len];
    decompress_chunk_into(c, codes, planes, bitmaps, &mut out)?;
    Ok(out)
}

/// [`Quantized::read_capped`] for a wide record — the same checks in the
/// same order — reading the codes through [`bitpack::unsplit`] from the
/// record's low bytes and the chunk's plane slice.
#[cfg(test)]
fn read_wide_ref(cr: &mut Reader, planes: &[u8], cap: usize) -> Result<Quantized, CompressError> {
    let lo = cr.f32()?;
    let bin_width = cr.f32()?;
    let n_bins = cr.u32()?;
    let count = crate::wire::checked_count(cr.u64()?)?;
    if count > cap {
        return Err(WireError::Invalid("quantized count over cap").into());
    }
    if !lo.is_finite() || !bin_width.is_finite() || bin_width < 0.0 {
        return Err(WireError::Invalid("quantized header").into());
    }
    let bits = bits_for(n_bins);
    let low = cr.bytes(count)?;
    if planes.len() != (count * (bits - 8) as usize).div_ceil(8) {
        return Err(CompressError::Corrupt("chunk plane length"));
    }
    let codes = bitpack::unsplit(low, planes, bits, split_bias(lo, bin_width, n_bins))?;
    if codes.iter().any(|&c| c > n_bins) {
        return Err(WireError::Invalid("quantized code out of range").into());
    }
    Ok(Quantized {
        codes,
        lo,
        bin_width,
        n_bins,
    })
}

/// Scalar reference decoder, retained as the bit-identity oracle for
/// [`decompress_chunk`] (pinned by `prop_decompress_chunk_matches_ref`).
#[cfg(test)]
fn decompress_chunk_ref(
    c: &ChunkDesc,
    codes: &[u8],
    planes: &[u8],
    bitmaps: &[u8],
) -> Result<Vec<f32>, CompressError> {
    let mut cr = Reader::new(codes);
    let n = usize::try_from(cr.u64()?).map_err(|_| WireError::Invalid("chunk len"))?;
    if n != c.len {
        return Err(CompressError::Corrupt("chunk length mismatch"));
    }
    let used_filter = match cr.u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError::Invalid("filter flag").into()),
    };
    // The chunk's element count is known from the schedule, so the
    // quantized record (whose constant-block encoding carries a count
    // backed by zero bytes) can be capped with real context.
    // The record header sits at a fixed offset, so whether the chunk is
    // wide is known before the record is parsed.
    let mut peek = Reader::new(&codes[9..]);
    let wide = matches!(
        (peek.f32(), peek.f32(), peek.u32(), peek.u64()),
        (_, _, Ok(n_bins), Ok(count)) if count > 0 && bits_for(n_bins) >= SPLIT_MIN_WIDTH
    );
    let quant = if wide {
        read_wide_ref(&mut cr, planes, c.len)?
    } else {
        if !planes.is_empty() {
            return Err(CompressError::Corrupt("chunk plane length"));
        }
        Quantized::read_capped(&mut cr, c.len)?
    };
    if !cr.is_exhausted() {
        return Err(CompressError::Corrupt("chunk codes overrun"));
    }
    let kept = quant.dequantize();
    let mut out = Vec::with_capacity(n);
    if used_filter {
        let mut br = Reader::new(bitmaps);
        let bm = br.bytes(n.div_ceil(8))?;
        if !br.is_exhausted() {
            return Err(CompressError::Corrupt("chunk bitmap overrun"));
        }
        let mut next = 0usize;
        for i in 0..n {
            let dropped = (bm[i / 8] >> (i % 8)) & 1 == 1;
            if dropped {
                out.push(0.0);
            } else {
                let v = *kept
                    .get(next)
                    .ok_or(CompressError::Corrupt("kept underrun"))?;
                next += 1;
                out.push(v);
            }
        }
        if next != kept.len() {
            return Err(CompressError::Corrupt("kept overrun"));
        }
    } else {
        if !bitmaps.is_empty() {
            return Err(CompressError::Corrupt("unexpected bitmap bytes"));
        }
        if kept.len() != n {
            return Err(CompressError::Corrupt("unfiltered chunk size"));
        }
        out.extend_from_slice(&kept);
    }
    Ok(out)
}

/// Decode scratch: the concatenated record streams materialized
/// between entropy decoding and the chunk-parallel scatter. These are the
/// only per-call allocations whose size tracks the full gradient volume
/// rather than one chunk; the buffers are cleared — not shrunk — between
/// calls.
#[derive(Debug, Default)]
struct DecodeScratch {
    bitmaps: Vec<u8>,
    codes: Vec<u8>,
    planes: Vec<u8>,
}

#[cfg(test)]
impl DecodeScratch {
    /// Bytes currently reserved across the stream buffers.
    fn capacity_bytes(&self) -> usize {
        self.bitmaps.capacity() + self.codes.capacity() + self.planes.capacity()
    }
}

thread_local! {
    /// Per-thread [`DecodeScratch`] pool backing [`decompress_chunked`]:
    /// repeat decodes on a training loop's thread reuse the same stream
    /// buffers instead of reallocating the full gradient volume each step.
    static DECODE_SCRATCH: std::cell::RefCell<DecodeScratch> =
        std::cell::RefCell::new(DecodeScratch::default());
}

/// Inverse of [`compress_chunked`], timed under the `core/decode` span
/// with incoming wire bytes counted in `core/decode_bytes_in`.
///
/// The v2 offset index turns decode into a chunk-parallel scatter: every
/// chunk's records are located by direct byte offset, decoded on rayon
/// workers, and stitched back into per-layer buffers. Offsets are
/// validated (monotonic, in-bounds, gap-free via per-chunk reader
/// exhaustion) before any worker touches the streams.
///
/// Scratch buffers come from a thread-local pool. The pool entry is
/// *moved out* for the duration of the decode (not borrowed), so rayon
/// work-stealing that re-enters this function on the same OS thread —
/// e.g. a worker blocked in the inner chunk `collect` stealing another
/// peer-payload decode — finds a fresh empty scratch instead of a held
/// `RefCell` borrow. Re-entrant calls simply allocate; the common
/// steady-state path reuses.
pub fn decompress_chunked(bytes: &[u8], rec: &Recorder) -> Result<Vec<Vec<f32>>, CompressError> {
    let _span = rec.span(names::CORE_DECODE);
    rec.add(names::CORE_DECODE_BYTES_IN, bytes.len() as u64);
    let mut scratch = DECODE_SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
    let result = decompress_chunked_scratch(bytes, &mut scratch);
    DECODE_SCRATCH.with(|s| *s.borrow_mut() = scratch);
    result
}

/// [`decompress_chunked`] decoding through a given [`DecodeScratch`],
/// reusing the bitmap/code/plane stream buffers across calls.
///
/// Every length field read from the (untrusted) header is validated
/// against arithmetic identities and the bytes actually received before
/// any allocation sized by it: the layer count must fit in the remaining
/// header bytes, the chunk count must equal the count the layer sizes
/// imply *and* fit the offset index that follows, so a corrupted stream
/// can never drive an allocation larger than the buffer it arrived in.
fn decompress_chunked_scratch(
    bytes: &[u8],
    scratch: &mut DecodeScratch,
) -> Result<Vec<Vec<f32>>, CompressError> {
    let mut r = Reader::new(bytes);
    if r.u8()? != MAGIC_CHUNKED {
        return Err(WireError::Invalid("chunked magic").into());
    }
    if r.u8()? != CHUNKED_VERSION {
        return Err(WireError::Invalid("chunked version").into());
    }
    let codec = crate::encoders::Codec::from_tag(r.u8()?).ok_or(WireError::Invalid("codec tag"))?;
    let _ = codec; // per-frame codec tags live inside the block frames

    // The flags byte decides the width of the index rows and whether a
    // third block follows, so an unassigned bit is refused, not skipped.
    let flags = r.u8()?;
    if flags & !FLAG_WIDE != 0 {
        return Err(WireError::Invalid("chunked flags").into());
    }
    let columns = if flags & FLAG_WIDE != 0 { 3 } else { 2 };
    let n_layers = r.u32()? as usize;
    // Each layer size costs 8 header bytes, so a count the buffer cannot
    // back is corruption — checked before the sizes vector is reserved.
    if n_layers > 1_000_000 || n_layers > r.remaining() / 8 {
        return Err(WireError::Invalid("layer count").into());
    }
    let mut layer_sizes = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        layer_sizes.push(crate::wire::checked_count(r.u64()?)?);
    }
    let chunk_elems = crate::wire::checked_count(r.u64()?)?;
    if chunk_elems == 0 {
        return Err(WireError::Invalid("chunk size").into());
    }
    // The chunk count is fully determined by (layer_sizes, chunk_elems):
    // computing it arithmetically *before* building the schedule means a
    // hostile header can never make `LayerSchedule::build` allocate a
    // chunk vector the real stream would not carry.
    let mut implied_chunks: usize = 0;
    for &n in &layer_sizes {
        let c = if n == 0 { 1 } else { n.div_ceil(chunk_elems) };
        implied_chunks = implied_chunks
            .checked_add(c)
            .ok_or(WireError::Invalid("chunk count overflow"))?;
    }
    let n_chunks = r.u32()? as usize;
    if n_chunks != implied_chunks {
        return Err(CompressError::Corrupt("chunk count vs schedule"));
    }
    // Each chunk owns one offset-index entry — a u64 per stream, so 16
    // bytes, or 24 in a wide frame — in what remains.
    if n_chunks > r.remaining() / (8 * columns) {
        return Err(WireError::Invalid("chunk count vs buffer").into());
    }
    let schedule = LayerSchedule::build(&layer_sizes, chunk_elems);
    debug_assert_eq!(schedule.chunks().len(), n_chunks);
    // Rows of (codes, bitmaps, planes) offsets; without the plane stream
    // its column is all zeros over an empty stream.
    let mut offsets: Vec<[usize; 3]> = Vec::with_capacity(n_chunks);
    for _ in 0..n_chunks {
        let mut row = [0usize; 3];
        for off in &mut row[..columns] {
            *off = crate::wire::checked_count(r.u64()?)?;
        }
        offsets.push(row);
    }
    crate::encoders::Codec::decode_blocks_into(r.block()?, &mut scratch.bitmaps)?;
    crate::encoders::Codec::decode_blocks_into(r.block()?, &mut scratch.codes)?;
    if columns == 3 {
        crate::encoders::Codec::decode_blocks_into(r.block()?, &mut scratch.planes)?;
        // The flag is set for a wide chunk, and a wide chunk has a code.
        if scratch.planes.is_empty() {
            return Err(CompressError::Corrupt("wide flag without planes"));
        }
    } else {
        scratch.planes.clear();
    }
    let streams: [&[u8]; 3] = [&scratch.codes, &scratch.bitmaps, &scratch.planes];
    if !r.is_exhausted() {
        return Err(CompressError::Corrupt("trailing bytes"));
    }

    // Validate the offset index: chunk i's records span [off(i), off(i+1))
    // in each stream; the last chunk ends at the stream length. Offsets
    // must start at zero and never run backwards or out of bounds. Gaps
    // between records are caught per-chunk by reader-exhaustion checks
    // (the plane slice by its exact length).
    let lens = streams.map(<[u8]>::len);
    let mut ends: Vec<[usize; 3]> = Vec::with_capacity(n_chunks);
    for i in 0..n_chunks {
        let end = if i + 1 < n_chunks {
            offsets[i + 1]
        } else {
            lens
        };
        if (0..3).any(|k| offsets[i][k] > end[k] || end[k] > lens[k]) {
            return Err(CompressError::Corrupt("chunk offset index"));
        }
        ends.push(end);
    }
    if n_chunks > 0 && offsets[0] != [0; 3] {
        return Err(CompressError::Corrupt("chunk offset index"));
    }

    // Chunk-parallel decode, straight into the layer buffers: chunks are
    // in layer-then-offset order and tile each layer contiguously, so
    // every chunk owns a disjoint window of its layer's output and the
    // old gather-and-copy assembly stage disappears. The buffers come
    // from the zeroed allocator, which is what the scatter path's
    // "dropped values are exactly 0.0" contract needs.
    let mut out: Vec<Vec<f32>> = layer_sizes.iter().map(|&n| vec![0.0f32; n]).collect();
    let mut windows: Vec<&mut [f32]> = Vec::with_capacity(n_chunks);
    for buf in out.iter_mut() {
        if buf.is_empty() {
            // A zero-length layer still carries one (empty) chunk record.
            windows.push(&mut []);
        } else {
            windows.extend(buf.chunks_mut(chunk_elems));
        }
    }
    debug_assert_eq!(windows.len(), n_chunks);
    let chunks = schedule.chunks();
    windows
        .into_par_iter()
        .enumerate()
        .map(|(i, dst)| {
            let [codes, bitmaps, planes] =
                [0, 1, 2].map(|k| &streams[k][offsets[i][k]..ends[i][k]]);
            decompress_chunk_into(&chunks[i], codes, planes, bitmaps, dst)
        })
        .collect::<Result<Vec<()>, CompressError>>()?;
    Ok(out)
}

/// The COMPSO compressor: one strategy ([`CompsoConfig`]) executed by the
/// §4.5 kernels at [`KernelConfig::default`].
///
/// Single-buffer [`Compressor::compress`] calls tile the buffer with a
/// throwaway one-layer [`LayerSchedule`]; the production hot path is
/// [`Compressor::compress_group_keyed`], where the caller (e.g.
/// `DistKfac`) passes a schedule built once at optimizer init and reused
/// every iteration. Output bytes are identical either way for matching layer
/// shapes, and deterministic at any thread count.
///
/// The chunk tile is computed, not configured: the §4.4 overhead model's
/// choice ([`crate::perfmodel::choose_chunk_elems`]) for the group's
/// total element count, floored at the default tile. It is a pure
/// function of the element count — never of live thread counts — so
/// replicas stay bit-identical, and it *equals* the default tile for
/// groups up to `chunk_elems × MODELED_PARALLEL_WIDTH` (1 Mi) elements.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChunkedCompso {
    /// The active compression strategy.
    pub config: CompsoConfig,
}

impl ChunkedCompso {
    /// Creates a compressor with the given strategy.
    pub fn new(config: CompsoConfig) -> Self {
        ChunkedCompso { config }
    }
}

/// The chunk tile for a group of `total_elems` elements.
fn chunk_choice(total_elems: usize) -> usize {
    crate::perfmodel::choose_chunk_elems(total_elems, KernelConfig::default().chunk_elems)
}

impl Compressor for ChunkedCompso {
    fn name(&self) -> &'static str {
        "COMPSO-chunked"
    }

    fn compress_group_keyed(
        &self,
        layers: &[(u64, &[f32])],
        schedule: Option<&LayerSchedule>,
        rng: &mut Rng,
        rec: &Recorder,
    ) -> Vec<u8> {
        let layers: Vec<&[f32]> = layers.iter().map(|&(_, l)| l).collect();
        // The caller's generator advances exactly once per group, so
        // repeated calls never reuse randomness while chunk workers still
        // fork deterministic per-chunk streams from the base.
        let base = Rng::new(rng.next_u64());
        let kc = KernelConfig::default();
        match schedule {
            Some(s) => compress_chunked(&layers, &self.config, &kc, s, &base, rec),
            None => {
                let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
                let s = LayerSchedule::build(&sizes, chunk_choice(sizes.iter().sum()));
                compress_chunked(&layers, &self.config, &kc, &s, &base, rec)
            }
        }
    }

    fn decompress_group(
        &self,
        bytes: &[u8],
        rec: &Recorder,
    ) -> Result<Vec<Vec<f32>>, CompressError> {
        decompress_chunked(bytes, rec)
    }

    fn chunk_elems_for(&self, total_elems: usize) -> Option<usize> {
        Some(chunk_choice(total_elems))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate_layers, GradientProfile};

    /// [`compress_chunked`] with recording off.
    fn compress_quiet(
        layers: &[&[f32]],
        cfg: &CompsoConfig,
        kc: &KernelConfig,
        schedule: &LayerSchedule,
        rng: &Rng,
    ) -> Vec<u8> {
        compress_chunked(layers, cfg, kc, schedule, rng, &Recorder::disabled())
    }

    /// [`decompress_chunked`] with recording off.
    fn decompress_quiet(bytes: &[u8]) -> Result<Vec<Vec<f32>>, CompressError> {
        decompress_chunked(bytes, &Recorder::disabled())
    }

    fn layers_fixture(seed: u64) -> Vec<Vec<f32>> {
        generate_layers(&[50_000, 1234, 0, 70_001, 8], seed, GradientProfile::kfac())
    }

    /// Quantizer bounds and the code width each gives: Alg. 1's aggressive
    /// and conservative bounds (251 and 501 codes), a 10-bit bound and one
    /// past 16 bits.
    const WIDTH_BOUNDS: [(f32, u32); 4] = [(4e-3, 8), (2e-3, 9), (1e-3, 10), (1e-6, 20)];

    #[test]
    fn schedule_covers_layers_exactly() {
        let s = LayerSchedule::build(&[100, 0, 250], 64);
        let mut per_layer = vec![0usize; 3];
        for c in s.chunks() {
            per_layer[c.layer] += c.len;
            assert!(c.len <= 64);
        }
        assert_eq!(per_layer, vec![100, 0, 250]);
        // Chunks are contiguous per layer.
        let mut expected_offset = [0usize; 3];
        for c in s.chunks() {
            assert_eq!(c.offset, expected_offset[c.layer]);
            expected_offset[c.layer] += c.len;
        }
        assert_eq!(s.chunk_elems(), 64);
        assert!(s.matches(&[100, 0, 250]));
        assert!(!s.matches(&[100, 250]));
    }

    #[test]
    fn fused_roundtrip_matches_layers() {
        let layers = layers_fixture(1);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let cfg = CompsoConfig::aggressive(4e-3);
        let kc = KernelConfig::default();
        let schedule = LayerSchedule::build(
            &layers.iter().map(|l| l.len()).collect::<Vec<_>>(),
            kc.chunk_elems,
        );
        let rng = Rng::new(2);
        let bytes = compress_quiet(&refs, &cfg, &kc, &schedule, &rng);
        let back = decompress_quiet(&bytes).unwrap();
        assert_eq!(back.len(), layers.len());
        for (orig, dec) in layers.iter().zip(&back) {
            assert_eq!(orig.len(), dec.len());
            let mm = minmax_flat(orig);
            let range = if orig.is_empty() {
                0.0
            } else {
                mm.max - mm.min
            };
            for (&x, &y) in orig.iter().zip(dec) {
                if y == 0.0 {
                    assert!(x.abs() <= 4e-3 * range * 1.001 + 1e-7);
                } else {
                    assert!((x - y).abs() <= 4e-3 * range * 1.01 + 1e-7, "{x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn fused_and_staged_produce_identical_bytes() {
        // Same RNG forking discipline -> bit-identical outputs, so the
        // ablation is purely about kernel structure. The last layer's
        // range is subnormal, so `eb × range` underflows in both.
        //
        // At every width a run produces: Alg. 1's two bounds (8- and 9-bit
        // codes), a 10-bit and a 20-bit one, with and without the filter.
        // Past 8 bits the frame is the flagged three-stream layout, and
        // its subnormal layer is a narrow chunk inside it.
        let mut layers = generate_layers(&[20_000, 1234, 0, 17_001, 8], 3, GradientProfile::kfac());
        layers.push(vec![0.0, 1e-44, 4e-45]);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        let schedule = LayerSchedule::build(&sizes, 16 * 1024);
        let rng = Rng::new(4);
        for (eb, bits) in WIDTH_BOUNDS {
            for cfg in [CompsoConfig::aggressive(eb), CompsoConfig::conservative(eb)] {
                let [fused, staged] = [true, false].map(|fused| {
                    let kc = KernelConfig {
                        fused,
                        ..KernelConfig::default()
                    };
                    compress_quiet(&refs, &cfg, &kc, &schedule, &rng)
                });
                assert_eq!(fused, staged, "{cfg:?}");
                assert_eq!(fused[3], if bits > 8 { FLAG_WIDE } else { 0 }, "{cfg:?}");
                let back = decompress_quiet(&fused).unwrap();
                assert_eq!(back.iter().map(Vec::len).collect::<Vec<_>>(), sizes);
            }
        }
    }

    /// Direct chunk-level pin: the microkernel fused sweep must emit the
    /// same bitmap and record bytes as the scalar helper composition for
    /// every rounding mode, with and without the filter, including the
    /// degenerate constant/empty chunks — and leave the RNG at the same
    /// stream position.
    #[test]
    fn fast_chunk_matches_scalar_fused_across_modes() {
        let datasets: Vec<Vec<f32>> = vec![
            crate::synthetic::generate(10_000, 41, GradientProfile::kfac()),
            crate::synthetic::generate(7, 42, GradientProfile::kfac()),
            vec![0.25f32; 513], // constant: degenerate zero-span range
            vec![],
            vec![1.0, -1.0, 0.0, -0.0, f32::MIN_POSITIVE],
            vec![0.0, 1e-44, 4e-45], // subnormal span: eb × range underflows
        ];
        for data in &datasets {
            let range = minmax_flat(data);
            for mode in [
                RoundingMode::Nearest,
                RoundingMode::Stochastic,
                RoundingMode::HalfProbability,
            ] {
                for eb_filter in [Some(1e-3), None] {
                    for (eb_quant, bits) in WIDTH_BOUNDS {
                        let cfg = CompsoConfig {
                            mode,
                            eb_filter,
                            ..CompsoConfig::aggressive(eb_quant)
                        };
                        let what = format!("{mode:?} {eb_filter:?} {eb_quant}");
                        let mut rng_fast = Rng::new(91);
                        let mut rng_ref = Rng::new(91);
                        let fast = compress_chunk_fast(data, range, &cfg, &mut rng_fast);
                        let reference = compress_chunk_fused(data, range, &cfg, &mut rng_ref);
                        assert_eq!(fast.bitmap, reference.bitmap, "{what}");
                        assert_eq!(fast.codes(), reference.codes(), "{what}");
                        assert_eq!(fast.planes(), reference.planes(), "{what}");
                        assert_eq!(
                            rng_fast.next_u64(),
                            rng_ref.next_u64(),
                            "RNG stream position diverged ({what})"
                        );
                        // Only a record of codes wider than a byte has a
                        // plane slice, and then a byte per code ahead of it.
                        let n_bins = u32::from_le_bytes(fast.record[17..21].try_into().unwrap());
                        let count = u64::from_le_bytes(fast.record[21..29].try_into().unwrap());
                        if count > 0 && bits_for(n_bins) >= SPLIT_MIN_WIDTH {
                            assert_eq!(bits_for(n_bins), bits, "{what}");
                            assert_eq!(fast.codes_len as u64, 29 + count, "{what}");
                            assert!(!fast.planes().is_empty(), "{what}");
                        } else {
                            assert!(fast.planes().is_empty(), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn compress_scratch_pool_backs_compress_chunked() {
        // Compress-side twin of the decode pool test: after one chunked
        // compress the per-thread arena holds capacity, and repeats
        // neither grow it nor change the emitted bytes.
        // A wide frame goes first: its plane bytes live in the arena
        // too, so the narrow frame after it finds every slot sized.
        let layers = layers_fixture(43);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let kc = KernelConfig::default();
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        let schedule = LayerSchedule::build(&sizes, kc.chunk_elems);
        for cfg in [
            CompsoConfig::conservative(2e-3),
            CompsoConfig::aggressive(4e-3),
        ] {
            let first = compress_quiet(&refs, &cfg, &kc, &schedule, &Rng::new(44));
            let cap = microkernel::compress_scratch_capacity_bytes();
            assert!(cap > 0, "compress arena untouched");
            if cfg.eb_filter.is_none() {
                let planes = microkernel::with_compress_scratch(|s| s.planes.capacity());
                assert!(
                    planes >= kc.chunk_elems / 8,
                    "plane bytes bypassed the arena"
                );
            }
            for _ in 0..3 {
                assert_eq!(
                    compress_quiet(&refs, &cfg, &kc, &schedule, &Rng::new(44)),
                    first
                );
                assert_eq!(microkernel::compress_scratch_capacity_bytes(), cap);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// The microkernel chunk decoder against the retained scalar
        /// reference: bit-identical accepts on valid records, and the
        /// same accept/reject verdict (with equal values on accept) when
        /// a byte of the record or bitmap is corrupted.
        #[test]
        fn prop_decompress_chunk_matches_ref(
            n in 0usize..4000,
            seed in proptest::prelude::any::<u64>(),
            filtered in proptest::prelude::any::<bool>(),
            width in 0usize..WIDTH_BOUNDS.len(),
            flip in proptest::prelude::any::<(usize, u8)>(),
        ) {
            let data = crate::synthetic::generate(n, seed, GradientProfile::kfac());
            let eb = WIDTH_BOUNDS[width].0;
            let cfg = if filtered {
                CompsoConfig::aggressive(eb)
            } else {
                CompsoConfig::conservative(eb)
            };
            let range = minmax_flat(&data);
            let mut rng = Rng::new(seed ^ 0x51);
            let out = compress_chunk_fast(&data, range, &cfg, &mut rng);
            let c = ChunkDesc { layer: 0, offset: 0, len: n };
            let fast = decompress_chunk(&c, out.codes(), out.planes(), &out.bitmap).unwrap();
            let reference =
                decompress_chunk_ref(&c, out.codes(), out.planes(), &out.bitmap).unwrap();
            let fast_bits: Vec<u32> = fast.iter().map(|v| v.to_bits()).collect();
            let ref_bits: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
            proptest::prop_assert_eq!(fast_bits, ref_bits);

            // Corrupt one byte of the record, the plane slice or the
            // bitmap: both decoders must agree on the verdict.
            let mut record = out.record.clone();
            let mut bitmap = out.bitmap.clone();
            let total = record.len() + bitmap.len();
            if total > 0 {
                let (pos, xor) = flip;
                let pos = pos % total;
                let xor = xor | 1; // non-zero so the byte really changes
                if pos < record.len() {
                    record[pos] ^= xor;
                } else {
                    bitmap[pos - record.len()] ^= xor;
                }
                let (codes, planes) = record.split_at(out.codes_len);
                let fast = decompress_chunk(&c, codes, planes, &bitmap);
                let reference = decompress_chunk_ref(&c, codes, planes, &bitmap);
                match (fast, reference) {
                    (Ok(a), Ok(b)) => {
                        let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
                        let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
                        proptest::prop_assert_eq!(ab, bb);
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => proptest::prop_assert!(
                        false,
                        "verdicts diverged: fast={:?} ref={:?}",
                        a.map(|v| v.len()),
                        b.map(|v| v.len())
                    ),
                }
            }
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let layers = layers_fixture(5);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let cfg = CompsoConfig::aggressive(4e-3);
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        let schedule = LayerSchedule::build(&sizes, 8192);
        let rng = Rng::new(6);
        let a = compress_quiet(&refs, &cfg, &KernelConfig::default(), &schedule, &rng);
        let b = compress_quiet(&refs, &cfg, &KernelConfig::default(), &schedule, &rng);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // The tentpole invariant: with the shim's thread override pinning
        // the worker count, 1 thread and many threads must emit identical
        // bytes and identical decoded values (per-chunk forked RNG streams
        // + order-preserving parallel collect).
        let layers = layers_fixture(21);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let cfg = CompsoConfig::aggressive(4e-3);
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        let schedule = LayerSchedule::build(&sizes, 4096);
        let rng = Rng::new(22);
        let (serial_bytes, serial_back) = {
            let _guard = rayon::scoped_thread_override(1);
            let b = compress_quiet(&refs, &cfg, &KernelConfig::default(), &schedule, &rng);
            let d = decompress_quiet(&b).unwrap();
            (b, d)
        };
        for threads in [2usize, 4, 8] {
            let _guard = rayon::scoped_thread_override(threads);
            let b = compress_quiet(&refs, &cfg, &KernelConfig::default(), &schedule, &rng);
            assert_eq!(b, serial_bytes, "compress differs at {threads} threads");
            let d = decompress_quiet(&b).unwrap();
            assert_eq!(d, serial_back, "decode differs at {threads} threads");
        }
    }

    #[test]
    fn flat_and_hierarchical_extrema_agree() {
        let layers = layers_fixture(7);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let cfg = CompsoConfig::conservative(4e-3);
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        let schedule = LayerSchedule::build(&sizes, 8192);
        let rng = Rng::new(8);
        let h = compress_quiet(
            &refs,
            &cfg,
            &KernelConfig {
                hierarchical_extrema: true,
                ..KernelConfig::default()
            },
            &schedule,
            &rng,
        );
        let f = compress_quiet(
            &refs,
            &cfg,
            &KernelConfig {
                hierarchical_extrema: false,
                ..KernelConfig::default()
            },
            &schedule,
            &rng,
        );
        assert_eq!(h, f);
    }

    #[test]
    fn conservative_mode_roundtrip() {
        let layers = layers_fixture(9);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let cfg = CompsoConfig::conservative(2e-3);
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        let schedule = LayerSchedule::build(&sizes, 4096);
        let rng = Rng::new(10);
        let bytes = compress_quiet(&refs, &cfg, &KernelConfig::default(), &schedule, &rng);
        let back = decompress_quiet(&bytes).unwrap();
        for (orig, dec) in layers.iter().zip(&back) {
            let mm = minmax_flat(orig);
            let range = if orig.is_empty() {
                0.0
            } else {
                mm.max - mm.min
            };
            for (&x, &y) in orig.iter().zip(dec) {
                assert!((x - y).abs() <= 2e-3 * range * 1.01 + 1e-7);
            }
        }
        // Through the trait: no filter, so no large value is ever zeroed —
        // every element reconstructs within the quantizer bound.
        let data = crate::synthetic::generate(10_000, 3, GradientProfile::kfac());
        let c = ChunkedCompso::new(CompsoConfig::conservative(4e-3));
        let back = c.decompress(&c.compress(&data, &mut Rng::new(4))).unwrap();
        let mm = minmax_flat(&data);
        for (&x, &y) in data.iter().zip(&back) {
            assert!((x - y).abs() <= 4e-3 * (mm.max - mm.min) + 1e-6);
        }
    }

    #[test]
    fn truncation_rejected() {
        let layers = layers_fixture(11);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let cfg = CompsoConfig::aggressive(4e-3);
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        let schedule = LayerSchedule::build(&sizes, 8192);
        let rng = Rng::new(12);
        let bytes = compress_quiet(&refs, &cfg, &KernelConfig::default(), &schedule, &rng);
        for cut in [0usize, 2, 10, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(decompress_quiet(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn v1_version_byte_rejected() {
        let layers = layers_fixture(13);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        let schedule = LayerSchedule::build(&sizes, 8192);
        let rng = Rng::new(14);
        let mut bytes = compress_quiet(
            &refs,
            &CompsoConfig::aggressive(4e-3),
            &KernelConfig::default(),
            &schedule,
            &rng,
        );
        assert_eq!(bytes[1], CHUNKED_VERSION);
        bytes[1] = 1; // the pre-index v1 layout is gone; readers must refuse
        assert!(decompress_quiet(&bytes).is_err());
    }

    #[test]
    fn corrupted_chunk_offset_index_rejected() {
        let layers = layers_fixture(15);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        let schedule = LayerSchedule::build(&sizes, 8192);
        let rng = Rng::new(16);
        // A narrow frame (two index columns) and a wide one (three).
        for (cfg, columns) in [
            (CompsoConfig::aggressive(4e-3), 2),
            (CompsoConfig::aggressive(2e-3), 3),
        ] {
            let bytes = compress_quiet(&refs, &cfg, &KernelConfig::default(), &schedule, &rng);
            assert_eq!(bytes[3], if columns == 3 { FLAG_WIDE } else { 0 });
            // The index sits right after the fixed header: magic(1) ver(1)
            // codec(1) flags(1) n_layers(4) sizes(8 each) chunk_elems(8),
            // then n_chunks(4) and rows of (codes_off, bitmap_off
            // [, planes_off]) u64s.
            let index_base = 16 + 8 * sizes.len();
            let n_chunks =
                u32::from_le_bytes(bytes[index_base..index_base + 4].try_into().unwrap()) as usize;
            assert_eq!(n_chunks, schedule.chunks().len());
            for column in 0..columns {
                let at = |row: usize| index_base + 4 + 8 * (columns * row + column);
                // (a) nudge a mid-index offset: the preceding chunk's
                // slice grows a byte, tripping its exhaustion check (the
                // plane slice's exact length) or misparsing.
                let mid = at(n_chunks / 2);
                let mut nudged = bytes.clone();
                nudged[mid] = nudged[mid].wrapping_add(1);
                assert!(decompress_quiet(&nudged).is_err(), "{columns}/{column}");
                // (b) blow an offset out of bounds entirely.
                let mut blown = bytes.clone();
                blown[mid..mid + 8].fill(0xFF);
                assert!(decompress_quiet(&blown).is_err(), "{columns}/{column}");
                // A run backwards, still in bounds.
                let mut backwards = bytes.clone();
                backwards[mid..mid + 8].fill(0);
                assert_eq!(
                    decompress_quiet(&backwards),
                    Err(CompressError::Corrupt("chunk offset index")),
                    "{columns}/{column}"
                );
                // (c) a non-zero first offset implies a leading gap.
                let mut shifted = bytes.clone();
                shifted[at(0)] = 1;
                assert_eq!(
                    decompress_quiet(&shifted),
                    Err(CompressError::Corrupt("chunk offset index")),
                    "{columns}/{column}"
                );
            }
            // (d) wrong chunk count vs. the schedule implied by the header.
            let mut miscounted = bytes;
            miscounted[index_base] = miscounted[index_base].wrapping_add(1);
            assert!(decompress_quiet(&miscounted).is_err());
        }
    }

    /// The `flags` byte is load-bearing: it sizes the index rows and
    /// announces the third block, so a reader holds it to the one
    /// assigned bit and to the frame that follows.
    #[test]
    fn frame_flags_are_validated() {
        let layers = layers_fixture(27);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        let schedule = LayerSchedule::build(&sizes, 8192);
        let frame = |cfg: CompsoConfig| {
            compress_quiet(
                &refs,
                &cfg,
                &KernelConfig::default(),
                &schedule,
                &Rng::new(28),
            )
        };
        let narrow = frame(CompsoConfig::aggressive(4e-3));
        let wide = frame(CompsoConfig::conservative(2e-3));
        assert_eq!((narrow[3], wide[3]), (0, FLAG_WIDE));
        for honest in [&narrow, &wide] {
            // Any bit but bit 0, alone or beside it.
            for bit in 1..8 {
                let mut flagged = honest.clone();
                flagged[3] |= 1 << bit;
                assert_eq!(
                    decompress_quiet(&flagged),
                    Err(WireError::Invalid("chunked flags").into()),
                    "bit {bit}"
                );
            }
            // Bit 0 flipped against the frame behind it: the rows and
            // blocks no longer parse, and nothing is decoded on the way
            // to finding that out.
            let mut flipped = honest.clone();
            flipped[3] ^= FLAG_WIDE;
            let mut scratch = DecodeScratch::default();
            assert!(decompress_chunked_scratch(&flipped, &mut scratch).is_err());
            assert_eq!(scratch.capacity_bytes(), 0);
        }

        // The allocation guard prices a row at what the flag says it
        // costs: a buffer that backs k two-column rows backs ⌊2k/3⌋
        // three-column ones. (One layer of k one-element chunks.)
        let k = 30u32;
        let header = |flags: u8| {
            let mut w = Writer::new();
            w.u8(MAGIC_CHUNKED);
            w.u8(CHUNKED_VERSION);
            w.u8(Codec::Ans.tag());
            w.u8(flags);
            w.u32(1);
            w.u64(k as u64);
            w.u64(1);
            w.u32(k);
            w.bytes(&vec![0u8; 16 * k as usize]);
            w.into_bytes()
        };
        assert_eq!(
            decompress_quiet(&header(FLAG_WIDE)),
            Err(WireError::Invalid("chunk count vs buffer").into())
        );
        assert!(matches!(
            decompress_quiet(&header(0)),
            Err(CompressError::Wire(WireError::Truncated { .. }))
        ));

        // A flagged frame whose plane stream is empty: no encoder's.
        let zeros = vec![0.0f32; 10];
        let constant = compress_quiet(
            &[&zeros],
            &CompsoConfig::conservative(2e-3),
            &KernelConfig::default(),
            &LayerSchedule::build(&[10], 16),
            &Rng::new(1),
        );
        assert_eq!(constant[3], 0, "a constant chunk is not wide");
        let mut w = Writer::new();
        w.bytes(&constant[..3]);
        w.u8(FLAG_WIDE);
        w.bytes(&constant[4..28]); // n_layers, size, chunk_elems, n_chunks
        w.bytes(&[0u8; 24]); // the one row, three columns
        w.bytes(&constant[28 + 16..]); // the bitmap and code blocks
        w.block(&Codec::Ans.encode_blocks(&[], CODEC_BLOCK));
        assert_eq!(
            decompress_quiet(&w.into_bytes()),
            Err(CompressError::Corrupt("wide flag without planes"))
        );
    }

    /// A chunk's plane slice is exactly `⌈count·(bits − 8)/8⌉` bytes —
    /// nothing for a narrow or a constant chunk — in both decoders.
    #[test]
    fn plane_slice_is_held_to_its_exact_length() {
        let data = crate::synthetic::generate(1000, 7, GradientProfile::kfac());
        let range = minmax_flat(&data);
        let c = ChunkDesc {
            layer: 0,
            offset: 0,
            len: data.len(),
        };
        let refused = |codes: &[u8], planes: &[u8], bitmap: &[u8]| {
            let err = Err(CompressError::Corrupt("chunk plane length"));
            assert_eq!(decompress_chunk(&c, codes, planes, bitmap), err);
            assert_eq!(decompress_chunk_ref(&c, codes, planes, bitmap), err);
        };
        for cfg in [
            CompsoConfig::conservative(2e-3),
            CompsoConfig::aggressive(1e-3),
        ] {
            let wide = compress_chunk_fast(&data, range, &cfg, &mut Rng::new(8));
            let kept = u64::from_le_bytes(wide.record[21..29].try_into().unwrap()) as usize;
            let width = if cfg.eb_filter.is_some() { 2 } else { 1 };
            assert_eq!(wide.planes().len(), (kept * width).div_ceil(8));
            decompress_chunk(&c, wide.codes(), wide.planes(), &wide.bitmap).unwrap();
            let mut long = wide.planes().to_vec();
            long.push(0);
            refused(wide.codes(), &long, &wide.bitmap);
            refused(wide.codes(), &long[..long.len() - 2], &wide.bitmap);
            refused(wide.codes(), &[], &wide.bitmap);
        }
        // A narrow chunk and a constant one own no plane bytes, whatever
        // the frame around them carries.
        let narrow = compress_chunk_fast(
            &data,
            range,
            &CompsoConfig::aggressive(4e-3),
            &mut Rng::new(8),
        );
        assert!(narrow.planes().is_empty());
        refused(narrow.codes(), &[0], &narrow.bitmap);
        let flat = vec![0.5f32; data.len()];
        let constant = compress_chunk_fast(
            &flat,
            minmax_flat(&flat),
            &CompsoConfig::conservative(2e-3),
            &mut Rng::new(8),
        );
        assert!(constant.planes().is_empty());
        refused(constant.codes(), &[0], &constant.bitmap);
    }

    /// The split changes where a code's bits travel, not the code: a wide
    /// chunk decodes to exactly the values the packed record of the same
    /// codes ([`Quantized::write`], what a chunk carried at every width
    /// before the split) dequantizes to.
    #[test]
    fn wide_chunks_decode_to_the_packed_records_values() {
        let data = crate::synthetic::generate(5000, 51, GradientProfile::kfac());
        let range = minmax_flat(&data);
        let c = ChunkDesc {
            layer: 0,
            offset: 0,
            len: data.len(),
        };
        for (eb, bits) in WIDTH_BOUNDS {
            let cfg = CompsoConfig::conservative(eb);
            let out = compress_chunk_fast(&data, range, &cfg, &mut Rng::new(52));
            let split = decompress_chunk(&c, out.codes(), out.planes(), &[]).unwrap();
            let quant = quantize_chunk(&data, data.len(), range, &cfg, &mut Rng::new(52));
            assert_eq!(quant.bits(), bits);
            let mut w = Writer::new();
            quant.write(&mut w);
            let packed = w.into_bytes();
            let packed = Quantized::read_capped(&mut Reader::new(&packed), data.len()).unwrap();
            assert_eq!(
                split.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                packed
                    .dequantize()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "{eb}"
            );
        }
    }

    #[test]
    fn chunked_compso_roundtrips_via_compressor_trait() {
        let data = crate::synthetic::generate(60_000, 17, GradientProfile::kfac());
        let mut rng = Rng::new(18);
        let mm = minmax_flat(&data);
        let range = mm.max - mm.min;
        // Every lossless codec carries the same error contract.
        for codec in Codec::all() {
            let c = ChunkedCompso::new(CompsoConfig::aggressive(4e-3).with_codec(codec));
            let bytes = c.compress(&data, &mut rng);
            let back = c.decompress(&bytes).unwrap();
            assert_eq!(back.len(), data.len(), "{}", codec.name());
            for (&x, &y) in data.iter().zip(&back) {
                if y == 0.0 {
                    assert!(x.abs() <= 4e-3 * range * 1.001 + 1e-7);
                } else {
                    assert!((x - y).abs() <= 4e-3 * range * 1.01 + 1e-7);
                }
            }
        }
        let c = ChunkedCompso::default();
        for data in [vec![], vec![0.0f32; 100], vec![7.5f32; 64]] {
            let back = c.decompress(&c.compress(&data, &mut rng)).unwrap();
            assert_eq!(back, data, "degenerate inputs are exact");
        }
        // Ratio plumbing works through the trait too.
        let ratio = c.ratio(&data, &mut rng);
        assert!(ratio > 5.0, "ratio {ratio}");
        assert_eq!(
            c.chunk_elems_for(data.len()),
            Some(KernelConfig::default().chunk_elems)
        );
    }

    #[test]
    fn chunked_compso_group_uses_and_matches_provided_schedule() {
        let layers = layers_fixture(19);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        let c = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
        let schedule = LayerSchedule::build(&sizes, KernelConfig::default().chunk_elems);
        let rec = Recorder::disabled();
        // Same RNG state, with vs. without a caller-provided schedule:
        // identical bytes (the schedule is a pure cache).
        let mut rng_a = Rng::new(20);
        let with_schedule = c.compress_group(&refs, Some(&schedule), &mut rng_a, &rec);
        let mut rng_b = Rng::new(20);
        let without = c.compress_group(&refs, None, &mut rng_b, &rec);
        assert_eq!(with_schedule, without);
        // And the caller's RNG advanced identically either way.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        let back = c.decompress_group(&with_schedule, &rec).unwrap();
        assert_eq!(back.len(), layers.len());
        for (orig, dec) in layers.iter().zip(&back) {
            assert_eq!(orig.len(), dec.len());
        }
    }

    #[test]
    fn chunked_compso_consumes_rng_per_call() {
        // Two consecutive compress calls must not reuse randomness: the
        // caller's generator advances, so stochastic rounding differs.
        let data = crate::synthetic::generate(30_000, 23, GradientProfile::kfac());
        let c = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
        let mut rng = Rng::new(24);
        let a = c.compress(&data, &mut rng);
        let b = c.compress(&data, &mut rng);
        assert_ne!(a, b, "consecutive calls reused the RNG stream");
        // But a reset generator reproduces the first call exactly.
        let mut rng2 = Rng::new(24);
        assert_eq!(a, c.compress(&data, &mut rng2));
    }

    #[test]
    fn recorded_chunked_paths_track_traffic_and_match_unrecorded() {
        let layers = layers_fixture(25);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        let schedule = LayerSchedule::build(&sizes, 8192);
        let cfg = CompsoConfig::aggressive(4e-3);
        let kc = KernelConfig::default();
        let rng = Rng::new(26);
        let rec = Recorder::enabled();
        let bytes = compress_chunked(&refs, &cfg, &kc, &schedule, &rng, &rec);
        assert_eq!(bytes, compress_quiet(&refs, &cfg, &kc, &schedule, &rng));
        let back = decompress_chunked(&bytes, &rec).unwrap();
        assert_eq!(back, decompress_quiet(&bytes).unwrap());
        let snap = rec.snapshot();
        let total: usize = sizes.iter().sum();
        assert_eq!(snap.counter(names::CORE_BYTES_IN), (total * 4) as u64);
        assert_eq!(snap.counter(names::CORE_BYTES_OUT), bytes.len() as u64);
        assert_eq!(
            snap.counter(names::CORE_DECODE_BYTES_IN),
            bytes.len() as u64
        );
        assert_eq!(snap.timers[names::CORE_CHUNKED_COMPRESS].count, 1);
        assert_eq!(snap.timers[names::CORE_DECODE].count, 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// Arbitrary layer configurations, chunk sizes, and seeds: the
        /// chunked pipeline must roundtrip lengths exactly and respect the
        /// error contract on every element.
        #[test]
        fn prop_chunked_roundtrip(
            sizes in proptest::collection::vec(0usize..3000, 1..5),
            chunk in 1usize..5000,
            seed in proptest::prelude::any::<u64>(),
            conservative in proptest::prelude::any::<bool>(),
        ) {
            let layers = generate_layers(&sizes, seed, GradientProfile::kfac());
            let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
            let cfg = if conservative {
                CompsoConfig::conservative(4e-3)
            } else {
                CompsoConfig::aggressive(4e-3)
            };
            let schedule = LayerSchedule::build(&sizes, chunk);
            let rng = Rng::new(seed ^ 0xABCD);
            let bytes = compress_quiet(&refs, &cfg, &KernelConfig::default(), &schedule, &rng);
            let back = decompress_quiet(&bytes).unwrap();
            proptest::prop_assert_eq!(back.len(), layers.len());
            for (orig, dec) in layers.iter().zip(&back) {
                proptest::prop_assert_eq!(orig.len(), dec.len());
                let mm = minmax_flat(orig);
                let range = if orig.is_empty() { 0.0 } else { mm.max - mm.min };
                let bound = 4e-3 * range + range * 1e-5 + 1e-6;
                for (&x, &y) in orig.iter().zip(dec) {
                    if y == 0.0 && !conservative {
                        proptest::prop_assert!(x.abs() <= bound);
                    } else {
                        proptest::prop_assert!((x - y).abs() <= bound);
                    }
                }
            }
        }
    }

    #[test]
    fn decode_scratch_is_reused_across_calls() {
        // ROADMAP item d: repeat decodes through one DecodeScratch must
        // not keep allocating the stream buffers — after the first call
        // the reserved capacity plateaus — and reuse must not change the
        // decoded bytes.
        let layers = layers_fixture(9);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let cfg = CompsoConfig::aggressive(4e-3);
        let kc = KernelConfig::default();
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        let schedule = LayerSchedule::build(&sizes, kc.chunk_elems);
        let bytes = compress_quiet(&refs, &cfg, &kc, &schedule, &Rng::new(10));

        let mut scratch = DecodeScratch::default();
        assert_eq!(scratch.capacity_bytes(), 0);
        let first = decompress_chunked_scratch(&bytes, &mut scratch).unwrap();
        let cap = scratch.capacity_bytes();
        assert!(cap > 0, "decode reserved nothing");
        for _ in 0..5 {
            let again = decompress_chunked_scratch(&bytes, &mut scratch).unwrap();
            assert_eq!(first, again, "scratch reuse changed the decode");
            assert_eq!(scratch.capacity_bytes(), cap, "scratch kept growing");
        }
    }

    #[test]
    fn thread_local_scratch_pool_backs_decompress_chunked() {
        // The zero-API-churn path: plain decompress_chunked calls on one
        // thread share the thread-local pool, so its capacity is non-zero
        // after a decode and stable across repeats.
        let layers = layers_fixture(11);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let cfg = CompsoConfig::aggressive(4e-3);
        let kc = KernelConfig::default();
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        let schedule = LayerSchedule::build(&sizes, kc.chunk_elems);
        let bytes = compress_quiet(&refs, &cfg, &kc, &schedule, &Rng::new(12));

        let first = decompress_quiet(&bytes).unwrap();
        let pool_cap = || DECODE_SCRATCH.with(|s| s.borrow().capacity_bytes());
        let cap = pool_cap();
        assert!(cap > 0, "pool untouched after decode");
        for _ in 0..3 {
            assert_eq!(decompress_quiet(&bytes).unwrap(), first);
            assert_eq!(pool_cap(), cap);
        }
    }

    #[test]
    #[should_panic(expected = "schedule does not match")]
    fn mismatched_schedule_panics() {
        let layers = [vec![0.0f32; 10]];
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let schedule = LayerSchedule::build(&[20], 8);
        let rng = Rng::new(13);
        compress_quiet(
            &refs,
            &CompsoConfig::default(),
            &KernelConfig::default(),
            &schedule,
            &rng,
        );
    }

    /// Above 1 Mi elements the computed tile grows (a pure function of
    /// the element count), and the output matches the free kernels run on
    /// a schedule of that exact tile — the model only *selects* the chunk
    /// size, the kernels stay the same.
    #[test]
    fn computed_tile_scales_and_matches_explicit_schedule() {
        let c = ChunkedCompso::default();
        let floor = KernelConfig::default().chunk_elems;
        let data = crate::synthetic::generate((1 << 20) + 5000, 25, GradientProfile::kfac());
        let choice = c.chunk_elems_for(data.len()).unwrap();
        assert_eq!(
            choice,
            crate::perfmodel::choose_chunk_elems(data.len(), floor)
        );
        assert_eq!(choice, 2 * floor, "just past the 1 Mi threshold");
        let mut rng = Rng::new(33);
        let bytes = c.compress(&data, &mut rng);
        let explicit = compress_quiet(
            &[&data],
            &c.config,
            &KernelConfig::default(),
            &LayerSchedule::build(&[data.len()], choice),
            &Rng::new(Rng::new(33).next_u64()),
        );
        assert_eq!(bytes, explicit);
        assert_eq!(c.decompress(&bytes).unwrap().len(), data.len());
    }

    /// §4.4's aggregation trade through the trait: one stream (one header,
    /// one frequency table) over many small layers beats per-layer fixed
    /// costs, and on large layers with shifted per-layer code
    /// distributions the shared entropy table costs a bounded ratio.
    #[test]
    fn aggregation_amortizes_headers_on_small_layers() {
        let c = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
        let rec = Recorder::disabled();
        let sizes = |n: usize, count: u64| -> (usize, usize) {
            let layers: Vec<Vec<f32>> = (0..count)
                .map(|i| crate::synthetic::generate(n, 20 + i, GradientProfile::kfac()))
                .collect();
            let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
            let mut rng = Rng::new(30);
            let together = c.compress_group(&refs, None, &mut rng, &rec).len();
            let separate = refs
                .iter()
                .map(|l| c.compress_group(&[l], None, &mut rng, &rec).len())
                .sum();
            (together, separate)
        };
        let (together, separate) = sizes(400, 64);
        assert!(
            together < separate,
            "together {together} separate {separate}"
        );
        let (together, separate) = sizes(20_000, 8);
        assert!(
            (together as f64) < separate as f64 * 1.5,
            "together {together} separate {separate}"
        );
    }

    #[test]
    fn smaller_eb_means_lower_ratio_higher_fidelity() {
        let ratio = |cfg: CompsoConfig, data: &[f32]| {
            ChunkedCompso::new(cfg).ratio(data, &mut Rng::new(65))
        };
        let data = crate::synthetic::generate(100_000, 64, GradientProfile::kfac());
        let loose = ratio(CompsoConfig::aggressive(1e-1), &data);
        let tight = ratio(CompsoConfig::aggressive(4e-3), &data);
        assert!(loose > tight, "loose {loose} tight {tight}");
        // The filter is what buys the ratio over SR alone.
        let sr_only = ratio(CompsoConfig::conservative(4e-3), &data);
        assert!(tight > sr_only, "filter {tight} vs sr-only {sr_only}");
        // The headline claim: >10x on K-FAC-gradient-like data.
        let data = crate::synthetic::generate(200_000, 5, GradientProfile::kfac());
        let headline = ratio(CompsoConfig::aggressive(4e-3), &data);
        assert!(headline > 10.0, "ratio {headline}");
    }
}
