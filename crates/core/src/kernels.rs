//! Parallel compression kernels — the CPU analogue of §4.5's GPU work.
//!
//! The paper's GPU optimizations and their counterparts here:
//!
//! | paper (CUDA)                               | this module (rayon)       |
//! |--------------------------------------------|---------------------------|
//! | fuse filter/quantize/pack into one kernel  | [`KernelConfig::fused`]: one data sweep per chunk vs. the same kernels in three passes with materialized intermediates |
//! | block reduction + warp shuffle for extrema | [`KernelConfig::hierarchical_extrema`]: chunk-local scans merged in a reduction tree vs. a flat serial scan |
//! | padded shared-memory buffers per layer     | chunks never span layers; each chunk's bitmap is padded to a byte boundary |
//! | pre-built layer→block hashmap              | [`LayerSchedule`] built once at optimizer init, reused every iteration |
//! | block-parallel decompression               | v2's per-chunk byte-offset index lets [`decompress_chunked`] decode every chunk concurrently |
//!
//! The entropy coder behind the kernels is byte-wise, so codes reach it
//! code-aligned, never bit-packed (whose symbols would straddle two
//! codes): one low byte per code, and for codes wider than a byte (Alg.
//! 1's conservative bound needs 9) a zero-centred high-bit plane stream
//! beside it (`FLAG_WIDE`, DESIGN.md §8.2). The coder does the packing
//! §4.3 does by hand.
//!
//! Compression is memory-bound with O(1) arithmetic intensity (§4.5), so
//! pass-count is the first-order cost and the fused/staged ablation is
//! directly measurable (`compso-bench`'s `fig8` and `ablations`).
//!
//! [`ChunkedCompso`] packages these kernels behind the [`Compressor`]
//! trait so `DistKfac` can drive them as the production compression path.

use crate::bitpack::{bits_for, plane_width, split_bias};
use crate::encoders::Codec;
use crate::microkernel::{self, CodeRecord, LaneScratch, SrLane, SR_LANES};
#[cfg(test)]
use crate::quantize::Quantized;
use crate::quantize::{codable_range, grid};
use crate::rounding::RoundingMode;
use crate::traits::{CompressError, Compressor};
use crate::wire::{Reader, WireError, Writer, MAX_DECODE_ELEMS};
use compso_obs::{names, Recorder};
use compso_tensor::reduce::{minmax_flat, minmax_hierarchical, MinMax};
use compso_tensor::rng::Rng;
use compso_tensor::Instance;
use rayon::prelude::*;
use std::ops::Range;

/// Magic byte of the chunked-parallel wire format (registered as
/// [`crate::wire::magic::MAGIC_STREAM_V2`]).
pub(crate) const MAGIC_CHUNKED: u8 = crate::wire::magic::MAGIC_STREAM_V2;

/// Version of the chunked wire format. v2 added the per-chunk byte-offset
/// index over the code and bitmap streams, which is what makes
/// [`decompress_chunked`] chunk-parallel: each worker seeks straight to
/// its chunk's records instead of replaying every earlier chunk's
/// variable-length headers.
pub(crate) const CHUNKED_VERSION: u8 = 2;

/// Bit 0 of the frame's `flags` byte: some chunk's codes are wider than
/// a byte, so every offset-index row carries a third column and a third
/// block — the plane stream — follows the bitmap and code streams. No
/// other bit is assigned; a reader refuses any.
pub(crate) const FLAG_WIDE: u8 = 1;

/// Byte-block granularity of the parallel entropy-coding stage.
pub(crate) const CODEC_BLOCK: usize = 256 * 1024;

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
    /// Lossless encoder applied to the bitmap and the code streams.
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

/// Elements per chunk (the "thread block" tile) for groups up to 1 Mi
/// elements, and the floor of the tile past that.
pub const CHUNK_ELEMS: usize = 16 * 1024;

/// Kernel structure knobs (the §4.5 ablation axes). The tile is not one
/// of them: it comes with the [`LayerSchedule`].
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// One fused sweep per chunk (true) vs. the same kernels in three
    /// passes over every chunk, each materializing its product (false).
    /// Both emit the same bytes.
    pub fused: bool,
    /// Tree-reduction extrema (true) vs. flat serial scan (false).
    pub hierarchical_extrema: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
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
    pub(crate) fn chunks(&self) -> &[ChunkDesc] {
        &self.chunks
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
    /// The chunk's slice of the code stream: the record header, then one
    /// low byte per code.
    fn codes(&self) -> &[u8] {
        &self.record[..self.codes_len]
    }

    /// The chunk's slice of the plane stream: its codes' bits past 8,
    /// empty for a chunk whose codes fit a byte.
    fn planes(&self) -> &[u8] {
        &self.record[self.codes_len..]
    }
}

/// One chunk's input to the fused sweep: its values, its layer's range
/// and its forked stream, which the sweep leaves after its last draw —
/// and, when the group's reconstruction is wanted, the chunk's window of
/// it (zero-filled, as long as the chunk).
struct ChunkJob<'d> {
    data: &'d [f32],
    range: MinMax,
    rng: Rng,
    out: Option<&'d mut [f32]>,
}

/// A chunk after its filter sweep: everything its record holds but the
/// codes. Its kept values are the chunk itself, or the filter's
/// survivors when `use_filter`.
struct Staged {
    n: usize,
    use_filter: bool,
    bitmap: Vec<u8>,
    lo: f32,
    bin_width: f32,
    n_bins: u32,
    /// How many values survived the filter.
    n_kept: usize,
}

impl Staged {
    /// The values to quantize: `data` itself, or the filter's survivors.
    fn kept<'a>(&self, data: &'a [f32], survivors: &'a [f32]) -> &'a [f32] {
        if self.use_filter {
            survivors
        } else {
            data
        }
    }

    fn inv_w(&self) -> f64 {
        1.0 / self.bin_width as f64
    }

    /// The SR lane over positions `at` of this chunk's kept values, with
    /// `job`'s stream and `buf`'s codes.
    fn lane<'a>(
        &self,
        job: &'a mut ChunkJob<'_>,
        buf: &'a mut LaneScratch,
        at: Range<usize>,
    ) -> SrLane<'a> {
        SrLane {
            kept: &self.kept(job.data, &buf.kept)[at.clone()],
            lo: self.lo,
            inv_w: self.inv_w(),
            n_bins: self.n_bins,
            rng: &mut job.rng,
            codes: &mut buf.codes[at],
        }
    }
}

/// Lanes the held chunks of [`compress_chunks`] step down to once no
/// chunk is left to refill a free lane: one AVX2 register. Fewer than
/// this finish in scalar code.
const TAIL_LANES: usize = 4;

/// The filter sweep and the quantizer header of one chunk, the survivors
/// into `survivors`: the layer-global range, an f32 span and the
/// [`grid`] the [`crate::Quantizer`] also quantizes on. The filter runs
/// on `inst`.
fn stage_chunk(
    inst: Instance,
    data: &[f32],
    range: MinMax,
    cfg: &CompsoConfig,
    survivors: &mut Vec<f32>,
) -> Staged {
    let span = range.max - range.min;
    let threshold = match cfg.eb_filter {
        Some(ebf) if span > 0.0 => ebf * span,
        _ => 0.0,
    };
    let use_filter = threshold > 0.0;
    let mut bitmap = Vec::new();
    let n_kept = if use_filter {
        microkernel::filter_kernel(inst, data, threshold, &mut bitmap, survivors);
        survivors.len()
    } else {
        data.len()
    };
    let (bin_width, n_bins) = grid(cfg.eb_quant, range.min, range.max, n_kept);
    Staged {
        n: data.len(),
        use_filter,
        bitmap,
        lo: range.min,
        bin_width,
        n_bins,
        n_kept,
    }
}

/// Splits a staged chunk's codes and writes its record, straight from the
/// arena: a low byte per code in the record, and the bits past 8 of codes
/// wider than a byte in the plane stream.
/// With an `out` window it also writes there the values
/// [`decompress_chunk_into`] gives that record, through the decoder's own
/// dequantize ([`CodeRecord::dequantize_into`]) of the streams it just
/// split: `lo` for a constant chunk, a filtered chunk's values scattered
/// by its bitmap ([`microkernel::scatter_kept`]) with 0.0 where one was
/// dropped. The split and the dequantize run on `inst`.
fn finish_chunk(
    inst: Instance,
    st: Staged,
    codes: &[u32],
    low: &mut Vec<u8>,
    planes: &mut Vec<u8>,
    out: Option<&mut [f32]>,
) -> ChunkOut {
    low.clear();
    planes.clear();
    let bits = bits_for(st.n_bins);
    if st.n_bins > 0 {
        let bias = split_bias(st.lo, st.bin_width, st.n_bins);
        microkernel::split_into(inst, codes, bits, bias, low, planes);
    }
    if let Some(out) = out {
        microkernel::with_chunk_kept(|scratch| {
            let kept = if st.use_filter {
                scratch.clear();
                scratch.resize(st.n_kept, 0.0);
                &mut scratch[..]
            } else {
                &mut out[..]
            };
            if st.n_bins == 0 {
                kept.fill(st.lo);
            } else {
                let record = CodeRecord {
                    low,
                    planes,
                    bits,
                    lo: st.lo,
                    bin_width: st.bin_width,
                    n_bins: st.n_bins,
                };
                record
                    .dequantize_into(inst, kept)
                    .expect("the quantizer's codes are in range");
            }
            if st.use_filter {
                microkernel::scatter_kept(&st.bitmap, st.n, st.n_kept, out, |k| scratch[k])
                    .expect("the bitmap keeps exactly the survivors");
            }
        });
    }
    let mut w = Writer::with_capacity(29 + low.len() + planes.len());
    w.u64(st.n as u64);
    w.u8(u8::from(st.use_filter));
    w.f32(st.lo);
    w.f32(st.bin_width);
    w.u32(st.n_bins);
    w.u64(st.n_kept as u64);
    w.bytes(low);
    let codes_len = w.len();
    w.bytes(planes);
    ChunkOut {
        bitmap: st.bitmap,
        record: w.into_bytes(),
        codes_len,
    }
}

/// The production fused sweep over a run of chunks, rebuilt on the
/// [`microkernel`] layer: the word-at-a-time filter kernel, the
/// mode-hoisted quantize kernel and the byte/plane splitter, all writing
/// through the per-thread compress arena instead of fresh `Vec`s.
///
/// Stochastic rounding runs up to [`microkernel::SR_LANES`] chunks at once
/// on `inst`'s [`microkernel::quantize_sr_lanes`]: each lane holds one
/// chunk and its own stream, the lanes advance in lockstep until one runs
/// dry, that chunk's record is written and the next chunk takes its lane.
/// Once no chunk is left to take a lane, the held chunks step down to
/// [`TAIL_LANES`] lanes (one AVX2 register) while they fill them, and the
/// last few finish one by one in scalar code. A chunk with nothing to
/// draw (no bins, or another rounding mode) is quantized and written as
/// it is staged. Records come back in chunk order.
///
/// Bit-identical per chunk to the tests' scalar oracle, which rounds each
/// value alone on its own grid arithmetic: a lane consumes its chunk's
/// stream in the order the scalar rounding does. The staged ablation path
/// runs the same kernels, and the whole-stream pin holds both paths to the
/// frame of the oracle's records.
fn compress_chunks(jobs: &mut [ChunkJob<'_>], cfg: &CompsoConfig, inst: Instance) -> Vec<ChunkOut> {
    /// A chunk in a lane: its index, its header and how far its SR has run.
    struct Held {
        idx: usize,
        st: Staged,
        pos: usize,
    }
    /// The chunks held in lanes `slots` side by side, `steps` values on.
    fn run_lanes<const W: usize>(
        inst: Instance,
        held: &[Option<Held>; SR_LANES],
        slots: [usize; W],
        jobs: &mut [ChunkJob<'_>],
        bufs: &mut [LaneScratch; SR_LANES],
        steps: usize,
    ) {
        let now = slots.map(|j| held[j].as_ref().expect("the lane holds a chunk"));
        let held_jobs = jobs.get_disjoint_mut(now.map(|h| h.idx));
        let held_jobs = held_jobs.expect("each chunk is held by one lane");
        let bufs = bufs.get_disjoint_mut(slots).expect("one buffer per lane");
        let mut parts = now.into_iter().zip(held_jobs).zip(bufs);
        let mut lanes: [SrLane; W] = std::array::from_fn(|_| {
            let ((h, job), buf) = parts.next().expect("one part per lane");
            h.st.lane(job, buf, h.pos..h.pos + steps)
        });
        microkernel::quantize_sr_lanes(inst, &mut lanes);
    }
    let mut outs: Vec<Option<ChunkOut>> = Vec::new();
    outs.resize_with(jobs.len(), || None);
    let lanes_draw = cfg.mode == RoundingMode::Stochastic;
    microkernel::with_compress_scratch(|s| {
        let mut held: [Option<Held>; SR_LANES] = Default::default();
        let mut next = 0;
        loop {
            for (slot, lane) in held.iter_mut().zip(&mut s.lanes) {
                while slot.is_none() && next < jobs.len() {
                    let job = &mut jobs[next];
                    let st = stage_chunk(inst, job.data, job.range, cfg, &mut lane.kept);
                    let kept = st.kept(job.data, &lane.kept);
                    if lanes_draw && st.n_bins > 0 {
                        lane.codes.clear();
                        lane.codes.resize(kept.len(), 0);
                        *slot = Some(Held {
                            idx: next,
                            st,
                            pos: 0,
                        });
                    } else {
                        if st.n_bins > 0 {
                            let (lo, inv_w, n_bins, rng) =
                                (st.lo, st.inv_w(), st.n_bins, &mut job.rng);
                            microkernel::quantize_kernel(
                                kept,
                                lo,
                                inv_w,
                                n_bins,
                                cfg.mode,
                                rng,
                                &mut lane.codes,
                            );
                        }
                        let out = job.out.as_deref_mut();
                        outs[next] = Some(finish_chunk(
                            inst,
                            st,
                            &lane.codes,
                            &mut s.low,
                            &mut s.planes,
                            out,
                        ));
                    }
                    next += 1;
                }
            }
            // The lane group: all lanes while chunks are left to take them,
            // then the first `TAIL_LANES` held ones while that many are.
            let mut slots = [0; SR_LANES];
            let mut live = 0;
            for (j, slot) in held.iter().enumerate() {
                if slot.is_some() {
                    slots[live] = j;
                    live += 1;
                }
            }
            let Some(width) = [SR_LANES, TAIL_LANES].into_iter().find(|&w| w <= live) else {
                break;
            };
            let group = &slots[..width];
            let remaining = |j: usize| held[j].as_ref().map_or(0, |h| h.st.n_kept - h.pos);
            let steps = group.iter().map(|&j| remaining(j)).min().unwrap_or(0);
            if width == SR_LANES {
                run_lanes(inst, &held, slots, jobs, &mut s.lanes, steps);
            } else {
                let tail = *slots
                    .first_chunk::<TAIL_LANES>()
                    .expect("the tail is a prefix");
                run_lanes(inst, &held, tail, jobs, &mut s.lanes, steps);
            }
            for &j in group {
                let h = held[j].as_mut().expect("the lane holds a chunk");
                h.pos += steps;
                if h.pos == h.st.n_kept {
                    let Held { idx, st, .. } = held[j].take().expect("the lane holds a chunk");
                    let out = jobs[idx].out.as_deref_mut();
                    outs[idx] = Some(finish_chunk(
                        inst,
                        st,
                        &s.lanes[j].codes,
                        &mut s.low,
                        &mut s.planes,
                        out,
                    ));
                }
            }
        }
        for (slot, lane) in held.iter_mut().zip(&mut s.lanes) {
            if let Some(Held { idx, st, pos }) = slot.take() {
                st.lane(&mut jobs[idx], lane, pos..st.n_kept).quantize();
                let out = jobs[idx].out.as_deref_mut();
                outs[idx] = Some(finish_chunk(
                    inst,
                    st,
                    &lane.codes,
                    &mut s.low,
                    &mut s.planes,
                    out,
                ));
            }
        }
    });
    outs.into_iter()
        .map(|o| o.expect("every chunk was written"))
        .collect()
}

/// [`compress_chunks`] over one chunk on this thread's instance — the
/// shape the chunk-level pins drive.
#[cfg(test)]
fn compress_chunk_fast(data: &[f32], range: MinMax, cfg: &CompsoConfig, rng: &mut Rng) -> ChunkOut {
    let mut jobs = [ChunkJob {
        data,
        range,
        rng: rng.clone(),
        out: None,
    }];
    let out = compress_chunks(&mut jobs, cfg, Instance::current());
    *rng = jobs[0].rng.clone();
    out.into_iter().next().expect("one chunk in, one out")
}

/// Compresses multiple layers with the chunked-parallel kernels.
///
/// The output is the self-describing v2 chunked format (see
/// `CHUNKED_VERSION`); decode with [`decompress_chunked`]. The result is
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
    compress_chunked_reconstructing(layers, cfg, kc, schedule, rng, rec, false).0
}

/// [`compress_chunked`], and — when `reconstruct` and the fused kernels
/// run — the values [`decompress_chunked`] gives the stream, one buffer
/// per layer, written by the chunk sweep as it writes the codes (see
/// [`finish_chunk`]).
fn compress_chunked_reconstructing(
    layers: &[&[f32]],
    cfg: &CompsoConfig,
    kc: &KernelConfig,
    schedule: &LayerSchedule,
    rng: &Rng,
    rec: &Recorder,
    reconstruct: bool,
) -> (Vec<u8>, Option<Vec<Vec<f32>>>) {
    let span = rec.span(names::CORE_CHUNKED_COMPRESS);
    assert_eq!(
        schedule.layer_sizes,
        layers.iter().map(|l| l.len()).collect::<Vec<_>>(),
        "schedule does not match layer sizes"
    );
    let n: usize = layers.iter().map(|l| l.len()).sum();
    assert!(
        n <= MAX_DECODE_ELEMS,
        "{n} elements is a stream the decoder refuses"
    );

    // Pass 1: per-layer extrema, each layer's codable range.
    let ranges: Vec<MinMax> = layers
        .iter()
        .map(|l| {
            let scan = if kc.hierarchical_extrema {
                minmax_hierarchical(l)
            } else {
                minmax_flat(l)
            };
            codable_range(l, scan)
        })
        .collect();

    // Pass 2(+): the chunk sweep, on the instance read on the calling
    // thread: a pin does not reach the workers.
    let inst = Instance::current();
    let chunk = |c: &ChunkDesc| &layers[c.layer][c.offset..c.offset + c.len];
    let mut recon = None;
    let outs: Vec<ChunkOut> = if kc.fused {
        let sweep = |windows: Option<Vec<&mut [f32]>>| {
            let mut windows = windows.map(Vec::into_iter);
            let mut jobs: Vec<ChunkJob> = (schedule.chunks.iter().enumerate())
                .map(|(idx, c)| ChunkJob {
                    data: chunk(c),
                    range: ranges[c.layer],
                    rng: rng.fork(idx as u64),
                    out: windows
                        .as_mut()
                        .map(|w| w.next().expect("one window per chunk")),
                })
                .collect();
            // One contiguous run of chunks per worker, so the SR lanes
            // stay full across chunk boundaries.
            let run = jobs.len().div_ceil(rayon::current_num_threads()).max(1);
            let runs: Vec<Vec<ChunkOut>> = jobs
                .par_chunks_mut(run)
                .map(|run| compress_chunks(run, cfg, inst))
                .collect();
            runs.into_iter().flatten().collect()
        };
        if reconstruct {
            let (layers, outs) =
                with_chunk_windows(&schedule.layer_sizes, schedule.chunk_elems, |windows| {
                    sweep(Some(windows))
                });
            recon = Some(layers);
            outs
        } else {
            sweep(None)
        }
    } else {
        // Staged: the fused sweep's kernels in three passes over every
        // chunk, each materializing its product for the next — headers
        // and survivors, then codes, then records — as an unfused
        // multi-kernel GPU pipeline does. Only the pass structure differs,
        // so both paths emit the same bytes.
        let staged: Vec<(Staged, Vec<f32>)> = schedule
            .chunks
            .par_iter()
            .map(|c| {
                let mut survivors = Vec::new();
                let st = stage_chunk(inst, chunk(c), ranges[c.layer], cfg, &mut survivors);
                (st, survivors)
            })
            .collect();
        let codes: Vec<Vec<u32>> = (staged.par_iter().zip(&schedule.chunks).enumerate())
            .map(|(idx, ((st, survivors), c))| {
                let mut codes = Vec::new();
                if st.n_bins > 0 {
                    microkernel::quantize_kernel(
                        st.kept(chunk(c), survivors),
                        st.lo,
                        st.inv_w(),
                        st.n_bins,
                        cfg.mode,
                        &mut rng.fork(idx as u64),
                        &mut codes,
                    );
                }
                codes
            })
            .collect();
        (staged.into_par_iter().zip(codes))
            .map(|((st, _), codes)| {
                microkernel::with_compress_scratch(|s| {
                    finish_chunk(inst, st, &codes, &mut s.low, &mut s.planes, None)
                })
            })
            .collect()
    };

    let out = write_frame(&outs, schedule, cfg.codec);
    drop(span);
    if rec.is_enabled() {
        rec.add(names::CORE_BYTES_IN, (n * 4) as u64);
        rec.add(names::CORE_BYTES_OUT, out.len() as u64);
    }
    (out, recon)
}

/// The 0xC6 frame of `schedule`'s chunk records, in chunk order, with
/// their streams entropy-coded by `codec`.
fn write_frame(outs: &[ChunkOut], schedule: &LayerSchedule, codec: Codec) -> Vec<u8> {
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
    for o in outs {
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
    let enc_bitmaps = codec.encode_blocks(&bitmaps, CODEC_BLOCK);
    let enc_codes = codec.encode_blocks(&codes, CODEC_BLOCK);
    let enc_planes = wide.then(|| codec.encode_blocks(&planes, CODEC_BLOCK));

    let mut w = Writer::with_capacity(
        enc_bitmaps.len()
            + enc_codes.len()
            + enc_planes.as_ref().map_or(0, Vec::len)
            + 8 * columns * offsets.len()
            + 64,
    );
    w.u8(MAGIC_CHUNKED);
    w.u8(CHUNKED_VERSION);
    w.u8(codec.tag());
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
    w.into_bytes()
}

/// Runs `f` over the windows of zero-filled buffers of `layer_sizes`
/// tiled by `chunk_elems` — one per chunk, in [`LayerSchedule`] order,
/// and one empty window for a zero-length layer, which still carries one
/// (empty) chunk record — and returns the buffers with `f`'s result.
/// Chunks tile each layer contiguously, so every chunk owns a disjoint
/// window of its layer's buffer and values land in place, with no
/// assembly copy; the zero fill is what leaves a filtered chunk's
/// dropped values exactly 0.0. The decoder and the reconstruction the
/// compressor writes share it.
fn with_chunk_windows<R>(
    layer_sizes: &[usize],
    chunk_elems: usize,
    f: impl FnOnce(Vec<&mut [f32]>) -> R,
) -> (Vec<Vec<f32>>, R) {
    let mut out: Vec<Vec<f32>> = layer_sizes.iter().map(|&n| vec![0.0f32; n]).collect();
    let mut windows: Vec<&mut [f32]> = Vec::new();
    for buf in out.iter_mut() {
        if buf.is_empty() {
            windows.push(&mut []);
        } else {
            windows.extend(buf.chunks_mut(chunk_elems));
        }
    }
    let r = f(windows);
    (out, r)
}

/// Decodes one chunk's record from its exact byte slices. Both readers
/// must be fully consumed — a chunk that under- or over-runs its indexed
/// slice is corrupt.
///
/// Microkernel rewrite of [`decompress_chunk_ref`] in which values
/// materialize directly in the caller's pre-zeroed output window (the
/// chunk's slice of the final layer buffer, so decode has no assembly
/// copy at all). Codes dequantize as they merge
/// ([`CodeRecord::dequantize_into`]) straight into the window for an
/// unfiltered chunk, and into a per-thread buffer ahead of the keep-mask
/// scatter ([`microkernel::scatter_kept`]) for a filtered one. Every
/// validation check and error string of the scalar reference is
/// preserved, in the same order.
///
/// `out` must be zero-filled and exactly `c.len` long. The codes
/// dequantize on `inst`.
fn decompress_chunk_into(
    inst: Instance,
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
    // chunk's element count from the schedule caps the carried count).
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
    // codes of value 0, backed by zero stream bytes. Any other carries a
    // low byte per code, and its plane slice the codes' bits past 8 —
    // held to its exact length, nothing where they fit a byte.
    let constant = count == 0 || n_bins == 0;
    let (bits, stored) = (bits_for(n_bins), if constant { 0 } else { count });
    let low = cr.bytes(stored)?;
    if planes.len() != (stored * plane_width(bits) as usize).div_ceil(8) {
        return Err(CompressError::Corrupt("chunk plane length"));
    }
    let record = CodeRecord {
        low,
        planes,
        bits,
        lo,
        bin_width,
        n_bins,
    };
    microkernel::with_chunk_kept(|scratch| {
        if !used_filter {
            // Every value is kept, so the codes dequantize as they merge
            // (`count ≤ c.len` was checked above; a short count is
            // refused below, behind the checks that have always come
            // before it). Code 0 dequantizes to exactly `lo` (f32→f64→f32
            // is exact), independent of the carried bin width.
            let kept = &mut out[..count];
            if constant {
                kept.fill(lo);
            } else {
                record.dequantize_into(inst, kept)?;
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
        let kept = scratch;
        kept.clear();
        if constant {
            kept.resize(count, lo);
        } else {
            kept.resize(count, 0.0);
            record.dequantize_into(inst, kept)?;
        }
        if !cr.is_exhausted() {
            return Err(CompressError::Corrupt("chunk codes overrun"));
        }
        let mut br = Reader::new(bitmaps);
        let bm = br.bytes(n.div_ceil(8))?;
        if !br.is_exhausted() {
            return Err(CompressError::Corrupt("chunk bitmap overrun"));
        }
        match microkernel::scatter_kept(bm, n, count, out, |k| kept[k]) {
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
    decompress_chunk_into(Instance::current(), c, codes, planes, bitmaps, &mut out)?;
    Ok(out)
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
    let quant = Quantized::read_capped(&mut cr, planes, c.len)?;
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

/// The next stream block of a 0xC6 frame, refused unless its own codec
/// tag is the one the frame's header names.
fn stream_block<'a>(r: &mut Reader<'a>, codec: Codec) -> Result<&'a [u8], CompressError> {
    let block = r.block()?;
    if block.first() != Some(&codec.tag()) {
        return Err(WireError::Invalid("stream codec vs header").into());
    }
    Ok(block)
}

/// [`decompress_chunked`] decoding through a given [`DecodeScratch`],
/// reusing the bitmap/code/plane stream buffers across calls.
///
/// Every length field read from the (untrusted) header is validated
/// against arithmetic identities and the bytes actually received before
/// any allocation sized by it: the layer count must fit in the remaining
/// header bytes, the layer sizes' sum in [`MAX_DECODE_ELEMS`], and the
/// chunk count must equal the count the layer sizes imply *and* fit the
/// offset index that follows, so a corrupted stream can never drive an
/// allocation larger than the buffer it arrived in or the element cap.
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
    let codec = Codec::from_tag(r.u8()?).ok_or(WireError::Invalid("codec tag"))?;

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
    // Decode zero-fills every layer before it reads a chunk, so the
    // sizes' sum is held to the cap each size is held to.
    let mut layer_sizes = Vec::with_capacity(n_layers);
    let mut total: usize = 0;
    for _ in 0..n_layers {
        let n = crate::wire::checked_count(r.u64()?)?;
        total = (total.checked_add(n))
            .filter(|&t| t <= MAX_DECODE_ELEMS)
            .ok_or(WireError::Invalid("layer sizes over cap"))?;
        layer_sizes.push(n);
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
    Codec::decode_blocks_into(stream_block(&mut r, codec)?, &mut scratch.bitmaps)?;
    Codec::decode_blocks_into(stream_block(&mut r, codec)?, &mut scratch.codes)?;
    if columns == 3 {
        Codec::decode_blocks_into(stream_block(&mut r, codec)?, &mut scratch.planes)?;
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

    // Chunk-parallel decode, straight into the layer buffers. The
    // instance is read on the calling thread: a pin does not reach the
    // workers.
    let (chunks, inst) = (schedule.chunks(), Instance::current());
    let (out, decoded) = with_chunk_windows(&layer_sizes, chunk_elems, |windows| {
        debug_assert_eq!(windows.len(), n_chunks);
        windows
            .into_par_iter()
            .enumerate()
            .map(|(i, dst)| {
                let [codes, bitmaps, planes] =
                    [0, 1, 2].map(|k| &streams[k][offsets[i][k]..ends[i][k]]);
                decompress_chunk_into(inst, &chunks[i], codes, planes, bitmaps, dst)
            })
            .collect::<Result<Vec<()>, CompressError>>()
    });
    decoded?;
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
/// choice (`crate::perfmodel::choose_chunk_elems`) for the group's
/// total element count, floored at the default tile. It is a pure
/// function of the element count — never of live thread counts — so
/// replicas stay bit-identical, and it *equals* the default tile for
/// groups up to `CHUNK_ELEMS × MODELED_PARALLEL_WIDTH` (1 Mi) elements.
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
    crate::perfmodel::choose_chunk_elems(total_elems, CHUNK_ELEMS)
}

/// Most frames one thread keeps for [`OWN_FRAMES`]; past it the oldest
/// goes first.
const OWN_FRAMES_CAP: usize = 32;

/// A stream this thread compressed, with the values
/// [`decompress_chunked`] gives it.
struct OwnFrame {
    stream: Vec<u8>,
    layers: Vec<Vec<f32>>,
}

thread_local! {
    /// The frames [`ChunkedCompso::compress_group_keyed`] compressed on
    /// this thread with a schedule and has not yet seen decoded, oldest
    /// first. The recurring gather decodes its own frames on the thread
    /// that compressed them; a [`ChunkedCompso::decompress_group`] of the
    /// same bytes takes its entry instead of running the decoder. The
    /// list is borrowed only to push, pop or take an entry — never across
    /// a call that can re-enter.
    static OWN_FRAMES: std::cell::RefCell<std::collections::VecDeque<OwnFrame>> =
        const { std::cell::RefCell::new(std::collections::VecDeque::new()) };
}

/// Keeps `stream` with its decoded `layers`, dropping the oldest entry
/// at the cap.
fn keep_own_frame(stream: &[u8], layers: Vec<Vec<f32>>) {
    let stream = stream.to_vec();
    OWN_FRAMES.with(|f| {
        let mut f = f.borrow_mut();
        if f.len() == OWN_FRAMES_CAP {
            f.pop_front();
        }
        f.push_back(OwnFrame { stream, layers });
    });
}

/// The decoded layers of the entry whose stream is `bytes`, byte for
/// byte, taken out of the list.
fn take_own_frame(bytes: &[u8]) -> Option<Vec<Vec<f32>>> {
    OWN_FRAMES.with(|f| {
        let mut f = f.borrow_mut();
        let at = f.iter().position(|e| e.stream == bytes)?;
        f.remove(at).map(|e| e.layers)
    })
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
            // A cached schedule marks the recurring gather, whose origin
            // installs its own groups: keep what every peer will decode.
            Some(s) => {
                let (stream, recon) = compress_chunked_reconstructing(
                    &layers,
                    &self.config,
                    &kc,
                    s,
                    &base,
                    rec,
                    true,
                );
                if let Some(layers) = recon {
                    keep_own_frame(&stream, layers);
                }
                stream
            }
            None => {
                let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
                let s = LayerSchedule::build(&sizes, chunk_choice(sizes.iter().sum()));
                compress_chunked(&layers, &self.config, &kc, &s, &base, rec)
            }
        }
    }

    /// [`decompress_chunked`], unless this thread compressed exactly
    /// these bytes with a schedule and has not decoded them since: then
    /// the values its compressor wrote, which equal the decoder's bit for
    /// bit. A hand-back counts in `core/own_frame_hits` and opens no
    /// `core/decode` span, which times decoder work only.
    fn decompress_group(
        &self,
        bytes: &[u8],
        rec: &Recorder,
    ) -> Result<Vec<Vec<f32>>, CompressError> {
        if let Some(layers) = take_own_frame(bytes) {
            rec.incr(names::CORE_OWN_FRAME_HITS);
            return Ok(layers);
        }
        decompress_chunked(bytes, rec)
    }

    fn chunk_elems_for(&self, total_elems: usize) -> Option<usize> {
        Some(chunk_choice(total_elems))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::quantize_on_grid;
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

    // The scalar oracle: one chunk through plain loops and
    // `quantize_on_grid`, with its own grid arithmetic, written as the
    // record layout reads. The chunk pins hold the kernels to it, and the
    // whole-stream pin assembles a frame from it.

    /// The filter sweep's product over one chunk.
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

    /// The filter sweep of one chunk against the *layer-global* range.
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
    /// normalization, matching the GPU kernel. The bin width is `eb ×
    /// range`, or the smallest positive f32 where that underflows.
    fn quantize_chunk(
        kept: &[f32],
        n: usize,
        range: MinMax,
        cfg: &CompsoConfig,
        rng: &mut Rng,
    ) -> Quantized {
        let (lo, hi) = if n == 0 {
            (0.0, 0.0)
        } else {
            (range.min, range.max)
        };
        let span = hi - lo;
        if span == 0.0 || kept.is_empty() {
            return Quantized {
                codes: vec![0; kept.len()],
                lo,
                bin_width: 0.0,
                n_bins: 0,
            };
        }
        let w = cfg.eb_quant * span;
        let bin_width = if w == 0.0 { f32::from_bits(1) } else { w };
        let n_bins = (span as f64 / bin_width as f64).ceil() as u32;
        quantize_on_grid(kept, lo, bin_width, n_bins, cfg.mode, rng)
    }

    /// Serializes one chunk's record from the scalar stages' products:
    /// [`Quantized::write`]'s record, its plane bytes after it.
    fn serialize_chunk(f: FilteredChunk, quant: &Quantized) -> ChunkOut {
        let mut w = Writer::new();
        w.u64(f.n as u64);
        w.u8(u8::from(f.used_filter));
        let planes = quant.write(&mut w);
        let codes_len = w.len();
        w.bytes(&planes);
        ChunkOut {
            bitmap: f.bitmap,
            record: w.into_bytes(),
            codes_len,
        }
    }

    /// One chunk through the three scalar stages: the bit-identity oracle
    /// of [`compress_chunk_fast`] and of both kernel paths (§12 of
    /// DESIGN.md).
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

    /// The header fields `n_bins` and `count` of a chunk record.
    fn record_bins_and_count(out: &ChunkOut) -> (u32, usize) {
        let n_bins = u32::from_le_bytes(out.record[17..21].try_into().unwrap());
        let count = u64::from_le_bytes(out.record[21..29].try_into().unwrap());
        (n_bins, count as usize)
    }

    /// How many code bytes a record carries: one per code, none for a
    /// constant chunk.
    fn stored_codes(out: &ChunkOut) -> usize {
        match record_bins_and_count(out) {
            (0, _) => 0,
            (_, count) => count,
        }
    }

    /// `⌈count · max(bits − 8, 0) / 8⌉`: the plane bytes a record's codes
    /// need.
    fn plane_bytes(out: &ChunkOut) -> usize {
        let (n_bins, _) = record_bins_and_count(out);
        (stored_codes(out) * bits_for(n_bins).saturating_sub(8) as usize).div_ceil(8)
    }

    /// Quantizer bounds and the code width each gives: Alg. 1's aggressive
    /// and conservative bounds (251 and 501 codes), a 10-bit bound and one
    /// past 16 bits.
    const WIDTH_BOUNDS: [(f32, u32); 4] = [(4e-3, 8), (2e-3, 9), (1e-3, 10), (1e-6, 20)];

    /// A bound for every code width from 1 to 12 bits:
    /// `conservative(4e-2)`'s 25 or 26 bins are 5-bit codes, §4.3's
    /// `1e-2` example 7-bit ones.
    const EVERY_WIDTH: [(f32, u32); 12] = [
        (1.0, 1),
        (0.4, 2),
        (0.2, 3),
        (0.1, 4),
        (4e-2, 5),
        (2e-2, 6),
        (1e-2, 7),
        (4e-3, 8),
        (2e-3, 9),
        (1e-3, 10),
        (6e-4, 11),
        (3e-4, 12),
    ];

    /// [`EVERY_WIDTH`], then [`WIDTH_BOUNDS`]' bound past 16 bits.
    fn every_bound() -> impl Iterator<Item = (f32, u32)> {
        EVERY_WIDTH.into_iter().chain([WIDTH_BOUNDS[3]])
    }

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
    }

    #[test]
    fn fused_roundtrip_matches_layers() {
        let layers = layers_fixture(1);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let cfg = CompsoConfig::aggressive(4e-3);
        let kc = KernelConfig::default();
        let schedule = LayerSchedule::build(
            &layers.iter().map(|l| l.len()).collect::<Vec<_>>(),
            CHUNK_ELEMS,
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
        // ablation is purely about pass structure; and both are the frame
        // of the scalar oracle's chunk records. The last layer's range is
        // subnormal, so `eb × range` underflows in all three.
        //
        // At every width a run produces: Alg. 1's two bounds (8- and 9-bit
        // codes), a 10-bit and a 20-bit one, with and without the filter,
        // under every rounding mode. Past 8 bits the frame is the flagged
        // three-stream layout, and its subnormal layer is a narrow chunk
        // inside it.
        let mut layers = generate_layers(&[20_000, 1234, 0, 17_001, 8], 3, GradientProfile::kfac());
        layers.push(vec![0.0, 1e-44, 4e-45]);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        let schedule = LayerSchedule::build(&sizes, 16 * 1024);
        let rng = Rng::new(4);
        let ranges: Vec<MinMax> = (layers.iter())
            .map(|l| codable_range(l, minmax_flat(l)))
            .collect();
        let modes = [
            RoundingMode::Nearest,
            RoundingMode::Stochastic,
            RoundingMode::HalfProbability,
        ];
        for ((eb, bits), mode) in WIDTH_BOUNDS.into_iter().flat_map(|w| modes.map(|m| (w, m))) {
            for cfg in [CompsoConfig::aggressive(eb), CompsoConfig::conservative(eb)] {
                let cfg = cfg.with_mode(mode);
                let records: Vec<ChunkOut> = (schedule.chunks().iter().enumerate())
                    .map(|(idx, c)| {
                        let data = &layers[c.layer][c.offset..c.offset + c.len];
                        compress_chunk_fused(data, ranges[c.layer], &cfg, &mut rng.fork(idx as u64))
                    })
                    .collect();
                let scalar = write_frame(&records, &schedule, cfg.codec);
                for fused in [true, false] {
                    let kc = KernelConfig {
                        fused,
                        ..KernelConfig::default()
                    };
                    let stream = compress_quiet(&refs, &cfg, &kc, &schedule, &rng);
                    assert_eq!(stream, scalar, "{cfg:?}, fused: {fused}");
                }
                assert_eq!(scalar[3], if bits > 8 { FLAG_WIDE } else { 0 }, "{cfg:?}");
                let back = decompress_quiet(&scalar).unwrap();
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
            let range = codable_range(data, minmax_flat(data));
            for mode in [
                RoundingMode::Nearest,
                RoundingMode::Stochastic,
                RoundingMode::HalfProbability,
            ] {
                for eb_filter in [Some(1e-3), None] {
                    for (eb_quant, _) in every_bound() {
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
                        // Every record but a constant one carries a byte
                        // per code, its plane slice the codes' bits past 8.
                        let stored = stored_codes(&fast);
                        assert_eq!(fast.codes_len, 29 + stored, "{what}");
                        assert_eq!(fast.planes().len(), plane_bytes(&fast), "{what}");
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
        let schedule = LayerSchedule::build(&sizes, CHUNK_ELEMS);
        for cfg in [
            CompsoConfig::conservative(2e-3),
            CompsoConfig::aggressive(4e-3),
        ] {
            let first = compress_quiet(&refs, &cfg, &kc, &schedule, &Rng::new(44));
            let cap = microkernel::compress_scratch_capacity_bytes();
            assert!(cap > 0, "compress arena untouched");
            if cfg.eb_filter.is_none() {
                let planes = microkernel::with_compress_scratch(|s| s.planes.capacity());
                assert!(planes >= CHUNK_ELEMS / 8, "plane bytes bypassed the arena");
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
            width in 0usize..EVERY_WIDTH.len() + 1,
            flip in proptest::prelude::any::<(usize, u8)>(),
        ) {
            let data = crate::synthetic::generate(n, seed, GradientProfile::kfac());
            let eb = every_bound().nth(width).unwrap().0;
            let cfg = if filtered {
                CompsoConfig::aggressive(eb)
            } else {
                CompsoConfig::conservative(eb)
            };
            let range = codable_range(&data, minmax_flat(&data));
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

    /// The instances this host runs.
    fn instances() -> impl Iterator<Item = Instance> {
        Instance::ALL.into_iter().filter(|inst| inst.available())
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // The tentpole invariant: with the shim's thread override pinning
        // the worker count, 1 thread and many threads must emit identical
        // bytes and identical decoded values (per-chunk forked RNG streams
        // + order-preserving parallel collect) — on either instance, each
        // emitting the portable instance's frames.
        let layers = layers_fixture(21);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        let schedule = LayerSchedule::build(&sizes, 4096);
        let rng = Rng::new(22);
        for cfg in [
            CompsoConfig::aggressive(4e-3),
            CompsoConfig::conservative(2e-3),
        ] {
            let (portable_bytes, portable_back) = {
                let (_guard, _pin) = (rayon::scoped_thread_override(1), Instance::Portable.pin());
                let b = compress_quiet(&refs, &cfg, &KernelConfig::default(), &schedule, &rng);
                let d = decompress_quiet(&b).unwrap();
                (b, d)
            };
            for (inst, threads) in instances().flat_map(|i| [1usize, 2, 3].map(|t| (i, t))) {
                let (_guard, _pin) = (rayon::scoped_thread_override(threads), inst.pin());
                let what = format!("{cfg:?} on {inst:?} at {threads} threads");
                let b = compress_quiet(&refs, &cfg, &KernelConfig::default(), &schedule, &rng);
                assert_eq!(b, portable_bytes, "compress differs: {what}");
                let d = decompress_quiet(&b).unwrap();
                assert_eq!(d, portable_back, "decode differs: {what}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// A run of 1 to 19 chunks — 0, 1, 3, ragged or 16 Ki values, a
        /// few NaN, in some chunks +∞ instead, at a bound of 1 to 2²⁰
        /// bins — through [`compress_chunks`] on every instance this host
        /// runs, against the scalar helpers one chunk at a time over each
        /// chunk's codable range: the same bitmap and record per chunk,
        /// every chunk's stream left at the same position, and its window
        /// holding what the decoder gives its record. The lanes refill
        /// across chunk boundaries, the held chunks step down to the tail's
        /// lanes when the run is dry and the last ones finish alone, so
        /// every run length takes a different path through them.
        #[test]
        fn prop_chunk_runs_match_the_scalar_chunks(
            seed in proptest::prelude::any::<u64>(),
            chunks in 1usize..20,
            filtered in proptest::prelude::any::<bool>(),
        ) {
            let mut r = Rng::new(seed);
            let data: Vec<Vec<f32>> = (0..chunks as u64)
                .map(|i| {
                    let len = [0, 1, 3, 2 + r.below(3000) as usize, 16 * 1024][r.below(5) as usize];
                    let mut v = crate::synthetic::generate(len, seed ^ i, GradientProfile::kfac());
                    let poison = if r.below(8) == 0 { f32::INFINITY } else { f32::NAN };
                    for x in v.iter_mut().filter(|_| r.below(64) == 0) {
                        *x = poison;
                    }
                    v
                })
                .collect();
            let eb = 10f32.powf(-6.0 * r.uniform_f32());
            let cfg = if filtered {
                CompsoConfig::aggressive(eb)
            } else {
                CompsoConfig::conservative(eb)
            };
            // `compress_chunked`'s range: each chunk's codable range.
            let ranges: Vec<MinMax> = (data.iter())
                .map(|d| codable_range(d, minmax_flat(d)))
                .collect();
            let base = Rng::new(seed ^ 0xC4);
            let want: Vec<(ChunkOut, u64)> = (data.iter().zip(&ranges).enumerate())
                .map(|(i, (d, &range))| {
                    let mut rng = base.fork(i as u64);
                    let out = compress_chunk_fused(d, range, &cfg, &mut rng);
                    (out, rng.next_u64())
                })
                .collect();
            for inst in instances() {
                let mut windows: Vec<Vec<f32>> = data.iter().map(|d| vec![0.0; d.len()]).collect();
                let mut jobs: Vec<ChunkJob> = (data.iter().zip(&ranges).zip(&mut windows).enumerate())
                    .map(|(i, ((d, &range), w))| ChunkJob {
                        data: d,
                        range,
                        rng: base.fork(i as u64),
                        out: Some(&mut w[..]),
                    })
                    .collect();
                let outs = compress_chunks(&mut jobs, &cfg, inst);
                proptest::prop_assert_eq!(outs.len(), chunks);
                for (i, (out, (reference, next))) in outs.iter().zip(&want).enumerate() {
                    let what = format!("chunk {i} of {chunks} on {inst:?}, {cfg:?}");
                    proptest::prop_assert_eq!(&out.bitmap, &reference.bitmap, "{}", what);
                    proptest::prop_assert_eq!(&out.record, &reference.record, "{}", what);
                    proptest::prop_assert_eq!(out.codes_len, reference.codes_len, "{}", what);
                    // Every chunk's window holds the decoder's values of
                    // its record.
                    let window = jobs[i].out.as_deref().expect("every chunk has a window");
                    let c = ChunkDesc { layer: 0, offset: 0, len: data[i].len() };
                    let decoded = decompress_chunk(&c, out.codes(), out.planes(), &out.bitmap);
                    let decoded = decoded.expect("every record decodes");
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    proptest::prop_assert_eq!(bits(window), bits(&decoded), "{}", what);
                    proptest::prop_assert_eq!(jobs[i].rng.next_u64(), *next, "{}", what);
                }
            }
        }
    }

    /// A code past `n_bins` is refused where the decoder has always
    /// refused it, by the scalar reference and by the chunk decoder on
    /// every instance: 7- to 10-bit codes, filtered and not.
    #[test]
    fn an_out_of_range_code_is_refused_on_every_instance() {
        let n = 2000;
        let c = ChunkDesc {
            layer: 0,
            offset: 0,
            len: n,
        };
        let (lo, bin_width) = (-1.0f32, 4e-3f32);
        for (n_bins, filtered) in [100u32, 250, 500, 1000]
            .into_iter()
            .flat_map(|n_bins| [(n_bins, false), (n_bins, true)])
        {
            let mut rng = Rng::new(61);
            let count = if filtered { n - 300 } else { n };
            let bitmap = if filtered {
                let mut bm = vec![0u8; n.div_ceil(8)];
                for i in (0..n).step_by(7).take(n - count) {
                    bm[i / 8] |= 1 << (i % 8);
                }
                bm
            } else {
                Vec::new()
            };
            for hostile in [false, true] {
                let mut codes: Vec<u32> =
                    (0..count).map(|_| rng.next_u32() % (n_bins + 1)).collect();
                if hostile {
                    codes[count / 2] = n_bins + 3;
                }
                let quant = Quantized {
                    codes,
                    lo,
                    bin_width,
                    n_bins,
                };
                let mut w = Writer::new();
                w.u64(n as u64);
                w.u8(u8::from(filtered));
                let planes = quant.write(&mut w);
                let record = w.into_bytes();
                let what = format!("n_bins {n_bins} filtered {filtered} hostile {hostile}");
                let bits_of = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let reference = decompress_chunk_ref(&c, &record, &planes, &bitmap).map(bits_of);
                if hostile {
                    let refused = Err(WireError::Invalid("quantized code out of range").into());
                    assert_eq!(reference, refused, "{what}");
                }
                for inst in instances() {
                    let mut out = vec![0.0f32; n];
                    let fast = decompress_chunk_into(inst, &c, &record, &planes, &bitmap, &mut out)
                        .map(|()| bits_of(out));
                    assert_eq!(fast, reference, "{what} {inst:?}");
                }
            }
        }
    }

    /// The own-frame hand-back against a cold [`decompress_chunked`] of its
    /// stream, bit for bit, at every width 1 to 16, filtered and not, on
    /// every instance, beside a constant and an empty layer: the values
    /// [`finish_chunk`] writes are the decoder's dequantize of the record
    /// it has just split.
    #[test]
    fn the_hand_back_is_the_decoder_at_every_width_on_every_instance() {
        let data = crate::synthetic::generate(20_000, 73, GradientProfile::kfac());
        let flat = vec![0.75f32; 300];
        let layers: [&[f32]; 3] = [&data, &flat, &[]];
        let schedule = LayerSchedule::build(&[data.len(), flat.len(), 0], 4096);
        let (kc, rng, range) = (KernelConfig::default(), Rng::new(74), minmax_flat(&data));
        let wider = [(1.5e-4, 13), (7.5e-5, 14), (4e-5, 15), (2e-5, 16)];
        let bits_of = |l: &[Vec<f32>]| -> Vec<Vec<u32>> {
            l.iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        for (eb, bits) in EVERY_WIDTH.into_iter().chain(wider) {
            let (_, n_bins) = grid(eb, range.min, range.max, 1);
            assert_eq!(bits_for(n_bins), bits, "eb {eb}");
            for cfg in [CompsoConfig::aggressive(eb), CompsoConfig::conservative(eb)] {
                for inst in instances() {
                    let _pin = inst.pin();
                    let rec = Recorder::disabled();
                    let (stream, back) = compress_chunked_reconstructing(
                        &layers, &cfg, &kc, &schedule, &rng, &rec, true,
                    );
                    let back = back.expect("the fused sweep reconstructs");
                    let cold = decompress_quiet(&stream).unwrap();
                    let what = format!("{cfg:?} at {bits} bits on {inst:?}");
                    assert_eq!(bits_of(&back), bits_of(&cold), "{what}");
                }
            }
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

    /// The header's codec byte names the codec of every stream block
    /// behind it: rewritten to any other codec's tag, a frame that would
    /// still decode (each block carries its own tag) is refused.
    #[test]
    fn header_codec_names_every_stream_block() {
        let layers = generate_layers(&[5000, 300], 31, GradientProfile::kfac());
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let schedule = LayerSchedule::build(&[5000, 300], 2048);
        let kc = KernelConfig::default();
        for cfg in [
            CompsoConfig::aggressive(4e-3),
            CompsoConfig::conservative(2e-3),
        ] {
            for codec in Codec::all() {
                let cfg = cfg.with_codec(codec);
                let honest = compress_quiet(&refs, &cfg, &kc, &schedule, &Rng::new(3));
                assert_eq!(honest[2], codec.tag());
                assert!(decompress_quiet(&honest).is_ok(), "{codec:?}");
                for other in Codec::all().into_iter().filter(|&c| c != codec) {
                    let mut renamed = honest.clone();
                    renamed[2] = other.tag();
                    assert_eq!(
                        decompress_quiet(&renamed),
                        Err(WireError::Invalid("stream codec vs header").into()),
                        "{codec:?} framed as {other:?}"
                    );
                }
            }
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
        // A chunk of codes that fit a byte and a constant one own no
        // plane bytes, whatever the frame around them carries.
        for cfg in [
            CompsoConfig::aggressive(4e-3),
            CompsoConfig::conservative(1e-2),
        ] {
            let narrow = compress_chunk_fast(&data, range, &cfg, &mut Rng::new(8));
            assert!(narrow.planes().is_empty());
            refused(narrow.codes(), &[0], &narrow.bitmap);
        }
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

    /// One record layout at every width from 1 to 12 bits, and for a
    /// constant layer: each non-constant chunk's code record is its
    /// 29-byte header and one byte per code, its plane slice the codes'
    /// bits past 8 (nothing up to 8 bits, so no flag), whatever the
    /// filter kept. The fused sweep's records are the scalar
    /// oracle's, the frame is theirs and the staged path's, and it
    /// decodes within the bound — an unfiltered chunk to exactly the
    /// values of its codes.
    #[test]
    fn every_width_stores_a_byte_per_code_and_the_bits_past_8_as_planes() {
        let data = crate::synthetic::generate(40_000, 71, GradientProfile::kfac());
        let flat = vec![0.75f32; 20_000];
        let (kc, rng) = (KernelConfig::default(), Rng::new(72));
        let staged = KernelConfig { fused: false, ..kc };
        let every = (EVERY_WIDTH
            .into_iter()
            .map(|(eb, bits)| (&data[..], eb, bits)))
        .chain([(&flat[..], 4e-2, 0)]);
        for (layer, eb, bits) in every {
            let range = minmax_flat(layer);
            let span = range.max - range.min;
            let schedule = LayerSchedule::build(&[layer.len()], CHUNK_ELEMS);
            for cfg in [CompsoConfig::aggressive(eb), CompsoConfig::conservative(eb)] {
                let what = format!("{cfg:?} over {} values", layer.len());
                let mut jobs: Vec<ChunkJob> = (schedule.chunks().iter().enumerate())
                    .map(|(idx, c)| ChunkJob {
                        data: &layer[c.offset..c.offset + c.len],
                        range,
                        rng: rng.fork(idx as u64),
                        out: None,
                    })
                    .collect();
                let outs = compress_chunks(&mut jobs, &cfg, Instance::current());
                for (idx, (out, c)) in outs.iter().zip(schedule.chunks()).enumerate() {
                    let (n_bins, count) = record_bins_and_count(out);
                    let values = &layer[c.offset..c.offset + c.len];
                    let oracle =
                        compress_chunk_fused(values, range, &cfg, &mut rng.fork(idx as u64));
                    assert_eq!(out.record, oracle.record, "{what}");
                    assert_eq!(out.codes_len, oracle.codes_len, "{what}");
                    if bits == 0 {
                        assert_eq!((n_bins, out.codes_len, out.planes()), (0, 29, &[][..]));
                        continue;
                    }
                    assert_eq!(bits_for(n_bins), bits, "{what}");
                    assert_eq!(out.codes_len, 29 + count, "{what}");
                    let plane_width = bits.saturating_sub(8) as usize;
                    assert_eq!(
                        out.planes().len(),
                        (count * plane_width).div_ceil(8),
                        "{what}"
                    );
                    if cfg.eb_filter.is_none() {
                        let quant =
                            quantize_chunk(values, c.len, range, &cfg, &mut rng.fork(idx as u64));
                        let decoded = decompress_chunk(c, out.codes(), out.planes(), &[]).unwrap();
                        let bits_of = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits_of(&decoded), bits_of(&quant.dequantize()), "{what}");
                    }
                }
                let stream = compress_quiet(&[layer], &cfg, &kc, &schedule, &rng);
                assert_eq!(stream, write_frame(&outs, &schedule, cfg.codec), "{what}");
                assert_eq!(
                    stream,
                    compress_quiet(&[layer], &cfg, &staged, &schedule, &rng)
                );
                assert_eq!(stream[3], if bits > 8 { FLAG_WIDE } else { 0 }, "{what}");
                let back = decompress_quiet(&stream).unwrap();
                let bound = eb * span * 1.01 + 1e-7;
                for (&x, &y) in layer.iter().zip(&back[0]) {
                    assert!((x - y).abs() <= bound, "{what}: {x} decoded as {y}");
                }
            }
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
        assert_eq!(c.chunk_elems_for(data.len()), Some(CHUNK_ELEMS));
    }

    #[test]
    fn chunked_compso_group_uses_and_matches_provided_schedule() {
        let layers = layers_fixture(19);
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
        let c = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
        let schedule = LayerSchedule::build(&sizes, CHUNK_ELEMS);
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
        let schedule = LayerSchedule::build(&sizes, CHUNK_ELEMS);
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
        let schedule = LayerSchedule::build(&sizes, CHUNK_ELEMS);
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
        let floor = CHUNK_ELEMS;
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

    /// The own-frame hand-back's edges. Each runs on a thread of its own,
    /// so the list starts empty.
    mod own_frames {
        use super::*;

        fn held() -> usize {
            OWN_FRAMES.with(|f| f.borrow().len())
        }

        fn on_fresh_thread(f: impl FnOnce() + Send) {
            std::thread::scope(|s| {
                s.spawn(f).join().expect("the test body passes");
            });
        }

        /// `layers` compressed as the recurring gather does: with a
        /// schedule.
        fn compress_scheduled(c: &ChunkedCompso, layers: &[Vec<f32>], seed: u64) -> Vec<u8> {
            let refs: Vec<&[f32]> = layers.iter().map(Vec::as_slice).collect();
            let sizes: Vec<usize> = layers.iter().map(Vec::len).collect();
            let schedule = LayerSchedule::build(&sizes, 1024);
            let mut rng = Rng::new(seed);
            c.compress_group(&refs, Some(&schedule), &mut rng, &Recorder::disabled())
        }

        /// The decode's values, whether it was a hand-back, and how many
        /// times the decoder ran.
        fn decode(
            c: &ChunkedCompso,
            bytes: &[u8],
        ) -> (Result<Vec<Vec<f32>>, CompressError>, u64, u64) {
            let rec = Recorder::enabled();
            let out = c.decompress_group(bytes, &rec);
            let snap = rec.snapshot();
            let decodes = snap.timers.get(names::CORE_DECODE).map_or(0, |t| t.count);
            (out, snap.counter(names::CORE_OWN_FRAME_HITS), decodes)
        }

        fn bits(layers: &[Vec<f32>]) -> Vec<Vec<u32>> {
            layers
                .iter()
                .map(|l| l.iter().map(|v| v.to_bits()).collect())
                .collect()
        }

        fn group(seed: u64) -> Vec<Vec<f32>> {
            generate_layers(&[3000, 0, 700], seed, GradientProfile::kfac())
        }

        #[test]
        fn a_stream_differing_in_one_byte_never_hits() {
            on_fresh_thread(|| {
                let c = ChunkedCompso::default();
                let layers = generate_layers(&[300, 0, 40], 3, GradientProfile::kfac());
                let bytes = compress_scheduled(&c, &layers, 4);
                let cold = decompress_chunked(&bytes, &Recorder::disabled()).unwrap();
                let mut shorter = bytes.clone();
                shorter.pop();
                let mut longer = bytes.clone();
                longer.push(0);
                let flipped = (0..bytes.len()).map(|at| {
                    let mut b = bytes.clone();
                    b[at] ^= 1;
                    b
                });
                for other in flipped.chain([shorter, longer]) {
                    let (_, hits, decodes) = decode(&c, &other);
                    assert_eq!((hits, decodes), (0, 1));
                }
                assert_eq!(held(), 1);
                let (out, hits, decodes) = decode(&c, &bytes);
                assert_eq!((hits, decodes), (1, 0));
                assert_eq!(bits(&out.unwrap()), bits(&cold));
            });
        }

        #[test]
        fn a_second_decode_of_the_same_bytes_runs_the_decoder() {
            on_fresh_thread(|| {
                let c = ChunkedCompso::new(CompsoConfig::conservative(2e-3));
                let bytes = compress_scheduled(&c, &group(5), 6);
                let (first, hits, decodes) = decode(&c, &bytes);
                assert_eq!((hits, decodes), (1, 0));
                assert_eq!(held(), 0);
                let (second, hits, decodes) = decode(&c, &bytes);
                assert_eq!((hits, decodes), (0, 1));
                assert_eq!(bits(&first.unwrap()), bits(&second.unwrap()));
            });
        }

        #[test]
        fn past_the_cap_the_oldest_frame_goes_first() {
            on_fresh_thread(|| {
                let c = ChunkedCompso::default();
                let layers = group(7);
                let frames: Vec<Vec<u8>> = (0..=OWN_FRAMES_CAP as u64)
                    .map(|seed| compress_scheduled(&c, &layers, seed))
                    .collect();
                assert_eq!(held(), OWN_FRAMES_CAP);
                let (oldest, hits, decodes) = decode(&c, &frames[0]);
                assert_eq!((hits, decodes), (0, 1));
                assert!(oldest.is_ok());
                for frame in &frames[1..] {
                    let (_, hits, decodes) = decode(&c, frame);
                    assert_eq!((hits, decodes), (1, 0));
                }
                assert_eq!(held(), 0);
            });
        }

        #[test]
        fn a_schedule_less_compress_leaves_no_entry() {
            on_fresh_thread(|| {
                let c = ChunkedCompso::default();
                let layers = group(8);
                let refs: Vec<&[f32]> = layers.iter().map(Vec::as_slice).collect();
                let bytes = c.compress_group(&refs, None, &mut Rng::new(9), &Recorder::disabled());
                assert_eq!(held(), 0);
                let (_, hits, decodes) = decode(&c, &bytes);
                assert_eq!((hits, decodes), (0, 1));
            });
        }

        #[test]
        fn a_frame_compressed_on_another_thread_misses() {
            on_fresh_thread(|| {
                let c = ChunkedCompso::default();
                let layers = group(10);
                let (bytes, own) = std::thread::scope(|s| {
                    // That thread hands the frame back and then keeps the
                    // same bytes again, so it holds them while this one
                    // decodes.
                    let elsewhere = s.spawn(|| {
                        let bytes = compress_scheduled(&c, &layers, 11);
                        let (own, hits, _) = decode(&c, &bytes);
                        assert_eq!(hits, 1, "handed back on the thread that compressed");
                        assert_eq!(compress_scheduled(&c, &layers, 11), bytes);
                        assert_eq!(held(), 1);
                        (bytes, own.unwrap())
                    });
                    elsewhere.join().expect("the compressing thread passes")
                });
                assert_eq!(held(), 0);
                let (out, hits, decodes) = decode(&c, &bytes);
                assert_eq!((hits, decodes), (0, 1));
                assert_eq!(bits(&out.unwrap()), bits(&own));
            });
        }
    }
}
