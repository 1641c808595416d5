//! Blocked, allocation-free microkernels for the chunked hot path.
//!
//! The scalar helpers in [`crate::bitpack`], [`crate::kernels`] and
//! [`crate::quantize`] are the reference implementations; this module
//! holds the u64-lane rewrites the fused kernel path runs in production
//! (DESIGN.md §12). Every kernel here is pinned **bit-identical** to its
//! scalar oracle by the equivalence proptests below, and at the wire
//! level by `fused_and_staged_produce_identical_bytes`: the fused sweep
//! and the staged ablation both run these kernels (the staged one in
//! three passes), and both must equal the frame of the scalar oracle's
//! chunk records, so any divergence in a microkernel shows up as a byte
//! diff there.
//!
//! What makes bit-identity possible (and cheap to maintain):
//!
//! * [`split_into`] / [`unsplit_map`] lay out and read back a chunk's
//!   codes: the entropy coder is byte-wise, so every code travels as its
//!   low byte, and a code wider than a byte also as `width − 8` high bits
//!   packed into a separate plane stream, rotated first so the code of
//!   0.0 sits mid-byte. Codes of up to 8 bits are a plain byte copy.
//!   Eight codes' plane bits are whole bytes, so up to 16 bits the plane
//!   moves a `u64` per group of eight; past that (and for the last
//!   groups) a `u64` register window flushes 32 bits at a time on the
//!   write side and reads each plane field through one unaligned u64
//!   load on the read side. The layout is [`crate::bitpack::split`]'s,
//!   byte for byte. Up to 9 bits an AVX2 instance splits eight codes to
//!   a register: one byte shuffle for the low bytes, one `movemask` for
//!   the plane bits.
//! * `filter_kernel` builds the drop bitmap 64 decisions to a word,
//!   branchlessly, and copies the survivors out by walking the inverted
//!   word. The bit layout (LSB-first, set ⇔ dropped) matches the scalar
//!   filter. Its AVX2 instance makes a word's decisions eight to a
//!   `movemask`.
//! * `quantize_kernel` hoists the per-element rounding-mode dispatch
//!   out of the loop and clamps the bin coordinate before rounding, which
//!   commutes with the scalar path's clamp after it and lets `floor` and
//!   round-to-even be a cast and an add instead of libm calls. Stochastic
//!   rounding is branchless because the scalar path *already* draws one
//!   uniform per element unconditionally; `P0.5` consumes randomness
//!   conditionally (exact grid points draw nothing), so that mode keeps
//!   the scalar rounding call per element.
//! * [`quantize_sr_lanes`] runs up to eight chunks' stochastic rounding
//!   side by side, one chunk and its own stream per 64-bit lane of an
//!   AVX-512 register (or of two AVX2 ones). Each chunk already owns its
//!   stream, so a lane draws what the scalar kernel draws, in its order,
//!   and does its arithmetic.
//! * `CodeRecord::dequantize_into` is the one way from a chunk record's
//!   codes to values, for the decoder and the own-frame hand-back alike:
//!   the portable instance evaluates the decoder's expression per code as
//!   it merges, up to 9 bits the AVX2 instance evaluates it in f64 lanes;
//!   both check the range on the largest code.
//! * `scatter_kept` walks the keep-mask as u64 words with
//!   `trailing_zeros`, so decode scatter cost scales with the *kept*
//!   count, not the chunk length — the dropped majority is covered by a
//!   single pre-zeroed output buffer.
//! * `CompressScratch` extends the PR-3 thread-local decode scratch to
//!   the compress side: kept values, quantized codes, low bytes and
//!   plane bytes live in per-thread arenas that are cleared, never shrunk.

use crate::bitpack::{code_mask, plane_width, stored_mask};
use crate::rounding::RoundingMode;
use crate::wire::WireError;
use compso_tensor::rng::Rng;
use compso_tensor::Instance;

/// 2⁵²: the `f64` magnitude at which the unit in the last place is 1.
const TWO_POW_52: f64 = (1u64 << 52) as f64;

/// 2⁸⁴: the `f64` magnitude at which the unit in the last place is 2³².
#[cfg(target_arch = "x86_64")]
const TWO_POW_84: f64 = (1u128 << 84) as f64;

/// The splitter's deferred "does not fit" panic: names the first code
/// wider than `width` bits, in the scalar splitter's words.
#[cold]
fn code_too_wide(codes: &[u32], width: u32) -> ! {
    let code = codes.iter().find(|&&c| c > code_mask(width));
    let code = code.expect("a bit in `over` came from some code");
    panic!("code {code} does not fit in {width} bits");
}

/// How many leading groups of 8 codes of a `w`-bit stream (`w ≤ 8`) of
/// `len` bytes lie, with their whole 8-byte window, in bounds (at most
/// `groups`): a group is exactly `w` bytes, so group `g` starts at byte
/// `g·w`.
fn windowed_groups(len: usize, w: usize, groups: usize) -> usize {
    if len >= 8 && w <= 8 {
        ((len - 8) / w + 1).min(groups)
    } else {
        0
    }
}

/// Code widths up to this have an AVX2 instance of [`split_into`] and of
/// [`CodeRecord::dequantize_into`]: at most one plane bit per code, so
/// eight codes' plane bits are one byte and their codes and values fit
/// 256-bit lanes.
const WIDE_MAX_WIDTH: u32 = 9;

/// The instance that runs a `width`-bit kernel picked on `inst`: `inst`
/// up to [`WIDE_MAX_WIDTH`], the portable instance past it.
fn at_width(inst: Instance, width: u32) -> Instance {
    if width <= WIDE_MAX_WIDTH {
        inst
    } else {
        Instance::Portable
    }
}

/// Splits `width`-bit codes (`1 ..= 32`) into a chunk record's two
/// byte-aligned streams, both cleared first: `low` gets the low byte of
/// every rotated code `(code + bias) mod 2^max(width, 8)`, `planes` the
/// remaining `width − 8` bits packed LSB-first at that width — nothing
/// for codes of up to 8 bits. Byte-identical to [`crate::bitpack::split`].
///
/// `inst` picks the body up to [`WIDE_MAX_WIDTH`] bits; wider codes take
/// the portable one. The portable body is one sweep: the byte store and
/// the plane bits both hang off the one load of each code, and without a
/// plane the sweep is a narrowing copy. Eight codes' plane bits are
/// exactly `width − 8` bytes, so up to 16 bits the plane is built a group
/// at a time: the eight fields land at fixed offsets of one `u64` — no
/// carried bit count, no flush test — which is stored whole, and the
/// cursor steps by the bytes that were real (the next group overwrites
/// the rest). The groups near the end, whose store would cross it, and
/// every code of a wider stream go through a register window that
/// flushes 32 bits at a time. The AVX2 body rotates eight codes in one
/// register, gathers their low bytes with one byte shuffle and their
/// plane bits, if any, with one `movemask`.
///
/// # Panics
/// If `width` is outside `1 ..= 32`, a code does not fit in it, with the
/// scalar oracle's messages, or `inst` is not available on this host.
pub fn split_into(
    inst: Instance,
    codes: &[u32],
    width: u32,
    bias: u32,
    low: &mut Vec<u8>,
    planes: &mut Vec<u8>,
) {
    assert!(
        (1..=32).contains(&width),
        "split width {width} out of range"
    );
    assert!(inst.available(), "{inst:?} not available on this host");
    #[cfg(test)]
    log_run("split_into", at_width(inst, width), codes.as_ptr());
    low.clear();
    low.resize(codes.len(), 0);
    planes.clear();
    planes.resize((codes.len() * plane_width(width) as usize).div_ceil(8), 0);
    // Bits a code must not carry; OR-accumulated and checked once.
    let over = match at_width(inst, width) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the assertion above saw the CPU report AVX2, the one
        // feature `split_avx2` is built with.
        Instance::Avx2 | Instance::Avx512 => unsafe { split_avx2(codes, width, bias, low, planes) },
        #[cfg(not(target_arch = "x86_64"))]
        Instance::Avx2 | Instance::Avx512 => unreachable!("no wide instance off x86-64"),
        Instance::Portable => split_portable(codes, width, bias, low, planes),
    };
    if over != 0 {
        code_too_wide(codes, width);
    }
}

/// The portable body of [`split_into`] into its sized, zero-filled
/// streams; returns the bits some code carries past `width`.
fn split_portable(codes: &[u32], width: u32, bias: u32, low: &mut [u8], planes: &mut [u8]) -> u32 {
    let plane_width = plane_width(width);
    let w = plane_width as usize;
    let mask = code_mask(width);
    let mut over = 0u32;
    let mut pos = 0usize;
    // The register window of the codes past the groups.
    let mut acc = 0u64;
    if w == 0 {
        // No plane: a code's low byte is all of it.
        for (&code, byte) in codes.iter().zip(low.iter_mut()) {
            over |= code & !mask;
            *byte = code.wrapping_add(bias) as u8;
        }
    } else {
        let grouped = 8 * windowed_groups(planes.len(), w, codes.len() / 8);
        let (group_codes, codes_left) = codes.split_at(grouped);
        let (group_low, low_left) = low.split_at_mut(grouped);
        for (c8, l8) in group_codes
            .chunks_exact(8)
            .zip(group_low.chunks_exact_mut(8))
        {
            let mut fields = 0u64;
            let mut shift = 0usize;
            for (&code, byte) in c8.iter().zip(l8) {
                over |= code & !mask;
                let rotated = code.wrapping_add(bias) & mask;
                *byte = rotated as u8;
                fields |= ((rotated >> 8) as u64) << shift;
                shift += w;
            }
            planes[pos..pos + 8].copy_from_slice(&fields.to_le_bytes());
            pos += w;
        }
        // A group boundary is a byte boundary, so the window starts empty.
        let mut bits = 0u32;
        for (&code, byte) in codes_left.iter().zip(low_left) {
            over |= code & !mask;
            let rotated = code.wrapping_add(bias) & mask;
            *byte = rotated as u8;
            acc |= ((rotated >> 8) as u64) << bits;
            bits += plane_width;
            if bits >= 32 {
                planes[pos..pos + 4].copy_from_slice(&(acc as u32).to_le_bytes());
                pos += 4;
                acc >>= 32;
                bits -= 32;
            }
        }
    }
    let tail = &mut planes[pos..];
    let n = tail.len();
    tail.copy_from_slice(&acc.to_le_bytes()[..n]);
    over
}

/// The AVX2 body of [`split_into`] at up to [`WIDE_MAX_WIDTH`] bits:
/// eight codes to a register, rotated by a 32-bit add (bits 0–8
/// of the sum are those of the sum reduced to the stored width), their
/// low bytes gathered by a byte shuffle and stored as one `u64`, and,
/// when the codes have a plane, bit 8 of each shifted to its lane's sign
/// so one `movemask` is the group's plane byte, LSB-first. The codes past
/// the last group are the portable body's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn split_avx2(codes: &[u32], width: u32, bias: u32, low: &mut [u8], planes: &mut [u8]) -> u32 {
    use std::arch::x86_64::*;
    let mask = code_mask(width);
    let grouped = codes.len() / 8 * 8;
    let (group_codes, codes_left) = codes.split_at(grouped);
    let (group_low, low_left) = low.split_at_mut(grouped);
    let wide = width > 8;
    let (group_planes, planes_left) = planes.split_at_mut(if wide { grouped / 8 } else { 0 });
    let (maskv, biasv) = (
        _mm256_set1_epi32(mask as i32),
        _mm256_set1_epi32(bias as i32),
    );
    // Byte 0 of each 32-bit lane to the lane's first four bytes.
    let first_bytes = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    );
    let mut over = _mm256_setzero_si256();
    for (g, (c, l)) in group_codes
        .chunks_exact(8)
        .zip(group_low.chunks_exact_mut(8))
        .enumerate()
    {
        let v = set8(c);
        over = _mm256_or_si256(over, _mm256_andnot_si256(maskv, v));
        let rotated = _mm256_add_epi32(v, biasv);
        let bytes = _mm256_shuffle_epi8(rotated, first_bytes);
        let (lo4, hi4) = (
            _mm256_extract_epi32::<0>(bytes) as u32 as u64,
            _mm256_extract_epi32::<4>(bytes) as u32 as u64,
        );
        l.copy_from_slice(&(lo4 | hi4 << 32).to_le_bytes());
        if wide {
            let bit8 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(rotated));
            group_planes[g] = _mm256_movemask_ps(bit8) as u8;
        }
    }
    let over = lanes8(over).into_iter().fold(0, |o, x| o | x);
    over | split_portable(codes_left, width, bias, low_left, planes_left)
}

/// Eight values into a register, `c[j]` in lane `j` (`c` holds at least
/// eight): eight scalar loads, the AVX2 bodies' gather, since no intrinsic
/// there takes a pointer.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) fn set8(c: &[u32]) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let [c0, c1, c2, c3, c4, c5, c6, c7] = [0, 1, 2, 3, 4, 5, 6, 7].map(|j| c[j] as i32);
    _mm256_set_epi32(c7, c6, c5, c4, c3, c2, c1, c0)
}

/// A register's eight 32-bit lanes, lane `j` at `[j]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) fn lanes8(v: std::arch::x86_64::__m256i) -> [u32; 8] {
    use std::arch::x86_64::*;
    [
        _mm256_extract_epi32::<0>(v),
        _mm256_extract_epi32::<1>(v),
        _mm256_extract_epi32::<2>(v),
        _mm256_extract_epi32::<3>(v),
        _mm256_extract_epi32::<4>(v),
        _mm256_extract_epi32::<5>(v),
        _mm256_extract_epi32::<6>(v),
        _mm256_extract_epi32::<7>(v),
    ]
    .map(|x| x as u32)
}

/// How many leading codes of a `w`-bit stream of `len` bytes have their
/// whole u64 load window in bounds (at most `count`): code `i` starts in
/// byte `i·w / 8`, so the window fits for every `i` up to this.
fn windowed_codes(len: usize, w: usize, count: usize) -> usize {
    if len >= 8 {
        (((len - 8) * 8 + 7) / w + 1).min(count)
    } else {
        0
    }
}

/// One code through a u64 load window; `bitpos` is inside
/// [`windowed_codes`] (shift ≤ 7 + width ≤ 32 fits u64).
#[inline(always)]
fn window_code(bytes: &[u8], bitpos: usize, mask: u32) -> u32 {
    let byte = bitpos >> 3;
    let window = u64::from_le_bytes(bytes[byte..byte + 8].try_into().unwrap());
    ((window >> (bitpos & 7)) as u32) & mask
}

/// One code read bit-run by bit-run, identical to the reference per-bit
/// loop: the epilogue for the codes whose window would cross the end.
#[inline(always)]
fn tail_code(bytes: &[u8], bitpos: &mut usize, width: u32) -> u32 {
    let mut value: u64 = 0;
    let mut got: u32 = 0;
    while got < width {
        let byte = bytes[*bitpos / 8] as u64;
        let offset = (*bitpos % 8) as u32;
        let space = 8 - offset;
        let take = (width - got).min(space);
        let chunk = (byte >> offset) & ((1u64 << take) - 1);
        value |= chunk << got;
        got += take;
        *bitpos += take as usize;
    }
    value as u32
}

/// What [`unsplit_map`] refuses before it reads a code of `count`: a
/// width outside `1 ..= 32`, then a plane slice short of the codes' bits
/// past 8.
///
/// # Panics
/// If `low` does not hold one byte per code.
fn unsplit_refusals(low: &[u8], planes: &[u8], width: u32, count: usize) -> Result<(), WireError> {
    if !(1..=32).contains(&width) {
        return Err(WireError::Invalid("bit width"));
    }
    assert_eq!(low.len(), count, "one low byte per code");
    let need = (count * plane_width(width) as usize).div_ceil(8);
    if planes.len() < need {
        return Err(WireError::Truncated {
            need,
            have: planes.len(),
        });
    }
    Ok(())
}

/// Inverse of [`split_into`]'s layout through a per-code map: `map` sees
/// code `i` as stored — `low[i]` under its `width − 8` bits of `planes`
/// if it has any, still rotated — so the chunk decoder dequantizes as it
/// merges instead of materializing codes it would only read back.
/// Un-rotated by the caller (`(stored − bias) mod 2^max(width, 8)`),
/// these are the codes of the test-only oracle `bitpack::unsplit`; the
/// refusals are its, in its order.
///
/// `low` must hold exactly one byte per output.
pub(crate) fn unsplit_map<T>(
    low: &[u8],
    planes: &[u8],
    width: u32,
    out: &mut [T],
    mut map: impl FnMut(u32) -> T,
) -> Result<(), WireError> {
    unsplit_refusals(low, planes, width, out.len())?;
    let count = out.len();
    let plane_width = plane_width(width);
    let w = plane_width as usize;
    if w == 0 {
        // No plane: the low byte is all of the stored code.
        for (o, &l) in out.iter_mut().zip(low) {
            *o = map(l as u32);
        }
        return Ok(());
    }
    let plane_mask = code_mask(plane_width);
    let merge = |high: u32, low: u8| high << 8 | low as u32;
    // Up to 16 bits, eight codes' plane bits are one `u64` load (a group
    // is `width − 8` whole bytes) shifted down a field per code; the
    // groups whose load would cross the end, and every code of a wider
    // stream, take a u64 load window per code.
    let grouped = 8 * windowed_groups(planes.len(), w, count / 8);
    let (group_out, out) = out.split_at_mut(grouped);
    let (group_low, low) = low.split_at(grouped);
    let mut pos = 0usize;
    for (o8, l8) in group_out.chunks_exact_mut(8).zip(group_low.chunks_exact(8)) {
        let mut window = u64::from_le_bytes(planes[pos..pos + 8].try_into().unwrap());
        for (o, &l) in o8.iter_mut().zip(l8) {
            *o = map(merge(window as u32 & plane_mask, l));
            window >>= w;
        }
        pos += w;
    }
    // A group's last codes can start too near the end for a window of
    // their own, so the windowed prefix may end inside the groups.
    let fast = windowed_codes(planes.len(), w, count).saturating_sub(grouped);
    let (head, tail) = out.split_at_mut(fast);
    let (low_head, low_tail) = low.split_at(fast);
    let mut bitpos = 8 * pos;
    for (o, &l) in head.iter_mut().zip(low_head) {
        *o = map(merge(window_code(planes, bitpos, plane_mask), l));
        bitpos += w;
    }
    for (o, &l) in tail.iter_mut().zip(low_tail) {
        *o = map(merge(tail_code(planes, &mut bitpos, plane_width), l));
    }
    Ok(())
}

/// The decoder's value of a code: `(lo + code · bin_width)` in `f64`,
/// rounded once to `f32`. `lo64`/`bw64` are the record's `f32` fields
/// widened.
#[inline(always)]
fn dequantize(lo64: f64, bw64: f64, code: u32) -> f32 {
    (lo64 + code as f64 * bw64) as f32
}

/// [`dequantize`] of eight codes below 2³¹ in f64 lanes, with `lo` and
/// `bw` the header fields widened in every lane: an exact conversion, a
/// rounded multiply, a rounded add (no FMA, so the two roundings of the
/// scalar expression) and `cvtpd2ps`'s round to nearest even, as `as f32`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dequantize8(
    codes: std::arch::x86_64::__m256i,
    lo: std::arch::x86_64::__m256d,
    bw: std::arch::x86_64::__m256d,
) -> [f32; 8] {
    use std::arch::x86_64::*;
    let half =
        |c: __m128i| _mm256_cvtpd_ps(_mm256_add_pd(lo, _mm256_mul_pd(_mm256_cvtepi32_pd(c), bw)));
    let (a, b) = (
        half(_mm256_castsi256_si128(codes)),
        half(_mm256_extracti128_si256::<1>(codes)),
    );
    let v = _mm256_castps_si256(_mm256_set_m128(b, a));
    let pairs = [
        _mm256_extract_epi64::<0>(v),
        _mm256_extract_epi64::<1>(v),
        _mm256_extract_epi64::<2>(v),
        _mm256_extract_epi64::<3>(v),
    ];
    let mut values = [0.0f32; 8];
    for (two, pair) in values.chunks_exact_mut(2).zip(pairs) {
        two[0] = f32::from_bits(pair as u32);
        two[1] = f32::from_bits((pair as u64 >> 32) as u32);
    }
    values
}

/// A chunk record's codes, with the header fields that turn them into
/// values, as the chunk decoder has checked them or the compressor has
/// just split them: `bits` is the width of `n_bins` and at least 1, `low` holds one low byte per code and
/// `planes` their bits past 8, if they have any ([`unsplit_map`]).
pub struct CodeRecord<'a> {
    /// One low byte per code.
    pub low: &'a [u8],
    /// The record's plane slice.
    pub planes: &'a [u8],
    /// The code width.
    pub bits: u32,
    /// The range start.
    pub lo: f32,
    /// The bin width.
    pub bin_width: f32,
    /// The largest valid code.
    pub n_bins: u32,
}

impl CodeRecord<'_> {
    /// The rotation the record's codes are stored under.
    fn bias(&self) -> u32 {
        crate::bitpack::split_bias(self.lo, self.bin_width, self.n_bins)
    }

    /// Every code dequantized into `out` (one per code) — the decoder's
    /// values, which the own-frame hand-back also writes: [`dequantize`]
    /// per code in the portable instance, the same expression in f64 lanes
    /// in AVX2, which runs up to [`WIDE_MAX_WIDTH`] bits on `inst`. The
    /// unpacker's refusals come first, then "code out of range" if some
    /// code exceeds `n_bins`.
    ///
    /// # Panics
    /// If `inst` is not available on this host.
    pub fn dequantize_into(&self, inst: Instance, out: &mut [f32]) -> Result<(), WireError> {
        assert!(inst.available(), "{inst:?} not available on this host");
        #[cfg(test)]
        log_run("dequantize_into", at_width(inst, self.bits), out.as_ptr());
        let in_range = match at_width(inst, self.bits) {
            #[cfg(target_arch = "x86_64")]
            Instance::Avx2 | Instance::Avx512 => {
                unsplit_refusals(self.low, self.planes, self.bits, out.len())?;
                // SAFETY: the assertion above saw the CPU report AVX2, the
                // one feature `record_avx2` is built with.
                unsafe { record_avx2(self, out) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            Instance::Avx2 | Instance::Avx512 => unreachable!("no wide instance off x86-64"),
            Instance::Portable => self.max_code_into(out)? <= self.n_bins,
        };
        if in_range {
            Ok(())
        } else {
            Err(WireError::Invalid("quantized code out of range"))
        }
    }

    /// Every code through [`dequantize`] into `out` (one per code), and
    /// the largest code; the unpacker's refusals.
    fn max_code_into(&self, out: &mut [f32]) -> Result<u32, WireError> {
        let (bias, mask) = (self.bias(), stored_mask(self.bits));
        let (lo64, bw64) = (self.lo as f64, self.bin_width as f64);
        let mut max_code = 0u32;
        unsplit_map(self.low, self.planes, self.bits, out, |stored| {
            let code = stored.wrapping_sub(bias) & mask;
            max_code = max_code.max(code);
            dequantize(lo64, bw64, code)
        })?;
        Ok(max_code)
    }
}

/// The AVX2 body of [`CodeRecord::dequantize_into`] at up to
/// [`WIDE_MAX_WIDTH`] bits, its refusals checked: whether every code is
/// in range. Eight codes to a register: their low bytes widened from one
/// `u64`, a ninth bit, if any, from the group's plane byte (bit `j` to
/// lane `j`), un-rotated and masked as stored, their running maximum in
/// a register — the range check — and their values by [`dequantize8`].
/// The codes past the last eight are [`CodeRecord::max_code_into`]'s.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn record_avx2(record: &CodeRecord<'_>, out: &mut [f32]) -> bool {
    use std::arch::x86_64::*;
    let grouped = out.len() / 8 * 8;
    let (group_out, out_left) = out.split_at_mut(grouped);
    let (group_low, low_left) = record.low.split_at(grouped);
    let wide = record.bits > 8;
    let (biasv, maskv) = (
        _mm256_set1_epi32(record.bias() as i32),
        _mm256_set1_epi32(stored_mask(record.bits) as i32),
    );
    let (lov, bwv) = (
        _mm256_set1_pd(record.lo as f64),
        _mm256_set1_pd(record.bin_width as f64),
    );
    let lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    let bit8 = _mm256_set1_epi32(256);
    let mut maxv = _mm256_setzero_si256();
    for (g, (l, o)) in group_low
        .chunks_exact(8)
        .zip(group_out.chunks_exact_mut(8))
        .enumerate()
    {
        let bytes = u64::from_le_bytes(l.try_into().expect("eight low bytes"));
        let mut stored = _mm256_cvtepu8_epi32(_mm_set_epi64x(0, bytes as i64));
        if wide {
            let plane = _mm256_set1_epi32(record.planes[g] as i32);
            let set = _mm256_cmpeq_epi32(_mm256_and_si256(plane, lane_bit), lane_bit);
            stored = _mm256_or_si256(stored, _mm256_and_si256(set, bit8));
        }
        let code = _mm256_and_si256(_mm256_sub_epi32(stored, biasv), maskv);
        maxv = _mm256_max_epu32(maxv, code);
        o.copy_from_slice(&dequantize8(code, lov, bwv));
    }
    let tail = CodeRecord {
        low: low_left,
        planes: &record.planes[if wide { grouped / 8 } else { 0 }..],
        ..*record
    };
    let tail_max = tail
        .max_code_into(out_left)
        .expect("the caller checked the refusals");
    lanes8(maxv).into_iter().fold(tail_max, u32::max) <= record.n_bins
}

/// The filter sweep as a branchless microkernel: builds the LSB-first
/// drop bitmap (`bit set ⇔ |v| < threshold`) into `bitmap` and compacts
/// surviving values into `kept`, both cleared first. Byte-identical to
/// a scalar loop that sets one bit per dropped value and pushes each
/// survivor (the compressor tests' oracle).
///
/// `inst` picks how a whole word of 64 decisions is made: one compare
/// per value in the portable instance, eight `cmpps` + `movemask`s in
/// AVX2 (`|v|` as a cleared sign bit, an ordered `<`, so NaN is kept in
/// both); a short last word is the portable loop's in both.
///
/// # Panics
/// If `inst` is not available on this host.
pub fn filter_kernel(
    inst: Instance,
    data: &[f32],
    threshold: f32,
    bitmap: &mut Vec<u8>,
    kept: &mut Vec<f32>,
) {
    assert!(inst.available(), "{inst:?} not available on this host");
    #[cfg(test)]
    log_run("filter_kernel", inst, data.as_ptr());
    bitmap.clear();
    bitmap.reserve(data.len().div_ceil(8));
    kept.clear();
    kept.reserve(data.len());
    match inst {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the assertion above saw the CPU report AVX2, the one
        // feature `filter_avx2` is built with.
        Instance::Avx2 | Instance::Avx512 => unsafe { filter_avx2(data, threshold, bitmap, kept) },
        #[cfg(not(target_arch = "x86_64"))]
        Instance::Avx2 | Instance::Avx512 => unreachable!("no wide instance off x86-64"),
        Instance::Portable => filter_words(data, bitmap, kept, |c| drop_word(c, threshold)),
    }
}

/// The drop word of up to 64 values: bit `j` set ⇔ `|c[j]| < threshold`.
#[inline(always)]
fn drop_word(c: &[f32], threshold: f32) -> u64 {
    let mut word = 0u64;
    for (j, &v) in c.iter().enumerate() {
        word |= ((v.abs() < threshold) as u64) << j;
    }
    word
}

/// [`filter_kernel`]'s sweep with `word` making each 64-value drop word.
#[inline(always)]
fn filter_words(
    data: &[f32],
    bitmap: &mut Vec<u8>,
    kept: &mut Vec<f32>,
    mut word: impl FnMut(&[f32]) -> u64,
) {
    // 64 values at a time: the comparisons build one bitmap word with no
    // branch per element, and the survivors are then picked off the
    // inverted word, so the copy costs per kept value — the filter's
    // point is that those are the minority — and `kept` is never
    // zero-filled.
    for chunk in data.chunks(64) {
        let word = word(chunk);
        bitmap.extend_from_slice(&word.to_le_bytes()[..chunk.len().div_ceil(8)]);
        let mut keep = !word & (u64::MAX >> (64 - chunk.len()));
        while keep != 0 {
            kept.push(chunk[keep.trailing_zeros() as usize]);
            keep &= keep - 1;
        }
    }
}

/// The AVX2 body of [`filter_kernel`]: a whole word is eight groups of
/// eight, each `|v| < threshold` as `andps` (the sign bit cleared, as
/// `f32::abs` does) and `cmpps` LT_OQ (false on NaN, as `<` is), its
/// sign bits gathered by one `movemask` into the group's byte.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn filter_avx2(data: &[f32], threshold: f32, bitmap: &mut Vec<u8>, kept: &mut Vec<f32>) {
    use std::arch::x86_64::*;
    let abs = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MAX));
    let thr = _mm256_set1_ps(threshold);
    filter_words(data, bitmap, kept, |chunk| {
        if chunk.len() < 64 {
            return drop_word(chunk, threshold);
        }
        let mut word = 0u64;
        for (k, c) in chunk.chunks_exact(8).enumerate() {
            let v = _mm256_set_ps(c[7], c[6], c[5], c[4], c[3], c[2], c[1], c[0]);
            let below = _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_and_ps(v, abs), thr);
            word |= (_mm256_movemask_ps(below) as u8 as u64) << (8 * k);
        }
        word
    });
}

/// The bin coordinate of `x`, clamped to `[0, n_bins]` ahead of rounding.
/// Both ends are integers and rounding is monotone, so this commutes with
/// the scalar path's clamp of the rounded index: a coordinate below 0 —
/// or NaN, which fails `> 0.0` — ends at code 0 there too, one at or
/// above `n_bins` at `n_bins`. Written as compare-selects so each is one
/// `maxsd`/`minsd`; what the clamp buys is a coordinate that fits a
/// `u32`, which takes `floor` and `round_ties_even` out of libm (neither
/// is an instruction on baseline x86-64).
#[inline(always)]
fn coord_of(x: f32, lo64: f64, inv_w: f64, cap64: f64) -> f64 {
    let coord = (x as f64 - lo64) * inv_w;
    let coord = if coord > 0.0 { coord } else { 0.0 };
    if coord < cap64 {
        coord
    } else {
        cap64
    }
}

/// The quantize sweep with the rounding-mode dispatch hoisted out of the
/// inner loop. Consumes the RNG stream exactly like per-element
/// `RoundingMode::round` calls would, and emits identical codes.
///
/// `lo` is the range start, and `inv_w` and `n_bins` the reciprocal bin
/// width and the largest code of `quantize::grid`, the one grid the chunk
/// kernels and the `Quantizer` both derive.
pub(crate) fn quantize_kernel(
    kept: &[f32],
    lo: f32,
    inv_w: f64,
    n_bins: u32,
    mode: RoundingMode,
    rng: &mut Rng,
    codes: &mut Vec<u32>,
) {
    codes.clear();
    codes.resize(kept.len(), 0);
    let lo64 = lo as f64;
    let cap = n_bins as i64;
    let cap64 = n_bins as f64;
    match mode {
        RoundingMode::Nearest => {
            for (c, &x) in codes.iter_mut().zip(kept) {
                // Adding 2⁵² leaves no fraction bits, so the add itself
                // rounds to nearest, ties to even, and the integer is the
                // low mantissa bits.
                *c = (coord_of(x, lo64, inv_w, cap64) + TWO_POW_52).to_bits() as u32;
            }
        }
        RoundingMode::Stochastic => SrLane {
            kept,
            lo,
            inv_w,
            n_bins,
            rng,
            codes,
        }
        .quantize(),
        RoundingMode::HalfProbability => {
            // P0.5 draws randomness *conditionally* (exact grid points
            // consume nothing), so it cannot be made branchless without
            // desyncing the stream; keep the scalar rounding call.
            for (c, &x) in codes.iter_mut().zip(kept) {
                let coord = (x as f64 - lo64) * inv_w;
                *c = mode.round(coord, rng).clamp(0, cap) as u32;
            }
        }
    }
}

/// Streams [`quantize_sr_lanes`] runs side by side at most: the eight
/// 64-bit lanes of a 512-bit register.
pub const SR_LANES: usize = 8;

/// One chunk's stochastic rounding, or a stretch of it: `codes[i]` gets
/// the code of `kept[i]` under the header `quantize_kernel` takes,
/// drawing one uniform from `rng` per value in order.
pub struct SrLane<'a> {
    /// The values to round.
    pub kept: &'a [f32],
    /// The chunk's range start.
    pub lo: f32,
    /// The reciprocal of its bin width, in `f64`.
    pub inv_w: f64,
    /// Its largest code.
    pub n_bins: u32,
    /// The chunk's stream, left after its last draw.
    pub rng: &'a mut Rng,
    /// Where the codes go: as long as `kept`.
    pub codes: &'a mut [u32],
}

impl SrLane<'_> {
    /// This lane alone, in scalar code: `quantize_kernel`'s Stochastic
    /// arm, the portable instance of [`quantize_sr_lanes`] and its oracle.
    pub(crate) fn quantize(&mut self) {
        let (lo64, cap64) = (self.lo as f64, self.n_bins as f64);
        // The scalar path draws one uniform per element no matter which
        // way it rounds, so the branchless form below keeps the RNG
        // stream position and every rounding decision identical.
        for (c, &x) in self.codes.iter_mut().zip(self.kept) {
            let coord = coord_of(x, lo64, self.inv_w, cap64);
            // Truncation is `floor` for a non-negative coordinate; a
            // clamped one has fraction 0 and never rounds up.
            let floor = coord as u32;
            let p = coord - floor as f64;
            *c = floor + (self.rng.uniform_f64() < p) as u32;
        }
    }
}

/// Stochastic rounding of up to [`SR_LANES`] streams at once, each lane
/// exactly as [`SrLane::quantize`] would run it alone: same codes, same
/// stream position after. `inst` picks the body: AVX-512 runs eight lanes
/// in one register and four more as AVX2 does, AVX2 runs each four lanes
/// in one register, and the portable instance — and any lane left over
/// from those groups — one lane after another.
///
/// # Panics
/// If the lanes differ in length, a lane's `codes` is not as long as its
/// `kept`, or `inst` is not available on this host.
pub fn quantize_sr_lanes(inst: Instance, lanes: &mut [SrLane<'_>]) {
    let steps = lanes.first().map_or(0, |l| l.kept.len());
    assert!(
        lanes
            .iter()
            .all(|l| l.kept.len() == steps && l.codes.len() == steps),
        "SR lanes run in lockstep over equal lengths"
    );
    assert!(inst.available(), "{inst:?} not available on this host");
    #[cfg(test)]
    log_run(
        "quantize_sr_lanes",
        inst,
        lanes.first().map_or(std::ptr::null(), |l| l.kept.as_ptr()),
    );
    match inst {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the assertion above saw the CPU report AVX-512 F and DQ,
        // the features `sr_lanes_avx512` is built with.
        Instance::Avx512 => unsafe { sr_lanes_avx512(lanes, steps) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the assertion above saw the CPU report AVX2, the one
        // feature `sr_lanes_avx2` is built with.
        Instance::Avx2 => unsafe { sr_lanes_avx2(lanes, steps) },
        #[cfg(not(target_arch = "x86_64"))]
        Instance::Avx2 | Instance::Avx512 => unreachable!("no wide instance off x86-64"),
        Instance::Portable => lanes.iter_mut().for_each(SrLane::quantize),
    }
}

/// The calls of [`filter_kernel`], [`quantize_sr_lanes`], [`split_into`]
/// and [`CodeRecord::dequantize_into`] on any thread while a test has the
/// log open.
#[cfg(test)]
pub(crate) static KERNEL_RUNS: std::sync::Mutex<Option<Vec<KernelRun>>> =
    std::sync::Mutex::new(None);

/// One call of a logged kernel: its name, its thread, the instance whose
/// body it ran, and the address of the values it reads or writes (the
/// filter's input, the first SR lane's kept values, the split's codes,
/// the dequantize's output), which tells one test's calls from another's.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct KernelRun {
    pub(crate) kernel: &'static str,
    pub(crate) thread: std::thread::ThreadId,
    pub(crate) inst: Instance,
    pub(crate) values: usize,
}

/// Logs a call of `kernel` where a test has opened [`KERNEL_RUNS`].
#[cfg(test)]
fn log_run<T>(kernel: &'static str, inst: Instance, values: *const T) {
    if let Some(log) = KERNEL_RUNS.lock().expect("kernel log").as_mut() {
        log.push(KernelRun {
            kernel,
            thread: std::thread::current().id(),
            inst,
            values: values as usize,
        });
    }
}

/// The AVX2 body of [`quantize_sr_lanes`]: each four lanes in one
/// register ([`sr_quad_avx2`]), the rest in scalar code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sr_lanes_avx2(lanes: &mut [SrLane<'_>], steps: usize) {
    let (quads, rest) = lanes.as_chunks_mut::<4>();
    quads.iter_mut().for_each(|quad| sr_quad_avx2(quad, steps));
    rest.iter_mut().for_each(SrLane::quantize);
}

/// Four lanes of [`quantize_sr_lanes`] in one AVX2 register: lane `j` of
/// every register is `lanes[j]` — its xoshiro256++ state, its `lo`, `1/w`
/// and `n_bins` — and one iteration is one [`SrLane::quantize`] step in
/// each. The uniform is `(next_u64 >> 11) · 2⁻⁵³` converted exactly in two
/// halves, the coordinate is clamped by `maxpd`/`minpd` (the scalar
/// selects' semantics, NaN included), truncated by `roundpd`, and the code
/// leaves as the low mantissa bits of `floor + 2⁵² + (u < p)`. The uniform
/// and the code are exact on both paths, and the coordinate is the scalar
/// code's IEEE operations in its order; no FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn sr_quad_avx2(lanes: &mut [SrLane<'_>; 4], steps: usize) {
    use std::arch::x86_64::*;
    let [l0, l1, l2, l3] = lanes;
    // `_mm256_set_*` lists lanes from the highest down.
    let lo = _mm256_set_pd(l3.lo as f64, l2.lo as f64, l1.lo as f64, l0.lo as f64);
    let inv_w = _mm256_set_pd(l3.inv_w, l2.inv_w, l1.inv_w, l0.inv_w);
    let cap = _mm256_set_pd(
        l3.n_bins as f64,
        l2.n_bins as f64,
        l1.n_bins as f64,
        l0.n_bins as f64,
    );
    let (st0, st1, st2, st3) = (
        l0.rng.state(),
        l1.rng.state(),
        l2.rng.state(),
        l3.rng.state(),
    );
    let word = |k: usize| {
        _mm256_set_epi64x(
            st3.0[k] as i64,
            st2.0[k] as i64,
            st1.0[k] as i64,
            st0.0[k] as i64,
        )
    };
    let (mut s0, mut s1, mut s2, mut s3) = (word(0), word(1), word(2), word(3));
    let zero = _mm256_setzero_pd();
    let one = _mm256_set1_pd(1.0);
    let two_52 = _mm256_set1_pd(TWO_POW_52);
    // 2⁵² and 2⁸⁴ as bit patterns: OR-ing an integer of up to 52 bits
    // into the mantissa of either makes a double exactly that much past
    // it (2⁸⁴'s ulp is 2³², so there the integer counts in 2³² units).
    let exp_52 = _mm256_set1_epi64x(TWO_POW_52.to_bits() as i64);
    let exp_84 = _mm256_set1_epi64x(TWO_POW_84.to_bits() as i64);
    let two_84 = _mm256_set1_pd(TWO_POW_84);
    let low_32 = _mm256_set1_epi64x(0xFFFF_FFFF);
    let unit = _mm256_set1_pd(1.0 / (1u64 << 53) as f64);
    let (k0, k1, k2, k3) = (
        &l0.kept[..steps],
        &l1.kept[..steps],
        &l2.kept[..steps],
        &l3.kept[..steps],
    );
    let (c0, c1, c2, c3) = (
        &mut l0.codes[..steps],
        &mut l1.codes[..steps],
        &mut l2.codes[..steps],
        &mut l3.codes[..steps],
    );
    for i in 0..steps {
        // xoshiro256++ (`Rng::next_u64`).
        let sum = _mm256_add_epi64(s0, s3);
        let rotl = _mm256_or_si256(_mm256_slli_epi64::<23>(sum), _mm256_srli_epi64::<41>(sum));
        let next = _mm256_add_epi64(rotl, s0);
        let t = _mm256_slli_epi64::<17>(s1);
        s2 = _mm256_xor_si256(s2, s0);
        s3 = _mm256_xor_si256(s3, s1);
        s1 = _mm256_xor_si256(s1, s2);
        s0 = _mm256_xor_si256(s0, s3);
        s2 = _mm256_xor_si256(s2, t);
        s3 = _mm256_or_si256(_mm256_slli_epi64::<45>(s3), _mm256_srli_epi64::<19>(s3));
        // `Rng::uniform_f64`: the 53-bit integer as its high 21 bits
        // · 2³² plus its low 32, each exact, their sum exact below 2⁵³.
        let x = _mm256_srli_epi64::<11>(next);
        let hi = _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64::<32>(x), exp_84));
        let lo32 = _mm256_castsi256_pd(_mm256_or_si256(_mm256_and_si256(x, low_32), exp_52));
        let u = _mm256_mul_pd(
            _mm256_add_pd(_mm256_sub_pd(hi, two_84), _mm256_sub_pd(lo32, two_52)),
            unit,
        );
        // `coord_of`, the truncation and the draw's compare.
        let v = _mm256_set_pd(k3[i] as f64, k2[i] as f64, k1[i] as f64, k0[i] as f64);
        let coord = _mm256_mul_pd(_mm256_sub_pd(v, lo), inv_w);
        let coord = _mm256_min_pd(_mm256_max_pd(coord, zero), cap);
        let floor = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(coord);
        let up = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_LT_OQ>(u, _mm256_sub_pd(coord, floor)),
            one,
        );
        let code = _mm256_castpd_si256(_mm256_add_pd(_mm256_add_pd(floor, two_52), up));
        c0[i] = _mm256_extract_epi64::<0>(code) as u32;
        c1[i] = _mm256_extract_epi64::<1>(code) as u32;
        c2[i] = _mm256_extract_epi64::<2>(code) as u32;
        c3[i] = _mm256_extract_epi64::<3>(code) as u32;
    }
    let lane = |k: usize| {
        let w = |s: __m256i| match k {
            0 => _mm256_extract_epi64::<0>(s),
            1 => _mm256_extract_epi64::<1>(s),
            2 => _mm256_extract_epi64::<2>(s),
            _ => _mm256_extract_epi64::<3>(s),
        } as u64;
        [w(s0), w(s1), w(s2), w(s3)]
    };
    *l0.rng = Rng::from_state(lane(0), st0.1);
    *l1.rng = Rng::from_state(lane(1), st1.1);
    *l2.rng = Rng::from_state(lane(2), st2.1);
    *l3.rng = Rng::from_state(lane(3), st3.1);
}

/// The AVX-512 body of [`quantize_sr_lanes`]: each eight lanes in one
/// register ([`sr_eight_avx512`]), four more as the AVX2 body runs them,
/// the rest in scalar code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn sr_lanes_avx512(lanes: &mut [SrLane<'_>], steps: usize) {
    let (eights, rest) = lanes.as_chunks_mut::<8>();
    eights
        .iter_mut()
        .for_each(|eight| sr_eight_avx512(eight, steps));
    sr_lanes_avx2(rest, steps);
}

/// Eight lanes of [`quantize_sr_lanes`] in one AVX-512 register, lane `j`
/// of every register `lanes[j]`, four steps of every lane per iteration.
/// Each lane's four values come in as one 128-bit set and are transposed
/// into one register per step; each step is [`sr_quad_avx2`]'s, with the
/// uniform converted by `vcvtuqq2pd` (exact below 2⁵³), the rotations by
/// `vprolq` and the draw's `+ 1` under the compare's mask; each lane's four
/// codes leave as two `u64` extracts. The last `steps % 4` steps go one at
/// a time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
#[inline]
fn sr_eight_avx512(lanes: &mut [SrLane<'_>; 8], steps: usize) {
    use std::arch::x86_64::*;
    // `_mm512_set_*` lists lanes from the highest down.
    let per_lane = |f: &dyn Fn(&SrLane<'_>) -> f64| {
        let l = &*lanes;
        _mm512_set_pd(
            f(&l[7]),
            f(&l[6]),
            f(&l[5]),
            f(&l[4]),
            f(&l[3]),
            f(&l[2]),
            f(&l[1]),
            f(&l[0]),
        )
    };
    let lo = per_lane(&|l| l.lo as f64);
    let inv_w = per_lane(&|l| l.inv_w);
    let cap = per_lane(&|l| l.n_bins as f64);
    let st = lanes.each_ref().map(|l| l.rng.state());
    let word = |k: usize| {
        let w = |j: usize| st[j].0[k] as i64;
        _mm512_set_epi64(w(7), w(6), w(5), w(4), w(3), w(2), w(1), w(0))
    };
    let mut s = [word(0), word(1), word(2), word(3)];
    let zero = _mm512_setzero_pd();
    let one = _mm512_set1_pd(1.0);
    let two_52 = _mm512_set1_pd(TWO_POW_52);
    let unit = _mm512_set1_pd(1.0 / (1u64 << 53) as f64);
    // One step in every lane: `Rng::next_u64`, `Rng::uniform_f64`,
    // `coord_of`, the truncation and the draw's compare; the code in the
    // low 32 bits of each 64-bit lane.
    let one_step = |s: &mut [__m512i; 4], v: __m512d| {
        let next = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(s[0], s[3])), s[0]);
        let t = _mm512_slli_epi64::<17>(s[1]);
        s[2] = _mm512_xor_si512(s[2], s[0]);
        s[3] = _mm512_xor_si512(s[3], s[1]);
        s[1] = _mm512_xor_si512(s[1], s[2]);
        s[0] = _mm512_xor_si512(s[0], s[3]);
        s[2] = _mm512_xor_si512(s[2], t);
        s[3] = _mm512_rol_epi64::<45>(s[3]);
        let u = _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(next)), unit);
        let coord = _mm512_mul_pd(_mm512_sub_pd(v, lo), inv_w);
        let coord = _mm512_min_pd(_mm512_max_pd(coord, zero), cap);
        let floor = _mm512_roundscale_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(coord);
        let up = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(u, _mm512_sub_pd(coord, floor));
        let code = _mm512_add_pd(floor, two_52);
        _mm512_castpd_si512(_mm512_mask_add_pd(code, up, code, one))
    };
    // 64-bit lane `j` of `v`.
    let lane = |v: __m512i, j: usize| {
        let pair = match j / 2 {
            0 => _mm512_extracti32x4_epi32::<0>(v),
            1 => _mm512_extracti32x4_epi32::<1>(v),
            2 => _mm512_extracti32x4_epi32::<2>(v),
            _ => _mm512_extracti32x4_epi32::<3>(v),
        };
        (match j % 2 {
            0 => _mm_extract_epi64::<0>(pair),
            _ => _mm_extract_epi64::<1>(pair),
        }) as u64
    };
    // Each lane's values and codes four steps at a time, then the rest.
    let (quads, full) = (steps / 4, steps / 4 * 4);
    let kept: [&[[f32; 4]]; 8] = std::array::from_fn(|j| &lanes[j].kept.as_chunks().0[..quads]);
    let tail: [&[f32]; 8] = std::array::from_fn(|j| &lanes[j].kept[full..steps]);
    {
        let mut codes = lanes
            .each_mut()
            .map(|l| l.codes[..steps].split_at_mut(full));
        // Steps `t` and `t + 1` of all eight lanes from lanes 0..4's
        // (`a`) and 4..8's (`b`) four values each: 32-bit lane `4j + t`
        // of `a` is lane j's step t.
        let pick = |t: i32| {
            let at = |j: i32| {
                if j < 4 {
                    4 * j + t
                } else {
                    16 + 4 * (j - 4) + t
                }
            };
            let next = |j: i32| at(j) + 1;
            _mm512_set_epi32(
                next(7),
                next(6),
                next(5),
                next(4),
                next(3),
                next(2),
                next(1),
                next(0),
                at(7),
                at(6),
                at(5),
                at(4),
                at(3),
                at(2),
                at(1),
                at(0),
            )
        };
        let (pick01, pick23) = (pick(0), pick(2));
        // Lane j's steps t and t + 1 as one 64-bit lane: the low 32 bits
        // of 64-bit lane j of either register.
        let pair = _mm512_set_epi32(30, 14, 28, 12, 26, 10, 24, 8, 22, 6, 20, 4, 18, 2, 16, 0);
        for q in 0..quads {
            let x = |j: usize| {
                let v = kept[j][q];
                _mm_set_ps(v[3], v[2], v[1], v[0])
            };
            let a = _mm512_insertf32x4::<1>(_mm512_castps128_ps512(x(0)), x(1));
            let a = _mm512_insertf32x4::<3>(_mm512_insertf32x4::<2>(a, x(2)), x(3));
            let b = _mm512_insertf32x4::<1>(_mm512_castps128_ps512(x(4)), x(5));
            let b = _mm512_insertf32x4::<3>(_mm512_insertf32x4::<2>(b, x(6)), x(7));
            let (v01, v23) = (
                _mm512_permutex2var_ps(a, pick01, b),
                _mm512_permutex2var_ps(a, pick23, b),
            );
            let c0 = one_step(&mut s, _mm512_cvtps_pd(_mm512_castps512_ps256(v01)));
            let c1 = one_step(&mut s, _mm512_cvtps_pd(_mm512_extractf32x8_ps::<1>(v01)));
            let c2 = one_step(&mut s, _mm512_cvtps_pd(_mm512_castps512_ps256(v23)));
            let c3 = one_step(&mut s, _mm512_cvtps_pd(_mm512_extractf32x8_ps::<1>(v23)));
            let (p01, p23) = (
                _mm512_permutex2var_epi32(c0, pair, c1),
                _mm512_permutex2var_epi32(c2, pair, c3),
            );
            for (j, (c, _)) in codes.iter_mut().enumerate() {
                let (w01, w23) = (lane(p01, j), lane(p23, j));
                let four = [
                    w01 as u32,
                    (w01 >> 32) as u32,
                    w23 as u32,
                    (w23 >> 32) as u32,
                ];
                c[4 * q..4 * q + 4].copy_from_slice(&four);
            }
        }
        for i in 0..steps - full {
            let k = |j: usize| tail[j][i] as f64;
            let v = _mm512_set_pd(k(7), k(6), k(5), k(4), k(3), k(2), k(1), k(0));
            let code = one_step(&mut s, v);
            for (j, (_, c)) in codes.iter_mut().enumerate() {
                c[i] = lane(code, j) as u32;
            }
        }
    }
    for (j, l) in lanes.iter_mut().enumerate() {
        *l.rng = Rng::from_state(s.map(|w| lane(w, j)), st[j].1);
    }
}

/// Why [`scatter_kept`] stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ScatterError {
    /// A kept slot had no value behind it.
    Underrun,
    /// Values were left over after every kept slot was filled.
    Overrun,
}

/// Scatters `kept` values into the kept (bit clear) positions of a
/// pre-zeroed `out[..n]`, walking the bitmap as u64 keep-masks. `value(k)`
/// produces the k-th kept value. `bitmap` must hold `n.div_ceil(8)` bytes;
/// bits past `n` in the last byte are ignored, exactly like the scalar
/// scatter loop.
pub(crate) fn scatter_kept(
    bitmap: &[u8],
    n: usize,
    kept: usize,
    out: &mut [f32],
    mut value: impl FnMut(usize) -> f32,
) -> Result<(), ScatterError> {
    debug_assert!(bitmap.len() >= n.div_ceil(8));
    debug_assert!(out.len() >= n);
    let mut next = 0usize;
    let full_words = n / 64;
    for wi in 0..full_words {
        let w = u64::from_le_bytes(bitmap[wi * 8..wi * 8 + 8].try_into().unwrap());
        let base = wi * 64;
        let mut keep = !w;
        while keep != 0 {
            let tz = keep.trailing_zeros() as usize;
            if next >= kept {
                return Err(ScatterError::Underrun);
            }
            out[base + tz] = value(next);
            next += 1;
            keep &= keep - 1;
        }
    }
    for i in full_words * 64..n {
        let dropped = (bitmap[i / 8] >> (i % 8)) & 1 == 1;
        if !dropped {
            if next >= kept {
                return Err(ScatterError::Underrun);
            }
            out[i] = value(next);
            next += 1;
        }
    }
    if next != kept {
        return Err(ScatterError::Overrun);
    }
    Ok(())
}

/// Per-thread compress-side arena (the PR-3 decode scratch's sibling):
/// the fused kernel's kept values, quantized codes, low bytes and plane
/// bytes are materialized here instead of fresh `Vec`s per chunk. Buffers are
/// cleared between chunks, never shrunk.
#[derive(Debug, Default)]
pub(crate) struct CompressScratch {
    /// One per SR lane: the chunk that lane holds.
    pub lanes: [LaneScratch; SR_LANES],
    /// The record's code bytes, one low byte per code, staged before the
    /// chunk record is written.
    pub low: Vec<u8>,
    /// The codes' bits past 8, if they have any, staged likewise.
    pub planes: Vec<u8>,
}

/// A chunk's buffers while it is being quantized.
#[derive(Debug, Default)]
pub(crate) struct LaneScratch {
    /// Surviving values after the filter sweep.
    pub kept: Vec<f32>,
    /// Quantized bin indices for the kept values.
    pub codes: Vec<u32>,
}

impl CompressScratch {
    /// A fresh, empty arena.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Bytes currently reserved across all arena buffers (observability
    /// for the reuse-invariant tests).
    #[cfg(test)]
    pub(crate) fn capacity_bytes(&self) -> usize {
        let lanes: usize = (self.lanes.iter())
            .map(|l| l.kept.capacity() * 4 + l.codes.capacity() * 4)
            .sum();
        lanes + self.low.capacity() + self.planes.capacity()
    }
}

thread_local! {
    /// Per-thread [`CompressScratch`] pool backing the fused compress
    /// kernel. Moved out (not borrowed) for the duration of a chunk so
    /// rayon work-stealing that re-enters compression on the same OS
    /// thread finds a fresh empty arena instead of a held borrow.
    static COMPRESS_SCRATCH: std::cell::RefCell<CompressScratch> =
        std::cell::RefCell::new(CompressScratch::new());

    /// A filtered chunk's kept values, dequantized ahead of the scatter,
    /// per thread.
    static CHUNK_KEPT: std::cell::RefCell<Vec<f32>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's compress arena.
pub(crate) fn with_compress_scratch<R>(f: impl FnOnce(&mut CompressScratch) -> R) -> R {
    let mut s = COMPRESS_SCRATCH.with(|p| std::mem::take(&mut *p.borrow_mut()));
    let r = f(&mut s);
    COMPRESS_SCRATCH.with(|p| *p.borrow_mut() = s);
    r
}

/// Bytes currently reserved by this thread's compress arena.
#[cfg(test)]
pub(crate) fn compress_scratch_capacity_bytes() -> usize {
    COMPRESS_SCRATCH.with(|p| p.borrow().capacity_bytes())
}

/// Runs `f` with this thread's buffer for a filtered chunk's kept values.
pub(crate) fn with_chunk_kept<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    let mut s = CHUNK_KEPT.with(|p| std::mem::take(&mut *p.borrow_mut()));
    let r = f(&mut s);
    CHUNK_KEPT.with(|p| *p.borrow_mut() = s);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitpack;
    use proptest::prelude::*;
    // Explicit import: proptest's prelude also globs a `Rng` trait.
    use compso_tensor::rng::Rng;

    /// The instances this host runs.
    fn instances() -> impl Iterator<Item = Instance> {
        Instance::ALL.into_iter().filter(|inst| inst.available())
    }

    /// The instance every host runs: the oracle of the others.
    const PORTABLE: Instance = Instance::Portable;

    /// Values as bits, so that NaNs compare and signed zeros differ.
    fn bits_of(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The SR lanes on every instance against [`SrLane::quantize`] lane
    /// by lane — the same codes and the same end stream state — at every
    /// length up to 130 and at 1037: every tail the four-step loop of the
    /// AVX-512 body leaves, over 13 lanes (a register of eight, one of
    /// four and a scalar lane).
    #[test]
    fn sr_lanes_match_the_scalar_lane_at_every_tail_length() {
        let mut r = Rng::new(0x5A11);
        for len in (0..=130).chain([1037]) {
            let lanes: Vec<(Vec<f32>, f32, f64, u32)> = (0..13)
                .map(|_| {
                    let n_bins = 1 + r.below(1 << 12) as u32;
                    let (lo, w) = (r.range_f32(-2.0, 0.0), r.range_f32(1e-3, 0.1));
                    let span = n_bins as f32 * w;
                    let kept = (0..len)
                        .map(|_| lo - 0.1 * span + 1.2 * span * r.uniform_f32())
                        .collect();
                    (kept, lo, 1.0 / w as f64, n_bins)
                })
                .collect();
            let base = Rng::new(len as u64);
            let run = |inst: Option<Instance>| {
                let mut rngs: Vec<Rng> = (0..13).map(|j| base.fork(j)).collect();
                let mut codes = vec![vec![u32::MAX; len]; 13];
                let mut sr: Vec<SrLane> = (lanes.iter().zip(&mut rngs).zip(&mut codes))
                    .map(|(((kept, lo, inv_w, n_bins), rng), codes)| SrLane {
                        kept,
                        lo: *lo,
                        inv_w: *inv_w,
                        n_bins: *n_bins,
                        rng,
                        codes,
                    })
                    .collect();
                match inst {
                    Some(inst) => quantize_sr_lanes(inst, &mut sr),
                    None => sr.iter_mut().for_each(SrLane::quantize),
                }
                let states: Vec<[u64; 4]> = rngs.iter().map(|g| g.state().0).collect();
                (codes, states)
            };
            let want = run(None);
            for inst in instances() {
                assert_eq!(run(Some(inst)), want, "{inst:?} at length {len}");
            }
        }
    }

    /// The splitter on every instance against [`bitpack::split`] and the
    /// merger against the codes and [`bitpack::unsplit`], at every width
    /// × every short length × every class of rotation — the ones [`split_bias`] derives
    /// (`lo = 0`, a subnormal bin width, the code of 0.0 clamped at 0 and
    /// at `n_bins`, mid-range; all 0 up to 8 bits) and the extremes of
    /// the mask — on random and all-ones codes: the plane-free copy, the
    /// plane's groups of eight, its register-window tail and the ≤ 4-byte
    /// flush all move with `len · (width − 8)`.
    #[test]
    fn split_and_unsplit_match_scalar_at_every_width_and_short_length() {
        use crate::bitpack::split_bias;
        let mut rng = Rng::new(0x5B17);
        let (mut low, mut planes) = (vec![1u8; 5], vec![2u8; 3]);
        let tiny = f32::from_bits(1);
        for width in 1u32..=32 {
            let mask = code_mask(width);
            let n_bins = mask - (mask >> 2); // needs all `width` bits
            let w = 2.0 / n_bins as f32;
            let biases = [
                split_bias(0.0, w, n_bins),             // lo = 0: z = 0
                split_bias(3.0, w, n_bins),             // range above zero: z clamped at 0
                split_bias(-9.0, w, n_bins),            // range below zero: z clamped at n_bins
                split_bias(-1.0, w, n_bins),            // zero mid-range
                split_bias(-77.0 * tiny, tiny, n_bins), // subnormal bin width
                0,
                mask,
                rng.next_u32() & mask,
            ];
            if width > 8 {
                assert_eq!(biases[0], 128);
                assert_eq!(biases[1], 128);
                assert_eq!(biases[2], 128u32.wrapping_sub(n_bins) & mask);
                assert_eq!(biases[4], 128 - 77);
            } else {
                assert_eq!(biases[..5], [0; 5], "width={width}");
            }
            for bias in biases {
                for len in 0..=130usize {
                    for all_ones in [false, true] {
                        let codes: Vec<u32> = (0..len)
                            .map(|_| {
                                if all_ones {
                                    mask
                                } else {
                                    rng.next_u32() & mask
                                }
                            })
                            .collect();
                        let want = bitpack::split(&codes, width, bias);
                        for inst in instances() {
                            split_into(inst, &codes, width, bias, &mut low, &mut planes);
                            assert_eq!(
                                (&low, &planes),
                                (&want.0, &want.1),
                                "width={width} bias={bias} len={len} {inst:?}"
                            );
                        }
                        let plane_bytes = (len * plane_width(width) as usize).div_ceil(8);
                        assert_eq!(planes.len(), plane_bytes);
                        let mut merged = vec![0u32; len];
                        let unrotate = |stored: u32| stored.wrapping_sub(bias) & mask;
                        assert_eq!(
                            unsplit_map(&low, &planes, width, &mut merged, unrotate),
                            Ok(()),
                            "width={width} bias={bias} len={len}"
                        );
                        assert_eq!(merged, codes, "width={width} bias={bias} len={len}");
                        assert_eq!(
                            bitpack::unsplit(&low, &planes, width, bias).as_ref(),
                            Ok(&codes),
                            "width={width} bias={bias} len={len}"
                        );
                    }
                }
            }
        }
        // The oracle's refusals, in its order.
        let (low, planes) = bitpack::split(&[300u32; 16], 13, 7);
        assert_eq!(
            unsplit_map(&low, &planes[..9], 13, &mut [0u32; 16], |c| c),
            Err(WireError::Truncated { need: 10, have: 9 })
        );
        assert_eq!(
            bitpack::unsplit(&low, &planes[..9], 13, 7),
            Err(WireError::Truncated { need: 10, have: 9 })
        );
        for width in [0, 33] {
            assert_eq!(
                unsplit_map(&low, &planes, width, &mut [0u32; 16], |c| c),
                Err(WireError::Invalid("bit width"))
            );
        }
    }

    /// The "does not fit" check is accumulated and raised once, after the
    /// loop; the message must still name the first offender, as the
    /// scalar splitter's does, on every instance — an offender in a group
    /// of eight, past the last group, or both.
    #[test]
    fn split_into_names_the_first_oversized_code_like_scalar() {
        fn message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
            let payload = std::panic::catch_unwind(f).expect_err("must panic");
            payload.downcast_ref::<String>().expect("formatted").clone()
        }
        for (codes, width) in [
            (vec![1u32, 7, 9, 3, 200], 3u32),
            (vec![8], 3),
            (vec![1u32, 511, 512, 3, 9000], 9),
            (vec![u32::MAX; 40], 9),
            (vec![0, 1 << 31], 31),
            (
                (0..40)
                    .map(|i| if i == 17 || i == 38 { 1 << 9 } else { 5 })
                    .collect(),
                9,
            ),
            ((0..13).map(|i| if i == 11 { 256 } else { 3 }).collect(), 8),
        ] {
            let want = {
                let codes = codes.clone();
                message(move || drop(bitpack::split(&codes, width, 128)))
            };
            assert!(want.contains("does not fit"), "{want}");
            for inst in instances() {
                let codes = codes.clone();
                let (mut low, mut planes) = (Vec::new(), Vec::new());
                assert_eq!(
                    message(move || split_into(inst, &codes, width, 128, &mut low, &mut planes)),
                    want,
                    "{inst:?}"
                );
            }
        }
        for width in [0, 33] {
            let out_of_range = message(move || drop(bitpack::split(&[1], width, 0)));
            for inst in instances() {
                let (mut low, mut planes) = (Vec::new(), Vec::new());
                assert_eq!(
                    message(move || split_into(inst, &[1], width, 0, &mut low, &mut planes)),
                    out_of_range
                );
            }
        }
    }

    /// The values the happy path never sees, against the retained scalar
    /// quantizer: same codes and same RNG position for NaN, ±∞,
    /// subnormals, both range ends, values outside the range, every exact
    /// grid point, every bin midpoint (RN's tie) and a neighbour of each —
    /// the cases that decide whether clamping the coordinate first and
    /// rounding without libm is the same function.
    #[test]
    fn quantize_kernel_matches_scalar_quantizer_on_edge_values() {
        use crate::quantize::quantize_on_grid;
        // Bin widths exact in f32 (one of them subnormal), so `lo + k·w`
        // lands on the grid exactly.
        for (lo, w) in [(-3.0f32, 0.125f32), (0.0, f32::from_bits(1))] {
            for n_bins in [1u32, 2, 255, 256, 500] {
                let hi = lo + n_bins as f32 * w;
                let mut data = vec![
                    f32::NAN,
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                    f32::MAX,
                    f32::MIN,
                    f32::MIN_POSITIVE,
                    -f32::MIN_POSITIVE,
                    f32::from_bits(1),
                    -f32::from_bits(1),
                    0.0,
                    -0.0,
                    lo,
                    hi,
                    lo - w,
                    hi + w,
                    lo - 1e-3,
                    hi + 1e-3,
                ];
                for k in 0..=n_bins {
                    let g = lo + k as f32 * w;
                    data.extend([
                        g,
                        g + w / 2.0,
                        g + w / 3.0,
                        f32::from_bits(g.to_bits().wrapping_add(1)),
                        f32::from_bits(g.to_bits().wrapping_sub(1)),
                    ]);
                }
                for mode in [
                    RoundingMode::Nearest,
                    RoundingMode::Stochastic,
                    RoundingMode::HalfProbability,
                ] {
                    let mut rng_ref = Rng::new(0x5EED);
                    let want = quantize_on_grid(&data, lo, w, n_bins, mode, &mut rng_ref);
                    let mut rng = Rng::new(0x5EED);
                    let mut codes = vec![9u32; 2];
                    let inv_w = 1.0 / w as f64;
                    quantize_kernel(&data, lo, inv_w, n_bins, mode, &mut rng, &mut codes);
                    assert_eq!(codes, want.codes, "lo={lo} w={w} n_bins={n_bins} {mode:?}");
                    assert_eq!(
                        rng.next_u64(),
                        rng_ref.next_u64(),
                        "RNG position, n_bins={n_bins} {mode:?}"
                    );
                }
            }
        }
    }

    /// A chunk record of `codes` at `bits` under a header, split as the
    /// compressor splits it, into `low` and `planes`.
    fn record_of<'a>(
        codes: &[u32],
        bits: u32,
        (lo, bin_width, n_bins): (f32, f32, u32),
        low: &'a mut Vec<u8>,
        planes: &'a mut Vec<u8>,
    ) -> CodeRecord<'a> {
        let bias = crate::bitpack::split_bias(lo, bin_width, n_bins);
        split_into(PORTABLE, codes, bits, bias, low, planes);
        CodeRecord {
            low,
            planes,
            bits,
            lo,
            bin_width,
            n_bins,
        }
    }

    /// Each instance's `dequantize_into` against the [`dequantize`]
    /// expression of the codes, bit for bit, at every width 1 to 16 — the
    /// AVX2 body up to 9 bits, the portable one past them — on every
    /// length 0..=130 (whole groups of eight, a tail, both) and one of
    /// 1037, under headers whose values overflow to ±∞ (`3e38`) or step
    /// by a subnormal, and the rotations those headers give a chunk.
    #[test]
    fn dequantize_into_is_the_expression_at_every_width_on_every_instance() {
        let mut rng = Rng::new(0xDE0);
        let (mut low, mut planes) = (Vec::new(), Vec::new());
        for bits in 1..=16 {
            let mask = code_mask(bits);
            for n_bins in [mask / 2 + 1, mask - mask / 4, mask] {
                let headers = [
                    (-1.0f32, 2.0 / n_bins as f32),
                    (0.0, f32::from_bits(1)),
                    (3.5, 0.25),
                    (3e38, 1e38), // every code past 0 overflows to +∞
                    (-3e38, 1e38),
                ];
                for (lo, bin_width) in headers {
                    for len in (0..=130).chain([1037]) {
                        let codes: Vec<u32> =
                            (0..len).map(|_| rng.next_u32() % (n_bins + 1)).collect();
                        let (lo64, bw64) = (lo as f64, bin_width as f64);
                        let want: Vec<f32> =
                            codes.iter().map(|&c| dequantize(lo64, bw64, c)).collect();
                        let header = (lo, bin_width, n_bins);
                        let record = record_of(&codes, bits, header, &mut low, &mut planes);
                        for inst in instances() {
                            let what = format!("bits={bits} n_bins={n_bins} lo={lo} len={len}");
                            let mut got = vec![f32::NAN; len];
                            assert_eq!(record.dequantize_into(inst, &mut got), Ok(()), "{what}");
                            assert_eq!(bits_of(&got), bits_of(&want), "{what} {inst:?}");
                        }
                    }
                }
            }
        }
    }

    /// A code one past `n_bins` is refused with the decoder's error on
    /// every instance, at every width 2 to 16, at every position of every
    /// length 0..=130 — in a group of eight or past the last — while the
    /// same codes in range decode; and a low byte with a bit set past a
    /// narrower code's width holds a code past `n_bins` at 1 to 7 bits.
    #[test]
    fn a_code_past_n_bins_is_refused_on_every_instance() {
        let mut rng = Rng::new(0xA72);
        let refused = Err(WireError::Invalid("quantized code out of range"));
        let (mut low, mut planes) = (Vec::new(), Vec::new());
        for bits in 2..=16 {
            let mask = code_mask(bits);
            let header = (-0.75f32, 1.5 / (mask - 1) as f32, mask - 1);
            for len in 0..=130 {
                let codes: Vec<u32> = (0..len).map(|_| rng.next_u32() % mask).collect();
                let mut out = vec![0.0f32; len];
                let record = record_of(&codes, bits, header, &mut low, &mut planes);
                for inst in instances() {
                    let result = record.dequantize_into(inst, &mut out);
                    assert_eq!(result, Ok(()), "bits={bits} len={len} {inst:?}");
                }
                for at in 0..len {
                    let mut hostile = codes.clone();
                    hostile[at] = mask;
                    let record = record_of(&hostile, bits, header, &mut low, &mut planes);
                    for inst in instances() {
                        let what = format!("bits={bits} len={len} at={at} {inst:?}");
                        assert_eq!(record.dequantize_into(inst, &mut out), refused, "{what}");
                    }
                }
            }
        }
        for bits in 1..8 {
            let count = 300;
            let mut low = vec![0u8; count];
            low[count / 2] = 1 << bits;
            let record = CodeRecord {
                low: &low,
                planes: &[],
                bits,
                lo: -1.0,
                bin_width: 0.5,
                n_bins: code_mask(bits),
            };
            let mut out = vec![0.0f32; count];
            for inst in instances() {
                let result = record.dequantize_into(inst, &mut out);
                assert_eq!(result, refused, "bits={bits} {inst:?}");
            }
        }
    }

    /// The drop mask on every instance against the scalar reference loop
    /// at every length 0..=130 — whole words, a short last word, both —
    /// on values at exactly ±threshold and one ulp either side, NaN of
    /// both signs, ±0.0, ±∞ and subnormals, under a normal, a subnormal
    /// and a zero threshold.
    #[test]
    fn drop_mask_instances_agree_on_ties_nan_and_short_words() {
        let mut rng = Rng::new(0xF17);
        for threshold in [0.375f32, f32::from_bits(3), 0.0] {
            let ulp = |v: f32, d: i32| f32::from_bits(v.to_bits().wrapping_add_signed(d));
            let pool = [
                threshold,
                -threshold,
                ulp(threshold, 1),
                ulp(threshold, -1),
                -ulp(threshold, 1),
                -ulp(threshold, -1),
                f32::NAN,
                -f32::NAN,
                0.0,
                -0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::from_bits(1),
                -f32::from_bits(2),
                5.0,
            ];
            for len in 0..=130usize {
                for _ in 0..4 {
                    let data: Vec<f32> = (0..len)
                        .map(|_| pool[rng.below(pool.len() as u64) as usize])
                        .collect();
                    let mut want_bitmap = vec![0u8; len.div_ceil(8)];
                    let mut want_kept = Vec::new();
                    for (i, &v) in data.iter().enumerate() {
                        if v.abs() < threshold {
                            want_bitmap[i / 8] |= 1 << (i % 8);
                        } else {
                            want_kept.push(v);
                        }
                    }
                    for inst in instances() {
                        let (mut bitmap, mut kept) = (vec![7u8; 3], vec![1.0f32; 2]);
                        filter_kernel(inst, &data, threshold, &mut bitmap, &mut kept);
                        let what = format!("threshold={threshold} len={len} {inst:?}");
                        assert_eq!(bitmap, want_bitmap, "{what}");
                        assert_eq!(bits_of(&kept), bits_of(&want_kept), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_kept_matches_bit_semantics() {
        // n = 70 crosses a u64 word boundary; drop odd indices.
        let n = 70usize;
        let mut bitmap = vec![0u8; n.div_ceil(8)];
        for i in (1..n).step_by(2) {
            bitmap[i / 8] |= 1 << (i % 8);
        }
        let kept_count = n.div_ceil(2);
        let mut out = vec![0.0f32; n];
        scatter_kept(&bitmap, n, kept_count, &mut out, |k| k as f32 + 1.0).unwrap();
        let mut k = 0;
        for (i, &v) in out.iter().enumerate() {
            if i % 2 == 0 {
                k += 1;
                assert_eq!(v, k as f32, "i={i}");
            } else {
                assert_eq!(v, 0.0, "i={i}");
            }
        }
    }

    #[test]
    fn scatter_kept_under_and_overrun() {
        let bitmap = vec![0u8; 2]; // nothing dropped
        let mut out = vec![0.0f32; 10];
        assert_eq!(
            scatter_kept(&bitmap, 10, 9, &mut out, |_| 1.0),
            Err(ScatterError::Underrun)
        );
        assert_eq!(
            scatter_kept(&bitmap, 10, 11, &mut out, |_| 1.0),
            Err(ScatterError::Overrun)
        );
        assert_eq!(scatter_kept(&bitmap, 10, 10, &mut out, |_| 1.0), Ok(()));
    }

    #[test]
    fn scratch_pools_plateau() {
        let data: Vec<f32> = (0..10_000).map(|i| (i % 83) as f32 - 41.0).collect();
        let cap_after_first = {
            with_compress_scratch(|s| {
                filter_kernel(
                    Instance::current(),
                    &data,
                    5.0,
                    &mut s.low,
                    &mut s.lanes[0].kept,
                );
            });
            compress_scratch_capacity_bytes()
        };
        assert!(cap_after_first > 0);
        for _ in 0..3 {
            with_compress_scratch(|s| {
                filter_kernel(
                    Instance::current(),
                    &data,
                    5.0,
                    &mut s.low,
                    &mut s.lanes[0].kept,
                );
            });
            assert_eq!(compress_scratch_capacity_bytes(), cap_after_first);
        }
    }

    proptest! {
        /// Split bit-identity: the splitter on every instance emits the
        /// exact streams of the scalar splitter, and the merger recovers the exact codes,
        /// for every width and rotation.
        #[test]
        fn prop_split_unsplit_bit_identical(
            width in 1u32..=32,
            bias in any::<u32>(),
            raw in proptest::collection::vec(any::<u32>(), 0..400),
        ) {
            let mask = code_mask(width);
            let (bias, codes) = (bias & mask, raw.iter().map(|&v| v & mask).collect::<Vec<_>>());
            let scalar = bitpack::split(&codes, width, bias);
            let (mut low, mut planes) = (Vec::new(), Vec::new());
            for inst in instances() {
                split_into(inst, &codes, width, bias, &mut low, &mut planes);
                prop_assert_eq!((&low, &planes), (&scalar.0, &scalar.1));
            }
            let mut out = vec![0u32; codes.len()];
            let unrotate = |stored: u32| stored.wrapping_sub(bias) & mask;
            unsplit_map(&low, &planes, width, &mut out, unrotate).unwrap();
            prop_assert_eq!(&out, &codes);
        }

        /// Filter bit-identity vs. the scalar reference loop, on every
        /// instance.
        #[test]
        fn prop_filter_kernel_bit_identical(
            data in proptest::collection::vec(-10.0f32..10.0, 0..500),
            threshold in 0.0f32..5.0,
        ) {
            // Scalar reference: the loop the compressor tests' oracle runs.
            let mut ref_bitmap = vec![0u8; data.len().div_ceil(8)];
            let mut ref_kept = Vec::new();
            for (i, &v) in data.iter().enumerate() {
                if v.abs() < threshold {
                    ref_bitmap[i / 8] |= 1 << (i % 8);
                } else {
                    ref_kept.push(v);
                }
            }
            for inst in instances() {
                let (mut bitmap, mut kept) = (Vec::new(), Vec::new());
                filter_kernel(inst, &data, threshold, &mut bitmap, &mut kept);
                prop_assert_eq!(&bitmap, &ref_bitmap);
                prop_assert_eq!(bits_of(&kept), bits_of(&ref_kept));
            }
        }

        /// Quantize bit-identity: same codes AND same RNG stream position
        /// as per-element `RoundingMode::round`, for every mode.
        #[test]
        fn prop_quantize_kernel_bit_identical(
            data in proptest::collection::vec(-100.0f32..100.0, 0..400),
            n_bins in 1u32..4000,
            seed in any::<u64>(),
            mode_sel in 0usize..3,
        ) {
            let mode = [
                RoundingMode::Nearest,
                RoundingMode::Stochastic,
                RoundingMode::HalfProbability,
            ][mode_sel];
            let lo = -100.0f32;
            let inv_w = n_bins as f64 / 200.0;
            // Scalar reference.
            let mut rng_ref = Rng::new(seed);
            let ref_codes: Vec<u32> = data
                .iter()
                .map(|&x| {
                    let coord = (x as f64 - lo as f64) * inv_w;
                    mode.round(coord, &mut rng_ref).clamp(0, n_bins as i64) as u32
                })
                .collect();
            let mut rng_fast = Rng::new(seed);
            let mut codes = Vec::new();
            quantize_kernel(&data, lo, inv_w, n_bins, mode, &mut rng_fast, &mut codes);
            prop_assert_eq!(codes, ref_codes);
            // The stream positions must agree too.
            prop_assert_eq!(rng_fast.next_u64(), rng_ref.next_u64());
        }

        /// The SR lanes on every instance this host runs against
        /// `quantize_kernel` per lane: the same codes and the same stream
        /// position after. Each lane has its own header (1 to 2²⁰ bins),
        /// its own stream and its own values, a few of them NaN or ±∞;
        /// the common length is 0, 1, 3, ragged or a full 16 Ki chunk,
        /// and 1 to 13 lanes run (a register of eight, one of four and
        /// scalar lanes left over).
        #[test]
        fn prop_sr_lanes_match_quantize_kernel(
            seed in any::<u64>(),
            shape in 0usize..5,
            n_lanes in 1usize..=13,
        ) {
            let mut r = Rng::new(seed);
            let len = [0, 1, 3, 2 + r.below(4000) as usize, 16 * 1024][shape];
            let lanes: Vec<(Vec<f32>, f32, f64, u32)> = (0..n_lanes)
                .map(|_| {
                    let scale = 1 + r.below(20);
                    let n_bins = 1 + r.below(1 << scale) as u32;
                    let (lo, w) = (r.range_f32(-4.0, 1.0), r.range_f32(1e-4, 0.5));
                    let span = n_bins as f32 * w;
                    let kept = (0..len)
                        .map(|_| match r.below(64) {
                            0 => f32::NAN,
                            1 => f32::INFINITY,
                            2 => f32::NEG_INFINITY,
                            _ => lo - 0.1 * span + 1.2 * span * r.uniform_f32(),
                        })
                        .collect();
                    (kept, lo, 1.0 / w as f64, n_bins)
                })
                .collect();
            let want: Vec<(Vec<u32>, u64)> = (lanes.iter().enumerate())
                .map(|(j, (kept, lo, inv_w, n_bins))| {
                    let mut rng = Rng::new(seed).fork(j as u64);
                    let mut codes = Vec::new();
                    let sr = RoundingMode::Stochastic;
                    quantize_kernel(kept, *lo, *inv_w, *n_bins, sr, &mut rng, &mut codes);
                    (codes, rng.next_u64())
                })
                .collect();
            for inst in instances() {
                let mut rngs: Vec<Rng> =
                    (0..n_lanes as u64).map(|j| Rng::new(seed).fork(j)).collect();
                let mut codes = vec![vec![u32::MAX; len]; n_lanes];
                let mut sr: Vec<SrLane> = (lanes.iter().zip(&mut rngs).zip(&mut codes))
                    .map(|(((kept, lo, inv_w, n_bins), rng), codes)| {
                        SrLane { kept, lo: *lo, inv_w: *inv_w, n_bins: *n_bins, rng, codes }
                    })
                    .collect();
                quantize_sr_lanes(inst, &mut sr);
                for (j, (want_codes, want_next)) in want.iter().enumerate() {
                    prop_assert_eq!(&codes[j], want_codes);
                    prop_assert_eq!(rngs[j].next_u64(), *want_next);
                }
            }
        }

        /// Scatter bit-identity vs. the scalar per-bit scatter loop.
        #[test]
        fn prop_scatter_kept_bit_identical(
            bits in proptest::collection::vec(any::<bool>(), 0..300),
        ) {
            let n = bits.len();
            let mut bitmap = vec![0u8; n.div_ceil(8)];
            for (i, &dropped) in bits.iter().enumerate() {
                if dropped {
                    bitmap[i / 8] |= 1 << (i % 8);
                }
            }
            let kept_vals: Vec<f32> =
                (0..bits.iter().filter(|&&d| !d).count()).map(|k| (k as f32) * 0.5 - 7.0).collect();
            // Scalar reference scatter.
            let mut ref_out = Vec::with_capacity(n);
            let mut next = 0usize;
            for &dropped in &bits {
                if dropped {
                    ref_out.push(0.0f32);
                } else {
                    ref_out.push(kept_vals[next]);
                    next += 1;
                }
            }
            let mut out = vec![0.0f32; n];
            scatter_kept(&bitmap, n, kept_vals.len(), &mut out, |k| kept_vals[k]).unwrap();
            prop_assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ref_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
