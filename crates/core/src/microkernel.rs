//! Blocked, allocation-free microkernels for the chunked hot path.
//!
//! The scalar helpers in [`crate::bitpack`], [`crate::kernels`] and
//! [`crate::quantize`] are the reference implementations; this module
//! holds the u64-lane rewrites the fused kernel path runs in production
//! (DESIGN.md §12). Every kernel here is pinned **bit-identical** to its
//! scalar oracle by the equivalence proptests below, and at the wire
//! level by `fused_and_staged_produce_identical_bytes`: the staged
//! ablation path still runs the scalar helpers, so any divergence in a
//! microkernel shows up as a byte diff there.
//!
//! What makes bit-identity possible (and cheap to maintain):
//!
//! * [`pack_into`] accumulates codes in a `u64` register and flushes 32
//!   bits at a time; [`unpack_into`] reads each code through one
//!   unaligned u64 load. A code is ≤ 32 bits and the pending bits (or
//!   the in-byte shift) stay below 32 (7), so every window fits u64
//!   exactly; the emitted bytes are the same LSB-first layout as the
//!   scalar packer, not merely an equivalent one.
//! * [`split_into`] / [`unsplit_map`] are what a chunk of codes wider
//!   than a byte runs instead: the entropy coder is byte-wise, so such a
//!   code travels as its low byte plus `width − 8` high bits packed into
//!   a separate plane stream, rotated first so the code of 0.0 sits
//!   mid-byte. Eight codes' plane bits are whole bytes, so up to 16 bits
//!   the plane moves a `u64` per group of eight; the layout is
//!   [`crate::bitpack::split`]'s, byte for byte.
//! * [`filter_kernel`] builds the drop bitmap 64 decisions to a word,
//!   branchlessly, and copies the survivors out by walking the inverted
//!   word. The bit layout (LSB-first, set ⇔ dropped) matches the scalar
//!   filter.
//! * [`quantize_kernel`] hoists the per-element rounding-mode dispatch
//!   out of the loop and clamps the bin coordinate before rounding, which
//!   commutes with the scalar path's clamp after it and lets `floor` and
//!   round-to-even be a cast and an add instead of libm calls. Stochastic
//!   rounding is branchless because the scalar path *already* draws one
//!   uniform per element unconditionally; `P0.5` consumes randomness
//!   conditionally (exact grid points draw nothing), so that mode keeps
//!   the scalar rounding call per element.
//! * [`scatter_kept`] walks the keep-mask as u64 words with
//!   `trailing_zeros`, so decode scatter cost scales with the *kept*
//!   count, not the chunk length — the dropped majority is covered by a
//!   single pre-zeroed output buffer.
//! * [`CompressScratch`] extends the PR-3 thread-local decode scratch to
//!   the compress side: kept values, quantized codes, packed bytes and
//!   plane bytes live in per-thread arenas that are cleared, never shrunk.

use crate::bitpack::{code_mask, SPLIT_MIN_WIDTH};
use crate::rounding::RoundingMode;
use crate::wire::WireError;
use compso_tensor::rng::Rng;

/// 2⁵²: the `f64` magnitude at which the unit in the last place is 1.
const TWO_POW_52: f64 = (1u64 << 52) as f64;

/// Packs `width`-bit codes LSB-first into `out` (cleared first), emitting
/// byte-identical output to [`crate::bitpack::pack`].
///
/// The bit window lives in a `u64` register: a code is OR-ed in above the
/// `bits < 32` pending bits (a code is ≤ 32 bits, so the window never
/// overflows) and the low 32 bits are flushed whenever that many are
/// ready. Nothing is read back from `out`, so consecutive codes do not
/// wait on each other's stores.
///
/// # Panics
/// If `width` is 0 or > 32, or any code does not fit in `width` bits —
/// the same contract and message as the scalar packer (the first
/// offending code is named; `out` is unspecified after the panic).
pub fn pack_into(codes: &[u32], width: u32, out: &mut Vec<u8>) {
    assert!((1..=32).contains(&width), "width {width} out of range");
    let n_bytes = (codes.len() * width as usize).div_ceil(8);
    out.clear();
    out.resize(n_bytes, 0);
    // Bits a code must not carry; OR-accumulated and checked once.
    let too_wide = if width == 32 { 0 } else { u32::MAX << width };
    let mut over = 0u32;
    let mut acc = 0u64;
    let mut bits = 0u32;
    let mut pos = 0usize;
    for &code in codes {
        over |= code & too_wide;
        acc |= (code as u64) << bits;
        bits += width;
        if bits >= 32 {
            out[pos..pos + 4].copy_from_slice(&(acc as u32).to_le_bytes());
            pos += 4;
            acc >>= 32;
            bits -= 32;
        }
    }
    if over != 0 {
        code_too_wide(codes, too_wide, width);
    }
    // Fewer than 32 bits are left: the last `⌈bits / 8⌉ ≤ 4` bytes.
    let tail = &mut out[pos..];
    let n = tail.len();
    tail.copy_from_slice(&acc.to_le_bytes()[..n]);
}

/// The packers' deferred "does not fit" panic: names the first code with
/// a bit in `too_wide`, in the scalar packer's words.
#[cold]
fn code_too_wide(codes: &[u32], too_wide: u32, width: u32) -> ! {
    let code = codes.iter().find(|&&c| c & too_wide != 0);
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

/// Splits `width`-bit codes (`9 ..= 32`) into the two byte-aligned
/// streams of a wide chunk, both cleared first: `low` gets the low byte
/// of every rotated code `(code + bias) mod 2^width`, `planes` the
/// remaining `width − 8` bits packed LSB-first at that width.
/// Byte-identical to [`crate::bitpack::split`].
///
/// One sweep; the byte store and the plane bits both hang off the one
/// load of each code. Eight codes' plane bits are exactly `width − 8`
/// bytes, so up to 16 bits the plane is built a group at a time: the
/// eight fields land at fixed offsets of one `u64` — no carried bit
/// count, no flush test — which is stored whole, and the cursor steps by
/// the bytes that were real (the next group overwrites the rest). The
/// groups near the end, whose store would cross it, and every code of a
/// wider stream go through [`pack_into`]'s register window instead.
///
/// # Panics
/// If `width` is outside `9 ..= 32` or a code does not fit in it, with
/// the scalar oracle's messages.
pub fn split_into(codes: &[u32], width: u32, bias: u32, low: &mut Vec<u8>, planes: &mut Vec<u8>) {
    assert!(
        (SPLIT_MIN_WIDTH..=32).contains(&width),
        "split width {width} out of range"
    );
    let plane_width = width - 8;
    let w = plane_width as usize;
    let mask = code_mask(width);
    low.clear();
    low.resize(codes.len(), 0);
    planes.clear();
    planes.resize((codes.len() * w).div_ceil(8), 0);
    // Bits a code must not carry; OR-accumulated and checked once.
    let mut over = 0u32;
    let mut pos = 0usize;
    let grouped = 8 * windowed_groups(planes.len(), w, codes.len() / 8);
    let (group_codes, codes_left) = codes.split_at(grouped);
    let (group_low, low_left) = low.split_at_mut(grouped);
    for (c8, l8) in group_codes
        .chunks_exact(8)
        .zip(group_low.chunks_exact_mut(8))
    {
        let mut acc = 0u64;
        let mut shift = 0usize;
        for (&code, byte) in c8.iter().zip(l8) {
            over |= code & !mask;
            let rotated = code.wrapping_add(bias) & mask;
            *byte = rotated as u8;
            acc |= ((rotated >> 8) as u64) << shift;
            shift += w;
        }
        planes[pos..pos + 8].copy_from_slice(&acc.to_le_bytes());
        pos += w;
    }
    // A group boundary is a byte boundary, so the window starts empty.
    let mut acc = 0u64;
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
    if over != 0 {
        code_too_wide(codes, !mask, width);
    }
    let tail = &mut planes[pos..];
    let n = tail.len();
    tail.copy_from_slice(&acc.to_le_bytes()[..n]);
}

/// Unpacks `count` codes of `width` bits into `out` (cleared first),
/// returning the largest code seen so callers can range-check without a
/// second pass. Matches [`crate::bitpack::unpack`] bit for bit, including
/// its error cases.
pub fn unpack_into(
    bytes: &[u8],
    width: u32,
    count: usize,
    out: &mut Vec<u32>,
) -> Result<u32, WireError> {
    check_packed(bytes, width, count)?;
    out.clear();
    out.resize(count, 0);
    Ok(unpack_each(bytes, width, out, |code| code))
}

/// [`unpack_into`] through a per-code map, straight into a caller-sized
/// slice (`out.len()` codes): the chunk decoder dequantizes as it unpacks
/// instead of materializing codes it would only read back. Same checks,
/// same errors, same returned maximum (of the codes, not of `map`).
pub(crate) fn unpack_map<T>(
    bytes: &[u8],
    width: u32,
    out: &mut [T],
    map: impl Fn(u32) -> T,
) -> Result<u32, WireError> {
    check_packed(bytes, width, out.len())?;
    Ok(unpack_each(bytes, width, out, map))
}

/// The scalar unpacker's two refusals, in its order.
fn check_packed(bytes: &[u8], width: u32, count: usize) -> Result<(), WireError> {
    if !(1..=32).contains(&width) {
        return Err(WireError::Invalid("bit width"));
    }
    let need = (count * width as usize).div_ceil(8);
    if bytes.len() < need {
        return Err(WireError::Truncated {
            need,
            have: bytes.len(),
        });
    }
    Ok(())
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

/// The unpack loop behind [`unpack_into`] and [`unpack_map`]; the caller
/// has run [`check_packed`].
fn unpack_each<T>(bytes: &[u8], width: u32, out: &mut [T], map: impl Fn(u32) -> T) -> u32 {
    let w = width as usize;
    let mask = code_mask(width);
    let fast = windowed_codes(bytes.len(), w, out.len());
    let (head, tail) = out.split_at_mut(fast);
    let mut maxc = 0u32;
    let mut bitpos = 0usize;
    for o in head {
        let v = window_code(bytes, bitpos, mask);
        maxc = maxc.max(v);
        *o = map(v);
        bitpos += w;
    }
    for o in tail {
        let v = tail_code(bytes, &mut bitpos, width);
        maxc = maxc.max(v);
        *o = map(v);
    }
    maxc
}

/// Inverse of [`split_into`] through a per-code map, like [`unpack_map`]:
/// code `i` is `low[i]` under its `width − 8` bits of `planes`, rotated
/// back by `bias`, and `out[i] = map(code)` — a wide chunk dequantizes as
/// it merges. Returns the largest *un-rotated* code, which is what the
/// caller's range check is about. Same codes as
/// [`crate::bitpack::unsplit`], same refusals in the same order.
///
/// `low` must hold exactly one byte per output.
pub(crate) fn unsplit_map<T>(
    low: &[u8],
    planes: &[u8],
    width: u32,
    bias: u32,
    out: &mut [T],
    map: impl Fn(u32) -> T,
) -> Result<u32, WireError> {
    if !(SPLIT_MIN_WIDTH..=32).contains(&width) {
        return Err(WireError::Invalid("bit width"));
    }
    let count = out.len();
    assert_eq!(low.len(), count, "one low byte per code");
    let plane_width = width - 8;
    check_packed(planes, plane_width, count)?;
    let w = plane_width as usize;
    let mask = code_mask(width);
    let plane_mask = code_mask(plane_width);
    let merge = |high: u32, low: u8| (high << 8 | low as u32).wrapping_sub(bias) & mask;
    let mut maxc = 0u32;
    // Up to 16 bits, eight codes' plane bits are one `u64` load (a group
    // is `width − 8` whole bytes) shifted down a field per code; the
    // groups whose load would cross the end, and every code of a wider
    // stream, take a window per code like [`unpack_map`]'s.
    let grouped = 8 * windowed_groups(planes.len(), w, count / 8);
    let (group_out, out) = out.split_at_mut(grouped);
    let (group_low, low) = low.split_at(grouped);
    let mut pos = 0usize;
    for (o8, l8) in group_out.chunks_exact_mut(8).zip(group_low.chunks_exact(8)) {
        let mut window = u64::from_le_bytes(planes[pos..pos + 8].try_into().unwrap());
        for (o, &l) in o8.iter_mut().zip(l8) {
            let code = merge(window as u32 & plane_mask, l);
            window >>= w;
            maxc = maxc.max(code);
            *o = map(code);
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
        let code = merge(window_code(planes, bitpos, plane_mask), l);
        maxc = maxc.max(code);
        *o = map(code);
        bitpos += w;
    }
    for (o, &l) in tail.iter_mut().zip(low_tail) {
        let code = merge(tail_code(planes, &mut bitpos, plane_width), l);
        maxc = maxc.max(code);
        *o = map(code);
    }
    Ok(maxc)
}

/// The filter sweep as a branchless microkernel: builds the LSB-first
/// drop bitmap (`bit set ⇔ |v| < threshold`) into `bitmap` and compacts
/// surviving values into `kept`, both cleared first. Byte-identical to
/// the scalar filter loop in `kernels::filter_chunk`.
pub fn filter_kernel(data: &[f32], threshold: f32, bitmap: &mut Vec<u8>, kept: &mut Vec<f32>) {
    bitmap.clear();
    bitmap.reserve(data.len().div_ceil(8));
    kept.clear();
    kept.reserve(data.len());
    // 64 values at a time: the comparisons build one bitmap word with no
    // branch per element, and the survivors are then picked off the
    // inverted word, so the copy costs per kept value — the filter's
    // point is that those are the minority — and `kept` is never
    // zero-filled.
    for chunk in data.chunks(64) {
        let mut word = 0u64;
        for (j, &v) in chunk.iter().enumerate() {
            word |= ((v.abs() < threshold) as u64) << j;
        }
        bitmap.extend_from_slice(&word.to_le_bytes()[..chunk.len().div_ceil(8)]);
        let mut keep = !word & (u64::MAX >> (64 - chunk.len()));
        while keep != 0 {
            kept.push(chunk[keep.trailing_zeros() as usize]);
            keep &= keep - 1;
        }
    }
}

/// The quantize sweep with the rounding-mode dispatch hoisted out of the
/// inner loop. Consumes the RNG stream exactly like per-element
/// `RoundingMode::round` calls would, and emits identical codes.
///
/// `lo`, `inv_w` and `n_bins` must be derived exactly as
/// `Quantizer::quantize_with_range` derives them; the caller owns that
/// arithmetic so the two paths cannot drift.
pub fn quantize_kernel(
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
    // The bin coordinate, clamped to `[0, n_bins]` ahead of rounding.
    // Both ends are integers and rounding is monotone, so this commutes
    // with the scalar path's clamp of the rounded index: a coordinate
    // below 0 — or NaN, which fails `> 0.0` — ends at code 0 there too,
    // one at or above `n_bins` at `n_bins`. Written as compare-selects so
    // each is one `maxsd`/`minsd`; what the clamp buys is a coordinate
    // that fits a `u32`, which takes `floor` and `round_ties_even` out of
    // libm (neither is an instruction on baseline x86-64).
    let coord_of = |x: f32| {
        let coord = (x as f64 - lo64) * inv_w;
        let coord = if coord > 0.0 { coord } else { 0.0 };
        if coord < cap64 {
            coord
        } else {
            cap64
        }
    };
    match mode {
        RoundingMode::Nearest => {
            for (c, &x) in codes.iter_mut().zip(kept) {
                // Adding 2⁵² leaves no fraction bits, so the add itself
                // rounds to nearest, ties to even, and the integer is the
                // low mantissa bits.
                *c = (coord_of(x) + TWO_POW_52).to_bits() as u32;
            }
        }
        RoundingMode::Stochastic => {
            // The scalar path draws one uniform per element no matter
            // which way it rounds, so the branchless form below keeps the
            // RNG stream position and every rounding decision identical.
            for (c, &x) in codes.iter_mut().zip(kept) {
                let coord = coord_of(x);
                // Truncation is `floor` for a non-negative coordinate; a
                // clamped one has fraction 0 and never rounds up.
                let floor = coord as u32;
                let p = coord - floor as f64;
                *c = floor + (rng.uniform_f64() < p) as u32;
            }
        }
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

/// Why [`scatter_kept`] stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScatterError {
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
pub fn scatter_kept(
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
/// the fused kernel's kept values, quantized codes, packed bytes and plane
/// bytes are materialized here instead of fresh `Vec`s per chunk. Buffers are
/// cleared between chunks, never shrunk.
#[derive(Debug, Default)]
pub struct CompressScratch {
    /// Surviving values after the filter sweep.
    pub kept: Vec<f32>,
    /// Quantized bin indices for the kept values.
    pub codes: Vec<u32>,
    /// The record's code bytes — bit-packed, or one low byte per code
    /// for a wide chunk — staged before the chunk record is written.
    pub packed: Vec<u8>,
    /// A wide chunk's high-bit plane bytes, staged likewise.
    pub planes: Vec<u8>,
}

impl CompressScratch {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently reserved across all arena buffers (observability
    /// for the reuse-invariant tests).
    pub fn capacity_bytes(&self) -> usize {
        self.kept.capacity() * 4
            + self.codes.capacity() * 4
            + self.packed.capacity()
            + self.planes.capacity()
    }
}

thread_local! {
    /// Per-thread [`CompressScratch`] pool backing the fused compress
    /// kernel. Moved out (not borrowed) for the duration of a chunk so
    /// rayon work-stealing that re-enters compression on the same OS
    /// thread finds a fresh empty arena instead of a held borrow.
    static COMPRESS_SCRATCH: std::cell::RefCell<CompressScratch> =
        std::cell::RefCell::new(CompressScratch::new());

    /// Per-thread code buffer for the chunk decoder's unpack stage.
    static DECODE_CODES: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's compress arena.
pub fn with_compress_scratch<R>(f: impl FnOnce(&mut CompressScratch) -> R) -> R {
    let mut s = COMPRESS_SCRATCH.with(|p| std::mem::take(&mut *p.borrow_mut()));
    let r = f(&mut s);
    COMPRESS_SCRATCH.with(|p| *p.borrow_mut() = s);
    r
}

/// Bytes currently reserved by this thread's compress arena.
pub fn compress_scratch_capacity_bytes() -> usize {
    COMPRESS_SCRATCH.with(|p| p.borrow().capacity_bytes())
}

/// Runs `f` with this thread's decode code buffer.
pub fn with_decode_codes<R>(f: impl FnOnce(&mut Vec<u32>) -> R) -> R {
    let mut s = DECODE_CODES.with(|p| std::mem::take(&mut *p.borrow_mut()));
    let r = f(&mut s);
    DECODE_CODES.with(|p| *p.borrow_mut() = s);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitpack;
    use proptest::prelude::*;
    // Explicit import: proptest's prelude also globs a `Rng` trait.
    use compso_tensor::rng::Rng;

    #[test]
    fn pack_into_matches_scalar_on_awkward_widths() {
        for width in [1u32, 3, 7, 8, 9, 13, 17, 31, 32] {
            let mask = if width == 32 {
                u32::MAX
            } else {
                (1u32 << width) - 1
            };
            let codes: Vec<u32> = (0..257u32)
                .map(|i| i.wrapping_mul(2654435761) & mask)
                .collect();
            let mut fast = Vec::new();
            pack_into(&codes, width, &mut fast);
            assert_eq!(fast, bitpack::pack(&codes, width), "width={width}");
        }
    }

    #[test]
    fn unpack_into_matches_scalar_and_reports_max() {
        let codes = vec![5u32, 0, 99, 100, 127, 1];
        let packed = bitpack::pack(&codes, 7);
        let mut out = Vec::new();
        let maxc = unpack_into(&packed, 7, codes.len(), &mut out).unwrap();
        assert_eq!(out, codes);
        assert_eq!(maxc, 127);
    }

    #[test]
    fn unpack_into_error_cases_match_scalar() {
        let packed = bitpack::pack(&[5u32; 16], 5);
        let mut out = Vec::new();
        assert_eq!(
            unpack_into(&packed[..packed.len() - 1], 5, 16, &mut out),
            Err(WireError::Truncated { need: 10, have: 9 })
        );
        assert_eq!(
            unpack_into(&[0u8; 8], 0, 1, &mut out),
            Err(WireError::Invalid("bit width"))
        );
        assert_eq!(
            unpack_into(&[0u8; 8], 33, 1, &mut out),
            Err(WireError::Invalid("bit width"))
        );
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn pack_into_oversized_code_panics_like_scalar() {
        pack_into(&[8u32], 3, &mut Vec::new());
    }

    /// Every width × every short length, random and all-ones codes: the
    /// register-window packer against the scalar packer, and both unpack
    /// entry points against the codes (the flush, the ≤ 4-byte tail and
    /// the u64-window/scalar-tail split all move with `len · width`).
    #[test]
    fn pack_and_unpack_match_scalar_at_every_width_and_short_length() {
        let mut rng = Rng::new(0xB17);
        let (mut packed, mut codes_back) = (Vec::new(), vec![7u32; 3]);
        for width in 1u32..=32 {
            let mask = u32::MAX >> (32 - width);
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
                    let want = bitpack::pack(&codes, width);
                    pack_into(&codes, width, &mut packed);
                    assert_eq!(packed, want, "width={width} len={len}");
                    let maxc = codes.iter().copied().max().unwrap_or(0);
                    assert_eq!(
                        unpack_into(&want, width, len, &mut codes_back),
                        Ok(maxc),
                        "width={width} len={len}"
                    );
                    assert_eq!(codes_back, codes, "width={width} len={len}");
                    let mut mapped = vec![0u64; len];
                    assert_eq!(
                        unpack_map(&want, width, &mut mapped, |c| c as u64 + 1),
                        Ok(maxc)
                    );
                    assert!(mapped.iter().zip(&codes).all(|(&m, &c)| m == c as u64 + 1));
                }
            }
        }
        let short = bitpack::pack(&[5u32; 16], 5);
        assert_eq!(
            unpack_map(&short[..9], 5, &mut [0u32; 16], |c| c),
            Err(WireError::Truncated { need: 10, have: 9 })
        );
        assert_eq!(
            unpack_map(&short, 33, &mut [0u32; 1], |c| c),
            Err(WireError::Invalid("bit width"))
        );
    }

    /// [`pack_and_unpack_match_scalar_at_every_width_and_short_length`]'s
    /// twin for the byte/plane split: every wide width × every short
    /// length × every class of rotation — the ones [`split_bias`] derives
    /// (`lo = 0`, a subnormal bin width, the code of 0.0 clamped at 0 and
    /// at `n_bins`, mid-range) and the extremes of the mask — on random
    /// and all-ones codes. The splitter against [`bitpack::split`], the
    /// merger against the codes and [`bitpack::unsplit`], and the returned
    /// maximum against the *un-rotated* codes.
    #[test]
    fn split_and_unsplit_match_scalar_at_every_width_and_short_length() {
        use crate::bitpack::split_bias;
        let mut rng = Rng::new(0x5B17);
        let (mut low, mut planes) = (vec![1u8; 5], vec![2u8; 3]);
        let tiny = f32::from_bits(1);
        for width in 9u32..=32 {
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
            assert_eq!(biases[0], 128);
            assert_eq!(biases[1], 128);
            assert_eq!(biases[2], 128u32.wrapping_sub(n_bins) & mask);
            assert_eq!(biases[4], 128 - 77);
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
                        split_into(&codes, width, bias, &mut low, &mut planes);
                        assert_eq!(
                            (&low, &planes),
                            (&want.0, &want.1),
                            "width={width} bias={bias} len={len}"
                        );
                        assert_eq!(planes.len(), (len * (width as usize - 8)).div_ceil(8));
                        let maxc = codes.iter().copied().max().unwrap_or(0);
                        let mut mapped = vec![0u64; len];
                        assert_eq!(
                            unsplit_map(&low, &planes, width, bias, &mut mapped, |c| c as u64 + 1),
                            Ok(maxc),
                            "width={width} bias={bias} len={len}"
                        );
                        assert!(
                            mapped.iter().zip(&codes).all(|(&m, &c)| m == c as u64 + 1),
                            "width={width} bias={bias} len={len}"
                        );
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
            unsplit_map(&low, &planes[..9], 13, 7, &mut [0u32; 16], |c| c),
            Err(WireError::Truncated { need: 10, have: 9 })
        );
        assert_eq!(
            bitpack::unsplit(&low, &planes[..9], 13, 7),
            Err(WireError::Truncated { need: 10, have: 9 })
        );
        for width in [0, 8, 33] {
            assert_eq!(
                unsplit_map(&low, &planes, width, 7, &mut [0u32; 16], |c| c),
                Err(WireError::Invalid("bit width"))
            );
        }
    }

    /// The "does not fit" check is accumulated and raised once, after the
    /// loop; the message must still name the first offender, as the
    /// scalar packer's does.
    #[test]
    fn pack_into_names_the_first_oversized_code_like_scalar() {
        fn message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
            let payload = std::panic::catch_unwind(f).expect_err("must panic");
            payload.downcast_ref::<String>().expect("formatted").clone()
        }
        for (codes, width) in [
            (vec![1u32, 7, 9, 3, 200], 3u32),
            (vec![8], 3),
            (vec![0, 1 << 31], 31),
            (vec![u32::MAX; 40], 9),
        ] {
            let want = {
                let codes = codes.clone();
                message(move || drop(bitpack::pack(&codes, width)))
            };
            assert!(want.contains("does not fit"), "{want}");
            assert_eq!(
                message(move || pack_into(&codes, width, &mut Vec::new())),
                want
            );
        }
        for (codes, width) in [
            (vec![1u32, 511, 512, 3, 9000], 9u32),
            (vec![0, 1 << 31], 31),
        ] {
            let want = {
                let codes = codes.clone();
                message(move || drop(bitpack::split(&codes, width, 128)))
            };
            assert!(want.contains("does not fit"), "{want}");
            let (mut low, mut planes) = (Vec::new(), Vec::new());
            assert_eq!(
                message(move || split_into(&codes, width, 128, &mut low, &mut planes)),
                want
            );
        }
        let out_of_range = message(|| drop(bitpack::split(&[1], 8, 0)));
        assert_eq!(
            message(|| split_into(&[1], 8, 0, &mut Vec::new(), &mut Vec::new())),
            out_of_range
        );
    }

    /// The values the happy path never sees, against the retained scalar
    /// quantizer: same codes and same RNG position for NaN, ±∞,
    /// subnormals, both range ends, values outside the range, every exact
    /// grid point, every bin midpoint (RN's tie) and a neighbour of each —
    /// the cases that decide whether clamping the coordinate first and
    /// rounding without libm is the same function.
    #[test]
    fn quantize_kernel_matches_scalar_quantizer_on_edge_values() {
        use crate::quantize::Quantizer;
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
                    let want = Quantizer::absolute(w, mode).quantize_with_range(
                        &data,
                        lo,
                        hi,
                        &mut rng_ref,
                    );
                    assert_eq!(want.n_bins, n_bins);
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
                filter_kernel(&data, 5.0, &mut s.packed, &mut s.kept);
            });
            compress_scratch_capacity_bytes()
        };
        assert!(cap_after_first > 0);
        for _ in 0..3 {
            with_compress_scratch(|s| {
                filter_kernel(&data, 5.0, &mut s.packed, &mut s.kept);
            });
            assert_eq!(compress_scratch_capacity_bytes(), cap_after_first);
        }
    }

    proptest! {
        /// Bitpack bit-identity: the u64-window packer emits the exact
        /// bytes of the scalar packer, and the window unpacker recovers
        /// the exact codes, for every width.
        #[test]
        fn prop_pack_unpack_bit_identical(
            width in 1u32..=32,
            raw in proptest::collection::vec(any::<u32>(), 0..400),
        ) {
            let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
            let codes: Vec<u32> = raw.iter().map(|&v| v & mask).collect();
            let scalar = bitpack::pack(&codes, width);
            let mut fast = Vec::new();
            pack_into(&codes, width, &mut fast);
            prop_assert_eq!(&fast, &scalar);
            let mut out = Vec::new();
            let maxc = unpack_into(&scalar, width, codes.len(), &mut out).unwrap();
            prop_assert_eq!(&out, &bitpack::unpack(&scalar, width, codes.len()).unwrap());
            prop_assert_eq!(&out, &codes);
            prop_assert_eq!(maxc, codes.iter().copied().max().unwrap_or(0));
        }

        /// Filter bit-identity vs. the scalar reference loop.
        #[test]
        fn prop_filter_kernel_bit_identical(
            data in proptest::collection::vec(-10.0f32..10.0, 0..500),
            threshold in 0.0f32..5.0,
        ) {
            // Scalar reference: the loop `kernels::filter_chunk` runs.
            let mut ref_bitmap = vec![0u8; data.len().div_ceil(8)];
            let mut ref_kept = Vec::new();
            for (i, &v) in data.iter().enumerate() {
                if v.abs() < threshold {
                    ref_bitmap[i / 8] |= 1 << (i % 8);
                } else {
                    ref_kept.push(v);
                }
            }
            let (mut bitmap, mut kept) = (Vec::new(), Vec::new());
            filter_kernel(&data, threshold, &mut bitmap, &mut kept);
            prop_assert_eq!(bitmap, ref_bitmap);
            prop_assert_eq!(
                kept.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ref_kept.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }

        /// Quantize bit-identity: same codes AND same RNG stream position
        /// as per-element `RoundingMode::round`, for every mode.
        #[test]
        fn prop_quantize_kernel_bit_identical(
            data in proptest::collection::vec(-100.0f32..100.0, 0..400),
            n_bins in 1u32..4000,
            seed in any::<u64>(),
            mode_sel in 0u8..3,
        ) {
            let mode = RoundingMode::from_tag(mode_sel).unwrap();
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
