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
//!   byte for byte.
//! * `filter_kernel` builds the drop bitmap 64 decisions to a word,
//!   branchlessly, and copies the survivors out by walking the inverted
//!   word. The bit layout (LSB-first, set ⇔ dropped) matches the scalar
//!   filter.
//! * `quantize_kernel` hoists the per-element rounding-mode dispatch
//!   out of the loop and clamps the bin coordinate before rounding, which
//!   commutes with the scalar path's clamp after it and lets `floor` and
//!   round-to-even be a cast and an add instead of libm calls. Stochastic
//!   rounding is branchless because the scalar path *already* draws one
//!   uniform per element unconditionally; `P0.5` consumes randomness
//!   conditionally (exact grid points draw nothing), so that mode keeps
//!   the scalar rounding call per element.
//! * [`quantize_sr_lanes`] runs four chunks' stochastic rounding side by
//!   side, one chunk and its own stream per 64-bit lane of an AVX2
//!   register. Each chunk already owns its stream, so a lane draws what
//!   the scalar kernel draws, in its order, and does its arithmetic.
//! * `CodeRecord::dequantize_into` reads a chunk of up to
//!   `TABLE_MAX_WIDTH`-bit codes through a per-chunk table
//!   (`DequantTable`) — the decoder's expression evaluated once per code
//!   value, indexed by the code as stored — once the codes outnumber its
//!   entries.
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

/// Splits `width`-bit codes (`1 ..= 32`) into a chunk record's two
/// byte-aligned streams, both cleared first: `low` gets the low byte of
/// every rotated code `(code + bias) mod 2^max(width, 8)`, `planes` the
/// remaining `width − 8` bits packed LSB-first at that width — nothing
/// for codes of up to 8 bits. Byte-identical to [`crate::bitpack::split`].
///
/// One sweep; the byte store and the plane bits both hang off the one
/// load of each code, and without a plane the sweep is a narrowing copy.
/// Eight codes' plane bits are exactly `width − 8` bytes, so up to 16
/// bits the plane is built a group at a time: the eight fields land at
/// fixed offsets of one `u64` — no carried bit count, no flush test —
/// which is stored whole, and the cursor steps by the bytes that were
/// real (the next group overwrites the rest). The groups near the end,
/// whose store would cross it, and every code of a wider stream go
/// through a register window that flushes 32 bits at a time.
///
/// # Panics
/// If `width` is outside `1 ..= 32` or a code does not fit in it, with
/// the scalar oracle's messages.
pub fn split_into(codes: &[u32], width: u32, bias: u32, low: &mut Vec<u8>, planes: &mut Vec<u8>) {
    assert!(
        (1..=32).contains(&width),
        "split width {width} out of range"
    );
    let plane_width = plane_width(width);
    let w = plane_width as usize;
    let mask = code_mask(width);
    low.clear();
    low.resize(codes.len(), 0);
    planes.clear();
    planes.resize((codes.len() * w).div_ceil(8), 0);
    // Bits a code must not carry; OR-accumulated and checked once.
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
    if over != 0 {
        code_too_wide(codes, width);
    }
    let tail = &mut planes[pos..];
    let n = tail.len();
    tail.copy_from_slice(&acc.to_le_bytes()[..n]);
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

/// Inverse of [`split_into`]'s layout through a per-code map: `map` sees
/// code `i` as stored — `low[i]` under its `width − 8` bits of `planes`
/// if it has any, still rotated — so the chunk decoder dequantizes as it
/// merges instead of materializing codes it would only read back, and a
/// caller with a table indexed by the stored code needs no subtract or
/// mask per code. Un-rotated by the caller (`(stored − bias) mod
/// 2^max(width, 8)`), these are the codes of the test-only oracle
/// `bitpack::unsplit`; the refusals are its, in its order.
///
/// `low` must hold exactly one byte per output.
pub(crate) fn unsplit_map<T>(
    low: &[u8],
    planes: &[u8],
    width: u32,
    out: &mut [T],
    mut map: impl FnMut(u32) -> T,
) -> Result<(), WireError> {
    if !(1..=32).contains(&width) {
        return Err(WireError::Invalid("bit width"));
    }
    let count = out.len();
    assert_eq!(low.len(), count, "one low byte per code");
    let plane_width = plane_width(width);
    let w = plane_width as usize;
    if w == 0 {
        // No plane: the low byte is all of the stored code.
        for (o, &l) in out.iter_mut().zip(low) {
            *o = map(l as u32);
        }
        return Ok(());
    }
    let need = (count * w).div_ceil(8);
    if planes.len() < need {
        return Err(WireError::Truncated {
            need,
            have: planes.len(),
        });
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

/// Code widths up to this dequantize through a per-chunk table
/// ([`DequantTable`]) once the chunk has more codes than the table has
/// entries: 4 Ki entries, 16 KiB of `f32`, at 12 bits.
pub(crate) const TABLE_MAX_WIDTH: u32 = 12;

/// Entries of a full-width table.
const TABLE_LEN: usize = 1 << TABLE_MAX_WIDTH;

/// Storage for one chunk's dequantize table, reused chunk after chunk.
#[derive(Debug, Default)]
pub(crate) struct DequantTable {
    entries: Vec<f32>,
}

impl DequantTable {
    /// Fills the table for a chunk of `width`-bit codes (`≤`
    /// [`TABLE_MAX_WIDTH`]) stored rotated by `bias` (0 for codes that
    /// fit a byte): the entry of stored code `s` is the [`dequantize`]d value
    /// of `c = (s − bias) mod 2^width` — the decoder's expression
    /// evaluated once — or NaN where `c > n_bins`. From a finite `lo` and
    /// a finite `bin_width` the expression never gives NaN, so a NaN out
    /// of the table is an out-of-range code and nothing else.
    ///
    /// # Panics
    /// If `width` is 0 or past [`TABLE_MAX_WIDTH`], or `lo` or
    /// `bin_width` is not finite.
    fn fill(
        &mut self,
        lo: f32,
        bin_width: f32,
        n_bins: u32,
        width: u32,
        bias: u32,
    ) -> TableView<'_> {
        assert!(
            (1..=TABLE_MAX_WIDTH).contains(&width),
            "table width {width} out of range"
        );
        assert!(lo.is_finite() && bin_width.is_finite(), "non-finite header");
        let mask = code_mask(width);
        let (lo64, bw64) = (lo as f64, bin_width as f64);
        self.entries.clear();
        self.entries.extend((0..=mask).map(|stored| {
            let code = stored.wrapping_sub(bias) & mask;
            if code > n_bins {
                f32::NAN
            } else {
                dequantize(lo64, bw64, code)
            }
        }));
        self.entries.resize(TABLE_LEN, f32::NAN);
        TableView(self.entries[..].try_into().expect("TABLE_LEN entries"))
    }

    /// The table the chunk decoder reads `count` codes of `width` bits
    /// stored under `bias` through, filled here — or `None` where it
    /// evaluates [`dequantize`] per code: past [`TABLE_MAX_WIDTH`], or
    /// when the codes do not outnumber the entries.
    fn for_codes(
        &mut self,
        lo: f32,
        bin_width: f32,
        n_bins: u32,
        width: u32,
        bias: u32,
        count: usize,
    ) -> Option<TableView<'_>> {
        (width <= TABLE_MAX_WIDTH && count > 1 << width)
            .then(|| self.fill(lo, bin_width, n_bins, width, bias))
    }
}

/// The values the chunk decoder gives `codes` — a chunk's codes as the
/// quantizer emitted them, none past `n_bins` and at least one bin —
/// under the record header `lo`, `bin_width`, `n_bins`, into `out` (one
/// per code): through the decoder's table where it would read one, else
/// through [`dequantize`]. The table is filled unrotated, so its entry of
/// a code is the one the decoder reads for that code's stored form.
pub(crate) fn dequantize_codes(
    codes: &[u32],
    lo: f32,
    bin_width: f32,
    n_bins: u32,
    table: &mut DequantTable,
    out: &mut [f32],
) {
    let width = crate::bitpack::bits_for(n_bins);
    if let Some(table) = table.for_codes(lo, bin_width, n_bins, width, 0, codes.len()) {
        for (o, &c) in out.iter_mut().zip(codes) {
            *o = table.get(c);
        }
    } else {
        let (lo64, bw64) = (lo as f64, bin_width as f64);
        for (o, &c) in out.iter_mut().zip(codes) {
            *o = dequantize(lo64, bw64, c);
        }
    }
}

/// A filled [`DequantTable`].
#[derive(Clone, Copy)]
pub(crate) struct TableView<'a>(&'a [f32; TABLE_LEN]);

impl TableView<'_> {
    /// The value of stored code `stored` (below `2^width`); NaN if its
    /// code is out of range.
    #[inline(always)]
    fn get(self, stored: u32) -> f32 {
        self.0[stored as usize & (TABLE_LEN - 1)]
    }
}

/// A chunk record's codes, with the header fields that turn them into
/// values, as the chunk decoder has checked them: `bits` is the width of
/// `n_bins` and at least 1, `low` holds one low byte per code and
/// `planes` their bits past 8, if they have any ([`unsplit_map`]).
pub(crate) struct CodeRecord<'a> {
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

    /// This record's table of `count` codes, filled in `storage`, when
    /// the codes outnumber its entries and the width has one.
    pub(crate) fn table<'t>(
        &self,
        count: usize,
        storage: &'t mut DequantTable,
    ) -> Option<TableView<'t>> {
        let (lo, bin_width, n_bins) = (self.lo, self.bin_width, self.n_bins);
        storage.for_codes(lo, bin_width, n_bins, self.bits, self.bias(), count)
    }

    /// Every code, as stored, into `out` (one per code) through `map`.
    fn each_code<T>(&self, out: &mut [T], map: impl FnMut(u32) -> T) -> Result<(), WireError> {
        unsplit_map(self.low, self.planes, self.bits, out, map)
    }

    /// Every code dequantized into `out` (one per code), through `table`
    /// when there is one and through [`dequantize`] otherwise — the same
    /// value either way. The unpacker's refusals come first, then "code
    /// out of range" if some code exceeds `n_bins`.
    pub(crate) fn dequantize_into(
        &self,
        out: &mut [f32],
        table: Option<TableView>,
    ) -> Result<(), WireError> {
        let in_range = if let Some(table) = table {
            self.each_code(out, |stored| table.get(stored))?;
            // A separate pass: it vectorizes, where a test per code would
            // cost the loop as much as the table saves.
            !out.iter().fold(false, |nan, v| nan | v.is_nan())
        } else {
            let (bias, mask) = (self.bias(), stored_mask(self.bits));
            let (lo64, bw64) = (self.lo as f64, self.bin_width as f64);
            let mut max_code = 0u32;
            self.each_code(out, |stored| {
                let code = stored.wrapping_sub(bias) & mask;
                max_code = max_code.max(code);
                dequantize(lo64, bw64, code)
            })?;
            max_code <= self.n_bins
        };
        if in_range {
            Ok(())
        } else {
            Err(WireError::Invalid("quantized code out of range"))
        }
    }
}

/// The filter sweep as a branchless microkernel: builds the LSB-first
/// drop bitmap (`bit set ⇔ |v| < threshold`) into `bitmap` and compacts
/// surviving values into `kept`, both cleared first. Byte-identical to
/// a scalar loop that sets one bit per dropped value and pushes each
/// survivor (the compressor tests' oracle).
pub(crate) fn filter_kernel(
    data: &[f32],
    threshold: f32,
    bitmap: &mut Vec<u8>,
    kept: &mut Vec<f32>,
) {
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

/// Streams [`quantize_sr_lanes`] runs side by side: the four 64-bit
/// lanes of a 256-bit register.
pub const SR_LANES: usize = 4;

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

/// Stochastic rounding of four streams at once, each lane exactly as
/// [`SrLane::quantize`] would run it alone: same codes, same stream
/// position after. `inst` picks the body: AVX2 runs the four lanes of
/// one register, the portable instance one lane after another.
///
/// # Panics
/// If the lanes differ in length, a lane's `codes` is not as long as its
/// `kept`, or `inst` is not available on this host.
pub fn quantize_sr_lanes(inst: Instance, lanes: &mut [SrLane<'_>; SR_LANES]) {
    let steps = lanes[0].kept.len();
    assert!(
        lanes
            .iter()
            .all(|l| l.kept.len() == steps && l.codes.len() == steps),
        "SR lanes run in lockstep over equal lengths"
    );
    assert!(inst.available(), "{inst:?} not available on this host");
    match inst {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the assertion above saw the CPU report AVX2, the one
        // feature `sr_lanes_avx2` is built with.
        Instance::Avx2 => unsafe { sr_lanes_avx2(lanes, steps) },
        _ => lanes.iter_mut().for_each(SrLane::quantize),
    }
}

/// The AVX2 body of [`quantize_sr_lanes`]: lane `j` of every register
/// is `lanes[j]` — its xoshiro256++ state, its `lo`, `1/w` and `n_bins`
/// — and one iteration is one [`SrLane::quantize`] step in each. The
/// uniform is `(next_u64 >> 11) · 2⁻⁵³` converted exactly in two halves,
/// the coordinate is clamped by `maxpd`/`minpd` (the scalar selects'
/// semantics, NaN included), truncated by `roundpd`, and the code leaves
/// as the low mantissa bits of `floor + 2⁵² + (u < p)`. The uniform and
/// the code are exact on both paths, and the coordinate is the scalar
/// code's IEEE operations in its order; no FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sr_lanes_avx2(lanes: &mut [SrLane<'_>; SR_LANES], steps: usize) {
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

    /// Per-thread buffers of the chunk decoder.
    static CHUNK_DECODE: std::cell::RefCell<ChunkDecodeScratch> =
        std::cell::RefCell::new(ChunkDecodeScratch::default());
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

/// The chunk decoder's per-thread buffers.
#[derive(Debug, Default)]
pub(crate) struct ChunkDecodeScratch {
    /// A filtered chunk's kept values, dequantized ahead of the scatter.
    pub kept: Vec<f32>,
    /// The chunk's dequantize table.
    pub table: DequantTable,
}

/// Runs `f` with this thread's chunk-decode buffers.
pub(crate) fn with_chunk_decode<R>(f: impl FnOnce(&mut ChunkDecodeScratch) -> R) -> R {
    let mut s = CHUNK_DECODE.with(|p| std::mem::take(&mut *p.borrow_mut()));
    let r = f(&mut s);
    CHUNK_DECODE.with(|p| *p.borrow_mut() = s);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitpack;
    use proptest::prelude::*;
    // Explicit import: proptest's prelude also globs a `Rng` trait.
    use compso_tensor::rng::Rng;

    /// The splitter against [`bitpack::split`] and the merger against
    /// the codes and [`bitpack::unsplit`], at every width × every short
    /// length × every class of rotation — the ones [`split_bias`] derives
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
                        split_into(&codes, width, bias, &mut low, &mut planes);
                        assert_eq!(
                            (&low, &planes),
                            (&want.0, &want.1),
                            "width={width} bias={bias} len={len}"
                        );
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
    /// scalar splitter's does.
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
        for width in [0, 33] {
            let out_of_range = message(move || drop(bitpack::split(&[1], width, 0)));
            assert_eq!(
                message(move || split_into(&[1], width, 0, &mut Vec::new(), &mut Vec::new())),
                out_of_range
            );
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

    /// The instances of [`quantize_sr_lanes`] this host runs.
    fn instances() -> impl Iterator<Item = Instance> {
        Instance::ALL.into_iter().filter(|inst| inst.available())
    }

    /// A table and the expression it tabulates decode every width a
    /// table serves to the same bits — values that overflow to +∞ and
    /// subnormal steps included — and refuse a code past `n_bins` with
    /// the same error, under the rotations four headers give a chunk.
    #[test]
    fn dequant_table_matches_the_expression_at_every_width() {
        let mut rng = Rng::new(0x7AB1E);
        let mut storage = DequantTable::default();
        for bits in 1..=TABLE_MAX_WIDTH {
            let mask = code_mask(bits);
            let count = (1usize << bits) + 37;
            for n_bins in [mask / 2 + 1, mask - mask / 4, mask] {
                let headers = [
                    (-1.0f32, 2.0 / n_bins as f32),
                    (0.0, f32::from_bits(1)),
                    (3.5, 0.25),
                    (3e38, 1e38), // every code past 0 overflows to +∞
                ];
                for (lo, bin_width) in headers {
                    for hostile in [false, true] {
                        let mut codes: Vec<u32> =
                            (0..count).map(|_| rng.next_u32() % (n_bins + 1)).collect();
                        if hostile {
                            if n_bins == mask {
                                continue; // no code can exceed it
                            }
                            let at = rng.below(count as u64) as usize;
                            codes[at] = n_bins + 1 + rng.next_u32() % (mask - n_bins);
                        }
                        let (mut low, mut planes) = (Vec::new(), Vec::new());
                        let bias = crate::bitpack::split_bias(lo, bin_width, n_bins);
                        split_into(&codes, bits, bias, &mut low, &mut planes);
                        let record = CodeRecord {
                            low: &low,
                            planes: &planes,
                            bits,
                            lo,
                            bin_width,
                            n_bins,
                        };
                        let what = format!("bits={bits} n_bins={n_bins} lo={lo} hostile={hostile}");
                        let mut by_expression = vec![0.0f32; count];
                        let want = record.dequantize_into(&mut by_expression, None);
                        let table = record.table(count, &mut storage);
                        assert!(table.is_some(), "{what}");
                        let mut by_table = vec![0.0f32; count];
                        assert_eq!(record.dequantize_into(&mut by_table, table), want, "{what}");
                        if hostile {
                            let refused = Err(WireError::Invalid("quantized code out of range"));
                            assert_eq!(want, refused, "{what}");
                        } else {
                            let bits_of =
                                |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits_of(&by_table), bits_of(&by_expression), "{what}");
                        }
                    }
                }
            }
        }
        // A low byte with a bit set past a narrower code's width holds a
        // code past `n_bins`, through the table and the expression alike.
        for bits in 1..8 {
            let count = (1usize << bits) + 37;
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
            let refused = Err(WireError::Invalid("quantized code out of range"));
            let mut out = vec![0.0f32; count];
            assert_eq!(
                record.dequantize_into(&mut out, None),
                refused,
                "bits={bits}"
            );
            let table = record.table(count, &mut storage);
            assert!(table.is_some(), "bits={bits}");
            assert_eq!(
                record.dequantize_into(&mut out, table),
                refused,
                "bits={bits}"
            );
        }
        // No table where the entries outnumber the codes, or past 12 bits.
        let record = CodeRecord {
            low: &[0; 64],
            planes: &[0; 64],
            bits: 9,
            lo: 0.0,
            bin_width: 1.0,
            n_bins: 500,
        };
        assert!(record.table(512, &mut storage).is_none());
        let wide = CodeRecord { bits: 13, ..record };
        assert!(wide.table(1 << 20, &mut storage).is_none());
    }

    /// Handed a table, `dequantize_into` returns its entries, looked up by
    /// stored code, and evaluates nothing: a doctored table's values, far
    /// outside the header's range, come back at every width a table serves.
    #[test]
    fn dequantize_into_reads_the_table_it_is_handed() {
        let doctored: [f32; TABLE_LEN] = std::array::from_fn(|s| 1e6 + s as f32);
        let mut rng = Rng::new(0xD0C);
        for bits in 1..=TABLE_MAX_WIDTH {
            let mask = code_mask(bits);
            let (lo, bin_width, n_bins) = (-1.0f32, 2.0 / mask as f32, mask);
            let count = (1usize << bits) + 37;
            let codes: Vec<u32> = (0..count).map(|_| rng.next_u32() & mask).collect();
            let (mut low, mut planes) = (Vec::new(), Vec::new());
            let bias = crate::bitpack::split_bias(lo, bin_width, n_bins);
            split_into(&codes, bits, bias, &mut low, &mut planes);
            let record = CodeRecord {
                low: &low,
                planes: &planes,
                bits,
                lo,
                bin_width,
                n_bins,
            };
            let mut out = vec![0.0f32; count];
            record
                .dequantize_into(&mut out, Some(TableView(&doctored)))
                .unwrap();
            let want: Vec<f32> = codes
                .iter()
                .map(|&c| doctored[(c.wrapping_add(bias) & mask) as usize])
                .collect();
            assert_eq!(out, want, "bits={bits}");
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
                filter_kernel(&data, 5.0, &mut s.low, &mut s.lanes[0].kept);
            });
            compress_scratch_capacity_bytes()
        };
        assert!(cap_after_first > 0);
        for _ in 0..3 {
            with_compress_scratch(|s| {
                filter_kernel(&data, 5.0, &mut s.low, &mut s.lanes[0].kept);
            });
            assert_eq!(compress_scratch_capacity_bytes(), cap_after_first);
        }
    }

    proptest! {
        /// Split bit-identity: the splitter emits the exact streams of
        /// the scalar splitter, and the merger recovers the exact codes,
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
            split_into(&codes, width, bias, &mut low, &mut planes);
            prop_assert_eq!((&low, &planes), (&scalar.0, &scalar.1));
            let mut out = vec![0u32; codes.len()];
            let unrotate = |stored: u32| stored.wrapping_sub(bias) & mask;
            unsplit_map(&low, &planes, width, &mut out, unrotate).unwrap();
            prop_assert_eq!(&out, &codes);
        }

        /// Filter bit-identity vs. the scalar reference loop.
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
        /// the common length is 0, 1, 3, ragged or a full 16 Ki chunk.
        #[test]
        fn prop_sr_lanes_match_quantize_kernel(
            seed in any::<u64>(),
            shape in 0usize..5,
        ) {
            let mut r = Rng::new(seed);
            let len = [0, 1, 3, 2 + r.below(4000) as usize, 16 * 1024][shape];
            let lanes: Vec<(Vec<f32>, f32, f64, u32)> = (0..SR_LANES)
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
                    (0..SR_LANES as u64).map(|j| Rng::new(seed).fork(j)).collect();
                let mut codes = vec![vec![u32::MAX; len]; SR_LANES];
                let mut parts = lanes.iter().zip(&mut rngs).zip(&mut codes);
                let mut sr = std::array::from_fn(|_| {
                    let (((kept, lo, inv_w, n_bins), rng), codes) = parts.next().unwrap();
                    SrLane { kept, lo: *lo, inv_w: *inv_w, n_bins: *n_bins, rng, codes }
                });
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
