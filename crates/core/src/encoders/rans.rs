//! Static range asymmetric numeral system (rANS) coding over bytes.
//!
//! The paper's best-performing encoder (Table 2): "ANS stands out for its
//! higher compression/decompression throughput, attributable to its fewer
//! operations ... and its capability for parallel execution on GPUs via a
//! block processing scheme". This is the standard byte-wise rANS with a
//! 12-bit normalized frequency table: encode walks the input backwards
//! emitting renormalization bytes; decode walks forwards with a 4096-entry
//! slot→symbol table, so the hot loop is one multiply, one table load and
//! an occasional byte read — the "fewer operations" property the paper
//! highlights.

use crate::wire::{Reader, WireError, Writer};

const SCALE_BITS: u32 = 12;
const SCALE: u32 = 1 << SCALE_BITS; // 4096
const RANS_L: u32 = 1 << 23; // lower renormalization bound
const MODE_STORED: u8 = 0;
const MODE_ILEAVE: u8 = 2;

/// Interleaved encoder lane count (symbol `i` belongs to lane
/// `i & (N_LANES - 1)`). Eight states give the out-of-order core eight
/// independent multiply→shift→add chains to overlap; measured on the
/// chunked decompress path, eight lanes beat four by ~10% and the
/// header cost is only 16 more bytes per frame.
const N_LANES: usize = 8;

/// Exact reciprocal for dividing by a frequency `f ∈ 1..=SCALE` when the
/// dividend is below 2³¹ — which renormalization guarantees: the encoder
/// state is kept under `x_max = 2¹⁹·f ≤ 2³¹` before every division.
///
/// Granlund–Montgomery round-up multiply: with `ℓ = ⌈log₂ f⌉` and
/// `m = ⌊2^(31+ℓ)/f⌋ + 1`, the quotient is `(x·m) >> (31+ℓ)` exactly for
/// all `x < 2³¹` (covers power-of-two `f` too, including `f = 1`). This
/// turns the only hardware divide in the hot loop into a multiply+shift
/// while staying bit-exact — pinned exhaustively over every `f` by
/// `recip_exhaustive_over_all_frequencies`.
#[derive(Clone, Copy, Default)]
struct Recip {
    mul: u64,
    shift: u32,
}

/// Per-slot decode entry: `(freq − 1) << 20 | (slot − cum) << 8 | symbol`
/// (`freq − 1` and the offset inside the symbol's range both fit 12
/// bits), so one load resolves a slot to everything the state update
/// needs.
type DecodeTable = [u32; SCALE as usize];

/// The state update of one decoded symbol, before renormalization.
#[inline(always)]
fn advance(x: u32, tab: &DecodeTable) -> (u32, u8) {
    let e = tab[(x & (SCALE - 1)) as usize];
    (
        ((e >> 20) + 1) * (x >> SCALE_BITS) + ((e >> 8) & (SCALE - 1)),
        e as u8,
    )
}

/// Byte-wise renormalization with every read checked: feeds `x` from
/// `stream[*pos..]` until it is back at or above [`RANS_L`].
#[inline(always)]
fn renorm_checked(mut x: u32, stream: &[u8], pos: &mut usize) -> Result<u32, WireError> {
    while x < RANS_L {
        match stream.get(*pos) {
            Some(&b) => {
                x = (x << 8) | b as u32;
                *pos += 1;
            }
            None => {
                return Err(WireError::Truncated {
                    need: *pos + 1,
                    have: stream.len(),
                })
            }
        }
    }
    Ok(x)
}

/// One interleaved-decode step for a single lane with every stream read
/// checked: the path for the last groups of a stream, the tail symbols,
/// and the scalar reference the grouped fast path in [`decode_into`] is
/// pinned against.
#[inline(always)]
fn ileave_step(
    x: &mut u32,
    stream: &[u8],
    pos: &mut usize,
    tab: &DecodeTable,
) -> Result<u8, WireError> {
    let (xx, s) = advance(*x, tab);
    *x = renorm_checked(xx, stream, pos)?;
    Ok(s)
}

impl Recip {
    fn new(f: u32) -> Recip {
        debug_assert!((1..=SCALE).contains(&f));
        let ell = 32 - (f - 1).leading_zeros(); // ceil(log2 f); 0 for f = 1
        Recip {
            mul: ((1u64 << (31 + ell)) / f as u64) + 1,
            shift: 31 + ell,
        }
    }

    #[inline(always)]
    fn div_rem(self, x: u32, f: u32) -> (u32, u32) {
        let q = ((x as u64 * self.mul) >> self.shift) as u32;
        let r = x - q * f;
        debug_assert_eq!((q, r), (x / f, x % f), "reciprocal divide x={x} f={f}");
        (q, r)
    }
}

/// Normalizes raw counts to sum exactly `SCALE`, keeping every present
/// symbol's frequency ≥ 1.
fn normalize_freqs(counts: &[u64; 256]) -> Option<[u32; 256]> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let mut freqs = [0u32; 256];
    let mut assigned: u64 = 0;
    for s in 0..256 {
        if counts[s] == 0 {
            continue;
        }
        let f = ((counts[s] as u128 * SCALE as u128) / total as u128) as u32;
        freqs[s] = f.max(1);
        assigned += freqs[s] as u64;
    }
    // Fix the rounding drift by walking the largest-frequency symbols.
    let mut order: Vec<usize> = (0..256).filter(|&s| freqs[s] > 0).collect();
    order.sort_by_key(|&s| std::cmp::Reverse(freqs[s]));
    let mut drift = assigned as i64 - SCALE as i64;
    let mut i = 0;
    while drift != 0 {
        let s = order[i % order.len()];
        if drift > 0 && freqs[s] > 1 {
            freqs[s] -= 1;
            drift -= 1;
        } else if drift < 0 {
            freqs[s] += 1;
            drift += 1;
        }
        i += 1;
        if i > 256 * SCALE as usize {
            // Cannot happen (SCALE >= #symbols), but never spin forever.
            return None;
        }
    }
    Some(freqs)
}

/// Cumulative table: `cum[s]` = sum of freqs below `s`; `cum[256]` = SCALE.
fn cumulative(freqs: &[u32; 256]) -> [u32; 257] {
    let mut cum = [0u32; 257];
    for s in 0..256 {
        cum[s + 1] = cum[s] + freqs[s];
    }
    cum
}

/// Everything the encoder needs for one symbol, in one table entry.
#[derive(Clone, Copy, Default)]
struct EncSymbol {
    freq: u32,
    cum: u32,
    recip: Recip,
}

/// The renormalization stream under construction, written from the end
/// of `buf` towards its start: the encoder walks its input backwards, so
/// the bytes land in the order the forward-walking decoder replays them.
struct BackwardStream {
    buf: Vec<u8>,
    pos: usize,
}

impl BackwardStream {
    /// Room for the stream of `n` symbols. A state stays below 2³¹ and
    /// `x_max ≥ 2¹⁹`, so a symbol emits at most two bytes: `2·n` always
    /// suffice, and [`BackwardStream::put`]'s unconditional store stays
    /// in bounds.
    fn for_symbols(n: usize) -> Self {
        BackwardStream {
            buf: vec![0u8; 2 * n],
            pos: 2 * n,
        }
    }

    /// Encodes one symbol into state `x`. About half the symbols emit a
    /// first byte, so that is a store plus a conditional step back rather
    /// than a branch; a second byte needs `freq < 16` and stays one.
    #[inline(always)]
    fn put(&mut self, mut x: u32, e: &EncSymbol) -> u32 {
        let x_max = ((RANS_L >> SCALE_BITS) << 8) * e.freq;
        let emit = x >= x_max;
        self.buf[self.pos - 1] = x as u8;
        self.pos -= emit as usize;
        x = if emit { x >> 8 } else { x };
        if x >= x_max {
            self.pos -= 1;
            self.buf[self.pos] = x as u8;
            x >>= 8;
        }
        let (q, r) = e.recip.div_rem(x, e.freq);
        (q << SCALE_BITS) + r + e.cum
    }
}

/// Compresses `input` with [`N_LANES`]-lane interleaved static rANS.
///
/// The symbol stream is split round-robin over [`N_LANES`] independent
/// rANS states sharing one renormalization byte stream — the CPU
/// analogue of the paper's block-parallel ANS: the dependency chains keep
/// the multiplier busy instead of serializing on one state, and the
/// divide is a multiply-by-reciprocal ([`Recip`]). Inputs the frequency
/// table would not pay for are stored verbatim; the mode byte tells
/// [`decode`] which.
pub fn encode(input: &[u8]) -> Vec<u8> {
    match encode_ileave(input) {
        Some(out) if out.len() < input.len() + 9 => out,
        _ => {
            let mut w = Writer::with_capacity(input.len() + 16);
            w.u8(MODE_STORED);
            w.block(input);
            w.into_bytes()
        }
    }
}

/// The interleaved layout of `input`, whatever it costs; `None` for an
/// input with nothing to model.
fn encode_ileave(input: &[u8]) -> Option<Vec<u8>> {
    // Four histograms: neighbouring bytes are often equal, and one table
    // would chain every increment on the store before it.
    let mut hist = [[0u64; 256]; 4];
    let mut quads = input.chunks_exact(4);
    for q in quads.by_ref() {
        hist[0][q[0] as usize] += 1;
        hist[1][q[1] as usize] += 1;
        hist[2][q[2] as usize] += 1;
        hist[3][q[3] as usize] += 1;
    }
    for &b in quads.remainder() {
        hist[0][b as usize] += 1;
    }
    let mut counts = [0u64; 256];
    for (s, c) in counts.iter_mut().enumerate() {
        *c = hist.iter().map(|h| h[s]).sum();
    }
    let freqs = normalize_freqs(&counts)?;
    let cum = cumulative(&freqs);
    let mut syms = [EncSymbol::default(); 256];
    for (s, e) in syms.iter_mut().enumerate() {
        if freqs[s] > 0 {
            *e = EncSymbol {
                freq: freqs[s],
                cum: cum[s],
                recip: Recip::new(freqs[s]),
            };
        }
    }

    // Encode backwards; lane j = i & (N_LANES - 1), all lanes
    // renormalizing into one shared stream. The fixed-trip inner loop
    // unrolls, keeping the states in registers.
    let mut stream = BackwardStream::for_symbols(input.len());
    let mut states = [RANS_L; N_LANES];
    let full = input.len() - input.len() % N_LANES;
    for lane in (0..input.len() - full).rev() {
        states[lane] = stream.put(states[lane], &syms[input[full + lane] as usize]);
    }
    for group in input[..full].chunks_exact(N_LANES).rev() {
        for lane in (0..N_LANES).rev() {
            states[lane] = stream.put(states[lane], &syms[group[lane] as usize]);
        }
    }
    let stream = &stream.buf[stream.pos..];

    let mut w = Writer::with_capacity(stream.len() + 600);
    w.u8(MODE_ILEAVE);
    w.u64(input.len() as u64);
    for &f in &freqs {
        w.u16(f as u16);
    }
    for &x in &states {
        w.u32(x);
    }
    w.block(stream);
    Some(w.into_bytes())
}

/// Inverse of [`encode`]. Mode byte 1 was the single-lane layout; no
/// encoder emits it any more and it is rejected like any unknown mode.
pub fn decode(input: &[u8]) -> Result<Vec<u8>, WireError> {
    let mut r = Reader::new(input);
    match r.u8()? {
        MODE_STORED => Ok(r.block()?.to_vec()),
        MODE_ILEAVE => {
            let n = crate::wire::checked_count(r.u64()?)?;
            let body = Ileave::read(&mut r)?;
            let mut out = vec![0u8; n];
            body.decode(&mut out)?;
            Ok(out)
        }
        _ => Err(WireError::Invalid("rans mode byte")),
    }
}

/// [`decode`] into a caller-owned window: the stream must declare exactly
/// `out.len()` bytes, checked before anything past the length is read or
/// a byte is written — a block frame's decoder hands every block its own
/// share of the output, and no block's header sizes anything.
pub(crate) fn decode_into(input: &[u8], out: &mut [u8]) -> Result<(), WireError> {
    let mut r = Reader::new(input);
    match r.u8()? {
        MODE_STORED => {
            let bytes = r.block()?;
            if bytes.len() != out.len() {
                return Err(WireError::Invalid("block payload length"));
            }
            out.copy_from_slice(bytes);
            Ok(())
        }
        MODE_ILEAVE => {
            if crate::wire::checked_count(r.u64()?)? != out.len() {
                return Err(WireError::Invalid("block payload length"));
            }
            Ileave::read(&mut r)?.decode(out)
        }
        _ => Err(WireError::Invalid("rans mode byte")),
    }
}

/// The interleaved layout past its mode byte and length, parsed and
/// validated: slot table, lane states, renormalization stream.
struct Ileave<'a> {
    tab: DecodeTable,
    states: [u32; N_LANES],
    stream: &'a [u8],
}

impl<'a> Ileave<'a> {
    fn read(r: &mut Reader<'a>) -> Result<Self, WireError> {
        let mut freqs = [0u32; 256];
        for f in freqs.iter_mut() {
            *f = r.u16()? as u32;
        }
        if freqs.iter().map(|&f| f as u64).sum::<u64>() != SCALE as u64 {
            return Err(WireError::Invalid("rans frequency table sum"));
        }
        let cum = cumulative(&freqs);
        let mut tab: DecodeTable = [0u32; SCALE as usize];
        for s in 0..256 {
            for slot in cum[s]..cum[s + 1] {
                tab[slot as usize] = ((freqs[s] - 1) << 20) | ((slot - cum[s]) << 8) | s as u32;
            }
        }
        let mut states = [0u32; N_LANES];
        for x in states.iter_mut() {
            *x = r.u32()?;
        }
        Ok(Ileave {
            tab,
            states,
            stream: r.block()?,
        })
    }

    /// Decodes `out.len()` symbols.
    fn decode(self, out: &mut [u8]) -> Result<(), WireError> {
        let Ileave {
            tab,
            mut states,
            stream,
        } = self;
        let mut pos = 0usize;
        // The fixed 0..N_LANES inner loops unroll, keeping the states in
        // registers. The lanes' arithmetic chains are independent, so the
        // CPU overlaps them; only renormalization serializes on the
        // shared byte stream.
        let mut groups = out.chunks_exact_mut(N_LANES);
        for group in groups.by_ref() {
            // A state an encoder produced needs at most two bytes to get
            // back above `RANS_L`, so with 2·N_LANES bytes in hand the
            // group reads without a per-byte check: the first byte is
            // loaded whether or not it is needed and the cursor steps
            // only if it was (about half the symbols, too even to
            // predict); the second is rare and stays a branch. If any
            // state is still short after its two bytes (a hostile header
            // can start one anywhere) the group is decoded again from
            // where it began on the checked path, as the last groups of
            // the stream are: same bytes read in the same order, so the
            // same output and the same errors.
            if let Some(win) = stream.get(pos..pos + 2 * N_LANES) {
                let before = states;
                // `at ≤ 2·lane`, so the mask never changes an index; it
                // spares the bounds check.
                let mut at = 0usize;
                let mut short = false;
                for lane in 0..N_LANES {
                    let (mut x, s) = advance(states[lane], &tab);
                    group[lane] = s;
                    let feed = x < RANS_L;
                    let fed = (x << 8) | win[at & (2 * N_LANES - 1)] as u32;
                    x = if feed { fed } else { x };
                    at += feed as usize;
                    if x < RANS_L {
                        x = (x << 8) | win[at & (2 * N_LANES - 1)] as u32;
                        at += 1;
                        short |= x < RANS_L;
                    }
                    states[lane] = x;
                }
                if !short {
                    pos += at;
                    continue;
                }
                states = before;
            }
            for lane in 0..N_LANES {
                group[lane] = ileave_step(&mut states[lane], stream, &mut pos, &tab)?;
            }
        }
        for (lane, o) in groups.into_remainder().iter_mut().enumerate() {
            *o = ileave_step(&mut states[lane], stream, &mut pos, &tab)?;
        }
        if states.iter().any(|&x| x != RANS_L) {
            return Err(WireError::Invalid("rans final state"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    // Explicit import: proptest's prelude also globs a `Rng` trait.
    use compso_tensor::rng::Rng;

    /// The single-lane layout (stream mode 1) that the eight-lane coder
    /// replaced: one state, a hardware divide, a slot→symbol table.
    /// Kept whole — encoder and its decoder — as the scalar reference
    /// [`encode`] is compared against; nothing outside this module reads
    /// or writes the layout, and [`decode`] rejects it.
    mod single_lane {
        use super::super::*;

        pub const MODE: u8 = 1;

        /// Always emits the rANS layout (no stored fallback); `input` must
        /// be non-empty.
        pub fn encode(input: &[u8]) -> Vec<u8> {
            let mut counts = [0u64; 256];
            for &b in input {
                counts[b as usize] += 1;
            }
            let freqs = normalize_freqs(&counts).expect("non-empty input");
            let cum = cumulative(&freqs);
            let mut state: u32 = RANS_L;
            let mut stream: Vec<u8> = Vec::new();
            for &b in input.iter().rev() {
                let f = freqs[b as usize];
                let x_max = ((RANS_L >> SCALE_BITS) << 8) * f;
                while state >= x_max {
                    stream.push(state as u8);
                    state >>= 8;
                }
                state = ((state / f) << SCALE_BITS) + (state % f) + cum[b as usize];
            }
            stream.reverse();
            let mut w = Writer::new();
            w.u8(MODE);
            w.u64(input.len() as u64);
            for &f in &freqs {
                w.u16(f as u16);
            }
            w.u32(state);
            w.block(&stream);
            w.into_bytes()
        }

        pub fn decode(input: &[u8]) -> Vec<u8> {
            let mut r = Reader::new(input);
            assert_eq!(r.u8().unwrap(), MODE);
            let n = r.u64().unwrap() as usize;
            let mut freqs = [0u32; 256];
            for f in freqs.iter_mut() {
                *f = r.u16().unwrap() as u32;
            }
            let cum = cumulative(&freqs);
            let mut slot2sym = [0u8; SCALE as usize];
            for s in 0..256 {
                for slot in cum[s]..cum[s + 1] {
                    slot2sym[slot as usize] = s as u8;
                }
            }
            let mut state = r.u32().unwrap();
            let stream = r.block().unwrap();
            let mut pos = 0usize;
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                let slot = state & (SCALE - 1);
                let s = slot2sym[slot as usize];
                state = freqs[s as usize] * (state >> SCALE_BITS) + slot - cum[s as usize];
                while state < RANS_L {
                    state = (state << 8) | stream[pos] as u32;
                    pos += 1;
                }
                out.push(s);
            }
            assert_eq!(state, RANS_L, "oracle final state");
            out
        }
    }

    /// The eight-lane coder as it stood before its loops were rebuilt,
    /// kept as the byte-level reference: an encoder that renormalizes
    /// with a byte-wise `while` into a pushed-then-reversed stream, and a
    /// decoder that takes every symbol through the checked step.
    mod bytewise {
        use super::super::*;

        /// Always the interleaved layout (no stored fallback).
        pub fn encode_ileave(input: &[u8]) -> Option<Vec<u8>> {
            let mut counts = [0u64; 256];
            for &b in input {
                counts[b as usize] += 1;
            }
            let freqs = normalize_freqs(&counts)?;
            let cum = cumulative(&freqs);
            let mut states = [RANS_L; N_LANES];
            let mut stream: Vec<u8> = Vec::new();
            for (i, &b) in input.iter().enumerate().rev() {
                let s = b as usize;
                let f = freqs[s];
                let x_max = ((RANS_L >> SCALE_BITS) << 8) * f;
                let mut x = states[i & (N_LANES - 1)];
                while x >= x_max {
                    stream.push(x as u8);
                    x >>= 8;
                }
                states[i & (N_LANES - 1)] = ((x / f) << SCALE_BITS) + (x % f) + cum[s];
            }
            stream.reverse();
            let mut w = Writer::new();
            w.u8(MODE_ILEAVE);
            w.u64(input.len() as u64);
            for &f in &freqs {
                w.u16(f as u16);
            }
            for &x in &states {
                w.u32(x);
            }
            w.block(&stream);
            Some(w.into_bytes())
        }

        pub fn encode(input: &[u8]) -> Vec<u8> {
            match encode_ileave(input) {
                Some(out) if out.len() < input.len() + 9 => out,
                _ => {
                    let mut w = Writer::new();
                    w.u8(MODE_STORED);
                    w.block(input);
                    w.into_bytes()
                }
            }
        }

        pub fn decode(input: &[u8]) -> Result<Vec<u8>, WireError> {
            let mut r = Reader::new(input);
            match r.u8()? {
                MODE_STORED => Ok(r.block()?.to_vec()),
                MODE_ILEAVE => {
                    let n = crate::wire::checked_count(r.u64()?)?;
                    let Ileave {
                        tab,
                        mut states,
                        stream,
                    } = Ileave::read(&mut r)?;
                    let mut pos = 0usize;
                    let mut out = vec![0u8; n];
                    for (i, o) in out.iter_mut().enumerate() {
                        *o = ileave_step(&mut states[i & (N_LANES - 1)], stream, &mut pos, &tab)?;
                    }
                    if states.iter().any(|&x| x != RANS_L) {
                        return Err(WireError::Invalid("rans final state"));
                    }
                    Ok(out)
                }
                _ => Err(WireError::Invalid("rans mode byte")),
            }
        }
    }

    /// Code bytes as the chunk kernels produce them: 9-bit SR codes of a
    /// K-FAC-shaped layer, bit-packed, so symbols straddle byte
    /// boundaries.
    fn packed_nine_bit_codes(n: usize) -> Vec<u8> {
        let data = crate::synthetic::generate(n, 5, crate::synthetic::GradientProfile::kfac());
        let q = crate::quantize::Quantizer::relative(2e-3, crate::RoundingMode::Stochastic)
            .quantize(&data, &mut Rng::new(6));
        assert_eq!(q.bits(), 9);
        crate::bitpack::pack(&q.codes, 9)
    }

    #[test]
    fn encode_is_byte_identical_to_the_bytewise_loop() {
        let mut rng = Rng::new(0xA115);
        let skewed = |n: usize, rng: &mut Rng| -> Vec<u8> {
            (0..n)
                .map(|_| (64.0 + rng.laplace(3.0)).clamp(0.0, 127.0) as u8)
                .collect()
        };
        let mut inputs: Vec<Vec<u8>> = [0usize, 1, 7, 8, 9, 15, 16, 17, 4096]
            .iter()
            .map(|&n| skewed(n, &mut rng))
            .collect();
        inputs.push(packed_nine_bit_codes(20_000));
        inputs.push(vec![7u8; 5000]); // one symbol: the state never moves
        inputs.push((0..=255u8).cycle().take(4099).collect()); // all 256, freq 16
                                                               // One common symbol among 255 rare ones: freq 1, so second
                                                               // renormalization bytes are emitted.
        inputs.push(
            (0..30_000u32)
                .map(|i| if i % 97 == 0 { (i / 97) as u8 } else { 0 })
                .collect(),
        );
        for input in &inputs {
            let n = input.len();
            assert_eq!(encode(input), bytewise::encode(input), "n={n}");
            let frame = encode_ileave(input);
            assert_eq!(frame, bytewise::encode_ileave(input), "n={n}");
            // The interleaved layout decodes whatever it cost, on both
            // decoders and through the window entry point.
            if let Some(frame) = frame {
                assert_eq!(&decode(&frame).unwrap(), input, "n={n}");
                assert_eq!(&bytewise::decode(&frame).unwrap(), input, "n={n}");
                let mut window = vec![0xAAu8; n];
                decode_into(&frame, &mut window).unwrap();
                assert_eq!(&window, input, "n={n}");
            }
        }
    }

    #[test]
    fn decode_into_refuses_any_length_but_its_window() {
        let data: Vec<u8> = (0..20_000).map(|i| (i % 7) as u8).collect();
        for frame in [encode(&data), encode(&data[..100])] {
            let n = decode(&frame).unwrap().len();
            for len in [0, n - 1, n + 1] {
                assert_eq!(
                    decode_into(&frame, &mut vec![0u8; len]),
                    Err(WireError::Invalid("block payload length")),
                    "mode {} len {len}",
                    frame[0]
                );
            }
        }
    }

    /// The grouped decoder reads ahead and feeds bytes without a branch;
    /// on damaged frames it must still land where the checked per-step
    /// path lands: the same bytes or the same error, for every mutation
    /// and every truncation tried.
    #[test]
    fn decode_agrees_with_the_checked_path_on_damaged_frames() {
        let mut rng = Rng::new(0xDEC0DE);
        let rare: Vec<u8> = (0..3000u32)
            .map(|i| if i % 97 == 0 { (i / 97) as u8 } else { 0 })
            .collect();
        let frames = [
            encode_ileave(&packed_nine_bit_codes(2000)).unwrap(),
            encode_ileave(&rare).unwrap(),
            encode_ileave(&[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]).unwrap(),
        ];
        let state_base = 1 + 8 + 512;
        let same = |bytes: &[u8], what: &str| {
            let want = bytewise::decode(bytes);
            assert_eq!(decode(bytes), want, "{what}");
            if let Ok(want) = want {
                let mut window = vec![0u8; want.len()];
                assert_eq!(decode_into(bytes, &mut window), Ok(()), "{what}");
                assert_eq!(window, want, "{what}");
            }
        };
        for frame in &frames {
            same(frame, "intact");
            for cut in (0..frame.len())
                .step_by(7)
                .chain(frame.len() - 40..frame.len())
            {
                same(&frame[..cut], "truncated");
            }
            for round in 0..1500 {
                let mut bad = frame.clone();
                match round % 3 {
                    // Anywhere: header, frequency table, states, stream.
                    0 => {
                        let i = rng.next_u32() as usize % bad.len();
                        bad[i] ^= 1 << (rng.next_u32() % 8);
                    }
                    // A lane state pushed below the renormalization
                    // bound, so a symbol needs three or four bytes.
                    1 => {
                        let lane = rng.next_u32() as usize % N_LANES;
                        let at = state_base + 4 * lane;
                        let x = rng.next_u32() >> (9 + rng.next_u32() % 23);
                        bad[at..at + 4].copy_from_slice(&x.to_le_bytes());
                    }
                    // A few stream bytes at once.
                    _ => {
                        let stream_base = state_base + 4 * N_LANES + 8;
                        for _ in 0..3 {
                            let span = (bad.len() - stream_base).max(1);
                            let i = stream_base + rng.next_u32() as usize % span;
                            if let Some(b) = bad.get_mut(i) {
                                *b = rng.next_u32() as u8;
                            }
                        }
                    }
                }
                same(&bad, "mutated");
            }
        }
    }

    #[test]
    fn roundtrip_text() {
        let data = b"the quick brown fox jumps over the lazy dog, repeatedly. \
                     the quick brown fox jumps over the lazy dog, repeatedly."
            .to_vec();
        let enc = encode(&data);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn empty_input() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn single_byte() {
        assert_eq!(decode(&encode(&[99])).unwrap(), vec![99]);
    }

    #[test]
    fn single_symbol_stream_compresses_hard() {
        let data = vec![7u8; 100_000];
        let enc = encode(&data);
        assert!(enc.len() < 2000, "len {}", enc.len());
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn compresses_skewed_better_than_uniform() {
        let mut rng = Rng::new(1);
        let skewed: Vec<u8> = (0..40_000)
            .map(|_| {
                if rng.uniform_f64() < 0.85 {
                    0
                } else {
                    rng.next_u32() as u8 % 8
                }
            })
            .collect();
        let uniform: Vec<u8> = (0..40_000).map(|_| rng.next_u32() as u8).collect();
        let es = encode(&skewed);
        let eu = encode(&uniform);
        assert!(
            es.len() * 2 < eu.len(),
            "skewed {} uniform {}",
            es.len(),
            eu.len()
        );
        assert_eq!(decode(&es).unwrap(), skewed);
        assert_eq!(decode(&eu).unwrap(), uniform);
    }

    #[test]
    fn near_entropy_on_known_distribution() {
        // H(p=0.9/0.1 over 2 symbols) ≈ 0.469 bits/symbol.
        let mut rng = Rng::new(2);
        let n = 200_000;
        let data: Vec<u8> = (0..n).map(|_| u8::from(rng.uniform_f64() < 0.1)).collect();
        let enc = encode(&data);
        let bits_per_symbol = enc.len() as f64 * 8.0 / n as f64;
        assert!(bits_per_symbol < 0.55, "bits/sym {bits_per_symbol}");
    }

    #[test]
    fn all_256_symbols() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let enc = encode(&data);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn truncation_detected() {
        let data = vec![3u8; 5000];
        let enc = encode(&data);
        for cut in [0usize, 1, 8, 200, enc.len() - 1] {
            if cut < enc.len() {
                assert!(decode(&enc[..cut]).is_err(), "cut={cut}");
            }
        }
    }

    #[test]
    fn roundtrips_at_lane_boundaries_and_marks_mode() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 4095, 20_000] {
            let data: Vec<u8> = (0..n).map(|i| (i % 7) as u8).collect();
            let enc = encode(&data);
            assert_eq!(
                enc[0],
                if n > 600 { MODE_ILEAVE } else { MODE_STORED },
                "n={n}"
            );
            assert_eq!(decode(&enc).unwrap(), data, "n={n}");
        }
    }

    #[test]
    fn truncation_and_final_state_detected() {
        let data: Vec<u8> = (0..20_000).map(|i| (i % 13) as u8).collect();
        let enc = encode(&data);
        assert_eq!(enc[0], MODE_ILEAVE);
        for cut in [0usize, 1, 8, 200, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut={cut}");
        }
        // Smash one of the initial lane states: the lane cannot land
        // back on RANS_L.
        let mut bad = enc.clone();
        let state_base = 1 + 8 + 512; // mode + len + freq table
        bad[state_base + 2] ^= 0x40;
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn corrupt_freq_table_detected() {
        // Large enough that the 512-byte frequency table amortizes and the
        // stream stays in rans mode.
        let data: Vec<u8> = (0..20_000).map(|i| (i % 7) as u8).collect();
        let mut enc = encode(&data);
        assert_eq!(enc[0], MODE_ILEAVE, "test assumes rans mode");
        // Smash a frequency entry; the sum check must fire.
        enc[10] ^= 0xFF;
        assert_eq!(
            decode(&enc),
            Err(WireError::Invalid("rans frequency table sum"))
        );
    }

    #[test]
    fn recip_exhaustive_over_all_frequencies() {
        // Every frequency the table can produce, against every boundary
        // dividend that renormalization permits (x < 2^19·f ≤ 2^31).
        for f in 1..=SCALE {
            let recip = Recip::new(f);
            let x_max = ((RANS_L >> SCALE_BITS) << 8) * f; // exclusive bound
            let mut probes = vec![0u32, 1, f - 1, f, f + 1, x_max - 1, x_max / 2];
            for k in 1..8u32 {
                probes.push((k * f).saturating_sub(1).min(x_max - 1));
                probes.push((k * f).min(x_max - 1));
            }
            for x in probes {
                let (q, r) = recip.div_rem(x, f);
                assert_eq!((q, r), (x / f, x % f), "f={f} x={x}");
            }
        }
    }

    #[test]
    fn eight_lanes_track_the_single_lane_oracle() {
        // Same frequency model, so the payload entropy is identical and
        // the sizes differ by the seven extra u32 lane states plus at
        // most a few renormalization bytes per lane.
        let mut rng = Rng::new(7);
        let data: Vec<u8> = (0..60_000)
            .map(|_| {
                if rng.uniform_f64() < 0.8 {
                    0
                } else {
                    rng.next_u32() as u8 % 11
                }
            })
            .collect();
        let oracle = single_lane::encode(&data);
        let lanes = encode(&data);
        assert_eq!(single_lane::decode(&oracle), data);
        assert_eq!(decode(&lanes).unwrap(), data);
        let diff = oracle.len().abs_diff(lanes.len());
        assert!(diff <= 64, "oracle {} lanes {}", oracle.len(), lanes.len());
    }

    #[test]
    fn retired_single_lane_layout_is_rejected() {
        let data: Vec<u8> = (0..20_000).map(|i| (i % 7) as u8).collect();
        let retired = single_lane::encode(&data);
        assert_eq!(retired[0], single_lane::MODE);
        assert_eq!(decode(&retired), Err(WireError::Invalid("rans mode byte")));
    }

    #[test]
    fn normalize_keeps_all_present_symbols() {
        let mut counts = [0u64; 256];
        counts[0] = 1_000_000;
        counts[1] = 1; // rare symbol must keep freq >= 1
        counts[2] = 3;
        let freqs = normalize_freqs(&counts).unwrap();
        assert!(freqs[1] >= 1);
        assert!(freqs[2] >= 1);
        assert_eq!(freqs.iter().map(|&f| f as u64).sum::<u64>(), SCALE as u64);
    }

    proptest! {
        /// Any input survives the eight-lane coder, and — whichever mode
        /// it fell back to — to the bytes the single-lane oracle keeps.
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..3000)) {
            let enc = encode(&data);
            prop_assert_eq!(decode(&enc).unwrap(), data.clone());
            if !data.is_empty() {
                prop_assert_eq!(single_lane::decode(&single_lane::encode(&data)), data);
            }
        }

        #[test]
        fn prop_roundtrip_low_entropy(data in proptest::collection::vec(0u8..3, 0..3000)) {
            let enc = encode(&data);
            prop_assert_eq!(decode(&enc).unwrap(), data);
        }
    }
}
