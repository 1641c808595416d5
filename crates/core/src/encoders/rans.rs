//! Static range asymmetric numeral system (rANS) coding over bytes.
//!
//! The paper's best-performing encoder (Table 2): "ANS stands out for its
//! higher compression/decompression throughput, attributable to its fewer
//! operations ... and its capability for parallel execution on GPUs via a
//! block processing scheme". This is static rANS with a 12-bit normalized
//! frequency table in one layout (stream mode 3) shaped for SIMD, after
//! htscodecs' rANS32x16: [`LANES`] coder states, symbol `i` owned by lane
//! `i mod 32`, every state kept in `[2¹⁵, 2³¹)` and renormalized by exactly
//! one conditional 16-bit word per symbol on both sides, all lanes sharing
//! one word stream. Decode is one table load, one multiply and one
//! word-or-not per symbol — the "fewer operations" property the paper
//! highlights — and eight lanes fit one AVX2 register.
//!
//! The coder has two instances behind [`Instance`], read by the caller and
//! passed in: `Portable`, a branch-free scalar loop and the oracle, and
//! `Avx2`, which holds the 32 states in four registers. Both emit and
//! accept exactly the same bytes, and fail with the same [`WireError`].

#[cfg(target_arch = "x86_64")]
use crate::microkernel::{lanes8, set8};
use crate::wire::{Reader, WireError, Writer};
use compso_tensor::Instance;
use std::hint::select_unpredictable;

const SCALE_BITS: u32 = 12;
const SCALE: u32 = 1 << SCALE_BITS; // 4096
const RANS_L: u32 = 1 << 15; // lower renormalization bound
const MODE_STORED: u8 = 0;
const MODE_LANES: u8 = 3;

/// Interleaved lane count: symbol `i` belongs to lane `i % LANES`. Four
/// AVX2 registers of eight 32-bit states.
const LANES: usize = 32;
/// Lanes per AVX2 register.
const REG: usize = 8;
/// Bytes of the presence map that opens the model: bit `s % 8` of byte
/// `s / 8` is set when symbol `s` has a frequency.
const MAP_BYTES: usize = 32;

/// Encoder entry of a symbol: `freq | cum << 13 | ℓ << 25`, with
/// `freq ∈ 1..=4096` (13 bits), `cum < 4096` (12 bits) and
/// `ℓ = ⌈log₂ freq⌉ ≤ 12` — the reciprocal divide's shift is `31 + ℓ`.
const FREQ_BITS: u32 = 13;
const CUM_SHIFT: u32 = FREQ_BITS;
const ELL_SHIFT: u32 = CUM_SHIFT + SCALE_BITS;

/// Exact reciprocal of a frequency `f ∈ 1..=SCALE` for dividends below
/// 2³¹ — which renormalization guarantees: the encoder state is kept
/// under `x_max = 2¹⁹·f ≤ 2³¹` before every division.
///
/// Granlund–Montgomery round-up multiply: with `ℓ = ⌈log₂ f⌉` and
/// `m = ⌊2^(31+ℓ)/f⌋ + 1`, the quotient is `(x·m) >> (31+ℓ)` exactly for
/// all `x < 2³¹` (power-of-two `f` too, including `f = 1`), and `m < 2³²`
/// because `f > 2^(ℓ−1)`. Returns `(m, ℓ)`; pinned exhaustively over
/// every `f` by `recip_exhaustive_over_all_frequencies`.
fn recip(f: u32) -> (u32, u32) {
    debug_assert!((1..=SCALE).contains(&f));
    let ell = 32 - (f - 1).leading_zeros(); // ceil(log2 f); 0 for f = 1
    let mul = (1u64 << (31 + ell)) / f as u64 + 1;
    (
        u32::try_from(mul).expect("m < 2^32 for every f ≤ 4096"),
        ell,
    )
}

/// `⌊x / f⌋` through the reciprocal of `f` (`x < 2³¹`).
#[inline(always)]
fn div_by(x: u32, mul: u32, ell: u32) -> u32 {
    ((x as u64 * mul as u64) >> (31 + ell)) as u32
}

/// Per-slot decode entry: `(freq − 1) << 20 | (slot − cum) << 8 | symbol`
/// (`freq − 1` and the offset inside the symbol's range both fit 12
/// bits), so one load resolves a slot to everything the state update
/// needs.
type DecodeTable = [u32; SCALE as usize];

/// The state update of one decoded symbol, before renormalization. No
/// state a frame can carry overflows it: `freq·(x >> 12) + offset ≤
/// 4096·(2²⁰ − 1) + 4095 < 2³²`.
#[inline(always)]
fn advance(x: u32, tab: &DecodeTable) -> (u32, u8) {
    let e = tab[(x & (SCALE - 1)) as usize];
    (
        ((e >> 20) + 1) * (x >> SCALE_BITS) + ((e >> 8) & (SCALE - 1)),
        e as u8,
    )
}

/// One decoded symbol with its stream read checked: the path of the
/// groups the fast loops leave (fewer than `2·LANES` stream bytes in
/// hand) and of the `n mod 32` tail, shared by both instances.
#[inline(always)]
fn step_checked(
    x: &mut u32,
    stream: &[u8],
    pos: &mut usize,
    tab: &DecodeTable,
) -> Result<u8, WireError> {
    let (mut xx, s) = advance(*x, tab);
    if xx < RANS_L {
        let Some(&[lo, hi]) = stream.get(*pos..*pos + 2) else {
            return Err(WireError::Truncated {
                need: *pos + 2,
                have: stream.len(),
            });
        };
        xx = (xx << 16) | u16::from_le_bytes([lo, hi]) as u32;
        *pos += 2;
    }
    *x = xx;
    Ok(s)
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

/// The encoder's two per-symbol tables, one load each per symbol on both
/// instances: the packed `freq | cum << 13 | ℓ << 25` entry and the
/// reciprocal of `freq`.
struct EncModel {
    packed: [u32; 256],
    recip: [u32; 256],
}

impl EncModel {
    fn new(freqs: &[u32; 256]) -> Self {
        let cum = cumulative(freqs);
        let mut model = EncModel {
            packed: [0; 256],
            recip: [0; 256],
        };
        for s in (0..256).filter(|&s| freqs[s] > 0) {
            let (mul, ell) = recip(freqs[s]);
            model.packed[s] = freqs[s] | cum[s] << CUM_SHIFT | ell << ELL_SHIFT;
            model.recip[s] = mul;
        }
        model
    }

    /// Encodes symbol `sym` into state `x`: the state's low word is
    /// stored at word `*pos − 1` whether or not it is emitted, and the
    /// cursor steps back only if it was (a `cmov`, not a branch). A state
    /// below 2³¹ needs at most that one word to drop under
    /// `x_max = 2¹⁹·freq ≥ 2¹⁹`.
    #[inline(always)]
    fn put(&self, x: u32, sym: u8, buf: &mut [u8], pos: &mut usize) -> u32 {
        let pk = self.packed[sym as usize];
        let f = pk & ((1 << FREQ_BITS) - 1);
        let emit = x >= f << 19;
        let at = 2 * (*pos - 1);
        buf[at..at + 2].copy_from_slice(&(x as u16).to_le_bytes());
        *pos -= emit as usize;
        let x = select_unpredictable(emit, x >> 16, x);
        let q = div_by(x, self.recip[sym as usize], pk >> ELL_SHIFT);
        // (q << 12) + (x − q·f) + cum, with no intermediate past x'.
        x + q * (SCALE - f) + ((pk >> CUM_SHIFT) & (SCALE - 1))
    }
}

/// Compresses `input` with [`LANES`]-lane interleaved static rANS on
/// instance `inst`; every instance emits the same bytes.
///
/// The symbol stream is split round-robin over [`LANES`] independent
/// rANS states sharing one renormalization word stream — the CPU
/// analogue of the paper's block-parallel ANS — and the divide is a
/// multiply by reciprocal ([`recip`]). Inputs the model would not pay
/// for are stored verbatim; the mode byte tells [`decode`] which.
///
/// # Panics
/// If `inst` is not available on this host.
pub fn encode(inst: Instance, input: &[u8]) -> Vec<u8> {
    match encode_lanes(inst, input) {
        Some(out) if out.len() < input.len() + 9 => out,
        _ => {
            let mut w = Writer::with_capacity(input.len() + 16);
            w.u8(MODE_STORED);
            w.block(input);
            w.into_bytes()
        }
    }
}

/// The lane layout of `input`, whatever it costs; `None` for an input
/// with nothing to model.
fn encode_lanes(inst: Instance, input: &[u8]) -> Option<Vec<u8>> {
    assert!(inst.available(), "{inst:?} not available on this host");
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
    let model = EncModel::new(&freqs);

    // Encode backwards: the `n mod 32` tail first, lane by lane, then the
    // whole groups on the instance. The word stream is written from the
    // end of `buf` towards its start (word cursor `pos`), so the words
    // land in the order the forward-walking decoder reads them: one word
    // per symbol at most, plus `REG` words of headroom below the first
    // for the AVX2 encoder's unconditional eight-word store.
    let mut pos = input.len() + REG;
    let mut buf = vec![0u8; 2 * pos];
    let mut states = [RANS_L; LANES];
    let full = input.len() - input.len() % LANES;
    for lane in (0..input.len() - full).rev() {
        states[lane] = model.put(states[lane], input[full + lane], &mut buf, &mut pos);
    }
    let groups = &input[..full];
    match inst {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the assertion above saw the CPU report AVX2, the one
        // feature `encode_groups_avx2` is built with.
        Instance::Avx2 | Instance::Avx512 => unsafe {
            encode_groups_avx2(&model, groups, &mut states, &mut buf, &mut pos)
        },
        #[cfg(not(target_arch = "x86_64"))]
        Instance::Avx2 | Instance::Avx512 => unreachable!("no wide instance off x86-64"),
        Instance::Portable => {
            for group in groups.chunks_exact(LANES).rev() {
                for lane in (0..LANES).rev() {
                    states[lane] = model.put(states[lane], group[lane], &mut buf, &mut pos);
                }
            }
        }
    }
    let stream = &buf[2 * pos..];

    let mut w = Writer::with_capacity(stream.len() + MAP_BYTES + 512 + 4 * LANES);
    w.u8(MODE_LANES);
    w.u64(input.len() as u64);
    let mut map = [0u8; MAP_BYTES];
    for s in (0..256).filter(|&s| freqs[s] > 0) {
        map[s / 8] |= 1 << (s % 8);
    }
    w.bytes(&map);
    for &f in freqs.iter().filter(|&&f| f > 0) {
        if f < 0x80 {
            w.u8(f as u8);
        } else {
            w.u8(0x80 | (f & 0x7f) as u8);
            w.u8((f >> 7) as u8);
        }
    }
    for &x in &states {
        w.u32(x);
    }
    w.block(stream);
    Some(w.into_bytes())
}

/// Inverse of [`encode`], on instance `inst`. Mode byte 1 was the
/// single-lane layout and mode 2 the eight-lane byte-wise one; no
/// encoder emits them any more and they are rejected like any unknown
/// mode.
///
/// # Panics
/// If `inst` is not available on this host.
pub fn decode(inst: Instance, input: &[u8]) -> Result<Vec<u8>, WireError> {
    let mut r = Reader::new(input);
    match r.u8()? {
        MODE_STORED => Ok(r.block()?.to_vec()),
        MODE_LANES => {
            let n = crate::wire::checked_count(r.u64()?)?;
            let body = Lanes::read(&mut r)?;
            let mut out = vec![0u8; n];
            body.decode(inst, &mut out)?;
            Ok(out)
        }
        _ => Err(WireError::Invalid("rans mode byte")),
    }
}

/// [`decode`] into a caller-owned window: the stream must declare exactly
/// `out.len()` bytes, checked before anything past the length is read or
/// a byte is written — a block frame's decoder hands every block its own
/// share of the output, and no block's header sizes anything.
pub(crate) fn decode_into(inst: Instance, input: &[u8], out: &mut [u8]) -> Result<(), WireError> {
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
        MODE_LANES => {
            if crate::wire::checked_count(r.u64()?)? != out.len() {
                return Err(WireError::Invalid("block payload length"));
            }
            Lanes::read(&mut r)?.decode(inst, out)
        }
        _ => Err(WireError::Invalid("rans mode byte")),
    }
}

/// The lane layout past its mode byte and length, parsed and validated:
/// slot table, lane states, word stream.
struct Lanes<'a> {
    tab: DecodeTable,
    states: [u32; LANES],
    stream: &'a [u8],
}

impl<'a> Lanes<'a> {
    fn read(r: &mut Reader<'a>) -> Result<Self, WireError> {
        let map = r.bytes(MAP_BYTES)?;
        let mut freqs = [0u32; 256];
        for (s, f) in freqs.iter_mut().enumerate() {
            if map[s / 8] >> (s % 8) & 1 == 0 {
                continue;
            }
            let b = r.u8()? as u32;
            *f = if b & 0x80 == 0 {
                b
            } else {
                (b & 0x7f) | (r.u8()? as u32) << 7
            };
            if *f == 0 || *f > SCALE {
                return Err(WireError::Invalid("rans symbol frequency"));
            }
        }
        if freqs.iter().sum::<u32>() != SCALE {
            return Err(WireError::Invalid("rans frequency table sum"));
        }
        let cum = cumulative(&freqs);
        let mut tab: DecodeTable = [0u32; SCALE as usize];
        for s in 0..256 {
            for slot in cum[s]..cum[s + 1] {
                tab[slot as usize] = ((freqs[s] - 1) << 20) | ((slot - cum[s]) << 8) | s as u32;
            }
        }
        let mut states = [0u32; LANES];
        for x in states.iter_mut() {
            *x = r.u32()?;
        }
        let stream = r.block()?;
        if stream.len() % 2 != 0 {
            return Err(WireError::Invalid("rans word stream length"));
        }
        Ok(Lanes {
            tab,
            states,
            stream,
        })
    }

    /// Decodes `out.len()` symbols on instance `inst`. Each instance runs
    /// whole groups while `2·LANES` stream bytes — the most a group can
    /// read — are in hand, then the rest goes through [`step_checked`]:
    /// the switch happens at the same group on both, so both read the
    /// same words and return the same bytes or the same error.
    fn decode(self, inst: Instance, out: &mut [u8]) -> Result<(), WireError> {
        assert!(inst.available(), "{inst:?} not available on this host");
        let Lanes {
            tab,
            mut states,
            stream,
        } = self;
        let mut pos = 0usize;
        let done = match inst {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the assertion above saw the CPU report AVX2, the one
            // feature `decode_groups_avx2` is built with.
            Instance::Avx2 | Instance::Avx512 => unsafe {
                decode_groups_avx2(&tab, &mut states, stream, &mut pos, out)
            },
            #[cfg(not(target_arch = "x86_64"))]
            Instance::Avx2 | Instance::Avx512 => unreachable!("no wide instance off x86-64"),
            Instance::Portable => decode_groups(&tab, &mut states, stream, &mut pos, out),
        };
        for (i, o) in out[done..].iter_mut().enumerate() {
            *o = step_checked(&mut states[i % LANES], stream, &mut pos, &tab)?;
        }
        if states.iter().any(|&x| x != RANS_L) {
            return Err(WireError::Invalid("rans final state"));
        }
        Ok(())
    }
}

/// The portable group loop of [`Lanes::decode`]: with the group's
/// `2·LANES` bytes in hand, every lane loads the word at its cursor
/// whether or not it needs it and steps the cursor only if it did (about
/// a third of the symbols, too evenly to predict — a branch there ran
/// the loop ≈ 2× slower). Returns the symbols decoded, a multiple of
/// [`LANES`].
fn decode_groups(
    tab: &DecodeTable,
    states: &mut [u32; LANES],
    stream: &[u8],
    pos: &mut usize,
    out: &mut [u8],
) -> usize {
    let mut done = 0;
    for group in out.chunks_exact_mut(LANES) {
        let Some(win) = stream[*pos..].first_chunk::<{ 2 * LANES }>() else {
            break;
        };
        // `at ≤ 2·lane`, so the masks never change an index; they spare
        // the bounds checks.
        let mut at = 0usize;
        for (x, o) in states.iter_mut().zip(group) {
            let (xx, s) = advance(*x, tab);
            *o = s;
            let w = u16::from_le_bytes([win[at & 62], win[(at & 62) + 1]]) as u32;
            let need = xx < RANS_L;
            *x = select_unpredictable(need, (xx << 16) | w, xx);
            at += 2 * need as usize;
        }
        *pos += at;
        done += LANES;
    }
    done
}

/// `POPCOUNT[m]`: the lanes mask `m` marks. The AVX2 bodies are built
/// for AVX2 alone, so `count_ones` there is not one instruction.
const POPCOUNT: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut m = 0;
    while m < 256 {
        t[m] = (m as u32).count_ones() as u8;
        m += 1;
    }
    t
};

/// `DEC_LUT[m]`: the byte shuffle that hands an eight-lane register its
/// words when mask `m` marks the lanes that take one. The eight words at
/// the cursor sit in both 128-bit halves; lane `j` takes the `k`-th, `k`
/// the number of takers below `j`, into its low 16 bits, and every other
/// byte is zeroed (control byte `0x80`).
const DEC_LUT: [[i64; 4]; 256] = {
    let mut lut = [[0i64; 4]; 256];
    let mut m = 0;
    while m < 256 {
        let mut ctl = [0x80u8; 4 * REG];
        let mut k = 0;
        let mut j = 0;
        while j < REG {
            if m >> j & 1 == 1 {
                ctl[4 * j] = 2 * k;
                ctl[4 * j + 1] = 2 * k + 1;
                k += 1;
            }
            j += 1;
        }
        let mut q = 0;
        while q < 4 {
            let mut b = 0;
            while b < 8 {
                lut[m][q] |= (ctl[8 * q + b] as i64) << (8 * b);
                b += 1;
            }
            q += 1;
        }
        m += 1;
    }
    lut
};

/// `ENC_LUT[m]`, byte `p`: the lane whose word goes to position `p` of an
/// eight-word store when mask `m` marks the emitting lanes — the `k`-th
/// emitter, lowest lane first, at position `8 − count + k`, so the words
/// end at the cursor in lane order. Positions below are don't-cares.
const ENC_LUT: [u64; 256] = {
    let mut lut = [0u64; 256];
    let mut m = 0;
    while m < 256 {
        let mut p = REG - (m as u32).count_ones() as usize;
        let mut j = 0;
        while j < REG {
            if m >> j & 1 == 1 {
                lut[m] |= (j as u64) << (8 * p);
                p += 1;
            }
            j += 1;
        }
        m += 1;
    }
    lut
};

/// The AVX2 group loop of [`Lanes::decode`]: register `k` holds lanes
/// `8k..8k + 8`. Per register, the eight slot-table entries are loaded
/// from the eight slots the states name (their low bytes are the
/// symbols), the states advance in one multiply, and the lanes below
/// 2¹⁵ take their words from the eight at the cursor through the
/// `DEC_LUT` shuffle of their mask; the cursor moves by its population
/// count. Same states, cursor and symbols as [`decode_groups`] on every
/// input.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn decode_groups_avx2(
    tab: &DecodeTable,
    states: &mut [u32; LANES],
    stream: &[u8],
    pos: &mut usize,
    out: &mut [u8],
) -> usize {
    use std::arch::x86_64::*;
    let mut x: [__m256i; LANES / REG] =
        std::array::from_fn(|k| set8(&states[REG * k..REG * (k + 1)]));
    let slot_mask = _mm256_set1_epi32((SCALE - 1) as i32);
    let one = _mm256_set1_epi32(1);
    let zero = _mm256_setzero_si256();
    let word_shift = _mm256_set1_epi32(16);
    // One register's eight symbols into `syms`, reading the words at
    // `win[at..]`: its next states and the stream bytes it took.
    macro_rules! step {
        ($v:expr, $win:expr, $at:expr, $syms:expr) => {{
            let (v, win, at, syms): (__m256i, &[u8; 2 * LANES], usize, &mut [u8; REG]) =
                ($v, $win, $at, $syms);
            let slots = _mm256_and_si256(v, slot_mask);
            let pairs = [
                _mm256_extract_epi64::<0>(slots) as u64,
                _mm256_extract_epi64::<1>(slots) as u64,
                _mm256_extract_epi64::<2>(slots) as u64,
                _mm256_extract_epi64::<3>(slots) as u64,
            ];
            let e =
                |j: usize| tab[(pairs[j / 2] >> (32 * (j % 2))) as usize & (SCALE as usize - 1)];
            let ent = [e(0), e(1), e(2), e(3), e(4), e(5), e(6), e(7)];
            for (o, e) in syms.iter_mut().zip(ent) {
                *o = e as u8;
            }
            let ent = set8(&ent);
            let freq = _mm256_add_epi32(_mm256_srli_epi32::<20>(ent), one);
            let offset = _mm256_and_si256(_mm256_srli_epi32::<8>(ent), slot_mask);
            let xx = _mm256_add_epi32(
                _mm256_mullo_epi32(freq, _mm256_srli_epi32::<{ SCALE_BITS as i32 }>(v)),
                offset,
            );

            let need = _mm256_cmpeq_epi32(_mm256_srli_epi32::<15>(xx), zero);
            let m = _mm256_movemask_ps(_mm256_castsi256_ps(need)) as usize;
            let word =
                |k: usize| i64::from_le_bytes(win[at + k..at + k + 8].try_into().expect("8 bytes"));
            let words = _mm256_broadcastsi128_si256(_mm_set_epi64x(word(8), word(0)));
            let take = &DEC_LUT[m];
            let take = _mm256_set_epi64x(take[3], take[2], take[1], take[0]);
            let fed = _mm256_shuffle_epi8(words, take);
            (
                _mm256_or_si256(
                    _mm256_sllv_epi32(xx, _mm256_and_si256(need, word_shift)),
                    fed,
                ),
                2 * POPCOUNT[m] as usize,
            )
        }};
    }
    let mut done = 0;
    for group in out.as_chunks_mut::<LANES>().0 {
        let Some(win) = stream[*pos..].first_chunk::<{ 2 * LANES }>() else {
            break;
        };
        let [g0, g1, g2, g3] = group.as_chunks_mut::<REG>().0 else {
            unreachable!("a group is four registers of lanes")
        };
        let (x0, at) = step!(x[0], win, 0, g0);
        let (x1, used) = step!(x[1], win, at, g1);
        let at = at + used;
        let (x2, used) = step!(x[2], win, at, g2);
        let at = at + used;
        let (x3, used) = step!(x[3], win, at, g3);
        x = [x0, x1, x2, x3];
        *pos += at + used;
        done += LANES;
    }
    for (v, s) in x.iter().zip(states.chunks_exact_mut(REG)) {
        s.copy_from_slice(&lanes8(*v));
    }
    done
}

/// The AVX2 group loop of [`encode_lanes`], registers from the highest
/// lanes down: per register the eight symbols' packed entries and
/// reciprocals are loaded, the emitting lanes' low words are compacted
/// through the `ENC_LUT` permutation of their mask to the top of one
/// unconditional eight-word store ending at the cursor, and the divide
/// runs as even/odd `mul_epu32` products shifted right by `31 + ℓ`. Same
/// states, cursor and stream words as the portable loop of
/// [`EncModel::put`] on every input.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn encode_groups_avx2(
    model: &EncModel,
    groups: &[u8],
    states: &mut [u32; LANES],
    buf: &mut [u8],
    pos: &mut usize,
) {
    use std::arch::x86_64::*;
    let mut x: [__m256i; LANES / REG] =
        std::array::from_fn(|k| set8(&states[REG * k..REG * (k + 1)]));
    let freq_mask = _mm256_set1_epi32((1 << FREQ_BITS) - 1);
    let cum_mask = _mm256_set1_epi32((SCALE - 1) as i32);
    let scale = _mm256_set1_epi32(SCALE as i32);
    let base_shift = _mm256_set1_epi32(31);
    let low_dwords = _mm256_set1_epi64x(u32::MAX as i64);
    // The low 16 bits of every state to the low eight bytes of its
    // 128-bit half; then the two halves' eight bytes side by side.
    let pick_words = _mm256_setr_epi8(
        0, 1, 4, 5, 8, 9, 12, 13, -1, -1, -1, -1, -1, -1, -1, -1, //
        0, 1, 4, 5, 8, 9, 12, 13, -1, -1, -1, -1, -1, -1, -1, -1,
    );
    // One register's eight symbols: its next states, the sixteen bytes of
    // its store (the emitted words last) and how many words it emitted.
    macro_rules! step {
        ($v:expr, $syms:expr) => {{
            let (v, syms): (__m256i, &[u8; REG]) = ($v, $syms);
            let pk = set8(&syms.map(|s| model.packed[s as usize]));
            let rc = set8(&syms.map(|s| model.recip[s as usize]));
            let freq = _mm256_and_si256(pk, freq_mask);
            let x_max = _mm256_slli_epi32::<19>(freq);
            let emit = _mm256_cmpeq_epi32(_mm256_max_epu32(v, x_max), v);
            let m = _mm256_movemask_ps(_mm256_castsi256_ps(emit)) as usize;
            let order = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(ENC_LUT[m] as i64));
            let w = _mm256_shuffle_epi8(_mm256_permutevar8x32_epi32(v, order), pick_words);
            let w = _mm256_permute4x64_epi64::<0b1000>(w);
            let mut store = [0u8; 2 * REG];
            store[..8].copy_from_slice(&_mm256_extract_epi64::<0>(w).to_le_bytes());
            store[8..].copy_from_slice(&_mm256_extract_epi64::<1>(w).to_le_bytes());

            let xs = _mm256_blendv_epi8(v, _mm256_srli_epi32::<16>(v), emit);
            let shift = _mm256_add_epi32(_mm256_srli_epi32::<{ ELL_SHIFT as i32 }>(pk), base_shift);
            let q_even = _mm256_srlv_epi64(
                _mm256_mul_epu32(xs, rc),
                _mm256_and_si256(shift, low_dwords),
            );
            let q_odd = _mm256_srlv_epi64(
                _mm256_mul_epu32(_mm256_srli_epi64::<32>(xs), _mm256_srli_epi64::<32>(rc)),
                _mm256_srli_epi64::<32>(shift),
            );
            let q = _mm256_blend_epi32::<0b1010_1010>(q_even, _mm256_slli_epi64::<32>(q_odd));
            let cum = _mm256_and_si256(_mm256_srli_epi32::<{ CUM_SHIFT as i32 }>(pk), cum_mask);
            let next = _mm256_add_epi32(
                _mm256_add_epi32(xs, _mm256_mullo_epi32(q, _mm256_sub_epi32(scale, freq))),
                cum,
            );
            (next, store, POPCOUNT[m] as usize)
        }};
    }
    for group in groups.as_chunks::<LANES>().0.iter().rev() {
        let [g0, g1, g2, g3] = group.as_chunks::<REG>().0 else {
            unreachable!("a group is four registers of lanes")
        };
        let (x3, w3, n3) = step!(x[3], g3);
        let (x2, w2, n2) = step!(x[2], g2);
        let (x1, w1, n1) = step!(x[1], g1);
        let (x0, w0, n0) = step!(x[0], g0);
        x = [x0, x1, x2, x3];
        for (w, n) in [(w3, n3), (w2, n2), (w1, n1), (w0, n0)] {
            let at = 2 * (*pos - REG);
            buf[at..at + 2 * REG].copy_from_slice(&w);
            *pos -= n;
        }
    }
    for (v, s) in x.iter().zip(states.chunks_exact_mut(REG)) {
        s.copy_from_slice(&lanes8(*v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    // Explicit import: proptest's prelude also globs a `Rng` trait.
    use compso_tensor::rng::Rng;

    fn instances() -> impl Iterator<Item = Instance> {
        Instance::ALL.into_iter().filter(|inst| inst.available())
    }

    /// The single-lane layout (stream mode 1) that the interleaved coders
    /// replaced: one state in `[2²³, 2³¹)`, byte-wise renormalization, a
    /// hardware divide, a slot→symbol table, a 512-byte frequency table.
    /// Kept whole — encoder and its decoder — as the scalar reference the
    /// lane coder's sizes are compared against; nothing outside this
    /// module reads or writes the layout, and [`decode`] rejects it.
    mod single_lane {
        use super::super::*;

        pub const MODE: u8 = 1;
        const L: u32 = 1 << 23;

        /// Always emits the rANS layout (no stored fallback); `input` must
        /// be non-empty.
        pub fn encode(input: &[u8]) -> Vec<u8> {
            let mut counts = [0u64; 256];
            for &b in input {
                counts[b as usize] += 1;
            }
            let freqs = normalize_freqs(&counts).expect("non-empty input");
            let cum = cumulative(&freqs);
            let mut state: u32 = L;
            let mut stream: Vec<u8> = Vec::new();
            for &b in input.iter().rev() {
                let f = freqs[b as usize];
                let x_max = ((L >> SCALE_BITS) << 8) * f;
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
                while state < L {
                    state = (state << 8) | stream[pos] as u32;
                    pos += 1;
                }
                out.push(s);
            }
            assert_eq!(state, L, "oracle final state");
            out
        }
    }

    /// A well-formed block of the retired eight-lane byte-wise layout
    /// (stream mode 2): `n` copies of symbol 0 from an empty stream, the
    /// bytes its decoder accepted.
    fn retired_eight_lane_block(n: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(2);
        w.u64(n);
        for s in 0..256 {
            w.u16(if s == 0 { 4096 } else { 0 });
        }
        for _ in 0..8 {
            w.u32(1 << 23);
        }
        w.block(&[]);
        w.into_bytes()
    }

    /// Every symbol through [`step_checked`]: the reference both
    /// instances' group loops are held to on damaged frames.
    fn decode_checked(input: &[u8]) -> Result<Vec<u8>, WireError> {
        let mut r = Reader::new(input);
        match r.u8()? {
            MODE_STORED => Ok(r.block()?.to_vec()),
            MODE_LANES => {
                let n = crate::wire::checked_count(r.u64()?)?;
                let Lanes {
                    tab,
                    mut states,
                    stream,
                } = Lanes::read(&mut r)?;
                let mut pos = 0usize;
                let mut out = vec![0u8; n];
                for (i, o) in out.iter_mut().enumerate() {
                    *o = step_checked(&mut states[i % LANES], stream, &mut pos, &tab)?;
                }
                if states.iter().any(|&x| x != RANS_L) {
                    return Err(WireError::Invalid("rans final state"));
                }
                Ok(out)
            }
            _ => Err(WireError::Invalid("rans mode byte")),
        }
    }

    /// Where a lane frame's states start: past the mode byte, the
    /// length, the presence map and one or two bytes per present symbol.
    fn state_base(frame: &[u8]) -> usize {
        assert_eq!(frame[0], MODE_LANES);
        let map = &frame[9..9 + MAP_BYTES];
        let mut at = 9 + MAP_BYTES;
        for s in 0..256 {
            if map[s / 8] >> (s % 8) & 1 == 1 {
                at += 1 + (frame[at] >> 7) as usize;
            }
        }
        at
    }

    /// Code bytes as the chunk kernels once produced them: 9-bit SR codes
    /// of a K-FAC-shaped layer, bit-packed, so symbols straddle byte
    /// boundaries.
    fn packed_nine_bit_codes(n: usize) -> Vec<u8> {
        let data = crate::synthetic::generate(n, 5, crate::synthetic::GradientProfile::kfac());
        let q = crate::quantize::Quantizer::relative(2e-3, crate::RoundingMode::Stochastic)
            .quantize(&data, &mut Rng::new(6));
        assert_eq!(q.bits(), 9);
        crate::bitpack::pack(&q.codes, 9)
    }

    /// One common symbol among 255 rare ones: frequency 1, so the widest
    /// spread of renormalization the model allows.
    fn rare_symbols(n: u32) -> Vec<u8> {
        (0..n)
            .map(|i| if i % 97 == 0 { (i / 97) as u8 } else { 0 })
            .collect()
    }

    #[test]
    fn instances_encode_the_same_bytes_and_decode_them_back() {
        let mut rng = Rng::new(0xA115);
        let skewed = |n: usize, rng: &mut Rng| -> Vec<u8> {
            (0..n)
                .map(|_| (64.0 + rng.laplace(3.0)).clamp(0.0, 127.0) as u8)
                .collect()
        };
        // Every tail length of two groups, then whole-stream shapes.
        let mut inputs: Vec<Vec<u8>> = (0..=64)
            .chain([4096, 20_000])
            .map(|n| skewed(n, &mut rng))
            .collect();
        inputs.push(packed_nine_bit_codes(20_000));
        inputs.push(vec![7u8; 5000]); // one symbol: the states never move
        inputs.push((0..=255u8).cycle().take(4099).collect()); // all 256, freq 16
        inputs.push(rare_symbols(30_000));
        for input in &inputs {
            let n = input.len();
            let want = encode(Instance::Portable, input);
            let frame = encode_lanes(Instance::Portable, input);
            for inst in instances() {
                assert_eq!(encode(inst, input), want, "{inst:?} n={n}");
                assert_eq!(encode_lanes(inst, input), frame, "{inst:?} n={n}");
            }
            // The lane layout decodes whatever it cost, on every instance
            // and through the window entry point.
            for frame in [Some(want), frame].iter().flatten() {
                for inst in instances() {
                    assert_eq!(&decode(inst, frame).unwrap(), input, "{inst:?} n={n}");
                    let mut window = vec![0xAAu8; n];
                    decode_into(inst, frame, &mut window).unwrap();
                    assert_eq!(&window, input, "{inst:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn decode_into_refuses_any_length_but_its_window() {
        let data: Vec<u8> = (0..20_000).map(|i| (i % 7) as u8).collect();
        for inst in instances() {
            for frame in [encode(inst, &data), encode(inst, &data[..100])] {
                let n = decode(inst, &frame).unwrap().len();
                for len in [0, n - 1, n + 1] {
                    assert_eq!(
                        decode_into(inst, &frame, &mut vec![0u8; len]),
                        Err(WireError::Invalid("block payload length")),
                        "{inst:?} mode {} len {len}",
                        frame[0]
                    );
                }
            }
        }
    }

    /// The group loops read a window of words without checking each; on
    /// damaged frames every instance must still land where the checked
    /// per-symbol path lands: the same bytes or the same error, for
    /// every truncation and mutation tried.
    #[test]
    fn instances_agree_with_the_checked_path_on_damaged_frames() {
        let mut rng = Rng::new(0xDEC0DE);
        let frames = [
            encode_lanes(Instance::Portable, &packed_nine_bit_codes(2000)).unwrap(),
            encode_lanes(Instance::Portable, &rare_symbols(3000)).unwrap(),
            encode_lanes(Instance::Portable, &[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]).unwrap(),
        ];
        let same = |bytes: &[u8], what: &str| {
            let want = decode_checked(bytes);
            for inst in instances() {
                assert_eq!(decode(inst, bytes), want, "{inst:?} {what}");
                if let Ok(want) = &want {
                    let mut window = vec![0u8; want.len()];
                    assert_eq!(
                        decode_into(inst, bytes, &mut window),
                        Ok(()),
                        "{inst:?} {what}"
                    );
                    assert_eq!(&window, want, "{inst:?} {what}");
                }
            }
        };
        for frame in &frames {
            same(frame, "intact");
            let states = state_base(frame);
            let stream = states + 4 * LANES + 8;
            for cut in (0..frame.len())
                .step_by(7)
                .chain(frame.len().saturating_sub(80)..frame.len())
            {
                same(&frame[..cut], "truncated");
            }
            // A word stream of odd length: its last byte dropped and the
            // block's length prefix to match.
            if frame.len() > stream {
                let mut odd = frame[..frame.len() - 1].to_vec();
                odd[stream - 8..stream]
                    .copy_from_slice(&((frame.len() - stream - 1) as u64).to_le_bytes());
                assert_eq!(
                    decode_checked(&odd),
                    Err(WireError::Invalid("rans word stream length"))
                );
                same(&odd, "odd word stream");
            }
            for round in 0..2000 {
                let mut bad = frame.clone();
                match round % 4 {
                    // Anywhere: header, model, states, stream.
                    0 => {
                        let i = rng.next_u32() as usize % bad.len();
                        bad[i] ^= 1 << (rng.next_u32() % 8);
                    }
                    // A lane state at or past 2³¹: the largest update
                    // the decoder can meet.
                    1 => {
                        let at = states + 4 * (rng.next_u32() as usize % LANES);
                        let x = rng.next_u32() | 1 << 31;
                        bad[at..at + 4].copy_from_slice(&x.to_le_bytes());
                    }
                    // A lane state below 2¹⁵, so one word does not bring
                    // it back up.
                    2 => {
                        let at = states + 4 * (rng.next_u32() as usize % LANES);
                        let x = rng.next_u32() >> (17 + rng.next_u32() % 15);
                        bad[at..at + 4].copy_from_slice(&x.to_le_bytes());
                    }
                    // A few stream bytes at once.
                    _ => {
                        for _ in 0..3 {
                            let span = (bad.len() - stream).max(1);
                            let i = stream + rng.next_u32() as usize % span;
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
    fn a_hostile_model_is_refused_not_trusted() {
        // Three symbols, 4000 + 95 + 1: two-byte, one-byte, one-byte.
        // 4000 = 31·128 + 32.
        const F4000: &[u8] = &[0x80 | 32, 31];
        let model = |freqs: &[(u8, &[u8])]| {
            let mut w = Writer::new();
            w.u8(MODE_LANES);
            w.u64(100);
            let mut map = [0u8; MAP_BYTES];
            for &(s, _) in freqs {
                map[s as usize / 8] |= 1 << (s % 8);
            }
            w.bytes(&map);
            for &(_, f) in freqs {
                w.bytes(f);
            }
            for _ in 0..LANES {
                w.u32(RANS_L);
            }
            w.block(&[]);
            w.into_bytes()
        };
        let honest = model(&[(1, F4000), (2, &[95]), (9, &[1])]);
        assert!(matches!(
            decode_checked(&honest),
            Err(WireError::Truncated { .. })
        ));
        for (bytes, want) in [
            // A present symbol with frequency 0, in either width.
            (
                model(&[(1, F4000), (2, &[0]), (9, &[96])]),
                WireError::Invalid("rans symbol frequency"),
            ),
            (
                model(&[(1, &[0x80, 0]), (2, &[0x80 | 0x7f, 0x1f])]),
                WireError::Invalid("rans symbol frequency"),
            ),
            // One symbol past the scale: 4097 = 0x81, 0x20.
            (
                model(&[(1, &[0x81, 0x20])]),
                WireError::Invalid("rans symbol frequency"),
            ),
            // The widest value two bytes can carry.
            (
                model(&[(1, &[0xff, 0xff])]),
                WireError::Invalid("rans symbol frequency"),
            ),
            // Frequencies that do not sum to the scale.
            (
                model(&[(1, F4000), (2, &[95])]),
                WireError::Invalid("rans frequency table sum"),
            ),
            (model(&[]), WireError::Invalid("rans frequency table sum")),
        ] {
            for inst in instances() {
                assert_eq!(decode(inst, &bytes), Err(want.clone()), "{inst:?}");
                assert_eq!(
                    decode_into(inst, &bytes, &mut [0u8; 100]),
                    Err(want.clone()),
                    "{inst:?}"
                );
            }
        }
        // A presence map, or the frequencies it announces, cut short.
        for cut in [
            9,
            9 + MAP_BYTES / 2,
            9 + MAP_BYTES,
            9 + MAP_BYTES + 1,
            9 + MAP_BYTES + 3,
        ] {
            for inst in instances() {
                assert!(
                    matches!(
                        decode(inst, &honest[..cut]),
                        Err(WireError::Truncated { .. })
                    ),
                    "{inst:?} cut {cut}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_text() {
        let data = b"the quick brown fox jumps over the lazy dog, repeatedly. \
                     the quick brown fox jumps over the lazy dog, repeatedly."
            .to_vec();
        for inst in instances() {
            assert_eq!(decode(inst, &encode(inst, &data)).unwrap(), data);
        }
    }

    #[test]
    fn empty_input() {
        for inst in instances() {
            assert_eq!(decode(inst, &encode(inst, &[])).unwrap(), Vec::<u8>::new());
        }
    }

    #[test]
    fn single_byte() {
        for inst in instances() {
            assert_eq!(decode(inst, &encode(inst, &[99])).unwrap(), vec![99]);
        }
    }

    #[test]
    fn single_symbol_stream_compresses_hard() {
        let data = vec![7u8; 100_000];
        for inst in instances() {
            let enc = encode(inst, &data);
            assert!(enc.len() < 2000, "len {}", enc.len());
            assert_eq!(decode(inst, &enc).unwrap(), data);
        }
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
        for inst in instances() {
            let es = encode(inst, &skewed);
            let eu = encode(inst, &uniform);
            assert!(
                es.len() * 2 < eu.len(),
                "skewed {} uniform {}",
                es.len(),
                eu.len()
            );
            assert_eq!(decode(inst, &es).unwrap(), skewed);
            assert_eq!(decode(inst, &eu).unwrap(), uniform);
        }
    }

    #[test]
    fn near_entropy_on_known_distribution() {
        // H(p=0.9/0.1 over 2 symbols) ≈ 0.469 bits/symbol.
        let mut rng = Rng::new(2);
        let n = 200_000;
        let data: Vec<u8> = (0..n).map(|_| u8::from(rng.uniform_f64() < 0.1)).collect();
        let enc = encode(Instance::Portable, &data);
        let bits_per_symbol = enc.len() as f64 * 8.0 / n as f64;
        assert!(bits_per_symbol < 0.55, "bits/sym {bits_per_symbol}");
    }

    #[test]
    fn all_256_symbols() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for inst in instances() {
            assert_eq!(decode(inst, &encode(inst, &data)).unwrap(), data);
        }
    }

    #[test]
    fn truncation_detected() {
        let data = vec![3u8; 5000];
        let enc = encode(Instance::Portable, &data);
        for cut in [0usize, 1, 8, 200, enc.len() - 1] {
            if cut < enc.len() {
                for inst in instances() {
                    assert!(decode(inst, &enc[..cut]).is_err(), "{inst:?} cut={cut}");
                }
            }
        }
    }

    #[test]
    fn roundtrips_at_lane_boundaries_and_marks_mode() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 4095, 20_000] {
            let data: Vec<u8> = (0..n).map(|i| (i % 7) as u8).collect();
            let enc = encode(Instance::Portable, &data);
            assert_eq!(
                enc[0],
                if n > 600 { MODE_LANES } else { MODE_STORED },
                "n={n}"
            );
            for inst in instances() {
                assert_eq!(decode(inst, &enc).unwrap(), data, "{inst:?} n={n}");
            }
        }
    }

    #[test]
    fn truncation_and_final_state_detected() {
        let data: Vec<u8> = (0..20_000).map(|i| (i % 13) as u8).collect();
        let enc = encode(Instance::Portable, &data);
        assert_eq!(enc[0], MODE_LANES);
        // Smash one of the initial lane states: the lane cannot land
        // back on RANS_L.
        let mut bad = enc.clone();
        bad[state_base(&enc) + 2] ^= 0x40;
        for inst in instances() {
            for cut in [0usize, 1, 8, 200, enc.len() - 1] {
                assert!(decode(inst, &enc[..cut]).is_err(), "{inst:?} cut={cut}");
            }
            assert!(decode(inst, &bad).is_err(), "{inst:?}");
        }
    }

    #[test]
    fn corrupt_freq_table_detected() {
        // Seven symbols of frequency ≈ 585: two model bytes each, the
        // first opening the model past the presence map.
        let data: Vec<u8> = (0..20_000).map(|i| (i % 7) as u8).collect();
        let mut enc = encode(Instance::Portable, &data);
        assert_eq!(enc[0], MODE_LANES, "test assumes the lane layout");
        // Move symbol 0's frequency by one; the sum check must fire.
        enc[9 + MAP_BYTES] ^= 0x01;
        for inst in instances() {
            assert_eq!(
                decode(inst, &enc),
                Err(WireError::Invalid("rans frequency table sum"))
            );
        }
    }

    #[test]
    fn recip_exhaustive_over_all_frequencies() {
        // Every frequency the table can produce, against every boundary
        // dividend that renormalization permits (x < 2^19·f ≤ 2^31).
        for f in 1..=SCALE {
            let (mul, ell) = recip(f);
            let x_max = f << 19; // exclusive bound
            let mut probes = vec![0u32, 1, f - 1, f, f + 1, x_max - 1, x_max / 2];
            for k in 1..8u32 {
                probes.push((k * f).saturating_sub(1).min(x_max - 1));
                probes.push((k * f).min(x_max - 1));
            }
            for x in probes {
                assert_eq!(div_by(x, mul, ell), x / f, "f={f} x={x}");
            }
        }
    }

    #[test]
    fn lanes_track_the_single_lane_oracle() {
        // Same frequency model, so the payload entropy is identical: the
        // word stream differs from the oracle's byte stream by at most
        // what the 32 states hold beyond their floor (≤ 16 bits each,
        // the oracle's ≤ 8) and each lane's last partial word.
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
        let lanes = encode(Instance::Portable, &data);
        assert_eq!(single_lane::decode(&oracle), data);
        assert_eq!(decode(Instance::Portable, &lanes).unwrap(), data);
        let oracle_stream = oracle.len() - (1 + 8 + 512 + 4 + 8);
        let lanes_stream = lanes.len() - (state_base(&lanes) + 4 * LANES + 8);
        assert!(
            oracle_stream.abs_diff(lanes_stream) <= 4 * LANES,
            "oracle stream {oracle_stream} B, lanes {lanes_stream} B"
        );
        // The compact model pays for the 31 extra states.
        assert!(
            lanes.len() < oracle.len(),
            "oracle {} lanes {}",
            oracle.len(),
            lanes.len()
        );
    }

    #[test]
    fn retired_layouts_are_rejected() {
        let data: Vec<u8> = (0..20_000).map(|i| (i % 7) as u8).collect();
        let single = single_lane::encode(&data);
        assert_eq!(single[0], single_lane::MODE);
        for retired in [single, retired_eight_lane_block(20_000)] {
            for inst in instances() {
                assert_eq!(
                    decode(inst, &retired),
                    Err(WireError::Invalid("rans mode byte"))
                );
                assert_eq!(
                    decode_into(inst, &retired, &mut vec![0u8; 20_000]),
                    Err(WireError::Invalid("rans mode byte"))
                );
            }
        }
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
        /// Any input survives the lane coder on every instance, in the
        /// same bytes, and — whichever mode it fell back to — to the
        /// bytes the single-lane oracle keeps.
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..3000)) {
            let enc = encode(Instance::Portable, &data);
            for inst in instances() {
                prop_assert_eq!(&encode(inst, &data), &enc);
                prop_assert_eq!(decode(inst, &enc).unwrap(), data.clone());
            }
            if !data.is_empty() {
                prop_assert_eq!(single_lane::decode(&single_lane::encode(&data)), data);
            }
        }

        #[test]
        fn prop_roundtrip_low_entropy(data in proptest::collection::vec(0u8..3, 0..3000)) {
            let enc = encode(Instance::Portable, &data);
            for inst in instances() {
                prop_assert_eq!(&encode(inst, &data), &enc);
                prop_assert_eq!(decode(inst, &enc).unwrap(), data.clone());
            }
        }
    }
}
