//! A parameterized LZ77 engine.
//!
//! The dictionary-matching backend behind the LZ4-like and Snappy-like
//! codecs and the LZ stage of the Deflate/Gdeflate/Zstd-like composites
//! (Table 2). Greedy hash-head matching with optional chain walking:
//!
//! * token stream: control byte with the top bit clear = literal run of
//!   `ctrl + 1` bytes (1..=128); top bit set = match of length
//!   `(ctrl & 0x7f) + MIN_MATCH` at a 16-bit back-offset;
//! * `max_chain = 0` checks only the most recent hash head (LZ4/Snappy
//!   speed profile); larger values walk previous occurrences for better
//!   matches (Deflate/Gdeflate ratio profile).

use crate::wire::{Reader, WireError, Writer};

/// Minimum match length worth a 3-byte token.
pub(crate) const MIN_MATCH: usize = 4;
/// Maximum match length encodable in one token.
pub(crate) const MAX_MATCH: usize = MIN_MATCH + 0x7f;
/// Maximum literal run per token.
const MAX_LITERALS: usize = 128;

/// Tuning knobs distinguishing the codec family members.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LzParams {
    /// Match window (max back-offset), at most 65535.
    pub window: usize,
    /// Extra previous-occurrence probes per position (0 = head only).
    pub max_chain: usize,
}

impl LzParams {
    /// LZ4-like speed profile.
    pub(crate) fn fast() -> Self {
        LzParams {
            window: 65_535,
            max_chain: 0,
        }
    }

    /// Snappy-like profile: smaller window, head-only probing.
    pub(crate) fn snappy() -> Self {
        LzParams {
            window: 32_768,
            max_chain: 0,
        }
    }

    /// Deflate-like ratio profile.
    pub(crate) fn deflate() -> Self {
        LzParams {
            window: 32_768,
            max_chain: 8,
        }
    }

    /// Gdeflate-like profile: full window, deeper chains.
    pub(crate) fn gdeflate() -> Self {
        LzParams {
            window: 65_535,
            max_chain: 16,
        }
    }
}

const HASH_BITS: u32 = 15;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Compresses `input` into the token stream (length header included).
pub(crate) fn encode(input: &[u8], params: LzParams) -> Vec<u8> {
    assert!(params.window <= 65_535, "window exceeds u16 offsets");
    let mut w = Writer::with_capacity(input.len() / 2 + 16);
    w.u64(input.len() as u64);

    let n = input.len();
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; n];
    let mut tokens = Writer::with_capacity(n / 2);
    let mut lit_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |tokens: &mut Writer, input: &[u8], from: usize, to: usize| {
        let mut s = from;
        while s < to {
            let run = (to - s).min(MAX_LITERALS);
            tokens.u8((run - 1) as u8);
            tokens.bytes(&input[s..s + run]);
            s += run;
        }
    };

    while i + MIN_MATCH <= n {
        let h = hash4(&input[i..]);
        // Probe the hash chain for the best match.
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        let mut cand = head[h];
        let mut probes = 0usize;
        while cand != usize::MAX && i - cand <= params.window && probes <= params.max_chain {
            let mut l = 0usize;
            let max_l = (n - i).min(MAX_MATCH);
            while l < max_l && input[cand + l] == input[i + l] {
                l += 1;
            }
            if l > best_len {
                best_len = l;
                best_off = i - cand;
                if l >= MAX_MATCH {
                    break;
                }
            }
            cand = prev[cand];
            probes += 1;
        }

        if best_len >= MIN_MATCH {
            flush_literals(&mut tokens, input, lit_start, i);
            tokens.u8(0x80 | (best_len - MIN_MATCH) as u8);
            tokens.u16(best_off as u16);
            // Insert hash entries for the matched region so later matches
            // can reference it.
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            let mut j = i;
            while j < end {
                let hj = hash4(&input[j..]);
                prev[j] = head[hj];
                head[hj] = j;
                j += 1;
            }
            i += best_len;
            lit_start = i;
        } else {
            prev[i] = head[h];
            head[h] = i;
            i += 1;
        }
    }
    flush_literals(&mut tokens, input, lit_start, n);

    w.block(&tokens.into_bytes());
    w.into_bytes()
}

/// Inverse of [`encode`].
pub(crate) fn decode(input: &[u8], params: LzParams) -> Result<Vec<u8>, WireError> {
    let _ = params; // decoding is parameter-independent
    let mut r = Reader::new(input);
    let n = crate::wire::checked_count(r.u64()?)?;
    let tokens = r.block()?;
    let mut out: Vec<u8> = Vec::with_capacity(n);
    let mut t = Reader::new(tokens);
    while out.len() < n {
        let ctrl = t.u8()?;
        if ctrl & 0x80 == 0 {
            let run = ctrl as usize + 1;
            if out.len() + run > n {
                return Err(WireError::Invalid("literal run overruns length"));
            }
            out.extend_from_slice(t.bytes(run)?);
        } else {
            let len = (ctrl & 0x7f) as usize + MIN_MATCH;
            let off = t.u16()? as usize;
            if off == 0 || off > out.len() {
                return Err(WireError::Invalid("match offset"));
            }
            if out.len() + len > n {
                return Err(WireError::Invalid("match overruns length"));
            }
            // Overlapping copies are legal (off < len repeats a pattern).
            let start = out.len() - off;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    // Explicit import: proptest's prelude also globs a `Rng` trait.
    use compso_tensor::rng::Rng;

    fn all_params() -> Vec<LzParams> {
        vec![
            LzParams::fast(),
            LzParams::snappy(),
            LzParams::deflate(),
            LzParams::gdeflate(),
        ]
    }

    #[test]
    fn roundtrip_repetitive() {
        let data = b"abcabcabcabcabcabcabcabcabcabc".to_vec();
        for p in all_params() {
            let enc = encode(&data, p);
            assert_eq!(decode(&enc, p).unwrap(), data, "{p:?}");
            assert!(enc.len() < data.len() + 16);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for p in all_params() {
            for data in [vec![], vec![1u8], vec![1u8, 2, 3]] {
                let enc = encode(&data, p);
                assert_eq!(decode(&enc, p).unwrap(), data);
            }
        }
    }

    #[test]
    fn long_run_uses_overlapping_matches() {
        let data = vec![0u8; 100_000];
        let p = LzParams::fast();
        let enc = encode(&data, p);
        assert!(
            enc.len() < 4000,
            "run-length-ish input should shrink: {}",
            enc.len()
        );
        assert_eq!(decode(&enc, p).unwrap(), data);
    }

    #[test]
    fn deeper_chains_never_worse_ratio() {
        // Text with multiple repeated substrings at various distances.
        let mut rng = Rng::new(1);
        let words = [b"gradient".as_ref(), b"kfac", b"layer", b"tensor", b"comm"];
        let mut data = Vec::new();
        for _ in 0..3000 {
            data.extend_from_slice(words[rng.below(5) as usize]);
            data.push(b' ');
        }
        let fast = encode(&data, LzParams::fast());
        let deep = encode(&data, LzParams::gdeflate());
        assert!(
            deep.len() <= fast.len() + 64,
            "deep {} fast {}",
            deep.len(),
            fast.len()
        );
        assert_eq!(decode(&deep, LzParams::gdeflate()).unwrap(), data);
    }

    #[test]
    fn incompressible_random_data_roundtrips() {
        let mut rng = Rng::new(2);
        let data: Vec<u8> = (0..10_000).map(|_| rng.next_u32() as u8).collect();
        for p in all_params() {
            let enc = encode(&data, p);
            assert_eq!(decode(&enc, p).unwrap(), data);
            // Worst case expansion: 1 control byte per 128 literals + header.
            assert!(enc.len() <= data.len() + data.len() / 64 + 32);
        }
    }

    #[test]
    fn corrupt_offset_detected() {
        let data = b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".to_vec();
        let p = LzParams::fast();
        let mut enc = encode(&data, p);
        // Find the first match token (top bit set) after the 16-byte header
        // area and corrupt its offset to zero.
        let token_area = 16;
        if let Some(pos) = enc[token_area..].iter().position(|&b| b & 0x80 != 0) {
            let off_pos = token_area + pos + 1;
            enc[off_pos] = 0;
            enc[off_pos + 1] = 0;
            assert!(decode(&enc, p).is_err());
        } else {
            panic!("expected a match token in repetitive data");
        }
    }

    #[test]
    fn truncation_detected() {
        let data = b"hello world hello world hello world".to_vec();
        let p = LzParams::deflate();
        let enc = encode(&data, p);
        for cut in [0usize, 4, 8, enc.len() / 2] {
            assert!(decode(&enc[..cut], p).is_err(), "cut={cut}");
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip_all_profiles(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
            for p in all_params() {
                let enc = encode(&data, p);
                prop_assert_eq!(decode(&enc, p).unwrap(), data.clone());
            }
        }

        #[test]
        fn prop_roundtrip_structured(
            pattern in proptest::collection::vec(any::<u8>(), 1..20),
            reps in 1usize..200,
        ) {
            let data: Vec<u8> = pattern.iter().copied().cycle().take(pattern.len() * reps).collect();
            let p = LzParams::deflate();
            let enc = encode(&data, p);
            prop_assert_eq!(decode(&enc, p).unwrap(), data);
        }
    }
}
