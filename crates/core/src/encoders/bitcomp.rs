//! Bitcomp-like frame-of-reference bit packing.
//!
//! nvCOMP's Bitcomp targets numeric data: subtract a per-block reference
//! (the minimum) and pack the residuals at the block's maximum significant
//! width. Table 2's finding — very high throughput, mid-pack ratio — is a
//! direct consequence of the algorithm: one pass to find the range, one
//! branch-free pass to pack.

use crate::bitpack;
use crate::wire::{Reader, WireError, Writer};

/// Block size over which the reference/width are chosen. Smaller blocks
/// adapt better; 4 KiB mirrors nvCOMP's default data-page granularity.
const BLOCK: usize = 4096;

/// Compresses `input` with per-block frame-of-reference packing.
pub(crate) fn encode(input: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(input.len() + 16);
    w.u64(input.len() as u64);
    for chunk in input.chunks(BLOCK) {
        let lo = chunk.iter().copied().min().unwrap_or(0);
        let hi = chunk.iter().copied().max().unwrap_or(0);
        let width = if hi == lo {
            0
        } else {
            bitpack::bits_for((hi - lo) as u32)
        };
        w.u8(lo);
        w.u8(width as u8);
        if width > 0 {
            let codes: Vec<u32> = chunk.iter().map(|&b| (b - lo) as u32).collect();
            w.bytes(&bitpack::pack(&codes, width));
        }
    }
    w.into_bytes()
}

/// Inverse of [`encode`].
pub(crate) fn decode(input: &[u8]) -> Result<Vec<u8>, WireError> {
    let mut r = Reader::new(input);
    let n = crate::wire::checked_count(r.u64()?)?;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let count = (n - out.len()).min(BLOCK);
        let lo = r.u8()?;
        let width = r.u8()? as u32;
        if width == 0 {
            out.extend(std::iter::repeat_n(lo, count));
            continue;
        }
        if width > 8 {
            return Err(WireError::Invalid("bitcomp width"));
        }
        let need = (count * width as usize).div_ceil(8);
        let bytes = r.bytes(need)?;
        let codes = bitpack::unpack(bytes, width, count)?;
        for c in codes {
            let v = lo as u32 + c;
            if v > 255 {
                return Err(WireError::Invalid("bitcomp residual overflow"));
            }
            out.push(v as u8);
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

    #[test]
    fn constant_block_is_two_bytes() {
        let data = vec![9u8; BLOCK];
        let enc = encode(&data);
        assert_eq!(enc.len(), 8 + 2);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn small_range_packs_tight() {
        // Values in 0..16 need 4 bits -> ~2x compression.
        let mut rng = Rng::new(1);
        let data: Vec<u8> = (0..100_000).map(|_| (rng.below(16)) as u8).collect();
        let enc = encode(&data);
        assert!(enc.len() < data.len() * 55 / 100, "len {}", enc.len());
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn full_range_does_not_shrink_but_roundtrips() {
        let mut rng = Rng::new(2);
        let data: Vec<u8> = (0..20_000).map(|_| rng.next_u32() as u8).collect();
        let enc = encode(&data);
        assert_eq!(decode(&enc).unwrap(), data);
        assert!(enc.len() <= data.len() + data.len() / BLOCK * 2 + 16);
    }

    #[test]
    fn frame_of_reference_helps_offset_data() {
        // Values in 200..208: tiny residual width despite large magnitudes.
        let mut rng = Rng::new(3);
        let data: Vec<u8> = (0..50_000).map(|_| 200 + (rng.below(8)) as u8).collect();
        let enc = encode(&data);
        assert!(enc.len() < data.len() / 2, "len {}", enc.len());
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn empty_input() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn partial_final_block() {
        let data: Vec<u8> = (0..(BLOCK + 37)).map(|i| (i % 10) as u8).collect();
        let enc = encode(&data);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn truncation_detected() {
        let data = vec![5u8; 1000];
        let enc = encode(&data);
        for cut in [0usize, 5, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn corrupt_width_detected() {
        let data: Vec<u8> = (0..100).map(|i| i as u8).collect();
        let mut enc = encode(&data);
        enc[9] = 20; // width byte of the first block: 20 bits is invalid
        assert!(decode(&enc).is_err());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..10_000)) {
            let enc = encode(&data);
            prop_assert_eq!(decode(&enc).unwrap(), data);
        }
    }
}
