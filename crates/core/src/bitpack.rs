//! Variable-width bit packing.
//!
//! §4.3: "our fine-grained algorithm features tunable error bounds ...
//! accomplished by packing bits into bytes based on the specified error
//! bound. For instance, with an error bound set at 1e-2 ... a maximum of
//! 100 quantization bins, corresponding to a 7-bit representation. Each
//! 7-bit group is then packed into bytes." This module is that packer:
//! `width`-bit unsigned codes (1..=32 bits) laid out LSB-first in a byte
//! stream, plus the exact inverse.
//!
//! Codes wider than a byte do not reach the entropy coder packed — a
//! byte-wise coder would model symbols that straddle two codes. They are
//! [`split`] instead: a low-byte stream, one byte per code, and the
//! remaining `width − 8` bits packed at that width, after a rotation
//! ([`split_bias`]) that puts the code of 0.0 mid-byte.

use crate::wire::WireError;

/// Number of bits needed to represent values in `0..=max_value`.
pub fn bits_for(max_value: u32) -> u32 {
    (32 - max_value.leading_zeros()).max(1)
}

/// Packs `width`-bit codes LSB-first into bytes.
///
/// # Panics
/// If `width` is 0 or > 32, or any code does not fit in `width` bits.
pub fn pack(codes: &[u32], width: u32) -> Vec<u8> {
    assert!((1..=32).contains(&width), "width {width} out of range");
    let total_bits = codes.len() * width as usize;
    let mut out = vec![0u8; total_bits.div_ceil(8)];
    let mut bitpos = 0usize;
    for &code in codes {
        assert!(
            width == 32 || code < (1u32 << width),
            "code {code} does not fit in {width} bits"
        );
        let mut remaining = width;
        let mut value = code as u64;
        while remaining > 0 {
            let byte = bitpos / 8;
            let offset = (bitpos % 8) as u32;
            let space = 8 - offset;
            let take = remaining.min(space);
            let mask = ((1u64 << take) - 1) as u8;
            out[byte] |= (((value & ((1u64 << take) - 1)) as u8) & mask) << offset;
            value >>= take;
            remaining -= take;
            bitpos += take as usize;
        }
    }
    out
}

/// Unpacks `count` codes of `width` bits from a byte stream.
pub fn unpack(bytes: &[u8], width: u32, count: usize) -> Result<Vec<u32>, WireError> {
    if !(1..=32).contains(&width) {
        return Err(WireError::Invalid("bit width"));
    }
    let total_bits = count * width as usize;
    let need = total_bits.div_ceil(8);
    if bytes.len() < need {
        return Err(WireError::Truncated {
            need,
            have: bytes.len(),
        });
    }
    let mut out = Vec::with_capacity(count);
    let mut bitpos = 0usize;
    for _ in 0..count {
        let mut value: u64 = 0;
        let mut got: u32 = 0;
        while got < width {
            let byte = bytes[bitpos / 8] as u64;
            let offset = (bitpos % 8) as u32;
            let space = 8 - offset;
            let take = (width - got).min(space);
            let chunk = (byte >> offset) & ((1u64 << take) - 1);
            value |= chunk << got;
            got += take;
            bitpos += take as usize;
        }
        out.push(value as u32);
    }
    Ok(out)
}

/// Narrowest code width that is split instead of packed: a chunk whose
/// codes need more than one byte.
pub const SPLIT_MIN_WIDTH: u32 = 9;

/// The all-ones mask of a `width`-bit code (`1 ..= 32`).
pub(crate) fn code_mask(width: u32) -> u32 {
    u32::MAX >> (32 - width)
}

/// The rotation a wide chunk applies to its codes before [`split`]:
/// `128 − z` reduced to the code width, where
/// `z = clamp(round(−lo / bin_width), 0, n_bins)` is the code of 0.0.
/// Gradient codes pile up around `z`; rotated, the pile sits mid-byte
/// (around 128) with one value of the high bits under all of it, wherever
/// `z` fell against the multiples of 256.
///
/// A pure function of three record-header fields, so the encoder and
/// the decoder derive it instead of carrying it; total on hostile ones
/// (a NaN or negative quotient counts as `z = 0`).
pub fn split_bias(lo: f32, bin_width: f32, n_bins: u32) -> u32 {
    let z = (-(lo as f64) / bin_width as f64).round();
    let z = if z > 0.0 {
        z.min(n_bins as f64) as u32
    } else {
        0
    };
    128u32.wrapping_sub(z) & code_mask(bits_for(n_bins))
}

/// Splits `width`-bit codes (`9 ..= 32`) into byte-aligned streams: each
/// code is rotated to `(code + bias) mod 2^width`, its low byte goes to
/// the first stream (one byte per code) and its remaining `width − 8`
/// bits are [`pack`]ed at that width into the second. The scalar oracle
/// of [`crate::microkernel::split_into`].
///
/// # Panics
/// If `width` is outside `9 ..= 32` or a code does not fit in it.
pub fn split(codes: &[u32], width: u32, bias: u32) -> (Vec<u8>, Vec<u8>) {
    assert!(
        (SPLIT_MIN_WIDTH..=32).contains(&width),
        "split width {width} out of range"
    );
    let mask = code_mask(width);
    let rotated = |code: u32| {
        assert!(code <= mask, "code {code} does not fit in {width} bits");
        code.wrapping_add(bias) & mask
    };
    let low = codes.iter().map(|&c| rotated(c) as u8).collect();
    let high: Vec<u32> = codes.iter().map(|&c| rotated(c) >> 8).collect();
    (low, pack(&high, width - 8))
}

/// Inverse of [`split`]: one code per byte of `low`, in order. The scalar
/// oracle of [`crate::microkernel::unsplit_map`].
pub fn unsplit(low: &[u8], planes: &[u8], width: u32, bias: u32) -> Result<Vec<u32>, WireError> {
    if !(SPLIT_MIN_WIDTH..=32).contains(&width) {
        return Err(WireError::Invalid("bit width"));
    }
    let mask = code_mask(width);
    let high = unpack(planes, width - 8, low.len())?;
    Ok(low
        .iter()
        .zip(high)
        .map(|(&l, h)| ((h << 8 | l as u32).wrapping_sub(bias)) & mask)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn split_bias_centres_the_code_of_zero() {
        // 501 codes over [-1, 1]: 0.0 is code 250, which lands on 128.
        let bias = split_bias(-1.0, 4e-3, 500);
        assert_eq!((250 + bias) & 511, 128);
        // `lo = 0` (and -0.0): z = 0, so the rotation is +128.
        assert_eq!(split_bias(0.0, 1e-3, 1000), 128);
        assert_eq!(split_bias(-0.0, 1e-3, 1000), 128);
        // A range that ends below zero clamps z at n_bins; one that
        // starts above it clamps at 0.
        assert_eq!(split_bias(-9.0, 1e-3, 1000), (128 + 1024 - 1000) & 1023);
        assert_eq!(split_bias(9.0, 1e-3, 1000), 128);
        // Subnormal width (its f32 reciprocal is infinite), full width,
        // and header fields no encoder writes: total, and inside the mask.
        let tiny = f32::from_bits(1);
        assert_eq!(
            split_bias(-300.0 * tiny, tiny, 700),
            (128 + 1024 - 300) & 1023
        );
        assert_eq!(
            split_bias(-1.0, 1.0 / (1u32 << 30) as f32, u32::MAX),
            128u32.wrapping_sub(1 << 30)
        );
        for (lo, w) in [
            (0.0, 0.0),
            (-1.0, 0.0),
            (1.0, 0.0),
            (f32::NAN, 1.0),
            (-1.0, -1.0),
        ] {
            assert!(split_bias(lo, w, 300) <= 511, "lo={lo} w={w}");
        }
    }

    #[test]
    fn split_lays_out_low_bytes_and_packed_high_bits() {
        // Width 10, bias 0x100: 0x2FF -> 0x3FF, 0x300 -> 0x000 (wraps).
        let (low, planes) = split(&[0x2FF, 0x300, 0x001], 10, 0x100);
        assert_eq!(low, [0xFF, 0x00, 0x01]);
        assert_eq!(planes, pack(&[3, 0, 1], 2));
        assert_eq!(
            unsplit(&low, &planes, 10, 0x100).unwrap(),
            [0x2FF, 0x300, 0x001]
        );
        assert_eq!(
            unsplit(&low, &planes[..0], 10, 0x100),
            Err(WireError::Truncated { need: 1, have: 0 })
        );
        assert_eq!(
            unsplit(&low, &planes, 8, 0),
            Err(WireError::Invalid("bit width"))
        );
    }

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(100), 7); // the paper's eb=1e-2 example
        assert_eq!(bits_for(127), 7);
        assert_eq!(bits_for(128), 8);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(u32::MAX), 32);
    }

    #[test]
    fn pack_is_dense() {
        // 100 codes of 7 bits = 700 bits = 88 bytes, vs 100 bytes at 8-bit:
        // the 14% CR advantage the paper quotes.
        let codes = vec![99u32; 100];
        let packed = pack(&codes, 7);
        assert_eq!(packed.len(), 88);
    }

    #[test]
    fn roundtrip_simple() {
        let codes = vec![0u32, 1, 2, 99, 100, 127];
        let packed = pack(&codes, 7);
        assert_eq!(unpack(&packed, 7, codes.len()).unwrap(), codes);
    }

    #[test]
    fn roundtrip_width_32() {
        let codes = vec![0u32, u32::MAX, 12345, 1 << 31];
        let packed = pack(&codes, 32);
        assert_eq!(unpack(&packed, 32, codes.len()).unwrap(), codes);
    }

    #[test]
    fn roundtrip_width_1() {
        let codes = vec![1u32, 0, 1, 1, 0, 0, 0, 1, 1];
        let packed = pack(&codes, 1);
        assert_eq!(packed.len(), 2);
        assert_eq!(unpack(&packed, 1, codes.len()).unwrap(), codes);
    }

    #[test]
    fn truncated_input_errors() {
        let packed = pack(&[5u32; 16], 5);
        assert!(unpack(&packed[..packed.len() - 1], 5, 16).is_err());
    }

    #[test]
    fn invalid_width_errors() {
        assert!(unpack(&[0u8; 8], 0, 1).is_err());
        assert!(unpack(&[0u8; 8], 33, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_code_panics() {
        pack(&[8u32], 3);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            width in 1u32..=31,
            raw in proptest::collection::vec(any::<u32>(), 0..300),
        ) {
            let codes: Vec<u32> = raw.iter().map(|&v| v & ((1u32 << width) - 1)).collect();
            let packed = pack(&codes, width);
            prop_assert_eq!(unpack(&packed, width, codes.len()).unwrap(), codes);
        }

        #[test]
        fn prop_packed_size_is_minimal(
            width in 1u32..=31,
            n in 0usize..300,
        ) {
            let codes = vec![0u32; n];
            let packed = pack(&codes, width);
            prop_assert_eq!(packed.len(), (n * width as usize).div_ceil(8));
        }
    }
}
