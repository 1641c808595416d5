//! The filter bitmap (step 2-2 of Fig. 4a).
//!
//! One bit per gradient element: `1` means the element was filtered
//! (|g| < eb_f, decoded as exactly 0.0), `0` means its quantized code is
//! present in the value stream. The bitmap is itself compressed by a
//! lossless encoder before hitting the wire; on typical K-FAC gradients
//! most bits are 1, so the bitmap is highly compressible.

use crate::wire::WireError;

/// A fixed-length bit vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    len: usize,
    words: Vec<u64>,
}

impl Bitmap {
    /// An all-zero bitmap of `len` bits.
    pub(crate) fn zeros(len: usize) -> Self {
        Bitmap {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Builds a bitmap from a predicate over `0..len`.
    pub(crate) fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut b = Bitmap::zeros(len);
        for i in 0..len {
            if f(i) {
                b.set(i);
            }
        }
        b
    }

    /// Number of bits.
    #[cfg(test)]
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has zero bits.
    #[cfg(test)]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Reads bit `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub(crate) fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of clear bits.
    pub(crate) fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// The raw bitmap as packed little-endian bytes (`ceil(len/8)` of them).
    /// This is the representation handed to the lossless encoder.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len.div_ceil(8)];
        for (wi, w) in self.words.iter().enumerate() {
            let le = w.to_le_bytes();
            let start = wi * 8;
            let take = le.len().min(out.len().saturating_sub(start));
            out[start..start + take].copy_from_slice(&le[..take]);
        }
        out
    }

    /// Rebuilds a bitmap of `len` bits from packed bytes.
    pub(crate) fn from_bytes(len: usize, bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() != len.div_ceil(8) {
            return Err(WireError::Invalid("bitmap byte length"));
        }
        let mut b = Bitmap::zeros(len);
        for (wi, word) in b.words.iter_mut().enumerate() {
            let start = wi * 8;
            let end = (start + 8).min(bytes.len());
            let mut le = [0u8; 8];
            le[..end - start].copy_from_slice(&bytes[start..end]);
            *word = u64::from_le_bytes(le);
        }
        // Reject garbage beyond `len` bits in the final byte: those bit
        // positions are meaningless and a nonzero value signals corruption.
        if !len.is_multiple_of(64) {
            if let Some(&last) = b.words.last() {
                let valid = len % 64;
                if last >> valid != 0 {
                    return Err(WireError::Invalid("bitmap trailing bits"));
                }
            }
        }
        Ok(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::zeros(130);
        assert!(!b.get(0));
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert_eq!(b.count_ones(), 4);
    }

    #[test]
    fn byte_roundtrip_odd_lengths() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 127, 1000] {
            let b = Bitmap::from_fn(len, |i| i % 3 == 0);
            let bytes = b.to_bytes();
            assert_eq!(bytes.len(), len.div_ceil(8));
            let back = Bitmap::from_bytes(len, &bytes).unwrap();
            assert_eq!(b, back, "len={len}");
        }
    }

    #[test]
    fn wrong_byte_length_rejected() {
        assert!(Bitmap::from_bytes(16, &[0u8; 3]).is_err());
        assert!(Bitmap::from_bytes(16, &[0u8; 1]).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        // 4 valid bits but high bits of the byte set.
        assert!(Bitmap::from_bytes(4, &[0xF0]).is_err());
        assert!(Bitmap::from_bytes(4, &[0x0F]).is_ok());
    }

    #[test]
    fn count_zeros_complements_ones() {
        let b = Bitmap::from_fn(99, |i| i < 40);
        assert_eq!(b.count_ones(), 40);
        assert_eq!(b.count_zeros(), 59);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..500)) {
            let b = Bitmap::from_fn(bits.len(), |i| bits[i]);
            let back = Bitmap::from_bytes(bits.len(), &b.to_bytes()).unwrap();
            prop_assert_eq!(&b, &back);
            for (i, &bit) in bits.iter().enumerate() {
                prop_assert_eq!(b.get(i), bit);
            }
        }

        #[test]
        fn prop_count_matches(bits in proptest::collection::vec(any::<bool>(), 0..500)) {
            let b = Bitmap::from_fn(bits.len(), |i| bits[i]);
            prop_assert_eq!(b.count_ones(), bits.iter().filter(|&&x| x).count());
        }
    }
}
