//! Cascaded delta + run-length coding.
//!
//! nvCOMP's "Cascaded" codec family chains delta, run-length and
//! bit-packing stages; the variant here is byte-wise delta followed by
//! run-length pairs with LEB128 run counts. It shines on slowly-varying
//! or constant data (long zero runs from the filter) and loses to entropy
//! coders on non-uniform but run-free data — the Table 2 ordering.

use crate::wire::{Reader, WireError, Writer};

fn write_varint(w: &mut Writer, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            w.u8(byte);
            return;
        }
        w.u8(byte | 0x80);
    }
}

fn read_varint(r: &mut Reader) -> Result<u64, WireError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = r.u8()?;
        if shift >= 63 && byte > 1 {
            return Err(WireError::Invalid("varint overflow"));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Compresses `input` with delta + RLE.
pub(crate) fn encode(input: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(input.len() / 4 + 16);
    w.u64(input.len() as u64);
    let mut body = Writer::new();
    let mut prev = 0u8;
    let mut i = 0usize;
    while i < input.len() {
        let delta = input[i].wrapping_sub(prev);
        let mut run = 1u64;
        // Runs are over equal *deltas*: constant data and arithmetic ramps
        // both collapse.
        while i + (run as usize) < input.len()
            && input[i + run as usize].wrapping_sub(input[i + run as usize - 1]) == delta
        {
            run += 1;
        }
        body.u8(delta);
        write_varint(&mut body, run);
        prev = input[i + run as usize - 1];
        i += run as usize;
    }
    w.block(&body.into_bytes());
    w.into_bytes()
}

/// Inverse of [`encode`].
pub(crate) fn decode(input: &[u8]) -> Result<Vec<u8>, WireError> {
    let mut r = Reader::new(input);
    let n = crate::wire::checked_count(r.u64()?)?;
    let body = r.block()?;
    let mut b = Reader::new(body);
    let mut out = Vec::with_capacity(n);
    let mut prev = 0u8;
    while out.len() < n {
        let delta = b.u8()?;
        let run = read_varint(&mut b)?;
        if run == 0 || out.len() as u64 + run > n as u64 {
            return Err(WireError::Invalid("rle run length"));
        }
        for _ in 0..run {
            prev = prev.wrapping_add(delta);
            out.push(prev);
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
    fn constant_data_collapses() {
        let data = vec![42u8; 100_000];
        let enc = encode(&data);
        assert!(enc.len() < 40, "len {}", enc.len());
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn arithmetic_ramp_collapses() {
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 256) as u8).collect();
        let enc = encode(&data);
        assert!(
            enc.len() < 60,
            "ramps are a single delta run: {}",
            enc.len()
        );
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn empty_input() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn random_data_roundtrips_with_bounded_expansion() {
        let mut rng = Rng::new(1);
        let data: Vec<u8> = (0..10_000).map(|_| rng.next_u32() as u8).collect();
        let enc = encode(&data);
        assert_eq!(decode(&enc).unwrap(), data);
        // Worst case: 2 bytes per input byte + header.
        assert!(enc.len() <= 2 * data.len() + 32);
    }

    #[test]
    fn zero_runs_from_filtered_gradients() {
        // Typical post-filter codes: mostly zeros with occasional values.
        let mut rng = Rng::new(2);
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                if rng.uniform_f64() < 0.9 {
                    0
                } else {
                    rng.next_u32() as u8
                }
            })
            .collect();
        // Each isolated nonzero costs ~2 tokens (enter + leave delta), so
        // 10% density lands around 0.6x — better than raw, far worse than
        // an entropy coder, which is exactly Table 2's Cascaded placement.
        let enc = encode(&data);
        assert!(enc.len() < data.len() * 7 / 10, "len {}", enc.len());
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn truncation_detected() {
        let enc = encode(&[1, 1, 1, 2, 2, 3]);
        for cut in [0usize, 7, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn zero_run_rejected() {
        // Handcraft a body with run = 0.
        let mut w = Writer::new();
        w.u64(4);
        let mut body = Writer::new();
        body.u8(1);
        body.u8(0); // varint 0
        w.block(&body.into_bytes());
        assert!(decode(&w.into_bytes()).is_err());
    }

    #[test]
    fn overlong_run_rejected() {
        let mut w = Writer::new();
        w.u64(2);
        let mut body = Writer::new();
        body.u8(1);
        body.u8(100); // run of 100 > claimed length 2
        w.block(&body.into_bytes());
        assert!(decode(&w.into_bytes()).is_err());
    }

    #[test]
    fn varint_boundaries() {
        let mut w = Writer::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            write_varint(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            assert_eq!(read_varint(&mut r).unwrap(), v);
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..3000)) {
            let enc = encode(&data);
            prop_assert_eq!(decode(&enc).unwrap(), data);
        }

        #[test]
        fn prop_roundtrip_runs(
            vals in proptest::collection::vec((any::<u8>(), 1usize..50), 0..50)
        ) {
            let data: Vec<u8> = vals.iter().flat_map(|&(v, n)| std::iter::repeat_n(v, n)).collect();
            let enc = encode(&data);
            prop_assert_eq!(decode(&enc).unwrap(), data);
        }
    }
}
