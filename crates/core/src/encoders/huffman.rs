//! Canonical Huffman coding over byte symbols.
//!
//! The entropy-coding backend of the Deflate/Gdeflate-family codecs
//! (Table 2 of the paper). Code lengths come from a standard heap-built
//! Huffman tree; codes are canonical, so the header only carries the 256
//! code lengths. Inputs whose Huffman stream would not shrink — or whose
//! tree would exceed 32-bit codes, which requires pathological
//! Fibonacci-like frequencies — are emitted as stored blocks.

use crate::wire::{Reader, WireError, Writer};

const MAX_CODE_LEN: u32 = 32;
const MODE_STORED: u8 = 0;
const MODE_HUFFMAN: u8 = 1;

/// Computes Huffman code lengths for the 256 byte symbols from counts.
/// Symbols with zero count get length 0 (no code).
fn code_lengths(counts: &[u64; 256]) -> [u32; 256] {
    let mut lengths = [0u32; 256];
    let active: Vec<usize> = (0..256).filter(|&s| counts[s] > 0).collect();
    match active.len() {
        0 => return lengths,
        1 => {
            lengths[active[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Heap of (weight, node). Nodes 0..256 are leaves; internal nodes are
    // appended. parent[] lets us read depths off afterwards.
    #[derive(PartialEq, Eq)]
    struct Item(u64, usize);
    impl Ord for Item {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap; tie-break on node id for determinism.
            o.0.cmp(&self.0).then(o.1.cmp(&self.1))
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }

    let mut heap = std::collections::BinaryHeap::new();
    let mut parent: Vec<usize> = vec![usize::MAX; 256];
    for &s in &active {
        heap.push(Item(counts[s], s));
    }
    while heap.len() > 1 {
        let a = heap.pop().unwrap();
        let b = heap.pop().unwrap();
        let node = parent.len();
        parent.push(usize::MAX);
        parent[a.1] = node;
        parent[b.1] = node;
        heap.push(Item(a.0 + b.0, node));
    }
    let root = heap.pop().unwrap().1;
    for &s in &active {
        let mut depth = 0;
        let mut n = s;
        while n != root {
            n = parent[n];
            depth += 1;
        }
        lengths[s] = depth;
    }
    lengths
}

/// Assigns canonical codes given lengths: shorter codes first, ties by
/// symbol value. Returns (code, length) pairs.
fn canonical_codes(lengths: &[u32; 256]) -> [(u64, u32); 256] {
    let mut codes = [(0u64, 0u32); 256];
    let mut symbols: Vec<usize> = (0..256).filter(|&s| lengths[s] > 0).collect();
    symbols.sort_by_key(|&s| (lengths[s], s));
    let mut code = 0u64;
    let mut prev_len = 0u32;
    for &s in &symbols {
        let len = lengths[s];
        code <<= len - prev_len;
        codes[s] = (code, len);
        code += 1;
        prev_len = len;
    }
    codes
}

/// A canonical decoding table: per length, the first code and the base
/// index into the length-sorted symbol list.
struct DecodeTable {
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u8>,
    /// `first_code[l]`, `first_index[l]` for each length `l`.
    first_code: Vec<u64>,
    first_index: Vec<usize>,
    max_len: u32,
}

impl DecodeTable {
    fn new(lengths: &[u32; 256]) -> Result<Self, WireError> {
        let mut symbols: Vec<u8> = (0..256u16)
            .filter(|&s| lengths[s as usize] > 0)
            .map(|s| s as u8)
            .collect();
        symbols.sort_by_key(|&s| (lengths[s as usize], s));
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len > MAX_CODE_LEN {
            return Err(WireError::Invalid("huffman code length"));
        }
        // Kraft check: a valid (possibly non-full for the 1-symbol case)
        // prefix code has sum 2^-l <= 1.
        let kraft: f64 = symbols
            .iter()
            .map(|&s| 0.5f64.powi(lengths[s as usize] as i32))
            .sum();
        if kraft > 1.0 + 1e-9 {
            return Err(WireError::Invalid("huffman kraft inequality"));
        }
        let mut first_code = vec![0u64; (max_len + 2) as usize];
        let mut first_index = vec![0usize; (max_len + 2) as usize];
        let mut code = 0u64;
        let mut idx = 0usize;
        for l in 1..=max_len {
            first_code[l as usize] = code;
            first_index[l as usize] = idx;
            let count = symbols
                .iter()
                .filter(|&&s| lengths[s as usize] == l)
                .count();
            code = (code + count as u64) << 1;
            idx += count;
        }
        first_index[(max_len + 1) as usize] = idx;
        Ok(DecodeTable {
            symbols,
            first_code,
            first_index,
            max_len,
        })
    }

    /// Walks bits MSB-first until a code completes.
    fn decode_symbol(&self, bits: &mut BitReader) -> Result<u8, WireError> {
        let mut code = 0u64;
        for l in 1..=self.max_len {
            code = (code << 1) | bits.next()? as u64;
            let count = self.first_index[l as usize + 1] - self.first_index[l as usize];
            let first = self.first_code[l as usize];
            if count > 0 && code >= first && code < first + count as u64 {
                let idx = self.first_index[l as usize] + (code - first) as usize;
                return Ok(self.symbols[idx]);
            }
        }
        Err(WireError::Invalid("huffman code walk"))
    }
}

/// MSB-first bit writer.
struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            out: Vec::new(),
            acc: 0,
            nbits: 0,
        }
    }

    fn push(&mut self, code: u64, len: u32) {
        debug_assert!(len <= MAX_CODE_LEN);
        self.acc = (self.acc << len) | (code & ((1u128 << len) - 1) as u64);
        self.nbits += len;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.out.push((self.acc >> self.nbits) as u8);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc << (8 - self.nbits)) as u8);
        }
        self.out
    }
}

/// MSB-first bit reader.
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    bit: u32,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            pos: 0,
            bit: 0,
        }
    }

    fn next(&mut self) -> Result<u8, WireError> {
        if self.pos >= self.bytes.len() {
            return Err(WireError::Truncated {
                need: self.pos + 1,
                have: self.bytes.len(),
            });
        }
        let b = (self.bytes[self.pos] >> (7 - self.bit)) & 1;
        self.bit += 1;
        if self.bit == 8 {
            self.bit = 0;
            self.pos += 1;
        }
        Ok(b)
    }
}

/// Compresses `input` with canonical Huffman coding.
pub(crate) fn encode(input: &[u8]) -> Vec<u8> {
    let mut counts = [0u64; 256];
    for &b in input {
        counts[b as usize] += 1;
    }
    let lengths = code_lengths(&counts);
    let max_len = lengths.iter().copied().max().unwrap_or(0);

    let stored = |input: &[u8]| {
        let mut w = Writer::with_capacity(input.len() + 16);
        w.u8(MODE_STORED);
        w.block(input);
        w.into_bytes()
    };

    if input.is_empty() || max_len > MAX_CODE_LEN {
        return stored(input);
    }

    let codes = canonical_codes(&lengths);
    let mut bits = BitWriter::new();
    for &b in input {
        let (code, len) = codes[b as usize];
        bits.push(code, len);
    }
    let payload = bits.finish();

    let mut w = Writer::with_capacity(payload.len() + 300);
    w.u8(MODE_HUFFMAN);
    w.u64(input.len() as u64);
    for &l in &lengths {
        w.u8(l as u8);
    }
    w.block(&payload);
    let out = w.into_bytes();
    if out.len() >= input.len() + 9 {
        stored(input)
    } else {
        out
    }
}

/// Inverse of [`encode`].
pub(crate) fn decode(input: &[u8]) -> Result<Vec<u8>, WireError> {
    let mut r = Reader::new(input);
    match r.u8()? {
        MODE_STORED => Ok(r.block()?.to_vec()),
        MODE_HUFFMAN => {
            let n = crate::wire::checked_count(r.u64()?)?;
            let mut lengths = [0u32; 256];
            for l in lengths.iter_mut() {
                *l = r.u8()? as u32;
            }
            let table = DecodeTable::new(&lengths)?;
            let payload = r.block()?;
            let mut bits = BitReader::new(payload);
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(table.decode_symbol(&mut bits)?);
            }
            Ok(out)
        }
        _ => Err(WireError::Invalid("huffman mode byte")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    // Explicit import: proptest's prelude also globs a `Rng` trait.
    use compso_tensor::rng::Rng;

    #[test]
    fn roundtrip_simple() {
        let data = b"abracadabra abracadabra".to_vec();
        let enc = encode(&data);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn empty_input() {
        let enc = encode(&[]);
        assert_eq!(decode(&enc).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn single_symbol_stream() {
        let data = vec![42u8; 10_000];
        let enc = encode(&data);
        assert!(
            enc.len() < 2000,
            "single-symbol should compress hugely: {}",
            enc.len()
        );
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn two_symbols() {
        let data: Vec<u8> = (0..1000).map(|i| if i % 3 == 0 { 7 } else { 9 }).collect();
        let enc = encode(&data);
        assert_eq!(decode(&enc).unwrap(), data);
        // 1 bit/symbol + header.
        assert!(enc.len() < 450);
    }

    #[test]
    fn skewed_distribution_compresses() {
        let mut rng = Rng::new(1);
        // Geometric-ish distribution over few symbols.
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                let u = rng.uniform_f64();
                if u < 0.7 {
                    0
                } else if u < 0.9 {
                    1
                } else if u < 0.97 {
                    2
                } else {
                    (rng.below(16)) as u8
                }
            })
            .collect();
        let enc = encode(&data);
        assert!(enc.len() < data.len() / 3, "len {}", enc.len());
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn incompressible_falls_back_to_stored() {
        let mut rng = Rng::new(2);
        let data: Vec<u8> = (0..5000).map(|_| rng.next_u32() as u8).collect();
        let enc = encode(&data);
        // Stored block adds only a small header.
        assert!(enc.len() <= data.len() + 16);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn truncation_detected() {
        let data = b"hello hello hello hello hello".to_vec();
        let enc = encode(&data);
        for cut in [0usize, 1, 5, enc.len() / 2] {
            assert!(decode(&enc[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn corrupt_mode_byte_detected() {
        let mut enc = encode(b"data data data");
        enc[0] = 0xEE;
        assert!(decode(&enc).is_err());
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let mut counts = [0u64; 256];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = (i as u64 % 7) + 1;
        }
        let lengths = code_lengths(&counts);
        let codes = canonical_codes(&lengths);
        // Check prefix-freeness pairwise on the bit strings.
        let active: Vec<usize> = (0..256).filter(|&s| lengths[s] > 0).collect();
        for &a in &active {
            for &b in &active {
                if a == b {
                    continue;
                }
                let (ca, la) = codes[a];
                let (cb, lb) = codes[b];
                if la <= lb {
                    assert_ne!(ca, cb >> (lb - la), "symbol {a} prefixes {b}");
                }
            }
        }
    }

    #[test]
    fn kraft_equality_for_full_trees() {
        let mut counts = [0u64; 256];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = 1 + (i as u64) * 3;
        }
        let lengths = code_lengths(&counts);
        let kraft: f64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 0.5f64.powi(l as i32))
            .sum();
        assert!((kraft - 1.0).abs() < 1e-12, "kraft {kraft}");
    }

    proptest! {
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
            let enc = encode(&data);
            prop_assert_eq!(decode(&enc).unwrap(), data);
        }

        #[test]
        fn prop_roundtrip_low_entropy(
            data in proptest::collection::vec(0u8..4, 0..2000)
        ) {
            let enc = encode(&data);
            prop_assert_eq!(decode(&enc).unwrap(), data);
        }
    }
}
