//! Lossless byte encoders (step 3 of Fig. 4a).
//!
//! COMPSO "selects the best-fit GPU encoders from existing
//! implementations" — the eight nvCOMP codecs of Table 2. Each family is
//! reimplemented from scratch here with its defining algorithmic
//! structure, so the Table 2 experiment (entropy coders beat dictionary
//! and run-length coders on quantized-gradient data; ANS wins the
//! ratio×throughput product) reproduces from first principles:
//!
//! | Codec      | structure                          |
//! |------------|------------------------------------|
//! | `Ans`      | static rANS entropy coder          |
//! | `Bitcomp`  | frame-of-reference bit packing     |
//! | `Cascaded` | delta + run-length                 |
//! | `Deflate`  | LZ77 (32 KiB window) + Huffman     |
//! | `Gdeflate` | LZ77 (64 KiB window, deep chains) + Huffman |
//! | `Lz4`      | LZ77, head-only probing            |
//! | `Snappy`   | LZ77, small window, head-only      |
//! | `Zstd`     | LZ77 + rANS                        |

pub mod bitcomp;
pub mod huffman;
pub mod lz;
pub mod rans;
pub mod rle;

use crate::wire::WireError;
use compso_tensor::Instance;
use lz::LzParams;

/// The lossless codec menu (mirrors Table 2 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Codec {
    Ans,
    Bitcomp,
    Cascaded,
    Deflate,
    Gdeflate,
    Lz4,
    Snappy,
    Zstd,
}

impl Codec {
    /// Every codec, in Table 2's row order.
    pub fn all() -> [Codec; 8] {
        [
            Codec::Ans,
            Codec::Bitcomp,
            Codec::Cascaded,
            Codec::Deflate,
            Codec::Gdeflate,
            Codec::Lz4,
            Codec::Snappy,
            Codec::Zstd,
        ]
    }

    /// Display name matching the paper's table.
    pub fn name(self) -> &'static str {
        match self {
            Codec::Ans => "ANS",
            Codec::Bitcomp => "Bitcomp",
            Codec::Cascaded => "Cascaded",
            Codec::Deflate => "Deflate",
            Codec::Gdeflate => "Gdeflate",
            Codec::Lz4 => "LZ4",
            Codec::Snappy => "Snappy",
            Codec::Zstd => "Zstd",
        }
    }

    /// Stable wire id.
    pub fn tag(self) -> u8 {
        match self {
            Codec::Ans => 0,
            Codec::Bitcomp => 1,
            Codec::Cascaded => 2,
            Codec::Deflate => 3,
            Codec::Gdeflate => 4,
            Codec::Lz4 => 5,
            Codec::Snappy => 6,
            Codec::Zstd => 7,
        }
    }

    /// Inverse of [`Codec::tag`].
    pub fn from_tag(tag: u8) -> Option<Codec> {
        Codec::all().into_iter().find(|c| c.tag() == tag)
    }

    /// True for codecs whose final stage is entropy coding — the class
    /// Table 2 finds superior on gradient data.
    pub fn is_entropy_coding(self) -> bool {
        matches!(
            self,
            Codec::Ans | Codec::Deflate | Codec::Gdeflate | Codec::Zstd
        )
    }

    /// Compresses a byte block. Output is self-describing.
    pub fn encode(self, input: &[u8]) -> Vec<u8> {
        self.encode_on(Instance::current(), input)
    }

    /// [`Codec::encode`] with the entropy coder on instance `inst`.
    fn encode_on(self, inst: Instance, input: &[u8]) -> Vec<u8> {
        match self {
            Codec::Ans => rans::encode(inst, input),
            Codec::Bitcomp => bitcomp::encode(input),
            Codec::Cascaded => rle::encode(input),
            Codec::Deflate => huffman::encode(&lz::encode(input, LzParams::deflate())),
            Codec::Gdeflate => huffman::encode(&lz::encode(input, LzParams::gdeflate())),
            Codec::Lz4 => lz::encode(input, LzParams::fast()),
            Codec::Snappy => lz::encode(input, LzParams::snappy()),
            Codec::Zstd => rans::encode(inst, &lz::encode(input, LzParams::gdeflate())),
        }
    }

    /// Inverse of [`Codec::encode`]; errors on corrupt or truncated input.
    pub fn decode(self, input: &[u8]) -> Result<Vec<u8>, WireError> {
        self.decode_on(Instance::current(), input)
    }

    /// [`Codec::decode`] with the entropy coder on instance `inst`.
    fn decode_on(self, inst: Instance, input: &[u8]) -> Result<Vec<u8>, WireError> {
        match self {
            Codec::Ans => rans::decode(inst, input),
            Codec::Bitcomp => bitcomp::decode(input),
            Codec::Cascaded => rle::decode(input),
            Codec::Deflate => lz::decode(&huffman::decode(input)?, LzParams::deflate()),
            Codec::Gdeflate => lz::decode(&huffman::decode(input)?, LzParams::gdeflate()),
            Codec::Lz4 => lz::decode(input, LzParams::fast()),
            Codec::Snappy => lz::decode(input, LzParams::snappy()),
            Codec::Zstd => lz::decode(&rans::decode(inst, input)?, LzParams::gdeflate()),
        }
    }

    /// Block-parallel encode: the input is split into `block` -byte
    /// chunks, each encoded independently (rayon), concatenated with a
    /// small frame header. This is nvCOMP's execution model — "parallel
    /// execution on GPUs via a block processing scheme" (§5.2) — at the
    /// cost of per-block table overhead. The entropy coder's instance is
    /// read on the calling thread: a pin does not reach the workers.
    pub fn encode_blocks(self, input: &[u8], block: usize) -> Vec<u8> {
        use rayon::prelude::*;
        assert!(block > 0, "block size must be positive");
        let inst = Instance::current();
        let encoded: Vec<Vec<u8>> = input
            .par_chunks(block)
            .map(|c| self.encode_on(inst, c))
            .collect();
        let mut w = crate::wire::Writer::with_capacity(input.len() / 2 + 32);
        w.u8(self.tag());
        w.u64(input.len() as u64);
        w.u64(block as u64);
        w.u32(encoded.len() as u32);
        for e in &encoded {
            w.block(e);
        }
        w.into_bytes()
    }

    /// Inverse of [`Codec::encode_blocks`] (also block-parallel).
    pub fn decode_blocks(input: &[u8]) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        Self::decode_blocks_into(input, &mut out)?;
        Ok(out)
    }

    /// [`Codec::decode_blocks`] writing into a caller-owned buffer.
    ///
    /// The buffer's capacity is kept, so steady-state decode loops (one
    /// per training step) stop paying an allocation for the output
    /// stream, and on an error it is left empty. All length fields are
    /// validated against the bytes actually received before anything is
    /// reserved: a hostile block count cannot outrun the buffer because
    /// every block frame costs at least its 8-byte length prefix.
    ///
    /// Every block decodes into its own window of the buffer —
    /// `min(block, total − i·block)` bytes, fixed by the frame header —
    /// and a block that declares any other length is refused; no block's
    /// own header sizes anything. The entropy coder's instance is read on
    /// the calling thread, as [`Codec::encode_blocks`] reads it.
    pub fn decode_blocks_into(input: &[u8], out: &mut Vec<u8>) -> Result<(), WireError> {
        let result = Self::decode_blocks_windowed(Instance::current(), input, out);
        if result.is_err() {
            out.clear();
        }
        result
    }

    /// [`Codec::decode_blocks_into`], leaving `out` unspecified on error.
    fn decode_blocks_windowed(
        inst: Instance,
        input: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        use rayon::prelude::*;
        let mut r = crate::wire::Reader::new(input);
        let codec = Codec::from_tag(r.u8()?).ok_or(WireError::Invalid("codec tag"))?;
        let total = crate::wire::checked_count(r.u64()?)?;
        let block = crate::wire::checked_count(r.u64()?)?;
        if block == 0 {
            return Err(WireError::Invalid("block size"));
        }
        let n_blocks = r.u32()? as usize;
        if n_blocks != total.div_ceil(block) {
            return Err(WireError::Invalid("block count"));
        }
        if n_blocks > r.remaining() / 8 {
            return Err(WireError::Invalid("block count vs buffer"));
        }
        let mut frames = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            frames.push(r.block()?);
        }
        if !r.is_exhausted() {
            return Err(WireError::Invalid("trailing block bytes"));
        }
        // Every byte of `out[..total]` is overwritten on success, so what
        // the buffer held is not cleared first. A buffer that has to grow
        // is taken fresh from the zeroed allocator: until a block passes
        // its checks and writes, a hostile `total` has cost address
        // space, not memory.
        if out.capacity() < total {
            *out = vec![0u8; total];
        } else {
            out.resize(total, 0);
        }
        out.par_chunks_mut(block)
            .zip(frames)
            .map(|(window, frame)| match codec {
                Codec::Ans => rans::decode_into(inst, frame, window),
                _ => {
                    let bytes = codec.decode_on(inst, frame)?;
                    if bytes.len() != window.len() {
                        return Err(WireError::Invalid("block payload length"));
                    }
                    window.copy_from_slice(&bytes);
                    Ok(())
                }
            })
            .collect::<Result<Vec<()>, WireError>>()
            .map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    // Explicit import: proptest's prelude also globs a `Rng` trait.
    use compso_tensor::rng::Rng;

    /// Quantized-gradient-like bytes: heavily skewed toward a center code.
    fn gradient_codes(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                let v = rng.laplace(3.0);
                (64.0 + v).clamp(0.0, 127.0) as u8
            })
            .collect()
    }

    #[test]
    fn all_codecs_roundtrip_gradient_codes() {
        let data = gradient_codes(30_000, 1);
        for codec in Codec::all() {
            let enc = codec.encode(&data);
            assert_eq!(codec.decode(&enc).unwrap(), data, "{}", codec.name());
        }
    }

    #[test]
    fn all_codecs_roundtrip_edge_inputs() {
        let mut rng = Rng::new(2);
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![255; 1],
            vec![0; 10_000],
            (0..=255u8).collect(),
            (0..5000).map(|_| rng.next_u32() as u8).collect(),
        ];
        for codec in Codec::all() {
            for data in &cases {
                let enc = codec.encode(data);
                assert_eq!(&codec.decode(&enc).unwrap(), data, "{}", codec.name());
            }
        }
    }

    #[test]
    fn entropy_coders_beat_dictionary_on_gradient_codes() {
        // Table 2's headline ordering: the gradient-code distribution is
        // non-uniform but has few exact repeats, so entropy coding wins.
        let data = gradient_codes(100_000, 3);
        let ans = Codec::Ans.encode(&data).len();
        let lz4 = Codec::Lz4.encode(&data).len();
        let snappy = Codec::Snappy.encode(&data).len();
        assert!(ans < lz4, "ans {ans} lz4 {lz4}");
        assert!(ans < snappy, "ans {ans} snappy {snappy}");
    }

    #[test]
    fn tags_roundtrip() {
        for codec in Codec::all() {
            assert_eq!(Codec::from_tag(codec.tag()), Some(codec));
        }
        assert_eq!(Codec::from_tag(200), None);
    }

    #[test]
    fn entropy_classification() {
        assert!(Codec::Ans.is_entropy_coding());
        assert!(Codec::Zstd.is_entropy_coding());
        assert!(!Codec::Lz4.is_entropy_coding());
        assert!(!Codec::Cascaded.is_entropy_coding());
    }

    #[test]
    fn block_parallel_roundtrip_all_codecs() {
        let data = gradient_codes(300_000, 9);
        for codec in Codec::all() {
            let enc = codec.encode_blocks(&data, 64 * 1024);
            assert_eq!(
                Codec::decode_blocks(&enc).unwrap(),
                data,
                "{}",
                codec.name()
            );
        }
    }

    #[test]
    fn block_parallel_edge_sizes() {
        for n in [0usize, 1, 1024, 64 * 1024, 64 * 1024 + 1] {
            let data = gradient_codes(n, 10);
            let enc = Codec::Ans.encode_blocks(&data, 64 * 1024);
            assert_eq!(Codec::decode_blocks(&enc).unwrap(), data, "n={n}");
        }
    }

    #[test]
    fn block_parallel_truncation_rejected() {
        let data = gradient_codes(200_000, 11);
        let enc = Codec::Ans.encode_blocks(&data, 32 * 1024);
        for cut in [0usize, 5, 12, enc.len() / 2, enc.len() - 1] {
            assert!(Codec::decode_blocks(&enc[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn decode_blocks_into_reuses_capacity() {
        let big = gradient_codes(150_000, 12);
        let small = gradient_codes(500, 13);
        let enc_big = Codec::Ans.encode_blocks(&big, 32 * 1024);
        let enc_small = Codec::Ans.encode_blocks(&small, 32 * 1024);
        let mut out = Vec::new();
        Codec::decode_blocks_into(&enc_big, &mut out).unwrap();
        assert_eq!(out, big);
        let cap = out.capacity();
        Codec::decode_blocks_into(&enc_small, &mut out).unwrap();
        assert_eq!(out, small);
        assert_eq!(out.capacity(), cap, "scratch capacity was not kept");
    }

    #[test]
    fn hostile_block_count_cannot_outrun_buffer() {
        // Claim a huge total/block-count with almost no bytes behind it:
        // the count is rejected against the actual buffer before any
        // frame vector is reserved.
        let mut w = crate::wire::Writer::new();
        w.u8(Codec::Ans.tag());
        w.u64(1 << 27); // total bytes
        w.u64(1); // block size -> 2^27 blocks
        w.u32(1 << 27);
        let bytes = w.into_bytes();
        assert_eq!(
            Codec::decode_blocks(&bytes),
            Err(WireError::Invalid("block count vs buffer"))
        );
    }

    #[test]
    fn all_codecs_reject_truncated_input() {
        let data = gradient_codes(5000, 4);
        for codec in Codec::all() {
            let enc = codec.encode(&data);
            for cut in [0usize, 3, enc.len() / 2] {
                assert!(
                    codec.decode(&enc[..cut]).is_err(),
                    "{} accepted truncation at {cut}",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn all_codecs_decode_is_deterministic() {
        let data = gradient_codes(2000, 5);
        for codec in Codec::all() {
            let enc = codec.encode(&data);
            assert_eq!(codec.decode(&enc).unwrap(), codec.decode(&enc).unwrap());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_every_codec_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..1500)) {
            for codec in Codec::all() {
                let enc = codec.encode(&data);
                prop_assert_eq!(codec.decode(&enc).unwrap(), data.clone(), "{}", codec.name());
            }
        }

        #[test]
        fn prop_corruption_never_panics(
            data in proptest::collection::vec(any::<u8>(), 1..500),
            flip in any::<(usize, u8)>(),
        ) {
            // Decoding corrupted bytes may error or produce wrong bytes,
            // but must never panic.
            for codec in Codec::all() {
                let mut enc = codec.encode(&data);
                let pos = flip.0 % enc.len();
                enc[pos] ^= flip.1 | 1;
                let _ = codec.decode(&enc);
            }
        }
    }
}
