//! Little-endian binary serialization for compressed streams.
//!
//! Every compressed artifact in this crate is self-describing: headers
//! carry lengths, codec ids and normalization ranges, so decompression
//! needs nothing but the bytes. The reader validates bounds on every
//! access and returns [`WireError`] instead of panicking, which is what
//! the failure-injection tests (truncated/corrupted streams) rely on.

/// Central registry of every wire-format magic byte in the workspace.
///
/// Seven hand-rolled binary formats travel between ranks or to disk; each
/// one's first byte is a magic from this module, and **only** this module
/// may spell the literal values (`compso-lint`'s `wire-magic-registry`
/// rule rejects bare `0xC?` byte literals anywhere else in prod code, and
/// checks this registry for duplicates). Uniqueness is additionally
/// enforced at compile time by the `const` assertion below, so two
/// formats can never become indistinguishable on the wire.
pub mod magic {
    /// The COMPSO stream: chunked-parallel (v2) with a per-chunk
    /// byte-offset index, [`crate::kernels`]. `0xC5`, the retired serial
    /// v1 stream, stays unassigned.
    pub(crate) const MAGIC_STREAM_V2: u8 = 0xC6;
    /// Multi-layer group framing of every per-layer compressor family
    /// (NoCompression, QSGD, SZ, CocktailSGD, PowerSGD),
    /// [`super::frame_group`]. `0xC8`, the retired layer-parallel twin of
    /// this framing, stays unassigned.
    pub(crate) const MAGIC_GROUP: u8 = 0xC7;
    /// Elastic membership-view frame (proposal / rejoin-request /
    /// welcome), `compso-comm`'s membership protocol.
    pub const MAGIC_MEMBERSHIP: u8 = 0xC9;
    /// PowerSGD low-rank factor stream (`P̂`/`Q` pair or raw escape),
    /// [`crate::baselines::PowerSgd`].
    pub(crate) const MAGIC_POWERSGD: u8 = 0xCA;
    /// Tensor blob (`compso-ckpt`): a checkpoint rank file, and every
    /// tensor list moved between ranks (restore's shards and globals, a
    /// rejoin's epoch-stamped catch-up). `0xCC`, the retired rejoin
    /// delta that wrapped a second copy of this blob, stays unassigned.
    pub const MAGIC_TENSORS: u8 = 0xCB;
    /// Checkpoint manifest, written last to commit a snapshot
    /// (`compso-ckpt`).
    pub const MAGIC_MANIFEST: u8 = 0xCD;
    /// CRC-32 integrity frame wrapped around compressed payloads before
    /// they enter a collective, [`super::frame_checksummed`].
    pub(crate) const MAGIC_FRAME: u8 = 0xCF;

    /// Every registered magic with its format name, for diagnostics and
    /// the uniqueness tests.
    pub(crate) const ALL: &[(&str, u8)] = &[
        ("stream_v2", MAGIC_STREAM_V2),
        ("group", MAGIC_GROUP),
        ("membership", MAGIC_MEMBERSHIP),
        ("powersgd", MAGIC_POWERSGD),
        ("tensors", MAGIC_TENSORS),
        ("manifest", MAGIC_MANIFEST),
        ("frame", MAGIC_FRAME),
    ];

    /// Compile-time uniqueness proof: building this crate fails if two
    /// registered magics collide.
    const _: () = {
        let mut i = 0;
        while i < ALL.len() {
            let mut j = i + 1;
            while j < ALL.len() {
                assert!(ALL[i].1 != ALL[j].1, "duplicate wire magic byte");
                j += 1;
            }
            i += 1;
        }
    };
}

/// Upper bound on element counts accepted from untrusted headers.
///
/// 2^28 elements (1 GiB of f32) is far beyond any single K-FAC gradient
/// buffer; larger counts are treated as corruption so that a flipped bit
/// in a length field cannot drive a multi-gigabyte allocation.
pub const MAX_DECODE_ELEMS: usize = 1 << 28;

/// Validates an element count read from an untrusted header.
pub fn checked_count(n: u64) -> Result<usize, WireError> {
    let n = usize::try_from(n).map_err(|_| WireError::Invalid("element count"))?;
    if n > MAX_DECODE_ELEMS {
        return Err(WireError::Invalid("implausible element count"));
    }
    Ok(n)
}

use magic::MAGIC_FRAME;

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slicing-by-8 extension of [`CRC32_TABLE`]: `TABLE[t][b]` advances a
/// CRC whose low byte is `b` by `t + 1` further zero bytes, letting the
/// hot loop fold 8 input bytes per iteration with 8 independent table
/// loads instead of 8 dependent single-byte steps. Built at compile
/// time from the same polynomial; the bytewise loop remains the oracle
/// (`crc32_sliced_matches_bytewise`).
const CRC32_TABLE8: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    t[0] = CRC32_TABLE;
    let mut i = 0;
    while i < 256 {
        let mut j = 1;
        while j < 8 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ CRC32_TABLE[(prev & 0xFF) as usize];
            j += 1;
        }
        i += 1;
    }
    t
};

/// IEEE CRC-32 of `bytes` (the polynomial used by zip/ethernet).
///
/// Guards compressed payloads against in-flight corruption: any single
/// bit flip — and any burst shorter than 32 bits — is guaranteed to
/// change the checksum.
///
/// The implementation slices the input 8 bytes at a time (checkpoint
/// files CRC whole multi-megabyte payloads on every save and load, so
/// the bytewise loop was a measurable slice of snapshot latency); the
/// result is identical to the canonical bytewise definition for every
/// input.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

/// Streaming form of [`crc32`] for input that arrives in pieces: start
/// from `0xFFFF_FFFF`, feed each piece's result into the next call, and
/// invert the last one. Splitting the input anywhere gives the same
/// checksum.
pub fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC32_TABLE8[7][(lo & 0xFF) as usize]
            ^ CRC32_TABLE8[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32_TABLE8[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32_TABLE8[4][(lo >> 24) as usize]
            ^ CRC32_TABLE8[3][(hi & 0xFF) as usize]
            ^ CRC32_TABLE8[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC32_TABLE8[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC32_TABLE8[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The canonical one-byte-at-a-time CRC loop, retained as the oracle
/// for the sliced implementation.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Wraps `payload` in an integrity frame:
/// `[MAGIC_FRAME][u32 crc32][u64 len][payload]`.
///
/// [`unframe_checksummed`] verifies length and checksum before handing
/// the payload back, so a corrupted collective delivery is detected at
/// the receiver instead of surfacing as a garbage gradient.
pub fn frame_checksummed(payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(payload.len() + 13);
    w.u8(MAGIC_FRAME);
    w.u32(crc32(payload));
    w.u64(payload.len() as u64);
    w.bytes(payload);
    w.into_bytes()
}

/// Inverse of [`frame_checksummed`]: validates magic, length, and CRC
/// and returns the payload slice. Never allocates based on the embedded
/// length — the length is checked against the actual buffer first.
pub fn unframe_checksummed(frame: &[u8]) -> Result<&[u8], WireError> {
    let mut r = Reader::new(frame);
    if r.u8()? != MAGIC_FRAME {
        return Err(WireError::Invalid("checksum frame magic"));
    }
    let want_crc = r.u32()?;
    let len = r.u64()?;
    let len = usize::try_from(len).map_err(|_| WireError::Invalid("frame length"))?;
    if len != r.remaining() {
        return Err(WireError::Truncated {
            need: len,
            have: r.remaining(),
        });
    }
    let payload = r.bytes(len)?;
    if crc32(payload) != want_crc {
        return Err(WireError::Invalid("checksum mismatch"));
    }
    Ok(payload)
}

/// Total on-wire length of the checksum frame starting at `buf[0]`, when
/// its header is well-formed and the frame fits inside `buf`. Lets a
/// reader walk a concatenation of [`frame_checksummed`] frames (the
/// per-group streaming gather payload) without any extra length
/// prefixes: frames are self-delimiting. Returns `None` on a bad magic,
/// a short header, or an embedded length pointing past `buf` — the
/// caller treats that as a corrupt payload, never as an allocation size.
pub fn framed_len(buf: &[u8]) -> Option<usize> {
    const HEADER: usize = 13; // magic + u32 crc + u64 len
    if buf.len() < HEADER || buf[0] != MAGIC_FRAME {
        return None;
    }
    let len = u64::from_le_bytes(buf[5..13].try_into().ok()?);
    let len = usize::try_from(len).ok()?;
    let total = HEADER.checked_add(len)?;
    (total <= buf.len()).then_some(total)
}

/// Frames per-layer blocks as one multi-layer group:
/// `[MAGIC_GROUP][u32 n]` then, per layer, `[u64 len][block]`. A pure
/// format: whether the blocks were produced serially or one rayon worker
/// per layer is the compressor family's business, and [`unframe_group`]
/// hands them back as slices so the decode side can fan out the same way.
pub(crate) fn frame_group(blocks: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = blocks.iter().map(|b| 8 + b.len()).sum();
    let mut w = Writer::with_capacity(5 + total);
    w.u8(magic::MAGIC_GROUP);
    w.u32(blocks.len() as u32);
    for b in blocks {
        w.block(b);
    }
    w.into_bytes()
}

/// Inverse of [`frame_group`]: the per-layer blocks, borrowed from
/// `bytes`. The layer count must fit the length prefixes the buffer
/// actually holds, every block length is checked against the bytes that
/// remain, and trailing bytes are rejected.
pub(crate) fn unframe_group(bytes: &[u8]) -> Result<Vec<&[u8]>, WireError> {
    let mut r = Reader::new(bytes);
    if r.u8()? != magic::MAGIC_GROUP {
        return Err(WireError::Invalid("group magic"));
    }
    let n_layers = r.u32()? as usize;
    if n_layers > 1_000_000 || n_layers > r.remaining() / 8 {
        return Err(WireError::Invalid("group layer count"));
    }
    let blocks = (0..n_layers)
        .map(|_| r.block())
        .collect::<Result<Vec<_>, _>>()?;
    if !r.is_exhausted() {
        return Err(WireError::Invalid("trailing group bytes"));
    }
    Ok(blocks)
}

/// Error produced when decoding a malformed or truncated stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended before the expected field.
    Truncated { need: usize, have: usize },
    /// A field held an invalid value.
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated stream: need {need} bytes, have {have}")
            }
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only byte writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// A fresh writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Current length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Finishes and returns the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Raw bytes, no length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed (u64) byte block.
    pub fn block(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.bytes(v);
    }
}

/// Bounds-checked byte reader.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the stream is fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Raw bytes of known length.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// A length-prefixed block written by [`Writer::block`].
    pub fn block(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| WireError::Invalid("block length"))?;
        if n > self.remaining() {
            return Err(WireError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_types() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(65_000);
        w.u32(4_000_000_000);
        w.u64(u64::MAX - 1);
        w.f32(-3.25);
        w.block(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65_000);
        assert_eq!(r.u32().unwrap(), 4_000_000_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap(), -3.25);
        assert_eq!(r.block().unwrap(), &[1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = Writer::new();
        w.u32(5);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..2]);
        assert!(matches!(r.u32(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn oversized_block_length_rejected() {
        let mut w = Writer::new();
        w.u64(1_000_000); // claims a million bytes follow
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.block(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn empty_block_roundtrip() {
        let mut w = Writer::new();
        w.block(&[]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.block().unwrap(), &[] as &[u8]);
    }

    #[test]
    fn magic_registry_is_unique_and_stable() {
        // Pairwise distinct (the const assertion proves this at compile
        // time; this keeps the property visible in the test report).
        for (i, (name_a, a)) in magic::ALL.iter().enumerate() {
            for (name_b, b) in &magic::ALL[i + 1..] {
                assert_ne!(a, b, "{name_a} and {name_b} share a magic byte");
            }
        }
        // Wire compatibility: the registered values are frozen — changing
        // any of them silently orphans every previously written stream,
        // snapshot, and checkpoint.
        assert_eq!(magic::MAGIC_STREAM_V2, 0xC6);
        assert_eq!(magic::MAGIC_GROUP, 0xC7);
        assert_eq!(magic::MAGIC_MEMBERSHIP, 0xC9);
        assert_eq!(magic::MAGIC_POWERSGD, 0xCA);
        assert_eq!(magic::MAGIC_TENSORS, 0xCB);
        assert_eq!(magic::MAGIC_MANIFEST, 0xCD);
        assert_eq!(magic::MAGIC_FRAME, 0xCF);
        assert_eq!(magic::ALL.len(), 7);
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_sliced_matches_bytewise() {
        // The 8-byte slicing kernel against the canonical loop, across
        // every alignment of the chunked main loop and its tail.
        let mut buf = Vec::new();
        let mut x = 0x12345678u32;
        for n in 0..100usize {
            buf.clear();
            for _ in 0..n {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                buf.push((x >> 24) as u8);
            }
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "n={n}");
            // Fed in two pieces, split anywhere: the same checksum.
            for split in 0..=n {
                let (a, b) = buf.split_at(split);
                let streamed = !crc32_update(crc32_update(!0, a), b);
                assert_eq!(streamed, crc32(&buf), "n={n} split={split}");
            }
        }
        // One large buffer exercising sustained 8-byte folding.
        buf.clear();
        for i in 0..65_537u32 {
            buf.push((i.wrapping_mul(2654435761) >> 13) as u8);
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }

    #[test]
    fn checksum_frame_roundtrip_and_detection() {
        let payload = vec![0xAB; 257];
        let frame = frame_checksummed(&payload);
        assert_eq!(frame[0], MAGIC_FRAME);
        assert_eq!(unframe_checksummed(&frame).unwrap(), payload.as_slice());

        // Every single-bit flip anywhere in the frame is detected.
        for byte in [0usize, 1, 5, 12, 13, frame.len() - 1] {
            for bit in [0u8, 3, 7] {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    unframe_checksummed(&bad).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }

        // Truncation and extension are detected.
        assert!(unframe_checksummed(&frame[..frame.len() - 1]).is_err());
        let mut long = frame.clone();
        long.push(0);
        assert!(unframe_checksummed(&long).is_err());

        // A hostile length prefix cannot drive an allocation: the frame
        // declares 2^60 bytes but the function just errors.
        let mut hostile = frame_checksummed(&[1, 2, 3]);
        hostile[5..13].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(unframe_checksummed(&hostile).is_err());
    }

    #[test]
    fn empty_payload_frames() {
        let frame = frame_checksummed(&[]);
        assert_eq!(unframe_checksummed(&frame).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn framed_len_walks_concatenated_frames() {
        let a = frame_checksummed(&[1, 2, 3]);
        let b = frame_checksummed(&[]);
        let c = frame_checksummed(&vec![9u8; 300]);
        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        concat.extend_from_slice(&c);
        // Walk the concatenation frame by frame.
        let mut off = 0usize;
        let mut lens = Vec::new();
        while off < concat.len() {
            let l = framed_len(&concat[off..]).expect("well-formed frame");
            assert!(unframe_checksummed(&concat[off..off + l]).is_ok());
            lens.push(l);
            off += l;
        }
        assert_eq!(off, concat.len());
        assert_eq!(lens, vec![a.len(), b.len(), c.len()]);

        // Hostile inputs yield None, never a length past the buffer.
        assert_eq!(framed_len(&[]), None);
        assert_eq!(framed_len(&a[..12]), None); // short header
        let mut bad_magic = a.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(framed_len(&bad_magic), None);
        let mut hostile = a.clone();
        hostile[5..13].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert_eq!(framed_len(&hostile), None);
        // Truncated body: header claims more than the buffer holds.
        assert_eq!(framed_len(&c[..c.len() - 1]), None);
    }

    #[test]
    fn group_frame_roundtrips_including_empty_blocks() {
        let blocks = vec![vec![1u8, 2, 3], vec![], vec![9u8; 33]];
        let frame = frame_group(&blocks);
        assert_eq!(frame[0], magic::MAGIC_GROUP);
        assert_eq!(frame.len(), 5 + 3 * 8 + 36);
        let back = unframe_group(&frame).unwrap();
        assert_eq!(back, blocks.iter().map(Vec::as_slice).collect::<Vec<_>>());
        // Zero layers is a valid (tiny) frame too.
        assert!(unframe_group(&frame_group(&[])).unwrap().is_empty());
    }

    #[test]
    fn group_frame_rejects_truncation_trailing_bytes_and_hostile_headers() {
        let mut frame = frame_group(&[vec![7u8; 9], vec![8u8; 4]]);
        for cut in 0..frame.len() {
            assert!(unframe_group(&frame[..cut]).is_err(), "cut={cut}");
        }
        frame.push(0xAB);
        assert!(unframe_group(&frame).is_err(), "trailing byte");
        frame.pop();
        frame[0] = magic::MAGIC_STREAM_V2;
        assert!(unframe_group(&frame).is_err(), "magic");
        // An absurd layer count with no prefixes behind it, and a block
        // length far past the buffer: both error before any allocation.
        let mut w = Writer::new();
        w.u8(magic::MAGIC_GROUP);
        w.u32(u32::MAX);
        assert!(unframe_group(&w.into_bytes()).is_err());
        let mut w = Writer::new();
        w.u8(magic::MAGIC_GROUP);
        w.u32(1);
        w.u64(u64::MAX / 2);
        assert!(unframe_group(&w.into_bytes()).is_err());
    }

    #[test]
    fn remaining_tracks_position() {
        let bytes = [0u8; 10];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.remaining(), 10);
        r.u32().unwrap();
        assert_eq!(r.remaining(), 6);
        r.bytes(6).unwrap();
        assert!(r.is_exhausted());
    }
}
