//! The versioned checkpoint manifest.
//!
//! A coordinated snapshot directory holds one payload file per rank
//! (`rank-R.bin`, the `0xCB` tensor blob of [`crate::encode_tensors`])
//! plus a single `MANIFEST` written **last**: until the manifest exists
//! the snapshot does not exist, which is what makes the tmp-dir + fsync +
//! rename save protocol atomic (a torn save has no manifest and is never
//! loadable).
//!
//! The manifest records, per rank file, its byte length and CRC32. The
//! file itself is self-describing (names, dtypes and shapes live in the
//! blob), so nothing else about it is indexed here.
//!
//! The parser follows the hostile-length discipline of
//! `compso_core::wire`: magic/version checked first, the rank count
//! checked against the bytes actually present, and trailing bytes
//! rejected.

use crate::CkptError;
use compso_core::wire::{Reader, Writer};

/// Manifest magic byte (re-exported from the central
/// `compso_core::wire::magic` registry).
pub use compso_core::wire::magic::MAGIC_MANIFEST;
/// Manifest format version. Version 2 added the membership `epoch`
/// field (elastic training); version 3 dropped the per-tensor index when
/// a rank file became one tensor blob.
pub(crate) const MANIFEST_VERSION: u16 = 3;
/// Largest accepted world size (hostile-input cap).
pub(crate) const WORLD_MAX: usize = 4096;
/// Encoded size of one [`RankFileMeta`]: rank, file length, file CRC32.
const RANK_META_LEN: usize = 4 + 8 + 4;

/// One rank's payload file description.
#[derive(Clone, Debug, PartialEq)]
pub struct RankFileMeta {
    /// Owning rank.
    pub rank: u32,
    /// Total file length in bytes.
    pub file_len: u64,
    /// CRC32 of the whole file.
    pub file_crc32: u32,
}

/// The coordinated snapshot manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Global training step of the snapshot.
    pub step: u64,
    /// World size the snapshot was taken at. Restore into a *different*
    /// world size reshards the owner-sharded factor files across the new
    /// ownership map (striped by file index modulo the new size) and
    /// drops rank-local state; an equal world size restores verbatim.
    pub world_size: u32,
    /// Fingerprint of the training configuration (seed, hyperparameters,
    /// compressor). A mismatch at restore is rejected: resuming under a
    /// different config could not be bit-identical anyway.
    pub fingerprint: u64,
    /// Membership epoch at save time (0 for a group that never changed
    /// view). Restored groups resume epoch numbering from here.
    pub epoch: u64,
    /// One entry per rank, in rank order `0..world_size`.
    pub ranks: Vec<RankFileMeta>,
}

impl RankFileMeta {
    /// Serializes one rank's file description (also used standalone for
    /// the save-time metadata all-gather).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(RANK_META_LEN);
        self.encode_into(&mut w);
        w.into_bytes()
    }

    fn encode_into(&self, w: &mut Writer) {
        w.u32(self.rank);
        w.u64(self.file_len);
        w.u32(self.file_crc32);
    }

    /// Parses a standalone rank-file description.
    pub fn decode(bytes: &[u8]) -> Result<RankFileMeta, CkptError> {
        if bytes.len() != RANK_META_LEN {
            return Err(CkptError::Corrupt("rank meta length"));
        }
        Self::decode_from(&mut Reader::new(bytes))
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<RankFileMeta, CkptError> {
        Ok(RankFileMeta {
            rank: r.u32()?,
            file_len: r.u64()?,
            file_crc32: r.u32()?,
        })
    }
}

impl Manifest {
    /// Serializes the manifest (the store wraps the result in a `0xCF`
    /// CRC frame before writing it to disk).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(128);
        w.u8(MAGIC_MANIFEST);
        w.u16(MANIFEST_VERSION);
        w.u64(self.step);
        w.u32(self.world_size);
        w.u64(self.fingerprint);
        w.u64(self.epoch);
        for rank in &self.ranks {
            rank.encode_into(&mut w);
        }
        w.into_bytes()
    }

    /// Parses and validates a manifest. Beyond the header checks this
    /// enforces that exactly `world_size` rank entries are present, in
    /// rank order `0..world_size`, and nothing after them.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, CkptError> {
        let mut r = Reader::new(bytes);
        if r.u8()? != MAGIC_MANIFEST {
            return Err(CkptError::Corrupt("manifest magic"));
        }
        if r.u16()? != MANIFEST_VERSION {
            return Err(CkptError::Corrupt("manifest version"));
        }
        let step = r.u64()?;
        let world_size = r.u32()?;
        if world_size == 0 || world_size as usize > WORLD_MAX {
            return Err(CkptError::Corrupt("manifest world size"));
        }
        let fingerprint = r.u64()?;
        let epoch = r.u64()?;
        if r.remaining() != world_size as usize * RANK_META_LEN {
            return Err(CkptError::Corrupt("manifest rank count vs buffer"));
        }
        let mut ranks = Vec::with_capacity(world_size as usize);
        for expect in 0..world_size {
            let meta = RankFileMeta::decode_from(&mut r)?;
            if meta.rank != expect {
                return Err(CkptError::Corrupt("manifest ranks out of order"));
            }
            ranks.push(meta);
        }
        Ok(Manifest {
            step,
            world_size,
            fingerprint,
            epoch,
            ranks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            step: 42,
            world_size: 2,
            fingerprint: 0x1234_5678_9ABC_DEF0,
            epoch: 3,
            ranks: vec![
                RankFileMeta {
                    rank: 0,
                    file_len: 30,
                    file_crc32: 1,
                },
                RankFileMeta {
                    rank: 1,
                    file_len: 5,
                    file_crc32: 2,
                },
            ],
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn manifest_rejects_every_truncation() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(Manifest::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn manifest_rejects_trailing_bytes() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(Manifest::decode(&bytes).is_err());
    }

    #[test]
    fn manifest_rejects_an_older_version() {
        // A version-2 manifest indexes its tensors per rank; this build
        // reads rank files as one blob, so the old layout is refused
        // (restore then skips that snapshot as a rung).
        let mut bytes = sample().encode();
        bytes[1..3].copy_from_slice(&2u16.to_le_bytes());
        assert!(matches!(
            Manifest::decode(&bytes),
            Err(CkptError::Corrupt("manifest version"))
        ));
    }

    #[test]
    fn manifest_rejects_rank_disorder_and_bad_world() {
        let mut m = sample();
        m.ranks.swap(0, 1);
        assert!(Manifest::decode(&m.encode()).is_err());
        let mut m = sample();
        m.world_size = 0;
        assert!(Manifest::decode(&m.encode()).is_err());
        let mut m = sample();
        m.world_size = 3;
        assert!(Manifest::decode(&m.encode()).is_err());
    }

    #[test]
    fn rank_meta_standalone_roundtrip() {
        let meta = sample().ranks[0].clone();
        assert_eq!(RankFileMeta::decode(&meta.encode()).unwrap(), meta);
        let mut bytes = meta.encode();
        bytes.push(7);
        assert!(RankFileMeta::decode(&bytes).is_err());
        assert!(RankFileMeta::decode(&bytes[..RANK_META_LEN - 1]).is_err());
    }
}
