//! CRC-checked checkpoint/restore for the COMPSO reproduction.
//!
//! The crate snapshots full training state — model weights, optimizer
//! moments, K-FAC factor state (including cached eigendecompositions and
//! Cholesky factors), distributed schedule metadata, and per-rank RNG
//! streams — into a versioned on-disk format built from the same wire
//! primitives as the training-time compression path:
//!
//! * Each rank's file is the `0xCB` tensor blob ([`encode_tensors`]) —
//!   the raw little-endian bytes of every buffer with its name, dtype
//!   and shape — the same bytes the restore collectives carry.
//!   Bit-exactness of every IEEE word is the contract: resume must
//!   continue the trajectory identically.
//! * A [`Manifest`] (magic `0xCD`) written **last** records each rank
//!   file's length and CRC32. Until the manifest exists the snapshot
//!   does not exist, which makes the tmp-dir + fsync + rename save
//!   protocol atomic.
//! * All parsers follow the hostile-length discipline of
//!   `compso_core::wire`: every count bounded by the bytes present,
//!   every shape product overflow-checked, trailing bytes rejected.
//!
//! The coordination protocol (which rank writes which factors, how
//! restored state is redistributed) lives upstream in `compso-kfac`;
//! this crate owns the format and the single-directory store.

pub mod manifest;
pub mod snapshot;
pub mod store;

pub use manifest::{Manifest, RankFileMeta, MAGIC_MANIFEST};
pub use snapshot::{
    decode_tensors, encode_tensors, Snapshot, TensorData, TensorEntry, MAGIC_TENSORS,
};
pub use store::CheckpointStore;

use compso_core::wire::WireError;

/// Errors surfaced by checkpoint save/load.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem failure (create/write/fsync/rename/read).
    Io(std::io::Error),
    /// Wire-level parse failure (truncation, bad frame CRC, ...).
    Wire(WireError),
    /// Structurally valid wire data that violates a manifest or
    /// snapshot invariant (bad magic or version, rank file length or
    /// CRC vs the manifest, ...).
    Corrupt(&'static str),
    /// No loadable snapshot exists in the store.
    NoSnapshot,
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint io: {e}"),
            CkptError::Wire(e) => write!(f, "checkpoint wire: {e}"),
            CkptError::Corrupt(what) => write!(f, "checkpoint corrupt: {what}"),
            CkptError::NoSnapshot => write!(f, "no loadable snapshot"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            CkptError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for CkptError {
    fn from(e: WireError) -> Self {
        CkptError::Wire(e)
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}
