//! The on-disk checkpoint store: atomic saves, discovery, and GC.
//!
//! Layout under the store root:
//!
//! ```text
//! root/
//!   step-000000000042/          # one committed snapshot
//!     rank-0.bin                # per-rank `0xCB` tensor blob
//!     rank-1.bin
//!     MANIFEST                  # CRC-framed [`Manifest`], written LAST
//!   .tmp-step-000000000084/     # in-flight save (never loadable)
//! ```
//!
//! The save protocol is tmp-dir + fsync + rename + manifest-last:
//! payload files are written and fsynced inside a hidden `.tmp-` dir,
//! the manifest is written and fsynced there too, and only then is the
//! directory renamed into place (followed by an fsync of the store root
//! so the rename itself is durable). A crash at any intermediate point
//! leaves either a `.tmp-` dir (ignored by discovery, reaped by GC) or
//! a step dir missing its `MANIFEST` (rejected at load); the previous
//! retained snapshot stays loadable throughout.
//!
//! Step directories are named with zero-padded decimal
//! (`step-{:012}`) so lexical order equals numeric order.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::PathBuf;

use crate::manifest::{Manifest, RankFileMeta};
use crate::snapshot::{decode_tensors, encode_tensors, Snapshot};
use crate::CkptError;
use compso_core::wire::{crc32, frame_checksummed, unframe_checksummed};

/// Name of the manifest file inside a committed step directory.
pub(crate) const MANIFEST_FILE: &str = "MANIFEST";

/// A directory of coordinated snapshots with bounded retention.
pub struct CheckpointStore {
    root: PathBuf,
    retain_last: usize,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store rooted at `root`, keeping at
    /// most `retain_last` committed snapshots after [`Self::gc`].
    pub fn new(root: impl Into<PathBuf>, retain_last: usize) -> Result<CheckpointStore, CkptError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(CheckpointStore {
            root,
            retain_last: retain_last.max(1),
        })
    }

    fn step_dir(&self, step: u64) -> PathBuf {
        self.root.join(format!("step-{step:012}"))
    }

    fn tmp_dir(&self, step: u64) -> PathBuf {
        self.root.join(format!(".tmp-step-{step:012}"))
    }

    /// Creates a fresh in-flight directory for `step`, clearing any
    /// stale leftover from a previous crashed save of the same step.
    pub fn prepare_tmp(&self, step: u64) -> Result<(), CkptError> {
        let tmp = self.tmp_dir(step);
        if tmp.exists() {
            fs::remove_dir_all(&tmp)?;
        }
        fs::create_dir_all(&tmp)?;
        Ok(())
    }

    /// Writes one rank's payload file — the `0xCB` tensor blob of
    /// [`encode_tensors`], the same bytes the restore collectives carry —
    /// into the in-flight directory of `step`, fsyncing it before
    /// returning. The returned [`RankFileMeta`] records the file's length
    /// and CRC32, which load checks before it parses a byte.
    pub fn write_rank_file(
        &self,
        step: u64,
        rank: u32,
        snapshot: &Snapshot,
    ) -> Result<RankFileMeta, CkptError> {
        let file = encode_tensors(&snapshot.tensors);
        let path = self.tmp_dir(step).join(format!("rank-{rank}.bin"));
        let mut f = File::create(&path)?;
        f.write_all(&file)?;
        f.sync_all()?;
        Ok(RankFileMeta {
            rank,
            file_len: file.len() as u64,
            file_crc32: crc32(&file),
        })
    }

    /// Writes the manifest (CRC-framed) into the in-flight directory,
    /// fsyncs it, atomically renames the directory into place, and
    /// fsyncs the store root so the rename is durable. After this
    /// returns the snapshot is loadable; before it, it never is.
    ///
    /// Returns the manifest's on-disk byte length.
    pub fn commit(&self, manifest: &Manifest) -> Result<u64, CkptError> {
        let tmp = self.tmp_dir(manifest.step);
        let framed = frame_checksummed(&manifest.encode());
        let path = tmp.join(MANIFEST_FILE);
        let mut f = File::create(&path)?;
        f.write_all(&framed)?;
        f.sync_all()?;
        let final_dir = self.step_dir(manifest.step);
        if final_dir.exists() {
            // Re-saving the same step (e.g. crash loop): replace.
            fs::remove_dir_all(&final_dir)?;
        }
        fs::rename(&tmp, &final_dir)?;
        // Persist the rename itself.
        File::open(&self.root)?.sync_all()?;
        Ok(framed.len() as u64)
    }

    /// Lists committed snapshot steps in ascending order. Only
    /// directories named `step-*` with a parseable step number count;
    /// `.tmp-*` leftovers and foreign files are ignored.
    pub fn list_steps(&self) -> Result<Vec<u64>, CkptError> {
        let mut steps = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let name = entry.file_name();
            let Some(rest) = name.to_str().and_then(|n| n.strip_prefix("step-")) else {
                continue;
            };
            if let Ok(step) = rest.parse::<u64>() {
                steps.push(step);
            }
        }
        steps.sort_unstable();
        Ok(steps)
    }

    /// Reads and validates the manifest of a committed snapshot. A
    /// step directory without a readable, CRC-valid manifest is not a
    /// snapshot (this is what makes torn saves unloadable).
    pub fn load_manifest(&self, step: u64) -> Result<Manifest, CkptError> {
        let bytes = fs::read(self.step_dir(step).join(MANIFEST_FILE))?;
        let payload = unframe_checksummed(&bytes)?;
        let m = Manifest::decode(payload)?;
        if m.step != step {
            return Err(CkptError::Corrupt("manifest step vs directory"));
        }
        Ok(m)
    }

    /// Loads one rank's payload file of a committed snapshot. The
    /// file's length and CRC32 are checked against the manifest before
    /// [`decode_tensors`] parses it, so every stored byte is covered by
    /// one CRC and the blob parser only ever sees bytes that were written.
    pub fn load_rank(
        &self,
        step: u64,
        manifest: &Manifest,
        rank: u32,
    ) -> Result<Snapshot, CkptError> {
        let meta = manifest
            .ranks
            .iter()
            .find(|r| r.rank == rank)
            .ok_or(CkptError::Corrupt("rank missing from manifest"))?;
        let path = self.step_dir(step).join(format!("rank-{rank}.bin"));
        let file = fs::read(&path)?;
        if file.len() as u64 != meta.file_len {
            return Err(CkptError::Corrupt("rank file length vs manifest"));
        }
        if crc32(&file) != meta.file_crc32 {
            return Err(CkptError::Corrupt("rank file crc"));
        }
        Ok(Snapshot {
            step: manifest.step,
            tensors: decode_tensors(&file)?,
        })
    }

    /// Removes committed snapshots beyond the newest `retain_last` and
    /// any stale `.tmp-*` directories. Returns how many directories
    /// were removed.
    pub fn gc(&self) -> Result<usize, CkptError> {
        let steps = self.list_steps()?;
        let mut removed = 0;
        if steps.len() > self.retain_last {
            for &step in &steps[..steps.len() - self.retain_last] {
                fs::remove_dir_all(self.step_dir(step))?;
                removed += 1;
            }
        }
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name();
            let is_tmp = name.to_str().is_some_and(|n| n.starts_with(".tmp-step-"));
            if is_tmp && entry.file_type()?.is_dir() {
                fs::remove_dir_all(entry.path())?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{TensorData, TensorEntry};
    use compso_tensor::Matrix;

    fn temp_root(tag: &str) -> PathBuf {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("compso-ckpt-{tag}-{pid}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_snapshot(step: u64, seed: u64) -> Snapshot {
        let mut rng = compso_tensor::Rng::new(seed);
        let mut s = Snapshot::new(step);
        let m = Matrix::from_fn(5, 7, |_, _| rng.normal_f64() as f32);
        s.push_matrix("model/layer0", &m);
        s.push(TensorEntry::vector(
            "rng",
            TensorData::U64(vec![1, 2, 3, 4]),
        ));
        s.push(TensorEntry::vector(
            "chol",
            TensorData::F64(vec![0.5, -1.25, f64::MIN_POSITIVE]),
        ));
        s
    }

    fn save(store: &CheckpointStore, step: u64, snaps: &[Snapshot]) -> Result<Manifest, CkptError> {
        store.prepare_tmp(step)?;
        let mut ranks = Vec::new();
        for (r, snap) in snaps.iter().enumerate() {
            ranks.push(store.write_rank_file(step, r as u32, snap)?);
        }
        let manifest = Manifest {
            step,
            world_size: snaps.len() as u32,
            fingerprint: 0xABCD,
            epoch: 0,
            ranks,
        };
        store.commit(&manifest)?;
        Ok(manifest)
    }

    #[test]
    fn save_load_roundtrip_bit_exact() {
        let root = temp_root("roundtrip");
        let store = CheckpointStore::new(&root, 2).unwrap();
        let snaps = [sample_snapshot(9, 1), sample_snapshot(9, 2)];
        let manifest = save(&store, 9, &snaps).unwrap();
        assert_eq!(store.list_steps().unwrap(), [9]);
        let reread = store.load_manifest(9).unwrap();
        assert_eq!(reread, manifest);
        for (r, snap) in snaps.iter().enumerate() {
            let loaded = store.load_rank(9, &reread, r as u32).unwrap();
            assert_eq!(&loaded.tensors, &snap.tensors);
            assert_eq!(loaded.step, 9);
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_save_is_never_loadable_and_previous_survives() {
        let root = temp_root("torn");
        let store = CheckpointStore::new(&root, 4).unwrap();
        let old = [sample_snapshot(5, 3)];
        save(&store, 5, &old).unwrap();
        // A crash mid-save: payload written, manifest never committed.
        store.prepare_tmp(10).unwrap();
        store
            .write_rank_file(10, 0, &sample_snapshot(10, 4))
            .unwrap();
        // The torn save is invisible...
        assert_eq!(store.list_steps().unwrap(), vec![5]);
        assert!(store.load_manifest(10).is_err());
        // ...and the previous snapshot still restores.
        let m = store.load_manifest(5).unwrap();
        let loaded = store.load_rank(5, &m, 0).unwrap();
        assert_eq!(&loaded.tensors, &old[0].tensors);
        // GC reaps the leftover tmp dir.
        assert!(store.gc().unwrap() >= 1);
        assert!(!root.join(".tmp-step-000000000010").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn step_dir_without_manifest_is_not_a_snapshot() {
        let root = temp_root("nomanifest");
        let store = CheckpointStore::new(&root, 4).unwrap();
        save(&store, 3, &[sample_snapshot(3, 5)]).unwrap();
        fs::remove_file(root.join("step-000000000003").join(MANIFEST_FILE)).unwrap();
        assert!(store.load_manifest(3).is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_retains_only_newest() {
        let root = temp_root("gc");
        let store = CheckpointStore::new(&root, 2).unwrap();
        for step in [1u64, 2, 3, 4] {
            save(&store, step, &[sample_snapshot(step, step)]).unwrap();
        }
        assert_eq!(store.gc().unwrap(), 2);
        assert_eq!(store.list_steps().unwrap(), vec![3, 4]);
        // Survivors still load.
        let m = store.load_manifest(4).unwrap();
        assert!(store.load_rank(4, &m, 0).is_ok());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupted_payload_byte_is_rejected() {
        let root = temp_root("corrupt");
        let store = CheckpointStore::new(&root, 2).unwrap();
        save(&store, 7, &[sample_snapshot(7, 6)]).unwrap();
        let path = root.join("step-000000000007").join("rank-0.bin");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let m = store.load_manifest(7).unwrap();
        assert!(store.load_rank(7, &m, 0).is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn undecodable_blob_under_a_matching_crc_is_rejected() {
        // The one case the file CRC cannot catch: bytes that match the
        // manifest's length and CRC but are not a whole blob. The blob
        // parser is the guard here.
        let root = temp_root("truncblob");
        let store = CheckpointStore::new(&root, 2).unwrap();
        let mut m = save(&store, 8, &[sample_snapshot(8, 9)]).unwrap();
        let dir = root.join("step-000000000008");
        let path = dir.join("rank-0.bin");
        let mut bytes = fs::read(&path).unwrap();
        bytes.pop();
        fs::write(&path, &bytes).unwrap();
        m.ranks[0].file_len = bytes.len() as u64;
        m.ranks[0].file_crc32 = crc32(&bytes);
        fs::write(dir.join(MANIFEST_FILE), frame_checksummed(&m.encode())).unwrap();
        let reread = store.load_manifest(8).unwrap();
        assert!(matches!(
            store.load_rank(8, &reread, 0),
            Err(CkptError::Wire(_))
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn manifest_step_must_match_directory() {
        let root = temp_root("stepmatch");
        let store = CheckpointStore::new(&root, 2).unwrap();
        save(&store, 11, &[sample_snapshot(11, 7)]).unwrap();
        // Rename the committed dir so the embedded step disagrees.
        fs::rename(
            root.join("step-000000000011"),
            root.join("step-000000000012"),
        )
        .unwrap();
        assert!(store.load_manifest(12).is_err());
        let _ = fs::remove_dir_all(&root);
    }
}
