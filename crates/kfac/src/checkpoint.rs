//! Coordinated distributed checkpoint/restore for [`DistKfac`] training.
//!
//! Each rank persists exactly the state only it can reproduce — its
//! stochastic-compression RNG stream, its degradation-ladder last-good
//! store, the running factors of the layers it does *not* own — plus the
//! K-FAC factor states of the layers it *owns* under the KAISA schedule.
//! A layer's cached inverse lives on its owner alone, so sharding the
//! save by owner writes each inverse — with the owner's running factors
//! — to disk exactly once; at restore the shards are redistributed with
//! one variable-size all-gather and every rank installs every layer's
//! state. The running factors are replicated only as of the last factor
//! sync (ranks fold their own shard's covariances in between), so each
//! rank also stores its copy of the others' layers as packed upper
//! triangles under `rank/factors/<idx>`, and an equal-world restore
//! installs them over the owners' copies — that is what keeps a resumed
//! run bit-identical across the next sync. A cross-world restore drops
//! them like every `rank/` entry: all ranks then hold the
//! owner's copy, which is replicated and deterministic, and the next
//! sync re-averages. Rank 0 additionally carries the globals: model
//! parameters, the ownership map, the step counter, and any caller
//! extras (optimizer moment buffers), broadcast to everyone at restore.
//!
//! Save protocol (every rank): rank 0 prepares the tmp dir → barrier →
//! each rank writes + fsyncs its payload file → all-gather of the
//! per-rank file metadata → rank 0 writes the manifest last, renames
//! the directory into place, fsyncs the store root → barrier → rank 0
//! GCs old snapshots. A crash anywhere leaves either no trace or a
//! manifest-less torn directory that restore skips.
//!
//! Restore walks committed snapshots newest-first; every rank probes
//! locally (manifest + its own payload file) and a one-byte all-gather
//! reconciles the verdicts, so all ranks agree on which snapshot to
//! resume from even when some files are torn or corrupt. Every skipped
//! snapshot increments `ckpt/restore_rungs`.

use crate::distributed::{DistKfac, DistKfacState};
use crate::kfac::LayerState;
use crate::optim::{Adam, Sgd};
use compso_ckpt::{
    decode_tensors, encode_tensors, CheckpointStore, CkptError, Manifest, RankFileMeta, Snapshot,
    TensorData, TensorEntry,
};
use compso_comm::collectives::{allgather_var, allgather_var_quiet, broadcast_bytes};
use compso_comm::{CommError, Communicator};
use compso_core::wire::{frame_checksummed, unframe_checksummed};
use compso_dnn::Sequential;
use compso_obs::names;
use compso_tensor::{Cholesky, EigenDecomposition, Matrix};
use std::path::PathBuf;

/// Checkpoint coordination configuration.
pub struct CheckpointConfig {
    /// Store root directory (shared by all ranks).
    pub dir: PathBuf,
    /// Committed snapshots to keep after GC.
    pub retain_last: usize,
    /// Fingerprint of the training configuration (see [`fingerprint`]).
    /// Restore rejects snapshots taken under a different fingerprint:
    /// resuming under a changed config could not be bit-identical.
    pub fingerprint: u64,
}

impl CheckpointConfig {
    /// Sensible defaults: keep the last two snapshots.
    pub fn new(dir: impl Into<PathBuf>, fingerprint: u64) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            retain_last: 2,
            fingerprint,
        }
    }
}

/// FNV-1a over the given parts (with separators), for cheap, stable
/// config fingerprints.
pub fn fingerprint(parts: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in part.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= 0x1F; // separator so ["ab","c"] != ["a","bc"]
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Errors surfaced by coordinated save/restore.
#[derive(Debug)]
pub enum CoordError {
    /// Transport failure during a coordination collective.
    Comm(CommError),
    /// Store or format failure.
    Ckpt(CkptError),
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::Comm(e) => write!(f, "checkpoint comm: {e}"),
            CoordError::Ckpt(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoordError {}

impl From<CommError> for CoordError {
    fn from(e: CommError) -> Self {
        CoordError::Comm(e)
    }
}

impl From<CkptError> for CoordError {
    fn from(e: CkptError) -> Self {
        CoordError::Ckpt(e)
    }
}

impl From<compso_core::wire::WireError> for CoordError {
    fn from(e: compso_core::wire::WireError) -> Self {
        CoordError::Ckpt(CkptError::Wire(e))
    }
}

/// What a successful [`CheckpointCoordinator::restore`] hands back.
pub struct Restored {
    /// The step the snapshot was taken at; resume training at `step`.
    pub step: u64,
    /// The broadcast rank-0 globals (model params already installed;
    /// optimizer extras still inside for [`restore_sgd`] /
    /// [`restore_adam`] / custom lookups).
    pub globals: Snapshot,
}

/// The per-rank driver of coordinated snapshots.
pub struct CheckpointCoordinator {
    store: CheckpointStore,
    fingerprint: u64,
}

impl CheckpointCoordinator {
    /// Opens (creating if needed) the store.
    pub fn new(config: CheckpointConfig) -> Result<Self, CkptError> {
        Ok(CheckpointCoordinator {
            store: CheckpointStore::new(config.dir, config.retain_last)?,
            fingerprint: config.fingerprint,
        })
    }

    /// Direct store access (tests, tooling).
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Takes one coordinated snapshot at `step`. Collective: every rank
    /// must call it at the same point of the training loop. `extras`
    /// are appended to rank 0's globals (use [`sgd_entries`] /
    /// [`adam_entries`] for the first-order moment buffers; pass `&[]`
    /// when the loop keeps no optimizer state).
    pub fn save(
        &self,
        comm: &mut Communicator,
        step: u64,
        dist: &DistKfac,
        model: &Sequential,
        extras: &[TensorEntry],
    ) -> Result<(), CoordError> {
        let rec = dist.recorder().clone();
        let _span = rec.span(names::CKPT_SAVE);
        let me = comm.rank();
        let snap = build_rank_snapshot(comm, step, dist, model, extras);

        if me == 0 {
            self.store.prepare_tmp(step)?;
        }
        comm.barrier()?;
        let meta = self.store.write_rank_file(step, me as u32, &snap)?;
        rec.add(names::CKPT_BYTES, meta.file_len);
        rec.add(names::CKPT_RAW_BYTES, snap.raw_bytes());
        let metas = allgather_var(comm, meta.encode())?;
        if me == 0 {
            let mut ranks = Vec::with_capacity(metas.len());
            for bytes in &metas {
                ranks.push(RankFileMeta::decode(bytes)?);
            }
            let manifest = Manifest {
                step,
                world_size: comm.size() as u32,
                fingerprint: self.fingerprint,
                epoch: comm.epoch(),
                ranks,
            };
            let manifest_bytes = self.store.commit(&manifest)?;
            rec.add(names::CKPT_BYTES, manifest_bytes);
        }
        comm.barrier()?;
        if me == 0 {
            self.store.gc()?;
        }
        rec.incr(names::CKPT_SAVES);
        Ok(())
    }

    /// Restores the newest fully-loadable snapshot into `dist` and
    /// `model`. Collective. Walks snapshots newest-first, skipping torn
    /// or corrupt ones (each skip increments `ckpt/restore_rungs` and
    /// is reconciled across ranks, so everyone resumes from the same
    /// snapshot); errors with [`CkptError::NoSnapshot`] when nothing
    /// loadable remains. A snapshot from a different world size is
    /// resharded on the fly: each rank loads its stripe of the old
    /// owner-sharded factor files (see [`Self::probe`]'s ownership
    /// math), the ownership map is rebuilt from scratch, and rank-local
    /// state is dropped — the result is bit-identical to a fresh
    /// restore of the same snapshot at the current world size. A
    /// fingerprint mismatch is a hard error.
    pub fn restore(
        &self,
        comm: &mut Communicator,
        dist: &mut DistKfac,
        model: &mut Sequential,
    ) -> Result<Restored, CoordError> {
        let rec = dist.recorder().clone();
        let _span = rec.span(names::CKPT_LOAD);

        // Pick the newest snapshot every rank can fully load.
        let mut steps = self.store.list_steps()?;
        steps.reverse();
        let mut chosen: Option<(Manifest, Snapshot)> = None;
        for step in steps {
            let probe = self.probe(comm, step)?;
            let statuses = allgather_var(comm, vec![u8::from(probe.is_some())])?;
            if statuses.iter().all(|s| s.first() == Some(&1)) {
                chosen = probe;
                break;
            }
            rec.incr(names::CKPT_RESTORE_RUNGS);
        }
        let (manifest, snap) = chosen.ok_or(CkptError::NoSnapshot)?;
        let cross_world = manifest.world_size as usize != comm.size();
        if cross_world {
            rec.incr(names::CKPT_RESTORE_RUNGS_WORLD_SIZE);
            eprintln!(
                "compso-ckpt: restoring a {}-rank snapshot (step {}) into a {}-rank group; \
                 resharding owner-sharded factors, dropping rank-local state",
                manifest.world_size,
                manifest.step,
                comm.size()
            );
        }

        // Redistribute the owner-sharded factor states: one all-gather,
        // then every rank imports every layer (the owner's copy; an
        // equal-world restore overlays this rank's own factors below).
        let mine: Vec<TensorEntry> = snap.with_prefix("kfac/").cloned().collect();
        for shard in gather_shards(comm, &mine, allgather_var)? {
            for (idx, state) in layer_states(&shard)? {
                dist.kfac_mut().import_layer_state(idx, state);
            }
        }

        // Rank 0 broadcasts the globals (model params, ownership map,
        // optimizer extras).
        let mut globals = broadcast_snapshot(comm, 0, || {
            let global =
                |t: &&TensorEntry| !t.name.starts_with("rank/") && !t.name.starts_with("kfac/");
            snap.tensors.iter().filter(global).cloned().collect()
        })?;
        globals.step = manifest.step;
        if globals.require_u64s("global/step")? != [manifest.step] {
            return Err(CkptError::Corrupt("global step vs manifest").into());
        }
        install_model_params(&globals, model)?;

        // Install this rank's coordination state. Across a world-size
        // change the saved ownership map indexes ranks that no longer
        // exist and the rank-local state belongs to dropped identities:
        // the map rebuilds for the new view at the next step, the ladder
        // store starts empty, and the RNG keeps its seed-derived stream
        // (identical to a fresh process restoring the same snapshot at
        // this world size, which is the bit-identity yardstick).
        let mut state = DistKfacState {
            owners: None,
            rng: dist.export_state().rng,
            last_good: Vec::new(),
        };
        if !cross_world {
            state.owners = match globals.get("global/owners").map(|t| &t.data) {
                None => None,
                Some(TensorData::U64(v)) => Some(v.iter().map(|&o| o as usize).collect()),
                Some(_) => return Err(CkptError::Corrupt("owners dtype").into()),
            };
            let rng = snap.require_u64s("rank/rng")?;
            if rng.len() != 6 {
                return Err(CkptError::Corrupt("rng state arity").into());
            }
            let spare = (rng[4] == 1).then(|| f64::from_bits(rng[5]));
            state.rng = ([rng[0], rng[1], rng[2], rng[3]], spare);
            for &idx in snap.require_u64s("rank/last_good_idx")? {
                let idx = idx as usize;
                let m = snap.require_matrix(&format!("rank/last_good/{idx}"))?;
                state.last_good.push((idx, m));
            }
            // This rank's own running factors for the layers it does not
            // own, over the owners' copies the all-gather installed.
            for t in snap.with_prefix("rank/factors/") {
                let idx = t.name["rank/factors/".len()..].parse::<usize>();
                let (Ok(idx), TensorData::F32(packed)) = (idx, &t.data) else {
                    return Err(CkptError::Corrupt("rank-local factor entry").into());
                };
                let (a, g) = (dist.kfac_mut().factors_mut(idx))
                    .ok_or(CkptError::Corrupt("rank-local factors of an unknown layer"))?;
                let tri = |m: &Matrix| m.rows() * (m.rows() + 1) / 2;
                if packed.len() != tri(a) + tri(g) {
                    return Err(CkptError::Corrupt("rank-local factor size").into());
                }
                let off = a.unpack_upper(packed);
                g.unpack_upper(&packed[off..]);
            }
        }
        dist.import_state(state);

        Ok(Restored {
            step: manifest.step,
            globals,
        })
    }

    /// Local (per-rank) probe of one snapshot: manifest + the payload
    /// files this rank is responsible for under the *current* world
    /// size. With an equal world size that is exactly this rank's own
    /// file; into a different world size `M`, virtual rank `r` takes the
    /// stripe of old files `{r, r + M, r + 2M, ...}` — a partition of
    /// the old files across the new group, so every owner-sharded factor
    /// is loaded exactly once group-wide. Soft failures (missing, torn,
    /// or corrupt data) yield `Ok(None)`; a fingerprint mismatch is hard.
    fn probe(
        &self,
        comm: &Communicator,
        step: u64,
    ) -> Result<Option<(Manifest, Snapshot)>, CoordError> {
        let manifest = match self.store.load_manifest(step) {
            Ok(m) => m,
            Err(_) => return Ok(None),
        };
        if manifest.fingerprint != self.fingerprint {
            return Err(CkptError::Corrupt("checkpoint fingerprint mismatch").into());
        }
        let old = manifest.world_size as usize;
        let me = comm.rank();
        if old == comm.size() {
            return match self.store.load_rank(step, &manifest, me as u32) {
                Ok(snap) => Ok(Some((manifest, snap))),
                Err(_) => Ok(None),
            };
        }
        // Cross-world-size restore: merge this rank's stripe, keeping
        // the owner-sharded factor entries plus file 0's globals (which
        // land on new rank 0, because file 0 is always in rank 0's
        // stripe). Rank-local entries — the compression RNG stream, the
        // ladder last-good store — belong to rank identities of the old
        // world and are dropped.
        let mut merged = Snapshot::new(step);
        for file in (me..old).step_by(comm.size()) {
            let snap = match self.store.load_rank(step, &manifest, file as u32) {
                Ok(s) => s,
                Err(_) => return Ok(None),
            };
            for t in snap.tensors {
                if t.name.starts_with("kfac/") || (file == 0 && !t.name.starts_with("rank/")) {
                    merged.tensors.push(t);
                }
            }
        }
        Ok(Some((manifest, merged)))
    }
}

/// Installs the broadcast `model/<idx>` parameter matrices into the
/// model, shape-checked.
fn install_model_params(globals: &Snapshot, model: &mut Sequential) -> Result<(), CoordError> {
    for &idx in &model.trainable_indices() {
        let m = globals.require_matrix(&format!("model/{idx}"))?;
        let p = model
            .layer_mut(idx)
            .params_mut()
            .ok_or(CkptError::Corrupt("trainable layer without params"))?;
        if (p.rows(), p.cols()) != (m.rows(), m.cols()) {
            return Err(CkptError::Corrupt("model parameter shape").into());
        }
        *p = m;
    }
    Ok(())
}

/// The model's trainable parameters as the `model/<idx>` entries
/// [`install_model_params`] reads back.
fn model_entries(model: &Sequential) -> Vec<TensorEntry> {
    let mut out = Vec::new();
    for idx in model.trainable_indices() {
        let name = format!("model/{idx}");
        out.extend(
            model
                .layer(idx)
                .params()
                .map(|p| TensorEntry::matrix(name, p)),
        );
    }
    out
}

/// The layer-state all-gather of [`CheckpointCoordinator::restore`] and
/// [`catch_up_rejoined`]: this rank's shard travels in the checksummed
/// `0xCB` envelope through `gather`, which carries the caller's
/// collective label and counters, and every rank gets every shard back
/// in rank order.
fn gather_shards(
    comm: &mut Communicator,
    mine: &[TensorEntry],
    gather: impl FnOnce(&mut Communicator, Vec<u8>) -> Result<Vec<Vec<u8>>, CommError>,
) -> Result<Vec<Snapshot>, CoordError> {
    let blobs = gather(comm, frame_checksummed(&encode_tensors(mine)))?;
    let decode = |blob: &Vec<u8>| -> Result<Snapshot, CoordError> {
        let tensors = decode_tensors(unframe_checksummed(blob)?)?;
        Ok(Snapshot { step: 0, tensors })
    };
    blobs.iter().map(decode).collect()
}

/// The broadcast of [`CheckpointCoordinator::restore`] and
/// [`catch_up_rejoined`]: `root` builds its entries with `mine`, they
/// travel in the checksummed `0xCB` envelope, and every rank gets them
/// back; both callers install the `model/<idx>` matrices among them
/// through [`install_model_params`].
fn broadcast_snapshot(
    comm: &mut Communicator,
    root: usize,
    mine: impl FnOnce() -> Vec<TensorEntry>,
) -> Result<Snapshot, CoordError> {
    let mut bytes = Vec::new();
    if comm.rank() == root {
        bytes = frame_checksummed(&encode_tensors(&mine()));
    }
    broadcast_bytes(comm, root, &mut bytes)?;
    let tensors = decode_tensors(unframe_checksummed(&bytes)?)?;
    Ok(Snapshot { step: 0, tensors })
}

/// The `U64` entry stamping a catch-up shard with the membership epoch
/// it was built under.
const CATCH_UP_EPOCH: &str = "catch_up/epoch";

/// Encodes one rank's catch-up shard for a live rejoin: the given layer
/// states under `kfac/<idx>/`, exactly as a snapshot stores them, plus
/// the membership epoch as one `U64` entry.
pub fn encode_catch_up_shard(epoch: u64, layers: &[(usize, LayerState)]) -> Vec<TensorEntry> {
    let mut shard = Snapshot::new(0);
    for (idx, state) in layers {
        push_layer_state(&mut shard, *idx, state);
    }
    shard.push_u64s(CATCH_UP_EPOCH, vec![epoch]);
    shard.tensors
}

/// Decodes the gathered catch-up shards into the layer states they
/// carry. Every shard must be stamped with `epoch`, and every stamp is
/// checked before any state is parsed: a stale catch-up never installs.
fn decode_catch_up_shards(
    epoch: u64,
    shards: &[Snapshot],
) -> Result<Vec<(usize, LayerState)>, CommError> {
    let bad = |expected: &'static str| CommError::Protocol { expected };
    if !(shards.iter()).all(|s| s.require_u64s(CATCH_UP_EPOCH).is_ok_and(|v| v == [epoch])) {
        return Err(bad("a catch-up shard from the current epoch"));
    }
    let mut states = Vec::new();
    for shard in shards {
        states.extend(layer_states(shard).map_err(|_| bad("valid catch-up layer state"))?);
    }
    Ok(states)
}

/// Live factor catch-up after a rank rejoins: collective over the *new*
/// view, called by every rank (members and the joiner alike) right
/// after [`compso_comm::admit_pending`] / [`compso_comm::rejoin`]
/// commit the admission. The joiner arrives with a freshly built model
/// and [`DistKfac`] and restores from its peers, through the same
/// transfers [`CheckpointCoordinator::restore`] uses.
///
/// Member `k` of the `m` members contributes the layers at positions
/// `pos % m == k` of [`Kfac::state_indices`] (its own copy of the
/// running factors; the epoch change makes the next step re-average
/// every layer), so the joiner receives every layer exactly once while
/// no member uploads the whole state. A shard carries a cached inverse
/// only where its sender owns the layer; whatever the joiner ends up
/// owning without one it rebuilds on adoption. One all-gather
/// (`comm/allgather_rejoin`) moves the shards, each stamped with the
/// membership epoch: a shard from another epoch is a protocol error on
/// every rank, raised before the joiner installs anything. The lowest
/// live member then broadcasts the model parameters, which the joiner
/// installs.
///
/// [`Kfac::state_indices`]: crate::kfac::Kfac::state_indices
pub fn catch_up_rejoined(
    comm: &mut Communicator,
    dist: &mut DistKfac,
    model: &mut Sequential,
    joiner: usize,
) -> Result<(), CommError> {
    let epoch = comm.epoch();
    let me_phys = comm.phys_rank();
    let members: Vec<usize> = comm
        .live_ranks()
        .iter()
        .copied()
        .filter(|&r| r != joiner)
        .collect();
    let bad = |expected: &'static str| CommError::Protocol { expected };
    let undecodable = |e: CoordError| match e {
        CoordError::Comm(e) => e,
        CoordError::Ckpt(_) => bad("a decodable catch-up payload"),
    };

    // This rank's shard: none for the joiner.
    let mut layers = Vec::new();
    if me_phys != joiner {
        let k = members
            .iter()
            .position(|&r| r == me_phys)
            .ok_or_else(|| bad("a live member of the new view"))?;
        for (pos, idx) in dist.kfac().state_indices().into_iter().enumerate() {
            if pos % members.len() == k {
                layers.extend(dist.kfac().export_layer_state(idx).map(|st| (idx, st)));
            }
        }
    }
    dist.recorder().incr(names::COMM_MEMBERSHIP);
    let shards = gather_shards(
        comm,
        &encode_catch_up_shard(epoch, &layers),
        |comm, payload| allgather_var_quiet(comm, payload, names::COMM_ALLGATHER_REJOIN),
    )
    .map_err(undecodable)?;
    let states = decode_catch_up_shards(epoch, &shards)?;
    if me_phys == joiner {
        for (idx, state) in states {
            dist.kfac_mut().import_layer_state(idx, state);
        }
    }

    // The lowest live member's parameters.
    let root = (comm.live_ranks().iter().position(|&r| r != joiner))
        .ok_or_else(|| bad("at least one member"))?;
    let params = broadcast_snapshot(comm, root, || model_entries(model)).map_err(undecodable)?;
    if me_phys == joiner {
        install_model_params(&params, model).map_err(|_| bad("installable catch-up parameters"))?;
    }
    Ok(())
}

/// Builds one rank's snapshot contribution (see the module docs for the
/// sharding scheme).
fn build_rank_snapshot(
    comm: &Communicator,
    step: u64,
    dist: &DistKfac,
    model: &Sequential,
    extras: &[TensorEntry],
) -> Snapshot {
    let me = comm.rank();
    let state = dist.export_state();
    let mut snap = Snapshot::new(step);

    // Rank-local: RNG stream, ladder last-good store, and (below) the
    // running factors of layers owned elsewhere.
    let (s, spare) = state.rng;
    let spare = [
        u64::from(spare.is_some()),
        spare.map(f64::to_bits).unwrap_or(0),
    ];
    snap.push_u64s("rank/rng", [&s[..], &spare].concat());
    snap.push_u64s(
        "rank/last_good_idx",
        state.last_good.iter().map(|(i, _)| *i as u64).collect(),
    );
    for (idx, m) in &state.last_good {
        snap.push_matrix(format!("rank/last_good/{idx}"), m);
    }

    // Owner-sharded factor states: each factor is written exactly once
    // across the world. Before the first step (no ownership map yet)
    // there is no factor state either, so nothing is lost.
    let kfac_layers = model.kfac_indices();
    let owned: Vec<usize> = match &state.owners {
        Some(owners) => kfac_layers
            .iter()
            .enumerate()
            .filter(|(pos, _)| owners[*pos] == me)
            .map(|(_, &idx)| idx)
            .collect(),
        None if me == 0 => dist.kfac().state_indices(),
        None => Vec::new(),
    };
    for &idx in &owned {
        if let Some(layer) = dist.kfac().export_layer_state(idx) {
            push_layer_state(&mut snap, idx, &layer);
        }
    }
    // Everything else this rank holds diverged from the owner's copy at
    // the last factor sync (exactly symmetric, so the triangle is all).
    for idx in kfac_layers.into_iter().filter(|idx| !owned.contains(idx)) {
        if let Some((a, g)) = dist.kfac().factors(idx) {
            let mut packed = Vec::new();
            a.pack_upper(&mut packed);
            g.pack_upper(&mut packed);
            let name = format!("rank/factors/{idx}");
            snap.push(TensorEntry::vector(name, TensorData::F32(packed)));
        }
    }

    // Rank-0 globals.
    if me == 0 {
        snap.push_u64s("global/step", vec![step]);
        if let Some(owners) = &state.owners {
            snap.push_u64s("global/owners", owners.iter().map(|&o| o as u64).collect());
        }
        snap.tensors.extend(model_entries(model));
        for e in extras {
            snap.push(e.clone());
        }
    }
    snap
}

/// Serializes one layer's exported factor state under `kfac/{idx}/`.
/// The cached eigendecompositions and Cholesky factors travel with the
/// running averages: recomputing them at restore would see a newer
/// average than the interrupted run did and fork the trajectory.
fn push_layer_state(snap: &mut Snapshot, idx: usize, st: &LayerState) {
    let p = format!("kfac/{idx}");
    snap.push_u64s(
        format!("{p}/meta"),
        vec![
            st.steps as u64,
            u64::from(st.eig_a.is_some()),
            u64::from(st.eig_g.is_some()),
            u64::from(st.chol_a.is_some()),
            u64::from(st.chol_g.is_some()),
        ],
    );
    snap.push_matrix(format!("{p}/a_factor"), &st.a_factor);
    snap.push_matrix(format!("{p}/g_factor"), &st.g_factor);
    for (tag, eig) in [("eig_a", &st.eig_a), ("eig_g", &st.eig_g)] {
        if let Some(e) = eig {
            snap.push(TensorEntry::vector(
                format!("{p}/{tag}/values"),
                TensorData::F32(e.values.clone()),
            ));
            snap.push_matrix(format!("{p}/{tag}/vectors"), &e.vectors);
        }
    }
    for (tag, chol) in [("chol_a", &st.chol_a), ("chol_g", &st.chol_g)] {
        if let Some(c) = chol {
            let (n, l) = c.raw();
            snap.push(TensorEntry {
                name: format!("{p}/{tag}"),
                rows: n,
                cols: n,
                data: TensorData::F64(l.to_vec()),
            });
        }
    }
}

/// Inverse of [`push_layer_state`] over one rank's shard.
fn layer_states(lookup: &Snapshot) -> Result<Vec<(usize, LayerState)>, CkptError> {
    let mut out = Vec::new();
    for t in &lookup.tensors {
        let Some(rest) = t.name.strip_prefix("kfac/") else {
            continue;
        };
        let Some(idx_str) = rest.strip_suffix("/meta") else {
            continue;
        };
        let idx: usize = idx_str
            .parse()
            .map_err(|_| CkptError::Corrupt("layer index"))?;
        let meta = lookup.require_u64s(&t.name)?;
        if meta.len() != 5 || meta[1..].iter().any(|&f| f > 1) {
            return Err(CkptError::Corrupt("layer meta"));
        }
        let p = format!("kfac/{idx}");
        let eig = |tag: &str, present: bool| -> Result<Option<EigenDecomposition>, CkptError> {
            if !present {
                return Ok(None);
            }
            let values = match &lookup.require(&format!("{p}/{tag}/values"))?.data {
                TensorData::F32(v) => v.clone(),
                _ => return Err(CkptError::Corrupt("eigenvalue dtype")),
            };
            let vectors = lookup.require_matrix(&format!("{p}/{tag}/vectors"))?;
            if values.len() != vectors.cols() {
                return Err(CkptError::Corrupt("eigenpair arity"));
            }
            Ok(Some(EigenDecomposition { values, vectors }))
        };
        let chol = |tag: &str, present: bool| -> Result<Option<Cholesky>, CkptError> {
            if !present {
                return Ok(None);
            }
            let e = lookup.require(&format!("{p}/{tag}"))?;
            let l = match &e.data {
                TensorData::F64(v) => v.clone(),
                _ => return Err(CkptError::Corrupt("cholesky dtype")),
            };
            if e.rows != e.cols {
                return Err(CkptError::Corrupt("cholesky shape"));
            }
            Cholesky::from_raw(e.rows, l)
                .ok_or(CkptError::Corrupt("cholesky size"))
                .map(Some)
        };
        out.push((
            idx,
            LayerState {
                a_factor: lookup.require_matrix(&format!("{p}/a_factor"))?,
                g_factor: lookup.require_matrix(&format!("{p}/g_factor"))?,
                eig_a: eig("eig_a", meta[1] == 1)?,
                eig_g: eig("eig_g", meta[2] == 1)?,
                chol_a: chol("chol_a", meta[3] == 1)?,
                chol_g: chol("chol_g", meta[4] == 1)?,
                steps: meta[0] as usize,
            },
        ));
    }
    Ok(out)
}

/// SGD momentum buffers as checkpoint extras (`opt/sgd/vel/{slot}`).
pub fn sgd_entries(sgd: &Sgd) -> Vec<TensorEntry> {
    sgd.velocities()
        .iter()
        .enumerate()
        .map(|(slot, v)| TensorEntry::matrix(format!("opt/sgd/vel/{slot}"), v))
        .collect()
}

/// Restores the SGD momentum buffers from the broadcast globals.
pub fn restore_sgd(sgd: &mut Sgd, globals: &Snapshot) -> Result<(), CkptError> {
    let mut velocities = Vec::new();
    while let Some(t) = globals.get(&format!("opt/sgd/vel/{}", velocities.len())) {
        velocities.push(t.to_matrix()?);
    }
    sgd.set_velocities(velocities);
    Ok(())
}

/// Adam state as checkpoint extras (`opt/adam/{m,v}/{slot}`, `opt/adam/t`).
pub fn adam_entries(adam: &Adam) -> Vec<TensorEntry> {
    let (m, v, t) = adam.state();
    let mut out = vec![TensorEntry::vector(
        "opt/adam/t",
        TensorData::U64(vec![t as u64]),
    )];
    for (slot, mm) in m.iter().enumerate() {
        out.push(TensorEntry::matrix(format!("opt/adam/m/{slot}"), mm));
    }
    for (slot, vv) in v.iter().enumerate() {
        out.push(TensorEntry::matrix(format!("opt/adam/v/{slot}"), vv));
    }
    out
}

/// Restores the Adam state from the broadcast globals.
pub fn restore_adam(adam: &mut Adam, globals: &Snapshot) -> Result<(), CkptError> {
    let t = globals.require_u64s("opt/adam/t")?;
    if t.len() != 1 {
        return Err(CkptError::Corrupt("adam timestep arity"));
    }
    let mut m = Vec::new();
    while let Some(e) = globals.get(&format!("opt/adam/m/{}", m.len())) {
        m.push(e.to_matrix()?);
    }
    let mut v = Vec::new();
    while let Some(e) = globals.get(&format!("opt/adam/v/{}", v.len())) {
        v.push(e.to_matrix()?);
    }
    if m.len() != v.len() {
        return Err(CkptError::Corrupt("adam moment arity"));
    }
    adam.set_state(m, v, t[0] as i32);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use compso_tensor::{Matrix, Rng};

    #[test]
    fn fingerprint_separates_parts() {
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
        assert_eq!(fingerprint(&["x", "y"]), fingerprint(&["x", "y"]));
        assert_ne!(fingerprint(&[]), fingerprint(&[""]));
    }

    #[test]
    fn layer_state_roundtrips_through_entries() {
        let mut rng = Rng::new(3);
        let a = Matrix::from_fn(4, 4, |_, _| rng.normal_f64() as f32);
        let g = Matrix::from_fn(3, 3, |_, _| rng.normal_f64() as f32);
        let eig = EigenDecomposition {
            values: vec![3.0, 1.0, 0.5],
            vectors: Matrix::identity(3),
        };
        let chol = Cholesky::from_raw(4, (0..16).map(|i| i as f64 * 0.25).collect()).unwrap();
        let st = LayerState {
            a_factor: a.clone(),
            g_factor: g.clone(),
            eig_a: None,
            eig_g: Some(eig.clone()),
            chol_a: Some(chol.clone()),
            chol_g: None,
            steps: 17,
        };
        let mut snap = Snapshot::new(0);
        push_layer_state(&mut snap, 2, &st);
        let decoded = layer_states(&snap).unwrap();
        assert_eq!(decoded.len(), 1);
        let (idx, got) = &decoded[0];
        assert_eq!(*idx, 2);
        assert_eq!(got.a_factor, a);
        assert_eq!(got.g_factor, g);
        assert!(got.eig_a.is_none());
        let got_eig = got.eig_g.as_ref().unwrap();
        assert_eq!(got_eig.values, eig.values);
        assert_eq!(got_eig.vectors, eig.vectors);
        assert_eq!(got.chol_a.as_ref().unwrap().raw().1, chol.raw().1);
        assert!(got.chol_g.is_none());
        assert_eq!(got.steps, 17);
    }

    #[test]
    fn sgd_and_adam_extras_roundtrip() {
        let mut rng = Rng::new(9);
        let vel = vec![
            Matrix::from_fn(2, 3, |_, _| rng.normal_f64() as f32),
            Matrix::from_fn(1, 4, |_, _| rng.normal_f64() as f32),
        ];
        let mut sgd = Sgd::with_momentum(0.9);
        sgd.set_velocities(vel.clone());
        let mut globals = Snapshot::new(0);
        for e in sgd_entries(&sgd) {
            globals.push(e);
        }
        let mut sgd2 = Sgd::with_momentum(0.9);
        restore_sgd(&mut sgd2, &globals).unwrap();
        assert_eq!(sgd2.velocities(), &vel[..]);

        let mut adam = Adam::new();
        adam.set_state(vel.clone(), vel.clone(), 7);
        let mut globals = Snapshot::new(0);
        for e in adam_entries(&adam) {
            globals.push(e);
        }
        let mut adam2 = Adam::new();
        restore_adam(&mut adam2, &globals).unwrap();
        let (m, v, t) = adam2.state();
        assert_eq!(m, &vel[..]);
        assert_eq!(v, &vel[..]);
        assert_eq!(t, 7);
    }

    #[test]
    fn a_catch_up_shard_from_another_epoch_is_refused_before_anything_installs() {
        // Rank 1 rejoins; rank 0 plays its one member and sends a layer
        // state stamped one epoch off (or not stamped at all), then its
        // parameters. The joiner must refuse before installing either.
        let layer = |fill: f32| LayerState {
            a_factor: Matrix::from_fn(4, 4, |i, j| fill + (i * 4 + j) as f32),
            g_factor: Matrix::from_fn(4, 4, |i, j| fill - (i * 4 + j) as f32),
            eig_a: None,
            eig_g: None,
            chol_a: None,
            chol_g: None,
            steps: fill as usize,
        };
        for offset in [Some(1), Some(-1), None] {
            let joiner = compso_comm::run_ranks(2, |comm| {
                let mut model =
                    compso_dnn::models::mlp(&[3, 4, 2], &mut Rng::new(comm.rank() as u64));
                let mut dist = DistKfac::new(crate::DistKfacConfig::default(), 7);
                if comm.rank() == 0 {
                    let stamp = offset.map(|d| comm.epoch().wrapping_add_signed(d));
                    let mut shard = encode_catch_up_shard(stamp.unwrap_or(0), &[(0, layer(9.0))]);
                    shard.retain(|t| stamp.is_some() || t.name != CATCH_UP_EPOCH);
                    gather_shards(comm, &shard, |comm, payload| {
                        allgather_var_quiet(comm, payload, names::COMM_ALLGATHER_REJOIN)
                    })
                    .unwrap();
                    // A joiner that refused the shard has left: the send
                    // may find it gone.
                    let _ = broadcast_snapshot(comm, 0, || model_entries(&model));
                    return None;
                }
                dist.kfac_mut().import_layer_state(0, layer(1.0));
                let params = model.layer(0).params().unwrap().clone();
                let err = catch_up_rejoined(comm, &mut dist, &mut model, 1).unwrap_err();
                let kept = dist.kfac().export_layer_state(0).unwrap();
                assert_eq!(dist.kfac().state_indices(), [0], "stamp {offset:?}");
                assert_eq!(kept.a_factor, layer(1.0).a_factor, "stamp {offset:?}");
                assert_eq!(kept.steps, 1, "stamp {offset:?}");
                assert_eq!(
                    model.layer(0).params().unwrap(),
                    &params,
                    "stamp {offset:?}"
                );
                Some(err)
            });
            assert_eq!(
                joiner[1],
                Some(CommError::Protocol {
                    expected: "a catch-up shard from the current epoch"
                }),
                "stamp {offset:?}"
            );
        }
    }
}
