//! Canonical metric and collective-label names used across the
//! instrumented crates, so reports, dashboards, and tests agree on
//! spelling.
//!
//! This module is a **registry**, not just a bag of constants: every
//! counter/span/histogram name and every collective label that crosses a
//! crate boundary must be declared here and listed in [`ALL`].
//! `compso-lint`'s `counter-registry` rule enforces both directions —
//! prod code may not pass bare string literals to a `Recorder` or
//! `recv_labeled`, and any slash-namespaced name literal anywhere in the
//! workspace (tests included) must match a registered constant, so a
//! typo in a test pin is caught at lint time instead of silently
//! asserting against a counter that never fires.

/// `compso-core`: whole chunked-parallel kernel sweep (filter +
/// quantize + serialize + block encode) of one multi-layer group.
pub const CORE_CHUNKED_COMPRESS: &str = "core/chunked_compress";
/// `compso-core`: lossless decode + dequantize + keep-mask scatter.
pub const CORE_DECODE: &str = "core/decode";
/// `compso-core`: raw f32 bytes entering the compressor.
pub const CORE_BYTES_IN: &str = "core/bytes_in";
/// `compso-core`: wire bytes leaving the compressor.
pub const CORE_BYTES_OUT: &str = "core/bytes_out";
/// `compso-core`: wire bytes entering the decompressor.
pub const CORE_DECODE_BYTES_IN: &str = "core/decode_bytes_in";

/// `compso-comm`: wall time of the ring reductions: reduce-scatter,
/// optionally followed by the all-gather half (`reduce_scatter_sum`,
/// `allreduce_sum`/`allreduce_mean`).
pub const COMM_ALLREDUCE: &str = "comm/allreduce_sum";
/// `compso-comm`: variable-size ring all-gather wall time.
pub const COMM_ALLGATHER_VAR: &str = "comm/allgather_var";
/// `compso-comm`: fixed-size ring all-gather wall time.
pub const COMM_ALLGATHER: &str = "comm/allgather";
/// `compso-comm`: compressed ring all-reduce wall time.
pub const COMM_COMPRESSED_ALLREDUCE: &str = "comm/compressed_allreduce_mean";
/// `compso-comm`: total bytes this rank put on the wire.
pub const COMM_BYTES_SENT: &str = "comm/bytes_sent";
/// `compso-comm`: per-message wire sizes (log2 histogram).
pub const COMM_MSG_BYTES: &str = "comm/msg_bytes";
/// `compso-comm`: number of ring reductions issued: reduce-scatter,
/// optionally followed by the all-gather half — `reduce_scatter_sum`
/// and `allreduce_sum`/`allreduce_mean` each count once per call (the
/// bucketing win shows up here: one call per step for gradient sync
/// instead of one per layer).
pub const COMM_ALLREDUCE_CALLS: &str = "comm/allreduce_calls";
/// `compso-comm`: number of variable-size all-gather invocations.
pub const COMM_ALLGATHER_VAR_CALLS: &str = "comm/allgather_var_calls";
/// `compso-comm`: pipelined (group-streamed) ring all-gather wall time;
/// also the collective label its receives carry in `CommError`s.
pub const COMM_PIPELINED_ALLGATHER: &str = "comm/pipelined_allgather";
/// `compso-comm`: number of pipelined all-gather invocations (the
/// pipelined counterpart of `comm/allgather_var_calls`).
pub const COMM_PIPELINED_ALLGATHER_CALLS: &str = "comm/pipelined_allgather_calls";
/// `compso-comm`: pipeline slots executed across all pipelined
/// all-gathers (max aggregation-group count over the ranks, per call).
pub const COMM_PIPELINE_STAGES: &str = "comm/pipeline_stages";
/// `compso-comm`: time spent inside the producer callback (rank-local
/// compression of the next group) during a pipelined all-gather.
pub const COMM_PIPELINE_PRODUCE: &str = "comm/pipeline/produce";
/// `compso-comm`: time spent inside the delivery callback (streaming
/// per-group decode) during a pipelined all-gather.
pub const COMM_PIPELINE_DELIVER: &str = "comm/pipeline/deliver";
/// `compso-comm`: time spent blocked on ring receives during a
/// pipelined all-gather — the *exposed* (un-overlapped) communication.
/// `1 − wait/allgather-span` is the achieved overlap fraction.
pub const COMM_PIPELINE_WAIT: &str = "comm/pipeline/wait";

/// `compso-comm`: label of a bare point-to-point receive
/// ([`Communicator::recv`]) in `CommError`s.
///
/// [`Communicator::recv`]: ../compso_comm/group/struct.Communicator.html#method.recv
pub const COMM_RECV: &str = "comm/recv";
/// `compso-comm`: label of the group barrier in `CommError`s (a barrier
/// timeout names the straggler under this collective).
pub const COMM_BARRIER: &str = "comm/barrier";
/// `compso-comm`: label of the flat byte broadcast in `CommError`s.
pub const COMM_BROADCAST_BYTES: &str = "comm/broadcast_bytes";

/// `compso-comm`: envelope-CRC failures detected at a receiver (each
/// one triggers an immediate NACK; reconciles 1:1 with the fault
/// plane's `corrupted_wire` ledger).
pub const COMM_FAULT_CRC_DETECTED: &str = "comm/fault/crc_detected";
/// `compso-comm`: data-message retransmissions performed by senders
/// in response to NACKs (`== dropped + corrupted_wire` injections
/// when no spurious timeouts fire).
pub const COMM_RETRY_RESENDS: &str = "comm/retry/resends";
/// `compso-comm`: NACKs sent by receivers (immediate on CRC failure,
/// deadline-based for silent drops).
pub const COMM_RETRY_NACKS_SENT: &str = "comm/retry/nacks_sent";
/// `compso-comm`: exponential-backoff waits between timeout NACKs,
/// in nanoseconds (log2 histogram).
pub const COMM_RETRY_BACKOFF_NS: &str = "comm/retry/backoff_ns";
/// `compso-kfac`: tiny always-on repair status exchange after the
/// gradient all-gather (kept separate from `comm/allgather_var` so
/// call-count invariants on the main collective stay exact).
pub const COMM_ALLGATHER_REPAIR: &str = "comm/allgather_repair";

/// `compso-comm`: label of the elastic-membership protocol receives
/// (shrink proposals, rejoin requests, welcomes) in `CommError`s.
pub const COMM_MEMBERSHIP: &str = "comm/membership";
/// `compso-comm`: committed membership-view changes (every epoch bump:
/// shrinks *and* rejoins). Zero in a fixed-membership run.
pub const COMM_MEMBERSHIP_EPOCHS: &str = "comm/membership/epochs";
/// `compso-comm`: quorum-agreed view shrinks this rank committed
/// (each one evicts at least one dead peer).
pub const COMM_MEMBERSHIP_SHRINKS: &str = "comm/membership/shrinks";
/// `compso-comm`: live rejoins this rank committed (a previously dead
/// rank re-admitted at an epoch boundary).
pub const COMM_MEMBERSHIP_REJOINS: &str = "comm/membership/rejoins";
/// `compso-kfac`: label of the rejoin catch-up delta all-gather (kept
/// separate from `comm/allgather_var` so call-count invariants on the
/// main collective stay exact).
pub const COMM_ALLGATHER_REJOIN: &str = "comm/allgather_rejoin";

/// `compso-kfac`: checksum/decode failures observed on gathered peer
/// payloads (`== corrupted_payload injections × (ranks − 1)`).
pub const KFAC_DEGRADE_CHECKSUM_FAILURES: &str = "kfac/degrade/checksum_failures";
/// `compso-kfac`: repair requests issued to payload origins (rung 1).
pub const KFAC_DEGRADE_REPAIR_REQUESTS: &str = "kfac/degrade/repair_requests";
/// `compso-kfac`: repairs satisfied by a compressed resend (rung 1).
pub const KFAC_DEGRADE_REPAIR_COMPRESSED_OK: &str = "kfac/degrade/repair_compressed_ok";
/// `compso-kfac`: repairs satisfied by an uncompressed resend (rung 2).
pub const KFAC_DEGRADE_REPAIR_UNCOMPRESSED_OK: &str = "kfac/degrade/repair_uncompressed_ok";
/// `compso-kfac`: layer groups that fell back to the last good
/// preconditioned gradient (rung 3a).
pub const KFAC_DEGRADE_FALLBACK_LAST_GOOD: &str = "kfac/degrade/fallback_last_good";
/// `compso-kfac`: layer groups that fell back to the plain averaged
/// gradient (an SGD-style step for those layers; rung 3b).
pub const KFAC_DEGRADE_FALLBACK_SGD: &str = "kfac/degrade/fallback_sgd";

/// `compso-kfac`: label of the degradation ladder's rung-1/rung-2
/// point-to-point repair payload receives in `CommError`s.
pub const KFAC_REPAIR: &str = "kfac/repair";
/// `compso-kfac`: label of the repair-handshake status acknowledgement
/// receives in `CommError`s.
pub const KFAC_REPAIR_STATUS: &str = "kfac/repair_status";

/// `compso-kfac`: whole `DistKfac::step`.
pub const KFAC_STEP: &str = "kfac/step";
/// `compso-kfac`: data-parallel gradient sync: each layer's gradient
/// reduced to its owner.
pub const KFAC_GRAD_SYNC: &str = "kfac/step/grad_sync";
/// `compso-kfac`: fusion-buffer flatten ahead of the single bucketed
/// gradient reduce (nested inside `grad_sync`).
pub const KFAC_BUCKET: &str = "kfac/step/grad_sync/bucket";
/// `compso-kfac`: decode of the rank's *own* all-gather frames (nested
/// inside `update`; the ring never brings them back, and the N−1 peers'
/// frames decode as they land, under `comm/pipeline/deliver`). The string
/// predates that split and is kept so reports stay comparable.
pub const KFAC_PEER_DECODE: &str = "kfac/step/update/peer_decode";
/// `compso-kfac`: local covariance compute + EMA fold every step, plus
/// the packed factor all-reduce on sync steps only (Fig. 1 "KFAC
/// Computations" + "Factor Allreduce").
pub const KFAC_FACTOR: &str = "kfac/step/factor";
/// `compso-kfac`: eigendecomposition / preconditioning of owned layers
/// (Fig. 1 "inverse").
pub const KFAC_INVERSE: &str = "kfac/step/inverse";
/// `compso-kfac`: factor decompositions (`sym_eig` or Cholesky, two per
/// layer refresh) performed by *this* rank — owners only, so the sum
/// over ranks is `2 × layers × refreshes` at any world size.
pub const KFAC_INVERSE_REFRESHES: &str = "kfac/inverse_refreshes";
/// `compso-kfac`: compress + all-gather of preconditioned gradients.
pub const KFAC_ALLGATHER: &str = "kfac/step/allgather";
/// `compso-kfac`: decode + install of gathered gradients.
pub const KFAC_UPDATE: &str = "kfac/step/update";
/// Synthetic report phase covering step time outside the tracked
/// sub-phases (computed by `StepReport`, never recorded directly).
pub const KFAC_STEP_OTHER: &str = "kfac/step/other";
/// `compso-kfac`: bytes moved by the fused factor all-reduce (step 3's
/// bucket of the synced layers' packed running-factor upper triangles,
/// n(n+1)/2 floats per factor). Zero on a step that syncs nothing.
pub const KFAC_FACTOR_FUSED_BYTES: &str = "kfac/factor_fused_bytes";
/// `compso-kfac`: factor all-reduces issued by *this* rank — one per
/// step on which some layer's refresh is due, plus one after each
/// membership epoch change; `⌈steps / eigen_refresh⌉` in a
/// fixed-membership run.
pub const KFAC_FACTOR_SYNCS: &str = "kfac/factor_syncs";
/// `compso-kfac`: ownership-map + schedule rebuilds forced by a
/// membership epoch change (the dead rank's aggregation groups are
/// re-owned across the survivors). Zero in a fixed-membership run.
pub const KFAC_ELASTIC_RESHARDS: &str = "kfac/elastic/reshards";

/// `compso-kfac` checkpointing: whole coordinated save (encode +
/// write + fsync + metadata all-gather + commit).
pub const CKPT_SAVE: &str = "ckpt/save";
/// `compso-kfac` checkpointing: whole coordinated restore (read +
/// decode + redistribution + import).
pub const CKPT_LOAD: &str = "ckpt/load";
/// `compso-kfac` checkpointing: committed snapshots this rank
/// participated in.
pub const CKPT_SAVES: &str = "ckpt/saves";
/// `compso-kfac` checkpointing: encoded bytes this rank wrote to
/// its payload files (manifest bytes count on rank 0).
pub const CKPT_BYTES: &str = "ckpt/bytes";
/// `compso-kfac` checkpointing: raw (pre-compression) tensor bytes
/// behind `ckpt/bytes` — the ratio of the two is the checkpoint
/// compression ratio.
pub const CKPT_RAW_BYTES: &str = "ckpt/raw_bytes";
/// `compso-kfac` checkpointing: restore attempts that had to skip a
/// snapshot (missing/torn/corrupt manifest or payload) and fall
/// back to an older one. Zero on a clean restore.
pub const CKPT_RESTORE_RUNGS: &str = "ckpt/restore_rungs";
/// `compso-kfac` checkpointing: restores that loaded a snapshot taken
/// at a *different* world size and resharded the owner-split factor
/// blobs across the new ownership map (the `reason=world_size` rung —
/// observable, no longer a silent skip). Zero when sizes match.
pub const CKPT_RESTORE_RUNGS_WORLD_SIZE: &str = "ckpt/restore_rungs_world_size";

/// `compso-ctrl`: one controller decision evaluated (every observed
/// step, whether or not the setting changed).
pub const CTRL_DECISIONS: &str = "ctrl/decisions";
/// `compso-ctrl`: wall time of one `Controller::observe` evaluation —
/// the control plane's overhead, priced per decision by the benchmark's
/// `ctrl.decide_ns`.
pub const CTRL_DECIDE: &str = "ctrl/decide";
/// `compso-ctrl`: decisions that changed the active setting in any way
/// (family, bits, threshold, rank, or chunking).
pub const CTRL_SWITCHES: &str = "ctrl/switches";
/// `compso-ctrl`: setting changes that crossed compressor families —
/// the measured CR×throughput product fell below the model's estimate
/// for a structurally different encoder.
pub const CTRL_FAMILY_SWITCHES: &str = "ctrl/family_switches";
/// `compso-ctrl`: steps held uncompressed in the warmup phase.
pub const CTRL_WARMUP_STEPS: &str = "ctrl/warmup_steps";
/// `compso-ctrl`: warmup→compressed transitions (1 per run unless the
/// controller is reset).
pub const CTRL_WARMUP_EXITS: &str = "ctrl/warmup_exits";
/// `compso-ctrl`: error-feedback divergence detections (the measured
/// residual/compression-error signal crossed the configured ceiling).
pub const CTRL_EF_DIVERGENCE: &str = "ctrl/ef_divergence";
/// `compso-ctrl`: backoffs to a higher-fidelity setting triggered by
/// divergence detections.
pub const CTRL_BACKOFFS: &str = "ctrl/backoffs";
/// `compso-ctrl`: steps where the measured step wall exceeded the
/// IterationModel prediction by the configured mistrust factor.
pub const CTRL_MODEL_MISMATCH: &str = "ctrl/model_mismatch";
/// `compso-kfac`: cached layer-schedule rebuilds forced by a
/// controller-driven compressor switch (chunk geometry changes with
/// the family). Zero under a static compressor.
pub const CTRL_SCHEDULE_INVALIDATIONS: &str = "ctrl/schedule_invalidations";

/// Every registered name. `compso-lint` parses this file to build the
/// allowed set; keep the array in sync with the constants above (the
/// `registry_lists_every_constant` test cross-checks it against the
/// constants this module exports).
pub const ALL: &[&str] = &[
    CORE_CHUNKED_COMPRESS,
    CORE_DECODE,
    CORE_BYTES_IN,
    CORE_BYTES_OUT,
    CORE_DECODE_BYTES_IN,
    COMM_ALLREDUCE,
    COMM_ALLGATHER_VAR,
    COMM_ALLGATHER,
    COMM_COMPRESSED_ALLREDUCE,
    COMM_BYTES_SENT,
    COMM_MSG_BYTES,
    COMM_ALLREDUCE_CALLS,
    COMM_ALLGATHER_VAR_CALLS,
    COMM_PIPELINED_ALLGATHER,
    COMM_PIPELINED_ALLGATHER_CALLS,
    COMM_PIPELINE_STAGES,
    COMM_PIPELINE_PRODUCE,
    COMM_PIPELINE_DELIVER,
    COMM_PIPELINE_WAIT,
    COMM_RECV,
    COMM_BARRIER,
    COMM_BROADCAST_BYTES,
    COMM_FAULT_CRC_DETECTED,
    COMM_RETRY_RESENDS,
    COMM_RETRY_NACKS_SENT,
    COMM_RETRY_BACKOFF_NS,
    COMM_ALLGATHER_REPAIR,
    COMM_MEMBERSHIP,
    COMM_MEMBERSHIP_EPOCHS,
    COMM_MEMBERSHIP_SHRINKS,
    COMM_MEMBERSHIP_REJOINS,
    COMM_ALLGATHER_REJOIN,
    KFAC_DEGRADE_CHECKSUM_FAILURES,
    KFAC_DEGRADE_REPAIR_REQUESTS,
    KFAC_DEGRADE_REPAIR_COMPRESSED_OK,
    KFAC_DEGRADE_REPAIR_UNCOMPRESSED_OK,
    KFAC_DEGRADE_FALLBACK_LAST_GOOD,
    KFAC_DEGRADE_FALLBACK_SGD,
    KFAC_REPAIR,
    KFAC_REPAIR_STATUS,
    KFAC_STEP,
    KFAC_GRAD_SYNC,
    KFAC_BUCKET,
    KFAC_PEER_DECODE,
    KFAC_FACTOR,
    KFAC_INVERSE,
    KFAC_INVERSE_REFRESHES,
    KFAC_ALLGATHER,
    KFAC_UPDATE,
    KFAC_STEP_OTHER,
    KFAC_FACTOR_FUSED_BYTES,
    KFAC_FACTOR_SYNCS,
    KFAC_ELASTIC_RESHARDS,
    CKPT_SAVE,
    CKPT_LOAD,
    CKPT_SAVES,
    CKPT_BYTES,
    CKPT_RAW_BYTES,
    CKPT_RESTORE_RUNGS,
    CKPT_RESTORE_RUNGS_WORLD_SIZE,
    CTRL_DECISIONS,
    CTRL_DECIDE,
    CTRL_SWITCHES,
    CTRL_FAMILY_SWITCHES,
    CTRL_WARMUP_STEPS,
    CTRL_WARMUP_EXITS,
    CTRL_EF_DIVERGENCE,
    CTRL_BACKOFFS,
    CTRL_MODEL_MISMATCH,
    CTRL_SCHEDULE_INVALIDATIONS,
];

/// Whether `name` is a registered metric/label name.
pub fn is_registered(name: &str) -> bool {
    ALL.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        for (i, a) in ALL.iter().enumerate() {
            for b in &ALL[i + 1..] {
                assert_ne!(a, b, "duplicate registered name");
            }
        }
    }

    #[test]
    fn names_are_slash_namespaced_lowercase() {
        for name in ALL {
            assert!(
                !name.is_empty() && name.contains('/'),
                "{name}: registered names are namespace/segment"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '/' || c == '_'),
                "{name}: registered names are lowercase [a-z0-9_/]"
            );
            assert!(
                !name.starts_with('/') && !name.ends_with('/') && !name.contains("//"),
                "{name}: empty path segment"
            );
            let ns = name.split('/').next().unwrap_or("");
            assert!(
                matches!(ns, "core" | "comm" | "kfac" | "ckpt" | "ctrl"),
                "{name}: unknown namespace {ns}"
            );
        }
    }

    #[test]
    fn is_registered_matches_membership() {
        assert!(is_registered(KFAC_STEP));
        assert!(is_registered(COMM_BARRIER));
        assert!(!is_registered("zzz/unregistered"));
        assert!(!is_registered(""));
    }

    /// The registry file is the single source of truth the lint pass
    /// parses; this pins that [`ALL`] covers at least the names every
    /// report path touches, so a constant added above but forgotten in
    /// `ALL` fails here instead of silently escaping the lint.
    #[test]
    fn registry_lists_every_constant() {
        // Parse our own source the same way compso-lint does: every
        // `pub const X: &str = "...";` value must be in ALL.
        let src = include_str!("names.rs");
        let mut missing = Vec::new();
        for line in src.lines() {
            let t = line.trim();
            let Some(rest) = t.strip_prefix("pub const ") else {
                continue;
            };
            if !rest.contains(": &str") {
                continue;
            }
            let Some(q0) = rest.find('"') else { continue };
            let Some(q1) = rest[q0 + 1..].find('"') else {
                continue;
            };
            let val = &rest[q0 + 1..q0 + 1 + q1];
            if !is_registered(val) {
                missing.push(val.to_string());
            }
        }
        assert!(
            missing.is_empty(),
            "constants missing from ALL: {missing:?}"
        );
        // And the parse actually saw the constants (guards against the
        // include_str! drifting from the real file).
        assert!(src.contains("pub const KFAC_STEP"));
    }
}
