//! Canonical metric and collective-label names used across the
//! instrumented crates, so reports, dashboards, and tests agree on
//! spelling.
//!
//! This module is a **registry**, not just a bag of constants: every
//! counter/span/histogram name and every collective label that crosses a
//! crate boundary must be declared here as a `const NAME: &str`, the
//! shape `compso-lint` parses this file for.
//! `compso-lint`'s `counter-registry` rule enforces both directions —
//! prod code may not pass bare string literals to a `Recorder` or
//! `recv_labeled`, and any slash-namespaced name literal anywhere in the
//! workspace (tests included) must match a registered constant, so a
//! typo in a test pin is caught at lint time instead of silently
//! asserting against a counter that never fires. The rule also fails on
//! a registered name that nothing reads: every name is read by a report,
//! a test or a gate somewhere besides its recording calls, or it goes.

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

/// `compso-comm`: label of a bare point-to-point receive in `CommError`s
/// (the tests' `Communicator::recv`; production receives carry their
/// collective's label).
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
/// reduced to its owner — including the work hidden in the reduce's
/// waits (`fold`, `precondition` below), timed where it runs.
pub const KFAC_GRAD_SYNC: &str = "kfac/step/grad_sync";
/// `compso-kfac`: the local covariance fold, run in the gradient
/// reduce's first wait (nested inside `grad_sync`; once per step call,
/// whatever an elastic retry repeats).
pub const KFAC_FOLD: &str = "kfac/step/grad_sync/fold";
/// `compso-kfac`: one owned layer preconditioned the moment its reduced
/// gradient lands, while the rest drain (nested inside `grad_sync`; none
/// on a refresh-due layer or after a membership epoch change, which
/// precondition under `inverse`).
pub const KFAC_PRECONDITION_LANDED: &str = "kfac/step/grad_sync/precondition";
/// `compso-kfac`: the packed factor all-reduce, on sync steps only
/// (Fig. 1 "Factor Allreduce"). The covariance compute + EMA fold (Fig. 1
/// "KFAC Computations") runs every step hidden in the gradient reduce's
/// wait, so it is timed under `grad_sync` (`kfac/step/grad_sync/fold`);
/// the five phases still partition the step.
pub const KFAC_FACTOR: &str = "kfac/step/factor";
/// `compso-kfac`: eigendecomposition refreshes and the preconditioning
/// of the owned layers the gradient reduce did not already precondition
/// as they landed (Fig. 1 "inverse"; the rest is timed under
/// `grad_sync`, `kfac/step/grad_sync/precondition`).
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
pub(crate) const KFAC_STEP_OTHER: &str = "kfac/step/other";
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
/// `compso-kfac` checkpointing: bytes this rank wrote to its payload
/// file (manifest bytes count on rank 0).
pub const CKPT_BYTES: &str = "ckpt/bytes";
/// `compso-kfac` checkpointing: raw tensor bytes behind `ckpt/bytes` —
/// the rest of `ckpt/bytes` is blob framing (names, shapes, lengths)
/// and the manifest.
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
/// `compso-ctrl`: backoffs to a higher-fidelity setting triggered by
/// divergence detections.
pub const CTRL_BACKOFFS: &str = "ctrl/backoffs";
/// `compso-kfac`: cached layer-schedule rebuilds forced by a
/// controller-driven compressor switch (chunk geometry changes with
/// the family). Zero under a static compressor.
pub const CTRL_SCHEDULE_INVALIDATIONS: &str = "ctrl/schedule_invalidations";

#[cfg(test)]
mod tests {
    /// Every registered value, parsed from this file the way
    /// `compso-lint` reads it: one top-level `const NAME: &str` line each.
    fn registered() -> Vec<&'static str> {
        let values = include_str!("names.rs").lines().filter_map(|line| {
            let line = (line.strip_prefix("pub const "))
                .or_else(|| line.strip_prefix("pub(crate) const "))?;
            let value = line.split_once(": &str = \"")?.1;
            Some(value.split_once('"')?.0)
        });
        values.collect()
    }

    #[test]
    fn names_are_unique() {
        let all = registered();
        assert!(all.len() > 40, "registry parse found {} names", all.len());
        for (i, a) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(a), "duplicate registered name {a}");
        }
    }

    #[test]
    fn names_are_slash_namespaced_lowercase() {
        for name in registered() {
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
}
