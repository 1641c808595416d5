//! # compso-comm
//!
//! The collective-communication substrate for the COMPSO reproduction.
//!
//! Distributed K-FAC (§2.2 of the paper) needs three collectives:
//! *all-reduce* for the covariance factors, *all-gather* (or broadcast) for
//! the preconditioned gradients, and barriers for phase alignment. The
//! paper runs them over NCCL on Slingshot fabrics; this crate substitutes
//!
//! 1. **functional collectives** — N ranks as OS threads exchanging real
//!    buffers over crossbeam channels, with textbook ring algorithms
//!    (reduce-scatter + all-gather all-reduce, ring all-gather with
//!    variable-size blocks, flat-tree broadcast). These verify that
//!    compressed communication is *correct*: every rank decodes the same
//!    bits; and
//! 2. **an analytic network model** — per-platform alpha-beta cost curves
//!    with message-size-dependent effective bandwidth and node-topology
//!    awareness, matching the "offline lookup table" of §4.4. This is what
//!    the timing experiments (Figs. 1/7/9) query.
//!
//! Under the collectives the transport splits by job: `group` (view,
//! send/receive, the one bounded wait, `run_ranks*`), `clock` (time and
//! the modeled wire), `arq` (CRC envelope, NACK/retransmit), `membership`
//! (shrink, rejoin, view-change glue) and `fault` (the fault plane).

mod arq;
mod clock;
pub mod collectives;
pub mod fault;
pub mod group;
pub mod membership;
pub mod netmodel;

pub use fault::{FaultConfig, FaultPlane, LedgerSnapshot};
pub use group::{
    build_group_with, run_ranks, run_ranks_elastic, run_ranks_with, CommConfig, CommError,
    CommGroup, Communicator, Payload,
};
pub use membership::{admit_pending, rejoin, MembershipFrame, ViewChange};
pub use netmodel::{CollectiveKind, NetworkSpec, ThroughputTable};
