//! # compso-comm
//!
//! The collective-communication substrate for the COMPSO reproduction.
//!
//! Distributed K-FAC (§2.2 of the paper) needs three collectives:
//! *all-reduce* for the covariance factors, *all-gather* (or broadcast) for
//! the preconditioned gradients, and barriers for phase alignment. The
//! paper runs them over NCCL on Slingshot fabrics; this crate substitutes
//! functional collectives: N ranks as OS threads exchanging real buffers
//! over crossbeam channels, with textbook ring algorithms (all-reduce as
//! reduce-scatter then all-gather, ring all-gather with variable-size
//! blocks, flat-tree broadcast). These verify that compressed
//! communication is *correct*: every rank decodes the same bits. What
//! communication would *cost* on the paper's clusters (the α–β model
//! behind Figs. 1/7/9) is priced by `compso-sim`, not here.
//!
//! Under the collectives the transport splits by job: `group` (view,
//! send/receive, the one bounded wait, `run_ranks*`), `clock` (time and
//! the modeled wire), `arq` (CRC envelope, NACK/retransmit), `membership`
//! (shrink, rejoin, view-change glue) and `fault` (the fault plane).

// The comm stack is fallible end to end: a peer failure surfaces as a
// `CommError`, never as a panic or a dropped `Result`. Test code may
// unwrap; a provably infallible site carries an `#[expect]` of the lint
// with its proof as the `reason`, and rustc checks that the lint still fires.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::let_underscore_must_use
    )
)]

mod arq;
mod clock;
pub mod collectives;
pub mod fault;
pub mod group;
pub mod membership;

pub use fault::{FaultConfig, FaultPlane, LedgerSnapshot};
pub use group::{
    run_ranks, run_ranks_elastic, run_ranks_with, CommConfig, CommError, CommGroup, Communicator,
    Payload,
};
pub use membership::{admit_pending, rejoin, MembershipFrame, ViewChange};
