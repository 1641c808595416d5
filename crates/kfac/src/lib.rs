//! # compso-kfac
//!
//! The second-order optimization substrate: a from-scratch K-FAC
//! optimizer (§2.1 of the paper), its KAISA-style distributed variant
//! (§2.2) with pluggable gradient compression on the preconditioned-
//! gradient all-gather — the communication COMPSO targets — plus the
//! two learning-rate schedules the adaptive compression mechanism keys
//! off (StepLR, SmoothLR).
//!
//! Distributed step anatomy (Fig. 2 of the paper):
//!
//! 1. local forward/backward on the rank's data shard;
//! 2. ring reduce of the raw gradients, each layer to its *owner* (the
//!    reduce-scatter half of the data-parallel all-reduce);
//! 3. covariance factors `A = E[ããᵀ]`, `G = E[ggᵀ]` computed and folded
//!    into running averages locally; the running averages are
//!    all-reduced once per `eigen_refresh` iterations, when step 4 reads
//!    them;
//! 4. each layer's eigendecomposition + preconditioning on its *owner*
//!    rank (greedy cost-balanced assignment, refreshed factors every
//!    `eigen_refresh` iterations);
//! 5. all-gather of the preconditioned gradients — optionally compressed
//!    with any [`compso_core::Compressor`];
//! 6. identical parameter update on every rank.

// The distributed step threads `CommError` up instead of panicking or
// dropping it (as compso-comm does). Test code may unwrap; a provably
// infallible site carries an `#[expect]` of the lint with its proof as
// the `reason`.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::let_underscore_must_use
    )
)]

pub mod checkpoint;
pub mod distributed;
pub mod kfac;
pub mod schedule;

pub use checkpoint::{CheckpointConfig, CheckpointCoordinator, CoordError, Restored};
pub use distributed::{DistKfac, DistKfacConfig, DistKfacState, StepStats};
pub use kfac::{Kfac, KfacConfig, LayerState};
pub use schedule::{LrSchedule, SmoothLr, StepLr};
