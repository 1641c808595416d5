//! # compso-ctrl
//!
//! The adaptive compression control plane: an online, per-layer/per-step
//! controller that picks `{compressor family, quantization bits, filter
//! threshold, chunking}` from **measured** signals instead of a static
//! ahead-of-time choice. The adaptive-methods line (arXiv 2105.07829)
//! and the end-to-end-utility critique (arXiv 2407.01378) both show the
//! best operating point shifts with training phase, layer shape, and
//! wire bandwidth; everything a controller needs is already emitted by
//! `compso-obs` (achieved ratio, phase walls, resilience counters) and
//! the §4.4 IterationModel (predicted step walls).
//!
//! ## Policy state machine (DESIGN.md §15)
//!
//! ```text
//!            step < warmup_steps
//!   ┌────────┐ hold uncompressed  ┌────────┐  error_rel > ceiling  ┌─────────┐
//!   │ Warmup │ ─────────────────▶ │ Steady │ ────────────────────▶ │ Backoff │
//!   └────────┘   warmup_exit      └────────┘   +fidelity ladder    └─────────┘
//!                                   ▲  │ eval: argmax CR×tput          │
//!                                   │  └ switch on sustained margin    │
//!                                   └──────── backoff_steps elapsed ───┘
//! ```
//!
//! * **Warmup** holds the identity compressor while gradients are still
//!   violently rotating (the phase where lossy compression hurts most),
//!   then exits to the best prior candidate.
//! * **Steady** updates an EMA estimate of the active candidate's
//!   CR×throughput product from measured bytes/walls, deterministically
//!   probes unobserved candidates on the exploration cadence, and
//!   switches families when an alternative's product beats the active
//!   one by `switch_margin` for `patience` consecutive evaluations.
//! * **Backoff** reacts to error-feedback divergence (measured relative
//!   compression error above `divergence_ceiling`): the active setting
//!   is replaced by the next rung of its fidelity ladder for
//!   `backoff_steps`, the offender's estimate is penalized, and steady
//!   selection resumes afterwards.
//!
//! Every decision increments registered `ctrl/*` instruments and lands
//! in a bounded in-memory trace, so a run's decision log reconciles
//! exactly against its counters ([`Controller::reconcile`]), which a
//! per-step `StepReport` carries in its counter map.
//!
//! Determinism: [`Controller::observe`] is a pure function of
//! `(config, seed, signal sequence)` — no wall-clock reads, no map
//! iteration, ties broken by candidate index — so identical signals
//! yield identical decision traces at any world size, which is what
//! keeps controller-driven distributed runs bit-identical across
//! 1/2/4 ranks.

pub mod bank;
pub mod controller;
pub mod policy;

pub use bank::instantiate;
pub use controller::{Controller, Decision, Reason, Signals};
pub use policy::{Candidate, ControlConfig, Family, Phase, Setting};
