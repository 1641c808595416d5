//! # compso-sim
//!
//! Cluster performance simulator for the paper-scale experiments, and the
//! one place that prices communication or a step.
//!
//! The paper times distributed K-FAC on 16/64-node A100 clusters; this
//! crate substitutes an analytic per-iteration timing model (DESIGN.md
//! §1): compute phases estimated from the model specs' FLOP counts and a
//! sustained-throughput GPU constant, communication phases from the
//! platforms' alpha-beta network model, and compression phases from
//! *measured* compressor profiles. It regenerates the timing figures:
//!
//! * Fig. 1 — per-phase breakdown of a distributed K-FAC iteration;
//! * Fig. 7 — communication speedup under compression;
//! * Fig. 9 — end-to-end gain, including the COMPSO-f (fixed aggregation)
//!   vs. COMPSO-p (performance-model aggregation) comparison.

pub mod platform;
pub mod speedup;
pub mod timing;

pub use platform::Platform;
pub use speedup::{
    choose_encoder, comm_speedup, comm_speedup_on, end_to_end_gain, end_to_end_gain_on,
    gpu_profile, measure_encoders, measure_membw, measure_profile, AggregationPolicy,
    CompressorProfile, EncoderMeasurement,
};
pub use timing::{Breakdown, IterationModel};
