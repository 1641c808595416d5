//! The benchmark's whole dependency on the program under test.
//!
//! This is the only file of the benchmark that names `compso::*` items;
//! every other module imports them from here. A change that collapses or
//! renames one of these entry points must keep it source-compatible (or
//! change this file in a benchmark-only PR first, see README.md
//! "Surface"). Grouped by the layer they belong to.

// tensor
pub use compso::tensor::{sym_eig, Matrix, Rng};

// dnn
pub use compso::dnn::data::{gaussian_blobs, noisy_images, Dataset};
pub use compso::dnn::loss::softmax_cross_entropy;
pub use compso::dnn::models::{mlp, small_cnn};
pub use compso::dnn::{ModelSpec, Sequential};

// kfac
pub use compso::kfac::checkpoint::fingerprint;
pub use compso::kfac::distributed::assign_layers;
pub use compso::kfac::kfac::{covariance, precondition, InversionMethod};
pub use compso::kfac::{
    CheckpointConfig, CheckpointCoordinator, DistKfac, DistKfacConfig, KfacConfig,
};

// core
pub use compso::core::perfmodel::pipelined_wall;
pub use compso::core::synthetic::{generate, GradientProfile};
pub use compso::core::wire::{frame_checksummed, unframe_checksummed};
pub use compso::core::{
    BoundSchedule, ChunkedCompso, Compressor, CompsoConfig, LayerSchedule, NoCompression,
};

// comm
pub use compso::comm::collectives::{allgather_var, allreduce_mean, pipelined_allgather};
pub use compso::comm::{run_ranks_with, CommConfig, Communicator, FaultPlane};

// ctrl
pub use compso::ctrl::{instantiate, Candidate, ControlConfig, Controller, Setting, Signals};

// obs
pub use compso::obs::{names, Recorder, Snapshot, STEP_PHASES};
