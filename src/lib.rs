//! # compso
//!
//! Facade crate for the COMPSO reproduction (PPoPP '25): re-exports every
//! workspace crate under one roof so examples, integration tests, and
//! downstream users can depend on a single package.
//!
//! * [`core`](compso_core) — the COMPSO compressor and baselines;
//! * [`tensor`](compso_tensor) — dense linear algebra and the PRNG;
//! * [`dnn`](compso_dnn) — the DNN training substrate;
//! * [`kfac`](compso_kfac) — (distributed) K-FAC optimizers;
//! * [`ckpt`](compso_ckpt) — CRC-checked checkpoint/restore;
//! * [`comm`](compso_comm) — in-process collectives over the fault-injectable
//!   transport;
//! * [`sim`](compso_sim) — the cost model: network model, compressor
//!   profiles, Eq. 5 and the cluster performance simulator;
//! * [`obs`](compso_obs) — step-level observability (timers, counters,
//!   per-step JSON reports).
//!
//! Quick start:
//!
//! ```
//! use compso::core::{ChunkedCompso, CompsoConfig, Compressor};
//! use compso::tensor::Rng;
//!
//! let gradients = vec![0.001f32, -0.0002, 0.04, 0.0, -0.015];
//! let compressor = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
//! let mut rng = Rng::new(42);
//! let bytes = compressor.compress(&gradients, &mut rng);
//! let restored = compressor.decompress(&bytes).unwrap();
//! assert_eq!(restored.len(), gradients.len());
//! ```

pub use compso_ckpt as ckpt;
pub use compso_comm as comm;
pub use compso_core as core;
pub use compso_ctrl as ctrl;
pub use compso_dnn as dnn;
pub use compso_kfac as kfac;
pub use compso_obs as obs;
pub use compso_sim as sim;
pub use compso_tensor as tensor;
