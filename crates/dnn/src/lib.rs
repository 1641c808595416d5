//! # compso-dnn
//!
//! A minimal DNN training framework with the one feature distributed
//! K-FAC requires and generic autograd frameworks hide: every
//! K-FAC-eligible layer exposes its *K-FAC statistics* — the input
//! activations `a_{l-1}` (bias-augmented) and the pre-activation output
//! gradients `g_l` — captured during forward/backward, exactly the
//! quantities Eq. 1 of the paper builds its Kronecker factors from.
//!
//! The crate provides:
//!
//! * [`layer`] — the [`layer::Layer`] trait plus Linear (bias-augmented),
//!   ReLU, Tanh and LayerNorm;
//! * [`conv`] — an im2col Conv2d whose K-FAC statistics follow the
//!   standard spatial-sum convention, plus GlobalAvgPool; feature maps
//!   travel as HWC rows;
//! * [`seq`] — the [`seq::Sequential`] container;
//! * [`loss`] — softmax cross-entropy with analytic gradients, and accuracy;
//! * [`data`] — deterministic synthetic datasets (Gaussian blobs, spirals,
//!   image-like classes, token sequences) substituting for the paper's
//!   ImageNet/COCO/Wiki/Pile (see DESIGN.md §1);
//! * [`models`] — trainable proxy model builders;
//! * [`specs`] — per-layer shape inventories of the four paper models
//!   (ResNet-50, Mask R-CNN, BERT-large, GPT-neo-125M) driving the
//!   simulator and compression-ratio experiments.

pub mod conv;
pub mod data;
pub mod layer;
pub mod loss;
pub mod models;
pub mod seq;
pub mod specs;

pub use layer::{KfacStats, Layer, Linear};
pub use seq::Sequential;
pub use specs::ModelSpec;
