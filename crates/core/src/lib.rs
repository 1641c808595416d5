//! # compso-core
//!
//! The paper's primary contribution: the COMPSO gradient compressor for
//! second-order (K-FAC) optimizers, plus the baseline compressors it is
//! evaluated against.
//!
//! The pipeline (Fig. 4a of the paper) is
//!
//! ```text
//!           ┌─ |g| <  eb_f ──→ bitmap ──→ lossless encoder ─┐
//!  KFAC ────┤                                               ├──→ bytes
//!  gradient └─ |g| >= eb_f ──→ SR quantizer → byte/plane split →
//!                                              lossless encoder ─┘
//! ```
//!
//! * [`filter`] — the lossy filter that zeroes sub-threshold gradients and
//!   records them in a [`bitmap::Bitmap`];
//! * [`rounding`] / [`quantize`] — round-to-nearest, stochastic rounding
//!   (Eq. 4) and P0.5 rounding over an error-bounded uniform quantizer;
//! * [`bitpack`] — the chunk records' code layout: every code reaches the
//!   byte-wise coder as one (rotated) byte, and a code wider than 8 bits
//!   also as its `width − 8` high bits in a packed plane stream, so the
//!   coder does §4.3's bit packing at the rate the codes allow;
//! * [`encoders`] — eight from-scratch lossless codecs mirroring the
//!   nvCOMP families of Table 2 (ANS, Bitcomp, Cascaded, Deflate,
//!   Gdeflate, LZ4, Snappy, Zstd);
//! * [`adaptive`] — the iteration-wise error-bound schedule (Alg. 1);
//! * [`perfmodel`] — the codec's chunk tile and the pipelined-gather
//!   wall clock (step pricing lives in `compso-sim`);
//! * [`kernels`] — the end-to-end COMPSO compressor ([`ChunkedCompso`]:
//!   layer aggregation, per-layer normalization ranges) on the fused
//!   single-pass kernels, the CPU analogue of the paper's §4.5 GPU
//!   optimizations, with the staged multi-pass ablation beside them;
//! * [`baselines`] — QSGD, SZ, CocktailSGD and PowerSGD
//!   reimplementations;
//! * [`traits`] — the [`Compressor`] surface every family sits behind:
//!   one keyed group encode/decode pair ([`wire`] holds the group
//!   framing the per-layer families share);
//! * [`synthetic`] — K-FAC/SGD-gradient-like data generators used by the
//!   compression-ratio experiments.

pub mod adaptive;
pub mod baselines;
pub mod bitmap;
pub mod bitpack;
pub mod encoders;
pub mod factors;
pub mod filter;
pub mod kernels;
pub mod microkernel;
pub mod perfmodel;
pub mod quantize;
pub mod rounding;
pub mod synthetic;
pub mod traits;
pub mod tuning;
pub mod wire;

pub use adaptive::{BoundSchedule, CompressionStrategy, LrScheduleKind};
pub use encoders::Codec;
pub use kernels::{ChunkedCompso, CompsoConfig, KernelConfig, LayerSchedule};
pub use quantize::Quantizer;
pub use rounding::RoundingMode;
pub use traits::{CompressError, Compressor, NoCompression};
