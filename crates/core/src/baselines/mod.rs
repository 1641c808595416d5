//! Baseline compressors the paper evaluates against (§2.4, §5).
//!
//! * [`qsgd::Qsgd`] — fixed-rate stochastic-rounding quantization with
//!   Elias-gamma coding (Alistarh et al., NeurIPS'17);
//! * [`sz::Sz`] — prediction-based error-bounded compression with
//!   round-to-nearest quantization and Huffman coding (the cuSZ row of
//!   the tables);
//! * [`cocktail::CocktailSgd`] — random-sampled top-k sparsification (20%)
//!   combined with 8-bit quantization (Wang et al., ICML'23);
//! * [`powersgd::PowerSgd`] — rank-r low-rank power iteration with warm
//!   starts and error feedback (Vogels et al., NeurIPS'19), the
//!   structurally different fourth family the adaptive control plane
//!   selects between.
//!
//! Each family keeps its per-layer block codec as inherent
//! `encode`/`decode` and gets its group behaviour from the one shared
//! framing, [`crate::wire::frame_group`] — a pure format that the
//! independent-per-layer families (QSGD, SZ, CocktailSGD) fill one
//! rayon worker per layer and PowerSGD fills serially under its state
//! lock.

use crate::traits::CompressError;
use crate::wire::{frame_group, unframe_group};
use compso_tensor::rng::Rng;
use rayon::prelude::*;

pub mod cocktail;
pub mod powersgd;
pub mod qsgd;
pub mod sz;

pub use cocktail::CocktailSgd;
pub use powersgd::PowerSgd;
pub use qsgd::Qsgd;
pub use sz::Sz;

/// The group path of the independent-per-layer families: the caller's
/// generator advances exactly once and layer `i` encodes on its own rayon
/// worker with the fork `base.fork(i)`, so the bytes never depend on
/// which worker ran first; the blocks go under the shared framing.
fn compress_per_layer<F>(layers: &[(u64, &[f32])], rng: &mut Rng, encode: F) -> Vec<u8>
where
    F: Fn(&[f32], &mut Rng) -> Vec<u8> + Sync,
{
    let base = Rng::new(rng.next_u64());
    let blocks: Vec<Vec<u8>> = layers
        .par_iter()
        .enumerate()
        .map(|(i, &(_, layer))| encode(layer, &mut base.fork(i as u64)))
        .collect();
    frame_group(&blocks)
}

/// Inverse of [`compress_per_layer`]: the blocks decode on rayon workers.
fn decompress_per_layer(
    bytes: &[u8],
    decode: fn(&[u8]) -> Result<Vec<f32>, CompressError>,
) -> Result<Vec<Vec<f32>>, CompressError> {
    unframe_group(bytes)?
        .par_iter()
        .map(|b| decode(b))
        .collect()
}
