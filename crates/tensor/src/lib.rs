//! # compso-tensor
//!
//! Dense linear-algebra substrate for the COMPSO reproduction: row-major
//! `f32` matrices with cache-blocked, rayon-parallel matrix multiplication,
//! a symmetric eigensolver (Householder tridiagonalisation + implicit-shift
//! QL in `f64`, ≈ 9n³ flops, every O(n³) loop unit-stride — the kernel
//! K-FAC uses to invert its Kronecker factors), Cholesky factorization,
//! hierarchical parallel reductions (the CPU analogue of CUDA block
//! reduction + warp shuffle), a deterministic counter-seeded PRNG used for
//! stochastic rounding, and histogram/statistics helpers used by the
//! rounding-error analysis.
//!
//! Everything here is written from scratch; no BLAS/LAPACK is linked. The
//! matrices K-FAC produces (layer covariance factors) are symmetric and
//! rarely larger than a few thousand rows, a regime where the blocked
//! kernels below are adequate and fully deterministic.

pub mod chol;
pub mod eigen;
pub mod matrix;
pub mod reduce;
pub mod rng;
pub mod stats;

pub use chol::Cholesky;
pub use eigen::{sym_eig, EigenDecomposition};
pub use matrix::{GemmInstance, Matrix};
pub use rng::Rng;
