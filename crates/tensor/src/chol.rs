//! Cholesky factorization for symmetric positive-definite matrices.
//!
//! KAISA's "implicit inversion" alternative (§2.2 of the paper) avoids
//! eigendecomposition by solving damped linear systems directly; this
//! module provides that path. Factorization runs in `f64` for stability.

use crate::matrix::Matrix;

/// A lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Clone, Debug)]
pub struct Cholesky {
    n: usize,
    /// Row-major lower-triangular factor, in f64.
    l: Vec<f64>,
}

/// Error returned when the input is not positive definite (or not square).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotPositiveDefinite;

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not symmetric positive definite")
    }
}

impl std::error::Error for NotPositiveDefinite {}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    pub fn new(a: &Matrix) -> Result<Self, NotPositiveDefinite> {
        if a.rows() != a.cols() {
            return Err(NotPositiveDefinite);
        }
        let n = a.rows();
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = 0.5 * (a.get(i, j) as f64 + a.get(j, i) as f64);
                // Panel dot over the two finished row prefixes as slices
                // (no per-step index arithmetic or bounds checks), in the
                // same strict ascending-k order as the scalar reference —
                // f64 adds do not reassociate, so the factor stays
                // bit-identical (`factor_bit_identical_to_scalar`).
                {
                    let (li, lj) = (&l[i * n..i * n + j], &l[j * n..j * n + j]);
                    for (&x, &y) in li.iter().zip(lj) {
                        sum -= x * y;
                    }
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(NotPositiveDefinite);
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Ok(Cholesky { n, l })
    }

    /// Raw factor state `(order, row-major lower-triangular f64 data)` —
    /// the exact internal representation, exported so checkpoints can
    /// restore a cached factorization **bit-identically** instead of
    /// refactorizing (which would see a newer running-average factor and
    /// drift the resumed trajectory). Inverse of [`Cholesky::from_raw`].
    pub fn raw(&self) -> (usize, &[f64]) {
        (self.n, &self.l)
    }

    /// Rebuilds a factor from a [`Cholesky::raw`] export. Returns `None`
    /// when the data length does not match `n * n` (a corrupt or
    /// truncated checkpoint payload must not panic here).
    pub fn from_raw(n: usize, l: Vec<f64>) -> Option<Self> {
        if l.len() != n.checked_mul(n)? {
            return None;
        }
        Some(Cholesky { n, l })
    }

    /// Solves `A x = b` for a single right-hand side.
    pub fn solve_vec(&self, b: &[f32]) -> Vec<f32> {
        assert_eq!(b.len(), self.n, "solve_vec rhs length");
        let n = self.n;
        let mut y = vec![0.0f64; n];
        // Forward: L y = b
        for i in 0..n {
            let mut sum = b[i] as f64;
            for (k, &yk) in y.iter().enumerate().take(i) {
                sum -= self.l[i * n + k] * yk;
            }
            y[i] = sum / self.l[i * n + i];
        }
        // Backward: Lᵀ x = y
        let mut x = vec![0.0f64; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                sum -= self.l[k * n + i] * xk;
            }
            x[i] = sum / self.l[i * n + i];
        }
        x.into_iter().map(|v| v as f32).collect()
    }

    /// Solves `A X = B` column by column.
    pub fn solve(&self, b: &Matrix) -> Matrix {
        assert_eq!(b.rows(), self.n, "solve rhs rows");
        let bt = b.transpose();
        let mut out_t = Matrix::zeros(b.cols(), b.rows());
        for c in 0..b.cols() {
            let col = self.solve_vec(bt.row(c));
            out_t.row_mut(c).copy_from_slice(&col);
        }
        out_t.transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random_spd(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        let b = Matrix::random_normal(n, n, &mut rng);
        let mut spd = b.t_matmul(&b);
        spd.add_diag(0.5);
        spd.symmetrize();
        spd
    }

    #[test]
    fn factor_reconstructs() {
        let a = random_spd(10, 1);
        let ch = Cholesky::new(&a).unwrap();
        // Rebuild L Lᵀ in f32 and compare.
        let n = 10;
        let mut l32 = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                l32.set(i, j, ch.l[i * n + j] as f32);
            }
        }
        let rebuilt = l32.matmul_t(&l32);
        assert!(rebuilt.max_diff(&a) < 1e-3, "diff {}", rebuilt.max_diff(&a));
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = random_spd(16, 2);
        let mut rng = Rng::new(3);
        let x_true = Matrix::random_normal(16, 1, &mut rng);
        let b = a.matmul(&x_true);
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve_vec(b.as_slice());
        for (i, &xi) in x.iter().enumerate() {
            assert!((xi - x_true.get(i, 0)).abs() < 1e-2, "i={i}");
        }
    }

    /// The pre-panel scalar factorization, retained as the bit-identity
    /// oracle.
    fn factor_scalar(a: &Matrix) -> Result<Vec<f64>, NotPositiveDefinite> {
        let n = a.rows();
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = 0.5 * (a.get(i, j) as f64 + a.get(j, i) as f64);
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(NotPositiveDefinite);
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Ok(l)
    }

    #[test]
    fn factor_bit_identical_to_scalar() {
        for (n, seed) in [(1usize, 11u64), (2, 12), (7, 13), (32, 14), (65, 15)] {
            let a = random_spd(n, seed);
            let ch = Cholesky::new(&a).unwrap();
            let reference = factor_scalar(&a).unwrap();
            let (_, l) = ch.raw();
            assert_eq!(l.len(), reference.len());
            for (i, (x, y)) in l.iter().zip(&reference).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "n={n} idx={i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn rejects_indefinite() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert_eq!(Cholesky::new(&m).unwrap_err(), NotPositiveDefinite);
    }

    #[test]
    fn rejects_non_square() {
        let m = Matrix::zeros(2, 3);
        assert!(Cholesky::new(&m).is_err());
    }

    #[test]
    fn solve_matrix_multi_rhs() {
        let a = random_spd(6, 8);
        let mut rng = Rng::new(9);
        let x_true = Matrix::random_normal(6, 3, &mut rng);
        let b = a.matmul(&x_true);
        let x = Cholesky::new(&a).unwrap().solve(&b);
        assert!(x.max_diff(&x_true) < 1e-2, "diff {}", x.max_diff(&x_true));
    }
}
