//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! K-FAC inverts its Kronecker factors through their eigendecompositions
//! (Eq. 2 of the paper). The factors are symmetric positive semi-definite
//! covariance matrices, which is exactly the regime where Jacobi rotation
//! sweeps are simple, unconditionally convergent, and accurate to machine
//! precision. Computation runs in `f64` internally for stability and is
//! returned as `f32` to match the rest of the stack.

use crate::matrix::Matrix;

/// The result of a symmetric eigendecomposition `A = Q diag(λ) Qᵀ`.
#[derive(Clone, Debug)]
pub struct EigenDecomposition {
    /// Eigenvalues in descending order.
    pub values: Vec<f32>,
    /// Orthonormal eigenvectors; column `j` corresponds to `values[j]`.
    pub vectors: Matrix,
}

impl EigenDecomposition {
    /// Reconstructs `Q diag(λ) Qᵀ` — used by tests to validate the factorization.
    pub fn reconstruct(&self) -> Matrix {
        let n = self.values.len();
        let mut scaled = self.vectors.clone();
        // scaled[:, j] *= λ_j
        for i in 0..n {
            for j in 0..n {
                let v = scaled.get(i, j) * self.values[j];
                scaled.set(i, j, v);
            }
        }
        scaled.matmul_t(&self.vectors)
    }

    /// Applies `f` to each eigenvalue and reconstructs — the spectral
    /// function machinery K-FAC uses for `(A + γI)^{-1}` and friends.
    pub fn map_spectrum(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mapped = EigenDecomposition {
            values: self.values.iter().map(|&v| f(v)).collect(),
            vectors: self.vectors.clone(),
        };
        mapped.reconstruct()
    }
}

/// One Jacobi rotation applied to columns `p` and `r` of a row-major
/// `n×n` buffer: every row's `(p, r)` pair maps through the fixed 2×2
/// rotation. Iterating whole rows via `chunks_exact_mut` removes the
/// per-step index arithmetic of the scalar `a[k*n+p]` loop; the
/// arithmetic per element is unchanged, so the sweep stays bit-identical
/// (pinned by `rotation_panels_bit_identical_to_scalar`).
#[inline(always)]
fn rotate_cols(a: &mut [f64], n: usize, p: usize, r: usize, c: f64, s: f64) {
    for row in a.chunks_exact_mut(n) {
        let xp = row[p];
        let xr = row[r];
        row[p] = c * xp - s * xr;
        row[r] = s * xp + c * xr;
    }
}

/// The same rotation applied to rows `p` and `r` (`p < r`): the two
/// contiguous row panels come from `split_at_mut`, and the elementwise
/// update carries no loop dependence, so it vectorizes.
#[inline(always)]
fn rotate_rows(a: &mut [f64], n: usize, p: usize, r: usize, c: f64, s: f64) {
    debug_assert!(p < r);
    let (top, bottom) = a.split_at_mut(r * n);
    let prow = &mut top[p * n..p * n + n];
    let rrow = &mut bottom[..n];
    for (x, y) in prow.iter_mut().zip(rrow) {
        let xp = *x;
        let xr = *y;
        *x = c * xp - s * xr;
        *y = s * xp + c * xr;
    }
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
///
/// Total on non-finite input: a NaN/Inf matrix yields NaN eigenpairs
/// (sorted by `total_cmp`), never a panic — a diverged run must fail its
/// own finite-loss check, not abort inside the eigensolver.
///
/// # Panics
/// If the matrix is not square. Asymmetry beyond f32 round-off should be
/// removed with [`Matrix::symmetrize`] first; the routine symmetrizes its
/// internal copy regardless.
pub fn sym_eig(m: &Matrix) -> EigenDecomposition {
    // Accumulate Qᵀ, not Q: `Q <- QJ` rotates two *columns* of Q (a
    // strided walk over the whole n×n buffer per rotation), while the
    // same update on the transpose rotates two contiguous *rows* — the
    // same arithmetic on the same values in the same order, so the
    // eigenpairs are bit-identical (pinned against the strided routine
    // by `transposed_accumulation_bit_identical_to_strided_q`), and once
    // `a` and `q` outgrow L2 (n ≈ 289) it is 2–3× faster.
    let n = m.rows();
    let mut qt = identity(n);
    let diag = jacobi_diagonalize(m, |p, r, c, s| rotate_rows(&mut qt, n, p, r, c, s));
    extract(&diag, |row, src| qt[src * n + row])
}

fn identity(n: usize) -> Vec<f64> {
    let mut q = vec![0.0f64; n * n];
    for i in 0..n {
        q[i * n + i] = 1.0;
    }
    q
}

/// Sweeps the symmetrized f64 copy of `m` to diagonal form and returns
/// the diagonal; `accumulate(p, r, c, s)` sees every rotation in order.
fn jacobi_diagonalize(m: &Matrix, mut accumulate: impl FnMut(usize, usize, f64, f64)) -> Vec<f64> {
    assert_eq!(m.rows(), m.cols(), "sym_eig needs a square matrix");
    let n = m.rows();

    // Work in f64: a = (M + Mᵀ)/2.
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = 0.5 * (m.get(i, j) as f64 + m.get(j, i) as f64);
        }
    }

    let off_diag_norm = |a: &[f64]| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                s += a[i * n + j] * a[i * n + j];
            }
        }
        (2.0 * s).sqrt()
    };

    let scale = {
        let mut mx = 0.0f64;
        for &v in &a {
            mx = mx.max(v.abs());
        }
        mx.max(1e-300)
    };
    let tol = 1e-14 * scale * n as f64;
    let max_sweeps = 64;

    for _sweep in 0..max_sweeps {
        // A NaN norm (non-finite input) cannot converge: stop sweeping.
        let off = off_diag_norm(&a);
        if off <= tol || off.is_nan() {
            break;
        }
        for p in 0..n {
            for r in (p + 1)..n {
                let apr = a[p * n + r];
                if apr.abs() <= tol / (n * n) as f64 {
                    continue;
                }
                let app = a[p * n + p];
                let arr = a[r * n + r];
                // Standard stable rotation computation.
                let theta = (arr - app) / (2.0 * apr);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // A <- JᵀAJ applied to rows/cols p, r (columns first —
                // the order is part of the pinned bit-exact trajectory).
                rotate_cols(&mut a, n, p, r, c, s);
                rotate_rows(&mut a, n, p, r, c, s);
                // Q <- QJ, in whichever layout the caller keeps Q.
                accumulate(p, r, c, s);
            }
        }
    }
    (0..n).map(|i| a[i * n + i]).collect()
}

/// Sorts the eigenvalues descending and gathers the eigenvectors:
/// `component(row, src)` is entry `row` of the vector paired with
/// `diag[src]`.
fn extract(diag: &[f64], component: impl Fn(usize, usize) -> f64) -> EigenDecomposition {
    let n = diag.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| diag[y].total_cmp(&diag[x]));

    let values: Vec<f32> = order.iter().map(|&i| diag[i] as f32).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (col, &src) in order.iter().enumerate() {
        for row in 0..n {
            vectors.set(row, col, component(row, src) as f32);
        }
    }
    EigenDecomposition { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random_spd(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        let b = Matrix::random_normal(n, n, &mut rng);
        let mut spd = b.t_matmul(&b);
        spd.add_diag(0.1);
        spd.symmetrize();
        spd
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let m = Matrix::from_vec(3, 3, vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
        let e = sym_eig(&m);
        assert!((e.values[0] - 3.0).abs() < 1e-5);
        assert!((e.values[1] - 2.0).abs() < 1e-5);
        assert!((e.values[2] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let m = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let e = sym_eig(&m);
        assert!((e.values[0] - 3.0).abs() < 1e-5);
        assert!((e.values[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn reconstruction_matches_input() {
        for n in [1usize, 2, 5, 17, 48] {
            let m = random_spd(n, 100 + n as u64);
            let e = sym_eig(&m);
            let r = e.reconstruct();
            let scale = m.max_abs().max(1.0);
            assert!(
                r.max_diff(&m) < 1e-3 * scale,
                "n={n} diff {}",
                r.max_diff(&m)
            );
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = random_spd(20, 7);
        let e = sym_eig(&m);
        let qtq = e.vectors.t_matmul(&e.vectors);
        let i = Matrix::identity(20);
        assert!(qtq.max_diff(&i) < 1e-4, "diff {}", qtq.max_diff(&i));
    }

    #[test]
    fn spd_eigenvalues_positive_and_sorted() {
        let m = random_spd(30, 9);
        let e = sym_eig(&m);
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-5, "not sorted: {:?}", e.values);
        }
        assert!(e.values.iter().all(|&v| v > 0.0), "{:?}", e.values);
    }

    #[test]
    fn trace_is_preserved() {
        let m = random_spd(25, 11);
        let trace: f32 = (0..25).map(|i| m.get(i, i)).sum();
        let e = sym_eig(&m);
        let lam_sum: f32 = e.values.iter().sum();
        assert!((trace - lam_sum).abs() < 1e-2 * trace.abs().max(1.0));
    }

    #[test]
    fn map_spectrum_inverse_gives_matrix_inverse() {
        let m = random_spd(12, 13);
        let e = sym_eig(&m);
        let inv = e.map_spectrum(|v| 1.0 / v);
        let prod = m.matmul(&inv);
        let i = Matrix::identity(12);
        assert!(prod.max_diff(&i) < 1e-2, "diff {}", prod.max_diff(&i));
    }

    #[test]
    fn zero_and_one_dimensional() {
        let e0 = sym_eig(&Matrix::zeros(0, 0));
        assert!(e0.values.is_empty());
        let e1 = sym_eig(&Matrix::from_vec(1, 1, vec![4.0]));
        assert!((e1.values[0] - 4.0).abs() < 1e-6);
        assert!((e1.vectors.get(0, 0).abs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rotation_panels_bit_identical_to_scalar() {
        // The panel helpers vs. the original index-arithmetic loops, over
        // several sizes/pivots: identical f64 bits everywhere.
        let mut rng = Rng::new(55);
        for n in [2usize, 3, 5, 16, 33] {
            for (p, r) in [(0usize, 1usize), (0, n - 1), (n / 2, n - 1)] {
                if p >= r {
                    continue;
                }
                let base: Vec<f64> = {
                    let mut v = vec![0.0f32; n * n];
                    rng.fill_normal(&mut v);
                    v.into_iter().map(|x| x as f64).collect()
                };
                let (c, s) = (0.8299371, -0.5578463);
                let mut fast = base.clone();
                rotate_cols(&mut fast, n, p, r, c, s);
                rotate_rows(&mut fast, n, p, r, c, s);
                let mut reference = base;
                for k in 0..n {
                    let akp = reference[k * n + p];
                    let akr = reference[k * n + r];
                    reference[k * n + p] = c * akp - s * akr;
                    reference[k * n + r] = s * akp + c * akr;
                }
                for k in 0..n {
                    let apk = reference[p * n + k];
                    let ark = reference[r * n + k];
                    reference[p * n + k] = c * apk - s * ark;
                    reference[r * n + k] = s * apk + c * ark;
                }
                for (i, (x, y)) in fast.iter().zip(&reference).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "n={n} p={p} r={r} idx={i}");
                }
            }
        }
    }

    /// The routine `sym_eig` replaced: Q accumulated in place, two
    /// strided columns per rotation. Kept as the bit-identity oracle.
    fn sym_eig_strided_q(m: &Matrix) -> EigenDecomposition {
        let n = m.rows();
        let mut q = identity(n);
        let diag = jacobi_diagonalize(m, |p, r, c, s| rotate_cols(&mut q, n, p, r, c, s));
        extract(&diag, |row, src| q[row * n + src])
    }

    fn assert_eigenpairs_bit_identical(m: &Matrix) {
        let (fast, oracle) = (sym_eig(m), sym_eig_strided_q(m));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&fast.values), bits(&oracle.values), "values");
        assert_eq!(
            bits(fast.vectors.as_slice()),
            bits(oracle.vectors.as_slice()),
            "vectors"
        );
    }

    #[test]
    fn transposed_accumulation_bit_identical_to_strided_q() {
        // The K-FAC factor sizes the benchmark meets, rank-deficient and
        // exactly-zero rows/columns (a dead unit) included.
        for n in [1usize, 2, 65, 129] {
            assert_eigenpairs_bit_identical(&random_spd(n, 300 + n as u64));
        }
        let mut rng = Rng::new(77);
        let thin = Matrix::random_normal(8, 40, &mut rng);
        let mut low_rank = thin.t_matmul(&thin);
        low_rank.symmetrize();
        for k in 0..40 {
            low_rank.set(7, k, 0.0);
            low_rank.set(k, 7, 0.0);
        }
        assert_eigenpairs_bit_identical(&low_rank);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn prop_transposed_accumulation_bit_identical_to_strided_q(
            n in 1usize..40,
            seed in proptest::prelude::any::<u64>(),
            indefinite in proptest::prelude::any::<bool>(),
        ) {
            let mut m = random_spd(n, seed);
            if indefinite {
                // Symmetric but not PSD: the solver promises nothing
                // about the spectrum's sign, only about symmetry.
                let mut rng = Rng::new(seed ^ 1);
                m = Matrix::random_normal(n, n, &mut rng);
                m.symmetrize();
            }
            assert_eigenpairs_bit_identical(&m);
        }
    }

    #[test]
    fn non_finite_input_does_not_panic() {
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for n in [1usize, 2, 9] {
                let mut m = random_spd(n, 400 + n as u64);
                m.set(n / 2, n / 2, poison);
                let e = sym_eig(&m);
                assert_eq!(e.values.len(), n);
                assert_eq!(e.vectors.rows(), n);
                let mut all = Matrix::zeros(n, n);
                all.as_mut_slice().fill(poison);
                assert_eq!(sym_eig(&all).values.len(), n);
            }
        }
    }

    #[test]
    fn handles_repeated_eigenvalues() {
        // 2*I has eigenvalue 2 thrice; reconstruction must still hold.
        let mut m = Matrix::identity(3);
        m.scale(2.0);
        let e = sym_eig(&m);
        for &v in &e.values {
            assert!((v - 2.0).abs() < 1e-5);
        }
        assert!(e.reconstruct().max_diff(&m) < 1e-5);
    }
}
