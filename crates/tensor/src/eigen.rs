//! Symmetric eigendecomposition: Householder tridiagonalisation followed
//! by implicit-shift QL (EISPACK `tred2` + `tql2`).
//!
//! K-FAC inverts its Kronecker factors through their eigendecompositions
//! (Eq. 2 of the paper), so this routine is the refresh step's critical
//! path. Computation runs in `f64` on the symmetrised copy and is returned
//! as `f32` to match the rest of the stack.
//!
//! **Layout.** The n×n working buffer holds `V` transposed
//! (`vt[j*n + k] = V[k][j]`): column `j` of `V` is a contiguous row. The
//! reduction's symmetric matvec and rank-2 update, the application of the
//! stored reflectors that forms `Q`, and the QL plane rotations (two
//! adjacent rows) are then all unit-stride, and extraction reads an
//! eigenvector as one row. No O(n³) loop walks a stride of `n`; the only
//! strided accesses are the O(n) gather of the row being eliminated, once
//! per reduction step.
//!
//! **Cost.** ≈ 4/3·n³ flops for the reduction, 4/3·n³ to form `Q` and
//! ≈ 6·n³ for the QL rotations (≈ 2 iterations per eigenvalue) — about
//! 9·n³ against the ≈ 36·n³ (9 sweeps × 4·n³) of the cyclic Jacobi
//! it replaced, which survives as this file's test oracle.
//!
//! **Accuracy.** Backward stable: eigenvalues within a few ulps of ‖A‖ in
//! `f64`, i.e. exact after the `f32` cast away from rounding ties;
//! reconstruction and orthogonality residuals are those of the cast.
//!
//! **Termination.** QL spends at most [`QL_MAX_ITER`] iterations on one
//! eigenvalue (EISPACK's 30; 2 is typical) and then deflates it as it
//! stands rather than looping or panicking; non-finite input never enters
//! the reduction.

use crate::instance::Instance;
use crate::matrix::Matrix;

/// The result of a symmetric eigendecomposition `A = Q diag(λ) Qᵀ`.
#[derive(Clone, Debug)]
pub struct EigenDecomposition {
    /// Eigenvalues in descending order.
    pub values: Vec<f32>,
    /// Orthonormal eigenvectors; column `j` corresponds to `values[j]`.
    pub vectors: Matrix,
}

/// Test oracles: the factorization validated by reconstruction.
#[cfg(test)]
impl EigenDecomposition {
    /// Reconstructs `Q diag(λ) Qᵀ`.
    fn reconstruct(&self) -> Matrix {
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

    /// Applies `f` to each eigenvalue and reconstructs `Q f(Λ) Qᵀ`, the
    /// spectral function K-FAC's `precondition` applies without forming.
    fn map_spectrum(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mapped = EigenDecomposition {
            values: self.values.iter().map(|&v| f(v)).collect(),
            vectors: self.vectors.clone(),
        };
        mapped.reconstruct()
    }
}

/// Eigendecomposition of a symmetric matrix (see the module docs for the
/// algorithm, layout and cost).
///
/// Eigenvectors are determined up to sign, and up to the choice of basis
/// inside a cluster of equal eigenvalues. Negating a column is exact and
/// cancels in `Q f(Λ) Qᵀ`, so K-FAC's `precondition` does not depend on
/// the signs chosen here (pinned bit for bit in `compso-kfac`); against
/// another correct solver its results differ only where entries round differently or a cluster is
/// degenerate.
///
/// Total on non-finite input: a NaN/Inf matrix yields all-NaN eigenpairs
/// of the right shape, never a panic or a hang — a diverged run must fail
/// its own finite-loss check, not abort inside the eigensolver.
///
/// Runs the [`Instance`] this thread has: both compile one solver body
/// and return the same bits.
///
/// # Panics
/// If the matrix is not square. Asymmetry beyond f32 round-off should be
/// removed with [`Matrix::symmetrize`] first; the routine symmetrizes its
/// internal copy regardless.
pub fn sym_eig(m: &Matrix) -> EigenDecomposition {
    match Instance::current() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `current` yields `Avx2` or `Avx512` only where
        // `available` saw the CPU report AVX2, the one feature
        // `sym_eig_avx2` is built with.
        Instance::Avx2 | Instance::Avx512 => unsafe { sym_eig_avx2(m) },
        #[cfg(not(target_arch = "x86_64"))]
        Instance::Avx2 | Instance::Avx512 => unreachable!("no wide instance off x86-64"),
        Instance::Portable => sym_eig_body(m),
    }
}

/// The AVX2 instance of [`sym_eig`]: the whole solver inlined under the
/// feature, so its unit-stride f64 row kernels take 256-bit lanes. No
/// FMA: each lane rounds the multiply and the add as the portable code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sym_eig_avx2(m: &Matrix) -> EigenDecomposition {
    sym_eig_body(m)
}

/// The solver both instances compile.
#[inline(always)]
fn sym_eig_body(m: &Matrix) -> EigenDecomposition {
    assert_eq!(m.rows(), m.cols(), "sym_eig needs a square matrix");
    let n = m.rows();

    // Work in f64: vt = (M + Mᵀ)/2, which is its own transpose.
    let mut vt = vec![0.0f64; n * n];
    let mut finite = true;
    for i in 0..n {
        for j in 0..n {
            let x = 0.5 * (m.get(i, j) as f64 + m.get(j, i) as f64);
            finite &= x.is_finite();
            vt[i * n + j] = x;
        }
    }
    if !finite {
        // The deflation scan `|e[m]| <= eps * tst1` is false for NaN.
        return EigenDecomposition {
            values: vec![f32::NAN; n],
            vectors: Matrix::from_vec(n, n, vec![f32::NAN; n * n]),
        };
    }
    let (mut d, mut e) = tridiagonalize(&mut vt, n);
    ql_implicit(&mut d, &mut e, &mut vt);
    extract(&d, &vt)
}

/// `x · y` over four independent partial sums: a single f64 accumulator
/// is one serial add chain, which the compiler may not reassociate.
#[inline(always)]
fn dot(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let (xc, yc) = (x.chunks_exact(4), y.chunks_exact(4));
    let mut tail = 0.0;
    for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
        tail += a * b;
    }
    for (a, b) in xc.zip(yc) {
        for l in 0..4 {
            acc[l] += a[l] * b[l];
        }
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

/// `y += a · x`.
#[inline(always)]
fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    for (y, x) in y.iter_mut().zip(x) {
        *y += a * x;
    }
}

/// Q columns formed together: 16 rows of 289 f64 are 37 KB, so a panel
/// stays in the nearest cache while every reflector streams past it once.
const Q_PANEL: usize = 16;

/// Householder reduction `A = Q T Qᵀ` of the symmetric matrix in `vt`
/// (only `vt[j*n + k]`, `k ≥ j`, is read). Returns `T`'s diagonal and
/// sub-diagonal (`e[i]` couples `i − 1` and `i`; `e[0] = 0`) and leaves
/// `Qᵀ` in `vt`.
#[inline(always)]
fn tridiagonalize(vt: &mut [f64], n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut e = vec![0.0f64; n];
    // Step i stores its reflector `I − u uᵀ/h` as u in vt[i*n..][..i] and
    // h in hs[i]; h = 0 marks a skipped step.
    let mut hs = vec![0.0f64; n];
    let (mut u, mut q) = (vec![0.0f64; n], vec![0.0f64; n]);
    for i in (1..n).rev() {
        let (u, q) = (&mut u[..i], &mut q[..i]);
        // Row i of the trailing matrix: the one strided walk, O(i).
        for (j, x) in u.iter_mut().enumerate() {
            *x = vt[j * n + i];
        }
        // Scaled against under/overflow of the squares.
        let scale: f64 = u.iter().map(|x| x.abs()).sum();
        if scale == 0.0 {
            continue; // already tridiagonal here (a dead unit): e[i] = 0
        }
        let mut h = 0.0;
        for x in u.iter_mut() {
            *x /= scale;
            h += *x * *x;
        }
        let f = u[i - 1];
        let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
        e[i] = scale * g;
        h -= f * g;
        u[i - 1] = f - g;

        // q = A u / h, reading each stored row once for both triangles.
        q.fill(0.0);
        for j in 0..i {
            let row = &vt[j * n..j * n + i];
            q[j] += row[j] * u[j] + dot(&row[j + 1..], &u[j + 1..]);
            axpy(&mut q[j + 1..], u[j], &row[j + 1..]);
        }
        let mut f = 0.0;
        for (qj, uj) in q.iter_mut().zip(u.iter()) {
            *qj /= h;
            f += *qj * uj;
        }
        axpy(q, -f / (h + h), u);
        // A -= u qᵀ + q uᵀ on the stored triangle.
        for j in 0..i {
            let (f, g) = (u[j], q[j]);
            for ((a, qk), uk) in vt[j * n + j..j * n + i]
                .iter_mut()
                .zip(&q[j..])
                .zip(&u[j..])
            {
                *a -= f * qk + g * uk;
            }
        }
        vt[i * n..i * n + i].copy_from_slice(u);
        hs[i] = h;
    }
    let d: Vec<f64> = (0..n).map(|i| vt[i * n + i]).collect();

    // Q e_j = P_{n-1} ⋯ P_{j+1} e_j. Row j of vt is reflector j until the
    // columns before it are done and column j of Q afterwards, so panels
    // go in ascending order through a side buffer.
    let mut panel = vec![0.0f64; Q_PANEL.min(n) * n];
    for j0 in (0..n).step_by(Q_PANEL) {
        let w = Q_PANEL.min(n - j0);
        let panel = &mut panel[..w * n];
        panel.fill(0.0);
        for c in 0..w {
            panel[c * n + j0 + c] = 1.0;
        }
        for i in j0 + 1..n {
            if hs[i] == 0.0 {
                continue;
            }
            let u = &vt[i * n..i * n + i];
            // Reflector i moves the columns before i, in coordinates < i.
            for col in panel.chunks_exact_mut(n).take(i - j0) {
                let col = &mut col[..i];
                axpy(col, -dot(u, col) / hs[i], u);
            }
        }
        vt[j0 * n..(j0 + w) * n].copy_from_slice(panel);
    }
    (d, e)
}

/// Iterations QL may spend on one eigenvalue before deflating it as is.
const QL_MAX_ITER: usize = 30;

/// Implicit-shift QL on the tridiagonal `(d, e)`, every plane rotation
/// also applied to rows `i`, `i + 1` of `vt`. On return `d` holds the
/// eigenvalues and row `j` of `vt` the eigenvector of `d[j]`.
#[inline(always)]
fn ql_implicit(d: &mut [f64], e: &mut [f64], vt: &mut [f64]) {
    let n = d.len();
    if n == 0 {
        return;
    }
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let (mut f, mut tst1) = (0.0f64, 0.0f64);
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let small = f64::EPSILON * tst1;
        // e[n-1] = 0 ends the scan.
        let m = (l..n).find(|&m| e[m].abs() <= small).unwrap_or(n - 1);
        for _ in 0..QL_MAX_ITER {
            if m == l || e[l].abs() <= small {
                break;
            }
            // Wilkinson shift from the leading 2×2.
            let g = d[l];
            let p = (d[l + 1] - g) / (2.0 * e[l]);
            let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let h = g - d[l];
            for x in &mut d[l + 2..] {
                *x -= h;
            }
            f += h;

            let mut p = d[m];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let el1 = e[l + 1];
            let (mut s, mut s2) = (0.0, 0.0);
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                let g = c * e[i];
                let h = c * p;
                let r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                let (lo, hi) = vt[i * n..(i + 2) * n].split_at_mut(n);
                for (x, y) in lo.iter_mut().zip(hi) {
                    (*x, *y) = (c * *x - s * *y, s * *x + c * *y);
                }
            }
            let p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += f;
        e[l] = 0.0;
    }
}

/// Sorts the eigenvalues descending and gathers the eigenvectors: row
/// `src` of `vt` is the vector paired with `diag[src]`.
#[inline(always)]
fn extract(diag: &[f64], vt: &[f64]) -> EigenDecomposition {
    let n = diag.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| diag[y].total_cmp(&diag[x]));

    let values: Vec<f32> = order.iter().map(|&i| diag[i] as f32).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (col, &src) in order.iter().enumerate() {
        for (row, &x) in vt[src * n..(src + 1) * n].iter().enumerate() {
            vectors.set(row, col, x as f32);
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

    // ---- The accuracy oracle: the cyclic Jacobi solver `sym_eig` was
    // before PR 19 (≈ 36·n³, to a 1e-14 off-diagonal tolerance), kept
    // self-contained so it shares no kernel with the code under test.

    fn rotate_cols(a: &mut [f64], n: usize, p: usize, r: usize, c: f64, s: f64) {
        for row in a.chunks_exact_mut(n) {
            let (xp, xr) = (row[p], row[r]);
            row[p] = c * xp - s * xr;
            row[r] = s * xp + c * xr;
        }
    }

    fn rotate_rows(a: &mut [f64], n: usize, p: usize, r: usize, c: f64, s: f64) {
        let (top, bottom) = a.split_at_mut(r * n);
        for (x, y) in top[p * n..p * n + n].iter_mut().zip(&mut bottom[..n]) {
            (*x, *y) = (c * *x - s * *y, s * *x + c * *y);
        }
    }

    fn identity(n: usize) -> Vec<f64> {
        let mut q = vec![0.0f64; n * n];
        for i in 0..n {
            q[i * n + i] = 1.0;
        }
        q
    }

    /// Sweeps the symmetrized f64 copy of `m` to diagonal form and
    /// returns the diagonal and Qᵀ.
    fn jacobi_diagonalize(m: &Matrix) -> (Vec<f64>, Vec<f64>) {
        let n = m.rows();
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i * n + j] = 0.5 * (m.get(i, j) as f64 + m.get(j, i) as f64);
            }
        }
        let mut qt = identity(n);
        let off_diag_norm = |a: &[f64]| -> f64 {
            let mut s = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    s += a[i * n + j] * a[i * n + j];
                }
            }
            (2.0 * s).sqrt()
        };
        let scale = a.iter().fold(0.0f64, |mx, v| mx.max(v.abs())).max(1e-300);
        let tol = 1e-14 * scale * n as f64;
        for _sweep in 0..64 {
            if off_diag_norm(&a) <= tol {
                break;
            }
            for p in 0..n {
                for r in (p + 1)..n {
                    let apr = a[p * n + r];
                    if apr.abs() <= tol / (n * n) as f64 {
                        continue;
                    }
                    let theta = (a[r * n + r] - a[p * n + p]) / (2.0 * apr);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    // A <- JᵀAJ, Qᵀ <- JᵀQᵀ.
                    rotate_cols(&mut a, n, p, r, c, s);
                    rotate_rows(&mut a, n, p, r, c, s);
                    rotate_rows(&mut qt, n, p, r, c, s);
                }
            }
        }
        ((0..n).map(|i| a[i * n + i]).collect(), qt)
    }

    fn jacobi(m: &Matrix) -> EigenDecomposition {
        let (diag, qt) = jacobi_diagonalize(m);
        extract(&diag, &qt)
    }

    /// `sym_eig(m)` against the oracle: the spectrum, the two residuals,
    /// and — what K-FAC consumes, invariant to eigenvector signs and to
    /// the basis chosen inside a cluster — the damped inverse.
    fn assert_matches_oracle(m: &Matrix, what: &str) {
        let n = m.rows();
        let (got, want) = (sym_eig(m), jacobi(m));
        let lmax = want.values.iter().fold(0.0f32, |mx, v| mx.max(v.abs()));
        for (g, w) in got.values.iter().zip(&want.values) {
            assert!((g - w).abs() <= 1e-6 * lmax, "{what}: λ {g} vs {w}");
        }
        for w in got.values.windows(2) {
            assert!(w[0] >= w[1], "{what}: not descending");
        }
        let orth = got
            .vectors
            .t_matmul(&got.vectors)
            .max_diff(&Matrix::identity(n));
        assert!(orth <= 1e-5, "{what}: ‖QᵀQ − I‖ = {orth}");
        let resid = got.reconstruct().max_diff(m);
        assert!(resid <= 1e-5 * m.max_abs(), "{what}: ‖QΛQᵀ − A‖ = {resid}");
        for gamma in [1e-2f32, 5e-2] {
            let f = |l: f32| 1.0 / (l.max(0.0) + gamma);
            let (inv, oracle) = (got.map_spectrum(f), want.map_spectrum(f));
            let diff = inv.max_diff(&oracle);
            assert!(
                diff <= 1e-5 * oracle.max_abs(),
                "{what}: γ = {gamma}: damped inverses differ by {diff}"
            );
        }
    }

    /// `sᵀs / rows` of `samples` standard-normal rows, optionally behind
    /// a ReLU: the shape of a K-FAC factor.
    fn covariance_like(samples: usize, n: usize, relu: bool, seed: u64) -> Matrix {
        let mut s = Matrix::random_normal(samples, n, &mut Rng::new(seed));
        if relu {
            for v in s.as_mut_slice() {
                *v = v.max(0.0);
            }
        }
        let mut c = s.gram();
        c.scale(1.0 / samples as f32);
        c
    }

    #[test]
    fn matches_oracle_at_fixed_sizes() {
        // Through the sizes the benchmark's factors have (65, 129, 145,
        // 289) and the power-of-two stride that cost Jacobi 3× (128).
        for n in [1usize, 2, 3, 10, 16, 32, 33, 65, 128, 129, 145, 289] {
            assert_matches_oracle(&random_spd(n, 300 + n as u64), &format!("spd {n}"));
        }
    }

    #[test]
    fn matches_oracle_on_named_cases() {
        let n = 24;
        let diagonal = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                ((i * 7) % n) as f32 - 3.0
            } else {
                0.0
            }
        });
        assert_matches_oracle(&diagonal, "already diagonal");

        let mut rng = Rng::new(81);
        let band = Matrix::random_normal(n, 2, &mut rng);
        let tridiagonal = Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
            0 => band.get(i, 0),
            1 => band.get(i.min(j), 1),
            _ => 0.0,
        });
        assert_matches_oracle(&tridiagonal, "already tridiagonal");

        let mut scaled_identity = Matrix::identity(n);
        scaled_identity.scale(2.5);
        assert_matches_oracle(&scaled_identity, "c·I");
        assert_matches_oracle(&Matrix::zeros(n, n), "zero matrix");

        // A dead unit is an exactly-zero row and column; as the last
        // index it is the reduction's `scale == 0` branch at its first step.
        for dead in [n - 1, 7] {
            let mut m = random_spd(n, 82);
            for k in 0..n {
                m.set(dead, k, 0.0);
                m.set(k, dead, 0.0);
            }
            assert_matches_oracle(&m, &format!("dead unit {dead}"));
        }

        // The MLP's step-0 `A` factor: 129-dim from 64 samples.
        assert_matches_oracle(&covariance_like(64, 129, false, 83), "rank-deficient");

        // S·B·S with S = diag(1 … 1e-5): a spectrum graded over 1e-10 … 1.
        let b = random_spd(n, 84);
        let grade = |i: usize| 10f32.powf(-5.0 * i as f32 / (n - 1) as f32);
        let graded = Matrix::from_fn(n, n, |i, j| grade(i) * b.get(i, j) * grade(j));
        assert_matches_oracle(&graded, "graded spectrum");

        // The CNN's 289-dim `A` factor: half the statistics exact zeros.
        assert_matches_oracle(&covariance_like(1152, 289, true, 85), "relu-sparse 289");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn prop_matches_oracle(
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
            assert_matches_oracle(&m, "prop");
        }
    }

    #[test]
    fn ql_iteration_cap_deflates_instead_of_looping() {
        // NaN never satisfies the convergence test, so each eigenvalue
        // burns its whole budget; the loop must still end, every
        // sub-diagonal deflated (sym_eig itself screens non-finite input).
        let n = 6;
        let (mut d, mut e) = (vec![f64::NAN; n], vec![f64::NAN; n]);
        let mut vt = identity(n);
        ql_implicit(&mut d, &mut e, &mut vt);
        assert!(e.iter().all(|&x| x == 0.0), "{e:?}");
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

    /// Every instance this host runs returns the portable instance's bits:
    /// values and vectors, on the benchmark's factor sizes and on poisoned
    /// input.
    #[test]
    fn instances_return_identical_bits() {
        let bits = |e: &EigenDecomposition| {
            let values = e.values.iter().map(|v| v.to_bits());
            let vectors = e.vectors.as_slice().iter().map(|v| v.to_bits());
            values.chain(vectors).collect::<Vec<u32>>()
        };
        let mut cases: Vec<Matrix> = [1usize, 2, 17, 145, 289]
            .into_iter()
            .map(|n| random_spd(n, 500 + n as u64))
            .collect();
        let mut poisoned = random_spd(9, 509);
        poisoned.set(4, 4, f32::NAN);
        cases.push(poisoned);
        for m in &cases {
            let want = {
                let _pin = Instance::Portable.pin();
                bits(&sym_eig(m))
            };
            for inst in Instance::ALL.into_iter().filter(|i| i.available()) {
                let _pin = inst.pin();
                assert_eq!(bits(&sym_eig(m)), want, "{inst:?} at n = {}", m.rows());
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
