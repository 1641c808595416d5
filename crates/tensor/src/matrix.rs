//! Row-major dense `f32` matrices with the handful of operations K-FAC and
//! the DNN substrate need: blocked parallel GEMM, transpose, rank-k style
//! covariance products, elementwise arithmetic, and Kronecker products.

use crate::instance::Instance;
use crate::rng::Rng;
use rayon::prelude::*;
use std::ops::Range;

/// Minimum number of multiply-adds (m · n · k) before GEMM bothers going
/// parallel; below this the rayon dispatch overhead dominates. Two workers
/// first beat one near 128³ (0.92 of one worker's time there, 1.7 at the
/// MLP's 32 × 129 · 129 × 128, on a 2-vCPU host).
const PAR_THRESHOLD: usize = 128 * 128 * 128;

/// Cache-block edge of the blocked transpose.
const BLOCK: usize = 64;

/// Register-tile width of the GEMM microkernel: output columns per
/// accumulator row, and the width of a packed `B` panel. 16 f32 lanes =
/// four 128-bit, two 256-bit or one 512-bit vector register per tile row.
///
/// Bit-identity note (DESIGN.md §12.4): packing and tiling only move
/// operands and hoist `out[i][j]` into a register — each output element
/// still accumulates the same multiply-then-add sequence in ascending k,
/// with the same zero-skip, so the result is bit-identical to the scalar
/// reference kernels (pinned by the `*_bit_identical_to_scalar` tests).
const NR: usize = 16;

/// Register-tile height `MR` of the portable instance: rows of `A` whose
/// sums are in flight together. 2 × 16 accumulators fill half of a
/// baseline x86-64 build's sixteen 128-bit registers; in that build (and
/// only there) 4 × 16 measured 0–18 % slower.
const MR_PORTABLE: usize = 2;

/// Register-tile height `MR` of the AVX2 instance. In 256-bit registers a
/// 2 × 16 tile has four add chains in flight and is latency-bound; 4 × 16
/// is eight registers and eight chains.
const MR_AVX2: usize = 4;

/// Register-tile height `MR` of the AVX-512 instance: a tile row is one
/// 512-bit register, so 8 × 16 is again eight registers and eight chains,
/// each twice as wide.
const MR_AVX512: usize = 8;

// Each height divides `NR`, so a strip's rows share one diagonal panel in
// `Matrix::gram`.
const _: () = assert!(
    NR.is_multiple_of(MR_PORTABLE) && NR.is_multiple_of(MR_AVX2) && NR.is_multiple_of(MR_AVX512)
);

/// Depth of a k-block: a `KC × NR` panel of packed `B` (16 KiB) stays in
/// L1 across a strip, and a block's panels in L2 across all strips.
const KC: usize = 256;

/// The microkernel's accumulators: one `MR`-row output tile.
type Tile<const MR: usize> = [[f32; NR]; MR];

/// One row of a packed `A` strip within one k-block: the values the
/// product uses, k ascending, each with the index of its `B` row in a
/// packed panel.
#[derive(Clone, Copy)]
struct APackRow {
    vals: [f32; KC],
    offs: [usize; KC],
    len: usize,
}

/// A strided read-only GEMM operand: element `(r, c)` of its
/// `rows × cols` is `data[r * rs + c * cs]`.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    rs: usize,
    cs: usize,
}

impl View<'_> {
    /// The transposed operand: the same data, dimensions and strides
    /// swapped.
    fn t(self) -> Self {
        View {
            rows: self.cols,
            cols: self.rows,
            rs: self.cs,
            cs: self.rs,
            ..self
        }
    }
}

/// A dense row-major `f32` matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A `rows` x `cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a generator function over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// A matrix with i.i.d. standard-normal entries.
    pub fn random_normal(rows: usize, cols: usize, rng: &mut Rng) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        rng.fill_normal(&mut m.data);
        m
    }

    /// A matrix with i.i.d. uniform entries in `[lo, hi)`.
    pub fn random_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        rng.fill_uniform(&mut m.data, lo, hi);
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutation.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The underlying row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying row-major slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    fn view(&self) -> View<'_> {
        View {
            data: &self.data,
            rows: self.rows,
            cols: self.cols,
            rs: self.cols,
            cs: 1,
        }
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose to stay cache-friendly for large matrices.
        for rb in (0..self.rows).step_by(BLOCK) {
            for cb in (0..self.cols).step_by(BLOCK) {
                for r in rb..(rb + BLOCK).min(self.rows) {
                    for c in cb..(cb + BLOCK).min(self.cols) {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// If inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dims {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        gemm(self.view(), other.view(), true, false)
    }

    /// `selfᵀ * other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul dims {}x{}ᵀ * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        gemm(self.view().t(), other.view(), true, false)
    }

    /// The Gram matrix `selfᵀ * self` as a symmetric rank-k update — the
    /// covariance product K-FAC computes (`aᵀa`, `gᵀg` over a batch). Each
    /// row strip starts at its diagonal's panel and the rest is mirrored:
    /// half the flops of [`Matrix::t_matmul`] with itself, every computed
    /// element keeping its r-ascending sum, so the result is bit-identical
    /// to it on finite input and exactly symmetric on any.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut out = gemm(self.view().t(), self.view(), true, true);
        for i in 0..n {
            for j in (i + 1)..n {
                out.data[j * n + i] = out.data[i * n + j];
            }
        }
        out
    }

    /// `self * otherᵀ` without materializing the transpose. Unlike the
    /// other three products it has no zero-skip: a zero in `self` against
    /// a non-finite entry of `other` yields NaN.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        self.matmul_t_first(other, other.rows)
    }

    /// [`Matrix::matmul_t`] against `other`'s first `rows` rows only:
    /// `self * other[..rows]ᵀ`, the same sums for the columns it keeps.
    ///
    /// # Panics
    /// If `self.cols() != other.cols()` or `rows > other.rows()`.
    pub fn matmul_t_first(&self, other: &Matrix, rows: usize) -> Matrix {
        assert!(
            self.cols == other.cols && rows <= other.rows,
            "matmul_t dims {}x{} * ({rows} of {}x{})ᵀ",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        let head = View {
            rows,
            ..other.view()
        };
        gemm(self.view(), head.t(), false, false)
    }

    /// Elementwise in-place addition of `other * scale`.
    pub fn axpy(&mut self, scale: f32, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "axpy dims"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// In-place scaling by a scalar.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Running-average update `self = decay * self + (1 - decay) * other` —
    /// the exact update K-FAC applies to its covariance factors.
    pub fn ema_update(&mut self, decay: f32, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "ema dims");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = decay * *a + (1.0 - decay) * b;
        }
    }

    /// Adds `v` to every diagonal element (Tikhonov damping `F + γI`).
    pub fn add_diag(&mut self, v: f32) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self.data[i * self.cols + i] += v;
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Forces exact symmetry by averaging with the transpose. Covariance
    /// factors are symmetric in exact arithmetic; this removes f32 drift
    /// before eigendecomposition.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols, "symmetrize needs a square matrix");
        let n = self.rows;
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = 0.5 * (self.data[i * n + j] + self.data[j * n + i]);
                self.data[i * n + j] = avg;
                self.data[j * n + i] = avg;
            }
        }
    }

    /// Appends the upper triangle (diagonal included, row-major —
    /// `n(n+1)/2` values) to `out`: all a symmetric matrix needs on the
    /// wire. Inverse: [`Matrix::unpack_upper`].
    pub fn pack_upper(&self, out: &mut Vec<f32>) {
        assert_eq!(self.rows, self.cols, "pack_upper needs a square matrix");
        let n = self.rows;
        for i in 0..n {
            out.extend_from_slice(&self.data[i * n + i..(i + 1) * n]);
        }
    }

    /// Overwrites this square matrix from the [`Matrix::pack_upper`]
    /// triangle at the head of `packed`, mirroring it below the diagonal
    /// — the result is exactly symmetric whatever produced `packed` —
    /// and returns the `n(n+1)/2` values consumed.
    pub fn unpack_upper(&mut self, packed: &[f32]) -> usize {
        assert_eq!(self.rows, self.cols, "unpack_upper needs a square matrix");
        let n = self.rows;
        let mut off = 0usize;
        for i in 0..n {
            let row = &packed[off..off + n - i];
            self.data[i * n + i..(i + 1) * n].copy_from_slice(row);
            for (k, &v) in row.iter().enumerate().skip(1) {
                self.data[(i + k) * n + i] = v;
            }
            off += n - i;
        }
        off
    }

    /// Maximum absolute asymmetry `max |A - Aᵀ|`.
    pub fn asymmetry(&self) -> f32 {
        assert_eq!(self.rows, self.cols);
        let n = self.rows;
        let mut worst = 0.0f32;
        for i in 0..n {
            for j in (i + 1)..n {
                worst = worst.max((self.data[i * n + j] - self.data[j * n + i]).abs());
            }
        }
        worst
    }

    /// Kronecker product `self ⊗ other`. Only used on small matrices
    /// (tests comparing K-FAC's factored preconditioner against the dense
    /// Fisher approximation); output is `(r1*r2) x (c1*c2)`.
    pub fn kron(&self, other: &Matrix) -> Matrix {
        let (r1, c1) = (self.rows, self.cols);
        let (r2, c2) = (other.rows, other.cols);
        let mut out = Matrix::zeros(r1 * r2, c1 * c2);
        for i in 0..r1 {
            for j in 0..c1 {
                let a = self.get(i, j);
                if a == 0.0 {
                    continue;
                }
                for p in 0..r2 {
                    for q in 0..c2 {
                        out.set(i * r2 + p, j * c2 + q, a * other.get(p, q));
                    }
                }
            }
        }
        out
    }

    /// Maximum absolute elementwise difference from `other`.
    pub fn max_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "max_diff dims"
        );
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
    }

    /// Orthonormalizes the columns in place via modified Gram–Schmidt and
    /// returns the numerical column rank.
    ///
    /// Inner products and norms accumulate in `f64` in strict row order, so
    /// the result is a pure function of the input values — no
    /// parallelism-dependent reduction order. Columns whose residual after
    /// projection is numerically zero (degenerate inputs: duplicated or
    /// all-zero columns) are zeroed rather than replaced with arbitrary
    /// directions, which keeps `self · otherᵀ` reconstructions well-defined:
    /// a zero column contributes nothing. PowerSGD relies on both
    /// properties for cross-rank bit-identity.
    pub fn orthonormalize_columns(&mut self) -> usize {
        let (rows, cols) = (self.rows, self.cols);
        let mut rank = 0usize;
        for j in 0..cols {
            let mut orig_sq = 0.0f64;
            for r in 0..rows {
                let v = self.data[r * cols + j] as f64;
                orig_sq += v * v;
            }
            // Project out every previously accepted column, one at a time
            // (modified Gram–Schmidt: re-read column j after each update).
            for k in 0..j {
                let mut dot = 0.0f64;
                for r in 0..rows {
                    dot += self.data[r * cols + k] as f64 * self.data[r * cols + j] as f64;
                }
                if dot != 0.0 {
                    for r in 0..rows {
                        let v = self.data[r * cols + k] as f64 * dot;
                        self.data[r * cols + j] = (self.data[r * cols + j] as f64 - v) as f32;
                    }
                }
            }
            let mut norm_sq = 0.0f64;
            for r in 0..rows {
                let v = self.data[r * cols + j] as f64;
                norm_sq += v * v;
            }
            let norm = norm_sq.sqrt();
            // Relative test: a column that lost (almost) all its mass to
            // the projections was linearly dependent up to f32 round-off.
            if norm > 1e-6 * orig_sq.sqrt() && norm > 0.0 {
                let inv = 1.0 / norm;
                for r in 0..rows {
                    self.data[r * cols + j] = (self.data[r * cols + j] as f64 * inv) as f32;
                }
                rank += 1;
            } else {
                for r in 0..rows {
                    self.data[r * cols + j] = 0.0;
                }
            }
        }
        rank
    }
}

/// The one GEMM core: `a` (`m × k`) times `b` (`k × n`), both strided
/// views whose k the caller has checked. k runs in [`KC`] blocks; `b` is
/// packed once into [`NR`]-wide k-major panels shared by every worker, its
/// ragged edge zero-padded; each `MR`-row strip of `a` is packed per
/// block into one k-ascending list per row; accumulators round-trip
/// through `out` between blocks. `skip_zero` keeps the row kernels' skip
/// of zero `a` values (it avoids 0 × ∞) by leaving them out of the packed
/// lists, so a sparse `a` costs only its non-zeros; `upper` skips the
/// panels wholly left of each strip's diagonal, leaving them zero.
/// Workers take contiguous strip ranges of about equal panel count; the
/// [`Instance`] this thread runs picks `MR` and the job body: `MR = 2` in
/// baseline codegen, `MR = 4` with the body compiled for AVX2, or
/// `MR = 8` with [`tile_avx512`] in a body compiled for AVX-512.
fn gemm(a: View, b: View, skip_zero: bool, upper: bool) -> Matrix {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let panels = n.div_ceil(NR);
    let mut bpack = vec![0.0f32; k * panels * NR];
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        let block = &mut bpack[k0 * panels * NR..][..kc * panels * NR];
        for (jp, panel) in block.chunks_exact_mut(kc * NR).enumerate() {
            for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
                for (jj, d) in dst.iter_mut().take(n - jp * NR).enumerate() {
                    *d = b.data[(k0 + p) * b.rs + (jp * NR + jj) * b.cs];
                }
            }
        }
    }
    let p = &Product {
        a,
        bpack,
        n,
        panels,
        skip_zero,
        upper,
    };
    let mut out = Matrix::zeros(m, n);
    match Instance::current() {
        #[cfg(target_arch = "x86_64")]
        Instance::Avx512 => p.jobs::<MR_AVX512>(&mut out.data).into_par_iter().for_each(
            // SAFETY: `current` yields `Avx512` only where `available` saw
            // the CPU report AVX-512 F and DQ, the features `strips_avx512`
            // is built with.
            |(strips, out)| unsafe { strips_avx512(p, strips, out) },
        ),
        #[cfg(target_arch = "x86_64")]
        Instance::Avx2 => p.jobs::<MR_AVX2>(&mut out.data).into_par_iter().for_each(
            // SAFETY: `current` yields `Avx2` only where `available` saw the
            // CPU report AVX2, the one feature `strips_avx2` is built with.
            |(strips, out)| unsafe { strips_avx2(p, strips, out) },
        ),
        #[cfg(not(target_arch = "x86_64"))]
        Instance::Avx2 | Instance::Avx512 => unreachable!("no wide instance off x86-64"),
        Instance::Portable => p
            .jobs::<MR_PORTABLE>(&mut out.data)
            .into_par_iter()
            .for_each(|(strips, out)| p.strips(strips, out, tile::<MR_PORTABLE>)),
    }
    out
}

/// One product as every job reads it: the `a` operand, `b` packed into
/// `panels` k-major panels per k-block, and the entry point's flags.
struct Product<'a> {
    a: View<'a>,
    bpack: Vec<f32>,
    n: usize,
    panels: usize,
    skip_zero: bool,
    upper: bool,
}

impl Product<'_> {
    /// The first panel strip `s` computes: `upper` skips those wholly left
    /// of its diagonal.
    fn first_panel<const MR: usize>(&self, s: usize) -> usize {
        if self.upper {
            s * MR / NR
        } else {
            0
        }
    }

    /// Splits `out` into one job per worker: a contiguous range of
    /// `MR`-row strips, of about equal panel count, with its rows of `out`.
    fn jobs<'o, const MR: usize>(&self, out: &'o mut [f32]) -> Vec<(Range<usize>, &'o mut [f32])> {
        let (m, k, n) = (self.a.rows, self.a.cols, self.n);
        let strips = m.div_ceil(MR);
        let weight = |s: usize| self.panels - self.first_panel::<MR>(s);
        let workers = if m * n * k >= PAR_THRESHOLD {
            rayon::current_num_threads().min(strips)
        } else {
            1
        };
        let total: usize = (0..strips).map(weight).sum();
        let mut jobs = Vec::with_capacity(workers);
        let (mut rest, mut lo, mut done) = (out, 0, 0);
        for w in 1..=workers {
            let mut hi = lo;
            while hi < strips && (w == workers || done * workers < total * w) {
                done += weight(hi);
                hi += 1;
            }
            let (head, tail) = rest.split_at_mut(((hi * MR).min(m) - (lo * MR).min(m)) * n);
            jobs.push((lo..hi, head));
            (rest, lo) = (tail, hi);
        }
        jobs
    }

    /// The job body: per k-block, packs each of `strips`' `MR`-row strips
    /// of `a` and runs `tile` ([`tile`], or [`tile_avx512`]) over its
    /// panels, storing into `out` (the strips' rows). Inlined whole into
    /// each instance, so the AVX2 one compiles the pack, the tile and the
    /// stores with 256-bit lanes.
    #[inline(always)]
    fn strips<const MR: usize>(
        &self,
        strips: Range<usize>,
        out: &mut [f32],
        tile: impl Fn(&[APackRow; MR], &[f32], Tile<MR>) -> Tile<MR>,
    ) {
        let (a, m, k, n, panels) = (self.a, self.a.rows, self.a.cols, self.n, self.panels);
        let mut apack = [APackRow {
            vals: [0.0; KC],
            offs: [0; KC],
            len: 0,
        }; MR];
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            let block = &self.bpack[k0 * panels * NR..][..kc * panels * NR];
            for s in strips.clone() {
                let i0 = s * MR;
                let mr = MR.min(m - i0);
                for (r, row) in apack.iter_mut().enumerate() {
                    // A ragged strip's missing rows keep empty lists. The
                    // length counts in a local: kept in the struct, it made
                    // a store-to-load round trip per packed value.
                    let (row_k, mut len) = (if r < mr { kc } else { 0 }, 0);
                    for p in 0..row_k {
                        let v = a.data[(i0 + r) * a.rs + (k0 + p) * a.cs];
                        (row.vals[len], row.offs[len]) = (v, p);
                        len += usize::from(!(self.skip_zero && v == 0.0));
                    }
                    row.len = len;
                }
                let rows = &mut out[(i0 - strips.start * MR) * n..][..mr * n];
                for jp in self.first_panel::<MR>(s)..panels {
                    let (j0, w) = (jp * NR, NR.min(n - jp * NR));
                    let mut acc: Tile<MR> = [[0.0; NR]; MR];
                    for (row, acc) in rows.chunks_exact(n).zip(&mut acc) {
                        acc[..w].copy_from_slice(&row[j0..j0 + w]);
                    }
                    let acc = tile(&apack, &block[jp * kc * NR..][..kc * NR], acc);
                    for (row, acc) in rows.chunks_exact_mut(n).zip(&acc) {
                        row[j0..j0 + w].copy_from_slice(&acc[..w]);
                    }
                }
            }
        }
    }
}

/// The AVX2 instance's job body: [`Product::strips`] at [`MR_AVX2`]. The
/// feature sits on what a rayon job runs, not on `gemm`: a function the
/// dispatcher calls or hands to rayon is compiled for the baseline unless
/// it is inlined into a function that carries the feature itself.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn strips_avx2(p: &Product, strips: Range<usize>, out: &mut [f32]) {
    p.strips(strips, out, tile::<MR_AVX2>)
}

/// The AVX-512 instance's job body: [`Product::strips`] at [`MR_AVX512`]
/// with [`tile_avx512`], which LLVM does not vectorize from [`tile`]'s
/// arrays by itself (it compiled to scalar multiplies and adds).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn strips_avx512(p: &Product, strips: Range<usize>, out: &mut [f32]) {
    p.strips(strips, out, |apack, bpanel, acc| {
        tile_avx512(apack, bpanel, acc)
    })
}

/// [`tile`] at [`MR_AVX512`] in intrinsics: each accumulator row is one
/// 512-bit register of [`NR`] sums, and every step is `_mm512_mul_ps`
/// then `_mm512_add_ps` — the portable tile's separate multiply and add
/// per element, in its order, so the sums keep their bits. Values move
/// in and out through `set` and `extract`, never through a pointer.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
#[inline]
fn tile_avx512(
    apack: &[APackRow; MR_AVX512],
    bpanel: &[f32],
    acc: Tile<MR_AVX512>,
) -> Tile<MR_AVX512> {
    use std::arch::x86_64::*;
    let (brows, _) = bpanel.as_chunks::<NR>();
    // `_mm512_set_ps` lists lanes from the highest down.
    let reg = |v: &[f32; NR]| {
        _mm512_set_ps(
            v[15], v[14], v[13], v[12], v[11], v[10], v[9], v[8], v[7], v[6], v[5], v[4], v[3],
            v[2], v[1], v[0],
        )
    };
    let mut sums = acc.each_ref().map(reg);
    let mut mac = |r: usize, a: f32, b: __m512| {
        sums[r] = _mm512_add_ps(sums[r], _mm512_mul_ps(_mm512_set1_ps(a), b));
    };
    if apack.iter().all(|row| row.len == brows.len()) {
        for (t, bv) in brows.iter().enumerate() {
            let b = reg(bv);
            (0..MR_AVX512).for_each(|r| mac(r, apack[r].vals[t], b));
        }
    } else {
        let mut mac_at =
            |r: usize, t: usize| mac(r, apack[r].vals[t], reg(&brows[apack[r].offs[t]]));
        let common = apack.iter().map(|row| row.len).min().unwrap_or(0);
        for t in 0..common {
            (0..MR_AVX512).for_each(|r| mac_at(r, t));
        }
        for (r, row) in apack.iter().enumerate() {
            (common..row.len).for_each(|t| mac_at(r, t));
        }
    }
    sums.map(|s| {
        let quarters = [
            _mm512_extractf32x4_ps::<0>(s),
            _mm512_extractf32x4_ps::<1>(s),
            _mm512_extractf32x4_ps::<2>(s),
            _mm512_extractf32x4_ps::<3>(s),
        ];
        std::array::from_fn(|j| {
            let q = quarters[j / 4];
            let bits = match j % 4 {
                0 => _mm_extract_ps::<0>(q),
                1 => _mm_extract_ps::<1>(q),
                2 => _mm_extract_ps::<2>(q),
                _ => _mm_extract_ps::<3>(q),
            };
            f32::from_bits(bits as u32)
        })
    })
}

/// The one multiply-accumulate microkernel: an `MR` × [`NR`] register
/// tile over one packed strip of `a` and one packed panel of `b`, ascending
/// k, a separate multiply and add per element. When every row's list holds
/// the whole k-block (no zero skipped: always for `matmul_t`, usually for
/// dense products) the tile walks the panel once and each `B` row feeds
/// all `MR` accumulator rows. Otherwise each row walks its own list through
/// its `B`-row indices, the rows advancing together while all have entries
/// left. Either way `MR` × `NR` independent sums are in flight; the tile
/// travels by value so it lives in registers across the loop.
#[inline(always)]
fn tile<const MR: usize>(apack: &[APackRow; MR], bpanel: &[f32], mut acc: Tile<MR>) -> Tile<MR> {
    let (brows, _) = bpanel.as_chunks::<NR>();
    let mut mac = |r: usize, a: f32, bv: &[f32; NR]| {
        for (o, &b) in acc[r].iter_mut().zip(bv) {
            *o += a * b;
        }
    };
    if apack.iter().all(|row| row.len == brows.len()) {
        for (t, bv) in brows.iter().enumerate() {
            (0..MR).for_each(|r| mac(r, apack[r].vals[t], bv));
        }
    } else {
        let mut mac_at = |r: usize, t: usize| mac(r, apack[r].vals[t], &brows[apack[r].offs[t]]);
        let common = apack.iter().map(|row| row.len).min().unwrap_or(0);
        for t in 0..common {
            (0..MR).for_each(|r| mac_at(r, t));
        }
        for (r, row) in apack.iter().enumerate() {
            (common..row.len).for_each(|t| mac_at(r, t));
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f64;
                for k in 0..a.cols() {
                    acc += a.get(i, k) as f64 * b.get(k, j) as f64;
                }
                out.set(i, j, acc as f32);
            }
        }
        out
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::new(1);
        let a = Matrix::random_normal(7, 7, &mut rng);
        let i = Matrix::identity(7);
        assert!(a.matmul(&i).max_diff(&a) < 1e-6);
        assert!(i.matmul(&a).max_diff(&a) < 1e-6);
    }

    #[test]
    fn matmul_matches_naive_small() {
        let mut rng = Rng::new(2);
        let a = Matrix::random_normal(13, 9, &mut rng);
        let b = Matrix::random_normal(9, 17, &mut rng);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        assert!(fast.max_diff(&slow) < 1e-4, "diff {}", fast.max_diff(&slow));
    }

    #[test]
    fn matmul_matches_naive_large_parallel_path() {
        let mut rng = Rng::new(3);
        let a = Matrix::random_normal(120, 90, &mut rng);
        let b = Matrix::random_normal(90, 110, &mut rng);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        assert!(fast.max_diff(&slow) < 1e-3, "diff {}", fast.max_diff(&slow));
    }

    #[test]
    fn transpose_involution_and_layout() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 10 + c) as f32);
        let t = m.transpose();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.get(4, 2), m.get(2, 4));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let mut rng = Rng::new(4);
        let a = Matrix::random_normal(40, 12, &mut rng);
        let b = Matrix::random_normal(40, 15, &mut rng);
        let fused = a.t_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        assert!(fused.max_diff(&explicit) < 1e-4);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let mut rng = Rng::new(5);
        let a = Matrix::random_normal(14, 33, &mut rng);
        let b = Matrix::random_normal(21, 33, &mut rng);
        let fused = a.matmul_t(&b);
        let explicit = a.matmul(&b.transpose());
        assert!(fused.max_diff(&explicit) < 1e-4);
    }

    #[test]
    fn ema_update_converges_to_target() {
        let target = Matrix::from_fn(4, 4, |r, c| (r + c) as f32);
        let mut m = Matrix::zeros(4, 4);
        for _ in 0..200 {
            m.ema_update(0.9, &target);
        }
        assert!(m.max_diff(&target) < 1e-4);
    }

    #[test]
    fn symmetrize_and_asymmetry() {
        let mut m = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        assert!(m.asymmetry() > 0.0);
        m.symmetrize();
        assert_eq!(m.asymmetry(), 0.0);
        assert!((m.get(0, 1) - m.get(1, 0)).abs() < 1e-7);
    }

    #[test]
    fn add_diag_damps() {
        let mut m = Matrix::zeros(3, 3);
        m.add_diag(2.5);
        for i in 0..3 {
            assert_eq!(m.get(i, i), 2.5);
        }
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn kron_identity_blocks() {
        let i2 = Matrix::identity(2);
        let a = Matrix::from_fn(2, 2, |r, c| (1 + r * 2 + c) as f32);
        let k = i2.kron(&a);
        assert_eq!(k.rows(), 4);
        // Upper-left block is A, off-diagonal blocks are zero.
        assert_eq!(k.get(0, 0), a.get(0, 0));
        assert_eq!(k.get(1, 1), a.get(1, 1));
        assert_eq!(k.get(0, 2), 0.0);
        assert_eq!(k.get(2, 2), a.get(0, 0));
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD)
        let mut rng = Rng::new(8);
        let a = Matrix::random_normal(3, 3, &mut rng);
        let b = Matrix::random_normal(2, 2, &mut rng);
        let c = Matrix::random_normal(3, 3, &mut rng);
        let d = Matrix::random_normal(2, 2, &mut rng);
        let lhs = a.kron(&b).matmul(&c.kron(&d));
        let rhs = a.matmul(&c).kron(&b.matmul(&d));
        assert!(lhs.max_diff(&rhs) < 1e-4, "diff {}", lhs.max_diff(&rhs));
    }

    #[test]
    fn fro_norm_known_value() {
        let m = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
        assert!((m.fro_norm() - 5.0).abs() < 1e-6);
    }

    /// The pre-tiling scalar kernels, retained verbatim as bit-identity
    /// oracles for the register-tiled production kernels.
    mod scalar_oracle {
        use super::Matrix;

        pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
            let (k, n) = (a.cols(), b.cols());
            let mut out = Matrix::zeros(a.rows(), n);
            for row in 0..a.rows() {
                for kk in 0..k {
                    let aik = a.get(row, kk);
                    if aik == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        let v = out.get(row, j) + aik * b.get(kk, j);
                        out.set(row, j, v);
                    }
                }
            }
            out
        }

        pub fn t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
            let (m, n) = (a.cols(), b.cols());
            let mut out = Matrix::zeros(m, n);
            for i in 0..m {
                for r in 0..a.rows() {
                    let ari = a.get(r, i);
                    if ari == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        let v = out.get(i, j) + ari * b.get(r, j);
                        out.set(i, j, v);
                    }
                }
            }
            out
        }

        pub fn matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
            let (m, n, k) = (a.rows(), b.rows(), a.cols());
            let mut out = Matrix::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += a.get(i, kk) * b.get(j, kk);
                    }
                    out.set(i, j, acc);
                }
            }
            out
        }
    }

    fn assert_bits_equal(fast: &Matrix, oracle: &Matrix, what: &str) {
        assert_eq!((fast.rows(), fast.cols()), (oracle.rows(), oracle.cols()));
        for (i, (x, y)) in fast.as_slice().iter().zip(oracle.as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what} diverged at flat index {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn tiled_kernels_bit_identical_on_parallel_sized_inputs() {
        // Dims chosen to cross PAR_THRESHOLD and to leave a ragged column
        // tail (not a multiple of NR or 4), with exact zeros mixed in so
        // the zero-skip path runs.
        let mut rng = Rng::new(77);
        let mut a = Matrix::random_normal(70, 300, &mut rng);
        let mut b = Matrix::random_normal(300, 101, &mut rng);
        const { assert!(70 * 101 * 300 >= PAR_THRESHOLD && 101 * 90 * 300 >= PAR_THRESHOLD) };
        for idx in (0..a.len()).step_by(13) {
            a.as_mut_slice()[idx] = 0.0;
        }
        for idx in (0..b.len()).step_by(7) {
            b.as_mut_slice()[idx] = 0.0;
        }
        assert_bits_equal(&a.matmul(&b), &scalar_oracle::matmul(&a, &b), "matmul");
        let c = Matrix::random_normal(300, 90, &mut rng);
        assert_bits_equal(
            &b.t_matmul(&c),
            &scalar_oracle::t_matmul(&b, &c),
            "t_matmul",
        );
        let d = Matrix::random_normal(101, 300, &mut rng);
        assert_bits_equal(
            &a.matmul_t(&d),
            &scalar_oracle::matmul_t(&a, &d),
            "matmul_t",
        );
    }

    /// A seeded operand with every fifth entry an exact zero, so the
    /// zero-skip runs wherever the entry point has one.
    fn sparse_normal(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
        let mut m = Matrix::random_normal(rows, cols, rng);
        for idx in (0..m.len()).step_by(5) {
            m.as_mut_slice()[idx] = 0.0;
        }
        m
    }

    /// The GEMM instances this host runs: the portable one always, AVX2
    /// and AVX-512 where the CPU has them.
    fn instances() -> Vec<Instance> {
        Instance::ALL
            .into_iter()
            .filter(|inst| inst.available())
            .collect()
    }

    /// All four entry points (and `matmul_t_first` at half of `n`) on
    /// `inst` against the scalar oracles at `m × k × n`.
    fn assert_entry_points_match_oracle(
        inst: Instance,
        m: usize,
        k: usize,
        n: usize,
        rng: &mut Rng,
    ) {
        let _pin = inst.pin();
        let what = |name: &str| format!("{name} on {inst:?} at m={m} k={k} n={n}");
        let a = sparse_normal(m, k, rng);
        let b = Matrix::random_normal(k, n, rng);
        assert_bits_equal(
            &a.matmul(&b),
            &scalar_oracle::matmul(&a, &b),
            &what("matmul"),
        );
        let at = sparse_normal(k, m, rng);
        assert_bits_equal(
            &at.t_matmul(&b),
            &scalar_oracle::t_matmul(&at, &b),
            &what("t_matmul"),
        );
        let bt = Matrix::random_normal(n, k, rng);
        assert_bits_equal(
            &a.matmul_t(&bt),
            &scalar_oracle::matmul_t(&a, &bt),
            &what("matmul_t"),
        );
        let head = Matrix::from_vec(n / 2, k, bt.as_slice()[..n / 2 * k].to_vec());
        assert_bits_equal(
            &a.matmul_t_first(&bt, n / 2),
            &scalar_oracle::matmul_t(&a, &head),
            &what("matmul_t_first"),
        );
        let mut sym = scalar_oracle::t_matmul(&at, &at);
        sym.symmetrize();
        assert_bits_equal(&at.gram(), &sym, &what("gram"));
    }

    #[test]
    fn gemm_core_edges_bit_identical_to_scalar() {
        // One k-block short of, at and past its edge, and three blocks with
        // a ragged last one; strips (of either instance's height) and
        // panels one short of, at and past the tile; then every way an
        // operand can be empty.
        let mut rng = Rng::new(21);
        for inst in instances() {
            for k in [KC - 1, KC, KC + 1, 2 * KC + 3] {
                for m in [
                    1,
                    MR_PORTABLE + 1,
                    MR_AVX2 - 1,
                    MR_AVX2,
                    MR_AVX2 + 1,
                    MR_AVX512 + 1,
                ] {
                    for n in [1, NR - 1, NR, NR + 1] {
                        assert_entry_points_match_oracle(inst, m, k, n, &mut rng);
                    }
                }
            }
            for (m, k, n) in [(0, 5, 7), (5, 0, 7), (5, 7, 0), (0, 0, 0)] {
                assert_entry_points_match_oracle(inst, m, k, n, &mut rng);
            }
        }
    }

    #[test]
    fn eight_row_strips_bit_identical_to_scalar() {
        // The AVX-512 instance's strips: m ragged against MR = 8 and a
        // multiple of it, n one panel (the conv products' N = 16) and past
        // it, so `gram`'s upper triangle starts each strip at its diagonal
        // panel — the strip's own, or the second of a two-strip panel.
        let mut rng = Rng::new(23);
        for inst in instances() {
            for m in [
                MR_AVX512 - 1,
                MR_AVX512 + 3,
                2 * MR_AVX512,
                3 * MR_AVX512 + 5,
            ] {
                for n in [NR, 3 * NR - 1] {
                    assert_entry_points_match_oracle(inst, m, 45, n, &mut rng);
                }
            }
        }
    }

    #[test]
    fn dense_walk_edges_bit_identical_to_scalar() {
        // A tile walks the panel once only when all its rows' lists are
        // full; each operand below sits at an edge of that test.
        let mut rng = Rng::new(24);
        let b = Matrix::random_normal(37, NR + 3, &mut rng);
        let bt = b.transpose();
        // One sparse row among full ones.
        let mut one = Matrix::random_normal(2 * MR_AVX2, 37, &mut rng);
        one.set(1, 5, 0.0);
        // Every row sparse at the same k: equal lengths, short of the block.
        let mut same = Matrix::random_normal(2 * MR_AVX2, 37, &mut rng);
        for r in 0..same.rows() {
            same.set(r, 9, 0.0);
        }
        // Full rows with a ragged last strip (mr = 3 at MR = 4, 1 at 2, 7
        // at 8), and a second one past a full strip at MR = 8 (mr = 3).
        let ragged = Matrix::random_normal(MR_AVX2 + 3, 37, &mut rng);
        let ragged8 = Matrix::random_normal(MR_AVX512 + 3, 37, &mut rng);
        // Every product underflows to -0.0 across a k-block edge: each sum
        // stays the +0.0 it started from.
        let tiny = Matrix::from_fn(MR_AVX2, KC + 1, |_, _| -1e-30);
        let tiny_b = Matrix::from_fn(KC + 1, NR, |_, _| 1e-30);
        // 0 × ∞ in a full strip: matmul skips the zero (its row leaves the
        // dense walk), matmul_t meets it (NaN).
        let mut zero = Matrix::random_normal(MR_AVX2, 3, &mut rng);
        zero.set(2, 1, 0.0);
        let mut inf = Matrix::random_normal(3, NR, &mut rng);
        inf.set(1, 4, f32::INFINITY);
        for inst in instances() {
            let _pin = inst.pin();
            let what = |name: &str| format!("{name} on {inst:?}");
            for a in [&one, &same, &ragged, &ragged8] {
                let at = a.transpose();
                assert_bits_equal(
                    &a.matmul(&b),
                    &scalar_oracle::matmul(a, &b),
                    &what("matmul"),
                );
                assert_bits_equal(
                    &at.t_matmul(&b),
                    &scalar_oracle::t_matmul(&at, &b),
                    &what("t_matmul"),
                );
                assert_bits_equal(
                    &a.matmul_t(&bt),
                    &scalar_oracle::matmul_t(a, &bt),
                    &what("matmul_t"),
                );
            }
            let (tm, tmt) = (tiny.matmul(&tiny_b), tiny.matmul_t(&tiny_b.transpose()));
            assert_bits_equal(&tm, &scalar_oracle::matmul(&tiny, &tiny_b), &what("matmul"));
            for v in tm.as_slice().iter().chain(tmt.as_slice()) {
                assert_eq!(v.to_bits(), 0.0f32.to_bits(), "{}", what("-0.0 sum"));
            }
            let (ab, abt) = (zero.matmul(&inf), zero.matmul_t(&inf.transpose()));
            assert!(ab.get(2, 4).is_finite() && abt.get(2, 4).is_nan());
            assert_bits_equal(&ab, &scalar_oracle::matmul(&zero, &inf), &what("matmul"));
            assert_bits_equal(
                &abt,
                &scalar_oracle::matmul_t(&zero, &inf.transpose()),
                &what("matmul_t"),
            );
        }
    }

    #[test]
    fn entry_points_bit_identical_at_one_two_three_workers() {
        // Past PAR_THRESHOLD in every product, k past KC, nothing a
        // multiple of MR·workers or NR, on each instance: the strip split
        // and the shared packed panels must not show in the bits.
        let mut rng = Rng::new(22);
        let a = sparse_normal(71, 430, &mut rng);
        let b = Matrix::random_normal(430, 101, &mut rng);
        let at = sparse_normal(430, 71, &mut rng);
        let bt = Matrix::random_normal(101, 430, &mut rng);
        const { assert!(71 * 71 * 430 >= PAR_THRESHOLD && 430 > KC) };
        let products = || [a.matmul(&b), at.t_matmul(&b), a.matmul_t(&bt), at.gram()];
        let mut sym = scalar_oracle::t_matmul(&at, &at);
        sym.symmetrize();
        let oracles = [
            scalar_oracle::matmul(&a, &b),
            scalar_oracle::t_matmul(&at, &b),
            scalar_oracle::matmul_t(&a, &bt),
            sym,
        ];
        for (inst, workers) in instances()
            .into_iter()
            .flat_map(|i| (1..=3).map(move |w| (i, w)))
        {
            let _pin = inst.pin();
            let _guard = rayon::scoped_thread_override(workers);
            for (got, want) in products().iter().zip(&oracles) {
                assert_bits_equal(got, want, &format!("{inst:?} at {workers} workers"));
            }
        }
    }

    #[test]
    fn zero_skip_semantics_on_non_finite_input_are_pinned() {
        // The skip flag is a stated property of each entry point: a zero in
        // `A` never meets `B` in matmul / t_matmul / gram (0 × ∞ would be
        // NaN) and always does in matmul_t.
        for poison in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 2.0, 0.0]);
            let b = Matrix::from_vec(2, 2, vec![poison, 3.0, 4.0, 5.0]);
            // Row 0 of a·b is 0·(poison, 3) + 1·(4, 5).
            assert_eq!(a.matmul(&b).row(0), [4.0, 5.0]);
            // Row 0 of aᵀ·b is 0·(poison, 3) + 2·(4, 5).
            assert_eq!(a.t_matmul(&b).row(0), [8.0, 10.0]);
            // Row 0 of a·bᵀ is (0·poison + 1·3, 0·4 + 1·5).
            let abt = a.matmul_t(&b);
            assert!(abt.get(0, 0).is_nan(), "0 × {poison} must reach the sum");
            assert_eq!(abt.get(0, 1), 5.0);
            // (sᵀs)[0][1] is 0·poison + 2·1; the full product's [1][0] is
            // poison·0 + 1·2 = NaN, the SYRK mirrors the finite half.
            let s = Matrix::from_vec(2, 2, vec![0.0, poison, 2.0, 1.0]);
            assert!(s.t_matmul(&s).get(1, 0).is_nan());
            let g = s.gram();
            assert_eq!((g.get(0, 1), g.get(1, 0)), (2.0, 2.0));
            // Exactly symmetric on any input, across a panel edge.
            let mut wide = sparse_normal(5, NR + 4, &mut Rng::new(23));
            for idx in (3..wide.len()).step_by(7) {
                wide.as_mut_slice()[idx] = poison;
            }
            let g = wide.gram();
            for (i, j) in (0..NR + 4).flat_map(|i| (0..i).map(move |j| (i, j))) {
                assert_eq!(g.get(i, j).to_bits(), g.get(j, i).to_bits());
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        // proptest's prelude exports an `Rng` trait that shadows ours.
        use crate::rng::Rng as CRng;

        fn small_matrix(max: usize) -> impl Strategy<Value = Matrix> {
            (1..max, 1..max, any::<u64>()).prop_map(|(r, c, seed)| {
                let mut rng = CRng::new(seed);
                Matrix::random_normal(r, c, &mut rng)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The packed triangle is `n(n+1)/2` long, round-trips a
            /// symmetric matrix exactly, and unpacks to an exactly
            /// symmetric matrix whatever the destination held.
            #[test]
            fn pack_upper_roundtrips_symmetric_input(
                n in (0usize..44).prop_map(|k| if k < 4 { [0, 1, 2, 129][k] } else { k - 1 }),
                seed in any::<u64>(),
            ) {
                let mut rng = CRng::new(seed);
                let mut m = Matrix::zeros(n, n);
                rng.fill_normal(m.as_mut_slice());
                m.symmetrize();
                let mut packed = vec![7.0f32]; // appends, never clears
                m.pack_upper(&mut packed);
                prop_assert_eq!(packed.len(), 1 + n * (n + 1) / 2);
                let mut back = Matrix::zeros(n, n);
                rng.fill_normal(back.as_mut_slice());
                prop_assert_eq!(back.unpack_upper(&packed[1..]), n * (n + 1) / 2);
                assert_bits_equal(&back, &m, "pack/unpack roundtrip");
                prop_assert_eq!(back.asymmetry(), 0.0);
            }

            #[test]
            fn transpose_is_an_involution(m in small_matrix(20)) {
                prop_assert_eq!(m.transpose().transpose(), m);
            }

            #[test]
            fn matmul_distributes_over_addition(
                (a, b, c) in (1usize..10, 1usize..10, 1usize..10, any::<u64>()).prop_map(
                    |(m, k, n, seed)| {
                        let mut rng = CRng::new(seed);
                        (
                            Matrix::random_normal(m, k, &mut rng),
                            Matrix::random_normal(k, n, &mut rng),
                            Matrix::random_normal(k, n, &mut rng),
                        )
                    },
                )
            ) {
                // A(B + C) = AB + AC, up to f32 round-off.
                let mut bc = b.clone();
                bc.axpy(1.0, &c);
                let lhs = a.matmul(&bc);
                let mut rhs = a.matmul(&b);
                rhs.axpy(1.0, &a.matmul(&c));
                let scale = lhs.max_abs().max(1.0);
                prop_assert!(lhs.max_diff(&rhs) < 1e-4 * scale);
            }

            #[test]
            fn t_matmul_of_self_is_psd_diagonal_dominant_trace(m in small_matrix(16)) {
                // sᵀs has non-negative diagonal and trace = ||s||_F².
                let c = m.t_matmul(&m);
                for i in 0..c.rows() {
                    prop_assert!(c.get(i, i) >= -1e-6);
                }
                let trace: f64 = (0..c.rows()).map(|i| c.get(i, i) as f64).sum();
                let fro2 = (m.fro_norm() as f64).powi(2);
                prop_assert!((trace - fro2).abs() < 1e-3 * fro2.max(1.0));
            }

            /// Register-tiled vs scalar-oracle bit identity across random
            /// shapes (ragged tails, zero entries, and the sub-threshold
            /// serial path included).
            #[test]
            fn prop_gemm_kernels_bit_identical_to_scalar(
                (a, b, c, d) in (1usize..40, 1usize..40, 1usize..40, any::<u64>()).prop_map(
                    |(m, k, n, seed)| {
                        let mut rng = CRng::new(seed);
                        let mut a = Matrix::random_normal(m, k, &mut rng);
                        let b = Matrix::random_normal(k, n, &mut rng);
                        let c = Matrix::random_normal(n, k, &mut rng);
                        let d = Matrix::random_normal(m, n, &mut rng);
                        for idx in (0..a.len()).step_by(5) {
                            a.as_mut_slice()[idx] = 0.0;
                        }
                        (a, b, c, d)
                    },
                )
            ) {
                for inst in instances() {
                    let _pin = inst.pin();
                    assert_bits_equal(&a.matmul(&b), &scalar_oracle::matmul(&a, &b), "matmul");
                    assert_bits_equal(&a.t_matmul(&d), &scalar_oracle::t_matmul(&a, &d), "t_matmul");
                    assert_bits_equal(&a.matmul_t(&c), &scalar_oracle::matmul_t(&a, &c), "matmul_t");
                }
            }

            /// The same bits with the common dimension of every product
            /// drawn past one and two k-blocks, so accumulators round-trip
            /// through `out` (and `gram` rides along).
            #[test]
            fn prop_gemm_kernels_bit_identical_to_scalar_past_kc(
                m in 1usize..40, k in 1usize..2 * KC + 40, n in 1usize..40, seed in any::<u64>(),
            ) {
                for inst in instances() {
                    assert_entry_points_match_oracle(inst, m, k, n, &mut CRng::new(seed));
                }
            }

            /// The SYRK is `to_bits`-equal to the product it replaced in
            /// `covariance()` — `t_matmul` with itself, then `symmetrize`
            /// — on ReLU-style statistics (clamped entries, whole dead
            /// columns), across the panel edges (n = NR ± 1), the parallel
            /// path (n = 129) and an empty batch.
            #[test]
            fn gram_bit_identical_to_t_matmul_then_symmetrize(
                rows in (0usize..3).prop_map(|k| [0, 1, 33][k]),
                n in (0usize..5).prop_map(|k| [1, 15, 16, 17, 129][k]),
                seed in any::<u64>(),
            ) {
                let mut rng = CRng::new(seed);
                let mut s = Matrix::random_normal(rows, n, &mut rng);
                for v in s.as_mut_slice() {
                    *v = v.max(0.0);
                }
                for r in 0..rows {
                    for c in (seed as usize % 3..n).step_by(5) {
                        s.set(r, c, 0.0);
                    }
                }
                let mut oracle = s.t_matmul(&s);
                oracle.symmetrize();
                let gram = s.gram();
                assert_bits_equal(&gram, &oracle, "gram");
                prop_assert_eq!(gram.asymmetry(), 0.0);
            }

            #[test]
            fn ema_is_a_contraction_toward_target(
                seed in any::<u64>(), decay in 0.1f32..0.99,
            ) {
                let mut rng = CRng::new(seed);
                let target = Matrix::random_normal(5, 5, &mut rng);
                let mut state = Matrix::random_normal(5, 5, &mut rng);
                let before = state.max_diff(&target);
                state.ema_update(decay, &target);
                let after = state.max_diff(&target);
                prop_assert!(after <= before * 1.0001);
            }
        }
    }

    #[test]
    #[should_panic(expected = "matmul dims")]
    fn matmul_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn orthonormalize_produces_orthonormal_columns() {
        let mut rng = Rng::new(7);
        let mut m = Matrix::random_normal(40, 6, &mut rng);
        let rank = m.orthonormalize_columns();
        assert_eq!(rank, 6);
        // QᵀQ should be the identity to f32 round-off.
        let gram = m.t_matmul(&m);
        for i in 0..6 {
            for j in 0..6 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (gram.get(i, j) - want).abs() < 1e-4,
                    "gram[{i}][{j}] = {}",
                    gram.get(i, j)
                );
            }
        }
    }

    #[test]
    fn orthonormalize_zeroes_degenerate_columns() {
        // Column 1 duplicates column 0 and column 2 is zero: rank 1, and
        // both degenerate columns come back exactly zero.
        let mut m = Matrix::from_fn(5, 3, |r, c| match c {
            0 | 1 => (r + 1) as f32,
            _ => 0.0,
        });
        let rank = m.orthonormalize_columns();
        assert_eq!(rank, 1);
        for r in 0..5 {
            assert_eq!(m.get(r, 1), 0.0);
            assert_eq!(m.get(r, 2), 0.0);
        }
        let mut norm = 0.0f64;
        for r in 0..5 {
            norm += m.get(r, 0) as f64 * m.get(r, 0) as f64;
        }
        assert!((norm - 1.0).abs() < 1e-6);
    }

    #[test]
    fn orthonormalize_is_deterministic() {
        let mut rng = Rng::new(99);
        let src = Matrix::random_normal(33, 4, &mut rng);
        let mut a = src.clone();
        let mut b = src.clone();
        a.orthonormalize_columns();
        b.orthonormalize_columns();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
