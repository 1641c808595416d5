//! The K-FAC second-order optimizer (single process).
//!
//! Implements Eqs. 1–2 of the paper: per layer, Kronecker-factored
//! covariance matrices `A = E[ã ãᵀ]` and `G = E[g gᵀ]` maintained as
//! running averages, inverted through their eigendecompositions with
//! Tikhonov damping γ, and applied to the gradient matrix:
//!
//! ```text
//! precond(∇W) = Q_A [ (Q_Aᵀ ∇W Q_G) ⊘ (v_A v_Gᵀ + γ) ] Q_Gᵀ
//! ```
//!
//! which equals `(A ⊗ G + γI)⁻¹ vec(∇W)` reshaped — verified against the
//! dense Kronecker form in the tests.

use compso_dnn::{KfacStats, Sequential};
use compso_tensor::{sym_eig, Cholesky, EigenDecomposition, Matrix};
use std::collections::HashMap;

/// How the damped Fisher factors are inverted (§2.2: KAISA "employs an
/// alternate implicit inversion method for FIM").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InversionMethod {
    /// Eigendecomposition of both factors; Eq. 2's exact
    /// `(A ⊗ G + γI)⁻¹` via the shared eigenbasis.
    #[default]
    Eigen,
    /// KAISA's implicit route: Cholesky-solve against the *factored*
    /// damping `(A + π√γ·I)⁻¹ ∇W (G + √γ/π·I)⁻¹`, with π the
    /// Martens-Grosse norm-balancing factor. Cheaper to refresh (no
    /// eigendecomposition), slightly different damping geometry.
    Implicit,
}

/// K-FAC hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct KfacConfig {
    /// Tikhonov damping γ added to the Kronecker eigenvalue products.
    pub damping: f32,
    /// Running-average decay for the covariance factors.
    pub ema_decay: f32,
    /// Recompute eigendecompositions every this many steps (factor
    /// statistics still update every step). In the distributed path this
    /// is also the factor all-reduce cadence: the refresh is the running
    /// factors' only reader, so ranks fold locally in between.
    pub eigen_refresh: usize,
    /// Factor-inversion route.
    pub inversion: InversionMethod,
}

impl Default for KfacConfig {
    fn default() -> Self {
        KfacConfig {
            damping: 1e-2,
            ema_decay: 0.95,
            eigen_refresh: 10,
            inversion: InversionMethod::Eigen,
        }
    }
}

/// One layer's complete factor state; also what a checkpoint carries
/// (see [`Kfac::export_layer_state`]).
#[derive(Clone, Debug)]
pub struct LayerState {
    /// Running average of `A = E[ã ãᵀ]`.
    pub a_factor: Matrix,
    /// Running average of `G = E[g gᵀ]`.
    pub g_factor: Matrix,
    /// Cached eigendecomposition of `a_factor` (Eigen inversion route).
    pub eig_a: Option<EigenDecomposition>,
    /// Cached eigendecomposition of `g_factor`.
    pub eig_g: Option<EigenDecomposition>,
    /// Cached damped Cholesky factor of `a_factor` (Implicit route).
    pub chol_a: Option<Cholesky>,
    /// Cached damped Cholesky factor of `g_factor`.
    pub chol_g: Option<Cholesky>,
    /// Per-layer statistics step counter (drives the refresh schedule).
    pub steps: usize,
}

impl LayerState {
    fn new(a_dim: usize, g_dim: usize) -> Self {
        LayerState {
            a_factor: Matrix::zeros(a_dim, a_dim),
            g_factor: Matrix::zeros(g_dim, g_dim),
            eig_a: None,
            eig_g: None,
            chol_a: None,
            chol_g: None,
            steps: 0,
        }
    }
}

/// Computes the batch covariance of a statistics matrix: `sᵀ s / rows`
/// (exactly symmetric: [`Matrix::gram`] mirrors its upper triangle).
pub fn covariance(s: &Matrix) -> Matrix {
    let rows = s.rows().max(1) as f32;
    let mut c = s.gram();
    c.scale(1.0 / rows);
    c
}

/// Folds a fresh covariance into a running average, bias-corrected on the
/// first step (so early factors are the plain covariance, not shrunk
/// toward zero).
pub fn ema_fold(state: &mut Matrix, fresh: &Matrix, decay: f32, steps: usize) {
    if steps == 0 {
        *state = fresh.clone();
    } else {
        state.ema_update(decay, fresh);
    }
}

/// Applies the eigenbasis preconditioner to a gradient matrix.
pub fn precondition(
    grad: &Matrix,
    eig_a: &EigenDecomposition,
    eig_g: &EigenDecomposition,
    damping: f32,
) -> Matrix {
    // grad is (a_dim × g_dim): rows follow A, columns follow G.
    let qa = &eig_a.vectors;
    let qg = &eig_g.vectors;
    // V = Q_Aᵀ grad Q_G, then V ⊘ (v_A v_Gᵀ + γ) in place
    let mut v = qa.t_matmul(grad).matmul(qg);
    for (i, &va) in eig_a.values.iter().enumerate() {
        let va = va.max(0.0);
        for (x, &vg) in v.row_mut(i).iter_mut().zip(&eig_g.values) {
            *x /= va * vg.max(0.0) + damping;
        }
    }
    // out = Q_A V Q_Gᵀ
    qa.matmul(&v).matmul_t(qg)
}

/// The Martens-Grosse norm-balancing factor π = √(tr(A)/dim_A ÷
/// tr(G)/dim_G), which splits the damping γ between the two factors so
/// neither dominates.
pub fn pi_factor(a: &Matrix, g: &Matrix) -> f32 {
    let tr = |m: &Matrix| -> f64 {
        (0..m.rows()).map(|i| m.get(i, i) as f64).sum::<f64>() / m.rows().max(1) as f64
    };
    let (ta, tg) = (tr(a).max(1e-30), tr(g).max(1e-30));
    ((ta / tg).sqrt() as f32).clamp(1e-3, 1e3)
}

/// KAISA's implicit preconditioner: `(A + π√γ I)⁻¹ ∇W (G + √γ/π I)⁻¹`
/// via two Cholesky solves — no eigendecomposition needed.
pub fn precondition_implicit(grad: &Matrix, chol_a: &Cholesky, chol_g: &Cholesky) -> Matrix {
    // X1 = (A + aI)^-1 grad  (solve per column of grad).
    let x1 = chol_a.solve(grad);
    // X2 = X1 (G + bI)^-1 = ((G + bI)^-1 X1ᵀ)ᵀ since G is symmetric.
    chol_g.solve(&x1.transpose()).transpose()
}

/// The K-FAC optimizer. Holds per-layer factor state keyed by layer
/// index; non-K-FAC layers (LayerNorm, ...) fall through untouched and
/// should be updated by the caller's first-order rule on their raw
/// gradients.
pub struct Kfac {
    /// Hyperparameters.
    pub config: KfacConfig,
    states: HashMap<usize, LayerState>,
}

impl Kfac {
    /// A fresh optimizer.
    pub fn new(config: KfacConfig) -> Self {
        Kfac {
            config,
            states: HashMap::new(),
        }
    }

    /// Updates factor statistics from one layer's captured `(a, g)` and
    /// refreshes its eigendecomposition on schedule. Returns whether the
    /// eigendecomposition is ready for preconditioning.
    pub fn update_layer(&mut self, idx: usize, stats: &KfacStats) -> bool {
        let a_cov = covariance(&stats.a);
        let g_cov = covariance(&stats.g);
        self.absorb_covariances(idx, &a_cov, &g_cov)
    }

    /// Like [`Kfac::update_layer`] but takes precomputed (possibly
    /// all-reduced) covariances: folds them, then refreshes the cached
    /// inverse on schedule.
    pub fn absorb_covariances(&mut self, idx: usize, a_cov: &Matrix, g_cov: &Matrix) -> bool {
        if self.fold_covariances(idx, a_cov, g_cov) {
            self.refresh_inverse(idx);
        }
        self.has_inverse(idx)
    }

    /// Folds covariances into the layer's running averages — in the
    /// distributed path every rank does this for every layer with its
    /// *local* covariances — and returns whether this step is on the
    /// layer's refresh schedule.
    pub fn fold_covariances(&mut self, idx: usize, a_cov: &Matrix, g_cov: &Matrix) -> bool {
        let state = self
            .states
            .entry(idx)
            .or_insert_with(|| LayerState::new(a_cov.rows(), g_cov.rows()));
        let decay = self.config.ema_decay;
        let steps = state.steps;
        ema_fold(&mut state.a_factor, a_cov, decay, steps);
        ema_fold(&mut state.g_factor, g_cov, decay, steps);
        state.steps += 1;
        steps.is_multiple_of(self.config.eigen_refresh)
    }

    /// Recomputes the layer's cached inverse (two `sym_eig`s or two
    /// Cholesky factorizations) from its running factors — the O(n³)
    /// work only the layer's owner does in the distributed path. A
    /// non-finite factor keeps the previous inverse: a diverged step
    /// must not poison the preconditioner. Returns whether the
    /// decompositions ran.
    pub fn refresh_inverse(&mut self, idx: usize) -> bool {
        let finite = |m: &Matrix| m.as_slice().iter().all(|v| v.is_finite());
        let Some(state) = self.states.get_mut(&idx) else {
            return false;
        };
        if !(finite(&state.a_factor) && finite(&state.g_factor)) {
            return false;
        }
        match self.config.inversion {
            InversionMethod::Eigen => {
                state.eig_a = Some(sym_eig(&state.a_factor));
                state.eig_g = Some(sym_eig(&state.g_factor));
            }
            InversionMethod::Implicit => {
                let pi = pi_factor(&state.a_factor, &state.g_factor);
                let sqrt_gamma = self.config.damping.sqrt();
                let mut a = state.a_factor.clone();
                a.add_diag(pi * sqrt_gamma);
                let mut g = state.g_factor.clone();
                g.add_diag(sqrt_gamma / pi);
                state.chol_a = Cholesky::new(&a).ok();
                state.chol_g = Cholesky::new(&g).ok();
            }
        }
        true
    }

    /// Drops the layer's cached inverse (a distributed non-owner on a
    /// refresh step: the copy it holds just went stale).
    pub fn drop_inverse(&mut self, idx: usize) {
        if let Some(state) = self.states.get_mut(&idx) {
            (state.eig_a, state.eig_g, state.chol_a, state.chol_g) = (None, None, None, None);
        }
    }

    /// Whether the layer has a cached inverse to precondition with.
    pub fn has_inverse(&self, idx: usize) -> bool {
        self.states
            .get(&idx)
            .is_some_and(|s| s.eig_a.is_some() || s.chol_a.is_some())
    }

    /// Preconditions one layer's gradient (Eq. 2); identity when the
    /// layer has no eigendecomposition yet.
    pub fn precondition_layer(&self, idx: usize, grad: &Matrix) -> Matrix {
        match self.states.get(&idx) {
            Some(LayerState {
                eig_a: Some(ea),
                eig_g: Some(eg),
                ..
            }) => precondition(grad, ea, eg, self.config.damping),
            Some(LayerState {
                chol_a: Some(ca),
                chol_g: Some(cg),
                ..
            }) => precondition_implicit(grad, ca, cg),
            _ => grad.clone(),
        }
    }

    /// Full single-process step: capture statistics, precondition every
    /// K-FAC layer's gradient in place, leaving non-K-FAC layers' raw
    /// gradients intact. The caller then applies its update rule.
    pub fn step(&mut self, model: &mut Sequential) {
        let kfac_layers = model.kfac_indices();
        for &idx in &kfac_layers {
            let stats = model.kfac_stats(idx).expect("kfac index without stats");
            self.update_layer(idx, &stats);
            let grad = model.layer(idx).grads().expect("missing gradient").clone();
            let pre = self.precondition_layer(idx, &grad);
            model.layer_mut(idx).set_grads(pre);
        }
    }

    /// Read-only access to a layer's running factors (tests, diagnostics).
    pub fn factors(&self, idx: usize) -> Option<(&Matrix, &Matrix)> {
        self.states.get(&idx).map(|s| (&s.a_factor, &s.g_factor))
    }

    /// Mutable access to a layer's running factors (the distributed
    /// factor sync and checkpoint restore overwrite them in place).
    pub fn factors_mut(&mut self, idx: usize) -> Option<(&mut Matrix, &mut Matrix)> {
        let s = self.states.get_mut(&idx)?;
        Some((&mut s.a_factor, &mut s.g_factor))
    }

    /// Layer indices with factor state, sorted ascending (a deterministic
    /// iteration order for checkpoint serialization).
    pub fn state_indices(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = self.states.keys().copied().collect();
        idx.sort_unstable();
        idx
    }

    /// Exports one layer's complete factor state — running covariances,
    /// cached eigendecompositions / Cholesky factors, and the per-layer
    /// step counter — for checkpointing. The cached inverses MUST travel
    /// with the factors: they are refreshed only every
    /// [`KfacConfig::eigen_refresh`] steps, so recomputing them at restore
    /// time would see a newer running average and silently fork the
    /// resumed trajectory from the uninterrupted one.
    pub fn export_layer_state(&self, idx: usize) -> Option<LayerState> {
        self.states.get(&idx).cloned()
    }

    /// Installs a layer's factor state from a checkpoint, replacing any
    /// existing state for `idx`. Inverse of [`Kfac::export_layer_state`].
    pub fn import_layer_state(&mut self, idx: usize, state: LayerState) {
        self.states.insert(idx, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compso_dnn::layer::{Layer, Linear};
    use compso_dnn::loss::{accuracy, softmax_cross_entropy};
    use compso_dnn::{data, models};
    use compso_tensor::{Cholesky, Rng};

    #[test]
    fn covariance_matches_definition() {
        let mut rng = Rng::new(1);
        let s = Matrix::random_normal(50, 4, &mut rng);
        let c = covariance(&s);
        for i in 0..4 {
            for j in 0..4 {
                let mut expect = 0.0f64;
                for r in 0..50 {
                    expect += s.get(r, i) as f64 * s.get(r, j) as f64;
                }
                expect /= 50.0;
                assert!((c.get(i, j) as f64 - expect).abs() < 1e-4);
            }
        }
        assert_eq!(c.asymmetry(), 0.0);
    }

    /// The eigenbasis preconditioner must equal the dense Kronecker form
    /// `(A ⊗ G + γI)⁻¹ vec(∇W)` — the ground-truth check for Eq. 2.
    ///
    /// Layout note: for row-major `grad` with rows indexed by A and
    /// columns by G, `vec(grad)` in row-major order corresponds to the
    /// Kronecker product `A ⊗ G`.
    #[test]
    fn preconditioner_matches_dense_kronecker_inverse() {
        let mut rng = Rng::new(2);
        let a_dim = 4;
        let g_dim = 3;
        let make_spd = |n: usize, rng: &mut Rng| {
            let b = Matrix::random_normal(n, n, rng);
            let mut spd = b.t_matmul(&b);
            spd.add_diag(0.2);
            spd.symmetrize();
            spd
        };
        let a = make_spd(a_dim, &mut rng);
        let g = make_spd(g_dim, &mut rng);
        let grad = Matrix::random_normal(a_dim, g_dim, &mut rng);
        let damping = 0.05f32;

        let fast = precondition(&grad, &sym_eig(&a), &sym_eig(&g), damping);

        // Dense reference.
        let mut f = a.kron(&g);
        f.add_diag(damping);
        let vec_grad: Vec<f32> = grad.as_slice().to_vec();
        let solved = Cholesky::new(&f).unwrap().solve_vec(&vec_grad);
        let dense = Matrix::from_vec(a_dim, g_dim, solved);

        assert!(
            fast.max_diff(&dense) < 1e-3 * dense.max_abs().max(1.0),
            "diff {}",
            fast.max_diff(&dense)
        );
    }

    /// Why swapping one correct eigensolver for another moves a training
    /// trajectory by round-off only: negating an eigenvector is exact and
    /// cancels in `Q f(Λ) Qᵀ`, so the sign convention a solver happens to
    /// pick never reaches the preconditioned gradient. What can differ is
    /// an entry that rounds the other way, or the basis inside a cluster
    /// of equal eigenvalues.
    #[test]
    fn preconditioner_is_bit_identical_under_eigenvector_sign_flips() {
        let mut rng = Rng::new(19);
        let flipped = |eig: &EigenDecomposition, rng: &mut Rng| {
            let mut out = eig.clone();
            for j in 0..eig.values.len() {
                if rng.next_u64() & 1 == 1 {
                    for i in 0..eig.values.len() {
                        out.vectors.set(i, j, -eig.vectors.get(i, j));
                    }
                }
            }
            out
        };
        let bits = |m: &Matrix| {
            m.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u32>>()
        };
        for (a_dim, g_dim) in [(33usize, 4usize), (129, 128), (145, 32)] {
            let factor =
                |n: usize, rng: &mut Rng| covariance(&Matrix::random_normal(2 * n, n, rng));
            let eig_a = sym_eig(&factor(a_dim, &mut rng));
            let eig_g = sym_eig(&factor(g_dim, &mut rng));
            let grad = Matrix::random_normal(a_dim, g_dim, &mut rng);
            let base = bits(&precondition(&grad, &eig_a, &eig_g, 0.05));
            for _ in 0..3 {
                let (fa, fg) = (flipped(&eig_a, &mut rng), flipped(&eig_g, &mut rng));
                assert_eq!(bits(&precondition(&grad, &fa, &eig_g, 0.05)), base);
                assert_eq!(bits(&precondition(&grad, &eig_a, &fg, 0.05)), base);
                assert_eq!(bits(&precondition(&grad, &fa, &fg, 0.05)), base);
            }
        }
    }

    #[test]
    fn preconditioning_with_identity_factors_is_scaling() {
        // A = I, G = I -> preconditioner divides by (1 + γ).
        let eig_i3 = sym_eig(&Matrix::identity(3));
        let eig_i2 = sym_eig(&Matrix::identity(2));
        let grad = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let out = precondition(&grad, &eig_i3, &eig_i2, 0.5);
        let mut expect = grad.clone();
        expect.scale(1.0 / 1.5);
        assert!(out.max_diff(&expect) < 1e-5);
    }

    #[test]
    fn first_step_uses_plain_covariance() {
        let mut kfac = Kfac::new(KfacConfig::default());
        let mut rng = Rng::new(3);
        let stats = KfacStats {
            a: Matrix::random_normal(20, 3, &mut rng),
            g: Matrix::random_normal(20, 2, &mut rng),
        };
        kfac.update_layer(0, &stats);
        let (a, _) = kfac.factors(0).unwrap();
        let expect = covariance(&stats.a);
        assert!(a.max_diff(&expect) < 1e-6, "first EMA step must not shrink");
    }

    #[test]
    fn identity_passthrough_before_first_eigendecomposition() {
        let kfac = Kfac::new(KfacConfig::default());
        let grad = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        assert_eq!(kfac.precondition_layer(99, &grad), grad);
    }

    #[test]
    fn eigen_refresh_interval_respected() {
        let mut kfac = Kfac::new(KfacConfig {
            eigen_refresh: 5,
            ..Default::default()
        });
        let mut rng = Rng::new(4);
        // Feed identical stats; the *eigendecomposition* must only change
        // on refresh steps even though factors move every step.
        let mk = |rng: &mut Rng| KfacStats {
            a: Matrix::random_normal(10, 3, rng),
            g: Matrix::random_normal(10, 2, rng),
        };
        kfac.update_layer(0, &mk(&mut rng));
        let grad = Matrix::random_normal(3, 2, &mut rng);
        let p1 = kfac.precondition_layer(0, &grad);
        // Steps 2..5: stats change, eigens stale -> same preconditioner.
        for _ in 1..5 {
            kfac.update_layer(0, &mk(&mut rng));
        }
        let p_stale = kfac.precondition_layer(0, &grad);
        assert!(p1.max_diff(&p_stale) < 1e-7, "eigens refreshed too early");
        // Step 6 (index 5): refresh fires.
        kfac.update_layer(0, &mk(&mut rng));
        let p_fresh = kfac.precondition_layer(0, &grad);
        assert!(p1.max_diff(&p_fresh) > 1e-6, "eigens never refreshed");
    }

    /// The headline property: K-FAC reaches the accuracy target in fewer
    /// iterations than SGD at a comparable setting — the premise of the
    /// whole paper (§1, Fig. 6a's "60 vs 40 epochs").
    #[test]
    fn kfac_converges_in_fewer_iterations_than_sgd() {
        let iters_to = |use_kfac: bool| -> usize {
            let mut rng = Rng::new(5);
            let d = data::gaussian_blobs(400, 10, 4, 0.6, 6);
            let mut model = models::mlp(&[10, 24, 4], &mut rng);
            let mut kfac = Kfac::new(KfacConfig {
                damping: 1e-2,
                ema_decay: 0.9,
                eigen_refresh: 5,
                ..Default::default()
            });
            for step in 0..400 {
                let (x, y) = d.batch(step, 64);
                let logits = model.forward(&x, true);
                let (_, grad) = softmax_cross_entropy(&logits, &y);
                model.backward(&grad);
                if use_kfac {
                    kfac.step(&mut model);
                }
                let lr = 0.02;
                model.update_params(|p, g| p.axpy(-lr, g));
                if step % 10 == 9 {
                    let logits = model.forward(&d.x, false);
                    if accuracy(&logits, &d.y) > 0.97 {
                        return step + 1;
                    }
                }
            }
            400
        };
        let kfac_iters = iters_to(true);
        let sgd_iters = iters_to(false);
        assert!(
            kfac_iters < sgd_iters,
            "kfac {kfac_iters} vs sgd {sgd_iters}"
        );
    }

    #[test]
    fn full_step_preconditions_linear_layers_only() {
        let mut rng = Rng::new(7);
        let mut model = models::mlp(&[4, 8, 2], &mut rng);
        let x = Matrix::random_normal(6, 4, &mut rng);
        let y = model.forward(&x, true);
        model.backward(&y);
        let raw0 = model.layer(0).grads().unwrap().clone();
        let mut kfac = Kfac::new(KfacConfig::default());
        kfac.step(&mut model);
        let pre0 = model.layer(0).grads().unwrap().clone();
        assert!(raw0.max_diff(&pre0) > 1e-7, "gradient unchanged");
    }

    /// The implicit route must equal the dense factored-damping inverse
    /// `((A + π√γ I) ⊗ (G + √γ/π I))⁻¹ vec(∇W)`.
    #[test]
    fn implicit_preconditioner_matches_dense_factored_inverse() {
        let mut rng = Rng::new(20);
        let make_spd = |n: usize, rng: &mut Rng| {
            let b = Matrix::random_normal(n, n, rng);
            let mut spd = b.t_matmul(&b);
            spd.add_diag(0.2);
            spd.symmetrize();
            spd
        };
        let a = make_spd(4, &mut rng);
        let g = make_spd(3, &mut rng);
        let grad = Matrix::random_normal(4, 3, &mut rng);
        let gamma = 0.05f32;
        let pi = pi_factor(&a, &g);

        let mut a_damped = a.clone();
        a_damped.add_diag(pi * gamma.sqrt());
        let mut g_damped = g.clone();
        g_damped.add_diag(gamma.sqrt() / pi);

        let fast = precondition_implicit(
            &grad,
            &Cholesky::new(&a_damped).unwrap(),
            &Cholesky::new(&g_damped).unwrap(),
        );

        let f = a_damped.kron(&g_damped);
        let solved = Cholesky::new(&f).unwrap().solve_vec(grad.as_slice());
        let dense = Matrix::from_vec(4, 3, solved);
        assert!(
            fast.max_diff(&dense) < 1e-3 * dense.max_abs().max(1.0),
            "diff {}",
            fast.max_diff(&dense)
        );
    }

    #[test]
    fn eigen_and_implicit_agree_in_direction() {
        // Different damping geometries, same preconditioning intent: the
        // two outputs should be strongly aligned (cosine similarity).
        let mut rng = Rng::new(21);
        let mut lin = Linear::new(8, 5, &mut rng);
        let x = Matrix::random_normal(24, 8, &mut rng);
        let y = lin.forward(&x, true);
        let _ = lin.backward(&y);
        let stats = lin.kfac_stats().unwrap();
        let grad = lin.grads().unwrap().clone();

        let mut out = Vec::new();
        for inversion in [InversionMethod::Eigen, InversionMethod::Implicit] {
            let mut kfac = Kfac::new(KfacConfig {
                damping: 0.05,
                inversion,
                ..Default::default()
            });
            kfac.update_layer(0, &stats);
            out.push(kfac.precondition_layer(0, &grad));
        }
        let dot: f64 = out[0]
            .as_slice()
            .iter()
            .zip(out[1].as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let cos = dot / (out[0].fro_norm() as f64 * out[1].fro_norm() as f64);
        assert!(cos > 0.9, "cosine {cos}");
    }

    #[test]
    fn implicit_route_trains_as_well_as_eigen() {
        let run_with = |inversion: InversionMethod| -> f64 {
            let mut rng = Rng::new(22);
            let d = data::gaussian_blobs(300, 8, 3, 0.5, 23);
            let mut model = models::mlp(&[8, 24, 3], &mut rng);
            let mut kfac = Kfac::new(KfacConfig {
                damping: 0.05,
                inversion,
                ..Default::default()
            });
            for step in 0..150 {
                let (x, y) = d.batch(step, 32);
                let logits = model.forward(&x, true);
                let (_, grad) = softmax_cross_entropy(&logits, &y);
                model.backward(&grad);
                kfac.step(&mut model);
                model.update_params(|p, g| p.axpy(-0.02, g));
            }
            let logits = model.forward(&d.x, false);
            accuracy(&logits, &d.y)
        };
        let eig = run_with(InversionMethod::Eigen);
        let imp = run_with(InversionMethod::Implicit);
        assert!(eig > 0.93, "eigen acc {eig}");
        assert!(imp > eig - 0.03, "implicit {imp} vs eigen {eig}");
    }

    #[test]
    fn pi_factor_balances_traces() {
        let a = Matrix::from_vec(2, 2, vec![4.0, 0.0, 0.0, 4.0]); // tr/dim = 4
        let g = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]); // tr/dim = 1
        assert!((pi_factor(&a, &g) - 2.0).abs() < 1e-6);
        // Degenerate zero-trace inputs stay finite.
        let z = Matrix::zeros(2, 2);
        assert!(pi_factor(&z, &z).is_finite());
    }

    #[test]
    fn damping_bounds_the_preconditioner_gain() {
        // With eigenvalues >= 0 the preconditioner's spectral gain is at
        // most 1/γ; the output cannot blow up.
        let mut rng = Rng::new(8);
        let mut lin = Linear::new(6, 4, &mut rng);
        let x = Matrix::random_normal(12, 6, &mut rng);
        let y = lin.forward(&x, true);
        let _ = lin.backward(&y);
        let stats = lin.kfac_stats().unwrap();
        let mut kfac = Kfac::new(KfacConfig {
            damping: 0.1,
            ..Default::default()
        });
        kfac.update_layer(0, &stats);
        let grad = lin.grads().unwrap().clone();
        let pre = kfac.precondition_layer(0, &grad);
        assert!(pre.fro_norm() <= grad.fro_norm() / 0.1 * 1.01);
    }
}
