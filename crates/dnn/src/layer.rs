//! The layer abstraction and the dense layers.
//!
//! Shapes are row-major `Matrix`es with the batch dimension on rows.
//! A layer owns its parameters and, after `backward`, its parameter
//! gradients. K-FAC-eligible layers additionally retain the statistics
//! `(a, g)` of the last step when capture is enabled.

use compso_tensor::{Matrix, Rng};

/// The K-FAC statistics of one layer for one training step (Eq. 1).
#[derive(Clone, Debug)]
pub struct KfacStats {
    /// Input activations, one row per (sample × spatial position), with
    /// the homogeneous bias coordinate appended — `a_{l-1}`.
    pub a: Matrix,
    /// Gradients w.r.t. the pre-activation outputs, matching rows — `g_l`.
    pub g: Matrix,
}

/// A differentiable layer.
pub trait Layer: Send {
    /// Layer kind label for diagnostics.
    fn name(&self) -> &'static str;

    /// Forward pass. With `train` set, the layer caches whatever its
    /// backward pass and K-FAC statistics need.
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix;

    /// Backward pass: consumes dL/d(output), returns dL/d(input), and
    /// stores dL/d(params) internally (averaged over the batch).
    fn backward(&mut self, grad_out: &Matrix) -> Matrix;

    /// Flattened parameter tensor, if the layer has one.
    fn params(&self) -> Option<&Matrix> {
        None
    }

    /// Mutable parameters.
    fn params_mut(&mut self) -> Option<&mut Matrix> {
        None
    }

    /// Flattened parameter gradient from the last backward pass.
    fn grads(&self) -> Option<&Matrix> {
        None
    }

    /// Mutable access to the parameter gradient, for optimizers that
    /// update it in place (e.g. the bucketed gradient sync's scatter-back)
    /// instead of allocating a replacement via [`Layer::set_grads`].
    fn grads_mut(&mut self) -> Option<&mut Matrix> {
        None
    }

    /// Replaces the parameter gradient (after preconditioning or
    /// decompression the optimizer writes the processed gradient back).
    fn set_grads(&mut self, grads: Matrix);

    /// The last step's K-FAC statistics `(a, g)`, borrowed, when the layer
    /// supports K-FAC and has captured them.
    fn kfac_stats_ref(&self) -> Option<(&Matrix, &Matrix)> {
        None
    }

    /// An owned copy of [`Layer::kfac_stats_ref`].
    fn kfac_stats(&self) -> Option<KfacStats> {
        let (a, g) = self.kfac_stats_ref()?;
        Some(KfacStats {
            a: a.clone(),
            g: g.clone(),
        })
    }
}

/// A fully-connected layer with the bias folded into the weight matrix:
/// `y = [x, 1] · W` with `W: (in+1) × out`.
///
/// The augmented form makes the K-FAC factor `A = E[ã ãᵀ]` exactly the
/// (in+1)² matrix the literature uses.
pub struct Linear {
    weight: Matrix,
    grad: Matrix,
    /// Cached augmented input from the last training forward.
    cached_a: Option<Matrix>,
    /// Cached pre-activation output gradient from the last backward.
    cached_g: Option<Matrix>,
}

impl Linear {
    /// He-initialized linear layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        let std = (2.0 / in_dim as f32).sqrt();
        let mut weight = Matrix::random_normal(in_dim + 1, out_dim, rng);
        weight.scale(std);
        // Zero the bias row.
        for c in 0..out_dim {
            weight.set(in_dim, c, 0.0);
        }
        Linear {
            weight,
            grad: Matrix::zeros(in_dim + 1, out_dim),
            cached_a: None,
            cached_g: None,
        }
    }

    /// Input width (without the bias coordinate).
    pub(crate) fn in_dim(&self) -> usize {
        self.weight.rows() - 1
    }

    fn augment(x: &Matrix) -> Matrix {
        let mut a = Matrix::zeros(x.rows(), x.cols() + 1);
        for r in 0..x.rows() {
            a.row_mut(r)[..x.cols()].copy_from_slice(x.row(r));
            a.set(r, x.cols(), 1.0);
        }
        a
    }
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        "Linear"
    }

    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        assert_eq!(x.cols(), self.in_dim(), "Linear input width");
        let a = Self::augment(x);
        let y = a.matmul(&self.weight);
        if train {
            self.cached_a = Some(a);
        }
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let a = self
            .cached_a
            .as_ref()
            .expect("backward without a training forward");
        assert_eq!(grad_out.rows(), a.rows(), "Linear batch mismatch");
        let batch = grad_out.rows() as f32;
        // dW = ãᵀ g / batch
        let mut grad = a.t_matmul(grad_out);
        grad.scale(1.0 / batch);
        self.grad = grad;
        // dx = g Wᵀ over W's input rows: the bias row has no input.
        let dx = grad_out.matmul_t_first(&self.weight, self.in_dim());
        self.cached_g = Some(grad_out.clone());
        dx
    }

    fn params(&self) -> Option<&Matrix> {
        Some(&self.weight)
    }

    fn params_mut(&mut self) -> Option<&mut Matrix> {
        Some(&mut self.weight)
    }

    fn grads(&self) -> Option<&Matrix> {
        Some(&self.grad)
    }

    fn grads_mut(&mut self) -> Option<&mut Matrix> {
        Some(&mut self.grad)
    }

    fn set_grads(&mut self, grads: Matrix) {
        assert_eq!(
            (grads.rows(), grads.cols()),
            (self.weight.rows(), self.weight.cols()),
            "gradient shape"
        );
        self.grad = grads;
    }

    fn kfac_stats_ref(&self) -> Option<(&Matrix, &Matrix)> {
        Some((self.cached_a.as_ref()?, self.cached_g.as_ref()?))
    }
}

/// Elementwise rectified linear unit.
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// A ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "ReLU"
    }

    // Selects, not branches or products: `v > 0.0` keeps `v`, anything
    // else (`-0.0`, NaN, -inf) becomes `+0.0`.
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        if train {
            self.mask = Some(x.as_slice().iter().map(|&v| v > 0.0).collect());
        }
        let y = x.as_slice().iter().map(|&v| if v > 0.0 { v } else { 0.0 });
        Matrix::from_vec(x.rows(), x.cols(), y.collect())
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mask = self.mask.as_ref().expect("backward without forward");
        assert_eq!(mask.len(), grad_out.len(), "ReLU shape");
        let dx = (grad_out.as_slice().iter().zip(mask)).map(|(&g, &m)| if m { g } else { 0.0 });
        Matrix::from_vec(grad_out.rows(), grad_out.cols(), dx.collect())
    }

    fn set_grads(&mut self, _grads: Matrix) {}
}

/// Elementwise tanh.
pub(crate) struct Tanh {
    cached_y: Option<Matrix>,
}

impl Tanh {
    /// A tanh layer.
    pub fn new() -> Self {
        Tanh { cached_y: None }
    }
}

impl Default for Tanh {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "Tanh"
    }

    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let mut y = x.clone();
        for v in y.as_mut_slice() {
            *v = v.tanh();
        }
        if train {
            self.cached_y = Some(y.clone());
        }
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let y = self.cached_y.as_ref().expect("backward without forward");
        let mut dx = grad_out.clone();
        for (d, &yv) in dx.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *d *= 1.0 - yv * yv;
        }
        dx
    }

    fn set_grads(&mut self, _grads: Matrix) {}
}

/// Per-row layer normalization with learned gain and bias.
///
/// Parameters are stored as a 2 × dim matrix (row 0 = gain, row 1 = bias).
/// LayerNorm is not K-FAC-eligible; its gradients ride the ordinary
/// data-parallel path, matching practice.
pub(crate) struct LayerNorm {
    params: Matrix,
    grad: Matrix,
    eps: f32,
    cached: Option<(Matrix, Vec<f32>)>, // normalized input, inv_std per row
}

impl LayerNorm {
    /// A LayerNorm over feature width `dim`.
    pub fn new(dim: usize) -> Self {
        let mut params = Matrix::zeros(2, dim);
        for c in 0..dim {
            params.set(0, c, 1.0);
        }
        LayerNorm {
            params,
            grad: Matrix::zeros(2, dim),
            eps: 1e-5,
            cached: None,
        }
    }
}

impl Layer for LayerNorm {
    fn name(&self) -> &'static str {
        "LayerNorm"
    }

    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let dim = x.cols();
        assert_eq!(dim, self.params.cols(), "LayerNorm width");
        let mut xhat = Matrix::zeros(x.rows(), dim);
        let mut inv_stds = Vec::with_capacity(x.rows());
        let mut y = Matrix::zeros(x.rows(), dim);
        for r in 0..x.rows() {
            let row = x.row(r);
            let mean: f32 = row.iter().sum::<f32>() / dim as f32;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / dim as f32;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds.push(inv_std);
            for (c, &v) in row.iter().enumerate() {
                let h = (v - mean) * inv_std;
                xhat.set(r, c, h);
                y.set(r, c, h * self.params.get(0, c) + self.params.get(1, c));
            }
        }
        if train {
            self.cached = Some((xhat, inv_stds));
        }
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let (xhat, inv_stds) = self.cached.as_ref().expect("backward without forward");
        let dim = grad_out.cols();
        let batch = grad_out.rows();
        let mut grad = Matrix::zeros(2, dim);
        let mut dx = Matrix::zeros(batch, dim);
        for (r, &inv_std) in inv_stds.iter().enumerate().take(batch) {
            let go = grad_out.row(r);
            let xh = xhat.row(r);
            // Parameter grads.
            for c in 0..dim {
                let dg = grad.get(0, c) + go[c] * xh[c] / batch as f32;
                grad.set(0, c, dg);
                let db = grad.get(1, c) + go[c] / batch as f32;
                grad.set(1, c, db);
            }
            // Input grads: standard layernorm backward.
            let dxhat: Vec<f32> = (0..dim).map(|c| go[c] * self.params.get(0, c)).collect();
            let sum_dxhat: f32 = dxhat.iter().sum();
            let sum_dxhat_xhat: f32 = dxhat.iter().zip(xh).map(|(&d, &h)| d * h).sum();
            for c in 0..dim {
                let v = inv_std / dim as f32
                    * (dim as f32 * dxhat[c] - sum_dxhat - xh[c] * sum_dxhat_xhat);
                dx.set(r, c, v);
            }
        }
        self.grad = grad;
        dx
    }

    fn params(&self) -> Option<&Matrix> {
        Some(&self.params)
    }

    fn params_mut(&mut self) -> Option<&mut Matrix> {
        Some(&mut self.params)
    }

    fn grads(&self) -> Option<&Matrix> {
        Some(&self.grad)
    }

    fn grads_mut(&mut self) -> Option<&mut Matrix> {
        Some(&mut self.grad)
    }

    fn set_grads(&mut self, grads: Matrix) {
        assert_eq!((grads.rows(), grads.cols()), (2, self.params.cols()));
        self.grad = grads;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically checks dL/dx for a layer with L = sum(output * probe).
    fn check_input_gradient(layer: &mut dyn Layer, x: &Matrix, probe: &Matrix, tol: f32) {
        let _y = layer.forward(x, true);
        let dx = layer.backward(probe);
        let eps = 1e-3f32;
        for idx in [0usize, x.len() / 2, x.len() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let yp = layer.forward(&xp, false);
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let ym = layer.forward(&xm, false);
            let lp: f32 = yp
                .as_slice()
                .iter()
                .zip(probe.as_slice())
                .map(|(&a, &b)| a * b)
                .sum();
            let lm: f32 = ym
                .as_slice()
                .iter()
                .zip(probe.as_slice())
                .map(|(&a, &b)| a * b)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = dx.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < tol * (1.0 + numeric.abs()),
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut rng = Rng::new(1);
        let mut lin = Linear::new(4, 3, &mut rng);
        // Zero input isolates the bias row (initialized to zero).
        let x = Matrix::zeros(2, 4);
        let y = lin.forward(&x, false);
        assert_eq!((y.rows(), y.cols()), (2, 3));
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn linear_input_gradient_is_correct() {
        let mut rng = Rng::new(2);
        let mut lin = Linear::new(5, 4, &mut rng);
        let x = Matrix::random_normal(3, 5, &mut rng);
        let probe = Matrix::random_normal(3, 4, &mut rng);
        check_input_gradient(&mut lin, &x, &probe, 1e-2);
    }

    #[test]
    fn linear_param_gradient_is_correct() {
        let mut rng = Rng::new(3);
        let mut lin = Linear::new(3, 2, &mut rng);
        let x = Matrix::random_normal(4, 3, &mut rng);
        let probe = Matrix::random_normal(4, 2, &mut rng);
        let _ = lin.forward(&x, true);
        let _ = lin.backward(&probe);
        let analytic = lin.grads().unwrap().clone();
        let eps = 1e-3f32;
        for (r, c) in [(0usize, 0usize), (2, 1), (3, 0)] {
            // (3, _) is the bias row.
            let orig = lin.params().unwrap().get(r, c);
            lin.params_mut().unwrap().set(r, c, orig + eps);
            let yp = lin.forward(&x, false);
            lin.params_mut().unwrap().set(r, c, orig - eps);
            let ym = lin.forward(&x, false);
            lin.params_mut().unwrap().set(r, c, orig);
            let lp: f32 = yp
                .as_slice()
                .iter()
                .zip(probe.as_slice())
                .map(|(&a, &b)| a * b)
                .sum();
            let lm: f32 = ym
                .as_slice()
                .iter()
                .zip(probe.as_slice())
                .map(|(&a, &b)| a * b)
                .sum();
            // Layer averages over the batch.
            let numeric = (lp - lm) / (2.0 * eps) / x.rows() as f32;
            let got = analytic.get(r, c);
            assert!(
                (numeric - got).abs() < 1e-2 * (1.0 + numeric.abs()),
                "({r},{c}): numeric {numeric} vs {got}"
            );
        }
    }

    #[test]
    fn linear_kfac_stats_shapes() {
        let mut rng = Rng::new(4);
        let mut lin = Linear::new(6, 2, &mut rng);
        let x = Matrix::random_normal(5, 6, &mut rng);
        let y = lin.forward(&x, true);
        let _ = lin.backward(&y);
        let stats = lin.kfac_stats().unwrap();
        assert_eq!((stats.a.rows(), stats.a.cols()), (5, 7)); // bias-augmented
        assert_eq!((stats.g.rows(), stats.g.cols()), (5, 2));
        // Bias coordinate is exactly 1.
        for r in 0..5 {
            assert_eq!(stats.a.get(r, 6), 1.0);
        }
    }

    #[test]
    fn kfac_stats_absent_in_eval_mode() {
        let mut rng = Rng::new(5);
        let mut lin = Linear::new(3, 3, &mut rng);
        let x = Matrix::random_normal(2, 3, &mut rng);
        let _ = lin.forward(&x, false);
        assert!(lin.kfac_stats().is_none());
    }

    #[test]
    fn relu_gradient_masks() {
        let mut relu = Relu::new();
        let x = Matrix::from_vec(1, 4, vec![-1.0, 2.0, -3.0, 4.0]);
        let y = relu.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let g = Matrix::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        let dx = relu.backward(&g);
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    /// The branchy ReLU the selects replaced, kept as the oracle:
    /// `(y, mask, dx)` for input `x` and upstream gradient `g`.
    fn relu_oracle(x: &Matrix, g: &Matrix) -> (Matrix, Vec<bool>, Matrix) {
        let mut y = x.clone();
        let mut mask = Vec::with_capacity(x.len());
        for v in y.as_mut_slice() {
            let active = *v > 0.0;
            mask.push(active);
            if !active {
                *v = 0.0;
            }
        }
        let mut dx = g.clone();
        for (v, &m) in dx.as_mut_slice().iter_mut().zip(&mask) {
            if !m {
                *v = 0.0;
            }
        }
        (y, mask, dx)
    }

    #[test]
    fn relu_selects_match_the_branches_on_every_special_value() {
        let sub = f32::from_bits(1);
        let specials = [
            -0.0,
            0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            sub,
            -sub,
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE,
            f32::MIN_POSITIVE,
            1.0,
            -1.0,
            f32::MAX,
            f32::MIN,
        ];
        // Every input against every upstream gradient.
        let n = specials.len();
        let x = Matrix::from_fn(n, n, |r, _| specials[r]);
        let g = Matrix::from_fn(n, n, |_, c| specials[c]);
        let (want_y, want_mask, want_dx) = relu_oracle(&x, &g);
        let mut relu = Relu::new();
        let y = relu.forward(&x, true);
        let dx = relu.backward(&g);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&want_y));
        assert_eq!(relu.mask.as_ref(), Some(&want_mask));
        assert_eq!(bits(&dx), bits(&want_dx));
        // Eval mode computes the same `y` and leaves the mask alone.
        assert_eq!(bits(&relu.forward(&g, false)), bits(&relu_oracle(&g, &g).0));
        assert_eq!(relu.mask.as_ref(), Some(&want_mask));
    }

    #[test]
    fn tanh_gradient_is_correct() {
        let mut rng = Rng::new(6);
        let mut t = Tanh::new();
        let x = Matrix::random_normal(2, 5, &mut rng);
        let probe = Matrix::random_normal(2, 5, &mut rng);
        check_input_gradient(&mut t, &x, &probe, 1e-2);
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut ln = LayerNorm::new(8);
        let mut rng = Rng::new(7);
        let x = Matrix::random_uniform(3, 8, 5.0, 9.0, &mut rng);
        let y = ln.forward(&x, false);
        for r in 0..3 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 8.0;
            let var: f32 = y
                .row(r)
                .iter()
                .map(|&v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 8.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn layernorm_input_gradient_is_correct() {
        let mut rng = Rng::new(8);
        let mut ln = LayerNorm::new(6);
        let x = Matrix::random_normal(2, 6, &mut rng);
        let probe = Matrix::random_normal(2, 6, &mut rng);
        check_input_gradient(&mut ln, &x, &probe, 2e-2);
    }

    #[test]
    fn set_grads_replaces() {
        let mut rng = Rng::new(9);
        let mut lin = Linear::new(2, 2, &mut rng);
        let g = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        lin.set_grads(g.clone());
        assert_eq!(lin.grads().unwrap(), &g);
    }

    #[test]
    #[should_panic(expected = "gradient shape")]
    fn set_grads_wrong_shape_panics() {
        let mut rng = Rng::new(10);
        let mut lin = Linear::new(2, 2, &mut rng);
        lin.set_grads(Matrix::zeros(1, 1));
    }
}
