//! im2col convolution and pooling.
//!
//! Feature maps travel between layers as row-major matrices with one row
//! per sample and CHW-flattened columns. Conv2d lowers each sample to a
//! patch matrix (im2col) and multiplies by a bias-augmented kernel
//! matrix, which makes its K-FAC statistics the standard convolution
//! convention: one `(a, g)` row per (sample × output position).

use crate::layer::{KfacStats, Layer};
use compso_tensor::{Matrix, Rng};

/// Spatial geometry of a conv layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvShape {
    pub in_c: usize,
    pub in_h: usize,
    pub in_w: usize,
    pub out_c: usize,
    pub kernel: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvShape {
    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Flattened input width.
    pub fn in_elems(&self) -> usize {
        self.in_c * self.in_h * self.in_w
    }

    /// Flattened output width.
    pub fn out_elems(&self) -> usize {
        self.out_c * self.out_h() * self.out_w()
    }

    /// Patch width (without bias).
    pub fn patch(&self) -> usize {
        self.in_c * self.kernel * self.kernel
    }
}

/// A 2-D convolution layer.
pub struct Conv2d {
    shape: ConvShape,
    /// `(patch+1) × out_c`, bias in the last row.
    weight: Matrix,
    grad: Matrix,
    cached_a: Option<Matrix>,
    cached_g: Option<Matrix>,
}

impl Conv2d {
    /// He-initialized convolution.
    pub fn new(shape: ConvShape, rng: &mut Rng) -> Self {
        let fan_in = shape.patch();
        let std = (2.0 / fan_in as f32).sqrt();
        let mut weight = Matrix::random_normal(fan_in + 1, shape.out_c, rng);
        weight.scale(std);
        for c in 0..shape.out_c {
            weight.set(fan_in, c, 0.0);
        }
        Conv2d {
            shape,
            weight,
            grad: Matrix::zeros(fan_in + 1, shape.out_c),
            cached_a: None,
            cached_g: None,
        }
    }

    /// The layer's geometry.
    pub fn shape(&self) -> ConvShape {
        self.shape
    }

    /// Lowers one sample (CHW slice) into its rows of the bias-augmented
    /// batch patch matrix: `patches` is `out_h*out_w` zeroed rows of
    /// `patch+1` columns.
    fn im2col(&self, sample: &[f32], patches: &mut [f32]) {
        let s = &self.shape;
        let (oh, ow) = (s.out_h(), s.out_w());
        let pw = s.patch();
        for oy in 0..oh {
            for ox in 0..ow {
                let row = oy * ow + ox;
                let out_row = &mut patches[row * (pw + 1)..(row + 1) * (pw + 1)];
                let mut col = 0usize;
                for c in 0..s.in_c {
                    for ky in 0..s.kernel {
                        for kx in 0..s.kernel {
                            let iy = (oy * s.stride + ky) as isize - s.pad as isize;
                            let ix = (ox * s.stride + kx) as isize - s.pad as isize;
                            if iy >= 0
                                && (iy as usize) < s.in_h
                                && ix >= 0
                                && (ix as usize) < s.in_w
                            {
                                out_row[col] = sample
                                    [c * s.in_h * s.in_w + iy as usize * s.in_w + ix as usize];
                            }
                            col += 1;
                        }
                    }
                }
                out_row[pw] = 1.0;
            }
        }
    }

    /// Scatter-adds one sample's patch-gradient rows (`out_h*out_w` rows of
    /// `patch+1` columns, the bias column ignored) back into an
    /// input-gradient CHW slice (col2im).
    fn col2im(&self, dpatch: &[f32], dx: &mut [f32]) {
        let s = &self.shape;
        let (oh, ow) = (s.out_h(), s.out_w());
        let pw = s.patch();
        for oy in 0..oh {
            for ox in 0..ow {
                let row = &dpatch[(oy * ow + ox) * (pw + 1)..][..pw];
                let mut col = 0usize;
                for c in 0..s.in_c {
                    for ky in 0..s.kernel {
                        for kx in 0..s.kernel {
                            let iy = (oy * s.stride + ky) as isize - s.pad as isize;
                            let ix = (ox * s.stride + kx) as isize - s.pad as isize;
                            if iy >= 0
                                && (iy as usize) < s.in_h
                                && ix >= 0
                                && (ix as usize) < s.in_w
                            {
                                dx[c * s.in_h * s.in_w + iy as usize * s.in_w + ix as usize] +=
                                    row[col];
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let s = self.shape;
        assert_eq!(x.cols(), s.in_elems(), "Conv2d input width");
        let positions = s.out_h() * s.out_w();
        let per_sample = positions * (s.patch() + 1);
        let mut patches = Matrix::zeros(x.rows() * positions, s.patch() + 1);
        for (b, rows) in patches.as_mut_slice().chunks_mut(per_sample).enumerate() {
            self.im2col(x.row(b), rows);
        }
        let o = patches.matmul(&self.weight); // (batch*positions) × out_c
        let mut y = Matrix::zeros(x.rows(), s.out_elems());
        for b in 0..x.rows() {
            let yrow = y.row_mut(b);
            for pos in 0..positions {
                for (oc, &v) in o.row(b * positions + pos).iter().enumerate() {
                    yrow[oc * positions + pos] = v;
                }
            }
        }
        if train {
            self.cached_a = Some(patches);
        }
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let s = self.shape;
        let a = self
            .cached_a
            .as_ref()
            .expect("backward without a training forward");
        let positions = s.out_h() * s.out_w();
        let batch = grad_out.rows();
        assert_eq!(grad_out.cols(), s.out_elems(), "Conv2d grad width");
        assert_eq!(a.rows(), batch * positions, "cached patch rows");

        // Re-layout dY to (batch*positions) × out_c.
        let mut g = Matrix::zeros(batch * positions, s.out_c);
        for b in 0..batch {
            let grow = grad_out.row(b);
            for pos in 0..positions {
                for oc in 0..s.out_c {
                    g.set(b * positions + pos, oc, grow[oc * positions + pos]);
                }
            }
        }

        // dW = aᵀ g / batch (gradient of the *mean* loss over samples;
        // spatial positions sum, samples average — the usual convention).
        let mut grad = a.t_matmul(&g);
        grad.scale(1.0 / batch as f32);
        self.grad = grad;

        // dX: dpatch = g Wᵀ over the whole batch, col2im per sample.
        let dpatch = g.matmul_t(&self.weight); // (batch*positions) × (patch+1)
        let per_sample = positions * (s.patch() + 1);
        let mut dx = Matrix::zeros(batch, s.in_elems());
        for (b, rows) in dpatch.as_slice().chunks(per_sample).enumerate() {
            self.col2im(rows, dx.row_mut(b));
        }
        self.cached_g = Some(g);
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

    fn kfac_stats(&self) -> Option<KfacStats> {
        match (&self.cached_a, &self.cached_g) {
            (Some(a), Some(g)) => Some(KfacStats {
                a: a.clone(),
                g: g.clone(),
            }),
            _ => None,
        }
    }
}

/// Global average pooling: `(batch, C*H*W) → (batch, C)`.
pub struct GlobalAvgPool {
    channels: usize,
    hw: usize,
}

impl GlobalAvgPool {
    /// Pool over `h*w` positions per channel.
    pub fn new(channels: usize, h: usize, w: usize) -> Self {
        GlobalAvgPool {
            channels,
            hw: h * w,
        }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }

    fn forward(&mut self, x: &Matrix, _train: bool) -> Matrix {
        assert_eq!(x.cols(), self.channels * self.hw, "pool input width");
        let mut y = Matrix::zeros(x.rows(), self.channels);
        for b in 0..x.rows() {
            let row = x.row(b);
            for c in 0..self.channels {
                let s: f32 = row[c * self.hw..(c + 1) * self.hw].iter().sum();
                y.set(b, c, s / self.hw as f32);
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        assert_eq!(grad_out.cols(), self.channels, "pool grad width");
        let mut dx = Matrix::zeros(grad_out.rows(), self.channels * self.hw);
        let inv = 1.0 / self.hw as f32;
        for b in 0..grad_out.rows() {
            for c in 0..self.channels {
                let g = grad_out.get(b, c) * inv;
                for p in 0..self.hw {
                    dx.set(b, c * self.hw + p, g);
                }
            }
        }
        dx
    }

    fn set_grads(&mut self, _grads: Matrix) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_shape() -> ConvShape {
        ConvShape {
            in_c: 2,
            in_h: 5,
            in_w: 5,
            out_c: 3,
            kernel: 3,
            stride: 1,
            pad: 1,
        }
    }

    #[test]
    fn shape_arithmetic() {
        let s = small_shape();
        assert_eq!(s.out_h(), 5);
        assert_eq!(s.out_w(), 5);
        assert_eq!(s.in_elems(), 50);
        assert_eq!(s.out_elems(), 75);
        assert_eq!(s.patch(), 18);
        let strided = ConvShape {
            stride: 2,
            ..small_shape()
        };
        assert_eq!(strided.out_h(), 3);
    }

    #[test]
    fn forward_shape() {
        let mut rng = Rng::new(1);
        let mut conv = Conv2d::new(small_shape(), &mut rng);
        let x = Matrix::random_normal(2, 50, &mut rng);
        let y = conv.forward(&x, false);
        assert_eq!((y.rows(), y.cols()), (2, 75));
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        // 1x1 kernel, one in/out channel, weight 1, bias 0 = identity.
        let s = ConvShape {
            in_c: 1,
            in_h: 4,
            in_w: 4,
            out_c: 1,
            kernel: 1,
            stride: 1,
            pad: 0,
        };
        let mut rng = Rng::new(2);
        let mut conv = Conv2d::new(s, &mut rng);
        conv.params_mut().unwrap().set(0, 0, 1.0);
        conv.params_mut().unwrap().set(1, 0, 0.0);
        let x = Matrix::random_normal(1, 16, &mut rng);
        let y = conv.forward(&x, false);
        assert!(y.max_diff(&x) < 1e-6);
    }

    #[test]
    fn input_gradient_matches_numeric() {
        let s = ConvShape {
            in_c: 1,
            in_h: 4,
            in_w: 4,
            out_c: 2,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let mut rng = Rng::new(3);
        let mut conv = Conv2d::new(s, &mut rng);
        let x = Matrix::random_normal(1, 16, &mut rng);
        let probe = Matrix::random_normal(1, 32, &mut rng);
        let _ = conv.forward(&x, true);
        let dx = conv.backward(&probe);
        let eps = 1e-3f32;
        for idx in [0usize, 7, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let yp = conv.forward(&xp, false);
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let ym = conv.forward(&xm, false);
            let dot = |m: &Matrix| -> f32 {
                m.as_slice()
                    .iter()
                    .zip(probe.as_slice())
                    .map(|(&a, &b)| a * b)
                    .sum()
            };
            let numeric = (dot(&yp) - dot(&ym)) / (2.0 * eps);
            let analytic = dx.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2 * (1.0 + numeric.abs()),
                "idx {idx}: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn param_gradient_matches_numeric() {
        let s = ConvShape {
            in_c: 1,
            in_h: 3,
            in_w: 3,
            out_c: 1,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let mut rng = Rng::new(4);
        let mut conv = Conv2d::new(s, &mut rng);
        let x = Matrix::random_normal(2, 9, &mut rng);
        let probe = Matrix::random_normal(2, 9, &mut rng);
        let _ = conv.forward(&x, true);
        let _ = conv.backward(&probe);
        let analytic = conv.grads().unwrap().clone();
        let eps = 1e-3f32;
        for (r, c) in [(0usize, 0usize), (4, 0), (9, 0)] {
            // (9, 0) is the bias row.
            let orig = conv.params().unwrap().get(r, c);
            conv.params_mut().unwrap().set(r, c, orig + eps);
            let yp = conv.forward(&x, false);
            conv.params_mut().unwrap().set(r, c, orig - eps);
            let ym = conv.forward(&x, false);
            conv.params_mut().unwrap().set(r, c, orig);
            let dot = |m: &Matrix| -> f32 {
                m.as_slice()
                    .iter()
                    .zip(probe.as_slice())
                    .map(|(&a, &b)| a * b)
                    .sum()
            };
            let numeric = (dot(&yp) - dot(&ym)) / (2.0 * eps) / x.rows() as f32;
            let got = analytic.get(r, c);
            assert!(
                (numeric - got).abs() < 1e-2 * (1.0 + numeric.abs()),
                "({r},{c}): {numeric} vs {got}"
            );
        }
    }

    #[test]
    fn kfac_stats_have_position_rows() {
        let s = small_shape();
        let mut rng = Rng::new(5);
        let mut conv = Conv2d::new(s, &mut rng);
        let x = Matrix::random_normal(3, 50, &mut rng);
        let y = conv.forward(&x, true);
        let _ = conv.backward(&y);
        let stats = conv.kfac_stats().unwrap();
        // 3 samples × 25 positions.
        assert_eq!(stats.a.rows(), 75);
        assert_eq!(stats.a.cols(), s.patch() + 1);
        assert_eq!(stats.g.rows(), 75);
        assert_eq!(stats.g.cols(), s.out_c);
    }

    #[test]
    fn avgpool_forward_and_backward() {
        let mut pool = GlobalAvgPool::new(2, 2, 2);
        let x = Matrix::from_vec(1, 8, vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0]);
        let y = pool.forward(&x, true);
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
        let g = Matrix::from_vec(1, 2, vec![4.0, 8.0]);
        let dx = pool.backward(&g);
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }
}
