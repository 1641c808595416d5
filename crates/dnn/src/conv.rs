//! im2col convolution and pooling.
//!
//! Feature maps travel between layers as row-major matrices with one row
//! per sample and HWC-flattened columns (channel fastest). Conv2d lowers
//! each sample to a patch matrix (im2col) and multiplies by a
//! bias-augmented kernel matrix, which makes its K-FAC statistics the
//! standard convolution convention: one `(a, g)` row per (sample × output
//! position). That product's `(batch·positions) × out_c` rows are the
//! batch's HWC output as they lie, so the product is the output and `dY`
//! is `g`. The lowering and its adjoint (col2im) walk one index map the
//! layer builds from its shape, so neither redoes any bounds arithmetic
//! per element.

use crate::layer::Layer;
use compso_tensor::{Matrix, Rng};

/// The index map's entry for a patch column that reads the zero padding:
/// past every input, so `get` finds nothing there.
const PAD: u32 = u32::MAX;

/// Spatial geometry of a conv layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ConvShape {
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
    pub(crate) fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub(crate) fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Flattened input width.
    pub(crate) fn in_elems(&self) -> usize {
        self.in_c * self.in_h * self.in_w
    }

    /// Flattened output width.
    pub(crate) fn out_elems(&self) -> usize {
        self.out_c * self.out_h() * self.out_w()
    }

    /// Patch width (without bias).
    pub(crate) fn patch(&self) -> usize {
        self.in_c * self.kernel * self.kernel
    }
}

/// A 2-D convolution layer.
pub(crate) struct Conv2d {
    shape: ConvShape,
    /// `(patch+1) × out_c`, bias in the last row.
    weight: Matrix,
    grad: Matrix,
    cached_a: Option<Matrix>,
    cached_g: Option<Matrix>,
    /// `out_h*out_w` rows of `patch` entries: the HWC input element each
    /// patch column of each output position reads, or [`PAD`].
    map: Vec<u32>,
}

impl Conv2d {
    /// He-initialized convolution. Panics on a stride of 0, a kernel wider
    /// than the padded input, or `u32::MAX` input elements or more.
    pub fn new(s: ConvShape, rng: &mut Rng) -> Self {
        assert!(s.stride >= 1, "ConvShape stride must be at least 1");
        assert!(
            s.kernel <= s.in_h + 2 * s.pad,
            "ConvShape kernel exceeds in_h + 2*pad"
        );
        assert!(
            s.kernel <= s.in_w + 2 * s.pad,
            "ConvShape kernel exceeds in_w + 2*pad"
        );
        assert!(
            s.in_elems() < PAD as usize,
            "ConvShape in_elems must stay below the index map's padding sentinel"
        );
        let mut map = Vec::with_capacity(s.out_h() * s.out_w() * s.patch());
        let tap = |o: usize, k: usize, len: usize| {
            (o * s.stride + k).checked_sub(s.pad).filter(|&i| i < len)
        };
        for oy in 0..s.out_h() {
            for ox in 0..s.out_w() {
                for c in 0..s.in_c {
                    for ky in 0..s.kernel {
                        for kx in 0..s.kernel {
                            map.push(match (tap(oy, ky, s.in_h), tap(ox, kx, s.in_w)) {
                                (Some(iy), Some(ix)) => ((iy * s.in_w + ix) * s.in_c + c) as u32,
                                _ => PAD,
                            });
                        }
                    }
                }
            }
        }
        let fan_in = s.patch();
        let std = (2.0 / fan_in as f32).sqrt();
        let mut weight = Matrix::random_normal(fan_in + 1, s.out_c, rng);
        weight.scale(std);
        for c in 0..s.out_c {
            weight.set(fan_in, c, 0.0);
        }
        Conv2d {
            shape: s,
            weight,
            grad: Matrix::zeros(fan_in + 1, s.out_c),
            cached_a: None,
            cached_g: None,
            map,
        }
    }

    /// Lowers one sample (HWC slice) into its rows of the bias-augmented
    /// batch patch matrix (`out_h*out_w` zeroed rows of `patch+1` columns):
    /// a gather through the index map, padding left at `+0.0`.
    fn im2col(&self, sample: &[f32], patches: &mut [f32]) {
        let pw = self.shape.patch();
        for (row, taps) in patches
            .chunks_exact_mut(pw + 1)
            .zip(self.map.chunks_exact(pw))
        {
            for (dst, &i) in row.iter_mut().zip(taps) {
                *dst = sample.get(i as usize).copied().unwrap_or(0.0);
            }
            row[pw] = 1.0;
        }
    }

    /// Scatter-adds one sample's patch-gradient rows (`out_h*out_w` rows of
    /// `patch` columns) into its `+0.0`-started input-gradient HWC slice
    /// (col2im): positions, then columns, in order, so every element sums
    /// its contributions in one fixed sequence.
    fn col2im(&self, dpatch: &[f32], dx: &mut [f32]) {
        for (&i, &v) in self.map.iter().zip(dpatch) {
            if let Some(d) = dx.get_mut(i as usize) {
                *d += v;
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
        // (batch*positions) × out_c rows: each sample's output, HWC.
        let y = patches.matmul(&self.weight);
        if train {
            self.cached_a = Some(patches);
        }
        Matrix::from_vec(x.rows(), s.out_elems(), y.into_vec())
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

        // dY's HWC rows already are (batch*positions) × out_c.
        let g = Matrix::from_vec(batch * positions, s.out_c, grad_out.as_slice().to_vec());

        // dW = aᵀ g / batch (gradient of the *mean* loss over samples;
        // spatial positions sum, samples average — the usual convention).
        let mut grad = a.t_matmul(&g);
        grad.scale(1.0 / batch as f32);
        self.grad = grad;

        // dX: dpatch = g Wᵀ over W's patch rows (the bias row has no
        // input) for the whole batch, col2im per sample.
        let dpatch = g.matmul_t_first(&self.weight, s.patch()); // (batch*positions) × patch
        let mut dx = Matrix::zeros(batch, s.in_elems());
        for (b, rows) in dpatch.as_slice().chunks(positions * s.patch()).enumerate() {
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

    fn kfac_stats_ref(&self) -> Option<(&Matrix, &Matrix)> {
        Some((self.cached_a.as_ref()?, self.cached_g.as_ref()?))
    }
}

/// Global average pooling: `(batch, H*W*C) → (batch, C)`.
pub(crate) struct GlobalAvgPool {
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
                // Channel `c` at stride `channels`, positions in order.
                let s: f32 = row[c..].iter().step_by(self.channels).sum();
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
            let g = grad_out.row(b);
            for px in dx.row_mut(b).chunks_exact_mut(self.channels) {
                for (d, &gc) in px.iter_mut().zip(g) {
                    *d = gc * inv;
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
    use proptest::prelude::*;

    /// The direct im2col loop the index map replaced, kept as the oracle
    /// and reading the HWC sample: `patches` is `out_h*out_w` zeroed rows
    /// of `patch+1` columns in `c, ky, kx` order.
    fn im2col_oracle(s: &ConvShape, sample: &[f32], patches: &mut [f32]) {
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
                                out_row[col] =
                                    sample[(iy as usize * s.in_w + ix as usize) * s.in_c + c];
                            }
                            col += 1;
                        }
                    }
                }
                out_row[pw] = 1.0;
            }
        }
    }

    /// The direct col2im loop, kept as the oracle, writing the HWC
    /// sample: `dpatch` rows are `patch+1` wide, the bias column ignored.
    fn col2im_oracle(s: &ConvShape, dpatch: &[f32], dx: &mut [f32]) {
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
                                dx[(iy as usize * s.in_w + ix as usize) * s.in_c + c] += row[col];
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A normal draw, or `-0.0` one time in three.
    fn signed_zeros(n: usize, rng: &mut Rng) -> Vec<f32> {
        (0..n)
            .map(|_| match rng.below(3) {
                0 => -0.0,
                _ => rng.normal_f32(),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_index_map_matches_the_direct_loops(
            (in_c, h, w) in (1usize..5, 1usize..10, 1usize..10),
            (k, stride, pad) in (0usize..3, 1usize..4, 0usize..3),
            (batch, seed) in (1usize..4, any::<u64>()),
        ) {
            // Kernel 1/3/5; an input too small for it grows just enough.
            let kernel = [1usize, 3, 5][k];
            let fit = kernel.saturating_sub(2 * pad);
            let s = ConvShape { in_c, in_h: h.max(fit), in_w: w.max(fit), out_c: 3, kernel, stride, pad };
            let (positions, pw) = (s.out_h() * s.out_w(), s.patch());
            let mut rng = Rng::new(seed);
            let mut conv = Conv2d::new(s, &mut rng);
            let x = Matrix::from_vec(batch, s.in_elems(), signed_zeros(batch * s.in_elems(), &mut rng));

            // Lowering: the cached patch matrix, bias column and padding included.
            let _ = conv.forward(&x, true);
            let mut want = Matrix::zeros(batch * positions, pw + 1);
            for (b, rows) in want.as_mut_slice().chunks_mut(positions * (pw + 1)).enumerate() {
                im2col_oracle(&s, x.row(b), rows);
            }
            prop_assert_eq!(bits(conv.cached_a.as_ref().unwrap().as_slice()), bits(want.as_slice()));

            // Adjoint: `-0.0` contributions land on a `+0.0` start, so an
            // element that receives only those must read `+0.0`.
            let dpatch = signed_zeros(positions * pw, &mut rng);
            let mut wide = vec![f32::NAN; positions * (pw + 1)];
            for (row, src) in wide.chunks_exact_mut(pw + 1).zip(dpatch.chunks_exact(pw)) {
                row[..pw].copy_from_slice(src);
            }
            let (mut got, mut want) = (vec![0.0; s.in_elems()], vec![0.0; s.in_elems()]);
            conv.col2im(&dpatch, &mut got);
            col2im_oracle(&s, &wide, &mut want);
            prop_assert_eq!(bits(&got), bits(&want));

            // Backward end to end: the patch-wide `g Wᵀ` through the map
            // against the full product (bias column skipped) through the loop.
            let probe = Matrix::from_vec(batch, s.out_elems(), signed_zeros(batch * s.out_elems(), &mut rng));
            let dx = conv.backward(&probe);
            let full = conv.cached_g.as_ref().unwrap().matmul_t(&conv.weight);
            let mut want = Matrix::zeros(batch, s.in_elems());
            for (b, rows) in full.as_slice().chunks(positions * (pw + 1)).enumerate() {
                col2im_oracle(&s, rows, want.row_mut(b));
            }
            prop_assert_eq!(bits(dx.as_slice()), bits(want.as_slice()));
        }
    }

    #[test]
    fn index_map_is_positions_by_patch() {
        // The three convs of `small_cnn(1, 12, 12, _, 16)`: 5, 20 and 41 KB.
        let c1 = ConvShape {
            in_c: 1,
            in_h: 12,
            in_w: 12,
            out_c: 16,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let c2 = ConvShape {
            in_c: 16,
            out_c: 32,
            stride: 2,
            ..c1
        };
        let c3 = ConvShape {
            in_c: 32,
            in_h: 6,
            in_w: 6,
            stride: 1,
            ..c2
        };
        let mut rng = Rng::new(6);
        let bytes: Vec<usize> = [c1, c2, c3]
            .map(|s| Conv2d::new(s, &mut rng).map.len() * 4)
            .to_vec();
        assert_eq!(bytes, [5184, 20736, 41472]);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_is_refused() {
        let _ = Conv2d::new(
            ConvShape {
                stride: 0,
                ..small_shape()
            },
            &mut Rng::new(7),
        );
    }

    #[test]
    #[should_panic(expected = "in_h")]
    fn kernel_taller_than_the_padded_input_is_refused() {
        let _ = Conv2d::new(
            ConvShape {
                in_h: 2,
                kernel: 5,
                pad: 1,
                ..small_shape()
            },
            &mut Rng::new(8),
        );
    }

    #[test]
    #[should_panic(expected = "in_w")]
    fn kernel_wider_than_the_padded_input_is_refused() {
        let _ = Conv2d::new(
            ConvShape {
                in_w: 2,
                kernel: 5,
                pad: 1,
                ..small_shape()
            },
            &mut Rng::new(9),
        );
    }

    #[test]
    #[should_panic(expected = "in_elems")]
    fn input_past_the_padding_sentinel_is_refused() {
        // 2¹⁶ · 2¹⁶ · 1 = 2³² elements; a 1×1 kernel keeps the weights small.
        let _ = Conv2d::new(
            ConvShape {
                in_c: 1 << 16,
                in_h: 1 << 16,
                in_w: 1,
                out_c: 1,
                kernel: 1,
                stride: 1,
                pad: 0,
            },
            &mut Rng::new(10),
        );
    }

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
    fn conv_output_is_the_product_and_dy_is_g() {
        // The layer's HWC rows are the GEMM's rows as they lie: no relayout
        // either way, bit for bit.
        let s = small_shape();
        let mut rng = Rng::new(11);
        let mut conv = Conv2d::new(s, &mut rng);
        let x = Matrix::random_normal(2, s.in_elems(), &mut rng);
        let y = conv.forward(&x, true);
        let product = conv.cached_a.as_ref().unwrap().matmul(&conv.weight);
        assert_eq!(bits(y.as_slice()), bits(product.as_slice()));
        let dy = Matrix::random_normal(2, s.out_elems(), &mut rng);
        let _ = conv.backward(&dy);
        let g = conv.cached_g.as_ref().unwrap();
        assert_eq!((g.rows(), g.cols()), (2 * 25, s.out_c));
        assert_eq!(bits(g.as_slice()), bits(dy.as_slice()));
    }

    #[test]
    fn avgpool_forward_and_backward() {
        // Two channels over four positions, HWC: channel 0 reads 1..4.
        let mut pool = GlobalAvgPool::new(2, 2, 2);
        let x = Matrix::from_vec(1, 8, vec![1.0, 10.0, 2.0, 10.0, 3.0, 10.0, 4.0, 10.0]);
        let y = pool.forward(&x, true);
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
        let g = Matrix::from_vec(1, 2, vec![4.0, 8.0]);
        let dx = pool.backward(&g);
        assert_eq!(dx.as_slice(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }
}
