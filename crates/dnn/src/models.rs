//! Trainable proxy model builders.
//!
//! Small networks exercising the same layer types and the same
//! optimizer/compressor code paths as the paper's models (DESIGN.md §1):
//! an MLP classifier (ResNet-50 proxy at classification-head scale), a
//! CNN (Mask R-CNN backbone proxy), and an MLP language model over
//! one-hot context windows (BERT/GPT proxy).

use crate::conv::{Conv2d, ConvShape, GlobalAvgPool};
use crate::layer::{LayerNorm, Linear, Relu, Tanh};
use crate::seq::Sequential;
use compso_tensor::Rng;

/// A ReLU MLP with the given layer widths (`sizes[0]` inputs,
/// `sizes.last()` outputs).
pub fn mlp(sizes: &[usize], rng: &mut Rng) -> Sequential {
    assert!(sizes.len() >= 2, "an MLP needs at least input/output sizes");
    let mut model = Sequential::new();
    for i in 0..sizes.len() - 1 {
        model = model.push(Linear::new(sizes[i], sizes[i + 1], rng));
        if i + 2 < sizes.len() {
            model = model.push(Relu::new());
        }
    }
    model
}

/// A small CNN: conv-relu ×3 (stride-2 downsampling in the middle),
/// global average pool, linear head.
pub fn small_cnn(
    in_c: usize,
    h: usize,
    w: usize,
    classes: usize,
    width: usize,
    rng: &mut Rng,
) -> Sequential {
    let c1 = ConvShape {
        in_c,
        in_h: h,
        in_w: w,
        out_c: width,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let c2 = ConvShape {
        in_c: width,
        in_h: h,
        in_w: w,
        out_c: width * 2,
        kernel: 3,
        stride: 2,
        pad: 1,
    };
    let (h2, w2) = (c2.out_h(), c2.out_w());
    let c3 = ConvShape {
        in_c: width * 2,
        in_h: h2,
        in_w: w2,
        out_c: width * 2,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    Sequential::new()
        .push(Conv2d::new(c1, rng))
        .push(Relu::new())
        .push(Conv2d::new(c2, rng))
        .push(Relu::new())
        .push(Conv2d::new(c3, rng))
        .push(Relu::new())
        .push(GlobalAvgPool::new(width * 2, h2, w2))
        .push(Linear::new(width * 2, classes, rng))
}

/// An MLP language model over one-hot context windows: embedding-like
/// projection, LayerNorm, two hidden blocks with tanh (transformers are
/// smooth, not piecewise-linear), vocab-sized head.
pub fn mlp_lm(vocab: usize, context: usize, hidden: usize, rng: &mut Rng) -> Sequential {
    Sequential::new()
        .push(Linear::new(vocab * context, hidden, rng))
        .push(LayerNorm::new(hidden))
        .push(Tanh::new())
        .push(Linear::new(hidden, hidden, rng))
        .push(Tanh::new())
        .push(Linear::new(hidden, vocab, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;
    use crate::loss::{accuracy, softmax_cross_entropy};
    use compso_tensor::Matrix;

    /// Plain SGD training helper shared by the smoke tests.
    fn train_sgd(
        model: &mut Sequential,
        d: &data::Dataset,
        lr: f32,
        batch: usize,
        steps: usize,
    ) -> f64 {
        for step in 0..steps {
            let (x, y) = d.batch(step, batch);
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &y);
            model.backward(&grad);
            model.update_params(|p, g| p.axpy(-lr, g));
        }
        let logits = model.forward(&d.x, false);
        accuracy(&logits, &d.y)
    }

    #[test]
    fn mlp_learns_blobs() {
        let mut rng = Rng::new(1);
        let d = data::gaussian_blobs(400, 8, 4, 0.2, 2);
        let mut model = mlp(&[8, 32, 4], &mut rng);
        let acc = train_sgd(&mut model, &d, 0.02, 32, 150);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn mlp_learns_spirals_with_depth() {
        let mut rng = Rng::new(3);
        let d = data::spirals(600, 2, 2, 0.02, 4);
        let mut model = mlp(&[2, 64, 64, 2], &mut rng);
        let acc = train_sgd(&mut model, &d, 0.04, 64, 2500);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn cnn_learns_noisy_images() {
        let mut rng = Rng::new(5);
        let d = data::noisy_images(200, 1, 8, 8, 4, 0.4, 6);
        let mut model = small_cnn(1, 8, 8, 4, 4, &mut rng);
        let acc = train_sgd(&mut model, &d, 0.015, 16, 300);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn lm_beats_chance_after_training() {
        let mut rng = Rng::new(7);
        let d = data::token_sequences(2000, 12, 3, 8);
        let mut model = mlp_lm(12, 3, 48, &mut rng);
        let acc = train_sgd(&mut model, &d, 0.008, 64, 400);
        assert!(acc > 0.25, "accuracy {acc} vs chance {:.3}", 1.0 / 12.0);
    }

    #[test]
    fn builders_produce_expected_layer_counts() {
        let mut rng = Rng::new(9);
        assert_eq!(mlp(&[4, 8, 2], &mut rng).len(), 3); // lin relu lin
        assert_eq!(small_cnn(1, 8, 8, 4, 4, &mut rng).len(), 8);
        assert_eq!(mlp_lm(10, 2, 16, &mut rng).len(), 6);
    }

    #[test]
    fn forward_shapes_match_datasets() {
        let mut rng = Rng::new(11);
        let d = data::noisy_images(4, 1, 8, 8, 4, 0.5, 12);
        let mut model = small_cnn(1, 8, 8, 4, 4, &mut rng);
        let logits = model.forward(&Matrix::from_vec(4, 64, d.x.as_slice().to_vec()), false);
        assert_eq!((logits.rows(), logits.cols()), (4, 4));
    }
}
