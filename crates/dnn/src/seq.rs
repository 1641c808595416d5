//! The sequential model container.

use crate::layer::{KfacStats, Layer};
use compso_tensor::Matrix;

/// A stack of layers executed in order.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty model.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Forward pass through all layers.
    pub fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h, train);
        }
        h
    }

    /// Backward pass; parameter gradients are stored in the layers.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Indices of layers that own parameters, in execution order.
    pub fn trainable_indices(&self) -> Vec<usize> {
        (0..self.layers.len())
            .filter(|&i| self.layers[i].params().is_some())
            .collect()
    }

    /// Indices of layers that expose K-FAC statistics after a training
    /// step (Linear/Conv2d).
    pub fn kfac_indices(&self) -> Vec<usize> {
        (0..self.layers.len())
            .filter(|&i| self.layers[i].kfac_stats_ref().is_some())
            .collect()
    }

    /// Immutable access to a layer.
    pub fn layer(&self, idx: usize) -> &dyn Layer {
        self.layers[idx].as_ref()
    }

    /// Mutable access to a layer.
    pub fn layer_mut(&mut self, idx: usize) -> &mut dyn Layer {
        self.layers[idx].as_mut()
    }

    /// K-FAC statistics of layer `idx`, if available.
    pub fn kfac_stats(&self, idx: usize) -> Option<KfacStats> {
        self.layers[idx].kfac_stats()
    }

    /// Applies `delta = -lr * grad`-style updates: `f` receives each
    /// trainable layer's parameters and gradients.
    pub fn update_params(&mut self, mut f: impl FnMut(&mut Matrix, &Matrix)) {
        for layer in &mut self.layers {
            if layer.params().is_some() {
                let grads = layer
                    .grads()
                    .expect("trainable layer without grads")
                    .clone();
                let params = layer.params_mut().unwrap();
                f(params, &grads);
            }
        }
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Linear, Relu};
    use compso_tensor::Rng;

    fn two_layer(rng: &mut Rng) -> Sequential {
        Sequential::new()
            .push(Linear::new(4, 8, rng))
            .push(Relu::new())
            .push(Linear::new(8, 3, rng))
    }

    #[test]
    fn forward_shapes() {
        let mut rng = Rng::new(1);
        let mut model = two_layer(&mut rng);
        let x = Matrix::random_normal(5, 4, &mut rng);
        let y = model.forward(&x, false);
        assert_eq!((y.rows(), y.cols()), (5, 3));
    }

    #[test]
    fn trainable_and_kfac_indices() {
        let mut rng = Rng::new(2);
        let mut model = two_layer(&mut rng);
        assert_eq!(model.trainable_indices(), vec![0, 2]);
        // K-FAC stats exist only after a training step.
        assert!(model.kfac_indices().is_empty());
        let x = Matrix::random_normal(2, 4, &mut rng);
        let y = model.forward(&x, true);
        model.backward(&y);
        assert_eq!(model.kfac_indices(), vec![0, 2]);
    }

    #[test]
    fn end_to_end_gradient_is_correct() {
        let mut rng = Rng::new(3);
        let mut model = two_layer(&mut rng);
        let x = Matrix::random_normal(3, 4, &mut rng);
        let probe = Matrix::random_normal(3, 3, &mut rng);
        let _ = model.forward(&x, true);
        let dx = model.backward(&probe);
        let eps = 1e-3f32;
        for idx in [0usize, 5, 11] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let yp = model.forward(&xp, false);
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let ym = model.forward(&xm, false);
            let dot = |m: &Matrix| -> f32 {
                m.as_slice()
                    .iter()
                    .zip(probe.as_slice())
                    .map(|(&a, &b)| a * b)
                    .sum()
            };
            let numeric = (dot(&yp) - dot(&ym)) / (2.0 * eps);
            assert!(
                (numeric - dx.as_slice()[idx]).abs() < 2e-2 * (1.0 + numeric.abs()),
                "idx {idx}"
            );
        }
    }

    #[test]
    fn sgd_update_reduces_probe_loss() {
        let mut rng = Rng::new(5);
        let mut model = two_layer(&mut rng);
        let x = Matrix::random_normal(8, 4, &mut rng);
        let target = Matrix::random_normal(8, 3, &mut rng);
        let loss = |m: &mut Sequential, x: &Matrix, t: &Matrix| -> f32 {
            let y = m.forward(x, false);
            y.as_slice()
                .iter()
                .zip(t.as_slice())
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f32>()
                / (y.len() as f32)
        };
        let before = loss(&mut model, &x, &target);
        for _ in 0..50 {
            let y = model.forward(&x, true);
            let mut g = y.clone();
            g.axpy(-1.0, &target);
            g.scale(2.0 / y.len() as f32);
            model.backward(&g);
            model.update_params(|p, grad| p.axpy(-0.05, grad));
        }
        let after = loss(&mut model, &x, &target);
        assert!(after < before * 0.5, "before {before} after {after}");
    }
}
