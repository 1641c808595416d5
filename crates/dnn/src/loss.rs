//! Loss functions with analytic gradients.

use compso_tensor::Matrix;

/// Softmax cross-entropy over logits with integer class labels.
///
/// Returns `(mean loss, per-sample dL_b/dlogits_b)`. The gradient rows
/// are **per-sample** (no 1/batch): the layers' backward passes apply the
/// single batch average, which keeps parameter gradients equal to
/// d(mean loss)/dW, makes K-FAC's `g` statistics batch-size invariant,
/// and makes an all-reduce of shard gradients exactly reproduce the
/// global-batch gradient — the convention K-FAC implementations assume.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), labels.len(), "batch/label mismatch");
    let classes = logits.cols();
    let batch = logits.rows();
    let mut grad = Matrix::zeros(batch, classes);
    let mut loss = 0.0f64;
    for (b, &label) in labels.iter().enumerate().take(batch) {
        let row = logits.row(b);
        assert!(label < classes, "label {label} out of {classes}");
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let exps: Vec<f64> = row.iter().map(|&v| ((v - max) as f64).exp()).collect();
        let sum: f64 = exps.iter().sum();
        loss += -(exps[label] / sum).ln();
        let grow = grad.row_mut(b);
        for c in 0..classes {
            let p = (exps[c] / sum) as f32;
            grow[c] = p - f32::from(c == label);
        }
    }
    ((loss / batch as f64) as f32, grad)
}

/// Classification accuracy of logits against labels.
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> f64 {
    assert_eq!(logits.rows(), labels.len());
    if labels.is_empty() {
        return 0.0;
    }
    let correct = (0..logits.rows())
        .filter(|&b| {
            let row = logits.row(b);
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            argmax == labels[b]
        })
        .count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use compso_tensor::Rng;

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let mut logits = Matrix::zeros(2, 3);
        logits.set(0, 1, 20.0);
        logits.set(1, 2, 20.0);
        let (loss, _) = softmax_cross_entropy(&logits, &[1, 2]);
        assert!(loss < 1e-3, "loss {loss}");
    }

    #[test]
    fn cross_entropy_of_uniform_is_log_classes() {
        let logits = Matrix::zeros(4, 10);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 3, 7, 9]);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_matches_numeric() {
        let mut rng = Rng::new(1);
        let logits = Matrix::random_normal(3, 4, &mut rng);
        let labels = [2usize, 0, 3];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for idx in [0usize, 5, 11] {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let (fp, _) = softmax_cross_entropy(&lp, &labels);
            let (fm, _) = softmax_cross_entropy(&lm, &labels);
            // Gradient rows are per-sample; the mean loss divides by batch.
            let numeric = (fp - fm) / (2.0 * eps) * labels.len() as f32;
            assert!(
                (numeric - grad.as_slice()[idx]).abs() < 2e-3,
                "idx {idx}: {numeric} vs {}",
                grad.as_slice()[idx]
            );
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let mut rng = Rng::new(2);
        let logits = Matrix::random_normal(5, 7, &mut rng);
        let labels = [0usize, 1, 2, 3, 4];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        for b in 0..5 {
            let s: f32 = grad.row(b).iter().sum();
            assert!(s.abs() < 1e-6, "row {b} sums to {s}");
        }
    }

    #[test]
    fn accuracy_counts() {
        let mut logits = Matrix::zeros(3, 2);
        logits.set(0, 0, 1.0); // predicts 0
        logits.set(1, 1, 1.0); // predicts 1
        logits.set(2, 0, 1.0); // predicts 0
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn numerical_stability_with_huge_logits() {
        let mut logits = Matrix::zeros(1, 3);
        logits.set(0, 0, 1e4);
        logits.set(0, 1, -1e4);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss.is_finite());
        assert!(grad.as_slice().iter().all(|v| v.is_finite()));
    }
}
