//! Deterministic synthetic datasets.
//!
//! Stand-ins for the paper's ImageNet/COCO/Wiki/Pile (DESIGN.md §1): each
//! generator produces a learnable classification task whose convergence
//! curves respond to optimizer quality and gradient-compression error the
//! same way real tasks do — which is what the convergence experiments
//! (Figs. 3/6, Tab. 1) measure.

use compso_tensor::{Matrix, Rng};

/// A labeled classification dataset.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// One row per sample.
    pub x: Matrix,
    /// Class label per sample.
    pub y: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature width.
    pub fn features(&self) -> usize {
        self.x.cols()
    }

    /// The `idx`-th of `count` contiguous equal shards (data parallelism:
    /// each rank trains on its own shard).
    pub fn shard(&self, idx: usize, count: usize) -> Dataset {
        assert!(idx < count, "shard {idx} of {count}");
        let per = self.len() / count;
        let start = idx * per;
        let end = if idx == count - 1 {
            self.len()
        } else {
            start + per
        };
        let mut x = Matrix::zeros(end - start, self.features());
        for (r, src) in (start..end).enumerate() {
            x.row_mut(r).copy_from_slice(self.x.row(src));
        }
        Dataset {
            x,
            y: self.y[start..end].to_vec(),
            classes: self.classes,
        }
    }

    /// Batch `b` of size `batch` (wrapping at the end).
    pub fn batch(&self, b: usize, batch: usize) -> (Matrix, Vec<usize>) {
        assert!(!self.is_empty());
        let mut x = Matrix::zeros(batch, self.features());
        let mut y = Vec::with_capacity(batch);
        for i in 0..batch {
            let src = (b * batch + i) % self.len();
            x.row_mut(i).copy_from_slice(self.x.row(src));
            y.push(self.y[src]);
        }
        (x, y)
    }
}

/// Gaussian blobs: `classes` well-separated clusters in `dim` dimensions.
/// The easy benchmark (ResNet-50-proxy classification head regime).
pub fn gaussian_blobs(n: usize, dim: usize, classes: usize, noise: f32, seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    // Random unit-ish centers, pairwise separated by construction of scale.
    let centers = Matrix::random_normal(classes, dim, &mut rng);
    let mut x = Matrix::zeros(n, dim);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % classes;
        y.push(c);
        let row = x.row_mut(i);
        for (d, slot) in row.iter_mut().enumerate() {
            *slot = centers.get(c, d) + noise * rng.normal_f32();
        }
    }
    shuffle_in_place(&mut x, &mut y, &mut rng);
    Dataset { x, y, classes }
}

/// Two-dimensional interleaved spirals lifted to `dim` dimensions with a
/// random linear embedding — a task that genuinely needs the nonlinear
/// layers (the Mask R-CNN-proxy "hard" regime).
pub fn spirals(n: usize, dim: usize, classes: usize, noise: f32, seed: u64) -> Dataset {
    assert!(dim >= 2);
    let mut rng = Rng::new(seed);
    let embed = Matrix::random_normal(2, dim, &mut rng);
    let mut x = Matrix::zeros(n, dim);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % classes;
        y.push(c);
        let t = (i / classes) as f32 / (n / classes) as f32 * 2.0 * std::f32::consts::PI;
        let phase = c as f32 * 2.0 * std::f32::consts::PI / classes as f32;
        let r = 0.2 + 0.8 * t / (3.0 * std::f32::consts::PI);
        let px = r * (t + phase).cos() + noise * rng.normal_f32();
        let py = r * (t + phase).sin() + noise * rng.normal_f32();
        let row = x.row_mut(i);
        for (d, slot) in row.iter_mut().enumerate() {
            *slot = px * embed.get(0, d) + py * embed.get(1, d);
        }
    }
    shuffle_in_place(&mut x, &mut y, &mut rng);
    Dataset { x, y, classes }
}

/// Image-like data: per-class HWC templates plus pixel noise, for the CNN
/// proxy.
pub fn noisy_images(
    n: usize,
    channels: usize,
    h: usize,
    w: usize,
    classes: usize,
    noise: f32,
    seed: u64,
) -> Dataset {
    let mut rng = Rng::new(seed);
    let dim = channels * h * w;
    let templates = Matrix::random_normal(classes, dim, &mut rng);
    let mut x = Matrix::zeros(n, dim);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % classes;
        y.push(c);
        let row = x.row_mut(i);
        for (d, slot) in row.iter_mut().enumerate() {
            *slot = templates.get(c, d) + noise * rng.normal_f32();
        }
    }
    shuffle_in_place(&mut x, &mut y, &mut rng);
    Dataset { x, y, classes }
}

/// Token-sequence next-token prediction: a first-order Markov chain over
/// `vocab` tokens; the input is the one-hot concatenation of a `context`
/// window, the label is the next token. The language-model proxy
/// (GPT-neo / BERT stand-in).
pub fn token_sequences(n: usize, vocab: usize, context: usize, seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    // A sparse, learnable transition structure: each token has 2 likely
    // successors.
    let succ: Vec<[usize; 2]> = (0..vocab)
        .map(|_| {
            [
                rng.below(vocab as u64) as usize,
                rng.below(vocab as u64) as usize,
            ]
        })
        .collect();
    let mut x = Matrix::zeros(n, vocab * context);
    let mut y = Vec::with_capacity(n);
    let mut window: Vec<usize> = (0..context)
        .map(|_| rng.below(vocab as u64) as usize)
        .collect();
    for i in 0..n {
        // Emit the current window as one-hot features.
        let row = x.row_mut(i);
        for (pos, &t) in window.iter().enumerate() {
            row[pos * vocab + t] = 1.0;
        }
        // Next token: 90% from the learned structure, 10% noise.
        let token = if rng.uniform_f64() < 0.9 {
            succ[*window.last().unwrap()][usize::from(rng.uniform_f64() < 0.5)]
        } else {
            rng.below(vocab as u64) as usize
        };
        y.push(token);
        window.rotate_left(1);
        *window.last_mut().unwrap() = token;
    }
    Dataset {
        x,
        y,
        classes: vocab,
    }
}

fn shuffle_in_place(x: &mut Matrix, y: &mut [usize], rng: &mut Rng) {
    let n = y.len();
    for i in (1..n).rev() {
        let j = rng.below((i + 1) as u64) as usize;
        if i != j {
            y.swap(i, j);
            // Swap matrix rows.
            let cols = x.cols();
            for c in 0..cols {
                let a = x.get(i, c);
                let b = x.get(j, c);
                x.set(i, c, b);
                x.set(j, c, a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_are_deterministic_and_balanced() {
        let a = gaussian_blobs(300, 8, 3, 0.1, 42);
        let b = gaussian_blobs(300, 8, 3, 0.1, 42);
        assert_eq!(a.y, b.y);
        assert_eq!(a.x, b.x);
        for c in 0..3 {
            let count = a.y.iter().filter(|&&l| l == c).count();
            assert_eq!(count, 100);
        }
    }

    #[test]
    fn blobs_are_linearly_separable_enough() {
        // Nearest-center classification should be near-perfect at low noise.
        let d = gaussian_blobs(300, 8, 3, 0.05, 7);
        // Recompute centers from the data.
        let mut centers = vec![vec![0.0f32; 8]; 3];
        let mut counts = [0usize; 3];
        for i in 0..d.len() {
            counts[d.y[i]] += 1;
            for (c, v) in centers[d.y[i]].iter_mut().enumerate() {
                *v += d.x.get(i, c);
            }
        }
        for (c, center) in centers.iter_mut().enumerate() {
            for v in center.iter_mut() {
                *v /= counts[c] as f32;
            }
        }
        let mut correct = 0;
        for i in 0..d.len() {
            let mut best = (f32::INFINITY, 0usize);
            for (c, center) in centers.iter().enumerate() {
                let dist: f32 = (0..8).map(|k| (d.x.get(i, k) - center[k]).powi(2)).sum();
                if dist < best.0 {
                    best = (dist, c);
                }
            }
            if best.1 == d.y[i] {
                correct += 1;
            }
        }
        assert!(correct as f64 / d.len() as f64 > 0.99);
    }

    #[test]
    fn shard_partitions_exactly() {
        let d = gaussian_blobs(103, 4, 2, 0.1, 1);
        let shards: Vec<Dataset> = (0..4).map(|i| d.shard(i, 4)).collect();
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, 103);
        assert_eq!(shards[0].len(), 25);
        assert_eq!(shards[3].len(), 28); // remainder goes to the last shard
    }

    #[test]
    fn batch_wraps_around() {
        let d = gaussian_blobs(10, 4, 2, 0.1, 2);
        let (x, y) = d.batch(3, 4); // samples 12..16 -> wraps to 2..6
        assert_eq!(x.rows(), 4);
        assert_eq!(y.len(), 4);
        assert_eq!(y[0], d.y[2]);
    }

    #[test]
    fn spirals_need_nonlinearity() {
        // Classes are radially interleaved: class means nearly coincide,
        // so a nearest-centroid (linear) rule can't separate them well.
        let d = spirals(400, 2, 2, 0.0, 3);
        let mut means = vec![vec![0.0f32; 2]; 2];
        let mut counts = [0usize; 2];
        for i in 0..d.len() {
            counts[d.y[i]] += 1;
            for (c, v) in means[d.y[i]].iter_mut().enumerate() {
                *v += d.x.get(i, c);
            }
        }
        for (c, m) in means.iter_mut().enumerate() {
            for v in m.iter_mut() {
                *v /= counts[c] as f32;
            }
        }
        let dist: f32 = (0..2).map(|k| (means[0][k] - means[1][k]).powi(2)).sum();
        assert!(dist < 0.5, "spiral class means too separated: {dist}");
    }

    #[test]
    fn token_sequences_are_predictable() {
        let d = token_sequences(2000, 16, 3, 4);
        assert_eq!(d.features(), 48);
        assert_eq!(d.classes, 16);
        // Each row is a valid one-hot stack.
        for i in 0..20 {
            for pos in 0..3 {
                let ones = (0..16).filter(|&t| d.x.get(i, pos * 16 + t) == 1.0).count();
                assert_eq!(ones, 1, "row {i} pos {pos}");
            }
        }
        // The majority-successor rule beats chance by a wide margin: the
        // task is learnable.
        let mut table = vec![[0usize; 16]; 16];
        for i in 0..d.len() {
            let last = (0..16).find(|&t| d.x.get(i, 2 * 16 + t) == 1.0).unwrap();
            table[last][d.y[i]] += 1;
        }
        let mut correct = 0usize;
        let mut total = 0usize;
        for row in &table {
            correct += row.iter().max().unwrap();
            total += row.iter().sum::<usize>();
        }
        assert!(correct as f64 / total as f64 > 0.3, "not predictable");
    }

    #[test]
    fn noisy_images_have_expected_width() {
        let d = noisy_images(50, 2, 6, 6, 4, 0.3, 5);
        assert_eq!(d.features(), 72);
        assert_eq!(d.classes, 4);
    }
}
