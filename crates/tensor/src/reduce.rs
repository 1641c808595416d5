//! Parallel reductions over `f32` slices.
//!
//! §4.5 of the paper computes per-layer extrema (needed to normalize before
//! quantization) with a two-level GPU reduction: block-level reduction in
//! shared memory with warp-level shuffles underneath, then a small number
//! of global-memory updates. The CPU analogue implemented here reduces
//! fixed-size chunks privately per task ("block"), combining chunk-local
//! results in a tree ("shuffle"), and only then touches the shared result.
//! Both the hierarchical and a flat single-thread reference implementation
//! are provided so the ablation benchmarks can compare them.

use rayon::prelude::*;

/// Chunk size of the hierarchical reduction; plays the role of the CUDA
/// thread-block tile. 16 KiB of f32s — comfortably inside L1.
pub(crate) const REDUCE_CHUNK: usize = 4096;

/// Min/max pair produced by range scans.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MinMax {
    pub min: f32,
    pub max: f32,
}

impl MinMax {
    /// The neutral element of the min/max monoid.
    pub(crate) const EMPTY: MinMax = MinMax {
        min: f32::INFINITY,
        max: f32::NEG_INFINITY,
    };

    /// Merges two partial results.
    #[inline]
    pub fn merge(self, other: MinMax) -> MinMax {
        MinMax {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Largest absolute value covered by the range.
    #[inline]
    pub fn abs_max(&self) -> f32 {
        self.min.abs().max(self.max.abs())
    }
}

/// Flat, sequential min/max scan — the reference implementation.
pub fn minmax_flat(xs: &[f32]) -> MinMax {
    let mut mm = MinMax::EMPTY;
    for &x in xs {
        mm.min = mm.min.min(x);
        mm.max = mm.max.max(x);
    }
    mm
}

/// 8-lane unrolled min/max leaf scan — the warp-shuffle analogue of the
/// GPU block reduction, and the leaf kernel of [`minmax_hierarchical`].
///
/// Eight independent accumulator lanes strip-mine the slice (breaking the
/// serial min/max dependency chain so the ALUs pipeline), then the lanes
/// and the scalar remainder merge in a fixed order. `min`/`max` are
/// commutative and associative over the totally-ordered non-NaN floats,
/// so the result is value-identical to [`minmax_flat`] — the retained
/// scalar oracle — for every input the pipeline feeds it (gradients are
/// NaN-free by construction; `prop_minmax_lanes_matches_flat` pins the
/// equivalence, signed zeros included).
pub(crate) fn minmax_lanes(xs: &[f32]) -> MinMax {
    let mut lo = [f32::INFINITY; 8];
    let mut hi = [f32::NEG_INFINITY; 8];
    let mut it = xs.chunks_exact(8);
    for c in it.by_ref() {
        for j in 0..8 {
            lo[j] = lo[j].min(c[j]);
            hi[j] = hi[j].max(c[j]);
        }
    }
    let mut mm = minmax_flat(it.remainder());
    for j in 0..8 {
        mm.min = mm.min.min(lo[j]);
        mm.max = mm.max.max(hi[j]);
    }
    mm
}

/// Hierarchical parallel min/max: chunk-private 8-lane scans combined in
/// a rayon reduction tree.
pub fn minmax_hierarchical(xs: &[f32]) -> MinMax {
    if xs.len() <= REDUCE_CHUNK {
        return minmax_lanes(xs);
    }
    xs.par_chunks(REDUCE_CHUNK)
        .map(minmax_lanes)
        .reduce(|| MinMax::EMPTY, MinMax::merge)
}

/// Flat, sequential largest-absolute-value scan.
pub fn absmax_flat(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// Squared L2 norm in f64.
pub(crate) fn sum_squares(xs: &[f32]) -> f64 {
    if xs.len() <= REDUCE_CHUNK {
        return xs.iter().map(|&v| v as f64 * v as f64).sum();
    }
    xs.par_chunks(REDUCE_CHUNK)
        .map(|c| c.iter().map(|&v| v as f64 * v as f64).sum::<f64>())
        .sum()
}

/// L2 norm.
pub fn l2_norm(xs: &[f32]) -> f64 {
    sum_squares(xs).sqrt()
}

/// Counts elements with `|x| < threshold` — the filter-selectivity probe the
/// layer-wise adaptive mechanism uses.
pub fn count_below(xs: &[f32], threshold: f32) -> usize {
    if xs.len() <= REDUCE_CHUNK {
        return xs.iter().filter(|&&v| v.abs() < threshold).count();
    }
    xs.par_chunks(REDUCE_CHUNK)
        .map(|c| c.iter().filter(|&&v| v.abs() < threshold).count())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn data(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Rng::new(seed);
        let mut v = vec![0.0f32; n];
        rng.fill_normal(&mut v);
        v
    }

    #[test]
    fn minmax_agrees_flat_vs_hierarchical() {
        for n in [0usize, 1, 100, REDUCE_CHUNK, REDUCE_CHUNK + 1, 100_000] {
            let xs = data(n, 1 + n as u64);
            let a = minmax_flat(&xs);
            let b = minmax_hierarchical(&xs);
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn minmax_lanes_agrees_with_flat_on_awkward_lengths() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 4096, 4097] {
            let xs = data(n, 31 + n as u64);
            assert_eq!(minmax_lanes(&xs), minmax_flat(&xs), "n={n}");
        }
    }

    proptest::proptest! {
        /// Lane-vs-flat value identity over arbitrary finite floats,
        /// signed zeros and subnormals included (NaN excluded: min/max
        /// over NaN is not order-independent, and the pipeline never
        /// feeds NaN gradients).
        #[test]
        fn prop_minmax_lanes_matches_flat(
            bits in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..600),
        ) {
            let xs: Vec<f32> = bits
                .iter()
                .map(|&b| {
                    let v = f32::from_bits(b);
                    if v.is_nan() { 0.0 } else { v }
                })
                .collect();
            proptest::prop_assert_eq!(minmax_lanes(&xs), minmax_flat(&xs));
        }
    }

    #[test]
    fn absmax_agrees_and_is_nonnegative() {
        let xs = data(50_000, 2);
        let a = absmax_flat(&xs);
        assert_eq!(a, minmax_hierarchical(&xs).abs_max());
        assert!(a >= 0.0);
        assert!(xs.iter().all(|&v| v.abs() <= a));
    }

    #[test]
    fn empty_slices() {
        assert_eq!(minmax_flat(&[]), MinMax::EMPTY);
        assert_eq!(absmax_flat(&[]), 0.0);
    }

    #[test]
    fn l2_norm_of_unit_vectors() {
        let mut xs = vec![0.0f32; 100];
        xs[3] = 3.0;
        xs[10] = 4.0;
        assert!((l2_norm(&xs) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn count_below_threshold() {
        let xs = vec![0.1f32, -0.2, 0.5, -0.04, 0.0];
        assert_eq!(count_below(&xs, 0.15), 3); // 0.1, -0.04, 0.0
        assert_eq!(count_below(&xs, 1.0), 5);
        assert_eq!(count_below(&xs, 0.0), 0);
    }

    #[test]
    fn abs_max_of_range() {
        let mm = MinMax {
            min: -3.0,
            max: 2.0,
        };
        assert_eq!(mm.abs_max(), 3.0);
    }
}
