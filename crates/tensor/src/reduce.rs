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

use crate::instance::Instance;
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
    pub(crate) fn merge(self, other: MinMax) -> MinMax {
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
/// and the scalar remainder merge in a fixed order. `f32::min`/`max`
/// skip a NaN operand and are commutative and associative over the
/// others, so the result is value-identical to [`minmax_flat`] — the
/// retained scalar oracle — for every input, NaN included
/// (`prop_minmax_lanes_matches_flat` pins the equivalence).
///
/// `inst` picks how the lanes run: the portable instance as the
/// `f32::min`/`max` chain, AVX2 as one 256-bit register each. Both give
/// the same bits, signed zeros included: a lane keeps what it holds
/// against an operand that compares equal, in both (`minps`'s operand
/// order is the chain's), and the remainder and the merge are one scalar
/// code.
///
/// # Panics
/// If `inst` is not available on this host.
pub(crate) fn minmax_lanes(inst: Instance, xs: &[f32]) -> MinMax {
    assert!(inst.available(), "{inst:?} not available on this host");
    let mut lo = [f32::INFINITY; 8];
    let mut hi = [f32::NEG_INFINITY; 8];
    let (body, rest) = xs.split_at(xs.len() / 8 * 8);
    match inst {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the assertion above saw the CPU report AVX2, the one
        // feature `lanes_avx2` is built with.
        Instance::Avx2 | Instance::Avx512 => unsafe { lanes_avx2(body, &mut lo, &mut hi) },
        #[cfg(not(target_arch = "x86_64"))]
        Instance::Avx2 | Instance::Avx512 => unreachable!("no wide instance off x86-64"),
        Instance::Portable => {
            for c in body.chunks_exact(8) {
                for j in 0..8 {
                    lo[j] = lo[j].min(c[j]);
                    hi[j] = hi[j].max(c[j]);
                }
            }
        }
    }
    let mut mm = minmax_flat(rest);
    for j in 0..8 {
        mm.min = mm.min.min(lo[j]);
        mm.max = mm.max.max(hi[j]);
    }
    mm
}

/// The AVX2 lanes of [`minmax_lanes`] over `body` (a multiple of 8
/// long), lane `j` of each register being `lo[j]`/`hi[j]`. `minps(x,
/// acc)` is `x < acc ? x : acc`: a NaN `x` leaves `acc`, and so does an
/// `x` equal to it, as `acc.min(x)` does (an accumulator starts at ±∞
/// and only ever takes a number, so it is never the NaN operand).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lanes_avx2(body: &[f32], lo: &mut [f32; 8], hi: &mut [f32; 8]) {
    use std::arch::x86_64::*;
    let mut vlo = _mm256_set1_ps(f32::INFINITY);
    let mut vhi = _mm256_set1_ps(f32::NEG_INFINITY);
    for c in body.chunks_exact(8) {
        let x = _mm256_set_ps(c[7], c[6], c[5], c[4], c[3], c[2], c[1], c[0]);
        vlo = _mm256_min_ps(x, vlo);
        vhi = _mm256_max_ps(x, vhi);
    }
    let lanes = |v: __m256| {
        let (a, b) = (_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
        [
            _mm_extract_ps::<0>(a),
            _mm_extract_ps::<1>(a),
            _mm_extract_ps::<2>(a),
            _mm_extract_ps::<3>(a),
            _mm_extract_ps::<0>(b),
            _mm_extract_ps::<1>(b),
            _mm_extract_ps::<2>(b),
            _mm_extract_ps::<3>(b),
        ]
        .map(|bits| f32::from_bits(bits as u32))
    };
    *lo = lanes(vlo);
    *hi = lanes(vhi);
}

/// Hierarchical parallel min/max: chunk-private 8-lane scans combined in
/// a rayon reduction tree, on the [`Instance`] of the calling thread.
pub fn minmax_hierarchical(xs: &[f32]) -> MinMax {
    // Read on the calling thread: a pin does not reach the workers.
    let inst = Instance::current();
    if xs.len() <= REDUCE_CHUNK {
        return minmax_lanes(inst, xs);
    }
    xs.par_chunks(REDUCE_CHUNK)
        .map(|c| minmax_lanes(inst, c))
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

    /// The instances of [`minmax_lanes`] this host runs.
    fn instances() -> impl Iterator<Item = Instance> {
        Instance::ALL.into_iter().filter(|inst| inst.available())
    }

    /// A range as bits, so that `-0.0` and `0.0` differ.
    fn bits(mm: MinMax) -> (u32, u32) {
        (mm.min.to_bits(), mm.max.to_bits())
    }

    #[test]
    fn minmax_lanes_agrees_with_flat_on_awkward_lengths() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 4096, 4097] {
            let xs = data(n, 31 + n as u64);
            for inst in instances() {
                assert_eq!(minmax_lanes(inst, &xs), minmax_flat(&xs), "n={n} {inst:?}");
            }
        }
    }

    /// Every instance's lanes against the portable chain's bits at every
    /// length 0..=130 — whole registers, a remainder, both — on values
    /// drawn from ±0.0 (in both orders, so a tie meets either zero first),
    /// NaN, ±∞, subnormals and a few normals: a signed zero that ties the
    /// running extremum, and a NaN, are where a `minps` with its operands
    /// the other way round, or a NaN-propagating min, part from the chain.
    #[test]
    fn extrema_instances_agree_bit_for_bit_on_edge_values() {
        let tiny = f32::from_bits(1);
        let pool = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            tiny,
            -tiny,
            f32::MIN_POSITIVE / 2.0,
            1.5,
            -2.5,
        ];
        let mut rng = Rng::new(0xE27);
        for len in 0..=130usize {
            for draw in 0..24 {
                // The first draws keep to the zeros, NaN and ∞, so ties
                // between zeros decide the result.
                let span = if draw < 8 {
                    3
                } else if draw < 16 {
                    5
                } else {
                    pool.len()
                };
                let xs: Vec<f32> = (0..len)
                    .map(|_| pool[rng.below(span as u64) as usize])
                    .collect();
                let want = minmax_lanes(Instance::Portable, &xs);
                assert_eq!(want, minmax_flat(&xs), "len={len} {xs:?}");
                for inst in instances() {
                    assert_eq!(
                        bits(minmax_lanes(inst, &xs)),
                        bits(want),
                        "len={len} {inst:?} {xs:?}"
                    );
                }
            }
            // Every position of a lone zero of either sign among zeros of
            // the other.
            for (lone, rest) in [(0.0f32, -0.0f32), (-0.0, 0.0)] {
                for at in 0..len {
                    let mut xs = vec![rest; len];
                    xs[at] = lone;
                    let want = bits(minmax_lanes(Instance::Portable, &xs));
                    for inst in instances() {
                        assert_eq!(
                            bits(minmax_lanes(inst, &xs)),
                            want,
                            "len={len} at={at} {inst:?}"
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        /// Lane-vs-flat value identity over arbitrary floats: NaN (which
        /// `f32::min`/`max` skip, so the lane order cannot matter), ±Inf,
        /// signed zeros and subnormals included — and every instance's
        /// bits equal to the portable chain's.
        #[test]
        fn prop_minmax_lanes_matches_flat(
            raw in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..600),
        ) {
            let xs: Vec<f32> = raw.iter().map(|&b| f32::from_bits(b)).collect();
            let want = minmax_lanes(Instance::Portable, &xs);
            proptest::prop_assert_eq!(want, minmax_flat(&xs));
            for inst in instances() {
                proptest::prop_assert_eq!(bits(minmax_lanes(inst, &xs)), bits(want));
            }
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
