//! PowerSGD: rank-r low-rank gradient compression via power iteration
//! (Vogels et al., NeurIPS'19, arXiv 1905.13727).
//!
//! The gradient buffer is reshaped into a near-square matrix `M`
//! (`rows = ⌈√n⌉`, zero-padded tail) and approximated by the rank-r
//! product `M ≈ P̂·Qᵀ` where `P̂ = orth(M·Q)` and `Q = Mᵀ·P̂`. One power
//! iteration per step plus a **warm-started Q** (last step's factor seeds
//! this step's subspace) tracks the slowly rotating gradient subspace at
//! a wire cost of `(rows + cols)·r` floats instead of `n` — a
//! structurally different operating point from the quantize/sparsify
//! families: compression error concentrates in the tail singular values
//! rather than in per-element rounding, and the ratio is independent of
//! the value distribution. **Error feedback** folds the reconstruction
//! residual `M − P̂Qᵀ` back into the next step's input so the bias decays
//! instead of accumulating.
//!
//! Warm starts and error feedback are *stateful per layer*. State is
//! keyed by the caller-stable layer ids of
//! [`Compressor::compress_group_keyed`] (global layer indices in
//! `DistKfac`), never by position: each layer is compressed exactly once
//! per step by whichever rank owns it, over bit-identical inputs, so the
//! per-layer state — and therefore the wire bytes — are identical at any
//! world size. [`Compressor::compress_group`] and
//! [`Compressor::compress`] key by position like any other caller; a
//! fresh instance has no state yet, so its first call per key is the
//! cold start — a pure function of the input, which is what the
//! round-trip and fuzz harnesses exercise.
//!
//! Wire format, magic `MAGIC_POWERSGD` (`0xCA`):
//!
//! ```text
//! u8   magic (0xCA)
//! u8   mode: 0 = raw escape, 1 = low-rank
//! u64  n (element count, checked)
//! mode 0: n × f32                      (low-rank wouldn't pay)
//! mode 1: u32 rows, u32 cols, u8 r,
//!         rows·r × f32 (P̂, row-major), cols·r × f32 (Q, row-major)
//! ```
//!
//! The decoder recomputes the canonical `(rows, cols)` from `n` and
//! rejects any mismatch, bounds `r`, and demands the payload end exactly
//! at the last `Q` float — a frame can never make it allocate more than
//! the declared (checked) `n` plus one padding row.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::kernels::LayerSchedule;
use crate::traits::{CompressError, Compressor};
use crate::wire::{checked_count, frame_group, unframe_group, Reader, WireError, Writer};
use compso_obs::Recorder;
use compso_tensor::rng::Rng;
use compso_tensor::Matrix;

use crate::wire::magic::MAGIC_POWERSGD;

/// Hard ceiling on the rank a frame may declare; real configurations use
/// 1–32, anything larger is a corrupt header.
pub(crate) const MAX_WIRE_RANK: usize = 64;

/// Fixed bytes before the mode-specific payload (magic, mode, n).
const HEADER_BYTES: usize = 1 + 1 + 8;

/// Per-layer controller/feedback state.
struct LayerState {
    /// Last transmitted `Q` factor (`cols × r`), next step's warm start.
    q: Matrix,
    /// Error-feedback residual, one entry per gradient element.
    residual: Vec<f32>,
    /// `‖residual‖ / ‖input‖` of the most recent compression — the
    /// divergence signal the control plane watches.
    residual_rel: f64,
}

/// The PowerSGD low-rank compressor.
pub struct PowerSgd {
    /// Target rank r of the transmitted factors.
    pub rank: usize,
    state: Mutex<HashMap<u64, LayerState>>,
}

impl PowerSgd {
    /// PowerSGD at rank `r` with one power iteration, warm starts, and
    /// error feedback on the keyed path.
    pub fn rank(r: usize) -> Self {
        PowerSgd {
            rank: r.max(1),
            state: Mutex::new(HashMap::new()),
        }
    }

    /// Canonical near-square reshape of an `n`-element buffer.
    pub(crate) fn shape_for(n: usize) -> (usize, usize) {
        if n == 0 {
            return (0, 0);
        }
        let mut rows = n.isqrt();
        if rows * rows < n {
            rows += 1;
        }
        let cols = n.div_ceil(rows);
        (rows, cols)
    }

    /// Whether a rank-`r` factor pair beats shipping `n` raw floats.
    fn lowrank_pays(n: usize, rows: usize, cols: usize, r: usize) -> bool {
        let factor_bytes = (rows + cols) * r * 4 + 4 + 4 + 1;
        factor_bytes + HEADER_BYTES < n * 4 + HEADER_BYTES
    }

    /// Deterministic Q initialization for a cold start: seeded purely by
    /// the buffer geometry so every rank (and every run) derives the same
    /// starting subspace.
    fn cold_q(n: usize, cols: usize, r: usize) -> Matrix {
        let seed = 0x5057_5347u64 ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (r as u64);
        let mut rng = Rng::new(seed);
        let mut q = Matrix::random_normal(cols, r, &mut rng);
        q.orthonormalize_columns();
        q
    }

    /// Test-only view: largest `‖residual‖/‖input‖` across all layers
    /// compressed through the keyed path so far, so the tests can watch
    /// the error-feedback residual. 0.0 before any stateful compression.
    #[cfg(test)]
    pub(crate) fn ef_residual_rel(&self) -> f64 {
        let state = self.state.lock().unwrap();
        state
            .values()
            .map(|s| s.residual_rel)
            .fold(0.0f64, f64::max)
    }

    /// One layer's stateless block: deterministically seeded Q, no warm
    /// start, no error feedback — a pure function of `data`.
    pub fn encode(&self, data: &[f32]) -> Vec<u8> {
        self.encode_with(data, None)
    }

    /// Core encoder. `state = None` is the stateless pure-function path;
    /// `Some` threads warm starts and error feedback through.
    fn encode_with(&self, data: &[f32], mut state: Option<&mut LayerState>) -> Vec<u8> {
        let n = data.len();
        let (rows, cols) = Self::shape_for(n);
        let r = self.rank.min(rows).min(cols).min(MAX_WIRE_RANK);
        if n == 0 || r == 0 || !Self::lowrank_pays(n, rows, cols, r) {
            let mut w = Writer::with_capacity(HEADER_BYTES + n * 4);
            w.u8(MAGIC_POWERSGD);
            w.u8(0);
            w.u64(n as u64);
            for &v in data {
                w.f32(v);
            }
            return w.into_bytes();
        }

        // M = reshape(data [+ residual]) zero-padded to rows × cols.
        let mut m = Matrix::zeros(rows, cols);
        {
            let md = m.as_mut_slice();
            md[..n].copy_from_slice(data);
            if let Some(st) = state.as_deref_mut() {
                if st.residual.len() == n {
                    for (slot, &res) in md[..n].iter_mut().zip(&st.residual) {
                        *slot += res;
                    }
                }
            }
        }

        // Warm-start Q when the cached factor still fits this geometry.
        let warm = match state.as_deref_mut() {
            Some(st) if st.q.rows() == cols && st.q.cols() == r => st.q.clone(),
            _ => Self::cold_q(n, cols, r),
        };
        // One power iteration, the paper's setting.
        let mut p = m.matmul(&warm);
        p.orthonormalize_columns();
        let q = m.t_matmul(&p);

        if let Some(st) = state {
            let approx = p.matmul_t(&q);
            let ad = approx.as_slice();
            let mut residual = Vec::with_capacity(n);
            let mut err_sq = 0.0f64;
            let mut in_sq = 0.0f64;
            for (&got, &approx) in m.as_slice()[..n].iter().zip(&ad[..n]) {
                let e = got - approx;
                residual.push(e);
                err_sq += e as f64 * e as f64;
                in_sq += got as f64 * got as f64;
            }
            st.q = q.clone();
            st.residual = residual;
            st.residual_rel = if in_sq > 0.0 {
                (err_sq / in_sq).sqrt()
            } else {
                0.0
            };
        }

        let mut w = Writer::with_capacity(HEADER_BYTES + 9 + (rows + cols) * r * 4);
        w.u8(MAGIC_POWERSGD);
        w.u8(1);
        w.u64(n as u64);
        w.u32(rows as u32);
        w.u32(cols as u32);
        w.u8(r as u8);
        for &v in p.as_slice() {
            w.f32(v);
        }
        for &v in q.as_slice() {
            w.f32(v);
        }
        w.into_bytes()
    }

    /// Inverse of [`PowerSgd::encode`]: a pure function of the block.
    pub fn decode(bytes: &[u8]) -> Result<Vec<f32>, CompressError> {
        let mut r = Reader::new(bytes);
        if r.u8()? != MAGIC_POWERSGD {
            return Err(WireError::Invalid("powersgd magic").into());
        }
        let mode = r.u8()?;
        let n = checked_count(r.u64()?)?;
        match mode {
            0 => {
                let mut out = Vec::with_capacity(n);
                for _ in 0..n {
                    out.push(r.f32()?);
                }
                if !r.is_exhausted() {
                    return Err(CompressError::Corrupt("trailing powersgd bytes"));
                }
                Ok(out)
            }
            1 => {
                let rows = r.u32()? as usize;
                let cols = r.u32()? as usize;
                let rank = r.u8()? as usize;
                // The shape is a pure function of n: recompute and demand
                // an exact match, which simultaneously kills allocation
                // amplification (rows·cols ≤ n + rows) and most header
                // mutations.
                if (rows, cols) != Self::shape_for(n) {
                    return Err(CompressError::Corrupt("powersgd shape mismatch"));
                }
                if rank == 0 || rank > rows.min(cols) || rank > MAX_WIRE_RANK {
                    return Err(WireError::Invalid("powersgd rank").into());
                }
                if !Self::lowrank_pays(n, rows, cols, rank) {
                    return Err(CompressError::Corrupt("powersgd non-canonical mode"));
                }
                let mut p = Matrix::zeros(rows, rank);
                for v in p.as_mut_slice() {
                    *v = r.f32()?;
                }
                let mut q = Matrix::zeros(cols, rank);
                for v in q.as_mut_slice() {
                    *v = r.f32()?;
                }
                if !r.is_exhausted() {
                    return Err(CompressError::Corrupt("trailing powersgd bytes"));
                }
                let mut approx = p.matmul_t(&q).into_vec();
                approx.truncate(n);
                Ok(approx)
            }
            _ => Err(WireError::Invalid("powersgd mode").into()),
        }
    }
}

impl Compressor for PowerSgd {
    fn name(&self) -> &'static str {
        match self.rank {
            1 => "PowerSGD-r1",
            2 => "PowerSGD-r2",
            4 => "PowerSGD-r4",
            8 => "PowerSGD-r8",
            16 => "PowerSGD-r16",
            _ => "PowerSGD",
        }
    }

    /// Per-layer warm starts and error feedback looked up by the caller's
    /// stable ids. Layers run sequentially — the GEMMs inside are already
    /// rayon-parallel — and the caller's RNG is untouched (the
    /// factorization is deterministic).
    fn compress_group_keyed(
        &self,
        layers: &[(u64, &[f32])],
        _schedule: Option<&LayerSchedule>,
        _rng: &mut Rng,
        _rec: &Recorder,
    ) -> Vec<u8> {
        let mut state = self.state.lock().unwrap();
        let blocks: Vec<Vec<u8>> = layers
            .iter()
            .map(|&(key, layer)| {
                let st = state.entry(key).or_insert_with(|| LayerState {
                    q: Matrix::zeros(0, 0),
                    residual: Vec::new(),
                    residual_rel: 0.0,
                });
                self.encode_with(layer, Some(st))
            })
            .collect();
        frame_group(&blocks)
    }

    fn decompress_group(
        &self,
        bytes: &[u8],
        _rec: &Recorder,
    ) -> Result<Vec<Vec<f32>>, CompressError> {
        unframe_group(bytes)?
            .into_iter()
            .map(Self::decode)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::magic::MAGIC_GROUP;
    use proptest::prelude::*;
    // Explicit import: proptest's prelude also globs a `Rng` trait.
    use compso_tensor::rng::Rng;

    fn gradient_like(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| rng.laplace(0.01)).collect()
    }

    /// A buffer that is *exactly* rank-k when reshaped: outer products of
    /// smooth vectors.
    fn lowrank_buffer(rows: usize, cols: usize, k: usize, seed: u64) -> Vec<f32> {
        let mut rng = Rng::new(seed);
        let u = Matrix::random_normal(rows, k, &mut rng);
        let v = Matrix::random_normal(cols, k, &mut rng);
        u.matmul_t(&v).into_vec()
    }

    #[test]
    fn shape_is_near_square_and_minimal() {
        for n in [1usize, 2, 3, 4, 5, 48, 49, 50, 2304, 1_000_000] {
            let (rows, cols) = PowerSgd::shape_for(n);
            assert!(rows * cols >= n, "n={n}");
            assert!(rows * (cols.saturating_sub(1)) < n, "n={n} wastes a column");
            assert!(rows.abs_diff(cols) <= 1 || rows * cols - n < rows, "n={n}");
        }
        assert_eq!(PowerSgd::shape_for(0), (0, 0));
        assert_eq!(PowerSgd::shape_for(49), (7, 7));
    }

    #[test]
    fn exactly_lowrank_input_roundtrips_tightly() {
        // A rank-2 matrix compressed at rank 4 should reconstruct to
        // f32 round-off.
        let data = lowrank_buffer(40, 40, 2, 1);
        let c = PowerSgd::rank(4);
        let bytes = c.encode(&data);
        assert_eq!(bytes[0], MAGIC_POWERSGD);
        assert_eq!(bytes[1], 1, "low-rank mode");
        let back = PowerSgd::decode(&bytes).unwrap();
        assert_eq!(back.len(), data.len());
        let scale = data.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (&x, &y) in data.iter().zip(&back) {
            assert!((x - y).abs() < scale * 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn ratio_is_structural_not_distributional() {
        // (rows+cols)·r vs n: 1600 elements at rank 2 → 40+40 floats × 2
        // = 160, ~10× regardless of values.
        let data = gradient_like(1600, 3);
        let mut rng = Rng::new(4);
        let r = PowerSgd::rank(2).ratio(&data, &mut rng);
        assert!(r > 8.0 && r < 11.0, "ratio {r}");
    }

    #[test]
    fn tiny_buffers_take_the_raw_escape() {
        let c = PowerSgd::rank(8);
        for n in [0usize, 1, 2, 7, 16] {
            let data = gradient_like(n, 6);
            let bytes = c.encode(&data);
            assert_eq!(bytes[1], 0, "n={n} should escape to raw");
            let back = PowerSgd::decode(&bytes).unwrap();
            assert_eq!(back.len(), n);
            for (&x, &y) in data.iter().zip(&back) {
                assert_eq!(x.to_bits(), y.to_bits(), "raw mode is lossless");
            }
        }
    }

    #[test]
    fn cold_compress_is_pure_and_ignores_rng() {
        // A fresh instance has no state for any key, so its first
        // compress is the stateless block, whatever the generator holds.
        let data = gradient_like(5000, 7);
        let mut a = Rng::new(1);
        let mut b = Rng::new(999);
        let cold = PowerSgd::rank(4).compress(&data, &mut a);
        assert_eq!(cold, PowerSgd::rank(4).compress(&data, &mut b));
        assert_eq!(
            unframe_group(&cold).unwrap(),
            vec![PowerSgd::rank(4).encode(&data).as_slice()]
        );
        // And the caller's generator is untouched.
        assert_eq!(a.next_u64(), Rng::new(1).next_u64());
    }

    #[test]
    fn positional_group_path_is_stateful() {
        // `compress_group` keys by position, so repeating it on one
        // instance feeds the residual back instead of silently taking a
        // stateless path.
        let base = lowrank_buffer(30, 30, 6, 8);
        let c = PowerSgd::rank(2);
        let rec = Recorder::disabled();
        let mut rng = Rng::new(9);
        let first = c.compress_group(&[&base], None, &mut rng, &rec);
        assert!(c.ef_residual_rel() > 0.0);
        let second = c.compress_group(&[&base], None, &mut rng, &rec);
        assert_ne!(first, second, "error feedback did not reach step 2");
    }

    #[test]
    fn keyed_state_reduces_error_over_steps() {
        // Feeding the same slowly-varying gradient through the keyed path
        // must do better (cumulatively, via error feedback) than the
        // stateless path: the residual norm should shrink after warm-up.
        let base = lowrank_buffer(30, 30, 6, 8);
        let c = PowerSgd::rank(2);
        let rec = Recorder::disabled();
        let mut rng = Rng::new(9);
        let mut first_rel = 0.0;
        let mut last_rel = 0.0;
        for step in 0..6 {
            let layers = [(7u64, base.as_slice())];
            let bytes = c.compress_group_keyed(&layers, None, &mut rng, &rec);
            let back = c.decompress_group(&bytes, &rec).unwrap();
            assert_eq!(back[0].len(), base.len());
            let rel = c.ef_residual_rel();
            if step == 0 {
                first_rel = rel;
            }
            last_rel = rel;
        }
        assert!(first_rel > 0.0, "rank-2 of a rank-6 input must lose mass");
        // Error feedback re-injects the tail; with a static input the
        // approximation chases it down.
        assert!(
            last_rel < first_rel * 0.9,
            "no EF progress: first {first_rel} last {last_rel}"
        );
    }

    #[test]
    fn keyed_bytes_are_position_independent() {
        // The same (key, layer) pair must produce identical bytes no
        // matter which slot it occupies or what else is in the batch —
        // the property that makes 1/2/4-rank runs bit-identical when
        // ownership splits layers differently.
        let l0 = gradient_like(900, 10);
        let l1 = gradient_like(1600, 11);
        let rec = Recorder::disabled();
        let mut rng = Rng::new(12);

        let solo = PowerSgd::rank(2);
        let solo_bytes = solo.compress_group_keyed(&[(5, l1.as_slice())], None, &mut rng, &rec);
        let solo_blocks = {
            let mut r = Reader::new(&solo_bytes);
            assert_eq!(r.u8().unwrap(), MAGIC_GROUP);
            assert_eq!(r.u32().unwrap(), 1);
            r.block().unwrap().to_vec()
        };

        let paired = PowerSgd::rank(2);
        let both = paired.compress_group_keyed(
            &[(3, l0.as_slice()), (5, l1.as_slice())],
            None,
            &mut rng,
            &rec,
        );
        let mut r = Reader::new(&both);
        assert_eq!(r.u8().unwrap(), MAGIC_GROUP);
        assert_eq!(r.u32().unwrap(), 2);
        let _l0_block = r.block().unwrap();
        let l1_block = r.block().unwrap();
        assert_eq!(l1_block, solo_blocks.as_slice());
    }

    #[test]
    fn truncation_detected_at_every_prefix() {
        let data = gradient_like(1200, 13);
        let bytes = PowerSgd::rank(2).encode(&data);
        for cut in [
            0usize,
            1,
            2,
            9,
            10,
            14,
            18,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            assert!(PowerSgd::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(PowerSgd::decode(&padded).is_err());
    }

    #[test]
    fn header_mutations_rejected() {
        let data = gradient_like(1200, 15);
        let bytes = PowerSgd::rank(2).encode(&data);
        assert_eq!(bytes[1], 1);
        // Wrong magic.
        let mut b = bytes.clone();
        b[0] = 0x00;
        assert!(PowerSgd::decode(&b).is_err());
        // Unknown mode.
        let mut b = bytes.clone();
        b[1] = 2;
        assert!(PowerSgd::decode(&b).is_err());
        // Inflated n no longer matches the canonical shape.
        let mut b = bytes.clone();
        b[5] = 0xFF;
        assert!(PowerSgd::decode(&b).is_err());
        // Zero / oversized rank.
        let rank_off = 1 + 1 + 8 + 4 + 4;
        let mut b = bytes.clone();
        b[rank_off] = 0;
        assert!(PowerSgd::decode(&b).is_err());
        let mut b = bytes.clone();
        b[rank_off] = 200;
        assert!(PowerSgd::decode(&b).is_err());
    }

    #[test]
    fn group_api_roundtrips_via_shared_framing() {
        let layers: Vec<Vec<f32>> = vec![
            gradient_like(2304, 17),
            vec![],
            gradient_like(96, 18),
            vec![0.0f32; 400],
        ];
        let refs: Vec<&[f32]> = layers.iter().map(|l| l.as_slice()).collect();
        let c = PowerSgd::rank(4);
        let rec = Recorder::disabled();
        let mut rng = Rng::new(19);
        let bytes = c.compress_group(&refs, None, &mut rng, &rec);
        assert_eq!(bytes[0], MAGIC_GROUP);
        let back = c.decompress_group(&bytes, &rec).unwrap();
        assert_eq!(back.len(), layers.len());
        for (orig, got) in layers.iter().zip(&back) {
            assert_eq!(orig.len(), got.len());
        }
        assert_eq!(back[1], layers[1]);
        assert_eq!(back[3], layers[3], "all-zero layer reconstructs exactly");
    }

    proptest! {
        #[test]
        fn prop_roundtrip_returns_declared_length(
            data in proptest::collection::vec(-3.0f32..3.0, 0..600),
        ) {
            let c = PowerSgd::rank(3);
            let mut rng = Rng::new(1);
            let back = c.decompress(&c.compress(&data, &mut rng)).unwrap();
            prop_assert_eq!(back.len(), data.len());
        }

        #[test]
        fn prop_error_feedback_mean_preserving(
            seed in any::<u64>(),
        ) {
            // Over repeated steps on a fixed input, EF keeps the decoded
            // average close to the truth even at crushing rank.
            let data = gradient_like(400, seed);
            let c = PowerSgd::rank(1);
            let rec = Recorder::disabled();
            let mut rng = Rng::new(2);
            // Telescoping: Σ decoded_t = steps·input − residual_last, so
            // the time-averaged error decays like ‖residual‖/steps.
            let mut acc = vec![0.0f64; data.len()];
            let steps = 24;
            for _ in 0..steps {
                let layers = [(0u64, data.as_slice())];
                let bytes = c.compress_group_keyed(&layers, None, &mut rng, &rec);
                let back = c.decompress_group(&bytes, &rec).unwrap();
                for (a, &v) in acc.iter_mut().zip(&back[0]) {
                    *a += v as f64;
                }
            }
            let scale = data.iter().fold(0.0f32, |m, v| m.max(v.abs())) as f64;
            let mut worst = 0.0f64;
            for (a, &x) in acc.iter().zip(&data) {
                worst = worst.max((a / steps as f64 - x as f64).abs());
            }
            prop_assert!(worst <= scale * 0.75 + 1e-6, "worst {worst} scale {scale}");
        }
    }
}
