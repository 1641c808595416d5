//! Compressing the Kronecker factor matrices `A` and `G` (the paper's
//! future-work item §7-2: "exploring compression techniques for
//! intermediate data in KFAC, specifically the factor matrices A and G").
//!
//! Covariance factors are symmetric, so only the upper triangle travels;
//! the triangle is compressed with any [`Compressor`] and the
//! reconstruction mirrors it back — symmetry is exact by construction,
//! which matters because the eigensolver downstream assumes it.

use crate::traits::{CompressError, Compressor};
use crate::wire::{Reader, Writer};
use compso_tensor::{Matrix, Rng};

/// Compresses a symmetric matrix: header + compressed upper triangle
/// (row-major, diagonal included).
///
/// # Panics
/// If the matrix is not square.
pub fn compress_symmetric(m: &Matrix, compressor: &dyn Compressor, rng: &mut Rng) -> Vec<u8> {
    let n = m.rows();
    let mut triangle = Vec::with_capacity(n * (n + 1) / 2);
    m.pack_upper(&mut triangle);
    let compressed = compressor.compress(&triangle, rng);
    let mut w = Writer::with_capacity(compressed.len() + 16);
    w.u64(n as u64);
    w.block(&compressed);
    w.into_bytes()
}

/// Inverse of [`compress_symmetric`].
pub fn decompress_symmetric(
    bytes: &[u8],
    compressor: &dyn Compressor,
) -> Result<Matrix, CompressError> {
    let mut r = Reader::new(bytes);
    let n = crate::wire::checked_count(r.u64()?)?;
    let triangle = compressor.decompress(r.block()?)?;
    if triangle.len() != n * (n + 1) / 2 {
        return Err(CompressError::Corrupt("triangle length"));
    }
    let mut m = Matrix::zeros(n, n);
    m.unpack_upper(&triangle);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{ChunkedCompso, CompsoConfig};
    use crate::traits::NoCompression;

    fn random_factor(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        let s = Matrix::random_normal(4 * n, n, &mut rng);
        let mut c = s.t_matmul(&s);
        c.scale(1.0 / (4 * n) as f32);
        c.symmetrize();
        c
    }

    #[test]
    fn lossless_roundtrip_is_exact() {
        let f = random_factor(37, 1);
        let mut rng = Rng::new(2);
        let bytes = compress_symmetric(&f, &NoCompression, &mut rng);
        let back = decompress_symmetric(&bytes, &NoCompression).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn triangle_alone_halves_the_size() {
        let f = random_factor(64, 3);
        let mut rng = Rng::new(4);
        let bytes = compress_symmetric(&f, &NoCompression, &mut rng);
        // n(n+1)/2 * 4 + headers vs n² * 4.
        assert!(bytes.len() < f.len() * 4 * 55 / 100);
    }

    #[test]
    fn lossy_roundtrip_preserves_symmetry_and_bound() {
        let f = random_factor(48, 5);
        let compso = ChunkedCompso::new(CompsoConfig::conservative(1e-3));
        let mut rng = Rng::new(6);
        let bytes = compress_symmetric(&f, &compso, &mut rng);
        let back = decompress_symmetric(&bytes, &compso).unwrap();
        assert_eq!(back.asymmetry(), 0.0, "symmetry must be exact");
        let range = {
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for i in 0..48 {
                for j in i..48 {
                    lo = lo.min(f.get(i, j));
                    hi = hi.max(f.get(i, j));
                }
            }
            hi - lo
        };
        assert!(back.max_diff(&f) <= 1e-3 * range * 1.01 + 1e-7);
    }

    #[test]
    fn eigendecomposition_survives_compression() {
        // The downstream use: damped inversion of the decompressed factor
        // must stay close to the original's.
        let f = random_factor(24, 7);
        let compso = ChunkedCompso::new(CompsoConfig::conservative(1e-4));
        let mut rng = Rng::new(8);
        let back =
            decompress_symmetric(&compress_symmetric(&f, &compso, &mut rng), &compso).unwrap();
        let e1 = compso_tensor::sym_eig(&f);
        let e2 = compso_tensor::sym_eig(&back);
        for (a, b) in e1.values.iter().zip(&e2.values) {
            assert!((a - b).abs() < 1e-2 * a.abs().max(0.1), "{a} vs {b}");
        }
    }

    #[test]
    fn corrupt_stream_rejected() {
        let f = random_factor(16, 9);
        let mut rng = Rng::new(10);
        let bytes = compress_symmetric(&f, &NoCompression, &mut rng);
        assert!(decompress_symmetric(&bytes[..8], &NoCompression).is_err());
        // Wrong n in header.
        let mut broken = bytes.clone();
        broken[0] = broken[0].wrapping_add(1);
        assert!(decompress_symmetric(&broken, &NoCompression).is_err());
    }
}
