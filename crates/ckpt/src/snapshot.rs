//! The in-memory checkpoint model: named, typed, 2-D tensors.
//!
//! A [`Snapshot`] is what one rank contributes to a coordinated
//! checkpoint: a flat list of [`TensorEntry`]s (model weights, K-FAC
//! factors, optimizer moments, RNG words, counters) keyed by
//! slash-namespaced names such as `kfac/3/a` or `model/0/params`.
//!
//! The module also defines the **tensor-blob format** (`0xCB`): a rank's
//! checkpoint file on disk, and what restore redistributes between ranks
//! over the fallible collectives. Its parser follows the hostile-length
//! rules of `compso_core::wire`: every count is validated against the
//! bytes actually present before anything is allocated, and trailing
//! bytes are rejected.

use crate::CkptError;
use compso_core::wire::{checked_count, Reader, WireError, Writer};
use compso_tensor::Matrix;

/// Wire/manifest magic for a tensor blob (re-exported from the
/// central `compso_core::wire::magic` registry).
pub use compso_core::wire::magic::MAGIC_TENSORS;
/// Tensor-blob format version.
pub(crate) const TENSORS_VERSION: u16 = 1;
/// Longest accepted tensor name in bytes (hostile-input cap).
pub(crate) const NAME_MAX: usize = 200;
/// Most tensors a single blob / rank file may carry (hostile-input cap).
pub(crate) const TENSORS_MAX: usize = 1 << 16;

/// Element type of a checkpoint tensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Dtype {
    /// 32-bit float (weights, factors, moments).
    F32,
    /// 64-bit float (Cholesky factors, Box-Muller spares).
    F64,
    /// 64-bit unsigned (RNG words, counters, ownership maps).
    U64,
}

impl Dtype {
    /// Stable wire id.
    pub(crate) fn tag(self) -> u8 {
        match self {
            Dtype::F32 => 0,
            Dtype::F64 => 1,
            Dtype::U64 => 2,
        }
    }

    /// Inverse of [`Dtype::tag`].
    pub(crate) fn from_tag(tag: u8) -> Option<Dtype> {
        match tag {
            0 => Some(Dtype::F32),
            1 => Some(Dtype::F64),
            2 => Some(Dtype::U64),
            _ => None,
        }
    }

    /// Bytes per element.
    pub(crate) fn width(self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::F64 | Dtype::U64 => 8,
        }
    }
}

/// Typed tensor payload.
#[derive(Clone, Debug, PartialEq)]
pub enum TensorData {
    F32(Vec<f32>),
    F64(Vec<f64>),
    U64(Vec<u64>),
}

impl TensorData {
    /// Element type.
    pub(crate) fn dtype(&self) -> Dtype {
        match self {
            TensorData::F32(_) => Dtype::F32,
            TensorData::F64(_) => Dtype::F64,
            TensorData::U64(_) => Dtype::U64,
        }
    }

    /// Element count.
    pub(crate) fn len(&self) -> usize {
        match self {
            TensorData::F32(v) => v.len(),
            TensorData::F64(v) => v.len(),
            TensorData::U64(v) => v.len(),
        }
    }

    /// Little-endian raw bytes — the payload of a tensor in the `0xCB`
    /// blob. Bit-exact by construction: no float formatting, no
    /// rounding, just the IEEE words.
    pub(crate) fn raw_bytes(&self) -> Vec<u8> {
        match self {
            TensorData::F32(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            TensorData::F64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            TensorData::U64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
        }
    }

    /// Inverse of [`TensorData::raw_bytes`]; errors when the byte length
    /// is not a multiple of the element width.
    pub(crate) fn from_raw(dtype: Dtype, bytes: &[u8]) -> Result<TensorData, CkptError> {
        if !bytes.len().is_multiple_of(dtype.width()) {
            return Err(CkptError::Corrupt("tensor byte length vs dtype width"));
        }
        Ok(match dtype {
            Dtype::F32 => TensorData::F32(
                bytes
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect(),
            ),
            Dtype::F64 => TensorData::F64(
                bytes
                    .chunks_exact(8)
                    .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
                    .collect(),
            ),
            Dtype::U64 => TensorData::U64(
                bytes
                    .chunks_exact(8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .collect(),
            ),
        })
    }
}

/// One named 2-D tensor (vectors use `rows == 1`).
#[derive(Clone, Debug, PartialEq)]
pub struct TensorEntry {
    /// Slash-namespaced name, e.g. `kfac/3/eig_a/vectors`.
    pub name: String,
    /// Row count.
    pub rows: usize,
    /// Column count (`rows * cols` must equal the element count).
    pub cols: usize,
    /// Payload.
    pub data: TensorData,
}

impl TensorEntry {
    /// A vector-shaped entry (`1 × n`).
    pub fn vector(name: impl Into<String>, data: TensorData) -> Self {
        let n = data.len();
        TensorEntry {
            name: name.into(),
            rows: 1,
            cols: n,
            data,
        }
    }

    /// A matrix-shaped f32 entry cloned from a [`Matrix`].
    pub fn matrix(name: impl Into<String>, m: &Matrix) -> Self {
        TensorEntry {
            name: name.into(),
            rows: m.rows(),
            cols: m.cols(),
            data: TensorData::F32(m.as_slice().to_vec()),
        }
    }

    /// Reassembles a [`Matrix`] from an f32 entry.
    pub(crate) fn to_matrix(&self) -> Result<Matrix, CkptError> {
        match &self.data {
            TensorData::F32(v) => {
                if v.len() != self.rows * self.cols {
                    return Err(CkptError::Corrupt("tensor shape vs element count"));
                }
                Ok(Matrix::from_vec(self.rows, self.cols, v.clone()))
            }
            _ => Err(CkptError::Corrupt("expected an f32 tensor")),
        }
    }
}

/// One rank's contribution to a coordinated checkpoint.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Global training step the snapshot was taken at.
    pub step: u64,
    /// Named tensors, in serialization order.
    pub tensors: Vec<TensorEntry>,
}

impl Snapshot {
    /// An empty snapshot at `step`.
    pub fn new(step: u64) -> Self {
        Snapshot {
            step,
            tensors: Vec::new(),
        }
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: TensorEntry) {
        self.tensors.push(entry);
    }

    /// Appends a matrix-shaped f32 tensor.
    pub fn push_matrix(&mut self, name: impl Into<String>, m: &Matrix) {
        self.push(TensorEntry::matrix(name, m));
    }

    /// Appends a `1 × n` u64 vector.
    pub fn push_u64s(&mut self, name: impl Into<String>, v: Vec<u64>) {
        self.push(TensorEntry::vector(name, TensorData::U64(v)));
    }

    /// Looks an entry up by exact name.
    pub fn get(&self, name: &str) -> Option<&TensorEntry> {
        self.tensors.iter().find(|t| t.name == name)
    }

    /// Required lookup: errors when the name is missing.
    pub fn require(&self, name: &str) -> Result<&TensorEntry, CkptError> {
        self.get(name)
            .ok_or(CkptError::Corrupt("missing checkpoint tensor"))
    }

    /// Required f32 matrix by name.
    pub fn require_matrix(&self, name: &str) -> Result<Matrix, CkptError> {
        self.require(name)?.to_matrix()
    }

    /// Required u64 vector by name.
    pub fn require_u64s(&self, name: &str) -> Result<&[u64], CkptError> {
        match &self.require(name)?.data {
            TensorData::U64(v) => Ok(v),
            _ => Err(CkptError::Corrupt("expected a u64 tensor")),
        }
    }

    /// Entries whose name starts with `prefix`, in order.
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a TensorEntry> {
        self.tensors
            .iter()
            .filter(move |t| t.name.starts_with(prefix))
    }

    /// Total raw (uncompressed) payload bytes across all tensors.
    pub fn raw_bytes(&self) -> u64 {
        self.tensors
            .iter()
            .map(|t| (t.data.len() * t.data.dtype().width()) as u64)
            .sum()
    }
}

/// Serializes a tensor list into the `0xCB` blob format: a rank's
/// checkpoint file, and the payload of the restore-time collectives.
pub fn encode_tensors(tensors: &[TensorEntry]) -> Vec<u8> {
    let mut w = Writer::with_capacity(64 + tensors.iter().map(|t| t.data.len() * 8).sum::<usize>());
    w.u8(MAGIC_TENSORS);
    w.u16(TENSORS_VERSION);
    w.u32(tensors.len() as u32);
    for t in tensors {
        debug_assert!(t.name.len() <= NAME_MAX, "tensor name too long: {}", t.name);
        w.u16(t.name.len() as u16);
        w.bytes(t.name.as_bytes());
        w.u8(t.data.dtype().tag());
        w.u64(t.rows as u64);
        w.u64(t.cols as u64);
        w.block(&t.data.raw_bytes());
    }
    w.into_bytes()
}

/// Parses a `0xCB` tensor blob. Hostile-length hardened: rejects bad
/// magic/version, caps the tensor count against the bytes present,
/// validates every name length, shape product, and payload length before
/// allocating, and refuses trailing bytes.
pub fn decode_tensors(bytes: &[u8]) -> Result<Vec<TensorEntry>, CkptError> {
    let mut r = Reader::new(bytes);
    if r.u8()? != MAGIC_TENSORS {
        return Err(CkptError::Corrupt("tensor blob magic"));
    }
    if r.u16()? != TENSORS_VERSION {
        return Err(CkptError::Corrupt("tensor blob version"));
    }
    let n = r.u32()? as usize;
    if n > TENSORS_MAX {
        return Err(CkptError::Corrupt("tensor count cap"));
    }
    // Each tensor costs at least name_len(2) + dtype(1) + shape(16) +
    // block length prefix(8) = 27 bytes; a hostile count cannot outrun
    // the buffer.
    if n > r.remaining() / 27 {
        return Err(CkptError::Corrupt("tensor count vs buffer"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_tensor_entry(&mut r)?);
    }
    if !r.is_exhausted() {
        return Err(CkptError::Wire(WireError::Invalid("trailing blob bytes")));
    }
    Ok(out)
}

fn decode_tensor_entry(r: &mut Reader<'_>) -> Result<TensorEntry, CkptError> {
    let name_len = r.u16()? as usize;
    if name_len > NAME_MAX {
        return Err(CkptError::Corrupt("tensor name length"));
    }
    let name = std::str::from_utf8(r.bytes(name_len)?)
        .map_err(|_| CkptError::Corrupt("tensor name utf8"))?
        .to_string();
    let dtype = Dtype::from_tag(r.u8()?).ok_or(CkptError::Corrupt("tensor dtype tag"))?;
    let (rows, cols, elems) = checked_shape(r.u64()?, r.u64()?)?;
    let payload = r.block()?;
    if payload.len() != elems * dtype.width() {
        return Err(CkptError::Corrupt("tensor payload length vs shape"));
    }
    let data = TensorData::from_raw(dtype, payload)?;
    Ok(TensorEntry {
        name,
        rows,
        cols,
        data,
    })
}

/// Validates a `rows × cols` shape: both dimensions and their product
/// must pass the global element cap (`compso_core::wire::checked_count`).
fn checked_shape(rows: u64, cols: u64) -> Result<(usize, usize, usize), CkptError> {
    let rows = checked_count(rows).map_err(CkptError::Wire)?;
    let cols = checked_count(cols).map_err(CkptError::Wire)?;
    let elems = rows
        .checked_mul(cols)
        .ok_or(CkptError::Corrupt("tensor shape overflow"))?;
    checked_count(elems as u64).map_err(CkptError::Wire)?;
    Ok((rows, cols, elems))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TensorEntry> {
        vec![
            TensorEntry::matrix(
                "model/0/params",
                &Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32),
            ),
            TensorEntry::vector("rng/state", TensorData::U64(vec![1, 2, 3, 4])),
            TensorEntry::vector("chol/l", TensorData::F64(vec![0.5, -1.25, 3.75])),
            TensorEntry::vector("empty", TensorData::F32(Vec::new())),
        ]
    }

    #[test]
    fn blob_roundtrip_is_exact() {
        let tensors = sample();
        let blob = encode_tensors(&tensors);
        assert_eq!(decode_tensors(&blob).unwrap(), tensors);
    }

    #[test]
    fn blob_rejects_truncation_everywhere() {
        let blob = encode_tensors(&sample());
        for cut in 0..blob.len() {
            assert!(decode_tensors(&blob[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn blob_rejects_trailing_bytes() {
        let mut blob = encode_tensors(&sample());
        blob.push(0);
        assert!(decode_tensors(&blob).is_err());
    }

    #[test]
    fn hostile_tensor_count_cannot_outrun_buffer() {
        let mut w = Writer::new();
        w.u8(MAGIC_TENSORS);
        w.u16(TENSORS_VERSION);
        w.u32(1 << 15);
        let bytes = w.into_bytes();
        assert!(decode_tensors(&bytes).is_err());
    }

    #[test]
    fn hostile_shape_product_rejected() {
        let mut w = Writer::new();
        w.u8(MAGIC_TENSORS);
        w.u16(TENSORS_VERSION);
        w.u32(1);
        w.u16(1);
        w.bytes(b"x");
        w.u8(Dtype::F32.tag());
        w.u64(1 << 20);
        w.u64(1 << 20); // product 2^40 >> element cap
        w.block(&[]);
        assert!(decode_tensors(&w.into_bytes()).is_err());
    }

    #[test]
    fn raw_bytes_roundtrip_preserves_bits() {
        let data = TensorData::F32(vec![f32::MIN_POSITIVE, -0.0, 1.5e-40, f32::MAX]);
        let back = TensorData::from_raw(Dtype::F32, &data.raw_bytes()).unwrap();
        assert_eq!(back, data);
        let d64 = TensorData::F64(vec![f64::EPSILON, -1.0 / 3.0]);
        assert_eq!(
            TensorData::from_raw(Dtype::F64, &d64.raw_bytes()).unwrap(),
            d64
        );
    }

    #[test]
    fn snapshot_lookup_helpers() {
        let mut s = Snapshot::new(7);
        s.push_matrix("m", &Matrix::identity(2));
        s.push_u64s("u", vec![9]);
        s.push(TensorEntry::vector("f", TensorData::F64(vec![0.25])));
        assert_eq!(s.require_matrix("m").unwrap(), Matrix::identity(2));
        assert_eq!(s.require_u64s("u").unwrap(), &[9]);
        assert!(s.require("missing").is_err());
        assert_eq!(s.with_prefix("m").count(), 1);
        assert_eq!(s.raw_bytes(), 16 + 8 + 8);
    }
}
