//! Byte-mutation fuzz of every wire parser (ISSUE PR 3, satellite).
//!
//! Two formats cross rank boundaries and therefore parse bytes a peer
//! may have corrupted in flight:
//!
//! * `0xC6` — the chunked-parallel v2 stream ([`decompress_chunked`]),
//! * `0xC7` — the one multi-layer group framing every per-layer family
//!   fills ([`Compressor::decompress_group`]; exercised family by family
//!   in the conformance table at the end of this file),
//!
//! plus `0xCF`, the CRC32 checksum frame ([`unframe_checksummed`]) that
//! the distributed K-FAC step wraps around both of them.
//!
//! The checkpoint subsystem (ISSUE: compso-ckpt) adds parsers that read
//! bytes a *crashed process* may have torn or a hostile disk may have
//! corrupted, plus one more cross-rank wire format:
//!
//! * `0xCB` — the snapshot tensor blob ([`decode_tensors`]), which also
//!   crosses rank boundaries, inside the `0xCF` frame, as restore's
//!   shards and globals and as a rejoin's epoch-stamped catch-up
//!   ([`encode_catch_up_shard`]),
//! * `0xCD` — the snapshot manifest ([`Manifest::decode`]) and the
//!   standalone per-rank file metadata ([`RankFileMeta::decode`])
//!   exchanged in the save-time all-gather,
//! * `0xCA` — the PowerSGD low-rank factor stream
//!   ([`PowerSgd::decode`]).
//!
//! All obey the same contract as the gradient formats below.
//!
//! Contract under mutation (ISSUE wording: "decode must return `Err`,
//! never panic, never over-allocate"):
//!
//! * **Truncation** at any strict prefix must return `Err` — every
//!   format either length-prefixes its payload or reads a
//!   header-declared number of trailing values, so a shortened stream
//!   is always structurally detectable.
//! * **Arbitrary single-byte mutation** must never panic and must never
//!   amplify: if the decoder still returns `Ok`, the decoded element
//!   count stays within [`SLACK_ELEMS`] of the original. Value bits may
//!   silently change — these formats carry no internal checksum; that
//!   is exactly the gap the `0xCF` frame closes — but a flipped length
//!   prefix must never buy a hostile peer an outsized allocation.
//! * The **checksum frame** is strictly stronger: *every* single-byte
//!   mutation of a `0xCF` frame must return `Err` (CRC32 detects all
//!   single-byte payload changes; header bytes are covered by the
//!   magic / length / digest cross-checks).
//! * **Random garbage** fed to any parser must not panic, and any
//!   accidental `Ok` must still obey the allocation bound.
//!
//! The proptest shim derives each case's RNG from its case index, so a
//! failure here reproduces exactly; no shrinking, but the reported case
//! index pins the input.

use compso::ckpt::{
    decode_tensors, encode_tensors, Manifest, RankFileMeta, TensorData, TensorEntry,
};
use compso::comm::MembershipFrame;
use compso::core::baselines::{CocktailSgd, PowerSgd, Qsgd, Sz};
use compso::core::kernels::{compress_chunked, decompress_chunked};
use compso::core::synthetic::{generate_layers, GradientProfile};
use compso::core::wire::{
    crc32, frame_checksummed, unframe_checksummed, Reader, WireError, Writer, MAX_DECODE_ELEMS,
};
use compso::core::{
    ChunkedCompso, Codec, CompressError, Compressor, CompsoConfig, KernelConfig, LayerSchedule,
    NoCompression,
};
use compso::kfac::checkpoint::encode_catch_up_shard;
use compso::kfac::LayerState;
use compso::obs::Recorder;
use compso::tensor::reduce::{absmax_flat, minmax_flat};
use compso::tensor::{Instance, Matrix, Rng};
use proptest::prelude::*;

/// How many extra elements a mutated-but-`Ok` decode may report beyond
/// the original stream's element count before we call it amplification.
/// A single flipped byte in a length field can legitimately shift a
/// count by at most 255 in its lowest byte and still pass the
/// structural cross-checks (byte-budget, chunk-table, exhaustion); 64 Ki
/// elements (256 KiB of f32) is comfortably above that and comfortably
/// below anything an attacker could call an allocation win.
const SLACK_ELEMS: usize = 1 << 16;

fn total_elems(layers: &[Vec<f32>]) -> usize {
    layers.iter().map(Vec::len).sum()
}

/// XORs one byte of `bytes` in place, guaranteeing a real change.
fn flip_byte(bytes: &mut [u8], offset_seed: u64, xor: u8) {
    let idx = (offset_seed % bytes.len() as u64) as usize;
    bytes[idx] ^= if xor == 0 { 0xA5 } else { xor };
}

/// A valid chunked v2 (`0xC6`) stream over `data` split into layers.
fn v2_stream(data: &[f32], seed: u64) -> Vec<u8> {
    let (a, b) = data.split_at(data.len() / 2);
    let layers: Vec<&[f32]> = vec![a, b];
    let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
    // Small chunks so multi-chunk layers (the interesting header shape)
    // appear even for short inputs.
    let schedule = LayerSchedule::build(&sizes, 64);
    let kc = KernelConfig::default();
    compress_chunked(
        &layers,
        &CompsoConfig::aggressive(4e-3),
        &kc,
        &schedule,
        &Rng::new(seed),
        &Recorder::disabled(),
    )
}

fn v2_decode(bytes: &[u8]) -> Result<usize, ()> {
    decompress_chunked(bytes, &Recorder::disabled())
        .map(|out| total_elems(&out))
        .map_err(|_| ())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn v2_truncated_stream_always_errs(
        data in proptest::collection::vec(-10.0f32..10.0, 8..1200),
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        let stream = v2_stream(&data, seed);
        let cut = (cut_seed % stream.len() as u64) as usize;
        prop_assert!(
            v2_decode(&stream[..cut]).is_err(),
            "truncation to {cut}/{} bytes decoded Ok",
            stream.len()
        );
    }

    #[test]
    fn v2_byte_mutation_never_panics_or_amplifies(
        data in proptest::collection::vec(-10.0f32..10.0, 8..1200),
        seed in any::<u64>(),
        offset_seed in any::<u64>(),
        xor in any::<u8>(),
    ) {
        let mut stream = v2_stream(&data, seed);
        flip_byte(&mut stream, offset_seed, xor);
        if let Ok(n) = v2_decode(&stream) {
            prop_assert!(
                n <= data.len() + SLACK_ELEMS,
                "mutated stream amplified {} -> {n} elems",
                data.len()
            );
        }
    }

    #[test]
    fn checksum_frame_rejects_every_single_byte_mutation(
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        offset_seed in any::<u64>(),
        xor in any::<u8>(),
    ) {
        let mut frame = frame_checksummed(&payload);
        flip_byte(&mut frame, offset_seed, xor);
        prop_assert!(
            unframe_checksummed(&frame).is_err(),
            "single-byte mutation slipped past the CRC frame"
        );
        // The rejoin catch-up installs optimizer state on a live rank:
        // its frame must refuse every single-byte change outright too.
        let data: Vec<f32> = payload.iter().map(|&b| f32::from(b)).chain([0.5]).collect();
        let mut shard = catch_up_payload(&data, offset_seed);
        flip_byte(&mut shard, offset_seed, xor);
        prop_assert!(
            catch_up_decode(&shard).is_err(),
            "single-byte mutation slipped past the catch-up payload's CRC"
        );
    }

    #[test]
    fn checksum_frame_rejects_every_truncation(
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        cut_seed in any::<u64>(),
    ) {
        let frame = frame_checksummed(&payload);
        let cut = (cut_seed % frame.len() as u64) as usize;
        prop_assert!(
            unframe_checksummed(&frame[..cut]).is_err(),
            "truncation to {cut}/{} bytes unframed Ok",
            frame.len()
        );
    }

    #[test]
    fn random_garbage_never_panics_any_parser(
        garbage in proptest::collection::vec(any::<u8>(), 0..1500),
    ) {
        // Any of these may return Ok by astronomical coincidence; the
        // contract is only "no panic, no amplification".
        if let Ok(n) = v2_decode(&garbage) {
            prop_assert!(
                n <= 8 * garbage.len() + SLACK_ELEMS,
                "garbage decoded to {n} elems from {} bytes",
                garbage.len()
            );
        }
        let _ = unframe_checksummed(&garbage);
    }

    #[test]
    fn valid_streams_still_roundtrip(
        data in proptest::collection::vec(-10.0f32..10.0, 8..900),
        seed in any::<u64>(),
    ) {
        // Sanity anchor: the unmutated encodings decode to the original
        // shape, so the mutation tests above are exercising real
        // parsers rather than vacuous Errs.
        prop_assert_eq!(v2_decode(&v2_stream(&data, seed)), Ok(data.len()));
        let framed = frame_checksummed(&v2_stream(&data, seed));
        prop_assert!(unframe_checksummed(&framed).is_ok());
    }
}

// ---------------------------------------------------------------------
// Checkpoint formats (ISSUE: compso-ckpt satellite): manifest (0xCD),
// standalone rank metadata, and the tensor blob (0xCB).
// ---------------------------------------------------------------------

/// A per-rank file description: rank, file length and file CRC32.
fn rank_meta_fixture(rank: u32, rng: &mut Rng) -> RankFileMeta {
    RankFileMeta {
        rank,
        file_len: rng.next_u64() % (1 << 20),
        file_crc32: rng.next_u64() as u32,
    }
}

fn manifest_stream(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let world = 1 + (rng.next_u64() % 4) as u32;
    let ranks = (0..world).map(|r| rank_meta_fixture(r, &mut rng)).collect();
    Manifest {
        step: rng.next_u64() % 10_000,
        world_size: world,
        fingerprint: rng.next_u64(),
        epoch: rng.next_u64() % 100,
        ranks,
    }
    .encode()
}

fn rank_meta_stream(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    rank_meta_fixture((rng.next_u64() % 8) as u32, &mut rng).encode()
}

fn tensors_stream(data: &[f32], seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let entries = vec![
        TensorEntry::vector("fuzz/f32", TensorData::F32(data.to_vec())),
        TensorEntry::vector(
            "fuzz/u64",
            TensorData::U64((0..9).map(|_| rng.next_u64()).collect()),
        ),
        TensorEntry::vector(
            "fuzz/f64",
            TensorData::F64((0..5).map(|_| rng.normal_f64()).collect()),
        ),
    ];
    encode_tensors(&entries)
}

/// Decoded "size" of a manifest: its rank entries.
fn manifest_decode(bytes: &[u8]) -> Result<usize, ()> {
    Manifest::decode(bytes)
        .map(|m| m.ranks.len())
        .map_err(|_| ())
}

fn rank_meta_decode(bytes: &[u8]) -> Result<usize, ()> {
    RankFileMeta::decode(bytes).map(|_| 1).map_err(|_| ())
}

/// Decoded size of a tensor blob in raw payload bytes.
fn tensors_decode(bytes: &[u8]) -> Result<usize, ()> {
    decode_tensors(bytes)
        .map(|entries| {
            entries
                .iter()
                .map(|e| match &e.data {
                    TensorData::F32(v) => v.len() * 4,
                    TensorData::F64(v) => v.len() * 8,
                    TensorData::U64(v) => v.len() * 8,
                })
                .sum()
        })
        .map_err(|_| ())
}

/// A rejoin catch-up payload as a member sends it: one layer state
/// (factors filled from `data`) plus the epoch entry, encoded as a `0xCB`
/// blob inside the `0xCF` frame.
fn catch_up_payload(data: &[f32], seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let n = 1 + (rng.next_u64() % 6) as usize;
    let state = LayerState {
        a_factor: Matrix::from_fn(n, n, |i, j| data[(i * n + j) % data.len()]),
        g_factor: Matrix::from_fn(2, 2, |i, j| data[(i + j) % data.len()]),
        eig_a: None,
        eig_g: None,
        chol_a: None,
        chol_g: None,
        steps: (rng.next_u64() % 1_000) as usize,
    };
    let shard = encode_catch_up_shard(rng.next_u64() % 1_000, &[(3, state)]);
    frame_checksummed(&encode_tensors(&shard))
}

/// Decoded size of a catch-up payload in raw payload bytes: the frame's
/// CRC first, then the tensor blob inside.
fn catch_up_decode(bytes: &[u8]) -> Result<usize, ()> {
    unframe_checksummed(bytes)
        .map_err(|_| ())
        .and_then(tensors_decode)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn manifest_truncation_always_errs(
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        // Both the full manifest and the standalone rank metadata (the
        // save-time all-gather payload) length-check every field and
        // reject trailing bytes, so any strict prefix must fail its parser.
        let stream = manifest_stream(seed);
        let cut = (cut_seed % stream.len() as u64) as usize;
        prop_assert!(
            manifest_decode(&stream[..cut]).is_err(),
            "manifest prefix {cut}/{} decoded Ok",
            stream.len()
        );
        let meta = rank_meta_stream(seed);
        let cut = (cut_seed % meta.len() as u64) as usize;
        prop_assert!(rank_meta_decode(&meta[..cut]).is_err());
    }

    #[test]
    fn manifest_mutation_never_panics_or_amplifies(
        seed in any::<u64>(),
        offset_seed in any::<u64>(),
        xor in any::<u8>(),
    ) {
        // A flipped byte may survive (the manifest itself carries no
        // CRC — the store wraps it in the 0xCF frame on disk), but a
        // surviving parse must stay within the structural caps: the rank
        // count is cross-checked against the buffer size before any
        // allocation.
        let mut stream = manifest_stream(seed);
        let orig_entries = manifest_decode(&stream).unwrap();
        flip_byte(&mut stream, offset_seed, xor);
        if let Ok(n) = manifest_decode(&stream) {
            prop_assert!(
                n == orig_entries,
                "mutated manifest changed {orig_entries} -> {n} rank entries"
            );
        }
        let mut meta = rank_meta_stream(seed);
        flip_byte(&mut meta, offset_seed, xor);
        let _ = rank_meta_decode(&meta);
    }

    #[test]
    fn tensor_blob_truncation_always_errs(
        data in proptest::collection::vec(-10.0f32..10.0, 4..600),
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        let stream = tensors_stream(&data, seed);
        let cut = (cut_seed % stream.len() as u64) as usize;
        prop_assert!(
            tensors_decode(&stream[..cut]).is_err(),
            "tensor blob prefix {cut}/{} decoded Ok",
            stream.len()
        );
        let payload = catch_up_payload(&data, seed);
        let blob = unframe_checksummed(&payload).unwrap();
        let cut = (cut_seed % blob.len() as u64) as usize;
        prop_assert!(
            tensors_decode(&blob[..cut]).is_err(),
            "catch-up blob prefix {cut}/{} decoded Ok",
            blob.len()
        );
    }

    #[test]
    fn tensor_blob_mutation_never_panics_or_amplifies(
        data in proptest::collection::vec(-10.0f32..10.0, 4..600),
        seed in any::<u64>(),
        offset_seed in any::<u64>(),
        xor in any::<u8>(),
    ) {
        let mut stream = tensors_stream(&data, seed);
        flip_byte(&mut stream, offset_seed, xor);
        if let Ok(raw_bytes) = tensors_decode(&stream) {
            prop_assert!(
                raw_bytes <= 8 * stream.len() + SLACK_ELEMS,
                "mutated tensor blob amplified to {raw_bytes} raw bytes \
                 from {} wire bytes",
                stream.len()
            );
        }
    }

    #[test]
    fn random_garbage_never_panics_checkpoint_parsers(
        garbage in proptest::collection::vec(any::<u8>(), 0..1500),
    ) {
        for decode in [manifest_decode, rank_meta_decode, tensors_decode, catch_up_decode] {
            if let Ok(n) = decode(&garbage) {
                prop_assert!(
                    n <= 8 * garbage.len() + SLACK_ELEMS,
                    "garbage decoded to size {n} from {} bytes",
                    garbage.len()
                );
            }
        }
    }

    #[test]
    fn valid_checkpoint_streams_still_roundtrip(
        data in proptest::collection::vec(-10.0f32..10.0, 8..600),
        seed in any::<u64>(),
    ) {
        // Sanity anchors, as above.
        prop_assert!(manifest_decode(&manifest_stream(seed)).is_ok());
        prop_assert!(rank_meta_decode(&rank_meta_stream(seed)).is_ok());
        let expected_raw = data.len() * 4 + 9 * 8 + 5 * 8;
        prop_assert_eq!(tensors_decode(&tensors_stream(&data, seed)), Ok(expected_raw));
        prop_assert!(catch_up_decode(&catch_up_payload(&data, seed)).is_ok());
    }
}

// ---------------------------------------------------------------------
// Elastic-membership format (ISSUE: elastic satellite): the `0xC9`
// membership frame (proposals, rejoin requests, welcomes — parsed from
// raw frames a *dead or hostile* peer may have left in flight). The
// rejoin's catch-up payload is a `0xCF`-framed `0xCB` blob, fuzzed with
// the checkpoint formats above.
// ---------------------------------------------------------------------

/// One of the three membership frame kinds, seed-selected so all wire
/// shapes (including empty and multi-entry rank lists) appear.
fn membership_stream(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let nranks = (rng.next_u64() % 6) as usize;
    let ranks: Vec<u32> = (0..nranks)
        .map(|_| (rng.next_u64() % 4096) as u32)
        .collect();
    let frame = match rng.next_u64() % 3 {
        0 => MembershipFrame::Proposal {
            epoch: rng.next_u64() % 1_000,
            round: (rng.next_u64() % 64) as u32,
            sender: (rng.next_u64() % 4096) as u32,
            ranks,
        },
        1 => MembershipFrame::RejoinRequest {
            epoch: rng.next_u64() % 1_000,
            sender: (rng.next_u64() % 4096) as u32,
        },
        _ => MembershipFrame::Welcome {
            epoch: rng.next_u64() % 1_000,
            sender: (rng.next_u64() % 4096) as u32,
            barrier_gen: rng.next_u64() % 10_000,
            step: rng.next_u64() % 10_000,
            ranks,
        },
    };
    frame.encode()
}

/// Decoded "size" of a membership frame: its rank-list length.
fn membership_decode(bytes: &[u8]) -> Result<usize, ()> {
    MembershipFrame::decode(bytes)
        .map(|f| match f {
            MembershipFrame::Proposal { ranks, .. } | MembershipFrame::Welcome { ranks, .. } => {
                ranks.len()
            }
            MembershipFrame::RejoinRequest { .. } => 0,
        })
        .map_err(|_| ())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn membership_frame_truncation_always_errs(
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        let stream = membership_stream(seed);
        let cut = (cut_seed % stream.len() as u64) as usize;
        prop_assert!(
            membership_decode(&stream[..cut]).is_err(),
            "membership prefix {cut}/{} decoded Ok",
            stream.len()
        );
    }

    #[test]
    fn membership_frame_mutation_never_panics_or_amplifies(
        seed in any::<u64>(),
        offset_seed in any::<u64>(),
        xor in any::<u8>(),
    ) {
        // Membership frames travel as raw (sequence-less) data frames,
        // so their CRC lives in the transport envelope, not the frame:
        // a mutated frame may still parse, but the rank-list cap
        // (RANKS_MAX = 4096) bounds what a flipped count byte can buy,
        // and a kind/magic flip must never panic.
        let mut stream = membership_stream(seed);
        flip_byte(&mut stream, offset_seed, xor);
        if let Ok(n) = membership_decode(&stream) {
            prop_assert!(n <= 4096, "mutated membership frame grew {n} ranks");
        }
    }

    #[test]
    fn random_garbage_never_panics_elastic_parsers(
        garbage in proptest::collection::vec(any::<u8>(), 0..1500),
    ) {
        if let Ok(n) = membership_decode(&garbage) {
            prop_assert!(n <= 4096);
        }
    }

    #[test]
    fn valid_elastic_streams_still_roundtrip(seed in any::<u64>()) {
        prop_assert!(membership_decode(&membership_stream(seed)).is_ok());
    }
}

// ---------------------------------------------------------------------
// PowerSGD low-rank factor stream (ISSUE: adaptive control plane): the
// `0xCA` frame carries a `P̂`/`Q` factor pair (or a raw escape for
// inputs too small to pay for factorization). Its defense against
// allocation amplification is structural: the decoder *recomputes* the
// canonical matrix shape from the element count and rejects any header
// whose rows/cols disagree, so a flipped dimension byte cannot buy a
// rows×cols allocation unbacked by the declared count.
// ---------------------------------------------------------------------

fn powersgd_stream(data: &[f32]) -> Vec<u8> {
    PowerSgd::rank(2).encode(data)
}

fn powersgd_decode(bytes: &[u8]) -> Result<usize, ()> {
    PowerSgd::decode(bytes).map(|out| out.len()).map_err(|_| ())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn powersgd_truncation_always_errs(
        data in proptest::collection::vec(-10.0f32..10.0, 2..1200),
        cut_seed in any::<u64>(),
    ) {
        let stream = powersgd_stream(&data);
        let cut = (cut_seed % stream.len() as u64) as usize;
        prop_assert!(
            powersgd_decode(&stream[..cut]).is_err(),
            "powersgd prefix {cut}/{} decoded Ok",
            stream.len()
        );
    }

    #[test]
    fn powersgd_mutation_never_panics_or_amplifies(
        data in proptest::collection::vec(-10.0f32..10.0, 2..1200),
        offset_seed in any::<u64>(),
        xor in any::<u8>(),
    ) {
        // A surviving parse can only change *values* (factor floats have
        // no checksum — the 0xCF envelope covers that in transit); the
        // canonical-shape cross-check pins the decoded length to the
        // declared count, which a flipped count byte can move by at most
        // its byte weight before the shape/exhaustion checks fire.
        let mut stream = powersgd_stream(&data);
        flip_byte(&mut stream, offset_seed, xor);
        if let Ok(n) = powersgd_decode(&stream) {
            prop_assert!(
                n <= data.len() + SLACK_ELEMS,
                "mutated powersgd stream amplified {} -> {n} elems",
                data.len()
            );
        }
    }

    #[test]
    fn powersgd_garbage_never_panics(
        garbage in proptest::collection::vec(any::<u8>(), 0..1500),
    ) {
        if let Ok(n) = powersgd_decode(&garbage) {
            prop_assert!(
                n <= 8 * garbage.len() + SLACK_ELEMS,
                "garbage decoded to {n} elems from {} bytes",
                garbage.len()
            );
        }
    }

    #[test]
    fn powersgd_valid_streams_still_roundtrip(
        data in proptest::collection::vec(-10.0f32..10.0, 2..1200),
    ) {
        // Sanity anchor: both wire modes (raw escape for tiny inputs,
        // low-rank factors for larger ones) decode to the input length.
        prop_assert_eq!(powersgd_decode(&powersgd_stream(&data)), Ok(data.len()));
    }
}

// ---------------------------------------------------------------------
// Compressor conformance: one table, one campaign, every family behind
// the surviving surface (`compress_group`, `compress_group_keyed`,
// `decompress_group`). A new family costs one row.
// ---------------------------------------------------------------------

/// A family's stated per-element error contract.
enum Contract {
    /// Every decoded element sits within `bound(layer)` of the original.
    Within(fn(&[f32]) -> f32),
    /// As `Within`, or the element was dropped and decodes to exactly 0.0.
    WithinOrDropped(fn(&[f32]) -> f32),
    /// No per-element bound is stated.
    Unstated,
}

/// One compressor family under the conformance campaign.
struct Family {
    /// A fresh instance (stateful families must start cold each time).
    make: fn() -> Box<dyn Compressor>,
    contract: Contract,
}

fn value_range(layer: &[f32]) -> f32 {
    let mm = minmax_flat(layer);
    if layer.is_empty() {
        0.0
    } else {
        mm.max - mm.min
    }
}

/// COMPSO at 4e-3: the filter and the quantizer are both bounded by
/// `eb × range` (a filtered value decodes to 0.0 *within* that bound).
fn compso_bound(layer: &[f32]) -> f32 {
    4e-3 * value_range(layer) * 1.01 + 1e-7
}

const FAMILIES: &[Family] = &[
    Family {
        make: || Box::new(NoCompression),
        contract: Contract::Within(|_| 0.0),
    },
    Family {
        make: || Box::new(ChunkedCompso::new(CompsoConfig::aggressive(4e-3))),
        contract: Contract::Within(compso_bound),
    },
    Family {
        // Alg. 1's conservative bound: 9-bit codes, so the flagged frame
        // — a third index column and a third block — with the subnormal
        // layer's 3-bit codes inside it, a low byte each and no plane
        // slice.
        make: || Box::new(ChunkedCompso::new(CompsoConfig::conservative(2e-3))),
        contract: Contract::Within(|l| 2e-3 * value_range(l) * 1.01 + 1e-7),
    },
    Family {
        // A loose bound an adaptive controller picks: 25 or 26 bins, 5-bit
        // codes, one low byte each in an unflagged frame.
        make: || Box::new(ChunkedCompso::new(CompsoConfig::conservative(4e-2))),
        contract: Contract::Within(|l| 4e-2 * value_range(l) * 1.01 + 1e-7),
    },
    Family {
        // Past 9 bits no AVX2 body runs: 1000 bins, 10-bit codes, merged
        // by the portable `unsplit_map`'s plane-group path.
        make: || Box::new(ChunkedCompso::new(CompsoConfig::conservative(1e-3))),
        contract: Contract::Within(|l| 1e-3 * value_range(l) * 1.01 + 1e-7),
    },
    Family {
        // 100 000 bins, 17-bit codes: past the plane-group path's 16 bits.
        make: || Box::new(ChunkedCompso::new(CompsoConfig::conservative(1e-5))),
        contract: Contract::Within(|l| 1e-5 * value_range(l) * 1.01 + 1e-7),
    },
    Family {
        make: || Box::new(Qsgd::bits4()),
        contract: Contract::Within(|l| absmax_flat(l) / Qsgd::bits4().levels() as f32 * 1.001),
    },
    Family {
        make: || Box::new(Qsgd::bits8()),
        contract: Contract::Within(|l| absmax_flat(l) / Qsgd::bits8().levels() as f32 * 1.001),
    },
    Family {
        make: || Box::new(Sz::new(4e-3)),
        contract: Contract::Within(|l| 4e-3 * value_range(l) * 1.001 + 1e-7),
    },
    Family {
        make: || Box::new(CocktailSgd::standard()),
        contract: Contract::WithinOrDropped(|l| absmax_flat(l) / 127.0),
    },
    Family {
        // Low-rank: the error lives in the tail singular values, no
        // per-element bound is stated.
        make: || Box::new(PowerSgd::rank(2)),
        contract: Contract::Unstated,
    },
];

/// Two layers of very different scale with an empty one between them
/// (the shapes a K-FAC aggregation group really has), and one whose value
/// range is so subnormal that `eb × range` underflows to zero.
fn conformance_layers(seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Rng::new(seed);
    let small: Vec<f32> = (0..150).map(|_| rng.laplace(0.01)).collect();
    let large: Vec<f32> = (0..97).map(|_| rng.range_f32(-10.0, 10.0)).collect();
    vec![small, Vec::new(), large, vec![0.0, 1e-44, 4e-45]]
}

fn group_decode(c: &dyn Compressor, bytes: &[u8]) -> Result<usize, ()> {
    c.decompress_group(bytes, &Recorder::disabled())
        .map(|out| total_elems(&out))
        .map_err(|_| ())
}

/// [`conformance_layers`] with a `+Inf` and a `-Inf` written into the
/// large layer: its finite values are held to the bound of their own
/// range.
fn conformance_layers_with_infinities(seed: u64) -> Vec<Vec<f32>> {
    let mut layers = conformance_layers(seed);
    layers[2][10] = f32::INFINITY;
    layers[2][40] = f32::NEG_INFINITY;
    layers
}

/// Runs `check(family, compressor, layers, stream)` for every row of the
/// table on three fixtures; `stream` is the row's `compress_group` output.
fn for_every_family(check: impl Fn(&Family, &dyn Compressor, &[Vec<f32>], &[u8])) {
    let fixtures = [
        conformance_layers(11),
        conformance_layers(12),
        conformance_layers_with_infinities(13),
    ];
    for family in FAMILIES {
        for (seed, layers) in (11u64..).zip(&fixtures) {
            let refs: Vec<&[f32]> = layers.iter().map(Vec::as_slice).collect();
            let c = (family.make)();
            let mut rng = Rng::new(seed ^ 0xC0DE);
            let stream = c.compress_group(&refs, None, &mut rng, &Recorder::disabled());

            // `compress_group` is `compress_group_keyed` with positional
            // keys: same bytes, same generator afterwards.
            let keyed: Vec<(u64, &[f32])> = (0u64..).zip(refs.iter().copied()).collect();
            let mut rng_keyed = Rng::new(seed ^ 0xC0DE);
            let from_keys = (family.make)().compress_group_keyed(
                &keyed,
                None,
                &mut rng_keyed,
                &Recorder::disabled(),
            );
            assert_eq!(from_keys, stream, "{}: positional keys", c.name());
            assert_eq!(rng.next_u64(), rng_keyed.next_u64(), "{}: rng", c.name());

            check(family, c.as_ref(), layers, &stream);
        }
    }
}

#[test]
fn every_family_roundtrips_within_its_contract() {
    for_every_family(|family, c, layers, stream| {
        let name = c.name();
        let back = c
            .decompress_group(stream, &Recorder::disabled())
            .expect(name);
        assert_eq!(back.len(), layers.len(), "{name}: layer count");
        for (li, (orig, dec)) in layers.iter().zip(&back).enumerate() {
            assert_eq!(orig.len(), dec.len(), "{name}: layer {li} length");
            // Bounds come from the finite values, and only they are
            // held to one.
            let finite: Vec<f32> = orig.iter().copied().filter(|x| x.is_finite()).collect();
            let (bound, may_drop) = match family.contract {
                Contract::Within(bound) => (bound(&finite), false),
                Contract::WithinOrDropped(bound) => (bound(&finite), true),
                Contract::Unstated => continue,
            };
            for (&x, &y) in orig.iter().zip(dec).filter(|(x, _)| x.is_finite()) {
                assert!(
                    (x - y).abs() <= bound || (may_drop && y == 0.0),
                    "{name}: layer {li}: {x} decoded as {y}, bound {bound}"
                );
            }
        }
    });
}

/// The campaign runs once per instance this host has, the decoding
/// thread pinned to it: the portable decoder stays covered on a wide
/// host, and the AVX2 decode (the rANS coder's and the chunk records'
/// dequantize, which the AVX-512 instance runs too) gets the same
/// totality check.
#[test]
fn every_family_is_total_on_hostile_bytes() {
    for inst in Instance::ALL.into_iter().filter(|inst| inst.available()) {
        let _pin = inst.pin();
        for_every_family(|_, c, layers, stream| {
            let name = format!("{} on {inst:?}", c.name());
            // Truncation at every strict prefix errs; so does one trailing
            // byte.
            for cut in 0..stream.len() {
                assert!(
                    group_decode(c, &stream[..cut]).is_err(),
                    "{name}: prefix {cut}/{} decoded Ok",
                    stream.len()
                );
            }
            let mut padded = stream.to_vec();
            padded.push(0);
            assert!(
                group_decode(c, &padded).is_err(),
                "{name}: trailing byte accepted"
            );
            // The retired magics (the serial v1 stream, the layer-parallel
            // group framing) open no family's stream.
            for retired in [0xC5u8, 0xC8] {
                let mut reopened = stream.to_vec();
                reopened[0] = retired;
                assert!(
                    group_decode(c, &reopened).is_err(),
                    "{name}: retired magic {retired:#x} accepted"
                );
            }

            // A single-byte mutation anywhere never panics and never
            // amplifies (values may silently change: that is the 0xCF
            // frame's job).
            let mut xors = Rng::new(stream.len() as u64);
            for at in 0..stream.len() {
                let mut mutated = stream.to_vec();
                flip_byte(&mut mutated, at as u64, xors.next_u64() as u8);
                if let Ok(n) = group_decode(c, &mutated) {
                    assert!(
                        n <= total_elems(layers) + SLACK_ELEMS,
                        "{name}: byte {at} amplified {} -> {n} elems",
                        total_elems(layers)
                    );
                }
            }
        });
    }
}

#[test]
fn every_family_survives_non_finite_layers() {
    let finite = conformance_layers(14).swap_remove(2);
    let with = |at: usize, v: f32| {
        let mut layer = finite.clone();
        layer[at] = v;
        layer
    };
    // A diverged layer must not kill the rank that compresses it, nor
    // split the ranks that decode it: every family encodes every f32
    // without a panic into a stream that decodes `Ok` at the input's
    // lengths (which values come back is DESIGN.md §9.7's, not this
    // test's).
    let (inf, nan) = (f32::INFINITY, f32::NAN);
    let mut extremes = with(2, f32::MAX);
    extremes[9] = f32::MIN;
    let groups = [
        ("NaN", vec![vec![nan; 40], with(3, nan)]),
        ("one ±Inf", vec![with(5, inf), with(7, -inf)]),
        ("all +Inf", vec![vec![inf; 40]]),
        ("all -Inf", vec![vec![-inf; 40]]),
        ("+Inf/NaN", vec![[inf, nan].repeat(20)]),
        ("f32::MAX and f32::MIN", vec![extremes]),
    ];
    let lens = |ls: &[Vec<f32>]| ls.iter().map(Vec::len).collect::<Vec<_>>();
    for family in FAMILIES {
        for (what, layers) in &groups {
            let refs: Vec<&[f32]> = layers.iter().map(Vec::as_slice).collect();
            let c = (family.make)();
            let stream = c.compress_group(&refs, None, &mut Rng::new(14), &Recorder::disabled());
            let back = c.decompress_group(&stream, &Recorder::disabled());
            let name = c.name();
            let back = back.unwrap_or_else(|e| panic!("{name} on {what}: {e:?}"));
            assert_eq!(lens(&back), lens(layers), "{name} on {what}");
        }
    }
}

#[test]
fn no_compression_group_size_is_pinned() {
    // magic + u32 count, then per layer a u64 block length, the block's
    // own u64 element count and the raw values: 5 + Σ(16 + 4·nᵢ).
    let layers = conformance_layers(13);
    let refs: Vec<&[f32]> = layers.iter().map(Vec::as_slice).collect();
    let stream = NoCompression.compress_group(&refs, None, &mut Rng::new(1), &Recorder::disabled());
    let expected: usize = 5 + layers.iter().map(|l| 16 + 4 * l.len()).sum::<usize>();
    assert_eq!(stream.len(), expected);
}

/// A well-formed block of the retired single-lane rANS layout (stream
/// mode 1): `n` copies of one symbol. The whole frequency table sits on
/// that symbol, so the coder's state never leaves its lower bound and the
/// renormalization stream is empty — the parent commit decoded these
/// bytes to `n` copies of `symbol`.
fn retired_rans_block(n: u64, symbol: u8) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(1); // mode: single-lane rANS
    w.u64(n);
    for s in 0..=255u8 {
        w.u16(if s == symbol { 4096 } else { 0 });
    }
    w.u32(1 << 23); // final state = the lower renormalization bound
    w.block(&[]);
    w.into_bytes()
}

/// One container an rANS block travels in.
struct RansContainer {
    name: &'static str,
    /// Wraps `block`, an rANS stream that declares `n` decoded bytes.
    wrap: fn(block: &[u8], n: u64) -> Vec<u8>,
    decode: fn(&[u8]) -> Result<usize, CompressError>,
}

fn block_frame(codec: Codec, block: &[u8], n: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(codec.tag());
    w.u64(n); // total bytes
    w.u64(n); // block size: one block
    w.u32(1);
    w.block(block);
    w.into_bytes()
}

fn decode_block_frame(bytes: &[u8]) -> Result<usize, CompressError> {
    Ok(Codec::decode_blocks(bytes)?.len())
}

const RANS_CONTAINERS: &[RansContainer] = &[
    RansContainer {
        name: "Ans block frame",
        wrap: |block, n| block_frame(Codec::Ans, block, n),
        decode: decode_block_frame,
    },
    RansContainer {
        name: "Zstd block frame",
        wrap: |block, n| block_frame(Codec::Zstd, block, n),
        decode: decode_block_frame,
    },
    RansContainer {
        name: "SZ stream",
        wrap: |block, n| {
            let mut w = Writer::new();
            w.u64(n / 2); // two code bytes per element
            w.f32(1e-3);
            w.block(block);
            w.u64(0); // no outliers
            w.into_bytes()
        },
        decode: |bytes| Sz::decode(Instance::current(), bytes).map(|v| v.len()),
    },
];

#[test]
fn retired_rans_layout_is_rejected_in_every_container() {
    // The block declares the largest count a header may (symbol 0: SZ's
    // code 0 is two zero bytes). The error names the mode byte, so the
    // block was refused before that count was read and nothing was
    // allocated from it.
    let n = MAX_DECODE_ELEMS as u64;
    let retired = retired_rans_block(n, 0);
    for c in RANS_CONTAINERS {
        assert_eq!(
            (c.decode)(&(c.wrap)(&retired, n)),
            Err(CompressError::Wire(WireError::Invalid("rans mode byte"))),
            "{}",
            c.name
        );
    }
}

/// A well-formed block of the live 32-lane layout (stream mode 3) that
/// decodes to `n` copies of `symbol` from an empty stream: the whole
/// model sits on the symbol, so no lane's state ever moves.
fn constant_rans_block(n: u64, symbol: u8) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(3); // mode: 32-lane rANS
    w.u64(n);
    let mut map = [0u8; 32]; // presence map: one symbol
    map[symbol as usize / 8] = 1 << (symbol % 8);
    w.bytes(&map);
    w.bytes(&[0x80, 32]); // its frequency, 4096 = 32·128 + 0, in two bytes
    for _ in 0..32 {
        w.u32(1 << 15); // every lane at the lower renormalization bound
    }
    w.block(&[]);
    w.into_bytes()
}

/// `f`'s result on every rANS instance this host has — each run with the
/// calling thread pinned to it — after checking that they all agree.
fn on_every_instance<T: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> T) -> T {
    let mut runs = Instance::ALL
        .into_iter()
        .filter(|inst| inst.available())
        .map(|inst| {
            let _pin = inst.pin();
            (inst, f())
        });
    let (_, first) = runs.next().expect("the portable instance runs everywhere");
    for (inst, other) in runs {
        assert_eq!(other, first, "{what}: {inst:?} against Portable");
    }
    first
}

#[test]
fn a_block_is_held_to_its_window_not_to_its_own_header() {
    // Eight blocks of an 8 KiB frame, each a valid stream declaring the
    // largest count a header may. The parent commit decoded every one —
    // 8 × 256 MiB — before comparing the sum with the frame's total;
    // each is now refused against its 1 KiB window before a symbol is
    // decoded, and the buffer handed in never grows past the total.
    let (block, k) = (1024u64, 8u64);
    let frame = |blocks: &[Vec<u8>]| {
        let mut w = Writer::new();
        w.u8(Codec::Ans.tag());
        w.u64(block * k);
        w.u64(block);
        w.u32(k as u32);
        for b in blocks {
            w.block(b);
        }
        w.into_bytes()
    };
    let honest = constant_rans_block(block, 0);
    let mut out = Vec::new();
    Codec::decode_blocks_into(&frame(&vec![honest.clone(); 8]), &mut out).unwrap();
    assert_eq!(out, vec![0u8; 8 * 1024]);

    let hostile = constant_rans_block(MAX_DECODE_ELEMS as u64, 0);
    for bad in [hostile, constant_rans_block(block - 1, 0)] {
        // Every block hostile, then one hostile block among honest ones.
        let mut mixed = vec![honest.clone(); 8];
        mixed[5] = bad.clone();
        for blocks in [vec![bad.clone(); 8], mixed] {
            assert_eq!(
                Codec::decode_blocks_into(&frame(&blocks), &mut out),
                Err(WireError::Invalid("block payload length"))
            );
            assert!(out.is_empty() && out.capacity() <= 8 * 1024);
        }
    }
}

#[test]
fn block_encoder_output_is_pinned() {
    // Length and CRC-32 of `encode_blocks` over a seeded code stream,
    // captured when the 32-lane layout (stream mode 3) replaced the
    // eight-lane byte-wise one, and emitted alike by both instances: the
    // bytes production puts on the wire and into checkpoints.
    let mut rng = Rng::new(0xB10C);
    let codes: Vec<u8> = (0..300_000)
        .map(|_| (64.0 + rng.laplace(3.0)).clamp(0.0, 127.0) as u8)
        .collect();
    for (codec, len, crc) in [
        (Codec::Ans, 152_570usize, 3_954_847_987u32),
        (Codec::Zstd, 216_332, 3_380_537_727),
    ] {
        let enc = on_every_instance(codec.name(), || codec.encode_blocks(&codes, 64 * 1024));
        assert_eq!((enc.len(), crc32(&enc)), (len, crc), "{}", codec.name());
        let back = on_every_instance(codec.name(), || Codec::decode_blocks(&enc));
        assert_eq!(back.unwrap(), codes);
    }
}

#[test]
fn rans_instances_agree_through_the_block_codec() {
    // Both rANS instances behind the public block codec: byte-identical
    // frames at every tail length of two lane groups and across a block
    // boundary, and the same bytes or the same error from every
    // truncated or mutated frame.
    let mut rng = Rng::new(0x1A7E);
    let codes: Vec<u8> = (0..70_000)
        .map(|_| (128.0 + rng.laplace(2.0)).clamp(0.0, 255.0) as u8)
        .collect();
    for n in (0..=64).chain([4096, 20_000, 70_000]) {
        let enc = on_every_instance("encode", || {
            Codec::Ans.encode_blocks(&codes[..n], 32 * 1024)
        });
        let back = on_every_instance("decode", || Codec::decode_blocks(&enc));
        assert_eq!(back.unwrap(), &codes[..n], "n={n}");
    }
    let enc = Codec::Ans.encode_blocks(&codes[..20_000], 32 * 1024);
    for cut in (0..enc.len()).step_by(97) {
        let _ = on_every_instance("truncated", || Codec::decode_blocks(&enc[..cut]));
    }
    for _ in 0..600 {
        let mut bad = enc.clone();
        for _ in 0..1 + rng.next_u32() % 3 {
            let i = rng.next_u32() as usize % bad.len();
            bad[i] ^= 1 << (rng.next_u32() % 8);
        }
        let _ = on_every_instance("mutated", || Codec::decode_blocks(&bad));
    }
}

/// Seeded K-FAC-like layers, several chunks each, compressed as one
/// group under `config`.
fn compso_group_frame(config: CompsoConfig) -> Vec<u8> {
    let layers = generate_layers(&[40_000, 0, 1234, 20_001], 0xF4A3, GradientProfile::kfac());
    let refs: Vec<&[f32]> = layers.iter().map(Vec::as_slice).collect();
    ChunkedCompso::new(config).compress_group(
        &refs,
        None,
        &mut Rng::new(0x5EED),
        &Recorder::disabled(),
    )
}

#[test]
fn a_narrow_frame_is_the_parent_commits_frame() {
    // Length and CRC-32 of two frames whose codes fit a byte: version 2,
    // flags 0, two index columns, two blocks. Captured when the 32-lane
    // rANS layout replaced the eight-lane one (the frame around the
    // blocks is the one the commit before wide chunks wrote), and
    // emitted alike by both rANS instances.
    for (config, len, crc) in [
        (CompsoConfig::aggressive(4e-3), 12_262usize, 250_903_416u32),
        (CompsoConfig::conservative(4e-3), 25_938, 3_040_534_880),
    ] {
        let frame = on_every_instance("frame", || compso_group_frame(config));
        assert_eq!(frame[3], 0, "{config:?}: flags");
        assert_eq!((frame.len(), crc32(&frame)), (len, crc), "{config:?}");
    }
}

/// The three streams' blocks of a wide (flagged) 0xC6 frame, and the
/// bytes ahead of them.
fn wide_frame_blocks(frame: &[u8]) -> (&[u8], [&[u8]; 3]) {
    assert_eq!(frame[3], 1, "not a wide frame");
    let mut r = Reader::new(frame);
    r.bytes(4).unwrap();
    let n_layers = r.u32().unwrap() as usize;
    r.bytes(8 * n_layers + 8).unwrap();
    let n_chunks = r.u32().unwrap() as usize;
    r.bytes(24 * n_chunks).unwrap();
    let head = &frame[..frame.len() - r.remaining()];
    let blocks = [(); 3].map(|()| r.block().unwrap());
    assert!(r.is_exhausted());
    (head, blocks)
}

#[test]
fn a_wide_frame_is_held_to_its_flag_and_its_plane_stream() {
    let wide = compso_group_frame(CompsoConfig::conservative(2e-3));
    let (head, [bitmaps, codes, planes]) = wide_frame_blocks(&wide);
    let plane_bytes = Codec::decode_blocks(planes).unwrap();
    // One bit per 9-bit code, each 16 Ki chunk's slice padded to a byte.
    let chunks = [16_384usize, 16_384, 7232, 1234, 16_384, 3617];
    assert_eq!(
        plane_bytes.len(),
        chunks.iter().map(|n| n.div_ceil(8)).sum::<usize>()
    );
    // The plane block swapped for a well-formed block of another length
    // — a byte short, a byte long, empty, a chunk's worth long: some
    // chunk's slice is no longer the length its header implies.
    for other in [
        plane_bytes.len() - 1,
        plane_bytes.len() + 1,
        0,
        plane_bytes.len() + 2048,
    ] {
        let mut w = Writer::new();
        w.bytes(head);
        w.block(bitmaps);
        w.block(codes);
        w.block(&Codec::Ans.encode_blocks(&vec![0u8; other], 256 * 1024));
        assert!(v2_decode(&w.into_bytes()).is_err(), "planes of {other} B");
    }
    // The honest frame with its third block dropped, or doubled.
    let two = wide.len() - 8 - planes.len();
    assert!(v2_decode(&wide[..two]).is_err());
    let mut doubled = wide.clone();
    doubled.extend_from_slice(&wide[two..]);
    assert!(v2_decode(&doubled).is_err());

    // A narrow frame with the flag forced on, and a wide one with it
    // forced off, no longer parse; no other flag bit is accepted on
    // either.
    let narrow = compso_group_frame(CompsoConfig::aggressive(4e-3));
    assert_eq!(v2_decode(&narrow), v2_decode(&wide));
    for honest in [&narrow, &wide] {
        for flags in 0..=255u8 {
            let mut forced = honest.clone();
            forced[3] = flags;
            assert_eq!(
                v2_decode(&forced).is_ok(),
                flags == honest[3],
                "flags {flags:#x} over {:#x}",
                honest[3]
            );
        }
    }
}

/// A 0xC6 frame declaring `layers` layers of [`MAX_DECODE_ELEMS`]
/// elements, one chunk each, with an all-zero offset index over empty
/// streams.
fn oversized_frame(layers: u32) -> Vec<u8> {
    let mut w = Writer::new();
    // Magic, version, codec tag and flags of an honest narrow frame.
    w.bytes(&v2_stream(&[1.0, 2.0], 1)[..4]);
    w.u32(layers);
    for _ in 0..layers {
        w.u64(MAX_DECODE_ELEMS as u64);
    }
    w.u64(MAX_DECODE_ELEMS as u64);
    w.u32(layers);
    for _ in 0..2 * layers {
        w.u64(0);
    }
    let empty = Codec::Ans.encode_blocks(&[], 256 * 1024);
    w.block(&empty);
    w.block(&empty);
    w.into_bytes()
}

#[test]
fn a_header_is_held_to_the_element_cap_across_its_layers() {
    // Every layer size is at the cap, so each passes on its own; their
    // sum is refused before the decoder zero-fills a layer. Each layer
    // alone is 1 GiB of zeros, so 200 000 of them must not reach an
    // allocation: a failed one aborts the process.
    for layers in [2, 200_000] {
        assert_eq!(
            decompress_chunked(&oversized_frame(layers), &Recorder::disabled()).map(|_| ()),
            Err(CompressError::Wire(WireError::Invalid(
                "layer sizes over cap"
            ))),
            "{layers} layers"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_garbage_never_panics_any_family(
        garbage in proptest::collection::vec(any::<u8>(), 0..1500),
    ) {
        for family in FAMILIES {
            let c = (family.make)();
            if let Ok(n) = group_decode(c.as_ref(), &garbage) {
                prop_assert!(
                    n <= 8 * garbage.len() + SLACK_ELEMS,
                    "{}: garbage decoded to {n} elems from {} bytes",
                    c.name(),
                    garbage.len()
                );
            }
        }
    }
}
