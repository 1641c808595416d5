//! Ring collectives over [`Communicator`]s.
//!
//! The algorithms are the textbook bandwidth-optimal ring formulations —
//! the same family NCCL uses on the paper's clusters:
//!
//! * **all-reduce** = ring reduce-scatter (each rank ends up owning the
//!   fully-reduced `r`-th block) followed by ring all-gather; the first
//!   half alone is [`reduce_scatter_sum`], over caller-chosen blocks, for
//!   data only one rank reads (K-FAC's gradients: a layer's owner);
//! * **all-gather** circulates blocks around the ring for `p - 1` steps,
//!   with a variable-size variant for compressed payloads whose per-rank
//!   sizes differ (§4.3: "KFAC uses AllGather, avoiding [ring-allreduce
//!   error propagation]");
//! * **broadcast** (of bytes: checkpoint globals, rejoin catch-up) is a
//!   flat fan-out from the root (some K-FAC implementations overlap
//!   broadcasts per layer; flat is enough for the correctness role this
//!   substrate plays).
//!
//! Every collective is **fallible**: receives are deadline-bounded and
//! surface [`CommError::Timeout`] naming the peer and the collective
//! instead of deadlocking, and transport faults injected by an armed
//! [`crate::fault::FaultPlane`] are absorbed transparently by the
//! NACK/retransmit layer in [`crate::group`].

use crate::group::{CommError, Communicator, Payload};
use compso_obs::names;
use std::ops::Range;

/// Splits `len` into `parts` contiguous block ranges, sizes differing by at
/// most one (first `len % parts` blocks are one longer).
pub fn block_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts > 0);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let sz = base + usize::from(p < extra);
        out.push(start..start + sz);
        start += sz;
    }
    out
}

/// Receives one ring-reduction hop from `left` and checks it is the
/// `len` values the schedule says it must be: a peer reducing a buffer
/// of another size is a protocol breach, not a reason to sum garbage or
/// panic.
fn recv_hop(
    comm: &mut Communicator,
    left: usize,
    label: &'static str,
    len: usize,
) -> Result<Vec<f32>, CommError> {
    let incoming = comm.recv_labeled(left, label)?.try_f32()?;
    if incoming.len() != len {
        return Err(CommError::Protocol {
            expected: "reduction block of matching size",
        });
    }
    Ok(incoming)
}

/// The reduce-scatter half of the ring: `p - 1` hops, one message each.
/// At hop `s`, rank `r` sends block `r - s - 1` and accumulates the
/// incoming block `r - s - 2` into its own copy, so the last hop lands
/// the fully reduced `ranges[r]` on rank `r`.
fn ring_reduce_scatter(
    comm: &mut Communicator,
    data: &mut [f32],
    ranges: &[Range<usize>],
) -> Result<(), CommError> {
    let p = comm.size();
    let r = comm.rank();
    let left = comm.left();
    let right = comm.right();
    for s in 0..p - 1 {
        let send_block = (r + p - s - 1) % p;
        let recv_block = (r + p - s - 2) % p;
        let chunk = data[ranges[send_block].clone()].to_vec();
        comm.send(right, Payload::F32(chunk))?;
        let dst = &mut data[ranges[recv_block].clone()];
        let incoming = recv_hop(comm, left, names::COMM_ALLREDUCE, dst.len())?;
        for (d, v) in dst.iter_mut().zip(incoming) {
            *d += v;
        }
    }
    Ok(())
}

/// Sum reduce-scatter — the first half of [`allreduce_sum`], for callers
/// where only one rank reads each block: on return rank `r`'s
/// `data[ranges[r]]` holds the elementwise sum across ranks; the rest of
/// `data` holds partial sums and is unspecified. `ranges` gives one block
/// per rank, in rank order; together they must tile `data`, in any
/// order, and a block may be empty (a rank that reduces nothing still
/// forwards). Every rank must pass the same `ranges`. Each rank sends
/// every block but its own exactly once — `(p - 1)/p` of the buffer for
/// even blocks, half what the all-reduce moves.
///
/// Recorded like the all-reduce it is half of: the `comm/allreduce_sum`
/// span and one `comm/allreduce_calls` per call.
pub fn reduce_scatter_sum(
    comm: &mut Communicator,
    data: &mut [f32],
    ranges: &[Range<usize>],
) -> Result<(), CommError> {
    let _span = comm.recorder().span(names::COMM_ALLREDUCE);
    comm.recorder().incr(names::COMM_ALLREDUCE_CALLS);
    let tiles = ranges.len() == comm.size()
        && ranges
            .iter()
            .all(|b| b.start <= b.end && b.end <= data.len())
        && ranges.iter().map(|b| b.len()).sum::<usize>() == data.len();
    if !tiles {
        return Err(CommError::Protocol {
            expected: "one block range per rank, tiling the buffer",
        });
    }
    ring_reduce_scatter(comm, data, ranges)
}

/// Sum all-reduce: on return every rank's `data` holds the elementwise sum
/// across ranks. Bandwidth-optimal ring (reduce-scatter + all-gather).
pub fn allreduce_sum(comm: &mut Communicator, data: &mut [f32]) -> Result<(), CommError> {
    let _span = comm.recorder().span(names::COMM_ALLREDUCE);
    comm.recorder().incr(names::COMM_ALLREDUCE_CALLS);
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    // Blocks indexed by the rank that reduces — and then owns — them:
    // rank q takes block (q + 1) mod p, the ring's natural landing spot.
    let mut ranges = block_ranges(data.len(), p);
    ranges.rotate_left(1);
    let r = comm.rank();
    let left = comm.left();
    let right = comm.right();

    // Phase 1: reduce-scatter.
    ring_reduce_scatter(comm, data, &ranges)?;

    // Phase 2: all-gather the reduced blocks. At step s, rank r forwards
    // rank (r - s)'s block — its own to start with — and receives rank
    // (r - s - 1)'s.
    for s in 0..p - 1 {
        let send_block = (r + p - s) % p;
        let recv_block = (r + p - s - 1) % p;
        let chunk = data[ranges[send_block].clone()].to_vec();
        comm.send(right, Payload::F32(chunk))?;
        let dst = &mut data[ranges[recv_block].clone()];
        let incoming = recv_hop(comm, left, names::COMM_ALLREDUCE, dst.len())?;
        dst.copy_from_slice(&incoming);
    }
    Ok(())
}

/// Average all-reduce: all-reduce then divide by the rank count — the form
/// data-parallel gradient synchronization uses.
pub fn allreduce_mean(comm: &mut Communicator, data: &mut [f32]) -> Result<(), CommError> {
    allreduce_sum(comm, data)?;
    let inv = 1.0 / comm.size() as f32;
    for v in data.iter_mut() {
        *v *= inv;
    }
    Ok(())
}

/// Fixed-size ring all-gather of f32 blocks. Every rank contributes
/// `mine`; returns the concatenation ordered by rank.
pub fn allgather(comm: &mut Communicator, mine: &[f32]) -> Result<Vec<f32>, CommError> {
    let _span = comm.recorder().span(names::COMM_ALLGATHER);
    let p = comm.size();
    let n = mine.len();
    let mut out = vec![0.0f32; n * p];
    let r = comm.rank();
    out[r * n..(r + 1) * n].copy_from_slice(mine);
    if p == 1 {
        return Ok(out);
    }
    let left = comm.left();
    let right = comm.right();
    for s in 0..p - 1 {
        let send_block = (r + p - s) % p;
        let recv_block = (r + p - s - 1) % p;
        comm.send(
            right,
            Payload::F32(out[send_block * n..(send_block + 1) * n].to_vec()),
        )?;
        let incoming = comm.recv_labeled(left, names::COMM_ALLGATHER)?.try_f32()?;
        if incoming.len() != n {
            return Err(CommError::Protocol {
                expected: "allgather block of matching size",
            });
        }
        out[recv_block * n..(recv_block + 1) * n].copy_from_slice(&incoming);
    }
    Ok(out)
}

/// Variable-size ring all-gather of byte blocks — the collective compressed
/// K-FAC gradients travel over, since per-rank compressed sizes differ.
/// Returns one buffer per rank, in rank order.
pub fn allgather_var(comm: &mut Communicator, mine: Vec<u8>) -> Result<Vec<Vec<u8>>, CommError> {
    let _span = comm.recorder().span(names::COMM_ALLGATHER_VAR);
    comm.recorder().incr(names::COMM_ALLGATHER_VAR_CALLS);
    allgather_var_quiet(comm, mine, names::COMM_ALLGATHER_VAR)
}

/// [`allgather_var`] without the `comm/allgather_var` span/counter —
/// used by auxiliary exchanges (the degradation ladder's repair status
/// round) that must not perturb call-count invariants on the main
/// collective. Errors carry `label` as the collective name.
pub fn allgather_var_quiet(
    comm: &mut Communicator,
    mine: Vec<u8>,
    label: &'static str,
) -> Result<Vec<Vec<u8>>, CommError> {
    let p = comm.size();
    let r = comm.rank();
    let mut blocks: Vec<Option<Vec<u8>>> = (0..p).map(|_| None).collect();
    blocks[r] = Some(mine);
    if p == 1 {
        // lint:allow(no-unwrap-on-comm-path): p == 1, so the only block is ours and was just set
        return Ok(blocks.into_iter().map(|b| b.unwrap()).collect());
    }
    let left = comm.left();
    let right = comm.right();
    for s in 0..p - 1 {
        let send_block = (r + p - s) % p;
        let recv_block = (r + p - s - 1) % p;
        let outgoing = blocks[send_block].clone().ok_or(CommError::Protocol {
            expected: "ring schedule: block present before its send hop",
        })?;
        comm.send(right, Payload::Bytes(outgoing))?;
        let incoming = comm.recv_labeled(left, label)?.try_bytes()?;
        blocks[recv_block] = Some(incoming);
    }
    blocks
        .into_iter()
        .map(|b| {
            b.ok_or(CommError::Protocol {
                expected: "ring schedule: all blocks received after p - 1 hops",
            })
        })
        .collect()
}

/// Pipelined variable-size ring all-gather: the COMPSO overlap primitive.
///
/// Each rank contributes `groups_per_rank[rank]` byte blocks (one per
/// aggregation group) that are **produced lazily** while earlier blocks
/// circulate the ring, and every received block is **delivered as it
/// lands** instead of after the full gather. `groups_per_rank` must be
/// identical on every rank (in the hot path it is derived from the
/// globally known layer shapes); every rank computes the same hop
/// schedule from it, so slots past a rank's last group circulate no
/// filler traffic at all — on imbalanced ownership only the widest
/// rank's blocks keep hopping. Per pipeline slot `g`:
///
/// 1. the rank sends its own `g`-th block right (nothing when `g` is
///    past its last group);
/// 2. it immediately calls `produce(g + 1)` — rank-local compression of
///    the *next* group overlaps the `p − 1` ring hops of the current
///    slot;
/// 3. it runs the `p − 1` hops, skipping origins with no block in this
///    slot: receive from the left, forward right *before* delivering
///    (so downstream ranks are never stalled behind this rank's
///    decode), then hand the block to `deliver(origin, g, bytes)` —
///    streaming per-group decode overlapping later hops.
///
/// `produce(g)` is called exactly once per own group, strictly in order
/// `0..groups_per_rank[rank]` — callers that advance an RNG per group
/// therefore consume the identical stream as a compress-then-gather
/// loop, which is what keeps the pipelined path bit-identical.
/// `deliver` is called exactly once per `(origin, group)` pair for every
/// *other* rank's groups (a rank's own blocks never come back around the
/// ring; the caller keeps its own clean copies).
///
/// Exposed (un-overlapped) receive time accumulates in
/// `comm/pipeline/wait`; the producer/delivery callbacks are timed under
/// `comm/pipeline/produce` and `comm/pipeline/deliver`, and each call
/// adds the slot count to `comm/pipeline_stages`. Transport faults from
/// an armed [`crate::fault::FaultPlane`] are absorbed by the ARQ layer
/// exactly as for [`allgather_var`].
pub fn pipelined_allgather(
    comm: &mut Communicator,
    groups_per_rank: &[usize],
    mut produce: impl FnMut(usize) -> Vec<u8>,
    mut deliver: impl FnMut(usize, usize, Vec<u8>),
) -> Result<(), CommError> {
    let rec = comm.recorder().clone();
    let _span = rec.span(names::COMM_PIPELINED_ALLGATHER);
    rec.incr(names::COMM_PIPELINED_ALLGATHER_CALLS);
    let p = comm.size();
    let r = comm.rank();
    if groups_per_rank.len() != p {
        return Err(CommError::Protocol {
            expected: "one group count per rank",
        });
    }
    let g_me = groups_per_rank[r];
    let g_max = groups_per_rank.iter().copied().max().unwrap_or(0);
    rec.add(names::COMM_PIPELINE_STAGES, g_max as u64);
    let mut timed_produce = |g: usize| -> Vec<u8> {
        // lint:allow(deterministic-state): span timing for obs counters; the produced bytes are clock-independent
        let t0 = std::time::Instant::now();
        let block = produce(g);
        rec.add_time_ns(
            names::COMM_PIPELINE_PRODUCE,
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        block
    };
    if p == 1 {
        // Degenerate ring: no wire, but the producer must still run once
        // per group in order so the caller's RNG stream matches.
        for g in 0..g_me {
            let _ = timed_produce(g);
        }
        return Ok(());
    }
    let left = comm.left();
    let right = comm.right();
    let mut next: Option<Vec<u8>> = (g_me > 0).then(|| timed_produce(0));
    for slot in 0..g_max {
        // Empty slots hop nothing: `groups_per_rank` is global
        // knowledge, so every rank derives the same schedule and skips
        // the send/recv pair outright instead of circulating filler
        // blocks. On imbalanced ownership (one rank owning most groups,
        // the common case that motivates pipelining) this halves the
        // message count — slots past the small ranks' last group carry
        // only the big owner's blocks.
        if slot < g_me {
            let own = next.take().ok_or(CommError::Protocol {
                expected: "pipeline schedule: own block produced before its slot",
            })?;
            comm.send(right, Payload::Bytes(own))?;
        }
        // The overlap: compress the next group while this slot's blocks
        // make their way around the ring.
        if slot + 1 < g_me {
            next = Some(timed_produce(slot + 1));
        }
        for s in 0..p - 1 {
            let origin = (r + p - s - 1) % p;
            if slot >= groups_per_rank[origin] {
                continue;
            }
            // lint:allow(deterministic-state): recv-wait timing for obs counters only; never alters the bytes delivered
            let t0 = std::time::Instant::now();
            let incoming = comm
                .recv_labeled(left, names::COMM_PIPELINED_ALLGATHER)?
                .try_bytes()?;
            rec.add_time_ns(
                names::COMM_PIPELINE_WAIT,
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
            // Forward before delivering: the downstream ranks' hop `s+1`
            // must not wait behind this rank's decode of the block.
            if s < p - 2 {
                comm.send(right, Payload::Bytes(incoming.clone()))?;
            }
            // lint:allow(deterministic-state): deliver timing for obs counters only
            let t1 = std::time::Instant::now();
            deliver(origin, slot, incoming);
            rec.add_time_ns(
                names::COMM_PIPELINE_DELIVER,
                u64::try_from(t1.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
    }
    Ok(())
}

/// Lossy-compressed ring all-reduce: every reduce-scatter hop compresses
/// its outgoing chunk with `codec` (encode → decode at the receiver),
/// so quantization error **accumulates across the `p − 1` hops** — the
/// §4.3 observation that makes ring all-reduce a poor fit for gradient
/// compression ("SGD relies on ring AllReduce, which has the error
/// propagation issue; KFAC uses AllGather, avoiding this issue").
///
/// `codec` maps a chunk to its lossy reconstruction (a compressor's
/// compress∘decompress); the all-gather phase also travels compressed.
/// Returns the per-rank reduced buffer, averaged.
pub fn compressed_allreduce_mean(
    comm: &mut Communicator,
    data: &mut [f32],
    mut codec: impl FnMut(&[f32]) -> Vec<f32>,
) -> Result<(), CommError> {
    let _span = comm.recorder().span(names::COMM_COMPRESSED_ALLREDUCE);
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    let ranges = block_ranges(data.len(), p);
    let r = comm.rank();
    let left = comm.left();
    let right = comm.right();

    // Reduce-scatter with per-hop lossy compression.
    for s in 0..p - 1 {
        let send_block = (r + p - s) % p;
        let recv_block = (r + p - s - 1) % p;
        let chunk = codec(&data[ranges[send_block].clone()]);
        comm.send(right, Payload::F32(chunk))?;
        let dst = &mut data[ranges[recv_block].clone()];
        let incoming = recv_hop(comm, left, names::COMM_COMPRESSED_ALLREDUCE, dst.len())?;
        for (d, v) in dst.iter_mut().zip(incoming) {
            *d += v;
        }
    }

    // All-gather of the reduced blocks, also compressed (one more hop of
    // loss, matching compressed-allreduce implementations).
    for s in 0..p - 1 {
        let send_block = (r + 1 + p - s) % p;
        let recv_block = (r + p - s) % p;
        let chunk = codec(&data[ranges[send_block].clone()]);
        comm.send(right, Payload::F32(chunk))?;
        let dst = &mut data[ranges[recv_block].clone()];
        let incoming = recv_hop(comm, left, names::COMM_COMPRESSED_ALLREDUCE, dst.len())?;
        dst.copy_from_slice(&incoming);
    }

    let inv = 1.0 / p as f32;
    for v in data.iter_mut() {
        *v *= inv;
    }
    Ok(())
}

/// Broadcast opaque bytes from `root` to all ranks (flat fan-out).
pub fn broadcast_bytes(
    comm: &mut Communicator,
    root: usize,
    data: &mut Vec<u8>,
) -> Result<(), CommError> {
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    if comm.rank() == root {
        for dst in 0..p {
            if dst != root {
                comm.send(dst, Payload::Bytes(data.clone()))?;
            }
        }
    } else {
        *data = comm
            .recv_labeled(root, names::COMM_BROADCAST_BYTES)?
            .try_bytes()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPlane};
    use crate::group::{run_ranks, run_ranks_with, CommConfig};
    use std::time::Duration;

    #[test]
    fn block_ranges_cover_exactly() {
        for len in [0usize, 1, 7, 16, 100] {
            for parts in [1usize, 2, 3, 8] {
                let rs = block_ranges(len, parts);
                assert_eq!(rs.len(), parts);
                assert_eq!(rs[0].start, 0);
                assert_eq!(rs.last().unwrap().end, len);
                for w in rs.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                    assert!(w[0].len() >= w[1].len());
                    assert!(w[0].len() - w[1].len() <= 1);
                }
            }
        }
    }

    #[test]
    fn allreduce_sum_matches_serial() {
        for p in [1usize, 2, 3, 4, 7] {
            for len in [1usize, 5, 64, 129] {
                let results = run_ranks(p, |comm| {
                    let r = comm.rank();
                    let mut data: Vec<f32> =
                        (0..len).map(|i| (r * 1000 + i) as f32 * 0.5).collect();
                    allreduce_sum(comm, &mut data).unwrap();
                    data
                });
                let expected: Vec<f32> = (0..len)
                    .map(|i| (0..p).map(|r| (r * 1000 + i) as f32 * 0.5).sum())
                    .collect();
                for (rank, res) in results.iter().enumerate() {
                    for (a, b) in res.iter().zip(&expected) {
                        assert!(
                            (a - b).abs() < 1e-3,
                            "p={p} len={len} rank={rank}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    /// The parent commit's `allreduce_sum` (b214b47), verbatim but for
    /// the span: the oracle the refactored routine must equal bit for bit.
    fn parent_allreduce_sum(comm: &mut Communicator, data: &mut [f32]) -> Result<(), CommError> {
        let p = comm.size();
        if p == 1 {
            return Ok(());
        }
        let ranges = block_ranges(data.len(), p);
        let r = comm.rank();
        let left = comm.left();
        let right = comm.right();
        for s in 0..p - 1 {
            let send_block = (r + p - s) % p;
            let recv_block = (r + p - s - 1) % p;
            let chunk = data[ranges[send_block].clone()].to_vec();
            comm.send(right, Payload::F32(chunk))?;
            let incoming = comm.recv_labeled(left, names::COMM_ALLREDUCE)?.try_f32()?;
            let dst = &mut data[ranges[recv_block].clone()];
            assert_eq!(incoming.len(), dst.len());
            for (d, v) in dst.iter_mut().zip(incoming) {
                *d += v;
            }
        }
        for s in 0..p - 1 {
            let send_block = (r + 1 + p - s) % p;
            let recv_block = (r + p - s) % p;
            let chunk = data[ranges[send_block].clone()].to_vec();
            comm.send(right, Payload::F32(chunk))?;
            let incoming = comm.recv_labeled(left, names::COMM_ALLREDUCE)?.try_f32()?;
            data[ranges[recv_block].clone()].copy_from_slice(&incoming);
        }
        Ok(())
    }

    /// Rank `r`'s test buffer: irrational-ish values, so a changed
    /// summation order would show in the low bits.
    fn noisy(r: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((r + 1) as f32 * 0.731 + i as f32 * 0.113).sin())
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn allreduce_is_bit_equal_to_the_parent_routine() {
        for p in [1usize, 2, 3, 4, 7] {
            for len in [1usize, 5, 64, 129] {
                let results = run_ranks(p, |comm| {
                    let mut want = noisy(comm.rank(), len);
                    parent_allreduce_sum(comm, &mut want).unwrap();
                    let mut sum = noisy(comm.rank(), len);
                    allreduce_sum(comm, &mut sum).unwrap();
                    let mut mean = noisy(comm.rank(), len);
                    allreduce_mean(comm, &mut mean).unwrap();
                    (want, sum, mean)
                });
                for (rank, (want, sum, mean)) in results.iter().enumerate() {
                    assert_eq!(bits(sum), bits(want), "p={p} len={len} rank={rank}");
                    let scaled: Vec<f32> = want.iter().map(|v| v * (1.0 / p as f32)).collect();
                    assert_eq!(bits(mean), bits(&scaled), "p={p} len={len} rank={rank}");
                }
            }
        }
    }

    /// Consecutive blocks of the given sizes, then rotated left by
    /// `rotate` ranks: still a tiling, no longer in buffer order.
    fn tiling(sizes: &[usize], rotate: usize) -> Vec<Range<usize>> {
        let mut start = 0;
        let mut out: Vec<Range<usize>> = sizes
            .iter()
            .map(|&n| {
                start += n;
                start - n..start
            })
            .collect();
        out.rotate_left(rotate % sizes.len());
        out
    }

    #[test]
    fn reduce_scatter_lands_each_block_on_its_rank_and_sends_the_rest_once() {
        for p in [1usize, 2, 3, 4, 7] {
            let even = vec![6usize; p];
            // Uneven with empty blocks: sizes 5, 0, 15, 10, 5, 0, 15.
            let uneven: Vec<usize> = (0..p).map(|q| 5 * ((q * 3 + 1) % 4)).collect();
            for (sizes, rotate) in [(&even, 0), (&uneven, 0), (&uneven, 1), (&even, p / 2)] {
                let ranges = tiling(sizes, rotate);
                let n: usize = sizes.iter().sum();
                let ranges_ref = &ranges;
                let results = run_ranks(p, move |comm| {
                    // Small integers: every summation order is exact.
                    let mut data: Vec<f32> =
                        (0..n).map(|i| (comm.rank() * 100 + i) as f32).collect();
                    let before = comm.sent_bytes();
                    reduce_scatter_sum(comm, &mut data, ranges_ref).unwrap();
                    (data, comm.sent_bytes() - before)
                });
                for (rank, (data, sent)) in results.iter().enumerate() {
                    let tag = format!("p={p} sizes={sizes:?} rotate={rotate} rank={rank}");
                    let mine = ranges[rank].clone();
                    let want: Vec<f32> = (mine.clone())
                        .map(|i| (0..p).map(|r| (r * 100 + i) as f32).sum())
                        .collect();
                    assert_eq!(&data[mine.clone()], &want[..], "{tag}");
                    assert_eq!(*sent, 4 * (n - mine.len()) as u64, "{tag}");
                }
            }
        }
    }

    #[test]
    fn reduce_scatter_rejects_ranges_that_do_not_tile_the_buffer() {
        let results = run_ranks(2, |comm| {
            let mut data = vec![1.0f32; 8];
            // A block too many, past the end, a gap.
            [vec![0..2, 2..5, 5..8], vec![0..4, 4..9], vec![0..3, 4..8]]
                .map(|ranges| reduce_scatter_sum(comm, &mut data, &ranges))
        });
        for res in results.iter().flatten() {
            assert!(matches!(res, Err(CommError::Protocol { .. })), "{res:?}");
        }
    }

    #[test]
    fn mismatched_buffer_lengths_are_errors_not_panics_or_wrong_sums() {
        // Rank 1 reduces two more values than rank 0, so some hop carries
        // a block the receiver's schedule sizes differently.
        let config = CommConfig {
            recv_timeout: Duration::from_millis(300),
            ..CommConfig::default()
        };
        type Collective = fn(&mut Communicator, &mut [f32]) -> Result<(), CommError>;
        let collectives: [Collective; 3] = [
            |comm, data| allreduce_sum(comm, data),
            |comm, data| {
                let ranges = block_ranges(data.len(), comm.size());
                reduce_scatter_sum(comm, data, &ranges)
            },
            |comm, data| compressed_allreduce_mean(comm, data, |c| c.to_vec()),
        ];
        for collective in collectives {
            for p in [2usize, 3] {
                let results = run_ranks_with(p, FaultPlane::disabled(), config.clone(), |comm| {
                    let mut data = vec![1.0f32; 10 + 2 * usize::from(comm.rank() == 1)];
                    collective(comm, &mut data)
                });
                // The rank that sees the mismatch names it — at two ranks
                // that is both. On a longer ring a peer left waiting for
                // it surfaces a deadline error at worst, and a rank whose
                // own hops all matched may finish.
                let named =
                    |r: &Result<(), CommError>| matches!(r, Err(CommError::Protocol { .. }));
                assert!(results.iter().any(named), "{results:?}");
                assert!(p > 2 || results.iter().all(named), "{results:?}");
                let unblamed =
                    |r: &Result<(), CommError>| !matches!(r, Err(CommError::Poisoned { .. }));
                assert!(results.iter().all(unblamed), "a rank panicked: {results:?}");
            }
        }
    }

    #[test]
    fn a_short_all_gather_hop_is_a_protocol_error() {
        // Phase 2 only sees a wrong size from a peer that got phase 1
        // right, so rank 1 plays the ring by hand: a correct
        // reduce-scatter hop, then a short all-gather hop.
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                return allreduce_sum(comm, &mut [1.0f32; 10]);
            }
            comm.send(0, Payload::F32(vec![1.0; 5]))?;
            comm.recv_labeled(0, names::COMM_ALLREDUCE)?;
            comm.send(0, Payload::F32(vec![2.0; 3]))?;
            // Rank 0 sends before it receives: stay for its hop.
            comm.recv_labeled(0, names::COMM_ALLREDUCE)?;
            Ok(())
        });
        assert!(matches!(results[0], Err(CommError::Protocol { .. })));
    }

    #[test]
    fn allreduce_mean_divides() {
        let results = run_ranks(4, |comm| {
            let mut data = vec![comm.rank() as f32; 10];
            allreduce_mean(comm, &mut data).unwrap();
            data
        });
        for res in results {
            for v in res {
                assert!((v - 1.5).abs() < 1e-6); // (0+1+2+3)/4
            }
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        for p in [1usize, 2, 5] {
            let results = run_ranks(p, |comm| {
                let mine = vec![comm.rank() as f32; 3];
                allgather(comm, &mine).unwrap()
            });
            let expected: Vec<f32> = (0..p).flat_map(|r| vec![r as f32; 3]).collect();
            for res in results {
                assert_eq!(res, expected);
            }
        }
    }

    #[test]
    fn allgather_var_handles_unequal_sizes() {
        let p = 5;
        let results = run_ranks(p, |comm| {
            let r = comm.rank();
            let mine: Vec<u8> = (0..(r * 3 + 1)).map(|i| (r * 10 + i) as u8).collect();
            allgather_var(comm, mine).unwrap()
        });
        for res in &results {
            assert_eq!(res.len(), p);
            for (r, block) in res.iter().enumerate() {
                let expected: Vec<u8> = (0..(r * 3 + 1)).map(|i| (r * 10 + i) as u8).collect();
                assert_eq!(block, &expected);
            }
        }
    }

    #[test]
    fn allgather_var_empty_blocks_ok() {
        let results = run_ranks(3, |comm| {
            let mine = if comm.rank() == 1 {
                vec![7u8]
            } else {
                Vec::new()
            };
            allgather_var(comm, mine).unwrap()
        });
        for res in results {
            assert_eq!(res[0], Vec::<u8>::new());
            assert_eq!(res[1], vec![7u8]);
            assert_eq!(res[2], Vec::<u8>::new());
        }
    }

    #[test]
    fn compressed_allreduce_is_exact_with_identity_codec() {
        let results = run_ranks(4, |comm| {
            let mut data: Vec<f32> = (0..32).map(|i| (comm.rank() * 32 + i) as f32).collect();
            compressed_allreduce_mean(comm, &mut data, |c| c.to_vec()).unwrap();
            data
        });
        let expected: Vec<f32> = (0..32)
            .map(|i| (0..4).map(|r| (r * 32 + i) as f32).sum::<f32>() / 4.0)
            .collect();
        for res in results {
            for (a, b) in res.iter().zip(&expected) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    /// The §4.3 error-propagation claim, quantified: with the same lossy
    /// codec, a compressed ring all-reduce accumulates error across hops
    /// while a compressed all-gather pays the loss exactly once, and the
    /// all-reduce error grows with the ring size.
    #[test]
    fn ring_allreduce_accumulates_compression_error_allgather_does_not() {
        // A crude lossy codec: quantize to a fixed grid.
        let grid = 0.02f32;
        let lossy =
            move |c: &[f32]| -> Vec<f32> { c.iter().map(|&v| (v / grid).round() * grid).collect() };
        let n = 256usize;

        // Error on the reduced *sum* (the quantity the collective moves):
        // a single compression of the sum would err by at most grid/2;
        // per-hop compression requantizes partial sums p-1 times.
        let allreduce_err = |p: usize| -> f64 {
            let results = run_ranks(p, |comm| {
                let mut data: Vec<f32> = (0..n)
                    .map(|i| ((comm.rank() + 1) as f32 * 0.137 + i as f32 * 0.0113).sin() * 0.1)
                    .collect();
                let exact_sum: Vec<f32> = (0..n)
                    .map(|i| {
                        (0..p)
                            .map(|r| ((r + 1) as f32 * 0.137 + i as f32 * 0.0113).sin() * 0.1)
                            .sum::<f32>()
                    })
                    .collect();
                compressed_allreduce_mean(comm, &mut data, lossy).unwrap();
                data.iter()
                    .zip(&exact_sum)
                    .map(|(&a, &b)| ((a * p as f32 - b) as f64).abs())
                    .fold(0.0f64, f64::max)
            });
            results.into_iter().fold(0.0, f64::max)
        };

        let allgather_err = |p: usize| -> f64 {
            let results = run_ranks(p, |comm| {
                let mine: Vec<f32> = (0..n)
                    .map(|i| ((comm.rank() + 1) as f32 * 0.137 + i as f32 * 0.0113).sin() * 0.1)
                    .collect();
                // All-gather path: compress once at the source.
                let gathered = allgather(comm, &lossy(&mine)).unwrap();
                // Error vs the exact gathered data.
                let mut worst = 0.0f64;
                for r in 0..p {
                    for i in 0..n {
                        let exact = ((r + 1) as f32 * 0.137 + i as f32 * 0.0113).sin() * 0.1;
                        worst = worst.max(((gathered[r * n + i] - exact) as f64).abs());
                    }
                }
                worst
            });
            results.into_iter().fold(0.0, f64::max)
        };

        let single_hop = grid as f64 / 2.0;
        // All-gather: exactly one quantization, independent of p.
        assert!(allgather_err(2) <= single_hop * 1.01);
        assert!(allgather_err(8) <= single_hop * 1.01);
        // All-reduce: error grows with the ring size and exceeds one hop.
        let ar2 = allreduce_err(2);
        let ar8 = allreduce_err(8);
        assert!(ar8 > ar2, "no accumulation: p=2 {ar2} vs p=8 {ar8}");
        assert!(
            ar8 > single_hop * 2.0,
            "p=8 all-reduce error {ar8} vs single hop {single_hop}"
        );
    }

    #[test]
    fn recorder_times_collectives_and_counts_traffic() {
        use compso_obs::{names, Recorder};
        let rec = Recorder::enabled();
        let rec_ref = &rec;
        run_ranks(4, |comm| {
            comm.set_recorder(rec_ref.clone());
            let mut data = vec![comm.rank() as f32; 64];
            allreduce_sum(comm, &mut data).unwrap();
            reduce_scatter_sum(comm, &mut data, &block_ranges(64, 4)).unwrap();
            let gathered = allgather_var(comm, vec![0u8; 16 * (comm.rank() + 1)]).unwrap();
            assert_eq!(gathered.len(), 4);
        });
        let snap = rec.snapshot();
        // One timed span per rank per collective; the reduce-scatter
        // records as the all-reduce it is half of, once — reached
        // through `allreduce_sum` it adds nothing.
        assert_eq!(snap.timers[names::COMM_ALLREDUCE].count, 8);
        assert_eq!(snap.timers[names::COMM_ALLGATHER_VAR].count, 4);
        // Invocation counters match the span counts (the bucketing
        // acceptance check in compso-kfac leans on these).
        assert_eq!(snap.counter(names::COMM_ALLREDUCE_CALLS), 8);
        assert_eq!(snap.counter(names::COMM_ALLGATHER_VAR_CALLS), 4);
        // Every send was counted and histogrammed.
        let sent = snap.counter(names::COMM_BYTES_SENT);
        assert!(sent > 0);
        let hist = &snap.hists[names::COMM_MSG_BYTES];
        assert_eq!(hist.sum, sent);
        // allreduce: 4 ranks × 2(p-1)=6 sends; reduce-scatter and
        // allgather_var: 4 ranks × 3 each.
        assert_eq!(hist.count, 4 * 6 + 4 * 3 + 4 * 3);
        // No retries or faults on the clean path.
        assert_eq!(snap.counter(names::COMM_RETRY_RESENDS), 0);
        assert_eq!(snap.counter(names::COMM_FAULT_CRC_DETECTED), 0);
    }

    #[test]
    fn broadcast_bytes_roundtrip() {
        let results = run_ranks(4, |comm| {
            let mut data = if comm.rank() == 2 {
                vec![1u8, 2, 3, 4, 5]
            } else {
                Vec::new()
            };
            broadcast_bytes(comm, 2, &mut data).unwrap();
            data
        });
        for res in results {
            assert_eq!(res, vec![1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn allreduce_len_smaller_than_ranks() {
        // Degenerate blocks (empty ranges) must still work.
        let results = run_ranks(6, |comm| {
            let mut data = vec![1.0f32; 2];
            allreduce_sum(comm, &mut data).unwrap();
            data
        });
        for res in results {
            assert_eq!(res, vec![6.0, 6.0]);
        }
    }

    #[test]
    fn collectives_survive_injected_transport_faults() {
        // Ring collectives under drops + wire corruption + one straggler:
        // results must be bit-identical to the fault-free run.
        let plane = FaultPlane::new(FaultConfig {
            seed: 2024,
            drop_p: 0.05,
            corrupt_wire_p: 0.05,
            straggler: Some((1, Duration::from_micros(200))),
            ..FaultConfig::default()
        });
        let ledger_plane = plane.clone();
        let config = CommConfig {
            recv_timeout: Duration::from_secs(30),
            retry_initial: Duration::from_millis(40),
            max_retries: 12,
            ..CommConfig::default()
        };
        let p = 4;
        let faulty = run_ranks_with(p, plane, config, |comm| {
            let mut data: Vec<f32> = (0..97).map(|i| (comm.rank() * 97 + i) as f32).collect();
            allreduce_sum(comm, &mut data).unwrap();
            let mine: Vec<u8> = vec![comm.rank() as u8; 11 * (comm.rank() + 1)];
            let gathered = allgather_var(comm, mine).unwrap();
            comm.barrier().unwrap();
            (data, gathered)
        });
        let clean = run_ranks(p, |comm| {
            let mut data: Vec<f32> = (0..97).map(|i| (comm.rank() * 97 + i) as f32).collect();
            allreduce_sum(comm, &mut data).unwrap();
            let mine: Vec<u8> = vec![comm.rank() as u8; 11 * (comm.rank() + 1)];
            let gathered = allgather_var(comm, mine).unwrap();
            comm.barrier().unwrap();
            (data, gathered)
        });
        assert_eq!(faulty, clean);
        let ledger = ledger_plane.ledger();
        assert!(
            ledger.dropped + ledger.corrupted_wire > 0,
            "fault matrix must actually fire: {ledger:?}"
        );
        assert!(ledger.delayed > 0, "straggler must have delayed sends");
    }

    /// Deterministic test block for `(origin, group)` — length varies per
    /// pair so size confusion between slots would be caught.
    fn pipe_block(origin: usize, g: usize) -> Vec<u8> {
        vec![(origin * 16 + g) as u8; 3 + origin * 5 + g * 2]
    }

    /// `(origin, group, bytes)` triples delivered by a pipelined gather.
    type Delivered = Vec<(usize, usize, Vec<u8>)>;

    /// Runs `pipelined_allgather` on one rank and returns
    /// `(produce order, delivered triples)`.
    fn run_pipe(comm: &mut Communicator, groups: &[usize]) -> (Vec<usize>, Delivered) {
        let me = comm.rank();
        let mut order = Vec::new();
        let mut delivered = Vec::new();
        pipelined_allgather(
            comm,
            groups,
            |g| {
                order.push(g);
                pipe_block(me, g)
            },
            |origin, g, bytes| delivered.push((origin, g, bytes)),
        )
        .unwrap();
        (order, delivered)
    }

    #[test]
    fn pipelined_allgather_delivers_every_group_with_unequal_counts() {
        // Uneven group counts (including a zero-group rank) at several
        // ring sizes: every rank must see exactly every other rank's
        // blocks, correctly attributed, and produce must run strictly in
        // order 0..own_groups (the bit-identity contract).
        for p in [1usize, 2, 3, 4] {
            let groups: Vec<usize> = (0..p).map(|r| (r * 3 + 5) % 4).collect();
            let groups_ref = &groups;
            let results = run_ranks(p, move |comm| run_pipe(comm, groups_ref));
            for (me, (order, delivered)) in results.into_iter().enumerate() {
                assert_eq!(order, (0..groups[me]).collect::<Vec<_>>());
                let mut expect: Vec<(usize, usize, Vec<u8>)> = Vec::new();
                for (o, &g_o) in groups.iter().enumerate() {
                    if o == me {
                        continue;
                    }
                    for g in 0..g_o {
                        expect.push((o, g, pipe_block(o, g)));
                    }
                }
                let mut got = delivered;
                got.sort();
                expect.sort();
                assert_eq!(got, expect, "rank {me} of {p}");
            }
        }
    }

    #[test]
    fn pipelined_allgather_rejects_wrong_group_count_vector() {
        let results = run_ranks(2, |comm| {
            pipelined_allgather(comm, &[1], |_| Vec::new(), |_, _, _| {})
        });
        for res in results {
            assert!(matches!(res, Err(CommError::Protocol { .. })));
        }
    }

    #[test]
    fn pipelined_allgather_records_stages_and_timers() {
        use compso_obs::{names, Recorder};
        let rec = Recorder::enabled();
        let rec_ref = &rec;
        let groups = [3usize, 1, 2];
        let groups_ref = &groups;
        run_ranks(3, move |comm| {
            comm.set_recorder(rec_ref.clone());
            run_pipe(comm, groups_ref);
        });
        let snap = rec.snapshot();
        // One span + one call per rank; each adds g_max = 3 stages.
        assert_eq!(snap.timers[names::COMM_PIPELINED_ALLGATHER].count, 3);
        assert_eq!(snap.counter(names::COMM_PIPELINED_ALLGATHER_CALLS), 3);
        assert_eq!(snap.counter(names::COMM_PIPELINE_STAGES), 3 * 3);
        // produce ran once per own group (3+1+2 = 6 across ranks);
        // deliver once per foreign (origin, group) pair (each rank sees
        // the 6 total groups minus its own: (6-3)+(6-1)+(6-2) = 12); and
        // every recv was waited on.
        assert_eq!(snap.timers[names::COMM_PIPELINE_PRODUCE].count, 6);
        assert_eq!(snap.timers[names::COMM_PIPELINE_DELIVER].count, 12);
        assert!(snap.timers[names::COMM_PIPELINE_WAIT].count > 0);
    }

    #[test]
    fn pipelined_allgather_survives_injected_transport_faults() {
        // Drops, wire corruption, and a straggler mid-pipeline: the ARQ
        // layer must absorb everything and the delivered blocks must be
        // bit-identical to the fault-free run.
        let plane = FaultPlane::new(FaultConfig {
            seed: 7031,
            drop_p: 0.05,
            corrupt_wire_p: 0.05,
            straggler: Some((2, Duration::from_micros(200))),
            ..FaultConfig::default()
        });
        let ledger_plane = plane.clone();
        let config = CommConfig {
            recv_timeout: Duration::from_secs(30),
            retry_initial: Duration::from_millis(40),
            max_retries: 12,
            ..CommConfig::default()
        };
        let p = 4;
        let groups = [2usize, 3, 1, 2];
        let groups_ref = &groups;
        let faulty = run_ranks_with(p, plane, config, move |comm| run_pipe(comm, groups_ref));
        let clean = run_ranks(p, move |comm| run_pipe(comm, groups_ref));
        assert_eq!(faulty, clean);
        let ledger = ledger_plane.ledger();
        assert!(
            ledger.dropped + ledger.corrupted_wire > 0,
            "fault matrix must actually fire: {ledger:?}"
        );
        assert!(ledger.delayed > 0, "straggler must have delayed sends");
    }
}
