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
use std::collections::VecDeque;
use std::ops::Range;
use std::time::Instant;

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
/// circulate the ring. `groups_per_rank` must be identical on every rank
/// (in the hot path it is derived from the globally known layer shapes);
/// every rank computes the same hop schedule from it, so slots past a
/// rank's last group circulate no filler traffic at all — on imbalanced
/// ownership only the widest rank's blocks keep hopping. The schedule is
/// **send-ahead**, three rules:
///
/// 1. *The link order is fixed.* On every directed link the bytes leave
///    in slot order: the rank's own block `k`, then slot `k`'s forwards
///    (the blocks of origins `rank − 1, rank − 2, …` that have a `k`-th
///    group, each forwarded unless the right neighbour is its origin).
///    Messages therefore need no tag, and ARQ sequence numbers and seeded
///    fault decisions fall on the same messages whatever the timing.
/// 2. *Receive lazily.* The rank pulls from its left link only as far as
///    the block its next forward needs (blocks that end their journey
///    here are dequeued on the way, never waited for on their own
///    account). A terminal block therefore never stands in front of a
///    send: own block `k + 1` goes on the wire the moment `produce(k + 1)`
///    has returned and slot `k`'s forwards are out (at two ranks nothing
///    is forwarded: a rank sends at its own compression rate whatever its
///    peer does).
/// 3. *Deliver one behind.* A pulled block is forwarded at once and held;
///    `deliver` takes it right before the rank's *next* pull — in front of
///    a receive the next send has to wait for anyway, where the decode
///    hides behind the link's drain — or once the rank has nothing left to
///    send. At two ranks a rank pulls nothing while it has an own block
///    to go, so no `deliver` precedes its last own send; at three and
///    more the decodes stay spread between the forwards' receives, as in
///    the slot loop, instead of piling up behind the last own block.
///
/// Against the slot-synchronous ring `send own k; produce k + 1; receive,
/// forward and deliver slot k` the schedule only takes receives out from
/// in front of sends (a terminal block is no longer waited for ahead of
/// the next own block; each decode moves one pull later): every receive
/// keeps its matching send, and no send depends on a receive it did not
/// depend on there, so it cannot deadlock where that ring does not. A
/// rank holds at most one block, from its receive to the next; a failed
/// receive finds none held, so — as in the slot loop — what an abandoned
/// attempt handed to `deliver` is the caller's to discard, and a retry
/// never sees a block of it.
///
/// `produce(g)` is called exactly once per own group, strictly in order
/// `0..groups_per_rank[rank]` — callers that advance an RNG per group
/// therefore consume the identical stream as a compress-then-gather
/// loop, which is what keeps the pipelined path bit-identical.
/// `deliver(origin, g, bytes)` is called exactly once per `(origin,
/// group)` pair for every *other* rank's groups, in link order: slot by
/// slot, nearest left origin first (a rank's own blocks never come back
/// around the ring; the caller keeps its own clean copies).
///
/// Exposed (un-overlapped) receive time accumulates in
/// `comm/pipeline/wait`; the producer/delivery callbacks are timed under
/// `comm/pipeline/produce` and `comm/pipeline/deliver`, and each call
/// adds the slot count to `comm/pipeline_stages`. A call refused for a
/// wrong-length `groups_per_rank` records nothing. Transport faults from
/// an armed [`crate::fault::FaultPlane`] are absorbed by the ARQ layer
/// exactly as for [`allgather_var`].
pub fn pipelined_allgather(
    comm: &mut Communicator,
    groups_per_rank: &[usize],
    mut produce: impl FnMut(usize) -> Vec<u8>,
    mut deliver: impl FnMut(usize, usize, Vec<u8>),
) -> Result<(), CommError> {
    let p = comm.size();
    let r = comm.rank();
    if groups_per_rank.len() != p {
        return Err(CommError::Protocol {
            expected: "one group count per rank",
        });
    }
    let rec = comm.recorder().clone();
    let _span = rec.span(names::COMM_PIPELINED_ALLGATHER);
    rec.incr(names::COMM_PIPELINED_ALLGATHER_CALLS);
    let g_me = groups_per_rank[r];
    let g_max = groups_per_rank.iter().copied().max().unwrap_or(0);
    rec.add(names::COMM_PIPELINE_STAGES, g_max as u64);
    let since = |t0: Instant| u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut timed_produce = |g: usize| -> Vec<u8> {
        // lint:allow(deterministic-state): span timing for obs counters; the produced bytes are clock-independent
        let t0 = Instant::now();
        let block = produce(g);
        rec.add_time_ns(names::COMM_PIPELINE_PRODUCE, since(t0));
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
    // Blocks the left link carries that this rank has not pulled yet, in
    // link order: `(origin, slot, forward it?)`.
    let mut owed: VecDeque<(usize, usize, bool)> = VecDeque::new();
    // The last block pulled: forwarded (where due), not yet delivered.
    let mut held: Option<(usize, usize, Vec<u8>)> = None;
    let mut deliver_held = |held: &mut Option<(usize, usize, Vec<u8>)>| {
        if let Some((origin, slot, block)) = held.take() {
            // lint:allow(deterministic-state): deliver timing for obs counters only
            let t0 = Instant::now();
            deliver(origin, slot, block);
            rec.add_time_ns(names::COMM_PIPELINE_DELIVER, since(t0));
        }
    };
    for slot in 0..g_max {
        // Empty slots hop nothing: `groups_per_rank` is global
        // knowledge, so every rank derives the same schedule and skips
        // the send/recv pair outright instead of circulating filler
        // blocks.
        if slot < g_me {
            let own = next.take().ok_or(CommError::Protocol {
                expected: "pipeline schedule: own block produced before its slot",
            })?;
            comm.send(right, Payload::Bytes(own))?;
        }
        // The overlap: compress the next group while this slot's blocks
        // make their way around the ring.
        let sending = slot + 1 < g_me;
        if sending {
            next = Some(timed_produce(slot + 1));
        }
        for s in 0..p - 1 {
            let origin = (r + p - s - 1) % p;
            if slot < groups_per_rank[origin] {
                owed.push_back((origin, slot, s < p - 2));
            }
        }
        // Rule 2: with an own block still to go out, pull only as far as
        // the last block the link order puts ahead of it (a forward).
        let pull = if sending {
            owed.iter().rposition(|b| b.2).map_or(0, |i| i + 1)
        } else {
            owed.len()
        };
        for (origin, slot, forward) in owed.drain(..pull) {
            // Rule 3: the block pulled before this one decodes here, in
            // front of a receive the next send has to wait for anyway.
            deliver_held(&mut held);
            // lint:allow(deterministic-state): recv-wait timing for obs counters only; never alters the bytes delivered
            let t0 = Instant::now();
            let incoming = comm
                .recv_labeled(left, names::COMM_PIPELINED_ALLGATHER)?
                .try_bytes()?;
            rec.add_time_ns(names::COMM_PIPELINE_WAIT, since(t0));
            // Forward before delivering: the downstream ranks must not
            // wait behind this rank's decode of the block.
            if forward {
                comm.send(right, Payload::Bytes(incoming.clone()))?;
            }
            held = Some((origin, slot, incoming));
        }
        // ... or here, once nothing is left to send.
        if !sending {
            deliver_held(&mut held);
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
    use std::time::{Duration, Instant};

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

    /// Any gather with `pipelined_allgather`'s contract: the shipped
    /// schedule or the oracle.
    type Gather = fn(
        &mut Communicator,
        &[usize],
        &mut dyn FnMut(usize) -> Vec<u8>,
        &mut dyn FnMut(usize, usize, Vec<u8>),
    ) -> Result<(), CommError>;

    fn send_ahead(
        comm: &mut Communicator,
        groups: &[usize],
        produce: &mut dyn FnMut(usize) -> Vec<u8>,
        deliver: &mut dyn FnMut(usize, usize, Vec<u8>),
    ) -> Result<(), CommError> {
        pipelined_allgather(comm, groups, produce, deliver)
    }

    /// The parent commit's `pipelined_allgather` (debe79c) without its
    /// recorder calls: a slot-synchronous ring — send own block `g`,
    /// produce `g + 1`, then receive, forward and deliver every peer block
    /// of slot `g` before touching slot `g + 1`. The oracle for what the
    /// send-ahead schedule may not change: the bytes on each link and
    /// their order, the `produce` and the `deliver` call sequences.
    fn slot_loop(
        comm: &mut Communicator,
        groups_per_rank: &[usize],
        produce: &mut dyn FnMut(usize) -> Vec<u8>,
        deliver: &mut dyn FnMut(usize, usize, Vec<u8>),
    ) -> Result<(), CommError> {
        let p = comm.size();
        let r = comm.rank();
        let g_me = groups_per_rank[r];
        let g_max = groups_per_rank.iter().copied().max().unwrap_or(0);
        if p == 1 {
            (0..g_me).for_each(|g| drop(produce(g)));
            return Ok(());
        }
        let left = comm.left();
        let right = comm.right();
        let mut next: Option<Vec<u8>> = (g_me > 0).then(|| produce(0));
        for slot in 0..g_max {
            if slot < g_me {
                let own = next.take().expect("own block produced before its slot");
                comm.send(right, Payload::Bytes(own))?;
            }
            if slot + 1 < g_me {
                next = Some(produce(slot + 1));
            }
            for s in 0..p - 1 {
                let origin = (r + p - s - 1) % p;
                if slot >= groups_per_rank[origin] {
                    continue;
                }
                let incoming = comm
                    .recv_labeled(left, names::COMM_PIPELINED_ALLGATHER)?
                    .try_bytes()?;
                if s < p - 2 {
                    comm.send(right, Payload::Bytes(incoming.clone()))?;
                }
                deliver(origin, slot, incoming);
            }
        }
        Ok(())
    }

    /// One callback of a gather, as the caller saw it.
    #[derive(Clone, Debug, PartialEq)]
    enum Call {
        Produce(usize),
        Deliver {
            origin: usize,
            group: usize,
            bytes: Vec<u8>,
            /// Bytes this rank had put on the wire in this gather when the
            /// block was handed over.
            sent_before: u64,
            /// Blocks it had pulled off its left link by then.
            pulled_before: u64,
        },
    }

    /// What the caller and the wire saw of one gather on one rank.
    #[derive(Debug)]
    struct PipeRun {
        calls: Vec<Call>,
        sent_bytes: u64,
        messages: u64,
    }

    impl PipeRun {
        fn produced(&self) -> Vec<usize> {
            (self.calls.iter())
                .filter_map(|c| match c {
                    Call::Produce(g) => Some(*g),
                    Call::Deliver { .. } => None,
                })
                .collect()
        }

        fn delivered(&self) -> Delivered {
            (self.calls.iter())
                .filter_map(|c| match c {
                    Call::Produce(_) => None,
                    Call::Deliver {
                        origin,
                        group,
                        bytes,
                        ..
                    } => Some((*origin, *group, bytes.clone())),
                })
                .collect()
        }
    }

    /// Runs `gather` over [`pipe_block`]s on one rank, under a recorder
    /// of its own (the caller's is put back afterwards).
    fn run_gather(comm: &mut Communicator, groups: &[usize], gather: Gather) -> PipeRun {
        let me = comm.rank();
        let outer = comm.recorder().clone();
        let rec = compso_obs::Recorder::enabled();
        comm.set_recorder(rec.clone());
        let calls = std::cell::RefCell::new(Vec::new());
        gather(
            comm,
            groups,
            &mut |g| {
                calls.borrow_mut().push(Call::Produce(g));
                pipe_block(me, g)
            },
            &mut |origin, group, bytes| {
                calls.borrow_mut().push(Call::Deliver {
                    origin,
                    group,
                    bytes,
                    sent_before: rec.counter(names::COMM_BYTES_SENT),
                    pulled_before: (rec.snapshot().timers)
                        .get(names::COMM_PIPELINE_WAIT)
                        .map_or(0, |t| t.count),
                })
            },
        )
        .unwrap();
        comm.set_recorder(outer);
        let hists = rec.snapshot().hists;
        PipeRun {
            calls: calls.into_inner(),
            sent_bytes: rec.counter(names::COMM_BYTES_SENT),
            messages: hists.get(names::COMM_MSG_BYTES).map_or(0, |h| h.count),
        }
    }

    /// Runs `pipelined_allgather` on one rank and returns
    /// `(produce order, delivered triples)`.
    fn run_pipe(comm: &mut Communicator, groups: &[usize]) -> (Vec<usize>, Delivered) {
        let run = run_gather(comm, groups, send_ahead);
        (run.produced(), run.delivered())
    }

    /// Group counts at `p` ranks: all equal, one rank owning most groups,
    /// zero-group ranks, and a ragged mix.
    fn group_shapes(p: usize) -> Vec<Vec<usize>> {
        vec![
            vec![3; p],
            (0..p).map(|r| if r == p / 2 { 6 } else { 1 }).collect(),
            (0..p).map(|r| if r % 2 == 0 { 0 } else { 4 }).collect(),
            (0..p).map(|r| (r * 3 + 5) % 4).collect(),
            (0..p).map(|r| usize::from(r == 0) * 5).collect(),
        ]
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
    fn send_ahead_matches_the_slot_loop_on_every_link_and_callback() {
        // Rule 1: the schedule moves waits, not bytes or calls. Against
        // the parent's slot loop, on every rank: the same `produce`
        // sequence, the same `deliver` sequence of (origin, slot, bytes),
        // the same bytes in the same number of messages.
        for p in [1usize, 2, 3, 4, 5] {
            for groups in group_shapes(p) {
                let groups_ref = &groups;
                let results = run_ranks(p, move |comm| {
                    let want = run_gather(comm, groups_ref, slot_loop);
                    let got = run_gather(comm, groups_ref, send_ahead);
                    (want, got)
                });
                for (rank, (want, got)) in results.iter().enumerate() {
                    let tag = format!("p={p} groups={groups:?} rank={rank}");
                    assert_eq!(got.produced(), want.produced(), "{tag}");
                    assert_eq!(got.delivered(), want.delivered(), "{tag}");
                    assert_eq!(got.sent_bytes, want.sent_bytes, "{tag}");
                    assert_eq!(got.messages, want.messages, "{tag}");
                }
            }
        }
    }

    #[test]
    fn a_block_is_delivered_after_its_forward_and_before_the_next_pull() {
        // Rules 2 and 3. At every ring size a block this rank relays is on
        // its way before the caller sees it, together with every own block
        // but the one `produce` returned last (that one is behind the
        // receive the decode sits in front of), and the rank never holds
        // two: block j is handed over with exactly j + 1 pulled. At two
        // ranks nothing is pulled while an own block is left, so no
        // `deliver` precedes the last `produce`.
        for p in [2usize, 3, 4, 5] {
            for groups in group_shapes(p) {
                let groups_ref = &groups;
                let runs = run_ranks(p, move |comm| run_gather(comm, groups_ref, send_ahead));
                for (r, run) in runs.iter().enumerate() {
                    let tag = format!("p={p} groups={groups:?} rank={r}");
                    let own = |n: usize| (0..n).map(|g| pipe_block(r, g).len() as u64).sum::<u64>();
                    let (mut produced, mut delivered, mut relayed) = (0usize, 0u64, 0u64);
                    for call in &run.calls {
                        let Call::Deliver {
                            origin,
                            bytes,
                            sent_before,
                            pulled_before,
                            ..
                        } = call
                        else {
                            produced += 1;
                            assert!(p > 2 || delivered == 0, "{tag}: {:?}", run.calls);
                            continue;
                        };
                        if *origin != (r + 1) % p {
                            relayed += bytes.len() as u64;
                        }
                        let own_out = if p == 2 {
                            groups[r]
                        } else {
                            produced.saturating_sub(1)
                        };
                        assert!(*sent_before >= own(own_out) + relayed, "{tag}: {call:?}");
                        delivered += 1;
                        assert_eq!(*pulled_before, delivered, "{tag}: {call:?}");
                    }
                    assert_eq!(run.sent_bytes, own(groups[r]) + relayed, "{tag}");
                }
            }
        }
    }

    #[test]
    fn own_blocks_go_out_without_waiting_for_a_peer_block() {
        // Rank 1's first block does not exist until rank 0 has produced
        // every block and put every byte of them on the wire: its
        // `produce(0)` waits for exactly that. A rank that receives (or
        // decodes) slot 0 before it sends slot 1 never gets there — the
        // slot loop stalls in slot 0 — and rank 1 gives up after 5 s.
        let groups = [4usize, 2];
        let own: u64 = (0..groups[0]).map(|g| pipe_block(0, g).len() as u64).sum();
        let rank0 = compso_obs::Recorder::enabled();
        let rank0_ref = &rank0;
        let results = run_ranks(2, move |comm| {
            let me = comm.rank();
            if me == 0 {
                comm.set_recorder(rank0_ref.clone());
            }
            let mut delivered = 0usize;
            pipelined_allgather(
                comm,
                &groups,
                |g| {
                    let give_up = Instant::now() + Duration::from_secs(5);
                    while me == 1 && g == 0 && rank0_ref.counter(names::COMM_BYTES_SENT) < own {
                        assert!(Instant::now() < give_up, "rank 0 is waiting for this block");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    pipe_block(me, g)
                },
                |_, _, _| delivered += 1,
            )
            .unwrap();
            delivered
        });
        assert_eq!(results, vec![groups[1], groups[0]]);
    }

    #[test]
    fn a_refused_call_records_nothing() {
        // A wrong-length `groups_per_rank` is a caller bug, not a
        // collective: it must not count as one (the call-count pins in
        // tests/gather_modes.rs read these counters).
        let rec = compso_obs::Recorder::enabled();
        let rec_ref = &rec;
        let results = run_ranks(2, |comm| {
            comm.set_recorder(rec_ref.clone());
            pipelined_allgather(comm, &[1], |_| Vec::new(), |_, _, _| {})
        });
        for res in results {
            assert!(matches!(res, Err(CommError::Protocol { .. })));
        }
        let snap = rec.snapshot();
        assert!(!snap.timers.contains_key(names::COMM_PIPELINED_ALLGATHER));
        assert_eq!(snap.counter(names::COMM_PIPELINED_ALLGATHER_CALLS), 0);
        assert_eq!(snap.counter(names::COMM_PIPELINE_STAGES), 0);
    }

    #[test]
    fn a_failed_receive_finds_no_block_held() {
        // Rank 2 puts its first block on the ring by hand and leaves.
        // Rank 0 receives and relays it, sends its last own block, and
        // fails waiting for the block rank 2 never relays — with the one
        // block it pulled already handed over (as the slot loop would
        // have), so nothing of the attempt outlives the error.
        let groups = [2usize, 2, 2];
        let config = CommConfig {
            recv_timeout: Duration::from_secs(2),
            ..CommConfig::default()
        };
        let results = run_ranks_with(3, FaultPlane::disabled(), config, move |comm| {
            let me = comm.rank();
            if me == 2 {
                comm.send(0, Payload::Bytes(pipe_block(2, 0))).unwrap();
                return (Ok(()), Vec::new(), 0);
            }
            let mut delivered = Vec::new();
            let res = pipelined_allgather(
                comm,
                &groups,
                |g| pipe_block(me, g),
                |origin, g, _| delivered.push((origin, g)),
            );
            (res, delivered, comm.sent_bytes())
        });
        let (res, delivered, sent) = &results[0];
        assert!(res.is_err(), "rank 0 cannot finish: {res:?}");
        assert_eq!(delivered, &[(2, 0)]);
        // Own block 0, rank 2's block relayed, own block 1.
        let relayed =
            (pipe_block(0, 0).len() + pipe_block(2, 0).len() + pipe_block(0, 1).len()) as u64;
        assert_eq!(*sent, relayed);
        assert!(results[1].0.is_err(), "rank 1 cannot finish either");
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
            let me = comm.rank();
            pipelined_allgather(comm, groups_ref, |g| pipe_block(me, g), |_, _, _| {}).unwrap();
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
        assert_eq!(snap.timers[names::COMM_PIPELINE_WAIT].count, 12);
    }

    #[test]
    fn pipelined_allgather_survives_injected_transport_faults() {
        // Drops, wire corruption and a straggler at two to four ranks
        // with uneven counts, over a modeled wire slow enough that blocks
        // queue on their links, sent ahead of receivers that have not
        // pulled them yet or hold one undelivered, while the faults land:
        // the ARQ layer must absorb everything and the delivered sequence
        // must be the fault-free run's.
        for (p, groups, seed) in [
            (2usize, vec![5usize, 2], 7031u64),
            (3, vec![4, 0, 3], 7032),
            (4, vec![2, 3, 1, 2], 7033),
            (4, vec![1, 6, 0, 2], 7034),
        ] {
            let plane = FaultPlane::new(FaultConfig {
                seed,
                drop_p: 0.1,
                corrupt_wire_p: 0.1,
                straggler: Some((p - 1, Duration::from_micros(200))),
                ..FaultConfig::default()
            });
            let ledger_plane = plane.clone();
            let config = CommConfig {
                recv_timeout: Duration::from_secs(30),
                retry_initial: Duration::from_millis(40),
                max_retries: 12,
                // 20 bytes per millisecond: a block drains in 0.2–1.5 ms.
                modeled_wire_mbps: Some(0.02),
            };
            let groups_ref = &groups;
            let faulty = run_ranks_with(p, plane, config, move |comm| run_pipe(comm, groups_ref));
            let clean = run_ranks(p, move |comm| run_pipe(comm, groups_ref));
            assert_eq!(faulty, clean, "p={p} groups={groups:?}");
            let ledger = ledger_plane.ledger();
            assert!(
                ledger.dropped + ledger.corrupted_wire > 0,
                "p={p}: fault matrix must actually fire: {ledger:?}"
            );
            assert!(
                ledger.delayed > 0,
                "p={p}: straggler must have delayed sends"
            );
        }
    }

    #[test]
    #[ignore = "wall-clock A/B, run on demand: cargo test -p compso-comm --release send_ahead_walls -- --ignored --nocapture"]
    fn send_ahead_walls_against_the_slot_loop() {
        // The schedule against the loop it replaced where the benchmark
        // (two ranks everywhere) cannot see: balanced and one-big-owner
        // ownership at three and four ranks over the modeled 50 MB/s wire,
        // `produce` and `deliver` sleeping their cost so every rank has a
        // core of its own. Prints first-start-to-last-end walls of three
        // alternated pairs per shape; the best send-ahead wall may not
        // lose to the best slot-loop wall.
        let schedules: [(&str, Gather); 2] = [("slot_loop", slot_loop), ("send_ahead", send_ahead)];
        // (groups, produce ms, deliver ms, block KB): wire-bound,
        // compute-bound, balanced, many small groups, one big owner, and
        // the two-rank shape of the benchmark.
        let shapes: [(Vec<usize>, f64, f64, usize); 9] = [
            (vec![8; 3], 4.0, 2.0, 200),
            (vec![8; 4], 4.0, 2.0, 200),
            (vec![8; 3], 4.0, 2.0, 50),
            (vec![8; 4], 4.0, 2.0, 50),
            (vec![8; 3], 3.0, 1.5, 100),
            (vec![8; 4], 3.0, 1.5, 100),
            (vec![16; 4], 2.0, 1.0, 100),
            (vec![8, 1, 1, 1], 4.0, 2.0, 200),
            (vec![8; 2], 4.0, 2.0, 200),
        ];
        for (groups, produce_ms, deliver_ms, kb) in shapes {
            let p = groups.len();
            let mut walls = [Vec::new(), Vec::new()];
            for _ in 0..3 {
                for (walls, (_, gather)) in walls.iter_mut().zip(schedules) {
                    let groups_ref = &groups;
                    let config = CommConfig {
                        modeled_wire_mbps: Some(50.0),
                        ..CommConfig::default()
                    };
                    let spans = run_ranks_with(p, FaultPlane::disabled(), config, move |comm| {
                        comm.barrier().unwrap();
                        let t0 = Instant::now();
                        gather(
                            comm,
                            groups_ref,
                            &mut |_| {
                                std::thread::sleep(Duration::from_secs_f64(produce_ms / 1e3));
                                vec![0u8; kb * 1000]
                            },
                            &mut |_, _, _| {
                                std::thread::sleep(Duration::from_secs_f64(deliver_ms / 1e3))
                            },
                        )
                        .unwrap();
                        (t0, Instant::now())
                    });
                    let start = spans.iter().map(|s| s.0).min().unwrap();
                    let end = spans.iter().map(|s| s.1).max().unwrap();
                    walls.push((end - start).as_secs_f64() * 1e3);
                }
            }
            println!(
                "groups {groups:?} produce {produce_ms} ms deliver {deliver_ms} ms block {kb} KB"
            );
            for ((name, _), walls) in schedules.iter().zip(&walls) {
                println!("    {name:<10} {walls:.1?} ms");
            }
            let best = walls.map(|w| w.into_iter().fold(f64::INFINITY, f64::min));
            assert!(
                best[1] <= best[0] * 1.02,
                "send-ahead {:.1} ms loses to the slot loop {:.1} ms on {groups:?}",
                best[1],
                best[0]
            );
        }
    }
}
