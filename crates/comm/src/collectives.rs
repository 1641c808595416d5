//! Ring collectives over [`Communicator`]s.
//!
//! The algorithms are the textbook bandwidth-optimal ring formulations —
//! the same family NCCL uses on the paper's clusters:
//!
//! * **all-reduce** = ring reduce-scatter (each rank ends up owning the
//!   fully-reduced `r`-th block) followed by ring all-gather; the first
//!   half alone is [`reduce_scatter_sum`], over caller-chosen blocks, for
//!   data only one rank reads (K-FAC's gradients: a layer's owner), and
//!   [`reduce_scatter_pieced`] is that same ring telling its caller when
//!   its core is idle and when each piece of its block has landed, and,
//!   given a codec, compressing the owner-bound last hop;
//! * **all-gather** circulates byte blocks around the ring for `p - 1`
//!   steps, sized per rank because compressed payloads differ (§4.3:
//!   "KFAC uses AllGather, avoiding [ring-allreduce error propagation]");
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
use compso_core::Compressor;
use compso_obs::names;
use compso_tensor::rng::Rng;
use std::collections::VecDeque;
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
/// panic. With a `codec` (a reduce's last hop) the hop may also be one
/// of its one-layer frames, decoded here.
fn recv_hop(
    comm: &mut Communicator,
    left: usize,
    label: &'static str,
    len: usize,
    codec: Option<&dyn Compressor>,
) -> Result<Vec<f32>, CommError> {
    let incoming = match (comm.recv_labeled(left, label)?, codec) {
        (Payload::Bytes(frame), Some(codec)) => {
            match codec
                .decompress_group(&frame, comm.recorder())
                .as_deref_mut()
            {
                Ok([values]) => std::mem::take(values),
                _ => {
                    return Err(CommError::Protocol {
                        expected: "a last-hop frame decoding to one layer",
                    })
                }
            }
        }
        (payload, _) => payload.try_f32()?,
    };
    if incoming.len() != len {
        return Err(CommError::Protocol {
            expected: "reduction block of matching size",
        });
    }
    Ok(incoming)
}

/// What [`reduce_scatter_pieced`] tells its caller while the ring runs.
#[derive(Debug, PartialEq)]
pub enum ReduceEvent<'a> {
    /// The rank's first hop is on the wire and nothing has been received
    /// yet: its core is free until the left neighbour's block drains.
    /// Fires exactly once per call.
    Idle,
    /// A non-empty piece of this rank's own block is fully summed: its
    /// range of the buffer and the sums there. Fires once per such piece,
    /// in block order, the moment the piece is summed.
    Landed(Range<usize>, &'a [f32]),
}

/// One piece per block: the plain reduce-scatter's last hop.
fn whole(ranges: &[Range<usize>]) -> Vec<Vec<usize>> {
    ranges.iter().map(|b| vec![b.len()]).collect()
}

/// Refuses, before anything is sent, blocks that are not one per rank,
/// pairwise disjoint and together covering `0..len` (in any order; a
/// block may be empty), and piece lengths that do not add up to their
/// block. Every rank passes the same arguments, so every rank refuses.
fn check_tiling(
    len: usize,
    p: usize,
    ranges: &[Range<usize>],
    pieces: &[Vec<usize>],
) -> Result<(), CommError> {
    let refuse = |expected| Err(CommError::Protocol { expected });
    if ranges.len() != p || pieces.len() != p {
        return refuse("one block range and one piece list per rank");
    }
    if ranges.iter().any(|b| b.start > b.end || b.end > len) {
        return refuse("block ranges inside the buffer");
    }
    let mut blocks: Vec<&Range<usize>> = ranges.iter().filter(|b| !b.is_empty()).collect();
    blocks.sort_unstable_by_key(|b| b.start);
    let mut end = 0;
    for b in blocks {
        if b.start != end {
            return refuse("disjoint block ranges tiling the buffer");
        }
        end = b.end;
    }
    if end != len {
        return refuse("disjoint block ranges tiling the buffer");
    }
    let tiled = |(b, lens): (&Range<usize>, &Vec<usize>)| {
        lens.iter().try_fold(0usize, |sum, &n| sum.checked_add(n)) == Some(b.len())
    };
    if !ranges.iter().zip(pieces).all(tiled) {
        return refuse("piece lengths tiling their block");
    }
    Ok(())
}

/// The consecutive ranges `block` travels as: its `pieces` on the last
/// hop, else whole. A hop moves every block as at least one message, so
/// an empty block with no pieces is one empty range.
fn hop_parts(block: &Range<usize>, pieces: &[usize], last: bool) -> Vec<Range<usize>> {
    if !last || pieces.is_empty() {
        return vec![block.clone()];
    }
    let mut start = block.start;
    (pieces.iter())
        .map(|&n| {
            start += n;
            start - n..start
        })
        .collect()
}

/// The reduce-scatter half of the ring: `p - 1` hops. At hop `s`, rank
/// `r` sends block `r - s - 1` and accumulates the incoming block
/// `r - s - 2` into its own copy, so the last hop lands the fully reduced
/// `ranges[r]` on rank `r`. Every hop but the last moves a block as one
/// message; the last moves it as its `pieces`, one message each, all
/// sent before the first is received — the same bytes in the same order
/// on every link, summed in the same order. With a `codec` each
/// non-empty piece of the last hop travels as its one-layer frame
/// (drawing from the sender's generator, in piece order) and its owner
/// adds the decoded values; every other message is raw f32s.
/// `on_event` hears [`ReduceEvent::Idle`] after the first hop's sends
/// and [`ReduceEvent::Landed`] after each own piece is summed (at
/// `p = 1`: `Idle`, then every piece).
fn ring_reduce_scatter(
    comm: &mut Communicator,
    data: &mut [f32],
    ranges: &[Range<usize>],
    pieces: &[Vec<usize>],
    mut codec: Option<(&dyn Compressor, &mut Rng)>,
    on_event: &mut dyn FnMut(ReduceEvent<'_>),
) -> Result<(), CommError> {
    let p = comm.size();
    let r = comm.rank();
    let left = comm.left();
    let right = comm.right();
    if p == 1 {
        on_event(ReduceEvent::Idle);
        for part in hop_parts(&ranges[r], &pieces[r], true) {
            if !part.is_empty() {
                on_event(ReduceEvent::Landed(part.clone(), &data[part]));
            }
        }
        return Ok(());
    }
    for s in 0..p - 1 {
        let last = s == p - 2;
        let send_block = (r + p - s - 1) % p;
        let recv_block = (r + p - s - 2) % p;
        for part in hop_parts(&ranges[send_block], &pieces[send_block], last) {
            let values = &data[part];
            let payload = match codec.as_mut() {
                Some((codec, rng)) if last && !values.is_empty() => {
                    Payload::Bytes(codec.compress_group(&[values], None, rng, comm.recorder()))
                }
                _ => Payload::F32(values.to_vec()),
            };
            comm.send(right, payload)?;
        }
        if s == 0 {
            on_event(ReduceEvent::Idle);
        }
        let decoder = codec.as_ref().filter(|_| last).map(|&(codec, _)| codec);
        for part in hop_parts(&ranges[recv_block], &pieces[recv_block], last) {
            let incoming = recv_hop(comm, left, names::COMM_ALLREDUCE, part.len(), decoder)?;
            for (d, v) in data[part.clone()].iter_mut().zip(incoming) {
                *d += v;
            }
            if last && !part.is_empty() {
                on_event(ReduceEvent::Landed(part.clone(), &data[part]));
            }
        }
    }
    Ok(())
}

/// Sum reduce-scatter — the first half of `allreduce_sum`, for callers
/// where only one rank reads each block: on return rank `r`'s
/// `data[ranges[r]]` holds the elementwise sum across ranks; the rest of
/// `data` holds partial sums and is unspecified. `ranges` gives one block
/// per rank, in rank order; they must be disjoint and together cover
/// `data`, in any order, and a block may be empty (a rank that reduces
/// nothing still forwards). Every rank must pass the same `ranges`; any
/// other tiling is refused with `Protocol` before anything is sent. Each
/// rank sends every block but its own exactly once — `(p - 1)/p` of the
/// buffer for even blocks, half what the all-reduce moves.
///
/// The no-callback, one-piece-per-block call of [`reduce_scatter_pieced`].
pub fn reduce_scatter_sum(
    comm: &mut Communicator,
    data: &mut [f32],
    ranges: &[Range<usize>],
) -> Result<(), CommError> {
    reduce_scatter_pieced(comm, data, ranges, &whole(ranges), None, |_| {})
}

/// [`reduce_scatter_sum`] for a caller with work to hide behind it. The
/// last hop moves block `q` as `pieces[q]` — lengths that tile it, in
/// order; identical on every rank — one message each, so a rank can use
/// the first piece of its block while the rest drain; a piece of the
/// wrong length from a peer is `Protocol`. `on_event` hears, on this
/// rank:
///
/// * [`ReduceEvent::Idle`] once, after the first hop is sent and before
///   anything is received — work that does not read the sums runs there
///   in the wait for the left link;
/// * [`ReduceEvent::Landed`] once per non-empty piece of `ranges[rank]`,
///   in block order, the moment that piece is summed.
///
/// Without a codec, sums, their order, the bytes and the per-link byte
/// order are the plain reduce-scatter's; only the last hop's message
/// count grows. A callback that ran before an error returns saw what it
/// saw: an abandoned call's `Landed` values are the caller's to discard.
///
/// `codec` compresses the last hop, and only it: each piece bound for
/// its owner goes as `compress_group(&[piece])` over this rank's `Rng`
/// (the next piece is compressed while the previous drains), and the
/// owner adds `decompress` of it to its own values. Earlier hops stay
/// raw, so every value is rounded exactly once, where the §4.3 per-hop
/// requantization (`compressed_allreduce_mean` in this file's tests)
/// rounds a sum at every hop. An empty piece travels raw. Every rank
/// must pass the same compressor or none; a frame on any other hop, or
/// one that does not decode to the piece, is `Protocol`. The codec's
/// spans and counters go to the communicator's recorder.
///
/// Recorded like the all-reduce it is half of: the `comm/allreduce_sum`
/// span and one `comm/allreduce_calls` per call; a refused call records
/// nothing.
pub fn reduce_scatter_pieced(
    comm: &mut Communicator,
    data: &mut [f32],
    ranges: &[Range<usize>],
    pieces: &[Vec<usize>],
    codec: Option<(&dyn Compressor, &mut Rng)>,
    mut on_event: impl FnMut(ReduceEvent<'_>),
) -> Result<(), CommError> {
    check_tiling(data.len(), comm.size(), ranges, pieces)?;
    let _span = comm.recorder().span(names::COMM_ALLREDUCE);
    comm.recorder().incr(names::COMM_ALLREDUCE_CALLS);
    ring_reduce_scatter(comm, data, ranges, pieces, codec, &mut on_event)
}

/// Sum all-reduce: on return every rank's `data` holds the elementwise sum
/// across ranks. Bandwidth-optimal ring (reduce-scatter + all-gather).
pub(crate) fn allreduce_sum(comm: &mut Communicator, data: &mut [f32]) -> Result<(), CommError> {
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

    // Phase 1: reduce-scatter, one piece per block.
    ring_reduce_scatter(comm, data, &ranges, &whole(&ranges), None, &mut |_| {})?;

    // Phase 2: all-gather the reduced blocks. At step s, rank r forwards
    // rank (r - s)'s block — its own to start with — and receives rank
    // (r - s - 1)'s.
    for s in 0..p - 1 {
        let send_block = (r + p - s) % p;
        let recv_block = (r + p - s - 1) % p;
        let chunk = data[ranges[send_block].clone()].to_vec();
        comm.send(right, Payload::F32(chunk))?;
        let dst = &mut data[ranges[recv_block].clone()];
        let incoming = recv_hop(comm, left, names::COMM_ALLREDUCE, dst.len(), None)?;
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
    if p == 1 {
        return Ok(vec![mine]);
    }
    let r = comm.rank();
    let mut blocks: Vec<Option<Vec<u8>>> = (0..p).map(|_| None).collect();
    blocks[r] = Some(mine);
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
    let mut timed_produce = |g: usize| -> Vec<u8> {
        let _t = rec.span(names::COMM_PIPELINE_PRODUCE);
        produce(g)
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
            let _t = rec.span(names::COMM_PIPELINE_DELIVER);
            deliver(origin, slot, block);
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
            // A failed receive pulled nothing: its wait is not counted.
            let wait = rec.span(names::COMM_PIPELINE_WAIT);
            let incoming = comm
                .recv_labeled(left, names::COMM_PIPELINED_ALLGATHER)
                .and_then(Payload::try_bytes);
            match incoming {
                Ok(_) => drop(wait),
                Err(_) => wait.discard(),
            }
            let incoming = incoming?;
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
    use compso_core::{ChunkedCompso, CompsoConfig};
    use std::time::{Duration, Instant};

    /// Lossy-compressed ring all-reduce: every reduce-scatter hop compresses
    /// its outgoing chunk with `codec` (encode → decode at the receiver),
    /// so quantization error **accumulates across the `p − 1` hops** — the
    /// §4.3 observation that makes ring all-reduce a poor fit for gradient
    /// compression ("SGD relies on ring AllReduce, which has the error
    /// propagation issue; KFAC uses AllGather, avoiding this issue").
    /// The contrast is [`reduce_scatter_pieced`]'s codec: it compresses only
    /// the owner-bound last hop, whose partial sum is exact, so each value
    /// is rounded once, as in the all-gather; this routine requantizes a
    /// running sum at every hop.
    ///
    /// `codec` maps a chunk to its lossy reconstruction (a compressor's
    /// compress∘decompress); the all-gather phase also travels compressed.
    /// Returns the per-rank reduced buffer, averaged. Test-only: it is
    /// the counter-example the §4.3 test below measures.
    fn compressed_allreduce_mean(
        comm: &mut Communicator,
        data: &mut [f32],
        mut codec: impl FnMut(&[f32]) -> Vec<f32>,
    ) -> Result<(), CommError> {
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
            let incoming = recv_hop(comm, left, names::COMM_ALLREDUCE, dst.len(), None)?;
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
            let incoming = recv_hop(comm, left, names::COMM_ALLREDUCE, dst.len(), None)?;
            dst.copy_from_slice(&incoming);
        }

        let inv = 1.0 / p as f32;
        for v in data.iter_mut() {
            *v *= inv;
        }
        Ok(())
    }

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
    fn overlapping_blocks_gaps_and_bad_pieces_are_refused_before_any_send() {
        // `[0..5, 0..5]` over ten values has the right lengths: the old
        // check let it through, double-reducing 0..5 and never reducing
        // 5..10. Every rank refuses each call, and nothing goes out.
        let rec = compso_obs::Recorder::enabled();
        let rec_ref = &rec;
        let results = run_ranks(2, |comm| {
            comm.set_recorder(rec_ref.clone());
            let mut data = vec![1.0f32; 10];
            let refused =
                |res: Result<(), CommError>| matches!(res, Err(CommError::Protocol { .. }));
            let mut all = Vec::new();
            // Overlap and overlap + gap, both with the lengths right; a
            // gap; a reversed range.
            for ranges in [
                vec![0..5, 0..5],
                vec![0..6, 4..8],
                vec![0..4, 5..10],
                vec![0..10, Range { start: 7, end: 3 }],
            ] {
                all.push(refused(reduce_scatter_sum(comm, &mut data, &ranges)));
            }
            let tiling = [0..5, 5..10];
            // Short pieces, long pieces, an overflowing sum, a piece list
            // missing, pieces for an empty block.
            for pieces in [
                vec![vec![2, 2], vec![5]],
                vec![vec![5], vec![3, 3]],
                vec![vec![5], vec![1, usize::MAX]],
                vec![vec![5]],
            ] {
                let res = reduce_scatter_pieced(comm, &mut data, &tiling, &pieces, None, |_| {});
                all.push(refused(res));
            }
            let res = reduce_scatter_pieced(
                comm,
                &mut data,
                &[0..10, 10..10],
                &[vec![10], vec![1]],
                None,
                |_| {},
            );
            all.push(refused(res));
            (all, comm.sent_bytes(), data)
        });
        for (all, sent, data) in results {
            assert!(all.iter().all(|&r| r), "{all:?}");
            assert_eq!(sent, 0);
            assert_eq!(data, vec![1.0f32; 10]);
        }
        // A refused call is not a collective.
        assert_eq!(rec.snapshot().counter(names::COMM_ALLREDUCE_CALLS), 0);
    }

    /// The parent commit's `reduce_scatter_sum` (b3c26d5) without its span
    /// and check: one message per block per hop. The oracle for the
    /// pieced ring.
    fn parent_reduce_scatter_sum(
        comm: &mut Communicator,
        data: &mut [f32],
        ranges: &[Range<usize>],
    ) -> Result<(), CommError> {
        let p = comm.size();
        let r = comm.rank();
        for s in 0..p - 1 {
            let send_block = (r + p - s - 1) % p;
            let recv_block = (r + p - s - 2) % p;
            let chunk = data[ranges[send_block].clone()].to_vec();
            comm.send(comm.right(), Payload::F32(chunk))?;
            let dst = &mut data[ranges[recv_block].clone()];
            let incoming = recv_hop(comm, comm.left(), names::COMM_ALLREDUCE, dst.len(), None)?;
            for (d, v) in dst.iter_mut().zip(incoming) {
                *d += v;
            }
        }
        Ok(())
    }

    /// What a pieced reduce told its caller, as the caller saw it.
    #[derive(Debug, PartialEq)]
    enum Heard {
        /// `Idle`, with the bytes the rank had sent by then.
        Idle(u64),
        Landed(Range<usize>, Vec<u32>),
    }

    /// Piece lists for `sizes`-long blocks: whole, and cut in four with a
    /// zero-length piece among them (none at all for an empty block).
    fn piece_shapes(sizes: &[usize]) -> [Vec<Vec<usize>>; 2] {
        let cut = |n: usize| match n {
            0 => Vec::new(),
            n => vec![n / 3, 0, n - n / 3 - n / 4, n / 4],
        };
        [
            sizes.iter().map(|&n| vec![n]).collect(),
            sizes.iter().map(|&n| cut(n)).collect(),
        ]
    }

    #[test]
    fn pieced_reduce_is_the_parent_reduce_scatter_landing_piece_by_piece() {
        for p in 1usize..=5 {
            // Even, uneven with empty blocks, and a block order that is
            // not the buffer's.
            let uneven: Vec<usize> = (0..p).map(|q| 7 * ((q * 3 + 1) % 4)).collect();
            for (sizes, rotate) in [(vec![12usize; p], 0), (uneven.clone(), 0), (uneven, 1)] {
                let ranges = tiling(&sizes, rotate);
                let n: usize = sizes.iter().sum();
                // The rotated tiling keeps the size list's order per rank.
                let sizes: Vec<usize> = ranges.iter().map(|b| b.len()).collect();
                for pieces in piece_shapes(&sizes) {
                    let (ranges, pieces) = (&ranges, &pieces);
                    let runs = run_ranks(p, move |comm| {
                        let me = comm.rank();
                        let outer = comm.recorder().clone();
                        let rec = compso_obs::Recorder::enabled();
                        comm.set_recorder(rec.clone());
                        let mut want = noisy(me, n);
                        parent_reduce_scatter_sum(comm, &mut want, ranges).unwrap();
                        let (sent0, msgs0) = (
                            rec.counter(names::COMM_BYTES_SENT),
                            rec.snapshot()
                                .hists
                                .get(names::COMM_MSG_BYTES)
                                .map_or(0, |h| h.count),
                        );
                        let mut got = noisy(me, n);
                        let mut heard = Vec::new();
                        reduce_scatter_pieced(comm, &mut got, ranges, pieces, None, |event| {
                            heard.push(match event {
                                ReduceEvent::Idle => {
                                    Heard::Idle(rec.counter(names::COMM_BYTES_SENT) - sent0)
                                }
                                ReduceEvent::Landed(range, sums) => {
                                    Heard::Landed(range, bits(sums))
                                }
                            })
                        })
                        .unwrap();
                        let sent = rec.counter(names::COMM_BYTES_SENT) - sent0;
                        let msgs = rec
                            .snapshot()
                            .hists
                            .get(names::COMM_MSG_BYTES)
                            .map_or(0, |h| h.count)
                            - msgs0;
                        comm.set_recorder(outer);
                        (want, got, heard, (sent0, sent), (msgs0, msgs))
                    });
                    for (me, (want, got, heard, sent, msgs)) in runs.into_iter().enumerate() {
                        let tag = format!("p={p} sizes={sizes:?} pieces={pieces:?} rank={me}");
                        let mine = ranges[me].clone();
                        assert_eq!(bits(&got[mine.clone()]), bits(&want[mine.clone()]), "{tag}");
                        assert_eq!(sent.1, sent.0, "{tag}");
                        // The first hop is one whole block, sent before `Idle`.
                        let first = ranges[(me + p - 1) % p].len() as u64 * 4;
                        let idle = Heard::Idle(if p == 1 { 0 } else { first });
                        assert_eq!(heard.first(), Some(&idle), "{tag}");
                        let mut start = mine.start;
                        let landed: Vec<Heard> = (pieces[me].iter())
                            .map(|&len| {
                                start += len;
                                start - len..start
                            })
                            .filter(|part| !part.is_empty())
                            .map(|part| Heard::Landed(part.clone(), bits(&want[part])))
                            .collect();
                        assert_eq!(&heard[1..], &landed[..], "{tag}");
                        // Only the last hop's message count grows.
                        let right = (me + 1) % p;
                        let extra = pieces[right].len().max(1) - 1;
                        assert_eq!(msgs.1, msgs.0 + extra as u64 * u64::from(p > 1), "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn idle_fires_before_the_first_receive() {
        // Rank q calls only once its right neighbour has heard `Idle`, so
        // a rank that received before `Idle` would wait for a left
        // neighbour that is waiting for it; the chain starts at `first`,
        // whose left neighbour has not started — two starting points
        // cover every rank. It gives up after 5 s.
        use std::sync::atomic::{AtomicBool, Ordering};
        for p in 2usize..=5 {
            for first in [0, p - 1] {
                let idle: Vec<AtomicBool> = (0..p).map(|_| AtomicBool::new(false)).collect();
                let idle = &idle;
                let ranges = block_ranges(10 * p, p);
                let ranges = &ranges;
                run_ranks(p, move |comm| {
                    let me = comm.rank();
                    let give_up = Instant::now() + Duration::from_secs(5);
                    while me != first && !idle[(me + 1) % p].load(Ordering::SeqCst) {
                        assert!(
                            Instant::now() < give_up,
                            "p={p} first={first}: rank {me} waited"
                        );
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    let mut data = noisy(me, 10 * p);
                    reduce_scatter_pieced(comm, &mut data, ranges, &whole(ranges), None, |event| {
                        if event == ReduceEvent::Idle {
                            idle[me].store(true, Ordering::SeqCst);
                        }
                    })
                    .unwrap();
                });
            }
        }
    }

    #[test]
    fn a_wrong_length_piece_is_a_protocol_error_not_a_mis_sum() {
        // The ranks disagree on how rank 0's block is cut: rank 1 sends
        // it as 5 + 5 where rank 0 expects 3 + 7.
        let results = run_ranks(2, |comm| {
            let me = comm.rank();
            let pieces = [vec![[3, 7], [5, 5]][me].to_vec(), vec![10]];
            let mut data = noisy(me, 20);
            let mut landed = 0;
            let res =
                reduce_scatter_pieced(comm, &mut data, &[0..10, 10..20], &pieces, None, |event| {
                    landed += usize::from(matches!(event, ReduceEvent::Landed(..)));
                });
            (res, landed, data)
        });
        let (res, landed, data) = &results[0];
        assert!(matches!(res, Err(CommError::Protocol { .. })), "{res:?}");
        assert_eq!(*landed, 0);
        assert_eq!(
            bits(&data[..10]),
            bits(&noisy(0, 20)[..10]),
            "summed a bad piece"
        );
        assert!(
            matches!(results[1].0, Ok(())),
            "rank 1 agrees on its own block"
        );
    }

    /// Per rank, what the reduce's last-hop codec test feeds the ring:
    /// smooth values with a `+Inf` and a `-Inf` in block 0's first and
    /// last pieces on rank 1, and a NaN in block 1's last piece on rank
    /// `2 mod p` — each on a rank that is not the block's owner, so the
    /// partial bound for the owner carries it. From three ranks on,
    /// block `p − 1` is all finite on every hop.
    fn last_hop_inputs(me: usize, ranges: &[Range<usize>], n: usize) -> Vec<f32> {
        let p = ranges.len();
        let mut data: Vec<f32> = noisy(me, n).iter().map(|v| v * 1e-2).collect();
        if me == 1 {
            data[ranges[0].start] = f32::INFINITY;
            data[ranges[0].end - 1] = f32::NEG_INFINITY;
        }
        if me == 2 % p {
            data[ranges[1].end - 1] = f32::NAN;
        }
        data
    }

    #[test]
    fn a_last_hop_codec_rounds_each_value_once_on_the_owner_bound_hop() {
        // Every rank sends block `q` on its way to `q` exactly once; the
        // last sender, `q − 1`, holds the raw partial of the other ranks
        // and compresses it piece by piece. The oracle replays that:
        // raw ring sums, then `decompress(compress(partial))` with the
        // sender's generator, added to the owner's own values.
        let codec = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
        let config = CommConfig {
            modeled_wire_mbps: Some(1000.0),
            ..CommConfig::default()
        };
        let seed = |r: usize| 0x5eed + r as u64;
        for p in [2usize, 3, 4] {
            // Uneven blocks, an empty one at four ranks; each cut in
            // three with an empty piece in the middle.
            let sizes: Vec<usize> = (0..p)
                .map(|q| if p == 4 && q == 2 { 0 } else { 300 + 170 * q })
                .collect();
            let ranges = tiling(&sizes, 0);
            let n: usize = sizes.iter().sum();
            let pieces: Vec<Vec<usize>> = (sizes.iter())
                .map(|&len| match len {
                    0 => Vec::new(),
                    len => vec![len / 3, 0, len - len / 3],
                })
                .collect();
            let (ranges, pieces, codec) = (&ranges, &pieces, &codec);
            let runs = run_ranks_with(p, FaultPlane::disabled(), config.clone(), move |comm| {
                let me = comm.rank();
                let local = last_hop_inputs(me, ranges, n);
                let mut run = |codec: Option<(&dyn Compressor, &mut Rng)>| {
                    let (mut data, before) = (local.clone(), comm.sent_bytes());
                    reduce_scatter_pieced(comm, &mut data, ranges, pieces, codec, |_| {})
                        .expect("no piece is a protocol error");
                    (data, comm.sent_bytes() - before)
                };
                let coded = run(Some((codec, &mut Rng::new(seed(me)))));
                let plain = run(None);
                let mut parent = local.clone();
                let before = comm.sent_bytes();
                parent_reduce_scatter_sum(comm, &mut parent, ranges).unwrap();
                (coded, plain, (parent, comm.sent_bytes() - before))
            });
            let local: Vec<Vec<f32>> = (0..p).map(|r| last_hop_inputs(r, ranges, n)).collect();
            // `partial[k][q]`: what rank `q + k` holds of block `q` once it
            // has summed the hop bringing it — its own values plus the
            // partial of `q + 1 ..= q + k − 1`; `k = 1` is rank `q + 1`'s.
            let partial = |k: usize, q: usize| -> Vec<f32> {
                let block = ranges[q].clone();
                let mut acc = local[(q + 1) % p][block.clone()].to_vec();
                for j in 2..=k {
                    let own = &local[(q + j) % p][block.clone()];
                    acc = own.iter().zip(&acc).map(|(a, b)| a + b).collect();
                }
                acc
            };
            let mut sent = vec![0u64; p];
            let mut rounded = false;
            for (q, block) in ranges.iter().enumerate() {
                let sender = (q + p - 1) % p;
                let last = partial(p - 1, q);
                let mut rng = Rng::new(seed(sender));
                let mut start = block.start;
                for &len in &pieces[q] {
                    let part = start..start + len;
                    start += len;
                    let raw = &last[part.start - block.start..part.end - block.start];
                    let tag = format!("p={p} block {q} piece {part:?}");
                    let own = &runs[q].0 .0[part.clone()];
                    let codec_free = &runs[q].1 .0[part.clone()];
                    if len == 0 {
                        // Raw, as without a codec: the same sum bit for bit.
                        sent[sender] += 4 * len as u64;
                        assert_eq!(bits(own), bits(codec_free), "{tag}");
                        continue;
                    }
                    let frame = codec.compress_group(&[raw], None, &mut rng, &Default::default());
                    sent[sender] += frame.len() as u64;
                    let decoded = codec.decompress(&frame).unwrap();
                    let want: Vec<f32> = (local[q][part.clone()].iter())
                        .zip(&decoded)
                        .map(|(a, b)| a + b)
                        .collect();
                    assert_eq!(bits(own), bits(&want), "{tag}");
                    rounded |= bits(own) != bits(codec_free);
                }
                // Earlier hops: rank `q + k` keeps the raw partial it sent
                // on, summed bit for bit as the codec-free ring sums it.
                for k in 1..p {
                    let rank = (q + k) % p;
                    let held = &runs[rank].0 .0[block.clone()];
                    assert_eq!(
                        bits(held),
                        bits(&partial(k, q)),
                        "p={p} block {q} rank {rank}"
                    );
                    if k < p - 1 {
                        sent[rank] += 4 * block.len() as u64;
                    }
                }
            }
            assert!(rounded, "p={p}: the codec changed no sum");
            for (r, ((_, coded), (plain, raw), (parent, parent_raw))) in runs.iter().enumerate() {
                assert_eq!(
                    *coded, sent[r],
                    "p={p} rank {r}: raw earlier hops plus frames"
                );
                // Without a codec the ring is the parent's, bytes and bits.
                assert_eq!(bits(plain), bits(parent), "p={p} rank {r}");
                assert_eq!(raw, parent_raw, "p={p} rank {r}");
                assert!(
                    coded <= raw,
                    "p={p} rank {r}: {coded} B against {raw} B raw"
                );
            }
        }
    }

    #[test]
    fn an_undecodable_last_hop_frame_is_a_protocol_error() {
        // Rank 1 sends its last hop as bytes that are no frame.
        let codec = ChunkedCompso::default();
        let results = run_ranks(2, |comm| {
            if comm.rank() == 1 {
                comm.send(0, Payload::Bytes(vec![0xC6, 1, 2, 3]))?;
                comm.recv_labeled(0, names::COMM_ALLREDUCE)?;
                return Ok(());
            }
            let mut data = noisy(0, 20);
            let codec: Option<(&dyn Compressor, &mut Rng)> = Some((&codec, &mut Rng::new(1)));
            reduce_scatter_pieced(
                comm,
                &mut data,
                &[0..10, 10..20],
                &[vec![10], vec![10]],
                codec,
                |_| {},
            )
        });
        assert!(
            matches!(results[0], Err(CommError::Protocol { .. })),
            "{results:?}"
        );
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
                let bytes = lossy(&mine).iter().flat_map(|v| v.to_le_bytes()).collect();
                let gathered = allgather_var(comm, bytes).unwrap();
                // Error vs the exact gathered data.
                let mut worst = 0.0f64;
                for (r, block) in gathered.iter().enumerate() {
                    assert_eq!(block.len(), 4 * n);
                    for (i, b) in block.chunks_exact(4).enumerate() {
                        let got = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                        let exact = ((r + 1) as f32 * 0.137 + i as f32 * 0.0113).sin() * 0.1;
                        worst = worst.max(((got - exact) as f64).abs());
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
        // have), so nothing of the attempt outlives the error. Rank 1
        // fails relaying to the departed rank 2, and stays until rank 0
        // is done: leaving earlier would fail rank 0's relay to it, ahead
        // of the receive this test is about (2 in 60 runs did).
        use std::sync::atomic::{AtomicBool, Ordering};
        let groups = [2usize, 2, 2];
        let config = CommConfig {
            recv_timeout: Duration::from_secs(2),
            ..CommConfig::default()
        };
        let rank0_done = AtomicBool::new(false);
        let rank0_done = &rank0_done;
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
            if me == 0 {
                rank0_done.store(true, Ordering::SeqCst);
            }
            let give_up = Instant::now() + Duration::from_secs(10);
            while !rank0_done.load(Ordering::SeqCst) && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(1));
            }
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
