//! Elastic membership: epoch-numbered views, quorum-agreed shrink, and
//! live rejoin.
//!
//! The wire format here is the `0xC9` membership frame registered in
//! `compso_core::wire::magic`: one fixed layout carrying three kinds —
//!
//! | kind | meaning |
//! |------|---------|
//! | 0 `Proposal`      | shrink round: "remove `ranks` for `epoch`"      |
//! | 1 `RejoinRequest` | a restarted rank asking to be admitted          |
//! | 2 `Welcome`       | the leader's admission: new view + group clocks |
//!
//! layout: `[0xC9][kind u8][epoch u64][round u32][sender u32]`
//! `[barrier_gen u64][step u64][count u32][count × u32 ranks]`.
//!
//! Proposals travel inside the normal ARQ stream between live survivors
//! (the proposal doubles as the FIFO fence that flushes the interrupted
//! collective's stale traffic). Rejoin requests and welcomes travel as
//! *raw* sequence-less frames because the pairwise ARQ state is stale on
//! one side; both sides reset to sequence 0 at the grow commit. Payload
//! streams on an armed fault plane must therefore never begin with
//! [`MAGIC`] unless they are membership frames — every other format in
//! the workspace carries its own distinct magic byte.
//!
//! The `Communicator` half of the protocol lives here too: the shrink
//! round, the stream resets and channel flushes a view change needs, the
//! grow commit on both sides, and the raw-frame send and receive. Its
//! waits are [`Communicator`]'s one bounded wait, so a silent peer
//! surfaces as `Timeout { rank, collective: comm/membership }`.

use crate::arq::{payload_crc, Ctrl, DataMsg, RAW_SEQ};
use crate::collectives::broadcast_bytes;
use crate::group::{CommError, Communicator, Mode, Payload};
use compso_core::wire::{magic, Reader, WireError, Writer};
use compso_obs::names;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// First byte of every membership frame (`compso_core::wire::magic::MAGIC_MEMBERSHIP`).
pub const MAGIC: u8 = magic::MAGIC_MEMBERSHIP;

/// Upper bound on the rank list a membership frame may carry — matches
/// the checkpoint manifest's `WORLD_MAX`.
pub const RANKS_MAX: usize = 4096;

const KIND_PROPOSAL: u8 = 0;
const KIND_REJOIN_REQUEST: u8 = 1;
const KIND_WELCOME: u8 = 2;

/// A committed membership change, as returned by
/// [`Communicator::shrink`] and [`rejoin`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewChange {
    /// The epoch of the new view.
    pub epoch: u64,
    /// Physical ranks removed by this change (empty for a grow).
    pub removed: Vec<usize>,
    /// Sorted physical ranks of the new view.
    pub live: Vec<usize>,
}

/// A decoded membership frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MembershipFrame {
    /// One shrink round's vote: remove `ranks` to form `epoch`.
    Proposal {
        /// The epoch the proposed view would have.
        epoch: u64,
        /// Convergence round within this shrink (suspect sets only grow).
        round: u32,
        /// Physical rank of the proposer.
        sender: u32,
        /// Suspected-failed physical ranks.
        ranks: Vec<u32>,
    },
    /// A restarted rank asking every peer for admission.
    RejoinRequest {
        /// The epoch the joiner last saw (informational).
        epoch: u64,
        /// Physical rank of the joiner.
        sender: u32,
    },
    /// The leader's admission decision, adopted verbatim by the joiner.
    Welcome {
        /// The epoch of the grown view.
        epoch: u64,
        /// Physical rank of the leader.
        sender: u32,
        /// The group's barrier generation at admission.
        barrier_gen: u64,
        /// The group's training-step counter at admission.
        step: u64,
        /// Sorted physical ranks of the grown view (joiner included).
        ranks: Vec<u32>,
    },
}

impl MembershipFrame {
    /// Serializes to the fixed `0xC9` layout.
    pub fn encode(&self) -> Vec<u8> {
        let (kind, epoch, round, sender, barrier_gen, step, ranks): (
            u8,
            u64,
            u32,
            u32,
            u64,
            u64,
            &[u32],
        ) = match self {
            MembershipFrame::Proposal {
                epoch,
                round,
                sender,
                ranks,
            } => (KIND_PROPOSAL, *epoch, *round, *sender, 0, 0, ranks),
            MembershipFrame::RejoinRequest { epoch, sender } => {
                (KIND_REJOIN_REQUEST, *epoch, 0, *sender, 0, 0, &[])
            }
            MembershipFrame::Welcome {
                epoch,
                sender,
                barrier_gen,
                step,
                ranks,
            } => (KIND_WELCOME, *epoch, 0, *sender, *barrier_gen, *step, ranks),
        };
        let mut w = Writer::new();
        w.u8(MAGIC);
        w.u8(kind);
        w.u64(epoch);
        w.u32(round);
        w.u32(sender);
        w.u64(barrier_gen);
        w.u64(step);
        w.u32(ranks.len() as u32);
        for &r in ranks {
            w.u32(r);
        }
        w.into_bytes()
    }

    /// Parses a `0xC9` frame, rejecting bad magic, unknown kinds,
    /// oversized rank lists, and trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<MembershipFrame, WireError> {
        let mut r = Reader::new(bytes);
        if r.u8()? != MAGIC {
            return Err(WireError::Invalid("bad membership magic"));
        }
        let kind = r.u8()?;
        let epoch = r.u64()?;
        let round = r.u32()?;
        let sender = r.u32()?;
        let barrier_gen = r.u64()?;
        let step = r.u64()?;
        let count = rank_count(&mut r)?;
        if count > RANKS_MAX {
            return Err(WireError::Invalid("membership rank list too long"));
        }
        let mut ranks = Vec::with_capacity(count);
        for _ in 0..count {
            ranks.push(r.u32()?);
        }
        if !r.is_exhausted() {
            return Err(WireError::Invalid("trailing bytes after membership frame"));
        }
        let frame = match kind {
            KIND_PROPOSAL => MembershipFrame::Proposal {
                epoch,
                round,
                sender,
                ranks,
            },
            KIND_REJOIN_REQUEST => {
                if !ranks.is_empty() {
                    return Err(WireError::Invalid("rejoin request carries no rank list"));
                }
                MembershipFrame::RejoinRequest { epoch, sender }
            }
            KIND_WELCOME => MembershipFrame::Welcome {
                epoch,
                sender,
                barrier_gen,
                step,
                ranks,
            },
            _ => return Err(WireError::Invalid("unknown membership frame kind")),
        };
        Ok(frame)
    }
}

/// Reads the rank-list length prefix. Split out from [`MembershipFrame::decode`]
/// deliberately: a *caller* allocating from this return value without a
/// bound is exactly the cross-function hole `compso-lint`'s
/// `unchecked-length-prefix` taint now tracks — `decode` guards it
/// against [`RANKS_MAX`] before its `Vec::with_capacity`.
fn rank_count(r: &mut Reader<'_>) -> Result<usize, WireError> {
    Ok(r.u32()? as usize)
}

/// Encoded admission decision broadcast by the leader: the joiner's
/// physical rank, or `u32::MAX` for "nobody".
const NO_JOINER: u32 = u32::MAX;

/// Polls for and admits at most one pending rejoiner. Call on **every
/// live member** at a step boundary (SPMD): the leader (virtual rank 0)
/// sweeps the dead ranks' channels for a [`MembershipFrame::RejoinRequest`],
/// broadcasts its decision, and on admission every member drains the
/// joiner's channel to the request fence before the leader issues the
/// [`MembershipFrame::Welcome`] and everyone commits the grow.
///
/// Returns the committed [`ViewChange`] when a rank was admitted. The
/// caller is responsible for state catch-up (factors, model, optimizer)
/// *after* the grow — see `compso-kfac`'s elastic catch-up.
pub fn admit_pending(comm: &mut Communicator) -> Result<Option<ViewChange>, CommError> {
    if comm.dead_ranks().is_empty() {
        return Ok(None);
    }
    let mut decision = NO_JOINER;
    if comm.rank() == 0 {
        for p in comm.dead_ranks().to_vec() {
            if comm
                .poll_raw_membership(p)
                .is_some_and(|b| is_request_from(&b, p))
            {
                decision = p as u32;
                break;
            }
        }
    }
    // The decision rides with the leader's step counter: ranks can
    // abandon *different* steps when a crash interrupts them at skewed
    // points, and an unsynchronized counter would leave one member a
    // whole collective short after readmission (a guaranteed ring
    // deadlock on the last step). Membership owns the step clock at
    // every view change — the committing members adopt the leader's
    // step exactly as the joiner adopts the one in its welcome.
    let mut buf = Vec::with_capacity(12);
    buf.extend_from_slice(&decision.to_le_bytes());
    buf.extend_from_slice(&comm.current_step().to_le_bytes());
    broadcast_bytes(comm, 0, &mut buf)?;
    let mut r = Reader::new(&buf);
    let (Ok(decision), Ok(leader_step), true) = (r.u32(), r.u64(), r.is_exhausted()) else {
        return Err(CommError::Protocol {
            expected: "a 12-byte admission decision",
        });
    };
    if decision == NO_JOINER {
        return Ok(None);
    }
    let joiner = decision as usize;
    let deadline = comm.clock.now() + comm.config().recv_timeout;
    if comm.rank() != 0 {
        // Drain this member's own channel from the joiner to its request
        // fence: everything before it is stale traffic from the crashed
        // step.
        while !is_request_from(&comm.recv_raw_membership(joiner, deadline)?, joiner) {}
    }
    let mut live: Vec<u32> = comm.live_ranks().iter().map(|&r| r as u32).collect();
    live.push(joiner as u32);
    live.sort_unstable();
    if comm.rank() == 0 {
        let welcome = MembershipFrame::Welcome {
            epoch: comm.epoch() + 1,
            sender: comm.phys_rank() as u32,
            barrier_gen: comm.barrier_gen,
            step: leader_step,
            ranks: live.clone(),
        }
        .encode();
        comm.send_raw_frame(joiner, welcome)?;
    }
    comm.grow_commit(joiner, leader_step);
    Ok(Some(ViewChange {
        epoch: comm.epoch(),
        removed: Vec::new(),
        live: comm.live_ranks().to_vec(),
    }))
}

/// Whether `bytes` is physical rank `p`'s own rejoin request.
fn is_request_from(bytes: &[u8], p: usize) -> bool {
    matches!(
        MembershipFrame::decode(bytes),
        Ok(MembershipFrame::RejoinRequest { sender, .. }) if sender as usize == p
    )
}

/// A restarted rank's re-entry: sends a [`MembershipFrame::RejoinRequest`]
/// to every physical peer, then sweeps all channels until a
/// [`MembershipFrame::Welcome`] arrives, adopting its view and clocks
/// wholesale. The rank's state comes from the group-wide catch-up
/// that runs after this returns, not from a checkpoint.
pub fn rejoin(comm: &mut Communicator) -> Result<ViewChange, CommError> {
    let me = comm.phys_rank();
    let request = MembershipFrame::RejoinRequest {
        epoch: comm.epoch(),
        sender: me as u32,
    }
    .encode();
    let deadline = comm.clock.now() + comm.config().recv_timeout;
    // Re-advertise on an interval: a member flushing its streams around
    // a concurrent view change may discard a queued request, and raw
    // frames have no retransmit of their own. With no single peer to
    // block on, sweep every channel a poll slice apart; a timeout names
    // this rank.
    let mut advertise_at = comm.clock.now();
    let sleep: Mode<()> = Mode::Sleep;
    comm.wait_for(me, names::COMM_MEMBERSHIP, deadline, sleep, |c, _| {
        if c.clock.now() >= advertise_at {
            for p in (0..c.size).filter(|&p| p != me) {
                // lint:allow(swallowed-comm-error): best-effort advertisement — a dead peer cannot be reached, and the interval timer re-advertises
                let _ = c.send_raw_frame(p, request.clone());
            }
            advertise_at = c.clock.now() + Duration::from_millis(50);
        }
        for p in (0..c.size).filter(|&p| p != me) {
            let Some(bytes) = c.poll_raw_membership(p) else {
                continue;
            };
            if let Ok(MembershipFrame::Welcome {
                epoch,
                barrier_gen,
                step,
                ranks,
                ..
            }) = MembershipFrame::decode(&bytes)
            {
                let live: Vec<usize> = ranks.iter().map(|&r| r as usize).collect();
                c.adopt_view(epoch, live, barrier_gen, step);
                return Ok(ControlFlow::Break(ViewChange {
                    epoch,
                    removed: Vec::new(),
                    live: c.live.clone(),
                }));
            }
        }
        Ok(ControlFlow::Continue(None))
    })
}

/// Splits membership frames off the data plane: the frame's bytes when
/// `p` is one (a byte payload opening with [`MAGIC`]), the payload back
/// untouched otherwise.
pub(crate) fn membership_frame(p: Payload) -> Result<Vec<u8>, Payload> {
    match p {
        Payload::Bytes(b) if b.first() == Some(&MAGIC) => Ok(b),
        other => Err(other),
    }
}

/// The membership frame in a message read straight off a channel,
/// bypassing the ARQ stream: CRC-checked, anything else is `None`.
fn raw_membership(msg: DataMsg) -> Option<Vec<u8>> {
    if msg.crc != payload_crc(&msg.payload) {
        return None;
    }
    membership_frame(msg.payload).ok()
}

impl Communicator {
    /// Sends a sequence-less membership frame straight onto `dst`'s data
    /// channel (physical rank). Bypasses the ARQ stream *and* the fault
    /// plane: membership traffic models the reliable control plane.
    pub(crate) fn send_raw_frame(&mut self, dst: usize, frame: Vec<u8>) -> Result<(), CommError> {
        let payload = Payload::Bytes(frame);
        let msg = DataMsg {
            seq: RAW_SEQ,
            crc: payload_crc(&payload),
            sent_at: self.clock.now(),
            payload,
        };
        self.data_tx[dst]
            .send(msg)
            .map_err(|_| self.disconnect_error(dst))
    }

    /// Non-blocking sweep of `src`'s channel (physical rank) for a
    /// membership frame: previously diverted frames first, then the raw
    /// channel, discarding stale collective traffic unacknowledged (the
    /// sender's ARQ retransmits anything a live peer still needs).
    fn poll_raw_membership(&mut self, src: usize) -> Option<Vec<u8>> {
        if let Some(b) = self.rejoin_stash[src].pop_front() {
            return Some(b);
        }
        while let Some(msg) = self.data_rx[src].try_recv() {
            if let Some(frame) = raw_membership(msg) {
                return Some(frame);
            }
        }
        None
    }

    /// Blocking [`Communicator::poll_raw_membership`], bounded by
    /// `deadline`. Used by members draining a joiner's channel to its
    /// rejoin-request fence; anything else on that channel is stale
    /// collective traffic, discarded unacknowledged.
    fn recv_raw_membership(&mut self, src: usize, deadline: Instant) -> Result<Vec<u8>, CommError> {
        let mode = Mode::Block(|c, p| &c.data_rx[p]);
        self.wait_for(src, names::COMM_MEMBERSHIP, deadline, mode, |c, arrived| {
            let frame = arrived.and_then(raw_membership);
            let frame = frame.or_else(|| c.poll_raw_membership(src));
            Ok(frame.map_or(ControlFlow::Continue(None), ControlFlow::Break))
        })
    }

    /// Receives the next membership frame from live physical rank `src`
    /// through the ARQ stream, discarding stale data payloads from the
    /// interrupted collective (the proposal a peer sends on entering its
    /// shrink round is a FIFO fence: everything before it is abandoned
    /// traffic).
    fn recv_membership_arq(&mut self, src: usize) -> Result<Vec<u8>, CommError> {
        loop {
            if let Some(b) = self.membership_stash[src].pop_front() {
                return Ok(b);
            }
            // Anything else is a stale collective payload: discard.
            if let Ok(frame) = membership_frame(self.recv_arq(src, names::COMM_MEMBERSHIP, true)?) {
                return Ok(frame);
            }
        }
    }

    /// Quorum-agreed view shrink: absorbs `suspects` (plus any poisoned
    /// or departed ranks) out of the live view, agreeing the new view
    /// `{epoch+1, live \ suspects}` with every surviving candidate by
    /// exchanging proposal frames until the suspect union is unanimous.
    /// A candidate that fails mid-round is folded into the suspect set
    /// and the round restarts. Refuses to shrink below a majority of the
    /// current view (split-brain guard).
    ///
    /// On commit the dead ranks' transport state is cleared, the epoch
    /// advances, and `comm/membership/{shrinks,epochs}` are recorded.
    /// `suspects` are physical ranks, as carried by [`CommError`]s.
    pub fn shrink(&mut self, mut suspects: Vec<usize>) -> Result<ViewChange, CommError> {
        if let Some(r) = self.poison_active() {
            suspects.push(r);
        }
        suspects.extend(self.departed_ranks().iter().copied());
        suspects.retain(|&s| s != self.rank && self.live.contains(&s));
        suspects.sort_unstable();
        suspects.dedup();
        if suspects.is_empty() {
            return Err(CommError::Protocol {
                expected: "a failed live rank to shrink",
            });
        }
        let old_len = self.live.len();
        let next_epoch = self.epoch + 1;
        let mut round: u32 = 0;
        loop {
            if (old_len - suspects.len()) * 2 <= old_len {
                self.absorbing.clear();
                return Err(CommError::Protocol {
                    expected: "a surviving majority of the old view",
                });
            }
            self.absorbing = suspects.clone();
            let candidates: Vec<usize> = self
                .live
                .iter()
                .copied()
                .filter(|&p| p != self.rank && !suspects.contains(&p))
                .collect();
            let frame = MembershipFrame::Proposal {
                epoch: next_epoch,
                round,
                sender: self.rank as u32,
                ranks: suspects.iter().map(|&s| s as u32).collect(),
            }
            .encode();
            let mut failed: Option<usize> = None;
            for &p in &candidates {
                if self.send_to_phys(p, Payload::Bytes(frame.clone())).is_err() {
                    failed = Some(p);
                    break;
                }
            }
            let mut union = suspects.clone();
            if failed.is_none() {
                'collect: for &p in &candidates {
                    loop {
                        match self.recv_membership_arq(p) {
                            Ok(bytes) => match MembershipFrame::decode(&bytes) {
                                Ok(MembershipFrame::Proposal {
                                    epoch,
                                    round: r,
                                    ranks,
                                    ..
                                }) => {
                                    if epoch != next_epoch {
                                        self.absorbing.clear();
                                        return Err(CommError::Protocol {
                                            expected: "a proposal for the same next epoch",
                                        });
                                    }
                                    if r < round {
                                        continue; // stale round: keep draining
                                    }
                                    round = round.max(r);
                                    for s in ranks {
                                        let s = s as usize;
                                        if !union.contains(&s) {
                                            union.push(s);
                                        }
                                    }
                                    break;
                                }
                                // Rejoin traffic or garbage mid-shrink:
                                // ignore, keep draining.
                                _ => continue,
                            },
                            Err(e) => {
                                failed = e.culprit();
                                if failed.is_none() {
                                    self.absorbing.clear();
                                    return Err(e);
                                }
                                break 'collect;
                            }
                        }
                    }
                }
            }
            if let Some(q) = failed {
                if !suspects.contains(&q) {
                    suspects.push(q);
                    suspects.sort_unstable();
                }
                round += 1;
                continue;
            }
            union.sort_unstable();
            if union != suspects {
                suspects = union;
                round += 1;
                continue;
            }
            // Unanimous: commit the new view.
            self.absorbing.clear();
            for &s in &suspects {
                self.live.retain(|&r| r != s);
                if !self.dead.contains(&s) {
                    self.dead.push(s);
                }
                self.reset_peer(s);
                // Requests queued before this death are from a previous
                // incarnation — a ghost that could trigger admission of
                // a rank that is no longer asking. A revived rank
                // re-advertises on an interval, so wiping here loses
                // nothing.
                self.rejoin_stash[s].clear();
            }
            self.dead.sort_unstable();
            self.epoch = next_epoch;
            self.recorder.incr(names::COMM_MEMBERSHIP_SHRINKS);
            self.recorder.incr(names::COMM_MEMBERSHIP_EPOCHS);
            return Ok(ViewChange {
                epoch: self.epoch,
                removed: suspects,
                live: self.live.clone(),
            });
        }
    }

    /// Restarts the pairwise ARQ stream with physical rank `p`: both
    /// directions back to sequence 0, nothing in flight, nothing stashed.
    /// The raw-plane `rejoin_stash` follows incarnations, not streams, and
    /// the channels may still hold old-stream frames: callers wipe the one
    /// and [`Communicator::drain_stale_channels`] the other as their view
    /// change requires.
    fn reset_peer(&mut self, p: usize) {
        self.send_seq[p] = 0;
        self.recv_expect[p] = 0;
        self.outbox[p].clear();
        self.stash[p].clear();
        self.membership_stash[p].clear();
        self.barrier_stash[p].clear();
    }

    /// Discards every frame queued in the channels from `src`, keeping
    /// only barrier traffic (exact-generation matched, so a stale entry
    /// is inert in the stash). Must accompany a pairwise sequence reset:
    /// frames still in flight on the *old* stream carry old sequence
    /// numbers and old cumulative `Ack { upto }` watermarks — kept, an
    /// old data frame would be stashed under (and later served as) a
    /// position in the new stream, and an old ack would prune undelivered
    /// new-stream flights from the peer's outbox. Anything *new*-stream
    /// discarded here is necessarily unacknowledged, so the sender's ARQ
    /// retransmits it.
    fn drain_stale_channels(&mut self, src: usize) {
        while let Some(msg) = self.data_rx[src].try_recv() {
            // Raw-plane membership frames are sequence-less and valid
            // across the reset (a rejoin request queued mid-flush is the
            // one the next admission sweep needs): keep them, CRC-checked.
            if msg.seq == RAW_SEQ {
                if let Some(frame) = raw_membership(msg) {
                    self.rejoin_stash[src].push_back(frame);
                }
            }
        }
        while let Some(msg) = self.ctrl_rx[src].try_recv() {
            if matches!(msg, Ctrl::Arrive { .. } | Ctrl::Release { .. }) {
                self.barrier_stash[src].push_back(msg);
            }
        }
    }

    /// Flushes every surviving pairwise stream after a view change, at a
    /// step boundary: barrier over the current live view, then reset all
    /// sequence state and discard whatever the abandoned step left in
    /// flight. The barrier makes this sound in-process: a peer's sends
    /// happen-before its barrier arrival, which happens-before our
    /// release, so by the time we flush, every stale frame is already
    /// queued — nothing from the old stream can arrive afterwards.
    /// Pending raw-plane rejoin requests survive (see
    /// [`Communicator::drain_stale_channels`]).
    pub fn resync_view(&mut self) -> Result<(), CommError> {
        self.barrier()?;
        for p in self.live.clone() {
            if p == self.rank {
                continue;
            }
            self.reset_peer(p);
            self.drain_stale_channels(p);
        }
        Ok(())
    }

    /// Commits the admission of `joiner` (physical rank) into the live
    /// view: re-inserts it sorted, resets the pairwise ARQ state (both
    /// sides restart at sequence 0), adopts the admission leader's step
    /// counter (ranks whose crash-interrupted steps were abandoned at
    /// skewed points re-align their loops here), bumps the epoch, and
    /// records `comm/membership/{rejoins,epochs}`.
    fn grow_commit(&mut self, joiner: usize, step: u64) {
        if !self.live.contains(&joiner) {
            self.live.push(joiner);
            self.live.sort_unstable();
        }
        self.dead.retain(|&r| r != joiner);
        // Clear the joiner's departure notice *here*, not only when the
        // joiner adopts its welcome: otherwise the window between this
        // commit and the adoption re-fails the joiner on every member.
        self.departed_ranks().retain(|&r| r != joiner);
        self.reset_peer(joiner);
        self.rejoin_stash[joiner].clear();
        self.drain_stale_channels(joiner);
        self.step = step;
        self.epoch += 1;
        self.recorder.incr(names::COMM_MEMBERSHIP_REJOINS);
        self.recorder.incr(names::COMM_MEMBERSHIP_EPOCHS);
    }

    /// The rejoining rank's half of [`Communicator::grow_commit`]: adopts
    /// the welcomed view and clocks wholesale, resets *all* pairwise ARQ
    /// state (every relationship restarts at sequence 0), and clears its
    /// own departure notice.
    fn adopt_view(&mut self, epoch: u64, live: Vec<usize>, barrier_gen: u64, step: u64) {
        self.dead = (0..self.size).filter(|r| !live.contains(r)).collect();
        self.live = live;
        self.epoch = epoch;
        self.barrier_gen = barrier_gen;
        self.step = step;
        for p in 0..self.size {
            if p == self.rank {
                continue;
            }
            self.reset_peer(p);
            self.rejoin_stash[p].clear();
            self.drain_stale_channels(p);
        }
        let me = self.rank;
        self.departed_ranks().retain(|&r| r != me);
        self.recorder.incr(names::COMM_MEMBERSHIP_REJOINS);
        self.recorder.incr(names::COMM_MEMBERSHIP_EPOCHS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::allreduce_sum;
    use crate::fault::{FaultConfig, FaultPlane};
    use crate::group::{build_group_with, run_ranks_elastic, CommConfig};

    fn elastic_config() -> CommConfig {
        CommConfig {
            recv_timeout: Duration::from_secs(10),
            retry_initial: Duration::from_millis(40),
            max_retries: 10,
            modeled_wire_mbps: None,
        }
    }

    /// The full transport-level loop: rank 2 crashes at step 3 of 8, the
    /// survivors shrink to `{0, 1, 3}` and keep allreducing, the revived
    /// rank rejoins live, and the final view is whole again at epoch 2
    /// on every rank.
    #[test]
    fn crash_shrink_continue_and_rejoin() {
        const N: usize = 4;
        const STEPS: u64 = 8;
        let plane = FaultPlane::new(FaultConfig {
            seed: 9,
            crash_at: Some((2, 3)),
            ..FaultConfig::default()
        });
        // Deterministic schedule: the revived rank may only ask to rejoin
        // once the survivors have completed two steps on the shrunk view,
        // and the survivors then hold at the admission sweep until it
        // lands (the sweep is a broadcast round, so members stay SPMD).
        let may_rejoin = std::sync::atomic::AtomicBool::new(false);
        let results = run_ranks_elastic(N, plane, elastic_config(), |comm, revived| {
            if revived {
                while !may_rejoin.load(std::sync::atomic::Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                rejoin(comm).expect("rejoin after revival");
            }
            let mut sums = Vec::new();
            while comm.current_step() < STEPS {
                if may_rejoin.load(std::sync::atomic::Ordering::Acquire) && comm.size() < N {
                    while admit_pending(comm).expect("admission sweep").is_none() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                } else {
                    admit_pending(comm).expect("admission sweep");
                }
                comm.begin_step(); // rank 2 panics here at step 3
                let mut x = vec![1.0f32];
                match allreduce_sum(comm, &mut x) {
                    Ok(()) => {
                        sums.push(x[0] as usize);
                        if sums.iter().filter(|&&s| s == 3).count() == 2 {
                            may_rejoin.store(true, std::sync::atomic::Ordering::Release);
                        }
                    }
                    Err(e) => {
                        let culprit = e
                            .culprit()
                            .unwrap_or_else(|| panic!("error must name the failed rank: {e:?}"));
                        comm.shrink(vec![culprit])
                            .expect("survivors agree a shrink");
                        // The interrupted step is abandoned at this layer
                        // (DistKfac degrades through its repair ladder
                        // instead).
                    }
                }
            }
            (comm.epoch(), comm.live_ranks().to_vec(), sums)
        });
        for (rank, r) in results.iter().enumerate() {
            let (epoch, live, sums) = r.as_ref().expect("every rank finishes");
            assert_eq!(*epoch, 2, "rank {rank}: shrink + rejoin = two epochs");
            assert_eq!(*live, vec![0, 1, 2, 3], "rank {rank}: view whole again");
            // Every completed allreduce summed one 1.0 per live rank, so
            // the log reads 4 (full), then 3 (shrunk), then 4 (rejoined).
            assert!(
                sums.iter().all(|&s| s == 3 || s == 4),
                "rank {rank}: sums track the live view, got {sums:?}"
            );
        }
        // Deterministic exact trajectory for every survivor: the crashed
        // rank contributed fully to steps 0-2 (in-flight frames are
        // served before the failure detector fires, so all survivors
        // finish step 2), step 3 is abandoned uniformly, two steps run
        // shrunk, and the readmitted view covers the rest.
        for &rank in &[0usize, 1, 3] {
            let (_, _, sums) = results[rank].as_ref().expect("survivor finishes");
            assert_eq!(
                sums,
                &vec![4, 4, 4, 3, 3, 4, 4],
                "rank {rank}: exact trajectory"
            );
        }
        // The joiner's revived run logs only its two readmitted steps.
        let (_, _, sums2) = results[2].as_ref().expect("the joiner finishes");
        assert_eq!(sums2, &vec![4, 4], "joiner: the two readmitted steps");
    }

    /// Both membership waits give up at their deadline and name the rank
    /// they waited on: a rejoiner nobody welcomes names itself, and a
    /// member draining a joiner whose request never reached it names the
    /// joiner.
    #[test]
    fn membership_waits_time_out_naming_whom_they_waited_on() {
        let timeout = Duration::from_millis(50);
        let config = CommConfig {
            recv_timeout: timeout,
            ..elastic_config()
        };
        let within_deadline = |waited: Duration| waited >= timeout && waited < 20 * timeout;

        // Rank 1 asks to rejoin; rank 0 is alive but never welcomes it.
        let mut pair =
            build_group_with(2, FaultPlane::disabled(), config.clone()).into_communicators();
        let t0 = Instant::now();
        let err = rejoin(&mut pair[1]).expect_err("nobody welcomes");
        let waited = t0.elapsed();
        assert_eq!(
            err,
            CommError::Timeout {
                rank: 1,
                collective: names::COMM_MEMBERSHIP
            }
        );
        assert!(within_deadline(waited), "rejoin gave up after {waited:?}");

        // Ranks 0 and 1 run without rank 2, whose request reaches the
        // leader only: the leader admits it, rank 1 drains a silent
        // channel to the request fence.
        let mut comms = build_group_with(3, FaultPlane::disabled(), config).into_communicators();
        for c in &mut comms[..2] {
            c.live = vec![0, 1];
            c.dead = vec![2];
        }
        let request = MembershipFrame::RejoinRequest {
            epoch: 0,
            sender: 2,
        }
        .encode();
        comms[2]
            .send_raw_frame(0, request)
            .expect("leader reachable");
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let members: Vec<_> = comms[..2]
                .iter_mut()
                .map(|c| {
                    s.spawn(move || {
                        let t0 = Instant::now();
                        (admit_pending(c), t0.elapsed())
                    })
                })
                .collect();
            members.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            matches!(outcomes[0].0, Ok(Some(_))),
            "the leader admits: {:?}",
            outcomes[0].0
        );
        let (member, waited) = &outcomes[1];
        assert_eq!(
            member,
            &Err(CommError::Timeout {
                rank: 2,
                collective: names::COMM_MEMBERSHIP
            })
        );
        assert!(
            within_deadline(*waited),
            "the drain gave up after {waited:?}"
        );
    }

    /// Shrinking below a majority of the current view is refused: the
    /// last survivor of a pair cannot form a one-rank quorum.
    #[test]
    fn shrink_refuses_to_lose_quorum() {
        let plane = FaultPlane::new(FaultConfig {
            seed: 1,
            ..FaultConfig::default()
        });
        let mut comms = build_group_with(2, plane, elastic_config()).into_communicators();
        let err = comms[0]
            .shrink(vec![1])
            .expect_err("2 -> 1 must be refused");
        assert_eq!(
            err,
            CommError::Protocol {
                expected: "a surviving majority of the old view",
            }
        );
        assert_eq!(comms[0].size(), 2, "the view must be untouched");
        assert_eq!(comms[0].epoch(), 0);
    }

    #[test]
    fn frames_roundtrip_all_kinds() {
        let frames = [
            MembershipFrame::Proposal {
                epoch: 3,
                round: 1,
                sender: 2,
                ranks: vec![1, 4],
            },
            MembershipFrame::RejoinRequest {
                epoch: 5,
                sender: 2,
            },
            MembershipFrame::Welcome {
                epoch: 7,
                sender: 0,
                barrier_gen: 41,
                step: 12,
                ranks: vec![0, 1, 2, 3],
            },
        ];
        for f in frames {
            let bytes = f.encode();
            assert_eq!(bytes[0], MAGIC);
            assert_eq!(MembershipFrame::decode(&bytes).expect("roundtrip"), f);
        }
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let bytes = MembershipFrame::Welcome {
            epoch: 1,
            sender: 0,
            barrier_gen: 2,
            step: 3,
            ranks: vec![0, 1, 2],
        }
        .encode();
        for cut in 0..bytes.len() {
            assert!(
                MembershipFrame::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn decode_rejects_bad_magic_kind_and_trailing() {
        let good = MembershipFrame::RejoinRequest {
            epoch: 0,
            sender: 1,
        }
        .encode();
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(MembershipFrame::decode(&bad_magic).is_err());
        let mut bad_kind = good.clone();
        bad_kind[1] = 9;
        assert!(MembershipFrame::decode(&bad_kind).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(MembershipFrame::decode(&trailing).is_err());
    }

    #[test]
    fn decode_bounds_the_rank_list() {
        let mut bytes = MembershipFrame::Proposal {
            epoch: 1,
            round: 0,
            sender: 0,
            ranks: vec![],
        }
        .encode();
        let n = bytes.len();
        // Forge a huge count with no payload behind it: must error, not
        // allocate.
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(MembershipFrame::decode(&bytes).is_err());
    }
}
