//! Rank groups: the membership view, fallible point-to-point send and
//! receive, the one bounded wait, and the `run_ranks*` harness.
//!
//! A [`CommGroup`] is a full mesh of unbounded crossbeam channels between
//! `n` ranks — a **data** mesh for payloads and a **control** mesh for
//! ACK/NACK and barrier traffic. Each rank's [`Communicator`] sends a
//! [`Payload`] to any peer and receives from a *specific* one, the shape
//! the ring collectives in [`crate::collectives`] need. Beside this file:
//! `clock` (every time read, sleep and timed channel wait, and the modeled
//! wire), `arq` (the CRC envelope and NACK/retransmit behind an armed
//! [`FaultPlane`]), [`crate::membership`] (shrink, rejoin and the
//! view-change glue) and [`crate::fault`] (the seeded fault plane).
//!
//! **No receive path can block forever**: receives, the barrier and the
//! membership handshakes all wait in `Communicator::wait_for`, which
//! surfaces [`CommError::Timeout`] naming the peer it waited on (so a
//! barrier timeout names the straggler). With [`FaultPlane::disabled`] a
//! receive is one deadline-bounded blocking wait. A rank that panics
//! inside [`run_ranks`] **poisons** the group: blocked peers error out
//! with [`CommError::Poisoned`] instead of hanging, and `run_ranks`
//! re-raises the *first* panicking rank's payload tagged with its rank id.

use crate::arq::{Ctrl, DataMsg, Flight};
use crate::clock::Clock;
use crate::fault::FaultPlane;
use compso_obs::{names, Recorder};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Granularity of a polling wait: how often a blocked receiver wakes to
/// service control traffic (peer NACKs needing retransmission) and check
/// poison.
const POLL_SLICE: Duration = Duration::from_millis(2);

/// Shortest single block of a wait: a wake-up already due cannot spin.
const MIN_BLOCK: Duration = Duration::from_micros(50);

/// A message exchanged between ranks.
///
/// Typed variants avoid round-tripping gradient buffers through byte
/// serialization; compressed traffic and control metadata travel as
/// `Bytes`.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// A dense f32 buffer (gradients, covariance factors).
    F32(Vec<f32>),
    /// An opaque byte stream: compressed frames or control metadata.
    Bytes(Vec<u8>),
}

impl Payload {
    /// Unwraps an f32 buffer; a different variant is a protocol error.
    pub(crate) fn try_f32(self) -> Result<Vec<f32>, CommError> {
        match self {
            Payload::F32(v) => Ok(v),
            _ => Err(CommError::Protocol { expected: "F32" }),
        }
    }

    /// Unwraps a byte buffer; a different variant is a protocol error.
    pub fn try_bytes(self) -> Result<Vec<u8>, CommError> {
        match self {
            Payload::Bytes(v) => Ok(v),
            _ => Err(CommError::Protocol { expected: "Bytes" }),
        }
    }

    /// Number of wire bytes this payload represents (for traffic counters).
    pub(crate) fn wire_bytes(&self) -> usize {
        match self {
            Payload::F32(v) => v.len() * 4,
            Payload::Bytes(v) => v.len(),
        }
    }
}

/// Error surfaced by the fallible transport and collectives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// A receive deadline expired while waiting on `rank` inside
    /// `collective` — for the barrier, `rank` is the identified straggler.
    Timeout {
        /// The peer that failed to deliver in time.
        rank: usize,
        /// Which collective was in flight.
        collective: &'static str,
    },
    /// The bounded NACK/retransmit loop gave up on `rank`.
    RetriesExhausted {
        /// The peer whose message could not be recovered.
        rank: usize,
        /// Which collective was in flight.
        collective: &'static str,
        /// How many NACKs were sent before giving up.
        attempts: u32,
    },
    /// The group was poisoned by a panic on `rank`.
    Poisoned {
        /// The rank whose panic poisoned the group.
        rank: usize,
    },
    /// A peer's channel endpoints disappeared without poisoning (e.g. the
    /// peer returned early from its rank function).
    Disconnected {
        /// The vanished peer.
        rank: usize,
    },
    /// A payload arrived with an unexpected variant.
    Protocol {
        /// The variant the caller needed.
        expected: &'static str,
    },
}

impl CommError {
    /// The physical rank this error blames, when it names one — the
    /// input the elastic layer feeds to [`Communicator::shrink`].
    /// `Protocol` errors blame nobody and must propagate.
    pub fn culprit(&self) -> Option<usize> {
        match *self {
            CommError::Timeout { rank, .. }
            | CommError::RetriesExhausted { rank, .. }
            | CommError::Poisoned { rank }
            | CommError::Disconnected { rank } => Some(rank),
            CommError::Protocol { .. } => None,
        }
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { rank, collective } => {
                write!(f, "timeout waiting on rank {rank} in {collective}")
            }
            CommError::RetriesExhausted {
                rank,
                collective,
                attempts,
            } => write!(
                f,
                "gave up on rank {rank} in {collective} after {attempts} retries"
            ),
            CommError::Poisoned { rank } => write!(f, "group poisoned by panic on rank {rank}"),
            CommError::Disconnected { rank } => write!(f, "rank {rank} disconnected"),
            CommError::Protocol { expected } => {
                write!(f, "protocol error: expected {expected} payload")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Transport tuning knobs.
#[derive(Clone, Debug)]
pub struct CommConfig {
    /// Overall deadline for any single receive / barrier wait. A peer
    /// that stays silent this long surfaces [`CommError::Timeout`].
    pub recv_timeout: Duration,
    /// Delay before the first timeout-NACK for a missing message; doubles
    /// on every subsequent NACK (exponential backoff). Must exceed the
    /// worst-case in-flight latency (including straggler delay) or
    /// spurious retransmissions occur.
    pub retry_initial: Duration,
    /// Maximum timeout-NACKs per missing message before
    /// [`CommError::RetriesExhausted`].
    pub max_retries: u32,
    /// Modeled wire bandwidth in MB/s per directed link; `None` (the
    /// default) keeps the wire free. Each link carries one message at a
    /// time: a data message starts draining when it is sent or when the
    /// link has drained what this rank sent on it before, whichever is
    /// later, and the **receiver** holds it until `start + bytes /
    /// bandwidth`. The sender never blocks, so overlapping compression
    /// with in-flight payloads genuinely finishes earlier, and no pass
    /// beats its busiest link's bytes over the bandwidth. Dropped copies
    /// and bytes a view change discards still occupy their link; ACKs,
    /// NACKs, membership frames and empty payloads cost nothing.
    pub modeled_wire_mbps: Option<f64>,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            recv_timeout: Duration::from_secs(30),
            retry_initial: Duration::from_millis(50),
            max_retries: 10,
            modeled_wire_mbps: None,
        }
    }
}

/// Shared poison flag: the first panicking rank wins and is reported.
#[derive(Default)]
struct PoisonCell {
    /// 0 = clean; otherwise 1 + the first poisoner's rank.
    who: AtomicUsize,
}

impl PoisonCell {
    fn poison(&self, rank: usize) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the first poisoner wins: a later rank's failed exchange leaves the first one's id in place"
        )]
        let _ = self
            .who
            .compare_exchange(0, rank + 1, Ordering::AcqRel, Ordering::Acquire);
    }

    fn check(&self) -> Option<usize> {
        self.who.load(Ordering::Acquire).checked_sub(1)
    }
}

/// What a [`Communicator::wait_for`] blocks on between rounds. A channel
/// is picked from the waited-on peer's receivers.
pub(crate) enum Mode<M> {
    /// The channel, until a message or the deadline.
    Block(fn(&Communicator, usize) -> &Receiver<M>),
    /// The channel, for at most a [`POLL_SLICE`]; every round also
    /// consults the failure detector and services the control plane.
    Live(fn(&Communicator, usize) -> &Receiver<M>),
    /// Nothing: sleep a [`POLL_SLICE`] between rounds.
    Sleep,
}

/// What a wait's `serve` step returns: `Break(value)` ends the wait,
/// `Continue(wake_at)` keeps it going (see [`Communicator::wait_for`]).
pub(crate) type Served<T> = Result<ControlFlow<T, Option<Instant>>, CommError>;

/// Shared construction handle for a fixed-size group of ranks: its
/// communicators, wired into one channel mesh and sharing one poison
/// cell, one departure list and one clock.
pub struct CommGroup {
    comms: Vec<Communicator>,
}

impl CommGroup {
    /// Splits the group into per-rank communicators.
    pub(crate) fn into_communicators(self) -> Vec<Communicator> {
        self.comms
    }
}

/// One rank's endpoint into a [`CommGroup`].
///
/// All public rank arithmetic ([`rank`], [`size`], `left`, [`right`],
/// and the `src`/`dst` arguments of [`send`]/[`recv_labeled`]) is **virtual**:
/// positions within the current live membership view. The physical rank
/// (channel index, fault-plane identity, error reporting) never changes
/// and is exposed via [`phys_rank`]. With the full initial view the two
/// coincide, so non-elastic callers see exactly the old semantics.
///
/// [`rank`]: Communicator::rank
/// [`size`]: Communicator::size
/// [`right`]: Communicator::right
/// [`send`]: Communicator::send
/// [`recv_labeled`]: Communicator::recv_labeled
/// [`phys_rank`]: Communicator::phys_rank
pub struct Communicator {
    /// Physical rank: fixed channel-mesh index in `[0, size)`.
    pub(crate) rank: usize,
    /// Physical group size: the channel mesh never shrinks.
    pub(crate) size: usize,
    /// Sorted physical ranks in the current membership view.
    pub(crate) live: Vec<usize>,
    /// Physical ranks shrunk out of the view (absorbed failures).
    pub(crate) dead: Vec<usize>,
    /// Suspects of an in-flight [`Communicator::shrink`] round: treated
    /// like `dead` by the failure detector so the shrink's own receives
    /// do not trip over the very failure being absorbed.
    pub(crate) absorbing: Vec<usize>,
    /// Membership epoch: bumped by every committed shrink or grow.
    pub(crate) epoch: u64,
    pub(crate) data_tx: Vec<Sender<DataMsg>>,
    pub(crate) data_rx: Vec<Receiver<DataMsg>>,
    pub(crate) ctrl_tx: Vec<Sender<Ctrl>>,
    pub(crate) ctrl_rx: Vec<Receiver<Ctrl>>,
    poison: Arc<PoisonCell>,
    /// Physical ranks that have left the group (crash detected by the
    /// elastic harness), shared by the whole group so every survivor's
    /// poll loop observes a departure within one [`POLL_SLICE`] — see
    /// [`Communicator::mark_departed`].
    departed: Arc<Mutex<Vec<usize>>>,
    pub(crate) plane: FaultPlane,
    pub(crate) config: CommConfig,
    /// Time and the modeled wire's outgoing links.
    pub(crate) clock: Clock,
    /// Next data sequence number per destination.
    pub(crate) send_seq: Vec<u64>,
    /// Next expected data sequence number per source.
    pub(crate) recv_expect: Vec<u64>,
    /// Unacknowledged clean copies per destination (fault plane only).
    pub(crate) outbox: Vec<VecDeque<Flight>>,
    /// Out-of-order arrivals per source (fault plane only).
    pub(crate) stash: Vec<HashMap<u64, Payload>>,
    /// Membership frames that arrived inside a data receive, per source:
    /// a peer already in its shrink round may inject a proposal into a
    /// stream we are still reading as collective traffic. Diverting here
    /// keeps the data plane typed and lets [`Communicator::shrink`] find
    /// the proposal later.
    pub(crate) membership_stash: Vec<VecDeque<Vec<u8>>>,
    /// Raw (sequence-less) membership frames per source: rejoin requests
    /// and welcomes. Kept separate from `membership_stash` because its
    /// lifecycle is tied to *incarnations*, not ARQ streams: a shrink
    /// commit wipes the dead rank's entries (anything queued before the
    /// death is a ghost from a previous incarnation), and a revived
    /// rank's re-advertised requests refill it.
    pub(crate) rejoin_stash: Vec<VecDeque<Vec<u8>>>,
    /// Barrier messages that arrived while servicing other control
    /// traffic, per source.
    pub(crate) barrier_stash: Vec<VecDeque<Ctrl>>,
    pub(crate) barrier_gen: u64,
    pub(crate) step: u64,
    sent_bytes: u64,
    pub(crate) recorder: Recorder,
}

impl Communicator {
    /// This rank's **virtual** id: its position in the current live view,
    /// in `[0, size())`. Equal to the physical rank until a shrink.
    ///
    /// # Panics
    /// If this rank has been shrunk out of the view (it must
    /// [`crate::membership::rejoin`] first).
    #[expect(
        clippy::expect_used,
        reason = "documented panic — a shrunk-out rank calling rank() without rejoin() is a caller bug"
    )]
    pub fn rank(&self) -> usize {
        self.live
            .iter()
            .position(|&r| r == self.rank)
            .expect("rank no longer in the live view")
    }

    /// Number of ranks in the current live view.
    pub fn size(&self) -> usize {
        self.live.len()
    }

    /// This rank's fixed physical id in the channel mesh.
    pub fn phys_rank(&self) -> usize {
        self.rank
    }

    /// The current membership epoch (0 until the first view change).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sorted physical ranks in the current view.
    pub fn live_ranks(&self) -> &[usize] {
        &self.live
    }

    /// Physical ranks shrunk out of the view, sorted.
    pub(crate) fn dead_ranks(&self) -> &[usize] {
        &self.dead
    }

    /// Virtual rank to this rank's right on the ring.
    pub fn right(&self) -> usize {
        (self.rank() + 1) % self.size()
    }

    /// Virtual rank to this rank's left on the ring.
    pub(crate) fn left(&self) -> usize {
        (self.rank() + self.size() - 1) % self.size()
    }

    /// Physical rank behind virtual position `v`.
    ///
    /// # Panics
    /// If `v` is outside the current view.
    fn phys_of(&self, v: usize) -> usize {
        assert!(v < self.live.len(), "virtual rank {v} out of range");
        self.live[v]
    }

    /// Attaches an observability recorder: every subsequent [`send`]
    /// counts wire bytes (`comm/bytes_sent`) and feeds the message-size
    /// histogram (`comm/msg_bytes`), the collectives in
    /// [`crate::collectives`] time themselves against it, and the
    /// retry/fault machinery reports `comm/retry/*` and `comm/fault/*`.
    /// The default is the no-op [`Recorder::disabled`].
    ///
    /// [`send`]: Communicator::send
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The recorder this communicator reports into.
    pub(crate) fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The fault plane this group was built with (disabled by default).
    pub fn fault_plane(&self) -> &FaultPlane {
        &self.plane
    }

    /// The transport configuration this group was built with.
    pub fn config(&self) -> &CommConfig {
        &self.config
    }

    /// Marks a new training step: bumps the step counter and fires a
    /// scheduled crash-at-step fault if one targets this rank. Returns
    /// the 0-based index of the step that is starting.
    pub fn begin_step(&mut self) -> u64 {
        let s = self.step;
        self.step += 1;
        if self.plane.crash_due(self.rank, s) {
            panic!("injected fault: rank {} crashed at step {s}", self.rank);
        }
        s
    }

    /// Current value of the training-step counter (what the next
    /// [`Communicator::begin_step`] will return).
    pub fn current_step(&self) -> u64 {
        self.step
    }

    /// Total bytes this rank has put on the wire (traffic accounting for
    /// the communication-volume experiments).
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// Poisons the group on behalf of this rank (normally invoked by
    /// [`run_ranks`]'s panic handler).
    pub(crate) fn mark_poisoned(&self) {
        self.poison.poison(self.rank);
    }

    /// Marks this physical rank as departed (crashed): the elastic
    /// harness calls this instead of [`Communicator::mark_poisoned`] so
    /// survivors' poll loops surface [`CommError::Poisoned`] naming this
    /// rank and can shrink it out instead of aborting the whole group.
    pub(crate) fn mark_departed(&self) {
        let mut d = self.departed_ranks();
        if !d.contains(&self.rank) {
            d.push(self.rank);
        }
    }

    /// The shared departure list. A poisoned lock is recovered: every
    /// update is a single push or retain, so the list is valid at every
    /// step.
    pub(crate) fn departed_ranks(&self) -> MutexGuard<'_, Vec<usize>> {
        self.departed.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// First active poison: a poisoned rank already shrunk out of the
    /// view (or mid-absorption) no longer fails the group.
    pub(crate) fn poison_active(&self) -> Option<usize> {
        self.poison
            .check()
            .filter(|r| !self.dead.contains(r) && !self.absorbing.contains(r))
    }

    /// The failure detector: the first failed peer this rank must react
    /// to — a poisoned rank, or a departed rank still in the live view
    /// (excluding self — a shrunk rank preparing to rejoin must not trip
    /// over its own departure). Both surface as [`CommError::Poisoned`]
    /// naming the physical rank, which [`Communicator::shrink`] then
    /// absorbs.
    fn failed_peer(&self) -> Option<usize> {
        if let Some(r) = self.poison_active() {
            return Some(r);
        }
        let d = self.departed_ranks();
        d.iter()
            .copied()
            .find(|&r| r != self.rank && self.live.contains(&r) && !self.absorbing.contains(&r))
    }

    /// The error to surface when `peer`'s channel vanished: poison wins
    /// over a plain disconnect. `peer` is physical.
    pub(crate) fn disconnect_error(&self, peer: usize) -> CommError {
        match self.poison_active() {
            Some(rank) => CommError::Poisoned { rank },
            None => CommError::Disconnected { rank: peer },
        }
    }

    /// Sends `payload` to **virtual** rank `dst` (non-blocking; channels
    /// are unbounded). With the fault plane armed, the message also goes
    /// through the ARQ envelope: sequence number, CRC, a clean copy kept
    /// for retransmission, injected faults on the transmitted copy, and a
    /// sweep of pending control traffic.
    pub fn send(&mut self, dst: usize, payload: Payload) -> Result<(), CommError> {
        let p = self.phys_of(dst);
        self.send_to_phys(p, payload)
    }

    /// [`Communicator::send`] addressed by physical rank (membership
    /// traffic targets ranks that may sit outside the virtual view).
    pub(crate) fn send_to_phys(&mut self, dst: usize, payload: Payload) -> Result<(), CommError> {
        assert!(dst < self.size, "dst {dst} out of range");
        let bytes = payload.wire_bytes() as u64;
        self.sent_bytes += bytes;
        self.recorder.add(names::COMM_BYTES_SENT, bytes);
        self.recorder.observe(names::COMM_MSG_BYTES, bytes);
        if self.plane.is_enabled() {
            return self.send_arq(dst, payload);
        }
        let sent_at = self.clock.stamp(dst, payload.wire_bytes());
        self.data_tx[dst]
            .send(DataMsg {
                seq: 0,
                crc: 0,
                sent_at,
                payload,
            })
            .map_err(|_| self.disconnect_error(dst))
    }

    /// [`Communicator::recv_labeled`] under the label
    /// [`names::COMM_RECV`]; the tests' point-to-point receive.
    #[cfg(test)]
    pub(crate) fn recv(&mut self, src: usize) -> Result<Payload, CommError> {
        self.recv_labeled(src, names::COMM_RECV)
    }

    /// Receives the next payload from **virtual** rank `src`, bounded by
    /// the configured deadline, with the enclosing collective's name
    /// threaded into any [`CommError`]. Errors name the **physical**
    /// peer (the id the elastic layer shrinks by).
    pub fn recv_labeled(
        &mut self,
        src: usize,
        collective: &'static str,
    ) -> Result<Payload, CommError> {
        let src = self.phys_of(src);
        if self.plane.is_enabled() {
            return self.recv_arq(src, collective, false);
        }
        let deadline = self.clock.now() + self.config.recv_timeout;
        let mode = Mode::Block(|c, p| &c.data_rx[p]);
        self.wait_for(src, collective, deadline, mode, |c, arrived| {
            let Some(msg) = arrived else {
                return Ok(ControlFlow::Continue(None));
            };
            c.clock.deliver(msg.sent_at, msg.payload.wire_bytes());
            Ok(ControlFlow::Break(msg.payload))
        })
    }

    /// The one bounded wait: every receive, the barrier and the
    /// membership handshakes block here, on physical rank `peer`.
    ///
    /// Each round lets `serve` take what has already arrived
    /// (`serve(self, None)`); a [`Mode::Live`] round does so, then
    /// consults the failure detector — a failed peer ends the wait as
    /// [`CommError::Poisoned`] — services the control plane and serves
    /// again. Serving first keeps a crashed peer's pre-crash frames
    /// deliverable, so every survivor finishes the collectives the dead
    /// rank fully contributed to and all abandon the *same* step. Past
    /// `deadline` the wait fails with `Timeout { rank: peer, collective:
    /// label }`; otherwise it blocks as `mode` says, no later than the
    /// instant `serve` asked to be woken at, and hands a message to
    /// `serve(self, Some(msg))`. A vanished channel is
    /// [`Communicator::disconnect_error`]. `serve` ends the wait with
    /// `Break(value)` and keeps it going with `Continue(wake_at)`.
    pub(crate) fn wait_for<M, T>(
        &mut self,
        peer: usize,
        label: &'static str,
        deadline: Instant,
        mode: Mode<M>,
        mut serve: impl FnMut(&mut Self, Option<M>) -> Served<T>,
    ) -> Result<T, CommError> {
        loop {
            if let Mode::Live(_) = mode {
                if let ControlFlow::Break(out) = serve(self, None)? {
                    return Ok(out);
                }
                if let Some(rank) = self.failed_peer() {
                    return Err(CommError::Poisoned { rank });
                }
                self.service_ctrl()?;
            }
            let wake_at = match serve(self, None)? {
                ControlFlow::Break(out) => return Ok(out),
                ControlFlow::Continue(at) => at,
            };
            let now = self.clock.now();
            if now >= deadline {
                return Err(CommError::Timeout {
                    rank: peer,
                    collective: label,
                });
            }
            let slice = match mode {
                Mode::Block(_) => deadline,
                _ => deadline.min(now + POLL_SLICE),
            };
            let wake = slice.min(wake_at.unwrap_or(slice)).max(now + MIN_BLOCK);
            let inbox = match mode {
                Mode::Block(inbox) | Mode::Live(inbox) => inbox(self, peer),
                Mode::Sleep => {
                    self.clock.sleep_until(wake);
                    continue;
                }
            };
            match self.clock.recv_until(inbox, wake) {
                Ok(msg) => {
                    if let ControlFlow::Break(out) = serve(self, Some(msg))? {
                        return Ok(out);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(self.disconnect_error(peer)),
            }
        }
    }

    /// Synchronizes all ranks via control messages: everyone reports
    /// arrival to rank 0, which releases the group once all have arrived.
    /// Bounded by the receive deadline; when a rank fails to arrive, rank
    /// 0's error *names the straggler*:
    /// `CommError::Timeout { rank: straggler, collective: names::COMM_BARRIER }`.
    pub fn barrier(&mut self) -> Result<(), CommError> {
        let gen = self.barrier_gen;
        self.barrier_gen += 1;
        if self.live.len() == 1 {
            return Ok(());
        }
        let deadline = self.clock.now() + self.config.recv_timeout;
        let root = self.live[0];
        if self.rank == root {
            for v in 1..self.live.len() {
                let src = self.live[v];
                self.wait_barrier(src, Ctrl::Arrive { gen }, deadline)?;
            }
            for v in 1..self.live.len() {
                let dst = self.live[v];
                self.ctrl_tx[dst]
                    .send(Ctrl::Release { gen })
                    .map_err(|_| self.disconnect_error(dst))?;
            }
        } else {
            self.ctrl_tx[root]
                .send(Ctrl::Arrive { gen })
                .map_err(|_| self.disconnect_error(root))?;
            self.wait_barrier(root, Ctrl::Release { gen }, deadline)?;
        }
        Ok(())
    }

    /// Waits for barrier message `want` from `src`, servicing ACK/NACK
    /// traffic (from `src` and everyone else) in the meantime. The live
    /// wait drains the control plane before it blocks, so a wanted
    /// message queued by a peer that has since exited is found, not
    /// misread as a disconnect.
    fn wait_barrier(&mut self, src: usize, want: Ctrl, deadline: Instant) -> Result<(), CommError> {
        let mode = Mode::Live(|c, p| &c.ctrl_rx[p]);
        self.wait_for(src, names::COMM_BARRIER, deadline, mode, |c, arrived| {
            if let Some(msg) = arrived {
                c.handle_ctrl(src, msg)?;
            }
            let stash = &mut c.barrier_stash[src];
            Ok(match stash.iter().position(|m| *m == want) {
                Some(pos) => {
                    stash.remove(pos);
                    ControlFlow::Break(())
                }
                None => ControlFlow::Continue(None),
            })
        })
    }
}

/// Converts a caught panic payload into a displayable message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Spawns `n` ranks on scoped threads, runs `f(communicator)` on each, and
/// returns the per-rank results in rank order.
///
/// A panic in any rank **poisons the group**: peers blocked in receives
/// or the barrier error out with [`CommError::Poisoned`] instead of
/// hanging, and once all threads have been joined the *first* panicking
/// rank's message is re-raised as `rank {r} panicked: {msg}`.
pub fn run_ranks<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Communicator) -> T + Sync,
{
    run_ranks_with(n, FaultPlane::disabled(), CommConfig::default(), f)
}

/// [`run_ranks`] with an armed [`FaultPlane`] and custom deadlines — the
/// entry point of the chaos suite.
pub fn run_ranks_with<T, F>(n: usize, plane: FaultPlane, config: CommConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Communicator) -> T + Sync,
{
    let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let (slots, poisoner) = run_group(n, plane, config, |mut comm| {
        let rank = comm.rank();
        match catch_unwind(AssertUnwindSafe(|| f(&mut comm))) {
            Ok(v) => Some((comm, v)),
            Err(payload) => {
                comm.mark_poisoned();
                // Disconnect our channels so peers blocked on us wake
                // immediately instead of waiting out their deadlines.
                drop(comm);
                // A poisoned panic registry only means another rank
                // panicked while holding it; its contents are still
                // valid for reporting, so recover the guard instead of
                // double-panicking.
                panics
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push((rank, panic_message(payload.as_ref())));
                None
            }
        }
    });
    if let Some(rank) = poisoner {
        // Same poison-recovery as above: a panicking writer leaves the
        // registry usable, and all threads are joined by now.
        let panics = panics.into_inner().unwrap_or_else(|p| p.into_inner());
        let msg = panics
            .iter()
            .find(|(r, _)| *r == rank)
            .map(|(_, m)| m.clone())
            .unwrap_or_default();
        panic!("rank {rank} panicked: {msg}");
    }
    #[expect(
        clippy::expect_used,
        reason = "every rank either filled its slot or poisoned the group, and poison panics above"
    )]
    let results = slots
        .into_iter()
        .map(|s| s.expect("rank produced no result"))
        .collect();
    results
}

/// [`run_ranks_with`] for the elastic fault domain: a rank whose closure
/// panics is **not** poisoned — its physical rank is marked departed (so
/// survivors' poll loops surface [`CommError::Poisoned`] naming it and
/// can [`Communicator::shrink`] it out) and its communicator is *parked*:
/// the channels stay connected, preserving peers' ARQ state, and the
/// closure is re-entered once with `revived = true` on the same
/// communicator so it can restore from a checkpoint and
/// [`crate::membership::rejoin`] the group live. A second panic gives up
/// on the rank (its slot stays `None`).
pub fn run_ranks_elastic<T, F>(
    n: usize,
    plane: FaultPlane,
    config: CommConfig,
    f: F,
) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(&mut Communicator, bool) -> T + Sync,
{
    run_group(n, plane, config, |mut comm| {
        let v = match catch_unwind(AssertUnwindSafe(|| f(&mut comm, false))) {
            Ok(v) => v,
            Err(_) => {
                comm.mark_departed();
                catch_unwind(AssertUnwindSafe(|| f(&mut comm, true))).ok()?
            }
        };
        Some((comm, v))
    })
    .0
}

/// The harness behind `run_ranks*`: builds a group, runs `rank(comm)` on
/// one scoped thread per rank and quiesces every rank that hands its
/// communicator back with a result. Returns the per-rank results in rank
/// order and the first rank that poisoned the group, if any.
///
/// Quiescing holds a finished rank alive before tearing it down: with a
/// fault plane armed, a peer may still be waiting on a retransmission of
/// traffic this rank originated (the original copy was dropped or
/// corrupted in flight). A barrier keeps the rank servicing NACKs until
/// the whole view has finished, so exiting cannot strand a recovery.
/// Best-effort: a poisoned or torn group unblocks immediately, and a rank
/// still marked departed never rejoined — its view is stale, so it must
/// not inject barrier traffic.
fn run_group<T, F>(
    n: usize,
    plane: FaultPlane,
    config: CommConfig,
    rank: F,
) -> (Vec<Option<T>>, Option<usize>)
where
    T: Send,
    F: Fn(Communicator) -> Option<(Communicator, T)> + Sync,
{
    let comms = build_group_with(n, plane, config).into_communicators();
    let poison = Arc::clone(&comms[0].poison);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (comm, slot) in comms.into_iter().zip(slots.iter_mut()) {
            let rank = &rank;
            scope.spawn(move || {
                if let Some((mut comm, v)) = rank(comm) {
                    if comm.plane.is_enabled() && !comm.departed_ranks().contains(&comm.rank) {
                        #[expect(
                            clippy::let_underscore_must_use,
                            reason = "best-effort quiesce; a poisoned or torn group must unblock immediately"
                        )]
                        // lint:allow(collective-order): every live rank evaluates the same fault-plane and departed view, so all branch identically
                        let _ = comm.barrier();
                    }
                    *slot = Some(v);
                }
            });
        }
    });
    (slots, poison.check())
}

/// Builds the channel mesh and the clock for `size` ranks with an armed
/// [`FaultPlane`] (or [`FaultPlane::disabled`]) and the given transport
/// configuration.
pub(crate) fn build_group_with(size: usize, plane: FaultPlane, config: CommConfig) -> CommGroup {
    assert!(size > 0, "a group needs at least one rank");
    #[allow(clippy::type_complexity)] // src-major senders, dst-major receivers
    fn mesh<T>(size: usize) -> (Vec<Vec<Sender<T>>>, Vec<Vec<Receiver<T>>>) {
        let mut tx: Vec<Vec<Sender<T>>> = (0..size).map(|_| Vec::with_capacity(size)).collect();
        // rx[dst][src]: build dst-major so each rank's receivers index by
        // src.
        let mut pending: Vec<Vec<Option<Receiver<T>>>> = (0..size)
            .map(|_| (0..size).map(|_| None).collect())
            .collect();
        for (src, tx_row) in tx.iter_mut().enumerate() {
            for pending_row in pending.iter_mut() {
                let (s, r) = unbounded();
                tx_row.push(s);
                pending_row[src] = Some(r);
            }
        }
        #[expect(
            clippy::unwrap_used,
            reason = "the loop above fills pending[dst][src] for every (src, dst) pair"
        )]
        let rx = pending
            .into_iter()
            .map(|row| row.into_iter().map(|r| r.unwrap()).collect())
            .collect();
        (tx, rx)
    }
    let (data_tx, data_rx) = mesh(size);
    let (ctrl_tx, ctrl_rx) = mesh(size);
    let poison = Arc::new(PoisonCell::default());
    let departed = Arc::new(Mutex::new(Vec::new()));
    let clock = Clock::new(size, config.modeled_wire_mbps);
    let rows = data_tx
        .into_iter()
        .zip(data_rx)
        .zip(ctrl_tx.into_iter().zip(ctrl_rx));
    let comms = rows
        .enumerate()
        .map(
            |(rank, ((data_tx, data_rx), (ctrl_tx, ctrl_rx)))| Communicator {
                rank,
                size,
                live: (0..size).collect(),
                dead: Vec::new(),
                absorbing: Vec::new(),
                epoch: 0,
                data_tx,
                data_rx,
                ctrl_tx,
                ctrl_rx,
                poison: Arc::clone(&poison),
                departed: Arc::clone(&departed),
                plane: plane.clone(),
                config: config.clone(),
                clock: clock.clone(),
                send_seq: vec![0; size],
                recv_expect: vec![0; size],
                outbox: (0..size).map(|_| VecDeque::new()).collect(),
                stash: (0..size).map(|_| HashMap::new()).collect(),
                membership_stash: (0..size).map(|_| VecDeque::new()).collect(),
                rejoin_stash: (0..size).map(|_| VecDeque::new()).collect(),
                barrier_stash: (0..size).map(|_| VecDeque::new()).collect(),
                barrier_gen: 0,
                step: 0,
                sent_bytes: 0,
                recorder: Recorder::disabled(),
            },
        )
        .collect();
    CommGroup { comms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;

    #[test]
    fn point_to_point_roundtrip() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, Payload::F32(vec![1.0, 2.0, 3.0])).unwrap();
                Vec::new()
            } else {
                comm.recv(0).unwrap().try_f32().unwrap()
            }
        });
        assert_eq!(results[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn messages_from_distinct_sources_do_not_mix() {
        let results = run_ranks(3, |comm| match comm.rank() {
            0 => {
                comm.send(2, Payload::Bytes(vec![0])).unwrap();
                0
            }
            1 => {
                comm.send(2, Payload::Bytes(vec![1])).unwrap();
                0
            }
            _ => {
                // Receive in the opposite order of likely arrival; per-source
                // channels mean ordering across sources cannot interfere.
                let from1 = comm.recv(1).unwrap().try_bytes().unwrap();
                let from0 = comm.recv(0).unwrap().try_bytes().unwrap();
                (from0[0] * 10 + from1[0]) as i32
            }
        });
        assert_eq!(results[2], 1);
    }

    #[test]
    fn fifo_per_channel() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..10u8 {
                    comm.send(1, Payload::Bytes(vec![i])).unwrap();
                }
                Vec::new()
            } else {
                (0..10)
                    .map(|_| comm.recv(0).unwrap().try_bytes().unwrap()[0])
                    .collect()
            }
        });
        assert_eq!(results[1], (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn barrier_allows_progress() {
        let results = run_ranks(4, |comm| {
            comm.barrier().unwrap();
            comm.rank()
        });
        assert_eq!(results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ring_neighbors() {
        run_ranks(4, |comm| {
            if comm.rank() == 0 {
                assert_eq!(comm.left(), 3);
                assert_eq!(comm.right(), 1);
            }
            if comm.rank() == 3 {
                assert_eq!(comm.left(), 2);
                assert_eq!(comm.right(), 0);
            }
        });
    }

    #[test]
    fn traffic_accounting() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, Payload::Bytes(vec![0u8; 100])).unwrap();
                comm.send(1, Payload::F32(vec![0.0; 25])).unwrap();
            } else {
                comm.recv(0).unwrap();
                comm.recv(0).unwrap();
            }
            comm.sent_bytes()
        });
        assert_eq!(results[0], 200);
        assert_eq!(results[1], 0);
    }

    #[test]
    fn single_rank_group_works() {
        let results = run_ranks(1, |comm| {
            comm.barrier().unwrap();
            comm.size()
        });
        assert_eq!(results, vec![1]);
    }

    #[test]
    fn try_variants_error_instead_of_panicking() {
        assert_eq!(
            Payload::Bytes(vec![1]).try_f32(),
            Err(CommError::Protocol { expected: "F32" })
        );
        assert_eq!(Payload::F32(vec![1.0]).try_f32(), Ok(vec![1.0]));
        assert_eq!(
            Payload::F32(vec![]).try_bytes(),
            Err(CommError::Protocol { expected: "Bytes" })
        );
    }

    #[test]
    fn recv_times_out_with_peer_and_collective() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                // Never send, but stay alive past rank 1's deadline so
                // the failure is a timeout, not a disconnect.
                std::thread::sleep(Duration::from_millis(150));
                Ok(Payload::Bytes(vec![]))
            } else {
                let short = CommConfig {
                    recv_timeout: Duration::from_millis(50),
                    ..CommConfig::default()
                };
                comm.config = short;
                comm.recv_labeled(0, "unit_test")
            }
        });
        assert_eq!(
            results[1],
            Err(CommError::Timeout {
                rank: 0,
                collective: "unit_test"
            })
        );
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked: boom")]
    fn rank_panic_poisons_group_and_propagates() {
        run_ranks(3, |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
            // Peers would hang forever here without poisoning; they must
            // instead observe the poisoned group and error out.
            let err = comm.recv(1).unwrap_err();
            assert!(
                matches!(
                    err,
                    CommError::Poisoned { rank: 1 } | CommError::Disconnected { rank: 1 }
                ),
                "unexpected error {err:?}"
            );
            // Barrier must not hang either.
            let _ = comm.barrier();
        });
    }

    #[test]
    fn barrier_timeout_identifies_straggler_at_root() {
        let results = run_ranks(3, |comm| {
            comm.config = CommConfig {
                recv_timeout: Duration::from_millis(100),
                ..CommConfig::default()
            };
            if comm.rank() == 2 {
                // The straggler: never arrives at the barrier.
                std::thread::sleep(Duration::from_millis(300));
                return Err(CommError::Protocol { expected: "n/a" });
            }
            comm.barrier()
        });
        // Rank 0 (the root) names the missing rank.
        assert_eq!(
            results[0],
            Err(CommError::Timeout {
                rank: 2,
                collective: names::COMM_BARRIER
            })
        );
    }

    #[test]
    fn begin_step_fires_scheduled_crash() {
        let plane = FaultPlane::new(FaultConfig {
            seed: 5,
            crash_at: Some((0, 2)),
            ..FaultConfig::default()
        });
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_ranks_with(1, plane.clone(), CommConfig::default(), |comm| {
                for _ in 0..5 {
                    comm.begin_step();
                }
            });
        }));
        let msg = panic_message(caught.unwrap_err().as_ref());
        assert!(msg.contains("rank 0 panicked"), "{msg}");
        assert!(msg.contains("crashed at step 2"), "{msg}");
        assert_eq!(plane.ledger().crashes, 1);
    }
}
