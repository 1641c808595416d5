//! Rank groups, fallible point-to-point plumbing, and group poisoning.
//!
//! A [`CommGroup`] owns a full mesh of unbounded crossbeam channels between
//! `n` ranks — a **data** mesh carrying sequence-numbered, CRC-enveloped
//! payloads and a **control** mesh carrying ACK/NACK and barrier traffic.
//! Each rank's [`Communicator`] can send a [`Payload`] to any peer and
//! receive from a *specific* peer, which is exactly the shape the ring
//! collectives in [`crate::collectives`] need (receive-from-left,
//! send-to-right).
//!
//! Unlike the original infallible substrate, **no receive path can block
//! forever**: every receive and the barrier carry a deadline and surface
//! [`CommError::Timeout`] naming the peer they were waiting on (which is
//! how a barrier timeout identifies the straggler rank). When a
//! [`FaultPlane`] is armed, transport-level faults (drops, in-flight bit
//! flips, straggler delay) are absorbed by a receiver-driven
//! NACK/retransmit loop with exponential backoff: senders keep clean
//! copies of in-flight messages in a per-destination outbox and lazily
//! service control traffic on every communication call, so the ring stays
//! deadlock-free even while messages are being re-requested. With
//! [`FaultPlane::disabled`] the envelope degenerates to a plain tagged
//! send and a single deadline-bounded receive — no CRC, no ACKs, no
//! outbox.
//!
//! A rank that panics inside [`run_ranks`] **poisons** the group: peers
//! blocked in receives or the barrier observe the poison (or the channel
//! disconnect) and error out with [`CommError::Poisoned`] instead of
//! hanging, and `run_ranks` re-raises the *first* panicking rank's payload
//! tagged with its rank id.

use crate::fault::{flip_bit, FaultPlane};
use crate::membership::ViewChange;
use compso_core::wire::crc32_update;
use compso_obs::{names, Recorder};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Granularity of the receive poll loop: how often a blocked receiver
/// wakes to service control traffic (peer NACKs needing retransmission)
/// and check poison.
const POLL_SLICE: Duration = Duration::from_millis(2);

/// Sentinel sequence number for membership frames sent *outside* the ARQ
/// stream (rejoin requests and welcomes cross channels whose sequence
/// state is stale on one side). Raw frames are CRC-checked but never
/// ACKed, NACKed, or stashed for reordering.
const RAW_SEQ: u64 = u64::MAX;

/// A message exchanged between ranks.
///
/// Typed variants avoid round-tripping gradient buffers through byte
/// serialization; compressed traffic travels as `Bytes`.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// A dense f32 buffer (gradients, covariance factors).
    F32(Vec<f32>),
    /// An opaque compressed byte stream.
    Bytes(Vec<u8>),
    /// Small control metadata (e.g. per-rank block sizes).
    Sizes(Vec<u64>),
}

impl Payload {
    /// Unwraps an f32 buffer; a different variant is a protocol error.
    pub fn try_f32(self) -> Result<Vec<f32>, CommError> {
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

    /// Unwraps a size vector; a different variant is a protocol error.
    pub fn try_sizes(self) -> Result<Vec<u64>, CommError> {
        match self {
            Payload::Sizes(v) => Ok(v),
            _ => Err(CommError::Protocol { expected: "Sizes" }),
        }
    }

    /// Number of wire bytes this payload represents (for traffic counters).
    pub fn wire_bytes(&self) -> usize {
        match self {
            Payload::F32(v) => v.len() * 4,
            Payload::Bytes(v) => v.len(),
            Payload::Sizes(v) => v.len() * 8,
        }
    }

    /// Number of flippable bits (for wire fault injection).
    fn wire_bits(&self) -> u64 {
        self.wire_bytes() as u64 * 8
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
    /// Modeled wire bandwidth in MB/s, per directed link. A data message
    /// starts draining when it is sent *or when the link to that peer has
    /// finished draining everything this rank sent on it before*,
    /// whichever is later, and the **receiver** sleeps until
    /// `start + payload bytes / bandwidth` before the message is
    /// considered delivered — an asynchronous NIC that drains
    /// concurrently with the sender's compute, one message at a time per
    /// link. Messages sent back to back on one link therefore arrive
    /// `bytes / bandwidth` apart (a retransmission queues behind what is
    /// already on the link), so a pass can never finish faster than its
    /// busiest link's bytes over the bandwidth; links to different peers
    /// drain independently. The sender never blocks, so a schedule that
    /// overlaps compression with in-flight payloads genuinely finishes
    /// earlier, which is what makes compression–communication overlap
    /// *physically observable* in the in-process harness. `None` (the
    /// default) keeps the wire free and changes nothing. A copy the fault
    /// plane drops occupies the link like one that arrives, and so do
    /// bytes a view change later discards at the receiver (the link clock
    /// is never rewound). Control traffic is not modeled: ACKs/NACKs cost
    /// nothing, and a membership frame is stamped at its send instant, so
    /// it overtakes data queued on its link. Empty payloads add zero
    /// delay.
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

/// Data-mesh envelope: a sequence number and payload CRC allow the
/// receiver to detect loss (gaps) and corruption (CRC mismatch) and drive
/// recovery with NACKs. With the fault plane disabled both fields are 0
/// and ignored.
struct DataMsg {
    seq: u64,
    crc: u32,
    /// When the message starts draining onto its link (the send instant,
    /// or later if the link was busy) — the receiver turns it into a
    /// bandwidth-delay when [`CommConfig::modeled_wire_mbps`] is set.
    sent_at: Instant,
    payload: Payload,
}

/// Control-mesh messages. The sending rank is implied by the channel the
/// message arrives on (the mesh is per-source).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Ctrl {
    /// Every data seq `< upto` from me has been delivered — prune your
    /// outbox.
    Ack { upto: u64 },
    /// Re-send data seq `seq` (missing or CRC-bad).
    Nack { seq: u64 },
    /// Barrier arrival (rank → root).
    Arrive { gen: u64 },
    /// Barrier release (root → rank).
    Release { gen: u64 },
}

/// A clean in-flight copy kept for retransmission until acknowledged.
struct Flight {
    seq: u64,
    attempt: u32,
    crc: u32,
    payload: Payload,
}

/// Shared poison flag: the first panicking rank wins and is reported.
struct PoisonCell {
    /// `usize::MAX` = clean; otherwise the first poisoner's rank.
    who: AtomicUsize,
}

impl PoisonCell {
    fn new() -> Self {
        PoisonCell {
            who: AtomicUsize::new(usize::MAX),
        }
    }

    fn poison(&self, rank: usize) {
        let _ = self
            .who
            .compare_exchange(usize::MAX, rank, Ordering::AcqRel, Ordering::Acquire);
    }

    fn check(&self) -> Option<usize> {
        let w = self.who.load(Ordering::Acquire);
        (w != usize::MAX).then_some(w)
    }
}

/// IEEE CRC-32 over a payload's wire representation, domain separated
/// by variant tag.
fn payload_crc(p: &Payload) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut feed = |bytes: &[u8]| crc = crc32_update(crc, bytes);
    match p {
        Payload::F32(v) => {
            feed(&[0x01]);
            for x in v {
                feed(&x.to_le_bytes());
            }
        }
        Payload::Bytes(v) => {
            feed(&[0x02]);
            feed(v);
        }
        Payload::Sizes(v) => {
            feed(&[0x03]);
            for x in v {
                feed(&x.to_le_bytes());
            }
        }
    }
    !crc
}

/// Splits membership frames off the data plane: the frame's bytes when
/// `p` is one (a byte payload opening with the membership magic), the
/// payload back untouched otherwise.
fn membership_frame(p: Payload) -> Result<Vec<u8>, Payload> {
    match p {
        Payload::Bytes(b) if b.first() == Some(&crate::membership::MAGIC) => Ok(b),
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

/// Flips bit `hash % wire_bits` of the payload's wire representation.
fn flip_payload_bit(p: &mut Payload, hash: u64) {
    match p {
        Payload::Bytes(v) => flip_bit(v, hash),
        Payload::F32(v) => {
            let bit = (hash % (v.len() as u64 * 32)) as usize;
            let i = bit / 32;
            v[i] = f32::from_bits(v[i].to_bits() ^ (1 << (bit % 32)));
        }
        Payload::Sizes(v) => {
            let bit = (hash % (v.len() as u64 * 64)) as usize;
            let i = bit / 64;
            v[i] ^= 1 << (bit % 64);
        }
    }
}

/// Shared construction handle for a fixed-size group of ranks.
pub struct CommGroup {
    size: usize,
    /// `data_tx[src][dst]` sends from `src` to `dst`.
    data_tx: Vec<Vec<Sender<DataMsg>>>,
    /// `data_rx[dst][src]` receives at `dst` from `src`.
    data_rx: Vec<Vec<Receiver<DataMsg>>>,
    ctrl_tx: Vec<Vec<Sender<Ctrl>>>,
    ctrl_rx: Vec<Vec<Receiver<Ctrl>>>,
    poison: Arc<PoisonCell>,
    /// Physical ranks that have left the group (crash detected by the
    /// elastic harness). Shared so every survivor's poll loop observes a
    /// departure within one [`POLL_SLICE`] — see
    /// [`Communicator::mark_departed`].
    departed: Arc<Mutex<Vec<usize>>>,
    plane: FaultPlane,
    config: CommConfig,
}

impl CommGroup {
    /// Builds the channel mesh for `size` ranks with no fault injection
    /// and default deadlines.
    pub fn new(size: usize) -> Self {
        build_group(size)
    }

    /// Number of ranks in the group.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Splits the group into per-rank communicators.
    pub fn into_communicators(self) -> Vec<Communicator> {
        let CommGroup {
            size,
            data_tx,
            mut data_rx,
            ctrl_tx,
            mut ctrl_rx,
            poison,
            departed,
            plane,
            config,
        } = self;
        let mut comms = Vec::with_capacity(size);
        for (rank, (data_tx_row, ctrl_tx_row)) in data_tx.into_iter().zip(ctrl_tx).enumerate() {
            comms.push(Communicator {
                rank,
                size,
                live: (0..size).collect(),
                dead: Vec::new(),
                absorbing: Vec::new(),
                epoch: 0,
                data_tx: data_tx_row,
                data_rx: std::mem::take(&mut data_rx[rank]),
                ctrl_tx: ctrl_tx_row,
                ctrl_rx: std::mem::take(&mut ctrl_rx[rank]),
                poison: Arc::clone(&poison),
                departed: Arc::clone(&departed),
                plane: plane.clone(),
                config: config.clone(),
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
                link_free: vec![Instant::now(); size],
                recorder: Recorder::disabled(),
            });
        }
        comms
    }
}

/// One rank's endpoint into a [`CommGroup`].
///
/// All public rank arithmetic ([`rank`], [`size`], [`left`], [`right`],
/// and the `src`/`dst` arguments of [`send`]/[`recv`]) is **virtual**:
/// positions within the current live membership view. The physical rank
/// (channel index, fault-plane identity, error reporting) never changes
/// and is exposed via [`phys_rank`]. With the full initial view the two
/// coincide, so non-elastic callers see exactly the old semantics.
///
/// [`rank`]: Communicator::rank
/// [`size`]: Communicator::size
/// [`left`]: Communicator::left
/// [`right`]: Communicator::right
/// [`send`]: Communicator::send
/// [`recv`]: Communicator::recv
/// [`phys_rank`]: Communicator::phys_rank
pub struct Communicator {
    /// Physical rank: fixed channel-mesh index in `[0, size)`.
    rank: usize,
    /// Physical group size: the channel mesh never shrinks.
    size: usize,
    /// Sorted physical ranks in the current membership view.
    live: Vec<usize>,
    /// Physical ranks shrunk out of the view (absorbed failures).
    dead: Vec<usize>,
    /// Suspects of an in-flight [`Communicator::shrink`] round: treated
    /// like `dead` by the failure detector so the shrink's own receives
    /// do not trip over the very failure being absorbed.
    absorbing: Vec<usize>,
    /// Membership epoch: bumped by every committed shrink or grow.
    epoch: u64,
    data_tx: Vec<Sender<DataMsg>>,
    data_rx: Vec<Receiver<DataMsg>>,
    ctrl_tx: Vec<Sender<Ctrl>>,
    ctrl_rx: Vec<Receiver<Ctrl>>,
    poison: Arc<PoisonCell>,
    /// See [`CommGroup::departed`]: crash notices from the elastic harness.
    departed: Arc<Mutex<Vec<usize>>>,
    plane: FaultPlane,
    config: CommConfig,
    /// Next data sequence number per destination.
    send_seq: Vec<u64>,
    /// Next expected data sequence number per source.
    recv_expect: Vec<u64>,
    /// Unacknowledged clean copies per destination (fault plane only).
    outbox: Vec<VecDeque<Flight>>,
    /// Out-of-order arrivals per source (fault plane only).
    stash: Vec<HashMap<u64, Payload>>,
    /// Membership frames that arrived inside a data receive, per source:
    /// a peer already in its shrink round may inject a proposal into a
    /// stream we are still reading as collective traffic. Diverting here
    /// keeps the data plane typed and lets [`Communicator::shrink`] find
    /// the proposal later.
    membership_stash: Vec<VecDeque<Vec<u8>>>,
    /// Raw (sequence-less) membership frames per source: rejoin requests
    /// and welcomes. Kept separate from `membership_stash` because its
    /// lifecycle is tied to *incarnations*, not ARQ streams: a shrink
    /// commit wipes the dead rank's entries (anything queued before the
    /// death is a ghost from a previous incarnation), and a revived
    /// rank's re-advertised requests refill it.
    rejoin_stash: Vec<VecDeque<Vec<u8>>>,
    /// Barrier messages that arrived while servicing other control
    /// traffic, per source.
    barrier_stash: Vec<VecDeque<Ctrl>>,
    barrier_gen: u64,
    step: u64,
    sent_bytes: u64,
    /// Per destination: when the modeled link to it has drained
    /// everything this rank already put on it.
    link_free: Vec<Instant>,
    recorder: Recorder,
}

impl Communicator {
    /// This rank's **virtual** id: its position in the current live view,
    /// in `[0, size())`. Equal to the physical rank until a shrink.
    ///
    /// # Panics
    /// If this rank has been shrunk out of the view (it must
    /// [`Communicator::rejoin`] first).
    pub fn rank(&self) -> usize {
        self.vrank_of(self.rank)
            // lint:allow(no-unwrap-on-comm-path): documented panic — a shrunk-out rank calling rank() without rejoin() is a caller bug
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

    /// Virtual position of physical rank `p` in the live view.
    fn vrank_of(&self, p: usize) -> Option<usize> {
        self.live.iter().position(|&r| r == p)
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
    pub fn recorder(&self) -> &Recorder {
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

    /// Poisons the group on behalf of this rank (normally invoked by
    /// [`run_ranks`]'s panic handler).
    pub fn mark_poisoned(&self) {
        self.poison.poison(self.rank);
    }

    /// Marks this physical rank as departed (crashed): the elastic
    /// harness calls this instead of [`Communicator::mark_poisoned`] so
    /// survivors' poll loops surface [`CommError::Poisoned`] naming this
    /// rank and can shrink it out instead of aborting the whole group.
    pub fn mark_departed(&self) {
        let mut d = self.departed_ranks();
        if !d.contains(&self.rank) {
            d.push(self.rank);
        }
    }

    /// The shared departure list. A poisoned lock is recovered: every
    /// update is a single push or retain, so the list is valid at every
    /// step.
    fn departed_ranks(&self) -> MutexGuard<'_, Vec<usize>> {
        self.departed.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Removes this physical rank from the departure list (on rejoin).
    fn clear_departed(&self) {
        self.departed_ranks().retain(|&r| r != self.rank);
    }

    /// Whether physical rank `p` is currently marked departed.
    fn is_departed(&self, p: usize) -> bool {
        self.departed_ranks().contains(&p)
    }

    /// First active poison: a poisoned rank already shrunk out of the
    /// view (or mid-absorption) no longer fails the group.
    fn poison_active(&self) -> Option<usize> {
        self.poison
            .check()
            .filter(|r| !self.dead.contains(r) && !self.absorbing.contains(r))
    }

    /// First failed peer this rank must react to: a poisoned rank, or a
    /// departed rank still in the live view (excluding self — a shrunk
    /// rank preparing to rejoin must not trip over its own departure).
    /// Both surface as [`CommError::Poisoned`] naming the physical rank,
    /// which [`Communicator::shrink`] then absorbs.
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
    fn disconnect_error(&self, peer: usize) -> CommError {
        match self.poison_active() {
            Some(rank) => CommError::Poisoned { rank },
            None => CommError::Disconnected { rank: peer },
        }
    }

    /// Sends `payload` to **virtual** rank `dst` (non-blocking; channels
    /// are unbounded). With the fault plane armed, also assigns a
    /// sequence number, computes the envelope CRC, retains a clean copy
    /// for retransmission, applies injected faults to the transmitted
    /// copy, and services pending control traffic.
    pub fn send(&mut self, dst: usize, payload: Payload) -> Result<(), CommError> {
        let p = self.phys_of(dst);
        self.send_to_phys(p, payload)
    }

    /// [`Communicator::send`] addressed by physical rank (membership
    /// traffic targets ranks that may sit outside the virtual view).
    fn send_to_phys(&mut self, dst: usize, payload: Payload) -> Result<(), CommError> {
        assert!(dst < self.size, "dst {dst} out of range");
        let bytes = payload.wire_bytes() as u64;
        self.sent_bytes += bytes;
        if self.recorder.is_enabled() {
            self.recorder.add(names::COMM_BYTES_SENT, bytes);
            self.recorder.observe(names::COMM_MSG_BYTES, bytes);
        }
        if !self.plane.is_enabled() {
            let sent_at = self.wire_stamp(dst, &payload);
            return self.data_tx[dst]
                .send(DataMsg {
                    seq: 0,
                    crc: 0,
                    sent_at,
                    payload,
                })
                .map_err(|_| self.disconnect_error(dst));
        }
        let seq = self.send_seq[dst];
        self.send_seq[dst] += 1;
        if let Some(delay) = self.plane.straggler_delay(self.rank) {
            std::thread::sleep(delay);
        }
        let flight = Flight {
            seq,
            attempt: 0,
            crc: payload_crc(&payload),
            payload,
        };
        self.transmit(dst, &flight)?;
        self.outbox[dst].push_back(flight);
        self.service_ctrl()
    }

    /// How long `payload` occupies a modeled link; `None` without
    /// [`CommConfig::modeled_wire_mbps`] or for an empty payload.
    fn wire_drain(&self, payload: &Payload) -> Option<Duration> {
        let mbps = self.config.modeled_wire_mbps.filter(|&m| m > 0.0)?;
        let bytes = payload.wire_bytes();
        (bytes > 0).then(|| Duration::from_secs_f64(bytes as f64 / (mbps * 1e6)))
    }

    /// The instant `payload`, sent to `dst` now, starts draining: now, or
    /// when the link has drained what this rank put on it before — one
    /// message at a time per link. Advances the link's clock past it.
    fn wire_stamp(&mut self, dst: usize, payload: &Payload) -> Instant {
        let now = Instant::now();
        let Some(drain) = self.wire_drain(payload) else {
            return now;
        };
        let start = now.max(self.link_free[dst]);
        self.link_free[dst] = start + drain;
        start
    }

    /// Holds a just-dequeued message until its modeled wire drain
    /// completes: sleeps out the remainder of `bytes / bandwidth` past
    /// its stamp. No-op without [`CommConfig::modeled_wire_mbps`] or once
    /// the drain interval has already elapsed.
    fn wire_delay(&self, msg: &DataMsg) {
        let Some(drain) = self.wire_drain(&msg.payload) else {
            return;
        };
        let ready = msg.sent_at + drain;
        let now = Instant::now();
        if ready > now {
            std::thread::sleep(ready - now);
        }
    }

    /// Puts one (possibly faulted) copy of `flight` on the wire.
    fn transmit(&mut self, dst: usize, flight: &Flight) -> Result<(), CommError> {
        // A copy lost past the NIC occupied the link all the same.
        let sent_at = self.wire_stamp(dst, &flight.payload);
        if self
            .plane
            .should_drop(self.rank, dst, flight.seq, flight.attempt)
        {
            return Ok(()); // silently lost; the receiver's NACK recovers it
        }
        let mut msg = DataMsg {
            seq: flight.seq,
            crc: flight.crc,
            sent_at,
            payload: flight.payload.clone(),
        };
        if msg.payload.wire_bits() > 0 {
            if let Some(hash) =
                self.plane
                    .wire_corrupt_bit(self.rank, dst, flight.seq, flight.attempt)
            {
                flip_payload_bit(&mut msg.payload, hash);
            }
        }
        self.data_tx[dst]
            .send(msg)
            .map_err(|_| self.disconnect_error(dst))
    }

    /// Drains all pending control traffic without blocking: ACKs prune
    /// outboxes, NACKs trigger retransmission, barrier messages are
    /// stashed for [`Communicator::barrier`].
    fn service_ctrl(&mut self) -> Result<(), CommError> {
        for src in 0..self.size {
            if src == self.rank {
                continue;
            }
            self.service_ctrl_from(src)?;
        }
        Ok(())
    }

    fn service_ctrl_from(&mut self, src: usize) -> Result<(), CommError> {
        while let Some(msg) = self.ctrl_rx[src].try_recv() {
            self.handle_ctrl(src, msg)?;
        }
        Ok(())
    }

    fn handle_ctrl(&mut self, src: usize, msg: Ctrl) -> Result<(), CommError> {
        match msg {
            Ctrl::Ack { upto } => {
                while self.outbox[src].front().is_some_and(|f| f.seq < upto) {
                    self.outbox[src].pop_front();
                }
                Ok(())
            }
            Ctrl::Nack { seq } => self.retransmit(src, seq),
            barrier_msg => {
                self.barrier_stash[src].push_back(barrier_msg);
                Ok(())
            }
        }
    }

    /// Answers a NACK from `dst` for `seq`. A NACK for an already-pruned
    /// sequence (the original delivery raced the NACK) is ignored.
    fn retransmit(&mut self, dst: usize, seq: u64) -> Result<(), CommError> {
        let Some(pos) = self.outbox[dst].iter().position(|f| f.seq == seq) else {
            return Ok(());
        };
        self.outbox[dst][pos].attempt += 1;
        self.recorder.incr(names::COMM_RETRY_RESENDS);
        // Clone out: `transmit` borrows `self` to stamp the link clock.
        let flight = Flight {
            seq,
            attempt: self.outbox[dst][pos].attempt,
            crc: self.outbox[dst][pos].crc,
            payload: self.outbox[dst][pos].payload.clone(),
        };
        self.transmit(dst, &flight)
    }

    /// ACK failures are benign (the sender may have finished and torn
    /// down), NACK failures are not (we still need its data).
    fn send_ack(&self, dst: usize, upto: u64) {
        // lint:allow(swallowed-comm-error): ACK failures are benign — the sender may have finished and torn down; NACK timers cover the gap
        let _ = self.ctrl_tx[dst].send(Ctrl::Ack { upto });
    }

    fn send_nack(&self, dst: usize, seq: u64) -> Result<(), CommError> {
        self.recorder.incr(names::COMM_RETRY_NACKS_SENT);
        self.ctrl_tx[dst]
            .send(Ctrl::Nack { seq })
            .map_err(|_| self.disconnect_error(dst))
    }

    /// Receives the next payload from **virtual** rank `src`, bounded by
    /// the configured deadline (label [`names::COMM_RECV`] in errors).
    pub fn recv(&mut self, src: usize) -> Result<Payload, CommError> {
        self.recv_labeled(src, names::COMM_RECV)
    }

    /// [`Communicator::recv`] with the enclosing collective's name
    /// threaded into any [`CommError`]. Errors name the **physical**
    /// peer (the id the elastic layer shrinks by).
    pub fn recv_labeled(
        &mut self,
        src: usize,
        collective: &'static str,
    ) -> Result<Payload, CommError> {
        let src = self.phys_of(src);
        if !self.plane.is_enabled() {
            return match self.data_rx[src].recv_timeout(self.config.recv_timeout) {
                Ok(msg) => {
                    self.wire_delay(&msg);
                    Ok(msg.payload)
                }
                Err(RecvTimeoutError::Timeout) => Err(CommError::Timeout {
                    rank: src,
                    collective,
                }),
                Err(RecvTimeoutError::Disconnected) => Err(self.disconnect_error(src)),
            };
        }
        self.recv_arq(src, collective)
    }

    /// The receiver-driven ARQ loop: poll for the expected sequence
    /// number, verify the envelope CRC, NACK losses/corruption with
    /// exponential backoff, and keep servicing control traffic so peers'
    /// recoveries make progress while we wait.
    fn recv_arq(&mut self, src: usize, collective: &'static str) -> Result<Payload, CommError> {
        self.recv_arq_inner(src, collective, false)
    }

    /// Processes one frame off `src`'s data channel: CRC check (NACK on
    /// mismatch), raw-plane diversion, in-order accept + ACK, out-of-order
    /// stash, duplicate re-ACK. Returns `Ok(Some(payload))` when a frame
    /// is deliverable to the caller, `Ok(None)` when the receive loop
    /// should keep polling.
    fn accept_data(
        &mut self,
        src: usize,
        msg: DataMsg,
        want_membership: bool,
    ) -> Result<Option<Payload>, CommError> {
        self.wire_delay(&msg);
        let expect = self.recv_expect[src];
        if msg.crc != payload_crc(&msg.payload) {
            self.recorder.incr(names::COMM_FAULT_CRC_DETECTED);
            self.send_nack(src, msg.seq)?;
            return Ok(None);
        }
        if msg.seq == RAW_SEQ {
            // Sequence-less membership frame (rejoin traffic sent
            // outside the ARQ stream): divert it, never ACK it.
            if let Ok(frame) = membership_frame(msg.payload) {
                self.rejoin_stash[src].push_back(frame);
            }
            return Ok(None);
        }
        if msg.seq == expect {
            return Ok(self.accept_in_order(src, msg.payload, want_membership));
        } else if msg.seq > expect {
            // Out of order: a later message overtook a lost one. Keep
            // it; the NACK timer recovers `expect`.
            self.stash[src].insert(msg.seq, msg.payload);
        } else {
            // Duplicate from a spurious retransmit; re-ACK so the
            // sender prunes it.
            self.send_ack(src, expect);
        }
        Ok(None)
    }

    /// Takes the payload at `src`'s expected sequence number: advances
    /// the stream, ACKs, and hands the payload to the caller — unless it
    /// is a membership frame that slipped into the data stream (the peer
    /// entered its shrink round while we were still inside a
    /// collective), which is diverted so the data plane stays typed;
    /// `shrink` picks it up from the stash, or asks for it directly with
    /// `want_membership`.
    fn accept_in_order(
        &mut self,
        src: usize,
        payload: Payload,
        want_membership: bool,
    ) -> Option<Payload> {
        self.recv_expect[src] += 1;
        self.send_ack(src, self.recv_expect[src]);
        match membership_frame(payload) {
            Ok(frame) if want_membership => Some(Payload::Bytes(frame)),
            Ok(frame) => {
                self.membership_stash[src].push_back(frame);
                None
            }
            Err(payload) => Some(payload),
        }
    }

    /// [`recv_arq`] core. With `want_membership`, diverted membership
    /// frames are *returned* instead of stashed (the shrink protocol's
    /// receive mode — data payloads still come back and the caller
    /// discards them as stale collective traffic).
    ///
    /// [`recv_arq`]: Communicator::recv_arq
    fn recv_arq_inner(
        &mut self,
        src: usize,
        collective: &'static str,
        want_membership: bool,
    ) -> Result<Payload, CommError> {
        while let Some(p) = self.stash[src].remove(&self.recv_expect[src]) {
            if let Some(out) = self.accept_in_order(src, p, want_membership) {
                return Ok(out);
            }
        }
        let start = Instant::now();
        let deadline = start + self.config.recv_timeout;
        let mut backoff = self.config.retry_initial;
        let mut nack_at = start + backoff;
        let mut nacks = 0u32;
        loop {
            // Serve frames already on the wire BEFORE consulting the
            // failure detector: a crashed peer's pre-crash sends stay
            // deliverable, so every survivor finishes the collectives
            // the dead rank fully contributed to and they all abandon
            // at the *same* step boundary. Without this fence, ranks
            // whose receives happened to be in flight at detection time
            // would abandon an earlier step than their peers — skewing
            // step counters and, one layer up, parameter trajectories.
            if let Some(msg) = self.data_rx[src].try_recv() {
                if let Some(out) = self.accept_data(src, msg, want_membership)? {
                    return Ok(out);
                }
                continue;
            }
            if let Some(rank) = self.failed_peer() {
                return Err(CommError::Poisoned { rank });
            }
            self.service_ctrl()?;
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::Timeout {
                    rank: src,
                    collective,
                });
            }
            let wake = deadline.min(nack_at).min(now + POLL_SLICE);
            let slice = wake
                .saturating_duration_since(now)
                .max(Duration::from_micros(50));
            match self.data_rx[src].recv_timeout(slice) {
                Ok(msg) => {
                    if let Some(out) = self.accept_data(src, msg, want_membership)? {
                        return Ok(out);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(self.disconnect_error(src)),
            }
            if Instant::now() >= nack_at {
                if nacks >= self.config.max_retries {
                    return Err(CommError::RetriesExhausted {
                        rank: src,
                        collective,
                        attempts: nacks,
                    });
                }
                self.send_nack(src, self.recv_expect[src])?;
                nacks += 1;
                self.recorder
                    .observe(names::COMM_RETRY_BACKOFF_NS, backoff.as_nanos() as u64);
                backoff *= 2;
                nack_at = Instant::now() + backoff;
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
        let deadline = Instant::now() + self.config.recv_timeout;
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
    /// traffic (from `src` and everyone else) in the meantime.
    fn wait_barrier(&mut self, src: usize, want: Ctrl, deadline: Instant) -> Result<(), CommError> {
        loop {
            if let Some(rank) = self.failed_peer() {
                return Err(CommError::Poisoned { rank });
            }
            // Drain control traffic BEFORE consulting the stash: the
            // wanted message may already sit in the channel queue, and a
            // peer that sent it and exited has disconnected the channel —
            // polling first would misread that as a failure.
            self.service_ctrl()?;
            if let Some(pos) = self.barrier_stash[src].iter().position(|m| *m == want) {
                self.barrier_stash[src].remove(pos);
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::Timeout {
                    rank: src,
                    collective: names::COMM_BARRIER,
                });
            }
            let slice = POLL_SLICE.min(deadline - now);
            match self.ctrl_rx[src].recv_timeout(slice) {
                Ok(msg) => self.handle_ctrl(src, msg)?,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(self.disconnect_error(src)),
            }
        }
    }

    /// Total bytes this rank has put on the wire (traffic accounting for
    /// the communication-volume experiments).
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// Virtual rank to this rank's right on the ring.
    pub fn right(&self) -> usize {
        (self.rank() + 1) % self.size()
    }

    /// Virtual rank to this rank's left on the ring.
    pub fn left(&self) -> usize {
        (self.rank() + self.size() - 1) % self.size()
    }

    // ---- elastic membership ------------------------------------------

    /// Physical size of the channel mesh (never shrinks).
    pub fn phys_size(&self) -> usize {
        self.size
    }

    /// Physical ranks shrunk out of the view, sorted.
    pub fn dead_ranks(&self) -> &[usize] {
        &self.dead
    }

    /// Current value of the training-step counter (what the next
    /// [`Communicator::begin_step`] will return).
    pub fn current_step(&self) -> u64 {
        self.step
    }

    pub(crate) fn barrier_gen_value(&self) -> u64 {
        self.barrier_gen
    }

    /// Sends a sequence-less membership frame straight onto `dst`'s data
    /// channel (physical rank). Bypasses the ARQ stream *and* the fault
    /// plane: membership traffic models the reliable control plane.
    pub(crate) fn send_raw_frame(&mut self, dst: usize, frame: Vec<u8>) -> Result<(), CommError> {
        let payload = Payload::Bytes(frame);
        let msg = DataMsg {
            seq: RAW_SEQ,
            crc: payload_crc(&payload),
            sent_at: Instant::now(),
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
    pub(crate) fn poll_raw_membership(&mut self, src: usize) -> Option<Vec<u8>> {
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
    /// rejoin-request fence.
    pub(crate) fn recv_raw_membership(
        &mut self,
        src: usize,
        deadline: Instant,
    ) -> Result<Vec<u8>, CommError> {
        loop {
            if let Some(b) = self.poll_raw_membership(src) {
                return Ok(b);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::Timeout {
                    rank: src,
                    collective: names::COMM_MEMBERSHIP,
                });
            }
            match self.data_rx[src].recv_timeout(POLL_SLICE.min(deadline - now)) {
                // Anything else on a rejoining channel is stale
                // collective traffic: discard unacknowledged.
                Ok(msg) => {
                    if let Some(frame) = raw_membership(msg) {
                        return Ok(frame);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(self.disconnect_error(src)),
            }
        }
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
            if let Ok(frame) =
                membership_frame(self.recv_arq_inner(src, names::COMM_MEMBERSHIP, true)?)
            {
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
    pub fn shrink(&mut self, suspects: Vec<usize>) -> Result<ViewChange, CommError> {
        let mut suspects = suspects;
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
            let frame = crate::membership::MembershipFrame::Proposal {
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
                            Ok(bytes) => {
                                match crate::membership::MembershipFrame::decode(&bytes) {
                                    Ok(crate::membership::MembershipFrame::Proposal {
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
                                }
                            }
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
    pub(crate) fn grow_commit(&mut self, joiner: usize, step: u64) {
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
    pub(crate) fn adopt_view(&mut self, epoch: u64, live: Vec<usize>, barrier_gen: u64, step: u64) {
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
        self.clear_departed();
        self.recorder.incr(names::COMM_MEMBERSHIP_REJOINS);
        self.recorder.incr(names::COMM_MEMBERSHIP_EPOCHS);
    }
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
    let comms = build_group_with(n, plane, config).into_communicators();
    let poison = Arc::clone(&comms[0].poison);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (mut comm, slot) in comms.into_iter().zip(slots.iter_mut()) {
            let f = &f;
            let panics = &panics;
            handles.push(scope.spawn(move || {
                let rank = comm.rank();
                match catch_unwind(AssertUnwindSafe(|| f(&mut comm))) {
                    Ok(v) => {
                        // Quiesce before tearing the rank down: with a
                        // fault plane armed, a peer may still be waiting
                        // on a retransmission of traffic this rank
                        // originated (the original copy was dropped or
                        // corrupted in flight). The barrier holds the
                        // rank alive — servicing NACKs the whole time —
                        // until every rank has finished its workload, so
                        // exiting cannot strand a recovery. Best-effort:
                        // a poisoned or torn group unblocks immediately.
                        if comm.fault_plane().is_enabled() {
                            // lint:allow(swallowed-comm-error): best-effort quiesce; a poisoned or torn group must unblock immediately
                            let _ = comm.barrier();
                        }
                        *slot = Some(v);
                    }
                    Err(payload) => {
                        comm.mark_poisoned();
                        // Disconnect our channels so peers blocked on us
                        // wake immediately instead of waiting out their
                        // deadlines.
                        drop(comm);
                        // A poisoned panic registry only means another
                        // rank panicked while holding it; its contents
                        // are still valid for reporting, so recover the
                        // guard instead of double-panicking.
                        panics
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .push((rank, panic_message(payload.as_ref())));
                    }
                }
            }));
        }
        for h in handles {
            let _ = h.join(); // panics were caught inside the thread
        }
    });
    if let Some(rank) = poison.check() {
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
    slots
        .into_iter()
        // lint:allow(no-unwrap-on-comm-path): every rank either filled its slot or poisoned the group, and poison panics above
        .map(|s| s.expect("rank produced no result"))
        .collect()
}

/// Builds the channel mesh for `size` ranks (free-function constructor used
/// by [`run_ranks`]; `CommGroup::new` delegates here).
pub fn build_group(size: usize) -> CommGroup {
    build_group_with(size, FaultPlane::disabled(), CommConfig::default())
}

/// [`build_group`] with an armed [`FaultPlane`] and custom transport
/// configuration.
pub fn build_group_with(size: usize, plane: FaultPlane, config: CommConfig) -> CommGroup {
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
        let rx = pending
            .into_iter()
            // lint:allow(no-unwrap-on-comm-path): the loop above fills pending[dst][src] for every (src, dst) pair
            .map(|row| row.into_iter().map(|r| r.unwrap()).collect())
            .collect();
        (tx, rx)
    }
    let (data_tx, data_rx) = mesh(size);
    let (ctrl_tx, ctrl_rx) = mesh(size);
    CommGroup {
        size,
        data_tx,
        data_rx,
        ctrl_tx,
        ctrl_rx,
        poison: Arc::new(PoisonCell::new()),
        departed: Arc::new(Mutex::new(Vec::new())),
        plane,
        config,
    }
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
    let comms = build_group_with(n, plane, config).into_communicators();
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (mut comm, slot) in comms.into_iter().zip(slots.iter_mut()) {
            let f = &f;
            scope.spawn(move || {
                let outcome = match catch_unwind(AssertUnwindSafe(|| f(&mut comm, false))) {
                    Ok(v) => Some(v),
                    Err(_) => {
                        comm.mark_departed();
                        catch_unwind(AssertUnwindSafe(|| f(&mut comm, true))).ok()
                    }
                };
                if let Some(v) = outcome {
                    // Quiesce as in `run_ranks_with`: hold the rank alive
                    // to service peers' retransmissions until the whole
                    // view has finished. Best-effort by design. A rank
                    // still marked departed never rejoined — its view is
                    // stale, so it must not inject barrier traffic.
                    if comm.fault_plane().is_enabled() && !comm.is_departed(comm.phys_rank()) {
                        // lint:allow(collective-order): every live rank evaluates the same fault-plane and departed view, so all branch identically
                        let _ = comm.barrier(); // lint:allow(swallowed-comm-error): best-effort quiesce; a poisoned or torn group must unblock immediately
                    }
                    *slot = Some(v);
                }
            });
        }
    });
    slots
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
                comm.send(2, Payload::Sizes(vec![0])).unwrap();
                0
            }
            1 => {
                comm.send(2, Payload::Sizes(vec![1])).unwrap();
                0
            }
            _ => {
                // Receive in the opposite order of likely arrival; per-source
                // channels mean ordering across sources cannot interfere.
                let from1 = comm.recv(1).unwrap().try_sizes().unwrap();
                let from0 = comm.recv(0).unwrap().try_sizes().unwrap();
                (from0[0] * 10 + from1[0]) as i32
            }
        });
        assert_eq!(results[2], 1);
    }

    #[test]
    fn fifo_per_channel() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..10u64 {
                    comm.send(1, Payload::Sizes(vec![i])).unwrap();
                }
                Vec::new()
            } else {
                (0..10)
                    .map(|_| comm.recv(0).unwrap().try_sizes().unwrap()[0])
                    .collect()
            }
        });
        assert_eq!(results[1], (0..10).collect::<Vec<u64>>());
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
        assert_eq!(
            Payload::Bytes(vec![]).try_sizes(),
            Err(CommError::Protocol { expected: "Sizes" })
        );
    }

    #[test]
    fn recv_times_out_with_peer_and_collective() {
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                // Never send, but stay alive past rank 1's deadline so
                // the failure is a timeout, not a disconnect.
                std::thread::sleep(Duration::from_millis(150));
                Ok(Payload::Sizes(vec![]))
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
    fn modeled_wire_delays_delivery_by_bandwidth_not_the_sender() {
        // 1 MB at 50 MB/s models a 20 ms drain: the sender returns
        // immediately (async NIC), the receiver observes the delay.
        let config = CommConfig {
            modeled_wire_mbps: Some(50.0),
            ..CommConfig::default()
        };
        let results = run_ranks_with(2, FaultPlane::disabled(), config, |comm| {
            if comm.rank() == 0 {
                let t0 = Instant::now();
                comm.send(1, Payload::Bytes(vec![0u8; 1 << 20])).unwrap();
                let send_s = t0.elapsed().as_secs_f64();
                // Empty payloads model zero drain in either direction.
                comm.send(1, Payload::Bytes(Vec::new())).unwrap();
                send_s
            } else {
                let t0 = Instant::now();
                let big = comm.recv(0).unwrap().try_bytes().unwrap();
                let recv_s = t0.elapsed().as_secs_f64();
                assert_eq!(big.len(), 1 << 20);
                let empty = comm.recv(0).unwrap().try_bytes().unwrap();
                assert!(empty.is_empty());
                recv_s
            }
        });
        let (send_s, recv_s) = (results[0], results[1]);
        assert!(
            send_s < 0.015,
            "sender must not block on the modeled drain, took {send_s}s"
        );
        assert!(
            recv_s >= 0.018,
            "1 MB at 50 MB/s must take ~20 ms to deliver, took {recv_s}s"
        );
    }

    /// Transport with a 50 MB/s modeled wire: 1 MB drains in 20 ms.
    fn wire_50() -> CommConfig {
        CommConfig {
            modeled_wire_mbps: Some(50.0),
            ..CommConfig::default()
        }
    }

    #[test]
    fn modeled_wire_carries_one_message_at_a_time_per_link() {
        // Two 1 MB messages sent back to back on one 50 MB/s link: the
        // second starts draining when the first is through, so it lands
        // 40 ms after the first send, not 20.
        let results = run_ranks_with(2, FaultPlane::disabled(), wire_50(), |comm| {
            let t0 = Instant::now();
            if comm.rank() == 0 {
                comm.send(1, Payload::Bytes(vec![0u8; 1 << 20])).unwrap();
                comm.send(1, Payload::Bytes(vec![1u8; 1 << 20])).unwrap();
            } else {
                comm.recv(0).unwrap();
                comm.recv(0).unwrap();
            }
            (t0, Instant::now())
        });
        let (first_send, _) = results[0];
        let (_, delivered) = results[1];
        assert!(
            delivered - first_send >= Duration::from_millis(40),
            "2 MB on a 50 MB/s link took {:?}",
            delivered - first_send
        );
    }

    #[test]
    fn modeled_links_to_different_peers_drain_independently() {
        let mut comms = build_group_with(3, FaultPlane::disabled(), wire_50()).into_communicators();
        let sender = &mut comms[0];
        let drain = (sender.wire_drain(&Payload::Bytes(vec![0u8; 1 << 20]))).unwrap();
        let t0 = Instant::now();
        sender.send(1, Payload::Bytes(vec![0u8; 1 << 20])).unwrap();
        sender.send(2, Payload::Bytes(vec![0u8; 1 << 20])).unwrap();
        let second_sent = Instant::now();
        sender.send(1, Payload::Bytes(vec![0u8; 1 << 20])).unwrap();
        // Link 0→2 carries one message from the moment it was sent (behind
        // link 0→1's it would be free no sooner than t0 + 2 drains); link
        // 0→1 carries two back to back.
        assert!(sender.link_free[2] >= t0 + drain);
        assert!(sender.link_free[2] <= second_sent + drain);
        assert!(sender.link_free[1] >= t0 + 2 * drain);
    }

    #[test]
    fn a_dropped_copy_occupies_the_link() {
        let plane = FaultPlane::new(FaultConfig {
            seed: 3,
            drop_p: 1.0,
            ..FaultConfig::default()
        });
        let mut comms = build_group_with(2, plane, wire_50()).into_communicators();
        let sender = &mut comms[0];
        let t0 = Instant::now();
        sender.send(1, Payload::Bytes(vec![7u8; 1 << 20])).unwrap();
        sender.send(1, Payload::Bytes(vec![8u8; 1 << 20])).unwrap();
        assert!(sender.link_free[1] >= t0 + Duration::from_millis(40));
    }

    #[test]
    fn a_retransmission_queues_behind_what_is_on_the_link() {
        let plane = FaultPlane::new(FaultConfig {
            seed: 3,
            ..FaultConfig::default()
        });
        let mut comms = build_group_with(2, plane, wire_50()).into_communicators();
        let t0 = Instant::now();
        let sender = &mut comms[0];
        sender.send(1, Payload::Bytes(vec![7u8; 1 << 20])).unwrap();
        sender.send(1, Payload::Bytes(vec![8u8; 1 << 20])).unwrap();
        // A NACK for the first message arrives while both are in flight:
        // its second copy goes out third.
        sender.retransmit(1, 0).unwrap();
        assert!(sender.link_free[1] >= t0 + Duration::from_millis(60));
        let receiver = &mut comms[1];
        assert_eq!(
            receiver.recv(0).unwrap(),
            Payload::Bytes(vec![7u8; 1 << 20])
        );
        assert_eq!(
            receiver.recv(0).unwrap(),
            Payload::Bytes(vec![8u8; 1 << 20])
        );
        assert!(t0.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn an_unmodeled_wire_adds_no_delay_and_keeps_no_link_clock() {
        let mut comms = build_group(2).into_communicators();
        let before = comms[0].link_free.clone();
        comms[0]
            .send(1, Payload::Bytes(vec![0u8; 1 << 20]))
            .unwrap();
        comms[0]
            .send(1, Payload::Bytes(vec![0u8; 1 << 20]))
            .unwrap();
        assert_eq!(comms[0].link_free, before);
        let big = comms[1].recv(0).unwrap();
        assert!(comms[1].wire_drain(&big).is_none());
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
    fn arq_recovers_drops_and_corruption() {
        let plane = FaultPlane::new(FaultConfig {
            seed: 99,
            drop_p: 0.2,
            corrupt_wire_p: 0.2,
            ..FaultConfig::default()
        });
        let ledger_plane = plane.clone();
        let rec = compso_obs::Recorder::enabled();
        let rec_ref = &rec;
        let config = CommConfig {
            recv_timeout: Duration::from_secs(20),
            retry_initial: Duration::from_millis(40),
            max_retries: 12,
            ..CommConfig::default()
        };
        let n_msgs = 50u64;
        let results = run_ranks_with(2, plane, config, |comm| {
            comm.set_recorder(rec_ref.clone());
            if comm.rank() == 0 {
                for i in 0..n_msgs {
                    comm.send(1, Payload::Sizes(vec![i, i * i])).unwrap();
                }
                // Stay alive until the receiver confirms delivery, so
                // late NACKs still find a live sender.
                comm.barrier().unwrap();
                Vec::new()
            } else {
                let got: Vec<u64> = (0..n_msgs)
                    .map(|_| comm.recv(0).unwrap().try_sizes().unwrap()[0])
                    .collect();
                comm.barrier().unwrap();
                got
            }
        });
        assert_eq!(results[1], (0..n_msgs).collect::<Vec<u64>>());
        let ledger = ledger_plane.ledger();
        assert!(ledger.dropped > 0, "drop_p=0.2 over 50 sends must fire");
        assert!(ledger.corrupted_wire > 0);
        let snap = rec.snapshot();
        // Every injected wire corruption was detected exactly once.
        assert_eq!(
            snap.counter(compso_obs::names::COMM_FAULT_CRC_DETECTED),
            ledger.corrupted_wire
        );
        // Every drop and every corruption triggered exactly one resend.
        assert_eq!(
            snap.counter(compso_obs::names::COMM_RETRY_RESENDS),
            ledger.dropped + ledger.corrupted_wire
        );
    }

    #[test]
    fn disabled_plane_sends_no_envelope_traffic() {
        // Sequence numbers and outboxes stay untouched on the fast path.
        let results = run_ranks(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, Payload::Bytes(vec![1, 2, 3])).unwrap();
            } else {
                comm.recv(0).unwrap();
            }
            (
                comm.send_seq[1 - comm.rank()],
                comm.outbox.iter().map(|o| o.len()).sum::<usize>(),
            )
        });
        assert_eq!(results[0], (0, 0));
        assert_eq!(results[1], (0, 0));
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
