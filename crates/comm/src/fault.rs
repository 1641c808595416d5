//! Deterministic, seeded fault injection for the comm substrate.
//!
//! A [`FaultPlane`] sits between the collectives and the channel mesh and
//! injects the failure modes a real compressed-gradient fabric must
//! survive: message **drops**, in-flight **bit flips** (wire corruption),
//! **straggler delay**, origin-side **payload corruption** (bit flips that
//! land *inside* the checksum-framed application payload, so they pass the
//! transport and must be handled by the degradation ladder in
//! `compso-kfac`), and scheduled **rank crashes**.
//!
//! Every decision is a pure function of `(seed, domain, coordinates)`
//! hashed with splitmix64, so a chaos run is exactly reproducible from its
//! seed: the same messages are dropped, the same bits flip, the same rank
//! crashes at the same step. An atomic [`Ledger`] records every injected
//! fault; the chaos suite (`tests/chaos.rs`) asserts that observability
//! counters match the ledger *exactly* — no fault goes unnoticed, none is
//! double-counted.
//!
//! `FaultPlane::disabled()` is a `None` inside and costs nothing on the
//! hot path (a single branch per send/receive).

use crate::group::Payload;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Domain separators for the decision hash, so that e.g. the drop decision
/// for message `(src, dst, seq)` is independent of its corruption decision.
const DOMAIN_DROP: u64 = 0xD209;
const DOMAIN_CORRUPT_WIRE: u64 = 0xC0F2;
const DOMAIN_CORRUPT_PAYLOAD: u64 = 0xBADC;
const DOMAIN_CORRUPT_REPAIR: u64 = 0x2E9A;
const DOMAIN_BIT_POS: u64 = 0xB172;

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes `(seed, domain, coords)` into a uniform u64.
fn decision_hash(seed: u64, domain: u64, coords: &[u64]) -> u64 {
    let mut h = splitmix64(seed ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for &c in coords {
        h = splitmix64(h ^ c.wrapping_mul(0xFF51_AFD7_ED55_8CCD));
    }
    h
}

/// True with probability `p`, deterministically in the hash.
fn hits(h: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    ((h >> 11) as f64 / (1u64 << 53) as f64) < p
}

/// Knobs for a seeded fault campaign. `Default` injects nothing.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Per-transmission probability that a data message is silently
    /// dropped (recovered by the receiver-driven NACK/retransmit loop).
    pub drop_p: f64,
    /// Per-transmission probability of an in-flight bit flip in the data
    /// payload (caught by the envelope CRC at the receiver, triggering an
    /// immediate NACK).
    pub corrupt_wire_p: f64,
    /// Per-(rank, step) probability that a rank's *outgoing compressed
    /// payload* is bit-flipped at the origin, inside the checksum frame —
    /// the fault class the `DistKfac` degradation ladder must absorb.
    pub corrupt_payload_p: f64,
    /// One straggler: `(rank, delay)` sleeps `delay` before each fresh
    /// data send from that rank.
    pub straggler: Option<(usize, Duration)>,
    /// Crash `(rank, step)`: that rank panics at the top of that step
    /// (0-based), exercising group poisoning.
    pub crash_at: Option<(usize, u64)>,
    /// How many repair rungs get their resends corrupted. `0` (default)
    /// leaves repair traffic pristine; `1` corrupts the rung-1 compressed
    /// resend (forcing the ladder down to the uncompressed rung); `2`
    /// corrupts the uncompressed resend as well, forcing the bottom rung
    /// (last-good / plain-SGD fallback).
    pub corrupt_repair_rungs: u8,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            drop_p: 0.0,
            corrupt_wire_p: 0.0,
            corrupt_payload_p: 0.0,
            straggler: None,
            crash_at: None,
            corrupt_repair_rungs: 0,
        }
    }
}

/// Atomic tally of every fault actually injected — the ground truth the
/// chaos suite reconciles observability counters against.
#[derive(Default)]
struct Ledger {
    delayed: AtomicU64,
    dropped: AtomicU64,
    corrupted_wire: AtomicU64,
    corrupted_payload: AtomicU64,
    corrupted_repair: AtomicU64,
    crashes: AtomicU64,
}

/// A point-in-time copy of the [`FaultPlane`]'s injection ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Fresh sends delayed by the straggler knob.
    pub delayed: u64,
    /// Data transmissions silently dropped.
    pub dropped: u64,
    /// Data transmissions bit-flipped in flight (envelope CRC territory).
    pub corrupted_wire: u64,
    /// Outgoing payloads bit-flipped at the origin (ladder territory).
    pub corrupted_payload: u64,
    /// Repair resends bit-flipped at the origin (`corrupt_repair_rungs`).
    pub corrupted_repair: u64,
    /// Scheduled rank crashes fired.
    pub crashes: u64,
}

struct Inner {
    config: FaultConfig,
    ledger: Ledger,
}

/// Handle to a (possibly disabled) fault-injection campaign, shared by
/// every rank in a group. Cloning shares the ledger.
#[derive(Clone)]
pub struct FaultPlane(Option<Arc<Inner>>);

impl Default for FaultPlane {
    fn default() -> Self {
        FaultPlane::disabled()
    }
}

impl FaultPlane {
    /// The no-fault plane: every query is a single `None` check.
    pub fn disabled() -> Self {
        FaultPlane(None)
    }

    /// A plane injecting per `config`.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlane(Some(Arc::new(Inner {
            config,
            ledger: Ledger::default(),
        })))
    }

    /// Whether any injection can happen at all.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Origin-side corruption of a degradation-ladder repair resend:
    /// flips one deterministic bit of `payload` when the campaign corrupts
    /// rung `rung` (1 = compressed resend, 2 = uncompressed resend) and
    /// counts the injection. Deterministic in `(origin, requester, step,
    /// rung)`, always fires when armed — repair corruption exists to march
    /// tests down the ladder, not to model a probabilistic channel.
    pub fn maybe_corrupt_repair(
        &self,
        origin: usize,
        requester: usize,
        step: u64,
        rung: u8,
        payload: &mut [u8],
    ) -> bool {
        let Some(inner) = self.0.as_ref() else {
            return false;
        };
        if rung == 0 || rung > inner.config.corrupt_repair_rungs || payload.is_empty() {
            return false;
        }
        let pos = decision_hash(
            inner.config.seed,
            DOMAIN_BIT_POS ^ DOMAIN_CORRUPT_REPAIR,
            &[origin as u64, requester as u64, step, rung as u64],
        );
        flip_bit(payload, pos);
        inner
            .ledger
            .corrupted_repair
            .fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Should transmission `attempt` of data message `(src, dst, seq)` be
    /// dropped? Counts into the ledger when it fires.
    pub(crate) fn should_drop(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> bool {
        let Some(inner) = self.0.as_ref() else {
            return false;
        };
        let h = decision_hash(
            inner.config.seed,
            DOMAIN_DROP,
            &[src as u64, dst as u64, seq, attempt as u64],
        );
        let hit = hits(h, inner.config.drop_p);
        if hit {
            inner.ledger.dropped.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// If transmission `attempt` of `(src, dst, seq)` should be corrupted
    /// in flight, returns the raw bit-position hash to flip (the caller
    /// reduces it modulo the payload's bit width) and counts the
    /// injection. Callers must only invoke this for non-empty payloads.
    pub(crate) fn wire_corrupt_bit(
        &self,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
    ) -> Option<u64> {
        let inner = self.0.as_ref()?;
        let coords = [src as u64, dst as u64, seq, attempt as u64];
        let h = decision_hash(inner.config.seed, DOMAIN_CORRUPT_WIRE, &coords);
        if !hits(h, inner.config.corrupt_wire_p) {
            return None;
        }
        let pos = decision_hash(
            inner.config.seed,
            DOMAIN_BIT_POS ^ DOMAIN_CORRUPT_WIRE,
            &coords,
        );
        inner.ledger.corrupted_wire.fetch_add(1, Ordering::Relaxed);
        Some(pos)
    }

    /// Origin-side payload corruption for `(rank, step)`: flips one
    /// deterministic bit of `payload` with probability `corrupt_payload_p`
    /// and counts it. The caller (DistKfac) retains a clean copy so the
    /// repair rungs can resend pristine bytes.
    pub fn maybe_corrupt_payload(&self, rank: usize, step: u64, payload: &mut [u8]) -> bool {
        let Some(inner) = self.0.as_ref() else {
            return false;
        };
        if payload.is_empty() {
            return false;
        }
        let coords = [rank as u64, step];
        let h = decision_hash(inner.config.seed, DOMAIN_CORRUPT_PAYLOAD, &coords);
        if !hits(h, inner.config.corrupt_payload_p) {
            return false;
        }
        let pos = decision_hash(
            inner.config.seed,
            DOMAIN_BIT_POS ^ DOMAIN_CORRUPT_PAYLOAD,
            &coords,
        );
        flip_bit(payload, pos);
        inner
            .ledger
            .corrupted_payload
            .fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Straggler delay to apply before a fresh data send from `rank`
    /// (ledger-counted). `None` when `rank` is not the straggler.
    pub(crate) fn straggler_delay(&self, rank: usize) -> Option<Duration> {
        let inner = self.0.as_ref()?;
        match inner.config.straggler {
            Some((r, d)) if r == rank => {
                inner.ledger.delayed.fetch_add(1, Ordering::Relaxed);
                Some(d)
            }
            _ => None,
        }
    }

    /// Whether `rank` is scheduled to crash at `step` (counts when it
    /// fires).
    pub(crate) fn crash_due(&self, rank: usize, step: u64) -> bool {
        let Some(inner) = self.0.as_ref() else {
            return false;
        };
        let due = inner.config.crash_at == Some((rank, step));
        if due {
            inner.ledger.crashes.fetch_add(1, Ordering::Relaxed);
        }
        due
    }

    /// Snapshot of everything injected so far.
    pub fn ledger(&self) -> LedgerSnapshot {
        match self.0.as_ref() {
            None => LedgerSnapshot::default(),
            Some(inner) => LedgerSnapshot {
                delayed: inner.ledger.delayed.load(Ordering::Relaxed),
                dropped: inner.ledger.dropped.load(Ordering::Relaxed),
                corrupted_wire: inner.ledger.corrupted_wire.load(Ordering::Relaxed),
                corrupted_payload: inner.ledger.corrupted_payload.load(Ordering::Relaxed),
                corrupted_repair: inner.ledger.corrupted_repair.load(Ordering::Relaxed),
                crashes: inner.ledger.crashes.load(Ordering::Relaxed),
            },
        }
    }
}

/// Flips bit `hash % (len * 8)` of `buf` (never called on empty buffers).
pub(crate) fn flip_bit(buf: &mut [u8], hash: u64) {
    let bit = (hash % (buf.len() as u64 * 8)) as usize;
    buf[bit / 8] ^= 1 << (bit % 8);
}

/// Flips bit `hash % wire_bits` of the payload's wire representation
/// (never called on empty payloads).
pub(crate) fn flip_payload_bit(p: &mut Payload, hash: u64) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_injects_nothing() {
        let plane = FaultPlane::disabled();
        assert!(!plane.is_enabled());
        let mut buf = vec![0xAAu8; 64];
        for seq in 0..1000 {
            assert!(!plane.should_drop(0, 1, seq, 0));
            assert!(plane.wire_corrupt_bit(0, 1, seq, 0).is_none());
        }
        assert!(!plane.maybe_corrupt_payload(0, 0, &mut buf));
        assert!(plane.straggler_delay(0).is_none());
        assert!(!plane.crash_due(0, 0));
        assert_eq!(plane.ledger(), LedgerSnapshot::default());
        assert_eq!(buf, vec![0xAAu8; 64]);
    }

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        let mk = || {
            FaultPlane::new(FaultConfig {
                seed: 42,
                drop_p: 0.1,
                corrupt_wire_p: 0.1,
                corrupt_payload_p: 0.5,
                ..FaultConfig::default()
            })
        };
        let a = mk();
        let b = mk();
        for seq in 0..500 {
            assert_eq!(a.should_drop(1, 2, seq, 0), b.should_drop(1, 2, seq, 0));
            assert_eq!(
                a.wire_corrupt_bit(1, 2, seq, 0),
                b.wire_corrupt_bit(1, 2, seq, 0)
            );
        }
        assert_eq!(a.ledger(), b.ledger());
        assert!(a.ledger().dropped > 0, "0.1 over 500 trials must fire");
        assert!(a.ledger().corrupted_wire > 0);
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plane = FaultPlane::new(FaultConfig {
            seed: 7,
            drop_p: 0.2,
            ..FaultConfig::default()
        });
        let n = 10_000u64;
        let mut hits = 0u64;
        for seq in 0..n {
            if plane.should_drop(0, 1, seq, 0) {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "rate {rate}");
        assert_eq!(plane.ledger().dropped, hits);
    }

    #[test]
    fn retransmission_attempts_get_independent_decisions() {
        let plane = FaultPlane::new(FaultConfig {
            seed: 3,
            drop_p: 0.5,
            ..FaultConfig::default()
        });
        // With p=0.5 and independent attempts, some seq must differ
        // between attempt 0 and attempt 1.
        let differs =
            (0..64).any(|seq| plane.should_drop(0, 1, seq, 0) != plane.should_drop(0, 1, seq, 1));
        assert!(differs);
    }

    #[test]
    fn payload_corruption_flips_exactly_one_bit() {
        let plane = FaultPlane::new(FaultConfig {
            seed: 11,
            corrupt_payload_p: 1.0,
            ..FaultConfig::default()
        });
        let orig = vec![0x5Au8; 128];
        let mut buf = orig.clone();
        assert!(plane.maybe_corrupt_payload(2, 9, &mut buf));
        let flipped: u32 = orig
            .iter()
            .zip(&buf)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        assert_eq!(plane.ledger().corrupted_payload, 1);
    }

    #[test]
    fn repair_corruption_honors_the_rung_knob() {
        let mk = |rungs: u8| {
            FaultPlane::new(FaultConfig {
                seed: 13,
                corrupt_repair_rungs: rungs,
                ..FaultConfig::default()
            })
        };
        let mut buf = vec![0u8; 32];
        // Disabled knob: nothing flips at any rung.
        let off = mk(0);
        assert!(!off.maybe_corrupt_repair(0, 1, 0, 1, &mut buf));
        assert!(!off.maybe_corrupt_repair(0, 1, 0, 2, &mut buf));
        assert_eq!(buf, vec![0u8; 32]);
        // Rung 1 only: compressed resends flip, uncompressed do not.
        let one = mk(1);
        assert!(one.maybe_corrupt_repair(0, 1, 0, 1, &mut buf));
        let mut buf2 = vec![0u8; 32];
        assert!(!one.maybe_corrupt_repair(0, 1, 0, 2, &mut buf2));
        // Both rungs: each flip is a single deterministic bit.
        let two = mk(2);
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        assert!(two.maybe_corrupt_repair(2, 3, 7, 1, &mut a));
        assert!(two.maybe_corrupt_repair(2, 3, 7, 2, &mut b));
        let ones = |v: &[u8]| -> u32 { v.iter().map(|x| x.count_ones()).sum() };
        assert_eq!(ones(&a), 1);
        assert_eq!(ones(&b), 1);
        assert_eq!(two.ledger().corrupted_repair, 2);
    }

    #[test]
    fn straggler_and_crash_target_their_rank_only() {
        let plane = FaultPlane::new(FaultConfig {
            seed: 1,
            straggler: Some((2, Duration::from_millis(1))),
            crash_at: Some((1, 5)),
            ..FaultConfig::default()
        });
        assert!(plane.straggler_delay(0).is_none());
        assert_eq!(plane.straggler_delay(2), Some(Duration::from_millis(1)));
        assert!(!plane.crash_due(1, 4));
        assert!(!plane.crash_due(0, 5));
        assert!(plane.crash_due(1, 5));
        let l = plane.ledger();
        assert_eq!((l.delayed, l.crashes), (1, 1));
    }
}
