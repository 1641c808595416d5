//! The transport's one clock: every time read, sleep and timed channel
//! wait in compso-comm, and the modeled wire
//! ([`CommConfig::modeled_wire_mbps`]) it paces — when each link has
//! drained what a rank put on it, the instant a message starts draining,
//! and the receiver's hold until it has. [`build_group_with`] makes one
//! per group and hands every [`Communicator`] a copy, which keeps that
//! rank's outgoing links. It reads wall time; it is the one seam a
//! virtual clock would replace.
//!
//! [`CommConfig::modeled_wire_mbps`]: crate::CommConfig::modeled_wire_mbps
//! [`build_group_with`]: crate::build_group_with
//! [`Communicator`]: crate::Communicator

use crossbeam::channel::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Wall time, and the modeled wire it paces.
#[derive(Clone)]
pub(crate) struct Clock {
    /// Modeled bandwidth per directed link in MB/s; `None` keeps the
    /// wire free.
    wire_mbps: Option<f64>,
    /// Per destination: when the modeled link to it has drained
    /// everything this rank already put on it.
    link_free: Vec<Instant>,
}

impl Clock {
    /// A clock for `size` ranks over a wire of `wire_mbps` (`None` or a
    /// non-positive rate: no wire model).
    pub(crate) fn new(size: usize, wire_mbps: Option<f64>) -> Self {
        let mut clock = Clock {
            wire_mbps: wire_mbps.filter(|&m| m > 0.0),
            link_free: Vec::new(),
        };
        clock.link_free = vec![clock.now(); size];
        clock
    }

    /// The current instant: the crate's only time read.
    pub(crate) fn now(&self) -> Instant {
        Instant::now()
    }

    /// Blocks the calling thread until `t`; returns at once if `t` has
    /// passed.
    pub(crate) fn sleep_until(&self, t: Instant) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }

    /// The next message on `rx`, waiting until `until` at the latest.
    pub(crate) fn recv_until<M>(
        &self,
        rx: &Receiver<M>,
        until: Instant,
    ) -> Result<M, RecvTimeoutError> {
        rx.recv_timeout(until.saturating_duration_since(self.now()))
    }

    /// How long `bytes` occupy a modeled link; `None` without a wire
    /// model or for no bytes.
    pub(crate) fn drain(&self, bytes: usize) -> Option<Duration> {
        let mbps = self.wire_mbps?;
        (bytes > 0).then(|| Duration::from_secs_f64(bytes as f64 / (mbps * 1e6)))
    }

    /// The instant `bytes` sent to `dst` now start draining: now, or
    /// when the link has drained what this rank put on it before — one
    /// message at a time per link. Advances the link past them.
    pub(crate) fn stamp(&mut self, dst: usize, bytes: usize) -> Instant {
        let now = self.now();
        let Some(drain) = self.drain(bytes) else {
            return now;
        };
        let start = now.max(self.link_free[dst]);
        self.link_free[dst] = start + drain;
        start
    }

    /// Holds a just-received message of `bytes` stamped `sent_at` until
    /// its modeled drain completes. Returns at once without a wire model
    /// or once the drain has already elapsed.
    pub(crate) fn deliver(&self, sent_at: Instant, bytes: usize) {
        if let Some(drain) = self.drain(bytes) {
            self.sleep_until(sent_at + drain);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::fault::{FaultConfig, FaultPlane};
    use crate::group::{build_group_with, run_ranks_with, CommConfig, Payload};
    use std::time::{Duration, Instant};

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
        let drain = sender.clock.drain(1 << 20).unwrap();
        let t0 = Instant::now();
        sender.send(1, Payload::Bytes(vec![0u8; 1 << 20])).unwrap();
        sender.send(2, Payload::Bytes(vec![0u8; 1 << 20])).unwrap();
        let second_sent = Instant::now();
        sender.send(1, Payload::Bytes(vec![0u8; 1 << 20])).unwrap();
        // Link 0→2 carries one message from the moment it was sent (behind
        // link 0→1's it would be free no sooner than t0 + 2 drains); link
        // 0→1 carries two back to back.
        assert!(sender.clock.link_free[2] >= t0 + drain);
        assert!(sender.clock.link_free[2] <= second_sent + drain);
        assert!(sender.clock.link_free[1] >= t0 + 2 * drain);
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
        assert!(sender.clock.link_free[1] >= t0 + Duration::from_millis(40));
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
        assert!(sender.clock.link_free[1] >= t0 + Duration::from_millis(60));
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
        let mut comms =
            build_group_with(2, FaultPlane::disabled(), CommConfig::default()).into_communicators();
        let before = comms[0].clock.link_free.clone();
        comms[0]
            .send(1, Payload::Bytes(vec![0u8; 1 << 20]))
            .unwrap();
        comms[0]
            .send(1, Payload::Bytes(vec![0u8; 1 << 20]))
            .unwrap();
        assert_eq!(comms[0].clock.link_free, before);
        let big = comms[1].recv(0).unwrap();
        assert!(comms[1].clock.drain(big.wire_bytes()).is_none());
    }
}
