//! The data-plane envelope and the receiver-driven ARQ behind an armed
//! [`FaultPlane`](crate::FaultPlane): a per-(src, dst) sequence number and
//! a CRC-32 let the receiver detect loss and corruption and NACK on the
//! control mesh; senders keep a clean [`Flight`] copy of every message in
//! an outbox until it is ACKed; receivers stash out-of-order arrivals and
//! re-ACK duplicates. With the fault plane disabled none of this runs.

use crate::fault::flip_payload_bit;
use crate::group::{CommError, Communicator, Mode, Payload};
use crate::membership::membership_frame;
use compso_core::wire::crc32_update;
use compso_obs::names;
use std::ops::ControlFlow;
use std::time::Instant;

/// Sentinel sequence number for membership frames sent *outside* the ARQ
/// stream (rejoin requests and welcomes cross channels whose sequence
/// state is stale on one side). Raw frames are CRC-checked but never
/// ACKed, NACKed, or stashed for reordering.
pub(crate) const RAW_SEQ: u64 = u64::MAX;

/// Data-mesh envelope. With the fault plane disabled `seq` and `crc`
/// are 0 and ignored.
pub(crate) struct DataMsg {
    pub(crate) seq: u64,
    pub(crate) crc: u32,
    /// When the message starts draining onto its link (the send instant,
    /// or later if the link was busy) — the receiver turns it into a
    /// bandwidth-delay when [`crate::CommConfig::modeled_wire_mbps`] is
    /// set.
    pub(crate) sent_at: Instant,
    pub(crate) payload: Payload,
}

/// Control-mesh messages. The sending rank is implied by the channel the
/// message arrives on (the mesh is per-source).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Ctrl {
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
#[derive(Clone)]
pub(crate) struct Flight {
    seq: u64,
    attempt: u32,
    crc: u32,
    payload: Payload,
}

/// IEEE CRC-32 over a payload's wire representation, domain separated
/// by variant tag.
pub(crate) fn payload_crc(p: &Payload) -> u32 {
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
    }
    !crc
}

impl Communicator {
    /// The armed-plane half of a send to physical rank `dst`: assigns the
    /// next sequence number, computes the envelope CRC, applies the
    /// straggler delay, puts a (possibly faulted) copy on the wire,
    /// keeps the clean one in the outbox and services control traffic.
    pub(crate) fn send_arq(&mut self, dst: usize, payload: Payload) -> Result<(), CommError> {
        let seq = self.send_seq[dst];
        self.send_seq[dst] += 1;
        if let Some(delay) = self.plane.straggler_delay(self.rank) {
            self.clock.sleep_until(self.clock.now() + delay);
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

    /// Puts one (possibly faulted) copy of `flight` on the wire.
    fn transmit(&mut self, dst: usize, flight: &Flight) -> Result<(), CommError> {
        // A copy lost past the NIC occupied the link all the same.
        let sent_at = self.clock.stamp(dst, flight.payload.wire_bytes());
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
        if msg.payload.wire_bytes() > 0 {
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
    pub(crate) fn service_ctrl(&mut self) -> Result<(), CommError> {
        for src in 0..self.size {
            if src == self.rank {
                continue;
            }
            while let Some(msg) = self.ctrl_rx[src].try_recv() {
                self.handle_ctrl(src, msg)?;
            }
        }
        Ok(())
    }

    pub(crate) fn handle_ctrl(&mut self, src: usize, msg: Ctrl) -> Result<(), CommError> {
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
    pub(crate) fn retransmit(&mut self, dst: usize, seq: u64) -> Result<(), CommError> {
        let Some(flight) = self.outbox[dst].iter_mut().find(|f| f.seq == seq) else {
            return Ok(());
        };
        flight.attempt += 1;
        // Clone out: `transmit` borrows `self` to stamp the link clock.
        let flight = flight.clone();
        self.recorder.incr(names::COMM_RETRY_RESENDS);
        self.transmit(dst, &flight)
    }

    /// ACK failures are benign (the sender may have finished and torn
    /// down), NACK failures are not (we still need its data).
    fn send_ack(&self, dst: usize, upto: u64) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "ACK failures are benign — the sender may have finished and torn down; NACK timers cover the gap"
        )]
        let _ = self.ctrl_tx[dst].send(Ctrl::Ack { upto });
    }

    fn send_nack(&self, dst: usize, seq: u64) -> Result<(), CommError> {
        self.recorder.incr(names::COMM_RETRY_NACKS_SENT);
        self.ctrl_tx[dst]
            .send(Ctrl::Nack { seq })
            .map_err(|_| self.disconnect_error(dst))
    }

    /// The receiver-driven ARQ loop on physical rank `src`: take the
    /// expected sequence number, verify the envelope CRC, NACK
    /// losses/corruption with exponential backoff, and keep servicing
    /// control traffic so peers' recoveries make progress while we wait.
    /// With `want_membership`, diverted membership frames are *returned*
    /// instead of stashed (the shrink protocol's receive mode — data
    /// payloads still come back and the caller discards them as stale
    /// collective traffic).
    pub(crate) fn recv_arq(
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
        let start = self.clock.now();
        let mut backoff = self.config.retry_initial;
        let mut nack_at = start + backoff;
        let mut nacks = 0u32;
        let deadline = start + self.config.recv_timeout;
        let mode = Mode::Live(|c, p| &c.data_rx[p]);
        self.wait_for(src, collective, deadline, mode, |c, arrived| {
            let mut next = arrived;
            while let Some(msg) = next.take().or_else(|| c.data_rx[src].try_recv()) {
                if let Some(out) = c.accept_data(src, msg, want_membership)? {
                    return Ok(ControlFlow::Break(out));
                }
            }
            if c.clock.now() >= nack_at {
                if nacks >= c.config.max_retries {
                    return Err(CommError::RetriesExhausted {
                        rank: src,
                        collective,
                        attempts: nacks,
                    });
                }
                c.send_nack(src, c.recv_expect[src])?;
                nacks += 1;
                backoff *= 2;
                nack_at = c.clock.now() + backoff;
            }
            Ok(ControlFlow::Continue(Some(nack_at)))
        })
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
        self.clock.deliver(msg.sent_at, msg.payload.wire_bytes());
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
}

#[cfg(test)]
mod tests {
    use crate::fault::{FaultConfig, FaultPlane};
    use crate::group::{run_ranks, run_ranks_with, CommConfig, Payload};
    use std::time::Duration;

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
                    let body = [i.to_le_bytes(), (i * i).to_le_bytes()].concat();
                    comm.send(1, Payload::Bytes(body)).unwrap();
                }
                // Stay alive until the receiver confirms delivery, so
                // late NACKs still find a live sender.
                comm.barrier().unwrap();
                Vec::new()
            } else {
                let got: Vec<u64> = (0..n_msgs)
                    .map(|_| {
                        let body = comm.recv(0).unwrap().try_bytes().unwrap();
                        u64::from_le_bytes(body[..8].try_into().unwrap())
                    })
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
}
