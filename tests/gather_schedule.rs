//! The send-ahead schedule of `pipelined_allgather`, through the public
//! API the training step uses: the callback order a caller may rely on,
//! the modeled wire the schedule runs ahead on, and the elastic contract —
//! a gather abandoned mid-ring leaves nothing behind for its retry. (The
//! equivalence with the slot-synchronous loop it replaced is pinned next
//! to the code, in `crates/comm/src/collectives.rs`.)

use compso::comm::collectives::pipelined_allgather;
use compso::comm::{
    run_ranks, run_ranks_elastic, run_ranks_with, CommConfig, CommError, Communicator, FaultConfig,
    FaultPlane,
};
use compso::obs::{names, Recorder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// `(origin, group, bytes)` in the order `deliver` saw them.
type Delivered = Vec<(usize, usize, Vec<u8>)>;

/// The block virtual rank `origin` contributes as its `g`-th group:
/// `tag` (the membership epoch it was produced in) then a body that
/// depends on the pair alone.
fn block(tag: u8, origin: usize, g: usize) -> Vec<u8> {
    let body = (0..40 + 7 * origin + 3 * g).map(|i| (i * 31 + origin * 5 + g) as u8);
    std::iter::once(tag).chain(body).collect()
}

/// One interleaved callback log entry.
#[derive(Debug, PartialEq)]
enum Call {
    Produce(usize),
    Deliver(usize, usize),
}

#[test]
fn compress_and_decode_run_in_link_order_and_two_ranks_decode_last() {
    // What `DistKfac::gather` and the benchmark lean on: `produce` runs
    // 0..own groups; `deliver` walks the ring slot by slot, nearest left
    // origin first; and at two ranks — the benchmark's — it starts only
    // after the last `produce`.
    for groups in [vec![3usize, 3], vec![5, 2], vec![4, 1, 2], vec![0, 5, 2, 1]] {
        let p = groups.len();
        let groups_ref = &groups;
        let logs = run_ranks(p, move |comm| {
            let me = comm.rank();
            let log = std::cell::RefCell::new(Vec::new());
            pipelined_allgather(
                comm,
                groups_ref,
                |g| {
                    log.borrow_mut().push(Call::Produce(g));
                    block(0, me, g)
                },
                |origin, g, bytes| {
                    assert_eq!(bytes, block(0, origin, g));
                    log.borrow_mut().push(Call::Deliver(origin, g));
                },
            )
            .unwrap();
            log.into_inner()
        });
        for (me, log) in logs.iter().enumerate() {
            let (produced, delivered): (Vec<_>, Vec<_>) =
                log.iter().partition(|c| matches!(c, Call::Produce(_)));
            let want: Vec<Call> = (0..groups[me]).map(Call::Produce).collect();
            assert_eq!(produced, want.iter().collect::<Vec<_>>(), "rank {me}");
            let mut want = Vec::new();
            for slot in 0..*groups.iter().max().unwrap() {
                for hop in 1..p {
                    let origin = (me + p - hop) % p;
                    if slot < groups[origin] {
                        want.push(Call::Deliver(origin, slot));
                    }
                }
            }
            assert_eq!(delivered, want.iter().collect::<Vec<_>>(), "rank {me}");
            if p == 2 {
                assert_eq!(log.len(), produced.len() + delivered.len());
                assert!(
                    log[..produced.len()]
                        .iter()
                        .all(|c| matches!(c, Call::Produce(_))),
                    "groups {groups:?} rank {me}: {log:?}"
                );
            }
        }
    }
}

#[test]
fn a_forward_queues_behind_the_own_block_on_its_link() {
    // Ranks 0 and 1 own two 256 KB blocks each, rank 2 none: the link
    // 1 → 2 carries rank 1's blocks *and* the forwards of rank 0's, four
    // messages one at a time, so the gather cannot end sooner than their
    // 4 × 5.24 ms after its start however far ahead of the wire rank 1
    // runs (a link that drains its messages concurrently ends in ≈ 2).
    let config = CommConfig {
        modeled_wire_mbps: Some(50.0),
        ..CommConfig::default()
    };
    let spans = run_ranks_with(3, FaultPlane::disabled(), config, |comm| {
        let t0 = Instant::now();
        let mut got = 0usize;
        pipelined_allgather(
            comm,
            &[2, 2, 0],
            |_| vec![0u8; 1 << 18],
            |_, _, bytes| got += bytes.len(),
        )
        .unwrap();
        (t0, Instant::now(), got, comm.sent_bytes())
    });
    assert_eq!(
        spans.iter().map(|s| s.2).collect::<Vec<_>>(),
        [2 << 18, 2 << 18, 4 << 18]
    );
    assert_eq!(
        spans[1].3,
        4 << 18,
        "rank 1 sends its own two and relays two"
    );
    let floor = Duration::from_secs_f64((4 << 18) as f64 / 50e6);
    let start = spans.iter().map(|s| s.0).min().unwrap();
    assert!(
        spans[2].1 - start >= floor,
        "1 MB crossed a 50 MB/s link in {:?}",
        spans[2].1 - start
    );
}

/// Gathers three groups per live rank, shrinking the view and retrying
/// whenever a peer is lost. Returns the committed step's deliveries, and
/// per abandoned attempt `(error, blocks pulled off the link, blocks
/// delivered)`.
fn gather_with_retry(
    comm: &mut Communicator,
    dies_in_produce: Option<usize>,
) -> (Delivered, Vec<(CommError, u64, usize)>) {
    let rec = Recorder::enabled();
    comm.set_recorder(rec.clone());
    let mut abandoned = Vec::new();
    loop {
        let (me, tag) = (comm.rank(), comm.epoch() as u8);
        let groups = vec![3usize; comm.size()];
        let pulled_before = rec
            .snapshot()
            .timers
            .get(names::COMM_PIPELINE_WAIT)
            .map_or(0, |t| t.count);
        let mut delivered = Delivered::new();
        let outcome = pipelined_allgather(
            comm,
            &groups,
            |g| {
                assert!(dies_in_produce != Some(g), "injected: rank dies mid-gather");
                block(tag, me, g)
            },
            |origin, g, bytes| {
                assert_eq!(
                    bytes[0], tag,
                    "a block of an abandoned attempt was delivered"
                );
                delivered.push((origin, g, bytes[1..].to_vec()));
            },
        );
        match outcome {
            Ok(()) => return (delivered, abandoned),
            Err(e) => {
                let pulled = rec.snapshot().timers[names::COMM_PIPELINE_WAIT].count - pulled_before;
                abandoned.push((e.clone(), pulled, delivered.len()));
                let culprit = e
                    .culprit()
                    .expect("a transport error names the failed rank");
                comm.shrink(vec![culprit])
                    .expect("survivors agree a shrink");
                comm.resync_view()
                    .expect("survivors flush the abandoned step");
            }
        }
    }
}

#[test]
fn a_peer_dying_mid_gather_fails_the_step_everywhere_and_the_retry_starts_clean() {
    // Rank 2 dies inside `produce(1)` of the second step: its first block
    // is already on the ring, so rank 0 has relayed it — and rank 1 has
    // pulled three — when the receive that depends on the dead rank
    // fails. Both survivors must fail that step with every pulled block
    // handed over once and none held, and gather the retry on the
    // two-rank view exactly as a two-rank group that never saw a failure
    // does (`deliver` refuses a block that carries another attempt's tag).
    let plane = FaultPlane::new(FaultConfig {
        seed: 23,
        ..FaultConfig::default()
    });
    let config = CommConfig {
        recv_timeout: Duration::from_secs(10),
        ..CommConfig::default()
    };
    let survivors_done = AtomicUsize::new(0);
    let results = run_ranks_elastic(3, plane, config, |comm, revived| {
        if revived {
            // The dead rank stays out of the view, its channels parked
            // (a crashed process, not a closed socket) until the
            // survivors are through.
            let give_up = Instant::now() + Duration::from_secs(30);
            while survivors_done.load(Ordering::Acquire) < 2 && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(1));
            }
            return Vec::new();
        }
        let steps = (0..3)
            .map(|step| {
                comm.begin_step();
                let dies = (comm.phys_rank() == 2 && step == 1).then_some(1);
                gather_with_retry(comm, dies)
            })
            .collect();
        survivors_done.fetch_add(1, Ordering::Release);
        steps
    });
    let reference = run_ranks(2, |comm| gather_with_retry(comm, None).0);

    for phys in 0..2 {
        let steps = results[phys].as_ref().expect("survivors finish");
        let tag = format!("survivor {phys}");
        // Step 0 ran on the whole view: six foreign blocks, no retry.
        assert_eq!(steps[0].0.len(), 6, "{tag}");
        assert!(steps[0].1.is_empty(), "{tag}");
        // Step 1 was abandoned once, by both, blaming the dead rank, with
        // blocks pulled off the link and none of them left held.
        let (retry, abandoned) = &steps[1];
        assert_eq!(abandoned.len(), 1, "{tag}: {abandoned:?}");
        let (error, pulled, delivered) = &abandoned[0];
        assert!(
            matches!(
                error,
                CommError::Poisoned { rank: 2 } | CommError::Timeout { rank: 2, .. }
            ),
            "{tag}: {error:?}"
        );
        assert!(
            *pulled >= 1,
            "{tag}: the step failed before its ring started"
        );
        assert_eq!(
            *delivered as u64, *pulled,
            "{tag}: a block was held when the step failed"
        );
        // The retry and the step after it are the uninterrupted two-rank
        // gather, block for block, each block once.
        assert_eq!(retry, &reference[phys], "{tag}");
        assert_eq!(steps[2].0, reference[phys], "{tag}");
        assert!(steps[2].1.is_empty(), "{tag}");
    }
}
