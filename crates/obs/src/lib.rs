//! # compso-obs
//!
//! Step-level observability for the COMPSO reproduction.
//!
//! The paper's contribution is a *performance model* (§5, Fig. 1) that
//! predicts where iteration time goes in compressed distributed K-FAC.
//! This crate provides the measured side of that story: a lightweight,
//! thread-safe instrumentation registry with
//!
//! * **span timers** — wall-time accumulation per named phase, RAII guards
//!   safe to hold across rayon worker threads and per-rank collective
//!   threads;
//! * **monotonic counters** — bytes in/out for live compression ratios,
//!   message counts;
//! * **log2-bucket histograms** — message-size and span-duration
//!   distributions without unbounded memory.
//!
//! A [`Recorder`] is either *enabled* (backed by a shared atomic registry)
//! or *disabled* (a `None`, making every call a branch on an `Option` —
//! near-zero overhead on hot paths). Hot-path layers accept a `&Recorder`
//! and default to disabled, so uninstrumented callers pay almost nothing.
//!
//! [`Snapshot`]s are point-in-time copies that can be diffed (per-step
//! deltas) and merged (across ranks), and [`StepReport`] renders a
//! snapshot as the per-step JSON document the `obs_report` bench bin
//! compares against [`IterationModel::breakdown`] predictions.
//!
//! [`IterationModel::breakdown`]: ../compso_sim/timing/struct.IterationModel.html

pub mod json;
pub mod names;
mod report;
mod snapshot;

pub use report::{StepReport, STEP_PHASES};
pub use snapshot::{HistStat, Snapshot, TimerStat};

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Number of log2 histogram buckets: bucket `i` holds values whose
/// bit-length is `i` (bucket 0 is exactly zero, bucket 64 is `u64::MAX`
/// territory).
pub(crate) const HIST_BUCKETS: usize = 65;

/// Log2 bucket index of a value (0 for 0, else `64 - leading_zeros`).
#[inline]
pub(crate) fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

#[derive(Default)]
struct TimerCell {
    total_ns: AtomicU64,
    count: AtomicU64,
}

struct HistCell {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistCell {
    fn default() -> Self {
        HistCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The shared metric store behind an enabled [`Recorder`].
///
/// Lookup takes a read lock on the name→cell map; updates are plain
/// relaxed atomic adds, so concurrent increments from worker threads are
/// lossless and nearly contention-free once a cell exists.
#[derive(Default)]
struct Registry {
    counters: RwLock<HashMap<&'static str, Arc<AtomicU64>>>,
    timers: RwLock<HashMap<&'static str, Arc<TimerCell>>>,
    hists: RwLock<HashMap<&'static str, Arc<HistCell>>>,
}

fn cell<T: Default>(map: &RwLock<HashMap<&'static str, Arc<T>>>, name: &'static str) -> Arc<T> {
    if let Some(c) = map.read().expect("obs registry poisoned").get(name) {
        return Arc::clone(c);
    }
    let mut w = map.write().expect("obs registry poisoned");
    Arc::clone(w.entry(name).or_default())
}

/// Handle to the instrumentation registry.
///
/// Cloning is cheap (an `Arc` bump) and clones share the same metrics.
/// [`Recorder::disabled`] produces a no-op handle whose every operation is
/// a single `Option` branch with **no side effects** — safe to leave in
/// release hot paths.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Registry>>,
}

impl Recorder {
    /// A live recorder backed by a fresh registry.
    pub fn enabled() -> Self {
        Recorder {
            inner: Some(Arc::new(Registry::default())),
        }
    }

    /// The no-op recorder (also the `Default`).
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to the monotonic counter `name`.
    #[inline]
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(reg) = &self.inner {
            cell(&reg.counters, name).fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Increments the counter `name` by one.
    #[inline]
    pub fn incr(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Records `value` into the log2 histogram `name`.
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(reg) = &self.inner {
            let h = cell(&reg.hists, name);
            h.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Opens a wall-time span; the elapsed time lands in timer `name` when
    /// the returned guard drops. Spans may nest freely (each records its
    /// own wall time, so a parent's total covers its children's).
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard {
            live: self
                .inner
                .as_ref()
                .map(|reg| (cell(&reg.timers, name), Instant::now())),
        }
    }

    /// Current value of counter `name` (0 when absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|reg| {
                reg.counters
                    .read()
                    .expect("obs registry poisoned")
                    .get(name)
                    .map(|c| c.load(Ordering::Relaxed))
            })
            .unwrap_or(0)
    }

    /// Point-in-time copy of every metric. Disabled recorders yield an
    /// empty snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        let Some(reg) = &self.inner else {
            return snap;
        };
        for (name, c) in reg.counters.read().expect("obs registry poisoned").iter() {
            snap.counters
                .insert((*name).to_string(), c.load(Ordering::Relaxed));
        }
        for (name, t) in reg.timers.read().expect("obs registry poisoned").iter() {
            snap.timers.insert(
                (*name).to_string(),
                TimerStat {
                    total_ns: t.total_ns.load(Ordering::Relaxed),
                    count: t.count.load(Ordering::Relaxed),
                },
            );
        }
        for (name, h) in reg.hists.read().expect("obs registry poisoned").iter() {
            snap.hists.insert(
                (*name).to_string(),
                HistStat {
                    count: h.count.load(Ordering::Relaxed),
                    sum: h.sum.load(Ordering::Relaxed),
                    buckets: h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                },
            );
        }
        snap
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// RAII guard produced by [`Recorder::span`].
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct SpanGuard {
    live: Option<(Arc<TimerCell>, Instant)>,
}

impl SpanGuard {
    /// Ends the span without recording it: for an attempt that failed
    /// and should not count as one.
    pub fn discard(mut self) {
        self.live = None;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((cell, start)) = self.live.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            cell.total_ns.fetch_add(ns, Ordering::Relaxed);
            cell.count.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Test helpers: timers set and read without a clock.
#[cfg(test)]
impl Recorder {
    /// Adds a pre-measured duration to timer `name`.
    pub(crate) fn add_time_ns(&self, name: &'static str, ns: u64) {
        if let Some(reg) = &self.inner {
            let t = cell(&reg.timers, name);
            t.total_ns.fetch_add(ns, Ordering::Relaxed);
            t.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accumulated nanoseconds of timer `name` (0 when absent/disabled).
    pub(crate) fn timer_ns(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|reg| {
                reg.timers
                    .read()
                    .expect("obs registry poisoned")
                    .get(name)
                    .map(|t| t.total_ns.load(Ordering::Relaxed))
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 1..HIST_BUCKETS {
            assert_eq!(bucket_of(1u64 << (b - 1)), b, "floor of bucket {b}");
        }
    }

    #[test]
    fn counters_accumulate() {
        let rec = Recorder::enabled();
        rec.add("x", 3);
        rec.incr("x");
        rec.add("y", 10);
        assert_eq!(rec.counter("x"), 4);
        assert_eq!(rec.counter("y"), 10);
        assert_eq!(rec.counter("absent"), 0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        rec.add("x", 3);
        rec.observe("h", 100);
        {
            let _g = rec.span("s");
        }
        rec.add_time_ns("t", 5);
        assert!(!rec.is_enabled());
        assert_eq!(rec.counter("x"), 0);
        assert_eq!(rec.timer_ns("s"), 0);
        let snap = rec.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.timers.is_empty());
        assert!(snap.hists.is_empty());
    }

    #[test]
    fn a_discarded_span_records_nothing() {
        let rec = Recorder::enabled();
        rec.span("s").discard();
        assert_eq!(rec.timer_ns("s"), 0);
        drop(rec.span("s"));
        assert_eq!(rec.snapshot().timers["s"].count, 1);
    }

    #[test]
    fn spans_measure_time() {
        let rec = Recorder::enabled();
        {
            let _g = rec.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(
            rec.timer_ns("outer") >= 1_000_000,
            "{}",
            rec.timer_ns("outer")
        );
        let snap = rec.snapshot();
        assert_eq!(snap.timers["outer"].count, 1);
    }

    #[test]
    fn nested_spans_parent_covers_children() {
        let rec = Recorder::enabled();
        {
            let _parent = rec.span("parent");
            for _ in 0..3 {
                let _child = rec.span("child");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let parent = rec.timer_ns("parent");
        let child = rec.timer_ns("child");
        assert!(parent >= child, "parent {parent} < children {child}");
        assert_eq!(rec.snapshot().timers["child"].count, 3);
    }

    #[test]
    fn clones_share_the_registry() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        clone.add("shared", 7);
        assert_eq!(rec.counter("shared"), 7);
    }

    #[test]
    fn histograms_bucket_correctly() {
        let rec = Recorder::enabled();
        for v in [0u64, 1, 1, 5, 5, 5, 1024] {
            rec.observe("h", v);
        }
        let snap = rec.snapshot();
        let h = &snap.hists["h"];
        assert_eq!(h.count, 7);
        assert_eq!(h.sum, 1 + 1 + 5 * 3 + 1024);
        assert_eq!(h.buckets[bucket_of(0)], 1);
        assert_eq!(h.buckets[bucket_of(1)], 2);
        assert_eq!(h.buckets[bucket_of(5)], 3);
        assert_eq!(h.buckets[bucket_of(1024)], 1);
    }

    #[test]
    fn concurrent_updates_from_threads_are_lossless() {
        let rec = Recorder::enabled();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let rec = rec.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        rec.add("n", 1);
                        rec.observe("h", i % 17);
                        rec.add_time_ns("t", 3);
                    }
                });
            }
        });
        assert_eq!(rec.counter("n"), threads * per_thread);
        let snap = rec.snapshot();
        assert_eq!(snap.hists["h"].count, threads * per_thread);
        assert_eq!(
            snap.hists["h"].buckets.iter().sum::<u64>(),
            threads * per_thread
        );
        assert_eq!(snap.timers["t"].total_ns, threads * per_thread * 3);
        assert_eq!(snap.timers["t"].count, threads * per_thread);
    }

    #[test]
    fn concurrent_updates_from_rayon_workers_are_lossless() {
        use rayon::prelude::*;
        let rec = Recorder::enabled();
        let items: Vec<u64> = (0..50_000).collect();
        let total: u64 = items
            .par_chunks(512)
            .map(|chunk| {
                let _g = rec.span("worker");
                let mut s = 0u64;
                for &v in chunk {
                    rec.incr("seen");
                    rec.observe("values", v);
                    s += v;
                }
                s
            })
            .sum();
        assert_eq!(total, 50_000 * 49_999 / 2);
        assert_eq!(rec.counter("seen"), 50_000);
        let snap = rec.snapshot();
        assert_eq!(snap.hists["values"].count, 50_000);
        assert_eq!(snap.timers["worker"].count, 50_000_u64.div_ceil(512));
    }
}
