//! Point-in-time metric snapshots: diffable (per-step deltas) and
//! mergeable (across ranks).

use std::collections::BTreeMap;

/// Accumulated state of one span timer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimerStat {
    /// Total recorded wall time, nanoseconds.
    pub total_ns: u64,
    /// Number of completed spans.
    pub count: u64,
}

impl TimerStat {
    /// Total in seconds.
    pub fn seconds(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// Accumulated state of one log2 histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistStat {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket observation counts (see `crate::bucket_of`).
    pub buckets: Vec<u64>,
}

impl HistStat {}

/// A copy of every metric at one instant, keyed by metric name.
///
/// `BTreeMap` keys make iteration (and therefore JSON output) stable and
/// deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Span timers.
    pub timers: BTreeMap<String, TimerStat>,
    /// Log2 histograms.
    pub hists: BTreeMap<String, HistStat>,
}

impl Snapshot {
    /// Element-wise `self - earlier`, saturating at zero — the per-step
    /// delta between two cumulative snapshots.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (k, &v) in &self.counters {
            let prev = earlier.counters.get(k).copied().unwrap_or(0);
            out.counters.insert(k.clone(), v.saturating_sub(prev));
        }
        for (k, t) in &self.timers {
            let prev = earlier.timers.get(k).copied().unwrap_or_default();
            out.timers.insert(
                k.clone(),
                TimerStat {
                    total_ns: t.total_ns.saturating_sub(prev.total_ns),
                    count: t.count.saturating_sub(prev.count),
                },
            );
        }
        for (k, h) in &self.hists {
            let prev = earlier.hists.get(k);
            let buckets = h
                .buckets
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    b.saturating_sub(prev.and_then(|p| p.buckets.get(i)).copied().unwrap_or(0))
                })
                .collect();
            out.hists.insert(
                k.clone(),
                HistStat {
                    count: h.count.saturating_sub(prev.map_or(0, |p| p.count)),
                    sum: h.sum.saturating_sub(prev.map_or(0, |p| p.sum)),
                    buckets,
                },
            );
        }
        out
    }

    /// Seconds accumulated in timer `name` (0 when absent).
    pub fn timer_seconds(&self, name: &str) -> f64 {
        self.timers.get(name).map_or(0.0, TimerStat::seconds)
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(c: u64, ns: u64) -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("c".into(), c);
        s.timers.insert(
            "t".into(),
            TimerStat {
                total_ns: ns,
                count: 1,
            },
        );
        s
    }

    #[test]
    fn delta_subtracts() {
        let a = snap(10, 100);
        let b = snap(25, 400);
        let d = b.delta_since(&a);
        assert_eq!(d.counter("c"), 15);
        assert_eq!(d.timers["t"].total_ns, 300);
    }

    #[test]
    fn delta_handles_missing_keys() {
        let d = snap(5, 50).delta_since(&Snapshot::default());
        assert_eq!(d.counter("c"), 5);
        assert_eq!(d.timer_seconds("t"), 50e-9);
    }
}
