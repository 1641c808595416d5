//! Measurement plumbing shared by every workload: the thread budget,
//! order statistics, digests, seed derivation and benchmark-owned spans.

use crate::json::{obj, Json};
use crate::surface::{CommConfig, Recorder};
use std::time::{Duration, Instant};

/// Rank threads per workload. Two is what this host's two cores can run
/// without time-slicing; the budget check below refuses anything else.
pub const RANKS: usize = 2;
/// Rayon-shim workers each rank may fan out to.
pub const WORKERS_PER_RANK: usize = 1;

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pins the rayon shim to [`WORKERS_PER_RANK`] and refuses a
/// configuration whose runnable threads exceed the cores: with ranks
/// time-sliced, a step's wall measures the scheduler, not the program.
/// Must run before any thread starts (it sets an environment variable).
pub fn claim_thread_budget() -> Result<(), String> {
    let need = RANKS * WORKERS_PER_RANK;
    let have = nproc();
    if need > have {
        return Err(format!(
            "thread budget: {RANKS} ranks x {WORKERS_PER_RANK} workers = {need} runnable threads \
             but only {have} core(s); refusing to time-slice ranks"
        ));
    }
    std::env::set_var("RAYON_NUM_THREADS", WORKERS_PER_RANK.to_string());
    Ok(())
}

/// The transport every workload and probe runs on: the default ARQ
/// knobs, a receive deadline short enough that a hung peer fails the
/// run well inside the driver's limit, and the workload's modeled wire.
pub fn comm_config(wire_mbps: Option<f64>) -> CommConfig {
    CommConfig {
        recv_timeout: Duration::from_secs(20),
        modeled_wire_mbps: wire_mbps,
        ..CommConfig::default()
    }
}

/// The program's own instrumentation: live in the traced run only.
pub fn recorder(traced: bool) -> Recorder {
    if traced {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    }
}

/// Relative L2 error `‖got − want‖ / ‖want‖`, accumulated over layers.
#[derive(Default)]
pub struct RelError {
    err: f64,
    norm: f64,
}

impl RelError {
    pub fn add(&mut self, want: &[f32], got: &[f32]) {
        for (x, y) in want.iter().zip(got) {
            self.err += f64::from(x - y).powi(2);
            self.norm += f64::from(*x).powi(2);
        }
    }

    pub fn value(&self) -> f64 {
        (self.err / self.norm.max(f64::MIN_POSITIVE)).sqrt()
    }
}

/// SplitMix64 step: every seed a workload uses is `derive(--seed, tag)`.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a-style fold over the bit patterns of `values` (one word per
/// multiply: 2 Mi values digest in a couple of milliseconds), continuing
/// from `state`.
pub fn digest_f32(state: u64, values: &[f32]) -> u64 {
    values.iter().fold(state, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const DIGEST_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// The `q`-quantile (0..=1) by linear interpolation; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Runs `f` `reps` times and returns the fastest wall in seconds — the
/// probes' estimator: interference only ever adds time.
pub fn min_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// One benchmark-owned span: a call the harness itself made into a
/// layer. `step` is the identifier the spans of one training step share;
/// `parent` names the enclosing span (`"step"` for the phase spans).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub rank: u32,
    pub step: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn to_json(self) -> Json {
        obj([
            ("name", self.name.into()),
            ("parent", self.parent.map_or(Json::Null, Json::from)),
            ("rank", u64::from(self.rank).into()),
            ("step", u64::from(self.step).into()),
            ("start_us", Json::Num(self.start_ns as f64 / 1e3)),
            ("end_us", Json::Num(self.end_ns as f64 / 1e3)),
        ])
    }
}

/// Per-rank span sink. Off in the untraced run, where [`Tracer::time`]
/// just calls through.
pub struct Tracer {
    epoch: Instant,
    rank: u32,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn new(epoch: Instant, rank: usize, on: bool) -> Self {
        Tracer {
            epoch,
            rank: rank as u32,
            spans: on.then(Vec::new),
        }
    }

    /// Times `f` as a child of the step span when tracing is on.
    pub fn time<T>(&mut self, name: &'static str, step: usize, f: impl FnOnce() -> T) -> T {
        if self.spans.is_none() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, Some("step"), step, start, Instant::now());
        out
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        step: usize,
        start: Instant,
        end: Instant,
    ) {
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                name,
                parent,
                rank: self.rank,
                step: step as u32,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            });
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Milliseconds of every span called `name` among `spans` that `keep`
/// accepts.
pub fn span_ms(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && keep(s))
        .map(Span::ms)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn derived_seeds_differ_by_tag_and_seed() {
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
        assert_eq!(derive(7, 3), derive(7, 3));
    }
}
