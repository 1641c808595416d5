//! The COMPSO reproduction's step-level scoreboard.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run [--seed N] [--workload W] [--out FILE]
//! ... -- trace [--seed N] [--workload W] [--out FILE]
//! ... -- compare A.json[,A2.json...] B.json[,B2.json...]
//! ... -- selfcheck [--seed N]
//! ... -- --workload W --seed N --seconds S --trace 0|1      (the BENCHMARK.json contract)
//! ```
//!
//! See README.md for the metric glossary and the workloads.

mod gather;
mod harness;
mod json;
mod ledger;
mod metrics;
mod probes;
mod report;
mod surface;
mod train;
mod workloads;

use json::{obj, Json};
use metrics::Metric;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Workload, REFERENCE_SECONDS, WORKLOADS};

const DEFAULT_SEED: u64 = 20_250_301;

/// `benchmark/`, as built: the checkout the binary was compiled in is
/// the only place it writes.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

struct Args {
    seed: u64,
    seconds: f64,
    workload: Option<&'static Workload>,
    out: Option<PathBuf>,
    trace: Option<bool>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: DEFAULT_SEED,
        seconds: REFERENCE_SECONDS as f64,
        workload: None,
        out: None,
        trace: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                parsed.seconds = s;
            }
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload = Some(workloads::find(&name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--trace" => {
                parsed.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            other => parsed.positional.push(other.to_string()),
        }
    }
    Ok(parsed)
}

fn selected(args: &Args) -> Vec<&'static Workload> {
    match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    }
}

/// What one workload's run or trace hands to the reporting code.
struct Outcome {
    title: String,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    json: Json,
}

/// Runs (or traces) one workload, turning a panic (a rank panicked, a
/// probe's expectation broke) into an error so the other workloads still
/// report.
fn execute(w: &'static Workload, args: &Args, traced: bool) -> Result<Outcome, String> {
    let out_dir = out_dir();
    std::panic::catch_unwind(|| {
        if traced {
            let t = ledger::trace(w, args.seed, args.seconds, &out_dir);
            Outcome {
                title: format!("{} (traced, {})", t.workload, t.trace_path.display()),
                json: report::traced_json(&t),
                attempted: t.attempted,
                failed: t.failed,
                failures: t.failures,
                metrics: t.metrics,
            }
        } else {
            let m = workloads::measure(w, args.seed, args.seconds, &out_dir);
            Outcome {
                title: format!(
                    "{} ({} timed steps, {:.1} s timed wall)",
                    m.workload,
                    m.step_ms.len(),
                    m.timed_wall_s
                ),
                json: report::measured_json(&m),
                attempted: m.attempted,
                failed: m.failed,
                failures: m.failures,
                metrics: m.metrics,
            }
        }
    })
    .map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        format!("{}: panicked: {msg}", w.name)
    })
}

fn print_outcome(o: &Outcome) {
    report::print_metrics(&o.title, &o.metrics);
    println!("  ops: {} failed of {} attempted", o.failed, o.attempted);
    for f in &o.failures {
        println!("  FAILED: {f}");
    }
}

/// `run` and `trace`: every selected workload, a result file, a history
/// line. Returns whether every operation succeeded.
fn run_all(args: &Args, traced: bool) -> Result<bool, String> {
    let kind = if traced { "trace" } else { "run" };
    let mut entries = Vec::new();
    let mut all_ok = true;
    for w in selected(args) {
        eprintln!(
            "[{kind}] {} (seed {}, {} s) ...",
            w.name, args.seed, args.seconds
        );
        match execute(w, args, traced) {
            Ok(o) => {
                print_outcome(&o);
                all_ok &= o.failed == 0;
                entries.push((w.name.to_string(), o.json));
            }
            Err(e) => {
                println!("== {}\n  FAILED: {e}", w.name);
                all_ok = false;
                let crashed = obj([
                    ("attempted", Json::from(1u64)),
                    ("failed", Json::from(1u64)),
                    ("failures", Json::Arr(vec![e.as_str().into()])),
                    ("metrics", Json::Obj(Vec::new())),
                ]);
                entries.push((w.name.to_string(), crashed));
            }
        }
    }
    let file = report::result_file(kind, args.seed, args.seconds, entries);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("{kind}_{}.json", args.seed)));
    report::write_result(&path, &file)?;
    report::append_history(&bench_dir().join("history.jsonl"), &file)?;
    println!("result file: {}", path.display());
    Ok(all_ok)
}

/// The `BENCHMARK.json` contract: one workload, one JSON object as the
/// last line of standard output.
fn contract(args: &Args) -> Result<(), String> {
    let w = args.workload.ok_or("--workload is required")?;
    let traced = args.trace.ok_or("--trace is required")?;
    let mut o = execute(w, args, traced)?;
    if !traced {
        // Only the metrics BENCHMARK.json lists (its contract wants
        // metrics that are never 0; the failed share is `failed` below).
        o.metrics.retain(|m| {
            metrics::E2E
                .iter()
                .any(|d| d.name == m.name && d.seed_bound.is_some())
        });
    }
    print_outcome(&o);
    // An end-to-end metric the run could not produce is a failed run; a
    // per-layer row that does not apply to this workload is written 0.
    let missing = !traced && o.metrics.iter().any(|m| m.value.is_none());
    let line = obj([
        ("correct", Json::Bool(o.failed == 0 && !missing)),
        ("attempted", o.attempted.max(1).into()),
        ("failed", o.failed.into()),
        (
            "metrics",
            Json::Obj(
                o.metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            obj([
                                ("value", Json::Num(m.value.unwrap_or(0.0))),
                                ("unit", m.unit.into()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.compact());
    Ok(())
}

/// `BENCHMARK.json`, from the same tables the measurements use.
fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj([
        (
            "command",
            Json::Arr(command.iter().map(|&c| c.into()).collect()),
        ),
        ("paths", Json::Arr(vec!["benchmark".into()])),
        ("run_seconds", REFERENCE_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                metrics::E2E
                    .iter()
                    .filter_map(|d| {
                        d.seed_bound.map(|bound| {
                            obj([
                                ("name", d.name.into()),
                                ("unit", d.unit.into()),
                                ("better", d.better.as_str().into()),
                                ("bound", bound.into()),
                            ])
                        })
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                metrics::PER_LAYER
                    .iter()
                    .map(|d| {
                        obj([
                            ("name", d.name.into()),
                            ("unit", d.unit.into()),
                            ("better", d.better.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The metric tables as markdown, for README.md.
fn glossary() {
    println!("| name | unit | better | bound (same seed) | bound (BENCHMARK.json) | definition |");
    println!("|---|---|---|---|---|---|");
    for d in &metrics::E2E {
        let same = match d.bound {
            metrics::Bound::Exact => "exact".to_string(),
            metrics::Bound::Relative(r) => format!("{r}"),
        };
        let seeds = d.seed_bound.map_or("-".to_string(), |b| format!("{b}"));
        println!(
            "| `{}` | {} | {} | {same} | {seeds} | {} |",
            d.name,
            d.unit,
            d.better.as_str(),
            d.what
        );
    }
    println!();
    println!("| name | unit | better | should move |");
    println!("|---|---|---|---|");
    for d in &metrics::PER_LAYER {
        println!(
            "| `{}` | {} | {} | {} |",
            d.name,
            d.unit,
            d.better.as_str(),
            d.moves
        );
    }
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(first) if !first.starts_with("--") => (first, &argv[1..]),
        _ => ("contract", &argv[..]),
    };
    let args = parse_args(rest)?;
    match command {
        "compare" => {
            let [a, b] = args.positional.as_slice() else {
                return Err("compare takes two result files (or comma-separated lists)".into());
            };
            return report::compare(a, b);
        }
        "manifest" => {
            print!("{}", manifest().pretty());
            return Ok(true);
        }
        "glossary" => {
            glossary();
            return Ok(true);
        }
        "run" | "trace" | "selfcheck" | "contract" => {}
        other => {
            return Err(format!(
            "unknown command {other:?}; one of run, trace, compare, selfcheck, manifest, glossary"
        ))
        }
    }
    if !args.positional.is_empty() {
        return Err(format!("unexpected argument {:?}", args.positional[0]));
    }
    harness::claim_thread_budget()?;
    match command {
        "run" => run_all(&args, false),
        "trace" => run_all(&args, true),
        "selfcheck" => Ok(report::selfcheck(args.seed, &out_dir())),
        _ => contract(&args).map(|()| true),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("compso-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
