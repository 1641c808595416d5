//! Result files, the history line, `compare` and `selfcheck`.

use crate::harness::{nproc, quantile, RANKS, WORKERS_PER_RANK};
use crate::json::{obj, Json};
use crate::ledger::Traced;
use crate::metrics::{judge, metrics_json, Bound, Metric, Verdict, E2E};
use crate::workloads::{self, Measured, REFERENCE_SECONDS};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Host facts and the thread budget, written into every result file.
pub fn host_json() -> Json {
    obj([
        ("nproc", nproc().into()),
        ("ranks", RANKS.into()),
        ("rayon_workers", WORKERS_PER_RANK.into()),
        ("rustc", command_line("rustc", &["--version"]).into()),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).into(),
        ),
    ])
}

pub fn measured_json(m: &Measured) -> Json {
    obj([
        ("steps", m.steps.into()),
        ("warmup_steps", m.warmup_steps.into()),
        ("timed_wall_s", m.timed_wall_s.into()),
        ("quiet_wall_s", m.quiet_wall_s.into()),
        ("step_samples", m.step_ms.len().into()),
        (
            "setup_samples_s",
            Json::Arr(m.setup_samples_s.iter().map(|&s| s.into()).collect()),
        ),
        (
            "eval_curve",
            Json::Arr(
                m.evals
                    .iter()
                    .map(|&(step, loss)| Json::Arr(vec![step.into(), loss.into()]))
                    .collect(),
            ),
        ),
        ("attempted", m.attempted.into()),
        ("failed", m.failed.into()),
        (
            "failures",
            Json::Arr(m.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
        ("metrics", metrics_json(&m.metrics)),
        (
            "step_ms_quantiles",
            obj([0.02, 0.25, 0.50, 0.75, 0.98].map(|q| {
                (
                    format!("p{:02.0}", q * 100.0),
                    Json::from(quantile(&m.step_ms, q)),
                )
            })),
        ),
        (
            // One row per kind: phase, save, conservative, samples,
            // quiet_ms, median_ms.
            "step_kinds",
            Json::Arr(
                m.kind_costs
                    .iter()
                    .map(|(kind, c)| {
                        Json::Arr(vec![
                            kind.phase.into(),
                            Json::Bool(kind.save),
                            Json::Bool(kind.conservative),
                            c.samples.into(),
                            c.quiet_ms.into(),
                            c.median_ms.into(),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub fn traced_json(t: &Traced) -> Json {
    obj([
        ("steps", t.steps.into()),
        ("attempted", t.attempted.into()),
        ("failed", t.failed.into()),
        (
            "failures",
            Json::Arr(t.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
        ("trace_file", t.trace_path.display().to_string().into()),
        ("metrics", metrics_json(&t.metrics)),
    ])
}

/// A whole result file: `kind` is `"run"` or `"trace"`.
pub fn result_file(kind: &str, seed: u64, seconds: f64, workloads: Vec<(String, Json)>) -> Json {
    obj([
        ("kind", kind.into()),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("reference_seconds", REFERENCE_SECONDS.into()),
        ("host", host_json()),
        ("workloads", Json::Obj(workloads)),
    ])
}

pub fn write_result(path: &Path, file: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Appends the result as one line: the trajectory across PRs, never
/// overwritten.
pub fn append_history(path: &Path, file: &Json) -> Result<(), String> {
    let when = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut line = vec![("unix_time".to_string(), Json::from(when))];
    line.extend(file.as_obj().unwrap_or(&[]).iter().cloned());
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{}", Json::Obj(line).compact()).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("== {title}");
    for m in metrics {
        println!("  {}", m.show());
    }
}

/// `samples[workload][metric]` from one or more result files.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_samples(paths: &str) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for path in paths.split(',') {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let workloads = file
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{path}: no \"workloads\" object"))?;
        for (name, w) in workloads {
            let metrics = w
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{path}: {name}: no \"metrics\" object"))?;
            for (metric, m) in metrics {
                // "n/a" rows carry a string and are skipped.
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    samples
                        .entry(name.clone())
                        .or_default()
                        .entry(metric.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(samples)
}

/// Applies each end-to-end metric's direction and bound to two sets of
/// result files (comma-separated lists). `Ok(true)`: nothing regressed.
pub fn compare(baseline: &str, candidate: &str) -> Result<bool, String> {
    let base = load_samples(baseline)?;
    let cand = load_samples(candidate)?;
    let empty = BTreeMap::new();
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "baseline", "candidate", "bound"
    );
    for w in &workloads::WORKLOADS {
        let (b, c) = (
            base.get(w.name).unwrap_or(&empty),
            cand.get(w.name).unwrap_or(&empty),
        );
        for def in &E2E {
            let none = Vec::new();
            let (bs, cs) = (
                b.get(def.name).unwrap_or(&none),
                c.get(def.name).unwrap_or(&none),
            );
            let verdict = judge(def, bs, cs);
            let label = match verdict {
                Verdict::Unchanged => "unchanged",
                Verdict::Improved => "improved",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
                Verdict::NotApplicable => "n/a",
            };
            *counts.entry(label).or_default() += 1;
            let show = |v: &[f64]| {
                if v.is_empty() {
                    "n/a".to_string()
                } else {
                    format!("{:.6}", crate::harness::median(v))
                }
            };
            let bound = match def.bound {
                Bound::Exact => "exact".to_string(),
                Bound::Relative(r) => format!("{r}"),
            };
            println!(
                "{:<18} {:<22} {:>14} {:>14} {:>9}  {label}",
                w.name,
                def.name,
                show(bs),
                show(cs),
                bound
            );
        }
    }
    let summary: Vec<String> = counts.iter().map(|(k, v)| format!("{v} {k}")).collect();
    println!("{}", summary.join(", "));
    Ok(counts.get("REGRESSED").copied().unwrap_or(0) == 0)
}

/// Runs every workload twice at a tenth of its steps and requires every
/// exact metric and `final_eval_loss` to repeat bit for bit.
pub fn selfcheck(seed: u64, out_dir: &Path) -> bool {
    let seconds = REFERENCE_SECONDS as f64 / 10.0;
    let mut ok = true;
    for w in &workloads::WORKLOADS {
        let runs: Vec<Measured> = (0..2)
            .map(|_| {
                let steps = w.steps_for(seconds);
                let pass = w.pass(seed, steps, steps, false, out_dir);
                workloads::summarize(w, steps, vec![pass.setup_s], &pass)
            })
            .collect();
        for def in &E2E {
            if def.bound != Bound::Exact && def.name != "final_eval_loss" {
                continue;
            }
            let value = |m: &Measured| {
                m.metrics
                    .iter()
                    .find(|x| x.name == def.name)
                    .and_then(|x| x.value)
            };
            let (a, b) = (value(&runs[0]), value(&runs[1]));
            let same = a.map(f64::to_bits) == b.map(f64::to_bits);
            println!(
                "{:<18} {:<22} {:>18} {:>18}  {}",
                w.name,
                def.name,
                a.map_or("n/a".into(), |v| format!("{v}")),
                b.map_or("n/a".into(), |v| format!("{v}")),
                if same { "same" } else { "DIFFERENT" }
            );
            ok &= same;
        }
    }
    ok
}
