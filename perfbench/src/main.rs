//! The hetsched benchmark: one command, three workloads, end-to-end
//! metrics by default and per-layer metrics with `--trace 1`.
//!
//! ```text
//! perfbench --workload <paper-grid|fleet-unique|fleet-repeat> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines go to stdout first; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Inputs
//! derive from `--seed` alone, every output is checked against the direct
//! library call, and the program under test runs in this process, so its
//! peak resident memory is this process's.

mod fleet;
mod grid;
mod layers;
mod poll;
mod problems;
mod stats;
mod traffic;

use std::process::ExitCode;
use std::time::Duration;

use serde_json::{json, Map, Value};

use crate::stats::Tail;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Samples a run must collect so its p99 has [`stats::MIN_BEYOND`]
/// samples beyond it.
pub const MIN_TAIL_SAMPLES: usize = 100 * stats::MIN_BEYOND;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A measurement.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result of one run.
pub struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    /// Why the run cannot report, if it cannot.
    invalid: Option<String>,
}

impl Report {
    /// A report over `attempted` ops of which `failed` were not answered
    /// correctly; `correct` is false when any output mismatched.
    pub fn new(attempted: usize, failed: usize, correct: bool) -> Report {
        Report {
            correct,
            attempted,
            failed,
            metrics: Vec::new(),
            notes: Vec::new(),
            invalid: None,
        }
    }

    /// Add a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Add a metric.
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Add a metric list.
    pub fn extend(&mut self, ms: impl IntoIterator<Item = Metric>) {
        self.metrics.extend(ms);
    }

    /// Add a tail percentile in ms, noting its sample count; a missing
    /// tail (too few samples beyond it) invalidates the run.
    pub fn push_tail(&mut self, name: &str, t: Option<Tail>) {
        match t {
            Some(t) => {
                self.note(format!(
                    "{name}: {:.4} ms, the median of {} time windows' tails; that window has {} samples, {} beyond it",
                    t.value, t.windows, t.samples, t.beyond
                ));
                self.push(Metric::new(name, t.value, "ms"));
            }
            None => {
                self.invalid = Some(format!(
                    "{name}: fewer than {} samples beyond the percentile",
                    stats::MIN_BEYOND
                ))
            }
        }
    }

    /// Mark the run as unable to report.
    pub fn invalidate(&mut self, why: impl Into<String>) {
        self.invalid = Some(why.into());
    }

    fn to_json(&self) -> Value {
        let mut metrics = Map::new();
        for m in &self.metrics {
            metrics.insert(m.name.clone(), json!({"value": m.value, "unit": m.unit}));
        }
        json!({
            "correct": self.correct,
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor gave to other guests so far (`/proc/stat`
/// steal), seconds summed over CPUs. A run that lost much of its wall
/// time this way measured a contended host.
fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let span = Duration::from_secs(args.seconds);
    let (wall, steal) = (std::time::Instant::now(), steal_s());
    let report = match (args.workload.as_str(), args.trace) {
        ("paper-grid", false) => Ok(grid::run(args.seed, span)),
        ("fleet-unique", false) => traffic::run(traffic::Kind::Unique, args.seed, span),
        ("fleet-repeat", false) => traffic::run(traffic::Kind::Repeat, args.seed, span),
        ("paper-grid", true) => layers::run(None, args.seed, span),
        ("fleet-unique", true) => layers::run(Some(traffic::Kind::Unique), args.seed, span),
        ("fleet-repeat", true) => layers::run(Some(traffic::Kind::Repeat), args.seed, span),
        (other, _) => {
            eprintln!(
                "perfbench: unknown workload `{other}` (paper-grid, fleet-unique, fleet-repeat)"
            );
            return ExitCode::from(2);
        }
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "== {} (seed {}, {} s, trace {}) ==",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &report.notes {
        println!("{line}");
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: {cpus} CPUs, {:.1}% of CPU time stolen by the hypervisor during the run",
        100.0 * (steal_s() - steal) / (wall.elapsed().as_secs_f64() * cpus as f64)
    );
    for m in &report.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(why) = &report.invalid {
        eprintln!("perfbench: run cannot report: {why}");
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        serde_json::to_string(&report.to_json()).expect("report serializes")
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: outputs did not match the direct library calls");
        ExitCode::FAILURE
    }
}
