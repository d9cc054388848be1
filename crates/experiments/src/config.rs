//! CLI configuration for the experiment harness.

use hetsched_dag::Fingerprint;

/// Usage string printed on argument errors.
pub const USAGE: &str = "\
usage: hetsched-exp <experiment-id|all|perf> [options]
options:
  --seed <u64>       base RNG seed (default 42)
  --reps <n>         repetitions per parameter point (default 5)
  --procs <n>        default processor count (default 8)
  --out <dir>        JSON output directory (default results; `--out -` disables)
  --quick            smaller grids for smoke runs
  --jobs <n>         intra-algorithm search threads (GA, BNB); schedules
                     are bit-identical at any thread count, so this never
                     changes results. HETSCHED_JOBS is the env fallback;
                     default is the machine parallelism
perf options:
  --bench-out <file> write the perf benchmark JSON to <file>
  --check <file>     compare against a baseline benchmark JSON; exit
                     nonzero when any entry regresses by more than 25%
                     (after normalizing out the machine-speed factor)
load options (saturation sweep against a gateway + shards topology):
  --target <addr>    drive an already-running gateway instead of spawning
                     an in-process gateway + shards topology
  --shards <n>       shards of the in-process topology (default 2)
  --rate <r>         base arrival rate in requests/second (default 150);
                     the sweep runs 0.5x, 1x, and 3x (just 1x with --quick)
  --duration-ms <ms> wall time per sweep step (default 3000)
  --mix <u,d,p[,b]>  unique/duplicate/patch[/batch] request shares
                     (default 0.5,0.3,0.2, batch 0); duplicates exercise
                     single-flight dedup, patches send real `patch` ops
                     against a parent learned from earlier replies, and
                     batch sends `schedule_many` requests of 4-16
                     instances each
  --hot-ms <ms>      debug-sleep carried by duplicate requests, holding
                     the dedup leader in flight (default 25)
  --work-ms <ms>     debug-sleep carried by unique/patch requests — a
                     deterministic stand-in for compute cost (default 20)
  --strict           exit nonzero on any protocol error, when a
                     duplicate-carrying mix produces zero dedup hits,
                     when a patch-carrying mix sends zero patch ops, or
                     when a batch reply's entries come back out of order
  --bench-out <file> merge `load/r<rate>/p50|p99` client latency entries
                     plus `load/r<rate>/qwait_p99|compute_p99` server-side
                     breakdown entries into <file> (other keys, e.g. perf
                     entries, are kept)
  --check <file>     compare latency percentiles against a baseline, like
                     perf --check but with a 50% tolerance";

/// Parsed harness configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Base RNG seed; every instance derives a unique sub-seed from it.
    pub seed: u64,
    /// Repetitions per parameter point.
    pub reps: usize,
    /// Default processor count for experiments that do not sweep it.
    pub procs: usize,
    /// JSON output directory (`None` disables writing).
    pub out_dir: Option<String>,
    /// Smaller grids for smoke runs.
    pub quick: bool,
    /// Intra-algorithm search threads (`None` keeps the process default).
    /// Excluded from the fingerprint: schedules are bit-identical at any
    /// thread count, so `jobs` changes speed, never numbers.
    pub jobs: Option<usize>,
    /// `perf`/`load`: write (or, for `load`, merge into) the benchmark
    /// JSON at this file.
    pub bench_out: Option<String>,
    /// `perf`/`load`: baseline benchmark JSON to compare against.
    pub check: Option<String>,
    /// `load`: drive this already-running gateway instead of spawning an
    /// in-process topology.
    pub target: Option<String>,
    /// `load`: shard count of the in-process topology.
    pub shards: usize,
    /// `load`: base arrival rate (requests/second).
    pub rate: f64,
    /// `load`: wall time per sweep step, in milliseconds.
    pub duration_ms: u64,
    /// `load`: unique / duplicate / patch-shaped request shares.
    pub mix: (f64, f64, f64),
    /// `load`: share of `schedule_many` batch requests (the optional
    /// fourth `--mix` component; 0 when `--mix` has three parts).
    pub mix_batch: f64,
    /// `load`: debug-sleep carried by duplicate requests (ms).
    pub hot_ms: u64,
    /// `load`: debug-sleep carried by unique/patch requests (ms).
    pub work_ms: u64,
    /// `load`: fail on protocol errors, a dedup-free duplicate mix, or a
    /// patch-free patch mix.
    pub strict: bool,
}

impl Config {
    /// Fingerprint over every configuration field that influences the
    /// numbers an experiment produces (`out_dir`/`bench_out`/`check` only
    /// steer where output goes, so they are excluded).
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.tag("exp-config");
        fp.push_u64(self.seed);
        fp.push_usize(self.reps);
        fp.push_usize(self.procs);
        fp.push_u8(self.quick as u8);
        fp.finish()
    }

    /// Reproducibility metadata echoed into every JSON output record: the
    /// experiment id, the RNG seed and sweep parameters that generated the
    /// numbers, and the config fingerprint tying them together.
    pub fn meta_json(&self, id: &str) -> serde_json::Value {
        serde_json::json!({
            "experiment": id,
            "seed": self.seed,
            "reps": self.reps,
            "procs": self.procs,
            "quick": self.quick,
            "config_fingerprint": format!("{:016x}", self.fingerprint()),
        })
    }
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 42,
            reps: 5,
            procs: 8,
            out_dir: Some("results".into()),
            quick: false,
            jobs: None,
            bench_out: None,
            check: None,
            target: None,
            shards: 2,
            rate: 150.0,
            duration_ms: 3_000,
            mix: (0.5, 0.3, 0.2),
            mix_batch: 0.0,
            hot_ms: 25,
            work_ms: 20,
            strict: false,
        }
    }
}

/// Parse CLI arguments into experiment ids and a [`Config`].
pub fn parse_args(args: &[String]) -> Result<(Vec<String>, Config), String> {
    let mut cfg = Config::default();
    let mut ids = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let mut take_value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "--seed" => {
                cfg.seed = take_value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--reps" => {
                cfg.reps = take_value("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?
            }
            "--procs" => {
                cfg.procs = take_value("--procs")?
                    .parse()
                    .map_err(|e| format!("--procs: {e}"))?
            }
            "--out" => {
                let v = take_value("--out")?;
                cfg.out_dir = if v == "-" { None } else { Some(v) };
            }
            "--quick" => cfg.quick = true,
            "--jobs" => {
                cfg.jobs = Some(
                    take_value("--jobs")?
                        .parse()
                        .map_err(|e| format!("--jobs: {e}"))?,
                )
            }
            "--bench-out" => cfg.bench_out = Some(take_value("--bench-out")?),
            "--check" => cfg.check = Some(take_value("--check")?),
            "--target" => cfg.target = Some(take_value("--target")?),
            "--shards" => {
                cfg.shards = take_value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--rate" => {
                cfg.rate = take_value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?
            }
            "--duration-ms" => {
                cfg.duration_ms = take_value("--duration-ms")?
                    .parse()
                    .map_err(|e| format!("--duration-ms: {e}"))?
            }
            "--mix" => {
                let v = take_value("--mix")?;
                let parts: Vec<f64> = v
                    .split(',')
                    .map(|p| p.trim().parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--mix: {e}"))?;
                let (u, d, p, b) = match parts[..] {
                    [u, d, p] => (u, d, p, 0.0),
                    [u, d, p, b] => (u, d, p, b),
                    _ => {
                        return Err(
                            "--mix needs three or four comma-separated shares (u,d,p[,b])".into(),
                        )
                    }
                };
                if u < 0.0 || d < 0.0 || p < 0.0 || b < 0.0 || u + d + p + b <= 0.0 {
                    return Err("--mix shares must be non-negative and not all zero".into());
                }
                let total = u + d + p + b;
                cfg.mix = (u / total, d / total, p / total);
                cfg.mix_batch = b / total;
            }
            "--hot-ms" => {
                cfg.hot_ms = take_value("--hot-ms")?
                    .parse()
                    .map_err(|e| format!("--hot-ms: {e}"))?
            }
            "--work-ms" => {
                cfg.work_ms = take_value("--work-ms")?
                    .parse()
                    .map_err(|e| format!("--work-ms: {e}"))?
            }
            "--strict" => cfg.strict = true,
            _ if a.starts_with("--") => return Err(format!("unknown option {a}")),
            _ => ids.push(a.clone()),
        }
        i += 1;
    }
    if cfg.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    if cfg.procs == 0 {
        return Err("--procs must be at least 1".into());
    }
    if cfg.jobs == Some(0) {
        return Err("--jobs must be at least 1".into());
    }
    if cfg.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if !(cfg.rate > 0.0 && cfg.rate.is_finite()) {
        return Err("--rate must be a positive number".into());
    }
    if cfg.duration_ms == 0 {
        return Err("--duration-ms must be at least 1".into());
    }
    if ids.iter().any(|i| i == "all") {
        ids = crate::experiments::catalog()
            .iter()
            .map(|(id, _)| id.to_string())
            .collect();
    }
    Ok((ids, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_flags() {
        let (ids, cfg) = parse_args(&[
            "fig2-slr-vs-ccr".into(),
            "--seed".into(),
            "7".into(),
            "--reps".into(),
            "3".into(),
            "--quick".into(),
        ])
        .unwrap();
        assert_eq!(ids, vec!["fig2-slr-vs-ccr"]);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.reps, 3);
        assert!(cfg.quick);
        assert_eq!(cfg.out_dir.as_deref(), Some("results"));
    }

    #[test]
    fn all_expands() {
        let (ids, _) = parse_args(&["all".into()]).unwrap();
        assert!(ids.len() >= 10);
    }

    #[test]
    fn out_dash_disables_json() {
        let (_, cfg) = parse_args(&["x".into(), "--out".into(), "-".into()]).unwrap();
        assert!(cfg.out_dir.is_none());
    }

    #[test]
    fn meta_echoes_seed_and_fingerprint() {
        let cfg = Config {
            seed: 7,
            reps: 3,
            quick: true,
            ..Config::default()
        };
        let meta = cfg.meta_json("fig1-slr-vs-tasks");
        assert_eq!(meta["experiment"].as_str(), Some("fig1-slr-vs-tasks"));
        assert_eq!(meta["seed"].as_u64(), Some(7));
        assert_eq!(meta["reps"].as_u64(), Some(3));
        assert_eq!(meta["quick"].as_bool(), Some(true));
        let fp = meta["config_fingerprint"].as_str().unwrap();
        assert_eq!(fp.len(), 16);
        // the fingerprint pins every result-influencing field
        let other = Config {
            seed: 8,
            ..cfg.clone()
        };
        assert_ne!(cfg.fingerprint(), other.fingerprint());
        assert_eq!(cfg.fingerprint(), cfg.clone().fingerprint());
        // ...but not output routing
        let routed = Config {
            out_dir: None,
            ..cfg.clone()
        };
        assert_eq!(cfg.fingerprint(), routed.fingerprint());
        // ...and not --jobs: schedules are thread-count-invariant
        let threaded = Config {
            jobs: Some(4),
            ..cfg.clone()
        };
        assert_eq!(cfg.fingerprint(), threaded.fingerprint());
    }

    #[test]
    fn jobs_flag_parses_and_rejects_zero() {
        let (_, cfg) = parse_args(&["x".into(), "--jobs".into(), "4".into()]).unwrap();
        assert_eq!(cfg.jobs, Some(4));
        assert!(parse_args(&["x".into(), "--jobs".into(), "0".into()]).is_err());
    }

    #[test]
    fn rejects_unknown_flag_and_zero_reps() {
        assert!(parse_args(&["--frobnicate".into()]).is_err());
        assert!(parse_args(&["x".into(), "--reps".into(), "0".into()]).is_err());
    }

    #[test]
    fn load_flags_parse_and_mix_normalizes() {
        let (ids, cfg) = parse_args(&[
            "load".into(),
            "--target".into(),
            "127.0.0.1:7070".into(),
            "--shards".into(),
            "3".into(),
            "--rate".into(),
            "80".into(),
            "--duration-ms".into(),
            "500".into(),
            "--mix".into(),
            "1,2,1".into(),
            "--hot-ms".into(),
            "10".into(),
            "--work-ms".into(),
            "5".into(),
            "--strict".into(),
        ])
        .unwrap();
        assert_eq!(ids, vec!["load"]);
        assert_eq!(cfg.target.as_deref(), Some("127.0.0.1:7070"));
        assert_eq!(cfg.shards, 3);
        assert_eq!(cfg.rate, 80.0);
        assert_eq!(cfg.duration_ms, 500);
        assert_eq!(cfg.mix, (0.25, 0.5, 0.25), "shares normalize to sum 1");
        assert_eq!(cfg.hot_ms, 10);
        assert_eq!(cfg.work_ms, 5);
        assert!(cfg.strict);
    }

    #[test]
    fn mix_accepts_an_optional_batch_share() {
        let (_, cfg) = parse_args(&["load".into(), "--mix".into(), "1,1,1,1".into()]).unwrap();
        assert_eq!(cfg.mix, (0.25, 0.25, 0.25));
        assert_eq!(cfg.mix_batch, 0.25);
        // three components keep batch at zero
        let (_, cfg) = parse_args(&["load".into(), "--mix".into(), "1,1,2".into()]).unwrap();
        assert_eq!(cfg.mix_batch, 0.0);
        // a batch-only mix is valid: the other shares may all be zero
        let (_, cfg) = parse_args(&["load".into(), "--mix".into(), "0,0,0,1".into()]).unwrap();
        assert_eq!(cfg.mix_batch, 1.0);
        assert!(parse_args(&["load".into(), "--mix".into(), "1,1,1,-1".into()]).is_err());
        assert!(parse_args(&["load".into(), "--mix".into(), "1,1,1,1,1".into()]).is_err());
    }

    #[test]
    fn load_flags_reject_bad_values() {
        assert!(parse_args(&["load".into(), "--shards".into(), "0".into()]).is_err());
        assert!(parse_args(&["load".into(), "--rate".into(), "0".into()]).is_err());
        assert!(parse_args(&["load".into(), "--rate".into(), "-5".into()]).is_err());
        assert!(parse_args(&["load".into(), "--duration-ms".into(), "0".into()]).is_err());
        assert!(parse_args(&["load".into(), "--mix".into(), "1,2".into()]).is_err());
        assert!(parse_args(&["load".into(), "--mix".into(), "0,0,0".into()]).is_err());
    }
}
