//! `load`: an open-loop load harness for the gateway + shards topology.
//!
//! Drives a saturation sweep of Poisson-ish arrivals (seeded, vendored
//! RNG — the arrival schedule and request mix are deterministic) against
//! either an in-process gateway + shards topology it spawns itself, or an
//! already-running gateway (`--target`). Requests come in four shapes:
//!
//! - **unique** — a fresh problem every time; exercises fingerprint
//!   routing and the shard compute path.
//! - **duplicate** — the current *hot* problem, identical byte-for-byte
//!   across every connection. Hot problems rotate every couple of
//!   `--hot-ms` windows and carry `debug_sleep_ms = hot_ms`, so each
//!   rotation's first arrival leads a flight long enough for followers to
//!   coalesce on — the single-flight dedup path, exercised on purpose
//!   rather than by luck. Once a rotation's reply is memoized shard-side
//!   (its second flight), later duplicates answer from the gateway's
//!   raw-byte wire cache without a shard round trip; `--strict` requires
//!   nonzero wire hits whenever the duplicate pressure is high enough
//!   to make a third same-rotation wave statistically certain.
//! - **patch** — a real `patch` op against the latest `problem`
//!   fingerprint this connection learned from an earlier reply: the shard
//!   resolves the parent from its instance cache, applies a one-weight
//!   delta, and repairs incrementally. Patches route to the parent's home
//!   shard and must NOT coalesce with the parent's flight. Before the
//!   first reply arrives (no parent known yet) the connection falls back
//!   to a pre-built near-identical full problem. A patch whose parent was
//!   evicted from the shard's instance cache answers `unknown_parent`;
//!   the harness counts those separately and `--strict` tolerates them.
//! - **batch** — a `schedule_many` request of 4–16 instances (the
//!   optional fourth `--mix` share, 0 by default). Batch member `i`
//!   carries a strictly increasing task count, so the reply's per-entry
//!   slot counts witness the request order; `--strict` fails when any
//!   batch reply's entries come back out of order. Batch members carry
//!   no compute stand-in (see [`many_line`]) — the shape measures
//!   ordering and fan-out overhead, not saturation.
//!
//! Unique/patch requests carry `debug_sleep_ms = work_ms`, a
//! deterministic stand-in for compute cost, so the saturation point of
//! the sweep is a function of the flags, not of the machine. Client-side
//! latency percentiles come from the shared log₂ histogram; the top
//! sweep step is sized to exceed shard capacity so admission-control
//! sheds are observed, not just theorized. `--bench-out` merges
//! `load/r<rate>/p50|p99` entries into an existing benchmark JSON (perf
//! entries are kept); `--check` gates them against a committed baseline
//! like `perf --check`, with a wider 50% tolerance because latency under
//! load is noisier than hot-path wall time.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

use hetsched_dag::io::DagSpec;
use hetsched_gateway::{GatewayConfig, GatewayServer, LocalShards};
use hetsched_metrics::table::TextTable;
use hetsched_serve::metrics::LatencyHistogram;
use hetsched_serve::ServeConfig;
use hetsched_workloads::{random_dag, RandomDagParams};

use crate::config::Config;

/// Relative latency slowdown tolerated by `load --check`. Wider than the
/// perf tolerance: percentiles under open-loop load carry queueing noise
/// that per-entry minima do not.
const LOAD_TOLERANCE: f64 = 0.5;
/// Per-request deadline carried by every generated request.
const DEADLINE_MS: u64 = 2_000;
/// Tasks per generated problem: small enough that parse + schedule are
/// cheap and `debug_sleep_ms` dominates the (deterministic) service time.
const TASKS_PER_PROBLEM: usize = 30;
/// Tasks in the smallest batch member. Member `i` has
/// `BATCH_BASE_TASKS + i` tasks — strictly increasing within a batch, so
/// a reply entry's slot count identifies which member it answers.
const BATCH_BASE_TASKS: usize = 8;
/// Reply-wait bound: no reply within this window is a protocol error (a
/// hung server must fail the harness, not wedge it).
const READ_TIMEOUT: Duration = Duration::from_secs(15);

/// Shared per-step counters, bumped by the reader threads.
#[derive(Default)]
struct Counts {
    sent: AtomicU64,
    ok: AtomicU64,
    shed: AtomicU64,
    busy: AtomicU64,
    timeout: AtomicU64,
    error: AtomicU64,
    protocol_errors: AtomicU64,
    /// Real `patch` ops sent (the mix's patch share minus the pre-parent
    /// fallback sends).
    patched: AtomicU64,
    /// `unknown_parent` replies: the parent aged out of the shard's
    /// instance cache between learning it and patching it.
    patch_miss: AtomicU64,
    /// `schedule_many` batch requests sent (the mix's batch share).
    batch: AtomicU64,
    /// Batch replies whose entries did not match the request order (or
    /// count) — always zero against a correct server; fatal with
    /// `--strict`.
    batch_ooo: AtomicU64,
}

/// Outcome of one sweep step.
struct StepResult {
    rate: f64,
    sent: u64,
    ok: u64,
    shed: u64,
    busy: u64,
    timeout: u64,
    error: u64,
    protocol_errors: u64,
    patched: u64,
    patch_miss: u64,
    batch: u64,
    batch_ooo: u64,
    p50_us: f64,
    p99_us: f64,
    /// Server-side 99th-percentile queue wait (worst shard), µs,
    /// cumulative through the end of this step.
    qwait_p99_us: f64,
    /// Server-side 99th-percentile worker compute (worst shard), µs,
    /// cumulative through the end of this step.
    compute_p99_us: f64,
    dedup_delta: u64,
    reroute_delta: u64,
    /// Gateway wire-cache hits during this step: duplicates answered
    /// from the raw-byte hot-line cache without a shard round trip.
    wire_delta: u64,
}

/// Pre-generated request lines for one step.
struct Pools {
    unique: Vec<String>,
    patch: Vec<String>,
    /// Hot problems in rotation order; index = elapsed / rotation.
    hot: Vec<String>,
    /// `schedule_many` lines, paired with their instance count so the
    /// reader knows how many entries (and which sizes) to expect.
    batch: Vec<(String, usize)>,
    rotation: Duration,
}

impl Pools {
    /// The hot line for the rotation window containing `elapsed` — the
    /// same for every connection, so duplicates coalesce gateway-wide.
    fn hot_line(&self, elapsed: Duration) -> &str {
        let idx = (elapsed.as_millis() / self.rotation.as_millis().max(1)) as usize;
        &self.hot[idx.min(self.hot.len() - 1)]
    }
}

/// One deterministic problem as a JSON value.
fn problem_value(seed: u64) -> Value {
    problem_value_n(seed, TASKS_PER_PROBLEM)
}

/// One deterministic problem of `tasks` tasks as a JSON value.
fn problem_value_n(seed: u64, tasks: usize) -> Value {
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = random_dag(&RandomDagParams::new(tasks, 1.0, 1.0), &mut rng);
    serde_json::to_value(DagSpec::from_dag(&dag)).expect("DagSpec serializes")
}

fn system_value(procs: usize) -> Value {
    serde_json::from_str(&format!(
        "{{\"processors\":{{\"kind\":\"homogeneous\",\"count\":{procs}}},\
         \"network\":{{\"topology\":\"fully_connected\",\"bandwidth\":1.0}}}}"
    ))
    .expect("literal system JSON parses")
}

/// Serialize one real `patch` request line: reschedule the cached parent
/// problem with one task weight nudged. The nudge varies with `nudge`, so
/// consecutive patches are distinct problems (own flight each), and a
/// `task_weight` delta is valid against any parent regardless of its edge
/// set.
fn patch_line(parent: &str, nudge: u64, sleep_ms: u64) -> String {
    let mut options = serde_json::Map::new();
    options.insert("deadline_ms", serde_json::to_value(DEADLINE_MS).unwrap());
    if sleep_ms > 0 {
        options.insert("debug_sleep_ms", serde_json::to_value(sleep_ms).unwrap());
    }
    let weight = 1.0 + nudge as f64 * 0.25;
    let mut req = serde_json::Map::new();
    req.insert("op", Value::String("patch".into()));
    req.insert("parent", Value::String(parent.into()));
    req.insert("algorithm", Value::String("HEFT".into()));
    let delta = serde_json::json!({"kind": "task_weight", "task": 0, "weight": weight});
    req.insert("deltas", Value::Array(vec![delta]));
    req.insert("options", Value::Object(options));
    serde_json::to_string(&Value::Object(req)).expect("request serializes")
}

/// Nudge one task weight: a distinct content fingerprint (own routing,
/// own flight) from a problem that is byte-identical otherwise. Used as
/// the patch share's fallback until the connection learns a parent
/// fingerprint from a reply.
fn patched(dag: &Value) -> Value {
    let mut v = dag.clone();
    if let Some(w) = v
        .as_object_mut()
        .and_then(|o| o.get_mut("tasks"))
        .and_then(Value::as_array_mut)
        .and_then(|a| a.first_mut())
        .and_then(Value::as_object_mut)
        .and_then(|t| t.get_mut("weight"))
    {
        let bumped = w.as_f64().unwrap_or(1.0) + 0.5;
        *w = serde_json::to_value(bumped).expect("f64 serializes");
    }
    v
}

/// Serialize one `schedule_many` request line of `count` instances.
/// Member `i` carries `BATCH_BASE_TASKS + i` tasks: strictly increasing
/// sizes, so the reply's per-entry slot counts witness the answer order.
///
/// Batch members deliberately carry **no** `debug_sleep_ms`: the batch
/// mix exercises ordering, fan-out, and batching overhead — not compute
/// saturation. A per-member sleep would multiply by the batch size and
/// let a cold batch pool (before the memo absorbs its 16 distinct
/// lines) shed the whole measurement window, which is exactly the kind
/// of host-dependent transient the deterministic stand-in exists to
/// avoid.
fn many_line(seed: u64, count: usize, system: &Value) -> String {
    let instances: Vec<Value> = (0..count)
        .map(|i| {
            let dag = problem_value_n(seed ^ (i as u64 + 1), BATCH_BASE_TASKS + i);
            serde_json::json!({"dag": dag, "system": system})
        })
        .collect();
    let mut options = serde_json::Map::new();
    options.insert("deadline_ms", serde_json::to_value(DEADLINE_MS).unwrap());
    let mut req = serde_json::Map::new();
    req.insert("op", Value::String("schedule_many".into()));
    req.insert("instances", Value::Array(instances));
    req.insert("algorithm", Value::String("HEFT".into()));
    req.insert("options", Value::Object(options));
    serde_json::to_string(&Value::Object(req)).expect("request serializes")
}

/// Total scheduled slots in one batch-reply entry: HEFT places exactly
/// one slot per task, so this recovers the member's task count.
fn entry_slot_count(entry: &Value) -> Option<usize> {
    let timelines = entry.get("schedule")?.get("timelines")?.as_array()?;
    Some(
        timelines
            .iter()
            .filter_map(Value::as_array)
            .map(Vec::len)
            .sum(),
    )
}

/// Serialize one schedule request line.
fn request_line(dag: &Value, system: &Value, sleep_ms: u64) -> String {
    let mut options = serde_json::Map::new();
    options.insert("deadline_ms", serde_json::to_value(DEADLINE_MS).unwrap());
    if sleep_ms > 0 {
        options.insert("debug_sleep_ms", serde_json::to_value(sleep_ms).unwrap());
    }
    let mut req = serde_json::Map::new();
    req.insert("op", Value::String("schedule".into()));
    req.insert("dag", dag.clone());
    req.insert("system", system.clone());
    req.insert("algorithm", Value::String("HEFT".into()));
    req.insert("options", Value::Object(options));
    serde_json::to_string(&Value::Object(req)).expect("request serializes")
}

/// Build the request pools for one step. Pool sizes cover the expected
/// send count with slack; an overrun wraps around (repeats then hit the
/// shard reply memo, which only flatters latency, never correctness).
fn build_pools(cfg: &Config, rate: f64, step: usize) -> Pools {
    let system = system_value(4);
    let expected = rate * cfg.duration_ms as f64 / 1e3;
    let (u_share, _d, p_share) = cfg.mix;
    let size = |share: f64| (((expected * share).ceil() as usize) + 16).min(4096);
    let base = cfg
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(step as u64);
    let unique: Vec<String> = (0..size(u_share))
        .map(|i| {
            let dag = problem_value(base ^ (0x1000 + i as u64));
            request_line(&dag, &system, cfg.work_ms)
        })
        .collect();
    let patch: Vec<String> = (0..size(p_share))
        .map(|i| {
            // near-identical: the patch pool reuses unique seeds with one
            // weight nudged
            let dag = patched(&problem_value(base ^ (0x1000 + i as u64)));
            request_line(&dag, &system, cfg.work_ms)
        })
        .collect();
    let rotation = Duration::from_millis((2 * cfg.hot_ms).max(20));
    let hot_count = (cfg.duration_ms / rotation.as_millis().max(1) as u64) as usize + 2;
    let hot: Vec<String> = (0..hot_count)
        .map(|i| {
            let dag = problem_value(base ^ (0x8000_0000 + i as u64));
            request_line(&dag, &system, cfg.hot_ms)
        })
        .collect();
    let batch_pool = if cfg.mix_batch > 0.0 {
        size(cfg.mix_batch)
    } else {
        0 // no batch share: skip generating the (multi-instance) lines
    };
    let batch: Vec<(String, usize)> = (0..batch_pool)
        .map(|i| {
            // 4..=16 instances, cycling deterministically through sizes
            let count = 4 + (i % 13);
            let seed = base ^ (0x4000_0000 + ((i as u64) << 8));
            (many_line(seed, count, &system), count)
        })
        .collect();
    Pools {
        unique,
        patch,
        hot,
        batch,
        rotation,
    }
}

/// Fetch the target's full `stats` reply (`None` when unreachable).
fn fetch_stats_value(addr: &str) -> Option<Value> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    let mut writer = stream.try_clone().ok()?;
    writer.write_all(b"{\"op\":\"stats\"}\n").ok()?;
    writer.flush().ok()?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).ok()?;
    serde_json::from_str(reply.trim()).ok()
}

/// Fetch the gateway's `stats` counters (`None` when the peer is
/// unreachable or does not expose a gateway section — e.g. a plain
/// `serve` daemon under `--target`).
fn fetch_gateway_stats(addr: &str) -> Option<Value> {
    fetch_stats_value(addr)?
        .as_object()?
        .get("gateway")
        .cloned()
}

/// Server-side 99th-percentile queue wait and compute time, µs: the
/// worst shard behind a gateway, or the target's own stats body when it
/// is a plain `serve` daemon. Cumulative since server start — the
/// closing step of a sweep reflects the whole sweep's pressure.
fn fetch_server_percentiles(addr: &str) -> (f64, f64) {
    let Some(v) = fetch_stats_value(addr) else {
        return (0.0, 0.0);
    };
    let bodies: Vec<&Value> = match v.get("shards").and_then(Value::as_array) {
        Some(arr) if !arr.is_empty() => arr.iter().collect(),
        _ => v.get("stats").into_iter().collect(),
    };
    let pick = |key: &str| {
        bodies
            .iter()
            .filter_map(|b| b.get(key).and_then(Value::as_f64))
            .fold(0.0, f64::max)
    };
    (pick("qwait_p99_us"), pick("compute_p99_us"))
}

fn counter(stats: &Option<Value>, key: &str) -> u64 {
    stats
        .as_ref()
        .and_then(|v| v.as_object())
        .and_then(|o| o.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Run one open-loop step at `rate` requests/second.
fn run_step(cfg: &Config, addr: &str, rate: f64, step: usize) -> Result<StepResult, String> {
    // Fixed connection count, independent of --quick: the gateway serves
    // one in-flight request per connection, so the connection count sets
    // the effective concurrency — varying it would make quick-mode
    // latency entries incomparable with a full-sweep baseline.
    let conns = 4;
    let pools = Arc::new(build_pools(cfg, rate, step));
    let counts = Arc::new(Counts::default());
    let hist = Arc::new(LatencyHistogram::default());
    let before = fetch_gateway_stats(addr);
    let start = Instant::now();
    let duration = Duration::from_millis(cfg.duration_ms);

    let mut handles = Vec::new();
    for c in 0..conns {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        let reader_stream = stream.try_clone().map_err(|e| e.to_string())?;
        reader_stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
        // send instant + expected batch entry count (0 for non-batch)
        let (meta_tx, meta_rx) = mpsc::channel::<(Instant, usize)>();
        // The latest `problem` fingerprint this connection saw in a
        // reply: the reader learns it, the writer patches against it.
        let parent = Arc::new(std::sync::Mutex::new(None::<String>));

        let writer = {
            let pools = pools.clone();
            let counts = counts.clone();
            let parent = parent.clone();
            let mix = cfg.mix;
            let mix_batch = cfg.mix_batch;
            let work_ms = cfg.work_ms;
            let seed = cfg.seed ^ ((step as u64) << 32) ^ (c as u64);
            let mut stream = stream;
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let lambda = (rate / conns as f64).max(1e-9);
                let mut t = 0.0f64;
                // stride by connection count so no two connections draw
                // the same unique/patch entry
                let mut unique_idx = c;
                let mut patch_idx = c;
                let mut batch_idx = c;
                loop {
                    let u: f64 = rng.gen();
                    t += -(1.0 - u).max(f64::MIN_POSITIVE).ln() / lambda;
                    if t >= duration.as_secs_f64() {
                        break;
                    }
                    let wake = start + Duration::from_secs_f64(t);
                    if let Some(d) = wake.checked_duration_since(Instant::now()) {
                        std::thread::sleep(d);
                    }
                    let roll: f64 = rng.gen();
                    let (line, expected): (String, usize) = if roll < mix.1 {
                        (pools.hot_line(start.elapsed()).to_string(), 0)
                    } else if roll < mix.1 + mix.2 {
                        let learned = parent.lock().unwrap().clone();
                        let l = match learned {
                            // real incremental reschedule against the
                            // learned parent (distinct weight per send,
                            // so every patch is its own flight)
                            Some(p) => {
                                counts.patched.fetch_add(1, Ordering::Relaxed);
                                patch_line(&p, patch_idx as u64, work_ms)
                            }
                            // no reply seen yet: fall back to the
                            // near-identical full problem
                            None => pools.patch[patch_idx % pools.patch.len()].clone(),
                        };
                        patch_idx += conns;
                        (l, 0)
                    } else if roll < mix.1 + mix.2 + mix_batch && !pools.batch.is_empty() {
                        let (l, count) = &pools.batch[batch_idx % pools.batch.len()];
                        batch_idx += conns;
                        counts.batch.fetch_add(1, Ordering::Relaxed);
                        (l.clone(), *count)
                    } else {
                        let l = pools.unique[unique_idx % pools.unique.len()].clone();
                        unique_idx += conns;
                        (l, 0)
                    };
                    let sent_at = Instant::now();
                    if stream.write_all(line.as_bytes()).is_err()
                        || stream.write_all(b"\n").is_err()
                    {
                        counts.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    counts.sent.fetch_add(1, Ordering::Relaxed);
                    if meta_tx.send((sent_at, expected)).is_err() {
                        break; // reader gave up
                    }
                }
                // dropping meta_tx tells the reader no more replies are due
            })
        };
        let reader = {
            let counts = counts.clone();
            let hist = hist.clone();
            let parent = parent.clone();
            std::thread::spawn(move || {
                let mut reader = BufReader::new(reader_stream);
                // the gateway answers in request order per connection, so
                // FIFO pairing of send instants with reply lines is exact
                while let Ok((sent_at, expected)) = meta_rx.recv() {
                    let mut line = String::new();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => {
                            counts.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        Ok(_) => {
                            let latency = sent_at.elapsed();
                            let reply = serde_json::from_str::<Value>(line.trim()).ok();
                            let status = reply
                                .as_ref()
                                .and_then(|v| v.as_object()?.get("status")?.as_str());
                            match status {
                                Some("ok") => {
                                    counts.ok.fetch_add(1, Ordering::Relaxed);
                                    hist.record(latency);
                                    if expected > 0 {
                                        // batch reply: entry i must answer
                                        // member i, whose task count (and so
                                        // HEFT slot count) is
                                        // BATCH_BASE_TASKS + i
                                        let in_order = reply
                                            .as_ref()
                                            .and_then(|v| v.get("many")?.get("entries")?.as_array())
                                            .is_some_and(|entries| {
                                                entries.len() == expected
                                                    && entries.iter().enumerate().all(|(i, e)| {
                                                        entry_slot_count(e)
                                                            == Some(BATCH_BASE_TASKS + i)
                                                    })
                                            });
                                        if !in_order {
                                            counts.batch_ooo.fetch_add(1, Ordering::Relaxed);
                                        }
                                    }
                                    // learn the problem fingerprint so the
                                    // writer's patch share has a parent
                                    if let Some(p) = reply
                                        .as_ref()
                                        .and_then(|v| v.get("schedule"))
                                        .and_then(|s| s.get("problem"))
                                        .and_then(Value::as_str)
                                        .filter(|p| !p.is_empty())
                                    {
                                        *parent.lock().unwrap() = Some(p.to_string());
                                    }
                                }
                                Some("shed") => {
                                    counts.shed.fetch_add(1, Ordering::Relaxed);
                                }
                                Some("busy") => {
                                    counts.busy.fetch_add(1, Ordering::Relaxed);
                                }
                                Some("timeout") => {
                                    counts.timeout.fetch_add(1, Ordering::Relaxed);
                                }
                                Some("error") | Some("shutting_down") => {
                                    let unknown_parent = reply
                                        .as_ref()
                                        .and_then(|v| v.get("message"))
                                        .and_then(Value::as_str)
                                        .is_some_and(|m| m.contains("unknown_parent"));
                                    if unknown_parent {
                                        // the parent aged out of the shard's
                                        // instance cache: an expected miss
                                        // under churn, not a failure
                                        counts.patch_miss.fetch_add(1, Ordering::Relaxed);
                                    } else {
                                        counts.error.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                _ => {
                                    counts.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                }
            })
        };
        handles.push(writer);
        handles.push(reader);
    }
    for h in handles {
        h.join().map_err(|_| "load worker thread panicked")?;
    }
    let after = fetch_gateway_stats(addr);
    let (qwait_p99_us, compute_p99_us) = fetch_server_percentiles(addr);
    let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
    Ok(StepResult {
        rate,
        sent: get(&counts.sent),
        ok: get(&counts.ok),
        shed: get(&counts.shed),
        busy: get(&counts.busy),
        timeout: get(&counts.timeout),
        error: get(&counts.error),
        protocol_errors: get(&counts.protocol_errors),
        patched: get(&counts.patched),
        patch_miss: get(&counts.patch_miss),
        batch: get(&counts.batch),
        batch_ooo: get(&counts.batch_ooo),
        p50_us: hist.quantile_us(0.50),
        p99_us: hist.quantile_us(0.99),
        qwait_p99_us,
        compute_p99_us,
        dedup_delta: counter(&after, "dedup_hits").saturating_sub(counter(&before, "dedup_hits")),
        reroute_delta: counter(&after, "reroutes").saturating_sub(counter(&before, "reroutes")),
        wire_delta: counter(&after, "wire_hits").saturating_sub(counter(&before, "wire_hits")),
    })
}

/// The in-process topology `load` spawns when no `--target` is given.
struct OwnedTopology {
    shards: LocalShards,
    gateway: std::thread::JoinHandle<std::io::Result<()>>,
    addr: String,
}

fn spawn_topology(cfg: &Config) -> Result<OwnedTopology, String> {
    let shard_config = ServeConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 256,
        instance_cache_capacity: 64,
        default_deadline_ms: DEADLINE_MS,
    };
    let shards = LocalShards::spawn(cfg.shards, &shard_config)
        .map_err(|e| format!("spawning shards: {e}"))?;
    let gw_config = GatewayConfig {
        backends: shards.addrs(),
        // modest budget so the 3x sweep step actually exhausts it and
        // sheds are observed, not just theorized
        inflight_per_shard: 8,
        default_deadline_ms: DEADLINE_MS,
        ..Default::default()
    };
    let server =
        GatewayServer::bind("127.0.0.1:0", gw_config).map_err(|e| format!("gateway bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let gateway = std::thread::spawn(move || server.run());
    Ok(OwnedTopology {
        shards,
        gateway,
        addr,
    })
}

fn shutdown_topology(mut topo: OwnedTopology) {
    // one shutdown request winds the gateway AND (propagated) every shard
    // down; the gateway drains before its run() returns
    if let Ok(stream) = TcpStream::connect(&topo.addr) {
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let _ = writer.write_all(b"{\"op\":\"shutdown\"}\n");
        let _ = writer.flush();
        let mut reply = String::new();
        let _ = BufReader::new(stream).read_line(&mut reply);
    }
    let _ = topo.gateway.join();
    topo.shards.shutdown_all();
}

/// Merge the load entries into `path` (created if absent), keeping every
/// key already present — perf entries and load entries share one
/// benchmark document.
fn merge_bench_out(path: &str, entries: &[(String, Value)], meta: Value) -> Result<(), String> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str::<Value>(&text)
            .map_err(|e| format!("parsing existing {path}: {e}"))?,
        Err(_) => Value::Object(serde_json::Map::new()),
    };
    let Some(obj) = doc.as_object_mut() else {
        return Err(format!("{path} is not a JSON object"));
    };
    obj.insert("load_meta", meta);
    for (id, entry) in entries {
        obj.insert(id.clone(), entry.clone());
    }
    std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap())
        .map_err(|e| format!("writing {path}: {e}"))
}

/// Run the load sweep: spawn (or target) the topology, sweep the rates,
/// print the table, merge `--bench-out`, gate `--check` and `--strict`.
pub fn run_load(cfg: &Config) -> Result<(), String> {
    let multipliers: &[f64] = if cfg.quick { &[1.0] } else { &[0.5, 1.0, 3.0] };
    let topology = match &cfg.target {
        Some(_) => None,
        None => Some(spawn_topology(cfg)?),
    };
    let addr = match (&cfg.target, &topology) {
        (Some(a), _) => a.clone(),
        (None, Some(t)) => t.addr.clone(),
        (None, None) => unreachable!(),
    };

    let run = (|| -> Result<Vec<StepResult>, String> {
        let mut steps = Vec::new();
        for (i, &mult) in multipliers.iter().enumerate() {
            steps.push(run_step(cfg, &addr, cfg.rate * mult, i)?);
        }
        Ok(steps)
    })();
    if let Some(topo) = topology {
        shutdown_topology(topo);
    }
    let steps = run?;

    let mut table = TextTable::new(vec![
        "rate/s".into(),
        "sent".into(),
        "ok".into(),
        "dedup".into(),
        "wire".into(),
        "shed".into(),
        "busy".into(),
        "timeout".into(),
        "error".into(),
        "proto".into(),
        "reroute".into(),
        "patch".into(),
        "pmiss".into(),
        "batch".into(),
        "booo".into(),
        "p50_ms".into(),
        "p99_ms".into(),
        "qw99_ms".into(),
        "cp99_ms".into(),
    ]);
    for s in &steps {
        table.row(vec![
            format!("{:.0}", s.rate),
            s.sent.to_string(),
            s.ok.to_string(),
            s.dedup_delta.to_string(),
            s.wire_delta.to_string(),
            s.shed.to_string(),
            s.busy.to_string(),
            s.timeout.to_string(),
            s.error.to_string(),
            s.protocol_errors.to_string(),
            s.reroute_delta.to_string(),
            s.patched.to_string(),
            s.patch_miss.to_string(),
            s.batch.to_string(),
            s.batch_ooo.to_string(),
            format!("{:.2}", s.p50_us / 1e3),
            format!("{:.2}", s.p99_us / 1e3),
            format!("{:.2}", s.qwait_p99_us / 1e3),
            format!("{:.2}", s.compute_p99_us / 1e3),
        ]);
    }
    println!(
        "== load ({} steps x {} ms, mix u/d/p/b {:.2}/{:.2}/{:.2}/{:.2}) ==",
        steps.len(),
        cfg.duration_ms,
        cfg.mix.0,
        cfg.mix.1,
        cfg.mix.2,
        cfg.mix_batch
    );
    println!("{}", table.render());

    // benchmark entries in the perf schema: client-side p50 + p99 plus
    // server-side queue-wait and compute p99, per rate
    let bench_entries: Vec<(String, Value)> = steps
        .iter()
        .flat_map(|s| {
            [
                (format!("load/r{:.0}/p50", s.rate), s.p50_us),
                (format!("load/r{:.0}/p99", s.rate), s.p99_us),
                (format!("load/r{:.0}/qwait_p99", s.rate), s.qwait_p99_us),
                (format!("load/r{:.0}/compute_p99", s.rate), s.compute_p99_us),
            ]
            .map(|(id, us)| {
                let mut e = serde_json::Map::new();
                e.insert("n", serde_json::to_value(s.sent).unwrap());
                e.insert("procs", serde_json::to_value(cfg.shards).unwrap());
                e.insert("algo", Value::String("gateway".into()));
                e.insert("median_ns", serde_json::to_value(us * 1e3).unwrap());
                e.insert("min_ns", serde_json::to_value(us * 1e3).unwrap());
                e.insert("reps", serde_json::to_value(1).unwrap());
                (id, Value::Object(e))
            })
        })
        .collect();

    if let Some(path) = &cfg.bench_out {
        let mut meta = serde_json::Map::new();
        meta.insert("seed", serde_json::to_value(cfg.seed).unwrap());
        meta.insert("rate", serde_json::to_value(cfg.rate).unwrap());
        meta.insert(
            "duration_ms",
            serde_json::to_value(cfg.duration_ms).unwrap(),
        );
        meta.insert("shards", serde_json::to_value(cfg.shards).unwrap());
        meta.insert(
            "mix",
            serde_json::to_value([cfg.mix.0, cfg.mix.1, cfg.mix.2, cfg.mix_batch]).unwrap(),
        );
        meta.insert("quick", Value::Bool(cfg.quick));
        merge_bench_out(path, &bench_entries, Value::Object(meta))?;
        println!("merged {} load entries into {path}", bench_entries.len());
    }

    if let Some(path) = &cfg.check {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading baseline {path}: {e}"))?;
        let baseline: Value =
            serde_json::from_str(&text).map_err(|e| format!("parsing baseline {path}: {e}"))?;
        let pairs: Vec<(String, f64)> = bench_entries
            .iter()
            .map(|(id, e)| (id.clone(), e["min_ns"].as_f64().unwrap_or(0.0)))
            .collect();
        let failures = super::baseline::check_against(&pairs, &baseline, LOAD_TOLERANCE)?;
        if failures.is_empty() {
            println!("load check vs {path}: OK");
        } else {
            return Err(format!(
                "load latency regression vs {path}:\n  {}",
                failures.join("\n  ")
            ));
        }
    }

    if cfg.strict {
        let proto: u64 = steps.iter().map(|s| s.protocol_errors).sum();
        if proto > 0 {
            return Err(format!("strict: {proto} protocol errors"));
        }
        let dedup: u64 = steps.iter().map(|s| s.dedup_delta).sum();
        if cfg.mix.1 > 0.0 && dedup == 0 {
            return Err("strict: duplicate mix produced zero dedup hits".into());
        }
        // Each hot rotation warms the gateway's raw-byte cache by its
        // second flight, so a wire hit needs a *third* wave of
        // duplicates inside one rotation window. The gate only arms
        // when the duplicate pressure makes that statistically certain
        // (≥ 2 expected duplicates per rotation at the sweep's top
        // rate, across dozens of rotations); below that, zero hits
        // means the traffic was too sparse, not that the path broke.
        let wire: u64 = steps.iter().map(|s| s.wire_delta).sum();
        let top_rate = cfg.rate * if cfg.quick { 1.0 } else { 3.0 };
        let rotation_s = (2 * cfg.hot_ms).max(20) as f64 / 1e3;
        let dups_per_rotation = top_rate * cfg.mix.1 * rotation_s;
        if cfg.mix.1 > 0.0 && dups_per_rotation >= 2.0 && wire == 0 {
            return Err(format!(
                "strict: duplicate mix produced zero wire-cache hits \
                 ({dups_per_rotation:.1} expected duplicates per hot rotation)"
            ));
        }
        let patched: u64 = steps.iter().map(|s| s.patched).sum();
        if cfg.mix.2 > 0.0 && patched == 0 {
            return Err("strict: patch mix produced zero patch ops".into());
        }
        let batches: u64 = steps.iter().map(|s| s.batch).sum();
        if cfg.mix_batch > 0.0 && batches == 0 {
            return Err("strict: batch mix sent zero schedule_many requests".into());
        }
        let ooo: u64 = steps.iter().map(|s| s.batch_ooo).sum();
        if ooo > 0 {
            return Err(format!("strict: {ooo} batch replies arrived out of order"));
        }
        // unknown_parent replies are expected under instance-cache churn
        // and explicitly tolerated; they are reported, never fatal
        let misses: u64 = steps.iter().map(|s| s.patch_miss).sum();
        println!(
            "strict checks passed: 0 protocol errors, {dedup} dedup hits, \
             {wire} wire-cache hits, \
             {patched} patch ops ({misses} unknown_parent, tolerated), \
             {batches} batches all in order"
        );
    }
    Ok(())
}
