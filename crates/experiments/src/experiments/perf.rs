//! `perf`: wall-clock benchmark of the scheduling hot path — the
//! fig10-runtime grid (every heterogeneous scheduler × DAG size), the
//! large-instance point the engine optimizations target (n = 3200), and
//! the serve cache-miss path (request parse → queue → schedule → reply).
//!
//! Results are keyed `"<experiment>/n<N>/<algo>"` and stored as
//! `{n, procs, algo, median_ns, min_ns, reps}`, the schema of the
//! committed `BENCH_PR2.json` trajectory baseline. `--check <file>`
//! compares the fresh run's per-entry minimum against such a baseline and
//! fails on a >25% regression after dividing out the machine-speed factor
//! (the median ratio across all shared entries), so a uniformly slower CI
//! runner passes while a genuinely regressed hot path does not. Entries
//! above tolerance are re-measured up to three times before failing, so
//! only a slowdown that persists across independent passes counts.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hetsched_core::algorithms::{all_heterogeneous, by_name};
use hetsched_core::{
    repairable, run_portfolio, CostAggregation, Delta, ProblemInstance, Scheduler,
};
use hetsched_dag::TaskId;
use hetsched_metrics::table::TextTable;
use hetsched_platform::{EtcParams, ProcId, System};
use hetsched_serve::{ServeConfig, Service};
use hetsched_workloads::{random_dag, RandomDagParams};
use serde_json::{json, Value};

use crate::config::Config;
use crate::runner::instance_seed;

/// Relative slowdown (after machine-factor normalization) tolerated by
/// `--check` before an entry counts as a regression.
const REGRESSION_TOLERANCE: f64 = 0.25;

/// One measured point of the benchmark.
struct BenchEntry {
    id: String,
    n: usize,
    procs: usize,
    algo: String,
    median_ns: f64,
    min_ns: f64,
    reps: usize,
}

/// Target wall time per sample: short runs are batched until one sample
/// spans at least this long, averaging out timer and OS-scheduler jitter.
const SAMPLE_TARGET_NS: f64 = 2e6;

/// Time `reps` samples of `f`, returning `(median_ns, min_ns)` per run.
///
/// A calibration run sizes a batch so each sample covers
/// [`SAMPLE_TARGET_NS`]; microsecond-scale runs are then measured as the
/// mean of dozens of consecutive runs instead of a single noisy interval.
/// The median is what humans read; the minimum is what `--check`
/// compares, because contention on a shared machine only ever adds time.
fn bench<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, f64) {
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = t0.elapsed().as_nanos() as f64;
    let batch = ((SAMPLE_TARGET_NS / once.max(1.0)).ceil() as usize).clamp(1, 1000);
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (samples[samples.len() / 2], samples[0])
}

/// The fig10-runtime grid: every heterogeneous scheduler on one random
/// instance per size, same seeds as the `fig10-runtime` experiment.
fn grid_entries(cfg: &Config, reps: usize) -> Vec<BenchEntry> {
    let sizes: &[usize] = if cfg.quick {
        &[100, 200]
    } else {
        &[100, 200, 400, 800, 1600]
    };
    let algs = all_heterogeneous();
    let mut out = Vec::new();
    for (si, &n) in sizes.iter().enumerate() {
        let seed = instance_seed(cfg.seed ^ 0xf16, si as u64, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let dag = random_dag(&RandomDagParams::new(n, 1.0, 1.0), &mut rng);
        let sys =
            System::heterogeneous_random(&dag, cfg.procs, &EtcParams::range_based(1.0), &mut rng);
        // sub-millisecond runs at small n need more samples for a stable
        // median than the second-scale large instances
        let reps = if n <= 400 { reps.max(15) } else { reps };
        for alg in &algs {
            let (med, min) = bench(reps, || alg.schedule(&dag, &sys).makespan());
            out.push(BenchEntry {
                id: format!("fig10/n{n}/{}", alg.name()),
                n,
                procs: cfg.procs,
                algo: alg.name().to_string(),
                median_ns: med,
                min_ns: min,
                reps,
            });
        }
    }
    out
}

/// The large-instance point the EFT engine overhaul targets: HEFT and
/// ILS-H at n = 3200 (skipped under `--quick`; the grid covers the smoke
/// run).
fn large_entries(cfg: &Config, reps: usize) -> Vec<BenchEntry> {
    if cfg.quick {
        return Vec::new();
    }
    let n = 3200usize;
    let seed = instance_seed(cfg.seed ^ 0xf16, 0x3200, 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = random_dag(&RandomDagParams::new(n, 1.0, 1.0), &mut rng);
    let sys = System::heterogeneous_random(&dag, cfg.procs, &EtcParams::range_based(1.0), &mut rng);
    ["HEFT", "ILS-H"]
        .iter()
        .map(|name| {
            let alg = by_name(name).expect("registry has HEFT and ILS-H");
            let (med, min) = bench(reps, || alg.schedule(&dag, &sys).makespan());
            BenchEntry {
                id: format!("large/n{n}/{name}"),
                n,
                procs: cfg.procs,
                algo: name.to_string(),
                median_ns: med,
                min_ns: min,
                reps,
            }
        })
        .collect()
}

/// The incremental-rescheduling section the repair path targets: a fresh
/// HEFT run on the patched problem versus `apply_deltas` + `repair` from
/// the parent schedule, on a one-ETC-entry delta near the sink (most of
/// the rank order replays, only the tail reschedules). Quick mode keeps
/// the n = 800 point so CI gates the same ids against a full baseline;
/// the full run adds the n = 3200 headline entry.
fn repair_entries(cfg: &Config, reps: usize) -> Vec<BenchEntry> {
    let sizes: &[usize] = if cfg.quick { &[800] } else { &[800, 3200] };
    let reps = reps.max(5);
    let mut out = Vec::new();
    for &n in sizes {
        let seed = instance_seed(cfg.seed ^ 0x4e9a, n as u64, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let dag = random_dag(&RandomDagParams::new(n, 1.0, 1.0), &mut rng);
        let sys =
            System::heterogeneous_random(&dag, cfg.procs, &EtcParams::range_based(1.0), &mut rng);
        let parent_inst = ProblemInstance::from_refs(&dag, &sys);
        let heft = by_name("HEFT").expect("registry has HEFT");
        let repairer = repairable("HEFT").expect("HEFT is repair-capable");
        // scheduling the parent warms its rank memo, exactly as a serve
        // shard's instance cache would hold it when a patch arrives
        let parent = heft.schedule_instance(&parent_inst);
        // dirty the task HEFT schedules last (minimum upward rank) and
        // nudge one of its ETC entries by 2%: a realistic re-estimate
        // small enough to leave the prefix rank order intact, so nearly
        // the whole parent schedule replays
        let ranks = parent_inst.upward_rank(CostAggregation::Mean);
        let last = ranks
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty DAG");
        let task = TaskId(last as u32);
        let deltas = [Delta::EtcEntry {
            task,
            proc: ProcId(0),
            time: sys.exec_time(task, ProcId(0)) * 1.02,
        }];
        let patched_once = parent_inst
            .apply_deltas(&deltas)
            .expect("ETC delta applies");
        let entry = |id: String, algo: &str, (median_ns, min_ns): (f64, f64)| BenchEntry {
            id,
            n,
            procs: cfg.procs,
            algo: algo.to_string(),
            median_ns,
            min_ns,
            reps,
        };
        out.push(entry(
            format!("repair/n{n}/fresh"),
            "HEFT",
            bench(reps, || {
                heft.schedule(patched_once.instance.dag(), patched_once.instance.sys())
                    .makespan()
            }),
        ));
        out.push(entry(
            format!("repair/n{n}/repair"),
            "HEFT",
            bench(reps, || {
                let patched = parent_inst
                    .apply_deltas(&deltas)
                    .expect("ETC delta applies");
                let (sched, _stats) =
                    repairer.repair(&patched.instance, &patched.dirty, &parent_inst, &parent);
                sched.makespan()
            }),
        ));
    }
    out
}

/// The serve cache-miss path: a fresh daemon per repetition handles one
/// schedule request end to end (parse, validate, enqueue, schedule on a
/// worker thread, reply) with a cold cache.
fn serve_entries(cfg: &Config, reps: usize) -> Vec<BenchEntry> {
    // thread spawn + channel round-trips make single runs noisy; take more
    // samples than the scheduling-only entries need
    let reps = reps.max(15);
    let n = if cfg.quick { 100usize } else { 400 };
    let tasks: Vec<String> = (0..n)
        .map(|i| format!("{{\"weight\":{}}}", i % 7 + 1))
        .collect();
    let edges: Vec<String> = (1..n)
        .map(|i| format!("{{\"src\":{},\"dst\":{i},\"data\":2.5}}", (i - 1) / 2))
        .collect();
    let line = format!(
        "{{\"op\":\"schedule\",\"dag\":{{\"tasks\":[{}],\"edges\":[{}]}},\
         \"system\":{{\"processors\":{{\"kind\":\"homogeneous\",\"count\":{}}},\
         \"network\":{{\"topology\":\"fully_connected\",\"bandwidth\":1.0}}}},\
         \"algorithm\":\"HEFT\",\"options\":{{}}}}",
        tasks.join(","),
        edges.join(","),
        cfg.procs,
    );
    let (med, min) = bench(reps, || {
        let svc = Service::start(ServeConfig {
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 8,
            instance_cache_capacity: 8,
            default_deadline_ms: 60_000,
        });
        let resp = svc.handle_line_bytes(&line);
        svc.shutdown();
        resp
    });
    vec![BenchEntry {
        id: format!("serve-cache-miss/n{n}/HEFT"),
        n,
        procs: cfg.procs,
        algo: "HEFT".to_string(),
        median_ns: med,
        min_ns: min,
        reps,
    }]
}

/// The repeat path of a shard: one warmed daemon answers the same n = 50
/// schedule request through `handle_line_bytes`, the shard's one request
/// path: full parse, memo hit, preserialized reply bytes. The `fallback`
/// id was named when it measured the path a wire-cache miss fell back
/// to; the baselines key it so.
fn wire_entries(cfg: &Config, reps: usize) -> Vec<BenchEntry> {
    let reps = reps.max(15);
    let n = 50usize;
    let tasks: Vec<String> = (0..n)
        .map(|i| format!("{{\"weight\":{}}}", i % 7 + 1))
        .collect();
    let edges: Vec<String> = (1..n)
        .map(|i| format!("{{\"src\":{},\"dst\":{i},\"data\":2.5}}", (i - 1) / 2))
        .collect();
    let line = format!(
        "{{\"op\":\"schedule\",\"dag\":{{\"tasks\":[{}],\"edges\":[{}]}},\
         \"system\":{{\"processors\":{{\"kind\":\"homogeneous\",\"count\":{}}},\
         \"network\":{{\"topology\":\"fully_connected\",\"bandwidth\":1.0}}}},\
         \"algorithm\":\"HEFT\",\"options\":{{}}}}",
        tasks.join(","),
        edges.join(","),
        cfg.procs,
    );
    let svc = Service::start(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 8,
        instance_cache_capacity: 8,
        default_deadline_ms: 60_000,
    });
    // warm to the fixed point: the first call computes and fills the
    // memo, the second serializes the memo line, so every benched call
    // below is a steady-state repeat
    let first = svc.handle_line_bytes(&line);
    assert!(
        first.starts_with(b"{\"status\":\"ok\""),
        "wire bench warmup failed: {}",
        String::from_utf8_lossy(&first)
    );
    svc.handle_line_bytes(&line);

    let entry = |id: String, (median_ns, min_ns): (f64, f64)| BenchEntry {
        id,
        n,
        procs: cfg.procs,
        algo: "HEFT".to_string(),
        median_ns,
        min_ns,
        reps,
    };
    let out = vec![entry(
        format!("wire/n{n}/fallback"),
        bench(reps, || svc.handle_line_bytes(&line)),
    )];
    svc.shutdown();
    out
}

/// The multi-algorithm path the shared [`ProblemInstance`] targets: the
/// same (DAG, system) pair scheduled by every registered heterogeneous
/// algorithm, measured three ways — fresh per-call transient instances
/// (the pre-IR cost), one shared memoized instance walked sequentially,
/// and the parallel portfolio runner. `run_perf` reports the fresh →
/// portfolio ratio as the headline multi-algorithm speedup.
fn multi_alg_entries(cfg: &Config, reps: usize) -> Vec<BenchEntry> {
    let reps = reps.max(10);
    let n = if cfg.quick { 100usize } else { 400 };
    let seed = instance_seed(cfg.seed ^ 0x9f0, n as u64, 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = random_dag(&RandomDagParams::new(n, 1.0, 1.0), &mut rng);
    let sys = System::heterogeneous_random(&dag, cfg.procs, &EtcParams::range_based(1.0), &mut rng);
    let algs = all_heterogeneous();
    let refs: Vec<&(dyn Scheduler + Send + Sync)> = algs.iter().map(|b| &**b).collect();

    let entry = |id: String, (median_ns, min_ns): (f64, f64), reps: usize| BenchEntry {
        id,
        n,
        procs: cfg.procs,
        algo: "ALL".to_string(),
        median_ns,
        min_ns,
        reps,
    };
    vec![
        entry(
            format!("multi-alg/n{n}/fresh"),
            bench(reps, || {
                let mut acc = 0.0f64;
                for alg in &algs {
                    acc += alg.schedule(&dag, &sys).makespan();
                }
                acc
            }),
            reps,
        ),
        entry(
            format!("multi-alg/n{n}/shared"),
            bench(reps, || {
                // instance construction inside the sample: the comparison
                // includes everything a caller pays per (DAG, system) pair
                let inst = ProblemInstance::from_refs(&dag, &sys);
                let mut acc = 0.0f64;
                for alg in &algs {
                    acc += alg.schedule_instance(&inst).makespan();
                }
                acc
            }),
            reps,
        ),
        entry(
            format!("multi-alg/n{n}/portfolio"),
            bench(reps, || {
                let inst = ProblemInstance::from_refs(&dag, &sys);
                run_portfolio(&inst, &refs).best_entry().makespan
            }),
            reps,
        ),
    ]
}

/// The serve-side multi-algorithm path, measured both ways a client can
/// get four algorithms out of the daemon: one `portfolio` request (the
/// request is parsed once, the instance is built once, the members fan out
/// across the worker pool) versus four individual `schedule` requests
/// (each pays its own JSON parse, spec validation, and reply round-trip —
/// the instance cache only spares the rebuild from the second request on).
/// Both run against a fresh daemon with cold caches; `run_perf` reports
/// the individual → portfolio ratio as the serve multi-algorithm speedup.
fn serve_portfolio_entries(cfg: &Config, reps: usize) -> Vec<BenchEntry> {
    let reps = reps.max(10);
    let n = if cfg.quick { 100usize } else { 400 };
    const ALGS: [&str; 4] = ["HEFT", "CPOP", "PETS", "ILS-H"];
    let tasks: Vec<String> = (0..n)
        .map(|i| format!("{{\"weight\":{}}}", i % 7 + 1))
        .collect();
    let edges: Vec<String> = (1..n)
        .map(|i| format!("{{\"src\":{},\"dst\":{i},\"data\":2.5}}", (i - 1) / 2))
        .collect();
    let problem = format!(
        "\"dag\":{{\"tasks\":[{}],\"edges\":[{}]}},\
         \"system\":{{\"processors\":{{\"kind\":\"homogeneous\",\"count\":{}}},\
         \"network\":{{\"topology\":\"fully_connected\",\"bandwidth\":1.0}}}}",
        tasks.join(","),
        edges.join(","),
        cfg.procs,
    );
    let portfolio_line = format!(
        "{{\"op\":\"portfolio\",{problem},\
         \"algorithms\":[\"HEFT\",\"CPOP\",\"PETS\",\"ILS-H\"],\"options\":{{}}}}"
    );
    let schedule_lines: Vec<String> = ALGS
        .iter()
        .map(|a| {
            format!("{{\"op\":\"schedule\",{problem},\"algorithm\":\"{a}\",\"options\":{{}}}}")
        })
        .collect();
    let fresh_service = || {
        Service::start(ServeConfig {
            workers: 4,
            queue_capacity: 16,
            cache_capacity: 8,
            instance_cache_capacity: 8,
            default_deadline_ms: 60_000,
        })
    };
    let entry = |id: String, (median_ns, min_ns): (f64, f64)| BenchEntry {
        id,
        n,
        procs: cfg.procs,
        algo: ALGS.join(","),
        median_ns,
        min_ns,
        reps,
    };
    vec![
        entry(
            format!("serve-portfolio/n{n}/4algs"),
            bench(reps, || {
                let svc = fresh_service();
                let resp = svc.handle_line_bytes(&portfolio_line);
                svc.shutdown();
                resp
            }),
        ),
        entry(
            format!("serve-multi-alg/n{n}/individual"),
            bench(reps, || {
                let svc = fresh_service();
                let mut out = Vec::with_capacity(ALGS.len());
                for line in &schedule_lines {
                    out.push(svc.handle_line_bytes(line));
                }
                svc.shutdown();
                out
            }),
        ),
    ]
}

/// The batched-serving section: a stream of small (n = 50) random DAGs —
/// the high-QPS serve regime. `sequential` prices the library work alone:
/// N HEFT `schedule_instance` calls. The daemon pair sends N individual
/// `schedule` request lines versus one `schedule_many` line, both against
/// a fresh daemon with cold caches, so it prices the per-request
/// parse/validate/enqueue/reply overhead the batch op amortizes.
/// `run_perf` reports that ratio as a headline number.
fn many_entries(cfg: &Config, reps: usize) -> Vec<BenchEntry> {
    let reps = reps.max(10);
    let batch = if cfg.quick { 8usize } else { 16 };
    let n = 50usize;

    // library level: distinct random instances, one per stream slot
    let insts: Vec<ProblemInstance<'static>> = (0..batch)
        .map(|bi| {
            let seed = instance_seed(cfg.seed ^ 0x3a9, bi as u64, 0);
            let mut rng = StdRng::seed_from_u64(seed);
            let dag = random_dag(&RandomDagParams::new(n, 1.0, 1.0), &mut rng);
            let sys = System::heterogeneous_random(
                &dag,
                cfg.procs,
                &EtcParams::range_based(1.0),
                &mut rng,
            );
            ProblemInstance::new(dag, sys)
        })
        .collect();
    let heft = by_name("HEFT").expect("registry has HEFT");

    // serve level: the same stream shape as NDJSON lines (deterministic
    // weights varied per slot so every instance fingerprints distinctly)
    let problem_json = |bi: usize| {
        let tasks: Vec<String> = (0..n)
            .map(|i| format!("{{\"weight\":{}}}", (i + bi) % 7 + 1))
            .collect();
        let edges: Vec<String> = (1..n)
            .map(|i| format!("{{\"src\":{},\"dst\":{i},\"data\":2.5}}", (i - 1) / 2))
            .collect();
        format!(
            "\"dag\":{{\"tasks\":[{}],\"edges\":[{}]}},\
             \"system\":{{\"processors\":{{\"kind\":\"homogeneous\",\"count\":{}}},\
             \"network\":{{\"topology\":\"fully_connected\",\"bandwidth\":1.0}}}}",
            tasks.join(","),
            edges.join(","),
            cfg.procs,
        )
    };
    let schedule_lines: Vec<String> = (0..batch)
        .map(|bi| {
            format!(
                "{{\"op\":\"schedule\",{},\"algorithm\":\"HEFT\",\"options\":{{}}}}",
                problem_json(bi)
            )
        })
        .collect();
    let many_line = format!(
        "{{\"op\":\"schedule_many\",\"instances\":[{}],\"algorithm\":\"HEFT\",\"options\":{{}}}}",
        (0..batch)
            .map(|bi| format!("{{{}}}", problem_json(bi)))
            .collect::<Vec<_>>()
            .join(","),
    );
    let fresh_service = || {
        Service::start(ServeConfig {
            workers: 2,
            queue_capacity: 32,
            cache_capacity: 32,
            instance_cache_capacity: 32,
            default_deadline_ms: 60_000,
        })
    };

    let entry = |id: String, (median_ns, min_ns): (f64, f64)| BenchEntry {
        id,
        n,
        procs: cfg.procs,
        algo: "HEFT".to_string(),
        median_ns,
        min_ns,
        reps,
    };
    vec![
        entry(
            format!("many/n{n}x{batch}/sequential"),
            bench(reps, || {
                let mut acc = 0.0f64;
                for inst in &insts {
                    acc += heft.schedule_instance(inst).makespan();
                }
                acc
            }),
        ),
        entry(
            format!("many/n{n}x{batch}/serve-individual"),
            bench(reps, || {
                let svc = fresh_service();
                let mut out = Vec::with_capacity(schedule_lines.len());
                for line in &schedule_lines {
                    out.push(svc.handle_line_bytes(line));
                }
                svc.shutdown();
                out
            }),
        ),
        entry(
            format!("many/n{n}x{batch}/serve-batch"),
            bench(reps, || {
                let svc = fresh_service();
                let resp = svc.handle_line_bytes(&many_line);
                svc.shutdown();
                resp
            }),
        ),
    ]
}

/// The search-scheduler section: GA, ILS-D, and DUP-HEFT at `jobs` 1 vs 4
/// on fig10-style instances, plus a budget-capped BNB. Ids are
/// `search/<algo>/n<N>/jobs<J>`. Schedules are bit-identical at any thread
/// count, so the jobs=4 entries measure pure wall-clock effect. GA and BNB
/// fan out over `par_map_collect`, so their ratio depends on the host's
/// cores; ILS-D and DUP-HEFT never read `jobs`, so theirs is ~1x and their
/// jobs=4 ids only keep committed baselines comparable. `--check`
/// normalizes by the median ratio, so any host passes against any
/// baseline.
fn search_entries(cfg: &Config, reps: usize) -> Vec<BenchEntry> {
    let reps = reps.max(5);
    let sizes: &[usize] = if cfg.quick { &[200] } else { &[200, 400] };
    let mut out = Vec::new();
    for &n in sizes {
        let seed = instance_seed(cfg.seed ^ 0x5ea, n as u64, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let dag = random_dag(&RandomDagParams::new(n, 1.0, 1.0), &mut rng);
        let sys =
            System::heterogeneous_random(&dag, cfg.procs, &EtcParams::range_based(1.0), &mut rng);
        for name in ["GA", "ILS-D", "DUP-HEFT"] {
            let alg = by_name(name).expect("registry has the search schedulers");
            for jobs in [1usize, 4] {
                let (med, min) = bench(reps, || {
                    hetsched_core::par::with_jobs(jobs, || alg.schedule(&dag, &sys).makespan())
                });
                out.push(BenchEntry {
                    id: format!("search/{name}/n{n}/jobs{jobs}"),
                    n,
                    procs: cfg.procs,
                    algo: name.to_string(),
                    median_ns: med,
                    min_ns: min,
                    reps,
                });
            }
        }
    }
    // BNB explores a fixed node budget regardless of thread count, so a
    // small instance with a capped budget gives a stable per-node cost.
    let n = 30usize;
    let seed = instance_seed(cfg.seed ^ 0x5ea, 0xb0b, 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = random_dag(&RandomDagParams::new(n, 1.0, 1.0), &mut rng);
    let sys = System::heterogeneous_random(&dag, 3, &EtcParams::range_based(1.0), &mut rng);
    let bnb = hetsched_core::algorithms::BranchAndBound {
        node_budget: 20_000,
    };
    for jobs in [1usize, 4] {
        let (med, min) = bench(reps, || {
            hetsched_core::par::with_jobs(jobs, || bnb.schedule(&dag, &sys).makespan())
        });
        out.push(BenchEntry {
            id: format!("search/BNB/n{n}/jobs{jobs}"),
            n,
            procs: 3,
            algo: "BNB".to_string(),
            median_ns: med,
            min_ns: min,
            reps,
        });
    }
    out
}

fn to_json(entries: &[BenchEntry], cfg: &Config) -> Value {
    let mut obj = serde_json::Map::new();
    // `meta` pins the invocation (seed, reps, config fingerprint); the
    // `--check` comparator looks up entries by their own ids only, so a
    // baseline with or without this key works either way.
    obj.insert("meta".to_string(), cfg.meta_json("perf"));
    for e in entries {
        obj.insert(
            e.id.clone(),
            json!({
                "n": e.n,
                "procs": e.procs,
                "algo": e.algo,
                "median_ns": e.median_ns,
                "min_ns": e.min_ns,
                "reps": e.reps,
            }),
        );
    }
    Value::Object(obj)
}

/// Phase-level profile: one traced run per headline algorithm on a
/// fig10-sized instance, splitting wall time into the spans the schedulers
/// mark (rank computation vs the placement loop). Runs with tracing
/// enabled, so these numbers carry the (small) capture overhead and are
/// reported separately from the benchmark entries `--check` compares.
fn phase_profile(cfg: &Config) -> (String, Value) {
    let n = if cfg.quick { 200usize } else { 1600 };
    let seed = instance_seed(cfg.seed ^ 0xfa5e, n as u64, 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = random_dag(&RandomDagParams::new(n, 1.0, 1.0), &mut rng);
    let sys = System::heterogeneous_random(&dag, cfg.procs, &EtcParams::range_based(1.0), &mut rng);

    let mut table = TextTable::new(vec![
        "algo".into(),
        "phase".into(),
        "ms".into(),
        "share".into(),
    ]);
    let mut obj = serde_json::Map::new();
    for name in ["HEFT", "ILS-H", "ILS-D"] {
        let alg = by_name(name).expect("registry has the headline algorithms");
        let (_sched, trace) = hetsched_core::traced_schedule(&alg, &dag, &sys);
        let wall = trace.wall_ns.max(1) as f64;
        let mut phases = Vec::new();
        for p in &trace.phases {
            let pct = 100.0 * p.dur_ns as f64 / wall;
            table.row(vec![
                name.to_string(),
                p.name.clone(),
                format!("{:.3}", p.dur_ns as f64 / 1e6),
                format!("{pct:.1}%"),
            ]);
            phases.push(json!({
                "name": p.name,
                "ms": p.dur_ns as f64 / 1e6,
                "pct": pct,
            }));
        }
        obj.insert(
            name.to_string(),
            json!({
                "wall_ms": trace.wall_ns as f64 / 1e6,
                "phases": phases,
            }),
        );
    }
    let text = format!(
        "== perf phase profile (traced, n={n}) ==\n{}",
        table.render()
    );
    (text, json!({ "n": n, "algos": Value::Object(obj) }))
}

/// Compare fresh entries (by their noise-robust minimum) against a
/// baseline JSON document via the shared machine-factor-normalizing
/// comparator. Returns the list of regression messages (empty = pass).
fn check_against(entries: &[BenchEntry], baseline: &Value) -> Result<Vec<String>, String> {
    let pairs: Vec<(String, f64)> = entries.iter().map(|e| (e.id.clone(), e.min_ns)).collect();
    super::baseline::check_against(&pairs, baseline, REGRESSION_TOLERANCE)
}

/// Measure every benchmark entry once.
fn measure(cfg: &Config, reps: usize) -> Vec<BenchEntry> {
    let mut entries = grid_entries(cfg, reps);
    entries.extend(large_entries(cfg, reps));
    entries.extend(repair_entries(cfg, reps));
    entries.extend(serve_entries(cfg, reps));
    entries.extend(wire_entries(cfg, reps));
    entries.extend(multi_alg_entries(cfg, reps));
    entries.extend(serve_portfolio_entries(cfg, reps));
    entries.extend(many_entries(cfg, reps));
    entries.extend(search_entries(cfg, reps));
    entries
}

/// Run the perf benchmark: measure, print, optionally write `--bench-out`,
/// optionally compare against `--check`.
pub fn run_perf(cfg: &Config) -> Result<(), String> {
    let reps = cfg.reps.max(3);
    let mut entries = measure(cfg, reps);

    let mut table = TextTable::new(vec![
        "id".into(),
        "n".into(),
        "procs".into(),
        "median_ms".into(),
    ]);
    for e in &entries {
        table.row(vec![
            e.id.clone(),
            e.n.to_string(),
            e.procs.to_string(),
            format!("{:.3}", e.median_ns / 1e6),
        ]);
    }
    println!("== perf (median of {reps} runs) ==");
    println!("{}", table.render());

    // headline ratio of the shared-instance work: the same algorithm set
    // over the same pair, sequential fresh instances vs the portfolio
    let fresh = entries
        .iter()
        .find(|e| e.id.starts_with("multi-alg/") && e.id.ends_with("/fresh"));
    let shared = entries
        .iter()
        .find(|e| e.id.starts_with("multi-alg/") && e.id.ends_with("/shared"));
    let port = entries
        .iter()
        .find(|e| e.id.starts_with("multi-alg/") && e.id.ends_with("/portfolio"));
    if let (Some(f), Some(s), Some(p)) = (fresh, shared, port) {
        println!(
            "multi-algorithm path: fresh {:.2} ms, shared instance {:.2} ms ({:.2}x), \
             portfolio {:.2} ms ({:.2}x speedup)\n",
            f.min_ns / 1e6,
            s.min_ns / 1e6,
            f.min_ns / s.min_ns,
            p.min_ns / 1e6,
            f.min_ns / p.min_ns,
        );
    }

    // same comparison through the daemon: four schedule round-trips vs one
    // portfolio request, both against cold caches
    let individual = entries
        .iter()
        .find(|e| e.id.starts_with("serve-multi-alg/") && e.id.ends_with("/individual"));
    let serve_port = entries
        .iter()
        .find(|e| e.id.starts_with("serve-portfolio/"));
    if let (Some(i), Some(p)) = (individual, serve_port) {
        println!(
            "serve multi-algorithm path: 4 schedule requests {:.2} ms, \
             1 portfolio request {:.2} ms ({:.2}x speedup)\n",
            i.min_ns / 1e6,
            p.min_ns / 1e6,
            i.min_ns / p.min_ns,
        );
    }

    // the batched serve path: one schedule_many request line vs the
    // equivalent stream of individual round trips
    let srv_ind = entries
        .iter()
        .find(|e| e.id.starts_with("many/") && e.id.ends_with("/serve-individual"));
    let srv_bat = entries
        .iter()
        .find(|e| e.id.starts_with("many/") && e.id.ends_with("/serve-batch"));
    if let (Some(i), Some(b)) = (srv_ind, srv_bat) {
        println!(
            "serve batched path: individual requests {:.2} ms, 1 schedule_many request {:.2} ms ({:.2}x speedup)\n",
            i.min_ns / 1e6,
            b.min_ns / 1e6,
            i.min_ns / b.min_ns,
        );
    }

    // the incremental-rescheduling path: apply_deltas + repair from the
    // parent schedule vs a fresh run on the patched problem
    for ef in entries
        .iter()
        .filter(|e| e.id.starts_with("repair/") && e.id.ends_with("/fresh"))
    {
        let rid = ef.id.replace("/fresh", "/repair");
        if let Some(er) = entries.iter().find(|e| e.id == rid) {
            println!(
                "repair n={}: fresh {:.2} ms, apply+repair {:.2} ms ({:.2}x speedup)",
                ef.n,
                ef.min_ns / 1e6,
                er.min_ns / 1e6,
                ef.min_ns / er.min_ns,
            );
        }
    }
    println!();

    // the search-scheduler parallel layer: jobs=4 against jobs=1 per
    // algorithm (GA and BNB fan out; ILS-D and DUP-HEFT read ≈1x)
    for e1 in entries
        .iter()
        .filter(|e| e.id.starts_with("search/") && e.id.ends_with("/jobs1"))
    {
        let id4 = e1.id.replace("/jobs1", "/jobs4");
        if let Some(e4) = entries.iter().find(|e| e.id == id4) {
            println!(
                "search {}: jobs=1 {:.2} ms, jobs=4 {:.2} ms ({:.2}x speedup)",
                e1.algo,
                e1.min_ns / 1e6,
                e4.min_ns / 1e6,
                e1.min_ns / e4.min_ns,
            );
        }
    }
    println!();

    let (phase_text, phase_json) = phase_profile(cfg);
    println!("{phase_text}");

    if let Some(path) = &cfg.bench_out {
        let mut doc = to_json(&entries, cfg);
        if let Value::Object(map) = &mut doc {
            map.insert("phase_profile".to_string(), phase_json);
        }
        std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = &cfg.check {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading baseline {path}: {e}"))?;
        let baseline: Value =
            serde_json::from_str(&text).map_err(|e| format!("parsing baseline {path}: {e}"))?;
        let mut failures = check_against(&entries, &baseline)?;
        // a contended runner can elevate even the min of a whole pass;
        // only a slowdown that persists across independent re-measures is
        // a regression, so retry and keep the best min seen per entry
        let mut attempt = 0;
        while !failures.is_empty() && attempt < 3 {
            attempt += 1;
            println!(
                "perf check: {} entries above tolerance, re-measuring ({attempt}/3)",
                failures.len()
            );
            for fresh in measure(cfg, reps) {
                if let Some(e) = entries.iter_mut().find(|e| e.id == fresh.id) {
                    e.min_ns = e.min_ns.min(fresh.min_ns);
                }
            }
            failures = check_against(&entries, &baseline)?;
        }
        if failures.is_empty() {
            println!("perf check vs {path}: OK");
        } else {
            return Err(format!(
                "perf regression vs {path}:\n  {}",
                failures.join("\n  ")
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, ns: f64) -> BenchEntry {
        BenchEntry {
            id: id.into(),
            n: 100,
            procs: 8,
            algo: "HEFT".into(),
            median_ns: ns,
            min_ns: ns,
            reps: 3,
        }
    }

    #[test]
    fn check_normalizes_out_machine_speed() {
        // everything uniformly 3x slower: a slower machine, not a
        // regression
        let entries = vec![entry("a", 300.0), entry("b", 600.0), entry("c", 900.0)];
        let baseline = json!({
            "a": json!({"min_ns": 100.0}),
            "b": json!({"min_ns": 200.0}),
            "c": json!({"min_ns": 300.0}),
        });
        assert!(check_against(&entries, &baseline).unwrap().is_empty());
    }

    #[test]
    fn check_flags_single_entry_regression() {
        // one entry 2x while the rest hold: a real hot-path regression
        let entries = vec![entry("a", 100.0), entry("b", 200.0), entry("c", 600.0)];
        let baseline = json!({
            "a": json!({"min_ns": 100.0}),
            "b": json!({"min_ns": 200.0}),
            "c": json!({"min_ns": 300.0}),
        });
        let failures = check_against(&entries, &baseline).unwrap();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("c:"), "{failures:?}");
    }

    #[test]
    fn check_rejects_disjoint_baseline() {
        let entries = vec![entry("a", 100.0)];
        let baseline = json!({"z": json!({"median_ns": 100.0})});
        assert!(check_against(&entries, &baseline).is_err());
    }
}
