//! Command implementations. Each returns the text it would print, so the
//! tests exercise commands without process spawning or stdout capture.

use rand::rngs::StdRng;
use rand::SeedableRng;

use hetsched_core::{validate, Schedule};
use hetsched_dag::io::DagSpec;
use hetsched_dag::Dag;
use hetsched_metrics::gantt::{to_svg, GanttStyle};
use hetsched_metrics::{bounds, slr, speedup};
use hetsched_platform::{System, SystemSpec};
use hetsched_serve::{Request, RequestOptions, TraceCtx};
use hetsched_sim::{simulate, Noise, SimConfig};

use crate::args::{check_allowed, Flags};
use crate::CliError;

/// Read and parse a JSON file.
fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("reading {path}: {e}")))?;
    Ok(serde_json::from_str(&text)?)
}

fn load_dag(path: &str) -> Result<Dag, CliError> {
    read_json::<DagSpec>(path)?
        .build()
        .map_err(|e| CliError(format!("invalid DAG in {path}: {e}")))
}

fn load_system(path: &str, dag: &Dag) -> Result<System, CliError> {
    read_json::<SystemSpec>(path)?
        .build(dag)
        .map_err(|e| CliError(format!("invalid system in {path}: {e}")))
}

/// `generate` — build a workload and write its [`DagSpec`] JSON.
pub fn generate(flags: &Flags) -> Result<String, CliError> {
    check_allowed(
        flags,
        &[
            "kind",
            "n",
            "m",
            "points",
            "grid",
            "tiles",
            "depth",
            "fanout",
            "sections",
            "width",
            "ccr",
            "alpha",
            "seed",
            "out",
            "avg-comp",
            "series-prob",
        ],
    )?;
    let kind = flags.require("kind")?;
    let out = flags.require("out")?.to_string();
    let ccr: f64 = flags.get_or("ccr", 1.0)?;
    let seed: u64 = flags.get_or("seed", 42)?;
    let avg: f64 = flags.get_or("avg-comp", 10.0)?;
    let mut rng = StdRng::seed_from_u64(seed);

    use hetsched_workloads as w;
    let dag = match kind {
        "random" => w::random_dag(
            &w::RandomDagParams {
                n: flags.get_or("n", 100)?,
                alpha: flags.get_or("alpha", 1.0)?,
                ccr,
                avg_comp: avg,
                ..Default::default()
            },
            &mut rng,
        ),
        "gauss" => w::gauss::gaussian_elimination(flags.get_or("m", 8)?, ccr, &mut rng),
        "fft" => w::fft::fft_butterfly(flags.get_or("points", 16)?, ccr, &mut rng),
        "laplace" => w::laplace::laplace_wavefront(flags.get_or("grid", 8)?, ccr, &mut rng),
        "cholesky" => w::cholesky::tiled_cholesky(flags.get_or("tiles", 5)?, ccr, &mut rng),
        "forkjoin" => w::forkjoin::fork_join(
            flags.get_or("sections", 3)?,
            flags.get_or("width", 8)?,
            avg,
            ccr,
            &mut rng,
        ),
        "stencil" => w::stencil::stencil_1d(
            flags.get_or("depth", 6)?,
            flags.get_or("width", 8)?,
            ccr,
            &mut rng,
        ),
        "irregular" => w::irregular::irregular41(ccr, &mut rng),
        "out-tree" => w::trees::out_tree(
            flags.get_or("depth", 4)?,
            flags.get_or("fanout", 2)?,
            avg,
            ccr,
            &mut rng,
        ),
        "in-tree" => w::trees::in_tree(
            flags.get_or("depth", 4)?,
            flags.get_or("fanout", 2)?,
            avg,
            ccr,
            &mut rng,
        ),
        "divconq" => w::trees::divide_and_conquer(
            flags.get_or("depth", 4)?,
            flags.get_or("fanout", 2)?,
            avg,
            ccr,
            &mut rng,
        ),
        "sp" => w::series_parallel::series_parallel(
            flags.get_or("n", 40)?,
            flags.get_or("series-prob", 0.5)?,
            avg,
            ccr,
            &mut rng,
        ),
        other => return Err(CliError(format!("unknown workload kind `{other}`"))),
    };
    let spec = DagSpec::from_dag(&dag);
    std::fs::write(&out, serde_json::to_string_pretty(&spec)?)?;
    Ok(format!(
        "wrote {out}: {} tasks, {} edges, CCR {:.3}\n",
        dag.num_tasks(),
        dag.num_edges(),
        dag.ccr()
    ))
}

/// Run `f` under the `--jobs` search-parallelism override when the flag
/// was given, otherwise directly (the `HETSCHED_JOBS` env fallback and the
/// machine default then apply, see [`hetsched_core::par::effective_jobs`]).
/// Schedules are bit-identical at any thread count, so `--jobs` changes
/// speed only, never output.
fn with_jobs_flag<R>(flags: &Flags, f: impl FnOnce() -> R) -> Result<R, CliError> {
    match flags.get("jobs") {
        Some(v) => {
            let j: usize = v
                .parse()
                .map_err(|e| CliError(format!("--jobs: invalid value `{v}` ({e})")))?;
            Ok(hetsched_core::par::with_jobs(j.max(1), f))
        }
        None => Ok(f()),
    }
}

/// `schedule` — run an algorithm and optionally export artifacts.
pub fn schedule(flags: &Flags) -> Result<String, CliError> {
    check_allowed(
        flags,
        &["dag", "system", "alg", "out", "gantt", "dot", "jobs"],
    )?;
    let dag = load_dag(flags.require("dag")?)?;
    let sys = load_system(flags.require("system")?, &dag)?;
    let alg_name = flags.require("alg")?;
    let alg = hetsched_core::algorithms::by_name(alg_name).ok_or_else(|| {
        CliError(format!(
            "unknown algorithm `{alg_name}`; run `hetsched-cli algorithms`"
        ))
    })?;
    let sched = with_jobs_flag(flags, || alg.schedule(&dag, &sys))?;
    validate(&dag, &sys, &sched)
        .map_err(|e| CliError(format!("internal error: invalid schedule: {e}")))?;

    let mut out = String::new();
    let m = sched.makespan();
    out.push_str(&format!(
        "{alg_name}: makespan {m:.4}, SLR {:.4}, speedup {:.3}, lower bound {:.4}, {} duplicates\n",
        slr(&dag, &sys, m),
        speedup(&dag, &sys, m),
        bounds::lower_bound(&dag, &sys),
        sched.num_duplicates(),
    ));
    if let Some(path) = flags.get("out") {
        std::fs::write(path, serde_json::to_string_pretty(&sched)?)?;
        out.push_str(&format!("wrote schedule to {path}\n"));
    }
    if let Some(path) = flags.get("gantt") {
        std::fs::write(path, to_svg(&sched, &GanttStyle::default()))?;
        out.push_str(&format!("wrote Gantt chart to {path}\n"));
    }
    if let Some(path) = flags.get("dot") {
        std::fs::write(path, hetsched_dag::dot::to_dot(&dag, "dag"))?;
        out.push_str(&format!("wrote DOT graph to {path}\n"));
    }
    Ok(out)
}

/// `portfolio` — run a set of algorithms in parallel against one shared
/// [`hetsched_core::ProblemInstance`] and report the per-algorithm
/// makespan table plus the winning schedule.
pub fn portfolio(flags: &Flags) -> Result<String, CliError> {
    check_allowed(flags, &["dag", "system", "algs", "out", "gantt", "jobs"])?;
    let dag = load_dag(flags.require("dag")?)?;
    let sys = load_system(flags.require("system")?, &dag)?;
    let names: Vec<String> = match flags.get("algs") {
        Some(s) => s
            .split(',')
            .map(|p| p.trim().to_string())
            .filter(|p| !p.is_empty())
            .collect(),
        None => hetsched_core::algorithms::known_names()
            .iter()
            .map(|s| s.to_string())
            .collect(),
    };
    if names.is_empty() {
        return Err(CliError("--algs lists no algorithms".into()));
    }
    let mut algs = Vec::with_capacity(names.len());
    for name in &names {
        algs.push(hetsched_core::algorithms::by_name(name).ok_or_else(|| {
            CliError(format!(
                "unknown algorithm `{name}`; run `hetsched-cli algorithms`"
            ))
        })?);
    }
    let inst = hetsched_core::ProblemInstance::new(dag, sys);
    let refs: Vec<&(dyn hetsched_core::Scheduler + Send + Sync)> =
        algs.iter().map(|b| &**b).collect();
    let result = with_jobs_flag(flags, || hetsched_core::run_portfolio(&inst, &refs))?;
    let best = result.best_entry();
    validate(inst.dag(), inst.sys(), &best.schedule)
        .map_err(|e| CliError(format!("internal error: invalid schedule: {e}")))?;

    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "portfolio over {} algorithms ({} tasks x {} processors):",
        result.entries.len(),
        inst.dag().num_tasks(),
        inst.sys().num_procs()
    );
    for (i, entry) in result.entries.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:<10} makespan {:>10.4}{}",
            entry.algorithm,
            entry.makespan,
            if i == result.best { "  <- best" } else { "" }
        );
    }
    let _ = writeln!(
        out,
        "best: {} with makespan {:.4}, SLR {:.4}, speedup {:.3}",
        best.algorithm,
        best.makespan,
        slr(inst.dag(), inst.sys(), best.makespan),
        speedup(inst.dag(), inst.sys(), best.makespan),
    );
    if let Some(path) = flags.get("out") {
        std::fs::write(path, serde_json::to_string_pretty(&best.schedule)?)?;
        let _ = writeln!(out, "wrote best schedule to {path}");
    }
    if let Some(path) = flags.get("gantt") {
        std::fs::write(path, to_svg(&best.schedule, &GanttStyle::default()))?;
        let _ = writeln!(out, "wrote Gantt chart to {path}");
    }
    Ok(out)
}

/// `explain` — trace one scheduling run: capture the decision log, engine
/// counters, and phase timings, and export them as a human summary, an
/// NDJSON event log, or a Chrome-trace JSON loadable in Perfetto /
/// `chrome://tracing`.
pub fn explain(flags: &Flags) -> Result<String, CliError> {
    check_allowed(
        flags,
        &["dag", "system", "alg", "format", "out", "jobs", "addr"],
    )?;
    if flags.has("service") {
        return explain_service(flags);
    }
    let dag = load_dag(flags.require("dag")?)?;
    let sys = load_system(flags.require("system")?, &dag)?;
    let alg_name = flags.require("alg")?;
    let alg = hetsched_core::algorithms::by_name(alg_name).ok_or_else(|| {
        CliError(format!(
            "unknown algorithm `{alg_name}`; run `hetsched-cli algorithms`"
        ))
    })?;
    let (sched, trace) =
        with_jobs_flag(flags, || hetsched_core::traced_schedule(&alg, &dag, &sys))?;
    validate(&dag, &sys, &sched)
        .map_err(|e| CliError(format!("internal error: invalid schedule: {e}")))?;
    // Zero-perturbation guarantee, cross-checked on every run: the traced
    // schedule must be bit-identical to an untraced one.
    let untraced = with_jobs_flag(flags, || alg.schedule(&dag, &sys))?;
    if serde_json::to_string(&sched)? != serde_json::to_string(&untraced)? {
        return Err(CliError(
            "internal error: tracing perturbed the schedule".into(),
        ));
    }

    let format = flags.get("format").unwrap_or("summary");
    let payload = match format {
        "summary" => explain_summary(alg_name, &sys, &sched, &trace),
        "ndjson" => hetsched_trace::ndjson::event_log(&trace),
        "chrome-trace" => hetsched_trace::chrome::to_chrome_trace(&trace, sys.num_procs()),
        other => {
            return Err(CliError(format!(
                "unknown --format `{other}` (summary, ndjson, chrome-trace)"
            )))
        }
    };
    if let Some(path) = flags.get("out") {
        std::fs::write(path, &payload)?;
        Ok(format!(
            "wrote {format} trace ({} events, {} placements) to {path}\n",
            trace.events.len(),
            trace.num_placements(),
        ))
    } else {
        Ok(payload)
    }
}

/// `explain --service` — drain the span journals of a running deployment
/// (gateway and, when one is fronting shards, every shard behind it) and
/// merge them into one Chrome-trace timeline.
fn explain_service(flags: &Flags) -> Result<String, CliError> {
    let addr = flags.require("addr")?;
    let stats_reply = send_line(addr, r#"{"op":"stats"}"#)?;
    let stats: serde_json::Value = serde_json::from_str(stats_reply.trim_end())?;
    // A gateway's stats carry its shard roster; a plain shard's do not —
    // then the target itself is the only journal to drain.
    let shard_addrs: Vec<String> = stats["gateway"]["shards"]
        .as_array()
        .map(|snaps| {
            snaps
                .iter()
                .filter_map(|s| s["addr"].as_str().map(String::from))
                .collect()
        })
        .unwrap_or_default();
    let (gateway_spans, shard_journals) = if shard_addrs.is_empty() {
        (Vec::new(), vec![(addr.to_string(), drain_journal(addr)?)])
    } else {
        let mut shards = Vec::with_capacity(shard_addrs.len());
        for shard in &shard_addrs {
            // A down shard must not sink the whole timeline; its spans
            // are simply absent.
            let spans = drain_journal(shard).unwrap_or_default();
            shards.push((shard.clone(), spans));
        }
        (drain_journal(addr)?, shards)
    };
    let total: usize =
        gateway_spans.len() + shard_journals.iter().map(|(_, s)| s.len()).sum::<usize>();
    let payload = hetsched_serve::merge_chrome_trace(&gateway_spans, &shard_journals);
    if let Some(path) = flags.get("out") {
        std::fs::write(path, &payload)?;
        Ok(format!(
            "wrote merged service timeline ({total} spans, {} journals) to {path}\n",
            1 + shard_journals.len(),
        ))
    } else {
        Ok(payload)
    }
}

/// Send one `journal` op and return the drained spans.
fn drain_journal(addr: &str) -> Result<Vec<hetsched_serve::SpanRecord>, CliError> {
    let reply = send_line(addr, r#"{"op":"journal"}"#)?;
    let v: serde_json::Value = serde_json::from_str(reply.trim_end())?;
    if v["status"].as_str() != Some("ok") {
        return Err(CliError(format!("{addr} refused the journal op: {reply}")));
    }
    Ok(serde_json::from_value(v["journal"]["spans"].clone())?)
}

/// One NDJSON round trip: connect, send `line`, read the reply line.
fn send_line(addr: &str, line: &str) -> Result<String, CliError> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| CliError(format!("connecting to {addr}: {e}")))?;
    let mut writer = stream.try_clone()?;
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    if reply.is_empty() {
        return Err(CliError(format!("{addr} closed the connection")));
    }
    Ok(reply)
}

/// Human-readable `explain` report: run header, phase timings, engine
/// counters, and the placement decision log.
fn explain_summary(
    alg_name: &str,
    sys: &System,
    sched: &Schedule,
    trace: &hetsched_trace::Trace,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{alg_name} on {} tasks x {} processors: makespan {:.4}, {} events, {} placements ({} duplicates), {:.3} ms",
        sched.num_scheduled(),
        sys.num_procs(),
        sched.makespan(),
        trace.events.len(),
        trace.num_placements(),
        sched.num_duplicates(),
        trace.wall_ns as f64 / 1e6,
    );
    if !trace.phases.is_empty() {
        let _ = writeln!(out, "phases:");
        for p in &trace.phases {
            let pct = if trace.wall_ns > 0 {
                100.0 * p.dur_ns as f64 / trace.wall_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<12} {:>10.3} ms  ({pct:.1}%)",
                p.name,
                p.dur_ns as f64 / 1e6
            );
        }
    }
    let c = &trace.counters;
    let _ = writeln!(out, "engine counters:");
    for (name, v) in [
        ("eft_best_queries", c.eft_best_queries),
        ("eft_candidate_queries", c.eft_candidate_queries),
        ("drt_frontier_builds", c.drt_frontier_builds),
        ("drt_single_copy_preds", c.drt_single_copy_preds),
        ("drt_multi_copy_preds", c.drt_multi_copy_preds),
        ("gap_fast_rejects", c.gap_fast_rejects),
        ("gap_cached_searches", c.gap_cached_searches),
        ("gap_full_scans", c.gap_full_scans),
        ("gap_slots_visited", c.gap_slots_visited),
        ("append_queries", c.append_queries),
        ("timeline_inserts", c.timeline_inserts),
        ("rank_memo_hits", c.rank_memo_hits),
        ("rank_memo_misses", c.rank_memo_misses),
    ] {
        let _ = writeln!(out, "  {name:<22} {v}");
    }
    let _ = writeln!(out, "decisions (start-time order):");
    for e in &trace.events {
        if let hetsched_trace::Event::Placed {
            step,
            task,
            proc,
            start,
            finish,
            duplicate,
        } = e
        {
            let _ = writeln!(
                out,
                "  step {step:>4}: task {task:>4} -> proc {proc:>3}  [{start:.4}, {finish:.4}]{}",
                if *duplicate { "  (duplicate)" } else { "" }
            );
        }
    }
    out
}

/// `validate` — re-check a stored schedule.
pub fn validate_cmd(flags: &Flags) -> Result<String, CliError> {
    check_allowed(flags, &["dag", "system", "schedule"])?;
    let dag = load_dag(flags.require("dag")?)?;
    let sys = load_system(flags.require("system")?, &dag)?;
    let sched: Schedule = read_json(flags.require("schedule")?)?;
    match validate(&dag, &sys, &sched) {
        Ok(()) => Ok(format!(
            "schedule is valid: makespan {:.4}, {} tasks on {} processors\n",
            sched.makespan(),
            sched.num_scheduled(),
            sched.num_procs()
        )),
        Err(e) => Err(CliError(format!("schedule INVALID: {e}"))),
    }
}

/// `simulate` — replay in the discrete-event simulator, with optional noise.
pub fn simulate_cmd(flags: &Flags) -> Result<String, CliError> {
    check_allowed(
        flags,
        &[
            "dag",
            "system",
            "schedule",
            "exec-cv",
            "comm-spread",
            "draws",
            "seed",
        ],
    )?;
    let dag = load_dag(flags.require("dag")?)?;
    let sys = load_system(flags.require("system")?, &dag)?;
    let sched: Schedule = read_json(flags.require("schedule")?)?;
    validate(&dag, &sys, &sched).map_err(|e| CliError(format!("schedule INVALID: {e}")))?;

    let exec_cv: f64 = flags.get_or("exec-cv", 0.0)?;
    let comm_spread: f64 = flags.get_or("comm-spread", 0.0)?;
    let draws: u64 = flags.get_or("draws", 1)?;
    let seed: u64 = flags.get_or("seed", 0)?;

    let base = simulate(&dag, &sys, &sched, &SimConfig::default()).makespan;
    let mut out = format!(
        "predicted makespan {:.4}, noiseless replay {:.4}\n",
        sched.makespan(),
        base
    );
    if exec_cv > 0.0 || comm_spread > 0.0 {
        let mut sum = 0.0;
        let mut worst = f64::NEG_INFINITY;
        for k in 0..draws {
            let r = simulate(
                &dag,
                &sys,
                &sched,
                &SimConfig {
                    exec_noise: if exec_cv > 0.0 {
                        Noise::Gamma { cv: exec_cv }
                    } else {
                        Noise::None
                    },
                    comm_noise: if comm_spread > 0.0 {
                        Noise::Uniform {
                            spread: comm_spread,
                        }
                    } else {
                        Noise::None
                    },
                    seed: seed ^ k,
                },
            );
            sum += r.makespan;
            worst = worst.max(r.makespan);
        }
        let mean = sum / draws as f64;
        out.push_str(&format!(
            "noisy replay over {draws} draws (exec cv {exec_cv}, comm spread {comm_spread}): mean {:.4} ({:.3}x), worst {:.4} ({:.3}x)\n",
            mean, mean / base, worst, worst / base,
        ));
    }
    Ok(out)
}

/// `info` — structural statistics of a DAG.
pub fn info(flags: &Flags) -> Result<String, CliError> {
    check_allowed(flags, &["dag"])?;
    let dag = load_dag(flags.require("dag")?)?;
    let (cp, path) = hetsched_dag::analysis::critical_path(&dag);
    Ok(format!(
        "tasks {}, edges {}, depth {}, width {}, entries {}, exits {}\n\
         total weight {:.3}, CCR {:.3}\n\
         critical path: length {:.3}, {} tasks\n",
        dag.num_tasks(),
        dag.num_edges(),
        hetsched_dag::topo::depth(&dag),
        hetsched_dag::topo::width(&dag),
        dag.entry_tasks().count(),
        dag.exit_tasks().count(),
        dag.total_weight(),
        dag.ccr(),
        cp,
        path.len(),
    ))
}

/// `convert` — import an STG benchmark file as a DagSpec JSON (or export
/// a JSON DAG back to STG).
pub fn convert(flags: &Flags) -> Result<String, CliError> {
    check_allowed(flags, &["from", "out", "comm"])?;
    let from = flags.require("from")?;
    let out = flags.require("out")?.to_string();
    let comm: f64 = flags.get_or("comm", 0.0)?;
    let from_stg = from.ends_with(".stg");
    let to_stg = out.ends_with(".stg");
    let dag = if from_stg {
        let text =
            std::fs::read_to_string(from).map_err(|e| CliError(format!("reading {from}: {e}")))?;
        hetsched_dag::stg::parse_stg(&text, comm)
            .map_err(|e| CliError(format!("parsing {from}: {e}")))?
    } else {
        load_dag(from)?
    };
    if to_stg {
        std::fs::write(&out, hetsched_dag::stg::to_stg(&dag))?;
    } else {
        let spec = DagSpec::from_dag(&dag);
        std::fs::write(&out, serde_json::to_string_pretty(&spec)?)?;
    }
    Ok(format!(
        "converted {from} -> {out}: {} tasks, {} edges, CCR {:.3}\n",
        dag.num_tasks(),
        dag.num_edges(),
        dag.ccr()
    ))
}

/// Assemble a [`hetsched_serve::ServeConfig`] from flags, starting from the
/// defaults.
fn serve_config(flags: &Flags) -> Result<hetsched_serve::ServeConfig, CliError> {
    let d = hetsched_serve::ServeConfig::default();
    Ok(hetsched_serve::ServeConfig {
        workers: flags.get_or("workers", d.workers)?,
        queue_capacity: flags.get_or("queue", d.queue_capacity)?,
        cache_capacity: flags.get_or("cache", d.cache_capacity)?,
        instance_cache_capacity: flags.get_or("instance-cache", d.instance_cache_capacity)?,
        default_deadline_ms: flags.get_or("deadline-ms", d.default_deadline_ms)?,
    })
}

/// `serve` — run the resident scheduling daemon until a `shutdown` request
/// arrives. TCP by default; `--stdin` answers NDJSON on stdio instead;
/// `--shards N` runs N shard daemons behind an in-process gateway.
pub fn serve(flags: &Flags) -> Result<String, CliError> {
    check_allowed(
        flags,
        &[
            "addr",
            "shards",
            "workers",
            "queue",
            "cache",
            "instance-cache",
            "deadline-ms",
            "jobs",
        ],
    )?;
    let config = serve_config(flags)?;
    // Daemon-wide default for intra-algorithm search threads; a request's
    // own `jobs` option still overrides it per job.
    if let Some(v) = flags.get("jobs") {
        let j: usize = v
            .parse()
            .map_err(|e| CliError(format!("--jobs: invalid value `{v}` ({e})")))?;
        hetsched_core::par::set_global_jobs(Some(j));
    }
    let shards: usize = flags.get_or("shards", 0)?;
    if shards > 0 {
        if flags.has("stdin") {
            return Err(CliError("--shards and --stdin are exclusive".into()));
        }
        let mut shard_set = hetsched_gateway::LocalShards::spawn(shards, &config)
            .map_err(|e| CliError(format!("spawning shards: {e}")))?;
        let gw_config = hetsched_gateway::GatewayConfig {
            backends: shard_set.addrs(),
            default_deadline_ms: config.default_deadline_ms,
            ..Default::default()
        };
        let addr = flags.get("addr").unwrap_or("127.0.0.1:7077");
        let server = hetsched_gateway::GatewayServer::bind(addr, gw_config)
            .map_err(|e| CliError(format!("binding {addr}: {e}")))?;
        let local = server.local_addr()?;
        // Shard lines first: scripts scrape the LAST "listening on " line
        // for the client-facing (gateway) address.
        for (i, a) in shard_set.addrs().iter().enumerate() {
            println!("shard {i} on {a}");
        }
        println!("listening on {local}");
        std::io::Write::flush(&mut std::io::stdout())?;
        let router = server.router();
        server.run()?;
        shard_set.shutdown_all();
        return Ok(format!(
            "routed {} requests across {shards} shards\n",
            hetsched_gateway::metrics::read(&router.metrics().requests)
        ));
    }
    if flags.has("stdin") {
        let service = hetsched_serve::Service::start(config);
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        hetsched_serve::serve_lines(&service, stdin.lock(), stdout.lock())?;
        Ok(format!(
            "served {} requests\n",
            service.stats_body().requests
        ))
    } else {
        let addr = flags.get("addr").unwrap_or("127.0.0.1:7077");
        let server = hetsched_serve::TcpServer::bind(addr, config)
            .map_err(|e| CliError(format!("binding {addr}: {e}")))?;
        let local = server.local_addr()?;
        // Printed (and flushed) before blocking so scripts binding port 0
        // can scrape the actual port.
        println!("listening on {local}");
        std::io::Write::flush(&mut std::io::stdout())?;
        let service = server.service();
        server.run()?;
        Ok(format!(
            "served {} requests\n",
            service.stats_body().requests
        ))
    }
}

/// `gateway` — run the scale-out front door against already-running shard
/// daemons (for the single-process topology, use `serve --shards N`).
pub fn gateway(flags: &Flags) -> Result<String, CliError> {
    check_allowed(
        flags,
        &[
            "addr",
            "backends",
            "inflight",
            "queue",
            "max-pending",
            "threads",
            "deadline-ms",
            "connect-timeout-ms",
        ],
    )?;
    let backends: Vec<String> = flags
        .require("backends")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if backends.is_empty() {
        return Err(CliError("--backends lists no shard addresses".into()));
    }
    let d = hetsched_gateway::GatewayConfig::default();
    let config = hetsched_gateway::GatewayConfig {
        backends,
        inflight_per_shard: flags.get_or("inflight", d.inflight_per_shard)?,
        queue_capacity: flags.get_or("queue", d.queue_capacity)?,
        max_pending_per_conn: flags.get_or("max-pending", d.max_pending_per_conn)?,
        router_threads: flags.get_or("threads", d.router_threads)?,
        default_deadline_ms: flags.get_or("deadline-ms", d.default_deadline_ms)?,
        connect_timeout_ms: flags.get_or("connect-timeout-ms", d.connect_timeout_ms)?,
    };
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7070");
    let server = hetsched_gateway::GatewayServer::bind(addr, config)
        .map_err(|e| CliError(format!("binding {addr}: {e}")))?;
    let local = server.local_addr()?;
    println!("listening on {local}");
    std::io::Write::flush(&mut std::io::stdout())?;
    let router = server.router();
    server.run()?;
    Ok(format!(
        "routed {} requests\n",
        hetsched_gateway::metrics::read(&router.metrics().requests)
    ))
}

/// `request` — send one NDJSON request to a running daemon and print the
/// raw response line.
pub fn request(flags: &Flags) -> Result<String, CliError> {
    check_allowed(
        flags,
        &[
            "addr",
            "op",
            "dag",
            "system",
            "alg",
            "algs",
            "parent",
            "deltas",
            "deadline-ms",
            "jobs",
            "trace-id",
        ],
    )?;
    let addr = flags.require("addr")?;
    let op = flags.get("op").unwrap_or("schedule");
    let req = match op {
        "hello" => Request::Hello,
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "journal" => Request::Journal,
        "shutdown" => Request::Shutdown,
        "schedule" => Request::Schedule {
            dag: read_json(flags.require("dag")?)?,
            system: read_json(flags.require("system")?)?,
            algorithm: flags.require("alg")?.to_string(),
            options: request_options(flags)?,
        },
        "portfolio" => Request::Portfolio {
            dag: read_json(flags.require("dag")?)?,
            system: read_json(flags.require("system")?)?,
            // empty --algs (or none) means "every registered algorithm"
            algorithms: flags
                .get("algs")
                .map(|s| {
                    s.split(',')
                        .map(str::trim)
                        .filter(|p| !p.is_empty())
                        .map(String::from)
                        .collect()
                })
                .unwrap_or_default(),
            options: request_options(flags)?,
        },
        "patch" => {
            // Deltas come from a file (like --dag/--system) or inline JSON:
            // a value starting with `[` is parsed directly.
            let deltas_arg = flags.require("deltas")?;
            let deltas = if deltas_arg.trim_start().starts_with('[') {
                serde_json::from_str(deltas_arg)?
            } else {
                read_json(deltas_arg)?
            };
            Request::Patch {
                parent: flags.require("parent")?.to_string(),
                algorithm: flags.require("alg")?.to_string(),
                deltas,
                options: request_options(flags)?,
            }
        }
        other => {
            let msg = format!(
                "unknown --op `{other}` (schedule, portfolio, patch, hello, stats, metrics, \
                 journal, shutdown)"
            );
            return Err(CliError(msg));
        }
    };

    let reply = send_line(addr, &serde_json::to_string(&req)?)?;
    // The `metrics` op answers Prometheus text wrapped in the JSON
    // envelope; unwrap it so the output scrapes directly.
    if op == "metrics" {
        let v: serde_json::Value = serde_json::from_str(reply.trim_end())?;
        if let Some(text) = v.get("metrics").and_then(serde_json::Value::as_str) {
            return Ok(text.to_string());
        }
    }
    // Gateway `stats` answers a fleet snapshot; render it as a compact
    // table (shard stats keep the raw JSON, scripts depend on it).
    if op == "stats" {
        let v: serde_json::Value = serde_json::from_str(reply.trim_end())?;
        if let Some(table) = gateway_stats_table(&v) {
            return Ok(table);
        }
    }
    Ok(format!("{}\n", reply.trim_end()))
}

/// Render a gateway `stats` reply as an aligned per-shard table, or
/// `None` when the reply did not come from a gateway.
fn gateway_stats_table(v: &serde_json::Value) -> Option<String> {
    use std::fmt::Write as _;
    let gw = v.get("gateway")?.as_object()?;
    let snaps = gw.get("shards")?.as_array()?;
    let count = |key: &str| gw.get(key).and_then(serde_json::Value::as_u64).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "gateway: requests {}  forwarded {}  dedup_hits {}  sheds {}  timeouts {}  \
         reroutes {}  shard_errors {}  errors {}  p50 {:.0}us  p99 {:.0}us",
        count("requests"),
        count("forwarded"),
        count("dedup_hits"),
        count("sheds"),
        count("timeouts"),
        count("reroutes"),
        count("shard_errors"),
        count("errors"),
        gw.get("latency_p50_us")
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(0.0),
        gw.get("latency_p99_us")
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(0.0),
    );
    let _ = writeln!(
        out,
        "{:<21} {:>2} {:>8} {:>8} {:>8} {:>9} {:>5} {:>6} {:>7} {:>10} {:>11}",
        "shard",
        "up",
        "inflight",
        "requests",
        "computed",
        "memo_hits",
        "busy",
        "errors",
        "panics",
        "qwait_p99",
        "compute_p99"
    );
    let bodies = v.get("shards").and_then(serde_json::Value::as_array);
    for (i, snap) in snaps.iter().enumerate() {
        // The live per-shard stats body; `null` when the fan-out could
        // not reach the shard.
        let body = bodies.and_then(|b| b.get(i)).cloned().unwrap_or_default();
        let b = |key: &str| {
            body.get(key)
                .and_then(serde_json::Value::as_u64)
                .unwrap_or(0)
        };
        let us = |key: &str| {
            body.get(key)
                .and_then(serde_json::Value::as_f64)
                .unwrap_or(0.0)
        };
        let _ = writeln!(
            out,
            "{:<21} {:>2} {:>8} {:>8} {:>8} {:>9} {:>5} {:>6} {:>7} {:>9.0}u {:>10.0}u",
            snap["addr"].as_str().unwrap_or("?"),
            snap["up"].as_bool().map(u64::from).unwrap_or(0),
            snap["inflight"].as_u64().unwrap_or(0),
            b("requests"),
            b("computed"),
            b("cache_hits"),
            b("busy_rejections"),
            b("errors"),
            b("connection_panics"),
            us("qwait_p99_us"),
            us("compute_p99_us"),
        );
    }
    Some(out)
}

/// The options of a `request`: `--simulate`, `--trace`, `--deadline-ms`,
/// `--jobs`, and a trace context for `--timing`/`--trace-id` — requests
/// carrying one get the per-tier timing block and their spans journaled.
/// Its id is the caller's `--trace-id` if given, else derived from the
/// wall clock.
fn request_options(flags: &Flags) -> Result<RequestOptions, CliError> {
    let trace_ctx = (flags.has("timing") || flags.get("trace-id").is_some()).then(|| {
        match flags.get("trace-id") {
            Some(id) if !id.is_empty() => TraceCtx::new(id),
            _ => {
                let nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos())
                    .unwrap_or(0);
                TraceCtx::new(format!("{:016x}", (nanos as u64) ^ ((nanos >> 64) as u64)))
            }
        }
    });
    Ok(RequestOptions {
        simulate: flags.has("simulate"),
        trace: flags.has("trace"),
        deadline_ms: flags.parsed("deadline-ms")?,
        jobs: flags.parsed("jobs")?,
        trace_ctx,
        ..RequestOptions::default()
    })
}

/// `algorithms` — list registry names.
pub fn algorithms() -> String {
    let mut s = String::from("available schedulers (--alg):\n");
    for name in hetsched_core::algorithms::known_names() {
        s.push_str("  ");
        s.push_str(name);
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Flags;

    fn argv(s: &str) -> Flags {
        Flags::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("hetsched-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn write_system(path: &str) {
        std::fs::write(
            path,
            r#"{"processors": {"kind": "speeds", "speeds": [2.0, 1.0, 1.0]},
                "network": {"topology": "fully_connected", "startup": 0.0, "bandwidth": 1.0}}"#,
        )
        .unwrap();
    }

    #[test]
    fn full_cli_pipeline() {
        let dag_path = tmp("pipeline-dag.json");
        let sys_path = tmp("pipeline-sys.json");
        let sched_path = tmp("pipeline-sched.json");
        let gantt_path = tmp("pipeline-gantt.svg");

        // generate
        let msg = generate(&argv(&format!(
            "--kind gauss --m 6 --ccr 1.0 --seed 7 --out {dag_path}"
        )))
        .unwrap();
        assert!(msg.contains("20 tasks"), "{msg}");

        write_system(&sys_path);

        // schedule
        let msg = schedule(&argv(&format!(
            "--dag {dag_path} --system {sys_path} --alg HEFT --out {sched_path} --gantt {gantt_path}"
        )))
        .unwrap();
        assert!(msg.contains("HEFT: makespan"), "{msg}");
        assert!(std::fs::read_to_string(&gantt_path)
            .unwrap()
            .starts_with("<svg"));

        // validate
        let msg = validate_cmd(&argv(&format!(
            "--dag {dag_path} --system {sys_path} --schedule {sched_path}"
        )))
        .unwrap();
        assert!(msg.contains("schedule is valid"), "{msg}");

        // simulate with noise
        let msg = simulate_cmd(&argv(&format!(
            "--dag {dag_path} --system {sys_path} --schedule {sched_path} --exec-cv 0.3 --draws 5"
        )))
        .unwrap();
        assert!(msg.contains("noisy replay over 5 draws"), "{msg}");

        // info
        let msg = info(&argv(&format!("--dag {dag_path}"))).unwrap();
        assert!(msg.contains("tasks 20"), "{msg}");
    }

    #[test]
    fn every_generator_kind_works() {
        for (kind, extra) in [
            ("random", "--n 20"),
            ("gauss", "--m 5"),
            ("fft", "--points 8"),
            ("laplace", "--grid 4"),
            ("cholesky", "--tiles 3"),
            ("forkjoin", "--sections 2 --width 3"),
            ("stencil", "--depth 3 --width 4"),
            ("irregular", ""),
            ("out-tree", "--depth 3"),
            ("in-tree", "--depth 3"),
            ("divconq", "--depth 3"),
            ("sp", "--n 10"),
        ] {
            let path = tmp(&format!("gen-{kind}.json"));
            let msg = generate(&argv(&format!("--kind {kind} {extra} --out {path}")))
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(msg.contains("tasks"), "{kind}: {msg}");
            // and the written file loads back
            let dag = load_dag(&path).unwrap();
            assert!(dag.num_tasks() > 0);
        }
    }

    #[test]
    fn explain_formats_and_outputs() {
        let dag_path = tmp("explain-dag.json");
        let sys_path = tmp("explain-sys.json");
        let trace_path = tmp("explain-trace.json");
        generate(&argv(&format!(
            "--kind gauss --m 5 --ccr 1.0 --seed 9 --out {dag_path}"
        )))
        .unwrap();
        write_system(&sys_path);

        // summary: header + phases + counters + decision log
        let msg = explain(&argv(&format!(
            "--dag {dag_path} --system {sys_path} --alg ILS-D"
        )))
        .unwrap();
        assert!(msg.contains("ILS-D on 14 tasks x 3 processors"), "{msg}");
        assert!(msg.contains("engine counters:"), "{msg}");
        assert!(msg.contains("eft_best_queries"), "{msg}");
        assert!(msg.contains("decisions (start-time order):"), "{msg}");
        assert!(msg.contains("-> proc"), "{msg}");

        // ndjson: one self-describing JSON object per line
        let nd = explain(&argv(&format!(
            "--dag {dag_path} --system {sys_path} --alg HEFT --format ndjson"
        )))
        .unwrap();
        let mut placements = 0;
        for line in nd.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v["event"].as_str().is_some(), "line: {line}");
            if v["event"].as_str() == Some("placed") {
                placements += 1;
            }
        }
        assert_eq!(placements, 14);

        // chrome-trace to a file: valid JSON with per-processor lanes
        let msg = explain(&argv(&format!(
            "--dag {dag_path} --system {sys_path} --alg HEFT --format chrome-trace --out {trace_path}"
        )))
        .unwrap();
        assert!(msg.contains("wrote chrome-trace trace"), "{msg}");
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        let events = v
            .get("traceEvents")
            .and_then(serde_json::Value::as_array)
            .unwrap();
        assert!(!events.is_empty());

        // unknown format is reported
        let err = explain(&argv(&format!(
            "--dag {dag_path} --system {sys_path} --alg HEFT --format nope"
        )))
        .unwrap_err();
        assert!(err.0.contains("unknown --format"), "{err}");
    }

    #[test]
    fn unknown_algorithm_and_kind_are_reported() {
        let dag_path = tmp("err-dag.json");
        let sys_path = tmp("err-sys.json");
        generate(&argv(&format!("--kind random --n 5 --out {dag_path}"))).unwrap();
        write_system(&sys_path);
        let err = schedule(&argv(&format!(
            "--dag {dag_path} --system {sys_path} --alg WAT"
        )))
        .unwrap_err();
        assert!(err.0.contains("unknown algorithm"));
        let err = generate(&argv("--kind nope --out /tmp/x.json")).unwrap_err();
        assert!(err.0.contains("unknown workload kind"));
    }

    #[test]
    fn corrupted_schedule_fails_validation() {
        let dag_path = tmp("bad-dag.json");
        let sys_path = tmp("bad-sys.json");
        let sched_path = tmp("bad-sched.json");
        generate(&argv(&format!(
            "--kind random --n 8 --seed 3 --out {dag_path}"
        )))
        .unwrap();
        write_system(&sys_path);
        schedule(&argv(&format!(
            "--dag {dag_path} --system {sys_path} --alg HEFT --out {sched_path}"
        )))
        .unwrap();
        // corrupt: shift a start time inside the JSON
        let text = std::fs::read_to_string(&sched_path).unwrap();
        let mut sched: Schedule = serde_json::from_str(&text).unwrap();
        // serialize a schedule for a different number of tasks
        sched = Schedule::new(sched.num_tasks() + 1, sched.num_procs());
        std::fs::write(&sched_path, serde_json::to_string(&sched).unwrap()).unwrap();
        let err = validate_cmd(&argv(&format!(
            "--dag {dag_path} --system {sys_path} --schedule {sched_path}"
        )))
        .unwrap_err();
        assert!(err.0.contains("INVALID"), "{err}");
    }

    #[test]
    fn convert_round_trips_stg() {
        let stg_path = tmp("conv.stg");
        let json_path = tmp("conv.json");
        let back_path = tmp("conv-back.stg");
        std::fs::write(&stg_path, "3\n0 2.0 0\n1 3.0 1 0\n2 4.0 1 0\n").unwrap();
        let msg = convert(&argv(&format!(
            "--from {stg_path} --comm 5 --out {json_path}"
        )))
        .unwrap();
        assert!(msg.contains("3 tasks"), "{msg}");
        let dag = load_dag(&json_path).unwrap();
        assert_eq!(dag.num_edges(), 2);
        assert_eq!(dag.ccr(), 10.0 / 9.0);
        // JSON -> STG
        let msg = convert(&argv(&format!("--from {json_path} --out {back_path}"))).unwrap();
        assert!(msg.contains("2 edges"), "{msg}");
        assert!(std::fs::read_to_string(&back_path)
            .unwrap()
            .contains("hetsched STG export"));
    }

    #[test]
    fn serve_config_from_flags() {
        let c = serve_config(&argv(
            "--workers 3 --queue 9 --cache 11 --instance-cache 5 --deadline-ms 1234",
        ))
        .unwrap();
        assert_eq!(c.workers, 3);
        assert_eq!(c.queue_capacity, 9);
        assert_eq!(c.cache_capacity, 11);
        assert_eq!(c.instance_cache_capacity, 5);
        assert_eq!(c.default_deadline_ms, 1234);
        let d = hetsched_serve::ServeConfig::default();
        assert_eq!(serve_config(&argv("")).unwrap().workers, d.workers);
        assert!(serve_config(&argv("--workers nope")).is_err());
    }

    #[test]
    fn request_refuses_a_malformed_spec_before_sending() {
        let dag_path = tmp("req-bad-dag.json");
        let sys_path = tmp("req-bad-sys.json");
        std::fs::write(&dag_path, r#"{"tasks": "none"}"#).unwrap();
        write_system(&sys_path);
        // Nothing listens on port 1: the error must come before any send.
        let err = request(&argv(&format!(
            "--addr 127.0.0.1:1 --dag {dag_path} --system {sys_path} --alg HEFT"
        )))
        .unwrap_err();
        assert!(err.0.starts_with("JSON error"), "{err}");
    }

    #[test]
    fn request_round_trip_against_daemon() {
        let dag_path = tmp("req-dag.json");
        let sys_path = tmp("req-sys.json");
        generate(&argv(&format!(
            "--kind gauss --m 5 --ccr 1.0 --seed 1 --out {dag_path}"
        )))
        .unwrap();
        write_system(&sys_path);

        let server = hetsched_serve::TcpServer::bind(
            "127.0.0.1:0",
            hetsched_serve::ServeConfig {
                workers: 2,
                queue_capacity: 8,
                cache_capacity: 8,
                instance_cache_capacity: 8,
                default_deadline_ms: 10_000,
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let daemon = std::thread::spawn(move || server.run());

        let reply = request(&argv(&format!(
            "--addr {addr} --dag {dag_path} --system {sys_path} --alg HEFT --simulate"
        )))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(reply.trim()).unwrap();
        assert_eq!(v["status"].as_str(), Some("ok"), "reply: {reply}");
        assert_eq!(v["schedule"]["algorithm"].as_str(), Some("HEFT"));
        assert_eq!(v["schedule"]["cached"].as_bool(), Some(false));
        assert_eq!(
            v["schedule"]["sim"]["matches_prediction"].as_bool(),
            Some(true)
        );

        let parent = v["schedule"]["problem"].as_str().unwrap().to_string();
        assert_eq!(parent.len(), 16, "reply: {reply}");

        let reply = request(&argv(&format!("--addr {addr} --op stats"))).unwrap();
        let v: serde_json::Value = serde_json::from_str(reply.trim()).unwrap();
        assert_eq!(v["stats"]["computed"].as_u64(), Some(1));

        // patch op: incremental reschedule keyed on the parent's problem
        // field (--simulate matches the parent's options, so the repair
        // path finds the memoized parent schedule)
        let reply = request(&argv(&format!(
            r#"--addr {addr} --op patch --parent {parent} --alg HEFT --simulate --deltas [{{"kind":"edge_data","src":0,"dst":4,"data":9.0}}]"#
        )))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(reply.trim()).unwrap();
        assert_eq!(v["status"].as_str(), Some("ok"), "reply: {reply}");
        assert_eq!(v["schedule"]["cached"].as_bool(), Some(false));
        assert_ne!(v["schedule"]["problem"].as_str(), Some(parent.as_str()));
        assert!(
            v["schedule"]["repair"].as_object().is_some(),
            "reply: {reply}"
        );

        // an unknown parent is a clean error reply, not a daemon death
        let reply = request(&argv(&format!(
            "--addr {addr} --op patch --parent 0000000000000000 --alg HEFT --deltas []"
        )))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(reply.trim()).unwrap();
        assert_eq!(v["status"].as_str(), Some("error"), "reply: {reply}");
        assert!(
            v["message"].as_str().unwrap().contains("unknown_parent"),
            "reply: {reply}"
        );

        // a traced request attaches the trace payload
        let reply = request(&argv(&format!(
            "--addr {addr} --dag {dag_path} --system {sys_path} --alg HEFT --trace"
        )))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(reply.trim()).unwrap();
        assert!(
            v["schedule"]["trace"]["counters"]["eft_best_queries"]
                .as_u64()
                .unwrap()
                > 0,
            "reply: {reply}"
        );

        // the metrics op prints unwrapped Prometheus text
        let text = request(&argv(&format!("--addr {addr} --op metrics"))).unwrap();
        assert!(
            text.contains("# TYPE hetsched_requests_total counter"),
            "{text}"
        );
        assert!(
            text.contains("hetsched_algorithm_latency_seconds_count{algorithm=\"HEFT\"}"),
            "{text}"
        );

        // portfolio op: per-member table plus the winning schedule
        let reply = request(&argv(&format!(
            "--addr {addr} --op portfolio --dag {dag_path} --system {sys_path} --algs HEFT,CPOP,PETS"
        )))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(reply.trim()).unwrap();
        assert_eq!(v["status"].as_str(), Some("ok"), "reply: {reply}");
        let entries = v["portfolio"]["entries"].as_array().unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0]["algorithm"].as_str(), Some("HEFT"));
        let best = v["portfolio"]["best"].as_u64().unwrap() as usize;
        let best_makespan = entries[best]["makespan"].as_f64().unwrap();
        for e in entries {
            assert!(e["makespan"].as_f64().unwrap() >= best_makespan);
        }
        assert_eq!(
            v["portfolio"]["schedule"]["makespan"].as_f64(),
            Some(best_makespan)
        );

        let err = request(&argv(&format!("--addr {addr} --op frobnicate"))).unwrap_err();
        assert!(err.0.contains("unknown --op"), "{err}");

        let reply = request(&argv(&format!("--addr {addr} --op shutdown"))).unwrap();
        assert!(reply.contains("shutting_down"), "{reply}");
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn portfolio_reports_table_and_writes_best_schedule() {
        let dag_path = tmp("pf-dag.json");
        let sys_path = tmp("pf-sys.json");
        let sched_path = tmp("pf-sched.json");
        generate(&argv(&format!(
            "--kind gauss --m 6 --ccr 2.0 --seed 5 --out {dag_path}"
        )))
        .unwrap();
        write_system(&sys_path);

        let msg = portfolio(&argv(&format!(
            "--dag {dag_path} --system {sys_path} --algs HEFT,CPOP,ILS-D --out {sched_path}"
        )))
        .unwrap();
        assert!(msg.contains("portfolio over 3 algorithms"), "{msg}");
        assert!(msg.contains("HEFT"), "{msg}");
        assert!(msg.contains("<- best"), "{msg}");
        assert!(msg.contains("best: "), "{msg}");

        // the written schedule is the winner and validates
        let sched: Schedule = read_json(&sched_path).unwrap();
        let dag = load_dag(&dag_path).unwrap();
        let sys = load_system(&sys_path, &dag).unwrap();
        assert_eq!(validate(&dag, &sys, &sched), Ok(()));
        let mut best = f64::INFINITY;
        for name in ["HEFT", "CPOP", "ILS-D"] {
            let alg = hetsched_core::algorithms::by_name(name).unwrap();
            best = best.min(alg.schedule(&dag, &sys).makespan());
        }
        assert_eq!(sched.makespan().to_bits(), best.to_bits());

        // no --algs means the full registry
        let msg = portfolio(&argv(&format!("--dag {dag_path} --system {sys_path}"))).unwrap();
        let n = hetsched_core::algorithms::known_names().len();
        assert!(
            msg.contains(&format!("portfolio over {n} algorithms")),
            "{msg}"
        );

        // unknown member is reported
        let err = portfolio(&argv(&format!(
            "--dag {dag_path} --system {sys_path} --algs HEFT,WAT"
        )))
        .unwrap_err();
        assert!(err.0.contains("unknown algorithm `WAT`"), "{err}");
    }

    #[test]
    fn jobs_flag_does_not_change_the_schedule() {
        let dag_path = tmp("jobs-dag.json");
        let sys_path = tmp("jobs-sys.json");
        let seq_path = tmp("jobs-sched-1.json");
        let par_path = tmp("jobs-sched-2.json");
        generate(&argv(&format!(
            "--kind gauss --m 6 --ccr 2.0 --seed 4 --out {dag_path}"
        )))
        .unwrap();
        write_system(&sys_path);
        for (jobs, path) in [("1", &seq_path), ("2", &par_path)] {
            schedule(&argv(&format!(
                "--dag {dag_path} --system {sys_path} --alg DUP-HEFT --jobs {jobs} --out {path}"
            )))
            .unwrap();
        }
        assert_eq!(
            std::fs::read_to_string(&seq_path).unwrap(),
            std::fs::read_to_string(&par_path).unwrap(),
            "--jobs must never change the schedule"
        );
        let err = schedule(&argv(&format!(
            "--dag {dag_path} --system {sys_path} --alg HEFT --jobs nope"
        )))
        .unwrap_err();
        assert!(err.0.contains("--jobs"), "{err}");
    }

    #[test]
    fn algorithms_lists_registry() {
        let s = algorithms();
        assert!(s.contains("HEFT"));
        assert!(s.contains("ILS-D"));
        assert!(s.contains("BNB"));
    }
}
