//! The traced run: per-layer metrics, measured from outside the program.
//!
//! Each layer is timed by calling its public functions on the
//! workload's inputs, or read from the `stats` counters the tiers already
//! expose. Three groups:
//!
//! 1. Engine probes on the `paper-grid` instances (rank, placement,
//!    delta, repair, and same-run ratios).
//! 2. In-process probes of one request's path on a fresh shard service:
//!    parse, build, fingerprint, rank, place, validate, SLR, serialize,
//!    and `Service::handle_line_bytes` for a miss, a hit and a patch.
//! 3. The fleet: the workload's own open loop (a short `fleet-repeat`
//!    burst for `paper-grid`, which has no fleet) for the cache, shed and
//!    queue counters and the generator's lateness; then round-trip probes
//!    of the transport, the gateway hop, the router and the front door.
//!
//! Differences between a round trip and its in-process part are checked
//! for reconciliation: a layer sum above the measured round trip, or an
//! unattributed share above [`UNATTRIBUTED_MARGIN`], is flagged.

use std::io;
use std::thread::sleep;
use std::time::{Duration, Instant};

use hetsched_core::{validate, ProblemInstance, Scheduler};
use hetsched_serve::protocol::ScheduleBody;
use hetsched_serve::{Request, Response, ServeConfig, Service};

use crate::fleet::{classify, Fleet, Outcome, Probe, Record, Tally, SHARDS};
use crate::grid;
use crate::problems::{instance_seed, patch_case, schedule_case, scheduler, Case};
use crate::stats::{median, quantile, sorted};
use crate::traffic::{self, Inputs, Kind};
use crate::{Metric, Report};

/// Repetitions of each engine probe.
const ENGINE_REPS: usize = 9;
/// Distinct lines per in-process request-path probe.
const LINE_REPS: usize = 24;
/// Repetitions of each round-trip probe.
const TRIP_REPS: usize = 40;
/// Idle gap before a first-after-idle round trip.
const IDLE_GAP: Duration = Duration::from_millis(60);
/// Idle round trips measured.
const IDLE_REPS: usize = 8;
/// Largest share of a round trip the named layers may leave unexplained
/// before reconciliation flags it.
pub const UNATTRIBUTED_MARGIN: f64 = 0.35;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, us(t0.elapsed()))
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Checks and flags collected along the way.
struct Audit {
    wrong: usize,
    flags: Vec<String>,
}

impl Audit {
    fn reply(&mut self, reply: &[u8], case: &Case) {
        if classify(reply, &case.expect) != Outcome::Ok {
            self.wrong += 1;
        }
    }

    /// Flag a difference layer that came out negative: its parts sum to
    /// more than the round trip they are part of.
    fn non_negative(&mut self, name: &str, value: f64) {
        if value < 0.0 {
            self.flags.push(format!(
                "{name} = {value:.1} us: the parts exceed the round trip"
            ));
        }
    }
}

/// One request's path through a shard, layer by layer, on fresh
/// 200-task ILS-H lines of the `fleet-unique` shape, plus wire hits and
/// patches on 50-task HEFT lines of the `fleet-repeat` shape.
fn request_path(seed: u64, audit: &mut Audit, out: &mut Vec<Metric>) {
    let svc = Service::start(ServeConfig::default());
    let ils = scheduler("ILS-H");
    let mut cols: [Vec<f64>; 11] = Default::default();
    let [parse, dag_b, sys_b, fp, rank, place, val, slr, ser, miss, unattr] = &mut cols;
    let mut over = 0usize;
    for i in 0..LINE_REPS {
        let (case, _) = schedule_case(instance_seed(seed ^ 0x1a7e, i as u64, 0), 200, "ILS-H");
        let (reply, t_miss) = timed(|| svc.handle_line_bytes(&case.line));
        audit.reply(&reply, &case);
        let (req, t_parse) = timed(|| Request::parse(&case.line).expect("line parses"));
        let Request::Schedule { dag, system, .. } = req else {
            unreachable!("a schedule line")
        };
        let (dag, t_dag) = timed(|| dag.build().expect("DAG builds"));
        let (sys, t_sys) = timed(|| system.build(&dag).expect("system builds"));
        let (problem, t_fp) = timed(|| ProblemInstance::content_fingerprint(&dag, &sys));
        let inst = ProblemInstance::new(dag, sys);
        let (_, t_cold) = timed(|| ils.schedule_instance(&inst));
        let (sched, t_warm) = timed(|| ils.schedule_instance(&inst));
        let (_, t_val) = timed(|| validate(inst.dag(), inst.sys(), &sched));
        let makespan = sched.makespan();
        let (slr_v, t_slr) = timed(|| hetsched_metrics::slr(inst.dag(), inst.sys(), makespan));
        let body = ScheduleBody {
            algorithm: "ILS-H".to_string(),
            makespan,
            slr: slr_v,
            speedup: hetsched_metrics::speedup(inst.dag(), inst.sys(), makespan),
            fingerprint: format!("{problem:016x}"),
            problem: format!("{problem:016x}"),
            cached: false,
            schedule: sched,
            sim: None,
            trace: None,
            repair: None,
        };
        let (_, t_ser) = timed(|| Response::schedule(body).to_line());
        let t_rank = (t_cold - t_warm).max(0.0);
        let sum = t_parse + t_dag + t_sys + t_fp + t_cold + t_val + t_slr + t_ser;
        if sum > t_miss {
            over += 1;
        }
        for (col, v) in [
            (&mut *parse, t_parse),
            (&mut *dag_b, t_dag),
            (&mut *sys_b, t_sys),
            (&mut *fp, t_fp),
            (&mut *rank, t_rank),
            (&mut *place, t_warm),
            (&mut *val, t_val),
            (&mut *slr, t_slr),
            (&mut *ser, t_ser),
            (&mut *miss, t_miss),
            (&mut *unattr, t_miss - sum),
        ] {
            col.push(v);
        }
    }
    let miss_med = med(miss);
    let unattr_med = med(unattr);
    if over * 2 > LINE_REPS {
        audit.flags.push(format!(
            "serve: the named layers sum to more than the in-process miss on {over} of {LINE_REPS} lines"
        ));
    }
    if unattr_med > UNATTRIBUTED_MARGIN * miss_med {
        audit.flags.push(format!(
            "serve: {unattr_med:.1} us of a {miss_med:.1} us miss is unattributed (margin {:.0}%)",
            UNATTRIBUTED_MARGIN * 100.0
        ));
    }
    for (name, col) in [
        ("protocol.parse_us", &*parse),
        ("dag.build_us", &*dag_b),
        ("platform.build_us", &*sys_b),
        ("dag.fingerprint_us", &*fp),
        ("core.rank_us.ils-h.n200", &*rank),
        ("core.place_us.ils-h.n200", &*place),
        ("core.validate_us", &*val),
        ("metrics.slr_us", &*slr),
        ("protocol.serialize_us", &*ser),
        ("serve.miss_us", &*miss),
        ("serve.unattributed_us", &*unattr),
    ] {
        out.push(Metric::new(name, med(col), "us"));
    }

    // hits and patches on the repeat shape
    let hot: Vec<_> = (0..8)
        .map(|i| schedule_case(instance_seed(seed ^ 0x5e7, i, 0), 50, "HEFT"))
        .collect();
    for (case, _) in hot.iter().chain(&hot) {
        audit.reply(&svc.handle_line_bytes(&case.line), case);
    }
    let hits: Vec<f64> = (0..TRIP_REPS)
        .map(|i| {
            let case = &hot[i % hot.len()].0;
            let (reply, t) = timed(|| svc.handle_line_bytes(&case.line));
            audit.reply(&reply, case);
            t
        })
        .collect();
    out.push(Metric::new("serve.hit_us", med(&hits), "us"));
    let mut rng = rand::SeedableRng::seed_from_u64(seed ^ 0x9a7);
    let patches: Vec<f64> = (0..TRIP_REPS)
        .map(|k| {
            let case = patch_case(&hot[k % hot.len()].1, "HEFT", k as u64, &mut rng);
            let (reply, t) = timed(|| svc.handle_line_bytes(&case.line));
            audit.reply(&reply, &case);
            t
        })
        .collect();
    out.push(Metric::new("serve.patch_us", med(&patches), "us"));
    svc.shutdown();
}

/// Counter deltas over the traced open loop, as per-layer ratios.
fn counter_metrics(
    fleet: &Fleet,
    before: (&[hetsched_serve::StatsBody], crate::fleet::GatewayCounters),
    records: &[Record],
    out: &mut Vec<Metric>,
) {
    let after = fleet.shard_stats();
    let g1 = fleet.gateway_counters();
    let (s0, g0) = before;
    let sum = |f: fn(&hetsched_serve::StatsBody) -> u64| -> u64 {
        after.iter().zip(s0).map(|(a, b)| f(a) - f(b)).sum()
    };
    let requests = sum(|s| s.requests);
    let wire = sum(|s| s.wire_hits);
    let hits = sum(|s| s.cache_hits);
    let inst_hits = sum(|s| s.instance_cache_hits);
    let inst_misses = sum(|s| s.instance_cache_misses);
    let busy = sum(|s| s.busy_rejections);
    let tally = Tally::of(records);
    let attempted = tally.attempted as u64;
    let worst = |f: fn(&hetsched_serve::StatsBody) -> f64| after.iter().map(f).fold(0.0, f64::max);
    let gw_requests = g1.requests - g0.requests;
    let late = sorted(records.iter().map(Record::late_ms).collect());
    out.extend([
        Metric::new("serve.wire_hit_ratio", ratio(wire, requests), "ratio"),
        Metric::new(
            "serve.memo_hit_ratio",
            ratio(hits - wire, requests),
            "ratio",
        ),
        Metric::new(
            "serve.instance_hit_ratio",
            ratio(inst_hits, inst_hits + inst_misses),
            "ratio",
        ),
        Metric::new("serve.qwait_p99_us", worst(|s| s.qwait_p99_us), "us"),
        Metric::new("serve.compute_p50_us", worst(|s| s.compute_p50_us), "us"),
        Metric::new(
            "gateway.wire_hit_ratio",
            ratio(g1.wire_hits - g0.wire_hits, gw_requests),
            "ratio",
        ),
        Metric::new(
            "gateway.dedup_ratio",
            ratio(g1.dedup_hits - g0.dedup_hits, gw_requests),
            "ratio",
        ),
        Metric::new(
            "gateway.shed_ratio",
            ratio(g1.sheds - g0.sheds, attempted),
            "ratio",
        ),
        Metric::new("serve.busy_ratio", ratio(busy, attempted), "ratio"),
        Metric::new(
            "serve.unknown_parent_ratio",
            ratio(tally.unknown_parent as u64, attempted),
            "ratio",
        ),
        Metric::new(
            "loadgen.late_p99_ms",
            quantile(&late, 0.99).unwrap_or(0.0),
            "ms",
        ),
        Metric::new("loadgen.sent", records.len() as f64, "count"),
    ]);
}

/// Median round trip of `line` over `probe`, µs, checking every reply.
fn trips(probe: &mut Probe, case: &Case, reps: usize, audit: &mut Audit) -> io::Result<f64> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        samples.push(us(probe.send(&case.line)?));
        audit.reply(probe.reply.as_bytes(), case);
    }
    Ok(med(&samples))
}

/// Round-trip probes of the running fleet: shard transport, gateway hop,
/// router, front door and the first request after idle.
fn fleet_trips(
    fleet: &Fleet,
    seed: u64,
    audit: &mut Audit,
    out: &mut Vec<Metric>,
) -> io::Result<()> {
    let mut gw = Probe::connect(&fleet.addr)?;
    // a warmed repeat, homed on shard `home`
    let (hot, _) = schedule_case(instance_seed(seed ^ 0x7a1, 0, 0), 50, "HEFT");
    let home = (hot.expect.problem % SHARDS as u64) as usize;
    let mut direct = Probe::connect(&fleet.shard_addr(home))?;
    for _ in 0..3 {
        gw.send(&hot.line)?;
        direct.send(&hot.line)?;
    }
    let shard = fleet.shard(home);
    let in_process: Vec<f64> = (0..TRIP_REPS)
        .map(|_| timed(|| shard.handle_line_bytes(&hot.line)).1)
        .collect();
    let shard_trip = trips(&mut direct, &hot, TRIP_REPS, audit)?;
    let transport = shard_trip - med(&in_process);
    audit.non_negative("serve.transport_us", transport);
    out.push(Metric::new("serve.transport_us", transport, "us"));

    let router: Vec<f64> = (0..TRIP_REPS)
        .map(|_| {
            let (reply, t) = timed(|| fleet.router.handle_line(&hot.line, Instant::now()));
            audit.reply(reply.as_bytes(), &hot);
            t
        })
        .collect();
    let router = med(&router);
    let gw_trip = trips(&mut gw, &hot, TRIP_REPS, audit)?;
    audit.non_negative("gateway.frontdoor_us", gw_trip - router);
    out.push(Metric::new("gateway.router_us", router, "us"));
    out.push(Metric::new("gateway.frontdoor_us", gw_trip - router, "us"));

    let mut idle = Vec::with_capacity(IDLE_REPS);
    for _ in 0..IDLE_REPS {
        sleep(IDLE_GAP);
        idle.push(us(gw.send(&hot.line)?));
        audit.reply(gw.reply.as_bytes(), &hot);
    }
    let idle_first = med(&idle) - gw_trip;
    audit.non_negative("gateway.idle_first_us", idle_first);
    out.push(Metric::new("gateway.idle_first_us", idle_first, "us"));

    // fresh unique lines of the fleet-unique shape, half through the
    // gateway and half straight to a shard
    let mut via_gw = Vec::new();
    let mut via_shard = Vec::new();
    for i in 0..2 * LINE_REPS {
        let (case, _) = schedule_case(instance_seed(seed ^ 0x40b, i as u64, 0), 200, "ILS-H");
        let (probe, col) = if i % 2 == 0 {
            (&mut gw, &mut via_gw)
        } else {
            (&mut direct, &mut via_shard)
        };
        col.push(us(probe.send(&case.line)?));
        audit.reply(probe.reply.as_bytes(), &case);
    }
    let hop = med(&via_gw) - med(&via_shard);
    audit.non_negative("gateway.hop_us", hop);
    out.push(Metric::new("gateway.hop_us", hop, "us"));
    Ok(())
}

/// The traced run of `kind` (`None` for `paper-grid`).
pub fn run(kind: Option<Kind>, seed: u64, span: Duration) -> io::Result<Report> {
    let mut out = Vec::new();
    let mut audit = Audit {
        wrong: 0,
        flags: Vec::new(),
    };

    out.extend(grid::probe(&grid::Rep::build(seed, 0), ENGINE_REPS));
    request_path(seed, &mut audit, &mut out);

    let traffic_kind = kind.unwrap_or(Kind::Repeat);
    let open_span = match kind {
        Some(k) => span.mul_f64(k.open_share()),
        None => Duration::from_secs(2),
    };
    let inputs = Inputs::prepare(
        traffic_kind,
        seed,
        Duration::ZERO,
        open_span,
        Duration::ZERO,
    );
    let (fleet, mut client, _) = traffic::setup(&inputs)?;
    let before = (fleet.shard_stats(), fleet.gateway_counters());
    let records = inputs.drive_open(&mut client)?;
    counter_metrics(&fleet, (&before.0, before.1), &records, &mut out);
    drop(client);

    let scans: Vec<(bool, f64)> = inputs
        .open
        .iter()
        .map(|&(_, k)| {
            let (scan, t) = timed(|| hetsched_serve::wire::scan(inputs.cases[k].line.as_bytes()));
            (scan.is_some(), t)
        })
        .collect();
    let scan_us: Vec<f64> = scans.iter().map(|s| s.1).collect();
    out.push(Metric::new("wire.scan_us", med(&scan_us), "us"));
    out.push(Metric::new(
        "wire.scan_accept_ratio",
        ratio(
            scans.iter().filter(|s| s.0).count() as u64,
            scans.len() as u64,
        ),
        "ratio",
    ));

    fleet_trips(&fleet, seed, &mut audit, &mut out)?;
    fleet.shutdown();

    let tally = Tally::of(&records);
    let mut report = Report::new(
        tally.attempted,
        tally.failed,
        tally.wrong + audit.wrong == 0,
    );
    report.note(format!(
        "traffic: {} open-loop requests of the {} mix; {} probe replies mismatched",
        records.len(),
        match traffic_kind {
            Kind::Unique => "fleet-unique",
            Kind::Repeat => "fleet-repeat",
        },
        audit.wrong
    ));
    if audit.flags.is_empty() {
        report.note(format!(
            "reconciliation: every layer sum fits its round trip, unattributed within {:.0}%",
            UNATTRIBUTED_MARGIN * 100.0
        ));
    }
    for f in &audit.flags {
        report.note(format!("reconciliation flag: {f}"));
    }
    out.push(Metric::new(
        "reconcile.flags",
        audit.flags.len() as f64,
        "count",
    ));
    report.extend(out);
    Ok(report)
}
