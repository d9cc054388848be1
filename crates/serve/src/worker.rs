//! Worker layer: the threads that actually compute schedules.
//!
//! The routing layer ([`crate::service`]) validates requests, consults the
//! reply memo, and enqueues [`Job`]s on a bounded crossbeam channel; the
//! workers here pick them up, run the scheduler inside `catch_unwind`
//! (panic isolation), validate the produced schedule, optionally replay it
//! through the zero-noise simulator, and publish the body to the reply
//! channel and the memoization cache.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender};

use hetsched_core::{validate, ProblemInstance, Scheduler};
use hetsched_metrics::{slr, speedup};
use hetsched_sim::{simulate, SimConfig};

use crate::metrics::ServiceMetrics;
use crate::protocol::{
    RepairBody, RequestOptions, Response, ScheduleBody, ServeTiming, SimBody, SpanRecord,
    TimingBody, TraceBody,
};
use crate::service::{MemoEntry, Shared};

/// Everything a worker needs to *repair* the parent's schedule instead of
/// computing from scratch: the patch path attaches this when the algorithm
/// is repair-capable and the parent's schedule is still memoized. The
/// produced schedule is bit-identical either way (the [`Heft::repair`]
/// contract), so repair needs no cache-key treatment.
///
/// [`Heft::repair`]: hetsched_core::algorithms::Heft::repair
pub(crate) struct RepairCtx {
    /// The repair-capable scheduler, configured exactly as the registry
    /// entry the request named.
    pub(crate) scheduler: hetsched_core::RepairScheduler,
    /// Dirty-region report from applying the deltas.
    pub(crate) dirty: hetsched_core::DirtyInfo,
    /// The instance the deltas were applied to.
    pub(crate) parent_inst: Arc<ProblemInstance<'static>>,
    /// The parent's memoized schedule under the same algorithm + options.
    pub(crate) parent_sched: hetsched_core::Schedule,
}

/// Distributed-trace context of one queued job: set only when the
/// request carried `options.trace_ctx`. Span offsets are relative to
/// `arrival` (the moment this tier received the request line), matching
/// the routing layer's root `request` span.
pub(crate) struct JobCtx {
    pub(crate) trace_id: String,
    pub(crate) arrival: Instant,
}

impl JobCtx {
    /// The context for a request's options, or `None` when untraced.
    pub(crate) fn for_options(options: &RequestOptions, arrival: Instant) -> Option<JobCtx> {
        options.trace_ctx.as_ref().map(|ctx| JobCtx {
            trace_id: ctx.trace_id.clone(),
            arrival,
        })
    }
}

/// One queued scheduling job. The instance is shared: concurrent jobs on
/// the same (DAG, system) pair — portfolio members especially — hold the
/// same `Arc` and reuse each other's memoized rank vectors.
pub(crate) struct Job {
    pub(crate) inst: Arc<ProblemInstance<'static>>,
    pub(crate) algorithm: String,
    pub(crate) alg: Box<dyn Scheduler + Send + Sync>,
    pub(crate) options: RequestOptions,
    pub(crate) fingerprint: u64,
    pub(crate) repair: Option<RepairCtx>,
    /// When the routing layer put this job on the bounded queue; the
    /// worker turns it into the queue-wait measurement on dequeue.
    pub(crate) enqueued: Instant,
    /// Distributed-trace context (traced requests only).
    pub(crate) ctx: Option<JobCtx>,
    pub(crate) reply: Sender<Response>,
}

pub(crate) fn worker_loop(rx: Receiver<Job>, shared: Arc<Shared>) {
    while let Ok(job) = rx.recv() {
        let reply = job.reply.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| compute(job, &shared)));
        let resp = match outcome {
            Ok(resp) => resp,
            Err(panic) => {
                ServiceMetrics::bump(&shared.metrics.panics);
                ServiceMetrics::bump(&shared.metrics.errors);
                let msg = panic_message(&panic);
                Response::error(format!("scheduler panicked: {msg}"))
            }
        };
        // The requester may have timed out and dropped its receiver; a
        // failed send is expected then.
        let _ = reply.send(resp);
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "unknown panic payload"
    }
}

fn compute(job: Job, shared: &Shared) -> Response {
    let dequeued = Instant::now();
    shared
        .metrics
        .queue_wait
        .record(dequeued.duration_since(job.enqueued));
    if let Some(ms) = job.options.debug_sleep_ms {
        shared.debug_sleep(Duration::from_millis(ms));
    }
    if job.options.debug_panic {
        panic!("debug_panic requested by client");
    }

    let (dag, sys) = (job.inst.dag(), job.inst.sys());
    // Traced requests (distributed trace context) harvest the engine's
    // phase spans even when the client did not ask for the full decision
    // log; the capture never changes a schedule byte (the PR 3 tracing
    // contract), so the produced body memoizes identically.
    let want_phases = job.ctx.is_some();
    let run = || {
        if job.options.trace {
            let (sched, trace) = hetsched_core::traced_schedule_instance(&*job.alg, &job.inst);
            let phases = trace.phases.clone();
            (
                sched,
                Some(TraceBody {
                    counters: trace.counters,
                    phases: trace.phases,
                    events: trace.events,
                }),
                None,
                phases,
            )
        } else if let Some(ctx) = &job.repair {
            let (sched, stats) =
                ctx.scheduler
                    .repair(&job.inst, &ctx.dirty, &ctx.parent_inst, &ctx.parent_sched);
            (
                sched,
                None,
                Some(RepairBody {
                    replayed: stats.replayed,
                    rescheduled: stats.rescheduled,
                    fresh: stats.fresh,
                }),
                Vec::new(),
            )
        } else if want_phases {
            let (sched, trace) = hetsched_core::traced_schedule_instance(&*job.alg, &job.inst);
            (sched, None, None, trace.phases)
        } else {
            (job.alg.schedule_instance(&job.inst), None, None, Vec::new())
        }
    };
    // Per-request search parallelism, capped by the pool size so one
    // request cannot oversubscribe the host. Schedules are bit-identical
    // at any thread count, so this needs no cache-key treatment.
    let engine_start = Instant::now();
    let (sched, trace, repair, phases) = match job.options.jobs {
        Some(j) => hetsched_core::par::with_jobs(j.clamp(1, shared.config.workers), run),
        None => run(),
    };
    if repair.as_ref().is_some_and(|r| !r.fresh) {
        ServiceMetrics::bump(&shared.metrics.repairs);
    }
    if let Err(e) = validate(dag, sys, &sched) {
        ServiceMetrics::bump(&shared.metrics.errors);
        return Response::error(format!(
            "scheduler `{}` produced an invalid schedule: {e:?}",
            job.algorithm
        ));
    }
    let makespan = sched.makespan();
    let sim = job.options.simulate.then(|| {
        let result = simulate(dag, sys, &sched, &SimConfig::default());
        let tol = 1e-6 * makespan.abs().max(1.0);
        SimBody {
            matches_prediction: (result.makespan - makespan).abs() <= tol,
            result,
        }
    });
    let computed_at = Instant::now();
    shared
        .metrics
        .compute
        .record(computed_at.duration_since(dequeued));
    let (cache_kind, repair_note) = match &repair {
        Some(r) if !r.fresh => (
            "repaired",
            format!("replayed={} rescheduled={}", r.replayed, r.rescheduled),
        ),
        _ => ("computed", String::new()),
    };
    let body = ScheduleBody {
        algorithm: job.algorithm.clone(),
        makespan,
        slr: slr(dag, sys, makespan),
        speedup: speedup(dag, sys, makespan),
        fingerprint: format!("{:016x}", job.fingerprint),
        problem: format!("{:016x}", job.inst.fingerprint()),
        cached: false,
        schedule: sched,
        sim,
        trace,
        repair,
    };
    // The memo line (these bytes with `cached: true`) is serialized
    // lazily by the first untraced hit, so a one-shot compute pays
    // nothing for a repeat that never comes.
    shared
        .cache
        .lock()
        .insert(job.fingerprint, Arc::new(MemoEntry::new(body.clone())));
    ServiceMetrics::bump(&shared.metrics.computed);
    let mut resp = Response::schedule(body);
    if let Some(ctx) = &job.ctx {
        let timing = record_job_spans(
            &job,
            ctx,
            shared,
            dequeued,
            engine_start,
            computed_at,
            phases,
            cache_kind,
            repair_note,
        );
        resp = resp.with_timing(timing);
    }
    resp
}

/// Push the worker-side spans of one traced job — `queue`, `compute`,
/// and the engine phases nested inside `compute` — and build the partial
/// serve timing the routing layer completes with `total_us`/`parse_us`.
#[allow(clippy::too_many_arguments)] // one-call-site plumbing of timestamps
fn record_job_spans(
    job: &Job,
    ctx: &JobCtx,
    shared: &Shared,
    dequeued: Instant,
    engine_start: Instant,
    computed_at: Instant,
    phases: Vec<hetsched_trace::PhaseSpan>,
    cache_kind: &str,
    detail: String,
) -> TimingBody {
    let off = |i: Instant| i.saturating_duration_since(ctx.arrival).as_micros() as u64;
    let (queue_start, compute_start) = (off(job.enqueued), off(dequeued));
    let compute_end = off(computed_at).max(compute_start + 1);
    let queue_us = compute_start.saturating_sub(queue_start);
    let compute_us = compute_end - compute_start;
    let mut spans = vec![
        SpanRecord {
            trace_id: ctx.trace_id.clone(),
            name: "queue".to_string(),
            start_us: queue_start,
            dur_us: queue_us.max(1),
            detail: String::new(),
        },
        SpanRecord {
            trace_id: ctx.trace_id.clone(),
            name: "compute".to_string(),
            start_us: compute_start,
            dur_us: compute_us,
            detail,
        },
    ];
    let engine_base = off(engine_start);
    for p in &phases {
        let start = engine_base + p.start_ns / 1_000;
        let start = start.clamp(compute_start, compute_end.saturating_sub(1));
        let dur = (p.dur_ns / 1_000).max(1).min(compute_end - start);
        spans.push(SpanRecord {
            trace_id: ctx.trace_id.clone(),
            name: format!("engine:{}", p.name),
            start_us: start,
            dur_us: dur,
            detail: String::new(),
        });
    }
    shared.journal.extend(spans);
    TimingBody {
        trace_id: ctx.trace_id.clone(),
        hops: Vec::new(),
        serve: Some(ServeTiming {
            total_us: 0,
            parse_us: 0,
            queue_us,
            compute_us,
            cache: cache_kind.to_string(),
        }),
        gateway: None,
    }
}
