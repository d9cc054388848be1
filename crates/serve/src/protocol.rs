//! Wire protocol: newline-delimited JSON requests and responses.
//!
//! Every request is a single JSON object on one line, dispatched on its
//! `"op"` field; every response is a single JSON object on one line,
//! discriminated by its `"status"` field. See `crates/serve/README.md` for
//! the full protocol reference with examples.

use serde::{Deserialize, Serialize};

use hetsched_core::{ProblemInstance, Schedule};
use hetsched_dag::io::DagSpec;
use hetsched_dag::Fingerprint;
use hetsched_platform::SystemSpec;
use hetsched_sim::SimResult;

/// The four scheduling operations. Each labels its own outcome counters
/// on both tiers, and only their lines may take the gateway's wire fast
/// path; the control ops (`hello`, `stats`, ...) do neither.
/// [`Op::ALL`] lists them in declaration order, so `op as usize` indexes
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `{"op":"schedule", ...}`
    Schedule,
    /// `{"op":"patch", ...}`
    Patch,
    /// `{"op":"portfolio", ...}`
    Portfolio,
    /// `{"op":"schedule_many", ...}`
    ScheduleMany,
}

impl Op {
    /// Every scheduling op, in the order the outcome counters render.
    pub const ALL: [Op; 4] = [Op::Schedule, Op::Patch, Op::Portfolio, Op::ScheduleMany];

    /// The protocol spelling: the request's `op` value and the `op`
    /// metrics label.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Schedule => "schedule",
            Op::Patch => "patch",
            Op::Portfolio => "portfolio",
            Op::ScheduleMany => "schedule_many",
        }
    }

    /// The scheduling op a raw `op` value spells, if it spells one.
    pub fn from_name(name: &[u8]) -> Option<Op> {
        Op::ALL
            .into_iter()
            .find(|op| op.as_str().as_bytes() == name)
    }
}

/// Per-request options for a `schedule` request.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RequestOptions {
    /// Run the zero-noise discrete-event simulator on the produced schedule
    /// and report its makespan as a cross-check.
    #[serde(default)]
    pub simulate: bool,
    /// Per-request deadline in milliseconds; the service answers `timeout`
    /// if the schedule is not ready in time. Falls back to the service's
    /// configured default when absent.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub deadline_ms: Option<u64>,
    /// Diagnostic aid: make the worker sleep this long before scheduling.
    /// Used to exercise deadline handling deterministically; not for
    /// production requests.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub debug_sleep_ms: Option<u64>,
    /// Diagnostic aid: make the worker panic instead of scheduling, to
    /// exercise panic isolation. The daemon must survive and answer
    /// `error`.
    #[serde(default)]
    pub debug_panic: bool,
    /// Capture a scheduler trace while computing and attach it to the
    /// response (`trace` field of the schedule payload): placement
    /// decision log, engine counters, and phase timings. Tracing never
    /// changes the produced schedule; it only observes. Part of the cache
    /// key, so traced and untraced requests memoize separately.
    #[serde(default)]
    pub trace: bool,
    /// Intra-algorithm search threads for this request (GA and BNB
    /// candidate evaluation; the other algorithms run on one thread),
    /// capped by the service's worker pool size. Schedules are
    /// bit-identical at any thread count, so like `deadline_ms` this is
    /// not part of the cache key. Falls back to the daemon's environment
    /// (`HETSCHED_JOBS`, then available parallelism) when absent.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub jobs: Option<usize>,
    /// Distributed trace context. When present, every tier the request
    /// passes through (gateway, shard service, worker) records spans under
    /// `trace_id` into its in-memory journal (drained by the `journal` op)
    /// and the reply carries a [`TimingBody`] with the hop-by-hop
    /// breakdown. Like `deadline_ms` and `jobs`, the context is **not**
    /// part of any memo or dedup key and never changes a schedule byte:
    /// tracing observes routing and queueing, not scheduling.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace_ctx: Option<TraceCtx>,
}

impl RequestOptions {
    /// Fold the options that shape a reply into a request key: all but
    /// `deadline_ms`, `jobs` and `trace_ctx`, which change how long or how
    /// a request runs, never its reply.
    pub fn fold_fingerprint(&self, fp: &mut Fingerprint) {
        fp.tag("options");
        fp.push_u8(self.simulate as u8);
        fp.push_u8(self.debug_panic as u8);
        fp.push_u64(self.debug_sleep_ms.unwrap_or(0));
        fp.push_u8(self.trace as u8);
    }
}

/// Per-request distributed trace context, carried in
/// [`RequestOptions::trace_ctx`] and propagated gateway → shard → worker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCtx {
    /// Request-unique trace id (16 lowercase hex digits by convention;
    /// any non-empty string is accepted and echoed back verbatim).
    pub trace_id: String,
    /// Per-hop monotonic timestamps, appended by each tier that forwards
    /// the request downstream. Clocks are per-process monotonic offsets
    /// (µs since that tier received the request), not wall time, so hops
    /// are comparable within a tier but only ordered across tiers.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub hops: Vec<Hop>,
}

impl TraceCtx {
    /// A fresh context with the given id and no recorded hops.
    pub fn new(trace_id: impl Into<String>) -> Self {
        TraceCtx {
            trace_id: trace_id.into(),
            hops: Vec::new(),
        }
    }
}

/// One hop stamp in a [`TraceCtx`]: which tier forwarded the request, and
/// how long it had held it (µs on that tier's monotonic clock).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hop {
    /// Forwarding tier (`"gateway"`, `"shard"`).
    pub tier: String,
    /// µs between the tier receiving the request and forwarding it.
    pub sent_at_us: u64,
}

/// A client request, dispatched on the `"op"` field.
// Variant sizes are deliberately uneven: `Schedule` carries the whole
// request payload and each `Request` lives only for the duration of one
// dispatch, so boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum Request {
    /// Compute a schedule for `dag` on `system` with `algorithm`.
    Schedule {
        /// Task graph (validated on receipt).
        dag: DagSpec,
        /// Target system (validated on receipt, sized to the DAG).
        system: SystemSpec,
        /// Registry name of the scheduler (`"HEFT"`, `"ILS-D"`, ...).
        algorithm: String,
        /// Optional request modifiers.
        #[serde(default)]
        options: RequestOptions,
    },
    /// Run several schedulers against one shared problem instance and
    /// return the best schedule plus a per-algorithm makespan table. The
    /// member computations fan out across the worker pool and memoize
    /// individually, exactly as if each had been its own `schedule`
    /// request.
    Portfolio {
        /// Task graph (validated on receipt).
        dag: DagSpec,
        /// Target system (validated on receipt, sized to the DAG).
        system: SystemSpec,
        /// Registry names of the portfolio members, in priority order
        /// (ties on makespan go to the earliest member). Empty means
        /// "every registered algorithm".
        #[serde(default)]
        algorithms: Vec<String>,
        /// Optional request modifiers, applied to every member.
        #[serde(default)]
        options: RequestOptions,
    },
    /// Schedule a whole batch of problem instances with one algorithm in
    /// one round trip. Replies with an `ok` whose `many` payload holds one
    /// schedule body **per instance, in request order** — each body
    /// exactly what a standalone `schedule` request for that instance
    /// would have produced (the reply memo is consulted per instance, so a
    /// batch can mix cache hits and fresh computations). High-QPS streams
    /// of small DAGs pay one request round trip instead of N.
    ScheduleMany {
        /// The batch, in reply order.
        instances: Vec<InstanceSpec>,
        /// Registry name of the scheduler, applied to every instance.
        algorithm: String,
        /// Optional request modifiers, applied to every instance.
        #[serde(default)]
        options: RequestOptions,
    },
    /// Incrementally reschedule a cached problem: apply `deltas` to the
    /// instance whose content fingerprint is `parent` (the `problem` field
    /// of an earlier schedule response) and schedule the patched problem.
    /// The reply is bit-identical to sending the full patched problem as a
    /// `schedule` request — for the EFT family the service gets there by
    /// *repairing* the parent's schedule instead of recomputing it. An
    /// unknown or evicted `parent` answers with an error starting
    /// `unknown_parent`; re-send the full problem to re-seed the cache.
    Patch {
        /// Content fingerprint (16 hex digits) of the parent problem, as
        /// returned in the `problem` field of a schedule response.
        parent: String,
        /// Registry name of the scheduler (`"HEFT"`, `"ILS-D"`, ...).
        algorithm: String,
        /// Problem deltas, applied in order (validated against the state
        /// each predecessor left behind).
        deltas: Vec<hetsched_core::Delta>,
        /// Optional request modifiers.
        #[serde(default)]
        options: RequestOptions,
    },
    /// Identify the peer: answers with a `hello` payload naming the
    /// service, its version, and its capacity. The gateway sends this as a
    /// handshake when it opens a shard connection, so a misconfigured
    /// backend (wrong port, wrong protocol) is caught before any request
    /// is routed to it.
    Hello,
    /// Query service counters and latency quantiles.
    Stats,
    /// Drain this tier's bounded in-memory span journal: answers every
    /// span recorded for traced requests (those carrying
    /// `options.trace_ctx`) since the last drain, then forgets them.
    /// `hetsched-cli explain --service` drains a gateway plus its shards
    /// and merges the journals into one Chrome-trace timeline.
    Journal,
    /// Render every service metric family in the Prometheus text
    /// exposition format (counters, gauges, latency histograms — global
    /// and per algorithm).
    Metrics,
    /// Begin graceful shutdown: stop accepting work, drain in-flight
    /// requests, then exit.
    Shutdown,
}

impl Request {
    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, serde_json::Error> {
        serde_json::from_str(line)
    }

    /// The scheduling op this request carries, the registry names it
    /// schedules with (a portfolio's list, else its one algorithm), and
    /// its options; `None` for the control ops.
    pub fn op(&self) -> Option<(Op, &[String], &RequestOptions)> {
        use std::slice::from_ref;
        match self {
            Request::Schedule {
                algorithm, options, ..
            } => Some((Op::Schedule, from_ref(algorithm), options)),
            Request::Patch {
                algorithm, options, ..
            } => Some((Op::Patch, from_ref(algorithm), options)),
            Request::Portfolio {
                algorithms,
                options,
                ..
            } => Some((Op::Portfolio, algorithms, options)),
            Request::ScheduleMany {
                algorithm, options, ..
            } => Some((Op::ScheduleMany, from_ref(algorithm), options)),
            _ => None,
        }
    }

    /// A scheduling request's options, to rewrite before forwarding;
    /// `None` for the control ops.
    pub fn options_mut(&mut self) -> Option<&mut RequestOptions> {
        match self {
            Request::Schedule { options, .. }
            | Request::Patch { options, .. }
            | Request::Portfolio { options, .. }
            | Request::ScheduleMany { options, .. } => Some(options),
            _ => None,
        }
    }
}

/// Build the problem a request's `dag` and `system` describe: the one
/// validation both tiers run. The error is the `error` message either
/// tier answers; `instance`, a `schedule_many` member's index, is named
/// in it.
pub fn build_problem(
    dag: &DagSpec,
    system: &SystemSpec,
    instance: Option<usize>,
) -> Result<ProblemInstance<'static>, String> {
    let invalid = |what: &str, e: &dyn std::fmt::Display| match instance {
        None => format!("invalid {what}: {e}"),
        Some(i) => format!("invalid {what} (instance {i}): {e}"),
    };
    let dag = dag.build().map_err(|e| invalid("dag", &e))?;
    let sys = system.build(&dag).map_err(|e| invalid("system", &e))?;
    Ok(ProblemInstance::new(dag, sys))
}

/// Parse a `patch` parent: exactly 16 hex digits, as the `problem` field
/// of a schedule reply carries it (no sign, unlike
/// [`u64::from_str_radix`]). The error is the `unknown_parent` message
/// both tiers answer.
pub fn parse_parent(parent: &str) -> Result<u64, String> {
    match u64::from_str_radix(parent, 16) {
        Ok(key) if parent.len() == 16 && parent.bytes().all(|b| b.is_ascii_hexdigit()) => Ok(key),
        _ => Err(format!(
            "unknown_parent: `{parent}` is not a 16-hex-digit problem fingerprint \
             (use the `problem` field of an earlier schedule response)"
        )),
    }
}

/// One problem of a `schedule_many` batch: a DAG plus its target system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstanceSpec {
    /// Task graph (validated on receipt).
    pub dag: DagSpec,
    /// Target system (validated on receipt, sized to the DAG).
    pub system: SystemSpec,
}

/// Batch payload of a `schedule_many` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduleManyBody {
    /// One schedule body per requested instance, **in request order** —
    /// entry `i` answers instance `i`.
    pub entries: Vec<ScheduleBody>,
    /// How many entries were served from the reply memo.
    pub cached: usize,
    /// How many entries were computed fresh by this request.
    pub computed: usize,
}

/// Successful scheduling payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduleBody {
    /// Scheduler registry name that produced this schedule.
    pub algorithm: String,
    /// Predicted makespan (seconds).
    pub makespan: f64,
    /// Schedule length ratio (makespan over the communication-free
    /// critical-path lower bound).
    pub slr: f64,
    /// Speedup over the best single processor.
    pub speedup: f64,
    /// Content fingerprint of (DAG + system + algorithm + options), hex.
    pub fingerprint: String,
    /// Content fingerprint of the problem alone (DAG + system), hex —
    /// the key a later `patch` request names as its `parent`.
    #[serde(default)]
    pub problem: String,
    /// Whether this response was served from the memoization cache.
    pub cached: bool,
    /// The schedule itself (per-processor timelines).
    pub schedule: Schedule,
    /// Zero-noise simulator replay, when `options.simulate` was set.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sim: Option<SimBody>,
    /// Scheduler trace, when `options.trace` was set.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<TraceBody>,
    /// How an incremental repair spent its work, when this schedule was
    /// computed by the `patch` repair path (absent for from-scratch
    /// computations). Cache hits replay whatever the stored body recorded.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub repair: Option<RepairBody>,
}

/// Repair accounting attached to a schedule computed via the `patch` op's
/// incremental path. The schedule itself is bit-identical to a
/// from-scratch run either way; this only reports how much work the
/// service skipped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RepairBody {
    /// Leading rank-order placements replayed verbatim from the parent.
    pub replayed: usize,
    /// Tasks re-placed by the ordinary EFT loop.
    pub rescheduled: usize,
    /// Whether the repair fell back to a full from-scratch run.
    pub fresh: bool,
}

/// Scheduler trace attached to a schedule response when `options.trace`
/// is set. Cache hits return the trace captured when the schedule was
/// first computed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceBody {
    /// Engine counters accumulated over the whole run.
    pub counters: hetsched_trace::Counters,
    /// Phase-level profiling spans (rank computation, placement loop).
    pub phases: Vec<hetsched_trace::PhaseSpan>,
    /// Full event log: task selections, EFT decisions with per-processor
    /// candidates, and the placement decision log of the final schedule.
    pub events: Vec<hetsched_trace::Event>,
}

/// Hop-by-hop latency breakdown attached to a reply when the request
/// carried [`RequestOptions::trace_ctx`]. Purely observational: the
/// scheduling payload is byte-identical with or without it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingBody {
    /// Trace id echoed from the request's context.
    pub trace_id: String,
    /// Hop stamps accumulated while the request travelled downstream.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub hops: Vec<Hop>,
    /// Shard-service breakdown (absent on gateway-local replies that
    /// never reached a shard, e.g. sheds).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub serve: Option<ServeTiming>,
    /// Gateway breakdown, inserted by the gateway on the way back
    /// (absent when the client talked to a shard directly).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub gateway: Option<GatewayTiming>,
}

/// Shard-side timing: where the request spent its time inside one serve
/// daemon.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServeTiming {
    /// End-to-end µs from transport parse to the reply being ready.
    pub total_us: u64,
    /// µs parsing the request line into the typed request.
    pub parse_us: u64,
    /// µs the job waited in the bounded queue before a worker picked it
    /// up (0 for memo hits, which never enqueue).
    pub queue_us: u64,
    /// µs of worker compute (scheduling + validation + optional
    /// simulation; 0 for memo hits).
    pub compute_us: u64,
    /// Cache disposition: `"memo"` (reply memo hit), `"computed"` (fresh
    /// schedule), or `"repaired"` (patch served by incremental repair).
    pub cache: String,
}

/// Gateway-side timing: admission, dedup disposition, and backend time.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GatewayTiming {
    /// End-to-end µs from socket arrival to the reply line being ready.
    pub total_us: u64,
    /// µs spent on admission (parse, validation, deadline check, shard
    /// selection) before the dedup/forward decision.
    pub admission_us: u64,
    /// Single-flight disposition: `"leader"` (this request computed),
    /// `"follower"` (coalesced onto an identical in-flight request), or
    /// `"none"` (gateway-local reply).
    pub dedup: String,
    /// µs spent inside backend round trips (leader) or waiting on the
    /// leader's reply (follower).
    pub backend_us: u64,
    /// Backend attempts (1 = home shard; more = failover).
    pub attempts: u32,
}

/// Journal payload returned by the `journal` op: every span recorded
/// since the last drain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalBody {
    /// Which tier recorded these spans (`"gateway"` or `"shard"`).
    pub source: String,
    /// Drained spans, in recording order.
    pub spans: Vec<SpanRecord>,
}

/// One completed span in a tier's journal. Timestamps are µs offsets on
/// the recording tier's monotonic clock, relative to the moment that
/// tier received the traced request — so spans of one request nest
/// within its root `request` span by construction, and a merger aligns
/// tiers by nesting a shard's root span inside the gateway's `backend`
/// span for the same trace id.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Trace id of the request this span belongs to.
    pub trace_id: String,
    /// Span name (`request`, `admission`, `backend`, `queue`,
    /// `compute`, `engine:<phase>`, ...).
    pub name: String,
    /// µs offset from the request's arrival at the recording tier.
    pub start_us: u64,
    /// Span duration, µs.
    pub dur_us: u64,
    /// Free-form detail (shard address, dedup role, cache disposition).
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub detail: String,
}

/// One member row of a portfolio response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PortfolioEntryBody {
    /// Scheduler registry name.
    pub algorithm: String,
    /// The member's predicted makespan.
    pub makespan: f64,
    /// Whether this member's schedule came from the memoization cache.
    pub cached: bool,
}

/// Portfolio payload: the winning member's full schedule plus the
/// per-algorithm makespan table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PortfolioBody {
    /// Per-member results, in the requested order.
    pub entries: Vec<PortfolioEntryBody>,
    /// Index into `entries` of the winner (minimum makespan under total
    /// order; ties go to the earliest member).
    pub best: usize,
    /// The winning member's full schedule payload.
    pub schedule: ScheduleBody,
}

/// Simulator cross-check attached to a schedule response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimBody {
    /// Raw simulator result (realized makespan, per-task finish times,
    /// event count).
    pub result: SimResult,
    /// Whether the simulated makespan matches the predicted one to within
    /// numerical tolerance.
    pub matches_prediction: bool,
}

/// Identification payload returned by the `hello` op. This is the shard
/// handshake: the gateway refuses to route to a backend whose `service`
/// field is not `"hetsched-serve"`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HelloBody {
    /// Service identifier; always `"hetsched-serve"` for this daemon.
    pub service: String,
    /// Crate version of the responding daemon.
    pub version: String,
    /// Worker threads in the responding daemon's pool.
    pub workers: usize,
    /// Bounded queue capacity of the responding daemon.
    pub queue_capacity: usize,
}

/// Service counters and latency quantiles returned by the `stats` op.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsBody {
    /// Schedule requests received (cache hits included, rejects excluded).
    pub requests: u64,
    /// Requests answered from the memoization cache.
    pub cache_hits: u64,
    /// Requests that computed a fresh schedule to completion.
    pub computed: u64,
    /// Requests answered `error` (bad input, unknown algorithm, panic).
    pub errors: u64,
    /// Worker panics caught (a subset of `errors`).
    pub panics: u64,
    /// Requests answered `timeout`.
    pub timeouts: u64,
    /// Requests answered `busy` (queue full).
    pub busy_rejections: u64,
    /// Connection threads that exited by panicking (joined and counted by
    /// the transport's reaper; the daemon itself keeps serving).
    #[serde(default)]
    pub connection_panics: u64,
    /// Entries currently in the memoization cache.
    pub cache_entries: usize,
    /// Problem-instance cache hits: requests that reused a shared
    /// `ProblemInstance` (and therefore its memoized rank vectors).
    #[serde(default)]
    pub instance_cache_hits: u64,
    /// Problem-instance cache misses: instances built fresh.
    #[serde(default)]
    pub instance_cache_misses: u64,
    /// Entries currently in the problem-instance cache.
    #[serde(default)]
    pub instance_cache_entries: usize,
    /// `patch` requests accepted (parent found, deltas applied).
    #[serde(default)]
    pub patches: u64,
    /// Schedules produced by incremental repair rather than from-scratch
    /// computation (a subset of `computed`).
    #[serde(default)]
    pub repairs: u64,
    /// Always 0: a shard has no wire cache, and a repeat is a memo hit
    /// (`cache_hits`). Kept, with the next two, for readers of the stats
    /// layout; the gateway's wire cache counts in its own stats.
    #[serde(default)]
    pub wire_hits: u64,
    /// Always 0 (see `wire_hits`).
    #[serde(default)]
    pub wire_misses: u64,
    /// Always 0 (see `wire_hits`).
    #[serde(default)]
    pub wire_fallbacks: u64,
    /// Worker threads.
    pub workers: usize,
    /// Bounded queue capacity.
    pub queue_capacity: usize,
    /// Latency samples recorded (completed schedule requests).
    pub latency_samples: u64,
    /// Median end-to-end schedule latency, microseconds.
    pub latency_p50_us: f64,
    /// 99th-percentile end-to-end schedule latency, microseconds.
    pub latency_p99_us: f64,
    /// Median queue wait of computed jobs (enqueue → worker dequeue), µs.
    #[serde(default)]
    pub qwait_p50_us: f64,
    /// 99th-percentile queue wait of computed jobs, µs.
    #[serde(default)]
    pub qwait_p99_us: f64,
    /// Median worker compute time of computed jobs, µs.
    #[serde(default)]
    pub compute_p50_us: f64,
    /// 99th-percentile worker compute time of computed jobs, µs.
    #[serde(default)]
    pub compute_p99_us: f64,
}

/// A service response, discriminated on the `"status"` field.
#[allow(clippy::large_enum_variant)] // `Ok` carries the payload; see `Request`
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "status", rename_all = "snake_case")]
pub enum Response {
    /// Request succeeded.
    Ok {
        /// Scheduling payload (`schedule` op).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        schedule: Option<ScheduleBody>,
        /// Stats payload (`stats` op).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        stats: Option<StatsBody>,
        /// Prometheus text exposition (`metrics` op).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        metrics: Option<String>,
        /// Portfolio payload (`portfolio` op).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        portfolio: Option<PortfolioBody>,
        /// Batch payload (`schedule_many` op).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        many: Option<ScheduleManyBody>,
        /// Identification payload (`hello` op).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        hello: Option<HelloBody>,
        /// Journal payload (`journal` op).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        journal: Option<JournalBody>,
        /// Hop-by-hop latency breakdown, attached when the request
        /// carried a trace context. Sits beside the scheduling payload
        /// (never inside it) so memoized schedule bodies stay
        /// byte-identical whether or not a request was traced.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        timing: Option<TimingBody>,
    },
    /// The bounded request queue is full; retry later.
    Busy {
        /// Human-readable detail.
        message: String,
    },
    /// Load shed: the request was refused by admission control before it
    /// occupied a shard slot (gateway queue over depth, per-shard inflight
    /// budget exhausted, or the deadline already passed on arrival).
    /// Distinct from `busy`, which means a shard's own bounded queue was
    /// full: `shed` is the front door turning work away early.
    Shed {
        /// Human-readable detail.
        message: String,
    },
    /// The per-request deadline passed before the schedule was ready. The
    /// computation keeps running and populates the cache, so an identical
    /// retry may hit.
    Timeout {
        /// Human-readable detail.
        message: String,
    },
    /// The request failed (malformed JSON, invalid DAG/system, unknown
    /// algorithm, or an isolated worker panic).
    Error {
        /// Human-readable detail.
        message: String,
    },
    /// Shutdown acknowledged; the service drains and exits.
    ShuttingDown,
}

/// The `error` message both tiers answer a request line with when its
/// bytes are not valid UTF-8. Such a line is refused, not rewritten
/// (replacing the bad bytes would answer a request the client never sent).
pub const INVALID_UTF8: &str = "bad request: line is not valid UTF-8";

/// The `error` message both tiers answer with when more than
/// [`MAX_LINE_BYTES`](crate::transport::MAX_LINE_BYTES) bytes arrive
/// without a newline; the connection then ends.
pub const LINE_TOO_LONG: &str = "bad request: line longer than 8388608 bytes";

impl Response {
    /// Shorthand for an error response.
    pub fn error(message: impl Into<String>) -> Self {
        Response::Error {
            message: message.into(),
        }
    }

    /// Shorthand for a load-shed response.
    pub fn shed(message: impl Into<String>) -> Self {
        Response::Shed {
            message: message.into(),
        }
    }

    /// An `ok` response with every payload slot empty.
    fn ok_empty() -> Self {
        Response::Ok {
            schedule: None,
            stats: None,
            metrics: None,
            portfolio: None,
            many: None,
            hello: None,
            journal: None,
            timing: None,
        }
    }

    /// Shorthand for a schedule payload response.
    pub fn schedule(body: ScheduleBody) -> Self {
        let mut r = Self::ok_empty();
        if let Response::Ok { schedule, .. } = &mut r {
            *schedule = Some(body);
        }
        r
    }

    /// Shorthand for a stats payload response.
    pub fn stats(body: StatsBody) -> Self {
        let mut r = Self::ok_empty();
        if let Response::Ok { stats, .. } = &mut r {
            *stats = Some(body);
        }
        r
    }

    /// Shorthand for a Prometheus metrics response.
    pub fn metrics(text: impl Into<String>) -> Self {
        let mut r = Self::ok_empty();
        if let Response::Ok { metrics, .. } = &mut r {
            *metrics = Some(text.into());
        }
        r
    }

    /// Shorthand for a portfolio payload response.
    pub fn portfolio(body: PortfolioBody) -> Self {
        let mut r = Self::ok_empty();
        if let Response::Ok { portfolio, .. } = &mut r {
            *portfolio = Some(body);
        }
        r
    }

    /// Shorthand for a `schedule_many` batch payload response.
    pub fn many(body: ScheduleManyBody) -> Self {
        let mut r = Self::ok_empty();
        if let Response::Ok { many, .. } = &mut r {
            *many = Some(body);
        }
        r
    }

    /// Shorthand for a hello (handshake) payload response.
    pub fn hello(body: HelloBody) -> Self {
        let mut r = Self::ok_empty();
        if let Response::Ok { hello, .. } = &mut r {
            *hello = Some(body);
        }
        r
    }

    /// Shorthand for a journal payload response.
    pub fn journal(body: JournalBody) -> Self {
        let mut r = Self::ok_empty();
        if let Response::Ok { journal, .. } = &mut r {
            *journal = Some(body);
        }
        r
    }

    /// Attach (or replace) the timing block of an `ok` response; a no-op
    /// on every other status.
    pub fn with_timing(mut self, body: TimingBody) -> Self {
        if let Response::Ok { timing, .. } = &mut self {
            *timing = Some(body);
        }
        self
    }

    /// Serialize as one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("response serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_request_roundtrip() {
        let line = r#"{"op":"schedule","dag":{"tasks":[{"weight":2.0},{"weight":3.0}],"edges":[{"src":0,"dst":1,"data":4.0}]},"system":{"processors":{"kind":"homogeneous","count":2},"network":{"topology":"fully_connected","bandwidth":1.0}},"algorithm":"HEFT"}"#;
        let req = Request::parse(line).unwrap();
        match &req {
            Request::Schedule {
                dag,
                algorithm,
                options,
                ..
            } => {
                assert_eq!(dag.tasks.len(), 2);
                assert_eq!(algorithm, "HEFT");
                assert_eq!(*options, RequestOptions::default());
            }
            other => panic!("wrong op: {other:?}"),
        }
        // And the serialized form parses back to the same op.
        let back = Request::parse(&serde_json::to_string(&req).unwrap()).unwrap();
        assert!(matches!(back, Request::Schedule { .. }));
    }

    #[test]
    fn schedule_many_roundtrip() {
        let line = r#"{"op":"schedule_many","instances":[
            {"dag":{"tasks":[{"weight":2.0}],"edges":[]},
             "system":{"processors":{"kind":"homogeneous","count":2},"network":{"topology":"fully_connected","bandwidth":1.0}}},
            {"dag":{"tasks":[{"weight":1.0},{"weight":3.0}],"edges":[{"src":0,"dst":1,"data":4.0}]},
             "system":{"processors":{"kind":"homogeneous","count":2},"network":{"topology":"fully_connected","bandwidth":1.0}}}],
            "algorithm":"HEFT"}"#;
        let req = Request::parse(line).unwrap();
        match &req {
            Request::ScheduleMany {
                instances,
                algorithm,
                options,
            } => {
                assert_eq!(instances.len(), 2);
                assert_eq!(instances[1].dag.tasks.len(), 2);
                assert_eq!(algorithm, "HEFT");
                assert_eq!(*options, RequestOptions::default());
            }
            other => panic!("wrong op: {other:?}"),
        }
        let back = Request::parse(&serde_json::to_string(&req).unwrap()).unwrap();
        assert!(matches!(back, Request::ScheduleMany { .. }));
    }

    #[test]
    fn patch_roundtrip() {
        let req = Request::parse(
            r#"{"op":"patch","parent":"00000000deadbeef","algorithm":"HEFT",
                "deltas":[{"kind":"etc_entry","task":1,"proc":0,"time":4.5},
                          {"kind":"task_weight","task":2,"weight":3.0}]}"#,
        )
        .unwrap();
        match &req {
            Request::Patch {
                parent,
                algorithm,
                deltas,
                options,
            } => {
                assert_eq!(parent, "00000000deadbeef");
                assert_eq!(algorithm, "HEFT");
                assert_eq!(deltas.len(), 2);
                assert!(matches!(deltas[0], hetsched_core::Delta::EtcEntry { .. }));
                assert_eq!(*options, RequestOptions::default());
            }
            other => panic!("wrong op: {other:?}"),
        }
        let back = Request::parse(&serde_json::to_string(&req).unwrap()).unwrap();
        assert!(matches!(back, Request::Patch { .. }));
    }

    #[test]
    fn schedule_body_problem_field_defaults_for_old_peers() {
        // A pre-patch peer's schedule body (no `problem`, no `repair`)
        // still deserializes; the patch key just comes back empty.
        let v = serde_json::json!({
            "algorithm": "HEFT", "makespan": 1.0, "slr": 1.0, "speedup": 1.0,
            "fingerprint": "0000000000000001", "cached": false,
            "schedule": Schedule::new(1, 1),
        });
        let body: ScheduleBody = serde_json::from_value(v).unwrap();
        assert_eq!(body.problem, "");
        assert!(body.repair.is_none());
    }

    #[test]
    fn hello_roundtrip_and_shed_line() {
        assert!(matches!(
            Request::parse(r#"{"op":"hello"}"#).unwrap(),
            Request::Hello
        ));
        let line = Response::hello(HelloBody {
            service: "hetsched-serve".to_string(),
            version: "0.1.0".to_string(),
            workers: 2,
            queue_capacity: 8,
        })
        .to_line();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["status"].as_str(), Some("ok"));
        assert_eq!(v["hello"]["service"].as_str(), Some("hetsched-serve"));
        assert_eq!(v["hello"]["workers"].as_u64(), Some(2));

        let line = Response::shed("queue over depth").to_line();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["status"].as_str(), Some("shed"));
        assert_eq!(v["message"].as_str(), Some("queue over depth"));
        // and it parses back into the typed enum
        let back: Response = serde_json::from_str(&line).unwrap();
        assert!(matches!(back, Response::Shed { .. }));
    }

    #[test]
    fn unit_ops_roundtrip() {
        assert!(matches!(
            Request::parse(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            Request::parse(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics
        ));
        assert!(matches!(
            Request::parse(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
    }

    #[test]
    fn metrics_response_carries_text() {
        let line = Response::metrics("# HELP x y\n# TYPE x counter\nx 1\n").to_line();
        assert!(!line.contains('\n') || line.contains("\\n"));
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["status"].as_str(), Some("ok"));
        assert!(v["metrics"].as_str().unwrap().contains("# TYPE x counter"));
    }

    #[test]
    fn parse_parent_requires_exactly_16_hex_digits() {
        let parse = |parent| parse_parent(parent).ok();
        assert_eq!(parse("0123456789abcdef"), Some(0x0123456789abcdef));
        assert_eq!(parse("ffffffffffffffff"), Some(u64::MAX));
        assert_eq!(parse("0123456789abcde"), None, "15 digits");
        assert_eq!(parse("0123456789abcdef0"), None, "17 digits");
        assert_eq!(parse("0123456789abcdeg"), None, "not hex");
        assert_eq!(parse(""), None);
        assert_eq!(parse("+123456789abcdef"), None, "no sign prefix");
        assert_eq!(parse("-123456789abcdef"), None, "no sign prefix");
        let message = parse_parent("+123456789abcdef").unwrap_err();
        assert!(
            message.starts_with("unknown_parent: `+123456789abcdef` is not a 16-hex-digit"),
            "{message}"
        );
    }

    #[test]
    fn unknown_op_is_an_error() {
        assert!(Request::parse(r#"{"op":"frobnicate"}"#).is_err());
        assert!(Request::parse("not json").is_err());
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let r = Response::error("boom");
        let line = r.to_line();
        assert!(!line.contains('\n'));
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["status"].as_str(), Some("error"));
        assert_eq!(v["message"].as_str(), Some("boom"));

        let line = Response::ShuttingDown.to_line();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["status"].as_str(), Some("shutting_down"));
    }

    #[test]
    fn options_default_and_explicit() {
        let opts: RequestOptions =
            serde_json::from_str(r#"{"simulate":true,"deadline_ms":250}"#).unwrap();
        assert!(opts.simulate);
        assert_eq!(opts.deadline_ms, Some(250));
        assert_eq!(opts.debug_sleep_ms, None);
        assert!(!opts.debug_panic);
        assert!(!opts.trace);

        let opts: RequestOptions = serde_json::from_str(r#"{"trace":true}"#).unwrap();
        assert!(opts.trace);
    }

    #[test]
    fn trace_ctx_roundtrip_and_absence_is_byte_stable() {
        // Absent context serializes to nothing: an untraced request line
        // is byte-identical to one built before trace_ctx existed.
        let line = serde_json::to_string(&RequestOptions::default()).unwrap();
        assert!(!line.contains("trace_ctx"), "{line}");

        let opts: RequestOptions = serde_json::from_str(
            r#"{"trace_ctx":{"trace_id":"00deadbeef001234",
                "hops":[{"tier":"gateway","sent_at_us":42}]}}"#,
        )
        .unwrap();
        let ctx = opts.trace_ctx.as_ref().unwrap();
        assert_eq!(ctx.trace_id, "00deadbeef001234");
        assert_eq!(ctx.hops.len(), 1);
        assert_eq!(ctx.hops[0].tier, "gateway");
        assert_eq!(ctx.hops[0].sent_at_us, 42);
        let back: RequestOptions =
            serde_json::from_str(&serde_json::to_string(&opts).unwrap()).unwrap();
        assert_eq!(back, opts);
    }

    #[test]
    fn journal_op_and_timing_block_roundtrip() {
        assert!(matches!(
            Request::parse(r#"{"op":"journal"}"#).unwrap(),
            Request::Journal
        ));
        let line = Response::journal(JournalBody {
            source: "gateway".into(),
            spans: vec![SpanRecord {
                trace_id: "00deadbeef001234".into(),
                name: "request".into(),
                start_us: 0,
                dur_us: 1200,
                detail: String::new(),
            }],
        })
        .to_line();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["status"].as_str(), Some("ok"));
        assert_eq!(v["journal"]["source"].as_str(), Some("gateway"));
        assert_eq!(v["journal"]["spans"][0]["dur_us"].as_u64(), Some(1200));
        // empty detail is elided from the wire
        assert!(!line.contains("detail"), "{line}");

        let timing = TimingBody {
            trace_id: "00deadbeef001234".into(),
            hops: vec![],
            serve: Some(ServeTiming {
                total_us: 900,
                parse_us: 10,
                queue_us: 100,
                compute_us: 700,
                cache: "computed".into(),
            }),
            gateway: None,
        };
        let line = Response::hello(HelloBody {
            service: "hetsched-serve".into(),
            version: "0".into(),
            workers: 1,
            queue_capacity: 1,
        })
        .with_timing(timing)
        .to_line();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["timing"]["serve"]["compute_us"].as_u64(), Some(700));
        assert_eq!(v["timing"]["serve"]["cache"].as_str(), Some("computed"));
        // with_timing leaves non-ok statuses untouched
        let line = Response::error("boom").with_timing(TimingBody {
            trace_id: "x".into(),
            hops: vec![],
            serve: None,
            gateway: None,
        });
        assert!(!line.to_line().contains("timing"));
    }
}
