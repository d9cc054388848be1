//! Routing layer: request validation, memoization, deadlines, and
//! admission to the bounded worker queue.
//!
//! Every request line takes one path, [`Service::handle_line_bytes`];
//! [`Service::handle_line`] only decodes the bytes it returns. Life of a
//! `schedule` request:
//!
//! 1. The submitting thread (a TCP connection thread or the stdin loop)
//!    parses and validates the request, builds the `Dag`/`System`, and
//!    computes the request's content fingerprint.
//! 2. On a memo hit the entry's preserialized reply line is returned
//!    immediately (`cached: true`).
//! 3. Otherwise the job goes into a bounded crossbeam channel. A full
//!    queue answers `busy` right away — backpressure is explicit, never
//!    an unbounded pile-up.
//! 4. A worker (`crate::worker`) picks the job up and runs the scheduler
//!    inside `catch_unwind`, so a panicking algorithm poisons nothing: the
//!    client gets `error` and the daemon keeps serving.
//! 5. The submitting thread waits for the reply with a deadline
//!    (`options.deadline_ms`, else the configured default) and answers
//!    `timeout` if it passes. The worker still finishes and populates the
//!    cache, so an identical retry can hit.
//!
//! `patch` ends the same way. `portfolio` and `schedule_many` fan out:
//! they submit every member, then await each in order, and the first
//! failure answers for the whole request.
//!
//! Shutdown is drain-then-exit: [`Service::shutdown`] closes the queue,
//! lets workers finish every queued job (replies included), then joins
//! them.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use parking_lot::Mutex;

use hetsched_core::{algorithms, repairable, Delta, ProblemInstance, Scheduler};
use hetsched_dag::io::DagSpec;
use hetsched_platform::SystemSpec;

use crate::cache::LruCache;
use crate::journal::Journal;
use crate::metrics::{GaugeSnapshot, RequestStatus, ServiceMetrics};
use crate::protocol::{
    HelloBody, InstanceSpec, JournalBody, PortfolioBody, PortfolioEntryBody, Request,
    RequestOptions, Response, ScheduleBody, ScheduleManyBody, ServeTiming, SpanRecord, StatsBody,
    TimingBody,
};
use crate::worker::{worker_loop, Job, JobCtx, RepairCtx};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads computing schedules.
    pub workers: usize,
    /// Bounded queue capacity; a full queue answers `busy`.
    pub queue_capacity: usize,
    /// Memoization cache capacity (entries).
    pub cache_capacity: usize,
    /// Problem-instance cache capacity (entries). Instances are keyed by
    /// the (DAG, system) content fingerprint only, so requests differing
    /// in algorithm or options share one instance — and its memoized rank
    /// vectors.
    pub instance_cache_capacity: usize,
    /// Deadline applied when a request carries no `deadline_ms`. It also
    /// caps a request's `debug_sleep_ms`.
    pub default_deadline_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(2);
        ServeConfig {
            workers,
            queue_capacity: 64,
            cache_capacity: 256,
            instance_cache_capacity: 64,
            default_deadline_ms: 30_000,
        }
    }
}

/// One reply-memo entry: the computed body plus its hit's reply line,
/// serialized **once** — lazily, on the first hit that answers with it,
/// so a one-shot compute pays nothing for a repeat that never comes.
/// Every later hit clones the `Arc` and re-serializes nothing.
pub(crate) struct MemoEntry {
    /// The body as computed (`cached: false`).
    pub(crate) body: ScheduleBody,
    /// [`MemoEntry::hit_line`], once a hit has asked for it.
    line: OnceLock<Arc<[u8]>>,
}

impl MemoEntry {
    pub(crate) fn new(body: ScheduleBody) -> MemoEntry {
        MemoEntry {
            body,
            line: OnceLock::new(),
        }
    }

    /// The body a memo hit answers: the computed one with `cached: true`.
    /// Traced hits and fan-out members clone it.
    fn hit_body(&self) -> ScheduleBody {
        ScheduleBody {
            cached: true,
            ..self.body.clone()
        }
    }

    /// `Response::schedule` of [`MemoEntry::hit_body`], serialized on the
    /// first call. Concurrent first callers wait for one serialization.
    fn hit_line(&self) -> Arc<[u8]> {
        self.line
            .get_or_init(|| {
                Response::schedule(self.hit_body())
                    .to_line()
                    .into_bytes()
                    .into()
            })
            .clone()
    }
}

/// State shared between the routing layer and the worker pool.
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) metrics: ServiceMetrics,
    pub(crate) cache: Mutex<LruCache<Arc<MemoEntry>>>,
    pub(crate) instances: Mutex<LruCache<Arc<ProblemInstance<'static>>>>,
    pub(crate) shutting: AtomicBool,
    /// Ends every [`Shared::debug_sleep`] when shutdown begins.
    wake: (std::sync::Mutex<()>, Condvar),
    /// Bounded span journal for traced requests, drained by the
    /// `journal` op. Untraced requests never touch it.
    pub(crate) journal: Journal,
}

impl Shared {
    /// Sleep for a request's `debug_sleep_ms`, but no longer than the
    /// configured `default_deadline_ms` and not past the start of
    /// shutdown: no client can hold a worker, or the shutdown drain,
    /// longer than a request may run by default.
    pub(crate) fn debug_sleep(&self, asked: Duration) {
        let cap = Duration::from_millis(self.config.default_deadline_ms);
        let (gate, woken) = &self.wake;
        let held = gate.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = woken.wait_timeout_while(held, asked.min(cap), |_| {
            !self.shutting.load(Ordering::SeqCst)
        });
    }
}

/// The resident scheduling service. Cheap to share behind an `Arc`; every
/// public method takes `&self`.
pub struct Service {
    shared: Arc<Shared>,
    tx: Mutex<Option<Sender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// The address of the listener whose blocked `accept`
    /// [`Service::begin_shutdown`] wakes; unset for stdin and in-process
    /// services.
    pub(crate) wake_addr: OnceLock<SocketAddr>,
}

/// Content fingerprint of a scheduling request: DAG structure and weights,
/// full system (ETC + network), algorithm name, and the options that
/// influence the response body ([`RequestOptions::fold_fingerprint`]).
/// The problem's part is the instance's carried
/// [`ProblemInstance::content_fold`], so the content is folded once per
/// instance, not once per key.
pub fn request_fingerprint(
    inst: &ProblemInstance<'_>,
    algorithm: &str,
    options: &RequestOptions,
) -> u64 {
    let mut fp = inst.content_fold().clone();
    fp.tag("algorithm");
    fp.push_str(algorithm);
    options.fold_fingerprint(&mut fp);
    fp.finish()
}

impl Service {
    /// Start the worker pool and return the ready service.
    ///
    /// # Panics
    /// Panics if `workers` or `queue_capacity` or `cache_capacity` is zero.
    pub fn start(config: ServeConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let (tx, rx) = channel::bounded::<Job>(config.queue_capacity);
        let shared = Arc::new(Shared {
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            instances: Mutex::new(LruCache::new(config.instance_cache_capacity)),
            metrics: ServiceMetrics::new(),
            shutting: AtomicBool::new(false),
            wake: Default::default(),
            journal: Journal::default(),
            config,
        });
        let workers = (0..shared.config.workers)
            .map(|i| {
                let rx = rx.clone();
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("hetsched-worker-{i}"))
                    .spawn(move || worker_loop(rx, shared))
                    .expect("spawning worker thread")
            })
            .collect();
        Service {
            shared,
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
            wake_addr: OnceLock::new(),
        }
    }

    /// Service metrics (live counters).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.shared.metrics
    }

    /// Whether graceful shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting.load(Ordering::SeqCst)
    }

    /// Request graceful shutdown without blocking: new `schedule` requests
    /// are refused, in-flight ones keep running until [`Service::shutdown`]
    /// drains them, and every `debug_sleep_ms` ends now. The first call
    /// also wakes a TCP accept loop with one loopback connect.
    pub fn begin_shutdown(&self) {
        let first = !self.shared.shutting.swap(true, Ordering::SeqCst);
        {
            // Holding the gate orders this wake after any sleeper's check
            // of `shutting`, so none sleeps on.
            let _gate = self
                .shared
                .wake
                .0
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.shared.wake.1.notify_all();
        }
        if let Some(addr) = self.wake_addr.get().filter(|_| first) {
            let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
        }
    }

    /// Drain and stop: close the queue, let workers answer every queued
    /// job, join them. Idempotent; safe to call from any thread.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        drop(self.tx.lock().take());
        let workers = std::mem::take(&mut *self.workers.lock());
        for w in workers {
            let _ = w.join();
        }
    }

    /// Handle one NDJSON request line, returning the reply line's bytes
    /// (no trailing newline): the one request path, which the transport
    /// takes. A repeat is a memo hit answered with the entry's
    /// preserialized line (its `Arc`, no serialization); anything else is
    /// serialized on the spot. Never panics, never blocks past the
    /// request deadline.
    pub fn handle_line_bytes(&self, line: &str) -> Arc<[u8]> {
        let arrival = Instant::now();
        let reply = match Request::parse(line) {
            Ok(req) => {
                let parse_us = arrival.elapsed().as_micros() as u64;
                self.handle_at(req, LineMeta { arrival, parse_us })
            }
            Err(e) => Reply::Typed(self.error(format!("bad request: {e}"))),
        };
        match reply {
            Reply::Bytes(bytes) => bytes,
            Reply::Typed(resp) => resp.to_line().into_bytes().into(),
        }
    }

    /// [`Service::handle_line_bytes`], decoded: the response exactly as a
    /// client reads it.
    pub fn handle_line(&self, line: &str) -> Response {
        let bytes = self.handle_line_bytes(line);
        let text = std::str::from_utf8(&bytes).expect("reply lines are UTF-8 JSON");
        serde_json::from_str(text).expect("reply lines are serialized Responses")
    }

    /// The reply to a line that cannot be read as a request (see
    /// [`crate::protocol::INVALID_UTF8`] and
    /// [`crate::protocol::LINE_TOO_LONG`]): a structured `error` carrying
    /// `message`, counted like any other bad request.
    pub fn error_reply(&self, message: &str) -> Arc<[u8]> {
        self.error(message).to_line().into_bytes().into()
    }

    /// An `error` response, counted.
    fn error(&self, message: impl Into<String>) -> Response {
        ServiceMetrics::bump(&self.shared.metrics.errors);
        Response::error(message)
    }

    fn handle_at(&self, req: Request, meta: LineMeta) -> Reply {
        let (op, deadline_ms, reply) = match req {
            Request::Hello => return Reply::Typed(Response::hello(self.hello_body())),
            Request::Stats => return Reply::Typed(Response::stats(self.stats_body())),
            Request::Metrics => return Reply::Typed(Response::metrics(self.metrics_text())),
            Request::Journal => {
                return Reply::Typed(Response::journal(JournalBody {
                    source: "shard".to_string(),
                    spans: self.shared.journal.drain(),
                }))
            }
            Request::Shutdown => {
                self.begin_shutdown();
                return Reply::Typed(Response::ShuttingDown);
            }
            // Every op below schedules, and none starts once shutdown has
            // begun.
            _ if self.is_shutting_down() => return Reply::Typed(Response::ShuttingDown),
            Request::Schedule {
                dag,
                system,
                algorithm,
                options,
            } => (
                "schedule",
                options.deadline_ms,
                self.handle_schedule(dag, system, algorithm, options, meta),
            ),
            Request::Patch {
                parent,
                algorithm,
                deltas,
                options,
            } => (
                "patch",
                options.deadline_ms,
                self.handle_patch(&parent, algorithm, &deltas, options, meta),
            ),
            Request::Portfolio {
                dag,
                system,
                algorithms,
                options,
            } => (
                "portfolio",
                options.deadline_ms,
                self.handle_portfolio(dag, system, algorithms, options, meta),
            ),
            Request::ScheduleMany {
                instances,
                algorithm,
                options,
            } => (
                "schedule_many",
                options.deadline_ms,
                self.handle_many(instances, algorithm, options, meta),
            ),
        };
        let reply = reply.unwrap_or_else(Reply::Typed);
        if let Some(status) = reply.status() {
            self.record_outcome(op, deadline_ms, meta.arrival, status);
        }
        reply
    }

    /// Record the end-of-request SLO accounting in one place: the
    /// status-labeled latency histogram, the per-op outcome counter, and —
    /// for deadlined requests that made it — the remaining deadline slack.
    fn record_outcome(
        &self,
        op: &str,
        deadline_ms: Option<u64>,
        started: Instant,
        status: RequestStatus,
    ) {
        let m = &self.shared.metrics;
        let elapsed = started.elapsed();
        m.latency.record(status, elapsed);
        m.op_outcomes.bump(op, status);
        if status == RequestStatus::Success {
            if let Some(d) = deadline_ms {
                m.deadline_slack
                    .record(Duration::from_millis(d).saturating_sub(elapsed));
            }
        }
    }

    /// Finish a traced request at this tier: push the root `request` (and
    /// `parse`) spans to the journal and attach the reply's `timing`
    /// block, merging whatever partial serve timing the worker recorded.
    /// Untraced requests pass through untouched.
    fn finalize_timing(
        &self,
        resp: Response,
        options: &RequestOptions,
        meta: LineMeta,
        fallback_cache: &str,
    ) -> Response {
        let Some(ctx) = options.trace_ctx.as_ref() else {
            return resp;
        };
        let total_us = (meta.arrival.elapsed().as_micros() as u64).max(1);
        let mut serve = match &resp {
            Response::Ok {
                timing: Some(t), ..
            } => t.serve.clone().unwrap_or_default(),
            _ => ServeTiming::default(),
        };
        if serve.cache.is_empty() {
            serve.cache = fallback_cache.to_string();
        }
        serve.total_us = total_us;
        serve.parse_us = meta.parse_us;
        self.shared.journal.push(SpanRecord {
            trace_id: ctx.trace_id.clone(),
            name: "parse".to_string(),
            start_us: 0,
            dur_us: meta.parse_us,
            detail: String::new(),
        });
        self.shared.journal.push(SpanRecord {
            trace_id: ctx.trace_id.clone(),
            name: "request".to_string(),
            start_us: 0,
            dur_us: total_us,
            detail: serve.cache.clone(),
        });
        resp.with_timing(TimingBody {
            trace_id: ctx.trace_id.clone(),
            hops: ctx.hops.clone(),
            serve: Some(serve),
            gateway: None,
        })
    }

    /// Identification payload for the `hello` handshake.
    pub fn hello_body(&self) -> HelloBody {
        HelloBody {
            service: "hetsched-serve".to_string(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            workers: self.shared.config.workers,
            queue_capacity: self.shared.config.queue_capacity,
        }
    }

    /// Current counters as a stats payload.
    pub fn stats_body(&self) -> StatsBody {
        let m = &self.shared.metrics;
        StatsBody {
            requests: ServiceMetrics::read(&m.requests),
            cache_hits: ServiceMetrics::read(&m.cache_hits),
            computed: ServiceMetrics::read(&m.computed),
            errors: ServiceMetrics::read(&m.errors),
            panics: ServiceMetrics::read(&m.panics),
            timeouts: ServiceMetrics::read(&m.timeouts),
            busy_rejections: ServiceMetrics::read(&m.busy_rejections),
            connection_panics: ServiceMetrics::read(&m.connection_panics),
            cache_entries: self.shared.cache.lock().len(),
            instance_cache_hits: ServiceMetrics::read(&m.instance_cache_hits),
            instance_cache_misses: ServiceMetrics::read(&m.instance_cache_misses),
            instance_cache_entries: self.shared.instances.lock().len(),
            patches: ServiceMetrics::read(&m.patches),
            repairs: ServiceMetrics::read(&m.repairs),
            wire_hits: 0,
            wire_misses: 0,
            wire_fallbacks: 0,
            workers: self.shared.config.workers,
            queue_capacity: self.shared.config.queue_capacity,
            latency_samples: m.latency.success().count(),
            latency_p50_us: m.latency.success().quantile_us(0.50),
            latency_p99_us: m.latency.success().quantile_us(0.99),
            qwait_p50_us: m.queue_wait.quantile_us(0.50),
            qwait_p99_us: m.queue_wait.quantile_us(0.99),
            compute_p50_us: m.compute.quantile_us(0.50),
            compute_p99_us: m.compute.quantile_us(0.99),
        }
    }

    /// All metric families in Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        let queue_depth = self
            .tx
            .lock()
            .as_ref()
            .map(|tx| tx.len() as u64)
            .unwrap_or(0);
        let gauges = GaugeSnapshot {
            queue_depth,
            cache_entries: self.shared.cache.lock().len() as u64,
            instance_cache_entries: self.shared.instances.lock().len() as u64,
            workers: self.shared.config.workers as u64,
            queue_capacity: self.shared.config.queue_capacity as u64,
        };
        self.shared.metrics.render_prometheus(&gauges)
    }

    /// Build the problem instance from its wire specs, reporting protocol
    /// errors uniformly.
    #[allow(clippy::result_large_err)] // the Err is the wire `Response`; see `protocol::Response`
    fn build_problem(
        &self,
        dag: DagSpec,
        system: SystemSpec,
    ) -> Result<ProblemInstance<'static>, Response> {
        let dag = dag
            .build()
            .map_err(|e| self.error(format!("invalid dag: {e}")))?;
        let sys = system
            .build(&dag)
            .map_err(|e| self.error(format!("invalid system: {e}")))?;
        Ok(ProblemInstance::new(dag, sys))
    }

    /// The registry scheduler `name` names, or the one `unknown
    /// algorithm` error every scheduling op answers.
    #[allow(clippy::result_large_err)] // the Err is the wire `Response`; see `protocol::Response`
    fn scheduler(&self, name: &str) -> Result<Box<dyn Scheduler + Send + Sync>, Response> {
        algorithms::by_name(name).ok_or_else(|| {
            self.error(format!(
                "unknown algorithm `{name}` (known: {})",
                algorithms::known_names().join(", ")
            ))
        })
    }

    /// The request's deadline: its `deadline_ms`, else the configured
    /// default.
    fn deadline(&self, options: &RequestOptions) -> Duration {
        Duration::from_millis(
            options
                .deadline_ms
                .unwrap_or(self.shared.config.default_deadline_ms),
        )
    }

    /// The shared [`ProblemInstance`] for `inst`'s problem: the cached
    /// one, or `inst` itself, inserted, on a miss. The cache is keyed by
    /// the (DAG, system) content fingerprint alone — algorithm and options
    /// are deliberately excluded, so a portfolio's members and repeat
    /// requests with different algorithms all share one instance and its
    /// memoized rank vectors. Either way the instance carries the one
    /// content fold that keys it, names the reply's `problem` and starts
    /// every request key on it.
    fn instance_for(&self, inst: ProblemInstance<'static>) -> Arc<ProblemInstance<'static>> {
        let m = &self.shared.metrics;
        // Hash outside the lock: folding a large DAG under it would stall
        // concurrent lookups.
        let key = inst.fingerprint();
        if let Some(hit) = self.shared.instances.lock().get(key) {
            ServiceMetrics::bump(&m.instance_cache_hits);
            return hit.clone();
        }
        let inst = Arc::new(inst);
        ServiceMetrics::bump(&m.instance_cache_misses);
        self.shared.instances.lock().insert(key, inst.clone());
        inst
    }

    /// Enqueue one scheduling job. With `block_until: None` a full queue
    /// answers `busy` immediately (the single-request path). With a
    /// deadline, the send blocks until a slot frees or the deadline
    /// passes — the fan-out path, whose members arrive as one burst that
    /// may legitimately exceed the queue capacity; the workers drain the
    /// queue while the submitter waits.
    #[allow(clippy::result_large_err)] // the Err is the wire `Response`; see `protocol::Response`
    fn enqueue(&self, job: Job, block_until: Option<Instant>) -> Result<(), Response> {
        let guard = self.tx.lock();
        let Some(tx) = guard.as_ref() else {
            return Err(Response::ShuttingDown);
        };
        let busy = |m: &ServiceMetrics| {
            ServiceMetrics::bump(&m.busy_rejections);
            Err(Response::Busy {
                message: format!(
                    "request queue full ({} pending)",
                    self.shared.config.queue_capacity
                ),
            })
        };
        match block_until {
            None => match tx.try_send(job) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(_)) => busy(&self.shared.metrics),
                Err(TrySendError::Disconnected(_)) => Err(Response::ShuttingDown),
            },
            Some(deadline) => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                match tx.send_timeout(job, remaining) {
                    Ok(()) => Ok(()),
                    Err(channel::SendTimeoutError::Timeout(_)) => busy(&self.shared.metrics),
                    Err(channel::SendTimeoutError::Disconnected(_)) => Err(Response::ShuttingDown),
                }
            }
        }
    }

    /// Reply-memo lookup or job submission for one `(instance, algorithm)`
    /// pair: returns the memo entry immediately on a hit (the caller takes
    /// its line or its body), otherwise enqueues the job and hands back
    /// the reply channel to wait on.
    #[allow(clippy::result_large_err)] // the Err is the wire `Response`; see `protocol::Response`
    #[allow(clippy::too_many_arguments)] // the one submission of every scheduling op
    fn memo_or_submit(
        &self,
        inst: &Arc<ProblemInstance<'static>>,
        algorithm: &str,
        alg: Box<dyn Scheduler + Send + Sync>,
        options: &RequestOptions,
        block_until: Option<Instant>,
        repair: Option<RepairCtx>,
        ctx: Option<JobCtx>,
    ) -> Result<MemberState, Response> {
        let m = &self.shared.metrics;
        ServiceMetrics::bump(&m.requests);
        let fp = request_fingerprint(inst, algorithm, options);
        let hit = self.shared.cache.lock().get(fp).cloned();
        if let Some(entry) = hit {
            ServiceMetrics::bump(&m.cache_hits);
            return Ok(MemberState::Memo(entry));
        }
        let (reply_tx, reply_rx) = channel::bounded::<Response>(1);
        self.enqueue(
            Job {
                inst: inst.clone(),
                algorithm: algorithm.to_string(),
                alg,
                options: options.clone(),
                fingerprint: fp,
                repair,
                enqueued: Instant::now(),
                ctx,
                reply: reply_tx,
            },
            block_until,
        )?;
        Ok(MemberState::Pending(reply_rx))
    }

    /// Wait for a submitted job's reply until the request's `deadline`,
    /// counted from `started`. A late job keeps computing and is
    /// memoized; the request is answered `timeout`, naming `member` — a
    /// fan-out's member — when there is one. A pool gone before replying
    /// answers `error`.
    fn await_worker(
        &self,
        rx: &Receiver<Response>,
        started: Instant,
        deadline: Duration,
        member: Option<String>,
    ) -> Response {
        match await_reply(rx, deadline.saturating_sub(started.elapsed())) {
            Ok(resp) => resp,
            Err(channel::RecvTimeoutError::Timeout) => {
                ServiceMetrics::bump(&self.shared.metrics.timeouts);
                let ms = deadline.as_millis();
                let message = match member {
                    None => format!(
                        "deadline of {ms} ms exceeded; the schedule keeps computing and will be cached"
                    ),
                    Some(member) => format!(
                        "deadline of {ms} ms exceeded waiting for {member}; members keep computing and will be cached"
                    ),
                };
                Response::Timeout { message }
            }
            // Workers always reply, even on panic; reaching this means the
            // pool is gone mid-request (shutdown race).
            Err(channel::RecvTimeoutError::Disconnected) => {
                self.error("worker pool shut down before replying")
            }
        }
    }

    #[allow(clippy::result_large_err)] // the Err is the wire `Response`; see `protocol::Response`
    fn handle_schedule(
        &self,
        dag: DagSpec,
        system: SystemSpec,
        algorithm: String,
        options: RequestOptions,
        meta: LineMeta,
    ) -> Result<Reply, Response> {
        let inst = self.build_problem(dag, system)?;
        let alg = self.scheduler(&algorithm)?;
        let inst = self.instance_for(inst);
        Ok(self.single(&inst, &algorithm, alg, &options, meta, None))
    }

    /// Incrementally reschedule a cached problem: resolve `parent` through
    /// the instance cache, apply the deltas, and answer exactly what a
    /// `schedule` request for the patched problem would answer. For the
    /// EFT family the worker gets a [`RepairCtx`] so it can replay the
    /// parent's unaffected placements instead of recomputing them — the
    /// response is bit-identical either way (the core repair contract).
    #[allow(clippy::result_large_err)] // the Err is the wire `Response`; see `protocol::Response`
    fn handle_patch(
        &self,
        parent: &str,
        algorithm: String,
        deltas: &[Delta],
        options: RequestOptions,
        meta: LineMeta,
    ) -> Result<Reply, Response> {
        let parent_key = match u64::from_str_radix(parent, 16) {
            Ok(k) if parent.len() == 16 => k,
            _ => {
                return Err(self.error(format!(
                    "unknown_parent: `{parent}` is not a 16-hex-digit problem fingerprint \
                     (use the `problem` field of an earlier schedule response)"
                )))
            }
        };
        let Some(parent_inst) = self.shared.instances.lock().get(parent_key).cloned() else {
            return Err(self.error(format!(
                "unknown_parent: no cached problem with fingerprint {parent} (never seen or \
                 evicted); re-send the full problem as a `schedule` request to re-seed the cache"
            )));
        };
        let alg = self.scheduler(&algorithm)?;
        let patched = parent_inst
            .apply_deltas(deltas)
            .map_err(|e| self.error(format!("invalid delta: {e}")))?;
        let (inst, dirty) = (Arc::new(patched.instance.into_owned()), patched.dirty);
        ServiceMetrics::bump(&self.shared.metrics.patches);
        // Register the patched problem under its own content fingerprint
        // so follow-up patches can chain off this one, exactly like a full
        // request for the patched problem would have.
        self.shared
            .instances
            .lock()
            .insert(inst.fingerprint(), inst.clone());

        // Repair wants the parent's schedule under the same algorithm and
        // options; when it is no longer memoized (or the algorithm is not
        // repair-capable) the worker simply computes from scratch. Traced
        // requests also compute fresh: a replayed prefix would truncate
        // the decision log the client asked for.
        let repair = repairable(&algorithm)
            .filter(|_| !options.trace)
            .and_then(|scheduler| {
                let parent_fp = request_fingerprint(&parent_inst, &algorithm, &options);
                let parent_sched = self
                    .shared
                    .cache
                    .lock()
                    .get(parent_fp)
                    .map(|e| e.body.schedule.clone())?;
                Some(RepairCtx {
                    scheduler,
                    dirty,
                    parent_inst: parent_inst.clone(),
                    parent_sched,
                })
            });
        Ok(self.single(&inst, &algorithm, alg, &options, meta, repair))
    }

    /// The tail `schedule` and `patch` share: answer a memo hit at once —
    /// untraced, with the entry's preserialized line — or submit the job
    /// and wait for the worker under the request deadline.
    fn single(
        &self,
        inst: &Arc<ProblemInstance<'static>>,
        algorithm: &str,
        alg: Box<dyn Scheduler + Send + Sync>,
        options: &RequestOptions,
        meta: LineMeta,
        repair: Option<RepairCtx>,
    ) -> Reply {
        let m = &self.shared.metrics;
        let ctx = JobCtx::for_options(options, meta.arrival);
        let resp = match self.memo_or_submit(inst, algorithm, alg, options, None, repair, ctx) {
            Ok(MemberState::Memo(entry)) => {
                m.record_algorithm(algorithm, meta.arrival.elapsed());
                if options.trace_ctx.is_none() {
                    return Reply::Bytes(entry.hit_line());
                }
                let resp = Response::schedule(entry.hit_body());
                return Reply::Typed(self.finalize_timing(resp, options, meta, "memo"));
            }
            Ok(MemberState::Pending(rx)) => {
                let resp = self.await_worker(&rx, meta.arrival, self.deadline(options), None);
                if matches!(resp, Response::Ok { .. }) {
                    m.record_algorithm(algorithm, meta.arrival.elapsed());
                }
                resp
            }
            Err(resp) => resp,
        };
        Reply::Typed(self.finalize_timing(resp, options, meta, "none"))
    }

    /// The fan-out `portfolio` and `schedule_many` share: submit every
    /// member, then await each in order, so the worker pool overlaps
    /// them. Every member is an ordinary memoized job, so a later
    /// single request for any of them hits the memo. Submission blocks
    /// (up to the deadline) when the burst exceeds the queue capacity —
    /// workers drain it while we wait. The bodies come back in member
    /// order, memo hits and repeats marked `cached`. The first failure
    /// answers for the whole request, through
    /// [`Service::finalize_timing`] as a single op's does; a timeout names
    /// the member `label` gives for its index and algorithm.
    #[allow(clippy::result_large_err)] // the Err is the wire `Response`; see `protocol::Response`
    fn fan_out(
        &self,
        members: Vec<Member<'_>>,
        options: &RequestOptions,
        meta: LineMeta,
        label: impl Fn(usize, &str) -> String,
    ) -> Result<Vec<ScheduleBody>, Response> {
        let failed = |resp| self.finalize_timing(resp, options, meta, "none");
        let deadline = self.deadline(options);
        let deadline_at = meta.arrival + deadline;
        // Each slot is its member's submission, or the earlier member it
        // repeats.
        let mut slots = Vec::with_capacity(members.len());
        for member in members {
            slots.push(match member {
                Member::Run(inst, algorithm, alg) => {
                    let block_until = Some(deadline_at);
                    let state = self
                        .memo_or_submit(&inst, algorithm, alg, options, block_until, None, None)
                        .map_err(failed)?;
                    Ok((algorithm, state))
                }
                Member::RepeatOf(first) => Err(first),
            });
        }
        let mut bodies: Vec<ScheduleBody> = Vec::with_capacity(slots.len());
        for (i, slot) in slots.into_iter().enumerate() {
            let body = match slot {
                Ok((_, MemberState::Memo(entry))) => entry.hit_body(),
                Ok((algorithm, MemberState::Pending(rx))) => {
                    let member = Some(label(i, algorithm));
                    match self.await_worker(&rx, meta.arrival, deadline, member) {
                        Response::Ok {
                            schedule: Some(body),
                            ..
                        } => body,
                        other => return Err(failed(other)),
                    }
                }
                Err(first) => ScheduleBody {
                    cached: true,
                    ..bodies[first].clone()
                },
            };
            bodies.push(body);
        }
        Ok(bodies)
    }

    #[allow(clippy::result_large_err)] // the Err is the wire `Response`; see `protocol::Response`
    fn handle_portfolio(
        &self,
        dag: DagSpec,
        system: SystemSpec,
        names: Vec<String>,
        options: RequestOptions,
        meta: LineMeta,
    ) -> Result<Reply, Response> {
        let names = if names.is_empty() {
            algorithms::known_names()
                .iter()
                .map(|s| s.to_string())
                .collect()
        } else {
            names
        };
        let algs = names
            .iter()
            .map(|name| self.scheduler(name))
            .collect::<Result<Vec<_>, _>>()?;
        let inst = self.instance_for(self.build_problem(dag, system)?);
        let members = names
            .iter()
            .zip(algs)
            .map(|(name, alg)| Member::Run(inst.clone(), name, alg))
            .collect();
        let mut bodies = self.fan_out(members, &options, meta, |_, name| format!("`{name}`"))?;

        let best = bodies
            .iter()
            .enumerate()
            .min_by(|(ia, a), (ib, b)| a.makespan.total_cmp(&b.makespan).then_with(|| ia.cmp(ib)))
            .map(|(i, _)| i)
            .expect("at least one member");
        let entries = bodies
            .iter()
            .map(|b| PortfolioEntryBody {
                algorithm: b.algorithm.clone(),
                makespan: b.makespan,
                cached: b.cached,
            })
            .collect();
        let resp = Response::portfolio(PortfolioBody {
            entries,
            best,
            schedule: bodies.swap_remove(best),
        });
        Ok(Reply::Typed(self.finalize_timing(
            resp,
            &options,
            meta,
            "portfolio",
        )))
    }

    /// Batched scheduling: one request line carrying N `(dag, system)`
    /// instances, answered with N schedule bodies **in request order**.
    /// Every instance is built before any is submitted, so an invalid one
    /// answers for the batch with nothing computed. Each is then an
    /// ordinary fan-out member — the reply memo is consulted per instance,
    /// and repeats *within* the batch are served single-flight from the
    /// first occurrence.
    #[allow(clippy::result_large_err)] // the Err is the wire `Response`; see `protocol::Response`
    fn handle_many(
        &self,
        instances: Vec<InstanceSpec>,
        algorithm: String,
        options: RequestOptions,
        meta: LineMeta,
    ) -> Result<Reply, Response> {
        if instances.is_empty() {
            return Err(self.error("schedule_many requires at least one instance"));
        }
        self.scheduler(&algorithm)?;
        let built = instances
            .into_iter()
            .map(|spec| self.build_problem(spec.dag, spec.system))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|resp| self.finalize_timing(resp, &options, meta, "none"))?;

        let mut seen: Vec<(u64, usize)> = Vec::with_capacity(built.len());
        let mut members = Vec::with_capacity(built.len());
        for (i, inst) in built.into_iter().enumerate() {
            let fp = request_fingerprint(&inst, &algorithm, &options);
            if let Some(&(_, first)) = seen.iter().find(|(k, _)| *k == fp) {
                members.push(Member::RepeatOf(first));
                continue;
            }
            seen.push((fp, i));
            let alg = self.scheduler(&algorithm)?;
            members.push(Member::Run(self.instance_for(inst), &algorithm, alg));
        }
        let entries = self.fan_out(members, &options, meta, |i, _| format!("batch entry {i}"))?;

        self.shared
            .metrics
            .record_algorithm(&algorithm, meta.arrival.elapsed());
        let cached = entries.iter().filter(|e| e.cached).count();
        let computed = entries.len() - cached;
        let resp = Response::many(ScheduleManyBody {
            entries,
            cached,
            computed,
        });
        Ok(Reply::Typed(
            self.finalize_timing(resp, &options, meta, "many"),
        ))
    }
}

/// Per-line request metadata stamped by [`Service::handle_line_bytes`]:
/// when the line arrived and how long it took to parse.
#[derive(Clone, Copy)]
struct LineMeta {
    arrival: Instant,
    parse_us: u64,
}

/// A request member after the memo lookup: answered by a memo entry,
/// whose line or body the caller takes, or in flight on the worker pool.
enum MemberState {
    Memo(Arc<MemoEntry>),
    Pending(Receiver<Response>),
}

/// One member of a `portfolio` or `schedule_many` fan-out.
enum Member<'a> {
    /// Run the named scheduler on the problem.
    Run(
        Arc<ProblemInstance<'static>>,
        &'a str,
        Box<dyn Scheduler + Send + Sync>,
    ),
    /// The same request as member `i`: answered from its body.
    RepeatOf(usize),
}

/// One finished request: a memo hit's preserialized `ok` line, or a
/// response to serialize.
// Transient return value consumed immediately by the dispatcher — never
// stored or collected, so the Typed/Bytes size gap costs nothing.
#[allow(clippy::large_enum_variant)]
enum Reply {
    Typed(Response),
    Bytes(Arc<[u8]>),
}

impl Reply {
    /// The outcome class for SLO accounting; `None` for responses that
    /// are not accounted (`shutting_down`).
    fn status(&self) -> Option<RequestStatus> {
        match self {
            Reply::Bytes(_) => Some(RequestStatus::Success),
            Reply::Typed(resp) => match resp {
                Response::Ok { .. } => Some(RequestStatus::Success),
                Response::Busy { .. } | Response::Shed { .. } => Some(RequestStatus::Shed),
                Response::Timeout { .. } => Some(RequestStatus::Timeout),
                Response::Error { .. } => Some(RequestStatus::Error),
                Response::ShuttingDown => None,
            },
        }
    }
}

/// Wait for the worker's reply until `remaining` elapses, then make one
/// last non-blocking check before giving up: a reply that slipped into the
/// channel between the timeout firing and this thread reporting it means
/// the schedule *was* computed inside the client's window, and answering
/// `timeout` would discard a finished result for no reason.
fn await_reply(
    reply_rx: &Receiver<Response>,
    remaining: Duration,
) -> Result<Response, channel::RecvTimeoutError> {
    match reply_rx.recv_timeout(remaining) {
        Err(channel::RecvTimeoutError::Timeout) => match reply_rx.try_recv() {
            Ok(resp) => Ok(resp),
            Err(channel::TryRecvError::Empty) => Err(channel::RecvTimeoutError::Timeout),
            Err(channel::TryRecvError::Disconnected) => {
                Err(channel::RecvTimeoutError::Disconnected)
            }
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_dag::Dag;
    use hetsched_platform::System;

    fn small_request(n_tasks: usize, algorithm: &str, options: &str) -> String {
        let tasks: Vec<String> = (0..n_tasks)
            .map(|i| format!("{{\"weight\":{}}}", i + 1))
            .collect();
        let edges: Vec<String> = (1..n_tasks)
            .map(|i| format!("{{\"src\":0,\"dst\":{i},\"data\":2.0}}"))
            .collect();
        format!(
            "{{\"op\":\"schedule\",\"dag\":{{\"tasks\":[{}],\"edges\":[{}]}},\
             \"system\":{{\"processors\":{{\"kind\":\"homogeneous\",\"count\":3}},\
             \"network\":{{\"topology\":\"fully_connected\",\"bandwidth\":1.0}}}},\
             \"algorithm\":\"{algorithm}\",\"options\":{options}}}",
            tasks.join(","),
            edges.join(","),
        )
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 4,
            cache_capacity: 8,
            instance_cache_capacity: 4,
            default_deadline_ms: 10_000,
        }
    }

    #[test]
    fn schedule_roundtrip_and_cache_hit() {
        let svc = Service::start(test_config());
        let line = small_request(5, "HEFT", "{\"simulate\":true}");

        let first = svc.handle_line(&line);
        let Response::Ok {
            schedule: Some(body),
            ..
        } = &first
        else {
            panic!("unexpected response: {first:?}");
        };
        assert!(!body.cached);
        assert!(body.makespan > 0.0);
        assert!(body.slr >= 1.0 - 1e-9);
        let sim = body.sim.as_ref().expect("simulate requested");
        assert!(sim.matches_prediction, "zero-noise replay must agree");

        let second = svc.handle_line(&line);
        let Response::Ok {
            schedule: Some(body2),
            ..
        } = &second
        else {
            panic!("unexpected response: {second:?}");
        };
        assert!(body2.cached);
        assert_eq!(body2.makespan, body.makespan);
        assert_eq!(body2.fingerprint, body.fingerprint);

        let stats = svc.stats_body();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.computed, 1);
        assert_eq!(stats.cache_entries, 1);
        assert_eq!(stats.latency_samples, 2);
        svc.shutdown();
    }

    #[test]
    fn different_algorithm_misses_cache_but_shares_instance() {
        let svc = Service::start(test_config());
        svc.handle_line(&small_request(5, "HEFT", "{}"));
        svc.handle_line(&small_request(5, "CPOP", "{}"));
        let stats = svc.stats_body();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.computed, 2);
        assert_eq!(stats.cache_entries, 2);
        // The reply memo missed, but the second request reused the first
        // request's ProblemInstance: same (dag, system) content key.
        assert_eq!(stats.instance_cache_misses, 1);
        assert_eq!(stats.instance_cache_hits, 1);
        assert_eq!(stats.instance_cache_entries, 1);
        svc.shutdown();
    }

    fn portfolio_request(n_tasks: usize, algorithms: &[&str], options: &str) -> String {
        let tasks: Vec<String> = (0..n_tasks)
            .map(|i| format!("{{\"weight\":{}}}", i + 1))
            .collect();
        let edges: Vec<String> = (1..n_tasks)
            .map(|i| format!("{{\"src\":0,\"dst\":{i},\"data\":2.0}}"))
            .collect();
        let algs: Vec<String> = algorithms.iter().map(|a| format!("\"{a}\"")).collect();
        format!(
            "{{\"op\":\"portfolio\",\"dag\":{{\"tasks\":[{}],\"edges\":[{}]}},\
             \"system\":{{\"processors\":{{\"kind\":\"homogeneous\",\"count\":3}},\
             \"network\":{{\"topology\":\"fully_connected\",\"bandwidth\":1.0}}}},\
             \"algorithms\":[{}],\"options\":{options}}}",
            tasks.join(","),
            edges.join(","),
            algs.join(","),
        )
    }

    #[test]
    fn portfolio_returns_per_member_table_and_minimum() {
        let svc = Service::start(test_config());
        let algs = ["HEFT", "CPOP", "PETS", "ILS-H"];
        let resp = svc.handle_line(&portfolio_request(6, &algs, "{}"));
        let Response::Ok {
            portfolio: Some(body),
            ..
        } = &resp
        else {
            panic!("unexpected response: {resp:?}");
        };
        assert_eq!(body.entries.len(), algs.len());
        // entries come back in request order and the winner is the min
        let mut min = f64::INFINITY;
        for (entry, name) in body.entries.iter().zip(&algs) {
            assert_eq!(&entry.algorithm, name);
            min = min.min(entry.makespan);
        }
        assert_eq!(body.entries[body.best].makespan, min);
        assert_eq!(body.schedule.makespan, min);
        assert_eq!(body.schedule.algorithm, body.entries[body.best].algorithm);
        // one instance, built once, shared by all members
        let stats = svc.stats_body();
        assert_eq!(stats.instance_cache_misses, 1);
        assert_eq!(stats.computed, algs.len() as u64);

        // Portfolio members memoize individually: a follow-up single
        // request for any member is a pure cache hit.
        let follow = svc.handle_line(&small_request(6, "CPOP", "{}"));
        let Response::Ok {
            schedule: Some(follow),
            ..
        } = &follow
        else {
            panic!("follow-up: {follow:?}");
        };
        assert!(follow.cached);
        svc.shutdown();
    }

    #[test]
    fn portfolio_rejects_unknown_member() {
        let svc = Service::start(test_config());
        let resp = svc.handle_line(&portfolio_request(4, &["HEFT", "NO-SUCH"], "{}"));
        let Response::Error { message } = &resp else {
            panic!("expected error, got {resp:?}");
        };
        assert!(message.contains("NO-SUCH"), "message: {message}");
        svc.shutdown();
    }

    #[test]
    fn empty_portfolio_runs_every_registered_algorithm() {
        let svc = Service::start(test_config());
        let resp = svc.handle_line(&portfolio_request(4, &[], "{}"));
        let Response::Ok {
            portfolio: Some(body),
            ..
        } = &resp
        else {
            panic!("unexpected response: {resp:?}");
        };
        assert_eq!(
            body.entries.len(),
            hetsched_core::algorithms::known_names().len()
        );
        svc.shutdown();
    }

    /// A `schedule_many` line whose instances are star DAGs of the given
    /// sizes (distinct sizes → distinct fingerprints; repeated sizes →
    /// within-batch duplicates).
    fn many_request(sizes: &[usize], algorithm: &str, options: &str) -> String {
        let instances: Vec<String> = sizes
            .iter()
            .map(|&n| {
                let tasks: Vec<String> = (0..n)
                    .map(|i| format!("{{\"weight\":{}}}", i + 1))
                    .collect();
                let edges: Vec<String> = (1..n)
                    .map(|i| format!("{{\"src\":0,\"dst\":{i},\"data\":2.0}}"))
                    .collect();
                format!(
                    "{{\"dag\":{{\"tasks\":[{}],\"edges\":[{}]}},\
                     \"system\":{{\"processors\":{{\"kind\":\"homogeneous\",\"count\":3}},\
                     \"network\":{{\"topology\":\"fully_connected\",\"bandwidth\":1.0}}}}}}",
                    tasks.join(","),
                    edges.join(","),
                )
            })
            .collect();
        format!(
            "{{\"op\":\"schedule_many\",\"instances\":[{}],\
             \"algorithm\":\"{algorithm}\",\"options\":{options}}}",
            instances.join(","),
        )
    }

    #[test]
    fn schedule_many_answers_in_request_order_and_matches_singles() {
        let svc = Service::start(test_config());
        let sizes = [4usize, 6, 5];
        // standalone answers first, so the batch below is all memo hits —
        // and must still come back in *request* order, not cache order
        let singles: Vec<f64> = sizes
            .iter()
            .map(|&n| {
                let resp = svc.handle_line(&small_request(n, "HEFT", "{}"));
                schedule_body(&resp).makespan
            })
            .collect();
        let resp = svc.handle_line(&many_request(&sizes, "HEFT", "{}"));
        let Response::Ok {
            many: Some(body), ..
        } = &resp
        else {
            panic!("unexpected response: {resp:?}");
        };
        assert_eq!(body.entries.len(), sizes.len());
        assert_eq!(body.cached, sizes.len());
        assert_eq!(body.computed, 0);
        for (entry, &makespan) in body.entries.iter().zip(&singles) {
            assert!(entry.cached);
            assert_eq!(entry.makespan, makespan);
        }
        svc.shutdown();
    }

    #[test]
    fn schedule_many_computes_fresh_and_seeds_the_memo() {
        let svc = Service::start(test_config());
        let resp = svc.handle_line(&many_request(&[4, 6], "HEFT", "{}"));
        let Response::Ok {
            many: Some(body), ..
        } = &resp
        else {
            panic!("unexpected response: {resp:?}");
        };
        assert_eq!((body.cached, body.computed), (0, 2));
        assert!(body.entries.iter().all(|e| !e.cached));
        // a later standalone request for a batch member is a memo hit
        let single = svc.handle_line(&small_request(6, "HEFT", "{}"));
        let sb = schedule_body(&single);
        assert!(sb.cached);
        assert_eq!(sb.makespan, body.entries[1].makespan);
        svc.shutdown();
    }

    #[test]
    fn schedule_many_dedups_repeats_within_the_batch() {
        let svc = Service::start(test_config());
        let resp = svc.handle_line(&many_request(&[5, 5, 7], "HEFT", "{}"));
        let Response::Ok {
            many: Some(body), ..
        } = &resp
        else {
            panic!("unexpected response: {resp:?}");
        };
        assert_eq!(body.entries.len(), 3);
        // the repeat is answered single-flight from the first occurrence
        assert_eq!((body.cached, body.computed), (1, 2));
        assert!(!body.entries[0].cached);
        assert!(body.entries[1].cached);
        assert_eq!(body.entries[1].makespan, body.entries[0].makespan);
        assert_eq!(body.entries[1].fingerprint, body.entries[0].fingerprint);
        // only two jobs were actually computed
        assert_eq!(svc.stats_body().computed, 2);
        svc.shutdown();
    }

    #[test]
    fn schedule_many_rejects_empty_batch_and_unknown_algorithm() {
        let svc = Service::start(test_config());
        let unknown_alg = many_request(&[4], "NO-SUCH-ALG", "{}");
        for line in [
            "{\"op\":\"schedule_many\",\"instances\":[],\"algorithm\":\"HEFT\"}",
            unknown_alg.as_str(),
        ] {
            let resp = svc.handle_line(line);
            assert!(
                matches!(resp, Response::Error { .. }),
                "line {line} gave {resp:?}"
            );
        }
        svc.shutdown();
    }

    #[test]
    fn an_invalid_batch_entry_submits_nothing() {
        let svc = Service::start(test_config());
        // The last instance has no tasks: the batch is refused before any
        // earlier instance reaches a worker or the memo.
        let resp = svc.handle_line(&many_request(&[4, 5, 0], "HEFT", "{}"));
        let Response::Error { message } = &resp else {
            panic!("expected error, got {resp:?}");
        };
        assert!(message.starts_with("invalid dag"), "{message}");
        // Shutdown drains every queued job first.
        svc.shutdown();
        let stats = svc.stats_body();
        assert_eq!((stats.computed, stats.cache_entries), (0, 0));
    }

    #[test]
    fn bad_inputs_are_errors_not_panics() {
        let svc = Service::start(test_config());
        for line in [
            "not json at all",
            r#"{"op":"schedule","dag":{"tasks":[]},"system":{"processors":{"kind":"homogeneous","count":1},"network":{"topology":"fully_connected","bandwidth":1.0}},"algorithm":"HEFT"}"#,
            &small_request(3, "NO-SUCH-ALG", "{}"),
        ] {
            let resp = svc.handle_line(line);
            assert!(
                matches!(resp, Response::Error { .. }),
                "line {line} gave {resp:?}"
            );
        }
        assert_eq!(svc.stats_body().errors, 3);
        svc.shutdown();
    }

    fn patch_request(parent: &str, algorithm: &str, deltas: &str, options: &str) -> String {
        format!(
            "{{\"op\":\"patch\",\"parent\":\"{parent}\",\"algorithm\":\"{algorithm}\",\
             \"deltas\":{deltas},\"options\":{options}}}"
        )
    }

    fn schedule_body(resp: &Response) -> &ScheduleBody {
        let Response::Ok {
            schedule: Some(body),
            ..
        } = resp
        else {
            panic!("expected a schedule response, got {resp:?}");
        };
        body
    }

    #[test]
    fn patch_repairs_and_aliases_the_equivalent_fresh_request() {
        let svc = Service::start(test_config());
        let parent_body = {
            let resp = svc.handle_line(&small_request(5, "HEFT", "{}"));
            schedule_body(&resp).clone()
        };
        assert_eq!(parent_body.problem.len(), 16, "problem key is 16 hex");

        // An edge-data delta: only edge (0, 4) grows, so it has an exact
        // full-request equivalent (a `task_weight` delta would not — the
        // homogeneous system spec derives ETC from weights, while the
        // delta deliberately leaves the ETC alone).
        let deltas = r#"[{"kind":"edge_data","src":0,"dst":4,"data":7.5}]"#;
        let resp = svc.handle_line(&patch_request(&parent_body.problem, "HEFT", deltas, "{}"));
        let body = schedule_body(&resp).clone();
        assert!(!body.cached, "a patch is never the parent's reply");
        assert_ne!(body.problem, parent_body.problem);
        assert_ne!(body.fingerprint, parent_body.fingerprint);
        let repair = body
            .repair
            .as_ref()
            .expect("HEFT patch takes the repair path");
        assert!(!repair.fresh);
        assert_eq!(repair.replayed + repair.rescheduled, 5);

        // The equivalent full request on a *fresh* service computes from
        // scratch; the repaired schedule must match it bit for bit.
        let full = "{\"op\":\"schedule\",\"dag\":{\"tasks\":[{\"weight\":1},{\"weight\":2},\
             {\"weight\":3},{\"weight\":4},{\"weight\":5}],\"edges\":[\
             {\"src\":0,\"dst\":1,\"data\":2.0},{\"src\":0,\"dst\":2,\"data\":2.0},\
             {\"src\":0,\"dst\":3,\"data\":2.0},{\"src\":0,\"dst\":4,\"data\":7.5}]},\
             \"system\":{\"processors\":{\"kind\":\"homogeneous\",\"count\":3},\
             \"network\":{\"topology\":\"fully_connected\",\"bandwidth\":1.0}},\
             \"algorithm\":\"HEFT\",\"options\":{}}";
        let other = Service::start(test_config());
        let fresh = schedule_body(&other.handle_line(full)).clone();
        assert_eq!(fresh.fingerprint, body.fingerprint, "same request key");
        assert_eq!(fresh.problem, body.problem, "same problem key");
        assert_eq!(
            serde_json::to_string(&fresh.schedule).unwrap(),
            serde_json::to_string(&body.schedule).unwrap(),
            "repair must be bit-identical to from-scratch"
        );
        other.shutdown();

        // And on the original service the patch reply memoized under the
        // patched problem's request key, so the full request aliases it.
        let aliased = schedule_body(&svc.handle_line(full)).clone();
        assert!(aliased.cached);
        assert_eq!(aliased.fingerprint, body.fingerprint);

        let stats = svc.stats_body();
        assert_eq!(stats.patches, 1);
        assert_eq!(stats.repairs, 1);
        svc.shutdown();
    }

    #[test]
    fn patch_never_coalesces_with_its_parent_and_chains() {
        let svc = Service::start(test_config());
        let parent = {
            let resp = svc.handle_line(&small_request(4, "HEFT", "{}"));
            schedule_body(&resp).clone()
        };
        // An ETC delta slows task 1 on proc 0: a genuinely different
        // problem whose reply must be computed, not pulled from the
        // parent's memo slot.
        let deltas = r#"[{"kind":"etc_entry","task":1,"proc":0,"time":50.0}]"#;
        let resp = svc.handle_line(&patch_request(&parent.problem, "HEFT", deltas, "{}"));
        let child = schedule_body(&resp).clone();
        assert!(!child.cached);
        assert_ne!(child.problem, parent.problem);
        assert_ne!(child.fingerprint, parent.fingerprint);

        // The patched problem registered under its own key: chain off it.
        let deltas2 = r#"[{"kind":"edge_data","src":0,"dst":2,"data":7.5}]"#;
        let resp = svc.handle_line(&patch_request(&child.problem, "HEFT", deltas2, "{}"));
        let grand = schedule_body(&resp).clone();
        assert_ne!(grand.problem, child.problem);
        assert_eq!(svc.stats_body().patches, 2);

        // Re-sending the same patch line hits the reply memo.
        let resp = svc.handle_line(&patch_request(&parent.problem, "HEFT", deltas, "{}"));
        assert!(schedule_body(&resp).cached);
        svc.shutdown();
    }

    #[test]
    fn patch_without_a_memoized_parent_schedule_still_answers() {
        // The instance cache knows the parent but the reply memo does not
        // (different algorithm): no repair context, plain computation.
        let svc = Service::start(test_config());
        let parent = {
            let resp = svc.handle_line(&small_request(4, "CPOP", "{}"));
            schedule_body(&resp).clone()
        };
        let deltas = r#"[{"kind":"etc_entry","task":2,"proc":1,"time":30.0}]"#;
        // HEFT is repair-capable, but no HEFT parent schedule is cached.
        let resp = svc.handle_line(&patch_request(&parent.problem, "HEFT", deltas, "{}"));
        let body = schedule_body(&resp).clone();
        assert!(body.repair.is_none(), "no parent schedule, no repair");
        // CPOP is not repair-capable: patch works, computing from scratch.
        let resp = svc.handle_line(&patch_request(&parent.problem, "CPOP", deltas, "{}"));
        assert!(schedule_body(&resp).repair.is_none());
        assert_eq!(svc.stats_body().repairs, 0);
        svc.shutdown();
    }

    #[test]
    fn patch_unknown_parent_is_an_error_and_daemon_survives() {
        let svc = Service::start(test_config());
        for parent in ["0123456789abcdef", "not-hex", "abc"] {
            let resp = svc.handle_line(&patch_request(
                parent,
                "HEFT",
                r#"[{"kind":"task_weight","task":0,"weight":2.0}]"#,
                "{}",
            ));
            let Response::Error { message } = &resp else {
                panic!("expected error for parent `{parent}`, got {resp:?}");
            };
            assert!(
                message.starts_with("unknown_parent"),
                "parent `{parent}`: {message}"
            );
        }
        // Invalid deltas against a known parent are errors too.
        let parent = {
            let resp = svc.handle_line(&small_request(3, "HEFT", "{}"));
            schedule_body(&resp).clone()
        };
        let resp = svc.handle_line(&patch_request(
            &parent.problem,
            "HEFT",
            r#"[{"kind":"task_weight","task":99,"weight":2.0}]"#,
            "{}",
        ));
        let Response::Error { message } = &resp else {
            panic!("expected error, got {resp:?}");
        };
        assert!(message.starts_with("invalid delta"), "{message}");
        // The daemon keeps serving.
        let ok = svc.handle_line(&small_request(3, "HEFT", "{}"));
        assert!(schedule_body(&ok).cached);
        svc.shutdown();
    }

    #[test]
    fn evicted_parent_is_unknown() {
        // instance_cache_capacity is 4: five distinct problems evict the
        // first, after which a patch naming it must answer unknown_parent.
        let svc = Service::start(test_config());
        let parent = {
            let resp = svc.handle_line(&small_request(3, "HEFT", "{}"));
            schedule_body(&resp).clone()
        };
        for n in 4..8 {
            svc.handle_line(&small_request(n, "HEFT", "{}"));
        }
        let resp = svc.handle_line(&patch_request(
            &parent.problem,
            "HEFT",
            r#"[{"kind":"task_weight","task":0,"weight":2.0}]"#,
            "{}",
        ));
        let Response::Error { message } = &resp else {
            panic!("expected error, got {resp:?}");
        };
        assert!(message.starts_with("unknown_parent"), "{message}");
        svc.shutdown();
    }

    #[test]
    fn worker_panic_is_isolated() {
        let svc = Service::start(test_config());
        let resp = svc.handle_line(&small_request(4, "HEFT", "{\"debug_panic\":true}"));
        let Response::Error { message } = &resp else {
            panic!("expected error, got {resp:?}");
        };
        assert!(message.contains("panicked"), "message: {message}");
        // The daemon survives and still schedules.
        let ok = svc.handle_line(&small_request(4, "HEFT", "{}"));
        assert!(matches!(ok, Response::Ok { .. }), "got {ok:?}");
        let stats = svc.stats_body();
        assert_eq!(stats.panics, 1);
        svc.shutdown();
    }

    #[test]
    fn await_reply_claims_queued_reply_even_after_deadline() {
        // A reply already sitting in the channel at the deadline is a
        // computed result, not a timeout — even with zero time remaining.
        let (tx, rx) = channel::bounded::<Response>(1);
        tx.send(Response::ShuttingDown).unwrap();
        let got = await_reply(&rx, Duration::ZERO);
        assert!(matches!(got, Ok(Response::ShuttingDown)), "got {got:?}");

        // Same zero-deadline call with an empty channel is a real timeout.
        let got = await_reply(&rx, Duration::ZERO);
        assert_eq!(got.unwrap_err(), channel::RecvTimeoutError::Timeout);

        // Dropped worker side surfaces as Disconnected, not Timeout.
        drop(tx);
        let got = await_reply(&rx, Duration::ZERO);
        assert_eq!(got.unwrap_err(), channel::RecvTimeoutError::Disconnected);
    }

    #[test]
    fn deadline_timeout_leaves_daemon_alive_and_caches() {
        let svc = Service::start(test_config());
        let slow = small_request(4, "HEFT", "{\"debug_sleep_ms\":300,\"deadline_ms\":25}");
        let resp = svc.handle_line(&slow);
        assert!(matches!(resp, Response::Timeout { .. }), "got {resp:?}");
        assert_eq!(svc.stats_body().timeouts, 1);

        // The worker finishes in the background and caches the result; an
        // identical retry is a cache hit (options are part of the key, so
        // retry with identical options).
        std::thread::sleep(Duration::from_millis(500));
        let retry = svc.handle_line(&slow);
        let Response::Ok {
            schedule: Some(body),
            ..
        } = &retry
        else {
            panic!("retry got {retry:?}");
        };
        assert!(body.cached);
        svc.shutdown();
    }

    #[test]
    fn full_queue_answers_busy() {
        let svc = Service::start(ServeConfig {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 8,
            instance_cache_capacity: 4,
            default_deadline_ms: 10_000,
        });
        // Occupy the single worker, then fill the one-slot queue, with
        // sleeping jobs submitted from background threads (each submitter
        // blocks on its reply, so they must be separate threads). The
        // submissions are staggered so the first is reliably dequeued by
        // the worker before the second enqueues. Distinct dag sizes keep
        // them from hitting the cache.
        let svc = std::sync::Arc::new(svc);
        let mut submitters = Vec::new();
        for n in [5usize, 6] {
            let svc = svc.clone();
            let line = small_request(n, "HEFT", "{\"debug_sleep_ms\":600}");
            submitters.push(std::thread::spawn(move || svc.handle_line(&line)));
            std::thread::sleep(Duration::from_millis(150));
        }
        let resp = svc.handle_line(&small_request(7, "HEFT", "{}"));
        assert!(matches!(resp, Response::Busy { .. }), "got {resp:?}");
        assert_eq!(svc.stats_body().busy_rejections, 1);
        for s in submitters {
            let r = s.join().unwrap();
            assert!(matches!(r, Response::Ok { .. }), "submitter got {r:?}");
        }
        svc.shutdown();
    }

    #[test]
    fn shutdown_drains_in_flight_work() {
        let svc = std::sync::Arc::new(Service::start(test_config()));
        let line = small_request(5, "HEFT", "{\"debug_sleep_ms\":200}");
        let bg = {
            let svc = svc.clone();
            let line = line.clone();
            std::thread::spawn(move || svc.handle_line(&line))
        };
        std::thread::sleep(Duration::from_millis(50));
        // Shutdown must wait for the in-flight job and deliver its reply.
        svc.shutdown();
        let resp = bg.join().unwrap();
        assert!(matches!(resp, Response::Ok { .. }), "got {resp:?}");
        // New requests after shutdown are refused.
        let refused = svc.handle_line(&line);
        assert!(matches!(refused, Response::ShuttingDown), "got {refused:?}");
    }

    /// One worker, and a request that asks it to sleep 20 s but gives up
    /// after 50 ms.
    fn sleeper(default_deadline_ms: u64) -> Service {
        let svc = Service::start(ServeConfig {
            workers: 1,
            queue_capacity: 2,
            cache_capacity: 8,
            instance_cache_capacity: 4,
            default_deadline_ms,
        });
        let options = r#"{"debug_sleep_ms":20000,"deadline_ms":50}"#;
        let resp = svc.handle_line(&small_request(4, "HEFT", options));
        assert!(matches!(resp, Response::Timeout { .. }), "got {resp:?}");
        svc
    }

    #[test]
    fn shutdown_ends_a_debug_sleep() {
        let svc = Arc::new(sleeper(10_000));
        let (done, stopped) = std::sync::mpsc::channel();
        let bg = svc.clone();
        let stopper = std::thread::spawn(move || {
            bg.shutdown();
            let _ = done.send(());
        });
        stopped
            .recv_timeout(Duration::from_secs(2))
            .expect("shutdown returns within 2 s of a 20 s debug sleep");
        stopper.join().unwrap();
    }

    #[test]
    fn a_debug_sleep_ends_at_the_default_deadline() {
        let svc = sleeper(300);
        std::thread::sleep(Duration::from_millis(550));
        let resp = svc.handle_line(&small_request(5, "HEFT", "{}"));
        assert!(matches!(resp, Response::Ok { .. }), "got {resp:?}");
        svc.shutdown();
    }

    #[test]
    fn metrics_op_renders_prometheus_text() {
        let svc = Service::start(test_config());
        svc.handle_line(&small_request(5, "HEFT", "{}"));
        svc.handle_line(&small_request(5, "HEFT", "{}")); // cache hit
        let resp = svc.handle_line(r#"{"op":"metrics"}"#);
        let Response::Ok {
            metrics: Some(text),
            ..
        } = &resp
        else {
            panic!("expected metrics payload, got {resp:?}");
        };
        for family in [
            "hetsched_requests_total 2",
            "hetsched_cache_hits_total 1",
            "hetsched_cache_misses_total 1",
            "hetsched_computed_total 1",
            "hetsched_queue_depth 0",
            "hetsched_queue_capacity 4",
            "hetsched_cache_entries 1",
            "hetsched_workers 2",
            "# TYPE hetsched_request_latency_seconds histogram",
            "hetsched_algorithm_latency_seconds_count{algorithm=\"HEFT\"} 2",
        ] {
            assert!(text.contains(family), "missing `{family}` in:\n{text}");
        }
        svc.shutdown();
    }

    #[test]
    fn traced_request_attaches_trace_and_matches_untraced_schedule() {
        let svc = Service::start(test_config());
        let plain = svc.handle_line(&small_request(6, "HEFT", "{}"));
        let traced = svc.handle_line(&small_request(6, "HEFT", "{\"trace\":true}"));
        let Response::Ok {
            schedule: Some(plain),
            ..
        } = &plain
        else {
            panic!("plain: {plain:?}");
        };
        let Response::Ok {
            schedule: Some(traced),
            ..
        } = &traced
        else {
            panic!("traced: {traced:?}");
        };
        assert!(plain.trace.is_none());
        let trace = traced.trace.as_ref().expect("trace requested");
        // Tracing must not perturb the schedule.
        assert_eq!(traced.makespan, plain.makespan);
        assert_eq!(
            serde_json::to_string(&traced.schedule).unwrap(),
            serde_json::to_string(&plain.schedule).unwrap()
        );
        // One placement event per task, and the engine was exercised.
        let placements = trace.events.iter().filter(|e| e.is_placement()).count();
        assert_eq!(placements, 6);
        assert!(trace.counters.eft_best_queries >= 6);
        assert!(!trace.phases.is_empty());
        // Traced and untraced requests memoize separately; a traced retry
        // hits the cache and still carries the stored trace.
        let retry = svc.handle_line(&small_request(6, "HEFT", "{\"trace\":true}"));
        let Response::Ok {
            schedule: Some(retry),
            ..
        } = &retry
        else {
            panic!("retry: {retry:?}");
        };
        assert!(retry.cached);
        assert!(retry.trace.is_some());
        assert_eq!(svc.stats_body().cache_hits, 1);
        svc.shutdown();
    }

    #[test]
    fn traced_request_journals_spans_and_shares_the_untraced_memo_entry() {
        let svc = Service::start(test_config());
        let traced = svc.handle_line(&small_request(
            5,
            "HEFT",
            r#"{"trace_ctx":{"trace_id":"00aa00aa00aa00aa"}}"#,
        ));
        let Response::Ok {
            schedule: Some(body),
            timing: Some(timing),
            ..
        } = &traced
        else {
            panic!("traced: {traced:?}");
        };
        assert!(!body.cached);
        assert!(body.trace.is_none(), "trace_ctx is not the decision log");
        assert_eq!(timing.trace_id, "00aa00aa00aa00aa");
        let serve = timing.serve.as_ref().expect("serve timing");
        assert_eq!(serve.cache, "computed");
        assert!(serve.compute_us >= 1);
        assert!(
            serve.total_us >= serve.queue_us + serve.compute_us,
            "total {} < queue {} + compute {}",
            serve.total_us,
            serve.queue_us,
            serve.compute_us
        );

        // The trace context is not part of the memo key: the identical
        // untraced request is a pure cache hit, byte-identical, no timing.
        let plain = svc.handle_line(&small_request(5, "HEFT", "{}"));
        let Response::Ok {
            schedule: Some(pb),
            timing: plain_timing,
            ..
        } = &plain
        else {
            panic!("plain: {plain:?}");
        };
        assert!(plain_timing.is_none());
        assert!(pb.cached, "trace_ctx must not split the memo key");
        assert_eq!(
            serde_json::to_string(&pb.schedule).unwrap(),
            serde_json::to_string(&body.schedule).unwrap()
        );

        // A traced retry answers from the memo and says so.
        let retry = svc.handle_line(&small_request(
            5,
            "HEFT",
            r#"{"trace_ctx":{"trace_id":"00bb00bb00bb00bb"}}"#,
        ));
        let Response::Ok {
            timing: Some(retry_timing),
            ..
        } = &retry
        else {
            panic!("retry: {retry:?}");
        };
        assert_eq!(retry_timing.serve.as_ref().unwrap().cache, "memo");

        // The journal drained the spans of both traced requests; spans of
        // one request nest inside its root `request` span.
        let resp = svc.handle_line(r#"{"op":"journal"}"#);
        let Response::Ok {
            journal: Some(journal),
            ..
        } = &resp
        else {
            panic!("journal: {resp:?}");
        };
        assert_eq!(journal.source, "shard");
        let of_first: Vec<_> = journal
            .spans
            .iter()
            .filter(|s| s.trace_id == "00aa00aa00aa00aa")
            .collect();
        let names: Vec<&str> = of_first.iter().map(|s| s.name.as_str()).collect();
        for expect in ["request", "queue", "compute"] {
            assert!(names.contains(&expect), "missing {expect} in {names:?}");
        }
        assert!(
            names.iter().any(|n| n.starts_with("engine:")),
            "engine phases in {names:?}"
        );
        let root = of_first.iter().find(|s| s.name == "request").unwrap();
        for s in &of_first {
            assert!(
                s.start_us + s.dur_us <= root.start_us + root.dur_us + 1,
                "span {} [{}, +{}] escapes root [{}, +{}]",
                s.name,
                s.start_us,
                s.dur_us,
                root.start_us,
                root.dur_us
            );
        }
        // The memo-hit retry journaled a root span too, but no compute.
        let of_retry: Vec<&str> = journal
            .spans
            .iter()
            .filter(|s| s.trace_id == "00bb00bb00bb00bb")
            .map(|s| s.name.as_str())
            .collect();
        assert!(of_retry.contains(&"request"));
        assert!(!of_retry.contains(&"compute"));

        // Draining again yields nothing; untraced requests journal nothing.
        svc.handle_line(&small_request(4, "CPOP", "{}"));
        let resp = svc.handle_line(r#"{"op":"journal"}"#);
        let Response::Ok {
            journal: Some(journal),
            ..
        } = &resp
        else {
            panic!("journal: {resp:?}");
        };
        assert!(journal.spans.is_empty(), "{:?}", journal.spans);
        svc.shutdown();
    }

    #[test]
    fn a_traced_portfolio_that_times_out_journals_its_root_span() {
        let svc = Service::start(test_config());
        let options = r#"{"debug_sleep_ms":300,"deadline_ms":25,"trace_ctx":{"trace_id":"00cc00cc00cc00cc"}}"#;
        let resp = svc.handle_line(&portfolio_request(4, &["HEFT", "CPOP"], options));
        let Response::Timeout { message } = &resp else {
            panic!("expected timeout, got {resp:?}");
        };
        assert!(message.contains("waiting for `HEFT`"), "{message}");
        let resp = svc.handle_line(r#"{"op":"journal"}"#);
        let Response::Ok {
            journal: Some(journal),
            ..
        } = &resp
        else {
            panic!("journal: {resp:?}");
        };
        let root = journal
            .spans
            .iter()
            .find(|s| s.trace_id == "00cc00cc00cc00cc" && s.name == "request")
            .expect("the timed-out portfolio's root span");
        assert_eq!(root.detail, "none");
        svc.shutdown();
    }

    #[test]
    fn outcome_accounting_labels_statuses() {
        use crate::metrics::RequestStatus;
        let svc = Service::start(test_config());
        svc.handle_line(&small_request(5, "HEFT", "{\"deadline_ms\":5000}"));
        svc.handle_line(&small_request(5, "NO-SUCH", "{}"));
        let slow = small_request(6, "HEFT", "{\"debug_sleep_ms\":300,\"deadline_ms\":25}");
        let resp = svc.handle_line(&slow);
        assert!(matches!(resp, Response::Timeout { .. }), "got {resp:?}");
        let m = svc.metrics();
        assert_eq!(m.latency.get(RequestStatus::Success).count(), 1);
        assert_eq!(m.latency.get(RequestStatus::Error).count(), 1);
        assert_eq!(m.latency.get(RequestStatus::Timeout).count(), 1);
        assert_eq!(m.op_outcomes.get("schedule", RequestStatus::Success), 1);
        assert_eq!(m.op_outcomes.get("schedule", RequestStatus::Timeout), 1);
        // The deadlined success recorded its remaining slack.
        assert_eq!(m.deadline_slack.count(), 1);
        // Queue-wait/compute histograms see every computed job.
        assert!(m.queue_wait.count() >= 1);
        assert!(m.compute.count() >= 1);
        let stats = svc.stats_body();
        assert!(stats.compute_p99_us > 0.0);
        svc.shutdown();
    }

    /// The request key as it was computed before instances carried their
    /// content fold: the DAG and the system folded afresh, then the
    /// algorithm and the reply-shaping options. The oracle for
    /// [`request_fingerprint`].
    fn two_pass_request_fingerprint(
        dag: &Dag,
        sys: &System,
        algorithm: &str,
        options: &RequestOptions,
    ) -> u64 {
        let mut fp = hetsched_dag::Fingerprint::new();
        dag.fold_fingerprint(&mut fp);
        sys.fold_fingerprint(&mut fp);
        fp.tag("algorithm");
        fp.push_str(algorithm);
        fp.tag("options");
        fp.push_u8(options.simulate as u8);
        fp.push_u8(options.debug_panic as u8);
        fp.push_u64(options.debug_sleep_ms.unwrap_or(0));
        fp.push_u8(options.trace as u8);
        fp.finish()
    }

    #[test]
    fn carried_fold_keys_match_the_two_pass_fold() {
        // deserialized: built from a parsed request line, as the service
        // builds every problem
        let Ok(Request::Schedule { dag, system, .. }) =
            Request::parse(&small_request(7, "HEFT", "{}"))
        else {
            panic!("a schedule line");
        };
        let dag = dag.build().unwrap();
        let sys = system.build(&dag).unwrap();
        // fresh: built in code
        let coded = hetsched_dag::builder::dag_from_edges(
            &[3.0, 1.5, 2.0, 4.0],
            &[(0, 1, 1.0), (0, 2, 2.5), (1, 3, 0.5), (2, 3, 3.0)],
        )
        .unwrap();
        let coded_sys = System::homogeneous_unit(&coded, 2);
        let deserialized = ProblemInstance::new(dag, sys);
        let mut instances = vec![
            ProblemInstance::new(coded.clone(), coded_sys.clone()),
            ProblemInstance::from_refs(&coded, &coded_sys),
        ];
        // patched: weight-level deltas seed the memo, structural ones
        // rebuild; either way the fold starts empty
        for deltas in [
            r#"[{"kind":"task_weight","task":1,"weight":9.5}]"#,
            r#"[{"kind":"etc_entry","task":2,"proc":1,"time":30.0}]"#,
            r#"[{"kind":"edge_data","src":0,"dst":4,"data":7.5}]"#,
            r#"[{"kind":"remove_task","task":3},{"kind":"remove_proc","proc":0}]"#,
        ] {
            let deltas: Vec<Delta> = serde_json::from_str(deltas).unwrap();
            let patched = deserialized.apply_deltas(&deltas).unwrap().instance;
            instances.push(patched.into_owned());
        }
        instances.push(deserialized);
        let traced = RequestOptions {
            simulate: true,
            debug_sleep_ms: Some(5),
            trace: true,
            deadline_ms: Some(100),
            jobs: Some(3),
            ..RequestOptions::default()
        };
        for inst in &instances {
            for algorithm in ["HEFT", "ILS-D"] {
                for options in [&RequestOptions::default(), &traced] {
                    assert_eq!(
                        request_fingerprint(inst, algorithm, options),
                        two_pass_request_fingerprint(inst.dag(), inst.sys(), algorithm, options)
                    );
                }
            }
            assert_eq!(
                inst.fingerprint(),
                ProblemInstance::content_fingerprint(inst.dag(), inst.sys())
            );
        }

        // The values a reply carries: `fingerprint` from the carried fold
        // equals the oracle's, for a fresh request and for a patch.
        let svc = Service::start(test_config());
        let line = small_request(7, "HEFT", "{\"simulate\":true}");
        let body = schedule_body(&svc.handle_line(&line)).clone();
        let last = instances.last().unwrap();
        let simulate = RequestOptions {
            simulate: true,
            ..RequestOptions::default()
        };
        let oracle = two_pass_request_fingerprint(last.dag(), last.sys(), "HEFT", &simulate);
        assert_eq!(body.fingerprint, format!("{oracle:016x}"));
        assert_eq!(body.problem, format!("{:016x}", last.fingerprint()));
        let resp = svc.handle_line(&patch_request(
            &body.problem,
            "HEFT",
            r#"[{"kind":"task_weight","task":1,"weight":9.5}]"#,
            "{\"simulate\":true}",
        ));
        let patched = &instances[2];
        let oracle = two_pass_request_fingerprint(patched.dag(), patched.sys(), "HEFT", &simulate);
        assert_eq!(schedule_body(&resp).fingerprint, format!("{oracle:016x}"));
        svc.shutdown();
    }

    #[test]
    fn jobs_option_is_byte_identical_to_direct_library_call() {
        // A request carrying `jobs > 1` must produce exactly the schedule
        // the library computes directly — parallel search is bit-identical
        // — and must share the memo entry with a jobs-less request, since
        // `jobs` is excluded from the fingerprint.
        let svc = Service::start(test_config());
        let resp = svc.handle_line(&small_request(8, "DUP-HEFT", "{\"jobs\":2}"));
        let Response::Ok {
            schedule: Some(body),
            ..
        } = &resp
        else {
            panic!("unexpected response: {resp:?}");
        };
        assert!(!body.cached);

        // Rebuild the same problem through the same wire specs the service
        // used, then call the library directly.
        let dag = hetsched_dag::builder::dag_from_edges(
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            &(1..8u32).map(|i| (0, i, 2.0)).collect::<Vec<_>>(),
        )
        .unwrap();
        let sys = SystemSpec {
            processors: hetsched_platform::spec::ProcessorsSpec::Homogeneous { count: 3 },
            network: hetsched_platform::spec::NetworkSpec {
                topology: "fully_connected".to_string(),
                startup: 0.0,
                bandwidth: 1.0,
                rows: None,
                cols: None,
            },
        }
        .build(&dag)
        .unwrap();
        let direct = algorithms::by_name("DUP-HEFT")
            .expect("registered algorithm")
            .schedule(&dag, &sys);
        assert_eq!(
            serde_json::to_string(&body.schedule).unwrap(),
            serde_json::to_string(&direct).unwrap(),
            "serve with jobs=2 must be byte-identical to the direct call"
        );

        // Identical request without `jobs` is a pure cache hit: the option
        // is not part of the fingerprint.
        let retry = svc.handle_line(&small_request(8, "DUP-HEFT", "{}"));
        let Response::Ok {
            schedule: Some(retry),
            ..
        } = &retry
        else {
            panic!("retry: {retry:?}");
        };
        assert!(retry.cached);
        assert_eq!(retry.fingerprint, body.fingerprint);
        svc.shutdown();
    }

    #[test]
    fn hello_identifies_the_service() {
        let svc = Service::start(test_config());
        let resp = svc.handle_line(r#"{"op":"hello"}"#);
        let Response::Ok { hello: Some(h), .. } = resp else {
            panic!("expected hello payload");
        };
        assert_eq!(h.service, "hetsched-serve");
        assert_eq!(h.workers, 2);
        assert_eq!(h.queue_capacity, 4);
        assert!(!h.version.is_empty());
        svc.shutdown();
    }

    #[test]
    fn stats_and_shutdown_ops() {
        let svc = Service::start(test_config());
        let resp = svc.handle_line(r#"{"op":"stats"}"#);
        let Response::Ok { stats: Some(s), .. } = resp else {
            panic!("expected stats payload");
        };
        assert_eq!(s.requests, 0);
        assert_eq!(s.workers, 2);
        let resp = svc.handle_line(r#"{"op":"shutdown"}"#);
        assert!(matches!(resp, Response::ShuttingDown));
        assert!(svc.is_shutting_down());
        svc.shutdown();
    }
}
