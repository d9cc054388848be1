//! The routing core: parse → fingerprint → admit → forward → reply.
//!
//! Every request line flows through [`Router::handle_line`]:
//!
//! 1. **Parse** and validate the problem (bad input is answered at the
//!    gateway; it never costs a shard anything).
//! 2. **Route** by content fingerprint: `fingerprint(dag, system) % N`
//!    picks the home shard, so the shard's `ProblemInstance` cache and
//!    reply memo see every repeat of the same problem.
//! 3. **Coalesce**: identical requests already in flight are joined as
//!    single-flight followers and get the leader's reply byte-for-byte.
//! 4. **Admit**: a request whose deadline has already passed, or whose
//!    home shard is at its inflight budget, is shed — it never occupies a
//!    shard slot. The remaining deadline is rewritten into the forwarded
//!    request, so shards enforce the client's clock, not their default.
//! 5. **Forward** with failover: if the home shard is down, the next
//!    healthy shard serves the request (a `reroute`); if none can, the
//!    client gets a structured `error` — never a hang.

use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::RecvTimeoutError;
use parking_lot::Mutex;

use hetsched_core::{Delta, ProblemInstance};
use hetsched_dag::Fingerprint;
use hetsched_serve::cache::LruCache;
use hetsched_serve::journal::Journal;
use hetsched_serve::metrics::RequestStatus;
use hetsched_serve::protocol::{
    GatewayTiming, HelloBody, Hop, InstanceSpec, JournalBody, Request, RequestOptions, Response,
    ScheduleBody, ScheduleManyBody, SpanRecord, TimingBody,
};
use hetsched_serve::wire::{self, WireScan};

use crate::backend::{Backend, Unsent};
use crate::metrics::{bump, read, GatewayMetrics, ShardSnapshot};
use crate::singleflight::{Flight, SingleFlight};
use crate::GatewayConfig;

/// How long a down shard is skipped before the next probe attempt.
const RETRY_AFTER: Duration = Duration::from_millis(500);
/// Extra wait granted to single-flight followers beyond their own
/// deadline, covering the leader's reply delivery.
const FOLLOWER_SLACK: Duration = Duration::from_millis(100);
/// Extra wait granted to a shard beyond the propagated deadline: the
/// shard answers `timeout` at the deadline itself and needs a moment to
/// deliver that reply before the gateway cuts the connection.
const SHARD_GRACE: Duration = Duration::from_millis(250);
/// Deadline for control-plane fan-outs (per-shard stats, shutdown).
const CONTROL_DEADLINE: Duration = Duration::from_secs(2);
/// Capacity of the gateway's raw-byte hot-line cache, the fleet's only
/// wire cache. The gateway sees shard cache churn only through
/// `unknown_parent` replies (see `Router::forget_problem`), so this stays
/// a small fixed window over the hottest request lines; a stale entry can
/// at worst re-serve a reply whose schedule bytes are deterministic anyway
/// (see `handle_line`).
const WIRE_CACHE_CAPACITY: usize = 256;
/// Prefix of a shard's reply to a `patch` whose parent it no longer holds.
const UNKNOWN_PARENT_REPLY: &str = r#"{"status":"error","message":"unknown_parent"#;

/// The gateway routing core. Cheap to share behind an `Arc`; every public
/// method takes `&self`.
pub struct Router {
    config: GatewayConfig,
    backends: Vec<Backend>,
    singleflight: SingleFlight,
    /// Raw-byte hot-line cache: wire digest → preserialized reply line.
    wire: Mutex<LruCache<Arc<String>>>,
    metrics: GatewayMetrics,
    journal: Journal,
    shutting: AtomicBool,
}

/// Per-request trace scratchpad. Every routed request carries one; all
/// recording methods are no-ops when the request has no trace context,
/// so the untraced hot path pays a branch and nothing else.
struct TraceScratch {
    trace_id: Option<String>,
    arrival: Instant,
    admission_us: u64,
    dedup: &'static str,
    backend_us: u64,
    attempts: u32,
    spans: Vec<SpanRecord>,
}

impl TraceScratch {
    fn new(trace_id: Option<String>, arrival: Instant) -> TraceScratch {
        TraceScratch {
            trace_id,
            arrival,
            admission_us: 0,
            dedup: "none",
            backend_us: 0,
            attempts: 0,
            spans: Vec::new(),
        }
    }

    /// µs between the request's arrival and `at` on this gateway's clock.
    fn off(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.arrival).as_micros() as u64
    }

    /// Record a span (no-op when untraced).
    fn span(&mut self, name: &str, start_us: u64, dur_us: u64, detail: impl Into<String>) {
        if let Some(id) = &self.trace_id {
            self.spans.push(SpanRecord {
                trace_id: id.clone(),
                name: name.to_string(),
                start_us,
                dur_us: dur_us.max(1),
                detail: detail.into(),
            });
        }
    }
}

impl Router {
    /// Build a router for the configured backends.
    ///
    /// # Errors
    /// `InvalidInput` if no backends are configured.
    pub fn new(config: GatewayConfig) -> io::Result<Router> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "gateway needs at least one backend shard",
            ));
        }
        let connect_timeout = Duration::from_millis(config.connect_timeout_ms.max(1));
        let backends = config
            .backends
            .iter()
            .map(|addr| Backend::new(addr.clone(), connect_timeout))
            .collect();
        Ok(Router {
            config,
            backends,
            singleflight: SingleFlight::new(),
            wire: Mutex::new(LruCache::new(WIRE_CACHE_CAPACITY)),
            metrics: GatewayMetrics::new(),
            journal: Journal::default(),
            shutting: AtomicBool::new(false),
        })
    }

    /// Gateway configuration.
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// Live gateway counters.
    pub fn metrics(&self) -> &GatewayMetrics {
        &self.metrics
    }

    /// Whether graceful shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting.load(Ordering::SeqCst)
    }

    /// Request graceful shutdown (front door stops accepting; in-flight
    /// requests drain).
    pub fn begin_shutdown(&self) {
        self.shutting.store(true, Ordering::SeqCst);
    }

    /// Handle one NDJSON request line, returning the shared reply line
    /// (no trailing newline). `arrival` anchors the request's deadline:
    /// pass the instant the line was read off the socket, so queueing
    /// inside the gateway counts against the client's budget.
    ///
    /// Repeat traffic takes the **wire fast path**: a shallow byte scan
    /// digests the line with its volatile fields (`deadline_ms`, `jobs`,
    /// trace context) cut out, and a digest already mapped to a
    /// preserialized reply answers without parsing the request or
    /// touching a shard. The cache only admits memo-hit-shaped replies
    /// ([`wire::reply_stable`]) — whose schedule bytes are deterministic
    /// for the digest — and a hit is refused when the request's own
    /// deadline has expired (the slow path would shed) or shutdown has
    /// begun (the slow path would refuse), so the fast path answers
    /// byte-for-byte what the slow path would have.
    pub fn handle_line(&self, line: &str, arrival: Instant) -> Arc<String> {
        let Some(scan) = wire::scan(line.as_bytes()) else {
            bump(&self.metrics.wire_fallbacks);
            return self.handle_line_slow(line, arrival, None);
        };
        if self.is_shutting_down() || !self.deadline_live(&scan, arrival) {
            bump(&self.metrics.wire_fallbacks);
            return self.handle_line_slow(line, arrival, None);
        }
        let hit = self.wire.lock().get(scan.digest).cloned();
        if let Some(reply) = hit {
            self.record_wire_hit(&scan, arrival);
            return reply;
        }
        bump(&self.metrics.wire_misses);
        self.handle_line_slow(line, arrival, Some(&scan))
    }

    /// Whether the scanned request's deadline has not yet expired on
    /// this gateway's clock.
    fn deadline_live(&self, scan: &WireScan, arrival: Instant) -> bool {
        let deadline =
            Duration::from_millis(scan.deadline_ms.unwrap_or(self.config.default_deadline_ms));
        Instant::now() < arrival + deadline
    }

    /// Account a wire-cache hit with the same SLO bookkeeping the slow
    /// path performs in [`Router::finish_route`]. The per-shard forward
    /// counter is deliberately untouched: no shard served this request.
    fn record_wire_hit(&self, scan: &WireScan, arrival: Instant) {
        bump(&self.metrics.requests);
        bump(&self.metrics.wire_hits);
        let elapsed = arrival.elapsed();
        self.metrics.latency.record(RequestStatus::Success, elapsed);
        self.metrics
            .op_outcomes
            .bump(scan.op.as_str(), RequestStatus::Success);
        if let Some(d) = scan.deadline_ms {
            self.metrics
                .deadline_slack
                .record(Duration::from_millis(d).saturating_sub(elapsed));
        }
    }

    /// The full parse-and-route path. `scan` is the scan of a
    /// scanned-but-missed line: a stable reply is written back under its
    /// digest, and the line is forwarded as the client's own bytes.
    fn handle_line_slow(
        &self,
        line: &str,
        arrival: Instant,
        scan: Option<&WireScan>,
    ) -> Arc<String> {
        let reply = match Request::parse(line) {
            Err(e) => {
                bump(&self.metrics.errors);
                Arc::new(Response::error(format!("bad request: {e}")).to_line())
            }
            Ok(Request::Hello) => Arc::new(Response::hello(self.hello_body()).to_line()),
            Ok(Request::Stats) => Arc::new(self.stats_line()),
            Ok(Request::Metrics) => Arc::new(Response::metrics(self.metrics_text()).to_line()),
            Ok(Request::Journal) => Arc::new(
                Response::journal(JournalBody {
                    source: "gateway".to_string(),
                    spans: self.journal.drain(),
                })
                .to_line(),
            ),
            Ok(Request::Shutdown) => Arc::new(self.shutdown_line()),
            Ok(req) => self.route(req, arrival, scan.map(|scan| Scanned { line, scan })),
        };
        if let Some(scan) = scan {
            if wire::reply_stable(reply.as_bytes()) {
                self.wire.lock().insert(scan.digest, reply.clone());
            }
        }
        reply
    }

    /// Identification payload for the `hello` op.
    fn hello_body(&self) -> HelloBody {
        HelloBody {
            service: "hetsched-gateway".to_string(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            workers: self.config.router_threads,
            queue_capacity: self.config.queue_capacity,
        }
    }

    /// Route one `schedule`/`portfolio`/`patch` request: record the SLO
    /// outcome and, for traced requests, the gateway-side spans and the
    /// `timing.gateway` block around the actual routing in
    /// [`Router::route_inner`].
    fn route(&self, req: Request, arrival: Instant, scanned: Option<Scanned>) -> Arc<String> {
        if self.is_shutting_down() {
            return Arc::new(Response::ShuttingDown.to_line());
        }
        bump(&self.metrics.requests);
        let (op, deadline_ms, trace_id) = {
            let options = match &req {
                Request::Schedule { options, .. }
                | Request::Portfolio { options, .. }
                | Request::ScheduleMany { options, .. }
                | Request::Patch { options, .. } => options,
                // `handle_line` only routes the scheduling ops.
                _ => unreachable!("route() called with a control op"),
            };
            let op = match &req {
                Request::Portfolio { .. } => "portfolio",
                Request::ScheduleMany { .. } => "schedule_many",
                Request::Patch { .. } => "patch",
                _ => "schedule",
            };
            (
                op,
                options.deadline_ms,
                options.trace_ctx.as_ref().map(|c| c.trace_id.clone()),
            )
        };
        let mut scratch = TraceScratch::new(trace_id, arrival);
        let reply = self.route_inner(&req, scanned, deadline_ms, arrival, &mut scratch);
        self.finish_route(reply, op, deadline_ms, arrival, scratch)
    }

    /// The routing body proper: admission, single-flight, forwarding.
    fn route_inner(
        &self,
        req: &Request,
        scanned: Option<Scanned>,
        deadline_ms: Option<u64>,
        arrival: Instant,
        scratch: &mut TraceScratch,
    ) -> Arc<String> {
        let deadline =
            Duration::from_millis(deadline_ms.unwrap_or(self.config.default_deadline_ms));
        let deadline_at = arrival + deadline;
        // Admission control runs *before* single-flight: a request whose
        // deadline has already expired — `deadline_ms` of 0 included — is
        // shed here, leaders and followers alike. (Checking only inside
        // the leader's forward loop, as the gateway used to, let expired
        // followers join a flight and wait out the follower slack for a
        // reply that could never arrive in time, and answered `timeout`
        // or `error` instead of the honest `shed`.)
        if Instant::now() >= deadline_at {
            bump(&self.metrics.sheds);
            return Arc::new(
                Response::shed(
                    "deadline expired before dispatch; the request never reached a shard",
                )
                .to_line(),
            );
        }
        // A batch fans out to *several* home shards; it has its own
        // routing body and only shares admission and single-flight.
        if let Request::ScheduleMany {
            instances,
            algorithm,
            options,
        } = req
        {
            return self.route_many(
                instances,
                algorithm,
                options,
                deadline,
                deadline_at,
                scratch,
            );
        }
        let options = match req {
            Request::Schedule { options, .. }
            | Request::Portfolio { options, .. }
            | Request::Patch { options, .. } => options,
            _ => unreachable!("route_inner() called with a control op"),
        };

        let (home, key, parent) = match req {
            Request::Patch {
                parent,
                algorithm,
                deltas,
                options,
            } => {
                // A patch routes to its *parent's* home shard — the one
                // whose instance cache can resolve the parent fingerprint.
                let Some(parent_fp) = parse_parent(parent) else {
                    bump(&self.metrics.errors);
                    return Arc::new(
                        Response::error(format!(
                            "unknown_parent: `{parent}` is not a 16-hex-digit problem fingerprint \
                             (use the `problem` field of an earlier schedule response)"
                        ))
                        .to_line(),
                    );
                };
                (
                    (parent_fp % self.backends.len() as u64) as usize,
                    patch_dedup_key(parent_fp, algorithm, deltas, options),
                    Some(parent_fp),
                )
            }
            _ => {
                let (dag_spec, system_spec, alg_names) = match req {
                    Request::Schedule {
                        dag,
                        system,
                        algorithm,
                        ..
                    } => (dag, system, std::slice::from_ref(algorithm).to_vec()),
                    Request::Portfolio {
                        dag,
                        system,
                        algorithms,
                        ..
                    } => (dag, system, algorithms.clone()),
                    _ => unreachable!("patch is handled above"),
                };
                // Validate at the front door; a bad problem never costs a
                // shard.
                let dag = match dag_spec.build() {
                    Ok(d) => d,
                    Err(e) => {
                        bump(&self.metrics.errors);
                        return Arc::new(Response::error(format!("invalid dag: {e}")).to_line());
                    }
                };
                let sys = match system_spec.build(&dag) {
                    Ok(s) => s,
                    Err(e) => {
                        bump(&self.metrics.errors);
                        return Arc::new(Response::error(format!("invalid system: {e}")).to_line());
                    }
                };
                // One content fold routes the request and starts its
                // single-flight key.
                let content = ProblemInstance::from_refs(&dag, &sys)
                    .content_fold()
                    .clone();
                (
                    (content.finish() % self.backends.len() as u64) as usize,
                    dedup_key(req, content, &alg_names, options),
                    None,
                )
            }
        };
        scratch.admission_us = scratch.off(Instant::now());
        scratch.span("admission", 0, scratch.admission_us, "");

        let reply = self.coalesce(key, deadline, deadline_at, scratch, |router, scratch| {
            router.lead(req, scanned, home, deadline_at, scratch)
        });
        if let Some(parent_fp) = parent {
            if reply.starts_with(UNKNOWN_PARENT_REPLY) {
                self.forget_problem(parent_fp);
            }
        }
        reply
    }

    /// Drop every wire-cache reply that carries problem `fp`. The home
    /// shard has evicted that problem from its instance cache (it just
    /// answered `unknown_parent`), and the client's remedy is to re-send
    /// the problem as a `schedule`: that re-send must reach the shard to
    /// re-seed it, which a gateway wire hit would prevent.
    fn forget_problem(&self, fp: u64) {
        let needle = format!("\"problem\":\"{fp:016x}\"");
        self.wire.lock().retain(|reply| !reply.contains(&needle));
    }

    /// Single-flight coalescing around a leader body: followers wait for
    /// the leader's reply (plus slack); the leader runs `lead_fn` and
    /// completes the flight with the *un-injected* reply — every
    /// requester, leader and followers alike, injects its own gateway
    /// timing into its own clone, so a follower's `timing.gateway`
    /// reflects its wait, not the leader's round trip. Leader and
    /// followers share the same `Arc`'d reply bytes — no follower ever
    /// copies the payload.
    fn coalesce(
        &self,
        key: u64,
        deadline: Duration,
        deadline_at: Instant,
        scratch: &mut TraceScratch,
        lead_fn: impl FnOnce(&Self, &mut TraceScratch) -> String,
    ) -> Arc<String> {
        match self.singleflight.join(key) {
            Flight::Follower(rx) => {
                scratch.dedup = "follower";
                let wait_start = Instant::now();
                let wait = deadline_at.saturating_duration_since(wait_start) + FOLLOWER_SLACK;
                let outcome = rx.recv_timeout(wait);
                let waited_us = wait_start.elapsed().as_micros() as u64;
                scratch.backend_us = waited_us;
                scratch.span("dedup_wait", scratch.off(wait_start), waited_us, "");
                match outcome {
                    Ok(reply) => {
                        bump(&self.metrics.dedup_hits);
                        reply
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        bump(&self.metrics.timeouts);
                        Arc::new(
                            Response::Timeout {
                                message: format!(
                                    "deadline of {} ms exceeded waiting for an identical in-flight request",
                                    deadline.as_millis()
                                ),
                            }
                            .to_line(),
                        )
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        bump(&self.metrics.errors);
                        Arc::new(
                            Response::error("in-flight leader vanished before replying").to_line(),
                        )
                    }
                }
            }
            Flight::Leader => {
                scratch.dedup = "leader";
                let reply = Arc::new(lead_fn(self, scratch));
                self.singleflight.complete(key, &reply);
                reply
            }
        }
    }

    /// Route one `schedule_many` batch: validate every instance at the
    /// front door, group the instances by their *own* home shards
    /// (`fingerprint(dag, system) % N`, the same placement standalone
    /// `schedule` requests get, so batches and singles share shard
    /// caches), forward one sub-batch per shard through the ordinary
    /// failover path, and reassemble the entries **in request order**.
    /// The whole batch is one single-flight key, so identical concurrent
    /// batches coalesce.
    fn route_many(
        &self,
        instances: &[InstanceSpec],
        algorithm: &str,
        options: &RequestOptions,
        deadline: Duration,
        deadline_at: Instant,
        scratch: &mut TraceScratch,
    ) -> Arc<String> {
        if instances.is_empty() {
            bump(&self.metrics.errors);
            return Arc::new(
                Response::error("schedule_many requires at least one instance").to_line(),
            );
        }
        let n = self.backends.len();
        let mut homes = Vec::with_capacity(instances.len());
        let mut content_fps = Vec::with_capacity(instances.len());
        for (i, spec) in instances.iter().enumerate() {
            let dag = match spec.dag.build() {
                Ok(d) => d,
                Err(e) => {
                    bump(&self.metrics.errors);
                    return Arc::new(
                        Response::error(format!("invalid dag (instance {i}): {e}")).to_line(),
                    );
                }
            };
            let sys = match spec.system.build(&dag) {
                Ok(s) => s,
                Err(e) => {
                    bump(&self.metrics.errors);
                    return Arc::new(
                        Response::error(format!("invalid system (instance {i}): {e}")).to_line(),
                    );
                }
            };
            let cfp = ProblemInstance::content_fingerprint(&dag, &sys);
            homes.push((cfp % n as u64) as usize);
            content_fps.push(cfp);
        }
        let key = many_dedup_key(&content_fps, algorithm, options);
        scratch.admission_us = scratch.off(Instant::now());
        scratch.span("admission", 0, scratch.admission_us, "");

        self.coalesce(key, deadline, deadline_at, scratch, |router, scratch| {
            router.lead_many(instances, algorithm, options, &homes, deadline_at, scratch)
        })
    }

    /// Forward a batch as the single-flight leader: one `schedule_many`
    /// sub-request per distinct home shard (in order of first appearance),
    /// each through [`Router::lead`]'s admission/failover loop, then
    /// scatter the sub-replies back into request order. Any non-`ok`
    /// sub-reply answers the whole batch — partial batches would silently
    /// drop instances, and the client can always retry (the completed
    /// members are already cached on their shards).
    fn lead_many(
        &self,
        instances: &[InstanceSpec],
        algorithm: &str,
        options: &RequestOptions,
        homes: &[usize],
        deadline_at: Instant,
        scratch: &mut TraceScratch,
    ) -> String {
        let mut shard_order: Vec<usize> = Vec::new();
        for &h in homes {
            if !shard_order.contains(&h) {
                shard_order.push(h);
            }
        }
        let mut entries: Vec<Option<ScheduleBody>> = vec![None; instances.len()];
        let (mut cached, mut computed) = (0usize, 0usize);
        for home in shard_order {
            let member_idx: Vec<usize> =
                (0..instances.len()).filter(|&i| homes[i] == home).collect();
            let sub_req = Request::ScheduleMany {
                instances: member_idx.iter().map(|&i| instances[i].clone()).collect(),
                algorithm: algorithm.to_string(),
                options: options.clone(),
            };
            let reply = self.lead(&sub_req, None, home, deadline_at, scratch);
            let Ok(Response::Ok {
                many: Some(body), ..
            }) = serde_json::from_str::<Response>(&reply)
            else {
                // busy / shed / timeout / error — or an `ok` without a
                // batch payload, which a conforming shard never sends.
                return reply;
            };
            if body.entries.len() != member_idx.len() {
                bump(&self.metrics.errors);
                return Response::error(format!(
                    "shard answered {} entries for a {}-instance sub-batch",
                    body.entries.len(),
                    member_idx.len()
                ))
                .to_line();
            }
            cached += body.cached;
            computed += body.computed;
            for (&i, entry) in member_idx.iter().zip(body.entries) {
                entries[i] = Some(entry);
            }
        }
        let entries: Vec<ScheduleBody> = entries
            .into_iter()
            .map(|e| e.expect("every instance belongs to exactly one sub-batch"))
            .collect();
        Response::many(ScheduleManyBody {
            entries,
            cached,
            computed,
        })
        .to_line()
    }

    /// Record the request's SLO outcome, journal its spans, and inject
    /// the `timing.gateway` block into traced `ok` replies.
    fn finish_route(
        &self,
        reply: Arc<String>,
        op: &str,
        deadline_ms: Option<u64>,
        arrival: Instant,
        mut scratch: TraceScratch,
    ) -> Arc<String> {
        let elapsed = arrival.elapsed();
        let Some(status) = status_of_line(&reply) else {
            return reply; // shutting_down: not an SLO outcome
        };
        self.metrics.latency.record(status, elapsed);
        self.metrics.op_outcomes.bump(op, status);
        if status == RequestStatus::Success {
            if let Some(d) = deadline_ms {
                self.metrics
                    .deadline_slack
                    .record(Duration::from_millis(d).saturating_sub(elapsed));
            }
        }
        let Some(trace_id) = scratch.trace_id.clone() else {
            return reply;
        };
        let total_us = (elapsed.as_micros() as u64).max(1);
        scratch.span("request", 0, total_us, scratch.dedup);
        let timing = GatewayTiming {
            total_us,
            admission_us: scratch.admission_us,
            dedup: scratch.dedup.to_string(),
            backend_us: scratch.backend_us,
            attempts: scratch.attempts,
        };
        self.journal.extend(scratch.spans);
        if status == RequestStatus::Success {
            Arc::new(inject_gateway_timing(&reply, &trace_id, &timing))
        } else {
            reply
        }
    }

    /// Forward a request as the single-flight leader: admission control,
    /// deadline propagation, home-shard affinity with failover. A
    /// `scanned` line is forwarded as the client's bytes with only the
    /// deadline rewritten; anything else is re-serialized.
    fn lead(
        &self,
        req: &Request,
        scanned: Option<Scanned>,
        home: usize,
        deadline_at: Instant,
        scratch: &mut TraceScratch,
    ) -> String {
        let n = self.backends.len();
        let mut budget_full = false;
        let mut last_error: Option<io::Error> = None;
        for i in 0..n {
            let backend = &self.backends[(home + i) % n];
            if !backend.available(RETRY_AFTER) {
                continue;
            }
            let remaining = deadline_at.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                // Shed, don't forward: the reply could never arrive in
                // time, so the request must not occupy a shard slot.
                bump(&self.metrics.sheds);
                return Response::shed(
                    "deadline expired before dispatch; the request never reached a shard",
                )
                .to_line();
            }
            let Some(_slot) = backend.try_reserve(self.config.inflight_per_shard) else {
                budget_full = true;
                if i == 0 {
                    // The home shard is saturated. Shed rather than spill:
                    // spilling would break cache affinity exactly when the
                    // system is overloaded and the caches matter most.
                    break;
                }
                continue;
            };
            let sent_at = Instant::now();
            let line = match scanned {
                Some(Scanned { line, scan }) => splice_deadline(line, scan, remaining),
                None => forward_line(req, remaining, scratch.off(sent_at)),
            };
            scratch.attempts += 1;
            let outcome = backend.round_trip(&line, deadline_at + SHARD_GRACE);
            let round_trip_us = sent_at.elapsed().as_micros() as u64;
            scratch.backend_us += round_trip_us;
            match outcome {
                Ok(reply) => {
                    scratch.span(
                        "backend",
                        scratch.off(sent_at),
                        round_trip_us,
                        backend.addr(),
                    );
                    bump(&self.metrics.forwarded);
                    if i > 0 {
                        bump(&self.metrics.reroutes);
                    }
                    return reply;
                }
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                    // The shard is alive but slow, so this is a timeout,
                    // not a failover. A request it received keeps
                    // computing and will populate its caches; one it never
                    // received in full will not.
                    scratch.span(
                        "backend",
                        scratch.off(sent_at),
                        round_trip_us,
                        format!("{} timeout", backend.addr()),
                    );
                    bump(&self.metrics.timeouts);
                    let message = if Unsent::is(&e) {
                        format!(
                            "shard {} did not take the whole request within the deadline",
                            backend.addr()
                        )
                    } else {
                        format!(
                            "shard {} did not reply within the deadline; an identical retry may hit its cache",
                            backend.addr()
                        )
                    };
                    return Response::Timeout { message }.to_line();
                }
                Err(e) => {
                    scratch.span(
                        "backend",
                        scratch.off(sent_at),
                        round_trip_us,
                        format!("{} error: {e}", backend.addr()),
                    );
                    bump(&self.metrics.shard_errors);
                    last_error = Some(e);
                    continue;
                }
            }
        }
        if budget_full {
            bump(&self.metrics.sheds);
            Response::shed(format!(
                "shard inflight budget exhausted ({} per shard)",
                self.config.inflight_per_shard
            ))
            .to_line()
        } else {
            bump(&self.metrics.errors);
            let detail = match last_error {
                Some(e) => format!("no shard could serve the request: {e}"),
                None => "no healthy shard available".to_string(),
            };
            Response::error(detail).to_line()
        }
    }

    /// Aggregate stats: gateway counters plus a live `stats` fan-out to
    /// every shard (`null` for shards that cannot be reached).
    fn stats_line(&self) -> String {
        let shard_stats: Vec<serde_json::Value> = self
            .backends
            .iter()
            .map(|b| {
                b.round_trip(r#"{"op":"stats"}"#, Instant::now() + CONTROL_DEADLINE)
                    .ok()
                    .and_then(|reply| serde_json::from_str::<serde_json::Value>(&reply).ok())
                    .map(|v| v["stats"].clone())
                    .unwrap_or(serde_json::Value::Null)
            })
            .collect();
        let m = &self.metrics;
        let gateway = serde_json::json!({
            "requests": read(&m.requests),
            "forwarded": read(&m.forwarded),
            "dedup_hits": read(&m.dedup_hits),
            "sheds": read(&m.sheds),
            "timeouts": read(&m.timeouts),
            "reroutes": read(&m.reroutes),
            "shard_errors": read(&m.shard_errors),
            "errors": read(&m.errors),
            "wire_hits": read(&m.wire_hits),
            "wire_misses": read(&m.wire_misses),
            "wire_fallbacks": read(&m.wire_fallbacks),
            "inflight_keys": self.singleflight.len(),
            "latency_samples": m.latency.success().count(),
            "latency_p50_us": m.latency.success().quantile_us(0.50),
            "latency_p99_us": m.latency.success().quantile_us(0.99),
            "shards": self.snapshots(),
        });
        serde_json::to_string(&serde_json::json!({
            "status": "ok",
            "gateway": gateway,
            "shards": shard_stats,
        }))
        .expect("stats serialization is infallible")
    }

    /// Gateway metric families in Prometheus text exposition format.
    fn metrics_text(&self) -> String {
        self.metrics.render_prometheus(&self.snapshots())
    }

    fn snapshots(&self) -> Vec<ShardSnapshot> {
        self.backends.iter().map(Backend::snapshot).collect()
    }

    /// Acknowledge shutdown, optionally propagating it to every shard so
    /// one client request winds the whole deployment down.
    fn shutdown_line(&self) -> String {
        self.begin_shutdown();
        if self.config.propagate_shutdown {
            for b in &self.backends {
                let _ = b.round_trip(r#"{"op":"shutdown"}"#, Instant::now() + CONTROL_DEADLINE);
            }
        }
        Response::ShuttingDown.to_line()
    }
}

/// Dedup key for single-flight coalescing: the (DAG, system) `content`
/// fold that routed the request, continued with the op kind, the
/// algorithm list, and the response-shaping options. Mirrors
/// [`hetsched_serve::request_fingerprint`]'s exclusions: `deadline_ms`
/// bounds the wait, `jobs` changes speed — neither changes the reply, so
/// requests differing only in them coalesce.
fn dedup_key(
    req: &Request,
    mut fp: Fingerprint,
    alg_names: &[String],
    options: &RequestOptions,
) -> u64 {
    fp.tag("gateway-op");
    fp.push_str(match req {
        Request::Portfolio { .. } => "portfolio",
        _ => "schedule",
    });
    fp.tag("algorithms");
    fp.push_u64(alg_names.len() as u64);
    for name in alg_names {
        fp.push_str(name);
    }
    options.fold_fingerprint(&mut fp);
    fp.finish()
}

/// Dedup key for `schedule_many` batches: the per-instance content
/// fingerprints **in request order**, the algorithm, and the
/// response-shaping options. The op tag differs from `dedup_key`'s, so a
/// one-instance batch never coalesces with the equivalent standalone
/// `schedule` (their replies have different shapes). Order matters by
/// design: the reply is ordered, so a permuted batch is a different
/// request.
fn many_dedup_key(content_fps: &[u64], algorithm: &str, options: &RequestOptions) -> u64 {
    let mut fp = Fingerprint::new();
    fp.tag("gateway-op");
    fp.push_str("schedule_many");
    fp.tag("instances");
    fp.push_u64(content_fps.len() as u64);
    for &c in content_fps {
        fp.push_u64(c);
    }
    fp.tag("algorithms");
    fp.push_u64(1);
    fp.push_str(algorithm);
    options.fold_fingerprint(&mut fp);
    fp.finish()
}

/// Parse a `patch` parent key: exactly 16 hex digits, as the `problem`
/// field of a schedule response carries it.
fn parse_parent(parent: &str) -> Option<u64> {
    if parent.len() != 16 || !parent.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(parent, 16).ok()
}

/// Dedup key for `patch` requests: the parent fingerprint, the algorithm,
/// the deltas' canonical wire form, and the response-shaping options. A
/// patch never hashes the (DAG, system) content, and the op tag differs
/// from `dedup_key`'s — so a patch can never coalesce with its parent's
/// full request, not even when its deltas are a no-op. (Coalescing them
/// would hand the parent's reply to a client that asked for the patched
/// problem.)
fn patch_dedup_key(
    parent_fp: u64,
    algorithm: &str,
    deltas: &[Delta],
    options: &RequestOptions,
) -> u64 {
    let mut fp = Fingerprint::new();
    fp.tag("gateway-op");
    fp.push_str("patch");
    fp.push_u64(parent_fp);
    fp.tag("algorithms");
    fp.push_u64(1);
    fp.push_str(algorithm);
    fp.tag("deltas");
    fp.push_str(&serde_json::to_string(&deltas).expect("delta serialization is infallible"));
    options.fold_fingerprint(&mut fp);
    fp.finish()
}

/// The deadline forwarded to a shard: the time actually remaining, so the
/// shard enforces the client's clock (minus gateway queueing) rather than
/// its own default.
fn remaining_ms(remaining: Duration) -> u64 {
    (remaining.as_millis() as u64).max(1)
}

/// A client line the wire scanner accepted, with its scan: what
/// [`splice_deadline`] forwards.
#[derive(Clone, Copy)]
struct Scanned<'l> {
    line: &'l str,
    scan: &'l WireScan,
}

/// The client's `line` with `options.deadline_ms` set to the remaining
/// time: the value rewritten in place, the member inserted at the head of
/// the `options` object, or an `options` object appended to the request.
/// Every other byte is the client's, so setting one field costs no clone
/// or re-serialization of the request. The scanner refuses traced lines;
/// they go through [`forward_line`] for their hop stamps.
fn splice_deadline(line: &str, scan: &WireScan, remaining: Duration) -> String {
    let ms = remaining_ms(remaining);
    let mut out = String::with_capacity(line.len() + 40);
    match (scan.deadline_range, scan.options_body) {
        (Some((lo, hi)), _) => {
            out.push_str(&line[..lo]);
            let _ = write!(out, "{ms}");
            out.push_str(&line[hi..]);
        }
        (None, Some(body)) => {
            out.push_str(&line[..body]);
            let _ = write!(out, "\"deadline_ms\":{ms}");
            if !line[body..].starts_with('}') {
                out.push(',');
            }
            out.push_str(&line[body..]);
        }
        (None, None) => {
            // A scanned line is one object with at least its `op` member,
            // and its closing brace is the last byte.
            out.push_str(&line[..line.len() - 1]);
            let _ = write!(out, ",\"options\":{{\"deadline_ms\":{ms}}}}}");
        }
    }
    out
}

/// Re-serialize a request with its deadline rewritten to the time
/// actually remaining (see [`remaining_ms`]). A traced request also gets a
/// `gateway` hop stamp (`sent_at_us` on the gateway's clock, relative to
/// the request's arrival) appended to its trace context.
fn forward_line(req: &Request, remaining: Duration, sent_at_us: u64) -> String {
    let remaining_ms = remaining_ms(remaining);
    let mut rewritten = req.clone();
    match &mut rewritten {
        Request::Schedule { options, .. }
        | Request::Portfolio { options, .. }
        | Request::ScheduleMany { options, .. }
        | Request::Patch { options, .. } => {
            options.deadline_ms = Some(remaining_ms);
            if let Some(ctx) = options.trace_ctx.as_mut() {
                ctx.hops.push(Hop {
                    tier: "gateway".to_string(),
                    sent_at_us,
                });
            }
        }
        _ => {}
    }
    serde_json::to_string(&rewritten).expect("request serialization is infallible")
}

/// Classify a reply line by its leading `status` field. Relies on serde's
/// tag-first serialization, so no parse is needed on the hot path.
/// `None` for `shutting_down` (not an SLO outcome) and for anything
/// unrecognizable.
fn status_of_line(line: &str) -> Option<RequestStatus> {
    let rest = line.strip_prefix("{\"status\":\"")?;
    if rest.starts_with("ok\"") {
        Some(RequestStatus::Success)
    } else if rest.starts_with("busy\"") || rest.starts_with("shed\"") {
        Some(RequestStatus::Shed)
    } else if rest.starts_with("timeout\"") {
        Some(RequestStatus::Timeout)
    } else if rest.starts_with("error\"") {
        Some(RequestStatus::Error)
    } else {
        None
    }
}

/// Insert the gateway's timing into a traced `ok` reply. The round trip
/// goes through the typed [`Response`] — not `serde_json::Value`, which
/// would reorder keys and break the `{"status":"ok"` prefix contract —
/// so everything but the `timing.gateway` section is re-emitted
/// byte-for-byte. The shard's serve breakdown and hop stamps are
/// preserved; a reply that somehow reached `ok` without a shard timing
/// block gets a fresh one with the gateway section only. Falls back to
/// the untouched reply if it does not parse (it was produced by
/// `Response::to_line`, so it always should).
fn inject_gateway_timing(reply: &str, trace_id: &str, timing: &GatewayTiming) -> String {
    let Ok(mut resp) = serde_json::from_str::<Response>(reply) else {
        return reply.to_string();
    };
    let Response::Ok {
        timing: block_slot, ..
    } = &mut resp
    else {
        return reply.to_string();
    };
    let block = block_slot.get_or_insert_with(|| TimingBody {
        trace_id: trace_id.to_string(),
        hops: Vec::new(),
        serve: None,
        gateway: None,
    });
    block.gateway = Some(timing.clone());
    resp.to_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small schedule request and its problem's content fold.
    fn small_parts() -> (Fingerprint, Request) {
        let line = r#"{"op":"schedule","dag":{"tasks":[{"weight":1.0},{"weight":2.0}],"edges":[{"src":0,"dst":1,"data":1.5}]},"system":{"processors":{"kind":"homogeneous","count":2},"network":{"topology":"fully_connected","bandwidth":1.0}},"algorithm":"HEFT","options":{"deadline_ms":5000,"jobs":4}}"#;
        let req = Request::parse(line).unwrap();
        let Request::Schedule { dag, system, .. } = &req else {
            unreachable!()
        };
        let dag = dag.build().unwrap();
        let sys = system.build(&dag).unwrap();
        let content = ProblemInstance::from_refs(&dag, &sys)
            .content_fold()
            .clone();
        (content, req)
    }

    #[test]
    fn dedup_key_ignores_deadline_and_jobs_but_not_content() {
        let (content, req) = small_parts();
        let key = |algorithm: &str, options| {
            dedup_key(&req, content.clone(), &[algorithm.to_string()], options)
        };
        let base = RequestOptions::default();
        let k1 = key("HEFT", &base);
        let with_deadline = RequestOptions {
            deadline_ms: Some(10),
            jobs: Some(8),
            ..base.clone()
        };
        assert_eq!(
            k1,
            key("HEFT", &with_deadline),
            "deadline/jobs must not split flights"
        );
        let traced = RequestOptions {
            trace: true,
            ..base.clone()
        };
        assert_ne!(
            k1,
            key("HEFT", &traced),
            "trace changes the reply, so it must split flights"
        );
        assert_ne!(
            k1,
            key("CPOP", &base),
            "different algorithm must split flights"
        );
    }

    #[test]
    fn forward_line_rewrites_only_the_deadline() {
        let (_, req) = small_parts();
        let line = forward_line(&req, Duration::from_millis(1234), 0);
        let back = Request::parse(&line).unwrap();
        let Request::Schedule {
            algorithm, options, ..
        } = back
        else {
            panic!("op changed");
        };
        assert_eq!(algorithm, "HEFT");
        assert_eq!(options.deadline_ms, Some(1234));
        assert_eq!(options.jobs, Some(4), "other options must survive");
    }

    #[test]
    fn router_requires_backends() {
        assert!(Router::new(GatewayConfig::default()).is_err());
    }

    #[test]
    fn unreachable_backends_give_structured_error_not_hang() {
        let cfg = GatewayConfig {
            backends: vec!["127.0.0.1:1".to_string()],
            connect_timeout_ms: 100,
            ..GatewayConfig::default()
        };
        let router = Router::new(cfg).unwrap();
        let line = r#"{"op":"schedule","dag":{"tasks":[{"weight":1.0}],"edges":[]},"system":{"processors":{"kind":"homogeneous","count":1},"network":{"topology":"fully_connected","bandwidth":1.0}},"algorithm":"HEFT","options":{"deadline_ms":2000}}"#;
        let started = Instant::now();
        let reply = router.handle_line(line, Instant::now());
        assert!(started.elapsed() < Duration::from_secs(2), "must not hang");
        let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v["status"].as_str(), Some("error"), "{reply}");
        assert_eq!(read(&router.metrics().shard_errors), 1);

        // Malformed lines are answered at the gateway.
        let bad = router.handle_line("not json", Instant::now());
        let v: serde_json::Value = serde_json::from_str(&bad).unwrap();
        assert_eq!(v["status"].as_str(), Some("error"));
    }

    #[test]
    fn expired_deadline_is_shed_before_dispatch() {
        let cfg = GatewayConfig {
            backends: vec!["127.0.0.1:1".to_string()],
            ..GatewayConfig::default()
        };
        let router = Router::new(cfg).unwrap();
        let line = r#"{"op":"schedule","dag":{"tasks":[{"weight":1.0}],"edges":[]},"system":{"processors":{"kind":"homogeneous","count":1},"network":{"topology":"fully_connected","bandwidth":1.0}},"algorithm":"HEFT","options":{"deadline_ms":10}}"#;
        // Arrival far enough in the past that the deadline already passed.
        let arrival = Instant::now() - Duration::from_millis(100);
        let reply = router.handle_line(line, arrival);
        let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v["status"].as_str(), Some("shed"), "{reply}");
        assert!(
            v["message"]
                .as_str()
                .unwrap()
                .contains("expired before dispatch"),
            "{reply}"
        );
        assert_eq!(read(&router.metrics().sheds), 1);
        assert_eq!(
            read(&router.metrics().shard_errors),
            0,
            "a shed request must never touch a shard"
        );
    }

    #[test]
    fn zero_deadline_is_shed_before_joining_a_flight() {
        // `deadline_ms: 0` means "already expired at arrival". The shed
        // must happen before single-flight: the request must not become a
        // leader (occupying the flight slot) or a follower (waiting out
        // the follower slack for a reply that cannot arrive in time).
        let cfg = GatewayConfig {
            backends: vec!["127.0.0.1:1".to_string()],
            ..GatewayConfig::default()
        };
        let router = Router::new(cfg).unwrap();
        let line = r#"{"op":"schedule","dag":{"tasks":[{"weight":1.0}],"edges":[]},"system":{"processors":{"kind":"homogeneous","count":1},"network":{"topology":"fully_connected","bandwidth":1.0}},"algorithm":"HEFT","options":{"deadline_ms":0}}"#;
        for expected_sheds in 1..=2 {
            let started = Instant::now();
            let reply = router.handle_line(line, Instant::now());
            assert!(
                started.elapsed() < FOLLOWER_SLACK,
                "a zero-deadline request must be shed immediately, not waited out"
            );
            let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
            assert_eq!(v["status"].as_str(), Some("shed"), "{reply}");
            assert!(
                v["message"]
                    .as_str()
                    .unwrap()
                    .contains("expired before dispatch"),
                "{reply}"
            );
            assert_eq!(read(&router.metrics().sheds), expected_sheds);
        }
        assert_eq!(
            router.singleflight.len(),
            0,
            "a shed request must never register as a flight leader"
        );
        assert_eq!(read(&router.metrics().shard_errors), 0);
    }

    #[test]
    fn expired_patch_is_shed_not_errored() {
        let cfg = GatewayConfig {
            backends: vec!["127.0.0.1:1".to_string()],
            ..GatewayConfig::default()
        };
        let router = Router::new(cfg).unwrap();
        let line = r#"{"op":"patch","parent":"0123456789abcdef","algorithm":"HEFT","deltas":[],"options":{"deadline_ms":0}}"#;
        let reply = router.handle_line(line, Instant::now());
        let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v["status"].as_str(), Some("shed"), "{reply}");
        assert_eq!(read(&router.metrics().sheds), 1);
    }

    #[test]
    fn patch_with_malformed_parent_is_answered_at_the_gateway() {
        let cfg = GatewayConfig {
            backends: vec!["127.0.0.1:1".to_string()],
            ..GatewayConfig::default()
        };
        let router = Router::new(cfg).unwrap();
        for parent in ["nope", "abc", "0123456789abcdef0"] {
            let line =
                format!(r#"{{"op":"patch","parent":"{parent}","algorithm":"HEFT","deltas":[]}}"#);
            let reply = router.handle_line(&line, Instant::now());
            let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
            assert_eq!(v["status"].as_str(), Some("error"), "{reply}");
            assert!(
                v["message"].as_str().unwrap().starts_with("unknown_parent"),
                "{reply}"
            );
        }
        assert_eq!(
            read(&router.metrics().shard_errors),
            0,
            "malformed parents must never touch a shard"
        );
    }

    #[test]
    fn patch_key_never_coalesces_with_the_parents_schedule_key() {
        let (content, req) = small_parts();
        let base = RequestOptions::default();
        let parent_fp = content.finish();
        let schedule_key = dedup_key(&req, content, &["HEFT".to_string()], &base);
        // Even a delta-free patch of the same problem under the same
        // algorithm must be its own flight.
        let patch_key = patch_dedup_key(parent_fp, "HEFT", &[], &base);
        assert_ne!(patch_key, schedule_key);
        // Different deltas split patches from each other; identical
        // patches coalesce.
        let d1 = vec![Delta::TaskWeight {
            task: hetsched_dag::TaskId(0),
            weight: 2.0,
        }];
        let k1 = patch_dedup_key(parent_fp, "HEFT", &d1, &base);
        assert_ne!(k1, patch_key);
        assert_eq!(k1, patch_dedup_key(parent_fp, "HEFT", &d1.clone(), &base));
        // Deadline and jobs still never split flights.
        let with_deadline = RequestOptions {
            deadline_ms: Some(10),
            jobs: Some(8),
            ..base.clone()
        };
        assert_eq!(k1, patch_dedup_key(parent_fp, "HEFT", &d1, &with_deadline));
    }

    #[test]
    fn many_dedup_key_is_order_sensitive_and_ignores_deadline() {
        let base = RequestOptions::default();
        let fps = [11u64, 22, 33];
        let k = many_dedup_key(&fps, "HEFT", &base);
        assert_eq!(k, many_dedup_key(&[11, 22, 33], "HEFT", &base));
        assert_ne!(
            k,
            many_dedup_key(&[22, 11, 33], "HEFT", &base),
            "the reply is ordered, so a permuted batch is a different request"
        );
        assert_ne!(k, many_dedup_key(&fps, "CPOP", &base));
        let with_deadline = RequestOptions {
            deadline_ms: Some(10),
            jobs: Some(8),
            ..base.clone()
        };
        assert_eq!(k, many_dedup_key(&fps, "HEFT", &with_deadline));
        // a one-instance batch never coalesces with the standalone op
        let (content, req) = small_parts();
        let one = many_dedup_key(&[content.finish()], "HEFT", &base);
        let single = dedup_key(&req, content, &["HEFT".to_string()], &base);
        assert_ne!(single, one);
    }

    #[test]
    fn forward_line_rewrites_schedule_many_deadline() {
        let line = r#"{"op":"schedule_many","instances":[{"dag":{"tasks":[{"weight":1.0}],"edges":[]},"system":{"processors":{"kind":"homogeneous","count":2},"network":{"topology":"fully_connected","bandwidth":1.0}}}],"algorithm":"HEFT","options":{"jobs":2}}"#;
        let req = Request::parse(line).unwrap();
        let out = forward_line(&req, Duration::from_millis(321), 0);
        let back = Request::parse(&out).unwrap();
        let Request::ScheduleMany {
            instances, options, ..
        } = back
        else {
            panic!("op changed");
        };
        assert_eq!(instances.len(), 1);
        assert_eq!(options.deadline_ms, Some(321));
        assert_eq!(options.jobs, Some(2), "other options must survive");
    }

    /// Request lines shaped like the `tests/wire_path.rs` grid (every
    /// scheduling op, with and without a deadline) plus empty, absent and
    /// other-member `options`.
    fn splice_grid() -> Vec<String> {
        let dag = |n: usize| {
            let tasks: Vec<String> = (0..n)
                .map(|i| format!("{{\"weight\":{}}}", i + 1))
                .collect();
            let edges: Vec<String> = (1..n)
                .map(|i| format!("{{\"src\":0,\"dst\":{i},\"data\":2.0}}"))
                .collect();
            format!(
                "{{\"tasks\":[{}],\"edges\":[{}]}}",
                tasks.join(","),
                edges.join(",")
            )
        };
        let system = r#"{"processors":{"kind":"homogeneous","count":3},"network":{"topology":"fully_connected","bandwidth":1.0}}"#;
        let mut lines = Vec::new();
        for options in [
            r#","options":{"deadline_ms":10000}"#,
            r#","options":{"jobs":2,"deadline_ms":7}"#,
            r#","options":{"deadline_ms":0,"simulate":true}"#,
            r#","options":{"simulate":true,"jobs":3}"#,
            r#","options":{}"#,
            "",
        ] {
            lines.push(format!(
                r#"{{"op":"schedule","dag":{},"system":{system},"algorithm":"HEFT"{options}}}"#,
                dag(8)
            ));
            lines.push(format!(
                r#"{{"op":"portfolio","dag":{},"system":{system},"algorithms":["HEFT","CPOP"]{options}}}"#,
                dag(6)
            ));
            lines.push(format!(
                r#"{{"op":"schedule_many","instances":[{{"dag":{},"system":{system}}},{{"dag":{},"system":{system}}}],"algorithm":"HEFT"{options}}}"#,
                dag(4),
                dag(5)
            ));
            lines.push(format!(
                r#"{{"op":"patch","parent":"0123456789abcdef","algorithm":"HEFT","deltas":[{{"kind":"etc_entry","task":1,"proc":0,"time":3.5}}]{options}}}"#
            ));
        }
        lines
    }

    #[test]
    fn spliced_lines_parse_to_the_forwarded_request() {
        for line in splice_grid() {
            let scan = wire::scan(line.as_bytes()).unwrap_or_else(|| panic!("scans: {line}"));
            let req = Request::parse(&line).unwrap();
            for ms in [1, 321, 86_400_000] {
                let remaining = Duration::from_millis(ms);
                let spliced = splice_deadline(&line, &scan, remaining);
                let via_splice = Request::parse(&spliced)
                    .unwrap_or_else(|e| panic!("spliced line `{spliced}` does not parse: {e}"));
                let via_serde = Request::parse(&forward_line(&req, remaining, 0)).unwrap();
                assert_eq!(
                    serde_json::to_string(&via_splice).unwrap(),
                    serde_json::to_string(&via_serde).unwrap(),
                    "{line}"
                );
                // the scanner takes the spliced line too
                let rescan = wire::scan(spliced.as_bytes()).expect("spliced line scans");
                assert_eq!(rescan.deadline_ms, Some(ms));
                if scan.options_body.is_some() {
                    // an appended `options` object is part of the digest;
                    // a rewritten or inserted deadline is not
                    assert_eq!(rescan.digest, scan.digest, "only the deadline changed");
                }
            }
        }
    }

    #[test]
    fn schedule_many_with_invalid_instance_is_answered_at_the_gateway() {
        let cfg = GatewayConfig {
            backends: vec!["127.0.0.1:1".to_string()],
            ..GatewayConfig::default()
        };
        let router = Router::new(cfg).unwrap();
        for (line, needle) in [
            (
                r#"{"op":"schedule_many","instances":[],"algorithm":"HEFT"}"#.to_string(),
                "at least one instance",
            ),
            (
                r#"{"op":"schedule_many","instances":[{"dag":{"tasks":[],"edges":[]},"system":{"processors":{"kind":"homogeneous","count":1},"network":{"topology":"fully_connected","bandwidth":1.0}}}],"algorithm":"HEFT"}"#.to_string(),
                "invalid dag (instance 0)",
            ),
        ] {
            let reply = router.handle_line(&line, Instant::now());
            let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
            assert_eq!(v["status"].as_str(), Some("error"), "{reply}");
            assert!(
                v["message"].as_str().unwrap().contains(needle),
                "{reply}"
            );
        }
        assert_eq!(
            read(&router.metrics().shard_errors),
            0,
            "invalid batches must never touch a shard"
        );
    }

    #[test]
    fn parse_parent_requires_exactly_16_hex_digits() {
        assert_eq!(parse_parent("0123456789abcdef"), Some(0x0123456789abcdef));
        assert_eq!(parse_parent("ffffffffffffffff"), Some(u64::MAX));
        assert_eq!(parse_parent("0123456789abcde"), None, "15 digits");
        assert_eq!(parse_parent("0123456789abcdef0"), None, "17 digits");
        assert_eq!(parse_parent("0123456789abcdeg"), None, "not hex");
        assert_eq!(parse_parent(""), None);
        assert_eq!(parse_parent("+123456789abcdef"), None, "no sign prefix");
    }

    #[test]
    fn forward_line_appends_gateway_hop_for_traced_requests() {
        let line = r#"{"op":"schedule","dag":{"tasks":[{"weight":1.0}],"edges":[]},"system":{"processors":{"kind":"homogeneous","count":1},"network":{"topology":"fully_connected","bandwidth":1.0}},"algorithm":"HEFT","options":{"deadline_ms":500,"trace_ctx":{"trace_id":"00000000deadbeef"}}}"#;
        let req = Request::parse(line).unwrap();
        let out = forward_line(&req, Duration::from_millis(250), 42);
        let back = Request::parse(&out).unwrap();
        let Request::Schedule { options, .. } = back else {
            panic!("op changed");
        };
        let ctx = options.trace_ctx.expect("trace context must survive");
        assert_eq!(ctx.trace_id, "00000000deadbeef");
        assert_eq!(ctx.hops.len(), 1, "one gateway hop appended");
        assert_eq!(ctx.hops[0].tier, "gateway");
        assert_eq!(ctx.hops[0].sent_at_us, 42);

        // Untraced requests stay hop-free (and byte-stable).
        let (_, plain) = small_parts();
        let out = forward_line(&plain, Duration::from_millis(250), 42);
        assert!(!out.contains("trace_ctx"), "{out}");
    }

    #[test]
    fn status_of_line_classifies_reply_prefixes() {
        assert_eq!(
            status_of_line(r#"{"status":"ok","algorithm":"HEFT"}"#),
            Some(RequestStatus::Success)
        );
        assert_eq!(
            status_of_line(&Response::shed("x").to_line()),
            Some(RequestStatus::Shed)
        );
        assert_eq!(
            status_of_line(
                &Response::Timeout {
                    message: "m".to_string()
                }
                .to_line()
            ),
            Some(RequestStatus::Timeout)
        );
        assert_eq!(
            status_of_line(&Response::error("x").to_line()),
            Some(RequestStatus::Error)
        );
        assert_eq!(status_of_line(&Response::ShuttingDown.to_line()), None);
        assert_eq!(status_of_line("not json"), None);
    }

    #[test]
    fn traced_requests_journal_spans_and_account_outcomes_even_on_failure() {
        let cfg = GatewayConfig {
            backends: vec!["127.0.0.1:1".to_string()],
            connect_timeout_ms: 100,
            ..GatewayConfig::default()
        };
        let router = Router::new(cfg).unwrap();
        let line = r#"{"op":"schedule","dag":{"tasks":[{"weight":1.0}],"edges":[]},"system":{"processors":{"kind":"homogeneous","count":1},"network":{"topology":"fully_connected","bandwidth":1.0}},"algorithm":"HEFT","options":{"deadline_ms":2000,"trace_ctx":{"trace_id":"feedfacecafebeef"}}}"#;
        let reply = router.handle_line(line, Instant::now());
        let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v["status"].as_str(), Some("error"), "{reply}");

        // The failed request is an SLO outcome, not a lost sample.
        let m = router.metrics();
        assert_eq!(m.latency.get(RequestStatus::Error).count(), 1);
        assert_eq!(m.latency.get(RequestStatus::Success).count(), 0);
        assert_eq!(m.op_outcomes.get("schedule", RequestStatus::Error), 1);

        // Its spans are journaled: admission, the failed backend attempt,
        // and the root request span that covers both.
        let jline = router.handle_line(r#"{"op":"journal"}"#, Instant::now());
        let jv: serde_json::Value = serde_json::from_str(&jline).unwrap();
        assert_eq!(jv["status"].as_str(), Some("ok"), "{jline}");
        assert_eq!(jv["journal"]["source"].as_str(), Some("gateway"));
        let spans = jv["journal"]["spans"].as_array().unwrap();
        let names: Vec<&str> = spans.iter().map(|s| s["name"].as_str().unwrap()).collect();
        for expect in ["admission", "backend", "request"] {
            assert!(names.contains(&expect), "missing `{expect}` in {names:?}");
        }
        let root = spans
            .iter()
            .find(|s| s["name"] == "request")
            .expect("root span");
        assert_eq!(root["start_us"].as_u64(), Some(0));
        assert_eq!(root["detail"].as_str(), Some("leader"));
        let root_end = root["dur_us"].as_u64().unwrap();
        for s in spans {
            assert_eq!(s["trace_id"].as_str(), Some("feedfacecafebeef"));
            let end = s["start_us"].as_u64().unwrap() + s["dur_us"].as_u64().unwrap();
            assert!(end <= root_end + 1, "span escapes the root: {s:?}");
        }

        // Drained means drained.
        let again = router.handle_line(r#"{"op":"journal"}"#, Instant::now());
        let jv: serde_json::Value = serde_json::from_str(&again).unwrap();
        assert_eq!(jv["journal"]["spans"].as_array().map(Vec::len), Some(0));
    }

    #[test]
    fn forward_line_rewrites_patch_deadline() {
        let line = r#"{"op":"patch","parent":"0123456789abcdef","algorithm":"HEFT","deltas":[{"kind":"task_weight","task":0,"weight":2.0}],"options":{"jobs":3}}"#;
        let req = Request::parse(line).unwrap();
        let out = forward_line(&req, Duration::from_millis(777), 0);
        let back = Request::parse(&out).unwrap();
        let Request::Patch {
            parent,
            deltas,
            options,
            ..
        } = back
        else {
            panic!("op changed");
        };
        assert_eq!(parent, "0123456789abcdef");
        assert_eq!(deltas.len(), 1);
        assert_eq!(options.deadline_ms, Some(777));
        assert_eq!(options.jobs, Some(3), "other options must survive");
    }
}
