//! `hetsched-serve` — a resident scheduling daemon.
//!
//! Turns the one-shot scheduling library into a long-lived service:
//! clients send newline-delimited JSON requests (`{"op": "schedule", dag,
//! system, algorithm, options}`) over TCP or stdin and get back the
//! schedule, its makespan/SLR/speedup, and optionally a zero-noise
//! simulator cross-check — without paying process start-up or re-parsing
//! costs per request.
//!
//! Module map:
//!
//! The crate is layered transport / routing / worker, so the scale-out
//! gateway (`hetsched-gateway`) can reuse the protocol and metrics pieces
//! while fronting many shard processes each running the full stack:
//!
//! | module        | layer     | contents |
//! |---------------|-----------|----------|
//! | [`protocol`]  | shared    | request/response types |
//! | [`transport`] | shared    | the NDJSON line codec and reply writer of both tiers; TCP accept loop with its connection cap, connection reaper, stdin runner |
//! | [`service`]   | routing   | validation, bounded queue admission, deadlines, memoization |
//! | `worker`      | worker    | the pool threads: scheduling, panic isolation |
//! | [`wire`]      | gateway   | raw-byte request scanner behind the gateway's hot-line reply cache |
//! | [`cache`]     | shared    | fingerprint-keyed LRU memoization cache |
//! | [`metrics`]   | shared    | atomic counters + streaming latency histogram |
//! | [`journal`]   | shared    | bounded span journal + fleet Chrome-trace merger |
//!
//! Guarantees the service makes:
//!
//! - **Backpressure, not collapse** — the request queue is bounded; a full
//!   queue answers `busy` immediately.
//! - **Deadlines** — each request waits at most `deadline_ms`; a late
//!   schedule still finishes and lands in the cache for retries.
//! - **Panic isolation** — a panicking scheduler yields an `error`
//!   response for that request only; the daemon keeps serving.
//! - **Deterministic memoization** — responses are keyed by a content
//!   fingerprint of (DAG + system + algorithm + options), so identical
//!   requests get byte-identical schedules, whether computed or cached.
//! - **Graceful shutdown** — `{"op": "shutdown"}` drains in-flight
//!   requests (replies included) before the daemon exits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod service;
pub mod transport;
pub mod wire;
mod worker;

pub use journal::{merge_chrome_trace, Journal};
pub use protocol::{
    GatewayTiming, HelloBody, Hop, JournalBody, PortfolioBody, PortfolioEntryBody, Request,
    RequestOptions, Response, ScheduleBody, ServeTiming, SimBody, SpanRecord, StatsBody,
    TimingBody, TraceCtx,
};
pub use service::{request_fingerprint, ServeConfig, Service};
pub use transport::{serve_lines, TcpServer};
