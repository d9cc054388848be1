//! `hetsched-gateway` — a scale-out front door for the resident
//! scheduling daemon.
//!
//! One gateway process fronts N `hetsched-serve` shard processes and
//! speaks the same NDJSON protocol to clients, adding three things the
//! shards cannot provide on their own:
//!
//! - **Fingerprint routing.** Every `schedule`/`portfolio` request is
//!   routed to the shard chosen by the (DAG, system) content fingerprint,
//!   so repeat traffic for one problem always lands where that problem's
//!   `ProblemInstance` cache and reply memo already live. A down shard is
//!   failed over to the next healthy one (affinity degrades, correctness
//!   does not).
//! - **Single-flight dedup.** Identical requests that arrive while a
//!   matching one is already in flight do not reach a shard at all: they
//!   wait for the leader's reply and receive it byte-for-byte.
//! - **Admission control.** Beyond the shards' own `busy` backpressure,
//!   the gateway enforces a per-shard inflight budget, sheds when a
//!   connection's pending queue exceeds its depth bound, and propagates
//!   per-request deadlines — a request whose deadline has already passed
//!   is shed before it can occupy a shard slot. Shed requests get a
//!   distinct `shed` status, never an unbounded queue.
//!
//! | module         | contents |
//! |----------------|----------|
//! | [`backend`]    | shard connection pool, `hello` handshake, health state |
//! | [`singleflight`] | in-flight request coalescing table |
//! | [`router`]     | parse → fingerprint → admit → forward → reply |
//! | [`frontdoor`]  | non-blocking accept/readiness loop, worker dispatch |
//! | [`metrics`]    | gateway counters, latency histogram, Prometheus text |
//! | [`shards`]     | in-process shard set (for `serve --shards N` and tests) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod frontdoor;
pub mod metrics;
pub mod router;
pub mod shards;
pub mod singleflight;

pub use frontdoor::GatewayServer;
pub use router::Router;
pub use shards::LocalShards;

/// Gateway configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Backend shard addresses (`host:port`), in shard-index order. The
    /// content-fingerprint routing is `fingerprint % backends.len()`, so
    /// the order must be identical across gateway restarts for affinity
    /// to persist.
    pub backends: Vec<String>,
    /// Maximum requests in flight per shard; the budget admission bound.
    /// A request whose home shard is at its budget is shed, not queued.
    pub inflight_per_shard: usize,
    /// Bounded router queue capacity (requests accepted but not yet
    /// dispatched to a shard, across all connections).
    pub queue_capacity: usize,
    /// Maximum complete lines buffered per client connection; lines over
    /// this depth are shed immediately (in reply order).
    pub max_pending_per_conn: usize,
    /// Router worker threads forwarding requests to shards.
    pub router_threads: usize,
    /// Deadline applied when a request carries no `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Timeout for connecting to (and handshaking with) a shard.
    pub connect_timeout_ms: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            backends: Vec::new(),
            inflight_per_shard: 16,
            queue_capacity: 64,
            max_pending_per_conn: 32,
            router_threads: 8,
            default_deadline_ms: 30_000,
            connect_timeout_ms: 1_000,
        }
    }
}
