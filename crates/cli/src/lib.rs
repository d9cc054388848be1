//! # hetsched-cli
//!
//! Library backing the `hetsched-cli` binary: flag parsing and the
//! command implementations (kept in a library so they are unit-testable
//! without spawning processes).
//!
//! ```text
//! hetsched-cli generate --kind gauss --m 8 --ccr 1.0 --out dag.json
//! hetsched-cli schedule --dag dag.json --system sys.json --alg ILS-D \
//!                       --gantt gantt.svg --out sched.json
//! hetsched-cli validate --dag dag.json --system sys.json --schedule sched.json
//! hetsched-cli simulate --dag dag.json --system sys.json --schedule sched.json \
//!                       --exec-cv 0.3 --draws 50
//! hetsched-cli info --dag dag.json
//! hetsched-cli algorithms
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

/// Top-level CLI error: a message for the user plus a nonzero exit.
#[derive(Debug)]
pub struct CliError(pub String);

impl core::fmt::Display for CliError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError(s)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError(format!("JSON error: {e}"))
    }
}

/// Usage text shown by `--help` and on argument errors.
pub const USAGE: &str = "\
hetsched-cli — static task scheduling for heterogeneous/homogeneous systems

usage: hetsched-cli <command> [flags]

commands:
  generate    create a workload DAG and write it as JSON
              --kind <random|gauss|fft|laplace|cholesky|forkjoin|stencil|
                      irregular|out-tree|in-tree|divconq|sp>
              [--n N] [--m M] [--points P] [--grid G] [--tiles B]
              [--depth D] [--fanout F] [--sections S] [--width W]
              [--ccr X] [--alpha X] [--seed N] --out FILE
  schedule    schedule a DAG onto a system
              --dag FILE --system FILE --alg NAME
              [--out FILE] [--gantt FILE.svg] [--dot FILE.dot] [--quiet]
              [--jobs N]
  portfolio   run several algorithms in parallel over one shared problem
              instance; print the per-algorithm makespan table and keep
              the best schedule
              --dag FILE --system FILE [--algs A,B,C]
              [--out FILE] [--gantt FILE.svg] [--jobs N]
              (no --algs runs every registered algorithm)
  explain     trace a scheduling run: decision log, engine counters, and
              phase timings
              --dag FILE --system FILE --alg NAME
              [--format summary|ndjson|chrome-trace] [--out FILE] [--jobs N]
              --service --addr HOST:PORT [--out FILE]  (drain the span
               journals of a running gateway + its shards — or one plain
               shard — and merge them into one Chrome-trace timeline)
  validate    check a schedule against DAG + system
              --dag FILE --system FILE --schedule FILE
  simulate    replay a schedule in the discrete-event simulator
              --dag FILE --system FILE --schedule FILE
              [--exec-cv X] [--comm-spread X] [--draws N] [--seed N]
  info        print structural statistics of a DAG
              --dag FILE
  convert     convert between STG (.stg) and DagSpec JSON
              --from FILE --out FILE [--comm X]
  serve       run the resident scheduling daemon (NDJSON over TCP or stdin)
              [--addr HOST:PORT] [--stdin] [--workers N] [--queue N]
              [--cache N] [--instance-cache N] [--deadline-ms MS] [--jobs N]
              [--shards N]  (run N shard daemons behind an in-process
               gateway; clients talk to the gateway address)
  gateway     run the scale-out front door against running shard daemons:
              fingerprint routing, single-flight dedup, admission control
              --backends HOST:PORT,HOST:PORT [--addr HOST:PORT]
              [--inflight N] [--queue N] [--max-pending N] [--threads N]
              [--deadline-ms MS] [--connect-timeout-ms MS]
  request     send one request to a running daemon and print the reply
              --addr HOST:PORT
              [--op schedule|portfolio|patch|hello|stats|metrics|journal|
               shutdown]
              [--dag FILE --system FILE --alg NAME] [--algs A,B,C]
              [--parent HEX16 --deltas FILE|JSON]
              [--simulate] [--trace] [--deadline-ms MS] [--jobs N]
              [--timing] [--trace-id HEX16]
              (--op metrics prints the Prometheus text unwrapped;
               --op stats against a gateway prints an aligned per-shard
               table; --op journal drains the target's span journal;
               --op portfolio fans --algs out across the worker pool;
               --op patch reschedules a cached problem incrementally —
               --parent is the `problem` field of an earlier reply,
               --deltas a JSON array of problem deltas;
               --timing attaches a trace context so the reply carries a
               per-tier timing block, --trace-id pins the trace id)
  algorithms  list scheduler names usable with --alg

--jobs N sets the intra-algorithm search threads for GA and BNB
(schedules are bit-identical at any thread count). The HETSCHED_JOBS
environment variable is the fallback; the default is the machine's
available parallelism.";
