//! The trace data model: structured events, engine counters, and phase
//! spans, all plain serde-serializable values.
//!
//! Identifiers are raw integers rather than the `TaskId`/`ProcId` newtypes
//! so this crate stays a leaf below `hetsched-dag`/`hetsched-platform`
//! (everything in the workspace can depend on it without cycles).

use serde::{Deserialize, Serialize};

/// One EFT candidate evaluated for a task: the start/finish the task would
/// get on `proc` given its data-ready time there.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Processor index.
    pub proc: u32,
    /// Data-ready time of the task on `proc`.
    pub ready: f64,
    /// Earliest feasible start on `proc` (gap search applied).
    pub start: f64,
    /// Resulting finish time (`start` + execution time on `proc`).
    pub finish: f64,
}

/// A structured scheduler event.
///
/// Serialized internally tagged as `{"event": "...", ...}` so NDJSON
/// decision logs are self-describing line by line.
///
/// The first two variants are emitted *in decision order* from inside the
/// scheduling loops (including speculative evaluations made by lookahead /
/// duplication / search schedulers); [`Event::Placed`] records are
/// synthesized from the final schedule — exactly one per committed slot —
/// so their count always equals the number of scheduled task copies, no
/// matter how much speculation the algorithm performed along the way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum Event {
    /// A list scheduler picked the next task to place.
    TaskSelected {
        /// 0-based position in the scheduling order.
        step: u64,
        /// Task index.
        task: u32,
        /// Priority that ordered the task (e.g. its upward rank).
        priority: f64,
    },
    /// The EFT engine chose a processor for a task after evaluating every
    /// candidate.
    EftDecision {
        /// Task index.
        task: u32,
        /// Chosen processor index.
        proc: u32,
        /// Start time on the chosen processor.
        start: f64,
        /// Finish time on the chosen processor.
        finish: f64,
        /// Whether the chosen start falls before the processor's current
        /// timeline end — i.e. the insertion policy found a gap.
        gap_used: bool,
        /// Every candidate evaluated, in processor order.
        candidates: Vec<Candidate>,
    },
    /// A slot of the final schedule (synthesized post-run, in start-time
    /// order; exactly one per committed primary or duplicate copy).
    Placed {
        /// 0-based position in start-time order over all final slots.
        step: u64,
        /// Task index.
        task: u32,
        /// Processor index.
        proc: u32,
        /// Slot start time.
        start: f64,
        /// Slot finish time.
        finish: f64,
        /// Whether this slot is a duplicate copy.
        duplicate: bool,
    },
}

impl Event {
    /// Whether this is a [`Event::Placed`] record.
    pub fn is_placement(&self) -> bool {
        matches!(self, Event::Placed { .. })
    }
}

/// Monotonic counters over the engine internals of one capture.
///
/// Counters observe the optimised engine's control flow (they are bumped
/// from the hot paths only when tracing is enabled); the reference engine
/// bumps the query-level counters but not the path-split ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// `best_eft` queries answered (one per task placement decision).
    pub eft_best_queries: u64,
    /// `eft_candidates_into` queries answered.
    pub eft_candidate_queries: u64,
    /// Data-ready frontiers built (one covers all processors — frontier
    /// reuse means this stays far below `procs × placements`).
    pub drt_frontier_builds: u64,
    /// Predecessors folded through the single-copy fast path.
    pub drt_single_copy_preds: u64,
    /// Predecessors folded through the multi-copy (duplication) path.
    pub drt_multi_copy_preds: u64,
    /// Insertion queries answered in O(1) by the gap index: no gap in the
    /// timeline is wide enough, or every slot starts too early to end one.
    pub gap_fast_rejects: u64,
    /// Insertion queries answered by the indexed block-skip search.
    pub gap_cached_searches: u64,
    /// Insertion queries answered by the full reference scan
    /// (reference-engine mode).
    pub gap_full_scans: u64,
    /// Slots and block maxima the indexed searches read, summed over
    /// `gap_cached_searches` (the O(1) answers read none).
    #[serde(default)]
    pub gap_slots_visited: u64,
    /// Append-policy (non-insertion) queries.
    pub append_queries: u64,
    /// Slots committed into timelines (speculative trials included).
    pub timeline_inserts: u64,
    /// Rank vectors served from a `ProblemInstance` memo without
    /// recomputation (`ProblemInstance` lives in `hetsched-core`).
    #[serde(default)]
    pub rank_memo_hits: u64,
    /// Rank vectors computed and inserted into an instance memo.
    #[serde(default)]
    pub rank_memo_misses: u64,
}

/// One named wall-clock phase of a scheduling run (e.g. rank computation
/// vs the EFT loop), relative to the start of the capture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpan {
    /// Phase name (e.g. `"rank"`, `"eft_loop"`).
    pub name: String,
    /// Offset of the phase start from the capture start, nanoseconds.
    pub start_ns: u64,
    /// Phase duration, nanoseconds.
    pub dur_ns: u64,
}

/// Everything recorded by one [`crate::capture`] run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Structured events in emission order (placements last, synthesized).
    pub events: Vec<Event>,
    /// Engine counters.
    pub counters: Counters,
    /// Wall-clock phase spans, in completion order.
    pub phases: Vec<PhaseSpan>,
    /// Total wall time of the capture, nanoseconds.
    pub wall_ns: u64,
}

impl Trace {
    /// Number of [`Event::Placed`] records (committed slots).
    pub fn num_placements(&self) -> usize {
        self.events.iter().filter(|e| e.is_placement()).count()
    }

    /// Number of [`Event::Placed`] records that are primary (non-duplicate)
    /// copies — equals the number of scheduled tasks for a complete
    /// schedule.
    pub fn num_primary_placements(&self) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Placed {
                        duplicate: false,
                        ..
                    }
                )
            })
            .count()
    }
}
