//! # hetsched-core
//!
//! The list-scheduling core of `hetsched`: schedule representation with
//! insertion-based gap search, rank functions with pluggable cost
//! aggregation, the earliest-finish-time machinery (duplication-aware), a
//! set of classic baseline schedulers, and the improved **ILS** scheduler
//! family this repository proposes.
//!
//! ## Scheduling model
//!
//! A [`Schedule`] assigns every task of a [`hetsched_dag::Dag`] to a
//! processor of a [`hetsched_platform::System`] with a start time, such
//! that
//!
//! * a processor executes at most one task at a time, and
//! * a task starts only after all messages from its predecessors arrive
//!   (co-located predecessors communicate for free).
//!
//! Task *duplication* is supported: a task may have extra copies on other
//! processors so its consumers can read a local result instead of waiting
//! for a message. [`validate::validate`] checks all of this independently
//! of any scheduler.
//!
//! ## Algorithms
//!
//! | Scheduler | Kind | Reference |
//! |-----------|------|-----------|
//! | [`algorithms::Heft`] | list, mean-rank, insertion EFT | Topcuoglu et al. 2002 |
//! | [`algorithms::Cpop`] | critical-path-on-a-processor | Topcuoglu et al. 2002 |
//! | [`algorithms::Dls`]  | dynamic-level pair selection | Sih & Lee 1993 |
//! | [`algorithms::Mcp`]  | ALAP list (homogeneous classic) | Wu & Gajski 1990 |
//! | [`algorithms::Hcpt`] | critical-parent trees | Hagras & Janeček 2003 |
//! | [`algorithms::MinMin`] | batch-mode min-min | Ibarra & Kim 1977 lineage |
//! | [`algorithms::DupHeft`] | HEFT + DSH/BTDH-style duplication | Kruatrachue & Lewis; Chung & Ranka |
//! | [`algorithms::IlsH`], [`algorithms::IlsD`], [`algorithms::IlsM`] | **proposed** improved list scheduling | this repository (reconstruction, see DESIGN.md) |
//!
//! Every scheduler implements the [`Scheduler`] trait, so experiment
//! harnesses treat them uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod compact;
pub mod cost;
pub mod delta;
pub mod eft;
pub mod engine;
pub mod instance;
pub mod par;
pub mod portfolio;
pub mod rank;
pub mod repair;
pub mod schedule;
pub mod validate;

pub use cost::CostAggregation;
pub use delta::{Delta, DeltaError, DirtyInfo, Patched};
pub use engine::{with_reference_engine, EftContext};
pub use instance::ProblemInstance;
pub use portfolio::{run_portfolio, PortfolioEntry, PortfolioResult};
pub use repair::{repairable, RepairScheduler, RepairStats};
pub use schedule::{Schedule, Slot};
pub use validate::{validate, ValidationError};

use hetsched_dag::Dag;
use hetsched_platform::{ProcId, System};

/// A static scheduling algorithm: maps a task graph and a target system to
/// a complete [`Schedule`].
///
/// Algorithms implement [`Scheduler::schedule_instance`] against the
/// shared [`ProblemInstance`] IR; the [`Scheduler::schedule`] convenience
/// method keeps the original `(dag, sys)` call shape by building a
/// transient instance. Both paths produce bit-identical schedules — the
/// instance only memoizes values the algorithms would otherwise compute
/// themselves, in the same fold order.
pub trait Scheduler {
    /// Short stable name used in reports and benchmarks (e.g. `"HEFT"`).
    fn name(&self) -> &'static str;

    /// Produce a complete schedule of the instance's DAG on its system.
    ///
    /// Implementations must return a schedule that passes
    /// [`validate::validate`]; this is enforced for every algorithm in the
    /// test suite.
    fn schedule_instance(&self, inst: &ProblemInstance) -> Schedule;

    /// Produce a complete schedule of `dag` on `sys` via a transient
    /// [`ProblemInstance`].
    fn schedule(&self, dag: &Dag, sys: &System) -> Schedule {
        self.schedule_instance(&ProblemInstance::from_refs(dag, sys))
    }
}

impl<S: Scheduler + ?Sized> Scheduler for &S {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn schedule_instance(&self, inst: &ProblemInstance) -> Schedule {
        (**self).schedule_instance(inst)
    }
    fn schedule(&self, dag: &Dag, sys: &System) -> Schedule {
        (**self).schedule(dag, sys)
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn schedule_instance(&self, inst: &ProblemInstance) -> Schedule {
        (**self).schedule_instance(inst)
    }
    fn schedule(&self, dag: &Dag, sys: &System) -> Schedule {
        (**self).schedule(dag, sys)
    }
}

/// Schedule `dag` on `sys` with `alg` under a [`hetsched_trace`] capture,
/// returning the schedule together with everything recorded.
///
/// On top of the events the instrumented engine emits while the algorithm
/// runs (task selections, EFT decisions — speculative evaluations by
/// lookahead/duplication/search schedulers included), this appends the
/// **placement decision log**: one [`hetsched_trace::Event::Placed`]
/// record per slot of the *final* schedule, in start-time order. Deriving
/// placements from the returned schedule rather than from `insert` calls
/// keeps the log exact for every algorithm — trial schedules that search
/// schedulers build and discard never pollute it — so the number of
/// primary placement events always equals the number of scheduled tasks.
///
/// Tracing never perturbs scheduling: instrumentation only reads state,
/// and the schedule returned here is bit-identical to
/// `alg.schedule(dag, sys)` without a capture (enforced by property tests
/// across the whole algorithm registry).
pub fn traced_schedule<S: Scheduler + ?Sized>(
    alg: &S,
    dag: &Dag,
    sys: &System,
) -> (Schedule, hetsched_trace::Trace) {
    let (sched, mut trace) = hetsched_trace::capture(|| alg.schedule(dag, sys));
    append_placements(&sched, &mut trace);
    (sched, trace)
}

/// Like [`traced_schedule`], but scheduling an existing
/// [`ProblemInstance`] — the serve daemon's traced path, where the
/// instance comes from the shared cache.
pub fn traced_schedule_instance<S: Scheduler + ?Sized>(
    alg: &S,
    inst: &ProblemInstance,
) -> (Schedule, hetsched_trace::Trace) {
    let (sched, mut trace) = hetsched_trace::capture(|| alg.schedule_instance(inst));
    append_placements(&sched, &mut trace);
    (sched, trace)
}

/// Synthesize the post-run placement log (see [`traced_schedule`]).
fn append_placements(sched: &Schedule, trace: &mut hetsched_trace::Trace) {
    let mut slots: Vec<(f64, u32, Slot)> = Vec::new();
    for pi in 0..sched.num_procs() {
        for s in sched.slots(ProcId(pi as u32)) {
            slots.push((s.start, pi as u32, s));
        }
    }
    slots.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.2.task.cmp(&b.2.task))
    });
    trace
        .events
        .extend(slots.into_iter().enumerate().map(|(step, (_, proc, s))| {
            hetsched_trace::Event::Placed {
                step: step as u64,
                task: s.task.index() as u32,
                proc,
                start: s.start,
                finish: s.finish,
                duplicate: s.duplicate,
            }
        }));
}

#[cfg(test)]
mod proptests;
