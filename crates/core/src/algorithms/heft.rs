//! HEFT — Heterogeneous Earliest Finish Time (Topcuoglu, Hariri, Wu; IEEE
//! TPDS 2002). The reference list scheduler of the field and the primary
//! baseline of every experiment in this repository.

use crate::cost::CostAggregation;
use crate::engine::EftContext;
use crate::instance::ProblemInstance;
use crate::rank::sort_by_priority_desc;
use crate::schedule::Schedule;
use crate::Scheduler;

/// HEFT: tasks ordered by non-increasing upward rank (mean execution and
/// mean communication costs), each placed on the processor minimizing its
/// earliest finish time with insertion-based gap search.
#[derive(Debug, Clone, Copy)]
pub struct Heft {
    name: &'static str,
    /// Gap-insertion policy (true = classic HEFT; false = append-only).
    pub insertion: bool,
    /// Cost aggregation used for ranking (HEFT's original is `Mean`).
    pub agg: CostAggregation,
}

impl Heft {
    /// Classic HEFT: mean-cost ranks, insertion-based EFT.
    pub fn new() -> Self {
        Heft {
            name: "HEFT",
            insertion: true,
            agg: CostAggregation::Mean,
        }
    }

    /// HEFT without the insertion policy (append-only placement); the
    /// ablation showing what gap search contributes.
    pub fn no_insertion() -> Self {
        Heft {
            name: "HEFT-NI",
            insertion: false,
            agg: CostAggregation::Mean,
        }
    }

    /// HEFT with a non-default rank aggregation (for ablation studies).
    pub fn with_aggregation(agg: CostAggregation) -> Self {
        Heft {
            name: "HEFT-AGG",
            insertion: true,
            agg,
        }
    }

    /// The EFT placement loop from rank-order position `from` onward,
    /// shared between [`Scheduler::schedule_instance`] (which runs it from
    /// position 0 on an empty schedule) and [`Heft::repair`] (which replays
    /// the parent's leading placements and runs it from the first touched
    /// position). Both callers therefore execute the identical placement
    /// code over identical schedule state — the repair bit-identity
    /// argument needs exactly that.
    pub(crate) fn run_eft_loop(
        &self,
        inst: &ProblemInstance,
        rank: &[f64],
        order: &[hetsched_dag::TaskId],
        from: usize,
        sched: &mut Schedule,
    ) {
        let mut ctx = EftContext::new(inst.sys());
        let _span = hetsched_trace::span("eft_loop");
        for (step, &t) in order.iter().enumerate().skip(from) {
            hetsched_trace::emit(|| hetsched_trace::Event::TaskSelected {
                step: step as u64,
                task: t.index() as u32,
                priority: rank[t.index()],
            });
            let (p, start, finish) = ctx.best_eft(inst, sched, t, self.insertion);
            sched
                .insert(t, p, start, finish - start)
                .expect("EFT placement is conflict-free by construction");
        }
    }
}

impl Default for Heft {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for Heft {
    fn name(&self) -> &'static str {
        self.name
    }

    fn schedule_instance(&self, inst: &ProblemInstance) -> Schedule {
        let (dag, sys) = (inst.dag(), inst.sys());
        let rank = {
            let _span = hetsched_trace::span("rank");
            inst.upward_rank(self.agg)
        };
        let order = sort_by_priority_desc(&rank);
        let mut sched = Schedule::new(dag.num_tasks(), sys.num_procs());
        self.run_eft_loop(inst, &rank, &order, 0, &mut sched);
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use hetsched_dag::builder::dag_from_edges;
    use hetsched_dag::TaskId;
    use hetsched_platform::{EtcMatrix, Network, ProcId};

    /// The worked example every HEFT description uses a variant of: a fork
    /// out of one entry into two branches joining at an exit.
    fn fork_join() -> (Dag, System) {
        let dag = dag_from_edges(
            &[2.0, 3.0, 3.0, 2.0],
            &[(0, 1, 4.0), (0, 2, 4.0), (1, 3, 4.0), (2, 3, 4.0)],
        )
        .unwrap();
        let sys = System::homogeneous_unit(&dag, 2);
        (dag, sys)
    }
    use hetsched_dag::Dag;
    use hetsched_platform::System;

    #[test]
    fn schedules_fork_join_validly() {
        let (dag, sys) = fork_join();
        let s = Heft::new().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
        assert!(s.is_complete());
        // one branch local, one remote: entry 2, branch 3, join 2
        // all-local schedule: 2 + 3 + 3 + 2 = 10; HEFT must not be worse
        assert!(s.makespan() <= 10.0 + 1e-9, "makespan {}", s.makespan());
    }

    #[test]
    fn heterogeneous_exploits_fast_processor() {
        // single chain where p1 is 10x faster; no comm
        let dag = dag_from_edges(&[10.0, 10.0], &[(0, 1, 0.0)]).unwrap();
        let etc = EtcMatrix::from_fn(2, 2, |_, p| if p.index() == 1 { 1.0 } else { 10.0 });
        let sys = System::new(etc, Network::unit(2));
        let s = Heft::new().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
        assert_eq!(s.task_proc(TaskId(0)), Some(ProcId(1)));
        assert_eq!(s.task_proc(TaskId(1)), Some(ProcId(1)));
        assert_eq!(s.makespan(), 2.0);
    }

    #[test]
    fn insertion_never_hurts_on_example() {
        let (dag, sys) = fork_join();
        let ins = Heft::new().schedule(&dag, &sys).makespan();
        let app = Heft::no_insertion().schedule(&dag, &sys).makespan();
        assert!(ins <= app + 1e-9, "insertion {ins} vs append {app}");
    }

    #[test]
    fn single_processor_is_serial_in_rank_order() {
        let (dag, sys1) = fork_join();
        let sys = System::homogeneous_unit(&dag, 1);
        let s = Heft::new().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
        // serial: sum of weights
        assert_eq!(s.makespan(), dag.total_weight());
        let _ = sys1;
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Heft::new().name(), "HEFT");
        assert_eq!(Heft::no_insertion().name(), "HEFT-NI");
        assert_eq!(
            Heft::with_aggregation(CostAggregation::Median).name(),
            "HEFT-AGG"
        );
    }
}
