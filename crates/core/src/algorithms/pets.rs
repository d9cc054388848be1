//! PETS — Performance Effective Task Scheduling (Ilavarasan &
//! Thambidurai, 2007; contemporaneous with the reproduced paper).
//!
//! A level-sorted list scheduler: tasks are grouped by ASAP level, and
//! within each level ordered by decreasing *rank*
//!
//! ```text
//! rank(t) = round( ACC(t) + DTC(t) + RPT(t) )
//! ACC = average computation cost over processors
//! DTC = total outgoing data (transfer cost to all children)
//! RPT = highest rank among t's predecessors
//! ```
//!
//! Placement is insertion-based EFT, as in HEFT. PETS's selling point was
//! HEFT-comparable schedules at lower prioritization cost.

use hetsched_dag::TaskId;

use crate::cost::CostAggregation;
use crate::engine::EftContext;
use crate::instance::ProblemInstance;
use crate::schedule::Schedule;
use crate::Scheduler;

/// PETS scheduler.
#[derive(Debug, Clone, Copy)]
pub struct Pets {
    /// Aggregation used for the ACC term (mean in the original).
    pub agg: CostAggregation,
}

impl Pets {
    /// PETS with mean computation costs (the published formulation).
    pub fn new() -> Self {
        Pets {
            agg: CostAggregation::Mean,
        }
    }
}

impl Default for Pets {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for Pets {
    fn name(&self) -> &'static str {
        "PETS"
    }

    fn schedule_instance(&self, inst: &ProblemInstance) -> Schedule {
        let (dag, sys) = (inst.dag(), inst.sys());
        let rank = inst.pets_rank(self.agg);
        let levels = hetsched_dag::topo::asap_levels(dag);

        // order: by level ascending, then rank descending, then id
        let mut order: Vec<TaskId> = dag.task_ids().collect();
        order.sort_by(|&a, &b| {
            levels[a.index()]
                .cmp(&levels[b.index()])
                .then_with(|| rank[b.index()].total_cmp(&rank[a.index()]))
                .then_with(|| a.cmp(&b))
        });

        let mut sched = Schedule::new(dag.num_tasks(), sys.num_procs());
        let mut ctx = EftContext::new(sys);
        for t in order {
            let (p, start, finish) = ctx.best_eft(inst, &sched, t, true);
            sched
                .insert(t, p, start, finish - start)
                .expect("EFT placement is conflict-free");
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use hetsched_dag::builder::dag_from_edges;
    use hetsched_dag::Dag;
    use hetsched_platform::System;

    fn setup() -> (Dag, System) {
        let dag = dag_from_edges(
            &[2.0, 3.0, 1.0, 4.0],
            &[(0, 1, 6.0), (0, 2, 2.0), (1, 3, 4.0), (2, 3, 4.0)],
        )
        .unwrap();
        let sys = System::homogeneous_unit(&dag, 2);
        (dag, sys)
    }

    #[test]
    fn rank_accumulates_acc_dtc_rpt() {
        let (dag, sys) = setup();
        let r = ProblemInstance::from_refs(&dag, &sys).pets_rank(CostAggregation::Mean);
        // t0: acc 2 + dtc (6 + 2) = 10, rpt 0 -> 10
        assert_eq!(r[0], 10.0);
        // t1: acc 3 + dtc 4 + rpt 10 -> 17
        assert_eq!(r[1], 17.0);
        // t2: acc 1 + dtc 4 + rpt 10 -> 15
        assert_eq!(r[2], 15.0);
        // t3: acc 4 + dtc 0 + rpt 17 -> 21
        assert_eq!(r[3], 21.0);
    }

    #[test]
    fn level_order_is_topological_and_schedule_valid() {
        let (dag, sys) = setup();
        let s = Pets::new().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
        assert!(s.is_complete());
    }

    #[test]
    fn within_level_higher_rank_first() {
        let (dag, sys) = setup();
        // both t1 and t2 are level 1; t1 has higher rank -> scheduled first
        let s = Pets::new().schedule(&dag, &sys);
        let (_, s1, _) = s.assignment(hetsched_dag::TaskId(1)).unwrap();
        let (_, s2, _) = s.assignment(hetsched_dag::TaskId(2)).unwrap();
        // both start after t0; t1 gets the better (same-proc) slot
        assert!(s1 <= s2 + 1e-9, "t1 {s1} vs t2 {s2}");
    }
}
