//! CPOP — Critical Path on a Processor (Topcuoglu, Hariri, Wu; IEEE TPDS
//! 2002). Pins the whole (aggregated-cost) critical path to the single
//! processor that executes it fastest; everything else is EFT-placed.

use std::collections::BinaryHeap;

use hetsched_dag::TaskId;
use hetsched_platform::ProcId;

use crate::cost::CostAggregation;
use crate::eft::eft_on;
use crate::engine::EftContext;
use crate::instance::ProblemInstance;
use crate::rank::MeanComm;
use crate::schedule::Schedule;
use crate::Scheduler;

/// CPOP scheduler.
///
/// Priority of a task is `rank_u + rank_d`; ready tasks are processed
/// highest-priority-first. Critical-path tasks go to the dedicated
/// critical-path processor (the one minimizing the path's total execution
/// time); other tasks are placed by insertion-based EFT.
#[derive(Debug, Clone, Copy)]
pub struct Cpop {
    /// Rank aggregation policy (the original uses `Mean`).
    pub agg: CostAggregation,
}

impl Cpop {
    /// Classic CPOP with mean-cost ranks.
    pub fn new() -> Self {
        Cpop {
            agg: CostAggregation::Mean,
        }
    }
}

impl Default for Cpop {
    fn default() -> Self {
        Self::new()
    }
}

/// Max-heap entry ordered by priority then smaller task id.
#[derive(PartialEq)]
struct Entry {
    priority: f64,
    task: TaskId,
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .total_cmp(&other.priority)
            .then_with(|| other.task.cmp(&self.task))
    }
}

impl Scheduler for Cpop {
    fn name(&self) -> &'static str {
        "CPOP"
    }

    fn schedule_instance(&self, inst: &ProblemInstance) -> Schedule {
        let (dag, sys) = (inst.dag(), inst.sys());
        let comm = MeanComm::default();
        let up = inst.upward_rank_in(self.agg, &comm);
        let down = inst.downward_rank_in(self.agg, &comm);
        let priority: Vec<f64> = up.iter().zip(down.iter()).map(|(&u, &d)| u + d).collect();

        // Critical-path processor: minimizes summed execution of CP tasks.
        let cp_tasks = inst.critical_path_tasks(self.agg);
        let mut on_cp = vec![false; dag.num_tasks()];
        for &t in cp_tasks.iter() {
            on_cp[t.index()] = true;
        }
        let cp_proc = sys
            .proc_ids()
            .min_by(|&a, &b| {
                let ca: f64 = cp_tasks.iter().map(|&t| sys.exec_time(t, a)).sum();
                let cb: f64 = cp_tasks.iter().map(|&t| sys.exec_time(t, b)).sum();
                ca.total_cmp(&cb)
            })
            .unwrap_or(ProcId(0));

        let mut sched = Schedule::new(dag.num_tasks(), sys.num_procs());
        let mut remaining_preds: Vec<usize> = dag.task_ids().map(|t| dag.in_degree(t)).collect();
        let mut heap: BinaryHeap<Entry> = dag
            .entry_tasks()
            .map(|t| Entry {
                priority: priority[t.index()],
                task: t,
            })
            .collect();

        let mut ctx = EftContext::new(sys);
        while let Some(Entry { task: t, .. }) = heap.pop() {
            let (p, start, finish) = if on_cp[t.index()] {
                let (s, f) = eft_on(inst, &sched, t, cp_proc, true);
                (cp_proc, s, f)
            } else {
                ctx.best_eft(inst, &sched, t, true)
            };
            sched
                .insert(t, p, start, finish - start)
                .expect("EFT placement is conflict-free");
            for (s, _) in dag.successors(t) {
                let r = &mut remaining_preds[s.index()];
                *r -= 1;
                if *r == 0 {
                    heap.push(Entry {
                        priority: priority[s.index()],
                        task: s,
                    });
                }
            }
        }
        debug_assert!(sched.is_complete());
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use hetsched_dag::builder::dag_from_edges;
    use hetsched_platform::{EtcMatrix, Network, System};

    #[test]
    fn critical_path_lands_on_one_processor() {
        // heavy chain 0 -> 1 -> 2 with a light side task 3 hanging off 0
        let dag = dag_from_edges(
            &[5.0, 5.0, 5.0, 1.0],
            &[(0, 1, 10.0), (1, 2, 10.0), (0, 3, 1.0)],
        )
        .unwrap();
        // processor 1 is fastest for everything -> CP processor
        let etc = EtcMatrix::from_fn(4, 3, |t, p| {
            let w = [5.0, 5.0, 5.0, 1.0][t.index()];
            if p.index() == 1 {
                w * 0.5
            } else {
                w
            }
        });
        let sys = System::new(etc, Network::unit(3));
        let s = Cpop::new().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
        let p0 = s.task_proc(TaskId(0)).unwrap();
        assert_eq!(s.task_proc(TaskId(1)), Some(p0));
        assert_eq!(s.task_proc(TaskId(2)), Some(p0));
        assert_eq!(p0, ProcId(1), "CP goes to the fastest processor");
    }

    #[test]
    fn valid_on_multi_entry_graph() {
        let dag = dag_from_edges(&[2.0, 3.0, 4.0], &[(0, 2, 5.0), (1, 2, 5.0)]).unwrap();
        let sys = System::homogeneous_unit(&dag, 2);
        let s = Cpop::new().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
        assert!(s.is_complete());
    }

    #[test]
    fn heap_order_prefers_higher_priority() {
        let mut h = std::collections::BinaryHeap::new();
        h.push(Entry {
            priority: 1.0,
            task: TaskId(5),
        });
        h.push(Entry {
            priority: 3.0,
            task: TaskId(9),
        });
        h.push(Entry {
            priority: 3.0,
            task: TaskId(2),
        });
        assert_eq!(h.pop().unwrap().task, TaskId(2), "ties -> smaller id");
        assert_eq!(h.pop().unwrap().task, TaskId(9));
        assert_eq!(h.pop().unwrap().task, TaskId(5));
    }

    use hetsched_dag::TaskId;

    #[test]
    fn single_task() {
        let dag = dag_from_edges(&[3.0], &[]).unwrap();
        let sys = System::homogeneous_unit(&dag, 4);
        let s = Cpop::new().schedule(&dag, &sys);
        assert_eq!(s.makespan(), 3.0);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
    }
}
