//! HCPT — Heterogeneous Critical Parent Trees (Hagras & Janeček, 2003).
//!
//! A two-phase algorithm: the *listing* phase walks critical parent trees
//! to produce a task order (critical tasks anchor the order; each critical
//! task pulls in its not-yet-listed parents, most urgent first), and the
//! *placement* phase is insertion-based EFT, as in HEFT.
//!
//! Critical tasks are those with zero float under aggregated (mean) costs:
//! `ALST(t) == AEST(t)`.

use hetsched_dag::{Dag, TaskId};

use crate::cost::CostAggregation;
use crate::engine::EftContext;
use crate::instance::ProblemInstance;
use crate::rank::MeanComm;
use crate::schedule::Schedule;
use crate::Scheduler;

/// HCPT scheduler.
#[derive(Debug, Clone, Copy)]
pub struct Hcpt {
    /// Aggregation for AEST/ALST computation.
    pub agg: CostAggregation,
}

impl Hcpt {
    /// HCPT with mean aggregated costs (the original formulation).
    pub fn new() -> Self {
        Hcpt {
            agg: CostAggregation::Mean,
        }
    }
}

impl Default for Hcpt {
    fn default() -> Self {
        Self::new()
    }
}

/// Build HCPT's listing order: process critical tasks in ascending ALST;
/// before a critical task is appended, recursively append its unlisted
/// parents (by ascending ALST). The result is a topological order covering
/// every task.
fn listing_order(dag: &Dag, aest_v: &[f64], alst_v: &[f64]) -> Vec<TaskId> {
    let n = dag.num_tasks();
    let eps = 1e-9 * alst_v.iter().copied().fold(1.0f64, f64::max);
    // critical tasks by ascending ALST (entry of the CP first), stack holds
    // them reversed so the most urgent is on top.
    let mut criticals: Vec<TaskId> = dag
        .task_ids()
        .filter(|t| (alst_v[t.index()] - aest_v[t.index()]).abs() <= eps)
        .collect();
    criticals.sort_by(|&a, &b| {
        alst_v[a.index()]
            .total_cmp(&alst_v[b.index()])
            .then_with(|| a.cmp(&b))
    });
    let mut stack: Vec<TaskId> = criticals.into_iter().rev().collect();

    let mut listed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    while let Some(&top) = stack.last() {
        // find the unlisted parent with the smallest ALST
        let parent = dag
            .predecessors(top)
            .filter(|&(u, _)| !listed[u.index()])
            .min_by(|&(a, _), &(b, _)| {
                alst_v[a.index()]
                    .total_cmp(&alst_v[b.index()])
                    .then_with(|| a.cmp(&b))
            })
            .map(|(u, _)| u);
        match parent {
            Some(u) => stack.push(u),
            None => {
                stack.pop();
                if !listed[top.index()] {
                    listed[top.index()] = true;
                    order.push(top);
                }
            }
        }
    }
    // Cover tasks not reachable from any critical task's parent tree
    // (possible in graphs with several components): append them in
    // ascending-ALST topological order.
    if order.len() < n {
        let mut rest: Vec<TaskId> = dag.task_ids().filter(|t| !listed[t.index()]).collect();
        let mut pos = vec![0usize; n];
        for (i, &t) in dag.topo_order().iter().enumerate() {
            pos[t.index()] = i;
        }
        rest.sort_by(|&a, &b| {
            alst_v[a.index()]
                .total_cmp(&alst_v[b.index()])
                .then_with(|| pos[a.index()].cmp(&pos[b.index()]))
        });
        // rest is ALAP-sorted, which may interleave with dependencies on
        // listed tasks only — parents inside `rest` always have smaller
        // ALST, except for exact ties, which the topological position
        // breaks... but non-adjacent ties could still order wrong, so do a
        // final stable topological fix-up.
        for t in rest {
            order.push(t);
        }
        order = topological_fixup(dag, order);
    }
    order
}

/// Stable topological repair: keep the given order wherever legal, delay
/// tasks whose parents have not appeared yet.
fn topological_fixup(dag: &Dag, order: Vec<TaskId>) -> Vec<TaskId> {
    let n = dag.num_tasks();
    let mut remaining: Vec<usize> = dag.task_ids().map(|t| dag.in_degree(t)).collect();
    let mut emitted = vec![false; n];
    let mut out = Vec::with_capacity(n);
    let mut pending: Vec<TaskId> = Vec::new();
    let emit =
        |t: TaskId, out: &mut Vec<TaskId>, remaining: &mut Vec<usize>, emitted: &mut Vec<bool>| {
            emitted[t.index()] = true;
            out.push(t);
            for (s, _) in dag.successors(t) {
                remaining[s.index()] -= 1;
            }
        };
    for t in order {
        if remaining[t.index()] == 0 && !emitted[t.index()] {
            emit(t, &mut out, &mut remaining, &mut emitted);
            // flush pending tasks that became ready, in pending order
            loop {
                let i = pending
                    .iter()
                    .position(|&u| remaining[u.index()] == 0 && !emitted[u.index()]);
                match i {
                    Some(i) => {
                        let u = pending.remove(i);
                        emit(u, &mut out, &mut remaining, &mut emitted);
                    }
                    None => break,
                }
            }
        } else if !emitted[t.index()] {
            pending.push(t);
        }
    }
    debug_assert!(pending.is_empty(), "fixup must drain all tasks");
    out
}

impl Scheduler for Hcpt {
    fn name(&self) -> &'static str {
        "HCPT"
    }

    fn schedule_instance(&self, inst: &ProblemInstance) -> Schedule {
        let (dag, sys) = (inst.dag(), inst.sys());
        let comm = MeanComm::default();
        // AEST is the downward rank
        let a = inst.downward_rank_in(self.agg, &comm);
        let l = inst.alst_in(self.agg, &comm);
        let order = listing_order(dag, &a, &l);
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
    use hetsched_dag::topo::is_topological;
    use hetsched_platform::System;

    fn setup() -> (Dag, System) {
        let dag = dag_from_edges(
            &[1.0, 2.0, 3.0, 4.0, 1.0],
            &[
                (0, 1, 10.0),
                (0, 2, 20.0),
                (1, 3, 30.0),
                (2, 3, 40.0),
                (0, 4, 1.0),
            ],
        )
        .unwrap();
        let sys = System::homogeneous_unit(&dag, 3);
        (dag, sys)
    }

    #[test]
    fn listing_order_is_topological_and_complete() {
        let (dag, sys) = setup();
        let inst = ProblemInstance::from_refs(&dag, &sys);
        let a = inst.aest(CostAggregation::Mean);
        let l = inst.alst(CostAggregation::Mean);
        let order = listing_order(&dag, &a, &l);
        assert!(is_topological(&dag, &order));
    }

    #[test]
    fn critical_path_tasks_listed_before_slack_tasks_of_same_depth() {
        let (dag, sys) = setup();
        let inst = ProblemInstance::from_refs(&dag, &sys);
        let a = inst.aest(CostAggregation::Mean);
        let l = inst.alst(CostAggregation::Mean);
        let order = listing_order(&dag, &a, &l);
        // t2 (critical branch) must come before t1 (slack branch)
        let pos = |t: TaskId| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(TaskId(2)) < pos(TaskId(1)));
        // side task t4 comes last-ish (it is least critical)
        assert!(pos(TaskId(4)) > pos(TaskId(2)));
    }

    use hetsched_dag::{Dag, TaskId};

    #[test]
    fn schedule_is_valid() {
        let (dag, sys) = setup();
        let s = Hcpt::new().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
        assert!(s.is_complete());
    }

    #[test]
    fn handles_disconnected_components() {
        let dag = dag_from_edges(&[1.0, 1.0, 5.0, 5.0], &[(0, 1, 1.0), (2, 3, 9.0)]).unwrap();
        let sys = System::homogeneous_unit(&dag, 2);
        let s = Hcpt::new().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
    }

    #[test]
    fn topological_fixup_repairs_bad_order() {
        let dag = dag_from_edges(&[1.0; 3], &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let bad = vec![TaskId(2), TaskId(1), TaskId(0)];
        let fixed = topological_fixup(&dag, bad);
        assert!(is_topological(&dag, &fixed));
    }
}
