//! PEFT — Predict Earliest Finish Time (Arabnejad & Barbosa, IEEE TPDS
//! 2014). Included as the *extension* baseline: it post-dates the
//! reproduced paper but is the canonical follow-up improvement over HEFT,
//! so it brackets the proposed ILS schedulers from the other side.
//!
//! PEFT's insight is the **optimistic cost table**:
//!
//! ```text
//! OCT(t, p) = max over children c of
//!               min over q of ( OCT(c, q) + w(c, q) + [p ≠ q] · c̄(t, c) )
//! ```
//!
//! — the cost of the cheapest way to finish the rest of the graph if `t`
//! runs on `p`, assuming every later decision is made optimally and
//! communication is charged at the mean. Tasks are prioritized by the
//! per-row mean of OCT, and the processor is chosen to minimize
//! `EFT(t, p) + OCT(t, p)` instead of plain EFT — a lookahead that costs
//! only a table.

use hetsched_dag::{Dag, TaskId};
use hetsched_platform::{ProcId, System};

use crate::engine::EftContext;
use crate::instance::ProblemInstance;
use crate::rank::sort_by_priority_desc;
use crate::schedule::Schedule;
use crate::Scheduler;

/// PEFT scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Peft;

impl Peft {
    /// New PEFT scheduler.
    pub fn new() -> Self {
        Peft
    }
}

/// Compute the optimistic cost table, task-major (`oct[t * P + p]`).
pub(crate) fn oct_table(dag: &Dag, sys: &System) -> Vec<f64> {
    let np = sys.num_procs();
    let comm = crate::rank::mean_comm_table(dag, sys);
    let mut oct = vec![0.0f64; dag.num_tasks() * np];
    for &t in dag.topo_order().iter().rev() {
        for p in sys.proc_ids() {
            let mut worst_child = 0.0f64;
            for e in dag.out_edge_range(t) {
                let (c, mean_comm) = (dag.edges()[e].dst, comm[e]);
                let mut best = f64::INFINITY;
                for q in sys.proc_ids() {
                    let comm = if p == q { 0.0 } else { mean_comm };
                    let v = oct[c.index() * np + q.index()] + sys.exec_time(c, q) + comm;
                    if v < best {
                        best = v;
                    }
                }
                if best > worst_child {
                    worst_child = best;
                }
            }
            oct[t.index() * np + p.index()] = worst_child;
        }
    }
    oct
}

impl Scheduler for Peft {
    fn name(&self) -> &'static str {
        "PEFT"
    }

    fn schedule_instance(&self, inst: &ProblemInstance) -> Schedule {
        let (dag, sys) = (inst.dag(), inst.sys());
        let np = sys.num_procs();
        let oct = oct_table(dag, sys);
        // priority: mean OCT over processors (rank_oct)
        let rank: Vec<f64> = dag
            .task_ids()
            .map(|t| {
                oct[t.index() * np..(t.index() + 1) * np]
                    .iter()
                    .sum::<f64>()
                    / np as f64
            })
            .collect();
        // rank_oct descending is NOT guaranteed topological (unlike
        // rank_u), so keep a ready-queue discipline.
        let order = sort_by_priority_desc(&rank);
        let mut remaining_preds: Vec<usize> = dag.task_ids().map(|t| dag.in_degree(t)).collect();
        let mut sched = Schedule::new(dag.num_tasks(), np);

        let mut pending: Vec<TaskId> = order;
        let mut ctx = EftContext::new(sys);
        while !pending.is_empty() {
            // take the highest-priority READY task
            let pos = pending
                .iter()
                .position(|&t| remaining_preds[t.index()] == 0)
                .expect("a DAG always has a ready task");
            let t = pending.remove(pos);
            // choose processor minimizing EFT + OCT
            let ready = ctx.data_ready_all(inst, &sched, t);
            let durs = sys.etc().row(t);
            let mut best: Option<(ProcId, f64, f64, f64)> = None; // (p, start, finish, key)
            for (i, p) in sys.proc_ids().enumerate() {
                let s = sched.earliest_start(p, ready[i], durs[i], true);
                let f = s + durs[i];
                let key = f + oct[t.index() * np + p.index()];
                let better = match best {
                    None => true,
                    Some((bp, _, _, bk)) => key < bk || (key == bk && p < bp),
                };
                if better {
                    best = Some((p, s, f, key));
                }
            }
            let (p, start, finish, _) = best.expect("at least one processor");
            sched
                .insert(t, p, start, finish - start)
                .expect("EFT placement is conflict-free");
            for (s, _) in dag.successors(t) {
                remaining_preds[s.index()] -= 1;
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
    use hetsched_dag::Dag;
    use hetsched_platform::{EtcMatrix, Network};

    fn chain_het() -> (Dag, System) {
        let dag = dag_from_edges(&[2.0, 4.0], &[(0, 1, 6.0)]).unwrap();
        // p1 is fast for t1 but not t0
        let etc = EtcMatrix::from_fn(2, 2, |t, p| match (t.index(), p.index()) {
            (0, 0) => 2.0,
            (0, 1) => 3.0,
            (1, 0) => 8.0,
            (1, 1) => 2.0,
            _ => unreachable!(),
        });
        (dag, System::new(etc, Network::unit(2)))
    }

    #[test]
    fn oct_of_exit_tasks_is_zero() {
        let (dag, sys) = chain_het();
        let oct = oct_table(&dag, &sys);
        assert_eq!(oct[2], 0.0);
        assert_eq!(oct[2 + 1], 0.0);
    }

    #[test]
    fn oct_counts_remote_comm_only() {
        let (dag, sys) = chain_het();
        let oct = oct_table(&dag, &sys);
        // OCT(t0, p0) = min(w(t1,p0), w(t1,p1) + c̄) = min(8, 2 + 6) = 8
        assert_eq!(oct[0], 8.0);
        // OCT(t0, p1) = min(w(t1,p0) + 6, w(t1,p1)) = 2
        assert_eq!(oct[1], 2.0);
    }

    #[test]
    fn peft_routes_toward_the_good_downstream_processor() {
        let (dag, sys) = chain_het();
        use crate::Scheduler as _;
        let s = Peft::new().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
        // EFT alone would put t0 on p0 (finish 2 < 3); OCT steers it to
        // p1 so the heavy child runs locally on its fast processor.
        assert_eq!(s.task_proc(TaskId(0)), Some(ProcId(1)));
        assert_eq!(s.task_proc(TaskId(1)), Some(ProcId(1)));
        assert_eq!(s.makespan(), 5.0);
        // cross-check HEFT pays more here
        let heft = crate::algorithms::Heft::new().schedule(&dag, &sys);
        assert!(heft.makespan() >= 5.0);
    }

    use hetsched_dag::TaskId;

    #[test]
    fn valid_on_multi_exit_graph() {
        let dag = dag_from_edges(&[1.0, 2.0, 3.0], &[(0, 1, 4.0), (0, 2, 4.0)]).unwrap();
        let sys = System::homogeneous_unit(&dag, 3);
        use crate::Scheduler as _;
        let s = Peft::new().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
    }
}
