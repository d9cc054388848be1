//! Task-duplication scheduling, in the DSH / BTDH lineage (Kruatrachue &
//! Lewis 1988; Chung & Ranka 1992 — the BTDH heuristic is earlier work by
//! one of the paper's authors).
//!
//! The idea: when a task's start on its best processor is dominated by one
//! parent's message, re-execute (*duplicate*) that parent locally in an
//! idle slot so the consumer reads a local result. Duplication burns
//! processor idle time to remove communication from the critical path, so
//! it helps most at high CCR and low processor counts.

use hetsched_dag::{Dag, TaskId};
use hetsched_platform::{ProcId, System};

use crate::cost::CostAggregation;
use crate::eft::{arrival_from, critical_parent_raw, data_ready_time_raw, eft_on_raw};
use crate::engine::EftContext;
use crate::instance::ProblemInstance;
use crate::rank::sort_by_priority_desc;
use crate::schedule::{Schedule, TIME_EPS};
use crate::Scheduler;

/// Greedily duplicate critical parents of `t` onto `p` while each
/// duplication strictly improves the arrival of that parent's data, then
/// place `t` at its (possibly improved) EFT on `p`.
///
/// The loop duplicates *immediate* parents only (the DSH depth-1 policy,
/// which captures most of the benefit at a fraction of the cost of the
/// recursive variants); each parent can gain at most one copy per
/// processor, so the loop terminates after at most `in_degree(t)` rounds.
///
/// Returns the finish time of `t` on `p`.
pub(crate) fn place_with_duplication(
    dag: &Dag,
    sys: &System,
    sched: &mut Schedule,
    t: TaskId,
    p: ProcId,
) -> f64 {
    loop {
        let (_, finish_now) = eft_on_raw(dag, sys, sched, t, p, true);
        let Some(u) = critical_parent_raw(dag, sys, sched, t, p) else {
            break;
        };
        if sched.finish_on(u, p).is_some() {
            break; // already local
        }
        // Where could a copy of u go on p, honoring u's own parents?
        let drt_u = data_ready_time_raw(dag, sys, sched, u, p);
        let dur_u = sys.exec_time(u, p);
        let start_u = sched.earliest_start(p, drt_u, dur_u, true);
        let finish_u = start_u + dur_u;
        let edge_data = dag
            .edge_data(u, t)
            .expect("critical parent is a predecessor");
        let current_arrival = arrival_from(sys, sched, u, edge_data, p);
        if finish_u + TIME_EPS >= current_arrival {
            break; // local re-execution would not beat the message
        }
        sched
            .insert_duplicate(u, p, start_u, dur_u)
            .expect("gap search returned a free interval");
        // Only keep going if the consumer actually improved; otherwise a
        // different parent now dominates with no better options.
        let (_, finish_after) = eft_on_raw(dag, sys, sched, t, p, true);
        if finish_after + TIME_EPS >= finish_now {
            break;
        }
    }
    let (start, finish) = eft_on_raw(dag, sys, sched, t, p, true);
    sched
        .insert(t, p, start, finish - start)
        .expect("EFT placement is conflict-free");
    finish
}

/// HEFT ordering with duplication-enhanced processor selection.
///
/// For each task the scheduler evaluates the `candidates` best processors
/// by plain EFT; for each it *simulates* duplication-assisted placement
/// under the schedule's trial log (snapshot/undo — no clone) and commits
/// the best outcome. With `candidates = 1` this is DSH-style greedy
/// duplication on HEFT's chosen processor.
#[derive(Debug, Clone, Copy)]
pub struct DupHeft {
    /// How many top-EFT processors to evaluate with duplication.
    pub candidates: usize,
    /// Rank aggregation (mean, as in HEFT).
    pub agg: CostAggregation,
}

impl DupHeft {
    /// Default configuration: 3 candidate processors, mean ranks.
    pub fn new() -> Self {
        DupHeft {
            candidates: 3,
            agg: CostAggregation::Mean,
        }
    }
}

impl Default for DupHeft {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for DupHeft {
    fn name(&self) -> &'static str {
        "DUP-HEFT"
    }

    fn schedule_instance(&self, inst: &ProblemInstance) -> Schedule {
        let (dag, sys) = (inst.dag(), inst.sys());
        let k = self.candidates.max(1);
        let order = sort_by_priority_desc(&inst.upward_rank(self.agg));
        let mut sched = Schedule::new(dag.num_tasks(), sys.num_procs());
        let mut ctx = EftContext::new(sys);
        let mut cand: Vec<(ProcId, f64, f64)> = Vec::with_capacity(sys.num_procs());
        for t in order {
            // rank candidate processors by plain EFT (infinite tolerance ->
            // all processors, sorted by finish then id)
            ctx.eft_candidates_into(inst, &sched, t, true, f64::INFINITY, &mut cand);
            cand.truncate(k);
            // probe each candidate under the trial log; keep the incumbent
            // unless the new finish beats it by more than TIME_EPS
            let mut best: Option<(f64, ProcId)> = None;
            for &(p, _, _) in &cand {
                sched.begin_trial();
                let finish = place_with_duplication(dag, sys, &mut sched, t, p);
                sched.rollback_trial();
                match best {
                    Some((bf, _)) if finish + TIME_EPS >= bf => {}
                    _ => best = Some((finish, p)),
                }
            }
            let (best_finish, p) = best.expect("at least one candidate");
            let finish = place_with_duplication(dag, sys, &mut sched, t, p);
            debug_assert_eq!(
                finish.to_bits(),
                best_finish.to_bits(),
                "re-applying the winning trial must reproduce its finish"
            );
        }
        debug_assert!(sched.is_complete());
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Heft;
    use crate::validate::validate;
    use hetsched_dag::builder::dag_from_edges;
    use hetsched_platform::System;

    /// High-CCR fork: one entry feeding two heavy-communication children.
    /// Without duplication one child must wait for a big message; with
    /// duplication the entry re-executes locally.
    fn high_ccr_fork() -> (Dag, System) {
        let dag = dag_from_edges(&[1.0, 2.0, 2.0], &[(0, 1, 50.0), (0, 2, 50.0)]).unwrap();
        let sys = System::homogeneous_unit(&dag, 2);
        (dag, sys)
    }

    use hetsched_dag::Dag;

    #[test]
    fn duplication_beats_heft_on_high_ccr_fork() {
        let (dag, sys) = high_ccr_fork();
        let heft = Heft::new().schedule(&dag, &sys).makespan();
        let dup = DupHeft::new().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &dup), Ok(()));
        // HEFT serializes everything on one processor: 1 + 2 + 2 = 5.
        // Duplication runs the entry on both: makespan 3.
        assert!(
            dup.makespan() < heft + 1e-9,
            "dup {} heft {heft}",
            dup.makespan()
        );
        assert_eq!(dup.makespan(), 3.0);
        assert_eq!(dup.num_duplicates(), 1);
    }

    #[test]
    fn no_duplicates_when_communication_is_free() {
        let dag = dag_from_edges(&[1.0, 1.0, 1.0], &[(0, 1, 0.0), (0, 2, 0.0)]).unwrap();
        let sys = System::homogeneous_unit(&dag, 2);
        let s = DupHeft::new().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
        assert_eq!(s.num_duplicates(), 0);
    }

    #[test]
    fn place_with_duplication_respects_grandparents() {
        // chain 0 -> 1 -> 2 with heavy edges; duplicating t1 onto another
        // processor must account for t0's message to that processor.
        let dag = dag_from_edges(&[1.0, 1.0, 1.0], &[(0, 1, 10.0), (1, 2, 10.0)]).unwrap();
        let sys = System::homogeneous_unit(&dag, 2);
        let s = DupHeft::new().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
        // all on one processor is optimal (makespan 3); dup cannot help
        assert_eq!(s.makespan(), 3.0);
    }

    #[test]
    fn single_candidate_configuration_works() {
        let (dag, sys) = high_ccr_fork();
        let s = DupHeft {
            candidates: 1,
            agg: CostAggregation::Mean,
        }
        .schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
    }
}
