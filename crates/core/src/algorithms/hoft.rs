//! HOFT — Heterogeneous Optimistic Finish Time (McSweeney, Walton,
//! Zounon; generalized here from the fork-join simulators to arbitrary
//! processor counts).
//!
//! HOFT precomputes, for every `(task, processor)` pair, the *optimistic
//! finish time*: the earliest the whole downstream graph could finish if
//! `task` ran on that processor and every descendant were then placed
//! ideally, ignoring resource contention. The table drives both phases of
//! the list scheduler:
//!
//! * **ranking** — a task's priority is the max/min ratio of its OFT row
//!   (how much its placement matters on this system) plus the maximal
//!   successor priority, giving a topological order that surfaces
//!   placement-sensitive tasks early;
//! * **selection** — instead of committing to the minimum-EFT processor,
//!   HOFT also considers the *fastest* processor for the task and keeps
//!   whichever has the better `EFT + optimistic remaining work` score: a
//!   one-step lookahead that accepts a locally worse finish when the
//!   downstream table says it pays off.
//!
//! Placement mechanics (data-ready frontier, insertion-based gap search)
//! are shared with the rest of the EFT family through [`EftContext`], so
//! HOFT participates in the reference-engine bit-identity contract like
//! every other scheduler.

use hetsched_dag::Dag;
use hetsched_platform::{ProcId, System};

use crate::engine::EftContext;
use crate::instance::ProblemInstance;
use crate::rank::sort_by_priority_desc;
use crate::schedule::Schedule;
use crate::Scheduler;

/// HOFT: optimistic-finish-time table driving ratio ranking and
/// two-candidate lookahead processor selection.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hoft;

impl Hoft {
    /// The OFT table, flattened row-major (`oft[t * np + p]`):
    ///
    /// ```text
    /// OFT(t, p) = w(t, p) + max over children c of
    ///                 min over q of ( comm(t→c data, p, q) + OFT(c, q) )
    /// ```
    ///
    /// computed backwards over the topological order. Exit tasks have no
    /// tail, so their row is the ETC row.
    pub(crate) fn oft_table(dag: &Dag, sys: &System) -> Vec<f64> {
        let np = sys.num_procs();
        let net = sys.network();
        let mut oft = vec![0.0f64; dag.num_tasks() * np];
        for &t in dag.topo_order().iter().rev() {
            let w = sys.etc().row(t);
            for p in 0..np {
                let pid = ProcId(p as u32);
                let tail = dag
                    .successors(t)
                    .map(|(c, data)| {
                        (0..np)
                            .map(|q| {
                                oft[c.index() * np + q] + net.comm_time(data, pid, ProcId(q as u32))
                            })
                            .fold(f64::INFINITY, f64::min)
                    })
                    .fold(0.0f64, f64::max);
                oft[t.index() * np + p] = w[p] + tail;
            }
        }
        oft
    }

    /// Priorities from the OFT table: `rank(t) = ratio(t) + max successor
    /// rank`, where `ratio(t)` is `max_p OFT(t,p) / min_p OFT(t,p)` (1.0
    /// when the minimum is zero — a zero-cost tail has nothing to gain
    /// from placement). `ratio >= 1`, so every task outranks all of its
    /// successors and the non-increasing order is topological.
    pub(crate) fn priorities(dag: &Dag, np: usize, oft: &[f64]) -> Vec<f64> {
        let mut rank = vec![0.0f64; dag.num_tasks()];
        for &t in dag.topo_order().iter().rev() {
            let row = &oft[t.index() * np..][..np];
            let (mut mx, mut mn) = (f64::NEG_INFINITY, f64::INFINITY);
            for &v in row {
                mx = mx.max(v);
                mn = mn.min(v);
            }
            let ratio = if mn > 0.0 { mx / mn } else { 1.0 };
            let tail = dag
                .successors(t)
                .map(|(s, _)| rank[s.index()])
                .fold(0.0f64, f64::max);
            rank[t.index()] = ratio + tail;
        }
        rank
    }

    /// The two-candidate lookahead placement loop from rank-order position
    /// `from` onward, shared between the from-scratch run (which starts at
    /// 0 on an empty schedule) and [`Hoft::repair`] (which replays the
    /// parent's leading placements and resumes from the first touched
    /// position). Both callers execute identical placement code over
    /// identical schedule state — the repair bit-identity argument needs
    /// exactly that.
    pub(crate) fn place_from(
        &self,
        inst: &ProblemInstance,
        oft: &[f64],
        rank: &[f64],
        order: &[hetsched_dag::TaskId],
        from: usize,
        sched: &mut Schedule,
    ) {
        let sys = inst.sys();
        let np = sys.num_procs();
        let mut ctx = EftContext::new(sys);
        let _span = hetsched_trace::span("eft_loop");
        let tracing = hetsched_trace::enabled();
        // per-task EFT row, reused across tasks like the context's frontier
        let mut starts = vec![0.0; np];
        let mut fins = vec![0.0; np];
        for (step, &t) in order.iter().enumerate().skip(from) {
            hetsched_trace::emit(|| hetsched_trace::Event::TaskSelected {
                step: step as u64,
                task: t.index() as u32,
                priority: rank[t.index()],
            });
            let durs = sys.etc().row(t);
            let ready = ctx.data_ready_all(inst, sched, t);
            let mut p_eft = 0usize;
            let mut p_fast = 0usize;
            for (p, (&r, &dur)) in ready.iter().zip(durs).enumerate() {
                let start = sched.earliest_start(ProcId(p as u32), r, dur, true);
                starts[p] = start;
                fins[p] = start + dur;
                // both argmins keep the first (smallest-id) minimum,
                // mirroring the engine's best_eft tie-break
                if fins[p] < fins[p_eft] {
                    p_eft = p;
                }
                if dur < durs[p_fast] {
                    p_fast = p;
                }
            }
            // Lookahead: the minimum-EFT processor competes with the
            // fastest one on `EFT + optimistic tail` (the OFT entry minus
            // the execution cost it already counts). The fastest processor
            // wins only a strict comparison, so when the lookahead is
            // indifferent HOFT behaves exactly like EFT selection.
            let chosen = if p_fast != p_eft {
                let score = |p: usize| fins[p] + (oft[t.index() * np + p] - durs[p]);
                if score(p_fast) < score(p_eft) {
                    p_fast
                } else {
                    p_eft
                }
            } else {
                p_eft
            };
            let (p, start, finish) = (ProcId(chosen as u32), starts[chosen], fins[chosen]);
            if tracing {
                let candidates = ready
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| hetsched_trace::Candidate {
                        proc: i as u32,
                        ready: r,
                        start: starts[i],
                        finish: fins[i],
                    })
                    .collect();
                hetsched_trace::emit(|| hetsched_trace::Event::EftDecision {
                    task: t.index() as u32,
                    proc: p.index() as u32,
                    start,
                    finish,
                    gap_used: start < sched.proc_finish(p),
                    candidates,
                });
            }
            sched
                .insert(t, p, start, finish - start)
                .expect("HOFT placement is conflict-free by construction");
        }
    }
}

impl Scheduler for Hoft {
    fn name(&self) -> &'static str {
        "HOFT"
    }

    fn schedule_instance(&self, inst: &ProblemInstance) -> Schedule {
        let (dag, sys) = (inst.dag(), inst.sys());
        let np = sys.num_procs();
        let (oft, rank) = {
            let _span = hetsched_trace::span("rank");
            let oft = Self::oft_table(dag, sys);
            let rank = Self::priorities(dag, np, &oft);
            (oft, rank)
        };
        let order = sort_by_priority_desc(&rank);
        let mut sched = Schedule::new(dag.num_tasks(), np);
        self.place_from(inst, &oft, &rank, &order, 0, &mut sched);
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use hetsched_dag::builder::dag_from_edges;
    use hetsched_dag::TaskId;
    use hetsched_platform::{EtcMatrix, EtcParams, Network};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn oft_table_on_a_chain_matches_hand_computation() {
        // chain 0 -> 1 with data 4.0, homogeneous unit network (comm = 4
        // between distinct procs, 0 locally), w(0) = 2, w(1) = 3
        let dag = dag_from_edges(&[2.0, 3.0], &[(0, 1, 4.0)]).unwrap();
        let sys = System::homogeneous_unit(&dag, 2);
        let oft = Hoft::oft_table(&dag, &sys);
        // exit rows are the ETC rows
        assert_eq!(&oft[2..], &[3.0, 3.0]);
        // OFT(0, p) = 2 + min(local 0 + 3, remote 4 + 3) = 5 on both procs
        assert_eq!(&oft[..2], &[5.0, 5.0]);
    }

    #[test]
    fn priorities_are_topological_and_ratio_based() {
        let dag = dag_from_edges(
            &[2.0, 3.0, 1.0, 2.0],
            &[(0, 1, 4.0), (0, 2, 1.0), (1, 3, 2.0), (2, 3, 3.0)],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let sys = System::heterogeneous_random(&dag, 3, &EtcParams::range_based(1.0), &mut rng);
        let oft = Hoft::oft_table(&dag, &sys);
        let rank = Hoft::priorities(&dag, 3, &oft);
        let order = sort_by_priority_desc(&rank);
        assert!(hetsched_dag::topo::is_topological(&dag, &order));
        // every task strictly outranks its successors
        for t in dag.task_ids() {
            for (s, _) in dag.successors(t) {
                assert!(rank[t.index()] > rank[s.index()]);
            }
        }
    }

    #[test]
    fn schedules_randoms_validly() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in [10, 40] {
            let dag = hetsched_workloads::random_dag(
                &hetsched_workloads::RandomDagParams::new(n, 1.0, 1.5),
                &mut rng,
            );
            let sys = System::heterogeneous_random(&dag, 4, &EtcParams::range_based(1.0), &mut rng);
            let s = Hoft.schedule(&dag, &sys);
            assert_eq!(validate(&dag, &sys, &s), Ok(()), "n={n}");
            assert!(s.is_complete());
        }
    }

    #[test]
    fn lookahead_keeps_chain_on_the_fast_processor() {
        // 0 -> 1, p1 is far faster for both; EFT alone would already pick
        // it, and the lookahead must agree (never degrade the obvious case)
        let dag = dag_from_edges(&[10.0, 10.0], &[(0, 1, 0.0)]).unwrap();
        let etc = EtcMatrix::from_fn(2, 2, |_, p| if p.index() == 1 { 1.0 } else { 10.0 });
        let sys = System::new(etc, Network::unit(2));
        let s = Hoft.schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
        assert_eq!(s.task_proc(TaskId(0)), Some(ProcId(1)));
        assert_eq!(s.task_proc(TaskId(1)), Some(ProcId(1)));
        assert_eq!(s.makespan(), 2.0);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Hoft.name(), "HOFT");
    }
}
