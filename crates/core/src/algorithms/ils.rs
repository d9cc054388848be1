//! The proposed **ILS** (Improved List Scheduling) family — this
//! repository's reconstruction of the paper's contribution (see DESIGN.md
//! §3 for the provenance note).
//!
//! The family improves HEFT-style list scheduling with three knobs, each
//! individually ablatable:
//!
//! 1. **Spread-aware ranks** ([`CostAggregation::MeanStd`]): tasks whose
//!    execution time varies a lot across processors are ranked higher, so
//!    they are placed while good processors are still free.
//! 2. **One-step lookahead**: among processors whose EFT is within a
//!    tolerance of the best, pick the one that minimizes the estimated
//!    finish of the task's *critical child* instead of blindly taking the
//!    minimal EFT. This resolves the near-ties where HEFT's myopia loses.
//! 3. **Selective duplication** (ILS-D only): evaluate each candidate
//!    processor with DSH-style parent duplication and commit the best.
//!
//! * [`IlsH`] — knobs 1 + 2, for heterogeneous systems.
//! * [`IlsD`] — knobs 1 + 2 + 3.
//! * [`IlsM`] — knob 2 on ALAP (MCP-style) priorities, the homogeneous
//!   variant; on a flat ETC matrix knob 1 is vacuous, so the improvement
//!   over MCP comes from lookahead and insertion.

use hetsched_dag::{Dag, TaskId};
use hetsched_platform::{ProcId, System};

use crate::algorithms::duplication::place_with_duplication;
use crate::algorithms::mcp::alap_order;
use crate::cost::CostAggregation;
use crate::engine::EftContext;
use crate::instance::ProblemInstance;
use crate::rank::{sort_by_priority_desc, MeanComm};
use crate::schedule::{Schedule, TIME_EPS};
use crate::Scheduler;

/// The successor of `t` with the highest `rank + mean communication` —
/// the child most likely to be on the critical path — plus the edge data.
/// `comm` is the run's per-edge mean communication table, indexed like
/// [`Dag::edges`].
fn critical_child(dag: &Dag, comm: &[f64], rank: &[f64], t: TaskId) -> Option<(TaskId, f64)> {
    let mut best: Option<(TaskId, f64, f64)> = None;
    for e in dag.out_edge_range(t) {
        let edge = &dag.edges()[e];
        let (s, data) = (edge.dst, edge.data);
        let key = rank[s.index()] + comm[e];
        match best {
            Some((bs, _, bk)) if key < bk || (key == bk && s >= bs) => {}
            _ => best = Some((s, data, key)),
        }
    }
    best.map(|(s, data, _)| (s, data))
}

/// Optimistic estimate of the critical child's finish if `t` finishes at
/// `finish_t` on `p`: minimize over target processors `q` the child's
/// start (message from `t` or `q`'s current availability, whichever is
/// later) plus its execution time on `q`. Other parents of the child are
/// ignored — they are identical across candidates, so the estimate ranks
/// candidates correctly whenever `t`'s message is the binding constraint.
fn lookahead_score(
    sys: &System,
    sched: &Schedule,
    child: TaskId,
    data: f64,
    p: ProcId,
    finish_t: f64,
) -> f64 {
    // Flat-slice formulation of: min over q of
    // `max(finish_t + comm(data, p, q), proc_finish(q)) + exec(child, q)`
    // — term-for-term the same arithmetic as `comm_time`/`exec_time`, just
    // over the contiguous link and ETC rows.
    let (startup, inv_bw) = sys.network().link_rows(p);
    let execs = sys.etc().row(child);
    let mut best = f64::INFINITY;
    for (i, (&su, &ib)) in startup.iter().zip(inv_bw).enumerate() {
        let ready = finish_t + (su + data * ib);
        let start = ready.max(sched.proc_finish(ProcId(i as u32)));
        best = best.min(start + execs[i]);
    }
    best
}

/// The near-tie candidate `(p, start, finish)` with the least
/// `(lookahead score, finish, processor)`. `cands` is non-empty and in
/// EFT order (finish, then processor), as
/// [`EftContext::eft_candidates_into`] leaves it, so of two candidates
/// with equal scores the earlier one wins.
///
/// Each candidate is scored at most once. Scoring stops at the first
/// candidate whose `finish + min_q exec(child, q)` exceeds the best score
/// so far: every term of its score is at least that bound (communication
/// costs are non-negative and rounding is monotone), and every later
/// candidate finishes no earlier, so none of them can win or tie.
fn pick_by_lookahead(
    sys: &System,
    sched: &Schedule,
    (child, data): (TaskId, f64),
    cands: &[(ProcId, f64, f64)],
) -> (ProcId, f64, f64) {
    let min_exec = sys.etc().min_exec(child).0;
    let score = |(p, _, f): (ProcId, f64, f64)| lookahead_score(sys, sched, child, data, p, f);
    let mut best = (score(cands[0]), cands[0]);
    for &cand @ (_, _, f) in &cands[1..] {
        if f + min_exec > best.0 {
            break;
        }
        let s = score(cand);
        if s.total_cmp(&best.0).is_lt() {
            best = (s, cand);
        }
    }
    best.1
}

/// One candidate placement of an ILS-D task, probed under the schedule
/// trial log ([`Schedule::begin_trial`]) and then committed: applying it
/// twice to identical schedules places identically, bit for bit.
#[derive(Debug, Clone, Copy)]
enum TrialSpec {
    /// Plain insertion at a precomputed interval (no duplication).
    Plain { p: ProcId, start: f64, finish: f64 },
    /// Duplication-assisted placement ([`place_with_duplication`]) on `p`.
    Dup { p: ProcId },
}

impl TrialSpec {
    /// Place `t` on `s` for real, returning the finish time of its
    /// primary copy.
    fn apply(self, dag: &Dag, sys: &System, s: &mut Schedule, t: TaskId) -> f64 {
        match self {
            TrialSpec::Plain { p, start, finish } => {
                s.insert(t, p, start, finish - start)
                    .expect("planned placement is conflict-free");
                finish
            }
            TrialSpec::Dup { p } => place_with_duplication(dag, sys, s, t, p),
        }
    }
}

/// Probe `spec` for `t` on `s` under the trial log and return
/// `(lookahead score of child, finish)` — the score is computed *with the
/// probe applied* (it reads processor availabilities the placement
/// changes), then everything is rolled back, leaving `s` bit-identical.
fn eval_trial(
    dag: &Dag,
    sys: &System,
    s: &mut Schedule,
    t: TaskId,
    spec: TrialSpec,
    child: Option<(TaskId, f64)>,
) -> (f64, f64) {
    let (TrialSpec::Plain { p, .. } | TrialSpec::Dup { p }) = spec;
    s.begin_trial();
    let finish = spec.apply(dag, sys, s, t);
    let score = match child {
        Some((c, data)) => lookahead_score(sys, s, c, data, p, finish),
        None => finish,
    };
    s.rollback_trial();
    (score, finish)
}

/// Shared ILS processor selection: take the EFT-candidate set within
/// `tolerance`, re-rank near-ties by the lookahead score of `t`'s critical
/// `child` (plain EFT order when `None`), and place `t` (with optional
/// duplication, whose candidates are probed in place under the schedule
/// trial log). Returns nothing; mutates `sched`. `ctx` and `cands` are
/// scratch buffers owned by the caller's scheduling loop.
#[allow(clippy::too_many_arguments)]
fn select_and_place(
    inst: &ProblemInstance,
    sched: &mut Schedule,
    ctx: &mut EftContext,
    cands: &mut Vec<(ProcId, f64, f64)>,
    t: TaskId,
    child: Option<(TaskId, f64)>,
    tolerance: f64,
    duplication: bool,
) {
    let (dag, sys) = (inst.dag(), inst.sys());
    ctx.eft_candidates_into(inst, sched, t, true, tolerance, cands);
    if !duplication {
        let (p, start, finish) = match child {
            Some(child) if cands.len() > 1 => pick_by_lookahead(sys, sched, child, cands),
            _ => cands[0],
        };
        sched
            .insert(t, p, start, finish - start)
            .expect("EFT placement is conflict-free");
        return;
    }

    // Duplication path: duplication can turn a communication-bound
    // processor into the best choice, so the tolerance-filtered set is too
    // narrow — evaluate the top processors by plain EFT instead (at least
    // the whole near-tie set, at most 3 extra).
    let near_ties = cands.len();
    // the EFT-minimal placement without duplication competes too: greedy
    // duplication can occupy gaps later tasks would have used, so it must
    // *win* the local comparison to be committed — it probes first
    let plain = {
        let (p, start, finish) = cands[0];
        TrialSpec::Plain { p, start, finish }
    };
    ctx.eft_candidates_into(inst, sched, t, true, f64::INFINITY, cands);
    cands.truncate(near_ties.max(3));
    let specs = std::iter::once(plain).chain(cands.iter().map(|&(p, _, _)| TrialSpec::Dup { p }));
    // fold in probe order: of two scores within TIME_EPS, the earlier
    // probe wins unless the later one finishes more than TIME_EPS sooner
    let mut best: Option<(f64, f64, TrialSpec)> = None;
    for spec in specs {
        let (score, finish) = eval_trial(dag, sys, sched, t, spec, child);
        let better = match &best {
            None => true,
            Some((bs, bf, _)) => {
                score + TIME_EPS < *bs
                    || ((score - *bs).abs() <= TIME_EPS && finish + TIME_EPS < *bf)
            }
        };
        if better {
            best = Some((score, finish, spec));
        }
    }
    let (_, best_finish, spec) = best.expect("candidate set non-empty");
    let finish = spec.apply(dag, sys, sched, t);
    debug_assert_eq!(
        finish.to_bits(),
        best_finish.to_bits(),
        "re-applying the winning trial must reproduce its finish"
    );
}

/// The ILS-H / ILS-D run: `agg` upward ranks, then [`select_and_place`]
/// for every task in rank order, with the critical-child lookahead when
/// `lookahead` and parent duplication when `duplication`.
fn rank_and_place(
    inst: &ProblemInstance,
    agg: CostAggregation,
    tolerance: f64,
    lookahead: bool,
    duplication: bool,
) -> Schedule {
    let (dag, sys) = (inst.dag(), inst.sys());
    let comm = MeanComm::default();
    let rank = {
        let _span = hetsched_trace::span("rank");
        inst.upward_rank_in(agg, &comm)
    };
    let order = sort_by_priority_desc(&rank);
    let comm = lookahead.then(|| comm.get(dag, sys));
    let mut sched = Schedule::new(dag.num_tasks(), sys.num_procs());
    let mut ctx = EftContext::new(sys);
    let mut cands = Vec::with_capacity(sys.num_procs());
    let _span = hetsched_trace::span("place_loop");
    for (step, t) in order.into_iter().enumerate() {
        hetsched_trace::emit(|| hetsched_trace::Event::TaskSelected {
            step: step as u64,
            task: t.index() as u32,
            priority: rank[t.index()],
        });
        let child = comm.and_then(|comm| critical_child(dag, comm, &rank, t));
        select_and_place(
            inst,
            &mut sched,
            &mut ctx,
            &mut cands,
            t,
            child,
            tolerance,
            duplication,
        );
    }
    sched
}

/// ILS-H: spread-aware ranks + lookahead EFT selection (heterogeneous).
#[derive(Debug, Clone, Copy)]
pub struct IlsH {
    /// Rank aggregation; default `MeanStd(1.0)`.
    pub agg: CostAggregation,
    /// Relative EFT tolerance defining the near-tie candidate set.
    pub tolerance: f64,
    /// Enable the critical-child lookahead (knob 2).
    pub lookahead: bool,
}

impl IlsH {
    /// Default ILS-H configuration (`mean+1sd` ranks, 10% tolerance).
    pub fn new() -> Self {
        IlsH {
            agg: CostAggregation::MeanStd(1.0),
            tolerance: 0.1,
            lookahead: true,
        }
    }
}

impl Default for IlsH {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for IlsH {
    fn name(&self) -> &'static str {
        "ILS-H"
    }

    fn schedule_instance(&self, inst: &ProblemInstance) -> Schedule {
        rank_and_place(inst, self.agg, self.tolerance, self.lookahead, false)
    }
}

/// ILS-D: ILS-H plus selective parent duplication (knob 3).
#[derive(Debug, Clone, Copy)]
pub struct IlsD {
    /// Rank aggregation; default `MeanStd(1.0)`.
    pub agg: CostAggregation,
    /// Relative EFT tolerance defining the near-tie candidate set.
    pub tolerance: f64,
    /// Enable the critical-child lookahead.
    pub lookahead: bool,
}

impl IlsD {
    /// Default ILS-D configuration.
    pub fn new() -> Self {
        IlsD {
            agg: CostAggregation::MeanStd(1.0),
            tolerance: 0.1,
            lookahead: true,
        }
    }
}

impl Default for IlsD {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for IlsD {
    fn name(&self) -> &'static str {
        "ILS-D"
    }

    fn schedule_instance(&self, inst: &ProblemInstance) -> Schedule {
        rank_and_place(inst, self.agg, self.tolerance, self.lookahead, true)
    }
}

/// ILS-M: the homogeneous variant — MCP's ALAP priorities with ILS's
/// insertion + lookahead placement.
#[derive(Debug, Clone, Copy)]
pub struct IlsM {
    /// Relative EFT tolerance for the candidate set.
    pub tolerance: f64,
}

impl IlsM {
    /// Default ILS-M configuration (10% tolerance).
    pub fn new() -> Self {
        IlsM { tolerance: 0.1 }
    }
}

impl Default for IlsM {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for IlsM {
    fn name(&self) -> &'static str {
        "ILS-M"
    }

    fn schedule_instance(&self, inst: &ProblemInstance) -> Schedule {
        let (dag, sys) = (inst.dag(), inst.sys());
        let agg = CostAggregation::Mean;
        let comm = MeanComm::default();
        let (alap, rank) = {
            let _span = hetsched_trace::span("rank");
            // lookahead uses upward rank to find critical children
            (inst.alst_in(agg, &comm), inst.upward_rank_in(agg, &comm))
        };
        let order = alap_order(dag, &alap);
        let comm = comm.get(dag, sys);
        let mut sched = Schedule::new(dag.num_tasks(), sys.num_procs());
        let mut ctx = EftContext::new(sys);
        let mut cands = Vec::with_capacity(sys.num_procs());
        let _span = hetsched_trace::span("place_loop");
        for (step, t) in order.into_iter().enumerate() {
            hetsched_trace::emit(|| hetsched_trace::Event::TaskSelected {
                step: step as u64,
                task: t.index() as u32,
                priority: alap[t.index()],
            });
            select_and_place(
                inst,
                &mut sched,
                &mut ctx,
                &mut cands,
                t,
                critical_child(dag, comm, &rank, t),
                self.tolerance,
                false,
            );
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Heft;
    use crate::validate::validate;
    use hetsched_dag::builder::dag_from_edges;
    use hetsched_dag::Dag;
    use hetsched_platform::{EtcMatrix, Network};

    fn diamond_het() -> (Dag, System) {
        let dag = dag_from_edges(
            &[2.0, 3.0, 3.0, 2.0],
            &[(0, 1, 5.0), (0, 2, 5.0), (1, 3, 5.0), (2, 3, 5.0)],
        )
        .unwrap();
        let etc = EtcMatrix::from_fn(4, 3, |t, p| {
            // processor 2 is slow for everything; 0 and 1 alternate
            let base = [2.0, 3.0, 3.0, 2.0][t.index()];
            match p.index() {
                0 => base,
                1 => base * 1.2,
                _ => base * 2.0,
            }
        });
        (dag, System::new(etc, Network::unit(3)))
    }

    #[test]
    fn ils_h_produces_valid_schedules() {
        let (dag, sys) = diamond_het();
        let s = IlsH::new().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
        assert!(s.is_complete());
    }

    #[test]
    fn ils_d_produces_valid_schedules_and_may_duplicate() {
        // high-CCR fork where duplication is the right move
        let dag = dag_from_edges(&[1.0, 2.0, 2.0], &[(0, 1, 50.0), (0, 2, 50.0)]).unwrap();
        let sys = System::homogeneous_unit(&dag, 2);
        let s = IlsD::new().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
        assert!(s.makespan() <= 3.0 + 1e-9, "makespan {}", s.makespan());
        assert!(s.num_duplicates() >= 1);
    }

    #[test]
    fn ils_m_valid_on_homogeneous() {
        let dag = dag_from_edges(
            &[1.0, 4.0, 1.0, 1.0, 2.0],
            &[
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 4, 1.0),
                (2, 3, 2.0),
                (3, 4, 1.0),
            ],
        )
        .unwrap();
        let sys = System::homogeneous_unit(&dag, 2);
        let s = IlsM::new().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
    }

    #[test]
    fn lookahead_breaks_near_ties_toward_the_child() {
        // t0 can go on p0 or p1 with identical EFT; its only child's data
        // is huge, and p1 is much faster for the child — lookahead must
        // route t0 to the processor that serves the child best (the child
        // then runs locally on p1).
        let dag = dag_from_edges(&[4.0, 8.0], &[(0, 1, 100.0)]).unwrap();
        let etc = EtcMatrix::from_fn(2, 2, |t, p| match (t.index(), p.index()) {
            (0, _) => 4.0,  // t0 identical everywhere
            (1, 0) => 80.0, // t1 terrible on p0
            (1, 1) => 8.0,  // t1 great on p1
            _ => unreachable!(),
        });
        let sys = System::new(etc, Network::unit(2));
        let s = IlsH::new().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
        assert_eq!(
            s.task_proc(hetsched_dag::TaskId(0)),
            Some(hetsched_platform::ProcId(1))
        );
        assert_eq!(
            s.task_proc(hetsched_dag::TaskId(1)),
            Some(hetsched_platform::ProcId(1))
        );
        // HEFT (pure EFT, tie -> p0) pays the 100-unit message or the slow child
        let heft = Heft::new().schedule(&dag, &sys).makespan();
        assert!(
            s.makespan() <= heft + 1e-9,
            "ils {} heft {heft}",
            s.makespan()
        );
        assert_eq!(s.makespan(), 12.0);
    }

    #[test]
    fn zero_tolerance_disables_lookahead_effect_when_unique_best() {
        let (dag, sys) = diamond_het();
        let strict = IlsH {
            tolerance: 0.0,
            ..IlsH::new()
        };
        let s = strict.schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
    }

    /// The pick by `min_by` with a comparator that scores both sides of
    /// every comparison against the live schedule: the oracle for
    /// `pick_by_lookahead`.
    fn pick_pairwise(
        sys: &System,
        sched: &Schedule,
        (c, data): (TaskId, f64),
        cands: &[(ProcId, f64, f64)],
    ) -> (ProcId, f64, f64) {
        cands
            .iter()
            .copied()
            .min_by(|&(pa, _, fa), &(pb, _, fb)| {
                let sa = lookahead_score(sys, sched, c, data, pa, fa);
                let sb = lookahead_score(sys, sched, c, data, pb, fb);
                sa.total_cmp(&sb)
                    .then_with(|| fa.total_cmp(&fb))
                    .then_with(|| pa.cmp(&pb))
            })
            .expect("candidate set non-empty")
    }

    #[test]
    fn single_score_pick_equals_the_pairwise_comparator() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x11a5);
        for case in 0..400 {
            let np = rng.gen_range(1..=8usize);
            let n = 2 * np + 1;
            // Small integers on a unit network make scores, finishes and
            // end times collide often, so every tie-break level is hit.
            let small = case % 2 == 0;
            let draw = |rng: &mut StdRng, lo: f64, hi: f64| {
                if small {
                    rng.gen_range(lo as u32..=hi as u32) as f64
                } else {
                    rng.gen_range(lo..hi)
                }
            };
            let etc = EtcMatrix::from_fn(n, np, |_, _| draw(&mut rng, 1.0, 6.0));
            let sys = System::new(etc, Network::unit(np));
            let mut sched = Schedule::new(n, np);
            for p in 0..np {
                let (start, dur) = (draw(&mut rng, 0.0, 8.0), draw(&mut rng, 1.0, 4.0));
                sched
                    .insert(TaskId(p as u32), ProcId(p as u32), start, dur)
                    .unwrap();
            }
            let child = (TaskId(n as u32 - 1), draw(&mut rng, 0.0, 5.0));
            let k = rng.gen_range(1..=np);
            let mut procs: Vec<u32> = (0..np as u32).collect();
            for i in 0..k {
                let j = rng.gen_range(i..np);
                procs.swap(i, j);
            }
            let mut cands: Vec<(ProcId, f64, f64)> = procs[..k]
                .iter()
                .map(|&p| {
                    let start = draw(&mut rng, 0.0, 10.0);
                    (ProcId(p), start, start + draw(&mut rng, 1.0, 3.0))
                })
                .collect();
            // EFT order, as `eft_candidates_into` leaves the set.
            cands.sort_by(|a, b| a.2.total_cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
            let fast = pick_by_lookahead(&sys, &sched, child, &cands);
            assert_eq!(
                fast,
                pick_pairwise(&sys, &sched, child, &cands),
                "case {case}"
            );
        }
    }

    #[test]
    fn critical_child_picks_heaviest_successor() {
        let dag = dag_from_edges(&[1.0, 5.0, 1.0], &[(0, 1, 2.0), (0, 2, 2.0)]).unwrap();
        let sys = System::homogeneous_unit(&dag, 2);
        let rank = crate::rank::oracle::upward_rank(&dag, &sys, CostAggregation::Mean);
        let comm = crate::rank::mean_comm_table(&dag, &sys);
        let cc = critical_child(&dag, &comm, &rank, hetsched_dag::TaskId(0));
        assert_eq!(cc.map(|(c, _)| c), Some(hetsched_dag::TaskId(1)));
        // exit task has no critical child
        assert_eq!(
            critical_child(&dag, &comm, &rank, hetsched_dag::TaskId(1)),
            None
        );
    }
}
