//! Task prioritization: upward/downward ranks and ALAP-style latest start
//! times, parameterized by a [`CostAggregation`] policy.
//!
//! All ranks here are *platform-aware* (they use the system's ETC matrix
//! and mean communication costs) unlike the abstract levels of
//! `hetsched_dag::analysis`, which work on raw weights.
//!
//! The public functions take a [`ProblemInstance`] and return shared
//! `Arc` vectors served from its memo, so every algorithm run against the
//! same instance computes each `(rank, aggregation)` pair once. The
//! `*_raw` kernels hold the actual folds; the memo only caches their
//! results, so values are bit-identical to a fresh computation.
//!
//! Every communication-aware fold reads an edge's mean communication cost
//! `c̄` through a closure over its edge id. A full kernel reads a table of
//! every edge's cost, built once per scheduling run and dropped with it;
//! the incremental re-seeding of patched instances, which re-evaluates a
//! few tasks, calls [`System::mean_comm`] per edge instead. Both give the
//! same bits, so the folds agree either way.

use std::cell::OnceCell;
use std::sync::Arc;

use hetsched_dag::{Dag, TaskId};
use hetsched_platform::System;

use crate::cost::CostAggregation;
use crate::instance::ProblemInstance;

/// Mean communication cost of every edge of `dag` on `sys`, indexed like
/// [`Dag::edges`]: entry `e` is `sys.mean_comm(dag.edges()[e].data)` bit
/// for bit, computed by the batched
/// [`hetsched_platform::Network::mean_comm_times`].
pub(crate) fn mean_comm_table(dag: &Dag, sys: &System) -> Vec<f64> {
    let data: Vec<f64> = dag.edges().iter().map(|e| e.data).collect();
    let mut out = vec![0.0; data.len()];
    sys.network().mean_comm_times(&data, &mut out);
    out
}

/// One scheduling run's [`mean_comm_table`], built on first use and
/// dropped with the run, so a run that reads several communication-aware
/// ranks (CPOP's upward and downward ranks, ILS's rank and critical
/// children) folds each edge's cost once. Nothing per-edge outlives the
/// run: the instance memo keeps only the rank vectors.
#[derive(Debug, Default)]
pub(crate) struct MeanComm(OnceCell<Vec<f64>>);

impl MeanComm {
    /// The table for `(dag, sys)`; every call within one run must pass the
    /// same pair.
    pub(crate) fn get(&self, dag: &Dag, sys: &System) -> &[f64] {
        let table = self.0.get_or_init(|| mean_comm_table(dag, sys));
        debug_assert_eq!(table.len(), dag.num_edges());
        table
    }
}

/// Upward rank of every task (HEFT's `rank_u`):
///
/// ```text
/// rank_u(t) = ŵ(t) + max over successors s of ( c̄(t,s) + rank_u(s) )
/// ```
///
/// where `ŵ` is the aggregated execution cost and `c̄` the mean
/// communication time of the connecting edge over distinct processor
/// pairs. Scheduling tasks by non-increasing `rank_u` is a topological
/// order.
///
/// ```
/// use hetsched_core::{rank::upward_rank, CostAggregation, ProblemInstance};
/// use hetsched_dag::builder::dag_from_edges;
/// use hetsched_platform::System;
///
/// let dag = dag_from_edges(&[2.0, 3.0], &[(0, 1, 4.0)]).unwrap();
/// let sys = System::homogeneous_unit(&dag, 2);
/// let inst = ProblemInstance::new(dag, sys);
/// let r = upward_rank(&inst, CostAggregation::Mean);
/// assert_eq!(*r, vec![2.0 + 4.0 + 3.0, 3.0]);
/// ```
pub fn upward_rank(inst: &ProblemInstance, agg: CostAggregation) -> Arc<Vec<f64>> {
    inst.upward_rank(agg)
}

pub(crate) fn upward_rank_raw(
    dag: &Dag,
    sys: &System,
    agg: CostAggregation,
    comm: &[f64],
) -> Vec<f64> {
    let mut rank = vec![0.0f64; dag.num_tasks()];
    for &t in dag.topo_order().iter().rev() {
        rank[t.index()] = upward_entry(dag, sys, agg, t, &rank, |e| comm[e]);
    }
    rank
}

/// The per-task fold of [`upward_rank_raw`], shared with the incremental
/// re-seeding of [`ProblemInstance::apply_deltas`] (`crate::delta`) so
/// both paths evaluate the identical expression — the basis of the
/// bit-identity argument for seeded rank memos. `comm(e)` is the mean
/// communication cost of edge `e` (an index into [`Dag::edges`]).
#[inline]
pub(crate) fn upward_entry(
    dag: &Dag,
    sys: &System,
    agg: CostAggregation,
    t: TaskId,
    rank: &[f64],
    comm: impl Fn(usize) -> f64,
) -> f64 {
    let edges = dag.edges();
    let tail = dag
        .out_edge_range(t)
        .map(|e| comm(e) + rank[edges[e].dst.index()])
        .fold(0.0f64, f64::max);
    agg.exec(sys, t) + tail
}

/// Downward rank of every task (HEFT's `rank_d`):
///
/// ```text
/// rank_d(t) = max over predecessors p of ( rank_d(p) + ŵ(p) + c̄(p,t) )
/// ```
///
/// Entries have `rank_d = 0`. `rank_d(t) + rank_u(t)` is the length of the
/// longest aggregated-cost path through `t`; CPOP uses it to find the
/// critical path.
pub fn downward_rank(inst: &ProblemInstance, agg: CostAggregation) -> Arc<Vec<f64>> {
    inst.downward_rank(agg)
}

pub(crate) fn downward_rank_raw(
    dag: &Dag,
    sys: &System,
    agg: CostAggregation,
    comm: &[f64],
) -> Vec<f64> {
    let mut rank = vec![0.0f64; dag.num_tasks()];
    for &t in dag.topo_order() {
        rank[t.index()] = downward_entry(dag, sys, agg, t, &rank, |e| comm[e]);
    }
    rank
}

/// The per-task fold of [`downward_rank_raw`] (see [`upward_entry`]).
#[inline]
pub(crate) fn downward_entry(
    dag: &Dag,
    sys: &System,
    agg: CostAggregation,
    t: TaskId,
    rank: &[f64],
    comm: impl Fn(usize) -> f64,
) -> f64 {
    let edges = dag.edges();
    dag.in_edge_ids(t)
        .iter()
        .map(|&e| {
            let p = edges[e as usize].src;
            rank[p.index()] + agg.exec(sys, p) + comm(e as usize)
        })
        .fold(0.0f64, f64::max)
}

/// Static level: like [`upward_rank`] but ignoring communication (the
/// `SL` of DLS), so it needs no communication table.
pub fn static_level(inst: &ProblemInstance, agg: CostAggregation) -> Arc<Vec<f64>> {
    inst.static_level(agg)
}

pub(crate) fn static_level_raw(dag: &Dag, sys: &System, agg: CostAggregation) -> Vec<f64> {
    let mut rank = vec![0.0f64; dag.num_tasks()];
    for &t in dag.topo_order().iter().rev() {
        rank[t.index()] = static_level_entry(dag, sys, agg, t, &rank);
    }
    rank
}

/// The per-task fold of [`static_level_raw`] (see [`upward_entry`]).
#[inline]
pub(crate) fn static_level_entry(
    dag: &Dag,
    sys: &System,
    agg: CostAggregation,
    t: TaskId,
    rank: &[f64],
) -> f64 {
    let tail = dag
        .successors(t)
        .map(|(s, _)| rank[s.index()])
        .fold(0.0f64, f64::max);
    agg.exec(sys, t) + tail
}

/// Earliest possible start times ignoring resource contention (ASAP times
/// under aggregated costs): `aest(t) = rank_d(t)`, exposed separately for
/// readability in HCPT-style algorithms.
pub fn aest(inst: &ProblemInstance, agg: CostAggregation) -> Arc<Vec<f64>> {
    inst.aest(agg)
}

/// Latest start times without delaying the (aggregated-cost) critical
/// path: `alst(t) = CP − rank_u(t)` where `CP = max rank_u`. A task is
/// *critical* iff `alst(t) == aest(t)` (zero float).
pub fn alst(inst: &ProblemInstance, agg: CostAggregation) -> Arc<Vec<f64>> {
    inst.alst(agg)
}

/// PETS rank: the rounded `ACC + DTC + RPT` recurrence over topological
/// order, where `ACC` is the aggregated execution cost, `DTC` the total
/// outgoing mean communication, and `RPT` the maximal rank of any
/// predecessor.
pub fn pets_rank(inst: &ProblemInstance, agg: CostAggregation) -> Arc<Vec<f64>> {
    inst.pets_rank(agg)
}

pub(crate) fn pets_rank_raw(
    dag: &Dag,
    sys: &System,
    agg: CostAggregation,
    comm: &[f64],
) -> Vec<f64> {
    let mut rank = vec![0.0f64; dag.num_tasks()];
    for &t in dag.topo_order() {
        rank[t.index()] = pets_entry(dag, sys, agg, t, &rank, |e| comm[e]);
    }
    rank
}

/// The per-task fold of [`pets_rank_raw`] (see [`upward_entry`]).
#[inline]
pub(crate) fn pets_entry(
    dag: &Dag,
    sys: &System,
    agg: CostAggregation,
    t: TaskId,
    rank: &[f64],
    comm: impl Fn(usize) -> f64,
) -> f64 {
    let acc = agg.exec(sys, t);
    let dtc: f64 = dag.out_edge_range(t).map(comm).sum();
    let rpt = dag
        .predecessors(t)
        .map(|(p, _)| rank[p.index()])
        .fold(0.0f64, f64::max);
    (acc + dtc + rpt).round()
}

/// Indices of tasks sorted by **non-increasing** priority with a stable
/// smallest-id tie-break — the canonical list-scheduling order builder.
pub fn sort_by_priority_desc(priority: &[f64]) -> Vec<TaskId> {
    let mut order: Vec<TaskId> = (0..priority.len() as u32).map(TaskId).collect();
    order.sort_by(|&a, &b| {
        priority[b.index()]
            .total_cmp(&priority[a.index()])
            .then_with(|| a.cmp(&b))
    });
    order
}

/// The aggregated-cost critical path: tasks with maximal
/// `rank_u + rank_d`, returned in topological order. This is CPOP's
/// critical path set.
pub fn critical_path_tasks(inst: &ProblemInstance, agg: CostAggregation) -> Arc<Vec<TaskId>> {
    inst.critical_path_tasks(agg)
}

/// Critical-path extraction given already-computed ranks (the memoized
/// path used by [`ProblemInstance::critical_path_tasks`]).
pub(crate) fn critical_path_from_ranks(dag: &Dag, up: &[f64], down: &[f64]) -> Vec<TaskId> {
    let cp = up.iter().copied().fold(0.0f64, f64::max);
    let eps = 1e-9 * cp.max(1.0);
    dag.topo_order()
        .iter()
        .copied()
        .filter(|t| (up[t.index()] + down[t.index()] - cp).abs() <= eps)
        .collect()
}

/// The rank kernels with every fold calling the scalar
/// [`System::mean_comm`] per edge over the adjacency iterators: the
/// bit-identity oracle for the table-driven kernels and the seeded memos.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    pub(crate) fn upward_rank(dag: &Dag, sys: &System, agg: CostAggregation) -> Vec<f64> {
        let mut rank = vec![0.0f64; dag.num_tasks()];
        for &t in dag.topo_order().iter().rev() {
            let tail = dag
                .successors(t)
                .map(|(s, data)| sys.mean_comm(data) + rank[s.index()])
                .fold(0.0f64, f64::max);
            rank[t.index()] = agg.exec(sys, t) + tail;
        }
        rank
    }

    pub(crate) fn downward_rank(dag: &Dag, sys: &System, agg: CostAggregation) -> Vec<f64> {
        let mut rank = vec![0.0f64; dag.num_tasks()];
        for &t in dag.topo_order() {
            rank[t.index()] = dag
                .predecessors(t)
                .map(|(p, data)| rank[p.index()] + agg.exec(sys, p) + sys.mean_comm(data))
                .fold(0.0f64, f64::max);
        }
        rank
    }

    pub(crate) fn static_level(dag: &Dag, sys: &System, agg: CostAggregation) -> Vec<f64> {
        let mut rank = vec![0.0f64; dag.num_tasks()];
        for &t in dag.topo_order().iter().rev() {
            let tail = dag
                .successors(t)
                .map(|(s, _)| rank[s.index()])
                .fold(0.0f64, f64::max);
            rank[t.index()] = agg.exec(sys, t) + tail;
        }
        rank
    }

    pub(crate) fn pets_rank(dag: &Dag, sys: &System, agg: CostAggregation) -> Vec<f64> {
        let mut rank = vec![0.0f64; dag.num_tasks()];
        for &t in dag.topo_order() {
            let acc = agg.exec(sys, t);
            let dtc: f64 = dag.successors(t).map(|(_, data)| sys.mean_comm(data)).sum();
            let rpt = dag
                .predecessors(t)
                .map(|(p, _)| rank[p.index()])
                .fold(0.0f64, f64::max);
            rank[t.index()] = (acc + dtc + rpt).round();
        }
        rank
    }

    /// `v` as raw bits, for bit-for-bit comparisons.
    pub(crate) fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every aggregation policy the ranks are parameterized by.
    pub(crate) const AGGS: [CostAggregation; 5] = [
        CostAggregation::Mean,
        CostAggregation::Median,
        CostAggregation::Best,
        CostAggregation::Worst,
        CostAggregation::MeanStd(1.0),
    ];

    /// Assert that `inst`'s four rank kernels under `agg` bit-equal the
    /// scalar folds on `(dag, sys)`.
    pub(crate) fn assert_ranks_match(
        inst: &ProblemInstance,
        dag: &Dag,
        sys: &System,
        agg: CostAggregation,
    ) {
        assert_eq!(
            bits(&inst.upward_rank(agg)),
            bits(&upward_rank(dag, sys, agg))
        );
        assert_eq!(
            bits(&inst.downward_rank(agg)),
            bits(&downward_rank(dag, sys, agg))
        );
        assert_eq!(
            bits(&inst.static_level(agg)),
            bits(&static_level(dag, sys, agg))
        );
        assert_eq!(bits(&inst.pets_rank(agg)), bits(&pets_rank(dag, sys, agg)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_dag::builder::dag_from_edges;
    use hetsched_dag::Dag;
    use hetsched_platform::System;

    /// Diamond with distinct weights; homogeneous unit system so aggregated
    /// costs equal raw weights and mean comm equals edge data.
    fn setup() -> (Dag, System) {
        let dag = dag_from_edges(
            &[1.0, 2.0, 3.0, 4.0],
            &[(0, 1, 10.0), (0, 2, 20.0), (1, 3, 30.0), (2, 3, 40.0)],
        )
        .unwrap();
        let sys = System::homogeneous_unit(&dag, 3);
        (dag, sys)
    }

    fn setup_instance() -> ProblemInstance<'static> {
        let (dag, sys) = setup();
        ProblemInstance::new(dag, sys)
    }

    #[test]
    fn upward_rank_matches_hand_computation() {
        let inst = setup_instance();
        let r = upward_rank(&inst, CostAggregation::Mean);
        // t3 = 4; t1 = 2 + 30 + 4 = 36; t2 = 3 + 40 + 4 = 47
        // t0 = 1 + max(10 + 36, 20 + 47) = 68
        assert_eq!(*r, vec![68.0, 36.0, 47.0, 4.0]);
    }

    #[test]
    fn downward_rank_matches_hand_computation() {
        let inst = setup_instance();
        let r = downward_rank(&inst, CostAggregation::Mean);
        // t0 = 0; t1 = 0 + 1 + 10 = 11; t2 = 0 + 1 + 20 = 21
        // t3 = max(11 + 2 + 30, 21 + 3 + 40) = 64
        assert_eq!(*r, vec![0.0, 11.0, 21.0, 64.0]);
    }

    #[test]
    fn static_level_ignores_comm() {
        let inst = setup_instance();
        let r = static_level(&inst, CostAggregation::Mean);
        // t3 = 4; t1 = 6; t2 = 7; t0 = 1 + 7 = 8
        assert_eq!(*r, vec![8.0, 6.0, 7.0, 4.0]);
    }

    #[test]
    fn rank_order_is_topological() {
        let inst = setup_instance();
        let r = upward_rank(&inst, CostAggregation::Mean);
        let order = sort_by_priority_desc(&r);
        assert!(hetsched_dag::topo::is_topological(inst.dag(), &order));
    }

    #[test]
    fn critical_path_tasks_heavy_branch() {
        let inst = setup_instance();
        let cp = critical_path_tasks(&inst, CostAggregation::Mean);
        assert_eq!(*cp, vec![TaskId(0), TaskId(2), TaskId(3)]);
    }

    #[test]
    fn alst_zero_on_critical_path() {
        let inst = setup_instance();
        let a = aest(&inst, CostAggregation::Mean);
        let l = alst(&inst, CostAggregation::Mean);
        for &t in critical_path_tasks(&inst, CostAggregation::Mean).iter() {
            assert!((a[t.index()] - l[t.index()]).abs() < 1e-9, "{t} critical");
        }
        // non-critical task 1 has slack
        assert!(l[1] > a[1]);
    }

    #[test]
    fn single_proc_system_mean_comm_is_zero() {
        let dag = dag_from_edges(&[1.0, 1.0], &[(0, 1, 100.0)]).unwrap();
        let sys = System::homogeneous_unit(&dag, 1);
        let r = upward_rank(
            &ProblemInstance::from_refs(&dag, &sys),
            CostAggregation::Mean,
        );
        // comm collapses to zero on one processor
        assert_eq!(*r, vec![2.0, 1.0]);
    }

    #[test]
    fn ties_break_by_task_id() {
        let pri = vec![5.0, 7.0, 5.0];
        let order = sort_by_priority_desc(&pri);
        assert_eq!(order, vec![TaskId(1), TaskId(0), TaskId(2)]);
    }

    #[test]
    fn raw_and_memoized_agree_bitwise() {
        let (dag, sys) = setup();
        for agg in oracle::AGGS {
            oracle::assert_ranks_match(&ProblemInstance::from_refs(&dag, &sys), &dag, &sys, agg);
        }
    }

    #[test]
    fn mean_comm_table_is_the_scalar_per_edge() {
        let dag = dag_from_edges(
            &[1.0; 5],
            &[
                (0, 1, 0.5),
                (0, 2, 3.0),
                (1, 3, 7.25),
                (2, 3, 0.0),
                (3, 4, 1e9),
            ],
        )
        .unwrap();
        let sys = System::homogeneous(&dag, 4, 0.3, 1.7);
        let table = MeanComm::default();
        let got = table.get(&dag, &sys);
        for (e, edge) in dag.edges().iter().enumerate() {
            assert_eq!(got[e].to_bits(), sys.mean_comm(edge.data).to_bits());
        }
        assert!(std::ptr::eq(got, table.get(&dag, &sys)), "built once");
    }
}
