//! The immutable problem IR shared by every scheduler.
//!
//! [`ProblemInstance`] bundles one (DAG, system) pair behind a single
//! handle. The underlying arenas are already struct-of-arrays — the
//! [`Dag`] holds CSR predecessor/successor adjacency plus a cached
//! topological order, and the [`System`] holds flattened ETC rows and a
//! dense link-cost table — so the instance does not copy them; what it
//! adds is a *memo* of the derived rank vectors (upward/downward rank,
//! static level, ALST, PETS rank, critical-path membership) so that every
//! algorithm run against the same instance shares one computation per
//! `(rank kind, aggregation)` pair instead of recomputing privately.
//!
//! # Bit-identity contract
//!
//! Memoization never changes float results: each rank vector is computed
//! by exactly the same fold, in exactly the same order, as the
//! per-algorithm code previously ran — it is simply computed once and the
//! resulting `Arc` shared. Every consumer therefore observes values
//! bit-identical to a fresh computation, which is what keeps the PR 2
//! reference-engine cross-check (and the cross-crate grid test) green.
//!
//! # Sharing
//!
//! `ProblemInstance` is `Send + Sync`: the serve daemon caches instances
//! behind `Arc` keyed by content fingerprint so concurrent workers share
//! one build, and the portfolio runner fans a single `&ProblemInstance`
//! out across scoped threads.

use std::borrow::Cow;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use hetsched_dag::{Dag, Fingerprint, TaskId};
use hetsched_platform::System;

use crate::cost::CostAggregation;
use crate::rank::{self, MeanComm};

/// Lazily memoized rank vectors, keyed by aggregation policy.
///
/// Linear-scan association lists: real runs touch one or two aggregation
/// policies per instance, so a `Vec` beats any map.
#[derive(Debug, Default)]
struct RankMemo {
    upward: Vec<(CostAggregation, Arc<Vec<f64>>)>,
    downward: Vec<(CostAggregation, Arc<Vec<f64>>)>,
    static_level: Vec<(CostAggregation, Arc<Vec<f64>>)>,
    alst: Vec<(CostAggregation, Arc<Vec<f64>>)>,
    pets: Vec<(CostAggregation, Arc<Vec<f64>>)>,
    critical_path: Vec<(CostAggregation, Arc<Vec<TaskId>>)>,
}

fn lookup<T>(slot: &[(CostAggregation, Arc<T>)], agg: CostAggregation) -> Option<Arc<T>> {
    slot.iter()
        .find(|(a, _)| *a == agg)
        .map(|(_, v)| Arc::clone(v))
}

/// One immutable (DAG, system) pair with shared, lazily memoized ranks.
///
/// Build it once per problem with [`ProblemInstance::new`] (taking
/// ownership — what long-lived holders like the serve instance cache
/// need) or [`ProblemInstance::from_refs`] (borrowing the arenas with no
/// copy or hash — what the transient default [`crate::Scheduler::schedule`]
/// path uses), then hand `&ProblemInstance` to any number of schedulers —
/// sequentially or concurrently.
#[derive(Debug)]
pub struct ProblemInstance<'a> {
    dag: Cow<'a, Dag>,
    sys: Cow<'a, System>,
    /// See [`ProblemInstance::content_fold`].
    fold: OnceLock<Fingerprint>,
    memo: Mutex<RankMemo>,
}

impl ProblemInstance<'static> {
    /// Build an instance, taking ownership of the arenas.
    pub fn new(dag: Dag, sys: System) -> Self {
        ProblemInstance::from_cows(Cow::Owned(dag), Cow::Owned(sys))
    }
}

impl<'a> ProblemInstance<'a> {
    /// Build an instance over borrowed arenas. No copy, no hashing: this
    /// costs two empty lock initializations, which is what keeps the
    /// single-shot `schedule(dag, sys)` path as fast as before the IR
    /// existed.
    pub fn from_refs(dag: &'a Dag, sys: &'a System) -> Self {
        ProblemInstance::from_cows(Cow::Borrowed(dag), Cow::Borrowed(sys))
    }

    /// Build an instance from `Cow`s: every constructor does, and the
    /// copy-on-write path of [`ProblemInstance::apply_deltas`](crate::delta)
    /// keeps untouched arenas borrowed from the parent. Fold and memo
    /// start empty; a patch seeds the memo by
    /// [`ProblemInstance::seed_memo_from`].
    pub(crate) fn from_cows(dag: Cow<'a, Dag>, sys: Cow<'a, System>) -> Self {
        ProblemInstance {
            dag,
            sys,
            fold: OnceLock::new(),
            memo: Mutex::new(RankMemo::default()),
        }
    }

    /// Convert into an owning (`'static`) instance, cloning any
    /// still-borrowed arena and carrying the content fold and the rank
    /// memo over untouched — what the serve instance cache needs to store
    /// a patched instance whose memos were seeded from its parent.
    pub fn into_owned(self) -> ProblemInstance<'static> {
        ProblemInstance {
            dag: Cow::Owned(self.dag.into_owned()),
            sys: Cow::Owned(self.sys.into_owned()),
            fold: self.fold,
            memo: self.memo,
        }
    }

    /// The task graph.
    #[inline]
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The target platform.
    #[inline]
    pub fn sys(&self) -> &System {
        &self.sys
    }

    /// Stable content fingerprint of the (DAG, system) pair — the key the
    /// serve instance cache uses: [`ProblemInstance::content_fold`],
    /// finished.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.content_fold().finish()
    }

    /// The content fold behind [`ProblemInstance::fingerprint`], before
    /// its finalizer. Computed on first query and cached, so a key that
    /// extends the problem's content (a request's algorithm and options)
    /// continues a clone of it instead of folding the content again.
    pub fn content_fold(&self) -> &Fingerprint {
        self.fold.get_or_init(|| {
            let mut fp = Fingerprint::new();
            self.dag.fold_fingerprint(&mut fp);
            self.sys.fold_fingerprint(&mut fp);
            fp
        })
    }

    /// The fingerprint [`ProblemInstance::fingerprint`] would report for
    /// `(dag, sys)`, without building an owning instance.
    pub fn content_fingerprint(dag: &Dag, sys: &System) -> u64 {
        ProblemInstance::from_refs(dag, sys).fingerprint()
    }

    fn memo(&self) -> MutexGuard<'_, RankMemo> {
        // Rank computations cannot panic mid-insert in any way that leaves
        // the memo inconsistent (entries are pushed whole), so a poisoned
        // lock is safe to recover.
        self.memo.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Memoize `compute` under `select(memo)` keyed by `agg`.
    ///
    /// The value is computed while holding the lock so concurrent callers
    /// never duplicate work; `compute` must not touch the memo (all rank
    /// kernels only read `dag`/`sys`).
    fn memoized<T>(
        &self,
        select: impl FnOnce(&mut RankMemo) -> &mut Vec<(CostAggregation, Arc<T>)>,
        agg: CostAggregation,
        compute: impl FnOnce(&Dag, &System) -> T,
    ) -> Arc<T> {
        let mut memo = self.memo();
        let slot = select(&mut memo);
        if let Some(v) = lookup(slot, agg) {
            hetsched_trace::counters(|c| c.rank_memo_hits += 1);
            return v;
        }
        hetsched_trace::counters(|c| c.rank_memo_misses += 1);
        let v = Arc::new(compute(&self.dag, &self.sys));
        slot.push((agg, Arc::clone(&v)));
        v
    }

    /// Like [`ProblemInstance::memoized`] for vectors *derived from other
    /// memoized vectors*: the dependencies are resolved up front (each
    /// taking the lock on its own), then the derived value is inserted
    /// under a fresh lock. A racing thread may compute the same value; the
    /// first insert wins so every consumer shares one `Arc`.
    fn memoized_derived<T>(
        &self,
        select: impl Fn(&mut RankMemo) -> &mut Vec<(CostAggregation, Arc<T>)>,
        agg: CostAggregation,
        compute: impl FnOnce(&Self) -> T,
    ) -> Arc<T> {
        if let Some(v) = lookup(select(&mut self.memo()), agg) {
            hetsched_trace::counters(|c| c.rank_memo_hits += 1);
            return v;
        }
        hetsched_trace::counters(|c| c.rank_memo_misses += 1);
        let v = Arc::new(compute(self));
        let mut memo = self.memo();
        let slot = select(&mut memo);
        if let Some(existing) = lookup(slot, agg) {
            return existing;
        }
        slot.push((agg, Arc::clone(&v)));
        v
    }

    /// Upward rank (HEFT `rank_u`) under `agg`, memoized.
    pub fn upward_rank(&self, agg: CostAggregation) -> Arc<Vec<f64>> {
        self.upward_rank_in(agg, &MeanComm::default())
    }

    /// [`Self::upward_rank`] reading a run's shared communication table
    /// on a miss.
    pub(crate) fn upward_rank_in(&self, agg: CostAggregation, comm: &MeanComm) -> Arc<Vec<f64>> {
        self.memoized(
            |m| &mut m.upward,
            agg,
            |d, s| rank::upward_rank_raw(d, s, agg, comm.get(d, s)),
        )
    }

    /// Downward rank (`rank_d`) under `agg`, memoized.
    pub fn downward_rank(&self, agg: CostAggregation) -> Arc<Vec<f64>> {
        self.downward_rank_in(agg, &MeanComm::default())
    }

    /// [`Self::downward_rank`] reading a run's shared communication table
    /// on a miss.
    pub(crate) fn downward_rank_in(&self, agg: CostAggregation, comm: &MeanComm) -> Arc<Vec<f64>> {
        self.memoized(
            |m| &mut m.downward,
            agg,
            |d, s| rank::downward_rank_raw(d, s, agg, comm.get(d, s)),
        )
    }

    /// Static level (communication-free upward rank) under `agg`, memoized.
    pub fn static_level(&self, agg: CostAggregation) -> Arc<Vec<f64>> {
        self.memoized(
            |m| &mut m.static_level,
            agg,
            |d, s| rank::static_level_raw(d, s, agg),
        )
    }

    /// Absolute earliest start time (HCPT AEST) under `agg` — an alias for
    /// the downward rank, sharing its memo entry.
    pub fn aest(&self, agg: CostAggregation) -> Arc<Vec<f64>> {
        self.downward_rank(agg)
    }

    /// Absolute latest start time (HCPT/MCP ALST) under `agg`, memoized;
    /// derived from the memoized upward rank.
    pub fn alst(&self, agg: CostAggregation) -> Arc<Vec<f64>> {
        self.alst_in(agg, &MeanComm::default())
    }

    /// [`Self::alst`] reading a run's shared communication table if the
    /// upward rank it derives from misses.
    pub(crate) fn alst_in(&self, agg: CostAggregation, comm: &MeanComm) -> Arc<Vec<f64>> {
        self.memoized_derived(
            |m| &mut m.alst,
            agg,
            |inst| {
                let up = inst.upward_rank_in(agg, comm);
                let cp = up.iter().copied().fold(0.0f64, f64::max);
                up.iter().map(|&r| cp - r).collect()
            },
        )
    }

    /// PETS rank (rounded ACC + DTC + RPT recurrence) under `agg`,
    /// memoized.
    pub fn pets_rank(&self, agg: CostAggregation) -> Arc<Vec<f64>> {
        self.memoized(
            |m| &mut m.pets,
            agg,
            |d, s| rank::pets_rank_raw(d, s, agg, &rank::mean_comm_table(d, s)),
        )
    }

    /// Tasks on a critical path under `agg`, in topological order,
    /// memoized; derived from the memoized upward and downward ranks.
    pub fn critical_path_tasks(&self, agg: CostAggregation) -> Arc<Vec<TaskId>> {
        self.memoized_derived(
            |m| &mut m.critical_path,
            agg,
            |inst| {
                let comm = MeanComm::default();
                let up = inst.upward_rank_in(agg, &comm);
                let down = inst.downward_rank_in(agg, &comm);
                rank::critical_path_from_ranks(&inst.dag, &up, &down)
            },
        )
    }

    /// Seed this freshly patched instance's rank memo from `parent`,
    /// whose problem differs from this one only in the ETC rows marked in
    /// `exec_dirty` and the data volumes of the `comm_edges`.
    ///
    /// Only the `(kernel, aggregation)` pairs the parent has computed are
    /// seeded. Each is walked in kernel order, and a task is re-evaluated
    /// with the exact per-task fold its raw kernel uses
    /// ([`rank::upward_entry`] and friends) only when its own inputs
    /// changed or it reads an entry whose bits changed on this walk. This
    /// is a value cutoff: a re-evaluated entry that keeps the parent's bits
    /// dirties none of its readers. Every entry left alone keeps the
    /// parent's bits, which a fresh computation reproduces (its inputs are
    /// bit-identical and each fold is pure), so every seeded vector is
    /// bit-identical to a from-scratch computation on the patched problem.
    /// A vector in which no bit changed is the parent's `Arc`, shared.
    ///
    /// Derived vectors (ALST, critical path) are shared when every base
    /// vector they derive from was; otherwise they are left empty and
    /// recomputed on demand from the seeded bases by the same derivations,
    /// preserving bit-identity transitively.
    pub(crate) fn seed_memo_from(
        &self,
        parent: &ProblemInstance<'_>,
        exec_dirty: &[bool],
        comm_edges: &[(TaskId, TaskId)],
    ) {
        let (dag, sys) = (self.dag(), self.sys());
        // The scalar per edge: a patch re-evaluates a few tasks, too few
        // to pay for a whole table.
        let comm = |e: usize| sys.mean_comm(dag.edges()[e].data);
        // Tasks whose own inputs changed. rank_u(t), SL(t) and PETS(t)
        // read t's ETC row; rank_u(t) and PETS(t) also read t's outgoing
        // volumes. rank_d(t) reads its predecessors' ETC rows and its
        // incoming volumes.
        let mut reads_out = exec_dirty.to_vec();
        let mut reads_in = vec![false; exec_dirty.len()];
        for &(u, v) in comm_edges {
            reads_out[u.index()] = true;
            reads_in[v.index()] = true;
        }
        for t in dag.task_ids().filter(|t| exec_dirty[t.index()]) {
            for (s, _) in dag.successors(t) {
                reads_in[s.index()] = true;
            }
        }
        let backward = || dag.topo_order().iter().rev().copied();
        let forward = || dag.topo_order().iter().copied();
        // rank_u and SL entries are read by predecessors, rank_d and PETS
        // entries by successors
        let preds = |t: TaskId, dirty: &mut [bool]| {
            for (p, _) in dag.predecessors(t) {
                dirty[p.index()] = true;
            }
        };
        let succs = |t: TaskId, dirty: &mut [bool]| {
            for (s, _) in dag.successors(t) {
                dirty[s.index()] = true;
            }
        };

        let parent_memo = parent.memo();
        let mut memo = self.memo();
        for &(agg, ref v) in &parent_memo.upward {
            let entry = |t, r: &[f64]| rank::upward_entry(dag, sys, agg, t, r, comm);
            let seeded = reseed(v, reads_out.clone(), backward(), entry, preds);
            memo.upward.push((agg, seeded));
        }
        for &(agg, ref v) in &parent_memo.downward {
            let entry = |t, r: &[f64]| rank::downward_entry(dag, sys, agg, t, r, comm);
            let seeded = reseed(v, reads_in.clone(), forward(), entry, succs);
            memo.downward.push((agg, seeded));
        }
        for &(agg, ref v) in &parent_memo.static_level {
            let entry = |t, r: &[f64]| rank::static_level_entry(dag, sys, agg, t, r);
            let seeded = reseed(v, exec_dirty.to_vec(), backward(), entry, preds);
            memo.static_level.push((agg, seeded));
        }
        for &(agg, ref v) in &parent_memo.pets {
            let entry = |t, r: &[f64]| rank::pets_entry(dag, sys, agg, t, r, comm);
            let seeded = reseed(v, reads_out.clone(), forward(), entry, succs);
            memo.pets.push((agg, seeded));
        }

        let shared = |mine: &[(CostAggregation, Arc<Vec<f64>>)],
                      theirs: &[(CostAggregation, Arc<Vec<f64>>)],
                      agg| {
            matches!((lookup(mine, agg), lookup(theirs, agg)), (Some(a), Some(b)) if Arc::ptr_eq(&a, &b))
        };
        for &(agg, ref v) in &parent_memo.alst {
            if shared(&memo.upward, &parent_memo.upward, agg) {
                memo.alst.push((agg, Arc::clone(v)));
            }
        }
        for &(agg, ref v) in &parent_memo.critical_path {
            if shared(&memo.upward, &parent_memo.upward, agg)
                && shared(&memo.downward, &parent_memo.downward, agg)
            {
                memo.critical_path.push((agg, Arc::clone(v)));
            }
        }
    }
}

/// Re-evaluate with `entry`, in `order`, the tasks marked in `dirty`; when
/// an entry's bits change, `readers` marks the tasks that read it. The
/// parent vector is copied on the first changed bit, and shared when none
/// changes.
fn reseed(
    parent: &Arc<Vec<f64>>,
    mut dirty: Vec<bool>,
    order: impl Iterator<Item = TaskId>,
    entry: impl Fn(TaskId, &[f64]) -> f64,
    readers: impl Fn(TaskId, &mut [bool]),
) -> Arc<Vec<f64>> {
    let mut seeded: Option<Vec<f64>> = None;
    for t in order {
        if !dirty[t.index()] {
            continue;
        }
        let current = seeded.as_deref().unwrap_or(parent);
        let v = entry(t, current);
        if v.to_bits() != current[t.index()].to_bits() {
            seeded.get_or_insert_with(|| parent.to_vec())[t.index()] = v;
            readers(t, &mut dirty);
        }
    }
    seeded.map_or_else(|| Arc::clone(parent), Arc::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_dag::builder::dag_from_edges;

    fn setup() -> (Dag, System) {
        let dag = dag_from_edges(
            &[1.0, 2.0, 3.0, 4.0],
            &[(0, 1, 10.0), (0, 2, 20.0), (1, 3, 30.0), (2, 3, 40.0)],
        )
        .unwrap();
        let sys = System::homogeneous_unit(&dag, 3);
        (dag, sys)
    }

    #[test]
    fn memoized_ranks_are_bit_identical_to_raw_and_shared() {
        let (dag, sys) = setup();
        let inst = ProblemInstance::new(dag.clone(), sys.clone());
        let agg = CostAggregation::Mean;
        let a = inst.upward_rank(agg);
        let b = inst.upward_rank(agg);
        assert!(Arc::ptr_eq(&a, &b), "second query must share the memo");
        let fresh = rank::oracle::upward_rank(&dag, &sys, agg);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&fresh));
        rank::oracle::assert_ranks_match(&inst, &dag, &sys, agg);
    }

    #[test]
    fn distinct_aggregations_get_distinct_entries() {
        let (dag, sys) = setup();
        let inst = ProblemInstance::new(dag, sys);
        let mean = inst.upward_rank(CostAggregation::Mean);
        let best = inst.upward_rank(CostAggregation::Best);
        assert!(!Arc::ptr_eq(&mean, &best));
        let again = inst.upward_rank(CostAggregation::Mean);
        assert!(Arc::ptr_eq(&mean, &again));
    }

    #[test]
    fn derived_vectors_match_their_definitions() {
        let (dag, sys) = setup();
        let inst = ProblemInstance::new(dag.clone(), sys.clone());
        let agg = CostAggregation::Mean;
        let up = inst.upward_rank(agg);
        let cp = up.iter().copied().fold(0.0f64, f64::max);
        let alst = inst.alst(agg);
        for (a, &r) in alst.iter().zip(up.iter()) {
            assert_eq!(a.to_bits(), (cp - r).to_bits());
        }
        assert!(Arc::ptr_eq(&inst.aest(agg), &inst.downward_rank(agg)));
        // Diamond with heavier lower branch: critical path is 0 -> 2 -> 3.
        let cp_tasks = inst.critical_path_tasks(agg);
        assert_eq!(&*cp_tasks, &[TaskId(0), TaskId(2), TaskId(3)]);
        assert!(Arc::ptr_eq(&cp_tasks, &inst.critical_path_tasks(agg)));
    }

    #[test]
    fn fingerprint_tracks_content_not_identity() {
        let (dag, sys) = setup();
        let fp_a = ProblemInstance::from_refs(&dag, &sys).fingerprint();
        let fp_b = ProblemInstance::from_refs(&dag, &sys).fingerprint();
        assert_eq!(fp_a, fp_b);
        let other = System::homogeneous_unit(&dag, 4);
        let c = ProblemInstance::new(dag, other);
        assert_ne!(fp_a, c.fingerprint());
    }

    #[test]
    fn concurrent_queries_share_one_computation() {
        let (dag, sys) = setup();
        let inst = ProblemInstance::new(dag, sys);
        let arcs: Vec<Arc<Vec<f64>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| inst.upward_rank(CostAggregation::Mean)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for w in arcs.windows(2) {
            assert!(Arc::ptr_eq(&w[0], &w[1]));
        }
    }
}
