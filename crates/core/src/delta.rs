//! Incremental problem patching: apply a sequence of [`Delta`]s to a
//! [`ProblemInstance`] copy-on-write, re-evaluating only the rank-memo
//! entries whose inputs changed.
//!
//! The output of [`ProblemInstance::apply_deltas`] is a [`Patched`]
//! instance plus a [`DirtyInfo`] describing which tasks' EFT inputs the
//! deltas touched — the contract the `repair` path (see [`crate::repair`])
//! uses to decide how much of the parent schedule it may replay verbatim.
//!
//! # Copy-on-write
//!
//! An untouched side of the problem stays `Cow::Borrowed` from the parent:
//! an ETC-only delta borrows the parent's `Dag` outright, a weight-only
//! delta borrows the parent's `System`. ETC entries are patched in a clone
//! of the parent's [`EtcMatrix`] ([`EtcMatrix::set_exec`] refreshes each
//! touched row's cached mean by the fold a fresh build runs), so they copy
//! neither the DAG nor the network. A touched DAG is rebuilt through the
//! same canonicalizing [`DagBuilder`] a fresh build would use, and a
//! structural delta rebuilds the ETC through [`EtcMatrix::from_fn`].
//! Either way a patched instance is indistinguishable — fingerprint,
//! topological order, rank vectors, and schedules — from one built from
//! scratch with the patched content.
//!
//! # Memo seeding
//!
//! For weight-level deltas (task weight, ETC cell, edge data volume) the
//! patched instance's rank memo is *seeded* from the parent: each rank
//! vector the parent memoized is carried over, and only the tasks whose
//! own inputs changed, or that read an entry whose bits changed, are
//! re-evaluated, using the exact per-task folds of the raw kernels (a
//! value cutoff: an entry recomputed to the parent's bits dirties none of
//! its readers). Structural deltas (task add/remove, processor removal)
//! remap ids, so nothing is carried over and every consumer recomputes
//! from scratch — still bit-identical, just not incremental.

use std::borrow::Cow;

use hetsched_dag::{Dag, DagBuilder, DagError, TaskId};
use hetsched_platform::{EtcMatrix, ProcId, System};
use serde::{Deserialize, Serialize};

use crate::instance::ProblemInstance;

/// One edit to a (DAG, system) pair.
///
/// Weight-level variants (`TaskWeight`, `EtcEntry`, `EdgeData`) preserve
/// problem shape and keep task/processor ids stable; structural variants
/// (`AddTask`, `RemoveTask`, `RemoveProc`) renumber ids densely, exactly as
/// a fresh build of the edited problem would.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Delta {
    /// Set task `task`'s abstract computation weight to `weight`.
    ///
    /// Weights only feed DAG statistics (CCR, fingerprints); every rank
    /// kernel and the EFT engine read aggregated ETC costs instead, so this
    /// delta changes the content fingerprint but not the schedule.
    TaskWeight {
        /// Task whose weight changes.
        task: TaskId,
        /// New computation weight (finite, non-negative).
        weight: f64,
    },
    /// Set the estimated execution time of `task` on `proc` to `time`.
    EtcEntry {
        /// Task whose ETC row changes.
        task: TaskId,
        /// Processor whose estimate changes.
        proc: ProcId,
        /// New execution-time estimate (finite, non-negative).
        time: f64,
    },
    /// Set the data volume of the existing edge `src -> dst` to `data`.
    EdgeData {
        /// Producing task of the edge.
        src: TaskId,
        /// Consuming task of the edge.
        dst: TaskId,
        /// New data volume (finite, non-negative).
        data: f64,
    },
    /// Append a new task (it receives the next dense id) with the given
    /// weight, per-processor ETC row, and dependency edges.
    AddTask {
        /// Computation weight of the new task.
        weight: f64,
        /// Execution-time estimate per processor; length must equal the
        /// current processor count.
        exec: Vec<f64>,
        /// Incoming edges `(pred, data)` from existing tasks.
        preds: Vec<(TaskId, f64)>,
        /// Outgoing edges `(succ, data)` to existing tasks.
        succs: Vec<(TaskId, f64)>,
    },
    /// Remove `task` and every edge incident to it; tasks with larger ids
    /// shift down by one (dense renumbering).
    RemoveTask {
        /// Task to remove.
        task: TaskId,
    },
    /// Remove `proc` (its ETC column and network links); processors with
    /// larger ids shift down by one.
    RemoveProc {
        /// Processor to remove.
        proc: ProcId,
    },
}

/// Why a delta sequence could not be applied.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// A delta referenced a task id outside the current task range.
    UnknownTask(TaskId),
    /// A delta referenced a processor id outside the current range.
    UnknownProc(ProcId),
    /// [`Delta::EdgeData`] referenced an edge that does not exist.
    UnknownEdge(TaskId, TaskId),
    /// A weight/time/volume was non-finite or negative.
    InvalidValue {
        /// Which quantity was invalid.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// [`Delta::AddTask`]'s `exec` row length does not match the current
    /// processor count.
    ExecLenMismatch {
        /// Current processor count.
        expected: usize,
        /// Length of the provided row.
        got: usize,
    },
    /// [`Delta::RemoveProc`] would remove the last processor.
    LastProc,
    /// [`Delta::RemoveTask`] would remove the last task.
    LastTask,
    /// Rebuilding the patched DAG failed (duplicate edge or cycle
    /// introduced by [`Delta::AddTask`]).
    Dag(DagError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::UnknownTask(t) => write!(f, "unknown task {t}"),
            DeltaError::UnknownProc(p) => write!(f, "unknown processor {p}"),
            DeltaError::UnknownEdge(u, v) => write!(f, "no edge {u} -> {v}"),
            DeltaError::InvalidValue { what, value } => {
                write!(f, "invalid {what}: {value}")
            }
            DeltaError::ExecLenMismatch { expected, got } => {
                write!(
                    f,
                    "exec row has {got} entries, system has {expected} processors"
                )
            }
            DeltaError::LastProc => write!(f, "cannot remove the last processor"),
            DeltaError::LastTask => write!(f, "cannot remove the last task"),
            DeltaError::Dag(e) => write!(f, "patched DAG is invalid: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<DagError> for DeltaError {
    fn from(e: DagError) -> Self {
        DeltaError::Dag(e)
    }
}

/// What a delta sequence touched, from the scheduler's point of view.
#[derive(Debug, Clone, PartialEq)]
pub enum DirtyInfo {
    /// A structural delta renumbered task or processor ids: no placement of
    /// the parent schedule can be replayed, repair must fall back to a
    /// from-scratch run.
    Structural,
    /// Only weights changed; ids are stable. `eft_dirty[t]` is true iff
    /// task `t`'s direct EFT inputs were touched — its own ETC row or the
    /// data volume of one of its incoming edges. Tasks left false compute
    /// the exact same placement as in the parent, *provided* every task
    /// placed before them was placed identically (the replay-prefix rule).
    Tasks {
        /// Per-task direct-input dirty flags, indexed by `TaskId::index`.
        eft_dirty: Vec<bool>,
    },
}

impl DirtyInfo {
    /// Whether nothing that can influence any schedule was touched (e.g. a
    /// pure task-weight delta).
    pub fn is_clean(&self) -> bool {
        match self {
            DirtyInfo::Structural => false,
            DirtyInfo::Tasks { eft_dirty } => eft_dirty.iter().all(|&d| !d),
        }
    }
}

/// A patched problem: the copy-on-write instance plus the dirty summary
/// the repair path consumes.
#[derive(Debug)]
pub struct Patched<'a> {
    /// The patched instance. Untouched arenas are borrowed from the
    /// parent; the rank memo is seeded from the parent's where sound.
    pub instance: ProblemInstance<'a>,
    /// Which tasks the deltas touched.
    pub dirty: DirtyInfo,
}

/// Task weights and edges `(src, dst, data)` of a DAG being edited.
type DagParts = (Vec<f64>, Vec<(TaskId, TaskId, f64)>);

/// Working copy of the problem while a delta sequence applies. Each side
/// is copied from the parent when a delta first touches it; until then
/// the parent's is read in place.
struct Work<'p> {
    dag: &'p Dag,
    sys: &'p System,
    /// Edited weights and edges; `None` while the parent's DAG is untouched.
    dag_parts: Option<DagParts>,
    /// Edited ETC matrix; `None` while the parent's is untouched.
    etc: Option<EtcMatrix>,
    /// Replacement network; `None` while the parent's links are untouched.
    net: Option<hetsched_platform::Network>,
    structural: bool,
    /// Tasks whose ETC row changed (maintained only while `!structural`).
    exec_dirty: Vec<bool>,
    /// Edges whose data volume changed (only while `!structural`).
    comm_edges: Vec<(TaskId, TaskId)>,
}

fn check_value(what: &'static str, value: f64) -> Result<f64, DeltaError> {
    if !value.is_finite() || value < 0.0 {
        return Err(DeltaError::InvalidValue { what, value });
    }
    Ok(value)
}

impl<'p> Work<'p> {
    fn new(dag: &'p Dag, sys: &'p System) -> Self {
        Work {
            dag,
            sys,
            dag_parts: None,
            etc: None,
            net: None,
            structural: false,
            exec_dirty: vec![false; dag.num_tasks()],
            comm_edges: Vec::new(),
        }
    }

    /// The current ETC matrix. Its rows track the task count and its
    /// columns the processor count: every delta that changes either
    /// reshapes it.
    fn etc(&self) -> &EtcMatrix {
        self.etc.as_ref().unwrap_or(self.sys.etc())
    }

    fn n_tasks(&self) -> usize {
        self.etc().num_tasks()
    }

    fn n_procs(&self) -> usize {
        self.etc().num_procs()
    }

    fn check_task(&self, t: TaskId) -> Result<TaskId, DeltaError> {
        if t.index() >= self.n_tasks() {
            return Err(DeltaError::UnknownTask(t));
        }
        Ok(t)
    }

    fn check_proc(&self, p: ProcId) -> Result<ProcId, DeltaError> {
        if p.index() >= self.n_procs() {
            return Err(DeltaError::UnknownProc(p));
        }
        Ok(p)
    }

    /// The editable weights and edges, copied from the parent on first use.
    fn dag_parts(&mut self) -> &mut DagParts {
        let dag = self.dag;
        self.dag_parts.get_or_insert_with(|| {
            let weights = dag.task_ids().map(|t| dag.task_weight(t)).collect();
            let edges = dag.edges().iter().map(|e| (e.src, e.dst, e.data)).collect();
            (weights, edges)
        })
    }

    /// Replace the ETC matrix with an `n_tasks x n_procs` one whose entry
    /// `(t, p)` is `f(current, t, p)`, through the constructor a fresh
    /// build uses. Structural deltas pay this full rebuild.
    fn reshape_etc(
        &mut self,
        n_tasks: usize,
        n_procs: usize,
        f: impl Fn(&EtcMatrix, TaskId, ProcId) -> f64,
    ) {
        let current = self.etc.take();
        let current = current.as_ref().unwrap_or(self.sys.etc());
        self.etc = Some(EtcMatrix::from_fn(n_tasks, n_procs, |t, p| {
            f(current, t, p)
        }));
    }

    fn apply(&mut self, delta: &Delta) -> Result<(), DeltaError> {
        match *delta {
            Delta::TaskWeight { task, weight } => {
                self.check_task(task)?;
                let w = check_value("task weight", weight)?;
                self.dag_parts().0[task.index()] = w;
            }
            Delta::EtcEntry { task, proc, time } => {
                self.check_task(task)?;
                self.check_proc(proc)?;
                let v = check_value("execution time", time)?;
                let sys = self.sys;
                let etc = self.etc.get_or_insert_with(|| sys.etc().clone());
                etc.set_exec(task, proc, v);
                if !self.structural {
                    self.exec_dirty[task.index()] = true;
                }
            }
            Delta::EdgeData { src, dst, data } => {
                self.check_task(src)?;
                self.check_task(dst)?;
                let d = check_value("edge data volume", data)?;
                let e = self
                    .dag_parts()
                    .1
                    .iter_mut()
                    .find(|e| e.0 == src && e.1 == dst)
                    .ok_or(DeltaError::UnknownEdge(src, dst))?;
                e.2 = d;
                if !self.structural {
                    self.comm_edges.push((src, dst));
                }
            }
            Delta::AddTask {
                weight,
                ref exec,
                ref preds,
                ref succs,
            } => {
                let w = check_value("task weight", weight)?;
                let (n, np) = (self.n_tasks(), self.n_procs());
                if exec.len() != np {
                    return Err(DeltaError::ExecLenMismatch {
                        expected: np,
                        got: exec.len(),
                    });
                }
                for &e in exec {
                    check_value("execution time", e)?;
                }
                let new = TaskId::from_index(n);
                for &(p, d) in preds {
                    self.check_task(p)?;
                    check_value("edge data volume", d)?;
                }
                for &(s, d) in succs {
                    self.check_task(s)?;
                    check_value("edge data volume", d)?;
                }
                self.reshape_etc(n + 1, np, |etc, t, p| {
                    if t == new {
                        exec[p.index()]
                    } else {
                        etc.exec(t, p)
                    }
                });
                let (weights, edges) = self.dag_parts();
                weights.push(w);
                edges.extend(preds.iter().map(|&(p, d)| (p, new, d)));
                edges.extend(succs.iter().map(|&(s, d)| (new, s, d)));
                self.structural = true;
            }
            Delta::RemoveTask { task } => {
                self.check_task(task)?;
                let (n, np) = (self.n_tasks(), self.n_procs());
                if n == 1 {
                    return Err(DeltaError::LastTask);
                }
                let r = task.index();
                let shift = |t: TaskId| {
                    if t.index() > r {
                        TaskId::from_index(t.index() - 1)
                    } else {
                        t
                    }
                };
                // New row `t` is old row `t`, or `t + 1` past the removed one.
                self.reshape_etc(n - 1, np, |etc, t, p| {
                    etc.exec(
                        TaskId::from_index(t.index() + usize::from(t.index() >= r)),
                        p,
                    )
                });
                let (weights, edges) = self.dag_parts();
                weights.remove(r);
                edges.retain(|&(u, v, _)| u != task && v != task);
                for e in edges {
                    e.0 = shift(e.0);
                    e.1 = shift(e.1);
                }
                self.structural = true;
            }
            Delta::RemoveProc { proc } => {
                self.check_proc(proc)?;
                let (n, np) = (self.n_tasks(), self.n_procs());
                if np == 1 {
                    return Err(DeltaError::LastProc);
                }
                let r = proc.index();
                self.reshape_etc(n, np - 1, |etc, t, p| {
                    etc.exec(
                        t,
                        ProcId::from_index(p.index() + usize::from(p.index() >= r)),
                    )
                });
                let current = self.net.as_ref().unwrap_or(self.sys.network());
                self.net = Some(current.without_proc(proc));
                self.structural = true;
            }
        }
        Ok(())
    }
}

impl<'a> ProblemInstance<'a> {
    /// Apply `deltas` in order, producing a patched instance that borrows
    /// every untouched arena from `self` and, for weight-level deltas,
    /// whose rank memo is seeded from `self`'s.
    ///
    /// The patched instance is bit-for-bit equivalent to one built from
    /// scratch with the edited content: same fingerprint, same topological
    /// order (the rebuilt DAG goes through the same canonicalizing
    /// [`DagBuilder`]), same rank vectors, and therefore the same schedule
    /// from every deterministic algorithm.
    ///
    /// # Errors
    /// Fails atomically — `self` is never modified — if any delta
    /// references an unknown task/processor/edge, carries a non-finite or
    /// negative value, or would leave the problem degenerate (no tasks, no
    /// processors) or cyclic.
    pub fn apply_deltas(&self, deltas: &[Delta]) -> Result<Patched<'_>, DeltaError> {
        let (dag, sys) = (self.dag(), self.sys());
        let mut work = Work::new(dag, sys);
        for delta in deltas {
            work.apply(delta)?;
        }

        let patched_dag: Cow<'_, Dag> = match work.dag_parts {
            Some((weights, edges)) => {
                let mut b = DagBuilder::with_capacity(weights.len(), edges.len());
                for w in weights {
                    b.add_task(w);
                }
                for (u, v, d) in edges {
                    b.add_edge(u, v, d)?;
                }
                Cow::Owned(b.build()?)
            }
            None => Cow::Borrowed(dag),
        };
        // A replaced network implies a reshaped ETC (processor removal).
        let patched_sys: Cow<'_, System> = match work.etc {
            Some(etc) => {
                let net = work.net.unwrap_or_else(|| sys.network().clone());
                Cow::Owned(System::new(etc, net))
            }
            None => Cow::Borrowed(sys),
        };

        let instance = ProblemInstance::from_cows(patched_dag, patched_sys);
        if work.structural {
            return Ok(Patched {
                instance,
                dirty: DirtyInfo::Structural,
            });
        }
        Ok(self.seeded(instance, work.exec_dirty, &work.comm_edges))
    }

    /// Seed the weight-level patch `instance`'s rank memo from `self` and
    /// summarize what changed for repair: a task's EFT inputs are its own
    /// ETC row and its incoming volumes.
    fn seeded<'p>(
        &self,
        instance: ProblemInstance<'p>,
        exec_dirty: Vec<bool>,
        comm_edges: &[(TaskId, TaskId)],
    ) -> Patched<'p> {
        instance.seed_memo_from(self, &exec_dirty, comm_edges);
        let mut eft_dirty = exec_dirty;
        for &(_, v) in comm_edges {
            eft_dirty[v.index()] = true;
        }
        Patched {
            instance,
            dirty: DirtyInfo::Tasks { eft_dirty },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostAggregation;
    use crate::rank::oracle::{self, bits};
    use hetsched_dag::builder::dag_from_edges;
    use std::sync::Arc;

    fn setup() -> ProblemInstance<'static> {
        let dag = dag_from_edges(
            &[1.0, 2.0, 3.0, 4.0],
            &[(0, 1, 10.0), (0, 2, 20.0), (1, 3, 30.0), (2, 3, 40.0)],
        )
        .unwrap();
        let mut k = 0.0;
        let etc = EtcMatrix::from_fn(4, 3, |_, _| {
            k += 1.0;
            k
        });
        let net = hetsched_platform::Network::uniform(3, 0.5, 2.0);
        ProblemInstance::new(dag, System::new(etc, net))
    }

    #[test]
    fn each_minimal_delta_changes_the_fingerprint() {
        let parent = setup();
        let fp = parent.fingerprint();
        let minimal = [
            Delta::TaskWeight {
                task: TaskId(1),
                weight: 2.5,
            },
            Delta::EtcEntry {
                task: TaskId(1),
                proc: ProcId(2),
                time: 99.0,
            },
            Delta::EdgeData {
                src: TaskId(0),
                dst: TaskId(2),
                data: 20.5,
            },
        ];
        let mut seen = vec![fp];
        for d in minimal {
            let p = parent.apply_deltas(std::slice::from_ref(&d)).unwrap();
            let pfp = p.instance.fingerprint();
            assert!(
                !seen.contains(&pfp),
                "{d:?} must produce a fingerprint distinct from the parent and the other deltas"
            );
            seen.push(pfp);
        }
    }

    #[test]
    fn untouched_sides_stay_borrowed() {
        let parent = setup();
        let p = parent
            .apply_deltas(&[Delta::EtcEntry {
                task: TaskId(0),
                proc: ProcId(0),
                time: 5.0,
            }])
            .unwrap();
        assert!(
            std::ptr::eq(p.instance.dag(), parent.dag()),
            "ETC-only delta must borrow the parent DAG"
        );
        let q = parent
            .apply_deltas(&[Delta::TaskWeight {
                task: TaskId(0),
                weight: 9.0,
            }])
            .unwrap();
        assert!(
            std::ptr::eq(q.instance.sys(), parent.sys()),
            "weight-only delta must borrow the parent system"
        );
    }

    /// The ETC matrix of `parent` with `deltas`' ETC entries applied, built
    /// from scratch.
    fn scratch_etc(parent: &ProblemInstance, deltas: &[Delta]) -> EtcMatrix {
        let etc = parent.sys().etc();
        EtcMatrix::from_fn(etc.num_tasks(), etc.num_procs(), |t, p| {
            deltas
                .iter()
                .rev()
                .find_map(|d| match *d {
                    Delta::EtcEntry { task, proc, time } if task == t && proc == p => Some(time),
                    _ => None,
                })
                .unwrap_or_else(|| etc.exec(t, p))
        })
    }

    #[test]
    fn seeded_ranks_match_a_fresh_computation_bitwise() {
        let parent = setup();
        // Populate the parent memo so seeding has something to reuse.
        for agg in oracle::AGGS {
            parent.upward_rank(agg);
            parent.downward_rank(agg);
            parent.static_level(agg);
            parent.pets_rank(agg);
            parent.alst(agg);
            parent.critical_path_tasks(agg);
        }
        let etc = |task: u32, proc: u32, time: f64| Delta::EtcEntry {
            task: TaskId(task),
            proc: ProcId(proc),
            time,
        };
        // Rows are t0 [1,2,3], t1 [4,5,6], t2 [7,8,9], t3 [10,11,12].
        let sequences = [
            // an ETC entry plus an edge volume: both sides are copied
            vec![
                etc(2, 1, 42.0),
                Delta::EdgeData {
                    src: TaskId(1),
                    dst: TaskId(3),
                    data: 31.0,
                },
            ],
            // ETC entries alone: the DAG stays borrowed
            vec![etc(2, 1, 42.0)],
            vec![etc(0, 2, 0.5), etc(3, 0, 7.0), etc(0, 2, 2.5)],
            // recomputed entries keep the parent's bits: the value cutoff
            vec![etc(1, 1, 5.0)],
            vec![etc(1, 2, 60.0)],
        ];
        for deltas in &sequences {
            let p = parent.apply_deltas(deltas).unwrap();
            let (d, s) = (p.instance.dag(), p.instance.sys());
            let fresh_etc = scratch_etc(&parent, deltas);
            for t in d.task_ids() {
                assert_eq!(bits(s.etc().row(t)), bits(fresh_etc.row(t)), "{deltas:?}");
                assert_eq!(
                    s.etc().mean_exec(t).to_bits(),
                    fresh_etc.mean_exec(t).to_bits(),
                    "{deltas:?}"
                );
            }
            let fresh = ProblemInstance::from_refs(d, s);
            for agg in oracle::AGGS {
                oracle::assert_ranks_match(&p.instance, d, s, agg);
                assert_eq!(bits(&p.instance.alst(agg)), bits(&fresh.alst(agg)));
                assert_eq!(
                    p.instance.critical_path_tasks(agg),
                    fresh.critical_path_tasks(agg)
                );
            }
        }

        // The cutoff shares what did not change. Setting an entry to its
        // own value changes nothing.
        let same = parent.apply_deltas(&sequences[3]).unwrap();
        for agg in oracle::AGGS {
            assert!(Arc::ptr_eq(
                &same.instance.upward_rank(agg),
                &parent.upward_rank(agg)
            ));
            assert!(Arc::ptr_eq(
                &same.instance.pets_rank(agg),
                &parent.pets_rank(agg)
            ));
            assert!(Arc::ptr_eq(&same.instance.alst(agg), &parent.alst(agg)));
        }
        // Raising t1's slowest entry keeps its best and median costs, so
        // those ranks keep every bit while the mean's move.
        let slow = parent.apply_deltas(&sequences[4]).unwrap();
        for agg in [CostAggregation::Best, CostAggregation::Median] {
            assert!(Arc::ptr_eq(
                &slow.instance.upward_rank(agg),
                &parent.upward_rank(agg)
            ));
            assert!(Arc::ptr_eq(
                &slow.instance.downward_rank(agg),
                &parent.downward_rank(agg)
            ));
            assert!(Arc::ptr_eq(
                &slow.instance.critical_path_tasks(agg),
                &parent.critical_path_tasks(agg)
            ));
        }
        let mean = CostAggregation::Mean;
        assert_ne!(
            bits(&slow.instance.upward_rank(mean)),
            bits(&parent.upward_rank(mean))
        );

        match parent.apply_deltas(&sequences[0]).unwrap().dirty {
            DirtyInfo::Tasks { eft_dirty } => {
                // ETC delta marks t2; edge delta marks its destination t3.
                assert_eq!(eft_dirty, vec![false, false, true, true]);
            }
            DirtyInfo::Structural => panic!("weight-level deltas are not structural"),
        }
    }

    #[test]
    fn weight_patches_seed_ranks_bit_identical_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xde17a);
        for case in 0..12 {
            let dag = hetsched_workloads::random_dag(
                &hetsched_workloads::RandomDagParams::new(40, 1.0, 1.0),
                &mut rng,
            );
            let sys = System::fully_random(
                &dag,
                5,
                &hetsched_platform::EtcParams::range_based(1.0),
                (0.0, 1.0),
                (1.0, 4.0),
                &mut rng,
            );
            let parent = ProblemInstance::new(dag, sys);
            for agg in oracle::AGGS {
                parent.upward_rank(agg);
                parent.downward_rank(agg);
                parent.static_level(agg);
                parent.pets_rank(agg);
            }
            // Half the cases patch ETC entries alone; the rest mix in edge
            // volumes and task weights. Half the values are kept, so
            // cutoffs fire.
            let mixed = case % 2 == 1;
            let deltas: Vec<Delta> = (0..rng.gen_range(1..5))
                .map(|_| {
                    let scale = if rng.gen::<bool>() { 1.0 } else { 1.5 };
                    match if mixed { rng.gen_range(0..3) } else { 0 } {
                        0 => {
                            let task = TaskId(rng.gen_range(0..40));
                            let proc = ProcId(rng.gen_range(0..5));
                            let time = parent.sys().exec_time(task, proc) * scale;
                            Delta::EtcEntry { task, proc, time }
                        }
                        1 => {
                            let edges = parent.dag().edges();
                            let e = &edges[rng.gen_range(0..edges.len())];
                            Delta::EdgeData {
                                src: e.src,
                                dst: e.dst,
                                data: e.data * scale,
                            }
                        }
                        _ => {
                            let task = TaskId(rng.gen_range(0..40));
                            let weight = parent.dag().task_weight(task) * scale;
                            Delta::TaskWeight { task, weight }
                        }
                    }
                })
                .collect();
            let p = parent.apply_deltas(&deltas).unwrap();
            let (d, s) = (p.instance.dag(), p.instance.sys());
            assert_eq!(
                s.content_fingerprint(),
                System::new(scratch_etc(&parent, &deltas), s.network().clone())
                    .content_fingerprint(),
                "case {case}"
            );
            for delta in &deltas {
                if let Delta::EdgeData { src, dst, .. } = *delta {
                    let want = deltas.iter().rev().find_map(|d| match *d {
                        Delta::EdgeData {
                            src: u,
                            dst: v,
                            data,
                        } if (u, v) == (src, dst) => Some(data),
                        _ => None,
                    });
                    assert_eq!(d.edge_data(src, dst), want, "case {case}");
                }
            }
            for agg in oracle::AGGS {
                oracle::assert_ranks_match(&p.instance, d, s, agg);
            }
        }
    }

    #[test]
    fn weight_only_delta_is_clean_and_shares_the_whole_memo() {
        let parent = setup();
        let up = parent.upward_rank(CostAggregation::Mean);
        let p = parent
            .apply_deltas(&[Delta::TaskWeight {
                task: TaskId(3),
                weight: 4.5,
            }])
            .unwrap();
        assert!(p.dirty.is_clean());
        assert!(
            Arc::ptr_eq(&p.instance.upward_rank(CostAggregation::Mean), &up),
            "clean delta must share the parent's rank Arc"
        );
        assert_ne!(parent.fingerprint(), p.instance.fingerprint());
    }

    /// `etc` holds exactly `rows`, with the cached means a fresh build
    /// computes.
    fn assert_rows(etc: &EtcMatrix, rows: &[[f64; 3]]) {
        let np = etc.num_procs();
        let fresh = EtcMatrix::from_fn(rows.len(), np, |t, p| rows[t.index()][p.index()]);
        assert_eq!(etc.num_tasks(), rows.len());
        for t in (0..rows.len()).map(TaskId::from_index) {
            assert_eq!(etc.row(t), fresh.row(t), "row {t}");
            assert_eq!(etc.mean_exec(t).to_bits(), fresh.mean_exec(t).to_bits());
        }
    }

    #[test]
    fn structural_deltas_rebuild_and_renumber() {
        let parent = setup();
        let p = parent
            .apply_deltas(&[Delta::RemoveTask { task: TaskId(1) }])
            .unwrap();
        assert_eq!(p.dirty, DirtyInfo::Structural);
        let d = p.instance.dag();
        assert_eq!(d.num_tasks(), 3);
        // Old t2/t3 became t1/t2; the surviving diamond arm is intact.
        assert_eq!(d.edge_data(TaskId(0), TaskId(1)), Some(20.0));
        assert_eq!(d.edge_data(TaskId(1), TaskId(2)), Some(40.0));
        assert_eq!(d.num_edges(), 2);
        // Rows were t0 [1,2,3], t1 [4,5,6], t2 [7,8,9], t3 [10,11,12].
        let rows = [[1.0, 2.0, 3.0], [7.0, 8.0, 9.0], [10.0, 11.0, 12.0]];
        assert_rows(p.instance.sys().etc(), &rows);

        let q = parent
            .apply_deltas(&[Delta::AddTask {
                weight: 1.0,
                exec: vec![1.0, 2.0, 3.0],
                preds: vec![(TaskId(3), 7.0)],
                succs: vec![],
            }])
            .unwrap();
        assert_eq!(q.dirty, DirtyInfo::Structural);
        assert_eq!(q.instance.dag().num_tasks(), 5);
        assert_eq!(q.instance.dag().edge_data(TaskId(3), TaskId(4)), Some(7.0));
        let rows = [
            [1.0, 2.0, 3.0],
            [4.0, 5.0, 6.0],
            [7.0, 8.0, 9.0],
            [10.0, 11.0, 12.0],
            [1.0, 2.0, 3.0],
        ];
        assert_rows(q.instance.sys().etc(), &rows);

        let r = parent
            .apply_deltas(&[Delta::RemoveProc { proc: ProcId(1) }])
            .unwrap();
        assert_eq!(r.dirty, DirtyInfo::Structural);
        let etc = r.instance.sys().etc();
        assert_eq!(etc.num_procs(), 2);
        // Row of t0 was [1, 2, 3]; dropping p1 leaves [1, 3].
        assert_eq!(etc.row(TaskId(0)), &[1.0, 3.0]);
        for t in (0..4).map(TaskId::from_index) {
            let old = parent.sys().etc().row(t);
            assert_eq!(etc.row(t), &[old[0], old[2]]);
            assert_eq!(etc.mean_exec(t), (old[0] + old[2]) / 2.0);
        }
        assert_eq!(r.instance.sys().network().num_procs(), 2);
    }

    #[test]
    fn sequences_apply_in_order_and_validate_against_current_state() {
        let parent = setup();
        // Add a task, then patch the ETC entry of the task just added.
        let p = parent
            .apply_deltas(&[
                Delta::AddTask {
                    weight: 1.0,
                    exec: vec![1.0, 1.0, 1.0],
                    preds: vec![],
                    succs: vec![],
                },
                Delta::EtcEntry {
                    task: TaskId(4),
                    proc: ProcId(0),
                    time: 8.0,
                },
            ])
            .unwrap();
        assert_eq!(p.instance.sys().exec_time(TaskId(4), ProcId(0)), 8.0);
        // The same ETC delta alone is invalid: t4 does not exist yet.
        assert_eq!(
            parent
                .apply_deltas(&[Delta::EtcEntry {
                    task: TaskId(4),
                    proc: ProcId(0),
                    time: 8.0,
                }])
                .unwrap_err(),
            DeltaError::UnknownTask(TaskId(4))
        );
    }

    #[test]
    fn invalid_deltas_are_rejected() {
        let parent = setup();
        assert_eq!(
            parent
                .apply_deltas(&[Delta::EdgeData {
                    src: TaskId(1),
                    dst: TaskId(2),
                    data: 1.0,
                }])
                .unwrap_err(),
            DeltaError::UnknownEdge(TaskId(1), TaskId(2))
        );
        assert_eq!(
            parent
                .apply_deltas(&[Delta::EtcEntry {
                    task: TaskId(0),
                    proc: ProcId(7),
                    time: 1.0,
                }])
                .unwrap_err(),
            DeltaError::UnknownProc(ProcId(7))
        );
        assert!(matches!(
            parent
                .apply_deltas(&[Delta::TaskWeight {
                    task: TaskId(0),
                    weight: f64::NAN,
                }])
                .unwrap_err(),
            DeltaError::InvalidValue { .. }
        ));
        assert_eq!(
            parent
                .apply_deltas(&[Delta::AddTask {
                    weight: 1.0,
                    exec: vec![1.0],
                    preds: vec![],
                    succs: vec![],
                }])
                .unwrap_err(),
            DeltaError::ExecLenMismatch {
                expected: 3,
                got: 1
            }
        );
        // New task with pred t1 and succ t0 closes the cycle 0 -> 1 -> new -> 0.
        assert!(matches!(
            parent
                .apply_deltas(&[Delta::AddTask {
                    weight: 1.0,
                    exec: vec![1.0, 1.0, 1.0],
                    preds: vec![(TaskId(1), 1.0)],
                    succs: vec![(TaskId(0), 1.0)],
                }])
                .unwrap_err(),
            DeltaError::Dag(DagError::Cycle(_))
        ));
        let one_proc = {
            let dag = dag_from_edges(&[1.0], &[]).unwrap();
            let sys = System::homogeneous_unit(&dag, 1);
            ProblemInstance::new(dag, sys)
        };
        assert_eq!(
            one_proc
                .apply_deltas(&[Delta::RemoveProc { proc: ProcId(0) }])
                .unwrap_err(),
            DeltaError::LastProc
        );
        assert_eq!(
            one_proc
                .apply_deltas(&[Delta::RemoveTask { task: TaskId(0) }])
                .unwrap_err(),
            DeltaError::LastTask
        );
    }

    #[test]
    fn delta_wire_format_round_trips() {
        let d = Delta::EtcEntry {
            task: TaskId(3),
            proc: ProcId(1),
            time: 6.5,
        };
        let json = serde_json::to_string(&d).unwrap();
        assert!(json.contains("\"kind\":\"etc_entry\""), "{json}");
        assert_eq!(serde_json::from_str::<Delta>(&json).unwrap(), d);
    }
}
