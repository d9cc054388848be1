//! Incremental schedule repair for the EFT family.
//!
//! [`Heft::repair`] and [`Hoft::repair`] turn a parent schedule plus a
//! patched problem (see [`crate::delta::Patched`]) into the schedule a
//! from-scratch run would produce on the patched problem, replaying the
//! parent's leading placements instead of recomputing them.
//!
//! # The replay-prefix rule
//!
//! List scheduling is a fold over the rank order: the placement of the
//! task at position `i` depends only on (a) the schedule state built by
//! positions `0..i` and (b) that task's own placement inputs — its ETC
//! row, its incoming edges' data volumes, the network, and (for HOFT) its
//! OFT row. Let `k` be the first position where the patched rank order
//! diverges from the parent's *or* the task at that position is dirty
//! under the algorithm's own input set. By induction, every placement
//! before `k` is bit-identical to the parent's: same task at the same
//! position, clean inputs, and (inductively) identical prior state. So
//! the repair replays the parent's `0..k` placements verbatim — copying
//! each recorded slot as stored, never re-deriving a finish time from a
//! start/duration round trip — and re-runs the ordinary placement loop
//! from `k`. The result cannot differ from a fresh run in any bit.
//!
//! The replay is a single bulk pass (`Schedule::replay_prefix`): the
//! parent's per-processor slot lists are filtered down to the replayed
//! prefix — provably the same vectors a one-at-a-time
//! [`Schedule::insert_with_finish`](crate::Schedule::insert_with_finish)
//! loop would build — and the kept slots are appended in start order,
//! each append updating the timeline's gap index in O(1), so replaying
//! `k` placements costs O(slots) instead of one O(len) shift and reindex
//! per mid-timeline insertion. If any replayed placement fails
//! validation, the partially built schedule is discarded and the repair
//! degrades to a plain from-scratch run — still bit-identical, just not
//! incremental.
//!
//! The shape checks, the split-point computation, and the replay-resume
//! scaffolding are shared between the algorithms (`replay_viable`,
//! `split_point`, `replay_then` below); each algorithm contributes
//! only its priority computation, its dirty predicate, and its placement
//! loop.

use crate::algorithms::{Heft, Hoft};
use crate::delta::DirtyInfo;
use crate::instance::ProblemInstance;
use crate::rank::sort_by_priority_desc;
use crate::schedule::Schedule;
use crate::Scheduler;
use hetsched_dag::TaskId;

/// How a repair run spent its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairStats {
    /// Leading rank-order placements replayed verbatim from the parent.
    pub replayed: usize,
    /// Tasks re-placed by the ordinary EFT loop.
    pub rescheduled: usize,
    /// Whether the repair fell back to a full from-scratch run (structural
    /// delta, shape mismatch, or an unreplayable parent schedule).
    pub fresh: bool,
}

/// A repair-capable scheduler from the [`repairable`] registry: one of
/// the EFT-family list schedulers whose from-scratch run is a replayable
/// fold over a priority order.
#[derive(Debug, Clone, Copy)]
pub enum RepairScheduler {
    /// HEFT (with or without gap insertion), repaired by
    /// [`Heft::repair`].
    Heft(Heft),
    /// HOFT, repaired by [`Hoft::repair`].
    Hoft(Hoft),
}

impl RepairScheduler {
    /// Repair-dispatch: schedule the patched problem `inst`, replaying the
    /// parent's unaffected leading placements. See [`Heft::repair`] for
    /// the contract; every variant honors it bit for bit.
    pub fn repair(
        &self,
        inst: &ProblemInstance<'_>,
        dirty: &DirtyInfo,
        parent_inst: &ProblemInstance<'_>,
        parent: &Schedule,
    ) -> (Schedule, RepairStats) {
        match self {
            RepairScheduler::Heft(h) => h.repair(inst, dirty, parent_inst, parent),
            RepairScheduler::Hoft(h) => h.repair(inst, dirty, parent_inst, parent),
        }
    }
}

/// The repair-capable scheduler registered under `name`, if any. Repair
/// replays placements through a plain list-scheduling fold, so only the
/// algorithms whose from-scratch run *is* that loop qualify.
pub fn repairable(name: &str) -> Option<RepairScheduler> {
    match name {
        "HEFT" => Some(RepairScheduler::Heft(Heft::new())),
        "HEFT-NI" => Some(RepairScheduler::Heft(Heft::no_insertion())),
        "HOFT" => Some(RepairScheduler::Hoft(Hoft)),
        _ => None,
    }
}

/// Shared shape preconditions of every replay-prefix repair: the parent
/// schedule must cover the same task/processor counts as the patched
/// instance, be complete, and carry no duplicates (replay copies slots
/// verbatim; a duplicate-bearing parent was not produced by a plain list
/// fold).
fn replay_viable(inst: &ProblemInstance<'_>, parent: &Schedule) -> bool {
    parent.num_tasks() == inst.dag().num_tasks()
        && parent.num_procs() == inst.sys().num_procs()
        && parent.num_duplicates() == 0
        && parent.is_complete()
}

/// First rank-order position that cannot be replayed: the orders diverge
/// or the task at that position has dirty placement inputs. Positions
/// before the split are bit-identical by the replay-prefix induction.
fn split_point(
    order_q: &[TaskId],
    order_p: &[TaskId],
    mut is_dirty: impl FnMut(TaskId) -> bool,
) -> usize {
    order_q
        .iter()
        .zip(order_p.iter())
        .position(|(&q, &p)| q != p || is_dirty(q))
        .unwrap_or(order_q.len())
}

/// Replay the parent's leading `k` placements into a fresh schedule and
/// hand it to `resume` for the remaining positions. `None` means a
/// replayed placement failed validation and the caller must fall back to
/// a from-scratch run.
fn replay_then(
    inst: &ProblemInstance<'_>,
    parent: &Schedule,
    order_q: &[TaskId],
    k: usize,
    resume: impl FnOnce(usize, &mut Schedule),
) -> Option<(Schedule, RepairStats)> {
    let n = inst.dag().num_tasks();
    let mut sched = Schedule::new(n, inst.sys().num_procs());
    if k > 0 {
        let _span = hetsched_trace::span("replay");
        if sched.replay_prefix(parent, &order_q[..k]).is_err() {
            return None;
        }
    }
    resume(k, &mut sched);
    Some((
        sched,
        RepairStats {
            replayed: k,
            rescheduled: n - k,
            fresh: false,
        },
    ))
}

impl Heft {
    /// Schedule the patched problem `inst` (with `dirty` as reported by
    /// [`ProblemInstance::apply_deltas`] — see [`crate::delta::Patched`]),
    /// replaying the
    /// parent's unaffected leading placements and re-running list
    /// scheduling only from the first rank-order position the deltas
    /// touched.
    ///
    /// `parent` must be the schedule this same configuration produced on
    /// `parent_inst` (the instance `inst` was patched from); the result is
    /// then bit-identical to `self.schedule_instance(inst)` — the
    /// non-negotiable contract, enforced by the cross-crate delta-sequence
    /// proptest. When the preconditions do not hold (shape changed, parent
    /// incomplete or carrying duplicates), the repair falls back to
    /// exactly that from-scratch call.
    pub fn repair(
        &self,
        inst: &ProblemInstance<'_>,
        dirty: &DirtyInfo,
        parent_inst: &ProblemInstance<'_>,
        parent: &Schedule,
    ) -> (Schedule, RepairStats) {
        let n = inst.dag().num_tasks();
        let fresh = || {
            (
                self.schedule_instance(inst),
                RepairStats {
                    replayed: 0,
                    rescheduled: n,
                    fresh: true,
                },
            )
        };

        let eft_dirty = match dirty {
            DirtyInfo::Structural => return fresh(),
            DirtyInfo::Tasks { eft_dirty } => eft_dirty,
        };
        if !replay_viable(inst, parent) {
            return fresh();
        }

        // The patched rank order — computed from the seeded memo, hence
        // exactly what a fresh run would use — against the parent's.
        let rank_q = {
            let _span = hetsched_trace::span("rank");
            inst.upward_rank(self.agg)
        };
        let order_q = sort_by_priority_desc(&rank_q);
        let order_p = sort_by_priority_desc(&parent_inst.upward_rank(self.agg));
        let k = split_point(&order_q, &order_p, |t| eft_dirty[t.index()]);

        match replay_then(inst, parent, &order_q, k, |from, sched| {
            self.run_eft_loop(inst, &rank_q, &order_q, from, sched);
        }) {
            Some(done) => done,
            None => fresh(),
        }
    }
}

impl Hoft {
    /// HOFT's replay-prefix repair: identical scaffolding to
    /// [`Heft::repair`], with two HOFT-specific ingredients. Priorities
    /// (and thus the orders compared for divergence) come from the OFT
    /// table, and a task counts as dirty when its EFT inputs changed *or*
    /// its OFT row moved — the lookahead scores candidate processors with
    /// that row, so a row change can flip a placement even when the plain
    /// EFT inputs are untouched. Rows are compared bitwise; any
    /// recomputation drift would break bit-identity, so no tolerance is
    /// applied.
    pub fn repair(
        &self,
        inst: &ProblemInstance<'_>,
        dirty: &DirtyInfo,
        parent_inst: &ProblemInstance<'_>,
        parent: &Schedule,
    ) -> (Schedule, RepairStats) {
        let n = inst.dag().num_tasks();
        let fresh = || {
            (
                self.schedule_instance(inst),
                RepairStats {
                    replayed: 0,
                    rescheduled: n,
                    fresh: true,
                },
            )
        };

        let eft_dirty = match dirty {
            DirtyInfo::Structural => return fresh(),
            DirtyInfo::Tasks { eft_dirty } => eft_dirty,
        };
        if !replay_viable(inst, parent) {
            return fresh();
        }

        let np = inst.sys().num_procs();
        let (oft_q, rank_q) = {
            let _span = hetsched_trace::span("rank");
            let oft = Hoft::oft_table(inst.dag(), inst.sys());
            let rank = Hoft::priorities(inst.dag(), np, &oft);
            (oft, rank)
        };
        let oft_p = Hoft::oft_table(parent_inst.dag(), parent_inst.sys());
        let rank_p = Hoft::priorities(parent_inst.dag(), np, &oft_p);
        let order_q = sort_by_priority_desc(&rank_q);
        let order_p = sort_by_priority_desc(&rank_p);

        let row_dirty = |t: TaskId| {
            let r = t.index() * np;
            oft_q[r..r + np]
                .iter()
                .zip(&oft_p[r..r + np])
                .any(|(a, b)| a.to_bits() != b.to_bits())
        };
        let k = split_point(&order_q, &order_p, |t| eft_dirty[t.index()] || row_dirty(t));

        match replay_then(inst, parent, &order_q, k, |from, sched| {
            self.place_from(inst, &oft_q, &rank_q, &order_q, from, sched);
        }) {
            Some(done) => done,
            None => fresh(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Delta;
    use hetsched_dag::builder::dag_from_edges;
    use hetsched_dag::TaskId;
    use hetsched_platform::{EtcMatrix, Network, ProcId, System};

    fn instance() -> ProblemInstance<'static> {
        let dag = dag_from_edges(
            &[2.0, 3.0, 3.0, 2.0, 1.0],
            &[
                (0, 1, 4.0),
                (0, 2, 4.0),
                (1, 3, 4.0),
                (2, 3, 4.0),
                (3, 4, 2.0),
            ],
        )
        .unwrap();
        let etc = EtcMatrix::from_fn(5, 3, |t, p| 1.0 + ((t.index() * 3 + p.index()) % 7) as f64);
        let sys = System::new(etc, Network::uniform(3, 0.25, 2.0));
        ProblemInstance::new(dag, sys)
    }

    fn digest(s: &Schedule) -> Vec<(u32, u32, u64, u64)> {
        (0..s.num_procs())
            .flat_map(|p| {
                s.slots(ProcId::from_index(p)).iter().map(move |slot| {
                    (
                        p as u32,
                        slot.task.0,
                        slot.start.to_bits(),
                        slot.finish.to_bits(),
                    )
                })
            })
            .collect()
    }

    fn weight_deltas() -> [Vec<Delta>; 3] {
        [
            vec![Delta::EtcEntry {
                task: TaskId(3),
                proc: ProcId(1),
                time: 20.0,
            }],
            vec![Delta::EdgeData {
                src: TaskId(2),
                dst: TaskId(3),
                data: 9.0,
            }],
            vec![Delta::TaskWeight {
                task: TaskId(0),
                weight: 5.0,
            }],
        ]
    }

    #[test]
    fn repair_matches_fresh_bit_for_bit() {
        let parent_inst = instance();
        let heft = Heft::new();
        let parent = heft.schedule_instance(&parent_inst);
        for deltas in weight_deltas() {
            let patched = parent_inst.apply_deltas(&deltas).unwrap();
            let (repaired, stats) =
                heft.repair(&patched.instance, &patched.dirty, &parent_inst, &parent);
            let fresh = heft.schedule_instance(&patched.instance);
            assert_eq!(digest(&repaired), digest(&fresh), "deltas {deltas:?}");
            assert!(!stats.fresh, "weight-level deltas must not fall back");
            assert_eq!(stats.replayed + stats.rescheduled, 5);
        }
    }

    #[test]
    fn hoft_repair_matches_fresh_bit_for_bit() {
        let parent_inst = instance();
        let hoft = Hoft;
        let parent = hoft.schedule_instance(&parent_inst);
        for deltas in weight_deltas() {
            let patched = parent_inst.apply_deltas(&deltas).unwrap();
            let (repaired, stats) =
                hoft.repair(&patched.instance, &patched.dirty, &parent_inst, &parent);
            let fresh = hoft.schedule_instance(&patched.instance);
            assert_eq!(digest(&repaired), digest(&fresh), "deltas {deltas:?}");
            assert!(!stats.fresh, "weight-level deltas must not fall back");
            assert_eq!(stats.replayed + stats.rescheduled, 5);
        }
        // A structural delta still falls back to an identical fresh run.
        let patched = parent_inst
            .apply_deltas(&[Delta::RemoveProc { proc: ProcId(2) }])
            .unwrap();
        let (repaired, stats) =
            hoft.repair(&patched.instance, &patched.dirty, &parent_inst, &parent);
        assert!(stats.fresh);
        assert_eq!(
            digest(&repaired),
            digest(&hoft.schedule_instance(&patched.instance))
        );
    }

    #[test]
    fn hoft_dirty_oft_row_is_not_replayed_past() {
        // An ETC delta on the *exit* task leaves every other task's EFT
        // inputs clean but moves the OFT rows of all its ancestors — the
        // repair must treat those as dirty rather than replay them, and
        // still land bit-identical to fresh.
        let parent_inst = instance();
        let hoft = Hoft;
        let parent = hoft.schedule_instance(&parent_inst);
        // Proc 2 is the exit task's fastest processor, so every OFT min
        // routes through it; slowing it moves every ancestor's row.
        let patched = parent_inst
            .apply_deltas(&[Delta::EtcEntry {
                task: TaskId(4),
                proc: ProcId(2),
                time: 40.0,
            }])
            .unwrap();
        let (repaired, stats) =
            hoft.repair(&patched.instance, &patched.dirty, &parent_inst, &parent);
        let fresh = hoft.schedule_instance(&patched.instance);
        assert_eq!(digest(&repaired), digest(&fresh));
        assert!(!stats.fresh);
        // every ancestor's OFT row changed, so nothing can be replayed
        assert_eq!(stats.replayed, 0, "stats: {stats:?}");
    }

    #[test]
    fn clean_delta_replays_everything() {
        let parent_inst = instance();
        let heft = Heft::new();
        let parent = heft.schedule_instance(&parent_inst);
        let patched = parent_inst
            .apply_deltas(&[Delta::TaskWeight {
                task: TaskId(4),
                weight: 1.5,
            }])
            .unwrap();
        let (repaired, stats) =
            heft.repair(&patched.instance, &patched.dirty, &parent_inst, &parent);
        assert_eq!(stats.replayed, 5);
        assert_eq!(stats.rescheduled, 0);
        assert_eq!(digest(&repaired), digest(&parent));
    }

    #[test]
    fn structural_delta_falls_back_to_fresh() {
        let parent_inst = instance();
        let heft = Heft::new();
        let parent = heft.schedule_instance(&parent_inst);
        let patched = parent_inst
            .apply_deltas(&[Delta::RemoveProc { proc: ProcId(2) }])
            .unwrap();
        let (repaired, stats) =
            heft.repair(&patched.instance, &patched.dirty, &parent_inst, &parent);
        assert!(stats.fresh);
        assert_eq!(
            digest(&repaired),
            digest(&heft.schedule_instance(&patched.instance))
        );
    }

    #[test]
    fn incomplete_parent_falls_back_to_fresh() {
        let parent_inst = instance();
        let heft = Heft::new();
        let empty = Schedule::new(5, 3);
        let patched = parent_inst
            .apply_deltas(&[Delta::EtcEntry {
                task: TaskId(0),
                proc: ProcId(0),
                time: 3.0,
            }])
            .unwrap();
        let (repaired, stats) =
            heft.repair(&patched.instance, &patched.dirty, &parent_inst, &empty);
        assert!(stats.fresh);
        assert_eq!(
            digest(&repaired),
            digest(&heft.schedule_instance(&patched.instance))
        );
    }

    #[test]
    fn repairable_registry_covers_the_eft_family_only() {
        assert!(
            matches!(repairable("HEFT"), Some(RepairScheduler::Heft(h)) if h.insertion),
            "HEFT repairs with insertion"
        );
        assert!(
            matches!(repairable("HEFT-NI"), Some(RepairScheduler::Heft(h)) if !h.insertion),
            "HEFT-NI repairs append-only"
        );
        assert!(matches!(repairable("HOFT"), Some(RepairScheduler::Hoft(_))));
        assert!(repairable("CPOP").is_none());
        assert!(repairable("PETS").is_none());
    }
}
