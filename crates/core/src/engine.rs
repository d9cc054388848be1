//! Optimised EFT evaluation engine.
//!
//! The free functions in [`crate::eft`] are the *reference semantics*: small,
//! obviously-correct, and allocation-happy — `data_ready_time(t, p)` re-walks
//! every predecessor's copy list for each of the P processors, and
//! `eft_candidates` allocates a fresh `Vec` per query. [`EftContext`] is the
//! production engine the list schedulers thread through their scheduling
//! loops instead:
//!
//! * the **data-ready frontier** of a task is computed once across all P
//!   processors (each predecessor's copies are walked a single time, fanned
//!   out over the contiguous link-cost rows of
//!   [`hetsched_platform::Network::link_rows`]), turning the inner loop into
//!   flat slice arithmetic;
//! * all scratch storage lives in the context and is reused from task to
//!   task, so steady-state scheduling performs no per-query allocation;
//! * every fold mirrors the reference implementation's operation order
//!   exactly (max over predecessors in predecessor order, min over copies in
//!   copy order), which — together with the cached gap search in
//!   [`Schedule::earliest_start`] — makes the engine **bit-identical** to
//!   the reference: same schedules, same `f64` bits.
//!
//! That last property is enforced, not assumed: [`with_reference_engine`]
//! flips the whole crate (contexts *and* the gap search) onto the naive
//! paths, and the conformance suites run every algorithm both ways and
//! compare schedules byte for byte.

use std::cell::Cell;

use hetsched_dag::{Dag, TaskId};
use hetsched_platform::{ProcId, System};

use crate::eft;
use crate::instance::ProblemInstance;
use crate::schedule::Schedule;

thread_local! {
    static REFERENCE_ENGINE: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is forcing the naive reference engine.
#[inline]
pub fn reference_engine_active() -> bool {
    REFERENCE_ENGINE.with(Cell::get)
}

/// Run `f` with the optimised engine disabled on this thread: every
/// [`EftContext`] built inside dispatches to the naive [`crate::eft`] free
/// functions, and [`Schedule::earliest_start`] uses the full-timeline
/// reference scan. Restores the previous state on exit (including unwind).
///
/// This exists for conformance testing — scheduling the same instance inside
/// and outside `with_reference_engine` must produce byte-identical
/// schedules — and is exported so integration tests outside the crate can
/// assert it too.
pub fn with_reference_engine<R>(f: impl FnOnce() -> R) -> R {
    struct Guard(bool);
    impl Drop for Guard {
        fn drop(&mut self) {
            REFERENCE_ENGINE.with(|c| c.set(self.0));
        }
    }
    let _guard = Guard(REFERENCE_ENGINE.with(|c| c.replace(true)));
    f()
}

/// Reusable scratch state for EFT queries over one system.
///
/// Construct once per scheduling run (`EftContext::new(sys)`) and pass to
/// each query; buffers are recycled across tasks. A context is tied to the
/// processor count of the system it was built for.
#[derive(Debug)]
pub struct EftContext {
    /// Dispatch to the naive reference implementations (captured from
    /// [`reference_engine_active`] at construction time).
    reference: bool,
    /// Per-processor data-ready frontier of the task last passed to
    /// [`Self::data_ready_all`].
    ready: Vec<f64>,
}

impl EftContext {
    /// Fresh context for systems with `sys.num_procs()` processors.
    pub fn new(sys: &System) -> Self {
        EftContext {
            reference: reference_engine_active(),
            ready: vec![0.0; sys.num_procs()],
        }
    }

    /// Data-ready time of `t` on *every* processor: `out[p]` equals
    /// `eft::data_ready_time(dag, sys, sched, t, p)` bit for bit.
    ///
    /// Each predecessor's copy list is traversed once and fanned out across
    /// the processor axis (the reference traverses it once *per processor*).
    ///
    /// # Panics
    /// Panics if any predecessor of `t` has no scheduled copy.
    pub fn data_ready_all(
        &mut self,
        inst: &ProblemInstance,
        sched: &Schedule,
        t: TaskId,
    ) -> &[f64] {
        self.data_ready_all_on(inst.dag(), inst.sys(), sched, t)
    }

    /// [`Self::data_ready_all`] on pre-resolved references — the per-query
    /// hot path used by [`Self::best_eft`], which resolves the instance's
    /// `Cow`s exactly once per call.
    fn data_ready_all_on(
        &mut self,
        dag: &Dag,
        sys: &System,
        sched: &Schedule,
        t: TaskId,
    ) -> &[f64] {
        debug_assert_eq!(self.ready.len(), sys.num_procs());
        hetsched_trace::counters(|c| c.drt_frontier_builds += 1);
        if self.reference {
            for (i, r) in self.ready.iter_mut().enumerate() {
                *r = eft::data_ready_time_raw(dag, sys, sched, t, ProcId(i as u32));
            }
            return &self.ready;
        }
        self.ready.fill(0.0);
        let net = sys.network();
        let (mut single, mut multi) = (0u64, 0u64);
        for (u, data) in dag.predecessors(t) {
            let copies = sched.copies(u);
            assert!(
                !copies.is_empty(),
                "predecessor {u} not scheduled before its consumer"
            );
            if let [(q, fin)] = copies {
                // Single copy (the overwhelmingly common case — duplication
                // off): one transfer fanned out over the contiguous link
                // rows of the source processor.
                single += 1;
                let (startup, inv_bw) = net.link_rows(*q);
                for ((r, &su), &ib) in self.ready.iter_mut().zip(startup).zip(inv_bw) {
                    let arrival = fin + (su + data * ib);
                    *r = r.max(arrival);
                }
            } else {
                // Several copies: min over copies in copy order, exactly as
                // `eft::arrival_from` folds.
                multi += 1;
                for (i, r) in self.ready.iter_mut().enumerate() {
                    let p = ProcId(i as u32);
                    let arrival = copies
                        .iter()
                        .map(|&(q, fin)| fin + net.comm_time(data, q, p))
                        .fold(f64::INFINITY, f64::min);
                    *r = r.max(arrival);
                }
            }
        }
        hetsched_trace::counters(|c| {
            c.drt_single_copy_preds += single;
            c.drt_multi_copy_preds += multi;
        });
        &self.ready
    }

    /// The processor giving `t` the minimum EFT, with its start and finish —
    /// bit-identical to [`eft::best_eft`]. Ties break toward the smaller
    /// processor id.
    pub fn best_eft(
        &mut self,
        inst: &ProblemInstance,
        sched: &Schedule,
        t: TaskId,
        insertion: bool,
    ) -> (ProcId, f64, f64) {
        let tracing = hetsched_trace::enabled();
        if tracing {
            hetsched_trace::counters(|c| c.eft_best_queries += 1);
        }
        let (dag, sys) = (inst.dag(), inst.sys());
        if self.reference {
            return eft::best_eft_raw(dag, sys, sched, t, insertion);
        }
        self.data_ready_all_on(dag, sys, sched, t);
        let durs = sys.etc().row(t);
        let mut best: Option<(ProcId, f64, f64)> = None;
        let mut cands: Vec<hetsched_trace::Candidate> = Vec::new();
        for (i, (&ready, &dur)) in self.ready.iter().zip(durs).enumerate() {
            let p = ProcId(i as u32);
            let start = sched.earliest_start(p, ready, dur, insertion);
            let f = start + dur;
            if tracing {
                cands.push(hetsched_trace::Candidate {
                    proc: i as u32,
                    ready,
                    start,
                    finish: f,
                });
            }
            match best {
                Some((_, _, bf)) if f >= bf => {}
                _ => best = Some((p, start, f)),
            }
        }
        let best = best.expect("system has at least one processor");
        if tracing {
            let (p, start, finish) = best;
            // The chosen start precedes the timeline end exactly when the
            // insertion policy filled a gap rather than appending.
            let gap_used = start < sched.proc_finish(p);
            hetsched_trace::emit(|| hetsched_trace::Event::EftDecision {
                task: t.index() as u32,
                proc: p.index() as u32,
                start,
                finish,
                gap_used,
                candidates: cands,
            });
        }
        best
    }

    /// Near-tie candidate set of `t`, written into the caller-owned `out`
    /// buffer (cleared first) — element-identical to
    /// [`eft::eft_candidates`], without its per-query allocation. Callers
    /// keep one `Vec` alive across their whole scheduling loop.
    #[allow(clippy::too_many_arguments)]
    pub fn eft_candidates_into(
        &mut self,
        inst: &ProblemInstance,
        sched: &Schedule,
        t: TaskId,
        insertion: bool,
        tolerance: f64,
        out: &mut Vec<(ProcId, f64, f64)>,
    ) {
        debug_assert!(tolerance >= 0.0);
        hetsched_trace::counters(|c| c.eft_candidate_queries += 1);
        out.clear();
        let (dag, sys) = (inst.dag(), inst.sys());
        if self.reference {
            out.extend(eft::eft_candidates_raw(
                dag, sys, sched, t, insertion, tolerance,
            ));
            return;
        }
        self.data_ready_all_on(dag, sys, sched, t);
        let durs = sys.etc().row(t);
        for (i, (&ready, &dur)) in self.ready.iter().zip(durs).enumerate() {
            let p = ProcId(i as u32);
            let start = sched.earliest_start(p, ready, dur, insertion);
            out.push((p, start, start + dur));
        }
        out.sort_by(|a, b| a.2.total_cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let cut = eft::tolerance_cut(out[0].2, tolerance);
        out.retain(|&(_, _, f)| f <= cut);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_dag::builder::dag_from_edges;
    use hetsched_platform::{EtcMatrix, Network};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Diamond with a duplicated parent and a heterogeneous network: the
    /// context must reproduce every reference query bit for bit.
    #[test]
    fn context_matches_reference_queries() {
        let dag = dag_from_edges(
            &[2.0, 3.0, 1.0, 4.0],
            &[(0, 1, 6.0), (0, 2, 2.0), (1, 3, 4.0), (2, 3, 5.0)],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let etc = EtcMatrix::from_fn(4, 3, |_, _| rng.gen_range(0.5..4.0));
        let mut rng = StdRng::seed_from_u64(4);
        let net = Network::heterogeneous_random(3, (0.0, 0.5), (0.5, 2.0), &mut rng);
        let sys = System::new(etc, net);

        let mut sched = Schedule::new(4, 3);
        sched.insert(TaskId(0), ProcId(0), 0.0, 2.0).unwrap();
        sched
            .insert_duplicate(TaskId(0), ProcId(2), 0.5, 2.5)
            .unwrap();
        sched.insert(TaskId(1), ProcId(1), 3.0, 1.0).unwrap();
        sched.insert(TaskId(2), ProcId(0), 2.0, 1.5).unwrap();

        let inst = ProblemInstance::from_refs(&dag, &sys);
        let mut ctx = EftContext::new(inst.sys());
        let ready = ctx.data_ready_all(&inst, &sched, TaskId(3)).to_vec();
        for (i, r) in ready.iter().enumerate() {
            let p = ProcId(i as u32);
            let want = eft::data_ready_time_raw(&dag, &sys, &sched, TaskId(3), p);
            assert_eq!(r.to_bits(), want.to_bits(), "DRT mismatch on {p}");
        }
        let fast = ctx.best_eft(&inst, &sched, TaskId(3), true);
        let naive = eft::best_eft_raw(&dag, &sys, &sched, TaskId(3), true);
        assert_eq!(fast, naive);

        for tol in [0.0, 0.05, 0.5, f64::INFINITY] {
            let mut buf = Vec::new();
            ctx.eft_candidates_into(&inst, &sched, TaskId(3), true, tol, &mut buf);
            let want = eft::eft_candidates_raw(&dag, &sys, &sched, TaskId(3), true, tol);
            assert_eq!(buf, want, "candidate mismatch at tolerance {tol}");
        }
    }

    #[test]
    fn reference_mode_is_scoped_and_restored() {
        assert!(!reference_engine_active());
        with_reference_engine(|| {
            assert!(reference_engine_active());
            let dag = dag_from_edges(&[1.0, 1.0], &[(0, 1, 2.0)]).unwrap();
            let sys = System::homogeneous_unit(&dag, 2);
            let ctx = EftContext::new(&sys);
            assert!(ctx.reference);
        });
        assert!(!reference_engine_active());
    }
}
