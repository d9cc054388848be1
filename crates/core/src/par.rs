//! Deterministic intra-algorithm parallelism for candidate search.
//!
//! Two search schedulers evaluate many *independent* candidates per
//! decision round: GA the chromosomes of a generation, BNB the
//! branch-and-bound subtrees of a round. [`par_map_collect`] fans those
//! evaluations out over scoped worker threads while keeping every schedule
//! **bit-identical to the single-thread run at any thread count** — the
//! same contract the optimized EFT engine ([`crate::engine`]) and the
//! shared [`crate::instance::ProblemInstance`] already honour.
//!
//! The duplication schedulers (ILS-D, DUP-HEFT) stay on the calling
//! thread: each task's 3–9 candidate probes run in place under the
//! schedule's trial log and cost a few microseconds in all, less than
//! handing them to another thread (measured in DESIGN.md §9).
//!
//! Determinism is by construction, not by luck:
//!
//! * results are collected into **submission-order** slots, so reductions
//!   run the caller's *exact* sequential fold (same tie-break expressions,
//!   same operand order) regardless of completion order;
//! * workers re-establish the calling thread's reference-engine flag
//!   ([`crate::engine::reference_engine_active`]), so conformance runs stay
//!   conformant across threads;
//! * work is distributed over a chunked queue (vendored `crossbeam`
//!   channels), which affects only *who* computes a slot, never its value.
//!
//! ## Thread-count resolution
//!
//! [`effective_jobs`] resolves, in order: the thread-local override
//! ([`with_jobs`]) → the process-wide default ([`set_global_jobs`], wired
//! to `--jobs` in the CLIs) → the `HETSCHED_JOBS` environment variable →
//! [`std::thread::available_parallelism`]. `jobs = 1` always means "no
//! threads": callers run their plain sequential loops.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crossbeam::channel;

use crate::engine::{reference_engine_active, with_reference_engine};

/// Process-wide default thread count; 0 means "unset".
static GLOBAL_JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Thread-local override; 0 means "no override".
    static LOCAL_JOBS: Cell<usize> = const { Cell::new(0) };
}

/// The machine's available parallelism (≥ 1).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Set (or clear, with `None`) the process-wide default thread count.
///
/// This is what `--jobs` on `hetsched-cli` / `hetsched-exp` wires up.
/// Values are clamped to at least 1.
pub fn set_global_jobs(jobs: Option<usize>) {
    GLOBAL_JOBS.store(jobs.map_or(0, |j| j.max(1)), Ordering::SeqCst);
}

/// `HETSCHED_JOBS` environment fallback, parsed once. Unparsable or zero
/// values are ignored.
fn env_jobs() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("HETSCHED_JOBS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&j| j >= 1)
    })
}

/// Run `f` with `jobs` as this thread's [`effective_jobs`] answer,
/// restoring the previous override on exit (including unwind).
///
/// This is how the serve daemon applies a per-request `jobs` option and
/// how the determinism tests pin thread counts.
pub fn with_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    struct Guard(usize);
    impl Drop for Guard {
        fn drop(&mut self) {
            LOCAL_JOBS.with(|c| c.set(self.0));
        }
    }
    let _guard = Guard(LOCAL_JOBS.with(|c| c.replace(jobs.max(1))));
    f()
}

/// The thread-local override installed by [`with_jobs`], if any.
pub fn jobs_override() -> Option<usize> {
    let j = LOCAL_JOBS.with(Cell::get);
    (j > 0).then_some(j)
}

/// Resolve the thread count for intra-algorithm search parallelism:
/// thread-local override → process-wide default → `HETSCHED_JOBS` →
/// available parallelism. Always ≥ 1.
pub fn effective_jobs() -> usize {
    if let Some(j) = jobs_override() {
        return j;
    }
    let global = GLOBAL_JOBS.load(Ordering::SeqCst);
    if global > 0 {
        return global;
    }
    if let Some(j) = env_jobs() {
        return j;
    }
    available_jobs()
}

/// Work sets smaller than this run sequentially even when `jobs > 1`:
/// spawning scoped threads and routing a channel costs tens of
/// microseconds, which dwarfs a handful of candidate evaluations. The
/// value is deliberately small — fan-outs in the search schedulers are
/// usually generation- or processor-count-sized, well above it.
pub const SEQUENTIAL_WORK_THRESHOLD: usize = 8;

/// Map `f` over `items` on up to `jobs` scoped threads, returning results
/// in **submission order**.
///
/// Work is handed out as index chunks over an mpmc channel (~4 chunks per
/// worker: few messages, balanced tail). With `jobs <= 1` or fewer than
/// [`SEQUENTIAL_WORK_THRESHOLD`] items this is a plain sequential `map` —
/// no threads, no channels. The fast path is result-identical by
/// construction: the parallel path collects into submission-order slots,
/// which is exactly the sequential map. Worker threads inherit the
/// caller's reference-engine flag. A worker panic propagates when the
/// scope joins.
pub fn par_map_collect<T, R>(jobs: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 || n < SEQUENTIAL_WORK_THRESHOLD {
        return items.iter().map(&f).collect();
    }
    let reference = reference_engine_active();
    let chunk = n.div_ceil(jobs * 4).max(1);
    let (tx, rx) = channel::unbounded::<std::ops::Range<usize>>();
    let mut lo = 0;
    while lo < n {
        let hi = (lo + chunk).min(n);
        tx.send(lo..hi)
            .expect("unbounded channel accepts all chunks");
        lo = hi;
    }
    drop(tx);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let rx = rx.clone();
            let (f, results) = (&f, &results);
            scope.spawn(move || {
                let body = || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    while let Ok(range) = rx.recv() {
                        for i in range {
                            local.push((i, f(&items[i])));
                        }
                        let mut slots = results.lock().expect("results mutex poisoned");
                        for (i, r) in local.drain(..) {
                            slots[i] = Some(r);
                        }
                    }
                };
                if reference {
                    with_reference_engine(body)
                } else {
                    body()
                }
            });
        }
    });
    results
        .into_inner()
        .expect("results mutex poisoned")
        .into_iter()
        .map(|r| r.expect("every index was evaluated"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_and_values() {
        let items: Vec<u64> = (0..257).collect();
        for jobs in [1, 2, 3, 8] {
            let out = par_map_collect(jobs, &items, |&x| x * 3 + 1);
            assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_collect(8, &empty, |_| unreachable!() as u32).is_empty());
        assert_eq!(par_map_collect(8, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn small_work_sets_stay_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..SEQUENTIAL_WORK_THRESHOLD as u32 - 1).collect();
        let tids = par_map_collect(8, &items, |_| std::thread::current().id());
        assert!(tids.iter().all(|&t| t == caller));
        // at the threshold the pool engages (with jobs > 1)
        let items: Vec<u32> = (0..SEQUENTIAL_WORK_THRESHOLD as u32).collect();
        let tids = par_map_collect(8, &items, |_| std::thread::current().id());
        assert!(tids.iter().all(|&t| t != caller));
        // and the values still match the sequential map bit-for-bit
        let seq: Vec<u32> = items.iter().map(|&x| x * 3 + 1).collect();
        assert_eq!(par_map_collect(8, &items, |&x| x * 3 + 1), seq);
    }

    #[test]
    fn workers_inherit_the_reference_engine_flag() {
        let items: Vec<u32> = (0..64).collect();
        let flags =
            with_reference_engine(|| par_map_collect(4, &items, |_| reference_engine_active()));
        assert!(flags.iter().all(|&f| f));
        let flags = par_map_collect(4, &items, |_| reference_engine_active());
        assert!(flags.iter().all(|&f| !f));
    }

    #[test]
    fn with_jobs_overrides_and_restores() {
        set_global_jobs(None);
        let outer = effective_jobs();
        with_jobs(3, || {
            assert_eq!(effective_jobs(), 3);
            with_jobs(5, || assert_eq!(effective_jobs(), 5));
            assert_eq!(effective_jobs(), 3);
        });
        assert_eq!(effective_jobs(), outer);
        assert_eq!(jobs_override(), None);
    }

    #[test]
    fn global_jobs_round_trip() {
        set_global_jobs(Some(7));
        // a thread-local override still wins
        with_jobs(2, || assert_eq!(effective_jobs(), 2));
        assert_eq!(effective_jobs(), 7);
        set_global_jobs(None);
    }
}
