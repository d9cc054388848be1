//! Schedule representation: per-processor timelines with gap (insertion)
//! search, primary assignments, and duplication support.
//!
//! Timelines are stored struct-of-arrays ([`Timeline`]): parallel
//! `starts`/`finishes`/`tasks`/`dups` vectors instead of a `Vec<Slot>`.
//! The gap search ([`Schedule::earliest_start`]) and the bulk replay of
//! schedule repair (`Schedule::replay_prefix`) spend their time
//! streaming start/finish times; keeping those as contiguous `f64` arrays
//! halves the bytes those scans touch (no interleaved task ids or
//! duplicate flags) and lets `partition_point` binary-search a plain
//! `&[f64]`. [`Slot`] remains the public *view* type — `Timeline::get`
//! and `Timeline::iter` materialize slots by value on demand — and the
//! serialized wire format is the old array-of-slot-objects, byte for
//! byte, via the manual serde impls below.
//!
//! Each timeline also keeps the gap search's index: per slot, the running
//! maximum of finishes and of the idle gaps within the slot's block of
//! 16, and per block, the widest gap before it. The search rejects a
//! timeline with no wide enough gap in O(1), binary-searches to the first
//! slot that starts late enough, and from there reads one maximum per
//! block, scanning only the blocks whose widest gap could fit the task.
//! The three mutators recompute the index from the mutated slot onward,
//! so it can never be stale, and a deserialized timeline (rebuilt through
//! `push`) has one too.
//!
//! Per task, the schedule keeps every copy's `(processor, finish)`. The
//! first copy is stored inline, so placing a task allocates nothing; only
//! a duplicate moves the task's list to the heap.

use serde::{Deserialize, Serialize};

use hetsched_dag::TaskId;
use hetsched_platform::ProcId;

/// Numerical slack used when comparing slot boundaries: two events closer
/// than this are considered simultaneous. All times in a schedule are
/// finite `f64` seconds.
pub const TIME_EPS: f64 = 1e-9;

/// One occupied interval on a processor timeline.
///
/// Since the struct-of-arrays refactor this is a *view*: timelines store
/// the four fields in parallel vectors and materialize `Slot`s by value
/// (it is 24 bytes and `Copy` — cheaper than chasing a reference).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Slot {
    /// The task executing in this interval.
    pub task: TaskId,
    /// Start time.
    pub start: f64,
    /// Finish time (`start + execution time`).
    pub finish: f64,
    /// Whether this is a duplicate copy (the primary copy lives elsewhere).
    pub duplicate: bool,
}

/// Slots per block of a timeline's gap index: the gap search reads one
/// block maximum before it reads any of the block's slots. A constant of
/// the layout, not a tuning option.
const GAP_BLOCK: usize = 16;

/// One processor's occupied intervals, sorted by start time, stored
/// struct-of-arrays.
///
/// The four slot vectors always have equal length; index `i` across them
/// is slot `i`. Mutation goes through the crate-internal `push`/`insert`/
/// `remove`, which keep the arrays in lockstep; readers use the slice
/// accessors ([`Timeline::starts`], [`Timeline::finishes`]) on hot paths
/// and the [`Slot`]-view API ([`Timeline::get`], [`Timeline::iter`])
/// everywhere else.
///
/// The last three vectors are the gap search's index, derived from the
/// slot times by `fill_gap_index`. Write `gap(j) = fl(fl(starts[j] +
/// TIME_EPS) - prefix_max[j-1])` (with `prefix_max[-1] = 0`) for the idle
/// gap before slot `j`, and cut the slots into blocks of `GAP_BLOCK`:
///
/// * `prefix_max[i]` = running maximum of `finishes[..=i]` — exactly the
///   `prev_finish` value the reference scan holds after processing slot
///   `i` (finishes are *not* monotone: slots may overlap boundaries by up
///   to [`TIME_EPS`], so the last finish is not necessarily the largest).
/// * `block_gap[i]` = maximum of `gap(j)` over the slots `j <= i` of `i`'s
///   block; at a block's last slot it is the block's widest gap.
/// * `gap_before[b]` = maximum, floored at 0, of `gap(j)` over every slot
///   before block `b` (`gap_before[0] = 0`), so the widest gap of the
///   whole timeline is `max(gap_before.last(), block_gap.last())`.
///
/// All three are running maxima, seeded at a block or slot boundary, so a
/// mutation at slot `i` changes no entry before `i`: appending a slot or
/// removing the last one costs O(1), as with a single running maximum. A
/// per-block maximum of the gaps would not: removing a block's widest
/// slot would refold the whole block.
#[derive(Debug, Default, PartialEq)]
pub struct Timeline {
    tasks: Vec<TaskId>,
    starts: Vec<f64>,
    finishes: Vec<f64>,
    dups: Vec<bool>,
    prefix_max: Vec<f64>,
    block_gap: Vec<f64>,
    gap_before: Vec<f64>,
}

/// Manual so that `clone_from` recycles the seven vectors' allocations —
/// the derive would fall back to `*self = source.clone()`, which
/// re-allocates them all. Snapshot-heavy consumers (the branch-and-bound
/// search clones a `Schedule` per branch node) depend on this to keep the
/// struct-of-arrays split from multiplying their allocation count.
impl Clone for Timeline {
    fn clone(&self) -> Self {
        Timeline {
            tasks: self.tasks.clone(),
            starts: self.starts.clone(),
            finishes: self.finishes.clone(),
            dups: self.dups.clone(),
            prefix_max: self.prefix_max.clone(),
            block_gap: self.block_gap.clone(),
            gap_before: self.gap_before.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.tasks.clone_from(&source.tasks);
        self.starts.clone_from(&source.starts);
        self.finishes.clone_from(&source.finishes);
        self.dups.clone_from(&source.dups);
        self.prefix_max.clone_from(&source.prefix_max);
        self.block_gap.clone_from(&source.block_gap);
        self.gap_before.clone_from(&source.gap_before);
    }
}

/// The larger of two gaps (`a` on a tie). Gaps are never NaN.
#[inline]
fn wider(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// Recompute the gap index from slot `from` on, seeded with the entries
/// before it — one pass streaming `starts` and `finishes` in lockstep.
/// With `from = 0` it is a from-scratch rebuild. The caller sizes the
/// three index slices to the slot and block counts.
fn fill_gap_index(
    starts: &[f64],
    finishes: &[f64],
    from: usize,
    prefix_max: &mut [f64],
    block_gap: &mut [f64],
    gap_before: &mut [f64],
) {
    let mut prev = match from {
        0 => 0.0f64,
        _ => prefix_max[from - 1],
    };
    for k in from..starts.len() {
        let gap = (starts[k] + TIME_EPS) - prev;
        block_gap[k] = if k % GAP_BLOCK != 0 {
            wider(block_gap[k - 1], gap)
        } else {
            if k > 0 {
                let b = k / GAP_BLOCK;
                gap_before[b] = wider(gap_before[b - 1], block_gap[k - 1]);
            }
            gap
        };
        prev = prev.max(finishes[k]);
        prefix_max[k] = prev;
    }
}

impl Timeline {
    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the timeline has no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Slot `i`, materialized by value.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Slot {
        Slot {
            task: self.tasks[i],
            start: self.starts[i],
            finish: self.finishes[i],
            duplicate: self.dups[i],
        }
    }

    /// The last slot, if any.
    #[inline]
    pub fn last(&self) -> Option<Slot> {
        if self.is_empty() {
            None
        } else {
            Some(self.get(self.len() - 1))
        }
    }

    /// Iterate slots (by value) in start order.
    #[inline]
    pub fn iter(&self) -> TimelineIter<'_> {
        TimelineIter { tl: self, i: 0 }
    }

    /// Start times as a contiguous slice, in slot order.
    #[inline]
    pub fn starts(&self) -> &[f64] {
        &self.starts
    }

    /// Finish times as a contiguous slice, in slot order.
    #[inline]
    pub fn finishes(&self) -> &[f64] {
        &self.finishes
    }

    /// Task ids as a contiguous slice, in slot order.
    #[inline]
    pub fn tasks(&self) -> &[TaskId] {
        &self.tasks
    }

    /// Finish time of the last slot (0.0 when empty).
    #[inline]
    fn last_finish(&self) -> f64 {
        self.finishes.last().copied().unwrap_or(0.0)
    }

    /// Reserve capacity for exactly `additional` more slots in every
    /// array (and their blocks in `gap_before`).
    fn reserve_exact(&mut self, additional: usize) {
        self.tasks.reserve_exact(additional);
        self.starts.reserve_exact(additional);
        self.finishes.reserve_exact(additional);
        self.dups.reserve_exact(additional);
        self.prefix_max.reserve_exact(additional);
        self.block_gap.reserve_exact(additional);
        let blocks = (self.len() + additional).div_ceil(GAP_BLOCK);
        self.gap_before
            .reserve_exact(blocks.saturating_sub(self.gap_before.len()));
    }

    /// Append a slot (caller guarantees start-order).
    fn push(&mut self, s: Slot) {
        self.tasks.push(s.task);
        self.starts.push(s.start);
        self.finishes.push(s.finish);
        self.dups.push(s.duplicate);
        self.reindex_from(self.len() - 1);
    }

    /// Insert a slot at index `i`, shifting the rest right.
    fn insert(&mut self, i: usize, s: Slot) {
        self.tasks.insert(i, s.task);
        self.starts.insert(i, s.start);
        self.finishes.insert(i, s.finish);
        self.dups.insert(i, s.duplicate);
        self.reindex_from(i);
    }

    /// Remove and return the slot at index `i`, shifting the rest left.
    fn remove(&mut self, i: usize) -> Slot {
        let s = Slot {
            task: self.tasks.remove(i),
            start: self.starts.remove(i),
            finish: self.finishes.remove(i),
            duplicate: self.dups.remove(i),
        };
        self.reindex_from(i);
        s
    }

    /// Bring the gap index back in step after a mutation at slot `from`:
    /// resize it to the slot count and recompute every entry from `from`
    /// to the end. Entries before `from` depend only on the untouched
    /// slots before it, so they stay as they are.
    fn reindex_from(&mut self, from: usize) {
        let len = self.len();
        self.prefix_max.resize(len, 0.0);
        self.block_gap.resize(len, 0.0);
        self.gap_before.resize(len.div_ceil(GAP_BLOCK), 0.0);
        fill_gap_index(
            &self.starts,
            &self.finishes,
            from,
            &mut self.prefix_max,
            &mut self.block_gap,
            &mut self.gap_before,
        );
        debug_assert!(
            self.gap_index_matches_rebuild(),
            "the kept gap index must equal a from-scratch rebuild"
        );
    }

    /// Whether the kept gap index is bit-equal to one rebuilt from scratch.
    fn gap_index_matches_rebuild(&self) -> bool {
        let mut prefix_max = vec![0.0; self.len()];
        let mut block_gap = vec![0.0; self.len()];
        let mut gap_before = vec![0.0; self.len().div_ceil(GAP_BLOCK)];
        fill_gap_index(
            &self.starts,
            &self.finishes,
            0,
            &mut prefix_max,
            &mut block_gap,
            &mut gap_before,
        );
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        same(&prefix_max, &self.prefix_max)
            && same(&block_gap, &self.block_gap)
            && same(&gap_before, &self.gap_before)
    }
}

/// By-value slot iterator over a [`Timeline`].
#[derive(Debug, Clone)]
pub struct TimelineIter<'a> {
    tl: &'a Timeline,
    i: usize,
}

impl Iterator for TimelineIter<'_> {
    type Item = Slot;

    #[inline]
    fn next(&mut self) -> Option<Slot> {
        if self.i < self.tl.len() {
            let s = self.tl.get(self.i);
            self.i += 1;
            Some(s)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.tl.len() - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for TimelineIter<'_> {}

impl<'a> IntoIterator for &'a Timeline {
    type Item = Slot;
    type IntoIter = TimelineIter<'a>;

    fn into_iter(self) -> TimelineIter<'a> {
        self.iter()
    }
}

/// Wire format: exactly the pre-SoA `Vec<Slot>` encoding — an array of
/// slot objects — so serialized schedules (serve replies, CLI dumps,
/// committed fixtures) are byte-identical across the layout change. Each
/// element delegates to [`Slot`]'s derived impl.
impl Serialize for Timeline {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(self.iter().map(|s| s.to_value()).collect())
    }
}

impl Deserialize for Timeline {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let slots: Vec<Slot> = Vec::from_value(v)?;
        let mut tl = Timeline::default();
        tl.reserve_exact(slots.len());
        for s in slots {
            tl.push(s);
        }
        Ok(tl)
    }
}

/// Errors from direct schedule mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The requested interval overlaps an existing slot on that processor.
    Overlap {
        /// Processor on which the overlap occurred.
        proc: ProcId,
        /// Task already occupying the conflicting interval.
        existing: TaskId,
    },
    /// A primary copy of this task was already placed.
    AlreadyScheduled(TaskId),
    /// A duplicate was inserted for a task with no primary copy yet, or a
    /// second copy of the task on the same processor.
    BadDuplicate(TaskId),
    /// Start/duration were negative, NaN, or infinite.
    InvalidTime(f64),
}

impl core::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScheduleError::Overlap { proc, existing } => {
                write!(f, "interval overlaps task {existing} on {proc}")
            }
            ScheduleError::AlreadyScheduled(t) => write!(f, "task {t} already scheduled"),
            ScheduleError::BadDuplicate(t) => write!(f, "invalid duplicate of task {t}"),
            ScheduleError::InvalidTime(v) => write!(f, "invalid time value {v}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A (possibly partial) static schedule.
///
/// Each processor holds a [`Timeline`] sorted by start time; the
/// structure additionally tracks, per task, its *primary* assignment and
/// the finish time of every copy (primary + duplicates) for duplication-
/// aware data-ready-time queries.
///
/// **Serde caveat:** the derived `Deserialize` restores fields verbatim
/// without re-checking the no-overlap invariant; run
/// [`crate::validate::validate`] on any schedule loaded from external
/// data (the CLI does exactly that).
#[derive(Debug, Serialize, Deserialize)]
pub struct Schedule {
    n_tasks: usize,
    timelines: Vec<Timeline>,
    /// Per task: primary (proc, start, finish), if placed.
    primary: Vec<Option<(ProcId, f64, f64)>>,
    /// Per task: every copy as (proc, finish), primary included, in
    /// insertion order.
    copies: Vec<Copies>,
    /// Undo log of the active trial (see [`Schedule::begin_trial`]); `None`
    /// outside a trial, so mutation off the trial path stays log-free.
    /// Ephemeral bookkeeping — always kept off the wire.
    #[serde(default, skip_serializing_if = "skip_trial")]
    trial: Option<Vec<TrialOp>>,
}

/// Manual for the same reason as [`Timeline`]'s: `clone_from` must
/// recycle every nested allocation (timelines with their gap indexes,
/// spilled per-task copy lists) instead of re-allocating them.
/// `Vec::clone_from` reuses its own buffer *and* `clone_from`s each
/// element in place, so the recursion bottoms out with zero allocations
/// once a recycled schedule has seen its capacity high-water mark.
impl Clone for Schedule {
    fn clone(&self) -> Self {
        Schedule {
            n_tasks: self.n_tasks,
            timelines: self.timelines.clone(),
            primary: self.primary.clone(),
            copies: self.copies.clone(),
            trial: self.trial.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n_tasks = source.n_tasks;
        self.timelines.clone_from(&source.timelines);
        self.primary.clone_from(&source.primary);
        self.copies.clone_from(&source.copies);
        self.trial.clone_from(&source.trial);
    }
}

/// Every copy of one task as `(processor, finish)`, in insertion order (a
/// duplicate may come before its primary).
///
/// The first copy is kept inline, so placing a task allocates nothing;
/// only a second copy (a duplicate) spills the list to the heap, and a
/// spilled list stays spilled, so a trial that rolls a duplicate back and
/// adds it again reuses its buffer. Serialized as the plain array of
/// `[proc, finish]` pairs a `Vec` would give.
#[derive(Debug, Default)]
enum Copies {
    #[default]
    None,
    One((ProcId, f64)),
    Many(Vec<(ProcId, f64)>),
}

impl Copies {
    #[inline]
    fn as_slice(&self) -> &[(ProcId, f64)] {
        match self {
            Copies::None => &[],
            Copies::One(copy) => std::slice::from_ref(copy),
            Copies::Many(copies) => copies,
        }
    }

    fn push(&mut self, copy: (ProcId, f64)) {
        match self {
            Copies::None => *self = Copies::One(copy),
            Copies::One(first) => *self = Copies::Many(vec![*first, copy]),
            Copies::Many(copies) => copies.push(copy),
        }
    }

    /// Drop the most recent copy (trial rollback).
    fn pop(&mut self) {
        match self {
            Copies::None => {}
            Copies::One(_) => *self = Copies::None,
            Copies::Many(copies) => {
                copies.pop();
            }
        }
    }
}

/// Manual so that `clone_from` recycles a spilled list's buffer.
impl Clone for Copies {
    fn clone(&self) -> Self {
        match self {
            Copies::None => Copies::None,
            Copies::One(copy) => Copies::One(*copy),
            Copies::Many(copies) => Copies::Many(copies.clone()),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Copies::Many(copies), Copies::Many(from)) => copies.clone_from(from),
            (this, _) => *this = source.clone(),
        }
    }
}

impl Serialize for Copies {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(self.as_slice().iter().map(|c| c.to_value()).collect())
    }
}

impl Deserialize for Copies {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let copies: Vec<(ProcId, f64)> = Vec::from_value(v)?;
        Ok(match copies.len() {
            0 => Copies::None,
            1 => Copies::One(copies[0]),
            _ => Copies::Many(copies),
        })
    }
}

/// `skip_serializing_if` predicate for [`Schedule::trial`]: always skip.
fn skip_trial(_: &Option<Vec<TrialOp>>) -> bool {
    true
}

/// One reversible mutation recorded by the trial undo log.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum TrialOp {
    /// `insert_slot` placed `task` at index `pos` of `proc`'s timeline
    /// (and pushed a `copies` entry for it).
    Slot {
        proc: ProcId,
        pos: usize,
        task: TaskId,
    },
    /// `insert` set the primary assignment of `task`.
    Primary { task: TaskId },
}

impl Schedule {
    /// Empty schedule for `n_tasks` tasks on `n_procs` processors.
    ///
    /// # Panics
    /// Panics if either count is zero.
    pub fn new(n_tasks: usize, n_procs: usize) -> Self {
        assert!(n_tasks > 0, "schedule needs at least one task");
        assert!(n_procs > 0, "schedule needs at least one processor");
        Schedule {
            n_tasks,
            timelines: vec![Timeline::default(); n_procs],
            primary: vec![None; n_tasks],
            copies: vec![Copies::None; n_tasks],
            trial: None,
        }
    }

    /// Number of tasks this schedule is sized for.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Number of processors.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.timelines.len()
    }

    /// Slots on processor `p`, sorted by start time.
    #[inline]
    pub fn slots(&self, p: ProcId) -> &Timeline {
        &self.timelines[p.index()]
    }

    /// Primary assignment of `t`: `(processor, start, finish)`.
    #[inline]
    pub fn assignment(&self, t: TaskId) -> Option<(ProcId, f64, f64)> {
        self.primary[t.index()]
    }

    /// Finish time of the primary copy of `t`.
    #[inline]
    pub fn task_finish(&self, t: TaskId) -> Option<f64> {
        self.primary[t.index()].map(|(_, _, f)| f)
    }

    /// Processor of the primary copy of `t`.
    #[inline]
    pub fn task_proc(&self, t: TaskId) -> Option<ProcId> {
        self.primary[t.index()].map(|(p, _, _)| p)
    }

    /// All copies of `t` as `(processor, finish)`, in insertion order (a
    /// duplicate placed before the primary comes first).
    #[inline]
    pub fn copies(&self, t: TaskId) -> &[(ProcId, f64)] {
        self.copies[t.index()].as_slice()
    }

    /// Finish time of the copy of `t` on processor `p`, if one exists.
    pub fn finish_on(&self, t: TaskId, p: ProcId) -> Option<f64> {
        self.copies(t)
            .iter()
            .find(|&&(q, _)| q == p)
            .map(|&(_, f)| f)
    }

    /// Whether every task has a primary assignment.
    pub fn is_complete(&self) -> bool {
        self.primary.iter().all(Option::is_some)
    }

    /// Number of tasks with a primary assignment.
    pub fn num_scheduled(&self) -> usize {
        self.primary.iter().filter(|a| a.is_some()).count()
    }

    /// Number of duplicate slots across all processors.
    pub fn num_duplicates(&self) -> usize {
        self.timelines
            .iter()
            .map(|tl| tl.dups.iter().filter(|&&d| d).count())
            .sum()
    }

    /// Completion time of the whole schedule: the latest primary finish
    /// (0.0 for an empty schedule). Duplicates never extend the makespan
    /// definition — a trailing duplicate nobody consumes is wasted work,
    /// not application latency — but validators ensure schedulers only add
    /// duplicates that help.
    pub fn makespan(&self) -> f64 {
        self.primary
            .iter()
            .flatten()
            .map(|&(_, _, f)| f)
            .fold(0.0, f64::max)
    }

    /// Total busy time (sum of slot durations, duplicates included).
    pub fn busy_time(&self) -> f64 {
        self.timelines
            .iter()
            .flat_map(|tl| tl.starts.iter().zip(&tl.finishes))
            .map(|(&s, &f)| f - s)
            .sum()
    }

    /// Idle time: processors × makespan − busy time.
    pub fn idle_time(&self) -> f64 {
        (self.num_procs() as f64) * self.makespan() - self.busy_time()
    }

    /// Number of processors with at least one slot.
    pub fn procs_used(&self) -> usize {
        self.timelines.iter().filter(|tl| !tl.is_empty()).count()
    }

    /// Latest finish time of any slot on `p` (0.0 if idle).
    pub fn proc_finish(&self, p: ProcId) -> f64 {
        self.timelines[p.index()].last_finish()
    }

    /// Earliest time at or after `ready` when an idle interval of length
    /// `dur` exists on `p`.
    ///
    /// With `insertion`, gaps between existing slots are considered
    /// (insertion-based policy of HEFT); otherwise only the end of the
    /// timeline (non-insertion / append policy).
    ///
    /// ```
    /// use hetsched_core::Schedule;
    /// use hetsched_dag::TaskId;
    /// use hetsched_platform::ProcId;
    ///
    /// let mut s = Schedule::new(3, 1);
    /// s.insert(TaskId(0), ProcId(0), 0.0, 2.0).unwrap();
    /// s.insert(TaskId(1), ProcId(0), 5.0, 1.0).unwrap();
    /// // a 3-unit job fits the [2, 5) gap under the insertion policy...
    /// assert_eq!(s.earliest_start(ProcId(0), 0.0, 3.0, true), 2.0);
    /// // ...but appends after everything without it
    /// assert_eq!(s.earliest_start(ProcId(0), 0.0, 3.0, false), 6.0);
    /// ```
    pub fn earliest_start(&self, p: ProcId, ready: f64, dur: f64, insertion: bool) -> f64 {
        let tl = &self.timelines[p.index()];
        if !insertion {
            hetsched_trace::counters(|c| c.append_queries += 1);
            return ready.max(self.proc_finish(p));
        }
        if crate::engine::reference_engine_active() {
            // conformance testing forces the reference scan
            hetsched_trace::counters(|c| c.gap_full_scans += 1);
            return Self::earliest_start_scan(tl, ready, dur);
        }
        let out = Self::earliest_start_indexed(tl, ready, dur);
        debug_assert_eq!(
            out.to_bits(),
            Self::earliest_start_scan(tl, ready, dur).to_bits(),
            "indexed gap search must be bit-identical to the reference scan"
        );
        out
    }

    /// Reference insertion-policy gap search: linear scan over the whole
    /// timeline. This is the semantic definition the indexed search must
    /// reproduce bit-for-bit; it is kept as the reference-engine path and
    /// as the oracle for the debug assertion and the property tests. The
    /// scan touches only the two contiguous time arrays.
    pub(crate) fn earliest_start_scan(tl: &Timeline, ready: f64, dur: f64) -> f64 {
        let mut prev_finish = 0.0f64;
        for (&start, &finish) in tl.starts.iter().zip(&tl.finishes) {
            let candidate = ready.max(prev_finish);
            if candidate + dur <= start + TIME_EPS {
                return candidate;
            }
            prev_finish = prev_finish.max(finish);
        }
        ready.max(prev_finish)
    }

    /// Insertion-policy gap search over the kept index. Exactly equivalent
    /// to [`Self::earliest_start_scan`] (same returned bits).
    ///
    /// **The rounding pad.** Let `P = prefix_max[j-1]` (0 for `j = 0`),
    /// `S = fl(starts[j] + TIME_EPS)` and `g = fl(S - P)`, slot `j`'s kept
    /// gap. The scan answers at slot `j` only if `fl(c + dur) <= S` for
    /// `c = max(ready, P) >= P`; rounding is monotone, so then
    /// `fl(P + dur) <= S` too. `P`, `S` and `dur` are each at most `S <=
    /// (scale + TIME_EPS)(1 + 2⁻⁵³)`, where `scale = prefix_max.last()` is
    /// the largest finish (every start is at most its finish), so the two
    /// roundings `fl(P + dur)` and `fl(S - P)` together move the result by
    /// at most `3·(scale + TIME_EPS)·2⁻⁵³`. Hence `dur <= g + pad` with
    /// `pad = (scale + 1)·1e-12`, with room to spare for rounding
    /// `dur - pad` itself: a slot whose gap is below `dur - pad` can never
    /// answer. The stored gap may sit a few ulps *below* `dur` at a slot
    /// where the scan answers, so the pad is needed, not cautious.
    ///
    /// 1. **Fast reject.** By the same bound, when `dur` exceeds the
    ///    widest gap of the whole timeline plus `pad`, no slot can answer
    ///    and the scan's fall-through answer is `ready.max(scale)`.
    /// 2. **Nothing starts late enough.** For any slot with `fl(start +
    ///    TIME_EPS) < fl(ready + dur)` the scan's test is false whatever
    ///    `prev_finish` is (since `candidate >= ready`). When the last
    ///    start is such a slot, so is every slot, and the answer is again
    ///    `ready.max(scale)`.
    /// 3. **Prefix skip.** Otherwise the scan is entered at the first
    ///    slot `lo` where that (monotone) predicate flips — a
    ///    `partition_point` binary search over the contiguous `starts`
    ///    array — seeding `prev_finish` from the prefix maximum, the exact
    ///    value the naive loop would hold there.
    /// 4. **Block skip.** From `lo` on, a block whose widest gap is below
    ///    `dur - pad` holds no answer and is passed over after one read.
    ///    A block that may hold one is scanned slot by slot with the
    ///    scan's own test, `prev_finish` re-seeded from `prefix_max`, and
    ///    the first slot where the test holds is the answer.
    fn earliest_start_indexed(tl: &Timeline, ready: f64, dur: f64) -> f64 {
        let (Some(&scale), Some(&last_start), Some(&head), Some(&tail)) = (
            tl.prefix_max.last(),
            tl.starts.last(),
            tl.gap_before.last(),
            tl.block_gap.last(),
        ) else {
            return ready; // empty timeline
        };
        let pad = (scale + 1.0) * 1e-12;
        let rd = ready + dur;
        if dur > wider(head, tail) + pad || last_start + TIME_EPS < rd {
            hetsched_trace::counters(|k| k.gap_fast_rejects += 1);
            return ready.max(scale);
        }
        let floor = dur - pad;
        let len = tl.len();
        let mut k = tl.starts.partition_point(|&s| s + TIME_EPS < rd);
        let mut visited = 0u64;
        let mut found = None;
        'blocks: while k < len {
            let end = ((k / GAP_BLOCK + 1) * GAP_BLOCK).min(len);
            visited += 1;
            if tl.block_gap[end - 1] >= floor {
                let mut prev_finish = if k == 0 { 0.0 } else { tl.prefix_max[k - 1] };
                for (j, &start) in tl.starts[k..end].iter().enumerate() {
                    let candidate = ready.max(prev_finish);
                    if candidate + dur <= start + TIME_EPS {
                        visited += j as u64 + 1;
                        found = Some(candidate);
                        break 'blocks;
                    }
                    prev_finish = tl.prefix_max[k + j];
                }
                visited += (end - k) as u64;
            }
            k = end;
        }
        hetsched_trace::counters(|c| {
            c.gap_cached_searches += 1;
            c.gap_slots_visited += visited;
        });
        found.unwrap_or_else(|| ready.max(scale))
    }

    /// Place the primary copy of `t` on `p` at `[start, start + dur)`.
    ///
    /// # Errors
    /// * [`ScheduleError::InvalidTime`] for non-finite or negative times.
    /// * [`ScheduleError::AlreadyScheduled`] if `t` already has a primary.
    /// * [`ScheduleError::Overlap`] if the interval is occupied.
    pub fn insert(
        &mut self,
        t: TaskId,
        p: ProcId,
        start: f64,
        dur: f64,
    ) -> Result<(), ScheduleError> {
        if self.primary[t.index()].is_some() {
            return Err(ScheduleError::AlreadyScheduled(t));
        }
        if !start.is_finite() || start < 0.0 {
            return Err(ScheduleError::InvalidTime(start));
        }
        if !dur.is_finite() || dur < 0.0 {
            return Err(ScheduleError::InvalidTime(dur));
        }
        self.insert_primary_at(t, p, start, start + dur)
    }

    /// Place the primary copy of `t` on `p` at `[start, finish)`, storing
    /// `finish` **verbatim** instead of recomputing it as `start + dur`.
    ///
    /// This is the replay primitive of schedule repair: re-inserting a slot
    /// from a previously computed schedule must reproduce its stored bits
    /// exactly, and `fl(start + fl(finish - start))` is not guaranteed to
    /// round back to `finish`. [`Schedule::insert`] computes `start + dur`
    /// once and funnels through the same code path, so the two entry points
    /// can never diverge.
    ///
    /// # Errors
    /// As for [`Schedule::insert`], with [`ScheduleError::InvalidTime`] for
    /// a non-finite `finish` or `finish < start`.
    pub fn insert_with_finish(
        &mut self,
        t: TaskId,
        p: ProcId,
        start: f64,
        finish: f64,
    ) -> Result<(), ScheduleError> {
        if self.primary[t.index()].is_some() {
            return Err(ScheduleError::AlreadyScheduled(t));
        }
        if !start.is_finite() || start < 0.0 {
            return Err(ScheduleError::InvalidTime(start));
        }
        if !finish.is_finite() || finish < start {
            return Err(ScheduleError::InvalidTime(finish));
        }
        self.insert_primary_at(t, p, start, finish)
    }

    /// Bulk-replay the primary placements of `tasks` (a rank-order prefix)
    /// from `parent` into this freshly created, empty schedule — the fast
    /// path of schedule repair.
    ///
    /// Equivalent to calling [`Schedule::insert_with_finish`] once per task
    /// in rank order, but the per-processor timelines are assembled in one
    /// pass over the parent's slot lists, appending every kept slot in
    /// start order. An append updates the gap index in O(1), so the replay
    /// is O(slots) total instead of one O(len) shift and reindex per
    /// mid-timeline insertion, which is what makes replaying nearly the
    /// whole schedule cheaper than recomputing it. Each destination
    /// timeline reserves its exact kept-slot count before the copy, so the
    /// bulk replay performs one allocation per array, never a growth
    /// doubling mid-pass.
    ///
    /// The resulting timeline vectors are bit-identical to the insertion
    /// loop's: an insertion position is a `partition_point` over start
    /// times, so the relative order of two replayed slots is a function
    /// only of their start times and of which was inserted first — both
    /// shared with the parent's own construction — and removing the
    /// parent's non-replayed slots (`insert`/`remove` preserve the
    /// relative order of the remaining elements) cannot reorder the
    /// rest. Filtering the parent's timelines therefore reproduces exactly
    /// the vectors the per-insert replay would build.
    ///
    /// On `Err` the schedule is left partially filled; the caller discards
    /// it and falls back to a from-scratch run. Errors: a task listed
    /// twice or already placed, a task without a primary in `parent`, a
    /// duplicate copy of a replayed task, non-finite/negative times, or an
    /// unsorted/overlapping parent timeline.
    pub(crate) fn replay_prefix(&mut self, parent: &Schedule, tasks: &[TaskId]) -> Result<(), ()> {
        debug_assert!(self.trial.is_none(), "replay_prefix runs outside trials");
        debug_assert!(self.timelines.iter().all(Timeline::is_empty));
        let mut keep = vec![false; self.n_tasks];
        for &t in tasks {
            if t.index() >= self.n_tasks || keep[t.index()] || self.primary[t.index()].is_some() {
                return Err(());
            }
            let Some((p, start, finish)) = parent.assignment(t) else {
                return Err(());
            };
            if p.index() >= self.timelines.len()
                || !start.is_finite()
                || start < 0.0
                || !finish.is_finite()
                || finish < start
            {
                return Err(());
            }
            keep[t.index()] = true;
            self.primary[t.index()] = Some((p, start, finish));
            self.copies[t.index()].push((p, finish));
        }
        let mut placed = 0usize;
        for pi in 0..self.timelines.len() {
            if let Some(src) = parent.timelines.get(pi) {
                // Exact per-processor capacity up front: count the kept
                // slots once (a cheap pass over the task-id array), then
                // fill — the copy loop below can never reallocate.
                let kept = src
                    .tasks
                    .iter()
                    .filter(|t| t.index() < keep.len() && keep[t.index()])
                    .count();
                let tl = &mut self.timelines[pi];
                tl.reserve_exact(kept);
                for s in src.iter() {
                    if s.task.index() >= keep.len() || !keep[s.task.index()] {
                        continue;
                    }
                    if s.duplicate {
                        return Err(());
                    }
                    if let Some(prev) = tl.last() {
                        // The kept subset must stay sorted by start with at
                        // most boundary-coincidence overlap (the insertion
                        // path's conflict formula, see `insert_slot_at`).
                        if s.start < prev.start
                            || (prev.start < s.finish - TIME_EPS
                                && s.start < prev.finish - TIME_EPS)
                        {
                            return Err(());
                        }
                    }
                    tl.push(s);
                    placed += 1;
                }
            }
        }
        // Catches a parent whose timeline slots disagree with its primary
        // table (possible only for hand-built or deserialized schedules).
        if placed != tasks.len() {
            return Err(());
        }
        hetsched_trace::counters(|c| c.timeline_inserts += tasks.len() as u64);
        Ok(())
    }

    fn insert_primary_at(
        &mut self,
        t: TaskId,
        p: ProcId,
        start: f64,
        finish: f64,
    ) -> Result<(), ScheduleError> {
        self.insert_slot_at(t, p, start, finish, false)?;
        self.primary[t.index()] = Some((p, start, finish));
        if let Some(log) = &mut self.trial {
            log.push(TrialOp::Primary { task: t });
        }
        Ok(())
    }

    /// Place a *duplicate* copy of `t` on `p`.
    ///
    /// Duplicates may be inserted before or after the primary (schedulers
    /// typically duplicate parents that are already placed, but the DSH
    /// family also pre-duplicates). A task may have at most one copy per
    /// processor.
    ///
    /// # Errors
    /// * [`ScheduleError::BadDuplicate`] if `t` already has a copy on `p`.
    /// * [`ScheduleError::InvalidTime`] / [`ScheduleError::Overlap`] as for
    ///   [`Schedule::insert`].
    pub fn insert_duplicate(
        &mut self,
        t: TaskId,
        p: ProcId,
        start: f64,
        dur: f64,
    ) -> Result<(), ScheduleError> {
        if self.finish_on(t, p).is_some() {
            return Err(ScheduleError::BadDuplicate(t));
        }
        if !start.is_finite() || start < 0.0 {
            return Err(ScheduleError::InvalidTime(start));
        }
        if !dur.is_finite() || dur < 0.0 {
            return Err(ScheduleError::InvalidTime(dur));
        }
        self.insert_slot_at(t, p, start, start + dur, true)
    }

    fn insert_slot_at(
        &mut self,
        t: TaskId,
        p: ProcId,
        start: f64,
        finish: f64,
        duplicate: bool,
    ) -> Result<(), ScheduleError> {
        let tl = &mut self.timelines[p.index()];
        // Two intervals conflict iff their intersection has positive
        // measure; boundary coincidence (and zero-duration slots at
        // boundaries) is allowed. A zero-duration slot strictly inside a
        // busy interval still conflicts under this formula.
        let overlaps = |a_start: f64, a_finish: f64, b_start: f64, b_finish: f64| {
            a_start < b_finish - TIME_EPS && b_start < a_finish - TIME_EPS
        };
        // position of the first slot starting at or after `start` — a
        // binary search over the contiguous start-time array
        let pos = tl.starts.partition_point(|&s| s < start);
        if pos > 0 && overlaps(start, finish, tl.starts[pos - 1], tl.finishes[pos - 1]) {
            return Err(ScheduleError::Overlap {
                proc: p,
                existing: tl.tasks[pos - 1],
            });
        }
        for k in pos..tl.len() {
            if tl.starts[k] >= finish - TIME_EPS {
                break;
            }
            if overlaps(start, finish, tl.starts[k], tl.finishes[k]) {
                return Err(ScheduleError::Overlap {
                    proc: p,
                    existing: tl.tasks[k],
                });
            }
        }
        tl.insert(
            pos,
            Slot {
                task: t,
                start,
                finish,
                duplicate,
            },
        );
        self.copies[t.index()].push((p, finish));
        if let Some(log) = &mut self.trial {
            log.push(TrialOp::Slot {
                proc: p,
                pos,
                task: t,
            });
        }
        hetsched_trace::counters(|c| c.timeline_inserts += 1);
        Ok(())
    }

    /// Start recording an undo log so subsequent insertions can be undone
    /// with [`Schedule::rollback_trial`].
    ///
    /// This is the allocation-free alternative to cloning the whole
    /// schedule per speculative candidate: the duplication-trial loops of
    /// DUP-HEFT and ILS-D probe a placement (primary insert plus any
    /// parent duplicates), read the resulting finish time, and roll the
    /// probe back — touching only the slots the probe created.
    ///
    /// # Panics
    /// Panics if a trial is already active (trials do not nest).
    pub fn begin_trial(&mut self) {
        assert!(self.trial.is_none(), "schedule trials do not nest");
        self.trial = Some(Vec::new());
    }

    /// Undo every mutation since [`Schedule::begin_trial`], restoring the
    /// schedule bit-for-bit (timelines with their gap indexes,
    /// assignments, and copies).
    ///
    /// # Panics
    /// Panics if no trial is active.
    pub fn rollback_trial(&mut self) {
        let log = self.trial.take().expect("no active trial to roll back");
        // Reverse order makes each recorded insertion index valid at the
        // moment it is undone, and makes `copies.pop()` remove exactly the
        // entry its op pushed.
        for op in log.into_iter().rev() {
            match op {
                TrialOp::Primary { task } => {
                    self.primary[task.index()] = None;
                }
                TrialOp::Slot { proc, pos, task } => {
                    let removed = self.timelines[proc.index()].remove(pos);
                    debug_assert_eq!(removed.task, task);
                    self.copies[task.index()].pop();
                }
            }
        }
    }

    /// Keep every mutation since [`Schedule::begin_trial`] and drop the
    /// undo log.
    ///
    /// # Panics
    /// Panics if no trial is active.
    pub fn commit_trial(&mut self) {
        assert!(self.trial.take().is_some(), "no active trial to commit");
    }

    /// Render the schedule as a plain-text Gantt chart (one line per
    /// processor), for examples and debugging.
    pub fn render_gantt(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "makespan = {:.4}", self.makespan());
        for (pi, tl) in self.timelines.iter().enumerate() {
            let _ = write!(s, "p{pi}: ");
            for slot in tl.iter() {
                let mark = if slot.duplicate { "*" } else { "" };
                let _ = write!(
                    s,
                    "[{:.2}..{:.2} {}{}] ",
                    slot.start, slot.finish, slot.task, mark
                );
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_and_queries() {
        let mut s = Schedule::new(3, 2);
        s.insert(TaskId(0), ProcId(0), 0.0, 2.0).unwrap();
        s.insert(TaskId(1), ProcId(0), 3.0, 1.0).unwrap();
        s.insert(TaskId(2), ProcId(1), 0.5, 4.0).unwrap();
        assert_eq!(s.makespan(), 4.5);
        assert_eq!(s.assignment(TaskId(1)), Some((ProcId(0), 3.0, 4.0)));
        assert_eq!(s.task_finish(TaskId(2)), Some(4.5));
        assert_eq!(s.task_proc(TaskId(0)), Some(ProcId(0)));
        assert!(s.is_complete());
        assert_eq!(s.num_scheduled(), 3);
        assert_eq!(s.procs_used(), 2);
        assert_eq!(s.busy_time(), 7.0);
        assert!((s.idle_time() - (2.0 * 4.5 - 7.0)).abs() < 1e-12);
    }

    #[test]
    fn overlap_detection() {
        let mut s = Schedule::new(3, 1);
        s.insert(TaskId(0), ProcId(0), 1.0, 2.0).unwrap();
        // overlapping from the left
        let e = s.insert(TaskId(1), ProcId(0), 0.0, 1.5).unwrap_err();
        assert!(matches!(e, ScheduleError::Overlap { .. }));
        // overlapping from the right
        let e = s.insert(TaskId(1), ProcId(0), 2.5, 1.0).unwrap_err();
        assert!(matches!(e, ScheduleError::Overlap { .. }));
        // fully inside
        let e = s.insert(TaskId(1), ProcId(0), 1.5, 0.5).unwrap_err();
        assert!(matches!(e, ScheduleError::Overlap { .. }));
        // touching boundaries is fine
        s.insert(TaskId(1), ProcId(0), 3.0, 1.0).unwrap();
        s.insert(TaskId(2), ProcId(0), 0.0, 1.0).unwrap();
    }

    #[test]
    fn double_schedule_rejected() {
        let mut s = Schedule::new(2, 2);
        s.insert(TaskId(0), ProcId(0), 0.0, 1.0).unwrap();
        assert_eq!(
            s.insert(TaskId(0), ProcId(1), 5.0, 1.0).unwrap_err(),
            ScheduleError::AlreadyScheduled(TaskId(0))
        );
    }

    #[test]
    fn invalid_times_rejected() {
        let mut s = Schedule::new(1, 1);
        assert!(matches!(
            s.insert(TaskId(0), ProcId(0), -1.0, 1.0).unwrap_err(),
            ScheduleError::InvalidTime(_)
        ));
        assert!(matches!(
            s.insert(TaskId(0), ProcId(0), 0.0, f64::NAN).unwrap_err(),
            ScheduleError::InvalidTime(_)
        ));
    }

    #[test]
    fn earliest_start_append_policy() {
        let mut s = Schedule::new(3, 1);
        s.insert(TaskId(0), ProcId(0), 0.0, 2.0).unwrap();
        s.insert(TaskId(1), ProcId(0), 5.0, 1.0).unwrap();
        // append ignores the [2, 5) gap
        assert_eq!(s.earliest_start(ProcId(0), 0.0, 1.0, false), 6.0);
        assert_eq!(s.earliest_start(ProcId(0), 8.0, 1.0, false), 8.0);
    }

    #[test]
    fn earliest_start_insertion_policy_finds_gap() {
        let mut s = Schedule::new(4, 1);
        s.insert(TaskId(0), ProcId(0), 0.0, 2.0).unwrap();
        s.insert(TaskId(1), ProcId(0), 5.0, 1.0).unwrap();
        // fits the [2, 5) gap
        assert_eq!(s.earliest_start(ProcId(0), 0.0, 3.0, true), 2.0);
        // too long for the gap -> end of timeline
        assert_eq!(s.earliest_start(ProcId(0), 0.0, 3.5, true), 6.0);
        // ready inside the gap
        assert_eq!(s.earliest_start(ProcId(0), 2.5, 2.0, true), 2.5);
        // ready after everything
        assert_eq!(s.earliest_start(ProcId(0), 10.0, 1.0, true), 10.0);
        // empty processor starts at ready
        assert_eq!(
            Schedule::new(1, 1).earliest_start(ProcId(0), 1.5, 1.0, true),
            1.5
        );
    }

    #[test]
    fn earliest_start_gap_exact_fit() {
        let mut s = Schedule::new(3, 1);
        s.insert(TaskId(0), ProcId(0), 0.0, 2.0).unwrap();
        s.insert(TaskId(1), ProcId(0), 4.0, 1.0).unwrap();
        // exactly 2.0-long gap
        assert_eq!(s.earliest_start(ProcId(0), 0.0, 2.0, true), 2.0);
        s.insert(TaskId(2), ProcId(0), 2.0, 2.0).unwrap();
    }

    #[test]
    fn duplicates_tracked_separately() {
        let mut s = Schedule::new(2, 2);
        s.insert(TaskId(0), ProcId(0), 0.0, 2.0).unwrap();
        s.insert_duplicate(TaskId(0), ProcId(1), 1.0, 2.5).unwrap();
        s.insert(TaskId(1), ProcId(1), 3.5, 1.0).unwrap();
        assert_eq!(s.num_duplicates(), 1);
        assert_eq!(s.finish_on(TaskId(0), ProcId(0)), Some(2.0));
        assert_eq!(s.finish_on(TaskId(0), ProcId(1)), Some(3.5));
        assert_eq!(s.copies(TaskId(0)).len(), 2);
        // primary finish unchanged by the duplicate
        assert_eq!(s.task_finish(TaskId(0)), Some(2.0));
        // duplicate on the same proc rejected
        assert_eq!(
            s.insert_duplicate(TaskId(0), ProcId(1), 6.0, 1.0)
                .unwrap_err(),
            ScheduleError::BadDuplicate(TaskId(0))
        );
        // makespan counts primaries only
        assert_eq!(s.makespan(), 4.5);
    }

    #[test]
    fn zero_duration_slots_allowed() {
        // virtual entry/exit tasks have zero cost
        let mut s = Schedule::new(2, 1);
        s.insert(TaskId(0), ProcId(0), 1.0, 0.0).unwrap();
        s.insert(TaskId(1), ProcId(0), 1.0, 2.0).unwrap();
        assert_eq!(s.makespan(), 3.0);
    }

    #[test]
    fn timeline_view_and_soa_slices_agree() {
        // The Slot-view API (get/iter/last) and the raw SoA slices expose
        // the same data in the same order.
        let mut s = Schedule::new(3, 1);
        s.insert(TaskId(0), ProcId(0), 0.0, 2.0).unwrap();
        s.insert(TaskId(2), ProcId(0), 5.0, 1.0).unwrap();
        s.insert_duplicate(TaskId(1), ProcId(0), 3.0, 1.0).unwrap();
        let tl = s.slots(ProcId(0));
        assert_eq!(tl.len(), 3);
        assert!(!tl.is_empty());
        assert_eq!(tl.starts(), &[0.0, 3.0, 5.0]);
        assert_eq!(tl.finishes(), &[2.0, 4.0, 6.0]);
        assert_eq!(tl.tasks(), &[TaskId(0), TaskId(1), TaskId(2)]);
        for (k, slot) in tl.iter().enumerate() {
            assert_eq!(slot, tl.get(k));
            assert_eq!(slot.start, tl.starts()[k]);
            assert_eq!(slot.finish, tl.finishes()[k]);
            assert_eq!(slot.task, tl.tasks()[k]);
        }
        assert_eq!(tl.iter().len(), 3);
        assert_eq!(tl.last(), Some(tl.get(2)));
        assert!(tl.get(1).duplicate);
        // IntoIterator for &Timeline (the `for slot in sched.slots(p)` form)
        let visited: Vec<Slot> = tl.into_iter().collect();
        assert_eq!(visited, tl.iter().collect::<Vec<_>>());
    }

    #[test]
    fn timeline_wire_format_is_the_slot_array() {
        // The SoA layout must serialize exactly as the old Vec<Slot> did:
        // an array of {task, start, finish, duplicate} objects.
        let mut s = Schedule::new(2, 1);
        s.insert(TaskId(0), ProcId(0), 0.0, 2.0).unwrap();
        s.insert_duplicate(TaskId(1), ProcId(0), 3.0, 1.5).unwrap();
        s.insert(TaskId(1), ProcId(0), 6.0, 1.0).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        assert!(
            json.contains(r#""timelines":[[{"task":0,"start":0.0,"finish":2.0,"duplicate":false}"#),
            "{json}"
        );
        // round trip restores every slot (and the derived gap index stays
        // off the wire, rebuilt on load)
        assert!(!json.contains("prefix_max"), "{json}");
        assert!(!json.contains("max_gap"), "{json}");
        assert!(!json.contains("epoch"), "{json}");
        let back: Schedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back.slots(ProcId(0)).len(), 3);
        for k in 0..3 {
            assert_eq!(back.slots(ProcId(0)).get(k), s.slots(ProcId(0)).get(k));
        }
        assert_eq!(back.slots(ProcId(0)), s.slots(ProcId(0)));
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn trial_rollback_restores_the_schedule_bit_for_bit() {
        let mut s = Schedule::new(4, 2);
        s.insert(TaskId(0), ProcId(0), 0.0, 2.0).unwrap();
        s.insert(TaskId(1), ProcId(0), 5.0, 1.0).unwrap();
        let before = serde_json::to_string(&s).unwrap();
        let start_before = s.earliest_start(ProcId(0), 0.0, 3.0, true);

        s.begin_trial();
        // mid-timeline insert (fills the [2,5) gap), a duplicate, and a
        // second primary on the other processor
        s.insert(TaskId(2), ProcId(0), 2.0, 3.0).unwrap();
        s.insert_duplicate(TaskId(0), ProcId(1), 0.0, 2.5).unwrap();
        s.insert(TaskId(3), ProcId(1), 2.5, 1.0).unwrap();
        assert_eq!(s.num_scheduled(), 4);
        s.rollback_trial();

        assert_eq!(serde_json::to_string(&s).unwrap(), before);
        assert_eq!(s.num_scheduled(), 2);
        assert_eq!(s.num_duplicates(), 0);
        assert!(s.copies(TaskId(2)).is_empty());
        // gap index restored in lockstep too
        assert_eq!(
            s.earliest_start(ProcId(0), 0.0, 3.0, true).to_bits(),
            start_before.to_bits()
        );
        // the schedule is fully usable afterwards
        s.insert(TaskId(2), ProcId(0), 2.0, 3.0).unwrap();
    }

    #[test]
    fn trial_round_trip_to_equal_length_keeps_gap_search_fresh() {
        // Round-trip a trial back to a timeline of the *same length* as the
        // trial's peak, with different slot contents: the gap search must
        // answer from the live timeline, never from an index built during
        // the trial.
        let mut s = Schedule::new(4, 1);
        s.insert(TaskId(0), ProcId(0), 0.0, 2.0).unwrap();
        s.insert(TaskId(1), ProcId(0), 6.0, 1.0).unwrap();

        s.begin_trial();
        // fills the [2, 6) gap — length 3 with the gap occupied
        s.insert(TaskId(2), ProcId(0), 2.0, 4.0).unwrap();
        assert_eq!(s.earliest_start(ProcId(0), 0.0, 3.0, true), 7.0);
        s.rollback_trial();

        // back to length 3, but now with the gap open and changed finishes
        s.insert(TaskId(3), ProcId(0), 9.0, 2.0).unwrap();
        let got = s.earliest_start(ProcId(0), 0.0, 3.0, true);
        let want = Schedule::earliest_start_scan(s.slots(ProcId(0)), 0.0, 3.0);
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(got, 2.0, "the [2, 6) gap must be rediscovered");
    }

    #[test]
    fn insert_with_finish_stores_the_finish_verbatim() {
        let mut s = Schedule::new(3, 1);
        // A (start, finish) pair where recomputing finish as
        // `start + (finish - start)` need not round back to the same bits;
        // the replay primitive must store the given finish untouched.
        let (start, finish) = (0.1, 0.30000000000000004);
        s.insert_with_finish(TaskId(0), ProcId(0), start, finish)
            .unwrap();
        let (p, got_start, got_finish) = s.assignment(TaskId(0)).unwrap();
        assert_eq!(p, ProcId(0));
        assert_eq!(got_start.to_bits(), start.to_bits());
        assert_eq!(got_finish.to_bits(), finish.to_bits());
        assert_eq!(s.slots(ProcId(0)).get(0).finish.to_bits(), finish.to_bits());

        // error paths mirror `insert`
        assert_eq!(
            s.insert_with_finish(TaskId(0), ProcId(0), 1.0, 2.0)
                .unwrap_err(),
            ScheduleError::AlreadyScheduled(TaskId(0))
        );
        assert!(matches!(
            s.insert_with_finish(TaskId(1), ProcId(0), 2.0, 1.0)
                .unwrap_err(),
            ScheduleError::InvalidTime(_)
        ));
        assert!(matches!(
            s.insert_with_finish(TaskId(1), ProcId(0), -1.0, 1.0)
                .unwrap_err(),
            ScheduleError::InvalidTime(_)
        ));
        // zero-length and normal inserts still compose
        s.insert_with_finish(TaskId(1), ProcId(0), finish, finish)
            .unwrap();
        s.insert(TaskId(2), ProcId(0), 1.0, 1.0).unwrap();
    }

    #[test]
    fn gap_search_keeps_the_rounding_pad_per_slot() {
        // The kept gap before slot 1 is 2 ulps below `dur`, yet the scan
        // answers in that gap: a skip that compared gaps with `dur`
        // without the rounding pad would answer after slot 1 instead.
        let mut s = Schedule::new(2, 1);
        s.insert_with_finish(TaskId(0), ProcId(0), 0.0, 55.5000000008)
            .unwrap();
        s.insert_with_finish(TaskId(1), ProcId(0), 62.70414474556837, 63.70414474556837)
            .unwrap();
        let dur = 7.204144745768369;
        let gap = (62.70414474556837 + TIME_EPS) - 55.5000000008;
        assert_eq!(gap, 7.204144745768367);
        assert!(gap < dur);
        let scan = Schedule::earliest_start_scan(s.slots(ProcId(0)), 0.0, dur);
        assert_eq!(scan, 55.5000000008);
        assert_eq!(
            s.earliest_start(ProcId(0), 0.0, dur, true).to_bits(),
            scan.to_bits()
        );
    }

    /// The schedule `copy_table_survives_every_path` checks, one copy
    /// path per step.
    fn copy_table_schedule() -> Schedule {
        let (p0, p1, p2) = (ProcId(0), ProcId(1), ProcId(2));
        let mut s = Schedule::new(6, 3);
        s.insert(TaskId(0), p0, 0.0, 2.0).unwrap();
        // a duplicate before its primary, and one after
        s.insert_duplicate(TaskId(1), p1, 0.0, 1.5).unwrap();
        s.insert(TaskId(1), p0, 2.0, 1.5).unwrap();
        s.insert_duplicate(TaskId(0), p2, 0.0, 2.5).unwrap();
        s.insert(TaskId(3), p1, 3.0, 1.0).unwrap();
        // rolled back: a first copy, a second copy and a third copy
        s.begin_trial();
        s.insert(TaskId(5), p2, 3.5, 1.0).unwrap();
        s.insert_duplicate(TaskId(3), p0, 5.0, 1.0).unwrap();
        s.insert_duplicate(TaskId(0), p1, 4.0, 2.0).unwrap();
        s.rollback_trial();
        // committed: a primary and its duplicate
        s.begin_trial();
        s.insert(TaskId(2), p2, 2.5, 1.0).unwrap();
        s.insert_duplicate(TaskId(2), p1, 1.5, 1.25).unwrap();
        s.commit_trial();
        s.insert(TaskId(4), p0, 3.5, 0.5).unwrap();
        s
    }

    #[test]
    fn copy_table_survives_every_path() {
        // The serialized form as the `Vec`-per-task table wrote it.
        const JSON: &str = concat!(
            r#"{"n_tasks":6,"timelines":[[{"task":0,"start":0.0,"finish":2.0,"duplicate":false},"#,
            r#"{"task":1,"start":2.0,"finish":3.5,"duplicate":false},"#,
            r#"{"task":4,"start":3.5,"finish":4.0,"duplicate":false}],"#,
            r#"[{"task":1,"start":0.0,"finish":1.5,"duplicate":true},"#,
            r#"{"task":2,"start":1.5,"finish":2.75,"duplicate":true},"#,
            r#"{"task":3,"start":3.0,"finish":4.0,"duplicate":false}],"#,
            r#"[{"task":0,"start":0.0,"finish":2.5,"duplicate":true},"#,
            r#"{"task":2,"start":2.5,"finish":3.5,"duplicate":false}]],"#,
            r#""primary":[[0,0.0,2.0],[0,2.0,3.5],[2,2.5,3.5],[1,3.0,4.0],[0,3.5,4.0],null],"#,
            r#""copies":[[[0,2.0],[2,2.5]],[[1,1.5],[0,3.5]],[[2,3.5],[1,2.75]],[[1,4.0]],[[0,4.0]],[]]}"#,
        );
        let (p0, p1, p2) = (ProcId(0), ProcId(1), ProcId(2));
        let want: [&[(ProcId, f64)]; 6] = [
            &[(p0, 2.0), (p2, 2.5)],
            &[(p1, 1.5), (p0, 3.5)],
            &[(p2, 3.5), (p1, 2.75)],
            &[(p1, 4.0)],
            &[(p0, 4.0)],
            &[],
        ];
        let check = |s: &Schedule, what: &str| {
            for (t, want) in want.iter().enumerate() {
                assert_eq!(s.copies(TaskId(t as u32)), *want, "task {t} after {what}");
            }
            assert_eq!(serde_json::to_string(s).unwrap(), JSON, "after {what}");
        };
        let s = copy_table_schedule();
        check(&s, "inserts and trials");

        let back: Schedule = serde_json::from_str(JSON).unwrap();
        check(&back, "a serde round trip");

        // a used schedule whose lists differ in every shape
        let mut used = Schedule::new(6, 3);
        used.insert(TaskId(0), p1, 0.0, 1.0).unwrap();
        used.insert(TaskId(2), p0, 0.0, 1.0).unwrap();
        used.insert_duplicate(TaskId(2), p1, 1.0, 1.0).unwrap();
        used.insert_duplicate(TaskId(2), p2, 0.0, 1.0).unwrap();
        used.insert(TaskId(5), p2, 1.0, 1.0).unwrap();
        used.clone_from(&s);
        check(&used, "clone_from into a used schedule");
        check(&s.clone(), "clone");

        // replay keeps every replayed task's single copy, and nothing else
        let mut replayed = Schedule::new(6, 3);
        replayed.replay_prefix(&s, &[TaskId(3), TaskId(4)]).unwrap();
        for t in 0..6 {
            let want = if t == 3 || t == 4 { want[t] } else { &[] };
            assert_eq!(
                replayed.copies(TaskId(t as u32)),
                want,
                "task {t} after replay"
            );
        }
    }

    #[test]
    fn trial_commit_keeps_mutations() {
        let mut s = Schedule::new(2, 1);
        s.begin_trial();
        s.insert(TaskId(0), ProcId(0), 0.0, 1.0).unwrap();
        s.commit_trial();
        assert_eq!(s.task_finish(TaskId(0)), Some(1.0));
        // a later rollback must not see the committed ops
        s.begin_trial();
        s.insert(TaskId(1), ProcId(0), 1.0, 1.0).unwrap();
        s.rollback_trial();
        assert_eq!(s.task_finish(TaskId(0)), Some(1.0));
        assert_eq!(s.task_finish(TaskId(1)), None);
    }

    #[test]
    #[should_panic(expected = "trials do not nest")]
    fn trials_do_not_nest() {
        let mut s = Schedule::new(1, 1);
        s.begin_trial();
        s.begin_trial();
    }

    #[test]
    fn gantt_rendering_mentions_everything() {
        let mut s = Schedule::new(2, 2);
        s.insert(TaskId(0), ProcId(0), 0.0, 1.0).unwrap();
        s.insert(TaskId(1), ProcId(1), 1.0, 1.0).unwrap();
        s.insert_duplicate(TaskId(0), ProcId(1), 0.0, 1.0).unwrap();
        let g = s.render_gantt();
        assert!(g.contains("makespan = 2.0000"));
        assert!(g.contains("p0:"));
        assert!(g.contains("t0*"), "duplicate marked with *: {g}");
    }
}
