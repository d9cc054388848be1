//! `paper-grid`: the engine at the sizes the paper evaluates.
//!
//! A closed loop on one thread over a fixed rotation of library calls:
//! `Scheduler::schedule` for HEFT, ILS-H and CPOP on the fig10 instances
//! of n = 1600 and n = 3200, then one HEFT `apply_deltas` + `repair` on
//! the n = 3200 instance with one ETC entry of its last-ranked task nudged
//! by 2% (the `perf` repair section's delta). Serve and gateway do no
//! work here.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hetsched_core::{repairable, CostAggregation, Delta, ProblemInstance, Schedule, Scheduler};
use hetsched_dag::{Dag, TaskId};
use hetsched_platform::{ProcId, System};

use crate::problems::{fig10_instance, fig10_seed, scheduler, Expect};
use crate::stats::{median, quantile, sorted, windowed_tail};
use crate::{peak_rss_mb, Metric, Report, MIN_TAIL_SAMPLES, SETUPS};

/// Algorithms of the rotation, in order.
pub const ALGS: [&str; 3] = ["HEFT", "ILS-H", "CPOP"];
/// Problem sizes of the rotation.
pub const SIZES: [usize; 2] = [1600, 3200];
/// Back-to-back pairs behind each same-run ratio.
const RATIO_REPS: usize = 15;

/// fig10 repetitions per size. One instance pair per seed would make a
/// run's figures a property of that pair; several average it out. The
/// repair op's cost is mostly `apply_deltas` re-ranking the nudged task's
/// ancestors, and that closure differs by instance: one op takes 0.6 to
/// 1.2 ms, in two clusters. The median of 32 such ops moved 0.77-0.94 ms
/// with the seed; 64 halve the spread.
pub const REPS: u64 = 64;

/// One repetition's inputs.
pub struct Rep {
    /// `(dag, system)` of the n = 1600 instance.
    pub small: (Dag, System),
    /// The n = 3200 instance, also the patch parent, rank memo warm.
    pub parent: ProblemInstance<'static>,
    /// HEFT's schedule of `parent`.
    pub parent_sched: Schedule,
    /// The one-entry ETC nudge the repair op applies.
    pub deltas: Vec<Delta>,
}

impl Rep {
    /// Generate repetition `rep` for `seed`: the fig10 instances plus
    /// the repair parent, its HEFT schedule, and the delta.
    pub fn build(seed: u64, rep: u64) -> Rep {
        let [small_n, large_n] = SIZES;
        let small = fig10_instance(fig10_seed(seed, small_n, rep), small_n);
        let (dag, sys) = fig10_instance(fig10_seed(seed, large_n, rep), large_n);
        let parent = ProblemInstance::new(dag, sys);
        let parent_sched = scheduler("HEFT").schedule_instance(&parent);
        // HEFT schedules the minimum-upward-rank task last: nudging its
        // ETC row leaves the rank-order prefix intact, so nearly the whole
        // parent schedule replays
        let ranks = parent.upward_rank(CostAggregation::Mean);
        let last = ranks
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| TaskId(i as u32))
            .expect("non-empty DAG");
        let time = parent.sys().exec_time(last, ProcId(0)) * 1.02;
        let deltas = vec![Delta::EtcEntry {
            task: last,
            proc: ProcId(0),
            time,
        }];
        Rep {
            small,
            parent,
            parent_sched,
            deltas,
        }
    }

    /// `(dag, system)` of entry `size` of [`SIZES`].
    pub fn instance(&self, size: usize) -> (&Dag, &System) {
        match size {
            0 => (&self.small.0, &self.small.1),
            _ => (self.parent.dag(), self.parent.sys()),
        }
    }
}

/// The generated grid: [`REPS`] repetitions.
pub type Grid = Vec<Rep>;

/// One op of the rotation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule { alg: usize, size: usize },
    Repair,
}

/// One pass: every op on every repetition.
fn rotation() -> Vec<(usize, Op)> {
    (0..REPS as usize)
        .flat_map(|rep| {
            (0..SIZES.len())
                .flat_map(|size| (0..ALGS.len()).map(move |alg| Op::Schedule { alg, size }))
                .chain(std::iter::once(Op::Repair))
                .map(move |op| (rep, op))
        })
        .collect()
}

/// The schedulers and the repairer, built once.
struct Engines {
    algs: Vec<Box<dyn Scheduler + Send + Sync>>,
    repairer: hetsched_core::RepairScheduler,
}

impl Engines {
    fn new() -> Engines {
        Engines {
            algs: ALGS.iter().map(|name| scheduler(name)).collect(),
            repairer: repairable("HEFT").expect("HEFT is repair-capable"),
        }
    }

    fn run(&self, grid: &Rep, op: Op) -> Schedule {
        match op {
            Op::Schedule { alg, size } => {
                let (dag, sys) = grid.instance(size);
                self.algs[alg].schedule(dag, sys)
            }
            Op::Repair => {
                let patched = grid
                    .parent
                    .apply_deltas(&grid.deltas)
                    .expect("ETC delta applies");
                let (sched, _stats) = self.repairer.repair(
                    &patched.instance,
                    &patched.dirty,
                    &grid.parent,
                    &grid.parent_sched,
                );
                sched
            }
        }
    }

    /// The expected result of `op`: the direct from-scratch library call,
    /// validated. For the repair op that is a fresh HEFT run on the
    /// patched problem, which repair must reproduce bit for bit.
    fn expect(&self, grid: &Rep, op: Op) -> Expect {
        match op {
            Op::Schedule { alg, size } => {
                let (dag, sys) = grid.instance(size);
                let sched = self.algs[alg].schedule(dag, sys);
                Expect::of(&ProblemInstance::from_refs(dag, sys), &sched)
            }
            Op::Repair => {
                let patched = grid
                    .parent
                    .apply_deltas(&grid.deltas)
                    .expect("ETC delta applies");
                let fresh = self.algs[0].schedule(patched.instance.dag(), patched.instance.sys());
                Expect::of(&patched.instance, &fresh)
            }
        }
    }
}

/// Set up `reps` times, keeping the last grid; returns it with the median
/// set-up time.
pub fn setup(seed: u64, reps: usize) -> (Grid, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut grid = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        grid = Some((0..REPS).map(|rep| Rep::build(seed, rep)).collect());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        grid.expect("at least one set-up"),
        median(&times).expect("set-up times"),
    )
}

/// Each op's fastest time over the passes: entry `i` is the least of
/// `passes[p][i]` over every pass `p`.
///
/// The host's other tenants slow a single thread by 10-40% for stretches
/// of seconds to minutes. Within one same-seed run the pass rate sat near
/// 198/s for 14 passes and near 250/s for the rest, and over six minutes of
/// back-to-back passes the median pass rate of 25-second stretches ranged
/// from 186 to 265/s. Such slowdowns only ever add time, so each op's
/// fastest time is its cost on an uncontended core; over the same six
/// minutes the figures built from it spread less than half as much. A
/// slower program is slower in every pass, so it still shows.
pub fn fastest_times(passes: &[Vec<f64>]) -> Vec<f64> {
    let mut best = passes.first().cloned().unwrap_or_default();
    for pass in passes.iter().skip(1) {
        for (b, &t) in best.iter_mut().zip(pass) {
            *b = b.min(t);
        }
    }
    best
}

/// Run the `paper-grid` workload for `span`.
pub fn run(seed: u64, span: Duration) -> Report {
    let (grid, setup_s) = setup(seed, SETUPS);
    let engines = Engines::new();
    let ops = rotation();
    let expected: Vec<Expect> = ops
        .iter()
        .map(|&(rep, op)| engines.expect(&grid[rep], op))
        .collect();
    // the repaired schedules themselves, validated once before timing
    for rep in &grid {
        let patched = rep
            .parent
            .apply_deltas(&rep.deltas)
            .expect("ETC delta applies");
        let repaired = engines.run(rep, Op::Repair);
        hetsched_core::validate(patched.instance.dag(), patched.instance.sys(), &repaired)
            .expect("repaired schedule validates");
    }

    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut latencies = Vec::new();
    let mut failed = 0usize;
    let start = Instant::now();
    loop {
        let mut pass = Vec::with_capacity(ops.len());
        for (&(rep, op), expect) in ops.iter().zip(&expected) {
            let t0 = Instant::now();
            let sched = black_box(engines.run(&grid[rep], op));
            pass.push(t0.elapsed().as_secs_f64() * 1e3);
            if sched.makespan().to_bits() != expect.makespan_bits {
                failed += 1;
            }
        }
        latencies.extend_from_slice(&pass);
        passes.push(pass);
        let elapsed = start.elapsed();
        if (elapsed >= span && latencies.len() >= MIN_TAIL_SAMPLES) || elapsed >= 3 * span {
            break;
        }
    }
    let attempted = latencies.len();
    let pass_rates = sorted(
        passes
            .iter()
            .map(|p| 1e3 * ops.len() as f64 / p.iter().sum::<f64>())
            .collect(),
    );
    let best = fastest_times(&passes);
    let best_repairs: Vec<f64> = ops
        .iter()
        .zip(&best)
        .filter(|((_, op), _)| matches!(op, Op::Repair))
        .map(|(_, &t)| t)
        .collect();
    let p99 = windowed_tail(&latencies, 0.99);
    let slr_mean = expected.iter().map(|e| e.slr).sum::<f64>() / expected.len() as f64;
    let mut report = Report::new(attempted, failed, failed == 0);
    report.note(format!(
        "paper-grid: {} passes of {} ops (HEFT/ILS-H/CPOP at n=1600,3200 + HEFT repair at n=3200, {REPS} fig10 repetitions)",
        passes.len(),
        ops.len()
    ));
    report.note(format!(
        "pass rates min/median/max {:.1}/{:.1}/{:.1} /s; ops_per_s, p50_ms and patch_p50_ms use each op's fastest time over the passes, p99_ms every sample",
        pass_rates[0],
        quantile(&pass_rates, 0.5).unwrap_or(0.0),
        pass_rates[pass_rates.len() - 1],
    ));
    report.push(Metric::new("setup_s", setup_s, "s"));
    report.push(Metric::new(
        "ops_per_s",
        1e3 * ops.len() as f64 / best.iter().sum::<f64>(),
        "1/s",
    ));
    report.push(Metric::new(
        "p50_ms",
        median(&best).expect("at least one op"),
        "ms",
    ));
    report.push_tail("p99_ms", p99);
    report.push(Metric::new(
        "patch_p50_ms",
        median(&best_repairs).expect("a repair op per repetition"),
        "ms",
    ));
    report.push(Metric::new(
        "ok_ratio",
        (attempted - failed) as f64 / attempted as f64,
        "ratio",
    ));
    report.push(Metric::new("slr_mean", slr_mean, "ratio"));
    report.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
    report
}

/// Median wall time of `reps` calls of `f`, in seconds; `prepare` runs
/// untimed before each call and its output is passed in.
pub fn time_median<P, R>(
    reps: usize,
    mut prepare: impl FnMut() -> P,
    mut f: impl FnMut(P) -> R,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let input = prepare();
            let t0 = Instant::now();
            black_box(f(input));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples).expect("at least one rep")
}

/// Median over `reps` back-to-back pairs of the time ratio `b / a`.
/// Timing the two calls together cancels the host's speed drift, which
/// separate medians of each would carry into the ratio.
pub fn paired_ratio<A, B>(reps: usize, mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> f64 {
    let ratios: Vec<f64> = (0..reps)
        .map(|_| {
            let t_a = time_median(1, || (), |()| a());
            let t_b = time_median(1, || (), |()| b());
            t_b / t_a
        })
        .collect();
    median(&ratios).expect("at least one pair")
}

/// The engine's per-layer probes on repetition 0 (the fig10 instances
/// themselves): rank, placement with ranks warm, delta application and
/// repair, and the same-run ratios that cancel machine speed.
pub fn probe(grid: &Rep, reps: usize) -> Vec<Metric> {
    let engines = Engines::new();
    let mut out = Vec::new();
    for (size, &n) in SIZES.iter().enumerate() {
        let (dag, sys) = grid.instance(size);
        let rank = time_median(
            reps,
            || ProblemInstance::from_refs(dag, sys),
            |inst| inst.upward_rank(CostAggregation::Mean),
        );
        out.push(Metric::new(format!("core.rank_ms.n{n}"), rank * 1e3, "ms"));
        for (a, alg) in engines.algs.iter().enumerate() {
            // CPOP at n = 3200 is in the rotation but not in the probe set
            if ALGS[a] == "CPOP" && n == 3200 {
                continue;
            }
            let inst = ProblemInstance::from_refs(dag, sys);
            alg.schedule_instance(&inst); // warm every rank memo it reads
            let place = time_median(reps, || (), |()| alg.schedule_instance(&inst));
            out.push(Metric::new(
                format!("core.place_ms.{}.n{n}", ALGS[a].to_lowercase()),
                place * 1e3,
                "ms",
            ));
        }
        let (heft, ils) = (&engines.algs[0], &engines.algs[1]);
        out.push(Metric::new(
            format!("core.ratio.ils-h_heft.n{n}"),
            paired_ratio(
                RATIO_REPS,
                || heft.schedule(dag, sys),
                || ils.schedule(dag, sys),
            ),
            "ratio",
        ));
    }

    let parent = &grid.parent;
    let delta = time_median(reps, || (), |()| parent.apply_deltas(&grid.deltas));
    out.push(Metric::new("core.delta_us", delta * 1e6, "us"));
    let patched = || {
        parent
            .apply_deltas(&grid.deltas)
            .expect("ETC delta applies")
    };
    let repair = time_median(reps, patched, |p| {
        engines
            .repairer
            .repair(&p.instance, &p.dirty, parent, &grid.parent_sched)
    });
    out.push(Metric::new("core.repair_ms.n3200", repair * 1e3, "ms"));
    let p = patched();
    let (_, stats) = engines
        .repairer
        .repair(&p.instance, &p.dirty, parent, &grid.parent_sched);
    out.push(Metric::new(
        "core.repair_replayed_ratio",
        stats.replayed as f64 / parent.dag().num_tasks() as f64,
        "ratio",
    ));
    let fresh = || engines.algs[0].schedule(p.instance.dag(), p.instance.sys());
    let apply_and_repair = || {
        let q = patched();
        engines
            .repairer
            .repair(&q.instance, &q.dirty, parent, &grid.parent_sched)
    };
    out.push(Metric::new(
        "core.ratio.repair_fresh.n3200",
        paired_ratio(RATIO_REPS, fresh, apply_and_repair),
        "ratio",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_times_takes_each_ops_least_time() {
        let passes = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 6.0],
            vec![9.0, 9.0, 4.5],
        ];
        assert_eq!(fastest_times(&passes), vec![2.0, 1.0, 4.5]);
        assert_eq!(fastest_times(&passes[..1]), vec![3.0, 1.0, 5.0]);
        assert!(fastest_times(&[]).is_empty());
    }

    #[test]
    fn a_slow_stretch_does_not_move_the_fastest_times() {
        let fast = vec![1.0, 2.0, 3.0];
        let slow: Vec<f64> = fast.iter().map(|t| t * 1.3).collect();
        let mostly_slow = vec![slow.clone(), slow.clone(), fast.clone(), slow];
        assert_eq!(fastest_times(&mostly_slow), fast);
    }
}
