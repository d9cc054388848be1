//! Property-based tests over the scheduling core: random DAGs × random
//! systems × every scheduler must always validate, and structural
//! invariants of the timeline machinery must hold.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hetsched_dag::builder::DagBuilder;
use hetsched_dag::{Dag, TaskId};
use hetsched_platform::{EtcParams, ProcId, System};

use crate::algorithms::all_heterogeneous;
use crate::schedule::Schedule;
use crate::validate::validate;

/// Flatten a schedule into a bit-exact digest of every slot: any engine
/// optimization that changes a single start/finish bit, an assignment, or
/// a duplicate shows up as a digest mismatch.
fn slot_digest(s: &Schedule) -> Vec<(usize, usize, u64, u64, bool)> {
    let mut out = Vec::new();
    for p in 0..s.num_procs() {
        for slot in s.slots(ProcId(p as u32)) {
            out.push((
                p,
                slot.task.index(),
                slot.start.to_bits(),
                slot.finish.to_bits(),
                slot.duplicate,
            ));
        }
    }
    out
}

/// Random forward-edged DAG with seeded reproducibility.
fn random_dag(n: usize, edge_prob: f64, seed: u64) -> Dag {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DagBuilder::new();
    for _ in 0..n {
        b.add_task(rng.gen_range(0.5..10.0));
    }
    for i in 0..n as u32 {
        for j in (i + 1)..n as u32 {
            if rng.gen::<f64>() < edge_prob {
                b.add_edge(TaskId(i), TaskId(j), rng.gen_range(0.0..30.0))
                    .unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// Every gap query on processor 0 of `s` answers bit-identically through
/// the indexed search, the reference scan, and the reference engine.
fn gap_queries_match_scan(s: &Schedule, queries: &[(u16, u8, u8)]) -> TestCaseResult {
    for &(r, d, j) in queries {
        let ready = r as f64 * 0.5 + j as f64 * 0.3e-9;
        let dur = d as f64 * 0.125 + j as f64 * 0.25e-9;
        let fast = s.earliest_start(ProcId(0), ready, dur, true);
        let scan = Schedule::earliest_start_scan(s.slots(ProcId(0)), ready, dur);
        prop_assert_eq!(
            fast.to_bits(),
            scan.to_bits(),
            "indexed {} vs scan {} at ready={} dur={}",
            fast,
            scan,
            ready,
            dur
        );
        let reference =
            crate::engine::with_reference_engine(|| s.earliest_start(ProcId(0), ready, dur, true));
        prop_assert_eq!(fast.to_bits(), reference.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_schedulers_valid_on_random_instances(
        n in 1usize..35,
        edge_prob in 0.0f64..0.3,
        n_procs in 1usize..8,
        beta in 0.0f64..1.9,
        seed in 0u64..10_000,
    ) {
        let dag = random_dag(n, edge_prob, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
        let sys = System::heterogeneous_random(&dag, n_procs, &EtcParams::range_based(beta), &mut rng);
        for alg in all_heterogeneous() {
            let s = alg.schedule(&dag, &sys);
            prop_assert_eq!(
                validate(&dag, &sys, &s),
                Ok(()),
                "{} failed on n={} procs={} beta={} seed={}",
                alg.name(), n, n_procs, beta, seed
            );
            // makespan must be finite and positive for non-trivial work
            let m = s.makespan();
            prop_assert!(m.is_finite() && m >= 0.0);
        }
    }

    #[test]
    fn makespan_never_below_min_serial_over_procs_div_procs(
        n in 2usize..25,
        n_procs in 1usize..6,
        seed in 0u64..10_000,
    ) {
        // work lower bound: total fastest work / processors
        let dag = random_dag(n, 0.15, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31));
        let sys = System::heterogeneous_random(&dag, n_procs, &EtcParams::range_based(1.0), &mut rng);
        let min_work: f64 = dag.task_ids().map(|t| sys.etc().min_exec(t).0).sum();
        let bound = min_work / n_procs as f64;
        for alg in all_heterogeneous() {
            let m = alg.schedule(&dag, &sys).makespan();
            prop_assert!(
                m + 1e-9 >= bound,
                "{}: makespan {} below work bound {}", alg.name(), m, bound
            );
        }
    }

    #[test]
    fn earliest_start_returns_conflict_free_interval(
        starts in proptest::collection::vec(0.0f64..100.0, 0..12),
        ready in 0.0f64..120.0,
        dur in 0.0f64..10.0,
        insertion in proptest::bool::ANY,
    ) {
        // Build a random single-processor schedule of unit slots.
        let mut s = Schedule::new(64, 1);
        let mut placed = 0u32;
        for (i, &st) in starts.iter().enumerate() {
            // try to place a 2-unit slot; skip on overlap
            if s.insert(TaskId(i as u32), ProcId(0), st, 2.0).is_ok() {
                placed += 1;
            }
        }
        let est = s.earliest_start(ProcId(0), ready, dur, insertion);
        prop_assert!(est >= ready - 1e-12);
        // the returned interval must be insertable
        let t = TaskId(placed + 20);
        prop_assert!(s.insert(t, ProcId(0), est, dur).is_ok(),
            "interval [{}, {}) not free", est, est + dur);
    }

    #[test]
    fn left_shift_preserves_validity_and_never_lengthens(
        n in 2usize..30,
        ccr in 0.0f64..6.0,
        seed in 0u64..10_000,
    ) {
        use crate::compact::left_shift;
        let dag = random_dag(n, 0.2, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5f);
        let sys = System::heterogeneous_random(&dag, 4, &EtcParams::range_based(1.0), &mut rng);
        let _ = ccr;
        for alg in all_heterogeneous() {
            let sched = alg.schedule(&dag, &sys);
            let shifted = left_shift(&dag, &sys, &sched);
            prop_assert_eq!(validate(&dag, &sys, &shifted), Ok(()), "{}", alg.name());
            prop_assert!(shifted.makespan() <= sched.makespan() + 1e-9, "{}", alg.name());
            prop_assert_eq!(shifted.num_duplicates(), sched.num_duplicates());
            // assignments (processors) preserved
            for t in dag.task_ids() {
                prop_assert_eq!(
                    shifted.task_proc(t), sched.task_proc(t),
                    "{} moved {}", alg.name(), t
                );
            }
        }
    }

    #[test]
    fn cached_gap_search_is_bit_identical_to_scan(
        cells in proptest::collection::vec((0u16..1000, 0u8..9, 0u8..3), 60..200),
        trials in proptest::collection::vec(
            (proptest::collection::vec((0u16..200, 0u8..9), 1..5), 0u8..2),
            0..6,
        ),
        queries in proptest::collection::vec((0u16..900, 0u8..40, 0u8..4), 1..24),
    ) {
        // Adversarial timelines spanning several blocks of the gap index:
        // cell `k` of a grid of pitch 2 holds one slot of up to the whole
        // cell, its start jittered below TIME_EPS, so slot boundaries
        // collide at the schedule's epsilon resolution and gap widths
        // repeat query durations exactly — the regime where the indexed
        // search could plausibly diverge from the scan by one rounding
        // bit. Cells are filled in random order, not start order. The
        // index is checked after every kind of timeline mutation: inserts,
        // trials rolled back or committed, a bulk replay and a serde round
        // trip.
        let place = |s: &mut Schedule, t: u32, start: f64, d: u8| {
            // overlapping placements are simply skipped
            let _ = s.insert(TaskId(t), ProcId(0), start, d as f64 * 0.25);
        };
        let mut order: Vec<usize> = (0..cells.len()).collect();
        order.sort_by_key(|&k| cells[k].0);
        let mut s = Schedule::new(256, 1);
        let mut next = 0u32;
        for k in order {
            let (_, d, j) = cells[k];
            place(&mut s, next, k as f64 * 2.0 + j as f64 * 0.4e-9, d);
            next += 1;
        }
        prop_assert!(s.slots(ProcId(0)).len() >= 60);
        gap_queries_match_scan(&s, &queries)?;
        for (slots, commit) in &trials {
            s.begin_trial();
            for &(cell, d) in slots {
                // mid-cell, into whatever gap the cell has left
                place(&mut s, next, cell as f64 * 2.0 + 1.0, d / 2);
                next += 1;
            }
            gap_queries_match_scan(&s, &queries)?;
            if *commit == 1 {
                s.commit_trial();
            } else {
                s.rollback_trial();
            }
            gap_queries_match_scan(&s, &queries)?;
        }
        let placed: Vec<TaskId> = (0..next)
            .map(TaskId)
            .filter(|&t| s.assignment(t).is_some())
            .collect();
        let mut replayed = Schedule::new(256, 1);
        prop_assert!(replayed.replay_prefix(&s, &placed).is_ok());
        gap_queries_match_scan(&replayed, &queries)?;
        let back: Schedule = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        gap_queries_match_scan(&back, &queries)?;
    }

    #[test]
    fn fast_engine_matches_reference_engine_bit_for_bit(
        n in 2usize..35,
        edge_prob in 0.0f64..0.35,
        n_procs in 1usize..8,
        beta in 0.0f64..1.9,
        seed in 0u64..10_000,
    ) {
        // Every scheduler, run once through the optimized engine and once
        // with the naive per-(task, processor) reference path, must emit
        // byte-identical schedules: same slots, same starts to the last
        // bit, same duplicates.
        let dag = random_dag(n, edge_prob, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa5a5);
        let sys = System::heterogeneous_random(&dag, n_procs, &EtcParams::range_based(beta), &mut rng);
        for alg in all_heterogeneous() {
            let fast = alg.schedule(&dag, &sys);
            let reference = crate::engine::with_reference_engine(|| alg.schedule(&dag, &sys));
            prop_assert_eq!(
                slot_digest(&fast), slot_digest(&reference),
                "{} diverged on n={} procs={} beta={} seed={}",
                alg.name(), n, n_procs, beta, seed
            );
        }
    }

    #[test]
    fn table_rank_kernels_match_the_scalar_folds_bitwise(
        n in 1usize..40,
        edge_prob in 0.0f64..0.4,
        n_procs in 1usize..10,
        seed in 0u64..10_000,
    ) {
        // The per-edge table must reproduce the scalar `mean_comm` fold on
        // every edge, so every communication-aware rank keeps its bits: a
        // heterogeneous network makes each pair's cost distinct.
        let dag = random_dag(n, edge_prob, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7ab1e);
        let sys = System::fully_random(
            &dag, n_procs, &EtcParams::range_based(1.0), (0.0, 2.0), (0.5, 8.0), &mut rng,
        );
        for agg in crate::rank::oracle::AGGS {
            let inst = crate::ProblemInstance::from_refs(&dag, &sys);
            crate::rank::oracle::assert_ranks_match(&inst, &dag, &sys, agg);
        }
    }

    #[test]
    fn insertion_start_never_later_than_append_per_decision(
        n in 2usize..25,
        seed in 0u64..10_000,
    ) {
        // The per-decision theorem behind HEFT's insertion policy: for the
        // same partial schedule, gap search can never yield a later start
        // than appending. (Globally, full insertion-HEFT vs append-HEFT is
        // NOT ordered — greedy decisions cascade — so only the
        // per-decision property is asserted.)
        use crate::algorithms::Heft;
        use crate::eft::eft_on_raw;
        use crate::Scheduler as _;
        let dag = random_dag(n, 0.2, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 77);
        let sys = System::heterogeneous_random(&dag, 4, &EtcParams::range_based(1.0), &mut rng);
        let sched = Heft::new().schedule(&dag, &sys);
        // replay each placement question against the final schedule
        for t in dag.task_ids() {
            for p in sys.proc_ids() {
                // skip processors where t itself sits (its own slot would
                // distort the comparison)
                if sched.finish_on(t, p).is_some() {
                    continue;
                }
                let (s_ins, _) = eft_on_raw(&dag, &sys, &sched, t, p, true);
                let (s_app, _) = eft_on_raw(&dag, &sys, &sched, t, p, false);
                prop_assert!(s_ins <= s_app + 1e-9,
                    "insertion start {} > append start {} for {} on {}", s_ins, s_app, t, p);
            }
        }
    }

    #[test]
    fn left_shift_is_idempotent_bitwise_across_workload_generators(
        family in 0usize..4,
        size in 2usize..5,
        ccr in 0.2f64..5.0,
        n_procs in 1usize..6,
        seed in 0u64..10_000,
    ) {
        // `left_shift ∘ left_shift = left_shift`, to the last bit: a
        // second pass finds every copy already at its earliest feasible
        // start, so it must reproduce the exact same slots — across every
        // workload generator family, not just the local random DAGs.
        use crate::compact::left_shift;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0_fface);
        let dag = match family {
            0 => hetsched_workloads::random_dag(
                &hetsched_workloads::RandomDagParams::new(size * 8, 1.0, ccr),
                &mut rng,
            ),
            1 => hetsched_workloads::gauss::gaussian_elimination(size + 3, ccr, &mut rng),
            2 => hetsched_workloads::fft::fft_butterfly(1 << size, ccr, &mut rng),
            _ => hetsched_workloads::laplace::laplace_wavefront(size + 1, ccr, &mut rng),
        };
        let sys = System::heterogeneous_random(
            &dag, n_procs, &EtcParams::range_based(1.0), &mut rng);
        for alg in all_heterogeneous() {
            let sched = alg.schedule(&dag, &sys);
            let once = left_shift(&dag, &sys, &sched);
            prop_assert_eq!(validate(&dag, &sys, &once), Ok(()), "{}", alg.name());
            prop_assert!(
                once.makespan() <= sched.makespan() + 1e-9,
                "{}: left_shift lengthened {} -> {}",
                alg.name(), sched.makespan(), once.makespan()
            );
            let twice = left_shift(&dag, &sys, &once);
            prop_assert_eq!(
                slot_digest(&twice), slot_digest(&once),
                "{}: left_shift not bitwise idempotent (family={}, seed={})",
                alg.name(), family, seed
            );
        }
    }
}
