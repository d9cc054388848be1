//! Cross-crate property tests: invariants that tie the whole system
//! together, checked over randomized instances.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use hetsched::core::algorithms::all_heterogeneous;
use hetsched::core::validate;
use hetsched::metrics::{efficiency, slr, speedup};
use hetsched::prelude::*;
use hetsched::sim::{simulate, Noise, SimConfig};
use hetsched::workloads::{random_dag, RandomDagParams};

/// Bit-exact flattening of a schedule: processor, task, start/finish bits,
/// duplicate flag for every slot, in timeline order.
fn slot_digest(s: &hetsched::core::Schedule) -> Vec<(usize, usize, u64, u64, bool)> {
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

/// Conformance sweep for the optimized EFT engine: every algorithm on a
/// fixed grid of workload classes (random at three CCRs, Gaussian
/// elimination, FFT, Laplace, homogeneous) must produce a schedule
/// byte-identical to the naive reference engine's.
#[test]
fn optimized_engine_schedules_byte_identical_to_reference_across_grid() {
    use hetsched::core::with_reference_engine;
    use hetsched::workloads::{fft, gauss, laplace};

    let mut grid: Vec<(String, Dag, System)> = Vec::new();
    for (n, ccr) in [(40usize, 0.5), (40, 5.0), (150, 1.0)] {
        let mut rng = StdRng::seed_from_u64(91 + n as u64);
        let dag = random_dag(&RandomDagParams::new(n, 1.0, ccr), &mut rng);
        let sys = System::heterogeneous_random(&dag, 6, &EtcParams::range_based(1.0), &mut rng);
        grid.push((format!("random-n{n}-ccr{ccr}"), dag, sys));
    }
    let mut rng = StdRng::seed_from_u64(92);
    let dag = gauss::gaussian_elimination(8, 1.0, &mut rng);
    let sys = System::heterogeneous_random(&dag, 4, &EtcParams::range_based(1.0), &mut rng);
    grid.push(("gauss-8".into(), dag, sys));
    let mut rng = StdRng::seed_from_u64(93);
    let dag = fft::fft_butterfly(16, 2.0, &mut rng);
    let sys = System::heterogeneous_random(&dag, 4, &EtcParams::range_based(0.5), &mut rng);
    grid.push(("fft-16".into(), dag, sys));
    let mut rng = StdRng::seed_from_u64(94);
    let dag = laplace::laplace_wavefront(6, 1.0, &mut rng);
    let sys = System::heterogeneous_random(&dag, 4, &EtcParams::range_based(1.0), &mut rng);
    grid.push(("laplace-6".into(), dag, sys));
    let mut rng = StdRng::seed_from_u64(95);
    let dag = random_dag(&RandomDagParams::new(60, 1.0, 1.0), &mut rng);
    let sys = System::homogeneous_unit(&dag, 4);
    grid.push(("hom-60".into(), dag, sys));

    for (label, dag, sys) in &grid {
        // One shared, memoized instance for the whole grid point: every
        // algorithm must see exactly the schedule a fresh per-call
        // instance produces — the memo may never change a bit.
        let inst = hetsched::core::ProblemInstance::from_refs(dag, sys);
        for alg in all_heterogeneous() {
            let fast = alg.schedule(dag, sys);
            let reference = with_reference_engine(|| alg.schedule(dag, sys));
            assert_eq!(
                slot_digest(&fast),
                slot_digest(&reference),
                "{} diverged from the reference engine on {label}",
                alg.name()
            );
            assert_eq!(fast.makespan().to_bits(), reference.makespan().to_bits());
            let shared = alg.schedule_instance(&inst);
            assert_eq!(
                slot_digest(&shared),
                slot_digest(&fast),
                "{} diverged on the shared ProblemInstance on {label}",
                alg.name()
            );
        }
    }
}

/// The same conformance at the size the paper evaluates: one fig10-shaped
/// instance (n = 1600, CCR 1, 8 processors) holds about 200 slots per
/// timeline, so the gap search skips whole blocks of its index, which the
/// grid above (at most about 25 slots per timeline) barely reaches.
#[test]
fn optimized_engine_matches_reference_at_the_paper_size() {
    use hetsched::core::algorithms::by_name;
    use hetsched::core::with_reference_engine;

    let mut rng = StdRng::seed_from_u64(1600);
    let dag = random_dag(&RandomDagParams::new(1600, 1.0, 1.0), &mut rng);
    let sys = System::heterogeneous_random(&dag, 8, &EtcParams::range_based(1.0), &mut rng);
    for name in ["HEFT", "CPOP", "ILS-H", "PEFT"] {
        let alg = by_name(name).expect("registered");
        let fast = alg.schedule(&dag, &sys);
        let reference = with_reference_engine(|| alg.schedule(&dag, &sys));
        assert_eq!(
            slot_digest(&fast),
            slot_digest(&reference),
            "{name} diverged from the reference engine at n = 1600"
        );
        let widest = (0..sys.num_procs())
            .map(|p| fast.slots(ProcId(p as u32)).len())
            .max()
            .unwrap_or(0);
        assert!(
            widest > 64,
            "{name}: only {widest} slots on the fullest timeline"
        );
    }
}

/// The search schedulers, in cheap test configurations: GA and BNB fan
/// out over the `par` layer, and ILS-D and DUP-HEFT run one in-place loop
/// whatever `jobs` says. The boxed trait objects let one grid drive all
/// four.
fn parallel_search_schedulers() -> Vec<Box<dyn hetsched::core::Scheduler + Send + Sync>> {
    use hetsched::core::algorithms::{BranchAndBound, DupHeft, Genetic, IlsD};
    vec![
        Box::new(Genetic {
            population: 10,
            generations: 10,
            mutation_rate: 0.1,
            seed: 7,
        }),
        Box::new(IlsD::new()),
        Box::new(DupHeft::new()),
        Box::new(BranchAndBound { node_budget: 3_000 }),
    ]
}

/// Determinism grid for the parallel search layer: every search
/// scheduler (GA, ILS-D, DUP-HEFT, BNB) on every workload class must
/// produce bit-identical slot digests at jobs = 1, 2, and 8. This is the
/// contract that lets `--jobs`, `HETSCHED_JOBS`, and the serve `jobs`
/// option stay out of every cache key.
#[test]
fn parallel_search_is_bit_identical_across_thread_counts() {
    use hetsched::core::par::with_jobs;
    use hetsched::workloads::{fft, gauss, laplace};

    let mut grid: Vec<(String, Dag, System)> = Vec::new();
    for (n, ccr) in [(30usize, 0.5), (30, 5.0), (80, 1.0)] {
        let mut rng = StdRng::seed_from_u64(191 + n as u64);
        let dag = random_dag(&RandomDagParams::new(n, 1.0, ccr), &mut rng);
        let sys = System::heterogeneous_random(&dag, 5, &EtcParams::range_based(1.0), &mut rng);
        grid.push((format!("random-n{n}-ccr{ccr}"), dag, sys));
    }
    let mut rng = StdRng::seed_from_u64(192);
    let dag = gauss::gaussian_elimination(6, 2.0, &mut rng);
    let sys = System::heterogeneous_random(&dag, 4, &EtcParams::range_based(1.0), &mut rng);
    grid.push(("gauss-6".into(), dag, sys));
    let mut rng = StdRng::seed_from_u64(193);
    let dag = fft::fft_butterfly(8, 2.0, &mut rng);
    let sys = System::heterogeneous_random(&dag, 4, &EtcParams::range_based(0.5), &mut rng);
    grid.push(("fft-8".into(), dag, sys));
    let mut rng = StdRng::seed_from_u64(194);
    let dag = laplace::laplace_wavefront(5, 1.0, &mut rng);
    let sys = System::heterogeneous_random(&dag, 4, &EtcParams::range_based(1.0), &mut rng);
    grid.push(("laplace-5".into(), dag, sys));
    let mut rng = StdRng::seed_from_u64(195);
    let dag = random_dag(&RandomDagParams::new(40, 1.0, 1.0), &mut rng);
    let sys = System::homogeneous_unit(&dag, 4);
    grid.push(("hom-40".into(), dag, sys));

    for (label, dag, sys) in &grid {
        for alg in parallel_search_schedulers() {
            let sequential = with_jobs(1, || alg.schedule(dag, sys));
            assert_eq!(validate(dag, sys, &sequential), Ok(()), "{label}");
            for jobs in [2usize, 8] {
                let parallel = with_jobs(jobs, || alg.schedule(dag, sys));
                assert_eq!(
                    slot_digest(&parallel),
                    slot_digest(&sequential),
                    "{} at jobs={jobs} diverged from jobs=1 on {label}",
                    alg.name()
                );
            }
        }
    }
}

/// The portfolio runner is exactly "run every member, keep the minimum":
/// its per-member schedules are bit-identical to direct library calls and
/// the winner is the per-algorithm minimum makespan.
#[test]
fn portfolio_equals_per_algorithm_minimum_of_direct_calls() {
    use hetsched::core::{run_portfolio, ProblemInstance};

    let mut rng = StdRng::seed_from_u64(96);
    let dag = random_dag(&RandomDagParams::new(80, 1.0, 2.0), &mut rng);
    let sys = System::heterogeneous_random(&dag, 5, &EtcParams::range_based(1.0), &mut rng);

    let algs = all_heterogeneous();
    let refs: Vec<&(dyn hetsched::core::Scheduler + Send + Sync)> =
        algs.iter().map(|b| &**b).collect();
    let inst = ProblemInstance::from_refs(&dag, &sys);
    let result = run_portfolio(&inst, &refs);

    assert_eq!(result.entries.len(), algs.len());
    let mut min_direct = f64::INFINITY;
    for (entry, alg) in result.entries.iter().zip(&algs) {
        assert_eq!(entry.algorithm, alg.name());
        let direct = alg.schedule(&dag, &sys);
        assert_eq!(
            slot_digest(&entry.schedule),
            slot_digest(&direct),
            "{} portfolio schedule differs from a direct call",
            alg.name()
        );
        min_direct = min_direct.min(direct.makespan());
    }
    let best = result.best_entry();
    assert_eq!(best.makespan.to_bits(), min_direct.to_bits());
    assert_eq!(validate(&dag, &sys, &best.schedule), Ok(()));
    // ties break toward the earliest member: nothing before `best` matches
    for entry in &result.entries[..result.best] {
        assert!(entry.makespan > best.makespan);
    }
}

/// Makespan sanity for the HOFT baseline on a fig10-style grid: across
/// random instances at the runtime-experiment sizes, HOFT stays inside
/// the baseline envelope — never worse than the worst other registered
/// heterogeneous scheduler on the same instance. (HOFT is excluded from
/// its own envelope; including it would make the bound vacuous.)
#[test]
fn hoft_stays_within_the_baseline_envelope_on_the_fig10_grid() {
    use hetsched::core::algorithms::by_name;

    let hoft = by_name("HOFT").expect("HOFT is registered");
    for (n, seed) in [(20usize, 910u64), (50, 911), (80, 912), (120, 913)] {
        let (dag, sys) = instance(n, 1.0, 6, 1.0, seed);
        let m = hoft.schedule(&dag, &sys).makespan();
        let worst = all_heterogeneous()
            .iter()
            .filter(|alg| alg.name() != "HOFT")
            .map(|alg| alg.schedule(&dag, &sys).makespan())
            .fold(0.0f64, f64::max);
        assert!(
            m <= worst + 1e-9,
            "HOFT makespan {m} beats nothing at n={n}: worst baseline {worst}"
        );
    }
}

fn instance(n: usize, ccr: f64, procs: usize, beta: f64, seed: u64) -> (Dag, System) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = random_dag(&RandomDagParams::new(n, 1.0, ccr), &mut rng);
    let sys = System::heterogeneous_random(&dag, procs, &EtcParams::range_based(beta), &mut rng);
    (dag, sys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every scheduler: valid schedule, SLR >= 1, efficiency <= 1, and the
    /// event-level replay never exceeds the analytical makespan.
    #[test]
    fn pipeline_invariants(
        n in 2usize..60,
        ccr in 0.0f64..8.0,
        procs in 1usize..8,
        beta in 0.0f64..1.9,
        seed in 0u64..100_000,
    ) {
        let (dag, sys) = instance(n, ccr, procs, beta, seed);
        for alg in all_heterogeneous() {
            let sched = alg.schedule(&dag, &sys);
            prop_assert_eq!(validate(&dag, &sys, &sched), Ok(()), "{}", alg.name());
            let m = sched.makespan();
            prop_assert!(slr(&dag, &sys, m) >= 1.0 - 1e-9, "{} SLR < 1", alg.name());
            // Note: on heterogeneous systems efficiency can legitimately
            // exceed 1 — tasks with different processor affinities beat the
            // best *single* processor superlinearly — so only positivity
            // and finiteness are invariant here. The <= 1 bound holds on
            // homogeneous systems and is asserted in the metrics tests.
            let eff = efficiency(&dag, &sys, m);
            prop_assert!(eff.is_finite() && eff > 0.0, "{} efficiency {}", alg.name(), eff);
            prop_assert!(speedup(&dag, &sys, m) > 0.0);
            let replay = simulate(&dag, &sys, &sched, &SimConfig::default()).makespan;
            prop_assert!(replay <= m + 1e-6, "{} replay {} > {}", alg.name(), replay, m);
        }
    }

    /// The simulator is deterministic under a fixed seed and never loses
    /// tasks, noise or not.
    #[test]
    fn simulator_determinism(
        n in 2usize..40,
        seed in 0u64..100_000,
        noise_seed in 0u64..1000,
    ) {
        let (dag, sys) = instance(n, 1.0, 4, 1.0, seed);
        use hetsched::core::Scheduler as _;
        let sched = hetsched::core::algorithms::Heft::new().schedule(&dag, &sys);
        let cfg = SimConfig {
            exec_noise: Noise::Gamma { cv: 0.4 },
            comm_noise: Noise::Uniform { spread: 0.3 },
            seed: noise_seed,
        };
        let a = simulate(&dag, &sys, &sched, &cfg);
        let b = simulate(&dag, &sys, &sched, &cfg);
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.task_finish.len(), dag.num_tasks());
        prop_assert!(a.task_finish.iter().all(|&f| f.is_finite() && f >= 0.0));
        // makespan is the max primary finish
        let max_fin = a.task_finish.iter().copied().fold(0.0f64, f64::max);
        prop_assert!((a.makespan - max_fin).abs() < 1e-12);
    }

    /// Randomized thread-count invariance: on arbitrary instances, every
    /// search scheduler produces the same bits at jobs = 1
    /// and at an arbitrary jobs in 2..=8.
    #[test]
    fn parallel_search_thread_count_invariance(
        n in 2usize..40,
        ccr in 0.0f64..6.0,
        procs in 1usize..6,
        seed in 0u64..100_000,
        jobs in 2usize..9,
    ) {
        use hetsched::core::par::with_jobs;
        let (dag, sys) = instance(n, ccr, procs, 1.0, seed);
        for alg in parallel_search_schedulers() {
            let sequential = with_jobs(1, || alg.schedule(&dag, &sys));
            let parallel = with_jobs(jobs, || alg.schedule(&dag, &sys));
            prop_assert_eq!(
                slot_digest(&sequential),
                slot_digest(&parallel),
                "{} diverged at jobs={}", alg.name(), jobs
            );
        }
    }

    /// Repair bit-identity: applying a random delta sequence and repairing
    /// the parent schedule yields exactly the bits of a from-scratch run
    /// on the patched problem, for every repair-capable algorithm at
    /// jobs = 1 and jobs = 4.
    #[test]
    fn repair_is_bit_identical_to_from_scratch(
        n in 4usize..40,
        ccr in 0.0f64..6.0,
        procs in 2usize..6,
        seed in 0u64..100_000,
        raw in proptest::collection::vec(
            (0u8..6, 0u64..u64::MAX, 0u64..u64::MAX, 0.0f64..10.0),
            1..=8,
        ),
    ) {
        use hetsched::core::par::with_jobs;
        use hetsched::core::repairable;
        use hetsched::core::{Delta, ProblemInstance};
        use hetsched::core::Scheduler as _;

        let (dag, sys) = instance(n, ccr, procs, 1.0, seed);
        let parent = ProblemInstance::new(dag, sys);

        // Resolve each raw seed into a delta valid against the problem as
        // patched so far, so the whole sequence applies cleanly in order.
        let mut cur = ProblemInstance::new(parent.dag().clone(), parent.sys().clone());
        let mut deltas: Vec<Delta> = Vec::new();
        for (kind, a, b, val) in raw {
            let nt = cur.dag().num_tasks();
            let np = cur.sys().num_procs();
            let ne = cur.dag().num_edges();
            let task = TaskId((a % nt as u64) as u32);
            let delta = match kind {
                2 if ne > 0 => {
                    let e = cur.dag().edges()[(a % ne as u64) as usize];
                    Delta::EdgeData { src: e.src, dst: e.dst, data: val }
                }
                1 => Delta::EtcEntry {
                    task,
                    proc: ProcId((b % np as u64) as u32),
                    time: 0.1 + val,
                },
                3 => Delta::AddTask {
                    weight: 1.0 + val,
                    exec: (0..np).map(|p| 0.5 + ((a as usize + p) % 5) as f64).collect(),
                    // predecessor edges only, so the graph stays acyclic
                    preds: vec![(task, val)],
                    succs: vec![],
                },
                4 if nt > 2 => Delta::RemoveTask { task },
                5 if np > 1 => Delta::RemoveProc { proc: ProcId((b % np as u64) as u32) },
                _ => Delta::TaskWeight { task, weight: 0.1 + val },
            };
            cur = cur
                .apply_deltas(std::slice::from_ref(&delta))
                .expect("resolved delta must apply")
                .instance
                .into_owned();
            deltas.push(delta);
        }

        for name in ["HEFT", "HEFT-NI"] {
            let alg = repairable(name).expect("registered as repair-capable");
            let sched = hetsched::core::algorithms::by_name(name).expect("registered");
            for jobs in [1usize, 4] {
                let parent_sched = with_jobs(jobs, || sched.schedule_instance(&parent));
                let patched = parent.apply_deltas(&deltas).expect("sequence applies");
                let (repaired, stats) =
                    with_jobs(jobs, || {
                        alg.repair(&patched.instance, &patched.dirty, &parent, &parent_sched)
                    });
                let fresh = with_jobs(jobs, || sched.schedule_instance(&patched.instance));
                prop_assert_eq!(
                    slot_digest(&repaired),
                    slot_digest(&fresh),
                    "{} at jobs={} diverged from from-scratch after {:?}",
                    name, jobs, deltas
                );
                prop_assert_eq!(
                    validate(patched.instance.dag(), patched.instance.sys(), &repaired),
                    Ok(()),
                    "{} repair produced an invalid schedule", name
                );
                prop_assert_eq!(stats.replayed + stats.rescheduled,
                    patched.instance.dag().num_tasks());
            }
        }
    }

    /// HOFT conformance on arbitrary instances: the optimized engine's
    /// schedule is bit-identical to the naive reference engine's, valid,
    /// and its SLR is bounded below by 1 like every other scheduler.
    #[test]
    fn hoft_is_bit_identical_to_the_reference_engine(
        n in 2usize..50,
        ccr in 0.0f64..6.0,
        procs in 2usize..8,
        beta in 0.0f64..1.9,
        seed in 0u64..100_000,
    ) {
        use hetsched::core::algorithms::by_name;
        use hetsched::core::with_reference_engine;

        let (dag, sys) = instance(n, ccr, procs, beta, seed);
        let hoft = by_name("HOFT").expect("HOFT is registered");
        let fast = hoft.schedule(&dag, &sys);
        let reference = with_reference_engine(|| hoft.schedule(&dag, &sys));
        prop_assert_eq!(slot_digest(&fast), slot_digest(&reference));
        prop_assert_eq!(fast.makespan().to_bits(), reference.makespan().to_bits());
        prop_assert_eq!(validate(&dag, &sys, &fast), Ok(()));
        prop_assert!(slr(&dag, &sys, fast.makespan()) >= 1.0 - 1e-9);
    }

    /// Adding processors never makes the *best achievable* HEFT makespan
    /// worse by more than noise: schedule on p and 2p homogeneous
    /// processors and require the bigger machine to be no slower than 1.02x
    /// (greedy heuristics are not monotone in theory; empirically on these
    /// instances they are, and large regressions indicate bugs).
    #[test]
    fn more_processors_do_not_hurt_much(
        n in 4usize..50,
        seed in 0u64..100_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dag = random_dag(&RandomDagParams::new(n, 1.0, 0.5), &mut rng);
        use hetsched::core::Scheduler as _;
        let heft = hetsched::core::algorithms::Heft::new();
        let m2 = heft.schedule(&dag, &System::homogeneous_unit(&dag, 2)).makespan();
        let m4 = heft.schedule(&dag, &System::homogeneous_unit(&dag, 4)).makespan();
        prop_assert!(m4 <= m2 * 1.02 + 1e-9, "p=4 {} vs p=2 {}", m4, m2);
    }
}
