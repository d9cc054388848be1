//! Seeded inputs and their expected outputs.
//!
//! Everything the benchmark sends or schedules is generated here from the
//! `--seed` argument, and every expected output is computed here by the
//! direct library call, before any timing starts. The checks during a
//! timed phase only compare makespan bits and problem fingerprints.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hetsched_core::algorithms::by_name;
use hetsched_core::{validate, Delta, ProblemInstance, Schedule, Scheduler};
use hetsched_dag::io::DagSpec;
use hetsched_dag::{Dag, TaskId};
use hetsched_platform::spec::{NetworkSpec, ProcessorsSpec};
use hetsched_platform::{EtcParams, ProcId, System, SystemSpec};
use hetsched_serve::{Request, RequestOptions};
use hetsched_workloads::{random_dag, RandomDagParams};

/// Processors of every generated system (the fig10 setting).
pub const PROCS: usize = 8;

/// The experiment harness's per-instance seed derivation (splitmix64 over
/// base, grid point and repetition), so the grid instances here are the
/// ones `hetsched-exp fig10-runtime` and `perf` schedule for the same seed.
pub fn instance_seed(base: u64, point: u64, rep: u64) -> u64 {
    let mut z = base
        .wrapping_add(point.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(rep.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One fig10 instance: random DAG (α 1, CCR 1.0) on a range-based ETC
/// system of [`PROCS`] processors.
pub fn fig10_instance(seed: u64, n: usize) -> (Dag, System) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = random_dag(&RandomDagParams::new(n, 1.0, 1.0), &mut rng);
    let sys = System::heterogeneous_random(&dag, PROCS, &EtcParams::range_based(1.0), &mut rng);
    (dag, sys)
}

/// Seed of repetition `rep` of the fig10 grid instance of size `n`: the
/// grid point index of `n` in fig10's size list, or the `perf`
/// large-instance point for n = 3200.
pub fn fig10_seed(seed: u64, n: usize, rep: u64) -> u64 {
    let point = match n {
        3200 => 0x3200,
        _ => [100, 200, 400, 800, 1600]
            .iter()
            .position(|&s| s == n)
            .expect("a fig10 grid size") as u64,
    };
    instance_seed(seed ^ 0xf16, point, rep)
}

/// Registry scheduler by name.
pub fn scheduler(name: &str) -> Box<dyn Scheduler + Send + Sync> {
    by_name(name).unwrap_or_else(|| panic!("registry has {name}"))
}

/// What a correct reply to one request carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expect {
    /// Bits of the schedule's makespan.
    pub makespan_bits: u64,
    /// Content fingerprint of the scheduled problem.
    pub problem: u64,
    /// Schedule length ratio of the schedule.
    pub slr: f64,
}

impl Expect {
    /// Expectation for `sched` on `inst`, after checking the schedule is
    /// valid.
    pub fn of(inst: &ProblemInstance, sched: &Schedule) -> Expect {
        validate(inst.dag(), inst.sys(), sched).expect("library schedule validates");
        Expect {
            makespan_bits: sched.makespan().to_bits(),
            problem: inst.fingerprint(),
            slr: hetsched_metrics::slr(inst.dag(), inst.sys(), sched.makespan()),
        }
    }
}

/// One request line and the reply it must get.
#[derive(Debug, Clone)]
pub struct Case {
    /// Compact NDJSON request (no newline).
    pub line: Arc<str>,
    /// Expected reply content.
    pub expect: Expect,
}

/// A fleet problem as the wire carries it: a random DAG with weights and
/// volumes rounded to hundredths, and an explicit ETC matrix on a fully
/// connected unit-bandwidth network.
pub fn fleet_problem(seed: u64, n: usize) -> (DagSpec, SystemSpec) {
    let (dag, sys) = fig10_instance(seed, n);
    let round = |x: f64| ((x * 100.0).round() / 100.0).max(0.01);
    let mut spec = DagSpec::from_dag(&dag);
    for t in &mut spec.tasks {
        t.weight = round(t.weight);
    }
    for e in &mut spec.edges {
        e.data = round(e.data);
    }
    let etc = (0..n)
        .map(|t| {
            (0..PROCS)
                .map(|p| round(sys.exec_time(TaskId(t as u32), ProcId(p as u32))))
                .collect()
        })
        .collect();
    let system = SystemSpec {
        processors: ProcessorsSpec::Etc { etc },
        network: NetworkSpec {
            topology: "fully_connected".to_string(),
            startup: 0.0,
            bandwidth: 1.0,
            rows: None,
            cols: None,
        },
    };
    (spec, system)
}

/// Build the instance a shard builds from the same specs.
pub fn build_instance(dag: &DagSpec, system: &SystemSpec) -> ProblemInstance<'static> {
    let dag = dag.build().expect("generated DAG builds");
    let sys = system.build(&dag).expect("generated system builds");
    ProblemInstance::new(dag, sys)
}

fn to_line(req: &Request) -> Arc<str> {
    Arc::from(serde_json::to_string(req).expect("request serializes"))
}

/// A `schedule` request for a fleet problem, its expectation, and the
/// instance it describes (kept so patches can be derived from it).
pub fn schedule_case(
    seed: u64,
    n: usize,
    algorithm: &str,
) -> (Case, Arc<ProblemInstance<'static>>) {
    let (dag, system) = fleet_problem(seed, n);
    let inst = Arc::new(build_instance(&dag, &system));
    let sched = scheduler(algorithm).schedule_instance(&inst);
    let expect = Expect::of(&inst, &sched);
    let line = to_line(&Request::Schedule {
        dag,
        system,
        algorithm: algorithm.to_string(),
        options: RequestOptions::default(),
    });
    (Case { line, expect }, inst)
}

/// A `patch` request nudging one ETC entry of `parent` (chosen by `rng`),
/// made distinct from every other patch by `serial`.
pub fn patch_case(
    parent: &ProblemInstance<'static>,
    algorithm: &str,
    serial: u64,
    rng: &mut StdRng,
) -> Case {
    let task = TaskId(rng.gen_range(0..parent.dag().num_tasks()) as u32);
    let proc = ProcId(rng.gen_range(0..PROCS) as u32);
    let time = parent.sys().exec_time(task, proc) * 1.02 + (serial + 1) as f64 * 1e-4;
    let deltas = vec![Delta::EtcEntry { task, proc, time }];
    let patched = parent.apply_deltas(&deltas).expect("ETC delta applies");
    let sched = scheduler(algorithm).schedule_instance(&patched.instance);
    let expect = Expect::of(&patched.instance, &sched);
    let line = to_line(&Request::Patch {
        parent: format!("{:016x}", parent.fingerprint()),
        algorithm: algorithm.to_string(),
        deltas,
        options: RequestOptions::default(),
    });
    Case { line, expect }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_line() {
        let (a, _) = schedule_case(7, 20, "HEFT");
        let (b, _) = schedule_case(7, 20, "HEFT");
        let (c, _) = schedule_case(8, 20, "HEFT");
        assert_eq!(a.line, b.line);
        assert_eq!(a.expect, b.expect);
        assert_ne!(a.line, c.line);
    }

    #[test]
    fn lines_parse_back_and_scan_on_the_fast_path() {
        let (case, inst) = schedule_case(3, 30, "ILS-H");
        assert!(Request::parse(&case.line).is_ok());
        assert!(hetsched_serve::wire::scan(case.line.as_bytes()).is_some());
        let mut rng = StdRng::seed_from_u64(1);
        let patch = patch_case(&inst, "HEFT", 0, &mut rng);
        assert!(matches!(
            Request::parse(&patch.line),
            Ok(Request::Patch { .. })
        ));
        assert_ne!(patch.expect.problem, case.expect.problem);
    }

    #[test]
    fn fig10_seeds_match_the_harness_points() {
        assert_eq!(fig10_seed(42, 1600, 0), instance_seed(42 ^ 0xf16, 4, 0));
        assert_eq!(
            fig10_seed(42, 3200, 2),
            instance_seed(42 ^ 0xf16, 0x3200, 2)
        );
    }
}
