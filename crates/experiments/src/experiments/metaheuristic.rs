//! tab7 (extension): how much does search buy over construction? The GA
//! metaheuristic (orders of magnitude slower) against the one-pass list
//! schedulers, with quality *and* cost reported side by side.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hetsched_core::algorithms::{Genetic, Heft, IlsD, IlsH};
use hetsched_core::par::{available_jobs, par_map_collect};
use hetsched_core::Scheduler;
use hetsched_metrics::slr;
use hetsched_metrics::table::TextTable;
use hetsched_platform::{EtcParams, System};
use hetsched_workloads::{random_dag, RandomDagParams};
use serde_json::json;

use super::Report;
use crate::config::Config;
use crate::runner::instance_seed;

/// tab7: mean SLR and mean scheduling time for GA vs the list schedulers
/// on random n=40 instances at CCR ∈ {1, 5}.
pub fn ga_vs_list(cfg: &Config) -> Report {
    let n = if cfg.quick { 25 } else { 40 };
    let procs = cfg.procs.min(4); // GA convergence degrades on huge machines
    let algs: Vec<Box<dyn Scheduler + Send + Sync>> = vec![
        Box::new(Heft::new()),
        Box::new(IlsH::new()),
        Box::new(IlsD::new()),
        Box::new(Genetic::new()),
    ];

    let work: Vec<u64> = (0..cfg.reps as u64 * 2).collect();
    // per instance: (slr, ms) per algorithm
    let rows: Vec<Vec<(f64, f64)>> = par_map_collect(available_jobs(), &work, |&rep| {
        let seed = instance_seed(cfg.seed ^ 0x9e4e, 0, rep);
        let mut rng = StdRng::seed_from_u64(seed);
        let ccr = [1.0, 5.0][(rep % 2) as usize];
        let dag = random_dag(&RandomDagParams::new(n, 1.0, ccr), &mut rng);
        let sys = System::heterogeneous_random(&dag, procs, &EtcParams::range_based(1.0), &mut rng);
        algs.iter()
            .map(|alg| {
                let t0 = Instant::now();
                let sched = alg.schedule(&dag, &sys);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                (slr(&dag, &sys, sched.makespan()), ms)
            })
            .collect()
    });

    let mut table = TextTable::new(vec![
        "algorithm".into(),
        "mean SLR".into(),
        "mean time (ms)".into(),
    ]);
    let mut json_rows = Vec::new();
    for (ai, alg) in algs.iter().enumerate() {
        let k = rows.len() as f64;
        let mslr = rows.iter().map(|r| r[ai].0).sum::<f64>() / k;
        let mms = rows.iter().map(|r| r[ai].1).sum::<f64>() / k;
        table.row(vec![
            alg.name().into(),
            format!("{mslr:.3}"),
            format!("{mms:.2}"),
        ]);
        json_rows.push(json!({"alg": alg.name(), "mean_slr": mslr, "mean_ms": mms}));
    }
    Report {
        text: format!(
            "GA search vs one-pass list scheduling, n={n}, {procs} procs ({} instances)\n{}",
            rows.len(),
            table.render()
        ),
        json: json!({"instances": rows.len(), "rows": json_rows}),
    }
}
