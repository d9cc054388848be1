//! tab4 (extension): systematic model error — one processor turns out 2×
//! slower than its ETC entries (throttling, co-tenancy). How much does
//! each scheduler's plan suffer, and how much would it have suffered had
//! it *known*?

use rand::rngs::StdRng;
use rand::SeedableRng;

use hetsched_core::algorithms::all_heterogeneous;
use hetsched_core::par::{available_jobs, par_map_collect};
use hetsched_metrics::table::TextTable;
use hetsched_platform::{EtcParams, System};
use hetsched_sim::{simulate, simulate_scenario, SimConfig};
use hetsched_workloads::{random_dag, RandomDagParams};
use serde_json::json;

use super::Report;
use crate::config::Config;
use crate::runner::instance_seed;

/// tab4: mean makespan degradation when processor 0 is secretly 2× slower.
pub fn slowdown_table(cfg: &Config) -> Report {
    let n = if cfg.quick { 40 } else { 80 };
    let factor = 2.0;
    let algs = all_heterogeneous();
    let procs = cfg.procs;

    let work: Vec<u64> = (0..cfg.reps as u64 * 2).collect();
    let rows: Vec<Vec<f64>> = par_map_collect(available_jobs(), &work, |&rep| {
        let seed = instance_seed(cfg.seed ^ 0x510, 0, rep);
        let mut rng = StdRng::seed_from_u64(seed);
        let dag = random_dag(&RandomDagParams::new(n, 1.0, 1.0), &mut rng);
        let sys = System::heterogeneous_random(&dag, procs, &EtcParams::range_based(1.0), &mut rng);
        let mut slowdown = vec![1.0; procs];
        slowdown[0] = factor;
        algs.iter()
            .map(|alg| {
                let sched = alg.schedule(&dag, &sys);
                let base = simulate(&dag, &sys, &sched, &SimConfig::default()).makespan;
                let degraded =
                    simulate_scenario(&dag, &sys, &sched, &SimConfig::default(), &slowdown)
                        .makespan;
                degraded / base
            })
            .collect()
    });

    let mut table = TextTable::new(vec!["algorithm".into(), "degradation".into()]);
    let mut json_rows = Vec::new();
    for (ai, alg) in algs.iter().enumerate() {
        let mean = rows.iter().map(|r| r[ai]).sum::<f64>() / rows.len() as f64;
        table.row(vec![alg.name().into(), format!("{mean:.3}")]);
        json_rows.push(json!({"alg": alg.name(), "degradation": mean}));
    }
    Report {
        text: format!(
            "mean makespan degradation with p0 secretly {factor}x slower ({} instances)\n{}",
            rows.len(),
            table.render()
        ),
        json: json!({"factor": factor, "instances": rows.len(), "rows": json_rows}),
    }
}
