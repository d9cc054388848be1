//! tab5 (extension): optimality gap — how far from the exact optimum the
//! heuristics land on instances small enough for branch-and-bound to
//! close.

use rand::rngs::StdRng;
use rand::SeedableRng;

use hetsched_core::algorithms::{all_heterogeneous, BranchAndBound};
use hetsched_core::par::{available_jobs, par_map_collect};
use hetsched_metrics::table::TextTable;
use hetsched_platform::{EtcParams, System};
use hetsched_workloads::{random_dag, RandomDagParams};
use serde_json::json;

use super::Report;
use crate::config::Config;
use crate::runner::instance_seed;

/// tab5: mean heuristic/optimal makespan ratio over tiny random instances
/// (n = 8, 3 processors). Duplication-based schedulers can dip *below*
/// 1.0 — the exact search covers non-duplication schedules only. On
/// instances the node budget cannot close, the denominator is the best
/// schedule found (an upper bound on the optimum), so reported ratios are
/// conservative.
pub fn optimality_gap(cfg: &Config) -> Report {
    let n = 8usize;
    let procs = 3usize;
    let reps = if cfg.quick { cfg.reps } else { cfg.reps * 4 };
    let algs = all_heterogeneous();

    let work: Vec<u64> = (0..reps as u64).collect();
    // per instance: (proven, ratios per alg)
    let rows: Vec<(bool, Vec<f64>)> = par_map_collect(available_jobs(), &work, |&rep| {
        let seed = instance_seed(cfg.seed ^ 0x9a9, 0, rep);
        let mut rng = StdRng::seed_from_u64(seed);
        let ccr = [0.5, 1.0, 5.0][(rep % 3) as usize];
        let dag = random_dag(&RandomDagParams::new(n, 1.0, ccr), &mut rng);
        let sys = System::heterogeneous_random(&dag, procs, &EtcParams::range_based(1.0), &mut rng);
        let r = BranchAndBound {
            node_budget: 4_000_000,
        }
        .solve(&dag, &sys);
        let opt = r.schedule.makespan();
        let ratios = algs
            .iter()
            .map(|alg| alg.schedule(&dag, &sys).makespan() / opt)
            .collect();
        (r.proven_optimal, ratios)
    });
    let proven = rows.iter().filter(|(p, _)| *p).count();

    let mut table = TextTable::new(vec![
        "algorithm".into(),
        "mean ratio".into(),
        "worst ratio".into(),
        "% optimal".into(),
    ]);
    let mut json_rows = Vec::new();
    for (ai, alg) in algs.iter().enumerate() {
        let vals: Vec<f64> = rows.iter().map(|(_, r)| r[ai]).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let worst = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let hits = vals.iter().filter(|&&v| v <= 1.0 + 1e-9).count();
        table.row(vec![
            alg.name().into(),
            format!("{mean:.3}"),
            format!("{worst:.3}"),
            format!("{:.0}%", 100.0 * hits as f64 / vals.len() as f64),
        ]);
        json_rows.push(json!({
            "alg": alg.name(), "mean": mean, "worst": worst,
            "optimal_fraction": hits as f64 / vals.len() as f64,
        }));
    }
    Report {
        text: format!(
            "heuristic / exact-optimal makespan, n={n}, {procs} procs ({} instances, {proven} proven optimal)\n{}",
            rows.len(),
            table.render()
        ),
        json: json!({
            "instances": rows.len(),
            "proven_optimal_instances": proven,
            "rows": json_rows,
        }),
    }
}
