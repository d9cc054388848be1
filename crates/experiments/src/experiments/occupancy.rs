//! tab2: how each scheduler uses the machine — processors touched, idle
//! fraction, duplicate copies.

use rand::rngs::StdRng;
use rand::SeedableRng;

use hetsched_core::algorithms::all_heterogeneous;
use hetsched_core::par::{available_jobs, par_map_collect};
use hetsched_metrics::occupancy::occupancy;
use hetsched_metrics::table::TextTable;
use hetsched_platform::{EtcParams, System};
use hetsched_workloads::{random_dag, RandomDagParams};
use serde_json::json;

use super::Report;
use crate::config::Config;
use crate::runner::instance_seed;

/// tab2: occupancy statistics averaged over a random grid (high CCR, where
/// duplication actually triggers).
pub fn occupancy_table(cfg: &Config) -> Report {
    let n = if cfg.quick { 40 } else { 100 };
    let reps = cfg.reps * 2;
    let algs = all_heterogeneous();
    let procs = cfg.procs;

    let work: Vec<u64> = (0..reps as u64).collect();
    let rows: Vec<Vec<(f64, f64, f64)>> = par_map_collect(available_jobs(), &work, |&rep| {
        let seed = instance_seed(cfg.seed ^ 0x0cc, 0, rep);
        let mut rng = StdRng::seed_from_u64(seed);
        let dag = random_dag(&RandomDagParams::new(n, 1.0, 5.0), &mut rng);
        let sys = System::heterogeneous_random(&dag, procs, &EtcParams::range_based(1.0), &mut rng);
        algs.iter()
            .map(|alg| {
                let o = occupancy(&alg.schedule(&dag, &sys));
                (o.procs_used as f64, o.idle_fraction, o.duplicates as f64)
            })
            .collect()
    });

    let mut table = TextTable::new(vec![
        "algorithm".into(),
        "procs used".into(),
        "idle frac".into(),
        "duplicates".into(),
    ]);
    let mut json_rows = Vec::new();
    for (ai, alg) in algs.iter().enumerate() {
        let k = rows.len() as f64;
        let used = rows.iter().map(|r| r[ai].0).sum::<f64>() / k;
        let idle = rows.iter().map(|r| r[ai].1).sum::<f64>() / k;
        let dups = rows.iter().map(|r| r[ai].2).sum::<f64>() / k;
        table.row(vec![
            alg.name().into(),
            format!("{used:.1}/{procs}"),
            format!("{idle:.3}"),
            format!("{dups:.1}"),
        ]);
        json_rows.push(json!({
            "alg": alg.name(),
            "procs_used": used,
            "idle_fraction": idle,
            "duplicates": dups,
        }));
    }
    Report {
        text: format!(
            "occupancy on random n={n} CCR=5 graphs ({} instances)\n{}",
            rows.len(),
            table.render()
        ),
        json: json!({ "instances": rows.len(), "rows": json_rows }),
    }
}
