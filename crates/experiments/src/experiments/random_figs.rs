//! Random-graph experiments: figures 1–5 and the win/tie/loss table.
//!
//! All follow the Topcuoglu protocol: instances are layered random DAGs
//! (`hetsched_workloads::random_dag`) on range-based heterogeneous systems;
//! one axis varies per figure, the others are averaged over a small grid
//! via the per-rep RNG.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hetsched_core::algorithms::all_heterogeneous;
use hetsched_core::par::{available_jobs, par_map_collect};
use hetsched_metrics::WtlTable;
use hetsched_platform::{EtcParams, System};
use hetsched_workloads::{random_dag, RandomDagParams};
use serde_json::json;

use super::sweep::{metric_sweep, Metric, Point};
use super::Report;
use crate::config::Config;
use crate::runner::instance_seed;

/// Default grids the random figures draw nuisance parameters from.
const ALPHAS: [f64; 3] = [0.5, 1.0, 2.0];
const CCRS: [f64; 5] = [0.1, 0.5, 1.0, 5.0, 10.0];

/// Generate one random instance: the seed drives nuisance-parameter
/// selection, the DAG, and the ETC matrix, so a single `u64` reproduces
/// the instance exactly.
fn instance(
    seed: u64,
    n: usize,
    procs: usize,
    alpha: Option<f64>,
    ccr: Option<f64>,
    beta: Option<f64>,
) -> (hetsched_dag::Dag, System) {
    let mut rng = StdRng::seed_from_u64(seed);
    let alpha = alpha.unwrap_or_else(|| ALPHAS[rng.gen_range(0..ALPHAS.len())]);
    let ccr = ccr.unwrap_or_else(|| CCRS[rng.gen_range(0..CCRS.len())]);
    let beta = beta.unwrap_or_else(|| rng.gen_range(0.25..1.0));
    let dag = random_dag(
        &RandomDagParams {
            n,
            alpha,
            ccr,
            ..Default::default()
        },
        &mut rng,
    );
    let sys = System::heterogeneous_random(&dag, procs, &EtcParams::range_based(beta), &mut rng);
    (dag, sys)
}

/// fig1: average SLR vs number of tasks.
pub fn slr_vs_tasks(cfg: &Config) -> Report {
    let sizes: &[usize] = if cfg.quick {
        &[20, 40, 80]
    } else {
        &[20, 40, 60, 80, 100, 200, 400]
    };
    let procs = cfg.procs;
    let points: Vec<Point> = sizes
        .iter()
        .map(|&n| Point {
            label: n.to_string(),
            gen: Box::new(move |seed| instance(seed, n, procs, None, None, None)),
        })
        .collect();
    let algs = all_heterogeneous();
    let (text, json, _) = metric_sweep("tasks", &points, &algs, cfg.reps, cfg.seed, Metric::AvgSlr);
    Report { text, json }
}

/// fig2: average SLR vs CCR.
pub fn slr_vs_ccr(cfg: &Config) -> Report {
    let ccrs: &[f64] = if cfg.quick {
        &[0.1, 1.0, 10.0]
    } else {
        &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    };
    let n = if cfg.quick { 50 } else { 100 };
    let procs = cfg.procs;
    let points: Vec<Point> = ccrs
        .iter()
        .map(|&ccr| Point {
            label: format!("{ccr}"),
            gen: Box::new(move |seed| instance(seed, n, procs, None, Some(ccr), None)),
        })
        .collect();
    let algs = all_heterogeneous();
    let (text, json, _) = metric_sweep("CCR", &points, &algs, cfg.reps, cfg.seed, Metric::AvgSlr);
    Report { text, json }
}

/// fig3: average speedup vs processor count.
pub fn speedup_vs_procs(cfg: &Config) -> Report {
    let procs: &[usize] = if cfg.quick {
        &[2, 4, 8]
    } else {
        &[2, 4, 8, 16, 32]
    };
    let n = if cfg.quick { 50 } else { 200 };
    let points: Vec<Point> = procs
        .iter()
        .map(|&p| Point {
            label: p.to_string(),
            gen: Box::new(move |seed| instance(seed, n, p, None, Some(0.5), None)),
        })
        .collect();
    let algs = all_heterogeneous();
    let (text, json, _) = metric_sweep(
        "procs",
        &points,
        &algs,
        cfg.reps,
        cfg.seed,
        Metric::AvgSpeedup,
    );
    Report { text, json }
}

/// fig4: average SLR vs heterogeneity factor β.
pub fn slr_vs_heterogeneity(cfg: &Config) -> Report {
    let betas: &[f64] = if cfg.quick {
        &[0.1, 0.75, 1.5]
    } else {
        &[0.1, 0.25, 0.5, 0.75, 1.0, 1.5]
    };
    let n = if cfg.quick { 50 } else { 100 };
    let procs = cfg.procs;
    let points: Vec<Point> = betas
        .iter()
        .map(|&beta| Point {
            label: format!("{beta}"),
            gen: Box::new(move |seed| instance(seed, n, procs, None, None, Some(beta))),
        })
        .collect();
    let algs = all_heterogeneous();
    let (text, json, _) = metric_sweep("beta", &points, &algs, cfg.reps, cfg.seed, Metric::AvgSlr);
    Report { text, json }
}

/// fig5: average SLR vs shape parameter α.
pub fn slr_vs_shape(cfg: &Config) -> Report {
    let n = if cfg.quick { 50 } else { 100 };
    let procs = cfg.procs;
    let points: Vec<Point> = ALPHAS
        .iter()
        .map(|&alpha| Point {
            label: format!("{alpha}"),
            gen: Box::new(move |seed| instance(seed, n, procs, Some(alpha), None, None)),
        })
        .collect();
    let algs = all_heterogeneous();
    let (text, json, _) = metric_sweep("alpha", &points, &algs, cfg.reps, cfg.seed, Metric::AvgSlr);
    Report { text, json }
}

/// tab1: pairwise win/tie/loss percentages over the full random grid.
pub fn wtl_table(cfg: &Config) -> Report {
    let sizes: &[usize] = if cfg.quick { &[30] } else { &[40, 80, 150] };
    let algs = all_heterogeneous();
    let names: Vec<String> = algs.iter().map(|a| a.name().to_string()).collect();
    let procs = cfg.procs;

    let work: Vec<(usize, u64)> = sizes
        .iter()
        .enumerate()
        .flat_map(|(si, _)| (0..cfg.reps as u64 * 3).map(move |r| (si, r)))
        .collect();
    let rows: Vec<Vec<f64>> = par_map_collect(available_jobs(), &work, |&(si, rep)| {
        let seed = instance_seed(cfg.seed ^ 0x7ab1, si as u64, rep);
        let (dag, sys) = instance(seed, sizes[si], procs, None, None, None);
        algs.iter()
            .map(|a| a.schedule(&dag, &sys).makespan())
            .collect()
    });

    let mut table = WtlTable::new(names.clone());
    for r in &rows {
        table.record(r);
    }
    let mut text = table.render();
    text.push('\n');
    text.push_str("overall strict win rate:\n");
    let mut ranked: Vec<(usize, f64)> = (0..names.len())
        .map(|a| (a, table.overall_win_rate(a)))
        .collect();
    ranked.sort_by(|x, y| y.1.total_cmp(&x.1));
    for (a, rate) in &ranked {
        text.push_str(&format!("  {:<10} {:.1}%\n", names[*a], 100.0 * rate));
    }
    let json = json!({
        "instances": table.instances(),
        "algorithms": names,
        "overall_win_rate": ranked.iter().map(|(a, r)| json!({"alg": names[*a], "rate": r})).collect::<Vec<_>>(),
    });
    Report { text, json }
}
