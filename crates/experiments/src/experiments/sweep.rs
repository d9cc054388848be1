//! The generic sweep engine shared by most experiments: a list of labelled
//! points, each generating `reps` random instances; every algorithm is run
//! on every instance and a chosen metric is averaged per (point, algorithm).

use hetsched_core::par::{available_jobs, par_map_collect};
use hetsched_core::Scheduler;
use hetsched_dag::Dag;
use hetsched_metrics::table::TextTable;
use hetsched_metrics::{slr, speedup};
use hetsched_platform::System;
use serde_json::json;

use crate::runner::instance_seed;

/// Which per-instance metric a sweep averages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Schedule length ratio (lower is better).
    AvgSlr,
    /// Speedup over the best single processor (higher is better).
    AvgSpeedup,
}

impl Metric {
    fn of(&self, dag: &Dag, sys: &System, makespan: f64) -> f64 {
        match self {
            Metric::AvgSlr => slr(dag, sys, makespan),
            Metric::AvgSpeedup => speedup(dag, sys, makespan),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Metric::AvgSlr => "avg SLR",
            Metric::AvgSpeedup => "avg speedup",
        }
    }
}

/// A labelled sweep point: generates one `(Dag, System)` instance per seed.
pub struct Point {
    /// Axis value label (e.g. `"100"` for n = 100).
    pub label: String,
    /// Instance generator: seed → instance.
    pub gen: Box<dyn Fn(u64) -> (Dag, System) + Sync>,
}

/// Run the sweep and render a table with one row per point and one column
/// per algorithm. Returns the report pieces: text, JSON, and the raw means
/// (`means[point][alg]`).
pub fn metric_sweep(
    axis: &str,
    points: &[Point],
    algs: &[Box<dyn Scheduler + Send + Sync>],
    reps: usize,
    base_seed: u64,
    metric: Metric,
) -> (String, serde_json::Value, Vec<Vec<f64>>) {
    // work items: (point index, rep)
    let work: Vec<(usize, u64)> = (0..points.len())
        .flat_map(|pi| (0..reps as u64).map(move |r| (pi, r)))
        .collect();
    // each item yields one metric value per algorithm
    let per_instance: Vec<Vec<f64>> = par_map_collect(available_jobs(), &work, |&(pi, rep)| {
        let seed = instance_seed(base_seed, pi as u64, rep);
        let (dag, sys) = (points[pi].gen)(seed);
        algs.iter()
            .map(|alg| {
                let sched = alg.schedule(&dag, &sys);
                debug_assert_eq!(
                    hetsched_core::validate(&dag, &sys, &sched),
                    Ok(()),
                    "{} produced an invalid schedule",
                    alg.name()
                );
                metric.of(&dag, &sys, sched.makespan())
            })
            .collect()
    });

    // aggregate: per-cell sample vectors -> means and 95% CIs
    let mut cells: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::with_capacity(reps); algs.len()]; points.len()];
    for ((pi, _), vals) in work.iter().zip(&per_instance) {
        for (ai, v) in vals.iter().enumerate() {
            cells[*pi][ai].push(*v);
        }
    }
    let summaries: Vec<Vec<hetsched_metrics::Summary>> = cells
        .iter()
        .map(|row| {
            row.iter()
                .map(|xs| hetsched_metrics::Summary::of(xs))
                .collect()
        })
        .collect();
    let means: Vec<Vec<f64>> = summaries
        .iter()
        .map(|row| row.iter().map(|s| s.mean).collect())
        .collect();
    let ci95: Vec<Vec<f64>> = summaries
        .iter()
        .map(|row| row.iter().map(|s| s.ci95).collect())
        .collect();

    // render
    let mut header = vec![axis.to_string()];
    header.extend(algs.iter().map(|a| a.name().to_string()));
    let mut table = TextTable::new(header);
    for (pi, point) in points.iter().enumerate() {
        let mut row = vec![point.label.clone()];
        row.extend(means[pi].iter().map(|v| format!("{v:.3}")));
        table.row(row);
    }
    let text = format!(
        "{} ({} reps/point)\n{}",
        metric.label(),
        reps,
        table.render()
    );

    // paper-style SVG figure alongside the numbers
    let svg = hetsched_metrics::plot::line_chart(
        &format!("{} vs {axis}", metric.label()),
        &points.iter().map(|p| p.label.clone()).collect::<Vec<_>>(),
        &algs
            .iter()
            .enumerate()
            .map(|(ai, a)| {
                (
                    a.name().to_string(),
                    means.iter().map(|row| row[ai]).collect::<Vec<f64>>(),
                )
            })
            .collect::<Vec<_>>(),
        &hetsched_metrics::plot::PlotStyle::default(),
    );

    let json = json!({
        "axis": axis,
        "metric": metric.label(),
        "reps": reps,
        "seed": base_seed,
        "points": points.iter().map(|p| p.label.clone()).collect::<Vec<_>>(),
        "algorithms": algs.iter().map(|a| a.name()).collect::<Vec<_>>(),
        "means": means,
        "ci95": ci95,
        "svg": svg,
    });
    (text, json, means)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_core::algorithms::{Heft, MinMin};
    use hetsched_platform::EtcParams;
    use hetsched_workloads::{random_dag, RandomDagParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn points() -> Vec<Point> {
        vec![Point {
            label: "n=20".into(),
            gen: Box::new(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let dag = random_dag(&RandomDagParams::new(20, 1.0, 1.0), &mut rng);
                let sys =
                    System::heterogeneous_random(&dag, 4, &EtcParams::range_based(1.0), &mut rng);
                (dag, sys)
            }),
        }]
    }

    #[test]
    fn sweep_is_deterministic_and_well_formed() {
        let algs: Vec<Box<dyn Scheduler + Send + Sync>> =
            vec![Box::new(Heft::new()), Box::new(MinMin::new())];
        let (text1, json1, means1) = metric_sweep("n", &points(), &algs, 3, 7, Metric::AvgSlr);
        let (_, _, means2) = metric_sweep("n", &points(), &algs, 3, 7, Metric::AvgSlr);
        assert_eq!(means1, means2, "same seed, same means");
        assert_eq!(means1.len(), 1);
        assert_eq!(means1[0].len(), 2);
        assert!(means1[0].iter().all(|&v| v >= 1.0), "SLR >= 1");
        assert!(text1.contains("HEFT") && text1.contains("MinMin"));
        assert!(text1.contains("n=20"));
        assert_eq!(json1["reps"], 3);
        assert_eq!(json1["algorithms"][0], "HEFT");
    }

    #[test]
    fn speedup_metric_is_positive() {
        let algs: Vec<Box<dyn Scheduler + Send + Sync>> = vec![Box::new(Heft::new())];
        let (_, _, means) = metric_sweep("n", &points(), &algs, 2, 9, Metric::AvgSpeedup);
        assert!(means[0][0] > 0.0);
    }
}
