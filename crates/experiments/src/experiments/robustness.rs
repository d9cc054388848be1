//! fig11 (extension): how gracefully each scheduler's plan degrades when
//! execution times deviate from the ETC matrix — measured by replaying
//! schedules in the discrete-event simulator under gamma noise.

use rand::rngs::StdRng;
use rand::SeedableRng;

use hetsched_core::algorithms::all_heterogeneous;
use hetsched_core::par::{available_jobs, par_map_collect};
use hetsched_metrics::table::TextTable;
use hetsched_platform::{EtcParams, System};
use hetsched_sim::{simulate, Noise, SimConfig};
use hetsched_workloads::{random_dag, RandomDagParams};
use serde_json::json;

use super::Report;
use crate::config::Config;
use crate::runner::instance_seed;

/// fig11: mean makespan degradation (noisy / noiseless replay) vs the
/// execution-noise coefficient of variation.
pub fn degradation_vs_noise(cfg: &Config) -> Report {
    let cvs: &[f64] = if cfg.quick {
        &[0.1, 0.3]
    } else {
        &[0.1, 0.2, 0.3, 0.4, 0.5]
    };
    let n = if cfg.quick { 40 } else { 80 };
    let algs = all_heterogeneous();
    let procs = cfg.procs;
    let noise_reps = 5u64; // noise draws per (instance, cv)

    let work: Vec<u64> = (0..cfg.reps as u64).collect();
    // per instance: degradation[cv][alg]
    let per_instance: Vec<Vec<Vec<f64>>> = par_map_collect(available_jobs(), &work, |&rep| {
        let seed = instance_seed(cfg.seed ^ 0x0b5, 0, rep);
        let mut rng = StdRng::seed_from_u64(seed);
        let dag = random_dag(&RandomDagParams::new(n, 1.0, 1.0), &mut rng);
        let sys = System::heterogeneous_random(&dag, procs, &EtcParams::range_based(1.0), &mut rng);
        let scheds: Vec<_> = algs.iter().map(|a| a.schedule(&dag, &sys)).collect();
        let bases: Vec<f64> = scheds
            .iter()
            .map(|s| simulate(&dag, &sys, s, &SimConfig::default()).makespan)
            .collect();
        cvs.iter()
            .map(|&cv| {
                scheds
                    .iter()
                    .zip(&bases)
                    .map(|(s, &base)| {
                        let mean_noisy: f64 = (0..noise_reps)
                            .map(|k| {
                                simulate(
                                    &dag,
                                    &sys,
                                    s,
                                    &SimConfig {
                                        exec_noise: Noise::Gamma { cv },
                                        comm_noise: Noise::None,
                                        seed: seed ^ (k + 1),
                                    },
                                )
                                .makespan
                            })
                            .sum::<f64>()
                            / noise_reps as f64;
                        mean_noisy / base
                    })
                    .collect()
            })
            .collect()
    });

    // aggregate means[cv][alg]
    let mut means = vec![vec![0.0f64; algs.len()]; cvs.len()];
    for inst in &per_instance {
        for (ci, row) in inst.iter().enumerate() {
            for (ai, v) in row.iter().enumerate() {
                means[ci][ai] += v;
            }
        }
    }
    for row in &mut means {
        for v in row.iter_mut() {
            *v /= per_instance.len() as f64;
        }
    }

    let mut table = TextTable::new(
        std::iter::once("noise cv".to_string())
            .chain(algs.iter().map(|a| a.name().to_string()))
            .collect(),
    );
    for (ci, &cv) in cvs.iter().enumerate() {
        let mut cells = vec![format!("{cv}")];
        cells.extend(means[ci].iter().map(|v| format!("{v:.3}")));
        table.row(cells);
    }
    let json = json!({
        "metric": "mean makespan degradation (noisy/noiseless)",
        "noise_cvs": cvs,
        "algorithms": algs.iter().map(|a| a.name()).collect::<Vec<_>>(),
        "means": means,
    });
    Report {
        text: format!(
            "makespan degradation under Gamma execution noise ({} instances x {noise_reps} draws)\n{}",
            per_instance.len(),
            table.render()
        ),
        json,
    }
}
