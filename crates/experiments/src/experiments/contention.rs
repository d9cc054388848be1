//! tab6 (extension): what the contention-free assumption costs — replay
//! every scheduler's plan under single-port and shared-bus communication
//! and measure the makespan inflation.

use rand::rngs::StdRng;
use rand::SeedableRng;

use hetsched_core::algorithms::{all_heterogeneous, CaHeft};
use hetsched_core::par::{available_jobs, par_map_collect};
use hetsched_metrics::table::TextTable;
use hetsched_platform::{EtcParams, System};
use hetsched_sim::{simulate, simulate_with, CommModel, Scenario, SimConfig};
use hetsched_workloads::{random_dag, RandomDagParams};
use serde_json::json;

use super::Report;
use crate::config::Config;
use crate::runner::instance_seed;

/// tab6: mean makespan inflation (contended / contention-free replay) per
/// algorithm, for the single-port and shared-bus models, at CCR 1 and 5.
/// CA-HEFT — which plans *for* the single-port model — is appended as the
/// treatment row.
pub fn contention_table(cfg: &Config) -> Report {
    let n = if cfg.quick { 30 } else { 60 };
    let mut algs = all_heterogeneous();
    // the contention-aware scheduler is the punchline of this table
    algs.push(Box::new(CaHeft::new()));
    let procs = cfg.procs;
    let ccrs = [1.0, 5.0];

    let work: Vec<(usize, u64)> = ccrs
        .iter()
        .enumerate()
        .flat_map(|(ci, _)| (0..cfg.reps as u64).map(move |r| (ci, r)))
        .collect();
    // per item: (ci, inflation[model][alg])
    let rows = par_map_collect(available_jobs(), &work, |&(ci, rep)| {
        let seed = instance_seed(cfg.seed ^ 0xc027, ci as u64, rep);
        let mut rng = StdRng::seed_from_u64(seed);
        let dag = random_dag(&RandomDagParams::new(n, 1.0, ccrs[ci]), &mut rng);
        let sys = System::heterogeneous_random(&dag, procs, &EtcParams::range_based(1.0), &mut rng);
        let scheds: Vec<_> = algs.iter().map(|a| a.schedule(&dag, &sys)).collect();
        let frees: Vec<f64> = scheds
            .iter()
            .map(|s| simulate(&dag, &sys, s, &SimConfig::default()).makespan)
            .collect();
        // rows: [single-port inflation, bus inflation, single-port absolute]
        let mut blocks: Vec<Vec<f64>> = Vec::with_capacity(3);
        let mut sp_abs = Vec::new();
        for model in [CommModel::SinglePort, CommModel::SharedBus] {
            let contended: Vec<f64> = scheds
                .iter()
                .map(|s| {
                    simulate_with(
                        &dag,
                        &sys,
                        s,
                        &SimConfig::default(),
                        &Scenario {
                            proc_slowdown: vec![],
                            comm_model: model,
                        },
                    )
                    .makespan
                })
                .collect();
            if model == CommModel::SinglePort {
                sp_abs = contended.clone();
            }
            blocks.push(contended.iter().zip(&frees).map(|(c, f)| c / f).collect());
        }
        // absolute single-port makespan normalized by HEFT's (HEFT is the
        // third algorithm in registry order — look it up by name instead)
        let heft_idx = algs
            .iter()
            .position(|a| a.name() == "HEFT")
            .expect("HEFT in set");
        blocks.push(sp_abs.iter().map(|m| m / sp_abs[heft_idx]).collect());
        (ci, blocks)
    });

    let mut text = String::new();
    let mut json_blocks = Vec::new();
    for (ci, &ccr) in ccrs.iter().enumerate() {
        let per_ccr: Vec<&Vec<Vec<f64>>> = rows
            .iter()
            .filter(|(c, _)| *c == ci)
            .map(|(_, v)| v)
            .collect();
        let mut table = TextTable::new(vec![
            "algorithm".into(),
            "single-port".into(),
            "shared-bus".into(),
            "sp vs HEFT".into(),
        ]);
        let mut json_rows = Vec::new();
        for (ai, alg) in algs.iter().enumerate() {
            let mean =
                |mi: usize| per_ccr.iter().map(|v| v[mi][ai]).sum::<f64>() / per_ccr.len() as f64;
            let (sp, bus, vs_heft) = (mean(0), mean(1), mean(2));
            table.row(vec![
                alg.name().into(),
                format!("{sp:.3}"),
                format!("{bus:.3}"),
                format!("{vs_heft:.3}"),
            ]);
            json_rows.push(json!({
                "alg": alg.name(), "single_port": sp, "shared_bus": bus,
                "single_port_vs_heft": vs_heft,
            }));
        }
        text.push_str(&format!(
            "makespan inflation vs contention-free replay (and absolute single-port makespan normalized by HEFT's), CCR={ccr} ({} instances)\n{}\n",
            per_ccr.len(),
            table.render()
        ));
        json_blocks.push(json!({"ccr": ccr, "rows": json_rows}));
    }
    Report {
        text,
        json: json!({"blocks": json_blocks}),
    }
}
