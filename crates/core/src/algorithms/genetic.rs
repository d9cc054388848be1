//! GA — a genetic-algorithm metaheuristic scheduler (extension baseline).
//!
//! Scheduling GAs were the standard "how much is left on the table" probe
//! of the HEFT era: slower by orders of magnitude, but able to escape
//! list-scheduling's greedy horizon. This implementation uses the classic
//! priority-vector encoding:
//!
//! * a chromosome is a **priority gene** per task plus a **processor
//!   assignment** per task;
//! * decoding runs a ready-list simulation — among ready tasks, the
//!   highest gene priority goes next, placed on its assigned processor at
//!   the earliest (insertion) start — so every chromosome decodes to a
//!   *valid* schedule by construction;
//! * uniform crossover and gaussian/reset mutation on both parts,
//!   tournament selection, elitism, and a HEFT-seeded initial population
//!   (so the GA never returns anything worse than HEFT).
//!
//! The search is deterministic for a fixed `seed`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hetsched_dag::{Dag, TaskId};
use hetsched_platform::{ProcId, System};

use crate::algorithms::Heft;
use crate::cost::CostAggregation;
use crate::instance::ProblemInstance;
use crate::schedule::Schedule;
use crate::Scheduler;

/// Genetic-algorithm scheduler.
#[derive(Debug, Clone, Copy)]
pub struct Genetic {
    /// Population size (≥ 2).
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// RNG seed (the whole search is deterministic given this).
    pub seed: u64,
}

impl Genetic {
    /// Default configuration: population 24, 40 generations.
    pub fn new() -> Self {
        Genetic {
            population: 24,
            generations: 40,
            mutation_rate: 0.08,
            seed: 0x6a_5eed,
        }
    }
}

impl Default for Genetic {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Clone)]
struct Chromosome {
    /// Priority gene per task (higher = earlier among ready tasks).
    priority: Vec<f64>,
    /// Assigned processor per task.
    assign: Vec<u32>,
}

/// Decode a chromosome into a schedule: ready-list order by gene priority,
/// insertion-based earliest start on the assigned processor.
fn decode(dag: &Dag, sys: &System, ch: &Chromosome) -> Schedule {
    let n = dag.num_tasks();
    let mut sched = Schedule::new(n, sys.num_procs());
    let mut remaining: Vec<usize> = dag.task_ids().map(|t| dag.in_degree(t)).collect();
    let mut ready: Vec<TaskId> = dag.entry_tasks().collect();
    while !ready.is_empty() {
        let (ri, &t) = ready
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                ch.priority[a.index()]
                    .total_cmp(&ch.priority[b.index()])
                    .then_with(|| b.cmp(&a))
            })
            .expect("ready set non-empty");
        let t = {
            ready.swap_remove(ri);
            t
        };
        let p = ProcId(ch.assign[t.index()]);
        let ready_time = crate::eft::data_ready_time_raw(dag, sys, &sched, t, p);
        let dur = sys.exec_time(t, p);
        let start = sched.earliest_start(p, ready_time, dur, true);
        sched
            .insert(t, p, start, dur)
            .expect("decoded placement is conflict-free");
        for (s, _) in dag.successors(t) {
            let r = &mut remaining[s.index()];
            *r -= 1;
            if *r == 0 {
                ready.push(s);
            }
        }
    }
    sched
}

impl Scheduler for Genetic {
    fn name(&self) -> &'static str {
        "GA"
    }

    fn schedule_instance(&self, inst: &ProblemInstance) -> Schedule {
        let (dag, sys) = (inst.dag(), inst.sys());
        assert!(self.population >= 2, "population must be at least 2");
        let n = dag.num_tasks();
        let np = sys.num_procs() as u32;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let jobs = crate::par::effective_jobs().min(self.population);

        // seed individual: HEFT's upward ranks as priorities, HEFT's
        // assignment as genes — decodes to (essentially) HEFT's schedule
        let heft_sched = Heft::new().schedule_instance(inst);
        let heft_chrom = Chromosome {
            priority: inst.upward_rank(CostAggregation::Mean).as_ref().clone(),
            assign: dag
                .task_ids()
                .map(|t| heft_sched.task_proc(t).expect("complete").0)
                .collect(),
        };

        // Fitness evaluation (decode + makespan) consumes no RNG, so
        // generating every chromosome of a batch first and evaluating the
        // batch afterwards — in parallel, results in submission order —
        // consumes the exact RNG stream of the evaluate-as-you-generate
        // sequential loop. Chromosomes and fitnesses live in parallel
        // vectors; generations are ordered by an index argsort instead of
        // re-sorting the population payloads (stable-sort permutation
        // reproduced via the original-index tie-break).
        let mut chroms: Vec<Chromosome> = Vec::with_capacity(self.population);
        chroms.push(heft_chrom);
        while chroms.len() < self.population {
            chroms.push(Chromosome {
                priority: (0..n).map(|_| rng.gen::<f64>()).collect(),
                assign: (0..n).map(|_| rng.gen_range(0..np)).collect(),
            });
        }
        let eval = |batch: &[Chromosome]| -> Vec<f64> {
            crate::par::par_map_collect(jobs, batch, |ch| decode(dag, sys, ch).makespan())
        };
        let mut fit: Vec<f64> = eval(&chroms);
        let argsort = |fit: &[f64]| -> Vec<usize> {
            let mut order: Vec<usize> = (0..fit.len()).collect();
            order.sort_unstable_by(|&i, &j| fit[i].total_cmp(&fit[j]).then_with(|| i.cmp(&j)));
            order
        };

        // tournament over the fitness-sorted view: positions index `order`
        let tournament = |order: &[usize], fit: &[f64], rng: &mut StdRng| -> usize {
            let a = rng.gen_range(0..order.len());
            let b = rng.gen_range(0..order.len());
            if fit[order[a]] <= fit[order[b]] {
                order[a]
            } else {
                order[b]
            }
        };

        for _ in 0..self.generations {
            let order = argsort(&fit);
            let elite = chroms[order[0]].clone();
            let elite_fit = fit[order[0]];
            let mut next = vec![elite];
            while next.len() < self.population {
                let pa = &chroms[tournament(&order, &fit, &mut rng)];
                let pb = &chroms[tournament(&order, &fit, &mut rng)];
                // uniform crossover on both parts
                let mut child = Chromosome {
                    priority: (0..n)
                        .map(|i| {
                            if rng.gen::<bool>() {
                                pa.priority[i]
                            } else {
                                pb.priority[i]
                            }
                        })
                        .collect(),
                    assign: (0..n)
                        .map(|i| {
                            if rng.gen::<bool>() {
                                pa.assign[i]
                            } else {
                                pb.assign[i]
                            }
                        })
                        .collect(),
                };
                // mutation: gaussian jitter on priorities, reset on procs
                for i in 0..n {
                    if rng.gen::<f64>() < self.mutation_rate {
                        child.priority[i] += hetsched_platform::dist::standard_normal(&mut rng)
                            * (child.priority[i].abs().max(1.0) * 0.1);
                    }
                    if rng.gen::<f64>() < self.mutation_rate {
                        child.assign[i] = rng.gen_range(0..np);
                    }
                }
                next.push(child);
            }
            // elite fitness is carried, children are batch-evaluated
            let child_fit = eval(&next[1..]);
            fit.clear();
            fit.push(elite_fit);
            fit.extend(child_fit);
            chroms = next;
        }
        let order = argsort(&fit);
        decode(dag, sys, &chroms[order[0]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use hetsched_dag::builder::dag_from_edges;
    use hetsched_platform::EtcParams;

    fn quick_ga() -> Genetic {
        Genetic {
            population: 10,
            generations: 10,
            mutation_rate: 0.1,
            seed: 7,
        }
    }

    #[test]
    fn decodes_valid_schedules() {
        let dag = dag_from_edges(
            &[2.0, 3.0, 1.0, 4.0],
            &[(0, 1, 5.0), (0, 2, 5.0), (1, 3, 5.0), (2, 3, 5.0)],
        )
        .unwrap();
        let sys = System::homogeneous_unit(&dag, 3);
        let s = quick_ga().schedule(&dag, &sys);
        assert_eq!(validate(&dag, &sys, &s), Ok(()));
        assert!(s.is_complete());
    }

    #[test]
    fn never_worse_than_heft_thanks_to_seeding_and_elitism() {
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let dag = hetsched_workloads::random_dag(
                &hetsched_workloads::RandomDagParams::new(25, 1.0, 2.0),
                &mut rng,
            );
            let sys = System::heterogeneous_random(&dag, 4, &EtcParams::range_based(1.0), &mut rng);
            let heft = Heft::new().schedule(&dag, &sys).makespan();
            let ga = quick_ga().schedule(&dag, &sys);
            assert_eq!(validate(&dag, &sys, &ga), Ok(()), "seed {seed}");
            assert!(
                ga.makespan() <= heft + 1e-6,
                "seed {seed}: GA {} vs HEFT {heft}",
                ga.makespan()
            );
        }
    }

    #[test]
    fn is_deterministic_for_a_fixed_seed() {
        let mut rng = StdRng::seed_from_u64(3);
        let dag = hetsched_workloads::random_dag(
            &hetsched_workloads::RandomDagParams::new(20, 1.0, 1.0),
            &mut rng,
        );
        let sys = System::heterogeneous_random(&dag, 3, &EtcParams::range_based(1.0), &mut rng);
        let a = quick_ga().schedule(&dag, &sys);
        let b = quick_ga().schedule(&dag, &sys);
        assert_eq!(a.makespan(), b.makespan());
        for t in dag.task_ids() {
            assert_eq!(a.assignment(t), b.assignment(t));
        }
    }

    #[test]
    fn decoding_heft_seed_reproduces_a_heft_quality_schedule() {
        let mut rng = StdRng::seed_from_u64(4);
        let dag = hetsched_workloads::random_dag(
            &hetsched_workloads::RandomDagParams::new(30, 1.0, 1.0),
            &mut rng,
        );
        let sys = System::heterogeneous_random(&dag, 4, &EtcParams::range_based(1.0), &mut rng);
        let heft_sched = Heft::new().schedule(&dag, &sys);
        let chrom = Chromosome {
            priority: ProblemInstance::from_refs(&dag, &sys)
                .upward_rank(CostAggregation::Mean)
                .to_vec(),
            assign: dag
                .task_ids()
                .map(|t| heft_sched.task_proc(t).unwrap().0)
                .collect(),
        };
        let decoded = decode(&dag, &sys, &chrom);
        assert_eq!(validate(&dag, &sys, &decoded), Ok(()));
        // same order + same assignment + insertion placement = makespan
        // no worse than HEFT's
        assert!(decoded.makespan() <= heft_sched.makespan() + 1e-9);
    }

    use rand::rngs::StdRng;
    use rand::SeedableRng;
}
