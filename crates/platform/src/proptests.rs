//! Property-based tests for the platform model.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use hetsched_dag::builder::dag_from_edges;
use hetsched_dag::Dag;

use crate::etc::{Consistency, EtcMatrix, EtcParams};
use crate::network::{Network, Topology};
use crate::ProcId;

fn line_dag(n: usize) -> Dag {
    let weights: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let edges: Vec<(u32, u32, f64)> = (1..n as u32).map(|i| (i - 1, i, 2.0)).collect();
    dag_from_edges(&weights, &edges).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn comm_time_is_nonnegative_and_zero_on_diagonal(
        n in 1usize..12,
        data in 0.0f64..1000.0,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Network::heterogeneous_random(n, (0.0, 5.0), (0.5, 10.0), &mut rng);
        for a in 0..n {
            for b in 0..n {
                let c = net.comm_time(data, ProcId(a as u32), ProcId(b as u32));
                prop_assert!(c >= 0.0);
                if a == b {
                    prop_assert_eq!(c, 0.0);
                }
            }
        }
    }

    #[test]
    fn ring_hops_symmetric_and_bounded(n in 2usize..20, a in 0usize..20, b in 0usize..20) {
        let (a, b) = (a % n, b % n);
        let t = Topology::Ring;
        prop_assert_eq!(t.hops(n, a, b), t.hops(n, b, a));
        prop_assert!(t.hops(n, a, b) <= n / 2);
    }

    #[test]
    fn mesh_hops_triangle_inequality(rows in 1usize..5, cols in 1usize..5,
                                     x in 0usize..25, y in 0usize..25, z in 0usize..25) {
        let n = rows * cols;
        let (x, y, z) = (x % n, y % n, z % n);
        let t = Topology::Mesh2D { rows, cols };
        prop_assert!(t.hops(n, x, z) <= t.hops(n, x, y) + t.hops(n, y, z));
    }

    #[test]
    fn range_based_rows_bounded_by_beta(
        n_tasks in 1usize..30,
        n_procs in 1usize..16,
        beta in 0.0f64..1.99,
        seed in 0u64..1000,
    ) {
        let dag = line_dag(n_tasks);
        let mut rng = StdRng::seed_from_u64(seed);
        let etc = EtcMatrix::generate(&dag, n_procs, &EtcParams::range_based(beta), &mut rng);
        for t in dag.task_ids() {
            let w = dag.task_weight(t);
            for &v in etc.row(t) {
                prop_assert!(v >= w * (1.0 - beta / 2.0) - 1e-9);
                prop_assert!(v <= w * (1.0 + beta / 2.0) + 1e-9);
            }
        }
        // min over the row never exceeds the mean
        for t in dag.task_ids() {
            prop_assert!(etc.min_exec(t).0 <= etc.mean_exec(t) + 1e-12);
            prop_assert!(etc.max_exec(t) >= etc.mean_exec(t) - 1e-12);
        }
    }

    #[test]
    fn consistent_generation_reports_consistent(
        n_tasks in 1usize..20,
        n_procs in 1usize..10,
        seed in 0u64..1000,
    ) {
        let dag = line_dag(n_tasks);
        let mut rng = StdRng::seed_from_u64(seed);
        let etc = EtcMatrix::generate(
            &dag,
            n_procs,
            &EtcParams::range_based(1.0).with_consistency(Consistency::Consistent),
            &mut rng,
        );
        prop_assert!(etc.is_consistent());
    }

    #[test]
    fn mean_comm_between_min_and_max_pairwise(
        n in 2usize..10,
        data in 0.0f64..100.0,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Network::heterogeneous_random(n, (0.0, 2.0), (1.0, 8.0), &mut rng);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let c = net.comm_time(data, ProcId(a as u32), ProcId(b as u32));
                    lo = lo.min(c);
                    hi = hi.max(c);
                }
            }
        }
        let mean = net.mean_comm_time(data);
        prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
    }

    /// The batched kernel is the scalar one, bit for bit: on 1..=9
    /// processors (one processor is the all-zero branch) and slices of
    /// 0..=20 volumes, which cover zero, one and two full 8-lane chunks
    /// plus every remainder length, with zero, subnormal, huge and
    /// ordinary volumes mixed in.
    #[test]
    fn mean_comm_times_matches_the_scalar_bitwise(
        n in 1usize..=9,
        kinds in proptest::collection::vec((0u32..4, 0.0f64..1000.0), 0..=20),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Network::heterogeneous_random(n, (0.0, 5.0), (0.5, 10.0), &mut rng);
        let data: Vec<f64> = kinds
            .iter()
            .map(|&(kind, x)| match kind {
                0 => 0.0,
                1 => f64::from_bits(1 + x as u64), // subnormal
                2 => 1e300 * (1.0 + x),
                _ => x,
            })
            .collect();
        let mut out = vec![f64::NAN; data.len()];
        net.mean_comm_times(&data, &mut out);
        for (&d, &got) in data.iter().zip(&out) {
            prop_assert_eq!(got.to_bits(), net.mean_comm_time(d).to_bits());
        }
    }
}
