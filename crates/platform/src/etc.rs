//! Expected-time-to-compute (ETC) matrices and their generation.
//!
//! `etc[t][p]` is the execution time of task `t` on processor `p`. The two
//! generation methods of the heterogeneous-computing literature are
//! provided:
//!
//! * [`EtcMethod::RangeBased`] (Topcuoglu et al.): each entry is uniform in
//!   `[w̄ₜ · (1 − β/2), w̄ₜ · (1 + β/2)]` where `w̄ₜ` is the task's nominal
//!   weight and `β ∈ [0, 2)` the heterogeneity factor. `β = 0` reproduces a
//!   homogeneous system exactly.
//! * [`EtcMethod::Cvb`] (Ali et al.): gamma-distributed entries with the
//!   task's nominal weight as mean and a machine coefficient of variation.
//!
//! Orthogonally, [`Consistency`] post-processes rows: a *consistent* matrix
//! sorts every row in the same processor order (fast machines are fast for
//! everything); *partially consistent* sorts each row with probability `f`.

use rand::Rng;
use serde::{Deserialize, Serialize};

use hetsched_dag::{Dag, TaskId};

use crate::dist::gamma_mean_cv;
use crate::ProcId;

/// Row-consistency structure of a generated ETC matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Consistency {
    /// Every row sorted in the same processor order.
    Consistent,
    /// Each row independently sorted with the given probability `f ∈ [0,1]`.
    PartiallyConsistent(f64),
    /// Rows left as drawn (no structure).
    Inconsistent,
}

/// Entry-generation method for ETC matrices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EtcMethod {
    /// Uniform around the nominal weight with heterogeneity factor `beta`.
    RangeBased {
        /// Heterogeneity factor `β ∈ [0, 2)`; spread of execution times.
        beta: f64,
    },
    /// Gamma-distributed with the nominal weight as mean.
    Cvb {
        /// Machine coefficient of variation (stddev/mean across processors).
        machine_cv: f64,
    },
}

/// Full parameter set for ETC generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EtcParams {
    /// Entry-generation method.
    pub method: EtcMethod,
    /// Row-consistency post-processing.
    pub consistency: Consistency,
}

impl EtcParams {
    /// Range-based generation with heterogeneity `beta`, inconsistent rows
    /// (the most common configuration in the literature).
    pub fn range_based(beta: f64) -> Self {
        EtcParams {
            method: EtcMethod::RangeBased { beta },
            consistency: Consistency::Inconsistent,
        }
    }

    /// CVB generation with the given machine coefficient of variation,
    /// inconsistent rows.
    pub fn cvb(machine_cv: f64) -> Self {
        EtcParams {
            method: EtcMethod::Cvb { machine_cv },
            consistency: Consistency::Inconsistent,
        }
    }

    /// Same parameters with a different consistency mode.
    pub fn with_consistency(mut self, c: Consistency) -> Self {
        self.consistency = c;
        self
    }
}

/// A dense task-major ETC matrix.
///
/// Invariants (enforced by every constructor): at least one task and one
/// processor, every entry finite and strictly positive unless the task's
/// nominal weight was zero (virtual entry/exit tasks keep zero rows).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EtcMatrix {
    n_tasks: usize,
    n_procs: usize,
    data: Vec<f64>,
    /// Cached per-task mean over processors (the `w̄ₜ` of mean-based ranks).
    means: Vec<f64>,
}

impl EtcMatrix {
    fn from_data(n_tasks: usize, n_procs: usize, data: Vec<f64>) -> Self {
        assert!(n_tasks > 0, "ETC needs at least one task");
        assert!(n_procs > 0, "ETC needs at least one processor");
        assert_eq!(data.len(), n_tasks * n_procs);
        for &v in &data {
            assert!(
                v.is_finite() && v >= 0.0,
                "ETC entry must be finite and >= 0, got {v}"
            );
        }
        let means = (0..n_tasks)
            .map(|t| Self::row_mean(&data[t * n_procs..(t + 1) * n_procs]))
            .collect();
        EtcMatrix {
            n_tasks,
            n_procs,
            data,
            means,
        }
    }

    /// The fold behind the cached per-task means.
    fn row_mean(row: &[f64]) -> f64 {
        row.iter().sum::<f64>() / row.len() as f64
    }

    /// Set the execution time of `t` on `p` to `time`, and refresh `t`'s
    /// cached mean by the row fold a fresh build runs, so the patched
    /// matrix is indistinguishable from one built with the new entry.
    ///
    /// # Panics
    /// Panics if `t` or `p` is out of range, or `time` is not finite and
    /// `>= 0`.
    pub fn set_exec(&mut self, t: TaskId, p: ProcId, time: f64) {
        assert!(
            time.is_finite() && time >= 0.0,
            "ETC entry must be finite and >= 0, got {time}"
        );
        assert!(p.index() < self.n_procs, "processor {p} out of range");
        let row = t.index() * self.n_procs..(t.index() + 1) * self.n_procs;
        self.data[row.start + p.index()] = time;
        self.means[t.index()] = Self::row_mean(&self.data[row]);
    }

    /// Build from an explicit closure `f(task, proc) -> time`.
    pub fn from_fn(
        n_tasks: usize,
        n_procs: usize,
        mut f: impl FnMut(TaskId, ProcId) -> f64,
    ) -> Self {
        let mut data = Vec::with_capacity(n_tasks * n_procs);
        for t in 0..n_tasks {
            for p in 0..n_procs {
                data.push(f(TaskId::from_index(t), ProcId::from_index(p)));
            }
        }
        Self::from_data(n_tasks, n_procs, data)
    }

    /// Homogeneous matrix: every processor executes task `t` in exactly the
    /// task's nominal weight.
    pub fn homogeneous(dag: &Dag, n_procs: usize) -> Self {
        Self::from_fn(dag.num_tasks(), n_procs, |t, _| dag.task_weight(t))
    }

    /// Related-machines matrix: processor `p` has a speed factor and
    /// executes `t` in `weight(t) / speed(p)`. This is *consistent*
    /// heterogeneity by construction.
    ///
    /// # Panics
    /// Panics if any speed is not strictly positive.
    pub fn from_speeds(dag: &Dag, speeds: &[f64]) -> Self {
        assert!(!speeds.is_empty(), "need at least one speed");
        for &s in speeds {
            assert!(s.is_finite() && s > 0.0, "speed must be positive, got {s}");
        }
        Self::from_fn(dag.num_tasks(), speeds.len(), |t, p| {
            dag.task_weight(t) / speeds[p.index()]
        })
    }

    /// Generate an ETC matrix for `dag` on `n_procs` processors per
    /// `params`, using the DAG's task weights as nominal means.
    ///
    /// # Panics
    /// Panics on invalid parameters (`beta ∉ [0, 2)`, `machine_cv <= 0`,
    /// partial-consistency fraction outside `[0, 1]`).
    pub fn generate<R: Rng + ?Sized>(
        dag: &Dag,
        n_procs: usize,
        params: &EtcParams,
        rng: &mut R,
    ) -> Self {
        assert!(n_procs > 0, "need at least one processor");
        let n = dag.num_tasks();
        let mut data = Vec::with_capacity(n * n_procs);
        match params.method {
            EtcMethod::RangeBased { beta } => {
                assert!(
                    (0.0..2.0).contains(&beta),
                    "heterogeneity beta must be in [0, 2), got {beta}"
                );
                for t in dag.task_ids() {
                    let w = dag.task_weight(t);
                    let lo = w * (1.0 - beta / 2.0);
                    let hi = w * (1.0 + beta / 2.0);
                    for _ in 0..n_procs {
                        data.push(if beta == 0.0 || w == 0.0 {
                            w
                        } else {
                            rng.gen_range(lo..hi)
                        });
                    }
                }
            }
            EtcMethod::Cvb { machine_cv } => {
                assert!(
                    machine_cv > 0.0,
                    "machine_cv must be positive, got {machine_cv}"
                );
                for t in dag.task_ids() {
                    let w = dag.task_weight(t);
                    for _ in 0..n_procs {
                        data.push(if w == 0.0 {
                            0.0
                        } else {
                            gamma_mean_cv(rng, w, machine_cv)
                        });
                    }
                }
            }
        }
        // Consistency post-processing: sorting a row ascending means lower
        // processor ids are uniformly faster.
        match params.consistency {
            Consistency::Inconsistent => {}
            Consistency::Consistent => {
                for t in 0..n {
                    data[t * n_procs..(t + 1) * n_procs].sort_by(f64::total_cmp);
                }
            }
            Consistency::PartiallyConsistent(f) => {
                assert!(
                    (0.0..=1.0).contains(&f),
                    "partial-consistency fraction must be in [0, 1], got {f}"
                );
                for t in 0..n {
                    if rng.gen::<f64>() < f {
                        data[t * n_procs..(t + 1) * n_procs].sort_by(f64::total_cmp);
                    }
                }
            }
        }
        Self::from_data(n, n_procs, data)
    }

    /// Number of tasks (rows).
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Number of processors (columns).
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.n_procs
    }

    /// Execution time of task `t` on processor `p`.
    #[inline]
    pub fn exec(&self, t: TaskId, p: ProcId) -> f64 {
        self.data[t.index() * self.n_procs + p.index()]
    }

    /// The full row of task `t` (execution time per processor).
    #[inline]
    pub fn row(&self, t: TaskId) -> &[f64] {
        &self.data[t.index() * self.n_procs..(t.index() + 1) * self.n_procs]
    }

    /// Mean execution time of `t` over all processors (cached).
    #[inline]
    pub fn mean_exec(&self, t: TaskId) -> f64 {
        self.means[t.index()]
    }

    /// Median execution time of `t` over all processors.
    pub fn median_exec(&self, t: TaskId) -> f64 {
        let mut row = self.row(t).to_vec();
        row.sort_by(f64::total_cmp);
        let m = row.len();
        if m % 2 == 1 {
            row[m / 2]
        } else {
            0.5 * (row[m / 2 - 1] + row[m / 2])
        }
    }

    /// Population standard deviation of `t`'s row.
    pub fn std_exec(&self, t: TaskId) -> f64 {
        let mu = self.mean_exec(t);
        let var = self
            .row(t)
            .iter()
            .map(|&x| (x - mu) * (x - mu))
            .sum::<f64>()
            / self.n_procs as f64;
        var.sqrt()
    }

    /// Fastest processor for `t` and its execution time.
    pub fn min_exec(&self, t: TaskId) -> (f64, ProcId) {
        let row = self.row(t);
        let (mut best, mut bp) = (row[0], 0usize);
        for (p, &v) in row.iter().enumerate().skip(1) {
            if v < best {
                best = v;
                bp = p;
            }
        }
        (best, ProcId::from_index(bp))
    }

    /// Slowest execution time of `t` over all processors.
    pub fn max_exec(&self, t: TaskId) -> f64 {
        self.row(t)
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Whether every row is identical across processors (a homogeneous
    /// system).
    pub fn is_homogeneous(&self) -> bool {
        (0..self.n_tasks).all(|t| {
            let row = &self.data[t * self.n_procs..(t + 1) * self.n_procs];
            row.windows(2).all(|w| w[0] == w[1])
        })
    }

    /// Whether the matrix is consistent: there exists a total processor
    /// order that every row respects. Checked via the order induced by the
    /// first non-constant row.
    pub fn is_consistent(&self) -> bool {
        // order processors by their time on each row; consistent iff all
        // rows induce compatible (non-contradicting) orders. We check
        // pairwise: for every pair (p, q), the sign of etc(t,p) - etc(t,q)
        // never flips across tasks.
        for p in 0..self.n_procs {
            for q in (p + 1)..self.n_procs {
                let mut sign = 0i8;
                for t in 0..self.n_tasks {
                    let a = self.data[t * self.n_procs + p];
                    let b = self.data[t * self.n_procs + q];
                    let s = if a < b {
                        -1
                    } else if a > b {
                        1
                    } else {
                        0
                    };
                    if s != 0 {
                        if sign == 0 {
                            sign = s;
                        } else if sign != s {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Mean coefficient of variation across rows — an empirical measure of
    /// how heterogeneous the matrix is (0 for homogeneous).
    pub fn mean_row_cv(&self) -> f64 {
        let mut acc = 0.0;
        let mut counted = 0usize;
        for t in 0..self.n_tasks {
            let tid = TaskId::from_index(t);
            let mu = self.mean_exec(tid);
            if mu > 0.0 {
                acc += self.std_exec(tid) / mu;
                counted += 1;
            }
        }
        if counted == 0 {
            0.0
        } else {
            acc / counted as f64
        }
    }

    /// Stable 64-bit fingerprint of the matrix content (dimensions and
    /// every entry; the cached means are derived and not hashed). See
    /// [`hetsched_dag::fingerprint`].
    pub fn content_fingerprint(&self) -> u64 {
        let mut fp = hetsched_dag::Fingerprint::new();
        self.fold_fingerprint(&mut fp);
        fp.finish()
    }

    /// Fold the matrix content into an existing fingerprint stream.
    pub fn fold_fingerprint(&self, fp: &mut hetsched_dag::Fingerprint) {
        fp.tag("etc");
        fp.push_usize(self.n_tasks);
        fp.push_usize(self.n_procs);
        fp.push_f64_slice(&self.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_dag::builder::dag_from_edges;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain(weights: &[f64]) -> Dag {
        let edges: Vec<(u32, u32, f64)> =
            (1..weights.len() as u32).map(|i| (i - 1, i, 1.0)).collect();
        dag_from_edges(weights, &edges).unwrap()
    }

    #[test]
    fn homogeneous_matrix() {
        let dag = chain(&[2.0, 3.0, 4.0]);
        let etc = EtcMatrix::homogeneous(&dag, 3);
        assert!(etc.is_homogeneous());
        assert!(etc.is_consistent());
        assert_eq!(etc.exec(TaskId(1), ProcId(2)), 3.0);
        assert_eq!(etc.mean_exec(TaskId(2)), 4.0);
        assert_eq!(etc.std_exec(TaskId(0)), 0.0);
        assert_eq!(etc.mean_row_cv(), 0.0);
    }

    #[test]
    fn from_speeds_is_consistent() {
        let dag = chain(&[6.0, 12.0]);
        let etc = EtcMatrix::from_speeds(&dag, &[1.0, 2.0, 3.0]);
        assert_eq!(etc.exec(TaskId(0), ProcId(0)), 6.0);
        assert_eq!(etc.exec(TaskId(0), ProcId(1)), 3.0);
        assert_eq!(etc.exec(TaskId(1), ProcId(2)), 4.0);
        assert!(etc.is_consistent());
        assert!(!etc.is_homogeneous());
        let (best, bp) = etc.min_exec(TaskId(0));
        assert_eq!((best, bp), (2.0, ProcId(2)));
        assert_eq!(etc.max_exec(TaskId(0)), 6.0);
    }

    #[test]
    fn range_based_respects_bounds_and_mean() {
        let dag = chain(&[10.0; 50]);
        let mut rng = StdRng::seed_from_u64(11);
        let etc = EtcMatrix::generate(&dag, 16, &EtcParams::range_based(1.0), &mut rng);
        for t in dag.task_ids() {
            for &v in etc.row(t) {
                assert!((5.0..15.0).contains(&v), "entry {v} out of range");
            }
        }
        // grand mean close to 10
        let grand: f64 = dag.task_ids().map(|t| etc.mean_exec(t)).sum::<f64>() / 50.0;
        assert!((grand - 10.0).abs() < 0.5, "grand mean {grand}");
    }

    #[test]
    fn beta_zero_is_exactly_homogeneous() {
        let dag = chain(&[3.0, 5.0]);
        let mut rng = StdRng::seed_from_u64(12);
        let etc = EtcMatrix::generate(&dag, 8, &EtcParams::range_based(0.0), &mut rng);
        assert!(etc.is_homogeneous());
        assert_eq!(etc.exec(TaskId(1), ProcId(7)), 5.0);
    }

    #[test]
    fn zero_weight_tasks_stay_zero() {
        let dag = chain(&[0.0, 5.0]);
        let mut rng = StdRng::seed_from_u64(13);
        for params in [EtcParams::range_based(1.0), EtcParams::cvb(0.5)] {
            let etc = EtcMatrix::generate(&dag, 4, &params, &mut rng);
            assert!(etc.row(TaskId(0)).iter().all(|&v| v == 0.0));
            assert!(etc.row(TaskId(1)).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn cvb_has_requested_spread() {
        let dag = chain(&[10.0; 200]);
        let mut rng = StdRng::seed_from_u64(14);
        let etc = EtcMatrix::generate(&dag, 32, &EtcParams::cvb(0.5), &mut rng);
        let cv = etc.mean_row_cv();
        assert!((cv - 0.5).abs() < 0.1, "mean row cv {cv}");
    }

    #[test]
    fn consistent_mode_sorts_rows() {
        let dag = chain(&[10.0; 30]);
        let mut rng = StdRng::seed_from_u64(15);
        let etc = EtcMatrix::generate(
            &dag,
            8,
            &EtcParams::range_based(1.0).with_consistency(Consistency::Consistent),
            &mut rng,
        );
        assert!(etc.is_consistent());
        for t in dag.task_ids() {
            let row = etc.row(t);
            assert!(row.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn partially_consistent_between_extremes() {
        let dag = chain(&[10.0; 100]);
        let mut rng = StdRng::seed_from_u64(16);
        let etc = EtcMatrix::generate(
            &dag,
            8,
            &EtcParams::range_based(1.0).with_consistency(Consistency::PartiallyConsistent(0.5)),
            &mut rng,
        );
        let sorted_rows = dag
            .task_ids()
            .filter(|&t| etc.row(t).windows(2).all(|w| w[0] <= w[1]))
            .count();
        assert!(
            (20..=80).contains(&sorted_rows),
            "roughly half the rows should be sorted, got {sorted_rows}"
        );
    }

    #[test]
    fn inconsistent_random_matrix_usually_is() {
        let dag = chain(&[10.0; 30]);
        let mut rng = StdRng::seed_from_u64(17);
        let etc = EtcMatrix::generate(&dag, 8, &EtcParams::range_based(1.0), &mut rng);
        assert!(!etc.is_consistent());
    }

    #[test]
    fn median_even_and_odd() {
        let dag = chain(&[1.0]);
        let etc = EtcMatrix::from_fn(1, 4, |_, p| (p.index() + 1) as f64); // 1,2,3,4
        assert_eq!(etc.median_exec(TaskId(0)), 2.5);
        let etc3 = EtcMatrix::from_fn(1, 3, |_, p| (p.index() + 1) as f64); // 1,2,3
        assert_eq!(etc3.median_exec(TaskId(0)), 2.0);
        let _ = dag;
    }

    #[test]
    fn set_exec_matches_a_fresh_build() {
        let mut rng = StdRng::seed_from_u64(19);
        let dag = chain(&[3.0, 7.0, 11.0]);
        let base = EtcMatrix::generate(&dag, 5, &EtcParams::range_based(1.2), &mut rng);
        let mut patched = base.clone();
        patched.set_exec(TaskId(1), ProcId(3), 0.1);
        patched.set_exec(TaskId(1), ProcId(0), 123.456);
        let fresh = EtcMatrix::from_fn(3, 5, |t, p| match (t.index(), p.index()) {
            (1, 3) => 0.1,
            (1, 0) => 123.456,
            _ => base.exec(t, p),
        });
        for t in dag.task_ids() {
            assert_eq!(patched.row(t), fresh.row(t));
            assert_eq!(patched.mean_exec(t).to_bits(), fresh.mean_exec(t).to_bits());
        }
        assert_eq!(patched.content_fingerprint(), fresh.content_fingerprint());
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn set_exec_rejects_negative_time() {
        let mut etc = EtcMatrix::homogeneous(&chain(&[1.0]), 2);
        etc.set_exec(TaskId(0), ProcId(1), -1.0);
    }

    #[test]
    #[should_panic(expected = "heterogeneity beta")]
    fn bad_beta_panics() {
        let dag = chain(&[1.0]);
        let mut rng = StdRng::seed_from_u64(18);
        EtcMatrix::generate(&dag, 2, &EtcParams::range_based(2.5), &mut rng);
    }
}
