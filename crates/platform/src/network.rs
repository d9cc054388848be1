//! Interconnect model: per-processor-pair startup latency and bandwidth.
//!
//! The communication time of `data` units from processor `p` to `q` is
//!
//! ```text
//! comm(data, p, q) = 0                                    if p == q
//!                  = startup(p, q) + data / bandwidth(p, q)  otherwise
//! ```
//!
//! which is the standard linear (latency + inverse-bandwidth) model of the
//! HEFT-era literature. Topology constructors scale the base link cost by
//! hop count, so a ring or mesh penalizes distant pairs without a separate
//! routing simulation (static schedulers only ever consume pairwise costs).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::ProcId;

/// Interconnect topologies with closed-form hop counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// Every pair one hop apart (the default of the literature).
    FullyConnected,
    /// Shared bus: one hop, but see [`Network::bus`] for the contention
    /// caveat; statically we model it as uniform one-hop.
    Bus,
    /// Bidirectional ring: hop count is the shorter way around.
    Ring,
    /// 2-D mesh with the given dimensions (`rows * cols` must equal the
    /// processor count); hop count is the Manhattan distance.
    Mesh2D {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Star: all traffic relays through hub processor 0; hop count is 1 for
    /// pairs containing the hub, 2 otherwise.
    Star,
}

impl Topology {
    /// Hop distance between processors `a` and `b` (0 when equal).
    ///
    /// # Panics
    /// Panics for [`Topology::Mesh2D`] if `rows * cols != n`.
    pub fn hops(&self, n: usize, a: usize, b: usize) -> usize {
        if a == b {
            return 0;
        }
        match *self {
            Topology::FullyConnected | Topology::Bus => 1,
            Topology::Ring => {
                let d = a.abs_diff(b);
                d.min(n - d)
            }
            Topology::Mesh2D { rows, cols } => {
                assert_eq!(rows * cols, n, "mesh dimensions must cover all processors");
                let (ra, ca) = (a / cols, a % cols);
                let (rb, cb) = (b / cols, b % cols);
                ra.abs_diff(rb) + ca.abs_diff(cb)
            }
            Topology::Star => {
                if a == 0 || b == 0 {
                    1
                } else {
                    2
                }
            }
        }
    }
}

/// Pairwise communication-cost model over `n` processors.
///
/// Stored as two dense `n × n` matrices (startup seconds and inverse
/// bandwidth seconds-per-unit); diagonals are zero. Matrices are not
/// required to be symmetric, though every constructor here produces
/// symmetric networks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    n: usize,
    startup: Vec<f64>,
    inv_bw: Vec<f64>,
}

impl Network {
    /// Uniform network: every distinct pair has the same `startup` and
    /// `bandwidth`.
    ///
    /// # Panics
    /// Panics if `n == 0`, `startup < 0`, or `bandwidth <= 0`.
    pub fn uniform(n: usize, startup: f64, bandwidth: f64) -> Self {
        Self::with_topology(n, Topology::FullyConnected, startup, bandwidth)
    }

    /// Zero-latency, unit-bandwidth network — communication time equals the
    /// edge data volume. The default of abstract scheduling experiments.
    pub fn unit(n: usize) -> Self {
        Self::uniform(n, 0.0, 1.0)
    }

    /// Network derived from a `topology`: per-hop cost is
    /// `startup + data/bandwidth`, and a `k`-hop pair costs `k` times the
    /// one-hop cost (store-and-forward routing).
    ///
    /// # Panics
    /// Panics if `n == 0`, `startup < 0`, `bandwidth <= 0`, or mesh
    /// dimensions do not match `n`.
    pub fn with_topology(n: usize, topology: Topology, startup: f64, bandwidth: f64) -> Self {
        assert!(n > 0, "network needs at least one processor");
        assert!(
            startup.is_finite() && startup >= 0.0,
            "startup must be finite and >= 0"
        );
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "bandwidth must be finite and > 0"
        );
        let mut startup_m = vec![0.0; n * n];
        let mut inv_bw_m = vec![0.0; n * n];
        for a in 0..n {
            for b in 0..n {
                let h = topology.hops(n, a, b) as f64;
                startup_m[a * n + b] = h * startup;
                inv_bw_m[a * n + b] = h / bandwidth;
            }
        }
        Network {
            n,
            startup: startup_m,
            inv_bw: inv_bw_m,
        }
    }

    /// Heterogeneous network: per-pair startup and bandwidth drawn uniformly
    /// from the given inclusive ranges; symmetric (`cost(p,q) == cost(q,p)`).
    ///
    /// # Panics
    /// Panics if `n == 0` or a range is invalid (empty, negative startup,
    /// non-positive bandwidth).
    pub fn heterogeneous_random<R: Rng + ?Sized>(
        n: usize,
        startup_range: (f64, f64),
        bandwidth_range: (f64, f64),
        rng: &mut R,
    ) -> Self {
        assert!(n > 0, "network needs at least one processor");
        assert!(
            startup_range.0 >= 0.0 && startup_range.0 <= startup_range.1,
            "invalid startup range"
        );
        assert!(
            bandwidth_range.0 > 0.0 && bandwidth_range.0 <= bandwidth_range.1,
            "invalid bandwidth range"
        );
        let mut startup = vec![0.0; n * n];
        let mut inv_bw = vec![0.0; n * n];
        for a in 0..n {
            for b in (a + 1)..n {
                let s = rng.gen_range(startup_range.0..=startup_range.1);
                let bw = rng.gen_range(bandwidth_range.0..=bandwidth_range.1);
                startup[a * n + b] = s;
                startup[b * n + a] = s;
                inv_bw[a * n + b] = 1.0 / bw;
                inv_bw[b * n + a] = 1.0 / bw;
            }
        }
        Network { n, startup, inv_bw }
    }

    /// The network restricted to every processor except `removed`: the
    /// surviving rows and columns are copied verbatim, so any pair of
    /// surviving processors keeps exactly its old link costs (what the
    /// processor-removal delta needs for bit-identical rescheduling).
    ///
    /// # Panics
    /// Panics if `removed` is out of range or this is the last processor.
    pub fn without_proc(&self, removed: ProcId) -> Self {
        let r = removed.index();
        assert!(r < self.n, "processor {r} out of range (n = {})", self.n);
        assert!(self.n > 1, "cannot remove the last processor");
        let m = self.n - 1;
        let mut startup = Vec::with_capacity(m * m);
        let mut inv_bw = Vec::with_capacity(m * m);
        for a in (0..self.n).filter(|&a| a != r) {
            for b in (0..self.n).filter(|&b| b != r) {
                startup.push(self.startup[a * self.n + b]);
                inv_bw.push(self.inv_bw[a * self.n + b]);
            }
        }
        Network {
            n: m,
            startup,
            inv_bw,
        }
    }

    /// Number of processors this network connects.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.n
    }

    /// Communication time for `data` units from `p` to `q` (0 if `p == q`).
    #[inline]
    pub fn comm_time(&self, data: f64, p: ProcId, q: ProcId) -> f64 {
        let i = p.index() * self.n + q.index();
        // diagonal entries are zero, so co-located communication is free
        self.startup[i] + data * self.inv_bw[i]
    }

    /// Startup latency of the `p -> q` link.
    #[inline]
    pub fn startup(&self, p: ProcId, q: ProcId) -> f64 {
        self.startup[p.index() * self.n + q.index()]
    }

    /// Contiguous outgoing link-cost rows for source processor `src`:
    /// `(startup_row, inv_bw_row)`, each of length `num_procs()`, indexed by
    /// destination. `comm_time(data, src, q)` equals
    /// `startup_row[q] + data * inv_bw_row[q]` term for term, so hot loops
    /// that fan a single transfer out to every destination can run on flat
    /// slices instead of recomputing the matrix index per pair.
    #[inline]
    pub fn link_rows(&self, src: ProcId) -> (&[f64], &[f64]) {
        let base = src.index() * self.n;
        (
            &self.startup[base..base + self.n],
            &self.inv_bw[base..base + self.n],
        )
    }

    /// Mean communication time of `data` units over all ordered pairs of
    /// *distinct* processors. This is the `c̄` used by mean-based ranks
    /// (HEFT). Returns 0 for a single-processor network.
    pub fn mean_comm_time(&self, data: f64) -> f64 {
        if self.n <= 1 {
            return 0.0;
        }
        let mut acc = 0.0;
        for a in 0..self.n {
            for b in 0..self.n {
                if a != b {
                    acc += self.startup[a * self.n + b] + data * self.inv_bw[a * self.n + b];
                }
            }
        }
        acc / (self.n * (self.n - 1)) as f64
    }

    /// [`Network::mean_comm_time`] of every volume in `data`, written to
    /// the matching slot of `out`, each bit-identical to the scalar call.
    ///
    /// Eight volumes run the scalar's exact fold in lockstep, so their
    /// independent add chains overlap instead of each waiting on its own
    /// previous add; the remainder takes the scalar path.
    ///
    /// # Panics
    /// Panics if `data` and `out` differ in length.
    pub fn mean_comm_times(&self, data: &[f64], out: &mut [f64]) {
        const LANES: usize = 8;
        assert_eq!(data.len(), out.len(), "one output slot per volume");
        if self.n <= 1 {
            out.fill(0.0);
            return;
        }
        let pairs = (self.n * (self.n - 1)) as f64;
        // the distinct ordered pairs' links, in the scalar fold's order
        let links: Vec<(f64, f64)> = (0..self.n * self.n)
            .filter(|i| i / self.n != i % self.n)
            .map(|i| (self.startup[i], self.inv_bw[i]))
            .collect();
        let mut volumes = data.chunks_exact(LANES);
        let mut slots = out.chunks_exact_mut(LANES);
        for (vol, slot) in (&mut volumes).zip(&mut slots) {
            let mut acc = [0.0f64; LANES];
            for &(su, ib) in &links {
                for (acc, &v) in acc.iter_mut().zip(vol) {
                    *acc += su + v * ib;
                }
            }
            for (s, acc) in slot.iter_mut().zip(acc) {
                *s = acc / pairs;
            }
        }
        for (s, &v) in slots.into_remainder().iter_mut().zip(volumes.remainder()) {
            *s = self.mean_comm_time(v);
        }
    }

    /// Mean startup latency over distinct ordered pairs.
    pub fn mean_startup(&self) -> f64 {
        if self.n <= 1 {
            return 0.0;
        }
        let mut acc = 0.0;
        for a in 0..self.n {
            for b in 0..self.n {
                if a != b {
                    acc += self.startup[a * self.n + b];
                }
            }
        }
        acc / (self.n * (self.n - 1)) as f64
    }

    /// Mean of `1/bandwidth` over distinct ordered pairs (seconds per data
    /// unit, excluding startup).
    pub fn mean_inv_bandwidth(&self) -> f64 {
        if self.n <= 1 {
            return 0.0;
        }
        let mut acc = 0.0;
        for a in 0..self.n {
            for b in 0..self.n {
                if a != b {
                    acc += self.inv_bw[a * self.n + b];
                }
            }
        }
        acc / (self.n * (self.n - 1)) as f64
    }

    /// Stable 64-bit fingerprint of the network content (processor count
    /// plus both cost matrices). See [`hetsched_dag::fingerprint`].
    pub fn content_fingerprint(&self) -> u64 {
        let mut fp = hetsched_dag::Fingerprint::new();
        self.fold_fingerprint(&mut fp);
        fp.finish()
    }

    /// Fold the network content into an existing fingerprint stream.
    pub fn fold_fingerprint(&self, fp: &mut hetsched_dag::Fingerprint) {
        fp.tag("network");
        fp.push_usize(self.n);
        fp.push_f64_slice(&self.startup);
        fp.push_f64_slice(&self.inv_bw);
    }

    /// A shared-bus network of `n` processors (alias for the `Bus`
    /// topology; statically identical to uniform one-hop).
    pub fn bus(n: usize, startup: f64, bandwidth: f64) -> Self {
        Self::with_topology(n, Topology::Bus, startup, bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn without_proc_keeps_surviving_links_bit_identical() {
        let mut rng = StdRng::seed_from_u64(23);
        let net = Network::heterogeneous_random(5, (0.1, 0.9), (1.0, 4.0), &mut rng);
        let sub = net.without_proc(ProcId(2));
        assert_eq!(sub.num_procs(), 4);
        // Surviving processors, in order, map old ids {0, 1, 3, 4} onto
        // new ids {0, 1, 2, 3}.
        let old = [0u32, 1, 3, 4];
        for (np, &op) in old.iter().enumerate() {
            for (nq, &oq) in old.iter().enumerate() {
                let a = sub.comm_time(3.5, ProcId(np as u32), ProcId(nq as u32));
                let b = net.comm_time(3.5, ProcId(op), ProcId(oq));
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn link_rows_match_comm_time() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = Network::heterogeneous_random(5, (0.1, 0.9), (1.0, 4.0), &mut rng);
        for p in 0..5u32 {
            let (su, ib) = net.link_rows(ProcId(p));
            assert_eq!(su.len(), 5);
            assert_eq!(ib.len(), 5);
            for q in 0..5u32 {
                let via_rows = su[q as usize] + 8.0 * ib[q as usize];
                assert_eq!(via_rows, net.comm_time(8.0, ProcId(p), ProcId(q)));
            }
        }
    }

    #[test]
    fn uniform_costs() {
        let net = Network::uniform(3, 2.0, 4.0);
        let (p0, p1) = (ProcId(0), ProcId(1));
        assert_eq!(net.comm_time(8.0, p0, p1), 2.0 + 8.0 / 4.0);
        assert_eq!(net.comm_time(8.0, p0, p0), 0.0);
        assert_eq!(net.mean_comm_time(8.0), 4.0);
        assert_eq!(net.mean_startup(), 2.0);
        assert!((net.mean_inv_bandwidth() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn unit_network_is_data_volume() {
        let net = Network::unit(4);
        assert_eq!(net.comm_time(7.5, ProcId(0), ProcId(3)), 7.5);
        assert_eq!(net.mean_comm_time(7.5), 7.5);
    }

    #[test]
    fn single_proc_network_all_zero() {
        let net = Network::unit(1);
        assert_eq!(net.comm_time(100.0, ProcId(0), ProcId(0)), 0.0);
        assert_eq!(net.mean_comm_time(100.0), 0.0);
    }

    #[test]
    fn ring_hops() {
        let t = Topology::Ring;
        assert_eq!(t.hops(6, 0, 1), 1);
        assert_eq!(t.hops(6, 0, 3), 3);
        assert_eq!(t.hops(6, 0, 5), 1, "wraps the short way");
        assert_eq!(t.hops(6, 2, 2), 0);
    }

    #[test]
    fn mesh_hops_manhattan() {
        let t = Topology::Mesh2D { rows: 2, cols: 3 };
        // layout: 0 1 2 / 3 4 5
        assert_eq!(t.hops(6, 0, 5), 3);
        assert_eq!(t.hops(6, 1, 4), 1);
        assert_eq!(t.hops(6, 0, 2), 2);
    }

    #[test]
    #[should_panic(expected = "mesh dimensions")]
    fn mesh_dimension_mismatch_panics() {
        Topology::Mesh2D { rows: 2, cols: 2 }.hops(6, 0, 1);
    }

    #[test]
    fn star_hops() {
        let t = Topology::Star;
        assert_eq!(t.hops(5, 0, 4), 1);
        assert_eq!(t.hops(5, 2, 4), 2);
    }

    #[test]
    fn topology_scales_cost_by_hops() {
        let net = Network::with_topology(6, Topology::Ring, 1.0, 2.0);
        let one_hop = net.comm_time(4.0, ProcId(0), ProcId(1));
        let three_hop = net.comm_time(4.0, ProcId(0), ProcId(3));
        assert_eq!(one_hop, 1.0 + 2.0);
        assert_eq!(three_hop, 3.0 * one_hop);
    }

    #[test]
    fn heterogeneous_is_symmetric_and_in_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let net = Network::heterogeneous_random(5, (0.5, 1.5), (2.0, 8.0), &mut rng);
        for a in 0..5u32 {
            for b in 0..5u32 {
                let (p, q) = (ProcId(a), ProcId(b));
                assert_eq!(net.comm_time(3.0, p, q), net.comm_time(3.0, q, p));
                if a != b {
                    let s = net.startup(p, q);
                    assert!((0.5..=1.5).contains(&s), "startup {s}");
                    let t = net.comm_time(1.0, p, q) - s; // = 1/bw
                    assert!((1.0 / 8.0..=1.0 / 2.0).contains(&t), "inv bw {t}");
                } else {
                    assert_eq!(net.comm_time(3.0, p, q), 0.0);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bandwidth must be finite and > 0")]
    fn zero_bandwidth_rejected() {
        Network::uniform(2, 0.0, 0.0);
    }
}
