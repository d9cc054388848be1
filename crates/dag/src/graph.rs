//! The [`Dag`] type: an immutable, validated task graph in CSR form.

use serde::{Deserialize, Serialize};

use crate::TaskId;

/// A directed edge of a task graph.
///
/// `data` is the volume of data task `src` sends to task `dst` (abstract
/// units; the platform model divides it by link bandwidth to get seconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Producing task.
    pub src: TaskId,
    /// Consuming task.
    pub dst: TaskId,
    /// Data volume transferred along this edge.
    pub data: f64,
}

/// An immutable task graph.
///
/// Construct one with [`crate::DagBuilder`]; every `Dag` built that way is
/// acyclic, has at least one task, only finite non-negative weights, and no
/// duplicate edges — the read API below can therefore never fail.
///
/// **Serde caveat:** the derived `Deserialize` restores fields verbatim and
/// does *not* re-validate these invariants; deserialize only data this
/// library serialized. For untrusted input use [`crate::io::DagSpec`],
/// which funnels through the validating builder.
///
/// Storage is CSR in both directions: `edges` is sorted by `(src, dst)` and
/// `succ_off` indexes it per source task; `pred_edges` lists edge indices
/// grouped by destination task under `pred_off`. Successor and predecessor
/// scans are contiguous.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dag {
    pub(crate) weights: Vec<f64>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) succ_off: Vec<u32>,
    pub(crate) pred_off: Vec<u32>,
    pub(crate) pred_edges: Vec<u32>,
    pub(crate) topo: Vec<TaskId>,
    pub(crate) entries: Vec<TaskId>,
    pub(crate) exits: Vec<TaskId>,
}

impl Dag {
    /// Number of tasks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.weights.len()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all task ids in index order (`t0, t1, ...`).
    pub fn task_ids(&self) -> impl ExactSizeIterator<Item = TaskId> + Clone {
        (0..self.weights.len() as u32).map(TaskId)
    }

    /// Computation weight (abstract work units) of `t`.
    ///
    /// # Panics
    /// Panics if `t` is out of range for this graph.
    #[inline]
    pub fn task_weight(&self, t: TaskId) -> f64 {
        self.weights[t.index()]
    }

    /// Sum of all task weights (the sequential work of the application).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// All edges, sorted by `(src, dst)`.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Outgoing edges of `t` as a contiguous slice.
    #[inline]
    pub fn out_edges(&self, t: TaskId) -> &[Edge] {
        &self.edges[self.out_edge_range(t)]
    }

    /// Indices into [`Dag::edges`] of `t`'s outgoing edges, in the order
    /// of [`Dag::out_edges`]. Per-edge tables indexed like
    /// [`Dag::edges`] are read through this.
    #[inline]
    pub fn out_edge_range(&self, t: TaskId) -> std::ops::Range<usize> {
        self.succ_off[t.index()] as usize..self.succ_off[t.index() + 1] as usize
    }

    /// Indices into [`Dag::edges`] of `t`'s incoming edges, in the order
    /// of [`Dag::in_edges`].
    #[inline]
    pub fn in_edge_ids(&self, t: TaskId) -> &[u32] {
        &self.pred_edges[self.pred_off[t.index()] as usize..self.pred_off[t.index() + 1] as usize]
    }

    /// Successors of `t` with the data volume on the connecting edge.
    pub fn successors(&self, t: TaskId) -> impl ExactSizeIterator<Item = (TaskId, f64)> + '_ {
        self.out_edges(t).iter().map(|e| (e.dst, e.data))
    }

    /// Incoming edges of `t` (as references into the shared edge table).
    pub fn in_edges(&self, t: TaskId) -> impl ExactSizeIterator<Item = &Edge> + '_ {
        self.in_edge_ids(t)
            .iter()
            .map(move |&i| &self.edges[i as usize])
    }

    /// Predecessors of `t` with the data volume on the connecting edge.
    pub fn predecessors(&self, t: TaskId) -> impl ExactSizeIterator<Item = (TaskId, f64)> + '_ {
        self.in_edges(t).map(|e| (e.src, e.data))
    }

    /// Number of outgoing edges of `t`.
    #[inline]
    pub fn out_degree(&self, t: TaskId) -> usize {
        (self.succ_off[t.index() + 1] - self.succ_off[t.index()]) as usize
    }

    /// Number of incoming edges of `t`.
    #[inline]
    pub fn in_degree(&self, t: TaskId) -> usize {
        (self.pred_off[t.index() + 1] - self.pred_off[t.index()]) as usize
    }

    /// Data volume of edge `(u, v)`, or `None` if the edge does not exist.
    ///
    /// Binary search over the sorted out-edge slice of `u`: `O(log deg(u))`.
    pub fn edge_data(&self, u: TaskId, v: TaskId) -> Option<f64> {
        let es = self.out_edges(u);
        es.binary_search_by_key(&v, |e| e.dst)
            .ok()
            .map(|i| es[i].data)
    }

    /// Whether edge `(u, v)` exists.
    pub fn has_edge(&self, u: TaskId, v: TaskId) -> bool {
        self.edge_data(u, v).is_some()
    }

    /// A topological order of the tasks, fixed at build time.
    ///
    /// The order is deterministic for a given builder input (Kahn's
    /// algorithm with a smallest-id-first tie-break), so downstream
    /// schedulers are reproducible.
    #[inline]
    pub fn topo_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Tasks with no predecessors, in id order.
    pub fn entry_tasks(&self) -> impl ExactSizeIterator<Item = TaskId> + '_ {
        self.entries.iter().copied()
    }

    /// Tasks with no successors, in id order.
    pub fn exit_tasks(&self) -> impl ExactSizeIterator<Item = TaskId> + '_ {
        self.exits.iter().copied()
    }

    /// Whether `t` has no predecessors.
    #[inline]
    pub fn is_entry(&self, t: TaskId) -> bool {
        self.in_degree(t) == 0
    }

    /// Whether `t` has no successors.
    #[inline]
    pub fn is_exit(&self, t: TaskId) -> bool {
        self.out_degree(t) == 0
    }

    /// Mean data volume over all edges (0 for an edge-less graph).
    pub fn mean_edge_data(&self) -> f64 {
        if self.edges.is_empty() {
            0.0
        } else {
            self.edges.iter().map(|e| e.data).sum::<f64>() / self.edges.len() as f64
        }
    }

    /// Mean task weight.
    pub fn mean_task_weight(&self) -> f64 {
        self.total_weight() / self.num_tasks() as f64
    }

    /// Communication-to-computation ratio of this graph: total edge data
    /// divided by total task weight. With unit-speed processors and
    /// unit-bandwidth links this is the classic CCR.
    pub fn ccr(&self) -> f64 {
        let w = self.total_weight();
        if w == 0.0 {
            0.0
        } else {
            self.edges.iter().map(|e| e.data).sum::<f64>() / w
        }
    }

    /// Stable 64-bit fingerprint of the graph's *content*: task weights and
    /// the sorted edge list with data volumes.
    ///
    /// Two `Dag`s built from the same task set and edge set always hash
    /// equal regardless of insertion order (the builder canonicalizes edges
    /// by `(src, dst)`), and any change to a weight, an edge endpoint, or an
    /// edge's data volume changes the digest. Derived CSR arrays are not
    /// hashed — they are functions of the edge list. The digest is stable
    /// across processes and platforms; see [`crate::fingerprint`].
    pub fn content_fingerprint(&self) -> u64 {
        let mut fp = crate::Fingerprint::new();
        self.fold_fingerprint(&mut fp);
        fp.finish()
    }

    /// Fold this graph's content into an existing [`crate::Fingerprint`]
    /// stream (used by callers that key on a DAG *plus* other request
    /// state, e.g. the scheduling service's memoization cache).
    pub fn fold_fingerprint(&self, fp: &mut crate::Fingerprint) {
        fp.tag("dag");
        fp.push_f64_slice(&self.weights);
        fp.push_usize(self.edges.len());
        for e in &self.edges {
            fp.push_u32(e.src.0);
            fp.push_u32(e.dst.0);
            fp.push_f64(e.data);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::DagBuilder;
    use crate::TaskId;

    /// Diamond: a -> b, a -> c, b -> d, c -> d.
    fn diamond() -> crate::Dag {
        let mut b = DagBuilder::new();
        let a = b.add_task(1.0);
        let t1 = b.add_task(2.0);
        let t2 = b.add_task(3.0);
        let d = b.add_task(4.0);
        b.add_edge(a, t1, 10.0).unwrap();
        b.add_edge(a, t2, 20.0).unwrap();
        b.add_edge(t1, d, 30.0).unwrap();
        b.add_edge(t2, d, 40.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.total_weight(), 10.0);
        assert_eq!(g.mean_task_weight(), 2.5);
        assert_eq!(g.mean_edge_data(), 25.0);
        assert_eq!(g.ccr(), 10.0);
    }

    #[test]
    fn adjacency() {
        let g = diamond();
        let (a, b, c, d) = (TaskId(0), TaskId(1), TaskId(2), TaskId(3));
        assert_eq!(
            g.successors(a).collect::<Vec<_>>(),
            vec![(b, 10.0), (c, 20.0)]
        );
        assert_eq!(
            g.predecessors(d).collect::<Vec<_>>(),
            vec![(b, 30.0), (c, 40.0)]
        );
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.out_degree(d), 0);
        assert_eq!(g.in_degree(a), 0);
    }

    #[test]
    fn edge_ids_index_the_edge_table_in_adjacency_order() {
        let g = diamond();
        for t in g.task_ids() {
            let out: Vec<_> = g.out_edge_range(t).map(|e| g.edges()[e]).collect();
            assert_eq!(out, g.out_edges(t));
            let inc: Vec<_> = g
                .in_edge_ids(t)
                .iter()
                .map(|&e| g.edges()[e as usize])
                .collect();
            assert_eq!(inc, g.in_edges(t).copied().collect::<Vec<_>>());
        }
        assert_eq!(g.out_edge_range(TaskId(3)), 4..4);
        assert_eq!(g.in_edge_ids(TaskId(3)), &[2, 3]);
    }

    #[test]
    fn edge_lookup() {
        let g = diamond();
        assert_eq!(g.edge_data(TaskId(0), TaskId(1)), Some(10.0));
        assert_eq!(g.edge_data(TaskId(1), TaskId(0)), None);
        assert!(g.has_edge(TaskId(2), TaskId(3)));
        assert!(!g.has_edge(TaskId(0), TaskId(3)));
    }

    #[test]
    fn entries_and_exits() {
        let g = diamond();
        assert_eq!(g.entry_tasks().collect::<Vec<_>>(), vec![TaskId(0)]);
        assert_eq!(g.exit_tasks().collect::<Vec<_>>(), vec![TaskId(3)]);
        assert!(g.is_entry(TaskId(0)));
        assert!(g.is_exit(TaskId(3)));
        assert!(!g.is_entry(TaskId(1)));
        assert!(!g.is_exit(TaskId(1)));
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let pos: Vec<usize> = {
            let mut pos = vec![0; g.num_tasks()];
            for (i, t) in g.topo_order().iter().enumerate() {
                pos[t.index()] = i;
            }
            pos
        };
        for e in g.edges() {
            assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
    }

    #[test]
    fn single_task_graph() {
        let mut b = DagBuilder::new();
        b.add_task(5.0);
        let g = b.build().unwrap();
        assert_eq!(g.num_tasks(), 1);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_entry(TaskId(0)) && g.is_exit(TaskId(0)));
        assert_eq!(g.ccr(), 0.0);
        assert_eq!(g.mean_edge_data(), 0.0);
    }

    #[test]
    fn dag_is_serializable() {
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<crate::Dag>();
        assert_serde::<crate::Edge>();
    }

    #[test]
    fn fingerprint_identical_graphs_hash_equal() {
        assert_eq!(
            diamond().content_fingerprint(),
            diamond().content_fingerprint()
        );
        // Insertion order does not matter: the builder canonicalizes edges.
        let mut b = DagBuilder::new();
        let a = b.add_task(1.0);
        let t1 = b.add_task(2.0);
        let t2 = b.add_task(3.0);
        let d = b.add_task(4.0);
        b.add_edge(t2, d, 40.0).unwrap();
        b.add_edge(t1, d, 30.0).unwrap();
        b.add_edge(a, t2, 20.0).unwrap();
        b.add_edge(a, t1, 10.0).unwrap();
        let reordered = b.build().unwrap();
        assert_eq!(
            reordered.content_fingerprint(),
            diamond().content_fingerprint()
        );
    }

    #[test]
    fn fingerprint_sees_every_content_change() {
        let base = diamond().content_fingerprint();

        // One task weight changed.
        let mut b = DagBuilder::new();
        let a = b.add_task(1.0);
        let t1 = b.add_task(2.5);
        let t2 = b.add_task(3.0);
        let d = b.add_task(4.0);
        b.add_edge(a, t1, 10.0).unwrap();
        b.add_edge(a, t2, 20.0).unwrap();
        b.add_edge(t1, d, 30.0).unwrap();
        b.add_edge(t2, d, 40.0).unwrap();
        assert_ne!(b.build().unwrap().content_fingerprint(), base);

        // One edge data volume changed.
        let mut b = DagBuilder::new();
        let a = b.add_task(1.0);
        let t1 = b.add_task(2.0);
        let t2 = b.add_task(3.0);
        let d = b.add_task(4.0);
        b.add_edge(a, t1, 10.0).unwrap();
        b.add_edge(a, t2, 20.0).unwrap();
        b.add_edge(t1, d, 30.5).unwrap();
        b.add_edge(t2, d, 40.0).unwrap();
        assert_ne!(b.build().unwrap().content_fingerprint(), base);

        // One edge rerouted.
        let mut b = DagBuilder::new();
        let a = b.add_task(1.0);
        let t1 = b.add_task(2.0);
        let t2 = b.add_task(3.0);
        let d = b.add_task(4.0);
        b.add_edge(a, t1, 10.0).unwrap();
        b.add_edge(a, t2, 20.0).unwrap();
        b.add_edge(t1, d, 30.0).unwrap();
        b.add_edge(t1, t2, 40.0).unwrap();
        assert_ne!(b.build().unwrap().content_fingerprint(), base);
    }
}
