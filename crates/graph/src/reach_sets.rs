//! Ancestor / descendant set computation over DAGs.
//!
//! The reachability equivalence relation of Section 3 groups nodes with
//! identical *proper* (non-empty-path) ancestor and descendant sets. Those
//! sets are computed here over a DAG — in practice the SCC condensation of
//! the data graph — one [`IdRows`] row per node, each in the encoding its
//! own length asks for (a short sorted list, or a bitmap once it holds
//! about `n/32` ids). One sweep per direction builds every row from its
//! neighbours' finished rows, so its cost follows the closure it holds,
//! whatever the size of the DAG. The same rows drive the transitive
//! reduction used by `compressR` and the AHO baseline, and their lengths
//! are the exact reachability counts that order the 2-hop landmarks.

use crate::csr::csr_from_grouped;
use crate::error::{GraphError, Result};
use crate::id_set::{IdRows, RowBuilder};
use crate::view::GraphView;

/// A DAG prepared for reachability-set sweeps, stored in compressed sparse
/// row form (contiguous offset/target arrays in both directions) plus a
/// topological order — the closure sweeps below are linear scans over
/// these slices.
#[derive(Clone, Debug)]
pub struct DagReach {
    out_offsets: Vec<u32>,
    out_targets: Vec<u32>,
    in_offsets: Vec<u32>,
    in_targets: Vec<u32>,
    /// Node indices in topological order (sources first).
    topo: Vec<u32>,
}

impl DagReach {
    /// Builds a `DagReach` from an explicit edge list over `n` nodes; the
    /// list is sorted and deduplicated, so duplicate edges are harmless.
    ///
    /// Returns [`GraphError::NotADag`] if the edges contain a cycle
    /// (self-loops included).
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Result<Self> {
        let mut list: Vec<(u32, u32)> = edges.into_iter().collect();
        list.sort_unstable();
        list.dedup();
        let (out_offsets, out_targets, in_offsets, in_targets) = csr_from_grouped(n, &list);
        let mut dag = DagReach {
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
            topo: Vec::new(),
        };
        dag.topo = kahn_topological_order(&dag)?;
        Ok(dag.nearest_first())
    }

    /// Adopts the CSR arrays of a condensation DAG whose node ids are a
    /// *reverse* topological order (Tarjan's numbering: every edge goes from
    /// a higher id to a lower one) — [`Condensation::of`](crate::scc::Condensation::of)
    /// builds its DAG through this, so a sweep over a condensation
    /// re-collects and re-sorts nothing but each out-row
    /// ([`Condensation::dag`](crate::scc::Condensation::dag)).
    pub(crate) fn from_reverse_topological_csr(
        (out_offsets, out_targets, in_offsets, in_targets): (
            Vec<u32>,
            Vec<u32>,
            Vec<u32>,
            Vec<u32>,
        ),
    ) -> Self {
        let n = out_offsets.len() - 1;
        let mut out_targets = out_targets;
        // Sources first is descending ids; the in-rows are ascending, sinks
        // first, already.
        for row in out_offsets.windows(2) {
            out_targets[row[0] as usize..row[1] as usize].sort_unstable_by(|a, b| b.cmp(a));
        }
        DagReach {
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
            topo: (0..n as u32).rev().collect(),
        }
    }

    /// Orders every row by topological position — children sources-first,
    /// parents sinks-first — so that a sweep meets a neighbour that another
    /// lies beyond before that other, which then comes already held. Two
    /// counting scatters, no sort: each edge is placed as its far end comes
    /// up in the order.
    fn nearest_first(mut self) -> Self {
        let mut out_targets = vec![0u32; self.out_targets.len()];
        let mut cursor = self.out_offsets[..self.node_count()].to_vec();
        for &t in &self.topo {
            for &s in self.inn(t) {
                out_targets[cursor[s as usize] as usize] = t;
                cursor[s as usize] += 1;
            }
        }
        let mut in_targets = vec![0u32; self.in_targets.len()];
        let mut cursor = self.in_offsets[..self.node_count()].to_vec();
        for &s in self.topo.iter().rev() {
            for &t in self.out(s) {
                in_targets[cursor[t as usize] as usize] = s;
                cursor[t as usize] += 1;
            }
        }
        (self.out_targets, self.in_targets) = (out_targets, in_targets);
        self
    }

    /// Builds a `DagReach` from a graph (any [`GraphView`]) that is assumed
    /// acyclic.
    ///
    /// Returns [`GraphError::NotADag`] if the graph has a cycle.
    pub fn from_dag_graph<G: GraphView>(g: &G) -> Result<Self> {
        let mut list: Vec<(u32, u32)> = Vec::with_capacity(g.edge_count());
        for u in g.nodes() {
            for &v in g.out_neighbors(u) {
                list.push((u.0, v.0));
            }
        }
        Self::from_edges(g.node_count(), list)
    }

    /// Number of nodes of the DAG.
    pub fn node_count(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of (distinct) edges of the DAG.
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-neighbours of `v`, in topological order.
    pub fn out(&self, v: u32) -> &[u32] {
        let i = v as usize;
        &self.out_targets[self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize]
    }

    /// In-neighbours of `v`, in reverse topological order.
    pub fn inn(&self, v: u32) -> &[u32] {
        let i = v as usize;
        &self.in_targets[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    /// The proper descendants of every node: row `v` holds `w` iff a
    /// non-empty path leads from `v` to `w`.
    pub fn descendants(&self) -> IdRows {
        // Children first: reverse topological order.
        self.closure(self.topo.iter().rev(), Self::out)
    }

    /// The proper ancestors of every node (the transpose of
    /// [`DagReach::descendants`]).
    pub fn ancestors(&self) -> IdRows {
        // Parents first: topological order.
        self.closure(self.topo.iter(), Self::inn)
    }

    /// One closure sweep: visits the nodes in `order` (every neighbour of a
    /// node before the node itself) and writes each node's row as the union
    /// of its neighbours' rows and the neighbours themselves.
    fn closure<'a>(
        &'a self,
        order: impl Iterator<Item = &'a u32>,
        neighbors: impl Fn(&'a Self, u32) -> &'a [u32],
    ) -> IdRows {
        let n = self.node_count();
        let mut rows = IdRows::new(n, n);
        let mut row = RowBuilder::new(n);
        for &v in order {
            rows.set_union(v as usize, neighbors(self, v), &mut row);
        }
        rows
    }
}

/// Kahn topological sort over the CSR arrays; fails with
/// [`GraphError::NotADag`] on cycles.
fn kahn_topological_order(dag: &DagReach) -> Result<Vec<u32>> {
    let n = dag.node_count();
    let mut indeg: Vec<usize> = (0..n as u32).map(|v| dag.inn(v).len()).collect();
    let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for &w in dag.out(v) {
            indeg[w as usize] -= 1;
            if indeg[w as usize] == 0 {
                queue.push(w);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        Err(GraphError::NotADag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LabeledGraph;
    use crate::scc::Condensation;

    fn diamond_dag() -> DagReach {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        DagReach::from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn full_descendants_diamond() {
        let d = diamond_dag();
        let desc = d.descendants();
        assert_eq!(desc.row(0).iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(desc.row(1).iter().collect::<Vec<_>>(), vec![3]);
        assert_eq!(desc.len(3), 0);
        let anc = d.ancestors();
        assert_eq!(anc.row(3).iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(anc.len(0), 0);
    }

    #[test]
    fn cycle_is_rejected() {
        let err = DagReach::from_edges(2, vec![(0, 1), (1, 0)]);
        assert!(matches!(err, Err(GraphError::NotADag)));
        let err = DagReach::from_edges(1, vec![(0, 0)]);
        assert!(matches!(err, Err(GraphError::NotADag)));
    }

    #[test]
    fn from_condensation_reaches() {
        // cycle {0,1} -> 2 -> 3
        let mut g = LabeledGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node_with_label("X")).collect();
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[0]);
        g.add_edge(n[1], n[2]);
        g.add_edge(n[2], n[3]);
        let cond = Condensation::of(&g);
        let dag = cond.dag();
        assert_eq!(dag.node_count(), 3);
        let c01 = cond.component_of(n[0]);
        let c3 = cond.component_of(n[3]);
        let desc = dag.descendants();
        assert!(desc.row(c01 as usize).contains(c3));
        assert!(!desc.row(c3 as usize).contains(c01));
    }

    #[test]
    fn dag_from_graph() {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        let b = g.add_node_with_label("B");
        g.add_edge(a, b);
        assert!(DagReach::from_dag_graph(&g).is_ok());
        g.add_edge(b, a);
        assert!(DagReach::from_dag_graph(&g).is_err());
    }

    #[test]
    fn empty_dag() {
        let d = DagReach::from_edges(0, vec![]).unwrap();
        assert_eq!(d.node_count(), 0);
        assert_eq!(d.descendants().rows(), 0);
    }
}
