//! Ancestor / descendant set computation over DAGs.
//!
//! The reachability equivalence relation of Section 3 groups nodes with
//! identical *proper* (non-empty-path) ancestor and descendant sets. Those
//! sets are computed here over a DAG — in practice the SCC condensation of
//! the data graph — as packed bit rows, in column *chunks* so that memory
//! stays bounded (`O(n · chunk / 8)` bytes) no matter how large the DAG is.
//! The same machinery drives the transitive reduction used by `compressR`
//! and the AHO baseline, and the exact reachability counts
//! ([`ReachCounts`]) that order the 2-hop landmarks.

use std::ops::Range;

use crate::bitset::BitMatrix;
use crate::csr::csr_from_grouped;
use crate::error::{GraphError, Result};
use crate::scc::Condensation;
use crate::view::GraphView;

/// Default number of bit-set columns processed per chunk.
pub const DEFAULT_CHUNK: usize = 4096;

/// A DAG prepared for reachability-set sweeps, stored in compressed sparse
/// row form (contiguous offset/target arrays in both directions) plus a
/// topological order — the chunked closure sweeps below are linear scans
/// over these slices.
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
        Ok(dag)
    }

    /// Adopts the CSR arrays of a condensation DAG whose node ids are a
    /// *reverse* topological order (Tarjan's numbering: every edge goes from
    /// a higher id to a lower one) — [`Condensation::of`] builds its DAG
    /// through this, so a sweep over a condensation re-collects and
    /// re-sorts nothing ([`Condensation::dag`]). Rows keep the order the
    /// caller grouped them in; no sweep depends on ascending targets.
    pub(crate) fn from_reverse_topological_csr(
        (out_offsets, out_targets, in_offsets, in_targets): (
            Vec<u32>,
            Vec<u32>,
            Vec<u32>,
            Vec<u32>,
        ),
    ) -> Self {
        let n = out_offsets.len() - 1;
        DagReach {
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
            topo: (0..n as u32).rev().collect(),
        }
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

    /// Out-neighbours of `v` (ascending when built from an edge list; in
    /// discovery order for a condensation's DAG).
    pub fn out(&self, v: u32) -> &[u32] {
        let i = v as usize;
        &self.out_targets[self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize]
    }

    /// In-neighbours of `v` (sorted ascending).
    pub fn inn(&self, v: u32) -> &[u32] {
        let i = v as usize;
        &self.in_targets[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    /// The column ranges of a chunked sweep with the given chunk width.
    pub fn chunks(&self, chunk: usize) -> Vec<Range<usize>> {
        let n = self.node_count();
        let chunk = chunk.max(1);
        let mut ranges = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            ranges.push(start..end);
            start = end;
        }
        ranges
    }

    /// Computes, for every node `v`, the set of *column* nodes
    /// (`cols.start ..cols.end`) that are proper descendants of `v`
    /// (reachable via a non-empty path). Bit `j` of row `v` of the result
    /// corresponds to node `cols.start + j`.
    pub fn descendants_chunk(&self, cols: Range<usize>) -> BitMatrix {
        // Children first: reverse topological order.
        self.closure_chunk(cols, self.topo.iter().rev(), Self::out)
    }

    /// Computes, for every node `v`, the set of column nodes that are proper
    /// ancestors of `v`.
    pub fn ancestors_chunk(&self, cols: Range<usize>) -> BitMatrix {
        // Parents first: topological order.
        self.closure_chunk(cols, self.topo.iter(), Self::inn)
    }

    /// Full proper-descendant sets (one chunk covering every column). Only
    /// suitable for small DAGs; the chunked API should be preferred.
    pub fn full_descendants(&self) -> BitMatrix {
        self.descendants_chunk(0..self.node_count())
    }

    /// Full proper-ancestor sets.
    pub fn full_ancestors(&self) -> BitMatrix {
        self.ancestors_chunk(0..self.node_count())
    }

    /// One closure sweep: visits the nodes in `order` (every neighbour of a
    /// node before the node itself) and folds each neighbour's row, plus the
    /// neighbour's own column bit, into the node's row.
    fn closure_chunk<'a>(
        &'a self,
        cols: Range<usize>,
        order: impl Iterator<Item = &'a u32>,
        neighbors: impl Fn(&'a Self, u32) -> &'a [u32],
    ) -> BitMatrix {
        let mut sets = BitMatrix::new(self.node_count(), cols.len());
        for &v in order {
            for &w in neighbors(self, v) {
                sets.union_rows(v as usize, w as usize);
                if cols.contains(&(w as usize)) {
                    sets.insert(v as usize, w as usize - cols.start);
                }
            }
        }
        sets
    }

    /// Exact proper-descendant and proper-ancestor counts of every node,
    /// from one chunked descendants sweep of its own; node `c` counts as
    /// `weight(c)` original nodes (a condensation passes its member counts,
    /// a plain DAG `|_| 1`).
    pub fn reach_counts(&self, chunk: usize, weight: impl Fn(u32) -> u64) -> ReachCounts {
        let mut counts = ReachCounts::new(self.node_count());
        for cols in self.chunks(chunk) {
            counts.absorb(&cols, &self.descendants_chunk(cols.clone()), &weight);
        }
        counts
    }
}

/// How many nodes each DAG node reaches and is reached by (proper, i.e.
/// non-empty paths) — the `|desc|` and `|anc|` behind the 2-hop landmark
/// coverage score and the update generators' cone caps.
///
/// Both vectors come out of **descendant** rows alone: a node's descendant
/// weight is the weight of its row's set bits, and column `c`'s set bits —
/// the rows that reach `c` — are `c`'s ancestors. A sweep that already
/// computes descendant rows for another reason (the transitive reduction)
/// therefore feeds [`ReachCounts::absorb`] chunk by chunk and pays for no
/// closure of its own. (A caller that holds the *whole* closure — both
/// full matrices of a DAG that fits one chunk — needs neither this type
/// nor the per-bit loop: the counts are [`BitMatrix::count_ones`] of its
/// rows.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReachCounts {
    /// `descendants[v]` — total weight of the proper descendants of `v`.
    pub descendants: Vec<u64>,
    /// `ancestors[v]` — total weight of the proper ancestors of `v`.
    pub ancestors: Vec<u64>,
}

impl ReachCounts {
    /// All-zero counts for a DAG of `n` nodes.
    pub fn new(n: usize) -> Self {
        ReachCounts {
            descendants: vec![0; n],
            ancestors: vec![0; n],
        }
    }

    /// Adds what the descendant rows `desc` of the column chunk `cols` say:
    /// after every chunk of a sweep has been absorbed once the counts are
    /// exact, whatever the chunk width.
    pub fn absorb(&mut self, cols: &Range<usize>, desc: &BitMatrix, weight: impl Fn(u32) -> u64) {
        for v in 0..desc.rows() {
            let own = weight(v as u32);
            let mut below = 0u64;
            for j in desc.ones(v) {
                let c = cols.start + j;
                below += weight(c as u32);
                self.ancestors[c] += own;
            }
            self.descendants[v] += below;
        }
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

/// Node-level proper ancestor/descendant sets of an arbitrary (possibly
/// cyclic) graph, computed through its condensation.
///
/// This is a convenience for tests and small graphs: it returns one row
/// per node, with bits over *node* ids (not SCC ids). Row `v` of the
/// descendant matrix holds `w` iff there is a non-empty path from `v` to
/// `w`.
pub fn node_closures<G: GraphView>(g: &G) -> (BitMatrix, BitMatrix) {
    let n = g.node_count();
    let cond = Condensation::of(g);
    let scc_desc = cond.dag().full_descendants();
    let scc_anc = cond.dag().full_ancestors();

    let mut desc = BitMatrix::new(n, n);
    let mut anc = BitMatrix::new(n, n);
    for v in g.nodes() {
        let c = cond.component_of(v);
        let cyclic = cond.is_cyclic(c, g);
        // Descendants: members of every SCC-descendant, plus own SCC members
        // when the SCC is cyclic.
        for cd in scc_desc.ones(c as usize) {
            for &w in cond.members(cd as u32) {
                desc.insert(v.index(), w.index());
            }
        }
        for ca in scc_anc.ones(c as usize) {
            for &w in cond.members(ca as u32) {
                anc.insert(v.index(), w.index());
            }
        }
        if cyclic {
            for &w in cond.members(c) {
                desc.insert(v.index(), w.index());
                anc.insert(v.index(), w.index());
            }
        }
    }
    (desc, anc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LabeledGraph;
    use crate::traversal;

    fn diamond_dag() -> DagReach {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        DagReach::from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn full_descendants_diamond() {
        let d = diamond_dag();
        let desc = d.full_descendants();
        assert_eq!(desc.ones(0).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(desc.ones(1).collect::<Vec<_>>(), vec![3]);
        assert_eq!(desc.count_ones(3), 0);
        let anc = d.full_ancestors();
        assert_eq!(anc.ones(3).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(anc.count_ones(0), 0);
    }

    #[test]
    fn chunked_equals_full() {
        let d = diamond_dag();
        let full = d.full_descendants();
        for chunk in d.chunks(2) {
            let part = d.descendants_chunk(chunk.clone());
            for v in 0..4usize {
                for j in 0..chunk.len() {
                    assert_eq!(
                        part.contains(v, j),
                        full.contains(v, chunk.start + j),
                        "mismatch v={v} col={}",
                        chunk.start + j
                    );
                }
            }
        }
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
        let desc = dag.full_descendants();
        assert!(desc.contains(c01 as usize, c3 as usize));
        assert!(!desc.contains(c3 as usize, c01 as usize));
    }

    #[test]
    fn node_closures_match_traversal() {
        let mut g = LabeledGraph::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node_with_label("X")).collect();
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[2]);
        g.add_edge(n[2], n[0]); // cycle 0-1-2
        g.add_edge(n[2], n[3]);
        g.add_edge(n[4], n[3]);
        // n[5] isolated
        let (desc, anc) = node_closures(&g);
        for &u in &n {
            let via_bfs: Vec<usize> = traversal::descendants(&g, u)
                .into_iter()
                .map(|x| x.index())
                .collect();
            let mut via_sets: Vec<usize> = desc.ones(u.index()).collect();
            via_sets.sort();
            let mut expected = via_bfs.clone();
            expected.sort();
            assert_eq!(via_sets, expected, "descendants of {u}");

            let via_bfs_a: Vec<usize> = traversal::ancestors(&g, u)
                .into_iter()
                .map(|x| x.index())
                .collect();
            let mut via_sets_a: Vec<usize> = anc.ones(u.index()).collect();
            via_sets_a.sort();
            let mut expected_a = via_bfs_a.clone();
            expected_a.sort();
            assert_eq!(via_sets_a, expected_a, "ancestors of {u}");
        }
    }

    #[test]
    fn chunks_cover_everything() {
        let d = DagReach::from_edges(10, vec![(0, 1)]).unwrap();
        let chunks = d.chunks(3);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0], 0..3);
        assert_eq!(chunks[3], 9..10);
        assert!(d.chunks(100).len() == 1);
        assert!(DagReach::from_edges(0, vec![])
            .unwrap()
            .chunks(5)
            .is_empty());
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
        assert_eq!(d.full_descendants().rows(), 0);
    }
}
