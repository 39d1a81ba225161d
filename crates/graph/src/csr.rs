//! Immutable compressed-sparse-row snapshot of a labeled graph.
//!
//! ## When to freeze, when to stay mutable
//!
//! Every batch algorithm in the system — reachability equivalence,
//! bisimulation quotienting, simulation matching, the reachability-set
//! sweeps — is a read-only whole-graph pass. For those, freeze once with
//! [`LabeledGraph::freeze`] (or build directly with
//! [`CsrGraph::from_edges`]) and run on the snapshot: adjacency lives in two
//! contiguous offset/target arrays per direction, so the sweeps are linear
//! cache-friendly scans, and the per-node `Vec` headers of the mutable
//! representation disappear (≈3× less heap on sparse graphs — compare
//! [`CsrGraph::heap_bytes`] with [`LabeledGraph::heap_bytes`]).
//!
//! Keep using the mutable [`LabeledGraph`] for anything that edits edges —
//! the incremental maintenance algorithms, the evolution experiments, the
//! builders. A `CsrGraph` is never mutated; re-freeze after a batch of
//! updates if the batch algorithms need to run again.
//!
//! Adjacency in a `CsrGraph` is always **sorted** (by node id, per source
//! for out-edges and per target for in-edges), which makes edge lookups a
//! binary search and edge iteration deterministic regardless of insertion
//! order.
//!
//! [`LabeledGraph::freeze`]: crate::graph::LabeledGraph::freeze
//! [`LabeledGraph::heap_bytes`]: crate::graph::LabeledGraph::heap_bytes

use crate::graph::LabeledGraph;
use crate::ids::{Label, LabelInterner, NodeId};
use crate::view::GraphView;

/// A read-only CSR snapshot with both forward and reverse adjacency, node
/// labels, and the label interner of the graph it was built from.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    labels: Vec<Label>,
    out_offsets: Vec<u32>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<u32>,
    in_targets: Vec<NodeId>,
    interner: LabelInterner,
}

/// Builds CSR offset/target arrays (both directions) from an edge list that
/// is already grouped by ascending source and deduplicated. Shared by the
/// graph-level builders here and the condensation/DAG builders in
/// [`crate::scc`] and [`crate::reach_sets`], so the count → prefix-sum →
/// scatter pattern lives in one place.
pub(crate) fn csr_from_grouped(
    n: usize,
    list: &[(u32, u32)],
) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
    let m = list.len();
    let mut out_offsets = vec![0u32; n + 1];
    let mut in_offsets = vec![0u32; n + 1];
    for &(u, v) in list {
        out_offsets[u as usize + 1] += 1;
        in_offsets[v as usize + 1] += 1;
    }
    for i in 0..n {
        out_offsets[i + 1] += out_offsets[i];
        in_offsets[i + 1] += in_offsets[i];
    }
    // Grouped by source: the forward targets are just the second column,
    // and a counting pass scatters the reverse direction (each in-list ends
    // up sorted by source because sources arrive in ascending order).
    let out_targets: Vec<u32> = list.iter().map(|&(_, v)| v).collect();
    let mut cursor: Vec<u32> = in_offsets[..n].to_vec();
    let mut in_targets = vec![0u32; m];
    for &(u, v) in list {
        let c = &mut cursor[v as usize];
        in_targets[*c as usize] = u;
        *c += 1;
    }
    (out_offsets, out_targets, in_offsets, in_targets)
}

impl CsrGraph {
    /// Builds a CSR snapshot of `g`. Equivalent to
    /// [`LabeledGraph::freeze`](crate::graph::LabeledGraph::freeze).
    ///
    /// `LabeledGraph` adjacency is already deduplicated and grouped per
    /// node, so only each (typically short) out-list needs sorting — no
    /// global `O(m log m)` edge-list sort and no 8-byte-per-edge temporary.
    pub fn from_graph(g: &LabeledGraph) -> Self {
        let n = g.node_count();
        let m = g.edge_count();
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_targets: Vec<NodeId> = Vec::with_capacity(m);
        let mut in_offsets = vec![0u32; n + 1];
        out_offsets.push(0);
        for v in g.nodes() {
            let start = out_targets.len();
            out_targets.extend_from_slice(g.out_neighbors(v));
            out_targets[start..].sort_unstable();
            out_offsets.push(out_targets.len() as u32);
            for &w in g.out_neighbors(v) {
                in_offsets[w.index() + 1] += 1;
            }
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor: Vec<u32> = in_offsets[..n].to_vec();
        let mut in_targets = vec![NodeId(0); m];
        for u in g.nodes() {
            // Iterate the sorted forward lists so each in-list comes out
            // sorted by source.
            let lo = out_offsets[u.index()] as usize;
            let hi = out_offsets[u.index() + 1] as usize;
            for &v in &out_targets[lo..hi] {
                let c = &mut cursor[v.index()];
                in_targets[*c as usize] = u;
                *c += 1;
            }
        }
        CsrGraph {
            labels: g.labels().to_vec(),
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
            interner: g.interner().clone(),
        }
    }

    /// Builds a CSR graph over `labels.len()` nodes directly from an edge
    /// list — the bulk-load path that avoids the per-insert duplicate scan
    /// of [`LabeledGraph::add_edge`](crate::graph::LabeledGraph::add_edge).
    /// Edges are bucketed by source in one counting pass and each (short)
    /// row is sorted and deduplicated where it lies, so the load is
    /// `O(n + m)` plus the row sorts, with no global `O(m log m)` sort.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of bounds.
    pub fn from_edges(
        labels: Vec<Label>,
        interner: LabelInterner,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Self {
        let n = labels.len();
        let list: Vec<(NodeId, NodeId)> = edges.into_iter().collect();
        let mut out_offsets = vec![0u32; n + 1];
        for &(u, v) in &list {
            assert!(u.index() < n, "source {u} out of bounds");
            assert!(v.index() < n, "target {v} out of bounds");
            out_offsets[u.index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut cursor: Vec<u32> = out_offsets[..n].to_vec();
        let mut out_targets = vec![NodeId(0); list.len()];
        for &(u, v) in &list {
            let c = &mut cursor[u.index()];
            out_targets[*c as usize] = v;
            *c += 1;
        }

        // Sort every row and squeeze its duplicates out, closing the gaps
        // as the rows move down (`kept` trails the read position).
        let mut in_offsets = vec![0u32; n + 1];
        let mut kept = 0usize;
        let mut row_start = 0usize;
        for u in 0..n {
            let row_end = out_offsets[u + 1] as usize;
            out_targets[row_start..row_end].sort_unstable();
            out_offsets[u] = kept as u32;
            for i in row_start..row_end {
                let v = out_targets[i];
                if i == row_start || out_targets[i - 1] != v {
                    out_targets[kept] = v;
                    kept += 1;
                    in_offsets[v.index() + 1] += 1;
                }
            }
            row_start = row_end;
        }
        out_offsets[n] = kept as u32;
        out_targets.truncate(kept);

        // Sources arrive in ascending order, so a counting pass scatters
        // the reverse direction with each in-list already sorted.
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor: Vec<u32> = in_offsets[..n].to_vec();
        let mut in_targets = vec![NodeId(0); kept];
        for u in 0..n {
            for &v in &out_targets[out_offsets[u] as usize..out_offsets[u + 1] as usize] {
                let c = &mut cursor[v.index()];
                in_targets[*c as usize] = NodeId::new(u);
                *c += 1;
            }
        }

        CsrGraph {
            labels,
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
            interner,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Label of node `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> Label {
        self.labels[v.index()]
    }

    /// Label name of `v`, if its label was interned by name.
    pub fn label_name(&self, v: NodeId) -> Option<&str> {
        self.interner.name(self.labels[v.index()])
    }

    /// The label interner shared with the originating graph.
    pub fn interner(&self) -> &LabelInterner {
        &self.interner
    }

    /// All node labels, indexed by node id.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Out-neighbours of `v`, sorted ascending.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.out_targets[self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize]
    }

    /// In-neighbours of `v`, sorted ascending.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.in_targets[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_neighbors(v).len()
    }

    /// `true` if the edge `(u, v)` is present (binary search — adjacency is
    /// sorted).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u.index() < self.node_count() && self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterator over all edges as `(source, target)` pairs, sorted.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(|u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Approximate heap footprint in bytes (labels + both adjacency
    /// directions; the interner is excluded, matching what
    /// [`LabeledGraph::heap_bytes`](crate::graph::LabeledGraph::heap_bytes)
    /// counts).
    pub fn heap_bytes(&self) -> usize {
        self.labels.capacity() * std::mem::size_of::<Label>()
            + (self.out_offsets.capacity() + self.in_offsets.capacity())
                * std::mem::size_of::<u32>()
            + (self.out_targets.capacity() + self.in_targets.capacity())
                * std::mem::size_of::<NodeId>()
    }
}

impl GraphView for CsrGraph {
    fn node_count(&self) -> usize {
        CsrGraph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        CsrGraph::edge_count(self)
    }

    fn label(&self, v: NodeId) -> Label {
        CsrGraph::label(self, v)
    }

    fn label_name(&self, v: NodeId) -> Option<&str> {
        CsrGraph::label_name(self, v)
    }

    fn lookup_label(&self, name: &str) -> Option<Label> {
        self.interner.get(name)
    }

    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        CsrGraph::out_neighbors(self, v)
    }

    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        CsrGraph::in_neighbors(self, v)
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        CsrGraph::has_edge(self, u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (LabeledGraph, Vec<NodeId>) {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        let b = g.add_node_with_label("B");
        let c = g.add_node_with_label("C");
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, c);
        g.add_edge(c, a);
        (g, vec![a, b, c])
    }

    fn sorted(xs: &[NodeId]) -> Vec<NodeId> {
        let mut v = xs.to_vec();
        v.sort_unstable();
        v
    }

    #[test]
    fn csr_matches_adjacency() {
        let (g, n) = sample();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr.edge_count(), 4);
        assert_eq!(csr.out_neighbors(n[0]), sorted(g.out_neighbors(n[0])));
        assert_eq!(csr.in_neighbors(n[2]), sorted(g.in_neighbors(n[2])));
        assert_eq!(csr.label(n[1]), g.label(n[1]));
        assert_eq!(csr.label_name(n[1]), Some("B"));
        assert_eq!(csr.nodes().count(), 3);
        assert_eq!(csr.out_degree(n[0]), 2);
        assert_eq!(csr.in_degree(n[2]), 2);
    }

    #[test]
    fn from_edges_sorts_and_dedups() {
        let mut interner = LabelInterner::new();
        let l = interner.intern("X");
        let edges = vec![
            (NodeId(2), NodeId(0)),
            (NodeId(0), NodeId(1)),
            (NodeId(0), NodeId(1)), // duplicate
            (NodeId(0), NodeId(2)),
        ];
        let csr = CsrGraph::from_edges(vec![l; 3], interner, edges);
        assert_eq!(csr.edge_count(), 3);
        assert_eq!(csr.out_neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert!(csr.has_edge(NodeId(2), NodeId(0)));
        assert!(!csr.has_edge(NodeId(1), NodeId(0)));
        let edges: Vec<_> = csr.edges().collect();
        assert_eq!(
            edges,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(2), NodeId(0)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_edges_rejects_out_of_bounds() {
        let mut interner = LabelInterner::new();
        let l = interner.intern("X");
        CsrGraph::from_edges(vec![l; 2], interner, vec![(NodeId(0), NodeId(5))]);
    }

    #[test]
    fn empty_graph() {
        let g = LabeledGraph::new();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(csr.edges().count(), 0);
    }

    #[test]
    fn isolated_nodes_have_empty_slices() {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        let _b = g.add_node_with_label("B");
        let csr = CsrGraph::from_graph(&g);
        assert!(csr.out_neighbors(a).is_empty());
        assert!(csr.in_neighbors(a).is_empty());
        assert!(csr.heap_bytes() > 0);
    }

    #[test]
    fn heap_bytes_smaller_than_labeled_on_sparse_graphs() {
        let mut g = LabeledGraph::new();
        let n: Vec<_> = (0..1000).map(|_| g.add_node_with_label("X")).collect();
        for i in 0..999 {
            g.add_edge(n[i], n[i + 1]);
        }
        let csr = g.freeze();
        assert!(
            csr.heap_bytes() < g.heap_bytes(),
            "csr {} vs labeled {}",
            csr.heap_bytes(),
            g.heap_bytes()
        );
    }
}
