//! [`GraphView`] — the read-only interface shared by [`LabeledGraph`] and
//! [`CsrGraph`].
//!
//! Every batch algorithm in the workspace (SCC condensation, BFS variants,
//! rank functions, signature refinement, simulation pruning) only *reads*
//! adjacency and labels. Abstracting that surface into a trait lets each
//! algorithm run unchanged on the mutable `Vec<Vec<_>>` graph and on the
//! frozen CSR snapshot — callers pick the representation (freeze once for a
//! read-mostly sweep, stay mutable for incremental maintenance) without the
//! algorithms caring.
//!
//! [`LabeledGraph`]: crate::graph::LabeledGraph
//! [`CsrGraph`]: crate::csr::CsrGraph

use std::ops::Range;

use crate::ids::{Label, NodeId};

/// Iterator over the dense node ids `0..node_count` of a graph view.
#[derive(Clone, Debug)]
pub struct NodeIds(Range<u32>);

impl Iterator for NodeIds {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        self.0.next().map(NodeId)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for NodeIds {}

/// Read-only access to a labeled directed graph with dense node ids.
///
/// Implemented by the mutable [`crate::LabeledGraph`] and the immutable
/// [`crate::CsrGraph`]; algorithms generic over `GraphView` accept either.
pub trait GraphView {
    /// Number of nodes `|V|`.
    fn node_count(&self) -> usize;

    /// Number of edges `|E|`.
    fn edge_count(&self) -> usize;

    /// Label of node `v`.
    fn label(&self, v: NodeId) -> Label;

    /// Label name of `v`, if its label was interned by name.
    fn label_name(&self, v: NodeId) -> Option<&str>;

    /// Looks an interned label up by name (`None` if the name never occurs).
    fn lookup_label(&self, name: &str) -> Option<Label>;

    /// Out-neighbours (children) of `v`.
    fn out_neighbors(&self, v: NodeId) -> &[NodeId];

    /// In-neighbours (parents) of `v`.
    fn in_neighbors(&self, v: NodeId) -> &[NodeId];

    /// `true` if the edge `(u, v)` is present.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u.index() < self.node_count() && self.out_neighbors(u).contains(&v)
    }

    /// Out-degree of `v`.
    #[inline]
    fn out_degree(&self, v: NodeId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    fn in_degree(&self, v: NodeId) -> usize {
        self.in_neighbors(v).len()
    }

    /// The paper's size measure `|G| = |V| + |E|`.
    fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// Iterator over all node ids.
    fn nodes(&self) -> NodeIds {
        NodeIds(0..self.node_count() as u32)
    }

    /// Iterator over all edges as `(source, target)` pairs, grouped by
    /// source in node-id order (within a row, the order follows
    /// [`GraphView::out_neighbors`] — sorted on CSR snapshots, insertion
    /// order on the mutable graph). The generic substrate of row-diff code
    /// that compares two views edge by edge.
    fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_
    where
        Self: Sized,
    {
        self.nodes()
            .flat_map(|u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use crate::graph::LabeledGraph;

    fn sample() -> LabeledGraph {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        let b = g.add_node_with_label("B");
        let c = g.add_node_with_label("B");
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, c);
        g
    }

    fn exercise<G: GraphView>(g: &G) {
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.size(), 6);
        assert_eq!(g.nodes().count(), 3);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(2)), 2);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(2), NodeId(0)));
        assert!(!g.has_edge(NodeId(9), NodeId(0)));
        assert_eq!(g.label(NodeId(1)), g.label(NodeId(2)));
        assert_eq!(g.label_name(NodeId(0)), Some("A"));
        assert_eq!(g.lookup_label("B"), Some(g.label(NodeId(1))));
        assert_eq!(g.lookup_label("Z"), None);
    }

    #[test]
    fn labeled_and_csr_agree_on_the_view() {
        let g = sample();
        exercise(&g);
        exercise(&CsrGraph::from_graph(&g));
    }

    #[test]
    fn default_edges_iterator_covers_both_views() {
        let g = sample();
        let csr = CsrGraph::from_graph(&g);
        let mut from_labeled: Vec<_> = GraphView::edges(&g).collect();
        from_labeled.sort_unstable();
        let from_csr: Vec<_> = GraphView::edges(&csr).collect();
        assert_eq!(from_labeled, from_csr);
        assert_eq!(from_csr.len(), 3);
    }

    #[test]
    fn node_ids_iterator_is_exact_size() {
        let g = sample();
        let it = GraphView::nodes(&g);
        assert_eq!(it.len(), 3);
        assert_eq!(
            it.collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }
}
