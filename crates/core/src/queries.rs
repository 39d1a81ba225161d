//! Query types shared by the compression schemes.

use qpgc_graph::{LabeledGraph, NodeId};

/// A reachability query `QR(from, to)`: "can `from` reach `to`?" (Section
/// 2.1). Evaluation on the original graph uses BFS; evaluation through a
/// compression rewrites the endpoints to hypernodes first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ReachQuery {
    /// Source node (in the graph the query is *posed* against).
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
}

impl ReachQuery {
    /// Creates the query `QR(from, to)`.
    pub fn new(from: NodeId, to: NodeId) -> Self {
        ReachQuery { from, to }
    }

    /// Evaluates the query directly on a graph with BFS (the baseline the
    /// paper compares compressed evaluation against).
    pub fn evaluate(&self, g: &LabeledGraph) -> bool {
        qpgc_graph::traversal::bfs_reachable(g, self.from, self.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_matches_both_algorithms() {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        let b = g.add_node_with_label("B");
        let c = g.add_node_with_label("C");
        g.add_edge(a, b);
        g.add_edge(b, c);
        for (from, to, expected) in [(a, c, true), (c, a, false)] {
            let q = ReachQuery::new(from, to);
            assert_eq!(q.evaluate(&g), expected);
            let bibfs = qpgc_graph::traversal::bidirectional_reachable(&g, from, to);
            assert_eq!(bibfs, expected);
        }
    }
}
