//! Graph statistics used when reporting the paper's measurements.
//!
//! The compression ratios of Tables 1 and 2 are ratios of the `|G| = |V| +
//! |E|` size measure; the memory comparison of Fig. 12(d) uses byte
//! footprints; the dataset descriptions quote label-alphabet sizes and
//! degree skew. [`GraphStats`] gathers all of these in one pass.

use crate::graph::LabeledGraph;

/// Summary statistics of a labeled graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of nodes `|V|`.
    pub nodes: usize,
    /// Number of edges `|E|`.
    pub edges: usize,
    /// The paper's size measure `|G| = |V| + |E|`.
    pub size: usize,
    /// Number of distinct labels in use.
    pub labels: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Average out-degree (`|E| / |V|`, 0 for the empty graph).
    pub avg_degree: f64,
    /// Number of nodes with no outgoing edge.
    pub sinks: usize,
    /// Number of nodes with no incoming edge.
    pub sources: usize,
    /// Approximate heap footprint of the adjacency representation in bytes.
    pub heap_bytes: usize,
}

impl GraphStats {
    /// Computes statistics for `g`.
    pub fn of(g: &LabeledGraph) -> Self {
        let nodes = g.node_count();
        let edges = g.edge_count();
        let mut max_out = 0;
        let mut max_in = 0;
        let mut sinks = 0;
        let mut sources = 0;
        for v in g.nodes() {
            let od = g.out_degree(v);
            let id = g.in_degree(v);
            max_out = max_out.max(od);
            max_in = max_in.max(id);
            if od == 0 {
                sinks += 1;
            }
            if id == 0 {
                sources += 1;
            }
        }
        GraphStats {
            nodes,
            edges,
            size: nodes + edges,
            labels: g.label_alphabet_size(),
            max_out_degree: max_out,
            max_in_degree: max_in,
            avg_degree: if nodes == 0 {
                0.0
            } else {
                edges as f64 / nodes as f64
            },
            sinks,
            sources,
            heap_bytes: g.heap_bytes(),
        }
    }
}

/// The compression ratio `|Gr| / |G|` of the paper (Exp-1), as a fraction in
/// `[0, 1]`. Returns 0 when the original graph is empty.
pub fn compression_ratio(original: &LabeledGraph, compressed: &LabeledGraph) -> f64 {
    let g = original.size();
    if g == 0 {
        return 0.0;
    }
    compressed.size() as f64 / g as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_small_graph() {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        let b = g.add_node_with_label("B");
        let c = g.add_node_with_label("B");
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, c);
        let s = GraphStats::of(&g);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.edges, 3);
        assert_eq!(s.size, 6);
        assert_eq!(s.labels, 2);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.max_in_degree, 2);
        assert_eq!(s.sinks, 1);
        assert_eq!(s.sources, 1);
        assert!((s.avg_degree - 1.0).abs() < 1e-9);
        assert!(s.heap_bytes > 0);
    }

    #[test]
    fn stats_of_empty_graph() {
        let g = LabeledGraph::new();
        let s = GraphStats::of(&g);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.size, 0);
        assert_eq!(s.avg_degree, 0.0);
    }

    #[test]
    fn ratio_and_formatting() {
        let mut g = LabeledGraph::new();
        for _ in 0..8 {
            g.add_node_with_label("X");
        }
        for i in 0..7u32 {
            g.add_edge(crate::NodeId(i), crate::NodeId(i + 1));
        }
        let mut small = LabeledGraph::new();
        small.add_node_with_label("X");
        small.add_node_with_label("X");
        small.add_edge(crate::NodeId(0), crate::NodeId(1));
        let r = compression_ratio(&g, &small);
        assert!((r - 3.0 / 15.0).abs() < 1e-9);
        assert_eq!(compression_ratio(&LabeledGraph::new(), &small), 0.0);
    }
}
