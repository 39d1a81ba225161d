//! The compression ratio the paper reports: Tables 1 and 2 are ratios of
//! the `|G| = |V| + |E|` size measure.

use crate::graph::LabeledGraph;

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
