//! The `AHO` baseline and the SCC-graph measurement.
//!
//! Table 1 of the paper compares `compressR` against
//!
//! * `AHO` — the minimum-equivalent-graph construction of Aho, Garey &
//!   Ullman (1972): collapse every strongly connected component into a
//!   simple cycle and transitively reduce the condensation. The result is a
//!   subgraph-shaped graph with the same transitive closure as `G`
//!   (`RCaho = |Gaho| / |G|`).
//! * the SCC graph `Gscc` itself (each component becomes one node), used to
//!   report how much `compressR` gains *beyond* SCC collapsing
//!   (`RCscc = |Gr| / |Gscc|`).

use qpgc_graph::scc::Condensation;
use qpgc_graph::transitive::transitive_reduction;
use qpgc_graph::LabeledGraph;

/// The result of the AHO minimum-equivalent-graph construction.
#[derive(Clone, Debug)]
pub struct AhoReduction {
    /// The reduced graph: same node set as `G` (so it stays a subgraph-style
    /// reduction, as in the original paper), with each SCC replaced by a
    /// simple cycle and the cross-SCC edges transitively reduced.
    pub graph: LabeledGraph,
}

impl AhoReduction {
    /// The compression ratio `RCaho = |Gaho| / |G|`.
    pub fn ratio(&self, original: &LabeledGraph) -> f64 {
        qpgc_graph::stats::compression_ratio(original.size(), self.graph.size())
    }
}

/// Computes the AHO reduction of `g`.
pub fn aho_reduction(g: &LabeledGraph) -> AhoReduction {
    let cond = Condensation::of(g);

    // Build the reduced graph over the same node set.
    let mut reduced = LabeledGraph::with_capacity(g.node_count());
    for v in g.nodes() {
        reduced.add_node(g.label(v));
    }

    // 1. Each SCC with more than one node becomes a simple cycle through its
    //    members; singleton SCCs contribute a self loop only if they had one.
    for c in 0..cond.component_count() as u32 {
        let members = cond.members(c);
        if members.len() > 1 {
            for i in 0..members.len() {
                reduced.add_edge(members[i], members[(i + 1) % members.len()]);
            }
        } else if g.has_edge(members[0], members[0]) {
            reduced.add_edge(members[0], members[0]);
        }
    }

    // 2. Cross-SCC edges: transitively reduce the condensation and keep one
    //    representative original edge per retained condensation edge.
    let scc_graph = cond.to_graph();
    let kept =
        transitive_reduction(&scc_graph).expect("a condensation graph is acyclic by construction");
    use std::collections::HashSet;
    let keep_set: HashSet<(u32, u32)> = kept.iter().map(|&(a, b)| (a.0, b.0)).collect();
    let mut done: HashSet<(u32, u32)> = HashSet::new();
    for (u, v) in g.edges() {
        let cu = cond.component_of(u);
        let cv = cond.component_of(v);
        if cu != cv && keep_set.contains(&(cu, cv)) && done.insert((cu, cv)) {
            reduced.add_edge(u, v);
        }
    }

    AhoReduction { graph: reduced }
}

/// Builds the SCC graph `Gscc` of `g` (one node per component, deduplicated
/// cross-component edges) and returns it together with the node → component
/// map. `RCscc` in Table 1 is `|Gr| / |Gscc|`.
pub fn scc_graph(g: &LabeledGraph) -> (LabeledGraph, Vec<u32>) {
    let cond = Condensation::of(g);
    let gscc = cond.to_graph();
    let map = g.nodes().map(|v| cond.component_of(v)).collect();
    (gscc, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpgc_graph::traversal::bfs_reachable;
    use qpgc_graph::NodeId;

    fn graph(n: usize, edges: &[(u32, u32)]) -> LabeledGraph {
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node_with_label("X");
        }
        for &(u, v) in edges {
            g.add_edge(NodeId(u), NodeId(v));
        }
        g
    }

    fn assert_same_reachability(g: &LabeledGraph, r: &LabeledGraph) {
        for v in g.nodes() {
            for w in g.nodes() {
                assert_eq!(
                    bfs_reachable(g, v, w),
                    bfs_reachable(r, v, w),
                    "reachability differs for ({v}, {w})"
                );
            }
        }
    }

    #[test]
    fn preserves_reachability_on_dense_scc() {
        // A complete digraph on 4 nodes collapses to a 4-cycle.
        let mut edges = Vec::new();
        for u in 0..4 {
            for v in 0..4 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let g = graph(4, &edges);
        let a = aho_reduction(&g);
        assert_eq!(a.graph.edge_count(), 4);
        assert_same_reachability(&g, &a.graph);
        assert!(a.ratio(&g) < 1.0);
    }

    #[test]
    fn preserves_reachability_with_shortcuts() {
        let g = graph(4, &[(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]);
        let a = aho_reduction(&g);
        assert!(a.graph.edge_count() < g.edge_count());
        assert_same_reachability(&g, &a.graph);
    }

    #[test]
    fn keeps_self_loops() {
        let g = graph(2, &[(0, 0), (0, 1)]);
        let a = aho_reduction(&g);
        assert!(a.graph.has_edge(NodeId(0), NodeId(0)));
        assert_same_reachability(&g, &a.graph);
    }

    #[test]
    fn mixed_cycles_and_dag() {
        let g = graph(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (5, 6),
                (1, 3),
            ],
        );
        let a = aho_reduction(&g);
        assert_same_reachability(&g, &a.graph);
        assert!(a.graph.edge_count() <= g.edge_count());
    }

    #[test]
    fn scc_graph_shape() {
        let g = graph(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)]);
        let (gscc, map) = scc_graph(&g);
        assert_eq!(gscc.node_count(), 3);
        assert_eq!(gscc.edge_count(), 2);
        assert_eq!(map.len(), 5);
        assert_eq!(map[0], map[1]);
        assert_eq!(map[2], map[3]);
        assert_ne!(map[0], map[2]);
    }

    #[test]
    fn empty_graph() {
        let g = LabeledGraph::new();
        let a = aho_reduction(&g);
        assert_eq!(a.graph.node_count(), 0);
        let (gscc, map) = scc_graph(&g);
        assert_eq!(gscc.node_count(), 0);
        assert!(map.is_empty());
    }
}
