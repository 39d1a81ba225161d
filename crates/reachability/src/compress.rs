//! `compressR` — reachability preserving compression (Section 3.2, Fig. 5).
//!
//! The compression function `R` maps a graph `G` to the quotient graph of
//! its reachability equivalence relation:
//!
//! * one node per equivalence class (all nodes get one fixed label, since
//!   labels are irrelevant for reachability queries);
//! * an edge between two classes iff some original edge connects their
//!   members **and** the edge is not already implied by other quotient edges
//!   (lines 6–8 of Fig. 5) — i.e. the edge set is the unique transitive
//!   reduction of the quotient DAG.
//!
//! The query rewriting function `F` maps `QR(v, w)` to `QR(R(v), R(w))` via
//! the node → class index in constant time; no post-processing is needed
//! (Theorem 2). One corner case is resolved by the same index: when `R(v) =
//! R(w)` but `v ≠ w`, the answer is `true` iff the class is a cyclic SCC
//! (equivalent nodes in different SCCs provably do not reach each other —
//! see the module docs of [`crate::equivalence`]).
//!
//! [`compress_r`] is the one batch constructor of `Gr`: the kernel's
//! partition, and `G`'s edges read through it and reduced. A maintained
//! quotient is never converted into a [`ReachCompression`]: a serving
//! layer publishes the reduction its maintainer's closure holds. The `qpgc`
//! facade implements its `<R, F, P>` trait on [`ReachCompression`] itself.

use qpgc_graph::reach_sets::DagReach;
use qpgc_graph::transitive::transitive_reduction_dag;
use qpgc_graph::traversal;
use qpgc_graph::{Classes, GraphView, LabeledGraph, NodeId};

use crate::equivalence::reachability_partition;

/// The output of `compressR`: the compressed graph plus the node → class
/// index that implements the query rewriting function `F`.
#[derive(Clone, Debug)]
pub struct ReachCompression {
    /// The compressed graph `Gr`. Node `i` of this graph is equivalence
    /// class `i` of [`ReachCompression::partition`]. All nodes carry the
    /// fixed label `"σ"`.
    pub graph: LabeledGraph,
    /// The underlying partition: node → class map, members, and the cyclic
    /// flag per class as its payload.
    pub partition: Classes<bool>,
}

impl ReachCompression {
    /// Answers the reachability query `QR(v, w)` posed against the original
    /// graph by evaluating its rewriting on the compressed graph with BFS.
    pub fn query(&self, v: NodeId, w: NodeId) -> bool {
        self.query_with(v, w, traversal::bfs_reachable)
    }

    /// Like [`ReachCompression::query`] but lets the caller supply the
    /// reachability algorithm run on `Gr` (BFS, bidirectional BFS, a 2-hop
    /// index lookup, …) — this is the paper's "any algorithm can be applied
    /// to `Gr` as is" property.
    pub fn query_with<F>(&self, v: NodeId, w: NodeId, algo: F) -> bool
    where
        F: FnOnce(&LabeledGraph, NodeId, NodeId) -> bool,
    {
        if v == w {
            return true;
        }
        let (cv, cw) = (self.partition.class_of(v), self.partition.class_of(w));
        if cv == cw {
            // Same class, different nodes: reachable iff the class is a
            // cyclic SCC.
            return self.partition.payload[cv as usize];
        }
        algo(&self.graph, NodeId(cv), NodeId(cw))
    }

    /// Number of equivalence classes (`|Vr|`).
    pub fn class_count(&self) -> usize {
        self.partition.class_count()
    }

    /// The compression ratio `|Gr| / |G|` (the paper's `RCr`).
    pub fn ratio(&self, original: &LabeledGraph) -> f64 {
        qpgc_graph::stats::compression_ratio(original.size(), self.graph.size())
    }
}

/// Runs `compressR` on `g`: the partition, then the quotient graph over `G`'s edges read through it,
/// transitively reduced on a [`DagReach`] (the paper's Fig. 5 lines 6–8);
/// no unreduced `LabeledGraph` is built on the way. Generic over
/// [`GraphView`]: accepts the mutable graph or a CSR snapshot.
pub fn compress_r<G: GraphView>(g: &G) -> ReachCompression {
    let partition = reachability_partition(g);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(g.edge_count());
    for u in g.nodes() {
        let cu = partition.class_of(u);
        for &v in g.out_neighbors(u) {
            let cv = partition.class_of(v);
            if cu != cv {
                edges.push((cu, cv));
            }
        }
    }
    let classes = partition.class_count();
    // The quotient of the reachability equivalence relation is a DAG, so
    // the transitive reduction is unique.
    let dag = DagReach::from_edges(classes, edges)
        .expect("the quotient of the reachability equivalence relation is a DAG");
    let mut graph = LabeledGraph::with_capacity(classes);
    for _ in 0..classes {
        graph.add_node_with_label("σ");
    }
    graph.extend_edges(transitive_reduction_dag(&dag, &dag.descendants()));
    ReachCompression { graph, partition }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qpgc_graph::traversal::{bfs_reachable, bidirectional_reachable};

    /// The classes of a node → class table as node ids, sorted by first
    /// member: equal for two partitions into the same classes, however each
    /// numbers them.
    pub(crate) fn canonical(class_of: &[u32]) -> Vec<Vec<u32>> {
        let mut classes = std::collections::BTreeMap::<u32, Vec<u32>>::new();
        for (v, &c) in class_of.iter().enumerate() {
            classes.entry(c).or_default().push(v as u32);
        }
        let mut classes: Vec<Vec<u32>> = classes.into_values().collect();
        classes.sort_unstable();
        classes
    }

    /// Class edges under the node → class table `class_of`, each class
    /// named by its first member, sorted: equal for two quotients with the
    /// same edges, however each numbers its classes.
    pub(crate) fn edges_by_first_member(
        class_of: &[u32],
        edges: impl IntoIterator<Item = (u32, u32)>,
    ) -> Vec<(u32, u32)> {
        let ids = class_of.iter().max().map_or(0, |&c| c as usize + 1);
        let mut first: Vec<u32> = vec![u32::MAX; ids];
        for (v, &c) in class_of.iter().enumerate().rev() {
            first[c as usize] = v as u32;
        }
        let mut named: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(a, b)| (first[a as usize], first[b as usize]))
            .collect();
        named.sort_unstable();
        named
    }

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

    /// Exhaustively checks query preservation: for all pairs (v, w),
    /// `QR(v,w)` on G equals the rewritten query on Gr.
    fn assert_preserves_all_queries(g: &LabeledGraph) {
        let c = compress_r(g);
        for v in g.nodes() {
            for w in g.nodes() {
                let expected = bfs_reachable(g, v, w);
                assert_eq!(c.query(v, w), expected, "query ({v}, {w}) not preserved");
                assert_eq!(
                    c.query_with(v, w, bidirectional_reachable),
                    expected,
                    "bibfs query ({v}, {w}) not preserved"
                );
            }
        }
    }

    #[test]
    fn preserves_queries_on_diamond() {
        assert_preserves_all_queries(&graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]));
    }

    #[test]
    fn preserves_queries_with_cycles() {
        assert_preserves_all_queries(&graph(
            6,
            &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (5, 0)],
        ));
    }

    #[test]
    fn preserves_queries_with_self_loops_and_isolated_nodes() {
        assert_preserves_all_queries(&graph(5, &[(0, 0), (0, 1), (3, 1)]));
    }

    #[test]
    fn preserves_queries_on_dense_bipartite() {
        // Complete bipartite 3x3: all sources equivalent, all sinks equivalent.
        let mut edges = Vec::new();
        for u in 0..3 {
            for v in 3..6 {
                edges.push((u, v));
            }
        }
        let g = graph(6, &edges);
        let c = compress_r(&g);
        assert_eq!(c.graph.node_count(), 2);
        assert_eq!(c.graph.edge_count(), 1);
        assert_preserves_all_queries(&g);
    }

    #[test]
    fn compressed_graph_is_smaller() {
        let mut edges = Vec::new();
        for u in 0..10 {
            for v in 10..20 {
                edges.push((u, v));
            }
        }
        let g = graph(20, &edges);
        let c = compress_r(&g);
        assert!(c.graph.size() < g.size());
        assert!(c.ratio(&g) < 0.1);
    }

    #[test]
    fn quotient_has_no_self_loops_or_intra_class_edges() {
        let g = graph(4, &[(0, 1), (1, 0), (1, 2), (0, 2), (2, 3)]);
        let c = compress_r(&g);
        for (u, v) in c.graph.edges() {
            assert_ne!(u, v, "quotient must not contain self loops");
        }
    }

    #[test]
    fn transitive_reduction_removes_redundant_edges() {
        // 0 -> 1 -> 2 plus shortcut 0 -> 2, all singleton classes.
        let g = graph(3, &[(0, 1), (1, 2), (0, 2)]);
        let c = compress_r(&g);
        assert_eq!(c.graph.edge_count(), 2);
        // Dropping the shortcut preserves every query.
        for v in g.nodes() {
            for w in g.nodes() {
                assert_eq!(c.query(v, w), bfs_reachable(&g, v, w));
            }
        }
    }

    #[test]
    fn rewrite_is_consistent_with_partition() {
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let c = compress_r(&g);
        let class = |v| c.partition.class_of(NodeId(v));
        assert_eq!(class(1), class(2));
        assert_eq!(c.partition.members[class(1) as usize].len(), 2);
    }

    #[test]
    fn same_class_queries_respect_cyclicity() {
        // Cyclic class: nodes reach each other.
        let g = graph(2, &[(0, 1), (1, 0)]);
        let c = compress_r(&g);
        assert!(c.query(NodeId(0), NodeId(1)));
        // Acyclic equivalent siblings: they do not reach each other.
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let c = compress_r(&g);
        assert!(!c.query(NodeId(1), NodeId(2)));
        assert!(c.query(NodeId(1), NodeId(1)));
    }

    #[test]
    fn labels_do_not_affect_reachability_compression() {
        let mut g1 = LabeledGraph::new();
        for label in ["X", "Z", "X", "X"] {
            g1.add_node_with_label(label);
        }
        g1.extend_edges([(0, 1), (0, 2), (1, 3), (2, 3)].map(|(u, v)| (NodeId(u), NodeId(v))));
        let c = compress_r(&g1);
        // Still merged despite different labels.
        assert_eq!(c.class_count(), 3);
    }

    #[test]
    fn empty_graph() {
        let g = LabeledGraph::new();
        let c = compress_r(&g);
        assert_eq!(c.graph.node_count(), 0);
        assert_eq!(c.class_count(), 0);
    }

    #[test]
    fn chain_compresses_to_chain() {
        let g = graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let c = compress_r(&g);
        // Every node has a distinct closure: no compression possible.
        assert_eq!(c.graph.node_count(), 5);
        assert_eq!(c.graph.edge_count(), 4);
        assert_preserves_all_queries(&g);
    }
}
