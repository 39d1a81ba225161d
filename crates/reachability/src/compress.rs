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

use qpgc_graph::reach_sets::DagReach;
use qpgc_graph::transitive::transitive_reduction_dag;
use qpgc_graph::traversal;
use qpgc_graph::{GraphView, LabeledGraph, NodeId};

use crate::equivalence::{reachability_partition, ReachPartition};

/// The output of `compressR`: the compressed graph plus the node → class
/// index that implements the query rewriting function `F`.
#[derive(Clone, Debug)]
pub struct ReachCompression {
    /// The compressed graph `Gr`. Node `i` of this graph is equivalence
    /// class `i` of [`ReachCompression::partition`]. All nodes carry the
    /// fixed label `"σ"`.
    pub graph: LabeledGraph,
    /// The underlying partition: node → class map, members, and the cyclic
    /// flag per class.
    pub partition: ReachPartition,
}

impl ReachCompression {
    /// The query rewriting function `F`: maps the endpoints of a
    /// reachability query on `G` to nodes of `Gr`, in constant time.
    pub fn rewrite(&self, v: NodeId, w: NodeId) -> (NodeId, NodeId) {
        (
            NodeId(self.partition.class_of(v)),
            NodeId(self.partition.class_of(w)),
        )
    }

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
        let (cv, cw) = self.rewrite(v, w);
        if cv == cw {
            // Same class, different nodes: reachable iff the class is a
            // cyclic SCC.
            return self.partition.cyclic[cv.index()];
        }
        algo(&self.graph, cv, cw)
    }

    /// Number of equivalence classes (`|Vr|`).
    pub fn class_count(&self) -> usize {
        self.partition.class_count()
    }

    /// The members of the class that node `v` belongs to (the inverse node
    /// mapping of `R`).
    pub fn members_of(&self, v: NodeId) -> &[NodeId] {
        &self.partition.members[self.partition.class_of(v) as usize]
    }

    /// The compression ratio `|Gr| / |G|` (the paper's `RCr`).
    pub fn ratio(&self, original: &LabeledGraph) -> f64 {
        qpgc_graph::stats::compression_ratio(original, &self.graph)
    }
}

/// Runs `compressR` on `g` with the default signature chunk width. Generic
/// over [`GraphView`]: accepts the mutable graph or a CSR snapshot.
pub fn compress_r<G: GraphView>(g: &G) -> ReachCompression {
    let partition = reachability_partition(g);
    let graph = build_quotient_graph(g, &partition);
    ReachCompression { graph, partition }
}

/// Builds the quotient graph of `partition` over `g`. The edge set is
/// transitively reduced (the paper's Fig. 5 lines 6–8); intra-class edges
/// never appear (a class trivially "reaches itself").
///
/// The class edge list is collected once, sorted and deduplicated, reduced
/// directly on a [`DagReach`] built from that list, and bulk-inserted into
/// the output — no intermediate `LabeledGraph` is materialized between the
/// partition and the final quotient.
pub(crate) fn build_quotient_graph<G: GraphView>(
    g: &G,
    partition: &ReachPartition,
) -> LabeledGraph {
    let classes = partition.class_count();
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
    edges.sort_unstable();
    edges.dedup();

    // The quotient of the reachability equivalence relation is a DAG, so
    // the transitive reduction is unique.
    let dag = DagReach::from_edges(classes, edges)
        .expect("the quotient of the reachability equivalence relation is a DAG");
    let kept = transitive_reduction_dag(&dag, qpgc_graph::reach_sets::DEFAULT_CHUNK, |_, _| {});

    let mut quotient = LabeledGraph::with_capacity(classes);
    for _ in 0..classes {
        quotient.add_node_with_label("σ");
    }
    quotient.extend_edges(kept);
    quotient
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpgc_graph::traversal::{bfs_reachable, bidirectional_reachable};

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
        let (a, b) = c.rewrite(NodeId(1), NodeId(2));
        assert_eq!(a, b);
        assert_eq!(c.members_of(NodeId(1)).len(), 2);
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
