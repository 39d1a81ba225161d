//! `compressB` — graph pattern preserving compression (Section 4.2, Fig. 7).
//!
//! The compression function `R` maps `G` to the quotient of its maximum
//! bisimulation: one node per bisimulation class carrying the class label,
//! and an edge between two classes (self loops included) iff some original
//! edge connects their members. The query rewriting function `F` is the
//! identity — any pattern query is evaluated on `Gr` verbatim — and the
//! post-processing function `P` replaces each hypernode in the answer with
//! the original nodes it represents (Theorem 4). For Boolean pattern
//! queries `P` is not needed.
//!
//! `Gr` has one constructor, [`PatternCompression::from_classes`]: a
//! partition, its class edges and the label names in, the labelled
//! quotient out. [`compress_b`] feeds it the kernel's partition and `G`'s
//! edges read through it;
//! [`IncrementalPattern::to_compression`](crate::incremental::IncrementalPattern::to_compression)
//! feeds it the maintained classes and rows. The `qpgc` facade implements
//! its `<R, F, P>` trait on [`PatternCompression`] itself.

use qpgc_graph::ids::LabelInterner;
use qpgc_graph::{Classes, CsrGraph, Label, LabeledGraph, NodeId};

use crate::bisim::bisimulation_partition_csr;
use crate::pattern::MatchRelation;

/// The output of `compressB`: the compressed graph plus the node ↔ class
/// indexes implementing `F` (trivially) and `P`.
#[derive(Clone, Debug)]
pub struct PatternCompression {
    /// The compressed graph `Gr`. Node `i` is bisimulation class `i` of
    /// [`PatternCompression::partition`] and carries the class label.
    pub graph: LabeledGraph,
    /// The underlying bisimulation partition, each class with its label.
    pub partition: Classes<Label>,
}

impl PatternCompression {
    /// The compression of `partition` whose classes are joined by the class
    /// edges `edges` (self loops included; duplicates are harmless): one
    /// hypernode per class, carrying the class label under its name in
    /// `interner` so that pattern queries written against the original
    /// label vocabulary resolve against `Gr` too. The one constructor of
    /// `Gr`, for [`compress_b`] and for a maintained quotient's export
    /// alike.
    pub fn from_classes(
        partition: Classes<Label>,
        edges: impl IntoIterator<Item = (u32, u32)>,
        interner: &LabelInterner,
    ) -> PatternCompression {
        let mut graph = LabeledGraph::with_capacity(partition.class_count());
        for &label in &partition.payload {
            match interner.name(label) {
                Some(name) => graph.add_node_with_label(name),
                None => graph.add_node(label),
            };
        }
        graph.extend_edges(edges.into_iter().map(|(a, b)| (NodeId(a), NodeId(b))));
        PatternCompression { graph, partition }
    }

    /// The class (hypernode of `Gr`) containing original node `v`.
    pub fn class_of(&self, v: NodeId) -> NodeId {
        NodeId(self.partition.class_of(v))
    }

    /// The original nodes represented by hypernode `c` of `Gr` (the inverse
    /// node mapping used by the post-processing function `P`).
    pub fn members_of(&self, c: NodeId) -> &[NodeId] {
        &self.partition.members[c.index()]
    }

    /// The post-processing function `P`: expands a match relation computed
    /// on `Gr` into the match relation on `G` by replacing every hypernode
    /// with its members. Runs in time linear in the size of the output plus
    /// `|V| / 64` words per pattern node.
    pub fn post_process(&self, on_compressed: &MatchRelation) -> MatchRelation {
        crate::pattern::expand_match_relation(on_compressed, self.partition.class_of.len(), |c| {
            self.members_of(c)
        })
    }

    /// Number of hypernodes (`|Vr|`).
    pub fn class_count(&self) -> usize {
        self.partition.class_count()
    }

    /// The compression ratio `|Gr| / |G|` (the paper's `PCr`).
    pub fn ratio(&self, original: &LabeledGraph) -> f64 {
        qpgc_graph::stats::compression_ratio(original, &self.graph)
    }
}

/// Runs `compressB` on `g`: freezes a CSR snapshot once and hands it to
/// [`compress_b_csr`].
pub fn compress_b(g: &LabeledGraph) -> PatternCompression {
    compress_b_csr(&g.freeze())
}

/// Runs `compressB` over an already-frozen CSR snapshot: the bisimulation
/// refinement, then `G`'s edges read through the partition, bulk-loaded
/// (sorted and deduplicated once) by [`PatternCompression::from_classes`].
pub fn compress_b_csr(g: &CsrGraph) -> PatternCompression {
    let partition = bisimulation_partition_csr(g);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(g.edge_count());
    for u in g.nodes() {
        let cu = partition.class_of(u);
        for &v in g.out_neighbors(u) {
            edges.push((cu, partition.class_of(v)));
        }
    }
    PatternCompression::from_classes(partition, edges, g.interner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::bounded_match;
    use crate::pattern::Pattern;

    fn graph(labels: &[&str], edges: &[(u32, u32)]) -> LabeledGraph {
        let mut g = LabeledGraph::new();
        for l in labels {
            g.add_node_with_label(l);
        }
        for &(u, v) in edges {
            g.add_edge(NodeId(u), NodeId(v));
        }
        g
    }

    /// The paper's recommendation network of Fig. 2 (k = 3 customers).
    fn recommendation_network() -> LabeledGraph {
        graph(
            &[
                "BSA", "BSA", // 0, 1
                "MSA", "MSA", // 2, 3
                "FA", "FA", "FA", "FA", // 4, 5, 6, 7
                "C", "C", "C", "C", // 8, 9, 10, 11
            ],
            &[
                // BSA1/BSA2 both recommend an MSA and an FA.
                (0, 2),
                (0, 4),
                (1, 3),
                (1, 5),
                // FA1/FA2 recommend customers C1/C2, who talk back to FAs.
                (4, 8),
                (5, 9),
                (8, 4),
                (9, 5),
                // FA3/FA4 recommend the remaining customers.
                (6, 10),
                (6, 11),
                (7, 10),
                (7, 11),
                // Customers C3.. interact with FA3/FA4.
                (10, 6),
                (11, 7),
                // MSAs recommend FAs.
                (2, 6),
                (3, 7),
            ],
        )
    }

    #[test]
    fn quotient_merges_bisimilar_nodes() {
        let g = recommendation_network();
        let c = compress_b(&g);
        // BSA1/BSA2, MSA1/MSA2, FA3/FA4 and C3..Ck merge.
        assert!(c.class_count() < g.node_count());
        assert_eq!(c.class_of(NodeId(0)), c.class_of(NodeId(1)));
        assert_eq!(c.class_of(NodeId(2)), c.class_of(NodeId(3)));
        assert!(c.graph.size() < g.size());
        assert!(c.ratio(&g) < 1.0);
    }

    #[test]
    fn quotient_preserves_labels() {
        let g = recommendation_network();
        let c = compress_b(&g);
        for v in g.nodes() {
            let class = c.class_of(v);
            assert_eq!(g.label_name(v), c.graph.label_name(class));
        }
    }

    #[test]
    fn quotient_keeps_self_loops_for_intra_class_edges() {
        // Two bisimilar nodes forming a cycle produce a hypernode self loop.
        let g = graph(&["X", "X"], &[(0, 1), (1, 0)]);
        let c = compress_b(&g);
        assert_eq!(c.class_count(), 1);
        assert!(c.graph.has_edge(NodeId(0), NodeId(0)));
    }

    fn assert_pattern_preserved(g: &LabeledGraph, p: &Pattern) {
        let c = compress_b(g);
        let on_g = bounded_match(g, p);
        let on_gr = bounded_match(&c.graph, p);
        match (on_g, on_gr) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.canonical(), c.post_process(&b).canonical());
            }
            (a, b) => panic!(
                "boolean answer not preserved: original matched = {}, compressed matched = {}",
                a.is_some(),
                b.is_some()
            ),
        }
    }

    #[test]
    fn preserves_paper_example_pattern() {
        // Qp of Fig. 2: BSA —2→ C, C —1→ FA, BSA —1→ FA (approximation of the
        // described query: customers within 2 hops of BSAs, interacting with FAs).
        let g = recommendation_network();
        let mut p = Pattern::new();
        let b = p.add_node("BSA");
        let cst = p.add_node("C");
        let f = p.add_node("FA");
        p.add_edge(b, cst, 2);
        p.add_edge(cst, f, 1);
        assert_pattern_preserved(&g, &p);
    }

    #[test]
    fn preserves_simulation_patterns() {
        let g = recommendation_network();
        let mut p = Pattern::new();
        let f = p.add_node("FA");
        let cst = p.add_node("C");
        p.add_edge(f, cst, 1);
        p.add_edge(cst, f, 1);
        assert!(bounded_match(&g, &p).is_some());
        assert_pattern_preserved(&g, &p);
    }

    #[test]
    fn preserves_unbounded_patterns() {
        let g = recommendation_network();
        let mut p = Pattern::new();
        let b = p.add_node("BSA");
        let f = p.add_node("FA");
        p.add_edge_unbounded(b, f);
        assert_pattern_preserved(&g, &p);
    }

    #[test]
    fn preserves_boolean_answer_for_unmatchable_pattern() {
        let g = recommendation_network();
        let mut p = Pattern::new();
        let c1 = p.add_node("C");
        let b = p.add_node("BSA");
        p.add_edge(c1, b, 1); // no customer recommends a BSA
        assert_pattern_preserved(&g, &p);
    }

    #[test]
    fn preserves_patterns_on_cyclic_graph() {
        let g = graph(
            &["A", "B", "B", "C", "C"],
            &[(0, 1), (0, 2), (1, 3), (2, 4), (3, 1), (4, 2)],
        );
        let mut p = Pattern::new();
        let a = p.add_node("A");
        let b = p.add_node("B");
        let c = p.add_node("C");
        p.add_edge(a, b, 1);
        p.add_edge(b, c, 2);
        p.add_edge(c, b, 1);
        assert_pattern_preserved(&g, &p);
    }

    #[test]
    fn post_process_expands_and_dedups() {
        let g = graph(&["A", "B", "B"], &[(0, 1), (0, 2)]);
        let c = compress_b(&g);
        let mut on_gr = MatchRelation::empty(1);
        let class_b = c.class_of(NodeId(1));
        on_gr.matches[0] = vec![class_b, class_b];
        let expanded = c.post_process(&on_gr);
        assert_eq!(expanded.matches[0], vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn empty_graph() {
        let g = LabeledGraph::new();
        let c = compress_b(&g);
        assert_eq!(c.class_count(), 0);
        assert_eq!(c.graph.node_count(), 0);
    }
}
