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
//! [`compress_b`] returns the form a serving layer publishes, a
//! [`PatternView`]: `Gr`, `P` ([`PatternView::post_process`]) and
//! `P ∘ Match ∘ F` ([`PatternView::answer`]) live there. The batch
//! partition is handed to [`PatternView::build`] as a stable-id export
//! with no retired id, so `Gr` has one constructor for `compressB` and for
//! a maintained quotient alike.

use std::sync::Arc;

use qpgc_graph::LabeledGraph;

use crate::bisim::bisimulation_partition_csr;
use crate::incremental::StablePatternQuotient;
use crate::view::PatternView;

/// Runs `compressB` on `g`: the bisimulation refinement over a frozen CSR
/// snapshot, then `G`'s edges read through the partition (sorted and
/// deduplicated once) as the class edges of a stable-id export whose ids
/// are the partition's dense ones, built into the served view.
pub fn compress_b(g: &LabeledGraph) -> PatternView {
    let csr = g.freeze();
    let partition = bisimulation_partition_csr(&csr);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(csr.edge_count());
    for u in csr.nodes() {
        let cu = partition.class_of(u);
        for &v in csr.out_neighbors(u) {
            edges.push((cu, partition.class_of(v)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let classes = partition.class_count();
    PatternView::build(&StablePatternQuotient {
        class_of: partition.class_of,
        labels: partition.payload,
        active: vec![true; classes],
        members: partition.members.into_iter().map(Arc::from).collect(),
        edges,
        interner: g.interner().clone(),
        live_classes: classes,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bounded::bounded_match;
    use crate::pattern::{MatchRelation, Pattern};
    use qpgc_graph::{GraphView, NodeId};

    /// The classes of member rows (empty rows, retired ids, skipped) as
    /// node ids, sorted by first member: equal for two partitions into the
    /// same classes, however each numbers them.
    pub(crate) fn canonical<R: AsRef<[NodeId]>>(
        rows: impl IntoIterator<Item = R>,
    ) -> Vec<Vec<u32>> {
        let mut classes: Vec<Vec<u32>> = rows
            .into_iter()
            .map(|m| m.as_ref().iter().map(|v| v.0).collect::<Vec<u32>>())
            .filter(|m| !m.is_empty())
            .collect();
        classes.sort_unstable();
        classes
    }

    /// [`canonical`] of `compress_b(g)`'s rows: the partition every
    /// maintained one is compared against.
    pub(crate) fn compressed(g: &LabeledGraph) -> Vec<Vec<u32>> {
        let view = compress_b(g);
        canonical((0..view.graph().node_count() as u32).map(|c| view.members_of(NodeId(c))))
    }

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
        assert!(c.graph().size() < g.size());
        assert!(c.ratio(&g) < 1.0);
    }

    #[test]
    fn quotient_preserves_labels() {
        let g = recommendation_network();
        let c = compress_b(&g);
        for v in g.nodes() {
            let class = NodeId(c.class_of(v).unwrap());
            assert_eq!(g.label_name(v), c.graph().label_name(class));
        }
    }

    #[test]
    fn quotient_keeps_self_loops_for_intra_class_edges() {
        // Two bisimilar nodes forming a cycle produce a hypernode self loop.
        let g = graph(&["X", "X"], &[(0, 1), (1, 0)]);
        let c = compress_b(&g);
        assert_eq!(c.class_count(), 1);
        assert!(c.graph().has_edge(NodeId(0), NodeId(0)));
    }

    fn assert_pattern_preserved(g: &LabeledGraph, p: &Pattern) {
        let c = compress_b(g);
        let on_g = bounded_match(g, p);
        let on_gr = c.answer(p);
        match (on_g, on_gr) {
            (None, None) => {}
            (Some(a), Some(b)) => assert_eq!(a.canonical(), b.canonical()),
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
        let class_b = NodeId(c.class_of(NodeId(1)).unwrap());
        let on_gr = MatchRelation {
            matches: vec![vec![class_b, class_b]],
        };
        let expanded = c.post_process(&on_gr);
        assert_eq!(expanded.matches[0], vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn empty_graph() {
        let g = LabeledGraph::new();
        let c = compress_b(&g);
        assert_eq!(c.class_count(), 0);
        assert_eq!(c.graph().node_count(), 0);
        assert_eq!(c.ratio(&g), 0.0);
    }
}
