//! Cross-crate integration tests of the central contract: for every query
//! class, every query, and every (randomly generated) graph,
//! `Q(G) = P(F(Q)(R(G)))` — Theorems 2 and 4 of the paper as executable
//! property tests.

use proptest::prelude::*;
use qpgc::prelude::*;
use qpgc::QueryPreservingCompression;
use qpgc_graph::traversal::bfs_reachable;
use qpgc_pattern::bounded::bounded_match;
use qpgc_reach::aho::aho_reduction;

/// Strategy: a random labeled digraph with up to `max_n` nodes.
fn arb_graph(max_n: usize, labels: &'static [&'static str]) -> impl Strategy<Value = LabeledGraph> {
    (2..=max_n).prop_flat_map(move |n| {
        let nodes = prop::collection::vec(0..labels.len(), n);
        let edges = prop::collection::vec((0..n, 0..n), 0..(3 * n));
        (nodes, edges).prop_map(move |(nodes, edges)| {
            let mut g = LabeledGraph::new();
            for l in nodes {
                g.add_node_with_label(labels[l]);
            }
            for (u, v) in edges {
                g.add_edge(NodeId(u as u32), NodeId(v as u32));
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reachability preserving compression answers every reachability query
    /// exactly as the original graph does.
    #[test]
    fn reachability_queries_are_preserved(g in arb_graph(14, &["A", "B", "C"])) {
        let scheme = ReachCompression::compress(&g);
        prop_assert!(scheme.compressed_graph().size() <= g.size());
        for u in g.nodes() {
            for v in g.nodes() {
                let q = ReachQuery::new(u, v);
                prop_assert_eq!(scheme.answer(&q), q.evaluate(&g), "query {:?}", q);
            }
        }
    }

    /// The AHO baseline also preserves reachability (it is a minimum
    /// equivalent graph), which keeps the Table 1 comparison honest.
    #[test]
    fn aho_baseline_preserves_reachability(g in arb_graph(12, &["A"])) {
        let reduced = aho_reduction(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(
                    bfs_reachable(&g, u, v),
                    bfs_reachable(&reduced.graph, u, v)
                );
            }
        }
    }

    /// Pattern preserving compression: evaluating any (small random) pattern
    /// on the compressed graph and expanding hypernodes gives exactly the
    /// answer on the original graph — including the Boolean answer.
    #[test]
    fn pattern_queries_are_preserved(
        g in arb_graph(12, &["A", "B", "C"]),
        edge_bounds in prop::collection::vec(1u32..=3, 2),
    ) {
        let scheme = PatternView::compress(&g);
        let mut p = Pattern::new();
        let a = p.add_node("A");
        let b = p.add_node("B");
        let c = p.add_node("C");
        p.add_edge(a, b, edge_bounds[0]);
        p.add_edge(b, c, edge_bounds[1]);

        let direct = bounded_match(&g, &p);
        let via_scheme = scheme.answer(&p);
        match (direct, via_scheme) {
            (None, None) => {}
            (Some(x), Some(y)) => prop_assert_eq!(x.canonical(), y.canonical()),
            (x, y) => prop_assert!(false, "boolean mismatch: {} vs {}", x.is_some(), y.is_some()),
        }
    }

    /// The compressed graph of the pattern scheme also preserves *unbounded*
    /// (`*`) pattern edges.
    #[test]
    fn unbounded_pattern_edges_are_preserved(g in arb_graph(10, &["A", "B"])) {
        let scheme = PatternView::compress(&g);
        let mut p = Pattern::new();
        let a = p.add_node("A");
        let b = p.add_node("B");
        p.add_edge_unbounded(a, b);
        let direct = bounded_match(&g, &p);
        let via = scheme.answer(&p);
        match (direct, via) {
            (None, None) => {}
            (Some(x), Some(y)) => prop_assert_eq!(x.canonical(), y.canonical()),
            (x, y) => prop_assert!(false, "boolean mismatch: {} vs {}", x.is_some(), y.is_some()),
        }
    }

    /// Compression never enlarges the graph (`|Gr| ≤ |G|`, Section 2.2).
    #[test]
    fn compression_never_grows_the_graph(g in arb_graph(16, &["A", "B", "C", "D"])) {
        let r = ReachCompression::compress(&g);
        let p = PatternView::compress(&g);
        prop_assert!(r.compressed_graph().size() <= g.size());
        prop_assert!(p.compressed_graph().size() <= g.size());
        // And the reachability quotient is never coarser than the SCC count
        // nor finer than the node count.
        prop_assert!(r.compressed_graph().node_count() <= g.node_count());
    }
}

/// The served `P ∘ Match` on a Citation emulation's pattern view equals the
/// round-based oracle run on `G` itself, for 200 generator patterns of
/// shape `(4, 5, 3)`: rows of many words, both outcomes.
#[test]
fn citation_view_answers_equal_the_reference_on_g() {
    use qpgc_generators::{pattern_dataset, random_pattern, PatternGenConfig};
    use qpgc_pattern::bounded::reference_bounded_match;
    use qpgc_pattern::compress::compress_b;
    use qpgc_pattern::pattern::assert_same_answer;

    let g = pattern_dataset("Citation", 200, 0).expect("Citation is a pattern dataset");
    let view = compress_b(&g);
    assert!(
        view.graph().node_count() > 128,
        "{} rows",
        view.graph().node_count()
    );
    let mut matched = 0;
    for seed in 0..200 {
        let p = random_pattern(&g, &PatternGenConfig::new(4, 5, 3, seed));
        let expected = reference_bounded_match(&g, &p);
        matched += usize::from(expected.is_some());
        assert_same_answer(&expected, &view.answer(&p), &format!("pattern {seed}"));
    }
    assert!((20..180).contains(&matched), "{matched} of 200 matched");
}
