//! The `<R, F, P>` abstraction (Section 2.2, Fig. 3), implemented by the
//! two compressions themselves.

use qpgc_graph::{CsrGraph, GraphView, LabeledGraph, NodeId};
use qpgc_pattern::compress::compress_b;
use qpgc_pattern::pattern::{MatchRelation, Pattern};
use qpgc_pattern::view::PatternView;
use qpgc_reach::compress::{compress_r, ReachCompression};

use crate::queries::ReachQuery;

/// A query preserving compression `<R, F, P>` for a class of queries.
///
/// * `compress` is the compression function `R`;
/// * `rewrite` is the query rewriting function `F`;
/// * `answer` evaluates the rewritten query on the compressed graph and
///   applies the post-processing function `P`, so that
///   `answer(q) == q`'s answer on the original graph.
///
/// The compressed graph is any [`GraphView`]: any algorithm that evaluates
/// the query class on original graphs runs on it unchanged (the paper's "no
/// decompression" property). Both compressions implement it:
/// [`ReachCompression`] (Section 3, `Gr` a [`LabeledGraph`]) and
/// [`PatternView`] (Section 4, `Gr` a [`CsrGraph`]); each also has an
/// inherent `ratio`, the paper's `RCr` / `PCr`.
pub trait QueryPreservingCompression: Sized {
    /// The query class `Q` this compression preserves.
    type Query;
    /// The rewritten-query type produced by `F` (usually the same as
    /// `Query`).
    type Rewritten;
    /// The answer type of the query class.
    type Answer;
    /// The representation of the compressed graph `Gr`.
    type Graph: GraphView;

    /// The compression function `R`.
    fn compress(g: &LabeledGraph) -> Self;

    /// The compressed graph `Gr = R(G)`.
    fn compressed_graph(&self) -> &Self::Graph;

    /// The query rewriting function `F`.
    fn rewrite(&self, query: &Self::Query) -> Self::Rewritten;

    /// Evaluates `query` against the compressed graph (running `F`, an
    /// ordinary evaluation algorithm on `Gr`, and `P`).
    fn answer(&self, query: &Self::Query) -> Self::Answer;
}

impl QueryPreservingCompression for ReachCompression {
    type Query = ReachQuery;
    /// `F(QR(v, w)) = QR(R(v), R(w))` — a pair of hypernodes of `Gr`.
    type Rewritten = (NodeId, NodeId);
    type Answer = bool;
    type Graph = LabeledGraph;

    fn compress(g: &LabeledGraph) -> Self {
        compress_r(g)
    }

    fn compressed_graph(&self) -> &LabeledGraph {
        &self.graph
    }

    fn rewrite(&self, query: &ReachQuery) -> (NodeId, NodeId) {
        let class = |v| NodeId(self.partition.class_of(v));
        (class(query.from), class(query.to))
    }

    fn answer(&self, query: &ReachQuery) -> bool {
        self.query(query.from, query.to)
    }
}

impl QueryPreservingCompression for PatternView {
    type Query = Pattern;
    /// `F` is the identity mapping (Theorem 4).
    type Rewritten = Pattern;
    type Answer = Option<MatchRelation>;
    type Graph = CsrGraph;

    fn compress(g: &LabeledGraph) -> Self {
        compress_b(g)
    }

    fn compressed_graph(&self) -> &CsrGraph {
        self.graph()
    }

    fn rewrite(&self, query: &Pattern) -> Pattern {
        query.clone()
    }

    fn answer(&self, query: &Pattern) -> Option<MatchRelation> {
        PatternView::answer(self, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpgc_pattern::bounded::bounded_match;

    fn sample() -> (LabeledGraph, Vec<NodeId>) {
        let mut g = LabeledGraph::new();
        let ids = vec![
            g.add_node_with_label("A"),
            g.add_node_with_label("B"),
            g.add_node_with_label("B"),
            g.add_node_with_label("C"),
        ];
        g.add_edge(ids[0], ids[1]);
        g.add_edge(ids[0], ids[2]);
        g.add_edge(ids[1], ids[3]);
        g.add_edge(ids[2], ids[3]);
        (g, ids)
    }

    #[test]
    fn reachability_scheme_preserves_queries() {
        let (g, ids) = sample();
        let scheme = ReachCompression::compress(&g);
        for &u in &ids {
            for &v in &ids {
                let q = ReachQuery::new(u, v);
                assert_eq!(scheme.answer(&q), q.evaluate(&g), "query {q:?}");
            }
        }
        assert!(scheme.ratio(&g) <= 1.0);
        assert!(scheme.compressed_graph().node_count() < g.node_count());
        // F maps the two B nodes to the same hypernode.
        let (r1, _) = scheme.rewrite(&ReachQuery::new(ids[1], ids[3]));
        let (r2, _) = scheme.rewrite(&ReachQuery::new(ids[2], ids[3]));
        assert_eq!(r1, r2);
    }

    #[test]
    fn pattern_scheme_preserves_queries() {
        let (g, _) = sample();
        let scheme = PatternView::compress(&g);
        let mut q = Pattern::new();
        let a = q.add_node("A");
        let b = q.add_node("B");
        let c = q.add_node("C");
        q.add_edge(a, b, 1);
        q.add_edge(b, c, 1);
        let direct = bounded_match(&g, &q).unwrap();
        let via_scheme = scheme.answer(&q).unwrap();
        assert_eq!(direct.canonical(), via_scheme.canonical());
        assert_eq!(scheme.rewrite(&q), q);
        assert!(scheme.ratio(&g) <= 1.0);
    }

    #[test]
    fn pattern_scheme_boolean_negative() {
        let (g, _) = sample();
        let scheme = PatternView::compress(&g);
        let mut q = Pattern::new();
        let c = q.add_node("C");
        let a = q.add_node("A");
        q.add_edge(c, a, 1);
        assert!(scheme.answer(&q).is_none());
        assert!(bounded_match(&g, &q).is_none());
    }

    #[test]
    fn manual_post_processing_path() {
        let (g, _) = sample();
        let scheme = PatternView::compress(&g);
        let mut q = Pattern::new();
        let a = q.add_node("A");
        let b = q.add_node("B");
        q.add_edge(a, b, 1);
        // Run "any algorithm" on the compressed graph ourselves, then apply P.
        let on_gr = bounded_match(scheme.compressed_graph(), &q).unwrap();
        let expanded = scheme.post_process(&on_gr);
        let direct = bounded_match(&g, &q).unwrap();
        assert_eq!(expanded.canonical(), direct.canonical());
    }
}
