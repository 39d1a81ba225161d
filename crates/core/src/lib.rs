//! # qpgc — Query Preserving Graph Compression
//!
//! A Rust implementation of *"Query Preserving Graph Compression"* (Wenfei
//! Fan, Jianzhong Li, Xin Wang, Yinghui Wu — SIGMOD 2012).
//!
//! The idea: instead of lowering the complexity of graph queries, shrink
//! their *input*. For a class `Q` of queries, a query preserving compression
//! is a triple `<R, F, P>` where `R` maps a data graph `G` to a smaller
//! graph `Gr`, `F` rewrites queries, and `P` post-processes answers, such
//! that for every query `Q ∈ Q`:
//!
//! ```text
//! Q(G) = P( F(Q)(Gr) )
//! ```
//!
//! and — crucially — any existing evaluation algorithm for `Q` runs on `Gr`
//! unchanged. The triple is the [`QueryPreservingCompression`] trait, and
//! the paper's two instantiations implement it directly:
//!
//! * **Reachability preserving compression** ([`ReachCompression`],
//!   Section 3): `R` groups nodes with identical ancestors and descendants
//!   and keeps a transitively-reduced quotient; real-life graphs shrink by
//!   ~95 %. `F` is a constant-time node-to-hypernode lookup; no `P` needed.
//! * **Pattern preserving compression** ([`PatternView`], Section 4):
//!   `R` is the bisimulation quotient; graphs shrink by ~57 %. `F` is the
//!   identity and `P` expands hypernodes in the match relation.
//!
//! Each relation has one materialised `Gr`. `compressR` builds the
//! reduced quotient of a [`graph::Classes`] partition; `compressB` and a
//! maintained bisimulation quotient alike are built into the
//! [`PatternView`] a store serves. Both support **incremental
//! maintenance** (Section 5) through [`maintenance::MaintainedGraph`]:
//! apply edge insertions/deletions to the original graph and the
//! compressed forms follow, without recompression and without touching
//! the unaffected part of `G`.
//!
//! ## Quick start
//!
//! ```
//! use qpgc::prelude::*;
//!
//! // Build a small recommendation network.
//! let mut g = LabeledGraph::new();
//! let bsa1 = g.add_node_with_label("BSA");
//! let bsa2 = g.add_node_with_label("BSA");
//! let fa = g.add_node_with_label("FA");
//! let c = g.add_node_with_label("C");
//! g.add_edge(bsa1, fa);
//! g.add_edge(bsa2, fa);
//! g.add_edge(fa, c);
//!
//! // Reachability: compress once, answer any reachability query on Gr.
//! let reach = ReachCompression::compress(&g);
//! assert!(reach.answer(&ReachQuery::new(bsa1, c)));
//! assert!(!reach.answer(&ReachQuery::new(c, bsa1)));
//!
//! // Patterns: compress once, evaluate patterns on Gr, expand with P.
//! let pat = PatternView::compress(&g);
//! let mut q = Pattern::new();
//! let qb = q.add_node("BSA");
//! let qc = q.add_node("C");
//! q.add_edge(qb, qc, 2);
//! let answer = pat.answer(&q).expect("pattern matches");
//! assert_eq!(answer.matches_of(qb).len(), 2); // both BSAs
//! ```

#![warn(missing_docs)]

pub mod maintenance;
pub mod queries;
pub mod scheme;
pub mod sharding;

pub use qpgc_pattern::view::PatternView;
pub use qpgc_reach::compress::ReachCompression;
pub use queries::ReachQuery;
pub use scheme::QueryPreservingCompression;

// Re-export the building blocks so downstream users need only one crate.
pub use qpgc_graph as graph;
pub use qpgc_pattern as pattern_engine;
pub use qpgc_reach as reach_engine;

/// Convenient glob import for examples and applications.
pub mod prelude {
    pub use crate::maintenance::MaintainedGraph;
    pub use crate::queries::ReachQuery;
    pub use crate::scheme::QueryPreservingCompression;
    pub use qpgc_graph::{GraphView, LabeledGraph, NodeId, Update, UpdateBatch};
    pub use qpgc_pattern::pattern::{EdgeBound, MatchRelation, Pattern};
    pub use qpgc_pattern::view::PatternView;
    pub use qpgc_reach::compress::ReachCompression;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn doc_example_compiles_and_runs() {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        let b = g.add_node_with_label("B");
        g.add_edge(a, b);
        let reach = ReachCompression::compress(&g);
        assert!(reach.answer(&ReachQuery::new(a, b)));
        let pat = PatternView::compress(&g);
        let mut q = Pattern::new();
        let qa = q.add_node("A");
        let qb = q.add_node("B");
        q.add_edge(qa, qb, 1);
        assert!(pat.answer(&q).is_some());
    }
}
