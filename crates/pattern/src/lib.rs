//! # qpgc-pattern
//!
//! Graph-pattern preserving compression (Section 4 of *Query Preserving
//! Graph Compression*, Fan et al., SIGMOD 2012) together with the pattern
//! query machinery the paper evaluates with, and the incremental
//! maintenance algorithm of Section 5.2.
//!
//! The pieces:
//!
//! * [`pattern`] — graph pattern queries `Qp = (Vp, Ep, fv, fe)` with edge
//!   bounds `k` or `*`, and the match-relation result type.
//! * [`bisim`] — the maximum bisimulation relation `Rb`, computed by
//!   rank-stratified signature refinement (Dovier–Piazza–Policriti style).
//! * [`compress`] — `compressB` (Fig. 7): the compression function `R`,
//!   returning the served [`PatternView`].
//! * [`bounded`] — bounded simulation `Match` (Fan et al., PVLDB 2010), the
//!   pattern matching algorithm of the paper; graph simulation
//!   (Henzinger–Henzinger–Kopke) is its special case where every edge bound
//!   is 1.
//! * [`incremental`] — `incPCM` (Fig. 10): incremental maintenance of the
//!   compression under batch updates, plus the `IncBsim` baseline.
//! * [`inc_match`] — `IncBMatch`: incremental maintenance of a pattern
//!   query's match relation under updates (the baseline of Fig. 12(h)).
//! * [`view`] — [`PatternView`]: the one materialised
//!   form of the compression (stable-id CSR quotient, built from
//!   `compressB`'s partition or the maintainer's export), carrying the
//!   identity rewriting `F` and the post-processing function `P` that
//!   expands hypernodes back to original nodes; serving layers publish it.
//!
//! ## Example
//!
//! ```
//! use qpgc_graph::LabeledGraph;
//! use qpgc_pattern::compress::compress_b;
//! use qpgc_pattern::pattern::Pattern;
//! use qpgc_pattern::bounded::bounded_match;
//!
//! // Two bisimilar "BSA" nodes that each recommend an "FA".
//! let mut g = LabeledGraph::new();
//! let b1 = g.add_node_with_label("BSA");
//! let b2 = g.add_node_with_label("BSA");
//! let f1 = g.add_node_with_label("FA");
//! let f2 = g.add_node_with_label("FA");
//! g.add_edge(b1, f1);
//! g.add_edge(b2, f2);
//!
//! let compressed = compress_b(&g);
//! assert_eq!(compressed.class_count(), 2); // {b1,b2}, {f1,f2}
//!
//! // A one-edge pattern BSA -> FA evaluated on the compressed graph and
//! // post-processed gives exactly the matches on the original graph.
//! let mut p = Pattern::new();
//! let qb = p.add_node("BSA");
//! let qf = p.add_node("FA");
//! p.add_edge(qb, qf, 1);
//!
//! let on_g = bounded_match(&g, &p).unwrap();
//! let on_gr = bounded_match(compressed.graph(), &p).unwrap();
//! let expanded = compressed.post_process(&on_gr);
//! assert_eq!(on_g.canonical(), expanded.canonical());
//! ```

#![warn(missing_docs)]

pub mod bisim;
pub mod bounded;
pub mod compress;
pub mod inc_match;
pub mod incremental;
pub mod pattern;
pub mod view;

pub use bisim::bisimulation_partition_csr;
pub use bounded::bounded_match;
pub use compress::compress_b;
pub use inc_match::IncrementalMatch;
pub use incremental::{IncStats, IncrementalPattern, StablePatternQuotient};
pub use pattern::{EdgeBound, MatchRelation, Pattern};
pub use view::PatternView;

#[cfg(test)]
mod simulation;
