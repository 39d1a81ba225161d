//! # qpgc-reach
//!
//! Reachability-preserving graph compression (Section 3 of *Query Preserving
//! Graph Compression*, Fan et al., SIGMOD 2012), plus the baselines and
//! index structures the paper evaluates against, and the incremental
//! maintenance algorithm of Section 5.1.
//!
//! The pieces:
//!
//! * [`equivalence`] — the reachability equivalence relation `Re`: two nodes
//!   are equivalent iff they have the same proper ancestors and the same
//!   proper descendants. Computed through the SCC condensation with chunked
//!   bit-set signatures.
//! * [`compress`] — `compressR` (Fig. 5): the compression function `R`
//!   producing the quotient graph `Gr` with transitively-reduced edges, the
//!   constant-time query rewriting `F`, and query evaluation on `Gr` with
//!   any standard reachability algorithm.
//! * [`aho`] — the `AHO` baseline (minimum equivalent graph via SCC
//!   collapse + transitive reduction) and the `RCscc` measurement.
//! * [`two_hop`] — a pruned-landmark 2-hop reachability labelling, used for
//!   the index memory comparison of Fig. 12(d).
//! * [`incremental`] — `incRCM` (Fig. 8): incremental maintenance of the
//!   compression under batch edge updates, touching only the compressed
//!   graph, the update batch, and the adjacency of affected nodes.
//! * [`closure`] — the closure of the maintained quotient, swept once per
//!   batch: what a step regroups its affected units against and what the
//!   publication after it builds from.
//!
//! ## Example
//!
//! ```
//! use qpgc_graph::LabeledGraph;
//! use qpgc_reach::compress::compress_r;
//!
//! // A diamond: the two middle nodes are reachability equivalent.
//! let mut g = LabeledGraph::new();
//! let a = g.add_node_with_label("A");
//! let b1 = g.add_node_with_label("B");
//! let b2 = g.add_node_with_label("B");
//! let c = g.add_node_with_label("C");
//! g.add_edge(a, b1);
//! g.add_edge(a, b2);
//! g.add_edge(b1, c);
//! g.add_edge(b2, c);
//!
//! let compressed = compress_r(&g);
//! assert_eq!(compressed.graph.node_count(), 3); // {a}, {b1,b2}, {c}
//! // Every reachability query is preserved.
//! assert!(compressed.query(a, c));
//! assert!(!compressed.query(c, a));
//! assert!(!compressed.query(b1, b2));
//! ```

#![warn(missing_docs)]

pub mod aho;
pub mod closure;
pub mod compress;
pub mod equivalence;
pub mod incremental;
pub mod two_hop;

pub use compress::{compress_r, ReachCompression};
pub use equivalence::reachability_partition;
pub use incremental::{IncStats, IncrementalReach};
pub use two_hop::{TwoHopConfig, TwoHopIndex};
