//! # qpgc-graph
//!
//! Labeled directed graph substrate for the *query preserving graph
//! compression* system (Fan, Li, Wang, Wu — SIGMOD 2012).
//!
//! This crate provides everything the compression schemes in `qpgc-reach`
//! and `qpgc-pattern` need from a graph library, built from scratch:
//!
//! * [`LabeledGraph`] — a mutable labeled directed graph `G = (V, E, L)` with
//!   interned node labels, forward and reverse adjacency, and edge-level
//!   updates (the unit of change in the paper's incremental maintenance).
//! * [`CsrGraph`] — an immutable compressed-sparse-row snapshot for
//!   cache-friendly read-mostly algorithms, built by [`LabeledGraph::freeze`]
//!   or bulk-loaded with [`CsrGraph::from_edges`] (see the [`csr`] module
//!   docs for when to freeze versus when to stay mutable).
//! * [`view::GraphView`] — the read-only trait both representations
//!   implement; every batch algorithm below is generic over it.
//! * [`traversal`] — BFS, DFS, bidirectional BFS and bounded-depth BFS, the
//!   reachability-query evaluation algorithms used in the paper's Exp-2.
//! * [`scc`] — Tarjan strongly connected components and the condensation
//!   graph `Gscc` (Section 3.2 optimization, Section 5.2 rank machinery).
//! * [`partition`] — deterministic hash partitioning of the node space
//!   across store shards, with boundary-edge extraction (the substrate of
//!   the sharded serving router in `qpgc_serve`).
//! * [`quotient`] — the equivalence-independent skeleton of incremental
//!   quotient maintenance ([`IncrementalQuotient`] over an [`Equivalence`]):
//!   stable-id class table, cone walks, the cut of the affected classes
//!   into units, the hybrid-graph regroup, and the [`PartitionDelta`] the
//!   splice emits — shared by `incRCM` and `incPCM`.
//! * [`rank`] — bisimulation ranks `rb(v)` with the well-founded /
//!   non-well-founded split (Lemma 9).
//! * [`id_set`] — [`IdRows`], one id set per row, each a sorted list or a
//!   bitmap as its own length asks: the rows of every reachability closure.
//! * [`reach_sets`] — ancestor/descendant sweeps over a DAG into
//!   [`IdRows`], the workhorse behind the reachability equivalence relation.
//! * [`transitive`] — the unique transitive reduction of a DAG.
//! * [`io`] — a plain-text edge-list format with labels, for persisting the
//!   synthetic datasets used by the benchmark harness.
//! * [`stats`] — the compression ratio `|Gr| / |G|` over the paper's size
//!   measure `|G| = |V| + |E|`.
//!
//! ## Quick example
//!
//! ```
//! use qpgc_graph::{LabeledGraph, traversal};
//!
//! let mut g = LabeledGraph::new();
//! let a = g.add_node_with_label("A");
//! let b = g.add_node_with_label("B");
//! let c = g.add_node_with_label("C");
//! g.add_edge(a, b);
//! g.add_edge(b, c);
//!
//! assert!(traversal::bfs_reachable(&g, a, c));
//! assert!(!traversal::bfs_reachable(&g, c, a));
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod codec;
pub mod csr;
pub mod error;
pub mod graph;
pub mod id_set;
pub mod ids;
pub mod io;
pub mod partition;
pub mod quotient;
pub mod rank;
pub mod reach_sets;
pub mod scc;
pub mod stats;
pub mod succinct;
pub mod transitive;
pub mod traversal;
pub mod update;
pub mod view;

pub use bitset::BitMatrix;
pub use csr::CsrGraph;
pub use error::GraphError;
pub use graph::LabeledGraph;
pub use id_set::{IdRows, IdSet, RowBuilder};
pub use ids::{Label, NodeId};
pub use partition::NodePartition;
pub use quotient::{Classes, Cut, Equivalence, Group, IncStats, IncrementalQuotient, Regrouped};
pub use scc::Condensation;
pub use succinct::CompressedCsr;
pub use update::{BatchError, PartitionDelta, Update, UpdateBatch};
pub use view::GraphView;
