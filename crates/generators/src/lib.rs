//! # qpgc-generators
//!
//! Workload generation for the *query preserving graph compression*
//! reproduction: synthetic graph generators, emulators for the real-life
//! datasets used in the paper's evaluation (Section 6), pattern-query
//! generation, graph-evolution models, and update-batch generation.
//!
//! The paper evaluates on graphs downloaded from SNAP / CAIDA / ArnetMiner.
//! Those downloads are not available offline, so [`datasets`] provides a
//! deterministic emulator per dataset that matches the topology *class*
//! (power-law social network, bow-tie web graph, near-DAG citation network,
//! sparse P2P overlay), the label alphabet size and the edge density of the
//! original, scaled down by a configurable factor. The [`datasets`] module
//! docs say why this preserves the shape of the paper's results.
//!
//! All generators are deterministic given their seed.

#![warn(missing_docs)]

pub mod datasets;
pub mod evolution;
pub mod pattern_gen;
pub mod synthetic;
pub mod updates;

pub use datasets::{
    dataset, pattern_dataset, DatasetKind, DatasetSpec, PATTERN_DATASETS, REACHABILITY_DATASETS,
};
pub use pattern_gen::{random_pattern, PatternGenConfig};
pub use synthetic::{citation_graph, power_law_graph, random_graph, web_graph, SyntheticConfig};
pub use updates::{delete_batch, insert_batch, mixed_batch};
