//! # qpgc_bench
//!
//! The reproduction harness for the paper's evaluation (Section 6): one
//! experiment function per table and figure, printed as paper-style tables
//! by the `reproduce` binary.
//!
//! Every experiment runs on the *emulated* datasets of `qpgc_generators`
//! (scaled-down stand-ins for the SNAP/CAIDA/ArnetMiner downloads the paper
//! used — see [`qpgc_generators::datasets`]), so absolute numbers differ
//! from the paper; the quantities to compare are the relative ones the
//! paper reports (compression ratios, query-time reductions, crossover
//! points).
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p qpgc_bench --bin reproduce -- all
//! ```
//!
//! or a single experiment, e.g. `… -- table1` or `… -- fig12e`. The
//! `QPGC_SCALE` environment variable controls the down-scaling factor of
//! the dataset emulations (default 100; smaller = bigger graphs).

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

pub use harness::{scale_from_env, ExperimentResult, Row};
