//! One function per table / figure of the paper's evaluation.
//!
//! | function | paper artefact |
//! |---|---|
//! | [`compression_ratio::fig1`] | Fig. 1 — P2P network size & query-time reduction |
//! | [`compression_ratio::table1`] | Table 1 — reachability compression ratios |
//! | [`compression_ratio::table2`] | Table 2 — pattern compression ratios |
//! | [`query_time::fig12a`] | Fig. 12(a) — BFS/BIBFS on `G` vs `Gr` |
//! | [`query_time::fig12b`] | Fig. 12(b) — `Match` on real-life graphs vs compressed |
//! | [`query_time::fig12c`] | Fig. 12(c) — `Match` on synthetic graphs vs compressed |
//! | [`query_time::fig12d`] | Fig. 12(d) — memory cost of `G`, `Gr` and 2-hop indexes |
//! | [`incremental::fig12e`] | Fig. 12(e) — `incRCM` vs `compressR`, insertions |
//! | [`incremental::fig12f`] | Fig. 12(f) — `incRCM` vs `compressR`, deletions |
//! | [`incremental::fig12g`] | Fig. 12(g) — `incPCM` vs `IncBsim` vs `compressB` |
//! | [`incremental::fig12h`] | Fig. 12(h) — `IncBMatch` on `G` vs `incPCM`+`Match` on `Gr` |
//! | [`evolution::fig12i`] | Fig. 12(i) — `RCr` under densification growth |
//! | [`evolution::fig12j`] | Fig. 12(j) — `RCr` under power-law growth of real graphs |
//! | [`evolution::fig12k`] | Fig. 12(k) — `PCr` under densification growth |
//! | [`evolution::fig12l`] | Fig. 12(l) — `PCr` under power-law growth of real graphs |
//! | [`scale_ladder::scale_ladder`] | none — store batches on graphs past the benchmark's sizes |

pub mod compression_ratio;
pub mod evolution;
pub mod incremental;
pub mod query_time;
pub mod scale_ladder;

use crate::harness::ExperimentResult;

/// Every experiment id accepted by the `reproduce` binary.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig1",
    "table1",
    "table2",
    "fig12a",
    "fig12b",
    "fig12c",
    "fig12d",
    "fig12e",
    "fig12f",
    "fig12g",
    "fig12h",
    "fig12i",
    "fig12j",
    "fig12k",
    "fig12l",
    "scale_ladder",
];

/// Runs one experiment by id at the given dataset scale.
pub fn run(id: &str, scale: usize) -> Option<ExperimentResult> {
    match id {
        "fig1" => Some(compression_ratio::fig1(scale)),
        "table1" => Some(compression_ratio::table1(scale)),
        "table2" => Some(compression_ratio::table2(scale)),
        "fig12a" => Some(query_time::fig12a(scale)),
        "fig12b" => Some(query_time::fig12b(scale)),
        "fig12c" => Some(query_time::fig12c(scale)),
        "fig12d" => Some(query_time::fig12d(scale)),
        "fig12e" => Some(incremental::fig12e(scale)),
        "fig12f" => Some(incremental::fig12f(scale)),
        "fig12g" => Some(incremental::fig12g(scale)),
        "fig12h" => Some(incremental::fig12h(scale)),
        "fig12i" => Some(evolution::fig12i()),
        "fig12j" => Some(evolution::fig12j(scale)),
        "fig12k" => Some(evolution::fig12k()),
        "fig12l" => Some(evolution::fig12l(scale)),
        "scale_ladder" => Some(scale_ladder::scale_ladder(scale)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run("nope", 100).is_none());
    }

    // Slow (runs every experiment end to end, ~10 s even at tiny scale):
    // kept out of the default `cargo test` wall-clock per the ROADMAP;
    // CI runs it explicitly via `cargo test -- --ignored`.
    #[test]
    #[ignore = "slow experiment sweep; CI runs it via `cargo test -- --ignored`"]
    fn every_listed_experiment_runs_at_tiny_scale() {
        // A very coarse smoke test: every experiment must at least produce
        // rows when run on heavily scaled-down data.
        for id in ALL_EXPERIMENTS {
            let res = run(id, 400).unwrap_or_else(|| panic!("{id} missing"));
            assert!(!res.rows.is_empty(), "{id} produced no rows");
        }
    }
}
