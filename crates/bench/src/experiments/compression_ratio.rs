//! Exp-1: effectiveness of the compressions, measured by compression ratio
//! (Table 1, Table 2) plus the headline Fig. 1 summary.

use qpgc_generators::datasets::{PATTERN_DATASETS, REACHABILITY_DATASETS};
use qpgc_generators::pattern_gen::{random_pattern, PatternGenConfig};
use qpgc_pattern::bounded::bounded_match;
use qpgc_pattern::compress::compress_b;
use qpgc_reach::aho::{aho_reduction, scc_graph};
use qpgc_reach::compress::compress_r;

use crate::harness::{best_of, random_pairs, ExperimentResult, Row, RUNS};

/// Table 1: `RCaho`, `RCscc` and `RCr` for the ten reachability datasets.
pub fn table1(scale: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "table1",
        "reachability preserving compression ratios (paper: RCr ≈ 5% average)",
    );
    for spec in REACHABILITY_DATASETS {
        let g = spec.generate(scale, 0);
        let aho = aho_reduction(&g);
        let (gscc, _) = scc_graph(&g);
        let compressed = compress_r(&g);
        let rc_aho = aho.ratio(&g);
        let rc_scc = if gscc.size() == 0 {
            0.0
        } else {
            compressed.graph.size() as f64 / gscc.size() as f64
        };
        let rc_r = compressed.ratio(&g);
        res.push(
            Row::new(spec.name)
                .cell("|V|", g.node_count() as f64)
                .cell("|E|", g.edge_count() as f64)
                .cell("RCaho", rc_aho)
                .cell("RCscc", rc_scc)
                .cell("RCr", rc_r),
        );
    }
    res
}

/// Table 2: `PCr` for the five labeled pattern datasets.
pub fn table2(scale: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "table2",
        "pattern preserving compression ratios (paper: PCr ≈ 43% average)",
    );
    for spec in PATTERN_DATASETS {
        let g = spec.generate(scale, 0);
        let compressed = compress_b(&g);
        res.push(
            Row::new(spec.name)
                .cell("|V|", g.node_count() as f64)
                .cell("|E|", g.edge_count() as f64)
                .cell("|L|", g.label_alphabet_size() as f64)
                .cell("PCr", compressed.ratio(&g)),
        );
    }
    res
}

/// Fig. 1: the P2P network headline — size reduction and query evaluation
/// time reduction for both query classes.
pub fn fig1(scale: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "fig1",
        "P2P network, best of 7, warm: paper reports −94%/−51% size and −93%/−77% query time",
    );
    let spec = REACHABILITY_DATASETS
        .iter()
        .find(|s| s.name == "P2P")
        .expect("P2P spec");
    // Use a finer scale for this small dataset so it is not degenerate.
    let g = spec.generate(scale.min(4), 0);

    // Reachability side: BFS on `G` against `F` + BFS on `Gr`.
    let rc = compress_r(&g);
    let pairs = random_pairs(&g, 400, 1);
    let (_, t_g) = best_of(
        RUNS,
        || (),
        |_| {
            pairs
                .iter()
                .filter(|&&(a, b)| qpgc_graph::traversal::bfs_reachable(&g, a, b))
                .count()
        },
    );
    let (_, t_gr) = best_of(
        RUNS,
        || (),
        |_| pairs.iter().filter(|&&(a, b)| rc.query(a, b)).count(),
    );

    // Pattern side: the P2P data is unlabeled, so PCr reflects structure
    // only. `Match` on `G` runs on its freeze, a CSR as `Gr` is.
    let frozen = g.freeze();
    let pc = compress_b(&g);
    let pattern = random_pattern(&g, &PatternGenConfig::new(4, 4, 3, 7));
    let (_, t_match_g) = best_of(RUNS, || (), |_| bounded_match(&frozen, &pattern));
    let (_, t_match_gr) = best_of(RUNS, || (), |_| pc.answer(&pattern));

    res.push(
        Row::new("size reduction")
            .cell("reach (1-RCr)", 1.0 - rc.ratio(&g))
            .cell("pattern (1-PCr)", 1.0 - pc.ratio(&g)),
    );
    res.push(
        Row::new("query time reduction")
            .cell(
                "reach (1-t_Gr/t_G)",
                1.0 - t_gr.as_secs_f64() / t_g.as_secs_f64().max(1e-9),
            )
            .cell(
                "pattern (1-t_Gr/t_G)",
                1.0 - t_match_gr.as_secs_f64() / t_match_g.as_secs_f64().max(1e-9),
            ),
    );
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reports_all_datasets_and_sane_ratios() {
        let res = table1(400);
        assert_eq!(res.rows.len(), REACHABILITY_DATASETS.len());
        for row in &res.rows {
            let rcr = row.get("RCr").unwrap();
            let rcaho = row.get("RCaho").unwrap();
            assert!(rcr > 0.0 && rcr <= 1.0, "{}: RCr = {rcr}", row.label);
            assert!(
                rcaho > 0.0 && rcaho <= 1.01,
                "{}: RCaho = {rcaho}",
                row.label
            );
            // compressR must never be worse than the AHO baseline (paper's
            // claim "performs significantly better than AHO").
            assert!(
                rcr <= rcaho + 1e-9,
                "{}: RCr {rcr} worse than AHO {rcaho}",
                row.label
            );
        }
    }

    #[test]
    fn table1_social_networks_compress_best() {
        let res = table1(400);
        let get = |name: &str| {
            res.rows
                .iter()
                .find(|r| r.label == name)
                .and_then(|r| r.get("RCr"))
                .unwrap()
        };
        // The paper's qualitative ordering: social networks compress (much)
        // better than citation networks for reachability.
        assert!(get("wikiVote") < get("citHepTh"));
        assert!(get("socEpinions") < get("citHepTh"));
    }

    #[test]
    fn table2_ratios_are_valid() {
        let res = table2(200);
        assert_eq!(res.rows.len(), PATTERN_DATASETS.len());
        for row in &res.rows {
            let pcr = row.get("PCr").unwrap();
            assert!(pcr > 0.0 && pcr <= 1.0, "{}: PCr = {pcr}", row.label);
        }
    }

    #[test]
    fn fig1_reductions_are_positive() {
        let res = fig1(8);
        let size = &res.rows[0];
        assert!(size.get("reach (1-RCr)").unwrap() > 0.3);
        assert!(size.get("pattern (1-PCr)").unwrap() > 0.0);
    }
}
