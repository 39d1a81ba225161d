//! Seeded differential test for the rank-labelled 2-hop index: on ≥100
//! random graphs, every query answered by the index must match
//! `bfs_reachable` on the original graph, and the pruning must prune. The
//! unpruned labelling — each node listing every other node it reaches and
//! every other node that reaches it — holds `2·Σ_u |{w ≠ u : u ⇝* w}|`
//! entries, counted from the same BFS answers: the index never holds more,
//! and across the corpus it holds fewer.

use qpgc_graph::traversal::bfs_reachable;
use qpgc_reach::two_hop::TwoHopIndex;
use qpgc_tests::random_graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn two_hop_matches_bfs_on_100_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0x2_50F);
    let mut unpruned_total = 0usize;
    let mut ranked_total = 0usize;
    for case in 0..110 {
        let g = random_graph(&mut rng, 28, false);
        let ranked = TwoHopIndex::build(&g);

        let mut reachable_pairs = 0usize;
        for u in g.nodes() {
            for w in g.nodes() {
                let expected = bfs_reachable(&g, u, w);
                reachable_pairs += usize::from(expected && u != w);
                assert_eq!(
                    ranked.query(u, w),
                    expected,
                    "case {case}: ranked ({u},{w})"
                );
            }
        }
        let unpruned = 2 * reachable_pairs;
        assert!(
            ranked.label_entries() <= unpruned,
            "case {case}: the index outgrew the unpruned labelling ({} > {unpruned})",
            ranked.label_entries()
        );
        unpruned_total += unpruned;
        ranked_total += ranked.label_entries();
    }
    // Across the whole corpus the pruning must actually prune.
    assert!(
        ranked_total < unpruned_total,
        "pruning pruned nothing across 110 graphs ({ranked_total} vs {unpruned_total})"
    );
}
