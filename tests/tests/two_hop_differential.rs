//! Seeded differential test for the rank-labelled 2-hop index: on ≥100
//! random graphs, every query answered by the index (and by the legacy
//! node-id build) must match `bfs_reachable` on the original graph, and the
//! rank-labelled index must never be larger than the legacy one.

use qpgc_graph::traversal::bfs_reachable;
use qpgc_reach::two_hop::TwoHopIndex;
use qpgc_tests::random_graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn two_hop_matches_bfs_on_100_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0x2_50F);
    let mut legacy_total = 0usize;
    let mut ranked_total = 0usize;
    for case in 0..110 {
        let g = random_graph(&mut rng, 28, false);
        let ranked = TwoHopIndex::build(&g);
        let legacy = TwoHopIndex::build_with_node_id_labels(&g);

        assert!(
            ranked.label_entries() <= legacy.label_entries(),
            "case {case}: rank labels grew the index ({} > {})",
            ranked.label_entries(),
            legacy.label_entries()
        );
        legacy_total += legacy.label_entries();
        ranked_total += ranked.label_entries();

        for u in g.nodes() {
            for w in g.nodes() {
                let expected = bfs_reachable(&g, u, w);
                assert_eq!(
                    ranked.query(u, w),
                    expected,
                    "case {case}: ranked ({u},{w})"
                );
                assert_eq!(
                    legacy.query(u, w),
                    expected,
                    "case {case}: legacy ({u},{w})"
                );
            }
        }
    }
    // Across the whole corpus the fixed pruning must actually prune.
    assert!(
        ranked_total < legacy_total,
        "rank fix pruned nothing across 110 graphs ({ranked_total} vs {legacy_total})"
    );
}
