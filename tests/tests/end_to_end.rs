//! End-to-end integration tests on realistic (generated) workloads: the
//! full pipeline of dataset generation → compression → query evaluation →
//! index construction → incremental maintenance, across crates.

use qpgc::prelude::*;
use qpgc::QueryPreservingCompression;
use qpgc_generators::datasets::{dataset, pattern_dataset};
use qpgc_generators::pattern_gen::{random_pattern, PatternGenConfig};
use qpgc_generators::updates::{insert_batch, mixed_batch};
use qpgc_graph::traversal::bfs_reachable;
use qpgc_pattern::bounded::bounded_match;
use qpgc_reach::two_hop::TwoHopIndex;
use qpgc_tests::{canonical, compressed_classes};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn social_network_reachability_pipeline() {
    let g = dataset("socEpinions", 200, 1).expect("dataset");
    let scheme = ReachCompression::compress(&g);

    // The paper's headline: social networks compress dramatically.
    assert!(
        scheme.ratio(&g) < 0.5,
        "social network should compress well, got {:.3}",
        scheme.ratio(&g)
    );

    // Spot-check query preservation on sampled pairs.
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..300 {
        let u = NodeId(rng.gen_range(0..g.node_count()) as u32);
        let v = NodeId(rng.gen_range(0..g.node_count()) as u32);
        assert_eq!(
            scheme.answer(&ReachQuery::new(u, v)),
            bfs_reachable(&g, u, v)
        );
    }

    // A 2-hop index built over Gr answers original queries through F.
    let index = TwoHopIndex::build(scheme.compressed_graph());
    for _ in 0..300 {
        let u = NodeId(rng.gen_range(0..g.node_count()) as u32);
        let v = NodeId(rng.gen_range(0..g.node_count()) as u32);
        let (a, b) = scheme.rewrite(&ReachQuery::new(u, v));
        let via_index = if a == b {
            scheme.answer(&ReachQuery::new(u, v))
        } else {
            index.query(a, b)
        };
        assert_eq!(via_index, bfs_reachable(&g, u, v));
    }
}

#[test]
fn labeled_dataset_pattern_pipeline() {
    let g = pattern_dataset("California", 20, 2).expect("dataset");
    let scheme = PatternView::compress(&g);
    assert!(scheme.ratio(&g) <= 1.0);

    // Generated patterns of the paper's sizes are preserved exactly.
    for size in 3..=6 {
        let p = random_pattern(&g, &PatternGenConfig::new(size, size, 3, size as u64));
        let direct = bounded_match(&g, &p);
        let via = scheme.answer(&p);
        match (direct, via) {
            (None, None) => {}
            (Some(x), Some(y)) => assert_eq!(x.canonical(), y.canonical()),
            (x, y) => panic!(
                "pattern of size {size}: boolean mismatch {} vs {}",
                x.is_some(),
                y.is_some()
            ),
        }
    }
}

#[test]
fn maintained_compressions_survive_realistic_churn() {
    let g = dataset("P2P", 10, 3).expect("dataset");

    let mut maintained = MaintainedGraph::new(g.clone(), true);
    let mut reference = g;

    for step in 0..3u64 {
        let batch = if step % 2 == 0 {
            insert_batch(&reference, 60, step)
        } else {
            mixed_batch(&reference, 60, step)
        };
        maintained.apply(&batch);
        batch.normalized(&reference).apply_to(&mut reference);

        // Both maintained compressions equal their batch counterparts.
        assert_eq!(
            canonical(&maintained.reach().stable_quotient().class_of),
            canonical(
                &qpgc_reach::compress::compress_r(&reference)
                    .partition
                    .class_of
            ),
            "step {step}: reachability drifted"
        );
        assert_eq!(
            canonical(
                &maintained
                    .pattern()
                    .expect("patterns on")
                    .stable_quotient()
                    .class_of
            ),
            compressed_classes(&reference),
            "step {step}: bisimulation drifted"
        );
    }

    // And the final compressed graphs still answer queries correctly.
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..200 {
        let u = NodeId(rng.gen_range(0..reference.node_count()) as u32);
        let v = NodeId(rng.gen_range(0..reference.node_count()) as u32);
        assert_eq!(
            maintained.reach().query(u, v),
            bfs_reachable(&reference, u, v)
        );
    }
}

#[test]
fn compression_ratios_reproduce_paper_ordering() {
    // The qualitative result of Exp-1: reachability compression is much
    // stronger than pattern compression on the same data, and social
    // networks compress better than citation networks for reachability.
    let social = dataset("wikiVote", 50, 0).expect("dataset");
    let citation = dataset("citHepTh", 50, 0).expect("dataset");

    let social_rc = ReachCompression::compress(&social).ratio(&social);
    let citation_rc = ReachCompression::compress(&citation).ratio(&citation);
    assert!(
        social_rc < citation_rc,
        "social {social_rc:.3} should compress better than citation {citation_rc:.3}"
    );

    let labeled = pattern_dataset("Youtube", 200, 0).expect("dataset");
    let pc = PatternView::compress(&labeled).ratio(&labeled);
    let rc = ReachCompression::compress(&labeled).ratio(&labeled);
    assert!(
        rc < pc,
        "reachability compression ({rc:.3}) should be stronger than pattern compression ({pc:.3})"
    );
}
