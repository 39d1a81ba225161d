//! Build-surface smoke tests.
//!
//! The first PR of this repo had to bootstrap the entire Cargo workspace;
//! these tests exist so that a future manifest, feature, or re-export
//! regression fails immediately and obviously, instead of deep inside a
//! property test. Every public scheme type is constructed and queried on a
//! tiny graph, and the generator entry points are pinned to their
//! fixed-seed determinism contract.

use qpgc::prelude::*;
use qpgc::QueryPreservingCompression;
use qpgc_generators::datasets::dataset;
use qpgc_generators::pattern_gen::{random_pattern, PatternGenConfig};
use qpgc_generators::synthetic::{random_graph, SyntheticConfig};
use qpgc_generators::updates::mixed_batch;

/// A five-node graph with a cycle, a diamond, and two label classes.
fn tiny_graph() -> (LabeledGraph, Vec<NodeId>) {
    let mut g = LabeledGraph::new();
    let n: Vec<NodeId> = ["A", "A", "B", "B", "C"]
        .iter()
        .map(|l| g.add_node_with_label(l))
        .collect();
    g.add_edge(n[0], n[2]);
    g.add_edge(n[1], n[2]);
    g.add_edge(n[2], n[3]);
    g.add_edge(n[3], n[2]);
    g.add_edge(n[3], n[4]);
    (g, n)
}

#[test]
fn reachability_scheme_constructs_and_answers() {
    let (g, n) = tiny_graph();
    let scheme = ReachCompression::compress(&g);
    assert!(scheme.answer(&ReachQuery::new(n[0], n[4])));
    assert!(!scheme.answer(&ReachQuery::new(n[4], n[0])));
    assert!(scheme.compressed_graph().size() <= g.size());
}

#[test]
fn pattern_scheme_constructs_and_answers() {
    let (g, _) = tiny_graph();
    let scheme = PatternView::compress(&g);
    let mut p = Pattern::new();
    let a = p.add_node("A");
    let b = p.add_node("B");
    p.add_edge(a, b, 1);
    let answer = scheme.answer(&p).expect("A -> B matches");
    assert_eq!(answer.matches_of(a).len(), 2);
}

#[test]
fn maintained_reachability_constructs_and_applies() {
    let (g, n) = tiny_graph();
    let mut maintained = MaintainedGraph::new(g, false);
    assert!(!maintained.reach().query(n[4], n[0]));
    let mut batch = UpdateBatch::new();
    batch.insert(n[4], n[0]);
    maintained.apply(&batch);
    assert!(maintained.reach().query(n[4], n[0]));
}

#[test]
fn maintained_pattern_constructs_and_applies() {
    let (g, n) = tiny_graph();
    let mut maintained = MaintainedGraph::new(g, true);
    let mut p = Pattern::new();
    let a = p.add_node("A");
    let c = p.add_node("C");
    p.add_edge(a, c, 3);
    assert!(maintained.match_pattern(&p).is_some());
    let mut batch = UpdateBatch::new();
    batch.delete(n[3], n[4]);
    maintained.apply(&batch);
    assert!(
        maintained.match_pattern(&p).is_none(),
        "C became unreachable"
    );
}

/// Structural fingerprint of a graph: labels plus sorted edge list.
fn fingerprint(g: &LabeledGraph) -> (Vec<String>, Vec<(u32, u32)>) {
    let labels = g
        .nodes()
        .map(|v| g.label_name(v).unwrap_or_default().to_owned())
        .collect();
    let mut edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u.0, v.0)).collect();
    edges.sort_unstable();
    (labels, edges)
}

#[test]
fn generators_are_deterministic_per_seed() {
    let cfg = SyntheticConfig::new(200, 600, 4, 7);
    let (la, ea) = fingerprint(&random_graph(&cfg));
    let (lb, eb) = fingerprint(&random_graph(&cfg));
    assert_eq!(la, lb, "same seed must give the same labels");
    assert_eq!(ea, eb, "same seed must give the same edges");

    let other = SyntheticConfig::new(200, 600, 4, 8);
    assert_ne!(
        fingerprint(&random_graph(&other)).1,
        ea,
        "different seeds should give different graphs"
    );

    let g = random_graph(&cfg);
    assert_eq!(mixed_batch(&g, 25, 3), mixed_batch(&g, 25, 3));
    let pcfg = PatternGenConfig::new(4, 4, 3, 11);
    assert_eq!(random_pattern(&g, &pcfg), random_pattern(&g, &pcfg));
}

#[test]
fn dataset_emulations_are_deterministic_per_seed() {
    for name in ["P2P", "citHepTh"] {
        let a = dataset(name, 400, 0).expect("known dataset");
        let b = dataset(name, 400, 0).expect("known dataset");
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{name} must be reproducible"
        );
    }
}
