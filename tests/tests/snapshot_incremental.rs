//! Oracle suite for snapshot publication across update streams.
//!
//! Every stream drives seeded update batches through one
//! [`CompressedStore`] and checks, at **every version**:
//!
//! * [`Snapshot::check_invariants`] holds (acyclic, transitively reduced
//!   quotient; retired rows isolated; a served 2-hop index agrees with BFS
//!   over `Gr`);
//! * a served 2-hop index equals `TwoHopIndex::build_with` over the served
//!   `Gr` — publication orders its landmarks by counts taken from the
//!   transitive reduction's sweep of the *unreduced* quotient, and that
//!   must be the order (and so the labels) of the standalone build;
//! * the live class count equals the batch compression's (`compress_r` /
//!   `compress_b` on the updated data graph);
//! * every reachability answer matches a BFS oracle on the updated data
//!   graph, with and without the 2-hop index.
//!
//! Streams cover insert-heavy, delete-heavy, and mixed batches over cyclic
//! and DAG-shaped graphs (≥ 100 streams in total), plus a 12-batch chain on
//! one store so retired and recycled class ids accumulate.
//!
//! Pattern-serving streams run the same discipline one query class up:
//! every `match_pattern` answer must equal direct `bounded_match`
//! evaluation on the updated data graph.
//!
//! [`Snapshot::check_invariants`]: qpgc_serve::Snapshot::check_invariants

use qpgc_graph::traversal::bfs_reachable;
use qpgc_graph::{LabeledGraph, NodeId};
use qpgc_pattern::bounded::bounded_match;
use qpgc_pattern::compress::compress_b;
use qpgc_pattern::pattern::{assert_same_answer, Pattern};
use qpgc_reach::compress::compress_r;
use qpgc_reach::two_hop::TwoHopIndex;
use qpgc_serve::{ApplyPath, CompressedStore, StoreConfig};
use qpgc_tests::differential::{random_batch, random_graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts the served cut of `store` against the oracles on `g`.
fn assert_cut_exact(store: &CompressedStore, g: &LabeledGraph, two_hop: bool, ctx: &str) {
    let snap = store.load();
    assert_eq!(snap.check_invariants(), Ok(()), "{ctx}");
    assert_eq!(snap.two_hop().is_some(), two_hop, "{ctx}: index presence");
    if let Some(served) = snap.two_hop() {
        let standalone = TwoHopIndex::build_with(snap.compressed_graph(), &Default::default());
        assert!(*served == standalone, "{ctx}: served index differs");
    }
    assert_eq!(
        snap.class_count(),
        compress_r(g).class_count(),
        "{ctx}: |Vr|"
    );
    for u in g.nodes() {
        for w in g.nodes() {
            assert_eq!(
                snap.reachable(u, w),
                bfs_reachable(g, u, w),
                "{ctx}: wrong on ({u},{w})"
            );
        }
    }
}

/// Runs one stream through a store, asserting the oracles at every
/// version. Returns the apply paths the store took.
fn run_stream(seed: u64, dag: bool, insert_bias: f64, two_hop: bool) -> Vec<ApplyPath> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = random_graph(&mut rng, 22, dag);
    let mut builder = StoreConfig::builder();
    if two_hop {
        builder = builder.two_hop(Default::default());
    }
    let store = CompressedStore::new(g.clone(), builder.build());
    let mut paths = Vec::new();
    for step in 0..4 {
        let count = rng.gen_range(1..5);
        let batch = random_batch(&mut rng, g.node_count(), count, insert_bias, dag);
        let report = store.try_apply(&batch).expect("batch applies");
        batch.apply_to(&mut g);
        assert_eq!(report.version, step + 1);
        assert!(
            !matches!(
                report.path,
                ApplyPath::Rebuilt {
                    pattern_churn: Some(_),
                    ..
                }
            ),
            "seed {seed} step {step}: pattern churn without pattern serving"
        );
        paths.push(report.path);
        assert_cut_exact(&store, &g, two_hop, &format!("seed {seed} step {step}"));
    }
    paths
}

/// 85 streams with the 2-hop index on: 2 shapes × 3 update mixes × 10
/// seeds, plus 25 more mixed cyclic ones. Both publication outcomes — a
/// build and a republish — must actually occur across the suite.
#[test]
fn streams_with_two_hop_stay_oracle_exact() {
    let mut paths = Vec::new();
    for (s, &dag) in [false, true].iter().enumerate() {
        for (m, &bias) in [0.8, 0.2, 0.5].iter().enumerate() {
            for i in 0..10u64 {
                let seed = 1000 + (s as u64) * 100 + (m as u64) * 10 + i;
                paths.extend(run_stream(seed, dag, bias, true));
            }
        }
    }
    for seed in (3000..3020u64).chain(4000..4005) {
        paths.extend(run_stream(seed, false, 0.5, true));
    }
    let built = paths
        .iter()
        .filter(|p| matches!(p, ApplyPath::Rebuilt { .. }))
        .count();
    let republished = paths.len() - built;
    assert!(built > 100, "only {built} built publications");
    assert!(republished > 10, "only {republished} republications");
}

/// 40 more streams without the index, where queries BFS the quotient
/// directly.
#[test]
fn streams_without_index_stay_oracle_exact() {
    for (s, &dag) in [false, true].iter().enumerate() {
        for i in 0..20u64 {
            let seed = 2000 + (s as u64) * 100 + i;
            run_stream(seed, dag, 0.5, false);
        }
    }
}

fn random_labeled_graph(rng: &mut StdRng, n_max: usize) -> LabeledGraph {
    let alphabet = ["A", "B", "C"];
    let n = rng.gen_range(3..n_max);
    let m = rng.gen_range(0..n * 3);
    let mut g = LabeledGraph::new();
    for _ in 0..n {
        g.add_node_with_label(alphabet[rng.gen_range(0..alphabet.len())]);
    }
    for _ in 0..m {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        g.add_edge(NodeId(u), NodeId(v));
    }
    g
}

/// A small query workload over the test alphabet: bounded, unbounded, and a
/// single-node pattern (the last one would expose stale labels on retired
/// quotient rows).
fn pattern_queries() -> Vec<Pattern> {
    let mut queries = Vec::new();
    let mut p = Pattern::new();
    let a = p.add_node("A");
    let b = p.add_node("B");
    p.add_edge(a, b, 1);
    queries.push(p);
    let mut p = Pattern::new();
    let a = p.add_node("A");
    let c = p.add_node("C");
    p.add_edge(a, c, 2);
    queries.push(p);
    let mut p = Pattern::new();
    let b = p.add_node("B");
    let a = p.add_node("A");
    p.add_edge_unbounded(b, a);
    queries.push(p);
    let mut p = Pattern::new();
    p.add_node("C");
    queries.push(p);
    queries
}

/// Runs one labeled stream through a pattern-serving store, asserting at
/// every version that the snapshot invariants hold, that the view has the
/// batch compression's class count, and that every pattern answer matches
/// direct evaluation on the updated data graph. Returns how many
/// publications built a new pattern view.
fn run_pattern_stream(seed: u64, insert_bias: f64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = random_labeled_graph(&mut rng, 18);
    let store = CompressedStore::new(g.clone(), StoreConfig::builder().patterns(true).build());
    let queries = pattern_queries();
    let mut views_built = 0usize;
    for step in 0..4 {
        let count = rng.gen_range(1..5);
        let batch = random_batch(&mut rng, g.node_count(), count, insert_bias, false);
        let report = store.try_apply(&batch).expect("batch applies");
        batch.apply_to(&mut g);
        if matches!(
            report.path,
            ApplyPath::Rebuilt {
                pattern_churn: Some(_),
                ..
            }
        ) {
            views_built += 1;
        }

        let snap = store.load();
        let ctx = format!("seed {seed} step {step}");
        assert_eq!(snap.check_invariants(), Ok(()), "{ctx}");
        let view = snap.pattern_view().expect("pattern serving enabled");
        assert_eq!(view.class_count(), compress_b(&g).class_count(), "{ctx}");

        // Answers: every query against direct evaluation on the updated
        // data graph, full match relations compared (not just booleans).
        for (qi, q) in queries.iter().enumerate() {
            assert_same_answer(
                &bounded_match(&g, q),
                &snap.match_pattern(q),
                &format!("{ctx} query {qi}"),
            );
        }
    }
    views_built
}

/// 53 labeled streams (3 update mixes × 15 seeds, plus 8 more mixed ones)
/// with pattern serving on: `bounded_match`-exact at every version, over
/// views that were built and views that were shared.
#[test]
fn pattern_streams_stay_oracle_exact() {
    let mut views_built = 0usize;
    let mut publications = 0usize;
    for (m, &bias) in [0.8, 0.2, 0.5].iter().enumerate() {
        for i in 0..15u64 {
            views_built += run_pattern_stream(5000 + (m as u64) * 100 + i, bias);
            publications += 4;
        }
    }
    for i in 0..8u64 {
        views_built += run_pattern_stream(6000 + i, 0.5);
        publications += 4;
    }
    assert!(views_built > 60, "only {views_built} views built");
    assert!(
        views_built < publications,
        "no publication shared its predecessor's view"
    );
}

/// Long stream: 12 consecutive publications on one store, so retired and
/// recycled class ids accumulate across many generations.
#[test]
fn long_chains_stay_consistent() {
    let mut rng = StdRng::seed_from_u64(71);
    let mut g = random_graph(&mut rng, 18, false);
    let store = CompressedStore::new(
        g.clone(),
        StoreConfig::builder().two_hop(Default::default()).build(),
    );
    for step in 0..12 {
        let count = rng.gen_range(1..4);
        let batch = random_batch(&mut rng, g.node_count(), count, 0.5, false);
        store.try_apply(&batch).expect("batch applies");
        batch.apply_to(&mut g);
        assert_cut_exact(&store, &g, true, &format!("step {step}"));
    }
}
