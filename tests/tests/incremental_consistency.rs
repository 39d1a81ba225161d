//! Property tests for Section 5: incremental maintenance must agree exactly
//! with recompression from scratch, for arbitrary graphs and arbitrary
//! update batches, across repeated applications.

use proptest::prelude::*;
use qpgc::prelude::*;
use qpgc_graph::traversal::bfs_reachable;
use qpgc_pattern::compress::compress_b;
use qpgc_pattern::inc_match::IncrementalMatch;
use qpgc_pattern::incremental::{IncrementalPattern, StablePatternQuotient};
use qpgc_reach::compress::compress_r;
use qpgc_reach::incremental::{IncrementalReach, StableQuotient};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_graph_and_batches(
    max_n: usize,
    batches: usize,
) -> impl Strategy<Value = (LabeledGraph, Vec<UpdateBatch>)> {
    (3..=max_n).prop_flat_map(move |n| {
        let nodes = prop::collection::vec(0..3usize, n);
        let edges = prop::collection::vec((0..n, 0..n), 0..(2 * n));
        let batch = prop::collection::vec((0..n, 0..n, prop::bool::ANY), 1..6);
        let all_batches = prop::collection::vec(batch, 1..=batches);
        (nodes, edges, all_batches).prop_map(move |(nodes, edges, all_batches)| {
            const LABELS: [&str; 3] = ["A", "B", "C"];
            let mut g = LabeledGraph::new();
            for l in nodes {
                g.add_node_with_label(LABELS[l]);
            }
            for (u, v) in edges {
                g.add_edge(NodeId(u as u32), NodeId(v as u32));
            }
            let batches = all_batches
                .into_iter()
                .map(|b| {
                    let mut batch = UpdateBatch::new();
                    for (u, v, ins) in b {
                        if ins {
                            batch.insert(NodeId(u as u32), NodeId(v as u32));
                        } else {
                            batch.delete(NodeId(u as u32), NodeId(v as u32));
                        }
                    }
                    batch
                })
                .collect();
            (g, batches)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `incRCM`: after every batch the maintained compression equals
    /// `compressR(G ⊕ ΔG)` and answers every reachability query correctly.
    #[test]
    fn incremental_reachability_equals_batch((g, batches) in arb_graph_and_batches(12, 3)) {
        let mut maintained = MaintainedGraph::new(g.clone(), false, 1);
        let mut reference = g;
        for batch in &batches {
            maintained.apply(batch);
            batch.normalized(&reference).apply_to(&mut reference);
            let scratch = compress_r(&reference);
            prop_assert_eq!(
                maintained.reach().to_compression().partition.canonical(),
                scratch.partition.canonical()
            );
            for u in reference.nodes() {
                for v in reference.nodes() {
                    prop_assert_eq!(
                        maintained.reach().query(u, v),
                        bfs_reachable(&reference, u, v)
                    );
                }
            }
        }
    }

    /// `incPCM`: after every batch the maintained bisimulation quotient
    /// equals `compressB(G ⊕ ΔG)`.
    #[test]
    fn incremental_pattern_equals_batch((g, batches) in arb_graph_and_batches(12, 3)) {
        let mut maintained = MaintainedGraph::new(g.clone(), true, 1);
        let mut reference = g;
        for batch in &batches {
            maintained.apply(batch);
            batch.normalized(&reference).apply_to(&mut reference);
            let scratch = compress_b(&reference);
            prop_assert_eq!(
                maintained.pattern().expect("patterns on").to_compression().partition.canonical(),
                scratch.partition.canonical()
            );
        }
    }

    /// `IncBMatch`: the incrementally maintained match relation equals a
    /// from-scratch evaluation after every batch.
    #[test]
    fn incremental_match_equals_scratch((g, batches) in arb_graph_and_batches(12, 3)) {
        let mut pattern = Pattern::new();
        let a = pattern.add_node("A");
        let b = pattern.add_node("B");
        let c = pattern.add_node("C");
        pattern.add_edge(a, b, 2);
        pattern.add_edge(b, c, 1);

        let mut reference = g.clone();
        let mut inc = IncrementalMatch::new(&g, pattern.clone());
        for batch in &batches {
            let mut g_for_inc = reference.clone();
            inc.apply(&mut g_for_inc, batch);
            batch.normalized(&reference).apply_to(&mut reference);
            let scratch = qpgc_pattern::bounded::bounded_match(&reference, &pattern);
            match (inc.current(), scratch) {
                (None, None) => {}
                (Some(x), Some(y)) => prop_assert_eq!(x.canonical(), y.canonical()),
                (x, y) => prop_assert!(false, "mismatch: {} vs {}", x.is_some(), y.is_some()),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One graph ≡ two graphs ≡ oracle
// ---------------------------------------------------------------------------

fn assert_same_reach_export(a: &StableQuotient, b: &StableQuotient, ctx: &str) {
    assert_eq!(a.class_of, b.class_of, "{ctx}: reach class_of");
    assert_eq!(a.cyclic, b.cyclic, "{ctx}: reach cyclic flags");
    assert_eq!(a.active, b.active, "{ctx}: reach liveness");
    assert_eq!(a.edges, b.edges, "{ctx}: reach quotient edges");
}

fn assert_same_pattern_export(a: &StablePatternQuotient, b: &StablePatternQuotient, ctx: &str) {
    assert_eq!(a.class_of, b.class_of, "{ctx}: pattern class_of");
    assert_eq!(a.labels, b.labels, "{ctx}: pattern labels");
    assert_eq!(a.active, b.active, "{ctx}: pattern liveness");
    assert_eq!(a.members, b.members, "{ctx}: pattern member rows");
    assert_eq!(a.edges, b.edges, "{ctx}: pattern quotient edges");
}

/// One batch of the mixed stream, by step kind: insert-only with a
/// deliberately implied edge (the redundant-insertion path), delete-heavy,
/// empty, all-no-op, and free-for-all.
fn mixed_stream_batch(rng: &mut StdRng, g: &LabeledGraph, step: usize) -> UpdateBatch {
    let n = g.node_count() as u32;
    let node = |rng: &mut StdRng| NodeId(rng.gen_range(0..n));
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    let mut batch = UpdateBatch::new();
    match step % 5 {
        0 => {
            // An edge implied by an existing non-empty path, when there is
            // one, plus random insertions.
            let implied = g.nodes().find_map(|u| {
                g.out_neighbors(u)
                    .iter()
                    .flat_map(|&v| g.out_neighbors(v).iter().map(move |&w| (u, w)))
                    .find(|&(u, w)| u != w && !g.has_edge(u, w))
            });
            if let Some((u, w)) = implied {
                batch.insert(u, w);
            }
            for _ in 0..rng.gen_range(0..3) {
                batch.insert(node(rng), node(rng));
            }
        }
        1 => {
            for _ in 0..rng.gen_range(2..6) {
                if !edges.is_empty() {
                    let (u, w) = edges[rng.gen_range(0..edges.len())];
                    batch.delete(u, w);
                }
            }
            if rng.gen_bool(0.3) {
                let (u, w) = (node(rng), node(rng));
                if !g.has_edge(u, w) {
                    batch.insert(u, w);
                }
            }
        }
        2 => {}
        3 => {
            // Every update is a no-op against `g`.
            for &(u, w) in edges.iter().take(3) {
                batch.insert(u, w);
            }
            for _ in 0..3 {
                let (u, w) = (node(rng), node(rng));
                if !g.has_edge(u, w) {
                    batch.delete(u, w);
                }
            }
        }
        _ => {
            let mut kinds = std::collections::HashMap::new();
            for _ in 0..rng.gen_range(1..6) {
                let (u, w) = (node(rng), node(rng));
                if *kinds.entry((u, w)).or_insert_with(|| rng.gen_bool(0.5)) {
                    batch.insert(u, w);
                } else {
                    batch.delete(u, w);
                }
            }
        }
    }
    batch
}

/// The single façade (one graph, one normalisation, both maintainers)
/// must be indistinguishable, step by step, from a standalone
/// [`IncrementalReach`] and a standalone [`IncrementalPattern`] each
/// normalising and mutating its own graph copy — identical
/// [`PartitionDelta`](qpgc_graph::PartitionDelta)s and identical stable
/// exports — and both partitions must equal from-scratch compression of
/// the shadow graph. This is what fails if the second maintainer ever sees
/// an already-applied batch as empty.
#[test]
fn one_graph_facade_equals_standalone_maintainers_and_the_oracle() {
    const LABELS: [&str; 3] = ["A", "B", "C"];
    let mut redundant_seen = 0usize;
    let mut empty_seen = 0usize;
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x1FACADE ^ seed);
        let n = rng.gen_range(5..16);
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node_with_label(LABELS[rng.gen_range(0..LABELS.len())]);
        }
        for _ in 0..rng.gen_range(n..3 * n) {
            let u = rng.gen_range(0..n) as u32;
            let w = rng.gen_range(0..n) as u32;
            g.add_edge(NodeId(u), NodeId(w));
        }

        let mut facade = MaintainedGraph::new(g.clone(), true, 1);
        let mut reach_g = g.clone();
        let mut reach = IncrementalReach::new(&reach_g);
        let mut pattern_g = g.clone();
        let mut pattern = IncrementalPattern::new(&pattern_g);
        let mut shadow = g;

        for step in 0..8 {
            let ctx = format!("seed {seed} step {step}");
            let batch = mixed_stream_batch(&mut rng, &shadow, step);
            empty_seen += usize::from(batch.normalized(&shadow).is_empty());
            let stepped = facade.apply(&batch);
            let alone_reach = reach.apply_with_delta(&mut reach_g, &batch);
            let alone_pattern = pattern.apply_with_delta(&mut pattern_g, &batch);
            batch.apply_to(&mut shadow);

            assert_eq!(stepped.reach, alone_reach, "{ctx}: reach step diverged");
            assert_eq!(
                stepped.pattern.as_ref(),
                Some(&alone_pattern),
                "{ctx}: pattern step diverged"
            );
            redundant_seen += alone_reach.0.redundant_dropped;

            assert_same_reach_export(
                &facade.reach().stable_quotient(),
                &reach.stable_quotient(),
                &ctx,
            );
            assert_same_pattern_export(
                &facade.pattern().expect("patterns on").stable_quotient(),
                &pattern.stable_quotient(),
                &ctx,
            );

            let sorted_edges = |g: &LabeledGraph| {
                let mut edges: Vec<_> = g.edges().collect();
                edges.sort_unstable();
                edges
            };
            assert_eq!(
                sorted_edges(facade.graph()),
                sorted_edges(&shadow),
                "{ctx}: façade graph drifted from the shadow"
            );
            assert_eq!(
                facade.reach().to_compression().partition.canonical(),
                compress_r(&shadow).partition.canonical(),
                "{ctx}: reachability partition vs compress_r"
            );
            assert_eq!(
                facade
                    .pattern()
                    .expect("patterns on")
                    .to_compression()
                    .partition
                    .canonical(),
                compress_b(&shadow).partition.canonical(),
                "{ctx}: bisimulation partition vs compress_b"
            );
        }
    }
    assert!(
        redundant_seen > 0,
        "no stream hit the redundant-insertion path"
    );
    assert!(empty_seen > 0, "no stream normalised to an empty batch");
}
