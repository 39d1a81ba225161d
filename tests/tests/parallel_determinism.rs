//! What `StoreConfig::threads` cannot reach, pinned at the store level.
//!
//! The knob shards store-level bulk reads across workers and nothing else:
//! compression, maintenance and publication run on the writer's thread, so
//! no published structure may depend on it. This suite drives the same
//! seeded update streams through whole [`CompressedStore`]s configured at
//! 1, 2, and 4 threads and asserts the *published snapshots* coincide at
//! every version — which also pins that two stores fed one stream publish
//! the same bits (stable ids are a pure function of the stream):
//!
//! * the quotient CSR edge-for-edge and the stable class index node for
//!   node,
//! * the pattern view (quotient edges, row labels, node index) when
//!   serving patterns,
//! * the 2-hop index's landmark order, entry count, and every pairwise
//!   answer when the index is enabled.
//!
//! The sharded router gets the same treatment one level up: identical
//! streams publish cuts of identical heap size and identical answers.

use qpgc_graph::{LabeledGraph, NodeId};
use qpgc_serve::{CompressedStore, ShardedStore, StoreConfig};
use qpgc_tests::differential::random_batch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LABELS: [&str; 4] = ["A", "B", "C", "D"];

fn random_labeled_graph(rng: &mut StdRng, n_max: usize) -> LabeledGraph {
    let n = rng.gen_range(4..n_max);
    let m = rng.gen_range(n..n * 3);
    let mut g = LabeledGraph::new();
    for _ in 0..n {
        g.add_node_with_label(LABELS[rng.gen_range(0..LABELS.len())]);
    }
    for _ in 0..m {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        g.add_edge(NodeId(u), NodeId(v));
    }
    g
}

/// Drives one seeded stream through three stores differing only in
/// `threads` and asserts every published snapshot is identical across
/// them.
fn run_thread_differential(seed: u64, patterns: bool, two_hop: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = random_labeled_graph(&mut rng, 20);
    let config = |threads: usize| {
        let mut builder = StoreConfig::builder().threads(threads);
        if patterns {
            builder = builder.patterns(true);
        }
        if two_hop {
            builder = builder.two_hop(Default::default());
        }
        builder.build()
    };
    let stores: Vec<CompressedStore> = [1usize, 2, 4]
        .iter()
        .map(|&t| CompressedStore::new(g.clone(), config(t)))
        .collect();
    for step in 0..4 {
        let count = rng.gen_range(1..5);
        let batch = random_batch(&mut rng, g.node_count(), count, 0.6, false);
        for store in &stores {
            store.try_apply(&batch).expect("batch applies");
        }
        batch.apply_to(&mut g);

        let base = stores[0].load();
        assert_eq!(base.check_invariants(), Ok(()), "seed {seed} step {step}");
        for (si, store) in stores.iter().enumerate().skip(1) {
            let snap = store.load();
            let tag = format!("seed {seed} step {step} store {si}");
            assert_eq!(snap.version(), base.version(), "{tag}: version");
            assert_eq!(snap.check_invariants(), Ok(()), "{tag}");
            assert_eq!(
                snap.compressed_graph().edges().collect::<Vec<_>>(),
                base.compressed_graph().edges().collect::<Vec<_>>(),
                "{tag}: quotient edges diverged across `threads` settings"
            );
            assert_eq!(snap.class_count(), base.class_count(), "{tag}: class count");
            for v in g.nodes() {
                assert_eq!(snap.class_of(v), base.class_of(v), "{tag}: class_of({v})");
            }
            match (snap.pattern_view(), base.pattern_view()) {
                (Some(pv), Some(bv)) => {
                    assert_eq!(
                        pv.graph().edges().collect::<Vec<_>>(),
                        bv.graph().edges().collect::<Vec<_>>(),
                        "{tag}: pattern quotient diverged"
                    );
                    assert_eq!(
                        pv.graph().labels(),
                        bv.graph().labels(),
                        "{tag}: pattern row labels diverged"
                    );
                    for v in g.nodes() {
                        assert_eq!(pv.class_of(v), bv.class_of(v), "{tag}: pattern index {v}");
                    }
                }
                (None, None) => {}
                _ => panic!("{tag}: pattern view present in one store only"),
            }
            match (snap.two_hop(), base.two_hop()) {
                (Some(idx), Some(bidx)) => {
                    // The index is a pure function of the quotient CSR,
                    // just asserted equal.
                    assert_eq!(
                        idx.landmark_order(),
                        bidx.landmark_order(),
                        "{tag}: 2-hop landmark order diverged"
                    );
                    assert_eq!(
                        idx.label_entries(),
                        bidx.label_entries(),
                        "{tag}: 2-hop entry count diverged"
                    );
                    // The index is keyed by quotient class ids, and the
                    // class index was just asserted equal — so probing
                    // both indexes at the same class pair is well-typed.
                    for u in g.nodes() {
                        for w in g.nodes() {
                            let (Some(cu), Some(cw)) = (base.class_of(u), base.class_of(w)) else {
                                continue;
                            };
                            assert_eq!(
                                idx.query(NodeId(cu), NodeId(cw)),
                                bidx.query(NodeId(cu), NodeId(cw)),
                                "{tag}: 2-hop answer diverged on ({u},{w})"
                            );
                        }
                    }
                }
                (None, None) => {}
                _ => panic!("{tag}: 2-hop index present in one store only"),
            }
        }
    }
}

/// Streams with the 2-hop index: the quotient CSR, and the index built
/// over it on every batch, are the same at every `threads` setting.
#[test]
fn two_hop_streams_are_thread_count_invariant() {
    for i in 0..10 {
        run_thread_differential(9100 + i, false, true);
    }
}

/// Pattern-serving streams: both maintainers, and the views built from
/// their exports.
#[test]
fn pattern_streams_are_thread_count_invariant() {
    for i in 0..10 {
        run_thread_differential(9200 + i, true, false);
    }
}

/// Everything on at once — patterns and the 2-hop index in the same
/// stream.
#[test]
fn combined_streams_are_thread_count_invariant() {
    for i in 0..10 {
        run_thread_differential(9300 + i, true, true);
    }
}

/// The sharded router: the boundary summary numbers its vertices and
/// interns its rows as a pure function of the cut, so two stores fed the
/// same stream — at one thread or at two — publish cuts of equal
/// `heap_bytes()` and equal answers at every version.
#[test]
fn sharded_streams_are_deterministic_at_any_thread_count() {
    for seed in 9400..9410 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = random_labeled_graph(&mut rng, 20);
        let stores: Vec<ShardedStore> = [1usize, 1, 2, 2]
            .iter()
            .map(|&threads| {
                let config = StoreConfig::builder()
                    .shards(2)
                    .threads(threads)
                    .two_hop(Default::default())
                    .build();
                ShardedStore::new(g.clone(), config).unwrap()
            })
            .collect();
        for step in 0..4 {
            let count = rng.gen_range(1..5);
            let batch = random_batch(&mut rng, g.node_count(), count, 0.6, false);
            for store in &stores {
                store.try_apply(&batch).expect("batch applies");
            }
            batch.apply_to(&mut g);
            let base = stores[0].load();
            for (si, store) in stores.iter().enumerate().skip(1) {
                let cut = store.load();
                let tag = format!("seed {seed} step {step} store {si}");
                assert_eq!(cut.watermark(), base.watermark(), "{tag}: watermark");
                assert_eq!(cut.heap_bytes(), base.heap_bytes(), "{tag}: heap bytes");
                for u in g.nodes() {
                    for w in g.nodes() {
                        assert_eq!(
                            cut.reachable(u, w),
                            base.reachable(u, w),
                            "{tag}: ({u},{w})"
                        );
                    }
                }
            }
        }
    }
}
