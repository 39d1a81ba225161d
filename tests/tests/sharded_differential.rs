//! Differential suite for the sharded store.
//!
//! Every stream drives the *same* seeded update batches through a
//! [`ShardedStore`] and a single [`CompressedStore`] built from the same
//! initial graph, and checks at **every version** that both are all-pairs
//! BFS-exact on the updated data graph — which also proves the two
//! backends bit-identical to each other — and that bulk answers equal
//! single-query answers at one watermark. Streams cover `N ∈ {1, 2, 4}`
//! shards, insert-heavy, delete-heavy, and mixed batches, cyclic and
//! DAG-shaped graphs, and three shard-snapshot backends — plain BFS,
//! plain with a 2-hop index, succinct rows (the boundary summary reads the
//! shards' quotient *rows*, so the backend matters to it) — 270
//! cross-backend streams in total, plus targeted boundary-edge churn:
//! batches built *only* from cross-shard edges, so the shard subgraphs
//! stay untouched while the boundary summary does all the work.
//!
//! [`ShardedStore`]: qpgc_serve::ShardedStore
//! [`CompressedStore`]: qpgc_serve::CompressedStore

use qpgc_graph::traversal::bfs_reachable;
use qpgc_graph::{LabeledGraph, NodeId, NodePartition, UpdateBatch};
use qpgc_serve::{CompressedStore, ReachStore, ShardedStore, SnapshotFormat, StoreConfig};
use qpgc_tests::differential::Stream;

/// What the shard snapshots serve their quotient from.
#[derive(Clone, Copy)]
enum Backend {
    PlainBfs,
    PlainTwoHop,
    Succinct,
}

fn sharded_config(shards: usize, backend: Backend) -> StoreConfig {
    let builder = StoreConfig::builder().shards(shards);
    match backend {
        Backend::PlainBfs => builder,
        Backend::PlainTwoHop => builder.two_hop(Default::default()),
        Backend::Succinct => builder.snapshot_format(SnapshotFormat::Succinct),
    }
    .build()
}

/// Every shard snapshot of the served cut sits at the cut's watermark:
/// every shard stages its (possibly empty) slice of every batch.
fn shard_versions_are_the_watermark(store: &ShardedStore) {
    let cut = store.load();
    for (shard, snap) in cut.shard_snapshots().iter().enumerate() {
        assert_eq!(
            snap.version(),
            cut.watermark(),
            "shard {shard} is behind the watermark"
        );
    }
}

/// 270 seeded streams: shard counts × topology × insert bias × backend,
/// each replayed against a single store and the BFS oracle at every
/// version, with every shard snapshot checked against the watermark.
#[test]
fn sharded_matches_single_store_and_bfs_everywhere() {
    let mut streams = 0usize;
    for shards in [1usize, 2, 4] {
        for dag in [false, true] {
            for insert_bias in [0.8, 0.5, 0.2] {
                for (b, backend) in [Backend::PlainBfs, Backend::PlainTwoHop, Backend::Succinct]
                    .into_iter()
                    .enumerate()
                {
                    for case in 0..5u64 {
                        let stream = Stream {
                            seed: 0x5AD * (case + 1)
                                + shards as u64 * 1009
                                + dag as u64 * 31
                                + b as u64 * 7
                                + (insert_bias * 10.0) as u64,
                            dag,
                            insert_bias,
                            steps: 4,
                            max_nodes: 22,
                        };
                        stream.drive_pair(
                            |g| CompressedStore::new(g, sharded_config(1, backend)),
                            |g| ShardedStore::new(g, sharded_config(shards, backend)).unwrap(),
                            shard_versions_are_the_watermark,
                        );
                        streams += 1;
                    }
                }
            }
        }
    }
    assert_eq!(streams, 270);
}

/// Boundary-edge churn: batches made exclusively of cross-shard edges.
/// The shards see only empty slices (their subgraphs never change),
/// so every answer change must flow through the boundary summary — and the
/// watermark must still advance on every batch.
#[test]
fn pure_cross_shard_churn_is_bfs_exact() {
    let shards = 4usize;
    let part = NodePartition::new(shards);
    let n = 30u32;
    let mut g = LabeledGraph::new();
    for _ in 0..n {
        g.add_node_with_label("X");
    }
    // Start from an intra-heavy base so local segments exist.
    for i in 0..n - 1 {
        if !part.is_boundary(NodeId(i), NodeId(i + 1)) {
            g.add_edge(NodeId(i), NodeId(i + 1));
        }
    }
    let cross_pairs: Vec<(NodeId, NodeId)> = (0..n)
        .flat_map(|u| (0..n).map(move |v| (NodeId(u), NodeId(v))))
        .filter(|&(u, v)| part.is_boundary(u, v))
        .collect();
    assert!(cross_pairs.len() > 100, "partition produced no cross pairs");

    let store =
        ShardedStore::new(g.clone(), StoreConfig::builder().shards(shards).build()).unwrap();
    let single = CompressedStore::new(g.clone(), StoreConfig::default());
    // Insert a deterministic spread of cross edges, then delete every
    // third one, checking all pairs at every version.
    let phases: Vec<UpdateBatch> = {
        let picked: Vec<(NodeId, NodeId)> = cross_pairs.iter().step_by(17).copied().collect();
        let mut inserts = UpdateBatch::new();
        for &(u, v) in &picked {
            inserts.insert(u, v);
        }
        let mut deletes = UpdateBatch::new();
        for &(u, v) in picked.iter().step_by(3) {
            deletes.delete(u, v);
        }
        vec![inserts, deletes]
    };
    for (step, batch) in phases.iter().enumerate() {
        let report = store.try_apply(batch).expect("batch applies");
        single.try_apply(batch).expect("batch applies");
        batch.apply_to(&mut g);
        assert_eq!(report.version, step as u64 + 1);
        assert_eq!(store.watermark(), step as u64 + 1);
        // Every shard took the cheap republish path: its slice was empty.
        for shard in &report.shards {
            assert_eq!(
                shard.path,
                qpgc_serve::ApplyPath::Republished,
                "step {step}: cross-only batches must not touch shard {}",
                shard.shard
            );
        }
        let cut = store.load();
        for u in g.nodes() {
            for w in g.nodes() {
                let expected = bfs_reachable(&g, u, w);
                assert_eq!(cut.reachable(u, w), expected, "step {step}: ({u},{w})");
                assert_eq!(
                    single.reachable(u, w),
                    expected,
                    "step {step}: single store disagrees on ({u},{w})"
                );
            }
        }
    }
    // The boundary graph emptied out partially but the cut stayed exact;
    // now drain every remaining cross edge and the boundary must go quiet.
    let mut drain = UpdateBatch::new();
    for &(u, v) in cross_pairs.iter() {
        drain.delete(u, v);
    }
    store.try_apply(&drain).expect("batch applies");
    drain.apply_to(&mut g);
    let cut = store.load();
    assert_eq!(cut.boundary().vertex_count(), 0);
    for u in g.nodes() {
        for w in g.nodes() {
            assert_eq!(cut.reachable(u, w), bfs_reachable(&g, u, w));
        }
    }
}

/// The trait object/static-dispatch surface: the same generic function
/// drives both backends (this is what the harness and bench rely on).
#[test]
fn reach_store_generic_code_serves_both_backends() {
    fn census<S: ReachStore>(store: &S, n: u32) -> usize {
        let queries: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|u| (0..n).map(move |v| (NodeId(u), NodeId(v))))
            .collect();
        store
            .bulk_reachable(&queries)
            .into_iter()
            .filter(|&b| b)
            .count()
    }
    let mut g = LabeledGraph::new();
    for _ in 0..12 {
        g.add_node_with_label("X");
    }
    for i in 0..11u32 {
        g.add_edge(NodeId(i), NodeId(i + 1));
    }
    let single = CompressedStore::new(g.clone(), StoreConfig::default());
    let sharded = ShardedStore::new(g, StoreConfig::builder().shards(3).build()).unwrap();
    assert_eq!(census(&single, 12), census(&sharded, 12));
}
