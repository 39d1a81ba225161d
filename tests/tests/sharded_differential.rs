//! The sharded router. The model checker (`qpgc_tests::check`) runs every
//! router configuration against the BFS oracle, every shard snapshot at the
//! watermark; the entries below run it on as many graphs as the former
//! router-versus-single-store streams. The boundary trap stays: batches
//! built *only* from cross-shard edges, so the shard subgraphs stay
//! untouched while the boundary summary does all the work.

use qpgc_graph::traversal::bfs_reachable;
use qpgc_graph::{LabeledGraph, NodeId, NodePartition, Update, UpdateBatch};
use qpgc_serve::{ApplyPath, ShardedStore, SnapshotFormat, StoreConfig};
use qpgc_tests::{check_configs, Config};

/// 276 graphs (the former suite drove 270): 23 seeds of their own for each
/// of the 12 router configurations — {1, 2, 4} shards × {Plain, Succinct}
/// × 2-hop on/off — half of them DAGs.
#[test]
fn sharded_matches_single_store_and_bfs_everywhere() {
    let routers = Config::all().into_iter().filter(|c| c.shards.is_some());
    for (i, config) in routers.enumerate() {
        let first = 0x5AD + 23 * i as u64;
        check_configs(first..first + 23, 6, |c| *c == config).assert_complete(&config);
    }
}

/// The checker is generic over `ReachStore`: one code path drives the
/// single store and the routers.
#[test]
fn reach_store_generic_code_serves_both_backends() {
    let plain = |c: &qpgc_tests::Config| c.format == SnapshotFormat::Plain;
    check_configs(3..4, 20, |c| plain(c) && !c.two_hop && !c.patterns);
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
    let assert_bfs_exact = |g: &LabeledGraph, ctx: &str| {
        let cut = store.load();
        for (u, w) in g.nodes().flat_map(|u| g.nodes().map(move |w| (u, w))) {
            assert_eq!(
                cut.reachable(u, w),
                bfs_reachable(g, u, w),
                "{ctx}: {u} {w}"
            );
        }
    };
    // Insert a deterministic spread of cross edges, then delete every
    // third one, checking all pairs at every version.
    let picked: Vec<(NodeId, NodeId)> = cross_pairs.iter().step_by(17).copied().collect();
    let inserts = picked.iter().map(|&(u, v)| Update::Insert(u, v));
    let deletes = picked.iter().step_by(3).map(|&(u, v)| Update::Delete(u, v));
    let batches: [UpdateBatch; 2] = [inserts.collect(), deletes.collect()];
    for (step, batch) in batches.iter().enumerate() {
        let report = store.try_apply(batch).expect("batch applies");
        batch.apply_to(&mut g);
        assert_eq!(report.version, step as u64 + 1);
        assert_eq!(store.watermark(), step as u64 + 1);
        // Every shard took the cheap republish path: its slice was empty.
        let paths: Vec<_> = report.shards.iter().map(|s| s.path).collect();
        assert_eq!(paths, [ApplyPath::Republished; 4], "step {step}");
        assert_bfs_exact(&g, &format!("step {step}"));
    }
    // The boundary graph emptied out partially but the cut stayed exact;
    // now drain every remaining cross edge and the boundary must go quiet.
    let drain: UpdateBatch = cross_pairs
        .iter()
        .map(|&(u, v)| Update::Delete(u, v))
        .collect();
    store.try_apply(&drain).expect("batch applies");
    drain.apply_to(&mut g);
    assert_eq!(store.load().boundary().vertex_count(), 0);
    assert_bfs_exact(&g, "drained");
}
