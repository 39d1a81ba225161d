//! Concurrency test for [`ShardedStore`]: reader threads issue
//! reachability queries while the router's writer stages every batch shard
//! by shard. Every recorded answer must match a BFS oracle on the *exact*
//! graph version the answering cut's watermark advertises — i.e. a reader
//! never observes a torn cut where some shards have applied a batch and
//! others (or the boundary graph) have not. Because most random edges
//! cross shards under the hash partition, every batch exercises the shard
//! maintainers, the boundary edge set, and the watermark bump together.

use std::sync::atomic::{AtomicBool, Ordering};

use qpgc_graph::traversal::bfs_reachable;
use qpgc_graph::{LabeledGraph, NodeId, UpdateBatch};
use qpgc_serve::{ShardedStore, StoreConfig};
use qpgc_tests::{random_batch, random_graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BATCHES: usize = 8;
const READERS: usize = 4;

fn run(config: StoreConfig, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // The first draw with enough nodes and edges for readers to race on.
    let base = std::iter::repeat_with(|| random_graph(&mut rng, 48, false))
        .find(|g| g.node_count() >= 32 && g.edge_count() >= 48)
        .expect("some draw is large enough");
    let n = base.node_count();
    let batches: Vec<UpdateBatch> = (0..BATCHES)
        .map(|_| {
            let count = rng.gen_range(1..5);
            random_batch(&mut rng, n, count, 0.5, false)
        })
        .collect();

    // The oracle: graph state after each prefix of batches.
    let mut states: Vec<LabeledGraph> = vec![base.clone()];
    for batch in &batches {
        let mut next = states.last().expect("non-empty").clone();
        batch.apply_to(&mut next);
        states.push(next);
    }

    let store = ShardedStore::new(base, config).expect("valid sharded config");
    let done = AtomicBool::new(false);

    // (watermark, from, to, answer) tuples recorded by each reader.
    let mut observations: Vec<Vec<(u64, u32, u32, bool)>> = Vec::new();
    #[expect(
        clippy::disallowed_methods,
        reason = "readers race the writer on purpose: the test checks what they observe"
    )]
    std::thread::scope(|s| {
        let reader_handles: Vec<_> = (0..READERS)
            .map(|r| {
                let store = &store;
                let done = &done;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(1000 + r as u64);
                    let mut seen: Vec<(u64, u32, u32, bool)> = Vec::new();
                    let mut passes_after_done = 0;
                    // Keep reading until the writer is finished, then one
                    // final pass so the last watermark is exercised.
                    while passes_after_done < 2 {
                        if done.load(Ordering::Acquire) {
                            passes_after_done += 1;
                        }
                        let cut = store.load();
                        // The cut is internally consistent: every shard
                        // snapshot sits at exactly the cut's watermark.
                        for snap in cut.shard_snapshots() {
                            assert_eq!(
                                snap.version(),
                                cut.watermark(),
                                "torn cut: shard version behind the watermark"
                            );
                        }
                        for _ in 0..32 {
                            let u = rng.gen_range(0..n) as u32;
                            let v = rng.gen_range(0..n) as u32;
                            let ans = cut.reachable(NodeId(u), NodeId(v));
                            seen.push((cut.watermark(), u, v, ans));
                        }
                    }
                    seen
                })
            })
            .collect();

        // Router: apply every batch with a pause so readers interleave
        // with the shard staging and the watermark bump.
        for batch in &batches {
            store.try_apply(batch).expect("batch applies");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        done.store(true, Ordering::Release);

        for h in reader_handles {
            observations.push(h.join().expect("reader panicked"));
        }
    });

    // Every concurrent answer matches BFS on the graph version its cut's
    // watermark advertised — the no-torn-cut contract.
    let mut checked = 0usize;
    for seen in &observations {
        for &(watermark, u, v, ans) in seen {
            let oracle = &states[watermark as usize];
            assert_eq!(
                ans,
                bfs_reachable(oracle, NodeId(u), NodeId(v)),
                "reader answer diverged from BFS at watermark {watermark} for ({u},{v})"
            );
            checked += 1;
        }
    }
    assert!(checked > 0);

    // The final cut is the fully-updated state.
    let last = store.load();
    assert_eq!(last.watermark(), BATCHES as u64);
    let final_state = states.last().expect("non-empty");
    for u in final_state.nodes() {
        for w in final_state.nodes() {
            assert_eq!(last.reachable(u, w), bfs_reachable(final_state, u, w));
        }
    }
}

#[test]
fn readers_never_see_torn_cuts_two_shards() {
    run(StoreConfig::builder().shards(2).build(), 23);
}

#[test]
fn readers_never_see_torn_cuts_four_shards_two_hop() {
    run(
        StoreConfig::builder()
            .shards(4)
            .two_hop(Default::default())
            .build(),
        29,
    );
}

#[test]
fn one_shard_router_is_concurrent_too() {
    run(StoreConfig::default(), 31);
}
