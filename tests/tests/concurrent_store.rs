//! Loom-free concurrency test for [`CompressedStore`]: N reader threads
//! issue reachability queries while the writer applies update batches.
//! Every recorded answer must match a BFS oracle on the *exact* graph
//! version the answering snapshot advertises — i.e. readers only ever see
//! fully-applied pre- or post-batch states, never a torn intermediate.

use std::sync::atomic::{AtomicBool, Ordering};

use qpgc_graph::traversal::bfs_reachable;
use qpgc_graph::{LabeledGraph, NodeId, UpdateBatch};
use qpgc_serve::{CompressedStore, StoreConfig};
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

    let store = CompressedStore::new(base, config);
    let done = AtomicBool::new(false);

    // (version, from, to, answer) tuples recorded by each reader.
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
                    // Keep reading until the writer is finished, then do one
                    // final pass so the last published version is exercised.
                    while passes_after_done < 2 {
                        if done.load(Ordering::Acquire) {
                            passes_after_done += 1;
                        }
                        let snap = store.load();
                        for _ in 0..32 {
                            let u = rng.gen_range(0..n) as u32;
                            let v = rng.gen_range(0..n) as u32;
                            let ans = snap.reachable(NodeId(u), NodeId(v));
                            seen.push((snap.version(), u, v, ans));
                        }
                    }
                    seen
                })
            })
            .collect();

        // Writer: apply every batch with a pause so readers interleave.
        for batch in &batches {
            store.try_apply(batch).expect("batch applies");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        done.store(true, Ordering::Release);

        for h in reader_handles {
            observations.push(h.join().expect("reader panicked"));
        }
    });

    // Every concurrent answer matches BFS on the graph version its snapshot
    // advertised — the consistency contract.
    let mut checked = 0usize;
    let mut versions_seen: Vec<u64> = Vec::new();
    for seen in &observations {
        for &(version, u, v, ans) in seen {
            let oracle = &states[version as usize];
            assert_eq!(
                ans,
                bfs_reachable(oracle, NodeId(u), NodeId(v)),
                "reader answer diverged from BFS at version {version} for ({u},{v})"
            );
            checked += 1;
            versions_seen.push(version);
        }
    }
    assert!(checked > 0);
    versions_seen.sort_unstable();
    versions_seen.dedup();

    // The final snapshot is the fully-updated state.
    let last = store.load();
    assert_eq!(last.version(), BATCHES as u64);
    let final_state = states.last().expect("non-empty");
    for u in final_state.nodes() {
        for w in final_state.nodes() {
            assert_eq!(last.reachable(u, w), bfs_reachable(final_state, u, w));
        }
    }
}

#[test]
fn readers_only_see_consistent_snapshots_bfs_backed() {
    run(StoreConfig::default(), 7);
}

#[test]
fn readers_only_see_consistent_snapshots_two_hop_backed() {
    run(
        StoreConfig::builder().two_hop(Default::default()).build(),
        19,
    );
}
