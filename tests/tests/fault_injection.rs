//! Fault-injection suite: atomic batch semantics and crash-consistent
//! recovery under a deterministic fault at **every** failpoint site.
//!
//! Requires the `failpoints` feature (the sites compile to no-ops without
//! it):
//!
//! ```text
//! cargo test -p qpgc_tests --features failpoints --test fault_injection
//! ```
//!
//! Two matrices, each over {single-writer, 2-shard, 4-shard}:
//!
//! * **Fault-then-continue** — arm one site, apply a batch, and assert the
//!   `Err` contract: watermark untouched, the served cut still BFS-exact
//!   at the pre-batch graph, a no-op batch republishing that cut exactly
//!   (the rollback recompressed, so the writer's stable ids are no longer
//!   the served snapshot's), and the next clean batch applying normally.
//!   After the whole gauntlet the write-behind log must replay to exactly
//!   the committed history (orphaned bytes from log-site faults are
//!   truncated by the next clean append).
//! * **Kill-and-replay** — arm one site, apply a batch, then abandon the
//!   live store (the "crash") and rebuild via `recover_from_log`. The
//!   recovered store must be answer-identical to an uninterrupted store
//!   driven with the log's own replayed history — which is the committed
//!   prefix at most sites, but *includes* the faulted batch at
//!   `log/append`, where the record was durable before the fault and the
//!   pre-crash store had rolled it back. Durability is decided by the log
//!   alone.
//!
//! Plus shard order on {2-shard, 4-shard}: arming a per-shard site at hit
//! `k` fails shard `k − 1`, on every run.

#![cfg(feature = "failpoints")]

use std::path::{Path, PathBuf};

use qpgc_fault::FaultPlan;
use qpgc_graph::traversal::bfs_reachable;
use qpgc_graph::{LabeledGraph, NodeId, UpdateBatch};
use qpgc_pattern::bounded::bounded_match;
use qpgc_pattern::pattern::{assert_same_answer, Pattern};
use qpgc_serve::{
    ApplyPath, CompressedStore, ReachCut as _, ReachStore, ShardedStore, StoreConfig, StoreError,
    UpdateLog,
};
use qpgc_tests::differential::{random_batch, random_graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sites a single-writer `CompressedStore` apply traverses (log sites
/// included — every store in this suite writes through a log).
const SINGLE_SITES: &[&str] = &[
    "store/maintain",
    "store/stage",
    "store/publish",
    "log/append_torn",
    "log/append",
];

/// Sites a sharded apply traverses: router-level sites plus the staging
/// sites of the single store, which the router runs once per shard.
const SHARDED_SITES: &[&str] = &[
    "sharded/slice",
    "shard/stage",
    "store/maintain",
    "store/stage",
    "store/publish",
    "sharded/boundary",
    "sharded/commit",
    "log/append_torn",
    "log/append",
];

fn tmp_log(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "qpgc_fault_injection_{}_{tag}.log",
        std::process::id()
    ))
}

fn config(shards: usize) -> StoreConfig {
    StoreConfig::builder().shards(shards).threads(1).build()
}

/// All-pairs check of the store's served cut against a BFS oracle on `g`.
fn assert_bfs_exact<S: ReachStore>(store: &S, g: &LabeledGraph, ctx: &str) {
    let cut = store.load();
    for u in g.nodes() {
        for w in g.nodes() {
            assert_eq!(
                cut.reachable(u, w),
                bfs_reachable(g, u, w),
                "{ctx}: ({u},{w}) at version {}",
                cut.version()
            );
        }
    }
}

/// A batch that changes nothing: it re-inserts an edge `g` already has.
fn noop_batch(g: &LabeledGraph) -> UpdateBatch {
    let (u, w) = g.edges().next().expect("gauntlet graphs have edges");
    let mut batch = UpdateBatch::new();
    batch.insert(u, w);
    batch
}

/// Drives one backend through the fault gauntlet: for every site, a
/// faulted batch (must reject atomically) followed by a no-op batch (must
/// republish the same answers) and a clean batch (must apply normally). Mutates `g` alongside the committed history and
/// returns the number of committed batches.
fn run_fault_gauntlet<S: ReachStore>(
    store: &S,
    g: &mut LabeledGraph,
    rng: &mut StdRng,
    sites: &[&str],
    ctx: &str,
) -> u64 {
    // Clean warm-up batches so faults hit a store with history.
    for _ in 0..2 {
        let batch = random_batch(rng, g.node_count(), 4, 0.6, false);
        store.try_apply(&batch).expect("batch applies");
        batch.apply_to(g);
    }
    let mut committed = 2u64;
    for site in sites {
        let wm = store.watermark();
        let batch = random_batch(rng, g.node_count(), 4, 0.5, false);
        let result = {
            let _armed = qpgc_fault::install(FaultPlan::new().fail_at(site, 1));
            store.try_apply(&batch)
        };
        let err = result.expect_err(&format!("{ctx}: fault at `{site}` must surface as Err"));
        assert!(
            err.to_string().contains(site),
            "{ctx}: error after `{site}` names the failpoint: {err}"
        );
        assert_eq!(
            store.watermark(),
            wm,
            "{ctx}: watermark untouched after fault at `{site}`"
        );
        assert_bfs_exact(
            store,
            g,
            &format!("{ctx}: cut served after fault at `{site}`"),
        );
        // The store must have fully recovered: a no-op batch republishes
        // the served cut, and the next clean batch applies; each publishes
        // exactly one version.
        let report = store
            .try_apply(&noop_batch(g))
            .unwrap_or_else(|e| panic!("{ctx}: no-op batch after `{site}` failed: {e}"));
        assert_eq!(report.version, wm + 1, "{ctx}: no-op batch after `{site}`");
        assert_bfs_exact(
            store,
            g,
            &format!("{ctx}: cut republished after fault at `{site}`"),
        );
        let clean = random_batch(rng, g.node_count(), 3, 0.6, false);
        let report = store
            .try_apply(&clean)
            .unwrap_or_else(|e| panic!("{ctx}: clean batch after `{site}` failed: {e}"));
        clean.apply_to(g);
        committed += 2;
        assert_eq!(report.version, wm + 2, "{ctx}: clean batch after `{site}`");
        assert_bfs_exact(
            store,
            g,
            &format!("{ctx}: cut after clean batch at `{site}`"),
        );
    }
    committed
}

/// The log must replay to exactly the committed history: same batch
/// count, and batches reapplied to the base graph reproduce `g`.
fn assert_log_matches_history(path: &Path, g: &LabeledGraph, committed: u64, ctx: &str) {
    let contents = UpdateLog::read(path).expect("log must replay cleanly");
    assert_eq!(
        contents.batches.len() as u64,
        committed,
        "{ctx}: log holds exactly the committed batches"
    );
    let mut replayed = contents.graph;
    for batch in &contents.batches {
        batch.apply_to(&mut replayed);
    }
    for u in g.nodes() {
        for w in g.nodes() {
            assert_eq!(
                bfs_reachable(&replayed, u, w),
                bfs_reachable(g, u, w),
                "{ctx}: replayed history diverges at ({u},{w})"
            );
        }
    }
}

#[test]
fn single_store_survives_a_fault_at_every_site() {
    let mut rng = StdRng::seed_from_u64(0xFA01);
    let mut g = random_graph(&mut rng, 28, false);
    let path = tmp_log("single_gauntlet");
    let store =
        CompressedStore::new_with_log(g.clone(), config(1), &path).expect("log creation succeeds");
    let committed = run_fault_gauntlet(&store, &mut g, &mut rng, SINGLE_SITES, "single");
    assert_log_matches_history(&path, &g, committed, "single");
    // Recovery from the log after the whole gauntlet is answer-identical.
    let recovered = CompressedStore::recover_from_log(&path, config(1)).expect("recovery succeeds");
    assert_eq!(recovered.watermark(), committed);
    assert_bfs_exact(&recovered, &g, "single: recovered store");
    let _ = std::fs::remove_file(&path);
}

/// A small pattern workload over the `A`/`B`/`C` alphabet: bounded,
/// unbounded-ish, and a single-node pattern.
fn pattern_queries() -> Vec<Pattern> {
    let mut bounded = Pattern::new();
    let a = bounded.add_node("A");
    let b = bounded.add_node("B");
    bounded.add_edge(a, b, 1);
    let mut chain = Pattern::new();
    let a = chain.add_node("A");
    let b = chain.add_node("B");
    let c = chain.add_node("C");
    chain.add_edge(a, b, 2);
    chain.add_edge(b, c, 3);
    let mut single = Pattern::new();
    single.add_node("C");
    vec![bounded, chain, single]
}

/// Reachability BFS-exact and every pattern answer equal to bounded
/// simulation evaluated directly on `g`.
fn assert_both_sides_exact(store: &CompressedStore, g: &LabeledGraph, ctx: &str) {
    assert_bfs_exact(store, g, ctx);
    let snap = store.load();
    for (qi, q) in pattern_queries().iter().enumerate() {
        assert_same_answer(
            &bounded_match(g, q),
            &snap.match_pattern(q),
            &format!("{ctx}: pattern {qi}"),
        );
    }
}

/// Rollback of a pattern-serving store: the writer undoes **one** shared
/// graph and recompresses **two** partitions. After a fault at each of the
/// writer's own staging sites the watermark is unchanged and both query
/// classes are exact on the pre-batch graph; a no-op batch republishes
/// them exactly; the next clean batch applies and both are exact on the
/// post-batch graph.
#[test]
fn pattern_serving_store_survives_a_fault_at_every_staging_site() {
    let mut rng = StdRng::seed_from_u64(0xFA03);
    let n = 22u32;
    let mut g = LabeledGraph::new();
    for _ in 0..n {
        g.add_node_with_label(["A", "B", "C"][rng.gen_range(0..3usize)]);
    }
    for _ in 0..3 * n {
        g.add_edge(NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
    }
    let store = CompressedStore::new(
        g.clone(),
        StoreConfig::builder().patterns(true).threads(1).build(),
    );
    assert_both_sides_exact(&store, &g, "patterns: initial cut");
    for _ in 0..2 {
        let batch = random_batch(&mut rng, g.node_count(), 4, 0.6, false);
        store.try_apply(&batch).expect("batch applies");
        batch.apply_to(&mut g);
    }
    for site in ["store/maintain", "store/stage", "store/publish"] {
        let wm = store.watermark();
        let batch = random_batch(&mut rng, g.node_count(), 5, 0.5, false);
        let err = {
            let _armed = qpgc_fault::install(FaultPlan::new().fail_at(site, 1));
            store.try_apply(&batch)
        }
        .expect_err(&format!("patterns: fault at `{site}` must surface as Err"));
        assert!(
            err.to_string().contains(site),
            "patterns: error after `{site}` names the failpoint: {err}"
        );
        assert_eq!(
            store.watermark(),
            wm,
            "patterns: watermark untouched after fault at `{site}`"
        );
        assert_both_sides_exact(
            &store,
            &g,
            &format!("patterns: cut served after fault at `{site}`"),
        );
        let report = store
            .try_apply(&noop_batch(&g))
            .unwrap_or_else(|e| panic!("patterns: no-op batch after `{site}` failed: {e}"));
        assert_eq!(report.path, ApplyPath::Republished, "patterns: `{site}`");
        assert_both_sides_exact(
            &store,
            &g,
            &format!("patterns: cut republished after fault at `{site}`"),
        );
        let clean = random_batch(&mut rng, g.node_count(), 4, 0.6, false);
        let report = store
            .try_apply(&clean)
            .unwrap_or_else(|e| panic!("patterns: clean batch after `{site}` failed: {e}"));
        clean.apply_to(&mut g);
        assert_eq!(
            report.version,
            wm + 2,
            "patterns: clean batch after `{site}`"
        );
        assert!(
            report.pattern.is_some(),
            "patterns: the pattern side was maintained after `{site}`"
        );
        assert_both_sides_exact(
            &store,
            &g,
            &format!("patterns: cut after clean batch at `{site}`"),
        );
    }
}

#[test]
fn sharded_store_survives_a_fault_at_every_site() {
    for shards in [2usize, 4] {
        let mut rng = StdRng::seed_from_u64(0xFA02 + shards as u64);
        let mut g = random_graph(&mut rng, 28, false);
        let path = tmp_log(&format!("sharded{shards}_gauntlet"));
        let store = ShardedStore::new_with_log(g.clone(), config(shards), &path)
            .expect("valid sharded config");
        let ctx = format!("{shards}-shard");
        let committed = run_fault_gauntlet(&store, &mut g, &mut rng, SHARDED_SITES, &ctx);
        assert_log_matches_history(&path, &g, committed, &ctx);
        let recovered =
            ShardedStore::recover_from_log(&path, config(shards)).expect("recovery succeeds");
        assert_eq!(recovered.watermark(), committed);
        assert_bfs_exact(&recovered, &g, &format!("{ctx}: recovered store"));
        let _ = std::fs::remove_file(&path);
    }
}

/// Shards stage one after the other on the writer's thread and the first
/// failure ends the batch, so hit `k` of a per-shard site belongs to shard
/// `k − 1` — the same shard on every run. After the failure the watermark
/// is unchanged, the served cut is BFS-exact, and the next clean batch
/// publishes the next version.
#[test]
fn the_failing_shard_is_the_one_the_hit_count_names() {
    for shards in [2usize, 4] {
        let mut rng = StdRng::seed_from_u64(0xFA05 + shards as u64);
        let mut g = random_graph(&mut rng, 28, false);
        let store = ShardedStore::new(g.clone(), config(shards)).expect("valid config");
        for k in 1..=shards {
            let ctx = format!("{shards}-shard, `store/maintain` hit {k}");
            let wm = store.watermark();
            let batch = random_batch(&mut rng, g.node_count(), 4, 0.5, false);
            let result = {
                let _armed =
                    qpgc_fault::install(FaultPlan::new().fail_at("store/maintain", k as u64));
                store.try_apply(&batch)
            };
            match result {
                Err(StoreError::ShardFailed { shard, cause }) => {
                    assert_eq!(shard, k - 1, "{ctx}: failing shard");
                    assert!(cause.contains("store/maintain"), "{ctx}: {cause}");
                }
                other => panic!("{ctx}: expected a shard failure, got {other:?}"),
            }
            assert_eq!(store.watermark(), wm, "{ctx}: watermark untouched");
            assert_bfs_exact(&store, &g, &format!("{ctx}: cut served after the fault"));
            let clean = random_batch(&mut rng, g.node_count(), 3, 0.6, false);
            let report = store
                .try_apply(&clean)
                .unwrap_or_else(|e| panic!("{ctx}: clean batch failed: {e}"));
            clean.apply_to(&mut g);
            assert_eq!(report.version, wm + 1, "{ctx}: clean batch");
            assert_bfs_exact(&store, &g, &format!("{ctx}: cut after the clean batch"));
        }
    }
}

/// Kill-and-replay: one fresh store + log per (backend, site); after the
/// fault the live store is dropped and recovery must reproduce exactly
/// the log's durable history — compared differentially against an
/// uninterrupted store driven with the same replayed batches, and against
/// a BFS oracle.
fn run_kill_and_replay<S, R>(
    shards: usize,
    sites: &[&str],
    build: impl Fn(LabeledGraph, &Path) -> S,
    recover: impl Fn(&Path) -> R,
    ctx: &str,
) where
    S: ReachStore,
    R: ReachStore,
{
    for (k, site) in sites.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0xA11 ^ ((shards as u64) << 8) ^ k as u64);
        let mut g = random_graph(&mut rng, 24, false);
        let path = tmp_log(&format!("kill_{ctx}_{k}"));
        let committed = {
            let store = build(g.clone(), &path);
            for _ in 0..2 {
                let batch = random_batch(&mut rng, g.node_count(), 4, 0.6, false);
                store.try_apply(&batch).expect("batch applies");
                batch.apply_to(&mut g);
            }
            let batch = random_batch(&mut rng, g.node_count(), 4, 0.5, false);
            let _armed = qpgc_fault::install(FaultPlan::new().fail_at(site, 1));
            store
                .try_apply(&batch)
                .expect_err(&format!("{ctx}: fault at `{site}` must surface as Err"));
            store.watermark()
            // The live store is dropped here — the "crash".
        };
        // Durability is decided by the log alone: replay its own contents
        // as the oracle. At `log/append` the faulted batch was fully
        // framed before the fault, so recovery legitimately includes one
        // batch the pre-crash store had rolled back.
        let contents = UpdateLog::read(&path).expect("log must replay cleanly");
        assert!(
            contents.batches.len() as u64 >= committed,
            "{ctx}: log lost committed batches after `{site}`"
        );
        assert!(
            contents.batches.len() as u64 <= committed + 1,
            "{ctx}: log holds more than one uncommitted batch after `{site}`"
        );
        let mut oracle = contents.graph.clone();
        for batch in &contents.batches {
            batch.apply_to(&mut oracle);
        }
        let recovered = recover(&path);
        assert_eq!(recovered.watermark(), contents.batches.len() as u64);
        assert_bfs_exact(
            &recovered,
            &oracle,
            &format!("{ctx}: recovered store after `{site}`"),
        );
        // Differential: an uninterrupted store driven with the replayed
        // history answers identically to the recovered one.
        let uninterrupted = CompressedStore::new(contents.graph.clone(), config(1));
        for batch in &contents.batches {
            uninterrupted.try_apply(batch).expect("batch applies");
        }
        let a = recovered.load();
        let b = uninterrupted.load();
        for u in oracle.nodes() {
            for w in oracle.nodes() {
                assert_eq!(
                    a.reachable(u, w),
                    b.reachable(u, w),
                    "{ctx}: recovered vs uninterrupted diverge at ({u},{w}) after `{site}`"
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn single_store_recovers_by_replay_after_a_kill_at_every_site() {
    run_kill_and_replay(
        1,
        SINGLE_SITES,
        |g, path| CompressedStore::new_with_log(g, config(1), path).expect("log creation"),
        |path| CompressedStore::recover_from_log(path, config(1)).expect("recovery succeeds"),
        "single",
    );
}

#[test]
fn sharded_store_recovers_by_replay_after_a_kill_at_every_site() {
    for shards in [2usize, 4] {
        run_kill_and_replay(
            shards,
            SHARDED_SITES,
            move |g, path| {
                ShardedStore::new_with_log(g, config(shards), path).expect("valid config")
            },
            move |path| {
                ShardedStore::recover_from_log(path, config(shards)).expect("recovery succeeds")
            },
            &format!("sharded{shards}"),
        );
    }
}

/// A batch rejected by validation (conflicting insert+delete of one edge)
/// is an `Err` before any failpoint is reached — and arming sites must
/// not change that.
#[test]
fn invalid_batches_reject_before_any_site_fires() {
    let mut rng = StdRng::seed_from_u64(0xFA77);
    let g = random_graph(&mut rng, 20, false);
    let u = g.nodes().next().expect("non-empty");
    let w = g.nodes().nth(1).expect("two nodes");
    let mut conflicted = UpdateBatch::new();
    conflicted.insert(u, w).delete(u, w);
    let single = CompressedStore::new(g.clone(), config(1));
    let sharded = ShardedStore::new(g, config(2)).expect("valid config");
    let _armed = qpgc_fault::install(FaultPlan::new().fail_at("store/maintain", 1));
    assert!(single.try_apply(&conflicted).is_err());
    assert!(sharded.try_apply(&conflicted).is_err());
    assert_eq!(single.watermark(), 0);
    assert_eq!(ReachStore::watermark(&sharded), 0);
}
