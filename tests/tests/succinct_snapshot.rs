//! Torture suite for the succinct snapshot backend.
//!
//! 1. **Structure** — [`CompressedCsr`] must re-encode a CSR's adjacency
//!    losslessly: identical `neighbors` on seeded random graphs, on every
//!    Table-1 emulation and on each emulation's quotient `Gr` (what a store
//!    packs), and on a quotient with a row of 200 targets.
//! 2. **Stores** — succinct stores, snapshot files and boots run through
//!    the model checker (`qpgc_tests::check`), judged by the oracles on the
//!    model; the entries below run it on the seeds the former plain-versus-
//!    succinct and boot streams used. A succinct store's plain form is the
//!    plain store's `Gr` after every batch of a seeded stream: edges,
//!    labels and label names.
//! 3. **Damage** — boot fails closed on a truncated or bit-flipped file,
//!    on a file that belongs to another log, and on a log whose replayed
//!    prefix holds a batch the store rejects.
//!
//! A `QPGC_TIMING_TESTS=1`-gated assertion bounds the succinct
//! point-query overhead at 3× plain on a Table-1 emulation.

use qpgc_generators::datasets::REACHABILITY_DATASETS;
use std::path::Path;

use qpgc_graph::traversal::bfs_reachable;
use qpgc_graph::{BatchError, CompressedCsr, CsrGraph, Label, LabeledGraph, NodeId, UpdateBatch};
use qpgc_reach::compress::compress_r;
use qpgc_serve::{
    CompressedStore, ShardedStore, Snapshot, SnapshotFormat, StoreConfig, StoreError, UpdateLog,
};
use qpgc_tests::{check_configs, check_script, random_batch, random_graph, Command, Config};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts that `CompressedCsr::from_csr` keeps `csr`'s node and edge
/// counts and decodes every row to the plain one.
fn assert_succinct_matches_plain(csr: &CsrGraph, ctx: &str) {
    let packed = CompressedCsr::from_csr(csr);
    assert_eq!(packed.node_count(), csr.node_count(), "{ctx}: n");
    assert_eq!(packed.edge_count(), csr.edge_count(), "{ctx}: m");
    for v in csr.nodes() {
        let decoded: Vec<NodeId> = packed.neighbors(v).collect();
        assert_eq!(decoded, csr.out_neighbors(v), "{ctx}: neighbors({v})");
    }
}

#[test]
fn succinct_roundtrip_on_seeded_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0x51CC);
    for case in 0..40 {
        let g = random_graph(&mut rng, 60, false);
        assert_succinct_matches_plain(&g.freeze(), &format!("case {case}"));
    }
}

/// Every emulation's `G`, and its quotient `Gr`: the graph a store packs.
#[test]
fn succinct_roundtrip_on_table1_emulations() {
    for spec in REACHABILITY_DATASETS {
        let g = spec.generate(400, 9);
        assert_succinct_matches_plain(&g.freeze(), spec.name);
        let gr = compress_r(&g).graph.freeze();
        assert_succinct_matches_plain(&gr, &format!("{}: Gr", spec.name));
    }
}

/// A root over 200 children, each with a sink of its own: no two nodes
/// are equivalent, and the reduced quotient keeps the root's 200 edges in
/// one row. The row decodes to the plain one, and a succinct store (BFS
/// over decoded rows, no 2-hop index) answers every pair like BFS on `G`.
#[test]
fn a_wide_quotient_row_decodes() {
    let mut g = LabeledGraph::new();
    let root = g.add_node_with_label("A");
    for _ in 0..200 {
        let (child, sink) = (g.add_node_with_label("B"), g.add_node_with_label("C"));
        g.add_edge(root, child);
        g.add_edge(child, sink);
    }
    let r = compress_r(&g);
    let gr = r.graph.freeze();
    let wide = NodeId(r.partition.class_of(root));
    assert_eq!(gr.out_degree(wide), 200);
    assert_succinct_matches_plain(&gr, "wide row");
    let config = StoreConfig::builder()
        .snapshot_format(SnapshotFormat::Succinct)
        .build();
    let snap = CompressedStore::new(g.clone(), config).load();
    assert!(snap.quotient().as_plain().is_none());
    for u in g.nodes() {
        for w in g.nodes() {
            assert_eq!(snap.reachable(u, w), bfs_reachable(&g, u, w), "({u}, {w})");
        }
    }
}

/// A succinct snapshot's plain form is built as the plain backend's:
/// after every batch of a seeded stream, each served snapshot of a
/// succinct store (single, and a 2-shard router) decodes to the plain
/// store's `compressed_graph()` — edges, labels and label names.
#[test]
fn succinct_plain_form_is_the_plain_stores_quotient() {
    fn assert_same_plain(succinct: &Snapshot, plain: &Snapshot, ctx: &str) {
        let (decoded, served) = (succinct.quotient().to_plain_arc(), plain.compressed_graph());
        assert!(decoded.edges().eq(served.edges()), "{ctx}: edges");
        assert_eq!(decoded.labels(), served.labels(), "{ctx}: labels");
        let names = |g: &CsrGraph| -> Vec<Option<String>> {
            g.nodes()
                .map(|v| g.label_name(v).map(str::to_owned))
                .collect()
        };
        assert_eq!(names(&decoded), names(served), "{ctx}: label names");
    }
    let config = |format, shards| {
        let builder = StoreConfig::builder().snapshot_format(format);
        builder.shards(shards).build()
    };
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let dag = seed % 2 == 1;
        let g = random_graph(&mut rng, 40, dag);
        let single = [SnapshotFormat::Succinct, SnapshotFormat::Plain]
            .map(|format| CompressedStore::new(g.clone(), config(format, 1)));
        let sharded = [SnapshotFormat::Succinct, SnapshotFormat::Plain]
            .map(|format| ShardedStore::new(g.clone(), config(format, 2)).unwrap());
        for i in 0..=30 {
            let ctx = format!("seed {seed} batch {i}");
            if i > 0 {
                let batch = random_batch(&mut rng, g.node_count(), 4, 0.6, dag);
                for store in &single {
                    store.try_apply(&batch).unwrap();
                }
                for store in &sharded {
                    store.try_apply(&batch).unwrap();
                }
            }
            assert_same_plain(&single[0].load(), &single[1].load(), &ctx);
            let cuts = sharded.each_ref().map(|store| store.load());
            let shards = cuts[0]
                .shard_snapshots()
                .iter()
                .zip(cuts[1].shard_snapshots());
            for (s, (succinct, plain)) in shards.enumerate() {
                assert_same_plain(succinct, plain, &format!("{ctx} shard {s}"));
            }
        }
    }
}

/// A succinct store's answers, reachability and pattern, against the
/// oracles (no longer against a plain store's), on the former suite's 16
/// seeds.
#[test]
fn succinct_store_answers_match_plain_store() {
    let succinct = |c: &Config| c.format == SnapshotFormat::Succinct;
    check_configs((0..8).chain(100..108), 8, |c| {
        succinct(c) && c.shards.is_none() && c.two_hop && c.patterns
    });
}

/// A snapshot saved mid-stream, a tail of batches, then a boot from the
/// file and the log's tail, and a recovery by full replay: each must
/// answer like the model, with everything its configuration asks for.
#[test]
fn boot_from_snapshot_matches_recompress() {
    use Command::*;
    let script = [
        Mixed, Mixed, Save, Mixed, Deletes, Implied, Neutral, Boot, Mixed, Recover,
    ];
    for config in Config::all().into_iter().filter(|c| c.shards.is_none()) {
        check_script(config, 0xB007, &script);
    }
}

/// Both ends of the tail: a file saved before any batch replays the whole
/// log, one saved at the latest version replays nothing.
#[test]
fn boot_tail_spectrum() {
    use Command::*;
    let script = [
        Save, Mixed, Deletes, Mixed, Mixed, Boot, Mixed, Mixed, Save, Boot,
    ];
    for config in Config::all().into_iter().filter(|c| c.shards.is_none()) {
        check_script(config, 0x7A11, &script);
    }
}

/// Boot must fail closed on a truncated or bit-flipped snapshot file, and
/// on a wrong file pairing: a snapshot whose version lies beyond the log,
/// or one of the right version saved from a different graph — with other
/// node and class counts, or with the same ones.
#[test]
fn boot_fails_closed_on_damaged_snapshots() {
    let dir = std::env::temp_dir().join("qpgc_succinct_damage");
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let g = random_graph(&mut rng, 24, false);
    let (log, snap) = (dir.join("damage.log"), dir.join("damage.snap"));
    let config = StoreConfig::default();
    let live = CompressedStore::new_with_log(g.clone(), config, &log).unwrap();
    let batch = random_batch(&mut rng, g.node_count(), 3, 0.7, false);
    live.try_apply(&batch).expect("batch applies");
    live.save_snapshot(&snap).unwrap();
    let full = std::fs::read(&snap).unwrap();
    let fails =
        |snap: &Path, log: &Path| CompressedStore::boot_from_snapshot(snap, log, config).is_err();
    for cut in [full.len() - 1, full.len() / 2, 10] {
        std::fs::write(&snap, &full[..cut]).unwrap();
        assert!(fails(&snap, &log), "truncated to {cut} bytes");
    }
    for i in (0..full.len()).step_by(97) {
        let mut bad = full.clone();
        bad[i] ^= 0x10;
        std::fs::write(&snap, &bad).unwrap();
        assert!(fails(&snap, &log), "bit flip at byte {i}");
    }
    // A snapshot from the future of a shorter log.
    std::fs::write(&snap, &full).unwrap();
    let short = dir.join("short.log");
    CompressedStore::new_with_log(g.clone(), config, &short).unwrap();
    assert!(fails(&snap, &short), "a version beyond the log");
    // A same-version snapshot of a different graph (three more nodes).
    let mut other = g.clone();
    for _ in 0..3 {
        other.add_node_with_label("A");
    }
    let (other_log, other_snap) = (dir.join("other.log"), dir.join("other.snap"));
    let foreign = CompressedStore::new_with_log(other, config, &other_log).unwrap();
    foreign.try_apply(&batch).expect("batch applies");
    foreign.save_snapshot(&other_snap).unwrap();
    assert_eq!(foreign.version(), live.version());
    assert!(fails(&other_snap, &log), "a snapshot of another graph");
    // A same-shape snapshot of another graph: a 5-node chain and the same
    // chain with its node ids reversed have as many nodes and classes.
    let chain = |reversed: bool| {
        let mut g = LabeledGraph::new();
        let v: Vec<_> = (0..5).map(|_| g.add_node_with_label("A")).collect();
        for w in v.windows(2) {
            let (a, b) = if reversed { (w[1], w[0]) } else { (w[0], w[1]) };
            g.add_edge(a, b);
        }
        g
    };
    let (chain_log, chain_snap) = (dir.join("chain.log"), dir.join("chain.snap"));
    let chain_store = CompressedStore::new_with_log(chain(false), config, &chain_log).unwrap();
    chain_store.save_snapshot(&chain_snap).unwrap();
    assert!(!fails(&chain_snap, &chain_log), "the chain's own snapshot");
    let reversed = CompressedStore::new(chain(true), config);
    assert_eq!(
        reversed.load().class_count(),
        chain_store.load().class_count()
    );
    reversed.save_snapshot(&chain_snap).unwrap();
    assert!(
        fails(&chain_snap, &chain_log),
        "the reversed chain's snapshot"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A CRC-valid log whose first batch the store would reject fails boot as
/// it fails recovery, beside a snapshot of the cut the log's edges reach at
/// version 2: a batch naming a node past the graph (which `add_edge` would
/// assert on), and one inserting and deleting the same absent edge (which
/// leaves the edges as they were). Both stores reject it, the single one
/// also when it serves patterns. A batch inserting at a node with an empty
/// label name, or at one whose label has no name, is rejected only by a
/// store serving patterns, as the live store's `try_apply` rejects it: the
/// base record reads each node's label and name back as they were logged.
#[test]
fn boot_rejects_the_prefix_batches_recovery_rejects() {
    let dir = std::env::temp_dir().join(format!("qpgc_forged_prefix_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (log, snap) = (dir.join("forged.log"), dir.join("forged.snap"));
    let mut g = LabeledGraph::new();
    let v: Vec<_> = (0..5).map(|_| g.add_node_with_label("A")).collect();
    for w in v.windows(2) {
        g.add_edge(w[0], w[1]);
    }
    let empty_name = g.add_node_with_label("");
    let no_name = g.add_node(Label(77));
    let store = CompressedStore::new(g.clone(), StoreConfig::default());
    for _ in 0..2 {
        store.try_apply(&UpdateBatch::new()).unwrap();
    }
    store.save_snapshot(&snap).unwrap();
    let mut out_of_bounds = UpdateBatch::new();
    out_of_bounds.insert(NodeId(9), v[0]);
    let mut conflicting = UpdateBatch::new();
    conflicting.insert(v[2], v[0]).delete(v[2], v[0]);
    let rejected = |r: Result<(), StoreError>| {
        matches!(
            r,
            Err(StoreError::InvalidBatch(
                BatchError::NodeOutOfBounds { .. } | BatchError::ConflictingUpdates { .. }
            ))
        )
    };
    let write_log = |batch: &UpdateBatch| {
        let mut writer = UpdateLog::create(&log, &g).unwrap();
        writer.append(batch).unwrap();
        writer.append(&UpdateBatch::new()).unwrap();
    };
    for batch in [out_of_bounds, conflicting] {
        write_log(&batch);
        for patterns in [false, true] {
            let config = StoreConfig::builder().patterns(patterns).build();
            let recovered = CompressedStore::recover_from_log(&log, config).map(drop);
            assert!(rejected(recovered), "recover, {config:?}: {batch:?}");
            let booted = CompressedStore::boot_from_snapshot(&snap, &log, config).map(drop);
            assert!(rejected(booted), "boot, {config:?}: {batch:?}");
        }
        for shards in [1, 2] {
            let config = StoreConfig::builder().shards(shards).build();
            let recovered = ShardedStore::recover_from_log(&log, config).map(drop);
            assert!(rejected(recovered), "{shards}-shard recover: {batch:?}");
        }
    }
    for node in [empty_name, no_name] {
        let mut unlabeled = UpdateBatch::new();
        unlabeled.insert(v[0], node);
        write_log(&unlabeled);
        let unlabeled_endpoint = |r: Result<(), StoreError>| {
            matches!(
                r,
                Err(StoreError::InvalidBatch(BatchError::UnlabeledEndpoint { node: at })) if at == node
            )
        };
        let patterns = StoreConfig::builder().patterns(true).build();
        let live = CompressedStore::new(g.clone(), patterns).try_apply(&unlabeled);
        assert!(unlabeled_endpoint(live.map(drop)), "live: {node:?}");
        let recovered = CompressedStore::recover_from_log(&log, patterns).map(drop);
        assert!(unlabeled_endpoint(recovered), "recover: {node:?}");
        let booted = CompressedStore::boot_from_snapshot(&snap, &log, patterns).map(drop);
        assert!(unlabeled_endpoint(booted), "boot: {node:?}");
        let plain = StoreConfig::default();
        CompressedStore::recover_from_log(&log, plain).expect("plain recover");
        for shards in [1, 2] {
            let config = StoreConfig::builder().shards(shards).build();
            ShardedStore::recover_from_log(&log, config).expect("sharded recover");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `QPGC_TIMING_TESTS=1`-gated: serving point queries from a succinct
/// snapshot stays within 3× of serving them from a plain one (the ISSUE 9
/// latency bound). Measured on the product query path —
/// [`Snapshot::reachable`] BFS over the quotient — on both a
/// similarity-rich emulation (wikiTalk) and an incompressible one
/// (citHepTh, quotient ≈ input) so neither compression extreme hides a
/// regression.
#[test]
fn succinct_point_query_latency_within_bound() {
    if std::env::var("QPGC_TIMING_TESTS").as_deref() != Ok("1") {
        return;
    }
    for name in ["wikiTalk", "citHepTh"] {
        let spec = REACHABILITY_DATASETS.iter().find(|s| s.name == name);
        let g = spec.expect("Table-1 emulation present").generate(50, 3);
        let mut rng = StdRng::seed_from_u64(11);
        let mut node = || NodeId(rng.gen_range(0..g.node_count()) as u32);
        let pairs: Vec<_> = (0..2000).map(|_| (node(), node())).collect();
        // Best-of-3 per side: scheduling noise from sibling tests can only
        // inflate a round, never deflate it, so the min is the fair sample.
        let time = |format| {
            let config = StoreConfig::builder().snapshot_format(format).build();
            let snap = CompressedStore::new(g.clone(), config).load();
            let round = |_| {
                let t = std::time::Instant::now();
                let hits = pairs.iter().filter(|&&(u, w)| snap.reachable(u, w)).count();
                (t.elapsed().as_secs_f64() * 1e3, hits)
            };
            let best = |(a, _): (f64, usize), (b, hits)| (a.min(b), hits);
            (0..3).map(round).fold((f64::INFINITY, 0), best)
        };
        let (plain_ms, hits_plain) = time(SnapshotFormat::Plain);
        let (succ_ms, hits_succ) = time(SnapshotFormat::Succinct);
        assert_eq!(hits_plain, hits_succ, "{name}: answer drift");
        assert!(
            succ_ms <= plain_ms.max(1.0) * 3.0,
            "{name}: succinct point queries {succ_ms:.2} ms vs plain {plain_ms:.2} ms \
             exceeds the 3x bound"
        );
    }
}
