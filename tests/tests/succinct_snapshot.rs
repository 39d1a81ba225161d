//! Differential and torture suite for the succinct snapshot backend.
//!
//! Three layers of assurance, mirroring how the backend is layered:
//!
//! 1. **Structure** — [`CompressedCsr`] must be a lossless re-encoding of
//!    [`CsrGraph`]: identical `neighbors`, `has_edge` and labels on
//!    seeded random graphs and on every Table-1 emulation (which exercise
//!    the hub exception list — power-law rows past `HUB_DEGREE` stay raw).
//! 2. **Queries** — a store publishing succinct snapshots
//!    ([`SnapshotFormat::Succinct`]) must answer reachability and pattern
//!    queries identically to a plain-format store driven by the same
//!    seeded update stream.
//! 3. **Persistence** — a snapshot file must load back answer-identical,
//!    fail closed on truncation or corruption, and
//!    [`CompressedStore::boot_from_snapshot`] (snapshot + log-tail replay)
//!    must answer exactly like [`CompressedStore::recover_from_log`]
//!    (full-history replay) and like the store that never went down.
//!
//! A `QPGC_TIMING_TESTS=1`-gated assertion bounds the succinct
//! point-query overhead at 3× plain on a Table-1 emulation.

use qpgc_generators::datasets::REACHABILITY_DATASETS;
use qpgc_graph::traversal::bfs_reachable;
use qpgc_graph::{CompressedCsr, LabeledGraph, NodeId, UpdateBatch};
use qpgc_pattern::bounded::bounded_match;
use qpgc_pattern::pattern::{assert_same_answer, Pattern};
use qpgc_serve::{CompressedStore, SnapshotFormat, StoreConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LABELS: [&str; 3] = ["A", "B", "C"];

fn random_graph(rng: &mut StdRng, n_max: usize) -> LabeledGraph {
    let n = rng.gen_range(3..n_max);
    let m = rng.gen_range(0..n * 3);
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

fn random_batch(rng: &mut StdRng, n: usize, count: usize) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    let mut kinds: std::collections::HashMap<(u32, u32), bool> = std::collections::HashMap::new();
    for _ in 0..count {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        let drawn = rng.gen_bool(0.7);
        let is_insert = *kinds.entry((u, v)).or_insert(drawn);
        if is_insert {
            batch.insert(NodeId(u), NodeId(v));
        } else {
            batch.delete(NodeId(u), NodeId(v));
        }
    }
    batch
}

/// Asserts `CompressedCsr::from_csr` round-trips every read the plain CSR
/// answers: node/edge counts, per-row neighbor lists, `has_edge` for all
/// present edges plus a sample of absent ones, and the labels.
fn assert_succinct_matches_plain(g: &LabeledGraph, context: &str) {
    let csr = g.freeze();
    let packed = CompressedCsr::from_csr(&csr);
    assert_eq!(packed.node_count(), csr.node_count(), "{context}: n");
    assert_eq!(packed.edge_count(), csr.edge_count(), "{context}: m");
    let mut probe = StdRng::seed_from_u64(0xD1FF);
    for v in 0..csr.node_count() as u32 {
        let v = NodeId(v);
        let plain = csr.out_neighbors(v);
        let decoded: Vec<NodeId> = packed.neighbors(v).collect();
        assert_eq!(decoded, plain, "{context}: neighbors({v})");
        for &w in plain {
            assert!(packed.has_edge(v, w), "{context}: has_edge({v},{w})");
        }
        for _ in 0..4 {
            let w = NodeId(probe.gen_range(0..csr.node_count()) as u32);
            assert_eq!(
                packed.has_edge(v, w),
                csr.has_edge(v, w),
                "{context}: has_edge({v},{w})"
            );
        }
    }
    // And the decode escape hatch reproduces the source CSR exactly.
    let unpacked = packed.to_csr();
    assert_eq!(
        unpacked.edges().collect::<Vec<_>>(),
        csr.edges().collect::<Vec<_>>(),
        "{context}: to_csr edges"
    );
    assert_eq!(unpacked.labels(), csr.labels(), "{context}: to_csr labels");
}

#[test]
fn succinct_roundtrip_on_seeded_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0x51CC);
    for case in 0..40 {
        let g = random_graph(&mut rng, 60);
        assert_succinct_matches_plain(&g, &format!("case {case}"));
    }
}

#[test]
fn succinct_roundtrip_on_table1_emulations() {
    for spec in REACHABILITY_DATASETS {
        let g = spec.generate(400, 9);
        assert_succinct_matches_plain(&g, spec.name);
    }
}

fn sample_patterns() -> Vec<Pattern> {
    let mut queries = Vec::new();
    let mut p = Pattern::new();
    let a = p.add_node("A");
    let b = p.add_node("B");
    p.add_edge(a, b, 2);
    queries.push(p);
    let mut p = Pattern::new();
    let b = p.add_node("B");
    let c = p.add_node("C");
    p.add_edge_unbounded(b, c);
    queries.push(p);
    let mut p = Pattern::new();
    p.add_node("C");
    queries.push(p);
    queries
}

/// Drives the same seeded stream through a plain-format store and a
/// succinct-publishing store (both with the 2-hop index and pattern
/// serving) and asserts every reachability answer matches a BFS oracle on
/// the updated graph and every pattern answer matches the plain store's.
fn run_format_differential(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = random_graph(&mut rng, 24);
    let config = |format: SnapshotFormat| {
        StoreConfig::builder()
            .two_hop(Default::default())
            .patterns(true)
            .snapshot_format(format)
            .build()
    };
    let plain = CompressedStore::new(g.clone(), config(SnapshotFormat::Plain));
    let fancy = CompressedStore::new(g.clone(), config(SnapshotFormat::Succinct));
    let queries = sample_patterns();
    for step in 0..5 {
        let snap_plain = plain.load();
        let snap_fancy = fancy.load();
        let ctx = format!("seed {seed} step {step}");
        assert_eq!(snap_plain.check_invariants(), Ok(()), "{ctx}");
        assert_eq!(snap_fancy.check_invariants(), Ok(()), "{ctx}");
        assert!(
            snap_fancy.quotient().as_plain().is_none(),
            "seed {seed} step {step}: Succinct must always pack"
        );
        for u in g.nodes() {
            for w in g.nodes() {
                let expected = bfs_reachable(&g, u, w);
                assert_eq!(
                    snap_fancy.reachable(u, w),
                    expected,
                    "seed {seed} step {step}: succinct answer ({u},{w})"
                );
                assert_eq!(snap_plain.reachable(u, w), expected);
            }
        }
        for (qi, q) in queries.iter().enumerate() {
            assert_same_answer(
                &snap_plain.match_pattern(q),
                &snap_fancy.match_pattern(q),
                &format!("seed {seed} step {step} query {qi}"),
            );
        }
        let count = rng.gen_range(1..5);
        let batch = random_batch(&mut rng, g.node_count(), count);
        plain.try_apply(&batch).expect("batch applies");
        fancy.try_apply(&batch).expect("batch applies");
        batch.apply_to(&mut g);
    }
}

#[test]
fn succinct_store_answers_match_plain_store() {
    for seed in (0..8).chain(100..108) {
        run_format_differential(seed);
    }
}

/// Snapshot + log-tail recovery answers exactly like full-history replay
/// and like the store that never went down — on every version of every
/// differential stream.
#[test]
fn boot_from_snapshot_matches_recompress() {
    let dir = std::env::temp_dir().join("qpgc_succinct_boot");
    std::fs::create_dir_all(&dir).unwrap();
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0xB007 + seed);
        let mut g = random_graph(&mut rng, 26);
        let log_path = dir.join(format!("stream_{seed}.log"));
        let snap_path = dir.join(format!("stream_{seed}.snap"));
        let config = StoreConfig::builder()
            .snapshot_format(SnapshotFormat::Succinct)
            .build();
        let live = CompressedStore::new_with_log(g.clone(), config, &log_path).unwrap();
        // Apply a prefix, persist the snapshot mid-stream, apply a tail.
        let prefix = rng.gen_range(1..4);
        for _ in 0..prefix {
            let count = rng.gen_range(1..4);
            let batch = random_batch(&mut rng, g.node_count(), count);
            live.try_apply(&batch).expect("batch applies");
            batch.apply_to(&mut g);
        }
        live.save_snapshot(&snap_path).unwrap();
        for _ in 0..rng.gen_range(1..4) {
            let count = rng.gen_range(1..4);
            let batch = random_batch(&mut rng, g.node_count(), count);
            live.try_apply(&batch).expect("batch applies");
            batch.apply_to(&mut g);
        }

        let booted = CompressedStore::boot_from_snapshot(&snap_path, &log_path, config).unwrap();
        let replayed = CompressedStore::recover_from_log(&log_path, config).unwrap();
        assert_eq!(booted.version(), live.version(), "seed {seed}: watermark");
        assert_eq!(replayed.version(), live.version());
        let b = booted.load();
        let r = replayed.load();
        let l = live.load();
        for (snap, name) in [(&b, "booted"), (&r, "replayed"), (&l, "live")] {
            assert_eq!(snap.check_invariants(), Ok(()), "seed {seed}: {name}");
        }
        for u in g.nodes() {
            for w in g.nodes() {
                let expected = bfs_reachable(&g, u, w);
                assert_eq!(b.reachable(u, w), expected, "seed {seed}: booted ({u},{w})");
                assert_eq!(r.reachable(u, w), expected, "seed {seed}: replayed");
                assert_eq!(l.reachable(u, w), expected, "seed {seed}: live");
            }
        }
        std::fs::remove_file(&log_path).ok();
        std::fs::remove_file(&snap_path).ok();
    }
}

/// A snapshot persisted at the *latest* version boots with an empty log
/// tail; one persisted before any batch replays the whole log. Both ends
/// of the tail spectrum must work, and at both the booted cut must carry
/// everything its config asks for: the file holds neither a 2-hop index
/// nor a pattern view, so a store that served the loaded snapshot itself
/// would lose them until its first non-quiet batch.
#[test]
fn boot_tail_spectrum() {
    let dir = std::env::temp_dir().join("qpgc_succinct_tail");
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = StdRng::seed_from_u64(0x7A11);
    let mut g = random_graph(&mut rng, 24);
    let log_path = dir.join("spectrum.log");
    let early = dir.join("early.snap");
    let late = dir.join("late.snap");
    let config = StoreConfig::default();
    let live = CompressedStore::new_with_log(g.clone(), config, &log_path).unwrap();
    live.save_snapshot(&early).unwrap(); // version 0: full replay
    for _ in 0..4 {
        let batch = random_batch(&mut rng, g.node_count(), 3);
        live.try_apply(&batch).expect("batch applies");
        batch.apply_to(&mut g);
    }
    live.save_snapshot(&late).unwrap(); // latest version: empty tail
    let everything = StoreConfig::builder()
        .patterns(true)
        .two_hop(Default::default())
        .build();
    for path in [&early, &late] {
        for boot_config in [config, everything] {
            let booted = CompressedStore::boot_from_snapshot(path, &log_path, boot_config).unwrap();
            assert_eq!(booted.version(), live.version());
            let b = booted.load();
            assert_eq!(b.check_invariants(), Ok(()));
            for u in g.nodes() {
                for w in g.nodes() {
                    assert_eq!(b.reachable(u, w), bfs_reachable(&g, u, w), "({u},{w})");
                }
            }
            assert_eq!(b.two_hop().is_some(), boot_config.two_hop.is_some());
            assert_eq!(b.pattern_view().is_some(), boot_config.serve_patterns);
            if boot_config.serve_patterns {
                for (qi, q) in sample_patterns().iter().enumerate() {
                    assert_same_answer(
                        &bounded_match(&g, q),
                        &b.match_pattern(q),
                        &format!("booted cut, query {qi}"),
                    );
                }
            }
        }
    }
    for p in [&log_path, &early, &late] {
        std::fs::remove_file(p).ok();
    }
}

/// Boot must fail closed on a truncated or bit-flipped snapshot file, and
/// on a wrong file pairing: a snapshot whose version lies beyond the log,
/// or one of the right version saved from a different graph.
#[test]
fn boot_fails_closed_on_damaged_snapshots() {
    let dir = std::env::temp_dir().join("qpgc_succinct_damage");
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let g = random_graph(&mut rng, 24);
    let log_path = dir.join("damage.log");
    let snap_path = dir.join("damage.snap");
    let config = StoreConfig::default();
    let live = CompressedStore::new_with_log(g.clone(), config, &log_path).unwrap();
    let batch = random_batch(&mut rng, g.node_count(), 3);
    live.try_apply(&batch).expect("batch applies");
    live.save_snapshot(&snap_path).unwrap();
    let full = std::fs::read(&snap_path).unwrap();

    // Truncated tails.
    for cut in [full.len() - 1, full.len() / 2, 10] {
        std::fs::write(&snap_path, &full[..cut]).unwrap();
        assert!(
            CompressedStore::boot_from_snapshot(&snap_path, &log_path, config).is_err(),
            "truncation to {cut} bytes must fail boot"
        );
    }
    // Bit flips.
    for i in (0..full.len()).step_by(97) {
        let mut bad = full.clone();
        bad[i] ^= 0x10;
        std::fs::write(&snap_path, &bad).unwrap();
        assert!(
            CompressedStore::boot_from_snapshot(&snap_path, &log_path, config).is_err(),
            "bit flip at byte {i} must fail boot"
        );
    }
    // A snapshot from the future of a shorter log.
    std::fs::write(&snap_path, &full).unwrap();
    let short_log = dir.join("short.log");
    CompressedStore::new_with_log(g.clone(), config, &short_log).unwrap();
    assert!(
        CompressedStore::boot_from_snapshot(&snap_path, &short_log, config).is_err(),
        "snapshot version beyond the log must fail boot"
    );
    // A same-version snapshot of a different graph (three more nodes).
    let mut other = g.clone();
    for _ in 0..3 {
        other.add_node_with_label("A");
    }
    let other_log = dir.join("other.log");
    let other_snap = dir.join("other.snap");
    let foreign = CompressedStore::new_with_log(other, config, &other_log).unwrap();
    foreign.try_apply(&batch).expect("batch applies");
    foreign.save_snapshot(&other_snap).unwrap();
    assert_eq!(foreign.version(), live.version());
    assert!(
        CompressedStore::boot_from_snapshot(&other_snap, &log_path, config).is_err(),
        "a snapshot of another graph must fail boot"
    );
    for p in [&log_path, &snap_path, &short_log, &other_log, &other_snap] {
        std::fs::remove_file(p).ok();
    }
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
        let spec = REACHABILITY_DATASETS
            .iter()
            .find(|s| s.name == name)
            .expect("Table-1 emulation present");
        let g = spec.generate(50, 3);
        let n = g.node_count();
        let store = |format| {
            CompressedStore::new(
                g.clone(),
                StoreConfig::builder().snapshot_format(format).build(),
            )
        };
        let plain = store(SnapshotFormat::Plain);
        let succ = store(SnapshotFormat::Succinct);
        let snap_plain = plain.load();
        let snap_succ = succ.load();
        let mut rng = StdRng::seed_from_u64(11);
        let pairs: Vec<(NodeId, NodeId)> = (0..2000)
            .map(|_| {
                (
                    NodeId(rng.gen_range(0..n) as u32),
                    NodeId(rng.gen_range(0..n) as u32),
                )
            })
            .collect();
        // Best-of-3 per side: scheduling noise from sibling tests can only
        // inflate a round, never deflate it, so the min is the fair sample.
        let time_side = |snap: &qpgc_serve::Snapshot| {
            let mut best = f64::INFINITY;
            let mut hits = 0usize;
            for _ in 0..3 {
                let t = std::time::Instant::now();
                hits = 0;
                for &(u, w) in &pairs {
                    hits += usize::from(snap.reachable(u, w));
                }
                best = best.min(t.elapsed().as_secs_f64() * 1e3);
            }
            (best, hits)
        };
        let (plain_ms, hits_plain) = time_side(&snap_plain);
        let (succ_ms, hits_succ) = time_side(&snap_succ);
        assert_eq!(hits_plain, hits_succ, "{name}: answer drift");
        assert!(
            succ_ms <= plain_ms.max(1.0) * 3.0,
            "{name}: succinct point queries {succ_ms:.2} ms vs plain {plain_ms:.2} ms \
             exceeds the 3x bound"
        );
    }
}
