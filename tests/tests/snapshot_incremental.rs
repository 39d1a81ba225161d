//! Differential suite for delta-patched snapshot construction.
//!
//! Every stream drives the *same* seeded update batches through two
//! [`CompressedStore`]s — one with delta patching enabled, one with
//! `damage_threshold = 0` so every batch rebuilds the snapshot from
//! scratch — and checks, at **every version**:
//!
//! * the patched quotient CSR is bit-identical to the rebuilt one (both
//!   stores replay the same maintained state, so stable class ids line up
//!   and the transitive reductions must coincide edge for edge), and so is
//!   the 2-hop index built over it (landmark order, entry count, heap);
//! * [`Snapshot::check_invariants`] holds;
//! * every reachability answer matches a BFS oracle on the updated data
//!   graph (which also proves the two stores agree with each other), with
//!   and without the 2-hop index.
//!
//! Streams cover insert-heavy, delete-heavy, and mixed batches over cyclic
//! and DAG-shaped graphs (≥ 100 streams in total), plus a damage-threshold
//! boundary sweep where some batches patch and others fall back to a full
//! rebuild — the boundary itself is asserted to be exercised from both
//! sides.
//!
//! Pattern-serving streams run the same discipline one query class up: the
//! delta store's row-patched [`PatternView`]s must be bit-identical
//! (quotient edges, row labels, node index) to the views the rebuild-only
//! store constructs from scratch, and every `match_pattern` answer must
//! equal direct `bounded_match` evaluation on the updated data graph.
//!
//! [`PatternView`]: qpgc_pattern::view::PatternView

use qpgc_graph::traversal::bfs_reachable;
use qpgc_graph::{LabeledGraph, NodeId, UpdateBatch};
use qpgc_pattern::bounded::bounded_match;
use qpgc_pattern::pattern::{assert_same_answer, Pattern};
use qpgc_serve::{ApplyPath, CompressedStore, GateMode, ReachStore as _, Snapshot, StoreConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_graph(rng: &mut StdRng, n_max: usize, dag: bool) -> LabeledGraph {
    let n = rng.gen_range(3..n_max);
    let m = rng.gen_range(0..n * 3);
    let mut g = LabeledGraph::new();
    for _ in 0..n {
        g.add_node_with_label("X");
    }
    for _ in 0..m {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if dag {
            // Edges point id-upward: the graph stays acyclic through every
            // update batch generated the same way.
            if u < v {
                g.add_edge(NodeId(u), NodeId(v));
            }
        } else {
            g.add_edge(NodeId(u), NodeId(v));
        }
    }
    g
}

/// A batch of `count` updates; each is an insertion with probability
/// `insert_bias` (DAG streams only generate id-upward insertions). A draw
/// that would contradict an earlier update of the same edge keeps the
/// earlier kind, so the batch passes `UpdateBatch::validate`.
fn random_batch(
    rng: &mut StdRng,
    n: usize,
    count: usize,
    insert_bias: f64,
    dag: bool,
) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    let mut kinds: std::collections::HashMap<(u32, u32), bool> = std::collections::HashMap::new();
    for _ in 0..count {
        let mut u = rng.gen_range(0..n) as u32;
        let mut v = rng.gen_range(0..n) as u32;
        if dag && u > v {
            std::mem::swap(&mut u, &mut v);
        }
        if dag && u == v {
            continue;
        }
        let drawn = rng.gen_bool(insert_bias);
        let is_insert = *kinds.entry((u, v)).or_insert(drawn);
        if is_insert {
            batch.insert(NodeId(u), NodeId(v));
        } else {
            batch.delete(NodeId(u), NodeId(v));
        }
    }
    batch
}

/// The 2-hop index is a pure function of the quotient CSR it is built
/// over, so a patched snapshot's must equal the from-scratch one's. (The
/// index's own heap only: `Snapshot::heap_bytes` also counts `Vec`
/// capacities that legitimately differ between a resized and a cloned
/// `cyclic`.)
fn assert_same_index(patched: &Snapshot, rebuilt: &Snapshot, context: &str) {
    let (Some(p), Some(r)) = (patched.two_hop(), rebuilt.two_hop()) else {
        assert!(patched.two_hop().is_none() && rebuilt.two_hop().is_none());
        return;
    };
    assert_eq!(
        p.landmark_order(),
        r.landmark_order(),
        "{context}: landmark order"
    );
    assert_eq!(
        p.label_entries(),
        r.label_entries(),
        "{context}: label entries"
    );
    assert_eq!(p.heap_bytes(), r.heap_bytes(), "{context}: index heap");
}

/// Runs one stream through a delta-patching store and a rebuild-everything
/// store, asserting structural and answer equivalence at every version.
/// Returns the apply paths the delta store took.
fn run_stream(
    seed: u64,
    dag: bool,
    insert_bias: f64,
    two_hop: bool,
    damage_threshold: f64,
) -> Vec<ApplyPath> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = random_graph(&mut rng, 22, dag);
    let config = |threshold: f64| {
        let mut builder = StoreConfig::builder().gate(GateMode::Fixed(threshold));
        if two_hop {
            builder = builder.two_hop(Default::default());
        }
        builder.build()
    };
    let delta_store = CompressedStore::new(g.clone(), config(damage_threshold));
    let full_store = CompressedStore::new(g.clone(), config(0.0));
    let mut paths = Vec::new();
    for step in 0..4 {
        let count = rng.gen_range(1..5);
        let batch = random_batch(&mut rng, g.node_count(), count, insert_bias, dag);
        let report = delta_store.apply(&batch);
        let full_report = full_store.apply(&batch);
        batch.apply_to(&mut g);
        paths.push(report.path);
        assert_eq!(report.version, full_report.version);
        assert!(
            !report.path.pattern_patched(),
            "seed {seed} step {step}: pattern patch without pattern serving"
        );

        let patched = delta_store.load();
        let rebuilt = full_store.load();
        // Structural: both stores evolved the same stable class ids, so the
        // delta-patched transitive reduction must equal the from-scratch one
        // edge for edge.
        assert_eq!(
            patched.compressed_graph().edges().collect::<Vec<_>>(),
            rebuilt.compressed_graph().edges().collect::<Vec<_>>(),
            "seed {seed} step {step}: patched quotient diverged from rebuilt"
        );
        assert_eq!(patched.class_count(), rebuilt.class_count());
        let ctx = format!("seed {seed} step {step}");
        assert_same_index(&patched, &rebuilt, &ctx);
        assert_eq!(patched.check_invariants(), Ok(()), "{ctx}");
        assert_eq!(rebuilt.check_invariants(), Ok(()), "{ctx}");

        // Answers: every pair against the BFS oracle on the updated graph.
        for u in g.nodes() {
            for w in g.nodes() {
                let expected = bfs_reachable(&g, u, w);
                assert_eq!(
                    patched.reachable(u, w),
                    expected,
                    "seed {seed} step {step}: delta store wrong on ({u},{w})"
                );
                assert_eq!(
                    rebuilt.reachable(u, w),
                    expected,
                    "seed {seed} step {step}: full store wrong on ({u},{w})"
                );
            }
        }
    }
    paths
}

/// 60 streams (2 shapes × 3 update mixes × 10 seeds) with the 2-hop index
/// on and patching forced — the index is rebuilt over every patched CSR.
#[test]
fn delta_streams_with_two_hop_match_full_rebuilds() {
    let mut patched = 0usize;
    for (s, &dag) in [false, true].iter().enumerate() {
        for (m, &bias) in [0.8, 0.2, 0.5].iter().enumerate() {
            for i in 0..10u64 {
                let seed = 1000 + (s as u64) * 100 + (m as u64) * 10 + i;
                let paths = run_stream(seed, dag, bias, true, f64::INFINITY);
                patched += paths
                    .iter()
                    .filter(|p| matches!(p, ApplyPath::Patched { .. }))
                    .count();
            }
        }
    }
    assert!(
        patched > 100,
        "only {patched} patched publications across the suite"
    );
}

/// 40 more streams without the index — the pure CSR / transitive-reduction
/// patching path, where queries BFS the patched quotient directly.
#[test]
fn delta_streams_without_index_match_full_rebuilds() {
    for (s, &dag) in [false, true].iter().enumerate() {
        for i in 0..20u64 {
            let seed = 2000 + (s as u64) * 100 + i;
            run_stream(seed, dag, 0.5, false, f64::INFINITY);
        }
    }
}

/// Damage-threshold boundary: with a mid threshold some batches patch and
/// some rebuild; correctness must hold on both sides of the boundary and
/// both sides must actually occur across the sweep.
#[test]
fn damage_threshold_boundary_exercises_both_paths() {
    let mut saw_patched = false;
    let mut saw_rebuilt = false;
    // On graphs this small a single batch often churns most of the class
    // space, so the boundary sits high; 0.75 puts real streams on both
    // sides of it.
    const THRESHOLD: f64 = 0.75;
    for i in 0..20u64 {
        for path in run_stream(3000 + i, false, 0.5, true, THRESHOLD) {
            match path {
                ApplyPath::Patched { churn, .. } => {
                    assert!(
                        churn <= THRESHOLD,
                        "patched above the threshold: churn {churn}"
                    );
                    saw_patched = true;
                }
                ApplyPath::Rebuilt { churn, .. } => {
                    assert!(
                        churn > THRESHOLD,
                        "rebuilt below the threshold: churn {churn}"
                    );
                    saw_rebuilt = true;
                }
                ApplyPath::Republished => {}
            }
        }
    }
    assert!(saw_patched, "threshold sweep never took the patched path");
    assert!(saw_rebuilt, "threshold sweep never fell back to a rebuild");
}

/// `damage_threshold = 0` must behave exactly like the pre-delta store:
/// every effective batch rebuilds, and reports say so.
#[test]
fn zero_threshold_always_rebuilds() {
    for i in 0..5u64 {
        for path in run_stream(4000 + i, false, 0.5, true, 0.0) {
            assert!(
                !matches!(path, ApplyPath::Patched { .. }),
                "patched despite damage_threshold = 0"
            );
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

/// Runs one labeled stream through a pattern-serving delta store and a
/// pattern-serving rebuild-everything store, asserting at every version
/// that the patched pattern view is bit-identical to the rebuilt one and
/// that every pattern answer matches direct evaluation on the updated data
/// graph. Returns how many publications row-patched the pattern view.
fn run_pattern_stream(seed: u64, insert_bias: f64, damage_threshold: f64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = random_labeled_graph(&mut rng, 18);
    let config = |threshold: f64| {
        StoreConfig::builder()
            .patterns(true)
            .gate(GateMode::Fixed(threshold))
            .build()
    };
    let delta_store = CompressedStore::new(g.clone(), config(damage_threshold));
    let full_store = CompressedStore::new(g.clone(), config(0.0));
    let queries = pattern_queries();
    let mut pattern_patched = 0usize;
    for step in 0..4 {
        let count = rng.gen_range(1..5);
        let batch = random_batch(&mut rng, g.node_count(), count, insert_bias, false);
        let report = delta_store.apply(&batch);
        full_store.apply(&batch);
        batch.apply_to(&mut g);
        if report.path.pattern_patched() {
            pattern_patched += 1;
        }

        let patched = delta_store.load();
        let rebuilt = full_store.load();
        let ctx = format!("seed {seed} step {step}");
        assert_eq!(patched.check_invariants(), Ok(()), "{ctx}");
        assert_eq!(rebuilt.check_invariants(), Ok(()), "{ctx}");
        let pv_d = patched.pattern_view().expect("pattern serving enabled");
        let pv_f = rebuilt.pattern_view().expect("pattern serving enabled");
        // Structural: both stores evolved the same stable bisimulation
        // class ids, so the patched quotient CSR must equal the rebuilt one
        // bit for bit — edges, row labels, and the node index.
        assert_eq!(
            pv_d.graph().edges().collect::<Vec<_>>(),
            pv_f.graph().edges().collect::<Vec<_>>(),
            "seed {seed} step {step}: patched pattern quotient diverged"
        );
        assert_eq!(
            pv_d.graph().labels(),
            pv_f.graph().labels(),
            "seed {seed} step {step}: patched pattern row labels diverged"
        );
        assert_eq!(pv_d.class_count(), pv_f.class_count());
        for v in g.nodes() {
            assert_eq!(
                pv_d.class_of(v),
                pv_f.class_of(v),
                "seed {seed} step {step}: node index diverged at {v}"
            );
        }

        // Answers: every query against direct evaluation on the updated
        // data graph, full match relations compared (not just booleans).
        for (qi, q) in queries.iter().enumerate() {
            assert_same_answer(
                &bounded_match(&g, q),
                &patched.match_pattern(q),
                &format!("seed {seed} step {step} query {qi}"),
            );
        }
    }
    pattern_patched
}

/// 45 labeled streams (3 update mixes × 15 seeds) with pattern serving on
/// and patching forced: patched pattern views must be bit-identical to
/// from-scratch rebuilds and `bounded_match`-exact at every version.
#[test]
fn pattern_streams_match_full_rebuilds_and_oracle() {
    let mut pattern_patched = 0usize;
    for (m, &bias) in [0.8, 0.2, 0.5].iter().enumerate() {
        for i in 0..15u64 {
            let seed = 5000 + (m as u64) * 100 + i;
            pattern_patched += run_pattern_stream(seed, bias, f64::INFINITY);
        }
    }
    assert!(
        pattern_patched > 60,
        "only {pattern_patched} pattern-patched publications across the suite"
    );
}

/// Pattern streams with the gate at zero: the view is rebuilt (or shared on
/// quiet batches) every time, and answers still hold — the rebuild-side
/// control of the differential above.
#[test]
fn pattern_streams_zero_threshold_never_patch() {
    for i in 0..8u64 {
        assert_eq!(run_pattern_stream(6000 + i, 0.5, 0.0), 0);
    }
}

/// The damage gate has **at-most** semantics: churn exactly equal to the
/// threshold must still patch; only strictly greater churn rebuilds. Pinned
/// by replaying the same batch against a store whose threshold is set to
/// the observed churn (must patch) and to a hair below it (must rebuild).
#[test]
fn damage_threshold_boundary_at_equality_patches() {
    let mut pinned = 0usize;
    for case in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(900 + case);
        let g = random_labeled_graph(&mut rng, 18);
        let batch = random_batch(&mut rng, g.node_count(), 3, 0.5, false);
        let probe = CompressedStore::new(
            g.clone(),
            StoreConfig::builder().gate(GateMode::AlwaysPatch).build(),
        );
        let ApplyPath::Patched { churn, .. } = probe.apply(&batch).path else {
            continue; // quiet batch; nothing to pin
        };
        let at_equality = CompressedStore::new(
            g.clone(),
            StoreConfig::builder().gate(GateMode::Fixed(churn)).build(),
        );
        assert!(
            matches!(at_equality.apply(&batch).path, ApplyPath::Patched { .. }),
            "case {case}: churn == threshold ({churn}) must patch, not rebuild"
        );
        let just_below = CompressedStore::new(
            g,
            StoreConfig::builder()
                .gate(GateMode::Fixed(churn * 0.999))
                .build(),
        );
        assert!(
            matches!(just_below.apply(&batch).path, ApplyPath::Rebuilt { .. }),
            "case {case}: churn above the threshold must rebuild"
        );
        pinned += 1;
    }
    assert!(pinned >= 3, "only {pinned} boundary cases exercised");
}

/// Long stream: 12 consecutive patched publications on one store, so
/// retired and recycled class ids accumulate across many generations; the
/// index must stay the one a from-scratch store builds at every step.
#[test]
fn long_patch_chains_stay_consistent() {
    let mut rng = StdRng::seed_from_u64(71);
    let mut g = random_graph(&mut rng, 18, false);
    let config = |gate: GateMode| {
        StoreConfig::builder()
            .two_hop(Default::default())
            .gate(gate)
            .build()
    };
    let store = CompressedStore::new(g.clone(), config(GateMode::AlwaysPatch));
    let full_store = CompressedStore::new(g.clone(), config(GateMode::AlwaysRebuild));
    for step in 0..12 {
        let count = rng.gen_range(1..4);
        let batch = random_batch(&mut rng, g.node_count(), count, 0.5, false);
        store.apply(&batch);
        full_store.apply(&batch);
        batch.apply_to(&mut g);
        let snap = store.load();
        assert_same_index(&snap, &full_store.load(), &format!("step {step}"));
        assert_eq!(snap.check_invariants(), Ok(()), "step {step}");
        for u in g.nodes() {
            for w in g.nodes() {
                assert_eq!(
                    snap.reachable(u, w),
                    bfs_reachable(&g, u, w),
                    "step {step}: ({u},{w})"
                );
            }
        }
    }
}
