//! Property tests for Section 5: incremental maintenance must agree exactly
//! with recompression from scratch, for arbitrary graphs and arbitrary
//! update batches, across repeated applications.

use proptest::prelude::*;
use qpgc::prelude::*;
use qpgc_generators::updates::local_batch;
use qpgc_graph::traversal::bfs_reachable;
use qpgc_pattern::compress::compress_b;
use qpgc_pattern::inc_match::IncrementalMatch;
use qpgc_pattern::incremental::{IncrementalPattern, StablePatternQuotient};
use qpgc_reach::compress::compress_r;
use qpgc_reach::incremental::{IncrementalReach, StableQuotient};
use qpgc_reach::two_hop::{TwoHopConfig, TwoHopIndex};
use qpgc_serve::{ApplyPath, CompressedStore, StoreConfig};
use qpgc_tests::{canonical, compressed_classes};
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
        let mut maintained = MaintainedGraph::new(g.clone(), false);
        let mut reference = g;
        for batch in &batches {
            maintained.apply(batch);
            prop_assert_eq!(maintained.reach().check_invariants(maintained.graph()), Ok(()));
            batch.normalized(&reference).apply_to(&mut reference);
            let scratch = compress_r(&reference);
            prop_assert_eq!(
                canonical(&maintained.reach().stable_quotient().class_of),
                canonical(&scratch.partition.class_of)
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
        let mut maintained = MaintainedGraph::new(g.clone(), true);
        let mut reference = g;
        for batch in &batches {
            maintained.apply(batch);
            let pattern = maintained.pattern().expect("patterns on");
            prop_assert_eq!(pattern.check_invariants(maintained.graph()), Ok(()));
            batch.normalized(&reference).apply_to(&mut reference);
            prop_assert_eq!(
                canonical(&maintained.pattern().expect("patterns on").stable_quotient().class_of),
                compressed_classes(&reference)
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

/// A missing edge `(u, w)` that an existing two-edge path `u → v → w`
/// implies, when there is one: inserting it is redundant for reachability.
fn two_step_shortcut(g: &LabeledGraph) -> Option<(NodeId, NodeId)> {
    g.nodes().find_map(|u| {
        g.out_neighbors(u)
            .iter()
            .flat_map(|&v| g.out_neighbors(v).iter().map(move |&w| (u, w)))
            .find(|&(u, w)| u != w && !g.has_edge(u, w))
    })
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
            if let Some((u, w)) = two_step_shortcut(g) {
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

/// Classes with their payloads, and the edges of `Gr`, by first member.
type ByFirstMember<C> = (Vec<(Vec<NodeId>, C)>, Vec<(NodeId, NodeId)>);

/// A compression with every class read as its first member: `rows[c]` is
/// class `c`'s members and payload (no members: a retired id, skipped),
/// `edges` the edges of `Gr` over those ids. Equal for two compressions of
/// one graph that number their classes differently.
fn by_first_member<C: Ord>(
    rows: Vec<(Vec<NodeId>, C)>,
    edges: impl IntoIterator<Item = (NodeId, NodeId)>,
) -> ByFirstMember<C> {
    let first = |c: NodeId| rows[c.index()].0[0];
    let mut edges: Vec<_> = edges
        .into_iter()
        .map(|(a, b)| (first(a), first(b)))
        .collect();
    edges.sort_unstable();
    let mut classes: Vec<_> = rows.into_iter().filter(|(m, _)| !m.is_empty()).collect();
    classes.sort();
    (classes, edges)
}

/// A served pattern view by first member, each class with its label name.
fn view_by_first_member(view: &PatternView) -> ByFirstMember<Option<String>> {
    let gr = view.graph();
    let rows = (0..gr.node_count() as u32)
        .map(NodeId)
        .map(|c| {
            (
                view.members_of(c).to_vec(),
                gr.label_name(c).map(str::to_owned),
            )
        })
        .collect();
    by_first_member(rows, gr.edges())
}

/// The single façade (one graph, one normalisation, both maintainers)
/// must be indistinguishable, step by step, from a standalone
/// [`IncrementalReach`] and a standalone [`IncrementalPattern`] each
/// normalising and mutating its own graph copy — identical
/// [`PartitionDelta`](qpgc_graph::PartitionDelta)s and identical stable
/// exports — and what a store serves of both compressions, partition and
/// quotient graph, must equal from-scratch compression of the shadow graph.
/// This is what fails if the second maintainer ever sees an
/// already-applied batch as empty.
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

        let mut facade = MaintainedGraph::new(g.clone(), true);
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
            assert_eq!(reach.check_invariants(&reach_g), Ok(()), "{ctx}");
            assert_eq!(pattern.check_invariants(&pattern_g), Ok(()), "{ctx}");

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
            // Graph for graph, what a store serves against the batch
            // compressors: the reduction the held closure keeps, read
            // through the stable export, and the view built from the
            // pattern export.
            let sq = facade.reach().stable_quotient();
            let mut rows: Vec<_> = sq
                .cyclic
                .iter()
                .map(|&cyclic| (Vec::new(), cyclic))
                .collect();
            for (v, &c) in sq.class_of.iter().enumerate() {
                rows[c as usize].0.push(NodeId(v as u32));
            }
            let held = facade.reach().closure();
            let batch = compress_r(&shadow);
            let batch_rows = batch.partition.members.iter().cloned();
            assert_eq!(
                by_first_member(rows, held.kept().iter().copied()),
                by_first_member(
                    batch_rows.zip(batch.partition.payload).collect(),
                    batch.graph.edges()
                ),
                "{ctx}: served reachability quotient vs compress_r"
            );
            let served =
                PatternView::build(&facade.pattern().expect("patterns on").stable_quotient());
            assert_eq!(
                view_by_first_member(&served),
                view_by_first_member(&compress_b(&shadow)),
                "{ctx}: served bisimulation quotient vs compress_b"
            );
        }
    }
    assert!(
        redundant_seen > 0,
        "no stream hit the redundant-insertion path"
    );
    assert!(empty_seen > 0, "no stream normalised to an empty batch");
}

// ---------------------------------------------------------------------------
// Stable ids are a function of the update stream, not of the representation
// ---------------------------------------------------------------------------

/// FNV-1a over the little-endian bytes of 64-bit words; every sequence is
/// closed by its length.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn sequence(&mut self, words: impl IntoIterator<Item = u64>) {
        let mut len = 0u64;
        for w in words {
            self.word(w);
            len += 1;
        }
        self.word(len);
    }
}

/// Hash of a stable export: `class_of`, `active`, the per-class payload
/// (zeroed at inactive ids, where it is stale by contract) and `edges`.
fn export_hash(
    class_of: &[u32],
    active: &[bool],
    payload: impl Iterator<Item = u64>,
    edges: &[(u32, u32)],
) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.sequence(class_of.iter().map(|&c| u64::from(c)));
    h.sequence(active.iter().map(|&a| u64::from(a)));
    h.sequence(payload);
    h.sequence(
        edges
            .iter()
            .map(|&(a, b)| (u64::from(a) << 32) | u64::from(b)),
    );
    h.0
}

/// `export_hash` of `IncrementalReach::stable_quotient()` after each of 32
/// `local_batch(g, 20, 8, 0x601D ^ i)` batches on `dataset("wikiTalk",
/// 1500, 0)`. First captured at commit b71989a, when the class-level edges
/// were a hash map of pairs; recaptured when an affected class that comes
/// back unchanged started keeping its id instead of taking a recycled one
/// (every hash moved), when the rows started counting the insertions
/// dropped as redundant, and when a class that keeps its members and
/// cyclic flag started keeping its id even though its cones moved — more
/// ids are kept, fewer recycled (every hash moved).
const GOLDEN_REACH: [u64; 32] = [
    0xdda4_a95c_707a_86bf,
    0x2fb7_d5bc_be3b_052a,
    0xdecd_eb8b_310e_73e1,
    0xb57b_952f_d0d8_5190,
    0x57a2_a8b1_627c_7689,
    0xf6e2_3db1_213a_8a17,
    0x9586_5e99_503d_14dd,
    0x54a3_f1ae_b686_4870,
    0x9499_f276_6862_367a,
    0x684a_22bb_3ce2_fa04,
    0x8928_15b5_261e_514a,
    0xa0b5_8ba6_769a_d504,
    0x32dd_e5a0_f732_8357,
    0x00f4_4ee8_2279_d007,
    0xed8f_c002_baa9_1070,
    0x2beb_80ab_b2f6_dc53,
    0x4dca_0476_cb5b_b3f7,
    0xc243_a173_8176_be17,
    0xe0f4_ad7d_6215_7aa4,
    0x2a49_805d_9434_4677,
    0x75e2_bb72_9127_6a7b,
    0xb8e0_0f51_d9e6_0122,
    0xdd95_10e7_a47c_e3b9,
    0xd0c8_a855_2d4a_fcf5,
    0x471c_5440_b85a_b0b0,
    0x3c92_d9f2_536c_b585,
    0x0545_c139_1ddb_5fff,
    0xa924_d8f8_f4d2_af2b,
    0x2b4e_e725_af56_ee13,
    0xc60b_c1e2_06d2_f6c7,
    0xb8ce_b697_0f40_32af,
    0x799d_ee88_cf31_aee8,
];

/// The same for `IncrementalPattern` on `pattern_dataset("Citation", 400,
/// 0)` with batch seeds `0xB151 ^ i`. First captured at commit b71989a;
/// recaptured when the step started cutting only the nodes that reach an
/// update and regrouping them by their keys: a class no batch
/// changes — its members and, wholly inside the cut, its key — now keeps
/// its id instead of being retired and born again (every hash moved).
const GOLDEN_BISIM: [u64; 32] = [
    0x1e63_2bfc_a3db_9b7a,
    0x12da_7469_f3d5_d0db,
    0x2035_16b3_2635_fbd7,
    0xb964_bdcd_5485_42b5,
    0xd85e_3ae7_cc08_8284,
    0x301a_8196_dc31_b082,
    0x0842_4b36_bad3_11ac,
    0x1964_9f90_5dea_5ae4,
    0x1229_b5c1_b6f0_83d8,
    0x0999_f9dc_e071_6dbf,
    0xda66_9b58_0458_6f53,
    0xd661_7659_b219_f929,
    0x0b6d_1579_8cb9_81d7,
    0x1901_aa91_8007_9af5,
    0x3cf8_242c_a897_c50f,
    0x12f2_2765_33a5_f3eb,
    0x68b7_54f7_7281_025d,
    0x535f_3939_38e7_96eb,
    0x482e_c354_18e9_0e30,
    0x983b_be17_5f60_1fa9,
    0x2a78_aa9b_86b7_0c4f,
    0xcbf4_9c08_20d4_48fb,
    0xb354_c19b_9292_9108,
    0x3b84_5d7e_2a48_e949,
    0xa8c7_b287_3efc_2dcc,
    0xb887_7746_4e72_6738,
    0x4d2c_2380_fdc1_f557,
    0x95f3_33f4_1ea6_8b0b,
    0x6c05_9876_22da_4c47,
    0xf410_954e_2792_0354,
    0xcb7b_e7aa_4700_3972,
    0x0402_41e4_7af3_9035,
];

/// The stable ids both maintainers hand out — node → class index, liveness,
/// payload and exported edges, after every batch — are exactly the captured
/// ones: the representation of the class-level edges is free to change, the
/// ids are not (served snapshots, their byte sizes and the benchmark's exact
/// metrics are functions of them) unless a change says why they move.
#[test]
fn stable_ids_match_the_golden_streams() {
    let mut g = qpgc_generators::dataset("wikiTalk", 1500, 0).expect("a Table 1 name");
    let mut inc = IncrementalReach::new(&g);
    for (i, &golden) in GOLDEN_REACH.iter().enumerate() {
        let batch = local_batch(&g, 20, 8, 0x601D ^ i as u64);
        inc.apply_with_delta(&mut g, &batch);
        let sq = inc.stable_quotient();
        let cyclic = sq.cyclic.iter().zip(&sq.active);
        let hash = export_hash(
            &sq.class_of,
            &sq.active,
            cyclic.map(|(&c, &a)| u64::from(c && a)),
            &sq.edges,
        );
        assert_eq!(hash, golden, "reach: stable export after batch {i}");
    }

    let mut g = qpgc_generators::pattern_dataset("Citation", 400, 0).expect("a Table 2 name");
    let mut inc = IncrementalPattern::new(&g);
    for (i, &golden) in GOLDEN_BISIM.iter().enumerate() {
        let batch = local_batch(&g, 20, 8, 0xB151 ^ i as u64);
        inc.apply_with_delta(&mut g, &batch);
        let spq = inc.stable_quotient();
        let labels = spq.labels.iter().zip(&spq.active);
        let hash = export_hash(
            &spq.class_of,
            &spq.active,
            labels.map(|(&l, &a)| if a { u64::from(l.0) + 1 } else { 0 }),
            &spq.edges,
        );
        assert_eq!(hash, golden, "bisim: stable export after batch {i}");
    }
}

/// A patched closure carries any error forward, so short random streams do
/// not show drift. This runs 300 cone-local batches of `size` (cone cap 8,
/// graph seed 0) on one of the benchmark's shapes. After every batch the
/// maintainer's closure must equal a fresh sweep. Every 50 batches a store
/// with a 2-hop index is checked too: its published index must equal a BFS
/// build over its `Gr`, and 500 sampled answers must equal BFS on `G`.
fn assert_no_drift(name: &str, divisor: usize, size: usize) {
    let two_hop = TwoHopConfig;
    let mut g = qpgc_generators::dataset(name, divisor, 0).expect("a Table 1 name");
    let mut inc = IncrementalReach::new(&g);
    let store = CompressedStore::new(g.clone(), StoreConfig::builder().two_hop(two_hop).build());
    let mut rng = StdRng::seed_from_u64(0xD81F7);
    for step in 1..=300u64 {
        let ctx = format!("{name} batch {step}");
        let batch = local_batch(&g, size, 8, 0x5EED ^ step);
        store.try_apply(&batch).expect("a valid batch");
        inc.apply_with_delta(&mut g, &batch);
        let sq = inc.stable_quotient();
        let held = inc.closure();
        assert_eq!(held.check(sq.id_space(), sq.edges), Ok(()), "{ctx}");
        if step % 50 != 0 {
            continue;
        }
        let cut = store.load();
        let served = cut.two_hop().expect("the store serves a 2-hop index");
        let built = TwoHopIndex::build_with(cut.compressed_graph(), &two_hop);
        assert!(
            *served == built,
            "{ctx}: served index differs from a BFS build"
        );
        let n = g.node_count() as u32;
        for _ in 0..500 {
            let (u, w) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
            assert_eq!(
                cut.reachable(u, w),
                bfs_reachable(&g, u, w),
                "{ctx}: ({u},{w})"
            );
        }
    }
}

/// [`assert_no_drift`] on `dense_cithepth`'s shape: citHepTh ÷ 24, batches
/// of 12.
#[test]
fn patched_closure_does_not_drift_on_the_dense_cithepth_shape() {
    assert_no_drift("citHepTh", 24, 12);
}

/// [`assert_no_drift`] on `churn_wikitalk`'s shape: wikiTalk ÷ 800,
/// batches of 50.
#[test]
fn patched_closure_does_not_drift_on_the_churn_wikitalk_shape() {
    assert_no_drift("wikiTalk", 800, 50);
}

/// Batch `i` of the benchmark's update streams is drawn at seed
/// `STREAM_SEED ^ i`, against the graph the batches before it left.
const STREAM_SEED: u64 = 0x5eed_0000_0000_0b0a;

/// The `dense_cithepth` stream — citHepTh ÷ 24, 105 batches of
/// `local_batch(g, 12, 8, STREAM_SEED ^ i)` — changes no class. Its batches
/// mix deletions that have detours with insertions that are already
/// implied, so nothing is dropped as redundant and every batch has
/// affected classes, yet each comes back unchanged (L7′ in
/// `qpgc_reach::closure`, not rewired). At every step the delta must be empty, the held
/// closure a fresh sweep, the rows exact and the partition `compress_r`'s;
/// a store with a 2-hop index over the same stream republishes every
/// batch.
#[test]
fn the_dense_cithepth_stream_changes_no_class() {
    let mut g = qpgc_generators::dataset("citHepTh", 24, 0).expect("a Table 1 name");
    let mut inc = IncrementalReach::new(&g);
    let config = StoreConfig::builder().two_hop(TwoHopConfig).build();
    let store = CompressedStore::new(g.clone(), config);
    let mut affected = 0;
    for i in 0..105u64 {
        let batch = local_batch(&g, 12, 8, STREAM_SEED ^ i);
        let report = store.try_apply(&batch).expect("a valid batch");
        assert_eq!(report.path, ApplyPath::Republished, "batch {i}");
        let (stats, delta) = inc.apply_with_delta(&mut g, &batch);
        affected += stats.affected_classes;
        assert!(delta.is_empty(), "batch {i}: {delta:?}");
        assert_eq!(inc.check_invariants(&g), Ok(()), "batch {i}");
        assert_eq!(
            canonical(&inc.stable_quotient().class_of),
            canonical(&compress_r(&g).partition.class_of),
            "batch {i}: partition vs compress_r"
        );
    }
    assert!(affected > 0, "no batch affected a class");
}

/// The redundant-insertion rule, on the only kind of stream that reaches
/// it: every batch inserts only. Insertions implied by an existing
/// non-empty path are dropped from maintenance, and the maintained state
/// still equals `compress_r(G ⊕ ΔG)` and answers like BFS on `G`.
#[test]
fn insertion_only_stream_drops_redundant_insertions_and_stays_exact() {
    let mut g = qpgc_generators::dataset("wikiTalk", 8000, 0).expect("a Table 1 name");
    let n = g.node_count() as u32;
    let mut rng = StdRng::seed_from_u64(0x1A5E47);
    let mut inc = IncrementalReach::new(&g);
    let mut redundant_dropped = 0;
    for step in 0..12 {
        let mut batch = UpdateBatch::new();
        for _ in 0..6 {
            batch.insert(NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
        }
        if let Some((u, w)) = two_step_shortcut(&g) {
            batch.insert(u, w);
        }
        let (stats, _) = inc.apply_with_delta(&mut g, &batch);
        redundant_dropped += stats.redundant_dropped;
        assert_eq!(inc.check_invariants(&g), Ok(()), "step {step}");
        assert_eq!(
            canonical(&inc.stable_quotient().class_of),
            canonical(&compress_r(&g).partition.class_of),
            "step {step}: partition vs compress_r"
        );
        for _ in 0..400 {
            let (u, w) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
            assert_eq!(
                inc.query(u, w),
                bfs_reachable(&g, u, w),
                "step {step}: ({u},{w})"
            );
        }
    }
    assert!(redundant_dropped > 0, "no insertion was found redundant");
}
