//! Property tests for Section 5: incremental maintenance must agree exactly
//! with recompression from scratch, for arbitrary graphs and arbitrary
//! update batches, across repeated applications.

use proptest::prelude::*;
use qpgc::prelude::*;
use qpgc_generators::updates::local_batch;
use qpgc_graph::traversal::bfs_reachable;
use qpgc_graph::Classes;
use qpgc_pattern::compress::compress_b;
use qpgc_pattern::inc_match::IncrementalMatch;
use qpgc_pattern::incremental::{IncrementalPattern, StablePatternQuotient};
use qpgc_reach::compress::compress_r;
use qpgc_reach::incremental::{IncrementalReach, StableQuotient};
use qpgc_reach::two_hop::{TwoHopConfig, TwoHopIndex};
use qpgc_serve::{ApplyPath, CompressedStore, StoreConfig};
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
                maintained.reach().to_compression().partition.canonical(),
                scratch.partition.canonical()
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
            let scratch = compress_b(&reference);
            prop_assert_eq!(
                maintained.pattern().expect("patterns on").to_compression().partition.canonical(),
                scratch.partition.canonical()
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

/// A compression with every class read as its first member: the classes
/// with their payloads, and the edges of `Gr` — equal for two compressions
/// of one graph that number its classes differently.
fn by_first_member<C: Clone>(partition: &Classes<C>, gr: &LabeledGraph) -> ByFirstMember<C> {
    let first = |c: NodeId| partition.members[c.index()][0];
    let mut classes: Vec<_> = partition
        .members
        .iter()
        .cloned()
        .zip(partition.payload.iter().cloned())
        .collect();
    classes.sort_by(|a, b| a.0.cmp(&b.0));
    let mut edges: Vec<_> = gr.edges().map(|(a, b)| (first(a), first(b))).collect();
    edges.sort_unstable();
    (classes, edges)
}

/// The single façade (one graph, one normalisation, both maintainers)
/// must be indistinguishable, step by step, from a standalone
/// [`IncrementalReach`] and a standalone [`IncrementalPattern`] each
/// normalising and mutating its own graph copy — identical
/// [`PartitionDelta`](qpgc_graph::PartitionDelta)s and identical stable
/// exports — and both compressions, partition and quotient graph, must
/// equal from-scratch compression of the shadow graph. This is what fails if the second maintainer ever sees
/// an already-applied batch as empty.
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
            // Graph for graph: the maintainers' exports and the batch
            // compressors meet in one constructor per relation.
            let (maintained, batch) = (facade.reach().to_compression(), compress_r(&shadow));
            assert_eq!(
                by_first_member(&maintained.partition, &maintained.graph),
                by_first_member(&batch.partition, &batch.graph),
                "{ctx}: reachability compression vs compress_r"
            );
            let maintained = facade.pattern().expect("patterns on").to_compression();
            let batch = compress_b(&shadow);
            assert_eq!(
                by_first_member(&maintained.partition, &maintained.graph),
                by_first_member(&batch.partition, &batch.graph),
                "{ctx}: bisimulation compression vs compress_b"
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
/// (every hash moved), and when the rows started counting the insertions
/// dropped as redundant.
const GOLDEN_REACH: [u64; 32] = [
    0x0884_85d3_c8c2_e1c0,
    0xd7d7_70eb_95ae_8e0d,
    0x2b3c_a8c5_c666_bba8,
    0xdfea_ac0f_191b_1ad7,
    0xf23b_cb3a_1d60_b979,
    0xdbc5_2bec_926a_ae11,
    0xbf34_e80c_e0d2_6d86,
    0x4389_c71e_74ac_840b,
    0xb7d5_693b_2b5f_0c3b,
    0x2247_1b20_016e_1f78,
    0xa9bf_48fe_4c96_c682,
    0x3930_eae6_7f2b_1da2,
    0x39c8_b37f_9f3c_c30a,
    0xc6eb_1828_c68b_b7d3,
    0x99f7_1a54_c0c0_41be,
    0x9f39_41d5_554a_8dd7,
    0x12f2_386f_59db_6f82,
    0x43b1_7ba5_d40f_c4b6,
    0xff62_3bae_fa19_5ddc,
    0x64e2_66ad_f047_72ea,
    0x9d0a_af79_d105_8572,
    0x51fc_7eb9_0da9_2dba,
    0xaa20_7e24_85f4_b509,
    0x0744_9bb6_b426_eff2,
    0x7b1e_18c4_79df_e779,
    0xbb2d_f543_8a77_8d97,
    0xab98_6109_c23f_66aa,
    0xae3b_5bc2_3f23_3b90,
    0x215b_8781_efaa_dd40,
    0xed2d_692f_e20f_1598,
    0x8286_17cb_b3ea_f22c,
    0xab9f_a600_5a35_57f9,
];

/// The same for `IncrementalPattern` on `pattern_dataset("Citation", 400,
/// 0)` with batch seeds `0xB151 ^ i`, captured at commit b71989a.
const GOLDEN_BISIM: [u64; 32] = [
    0x98cb_7344_9b1f_df03,
    0x48bc_7d12_02b7_a63b,
    0xe57f_93a8_df70_eba9,
    0x4f86_2ec7_901e_b6de,
    0xd60a_e1fd_b507_2120,
    0x397a_b1fa_da85_79cb,
    0x54c4_c9e7_8b8c_d01f,
    0xb491_087c_86c7_f432,
    0x90a1_2da4_742c_28c8,
    0x969b_cef7_3786_c6bf,
    0x07b8_4b7b_702e_ff13,
    0x894a_d1bc_be20_15fa,
    0x2d5d_5a45_6b9b_e5ca,
    0x0d66_fe55_a031_9662,
    0xc12e_cfff_3920_3641,
    0xadca_f081_2319_39c4,
    0xc845_8f7d_e2aa_3eb3,
    0xc0b5_e76a_a85b_9347,
    0xc118_7b19_0e7f_72e9,
    0xcdc0_8321_d06b_9485,
    0x0d46_7cca_45df_c6b5,
    0xe68b_56e1_0517_8a64,
    0xcb3d_7f4c_84c2_0ab5,
    0xbc47_ac09_d874_2ef2,
    0xbc95_a0d0_62b3_1560,
    0x24a8_be1d_5381_90b8,
    0x87a1_beb3_9f85_963d,
    0x50bd_adc5_e060_59dd,
    0x826c_852e_6180_34c3,
    0x18db_1a3d_00e9_b7a8,
    0x98bb_73ed_65ea_4650,
    0x6cf9_67e9_5c73_a38f,
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
        let held = inc.closure().expect("the shape fits one column chunk");
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
/// affected classes, yet each comes back unchanged (L7 in
/// `qpgc_reach::closure`). At every step the delta must be empty, the held
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
            inc.to_compression().partition.canonical(),
            compress_r(&g).partition.canonical(),
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
            inc.to_compression().partition.canonical(),
            compress_r(&g).partition.canonical(),
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
