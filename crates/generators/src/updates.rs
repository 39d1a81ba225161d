//! Update-batch generation (`ΔG`) for the incremental-maintenance
//! experiments (Exp-3, Figures 12(e)–(h)).

use qpgc_graph::{LabeledGraph, NodeId, UpdateBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a batch of `count` edge insertions between uniformly random
/// node pairs that are not currently connected by an edge.
pub fn insert_batch(g: &LabeledGraph, count: usize, seed: u64) -> UpdateBatch {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.node_count();
    let mut batch = UpdateBatch::new();
    if n < 2 {
        return batch;
    }
    let mut attempts = 0;
    while batch.len() < count && attempts < count * 30 + 100 {
        attempts += 1;
        let u = NodeId(rng.gen_range(0..n) as u32);
        let v = NodeId(rng.gen_range(0..n) as u32);
        if u != v && !g.has_edge(u, v) {
            batch.insert(u, v);
        }
    }
    batch
}

/// Generates a batch of `count` deletions of uniformly random existing edges
/// (without repetition).
pub fn delete_batch(g: &LabeledGraph, count: usize, seed: u64) -> UpdateBatch {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    let mut batch = UpdateBatch::new();
    let count = count.min(edges.len());
    // Partial Fisher–Yates shuffle.
    for i in 0..count {
        let j = rng.gen_range(i..edges.len());
        edges.swap(i, j);
        let (u, v) = edges[i];
        batch.delete(u, v);
    }
    batch
}

/// Generates a mixed batch of **cone-local** updates: roughly half
/// insertions of absent edges and half deletions of existing ones, with
/// every update source drawn from nodes whose proper *ancestor* cone spans
/// at most `cone_cap` SCCs and every update target from nodes whose proper
/// *descendant* cone does.
///
/// Cone-local updates are the small-affected-region regime of incremental
/// maintenance: for an update `(u, w)` the affected area of `incRCM` is
/// `anc([u]) ∪ desc([w])` plus the endpoint classes, so bounding both
/// cones bounds the churn of every batch. On the emulated datasets the
/// overwhelming majority of nodes qualifies even for single-digit caps
/// (scale-free graphs concentrate the giant cones in a few hub SCCs), so
/// this is also what ordinary localized growth looks like — in contrast
/// to [`mixed_batch`]'s uniformly random endpoints, which hit a giant-cone
/// hub every few draws and churn most of the quotient.
///
/// Cone sizes are measured on the SCC condensation with the chunked
/// reach-set sweep (`O(|Vscc|²/w)` — affordable at bench scales; this is a
/// generator, not a hot path).
pub fn local_batch(g: &LabeledGraph, count: usize, cone_cap: u64, seed: u64) -> UpdateBatch {
    use qpgc_graph::reach_sets::DEFAULT_CHUNK;
    use qpgc_graph::scc::Condensation;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = UpdateBatch::new();
    if g.node_count() < 2 {
        return batch;
    }
    let cond = Condensation::of(g);
    // Cones are measured in SCCs, not nodes: unit weights.
    let cones = cond.dag().reach_counts(DEFAULT_CHUNK, |_| 1);
    let low_anc: Vec<NodeId> = g
        .nodes()
        .filter(|&v| cones.ancestors[cond.component_of(v) as usize] <= cone_cap)
        .collect();
    let low_desc_ok = |w: NodeId| cones.descendants[cond.component_of(w) as usize] <= cone_cap;
    let low_desc: Vec<NodeId> = g.nodes().filter(|&w| low_desc_ok(w)).collect();
    if low_anc.is_empty() || low_desc.is_empty() {
        return batch;
    }
    // Existing edges with qualifying endpoints are the deletion candidates.
    let mut deletable: Vec<(NodeId, NodeId)> = low_anc
        .iter()
        .flat_map(|&u| {
            g.out_neighbors(u)
                .iter()
                .filter(|&&w| low_desc_ok(w))
                .map(move |&w| (u, w))
        })
        .collect();
    let mut attempts = 0;
    while batch.len() < count && attempts < count * 30 + 100 {
        attempts += 1;
        let delete = !deletable.is_empty() && rng.gen_bool(0.5);
        if delete {
            let i = rng.gen_range(0..deletable.len());
            let (u, w) = deletable.swap_remove(i);
            batch.delete(u, w);
        } else {
            let u = low_anc[rng.gen_range(0..low_anc.len())];
            let w = low_desc[rng.gen_range(0..low_desc.len())];
            if u != w && !g.has_edge(u, w) {
                batch.insert(u, w);
            }
        }
    }
    batch
}

/// Generates a mixed batch with roughly half insertions and half deletions.
pub fn mixed_batch(g: &LabeledGraph, count: usize, seed: u64) -> UpdateBatch {
    let ins = insert_batch(g, count / 2 + count % 2, seed ^ 0x5ee1);
    let del = delete_batch(g, count / 2, seed ^ 0xde15);
    let mut batch = UpdateBatch::new();
    let mut ins_iter = ins.updates().iter();
    let mut del_iter = del.updates().iter();
    // Interleave so the batch exercises both paths in arbitrary order.
    loop {
        match (ins_iter.next(), del_iter.next()) {
            (None, None) => break,
            (a, b) => {
                if let Some(u) = a {
                    batch.insert(u.edge().0, u.edge().1);
                }
                if let Some(u) = b {
                    batch.delete(u.edge().0, u.edge().1);
                }
            }
        }
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{random_graph, SyntheticConfig};

    fn data() -> LabeledGraph {
        random_graph(&SyntheticConfig::new(300, 1200, 5, 3))
    }

    #[test]
    fn insert_batch_only_adds_new_edges() {
        let g = data();
        let b = insert_batch(&g, 50, 1);
        assert_eq!(b.len(), 50);
        for u in b.updates() {
            assert!(u.is_insert());
            let (a, c) = u.edge();
            assert!(!g.has_edge(a, c));
        }
    }

    #[test]
    fn delete_batch_only_removes_existing_edges() {
        let g = data();
        let b = delete_batch(&g, 40, 2);
        assert_eq!(b.len(), 40);
        let mut seen = std::collections::HashSet::new();
        for u in b.updates() {
            assert!(!u.is_insert());
            assert!(g.has_edge(u.edge().0, u.edge().1));
            assert!(seen.insert(u.edge()), "duplicate deletion");
        }
    }

    #[test]
    fn delete_batch_caps_at_edge_count() {
        let g = random_graph(&SyntheticConfig::new(10, 12, 2, 0));
        let b = delete_batch(&g, 1000, 0);
        assert_eq!(b.len(), g.edge_count());
    }

    #[test]
    fn mixed_batch_has_both_kinds() {
        let g = data();
        let b = mixed_batch(&g, 30, 5);
        let (ins, del) = b.split();
        assert!(!ins.is_empty());
        assert!(!del.is_empty());
        assert!(b.len() >= 28);
    }

    #[test]
    fn local_batch_bounds_endpoint_cones() {
        use qpgc_graph::scc::Condensation;
        let g = data();
        let cap = 8u64;
        let b = local_batch(&g, 40, cap, 9);
        assert!(!b.is_empty());
        // Recompute the SCC cone sizes the generator bounds against.
        let cond = Condensation::of(&g);
        let desc_sets = cond.dag().full_descendants();
        let anc_sets = cond.dag().full_ancestors();
        for u in b.updates() {
            let (a, w) = u.edge();
            assert!(
                anc_sets.count_ones(cond.component_of(a) as usize) as u64 <= cap,
                "update source {a} has a large ancestor cone"
            );
            assert!(
                desc_sets.count_ones(cond.component_of(w) as usize) as u64 <= cap,
                "update target {w} has a large descendant cone"
            );
            if !u.is_insert() {
                assert!(g.has_edge(a, w));
            }
        }
        assert_eq!(local_batch(&g, 40, cap, 9), local_batch(&g, 40, cap, 9));
        // Degenerate graphs yield an empty batch, not a hang.
        let mut tiny = LabeledGraph::new();
        tiny.add_node_with_label("X");
        assert!(local_batch(&tiny, 5, 8, 0).is_empty());
    }

    /// The benchmark (`qpgc_benchmark/src/inputs.rs`) replays streams drawn
    /// from [`local_batch`] and prints these fingerprints with every run; a
    /// change to the closure machinery under the generator must leave them
    /// — and with them every exact benchmark metric — as they are.
    #[test]
    fn benchmark_graphs_and_streams_match_their_golden_fingerprints() {
        // FNV-1a over words, as in the benchmark's `inputs::fingerprint`.
        fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
            words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
                (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        let wiki = |divisor| crate::dataset("wikiTalk", divisor, 0).unwrap();
        let golden = [
            (
                wiki(800),
                50,
                0xd62b_26a2_84ad_2379u64,
                0x81d7_c8c7_843c_3759u64,
            ),
            (
                crate::dataset("citHepTh", 24, 0).unwrap(),
                12,
                0x13ab_6bff_b927_426b,
                0xe96a_37fa_c9f7_370f,
            ),
            (wiki(3000), 10, 0x38aa_f6e1_77ba_296c, 0x05a2_e3bf_655c_d49e),
            (
                crate::pattern_dataset("Citation", 200, 0).unwrap(),
                10,
                0x2c93_2d6e_3d4b_da0b,
                0x2496_8077_c127_0b3e,
            ),
        ];
        for (mut g, batch_size, graph_golden, stream_golden) in golden {
            let edge = |(u, w): (NodeId, NodeId)| (u64::from(u.0) << 32) | u64::from(w.0);
            assert_eq!(fingerprint(g.edges().map(edge)), graph_golden);
            let mut words = Vec::new();
            for i in 0..105u64 {
                let batch = local_batch(&g, batch_size, 8, 0x5eed_0000_0000_0b0a ^ i);
                batch.apply_to(&mut g);
                words.extend(
                    batch
                        .updates()
                        .iter()
                        .map(|u| (u64::from(u.is_insert()) << 63) ^ edge(u.edge())),
                );
            }
            assert_eq!(
                fingerprint(words),
                stream_golden,
                "{batch_size}-update stream"
            );
        }
    }

    #[test]
    fn batches_are_deterministic() {
        let g = data();
        assert_eq!(insert_batch(&g, 20, 7), insert_batch(&g, 20, 7));
        assert_eq!(delete_batch(&g, 20, 7), delete_batch(&g, 20, 7));
        assert_eq!(mixed_batch(&g, 20, 7), mixed_batch(&g, 20, 7));
    }

    #[test]
    fn tiny_graphs_are_safe() {
        let mut g = LabeledGraph::new();
        g.add_node_with_label("A");
        assert!(insert_batch(&g, 5, 0).is_empty());
        assert!(delete_batch(&g, 5, 0).is_empty());
    }
}
