//! The reachability equivalence relation `Re` (Section 3.1).
//!
//! Two nodes `u`, `v` are reachability equivalent iff they have the same set
//! of *proper* ancestors and the same set of *proper* descendants, where
//! "proper" means via non-empty paths (the paper's Example 2: two sibling
//! `BSA` nodes with identical ancestors and descendants are equivalent even
//! though neither reaches the other).
//!
//! ## How it is computed
//!
//! Descendant and ancestor sets are constant across a strongly connected
//! component, so the relation is computed entirely on the SCC condensation:
//!
//! 1. compute the condensation `Gscc` (Tarjan);
//! 2. for every SCC `C`, its members' proper descendant set is
//!    `members(desc_scc(C)) ∪ members(C if C is cyclic)` — likewise for
//!    ancestors;
//! 3. group SCCs with identical `(descendant, ancestor)` signatures.
//!
//! Step 3 compares whole rows, each an [`IdSet`] over SCC ids.
//!
//! ## Cost
//!
//! One call builds one representation and sweeps it once per direction:
//! the condensation's CSR *is* the [`DagReach`](qpgc_graph::reach_sets::DagReach)
//! the sweeps run on, and each sweep writes one [`IdRows`] row per SCC — a
//! sorted list of the SCCs it reaches, or a bitmap once that list would be
//! larger (about `|Vscc|/32` ids). The grouping reads the rows where they
//! lie: a fold over a row's ids picks a bucket, a set comparison against
//! the bucket's representatives decides (a colliding hash costs a
//! comparison, never a wrong merge), and block ids are handed out in
//! first-seen SCC order with no hash-map iteration. The cost follows the
//! closure: `O(|Escc| · k)` for rows of `k` ids, whatever `|Vscc|` is, and
//! `O(|Escc| · |Vscc| / w)` words only where rows are bitmaps.

//! ## Structural facts used elsewhere
//!
//! * The quotient of `Re` is a DAG (mutually reachable classes would have
//!   merged), so `compressR` can transitively reduce it.
//! * Every equivalence class is either exactly one *cyclic* SCC, or a set of
//!   acyclic singleton SCCs. The per-class payload of the returned
//!   [`Classes<bool>`] is the cyclic flag that records which, and is what
//!   answers the "same class, different node" corner case of query
//!   evaluation.

use std::collections::HashMap;

use qpgc_graph::scc::Condensation;
use qpgc_graph::{Classes, GraphView, IdRows, IdSet, NodeId};

/// The hash that picks a grouping key's bucket: a fold over the ids of the
/// two rows, never over their words, so equal sets hash equal whatever
/// their encodings. Only a bucket choice: equality is always decided on
/// the sets themselves.
pub(crate) fn key_hash(desc: IdSet<'_>, anc: IdSet<'_>) -> u64 {
    anc.fold_hash(desc.fold_hash(0))
}

/// Groups the rows `0..cyclic.len()` by their `(descendants, ancestors)`
/// sets and returns each row's group, named by its first row. A fold over
/// the two rows' ids picks a slot of an open-addressing table, and a set
/// comparison against the slot's first row decides (a colliding hash costs
/// a comparison, never a wrong merge).
///
/// A cyclic SCC reaches (and is reached by) its own members via non-empty
/// paths, so its rows hold its own id — which no other SCC's can (that
/// SCC would lie on a cycle through it, i.e. inside it). It is a group of
/// its own by construction and its rows are not looked at; an acyclic
/// SCC's rows must *not* hold its own id, which is exactly how the
/// condensation's rows already read.
pub(crate) fn group_rows(
    desc: &IdRows,
    anc: &IdRows,
    cyclic: &[bool],
    hash: &impl Fn(IdSet<'_>, IdSet<'_>) -> u64,
) -> Vec<u32> {
    let rows = |r: u32| (desc.row(r as usize), anc.row(r as usize));
    let mut group: Vec<u32> = (0..cyclic.len() as u32).collect();
    // A slot holds a first row + 1 and its hash; `0` marks it free. At most
    // `c` groups in at least `2c` slots, so a probe always ends.
    let mask = (2 * cyclic.len()).next_power_of_two() - 1;
    let mut slots = vec![(0u32, 0u64); mask + 1];
    for r in (0..cyclic.len() as u32).filter(|&r| !cyclic[r as usize]) {
        let h = hash(rows(r).0, rows(r).1);
        let mut at = (h >> 32) as usize & mask;
        loop {
            let (first, hash) = slots[at];
            if first == 0 {
                slots[at] = (r + 1, h);
                break;
            }
            if hash == h && rows(first - 1) == rows(r) {
                group[r as usize] = first - 1;
                break;
            }
            at = (at + 1) & mask;
        }
    }
    group
}

/// Computes the reachability equivalence partition of `g`. Generic over
/// [`GraphView`]: accepts the mutable graph or a CSR snapshot.
pub fn reachability_partition<G: GraphView>(g: &G) -> Classes<bool> {
    partition_hashing_with(g, key_hash)
}

/// The kernel behind [`reachability_partition`], with the grouping's
/// bucket hash as a parameter so a test can degrade it.
fn partition_hashing_with<G: GraphView>(
    g: &G,
    hash: impl Fn(IdSet<'_>, IdSet<'_>) -> u64,
) -> Classes<bool> {
    let cond = Condensation::of(g);
    let dag = cond.dag();
    let c = cond.component_count();
    let cyclic_scc: Vec<bool> = cond.cyclic_flags(g);
    // `group[scc]`: the SCCs with identical (descendant, ancestor) sets.
    let group = group_rows(&dag.descendants(), &dag.ancestors(), &cyclic_scc, &hash);

    // Renumber groups densely in first-seen node order and expand to node
    // level (block ids never reach `c`, so a table replaces a map).
    let mut class_of_group = vec![u32::MAX; c];
    let mut class_of = vec![0u32; g.node_count()];
    let mut members: Vec<Vec<NodeId>> = Vec::new();
    let mut cyclic: Vec<bool> = Vec::new();
    for v in g.nodes() {
        let scc = cond.component_of(v) as usize;
        let class = &mut class_of_group[group[scc] as usize];
        if *class == u32::MAX {
            *class = members.len() as u32;
            members.push(Vec::new());
            cyclic.push(cyclic_scc[scc]);
        }
        class_of[v.index()] = *class;
        members[*class as usize].push(v);
    }

    Classes {
        class_of,
        members,
        payload: cyclic,
    }
}

/// A slow but obviously-correct reference implementation used by tests and
/// property tests: computes full node-level proper ancestor/descendant sets
/// and groups nodes by them.
// qpgc-lint: allow(dead-surface) -- oracle of equivalence::tests::kernel_matches_reference_at_every_chunk_thread_and_hash
pub fn reference_partition<G: GraphView>(g: &G) -> Classes<bool> {
    let (desc, anc) = qpgc_graph::reach_sets::node_closures(g);
    let mut key_to_class: HashMap<(Vec<u64>, Vec<u64>), u32> = HashMap::new();
    let mut class_of = vec![0u32; g.node_count()];
    let mut members: Vec<Vec<NodeId>> = Vec::new();
    let mut cyclic: Vec<bool> = Vec::new();
    for v in g.nodes() {
        let key = (desc.row(v.index()).to_vec(), anc.row(v.index()).to_vec());
        let class = *key_to_class.entry(key).or_insert_with(|| {
            members.push(Vec::new());
            cyclic.push(false);
            (members.len() - 1) as u32
        });
        class_of[v.index()] = class;
        members[class as usize].push(v);
        if desc.contains(v.index(), v.index()) {
            cyclic[class as usize] = true;
        }
    }
    Classes {
        class_of,
        members,
        payload: cyclic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::tests::canonical;
    use proptest::prelude::*;
    use qpgc_graph::LabeledGraph;

    /// A random digraph seeded with what the refinement has special cases
    /// for: self loops, 2-cycles, twins (a copy of a node's neighbourhood,
    /// i.e. a duplicated signature) and isolated nodes.
    fn arb_seeded_graph() -> impl Strategy<Value = LabeledGraph> {
        (2usize..=20).prop_flat_map(|n| {
            (
                prop::collection::vec((0..n, 0..n), 0..(2 * n)),
                prop::collection::vec(0..n, 0..4),
                prop::collection::vec((0..n, 0..n), 0..3),
                prop::collection::vec(0..n, 0..4),
                0usize..4,
            )
                .prop_map(move |(edges, loops, two_cycles, twins, isolated)| {
                    let mut g = graph(n, &[]);
                    let node = |i: usize| NodeId(i as u32);
                    for (u, v) in edges {
                        g.add_edge(node(u), node(v));
                    }
                    for v in loops {
                        g.add_edge(node(v), node(v));
                    }
                    for (u, v) in two_cycles {
                        g.add_edge(node(u), node(v));
                        g.add_edge(node(v), node(u));
                    }
                    for t in twins {
                        let twin = g.add_node_with_label("X");
                        for w in g.out_neighbors(node(t)).to_vec() {
                            g.add_edge(twin, w);
                        }
                        for z in g.in_neighbors(node(t)).to_vec() {
                            g.add_edge(z, twin);
                        }
                    }
                    for _ in 0..isolated {
                        g.add_node_with_label("X");
                    }
                    g
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The kernel is the reference partition — same class ids, same
        /// members, same cyclic flags — and stays so when every row lands
        /// in one bucket (so that only the exact set comparison tells keys
        /// apart).
        #[test]
        fn kernel_matches_reference_at_every_chunk_thread_and_hash(g in arb_seeded_graph()) {
            let expect = reference_partition(&g);
            let hashed = reachability_partition(&g);
            let one_bucket = partition_hashing_with(&g, |_, _| 0);
            for got in [hashed, one_bucket] {
                prop_assert_eq!(&got.class_of, &expect.class_of);
                prop_assert_eq!(&got.members, &expect.members);
                prop_assert_eq!(&got.payload, &expect.payload);
            }
        }
    }

    fn graph(n: usize, edges: &[(u32, u32)]) -> LabeledGraph {
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node_with_label("X");
        }
        for &(u, v) in edges {
            g.add_edge(NodeId(u), NodeId(v));
        }
        g
    }

    #[test]
    fn diamond_merges_middle_nodes() {
        // 0 -> {1,2} -> 3 : nodes 1 and 2 are equivalent.
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let p = reachability_partition(&g);
        assert_eq!(p.class_count(), 3);
        assert_eq!(p.class_of(NodeId(1)), p.class_of(NodeId(2)));
        assert_ne!(p.class_of(NodeId(0)), p.class_of(NodeId(1)));
        assert!(!p.payload[p.class_of(NodeId(1)) as usize]);
    }

    #[test]
    fn scc_members_are_equivalent_and_cyclic() {
        let g = graph(4, &[(0, 1), (1, 0), (1, 2), (2, 3)]);
        let p = reachability_partition(&g);
        assert_eq!(p.class_of(NodeId(0)), p.class_of(NodeId(1)));
        assert!(p.payload[p.class_of(NodeId(0)) as usize]);
        assert!(!p.payload[p.class_of(NodeId(3)) as usize]);
    }

    #[test]
    fn different_descendants_not_equivalent() {
        // The paper's FA3/FA4 example: 0 -> 2, 1 -> 2, but 0 -> 3 as well.
        let g = graph(4, &[(0, 2), (1, 2), (0, 3)]);
        let p = reachability_partition(&g);
        assert_ne!(p.class_of(NodeId(0)), p.class_of(NodeId(1)));
    }

    #[test]
    fn siblings_with_same_closure_are_equivalent_without_edge_between_them() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3: nodes 1, 2 equivalent though
        // neither reaches the other (the BSA1/BSA2 situation of Example 2).
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let p = reachability_partition(&g);
        assert_eq!(p.class_of(NodeId(1)), p.class_of(NodeId(2)));
    }

    #[test]
    fn cyclic_singleton_differs_from_acyclic_singleton() {
        // 0 -> 1 (plain), 0 -> 2 where 2 has a self loop; 1 and 2 both have
        // ancestor {0} and no other descendants, but 2 is its own descendant.
        let g = graph(3, &[(0, 1), (0, 2), (2, 2)]);
        let p = reachability_partition(&g);
        assert_ne!(p.class_of(NodeId(1)), p.class_of(NodeId(2)));
        assert!(p.payload[p.class_of(NodeId(2)) as usize]);
    }

    #[test]
    fn isolated_nodes_are_equivalent() {
        let g = graph(3, &[(0, 1)]);
        // node 2 is isolated; nodes 0,1,2 all have distinct closures except…
        let p = reachability_partition(&g);
        assert_eq!(p.class_count(), 3);
        let g2 = graph(4, &[(0, 1)]);
        // two isolated nodes share (∅, ∅) closures.
        let p2 = reachability_partition(&g2);
        assert_eq!(p2.class_of(NodeId(2)), p2.class_of(NodeId(3)));
    }

    #[test]
    fn matches_reference_on_examples() {
        let cases: Vec<(usize, Vec<(u32, u32)>)> = vec![
            (4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]),
            (5, vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]),
            (6, vec![(0, 1), (0, 2), (3, 1), (3, 2), (1, 4), (2, 5)]),
            (3, vec![]),
            (4, vec![(0, 0), (1, 1), (2, 3)]),
        ];
        for (n, edges) in cases {
            let g = graph(n, &edges);
            let fast = reachability_partition(&g);
            let slow = reference_partition(&g);
            assert_eq!(
                canonical(&fast.class_of),
                canonical(&slow.class_of),
                "edges {edges:?}"
            );
        }
    }

    #[test]
    fn paper_example_recommendation_network() {
        // A simplified version of Fig. 2: BSA1/BSA2 both point at MSA and FA;
        // they are reachability equivalent.
        let mut g = LabeledGraph::new();
        let bsa1 = g.add_node_with_label("BSA");
        let bsa2 = g.add_node_with_label("BSA");
        let msa = g.add_node_with_label("MSA");
        let fa = g.add_node_with_label("FA");
        let c = g.add_node_with_label("C");
        g.add_edge(bsa1, msa);
        g.add_edge(bsa1, fa);
        g.add_edge(bsa2, msa);
        g.add_edge(bsa2, fa);
        g.add_edge(fa, c);
        let p = reachability_partition(&g);
        assert_eq!(p.class_of(bsa1), p.class_of(bsa2));
        // Labels are irrelevant for reachability equivalence.
        assert_ne!(p.class_of(msa), p.class_of(fa));
    }

    #[test]
    fn empty_graph() {
        let g = LabeledGraph::new();
        let p = reachability_partition(&g);
        assert_eq!(p.class_count(), 0);
        assert!(canonical(&p.class_of).is_empty());
    }

    #[test]
    fn csr_path_matches_labeled_path() {
        let edges = [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 3),
            (5, 0),
            (7, 7),
            (8, 3),
        ];
        let g = graph(9, &edges);
        let on_labeled = reachability_partition(&g);
        let on_csr = reachability_partition(&g.freeze());
        assert_eq!(canonical(&on_labeled.class_of), canonical(&on_csr.class_of));
        assert_eq!(on_labeled.payload, on_csr.payload);
    }
}
