//! The maximum bisimulation relation `Rb` (Section 4.1).
//!
//! A bisimulation on `G = (V, E, L)` is a relation `B` such that `(u, v) ∈
//! B` implies `L(u) = L(v)`, every child of `u` is matched by a child of `v`
//! that is again related by `B`, and vice versa. The *maximum* bisimulation
//! is an equivalence relation (Lemma 5); its quotient is what `compressB`
//! outputs.
//!
//! ## Algorithm
//!
//! We compute the coarsest stable partition by signature refinement,
//! stratified by bisimulation rank in the style of
//! Dovier–Piazza–Policriti (CAV 2001):
//!
//! 1. the initial partition groups nodes by `(label, rank rb)` — valid
//!    because bisimilar nodes share both (Lemma 9);
//! 2. the partition is repeatedly refined by splitting blocks whose members
//!    have different *signatures*, where the signature of a node is the set
//!    of blocks its children currently belong to;
//! 3. a fixpoint of this refinement is exactly the maximum bisimulation.
//!
//! ## Hot-path implementation
//!
//! [`bisimulation_partition_csr`] runs the refinement over a frozen
//! [`CsrGraph`] with **no per-node heap allocation inside the loop**:
//!
//! * signatures are summarized by an order-independent 128-bit fingerprint
//!   of the deduplicated child-block set (epoch-marked, one `O(deg)` scan —
//!   no `Vec<u32>` per node, no sorting, no `HashMap<(u32, Vec<u32>), u32>`
//!   rebuilt per round);
//! * block ids are *stable* — a split keeps the largest fragment under the
//!   old id and moves the rest to fresh ids — so a node's signature only
//!   changes when one of its children moves, and a **worklist** (parents of
//!   moved nodes) drives the next round. When a round produces no split the
//!   worklist is empty and the loop exits immediately: the full extra
//!   "confirm stabilization" signature pass of the reference implementation
//!   disappears;
//! * singleton blocks can never split, so their members are skipped
//!   entirely.
//!
//! Two same-block nodes only ever compare fingerprints computed against the
//! same partition state (bisimilar nodes are dirtied together), so the
//! comparison is exact up to a 128-bit fingerprint collision —
//! `≈ b²/2¹²⁸` for block size `b`, which is far below memory-error rates.
//!
//! The rank seed stays although a label seed gives the same partition in
//! less time on every pattern emulator: on a chain of one label, the label
//! seed splits one node off the whole block per round, and phase 2's
//! uniformity scan reads that block every round (quadratic; see
//! `bisim::tests::a_same_label_chain_reads_linear_members`).
//!
//! The pre-CSR per-round implementation is kept, label-seeded, as
//! [`reference_bisimulation`]: the oracle the worklist refinement is tested
//! against.

use std::collections::HashMap;

use qpgc_graph::rank::{bisim_ranks, BisimRank};
use qpgc_graph::scc::Condensation;
use qpgc_graph::{Classes, CsrGraph, Label, LabeledGraph, NodeId};

/// Computes the maximum bisimulation partition over a frozen CSR snapshot
/// with the allocation-free worklist refinement (see the module docs); each
/// class carries the label its members share.
pub fn bisimulation_partition_csr(g: &CsrGraph) -> Classes<Label> {
    let cond = Condensation::of(g);
    let ranks = bisim_ranks(g, &cond);
    refine_worklist(g, |v| (g.label(v), ranks.rank[v.index()]))
}

/// SplitMix64-style finalizer used to build the set fingerprints.
#[inline]
fn mix64(x: u64, seed: u64) -> u64 {
    let mut z = x.wrapping_add(seed).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The order-independent 128-bit fingerprint of `v`'s deduplicated
/// child-block set under the current `block` assignment. Bumps `epoch` and
/// uses `mark` for the dedup scan; pure in `(g, block, v)`.
#[inline]
fn node_fingerprint(
    g: &CsrGraph,
    block: &[u32],
    v: u32,
    mark: &mut [u64],
    epoch: &mut u64,
) -> u128 {
    *epoch += 1;
    let e = *epoch;
    let mut h1 = 0u64;
    let mut h2 = 0u64;
    let mut distinct = 0u64;
    for &w in g.out_neighbors(NodeId(v)) {
        let wb = block[w.index()];
        let m = &mut mark[wb as usize];
        if *m != e {
            *m = e;
            h1 = h1.wrapping_add(mix64(wb as u64, 0xa076_1d64_78bd_642f));
            h2 = h2.wrapping_add(mix64(wb as u64, 0xe703_7ed1_a0b4_28db));
            distinct += 1;
        }
    }
    h1 ^= mix64(distinct, 0x8ebc_6af0_9c88_c6e3);
    h2 ^= mix64(distinct, 0x5899_65cc_7537_4cc3);
    ((h1 as u128) << 64) | h2 as u128
}

/// Worklist signature refinement from an initial block assignment given by
/// `seed` (which must be coarser than the maximum bisimulation).
fn refine_worklist<F>(g: &CsrGraph, seed: F) -> Classes<Label>
where
    F: Fn(NodeId) -> (Label, BisimRank),
{
    let n = g.node_count();
    let mut block: Vec<u32> = vec![0; n];
    // Block membership lives in one shared arena: `arena` is a permutation
    // of the node ids and `range[b]` is the contiguous `(start, len)` span
    // of block `b`'s members. A split sorts the span in place and carves it
    // into sub-spans — no member is ever copied and no per-block `Vec` is
    // ever allocated.
    let mut range: Vec<(u32, u32)> = Vec::new();
    {
        // Seed blocks (the only HashMap with composite keys; runs once).
        let mut key_to_block: HashMap<(Label, BisimRank), u32> = HashMap::new();
        for v in g.nodes() {
            let next = range.len() as u32;
            let id = *key_to_block.entry(seed(v)).or_insert_with(|| {
                range.push((0, 0));
                next
            });
            block[v.index()] = id;
            range[id as usize].1 += 1;
        }
    }
    let seed_blocks = range.len();
    let mut arena: Vec<u32> = vec![0; n];
    {
        // Counting scatter of nodes into their seed block's span.
        let mut start = 0u32;
        for r in range.iter_mut() {
            r.0 = start;
            start += r.1;
        }
        let mut cursor: Vec<u32> = range.iter().map(|r| r.0).collect();
        for (v, &b) in block.iter().enumerate() {
            arena[cursor[b as usize] as usize] = v as u32;
            cursor[b as usize] += 1;
        }
    }

    // All buffers below are allocated once and reused every round.
    let mut fp: Vec<u128> = vec![0; n];
    let mut dirty: Vec<bool> = vec![true; n];
    let mut work: Vec<u32> = (0..n as u32).collect();
    let mut block_affected: Vec<bool> = vec![false; seed_blocks];
    let mut affected: Vec<u32> = Vec::new();
    let mut runs: Vec<(u32, u32)> = Vec::new();
    // Epoch-marked deduplication of child blocks: `mark[b] == epoch` means
    // block b was already folded into the current node's fingerprint. Block
    // ids never exceed n, so one n-sized array serves every round.
    let mut mark: Vec<u64> = vec![0; n.max(1)];
    let mut epoch: u64 = 0;

    while !work.is_empty() {
        // Phase 1: refresh the fingerprints of dirty nodes. Nodes in
        // singleton blocks are skipped — a singleton can never split. The
        // fingerprint is an order-independent 128-bit sum over the *set* of
        // child blocks (duplicates dropped via the epoch marks), so it needs
        // one O(deg) scan — no sorting, no scratch list.
        for &v in &work {
            dirty[v as usize] = false;
            let b = block[v as usize];
            if range[b as usize].1 <= 1 {
                continue;
            }
            fp[v as usize] = node_fingerprint(g, &block, v, &mut mark, &mut epoch);
            if !block_affected[b as usize] {
                block_affected[b as usize] = true;
                affected.push(b);
            }
        }
        work.clear();

        // Phase 2: split every affected block by fingerprint. The largest
        // fragment keeps the block id (fewest parents dirtied); the rest
        // move to fresh ids.
        let first_new_block = range.len();
        for &b in &affected {
            block_affected[b as usize] = false;
            let (start, len) = range[b as usize];
            #[cfg(test)]
            tests::MEMBERS_READ.with(|c| c.set(c.get() + len as usize));
            let span = &mut arena[start as usize..(start + len) as usize];
            // Linear uniformity pre-scan: most affected blocks turn out not
            // to split, and a scan is much cheaper than the sort below.
            if len <= 1
                || span[1..]
                    .iter()
                    .all(|&v| fp[v as usize] == fp[span[0] as usize])
            {
                continue;
            }
            span.sort_unstable_by_key(|&v| fp[v as usize]);
            runs.clear();
            let mut run_start = 0u32;
            for i in 1..=len {
                if i == len
                    || fp[span[i as usize] as usize] != fp[span[run_start as usize] as usize]
                {
                    runs.push((run_start, i));
                    run_start = i;
                }
            }
            let largest = runs
                .iter()
                .enumerate()
                .max_by_key(|(_, r)| r.1 - r.0)
                .map(|(i, _)| i)
                .expect("non-empty runs");
            for (ri, &(rs, re)) in runs.iter().enumerate() {
                if ri == largest {
                    range[b as usize] = (start + rs, re - rs);
                    continue;
                }
                let id = range.len() as u32;
                range.push((start + rs, re - rs));
                block_affected.push(false);
                for i in rs..re {
                    block[arena[(start + i) as usize] as usize] = id;
                }
            }
        }
        affected.clear();

        // Phase 3: a node's signature only depends on its children's block
        // ids, so exactly the parents of moved nodes — the members of the
        // blocks created this round — need re-examination. Runs after every
        // split so the singleton check sees final block sizes.
        for nb in first_new_block..range.len() {
            let (start, len) = range[nb];
            for i in 0..len {
                let v = arena[(start + i) as usize];
                for &p in g.in_neighbors(NodeId(v)) {
                    if !dirty[p.index()] && range[block[p.index()] as usize].1 > 1 {
                        dirty[p.index()] = true;
                        work.push(p.0);
                    }
                }
            }
        }
    }

    densify(g.labels(), &block)
}

/// Densifies stable block ids into first-seen order and collects members —
/// shared by the worklist refinement and the reference.
fn densify(node_labels: &[Label], block: &[u32]) -> Classes<Label> {
    let n = block.len();
    // Block ids are always < n, so a flat vector serves as the remap table.
    let mut remap: Vec<u32> = vec![u32::MAX; n.max(1)];
    let mut class_of = vec![0u32; n];
    let mut members: Vec<Vec<NodeId>> = Vec::new();
    let mut labels: Vec<Label> = Vec::new();
    for v in 0..n {
        let slot = &mut remap[block[v] as usize];
        if *slot == u32::MAX {
            *slot = members.len() as u32;
            members.push(Vec::new());
            labels.push(node_labels[v]);
        }
        let id = *slot;
        class_of[v] = id;
        members[id as usize].push(NodeId(v as u32));
    }
    Classes {
        class_of,
        members,
        payload: labels,
    }
}

/// A reference implementation seeded only by labels (no rank
/// stratification).
// qpgc-lint: allow(dead-surface) -- oracle of bisim::tests::worklist_csr_matches_baseline
pub fn reference_bisimulation(g: &LabeledGraph) -> Classes<Label> {
    refine_to_fixpoint(g, |v| (g.label(v), BisimRank::Finite(0)))
}

/// Runs the per-round hash-table signature-refinement fixpoint from an
/// initial block assignment given by `seed`. The block count is carried
/// between rounds (the old implementation rescanned the whole block vector
/// with a `count_distinct` pass every round).
fn refine_to_fixpoint<F>(g: &LabeledGraph, seed: F) -> Classes<Label>
where
    F: Fn(NodeId) -> (Label, BisimRank),
{
    let n = g.node_count();
    let mut block: Vec<u32> = vec![0; n];
    let mut block_count;
    {
        let mut key_to_block: HashMap<(Label, BisimRank), u32> = HashMap::new();
        for v in g.nodes() {
            let key = seed(v);
            let next = key_to_block.len() as u32;
            let id = *key_to_block.entry(key).or_insert(next);
            block[v.index()] = id;
        }
        block_count = key_to_block.len();
    }

    // Refine until stable: the signature of a node is (its current block,
    // the sorted deduplicated set of its children's blocks). Splitting can
    // only increase the block count, so an unchanged count means fixpoint.
    loop {
        let mut key_to_block: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
        let mut new_block = vec![0u32; n];
        for v in g.nodes() {
            let mut succ: Vec<u32> = g
                .out_neighbors(v)
                .iter()
                .map(|&w| block[w.index()])
                .collect();
            succ.sort_unstable();
            succ.dedup();
            let key = (block[v.index()], succ);
            let next = key_to_block.len() as u32;
            let id = *key_to_block.entry(key).or_insert(next);
            new_block[v.index()] = id;
        }
        let new_count = key_to_block.len();
        block = new_block;
        if new_count == block_count {
            break;
        }
        block_count = new_count;
    }

    densify(g.labels(), &block)
}

/// A pairwise oracle for bisimilarity used in tests: checks the definition
/// directly by a coinductive fixpoint over candidate pairs (O(n²·m), only
/// for tiny graphs).
// qpgc-lint: allow(dead-surface) -- oracle of bisim::tests::matches_naive_pairwise_oracle
pub fn naive_bisimilar(g: &LabeledGraph, a: NodeId, b: NodeId) -> bool {
    let n = g.node_count();
    // related[u][v] starts true iff labels agree, then is refined.
    let mut related = vec![vec![false; n]; n];
    for u in g.nodes() {
        for v in g.nodes() {
            related[u.index()][v.index()] = g.label(u) == g.label(v);
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for u in g.nodes() {
            for v in g.nodes() {
                if !related[u.index()][v.index()] {
                    continue;
                }
                let forward = g.out_neighbors(u).iter().all(|&uc| {
                    g.out_neighbors(v)
                        .iter()
                        .any(|&vc| related[uc.index()][vc.index()])
                });
                let backward = g.out_neighbors(v).iter().all(|&vc| {
                    g.out_neighbors(u)
                        .iter()
                        .any(|&uc| related[uc.index()][vc.index()])
                });
                if !(forward && backward) {
                    related[u.index()][v.index()] = false;
                    changed = true;
                }
            }
        }
    }
    related[a.index()][b.index()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::tests::canonical;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    thread_local! {
        /// How many block members phase 2 of this thread's refinements has
        /// read (the members of every block it examined): the cost test
        /// bounds it.
        pub(super) static MEMBERS_READ: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    fn partition(g: &LabeledGraph) -> Classes<Label> {
        bisimulation_partition_csr(&g.freeze())
    }

    fn graph(labels: &[&str], edges: &[(u32, u32)]) -> LabeledGraph {
        let mut g = LabeledGraph::new();
        for l in labels {
            g.add_node_with_label(l);
        }
        for &(u, v) in edges {
            g.add_edge(NodeId(u), NodeId(v));
        }
        g
    }

    #[test]
    fn leaves_with_same_label_are_bisimilar() {
        let g = graph(&["A", "B", "B"], &[(0, 1), (0, 2)]);
        let p = partition(&g);
        assert_eq!(p.class_of(NodeId(1)), p.class_of(NodeId(2)));
        assert_eq!(p.class_count(), 2);
    }

    #[test]
    fn different_labels_never_bisimilar() {
        let g = graph(&["A", "B"], &[]);
        let p = partition(&g);
        assert_ne!(p.class_of(NodeId(0)), p.class_of(NodeId(1)));
    }

    #[test]
    fn paper_fig6_g1_a_nodes_not_bisimilar() {
        // Fig. 6, G1: A1 -> B1 -> C, A2 -> {B2 -> C, B3 -> D}, A3 -> B4 -> D.
        // None of the A nodes are bisimilar to each other.
        let g = graph(
            &["A", "A", "A", "B", "B", "B", "B", "C", "D"],
            &[
                (0, 3), // A1 -> B1
                (3, 7), // B1 -> C
                (1, 4), // A2 -> B2
                (1, 5), // A2 -> B3
                (4, 7), // B2 -> C
                (5, 8), // B3 -> D
                (2, 6), // A3 -> B4
                (6, 8), // B4 -> D
            ],
        );
        let p = partition(&g);
        assert_ne!(p.class_of(NodeId(0)), p.class_of(NodeId(1)));
        assert_ne!(p.class_of(NodeId(0)), p.class_of(NodeId(2)));
        assert_ne!(p.class_of(NodeId(1)), p.class_of(NodeId(2)));
        // B1 and B2 are bisimilar (both lead only to C); B3 and B4 likewise.
        assert_eq!(p.class_of(NodeId(3)), p.class_of(NodeId(4)));
        assert_eq!(p.class_of(NodeId(5)), p.class_of(NodeId(6)));
        assert_ne!(p.class_of(NodeId(3)), p.class_of(NodeId(5)));
    }

    #[test]
    fn paper_fig6_g2_a5_a6_bisimilar() {
        // Fig. 6, G2 (spirit): A4 -> B5 -> C5, A5 -> B6 -> C6, A6 -> B7 -> C7,
        // where A4 additionally reaches a D node, making it non-bisimilar to
        // A5/A6 while still being reachability-comparable.
        let g = graph(
            &["A", "A", "A", "B", "B", "B", "C", "C", "C", "D"],
            &[
                (0, 3),
                (3, 6),
                (3, 9), // A4's B child also points to D
                (1, 4),
                (4, 7),
                (2, 5),
                (5, 8),
            ],
        );
        let p = partition(&g);
        assert_eq!(p.class_of(NodeId(1)), p.class_of(NodeId(2)));
        assert_ne!(p.class_of(NodeId(0)), p.class_of(NodeId(1)));
    }

    #[test]
    fn cycles_of_same_label_are_bisimilar() {
        // Two disjoint self-reinforcing cycles with the same label are
        // bisimilar; a chain with the same label is not bisimilar to them.
        let g = graph(
            &["X", "X", "X", "X", "X"],
            &[(0, 1), (1, 0), (2, 3), (3, 2), (4, 4)],
        );
        let p = partition(&g);
        assert_eq!(p.class_of(NodeId(0)), p.class_of(NodeId(1)));
        assert_eq!(p.class_of(NodeId(0)), p.class_of(NodeId(2)));
        assert_eq!(p.class_of(NodeId(0)), p.class_of(NodeId(4))); // self loop simulates the 2-cycle
    }

    #[test]
    fn chain_vs_cycle_not_bisimilar() {
        let g = graph(&["X", "X", "X"], &[(0, 1), (2, 2)]);
        let p = partition(&g);
        // Node 0 has a child that is a leaf; node 2's children all loop.
        assert_ne!(p.class_of(NodeId(0)), p.class_of(NodeId(2)));
        assert_ne!(p.class_of(NodeId(1)), p.class_of(NodeId(2)));
    }

    fn random_labeled(rng: &mut StdRng, n_max: usize, alphabet: &[&str]) -> LabeledGraph {
        let n = rng.gen_range(2..n_max);
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node_with_label(alphabet[rng.gen_range(0..alphabet.len())]);
        }
        let m = rng.gen_range(0..n * 3);
        for _ in 0..m {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            g.add_edge(NodeId(u), NodeId(v));
        }
        g
    }

    #[test]
    fn rank_stratified_matches_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..25 {
            let g = random_labeled(&mut rng, 20, &["A", "B", "C"]);
            let a = partition(&g);
            let b = reference_bisimulation(&g);
            assert_eq!(canonical(&a.members), canonical(&b.members));
        }
    }

    #[test]
    fn worklist_csr_matches_baseline() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..40 {
            let g = random_labeled(&mut rng, 40, &["A", "B", "C", "D"]);
            let fast = bisimulation_partition_csr(&g.freeze());
            let slow = reference_bisimulation(&g);
            assert_eq!(canonical(&fast.members), canonical(&slow.members));
        }
    }

    #[test]
    fn matches_naive_pairwise_oracle() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..15 {
            let g = random_labeled(&mut rng, 9, &["A", "B"]);
            let p = partition(&g);
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(
                        p.class_of(u) == p.class_of(v),
                        naive_bisimilar(&g, u, v),
                        "bisimilarity mismatch for ({u}, {v})"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_labels_are_consistent() {
        let g = graph(&["A", "B", "B", "A"], &[(0, 1), (3, 2)]);
        let p = partition(&g);
        for (c, members) in p.members.iter().enumerate() {
            for &m in members {
                assert_eq!(g.label(m), p.payload[c]);
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = LabeledGraph::new();
        let p = partition(&g);
        assert_eq!(p.class_count(), 0);
        let b = reference_bisimulation(&g);
        assert_eq!(b.class_count(), 0);
    }

    /// A chain of 8 192 nodes of one label: every node is its own class.
    /// Seeded by (label, rank) every seed block is a singleton and phase 2
    /// reads nothing; seeded by label alone, each round splits one node off
    /// the whole chain's block and reads it again (about n²/2 members).
    #[test]
    fn a_same_label_chain_reads_linear_members() {
        let n = 8192u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (v - 1, v)).collect();
        let g = graph(&vec!["X"; n as usize], &edges);
        MEMBERS_READ.with(|c| c.set(0));
        let p = partition(&g);
        let read = MEMBERS_READ.with(|c| c.get());
        assert_eq!(p.class_count(), n as usize);
        assert!(read <= 4 * n as usize, "{read} members read for {n} nodes");
    }

    #[test]
    fn canonical_is_stable() {
        let g = graph(&["A", "B", "B"], &[(0, 1), (0, 2)]);
        let p1 = partition(&g);
        let p2 = partition(&g);
        assert_eq!(canonical(&p1.members), canonical(&p2.members));
    }
}
