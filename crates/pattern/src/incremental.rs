//! `incPCM` — incremental maintenance of the pattern-preserving compression
//! (Section 5.2, Fig. 10) — and the `IncBsim` baseline.
//!
//! Given the bisimulation quotient of `G` and a batch `ΔG` of edge updates,
//! the maintained state is updated to the quotient of `G ⊕ ΔG` without
//! recompressing and without traversing the unaffected part of `G`.
//!
//! ## Algorithm
//!
//! As with the reachability case, the paper's `bSplit`/`bMerge`/`PT`
//! procedures are realized as an *affected-region localized recomputation*
//! (the skeleton shared with `incRCM` is [`qpgc_graph::quotient`]):
//!
//! 1. **Affected classes.** Bisimilarity of a node depends only on its
//!    label and the behaviour of its descendants, so an edge update
//!    `(u, w)` can only change the class of nodes that reach `u`, i.e. the
//!    ancestor cone of `[u]` in the compressed graph (Lemma 9's rank
//!    argument is the same observation phrased through `rb`). The union of
//!    those cones over the batch is `AFF`.
//! 2. **Hybrid graph.** Cut the affected classes into *units* — members
//!    of one class with the same out-neighbours, a neighbour read as its
//!    class where that class is unaffected (they shared a label already,
//!    so they stay bisimilar; [`qpgc_graph::quotient`], lemma L3) — and
//!    keep every unaffected class as a single *atom* labelled with the
//!    class label, connected by the maintained class-level edges
//!    (including self loops). The mapping "unaffected node ↦ its atom,
//!    affected node ↦ its unit" is a functional bisimulation from
//!    `G ⊕ ΔG` to this hybrid graph, so running the ordinary bisimulation
//!    partition on the hybrid graph yields exactly the new equivalence
//!    classes. (Bisimilarity has no closure to read the unaffected side
//!    off, so unlike `incRCM` this is its only regroup.)
//! 3. **Patch.** Unchanged atoms keep their identity; every other group
//!    becomes a (re)built class, and the class-level edge counters incident
//!    to rebuilt classes are refreshed from the adjacency of their members.
//!
//! The cost depends on `|AFF|`, `|Gr|` and the edges incident to affected
//! members — never on `|G|` (the problem is unbounded, Theorem 8, so a
//! dependence on `|Gr|` is unavoidable in general).

#![deny(clippy::disallowed_types)]

use std::sync::Arc;

use qpgc_graph::ids::LabelInterner;
use qpgc_graph::quotient::{Classes, Equivalence, IncrementalQuotient};
use qpgc_graph::update::{PartitionDelta, Update};
use qpgc_graph::{CsrGraph, Label, LabeledGraph, NodeId, UpdateBatch};

use crate::bisim::bisimulation_partition_csr;
use crate::compress::PatternCompression;

pub use qpgc_graph::quotient::IncStats;

/// The maintained pattern compression exported under **stable** class ids —
/// the bisimulation-side mirror of
/// `qpgc_reach::incremental::StableQuotient`.
///
/// Stable ids survive across updates for classes a batch's
/// [`PartitionDelta`] does not touch. Retired ids are inactive holes;
/// derived structures (see [`PatternView`](crate::view::PatternView)) keep
/// an isolated row for them.
#[derive(Clone, Debug)]
pub struct StablePatternQuotient {
    /// `class_of[v]` — stable class id of node `v` (always an active id).
    pub class_of: Vec<u32>,
    /// Class label per stable id (stale for inactive ids).
    pub labels: Vec<Label>,
    /// Liveness per stable id.
    pub active: Vec<bool>,
    /// Member nodes per stable id, ascending (empty for inactive ids).
    /// Shared slices so consumers that keep per-class member rows (the
    /// served [`PatternView`](crate::view::PatternView)) adopt them with a
    /// reference bump instead of a second copy.
    pub members: Vec<Arc<[NodeId]>>,
    /// Distinct class-level edges of the quotient — the key set of the
    /// maintained quotient-edge counters, sorted by `(source, target)`
    /// stable id. Self entries `(c, c)` are included (they are the
    /// hypernode self loops induced by intra-class edges).
    pub edges: Vec<(u32, u32)>,
    /// Label names of the original graph, so views built from this export
    /// can resolve pattern queries written against the original label
    /// vocabulary.
    pub interner: LabelInterner,
    /// Number of `true` entries of `active`, carried so consumers need not
    /// scan for it.
    pub live_classes: usize,
}

impl StablePatternQuotient {
    /// Size of the stable id space (`max id + 1`, holes included).
    pub fn id_space(&self) -> usize {
        self.active.len()
    }

    /// Number of live classes (`|Vr|`).
    pub fn class_count(&self) -> usize {
        debug_assert_eq!(
            self.live_classes,
            self.active.iter().filter(|&&a| a).count()
        );
        self.live_classes
    }
}

/// Bisimilarity (same label, and every child of one node is matched by a
/// bisimilar child of the other) as the relation an
/// [`IncrementalQuotient`] maintains.
#[derive(Clone, Copy, Debug)]
pub struct BisimEquivalence;

impl Equivalence for BisimEquivalence {
    /// The label every member of the class carries.
    type Class = Label;

    /// Intra-class edges are hypernode self loops that bounded simulation
    /// must see, so `(c, c)` is an ordinary quotient edge.
    const SELF_EDGES: bool = true;

    /// Bisimilarity depends on a node's label and descendants only.
    const ANCESTOR_SENSITIVE: bool = false;

    fn cyclic(_: Label) -> bool {
        false
    }

    fn class_label(class: Label) -> Label {
        class
    }

    fn node_label(g: &LabeledGraph, v: NodeId) -> Label {
        g.label(v)
    }

    fn partition(g: &CsrGraph) -> Classes<Label> {
        bisimulation_partition_csr(g)
    }
}

/// Incrementally maintained pattern-preserving compression: the shared
/// [`IncrementalQuotient`] skeleton instantiated with [`BisimEquivalence`],
/// plus what only this side has — the label interner, the member-list
/// exports, and the `IncBsim` one-by-one baseline.
#[derive(Clone, Debug)]
pub struct IncrementalPattern {
    q: IncrementalQuotient<BisimEquivalence>,
    /// Label names of the original graph, kept so the materialized
    /// compressed graph can resolve pattern queries written by name.
    interner: LabelInterner,
}

impl IncrementalPattern {
    /// Builds the compression of `g` from scratch.
    pub fn new(g: &LabeledGraph) -> Self {
        IncrementalPattern {
            q: IncrementalQuotient::new(g),
            interner: g.interner().clone(),
        }
    }

    /// Number of active classes (`|Vr|`).
    pub fn class_count(&self) -> usize {
        self.q.class_count()
    }

    /// The class id of node `v`.
    pub fn class_of(&self, v: NodeId) -> u32 {
        self.q.class_of(v)
    }

    /// Checks the maintained state against `g`, the graph the last batch was
    /// applied to; see [`IncrementalQuotient::check_invariants`].
    pub fn check_invariants(&self, g: &LabeledGraph) -> Result<(), String> {
        self.q.check_invariants(g)
    }

    /// Applies the update batch: mutates `g` to `G ⊕ ΔG` and maintains the
    /// compressed state so that it equals `R(G ⊕ ΔG)`.
    pub fn apply(&mut self, g: &mut LabeledGraph, batch: &UpdateBatch) -> IncStats {
        self.apply_with_delta(g, batch).0
    }

    /// [`IncrementalPattern::apply`] that also exports the structured
    /// [`PartitionDelta`] — retired and created stable class ids, and the
    /// id-space size.
    pub fn apply_with_delta(
        &mut self,
        g: &mut LabeledGraph,
        batch: &UpdateBatch,
    ) -> (IncStats, PartitionDelta) {
        let norm = batch.normalized(g);
        norm.apply_to(g);
        self.apply_normalized(g, &norm)
    }

    /// The maintenance step alone, for callers that own the data graph and
    /// normalise once for several maintainers: `norm` must be a batch
    /// normalized against the pre-batch graph
    /// ([`UpdateBatch::normalized`]) and `g` must **already be**
    /// `G ⊕ norm`. Only the maintained state is touched. Every normalized
    /// update is effective — bisimulation has no redundant-insertion rule —
    /// and the affected classes are the ancestor cones of the update
    /// sources' classes.
    pub fn apply_normalized(
        &mut self,
        g: &LabeledGraph,
        norm: &UpdateBatch,
    ) -> (IncStats, PartitionDelta) {
        let edges: Vec<(NodeId, NodeId)> = norm.updates().iter().map(Update::edge).collect();
        let step = self
            .q
            .apply_effective(g, &edges, &[], IncrementalQuotient::regroup_hybrid);
        debug_assert_eq!(self.check_invariants(g), Ok(()));
        step
    }

    /// Applies a batch one update at a time, re-running the incremental
    /// algorithm per unit update. This is the `IncBsim` baseline of
    /// Fig. 12(g): the single-update incremental bisimulation invoked
    /// repeatedly.
    pub fn apply_one_by_one(&mut self, g: &mut LabeledGraph, batch: &UpdateBatch) -> IncStats {
        let mut total = IncStats::default();
        for u in batch.updates() {
            let single = UpdateBatch::from_updates(vec![*u]);
            total = total + self.apply(g, &single);
        }
        total
    }

    /// Exports the current state under **stable** class ids (node → class
    /// index, labels, liveness, member lists, and the distinct class-level
    /// edges from the maintained counters — no graph rescan); see
    /// [`StablePatternQuotient`].
    pub fn stable_quotient(&self) -> StablePatternQuotient {
        StablePatternQuotient {
            class_of: self.q.class_index().to_vec(),
            labels: self.q.payload().to_vec(),
            active: self.q.active().to_vec(),
            members: self
                .q
                .members()
                .iter()
                .map(|m| Arc::from(m.as_slice()))
                .collect(),
            edges: self.q.sorted_edges(),
            interner: self.interner.clone(),
            live_classes: self.q.class_count(),
        }
    }

    /// Materializes the current state as a [`PatternCompression`]: the
    /// dense renumbering of the classes and of the rows' class edges, handed
    /// to the constructor `compress_b` uses.
    pub fn to_compression(&self) -> PatternCompression {
        let (dense, classes) = self.q.dense();
        let edges = self.q.sorted_edges().into_iter();
        PatternCompression::from_classes(
            classes,
            edges.map(|(a, b)| (dense[a as usize], dense[b as usize])),
            &self.interner,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::bounded_match;
    use crate::compress::compress_b;
    use crate::pattern::Pattern;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    fn assert_matches_batch(mut g: LabeledGraph, batch: UpdateBatch) {
        let mut inc = IncrementalPattern::new(&g);
        inc.apply(&mut g, &batch);
        let expect = compress_b(&g);
        let got = inc.to_compression();
        assert_eq!(
            got.partition.canonical(),
            expect.partition.canonical(),
            "incremental bisimulation diverged from batch recompression"
        );
        // The materialized quotient graphs must also be isomorphic in the
        // sense that both preserve the same pattern queries; spot check with
        // a generic two-edge pattern over the labels present.
        let mut p = Pattern::new();
        let a = p.add_node("A");
        let b = p.add_node("B");
        p.add_edge(a, b, 2);
        let on_g = bounded_match(&g, &p);
        let on_inc = bounded_match(&got.graph, &p).map(|m| got.post_process(&m));
        match (on_g, on_inc) {
            (None, None) => {}
            (Some(x), Some(y)) => assert_eq!(x.canonical(), y.canonical()),
            (x, y) => panic!(
                "boolean answers diverge: original={} incremental={}",
                x.is_some(),
                y.is_some()
            ),
        }
    }

    #[test]
    fn insertion_splits_bisimilar_nodes() {
        // B1 and B2 bisimilar until B1 gets a new child with a fresh label.
        let g = graph(
            &["A", "B", "B", "C", "C", "D"],
            &[(0, 1), (0, 2), (1, 3), (2, 4)],
        );
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(1), NodeId(5));
        assert_matches_batch(g, batch);
    }

    #[test]
    fn insertion_merges_nodes() {
        // B2 lacks a C child; adding one makes it bisimilar to B1.
        let g = graph(&["A", "B", "B", "C", "C"], &[(0, 1), (0, 2), (1, 3)]);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(2), NodeId(4));
        assert_matches_batch(g, batch);
    }

    #[test]
    fn deletion_propagates_to_ancestors() {
        // Removing a C child of B1 changes B1's class and therefore A's view.
        let g = graph(
            &["A", "A", "B", "B", "C", "C"],
            &[(0, 2), (1, 3), (2, 4), (3, 5)],
        );
        let mut batch = UpdateBatch::new();
        batch.delete(NodeId(2), NodeId(4));
        assert_matches_batch(g, batch);
    }

    #[test]
    fn cycle_creation_and_destruction() {
        let g = graph(&["X", "X", "X", "X"], &[(0, 1), (1, 2), (2, 3)]);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(3), NodeId(0));
        assert_matches_batch(g.clone(), batch);

        let g2 = graph(&["X", "X", "X", "X"], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut batch2 = UpdateBatch::new();
        batch2.delete(NodeId(2), NodeId(3));
        assert_matches_batch(g2, batch2);
    }

    #[test]
    fn mixed_batch() {
        let g = graph(
            &["A", "B", "B", "C", "C", "D"],
            &[(0, 1), (0, 2), (1, 3), (2, 4), (4, 5)],
        );
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(3), NodeId(5));
        batch.delete(NodeId(2), NodeId(4));
        batch.insert(NodeId(5), NodeId(5));
        assert_matches_batch(g, batch);
    }

    #[test]
    fn one_by_one_matches_batch_application() {
        let g = graph(
            &["A", "B", "B", "C", "C"],
            &[(0, 1), (0, 2), (1, 3), (2, 4)],
        );
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(1), NodeId(4));
        batch.delete(NodeId(2), NodeId(4));

        let mut g1 = g.clone();
        let mut inc1 = IncrementalPattern::new(&g1);
        inc1.apply(&mut g1, &batch);

        let mut g2 = g.clone();
        let mut inc2 = IncrementalPattern::new(&g2);
        inc2.apply_one_by_one(&mut g2, &batch);

        assert_eq!(
            inc1.to_compression().partition.canonical(),
            inc2.to_compression().partition.canonical()
        );
        assert_eq!(
            inc1.to_compression().partition.canonical(),
            compress_b(&g1).partition.canonical()
        );
    }

    /// `hybrid_nodes` is filled on this side too: atoms of the unaffected
    /// classes plus the units of the exploded ancestor cone of the update
    /// sources — one per member here, where the update tells the two
    /// members of its class apart.
    #[test]
    fn hybrid_nodes_counts_atoms_plus_exploded_members() {
        // Classes {A}, {B1,B2}, {C1,C2}, {D}.
        let mut g = graph(
            &["A", "B", "B", "C", "C", "D"],
            &[(0, 1), (0, 2), (1, 3), (2, 4)],
        );
        let mut inc = IncrementalPattern::new(&g);
        let classes_before = inc.class_count();
        assert_eq!(classes_before, 4);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(1), NodeId(5));
        let stats = inc.apply(&mut g, &batch);
        // Affected: the ancestor cone of [B1] = {B1,B2}, {A}.
        assert_eq!(stats.affected_classes, 2);
        assert_eq!(stats.affected_nodes, 3);
        assert_eq!(stats.redundant_dropped, 0);
        // {C1,C2} and {D} stay atoms.
        assert_eq!(stats.hybrid_nodes, 5);
        assert_eq!(
            stats.hybrid_nodes,
            stats.affected_nodes + classes_before - stats.affected_classes
        );
    }

    /// Members of an exploded class with the same out-neighbours — read as
    /// classes where those are unaffected — are one unit of the hybrid
    /// graph, and stay one class.
    #[test]
    fn twins_of_an_exploded_class_are_one_hybrid_node() {
        // Classes {A}, {B1,B2,B3}, {C1,C2,C3}, {D}; B3 → D tells B3 apart.
        let mut g = graph(
            &["A", "B", "B", "B", "C", "C", "C", "D"],
            &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)],
        );
        let mut inc = IncrementalPattern::new(&g);
        assert_eq!(inc.class_count(), 4);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(3), NodeId(7));
        let stats = inc.apply(&mut g, &batch);
        assert_eq!((stats.affected_classes, stats.affected_nodes), (2, 4));
        // Atoms {C*}, {D}; units {A}, {B1,B2}, {B3}.
        assert_eq!(stats.hybrid_nodes, 5);
        assert_eq!(inc.class_of(NodeId(1)), inc.class_of(NodeId(2)));
        assert_ne!(inc.class_of(NodeId(1)), inc.class_of(NodeId(3)));
        assert_eq!(
            inc.to_compression().partition.canonical(),
            compress_b(&g).partition.canonical()
        );
    }

    #[test]
    fn noop_batch() {
        let g = graph(&["A", "B"], &[(0, 1)]);
        let mut g2 = g.clone();
        let mut inc = IncrementalPattern::new(&g2);
        let stats = inc.apply(&mut g2, &UpdateBatch::new());
        assert_eq!(stats, IncStats::default());
        assert_eq!(inc.class_count(), 2);
    }

    /// Checks a delta against the stable exports before and after its
    /// step: every id it neither removes nor bears keeps its exact member
    /// set, liveness and label; every born id is live; and the born classes
    /// hold exactly the members of the retired ones.
    fn assert_delta_explains(
        before: &StablePatternQuotient,
        delta: &PartitionDelta,
        after: &StablePatternQuotient,
        ctx: &str,
    ) {
        assert_eq!(delta.id_space, after.id_space(), "{ctx}");
        let members = |sq: &StablePatternQuotient, ids: &[u32]| -> Vec<NodeId> {
            let mut nodes: Vec<NodeId> = ids
                .iter()
                .flat_map(|&c| sq.members[c as usize].iter().copied())
                .collect();
            nodes.sort_unstable();
            nodes
        };
        for &b in &delta.born {
            assert!(after.active[b as usize], "{ctx}: born id {b} is not live");
        }
        assert_eq!(
            members(before, &delta.removed),
            members(after, &delta.born),
            "{ctx}: born classes are not the retired members"
        );
        let touched = |c: &u32| delta.removed.contains(c) || delta.born.contains(c);
        for c in (0..after.id_space() as u32).filter(|c| !touched(c)) {
            let (i, live) = (c as usize, after.active[c as usize]);
            assert_eq!(before.active.get(i), Some(&live), "{ctx}: liveness of {c}");
            assert_eq!(before.members[i], after.members[i], "{ctx}: members of {c}");
            if live {
                assert_eq!(before.labels[i], after.labels[i], "{ctx}: label of {c}");
            }
        }
    }

    #[test]
    fn delta_export_replays_the_class_lifecycle() {
        let mut rng = StdRng::seed_from_u64(123);
        let alphabet = ["A", "B", "C"];
        for case in 0..30 {
            let n = rng.gen_range(3..14);
            let mut g = LabeledGraph::new();
            for _ in 0..n {
                g.add_node_with_label(alphabet[rng.gen_range(0..alphabet.len())]);
            }
            for _ in 0..rng.gen_range(0..n * 2) {
                let u = rng.gen_range(0..n) as u32;
                let v = rng.gen_range(0..n) as u32;
                g.add_edge(NodeId(u), NodeId(v));
            }
            let mut inc = IncrementalPattern::new(&g);
            let before = inc.stable_quotient();
            let mut batch = UpdateBatch::new();
            for _ in 0..rng.gen_range(1..5) {
                let u = NodeId(rng.gen_range(0..n) as u32);
                let v = NodeId(rng.gen_range(0..n) as u32);
                if rng.gen_bool(0.5) {
                    batch.insert(u, v);
                } else {
                    batch.delete(u, v);
                }
            }
            let (stats, delta) = inc.apply_with_delta(&mut g, &batch);
            assert_eq!(stats.changed_classes, delta.born.len());
            let after = inc.stable_quotient();
            assert_delta_explains(&before, &delta, &after, &format!("case {case}"));
        }
    }

    #[test]
    fn randomized_incremental_equals_batch() {
        let mut rng = StdRng::seed_from_u64(99);
        let alphabet = ["A", "B", "C"];
        for case in 0..30 {
            let n = rng.gen_range(3..14);
            let mut g = LabeledGraph::new();
            for _ in 0..n {
                g.add_node_with_label(alphabet[rng.gen_range(0..alphabet.len())]);
            }
            for _ in 0..rng.gen_range(0..n * 2) {
                let u = rng.gen_range(0..n) as u32;
                let v = rng.gen_range(0..n) as u32;
                g.add_edge(NodeId(u), NodeId(v));
            }
            let mut batch = UpdateBatch::new();
            for _ in 0..rng.gen_range(1..6) {
                let u = NodeId(rng.gen_range(0..n) as u32);
                let v = NodeId(rng.gen_range(0..n) as u32);
                if rng.gen_bool(0.5) {
                    batch.insert(u, v);
                } else {
                    batch.delete(u, v);
                }
            }
            let mut g2 = g.clone();
            let mut inc = IncrementalPattern::new(&g2);
            inc.apply(&mut g2, &batch);
            assert_eq!(
                inc.to_compression().partition.canonical(),
                compress_b(&g2).partition.canonical(),
                "case {case} diverged"
            );
        }
    }

    #[test]
    fn repeated_batches_stay_consistent() {
        let mut g = graph(
            &["A", "B", "B", "C", "C", "D"],
            &[(0, 1), (0, 2), (1, 3), (2, 4), (3, 5)],
        );
        let mut inc = IncrementalPattern::new(&g);
        let steps: Vec<Vec<(u32, u32, bool)>> = vec![
            vec![(4, 5, true)],
            vec![(1, 3, false), (2, 3, true)],
            vec![(5, 0, true)],
            vec![(5, 0, false), (0, 1, false)],
        ];
        for step in steps {
            let mut batch = UpdateBatch::new();
            for (u, v, ins) in step {
                if ins {
                    batch.insert(NodeId(u), NodeId(v));
                } else {
                    batch.delete(NodeId(u), NodeId(v));
                }
            }
            inc.apply(&mut g, &batch);
            assert_eq!(
                inc.to_compression().partition.canonical(),
                compress_b(&g).partition.canonical()
            );
        }
    }
}
