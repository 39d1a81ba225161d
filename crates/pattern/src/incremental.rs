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
//! (the skeleton shared with `incRCM` is [`qpgc_graph::quotient`], whose
//! B1 and B2 are the argument):
//!
//! 1. **Node cone.** Bisimilarity of a node depends only on its label and
//!    the behaviour of its descendants, so an edge update `(u, w)` can only
//!    change the class of nodes that reach `u` (Lemma 9's rank argument is
//!    the same observation phrased through `rb`). The step walks the
//!    updated graph's in-edges from the update sources; the nodes it
//!    reaches are `A`, and every other member of a class keeps the class's
//!    id and key.
//! 2. **Index regroup.** The nodes of `A` are cut into units — members of
//!    one class with the same out-neighbours, a neighbour outside `A` read
//!    as its class — and placed bottom-up, in reverse topological order of
//!    the unit graph's components, by a lookup of `(label, successor class
//!    ids)` in an index the quotient keeps over its live classes. A
//!    bisimulation quotient is its own coarsest partition, so a key names
//!    at most one class: a hit joins it, a miss forms a new class.
//! 3. **Fallback.** A cycle of units that splits into several classes has
//!    no bottom to start from: that step runs the ordinary bisimulation
//!    partition on the hybrid graph — one atom per class with a member
//!    outside `A`, plus the units — instead, and counts it
//!    ([`IncStats::hybrid_fallbacks`]).
//! 4. **Patch.** A class whose members (and, wholly inside `A`, key) did
//!    not change keeps its id and is in neither list of the
//!    [`PartitionDelta`]; every other group becomes a (re)built class, and
//!    the class-level rows — and the keys — of the classes around it are
//!    refreshed from the adjacency of its members.
//!
//! The cost depends on `A`, the unit graph and the adjacency of the
//! classes whose members change — not on `|G|` or `|Gr|`, except on the
//! fallback (the problem is unbounded, Theorem 8, so a dependence on
//! `|Gr|` is unavoidable in general).

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

    /// The coarsest bisimulation relates two nodes exactly when they share
    /// a label and their successors fall in the same classes.
    const KEYED: bool = true;

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
    /// and the affected nodes are those that reach an update source.
    pub fn apply_normalized(
        &mut self,
        g: &LabeledGraph,
        norm: &UpdateBatch,
    ) -> (IncStats, PartitionDelta) {
        let edges: Vec<(NodeId, NodeId)> = norm.updates().iter().map(Update::edge).collect();
        let step = self
            .q
            .apply_effective(g, &edges, &[], IncrementalQuotient::regroup_keyed);
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

    /// The step forced through the hybrid kernel instead of the key
    /// regroup: the twin every index-path step is checked against.
    fn apply_hybrid(
        inc: &mut IncrementalPattern,
        g: &mut LabeledGraph,
        batch: &UpdateBatch,
    ) -> (IncStats, PartitionDelta) {
        let norm = batch.normalized(g);
        norm.apply_to(g);
        let edges: Vec<(NodeId, NodeId)> = norm.updates().iter().map(Update::edge).collect();
        let step = (inc.q).apply_effective(g, &edges, &[], IncrementalQuotient::regroup_hybrid);
        assert_eq!(inc.check_invariants(g), Ok(()));
        step
    }

    /// On the hybrid path `hybrid_nodes` counts one atom per class with a
    /// member outside the node cone — the part of a partly cut class
    /// included — plus the units of the cone.
    #[test]
    fn hybrid_nodes_counts_atoms_plus_exploded_members() {
        // Classes {A}, {B1,B2}, {C1,C2}, {D}.
        let mut g = graph(
            &["A", "B", "B", "C", "C", "D"],
            &[(0, 1), (0, 2), (1, 3), (2, 4)],
        );
        let mut inc = IncrementalPattern::new(&g);
        assert_eq!(inc.class_count(), 4);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(1), NodeId(5));
        let (stats, _) = apply_hybrid(&mut inc, &mut g, &batch);
        // The cone: B1 and A, in classes {A} (wholly) and {B1,B2}.
        assert_eq!((stats.affected_classes, stats.affected_nodes), (2, 2));
        assert_eq!(stats.redundant_dropped, 0);
        // Atoms {B2}, {C1,C2}, {D}; units {A}, {B1}.
        assert_eq!(stats.hybrid_nodes, 5);
        assert_eq!(stats.hybrid_fallbacks, 0);
    }

    /// On the index path `hybrid_nodes` is the unit count, and the
    /// affected counts are node-level: only the nodes that reach the
    /// update's source are cut.
    #[test]
    fn hybrid_nodes_counts_the_units_on_the_index_path() {
        let mut g = graph(
            &["A", "B", "B", "C", "C", "D"],
            &[(0, 1), (0, 2), (1, 3), (2, 4)],
        );
        let mut inc = IncrementalPattern::new(&g);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(1), NodeId(5));
        let stats = inc.apply(&mut g, &batch);
        assert_eq!((stats.affected_classes, stats.affected_nodes), (2, 2));
        assert_eq!((stats.hybrid_nodes, stats.hybrid_fallbacks), (2, 0));
        // B1 leaves {B1,B2}, A's successors change class: two born, and
        // the rest of {B1,B2} is born again as {B2}.
        assert_eq!(stats.changed_classes, 3);
        assert_eq!(
            inc.to_compression().partition.canonical(),
            compress_b(&g).partition.canonical()
        );
    }

    /// Cut members of one class with the same out-neighbours — read as
    /// classes outside the cut — are one unit, and stay one class.
    #[test]
    fn twins_of_an_exploded_class_are_one_hybrid_node() {
        // Classes {A}, {B1,B2,B3}, {C1,C3}, {D}; B1 and B2 share C1, and
        // C1 → D puts both in the cone, with A.
        let mut g = graph(
            &["A", "B", "B", "B", "C", "C", "D"],
            &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5)],
        );
        let mut inc = IncrementalPattern::new(&g);
        assert_eq!(inc.class_count(), 4);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(4), NodeId(6));
        let stats = inc.apply(&mut g, &batch);
        assert_eq!((stats.affected_classes, stats.affected_nodes), (3, 4));
        // Units {C1}, {B1,B2}, {A}.
        assert_eq!(stats.hybrid_nodes, 3);
        assert_eq!(inc.class_of(NodeId(1)), inc.class_of(NodeId(2)));
        assert_ne!(inc.class_of(NodeId(1)), inc.class_of(NodeId(3)));
        assert_eq!(
            inc.to_compression().partition.canonical(),
            compress_b(&g).partition.canonical()
        );
    }

    /// One step on both paths from the same state: the partitions agree
    /// and both states pass their invariants (the key index against a
    /// fresh build, no two live classes sharing a key).
    fn step_both_paths(
        inc: &mut IncrementalPattern,
        twin: &mut IncrementalPattern,
        g: &mut LabeledGraph,
        batch: &UpdateBatch,
        ctx: &str,
    ) -> IncStats {
        let mut g_twin = g.clone();
        let stats = inc.apply(g, batch);
        apply_hybrid(twin, &mut g_twin, batch);
        assert_eq!(inc.check_invariants(g), Ok(()), "{ctx}");
        let canonical = inc.to_compression().partition.canonical();
        assert_eq!(canonical, compress_b(g).partition.canonical(), "{ctx}");
        assert_eq!(
            canonical,
            twin.to_compression().partition.canonical(),
            "{ctx}"
        );
        stats
    }

    /// A random labelled graph with cycles, self loops, and a few leaves
    /// many nodes share.
    fn seeded_graph(rng: &mut StdRng) -> LabeledGraph {
        let alphabet = ["A", "B", "C"];
        let n = rng.gen_range(6..40);
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node_with_label(alphabet[rng.gen_range(0..alphabet.len())]);
        }
        let leaves = rng.gen_range(1..4);
        for v in leaves..n {
            if rng.gen_bool(0.6) {
                g.add_edge(NodeId(v as u32), NodeId(rng.gen_range(0..leaves) as u32));
            }
            if rng.gen_bool(0.1) {
                g.add_edge(NodeId(v as u32), NodeId(v as u32));
            }
        }
        for _ in 0..rng.gen_range(0..n) {
            let u = rng.gen_range(leaves..n) as u32;
            g.add_edge(NodeId(u), NodeId(rng.gen_range(0..n) as u32));
        }
        g
    }

    /// A mixed batch: deletions of present edges, insertions anywhere
    /// (self loops included).
    fn seeded_batch(rng: &mut StdRng, g: &LabeledGraph) -> UpdateBatch {
        let n = g.node_count();
        let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
        let mut batch = UpdateBatch::new();
        for _ in 0..rng.gen_range(1..7) {
            if rng.gen_bool(0.5) && !edges.is_empty() {
                let (u, v) = edges[rng.gen_range(0..edges.len())];
                batch.delete(u, v);
            } else {
                let u = NodeId(rng.gen_range(0..n) as u32);
                batch.insert(u, NodeId(rng.gen_range(0..n) as u32));
            }
        }
        batch
    }

    /// The differential suite of the index path: seeded streams over
    /// graphs with cycles, self loops and shared leaves; after every batch
    /// the partition is `compress_b`'s and the hybrid twin's, and the key
    /// index equals a fresh build.
    #[test]
    fn index_and_hybrid_paths_agree_on_seeded_streams() {
        let mut rng = StdRng::seed_from_u64(0x1D3);
        let (mut steps, mut fallbacks, mut kept) = (0, 0, 0);
        for case in 0..60 {
            let mut g = seeded_graph(&mut rng);
            let mut inc = IncrementalPattern::new(&g);
            let mut twin = inc.clone();
            for step in 0..10 {
                let batch = seeded_batch(&mut rng, &g);
                let ctx = format!("case {case} step {step}");
                let stats = step_both_paths(&mut inc, &mut twin, &mut g, &batch, &ctx);
                steps += 1;
                fallbacks += stats.hybrid_fallbacks;
                kept += usize::from(stats.affected_classes > 0 && stats.changed_classes == 0);
            }
        }
        // Both paths of the key regroup ran, and whole steps kept every id.
        assert!(
            fallbacks > 0 && fallbacks < steps / 2,
            "{fallbacks} of {steps}"
        );
        assert!(kept > 0, "no step kept every affected class");
    }

    /// A cut node that becomes a leaf joins the large untouched class of
    /// its label's leaves: one lookup of `(label, [])`.
    #[test]
    fn a_cut_node_that_becomes_a_leaf_joins_the_untouched_leaves() {
        // Leaves L1..L8, and R → X → M: X is no leaf until X → M goes.
        let mut labels = vec!["L"; 8];
        labels.extend(["L", "M", "R"]);
        let mut g = graph(&labels, &[(8, 9), (10, 8)]);
        let mut inc = IncrementalPattern::new(&g);
        let leaves = inc.class_of(NodeId(0));
        let mut batch = UpdateBatch::new();
        batch.delete(NodeId(8), NodeId(9));
        let (stats, delta) = inc.apply_with_delta(&mut g, &batch);
        assert_eq!((stats.affected_nodes, stats.hybrid_fallbacks), (2, 0));
        assert_eq!(inc.class_of(NodeId(8)), inc.class_of(NodeId(0)));
        // The leaf class gained a member: retired and born again.
        assert!(delta.removed.contains(&leaves));
        assert_eq!(
            inc.to_compression().partition.canonical(),
            compress_b(&g).partition.canonical()
        );
    }

    /// A class wholly inside the cone that comes back with its members and
    /// its key keeps its id; here every affected class does, so the delta
    /// is empty and a server keeps its view.
    #[test]
    fn a_wholly_cut_class_that_comes_back_unchanged_keeps_its_id() {
        // R → A1, R → A2, A1 → B1, A2 → B2: classes {R}, {A1,A2}, {B1,B2}.
        let mut g = graph(
            &["R", "A", "A", "B", "B"],
            &[(0, 1), (0, 2), (1, 3), (2, 4)],
        );
        let mut inc = IncrementalPattern::new(&g);
        let before = inc.stable_quotient();
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(1), NodeId(4));
        let (stats, delta) = inc.apply_with_delta(&mut g, &batch);
        // {R} lies wholly in the cone {A1, R}.
        assert_eq!((stats.affected_classes, stats.affected_nodes), (2, 2));
        assert!(delta.is_empty(), "{delta:?}");
        assert_eq!(inc.stable_quotient().class_of, before.class_of);
        assert_eq!(inc.stable_quotient().edges, before.edges);
    }

    /// The members alone do not make a class unchanged: `{A}` keeps its
    /// one member but gains a successor class, so it is born — a delta
    /// that names no class promises an unchanged quotient graph.
    #[test]
    fn a_class_with_its_members_and_a_new_key_is_born() {
        let mut g = graph(&["A", "B", "C"], &[(0, 1)]);
        let mut inc = IncrementalPattern::new(&g);
        let a = inc.class_of(NodeId(0));
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(0), NodeId(2));
        let (stats, delta) = inc.apply_with_delta(&mut g, &batch);
        assert_eq!((stats.affected_classes, stats.changed_classes), (1, 1));
        assert_eq!(delta.removed, vec![a]);
        assert_eq!(inc.check_invariants(&g), Ok(()));
    }

    /// A self-looped unit is keyed with SELF and finds the untouched class
    /// whose row holds that class itself; a unit with an edge into that
    /// class finds it too.
    #[test]
    fn a_self_looped_unit_matches_an_untouched_self_looped_class() {
        // Y ↻ untouched; X → M becomes X ↻; Z → M becomes Z → Y.
        let mut g = graph(&["L", "L", "M", "L"], &[(0, 0), (1, 2), (3, 2)]);
        let mut inc = IncrementalPattern::new(&g);
        let y = inc.class_of(NodeId(0));
        let mut batch = UpdateBatch::new();
        batch
            .delete(NodeId(1), NodeId(2))
            .insert(NodeId(1), NodeId(1));
        batch
            .delete(NodeId(3), NodeId(2))
            .insert(NodeId(3), NodeId(0));
        let stats = inc.apply(&mut g, &batch);
        assert_eq!(stats.hybrid_fallbacks, 0);
        assert_eq!(inc.class_of(NodeId(1)), inc.class_of(NodeId(0)));
        assert_eq!(inc.class_of(NodeId(3)), inc.class_of(NodeId(0)));
        assert_ne!(inc.class_of(NodeId(0)), y, "the class gained members");
        assert_eq!(
            inc.to_compression().partition.canonical(),
            compress_b(&g).partition.canonical()
        );
    }

    /// A cycle of units that splits into two classes falls back to the
    /// hybrid kernel, counted; one that stays one class does not.
    #[test]
    fn a_two_group_cycle_takes_the_counted_fallback() {
        // A → B; inserting B → A closes a cycle of two labels.
        let mut g = graph(&["A", "B", "A", "A"], &[(0, 1), (2, 3)]);
        let mut inc = IncrementalPattern::new(&g);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(1), NodeId(0));
        let stats = inc.apply(&mut g, &batch);
        // Atoms {A2}, {A3}; units {A0}, {B1}.
        assert_eq!((stats.hybrid_fallbacks, stats.hybrid_nodes), (1, 4));
        // A → A' → A closes a cycle of one label: one class, by its key.
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(3), NodeId(2));
        let stats = inc.apply(&mut g, &batch);
        assert_eq!((stats.hybrid_fallbacks, stats.hybrid_nodes), (0, 2));
        assert_eq!(inc.class_of(NodeId(2)), inc.class_of(NodeId(3)));
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
