//! `incRCM` — incremental maintenance of the reachability-preserving
//! compression (Section 5.1, Fig. 8).
//!
//! Given the compression of `G` and a batch `ΔG` of edge insertions and
//! deletions, the maintained state is updated to the compression of
//! `G ⊕ ΔG` without recompressing from scratch and without searching `G`:
//! the algorithm touches only the compressed structures, the update batch,
//! and the adjacency lists of nodes inside the *affected area*.
//!
//! ## Algorithm
//!
//! The paper's `incRCM` proceeds by reducing redundant updates, maintaining
//! topological ranks, and splitting / merging hypernodes. The `Split` /
//! `Merge` procedures are only sketched in the paper; this implementation
//! realizes the same plan as an *affected-region localized recomputation*
//! (the skeleton shared with `incPCM` is [`qpgc_graph::quotient`]):
//!
//! 1. **Reduce `ΔG`** — normalize the batch against `G` and drop insertions
//!    that are already implied by the current reachability relation (the
//!    paper's redundant-insertion rule; provably safe for insertion-only
//!    batches, which is when it is applied).
//! 2. **Locate the affected area** — for an update `(u, w)` the only classes
//!    whose ancestor or descendant sets can change are those that reach
//!    `[u]` or are reachable from `[w]` (plus the endpoint classes
//!    themselves). The union over the batch is the affected class set `AFF`,
//!    computed by two multi-source BFS traversals over the compressed graph.
//! 3. **Localized recomputation** — build a *hybrid graph* whose nodes are
//!    the members of affected classes (exploded) plus one atom per
//!    unaffected class (cyclic atoms get a self loop), and whose edges are
//!    the compressed inter-class edges between unaffected classes plus the
//!    real adjacency of affected members. The reachability equivalence of
//!    the hybrid graph, computed by the very same routine as the batch
//!    algorithm, is exactly the new equivalence restricted to the affected
//!    region; unaffected classes that come out untouched keep their
//!    identity.
//! 4. **Patch the state** — splice the new classes into the node → class
//!    index and rebuild the inter-class edge counters incident to them.
//!
//! ## Cost
//!
//! A step pays for the affected region, not for `|ΔG| × |Er|`, everywhere
//! but in step 3. The compressed edges are kept as sorted per-class rows
//! ([`IncrementalQuotient`]) that every part of the step reads in place:
//! the redundancy rule of step 1 is one early-exit walk over the rows per
//! insertion, and runs only when its answer can be used (an insertion-only
//! batch); step 2 is two walks bounded by the cones they return; step 4
//! unlinks each retired class from, and links each born class into, its
//! neighbours' rows in time proportional to their degrees.
//!
//! Step 3 is proportional to `|Gr|`: the hybrid graph has one atom per
//! unaffected class, and the kernel
//! ([`reachability_partition_threads`](crate::equivalence::reachability_partition_threads))
//! condenses it, sweeps a descendant and an ancestor closure over the
//! condensation and refines on the rows —
//! `O((|AFF members| + |Vr|)²/w + edges incident to affected members)`
//! whatever `|ΔG|` is. It pays that once: the hybrid graph is frozen into
//! one CSR, the condensation's arrays are the ones swept, each sweep fills
//! one flat bit matrix, and nothing is copied to be compared. The bound is
//! independent of `|G|` and in the spirit of the paper's
//! `O(|AFF| · |Gr|)` (the problem itself is unbounded — Theorem 6 — so no
//! algorithm can depend on `|ΔG| + |ΔGr|` alone); making the hybrid graph
//! itself `|AFF|`-sized is ROADMAP item 1 and open.

use qpgc_graph::quotient::{Classes, Equivalence, IncrementalQuotient};
use qpgc_graph::transitive::transitive_reduction;
use qpgc_graph::update::PartitionDelta;
use qpgc_graph::{CsrGraph, Label, LabeledGraph, NodeId, UpdateBatch};

use crate::compress::ReachCompression;
use crate::equivalence::{reachability_partition_threads, ReachPartition};

pub use qpgc_graph::quotient::IncStats;

/// The maintained compression state exported with **stable** class ids —
/// the ids [`IncrementalReach`] keeps across updates (recycling retired
/// ones) rather than the densely renumbered ids of
/// [`IncrementalReach::partition`].
///
/// A class id absent from a [`PartitionDelta`] names the same node set
/// before and after the batch. Retired ids are simply inactive holes;
/// derived structures keep an empty row for them.
#[derive(Clone, Debug)]
pub struct StableQuotient {
    /// `class_of[v]` — stable class id of node `v` (always an active id).
    pub class_of: Vec<u32>,
    /// Cyclic flag per stable id (stale for inactive ids).
    pub cyclic: Vec<bool>,
    /// Liveness per stable id.
    pub active: Vec<bool>,
    /// Distinct inter-class edges of the (unreduced) quotient, sorted by
    /// `(source, target)` stable id.
    pub edges: Vec<(u32, u32)>,
    /// Number of `true` entries of `active`, carried so consumers need not
    /// scan for it.
    pub live_classes: usize,
}

impl StableQuotient {
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

/// Reachability equivalence (`u ~ v` iff `u` and `v` have the same proper
/// ancestors and the same proper descendants) as the relation an
/// [`IncrementalQuotient`] maintains.
#[derive(Clone, Copy, Debug)]
pub struct ReachEquivalence;

impl Equivalence for ReachEquivalence {
    /// The cyclic flag: whether the class is a cyclic SCC.
    type Class = bool;

    /// `Gr` is a DAG over classes; self-reachability lives in the flag.
    const SELF_EDGES: bool = false;

    /// The relation compares ancestor sets as well as descendant sets.
    const ANCESTOR_SENSITIVE: bool = true;

    fn cyclic(class: bool) -> bool {
        class
    }

    // Reachability is label-blind: every node presents the same label.
    fn class_label(_: bool) -> Label {
        Label(0)
    }

    fn node_label(_: &LabeledGraph, _: NodeId) -> Label {
        Label(0)
    }

    fn partition(g: &CsrGraph, threads: usize) -> Classes<bool> {
        let p = reachability_partition_threads(g, threads);
        Classes {
            class_of: p.class_of,
            members: p.members,
            payload: p.cyclic,
        }
    }
}

/// Incrementally maintained reachability-preserving compression: the
/// shared [`IncrementalQuotient`] skeleton instantiated with
/// [`ReachEquivalence`], plus what only this side has — the
/// redundant-insertion reduction, class-level reachability queries, and
/// the transitively reduced export.
#[derive(Clone, Debug)]
pub struct IncrementalReach {
    q: IncrementalQuotient<ReachEquivalence>,
}

impl IncrementalReach {
    /// Builds the compression of `g` from scratch (the batch step that the
    /// incremental algorithm then maintains).
    pub fn new(g: &LabeledGraph) -> Self {
        Self::new_with_threads(g, 1)
    }

    /// [`IncrementalReach::new`] with an explicit worker count for the
    /// closure sweeps, remembered for later localized recomputes. The
    /// partition (and hence stable-id assignment) is bit-identical at every
    /// thread count — see
    /// [`reachability_partition_threads`](crate::equivalence::reachability_partition_threads).
    pub fn new_with_threads(g: &LabeledGraph, threads: usize) -> Self {
        IncrementalReach {
            q: IncrementalQuotient::new(g, threads),
        }
    }

    /// Number of active equivalence classes (`|Vr|`).
    pub fn class_count(&self) -> usize {
        self.q.class_count()
    }

    /// Number of compressed inter-class edges currently tracked (before
    /// transitive reduction).
    pub fn quotient_edge_count(&self) -> usize {
        self.q.quotient_edge_count()
    }

    /// The class id of node `v`.
    pub fn class_of(&self, v: NodeId) -> u32 {
        self.q.class_of(v)
    }

    /// Checks the maintained state against `g`, the graph the last batch was
    /// applied to; see [`IncrementalQuotient::check_invariants`]. The
    /// class-level edges may lag `g` by insertions dropped as redundant,
    /// i.e. by edges between classes the tracked edges already connect.
    pub fn check_invariants(&self, g: &LabeledGraph) -> Result<(), String> {
        self.q
            .check_invariants(g, |from, to| self.class_reaches(from, to))
    }

    /// Answers the reachability query `QR(v, w)` using only the compressed
    /// state (a walk over the class-level rows).
    pub fn query(&self, v: NodeId, w: NodeId) -> bool {
        if v == w {
            return true;
        }
        let cv = self.class_of(v);
        let cw = self.class_of(w);
        if cv == cw {
            return self.q.payload()[cv as usize];
        }
        self.class_reaches(cv, cw)
    }

    /// Whether class `from` reaches class `to` by a non-empty path of
    /// class-level edges; stops at the first row that mentions `to`.
    fn class_reaches(&self, from: u32, to: u32) -> bool {
        let mut visited = vec![false; self.q.id_space()];
        let mut stack = vec![from];
        visited[from as usize] = true;
        while let Some(c) = stack.pop() {
            for &(d, _) in self.q.out_row(c) {
                if d == to {
                    return true;
                }
                if !std::mem::replace(&mut visited[d as usize], true) {
                    stack.push(d);
                }
            }
        }
        false
    }

    /// Applies the update batch: mutates `g` to `G ⊕ ΔG` and maintains the
    /// compressed state so that it equals `R(G ⊕ ΔG)`.
    pub fn apply(&mut self, g: &mut LabeledGraph, batch: &UpdateBatch) -> IncStats {
        self.apply_with_delta(g, batch).0
    }

    /// [`IncrementalReach::apply`] that also exports the structured
    /// [`PartitionDelta`]: which stable class ids the step retired, which
    /// classes it created (with members and cyclic flags), and the
    /// resulting id-space size. An empty delta tells a serving layer that
    /// the structure it published for the previous version still holds.
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
    /// `G ⊕ norm`. Only the maintained state is touched.
    pub fn apply_normalized(
        &mut self,
        g: &LabeledGraph,
        norm: &UpdateBatch,
    ) -> (IncStats, PartitionDelta) {
        // Step 1: redundant-insertion reduction (safe when the batch inserts
        // only, because insertions never invalidate the implying paths).
        // Redundant updates still changed the edge set, just not the
        // reachability relation — they are dropped from maintenance only.
        // The rule is evaluated only then: in a batch that also deletes,
        // its answer could not be used.
        let insertions_only = norm.updates().iter().all(|u| u.is_insert());
        let mut redundant_dropped = 0;
        let mut effective: Vec<(NodeId, NodeId)> = Vec::new();
        for u in norm.updates() {
            let (a, b) = u.edge();
            // Redundant iff `a` already reaches `b` via a *non-empty* path:
            // then the proper-reachability relation (and hence Re and Gr) is
            // unchanged by the insertion. Note the self-loop case: inserting
            // `(a, a)` is only redundant if `a` already lies on a cycle.
            let already_proper_reach = insertions_only
                && if a == b {
                    self.q.payload()[self.class_of(a) as usize]
                } else {
                    self.query(a, b)
                };
            if already_proper_reach {
                redundant_dropped += 1;
                continue;
            }
            effective.push((a, b));
        }

        // Steps 2–4: affected classes = up-cone of the sources ∪ down-cone
        // of the targets over the *old* compression, then the localized
        // recomputation on the hybrid graph.
        let (mut stats, delta) = self.q.apply_effective(g, &effective);
        stats.redundant_dropped = redundant_dropped;
        debug_assert_eq!(self.check_invariants(g), Ok(()));
        (stats, delta)
    }

    /// The current partition with densely renumbered class ids (class `i` is
    /// the `i`-th active class in id order — the same numbering
    /// [`IncrementalReach::to_compression`] uses), *without* materializing
    /// the compressed graph. Snapshot layers that build their own quotient
    /// representation (e.g. a CSR snapshot with class edges collected in
    /// parallel) start from this.
    pub fn partition(&self) -> ReachPartition {
        let (_, dense) = self.q.dense();
        ReachPartition {
            class_of: dense.class_of,
            members: dense.members,
            cyclic: dense.payload,
        }
    }

    /// The current state under **stable** class ids: the node → class index,
    /// cyclic and liveness flags per id, and the distinct unreduced
    /// inter-class edges — everything a snapshot layer needs to build its
    /// quotient representation.
    pub fn stable_quotient(&self) -> StableQuotient {
        StableQuotient {
            class_of: self.q.class_index().to_vec(),
            cyclic: self.q.payload().to_vec(),
            active: self.q.active().to_vec(),
            edges: self.q.sorted_edges(),
            live_classes: self.q.class_count(),
        }
    }

    /// Materializes the current state as a [`ReachCompression`] with a
    /// freshly built (transitively reduced) compressed graph. Class `i` of
    /// the result corresponds to the `i`-th active class in id order.
    pub fn to_compression(&self) -> ReachCompression {
        let (dense, classes) = self.q.dense();
        let n = classes.members.len();

        // Quotient graph + transitive reduction.
        let mut quotient = LabeledGraph::with_capacity(n);
        for _ in 0..n {
            quotient.add_node_with_label("σ");
        }
        for (a, b) in self.q.sorted_edges() {
            quotient.add_edge(NodeId(dense[a as usize]), NodeId(dense[b as usize]));
        }
        let kept = transitive_reduction(&quotient)
            .expect("the quotient of the reachability equivalence relation is a DAG");
        let mut reduced = LabeledGraph::with_capacity(n);
        for _ in 0..n {
            reduced.add_node_with_label("σ");
        }
        for (a, b) in kept {
            reduced.add_edge(a, b);
        }

        ReachCompression {
            graph: reduced,
            partition: ReachPartition {
                class_of: classes.class_of,
                members: classes.members,
                cyclic: classes.payload,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress_r;
    use qpgc_graph::traversal::bfs_reachable;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// The incremental result must be identical (as a partition and as a
    /// reachability oracle) to recompressing the updated graph from scratch.
    fn assert_matches_batch(mut g: LabeledGraph, batch: UpdateBatch) {
        let mut inc = IncrementalReach::new(&g);
        inc.apply(&mut g, &batch);

        let batch_compressed = compress_r(&g);
        let inc_compressed = inc.to_compression();
        assert_eq!(
            inc_compressed.partition.canonical(),
            batch_compressed.partition.canonical(),
            "incremental partition diverged from batch recompression"
        );
        for v in g.nodes() {
            for w in g.nodes() {
                let expected = bfs_reachable(&g, v, w);
                assert_eq!(inc.query(v, w), expected, "inc query ({v},{w})");
                assert_eq!(
                    inc_compressed.query(v, w),
                    expected,
                    "materialized query ({v},{w})"
                );
            }
        }
    }

    #[test]
    fn single_insertion_splitting_a_class() {
        // Diamond: 1 and 2 equivalent; adding 1 -> 4 splits them.
        let g = graph(5, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(1), NodeId(4));
        assert_matches_batch(g, batch);
    }

    #[test]
    fn single_insertion_merging_classes() {
        // 0 -> 1, 0 -> 2, 1 -> 3; adding 2 -> 3 makes 1 and 2 equivalent.
        let g = graph(4, &[(0, 1), (0, 2), (1, 3)]);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(2), NodeId(3));
        assert_matches_batch(g, batch);
    }

    #[test]
    fn single_deletion_splitting() {
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut batch = UpdateBatch::new();
        batch.delete(NodeId(2), NodeId(3));
        assert_matches_batch(g, batch);
    }

    #[test]
    fn insertion_creating_a_cycle() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(3), NodeId(1));
        assert_matches_batch(g, batch);
    }

    #[test]
    fn deletion_breaking_a_cycle() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let mut batch = UpdateBatch::new();
        batch.delete(NodeId(2), NodeId(1));
        assert_matches_batch(g, batch);
    }

    #[test]
    fn redundant_insertion_is_detected() {
        let g = graph(3, &[(0, 1), (1, 2)]);
        let mut g2 = g.clone();
        let mut inc = IncrementalReach::new(&g2);
        let before = inc.to_compression().partition.canonical();
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(0), NodeId(2)); // implied by 0 -> 1 -> 2
        let stats = inc.apply(&mut g2, &batch);
        assert_eq!(stats.redundant_dropped, 1);
        assert_eq!(stats.effective_updates, 0);
        assert_eq!(inc.to_compression().partition.canonical(), before);
        // And it still matches the batch result.
        assert_eq!(
            inc.to_compression().partition.canonical(),
            compress_r(&g2).partition.canonical()
        );
    }

    /// `hybrid_nodes` is the real size of the hybrid graph: one atom per
    /// unaffected live class plus every member of an affected class.
    #[test]
    fn hybrid_nodes_counts_atoms_plus_exploded_members() {
        // Diamond plus an isolated node: classes {0}, {1,2}, {3}, {4}.
        let mut g = graph(5, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut inc = IncrementalReach::new(&g);
        let classes_before = inc.class_count();
        assert_eq!(classes_before, 4);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(1), NodeId(4));
        let stats = inc.apply(&mut g, &batch);
        // Affected: ancestors of [1] = {0}, {1,2}; descendants of [4] = {4}.
        assert_eq!(stats.affected_classes, 3);
        assert_eq!(stats.affected_nodes, 4);
        // Only {3} stays an atom.
        assert_eq!(stats.hybrid_nodes, 5);
        assert_eq!(
            stats.hybrid_nodes,
            stats.affected_nodes + classes_before - stats.affected_classes
        );
    }

    #[test]
    fn noop_batch() {
        let g = graph(3, &[(0, 1)]);
        let mut g2 = g.clone();
        let mut inc = IncrementalReach::new(&g2);
        let stats = inc.apply(&mut g2, &UpdateBatch::new());
        assert_eq!(stats, IncStats::default());
    }

    #[test]
    fn mixed_batch() {
        let g = graph(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (2, 5)]);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(5), NodeId(0)); // creates a big cycle
        batch.delete(NodeId(0), NodeId(2));
        batch.insert(NodeId(1), NodeId(5));
        assert_matches_batch(g, batch);
    }

    #[test]
    fn repeated_batches_stay_consistent() {
        let mut g = graph(7, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (5, 4), (5, 6)]);
        let mut inc = IncrementalReach::new(&g);
        let batches: Vec<Vec<(u32, u32, bool)>> = vec![
            vec![(6, 0, true)],
            vec![(3, 5, true), (0, 1, false)],
            vec![(4, 6, true), (6, 0, false)],
            vec![(2, 3, false), (1, 3, false)],
        ];
        for b in batches {
            let mut batch = UpdateBatch::new();
            for (u, v, ins) in b {
                if ins {
                    batch.insert(NodeId(u), NodeId(v));
                } else {
                    batch.delete(NodeId(u), NodeId(v));
                }
            }
            inc.apply(&mut g, &batch);
            let batch_c = compress_r(&g);
            assert_eq!(
                inc.to_compression().partition.canonical(),
                batch_c.partition.canonical()
            );
        }
    }

    #[test]
    fn randomized_incremental_equals_batch() {
        let mut rng = StdRng::seed_from_u64(42);
        for case in 0..30 {
            let n = rng.gen_range(3..14);
            let m = rng.gen_range(0..n * 2);
            let mut g = LabeledGraph::new();
            for _ in 0..n {
                g.add_node_with_label("X");
            }
            for _ in 0..m {
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
            let mut inc = IncrementalReach::new(&g2);
            inc.apply(&mut g2, &batch);
            let expect = compress_r(&g2);
            assert_eq!(
                inc.to_compression().partition.canonical(),
                expect.partition.canonical(),
                "case {case} diverged"
            );
        }
    }

    #[test]
    fn partition_export_matches_materialized_compression() {
        let mut g = graph(5, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut inc = IncrementalReach::new(&g);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(3), NodeId(4));
        batch.delete(NodeId(2), NodeId(3));
        inc.apply(&mut g, &batch);
        let part = inc.partition();
        let comp = inc.to_compression();
        assert_eq!(part.class_of, comp.partition.class_of);
        assert_eq!(part.members, comp.partition.members);
        assert_eq!(part.cyclic, comp.partition.cyclic);
    }

    /// Replays a delta on top of a pre-batch `StableQuotient` and checks it
    /// reproduces the post-batch one.
    fn assert_delta_replays(
        before: &StableQuotient,
        delta: &PartitionDelta,
        after: &StableQuotient,
    ) {
        assert_eq!(delta.id_space, after.id_space());
        let mut class_of = before.class_of.clone();
        let mut cyclic = before.cyclic.clone();
        let mut active = before.active.clone();
        cyclic.resize(delta.id_space, false);
        active.resize(delta.id_space, false);
        for &r in &delta.removed {
            active[r as usize] = false;
        }
        for birth in &delta.added {
            for &v in &birth.members {
                class_of[v.index()] = birth.id;
            }
            cyclic[birth.id as usize] = birth.cyclic;
            active[birth.id as usize] = true;
        }
        assert_eq!(class_of, after.class_of);
        assert_eq!(active, after.active);
        for (id, &a) in after.active.iter().enumerate() {
            if a {
                assert_eq!(cyclic[id], after.cyclic[id], "cyclic flag of class {id}");
            }
        }
    }

    #[test]
    fn delta_replays_onto_stable_quotient() {
        let mut rng = StdRng::seed_from_u64(77);
        for case in 0..40 {
            let n = rng.gen_range(3..16);
            let m = rng.gen_range(0..n * 2);
            let mut g = LabeledGraph::new();
            for _ in 0..n {
                g.add_node_with_label("X");
            }
            for _ in 0..m {
                let u = rng.gen_range(0..n) as u32;
                let v = rng.gen_range(0..n) as u32;
                g.add_edge(NodeId(u), NodeId(v));
            }
            let mut inc = IncrementalReach::new(&g);
            for step in 0..3 {
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
                assert_eq!(stats.changed_classes, delta.added.len());
                let after = inc.stable_quotient();
                assert_delta_replays(&before, &delta, &after);
                // Members of retired classes are exactly covered by births.
                let born: usize = delta.added.iter().map(|b| b.members.len()).sum();
                let died: usize = delta
                    .removed
                    .iter()
                    .map(|&c| before.class_of.iter().filter(|&&x| x == c).count())
                    .sum();
                assert_eq!(born, died, "case {case} step {step}: member count drifted");
            }
        }
    }

    #[test]
    fn stable_quotient_matches_dense_partition() {
        let mut g = graph(5, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut inc = IncrementalReach::new(&g);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(3), NodeId(4));
        batch.delete(NodeId(2), NodeId(3));
        inc.apply(&mut g, &batch);
        let sq = inc.stable_quotient();
        assert_eq!(sq.class_count(), inc.class_count());
        assert_eq!(sq.edges.len(), inc.quotient_edge_count());
        // Stable and dense exports describe the same partition.
        let dense = inc.partition();
        for v in g.nodes() {
            for w in g.nodes() {
                assert_eq!(
                    sq.class_of[v.index()] == sq.class_of[w.index()],
                    dense.class_of(v) == dense.class_of(w),
                    "grouping differs for ({v},{w})"
                );
            }
        }
        for v in g.nodes() {
            assert_eq!(
                sq.cyclic[sq.class_of[v.index()] as usize],
                dense.cyclic[dense.class_of(v) as usize]
            );
        }
    }

    #[test]
    fn quotient_edges_stay_in_sync() {
        let mut g = graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut inc = IncrementalReach::new(&g);
        let mut batch = UpdateBatch::new();
        batch.delete(NodeId(1), NodeId(2));
        batch.insert(NodeId(0), NodeId(4));
        inc.apply(&mut g, &batch);
        // Rebuild from scratch and compare the full reachability oracle.
        for v in g.nodes() {
            for w in g.nodes() {
                assert_eq!(inc.query(v, w), bfs_reachable(&g, v, w));
            }
        }
        assert_eq!(inc.class_count(), compress_r(&g).class_count());
    }
}
