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
//! 3. **Localized recomputation** — cut the affected classes into *units*
//!    (a cyclic class that loses no internal edge stays whole; members of
//!    one class with the same neighbourhoods are one unit — lemmas L1–L3 in
//!    [`qpgc_graph::quotient`]) and regroup them **against the closure of
//!    the old compression**, which this maintainer holds at every size
//!    ([`QuotientClosure`]): the unit graph is condensed, each component's
//!    descendant and ancestor signature is the union of the closure rows
//!    of its unaffected neighbour classes and of its child (parent)
//!    components, equal signatures are one new class, and a group joins an
//!    unaffected class iff its two rows are that class's rows (lemmas L4
//!    and L5 in [`crate::closure`]: the candidates are the intersection of
//!    two closure rows). An unaffected class keeps its identity and is
//!    never a node of anything; so does an affected class that a group
//!    turns out to be, with its old members and cyclic flag (L7′) —
//!    affected is not changed — whose rows are *rewired* if its cones
//!    moved.
//! 4. **Patch the state** — splice the new classes into the node → class
//!    index and rebuild the inter-class edge counters incident to them
//!    (a kept class is neither retired nor new: the batch's edges between
//!    two classes that stay, redundant insertions included, are counted in
//!    place); then patch the held closure into the closure of the new
//!    compression (lemma L6 in [`crate::closure`]: the new and the rewired
//!    classes' rows are step 3's signatures, every other row changes only
//!    in the columns of the retired and the new classes), for the
//!    publication that follows and for the next batch's step 3. A batch
//!    that changes no class retires, creates and rewires none: its delta
//!    is empty, the closure is not touched, and the serving layer
//!    republishes.
//!
//! ## Cost
//!
//! Steps 1–3 and the splice pay for the affected region, not for
//! `|ΔG| × |Er|`. The compressed edges are kept as sorted per-class rows
//! ([`IncrementalQuotient`]) that every part of the step reads in place:
//! the redundancy rule of step 1 is one membership test in the held
//! closure per insertion, run only when its answer can be used (an
//! insertion-only batch); step 2 is two walks bounded by the cones they
//! return; step 3 reads the adjacency of each member of an exploded class
//! (a class kept whole is read from its rows and the batch), unites per
//! unit the closure rows of its distinct unaffected neighbours, condenses
//! and groups a graph of units — 40 a batch on `dense_cithepth`, 165 on
//! `churn_wikitalk`, where a hybrid graph would have 1 166 and 1 470
//! nodes — and intersects two closure rows per group that may absorb; the
//! splice relinks only the retired and born classes. The closure patch
//! that ends step 4 is paid for the *changed* classes, not the affected
//! ones (lemma L6): on `dense_cithepth` no batch changes a class and the
//! patch does nothing; on `churn_wikitalk` a batch keeps ≈ 101 of its 152
//! affected classes, rewires them and bears ≈ 17. Only construction
//! sweeps. The closure is resident and costs what it holds: per class a
//! row each way, a sorted list of the classes on that side or a bitmap of
//! `id_space/64` words once the list would be larger. The step is
//! independent of `|G|` and in the spirit of the paper's `O(|AFF| · |Gr|)`
//! (the problem itself is unbounded — Theorem 6 — so no algorithm can
//! depend on `|ΔG| + |ΔGr|` alone).

#![deny(clippy::disallowed_types)]

use qpgc_graph::quotient::{Classes, Equivalence, IncrementalQuotient};
use qpgc_graph::update::PartitionDelta;
use qpgc_graph::{CsrGraph, Label, LabeledGraph, NodeId, UpdateBatch};

use crate::closure::QuotientClosure;
use crate::equivalence::reachability_partition;

pub use qpgc_graph::quotient::IncStats;

/// Node-level edges of a batch.
type Edges = Vec<(NodeId, NodeId)>;

/// The maintained compression state exported with **stable** class ids —
/// the ids [`IncrementalReach`] keeps across updates (recycling retired
/// ones) rather than the densely renumbered ids of
/// [`compress_r`](crate::compress::compress_r).
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

    /// Equal successor classes do not make equal ancestor sets.
    const KEYED: bool = false;

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

    fn partition(g: &CsrGraph) -> Classes<bool> {
        reachability_partition(g)
    }
}

/// Incrementally maintained reachability-preserving compression: the
/// shared [`IncrementalQuotient`] skeleton instantiated with
/// [`ReachEquivalence`], plus what only this side has — the
/// redundant-insertion reduction, class-level reachability queries, the
/// transitively reduced export, and the closure of the current quotient.
#[derive(Clone, Debug)]
pub struct IncrementalReach {
    q: IncrementalQuotient<ReachEquivalence>,
    /// The closure of `q`'s class-level edges: swept at construction and
    /// patched by every step that changed a class, read by the publication
    /// in between and by the next step's regroup.
    closure: QuotientClosure,
}

impl IncrementalReach {
    /// Builds the compression of `g` from scratch (the batch step that the
    /// incremental algorithm then maintains) and sweeps its closure.
    pub fn new(g: &LabeledGraph) -> Self {
        let q = IncrementalQuotient::new(g);
        let closure = QuotientClosure::sweep(q.id_space(), q.sorted_edges());
        IncrementalReach { q, closure }
    }

    /// The closure of the current quotient — descendant and ancestor rows
    /// over stable ids, the transitively reduced edges — which a
    /// publication builds from instead of sweeping.
    pub fn closure(&self) -> &QuotientClosure {
        &self.closure
    }

    /// Number of active equivalence classes (`|Vr|`).
    pub fn class_count(&self) -> usize {
        self.q.class_count()
    }

    /// The class id of node `v`.
    pub fn class_of(&self, v: NodeId) -> u32 {
        self.q.class_of(v)
    }

    /// Checks the maintained state against `g`, the graph the last batch was
    /// applied to; see [`IncrementalQuotient::check_invariants`]. The
    /// closure must be the closure of the rows as they stand
    /// ([`QuotientClosure::check`]).
    pub fn check_invariants(&self, g: &LabeledGraph) -> Result<(), String> {
        (self.closure).check(self.q.id_space(), self.q.sorted_edges())?;
        self.q.check_invariants(g)
    }

    /// Answers the reachability query `QR(v, w)` using only the compressed
    /// state (one membership test on a row of the held closure).
    pub fn query(&self, v: NodeId, w: NodeId) -> bool {
        if v == w {
            return true;
        }
        let cv = self.class_of(v);
        let cw = self.class_of(w);
        if cv == cw {
            return self.q.payload()[cv as usize];
        }
        self.closure.reaches(cv, cw)
    }

    /// Applies the update batch: mutates `g` to `G ⊕ ΔG` and maintains the
    /// compressed state so that it equals `R(G ⊕ ΔG)`.
    pub fn apply(&mut self, g: &mut LabeledGraph, batch: &UpdateBatch) -> IncStats {
        self.apply_with_delta(g, batch).0
    }

    /// [`IncrementalReach::apply`] that also exports the structured
    /// [`PartitionDelta`]: which stable class ids the step retired, which
    /// it created, and the resulting id-space size. An empty delta tells a
    /// serving layer that the structure it published for the previous
    /// version still holds.
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
        let stepped = self.maintain(g, norm);
        debug_assert_eq!(self.check_invariants(g), Ok(()));
        stepped
    }

    /// [`IncrementalReach::apply_normalized`] without the invariant check.
    fn maintain(&mut self, g: &LabeledGraph, norm: &UpdateBatch) -> (IncStats, PartitionDelta) {
        let (redundant, effective) = self.reduce(norm);
        // Steps 2–4: affected classes = up-cone of the sources ∪ down-cone
        // of the targets over the *old* compression, cut into units and
        // regrouped against the closure of that compression.
        let held = &self.closure;
        let mut signatures = None;
        let (mut stats, mut delta) =
            self.q
                .apply_effective(g, &effective, &redundant, |q, _, cut| {
                    let (regrouped, rows) = held.regroup(q.active(), q.payload(), cut);
                    signatures = Some(rows);
                    regrouped
                });
        stats.redundant_dropped = redundant.len();
        // Step 4, end: the closure follows the splice.
        if let Some(signatures) = signatures {
            delta.rewired = signatures.rewired().to_vec();
            stats.rewired_classes = delta.rewired.len();
            self.closure.advance(&delta, signatures, &self.q);
        }
        (stats, delta)
    }

    /// Step 1, the redundant-insertion reduction: `norm`'s edges split into
    /// the redundant ones and the effective ones. It is safe when the batch
    /// inserts only, because insertions never invalidate the implying
    /// paths. Redundant updates still changed the edge set, just not the
    /// reachability relation — they are dropped from maintenance and only
    /// counted in the rows. The rule is evaluated only then: in a batch
    /// that also deletes, its answer could not be used.
    fn reduce(&self, norm: &UpdateBatch) -> (Edges, Edges) {
        let insertions_only = norm.updates().iter().all(|u| u.is_insert());
        let (mut redundant, mut effective) = (Edges::new(), Edges::new());
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
                redundant.push((a, b));
            } else {
                effective.push((a, b));
            }
        }
        (redundant, effective)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress_r;
    use crate::compress::tests::{canonical, edges_by_first_member};
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
        let sq = inc.stable_quotient();
        assert_eq!(
            canonical(&sq.class_of),
            canonical(&batch_compressed.partition.class_of),
            "incremental partition diverged from batch recompression"
        );
        // The reduction a publication reads is `compressR`'s.
        let kept = inc.closure().kept();
        assert_eq!(
            edges_by_first_member(&sq.class_of, kept.iter().map(|&(a, b)| (a.0, b.0))),
            edges_by_first_member(
                &batch_compressed.partition.class_of,
                batch_compressed.graph.edges().map(|(a, b)| (a.0, b.0))
            ),
            "held reduction diverged from batch recompression"
        );
        for v in g.nodes() {
            for w in g.nodes() {
                let expected = bfs_reachable(&g, v, w);
                assert_eq!(inc.query(v, w), expected, "inc query ({v},{w})");
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
        let before = canonical(&inc.stable_quotient().class_of);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(0), NodeId(2)); // implied by 0 -> 1 -> 2
        let stats = inc.apply(&mut g2, &batch);
        assert_eq!(stats.redundant_dropped, 1);
        assert_eq!(stats.effective_updates, 0);
        assert_eq!(canonical(&inc.stable_quotient().class_of), before);
        // And it still matches the batch result.
        assert_eq!(
            canonical(&inc.stable_quotient().class_of),
            canonical(&compress_r(&g2).partition.class_of)
        );
    }

    /// `hybrid_nodes` is the size of the graph the step regrouped on: the
    /// units alone against a held closure, one atom per unaffected live
    /// class plus the units on the hybrid path.
    #[test]
    fn hybrid_nodes_counts_units_and_on_the_hybrid_path_atoms() {
        // Diamond plus an isolated node: classes {0}, {1,2}, {3}, {4}.
        let g = graph(5, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(1), NodeId(4));
        for denied in [false, true] {
            let mut g = g.clone();
            let mut inc = IncrementalReach::new(&g);
            let classes_before = inc.class_count();
            assert_eq!(classes_before, 4);
            let norm = batch.normalized(&g);
            norm.apply_to(&mut g);
            let (stats, _) = if denied {
                step_denied(&mut inc, &g, &norm)
            } else {
                inc.apply_normalized(&g, &norm)
            };
            // Affected: ancestors of [1] = {0}, {1,2}; descendants of [4] = {4}.
            assert_eq!(stats.affected_classes, 3);
            assert_eq!(stats.affected_nodes, 4);
            // 1 and 2 no longer share their out-neighbours: four units. Only
            // {3} stays an atom.
            let atoms = classes_before - stats.affected_classes;
            let expected = if denied { 4 + atoms } else { 4 };
            assert_eq!(stats.hybrid_nodes, expected, "denied {denied}");
            assert!(denied || stats.hybrid_nodes <= stats.affected_nodes);
        }
    }

    fn batch_of(spec: &[(u32, u32, bool)]) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        for &(u, v, insert) in spec {
            if insert {
                batch.insert(NodeId(u), NodeId(v));
            } else {
                batch.delete(NodeId(u), NodeId(v));
            }
        }
        batch
    }

    /// One step of `inc` down the hybrid path, the reference regroup: the
    /// batch kernel on the hybrid graph in place of the held closure, which
    /// is swept afresh after the step.
    fn step_denied(
        inc: &mut IncrementalReach,
        g: &LabeledGraph,
        norm: &UpdateBatch,
    ) -> (IncStats, PartitionDelta) {
        let (redundant, effective) = inc.reduce(norm);
        let (mut stats, delta) = (inc.q).apply_effective(g, &effective, &redundant, |q, g, cut| {
            q.regroup_hybrid(g, cut)
        });
        stats.redundant_dropped = redundant.len();
        inc.closure = QuotientClosure::sweep(inc.q.id_space(), inc.q.sorted_edges());
        assert_eq!(inc.check_invariants(g), Ok(()));
        (stats, delta)
    }

    /// The closure `inc` holds is, field by field, the one a fresh sweep of
    /// its rows gives.
    fn assert_closure_is_a_fresh_sweep(inc: &IncrementalReach, ctx: &str) {
        let ids = inc.q.id_space();
        assert_eq!(
            inc.closure().check(ids, inc.q.sorted_edges()),
            Ok(()),
            "{ctx}"
        );
    }

    /// Classes with their cyclic flags, and class edges, by first member.
    type ByFirstMember = (Vec<(Vec<u32>, bool)>, Vec<(u32, u32)>);

    /// A stable export with every id read as the first member of its class:
    /// the classes with their cyclic flags, and the class edges — what two
    /// maintainers that number one partition differently agree on.
    fn by_first_member(sq: &StableQuotient) -> ByFirstMember {
        let mut members = vec![Vec::new(); sq.id_space()];
        for (v, &c) in sq.class_of.iter().enumerate() {
            members[c as usize].push(v as u32);
        }
        let first = |c: u32| members[c as usize][0];
        let mut edges: Vec<_> = sq
            .edges
            .iter()
            .map(|&(a, b)| (first(a), first(b)))
            .collect();
        edges.sort_unstable();
        let mut classes: Vec<_> = (0..sq.id_space())
            .filter(|&c| sq.active[c])
            .map(|c| (members[c].clone(), sq.cyclic[c]))
            .collect();
        classes.sort();
        (classes, edges)
    }

    /// One step down both paths — against the held closure, and on the
    /// hybrid graph by a maintainer denied its closure. The closure path
    /// keeps the ids of the classes that keep their members (L7′), which
    /// the hybrid path bears again, so the two agree up to naming: equal
    /// statistics but for the regrouped graph's size, the born count, which
    /// the closure path never exceeds, and the rewired count, which the
    /// hybrid path never has, and equal classes, cyclic flags and class
    /// edges read
    /// by first member. The closure path's invariants must hold — its
    /// patched closure equal to a fresh sweep, its rows counting `g`'s
    /// edges exactly — and its compression and answers be those of the
    /// updated graph. Returns the closure path's statistics and delta.
    fn step_both_paths(
        held: &mut IncrementalReach,
        denied: &mut IncrementalReach,
        g: &mut LabeledGraph,
        batch: &UpdateBatch,
    ) -> (IncStats, PartitionDelta) {
        let norm = batch.normalized(g);
        norm.apply_to(g);
        let (stats, delta) = held.apply_normalized(g, &norm);
        assert_eq!(held.check_invariants(g), Ok(()), "closure path");
        let (hybrid_stats, hybrid_delta) = step_denied(denied, g, &norm);
        assert!(delta.born.len() <= hybrid_delta.born.len());
        let naming_aside = |stats: IncStats| IncStats {
            hybrid_nodes: 0,
            changed_classes: 0,
            rewired_classes: 0,
            ..stats
        };
        assert_eq!(naming_aside(stats), naming_aside(hybrid_stats));
        assert!(stats.hybrid_nodes <= stats.affected_nodes);
        assert_eq!(
            by_first_member(&held.stable_quotient()),
            by_first_member(&denied.stable_quotient())
        );
        assert_eq!(
            canonical(&held.stable_quotient().class_of),
            canonical(&compress_r(g).partition.class_of)
        );
        for v in g.nodes() {
            for w in g.nodes() {
                assert_eq!(held.query(v, w), bfs_reachable(g, v, w), "query ({v},{w})");
            }
        }
        (stats, delta)
    }

    /// The member list and cyclic flag of each class `delta` names as
    /// born, in splice order, read off the maintainer the step left.
    fn births(inc: &IncrementalReach, delta: &PartitionDelta) -> Vec<(Vec<NodeId>, bool)> {
        let class = |&b: &u32| {
            (
                inc.q.members()[b as usize].clone(),
                inc.q.payload()[b as usize],
            )
        };
        delta.born.iter().map(class).collect()
    }

    /// [`step_both_paths`] from a fresh pair of maintainers over `g`, with
    /// the [`births`] of the step.
    fn one_step(
        mut g: LabeledGraph,
        spec: &[(u32, u32, bool)],
    ) -> (IncStats, PartitionDelta, Vec<(Vec<NodeId>, bool)>) {
        let (mut held, mut denied) = (IncrementalReach::new(&g), IncrementalReach::new(&g));
        let (stats, delta) = step_both_paths(&mut held, &mut denied, &mut g, &batch_of(spec));
        let born = births(&held, &delta);
        (stats, delta, born)
    }

    /// A random digraph of the seeded streams, with what the cut has
    /// special cases for: cycles, self loops, twins.
    fn seeded_graph(rng: &mut StdRng) -> LabeledGraph {
        let n = rng.gen_range(4..18usize);
        let mut g = graph(n, &[]);
        let node = |i: usize| NodeId(i as u32);
        for _ in 0..rng.gen_range(0..2 * n) {
            g.add_edge(node(rng.gen_range(0..n)), node(rng.gen_range(0..n)));
        }
        for _ in 0..rng.gen_range(0..3) {
            let v = node(rng.gen_range(0..n));
            g.add_edge(v, v);
        }
        for _ in 0..rng.gen_range(0..3) {
            let (u, v) = (node(rng.gen_range(0..n)), node(rng.gen_range(0..n)));
            g.add_edge(u, v);
            g.add_edge(v, u);
        }
        for _ in 0..rng.gen_range(0..4) {
            let t = node(rng.gen_range(0..n));
            let twin = g.add_node_with_label("X");
            for w in g.out_neighbors(t).to_vec() {
                g.add_edge(twin, w);
            }
            for z in g.in_neighbors(t).to_vec() {
                g.add_edge(z, twin);
            }
        }
        g
    }

    /// One batch of the seeded streams against `g`. Cases take turns:
    /// mixed, insertions only, deletions only.
    fn seeded_batch(rng: &mut StdRng, g: &LabeledGraph, case: usize) -> UpdateBatch {
        let insert_share = [0.5, 1.0, 0.0][case % 3];
        let n = g.node_count();
        let node = |i: usize| NodeId(i as u32);
        let mut batch = UpdateBatch::new();
        for _ in 0..rng.gen_range(1..6) {
            if rng.gen_bool(insert_share) {
                batch.insert(node(rng.gen_range(0..n)), node(rng.gen_range(0..n)));
            } else if g.edge_count() > 0 {
                let edges: Vec<_> = g.edges().collect();
                let (u, v) = edges[rng.gen_range(0..edges.len())];
                batch.delete(u, v);
            }
        }
        batch
    }

    /// The two regroups give one partition: on seeded streams over random
    /// digraphs ([`seeded_graph`]) they agree up to naming at every step,
    /// under mixed, insertion-only and deletion-only batches — including
    /// steps whose every affected class comes back unchanged.
    #[test]
    fn closure_and_hybrid_paths_agree_on_seeded_streams() {
        let mut rng = StdRng::seed_from_u64(0xC105);
        let mut quiet = 0;
        for case in 0..36 {
            let mut g = seeded_graph(&mut rng);
            let (mut held, mut denied) = (IncrementalReach::new(&g), IncrementalReach::new(&g));
            for step in 0..6 {
                let batch = seeded_batch(&mut rng, &g, case);
                let (stats, delta) = step_both_paths(&mut held, &mut denied, &mut g, &batch);
                assert_eq!(delta.id_space, held.q.id_space(), "case {case} step {step}");
                quiet += usize::from(stats.affected_classes > 0 && delta.is_empty());
            }
        }
        assert!(quiet > 0, "no step found every affected class unchanged");
    }

    /// L6: the closure a step patches is, field by field, the one a fresh
    /// sweep of the new rows gives — checked after every step, in every
    /// build — on the seeded streams above and on named traps: a far-away
    /// absorption, a born id recycled from a retired one, a rewired cyclic
    /// class whose signature holds its own units, stranded nodes joining the
    /// isolated class, and an id space growing across a 64-id word. Rows
    /// of up to two ids are lists here and longer ones bitmaps, so the
    /// patch crosses between the encodings.
    #[test]
    fn patched_closure_equals_a_fresh_sweep_at_every_step() {
        let mut recycled = 0;
        let mut rng = StdRng::seed_from_u64(0xC105);
        for case in 0..36 {
            let mut g = seeded_graph(&mut rng);
            let mut inc = IncrementalReach::new(&g);
            for step in 0..6 {
                let batch = seeded_batch(&mut rng, &g, case);
                let (_, delta) = inc.apply_with_delta(&mut g, &batch);
                assert_closure_is_a_fresh_sweep(&inc, &format!("case {case} step {step}"));
                let reused = delta.born.iter().filter(|b| delta.removed.contains(b));
                recycled += reused.count();
            }
        }
        assert!(recycled > 0, "no born id was a retired one");

        // One step of `spec` on `g`, checked; returns the maintainer.
        let trap = |mut g: LabeledGraph, spec: &[(u32, u32, bool)], what: &str| {
            let mut inc = IncrementalReach::new(&g);
            let (stats, delta) = inc.apply_with_delta(&mut g, &batch_of(spec));
            assert_closure_is_a_fresh_sweep(&inc, what);
            (inc, g, stats, delta)
        };
        // Far-away absorption: {5} joins the new {4} without being touched.
        let g = graph(6, &[(0, 1), (1, 0), (2, 3), (3, 2), (0, 4), (1, 5), (5, 3)]);
        let far = IncrementalReach::new(&g).class_of(NodeId(5));
        let (_, _, _, delta) = trap(g, &[(4, 2, true)], "far-away absorption");
        assert!(delta.removed.contains(&far));
        // A chord deleted from a ring while the ring gains a descendant: its
        // members regroup as one cyclic class, whose signatures hold its
        // own units, with new cones — rewired under its id. The chord alone
        // changes nothing.
        let ring = graph(4, &[(0, 1), (1, 2), (2, 0), (0, 2)]);
        let spec = [(0, 2, false), (2, 3, true)];
        let (inc, _, _, delta) = trap(ring.clone(), &spec, "cyclic group");
        assert!(delta.rewired.contains(&inc.class_of(NodeId(0))));
        let (_, _, _, delta) = trap(ring, &[(0, 2, false)], "chord alone");
        assert!(delta.is_empty());
        // Stranded nodes join the isolated class.
        let (_, _, _, delta) = trap(graph(4, &[(0, 1)]), &[(0, 1, false)], "stranded");
        assert_eq!(delta.born.len(), 1);
        // 63 → 65 ids: a chain of 62 classes and three isolated nodes, each
        // hung from a different chain node: the isolated class is retired,
        // three are born, and the chain above them is rewired.
        let chain = |len: u32, loose: u32| {
            let edges: Vec<(u32, u32)> = (1..len).map(|v| (v - 1, v)).collect();
            graph((len + loose) as usize, &edges)
        };
        let spec = [(62, 61, true), (63, 60, true), (64, 59, true)];
        let (_, _, _, delta) = trap(chain(62, 3), &spec, "63 → 65 ids");
        assert_eq!((delta.removed.len(), delta.id_space), (1, 65));
    }

    /// L5: the merge partner is far away — same ancestors, same
    /// descendants, no common neighbour — and unaffected, so it has no node
    /// in anything the step looks at; its two closure rows find it.
    #[test]
    fn far_away_merge_with_an_unaffected_class() {
        // S = {0 ↔ 1}, T = {2 ↔ 3}; 0 → 4, and 1 → 5 → 3. Inserting 4 → 2
        // makes 4 equivalent to 5, which neither reaches the batch nor is
        // reached from it.
        let g = graph(6, &[(0, 1), (1, 0), (2, 3), (3, 2), (0, 4), (1, 5), (5, 3)]);
        let far = IncrementalReach::new(&g).class_of(NodeId(5));
        let (stats, delta, born) = one_step(g, &[(4, 2, true)]);
        assert!(delta.removed.contains(&far), "the far class is absorbed");
        assert!(born
            .iter()
            .any(|(members, _)| members == &[NodeId(4), NodeId(5)]));
        // S whole, {4}, T whole: no unit for the partner.
        assert_eq!((stats.affected_classes, stats.hybrid_nodes), (3, 3));
    }

    /// L5, all-or-nothing: a unit whose cones match an unaffected class's
    /// only if a *part* of an exploded old class is read as the whole class
    /// must not merge with it.
    #[test]
    fn a_part_of_an_affected_class_is_not_the_class() {
        // 0 → {1, 2} (one class, sinks); 3 isolated. Inserting 3 → 1 splits
        // {1, 2}; afterwards 3 reaches 1 alone while 0 — unaffected, same
        // ancestors (none) — reaches both.
        let g = graph(4, &[(0, 1), (0, 2)]);
        let parent = IncrementalReach::new(&g).class_of(NodeId(0));
        let (_, delta, born) = one_step(g, &[(3, 1, true)]);
        assert!(!delta.removed.contains(&parent));
        assert!(born.iter().all(|(members, _)| members.len() == 1));
    }

    /// L5 with empty rows: nodes a deletion strands join the class of the
    /// isolated nodes, which no update touches.
    #[test]
    fn stranded_nodes_join_the_isolated_class() {
        let g = graph(4, &[(0, 1)]);
        let isolated = IncrementalReach::new(&g).class_of(NodeId(2));
        let (_, delta, born) = one_step(g, &[(0, 1, false)]);
        assert!(delta.removed.contains(&isolated));
        let all: Vec<NodeId> = (0..4).map(NodeId).collect();
        assert_eq!(born, [(all, false)]);
    }

    /// L3(a): a cyclic class with an incident update stays one unit; one
    /// that loses an internal edge is exploded — and regroups as one class
    /// if the edge was a chord (L7′: the very class, if nothing else moved),
    /// splits if it was a bridge.
    #[test]
    fn a_cyclic_class_is_one_unit_until_it_loses_an_internal_edge() {
        // 0 → 1 → 2 → 0 with the chord 0 → 2, and a bystander 3.
        let ring = graph(4, &[(0, 1), (1, 2), (2, 0), (0, 2)]);
        let (stats, _, _) = one_step(ring.clone(), &[(2, 3, true)]);
        assert_eq!((stats.affected_nodes, stats.hybrid_nodes), (4, 2));

        let (stats, delta, _) = one_step(ring.clone(), &[(0, 2, false)]);
        assert_eq!(stats.hybrid_nodes, 3, "exploded into its members");
        assert!(delta.is_empty(), "and found to be the same class again");

        let (stats, delta, born) = one_step(ring.clone(), &[(0, 2, false), (2, 3, true)]);
        assert_eq!(stats.hybrid_nodes, 4);
        // One cyclic class with new cones, and {3} below it: both kept.
        assert!(born.is_empty() && delta.removed.is_empty());
        assert_eq!(stats.rewired_classes, 2);

        let (stats, _, born) = one_step(ring, &[(1, 2, false)]);
        assert_eq!(stats.hybrid_nodes, 3);
        // 0 ↔ 2 is left; 1 hangs below it.
        assert_eq!(born.len(), 2);
    }

    /// L2/L4: an insertion closes a cycle through two affected classes —
    /// one of them a class kept whole — and the units condense into it.
    #[test]
    fn a_new_cycle_through_two_affected_classes() {
        let g = graph(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (4, 2)]);
        let (_, _, born) = one_step(g, &[(3, 0, true)]);
        let scc: Vec<NodeId> = (0..4).map(NodeId).collect();
        assert!(born.contains(&(scc, true)));
    }

    /// L3(b): members of an exploded class with equal neighbourhoods are
    /// one unit; a near-twin, one edge apart, is its own.
    #[test]
    fn twins_share_a_unit_and_near_twins_do_not() {
        // 0 → {1, 2, 3} → 4: one class of three. Inserting 3 → 5 leaves 1
        // and 2 twins.
        let g = graph(6, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]);
        let (stats, _, born) = one_step(g, &[(3, 5, true)]);
        // Affected: {0}, {1,2,3}, {5} — units {0}, {1,2}, {3}, {5}.
        assert_eq!((stats.affected_nodes, stats.hybrid_nodes), (5, 4));
        assert!(born
            .iter()
            .any(|(members, _)| members == &[NodeId(1), NodeId(2)]));
    }

    /// L7′: affected is not changed. A mixed batch — so no update is dropped
    /// as redundant — whose deletion has a detour and whose insertion is
    /// already implied affects three classes and changes none: the delta is
    /// empty, and the rows follow both edges in place.
    #[test]
    fn a_mixed_batch_that_changes_nothing_has_an_empty_delta() {
        // 0 → 1 → 2 → 3 and 0 → 2: deleting 0 → 2 leaves 0 → 1 → 2, and
        // 0 → 3 is implied.
        let g = graph(4, &[(0, 1), (1, 2), (2, 3), (0, 2)]);
        let (stats, delta, _) = one_step(g, &[(0, 2, false), (0, 3, true)]);
        assert_eq!((stats.effective_updates, stats.affected_classes), (2, 3));
        assert!(delta.is_empty());
        assert_eq!(stats.changed_classes, 0);
    }

    /// L7′: members, not cones, decide an id. A class whose members stay
    /// together while its ancestors change keeps its id and is rewired —
    /// and so are its new ancestor and its parent, whose cones grew.
    #[test]
    fn a_class_with_its_members_and_new_cones_keeps_its_id() {
        // 0 → {1, 2} (one class); inserting 3 → 0 gives it an ancestor.
        let g = graph(4, &[(0, 1), (0, 2)]);
        let inc = IncrementalReach::new(&g);
        let mut ids: Vec<u32> = [0, 1, 3].map(|v| inc.class_of(NodeId(v))).to_vec();
        ids.sort_unstable();
        let (stats, delta, born) = one_step(g, &[(3, 0, true)]);
        assert!(born.is_empty() && delta.removed.is_empty());
        assert_eq!(delta.rewired, ids);
        assert_eq!((stats.rewired_classes, stats.changed_classes), (3, 0));
    }

    /// L7′'s third condition: a class that keeps its members but whose new
    /// cones are an unaffected class's merges with it, so it is born — the
    /// two are retired — not kept. The group is a sink: L5 reads the
    /// descendant row of its one ancestor alone.
    #[test]
    fn a_class_with_its_members_and_new_cones_is_born() {
        // 0 → {1, 2} and 4 → 5. Moving {1, 2} under 4 gives it the cones of
        // {5}, which no update reaches.
        let g = graph(6, &[(0, 1), (0, 2), (4, 5)]);
        let inc = IncrementalReach::new(&g);
        let (sinks, far) = (inc.class_of(NodeId(1)), inc.class_of(NodeId(5)));
        let spec = [(0, 1, false), (0, 2, false), (4, 1, true), (4, 2, true)];
        let (_, delta, born) = one_step(g, &spec);
        assert!(delta.removed.contains(&sinks) && delta.removed.contains(&far));
        assert!(!delta.rewired.contains(&sinks));
        let merged = [1, 2, 5].map(NodeId).to_vec();
        assert!(born.contains(&(merged, false)));
    }

    /// L7′ asks for the cyclic flag too: a singleton that gains a self loop
    /// keeps its member and is born, not kept.
    #[test]
    fn a_singleton_that_gains_a_self_loop_is_born() {
        let g = graph(2, &[(0, 1)]);
        let single = IncrementalReach::new(&g).class_of(NodeId(0));
        let (_, delta, born) = one_step(g, &[(0, 0, true)]);
        assert!(delta.removed.contains(&single));
        assert!(!delta.rewired.contains(&single));
        assert_eq!(born, [(vec![NodeId(0)], true)]);
    }

    /// A batch that changes cones only: two strongly connected components
    /// join cones and no member moves. Nothing is retired or born, both are
    /// rewired, and the delta is not empty — the compression moved.
    #[test]
    fn joining_two_components_rewires_both_and_moves_no_member() {
        let g = graph(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let inc = IncrementalReach::new(&g);
        let mut ids = [inc.class_of(NodeId(0)), inc.class_of(NodeId(2))];
        ids.sort_unstable();
        let (stats, delta, born) = one_step(g, &[(1, 2, true)]);
        assert!(born.is_empty() && delta.removed.is_empty());
        assert_eq!(delta.rewired, ids);
        assert!(!delta.is_empty());
        assert_eq!(stats.rewired_classes, 2);
    }

    /// L5 by intersection: the AND of two closure rows can hold a class
    /// with the group's popcounts and other rows, which must not absorb it.
    #[test]
    fn a_popcount_collision_is_not_an_absorption() {
        // 0 → {4, 5} → 2 and 3 → 4, and 1 → 7 → 8 → 9 → 10. Inserting
        // 1 → 5 gives {5} the ancestors {0, 1}: two of them and one
        // descendant, like {4}, whose ancestors are {0, 3}. {0} has the
        // fewest descendants of the two, and {4} is among them.
        let edges = [
            (0, 4),
            (0, 5),
            (4, 2),
            (5, 2),
            (3, 4),
            (1, 7),
            (7, 8),
            (8, 9),
            (9, 10),
        ];
        let g = graph(11, &edges);
        let collider = IncrementalReach::new(&g).class_of(NodeId(4));
        let (_, delta, _) = one_step(g, &[(1, 5, true)]);
        assert!(!delta.removed.contains(&collider));
    }

    /// (c): the tokens of a class kept whole come from its rows and the
    /// batch — checked against a scan of its members in every debug step —
    /// when its last edge to another such class is deleted and when one of
    /// two is, when two such classes are adjacent, and when an insertion
    /// dropped as redundant gives it a new neighbour.
    #[test]
    fn a_class_kept_whole_reads_its_neighbourhood_from_its_rows() {
        // S = {0 ↔ 1}, T = {2 ↔ 3}.
        let pair = |extra: &[(u32, u32)]| {
            let mut edges = vec![(0, 1), (1, 0), (2, 3), (3, 2)];
            edges.extend(extra);
            graph(5, &edges)
        };
        let (stats, _, _) = one_step(pair(&[(1, 2)]), &[(1, 2, false)]);
        assert_eq!(stats.hybrid_nodes, 2, "S and T stay whole");
        let (_, delta, _) = one_step(pair(&[(1, 2), (0, 3)]), &[(1, 2, false)]);
        assert!(delta.is_empty(), "S still reaches T");
        let (stats, _, _) = one_step(pair(&[(1, 2)]), &[(4, 0, true)]);
        assert_eq!((stats.hybrid_nodes, stats.rewired_classes), (3, 3));
        // S → 4 → T: inserting 1 → 2 is redundant, and 4 → 4 is not.
        let mut g = pair(&[(1, 4), (4, 2)]);
        let (mut held, mut denied) = (IncrementalReach::new(&g), IncrementalReach::new(&g));
        let batch = batch_of(&[(1, 2, true), (4, 4, true)]);
        let (stats, _) = step_both_paths(&mut held, &mut denied, &mut g, &batch);
        assert_eq!((stats.redundant_dropped, stats.effective_updates), (1, 1));
    }

    /// The rows count every edge, exactly, between classes a step keeps:
    /// an insertion dropped as redundant, then — between the same two
    /// unchanged classes — its deletion, an implied insertion and that
    /// one's deletion. The counts [`step_both_paths`] checks after each
    /// step would underflow at the first deletion if the dropped insertion
    /// had not been counted.
    #[test]
    fn rows_count_the_edges_between_unchanged_classes() {
        let mut g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let (mut held, mut denied) = (IncrementalReach::new(&g), IncrementalReach::new(&g));
        let steps: [&[(u32, u32, bool)]; 4] = [
            &[(0, 2, true)],
            &[(0, 2, false), (1, 3, true)],
            &[(1, 3, false), (0, 2, true)],
            &[(0, 2, false)],
        ];
        for (step, spec) in steps.into_iter().enumerate() {
            let batch = batch_of(spec);
            let (stats, delta) = step_both_paths(&mut held, &mut denied, &mut g, &batch);
            assert!(delta.is_empty(), "step {step}");
            assert_eq!(
                stats.redundant_dropped,
                usize::from(step == 0),
                "step {step}"
            );
        }
    }

    /// Splice order: a group that absorbs an unaffected class is spliced
    /// where the kernel's first-seen numbering would see that class's atom
    /// — before every group of units — whether its id is below or above
    /// every affected id. (`step_both_paths` holds the two deltas equal;
    /// here the absorbing birth must come first.)
    #[test]
    fn an_absorbing_group_is_spliced_first_whatever_its_class_id() {
        // Low id: the isolated class {0, 1} has the lowest id; deleting
        // 2 → 3 strands both ends.
        let g = graph(4, &[(2, 3)]);
        let isolated = IncrementalReach::new(&g).class_of(NodeId(0));
        let (_, _, born) = one_step(g, &[(2, 3, false)]);
        assert_eq!(isolated, 0);
        assert!(born[0].0.contains(&NodeId(0)));

        // High id: the isolated class {4, 5} has the highest.
        let g = graph(6, &[(0, 1), (2, 3)]);
        let isolated = IncrementalReach::new(&g).class_of(NodeId(4));
        let (_, delta, born) = one_step(g, &[(0, 1, false)]);
        assert!(delta.removed.iter().all(|&c| c <= isolated));
        assert!(born[0].0.contains(&NodeId(4)));
        assert_eq!(born.len(), 1);
    }

    /// The invariant check knows the closure: it rejects a stale one (the
    /// closure of the quotient before the last step) and one with no rows.
    #[test]
    fn check_invariants_rejects_a_stale_or_missing_closure() {
        let mut g = graph(4, &[(0, 1), (1, 2)]);
        let mut inc = IncrementalReach::new(&g);
        let before = inc.closure.clone();
        inc.apply(&mut g, &batch_of(&[(2, 3, true)]));
        assert_eq!(inc.check_invariants(&g), Ok(()));
        let fresh = std::mem::replace(&mut inc.closure, before);
        assert!(inc.check_invariants(&g).is_err(), "stale closure passed");
        inc.closure = QuotientClosure::sweep(0, Vec::new());
        assert!(inc.check_invariants(&g).is_err(), "missing closure passed");
        inc.closure = fresh;
        assert_eq!(inc.check_invariants(&g), Ok(()));
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
                canonical(&inc.stable_quotient().class_of),
                canonical(&batch_c.partition.class_of)
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
                canonical(&inc.stable_quotient().class_of),
                canonical(&expect.partition.class_of),
                "case {case} diverged"
            );
        }
    }

    /// Checks a delta against the stable exports before and after its
    /// step: every id it neither removes nor bears keeps its exact member
    /// set, liveness and cyclic flag; every born id is live; and the born
    /// classes hold exactly the members of the retired ones.
    fn assert_delta_explains(
        before: &StableQuotient,
        delta: &PartitionDelta,
        after: &StableQuotient,
        ctx: &str,
    ) {
        assert_eq!(delta.id_space, after.id_space(), "{ctx}");
        let members = |sq: &StableQuotient, ids: &[u32]| -> Vec<usize> {
            let of = |v: &usize| ids.contains(&sq.class_of[*v]);
            (0..sq.class_of.len()).filter(of).collect()
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
            assert_eq!(members(before, &[c]), members(after, &[c]), "{ctx}: {c}");
            if live {
                assert_eq!(
                    before.cyclic[i], after.cyclic[i],
                    "{ctx}: cyclic flag of {c}"
                );
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
                assert_eq!(stats.changed_classes, delta.born.len());
                let after = inc.stable_quotient();
                assert_delta_explains(&before, &delta, &after, &format!("case {case} step {step}"));
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
        assert_eq!(sq.edges.len(), inc.q.quotient_edge_count());
        // The stable export and `compressR`'s dense ids describe the same
        // partition.
        let dense = compress_r(&g).partition;
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
                dense.payload[dense.class_of(v) as usize]
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
