//! Incremental maintenance façade (Section 5).
//!
//! [`MaintainedGraph`] owns the data graph `G` — **once** — together with
//! its incrementally maintained reachability compression and, optionally,
//! its pattern compression, and keeps all of them in sync under edge
//! updates: `R(G ⊕ ΔG) = Gr ⊕ ΔGr`, computed by `incRCM` / `incPCM`
//! without recompression. A batch is normalised once and applied to the
//! graph once; both maintainers then see the same
//! `(post-batch G, normalised ΔG)`.

use qpgc_graph::update::PartitionDelta;
use qpgc_graph::{IncStats, LabeledGraph, UpdateBatch};
use qpgc_pattern::incremental::IncrementalPattern;
use qpgc_pattern::pattern::{MatchRelation, Pattern};
use qpgc_pattern::view::PatternView;
use qpgc_reach::incremental::IncrementalReach;

/// What one maintenance step did to each maintained compression: its
/// statistics and the structured delta of retired and created classes.
#[derive(Clone, Debug)]
pub struct Maintained {
    /// The reachability side (`incRCM`).
    pub reach: (IncStats, PartitionDelta),
    /// The pattern side (`incPCM`), when maintained.
    pub pattern: Option<(IncStats, PartitionDelta)>,
}

/// A data graph plus its incrementally maintained compressions: always the
/// reachability-preserving one, and the pattern-preserving one on request.
#[derive(Clone, Debug)]
pub struct MaintainedGraph {
    graph: LabeledGraph,
    reach: IncrementalReach,
    pattern: Option<IncrementalPattern>,
}

impl MaintainedGraph {
    /// Compresses `g` and takes ownership of it for future maintenance.
    /// `patterns` also maintains the bisimulation quotient. Compression
    /// and every later maintenance step run on the calling thread: there
    /// is no worker count to pass (a store's `threads` shards its bulk
    /// reads only).
    pub fn new(g: LabeledGraph, patterns: bool) -> Self {
        let reach = IncrementalReach::new(&g);
        let pattern = patterns.then(|| IncrementalPattern::new(&g));
        MaintainedGraph {
            graph: g,
            reach,
            pattern,
        }
    }

    /// The current data graph `G`.
    pub fn graph(&self) -> &LabeledGraph {
        &self.graph
    }

    /// The maintained reachability compression (class counts, queries,
    /// the stable-id export and the closure a publication reads).
    pub fn reach(&self) -> &IncrementalReach {
        &self.reach
    }

    /// The maintained pattern compression, when enabled.
    pub fn pattern(&self) -> Option<&IncrementalPattern> {
        self.pattern.as_ref()
    }

    /// `batch` normalized against the current graph — every remaining
    /// update really changes the edge set. This is what
    /// [`MaintainedGraph::apply_normalized`] consumes and what
    /// [`MaintainedGraph::recover_from_failed`] inverts.
    pub fn normalize(&self, batch: &UpdateBatch) -> UpdateBatch {
        batch.normalized(&self.graph)
    }

    /// Applies `ΔG`, updating the graph and every maintained compression.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Maintained {
        let norm = self.normalize(batch);
        self.apply_normalized(&norm)
    }

    /// [`MaintainedGraph::apply`] for a batch already normalized by
    /// [`MaintainedGraph::normalize`] against the current graph: mutates
    /// the graph once, then hands both maintainers the same post-batch
    /// graph and normalized batch.
    pub fn apply_normalized(&mut self, norm: &UpdateBatch) -> Maintained {
        norm.apply_to(&mut self.graph);
        let reach = self.reach.apply_normalized(&self.graph, norm);
        let pattern = self
            .pattern
            .as_mut()
            .map(|p| p.apply_normalized(&self.graph, norm));
        Maintained { reach, pattern }
    }

    /// Answers a pattern query by evaluating it on the maintained compressed
    /// graph and expanding hypernodes (the paper's Fig. 12(h) strategy:
    /// `incPCM` + `Match` on `Gr`), through the view a store serves:
    /// [`PatternView::build`] over the stable-id export, then
    /// [`PatternView::answer`].
    ///
    /// # Panics
    ///
    /// When the pattern compression is not maintained.
    pub fn match_pattern(&self, query: &Pattern) -> Option<MatchRelation> {
        let p = self
            .pattern
            .as_ref()
            .expect("pattern maintenance not enabled; pass `patterns = true`");
        PatternView::build(&p.stable_quotient()).answer(query)
    }

    /// Restores the maintained state after a *failed* (panicked or aborted)
    /// application of the normalized batch `norm` — the panic-isolation
    /// half of a fault-tolerant store.
    ///
    /// The graph is mutated at one point (`norm.apply_to`,
    /// all-or-mostly-nothing) before any partition state is touched, but a
    /// panic can in principle interrupt anywhere, so recovery checks each
    /// normalized update individually: a normalized update by construction
    /// *changes* the edge set, so the edge's current presence tells exactly
    /// whether that update took effect, and only effective updates are
    /// inverted. The partition states are then rebuilt by recompressing the
    /// restored graph — a from-scratch cost paid only on the failure path.
    ///
    /// Recompression assigns **fresh stable ids**: a structure keyed by the
    /// old ids still describes the restored graph, but its ids must not be
    /// mixed with ids exported after the recovery.
    pub fn recover_from_failed(&mut self, norm: &UpdateBatch) {
        undo_effective(&mut self.graph, norm);
        *self = MaintainedGraph::new(std::mem::take(&mut self.graph), self.pattern.is_some());
    }
}

/// Reverts the updates of a *normalized* batch that actually took effect:
/// a normalized insert's edge is present iff the insert ran, and a
/// normalized delete's edge is absent iff the delete ran (normalization
/// guarantees one net update per edge, so the per-edge check is exact).
fn undo_effective(g: &mut LabeledGraph, norm: &UpdateBatch) {
    for u in norm.updates().iter().rev() {
        let (a, b) = u.edge();
        if u.is_insert() {
            if g.has_edge(a, b) {
                g.remove_edge(a, b);
            }
        } else if !g.has_edge(a, b) {
            g.add_edge(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpgc_graph::NodeId;
    use qpgc_pattern::bounded::bounded_match;

    /// The classes of a node → class table as node ids, sorted by first
    /// member: equal for two partitions into the same classes, however each
    /// numbers them.
    fn canonical(class_of: impl IntoIterator<Item = u32>) -> Vec<Vec<u32>> {
        let mut classes = std::collections::BTreeMap::<u32, Vec<u32>>::new();
        for (v, c) in class_of.into_iter().enumerate() {
            classes.entry(c).or_default().push(v as u32);
        }
        let mut classes: Vec<Vec<u32>> = classes.into_values().collect();
        classes.sort_unstable();
        classes
    }

    /// [`canonical`] of `compress_b(g)`.
    fn compressed(g: &LabeledGraph) -> Vec<Vec<u32>> {
        let view = qpgc_pattern::compress::compress_b(g);
        canonical(g.nodes().map(|v| view.class_of(v).expect("a node of g")))
    }

    fn sample() -> LabeledGraph {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        let b1 = g.add_node_with_label("B");
        let b2 = g.add_node_with_label("B");
        let c = g.add_node_with_label("C");
        g.add_edge(a, b1);
        g.add_edge(a, b2);
        g.add_edge(b1, c);
        g.add_edge(b2, c);
        g
    }

    #[test]
    fn maintained_reachability_tracks_updates() {
        let g = sample();
        let mut m = MaintainedGraph::new(g, false);
        assert_eq!(m.reach().class_count(), 3);
        assert!(m.reach().query(NodeId(0), NodeId(3)));

        let mut batch = UpdateBatch::new();
        batch.delete(NodeId(1), NodeId(3));
        m.apply(&batch);
        assert!(!m.reach().query(NodeId(1), NodeId(3)));
        assert!(m.reach().query(NodeId(2), NodeId(3)));
        // The maintained compression agrees with recompressing from scratch.
        let scratch = qpgc_reach::compress::compress_r(m.graph());
        assert_eq!(
            canonical(m.reach().stable_quotient().class_of),
            canonical(scratch.partition.class_of)
        );
    }

    #[test]
    fn maintained_pattern_tracks_updates() {
        let g = sample();
        let mut m = MaintainedGraph::new(g, true);
        let mut q = Pattern::new();
        let a = q.add_node("A");
        let b = q.add_node("B");
        let c = q.add_node("C");
        q.add_edge(a, b, 1);
        q.add_edge(b, c, 1);
        assert!(m.match_pattern(&q).is_some());

        let mut batch = UpdateBatch::new();
        batch.delete(NodeId(1), NodeId(3));
        batch.delete(NodeId(2), NodeId(3));
        m.apply(&batch);
        assert!(m.match_pattern(&q).is_none());
        assert!(bounded_match(m.graph(), &q).is_none());

        assert_eq!(
            canonical(m.pattern().unwrap().stable_quotient().class_of),
            compressed(m.graph())
        );
    }

    #[test]
    fn maintained_pattern_answers_match_direct_evaluation() {
        let g = sample();
        let mut m = MaintainedGraph::new(g, true);
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(3), NodeId(0));
        m.apply(&batch);

        let mut q = Pattern::new();
        let a = q.add_node("A");
        let c = q.add_node("C");
        q.add_edge(c, a, 1);
        let via_compression = m.match_pattern(&q).unwrap();
        let direct = bounded_match(m.graph(), &q).unwrap();
        assert_eq!(via_compression.canonical(), direct.canonical());
    }

    /// Rollback undoes the one shared graph and recompresses both sides.
    #[test]
    fn recovery_restores_the_pre_batch_state_on_both_sides() {
        let g = sample();
        let mut m = MaintainedGraph::new(g.clone(), true);
        let mut batch = UpdateBatch::new();
        batch.delete(NodeId(1), NodeId(3));
        batch.insert(NodeId(3), NodeId(0));
        let norm = m.normalize(&batch);
        m.apply_normalized(&norm);
        m.recover_from_failed(&norm);
        assert_eq!(
            m.graph().edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
        assert_eq!(
            canonical(m.reach().stable_quotient().class_of),
            canonical(qpgc_reach::compress::compress_r(&g).partition.class_of)
        );
        assert_eq!(
            canonical(m.pattern().unwrap().stable_quotient().class_of),
            compressed(&g)
        );
    }
}
