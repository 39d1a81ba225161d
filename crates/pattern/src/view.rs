//! [`PatternView`] — the snapshot-facing form of the pattern preserving
//! compression.
//!
//! [`PatternCompression`](crate::compress::PatternCompression) is the batch
//! artefact: dense class ids and a freshly built mutable quotient graph. A
//! `PatternView` is what a serving layer publishes instead:
//!
//! * the quotient lives in CSR form with rows indexed by the maintainer's
//!   **stable** class ids ([`StablePatternQuotient`]), and member rows are
//!   adopted from the export by reference bump;
//! * it has one construction, [`PatternView::build`]; a serving layer
//!   shares the previous view when a batch's
//!   [`PartitionDelta`](qpgc_graph::update::PartitionDelta) is empty and
//!   builds a new one otherwise;
//! * retired ids persist as isolated rows carrying a reserved
//!   [`RETIRED_CLASS_LABEL`] that no pattern query can name, so candidate
//!   selection never sees ghost classes.

use std::sync::Arc;

use qpgc_graph::{CsrGraph, NodeId};

use crate::bounded::bounded_match;
use crate::incremental::StablePatternQuotient;
use crate::pattern::{MatchRelation, Pattern};

/// Reserved label name carried by retired (inactive) quotient rows. The
/// embedded NUL keeps it out of any realistic query vocabulary, so retired
/// rows never enter a pattern's candidate sets.
pub const RETIRED_CLASS_LABEL: &str = "\u{0}retired-class\u{0}";

/// A read-optimized snapshot of the pattern preserving compression,
/// indexed by stable class ids.
///
/// Never mutated after construction — a serving layer shares it behind an
/// `Arc`.
#[derive(Clone, Debug)]
pub struct PatternView {
    /// CSR quotient `Gr`. Rows are stable class ids; retired ids persist as
    /// isolated rows labelled [`RETIRED_CLASS_LABEL`].
    graph: CsrGraph,
    /// `class_of[v]` — stable class id of original node `v`.
    class_of: Vec<u32>,
    /// Member nodes per stable id (empty for retired ids), shared (`Arc`)
    /// with the export the view was built from.
    members: Vec<Arc<[NodeId]>>,
    /// Number of live classes.
    live_classes: usize,
}

impl PatternView {
    /// Builds a view from scratch out of the maintainer's stable-id export.
    pub fn build(spq: &StablePatternQuotient) -> PatternView {
        let id_space = spq.id_space();
        let mut interner = spq.interner.clone();
        let retired = interner.intern(RETIRED_CLASS_LABEL);
        let mut labels = spq.labels.clone();
        for (c, &alive) in spq.active.iter().enumerate() {
            if !alive {
                labels[c] = retired;
            }
        }
        let graph = CsrGraph::from_edges(
            labels,
            interner,
            spq.edges.iter().map(|&(a, b)| (NodeId(a), NodeId(b))),
        );
        debug_assert_eq!(spq.members.len(), id_space);
        PatternView {
            graph,
            class_of: spq.class_of.clone(),
            // Shared slices: adopting the export's member rows is a
            // reference bump per class, not a copy.
            members: spq.members.clone(),
            live_classes: spq.class_count(),
        }
    }

    /// The compressed pattern graph `Gr` in CSR form. Rows are stable class
    /// ids: `node_count` is the id-space size (retired ids persist as
    /// isolated sentinel-labelled rows), [`PatternView::class_count`] the
    /// number of live classes.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The stable class id of original node `v`, or `None` outside this
    /// view's node space.
    pub fn class_of(&self, v: NodeId) -> Option<u32> {
        self.class_of.get(v.index()).copied()
    }

    /// The original nodes represented by hypernode `c` (empty for retired
    /// ids — the inverse node mapping used by the post-processing function
    /// `P`).
    pub fn members_of(&self, c: NodeId) -> &[NodeId] {
        &self.members[c.index()]
    }

    /// Number of live hypernodes (`|Vr|`).
    pub fn class_count(&self) -> usize {
        self.live_classes
    }

    /// Number of original nodes this view covers.
    pub fn node_count(&self) -> usize {
        self.class_of.len()
    }

    /// The post-processing function `P`: expands a match relation computed
    /// on `Gr` into the match relation on `G` by replacing every hypernode
    /// with its members. Runs in time linear in the size of the output.
    pub fn post_process(&self, on_compressed: &MatchRelation) -> MatchRelation {
        crate::pattern::expand_match_relation(on_compressed, |c| self.members_of(c))
    }

    /// Answers a pattern query on the compressed graph and expands
    /// hypernodes back to original nodes (the composition `P ∘ Match ∘ F`
    /// with the identity rewriting `F`).
    pub fn answer(&self, query: &Pattern) -> Option<MatchRelation> {
        let on_gr = bounded_match(&self.graph, query)?;
        Some(self.post_process(&on_gr))
    }

    /// Approximate heap footprint in bytes (CSR quotient + node index +
    /// member lists), following the capacity-based convention of
    /// [`CsrGraph::heap_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.graph.heap_bytes()
            + self.class_of.capacity() * std::mem::size_of::<u32>()
            + self.members.capacity() * std::mem::size_of::<Arc<[NodeId]>>()
            + self
                .members
                .iter()
                .map(|m| m.len() * std::mem::size_of::<NodeId>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress_b;
    use crate::incremental::IncrementalPattern;
    use qpgc_graph::{LabeledGraph, UpdateBatch};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_labeled_graph(rng: &mut StdRng, n_max: usize) -> LabeledGraph {
        let alphabet = ["A", "B", "C"];
        let n = rng.gen_range(3..n_max);
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node_with_label(alphabet[rng.gen_range(0..alphabet.len())]);
        }
        for _ in 0..rng.gen_range(0..n * 2) {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            g.add_edge(NodeId(u), NodeId(v));
        }
        g
    }

    /// A view built from the maintainer's export — at version 0 and after
    /// every maintained batch, when retired ids have left isolated rows
    /// behind — has the batch compression's class count and answers like
    /// direct evaluation on the data graph.
    #[test]
    fn view_matches_batch_compression_answers() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut queries: Vec<Pattern> = Vec::new();
        {
            let mut p = Pattern::new();
            let a = p.add_node("A");
            let b = p.add_node("B");
            p.add_edge(a, b, 2);
            queries.push(p);
            let mut p = Pattern::new();
            let b = p.add_node("B");
            let a = p.add_node("A");
            p.add_edge_unbounded(b, a);
            queries.push(p);
            // A single-node query: exercises the retired-row sentinel (a
            // stale label on an isolated dead row would wrongly match).
            let mut p = Pattern::new();
            p.add_node("C");
            queries.push(p);
        }
        for case in 0..25 {
            let mut g = random_labeled_graph(&mut rng, 16);
            let mut inc = IncrementalPattern::new(&g);
            for step in 0..5 {
                let view = PatternView::build(&inc.stable_quotient());
                let pc = compress_b(&g);
                assert_eq!(view.class_count(), pc.class_count());
                for (qi, q) in queries.iter().enumerate() {
                    let ctx = format!("case {case} step {step} query {qi}");
                    let via_pc = bounded_match(&pc.graph, q).map(|m| pc.post_process(&m));
                    let via_view = view.answer(q);
                    crate::pattern::assert_same_answer(&via_pc, &via_view, &ctx);
                    crate::pattern::assert_same_answer(&bounded_match(&g, q), &via_view, &ctx);
                }
                let n = g.node_count();
                let mut batch = UpdateBatch::new();
                for _ in 0..rng.gen_range(1..4) {
                    let u = NodeId(rng.gen_range(0..n) as u32);
                    let v = NodeId(rng.gen_range(0..n) as u32);
                    if rng.gen_bool(0.5) {
                        batch.insert(u, v);
                    } else {
                        batch.delete(u, v);
                    }
                }
                inc.apply(&mut g, &batch);
            }
        }
    }

    #[test]
    fn heap_bytes_counts_all_components() {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        let b = g.add_node_with_label("B");
        g.add_edge(a, b);
        let view = PatternView::build(&IncrementalPattern::new(&g).stable_quotient());
        assert!(view.heap_bytes() >= view.graph().heap_bytes());
        assert!(view.heap_bytes() > 0);
    }
}
