//! [`PatternView`] — the one materialised form of the pattern preserving
//! compression: what [`compress_b`](crate::compress::compress_b) returns
//! and what a serving layer publishes.
//!
//! * the quotient lives in CSR form with rows indexed by **stable** class
//!   ids ([`StablePatternQuotient`]; `compress_b`'s ids are the batch
//!   partition's dense ones), and member rows are adopted from the export
//!   by reference bump;
//! * it has one construction, [`PatternView::build`]; a serving layer
//!   shares the previous view when a batch's
//!   [`PartitionDelta`](qpgc_graph::update::PartitionDelta) is empty and
//!   builds a new one otherwise;
//! * retired ids persist as isolated rows carrying a reserved
//!   [`RETIRED_CLASS_LABEL`] that no pattern query can name, so candidate
//!   selection never sees ghost classes, and [`PatternView::ratio`] does
//!   not count them.

use std::sync::Arc;

use qpgc_graph::stats::compression_ratio;
use qpgc_graph::{CsrGraph, LabeledGraph, NodeId};

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

    /// The compression ratio `|Gr| / |G|` (the paper's `PCr`): live
    /// classes plus quotient edges over `original`'s size. A retired row is
    /// isolated and no class, so a maintained view reads the ratio of the
    /// quotient it stands for.
    pub fn ratio(&self, original: &LabeledGraph) -> f64 {
        compression_ratio(original.size(), self.live_classes + self.graph.edge_count())
    }

    /// Number of original nodes this view covers.
    pub fn node_count(&self) -> usize {
        self.class_of.len()
    }

    /// The post-processing function `P`: expands a match relation computed
    /// on `Gr` into the match relation on `G` by replacing every hypernode
    /// with its members. Classes are disjoint, so nothing is sorted or
    /// deduplicated: the members are set in one bit row and read out in
    /// order, in time linear in the size of the output plus
    /// [`PatternView::node_count`]` / 64` words per pattern node.
    pub fn post_process(&self, on_compressed: &MatchRelation) -> MatchRelation {
        crate::pattern::expand_match_relation(on_compressed, self.node_count(), |c| {
            self.members_of(c)
        })
    }

    /// Answers a pattern query on the compressed graph and expands
    /// hypernodes back to original nodes (the composition `P ∘ Match ∘ F`
    /// with the identity rewriting `F`). `Match` scans `Gr`'s row labels
    /// once for the candidate rows (retired rows never qualify) and refines
    /// them on bit rows over `Gr`, sinks first: one reverse bounded search
    /// per pattern edge, at most `|Ep|` on an acyclic pattern, plus one per
    /// edge whose target's set shrank after the edge was checked
    /// ([`bounded_match`]). `P` is [`PatternView::post_process`]: it sets
    /// each pattern node's class members into one member row and reads it
    /// out in order.
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
    use qpgc_graph::UpdateBatch;
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
                    let via_pc = pc.answer(q);
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

    /// `P` as it was before the bit row: concatenate the member lists,
    /// sort, deduplicate.
    fn concat_sort_dedup<'a>(
        on_gr: &MatchRelation,
        members_of: impl Fn(NodeId) -> &'a [NodeId],
    ) -> MatchRelation {
        let matches = on_gr
            .matches
            .iter()
            .map(|classes| {
                let mut out: Vec<NodeId> = classes
                    .iter()
                    .flat_map(|&c| members_of(c).iter().copied())
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        MatchRelation { matches }
    }

    /// Every row, a random half of the rows, and no row, as the match sets
    /// of three pattern nodes.
    fn relation_over(rows: usize, rng: &mut StdRng) -> MatchRelation {
        let all: Vec<NodeId> = (0..rows as u32).map(NodeId).collect();
        let half = all.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        MatchRelation {
            matches: vec![all, half, Vec::new()],
        }
    }

    /// `P` equals the concatenate-sort-deduplicate expansion on a
    /// maintained view and on `compress_b`'s: on classes whose members
    /// straddle the word boundary at 64, on the last node id, and on views
    /// whose retired rows have no members.
    #[test]
    fn expansion_equals_sorted_concatenation() {
        let mut rng = StdRng::seed_from_u64(44);
        let alphabet = ["A", "B", "C"];
        // Nodes 40.. start isolated: one class per label, each straddling
        // the boundary (63, 64, 65 carry A, B, C), one holding id 129.
        let n = 130;
        let mut g = LabeledGraph::new();
        for v in 0..n {
            g.add_node_with_label(alphabet[v % 3]);
        }
        for _ in 0..60 {
            g.add_edge(NodeId(rng.gen_range(0..40)), NodeId(rng.gen_range(0..40)));
        }
        let mut inc = IncrementalPattern::new(&g);
        let mut retired_rows = 0;
        for step in 0..8 {
            let ctx = format!("step {step}");
            let view = PatternView::build(&inc.stable_quotient());
            let rows = view.graph().node_count();
            retired_rows += rows - view.class_count();
            let on_gr = relation_over(rows, &mut rng);
            let expanded = view.post_process(&on_gr);
            assert_eq!(expanded.matches[0].len(), n, "{ctx}");
            let expected = concat_sort_dedup(&on_gr, |c| view.members_of(c));
            assert_eq!(expanded, expected, "view, {ctx}");

            let pc = compress_b(&g);
            let on_gr = relation_over(pc.class_count(), &mut rng);
            let expected = concat_sort_dedup(&on_gr, |c| pc.members_of(c));
            assert_eq!(pc.post_process(&on_gr), expected, "compressB, {ctx}");

            // Node 64 leaves its class and comes back; the dense corner
            // churns.
            let mut batch = UpdateBatch::new();
            if step % 2 == 0 {
                batch.insert(NodeId(64), NodeId(65));
            } else {
                batch.delete(NodeId(64), NodeId(65));
            }
            for _ in 0..3 {
                let u = NodeId(rng.gen_range(0..40));
                let v = NodeId(rng.gen_range(0..40));
                if rng.gen_bool(0.5) {
                    batch.insert(u, v);
                } else {
                    batch.delete(u, v);
                }
            }
            inc.apply(&mut g, &batch);
        }
        assert!(retired_rows > 0, "no view had a retired row");
    }

    /// A maintained view keeps retired ids as isolated rows; its ratio
    /// counts the live classes only, so after every step of a stream that
    /// retires and recycles ids it is `compress_b`'s, bit for bit.
    #[test]
    fn a_maintained_views_ratio_counts_live_classes() {
        let mut rng = StdRng::seed_from_u64(45);
        let (mut retired_rows, mut recycled) = (0, 0);
        for case in 0..20 {
            let mut g = random_labeled_graph(&mut rng, 24);
            let mut inc = IncrementalPattern::new(&g);
            let mut retired: Vec<u32> = Vec::new();
            for step in 0..8 {
                let view = PatternView::build(&inc.stable_quotient());
                retired_rows += view.graph().node_count() - view.class_count();
                assert_eq!(
                    view.ratio(&g).to_bits(),
                    compress_b(&g).ratio(&g).to_bits(),
                    "case {case} step {step}"
                );
                let n = g.node_count();
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
                let (_, delta) = inc.apply_with_delta(&mut g, &batch);
                recycled += delta.born.iter().filter(|c| retired.contains(c)).count();
                retired.extend(&delta.removed);
            }
        }
        assert!(
            retired_rows > 0 && recycled > 0,
            "{retired_rows} retired rows, {recycled} recycled ids"
        );
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
