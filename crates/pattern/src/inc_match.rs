//! `IncBMatch` — incremental maintenance of a pattern query's match relation
//! (the baseline compared against `incPCM` + `Match` in Fig. 12(h)).
//!
//! The maximum bounded-simulation match is a greatest fixpoint, so it can be
//! maintained by re-running the refinement from any *over-approximation* of
//! the new per-node fixpoint sets:
//!
//! * **deletions only** — the old sets over-approximate the new ones
//!   (removing edges can only remove matches), so refinement restarts from
//!   them and usually converges in a few rounds touching only the damaged
//!   part;
//! * **batches containing insertions** — matches can appear, but only for
//!   label-eligible nodes that can reach an inserted edge's source: a node
//!   whose match status improves must gain a witness path through an
//!   inserted edge somewhere in its transitive dependency chain, and every
//!   node in that chain reaches the inserted edge's source. The old sets are
//!   widened with exactly those nodes before refining.
//!
//! Either way the result provably equals a from-scratch evaluation, which
//! the tests assert on randomized update sequences.
//!
//! The state tracks per-pattern-node fixpoint sets even while the pattern
//! does not match overall (some set empty); the user-facing answer is
//! derived from them (the paper's convention: the answer is `∅` unless every
//! pattern node has a match).

use std::collections::VecDeque;

use qpgc_graph::{LabeledGraph, NodeId, UpdateBatch};

use crate::bounded::{label_candidates, refine_to_fixpoint};
use crate::pattern::{MatchRelation, Pattern};

/// Incrementally maintained match relation of one pattern query.
#[derive(Clone, Debug)]
pub struct IncrementalMatch {
    pattern: Pattern,
    /// Per-pattern-node greatest-fixpoint sets (possibly empty).
    sim: Vec<Vec<NodeId>>,
}

impl IncrementalMatch {
    /// Evaluates the pattern on `g` and starts maintaining the result.
    pub fn new(g: &LabeledGraph, pattern: Pattern) -> Self {
        let mut sim = label_candidates(g, &pattern);
        refine_to_fixpoint(g, &pattern, &mut sim, false);
        IncrementalMatch { pattern, sim }
    }

    /// The current answer: the maximum match relation, or `None` when the
    /// pattern does not match (`Qp ⋬ G`).
    pub fn current(&self) -> Option<MatchRelation> {
        if self.pattern.node_count() == 0 || self.sim.iter().any(|s| s.is_empty()) {
            return None;
        }
        let mut rel = MatchRelation::empty(self.pattern.node_count());
        rel.matches = self.sim.clone();
        Some(rel)
    }

    /// Applies `batch` to `g` and updates the maintained answer.
    pub fn apply(&mut self, g: &mut LabeledGraph, batch: &UpdateBatch) -> Option<MatchRelation> {
        let norm = batch.normalized(g);
        norm.apply_to(g);
        if norm.is_empty() {
            return self.current();
        }
        let (insertions, _) = norm.split();

        // After deletions alone the previous sets over-approximate the new
        // ones; insertions widen them first.
        if !insertions.is_empty() {
            self.sim = self.widened_candidates(g, &insertions);
        }
        refine_to_fixpoint(g, &self.pattern, &mut self.sim, false);
        self.current()
    }

    /// Builds candidate sets = old sets ∪ {label-eligible nodes that can
    /// reach an inserted edge's source in the updated graph}.
    fn widened_candidates(
        &self,
        g: &LabeledGraph,
        insertions: &[(NodeId, NodeId)],
    ) -> Vec<Vec<NodeId>> {
        let full = label_candidates(g, &self.pattern);
        let touched = reverse_reach_marks(g, insertions.iter().map(|&(u, _)| u));

        full.into_iter()
            .enumerate()
            .map(|(u, full_candidates)| {
                let mut set: Vec<NodeId> = self.sim[u].clone();
                for v in full_candidates {
                    if touched[v.index()] {
                        set.push(v);
                    }
                }
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect()
    }
}

/// Marks every node with a (possibly empty) path to one of `targets` (the
/// targets themselves are marked).
fn reverse_reach_marks(g: &LabeledGraph, targets: impl Iterator<Item = NodeId>) -> Vec<bool> {
    let n = g.node_count();
    let mut reached = vec![false; n];
    let mut queue = VecDeque::new();
    for t in targets {
        if !reached[t.index()] {
            reached[t.index()] = true;
            queue.push_back(t);
        }
    }
    while let Some(v) = queue.pop_front() {
        for &p in g.in_neighbors(v) {
            if !reached[p.index()] {
                reached[p.index()] = true;
                queue.push_back(p);
            }
        }
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::bounded_match;
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

    fn two_edge_pattern() -> Pattern {
        let mut p = Pattern::new();
        let a = p.add_node("A");
        let b = p.add_node("B");
        let c = p.add_node("C");
        p.add_edge(a, b, 2);
        p.add_edge(b, c, 1);
        p
    }

    fn assert_matches_scratch(inc: &IncrementalMatch, g: &LabeledGraph) {
        let scratch = bounded_match(g, &inc.pattern);
        match (inc.current(), scratch) {
            (None, None) => {}
            (Some(a), Some(b)) => assert_eq!(a.canonical(), b.canonical()),
            (a, b) => panic!(
                "incremental ({}) and scratch ({}) disagree",
                a.is_some(),
                b.is_some()
            ),
        }
    }

    #[test]
    fn deletion_removes_matches() {
        let mut g = graph(
            &["A", "B", "C", "B", "C"],
            &[(0, 1), (1, 2), (0, 3), (3, 4)],
        );
        let mut inc = IncrementalMatch::new(&g, two_edge_pattern());
        assert!(inc.current().is_some());
        let mut batch = UpdateBatch::new();
        batch.delete(NodeId(3), NodeId(4));
        inc.apply(&mut g, &batch);
        assert_matches_scratch(&inc, &g);
        let rel = inc.current().unwrap();
        assert!(!rel.matches_of(1).contains(&NodeId(3)));
    }

    #[test]
    fn deletion_can_kill_the_match_entirely() {
        let mut g = graph(&["A", "B", "C"], &[(0, 1), (1, 2)]);
        let mut inc = IncrementalMatch::new(&g, two_edge_pattern());
        assert!(inc.current().is_some());
        let mut batch = UpdateBatch::new();
        batch.delete(NodeId(1), NodeId(2));
        inc.apply(&mut g, &batch);
        assert!(inc.current().is_none());
        assert_matches_scratch(&inc, &g);
    }

    #[test]
    fn insertion_adds_matches() {
        let mut g = graph(&["A", "B", "C", "B"], &[(0, 1), (1, 2), (0, 3)]);
        let mut inc = IncrementalMatch::new(&g, two_edge_pattern());
        let before = inc.current().unwrap().canonical().len();
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(3), NodeId(2));
        inc.apply(&mut g, &batch);
        assert_matches_scratch(&inc, &g);
        assert!(inc.current().unwrap().canonical().len() > before);
    }

    #[test]
    fn insertion_creates_match_from_nothing() {
        let mut g = graph(&["A", "B", "C"], &[(0, 1)]);
        let mut inc = IncrementalMatch::new(&g, two_edge_pattern());
        assert!(inc.current().is_none());
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(1), NodeId(2));
        inc.apply(&mut g, &batch);
        assert!(inc.current().is_some());
        assert_matches_scratch(&inc, &g);
    }

    #[test]
    fn mixed_batches_stay_exact() {
        let mut g = graph(
            &["A", "B", "C", "B", "C", "A"],
            &[(0, 1), (1, 2), (5, 3), (3, 4)],
        );
        let mut inc = IncrementalMatch::new(&g, two_edge_pattern());
        let mut batch = UpdateBatch::new();
        batch.delete(NodeId(1), NodeId(2));
        batch.insert(NodeId(1), NodeId(4));
        batch.insert(NodeId(2), NodeId(2));
        inc.apply(&mut g, &batch);
        assert_matches_scratch(&inc, &g);
    }

    #[test]
    fn unbounded_pattern_edges() {
        let mut p = Pattern::new();
        let a = p.add_node("A");
        let c = p.add_node("C");
        p.add_edge_unbounded(a, c);
        let mut g = graph(&["A", "B", "B", "C"], &[(0, 1), (1, 2)]);
        let mut inc = IncrementalMatch::new(&g, p);
        assert!(inc.current().is_none());
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(2), NodeId(3));
        inc.apply(&mut g, &batch);
        assert!(inc.current().is_some());
        assert_matches_scratch(&inc, &g);
    }

    #[test]
    fn randomized_sequences_match_scratch() {
        let mut rng = StdRng::seed_from_u64(123);
        let alphabet = ["A", "B", "C"];
        for _ in 0..15 {
            let n = rng.gen_range(4..14);
            let mut g = LabeledGraph::new();
            for _ in 0..n {
                g.add_node_with_label(alphabet[rng.gen_range(0..alphabet.len())]);
            }
            for _ in 0..rng.gen_range(0..n * 2) {
                let u = rng.gen_range(0..n) as u32;
                let v = rng.gen_range(0..n) as u32;
                g.add_edge(NodeId(u), NodeId(v));
            }
            let mut inc = IncrementalMatch::new(&g, two_edge_pattern());
            for _ in 0..4 {
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
                assert_matches_scratch(&inc, &g);
            }
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut g = graph(&["A", "B", "C"], &[(0, 1), (1, 2)]);
        let mut inc = IncrementalMatch::new(&g, two_edge_pattern());
        let before = inc.current().unwrap().canonical();
        inc.apply(&mut g, &UpdateBatch::new());
        assert_eq!(inc.current().unwrap().canonical(), before);
    }

    #[test]
    fn maintained_sets_survive_unmatched_phases() {
        // Pattern stops matching, then matches again; the per-node sets must
        // come back exactly.
        let mut g = graph(&["A", "B", "C"], &[(0, 1), (1, 2)]);
        let mut inc = IncrementalMatch::new(&g, two_edge_pattern());
        let mut del = UpdateBatch::new();
        del.delete(NodeId(0), NodeId(1));
        inc.apply(&mut g, &del);
        assert!(inc.current().is_none());
        let mut ins = UpdateBatch::new();
        ins.insert(NodeId(0), NodeId(1));
        inc.apply(&mut g, &ins);
        assert_matches_scratch(&inc, &g);
        assert!(inc.current().is_some());
    }
}
