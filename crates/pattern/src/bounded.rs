//! Bounded simulation `Match` (Fan et al., PVLDB 2010) — the pattern
//! matching semantics of the paper's graph pattern queries.
//!
//! A data graph matches a pattern `Qp` if there is a relation `S ⊆ Vp × V`
//! such that every pattern node has a match, matched nodes agree on labels,
//! and every pattern edge `(u, u')` with bound `k` (or `*`) is witnessed by
//! a non-empty path of length ≤ `k` (or any length) from the matching data
//! node to some data node matching `u'`. There is a unique maximum such
//! relation (Lemma 1); it is the greatest fixpoint of a refinement that
//! starts from the label candidates.
//!
//! The refinement is a worklist over pattern edges. Every edge is queued
//! once; popping `(u, u', k)` runs one reverse bounded BFS from `sim(u')`
//! and keeps the members of `sim(u)` it hit. Only a shrink of `sim(u)` can
//! invalidate an edge checked earlier, and only an edge whose *target* is
//! `u`, so exactly those edges are queued again. A query therefore runs at
//! most `|Ep| + Σ shrinks × (pattern in-degree of the shrunk node)` BFSs,
//! all on one set of epoch-stamped buffers that no BFS clears.
//! [`reference_bounded_match`] keeps the round-based loop that reruns every
//! edge until a round changes nothing; the two are tested equal.

use std::collections::VecDeque;

use qpgc_graph::{GraphView, Label, NodeId};

use crate::pattern::{resolve_labels, EdgeBound, MatchRelation, Pattern};

/// Computes the maximum bounded-simulation match of `pattern` in `g`.
///
/// Generic over [`GraphView`]: runs identically on the mutable
/// [`LabeledGraph`](qpgc_graph::LabeledGraph) and on CSR snapshots such as
/// the serving layer's pattern quotients.
///
/// Returns `None` if the pattern does not match (`Qp ⋬ G`), otherwise the
/// maximum match relation `SM`.
pub fn bounded_match<G: GraphView>(g: &G, pattern: &Pattern) -> Option<MatchRelation> {
    if pattern.node_count() == 0 {
        return None;
    }
    let mut sim = label_candidates(g, pattern);
    if sim.iter().any(Vec::is_empty) {
        return None;
    }
    // Sets only shrink, so the first one to empty decides the answer.
    if !refine_to_fixpoint(g, pattern, &mut sim, true) {
        return None;
    }
    Some(MatchRelation { matches: sim })
}

/// The label candidates of every pattern node, each ascending and possibly
/// empty. One scan of `g`'s labels fills the list of the first pattern node
/// carrying each label (sized for every node, so it never reallocates);
/// later pattern nodes with that label copy it.
pub(crate) fn label_candidates<G: GraphView>(g: &G, pattern: &Pattern) -> Vec<Vec<NodeId>> {
    let labels = resolve_labels(pattern, g);
    let first = |l: Option<Label>| labels.iter().position(|&m| m == l);
    let mut sim: Vec<Vec<NodeId>> = labels
        .iter()
        .enumerate()
        .map(|(u, &l)| match l {
            Some(_) if first(l) == Some(u) => Vec::with_capacity(g.node_count()),
            _ => Vec::new(),
        })
        .collect();
    for v in g.nodes() {
        if let Some(u) = first(Some(g.label(v))) {
            sim[u].push(v);
        }
    }
    for (u, &l) in labels.iter().enumerate() {
        if let Some(f) = first(l).filter(|&f| f != u) {
            sim[u] = sim[f].clone();
        }
    }
    sim
}

/// Refines `sim` in place to the greatest fixpoint with the worklist of the
/// module doc. `sim` must be a superset of the maximum match (the label
/// candidates, or a previous result that can only have shrunk) with every
/// set ascending. With `stop_on_empty` it returns `false` as soon as a set
/// empties, leaving `sim` part-refined. Without, empty sets propagate and
/// it returns `true`: the incremental algorithm (`IncBMatch`) keeps
/// per-node sets while the pattern does not match.
pub(crate) fn refine_to_fixpoint<G: GraphView>(
    g: &G,
    pattern: &Pattern,
    sim: &mut [Vec<NodeId>],
    stop_on_empty: bool,
) -> bool {
    let edges = pattern.edges();
    let mut into: Vec<Vec<usize>> = vec![Vec::new(); pattern.node_count()];
    for (i, &(_, target, _)) in edges.iter().enumerate() {
        into[target as usize].push(i);
    }
    let mut queued = vec![true; edges.len()];
    let mut work: VecDeque<usize> = (0..edges.len()).collect();
    let mut bfs = ReverseBfs::new(g.node_count());
    while let Some(i) = work.pop_front() {
        queued[i] = false;
        let (u, target, bound) = edges[i];
        let u = u as usize;
        if sim[u].is_empty() {
            continue;
        }
        bfs.run(g, &sim[target as usize], bound);
        let before = sim[u].len();
        sim[u].retain(|&v| bfs.hit(v));
        if sim[u].len() == before {
            continue;
        }
        if stop_on_empty && sim[u].is_empty() {
            return false;
        }
        for &j in &into[u] {
            if !queued[j] {
                queued[j] = true;
                work.push_back(j);
            }
        }
    }
    debug_assert!(sim.iter().all(|s| s.is_sorted()));
    true
}

/// Multi-source reverse bounded BFS whose buffers live for a whole query.
/// `seen[v] == epoch` marks `v` queued by the current BFS, `hit[v] ==
/// epoch` marks it as reaching a target by a non-empty path within the
/// bound, so bumping `epoch` clears both.
struct ReverseBfs {
    epoch: u32,
    seen: Vec<u32>,
    hit: Vec<u32>,
    queue: Vec<NodeId>,
}

impl ReverseBfs {
    fn new(n: usize) -> Self {
        ReverseBfs {
            epoch: 0,
            seen: vec![0; n],
            hit: vec![0; n],
            queue: Vec::new(),
        }
    }

    /// Marks every node with a non-empty path of length ≤ `bound` (any
    /// length for `*`) to some node of `targets`, one queue level per hop.
    fn run<G: GraphView>(&mut self, g: &G, targets: &[NodeId], bound: EdgeBound) {
        if self.epoch == u32::MAX {
            self.seen.fill(0);
            self.hit.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.queue.clear();
        for &t in targets {
            if self.seen[t.index()] != epoch {
                self.seen[t.index()] = epoch;
                self.queue.push(t);
            }
        }
        let (mut level, mut hops) = (0, 0);
        while level < self.queue.len() && bound.hop_limit().is_none_or(|k| hops < k) {
            let end = self.queue.len();
            for i in level..end {
                for &p in g.in_neighbors(self.queue[i]) {
                    // p reaches a target via a path of length hops + 1 ≥ 1.
                    self.hit[p.index()] = epoch;
                    if self.seen[p.index()] != epoch {
                        self.seen[p.index()] = epoch;
                        self.queue.push(p);
                    }
                }
            }
            (level, hops) = (end, hops + 1);
        }
    }

    /// Whether the last [`ReverseBfs::run`] hit `v`.
    fn hit(&self, v: NodeId) -> bool {
        self.hit[v.index()] == self.epoch
    }
}

/// The round-based matcher the worklist replaced: per-label candidate
/// filters, then every pattern edge's reverse bounded BFS (fresh buffers
/// each) rerun in every round until a round changes nothing. Kept as the
/// oracle [`bounded_match`] and `IncBMatch` are tested against.
// qpgc-lint: allow(dead-surface) -- oracle of bounded::tests
pub fn reference_bounded_match<G: GraphView>(g: &G, pattern: &Pattern) -> Option<MatchRelation> {
    if pattern.node_count() == 0 {
        return None;
    }
    let labels = resolve_labels(pattern, g);
    let mut sim = Vec::with_capacity(pattern.node_count());
    for u in pattern.nodes() {
        let want = labels[u as usize];
        let cands: Vec<NodeId> = g.nodes().filter(|&v| want == Some(g.label(v))).collect();
        if cands.is_empty() {
            return None;
        }
        sim.push(cands);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &(u, u2, bound) in pattern.edges() {
            let (u, u2) = (u as usize, u2 as usize);
            let can_reach = reverse_reach_within(g, &sim[u2], bound);
            let before = sim[u].len();
            sim[u].retain(|v| can_reach[v.index()]);
            if sim[u].len() != before {
                changed = true;
            }
        }
    }
    if sim.iter().any(|s| s.is_empty()) {
        return None;
    }
    for s in &mut sim {
        s.sort_unstable();
    }
    Some(MatchRelation { matches: sim })
}

/// Multi-source reverse BFS: marks every node that has a non-empty path of
/// length ≤ `bound` (unlimited for `*`) to some node in `targets`.
fn reverse_reach_within<G: GraphView>(g: &G, targets: &[NodeId], bound: EdgeBound) -> Vec<bool> {
    let limit = bound.hop_limit();
    let n = g.node_count();
    let mut dist = vec![usize::MAX; n];
    let mut reached = vec![false; n];
    let mut queue = VecDeque::new();
    for &t in targets {
        if dist[t.index()] == usize::MAX {
            dist[t.index()] = 0;
            queue.push_back(t);
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()];
        if let Some(limit) = limit {
            if d >= limit {
                continue;
            }
        }
        for &p in g.in_neighbors(v) {
            // p reaches a target via a path of length d + 1 ≥ 1.
            reached[p.index()] = true;
            if dist[p.index()] == usize::MAX {
                dist[p.index()] = d + 1;
                queue.push_back(p);
            }
        }
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inc_match::IncrementalMatch;
    use crate::pattern::assert_same_answer;
    use crate::simulation::tests::simulation_by_bounded_match;
    use qpgc_graph::traversal;
    use qpgc_graph::{LabeledGraph, UpdateBatch};
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

    #[test]
    fn bound_two_allows_two_hop_paths() {
        // A -> X -> B : pattern edge A -2-> B matches, A -1-> B does not.
        let g = graph(&["A", "X", "B"], &[(0, 1), (1, 2)]);
        let mut p2 = Pattern::new();
        let a = p2.add_node("A");
        let b = p2.add_node("B");
        p2.add_edge(a, b, 2);
        assert!(bounded_match(&g, &p2).is_some());

        let mut p1 = Pattern::new();
        let a = p1.add_node("A");
        let b = p1.add_node("B");
        p1.add_edge(a, b, 1);
        assert!(bounded_match(&g, &p1).is_none());
    }

    #[test]
    fn unbounded_edge_is_reachability() {
        let g = graph(
            &["A", "X", "X", "X", "B"],
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
        );
        let mut p = Pattern::new();
        let a = p.add_node("A");
        let b = p.add_node("B");
        p.add_edge_unbounded(a, b);
        let m = bounded_match(&g, &p).unwrap();
        assert_eq!(m.matches_of(a), &[NodeId(0)]);
        assert_eq!(m.matches_of(b), &[NodeId(4)]);
    }

    #[test]
    fn non_empty_path_required_for_self_matching() {
        // Pattern A -1-> A requires an A node with an A child; a single A
        // node with no self loop must not match itself via the empty path.
        let g = graph(&["A"], &[]);
        let mut p = Pattern::new();
        let a1 = p.add_node("A");
        let a2 = p.add_node("A");
        p.add_edge(a1, a2, 1);
        assert!(bounded_match(&g, &p).is_none());

        let g_loop = graph(&["A"], &[(0, 0)]);
        assert!(bounded_match(&g_loop, &p).is_some());
    }

    /// Graph simulation is bounded simulation with every bound 1: on random
    /// graphs against the chain A -> B -> C, [`bounded_match`] gives the
    /// maximum simulation.
    #[test]
    fn bound_one_coincides_with_simulation() {
        let mut rng = StdRng::seed_from_u64(5);
        let alphabet = ["A", "B", "C"];
        for round in 0..20 {
            let n = rng.gen_range(3..15);
            let mut g = LabeledGraph::new();
            for _ in 0..n {
                g.add_node_with_label(alphabet[rng.gen_range(0..alphabet.len())]);
            }
            for _ in 0..rng.gen_range(0..n * 2) {
                let u = rng.gen_range(0..n) as u32;
                let v = rng.gen_range(0..n) as u32;
                g.add_edge(NodeId(u), NodeId(v));
            }
            let mut p = Pattern::new();
            let a = p.add_node("A");
            let b = p.add_node("B");
            let c = p.add_node("C");
            p.add_edge(a, b, 1);
            p.add_edge(b, c, 1);
            simulation_by_bounded_match(&g, &p, &format!("round {round}"));
        }
    }

    #[test]
    fn result_is_maximum_and_sound() {
        // Soundness check against the definition: every pair in the result
        // satisfies every pattern edge; maximality spot-checked by verifying
        // that label-eligible nodes excluded from the result genuinely fail.
        let g = graph(
            &["A", "A", "B", "B", "C", "C"],
            &[(0, 2), (2, 4), (1, 3), (0, 3), (3, 3)],
        );
        let mut p = Pattern::new();
        let a = p.add_node("A");
        let b = p.add_node("B");
        let c = p.add_node("C");
        p.add_edge(a, b, 1);
        p.add_edge(b, c, 2);
        let m = bounded_match(&g, &p).unwrap();
        // Soundness of the A -1-> B edge.
        for &v in m.matches_of(a) {
            assert!(g
                .out_neighbors(v)
                .iter()
                .any(|w| m.matches_of(b).contains(w)));
        }
        // Soundness of the B -2-> C edge.
        for &v in m.matches_of(b) {
            let within2 = traversal::bounded_bfs(&g, v, Some(2));
            assert!(within2.iter().any(|w| m.matches_of(c).contains(w)));
        }
        // Node 3 (B) only loops on itself and never reaches a C: must be out.
        assert!(!m.matches_of(b).contains(&NodeId(3)));
        // Node 1 (A) only points at node 3: must be out as well.
        assert!(!m.matches_of(a).contains(&NodeId(1)));
    }

    #[test]
    fn boolean_query() {
        let g = graph(&["A", "B"], &[(0, 1)]);
        let mut p = Pattern::new();
        let a = p.add_node("A");
        let b = p.add_node("B");
        p.add_edge(a, b, 1);
        assert!(bounded_match(&g, &p).is_some());
        let mut p2 = Pattern::new();
        let b2 = p2.add_node("B");
        let a2 = p2.add_node("A");
        p2.add_edge(b2, a2, 3);
        assert!(bounded_match(&g, &p2).is_none());
    }

    #[test]
    fn missing_label_means_no_match() {
        let g = graph(&["A"], &[]);
        let mut p = Pattern::new();
        p.add_node("Q");
        assert!(bounded_match(&g, &p).is_none());
    }

    #[test]
    fn empty_pattern_no_match() {
        let g = graph(&["A"], &[]);
        assert!(bounded_match(&g, &Pattern::new()).is_none());
    }

    #[test]
    fn larger_bounds_only_grow_matches() {
        let g = graph(
            &["A", "X", "X", "B", "A", "B"],
            &[(0, 1), (1, 2), (2, 3), (4, 5)],
        );
        let mut sizes = Vec::new();
        for k in 1..=4 {
            let mut p = Pattern::new();
            let a = p.add_node("A");
            let b = p.add_node("B");
            p.add_edge(a, b, k);
            let size = bounded_match(&g, &p).map_or(0, |m| m.canonical().len());
            sizes.push(size);
        }
        for w in sizes.windows(2) {
            assert!(
                w[0] <= w[1],
                "match must be monotone in the bound: {sizes:?}"
            );
        }
        assert!(sizes[3] > sizes[0]);
    }

    /// A random data graph over `A`–`C`, self loops and cycles included.
    fn random_graph(rng: &mut StdRng) -> LabeledGraph {
        let alphabet = ["A", "B", "C"];
        let n = rng.gen_range(1..40);
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node_with_label(alphabet[rng.gen_range(0..alphabet.len())]);
        }
        for _ in 0..rng.gen_range(0..n * 3) {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            g.add_edge(NodeId(u), NodeId(v));
        }
        g
    }

    /// A random pattern: bounds 1–4 and `*`, self loops and cycles, now
    /// and then a label no data graph carries (`Z`), and nodes no edge
    /// touches.
    fn random_pattern(rng: &mut StdRng) -> Pattern {
        let alphabet = ["A", "B", "C", "A", "B", "C", "Z"];
        let mut p = Pattern::new();
        let n = rng.gen_range(1..6u32);
        for _ in 0..n {
            p.add_node(alphabet[rng.gen_range(0..alphabet.len())]);
        }
        for _ in 0..rng.gen_range(0..2 * n) {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            match rng.gen_range(0..5) {
                0 => p.add_edge_unbounded(a, b),
                k => p.add_edge(a, b, k),
            };
        }
        p
    }

    /// The worklist matcher equals the round-based oracle on random graphs
    /// and patterns, on the mutable graph and on its CSR snapshot.
    #[test]
    fn worklist_equals_reference_on_random_graphs_and_patterns() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut matched = 0;
        for case in 0..400 {
            let g = random_graph(&mut rng);
            let p = random_pattern(&mut rng);
            let expected = reference_bounded_match(&g, &p);
            matched += usize::from(expected.is_some());
            let ctx = format!("case {case}");
            assert_same_answer(&expected, &bounded_match(&g, &p), &ctx);
            let csr = g.freeze();
            assert_same_answer(
                &reference_bounded_match(&csr, &p),
                &bounded_match(&csr, &p),
                &format!("{ctx} (csr)"),
            );
        }
        // Both outcomes are exercised.
        assert!((40..360).contains(&matched), "{matched} of 400 matched");
    }

    /// `IncBMatch` refines from over-approximations through mixed streams
    /// that empty and refill sets, and equals the oracle after every batch.
    #[test]
    fn incremental_match_equals_reference_through_mixed_streams() {
        let mut rng = StdRng::seed_from_u64(34);
        let (mut lost, mut regained) = (0, 0);
        for case in 0..60 {
            let mut g = random_graph(&mut rng);
            let n = g.node_count();
            let p = random_pattern(&mut rng);
            let mut inc = IncrementalMatch::new(&g, p.clone());
            for step in 0..8 {
                let before = inc.current().is_some();
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
                let got = inc.apply(&mut g, &batch);
                let ctx = format!("case {case} step {step}");
                assert_same_answer(&reference_bounded_match(&g, &p), &got, &ctx);
                match (before, got.is_some()) {
                    (true, false) => lost += 1,
                    (false, true) => regained += 1,
                    _ => {}
                }
            }
        }
        assert!(lost > 0 && regained > 0, "lost {lost}, regained {regained}");
    }
}
