//! Bounded simulation `Match` (Fan et al., PVLDB 2010) — the pattern
//! matching semantics of the paper's graph pattern queries.
//!
//! A data graph matches a pattern `Qp` if there is a relation `S ⊆ Vp × V`
//! such that every pattern node has a match, matched nodes agree on labels,
//! and every pattern edge `(u, u')` with bound `k` (or `*`) is witnessed by
//! a non-empty path of length ≤ `k` (or any length) from the matching data
//! node to some data node matching `u'`. There is a unique maximum such
//! relation (Lemma 1); it is computed by a refinement loop whose edge checks
//! use reverse bounded BFS from the current candidate set of the edge
//! target.

use std::collections::VecDeque;

use qpgc_graph::{GraphView, NodeId};

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
    bounded_match_from(g, pattern, initial_candidates(g, pattern)?)
}

/// Builds the initial (label-based) candidate sets; `None` if some pattern
/// node has no candidate at all.
pub(crate) fn initial_candidates<G: GraphView>(
    g: &G,
    pattern: &Pattern,
) -> Option<Vec<Vec<NodeId>>> {
    if pattern.node_count() == 0 {
        return None;
    }
    let labels = resolve_labels(pattern, g);
    let by_label = g.nodes_by_label();
    let mut sim = Vec::with_capacity(pattern.node_count());
    for u in pattern.nodes() {
        let cands = match labels[u as usize] {
            Some(l) => by_label.get(&l).cloned().unwrap_or_default(),
            None => Vec::new(),
        };
        if cands.is_empty() {
            return None;
        }
        sim.push(cands);
    }
    Some(sim)
}

/// Builds the initial label-based candidate sets, allowing empty sets (used
/// by the incremental algorithm, which tracks per-node fixpoints even when
/// the overall pattern does not match).
pub(crate) fn initial_candidates_allow_empty<G: GraphView>(
    g: &G,
    pattern: &Pattern,
) -> Vec<Vec<NodeId>> {
    let labels = resolve_labels(pattern, g);
    let by_label = g.nodes_by_label();
    pattern
        .nodes()
        .map(|u| match labels[u as usize] {
            Some(l) => by_label.get(&l).cloned().unwrap_or_default(),
            None => Vec::new(),
        })
        .collect()
}

/// Runs the refinement to the greatest fixpoint starting from `sim`, which
/// must be a superset of the maximum match (e.g. the label candidates, or a
/// previous result that can only have shrunk). Empty candidate sets are
/// allowed and simply propagate. Exposed for the incremental algorithm
/// (`IncBMatch`).
pub(crate) fn refine_to_fixpoint<G: GraphView>(
    g: &G,
    pattern: &Pattern,
    mut sim: Vec<Vec<NodeId>>,
) -> Vec<Vec<NodeId>> {
    let mut changed = true;
    while changed {
        changed = false;
        for &(u, u2, bound) in pattern.edges() {
            let (u, u2) = (u as usize, u2 as usize);
            // Nodes that can reach some member of sim(u2) via a non-empty
            // path of length ≤ bound: reverse bounded BFS from sim(u2).
            let can_reach = reverse_reach_within(g, &sim[u2], bound);
            let before = sim[u].len();
            sim[u].retain(|v| can_reach[v.index()]);
            if sim[u].len() != before {
                changed = true;
            }
        }
    }
    for s in &mut sim {
        s.sort_unstable();
    }
    sim
}

/// Runs the refinement from `sim` and packages the result as a match
/// relation (`None` if some pattern node ends up with no match).
pub(crate) fn bounded_match_from<G: GraphView>(
    g: &G,
    pattern: &Pattern,
    sim: Vec<Vec<NodeId>>,
) -> Option<MatchRelation> {
    if pattern.node_count() == 0 {
        return None;
    }
    let sim = refine_to_fixpoint(g, pattern, sim);
    if sim.iter().any(|s| s.is_empty()) {
        return None;
    }
    let mut result = MatchRelation::empty(pattern.node_count());
    for (u, s) in sim.into_iter().enumerate() {
        result.matches[u] = s;
    }
    Some(result)
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
    use crate::simulation::tests::simulation_by_bounded_match;
    use qpgc_graph::traversal;
    use qpgc_graph::LabeledGraph;
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
}
