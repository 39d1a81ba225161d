//! Graph simulation (Henzinger, Henzinger & Kopke, FOCS 1995) as the
//! bound-1 case of bounded simulation.
//!
//! The crate ships no separate simulation matcher: every edge bound of 1
//! makes [`bounded_match`] compute the maximum simulation. This test-only
//! module holds the fixpoint oracle of that simulation and the cases a
//! simulation matcher has to get right, each run against [`bounded_match`]
//! on the mutable graph and on its frozen CSR snapshot.

#[cfg(test)]
pub(crate) mod tests {
    use qpgc_graph::{LabeledGraph, NodeId};

    use crate::bounded::bounded_match;
    use crate::pattern::{assert_same_answer, resolve_labels, MatchRelation, Pattern};

    /// The maximum graph simulation by fixpoint re-scans over forward
    /// adjacency: every pattern edge is matched by a single data edge, whatever
    /// its declared bound.
    fn reference_simulation_match(g: &LabeledGraph, pattern: &Pattern) -> Option<MatchRelation> {
        if pattern.node_count() == 0 {
            return None;
        }
        let labels = resolve_labels(pattern, g);
        // Candidate sets: nodes with the right label.
        let mut sim: Vec<Vec<NodeId>> = Vec::with_capacity(pattern.node_count());
        for u in pattern.nodes() {
            let want = labels[u as usize];
            let cands: Vec<NodeId> = g.nodes().filter(|&v| want == Some(g.label(v))).collect();
            if cands.is_empty() {
                return None;
            }
            sim.push(cands);
        }

        // Membership bitmaps for O(1) "is v in sim(u')" checks.
        let mut member: Vec<Vec<bool>> = sim
            .iter()
            .map(|s| {
                let mut m = vec![false; g.node_count()];
                for &v in s {
                    m[v.index()] = true;
                }
                m
            })
            .collect();

        let mut changed = true;
        while changed {
            changed = false;
            for &(u, u2, _) in pattern.edges() {
                // v stays in sim(u) only if some child of v is in sim(u2).
                let (u, u2) = (u as usize, u2 as usize);
                let mut retained: Vec<NodeId> = Vec::with_capacity(sim[u].len());
                for &v in &sim[u] {
                    let ok = g.out_neighbors(v).iter().any(|&w| member[u2][w.index()]);
                    if ok {
                        retained.push(v);
                    } else {
                        member[u][v.index()] = false;
                        changed = true;
                    }
                }
                if retained.is_empty() {
                    return None;
                }
                sim[u] = retained;
            }
        }

        for s in &mut sim {
            s.sort_unstable();
        }
        Some(MatchRelation { matches: sim })
    }

    /// [`bounded_match`] on `g` and on its CSR snapshot, each checked against
    /// [`reference_simulation_match`]. `pattern` must have every bound 1.
    pub(crate) fn simulation_by_bounded_match(
        g: &LabeledGraph,
        pattern: &Pattern,
        ctx: &str,
    ) -> Option<MatchRelation> {
        let expected = reference_simulation_match(g, pattern);
        let got = bounded_match(g, pattern);
        assert_same_answer(&expected, &got, ctx);
        assert_same_answer(
            &expected,
            &bounded_match(&g.freeze(), pattern),
            &format!("{ctx} (csr)"),
        );
        got
    }

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
    fn single_edge_pattern() {
        let g = graph(&["A", "B", "B", "A"], &[(0, 1), (3, 2), (1, 2)]);
        let mut p = Pattern::new();
        let a = p.add_node("A");
        let b = p.add_node("B");
        p.add_edge(a, b, 1);
        let m = simulation_by_bounded_match(&g, &p, "single edge").unwrap();
        assert_eq!(m.matches_of(a), &[NodeId(0), NodeId(3)]);
        assert_eq!(m.matches_of(b), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn refinement_propagates_upward() {
        // A -> B -> C pattern. Data: A1 -> B1 -> C, A2 -> B2 (B2 has no C
        // child), so A2 and B2 must be eliminated.
        let g = graph(&["A", "B", "C", "A", "B"], &[(0, 1), (1, 2), (3, 4)]);
        let mut p = Pattern::new();
        let a = p.add_node("A");
        let b = p.add_node("B");
        let c = p.add_node("C");
        p.add_edge(a, b, 1);
        p.add_edge(b, c, 1);
        let m = simulation_by_bounded_match(&g, &p, "upward").unwrap();
        assert_eq!(m.matches_of(a), &[NodeId(0)]);
        assert_eq!(m.matches_of(b), &[NodeId(1)]);
        assert_eq!(m.matches_of(c), &[NodeId(2)]);
    }

    #[test]
    fn no_match_when_label_missing() {
        let g = graph(&["A", "B"], &[(0, 1)]);
        let mut p = Pattern::new();
        p.add_node("Z");
        assert!(simulation_by_bounded_match(&g, &p, "missing label").is_none());
    }

    #[test]
    fn no_match_when_edge_unsatisfiable() {
        let g = graph(&["A", "B"], &[]);
        let mut p = Pattern::new();
        let a = p.add_node("A");
        let b = p.add_node("B");
        p.add_edge(a, b, 1);
        assert!(simulation_by_bounded_match(&g, &p, "unsatisfiable edge").is_none());
    }

    #[test]
    fn cyclic_pattern_on_cyclic_data() {
        let g = graph(&["A", "B", "A", "B"], &[(0, 1), (1, 0), (2, 3)]);
        let mut p = Pattern::new();
        let a = p.add_node("A");
        let b = p.add_node("B");
        p.add_edge(a, b, 1);
        p.add_edge(b, a, 1);
        let m = simulation_by_bounded_match(&g, &p, "cyclic").unwrap();
        // Only the 2-cycle participates; node 2 (A) and 3 (B) have no way back.
        assert_eq!(m.matches_of(a), &[NodeId(0)]);
        assert_eq!(m.matches_of(b), &[NodeId(1)]);
    }

    #[test]
    fn empty_pattern_is_no_match() {
        let g = graph(&["A"], &[]);
        assert!(simulation_by_bounded_match(&g, &Pattern::new(), "empty pattern").is_none());
    }

    #[test]
    fn isolated_pattern_node_matches_by_label_only() {
        let g = graph(&["A", "A", "B"], &[(0, 2)]);
        let mut p = Pattern::new();
        let a = p.add_node("A");
        let m = simulation_by_bounded_match(&g, &p, "isolated node").unwrap();
        assert_eq!(m.matches_of(a), &[NodeId(0), NodeId(1)]);
    }

    #[test]
    fn maximality_contains_every_valid_simulation() {
        // The result must be the *maximum* match: every node that can match
        // does match. Star data graph: hub A with three B children, each B
        // with its own C child except one.
        let g = graph(
            &["A", "B", "B", "B", "C", "C"],
            &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)],
        );
        let mut p = Pattern::new();
        let a = p.add_node("A");
        let b = p.add_node("B");
        let c = p.add_node("C");
        p.add_edge(a, b, 1);
        p.add_edge(b, c, 1);
        let m = simulation_by_bounded_match(&g, &p, "maximality").unwrap();
        assert_eq!(m.matches_of(b), &[NodeId(1), NodeId(2)]);
        assert_eq!(m.matches_of(c), &[NodeId(4), NodeId(5)]);
    }

    /// The random graphs and pattern shapes (self loops and cycles
    /// included) that once checked a counter-pruning simulation matcher
    /// now check [`bounded_match`] at bound 1, on both graph forms.
    #[test]
    fn counter_pruning_matches_reference_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let alphabet = ["A", "B", "C"];
        let mut rng = StdRng::seed_from_u64(19);
        for round in 0..40 {
            let n = rng.gen_range(2..30);
            let mut g = LabeledGraph::new();
            for _ in 0..n {
                g.add_node_with_label(alphabet[rng.gen_range(0..alphabet.len())]);
            }
            let m = rng.gen_range(0..n * 3);
            for _ in 0..m {
                let u = rng.gen_range(0..n) as u32;
                let v = rng.gen_range(0..n) as u32;
                g.add_edge(NodeId(u), NodeId(v));
            }
            let mut p = Pattern::new();
            let pn = rng.gen_range(1..4usize);
            for i in 0..pn {
                p.add_node(alphabet[(round + i) % alphabet.len()]);
            }
            for _ in 0..rng.gen_range(0..4usize) {
                let a = rng.gen_range(0..pn) as u32;
                let b = rng.gen_range(0..pn) as u32;
                p.add_edge(a, b, 1);
            }
            simulation_by_bounded_match(&g, &p, &format!("round {round}"));
        }
    }
}
