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
//! Every set of the refinement is a **bit row** over `g`'s nodes (bit `v`
//! of word `v / 64`). The refinement is a worklist over pattern edges,
//! queued **sinks first**: by their target's DFS post-order over the
//! pattern's edges. Popping `(u, u', k)` runs one reverse bounded search
//! from `sim(u')`, level by level on rows: the in-neighbours of the
//! frontier are set into `next` with no branch per edge, then, on the words
//! they set alone, `hit |= next` and the next frontier is `next` less the
//! nodes seen; a level visits only those words and the frontier's. Then
//! `sim(u) &= hit`.
//! Only a shrink of `sim(u)` can invalidate an edge checked earlier, and
//! only an edge whose *target* is `u`, so exactly those edges are queued
//! again, the one first in the order popped first. On an acyclic pattern
//! every edge out of an edge's target comes before it, so the target's set
//! is final when the edge is checked, nothing is queued again and a query
//! runs at most `|Ep|` reverse passes. A cycle costs up to `Σ shrinks ×
//! (pattern in-degree of the shrunk node)` more. Every row a query needs
//! is allocated once per query.
//! [`reference_bounded_match`] keeps the round-based loop that reruns every
//! edge until a round changes nothing; the two are tested equal.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use qpgc_graph::id_set::ones;
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
    if sim.iter().any(|row| is_empty(row)) {
        return None;
    }
    // Sets only shrink, so the first one to empty decides the answer.
    refine_to_fixpoint(g, pattern, &mut sim, true)?;
    Some(MatchRelation {
        matches: sim.iter().map(|row| row_ids(row)).collect(),
    })
}

/// The nodes of a bit row, ascending.
pub(crate) fn row_ids(row: &[u64]) -> Vec<NodeId> {
    ones(row, 0).map(NodeId).collect()
}

/// Whether a bit row holds no node.
pub(crate) fn is_empty(row: &[u64]) -> bool {
    row.iter().all(|&w| w == 0)
}

/// The label candidates of every pattern node, each a bit row over `g`'s
/// nodes, possibly empty. One scan of `g`'s labels, 64 nodes at a time,
/// fills the row of the first pattern node carrying each label: every such
/// label is compared at every node, so no branch depends on a node's
/// label. Later pattern nodes with that label copy its words.
pub(crate) fn label_candidates<G: GraphView>(g: &G, pattern: &Pattern) -> Vec<Vec<u64>> {
    let labels = resolve_labels(pattern, g);
    let first = |l: Label| labels.iter().position(|&m| m == Some(l));
    let rows: Vec<(Label, usize)> = (labels.iter().enumerate())
        .filter_map(|(u, &l)| l.filter(|&l| first(l) == Some(u)).map(|l| (l, u)))
        .collect();
    let n = g.node_count();
    let mut sim = vec![vec![0u64; n.div_ceil(64)]; labels.len()];
    let mut chunk = [Label(0); 64];
    for (w, at) in (0..n).step_by(64).enumerate() {
        let chunk = &mut chunk[..(n - at).min(64)];
        for (i, label) in chunk.iter_mut().enumerate() {
            *label = g.label(NodeId((at + i) as u32));
        }
        for &(l, u) in &rows {
            sim[u][w] =
                (chunk.iter().enumerate()).fold(0, |bits, (i, &m)| bits | u64::from(m == l) << i);
        }
    }
    for (u, &l) in labels.iter().enumerate() {
        if let Some(f) = l.and_then(first).filter(|&f| f != u) {
            sim[u] = sim[f].clone();
        }
    }
    sim
}

/// Refines `sim` in place to the greatest fixpoint with the worklist of the
/// module doc and returns how many reverse passes it ran. `sim` must be a
/// superset of the maximum match (the label candidates, or a previous
/// result that can only have shrunk), one row per pattern node over `g`'s
/// nodes. With `stop_on_empty` it returns `None` as soon as a set empties,
/// leaving `sim` part-refined. Without, empty sets propagate and it always
/// returns the count: the incremental algorithm (`IncBMatch`) keeps
/// per-node sets while the pattern does not match.
pub(crate) fn refine_to_fixpoint<G: GraphView>(
    g: &G,
    pattern: &Pattern,
    sim: &mut [Vec<u64>],
    stop_on_empty: bool,
) -> Option<usize> {
    let edges = pattern.edges();
    let post = post_order(pattern);
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by_key(|&i| post[edges[i].1 as usize]);
    // Per pattern node, the positions in `order` of the edges into it.
    let mut into: Vec<Vec<usize>> = vec![Vec::new(); pattern.node_count()];
    for (at, &i) in order.iter().enumerate() {
        into[edges[i].1 as usize].push(at);
    }
    let mut queued = vec![true; order.len()];
    let mut work: BinaryHeap<Reverse<usize>> = (0..order.len()).map(Reverse).collect();
    let mut search = ReverseSearch::default();
    let mut passes = 0;
    while let Some(Reverse(at)) = work.pop() {
        queued[at] = false;
        let (u, target, bound) = edges[order[at]];
        let u = u as usize;
        if is_empty(&sim[u]) {
            continue;
        }
        passes += 1;
        let hit = search.run(g, &sim[target as usize], bound);
        let mut lost = 0;
        for (w, &h) in sim[u].iter_mut().zip(hit) {
            lost |= *w & !h;
            *w &= h;
        }
        if lost == 0 {
            continue;
        }
        if stop_on_empty && is_empty(&sim[u]) {
            return None;
        }
        for &j in &into[u] {
            if !queued[j] {
                queued[j] = true;
                work.push(Reverse(j));
            }
        }
    }
    Some(passes)
}

/// The pattern's nodes numbered in DFS post-order over its edges, roots in
/// id order: on an acyclic pattern every node after all of its successors.
fn post_order(pattern: &Pattern) -> Vec<usize> {
    let n = pattern.node_count();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(u, t, _) in pattern.edges() {
        succ[u as usize].push(t as usize);
    }
    let (mut post, mut next, mut stack) = (vec![usize::MAX; n], 0, Vec::new());
    let mut visited = vec![false; n];
    for root in 0..n {
        if !std::mem::replace(&mut visited[root], true) {
            stack.push((root, 0));
        }
        while let Some((u, i)) = stack.last_mut() {
            let (u, t) = (*u, succ[*u].get(*i).copied());
            *i += 1;
            match t {
                Some(t) if !std::mem::replace(&mut visited[t], true) => stack.push((t, 0)),
                Some(_) => {}
                None => {
                    (post[u], next) = (next, next + 1);
                    stack.pop();
                }
            }
        }
    }
    post
}

/// A multi-source reverse bounded search on bit rows, its buffers reused
/// by every search.
#[derive(Default)]
pub(crate) struct ReverseSearch {
    /// The nodes of the current level, non-zero only in the words `live`
    /// lists; a level clears each word it expands.
    frontier: Vec<u64>,
    live: Vec<usize>,
    /// The in-neighbours of the frontier; all zero between levels.
    next: Vec<u64>,
    /// The words of `next` the level set, each once, and a spare slot.
    touched: Vec<usize>,
    hit: Vec<u64>,
}

impl ReverseSearch {
    /// The row of every node with a non-empty path of length ≤ `bound`
    /// (any length for `*`) to some node of the row `targets`, one level
    /// per hop; only a node neither a target nor hit before joins the next
    /// frontier. A level visits only the frontier's words and those its
    /// in-neighbours set: `O(n / 64 + V + E)` a search, however deep.
    pub(crate) fn run<G: GraphView>(&mut self, g: &G, targets: &[u64], bound: EdgeBound) -> &[u64] {
        let words = targets.len();
        targets.clone_into(&mut self.frontier);
        self.live.clear();
        self.live.extend(0..words);
        self.next.resize(words, 0);
        self.touched.resize(words + 1, 0);
        self.hit.clear();
        self.hit.resize(words, 0);
        let (mut live, mut hops) = (words, 0);
        while live != 0 && bound.hop_limit().is_none_or(|k| hops < k) {
            let mut len = 0;
            for &w in &self.live[..live] {
                let mut bits = std::mem::take(&mut self.frontier[w]);
                while bits != 0 {
                    let v = NodeId((w * 64) as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                    for &p in g.in_neighbors(v) {
                        // p reaches a target via a path of length hops + 1 ≥ 1.
                        let pw = p.index() / 64;
                        self.touched[len] = pw;
                        len += usize::from(self.next[pw] == 0);
                        self.next[pw] |= 1 << (p.index() % 64);
                    }
                }
            }
            #[cfg(test)]
            tests::WORDS_SCANNED.with(|c| c.set(c.get() + len));
            live = 0;
            for &w in &self.touched[..len] {
                let next = std::mem::take(&mut self.next[w]);
                self.frontier[w] = next & !(targets[w] | self.hit[w]);
                self.hit[w] |= next;
                self.live[live] = w;
                live += usize::from(self.frontier[w] != 0);
            }
            hops += 1;
        }
        &self.hit
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
pub(crate) mod tests {
    use super::*;
    use crate::inc_match::IncrementalMatch;
    use crate::pattern::assert_same_answer;
    use crate::simulation::tests::simulation_by_bounded_match;
    use qpgc_graph::traversal;
    use qpgc_graph::{LabeledGraph, UpdateBatch};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    thread_local! {
        /// How many row words the levels of this thread's searches have
        /// scanned: the cost tests bound it.
        pub(crate) static WORDS_SCANNED: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
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

    /// A chain `A → X → … → X → B` of `n` nodes and the pattern `A -*-> B`.
    pub(crate) fn chain_and_unbounded_pattern(n: usize) -> (LabeledGraph, Pattern) {
        let mut labels = vec!["X"; n];
        (labels[0], labels[n - 1]) = ("A", "B");
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
        let mut p = Pattern::new();
        let (a, b) = (p.add_node("A"), p.add_node("B"));
        p.add_edge_unbounded(a, b);
        (graph(&labels, &edges), p)
    }

    /// A `*` edge on a chain of 8 192 nodes: its one reverse search runs a
    /// level per node, and a level scans the one word its frontier's
    /// in-neighbour sets, not the 128-word row (about three million words).
    #[test]
    fn an_unbounded_search_on_a_long_chain_scans_words_linear_in_the_chain() {
        let n = 64 * 128;
        let (g, p) = chain_and_unbounded_pattern(n);
        WORDS_SCANNED.with(|c| c.set(0));
        let m = bounded_match(&g, &p).unwrap();
        let scanned = WORDS_SCANNED.with(|c| c.get());
        assert_eq!(m.matches, vec![vec![NodeId(0)], vec![NodeId(n as u32 - 1)]]);
        assert!(scanned < n, "{scanned} words for {n} nodes");
    }

    /// A random data graph of `n` nodes over `A`–`C`, self loops and
    /// cycles included.
    fn random_graph(rng: &mut StdRng, n: usize) -> LabeledGraph {
        let alphabet = ["A", "B", "C"];
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

    /// The node count of case `case`: every eighth case sits on a word
    /// boundary of the bit rows (63, 64, 65, 128, 129 in turn), odd cases
    /// draw below 40, where a pattern's answer flips most often, the
    /// others up to 200.
    fn node_count(rng: &mut StdRng, case: usize) -> usize {
        const EDGES: [usize; 5] = [63, 64, 65, 128, 129];
        match case % 8 {
            0 => EDGES[case / 8 % EDGES.len()],
            c if c % 2 == 1 => rng.gen_range(1..40),
            _ => rng.gen_range(1..200),
        }
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
    /// of up to 200 nodes (rows of one to four words, boundaries forced)
    /// and patterns with `*` bounds, on the mutable graph and on its CSR
    /// snapshot.
    #[test]
    fn worklist_equals_reference_on_random_graphs_and_patterns() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut matched = 0;
        for case in 0..400 {
            let n = node_count(&mut rng, case);
            let g = random_graph(&mut rng, n);
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
    /// that empty and refill sets, and equals the oracle after every batch,
    /// on graphs of up to 200 nodes with word boundaries forced.
    #[test]
    fn incremental_match_equals_reference_through_mixed_streams() {
        let mut rng = StdRng::seed_from_u64(34);
        let (mut lost, mut regained) = (0, 0);
        for case in 0..160 {
            let n = node_count(&mut rng, case);
            let mut g = random_graph(&mut rng, n);
            let p = random_pattern(&mut rng);
            let mut inc = IncrementalMatch::new(&g, p.clone());
            for step in 0..8 {
                let before = inc.current().is_some();
                let mut batch = UpdateBatch::new();
                for _ in 0..rng.gen_range(1..6) {
                    let u = NodeId(rng.gen_range(0..n) as u32);
                    let out = g.out_neighbors(u);
                    // A quarter of the updates at a node with out-edges
                    // delete one of them, however sparse `g`.
                    if !out.is_empty() && rng.gen_bool(0.25) {
                        batch.delete(u, out[rng.gen_range(0..out.len())]);
                        continue;
                    }
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

    /// A pattern shaped as the workload generator
    /// (`qpgc_generators::random_pattern`) draws one: a tree backbone in
    /// which each node hangs below a parent of smaller id, so the edges
    /// come parent before child, then extra edges between distinct nodes.
    fn generator_pattern(rng: &mut StdRng, nodes: u32, edges: usize, max_bound: u32) -> Pattern {
        let alphabet = ["A", "B", "C"];
        let mut p = Pattern::new();
        for _ in 0..nodes {
            p.add_node(alphabet[rng.gen_range(0..alphabet.len())]);
        }
        for v in 1..nodes {
            p.add_edge(rng.gen_range(0..v), v, rng.gen_range(1..=max_bound));
        }
        while p.edge_count() < edges {
            let (a, b) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
            if a != b {
                p.add_edge(a, b, rng.gen_range(1..=max_bound));
            }
        }
        p
    }

    /// Whether the pattern has no cycle: repeatedly drop the nodes no edge
    /// of the rest enters.
    fn is_acyclic(p: &Pattern) -> bool {
        let mut alive = vec![true; p.node_count()];
        loop {
            let mut entered = vec![false; p.node_count()];
            for &(u, t, _) in p.edges() {
                entered[t as usize] |= alive[u as usize];
            }
            let sources: Vec<usize> = (0..alive.len())
                .filter(|&u| alive[u] && !entered[u])
                .collect();
            if sources.is_empty() {
                return !alive.contains(&true);
            }
            sources.into_iter().for_each(|u| alive[u] = false);
        }
    }

    /// The sink-first order's pass bound: on every acyclic generated pattern
    /// the refinement runs at most one reverse pass per pattern edge, from
    /// the label candidates and with sets that empty, on graphs up to 200
    /// nodes; and it answers like the oracle.
    #[test]
    fn an_acyclic_pattern_runs_at_most_one_pass_per_edge() {
        let mut rng = StdRng::seed_from_u64(35);
        let (mut acyclic, mut refined) = (0, 0);
        for case in 0..400 {
            let n = node_count(&mut rng, case);
            let g = random_graph(&mut rng, n);
            let shape = [(4, 5, 3), (5, 6, 2), (6, 8, 3)][case % 3];
            let p = generator_pattern(&mut rng, shape.0, shape.1, shape.2);
            if !is_acyclic(&p) {
                continue;
            }
            acyclic += 1;
            let mut sim = label_candidates(&g, &p);
            let passes = refine_to_fixpoint(&g, &p, &mut sim, false).unwrap();
            assert!(
                passes <= p.edge_count(),
                "case {case}: {passes} passes for {} edges",
                p.edge_count()
            );
            refined += usize::from(sim.iter().any(|row| !is_empty(row)));
            assert_same_answer(
                &reference_bounded_match(&g, &p),
                &bounded_match(&g, &p),
                &format!("case {case}"),
            );
        }
        assert!(
            acyclic >= 100 && refined >= 50,
            "{acyclic} acyclic, {refined} refined"
        );
    }
}
