//! Graph traversal and reachability-query evaluation.
//!
//! These are the algorithms the paper runs *unchanged* on both the original
//! graph `G` and the compressed graph `Gr` in Exp-2 (Fig. 12(a)):
//!
//! * [`bfs_reachable`] — plain breadth-first search (the paper's `BFS`).
//! * [`bidirectional_reachable`] — alternating forward/backward BFS
//!   (the paper's `BIBFS`).
//! * [`dfs_reachable`] — iterative depth-first search, used by tests as an
//!   independent oracle.
//! * [`bounded_bfs`] — depth-limited BFS returning every node within `k`
//!   hops, the primitive behind bounded-simulation edge checks.
//! * [`descendants`] / [`ancestors`] — full forward / backward closures of a
//!   single node.
//!
//! Every function is generic over [`GraphView`], so the same code runs on
//! the mutable `LabeledGraph` and on a frozen [`crate::CsrGraph`] snapshot.

use std::collections::VecDeque;

use crate::ids::NodeId;
use crate::view::GraphView;

/// Answers the reachability query `QR(from, to)` with a forward BFS.
///
/// Every node reaches itself (paths of length 0 are allowed, as in the
/// paper's definition of reachability).
pub fn bfs_reachable<G: GraphView>(g: &G, from: NodeId, to: NodeId) -> bool {
    if from == to {
        return true;
    }
    let mut visited = vec![false; g.node_count()];
    let mut queue = VecDeque::new();
    visited[from.index()] = true;
    queue.push_back(from);
    while let Some(u) = queue.pop_front() {
        for &v in g.out_neighbors(u) {
            if v == to {
                return true;
            }
            if !visited[v.index()] {
                visited[v.index()] = true;
                queue.push_back(v);
            }
        }
    }
    false
}

/// Answers `QR(from, to)` with a bidirectional BFS that alternately expands
/// the smaller of the two frontiers (the paper's `BIBFS`).
pub fn bidirectional_reachable<G: GraphView>(g: &G, from: NodeId, to: NodeId) -> bool {
    if from == to {
        return true;
    }
    let n = g.node_count();
    // 0 = unvisited, 1 = reached forward, 2 = reached backward.
    let mut mark = vec![0u8; n];
    let mut fwd = VecDeque::new();
    let mut bwd = VecDeque::new();
    mark[from.index()] = 1;
    mark[to.index()] = 2;
    fwd.push_back(from);
    bwd.push_back(to);

    while !fwd.is_empty() && !bwd.is_empty() {
        if fwd.len() <= bwd.len() {
            // Expand one forward level.
            for _ in 0..fwd.len() {
                let u = fwd.pop_front().expect("frontier non-empty");
                for &v in g.out_neighbors(u) {
                    match mark[v.index()] {
                        2 => return true,
                        0 => {
                            mark[v.index()] = 1;
                            fwd.push_back(v);
                        }
                        _ => {}
                    }
                }
            }
        } else {
            for _ in 0..bwd.len() {
                let u = bwd.pop_front().expect("frontier non-empty");
                for &v in g.in_neighbors(u) {
                    match mark[v.index()] {
                        1 => return true,
                        0 => {
                            mark[v.index()] = 2;
                            bwd.push_back(v);
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    false
}

/// Answers `QR(from, to)` with an iterative DFS. Used as an independent
/// oracle in tests (a deliberately different traversal order from BFS).
// qpgc-lint: allow(dead-surface) -- oracle of traversal::tests::bfs_and_dfs_and_bibfs_agree
pub fn dfs_reachable<G: GraphView>(g: &G, from: NodeId, to: NodeId) -> bool {
    if from == to {
        return true;
    }
    let mut visited = vec![false; g.node_count()];
    let mut stack = vec![from];
    visited[from.index()] = true;
    while let Some(u) = stack.pop() {
        for &v in g.out_neighbors(u) {
            if v == to {
                return true;
            }
            if !visited[v.index()] {
                visited[v.index()] = true;
                stack.push(v);
            }
        }
    }
    false
}

/// Returns every node reachable from `start` within at most `k` edges,
/// excluding `start` itself unless it lies on a cycle of length ≤ `k`.
///
/// `None` for `k` means "unbounded" (the `*` edge bound of graph pattern
/// queries) and degenerates to a full forward closure minus the trivial
/// empty path.
pub fn bounded_bfs<G: GraphView>(g: &G, start: NodeId, k: Option<usize>) -> Vec<NodeId> {
    let mut dist = vec![usize::MAX; g.node_count()];
    let mut queue = VecDeque::new();
    let mut result = Vec::new();
    dist[start.index()] = 0;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        let d = dist[u.index()];
        if let Some(k) = k {
            if d >= k {
                continue;
            }
        }
        for &v in g.out_neighbors(u) {
            if dist[v.index()] == usize::MAX {
                dist[v.index()] = d + 1;
                result.push(v);
                queue.push_back(v);
            } else if v == start && d + 1 >= 1 && !result.contains(&start) {
                // `start` is reachable from itself via a non-empty path.
                result.push(start);
            }
        }
    }
    result
}

/// Full forward closure of `start` (the paper's descendant set), excluding
/// `start` unless it lies on a cycle.
// qpgc-lint: allow(dead-surface) -- oracle of transitive::tests::counts_from_the_reduction_sweep_match_bfs_cones
pub fn descendants<G: GraphView>(g: &G, start: NodeId) -> Vec<NodeId> {
    bounded_bfs(g, start, None)
}

/// Full backward closure of `start` (the paper's ancestor set), excluding
/// `start` unless it lies on a cycle.
pub fn ancestors<G: GraphView>(g: &G, start: NodeId) -> Vec<NodeId> {
    let mut dist = vec![false; g.node_count()];
    let mut queue = VecDeque::new();
    let mut result = Vec::new();
    dist[start.index()] = true;
    queue.push_back(start);
    let mut start_on_cycle = false;
    while let Some(u) = queue.pop_front() {
        for &v in g.in_neighbors(u) {
            if v == start {
                start_on_cycle = true;
            }
            if !dist[v.index()] {
                dist[v.index()] = true;
                result.push(v);
                queue.push_back(v);
            }
        }
    }
    if start_on_cycle && !result.contains(&start) {
        result.push(start);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LabeledGraph;

    /// a -> b -> c -> d,  e isolated, f -> f (self loop), d -> b (cycle b,c,d)
    fn sample() -> (LabeledGraph, Vec<NodeId>) {
        let mut g = LabeledGraph::new();
        let ids: Vec<_> = (0..6).map(|_| g.add_node_with_label("X")).collect();
        g.add_edge(ids[0], ids[1]);
        g.add_edge(ids[1], ids[2]);
        g.add_edge(ids[2], ids[3]);
        g.add_edge(ids[3], ids[1]);
        g.add_edge(ids[5], ids[5]);
        (g, ids)
    }

    #[test]
    fn bfs_and_dfs_and_bibfs_agree() {
        let (g, n) = sample();
        for &u in &n {
            for &v in &n {
                let b = bfs_reachable(&g, u, v);
                assert_eq!(b, dfs_reachable(&g, u, v), "dfs mismatch {u}->{v}");
                assert_eq!(
                    b,
                    bidirectional_reachable(&g, u, v),
                    "bibfs mismatch {u}->{v}"
                );
            }
        }
    }

    #[test]
    fn reachability_facts() {
        let (g, n) = sample();
        assert!(bfs_reachable(&g, n[0], n[3]));
        assert!(!bfs_reachable(&g, n[3], n[0]));
        assert!(bfs_reachable(&g, n[1], n[1])); // trivial self-reachability
        assert!(!bfs_reachable(&g, n[0], n[4])); // isolated node
        assert!(bfs_reachable(&g, n[5], n[5]));
    }

    #[test]
    fn bounded_bfs_respects_bound() {
        let (g, n) = sample();
        let within1 = bounded_bfs(&g, n[0], Some(1));
        assert_eq!(within1, vec![n[1]]);
        let within2 = bounded_bfs(&g, n[0], Some(2));
        assert_eq!(within2, vec![n[1], n[2]]);
        let all = bounded_bfs(&g, n[0], None);
        assert_eq!(all.len(), 3);
        assert!(all.contains(&n[3]));
    }

    #[test]
    fn bounded_bfs_detects_cycles_back_to_start() {
        let (g, n) = sample();
        // b -> c -> d -> b : b reaches itself via a non-empty path.
        let from_b = bounded_bfs(&g, n[1], None);
        assert!(from_b.contains(&n[1]));
        // Self loop.
        let from_f = bounded_bfs(&g, n[5], Some(1));
        assert_eq!(from_f, vec![n[5]]);
    }

    #[test]
    fn descendants_and_ancestors() {
        let (g, n) = sample();
        let d = descendants(&g, n[0]);
        assert_eq!(d.len(), 3);
        let mut a = ancestors(&g, n[3]);
        a.sort();
        // ancestors of d: a, b, c, d (d is on the cycle b->c->d->b)
        assert_eq!(a, vec![n[0], n[1], n[2], n[3]]);
        let a_iso = ancestors(&g, n[4]);
        assert!(a_iso.is_empty());
        let a_self = ancestors(&g, n[5]);
        assert_eq!(a_self, vec![n[5]]);
    }

    #[test]
    fn empty_and_singleton() {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        assert!(bfs_reachable(&g, a, a));
        assert!(bounded_bfs(&g, a, Some(3)).is_empty());
        assert!(descendants(&g, a).is_empty());
        assert!(ancestors(&g, a).is_empty());
    }
}
