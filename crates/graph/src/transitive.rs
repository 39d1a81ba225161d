//! The unique transitive reduction of a DAG.
//!
//! `compressR` (Section 3.2, lines 6–8 of Fig. 5) avoids inserting edges
//! between equivalence classes that are already implied by other edges; on
//! the quotient DAG this is exactly the transitive reduction, which for DAGs
//! is unique (Aho, Garey & Ullman 1972). The same routine, applied to the
//! SCC condensation, is the core of the paper's `AHO` baseline.

use std::ops::Range;

use crate::bitset::BitMatrix;
use crate::error::Result;
use crate::ids::NodeId;
use crate::reach_sets::{DagReach, DEFAULT_CHUNK};
use crate::view::GraphView;

/// Computes the unique transitive reduction of a DAG, returned as the list
/// of retained edges.
///
/// An edge `(u, v)` is removed iff there is another path from `u` to `v` of
/// length ≥ 2. The computation sweeps descendant bit sets in chunks so the
/// memory stays `O(n · chunk / 8)`.
///
/// Returns an error if the input is not acyclic.
pub fn transitive_reduction<G: GraphView>(g: &G) -> Result<Vec<(NodeId, NodeId)>> {
    transitive_reduction_with_chunk(g, DEFAULT_CHUNK)
}

/// [`transitive_reduction`] with an explicit chunk width (exposed for tests
/// and for the ablation benchmark).
pub fn transitive_reduction_with_chunk<G: GraphView>(
    g: &G,
    chunk: usize,
) -> Result<Vec<(NodeId, NodeId)>> {
    let dag = DagReach::from_dag_graph(g)?;
    Ok(transitive_reduction_dag(&dag, chunk, |_, _| {}))
}

/// Transitive reduction directly on an already-built [`DagReach`] — the
/// entry point `compressR` uses to reduce its quotient edge list without
/// materializing an intermediate `LabeledGraph` first.
///
/// The reduction sweeps every descendant row of the DAG once, and hands
/// each column chunk's rows to `sink` when it is done with them: a caller
/// that wants more of the closure than the kept edges — the 2-hop labels
/// and landmark order of a snapshot publication — keeps the matrix (for
/// `qpgc_reach`'s `TwoHopIndex::from_closure`) or folds it into
/// [`ReachCounts::absorb`](crate::reach_sets::ReachCounts::absorb) instead
/// of paying for a sweep of its own; everyone else passes `|_, _| {}`.
/// It is the closure of the DAG, which its reduction shares: reduction
/// removes no path.
pub fn transitive_reduction_dag(
    dag: &DagReach,
    chunk: usize,
    mut sink: impl FnMut(Range<usize>, BitMatrix),
) -> Vec<(NodeId, NodeId)> {
    let n = dag.node_count();
    let mut keep: Vec<(NodeId, NodeId)> = Vec::new();

    for cols in dag.chunks(chunk) {
        let desc = dag.descendants_chunk(cols.clone());
        for u in 0..n as u32 {
            for &v in dag.out(u) {
                let vi = v as usize;
                if vi < cols.start || vi >= cols.end {
                    continue; // edge target handled by another chunk
                }
                // (u, v) is redundant iff some *other* child w of u reaches v.
                let redundant = dag
                    .out(u)
                    .iter()
                    .any(|&w| w != v && desc.contains(w as usize, vi - cols.start));
                if !redundant {
                    keep.push((NodeId(u), NodeId(v)));
                }
            }
        }
        sink(cols, desc);
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LabeledGraph;
    use crate::reach_sets::ReachCounts;
    use crate::traversal;

    fn graph_from_edges(n: usize, edges: &[(u32, u32)]) -> LabeledGraph {
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node_with_label("X");
        }
        for &(u, v) in edges {
            g.add_edge(NodeId(u), NodeId(v));
        }
        g
    }

    #[test]
    fn removes_shortcut_edges() {
        // 0 -> 1 -> 2 plus shortcut 0 -> 2.
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let kept = transitive_reduction(&g).unwrap();
        assert_eq!(kept.len(), 2);
        assert!(!kept.contains(&(NodeId(0), NodeId(2))));
    }

    #[test]
    fn keeps_diamond_edges() {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let kept = transitive_reduction(&g).unwrap();
        assert_eq!(kept.len(), 4);
    }

    #[test]
    fn reduction_preserves_reachability() {
        // A random-ish DAG; reduction must preserve the reachability relation.
        let edges = [
            (0, 1),
            (0, 2),
            (0, 5),
            (1, 3),
            (2, 3),
            (2, 4),
            (3, 5),
            (4, 5),
            (1, 5),
            (0, 3),
        ];
        let g = graph_from_edges(6, &edges);
        let mut r = graph_from_edges(6, &[]);
        r.extend_edges(transitive_reduction(&g).unwrap());
        assert!(r.edge_count() < g.edge_count());
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    traversal::bfs_reachable(&g, u, v),
                    traversal::bfs_reachable(&r, u, v),
                    "reachability changed for {u}->{v}"
                );
            }
        }
    }

    #[test]
    fn chunked_reduction_matches_unchunked() {
        let edges = [
            (0, 1),
            (0, 2),
            (0, 5),
            (1, 3),
            (2, 3),
            (2, 4),
            (3, 5),
            (4, 5),
            (1, 5),
            (0, 3),
            (6, 0),
            (6, 5),
            (7, 6),
            (7, 1),
        ];
        let g = graph_from_edges(8, &edges);
        let mut full = transitive_reduction_with_chunk(&g, 1024).unwrap();
        let mut tiny = transitive_reduction_with_chunk(&g, 2).unwrap();
        full.sort();
        tiny.sort();
        assert_eq!(full, tiny);
    }

    /// The counts a reduction takes from its own sweep are the BFS cone
    /// sizes, at every chunk width, and taking them changes no kept edge.
    #[test]
    fn counts_from_the_reduction_sweep_match_bfs_cones() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as u32
        };
        for case in 0..40 {
            let n = 2 + case % 23;
            // Edges point id-upward: a random DAG, shortcuts included.
            let edges: Vec<(u32, u32)> = (0..3 * n)
                .map(|_| (draw(n), draw(n)))
                .filter(|&(u, v)| u < v)
                .collect();
            let g = graph_from_edges(n, &edges);
            let dag = DagReach::from_dag_graph(&g).unwrap();
            let plain = transitive_reduction_dag(&dag, DEFAULT_CHUNK, |_, _| {});
            for chunk in [1, 64, 4096] {
                let mut counts = ReachCounts::new(n);
                let mut kept = transitive_reduction_dag(&dag, chunk, |cols, desc| {
                    counts.absorb(&cols, &desc, |_| 1)
                });
                kept.sort_unstable();
                assert_eq!(kept, plain, "case {case} chunk {chunk}");
                for v in g.nodes() {
                    let below = traversal::descendants(&g, v).len() as u64;
                    let above = traversal::ancestors(&g, v).len() as u64;
                    assert_eq!(counts.descendants[v.index()], below, "case {case} desc {v}");
                    assert_eq!(counts.ancestors[v.index()], above, "case {case} anc {v}");
                }
                assert_eq!(counts, dag.reach_counts(chunk, |_| 1));
            }
            // The popcounts a closure-driven labelling orders its landmarks
            // by are the same numbers, read off the two full matrices.
            let (desc, anc) = (dag.full_descendants(), dag.full_ancestors());
            let counts = dag.reach_counts(DEFAULT_CHUNK, |_| 1);
            for v in 0..n {
                assert_eq!(desc.count_ones(v) as u64, counts.descendants[v]);
                assert_eq!(anc.count_ones(v) as u64, counts.ancestors[v]);
            }
        }
    }

    #[test]
    fn cyclic_graph_is_rejected() {
        let g = graph_from_edges(2, &[(0, 1), (1, 0)]);
        assert!(transitive_reduction(&g).is_err());
        assert!(DagReach::from_dag_graph(&g).is_err());
    }

    #[test]
    fn closure_matches_traversal() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (3, 2), (0, 4)]);
        let tc = DagReach::from_dag_graph(&g).unwrap().full_descendants();
        for u in g.nodes() {
            for v in g.nodes() {
                let expected = u != v && traversal::bfs_reachable(&g, u, v);
                assert_eq!(tc.contains(u.index(), v.index()), expected);
            }
        }
    }

    #[test]
    fn empty_and_edgeless() {
        let g = LabeledGraph::new();
        assert!(transitive_reduction(&g).unwrap().is_empty());
        let g = graph_from_edges(3, &[]);
        assert!(transitive_reduction(&g).unwrap().is_empty());
    }

    #[test]
    fn long_chain_is_untouched() {
        let edges: Vec<(u32, u32)> = (0..99).map(|i| (i, i + 1)).collect();
        let g = graph_from_edges(100, &edges);
        assert_eq!(transitive_reduction(&g).unwrap().len(), 99);
    }
}
