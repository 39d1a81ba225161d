//! The unique transitive reduction of a DAG.
//!
//! `compressR` (Section 3.2, lines 6–8 of Fig. 5) avoids inserting edges
//! between equivalence classes that are already implied by other edges; on
//! the quotient DAG this is exactly the transitive reduction, which for DAGs
//! is unique (Aho, Garey & Ullman 1972). The same routine, applied to the
//! SCC condensation, is the core of the paper's `AHO` baseline.

use crate::error::Result;
use crate::id_set::{IdRows, RowBuilder};
use crate::ids::NodeId;
use crate::reach_sets::DagReach;
use crate::view::GraphView;

/// Computes the unique transitive reduction of a DAG, returned as the list
/// of retained edges.
///
/// An edge `(u, v)` is removed iff there is another path from `u` to `v` of
/// length ≥ 2, which the DAG's descendant rows ([`DagReach::descendants`])
/// answer one membership test at a time.
///
/// Returns an error if the input is not acyclic.
pub fn transitive_reduction<G: GraphView>(g: &G) -> Result<Vec<(NodeId, NodeId)>> {
    let dag = DagReach::from_dag_graph(g)?;
    Ok(transitive_reduction_dag(&dag, &dag.descendants()))
}

/// Transitive reduction directly on an already-built [`DagReach`] whose
/// descendant rows `desc` the caller holds — `compressR` reduces its
/// quotient edge list this way without materializing an intermediate
/// `LabeledGraph`, and a maintained closure keeps the rows for more than
/// the reduction (reduction removes no path, so they are the closure of
/// the reduced DAG too). Kept edges come out sorted by `(source, target)`.
pub fn transitive_reduction_dag(dag: &DagReach, desc: &IdRows) -> Vec<(NodeId, NodeId)> {
    let mut keep: Vec<(NodeId, NodeId)> = Vec::new();
    let mut below = RowBuilder::new(desc.universe());
    for u in 0..dag.node_count() as u32 {
        let out = dag.out(u);
        // (u, v) is redundant iff some *other* child of u reaches v — any
        // child: in a DAG no node reaches itself.
        if out.len() > 1 {
            for &w in out {
                // A child already below another brought its row with it.
                if !below.holds(w) {
                    below.extend(desc.row(w as usize));
                }
            }
        }
        let at = keep.len();
        keep.extend(
            (out.iter())
                .filter(|&&v| !below.holds(v))
                .map(|&v| (NodeId(u), NodeId(v))),
        );
        keep[at..].sort_unstable();
        below.clear();
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LabeledGraph;
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

    /// The lengths of the rows a reduction reads are the BFS cone sizes,
    /// the ancestor rows are the transpose of the descendant rows, and the
    /// reduction over them keeps what `transitive_reduction` keeps.
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
            let (desc, anc) = (dag.descendants(), dag.ancestors());
            let mut kept = transitive_reduction_dag(&dag, &desc);
            let mut plain = transitive_reduction(&g).unwrap();
            kept.sort_unstable();
            plain.sort_unstable();
            assert_eq!(kept, plain, "case {case}");
            for v in g.nodes() {
                let below = traversal::descendants(&g, v).len();
                let above = traversal::ancestors(&g, v).len();
                assert_eq!(desc.len(v.index()), below, "case {case} desc {v}");
                assert_eq!(anc.len(v.index()), above, "case {case} anc {v}");
                for w in desc.row(v.index()).iter() {
                    assert!(anc.row(w as usize).contains(v.0), "case {case} ({v}, {w})");
                }
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
        let tc = DagReach::from_dag_graph(&g).unwrap().descendants();
        for u in g.nodes() {
            for v in g.nodes() {
                let expected = u != v && traversal::bfs_reachable(&g, u, v);
                assert_eq!(tc.row(u.index()).contains(v.0), expected);
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
