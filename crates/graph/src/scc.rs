//! Strongly connected components and the condensation graph `Gscc`.
//!
//! The paper uses the SCC graph in two places: as a pre-pass that shrinks
//! the input of `compressR` without losing reachability (Section 3.2,
//! "Optimizations", and the `RCscc` column of Table 1), and as the basis of
//! the bisimulation rank function of Section 5.2. We implement Tarjan's
//! algorithm iteratively so deep graphs cannot overflow the call stack.

use crate::csr::csr_from_grouped;
use crate::graph::LabeledGraph;
use crate::ids::NodeId;
use crate::reach_sets::DagReach;
use crate::view::GraphView;

/// The result of an SCC decomposition: a mapping from nodes to component
/// ids plus the condensation DAG.
///
/// Members and condensation adjacency are stored in compressed sparse row
/// form (one contiguous array plus offsets per direction) — no per-component
/// `Vec` allocations, and the slices the accessors return are contiguous.
/// The adjacency *is* a [`DagReach`] ([`Condensation::dag`]), so closure
/// sweeps over the condensation run on the arrays built here.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// `component[v]` is the SCC id of node `v`. Component ids are dense,
    /// `0..component_count`, and are numbered in *reverse topological
    /// order of completion* (Tarjan property: every edge of the condensation
    /// goes from a higher id to a lower id).
    component: Vec<u32>,
    /// CSR offsets into `member_list`, one range per component.
    member_offsets: Vec<u32>,
    /// Members of every component, grouped by component id.
    member_list: Vec<NodeId>,
    /// The condensation DAG in both directions (no duplicate edges, no
    /// self loops), ready for reachability-set sweeps.
    dag: DagReach,
}

impl Condensation {
    /// Computes the SCC decomposition of `g` with an iterative Tarjan.
    ///
    /// Accepts any [`GraphView`] — the mutable graph or a frozen
    /// [`crate::CsrGraph`] snapshot (the CSR layout makes the DFS scans
    /// cache-friendly on large graphs).
    pub fn of<G: GraphView>(g: &G) -> Self {
        let n = g.node_count();
        let mut index = vec![u32::MAX; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut component = vec![u32::MAX; n];
        let mut stack: Vec<NodeId> = Vec::new();
        let mut next_index = 0u32;
        let mut comp_count = 0u32;

        // Explicit DFS state: (node, neighbor slice, next child position).
        // Caching the slice in the frame avoids re-fetching adjacency (two
        // offset loads + a slice construction) once per edge.
        let mut call_stack: Vec<(NodeId, &[NodeId], usize)> = Vec::new();

        for root in g.nodes() {
            if index[root.index()] != u32::MAX {
                continue;
            }
            call_stack.push((root, g.out_neighbors(root), 0));
            index[root.index()] = next_index;
            lowlink[root.index()] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root.index()] = true;

            while let Some(&mut (v, children, ref mut child_pos)) = call_stack.last_mut() {
                if *child_pos < children.len() {
                    let w = children[*child_pos];
                    *child_pos += 1;
                    if index[w.index()] == u32::MAX {
                        // Tree edge: descend.
                        index[w.index()] = next_index;
                        lowlink[w.index()] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w.index()] = true;
                        call_stack.push((w, g.out_neighbors(w), 0));
                    } else if on_stack[w.index()] {
                        lowlink[v.index()] = lowlink[v.index()].min(index[w.index()]);
                    }
                } else {
                    // Done with v: pop and propagate lowlink to parent.
                    call_stack.pop();
                    if let Some(&(parent, _, _)) = call_stack.last() {
                        lowlink[parent.index()] = lowlink[parent.index()].min(lowlink[v.index()]);
                    }
                    if lowlink[v.index()] == index[v.index()] {
                        // v is the root of an SCC.
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w.index()] = false;
                            component[w.index()] = comp_count;
                            if w == v {
                                break;
                            }
                        }
                        comp_count += 1;
                    }
                }
            }
        }

        // Members in CSR form: counting sort by component id.
        let c = comp_count as usize;
        let mut member_offsets = vec![0u32; c + 1];
        for v in g.nodes() {
            member_offsets[component[v.index()] as usize + 1] += 1;
        }
        for i in 0..c {
            member_offsets[i + 1] += member_offsets[i];
        }
        let mut cursor: Vec<u32> = member_offsets[..c].to_vec();
        let mut member_list = vec![NodeId(0); n];
        for v in g.nodes() {
            let cu = component[v.index()] as usize;
            member_list[cursor[cu] as usize] = v;
            cursor[cu] += 1;
        }

        // Condensation adjacency, deduplicated with a per-source marker and
        // collected grouped by source (member_list is grouped by component),
        // then scattered into CSR form for both directions.
        let mut seen = vec![u32::MAX; c];
        let mut cross: Vec<(u32, u32)> = Vec::new();
        for cu in 0..c {
            let lo = member_offsets[cu] as usize;
            let hi = member_offsets[cu + 1] as usize;
            for &u in &member_list[lo..hi] {
                for &w in g.out_neighbors(u) {
                    let cw = component[w.index()] as usize;
                    if cw != cu && seen[cw] != cu as u32 {
                        seen[cw] = cu as u32;
                        cross.push((cu as u32, cw as u32));
                    }
                }
            }
        }
        // `cross` is grouped by ascending source and deduplicated, exactly
        // what the shared CSR builder expects; Tarjan ids are a reverse
        // topological order (sources have the highest ids).
        let dag = DagReach::from_reverse_topological_csr(csr_from_grouped(c, &cross));

        Condensation {
            component,
            member_offsets,
            member_list,
            dag,
        }
    }

    /// The condensation DAG prepared for closure sweeps: component `i` is
    /// node `i`.
    pub fn dag(&self) -> &DagReach {
        &self.dag
    }

    /// Number of strongly connected components.
    pub fn component_count(&self) -> usize {
        self.member_offsets.len() - 1
    }

    /// Number of edges of the condensation DAG.
    pub fn edge_count(&self) -> usize {
        self.dag.edge_count()
    }

    /// SCC id of node `v`.
    #[inline]
    pub fn component_of(&self, v: NodeId) -> u32 {
        self.component[v.index()]
    }

    /// Members of component `c`.
    pub fn members(&self, c: u32) -> &[NodeId] {
        let i = c as usize;
        &self.member_list[self.member_offsets[i] as usize..self.member_offsets[i + 1] as usize]
    }

    /// Out-neighbours of component `c` in the condensation DAG.
    pub fn scc_out(&self, c: u32) -> &[u32] {
        self.dag.out(c)
    }

    /// In-neighbours of component `c` in the condensation DAG.
    pub fn scc_in(&self, c: u32) -> &[u32] {
        self.dag.inn(c)
    }

    /// `true` when component `c` contains a cycle (more than one member, or
    /// a single member with a self loop in `g`).
    pub fn is_cyclic<G: GraphView>(&self, c: u32, g: &G) -> bool {
        let m = self.members(c);
        m.len() > 1 || (m.len() == 1 && g.has_edge(m[0], m[0]))
    }

    /// Cyclicity of every component in one sequential sweep over the nodes
    /// (cheaper than `component_count` individual [`Condensation::is_cyclic`]
    /// probes when all flags are needed, as the rank and reachability
    /// equivalence computations do).
    pub fn cyclic_flags<G: GraphView>(&self, g: &G) -> Vec<bool> {
        let c = self.component_count();
        let mut cyclic: Vec<bool> = (0..c as u32).map(|cu| self.members(cu).len() > 1).collect();
        for v in g.nodes() {
            if g.out_neighbors(v).contains(&v) {
                cyclic[self.component_of(v) as usize] = true;
            }
        }
        cyclic
    }

    /// Builds the condensation as a standalone [`LabeledGraph`] whose node
    /// `i` is component `i`; all nodes share one label. This is the graph
    /// `Gscc` that the AHO baseline and the `RCscc` measurements operate on.
    pub fn to_graph(&self) -> LabeledGraph {
        let c = self.component_count();
        let mut g = LabeledGraph::with_capacity(c);
        for _ in 0..c {
            g.add_node_with_label("scc");
        }
        let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(self.edge_count());
        for cu in 0..c {
            for &cw in self.scc_out(cu as u32) {
                edges.push((NodeId::new(cu), NodeId::new(cw as usize)));
            }
        }
        g.extend_edges(edges);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Tarjan numbering invariant: every condensation edge goes from a
    /// higher component id to a lower one, so ids `count-1, …, 0` are a
    /// topological order (sources first).
    fn is_topological(c: &Condensation) -> bool {
        (0..c.component_count()).all(|cu| c.scc_out(cu as u32).iter().all(|&cw| (cw as usize) < cu))
    }

    /// Two 3-cycles connected by a bridge, plus a tail node.
    ///   c0: {0,1,2}  c1: {3,4,5}   2 -> 3,  5 -> 6
    fn two_cycles() -> (LabeledGraph, Vec<NodeId>) {
        let mut g = LabeledGraph::new();
        let n: Vec<_> = (0..7).map(|_| g.add_node_with_label("X")).collect();
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[2]);
        g.add_edge(n[2], n[0]);
        g.add_edge(n[3], n[4]);
        g.add_edge(n[4], n[5]);
        g.add_edge(n[5], n[3]);
        g.add_edge(n[2], n[3]);
        g.add_edge(n[5], n[6]);
        (g, n)
    }

    #[test]
    fn finds_components() {
        let (g, n) = two_cycles();
        let c = Condensation::of(&g);
        assert_eq!(c.component_count(), 3);
        assert_eq!(c.component_of(n[0]), c.component_of(n[1]));
        assert_eq!(c.component_of(n[0]), c.component_of(n[2]));
        assert_eq!(c.component_of(n[3]), c.component_of(n[5]));
        assert_ne!(c.component_of(n[0]), c.component_of(n[3]));
        assert_ne!(c.component_of(n[3]), c.component_of(n[6]));
        assert_eq!(c.edge_count(), 2);
    }

    #[test]
    fn condensation_is_topologically_numbered() {
        let (g, _) = two_cycles();
        let c = Condensation::of(&g);
        assert!(is_topological(&c));
        // Sources first: the component of node 0 has a higher id than that of node 6.
        assert!(c.component_of(NodeId(0)) > c.component_of(NodeId(6)));
    }

    #[test]
    fn acyclic_graph_has_singleton_components() {
        let mut g = LabeledGraph::new();
        let n: Vec<_> = (0..5).map(|_| g.add_node_with_label("X")).collect();
        for i in 0..4 {
            g.add_edge(n[i], n[i + 1]);
        }
        let c = Condensation::of(&g);
        assert_eq!(c.component_count(), 5);
        assert!(is_topological(&c));
        for comp in 0..5u32 {
            assert_eq!(c.members(comp).len(), 1);
            assert!(!c.is_cyclic(comp, &g));
        }
    }

    #[test]
    fn self_loop_is_cyclic_singleton() {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        let b = g.add_node_with_label("B");
        g.add_edge(a, a);
        g.add_edge(a, b);
        let c = Condensation::of(&g);
        assert_eq!(c.component_count(), 2);
        assert!(c.is_cyclic(c.component_of(a), &g));
        assert!(!c.is_cyclic(c.component_of(b), &g));
    }

    #[test]
    fn single_big_cycle() {
        let mut g = LabeledGraph::new();
        let n: Vec<_> = (0..100).map(|_| g.add_node_with_label("X")).collect();
        for i in 0..100 {
            g.add_edge(n[i], n[(i + 1) % 100]);
        }
        let c = Condensation::of(&g);
        assert_eq!(c.component_count(), 1);
        assert_eq!(c.members(0).len(), 100);
        assert_eq!(c.edge_count(), 0);
    }

    #[test]
    fn to_graph_matches_condensation() {
        let (g, _) = two_cycles();
        let c = Condensation::of(&g);
        let gc = c.to_graph();
        assert_eq!(gc.node_count(), c.component_count());
        assert_eq!(gc.edge_count(), c.edge_count());
    }

    #[test]
    fn empty_graph() {
        let g = LabeledGraph::new();
        let c = Condensation::of(&g);
        assert_eq!(c.component_count(), 0);
        assert_eq!(c.edge_count(), 0);
        assert!(is_topological(&c));
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        // 200k-node path exercises the iterative DFS.
        let mut g = LabeledGraph::with_capacity(200_000);
        let n: Vec<_> = (0..200_000).map(|_| g.add_node_with_label("X")).collect();
        for i in 0..n.len() - 1 {
            g.add_edge(n[i], n[i + 1]);
        }
        let c = Condensation::of(&g);
        assert_eq!(c.component_count(), 200_000);
    }

    #[test]
    fn condensation_edges_are_deduplicated() {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        let b = g.add_node_with_label("B");
        let c1 = g.add_node_with_label("C");
        let c2 = g.add_node_with_label("C");
        // SCC {c1, c2}; two parallel edges from a's SCC and b's SCC into it.
        g.add_edge(c1, c2);
        g.add_edge(c2, c1);
        g.add_edge(a, c1);
        g.add_edge(a, c2);
        g.add_edge(b, c1);
        let c = Condensation::of(&g);
        assert_eq!(c.component_count(), 3);
        // a -> {c1,c2} must appear once despite two underlying edges.
        assert_eq!(c.edge_count(), 2);
    }
}
