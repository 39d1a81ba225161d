//! The bisimulation rank function (Section 5.2 of the paper).
//!
//! The **bisimulation rank** `rb(v)` (following Dovier–Piazza–Policriti):
//! `rb(v) = 0` for leaves, `rb(v) = −∞` for nodes whose SCC has no outgoing
//! condensation edge but which still have children (i.e. nodes that can
//! only reach cycles), and otherwise the maximum over children of
//! `rb(c)+1` for well-founded children and `rb(c)` for non-well-founded
//! children. Lemma 9 states bisimilar nodes have equal `rb`, which the
//! rank-stratified bisimulation refinement relies on.
//!
//! (The paper's other rank, the topological rank `r(v)` of Section 5.1, is
//! how its `incRCM` sketch locates the affected area; this implementation
//! locates it by cone walks over the maintained class-level rows and
//! regroups against closure rows — `quotient.rs` — and computes no `r`.)
//!
//! The **well-founded set** `WF` is the set of nodes that cannot reach any
//! cycle; `NWF = V \ WF`.

use crate::scc::Condensation;
use crate::view::GraphView;

/// A bisimulation rank value: either −∞ or a finite non-negative integer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BisimRank {
    /// The paper's `−∞` rank: the node has children but its SCC cannot reach
    /// any node outside cyclic components — i.e. it only "sees" cycles.
    NegInfinity,
    /// A finite rank.
    Finite(u32),
}

impl BisimRank {
    /// `rank + 1`, where `−∞ + 1 = −∞`.
    pub fn succ(self) -> BisimRank {
        match self {
            BisimRank::NegInfinity => BisimRank::NegInfinity,
            BisimRank::Finite(k) => BisimRank::Finite(k + 1),
        }
    }
}

/// Bisimulation ranks of all nodes plus the WF/NWF split.
#[derive(Clone, Debug)]
pub struct BisimRanks {
    /// `rank[v]` is `rb(v)`.
    pub rank: Vec<BisimRank>,
    /// `well_founded[v]` is `true` iff `v` cannot reach any cycle.
    pub well_founded: Vec<bool>,
    /// Largest finite rank present.
    pub max_finite_rank: u32,
}

/// Computes `rb(v)` and the WF/NWF split for every node of `g`.
pub fn bisim_ranks<G: GraphView>(g: &G, cond: &Condensation) -> BisimRanks {
    let c = cond.component_count();
    let n = g.node_count();

    // A component is "cyclic" if it contains a cycle; a component "has
    // children" if any member has an out-edge. Both are computed in
    // sequential sweeps (per-component member probes are cache-hostile).
    let cyclic = cond.cyclic_flags(g);
    let mut comp_has_children = vec![false; c];
    for v in g.nodes() {
        if g.out_degree(v) > 0 {
            comp_has_children[cond.component_of(v) as usize] = true;
        }
    }

    // WF: nodes that cannot reach any cycle. Compute per component, children
    // first (increasing Tarjan id).
    let mut comp_wf = vec![true; c];
    for cu in 0..c {
        if cyclic[cu] {
            comp_wf[cu] = false;
            continue;
        }
        for &cw in cond.scc_out(cu as u32) {
            if !comp_wf[cw as usize] {
                comp_wf[cu] = false;
                break;
            }
        }
    }

    // Ranks per component, children first.
    let mut comp_rank = vec![BisimRank::Finite(0); c];
    for cu in 0..c {
        let outs = cond.scc_out(cu as u32);
        if !comp_has_children[cu] {
            // True leaf (also acyclic by construction).
            comp_rank[cu] = BisimRank::Finite(0);
            continue;
        }
        if outs.is_empty() {
            // Has children in G (possibly inside its own cyclic SCC) but its
            // SCC has no outgoing condensation edge: rank −∞.
            comp_rank[cu] = BisimRank::NegInfinity;
            continue;
        }
        let mut best = BisimRank::NegInfinity;
        for &cw in outs {
            let contrib = if comp_wf[cw as usize] {
                comp_rank[cw as usize].succ()
            } else {
                comp_rank[cw as usize]
            };
            if contrib > best {
                best = contrib;
            }
        }
        // A cyclic component that only reaches −∞ components stays −∞; a
        // cyclic component that reaches a finite-rank component takes that
        // finite value (DPP rank definition).
        comp_rank[cu] = best;
    }

    let mut rank = vec![BisimRank::Finite(0); n];
    let mut well_founded = vec![false; n];
    let mut max_finite_rank = 0;
    for v in g.nodes() {
        let cu = cond.component_of(v) as usize;
        rank[v.index()] = comp_rank[cu];
        well_founded[v.index()] = comp_wf[cu];
        if let BisimRank::Finite(k) = comp_rank[cu] {
            max_finite_rank = max_finite_rank.max(k);
        }
    }
    BisimRanks {
        rank,
        well_founded,
        max_finite_rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LabeledGraph;

    fn ranks_of(g: &LabeledGraph) -> BisimRanks {
        bisim_ranks(g, &Condensation::of(g))
    }

    #[test]
    fn path_graph_ranks() {
        // 0 -> 1 -> 2 -> 3
        let mut g = LabeledGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node_with_label("X")).collect();
        for i in 0..3 {
            g.add_edge(n[i], n[i + 1]);
        }
        let b = ranks_of(&g);
        assert_eq!(
            b.rank,
            vec![
                BisimRank::Finite(3),
                BisimRank::Finite(2),
                BisimRank::Finite(1),
                BisimRank::Finite(0)
            ]
        );
        assert!(b.well_founded.iter().all(|&w| w));
        assert_eq!(b.max_finite_rank, 3);
    }

    #[test]
    fn pure_cycle_has_neg_infinity_rank() {
        // 0 <-> 1, both only see the cycle.
        let mut g = LabeledGraph::new();
        let n: Vec<_> = (0..2).map(|_| g.add_node_with_label("X")).collect();
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[0]);
        let b = ranks_of(&g);
        assert_eq!(b.rank[0], BisimRank::NegInfinity);
        assert_eq!(b.rank[1], BisimRank::NegInfinity);
        assert!(!b.well_founded[0]);
    }

    #[test]
    fn node_above_cycle_and_leaf() {
        // 2 -> {0 <-> 1},  2 -> 3 (leaf)
        let mut g = LabeledGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node_with_label("X")).collect();
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[0]);
        g.add_edge(n[2], n[0]);
        g.add_edge(n[2], n[3]);
        let b = ranks_of(&g);
        // Node 2 reaches a leaf (finite rank 0, WF) and a cycle (−∞, NWF):
        // rb(2) = max(0 + 1, −∞) = 1.
        assert_eq!(b.rank[n[2].index()], BisimRank::Finite(1));
        assert!(!b.well_founded[n[2].index()]);
        assert!(b.well_founded[n[3].index()]);
        assert_eq!(b.rank[n[3].index()], BisimRank::Finite(0));
    }

    #[test]
    fn self_loop_is_neg_infinity() {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        g.add_edge(a, a);
        let b = ranks_of(&g);
        assert_eq!(b.rank[a.index()], BisimRank::NegInfinity);
        assert!(!b.well_founded[a.index()]);
    }

    #[test]
    fn isolated_node_rank_zero() {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        let b = ranks_of(&g);
        assert_eq!(b.rank[a.index()], BisimRank::Finite(0));
        assert!(b.well_founded[a.index()]);
    }

    #[test]
    fn bisim_rank_ordering() {
        assert!(BisimRank::NegInfinity < BisimRank::Finite(0));
        assert!(BisimRank::Finite(0) < BisimRank::Finite(5));
        assert_eq!(BisimRank::NegInfinity.succ(), BisimRank::NegInfinity);
        assert_eq!(BisimRank::Finite(2).succ(), BisimRank::Finite(3));
    }

    #[test]
    fn lemma7_style_sanity_on_diamond() {
        // Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3. Nodes 1 and 2 are
        // bisimilar (one label) and must have equal rank.
        let mut g = LabeledGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node_with_label("X")).collect();
        g.add_edge(n[0], n[1]);
        g.add_edge(n[0], n[2]);
        g.add_edge(n[1], n[3]);
        g.add_edge(n[2], n[3]);
        let b = ranks_of(&g);
        assert_eq!(b.rank[n[1].index()], b.rank[n[2].index()]);
    }
}
