//! Graph pattern queries `Qp = (Vp, Ep, fv, fe)` and their match relations.
//!
//! A pattern query (Section 2.1) is a small directed graph whose nodes carry
//! search conditions (here: a label name, `fv`) and whose edges carry a
//! bound `fe`: a positive integer `k` ("there must be a non-empty path of
//! length ≤ k") or `*` ("there must be a non-empty path of any length").
//! Matching is defined by bounded simulation; the answer is the unique
//! maximum match relation `SM ⊆ Vp × V` (Lemma 1), or the empty relation if
//! the pattern does not match.

use qpgc_graph::{IdSet, NodeId};

/// The bound `fe(u, u')` attached to a pattern edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeBound {
    /// A non-empty path of length at most `k` is required (`k ≥ 1`).
    Bounded(u32),
    /// A non-empty path of any length is required (the paper's `*`).
    Unbounded,
}

impl EdgeBound {
    /// Interprets the bound as an `Option<usize>` hop limit (`None` = no
    /// limit), the form the bounded-BFS primitives take.
    pub fn hop_limit(self) -> Option<usize> {
        match self {
            EdgeBound::Bounded(k) => Some(k as usize),
            EdgeBound::Unbounded => None,
        }
    }
}

/// Identifier of a pattern node (index into the pattern's node list).
pub type PatternNodeId = u32;

/// A graph pattern query.
#[derive(Clone, Debug, PartialEq)]
pub struct Pattern {
    /// `fv`: the label name each pattern node must match.
    labels: Vec<String>,
    /// Pattern edges with their bounds.
    edges: Vec<(PatternNodeId, PatternNodeId, EdgeBound)>,
}

impl Default for Pattern {
    fn default() -> Self {
        Self::new()
    }
}

impl Pattern {
    /// Creates an empty pattern.
    pub fn new() -> Self {
        Pattern {
            labels: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a pattern node with search condition `label` and returns its id.
    pub fn add_node(&mut self, label: &str) -> PatternNodeId {
        self.labels.push(label.to_string());
        (self.labels.len() - 1) as PatternNodeId
    }

    /// Adds a pattern edge with a finite bound `k ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or either endpoint does not exist.
    pub fn add_edge(&mut self, from: PatternNodeId, to: PatternNodeId, k: u32) -> &mut Self {
        assert!(k >= 1, "edge bounds must be positive");
        self.add_edge_with_bound(from, to, EdgeBound::Bounded(k))
    }

    /// Adds a pattern edge with the unbounded (`*`) bound.
    pub fn add_edge_unbounded(&mut self, from: PatternNodeId, to: PatternNodeId) -> &mut Self {
        self.add_edge_with_bound(from, to, EdgeBound::Unbounded)
    }

    /// Adds a pattern edge with an explicit [`EdgeBound`].
    pub fn add_edge_with_bound(
        &mut self,
        from: PatternNodeId,
        to: PatternNodeId,
        bound: EdgeBound,
    ) -> &mut Self {
        assert!((from as usize) < self.labels.len(), "unknown pattern node");
        assert!((to as usize) < self.labels.len(), "unknown pattern node");
        self.edges.push((from, to, bound));
        self
    }

    /// Number of pattern nodes (`|Vp|`).
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of pattern edges (`|Ep|`).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The label name of pattern node `u`.
    pub fn label(&self, u: PatternNodeId) -> &str {
        &self.labels[u as usize]
    }

    /// The pattern edges as `(from, to, bound)` triples.
    pub fn edges(&self) -> &[(PatternNodeId, PatternNodeId, EdgeBound)] {
        &self.edges
    }

    /// Iterator over pattern node ids.
    pub fn nodes(&self) -> impl Iterator<Item = PatternNodeId> {
        0..self.labels.len() as PatternNodeId
    }
}

/// The answer to a pattern query: for each pattern node, the set of data
/// nodes that match it. The relation is the *maximum* match (Lemma 1);
/// matchers return `None` instead when some pattern node has no match.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchRelation {
    /// `matches[u]` — the data nodes matching pattern node `u`, sorted.
    pub matches: Vec<Vec<NodeId>>,
}

/// The post-processing function `P`, shared by every compressed form:
/// expands a match relation computed on a quotient graph into the relation
/// on the original graph of `node_count` nodes by replacing each hypernode
/// with its members (looked up through `members_of`). Each pattern node's
/// members are set in one node-indexed bit row, reused across pattern
/// nodes, and read out in order: time linear in the output plus
/// `node_count / 64` words per pattern node.
pub(crate) fn expand_match_relation<'a>(
    on_compressed: &MatchRelation,
    node_count: usize,
    members_of: impl Fn(NodeId) -> &'a [NodeId],
) -> MatchRelation {
    let mut row = vec![0u64; node_count.div_ceil(64)];
    let matches = on_compressed
        .matches
        .iter()
        .map(|classes| {
            let mut len = 0;
            for &c in classes {
                let members = members_of(c);
                len += members.len();
                for v in members {
                    row[v.index() / 64] |= 1 << (v.index() % 64);
                }
            }
            let mut expanded = Vec::with_capacity(len);
            expanded.extend(IdSet::Bits(&row, len).iter().map(NodeId));
            row.fill(0);
            expanded
        })
        .collect();
    MatchRelation { matches }
}

/// Differential-testing oracle shared by every suite that compares two ways
/// of answering the same pattern query: panics unless the optional match
/// relations agree as booleans and — when both match — as canonical
/// relations. `ctx` prefixes the failure message. Keeping the comparison in
/// one place guarantees the unit, integration, and bench differentials all
/// apply the identical equivalence.
// qpgc-lint: allow(dead-surface) -- oracle of simulation::tests
pub fn assert_same_answer(
    expected: &Option<MatchRelation>,
    got: &Option<MatchRelation>,
    ctx: &str,
) {
    match (expected, got) {
        (None, None) => {}
        (Some(x), Some(y)) => assert_eq!(
            x.canonical(),
            y.canonical(),
            "{ctx}: match relations diverged"
        ),
        (x, y) => panic!(
            "{ctx}: boolean answers diverged (expected matched = {}, got matched = {})",
            x.is_some(),
            y.is_some()
        ),
    }
}

impl MatchRelation {
    /// The match set of pattern node `u`.
    pub fn matches_of(&self, u: PatternNodeId) -> &[NodeId] {
        &self.matches[u as usize]
    }

    /// A canonical representation (sorted pair list) for comparing relations
    /// produced by different evaluation strategies.
    pub fn canonical(&self) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = self
            .matches
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |v| (u as u32, v.0)))
            .collect();
        pairs.sort_unstable();
        pairs
    }
}

/// Resolves the pattern's label names against a data graph's interner,
/// returning for each pattern node the interned label (or `None` if the
/// label does not occur in the graph at all). Accepts any
/// [`qpgc_graph::GraphView`] (mutable graph or CSR snapshot).
pub fn resolve_labels<G: qpgc_graph::GraphView>(
    pattern: &Pattern,
    g: &G,
) -> Vec<Option<qpgc_graph::Label>> {
    pattern
        .nodes()
        .map(|u| g.lookup_label(pattern.label(u)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpgc_graph::LabeledGraph;

    #[test]
    fn build_pattern() {
        let mut p = Pattern::new();
        let a = p.add_node("BSA");
        let b = p.add_node("C");
        let c = p.add_node("FA");
        p.add_edge(a, b, 2);
        p.add_edge_unbounded(b, c);
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.edge_count(), 2);
        assert_eq!(p.label(a), "BSA");
        assert_eq!(p.edges()[1].2, EdgeBound::Unbounded);
        assert_eq!(p.nodes().count(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bound_rejected() {
        let mut p = Pattern::new();
        let a = p.add_node("A");
        let b = p.add_node("B");
        p.add_edge(a, b, 0);
    }

    #[test]
    #[should_panic(expected = "unknown pattern node")]
    fn dangling_edge_rejected() {
        let mut p = Pattern::new();
        let a = p.add_node("A");
        p.add_edge(a, 7, 1);
    }

    #[test]
    fn edge_bound_hop_limit() {
        assert_eq!(EdgeBound::Bounded(3).hop_limit(), Some(3));
        assert_eq!(EdgeBound::Unbounded.hop_limit(), None);
    }

    #[test]
    fn match_relation_basics() {
        let mut r = MatchRelation {
            matches: vec![Vec::new(); 2],
        };
        assert_eq!(r.matches, vec![Vec::<NodeId>::new(); 2]);
        r.matches[0].push(NodeId(4));
        r.matches[1].push(NodeId(2));
        assert_eq!(r.canonical(), vec![(0, 4), (1, 2)]);
        assert_eq!(r.matches_of(0), &[NodeId(4)]);
    }

    #[test]
    fn empty_pattern_relation_is_unmatched() {
        let r = MatchRelation {
            matches: Vec::new(),
        };
        assert!(r.matches.is_empty());
        assert!(r.canonical().is_empty());
    }

    /// The expansion against the sorted concatenation of the member
    /// lists: members on both sides of the 63/64 and 127/128 word
    /// boundaries of a 130-node row, pattern nodes in a row that must each
    /// start on a clean row, and an empty match set.
    #[test]
    fn expansion_is_the_sorted_union_of_the_member_lists() {
        let ids = |ids: &[u32]| ids.iter().map(|&v| NodeId(v)).collect::<Vec<_>>();
        let members = [
            ids(&[64, 0, 63]),
            ids(&[127, 128, 129]),
            ids(&[1, 62]),
            ids(&[65, 126]),
        ];
        let on_compressed = MatchRelation {
            matches: vec![
                ids(&[0, 1]),
                ids(&[1, 2, 3]),
                ids(&[]),
                ids(&[3, 0]),
                ids(&[2]),
            ],
        };
        let expanded = expand_match_relation(&on_compressed, 130, |c| &members[c.index()]);
        assert_eq!(expanded.matches.len(), on_compressed.matches.len());
        for (u, got) in expanded.matches.iter().enumerate() {
            let mut expect: Vec<NodeId> = (on_compressed.matches[u].iter())
                .flat_map(|c| members[c.index()].iter().copied())
                .collect();
            expect.sort_unstable();
            assert_eq!(got, &expect, "pattern node {u}");
        }
    }

    #[test]
    fn resolve_labels_against_graph() {
        let mut g = LabeledGraph::new();
        g.add_node_with_label("A");
        g.add_node_with_label("B");
        let mut p = Pattern::new();
        p.add_node("B");
        p.add_node("Z");
        let resolved = resolve_labels(&p, &g);
        assert!(resolved[0].is_some());
        assert!(resolved[1].is_none());
    }
}
