//! The mutable labeled directed graph `G = (V, E, L)`.
//!
//! This is the paper's data-graph model (Section 2.1): a finite node set,
//! a set of directed edges, and a total labelling function over a finite
//! alphabet Σ. Both forward and reverse adjacency are maintained because
//! every algorithm in the system needs one or the other (ancestor sets,
//! reverse BFS for bounded simulation, parent lookups during incremental
//! maintenance).

use crate::csr::CsrGraph;
use crate::ids::{Label, LabelInterner, NodeId};
use crate::view::GraphView;

/// A mutable labeled directed graph.
///
/// * Nodes are dense [`NodeId`]s `0..node_count()`.
/// * Each node carries exactly one interned [`Label`].
/// * Edges are unweighted, directed, and unique (the edge set is a set, as
///   in the paper; inserting a duplicate edge is a no-op).
/// * Self-loops are allowed (`E ⊆ V × V`).
#[derive(Clone, Debug, Default)]
pub struct LabeledGraph {
    labels: Vec<Label>,
    out: Vec<Vec<NodeId>>,
    inn: Vec<Vec<NodeId>>,
    edge_count: usize,
    interner: LabelInterner,
}

impl LabeledGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        LabeledGraph {
            labels: Vec::with_capacity(nodes),
            out: Vec::with_capacity(nodes),
            inn: Vec::with_capacity(nodes),
            edge_count: 0,
            interner: LabelInterner::new(),
        }
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The paper's size measure `|G| = |V| + |E|`.
    #[inline]
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// Adds a node with an already-interned label and returns its id.
    pub fn add_node(&mut self, label: Label) -> NodeId {
        let id = NodeId::new(self.labels.len());
        self.labels.push(label);
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        id
    }

    /// Adds a node labelled `name`, interning the name if necessary.
    pub fn add_node_with_label(&mut self, name: &str) -> NodeId {
        let label = self.interner.intern(name);
        self.add_node(label)
    }

    /// Returns the label of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn label(&self, v: NodeId) -> Label {
        self.labels[v.index()]
    }

    /// Returns the label name of `v`, if its label was interned by name.
    pub fn label_name(&self, v: NodeId) -> Option<&str> {
        self.interner.name(self.labels[v.index()])
    }

    /// Access to the label interner (shared with compressed graphs so hyper
    /// nodes keep the original label names).
    pub fn interner(&self) -> &LabelInterner {
        &self.interner
    }

    /// Returns the number of distinct label values in use (`|L|` of the
    /// experiment tables).
    pub fn label_alphabet_size(&self) -> usize {
        let mut seen: Vec<bool> = Vec::new();
        for &l in &self.labels {
            if l.index() >= seen.len() {
                seen.resize(l.index() + 1, false);
            }
            seen[l.index()] = true;
        }
        seen.iter().filter(|&&b| b).count()
    }

    /// Adds the directed edge `(u, v)`.
    ///
    /// Returns `true` if the edge was inserted, `false` if it was already
    /// present.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of bounds.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(u.index() < self.node_count(), "source {u} out of bounds");
        assert!(v.index() < self.node_count(), "target {v} out of bounds");
        if self.out[u.index()].contains(&v) {
            return false;
        }
        self.out[u.index()].push(v);
        self.inn[v.index()].push(u);
        self.edge_count += 1;
        true
    }

    /// Bulk edge insertion: adds every edge of `edges` (duplicates — within
    /// the batch or against edges already present — are dropped) and returns
    /// the number of edges actually inserted.
    ///
    /// Unlike repeated [`LabeledGraph::add_edge`] calls, which pay an
    /// `O(deg)` duplicate scan per insert, this sorts and deduplicates the
    /// union of old and new edges in `O((m + k) log (m + k))` — the right
    /// path for loaders and generators. Afterwards every adjacency list is
    /// sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of bounds.
    pub fn extend_edges(&mut self, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> usize {
        let mut all: Vec<(NodeId, NodeId)> = edges.into_iter().collect();
        for &(u, v) in &all {
            assert!(u.index() < self.node_count(), "source {u} out of bounds");
            assert!(v.index() < self.node_count(), "target {v} out of bounds");
        }
        if all.is_empty() {
            return 0;
        }
        let before = self.edge_count;
        for (u, outs) in self.out.iter().enumerate() {
            all.extend(outs.iter().map(|&v| (NodeId::new(u), v)));
        }
        all.sort_unstable();
        all.dedup();
        for list in &mut self.out {
            list.clear();
        }
        for list in &mut self.inn {
            list.clear();
        }
        for &(u, v) in &all {
            self.out[u.index()].push(v);
            self.inn[v.index()].push(u);
        }
        self.edge_count = all.len();
        self.edge_count - before
    }

    /// Freezes the graph into an immutable [`CsrGraph`] snapshot for the
    /// read-only batch algorithms. See the [`crate::csr`] module docs for
    /// when to freeze versus when to keep mutating.
    pub fn freeze(&self) -> CsrGraph {
        CsrGraph::from_graph(self)
    }

    /// Removes the directed edge `(u, v)`.
    ///
    /// Returns `true` if the edge existed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u.index() >= self.node_count() || v.index() >= self.node_count() {
            return false;
        }
        let out = &mut self.out[u.index()];
        if let Some(pos) = out.iter().position(|&w| w == v) {
            out.swap_remove(pos);
            let inn = &mut self.inn[v.index()];
            let ipos = inn
                .iter()
                .position(|&w| w == u)
                .expect("in-adjacency out of sync with out-adjacency");
            inn.swap_remove(ipos);
            self.edge_count -= 1;
            true
        } else {
            false
        }
    }

    /// `true` if the edge `(u, v)` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u.index() < self.node_count() && self.out[u.index()].contains(&v)
    }

    /// Out-neighbours (children) of `u`.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.out[u.index()]
    }

    /// In-neighbours (parents) of `u`.
    #[inline]
    pub fn in_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.inn[u.index()]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out[u.index()].len()
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.inn[u.index()].len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterator over all edges as `(source, target)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(u, targets)| targets.iter().map(move |&v| (NodeId::new(u), v)))
    }

    /// Iterator over all node labels, indexed by node id.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Approximate heap footprint in bytes, counting adjacency and labels.
    /// Used for the memory-cost comparison of Fig. 12(d).
    pub fn heap_bytes(&self) -> usize {
        let node_id = std::mem::size_of::<NodeId>();
        let adj: usize = self
            .out
            .iter()
            .chain(self.inn.iter())
            .map(|v| v.capacity() * node_id + std::mem::size_of::<Vec<NodeId>>())
            .sum();
        adj + self.labels.capacity() * std::mem::size_of::<Label>()
    }
}

impl GraphView for LabeledGraph {
    fn node_count(&self) -> usize {
        LabeledGraph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        LabeledGraph::edge_count(self)
    }

    fn label(&self, v: NodeId) -> Label {
        LabeledGraph::label(self, v)
    }

    fn label_name(&self, v: NodeId) -> Option<&str> {
        LabeledGraph::label_name(self, v)
    }

    fn lookup_label(&self, name: &str) -> Option<Label> {
        self.interner.get(name)
    }

    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        LabeledGraph::out_neighbors(self, v)
    }

    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        LabeledGraph::in_neighbors(self, v)
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        LabeledGraph::has_edge(self, u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (LabeledGraph, Vec<NodeId>) {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        let b = g.add_node_with_label("B");
        let c = g.add_node_with_label("B");
        let d = g.add_node_with_label("C");
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        (g, vec![a, b, c, d])
    }

    #[test]
    fn counts_and_size() {
        let (g, _) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.size(), 8);
        assert_eq!(g.label_alphabet_size(), 3);
    }

    #[test]
    fn duplicate_edge_is_noop() {
        let (mut g, n) = diamond();
        assert!(!g.add_edge(n[0], n[1]));
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn self_loop_allowed() {
        let (mut g, n) = diamond();
        assert!(g.add_edge(n[3], n[3]));
        assert!(g.has_edge(n[3], n[3]));
        assert_eq!(g.out_degree(n[3]), 1);
        assert_eq!(g.in_degree(n[3]), 3);
    }

    #[test]
    fn remove_edge_updates_both_directions() {
        let (mut g, n) = diamond();
        assert!(g.remove_edge(n[0], n[1]));
        assert!(!g.has_edge(n[0], n[1]));
        assert_eq!(g.edge_count(), 3);
        assert!(!g.out_neighbors(n[0]).contains(&n[1]));
        assert!(!g.in_neighbors(n[1]).contains(&n[0]));
        // Removing again is a no-op.
        assert!(!g.remove_edge(n[0], n[1]));
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn remove_edge_out_of_bounds_is_false() {
        let (mut g, _) = diamond();
        assert!(!g.remove_edge(NodeId(99), NodeId(0)));
    }

    #[test]
    fn adjacency_is_consistent() {
        let (g, n) = diamond();
        assert_eq!(g.out_neighbors(n[0]), &[n[1], n[2]]);
        assert_eq!(g.in_neighbors(n[3]), &[n[1], n[2]]);
        assert_eq!(g.out_degree(n[0]), 2);
        assert_eq!(g.in_degree(n[0]), 0);
    }

    #[test]
    fn labels_and_names() {
        let (g, n) = diamond();
        assert_eq!(g.label(n[1]), g.label(n[2]));
        assert_ne!(g.label(n[0]), g.label(n[1]));
        assert_eq!(g.label_name(n[0]), Some("A"));
        assert_eq!(g.label_name(n[3]), Some("C"));
    }

    #[test]
    fn edges_iterator_yields_all_edges() {
        let (g, _) = diamond();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort();
        assert_eq!(edges.len(), 4);
        assert_eq!(edges, {
            let mut e = vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(3)),
                (NodeId(2), NodeId(3)),
            ];
            e.sort();
            e
        });
    }

    #[test]
    fn heap_bytes_nonzero() {
        let (g, _) = diamond();
        assert!(g.heap_bytes() > 0);
    }

    #[test]
    fn extend_edges_dedups_against_batch_and_existing() {
        let (mut g, n) = diamond();
        let inserted = g.extend_edges(vec![
            (n[0], n[1]), // already present
            (n[3], n[0]), // new
            (n[3], n[0]), // duplicate inside the batch
            (n[1], n[2]), // new
        ]);
        assert_eq!(inserted, 2);
        assert_eq!(g.edge_count(), 6);
        assert!(g.has_edge(n[3], n[0]));
        assert!(g.has_edge(n[1], n[2]));
        // Adjacency is sorted after a bulk insert.
        assert_eq!(g.out_neighbors(n[0]), &[n[1], n[2]]);
        assert_eq!(g.in_neighbors(n[0]), &[n[3]]);
        // Empty batch is a no-op.
        assert_eq!(g.extend_edges(std::iter::empty()), 0);
        assert_eq!(g.edge_count(), 6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn extend_edges_rejects_out_of_bounds() {
        let (mut g, n) = diamond();
        g.extend_edges(vec![(n[0], NodeId(99))]);
    }

    #[test]
    fn freeze_matches_graph() {
        let (g, n) = diamond();
        let csr = g.freeze();
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        assert_eq!(csr.label(n[1]), g.label(n[1]));
    }

    #[test]
    fn with_capacity_starts_empty() {
        let g = LabeledGraph::with_capacity(100);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }
}
