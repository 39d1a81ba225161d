//! Edge update representation (`ΔG` in the paper).
//!
//! Section 5 studies batch updates: a list of edge insertions and deletions
//! applied to the data graph. [`UpdateBatch`] is that list; it also knows how
//! to apply itself to a [`LabeledGraph`] and how to *normalize* itself
//! (dropping updates that are no-ops against a given graph, and cancelling
//! an insertion immediately followed by a deletion of the same edge), which
//! keeps the incremental algorithms' affected areas honest.

use std::collections::HashMap;
use std::fmt;

use crate::graph::LabeledGraph;
use crate::ids::NodeId;

/// A single edge update.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Update {
    /// Insert the edge `(from, to)`.
    Insert(NodeId, NodeId),
    /// Delete the edge `(from, to)`.
    Delete(NodeId, NodeId),
}

impl Update {
    /// The edge affected by this update.
    pub fn edge(&self) -> (NodeId, NodeId) {
        match *self {
            Update::Insert(u, v) | Update::Delete(u, v) => (u, v),
        }
    }

    /// `true` for insertions.
    pub fn is_insert(&self) -> bool {
        matches!(self, Update::Insert(_, _))
    }
}

/// A plain list of edges, as returned by [`UpdateBatch::split`].
pub type EdgeList = Vec<(NodeId, NodeId)>;

/// An ordered list of edge updates (`ΔG`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    updates: Vec<Update>,
}

impl UpdateBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a batch from a list of updates.
    pub fn from_updates(updates: Vec<Update>) -> Self {
        UpdateBatch { updates }
    }

    /// Appends an insertion.
    pub fn insert(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.updates.push(Update::Insert(u, v));
        self
    }

    /// Appends a deletion.
    pub fn delete(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.updates.push(Update::Delete(u, v));
        self
    }

    /// The updates, in application order.
    pub fn updates(&self) -> &[Update] {
        &self.updates
    }

    /// Number of updates (`|ΔG|`).
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// `true` when the batch contains no update.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Applies the batch to `g` in order (`G ⊕ ΔG`). Inserting an existing
    /// edge or deleting a missing edge is a silent no-op, mirroring the
    /// paper's set semantics for `E`.
    pub fn apply_to(&self, g: &mut LabeledGraph) {
        for u in &self.updates {
            match *u {
                Update::Insert(a, b) => {
                    g.add_edge(a, b);
                }
                Update::Delete(a, b) => {
                    g.remove_edge(a, b);
                }
            }
        }
    }

    /// Returns a normalized copy of the batch with respect to the *current*
    /// graph `g`:
    ///
    /// * insertions of edges already in `g` are dropped;
    /// * deletions of edges not in `g` are dropped;
    /// * for each edge, only the *net effect* of the batch is kept (an
    ///   insert followed by a delete of the same edge cancels out, and vice
    ///   versa).
    ///
    /// The result applied to `g` yields the same graph as the original
    /// batch, but every remaining update really changes the edge set.
    pub fn normalized(&self, g: &LabeledGraph) -> UpdateBatch {
        // Net desired state per touched edge: true = present, false = absent.
        let mut desired: HashMap<(NodeId, NodeId), bool> = HashMap::new();
        let mut order: Vec<(NodeId, NodeId)> = Vec::new();
        for u in &self.updates {
            let e = u.edge();
            if !desired.contains_key(&e) {
                order.push(e);
            }
            desired.insert(e, u.is_insert());
        }
        let mut out = UpdateBatch::new();
        for e in order {
            let want = desired[&e];
            let have = g.has_edge(e.0, e.1);
            if want && !have {
                out.insert(e.0, e.1);
            } else if !want && have {
                out.delete(e.0, e.1);
            }
        }
        out
    }

    /// Splits the batch into (insertions, deletions) preserving order within
    /// each kind.
    pub fn split(&self) -> (EdgeList, EdgeList) {
        let mut ins = Vec::new();
        let mut del = Vec::new();
        for u in &self.updates {
            match *u {
                Update::Insert(a, b) => ins.push((a, b)),
                Update::Delete(a, b) => del.push((a, b)),
            }
        }
        (ins, del)
    }
}

/// Why an [`UpdateBatch`] was rejected by [`UpdateBatch::validate`].
///
/// Validation runs *before* any state is touched, so a rejected batch
/// leaves graph, maintainers, and served snapshots exactly as they were.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// An update referenced a node id outside the store's node space.
    /// Updates only rewire edges; the node set is fixed at construction.
    NodeOutOfBounds {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the store's graph.
        node_count: usize,
    },
    /// The same edge appears with *both* an insertion and a deletion in
    /// one batch. The net effect would silently depend on update order —
    /// almost always a producer bug — so stores reject the batch instead
    /// of guessing.
    ConflictingUpdates {
        /// Source of the contested edge.
        from: NodeId,
        /// Target of the contested edge.
        to: NodeId,
    },
    /// An insertion endpoint carries no label, on a store whose query
    /// class needs labels (pattern/bisimulation serving). Reachability
    /// ignores labels; bisimulation quotients are label-keyed, so an
    /// unlabeled endpoint can never participate in a match and the insert
    /// is rejected as meaningless.
    UnlabeledEndpoint {
        /// The label-less node.
        node: NodeId,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::NodeOutOfBounds { node, node_count } => write!(
                f,
                "update references node {node}, out of bounds for a store with {node_count} nodes"
            ),
            BatchError::ConflictingUpdates { from, to } => write!(
                f,
                "batch both inserts and deletes the edge ({from}, {to}); \
                 resolve the conflict before applying"
            ),
            BatchError::UnlabeledEndpoint { node } => write!(
                f,
                "insertion endpoint {node} has no label, but the store serves label-keyed queries"
            ),
        }
    }
}

impl std::error::Error for BatchError {}

impl UpdateBatch {
    /// Validates the batch against a store over `node_count` nodes:
    ///
    /// * every referenced node id must lie in `0..node_count` (updates
    ///   rewire edges; they never grow the node set);
    /// * no edge may appear with both an insertion and a deletion — the
    ///   net effect would depend silently on update order.
    ///
    /// Returns the first violation in update order. `Ok(())` guarantees
    /// the batch is safe to hand to the incremental maintainers.
    pub fn validate(&self, node_count: usize) -> Result<(), BatchError> {
        let mut kinds: HashMap<(NodeId, NodeId), bool> = HashMap::with_capacity(self.len());
        for u in &self.updates {
            let (a, b) = u.edge();
            for node in [a, b] {
                if node.index() >= node_count {
                    return Err(BatchError::NodeOutOfBounds { node, node_count });
                }
            }
            if *kinds.entry((a, b)).or_insert(u.is_insert()) != u.is_insert() {
                return Err(BatchError::ConflictingUpdates { from: a, to: b });
            }
        }
        Ok(())
    }

    /// Validates that every *insertion* endpoint carries a non-empty label
    /// in `g` — the extra check label-keyed (pattern-serving) stores run on
    /// top of [`UpdateBatch::validate`]. Deletions pass: removing an edge
    /// from an unlabeled node cannot corrupt a bisimulation quotient.
    pub fn validate_labels(&self, g: &LabeledGraph) -> Result<(), BatchError> {
        for u in &self.updates {
            if !u.is_insert() {
                continue;
            }
            let (a, b) = u.edge();
            for node in [a, b] {
                if g.label_name(node).is_none_or(str::is_empty) {
                    return Err(BatchError::UnlabeledEndpoint { node });
                }
            }
        }
        Ok(())
    }
}

impl FromIterator<Update> for UpdateBatch {
    fn from_iter<T: IntoIterator<Item = Update>>(iter: T) -> Self {
        UpdateBatch {
            updates: iter.into_iter().collect(),
        }
    }
}

/// The structured difference between two partition states (`ΔP`): which
/// classes died and which were born in one incremental maintenance step,
/// and which kept their members but not their cones.
///
/// Exported by the incremental algorithms (`incRCM`, `incPCM`) alongside
/// their scalar statistics; serving layers read it to tell a batch that
/// left the compression untouched (the served structure is shared) from
/// one that needs a new publication. Class ids are the maintainer's
/// *stable* ids: ids absent from both `removed` and `born` kept their
/// membership bit-for-bit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartitionDelta {
    /// Class ids retired by the step, ascending.
    pub removed: Vec<u32>,
    /// Stable ids of the classes the step created, in splice order (ids
    /// are recycled, so a born id may be one this delta also removed).
    pub born: Vec<u32>,
    /// Class ids the step kept with their members and cyclic flag but
    /// whose ancestors or descendants changed (`incRCM` only), ascending:
    /// their class-level edges moved, so the compression did too.
    pub rewired: Vec<u32>,
    /// Size of the stable id space after the step (`max id + 1` over live
    /// and recycled ids); derived snapshot structures size their rows by it.
    pub id_space: usize,
}

impl PartitionDelta {
    /// `true` when the step changed no class: none retired, born or
    /// rewired.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.born.is_empty() && self.rewired.is_empty()
    }

    /// Classes churned (died + born) by the step.
    pub fn churned(&self) -> usize {
        self.removed.len() + self.born.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> (LabeledGraph, Vec<NodeId>) {
        let mut g = LabeledGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node_with_label("X")).collect();
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[2]);
        (g, n)
    }

    #[test]
    fn apply_inserts_and_deletes() {
        let (mut g, n) = sample_graph();
        let mut b = UpdateBatch::new();
        b.insert(n[2], n[3]).delete(n[0], n[1]);
        assert_eq!(b.len(), 2);
        b.apply_to(&mut g);
        assert!(g.has_edge(n[2], n[3]));
        assert!(!g.has_edge(n[0], n[1]));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn apply_is_idempotent_on_noops() {
        let (mut g, n) = sample_graph();
        let mut b = UpdateBatch::new();
        b.insert(n[0], n[1]); // already present
        b.delete(n[3], n[0]); // not present
        b.apply_to(&mut g);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn normalized_drops_noops_and_cancels() {
        let (g, n) = sample_graph();
        let mut b = UpdateBatch::new();
        b.insert(n[0], n[1]); // already present → dropped
        b.delete(n[3], n[2]); // absent → dropped
        b.insert(n[2], n[3]); // net: insert then delete → cancelled
        b.delete(n[2], n[3]);
        b.delete(n[1], n[2]); // real deletion kept
        b.insert(n[0], n[2]); // real insertion kept
        let norm = b.normalized(&g);
        assert_eq!(norm.len(), 2);
        assert_eq!(
            norm.updates(),
            &[Update::Delete(n[1], n[2]), Update::Insert(n[0], n[2])]
        );

        // Same end state either way.
        let mut g1 = g.clone();
        b.apply_to(&mut g1);
        let mut g2 = g.clone();
        norm.apply_to(&mut g2);
        let mut e1: Vec<_> = g1.edges().collect();
        let mut e2: Vec<_> = g2.edges().collect();
        e1.sort();
        e2.sort();
        assert_eq!(e1, e2);
    }

    #[test]
    fn net_effect_keeps_last_write() {
        let (g, n) = sample_graph();
        let mut b = UpdateBatch::new();
        // delete then re-insert an existing edge: net effect is "present",
        // edge already present → nothing to do.
        b.delete(n[0], n[1]);
        b.insert(n[0], n[1]);
        let norm = b.normalized(&g);
        assert!(norm.is_empty());
    }

    #[test]
    fn split_by_kind() {
        let (_, n) = sample_graph();
        let mut b = UpdateBatch::new();
        b.insert(n[0], n[2]).delete(n[1], n[2]).insert(n[3], n[0]);
        let (ins, del) = b.split();
        assert_eq!(ins, vec![(n[0], n[2]), (n[3], n[0])]);
        assert_eq!(del, vec![(n[1], n[2])]);
    }

    #[test]
    fn partition_delta_counts_churn() {
        let delta = PartitionDelta {
            removed: vec![2, 5, 7],
            born: vec![2, 8, 5],
            rewired: Vec::new(),
            id_space: 9,
        };
        assert!(!delta.is_empty());
        assert_eq!(delta.churned(), 6);
        assert!(PartitionDelta::default().is_empty());
        let rewired = PartitionDelta {
            rewired: vec![3],
            ..PartitionDelta::default()
        };
        assert!(
            !rewired.is_empty(),
            "a rewired class changes the compression"
        );
    }

    #[test]
    fn validate_catches_out_of_range_ids() {
        let mut b = UpdateBatch::new();
        b.insert(NodeId(1), NodeId(7));
        assert_eq!(
            b.validate(4),
            Err(BatchError::NodeOutOfBounds {
                node: NodeId(7),
                node_count: 4
            })
        );
        assert_eq!(b.validate(8), Ok(()));
        assert_eq!(UpdateBatch::new().validate(0), Ok(()));
    }

    #[test]
    fn validate_rejects_conflicting_updates_but_not_duplicates() {
        let mut b = UpdateBatch::new();
        b.insert(NodeId(0), NodeId(1));
        b.insert(NodeId(0), NodeId(1)); // duplicate of the same kind: fine
        b.delete(NodeId(1), NodeId(2));
        assert_eq!(b.validate(3), Ok(()));
        b.delete(NodeId(0), NodeId(1)); // now contradicts the insert
        assert_eq!(
            b.validate(3),
            Err(BatchError::ConflictingUpdates {
                from: NodeId(0),
                to: NodeId(1)
            })
        );
    }

    #[test]
    fn validate_labels_rejects_unlabeled_insert_endpoints_only() {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        let bare = g.add_node_with_label("");
        let mut ins = UpdateBatch::new();
        ins.insert(a, bare);
        assert_eq!(
            ins.validate_labels(&g),
            Err(BatchError::UnlabeledEndpoint { node: bare })
        );
        let mut del = UpdateBatch::new();
        del.delete(a, bare);
        assert_eq!(del.validate_labels(&g), Ok(()));
    }

    #[test]
    fn batch_error_display() {
        let e = BatchError::NodeOutOfBounds {
            node: NodeId(9),
            node_count: 3,
        };
        assert!(e.to_string().contains("out of bounds"));
        let c = BatchError::ConflictingUpdates {
            from: NodeId(0),
            to: NodeId(1),
        };
        assert!(c.to_string().contains("inserts and deletes"));
        let u = BatchError::UnlabeledEndpoint { node: NodeId(2) };
        assert!(u.to_string().contains("no label"));
    }

    #[test]
    fn from_iterator() {
        let b: UpdateBatch = vec![Update::Insert(NodeId(0), NodeId(1))]
            .into_iter()
            .collect();
        assert_eq!(b.len(), 1);
        assert!(b.updates()[0].is_insert());
        assert_eq!(b.updates()[0].edge(), (NodeId(0), NodeId(1)));
    }
}
