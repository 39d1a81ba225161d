//! The unified serving API: one trait pair every backend speaks.
//!
//! [`ReachStore`] is the writer/router surface — snapshot access, a
//! watermark, update application — and [`ReachCut`] is the immutable view
//! a `load` hands back. [`CompressedStore`]
//! (one maintained graph) and [`ShardedStore`](crate::sharded::ShardedStore)
//! (hash-partitioned, one maintained graph per shard) both implement the
//! pair, which is what
//! lets the model checker and the bench harness drive either backend
//! through one generic code path: same seeded streams, same oracles, no
//! per-backend forks.

use std::sync::Arc;

use qpgc_graph::{NodeId, UpdateBatch};

use crate::error::StoreError;
use crate::snapshot::Snapshot;
use crate::store::{ApplyReport, CompressedStore};

/// One immutable, internally consistent read cut.
///
/// For a [`CompressedStore`] this is a [`Snapshot`]; for a
/// [`ShardedStore`](crate::sharded::ShardedStore) it is a
/// [`ShardedSnapshot`](crate::sharded::ShardedSnapshot) — one watermarked
/// set of per-shard snapshots plus the boundary graph over them. Either
/// way the cut never mutates after publication, so any number of readers
/// query it without synchronization.
pub trait ReachCut: Send + Sync {
    /// The number of batches applied before this cut was published (the
    /// sharded store's watermark).
    fn version(&self) -> u64;

    /// Answers the reachability query `QR(u, w)` posed against the
    /// original graph.
    fn reachable(&self, u: NodeId, w: NodeId) -> bool;
}

/// Forwarding impl so `&Arc<Snapshot>` (the shape `load` hands out)
/// plugs straight into [`bulk_reachable`](crate::bulk_reachable).
impl<C: ReachCut + ?Sized> ReachCut for std::sync::Arc<C> {
    fn version(&self) -> u64 {
        (**self).version()
    }

    fn reachable(&self, u: NodeId, w: NodeId) -> bool {
        (**self).reachable(u, w)
    }
}

impl ReachCut for Snapshot {
    fn version(&self) -> u64 {
        Snapshot::version(self)
    }

    fn reachable(&self, u: NodeId, w: NodeId) -> bool {
        Snapshot::reachable(self, u, w)
    }
}

/// A concurrently served, incrementally maintained reachability store.
///
/// The contract every backend upholds:
///
/// * [`ReachStore::load`] returns an immutable cut; evaluation on it never
///   blocks the writer and never observes a partially applied batch.
/// * [`ReachStore::watermark`] is the version of the currently published
///   cut — monotonically increasing, bumped exactly once per applied
///   batch.
/// * [`ReachStore::try_apply`] routes one [`UpdateBatch`] through
///   incremental maintenance and publishes a fresh cut atomically;
///   concurrent callers are serialized. **Atomic batch semantics**: on
///   `Err` the store is exactly as before — watermark untouched, old cut
///   still served, the next clean batch free to proceed.
pub trait ReachStore {
    /// The cut type [`ReachStore::load`] publishes.
    type Cut: ReachCut;

    /// The currently published cut. Hold it as long as you like — the
    /// writer never mutates published cuts, it only swaps in new ones.
    fn load(&self) -> Arc<Self::Cut>;

    /// Version of the currently published cut.
    fn watermark(&self) -> u64 {
        self.load().version()
    }

    /// Applies `ΔG` and atomically publishes a fresh cut — or rejects /
    /// rolls back the batch, leaving the served cut bit-identical to
    /// before.
    fn try_apply(&self, batch: &UpdateBatch) -> Result<ApplyReport, StoreError>;

    /// Answers one reachability query on the current cut.
    fn reachable(&self, u: NodeId, w: NodeId) -> bool {
        self.load().reachable(u, w)
    }

    /// Answers a batch of reachability queries, all against one cut.
    fn bulk_reachable(&self, queries: &[(NodeId, NodeId)]) -> Vec<bool>;
}

impl ReachStore for CompressedStore {
    type Cut = Snapshot;

    fn load(&self) -> Arc<Snapshot> {
        CompressedStore::load(self)
    }

    fn watermark(&self) -> u64 {
        CompressedStore::version(self)
    }

    fn try_apply(&self, batch: &UpdateBatch) -> Result<ApplyReport, StoreError> {
        CompressedStore::try_apply(self, batch)
    }

    fn bulk_reachable(&self, queries: &[(NodeId, NodeId)]) -> Vec<bool> {
        CompressedStore::bulk_reachable(self, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use qpgc_graph::LabeledGraph;

    /// Exercises a backend purely through the trait surface — the generic
    /// path the model checker and bench harness use.
    fn drive<S: ReachStore>(store: S) {
        assert_eq!(store.watermark(), 0);
        assert!(ReachStore::reachable(&store, NodeId(0), NodeId(2)));
        let mut batch = UpdateBatch::new();
        batch.delete(NodeId(1), NodeId(2));
        let report = store.try_apply(&batch).expect("batch applies");
        assert_eq!(report.version, 1);
        assert_eq!(store.watermark(), 1);
        let cut = store.load();
        assert_eq!(cut.version(), 1);
        assert!(!cut.reachable(NodeId(0), NodeId(2)));
        assert_eq!(
            store.bulk_reachable(&[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))]),
            vec![true, false]
        );
    }

    #[test]
    fn compressed_store_speaks_the_trait() {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("X");
        let b = g.add_node_with_label("X");
        let c = g.add_node_with_label("X");
        g.add_edge(a, b);
        g.add_edge(b, c);
        drive(CompressedStore::new(g, StoreConfig::default()));
    }
}
