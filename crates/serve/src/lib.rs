//! # qpgc_serve — snapshot-based concurrent query serving
//!
//! The paper's punchline is that compressed graphs are "just graphs": any
//! existing query infrastructure can serve them directly. This crate is that
//! infrastructure in miniature — a read-optimized, concurrently-served view
//! over the compressions maintained by [`qpgc::maintenance`].
//!
//! ## Architecture
//!
//! Two backends serve reachability behind one trait pair —
//! [`ReachStore`] (writer surface: `load`, `watermark`, `try_apply`) and
//! [`ReachCut`] (the immutable view a `load` hands back):
//!
//! * [`CompressedStore`] — the single-writer store; its cut is a
//!   [`Snapshot`].
//! * [`ShardedStore`] — the router; a deterministic hash partition
//!   ([`qpgc_graph::NodePartition`]) splits the node space across
//!   [`StoreConfig::shards`] maintained subgraphs whose slices of every
//!   batch the one writer stages in shard order, with the single store's
//!   stage-then-commit protocol; cross-shard edges stay on the router,
//!   and its cut is a [`ShardedSnapshot`] — one watermark,
//!   every shard snapshot at exactly that version, and the
//!   [`boundary::BoundarySummary`] built over them, swapped in atomically
//!   so readers never see a torn cut. The summary is the shards' own
//!   `Gr`s run as one graph: a node vertex per boundary node, class
//!   vertices per quotient row, one condensation per watermark bump, and
//!   a cross-shard query is one AND of two interned bit-rows.
//!
//! The pieces underneath:
//!
//! * [`Snapshot`] — an immutable, versioned view of one compression state:
//!   the CSR form of `Gr` (rows indexed by the maintainer's *stable* class
//!   ids), the node → hypernode index, the cyclic flags, an optional
//!   [`TwoHopIndex`] over `Gr`, and (optionally) an `Arc`-shared
//!   [`PatternView`] — the stable-id CSR form of the pattern
//!   compression. Everything a query needs, nothing a writer can touch.
//! * [`CompressedStore`] — owns the current `Arc<Snapshot>` behind a
//!   pointer-swap. Readers call [`CompressedStore::load`], which clones the
//!   `Arc` (the read lock is held only for the pointer copy — never during
//!   query evaluation), and then answer any number of queries lock-free on
//!   the immutable snapshot. A single writer applies [`UpdateBatch`]es
//!   through the incremental-maintenance façade and publishes a fresh
//!   snapshot atomically; readers holding the old `Arc` keep a consistent
//!   pre-batch view until they re-`load`.
//! * [`bulk_reachable`] — shards a query batch across `std::thread::scope`
//!   workers, all reading the same shared cut (generic over [`ReachCut`],
//!   so it serves both backends). It is the one thing
//!   [`StoreConfig::threads`] governs: compression, maintenance and
//!   publication run on the writer's thread.
//! * Snapshot *publication* has one construction per query class: a batch
//!   whose `PartitionDelta` is empty on a side republishes that side's
//!   structures `Arc`-shared with the previous snapshot, every other batch
//!   builds them from the maintainer's stable-id export
//!   (`Snapshot::build`: transitive reduction, CSR, and — when configured
//!   — the 2-hop index over it, landmark order and labels read off the
//!   closure the reduction swept; `PatternView::build` for the pattern
//!   side). The two sides decide independently, and
//!   [`ApplyReport::path`] records what happened.
//!
//! ## Consistency model
//!
//! Cuts are immutable and versioned. A reader sees exactly the state
//! `R(G ⊕ ΔG₁ ⊕ … ⊕ ΔGₖ)` for the `k` batches applied before its `load` —
//! never a partially-applied batch, never a mix of two states. On the
//! sharded store this extends across shards: every shard receives its
//! (possibly empty) slice of every batch, so shard versions track the
//! router watermark, and the cut swap happens once, after every shard has
//! staged. The concurrency tests pin this down by checking
//! every concurrent answer against a BFS oracle on the exact graph version
//! the cut advertises.
//!
//! [`TwoHopIndex`]: qpgc_reach::two_hop::TwoHopIndex
//! [`UpdateBatch`]: qpgc_graph::UpdateBatch
//! [`PatternView`]: qpgc_pattern::view::PatternView

#![warn(missing_docs)]

pub mod api;
pub mod boundary;
pub mod bulk;
pub mod error;
pub mod persist;
pub mod sharded;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use api::{ReachCut, ReachStore};
pub use boundary::BoundarySummary;
pub use bulk::bulk_reachable;
pub use error::{LogError, StoreError};
pub use persist::{load_snapshot, save_snapshot};
pub use sharded::{ShardedSnapshot, ShardedStore};
pub use snapshot::{QuotientCsr, Snapshot, SnapshotFormat};
pub use store::{
    ApplyPath, ApplyReport, CompressedStore, ShardApply, StoreConfig, StoreConfigBuilder,
};
pub use wal::{LogContents, UpdateLog};
