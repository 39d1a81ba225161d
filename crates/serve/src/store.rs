//! The concurrent store: one writer, any number of snapshot readers.
//!
//! ## Failure semantics
//!
//! Application is **stage-then-commit**, one protocol for both stores
//! (the sharded router runs it once per shard, in shard order, on the
//! same thread): `stage` validates the batch up front (rejections touch
//! nothing), then runs maintenance and snapshot construction under
//! `catch_unwind`. Only a fully staged application commits — appends to
//! the write-behind log and swaps the snapshot `Arc` in at the next
//! version; a panic or log failure anywhere in between rolls the writer
//! back to the pre-batch graph (inverting the normalized batch and
//! recompressing) and returns a [`StoreError`] with the old snapshot still
//! served and the watermark untouched. The recompression assigns fresh
//! stable class ids; that is harmless, because no publication reads its
//! predecessor's ids — a republished or `Arc`-shared structure is
//! self-contained and describes the same (restored) graph, and everything
//! else is built from the maintainer's current export.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use qpgc::maintenance::{Maintained, MaintainedGraph};
use qpgc_fault::fail_point;
use qpgc_graph::{IncStats, LabeledGraph, NodeId, UpdateBatch};
use qpgc_pattern::view::PatternView;
use qpgc_reach::two_hop::TwoHopConfig;

use crate::error::{panic_cause, StoreError};
use crate::snapshot::{Snapshot, SnapshotFormat};
use crate::wal::{corrupt, UpdateLog};

/// `Mutex::lock` with poison recovery: a poisoned lock means some earlier
/// holder panicked, but the apply pipeline catches every panic *before*
/// the guard drops and rolls the state back, so the inner value is always
/// the last consistent (pre-batch) state — recover it instead of
/// propagating the poison to readers.
#[expect(clippy::disallowed_methods, reason = "recovers poison")]
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `RwLock::read` with poison recovery — published `Arc`s are immutable,
/// so the last published value is always safe to serve.
#[expect(clippy::disallowed_methods, reason = "recovers poison")]
pub(crate) fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// `RwLock::write` with poison recovery, for the publication pointer swap.
#[expect(clippy::disallowed_methods, reason = "recovers poison")]
pub(crate) fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Configuration of a serving store ([`CompressedStore`] or
/// [`ShardedStore`](crate::sharded::ShardedStore)).
///
/// Construct it with [`StoreConfig::builder`] or take
/// [`StoreConfig::default`]:
///
/// ```
/// use qpgc_serve::StoreConfig;
/// let config = StoreConfig::builder()
///     .two_hop(Default::default())
///     .shards(4)
///     .build();
/// assert_eq!(config.shards, 4);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Worker threads a store-level bulk read
    /// ([`CompressedStore::bulk_reachable`], and the sharded store's) is
    /// spread across; `0` means `available_parallelism`. Nothing else
    /// reads it: compression, maintenance and publication run on the
    /// writer's thread, so no published structure can depend on it.
    pub threads: usize,
    /// Build a 2-hop index over `Gr` in every snapshot (queries become
    /// label intersections instead of BFS). `None` skips the index.
    pub two_hop: Option<TwoHopConfig>,
    /// Also maintain and serve the pattern-preserving compression. Off by
    /// default: it adds incremental bisimulation maintenance (over the same
    /// data graph the reachability side maintains) to every batch. A batch
    /// that leaves the bisimulation partition untouched shares the previous
    /// snapshot's [`PatternView`] pointer-wise instead of building a new
    /// one.
    pub serve_patterns: bool,
    /// Number of hash-partitioned shards a
    /// [`ShardedStore`](crate::sharded::ShardedStore) splits the node space
    /// across (the router's writer then stages each shard's slice of a
    /// batch in shard order). `1` — the default — is the degenerate
    /// single-slice router; [`CompressedStore`] ignores the field entirely.
    pub shards: usize,
    /// Which backend publications serve their quotient CSR in — plain
    /// `u32` arrays or the gap/ζ-coded succinct form. See
    /// [`SnapshotFormat`]. Default: `Plain`.
    pub snapshot_format: SnapshotFormat,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            threads: 0,
            two_hop: None,
            serve_patterns: false,
            shards: 1,
            snapshot_format: SnapshotFormat::default(),
        }
    }
}

impl StoreConfig {
    /// Starts a [`StoreConfigBuilder`] seeded with the defaults. The
    /// builder is the supported constructor; `..Default::default()` struct
    /// updates keep compiling but new knobs are only promised a builder
    /// method.
    pub fn builder() -> StoreConfigBuilder {
        StoreConfigBuilder {
            config: StoreConfig::default(),
        }
    }
}

/// Builder for [`StoreConfig`] — see [`StoreConfig::builder`].
#[derive(Clone, Debug, Default)]
pub struct StoreConfigBuilder {
    config: StoreConfig,
}

impl StoreConfigBuilder {
    /// Worker threads for store-level bulk reads (`0` means
    /// `available_parallelism`); see [`StoreConfig::threads`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Builds a 2-hop index over `Gr` in every snapshot.
    pub fn two_hop(mut self, config: TwoHopConfig) -> Self {
        self.config.two_hop = Some(config);
        self
    }

    /// Also maintain and serve the pattern-preserving compression.
    pub fn patterns(mut self, serve_patterns: bool) -> Self {
        self.config.serve_patterns = serve_patterns;
        self
    }

    /// Number of hash-partitioned shards for a
    /// [`ShardedStore`](crate::sharded::ShardedStore) (`0` is clamped to
    /// `1`).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards.max(1);
        self
    }

    /// Which backend publications serve their quotient CSR in (see
    /// [`SnapshotFormat`]).
    pub fn snapshot_format(mut self, format: SnapshotFormat) -> Self {
        self.config.snapshot_format = format;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> StoreConfig {
        self.config
    }
}

/// How one [`CompressedStore::try_apply`] call published its snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ApplyPath {
    /// The batch changed no equivalence class on any served side; the
    /// previous snapshot was republished under the new version with every
    /// structure — pattern view included — `Arc`-shared.
    Republished,
    /// Never constructed: a served structure has one construction
    /// ([`ApplyPath::Rebuilt`]) and is never patched. The variant and its
    /// field stay only because `qpgc_benchmark/src/adapter.rs` destructures
    /// them and the product may not edit the benchmark; both go the day the
    /// benchmark drops `serve.store.{patched,two_hop_patched}`.
    Patched {
        /// Always `false`.
        two_hop_patched: bool,
    },
    /// Something was built from the maintainer's stable-id export: the
    /// reachability structures when the batch changed the reachability
    /// partition, or — on a reachability-quiet batch, reported with
    /// `churn == 0.0` and the reachability structures `Arc`-shared — only
    /// the pattern view.
    Rebuilt {
        /// Fraction of live reachability classes the batch churned:
        /// retired, born or rewired.
        churn: f64,
        /// Pattern-side churn (churned classes / live bisimulation
        /// classes) when patterns are served and the batch changed the
        /// bisimulation partition, i.e. a new view was built; `None` when
        /// the pattern view was shared untouched or patterns are not
        /// served.
        pattern_churn: Option<f64>,
    },
}

/// How one shard of a sharded application fared: the per-shard slice of a
/// sharded [`ApplyReport`].
#[derive(Clone, Copy, Debug)]
pub struct ShardApply {
    /// Shard index in `0..StoreConfig::shards`.
    pub shard: usize,
    /// Which construction path published that shard's snapshot.
    pub path: ApplyPath,
    /// Maintenance statistics of the shard's reachability side.
    pub reach: IncStats,
    /// Wall-clock of building that shard's successor snapshot.
    pub publish_ms: f64,
}

/// What one `try_apply` call did — on a [`CompressedStore`] or, shard by shard,
/// on a [`ShardedStore`](crate::sharded::ShardedStore).
///
/// The scalar fields are the **aggregate view** and mean the same thing on
/// both backends, so single-store accessors keep working unchanged: on a
/// sharded application `reach` sums the per-shard maintenance statistics,
/// `path` is the most expensive path any shard took (`Rebuilt` over
/// `Republished`, carrying the maximum churn observed), and `publish_ms`
/// spans the full publication — every shard's publication (they run one
/// after the other on the writer's thread) *plus* the router's watermark
/// bump (boundary-summary build and cut swap), so it is end-to-end
/// comparable with the single-store number. The per-shard breakdown rides
/// along in [`ApplyReport::shards`] (empty on single-store applies).
#[derive(Clone, Debug)]
pub struct ApplyReport {
    /// Version of the snapshot published by this batch (the router
    /// watermark, on a sharded store).
    pub version: u64,
    /// Maintenance statistics of the reachability side (summed across
    /// shards on a sharded store).
    pub reach: IncStats,
    /// Maintenance statistics of the pattern side, when served.
    pub pattern: Option<IncStats>,
    /// Which construction path published the snapshot (the most expensive
    /// per-shard path, on a sharded store).
    pub path: ApplyPath,
    /// Wall-clock of snapshot *publication* alone (building or
    /// republishing the new snapshot and swapping it in), excluding the
    /// incremental maintenance of the compressions. On a sharded store
    /// this is the sum of the shard publications **plus** the watermark
    /// bump that makes the new cut visible.
    pub publish_ms: f64,
    /// Per-shard application reports, in shard order; empty when the
    /// report came from a single [`CompressedStore`].
    pub shards: Vec<ShardApply>,
}

struct Writer {
    /// The one data graph and both maintained compressions over it.
    maintained: MaintainedGraph,
    /// Optional write-behind redo log: appended once a batch has fully
    /// staged, just before commit.
    log: Option<UpdateLog>,
}

/// A fully staged but uncommitted application of one batch to one
/// maintainer: the batch has run through maintenance and the successor
/// snapshot is built, but nothing is published — the served snapshot is
/// still the predecessor. A store commits it by swapping the snapshot in;
/// [`discard`] rolls the maintainer back instead.
pub(crate) struct Staged {
    pub(crate) snapshot: Arc<Snapshot>,
    pub(crate) reach: IncStats,
    pattern: Option<IncStats>,
    pub(crate) path: ApplyPath,
    /// Wall-clock of building the successor snapshot.
    pub(crate) build_ms: f64,
    /// The batch normalized against the pre-batch graph — what
    /// [`MaintainedGraph::recover_from_failed`] needs to invert the
    /// application exactly on the discard path.
    norm: UpdateBatch,
}

/// A concurrently-served, incrementally-maintained compressed graph store.
///
/// Readers and the writer never contend on query work:
///
/// * [`CompressedStore::load`] clones the current `Arc<Snapshot>` under a
///   read lock held only for the pointer copy; all query evaluation then
///   runs on the immutable snapshot with no synchronization at all.
/// * [`CompressedStore::try_apply`] (serialized by the writer mutex) routes
///   the batch through the writer's [`MaintainedGraph`] (`incRCM` /
///   `incPCM` over one shared data graph — no recompression), builds a
///   fresh snapshot, and publishes it by swapping the `Arc`. Readers
///   holding the previous snapshot keep an internally consistent
///   pre-batch view.
///
/// Snapshot construction cost is the price of publication, not of queries,
/// and is paid on the writer's thread.
pub struct CompressedStore {
    config: StoreConfig,
    writer: Mutex<Writer>,
    current: RwLock<Arc<Snapshot>>,
}

impl CompressedStore {
    /// Compresses `g`, builds the version-0 snapshot, and takes ownership of
    /// the graph for future maintenance.
    pub fn new(g: LabeledGraph, config: StoreConfig) -> Self {
        Self::at(g, config, 0)
    }

    /// [`CompressedStore::new`] serving its first snapshot at `version`.
    fn at(g: LabeledGraph, config: StoreConfig, version: u64) -> Self {
        let maintained = MaintainedGraph::new(g, config.serve_patterns);
        let snapshot = first_snapshot(&maintained, version, &config);
        CompressedStore {
            config,
            writer: Mutex::new(Writer {
                maintained,
                log: None,
            }),
            current: RwLock::new(Arc::new(snapshot)),
        }
    }

    /// [`CompressedStore::new`] with a crash-consistent [`UpdateLog`] at
    /// `path`: the log is created (truncating any previous file) with a
    /// base record of `g`, and every subsequently committed batch is
    /// appended write-behind — once a batch has fully staged, just before
    /// the snapshot swap. [`CompressedStore::recover_from_log`]
    /// reconstructs an answer-identical store from the file after a crash.
    pub fn new_with_log<P: AsRef<Path>>(
        g: LabeledGraph,
        config: StoreConfig,
        path: P,
    ) -> Result<Self, StoreError> {
        let log = UpdateLog::create(path, &g)?;
        let store = Self::new(g, config);
        lock_recover(&store.writer).log = Some(log);
        Ok(store)
    }

    /// Rebuilds a store from the update log at `path`: reads the base
    /// graph and every committed batch (tolerating a torn tail from a
    /// crash mid-append), applies the batches' edges — each validated as
    /// `try_apply` validates it — and compresses the final graph once, at
    /// version = the batch count. It answers queries identically to a
    /// store that applied the same prefix without crashing; it does
    /// **not** keep writing to the log.
    pub fn recover_from_log<P: AsRef<Path>>(
        path: P,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        let contents = UpdateLog::read(path)?;
        let g = replay(contents.graph, &contents.batches, &config)?;
        Ok(Self::at(g, config, contents.batches.len() as u64))
    }

    /// Persists the currently served cut to `path` as its plain parts —
    /// version, node index, cyclic flags and `Gr` in CSR, whatever backend
    /// the store serves (see [`crate::persist`]). The file is written
    /// beside `path` and renamed over it, so a failed save leaves the
    /// previous file intact. [`CompressedStore::boot_from_snapshot`]
    /// checks the file against the store's [`UpdateLog`].
    pub fn save_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<(), StoreError> {
        crate::persist::save_snapshot(&self.load(), path).map_err(StoreError::Log)
    }

    /// Recovers a store from a persisted snapshot plus the update log.
    /// The file (validated fail-closed — see [`crate::persist`]) names the
    /// version `k` to boot at. The log's first `k` batches are replayed as
    /// [`CompressedStore::recover_from_log`] replays them and compressed
    /// once at version `k`; the loaded cut must be that one, whatever the
    /// class ids (the same partition, cyclic flags and `Gr` edges, each
    /// class named by its first member); the batches past `k` then go
    /// through `try_apply`. So the file buys a consistency check, not a
    /// faster restart: boot costs recovery's compression plus the tail's
    /// maintenance.
    ///
    /// Fails when the snapshot file or the log is unreadable or corrupt,
    /// when the snapshot's version lies beyond the log's committed batch
    /// count, when the file's cut is not the log's at version `k`, or
    /// where `recover_from_log` fails.
    pub fn boot_from_snapshot<P: AsRef<Path>, Q: AsRef<Path>>(
        snapshot_path: P,
        log_path: Q,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        let mismatch = |detail: String| StoreError::Log(corrupt(0, detail));
        let loaded = crate::persist::load_snapshot(snapshot_path).map_err(StoreError::Log)?;
        let k = loaded.version();
        let contents = UpdateLog::read(log_path)?;
        let split = usize::try_from(k).map(|k| contents.batches.split_at_checked(k));
        let Ok(Some((prefix, tail))) = split else {
            return Err(mismatch(format!(
                "snapshot version {k} beyond the log's {} committed batches",
                contents.batches.len()
            )));
        };
        let store = Self::at(replay(contents.graph, prefix, &config)?, config, k);
        loaded
            .same_cut(&store.load())
            .map_err(|e| mismatch(format!("snapshot is not the log's cut at version {k}: {e}")))?;
        for batch in tail {
            store.try_apply(batch)?;
        }
        Ok(store)
    }

    /// The current snapshot. Hold it as long as you like — the writer never
    /// mutates published snapshots, it only swaps in new ones.
    pub fn load(&self) -> Arc<Snapshot> {
        read_recover(&self.current).clone()
    }

    /// Version of the currently published snapshot.
    pub fn version(&self) -> u64 {
        self.load().version()
    }

    /// Answers a batch of reachability queries on the current snapshot,
    /// sharded across the store's configured worker count. Loads the
    /// snapshot once — every query in the batch sees the same version.
    /// Callers wanting a different worker count (or to pin a snapshot
    /// across batches) use [`crate::bulk_reachable`] directly.
    pub fn bulk_reachable(&self, queries: &[(NodeId, NodeId)]) -> Vec<bool> {
        crate::bulk::bulk_reachable(&*self.load(), queries, self.config.threads)
    }

    /// Applies `ΔG`: updates the data graph and both maintained
    /// compressions through the incremental algorithms, then atomically
    /// publishes a fresh snapshot. Concurrent callers are serialized;
    /// readers are never blocked (except for the pointer swap itself). The
    /// batch either fully applies and publishes, or the store is left
    /// exactly as before — watermark untouched, old snapshot still served,
    /// the next clean batch free to proceed.
    ///
    /// Publication has one construction per side. A batch whose
    /// reachability [`PartitionDelta`] is empty republishes the previous
    /// snapshot's reachability structures (`Arc`-shared); any other batch
    /// runs `Snapshot::build` over the maintainer's stable-id state and
    /// the closure it holds of it.
    /// Pattern (when served), independently: an empty bisimulation delta
    /// shares the previous [`PatternView`] pointer-wise, any other runs
    /// [`PatternView::build`]. [`ApplyReport::path`] records what happened.
    ///
    /// [`PartitionDelta`]: qpgc_graph::update::PartitionDelta
    ///
    /// The pipeline is stage-then-commit. Validation
    /// ([`UpdateBatch::validate`], plus [`UpdateBatch::validate_labels`]
    /// when patterns are served) rejects malformed batches before any
    /// state is touched. Maintenance and snapshot construction then run
    /// under `catch_unwind`; a panic rolls the writer back to the
    /// pre-batch graph (inverting the normalized batch and recompressing)
    /// and surfaces as [`StoreError::WriterFailed`]. When the store carries an
    /// [`UpdateLog`], the batch is appended write-behind after staging;
    /// only then does the commit swap in the snapshot of the next version.
    /// The [`ShardedStore`](crate::sharded::ShardedStore) runs the same
    /// steps, staging once per shard.
    ///
    /// [`UpdateBatch::validate`]: qpgc_graph::UpdateBatch::validate
    /// [`UpdateBatch::validate_labels`]: qpgc_graph::UpdateBatch::validate_labels
    pub fn try_apply(&self, batch: &UpdateBatch) -> Result<ApplyReport, StoreError> {
        let mut guard = lock_recover(&self.writer);
        let w = &mut *guard;
        let staged = stage(&mut w.maintained, &self.load(), batch, &self.config)?;
        append_or_discard(
            &mut w.log,
            batch,
            std::slice::from_mut(&mut w.maintained),
            std::slice::from_ref(&staged),
        )?;
        let swap_start = std::time::Instant::now();
        let version = staged.snapshot.version();
        *write_recover(&self.current) = staged.snapshot;
        Ok(ApplyReport {
            version,
            reach: staged.reach,
            pattern: staged.pattern,
            path: staged.path,
            publish_ms: staged.build_ms + swap_start.elapsed().as_secs_f64() * 1e3,
            shards: Vec::new(),
        })
    }
}

/// The first snapshot of a freshly compressed maintainer, at `version`.
pub(crate) fn first_snapshot(m: &MaintainedGraph, version: u64, config: &StoreConfig) -> Snapshot {
    let pattern = m
        .pattern()
        .map(|p| Arc::new(PatternView::build(&p.stable_quotient())));
    Snapshot::build(version, m.reach(), pattern, config)
}

/// Rejects a batch `g` cannot take: [`UpdateBatch::validate`], plus
/// [`UpdateBatch::validate_labels`] when patterns are served.
fn validate(batch: &UpdateBatch, g: &LabeledGraph, config: &StoreConfig) -> Result<(), StoreError> {
    batch.validate(g.node_count())?;
    if config.serve_patterns {
        batch.validate_labels(g)?;
    }
    Ok(())
}

/// Both stores' recovery: applies the edges of `batches`, a prefix of a
/// log, to its base graph `g`, each batch first validated as [`stage`]
/// validates it, and returns the graph they reach.
pub(crate) fn replay(
    mut g: LabeledGraph,
    batches: &[UpdateBatch],
    config: &StoreConfig,
) -> Result<LabeledGraph, StoreError> {
    for batch in batches {
        validate(batch, &g, config)?;
        batch.apply_to(&mut g);
    }
    Ok(g)
}

/// Stages `batch` on `maintained` as the successor of `prev`, the snapshot
/// served for it — the staging step of both stores' protocol (a sharded
/// store runs it once per shard). Validation rejects a malformed batch
/// before anything is touched; the batch is then normalized once, and
/// maintenance and snapshot construction run under `catch_unwind`, a panic
/// rolling `maintained` back. On success nothing is published: the caller
/// commits the [`Staged`] snapshot or [`discard`]s it.
pub(crate) fn stage(
    maintained: &mut MaintainedGraph,
    prev: &Snapshot,
    batch: &UpdateBatch,
    config: &StoreConfig,
) -> Result<Staged, StoreError> {
    validate(batch, maintained.graph(), config)?;
    // Normalized once, against the pre-batch graph: what both
    // maintainers consume, and the exact inverse the rollback path
    // needs if anything past this point faults.
    let norm = maintained.normalize(batch);
    let next = prev.version() + 1;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        fail_point!("store/maintain");
        let Maintained {
            reach: (reach_stats, delta),
            pattern: pattern_result,
        } = maintained.apply_normalized(&norm);
        let pattern_stats = pattern_result.as_ref().map(|&(stats, _)| stats);
        fail_point!("store/stage");
        let build_start = std::time::Instant::now();
        let (pattern_view, pattern_churn) = match (maintained.pattern(), &pattern_result) {
            // Quiet on the bisimulation side: share the served view.
            (Some(_), Some((_, pdelta))) if pdelta.is_empty() => (prev.pattern_arc(), None),
            (Some(p), Some((_, pdelta))) => {
                let spq = p.stable_quotient();
                let churn = pdelta.churned() as f64 / spq.class_count().max(1) as f64;
                (Some(Arc::new(PatternView::build(&spq))), Some(churn))
            }
            _ => (None, None),
        };
        let (snapshot, path) = if delta.is_empty() {
            let path = match pattern_churn {
                None => ApplyPath::Republished,
                Some(_) => ApplyPath::Rebuilt {
                    churn: 0.0,
                    pattern_churn,
                },
            };
            (Snapshot::republish(prev, next, pattern_view), path)
        } else {
            let reach = maintained.reach();
            let churn =
                (delta.churned() + delta.rewired.len()) as f64 / reach.class_count().max(1) as f64;
            (
                Snapshot::build(next, reach, pattern_view, config),
                ApplyPath::Rebuilt {
                    churn,
                    pattern_churn,
                },
            )
        };
        fail_point!("store/publish");
        let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
        (reach_stats, pattern_stats, snapshot, path, build_ms)
    }));
    match outcome {
        Ok((reach, pattern, snapshot, path, build_ms)) => Ok(Staged {
            snapshot: Arc::new(snapshot),
            reach,
            pattern,
            path,
            build_ms,
            norm,
        }),
        Err(payload) => {
            maintained.recover_from_failed(&norm);
            Err(StoreError::WriterFailed {
                cause: panic_cause(payload),
            })
        }
    }
}

/// Rolls staged maintainers back instead of committing: `staged[i]` was
/// staged on `maintainers[i]`.
pub(crate) fn discard(maintainers: &mut [MaintainedGraph], staged: &[Staged]) {
    for (maintained, s) in maintainers.iter_mut().zip(staged) {
        maintained.recover_from_failed(&s.norm);
    }
}

/// The write-behind step of both stores' protocol, run once every
/// maintainer has staged: appends `batch` to `log` when the store keeps
/// one, and [`discard`]s every staged maintainer if the append fails or
/// panics. Bytes a torn append may have left beyond the log's committed
/// watermark stay on the file crash-faithfully: replay tolerates them and
/// the next append truncates them.
pub(crate) fn append_or_discard(
    log: &mut Option<UpdateLog>,
    batch: &UpdateBatch,
    maintainers: &mut [MaintainedGraph],
    staged: &[Staged],
) -> Result<(), StoreError> {
    let Some(log) = log.as_mut() else {
        return Ok(());
    };
    let err = match catch_unwind(AssertUnwindSafe(|| log.append(batch))) {
        Ok(Ok(())) => return Ok(()),
        Ok(Err(e)) => StoreError::Log(e),
        Err(payload) => StoreError::WriterFailed {
            cause: panic_cause(payload),
        },
    };
    discard(maintainers, staged);
    Err(err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpgc_graph::traversal::bfs_reachable;
    use qpgc_pattern::bounded::bounded_match;
    use qpgc_pattern::pattern::Pattern;

    fn sample() -> LabeledGraph {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        let b1 = g.add_node_with_label("B");
        let b2 = g.add_node_with_label("B");
        let c = g.add_node_with_label("C");
        g.add_edge(a, b1);
        g.add_edge(a, b2);
        g.add_edge(b1, c);
        g.add_edge(b2, c);
        g
    }

    #[test]
    fn versions_advance_and_answers_track_updates() {
        let store = CompressedStore::new(sample(), StoreConfig::default());
        assert_eq!(store.version(), 0);
        let before = store.load();
        assert!(before.reachable(NodeId(1), NodeId(3)));

        let mut batch = UpdateBatch::new();
        batch.delete(NodeId(1), NodeId(3));
        let report = store.try_apply(&batch).expect("batch applies");
        assert_eq!(report.version, 1);
        assert_eq!(store.version(), 1);

        // The old snapshot is untouched; the new one reflects the batch.
        assert!(before.reachable(NodeId(1), NodeId(3)));
        let after = store.load();
        assert!(!after.reachable(NodeId(1), NodeId(3)));
        assert!(after.reachable(NodeId(2), NodeId(3)));

        // Store-level bulk evaluation serves the same answers.
        let queries = [(NodeId(1), NodeId(3)), (NodeId(2), NodeId(3))];
        assert_eq!(store.bulk_reachable(&queries), vec![false, true]);
    }

    #[test]
    fn pattern_serving_tracks_updates() {
        let store = CompressedStore::new(sample(), StoreConfig::builder().patterns(true).build());
        let mut q = Pattern::new();
        let a = q.add_node("A");
        let b = q.add_node("B");
        let c = q.add_node("C");
        q.add_edge(a, b, 1);
        q.add_edge(b, c, 1);
        assert!(store.load().match_pattern(&q).is_some());

        let mut batch = UpdateBatch::new();
        batch.delete(NodeId(1), NodeId(3));
        batch.delete(NodeId(2), NodeId(3));
        store.try_apply(&batch).expect("batch applies");
        assert!(store.load().match_pattern(&q).is_none());

        // Differential against direct evaluation on the maintained graph.
        let mut g = sample();
        batch.apply_to(&mut g);
        assert!(bounded_match(&g, &q).is_none());
    }

    #[test]
    #[should_panic(expected = "pattern serving not enabled")]
    fn pattern_queries_require_opt_in() {
        let store = CompressedStore::new(sample(), StoreConfig::default());
        let q = Pattern::new();
        let _ = store.load().match_pattern(&q);
    }

    /// A batch that is quiet on both sides republishes with the pattern
    /// view `Arc`-shared (same allocation, no clone); a batch that churns
    /// the bisimulation partition builds a new view and reports its churn.
    #[test]
    fn quiet_batches_share_the_pattern_view_pointerwise() {
        let store = CompressedStore::new(sample(), StoreConfig::builder().patterns(true).build());
        let before = store.load();

        // Inserting an existing edge normalizes away on both sides.
        let mut noop = UpdateBatch::new();
        noop.insert(NodeId(0), NodeId(1));
        let report = store.try_apply(&noop).expect("batch applies");
        assert_eq!(report.path, ApplyPath::Republished);
        let after = store.load();
        assert_eq!(after.version(), 1);
        assert!(std::ptr::eq(
            before.pattern_view().unwrap(),
            after.pattern_view().unwrap()
        ));

        // A real bisimulation change builds a new view.
        let mut batch = UpdateBatch::new();
        batch.delete(NodeId(1), NodeId(3));
        let report = store.try_apply(&batch).expect("batch applies");
        match report.path {
            ApplyPath::Rebuilt { pattern_churn, .. } => {
                assert!(pattern_churn.is_some(), "pattern delta was not empty");
            }
            other => panic!("expected a built publication, got {other:?}"),
        }
        assert!(!std::ptr::eq(
            after.pattern_view().unwrap(),
            store.load().pattern_view().unwrap()
        ));
    }

    /// A batch that moves no member but joins the cones of two strongly
    /// connected components rewires both classes: the store must build,
    /// not republish, or it answers the new pair from the old cut.
    #[test]
    fn a_batch_that_only_rewires_classes_is_built() {
        let mut g = LabeledGraph::new();
        for _ in 0..4 {
            g.add_node_with_label("X");
        }
        for (u, w) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            g.add_edge(NodeId(u), NodeId(w));
        }
        let store = CompressedStore::new(g, StoreConfig::default());
        assert!(!store.load().reachable(NodeId(0), NodeId(3)));
        let mut batch = UpdateBatch::new();
        batch.insert(NodeId(1), NodeId(2));
        let report = store.try_apply(&batch).expect("batch applies");
        assert_eq!(report.reach.changed_classes, 0);
        assert_eq!(report.reach.rewired_classes, 2);
        assert!(matches!(report.path, ApplyPath::Rebuilt { churn, .. } if churn == 1.0));
        assert!(store.load().reachable(NodeId(0), NodeId(3)));
    }

    /// Pattern-serving snapshots account for the view in `heap_bytes`.
    #[test]
    fn pattern_serving_costs_measurable_heap() {
        let plain = CompressedStore::new(sample(), StoreConfig::default());
        let serving = CompressedStore::new(sample(), StoreConfig::builder().patterns(true).build());
        assert!(serving.load().heap_bytes() > plain.load().heap_bytes());
    }

    #[test]
    fn repeated_batches_stay_consistent_with_bfs() {
        let mut g = sample();
        let store = CompressedStore::new(
            g.clone(),
            StoreConfig::builder().two_hop(Default::default()).build(),
        );
        let batches: Vec<Vec<(u32, u32, bool)>> = vec![
            vec![(3, 0, true)],
            vec![(0, 1, false), (2, 3, false)],
            vec![(1, 2, true), (3, 0, false)],
        ];
        for (i, spec) in batches.iter().enumerate() {
            let mut batch = UpdateBatch::new();
            for &(u, v, ins) in spec {
                if ins {
                    batch.insert(NodeId(u), NodeId(v));
                } else {
                    batch.delete(NodeId(u), NodeId(v));
                }
            }
            store.try_apply(&batch).expect("batch applies");
            batch.apply_to(&mut g);
            let snap = store.load();
            assert_eq!(snap.version(), i as u64 + 1);
            for u in g.nodes() {
                for w in g.nodes() {
                    assert_eq!(
                        snap.reachable(u, w),
                        bfs_reachable(&g, u, w),
                        "batch {i}: ({u},{w})"
                    );
                }
            }
        }
    }
}
