//! The sharded store: hash-partitioned serving behind the same
//! [`ReachStore`](crate::ReachStore) surface as a single
//! [`CompressedStore`].
//!
//! ## Architecture
//!
//! A [`NodePartition`] deterministically assigns every node to one of `N`
//! shards ([`StoreConfig::shards`]). Each shard is a [`MaintainedGraph`]
//! over its subgraph — the full node set with only intra-shard edges, so
//! shard snapshots speak global node ids — maintained with the same
//! incremental machinery (`incRCM`, optional 2-hop) as the single store.
//! Edges crossing shards belong to no shard; they live in the router's
//! cross-edge set and surface as the [`BoundarySummary`] of every
//! published cut.
//!
//! [`ShardedStore::try_apply`] runs the single store's **stage-then-commit**
//! protocol on one thread. It slices each batch by the partition
//! ([`qpgc::sharding::slice_batch`]) and stages every shard's slice in
//! shard order — one incremental maintenance and one successor-snapshot
//! construction each, against that shard's snapshot in the served cut —
//! but nothing is published at this point. The router then builds the
//! successor [`ShardedSnapshot`] — one `BoundarySummary::build` over the
//! staged shard snapshots and the live cross edges as the batch's cross
//! slice will leave them (inserts added, deletes skipped; the router's own
//! set is only read) — still without publishing. Only when every shard and
//! the summary have succeeded (and the write-behind log, if any, has the
//! batch) does the commit happen: the cross slice is applied to the
//! router's edge set in place and one fresh cut is swapped in atomically at
//! the bumped watermark. Every shard receives its (possibly empty) slice of
//! every batch, so shard snapshot versions always equal the router
//! watermark and a cut is internally consistent by construction.
//!
//! A query on a cut is the owning shard's local answer, or — for paths
//! that touch a boundary node — one AND of two bit-rows of the summary
//! (see [`crate::boundary`]); no shard is probed twice and nothing is
//! allocated.
//!
//! ## Failure semantics
//!
//! Every stage runs under `catch_unwind`, and the **first** failure in
//! shard order ends the batch. If shard `i`'s staging panics (or an
//! injected failpoint fires), shard `i` has rolled itself back, the shards
//! before it are discarded — each inverts its normalized slice and
//! recompresses — and the shards after it were never touched; the router
//! returns [`StoreError::ShardFailed`] naming shard `i`. A fault in the
//! router itself (slicing, boundary summary, cut assembly, log append)
//! discards every staged shard and reports [`StoreError::ROUTER`] as the
//! shard index. Either way the old cut is still served, the watermark and
//! the cross-edge set are unchanged, and the next clean batch proceeds
//! normally. Nothing runs on another thread, so which shard fails is the
//! same on every run.
//!
//! ## Consistency model
//!
//! Readers [`load`](ShardedStore::load) an `Arc<ShardedSnapshot>` — one
//! watermark, `N` shard snapshots of exactly that version, and the
//! boundary summary built from those same snapshots. Mid-apply states
//! (some shards staged, others not) are never visible: shard snapshots are
//! only ever served inside a cut, and the cut swap happens once, after
//! every shard has staged. A reader holding an old cut keeps a consistent
//! pre-batch view, exactly like the single-store snapshot contract.
//!
//! ## Restrictions
//!
//! Pattern serving is rejected ([`ShardedStore::new`] returns
//! [`StoreError::PatternsUnsupported`]): a bisimulation quotient does not
//! decompose over a node partition the way reachability does — a match
//! relation can hinge on cross-shard edges — so patterns stay a
//! single-store feature.
//!
//! [`CompressedStore`]: crate::CompressedStore

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

use qpgc::maintenance::MaintainedGraph;
use qpgc::sharding::slice_batch;
use qpgc_fault::fail_point;
use qpgc_graph::partition::split_graph;
use qpgc_graph::{IncStats, LabeledGraph, NodeId, NodePartition, UpdateBatch};

use crate::boundary::{BoundarySummary, Scratch};
use crate::error::{panic_cause, StoreError};
use crate::snapshot::Snapshot;
use crate::store::{
    append_or_discard, discard, first_snapshot, lock_recover, read_recover, replay, stage,
    write_recover, ApplyPath, ApplyReport, ShardApply, StoreConfig,
};
use crate::wal::UpdateLog;

/// One consistent cross-shard read cut: the router watermark, every
/// shard's snapshot at exactly that version, and the boundary summary
/// built over those snapshots. Immutable after publication; readers
/// compose reachability queries on it without synchronization.
#[derive(Clone, Debug)]
pub struct ShardedSnapshot {
    watermark: u64,
    part: NodePartition,
    shards: Vec<Arc<Snapshot>>,
    boundary: BoundarySummary,
}

impl ShardedSnapshot {
    /// The router watermark — the number of batches applied before this
    /// cut was published. Equal to every shard snapshot's version.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// The per-shard snapshots, in shard order (all at
    /// [`ShardedSnapshot::watermark`]).
    pub fn shard_snapshots(&self) -> &[Arc<Snapshot>] {
        &self.shards
    }

    /// The boundary summary of this cut.
    pub fn boundary(&self) -> &BoundarySummary {
        &self.boundary
    }

    /// Answers `QR(u, w)` on the full graph: the owning shard's local
    /// answer when `u` and `w` share a shard, the boundary summary's
    /// otherwise (and same-shard queries fall through to it too — a path
    /// may leave the shard and come back). Node ids outside the store
    /// reach only themselves, as on [`Snapshot::reachable`].
    pub fn reachable(&self, u: NodeId, w: NodeId) -> bool {
        if u == w {
            return true;
        }
        let su = self.part.shard_of(u);
        let sw = self.part.shard_of(w);
        let (Some(cu), Some(cw)) = (self.shards[su].class_of(u), self.shards[sw].class_of(w))
        else {
            return false;
        };
        if su == sw && self.shards[su].reachable(u, w) {
            return true;
        }
        self.boundary.bridges(u, (su, cu), w, (sw, cw))
    }

    /// Total heap footprint: shard snapshots plus the boundary summary.
    pub fn heap_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.heap_bytes()).sum::<usize>() + self.boundary.heap_bytes()
    }
}

impl crate::api::ReachCut for ShardedSnapshot {
    fn version(&self) -> u64 {
        self.watermark
    }

    fn reachable(&self, u: NodeId, w: NodeId) -> bool {
        ShardedSnapshot::reachable(self, u, w)
    }
}

struct Router {
    /// One maintainer per shard, in shard order.
    shards: Vec<MaintainedGraph>,
    /// Live cross-shard edges.
    cross: BTreeSet<(NodeId, NodeId)>,
    /// Optional write-behind redo log: appended once every shard and the
    /// boundary summary have staged, just before the commit.
    log: Option<UpdateLog>,
    /// The boundary summary's working buffers, reused by every bump.
    scratch: Scratch,
}

/// A hash-partitioned serving store.
///
/// Construction splits the data graph once; from then on every
/// [`ShardedStore::try_apply`] stages the per-shard incremental
/// maintenances one after the other and publishes one atomic
/// [`ShardedSnapshot`] cut. With [`StoreConfig::shards`] `== 1` the router
/// degenerates to a single shard with an empty boundary graph and must
/// answer like a [`CompressedStore`](crate::CompressedStore) over the same
/// graph — the model checker holds both to the BFS oracle, at
/// `N ∈ {1, 2, 4}`.
pub struct ShardedStore {
    config: StoreConfig,
    part: NodePartition,
    node_count: usize,
    router: Mutex<Router>,
    current: RwLock<Arc<ShardedSnapshot>>,
}

impl ShardedStore {
    /// Splits `g` by [`StoreConfig::shards`], compresses every shard
    /// subgraph in shard order, and publishes the version-0 cut.
    ///
    /// # Errors
    ///
    /// [`StoreError::PatternsUnsupported`] when `config.serve_patterns` is
    /// set — see the module docs.
    pub fn new(g: LabeledGraph, config: StoreConfig) -> Result<Self, StoreError> {
        Self::at(g, config, 0)
    }

    /// [`ShardedStore::new`] publishing its first cut at `version`.
    fn at(g: LabeledGraph, config: StoreConfig, version: u64) -> Result<Self, StoreError> {
        if config.serve_patterns {
            return Err(StoreError::PatternsUnsupported);
        }
        let node_count = g.node_count();
        let part = NodePartition::new(config.shards);
        let (subgraphs, boundary) = split_graph(&g, &part);
        let shards: Vec<MaintainedGraph> = subgraphs
            .into_iter()
            .map(|sub| MaintainedGraph::new(sub, false))
            .collect();
        let snaps = shards
            .iter()
            .map(|m| Arc::new(first_snapshot(m, version, &config)))
            .collect();
        let cross: BTreeSet<(NodeId, NodeId)> = boundary.into_iter().collect();
        let mut scratch = Scratch::default();
        let cut = Self::cut(&part, snaps, cross.iter().copied(), version, &mut scratch);
        Ok(ShardedStore {
            config,
            part,
            node_count,
            router: Mutex::new(Router {
                shards,
                cross,
                log: None,
                scratch,
            }),
            current: RwLock::new(Arc::new(cut)),
        })
    }

    /// [`ShardedStore::new`] with a crash-consistent [`UpdateLog`] at
    /// `path`: one router-level log (a base record of the full graph, one
    /// record per committed batch), appended write-behind after every
    /// shard and the boundary summary have staged.
    /// [`ShardedStore::recover_from_log`] reconstructs an
    /// answer-identical store from the file after a crash.
    pub fn new_with_log<P: AsRef<Path>>(
        g: LabeledGraph,
        config: StoreConfig,
        path: P,
    ) -> Result<Self, StoreError> {
        let log = UpdateLog::create(path, &g)?;
        let store = Self::new(g, config)?;
        lock_recover(&store.router).log = Some(log);
        Ok(store)
    }

    /// Rebuilds a sharded store from the update log at `path` as
    /// [`CompressedStore::recover_from_log`](crate::CompressedStore::recover_from_log)
    /// rebuilds a single one: the committed batches' edges, then one split
    /// and compression of the final graph, at watermark = the batch count.
    /// It does **not** keep writing to the log.
    pub fn recover_from_log<P: AsRef<Path>>(
        path: P,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        let contents = UpdateLog::read(path)?;
        let g = replay(contents.graph, &contents.batches, &config)?;
        Self::at(g, config, contents.batches.len() as u64)
    }

    /// The currently published cut. Hold it as long as you like — the
    /// writer never mutates published cuts, the router only swaps in new
    /// ones.
    pub fn load(&self) -> Arc<ShardedSnapshot> {
        read_recover(&self.current).clone()
    }

    /// Watermark of the currently published cut.
    pub fn watermark(&self) -> u64 {
        self.load().watermark()
    }

    /// Answers one reachability query on the current cut.
    pub fn reachable(&self, u: NodeId, w: NodeId) -> bool {
        self.load().reachable(u, w)
    }

    /// Answers a batch of reachability queries, sharded across the
    /// configured worker count — all against one cut.
    pub fn bulk_reachable(&self, queries: &[(NodeId, NodeId)]) -> Vec<bool> {
        crate::bulk::bulk_reachable(&*self.load(), queries, self.config.threads)
    }

    /// Applies `ΔG`: slices the batch by the node partition, stages every
    /// shard's incremental maintenance and snapshot construction in shard
    /// order, builds the boundary summary over the cross edges the batch
    /// leaves live, and bumps the watermark by swapping in one fresh
    /// [`ShardedSnapshot`]. Concurrent callers are serialized on the
    /// router; readers only ever see complete cuts.
    ///
    /// Batch semantics are atomic across shards: the batch either fully
    /// applies on every shard and publishes one cut, or no shard publishes
    /// anything — old cut still served, watermark and cross-edge set
    /// untouched, the next clean batch free to proceed. See the module
    /// docs for the stage-then-commit protocol and failure semantics.
    ///
    /// The returned [`ApplyReport`] aggregates the per-shard reports (see
    /// its docs for the exact semantics) and carries the breakdown in
    /// [`ApplyReport::shards`]; its `publish_ms` is the sum of the shard
    /// publications **plus** the watermark bump, so it is end-to-end
    /// comparable with the single-store number.
    pub fn try_apply(&self, batch: &UpdateBatch) -> Result<ApplyReport, StoreError> {
        let mut guard = lock_recover(&self.router);
        let router = &mut *guard;
        batch.validate(self.node_count)?;
        let sliced = catch_unwind(AssertUnwindSafe(|| {
            fail_point!("sharded/slice");
            slice_batch(batch, &self.part)
        }))
        .map_err(router_failed)?;

        // Stage the shards in shard order against their served snapshots;
        // none publishes. The first failure discards the shards staged
        // before it and leaves the ones after it untouched.
        let prev = self.load();
        let mut staged = Vec::with_capacity(router.shards.len());
        for (shard, slice) in sliced.per_shard.iter().enumerate() {
            let result = catch_unwind(|| fail_point!("shard/stage"))
                .map_err(|payload| StoreError::WriterFailed {
                    cause: panic_cause(payload),
                })
                .and_then(|()| {
                    let prev = &prev.shards[shard];
                    stage(&mut router.shards[shard], prev, slice, &self.config)
                });
            match result {
                Ok(s) => staged.push(s),
                Err(e) => {
                    discard(&mut router.shards, &staged);
                    let cause = match e {
                        StoreError::WriterFailed { cause } => cause,
                        other => other.to_string(),
                    };
                    return Err(StoreError::ShardFailed { shard, cause });
                }
            }
        }

        // Stage the router's own successor state — the boundary summary
        // and the cut, from staged (unpublished) snapshots and the live
        // cross edges as the batch's cross slice will leave them. The
        // router's own set is untouched until the commit, so a failure
        // from here on has nothing to roll back on the router.
        let bump_start = std::time::Instant::now();
        let (inserted, mut deleted) = sliced.cross.split();
        deleted.sort_unstable();
        let snaps: Vec<Arc<Snapshot>> = staged.iter().map(|s| s.snapshot.clone()).collect();
        let cut = catch_unwind(AssertUnwindSafe(|| {
            fail_point!("sharded/boundary");
            let cross = router
                .cross
                .iter()
                .filter(|e| deleted.binary_search(e).is_err())
                .chain(&inserted)
                .copied();
            let cut = Self::cut(
                &self.part,
                snaps,
                cross,
                prev.watermark + 1,
                &mut router.scratch,
            );
            fail_point!("sharded/commit");
            cut
        }));
        let cut = match cut {
            Ok(cut) => cut,
            Err(payload) => {
                discard(&mut router.shards, &staged);
                return Err(router_failed(payload));
            }
        };
        append_or_discard(&mut router.log, batch, &mut router.shards, &staged).map_err(
            |e| match e {
                StoreError::WriterFailed { cause } => StoreError::ShardFailed {
                    shard: StoreError::ROUTER,
                    cause,
                },
                other => other,
            },
        )?;

        // Commit: the router applies the cross slice to its edge set and
        // the cut goes live — nothing on this path can fault.
        for e in &deleted {
            router.cross.remove(e);
        }
        router.cross.extend(inserted);
        let version = cut.watermark;
        *write_recover(&self.current) = Arc::new(cut);
        let bump_ms = bump_start.elapsed().as_secs_f64() * 1e3;

        let shards: Vec<ShardApply> = staged
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardApply {
                shard,
                path: s.path,
                reach: s.reach,
                publish_ms: s.build_ms,
            })
            .collect();
        // Aggregate path: the most expensive path any shard took, carrying
        // the maximum churn observed on that path.
        let path = shards
            .iter()
            .map(|s| s.path)
            .max_by(|a, b| {
                path_rank(a)
                    .partial_cmp(&path_rank(b))
                    .expect("churn is never NaN")
            })
            .expect("at least one shard");
        Ok(ApplyReport {
            version,
            reach: shards
                .iter()
                .fold(IncStats::default(), |acc, s| acc + s.reach),
            pattern: None,
            path,
            publish_ms: shards.iter().map(|s| s.publish_ms).sum::<f64>() + bump_ms,
            shards,
        })
    }

    /// Assembles the cut of watermark `watermark` from the shard snapshots
    /// of that version and the cross edges live at it.
    fn cut(
        part: &NodePartition,
        snaps: Vec<Arc<Snapshot>>,
        cross: impl Iterator<Item = (NodeId, NodeId)>,
        watermark: u64,
        scratch: &mut Scratch,
    ) -> ShardedSnapshot {
        ShardedSnapshot {
            watermark,
            part: *part,
            boundary: BoundarySummary::build(&snaps, cross, part, scratch),
            shards: snaps,
        }
    }
}

/// A fault in the router itself, outside every shard.
fn router_failed(payload: Box<dyn std::any::Any + Send>) -> StoreError {
    StoreError::ShardFailed {
        shard: StoreError::ROUTER,
        cause: panic_cause(payload),
    }
}

impl crate::api::ReachStore for ShardedStore {
    type Cut = ShardedSnapshot;

    fn load(&self) -> Arc<ShardedSnapshot> {
        ShardedStore::load(self)
    }

    fn watermark(&self) -> u64 {
        ShardedStore::watermark(self)
    }

    fn try_apply(&self, batch: &UpdateBatch) -> Result<ApplyReport, StoreError> {
        ShardedStore::try_apply(self, batch)
    }

    fn bulk_reachable(&self, queries: &[(NodeId, NodeId)]) -> Vec<bool> {
        ShardedStore::bulk_reachable(self, queries)
    }
}

/// Expense order of an [`ApplyPath`]: `Rebuilt` over `Republished`, ties
/// broken by churn.
fn path_rank(p: &ApplyPath) -> (u8, f64) {
    match *p {
        ApplyPath::Republished => (0, 0.0),
        // Never constructed (see the variant's doc).
        ApplyPath::Patched { .. } => (1, 0.0),
        ApplyPath::Rebuilt { churn, .. } => (2, churn),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ReachStore as _;
    use crate::store::CompressedStore;
    use qpgc_graph::traversal::bfs_reachable;

    fn chain_with_fanout() -> LabeledGraph {
        // Enough nodes that every 2- and 4-way hash partition actually
        // cuts some edges.
        let mut g = LabeledGraph::new();
        for _ in 0..24 {
            g.add_node_with_label("X");
        }
        for i in 0..23u32 {
            g.add_edge(NodeId(i), NodeId(i + 1));
        }
        g.add_edge(NodeId(0), NodeId(12));
        g.add_edge(NodeId(5), NodeId(20));
        g
    }

    fn all_pairs_match_bfs(store: &ShardedStore, g: &LabeledGraph) {
        let cut = store.load();
        for u in g.nodes() {
            for w in g.nodes() {
                assert_eq!(
                    cut.reachable(u, w),
                    bfs_reachable(g, u, w),
                    "shards={}: ({u},{w}) at watermark {}",
                    store.config.shards,
                    cut.watermark()
                );
            }
        }
    }

    #[test]
    fn sharded_answers_are_bfs_exact_across_shard_counts() {
        for shards in [1usize, 2, 4] {
            let mut g = chain_with_fanout();
            let store = ShardedStore::new(g.clone(), StoreConfig::builder().shards(shards).build())
                .unwrap();
            assert_eq!(store.load().shard_snapshots().len(), shards);
            all_pairs_match_bfs(&store, &g);

            // Delete a chain edge (wherever the hash put it) and insert a
            // long back edge — both cut and intra updates get exercised as
            // the shard count varies.
            let mut batch = UpdateBatch::new();
            batch
                .delete(NodeId(7), NodeId(8))
                .insert(NodeId(22), NodeId(1));
            let report = store.try_apply(&batch).expect("batch applies");
            assert_eq!(report.version, 1);
            assert_eq!(report.shards.len(), shards);
            assert_eq!(store.watermark(), 1);
            batch.apply_to(&mut g);
            all_pairs_match_bfs(&store, &g);
        }
    }

    #[test]
    fn one_shard_router_matches_the_single_store() {
        let g = chain_with_fanout();
        let single = CompressedStore::new(g.clone(), StoreConfig::default());
        let sharded = ShardedStore::new(g.clone(), StoreConfig::default()).unwrap();
        assert_eq!(sharded.load().boundary().vertex_count(), 0);
        for u in g.nodes() {
            for w in g.nodes() {
                assert_eq!(single.reachable(u, w), sharded.reachable(u, w));
            }
        }
    }

    #[test]
    fn old_cuts_stay_consistent_after_new_publications() {
        let g = chain_with_fanout();
        let store = ShardedStore::new(g, StoreConfig::builder().shards(2).build()).unwrap();
        let before = store.load();
        assert!(before.reachable(NodeId(0), NodeId(23)));
        let mut batch = UpdateBatch::new();
        batch
            .delete(NodeId(11), NodeId(12))
            .delete(NodeId(0), NodeId(12))
            .delete(NodeId(5), NodeId(20));
        store.try_apply(&batch).expect("batch applies");
        // The held cut still answers at watermark 0.
        assert_eq!(before.watermark(), 0);
        assert!(before.reachable(NodeId(0), NodeId(23)));
        assert!(!store.reachable(NodeId(0), NodeId(23)));
    }

    #[test]
    fn pattern_serving_is_rejected_as_an_error() {
        let result = ShardedStore::new(
            chain_with_fanout(),
            StoreConfig::builder().shards(2).patterns(true).build(),
        );
        assert!(
            matches!(result, Err(StoreError::PatternsUnsupported)),
            "pattern serving on a sharded store must be a typed rejection"
        );
    }

    #[test]
    fn report_aggregates_shard_paths() {
        let g = chain_with_fanout();
        let store = ShardedStore::new(g, StoreConfig::builder().shards(4).build()).unwrap();
        let mut batch = UpdateBatch::new();
        batch.delete(NodeId(3), NodeId(4));
        let report = store.try_apply(&batch).expect("batch applies");
        assert_eq!(report.shards.len(), 4);
        // The aggregate path is at least as expensive as every per-shard
        // path.
        for s in &report.shards {
            assert!(path_rank(&s.path) <= path_rank(&report.path));
        }
        // publish_ms covers every shard's publication plus the watermark
        // bump.
        let shards: f64 = report.shards.iter().map(|s| s.publish_ms).sum();
        assert!(report.publish_ms >= shards);
    }

    #[test]
    fn out_of_range_nodes_reach_only_themselves() {
        for shards in [1usize, 2] {
            let g = chain_with_fanout();
            let n = g.node_count() as u32;
            let store =
                ShardedStore::new(g, StoreConfig::builder().shards(shards).build()).unwrap();
            let cut = store.load();
            assert_eq!(cut.boundary().vertex_count() > 0, shards > 1);
            for ghost in [NodeId(n), NodeId(u32::MAX)] {
                assert!(cut.reachable(ghost, ghost));
                for v in (0..n).map(NodeId) {
                    assert!(!cut.reachable(ghost, v), "shards={shards}: ({ghost},{v})");
                    assert!(!cut.reachable(v, ghost), "shards={shards}: ({v},{ghost})");
                }
            }
        }
    }

    /// The oracle for the boundary summary: every published cut answers
    /// all pairs like BFS on the data graph, across streams mixing
    /// cross-only churn (every shard republishes, only the summary moves),
    /// single-shard churn and global churn.
    #[test]
    fn cuts_are_bfs_exact_at_every_version_of_mixed_churn() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(88);
        let n = 32u32;
        for shards in [2usize, 3, 4] {
            let mut g = LabeledGraph::new();
            for _ in 0..n {
                g.add_node_with_label("X");
            }
            for i in 0..n - 1 {
                g.add_edge(NodeId(i), NodeId(i + 1));
            }
            let store = ShardedStore::new(g.clone(), StoreConfig::builder().shards(shards).build())
                .unwrap();
            let part = NodePartition::new(shards);
            for step in 0..12 {
                let mut batch = UpdateBatch::new();
                match step % 3 {
                    0 => {
                        for _ in 0..4 {
                            let u = NodeId(rng.gen_range(0..n));
                            let w = NodeId(rng.gen_range(0..n));
                            if u != w && part.shard_of(u) != part.shard_of(w) {
                                batch.insert(u, w);
                            }
                        }
                    }
                    1 => {
                        let target = rng.gen_range(0..shards);
                        let mut placed = 0;
                        while placed < 2 {
                            let u = NodeId(rng.gen_range(0..n));
                            let w = NodeId(rng.gen_range(0..n));
                            if u != w && part.shard_of(u) == target && part.shard_of(w) == target {
                                batch.insert(u, w);
                                placed += 1;
                            }
                        }
                    }
                    // Chain-edge deletes land in whatever shard (or on the
                    // boundary) the hash chose, plus a random insert.
                    _ => {
                        let i = rng.gen_range(0..n - 1);
                        batch.delete(NodeId(i), NodeId(i + 1));
                        let u = NodeId(rng.gen_range(0..n));
                        let w = NodeId(rng.gen_range(0..n));
                        if u != w && (u, w) != (NodeId(i), NodeId(i + 1)) {
                            batch.insert(u, w);
                        }
                    }
                }
                store.try_apply(&batch).expect("batch applies");
                batch.apply_to(&mut g);
                all_pairs_match_bfs(&store, &g);
            }
        }
    }
}
