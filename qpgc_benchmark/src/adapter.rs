//! Every call into the product lives in this module.
//!
//! The benchmark measures each layer **from outside**, by timing calls
//! into the product crates' public functions. Later changes to the product
//! may not edit the benchmark, so the surface used here is kept narrow and
//! is exactly what an embedding application would call — plus the probe
//! functions the per-layer table in the README names:
//!
//! * stores: `StoreConfig::builder().{threads, two_hop, patterns, shards,
//!   snapshot_format}`, `CompressedStore::{new, new_with_log,
//!   recover_from_log, save_snapshot, boot_from_snapshot}`,
//!   `ShardedStore::new`, `try_apply`, `load`, `bulk_reachable`;
//! * cuts: `Snapshot::{reachable, match_pattern, class_of, class_count,
//!   quotient, compressed_graph, two_hop, heap_bytes}`,
//!   `ShardedSnapshot::{reachable, heap_bytes, shard_snapshots, boundary}`;
//! * probes: `UpdateBatch::{validate, normalized, apply_to}`,
//!   `IncrementalReach::{new, apply_with_delta, stable_quotient}`,
//!   `IncrementalPattern::{new, apply_with_delta, stable_quotient}`,
//!   `PatternView::build`, `compress_r`, `compress_b`,
//!   `TwoHopIndex::{build_with, query, label_entries, heap_bytes}`,
//!   `CompressedCsr::{from_csr, neighbors, bits_per_edge, heap_bytes}`,
//!   free `bulk_reachable`, `UpdateLog::{create, append, read}`, free
//!   `save_snapshot` / `load_snapshot`, `NodePartition::{shard_of,
//!   is_boundary}`;
//! * oracles: `traversal::bfs_reachable`, `bounded::bounded_match`;
//! * inputs: `datasets::{dataset, pattern_dataset}`, `updates::local_batch`,
//!   `pattern_gen::random_pattern`.
//!
//! Nothing the roadmap plans to delete is called (`apply`,
//! `new_with_threads`, `damage_threshold`,
//! `stable_quotient_without_members`, the `*_baseline` / `reference_*`
//! families, `build_with_node_id_labels`, `GateMode::Adaptive`).

use std::path::Path;
use std::sync::Arc;

use qpgc_graph::traversal::bfs_reachable;
use qpgc_graph::{CompressedCsr, NodePartition};
use qpgc_pattern::bounded::bounded_match;
use qpgc_pattern::incremental::IncrementalPattern;
use qpgc_pattern::pattern::MatchRelation;
use qpgc_pattern::view::PatternView;
use qpgc_reach::incremental::IncrementalReach;
use qpgc_reach::two_hop::{TwoHopConfig, TwoHopIndex};
use qpgc_serve::{
    ApplyPath, ApplyReport, CompressedStore, ShardedSnapshot, ShardedStore, Snapshot,
    SnapshotFormat, StoreConfig, UpdateLog,
};

pub use qpgc_graph::{LabeledGraph, NodeId, UpdateBatch};
pub use qpgc_pattern::pattern::Pattern;

/// Cone cap of every generated update batch (see `updates::local_batch`).
const CONE_CAP: u64 = 8;

/// Seed of every generated graph: the graphs never depend on `--seed`.
const GRAPH_SEED: u64 = 0;

/// The emulated datasets the workloads draw from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// wikiTalk (Table 1): power-law social graph, compresses well.
    WikiTalk,
    /// citHepTh (Table 1): dense near-DAG, barely compresses.
    CitHepTh,
    /// Citation (Table 2): labeled near-tree, the pattern dataset.
    Citation,
}

/// Generates the dataset emulation at `1/divisor` of its original size.
pub fn generate_graph(dataset: Dataset, divisor: usize) -> LabeledGraph {
    let g = match dataset {
        Dataset::WikiTalk => qpgc_generators::dataset("wikiTalk", divisor, GRAPH_SEED),
        Dataset::CitHepTh => qpgc_generators::dataset("citHepTh", divisor, GRAPH_SEED),
        Dataset::Citation => qpgc_generators::pattern_dataset("Citation", divisor, GRAPH_SEED),
    };
    g.expect("the three dataset names are in the generator's tables")
}

/// One cone-local update batch against `g` (half insertions, half
/// deletions, endpoints with small reachability cones).
pub fn local_batch(g: &LabeledGraph, size: usize, seed: u64) -> UpdateBatch {
    qpgc_generators::updates::local_batch(g, size, CONE_CAP, seed)
}

/// One random connected pattern `(Vp, Ep, k) = (4, 5, 3)` over `g`'s labels.
pub fn generate_pattern(g: &LabeledGraph, seed: u64) -> Pattern {
    let cfg = qpgc_generators::PatternGenConfig::new(4, 5, 3, seed);
    qpgc_generators::random_pattern(g, &cfg)
}

/// The reachability oracle: BFS on the uncompressed graph.
pub fn oracle_reachable(g: &LabeledGraph, u: NodeId, w: NodeId) -> bool {
    bfs_reachable(g, u, w)
}

/// The pattern oracle: bounded simulation evaluated directly on `G`.
pub fn oracle_match(g: &LabeledGraph, pattern: &Pattern) -> Option<MatchRelation> {
    bounded_match(g, pattern)
}

/// Whether two pattern answers are the same relation.
pub fn same_answer(a: &Option<MatchRelation>, b: &Option<MatchRelation>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => x.canonical() == y.canonical(),
        _ => false,
    }
}

/// `batch.apply_to(g)`: advances the shadow graph the oracle runs on.
pub fn advance(g: &mut LabeledGraph, batch: &UpdateBatch) {
    batch.apply_to(g);
}

/// How a workload configures its store.
#[derive(Clone, Copy, Debug)]
pub struct StoreSpec {
    /// Build a 2-hop index (`Exact` coverage) in every snapshot.
    pub two_hop: bool,
    /// Serve the succinct quotient backend instead of plain CSR.
    pub succinct: bool,
    /// Also maintain and serve the pattern compression.
    pub patterns: bool,
    /// `1` opens a `CompressedStore`; more opens a `ShardedStore`.
    pub shards: usize,
    /// Worker threads for store-level bulk evaluation and compression.
    pub threads: usize,
}

impl StoreSpec {
    fn config(&self) -> StoreConfig {
        let mut b = StoreConfig::builder()
            .threads(self.threads)
            .patterns(self.patterns)
            .shards(self.shards)
            .snapshot_format(if self.succinct {
                SnapshotFormat::Succinct
            } else {
                SnapshotFormat::Plain
            });
        if self.two_hop {
            b = b.two_hop(TwoHopConfig::default());
        }
        b.build()
    }
}

/// What one `try_apply` reported, copied out of the product's
/// `ApplyReport` so nothing else depends on that struct's layout.
#[derive(Clone, Debug, Default)]
pub struct Applied {
    /// `IncStats::effective_updates`.
    pub effective_updates: usize,
    /// `IncStats::affected_nodes`.
    pub affected_nodes: usize,
    /// `IncStats::affected_classes`.
    pub affected_classes: usize,
    /// `IncStats::hybrid_nodes`.
    pub hybrid_nodes: usize,
    /// `ApplyReport::publish_ms`.
    pub publish_ms: f64,
    /// Publication path taken.
    pub path: Published,
    /// Per-shard `publish_ms`, empty on a single store.
    pub shard_publish_ms: Vec<f64>,
}

/// The publication path of one batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Published {
    /// No class changed; the previous cut was republished.
    #[default]
    Republished,
    /// Delta-patched; the flag says whether the 2-hop index was too.
    Patched {
        /// `ApplyPath::Patched::two_hop_patched`.
        two_hop_patched: bool,
    },
    /// Rebuilt from scratch.
    Rebuilt,
}

impl From<ApplyReport> for Applied {
    fn from(r: ApplyReport) -> Applied {
        Applied {
            effective_updates: r.reach.effective_updates,
            affected_nodes: r.reach.affected_nodes,
            affected_classes: r.reach.affected_classes,
            hybrid_nodes: r.reach.hybrid_nodes,
            publish_ms: r.publish_ms,
            path: match r.path {
                ApplyPath::Republished => Published::Republished,
                ApplyPath::Patched {
                    two_hop_patched, ..
                } => Published::Patched { two_hop_patched },
                ApplyPath::Rebuilt { .. } => Published::Rebuilt,
            },
            shard_publish_ms: r.shards.iter().map(|s| s.publish_ms).collect(),
        }
    }
}

/// A serving store: the single-writer store or the sharded router.
pub enum Store {
    /// `CompressedStore`.
    Single(Box<CompressedStore>),
    /// `ShardedStore`.
    Sharded(Box<ShardedStore>),
}

impl Store {
    /// The store constructor: in-memory `G` in, first cut served. With
    /// `log`, a single store is opened with `new_with_log` at that path.
    pub fn open(g: LabeledGraph, spec: &StoreSpec, log: Option<&Path>) -> Result<Store, String> {
        let config = spec.config();
        if spec.shards > 1 {
            return ShardedStore::new(g, config)
                .map(|s| Store::Sharded(Box::new(s)))
                .map_err(|e| e.to_string());
        }
        match log {
            Some(path) => CompressedStore::new_with_log(g, config, path)
                .map(|s| Store::Single(Box::new(s)))
                .map_err(|e| e.to_string()),
            None => Ok(Store::Single(Box::new(CompressedStore::new(g, config)))),
        }
    }

    /// `recover_from_log`: full-history replay of the log at `log`.
    pub fn recover_from_log(log: &Path, spec: &StoreSpec) -> Result<Store, String> {
        CompressedStore::recover_from_log(log, spec.config())
            .map(|s| Store::Single(Box::new(s)))
            .map_err(|e| e.to_string())
    }

    /// `boot_from_snapshot`: the saved snapshot plus the log's tail.
    pub fn boot_from_snapshot(
        snapshot: &Path,
        log: &Path,
        spec: &StoreSpec,
    ) -> Result<Store, String> {
        CompressedStore::boot_from_snapshot(snapshot, log, spec.config())
            .map(|s| Store::Single(Box::new(s)))
            .map_err(|e| e.to_string())
    }

    /// One batch in, new cut visible (or the error that left the old cut
    /// served).
    pub fn try_apply(&self, batch: &UpdateBatch) -> Result<Applied, String> {
        let report = match self {
            Store::Single(s) => s.try_apply(batch),
            Store::Sharded(s) => s.try_apply(batch),
        };
        report.map(Applied::from).map_err(|e| e.to_string())
    }

    /// The currently published cut.
    pub fn load(&self) -> Cut {
        match self {
            Store::Single(s) => Cut::Single(s.load()),
            Store::Sharded(s) => Cut::Sharded(s.load()),
        }
    }

    /// Store-level bulk evaluation at the configured thread count.
    pub fn bulk_reachable(&self, queries: &[(NodeId, NodeId)]) -> Vec<bool> {
        match self {
            Store::Single(s) => s.bulk_reachable(queries),
            Store::Sharded(s) => s.bulk_reachable(queries),
        }
    }

    /// `save_snapshot` of the served cut (single store only).
    pub fn save_snapshot(&self, path: &Path) -> Result<(), String> {
        match self {
            Store::Single(s) => s.save_snapshot(path).map_err(|e| e.to_string()),
            Store::Sharded(_) => Err("a sharded store has no snapshot file".to_string()),
        }
    }
}

/// One immutable read cut of either backend.
#[derive(Clone)]
pub enum Cut {
    /// A single store's snapshot.
    Single(Arc<Snapshot>),
    /// A sharded store's watermarked cut.
    Sharded(Arc<ShardedSnapshot>),
}

impl Cut {
    /// `QR(u, w)` on the cut.
    pub fn reachable(&self, u: NodeId, w: NodeId) -> bool {
        match self {
            Cut::Single(s) => s.reachable(u, w),
            Cut::Sharded(s) => s.reachable(u, w),
        }
    }

    /// Answers a block of queries and returns how many were positive. The
    /// backend is matched once, outside the loop, so the timed loop is the
    /// product's `reachable` and nothing else.
    pub fn count_reachable(&self, block: &[(NodeId, NodeId)]) -> usize {
        match self {
            Cut::Single(s) => block.iter().filter(|&&(u, w)| s.reachable(u, w)).count(),
            Cut::Sharded(s) => block.iter().filter(|&&(u, w)| s.reachable(u, w)).count(),
        }
    }

    /// `Snapshot::match_pattern` (single store with patterns served).
    pub fn match_pattern(&self, pattern: &Pattern) -> Option<MatchRelation> {
        match self {
            Cut::Single(s) => s.match_pattern(pattern),
            Cut::Sharded(_) => None,
        }
    }

    /// Heap footprint of the cut in bytes.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Cut::Single(s) => s.heap_bytes(),
            Cut::Sharded(s) => s.heap_bytes(),
        }
    }

    /// The snapshots the cut is made of: one, or one per shard.
    pub fn snapshots(&self) -> Vec<Arc<Snapshot>> {
        match self {
            Cut::Single(s) => vec![Arc::clone(s)],
            Cut::Sharded(s) => s.shard_snapshots().to_vec(),
        }
    }

    /// Boundary vertices of a sharded cut; `0` on a single store.
    pub fn boundary_vertices(&self) -> usize {
        match self {
            Cut::Single(_) => 0,
            Cut::Sharded(s) => s.boundary().vertex_count(),
        }
    }

    /// `|Vr| + |Er|` of the cut: live classes plus quotient edges, summed
    /// over the cut's snapshots. A sharded cut also keeps its cross-shard
    /// edges verbatim; the caller adds those (see [`cross_edges`]).
    pub fn quotient_size(&self) -> usize {
        self.snapshots()
            .iter()
            .map(|s| s.class_count() + s.quotient().edge_count())
            .sum()
    }
}

/// Number of edges of `g` whose endpoints fall in different shards.
pub fn cross_edges(g: &LabeledGraph, shards: usize) -> usize {
    let part = NodePartition::new(shards);
    g.edges().filter(|&(u, w)| part.is_boundary(u, w)).count()
}

/// Whether `u` and `w` live in different shards.
pub fn crosses_shards(u: NodeId, w: NodeId, shards: usize) -> bool {
    let part = NodePartition::new(shards);
    part.shard_of(u) != part.shard_of(w)
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced run only)
// ---------------------------------------------------------------------------

/// `graph.update`: `UpdateBatch::validate`.
pub fn validate(batch: &UpdateBatch, node_count: usize) -> bool {
    batch.validate(node_count).is_ok()
}

/// `graph.update`: `UpdateBatch::normalized`.
pub fn normalize(batch: &UpdateBatch, g: &LabeledGraph) -> UpdateBatch {
    batch.normalized(g)
}

/// `reach.incremental`: a shadow `incRCM` maintainer over its own graph
/// copy, fed the identical stream outside the `try_apply` span.
pub struct ShadowReach {
    g: LabeledGraph,
    inc: IncrementalReach,
}

impl ShadowReach {
    /// Compresses `g` (single-threaded) and keeps it for maintenance.
    pub fn new(g: LabeledGraph) -> Self {
        let inc = IncrementalReach::new(&g);
        ShadowReach { g, inc }
    }

    /// The shadow's current graph (pre-batch, for the normalize probe).
    pub fn graph(&self) -> &LabeledGraph {
        &self.g
    }

    /// `apply_with_delta`; returns the delta's churned class count.
    pub fn apply(&mut self, batch: &UpdateBatch) -> usize {
        self.inc.apply_with_delta(&mut self.g, batch).1.churned()
    }

    /// `stable_quotient()`; returns its edge count.
    pub fn export(&self) -> usize {
        self.inc.stable_quotient().edges.len()
    }
}

/// `pattern.incremental`: the `incPCM` twin of [`ShadowReach`].
pub struct ShadowPattern {
    g: LabeledGraph,
    inc: IncrementalPattern,
}

impl ShadowPattern {
    /// Compresses `g` by bisimulation and keeps it for maintenance.
    pub fn new(g: LabeledGraph) -> Self {
        let inc = IncrementalPattern::new(&g);
        ShadowPattern { g, inc }
    }

    /// `apply_with_delta`; returns the delta's churned class count.
    pub fn apply(&mut self, batch: &UpdateBatch) -> usize {
        self.inc.apply_with_delta(&mut self.g, batch).1.churned()
    }

    /// `stable_quotient()`; returns its edge count.
    pub fn export(&self) -> usize {
        self.inc.stable_quotient().edges.len()
    }

    /// `pattern.view`: `PatternView::build` on the current state; returns
    /// the view's live class count.
    pub fn build_view(&self) -> usize {
        PatternView::build(&self.inc.stable_quotient()).class_count()
    }
}

/// `reach.compress`: `compress_r`; returns `|Vr|`.
pub fn compress_r(g: &LabeledGraph) -> usize {
    qpgc_reach::compress::compress_r(g).class_count()
}

/// `pattern.compress`: `compress_b`; returns the class count.
pub fn compress_b(g: &LabeledGraph) -> usize {
    qpgc_pattern::compress::compress_b(g).class_count()
}

/// `reach.two_hop`: an index built over one snapshot's plain quotient.
pub struct TwoHopProbe(TwoHopIndex);

impl TwoHopProbe {
    /// `TwoHopIndex::build_with` on `snapshot.compressed_graph()`; `None`
    /// when the snapshot does not carry a 2-hop index (the layer does not
    /// run there).
    pub fn build(snapshot: &Snapshot) -> Option<TwoHopProbe> {
        snapshot.two_hop()?;
        Some(TwoHopProbe(TwoHopIndex::build_with(
            snapshot.compressed_graph(),
            &TwoHopConfig::default(),
        )))
    }

    /// `TwoHopIndex::query` on class ids.
    pub fn query(&self, cu: u32, cw: u32) -> bool {
        self.0.query(NodeId(cu), NodeId(cw))
    }

    /// `label_entries()`.
    pub fn label_entries(&self) -> usize {
        self.0.label_entries()
    }

    /// `heap_bytes()`.
    pub fn bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

/// `graph.succinct`: the packed form of one snapshot's quotient.
pub struct SuccinctProbe(CompressedCsr);

impl SuccinctProbe {
    /// `CompressedCsr::from_csr` on the snapshot's quotient in plain form.
    /// The inflate (when the snapshot already serves the succinct backend)
    /// happens in [`plain_quotient`], outside the timed call.
    pub fn pack(plain: &qpgc_graph::CsrGraph) -> SuccinctProbe {
        SuccinctProbe(CompressedCsr::from_csr(plain))
    }

    /// Decodes every row once; returns the number of edges visited.
    pub fn scan(&self) -> usize {
        (0..self.0.node_count() as u32)
            .map(|v| self.0.neighbors(NodeId(v)).count())
            .sum()
    }

    /// `bits_per_edge()`.
    pub fn bits_per_edge(&self) -> f64 {
        self.0.bits_per_edge()
    }

    /// `heap_bytes()`.
    pub fn bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

/// The snapshot's quotient as plain CSR (an `Arc` bump when already plain).
pub fn plain_quotient(snapshot: &Snapshot) -> Arc<qpgc_graph::CsrGraph> {
    snapshot.quotient().to_plain_arc()
}

/// `serve.snapshot`: `class_of` for both endpoints; `None` when either is
/// outside the snapshot.
pub fn class_pair(snapshot: &Snapshot, u: NodeId, w: NodeId) -> Option<(u32, u32)> {
    Some((snapshot.class_of(u)?, snapshot.class_of(w)?))
}

/// `serve.snapshot`: `quotient().bfs_reachable` on class ids.
pub fn quotient_bfs(snapshot: &Snapshot, cu: u32, cw: u32) -> bool {
    snapshot.quotient().bfs_reachable(NodeId(cu), NodeId(cw))
}

/// `serve.snapshot`: `quotient().heap_bytes()`.
pub fn quotient_bytes(snapshot: &Snapshot) -> usize {
    snapshot.quotient().heap_bytes()
}

/// `serve.bulk`: the free `bulk_reachable` at an explicit thread count.
pub fn bulk_reachable(cut: &Cut, queries: &[(NodeId, NodeId)], threads: usize) -> Vec<bool> {
    match cut {
        Cut::Single(s) => qpgc_serve::bulk_reachable(&**s, queries, threads),
        Cut::Sharded(s) => qpgc_serve::bulk_reachable(&**s, queries, threads),
    }
}

/// `serve.wal`: a shadow update log in the benchmark's work directory.
pub struct ShadowLog(UpdateLog);

impl ShadowLog {
    /// `UpdateLog::create` with `g` as the base record.
    pub fn create(path: &Path, g: &LabeledGraph) -> Result<ShadowLog, String> {
        UpdateLog::create(path, g)
            .map(ShadowLog)
            .map_err(|e| e.to_string())
    }

    /// `append`.
    pub fn append(&mut self, batch: &UpdateBatch) -> Result<(), String> {
        self.0.append(batch).map_err(|e| e.to_string())
    }

    /// `UpdateLog::read`; returns the number of committed batches.
    pub fn read(path: &Path) -> Result<usize, String> {
        UpdateLog::read(path)
            .map(|c| c.batches.len())
            .map_err(|e| e.to_string())
    }
}

/// `serve.persist`: the free `save_snapshot`.
pub fn persist_save(snapshot: &Snapshot, path: &Path) -> Result<(), String> {
    qpgc_serve::save_snapshot(snapshot, path).map_err(|e| e.to_string())
}

/// `serve.persist`: the free `load_snapshot`; returns the loaded snapshot's
/// class count.
pub fn persist_load(path: &Path) -> Result<usize, String> {
    qpgc_serve::load_snapshot(path)
        .map(|s| s.class_count())
        .map_err(|e| e.to_string())
}
