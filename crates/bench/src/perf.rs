//! Machine-readable perf snapshots (`BENCH_<n>.json`).
//!
//! From PR 2 onward the perf trajectory of the hot analysis paths is
//! recorded as JSON, one file per milestone (`BENCH_<n>.json` at the repo
//! root), so regressions and wins are diffable without re-reading PR
//! descriptions. The snapshot times every phase of the compression pipeline
//! on the citHepTh-scale emulated citation graph:
//!
//! * `build` — dataset generation (bulk sorted-dedup edge loading),
//! * `freeze` — [`LabeledGraph::freeze`] into the CSR snapshot,
//! * `bisim_baseline` — the pre-CSR per-round hash-table bisimulation,
//! * `bisim_csr` — the allocation-free worklist refinement over CSR,
//! * `compress_r` / `compress_b` — the two compression schemes over CSR,
//! * `query_eval` — 300 rewritten reachability queries answered on `Gr`.
//!
//! It also records, for every Table-1 dataset emulation, the heap footprint
//! of the mutable graph versus its CSR snapshot — the CSR number must be
//! strictly smaller on every dataset.
//!
//! Since PR 3 (`BENCH_3.json`, schema v2) two more sections track the
//! serving layer:
//!
//! * `serve` — bulk reachability-query throughput through a
//!   [`qpgc_serve::CompressedStore`] snapshot of the largest emulated
//!   dataset (wikiTalk), single- vs multi-threaded;
//! * `two_hop_label_entries` — 2-hop index size (label entries) with the
//!   legacy node-id labels versus the rank labels, per Fig. 12(d) dataset,
//!   over both `G` and `Gr` — the before/after record of the rank-label
//!   pruning fix.
//!
//! Since PR 4 (`BENCH_4.json`, schema v3 — a superset of v2) a further
//! section tracks incremental snapshot construction:
//!
//! * `snapshot_incremental` — seeded **cone-local** update streams (mixed
//!   insertions and deletions between small-reachability-cone endpoints,
//!   each batch 0.1 % of the dataset's edges — the localized regime the
//!   paper's incremental-maintenance results target) driven through two
//!   stores: one with `damage_threshold = 0` (every batch rebuilds the
//!   snapshot from scratch) and one with patching enabled. Per dataset the
//!   row records both **publication** wall-clocks
//!   (`ApplyReport::publish_ms` — the incremental maintenance of the
//!   compressions costs the same on both sides and is excluded), the
//!   speedup, how many batches actually took the patched path, and the
//!   final snapshot heap on both sides; the two stores' final snapshots
//!   are differentially checked against each other before the row is
//!   emitted.
//!
//! Since PR 5 (`BENCH_5.json`, **schema v4** — a superset of v3) the
//! `snapshot_incremental` section also carries rows with
//! `serve_patterns: true`: both stores additionally maintain and serve the
//! pattern preserving compression over labeled Table 2 emulations, so the
//! publication wall-clocks compare re-materializing the pattern quotient
//! every batch against the delta path (`Arc`-shared when the bisimulation
//! partition is untouched, row-patched `PatternView` below the damage
//! gate). Each row records `serve_patterns` and how many publications
//! row-patched the pattern view (`pattern_patched_batches`), and the two
//! stores' final pattern answers are differentially checked alongside the
//! reachability sample.
//!
//! Since PR 6 (`BENCH_6.json`, **schema v5** — a superset of v4) a
//! `store_sharding` section tracks the multi-writer router:
//!
//! * `throughput` rows apply the same pre-generated cone-local update
//!   stream through [`qpgc_serve::ShardedStore`]s of 1, 2, and 4 shards,
//!   recording per `shard_count` the initial `cross_edges` under that
//!   partition, the final cut's boundary-vertex count, total apply
//!   wall-clock, `updates_per_sec`, and the summed
//!   `ApplyReport::publish_ms` (slowest concurrent shard publication plus
//!   the watermark bump). Every final cut is differentially checked
//!   against a single [`CompressedStore`] that replayed the same stream.
//! * `latency` rows split a query sample on the 4-shard store by whether
//!   the endpoints share a shard (`cross_shard`): intra-shard queries are
//!   answered by one shard snapshot, cross-shard queries compose through
//!   the boundary summary — the overhead of composition is the recorded
//!   number.
//!
//! Since PR 7 (`BENCH_7.json`, **schema v6** — a superset of v5) a
//! `robustness` section prices the fault-tolerant apply pipeline:
//!
//! * per dataset (citHepTh and wikiTalk emulations), the wall-clock of the
//!   **guard work** the pipeline added to the no-fault path — per-batch
//!   validation plus the rollback-inverse normalization — measured in
//!   isolation and reported as `overhead_pct` of the full apply stream
//!   (target: < 3 %);
//! * the same stream with the write-behind [`qpgc_serve::UpdateLog`]
//!   attached (`logged_ms`), and crash-recovery **replay throughput**
//!   (`replay_batches_per_sec`) — `recover_from_log` rebuilding the store
//!   from the log, differentially spot-checked against the live store.
//!
//! Since PR 8 (`BENCH_8.json`, **schema v7** — a superset of v6) a section
//! tracks the parallel maintenance paths (v7 and v8 files also carry an
//! `adaptive_gate` section pricing a measuring gate mode that has since
//! been removed; **schema v9** is v8 without it):
//!
//! * `parallel_maintenance` — wall-clock of the parallel rebuild kernel,
//!   at 1, 2, and 4 threads: `refine` (worklist-partitioned bisimulation
//!   refinement over a labeled Table 2 emulation). It is bit-identical to
//!   sequential by construction; the speedup column is the point, and its
//!   assertion is `QPGC_TIMING_TESTS`-gated like every other wall-clock
//!   claim. (`BENCH_8`/`BENCH_9` also carry three `relabel` rows, timing a
//!   2-hop patch path that has since been deleted.)
//!
//! Since PR 9 (`BENCH_9.json`, **schema v8** — a superset of v7) two
//! sections track the succinct snapshot backend:
//!
//! * `succinct_snapshot` — every Table-1 quotient packed both ways
//!   ([`qpgc_serve::SnapshotFormat::Plain`] vs `Succinct`): heap bytes and
//!   ratio (the ≤ 0.5× criterion), packed bits per quotient edge, and
//!   point-query wall-clock through `Snapshot::reachable` on both stores
//!   (the ≤ 3× criterion), answers asserted identical pair-by-pair.
//! * `succinct_boot` — a logged update stream with a snapshot file saved
//!   mid-stream: on-disk size, `save_snapshot` / `load_snapshot`
//!   wall-clock (load is the time-to-first-answer a booting replica
//!   pays), `boot_from_snapshot` end-to-end (load + one recompress +
//!   log-tail replay) vs `recover_from_log` full-history replay, the
//!   booted store differentially checked against the live one.
//!
//! Produce a snapshot with:
//!
//! ```text
//! cargo run --release -p qpgc_bench --bin bench_json -- --out BENCH_<n>.json
//! QPGC_SCALE=500 cargo run --release -p qpgc_bench --bin bench_json   # CI smoke
//! cargo run --release -p qpgc_bench --bin bench_json -- --compare BENCH_9.json
//! ```
//!
//! Without `--out` the snapshot is written to `target/bench_snapshot.json`
//! (ignored by git), never over a committed baseline.
//! `--compare` prints a per-phase regression table against a previously
//! committed snapshot (the ROADMAP's compare-against-previous convention).
//!
//! [`LabeledGraph::freeze`]: qpgc_graph::LabeledGraph::freeze

use std::fmt::Write as _;
use std::time::Instant;

use qpgc_generators::datasets::{dataset, pattern_dataset, FIG12D_DATASETS, REACHABILITY_DATASETS};
use qpgc_generators::updates::local_batch;
use qpgc_graph::partition::boundary_edges;
use qpgc_graph::traversal::bfs_reachable;
use qpgc_graph::{NodePartition, UpdateBatch};
use qpgc_pattern::bisim::{
    bisimulation_partition_baseline, bisimulation_partition_csr, bisimulation_partition_threads,
};
use qpgc_pattern::compress::compress_b_csr;
use qpgc_pattern::pattern::Pattern;
use qpgc_reach::compress::{compress_r, compress_r_csr};
use qpgc_reach::two_hop::{CoverageEstimate, TwoHopConfig, TwoHopIndex};
use qpgc_serve::{
    bulk_reachable, ApplyPath, CompressedStore, GateMode, ReachStore as _, ShardedStore,
    SnapshotFormat, StoreConfig,
};

use crate::harness::random_pairs;

/// Heap footprint of one dataset emulation in both representations.
#[derive(Clone, Debug)]
pub struct HeapRow {
    /// Dataset name (Table 1).
    pub name: String,
    /// Node count of the emulation.
    pub nodes: usize,
    /// Edge count of the emulation.
    pub edges: usize,
    /// `LabeledGraph::heap_bytes()`.
    pub labeled_bytes: usize,
    /// `CsrGraph::heap_bytes()` of the frozen snapshot.
    pub csr_bytes: usize,
}

/// One bulk-query throughput measurement through the serving layer.
#[derive(Clone, Debug)]
pub struct BulkQueryRow {
    /// Worker threads used by [`bulk_reachable`].
    pub threads: usize,
    /// Best-of-3 wall-clock for the whole batch.
    pub elapsed_ms: f64,
    /// Queries per second at that wall-clock.
    pub qps: f64,
}

/// 2-hop index size before/after the rank-label fix, for one graph.
#[derive(Clone, Debug)]
pub struct TwoHopEntriesRow {
    /// Fig. 12(d) dataset name.
    pub dataset: String,
    /// `"G"` (original) or `"Gr"` (reachability-compressed).
    pub graph: String,
    /// `label_entries()` of the legacy node-id-labelled build.
    pub legacy: usize,
    /// `label_entries()` of the rank-labelled build.
    pub ranked: usize,
}

/// Full-rebuild vs. delta-patched snapshot publication for one dataset
/// emulation (the `snapshot_incremental` experiment).
#[derive(Clone, Debug)]
pub struct SnapshotIncRow {
    /// Dataset emulation name.
    pub dataset: String,
    /// Scale divisor the emulation was generated at.
    pub scale: usize,
    /// Node / edge counts of the data graph.
    pub nodes: usize,
    /// Edge count of the data graph.
    pub edges: usize,
    /// Live hypernode count of the final snapshot.
    pub classes: usize,
    /// Number of update batches in the stream.
    pub batches: usize,
    /// Updates per batch (0.1 % of the edges).
    pub batch_size: usize,
    /// Whether the stores carried a 2-hop index (rebuilt on every
    /// publication that changes `Gr`, on either path).
    pub two_hop: bool,
    /// Whether the stores also maintained and served the pattern
    /// preserving compression (schema v4).
    pub serve_patterns: bool,
    /// Total snapshot-publication wall-clock (`ApplyReport::publish_ms` —
    /// excludes the path-independent incremental maintenance) with
    /// `damage_threshold = 0`: every batch rebuilds from scratch.
    pub full_ms: f64,
    /// Total snapshot-publication wall-clock with delta patching enabled.
    pub delta_ms: f64,
    /// `full_ms / delta_ms`.
    pub speedup: f64,
    /// Batches whose **reachability** side actually took the patched path
    /// on the delta store (reachability-quiet publications that only
    /// touched the pattern view are not counted).
    pub patched_batches: usize,
    /// Publications that row-patched the pattern view on the delta store
    /// (always 0 when `serve_patterns` is off; quiet batches that shared
    /// the view pointer-wise are not counted).
    pub pattern_patched_batches: usize,
    /// Final snapshot heap on the full-rebuild store.
    pub full_heap: usize,
    /// Final snapshot heap on the delta store.
    pub delta_heap: usize,
}

/// Multi-writer apply throughput for one shard count (the `store_sharding`
/// experiment).
#[derive(Clone, Debug)]
pub struct ShardingThroughputRow {
    /// Number of hash-partitioned shards the router ran.
    pub shard_count: usize,
    /// Boundary edges of the initial graph under that partition.
    pub cross_edges: usize,
    /// Boundary vertices (distinct cross-edge endpoints) of the final cut.
    pub boundary_vertices: usize,
    /// Total `ShardedStore::apply` wall-clock over the stream (slicing,
    /// concurrent shard maintenance, boundary rebuild, cut swap).
    pub apply_ms: f64,
    /// Updates applied per second at that wall-clock.
    pub updates_per_sec: f64,
    /// Summed `ApplyReport::publish_ms` — slowest concurrent shard
    /// publication plus the watermark bump, per batch.
    pub publish_ms: f64,
}

/// Query latency on the 4-shard store, split by whether the endpoints
/// share a shard (the `store_sharding` experiment's `latency` rows).
#[derive(Clone, Debug)]
pub struct ShardingLatencyRow {
    /// Number of shards the answering store ran.
    pub shard_count: usize,
    /// `true`: endpoints in different shards, so every positive answer
    /// composed through the boundary summary.
    pub cross_shard: bool,
    /// Queries in this row's batch.
    pub queries: usize,
    /// Best-of-3 single-threaded wall-clock for the whole batch.
    pub elapsed_ms: f64,
    /// Queries per second at that wall-clock.
    pub qps: f64,
}

/// The `store_sharding` section: one update stream, three shard counts,
/// plus the intra/cross latency split (schema v5).
#[derive(Clone, Debug, Default)]
pub struct StoreShardingSection {
    /// Dataset emulation the stream ran over.
    pub dataset: String,
    /// Scale divisor of the emulation.
    pub scale: usize,
    /// Node count of the data graph.
    pub nodes: usize,
    /// Edge count of the data graph.
    pub edges: usize,
    /// Number of update batches in the stream.
    pub batches: usize,
    /// Updates per batch.
    pub batch_size: usize,
    /// Apply-throughput rows, ascending shard count (1, 2, 4).
    pub throughput: Vec<ShardingThroughputRow>,
    /// Latency rows on the largest shard count: intra-shard then
    /// cross-shard.
    pub latency: Vec<ShardingLatencyRow>,
}

/// Applies the same cone-local stream through sharded stores of 1, 2, and
/// 4 shards, differentially checking every final cut against a single
/// store that replayed the identical stream, and measures the intra- vs
/// cross-shard query latency split on the 4-shard cut.
fn store_sharding_section(scale: usize) -> StoreShardingSection {
    let name = "citHepTh";
    let ds_scale = scale.max(40);
    let g = dataset(name, ds_scale, 0).expect("known dataset");
    let nodes = g.node_count();
    let edges = g.edge_count();
    let batches = 6usize;
    let batch_size = (edges / 500).max(4);

    // One pre-generated stream, replayed identically by every store.
    let mut stream: Vec<UpdateBatch> = Vec::with_capacity(batches);
    {
        let mut evolving = g.clone();
        for i in 0..batches {
            let batch = local_batch(&evolving, batch_size, 8, 0xB0B + i as u64);
            batch.apply_to(&mut evolving);
            stream.push(batch);
        }
    }

    // The single-store oracle for the differential checks.
    let single = CompressedStore::new(g.clone(), StoreConfig::default());
    for batch in &stream {
        single.apply(batch);
    }
    let single_cut = single.load();
    let sample = random_pairs(&g, 2_000, 17);

    let mut throughput: Vec<ShardingThroughputRow> = Vec::new();
    let mut latency: Vec<ShardingLatencyRow> = Vec::new();
    for shards in [1usize, 2, 4] {
        let part = NodePartition::new(shards);
        let cross_edges = boundary_edges(&g, &part).len();
        let store = ShardedStore::new(g.clone(), StoreConfig::builder().shards(shards).build())
            .expect("valid sharded config");
        let mut publish_ms = 0.0;
        let mut updates = 0usize;
        let t = Instant::now();
        for batch in &stream {
            let report = store.apply(batch);
            publish_ms += report.publish_ms;
            updates += batch.len();
        }
        let apply_ms = ms(t);
        let cut = store.load();
        for &(u, w) in &sample {
            assert_eq!(
                cut.reachable(u, w),
                single_cut.reachable(u, w),
                "{name}: {shards}-shard cut disagrees with the single store on ({u}, {w})"
            );
        }
        throughput.push(ShardingThroughputRow {
            shard_count: shards,
            cross_edges,
            boundary_vertices: cut.boundary().vertex_count(),
            apply_ms,
            updates_per_sec: updates as f64 / (apply_ms / 1e3).max(1e-9),
            publish_ms,
        });

        if shards == 4 {
            let (cross, intra): (Vec<_>, Vec<_>) = sample
                .iter()
                .copied()
                .partition(|&(u, w)| part.is_boundary(u, w));
            for (cross_shard, queries) in [(false, intra), (true, cross)] {
                let mut best = f64::INFINITY;
                for _ in 0..3 {
                    let t = Instant::now();
                    let _ = bulk_reachable(&*cut, &queries, 1);
                    best = best.min(ms(t));
                }
                latency.push(ShardingLatencyRow {
                    shard_count: shards,
                    cross_shard,
                    queries: queries.len(),
                    elapsed_ms: best,
                    qps: queries.len() as f64 / (best / 1e3).max(1e-9),
                });
            }
        }
    }

    StoreShardingSection {
        dataset: name.to_string(),
        scale: ds_scale,
        nodes,
        edges,
        batches,
        batch_size,
        throughput,
        latency,
    }
}

/// One dataset's fault-tolerance pricing row (the `robustness` section,
/// schema v6).
#[derive(Clone, Debug)]
pub struct RobustnessRow {
    /// Dataset emulation the stream ran over.
    pub dataset: String,
    /// Scale divisor of the emulation.
    pub scale: usize,
    /// Node count of the data graph.
    pub nodes: usize,
    /// Edge count of the data graph.
    pub edges: usize,
    /// Number of update batches in the stream.
    pub batches: usize,
    /// Updates per batch.
    pub batch_size: usize,
    /// Total `try_apply` wall-clock for the stream — the production
    /// no-fault path, validation and staged publication included.
    pub apply_ms: f64,
    /// Wall-clock of the work the fault-tolerant pipeline *added* to that
    /// path: per-batch validation plus the rollback-inverse normalization,
    /// measured in isolation against the same evolving graph.
    pub guard_ms: f64,
    /// `100 · guard_ms / apply_ms` — the no-fault-path overhead (%).
    pub overhead_pct: f64,
    /// Stream wall-clock with the write-behind update log attached.
    pub logged_ms: f64,
    /// Crash-recovery throughput: `recover_from_log` replaying the whole
    /// log (base graph load + every batch through the normal apply
    /// pipeline), in batches per second.
    pub replay_batches_per_sec: f64,
}

/// Prices the fault-tolerant apply pipeline on one dataset emulation: the
/// guard work added to the no-fault path, the write-behind log's cost, and
/// crash-recovery replay throughput. The recovered store is differentially
/// spot-checked against the live one before the row is emitted.
fn robustness_row(name: &str, scale: usize, batches: usize) -> RobustnessRow {
    let g = dataset(name, scale, 0).expect("known dataset");
    let nodes = g.node_count();
    let edges = g.edge_count();
    let batch_size = (edges / 500).max(4);

    // One pre-generated cone-local stream, replayed by every measurement.
    let mut stream: Vec<UpdateBatch> = Vec::with_capacity(batches);
    {
        let mut evolving = g.clone();
        for i in 0..batches {
            let batch = local_batch(&evolving, batch_size, 8, 0x0DD + i as u64);
            batch.apply_to(&mut evolving);
            stream.push(batch);
        }
    }

    // The guard work the pipeline added to every no-fault apply:
    // validation plus the rollback-inverse normalization, measured against
    // the same evolving graph the store's writer sees.
    let mut guard_ms = 0.0;
    {
        let mut evolving = g.clone();
        for batch in &stream {
            let t = Instant::now();
            batch.validate(evolving.node_count()).expect("clean stream");
            std::hint::black_box(batch.normalized(&evolving));
            guard_ms += ms(t);
            batch.apply_to(&mut evolving);
        }
    }

    let store = CompressedStore::new(g.clone(), StoreConfig::default());
    let t = Instant::now();
    for batch in &stream {
        store.try_apply(batch).expect("clean stream applies");
    }
    let apply_ms = ms(t);

    let log_path = std::env::temp_dir().join(format!(
        "qpgc_bench_robustness_{}_{name}.log",
        std::process::id()
    ));
    let logged = CompressedStore::new_with_log(g.clone(), StoreConfig::default(), &log_path)
        .expect("log creation succeeds");
    let t = Instant::now();
    for batch in &stream {
        logged.try_apply(batch).expect("clean stream applies");
    }
    let logged_ms = ms(t);

    let t = Instant::now();
    let recovered = CompressedStore::recover_from_log(&log_path, StoreConfig::default())
        .expect("replay succeeds");
    let replay_ms = ms(t);
    assert_eq!(recovered.version(), batches as u64);
    let live = store.load();
    let replayed = recovered.load();
    for &(u, w) in &random_pairs(&g, 500, 23) {
        assert_eq!(
            live.reachable(u, w),
            replayed.reachable(u, w),
            "{name}: recovered store disagrees with the live one on ({u}, {w})"
        );
    }
    let _ = std::fs::remove_file(&log_path);

    RobustnessRow {
        dataset: name.to_string(),
        scale,
        nodes,
        edges,
        batches,
        batch_size,
        apply_ms,
        guard_ms,
        overhead_pct: 100.0 * guard_ms / apply_ms.max(1e-9),
        logged_ms,
        replay_batches_per_sec: batches as f64 / (replay_ms / 1e3).max(1e-9),
    }
}

/// Wall-clock of one parallel maintenance kernel at one thread count
/// (schema v7).
#[derive(Clone, Debug)]
pub struct ParallelMaintenanceRow {
    /// Dataset emulation the kernel ran over.
    pub dataset: String,
    /// Scale divisor of the emulation.
    pub scale: usize,
    /// `"refine"` (worklist-partitioned bisimulation refinement).
    pub task: String,
    /// Worker threads.
    pub threads: usize,
    /// Best-of-3 wall-clock.
    pub elapsed_ms: f64,
    /// One-thread wall-clock over this row's — 1.0 for the baseline row.
    pub speedup: f64,
}

/// Times the parallel refinement kernel at 1, 2, and 4 threads. The
/// outputs are bit-identical to sequential at every thread count (the
/// determinism suites pin that); these rows record what the parallelism
/// buys in wall-clock.
fn parallel_maintenance_rows(scale: usize) -> Vec<ParallelMaintenanceRow> {
    let mut rows = Vec::new();

    // Refinement over the largest labeled Table 2 emulation.
    let refine_scale = scale.max(2);
    let labeled = pattern_dataset("California", refine_scale, 0).expect("known dataset");
    let mut base = 0.0;
    for threads in [1usize, 2, 4] {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            std::hint::black_box(bisimulation_partition_threads(&labeled, threads));
            best = best.min(ms(t));
        }
        if threads == 1 {
            base = best;
        }
        rows.push(ParallelMaintenanceRow {
            dataset: "California".into(),
            scale: refine_scale,
            task: "refine".into(),
            threads,
            elapsed_ms: best,
            speedup: base / best.max(1e-9),
        });
    }
    rows
}

/// Succinct-vs-plain snapshot backend comparison on one Table-1 quotient
/// (schema v8): heap footprint of the served quotient CSR in both formats
/// and point-query latency through [`qpgc_serve::Snapshot::reachable`].
#[derive(Clone, Debug)]
pub struct SuccinctSnapshotRow {
    /// Dataset emulation (Table 1).
    pub dataset: String,
    /// Scale divisor of the emulation.
    pub scale: usize,
    /// Node count of the data graph.
    pub nodes: usize,
    /// Edge count of the data graph.
    pub edges: usize,
    /// Hypernode count of the served quotient.
    pub classes: usize,
    /// Edge count of the served quotient.
    pub quotient_edges: usize,
    /// Heap bytes of the plain `CsrGraph` quotient backend.
    pub plain_bytes: usize,
    /// Heap bytes of the packed `CompressedCsr` backend (same quotient).
    pub succinct_bytes: usize,
    /// `succinct_bytes / plain_bytes` — the ≤ 0.5 criterion.
    pub heap_ratio: f64,
    /// Packed size over quotient edges, in bits per edge.
    pub bits_per_edge: f64,
    /// Best-of-3 wall-clock of the point-query batch on the plain store.
    pub plain_query_ms: f64,
    /// Same batch on the succinct store (identical answers asserted).
    pub succinct_query_ms: f64,
    /// `succinct_query_ms / plain_query_ms` — the ≤ 3 criterion.
    pub query_ratio: f64,
}

/// Packs every Table-1 quotient both ways and races point queries through
/// the two stores. Answers are asserted identical pair-by-pair before a
/// row is emitted.
///
/// Each dataset runs at a per-dataset divisor targeting ≈65k original
/// nodes (never below the caller's `scale`): the heap criterion is about
/// the *asymptotic* encoding, and below a few hundred quotient classes
/// the succinct backend's fixed costs (Elias–Fano samples, `Vec`
/// headers) dominate and the ratio measures overhead, not encoding.
fn succinct_snapshot_rows(scale: usize) -> Vec<SuccinctSnapshotRow> {
    REACHABILITY_DATASETS
        .iter()
        .map(|spec| {
            let s = spec.original_nodes.div_ceil(65_000).max(scale);
            let g = spec.generate(s, 0);
            let store = |format| {
                CompressedStore::new(
                    g.clone(),
                    StoreConfig::builder().snapshot_format(format).build(),
                )
            };
            let plain = store(SnapshotFormat::Plain).load();
            let succ = store(SnapshotFormat::Succinct).load();
            let plain_gr = plain
                .quotient()
                .as_plain()
                .expect("plain store serves a plain backend");
            let succ_gr = succ
                .quotient()
                .as_succinct()
                .expect("succinct store serves a packed backend");
            let plain_bytes = plain_gr.heap_bytes();
            let succinct_bytes = succ_gr.heap_bytes();
            let pairs = random_pairs(&g, 400, 29);
            let time_store = |snap: &qpgc_serve::Snapshot| {
                let mut best = f64::INFINITY;
                let mut hits = 0usize;
                for _ in 0..3 {
                    let t = Instant::now();
                    hits = pairs.iter().filter(|&&(u, w)| snap.reachable(u, w)).count();
                    best = best.min(ms(t));
                }
                (best, hits)
            };
            let (plain_query_ms, plain_hits) = time_store(&plain);
            let (succinct_query_ms, succ_hits) = time_store(&succ);
            assert_eq!(
                plain_hits, succ_hits,
                "{}: succinct answers diverged from plain",
                spec.name
            );
            SuccinctSnapshotRow {
                dataset: spec.name.to_string(),
                scale: s,
                nodes: g.node_count(),
                edges: g.edge_count(),
                classes: plain.class_count(),
                quotient_edges: succ_gr.edge_count(),
                plain_bytes,
                succinct_bytes,
                heap_ratio: succinct_bytes as f64 / plain_bytes.max(1) as f64,
                bits_per_edge: succinct_bytes as f64 * 8.0 / succ_gr.edge_count().max(1) as f64,
                plain_query_ms,
                succinct_query_ms,
                query_ratio: succinct_query_ms / plain_query_ms.max(1e-9),
            }
        })
        .collect()
}

/// Boot-from-snapshot vs full-history replay on one dataset emulation
/// (schema v8). The booted store is differentially spot-checked against
/// the live one before the row is emitted.
#[derive(Clone, Debug)]
pub struct SuccinctBootRow {
    /// Dataset emulation the stream ran over.
    pub dataset: String,
    /// Scale divisor of the emulation.
    pub scale: usize,
    /// Batches in the logged stream (snapshot saved after the first half).
    pub batches: usize,
    /// Updates per batch.
    pub batch_size: usize,
    /// On-disk size of the packed snapshot file.
    pub snapshot_file_bytes: usize,
    /// `save_snapshot` wall-clock (pack + CRC-framed write).
    pub save_ms: f64,
    /// `load_snapshot` wall-clock — file to a servable, BFS-exact cut.
    /// This is the time-to-first-answer a booting replica pays.
    pub load_ms: f64,
    /// `boot_from_snapshot` end-to-end: load, one recompress to rebuild
    /// maintainer state, and log-tail replay.
    pub boot_ms: f64,
    /// `recover_from_log` end-to-end: full-history replay from batch 0.
    pub replay_ms: f64,
}

fn succinct_boot_row(name: &str, scale: usize, batches: usize) -> SuccinctBootRow {
    let g = dataset(name, scale, 0).expect("known dataset");
    let batch_size = (g.edge_count() / 500).max(4);
    let pid = std::process::id();
    let log_path = std::env::temp_dir().join(format!("qpgc_bench_boot_{pid}_{name}.log"));
    let snap_path = std::env::temp_dir().join(format!("qpgc_bench_boot_{pid}_{name}.snap"));
    let config = StoreConfig::builder()
        .snapshot_format(SnapshotFormat::Auto)
        .build();
    let live =
        CompressedStore::new_with_log(g.clone(), config, &log_path).expect("log creation succeeds");
    let mut evolving = g.clone();
    let mut save_ms = 0.0;
    for i in 0..batches {
        if i == batches / 2 {
            let t = Instant::now();
            live.save_snapshot(&snap_path).expect("snapshot saves");
            save_ms = ms(t);
        }
        let batch = local_batch(&evolving, batch_size, 8, 0xB00 + i as u64);
        live.try_apply(&batch).expect("clean stream applies");
        batch.apply_to(&mut evolving);
    }
    let snapshot_file_bytes = std::fs::metadata(&snap_path)
        .expect("snapshot file exists")
        .len() as usize;

    let t = Instant::now();
    let loaded = qpgc_serve::load_snapshot(&snap_path).expect("snapshot loads");
    let load_ms = ms(t);
    assert_eq!(loaded.version(), (batches / 2) as u64);

    let t = Instant::now();
    let booted =
        CompressedStore::boot_from_snapshot(&snap_path, &log_path, config).expect("boot succeeds");
    let boot_ms = ms(t);

    let t = Instant::now();
    let replayed = CompressedStore::recover_from_log(&log_path, config).expect("replay succeeds");
    let replay_ms = ms(t);

    assert_eq!(booted.version(), batches as u64);
    assert_eq!(replayed.version(), batches as u64);
    let live_snap = live.load();
    let boot_snap = booted.load();
    for &(u, w) in &random_pairs(&g, 300, 31) {
        assert_eq!(
            live_snap.reachable(u, w),
            boot_snap.reachable(u, w),
            "{name}: booted store disagrees with the live one on ({u}, {w})"
        );
    }
    let _ = std::fs::remove_file(&log_path);
    let _ = std::fs::remove_file(&snap_path);

    SuccinctBootRow {
        dataset: name.to_string(),
        scale,
        batches,
        batch_size,
        snapshot_file_bytes,
        save_ms,
        load_ms,
        boot_ms,
        replay_ms,
    }
}

/// One perf snapshot: per-phase wall-clock on the citHepTh-scale graph plus
/// the per-dataset heap comparison.
#[derive(Clone, Debug)]
pub struct PerfSnapshot {
    /// Dataset scale divisor (1 = original citHepTh size, ≈28k nodes).
    pub scale: usize,
    /// Phase-timing dataset name.
    pub dataset: String,
    /// Node count of the timed graph.
    pub nodes: usize,
    /// Edge count of the timed graph.
    pub edges: usize,
    /// `(phase name, milliseconds)` in pipeline order.
    pub phases_ms: Vec<(String, f64)>,
    /// `bisim_baseline / bisim_csr` wall-clock ratio (the ≥2× criterion).
    pub bisim_speedup: f64,
    /// Scale divisor the heap rows were generated at (`scale.max(10)` — the
    /// multi-million-node emulations stay affordable at full scale).
    pub heap_scale: usize,
    /// Heap comparison rows, one per Table-1 dataset.
    pub heap: Vec<HeapRow>,
    /// Dataset served in the bulk-query experiment (the largest emulation,
    /// wikiTalk, at `heap_scale`).
    pub serve_dataset: String,
    /// Node / edge counts of the served data graph.
    pub serve_nodes: usize,
    /// Edge count of the served data graph.
    pub serve_edges: usize,
    /// Hypernode count of the served snapshot's `Gr`.
    pub serve_classes: usize,
    /// Number of reachability queries in the bulk batch.
    pub serve_queries: usize,
    /// Throughput rows, ascending thread count (first row is 1 thread).
    pub bulk: Vec<BulkQueryRow>,
    /// Scale divisor of the 2-hop entry rows (`scale.max(300)` — the legacy
    /// build is deliberately unpruned-ish and blows up past that).
    pub two_hop_scale: usize,
    /// Rank-fix before/after rows, two per Fig. 12(d) dataset (`G`, `Gr`).
    pub two_hop_entries: Vec<TwoHopEntriesRow>,
    /// Full-rebuild vs. delta-patch publication rows (schema v3).
    pub snapshot_incremental: Vec<SnapshotIncRow>,
    /// Sharded-store throughput and latency rows (schema v5).
    pub store_sharding: StoreShardingSection,
    /// Fault-tolerance pricing rows (schema v6).
    pub robustness: Vec<RobustnessRow>,
    /// Parallel maintenance kernel rows (schema v7).
    pub parallel_maintenance: Vec<ParallelMaintenanceRow>,
    /// Succinct-vs-plain backend rows, one per Table-1 dataset (schema v8).
    pub succinct_snapshot: Vec<SuccinctSnapshotRow>,
    /// Boot-from-snapshot vs full-replay rows (schema v8).
    pub succinct_boot: Vec<SuccinctBootRow>,
}

/// Drives a seeded **cone-local** update stream (each batch 0.1 % of the
/// edges, endpoints with single-digit reachability cones — see
/// [`qpgc_generators::updates::local_batch`] for why this is the
/// small-affected-region regime that delta patching targets, and why
/// uniformly random endpoints on these emulations churn the whole quotient
/// and are instead routed to full rebuilds by the damage gate) through a
/// full-rebuild store and a delta-patching store, and records both
/// **publication** wall-clocks ([`qpgc_serve::ApplyReport::publish_ms`] —
/// the incremental maintenance of the compressions costs the same on both
/// sides and is excluded). `delta_gate` is the delta store's publication
/// gate: the reachability rows force patching ([`GateMode::AlwaysPatch`]
/// — CSR rows and node index patched, the 2-hop index rebuilt over the
/// patched CSR), while the
/// `serve_patterns` rows run the production default so the per-side gate
/// is what is measured — on the labeled web emulations cone-local batches
/// churn the *reachability* quotient heavily (correctly routed to
/// rebuilds) while the bisimulation quotient churns under 1 %, which is
/// exactly the regime the pattern-side patch targets. The two final
/// snapshots are differentially checked on a sample of query pairs (and
/// pattern queries, when served) before the row is returned.
fn snapshot_incremental_row(
    name: &str,
    ds_scale: usize,
    two_hop: bool,
    serve_patterns: bool,
    delta_gate: GateMode,
    batches: usize,
) -> SnapshotIncRow {
    let g = dataset(name, ds_scale, 0)
        .or_else(|| pattern_dataset(name, ds_scale, 0))
        .expect("known dataset");
    let nodes = g.node_count();
    let edges = g.edge_count();
    let batch_size = (edges / 1000).max(1);

    // Generate the stream once, against an evolving copy, so both stores
    // replay the identical batches.
    let mut stream: Vec<UpdateBatch> = Vec::with_capacity(batches);
    {
        let mut evolving = g.clone();
        for i in 0..batches {
            let batch = local_batch(&evolving, batch_size, 8, 0x5eed + i as u64);
            batch.apply_to(&mut evolving);
            stream.push(batch);
        }
    }

    let config = |gate: GateMode| {
        let mut builder = StoreConfig::builder().patterns(serve_patterns).gate(gate);
        if two_hop {
            builder = builder.two_hop(TwoHopConfig::default());
        }
        builder.build()
    };

    let full_store = CompressedStore::new(g.clone(), config(GateMode::AlwaysRebuild));
    let mut full_ms = 0.0;
    for batch in &stream {
        full_ms += full_store.apply(batch).publish_ms;
    }

    let delta_store = CompressedStore::new(g.clone(), config(delta_gate));
    let mut delta_ms = 0.0;
    let mut patched_batches = 0usize;
    let mut pattern_patched_batches = 0usize;
    for batch in &stream {
        let report = delta_store.apply(batch);
        delta_ms += report.publish_ms;
        // `Patched { churn: 0.0 }` names a reachability-quiet publication
        // whose *pattern* view was row-patched; only positive reach churn
        // means the reachability structures themselves took the delta path.
        if matches!(report.path, ApplyPath::Patched { churn, .. } if churn > 0.0) {
            patched_batches += 1;
        }
        if report.path.pattern_patched() {
            pattern_patched_batches += 1;
        }
    }

    // Differential: both final snapshots must agree on a query sample.
    let full_snap = full_store.load();
    let delta_snap = delta_store.load();
    assert_eq!(full_snap.class_count(), delta_snap.class_count());
    for (u, w) in random_pairs(&g, 5_000, 13) {
        assert_eq!(
            full_snap.reachable(u, w),
            delta_snap.reachable(u, w),
            "{name}: full and delta snapshots disagree on ({u}, {w})"
        );
    }
    if serve_patterns {
        // One-edge queries over label names actually present in the data
        // graph, answered by both final snapshots.
        let queries: Vec<Pattern> = g
            .edges()
            .take(3)
            .filter_map(|(u, v)| {
                let mut q = Pattern::new();
                let a = q.add_node(g.label_name(u)?);
                let b = q.add_node(g.label_name(v)?);
                q.add_edge(a, b, 2);
                Some(q)
            })
            .collect();
        for (qi, q) in queries.iter().enumerate() {
            qpgc_pattern::pattern::assert_same_answer(
                &full_snap.match_pattern(q),
                &delta_snap.match_pattern(q),
                &format!("{name}: full vs delta pattern answer, query {qi}"),
            );
        }
    }

    SnapshotIncRow {
        dataset: name.to_string(),
        scale: ds_scale,
        nodes,
        edges,
        classes: delta_snap.class_count(),
        batches,
        batch_size,
        two_hop,
        serve_patterns,
        full_ms,
        delta_ms,
        speedup: full_ms / delta_ms.max(1e-9),
        patched_batches,
        pattern_patched_batches,
        full_heap: full_snap.heap_bytes(),
        delta_heap: delta_snap.heap_bytes(),
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs the snapshot at the given dataset scale (`1` = full citHepTh-scale,
/// the configuration recorded in the committed `BENCH_2.json`; CI smoke
/// runs use a large divisor). The heap sweep uses `scale.max(10)` so the
/// multi-million-node emulations stay affordable at full scale.
pub fn perf_snapshot(scale: usize) -> PerfSnapshot {
    let mut phases: Vec<(String, f64)> = Vec::new();

    let t = Instant::now();
    let g = dataset("citHepTh", scale, 0).expect("known dataset");
    phases.push(("build".into(), ms(t)));

    let t = Instant::now();
    let csr = g.freeze();
    phases.push(("freeze".into(), ms(t)));

    // Interleaved best-of-5 for the two bisimulation variants: the speedup
    // ratio is the acceptance-tracked number, single runs are noisy on
    // shared boxes, and interleaving keeps a load spike from penalizing
    // only one side.
    let mut bisim_baseline_ms = f64::INFINITY;
    let mut bisim_csr_ms = f64::INFINITY;
    let mut baseline = bisimulation_partition_baseline(&g);
    let mut fast = bisimulation_partition_csr(&csr);
    for _ in 0..5 {
        let t = Instant::now();
        baseline = bisimulation_partition_baseline(&g);
        bisim_baseline_ms = bisim_baseline_ms.min(ms(t));
        let t = Instant::now();
        fast = bisimulation_partition_csr(&csr);
        bisim_csr_ms = bisim_csr_ms.min(ms(t));
    }
    phases.push(("bisim_baseline".into(), bisim_baseline_ms));
    phases.push(("bisim_csr".into(), bisim_csr_ms));
    assert_eq!(
        baseline.class_count(),
        fast.class_count(),
        "CSR and baseline bisimulation disagree"
    );

    let t = Instant::now();
    let rc = compress_r_csr(&csr);
    phases.push(("compress_r".into(), ms(t)));

    let t = Instant::now();
    let _pc = compress_b_csr(&csr);
    phases.push(("compress_b".into(), ms(t)));

    let pairs = random_pairs(&g, 300, 42);
    let t = Instant::now();
    let mut hits = 0usize;
    for &(a, b) in &pairs {
        if rc.query_with(a, b, bfs_reachable) {
            hits += 1;
        }
    }
    let _ = hits;
    phases.push(("query_eval".into(), ms(t)));

    let heap_scale = scale.max(10);
    let heap = REACHABILITY_DATASETS
        .iter()
        .map(|spec| {
            let g = spec.generate(heap_scale, 0);
            let csr = g.freeze();
            HeapRow {
                name: spec.name.to_string(),
                nodes: g.node_count(),
                edges: g.edge_count(),
                labeled_bytes: g.heap_bytes(),
                csr_bytes: csr.heap_bytes(),
            }
        })
        .collect();

    // Serving layer: bulk reachability throughput on the largest emulation
    // (wikiTalk), through a store snapshot with a 2-hop index over Gr (the
    // sampled coverage estimator keeps the index buildable as the graph
    // grows — exactly the production configuration).
    let serve_g = dataset("wikiTalk", heap_scale, 0).expect("known dataset");
    let serve_nodes = serve_g.node_count();
    let serve_edges = serve_g.edge_count();
    let serve_queries = (200_000 / scale).max(10_000);
    let pairs = random_pairs(&serve_g, serve_queries, 11);
    let store = CompressedStore::new(
        serve_g,
        StoreConfig::builder()
            .two_hop(TwoHopConfig {
                coverage: CoverageEstimate::Sampled {
                    samples: 2048,
                    seed: 7,
                },
                parallel: false,
            })
            .build(),
    );
    let snap = store.load();
    // All four thread counts are always measured (spawning works on any
    // box); whether the multi-threaded rows actually beat the 1-thread row
    // depends on the cores the measuring machine exposes — a 1-CPU
    // container can only show parity minus spawn overhead, which is why
    // the speedup assertion is gated behind QPGC_TIMING_TESTS.
    let mut bulk: Vec<BulkQueryRow> = Vec::new();
    let mut expected: Option<Vec<bool>> = None;
    for threads in [1usize, 2, 4, 8] {
        let mut best = f64::INFINITY;
        let mut answers = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            answers = bulk_reachable(&snap, &pairs, threads);
            best = best.min(ms(t));
        }
        match &expected {
            Some(e) => assert_eq!(e, &answers, "sharded answers diverged"),
            None => expected = Some(answers),
        }
        bulk.push(BulkQueryRow {
            threads,
            elapsed_ms: best,
            qps: pairs.len() as f64 / (best / 1e3).max(1e-9),
        });
    }

    // Rank-label fix, before/after: 2-hop label entries with the legacy
    // node-id labels vs the rank labels, on G and Gr of every Fig. 12(d)
    // dataset. The legacy build's pruning barely works, so its cost grows
    // with the full reachable-pair count — hence the gentler scale.
    let two_hop_scale = scale.max(300);
    let mut two_hop_entries: Vec<TwoHopEntriesRow> = Vec::new();
    for &name in FIG12D_DATASETS {
        let g = dataset(name, two_hop_scale, 0).expect("known dataset");
        let gr = compress_r(&g).graph;
        for (tag, graph) in [("G", &g), ("Gr", &gr)] {
            two_hop_entries.push(TwoHopEntriesRow {
                dataset: name.to_string(),
                graph: tag.to_string(),
                legacy: TwoHopIndex::build_with_node_id_labels(graph).label_entries(),
                ranked: TwoHopIndex::build(graph).label_entries(),
            });
        }
    }

    // Incremental snapshot construction: full rebuild vs. delta patch on
    // seeded fringe update streams (the small-affected-region regime that
    // delta patching targets — uniformly random endpoints on these
    // emulations have quotient-spanning reachability cones, churn every
    // class, and are correctly routed to full rebuilds by the damage
    // gate). The reachability rows carry the 2-hop index with patching
    // forced: both sides rebuild the index, so the difference is the
    // CSR/transitive-reduction patching; the `serve_patterns` rows
    // (schema v4, labeled Table 2 emulations) run the production damage
    // gate and compare pattern-side publication — re-materializing the
    // pattern quotient every batch vs. Arc-sharing/row-patching the
    // `PatternView` while the heavily-churned reachability side correctly
    // falls back to rebuilds (per-side gating is the thing measured).
    let pattern_gate = GateMode::default();
    let snapshot_incremental = vec![
        snapshot_incremental_row(
            "citHepTh",
            scale.max(10),
            true,
            false,
            GateMode::AlwaysPatch,
            6,
        ),
        snapshot_incremental_row(
            "wikiTalk",
            scale.max(25),
            true,
            false,
            GateMode::AlwaysPatch,
            6,
        ),
        snapshot_incremental_row("California", scale.max(2), true, true, pattern_gate, 6),
        snapshot_incremental_row("Internet", scale.max(8), true, true, pattern_gate, 6),
    ];

    // Parallel maintenance: the rebuild kernels at 1/2/4 threads, results
    // bit-identical to sequential by construction (schema v7).
    let parallel_maintenance = parallel_maintenance_rows(scale);

    // Succinct snapshot backend: per-dataset pack ratios and point-query
    // latency, plus boot-from-snapshot vs full replay (schema v8).
    let succinct_snapshot = succinct_snapshot_rows(scale);
    let succinct_boot = vec![
        succinct_boot_row("citHepTh", scale.max(10), 6),
        succinct_boot_row("wikiTalk", scale.max(25), 6),
    ];

    // Multi-writer scaling of the sharded router (schema v5).
    let store_sharding = store_sharding_section(scale);

    // Fault-tolerance pricing: guard overhead on the no-fault path and
    // crash-recovery replay throughput (schema v6).
    let robustness = vec![
        robustness_row("citHepTh", scale.max(10), 6),
        robustness_row("wikiTalk", scale.max(25), 6),
    ];

    PerfSnapshot {
        scale,
        dataset: "citHepTh".into(),
        nodes: g.node_count(),
        edges: g.edge_count(),
        phases_ms: phases,
        bisim_speedup: bisim_baseline_ms / bisim_csr_ms.max(1e-9),
        heap_scale,
        heap,
        serve_dataset: "wikiTalk".into(),
        serve_nodes,
        serve_edges,
        serve_classes: snap.class_count(),
        serve_queries: pairs.len(),
        bulk,
        two_hop_scale,
        two_hop_entries,
        snapshot_incremental,
        store_sharding,
        robustness,
        parallel_maintenance,
        succinct_snapshot,
        succinct_boot,
    }
}

impl PerfSnapshot {
    /// Serializes the snapshot as pretty-printed JSON (hand-rolled — the
    /// container has no serde; all strings involved are plain ASCII
    /// identifiers).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"qpgc-perf-snapshot-v9\",\n");
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!("  \"dataset\": \"{}\",\n", self.dataset));
        out.push_str(&format!("  \"nodes\": {},\n", self.nodes));
        out.push_str(&format!("  \"edges\": {},\n", self.edges));
        out.push_str("  \"phases_ms\": {\n");
        for (i, (name, v)) in self.phases_ms.iter().enumerate() {
            let comma = if i + 1 == self.phases_ms.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!("    \"{name}\": {v:.3}{comma}\n"));
        }
        out.push_str("  },\n");
        out.push_str(&format!(
            "  \"bisim_speedup\": {:.3},\n",
            self.bisim_speedup
        ));
        out.push_str(&format!("  \"heap_scale\": {},\n", self.heap_scale));
        out.push_str("  \"heap_bytes\": [\n");
        for (i, row) in self.heap.iter().enumerate() {
            let comma = if i + 1 == self.heap.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"dataset\": \"{}\", \"nodes\": {}, \"edges\": {}, \"labeled\": {}, \"csr\": {}}}{comma}\n",
                row.name, row.nodes, row.edges, row.labeled_bytes, row.csr_bytes
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"serve\": {\n");
        out.push_str(&format!("    \"dataset\": \"{}\",\n", self.serve_dataset));
        out.push_str(&format!("    \"nodes\": {},\n", self.serve_nodes));
        out.push_str(&format!("    \"edges\": {},\n", self.serve_edges));
        out.push_str(&format!("    \"classes\": {},\n", self.serve_classes));
        out.push_str(&format!("    \"queries\": {},\n", self.serve_queries));
        out.push_str("    \"bulk\": [\n");
        for (i, row) in self.bulk.iter().enumerate() {
            let comma = if i + 1 == self.bulk.len() { "" } else { "," };
            out.push_str(&format!(
                "      {{\"threads\": {}, \"elapsed_ms\": {:.3}, \"qps\": {:.0}}}{comma}\n",
                row.threads, row.elapsed_ms, row.qps
            ));
        }
        out.push_str("    ]\n");
        out.push_str("  },\n");
        out.push_str(&format!("  \"two_hop_scale\": {},\n", self.two_hop_scale));
        out.push_str("  \"two_hop_label_entries\": [\n");
        for (i, row) in self.two_hop_entries.iter().enumerate() {
            let comma = if i + 1 == self.two_hop_entries.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    {{\"dataset\": \"{}\", \"graph\": \"{}\", \"legacy\": {}, \"ranked\": {}}}{comma}\n",
                row.dataset, row.graph, row.legacy, row.ranked
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"snapshot_incremental\": [\n");
        for (i, row) in self.snapshot_incremental.iter().enumerate() {
            let comma = if i + 1 == self.snapshot_incremental.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    {{\"dataset\": \"{}\", \"scale\": {}, \"nodes\": {}, \"edges\": {}, \"classes\": {}, \"batches\": {}, \"batch_size\": {}, \"two_hop\": {}, \"serve_patterns\": {}, \"full_ms\": {:.3}, \"delta_ms\": {:.3}, \"speedup\": {:.3}, \"patched_batches\": {}, \"pattern_patched_batches\": {}, \"full_heap\": {}, \"delta_heap\": {}}}{comma}\n",
                row.dataset,
                row.scale,
                row.nodes,
                row.edges,
                row.classes,
                row.batches,
                row.batch_size,
                row.two_hop,
                row.serve_patterns,
                row.full_ms,
                row.delta_ms,
                row.speedup,
                row.patched_batches,
                row.pattern_patched_batches,
                row.full_heap,
                row.delta_heap,
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"store_sharding\": {\n");
        let s = &self.store_sharding;
        out.push_str(&format!("    \"dataset\": \"{}\",\n", s.dataset));
        out.push_str(&format!("    \"scale\": {},\n", s.scale));
        out.push_str(&format!("    \"nodes\": {},\n", s.nodes));
        out.push_str(&format!("    \"edges\": {},\n", s.edges));
        out.push_str(&format!("    \"batches\": {},\n", s.batches));
        out.push_str(&format!("    \"batch_size\": {},\n", s.batch_size));
        out.push_str("    \"throughput\": [\n");
        for (i, row) in s.throughput.iter().enumerate() {
            let comma = if i + 1 == s.throughput.len() { "" } else { "," };
            out.push_str(&format!(
                "      {{\"shard_count\": {}, \"cross_edges\": {}, \"boundary_vertices\": {}, \"apply_ms\": {:.3}, \"updates_per_sec\": {:.0}, \"publish_ms\": {:.3}}}{comma}\n",
                row.shard_count,
                row.cross_edges,
                row.boundary_vertices,
                row.apply_ms,
                row.updates_per_sec,
                row.publish_ms,
            ));
        }
        out.push_str("    ],\n");
        out.push_str("    \"latency\": [\n");
        for (i, row) in s.latency.iter().enumerate() {
            let comma = if i + 1 == s.latency.len() { "" } else { "," };
            out.push_str(&format!(
                "      {{\"shard_count\": {}, \"cross_shard\": {}, \"queries\": {}, \"elapsed_ms\": {:.3}, \"qps\": {:.0}}}{comma}\n",
                row.shard_count, row.cross_shard, row.queries, row.elapsed_ms, row.qps,
            ));
        }
        out.push_str("    ]\n");
        out.push_str("  },\n");
        out.push_str("  \"robustness\": [\n");
        for (i, row) in self.robustness.iter().enumerate() {
            let comma = if i + 1 == self.robustness.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    {{\"dataset\": \"{}\", \"scale\": {}, \"nodes\": {}, \"edges\": {}, \"batches\": {}, \"batch_size\": {}, \"apply_ms\": {:.3}, \"guard_ms\": {:.3}, \"overhead_pct\": {:.3}, \"logged_ms\": {:.3}, \"replay_batches_per_sec\": {:.1}}}{comma}\n",
                row.dataset,
                row.scale,
                row.nodes,
                row.edges,
                row.batches,
                row.batch_size,
                row.apply_ms,
                row.guard_ms,
                row.overhead_pct,
                row.logged_ms,
                row.replay_batches_per_sec,
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"parallel_maintenance\": [\n");
        for (i, row) in self.parallel_maintenance.iter().enumerate() {
            let comma = if i + 1 == self.parallel_maintenance.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    {{\"dataset\": \"{}\", \"scale\": {}, \"task\": \"{}\", \"threads\": {}, \"elapsed_ms\": {:.3}, \"speedup\": {:.3}}}{comma}\n",
                row.dataset, row.scale, row.task, row.threads, row.elapsed_ms, row.speedup,
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"succinct_snapshot\": [\n");
        for (i, row) in self.succinct_snapshot.iter().enumerate() {
            let comma = if i + 1 == self.succinct_snapshot.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    {{\"dataset\": \"{}\", \"scale\": {}, \"nodes\": {}, \"edges\": {}, \"classes\": {}, \"quotient_edges\": {}, \"plain_bytes\": {}, \"succinct_bytes\": {}, \"heap_ratio\": {:.4}, \"bits_per_edge\": {:.2}, \"plain_query_ms\": {:.3}, \"succinct_query_ms\": {:.3}, \"query_ratio\": {:.3}}}{comma}\n",
                row.dataset,
                row.scale,
                row.nodes,
                row.edges,
                row.classes,
                row.quotient_edges,
                row.plain_bytes,
                row.succinct_bytes,
                row.heap_ratio,
                row.bits_per_edge,
                row.plain_query_ms,
                row.succinct_query_ms,
                row.query_ratio,
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"succinct_boot\": [\n");
        for (i, row) in self.succinct_boot.iter().enumerate() {
            let comma = if i + 1 == self.succinct_boot.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    {{\"dataset\": \"{}\", \"scale\": {}, \"batches\": {}, \"batch_size\": {}, \"snapshot_file_bytes\": {}, \"save_ms\": {:.3}, \"load_ms\": {:.3}, \"boot_ms\": {:.3}, \"replay_ms\": {:.3}}}{comma}\n",
                row.dataset,
                row.scale,
                row.batches,
                row.batch_size,
                row.snapshot_file_bytes,
                row.save_ms,
                row.load_ms,
                row.boot_ms,
                row.replay_ms,
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Extracts the `"phases_ms"` object of a previously committed
/// `BENCH_<n>.json` (schema v2, v3, or v4 — the object's shape is
/// identical across schemas, and sections a given schema does not know are
/// skipped rather than mis-parsed, so `--compare` works across schema
/// generations in both directions). Hand-rolled like the writer: the
/// container has no serde, and the format is the stable output of
/// [`PerfSnapshot::to_json`].
pub fn parse_phases(json: &str) -> Vec<(String, f64)> {
    let Some(start) = json.find("\"phases_ms\"") else {
        return Vec::new();
    };
    let rest = &json[start..];
    let (Some(open), Some(close)) = (rest.find('{'), rest.find('}')) else {
        return Vec::new();
    };
    rest[open + 1..close]
        .lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            let (name, value) = line.split_once(':')?;
            let name = name.trim().trim_matches('"');
            let value: f64 = value.trim().parse().ok()?;
            (!name.is_empty()).then(|| (name.to_string(), value))
        })
        .collect()
}

/// Renders the per-phase regression table of `snap` against a previously
/// committed snapshot's JSON — the output of `bench_json --compare`.
pub fn compare_report(prev_json: &str, snap: &PerfSnapshot) -> String {
    let prev = parse_phases(prev_json);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>16} {:>12} {:>12} {:>9}",
        "phase", "prev ms", "cur ms", "delta"
    );
    for (name, cur) in &snap.phases_ms {
        match prev.iter().find(|(n, _)| n == name) {
            Some((_, p)) => {
                let pct = (cur - p) / p.max(1e-9) * 100.0;
                let _ = writeln!(out, "{name:>16} {p:>12.3} {cur:>12.3} {pct:>+8.1}%");
            }
            None => {
                let _ = writeln!(out, "{name:>16} {:>12} {cur:>12.3} {:>9}", "-", "new");
            }
        }
    }
    for (name, p) in &prev {
        if !snap.phases_ms.iter().any(|(n, _)| n == name) {
            let _ = writeln!(out, "{name:>16} {p:>12.3} {:>12} {:>9}", "-", "gone");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_parser_roundtrips_the_writer() {
        let json = "{\n  \"phases_ms\": {\n    \"build\": 45.208,\n    \"freeze\": 3.540\n  },\n  \"x\": 1\n}\n";
        assert_eq!(
            parse_phases(json),
            vec![("build".to_string(), 45.208), ("freeze".to_string(), 3.54)]
        );
        assert!(parse_phases("{}").is_empty());
    }

    /// Cross-schema tolerance: a snapshot carrying sections this parser has
    /// never heard of — before *and* after the phase object, scalar and
    /// array-of-object shaped, as a schema v4 file looks to a v3-era parser
    /// (and vice versa) — must still yield exactly the phase list, not a
    /// silent mis-parse of the unknown keys.
    #[test]
    fn phase_parser_tolerates_unknown_sections() {
        let json = concat!(
            "{\n",
            "  \"schema\": \"qpgc-perf-snapshot-v99\",\n",
            "  \"experimental_totally_unknown\": 7,\n",
            "  \"future_section\": [\n",
            "    {\"dataset\": \"x\", \"serve_patterns\": true, \"pattern_patched_batches\": 6}\n",
            "  ],\n",
            "  \"phases_ms\": {\n",
            "    \"build\": 45.208,\n",
            "    \"freeze\": 3.540,\n",
            "    \"novel_phase\": 0.125\n",
            "  },\n",
            "  \"snapshot_incremental\": [\n",
            "    {\"dataset\": \"y\", \"full_ms\": 1.0, \"delta_ms\": 0.5}\n",
            "  ]\n",
            "}\n"
        );
        assert_eq!(
            parse_phases(json),
            vec![
                ("build".to_string(), 45.208),
                ("freeze".to_string(), 3.54),
                ("novel_phase".to_string(), 0.125)
            ]
        );
        // A file with no phase object at all parses to empty, not garbage.
        assert!(parse_phases("{\n  \"only_unknown\": [1, 2]\n}\n").is_empty());
    }

    #[test]
    fn compare_report_lines_up_phases() {
        let snap = PerfSnapshot {
            scale: 1,
            dataset: "d".into(),
            nodes: 1,
            edges: 1,
            phases_ms: vec![("build".into(), 50.0), ("new_phase".into(), 1.0)],
            bisim_speedup: 1.0,
            heap_scale: 1,
            heap: Vec::new(),
            serve_dataset: "d".into(),
            serve_nodes: 0,
            serve_edges: 0,
            serve_classes: 0,
            serve_queries: 0,
            bulk: Vec::new(),
            two_hop_scale: 1,
            two_hop_entries: Vec::new(),
            snapshot_incremental: Vec::new(),
            store_sharding: StoreShardingSection::default(),
            robustness: Vec::new(),
            parallel_maintenance: Vec::new(),
            succinct_snapshot: Vec::new(),
            succinct_boot: Vec::new(),
        };
        let prev = "\"phases_ms\": {\n  \"build\": 40.0,\n  \"old_phase\": 2.0\n}";
        let report = compare_report(prev, &snap);
        assert!(report.contains("build"), "{report}");
        assert!(report.contains("+25.0%"), "{report}");
        assert!(report.contains("new"), "{report}");
        assert!(report.contains("gone"), "{report}");
    }

    // One shared tiny-scale snapshot run covers the phase list, the JSON
    // shape, and the heap invariant — the pipeline is the expensive part.
    // Slow (runs the full pipeline): kept out of the default `cargo test`
    // wall-clock, CI runs it explicitly via `cargo test -- --ignored`.
    #[test]
    #[ignore = "slow perf pipeline; CI runs it via `cargo test -- --ignored`"]
    fn snapshot_runs_serializes_and_csr_heap_is_strictly_smaller() {
        let snap = perf_snapshot(400);
        assert_eq!(snap.dataset, "citHepTh");
        assert!(snap.nodes >= 50);
        let names: Vec<&str> = snap.phases_ms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "build",
                "freeze",
                "bisim_baseline",
                "bisim_csr",
                "compress_r",
                "compress_b",
                "query_eval"
            ]
        );
        assert!(snap.phases_ms.iter().all(|&(_, v)| v >= 0.0));
        assert!(snap.bisim_speedup > 0.0);
        assert_eq!(snap.heap_scale, 400);
        let json = snap.to_json();
        for key in [
            "\"schema\": \"qpgc-perf-snapshot-v9\"",
            "\"phases_ms\"",
            "\"bisim_csr\"",
            "\"bisim_speedup\"",
            "\"heap_scale\"",
            "\"heap_bytes\"",
            "\"serve\"",
            "\"bulk\"",
            "\"two_hop_label_entries\"",
            "\"snapshot_incremental\"",
            "\"patched_batches\"",
            "\"serve_patterns\"",
            "\"pattern_patched_batches\"",
            "\"store_sharding\"",
            "\"shard_count\"",
            "\"cross_shard\"",
            "\"robustness\"",
            "\"overhead_pct\"",
            "\"replay_batches_per_sec\"",
            "\"parallel_maintenance\"",
            "\"task\": \"refine\"",
            "\"succinct_snapshot\"",
            "\"heap_ratio\"",
            "\"bits_per_edge\"",
            "\"query_ratio\"",
            "\"succinct_boot\"",
            "\"boot_ms\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The acceptance-tracked heap invariant: CSR strictly smaller than
        // the mutable representation on every Table-1 dataset.
        assert_eq!(snap.heap.len(), REACHABILITY_DATASETS.len());
        for row in &snap.heap {
            assert!(
                row.csr_bytes < row.labeled_bytes,
                "{}: csr {} >= labeled {}",
                row.name,
                row.csr_bytes,
                row.labeled_bytes
            );
        }

        // Serving layer: a single-threaded row always exists, every row has
        // positive throughput, and query counts line up.
        assert_eq!(snap.serve_dataset, "wikiTalk");
        assert!(snap.serve_classes > 0);
        assert!(!snap.bulk.is_empty());
        assert_eq!(snap.bulk[0].threads, 1);
        for row in &snap.bulk {
            assert!(row.qps > 0.0, "threads={}: qps {}", row.threads, row.qps);
        }
        // Wall-clock comparisons flake on loaded CI boxes and are
        // meaningless on single-core containers; opt in locally.
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        if std::env::var("QPGC_TIMING_TESTS").is_ok() && cores > 1 && snap.bulk.len() > 1 {
            let single = snap.bulk[0].qps;
            let best_multi = snap.bulk[1..].iter().map(|r| r.qps).fold(0.0, f64::max);
            assert!(
                best_multi > single,
                "multi-threaded bulk eval ({best_multi:.0} qps) not faster than single ({single:.0} qps)"
            );
        }

        // The rank-label fix: never larger than the legacy node-id build,
        // and strictly smaller on the citHepTh emulation (both G and Gr).
        assert_eq!(snap.two_hop_entries.len(), 2 * FIG12D_DATASETS.len());
        for row in &snap.two_hop_entries {
            assert!(
                row.ranked <= row.legacy,
                "{} ({}): ranked {} > legacy {}",
                row.dataset,
                row.graph,
                row.ranked,
                row.legacy
            );
        }
        for row in snap
            .two_hop_entries
            .iter()
            .filter(|r| r.dataset == "citHepTh")
        {
            assert!(
                row.ranked < row.legacy,
                "citHepTh ({}): rank fix did not shrink the index ({} vs {})",
                row.graph,
                row.ranked,
                row.legacy
            );
        }

        // Incremental snapshot construction: all streams ran, the delta
        // store actually took the patched path, and the differential inside
        // the experiment already proved answer equality (reachability and,
        // on the serve_patterns rows, pattern answers). The speedup claim
        // is only asserted on wall-clock-stable machines (it is the
        // acceptance-tracked number of the committed full-scale run).
        assert_eq!(snap.snapshot_incremental.len(), 4);
        let names: Vec<&str> = snap
            .snapshot_incremental
            .iter()
            .map(|r| r.dataset.as_str())
            .collect();
        assert_eq!(names, ["citHepTh", "wikiTalk", "California", "Internet"]);
        for row in &snap.snapshot_incremental {
            assert!(row.batches > 0 && row.batch_size > 0);
            assert!(
                row.batch_size * 100 <= row.edges.max(100),
                "{}: batch > 1%",
                row.dataset
            );
            assert!(row.full_ms > 0.0 && row.delta_ms > 0.0);
            // Pattern rows run the production gate, so their reachability
            // side is free to rebuild every batch; the forced-patch
            // reachability rows must take the delta path, and rows without
            // pattern serving must never report pattern patches.
            if !row.serve_patterns {
                assert!(
                    row.patched_batches > 0,
                    "{}: delta path never taken",
                    row.dataset
                );
                assert_eq!(
                    row.pattern_patched_batches, 0,
                    "{}: pattern patches without pattern serving",
                    row.dataset
                );
            }
        }
        // The pattern-serving rows exist; at real emulation sizes the
        // cone-local streams churn under 1 % of the bisimulation classes
        // per batch, so the pattern side must actually row-patch (tiny
        // smoke-scale graphs can legitimately exceed the gate and are
        // exempted — the differential suite pins the behaviour
        // deterministically).
        let pattern_rows: Vec<_> = snap
            .snapshot_incremental
            .iter()
            .filter(|r| r.serve_patterns)
            .collect();
        assert_eq!(pattern_rows.len(), 2);
        for row in &pattern_rows {
            if row.nodes >= 1000 {
                assert!(
                    row.pattern_patched_batches > 0,
                    "{}: pattern-side delta path never taken",
                    row.dataset
                );
            }
        }
        if std::env::var("QPGC_TIMING_TESTS").is_ok() {
            // The speedup claim is pinned on the forced-patch reachability
            // rows, whose publication is dominated by structures big enough
            // to time. The pattern rows run the production gate on
            // quotients that rebuild in microseconds at emulation scale —
            // their value is the recorded pattern-side patch counts and the
            // in-experiment answer differential, not a wall-clock race.
            for row in snap
                .snapshot_incremental
                .iter()
                .filter(|r| !r.serve_patterns)
            {
                assert!(
                    row.speedup > 1.0,
                    "{}: delta publication ({:.3} ms) not faster than full rebuild ({:.3} ms)",
                    row.dataset,
                    row.delta_ms,
                    row.full_ms
                );
            }
        }

        // Sharded-store experiment: one row per shard count, the one-shard
        // row carries no boundary graph, and the in-experiment differential
        // against the single store already proved answer equality.
        let sharding = &snap.store_sharding;
        assert_eq!(sharding.dataset, "citHepTh");
        assert!(sharding.batches > 0 && sharding.batch_size > 0);
        let counts: Vec<usize> = sharding.throughput.iter().map(|r| r.shard_count).collect();
        assert_eq!(counts, [1, 2, 4]);
        for row in &sharding.throughput {
            assert!(
                row.updates_per_sec > 0.0,
                "shards={}: zero apply throughput",
                row.shard_count
            );
            assert!(row.publish_ms >= 0.0);
            if row.shard_count == 1 {
                assert_eq!(row.cross_edges, 0, "one-shard router grew a boundary");
                assert_eq!(row.boundary_vertices, 0);
            } else {
                assert!(
                    row.cross_edges > 0,
                    "hash partition produced no cross edges"
                );
            }
        }
        // Latency rows: intra- and cross-shard mixes at the widest fan-out.
        assert_eq!(sharding.latency.len(), 2);
        assert!(!sharding.latency[0].cross_shard && sharding.latency[1].cross_shard);
        for row in &sharding.latency {
            assert_eq!(row.shard_count, 4);
            assert!(row.queries > 0);
            assert!(
                row.qps > 0.0,
                "cross_shard={}: zero query throughput",
                row.cross_shard
            );
        }
        if std::env::var("QPGC_TIMING_TESTS").is_ok() && cores > 1 {
            // Multi-writer apply should beat the single writer on real
            // parallel hardware; meaningless on one core, so opt-in only.
            let single = sharding.throughput[0].updates_per_sec;
            let best = sharding.throughput[1..]
                .iter()
                .map(|r| r.updates_per_sec)
                .fold(0.0, f64::max);
            assert!(
                best > single,
                "sharded apply ({best:.0} upd/s) not faster than single writer ({single:.0} upd/s)"
            );
        }

        // Robustness pricing: one row per emulation, every measurement
        // positive; the recovery differential already ran in-experiment.
        assert_eq!(snap.robustness.len(), 2);
        assert_eq!(snap.robustness[0].dataset, "citHepTh");
        assert_eq!(snap.robustness[1].dataset, "wikiTalk");
        for row in &snap.robustness {
            assert!(row.batches > 0 && row.batch_size > 0);
            assert!(row.apply_ms > 0.0 && row.logged_ms > 0.0);
            assert!(row.guard_ms >= 0.0);
            assert!(
                row.replay_batches_per_sec > 0.0,
                "{}: zero replay throughput",
                row.dataset
            );
        }
        if std::env::var("QPGC_TIMING_TESTS").is_ok() {
            // The acceptance target: validation + rollback-inverse staging
            // must stay under 3 % of the no-fault apply path. Wall-clock
            // ratio, so opt-in like the other timing claims.
            for row in &snap.robustness {
                assert!(
                    row.overhead_pct < 3.0,
                    "{}: guard overhead {:.2}% exceeds the 3% target",
                    row.dataset,
                    row.overhead_pct
                );
            }
        }

        // Parallel maintenance: the refinement kernel at 1/2/4 threads,
        // the one-thread baseline row present and positive.
        let rows = &snap.parallel_maintenance;
        assert!(rows.iter().all(|r| r.task == "refine"));
        let threads: Vec<usize> = rows.iter().map(|r| r.threads).collect();
        assert_eq!(threads, [1, 2, 4], "refine: thread ladder");
        assert!(rows.iter().all(|r| r.elapsed_ms >= 0.0));
        assert!((rows[0].speedup - 1.0).abs() < 1e-9, "refine: baseline");
        if std::env::var("QPGC_TIMING_TESTS").is_ok() && cores > 1 {
            let best = rows[1..].iter().map(|r| r.speedup).fold(0.0, f64::max);
            assert!(
                best > 1.0,
                "refine: no thread count beat sequential (best speedup {best:.2})"
            );
        }

        // Succinct backend: one row per Table-1 dataset, sizes positive,
        // the in-experiment differential already pinned answer equality.
        assert_eq!(snap.succinct_snapshot.len(), REACHABILITY_DATASETS.len());
        for row in &snap.succinct_snapshot {
            assert!(row.plain_bytes > 0 && row.succinct_bytes > 0);
            assert!(row.classes > 0);
            assert!(row.plain_query_ms >= 0.0 && row.succinct_query_ms >= 0.0);
        }
        assert_eq!(snap.succinct_boot.len(), 2);
        for row in &snap.succinct_boot {
            assert!(row.snapshot_file_bytes > 0);
            assert!(row.save_ms >= 0.0 && row.load_ms >= 0.0);
            assert!(row.boot_ms > 0.0 && row.replay_ms > 0.0);
        }
        if std::env::var("QPGC_TIMING_TESTS").is_ok() {
            // The acceptance targets, meaningful at emulation scale (tiny
            // smoke quotients are dominated by fixed overheads): the
            // packed quotient at most half the plain backend's heap, and
            // point queries within 3× of plain, each on at least 8 of the
            // 10 Table-1 shapes. Both gates tolerate the two structural
            // outliers: near-trivial quotients (NotreDame collapses to a
            // handful of classes, so fixed costs dominate its heap) and
            // incompressible ones (citHepTh's citation DAG keeps ~1 class
            // per node, so BFS pays the per-row decode open cost on every
            // hop with no size win to amortise it).
            let halved = snap
                .succinct_snapshot
                .iter()
                .filter(|r| r.heap_ratio <= 0.5)
                .count();
            assert!(
                halved >= 8,
                "succinct heap ≤ 0.5× plain on only {halved}/10 datasets"
            );
            let within_3x = snap
                .succinct_snapshot
                .iter()
                .filter(|r| r.query_ratio <= 3.0)
                .count();
            assert!(
                within_3x >= 8,
                "succinct point queries within 3× of plain on only {within_3x}/10 datasets"
            );
        }
    }
}
