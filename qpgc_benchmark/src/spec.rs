//! The benchmark's fixed tables: workloads, run sizes, and metric names.
//!
//! `BENCHMARK.json` at the repository root repeats the workload names and
//! the metric names, units and directions; a unit test reads it back and
//! fails if the two drift apart.

use crate::adapter::Dataset;

/// One named workload: a graph, a store configuration, an update stream.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// The emulated dataset.
    pub dataset: Dataset,
    /// The dataset is generated at `1/divisor` of its original size.
    pub divisor: usize,
    /// Edge updates per batch.
    pub batch_size: usize,
    /// Build a 2-hop index in every snapshot.
    pub two_hop: bool,
    /// Serve the succinct backend; the store is opened with a log and a
    /// snapshot is saved mid-stream (the traced run boots from it).
    pub compact: bool,
    /// Serve patterns too; the workload's queries are `match_pattern` calls.
    pub patterns: bool,
    /// `1` for the single store, more for the sharded router.
    pub shards: usize,
    /// Reachability queries per timed block: 256 where a query is tens of
    /// nanoseconds (single calls are below clock resolution), 32 where it
    /// is a BFS or a boundary walk of microseconds.
    pub block_len: usize,
    /// A reader thread issues query blocks for as long as the writer
    /// applies; query latency is taken from that reader.
    pub mixed: bool,
}

/// The six workloads. Sizes are for a 2-core shared box and the driver's
/// budget (≈ 12 s a run); every graph is generated at generator seed 0 and
/// every update stream is the same on every run, so only the query set
/// depends on `--seed`.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "churn_wikitalk",
        why: "Maintenance-bound writes on a graph that compresses well: incRCM dominates apply, \
              publication is small, reads are 2-hop label intersections.",
        dataset: Dataset::WikiTalk,
        divisor: 800,
        batch_size: 50,
        two_hop: true,
        compact: false,
        patterns: false,
        shards: 1,
        block_len: 256,
        mixed: false,
    },
    Workload {
        name: "dense_cithepth",
        why: "Publication-bound writes on a dense near-DAG where every node stays its own class: \
              2-hop relabelling is a third of apply and labels are long.",
        dataset: Dataset::CitHepTh,
        divisor: 24,
        batch_size: 12,
        two_hop: true,
        compact: false,
        patterns: false,
        shards: 1,
        block_len: 256,
        mixed: false,
    },
    Workload {
        name: "compact_cithepth",
        why: "dense_cithepth's graph and stream with no 2-hop, succinct snapshots and a log: \
              reads are BFS over lazily decoded rows, every batch packs and is logged, a \
              snapshot is saved mid-stream.",
        dataset: Dataset::CitHepTh,
        divisor: 24,
        batch_size: 12,
        two_hop: false,
        compact: true,
        patterns: false,
        shards: 1,
        block_len: 32,
        mixed: false,
    },
    Workload {
        name: "sharded_wikitalk",
        why: "Two hash-partitioned shards: publication is almost all of apply and almost all of \
              it is the boundary summary's watermark bump; reads walk the boundary. Kept tiny: \
              cost is superlinear.",
        dataset: Dataset::WikiTalk,
        divisor: 3000,
        batch_size: 10,
        two_hop: true,
        compact: false,
        patterns: false,
        shards: 2,
        block_len: 32,
        mixed: false,
    },
    Workload {
        name: "pattern_citation",
        why: "The paper's second query class: incRCM and incPCM both run per batch, the pattern \
              view is patched, and the workload's queries are match_pattern calls checked \
              against bounded simulation on G.",
        dataset: Dataset::Citation,
        divisor: 200,
        batch_size: 10,
        two_hop: true,
        compact: false,
        patterns: true,
        shards: 1,
        block_len: 256,
        mixed: false,
    },
    Workload {
        name: "mixed_wikitalk",
        why: "churn_wikitalk's graph, store and stream with a reader thread issuing query blocks \
              while the writer applies: isolates interference between publication and reads.",
        dataset: Dataset::WikiTalk,
        divisor: 800,
        batch_size: 50,
        two_hop: true,
        compact: false,
        patterns: false,
        shards: 1,
        block_len: 256,
        mixed: true,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much work one run does. The percentile floors — 100 timed batches,
/// 1 152 query units — are part of the metric definitions and never
/// shrink outside `--smoke`; graph divisors are what gets scaled to fit a
/// time budget.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Multiplier on every workload's graph divisor.
    pub divisor_scale: usize,
    /// Untimed batches applied before the timed ones.
    pub warmup_batches: usize,
    /// Timed batches per replay of the stream.
    pub timed_batches: usize,
    /// Minimum number of cycles (replay, read, bulk, set-up); a
    /// batch's reported time is its median across the cycles' replays.
    pub cycles: usize,
    /// Query units (blocks of reachability queries, or single patterns)
    /// per read round.
    pub units: usize,
    /// Upper limit on a workload's `block_len`.
    pub block_len_cap: usize,
    /// Untimed units before a cycle's first read round.
    pub warmup_units: usize,
    /// Minimum quiet read rounds per cycle.
    pub rounds: usize,
    /// Query blocks per `bulk_reachable` call: 65 536 queries where blocks
    /// are 256 long, 8 192 where a query takes microseconds.
    pub bulk_blocks: usize,
    /// Minimum timed `bulk_reachable` calls per cycle.
    pub bulk_calls: usize,
    /// Minimum store-constructor calls per cycle behind `setup_s`.
    pub setup_reps: usize,
    /// Bulk and constructor calls repeat within a cycle until this much
    /// time has passed, so that millisecond calls get a steady median.
    pub repeat_floor: std::time::Duration,
    /// Oracle checkpoints per replay, evenly spaced over the timed batches.
    pub checkpoints: usize,
    /// Point queries checked against BFS at each checkpoint.
    pub checks_per_checkpoint: usize,
    /// The compact workload saves its snapshot after this timed batch.
    pub snapshot_after: usize,
}

impl Sizes {
    /// The sizes every reported number is measured at.
    pub const FULL: Sizes = Sizes {
        divisor_scale: 1,
        warmup_batches: 5,
        timed_batches: 100,
        cycles: 3,
        units: 1152,
        block_len_cap: 256,
        warmup_units: 100,
        rounds: 2,
        bulk_blocks: 256,
        bulk_calls: 3,
        setup_reps: 3,
        repeat_floor: std::time::Duration::from_millis(100),
        checkpoints: 5,
        checks_per_checkpoint: 400,
        snapshot_after: 75,
    };

    /// `--smoke`: every workload at about 1/20 size with 6 batches — a
    /// functional pass for the unit tests, not a measurement.
    pub const SMOKE: Sizes = Sizes {
        divisor_scale: 20,
        warmup_batches: 1,
        timed_batches: 5,
        cycles: 1,
        units: 24,
        block_len_cap: 32,
        warmup_units: 4,
        rounds: 1,
        bulk_blocks: 16,
        bulk_calls: 2,
        setup_reps: 2,
        repeat_floor: std::time::Duration::ZERO,
        checkpoints: 5,
        checks_per_checkpoint: 40,
        snapshot_after: 3,
    };

    /// Batches in the pre-generated stream.
    pub fn stream_len(&self) -> usize {
        self.warmup_batches + self.timed_batches
    }

    /// Reachability pairs in `workload`'s query set: one block per unit.
    pub fn query_pairs(&self, workload: &Workload) -> usize {
        self.units * workload.block_len.min(self.block_len_cap)
    }
}

/// Whether a larger or a smaller value of a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Name, unit and direction of one metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name; the same name means the same thing on every workload.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the store sees; printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("apply_p50_ms", "ms"),
    lower("apply_p90_ms", "ms"),
    higher("apply_updates_per_s", "1/s"),
    lower("query_ns_p50", "ns"),
    lower("query_ns_p99", "ns"),
    higher("bulk_qps", "1/s"),
    lower("snapshot_bytes_per_node", "B"),
    lower("compression_ratio", "ratio"),
];

/// Single-layer numbers, `crate.module.metric`; printed by every traced
/// run. A layer that does not run on a workload reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    lower("graph.update.validate_us", "us"),
    lower("graph.update.normalize_us", "us"),
    lower("reach.incremental.apply_ms", "ms"),
    lower("reach.incremental.export_ms", "ms"),
    lower("reach.incremental.affected_nodes", "count"),
    lower("reach.incremental.affected_classes", "count"),
    lower("reach.incremental.hybrid_nodes", "count"),
    lower("pattern.incremental.apply_ms", "ms"),
    lower("pattern.incremental.export_ms", "ms"),
    lower("pattern.view.build_ms", "ms"),
    lower("pattern.view.classes", "count"),
    lower("reach.compress.compress_r_ms", "ms"),
    lower("reach.compress.inc_over_batch", "ratio"),
    lower("pattern.compress.compress_b_ms", "ms"),
    lower("reach.two_hop.build_ms", "ms"),
    lower("reach.two_hop.label_entries", "count"),
    lower("reach.two_hop.query_ns", "ns"),
    lower("reach.two_hop.bytes", "B"),
    lower("graph.succinct.pack_ms", "ms"),
    lower("graph.succinct.bits_per_edge", "bit"),
    lower("graph.succinct.scan_ns_per_edge", "ns"),
    lower("graph.succinct.bytes", "B"),
    lower("serve.store.publish_ms", "ms"),
    higher("serve.store.patched", "count"),
    lower("serve.store.rebuilt", "count"),
    higher("serve.store.republished", "count"),
    higher("serve.store.two_hop_patched", "count"),
    lower("serve.store.residual_ms", "ms"),
    higher("serve.store.layer_cover", "ratio"),
    lower("serve.snapshot.class_lookup_ns", "ns"),
    lower("serve.snapshot.bfs_ns", "ns"),
    higher("serve.snapshot.same_class_share", "ratio"),
    higher("serve.snapshot.positive_share", "ratio"),
    lower("serve.snapshot.class_of_bytes", "B"),
    lower("serve.snapshot.quotient_bytes", "B"),
    higher("serve.bulk.qps_t1", "1/s"),
    higher("serve.bulk.qps_tn", "1/s"),
    lower("serve.wal.append_us", "us"),
    lower("serve.wal.bytes_per_update", "B"),
    lower("serve.wal.read_ms", "ms"),
    lower("serve.wal.recover_s", "s"),
    lower("serve.store.boot_s", "s"),
    lower("serve.persist.save_ms", "ms"),
    lower("serve.persist.load_ms", "ms"),
    lower("serve.persist.file_bytes", "B"),
    lower("serve.sharded.shard_publish_ms", "ms"),
    lower("serve.sharded.shard_skew", "ratio"),
    lower("serve.sharded.cross_edge_share", "ratio"),
    lower("serve.boundary.bump_ms", "ms"),
    lower("serve.boundary.vertices", "count"),
    lower("serve.boundary.cross_query_ns", "ns"),
    lower("serve.boundary.intra_query_ns", "ns"),
    lower("generators.graph_s", "s"),
    lower("generators.stream_s", "s"),
    lower("bench.trace_overhead_pct", "%"),
    higher("bench.oracle_checks", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(list: &Value) -> Vec<String> {
        let Value::Arr(items) = list else {
            panic!("expected an array")
        };
        items
            .iter()
            .map(|m| match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("entry without a name: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_tables_here() {
        let doc = benchmark_json();
        let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names(doc.get("workloads").unwrap()), ours);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Arr(items)) = doc.get(key) else {
                panic!("{key} missing")
            };
            assert_eq!(items.len(), table.len(), "{key} length");
            for (item, def) in items.iter().zip(table) {
                assert_eq!(item.get("name"), Some(&Value::str(def.name)), "{key}");
                assert_eq!(
                    item.get("unit"),
                    Some(&Value::str(def.unit)),
                    "{}",
                    def.name
                );
                assert_eq!(
                    item.get("better"),
                    Some(&Value::str(def.better.as_str())),
                    "{}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name);
        for name in all.chain(WORKLOADS.iter().map(|w| w.name)) {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(workload("churn_wikitalk").is_some());
        assert!(workload("nope").is_none());
    }
}
