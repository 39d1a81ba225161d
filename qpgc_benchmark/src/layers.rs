//! The traced run: per-layer numbers measured from outside.
//!
//! The same stream is replayed twice — once untraced (the baseline for
//! `bench.trace_overhead_pct`), once with a span around every call into a
//! layer. Layers the store does not expose a clock for are measured on
//! *shadow* instances fed the identical stream (a shadow `incRCM` /
//! `incPCM` maintainer, a shadow update log), always outside the
//! `try_apply` span so the end-to-end span is not inflated. Probes of the
//! read path and of set-up run on the final cut and the initial graph.
//!
//! A layer that does not run on a workload (2-hop on the compact store,
//! the boundary on a single store, …) reports 0.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::adapter::{
    self, Published, ShadowLog, ShadowPattern, ShadowReach, Store, SuccinctProbe, TwoHopProbe,
    UpdateBatch,
};
use crate::inputs::Inputs;
use crate::run::{replay, Context, Metric, Options, Oracle, Outcome, Replay};
use crate::spec::{Workload, PER_LAYER};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Repetitions behind each one-shot probe's median.
const PROBE_REPS: usize = 3;

/// Per-batch samples of the shadow layers, timed batches only.
#[derive(Debug, Default)]
struct BatchSamples {
    validate_s: Vec<f64>,
    normalize_s: Vec<f64>,
    reach_apply_s: Vec<f64>,
    reach_export_s: Vec<f64>,
    pattern_apply_s: Vec<f64>,
    pattern_export_s: Vec<f64>,
    wal_append_s: Vec<f64>,
}

/// The tracer plus the shadow layers that run beside the store during the
/// traced replay.
pub struct Probes {
    tracer: Tracer,
    node_count: usize,
    reach: ShadowReach,
    pattern: Option<ShadowPattern>,
    log: Option<ShadowLog>,
    log_path: PathBuf,
    log_base_bytes: u64,
    /// The open `try_apply` span and the pre-call probe times of the batch
    /// in flight.
    pending: Option<(SpanId, f64, f64)>,
    samples: BatchSamples,
}

impl Probes {
    fn new(ctx: &Context) -> Probes {
        let g = &ctx.inputs.graph;
        let log_path = ctx
            .options
            .work_dir
            .join(format!("{}.shadow.log", ctx.workload.name));
        let log = ctx
            .workload
            .compact
            .then(|| ShadowLog::create(&log_path, g).expect("shadow log"));
        Probes {
            tracer: Tracer::new(),
            node_count: g.node_count(),
            reach: ShadowReach::new(g.clone()),
            pattern: ctx.workload.patterns.then(|| ShadowPattern::new(g.clone())),
            log_base_bytes: file_len(&log_path),
            log,
            log_path,
            pending: None,
            samples: BatchSamples::default(),
        }
    }

    /// Before `try_apply`: opens the batch span, probes `validate` and
    /// `normalized` against the pre-batch shadow graph, and opens the
    /// `try_apply` span. Returns the batch span.
    pub fn before(&mut self, batch: &UpdateBatch, unit: u64) -> SpanId {
        let root = self.tracer.open("batch", None, unit);
        let n = self.node_count;
        let (ok, validate_s) = self
            .tracer
            .span("graph.update.validate", Some(root), unit, || {
                adapter::validate(batch, n)
            });
        assert!(ok, "generated batch {unit} fails validation");
        let g = self.reach.graph();
        let (norm, normalize_s) =
            self.tracer
                .span("graph.update.normalize", Some(root), unit, || {
                    adapter::normalize(batch, g)
                });
        black_box(norm);
        let call = self.tracer.open("serve.store.try_apply", Some(root), unit);
        self.pending = Some((call, validate_s, normalize_s));
        root
    }

    /// After `try_apply`: closes its span, then runs the shadow layers on
    /// the same batch and closes the batch span.
    pub fn after(&mut self, batch: &UpdateBatch, root: SpanId, unit: u64, timed: bool) {
        let (call, validate_s, normalize_s) = self.pending.take().expect("before() ran");
        self.tracer.close(call);
        let parent = Some(root);
        let reach = &mut self.reach;
        let (_, apply_s) = self
            .tracer
            .span("reach.incremental.apply", parent, unit, || {
                reach.apply(batch)
            });
        let (_, export_s) = self
            .tracer
            .span("reach.incremental.export", parent, unit, || reach.export());
        let pattern_s = self.pattern.as_mut().map(|p| {
            let (_, a) = self
                .tracer
                .span("pattern.incremental.apply", parent, unit, || p.apply(batch));
            let (_, e) = self
                .tracer
                .span("pattern.incremental.export", parent, unit, || p.export());
            (a, e)
        });
        let append_s = self.log.as_mut().map(|log| {
            self.tracer
                .span("serve.wal.append", parent, unit, || {
                    log.append(batch).expect("append")
                })
                .1
        });
        self.tracer.close(root);
        if !timed {
            return;
        }
        let s = &mut self.samples;
        s.validate_s.push(validate_s);
        s.normalize_s.push(normalize_s);
        s.reach_apply_s.push(apply_s);
        s.reach_export_s.push(export_s);
        if let Some((a, e)) = pattern_s {
            s.pattern_apply_s.push(a);
            s.pattern_export_s.push(e);
        }
        s.wal_append_s.extend(append_s);
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Calls `call` `PROBE_REPS` times; returns the last result and the median
/// wall time in seconds.
fn probe<T>(mut call: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(PROBE_REPS);
    let mut last = None;
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        last = Some(call());
        secs.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("PROBE_REPS > 0"),
        median(&secs).expect("PROBE_REPS > 0"),
    )
}

/// Times `hit` over every item of `items`; nanoseconds per item.
fn ns_per_item<T>(items: &[T], hit: impl Fn(&T) -> bool) -> f64 {
    let t = Instant::now();
    let hits = items.iter().filter(|item| hit(item)).count();
    let ns = t.elapsed().as_nanos() as f64;
    black_box(hits);
    ns / items.len().max(1) as f64
}

fn med(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

/// Collects `(name, value, samples)` rows and hands them out in table order.
#[derive(Default)]
struct Rows(Vec<Metric>);

impl Rows {
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.0.push(Metric::new(name, value, samples));
    }

    fn one(&mut self, name: &'static str, value: f64) {
        self.set(name, value, 1);
    }

    /// Every per-layer metric in table order; unset ones read 0.
    fn finish(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|def| {
                self.0
                    .iter()
                    .find(|m| m.name == def.name)
                    .cloned()
                    .unwrap_or(Metric::new(def.name, 0.0, 0))
            })
            .collect()
    }
}

/// Runs `workload` traced and reports every per-layer metric; writes the
/// spans to `trace_<workload>.jsonl` in the work directory.
pub fn run_traced(workload: &Workload, options: &Options) -> Outcome {
    let sizes = &options.sizes;
    let inputs = Inputs::generate(workload, sizes, options.seed);
    let ctx = Context {
        workload,
        inputs: &inputs,
        options,
    };
    let mut oracle = Oracle::new(options.flip_answer);
    let mut rows = Rows::default();
    rows.one("generators.graph_s", inputs.graph_s);
    rows.one("generators.stream_s", inputs.stream_s);

    // Untraced, traced, untraced: each traced batch is compared with the
    // mean of its two untraced neighbours in time, and the overhead is the
    // median of those per-batch differences.
    let before = replay(&ctx, &mut oracle, None).walls_ms;
    let mut probes = Probes::new(&ctx);
    let traced = replay(&ctx, &mut oracle, Some(&mut probes));
    let after = replay(&ctx, &mut oracle, None).walls_ms;
    let overhead_pct: Vec<f64> = (0..traced.walls_ms.len())
        .map(|i| {
            let untraced = (before[i] + after[i]) / 2.0;
            (traced.walls_ms[i] - untraced) / untraced * 100.0
        })
        .collect();
    rows.set(
        "bench.trace_overhead_pct",
        med(&overhead_pct),
        overhead_pct.len(),
    );

    write_path_rows(&mut rows, &traced, &probes);
    setup_rows(&mut rows, &ctx, &probes);
    read_path_rows(&mut rows, &ctx, &traced, &mut probes.tracer);
    if workload.compact {
        durability_rows(&mut rows, &ctx, &traced, &probes, &mut oracle);
    }
    if workload.shards > 1 {
        sharding_rows(&mut rows, &ctx, &traced);
    }
    ctx.remove_files();
    let _ = std::fs::remove_file(&probes.log_path);

    let trace_path = options
        .work_dir
        .join(format!("trace_{}.jsonl", workload.name));
    probes.tracer.write_jsonl(&trace_path).expect("write trace");
    rows.one("bench.oracle_checks", oracle.attempted as f64);
    Outcome {
        attempted: oracle.attempted,
        failed: oracle.failed,
        metrics: rows.finish(),
        notes: vec![
            inputs.describe(),
            format!(
                "spans: {} in {}",
                probes.tracer.spans().len(),
                trace_path.display()
            ),
            format!(
                "benchmark's own time inside the batch spans (self time): {:.3} ms a batch",
                probes.tracer.self_ms_per("batch")
            ),
            "a layer that does not run on this workload reads 0".to_string(),
        ],
    }
}

/// `graph.update`, `reach.incremental`, `pattern.incremental`, `serve.store`.
fn write_path_rows(rows: &mut Rows, traced: &Replay, probes: &Probes) {
    let s = &probes.samples;
    let n = traced.walls_ms.len();
    rows.set("graph.update.validate_us", med(&s.validate_s) * 1e6, n);
    rows.set("graph.update.normalize_us", med(&s.normalize_s) * 1e6, n);
    rows.set("reach.incremental.apply_ms", med(&s.reach_apply_s) * 1e3, n);
    rows.set(
        "reach.incremental.export_ms",
        med(&s.reach_export_s) * 1e3,
        n,
    );
    let sum =
        |f: fn(&adapter::Applied) -> usize| traced.applied.iter().map(f).sum::<usize>() as f64;
    rows.set(
        "reach.incremental.affected_nodes",
        sum(|a| a.affected_nodes),
        n,
    );
    rows.set(
        "reach.incremental.affected_classes",
        sum(|a| a.affected_classes),
        n,
    );
    rows.set("reach.incremental.hybrid_nodes", sum(|a| a.hybrid_nodes), n);
    if !s.pattern_apply_s.is_empty() {
        rows.set(
            "pattern.incremental.apply_ms",
            med(&s.pattern_apply_s) * 1e3,
            n,
        );
        rows.set(
            "pattern.incremental.export_ms",
            med(&s.pattern_export_s) * 1e3,
            n,
        );
    }

    let publish: Vec<f64> = traced.applied.iter().map(|a| a.publish_ms).collect();
    rows.set("serve.store.publish_ms", med(&publish), n);
    let count =
        |f: fn(Published) -> bool| traced.applied.iter().filter(|a| f(a.path)).count() as f64;
    rows.set(
        "serve.store.patched",
        count(|p| matches!(p, Published::Patched { .. })),
        n,
    );
    rows.set("serve.store.rebuilt", count(|p| p == Published::Rebuilt), n);
    rows.set(
        "serve.store.republished",
        count(|p| p == Published::Republished),
        n,
    );
    let two_hop_patched = |p: Published| {
        matches!(
            p,
            Published::Patched {
                two_hop_patched: true
            }
        )
    };
    rows.set("serve.store.two_hop_patched", count(two_hop_patched), n);

    // What the outside clocks do not account for, per batch: the apply
    // wall minus validate, normalize, maintenance, publication and the log
    // append. Cover is its complement over the whole timed stream.
    let residual: Vec<f64> = (0..n)
        .map(|i| {
            let shadow_s = s.validate_s[i]
                + s.normalize_s[i]
                + s.reach_apply_s[i]
                + s.pattern_apply_s.get(i).copied().unwrap_or(0.0)
                + s.wal_append_s.get(i).copied().unwrap_or(0.0);
            traced.walls_ms[i] - shadow_s * 1e3 - publish[i]
        })
        .collect();
    rows.set("serve.store.residual_ms", med(&residual), n);
    let cover = 1.0 - residual.iter().sum::<f64>() / traced.walls_ms.iter().sum::<f64>();
    rows.set("serve.store.layer_cover", cover, n);
}

/// `reach.compress`, `pattern.compress`, `pattern.view`: what set-up pays.
fn setup_rows(rows: &mut Rows, ctx: &Context, probes: &Probes) {
    let g = &ctx.inputs.graph;
    let (_, compress_r_s) = probe(|| adapter::compress_r(g));
    rows.set(
        "reach.compress.compress_r_ms",
        compress_r_s * 1e3,
        PROBE_REPS,
    );
    let inc_s = med(&probes.samples.reach_apply_s);
    rows.set(
        "reach.compress.inc_over_batch",
        inc_s / compress_r_s,
        PROBE_REPS,
    );
    if let Some(pattern) = &probes.pattern {
        let (_, compress_b_s) = probe(|| adapter::compress_b(g));
        rows.set(
            "pattern.compress.compress_b_ms",
            compress_b_s * 1e3,
            PROBE_REPS,
        );
        let (classes, build_s) = probe(|| pattern.build_view());
        rows.set("pattern.view.build_ms", build_s * 1e3, PROBE_REPS);
        rows.one("pattern.view.classes", classes as f64);
    }
}

/// `reach.two_hop`, `graph.succinct`, `serve.snapshot`, `serve.bulk`, and
/// one traced round of query blocks.
fn read_path_rows(rows: &mut Rows, ctx: &Context, traced: &Replay, tracer: &mut Tracer) {
    let sizes = &ctx.options.sizes;
    let cut = traced.store.load();
    let snapshots = cut.snapshots();
    let sample = ctx.bulk_queries();

    // Sizes are summed over the cut's snapshots; per-query probes run on
    // the first snapshot (every shard snapshot indexes the full node set).
    let first = &snapshots[0];
    let t = Instant::now();
    let classes: Vec<(u32, u32)> = ctx
        .inputs
        .queries
        .iter()
        .filter_map(|&(u, w)| adapter::class_pair(first, u, w))
        .collect();
    let lookup_ns = t.elapsed().as_nanos() as f64 / ctx.inputs.queries.len() as f64;
    rows.set(
        "serve.snapshot.class_lookup_ns",
        lookup_ns,
        ctx.inputs.queries.len(),
    );
    let same = classes.iter().filter(|(a, b)| a == b).count() as f64;
    rows.set(
        "serve.snapshot.same_class_share",
        same / classes.len() as f64,
        classes.len(),
    );
    let positive = cut.count_reachable(sample) as f64;
    rows.set(
        "serve.snapshot.positive_share",
        positive / sample.len() as f64,
        sample.len(),
    );
    let class_sample = &classes[..sample.len().min(classes.len())];
    let bfs_ns = ns_per_item(class_sample, |&(a, b)| adapter::quotient_bfs(first, a, b));
    rows.set("serve.snapshot.bfs_ns", bfs_ns, class_sample.len());
    let nodes = ctx.inputs.graph.node_count();
    rows.one(
        "serve.snapshot.class_of_bytes",
        (4 * nodes * snapshots.len()) as f64,
    );
    let quotient_bytes: usize = snapshots.iter().map(|s| adapter::quotient_bytes(s)).sum();
    rows.one("serve.snapshot.quotient_bytes", quotient_bytes as f64);

    let built: Vec<(TwoHopProbe, f64)> = snapshots
        .iter()
        .filter_map(|s| {
            let t = Instant::now();
            let index = TwoHopProbe::build(s)?;
            Some((index, t.elapsed().as_secs_f64()))
        })
        .collect();
    if let Some((index, _)) = built.first() {
        let total = |f: fn(&TwoHopProbe) -> usize| built.iter().map(|(i, _)| f(i)).sum::<usize>();
        let build_ms = built.iter().map(|(_, s)| s * 1e3).sum();
        rows.set("reach.two_hop.build_ms", build_ms, built.len());
        rows.one(
            "reach.two_hop.label_entries",
            total(TwoHopProbe::label_entries) as f64,
        );
        rows.one("reach.two_hop.bytes", total(TwoHopProbe::bytes) as f64);
        let query_ns = ns_per_item(&classes, |&(a, b)| index.query(a, b));
        rows.set("reach.two_hop.query_ns", query_ns, classes.len());
    }

    if ctx.workload.compact {
        let plain = adapter::plain_quotient(first);
        let (packed, pack_s) = probe(|| SuccinctProbe::pack(&plain));
        rows.set("graph.succinct.pack_ms", pack_s * 1e3, PROBE_REPS);
        rows.one("graph.succinct.bits_per_edge", packed.bits_per_edge());
        rows.one("graph.succinct.bytes", packed.bytes() as f64);
        let (edges, scan_s) = probe(|| packed.scan());
        rows.set(
            "graph.succinct.scan_ns_per_edge",
            scan_s * 1e9 / edges.max(1) as f64,
            edges,
        );
    }

    for (name, threads) in [
        ("serve.bulk.qps_t1", 1),
        ("serve.bulk.qps_tn", ctx.options.threads),
    ] {
        let qps: Vec<f64> = (0..sizes.bulk_calls)
            .map(|_| {
                let t = Instant::now();
                let answers = adapter::bulk_reachable(&cut, sample, threads);
                let secs = t.elapsed().as_secs_f64();
                black_box(answers);
                sample.len() as f64 / secs
            })
            .collect();
        rows.set(name, med(&qps), qps.len());
    }

    // One traced round of query units, so the trace shows how a unit's
    // time splits between the pointer load and the queries.
    let blocks = ctx.inputs.queries.chunks_exact(ctx.block_len());
    for (i, block) in blocks.take(sizes.units).enumerate() {
        let unit = i as u64;
        let root = tracer.open("block", None, unit);
        let (cut, _) = tracer.span("serve.store.load", Some(root), unit, || traced.store.load());
        match ctx.inputs.patterns.get(i) {
            Some(pattern) => {
                let call = || cut.match_pattern(pattern);
                black_box(tracer.span("serve.snapshot.match_pattern", Some(root), unit, call));
            }
            None => {
                let call = || cut.count_reachable(block);
                black_box(tracer.span("serve.snapshot.reachable", Some(root), unit, call));
            }
        }
        tracer.close(root);
    }
}

/// `serve.wal`, `serve.persist`, `serve.store.boot_s`: what the compact
/// workload's durability costs, with full-history recovery and the boot
/// from a snapshot both checked against the oracle.
fn durability_rows(
    rows: &mut Rows,
    ctx: &Context,
    traced: &Replay,
    probes: &Probes,
    oracle: &mut Oracle,
) {
    let s = &probes.samples;
    rows.set(
        "serve.wal.append_us",
        med(&s.wal_append_s) * 1e6,
        s.wal_append_s.len(),
    );
    let updates: usize = ctx.inputs.stream.iter().map(|b| b.len()).sum();
    let appended = file_len(&probes.log_path) - probes.log_base_bytes;
    rows.set(
        "serve.wal.bytes_per_update",
        appended as f64 / updates as f64,
        updates,
    );
    let (batches, read_s) = probe(|| ShadowLog::read(&probes.log_path).expect("read log"));
    assert_eq!(batches, ctx.inputs.stream.len(), "shadow log lost batches");
    rows.set("serve.wal.read_ms", read_s * 1e3, PROBE_REPS);

    let log = ctx.log_path().expect("compact workloads keep a log");
    let t = Instant::now();
    let recovered = Store::recover_from_log(&log, &ctx.store_spec());
    rows.one("serve.wal.recover_s", t.elapsed().as_secs_f64());
    let checks = &ctx.inputs.queries[..ctx.options.sizes.checks_per_checkpoint];
    let cut = recovered.expect("recover_from_log").load();
    oracle.check_points(&cut, &traced.final_graph, checks);

    // The operator's restart: the snapshot saved after timed batch 75 plus
    // the log's tail, instead of the full history.
    let (booted, boot_s) =
        probe(|| Store::boot_from_snapshot(&ctx.snapshot_path(), &log, &ctx.store_spec()));
    rows.set("serve.store.boot_s", boot_s, PROBE_REPS);
    let cut = booted.expect("boot_from_snapshot").load();
    oracle.check_points(&cut, &traced.final_graph, checks);

    let path = ctx
        .options
        .work_dir
        .join(format!("{}.probe.snapshot", ctx.workload.name));
    let snapshots = traced.store.load().snapshots();
    let snapshot = &snapshots[0];
    let (_, save_s) = probe(|| adapter::persist_save(snapshot, &path).expect("save"));
    rows.set("serve.persist.save_ms", save_s * 1e3, PROBE_REPS);
    rows.one("serve.persist.file_bytes", file_len(&path) as f64);
    let (_, load_s) = probe(|| adapter::persist_load(&path).expect("load"));
    rows.set("serve.persist.load_ms", load_s * 1e3, PROBE_REPS);
    let _ = std::fs::remove_file(&path);
}

/// `serve.sharded`, `serve.boundary`: the slowest shard sets the time, and
/// the watermark bump is what is left of publication after it.
fn sharding_rows(rows: &mut Rows, ctx: &Context, traced: &Replay) {
    let n = traced.applied.len();
    let mut slowest = Vec::with_capacity(n);
    let mut skew = Vec::with_capacity(n);
    let mut bump = Vec::with_capacity(n);
    for a in &traced.applied {
        let max = a.shard_publish_ms.iter().copied().fold(0.0, f64::max);
        let mean = a.shard_publish_ms.iter().sum::<f64>() / a.shard_publish_ms.len().max(1) as f64;
        slowest.push(max);
        skew.push(if mean > 0.0 { max / mean } else { 1.0 });
        bump.push(a.publish_ms - max);
    }
    rows.set("serve.sharded.shard_publish_ms", med(&slowest), n);
    rows.set("serve.sharded.shard_skew", med(&skew), n);
    rows.set("serve.boundary.bump_ms", med(&bump), n);

    let shards = ctx.workload.shards;
    let g = &traced.final_graph;
    let cross = adapter::cross_edges(g, shards) as f64;
    rows.one(
        "serve.sharded.cross_edge_share",
        cross / g.edge_count() as f64,
    );
    let cut = traced.store.load();
    rows.one("serve.boundary.vertices", cut.boundary_vertices() as f64);

    let sample = ctx.bulk_queries();
    let (crossing, intra): (Vec<_>, Vec<_>) = sample
        .iter()
        .copied()
        .partition(|&(u, w)| adapter::crosses_shards(u, w, shards));
    for (name, group) in [
        ("serve.boundary.cross_query_ns", crossing),
        ("serve.boundary.intra_query_ns", intra),
    ] {
        if !group.is_empty() {
            let ns = ns_per_item(&group, |&(u, w)| cut.reachable(u, w));
            rows.set(name, ns, group.len());
        }
    }
}
