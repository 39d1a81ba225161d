//! The workload runner: opens the store, replays the update stream, issues
//! the queries, and checks every answer against the oracle.
//!
//! Loops are closed throughout (the caller waits for each reply): one
//! writer, one reader, never more than `min(nproc, 2)` busy threads. Timed
//! regions contain nothing but the call into the product; oracle checks,
//! input cloning and bookkeeping happen outside them.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::adapter::{self, Applied, Cut, LabeledGraph, NodeId, Pattern, Store, StoreSpec};
use crate::inputs::Inputs;
use crate::layers::Probes;
use crate::spec::{Sizes, Workload};
use crate::stats::{median, min_per_index, percentile};

/// Quiet read rounds follow each stream replay for this share of the time
/// the replay took (and at least `Sizes::rounds` of them).
const READ_SHARE: f64 = 0.25;

/// `StoreConfig::threads` of every store the benchmark opens. One, not
/// `min(nproc, 2)`: on a shared 2-vCPU box the second vCPU comes and goes
/// with the host's other tenants, and everything that fans out over two
/// threads (bulk evaluation, the compression sweeps) then swings by half
/// between two sets of runs of the same code. Parallel bulk evaluation is
/// probed per layer (`serve.bulk.qps_tn`) instead.
const STORE_THREADS: usize = 1;

/// Upper limit on the repetitions of one short call within a cycle.
const MAX_REPS: usize = 64;

/// How one run is configured from the command line.
#[derive(Clone, Debug)]
pub struct Options {
    /// `--seed`: drives the query set.
    pub seed: u64,
    /// `--seconds`: target length of the measured phase.
    pub seconds: f64,
    /// Work sizes (`Sizes::FULL`, or `Sizes::SMOKE` under `--smoke`).
    pub sizes: Sizes,
    /// `--flip-answer`: flip one store answer before it is compared, to
    /// show that a wrong answer fails the run.
    pub flip_answer: bool,
    /// Directory for the log, snapshot and trace files.
    pub work_dir: PathBuf,
    /// `min(nproc, 2)`: the most threads the benchmark ever keeps busy —
    /// the mixed workload's writer and reader, the per-layer bulk probe.
    pub threads: usize,
}

/// One reported number with the count of samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name from `spec::END_TO_END` or `spec::PER_LAYER`.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Samples behind the value (1 for counts and sizes).
    pub samples: usize,
}

impl Metric {
    /// A metric backed by `samples` samples.
    pub fn new(name: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            value,
            samples,
        }
    }
}

/// What one run found.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted: applies, oracle point checks, pattern checks.
    pub attempted: u64,
    /// Operations that failed: refused applies and answers ≠ oracle.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Free-form facts about the run for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// `failed ÷ attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Counts attempted and failed operations; compares store answers with the
/// oracle on the shadow graph.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Operations attempted so far.
    pub attempted: u64,
    /// Operations failed so far.
    pub failed: u64,
    flip_next: bool,
    replays: usize,
}

impl Oracle {
    /// An oracle; with `flip_answer` the first compared answer is flipped.
    pub fn new(flip_answer: bool) -> Oracle {
        Oracle {
            flip_next: flip_answer,
            ..Oracle::default()
        }
    }

    /// Marks the start of a replay. Point answers are checked in every
    /// replay; patterns — an order of magnitude dearer to evaluate on `G`,
    /// and the replays are the same deterministic computation — in the
    /// first only.
    pub fn begin_replay(&mut self) {
        self.replays += 1;
    }

    /// Records one `try_apply` outcome.
    pub fn applied(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Checks `cut`'s answers to `queries` against BFS on `g`.
    pub fn check_points(&mut self, cut: &Cut, g: &LabeledGraph, queries: &[(NodeId, NodeId)]) {
        for &(u, w) in queries {
            let mut got = cut.reachable(u, w);
            if std::mem::take(&mut self.flip_next) {
                got = !got;
            }
            self.attempted += 1;
            self.failed += u64::from(got != adapter::oracle_reachable(g, u, w));
        }
    }

    /// Checks `cut`'s pattern answers against bounded simulation on `g`.
    pub fn check_patterns<'a>(
        &mut self,
        cut: &Cut,
        g: &LabeledGraph,
        patterns: impl IntoIterator<Item = &'a Pattern>,
    ) {
        if self.replays > 1 {
            return;
        }
        for p in patterns {
            let same = adapter::same_answer(&cut.match_pattern(p), &adapter::oracle_match(g, p));
            self.attempted += 1;
            self.failed += u64::from(!same);
        }
    }
}

/// The fixed parts of one workload run.
pub struct Context<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// Its inputs.
    pub inputs: &'a Inputs,
    /// Command-line options.
    pub options: &'a Options,
}

impl Context<'_> {
    /// The store configuration of the workload.
    pub fn store_spec(&self) -> StoreSpec {
        StoreSpec {
            two_hop: self.workload.two_hop,
            succinct: self.workload.compact,
            patterns: self.workload.patterns,
            shards: self.workload.shards,
            threads: STORE_THREADS,
        }
    }

    /// Path of the workload's update log (compact workloads only).
    pub fn log_path(&self) -> Option<PathBuf> {
        self.workload.compact.then(|| {
            self.options
                .work_dir
                .join(format!("{}.log", self.workload.name))
        })
    }

    /// Path of the workload's saved snapshot.
    pub fn snapshot_path(&self) -> PathBuf {
        self.options
            .work_dir
            .join(format!("{}.snapshot", self.workload.name))
    }

    /// Opens the workload's store on a copy of `g`; returns it with the
    /// constructor's wall time in seconds (the copy is made outside it).
    pub fn open(&self, g: &LabeledGraph) -> (Store, f64) {
        let g = g.clone();
        let log = self.log_path();
        let t = Instant::now();
        let store = Store::open(g, &self.store_spec(), log.as_deref());
        let secs = t.elapsed().as_secs_f64();
        (store.expect("store constructor"), secs)
    }

    /// Removes the log and snapshot files. Best effort: they live in the
    /// benchmark's own work directory and the next run truncates them.
    pub fn remove_files(&self) {
        for path in self.log_path().into_iter().chain([self.snapshot_path()]) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Reachability queries per block on this workload at these sizes.
    pub fn block_len(&self) -> usize {
        self.workload
            .block_len
            .min(self.options.sizes.block_len_cap)
    }

    /// The queries of one bulk call: the first `bulk_blocks` blocks.
    pub fn bulk_queries(&self) -> &[(NodeId, NodeId)] {
        let len = self.block_len() * self.options.sizes.bulk_blocks;
        &self.inputs.queries[..len.min(self.inputs.queries.len())]
    }

    /// The slice of the query set checked at checkpoint `k`.
    fn checkpoint_queries(&self, k: usize) -> &[(NodeId, NodeId)] {
        let q = &self.inputs.queries;
        let len = self.options.sizes.checks_per_checkpoint.min(q.len());
        let start = (k * len) % (q.len() - len + 1);
        &q[start..start + len]
    }
}

/// One replay of the stream on a freshly opened store.
pub struct Replay {
    /// The store after the last batch.
    pub store: Store,
    /// Constructor wall time, seconds.
    pub setup_s: f64,
    /// `try_apply` wall per timed batch, milliseconds.
    pub walls_ms: Vec<f64>,
    /// What each timed `try_apply` reported.
    pub applied: Vec<Applied>,
    /// The shadow graph after the last batch.
    pub final_graph: LabeledGraph,
    /// Per-query nanoseconds of every block the concurrent reader timed
    /// (mixed workloads only).
    pub reader_ns: Vec<f64>,
}

/// Replays the stream once: 5 untimed warm-up batches, then the timed
/// ones, back to back. The oracle checks a slice of the query set (and a
/// fifth of the patterns) at each checkpoint; the compact workload saves
/// its snapshot after `snapshot_after` timed batches. With `probes`, every
/// call is wrapped in a span and the shadow layers run beside the store.
pub fn replay(ctx: &Context, oracle: &mut Oracle, mut probes: Option<&mut Probes>) -> Replay {
    let sizes = &ctx.options.sizes;
    oracle.begin_replay();
    let (store, setup_s) = ctx.open(&ctx.inputs.graph);
    let mut shadow = ctx.inputs.graph.clone();
    let mut walls_ms = Vec::with_capacity(sizes.timed_batches);
    let mut applied = Vec::with_capacity(sizes.timed_batches);
    let every = (sizes.timed_batches / sizes.checkpoints).max(1);
    let stop = AtomicBool::new(false);
    let paused = AtomicBool::new(false);

    let reader_ns = std::thread::scope(|scope| {
        let reader = ctx
            .workload
            .mixed
            .then(|| scope.spawn(|| read_beside_writer(ctx, &store, &stop, &paused)));

        for (i, batch) in ctx.inputs.stream.iter().enumerate() {
            let unit = i as u64;
            let timed = i >= sizes.warmup_batches;
            let root = probes.as_deref_mut().map(|p| p.before(batch, unit));

            let t = Instant::now();
            let result = store.try_apply(batch);
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;

            if let (Some(p), Some(root)) = (probes.as_deref_mut(), root) {
                p.after(batch, root, unit, timed);
            }
            adapter::advance(&mut shadow, batch);
            oracle.applied(result.is_ok());
            if !timed {
                continue;
            }
            walls_ms.push(wall_ms);
            applied.push(result.unwrap_or_default());

            let done = walls_ms.len();
            if ctx.workload.compact && done == sizes.snapshot_after {
                store
                    .save_snapshot(&ctx.snapshot_path())
                    .expect("save_snapshot");
            }
            if done % every == 0 {
                let k = done / every - 1;
                paused.store(true, Ordering::Relaxed);
                let cut = store.load();
                oracle.check_points(&cut, &shadow, ctx.checkpoint_queries(k));
                let fifth = ctx
                    .inputs
                    .patterns
                    .iter()
                    .skip(k)
                    .step_by(sizes.checkpoints);
                oracle.check_patterns(&cut, &shadow, fifth);
                paused.store(false, Ordering::Relaxed);
            }
        }
        stop.store(true, Ordering::Relaxed);
        reader.map_or_else(Vec::new, |r| r.join().expect("reader thread"))
    });

    Replay {
        store,
        setup_s,
        walls_ms,
        applied,
        final_graph: shadow,
        reader_ns,
    }
}

/// The mixed workload's reader: query blocks back to back in a closed loop,
/// a fresh `load()` per block, until the writer is done. (A reader that
/// sleeps between blocks was tried: the scheduler then sometimes wakes it on
/// the writer's core, and both sides turn bimodal.) `stop` and `paused` are
/// plain flags (they publish no data), hence `Relaxed`.
fn read_beside_writer(
    ctx: &Context,
    store: &Store,
    stop: &AtomicBool,
    paused: &AtomicBool,
) -> Vec<f64> {
    let len = ctx.block_len();
    let mut samples = Vec::with_capacity(1 << 16);
    for block in ctx.inputs.queries.chunks_exact(len).cycle() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        if paused.load(Ordering::Relaxed) {
            std::thread::yield_now();
            continue;
        }
        samples.push(time_block(store, block));
    }
    samples
}

/// One block: one `load()` plus the block's `reachable` calls; returns
/// nanoseconds per query.
pub fn time_block(store: &Store, block: &[(NodeId, NodeId)]) -> f64 {
    let t = Instant::now();
    let cut = store.load();
    let hits = cut.count_reachable(block);
    let ns = t.elapsed().as_nanos() as f64;
    black_box(hits);
    ns / block.len() as f64
}

/// One pattern query: one `load()` plus `match_pattern`; nanoseconds.
fn time_pattern(store: &Store, pattern: &Pattern) -> f64 {
    let t = Instant::now();
    let cut = store.load();
    let answer = cut.match_pattern(pattern);
    let ns = t.elapsed().as_nanos() as f64;
    black_box(answer);
    ns
}

/// Calls `call` (which returns its own wall time in seconds) at least
/// `min_calls` times and until `floor` has passed, at most `MAX_REPS` times,
/// and returns the fastest call: short calls are repeated, long ones are
/// not made longer. `seed` is a sample already taken this cycle.
fn fastest(min_calls: usize, floor: Duration, seed: f64, mut call: impl FnMut() -> f64) -> f64 {
    let started = Instant::now();
    let mut best = seed;
    let mut calls = 0;
    while calls < min_calls || (started.elapsed() < floor && calls < MAX_REPS) {
        best = best.min(call());
        calls += 1;
    }
    best
}

/// One quiet read round on `store`: times every query unit once (a block
/// of reachability queries, or one pattern where patterns are the
/// workload's queries). Returns per-query nanoseconds, one per unit.
fn read_round(ctx: &Context, store: &Store, units: std::ops::Range<usize>) -> Vec<f64> {
    let len = ctx.block_len();
    units
        .map(|i| match ctx.inputs.patterns.get(i) {
            Some(pattern) => time_pattern(store, pattern),
            None => time_block(store, &ctx.inputs.queries[i * len..(i + 1) * len]),
        })
        .collect()
}

/// Runs `workload` untraced and reports every end-to-end metric.
///
/// The run is a sequence of *cycles*, each a few seconds long: replay the
/// stream on a freshly opened store, read from that store, call bulk
/// evaluation, set up again. Every metric therefore draws its
/// samples from moments spread over the whole run. The stream and the
/// queries are deterministic and whatever else runs on a shared box only
/// ever adds time, so a batch's (or a query unit's) time is its fastest
/// cycle, with the percentiles then taken across batches (units); a single
/// quantity — set-up, bulk — is the median across cycles of each cycle's
/// fastest call. That sheds the seconds-long slow phases the box
/// goes through without hiding which batches are intrinsically expensive.
pub fn run_end_to_end(workload: &Workload, options: &Options) -> Outcome {
    let sizes = &options.sizes;
    let inputs = Inputs::generate(workload, sizes, options.seed);
    let ctx = Context {
        workload,
        inputs: &inputs,
        options,
    };
    let mut oracle = Oracle::new(options.flip_answer);
    let bulk_queries = ctx.bulk_queries();

    let mut walls: Vec<Vec<f64>> = Vec::new();
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let mut reader_ns: Vec<Vec<f64>> = Vec::new();
    let mut bulk_qps: Vec<f64> = Vec::new();
    let mut setup_secs: Vec<f64> = Vec::new();

    let measure_start = Instant::now();
    let budget = Duration::from_secs_f64(options.seconds);
    let last = loop {
        let cycle_start = Instant::now();
        let mut replayed = replay(&ctx, &mut oracle, None);
        let replay_wall = cycle_start.elapsed();
        walls.push(std::mem::take(&mut replayed.walls_ms));
        reader_ns.push(std::mem::take(&mut replayed.reader_ns));

        // Quiet reads on this cycle's store, for about a quarter of the
        // time the replay took; a mixed workload read beside the writer.
        if !workload.mixed {
            read_round(
                &ctx,
                &replayed.store,
                0..sizes.warmup_units.min(sizes.units),
            );
            let reads_start = Instant::now();
            let rounds_before = rounds.len();
            while rounds.len() < rounds_before + sizes.rounds
                || reads_start.elapsed() < replay_wall.mul_f64(READ_SHARE)
            {
                rounds.push(read_round(&ctx, &replayed.store, 0..sizes.units));
            }
        }
        let bulk_s = fastest(sizes.bulk_calls, sizes.repeat_floor, f64::INFINITY, || {
            let t = Instant::now();
            let answers = replayed.store.bulk_reachable(bulk_queries);
            let secs = t.elapsed().as_secs_f64();
            black_box(answers);
            secs
        });
        bulk_qps.push(bulk_queries.len() as f64 / bulk_s);

        setup_secs.push(fastest(
            sizes.setup_reps - 1,
            sizes.repeat_floor,
            replayed.setup_s,
            || ctx.open(&inputs.graph).1,
        ));

        let projected = measure_start.elapsed() + cycle_start.elapsed();
        if walls.len() >= sizes.cycles && projected > budget {
            break replayed;
        }
    };
    ctx.remove_files();

    let updates: usize = last.applied.iter().map(|a| a.effective_updates).sum();
    let per_batch_ms = min_per_index(&walls);
    let apply_total_s = per_batch_ms.iter().sum::<f64>() * 1e-3;
    // Quiet rounds: a unit's time is its fastest round, percentiles are
    // across units. Mixed: a cycle's percentile is over every block its
    // reader timed, and the fastest cycle is reported — the same "noise
    // only adds" reading, at the level a concurrent reader allows.
    let quiet_ns = min_per_index(&rounds);
    let query = |q: f64| {
        let of = |samples: &Vec<f64>| percentile(samples, q).expect("query samples");
        if workload.mixed {
            reader_ns.iter().map(of).fold(f64::INFINITY, f64::min)
        } else {
            of(&quiet_ns)
        }
    };
    let query_samples = if workload.mixed {
        reader_ns.iter().map(Vec::len).min().unwrap_or(0)
    } else {
        quiet_ns.len()
    };

    let final_graph = &last.final_graph;
    let final_cut = last.store.load();
    let nodes = final_graph.node_count() as f64;
    let cross = if workload.shards > 1 {
        adapter::cross_edges(final_graph, workload.shards)
    } else {
        0
    };
    let ratio = (final_cut.quotient_size() + cross) as f64
        / (final_graph.node_count() + final_graph.edge_count()) as f64;

    let p = |samples: &[f64], q: f64| percentile(samples, q).expect("samples");
    let m = |samples: &[f64]| median(samples).expect("samples");
    let metrics = vec![
        Metric::new("setup_s", m(&setup_secs), setup_secs.len()),
        Metric::new("apply_p50_ms", p(&per_batch_ms, 0.5), per_batch_ms.len()),
        Metric::new("apply_p90_ms", p(&per_batch_ms, 0.9), per_batch_ms.len()),
        Metric::new(
            "apply_updates_per_s",
            updates as f64 / apply_total_s,
            walls.len(),
        ),
        Metric::new("query_ns_p50", query(0.5), query_samples),
        Metric::new("query_ns_p99", query(0.99), query_samples),
        Metric::new("bulk_qps", m(&bulk_qps), bulk_qps.len()),
        Metric::new(
            "snapshot_bytes_per_node",
            final_cut.heap_bytes() as f64 / nodes,
            1,
        ),
        Metric::new("compression_ratio", ratio, 1),
    ];
    Outcome {
        attempted: oracle.attempted,
        failed: oracle.failed,
        metrics,
        notes: vec![
            inputs.describe(),
            format!("cycles (stream replays): {}", walls.len()),
            format!("quiet read rounds: {}", rounds.len()),
        ],
    }
}
