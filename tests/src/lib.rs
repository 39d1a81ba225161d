//! Cross-crate integration tests live in the `tests/` directory of this
//! package; this library is what they share: one set of seeded generators
//! ([`random_graph`], [`random_batch`], [`pattern_queries`]) and the
//! stateful model checker every store configuration is judged by.
//!
//! # The model checker
//!
//! [`check`] drives one store configuration ([`Config`]) through a seeded
//! sequence of [`Command`]s in the shape of differential dataflow's
//! reachability example: feed batches in, advance, probe, compare. The
//! model is a [`LabeledGraph`] plus the version the store must report; the
//! oracles are `bfs_reachable` and `bounded_match` on it, never a second
//! optimised path. After every command the checker asserts that every
//! answer over all pairs is the model's at the reported watermark; that a
//! rejected command left the very same cut served; that every served
//! `Snapshot` (every shard's, at the watermark) passes `check_invariants`,
//! has `compress_r`'s and `compress_b`'s class counts on the model, the
//! backend, 2-hop index and pattern view its configuration asks for — a
//! booted or recovered cut included — and a 2-hop index `==`
//! `TwoHopIndex::build_with` over its `Gr`. Each command also records a
//! hash of the served state (quotient edges, `class_of`, the landmark
//! order, the pattern view, `heap_bytes`), and the same run replayed at
//! `threads = 2` ([`check_at`]: at any thread counts) must give the same
//! hashes.
//!
//! The seed draws the graph; odd seeds draw a DAG (and keep it one), even
//! seeds a graph that may have cycles.
//!
//! A failure names the configuration, the seed and the command index `i`;
//! `check(config, seed, i + 1)` replays the run up to that command.

use std::collections::{HashMap, HashSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::mem::{discriminant, Discriminant};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use qpgc_graph::partition::split_graph;
use qpgc_graph::traversal::bfs_reachable;
use qpgc_graph::{BatchError, LabeledGraph, NodeId, NodePartition, Update, UpdateBatch};
use qpgc_pattern::bounded::bounded_match;
use qpgc_pattern::compress::compress_b;
use qpgc_pattern::pattern::{assert_same_answer, Pattern};
use qpgc_reach::compress::compress_r;
use qpgc_reach::two_hop::TwoHopIndex;
use qpgc_serve::{
    bulk_reachable, load_snapshot, ApplyPath, ApplyReport, CompressedStore, ReachCut, ReachStore,
    ShardedStore, Snapshot, SnapshotFormat, StoreConfig, StoreError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random graph of `3..n_max` nodes labelled `A`, `B` or `C`, with about
/// `3n` edge draws. `dag` keeps every edge id-upward so the graph stays
/// acyclic through batches generated with the same flag.
pub fn random_graph(rng: &mut StdRng, n_max: usize, dag: bool) -> LabeledGraph {
    let n = rng.gen_range(3..n_max);
    let m = rng.gen_range(0..n * 3);
    let mut g = LabeledGraph::new();
    for _ in 0..n {
        g.add_node_with_label(["A", "B", "C"][rng.gen_range(0..3usize)]);
    }
    for _ in 0..m {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if !dag || u < v {
            g.add_edge(NodeId(u), NodeId(v));
        }
    }
    g
}

/// A batch of `count` updates over nodes `0..n`; each is an insertion
/// with probability `bias` (`dag` draws id-upward edges only). Never emits
/// both an insert and a delete of the same edge in one batch —
/// [`UpdateBatch::validate`] rejects such conflicts, so a draw that would
/// contradict an earlier one keeps the earlier kind.
pub fn random_batch(rng: &mut StdRng, n: usize, count: usize, bias: f64, dag: bool) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    let mut kinds: HashMap<(u32, u32), bool> = HashMap::new();
    for _ in 0..count {
        let mut u = rng.gen_range(0..n) as u32;
        let mut v = rng.gen_range(0..n) as u32;
        if dag && u > v {
            std::mem::swap(&mut u, &mut v);
        }
        if dag && u == v {
            continue;
        }
        let drawn = rng.gen_bool(bias);
        if *kinds.entry((u, v)).or_insert(drawn) {
            batch.insert(NodeId(u), NodeId(v));
        } else {
            batch.delete(NodeId(u), NodeId(v));
        }
    }
    batch
}

/// The classes of a node → class table as node ids, sorted by first
/// member: equal for two partitions into the same classes, however each
/// numbers them. The one partition comparison of the integration suites.
pub fn canonical(class_of: &[u32]) -> Vec<Vec<u32>> {
    let mut classes = std::collections::BTreeMap::<u32, Vec<u32>>::new();
    for (v, &c) in class_of.iter().enumerate() {
        classes.entry(c).or_default().push(v as u32);
    }
    let mut classes: Vec<Vec<u32>> = classes.into_values().collect();
    classes.sort_unstable();
    classes
}

/// [`canonical`] of `compress_b(g)`: the partition a maintained
/// bisimulation quotient is compared against.
pub fn compressed_classes(g: &LabeledGraph) -> Vec<Vec<u32>> {
    let view = compress_b(g);
    let class_of: Vec<u32> = g
        .nodes()
        .map(|v| view.class_of(v).expect("a node of g"))
        .collect();
    canonical(&class_of)
}

/// The pattern workload over the generated labels: bounded, unbounded and
/// chained edges, and a single-node pattern (which would expose a stale
/// label on a retired quotient row).
pub fn pattern_queries() -> Vec<Pattern> {
    // Chains: node labels, then the hop bound of each edge (0 unbounded).
    let chains: [(&[&str], &[u32]); 6] = [
        (&["A", "B"], &[1]),
        (&["A", "C"], &[2]),
        (&["B", "A"], &[0]),
        (&["B", "C"], &[0]),
        (&["A", "B", "C"], &[2, 3]),
        (&["C"], &[]),
    ];
    let build = |&(labels, bounds): &(&[&str], &[u32])| {
        let mut p = Pattern::new();
        let ids: Vec<_> = labels.iter().map(|l| p.add_node(l)).collect();
        for (i, &k) in bounds.iter().enumerate() {
            match k {
                0 => p.add_edge_unbounded(ids[i], ids[i + 1]),
                k => p.add_edge(ids[i], ids[i + 1], k),
            };
        }
        p
    };
    chains.iter().map(build).collect()
}

/// One store configuration; the default is a plain single store serving
/// neither a 2-hop index nor patterns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Config {
    /// `None` for a [`CompressedStore`], `Some(n)` for a [`ShardedStore`]
    /// at `n` shards.
    pub shards: Option<usize>,
    /// The backend publications serve their quotient in.
    pub format: SnapshotFormat,
    /// Serve a 2-hop index.
    pub two_hop: bool,
    /// Serve pattern queries.
    pub patterns: bool,
}

impl Config {
    /// Every configuration a store accepts, 20 in all: `CompressedStore` ×
    /// {Plain, Succinct} × 2-hop on/off × patterns on/off, and
    /// `ShardedStore` at {1, 2, 4} shards × {Plain, Succinct} × 2-hop
    /// on/off.
    pub fn all() -> Vec<Config> {
        Self::grid(|c| c.shards.is_none() || !c.patterns)
    }

    /// The 12 router configurations that ask for patterns, which
    /// [`ShardedStore`] refuses ([`assert_refused`]).
    pub fn refused() -> Vec<Config> {
        Self::grid(|c| c.shards.is_some() && c.patterns)
    }

    fn grid(keep: fn(&Config) -> bool) -> Vec<Config> {
        let config = |i: usize| Config {
            shards: [None, Some(1), Some(2), Some(4)][i / 8],
            format: [SnapshotFormat::Plain, SnapshotFormat::Succinct][i / 4 % 2],
            two_hop: i / 2 % 2 == 1,
            patterns: i % 2 == 1,
        };
        (0..32).map(config).filter(keep).collect()
    }

    /// The store configuration, with `threads` bulk-read workers.
    pub fn store_config(&self, threads: usize) -> StoreConfig {
        let builder = StoreConfig::builder()
            .threads(threads)
            .shards(self.shards.unwrap_or(1))
            .snapshot_format(self.format)
            .patterns(self.patterns);
        match self.two_hop {
            true => builder.two_hop(Default::default()),
            false => builder,
        }
        .build()
    }

    /// One command of every kind the configuration admits: snapshot files
    /// are the single store's, pattern queries need patterns served.
    pub fn commands(&self) -> Vec<Command> {
        use Command::*;
        let mut menu = vec![
            Mixed, Implied, Deletes, Neutral, OutOfRange, Conflict, Noop, Recover,
        ];
        menu.extend([Point, Bulk]);
        if self.shards.is_none() {
            menu.extend([Save, Boot]);
        }
        if self.patterns {
            menu.push(Pattern);
        }
        menu
    }
}

/// One step of a checker run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// A valid batch of random inserts and deletes.
    Mixed,
    /// A valid insert-only batch, one insert an edge the model implies.
    Implied,
    /// A valid batch of deletes of existing edges, sometimes one insert.
    Deletes,
    /// A valid batch mixing an insert of an edge the model implies, a
    /// delete of an edge off its transitive reduction and a delete of a
    /// random edge: the neutral updates `incRCM` only counts in its rows.
    Neutral,
    /// A batch naming a node outside the store: rejected, nothing changes.
    OutOfRange,
    /// A batch inserting and deleting one edge: rejected, nothing changes.
    Conflict,
    /// A batch that normalises to nothing: the cut is republished.
    Noop,
    /// Saves the served snapshot; the file must load back and answer right.
    Save,
    /// Boots from the file saved last since the log began (saving one if
    /// none was) and the log's tail.
    Boot,
    /// Drops the store and recovers it from its log.
    Recover,
    /// Every pair, asked through the store.
    Point,
    /// Every pair in bulk: through the store, and at 1 and 2 threads.
    Bulk,
    /// Every query of [`pattern_queries`].
    Pattern,
    /// Arms failpoint `site` at hit `hit` and applies a valid batch drawn
    /// as [`Command::Neutral`] draws one (so a rollback undoes the rows a
    /// pruned update was counted in), which must fail, name the site, and
    /// change nothing. Hit `k` of a per-shard site fails shard `k − 1`. At
    /// a `persist/` site it saves the served snapshot instead, and the file
    /// on disk must not change.
    #[cfg(feature = "failpoints")]
    Fault {
        /// The `fail_point!` site.
        site: &'static str,
        /// Which hit fires (1-based).
        hit: u64,
    },
}

/// What checker runs exercised.
#[derive(Debug, Default)]
pub struct Coverage {
    /// Runs on a graph that may have cycles, and on a DAG.
    pub shapes: [usize; 2],
    /// Kinds of the commands that ran.
    pub kinds: HashSet<Discriminant<Command>>,
    /// Batches published by a build.
    pub rebuilt: usize,
    /// Batches published by republishing the previous cut.
    pub republished: usize,
    /// Publications that built a new pattern view.
    pub views_built: usize,
    /// Updates `incRCM` counted in its rows without recomputing from them
    /// (`IncStats::redundant_dropped`).
    pub pruned: usize,
}

impl Coverage {
    /// Adds another run's coverage.
    pub fn absorb(&mut self, other: Coverage) {
        self.shapes = [0, 1].map(|i| self.shapes[i] + other.shapes[i]);
        self.kinds.extend(other.kinds);
        self.rebuilt += other.rebuilt;
        self.republished += other.republished;
        self.views_built += other.views_built;
        self.pruned += other.pruned;
    }

    /// Asserts that every kind `config` admits ran, on a DAG and on a graph
    /// that may have cycles, and that batches took both publication paths —
    /// a checker that exercises nothing fails.
    pub fn assert_complete(&self, config: &Config) {
        let mut missing = config.commands();
        missing.retain(|c| !self.kinds.contains(&discriminant(c)));
        assert!(missing.is_empty(), "{config:?}: never ran {missing:?}");
        assert!(
            !self.shapes.contains(&0),
            "{config:?}: one graph shape only"
        );
        assert!(self.rebuilt > 0, "{config:?}: no batch was rebuilt");
        assert!(self.republished > 0, "{config:?}: no batch was republished");
    }
}

/// Runs `steps` seeded commands against `config` — every kind it admits
/// once, in seeded order, then seeded draws in which batches weigh three
/// times the rest — through [`check_script`]. An odd `seed` runs on a DAG.
pub fn check(config: Config, seed: u64, steps: usize) -> Coverage {
    check_at(config, seed, steps, &[2])
}

/// [`check`], replayed at every thread count of `replays`.
pub fn check_at(config: Config, seed: u64, steps: usize, replays: &[usize]) -> Coverage {
    let mut rng = StdRng::seed_from_u64(!seed);
    let mut script = config.commands();
    for i in (1..script.len()).rev() {
        script.swap(i, rng.gen_range(0..=i));
    }
    let batches = [
        Command::Mixed,
        Command::Implied,
        Command::Deletes,
        Command::Neutral,
    ];
    let menu = [&script[..], &batches, &batches].concat();
    script.extend((script.len()..steps).map(|_| menu[rng.gen_range(0..menu.len())]));
    script.truncate(steps);
    run_and_replay(config, seed, &script, replays)
}

/// Runs `script` against `config` on the graph `seed` draws, then replays
/// it at `threads = 2`, which must reach the same state hash after every
/// command.
pub fn check_script(config: Config, seed: u64, script: &[Command]) -> Coverage {
    run_and_replay(config, seed, script, &[2])
}

fn run_and_replay(config: Config, seed: u64, script: &[Command], replays: &[usize]) -> Coverage {
    let run = |threads| match config.shards {
        None => Checker::<CompressedStore>::run(config, seed, threads, script),
        Some(_) => Checker::<ShardedStore>::run(config, seed, threads, script),
    };
    let (coverage, hashes) = run(1);
    for &threads in replays {
        let replayed = run(threads).1;
        if let Some(i) = (0..hashes.len()).find(|&i| hashes.get(i) != replayed.get(i)) {
            let at = i
                .checked_sub(1)
                .map_or("the initial cut".into(), |c| format!("command {c}"));
            panic!("{config:?} seed {seed}: the state at threads = {threads} differs after {at}");
        }
    }
    coverage
}

/// Runs [`check`] for every seed of `seeds` on every configuration of
/// [`Config::all`] that `keep` keeps, and returns what they exercised. The
/// runs are independent: two workers share them.
#[expect(
    clippy::disallowed_methods,
    reason = "checker runs are independent; each is a pure function of (configuration, seed)"
)]
pub fn check_configs(
    seeds: impl IntoIterator<Item = u64>,
    steps: usize,
    keep: impl Fn(&Config) -> bool,
) -> Coverage {
    let seeds: Vec<u64> = seeds.into_iter().collect();
    let configs = Config::all().into_iter().filter(keep);
    let runs: Vec<(Config, u64)> = configs
        .flat_map(|c| seeds.iter().map(move |&seed| (c, seed)))
        .collect();
    assert!(!runs.is_empty(), "no configuration was kept");
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut coverage = Coverage::default();
        while let Some(&(config, seed)) = runs.get(next.fetch_add(1, Ordering::Relaxed)) {
            coverage.absorb(check(config, seed, steps));
        }
        coverage
    };
    std::thread::scope(|s| {
        let other = s.spawn(worker);
        let mut coverage = worker();
        coverage.absorb(other.join().expect("a checker run failed"));
        coverage
    })
}

/// Asserts that a router refuses a pattern-serving `config` — built
/// fresh, with a log, or recovered from one — with
/// [`StoreError::PatternsUnsupported`].
pub fn assert_refused(config: Config) {
    let g = random_graph(&mut StdRng::seed_from_u64(0), 22, false);
    let (store_config, files) = (config.store_config(1), Files::new());
    for refused in [
        ShardedStore::new(g.clone(), store_config),
        ShardedStore::new_with_log(g, store_config, &files.log),
        ShardedStore::recover_from_log(&files.log, store_config),
    ] {
        let refused = matches!(refused, Err(StoreError::PatternsUnsupported));
        assert!(refused, "{config:?} must be refused");
    }
}

/// The log and snapshot file of one run, removed when the run ends.
struct Files {
    log: PathBuf,
    snapshot: PathBuf,
}

impl Files {
    fn new() -> Files {
        static RUN: AtomicU64 = AtomicU64::new(0);
        let run = (std::process::id(), RUN.fetch_add(1, Ordering::Relaxed));
        let path = |ext| std::env::temp_dir().join(format!("qpgc_check_{run:?}.{ext}"));
        let (log, snapshot) = (path("log"), path("snap"));
        Files { log, snapshot }
    }
}

impl Drop for Files {
    fn drop(&mut self) {
        // A save that faulted leaves the file it wrote aside behind.
        let mut aside = self.snapshot.clone().into_os_string();
        aside.push(".tmp");
        for path in [&self.log, &self.snapshot, Path::new(&aside)] {
            std::fs::remove_file(path).ok();
        }
    }
}

/// What the checker needs of a store beyond [`ReachStore`].
trait Store: ReachStore + Sized {
    fn open(g: LabeledGraph, config: StoreConfig, log: &Path) -> Result<Self, StoreError>;
    fn recover(log: &Path, config: StoreConfig) -> Result<Self, StoreError>;
    /// The cut's snapshots: the store's one, or every shard's in order.
    fn snapshots(cut: &Self::Cut) -> Vec<&Snapshot>;
    fn heap_bytes(cut: &Self::Cut) -> usize;
    /// Snapshot files are the single store's: [`Config::commands`] never
    /// saves or boots a router.
    fn save(&self, path: &Path) -> Result<(), StoreError>;
    fn boot(snapshot: &Path, log: &Path, config: StoreConfig) -> Result<Self, StoreError>;
}

impl Store for CompressedStore {
    fn open(g: LabeledGraph, config: StoreConfig, log: &Path) -> Result<Self, StoreError> {
        Self::new_with_log(g, config, log)
    }
    fn recover(log: &Path, config: StoreConfig) -> Result<Self, StoreError> {
        Self::recover_from_log(log, config)
    }
    fn snapshots(cut: &Snapshot) -> Vec<&Snapshot> {
        vec![cut]
    }
    fn heap_bytes(cut: &Snapshot) -> usize {
        cut.heap_bytes()
    }
    fn save(&self, path: &Path) -> Result<(), StoreError> {
        self.save_snapshot(path)
    }
    fn boot(snapshot: &Path, log: &Path, config: StoreConfig) -> Result<Self, StoreError> {
        Self::boot_from_snapshot(snapshot, log, config)
    }
}

impl Store for ShardedStore {
    fn open(g: LabeledGraph, config: StoreConfig, log: &Path) -> Result<Self, StoreError> {
        Self::new_with_log(g, config, log)
    }
    fn recover(log: &Path, config: StoreConfig) -> Result<Self, StoreError> {
        Self::recover_from_log(log, config)
    }
    fn snapshots(cut: &Self::Cut) -> Vec<&Snapshot> {
        cut.shard_snapshots().iter().map(|s| &**s).collect()
    }
    fn heap_bytes(cut: &Self::Cut) -> usize {
        cut.heap_bytes()
    }
    fn save(&self, _: &Path) -> Result<(), StoreError> {
        unreachable!("a router has no snapshot files")
    }
    fn boot(_: &Path, _: &Path, _: StoreConfig) -> Result<Self, StoreError> {
        unreachable!("a router has no snapshot files")
    }
}

fn pairs(g: &LabeledGraph) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
    g.nodes().flat_map(move |u| g.nodes().map(move |w| (u, w)))
}

struct Checker<S> {
    config: Config,
    store_config: StoreConfig,
    ctx: String,
    rng: StdRng,
    dag: bool,
    /// The model: the graph, the version the store must report, and BFS
    /// over all pairs (`reach[u * n + w]`).
    graph: LabeledGraph,
    version: u64,
    reach: Vec<bool>,
    files: Files,
    store: Option<S>,
    /// A batch whose record is complete in the log but past its committed
    /// end, left by a fault after the write: replay includes it, the next
    /// append truncates it.
    orphan: Option<UpdateBatch>,
    verify: bool,
    coverage: Coverage,
    hashes: Vec<u64>,
}

impl<S: Store> Checker<S> {
    /// The run at `threads = 1` verifies every command; a replay only
    /// records the state hashes.
    fn run(config: Config, seed: u64, threads: usize, script: &[Command]) -> (Coverage, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dag = seed % 2 == 1;
        let graph = random_graph(&mut rng, 22, dag);
        let mut c = Checker::<S> {
            config,
            store_config: config.store_config(threads),
            ctx: format!("{config:?} seed {seed}"),
            rng,
            dag,
            graph,
            version: 0,
            reach: Vec::new(),
            files: Files::new(),
            store: None,
            orphan: None,
            verify: threads == 1,
            coverage: Coverage::default(),
            hashes: Vec::new(),
        };
        c.coverage.shapes[dag as usize] = 1;
        c.advance(None);
        c.rebase();
        c.after("initial cut", None);
        for (i, &cmd) in script.iter().enumerate() {
            c.step(i, cmd);
        }
        (c.coverage, c.hashes)
    }

    fn store(&self) -> &S {
        self.store.as_ref().expect("a store is open")
    }

    /// Applies `batch` to the model (`None` only recomputes the oracle).
    fn advance(&mut self, batch: Option<&UpdateBatch>) {
        if let Some(batch) = batch {
            batch.apply_to(&mut self.graph);
            self.version += 1;
        }
        let g = &self.graph;
        self.reach = pairs(g).map(|(u, w)| bfs_reachable(g, u, w)).collect();
    }

    /// Opens a fresh logged store over the model graph at version 0, with
    /// no snapshot file saved.
    fn rebase(&mut self) {
        self.store = None;
        std::fs::remove_file(&self.files.snapshot).ok();
        let g = self.graph.clone();
        self.store = Some(S::open(g, self.store_config, &self.files.log).unwrap());
        (self.version, self.orphan) = (0, None);
    }

    fn step(&mut self, i: usize, cmd: Command) {
        let ctx = format!("{} command {i} ({cmd:?})", self.ctx);
        let before = self.store().load();
        let n = self.graph.node_count();
        match cmd {
            Command::Mixed
            | Command::Implied
            | Command::Deletes
            | Command::Neutral
            | Command::Noop => {
                let batch = self.draw_batch(cmd);
                let path = self.apply(&batch, &ctx).path;
                assert!(
                    cmd != Command::Noop || path == ApplyPath::Republished,
                    "{ctx}"
                );
            }
            Command::OutOfRange | Command::Conflict => {
                let (u, w) = self.draw_pair();
                let mut batch = random_batch(&mut self.rng, n, 2, 0.6, self.dag);
                let (node, node_count) = (NodeId(n as u32 + w.0 % 3), n);
                let (batch, expected) = match cmd {
                    Command::OutOfRange => (
                        batch.insert(u, node),
                        BatchError::NodeOutOfBounds { node, node_count },
                    ),
                    _ => (
                        batch.insert(u, w).delete(u, w),
                        BatchError::ConflictingUpdates { from: u, to: w },
                    ),
                };
                match self.store().try_apply(batch) {
                    Err(StoreError::InvalidBatch(e)) => assert_eq!(e, expected, "{ctx}"),
                    other => panic!("{ctx}: not rejected by validation: {other:?}"),
                }
            }
            Command::Save => {
                self.store().save(&self.files.snapshot).unwrap();
                if self.verify {
                    let loaded = load_snapshot(&self.files.snapshot).unwrap();
                    assert_eq!(loaded.check_invariants(), Ok(()), "{ctx}: loaded file");
                    assert_eq!(loaded.version(), self.version, "{ctx}: loaded file");
                    self.assert_answers(&loaded, &format!("{ctx}: loaded file"));
                }
            }
            Command::Boot | Command::Recover => {
                if cmd == Command::Boot && !self.files.snapshot.exists() {
                    self.store().save(&self.files.snapshot).unwrap();
                }
                self.store = None;
                let (files, config) = (&self.files, self.store_config);
                let store = match cmd {
                    Command::Boot => S::boot(&files.snapshot, &files.log, config),
                    _ => S::recover(&files.log, config),
                };
                self.store = Some(store.unwrap_or_else(|e| panic!("{ctx}: {e}")));
                // The log holds every committed batch and the orphan.
                if let Some(orphan) = self.orphan.take() {
                    self.advance(Some(&orphan));
                }
            }
            Command::Point if self.verify => {
                for (i, (u, w)) in pairs(&self.graph).enumerate() {
                    assert_eq!(self.store().reachable(u, w), self.reach[i], "{ctx} {u} {w}");
                }
            }
            Command::Bulk if self.verify => {
                let queries: Vec<_> = pairs(&self.graph).collect();
                let cut = self.store().load();
                for (got, how) in [
                    (self.store().bulk_reachable(&queries), "through the store"),
                    (bulk_reachable(&cut, &queries, 1), "at 1 thread"),
                    (bulk_reachable(&cut, &queries, 2), "at 2 threads"),
                ] {
                    assert_eq!(got, self.reach, "{ctx}: bulk answers {how}");
                }
            }
            Command::Pattern if self.verify => {
                let cut = self.store().load();
                for (qi, q) in pattern_queries().iter().enumerate() {
                    let got = S::snapshots(&cut)[0].match_pattern(q);
                    let ctx = format!("{ctx}: pattern {qi}");
                    assert_same_answer(&bounded_match(&self.graph, q), &got, &ctx);
                }
            }
            Command::Point | Command::Bulk | Command::Pattern => {}
            // A save that faults before its rename leaves the file as it
            // was: the one saved last, byte for byte, or none.
            #[cfg(feature = "failpoints")]
            Command::Fault { site, hit } if site.starts_with("persist/") => {
                let path = &self.files.snapshot;
                let before = std::fs::read(path).ok();
                let saved = {
                    let _armed =
                        qpgc_fault::install(qpgc_fault::FaultPlan::new().fail_at(site, hit));
                    let save = std::panic::AssertUnwindSafe(|| self.store().save(path));
                    std::panic::catch_unwind(save)
                };
                let cause = saved.expect_err(&ctx);
                let cause = cause.downcast_ref::<String>().map_or("", String::as_str);
                assert!(cause.contains(site), "{ctx}: {cause}");
                assert!(
                    std::fs::read(path).ok() == before,
                    "{ctx}: the file changed"
                );
                if before.is_some() {
                    load_snapshot(path).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                }
            }
            #[cfg(feature = "failpoints")]
            Command::Fault { site, hit } => {
                let batch = self.draw_batch(Command::Neutral);
                let err = {
                    let _armed =
                        qpgc_fault::install(qpgc_fault::FaultPlan::new().fail_at(site, hit));
                    self.store().try_apply(&batch)
                }
                .expect_err(&ctx);
                assert!(err.to_string().contains(site), "{ctx}: {err}");
                let per_shard = !(site.starts_with("sharded/") || site.starts_with("log/"));
                match (self.config.shards, &err) {
                    (None, StoreError::WriterFailed { .. }) => {}
                    (Some(_), StoreError::ShardFailed { shard, .. }) => {
                        let expected = per_shard.then(|| hit as usize - 1);
                        let expected = expected.unwrap_or(StoreError::ROUTER);
                        assert_eq!(*shard, expected, "{ctx}: failing shard");
                    }
                    _ => panic!("{ctx}: unexpected error {err:?}"),
                }
                // A fault after the record was written leaves it in the
                // log; a torn write truncated whatever was there first.
                match site {
                    "log/append" => self.orphan = Some(batch),
                    "log/append_torn" => self.orphan = None,
                    _ => {}
                }
            }
        }
        self.coverage.kinds.insert(discriminant(&cmd));
        use Command::{Boot, Deletes, Implied, Mixed, Neutral, Noop, Recover};
        let changes = matches!(
            cmd,
            Mixed | Implied | Deletes | Neutral | Noop | Boot | Recover
        );
        self.after(&ctx, (!changes).then_some(before));
        // A recovered or booted store writes no log: carry on with a fresh
        // logged one.
        if matches!(cmd, Command::Boot | Command::Recover) {
            self.rebase();
        }
    }

    /// Applies a valid batch to the store and the model.
    fn apply(&mut self, batch: &UpdateBatch, ctx: &str) -> ApplyReport {
        let report = self.store().try_apply(batch);
        let report = report.unwrap_or_else(|e| panic!("{ctx}: {e}"));
        self.orphan = None;
        self.advance(Some(batch));
        self.coverage.pruned += report.reach.redundant_dropped;
        let shards = self.config.shards.unwrap_or(0);
        assert_eq!(report.version, self.version, "{ctx}");
        assert_eq!(report.shards.len(), shards, "{ctx}");
        assert_eq!(report.pattern.is_some(), self.config.patterns, "{ctx}");
        match report.path {
            ApplyPath::Republished => self.coverage.republished += 1,
            ApplyPath::Rebuilt { pattern_churn, .. } => {
                assert!(self.config.patterns || pattern_churn.is_none(), "{ctx}");
                self.coverage.rebuilt += 1;
                self.coverage.views_built += pattern_churn.is_some() as usize;
            }
            ApplyPath::Patched { .. } => panic!("{ctx}: a publication was patched"),
        }
        report
    }

    fn draw_pair(&mut self) -> (NodeId, NodeId) {
        let n = self.graph.node_count();
        let u = self.rng.gen_range(0..n) as u32;
        (NodeId(u), NodeId(self.rng.gen_range(0..n) as u32))
    }

    fn draw_batch(&mut self, mix: Command) -> UpdateBatch {
        let (n, dag) = (self.graph.node_count(), self.dag);
        let count: usize = self.rng.gen_range(1..5);
        let g = &self.graph;
        match mix {
            // Re-inserts an edge the graph has, or deletes one it lacks.
            Command::Noop => match g.edges().next() {
                Some((u, w)) => UpdateBatch::from_updates(vec![Update::Insert(u, w)]),
                None => UpdateBatch::from_updates(vec![Update::Delete(NodeId(0), NodeId(1))]),
            },
            Command::Implied => {
                let implied: Vec<_> = pairs(g)
                    .zip(&self.reach)
                    .filter(|&((u, w), &r)| r && u != w && !g.has_edge(u, w))
                    .collect();
                let mut batch = random_batch(&mut self.rng, n, count - 1, 1.0, dag);
                if !implied.is_empty() {
                    let ((u, w), _) = implied[self.rng.gen_range(0..implied.len())];
                    batch.insert(u, w);
                }
                batch
            }
            Command::Neutral => {
                // Neutral for the maintainer that holds the edge: the
                // store's, or its shard's, over the shard's edges alone.
                let parts = match self.config.shards {
                    None => vec![g.clone()],
                    Some(shards) => split_graph(g, &NodePartition::new(shards)).0,
                };
                let (mut implied, mut off) = (Vec::new(), Vec::new());
                for h in &parts {
                    let r = compress_r(h);
                    let class = |v: NodeId| NodeId(r.partition.class_of(v));
                    let kept: HashSet<(NodeId, NodeId)> = r.graph.edges().collect();
                    off.extend(h.edges().filter(|&(u, w)| {
                        let class_edge = (class(u), class(w));
                        class_edge.0 != class_edge.1 && !kept.contains(&class_edge)
                    }));
                    let missing = |&(u, w): &(NodeId, NodeId)| u != w && !h.has_edge(u, w);
                    implied.extend(
                        pairs(h)
                            .filter(missing)
                            .filter(|&(u, w)| bfs_reachable(h, u, w)),
                    );
                }
                let edges: Vec<_> = g.edges().collect();
                let mut batch = UpdateBatch::new();
                for (pick, insert) in [(&implied, true), (&off, false), (&edges, false)] {
                    if !pick.is_empty() {
                        let (u, w) = pick[self.rng.gen_range(0..pick.len())];
                        if insert {
                            batch.insert(u, w);
                        } else {
                            batch.delete(u, w);
                        }
                    }
                }
                batch
            }
            Command::Deletes => {
                let edges: Vec<_> = g.edges().collect();
                let mut batch = UpdateBatch::new();
                for _ in 0..count.min(edges.len()) {
                    let (u, w) = edges[self.rng.gen_range(0..edges.len())];
                    batch.delete(u, w);
                }
                let (u, w) = self.draw_pair();
                let free = !self.graph.has_edge(u, w) && (!dag || u < w);
                if self.rng.gen_bool(0.3) && free {
                    batch.insert(u, w);
                }
                batch
            }
            _ => random_batch(&mut self.rng, n, count, 0.6, dag),
        }
    }

    /// Verifies the served cut against the model (`before` is the cut a
    /// command that changes nothing must have left served) and records its
    /// hash: quotient edges, `class_of`, the 2-hop landmark order and the
    /// pattern view of every served snapshot, the version and `heap_bytes`.
    fn after(&mut self, ctx: &str, before: Option<Arc<S::Cut>>) {
        let cut = self.store().load();
        if let Some(before) = before {
            assert!(Arc::ptr_eq(&before, &cut), "{ctx}: the cut changed");
        }
        if self.verify {
            self.verify_cut(&cut, ctx);
        }
        let mut h = DefaultHasher::new();
        (cut.version(), S::heap_bytes(&cut)).hash(&mut h);
        for snap in S::snapshots(&cut) {
            let nodes = (0..snap.node_count() as u32).map(NodeId);
            let gr = snap.quotient().to_plain_arc();
            gr.edges().for_each(|e| e.hash(&mut h));
            nodes.clone().for_each(|v| snap.class_of(v).hash(&mut h));
            (snap.two_hop())
                .map(|idx| (idx.ranks(), idx.label_entries()))
                .hash(&mut h);
            if let Some(view) = snap.pattern_view() {
                view.graph().edges().for_each(|e| e.hash(&mut h));
                view.graph().labels().hash(&mut h);
                nodes.for_each(|v| view.class_of(v).hash(&mut h));
            }
        }
        self.hashes.push(h.finish());
    }

    fn verify_cut(&self, cut: &S::Cut, ctx: &str) {
        let (config, g) = (&self.config, &self.graph);
        assert_eq!(cut.version(), self.version, "{ctx}: watermark");
        let class_counts: Vec<usize> = match config.shards {
            None => vec![compress_r(g).class_count()],
            Some(shards) => split_graph(g, &NodePartition::new(shards))
                .0
                .iter()
                .map(|s| compress_r(s).class_count())
                .collect(),
        };
        let pattern_classes = config.patterns.then(|| compress_b(g).class_count());
        let snapshots = S::snapshots(cut);
        assert_eq!(snapshots.len(), class_counts.len(), "{ctx}: shards");
        let plain = config.format == SnapshotFormat::Plain;
        for (s, (snap, classes)) in snapshots.into_iter().zip(class_counts).enumerate() {
            let ctx = format!("{ctx}, snapshot {s}");
            assert_eq!(snap.check_invariants(), Ok(()), "{ctx}");
            assert_eq!(snap.version(), self.version, "{ctx}: version");
            assert_eq!(snap.class_count(), classes, "{ctx}: compress_r");
            let view_classes = snap.pattern_view().map(|v| v.class_count());
            assert_eq!(view_classes, pattern_classes, "{ctx}: compress_b");
            let (gr, two_hop) = (snap.quotient(), snap.two_hop());
            assert_eq!(gr.as_plain().is_some(), plain, "{ctx}: backend");
            assert_eq!(two_hop.is_some(), config.two_hop, "{ctx}: 2-hop index");
            if let Some(served) = two_hop {
                let built = TwoHopIndex::build_with(&*gr.to_plain_arc(), &Default::default());
                assert!(*served == built, "{ctx}: 2-hop index is not build_with's");
            }
        }
        self.assert_answers(cut, ctx);
    }

    fn assert_answers(&self, cut: &impl ReachCut, ctx: &str) {
        for (i, (u, w)) in pairs(&self.graph).enumerate() {
            assert_eq!(cut.reachable(u, w), self.reach[i], "{ctx}: ({u},{w})");
        }
    }
}
