//! Recovery is one compression. `Gr = R(G)` is a function of `G` alone,
//! so a store rebuilt from its update log serves exactly the cut a fresh
//! store builds from the log's final graph, at the log's version, however
//! long the history that led there.

use qpgc_generators::datasets::REACHABILITY_DATASETS;
use qpgc_generators::updates::local_batch;
use qpgc_graph::{LabeledGraph, NodeId, UpdateBatch};
use qpgc_serve::{
    ApplyPath, CompressedStore, ReachCut, ReachStore, ShardedStore, Snapshot, StoreConfig,
    StoreError, UpdateLog,
};
use qpgc_tests::Config;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Class-changing batches each logged stream holds at least.
const CHANGING: usize = 20;

/// Per served snapshot: the node index, `Gr`'s edges, the 2-hop ranks and
/// the pattern view's node index.
type Parts = (
    Vec<Option<u32>>,
    Vec<(NodeId, NodeId)>,
    Option<Vec<u32>>,
    Option<Vec<Option<u32>>>,
);

/// What a cut serves, its version aside: each snapshot's [`Parts`] and the
/// cut's heap bytes.
type Content = (Vec<Parts>, usize);

fn parts(s: &Snapshot) -> Parts {
    let nodes = || (0..s.node_count() as u32).map(NodeId);
    (
        nodes().map(|v| s.class_of(v)).collect(),
        s.quotient().to_plain_arc().edges().collect(),
        s.two_hop().map(|idx| idx.ranks().to_vec()),
        s.pattern_view()
            .map(|view| nodes().map(|v| view.class_of(v)).collect()),
    )
}

/// The two stores, as this suite opens, recovers and reads them.
trait Store: ReachStore + Sized {
    fn open(g: LabeledGraph, config: StoreConfig, log: Option<&Path>) -> Self;
    fn recover(log: &Path, config: StoreConfig) -> Result<Self, StoreError>;
    fn content(&self) -> Content;
}

impl Store for CompressedStore {
    fn open(g: LabeledGraph, config: StoreConfig, log: Option<&Path>) -> Self {
        match log {
            Some(log) => Self::new_with_log(g, config, log).unwrap(),
            None => Self::new(g, config),
        }
    }
    fn recover(log: &Path, config: StoreConfig) -> Result<Self, StoreError> {
        Self::recover_from_log(log, config)
    }
    fn content(&self) -> Content {
        let snap = self.load();
        (vec![parts(&snap)], snap.heap_bytes())
    }
}

impl Store for ShardedStore {
    fn open(g: LabeledGraph, config: StoreConfig, log: Option<&Path>) -> Self {
        match log {
            Some(log) => Self::new_with_log(g, config, log).unwrap(),
            None => Self::new(g, config).unwrap(),
        }
    }
    fn recover(log: &Path, config: StoreConfig) -> Result<Self, StoreError> {
        Self::recover_from_log(log, config)
    }
    fn content(&self) -> Content {
        let cut = self.load();
        let shards = cut.shard_snapshots().iter().map(|s| parts(s)).collect();
        (shards, cut.heap_bytes())
    }
}

/// Logs a seeded stream of cone-local batches until `CHANGING` of them
/// changed the served classes, then recovers the log twice: as it is, and
/// as a second log that reaches the same graph in one batch of the net
/// edge difference. Both recoveries must serve what a fresh store over the
/// final graph serves, and answer like the store that wrote the log.
fn recovery_is_one_compression<S: Store>(config: Config, g0: &LabeledGraph, dir: &Path) {
    let ctx = format!("{config:?}");
    let config = config.store_config(1);
    let (log, net_log) = (dir.join("stream.log"), dir.join("net.log"));
    let live = S::open(g0.clone(), config, Some(&log));
    let mut g = g0.clone();
    let (mut batches, mut changing) = (0u64, 0);
    while changing < CHANGING {
        assert!(
            batches < 4 * CHANGING as u64,
            "{ctx}: too few batches change a class"
        );
        let batch = local_batch(&g, 10, 8, batches);
        let report = live.try_apply(&batch).unwrap();
        changing += matches!(report.path, ApplyPath::Rebuilt { churn, .. } if churn > 0.0) as usize;
        batch.apply_to(&mut g);
        batches += 1;
    }
    let fresh = S::open(g.clone(), config, None).content();

    let recovered = S::recover(&log, config).unwrap();
    assert_eq!(recovered.watermark(), batches, "{ctx}: version");
    assert!(
        recovered.content() == fresh,
        "{ctx}: not the final graph's cut"
    );
    let mut rng = StdRng::seed_from_u64(batches);
    let n = g.node_count() as u32;
    let (got, want) = (recovered.load(), live.load());
    for _ in 0..2000 {
        let (u, w) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
        let ctx = format!("{ctx}: ({u},{w})");
        assert_eq!(got.reachable(u, w), want.reachable(u, w), "{ctx}");
    }

    let mut net = UpdateBatch::new();
    for (u, w) in g0.edges().filter(|&(u, w)| !g.has_edge(u, w)) {
        net.delete(u, w);
    }
    for (u, w) in g.edges().filter(|&(u, w)| !g0.has_edge(u, w)) {
        net.insert(u, w);
    }
    let mut writer = UpdateLog::create(&net_log, g0).unwrap();
    writer.append(&net).unwrap();
    drop(writer);
    let other = S::recover(&net_log, config).unwrap();
    assert_eq!(other.watermark(), 1, "{ctx}: net log version");
    assert!(
        other.content() == fresh,
        "{ctx}: another history, another cut"
    );
}

#[test]
fn recovery_serves_the_final_graphs_compression() {
    let spec = REACHABILITY_DATASETS.iter().find(|s| s.name == "wikiTalk");
    let g0 = spec.expect("Table-1 emulation present").generate(6000, 1);
    let dir = std::env::temp_dir().join(format!("qpgc_recovery_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for config in Config::all() {
        match config.shards {
            None => recovery_is_one_compression::<CompressedStore>(config, &g0, &dir),
            Some(_) => recovery_is_one_compression::<ShardedStore>(config, &g0, &dir),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
