//! Synthetic graph generators.
//!
//! The paper's synthetic experiments (Exp-2, Exp-4) use a generator
//! "controlled by three parameters: the number of nodes |V|, the number of
//! edges |E|, and the size |L| of the node label set". [`random_graph`]
//! implements exactly that. The dataset emulators additionally need
//! generators with realistic degree skew and community structure:
//! [`power_law_graph`] (preferential attachment, for social networks),
//! [`web_graph`] (hierarchical hosts with a bow-tie core), and
//! [`citation_graph`] (time-ordered near-DAG).

use std::collections::HashSet;

use qpgc_graph::{LabeledGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Edge accumulator for the generators: O(1) expected duplicate detection
/// while drawing (so the accept/reject decisions — and therefore the RNG
/// stream — are identical to inserting into a graph one edge at a time),
/// followed by one bulk sorted-dedup insert via
/// [`LabeledGraph::extend_edges`]. This keeps dataset construction at
/// `O(m log m)` instead of the `O(m·d)` per-insert duplicate scans of
/// repeated `add_edge` calls.
#[derive(Default)]
struct EdgeAcc {
    seen: HashSet<(u32, u32)>,
}

impl EdgeAcc {
    fn with_capacity(m: usize) -> Self {
        EdgeAcc {
            seen: HashSet::with_capacity(m),
        }
    }

    /// Records the edge; `true` if it was new (same contract as
    /// `LabeledGraph::add_edge`).
    fn insert(&mut self, u: u32, v: u32) -> bool {
        self.seen.insert((u, v))
    }

    fn len(&self) -> usize {
        self.seen.len()
    }

    /// Bulk-inserts everything accumulated into `g`. `extend_edges` sorts
    /// the batch, so the set's iteration order is irrelevant to the result.
    fn apply(self, g: &mut LabeledGraph) {
        g.extend_edges(self.seen.into_iter().map(|(u, v)| (NodeId(u), NodeId(v))));
    }
}

/// Parameters shared by the synthetic generators.
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    /// Number of nodes `|V|`.
    pub nodes: usize,
    /// Target number of edges `|E|`.
    pub edges: usize,
    /// Size of the label alphabet `|L|`.
    pub labels: usize,
    /// RNG seed; the same seed always yields the same graph.
    pub seed: u64,
}

impl SyntheticConfig {
    /// Convenience constructor.
    pub fn new(nodes: usize, edges: usize, labels: usize, seed: u64) -> Self {
        SyntheticConfig {
            nodes,
            edges,
            labels,
            seed,
        }
    }
}

fn label_name(i: usize) -> String {
    format!("L{i}")
}

fn add_labeled_nodes(g: &mut LabeledGraph, n: usize, labels: usize, rng: &mut StdRng) {
    for _ in 0..n {
        let l = if labels <= 1 {
            0
        } else {
            rng.gen_range(0..labels)
        };
        g.add_node_with_label(&label_name(l));
    }
}

/// The paper's plain synthetic generator: `|V|` nodes, `|E|` uniformly
/// random directed edges (without duplicates), `|L|` labels assigned
/// uniformly at random.
pub fn random_graph(cfg: &SyntheticConfig) -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = LabeledGraph::with_capacity(cfg.nodes);
    add_labeled_nodes(&mut g, cfg.nodes, cfg.labels, &mut rng);
    if cfg.nodes == 0 {
        return g;
    }
    let max_edges = cfg.nodes * cfg.nodes;
    let target = cfg.edges.min(max_edges);
    let mut acc = EdgeAcc::with_capacity(target);
    let mut attempts = 0usize;
    while acc.len() < target && attempts < target * 20 {
        let u = rng.gen_range(0..cfg.nodes) as u32;
        let v = rng.gen_range(0..cfg.nodes) as u32;
        acc.insert(u, v);
        attempts += 1;
    }
    acc.apply(&mut g);
    g
}

/// Preferential-attachment digraph with reciprocity — the social-network
/// emulator. Nodes arrive one at a time; most connect `m ≈ |E|/|V|`
/// out-edges to targets drawn proportionally to (in-degree + 1), while a
/// fraction of "lurker" nodes only follow a single hub and never receive
/// links themselves (real social networks are full of such structurally
/// identical accounts — they are what bisimulation collapses). With
/// probability `0.15` a link is reciprocated, giving the dense-core SCC
/// structure that makes social networks highly compressible for
/// reachability (Table 1's observation).
pub fn power_law_graph(cfg: &SyntheticConfig) -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = LabeledGraph::with_capacity(cfg.nodes);
    add_labeled_nodes(&mut g, cfg.nodes, cfg.labels, &mut rng);
    if cfg.nodes <= 1 {
        return g;
    }
    let m = (cfg.edges / cfg.nodes.max(1)).max(1);
    let mut acc = EdgeAcc::with_capacity(cfg.edges);
    // Attachment pool: node ids repeated once per incident edge (+1 baseline).
    let mut pool: Vec<u32> = (0..cfg.nodes as u32).collect();
    for v in 1..cfg.nodes {
        let v = v as u32;
        // ~30% of accounts are lurkers: they follow one popular account and
        // are never linked back to.
        let lurker = rng.gen_bool(0.3);
        let budget = if lurker { 1 } else { m };
        for _ in 0..budget {
            if acc.len() >= cfg.edges {
                break;
            }
            let idx = rng.gen_range(0..pool.len());
            let mut target = pool[idx];
            if target >= v {
                target = rng.gen_range(0..v);
            }
            if acc.insert(v, target) {
                pool.push(target);
            }
            // Reciprocity: some social links are mutual (never for lurkers).
            if !lurker && rng.gen_bool(0.15) && acc.insert(target, v) {
                pool.push(v);
            }
        }
    }
    // Top up to the requested edge count with preferential edges from
    // non-lurker nodes.
    let mut attempts = 0;
    while acc.len() < cfg.edges && attempts < cfg.edges * 10 {
        attempts += 1;
        let v = rng.gen_range(1..cfg.nodes) as u32;
        let target = pool[rng.gen_range(0..pool.len())];
        if target != v && acc.insert(v, target) {
            pool.push(target);
        }
    }
    acc.apply(&mut g);
    g
}

/// Hierarchical web-graph emulator: hosts form a tree of directories, pages
/// link mostly within their host (downward and to the host root) plus a few
/// cross-host links, and a small "core" of hub pages links densely both
/// ways (the bow-tie structure of web graphs).
pub fn web_graph(cfg: &SyntheticConfig) -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = LabeledGraph::with_capacity(cfg.nodes);
    add_labeled_nodes(&mut g, cfg.nodes, cfg.labels, &mut rng);
    if cfg.nodes <= 1 {
        return g;
    }
    let n = cfg.nodes;
    let hosts = (n / 50).max(1);
    let core = (n / 20).max(2).min(n);
    let mut acc = EdgeAcc::with_capacity(cfg.edges);
    // Tree backbone inside each host: node i points to its "parent".
    for i in 1..n {
        let host = i % hosts;
        let parent = if i > hosts { i - hosts } else { host };
        acc.insert(i as u32, parent as u32);
    }
    // Core hub pages link to each other densely.
    for _ in 0..core * 3 {
        let u = rng.gen_range(0..core) as u32;
        let v = rng.gen_range(0..core) as u32;
        acc.insert(u, v);
    }
    // Remaining edges: mostly downward within a host, some cross-host.
    while acc.len() < cfg.edges {
        let u = rng.gen_range(0..n) as u32;
        let v = if rng.gen_bool(0.7) {
            // within-host link
            let host = (u as usize) % hosts;
            let k = (n - host).div_ceil(hosts);
            (host + hosts * rng.gen_range(0..k.max(1))).min(n - 1) as u32
        } else {
            rng.gen_range(0..n) as u32
        };
        acc.insert(u, v);
        if acc.len() + n < cfg.edges && rng.gen_bool(0.05) {
            // occasional backlink to a hub
            let hub = rng.gen_range(0..core) as u32;
            acc.insert(v, hub);
        }
    }
    acc.apply(&mut g);
    g
}

/// Citation-network emulator: node `i` "appears" after node `j < i` and can
/// only cite earlier nodes, with preferential attachment to highly cited
/// papers. The result is a DAG (plus label diversity), matching the low
/// reachability compressibility of citation data in Table 1.
pub fn citation_graph(cfg: &SyntheticConfig) -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = LabeledGraph::with_capacity(cfg.nodes);
    add_labeled_nodes(&mut g, cfg.nodes, cfg.labels, &mut rng);
    if cfg.nodes <= 1 {
        return g;
    }
    let m = (cfg.edges / cfg.nodes.max(1)).max(1);
    let mut acc = EdgeAcc::with_capacity(cfg.edges);
    let mut pool: Vec<u32> = vec![0];
    for v in 1..cfg.nodes {
        for _ in 0..m {
            if acc.len() >= cfg.edges {
                break;
            }
            let cited = if rng.gen_bool(0.8) {
                pool[rng.gen_range(0..pool.len())]
            } else {
                rng.gen_range(0..v) as u32
            };
            let cited = cited.min(v as u32 - 1);
            if acc.insert(v as u32, cited) {
                pool.push(cited);
            }
        }
        pool.push(v as u32);
    }
    acc.apply(&mut g);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpgc_graph::scc::Condensation;

    #[test]
    fn random_graph_matches_parameters() {
        let cfg = SyntheticConfig::new(500, 2000, 10, 1);
        let g = random_graph(&cfg);
        assert_eq!(g.node_count(), 500);
        assert!(g.edge_count() >= 1800, "got {}", g.edge_count());
        assert!(g.label_alphabet_size() <= 10);
        assert!(g.label_alphabet_size() >= 5);
    }

    #[test]
    fn generators_are_deterministic() {
        let cfg = SyntheticConfig::new(200, 800, 5, 42);
        let a = random_graph(&cfg);
        let b = random_graph(&cfg);
        assert_eq!(a.edge_count(), b.edge_count());
        let mut ea: Vec<_> = a.edges().collect();
        let mut eb: Vec<_> = b.edges().collect();
        ea.sort();
        eb.sort();
        assert_eq!(ea, eb);

        let p1 = power_law_graph(&cfg);
        let p2 = power_law_graph(&cfg);
        assert_eq!(
            p1.edges().collect::<Vec<_>>(),
            p2.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_graph(&SyntheticConfig::new(100, 300, 5, 1));
        let b = random_graph(&SyntheticConfig::new(100, 300, 5, 2));
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn power_law_graph_has_degree_skew() {
        let g = power_law_graph(&SyntheticConfig::new(1000, 5000, 8, 7));
        let max_in_degree = g.nodes().map(|v| g.in_degree(v)).max();
        assert!(
            max_in_degree > Some(20),
            "hub expected, got {max_in_degree:?}"
        );
        assert!(g.edge_count() > 2000);
    }

    #[test]
    fn power_law_graph_has_nontrivial_sccs() {
        let g = power_law_graph(&SyntheticConfig::new(500, 3000, 4, 3));
        let cond = Condensation::of(&g);
        assert!(
            cond.component_count() < g.node_count(),
            "reciprocal links should create cycles"
        );
    }

    #[test]
    fn citation_graph_is_acyclic() {
        let g = citation_graph(&SyntheticConfig::new(400, 1500, 20, 9));
        let cond = Condensation::of(&g);
        assert_eq!(cond.component_count(), g.node_count());
        // every edge goes from a later node to an earlier one
        for (u, v) in g.edges() {
            assert!(u.0 > v.0);
        }
    }

    #[test]
    fn web_graph_is_connected_enough() {
        let g = web_graph(&SyntheticConfig::new(600, 2400, 50, 11));
        assert_eq!(g.node_count(), 600);
        assert!(g.edge_count() >= 2400);
        let sources = g.nodes().filter(|&v| g.in_degree(v) == 0).count();
        assert!(sources < 300);
    }

    #[test]
    fn tiny_and_empty_configs() {
        for gen in [random_graph, power_law_graph, web_graph, citation_graph] {
            let g = gen(&SyntheticConfig::new(0, 0, 1, 0));
            assert_eq!(g.node_count(), 0);
            let g = gen(&SyntheticConfig::new(1, 5, 1, 0));
            assert_eq!(g.node_count(), 1);
        }
    }

    #[test]
    fn label_alphabet_is_respected() {
        let g = random_graph(&SyntheticConfig::new(300, 600, 1, 5));
        assert_eq!(g.label_alphabet_size(), 1);
        let g = citation_graph(&SyntheticConfig::new(300, 900, 67, 5));
        assert!(g.label_alphabet_size() <= 67);
        assert!(g.label_alphabet_size() > 30);
    }
}
