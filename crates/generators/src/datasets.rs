//! Emulators for the real-life datasets of the paper's evaluation.
//!
//! Section 6 evaluates reachability compression on ten graphs (Table 1) and
//! pattern compression on five labeled graphs (Table 2). The originals are
//! SNAP / CAIDA / ArnetMiner downloads; this module regenerates stand-ins
//! with the same topology class, the same label alphabet size and the same
//! edge density, scaled down by `scale` so the full reproduction run
//! finishes in minutes on a laptop. Absolute sizes and times therefore
//! differ from the paper's; what the emulations are built to carry over are
//! the relative quantities it reports (compression ratios, query-time
//! reductions, crossover points), which follow the topology class and the
//! label alphabet rather than the node count.

use qpgc_graph::LabeledGraph;

use crate::synthetic::{citation_graph, power_law_graph, random_graph, web_graph, SyntheticConfig};

/// The topology family a dataset belongs to, which decides the generator
/// used to emulate it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetKind {
    /// Online social network (power-law, reciprocal edges, dense core).
    Social,
    /// Web / internet topology graph (hierarchical hosts, bow-tie core).
    Web,
    /// Citation network (time-ordered, near-DAG).
    Citation,
    /// Peer-to-peer overlay (sparse, mildly skewed).
    PeerToPeer,
}

/// Description of one emulated dataset.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Dataset name as used in the paper's tables.
    pub name: &'static str,
    /// Node count of the original dataset.
    pub original_nodes: usize,
    /// Edge count of the original dataset.
    pub original_edges: usize,
    /// Label alphabet size used in the paper (1 when unlabeled).
    pub labels: usize,
    /// Topology family.
    pub kind: DatasetKind,
}

impl DatasetSpec {
    /// Generates the emulated graph at `1/scale` of the original size.
    /// `scale = 1` reproduces the original node/edge counts.
    ///
    /// The label alphabet is scaled with the node count so that the
    /// *nodes-per-label* ratio of the original is preserved (a 100-node
    /// stand-in for a 10 000-node graph with 95 labels keeps ≈ 2 labels,
    /// not 95) — this is what keeps the pattern-compression ratios at small
    /// scale comparable to the paper's full-scale numbers.
    pub fn generate(&self, scale: usize, seed: u64) -> LabeledGraph {
        let scale = scale.max(1);
        let nodes = (self.original_nodes / scale).max(50);
        let edges = (self.original_edges / scale).max(nodes);
        let labels = if self.labels <= 1 {
            1
        } else {
            self.labels
                .min((nodes * self.labels / self.original_nodes).max(2))
        };
        let cfg = SyntheticConfig::new(nodes, edges, labels, seed ^ fxhash(self.name));
        match self.kind {
            DatasetKind::Social => power_law_graph(&cfg),
            DatasetKind::Web => web_graph(&cfg),
            DatasetKind::Citation => citation_graph(&cfg),
            DatasetKind::PeerToPeer => random_graph(&cfg),
        }
    }
}

/// Tiny deterministic string hash so each dataset gets its own seed stream.
fn fxhash(s: &str) -> u64 {
    s.bytes().fold(0xcbf29ce484222325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// The ten datasets of Table 1 (reachability preserving compression).
pub const REACHABILITY_DATASETS: &[DatasetSpec] = &[
    DatasetSpec {
        name: "facebook",
        original_nodes: 64_000,
        original_edges: 1_500_000,
        labels: 1,
        kind: DatasetKind::Social,
    },
    DatasetSpec {
        name: "amazon",
        original_nodes: 262_000,
        original_edges: 1_200_000,
        labels: 1,
        kind: DatasetKind::Social,
    },
    DatasetSpec {
        name: "Youtube",
        original_nodes: 155_000,
        original_edges: 796_000,
        labels: 1,
        kind: DatasetKind::Social,
    },
    DatasetSpec {
        name: "wikiVote",
        original_nodes: 7_000,
        original_edges: 104_000,
        labels: 1,
        kind: DatasetKind::Social,
    },
    DatasetSpec {
        name: "wikiTalk",
        original_nodes: 2_400_000,
        original_edges: 5_000_000,
        labels: 1,
        kind: DatasetKind::Social,
    },
    DatasetSpec {
        name: "socEpinions",
        original_nodes: 76_000,
        original_edges: 509_000,
        labels: 1,
        kind: DatasetKind::Social,
    },
    DatasetSpec {
        name: "NotreDame",
        original_nodes: 326_000,
        original_edges: 1_500_000,
        labels: 1,
        kind: DatasetKind::Web,
    },
    DatasetSpec {
        name: "P2P",
        original_nodes: 6_000,
        original_edges: 21_000,
        labels: 1,
        kind: DatasetKind::PeerToPeer,
    },
    DatasetSpec {
        name: "Internet",
        original_nodes: 52_000,
        original_edges: 103_000,
        labels: 247,
        kind: DatasetKind::Web,
    },
    DatasetSpec {
        name: "citHepTh",
        original_nodes: 28_000,
        original_edges: 353_000,
        labels: 1,
        kind: DatasetKind::Citation,
    },
];

/// The six datasets the paper's Fig. 12(d) plots 2-hop index memory for —
/// one list shared by the experiment and its tests so they cannot drift
/// apart.
pub const FIG12D_DATASETS: &[&str] = &[
    "P2P",
    "wikiVote",
    "citHepTh",
    "socEpinions",
    "facebook",
    "NotreDame",
];

/// The five labeled datasets of Table 2 (pattern preserving compression).
pub const PATTERN_DATASETS: &[DatasetSpec] = &[
    DatasetSpec {
        name: "California",
        original_nodes: 10_000,
        original_edges: 16_000,
        labels: 95,
        kind: DatasetKind::Web,
    },
    DatasetSpec {
        name: "Internet",
        original_nodes: 52_000,
        original_edges: 103_000,
        labels: 247,
        kind: DatasetKind::Web,
    },
    DatasetSpec {
        name: "Youtube",
        original_nodes: 155_000,
        original_edges: 796_000,
        labels: 16,
        kind: DatasetKind::Social,
    },
    DatasetSpec {
        name: "Citation",
        original_nodes: 630_000,
        original_edges: 633_000,
        labels: 67,
        kind: DatasetKind::Citation,
    },
    DatasetSpec {
        name: "P2P",
        original_nodes: 6_000,
        original_edges: 21_000,
        labels: 1,
        kind: DatasetKind::PeerToPeer,
    },
];

/// Looks up a Table 1 dataset by name and generates it.
pub fn dataset(name: &str, scale: usize, seed: u64) -> Option<LabeledGraph> {
    REACHABILITY_DATASETS
        .iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
        .map(|d| d.generate(scale, seed))
}

/// Looks up a Table 2 dataset by name and generates it.
pub fn pattern_dataset(name: &str, scale: usize, seed: u64) -> Option<LabeledGraph> {
    PATTERN_DATASETS
        .iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
        .map(|d| d.generate(scale, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_reachability_datasets_generate() {
        for spec in REACHABILITY_DATASETS {
            let g = spec.generate(100, 0);
            assert!(g.node_count() >= 50, "{} too small", spec.name);
            assert!(g.edge_count() > 0, "{} has no edges", spec.name);
        }
    }

    #[test]
    fn all_pattern_datasets_generate_with_labels() {
        for spec in PATTERN_DATASETS {
            let g = spec.generate(50, 0);
            assert!(g.node_count() >= 50);
            assert!(
                g.label_alphabet_size() <= spec.labels,
                "{}: labels {} > {}",
                spec.name,
                g.label_alphabet_size(),
                spec.labels
            );
        }
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert!(dataset("p2p", 10, 0).is_some());
        assert!(dataset("WIKIVOTE", 100, 0).is_some());
        assert!(dataset("unknown", 10, 0).is_none());
        assert!(pattern_dataset("california", 10, 0).is_some());
    }

    #[test]
    fn density_tracks_the_original() {
        for spec in REACHABILITY_DATASETS
            .iter()
            .filter(|s| s.name != "wikiTalk")
        {
            let g = spec.generate(50, 0);
            let original_density = spec.original_edges as f64 / spec.original_nodes as f64;
            let emulated_density = g.edge_count() as f64 / g.node_count() as f64;
            assert!(
                emulated_density > original_density * 0.4
                    && emulated_density < original_density * 2.5,
                "{}: density {:.2} vs original {:.2}",
                spec.name,
                emulated_density,
                original_density
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = dataset("P2P", 10, 7).unwrap();
        let b = dataset("P2P", 10, 7).unwrap();
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn scale_one_matches_original_size() {
        // Only check the smallest dataset at full scale to keep tests fast.
        let spec = REACHABILITY_DATASETS
            .iter()
            .find(|s| s.name == "P2P")
            .unwrap();
        let g = spec.generate(1, 0);
        assert_eq!(g.node_count(), spec.original_nodes);
    }
}
