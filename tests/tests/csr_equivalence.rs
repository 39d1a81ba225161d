//! Property tests for the CSR snapshot representation: on 100+ seeded
//! random graphs, `CsrGraph` must round-trip `LabeledGraph` exactly (nodes,
//! edges, labels, degrees), and every analysis that was migrated to CSR —
//! bisimulation, reachability equivalence, simulation — must produce results
//! identical to the label-seeded reference or to the same analysis run on
//! the mutable graph.

use qpgc_generators::datasets::REACHABILITY_DATASETS;
use qpgc_generators::pattern_gen::{random_pattern, PatternGenConfig};
use qpgc_generators::synthetic::{random_graph, SyntheticConfig};
use qpgc_graph::{GraphView, LabeledGraph, NodeId};
use qpgc_pattern::bisim::{bisimulation_partition_csr, reference_bisimulation};
use qpgc_pattern::bounded::bounded_match;
use qpgc_pattern::pattern::assert_same_answer;
use qpgc_reach::equivalence::reachability_partition;
use qpgc_tests::{canonical, compressed_classes};

/// The seeded graph population: 100+ graphs sweeping size, density and
/// label-alphabet width.
fn population() -> Vec<LabeledGraph> {
    let mut graphs = Vec::new();
    for seed in 0..108u64 {
        let nodes = 2 + (seed as usize * 7) % 60;
        let edges = (nodes * (1 + seed as usize % 4)) / 2 + 1;
        let labels = 1 + (seed as usize) % 4;
        graphs.push(random_graph(&SyntheticConfig::new(
            nodes, edges, labels, seed,
        )));
    }
    // A few denser / larger outliers.
    for seed in 200..204u64 {
        graphs.push(random_graph(&SyntheticConfig::new(300, 1500, 3, seed)));
    }
    graphs
}

fn sorted(xs: &[NodeId]) -> Vec<NodeId> {
    let mut v = xs.to_vec();
    v.sort_unstable();
    v
}

#[test]
fn csr_roundtrips_labeled_graph() {
    for (i, g) in population().iter().enumerate() {
        let csr = g.freeze();
        assert_eq!(csr.node_count(), g.node_count(), "graph {i}: node count");
        assert_eq!(csr.edge_count(), g.edge_count(), "graph {i}: edge count");
        for v in g.nodes() {
            assert_eq!(csr.label(v), g.label(v), "graph {i}: label of {v}");
            assert_eq!(
                csr.label_name(v),
                g.label_name(v),
                "graph {i}: label name of {v}"
            );
            assert_eq!(
                csr.out_degree(v),
                g.out_degree(v),
                "graph {i}: out-degree of {v}"
            );
            assert_eq!(
                csr.in_degree(v),
                g.in_degree(v),
                "graph {i}: in-degree of {v}"
            );
            assert_eq!(
                csr.out_neighbors(v),
                sorted(g.out_neighbors(v)),
                "graph {i}: out-adjacency of {v}"
            );
            assert_eq!(
                csr.in_neighbors(v),
                sorted(g.in_neighbors(v)),
                "graph {i}: in-adjacency of {v}"
            );
        }
        // The snapshot never uses more heap than the mutable representation.
        assert!(
            csr.heap_bytes() <= g.heap_bytes(),
            "graph {i}: csr {} > labeled {}",
            csr.heap_bytes(),
            g.heap_bytes()
        );
    }
    // On every Table-1 emulation the snapshot is strictly smaller.
    for spec in REACHABILITY_DATASETS {
        let g = spec.generate(400, 0);
        let csr = g.freeze();
        assert!(
            csr.heap_bytes() < g.heap_bytes(),
            "{}: csr {} >= labeled {}",
            spec.name,
            csr.heap_bytes(),
            g.heap_bytes()
        );
    }
}

#[test]
fn bisimulation_on_csr_matches_seed_implementation() {
    for (i, g) in population().iter().enumerate() {
        let fast = bisimulation_partition_csr(&g.freeze());
        let seed_impl = reference_bisimulation(g);
        assert_eq!(
            canonical(&fast.class_of),
            canonical(&seed_impl.class_of),
            "graph {i}: bisimulation partitions differ"
        );
    }
}

#[test]
fn reachability_partition_on_csr_matches_seed_implementation() {
    for (i, g) in population().iter().enumerate() {
        let on_csr = reachability_partition(&g.freeze());
        let on_labeled = reachability_partition(g);
        assert_eq!(
            canonical(&on_csr.class_of),
            canonical(&on_labeled.class_of),
            "graph {i}: reachability partitions differ"
        );
        // The cyclic flags must agree class-for-class; compare through the
        // node-level view since class numbering may differ.
        for v in g.nodes() {
            assert_eq!(
                on_csr.payload[on_csr.class_of(v) as usize],
                on_labeled.payload[on_labeled.class_of(v) as usize],
                "graph {i}: cyclic flag of {v}"
            );
        }
    }
}

#[test]
fn simulation_on_csr_matches_seed_implementation() {
    for (i, g) in population().iter().enumerate() {
        // Every bound 1: graph simulation, the bound-1 case of `Match`.
        let pattern = random_pattern(g, &PatternGenConfig::new(2 + i % 3, 2 + i % 4, 1, i as u64));
        assert_same_answer(
            &bounded_match(g, &pattern),
            &bounded_match(&g.freeze(), &pattern),
            &format!("graph {i}: simulation on csr"),
        );
    }
}

#[test]
fn compressions_built_from_csr_match_seed_built() {
    use qpgc_pattern::compress::compress_b;
    use qpgc_reach::compress::compress_r;
    for (i, g) in population().iter().take(40).enumerate() {
        // `compressB` freezes `g` itself: its classes and `|Gr|` are the
        // seed implementation's partition and that partition's quotient.
        let rb = compress_b(g);
        let seed_impl = reference_bisimulation(g);
        assert_eq!(
            compressed_classes(g),
            canonical(&seed_impl.class_of),
            "graph {i}: compressB partitions differ"
        );
        let mut class_edges: Vec<(u32, u32)> = g
            .edges()
            .map(|(u, v)| (seed_impl.class_of(u), seed_impl.class_of(v)))
            .collect();
        class_edges.sort_unstable();
        class_edges.dedup();
        assert_eq!(
            rb.graph().size(),
            seed_impl.class_count() + class_edges.len()
        );
        let csr = g.freeze();
        let rr = compress_r(g);
        let rr_csr = compress_r(&csr);
        assert_eq!(
            canonical(&rr.partition.class_of),
            canonical(&rr_csr.partition.class_of),
            "graph {i}: compressR partitions differ"
        );
        assert_eq!(rr.graph.size(), rr_csr.graph.size());
    }
}
