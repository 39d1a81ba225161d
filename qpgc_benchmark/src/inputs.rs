//! Seeded input generation: the graph, the pre-generated update stream,
//! the query set and the patterns of one workload.
//!
//! Only the query set depends on `--seed`. Graphs come from the dataset
//! emulators at generator seed 0 and the update stream is generated once
//! against an evolving copy of the graph at fixed per-batch seeds, so every
//! run replays identical batches and the exact metrics (`compression_ratio`,
//! `snapshot_bytes_per_node`, every count) repeat bit for bit across seeds.

use std::time::Instant;

use crate::adapter::{self, LabeledGraph, NodeId, Pattern, UpdateBatch};
use crate::spec::{Sizes, Workload};

/// Base seed of the update stream; batch `i` uses `STREAM_SEED ^ i`.
const STREAM_SEED: u64 = 0x5eed_0000_0000_0b0a;

/// Base seed of the pattern set; pattern `i` uses `PATTERN_SEED ^ i`.
const PATTERN_SEED: u64 = 0x5eed_0000_0000_0a77;

/// Longest forward random walk behind a walk pair.
const WALK_STEPS: usize = 8;

/// SplitMix64: the benchmark's own tiny generator, so its inputs depend on
/// nothing but `--seed` and this file.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Everything a workload run consumes.
pub struct Inputs {
    /// The initial graph `G`.
    pub graph: LabeledGraph,
    /// The update stream, pre-generated against an evolving copy of `G`.
    pub stream: Vec<UpdateBatch>,
    /// Reachability query pairs: even positions uniform, odd positions the
    /// end points of short forward walks (so positives occur).
    pub queries: Vec<(NodeId, NodeId)>,
    /// Pattern queries (empty unless the workload serves patterns).
    pub patterns: Vec<Pattern>,
    /// Wall time of dataset generation, seconds.
    pub graph_s: f64,
    /// Wall time of stream generation, seconds.
    pub stream_s: f64,
}

impl Inputs {
    /// Generates the inputs of `workload` at `sizes`; `seed` drives the
    /// query set only.
    pub fn generate(workload: &Workload, sizes: &Sizes, seed: u64) -> Inputs {
        let t = Instant::now();
        let graph =
            adapter::generate_graph(workload.dataset, workload.divisor * sizes.divisor_scale);
        let graph_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let stream = update_stream(&graph, sizes.stream_len(), workload.batch_size);
        let stream_s = t.elapsed().as_secs_f64();

        let queries = query_set(&graph, seed, sizes.query_pairs(workload));
        let patterns = if workload.patterns {
            (0..sizes.units as u64)
                .map(|i| adapter::generate_pattern(&graph, PATTERN_SEED ^ i))
                .collect()
        } else {
            Vec::new()
        };
        Inputs {
            graph,
            stream,
            queries,
            patterns,
            graph_s,
            stream_s,
        }
    }

    /// One line identifying the inputs: sizes and fingerprints, so two runs
    /// can be seen to have measured the same thing.
    pub fn describe(&self) -> String {
        format!(
            "inputs: {} nodes, {} edges (graph {:016x}), {} batches (stream {:016x}), \
             {} query pairs (queries {:016x}), {} patterns",
            self.graph.node_count(),
            self.graph.edge_count(),
            graph_fingerprint(&self.graph),
            self.stream.len(),
            stream_fingerprint(&self.stream),
            self.queries.len(),
            query_fingerprint(&self.queries),
            self.patterns.len(),
        )
    }
}

/// `len` cone-local batches of `size` updates, each generated against the
/// graph as the previous batches left it.
pub fn update_stream(g: &LabeledGraph, len: usize, size: usize) -> Vec<UpdateBatch> {
    let mut evolving = g.clone();
    (0..len as u64)
        .map(|i| {
            let batch = adapter::local_batch(&evolving, size, STREAM_SEED ^ i);
            adapter::advance(&mut evolving, &batch);
            batch
        })
        .collect()
}

/// `pairs` query pairs over `g`'s nodes from `seed`.
pub fn query_set(g: &LabeledGraph, seed: u64, pairs: usize) -> Vec<(NodeId, NodeId)> {
    let n = g.node_count();
    assert!(n > 0, "query set over an empty graph");
    let mut rng = SplitMix64::new(seed);
    (0..pairs)
        .map(|i| {
            let u = NodeId(rng.below(n) as u32);
            if i % 2 == 0 {
                return (u, NodeId(rng.below(n) as u32));
            }
            let mut w = u;
            for _ in 0..WALK_STEPS {
                let out = g.out_neighbors(w);
                if out.is_empty() {
                    break;
                }
                w = out[rng.below(out.len())];
            }
            (u, w)
        })
        .collect()
}

/// FNV-1a over a sequence of words: a cheap identity for "same inputs".
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fingerprint of a query set.
pub fn query_fingerprint(queries: &[(NodeId, NodeId)]) -> u64 {
    fingerprint(
        queries
            .iter()
            .map(|&(u, w)| (u64::from(u.0) << 32) | u64::from(w.0)),
    )
}

/// Fingerprint of an update stream (kind and endpoints of every update).
pub fn stream_fingerprint(stream: &[UpdateBatch]) -> u64 {
    fingerprint(stream.iter().flat_map(|b| {
        b.updates().iter().map(|u| {
            let (a, c) = u.edge();
            (u64::from(u.is_insert()) << 63) ^ (u64::from(a.0) << 32) ^ u64::from(c.0)
        })
    }))
}

/// Fingerprint of a graph's edge list.
pub fn graph_fingerprint(g: &LabeledGraph) -> u64 {
    fingerprint(
        g.edges()
            .map(|(u, w)| (u64::from(u.0) << 32) | u64::from(w.0)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    #[test]
    fn same_seed_same_inputs_other_seed_other_queries_same_graph_and_stream() {
        let w = workload("dense_cithepth").unwrap();
        let a = Inputs::generate(w, &Sizes::SMOKE, 7);
        let b = Inputs::generate(w, &Sizes::SMOKE, 7);
        let c = Inputs::generate(w, &Sizes::SMOKE, 8);
        assert_eq!(stream_fingerprint(&a.stream), stream_fingerprint(&b.stream));
        assert_eq!(query_fingerprint(&a.queries), query_fingerprint(&b.queries));
        assert_ne!(query_fingerprint(&a.queries), query_fingerprint(&c.queries));
        assert_eq!(graph_fingerprint(&a.graph), graph_fingerprint(&c.graph));
        assert_eq!(stream_fingerprint(&a.stream), stream_fingerprint(&c.stream));
        assert_eq!(a.stream.len(), Sizes::SMOKE.stream_len());
        assert!(a.stream.iter().all(|b| !b.is_empty()), "no empty batch");
    }

    #[test]
    fn walk_pairs_are_reachable_and_uniform_pairs_cover_the_node_range() {
        let w = workload("churn_wikitalk").unwrap();
        let inputs = Inputs::generate(w, &Sizes::SMOKE, 1);
        let n = inputs.graph.node_count() as u32;
        for (i, &(u, v)) in inputs.queries.iter().enumerate() {
            assert!(u.0 < n && v.0 < n);
            if i % 2 == 1 {
                assert!(
                    adapter::oracle_reachable(&inputs.graph, u, v),
                    "walk pair {i}"
                );
            }
        }
    }

    #[test]
    fn patterns_are_generated_only_where_served() {
        let sizes = Sizes::SMOKE;
        let p = Inputs::generate(workload("pattern_citation").unwrap(), &sizes, 3);
        assert_eq!(p.patterns.len(), sizes.units);
        let r = Inputs::generate(workload("sharded_wikitalk").unwrap(), &sizes, 3);
        assert!(r.patterns.is_empty());
    }

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            let x = a.below(17);
            assert_eq!(x, b.below(17));
            assert!(x < 17);
        }
    }
}
