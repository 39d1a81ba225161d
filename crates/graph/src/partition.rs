//! Hash partitioning of the node space across store shards.
//!
//! Sharded serving (the `ShardedStore` router in `qpgc_serve`) splits the
//! data graph into `N` slices so that `N` writers can maintain their slice
//! of each update batch concurrently. The split is by *node ownership*: a
//! deterministic hash assigns every node to exactly one shard, an edge
//! whose endpoints share a shard is **intra-shard** (it lives in that
//! shard's subgraph), and an edge crossing shards is a **boundary edge** —
//! it belongs to no shard and is routed to the router's boundary graph
//! instead.
//!
//! The partitioner is a pure function of the node id and the shard count,
//! so every layer (graph splitting here, batch slicing in `qpgc`, routing
//! and boundary maintenance in `qpgc_serve`) derives the same ownership
//! without sharing state.

use crate::graph::LabeledGraph;
use crate::ids::NodeId;

/// A deterministic hash partition of the node id space into `N` shards.
///
/// Ownership is `shard_of(v) = (fibonacci_hash(v) mod N)`: stable across
/// runs, independent of graph contents, and uniform enough that random node
/// sets spread evenly. `N = 1` degenerates to "everything in shard 0"
/// (useful as the differential-test control: a 1-shard router must behave
/// exactly like a single store with an empty boundary graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodePartition {
    shards: usize,
}

impl NodePartition {
    /// Creates a partition into `shards` shards (`0` is clamped to `1`).
    pub fn new(shards: usize) -> Self {
        NodePartition {
            shards: shards.max(1),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning node `v`, in `0..shards()`.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> usize {
        // Fibonacci hashing: multiply by 2^64/φ and keep the high bits,
        // which decorrelates the dense sequential node ids the generators
        // produce before the modulo folds them onto the shard range.
        let h = (v.0 as u64 ^ 0x5851_f42d).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) % self.shards as u64) as usize
    }

    /// `true` when the edge `(u, v)` crosses shards (a boundary edge).
    #[inline]
    pub fn is_boundary(&self, u: NodeId, v: NodeId) -> bool {
        self.shard_of(u) != self.shard_of(v)
    }
}

/// Splits `g` into per-shard subgraphs plus the boundary edge list.
///
/// Every shard subgraph carries the **full node set** of `g` (same ids,
/// same labels — nodes not owned by the shard are simply isolated there),
/// so shard-local queries speak global node ids with no translation layer.
/// Intra-shard edges land in their owner's subgraph; boundary edges belong
/// to no subgraph and are returned separately.
pub fn split_graph(
    g: &LabeledGraph,
    part: &NodePartition,
) -> (Vec<LabeledGraph>, Vec<(NodeId, NodeId)>) {
    let mut shards: Vec<LabeledGraph> = (0..part.shards())
        .map(|_| {
            let mut s = LabeledGraph::new();
            for v in g.nodes() {
                s.add_node_with_label(g.label_name(v).unwrap_or(""));
            }
            s
        })
        .collect();
    let mut boundary = Vec::new();
    for (u, v) in g.edges() {
        let su = part.shard_of(u);
        if su == part.shard_of(v) {
            shards[su].add_edge(u, v);
        } else {
            boundary.push((u, v));
        }
    }
    (shards, boundary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph(n: usize) -> LabeledGraph {
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node_with_label("X");
        }
        for i in 0..n - 1 {
            g.add_edge(NodeId(i as u32), NodeId(i as u32 + 1));
        }
        g
    }

    #[test]
    fn ownership_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 3, 4, 7] {
            let p = NodePartition::new(shards);
            for v in 0..500u32 {
                let s = p.shard_of(NodeId(v));
                assert!(s < shards);
                assert_eq!(s, p.shard_of(NodeId(v)), "unstable ownership");
            }
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let p = NodePartition::new(1);
        for v in 0..100u32 {
            assert_eq!(p.shard_of(NodeId(v)), 0);
        }
        assert!(!p.is_boundary(NodeId(3), NodeId(97)));
        // Zero shards is clamped rather than a divide-by-zero.
        assert_eq!(NodePartition::new(0).shards(), 1);
    }

    #[test]
    fn hash_spreads_dense_ids() {
        let p = NodePartition::new(4);
        let mut counts = [0usize; 4];
        for v in 0..4000u32 {
            counts[p.shard_of(NodeId(v))] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (500..1500).contains(&c),
                "shard {s} owns {c} of 4000 dense ids — not a usable spread"
            );
        }
    }

    #[test]
    fn split_partitions_every_edge_exactly_once() {
        let g = line_graph(40);
        let p = NodePartition::new(3);
        let (shards, boundary) = split_graph(&g, &p);
        assert_eq!(shards.len(), 3);
        let intra: usize = shards.iter().map(|s| s.edge_count()).sum();
        assert_eq!(intra + boundary.len(), g.edge_count());
        for (s, sub) in shards.iter().enumerate() {
            // Full node set, same labels, only owned intra edges.
            assert_eq!(sub.node_count(), g.node_count());
            for (u, v) in sub.edges() {
                assert_eq!(p.shard_of(u), s);
                assert_eq!(p.shard_of(v), s);
            }
            for v in g.nodes() {
                assert_eq!(sub.label_name(v), g.label_name(v));
            }
        }
        for &(u, v) in &boundary {
            assert!(p.is_boundary(u, v));
        }
    }

    #[test]
    fn one_shard_split_is_the_whole_graph() {
        let g = line_graph(12);
        let (shards, boundary) = split_graph(&g, &NodePartition::new(1));
        assert_eq!(shards.len(), 1);
        assert!(boundary.is_empty());
        assert_eq!(shards[0].edge_count(), g.edge_count());
    }
}
