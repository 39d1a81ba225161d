//! Parallel bulk-query evaluation over a shared read cut.

use std::sync::OnceLock;

use qpgc_graph::NodeId;

use crate::api::ReachCut;

/// Resolves a requested worker count: `0` means "ask the OS"
/// (`available_parallelism`, asked once per process — the call re-reads
/// the cgroup files, which costs more than a block of queries takes to
/// answer), and the result is clamped to `[1, work_items]` so tiny inputs
/// never pay spawn overhead for idle workers.
///
/// Kept out of line: one call per bulk read, and inlined the `OnceLock`
/// path cost [`bulk_reachable`]'s sequential loop 5 % of its throughput
/// (`churn_wikitalk` `bulk_qps` 72 → 68 M/s at `threads = 1`, 0 of 10
/// pairs; parity out of line).
#[inline(never)]
fn effective_threads(requested: usize, work_items: usize) -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let t = if requested == 0 {
        *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
    } else {
        requested
    };
    t.clamp(1, work_items.max(1))
}

/// Answers a batch of reachability queries against one shared [`ReachCut`]
/// — a single-store [`Snapshot`](crate::Snapshot) or a sharded store's
/// [`ShardedSnapshot`](crate::sharded::ShardedSnapshot) — sharded across
/// `threads` scoped workers (`0` = `available_parallelism`). Answers are
/// returned in query order; with `threads == 1` this is a plain sequential
/// loop. Every worker reads the same immutable cut, so there is no
/// synchronization on the query path at all — and every query in the batch
/// is answered at the same version, whichever backend published the cut.
pub fn bulk_reachable<C: ReachCut + ?Sized>(
    cut: &C,
    queries: &[(NodeId, NodeId)],
    threads: usize,
) -> Vec<bool> {
    let mut out = vec![false; queries.len()];
    let threads = effective_threads(threads, queries.len());
    if threads <= 1 {
        for (o, &(u, w)) in out.iter_mut().zip(queries) {
            *o = cut.reachable(u, w);
        }
        return out;
    }
    let chunk = queries.len().div_ceil(threads);
    #[expect(
        clippy::disallowed_methods,
        reason = "bulk reads are the one thing `StoreConfig::threads` governs: \
                  every worker reads one immutable cut and answers land in query order"
    )]
    std::thread::scope(|s| {
        for (q_chunk, o_chunk) in queries.chunks(chunk).zip(out.chunks_mut(chunk)) {
            s.spawn(move || {
                for (o, &(u, w)) in o_chunk.iter_mut().zip(q_chunk) {
                    *o = cut.reachable(u, w);
                }
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{CompressedStore, StoreConfig};
    use qpgc_graph::LabeledGraph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(4, 100), 4);
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(4, 0), 1);
        assert!(effective_threads(0, usize::MAX) >= 1);
    }

    #[test]
    fn sharded_evaluation_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(41);
        let n = 60usize;
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node_with_label("X");
        }
        for _ in 0..150 {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            g.add_edge(qpgc_graph::NodeId(u), qpgc_graph::NodeId(v));
        }
        let store = CompressedStore::new(g, StoreConfig::default());
        let snap = store.load();
        let queries: Vec<(NodeId, NodeId)> = (0..500)
            .map(|_| {
                (
                    NodeId(rng.gen_range(0..n) as u32),
                    NodeId(rng.gen_range(0..n) as u32),
                )
            })
            .collect();
        let sequential = bulk_reachable(&snap, &queries, 1);
        // `0` resolves the machine's parallelism, once per process.
        for threads in [0, 2, 3, 8] {
            assert_eq!(bulk_reachable(&snap, &queries, threads), sequential);
        }
        assert_eq!(bulk_reachable(&snap, &[], 4), Vec::<bool>::new());
    }
}
