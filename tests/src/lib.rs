//! Cross-crate integration tests live in the `tests/` directory of this
//! package; this library hosts the shared differential harness they (and
//! the bench crate's self-checks) drive.
//!
//! The harness is generic over [`qpgc_serve::ReachStore`], which is the
//! point: the same seeded streams, the same BFS oracle, and the same
//! bit-identity assertions run against the single-writer
//! [`CompressedStore`](qpgc_serve::CompressedStore) and the sharded router
//! [`ShardedStore`](qpgc_serve::ShardedStore) without per-backend forks.

#![forbid(unsafe_code)]

pub mod differential {
    //! Seeded update streams and backend-generic differential checks.

    use qpgc_graph::traversal::bfs_reachable;
    use qpgc_graph::{LabeledGraph, NodeId, UpdateBatch};
    use qpgc_serve::{ReachCut as _, ReachStore};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random graph of at most `n_max` nodes with about `3n` edge draws.
    /// `dag` keeps every edge id-upward so the graph stays acyclic through
    /// batches generated with the same flag.
    pub fn random_graph(rng: &mut StdRng, n_max: usize, dag: bool) -> LabeledGraph {
        let n = rng.gen_range(3..n_max);
        let m = rng.gen_range(0..n * 3);
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node_with_label("X");
        }
        for _ in 0..m {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            if dag {
                if u < v {
                    g.add_edge(NodeId(u), NodeId(v));
                }
            } else {
                g.add_edge(NodeId(u), NodeId(v));
            }
        }
        g
    }

    /// A batch of `count` updates over nodes `0..n`; each is an insertion
    /// with probability `insert_bias` (DAG streams only generate id-upward
    /// edges). Never emits both an insert and a delete of the same edge in
    /// one batch — [`UpdateBatch::validate`] rejects such conflicts, so a
    /// draw that would contradict an earlier one keeps the earlier kind.
    pub fn random_batch(
        rng: &mut StdRng,
        n: usize,
        count: usize,
        insert_bias: f64,
        dag: bool,
    ) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        let mut kinds: std::collections::HashMap<(u32, u32), bool> =
            std::collections::HashMap::new();
        for _ in 0..count {
            let mut u = rng.gen_range(0..n) as u32;
            let mut v = rng.gen_range(0..n) as u32;
            if dag && u > v {
                std::mem::swap(&mut u, &mut v);
            }
            if dag && u == v {
                continue;
            }
            let drawn = rng.gen_bool(insert_bias);
            let is_insert = *kinds.entry((u, v)).or_insert(drawn);
            if is_insert {
                batch.insert(NodeId(u), NodeId(v));
            } else {
                batch.delete(NodeId(u), NodeId(v));
            }
        }
        batch
    }

    /// One seeded update stream: the initial graph and every batch are a
    /// pure function of the spec, so two backends built from the same spec
    /// replay byte-for-byte the same history.
    #[derive(Clone, Copy, Debug)]
    pub struct Stream {
        /// RNG seed for the graph and every batch.
        pub seed: u64,
        /// Keep the graph acyclic throughout.
        pub dag: bool,
        /// Probability that an update is an insertion.
        pub insert_bias: f64,
        /// Number of batches.
        pub steps: usize,
        /// Upper bound on the initial node count.
        pub max_nodes: usize,
    }

    impl Stream {
        /// All-pairs check of `store`'s current cut against a BFS oracle on
        /// `g`, plus a bulk round-trip (every bulk answer must equal its
        /// single-query answer, all at one version).
        fn check_against_oracle<S: ReachStore>(store: &S, g: &LabeledGraph, ctx: &str) {
            let cut = store.load();
            let mut queries = Vec::new();
            for u in g.nodes() {
                for w in g.nodes() {
                    assert_eq!(
                        cut.reachable(u, w),
                        bfs_reachable(g, u, w),
                        "{ctx}: ({u},{w}) at version {}",
                        cut.version()
                    );
                    queries.push((u, w));
                }
            }
            let singles: Vec<bool> = queries.iter().map(|&(u, w)| cut.reachable(u, w)).collect();
            assert_eq!(
                store.bulk_reachable(&queries),
                singles,
                "{ctx}: bulk mismatch"
            );
        }

        /// Drives the stream through one backend, asserting BFS-exactness
        /// and watermark progression at every version. Returns the store
        /// for follow-up assertions.
        pub fn drive<S: ReachStore>(&self, build: impl FnOnce(LabeledGraph) -> S) -> S {
            let mut rng = StdRng::seed_from_u64(self.seed);
            let mut g = random_graph(&mut rng, self.max_nodes, self.dag);
            let store = build(g.clone());
            assert_eq!(
                store.watermark(),
                0,
                "stream {}: fresh watermark",
                self.seed
            );
            for step in 0..self.steps {
                let count = rng.gen_range(1..5);
                let batch =
                    random_batch(&mut rng, g.node_count(), count, self.insert_bias, self.dag);
                let report = store.try_apply(&batch).expect("batch applies");
                batch.apply_to(&mut g);
                assert_eq!(
                    report.version,
                    step as u64 + 1,
                    "stream {}: version",
                    self.seed
                );
                let ctx = format!("stream {} step {step}", self.seed);
                Self::check_against_oracle(&store, &g, &ctx);
            }
            store
        }

        /// Drives the stream through two backends built from the same
        /// initial graph, asserting at **every version** that both are
        /// BFS-exact (hence bit-identical to each other) and agree on the
        /// watermark, and running `check_b` on `B` at every version
        /// (version 0 included). Returns the stores for follow-up
        /// assertions.
        pub fn drive_pair<A: ReachStore, B: ReachStore>(
            &self,
            build_a: impl FnOnce(LabeledGraph) -> A,
            build_b: impl FnOnce(LabeledGraph) -> B,
            check_b: impl Fn(&B),
        ) -> (A, B) {
            let mut rng = StdRng::seed_from_u64(self.seed);
            let mut g = random_graph(&mut rng, self.max_nodes, self.dag);
            let a = build_a(g.clone());
            let b = build_b(g.clone());
            assert_eq!(a.watermark(), 0, "stream {}: fresh watermark", self.seed);
            assert_eq!(b.watermark(), 0, "stream {}: fresh watermark", self.seed);
            check_b(&b);
            for step in 0..self.steps {
                let count = rng.gen_range(1..5);
                let batch =
                    random_batch(&mut rng, g.node_count(), count, self.insert_bias, self.dag);
                let ra = a.try_apply(&batch).expect("batch applies");
                let rb = b.try_apply(&batch).expect("batch applies");
                batch.apply_to(&mut g);
                let version = step as u64 + 1;
                assert_eq!(ra.version, version, "stream {}: A version", self.seed);
                assert_eq!(rb.version, version, "stream {}: B version", self.seed);
                assert_eq!(a.watermark(), version);
                assert_eq!(b.watermark(), version);
                let ctx = format!("stream {} step {step} (A)", self.seed);
                Self::check_against_oracle(&a, &g, &ctx);
                let ctx = format!("stream {} step {step} (B)", self.seed);
                Self::check_against_oracle(&b, &g, &ctx);
                check_b(&b);
            }
            (a, b)
        }
    }
}
