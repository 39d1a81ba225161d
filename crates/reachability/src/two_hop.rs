//! A 2-hop reachability labelling (pruned landmark labelling).
//!
//! The paper's Fig. 12(d) compares the memory cost of 2-hop indexes built on
//! the original graph `G` and on the compressed graph `Gr`, to make the
//! point that (a) the index dwarfs both graphs and (b) building it on `Gr`
//! is much cheaper. We implement the index as a pruned landmark labelling
//! (pruned BFS from landmarks in descending coverage order, see
//! [`TwoHopIndex::build`]), which produces a valid 2-hop cover for
//! reachability: `u` reaches `w` iff `L_out(u) ∩ L_in(w) ≠ ∅`.
//!
//! ## Labels are landmark *ranks*, not node ids
//!
//! Label lists store the landmark's **processing rank** (its position in the
//! coverage order), not its node id. The pruning test inside the build — "do
//! the labels written so far already prove this pair?" — is a sorted-merge
//! intersection, and ranks are pushed in strictly ascending order by
//! construction, so every list is sorted at all times *during* the build.
//! Storing raw node ids (as an earlier revision did) silently broke the
//! pruning whenever id order diverged from coverage order: the mid-build
//! lists were unsorted, the merge intersection missed matches, and the
//! pruning rule kept almost nothing out. Queries stayed correct (failed
//! pruning only *adds* labels) but the index bloated. The legacy
//! construction is kept as [`TwoHopIndex::build_with_node_id_labels`] so the
//! size win of the rank fix stays measurable (the `fig12d` experiment tests;
//! `BENCH_3.json` recorded it when the fix landed).
//! [`TwoHopIndex::landmark`] maps a rank back to its node for debugging.
//!
//! Because the compressed graph is "just a graph", the very same index can
//! be built over `Gr` — this is the paper's claim that existing indexing
//! techniques apply to compressed graphs unchanged.
//!
//! The index is built, never maintained: a changed graph gets a fresh
//! build, so nothing ever inserts into a finished label list. The lists
//! are grown one `Vec` per node during the build and served concatenated,
//! CSR-style (`LabelLists`).
//!
//! ## One landmark order, from exact counts
//!
//! Landmarks are processed in descending `(|anc| + 1) · (|desc| + 1)`
//! order ([`landmark_order`]); the counts are exact, and a caller that has
//! them already does not pay for them again. [`TwoHopIndex::build_with`]
//! sweeps the condensation of its graph itself
//! ([`DagReach::reach_counts`](qpgc_graph::reach_sets::DagReach::reach_counts));
//! a snapshot publication takes them from the descendant rows its
//! transitive reduction sweeps anyway and hands the resulting order to
//! [`TwoHopIndex::build_in_order`] — the same order, so the same labels.

use std::collections::VecDeque;

use qpgc_graph::reach_sets::DEFAULT_CHUNK;
use qpgc_graph::scc::Condensation;
use qpgc_graph::{GraphView, NodeId};

/// Build-time options of a [`TwoHopIndex`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TwoHopConfig {
    /// Run the forward and backward pruned BFS of each landmark on two
    /// threads (one long-lived worker for the forward direction, the caller
    /// for the backward one, exchanging per-landmark label snapshots over
    /// channels). The two passes read disjoint state, so the result is
    /// bit-identical to the sequential build.
    pub parallel: bool,
}

/// A 2-hop reachability labelling of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct TwoHopIndex {
    /// Per node `v`: ranks of landmarks reachable *from* `v` (ascending).
    out_labels: LabelLists,
    /// Per node `v`: ranks of landmarks that reach `v` (ascending).
    in_labels: LabelLists,
    /// `landmark_of_rank[r]`: the node processed as the `r`-th landmark.
    landmark_of_rank: Vec<NodeId>,
}

/// One direction's finished label lists, concatenated in node order (the
/// CSR layout): node `v`'s list is `entries[offsets[v]..offsets[v + 1]]`.
/// The build grows one `Vec` per node; a served index holds two
/// allocations per direction instead: about half the bytes, one pointer
/// chase fewer per lookup, and none of a concurrent writer's small
/// allocations in between the lists a reader walks.
#[derive(Clone, Debug, PartialEq)]
struct LabelLists {
    offsets: Vec<u32>,
    entries: Vec<u32>,
}

impl LabelLists {
    fn from_lists(lists: &[Vec<u32>]) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut entries = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        offsets.push(0);
        for list in lists {
            entries.extend_from_slice(list);
            offsets.push(u32::try_from(entries.len()).expect("label entries fit in u32"));
        }
        LabelLists { offsets, entries }
    }

    fn of(&self, v: NodeId) -> &[u32] {
        &self.entries[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    fn heap_bytes(&self) -> usize {
        (self.offsets.capacity() + self.entries.capacity()) * std::mem::size_of::<u32>()
    }
}

/// `true` iff the two ascending `u32` slices share an element.
fn sorted_intersects(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Reusable per-pass BFS state (`visited` is all-`false` and `queue` empty
/// between passes).
struct Scratch {
    visited: Vec<bool>,
    touched: Vec<usize>,
    queue: VecDeque<NodeId>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            visited: vec![false; n],
            touched: Vec::new(),
            queue: VecDeque::new(),
        }
    }
}

/// One pruned BFS from `landmark`, pushing `rank` into `labels` (the `in`
/// lists when walking forward, the `out` lists when walking backward).
/// `landmark_opposite` is the landmark's *other-direction* label list as of
/// the start of this landmark's processing; together with `labels[u]` it
/// decides the pruning test ("is this pair already covered?").
fn pruned_pass<G: GraphView>(
    g: &G,
    landmark: NodeId,
    rank: u32,
    forward: bool,
    labels: &mut [Vec<u32>],
    landmark_opposite: &[u32],
    scratch: &mut Scratch,
) {
    let Scratch {
        visited,
        touched,
        queue,
    } = scratch;
    queue.push_back(landmark);
    visited[landmark.index()] = true;
    touched.push(landmark.index());
    while let Some(u) = queue.pop_front() {
        // Prune: if the labels built so far already prove the pair
        // (landmark, u) — resp. (u, landmark) — this landmark adds nothing
        // here or beyond.
        if u != landmark && sorted_intersects(landmark_opposite, &labels[u.index()]) {
            continue;
        }
        if u != landmark {
            labels[u.index()].push(rank);
        }
        let neighbors = if forward {
            g.out_neighbors(u)
        } else {
            g.in_neighbors(u)
        };
        for &w in neighbors {
            if !visited[w.index()] {
                visited[w.index()] = true;
                touched.push(w.index());
                queue.push_back(w);
            }
        }
    }
    for &t in touched.iter() {
        visited[t] = false;
    }
    touched.clear();
}

impl TwoHopIndex {
    /// Builds the index over `g` with landmarks processed in descending
    /// coverage order: a landmark `v` can cover at most
    /// `(|anc(v)| + 1) · (|desc(v)| + 1)` reachable pairs, so processing
    /// high-coverage nodes first (the greedy heuristic behind Cohen et
    /// al.'s 2-hop covers) lets the pruned BFS skip most of the graph for
    /// later landmarks. Unlike plain degree ordering this is stable under
    /// transitive reduction — reachability-preserving compression keeps
    /// ancestor/descendant sets intact while flattening degrees, and Fig.
    /// 12(d) relies on the index over `Gr` not regressing past the index
    /// over `G`.
    pub fn build<G: GraphView + Sync>(g: &G) -> Self {
        Self::build_with(g, &TwoHopConfig::default())
    }

    /// [`TwoHopIndex::build`] with explicit options. Counts ancestors and
    /// descendants with one closure sweep over the condensation of `g` (a
    /// member of a cyclic SCC counts the SCC's members on both sides) and
    /// builds in the resulting [`landmark_order`].
    pub fn build_with<G: GraphView + Sync>(g: &G, config: &TwoHopConfig) -> Self {
        Self::build_in_order(g, swept_landmark_order(g), config)
    }

    /// Builds the index with the landmarks processed in `order` — for a
    /// caller that already holds the reachability counts
    /// [`landmark_order`] wants. Queries are exact under any order; the
    /// order decides only how much the pruning saves.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `g`'s nodes.
    pub fn build_in_order<G: GraphView + Sync>(
        g: &G,
        order: Vec<NodeId>,
        config: &TwoHopConfig,
    ) -> Self {
        let n = g.node_count();
        let mut ranked = vec![false; n];
        for lm in &order {
            assert!(
                !std::mem::replace(&mut ranked[lm.index()], true),
                "landmark {lm} is ranked twice"
            );
        }
        assert_eq!(order.len(), n, "every node is a landmark");

        let mut out_labels: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut in_labels: Vec<Vec<u32>> = vec![Vec::new(); n];

        if config.parallel && n > 0 {
            in_labels = parallel_passes(g, &order, &mut out_labels);
        } else {
            let mut scratch_fwd = Scratch::new(n);
            let mut scratch_bwd = Scratch::new(n);
            for (rank, &landmark) in order.iter().enumerate() {
                let rank = rank as u32;
                // Forward: landmark reaches u  ⇒  rank ∈ in_labels[u].
                pruned_pass(
                    g,
                    landmark,
                    rank,
                    true,
                    &mut in_labels,
                    &out_labels[landmark.index()],
                    &mut scratch_fwd,
                );
                // Backward: u reaches landmark  ⇒  rank ∈ out_labels[u].
                pruned_pass(
                    g,
                    landmark,
                    rank,
                    false,
                    &mut out_labels,
                    &in_labels[landmark.index()],
                    &mut scratch_bwd,
                );

                // The landmark trivially covers itself in both directions.
                out_labels[landmark.index()].push(rank);
                in_labels[landmark.index()].push(rank);
            }
        }

        // Ranks are pushed in ascending processing order, so every list is
        // already sorted — the invariant the mid-build pruning relies on.
        debug_assert!(out_labels
            .iter()
            .chain(in_labels.iter())
            .all(|l| l.windows(2).all(|w| w[0] < w[1])));
        TwoHopIndex {
            out_labels: LabelLists::from_lists(&out_labels),
            in_labels: LabelLists::from_lists(&in_labels),
            landmark_of_rank: order,
        }
    }

    /// The pre-rank-fix construction: label lists hold raw node ids pushed
    /// in landmark processing order and are only sorted *after* the build,
    /// so the mid-build pruning intersection runs on unsorted lists and
    /// silently misses most covered pairs. Queries are still exact (failed
    /// pruning only adds labels); the index is just needlessly large. Kept
    /// so tests can quantify the rank fix — do not use for anything else.
    pub fn build_with_node_id_labels<G: GraphView + Sync>(g: &G) -> Self {
        let n = g.node_count();
        let order = swept_landmark_order(g);

        let mut out_labels: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut in_labels: Vec<Vec<u32>> = vec![Vec::new(); n];

        let mut visited = vec![false; n];
        let mut touched: Vec<usize> = Vec::new();
        for &landmark in &order {
            let mut queue = VecDeque::new();
            queue.push_back(landmark);
            visited[landmark.index()] = true;
            touched.push(landmark.index());
            while let Some(u) = queue.pop_front() {
                // The buggy pruning test: a merge intersection over lists
                // that are NOT sorted mid-build.
                if u != landmark
                    && sorted_intersects(&out_labels[landmark.index()], &in_labels[u.index()])
                {
                    continue;
                }
                if u != landmark {
                    in_labels[u.index()].push(landmark.0);
                }
                for &w in g.out_neighbors(u) {
                    if !visited[w.index()] {
                        visited[w.index()] = true;
                        touched.push(w.index());
                        queue.push_back(w);
                    }
                }
            }
            for &t in &touched {
                visited[t] = false;
            }
            touched.clear();

            let mut queue = VecDeque::new();
            queue.push_back(landmark);
            visited[landmark.index()] = true;
            touched.push(landmark.index());
            while let Some(u) = queue.pop_front() {
                if u != landmark
                    && sorted_intersects(&out_labels[u.index()], &in_labels[landmark.index()])
                {
                    continue;
                }
                if u != landmark {
                    out_labels[u.index()].push(landmark.0);
                }
                for &w in g.in_neighbors(u) {
                    if !visited[w.index()] {
                        visited[w.index()] = true;
                        touched.push(w.index());
                        queue.push_back(w);
                    }
                }
            }
            for &t in &touched {
                visited[t] = false;
            }
            touched.clear();

            out_labels[landmark.index()].push(landmark.0);
            in_labels[landmark.index()].push(landmark.0);
            out_labels[landmark.index()].sort_unstable();
            in_labels[landmark.index()].sort_unstable();
        }

        // The late sort that made *queries* work despite the broken
        // mid-build pruning.
        for v in 0..n {
            out_labels[v].sort_unstable();
            in_labels[v].sort_unstable();
        }
        TwoHopIndex {
            out_labels: LabelLists::from_lists(&out_labels),
            in_labels: LabelLists::from_lists(&in_labels),
            landmark_of_rank: order,
        }
    }

    /// `true` iff the labels prove that `u` reaches `w` (possibly trivially,
    /// when `u == w`).
    pub fn query(&self, u: NodeId, w: NodeId) -> bool {
        if u == w {
            return true;
        }
        self.covered(u, w)
    }

    fn covered(&self, u: NodeId, w: NodeId) -> bool {
        sorted_intersects(self.out_labels.of(u), self.in_labels.of(w))
    }

    /// The node processed as the `rank`-th landmark (the debugging map from
    /// label values back to nodes).
    pub fn landmark(&self, rank: u32) -> NodeId {
        self.landmark_of_rank[rank as usize]
    }

    /// The full landmark processing order, indexable by rank.
    pub fn landmark_order(&self) -> &[NodeId] {
        &self.landmark_of_rank
    }

    /// Total number of label entries (a proxy for index size).
    pub fn label_entries(&self) -> usize {
        self.out_labels.entries.len() + self.in_labels.entries.len()
    }

    /// Approximate heap footprint of the index in bytes — the quantity
    /// plotted in Fig. 12(d). Counts the label entries, the per-node
    /// offsets of both directions, and the rank → node map, following the
    /// capacity-based convention of `LabeledGraph::heap_bytes` /
    /// `CsrGraph::heap_bytes`.
    pub fn heap_bytes(&self) -> usize {
        self.out_labels.heap_bytes()
            + self.in_labels.heap_bytes()
            + self.landmark_of_rank.capacity() * std::mem::size_of::<NodeId>()
    }
}

/// The parallel build loop: one long-lived worker thread owns the `in`
/// labels and runs every forward pass; the calling thread keeps the `out`
/// labels and runs every backward pass. Per landmark the two sides exchange
/// snapshots of the landmark's own (short) label lists over channels — the
/// only state either pass reads from the other side — so the two passes of
/// each landmark overlap while the result stays bit-identical to the
/// sequential build. One thread spawn total, not one per landmark.
///
/// Ordering argument: the worker handles landmarks strictly in rank order,
/// so when it snapshots `in_labels[landmark]` for rank `r` it has already
/// finished the forward pass and self-push of every rank `< r` — exactly
/// the state the sequential backward pass would read. Symmetrically the
/// caller finishes backward pass and self-push of rank `r - 1` before
/// snapshotting `out_labels[landmark]` for rank `r`. Within one landmark
/// the forward pass writes only `in` labels (never the landmark's own) and
/// the backward pass writes only `out` labels, so they share nothing.
fn parallel_passes<G: GraphView + Sync>(
    g: &G,
    order: &[NodeId],
    out_labels: &mut [Vec<u32>],
) -> Vec<Vec<u32>> {
    use std::sync::mpsc;

    let n = g.node_count();
    let (to_worker, work_rx) = mpsc::channel::<(NodeId, u32, Vec<u32>)>();
    let (to_caller, snap_rx) = mpsc::channel::<Vec<u32>>();
    std::thread::scope(|s| {
        let forward_worker = s.spawn(move || {
            let mut in_labels: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut scratch = Scratch::new(n);
            while let Ok((landmark, rank, landmark_out)) = work_rx.recv() {
                if to_caller.send(in_labels[landmark.index()].clone()).is_err() {
                    break; // caller gone (panic unwinding); stop quietly
                }
                pruned_pass(
                    g,
                    landmark,
                    rank,
                    true,
                    &mut in_labels,
                    &landmark_out,
                    &mut scratch,
                );
                in_labels[landmark.index()].push(rank);
            }
            in_labels
        });

        let mut scratch = Scratch::new(n);
        for (rank, &landmark) in order.iter().enumerate() {
            let rank = rank as u32;
            to_worker
                .send((landmark, rank, out_labels[landmark.index()].clone()))
                .expect("forward worker hung up");
            let landmark_in = snap_rx.recv().expect("forward worker hung up");
            pruned_pass(
                g,
                landmark,
                rank,
                false,
                out_labels,
                &landmark_in,
                &mut scratch,
            );
            out_labels[landmark.index()].push(rank);
        }
        drop(to_worker); // closes the channel; the worker drains and returns
        forward_worker.join().expect("forward worker panicked")
    })
}

/// [`landmark_order`] of an arbitrary graph, from a closure sweep of its
/// own over the condensation.
fn swept_landmark_order<G: GraphView>(g: &G) -> Vec<NodeId> {
    let cond = Condensation::of(g);
    let weight = |c: u32| cond.members(c).len() as u64;
    let counts = cond.dag().reach_counts(DEFAULT_CHUNK, weight);
    landmark_order(g, |v| {
        let c = cond.component_of(v);
        // Members of a cyclic SCC are their own ancestors and descendants.
        let own = if cond.is_cyclic(c, g) { weight(c) } else { 0 };
        (
            counts.ancestors[c as usize] + own,
            counts.descendants[c as usize] + own,
        )
    })
}

/// The landmark order of a 2-hop build: descending coverage
/// `(|anc(v)| + 1) · (|desc(v)| + 1)` — the most pairs a landmark can
/// cover — with `counts(v)` the exact `(|anc(v)|, |desc(v)|)` (non-empty
/// paths, so a node on a cycle counts itself). Ties go to the higher total
/// degree in `g`, then to the lower node id (the sort is stable).
pub fn landmark_order<G: GraphView>(g: &G, counts: impl Fn(NodeId) -> (u64, u64)) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by_cached_key(|&v| {
        let (anc, desc) = counts(v);
        std::cmp::Reverse(((anc + 1) * (desc + 1), g.out_degree(v) + g.in_degree(v)))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpgc_graph::traversal::bfs_reachable;
    use qpgc_graph::LabeledGraph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn graph(n: usize, edges: &[(u32, u32)]) -> LabeledGraph {
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node_with_label("X");
        }
        for &(u, v) in edges {
            g.add_edge(NodeId(u), NodeId(v));
        }
        g
    }

    fn random_graph(rng: &mut StdRng) -> LabeledGraph {
        let n = rng.gen_range(2..30);
        let m = rng.gen_range(0..n * 3);
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node_with_label("X");
        }
        for _ in 0..m {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            g.add_edge(NodeId(u), NodeId(v));
        }
        g
    }

    fn assert_matches_bfs(g: &LabeledGraph) {
        let idx = TwoHopIndex::build(g);
        for u in g.nodes() {
            for w in g.nodes() {
                assert_eq!(
                    idx.query(u, w),
                    bfs_reachable(g, u, w),
                    "2-hop answer differs for ({u}, {w})"
                );
            }
        }
    }

    #[test]
    fn exact_on_small_dag() {
        assert_matches_bfs(&graph(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]));
    }

    #[test]
    fn exact_with_cycles() {
        assert_matches_bfs(&graph(
            6,
            &[(0, 1), (1, 2), (2, 0), (2, 3), (4, 3), (3, 4), (5, 5)],
        ));
    }

    #[test]
    fn exact_on_disconnected_graph() {
        assert_matches_bfs(&graph(6, &[(0, 1), (2, 3)]));
    }

    #[test]
    fn exact_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            assert_matches_bfs(&random_graph(&mut rng));
        }
    }

    #[test]
    fn parallel_build_is_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(11);
        let par = TwoHopConfig { parallel: true };
        for _ in 0..15 {
            let g = random_graph(&mut rng);
            let seq_idx = TwoHopIndex::build(&g);
            let par_idx = TwoHopIndex::build_with(&g, &par);
            assert_eq!(seq_idx, par_idx);
        }
    }

    #[test]
    fn rank_labels_never_exceed_legacy_node_id_labels() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut strictly_smaller_somewhere = false;
        for _ in 0..25 {
            let g = random_graph(&mut rng);
            let ranked = TwoHopIndex::build(&g);
            let legacy = TwoHopIndex::build_with_node_id_labels(&g);
            assert!(
                ranked.label_entries() <= legacy.label_entries(),
                "rank fix grew the index: {} > {}",
                ranked.label_entries(),
                legacy.label_entries()
            );
            strictly_smaller_somewhere |= ranked.label_entries() < legacy.label_entries();
            // Both are exact — the fix changes size, never answers.
            for u in g.nodes() {
                for w in g.nodes() {
                    assert_eq!(ranked.query(u, w), legacy.query(u, w));
                }
            }
        }
        assert!(
            strictly_smaller_somewhere,
            "pruning fix never pruned anything across 25 random graphs"
        );
    }

    #[test]
    fn rank_mapping_roundtrips() {
        let g = graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let idx = TwoHopIndex::build(&g);
        assert_eq!(idx.landmark_order().len(), 5);
        let mut seen: Vec<u32> = idx.landmark_order().iter().map(|n| n.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        for rank in 0..5u32 {
            assert_eq!(idx.landmark(rank), idx.landmark_order()[rank as usize]);
        }
    }

    #[test]
    fn size_accounting() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let idx = TwoHopIndex::build(&g);
        assert!(idx.label_entries() > 0);
        // Two offset arrays of n + 1, the entries, and the rank map — all
        // `u32`-sized, all allocated at their final length.
        let words = 2 * (4 + 1) + idx.label_entries() + 4;
        assert_eq!(idx.heap_bytes(), words * std::mem::size_of::<u32>());
    }

    #[test]
    fn empty_graph() {
        let g = LabeledGraph::new();
        let idx = TwoHopIndex::build(&g);
        assert_eq!(idx.label_entries(), 0);
    }

    #[test]
    fn works_on_csr_snapshots() {
        let g = graph(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let csr = g.freeze();
        let idx = TwoHopIndex::build(&csr);
        for u in g.nodes() {
            for w in g.nodes() {
                assert_eq!(idx.query(u, w), bfs_reachable(&g, u, w));
            }
        }
    }
}
