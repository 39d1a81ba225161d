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
//! size win of the rank fix stays measurable (the `fig12d` experiment
//! tests). [`TwoHopIndex::landmark_order`] maps a rank back to its node.
//!
//! Because the compressed graph is "just a graph", the very same index can
//! be built over `Gr` — this is the paper's claim that existing indexing
//! techniques apply to compressed graphs unchanged.
//!
//! The index is built, never maintained: a changed graph gets a fresh
//! build, so nothing ever inserts into a finished label list. The lists
//! are served concatenated, CSR-style (`LabelLists`).
//!
//! ## One landmark order, from exact counts
//!
//! Landmarks are processed in descending `(|anc| + 1) · (|desc| + 1)`
//! order ([`landmark_order`]); the counts are exact, and a caller that has
//! them already does not pay for them again. [`TwoHopIndex::build_with`]
//! sweeps the condensation of its graph itself
//! ([`DagReach::descendants`](qpgc_graph::reach_sets::DagReach::descendants)
//! and `ancestors`: a count is a row's length); a snapshot publication
//! reads them off the rows of the closure its maintainer holds — the same
//! order, so the same labels.
//!
//! ## Two constructions of the same labels
//!
//! Write `min(v, u)` for the lowest landmark rank among the nodes on the
//! paths from `v` to `u`, both ends included (`∞` when there is no path).
//!
//! **Lemma 1 (the labelling is canonical** — Akiba, Iwata & Yoshida,
//! SIGMOD 2013, carried over from distances to reachability**).** Under
//! any landmark order the pruned passes put rank `r`, of landmark `ℓ`,
//! into `L_in(u)` iff `min(ℓ, u) = r`, and into `L_out(v)` iff
//! `min(v, ℓ) = r`. *Proof for `L_in`, by induction on `r`.* `ℓ` is on its
//! own paths, so `min(ℓ, u) ≤ r` whenever `ℓ` reaches `u`. If
//! `min(ℓ, u) < r`, let `m` be the node of that rank on a path `ℓ ⇝ u`:
//! paths `ℓ ⇝ m` and `m ⇝ u` extend to paths `ℓ ⇝ u`, so nothing lower
//! than `m` lies on them, and by induction `rank(m) ∈ L_out(ℓ) ∩ L_in(u)`
//! — the pass from `ℓ` is pruned at `u` if it gets there. If
//! `min(ℓ, u) = r`, then `min(ℓ, x) = r` for every `x` on a path `ℓ ⇝ u`
//! (paths to `x` are prefixes), and no rank `q < r` is in both `L_out(ℓ)`
//! and `L_in(x)` (its landmark would lie on a path `ℓ ⇝ x`): the pass is
//! pruned nowhere on its way to `u`, nor at `u`. ∎ So the labels are a
//! function of (reachability closure, order), and anything that evaluates
//! `min` gets them bit for bit.
//!
//! **Lemma 2 (a landmark strikes only its uncovered cones).**
//! [`TwoHopIndex::from_closure`] keeps, for a DAG, the invariant that
//! before rank `r` is processed id `u` of row `v` of `desc` is set iff
//! `v` properly reaches `u` and `min(v, u) ≥ r` — the pair is *uncovered* —
//! and `anc` is the transpose. At `r = 0` that is the closure. Landmark
//! `ℓ` of rank `r` must clear exactly the pairs `(v, u)` with `ℓ` on a
//! path `v ⇝ u`. For such a pair, paths `v ⇝ ℓ` are prefixes of paths
//! `v ⇝ u`, so `min(v, ℓ) ≥ r`: `v` is `ℓ` or in `above`, row `ℓ` of `anc`
//! as it stands; likewise `u` is `ℓ` or in `below`, row `ℓ` of `desc`.
//! Clearing the biclique `(above ∪ {ℓ}) × (below ∪ {ℓ})` therefore clears
//! every pair that must go — an ancestor of `ℓ` outside `above` has
//! `min(v, u) ≤ min(v, ℓ) < r` for every `u` below `ℓ`, its pairs went when
//! that lower landmark was processed — and only such pairs, since `ℓ` lies
//! between the ends of every pair of the biclique. ∎ By Lemma 1,
//! `below ∪ {ℓ}` are then exactly the nodes that hold `r` in their `in`
//! list and `above ∪ {ℓ}` those that hold it in their `out` list.
//!
//! What each costs. [`TwoHopIndex::build_in_order`]: `2n` pruned passes,
//! one sorted-list merge per visited node (`Σ visits · merge`; `Gr` is
//! transitively reduced, so most visits are not pruned and most merges run
//! both lists to the end to find nothing). [`TwoHopIndex::from_closure`]:
//! `2n` row scans plus, per label entry, one row struck by the other
//! side's cone (id by id while the cone is short, `n/64` words once it is
//! a bitmap) and one counting sort of the entries — given the closure's
//! two row sets, which a snapshot publication has from its maintainer,
//! and strikes on copies of them. A descendant row short enough to be a
//! list is not struck at all: it is read through the ancestor rows, its
//! transpose, one membership test per id.
//! [`TwoHopIndex::build_with`] is **deliberately not** that path, even
//! where its graph is a small DAG: it is the independent algorithm the
//! test suites and the benchmark's probe hold the served index against,
//! and a differential between two runs of the same code proves nothing.

use std::collections::VecDeque;

use qpgc_graph::scc::Condensation;
use qpgc_graph::{GraphView, IdRows, NodeId, RowBuilder};

/// Build-time options of a [`TwoHopIndex`]: none. The type stays because
/// a store is told to serve an index by being handed one
/// (`StoreConfig::two_hop`).
#[derive(Clone, Copy, Debug, Default)]
pub struct TwoHopConfig;

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
/// The BFS build grows one `Vec` per node; a served index holds two
/// allocations per direction instead: about half the bytes, one pointer
/// chase fewer per lookup, and none of a concurrent writer's small
/// allocations in between the lists a reader walks.
#[derive(Clone, Debug, PartialEq)]
struct LabelLists {
    offsets: Vec<u32>,
    entries: Vec<u32>,
}

/// One direction's labels in the order a closure-driven build emits them:
/// rank `r` goes to the nodes `nodes[ends[r - 1]..ends[r]]`.
#[derive(Default)]
struct RankLog {
    nodes: Vec<u32>,
    ends: Vec<u32>,
}

impl RankLog {
    /// Logs the next rank: the landmark's uncovered cone and the landmark
    /// itself, which it hands back as one ascending slice.
    fn rank(&mut self, cone: impl Iterator<Item = u32>, landmark: NodeId) -> &[u32] {
        let start = self.nodes.len();
        self.nodes.extend(cone);
        let at = start + self.nodes[start..].partition_point(|&v| v < landmark.0);
        self.nodes.insert(at, landmark.0);
        self.ends
            .push(u32::try_from(self.nodes.len()).expect("label entries fit in u32"));
        &self.nodes[start..]
    }
}

impl LabelLists {
    /// Counting sort of a [`RankLog`] by node. The sort is stable and the
    /// log is in ascending rank order, so every list comes out ascending.
    fn from_rank_log(n: usize, log: &RankLog) -> Self {
        let mut offsets = vec![0u32; n + 1];
        for &v in &log.nodes {
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets[..n].to_vec();
        let mut entries = vec![0u32; log.nodes.len()];
        let mut start = 0usize;
        for (rank, &end) in log.ends.iter().enumerate() {
            for &v in &log.nodes[start..end as usize] {
                let slot = &mut next[v as usize];
                entries[*slot as usize] = rank as u32;
                *slot += 1;
            }
            start = end as usize;
        }
        LabelLists { offsets, entries }
    }

    /// Offsets monotone from 0 to `entries.len()`, every list strictly
    /// ascending, every rank below `n` — what [`sorted_intersects`]
    /// silently relies on.
    fn check_invariants(&self, n: usize, which: &str) -> Result<(), String> {
        if self.offsets.len() != n + 1 || self.offsets[0] != 0 {
            return Err(format!(
                "{which} offsets: {} entries starting at {:?} for {n} nodes",
                self.offsets.len(),
                self.offsets.first()
            ));
        }
        if let Some(v) = (0..n).find(|&v| self.offsets[v] > self.offsets[v + 1]) {
            return Err(format!("{which} offsets decrease at node {v}"));
        }
        if self.offsets[n] as usize != self.entries.len() {
            return Err(format!(
                "{which} offsets end at {}, not at the {} entries",
                self.offsets[n],
                self.entries.len()
            ));
        }
        for v in 0..n {
            let list = self.of(NodeId(v as u32));
            if !list.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!(
                    "{which} list of node {v} is not strictly ascending"
                ));
            }
            if list.last().is_some_and(|&r| r as usize >= n) {
                return Err(format!("{which} list of node {v} holds a rank ≥ {n}"));
            }
        }
        Ok(())
    }

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
    pub fn build<G: GraphView>(g: &G) -> Self {
        Self::build_with(g, &TwoHopConfig)
    }

    /// [`TwoHopIndex::build`] with explicit options (there are none).
    /// Counts ancestors and descendants with one closure sweep over the
    /// condensation of `g` (a member of a cyclic SCC counts the SCC's
    /// members on both sides) and runs the pruned BFS passes in the
    /// resulting [`landmark_order`] — always the BFS construction, see the
    /// module header.
    pub fn build_with<G: GraphView>(g: &G, _config: &TwoHopConfig) -> Self {
        Self::build_in_order(g, swept_landmark_order(g))
    }

    /// Builds the index by pruned BFS passes with the landmarks processed
    /// in `order` — for a caller that already holds the reachability
    /// counts [`landmark_order`] wants. Queries are exact under any order;
    /// the order decides only how much the pruning saves.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `g`'s nodes.
    pub fn build_in_order<G: GraphView>(g: &G, order: Vec<NodeId>) -> Self {
        let n = g.node_count();
        assert_permutation(&order, n);

        let mut out_labels: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut in_labels: Vec<Vec<u32>> = vec![Vec::new(); n];
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

    /// Reads the labels of a **DAG** off its reachability closure, with no
    /// traversal: `desc` row `v` holds the proper descendants of `v`,
    /// `anc` row `v` its proper ancestors (`n` rows over `n` ids each, one
    /// the transpose of the other —
    /// [`DagReach::descendants`](qpgc_graph::reach_sets::DagReach::descendants)
    /// and `ancestors`, or a maintained closure's). Equal, label for label,
    /// to [`TwoHopIndex::build_in_order`] over any graph with that closure
    /// under the same `order` (Lemmas 1 and 2 of the module header).
    ///
    /// Copies of the two row sets are the scratch: row `v` is narrowed,
    /// landmark by landmark, to the descendants / ancestors of `v` no
    /// landmark so far lies between. A landmark's labels are its two rows
    /// as they stand, and it then strikes the pairs it covers out of both
    /// — out of the descendant rows that are bitmaps; a list row is read
    /// through the ancestor rows instead (Lemma 2: the two are transposes).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the rows or the row sets
    /// are not both `n` rows over `n` ids.
    pub fn from_closure(order: Vec<NodeId>, desc: &IdRows, anc: &IdRows) -> Self {
        let n = order.len();
        for m in [desc, anc] {
            assert!(
                m.rows() == n && m.universe() == n,
                "a closure of {} rows over {} ids for {n} landmarks",
                m.rows(),
                m.universe()
            );
        }
        assert_permutation(&order, n);

        // Only the bitmap rows of `desc` are struck: a list row is left as
        // it is (striking a short row costs more than reading it), and its
        // uncovered ids are those whose ancestor row, the transpose, still
        // holds the landmark. Without bitmaps `desc` is read in place.
        let mut struck = desc.has_bitmaps().then(|| desc.clone());
        let mut anc = anc.clone();
        let (mut in_log, mut out_log) = (RankLog::default(), RankLog::default());
        let mut mask = RowBuilder::new(n);
        for &landmark in &order {
            let lm = landmark.index();
            let desc = struck.as_ref().unwrap_or(desc);
            let (row, bits) = (desc.row(lm), desc.is_bitmap(lm));
            let uncovered = |&u: &u32| bits || anc.row(u as usize).contains(landmark.0);
            let below = in_log.rank(row.iter().filter(uncovered), landmark);
            let above = out_log.rank(anc.row(lm).iter(), landmark);
            if let Some(desc) = &mut struck {
                strike(desc, landmark, above, below, &mut mask, true);
            }
            strike(&mut anc, landmark, below, above, &mut mask, false);
        }
        TwoHopIndex {
            out_labels: LabelLists::from_rank_log(n, &out_log),
            in_labels: LabelLists::from_rank_log(n, &in_log),
            landmark_of_rank: order,
        }
    }

    /// The pre-rank-fix construction: label lists hold raw node ids pushed
    /// in landmark processing order and are only sorted *after* the build,
    /// so the mid-build pruning intersection runs on unsorted lists and
    /// silently misses most covered pairs. Queries are still exact (failed
    /// pruning only adds labels); the index is just needlessly large. Kept
    /// so tests can quantify the rank fix — do not use for anything else.
    // qpgc-lint: allow(dead-surface) -- oracle of query_time::tests::fig12d_rank_labels_shrink_the_two_hop_index
    pub fn build_with_node_id_labels<G: GraphView>(g: &G) -> Self {
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

    /// Checks the structure every query leans on without looking: the
    /// landmark order is a permutation of the nodes; both directions'
    /// offsets are monotone and end at their entries; every list is
    /// strictly ascending (an unsorted list does not fail, it makes the
    /// merge intersection miss) with ranks below `n`; and every node holds
    /// its own rank in both of its lists. It does not check the answers —
    /// compare against BFS for that.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.landmark_of_rank.len();
        let mut rank_of = vec![u32::MAX; n];
        for (rank, lm) in self.landmark_of_rank.iter().enumerate() {
            match rank_of.get_mut(lm.index()) {
                Some(slot) if *slot == u32::MAX => *slot = rank as u32,
                _ => return Err(format!("landmark {lm} is ranked twice or is no node")),
            }
        }
        self.out_labels.check_invariants(n, "out")?;
        self.in_labels.check_invariants(n, "in")?;
        for (v, rank) in rank_of.iter().enumerate() {
            let v = NodeId(v as u32);
            for (which, labels) in [("out", &self.out_labels), ("in", &self.in_labels)] {
                if labels.of(v).binary_search(rank).is_err() {
                    return Err(format!(
                        "node {v} lacks its own rank {rank} in its {which} list"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Panics unless `order` names each of the nodes `0..n` exactly once.
fn assert_permutation(order: &[NodeId], n: usize) {
    let mut ranked = vec![false; n];
    for lm in order {
        assert!(lm.index() < n, "landmark {lm} is not one of the {n} nodes");
        assert!(
            !std::mem::replace(&mut ranked[lm.index()], true),
            "landmark {lm} is ranked twice"
        );
    }
    assert_eq!(order.len(), n, "every node is a landmark");
}

/// Clears the pairs landmark `lm` covers out of one closure row set: the
/// ascending ids `cols` — row `lm` itself as it stood, and `lm` — from
/// every other row in `rows` (from its bitmaps alone when `bitmaps_only`),
/// and then row `lm`, whose pairs all run through `lm`. Ids too many to
/// look up one by one go as a bitmap, gathered in `mask`.
fn strike(
    m: &mut IdRows,
    lm: NodeId,
    rows: &[u32],
    cols: &[u32],
    mask: &mut RowBuilder,
    bitmaps_only: bool,
) {
    let cols = mask.encode(cols);
    for &r in rows.iter().filter(|&&r| r != lm.0) {
        if !bitmaps_only || m.is_bitmap(r as usize) {
            m.remove_all(r as usize, cols);
        }
    }
    m.clear(lm.index());
}

/// [`landmark_order`] of an arbitrary graph, from a closure sweep of its
/// own over the condensation: a node counts the members of the SCCs in its
/// SCC's rows.
fn swept_landmark_order<G: GraphView>(g: &G) -> Vec<NodeId> {
    let cond = Condensation::of(g);
    let weight = |c: u32| cond.members(c).len() as u64;
    let (desc, anc) = (cond.dag().descendants(), cond.dag().ancestors());
    let weighed = |rows: &IdRows, c: usize| rows.row(c).iter().map(weight).sum::<u64>();
    landmark_order(g, |v| {
        let c = cond.component_of(v);
        // Members of a cyclic SCC are their own ancestors and descendants.
        let own = if cond.is_cyclic(c, g) { weight(c) } else { 0 };
        let c = c as usize;
        (weighed(&anc, c) + own, weighed(&desc, c) + own)
    })
}

/// The landmark order of a 2-hop build: descending coverage
/// `(|anc(v)| + 1) · (|desc(v)| + 1)` — the most pairs a landmark can
/// cover — with `counts(v)` the exact `(|anc(v)|, |desc(v)|)` (non-empty
/// paths, so a node on a cycle counts itself). Ties go to the higher total
/// degree in `g`, then to the lower node id. The three are packed into one
/// `u128` per node, complemented where the order descends, and sorted once.
pub fn landmark_order<G: GraphView>(g: &G, counts: impl Fn(NodeId) -> (u64, u64)) -> Vec<NodeId> {
    let mut keys: Vec<u128> = g
        .nodes()
        .map(|v| {
            let (anc, desc) = counts(v);
            let coverage = (anc + 1) * (desc + 1);
            let degree = (g.out_degree(v) + g.in_degree(v)) as u32;
            u128::from(u64::MAX - coverage) << 64
                | u128::from(u32::MAX - degree) << 32
                | u128::from(v.0)
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|key| NodeId(key as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpgc_graph::reach_sets::DagReach;
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

    /// `from_closure` against `build_in_order` on one DAG, under the
    /// coverage order and under three random permutations.
    fn assert_closure_build_matches_bfs(
        n: usize,
        edges: &[(u32, u32)],
        rng: &mut StdRng,
        what: &str,
    ) {
        let g = graph(n, edges);
        let dag = DagReach::from_edges(n, edges.iter().copied()).expect("edges point id-upward");
        let (desc, anc) = (dag.descendants(), dag.ancestors());
        let coverage = landmark_order(&g, |v| {
            (anc.len(v.index()) as u64, desc.len(v.index()) as u64)
        });
        assert_eq!(coverage, swept_landmark_order(&g), "{what}: order");
        let mut order = coverage;
        for round in 0..4 {
            let from_rows = TwoHopIndex::from_closure(order.clone(), &desc, &anc);
            let from_passes = TwoHopIndex::build_in_order(&g, order.clone());
            assert_eq!(from_rows, from_passes, "{what}: round {round}");
            assert_eq!(
                from_rows.check_invariants(),
                Ok(()),
                "{what}: round {round}"
            );
            assert_eq!(
                from_rows.heap_bytes(),
                from_passes.heap_bytes(),
                "{what}: round {round}"
            );
            // Fisher–Yates: the lemmas hold for any order.
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
        }
    }

    #[test]
    fn closure_build_equals_the_bfs_build_on_dags() {
        let mut rng = StdRng::seed_from_u64(0xC105_0BE5);
        // Sizes around the word boundary; edges point id-upward (a DAG),
        // `density` draws per node, half of them kept, so shortcuts abound
        // from 4 up and most rows stay isolated (retired ids) at 0.3.
        for n in [0usize, 1, 2, 63, 64, 65, 130] {
            for density in [0.3f64, 1.0, 4.0, 12.0] {
                let m = (n as f64 * density) as usize;
                let edges: Vec<(u32, u32)> = (0..m)
                    .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
                    .filter(|&(u, v)| u < v)
                    .collect();
                let what = format!("random n={n} density={density}");
                assert_closure_build_matches_bfs(n, &edges, &mut rng, &what);
            }
        }
        // A chain: every pair is reachable, every strike is a full biclique.
        let chain: Vec<(u32, u32)> = (0..69).map(|i| (i, i + 1)).collect();
        assert_closure_build_matches_bfs(70, &chain, &mut rng, "chain");
        // Layered complete-bipartite: 4 layers of 17, every node of a layer
        // wired to every node of the next — maximal ties in the order —
        // and the same with every transitive shortcut added.
        let layer_pairs = |reach: u32| -> Vec<(u32, u32)> {
            (0..68u32)
                .flat_map(|u| (0..68u32).map(move |v| (u, v)))
                .filter(|&(u, v)| u / 17 < v / 17 && v / 17 - u / 17 <= reach)
                .collect()
        };
        assert_closure_build_matches_bfs(68, &layer_pairs(1), &mut rng, "layered");
        assert_closure_build_matches_bfs(68, &layer_pairs(3), &mut rng, "layered + shortcuts");
    }

    /// The packed keys give the order a stable sort by descending
    /// `(coverage, degree)` gives — ties to the lower id — on random
    /// graphs and on layers of exact ties.
    #[test]
    fn landmark_order_is_coverage_then_degree_then_id() {
        let mut rng = StdRng::seed_from_u64(0x0DE5);
        let layered: Vec<(u32, u32)> = (0..40u32)
            .flat_map(|u| (0..40u32).map(move |v| (u, v)))
            .filter(|&(u, v)| v / 10 == u / 10 + 1)
            .collect();
        let mut graphs = vec![graph(40, &layered), graph(6, &[])];
        graphs.extend((0..20).map(|_| random_graph(&mut rng)));
        for g in graphs {
            let counts = |v: NodeId| (u64::from(v.0 % 3), u64::from(v.0 % 2));
            let mut stable: Vec<NodeId> = g.nodes().collect();
            stable.sort_by_key(|&v| {
                let (anc, desc) = counts(v);
                let degree = g.out_degree(v) + g.in_degree(v);
                std::cmp::Reverse(((anc + 1) * (desc + 1), degree))
            });
            assert_eq!(landmark_order(&g, counts), stable);
        }
    }

    #[test]
    #[should_panic(expected = "is not one of the 3 nodes")]
    fn build_in_order_names_an_out_of_range_landmark() {
        let g = graph(3, &[(0, 1)]);
        TwoHopIndex::build_in_order(&g, vec![NodeId(0), NodeId(7), NodeId(2)]);
    }

    #[test]
    #[should_panic(expected = "closure of 2 rows over 3 ids for 3 landmarks")]
    fn from_closure_rejects_matrices_of_the_wrong_shape() {
        TwoHopIndex::from_closure(
            vec![NodeId(0), NodeId(1), NodeId(2)],
            &IdRows::new(2, 3),
            &IdRows::new(3, 3),
        );
    }

    /// The checker must be able to say no, and say what.
    #[test]
    fn check_invariants_names_each_broken_part() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let ok = TwoHopIndex::build(&g);
        assert_eq!(ok.check_invariants(), Ok(()));
        let broken = |damage: fn(&mut TwoHopIndex)| {
            let mut idx = ok.clone();
            damage(&mut idx);
            idx.check_invariants().expect_err("damage went unnoticed")
        };
        // Node 2 hears from landmark 1 (rank 0) and from itself (rank 1):
        // swap the two (the PR 3 bug's shape — an unsorted list).
        assert_eq!(ok.in_labels.of(NodeId(2)), [0, 1]);
        assert!(broken(|i| {
            let at = i.in_labels.offsets[2] as usize;
            i.in_labels.entries.swap(at, at + 1)
        })
        .contains("in list of node 2 is not strictly ascending"));
        assert!(broken(|i| i.out_labels.offsets[2] = 99).contains("out offsets"));
        assert!(broken(|i| *i.out_labels.offsets.last_mut().unwrap() -= 1).contains("out offsets"));
        assert!(broken(|i| *i.in_labels.entries.last_mut().unwrap() = 4).contains("rank ≥ 4"));
        assert!(broken(|i| i.landmark_of_rank[0] = i.landmark_of_rank[1]).contains("ranked twice"));
        // Ranks 0 and 1 trade places: every list is still sorted, but two
        // nodes now hold each other's rank instead of their own.
        assert!(broken(|i| i.landmark_of_rank.swap(0, 1)).contains("lacks its own rank"));
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
