//! The immutable, versioned view served to readers, built by
//! `Snapshot::build` from the maintainer's stable-id state.
//!
//! ## Stable class ids
//!
//! Snapshots index every per-class structure (quotient CSR rows, cyclic
//! flags, 2-hop landmark ranks) by the maintainer's *stable* class ids
//! ([`StableQuotient`](qpgc_reach::incremental::StableQuotient)), not by
//! densely renumbered ones. Retired ids stay
//! behind as isolated rows (never referenced by the node → class index), so
//! `Gr`'s `node_count` is the id-space size while [`Snapshot::class_count`]
//! counts live classes.
//!
//! ## One construction
//!
//! A batch whose `PartitionDelta` is empty left the reachability partition
//! — and with it every structure here — unchanged, so the store
//! republishes the previous snapshot under the new version
//! (`Snapshot::republish`, a handful of `Arc` bumps). That is the common
//! case, not a corner: the maintainer keeps the id of every affected class
//! that comes back with its old members and cones, so a batch that changes
//! no class has an empty delta however many classes it affected — every
//! batch of the benchmark's `dense_cithepth` stream. Every other batch
//! builds: CSR, and (when configured) the 2-hop index over it. A build
//! **sweeps nothing**, at any size: the maintainer holds the closure of
//! its quotient — swept at construction and patched by every step, because
//! each step regroups against it — and hands over the kept edges, the row
//! lengths that order the landmarks, and the two row sets, which the
//! labelling strikes on copies with no traversal
//! ([`TwoHopIndex::from_closure`]). The pattern side follows the same
//! rule one level up: the store hands in either the previous snapshot's
//! [`PatternView`] `Arc` or a freshly built one.

use qpgc_graph::ids::LabelInterner;
use qpgc_graph::reach_sets::DagReach;
use qpgc_graph::transitive::transitive_reduction_dag;
use qpgc_graph::traversal::bfs_reachable;
use std::sync::Arc;

use qpgc_graph::{CompressedCsr, CsrGraph, NodeId};
use qpgc_pattern::pattern::{MatchRelation, Pattern};
use qpgc_pattern::view::PatternView;
use qpgc_reach::incremental::IncrementalReach;
use qpgc_reach::two_hop::{landmark_order, TwoHopIndex};

use crate::store::StoreConfig;

/// Which in-memory representation a store publishes its quotient CSR in.
///
/// The succinct backend ([`CompressedCsr`]) gap/ζ-codes each adjacency row
/// and typically halves (or better) the quotient's heap on the power-law
/// Table-1 shapes, at the price of lazy per-row decode on reads and a
/// packing pass on every publication that builds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SnapshotFormat {
    /// Serve plain `u32` CSR arrays.
    #[default]
    Plain,
    /// Serve the gap/ζ-coded succinct form.
    Succinct,
}

/// The snapshot's quotient CSR, in whichever backend the store was
/// configured with — plain `u32` arrays or the gap/ζ-coded succinct form.
/// Readers that only need reachability go through
/// [`QuotientCsr::bfs_reachable`] and never care which; callers that need
/// slices call [`QuotientCsr::to_plain_arc`] to get (or re-inflate) the
/// plain form.
#[derive(Clone, Debug)]
pub enum QuotientCsr {
    /// Plain CSR arrays; supports slice reads.
    Plain(Arc<CsrGraph>),
    /// Gap/ζ-coded rows with Elias–Fano offsets; immutable, lazy decode.
    Succinct(Arc<CompressedCsr>),
}

impl QuotientCsr {
    /// Rows in the quotient (the stable-id space, including retired ids).
    pub fn node_count(&self) -> usize {
        match self {
            QuotientCsr::Plain(g) => g.node_count(),
            QuotientCsr::Succinct(g) => g.node_count(),
        }
    }

    /// Edges in the (transitively reduced) quotient.
    pub fn edge_count(&self) -> usize {
        match self {
            QuotientCsr::Plain(g) => g.edge_count(),
            QuotientCsr::Succinct(g) => g.edge_count(),
        }
    }

    /// Approximate heap footprint in bytes of whichever backend is live.
    pub fn heap_bytes(&self) -> usize {
        match self {
            QuotientCsr::Plain(g) => g.heap_bytes(),
            QuotientCsr::Succinct(g) => g.heap_bytes(),
        }
    }

    /// The plain CSR, when that backend is live.
    pub fn as_plain(&self) -> Option<&CsrGraph> {
        match self {
            QuotientCsr::Plain(g) => Some(g),
            QuotientCsr::Succinct(_) => None,
        }
    }

    /// The plain form: an `Arc` bump when already plain, a full decode
    /// when succinct.
    pub fn to_plain_arc(&self) -> Arc<CsrGraph> {
        match self {
            QuotientCsr::Plain(g) => Arc::clone(g),
            QuotientCsr::Succinct(g) => Arc::new(g.to_csr()),
        }
    }

    /// BFS reachability over whichever backend is live — the succinct
    /// side decodes rows lazily as the frontier visits them, so a query
    /// never inflates more than it traverses.
    pub fn bfs_reachable(&self, from: NodeId, to: NodeId) -> bool {
        match self {
            QuotientCsr::Plain(g) => bfs_reachable(&**g, from, to),
            QuotientCsr::Succinct(g) => {
                if from == to {
                    return true;
                }
                let n = g.node_count();
                if from.index() >= n || to.index() >= n {
                    return false;
                }
                let mut seen = vec![false; n];
                let mut queue = std::collections::VecDeque::new();
                seen[from.index()] = true;
                queue.push_back(from);
                while let Some(u) = queue.pop_front() {
                    for v in g.neighbors(u) {
                        if v == to {
                            return true;
                        }
                        if !seen[v.index()] {
                            seen[v.index()] = true;
                            queue.push_back(v);
                        }
                    }
                }
                false
            }
        }
    }
}

/// `Gr` in plain CSR over `rows` stable ids, every row labelled `σ`: how a
/// build and a loaded file both freeze the quotient's edges.
pub(crate) fn quotient_csr(
    rows: usize,
    edges: impl IntoIterator<Item = (NodeId, NodeId)>,
) -> CsrGraph {
    let mut interner = LabelInterner::new();
    let sigma = interner.intern("σ");
    CsrGraph::from_edges(vec![sigma; rows], interner, edges)
}

/// One immutable compression state, read-optimized for serving.
///
/// A `Snapshot` is built once by the writer and never mutated; any number of
/// readers query it concurrently without synchronization. The reachability
/// side is always present (CSR `Gr` over the stable class-id space, node →
/// hypernode index, cyclic flags, optionally a 2-hop index over `Gr`); the
/// pattern side ([`PatternView`], also indexed by stable class ids) is
/// present when the owning store was configured with `serve_patterns`.
/// The heavy, version-independent parts (`Gr`, the node index, the 2-hop
/// labels, the pattern view) sit behind `Arc`s so that cloning a snapshot —
/// in particular `Snapshot::republish`, the path for batches that change
/// the edge set but no partition — costs pointer bumps, not a heap copy;
/// a batch that leaves the bisimulation partition untouched shares the
/// pattern view with its predecessor pointer-wise.
#[derive(Clone, Debug)]
pub struct Snapshot {
    version: u64,
    gr: QuotientCsr,
    class_of: Arc<Vec<u32>>,
    cyclic: Arc<Vec<bool>>,
    live_classes: usize,
    two_hop: Option<Arc<TwoHopIndex>>,
    pattern: Option<Arc<PatternView>>,
}

impl Snapshot {
    /// Builds a snapshot out of the maintainer's stable-id state: the
    /// transitive reduction of its quotient frozen into CSR and, when
    /// configured, the 2-hop index over that quotient.
    ///
    /// Nothing is swept here: the CSR is loaded from the kept edges of the
    /// closure the maintainer holds ([`IncrementalReach::closure`]), the
    /// landmark order comes from its rows' lengths, and the labels are
    /// struck out of copies of its rows ([`TwoHopIndex::from_closure`]).
    /// It is the closure [`TwoHopIndex::build_with`] would sweep for again
    /// (reduction removes no path, and `Gr` is a DAG), and the index comes
    /// out equal to that one's.
    pub(crate) fn build(
        version: u64,
        reach: &IncrementalReach,
        pattern: Option<Arc<PatternView>>,
        config: &StoreConfig,
    ) -> Snapshot {
        let sq = reach.stable_quotient();
        let live_classes = sq.class_count();
        let held = reach.closure();
        let gr = quotient_csr(sq.id_space(), held.kept().iter().copied());
        let two_hop = config.two_hop.map(|_| {
            let order = landmark_order(&gr, |v| held.counts(v));
            TwoHopIndex::from_closure(order, held.descendants(), held.ancestors())
        });
        let two_hop = two_hop.map(Arc::new);
        let gr = match config.snapshot_format {
            SnapshotFormat::Plain => QuotientCsr::Plain(Arc::new(gr)),
            SnapshotFormat::Succinct => {
                QuotientCsr::Succinct(Arc::new(CompressedCsr::from_csr(&gr)))
            }
        };
        Snapshot {
            version,
            gr,
            class_of: Arc::new(sq.class_of),
            // The maintainer leaves a retired id's flag stale; clear it
            // (`check_invariants` requires retired rows to be acyclic).
            cyclic: Arc::new(
                sq.cyclic
                    .iter()
                    .zip(&sq.active)
                    .map(|(&cyclic, &live)| cyclic && live)
                    .collect(),
            ),
            live_classes,
            two_hop,
            pattern,
        }
    }

    /// A re-publication of the same reachability state under a new version
    /// (the batch changed the edge set but not the reachability partition);
    /// only the pattern view is replaced — and a pattern-quiet batch passes
    /// the predecessor's own view back in, making the whole republication a
    /// handful of `Arc` bumps. The reachability-side structures are always
    /// `Arc`-shared with the predecessor.
    pub(crate) fn republish(
        prev: &Snapshot,
        version: u64,
        pattern: Option<Arc<PatternView>>,
    ) -> Snapshot {
        Snapshot {
            version,
            pattern,
            ..prev.clone()
        }
    }

    /// The number of batches applied before this snapshot was taken (the
    /// initial snapshot is version 0).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The compressed reachability graph `Gr` in **plain** CSR form. Rows
    /// are stable class ids: `node_count` is the id-space size (retired ids
    /// persist as isolated rows), [`Snapshot::class_count`] the number of
    /// live classes.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot serves the succinct backend — use
    /// [`Snapshot::quotient`] for backend-agnostic access.
    pub fn compressed_graph(&self) -> &CsrGraph {
        self.gr
            .as_plain()
            .expect("snapshot serves the succinct backend; use Snapshot::quotient")
    }

    /// The quotient CSR in whichever backend this snapshot serves.
    pub fn quotient(&self) -> &QuotientCsr {
        &self.gr
    }

    /// Rebuilds a snapshot from parts loaded off disk (see
    /// `crate::persist`): no 2-hop index (queries fall back to BFS over
    /// the quotient, staying BFS-exact) and no pattern view.
    pub(crate) fn from_loaded_parts(
        version: u64,
        gr: QuotientCsr,
        class_of: Vec<u32>,
        cyclic: Vec<bool>,
        live_classes: usize,
    ) -> Snapshot {
        Snapshot {
            version,
            gr,
            class_of: Arc::new(class_of),
            cyclic: Arc::new(cyclic),
            live_classes,
            two_hop: None,
            pattern: None,
        }
    }

    /// The node → stable-class index (for persistence).
    pub(crate) fn class_of_slice(&self) -> &[u32] {
        &self.class_of
    }

    /// The per-class cyclic flags (for persistence).
    pub(crate) fn cyclic_slice(&self) -> &[bool] {
        &self.cyclic
    }

    /// The 2-hop index over `Gr`, when the store was configured to build
    /// one.
    pub fn two_hop(&self) -> Option<&TwoHopIndex> {
        self.two_hop.as_deref()
    }

    /// The pattern view, when the store was configured with
    /// `serve_patterns`.
    // qpgc-lint: allow(dead-surface) -- oracle of qpgc_tests::check: it hashes the served view and counts its classes against compress_b
    pub fn pattern_view(&self) -> Option<&PatternView> {
        self.pattern.as_deref()
    }

    /// The pattern view's `Arc`, for publication paths that share it with
    /// the next snapshot pointer-wise.
    pub(crate) fn pattern_arc(&self) -> Option<Arc<PatternView>> {
        self.pattern.clone()
    }

    /// The hypernode of `Gr` containing original node `v`, or `None` for
    /// node ids outside this snapshot's graph.
    pub fn class_of(&self, v: NodeId) -> Option<u32> {
        self.class_of.get(v.index()).copied()
    }

    /// Number of live hypernodes (`|Vr|`).
    pub fn class_count(&self) -> usize {
        self.live_classes
    }

    /// Number of original nodes this snapshot covers.
    pub fn node_count(&self) -> usize {
        self.class_of.len()
    }

    /// Answers the reachability query `QR(v, w)` posed against the original
    /// graph: endpoints are rewritten to hypernodes in O(1), the same-class
    /// corner case is answered by the cyclic flag, and distinct classes go
    /// through the 2-hop index when present, BFS over the CSR quotient
    /// otherwise. Node ids outside the snapshot reach only themselves.
    pub fn reachable(&self, v: NodeId, w: NodeId) -> bool {
        if v == w {
            return true;
        }
        let (Some(cv), Some(cw)) = (self.class_of(v), self.class_of(w)) else {
            return false;
        };
        if cv == cw {
            return self.cyclic[cv as usize];
        }
        match &self.two_hop {
            Some(idx) => idx.query(NodeId(cv), NodeId(cw)),
            None => self.gr.bfs_reachable(NodeId(cv), NodeId(cw)),
        }
    }

    /// Answers a pattern query on the compressed graph and expands
    /// hypernodes back to original nodes.
    ///
    /// # Panics
    ///
    /// Panics when the store was built without `serve_patterns` — pattern
    /// serving must be opted into because it doubles the writer's
    /// maintenance work.
    pub fn match_pattern(&self, query: &Pattern) -> Option<MatchRelation> {
        self.pattern
            .as_ref()
            .expect("pattern serving not enabled; set StoreConfig::serve_patterns")
            .answer(query)
    }

    /// Checks the structural invariants every published snapshot holds:
    /// `Gr` is acyclic and transitively reduced; the node index names only
    /// live rows, exactly [`Snapshot::class_count`] of them; every other
    /// (retired) row is isolated with its cyclic flag cleared; and, when
    /// an index is served, it is well formed
    /// ([`TwoHopIndex::check_invariants`]: sorted lists, own ranks, a
    /// landmark order that is a permutation) over the id space and answers
    /// like BFS over `Gr` on a seeded sample of row pairs. It sweeps full
    /// descendant sets, so it is not on the serving path: tests and
    /// diagnostics call it, and [`crate::persist::load_snapshot`] runs it
    /// once per file to fail closed on a corrupt one.
    pub fn check_invariants(&self) -> Result<(), String> {
        let gr = self.gr.to_plain_arc();
        let n = gr.node_count();
        let dag = DagReach::from_dag_graph(&*gr).map_err(|e| format!("Gr is not a DAG: {e}"))?;
        let kept = transitive_reduction_dag(&dag, &dag.descendants()).len();
        if kept != gr.edge_count() {
            return Err(format!(
                "Gr keeps {} edges, its transitive reduction {kept}",
                gr.edge_count()
            ));
        }
        if self.cyclic.len() != n {
            return Err(format!("{} cyclic flags for {n} rows", self.cyclic.len()));
        }

        let mut live = vec![false; n];
        for (v, &c) in self.class_of.iter().enumerate() {
            *live
                .get_mut(c as usize)
                .ok_or_else(|| format!("node {v} maps to class {c} outside the id space {n}"))? =
                true;
        }
        let live_rows = live.iter().filter(|&&l| l).count();
        if live_rows != self.live_classes {
            return Err(format!(
                "node index names {live_rows} rows, class_count says {}",
                self.live_classes
            ));
        }
        for r in (0..n).filter(|&r| !live[r]) {
            let row = NodeId(r as u32);
            if gr.out_degree(row) + gr.in_degree(row) > 0 || self.cyclic[r] {
                return Err(format!("retired row {r} is not an isolated acyclic row"));
            }
        }

        let Some(idx) = self.two_hop() else {
            return Ok(());
        };
        idx.check_invariants()?;
        if idx.landmark_order().len() != n {
            return Err(format!(
                "{} landmark ranks for {n} rows",
                idx.landmark_order().len()
            ));
        }
        // A multiplicative hash walks the n² row pairs, seeded by the
        // version so reruns probe the same ones.
        let (rows, pairs) = (n as u64, (n * n) as u64);
        for i in 0..pairs.min(256) {
            let k = self
                .version
                .wrapping_add(i)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                % pairs;
            let (u, w) = (NodeId((k / rows) as u32), NodeId((k % rows) as u32));
            if idx.query(u, w) != bfs_reachable(&*gr, u, w) {
                return Err(format!(
                    "2-hop index disagrees with BFS over Gr on ({u}, {w})"
                ));
            }
        }
        Ok(())
    }

    /// Checks that `self` and `other` are the same cut whatever their class
    /// ids: the same partition of the nodes, the same cyclic flags and the
    /// same `Gr` edges, every class named by its first (least) member.
    /// Linear in the nodes, then each of `self`'s edges is looked up in
    /// `other`'s sorted rows. Both must hold [`Snapshot::check_invariants`],
    /// so no edge touches a retired row.
    pub(crate) fn same_cut(&self, other: &Snapshot) -> Result<(), String> {
        let first_members = |s: &Snapshot| {
            let mut first = vec![u32::MAX; s.cyclic.len()];
            for (v, &c) in s.class_of.iter().enumerate().rev() {
                first[c as usize] = v as u32;
            }
            first
        };
        let (mine, theirs) = (first_members(self), first_members(other));
        let n = self.node_count();
        if n != other.node_count() {
            return Err(format!("{n} nodes against {}", other.node_count()));
        }
        let named = |first: &[u32], s: &Snapshot, v: usize| first[s.class_of[v] as usize];
        if let Some(v) = (0..n).find(|&v| named(&mine, self, v) != named(&theirs, other, v)) {
            return Err(format!("node {v} is in another class"));
        }
        let cyclic = |s: &Snapshot, v: usize| s.cyclic[s.class_of[v] as usize];
        if let Some(v) = (0..n).find(|&v| cyclic(self, v) != cyclic(other, v)) {
            return Err(format!("the class of node {v} differs in its cyclic flag"));
        }
        // The partitions agree, so a row's first member names its class in
        // `other` too.
        let (gr, theirs_gr) = (self.gr.to_plain_arc(), other.gr.to_plain_arc());
        let there = |c: NodeId| NodeId(other.class_of[mine[c.index()] as usize]);
        if gr.edge_count() != theirs_gr.edge_count() {
            return Err(format!(
                "Gr has {} edges against {}",
                gr.edge_count(),
                theirs_gr.edge_count()
            ));
        }
        let missing = gr
            .edges()
            .find(|&(c, d)| !theirs_gr.has_edge(there(c), there(d)));
        if let Some((c, d)) = missing {
            let (c, d) = (mine[c.index()], mine[d.index()]);
            return Err(format!(
                "Gr's edge from node {c}'s class to {d}'s is missing"
            ));
        }
        Ok(())
    }

    /// Approximate heap footprint of the snapshot in bytes: CSR quotient +
    /// node index + cyclic flags + optional 2-hop index + optional pattern
    /// view. Every structure follows the same capacity-based convention
    /// ([`CsrGraph::heap_bytes`], [`TwoHopIndex::heap_bytes`],
    /// [`PatternView::heap_bytes`]), so a pattern-serving snapshot reports
    /// strictly more bytes than the same snapshot without the pattern side.
    pub fn heap_bytes(&self) -> usize {
        self.gr.heap_bytes()
            + self.class_of.capacity() * std::mem::size_of::<u32>()
            + self.cyclic.capacity() * std::mem::size_of::<bool>()
            + self.two_hop.as_deref().map_or(0, TwoHopIndex::heap_bytes)
            + self.pattern.as_deref().map_or(0, PatternView::heap_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpgc_graph::LabeledGraph;
    use qpgc_pattern::incremental::IncrementalPattern;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The classes of a node → class table as node ids, sorted by first
    /// member: equal for two partitions into the same classes, however each
    /// numbers them.
    fn canonical(class_of: &[u32]) -> Vec<Vec<u32>> {
        let mut classes = std::collections::BTreeMap::<u32, Vec<u32>>::new();
        for (v, &c) in class_of.iter().enumerate() {
            classes.entry(c).or_default().push(v as u32);
        }
        let mut classes: Vec<Vec<u32>> = classes.into_values().collect();
        classes.sort_unstable();
        classes
    }

    fn random_graph(rng: &mut StdRng, n_max: usize) -> LabeledGraph {
        let n = rng.gen_range(2..n_max);
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

    fn build(g: &LabeledGraph, config: &StoreConfig) -> Snapshot {
        Snapshot::build(0, &IncrementalReach::new(g), None, config)
    }

    #[test]
    fn snapshot_answers_match_bfs_with_and_without_index() {
        let mut rng = StdRng::seed_from_u64(17);
        let bfs_only = StoreConfig::default();
        let indexed = StoreConfig::builder().two_hop(Default::default()).build();
        for _ in 0..15 {
            let g = random_graph(&mut rng, 25);
            let plain = build(&g, &bfs_only);
            let fancy = build(&g, &indexed);
            assert!(plain.two_hop().is_none());
            assert!(fancy.two_hop().is_some());
            for u in g.nodes() {
                for w in g.nodes() {
                    let expected = bfs_reachable(&g, u, w);
                    assert_eq!(plain.reachable(u, w), expected, "plain ({u},{w})");
                    assert_eq!(fancy.reachable(u, w), expected, "indexed ({u},{w})");
                }
            }
        }
    }

    /// A differential stream across 4 096 classes (64 words of a bitmap
    /// row): 255 chains of 16 nodes (a class each) and 170 loose nodes
    /// (one class). Odd batches hang loose nodes
    /// from chain nodes — a class born for each — and even batches close
    /// chains into cycles (16 classes become one) and open earlier ones
    /// again, so the live classes cross 4 096 both ways while the id space
    /// grows past it; every batch also cuts a chain edge and adds a
    /// shortcut. After each batch the maintained partition is
    /// `compress_r`'s, seeded pairs answer as BFS on `G` does, the
    /// maintainer's and the snapshot's invariants hold, and the served
    /// index is the one `build_with` builds by BFS.
    #[test]
    fn a_stream_across_4_096_classes_serves_what_compress_r_and_bfs_say() {
        use qpgc_graph::UpdateBatch;
        const LEN: u32 = 16;
        let (chains, loose) = (255u32, 170u32);
        let n = chains * LEN + loose;
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node_with_label("X");
        }
        for v in (1..chains * LEN).filter(|v| v % LEN != 0) {
            g.add_edge(NodeId(v - 1), NodeId(v));
        }
        let indexed = StoreConfig::builder().two_hop(Default::default()).build();
        let mut inc = IncrementalReach::new(&g);
        let mut rng = StdRng::seed_from_u64(0x4096);
        let mut hung = chains * LEN;
        let mut sides = Vec::new();
        for step in 1..=8u32 {
            let mut batch = UpdateBatch::new();
            let chain = |i: u32| NodeId(i * LEN);
            if step % 2 == 1 {
                for i in 0..40 {
                    batch.insert(NodeId(i * 2 * LEN + step), NodeId(hung));
                    hung += 1;
                }
            } else {
                for i in 0..4 {
                    let c = 100 + 8 * step + i;
                    batch.insert(NodeId(c * LEN + LEN - 1), chain(c));
                    let open = 100 + 8 * (step - 2) + i;
                    if step > 2 && i < 2 {
                        batch.delete(NodeId(open * LEN + LEN - 1), chain(open));
                    }
                }
            }
            let c = rng.gen_range(0..chains);
            let at = rng.gen_range(1..LEN - 1);
            batch.delete(NodeId(c * LEN + at), NodeId(c * LEN + at + 1));
            batch.insert(chain(c), NodeId(c * LEN + at));
            let (_, delta) = inc.apply_with_delta(&mut g, &batch);
            sides.push(inc.class_count() > 4096);

            let ctx = format!("batch {step}: {} classes", inc.class_count());
            assert_eq!(inc.check_invariants(&g), Ok(()), "{ctx}");
            assert_eq!(
                canonical(&inc.stable_quotient().class_of),
                canonical(&qpgc_reach::compress::compress_r(&g).partition.class_of),
                "{ctx}"
            );
            let snap = Snapshot::build(u64::from(step), &inc, None, &indexed);
            assert_eq!(snap.check_invariants(), Ok(()), "{ctx}");
            assert_eq!(snap.compressed_graph().node_count(), delta.id_space);
            assert_eq!(
                snap.two_hop().unwrap(),
                &TwoHopIndex::build(snap.compressed_graph()),
                "{ctx}"
            );
            for _ in 0..300 {
                let (u, w) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
                let expect = bfs_reachable(&g, u, w);
                assert_eq!(snap.reachable(u, w), expect, "{ctx}: ({u}, {w})");
                assert_eq!(inc.query(u, w), expect, "{ctx}: ({u}, {w})");
            }
        }
        let crossings = sides.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            crossings >= 2,
            "classes above 4 096 after each batch: {sides:?}"
        );
        assert!(inc.stable_quotient().id_space() > 4096);
    }

    #[test]
    fn out_of_range_nodes_reach_only_themselves() {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("X");
        let snap = build(&g, &StoreConfig::default());
        let ghost = NodeId(42);
        assert!(snap.reachable(ghost, ghost));
        assert!(!snap.reachable(ghost, a));
        assert!(!snap.reachable(a, ghost));
    }

    #[test]
    fn empty_graph_snapshot() {
        let snap = build(&LabeledGraph::new(), &StoreConfig::default());
        assert_eq!(snap.class_count(), 0);
        assert_eq!(snap.node_count(), 0);
        // Serving the pattern side always costs measurable extra heap —
        // even on the empty graph, where the view still carries its CSR
        // offset arrays.
        let view = Arc::new(PatternView::build(
            &IncrementalPattern::new(&LabeledGraph::new()).stable_quotient(),
        ));
        let with_pattern = Snapshot::republish(&snap, 0, Some(view));
        assert!(with_pattern.heap_bytes() > snap.heap_bytes());
    }

    /// The checker must be able to say no: each broken part is named.
    #[test]
    fn check_invariants_rejects_broken_snapshots() {
        let quotient = |edges: &[(u32, u32)]| {
            let edges = edges.iter().map(|&(a, b)| (NodeId(a), NodeId(b)));
            QuotientCsr::Plain(Arc::new(quotient_csr(3, edges)))
        };
        let chain = [(0, 1), (1, 2)];
        let ok = Snapshot::from_loaded_parts(0, quotient(&chain), vec![0, 1, 2], vec![false; 3], 3);
        assert_eq!(ok.check_invariants(), Ok(()));
        let broken = [
            // A transitive edge kept.
            Snapshot::from_loaded_parts(
                0,
                quotient(&[(0, 1), (0, 2), (1, 2)]),
                vec![0, 1, 2],
                vec![false; 3],
                3,
            ),
            // A cycle.
            Snapshot::from_loaded_parts(
                0,
                quotient(&[(0, 1), (1, 0)]),
                vec![0, 1, 2],
                vec![false; 3],
                3,
            ),
            // Row 2 retired but still wired in.
            Snapshot::from_loaded_parts(0, quotient(&chain), vec![0, 1, 1], vec![false; 3], 2),
            // Live-class count out of step with the node index.
            Snapshot::from_loaded_parts(0, quotient(&chain), vec![0, 1, 2], vec![false; 3], 2),
            // An index built over a different quotient.
            Snapshot {
                two_hop: Some(Arc::new(TwoHopIndex::build(
                    quotient(&[(2, 0)]).as_plain().unwrap(),
                ))),
                ..ok.clone()
            },
        ];
        for (i, snap) in broken.iter().enumerate() {
            assert!(
                snap.check_invariants().is_err(),
                "broken snapshot {i} passed"
            );
        }
    }

    /// A pattern-serving snapshot of a real graph reports strictly more
    /// bytes than the same snapshot without the pattern side, and the
    /// difference is exactly the view's own footprint.
    #[test]
    fn heap_bytes_includes_the_pattern_side() {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        let b = g.add_node_with_label("B");
        let c = g.add_node_with_label("B");
        g.add_edge(a, b);
        g.add_edge(a, c);
        let plain = build(&g, &StoreConfig::default());
        let view = Arc::new(PatternView::build(
            &IncrementalPattern::new(&g).stable_quotient(),
        ));
        let view_bytes = view.heap_bytes();
        assert!(view_bytes > 0);
        let serving = Snapshot::republish(&plain, 0, Some(view));
        assert!(serving.heap_bytes() > plain.heap_bytes());
        assert_eq!(serving.heap_bytes(), plain.heap_bytes() + view_bytes);
    }

    #[test]
    fn snapshot_quotient_matches_compress_r() {
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..10 {
            let g = random_graph(&mut rng, 30);
            let snap = build(&g, &StoreConfig::default());
            let rc = qpgc_reach::compress::compress_r(&g);
            // Same number of live hypernodes and (transitively reduced)
            // edges; at version 0 the id space has no holes yet.
            assert_eq!(snap.class_count(), rc.graph.node_count());
            assert_eq!(snap.compressed_graph().node_count(), rc.graph.node_count());
            assert_eq!(snap.compressed_graph().edge_count(), rc.graph.edge_count());
        }
    }
}
