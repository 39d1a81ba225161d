//! The equivalence-independent skeleton of incremental quotient
//! maintenance (Section 5): what `incRCM` and `incPCM` share.
//!
//! The paper defines one framework — a query preserving compression
//! `⟨R, F, P⟩` whose `R` quotients `G` by an equivalence relation — and
//! instantiates it twice (reachability equivalence, bisimilarity). Its two
//! maintainers are the same three steps: normalise `ΔG`, find the classes
//! the batch can have disturbed by walking cones over the *old* quotient,
//! and recompute the relation locally on a **hybrid graph** (affected
//! classes exploded into their members, every other class kept as one
//! atom), splicing the result back under **stable** class ids.
//!
//! [`IncrementalQuotient`] is those steps, once. Everything that depends on
//! *which* relation is maintained is an item of the [`Equivalence`] trait,
//! and every such item is a fact about the relation (what a class carries,
//! whether ancestors matter, how to partition a graph) — never about the
//! caller. `qpgc_reach::incremental::IncrementalReach` and
//! `qpgc_pattern::incremental::IncrementalPattern` wrap one instantiation
//! each and add only what genuinely differs (redundant-insertion reduction
//! and the transitively reduced export on one side; the label interner and
//! member-list export on the other).
//!
//! ## Determinism
//!
//! Stable class ids must be a pure function of the update stream — the
//! serving layer's snapshot differentials and the benchmark's
//! `compression_ratio` / `snapshot_bytes_per_node` checks depend on it. The
//! maintained state is therefore hash-free: the class-level edges live in
//! per-id **rows** (`out_rows[c]` — `(target, count)` pairs, `in_rows[c]` —
//! sources), every row sorted ascending by class id, and every scratch
//! table of a maintenance step (cone marks, atom and hybrid-node lookups,
//! retirements, births) is a vector indexed by class or node id. Whatever
//! feeds an id — the affected classes, the hybrid graph's node order and
//! edge set, retirements, the LIFO free-id stack — is read off those
//! vectors in ascending id order, so there is no iteration order to leak
//! (`qpgc_lint`'s `deterministic-iteration` rule audits this file and
//! finds nothing to allow).
//!
//! ## Cost
//!
//! Rows are the only representation of the class-level edges: the cone
//! walks, class-level reachability probes, the hybrid graph's atom edges
//! and the stable exports all read them in place. A step updates them in
//! `O(deg)` per retired or born class — a retired class is unlinked from
//! its neighbours' rows, a born class's rows are rebuilt from its members'
//! adjacency — so bookkeeping is paid for the affected region, not for
//! `|Er|`.
//!
//! The recomputation is not: the hybrid graph has a node for **every** live
//! class (an atom, or its exploded members), so a step costs one pass over
//! all rows to collect it, one counting-sort bulk load
//! ([`CsrGraph::from_edges`]) to freeze it, and one run of
//! [`Equivalence::partition`] on `|Vr| + |AFF members|` nodes — for
//! reachability equivalence a closure, `O(|Vr|²/w)`, however small the
//! batch. The hybrid graph is built once, directly in the form the kernel
//! sweeps (no mutable adjacency in between, no second freeze), and the
//! kernel's member lists are read as they are when the state is patched.
//! Bounding the hybrid graph by the affected region instead needs an
//! argument for which unaffected classes an exploded member can still
//! merge with; that is open.

use std::fmt::Debug;

use crate::csr::CsrGraph;
use crate::graph::LabeledGraph;
use crate::ids::{Label, LabelInterner, NodeId};
use crate::update::{ClassBirth, PartitionDelta};

/// A partition of a graph's nodes as an equivalence kernel returns it:
/// dense class ids `0..members.len()`, with the relation's per-class
/// payload alongside.
#[derive(Clone, Debug)]
pub struct Classes<C> {
    /// `class_of[v]` — dense class id of node `v`.
    pub class_of: Vec<u32>,
    /// Members per class, ascending node order.
    pub members: Vec<Vec<NodeId>>,
    /// The relation's payload per class ([`Equivalence::Class`]).
    pub payload: Vec<C>,
}

/// The equivalence relation an [`IncrementalQuotient`] maintains. Every
/// item states a property of the relation itself.
pub trait Equivalence {
    /// What a class of this relation carries besides its members: the
    /// cyclic flag for reachability equivalence (do the members reach
    /// themselves by a non-empty path), the shared node label for
    /// bisimilarity.
    type Class: Copy + Debug;

    /// Whether the relation's quotient relates a class to itself through
    /// an ordinary quotient edge. Bisimulation quotients do — an
    /// intra-class edge is a hypernode self loop that pattern matching
    /// must see, so `(c, c)` is counted like any other class pair. The
    /// reachability quotient is a DAG over classes and keeps
    /// self-reachability in [`Equivalence::cyclic`] instead.
    const SELF_EDGES: bool;

    /// Whether two nodes can be told apart by what *reaches* them.
    /// Reachability equivalence compares ancestor and descendant sets, so
    /// an update `(u, w)` disturbs the ancestors of `[u]` **and** the
    /// descendants of `[w]`, and a node's in-edges are part of its
    /// identity. Bisimilarity looks only downward: just the ancestors of
    /// `[u]` can change class, and in-edges carry no information.
    const ANCESTOR_SENSITIVE: bool;

    /// Whether a class with this payload reaches itself by a non-empty
    /// path that the quotient edges do not already record — the atom self
    /// loop of the hybrid graph, and [`ClassBirth::cyclic`]. Always
    /// `false` for relations with [`Equivalence::SELF_EDGES`].
    fn cyclic(class: Self::Class) -> bool;

    /// The node label a whole class presents to the relation (constant
    /// for label-blind relations).
    fn class_label(class: Self::Class) -> Label;

    /// The node label `v` presents to the relation (constant for
    /// label-blind relations).
    fn node_label(g: &LabeledGraph, v: NodeId) -> Label;

    /// The batch kernel: the relation's partition of `g`, computed with
    /// `threads` workers (`0` = available parallelism). Must be
    /// bit-identical at every thread count. It takes the frozen form
    /// because every kernel is a read-only whole-graph sweep: the quotient
    /// freezes the data graph once and builds each hybrid graph as a CSR
    /// directly.
    fn partition(g: &CsrGraph, threads: usize) -> Classes<Self::Class>;
}

/// Statistics of one incremental maintenance step (either relation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncStats {
    /// Number of updates after normalization and redundancy reduction.
    pub effective_updates: usize,
    /// Number of updates dropped as redundant (reachability only;
    /// bisimulation has no redundant-insertion rule, so always `0` there).
    pub redundant_dropped: usize,
    /// Number of affected equivalence classes (exploded into members).
    pub affected_classes: usize,
    /// Number of original nodes inside affected classes.
    pub affected_nodes: usize,
    /// Number of nodes of the hybrid graph the localized recomputation ran
    /// on: one atom per unaffected live class plus every exploded member
    /// (`0` when the step recomputed nothing).
    pub hybrid_nodes: usize,
    /// Number of classes created or rewritten by this step (a proxy for
    /// `|ΔGr|`).
    pub changed_classes: usize,
}

impl std::ops::Add for IncStats {
    type Output = IncStats;

    /// Field-wise sum: the statistics of several steps (or of several
    /// shards' steps) taken together.
    fn add(self, other: IncStats) -> IncStats {
        IncStats {
            effective_updates: self.effective_updates + other.effective_updates,
            redundant_dropped: self.redundant_dropped + other.redundant_dropped,
            affected_classes: self.affected_classes + other.affected_classes,
            affected_nodes: self.affected_nodes + other.affected_nodes,
            hybrid_nodes: self.hybrid_nodes + other.hybrid_nodes,
            changed_classes: self.changed_classes + other.changed_classes,
        }
    }
}

/// A node of the hybrid graph: a whole unaffected class, or one member of
/// an exploded (affected) class.
#[derive(Clone, Copy)]
enum Unit {
    Atom(u32),
    Member(NodeId),
}

impl Unit {
    fn is_atom(self) -> bool {
        matches!(self, Unit::Atom(_))
    }
}

/// Marks a class that is exploded into its members (or not live) in the
/// per-step class → hybrid-atom table.
const NO_ATOM: u32 = u32::MAX;

/// An incrementally maintained quotient of a data graph by the relation
/// `E`, under stable class ids: ids survive across updates for classes a
/// step leaves untouched, and retired ids are recycled.
#[derive(Clone, Debug)]
pub struct IncrementalQuotient<E: Equivalence> {
    /// `class_of[v]` — stable class id of node `v` (always an active id).
    class_of: Vec<u32>,
    /// Members per class id (meaningful only for active ids).
    members: Vec<Vec<NodeId>>,
    /// The relation's payload per class id (stale for inactive ids).
    payload: Vec<E::Class>,
    /// Whether a class id is in use.
    active: Vec<bool>,
    /// Recycled class ids (LIFO).
    free_ids: Vec<u32>,
    /// Number of active ids.
    live: usize,
    /// `out_rows[c]` — the classes `c` has an edge to, as `(target, number
    /// of original edges behind the class edge)`, ascending by target;
    /// empty for inactive ids. `(c, c)` entries exist only under
    /// [`Equivalence::SELF_EDGES`].
    out_rows: Vec<Vec<(u32, u32)>>,
    /// `in_rows[c]` — the sources of the class edges into `c`, ascending:
    /// the mirror of `out_rows`.
    in_rows: Vec<Vec<u32>>,
    /// Scratch of [`IncrementalQuotient::recompute`]: the hybrid node of
    /// each exploded member. Meaningful only during a step, and only for
    /// members of that step's affected classes; kept across steps so a
    /// step allocates nothing of size `|V|`.
    hybrid_of_node: Vec<u32>,
    /// Worker count handed to the partition kernel (`0` = available
    /// parallelism). Kernel output is bit-identical at every value.
    threads: usize,
}

impl<E: Equivalence> IncrementalQuotient<E> {
    /// Partitions `g` from scratch (the batch step that is then
    /// maintained) and builds the class-level rows from its edges.
    pub fn new(g: &LabeledGraph, threads: usize) -> Self {
        let partition = E::partition(&g.freeze(), threads);
        let classes = partition.members.len();
        let mut q = IncrementalQuotient {
            hybrid_of_node: vec![0; partition.class_of.len()],
            class_of: partition.class_of,
            members: partition.members,
            payload: partition.payload,
            active: vec![true; classes],
            free_ids: Vec::new(),
            live: classes,
            out_rows: vec![Vec::new(); classes],
            in_rows: vec![Vec::new(); classes],
            threads,
        };
        let all: Vec<u32> = (0..classes as u32).collect();
        q.link(g, &all);
        q
    }

    /// Number of active equivalence classes (`|Vr|`).
    pub fn class_count(&self) -> usize {
        debug_assert_eq!(self.live, self.active.iter().filter(|&&a| a).count());
        self.live
    }

    /// Size of the stable id space (`max id + 1`, holes included).
    pub fn id_space(&self) -> usize {
        self.members.len()
    }

    /// Number of distinct class-level edges currently tracked.
    pub fn quotient_edge_count(&self) -> usize {
        self.out_rows.iter().map(Vec::len).sum()
    }

    /// The stable class id of node `v`.
    pub fn class_of(&self, v: NodeId) -> u32 {
        self.class_of[v.index()]
    }

    /// The node → stable class id index.
    pub fn class_index(&self) -> &[u32] {
        &self.class_of
    }

    /// Member lists per stable id (empty for inactive ids).
    pub fn members(&self) -> &[Vec<NodeId>] {
        &self.members
    }

    /// The relation's payload per stable id (stale for inactive ids).
    pub fn payload(&self) -> &[E::Class] {
        &self.payload
    }

    /// Liveness per stable id.
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// The class-level edges leaving class `c`, as `(target, number of
    /// original edges)`, ascending by target.
    pub fn out_row(&self, c: u32) -> &[(u32, u32)] {
        &self.out_rows[c as usize]
    }

    /// The distinct class-level edges, sorted by `(source, target)` stable
    /// id: the out-rows, concatenated in id order.
    pub fn sorted_edges(&self) -> Vec<(u32, u32)> {
        let mut edges = Vec::with_capacity(self.quotient_edge_count());
        for (a, row) in self.out_rows.iter().enumerate() {
            edges.extend(row.iter().map(|&(b, _)| (a as u32, b)));
        }
        edges
    }

    /// Multi-source walk over the rows (`forward` follows class edges,
    /// otherwise they are reversed): sets `reached[c]` for every class
    /// reached *including* the sources, and leaves the rest of `reached`
    /// as it was.
    fn cone(&self, sources: impl Iterator<Item = u32>, forward: bool, reached: &mut [bool]) {
        let mut visited = vec![false; self.id_space()];
        let mut stack: Vec<u32> = Vec::new();
        let mut visit = |c: u32, stack: &mut Vec<u32>| {
            if !std::mem::replace(&mut visited[c as usize], true) {
                stack.push(c);
            }
        };
        for c in sources {
            visit(c, &mut stack);
        }
        while let Some(c) = stack.pop() {
            reached[c as usize] = true;
            if forward {
                for &(d, _) in &self.out_rows[c as usize] {
                    visit(d, &mut stack);
                }
            } else {
                for &d in &self.in_rows[c as usize] {
                    visit(d, &mut stack);
                }
            }
        }
    }

    /// Maintains the quotient across the effective edge updates `updates`,
    /// which have **already been applied** to `g`: locates the affected
    /// classes over the class-level edges of the *old* quotient — the
    /// ancestors of every update source's class and, when the relation is
    /// [`Equivalence::ANCESTOR_SENSITIVE`], the descendants of every
    /// target's class — and recomputes the relation inside that region.
    /// With no update nothing is recomputed and the delta is empty.
    pub fn apply_effective(
        &mut self,
        g: &LabeledGraph,
        updates: &[(NodeId, NodeId)],
    ) -> (IncStats, PartitionDelta) {
        if updates.is_empty() {
            let delta = PartitionDelta {
                id_space: self.members.len(),
                ..PartitionDelta::default()
            };
            return (IncStats::default(), delta);
        }
        let mut is_affected = vec![false; self.id_space()];
        let sources = updates.iter().map(|&(a, _)| self.class_of(a));
        self.cone(sources, false, &mut is_affected);
        if E::ANCESTOR_SENSITIVE {
            let targets = updates.iter().map(|&(_, b)| self.class_of(b));
            self.cone(targets, true, &mut is_affected);
        }
        let affected = marked(&is_affected);
        let mut stats = IncStats {
            effective_updates: updates.len(),
            affected_classes: affected.len(),
            affected_nodes: affected
                .iter()
                .map(|&c| self.members[c as usize].len())
                .sum(),
            ..IncStats::default()
        };
        let (hybrid_nodes, delta) = self.recompute(g, &affected, is_affected);
        stats.hybrid_nodes = hybrid_nodes;
        stats.changed_classes = delta.added.len();
        (stats, delta)
    }

    /// Rebuilds the relation inside the affected region (`affected`,
    /// ascending, with `is_affected` its membership table) and patches the
    /// state. Returns the hybrid graph's node count and the structured
    /// delta of retired and created classes.
    fn recompute(
        &mut self,
        g: &LabeledGraph,
        affected: &[u32],
        is_affected: Vec<bool>,
    ) -> (usize, PartitionDelta) {
        // ---- Build the hybrid graph. -------------------------------------
        // Hybrid node ids (and through them the ids handed out for the
        // rebuilt classes) follow class id order: one atom per unaffected
        // live class, then the members of the affected classes.
        // It is collected as a label column and an edge list and frozen
        // straight into the CSR the kernel sweeps.
        let mut labels: Vec<Label> = Vec::new();
        let mut units: Vec<Unit> = Vec::new();
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut atom_of_class = vec![NO_ATOM; self.id_space()];
        for c in 0..self.id_space() {
            if !self.active[c] || is_affected[c] {
                continue;
            }
            let h = NodeId::new(units.len());
            labels.push(E::class_label(self.payload[c]));
            units.push(Unit::Atom(c as u32));
            atom_of_class[c] = h.0;
            if E::cyclic(self.payload[c]) {
                // A cyclic class reaches itself via non-empty paths; the self
                // loop keeps that visible to the equivalence computation.
                edges.push((h, h));
            }
        }
        for &c in affected {
            for &v in &self.members[c as usize] {
                self.hybrid_of_node[v.index()] = units.len() as u32;
                labels.push(E::node_label(g, v));
                units.push(Unit::Member(v));
            }
        }

        // Edges between unaffected classes are their rows (self entries
        // included, where the relation keeps them).
        for (a, row) in self.out_rows.iter().enumerate() {
            let ha = atom_of_class[a];
            if ha == NO_ATOM {
                continue;
            }
            for &(b, _) in row {
                let hb = atom_of_class[b as usize];
                if hb != NO_ATOM {
                    edges.push((NodeId(ha), NodeId(hb)));
                }
            }
        }
        // Edges incident to affected members come from the (already updated)
        // data graph adjacency of exactly those members.
        for &c in affected {
            for &v in &self.members[c as usize] {
                let hv = NodeId(self.hybrid_of_node[v.index()]);
                for &w in g.out_neighbors(v) {
                    let hw = match atom_of_class[self.class_of(w) as usize] {
                        NO_ATOM => self.hybrid_of_node[w.index()],
                        atom => atom,
                    };
                    edges.push((hv, NodeId(hw)));
                }
                // A relation that only looks downward has no unaffected class
                // with an edge into an affected one (the affected set is closed
                // under ancestors), so its in-edges need no handling.
                if E::ANCESTOR_SENSITIVE {
                    for &z in g.in_neighbors(v) {
                        let hz = atom_of_class[self.class_of(z) as usize];
                        if hz != NO_ATOM {
                            edges.push((NodeId(hz), hv));
                        }
                    }
                }
            }
        }
        // Several member edges can land on one atom pair: the bulk load
        // sorts and deduplicates once.
        let hybrid = CsrGraph::from_edges(labels, LabelInterner::new(), edges);

        // ---- Recompute the equivalence on the hybrid graph. --------------
        let part = E::partition(&hybrid, self.threads);

        // A new class is the units behind its hybrid nodes; a lone atom is
        // an unchanged class and keeps its identity.
        let unit = |h: &NodeId| units[h.index()];
        let unchanged = |group: &[NodeId]| group.len() == 1 && unit(&group[0]).is_atom();

        // ---- Patch the maintained state. ----------------------------------
        // Classes whose composition changes: all affected classes, plus any
        // unaffected atom that merges with something else.
        let mut is_retired = is_affected;
        for group in part.members.iter().filter(|group| !unchanged(group)) {
            for h in group {
                if let Unit::Atom(c) = unit(h) {
                    is_retired[c as usize] = true;
                }
            }
        }

        // Pass A: collect the member sets of every changed group *before*
        // any class id is retired or recycled (absorbed atoms hand over
        // their member lists wholesale here).
        let mut pending: Vec<(Vec<NodeId>, E::Class)> = Vec::new();
        for (group, &class) in part.members.iter().zip(&part.payload) {
            if unchanged(group) {
                continue;
            }
            let mut member_nodes: Vec<NodeId> = Vec::new();
            for h in group {
                match unit(h) {
                    Unit::Member(v) => member_nodes.push(v),
                    // The atom's previous members move wholesale.
                    Unit::Atom(c) => {
                        member_nodes.extend(std::mem::take(&mut self.members[c as usize]))
                    }
                }
            }
            member_nodes.sort_unstable();
            pending.push((member_nodes, class));
        }

        // Pass B: retire changed classes and unlink them from the rows of
        // the classes that stay; their edges are rebuilt below from the
        // adjacency of the new classes' members. Retiring in ascending id
        // order keeps the free-id stack — and hence the ids recycled by
        // Pass C — fully deterministic.
        let removed = marked(&is_retired);
        for &c in &removed {
            self.unlink(c, &is_retired);
            self.active[c as usize] = false;
            self.members[c as usize].clear();
            self.free_ids.push(c);
        }
        self.live -= removed.len();

        // Pass C: create the new classes (recycling retired ids).
        let mut new_ids: Vec<u32> = Vec::new();
        let mut births: Vec<ClassBirth> = Vec::new();
        for (member_nodes, class) in pending {
            let id = match self.free_ids.pop() {
                Some(id) => id,
                None => {
                    self.members.push(Vec::new());
                    self.payload.push(class);
                    self.active.push(false);
                    self.out_rows.push(Vec::new());
                    self.in_rows.push(Vec::new());
                    (self.members.len() - 1) as u32
                }
            };
            for &v in &member_nodes {
                self.class_of[v.index()] = id;
            }
            births.push(ClassBirth {
                id,
                members: member_nodes.clone(),
                cyclic: E::cyclic(class),
            });
            self.members[id as usize] = member_nodes;
            self.payload[id as usize] = class;
            self.active[id as usize] = true;
            new_ids.push(id);
        }
        self.live += new_ids.len();
        self.link(g, &new_ids);

        let delta = PartitionDelta {
            removed,
            added: births,
            id_space: self.members.len(),
        };
        (units.len(), delta)
    }

    /// Empties the rows of the retiring class `c` and removes `c` from the
    /// rows of every neighbour that is not retiring with it.
    fn unlink(&mut self, c: u32, is_retired: &[bool]) {
        for (t, _) in std::mem::take(&mut self.out_rows[c as usize]) {
            if !is_retired[t as usize] {
                let row = &mut self.in_rows[t as usize];
                let at = row.binary_search(&c).expect("in-rows mirror out-rows");
                row.remove(at);
            }
        }
        for s in std::mem::take(&mut self.in_rows[c as usize]) {
            if !is_retired[s as usize] {
                let row = &mut self.out_rows[s as usize];
                let at = row
                    .binary_search_by_key(&c, |&(t, _)| t)
                    .expect("out-rows mirror in-rows");
                row.remove(at);
            }
        }
    }

    /// Builds every class-level edge incident to the classes `born`, whose
    /// rows are empty and which no other row mentions, from the adjacency
    /// of their members (`class_of` is already final). One sorted pass:
    /// the edges arrive ordered by `(source, target)`, so a born class's
    /// rows are filled by appending and only the rows of its surviving
    /// neighbours take sorted insertions.
    fn link(&mut self, g: &LabeledGraph, born: &[u32]) {
        let mut is_born = vec![false; self.id_space()];
        for &id in born {
            is_born[id as usize] = true;
        }
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for &id in born {
            for &v in &self.members[id as usize] {
                for &w in g.out_neighbors(v) {
                    let cw = self.class_of(w);
                    if E::SELF_EDGES || cw != id {
                        pairs.push((id, cw));
                    }
                }
                // Edges from another born class are that class's out-edges.
                for &z in g.in_neighbors(v) {
                    let cz = self.class_of(z);
                    if !is_born[cz as usize] {
                        pairs.push((cz, id));
                    }
                }
            }
        }
        pairs.sort_unstable();
        for run in pairs.chunk_by(|x, y| x == y) {
            let (a, b) = run[0];
            let entry = (b, run.len() as u32);
            let out = &mut self.out_rows[a as usize];
            if is_born[a as usize] {
                out.push(entry);
            } else {
                let at = out.partition_point(|&(t, _)| t < b);
                out.insert(at, entry);
            }
            let inn = &mut self.in_rows[b as usize];
            if is_born[b as usize] {
                inn.push(a);
            } else {
                let at = inn.partition_point(|&s| s < a);
                inn.insert(at, a);
            }
        }
    }

    /// Checks the maintained state against `g` (which must be the graph the
    /// last step was applied to): every row is strictly ascending with
    /// non-zero counts, in-rows mirror out-rows, inactive ids have empty
    /// rows and appear in none, `free_ids` and the active ids partition the
    /// id space, the live counter equals a scan, `members` inverts
    /// `class_of`, and the `(target, count)` entries equal a recount of
    /// `g`'s edges through `class_of` — except that a class edge `(a, b)`
    /// may be counted short, or be missing, where `implied(a, b)` holds:
    /// the caller's statement that it withheld edges between those classes
    /// from [`IncrementalQuotient::apply_effective`] because the relation
    /// does not depend on them (pass `|_, _| false` if it withholds none).
    /// `Err` names the first violation.
    pub fn check_invariants(
        &self,
        g: &LabeledGraph,
        implied: impl Fn(u32, u32) -> bool,
    ) -> Result<(), String> {
        let n = self.id_space();
        let tables = [
            self.payload.len(),
            self.active.len(),
            self.out_rows.len(),
            self.in_rows.len(),
        ];
        if tables.iter().any(|&len| len != n) {
            return Err(format!(
                "per-id tables {tables:?} disagree with id space {n}"
            ));
        }

        let mut seen = self.active.clone();
        for &c in &self.free_ids {
            if std::mem::replace(&mut seen[c as usize], true) {
                return Err(format!("free id {c} is active or listed twice"));
            }
        }
        if let Some(c) = seen.iter().position(|&s| !s) {
            return Err(format!("id {c} is neither active nor free"));
        }
        let scan = self.active.iter().filter(|&&a| a).count();
        if self.live != scan {
            return Err(format!("live counter {} but {scan} active ids", self.live));
        }

        if self.class_of.len() != g.node_count() {
            return Err("class_of does not cover the graph's nodes".to_string());
        }
        for (c, members) in self.members.iter().enumerate() {
            if !self.active[c] && !members.is_empty() {
                return Err(format!("inactive id {c} has members"));
            }
            if !members.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("members of class {c} are not strictly ascending"));
            }
            if members.iter().any(|v| self.class_of[v.index()] != c as u32) {
                return Err(format!("class {c} lists a member class_of maps elsewhere"));
            }
        }
        let listed: usize = self.members.iter().map(Vec::len).sum();
        if listed != self.class_of.len() {
            return Err(format!(
                "{listed} members listed for {} nodes",
                self.class_of.len()
            ));
        }

        let mut mirror: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (a, row) in self.out_rows.iter().enumerate() {
            if !row.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("out-row of class {a} is not strictly ascending"));
            }
            for &(b, count) in row {
                if count == 0 || !self.active.get(b as usize).is_some_and(|&live| live) {
                    return Err(format!(
                        "class edge ({a},{b}) ×{count} is empty or dangling"
                    ));
                }
                mirror[b as usize].push(a as u32);
            }
        }
        if let Some(c) = (0..n).find(|&c| mirror[c] != self.in_rows[c]) {
            return Err(format!(
                "in-row of class {c} is {:?}, the out-rows give {:?}",
                self.in_rows[c], mirror[c]
            ));
        }

        let mut recount: Vec<(u32, u32)> = g
            .edges()
            .map(|(u, v)| (self.class_of(u), self.class_of(v)))
            .filter(|&(a, b)| E::SELF_EDGES || a != b)
            .collect();
        recount.sort_unstable();
        let mut expected: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for run in recount.chunk_by(|x, y| x == y) {
            let (a, b) = run[0];
            expected[a as usize].push((b, run.len() as u32));
        }
        for (a, expected) in expected.iter().enumerate() {
            let a = a as u32;
            let untracked =
                |t: u32| format!("class edge ({a},{t}) has no edge of the graph behind it");
            let mut row = self.out_rows[a as usize].iter().peekable();
            for &(b, edges) in expected {
                let counted = match row.peek() {
                    Some(&&(t, _)) if t < b => return Err(untracked(t)),
                    Some(&&(t, count)) if t == b => {
                        row.next();
                        count
                    }
                    _ => 0,
                };
                if counted > edges || (counted < edges && !implied(a, b)) {
                    return Err(format!(
                        "class edge ({a},{b}) is counted {counted} times, \
                         the graph has {edges} such edges"
                    ));
                }
            }
            if let Some(&(t, _)) = row.next() {
                return Err(untracked(t));
            }
        }
        Ok(())
    }

    /// Dense renumbering of the active class ids (ascending id order): the
    /// stable → dense id table (meaningless at inactive ids) plus the
    /// partition expressed in dense ids (class `i` is the `i`-th active
    /// class in id order).
    pub fn dense(&self) -> (Vec<u32>, Classes<E::Class>) {
        let mut dense = vec![0u32; self.id_space()];
        let mut members: Vec<Vec<NodeId>> = Vec::new();
        let mut payload: Vec<E::Class> = Vec::new();
        for c in marked(&self.active) {
            dense[c as usize] = members.len() as u32;
            members.push(self.members[c as usize].clone());
            payload.push(self.payload[c as usize]);
        }
        let class_of = self.class_of.iter().map(|&c| dense[c as usize]).collect();
        (
            dense,
            Classes {
                class_of,
                members,
                payload,
            },
        )
    }
}

/// The ids marked in a per-id table, ascending.
fn marked(table: &[bool]) -> Vec<u32> {
    (0..table.len() as u32)
        .filter(|&c| table[c as usize])
        .collect()
}
