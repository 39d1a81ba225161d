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
//! `compression_ratio` / `snapshot_bytes_per_node` checks depend on it. So
//! nothing here that feeds an id may observe hash iteration order:
//! affected classes, quotient-edge keys and retirements are all sorted
//! before use, and the free-id stack is LIFO (`qpgc_lint`'s
//! `deterministic-iteration` rule audits this file).

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Debug;

use crate::graph::LabeledGraph;
use crate::ids::{Label, NodeId};
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
    /// bit-identical at every thread count.
    fn partition(g: &LabeledGraph, threads: usize) -> Classes<Self::Class>;
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
    /// Directed counts of original edges between classes; `(c, c)` entries
    /// exist only under [`Equivalence::SELF_EDGES`].
    q_edges: HashMap<(u32, u32), u32>,
    /// Worker count handed to the partition kernel (`0` = available
    /// parallelism). Kernel output is bit-identical at every value.
    threads: usize,
}

impl<E: Equivalence> IncrementalQuotient<E> {
    /// Partitions `g` from scratch (the batch step that is then
    /// maintained) and counts its class-level edges.
    pub fn new(g: &LabeledGraph, threads: usize) -> Self {
        let partition = E::partition(g, threads);
        let mut q_edges: HashMap<(u32, u32), u32> = HashMap::new();
        for (u, v) in g.edges() {
            let cu = partition.class_of[u.index()];
            let cv = partition.class_of[v.index()];
            if E::SELF_EDGES || cu != cv {
                *q_edges.entry((cu, cv)).or_insert(0) += 1;
            }
        }
        IncrementalQuotient {
            active: vec![true; partition.members.len()],
            class_of: partition.class_of,
            members: partition.members,
            payload: partition.payload,
            free_ids: Vec::new(),
            q_edges,
            threads,
        }
    }

    /// Number of active equivalence classes (`|Vr|`).
    pub fn class_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Size of the stable id space (`max id + 1`, holes included).
    pub fn id_space(&self) -> usize {
        self.members.len()
    }

    /// Number of distinct class-level edges currently tracked.
    pub fn quotient_edge_count(&self) -> usize {
        self.q_edges.len()
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

    /// The distinct class-level edges, sorted by `(source, target)` stable
    /// id — sorted so that nothing materialized from them is a hash-order
    /// artifact.
    pub fn sorted_edges(&self) -> Vec<(u32, u32)> {
        let mut edges: Vec<(u32, u32)> = self.q_edges.keys().copied().collect();
        edges.sort_unstable();
        edges
    }

    /// Class-level adjacency lists over the tracked edges (`forward`
    /// follows edges, otherwise they are reversed). Neighbor-list order is
    /// hash order: use it only for traversals whose result is a set or a
    /// bool.
    pub fn adjacency(&self, forward: bool) -> HashMap<u32, Vec<u32>> {
        let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
        // qpgc-lint: allow(deterministic-iteration) -- the adjacency only
        // drives BFS traversals (`cone` below, `class_reaches` on the
        // reachability side) whose results are a visited *set* or a bool:
        // both are identical under any edge visit order, every consumer of
        // a cone sorts before order matters (`affected_sorted` in
        // `recompute`), and sorting here would tax the per-query path.
        for &(a, b) in self.q_edges.keys() {
            if forward {
                adj.entry(a).or_default().push(b);
            } else {
                adj.entry(b).or_default().push(a);
            }
        }
        adj
    }

    /// Multi-source BFS over class-level edges; `forward` follows edges,
    /// otherwise reverse edges. Returns every class reached *including*
    /// the sources.
    fn cone(&self, sources: &HashSet<u32>, forward: bool) -> HashSet<u32> {
        let adj = self.adjacency(forward);
        let mut visited: HashSet<u32> = sources.clone();
        // qpgc-lint: allow(deterministic-iteration) -- seed order only
        // permutes the BFS schedule; the visited-set fixpoint it computes
        // is order-insensitive.
        let mut queue: VecDeque<u32> = sources.iter().copied().collect();
        while let Some(c) = queue.pop_front() {
            if let Some(next) = adj.get(&c) {
                for &d in next {
                    if visited.insert(d) {
                        queue.push_back(d);
                    }
                }
            }
        }
        visited
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
        let up_sources: HashSet<u32> = updates.iter().map(|&(a, _)| self.class_of(a)).collect();
        let mut affected = self.cone(&up_sources, false);
        if E::ANCESTOR_SENSITIVE {
            let down_sources: HashSet<u32> =
                updates.iter().map(|&(_, b)| self.class_of(b)).collect();
            affected.extend(self.cone(&down_sources, true));
        }
        let mut stats = IncStats {
            effective_updates: updates.len(),
            affected_classes: affected.len(),
            // qpgc-lint: allow(deterministic-iteration) -- a commutative
            // sum over set members: any iteration order yields the same
            // total.
            affected_nodes: affected
                .iter()
                .map(|&c| self.members[c as usize].len())
                .sum(),
            ..IncStats::default()
        };
        let (hybrid_nodes, delta) = self.recompute(g, &affected);
        stats.hybrid_nodes = hybrid_nodes;
        stats.changed_classes = delta.added.len();
        (stats, delta)
    }

    /// Rebuilds the relation inside the affected region and patches the
    /// state. Returns the hybrid graph's node count and the structured
    /// delta of retired and created classes.
    fn recompute(&mut self, g: &LabeledGraph, affected: &HashSet<u32>) -> (usize, PartitionDelta) {
        // ---- Build the hybrid graph. -------------------------------------
        let mut hybrid = LabeledGraph::new();
        let mut units: Vec<Unit> = Vec::new();
        let mut atom_of_class: HashMap<u32, NodeId> = HashMap::new();
        let mut hybrid_of_node: HashMap<NodeId, NodeId> = HashMap::new();

        for c in 0..self.members.len() as u32 {
            if !self.active[c as usize] || affected.contains(&c) {
                continue;
            }
            let h = hybrid.add_node(E::class_label(self.payload[c as usize]));
            units.push(Unit::Atom(c));
            atom_of_class.insert(c, h);
            if E::cyclic(self.payload[c as usize]) {
                // A cyclic class reaches itself via non-empty paths; the self
                // loop keeps that visible to the equivalence computation.
                hybrid.add_edge(h, h);
            }
        }
        // Iterate affected classes in sorted order: hybrid node ids (and
        // through them the ids handed out for the rebuilt classes) must not
        // depend on hash-set iteration order, so that identical update
        // streams always produce identical stable ids — the property the
        // serving layer's snapshot differential relies on.
        let mut affected_sorted: Vec<u32> = affected.iter().copied().collect();
        affected_sorted.sort_unstable();
        let mut exploded: Vec<NodeId> = Vec::new();
        for &c in &affected_sorted {
            for &v in &self.members[c as usize] {
                let h = hybrid.add_node(E::node_label(g, v));
                units.push(Unit::Member(v));
                hybrid_of_node.insert(v, h);
                exploded.push(v);
            }
        }

        // Edges between unaffected classes come from the maintained
        // class-level edge counters (self entries included, where the
        // relation keeps them), iterated in sorted order: the hybrid
        // graph's adjacency feeds the equivalence recomputation that hands
        // out stable ids, so nothing about its construction may depend on
        // hash iteration order.
        for &(a, b) in &self.sorted_edges() {
            if let (Some(&ha), Some(&hb)) = (atom_of_class.get(&a), atom_of_class.get(&b)) {
                hybrid.add_edge(ha, hb);
            }
        }
        // Edges incident to affected members come from the (already updated)
        // data graph adjacency of exactly those members.
        for &v in &exploded {
            let hv = hybrid_of_node[&v];
            for &w in g.out_neighbors(v) {
                let hw = match hybrid_of_node.get(&w) {
                    Some(&h) => h,
                    None => atom_of_class[&self.class_of(w)],
                };
                hybrid.add_edge(hv, hw);
            }
            // A relation that only looks downward has no unaffected class
            // with an edge into an affected one (the affected set is closed
            // under ancestors), so its in-edges need no handling.
            if E::ANCESTOR_SENSITIVE {
                for &z in g.in_neighbors(v) {
                    if !hybrid_of_node.contains_key(&z) {
                        let hz = atom_of_class[&self.class_of(z)];
                        hybrid.add_edge(hz, hv);
                    }
                }
            }
        }

        // ---- Recompute the equivalence on the hybrid graph. --------------
        let part = E::partition(&hybrid, self.threads);

        // Group hybrid units by their new class.
        let mut groups: Vec<Vec<Unit>> = vec![Vec::new(); part.members.len()];
        for (i, &unit) in units.iter().enumerate() {
            groups[part.class_of[i] as usize].push(unit);
        }
        // A lone atom is an unchanged class: it keeps its identity.
        let unchanged = |group: &[Unit]| group.len() == 1 && group[0].is_atom();

        // ---- Patch the maintained state. ----------------------------------
        // Classes whose composition changes: all affected classes, plus any
        // unaffected atom that merges with something else.
        let mut retired: HashSet<u32> = affected.clone();
        for group in groups.iter().filter(|group| !unchanged(group)) {
            for unit in group {
                if let Unit::Atom(c) = unit {
                    retired.insert(*c);
                }
            }
        }

        // Pass A: collect the member sets of every changed group *before*
        // any class id is retired or recycled (absorbed atoms hand over
        // their member lists wholesale here). Origins record which retired
        // classes each group's members came from, for the delta export.
        let mut pending: Vec<(Vec<NodeId>, E::Class, Vec<u32>)> = Vec::new();
        for (gi, group) in groups.iter().enumerate() {
            if unchanged(group) {
                continue;
            }
            let mut member_nodes: Vec<NodeId> = Vec::new();
            let mut origins: Vec<u32> = Vec::new();
            for unit in group {
                match unit {
                    Unit::Member(v) => {
                        origins.push(self.class_of[v.index()]);
                        member_nodes.push(*v);
                    }
                    Unit::Atom(c) => {
                        // The atom's previous members move wholesale.
                        origins.push(*c);
                        let old = std::mem::take(&mut self.members[*c as usize]);
                        member_nodes.extend(old);
                    }
                }
            }
            member_nodes.sort_unstable();
            origins.sort_unstable();
            origins.dedup();
            pending.push((member_nodes, part.payload[gi], origins));
        }

        // Pass B: retire changed classes and drop the class-level edges
        // touching them; they are rebuilt below from the adjacency of the
        // new classes' members. Retiring in sorted id order keeps the
        // free-id stack — and hence the ids recycled by Pass C — fully
        // deterministic.
        self.q_edges
            .retain(|&(a, b), _| !retired.contains(&a) && !retired.contains(&b));
        let mut removed: Vec<u32> = retired.into_iter().collect();
        removed.sort_unstable();
        for &c in &removed {
            self.active[c as usize] = false;
            self.members[c as usize].clear();
            self.free_ids.push(c);
        }

        // Pass C: create the new classes (recycling retired ids).
        let mut new_ids: Vec<u32> = Vec::new();
        let mut births: Vec<ClassBirth> = Vec::new();
        for (member_nodes, class, origins) in pending {
            let id = match self.free_ids.pop() {
                Some(id) => id,
                None => {
                    self.members.push(Vec::new());
                    self.payload.push(class);
                    self.active.push(false);
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
                origins,
            });
            self.members[id as usize] = member_nodes;
            self.payload[id as usize] = class;
            self.active[id as usize] = true;
            new_ids.push(id);
        }

        // Rebuild class-level edge counters incident to the new classes.
        let new_set: HashSet<u32> = new_ids.iter().copied().collect();
        for &id in &new_ids {
            // Iterate over a snapshot because `class_of` is already final.
            let members = self.members[id as usize].clone();
            for v in members {
                for &w in g.out_neighbors(v) {
                    let cw = self.class_of(w);
                    if E::SELF_EDGES || cw != id {
                        *self.q_edges.entry((id, cw)).or_insert(0) += 1;
                    }
                }
                for &z in g.in_neighbors(v) {
                    let cz = self.class_of(z);
                    if cz != id && !new_set.contains(&cz) {
                        *self.q_edges.entry((cz, id)).or_insert(0) += 1;
                    }
                }
            }
        }

        let delta = PartitionDelta {
            removed,
            added: births,
            id_space: self.members.len(),
        };
        (units.len(), delta)
    }

    /// Dense renumbering of the active class ids (ascending id order): the
    /// stable → dense id map plus the partition expressed in dense ids
    /// (class `i` is the `i`-th active class in id order).
    pub fn dense(&self) -> (HashMap<u32, u32>, Classes<E::Class>) {
        let mut dense: HashMap<u32, u32> = HashMap::new();
        let mut members: Vec<Vec<NodeId>> = Vec::new();
        let mut payload: Vec<E::Class> = Vec::new();
        for c in 0..self.members.len() as u32 {
            if self.active[c as usize] {
                dense.insert(c, members.len() as u32);
                members.push(self.members[c as usize].clone());
                payload.push(self.payload[c as usize]);
            }
        }
        let mut class_of = vec![0u32; self.class_of.len()];
        for (v, &c) in self.class_of.iter().enumerate() {
            class_of[v] = dense[&c];
        }
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
