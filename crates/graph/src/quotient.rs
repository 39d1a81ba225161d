//! The equivalence-independent skeleton of incremental quotient
//! maintenance (Section 5): what `incRCM` and `incPCM` share.
//!
//! The paper defines one framework — a query preserving compression
//! `⟨R, F, P⟩` whose `R` quotients `G` by an equivalence relation — and
//! instantiates it twice (reachability equivalence, bisimilarity). Its two
//! maintainers are the same four steps: normalise `ΔG`; **locate** what the
//! batch can have disturbed — the classes on cones over the *old*
//! quotient, or for bisimilarity the nodes that reach an update (B1);
//! **cut** them into units — the sets of nodes that provably stay
//! together; **regroup** the units, with everything outside the cut as it
//! is, into the new classes; and **splice** the groups back under
//! **stable** class ids.
//!
//! [`IncrementalQuotient`] is those steps, once. Everything that depends on
//! *which* relation is maintained is an item of the [`Equivalence`] trait,
//! and every such item is a fact about the relation (what a class carries,
//! whether ancestors matter, how to partition a graph) — never about the
//! caller. The regroup every relation has is the relation's own batch
//! kernel run on a **hybrid graph** (one atom per class outside the cut
//! plus the units — [`IncrementalQuotient::regroup_hybrid`]); a relation
//! that can name the new classes without a node per unaffected class passes
//! its shortcut to [`IncrementalQuotient::apply_effective`] instead:
//! `incRCM` its held closure, `incPCM`
//! [`IncrementalQuotient::regroup_keyed`], a lookup per unit of its key
//! among the rows (B2).
//! `qpgc_reach::incremental::IncrementalReach` and
//! `qpgc_pattern::incremental::IncrementalPattern` wrap one instantiation
//! each and add only what genuinely differs (redundant-update reduction,
//! the held closure it regroups against and the transitively reduced
//! export on one side; the label interner and member-list export on the
//! other).
//!
//! ## Determinism
//!
//! Stable class ids must be a pure function of the update stream — the
//! serving layer's snapshot differentials and the benchmark's
//! `compression_ratio` / `snapshot_bytes_per_node` checks depend on it. The
//! maintained state is therefore free of hash collections: the class-level
//! edges live in per-id **rows** (`out_rows[c]` — `(target, count)` pairs,
//! `in_rows[c]` — sources), every row sorted ascending by class id, and
//! every scratch table of a maintenance step (cone marks, unit and atom
//! lookups, retirements, births) is a vector indexed by class or node id,
//! or an ordered map. Whatever feeds an id — the affected classes, the
//! units and the order of the groups a regroup returns, retirements, the
//! LIFO free-id stack — is read off those vectors in ascending id order, so
//! there is no iteration order to leak (the module denies
//! `clippy::disallowed_types`, so a hash collection here fails the clippy
//! gate). Units are numbered by (class id, first member) and a group is
//! spliced where the batch kernel's first-seen numbering would meet its
//! first node — the atom of the class it absorbs, else its first unit; the
//! key regroup splices the groups that join a class by that class's id,
//! then its own in the order it formed them. All regroups give the same
//! partition; the closure and key paths also keep the ids of the affected
//! classes they find unchanged (L7′ in `qpgc_reach::closure`, B2 below),
//! which the hybrid path retires and bears again, so from that step on the
//! paths' ids differ.
//!
//! ## Why the cut is sound
//!
//! Write `T` for the classes that reach the class of an update's source
//! and `B` for those reached from the class of an update's target, both
//! over the old quotient and including the end classes (`B` is empty for a
//! [`Equivalence::KEYED`] relation); `A` for the members of `T ∪ B` — the
//! affected nodes — and `U` for the rest; `G′` for the updated graph. For
//! reachability equivalence (bisimilarity has the downward halves):
//!
//! **L1 (frozen cones).** `x ∈ U` ⇒ `desc′(x) = desc(x)` and
//! `anc′(x) = anc(x)` as node sets. A path from `x` that exists on one side
//! of the batch only has a first changed edge `(u, w)`, and `x` reaches `u`
//! by old edges: `x ∈ T`. So an unaffected class survives, unaffected
//! classes stay pairwise inequivalent, and whatever described the cones of
//! an unaffected class before the batch — its atom's edges in a hybrid
//! graph, its row in a closure — describes them after it. (Over old class
//! ids, an affected id in such a description stands for *all* of the old
//! class: old-equivalent nodes share their ancestors.)
//!
//! **L2 (no mixed SCC).** A strongly connected component of `G′` lies
//! inside one unaffected class or inside `A`: if `x ∈ U` and `y ∈ A` reach
//! each other then `y ∉ T` (else `x ∈ T`), so `desc′(y) = desc(y)`, they
//! were mutually reachable before and shared an old class. Cycles are
//! therefore found by condensing the units alone.
//!
//! **L3 (units — what cannot split is not exploded).** (a) A *cyclic*
//! affected class none of whose internal edges the batch deletes is still
//! strongly connected (paths between members of an SCC stay inside it): it
//! is kept whole, one unit, and its members are not scanned — its outside
//! neighbours are its old rows with the batch counted in, and the exploded
//! members whose own scan met it. (b) Read a
//! neighbour as its class id if that class is unaffected or kept whole —
//! reach one of its members and you reach them all — and as the node
//! itself otherwise. Members of one exploded class with the same out- and
//! the same in-neighbour sets under that reading have the same cones in
//! `G′`: one unit, and the first member's adjacency speaks for it (for
//! bisimilarity: same label — they shared a class — and out-neighbours
//! only). On `churn_wikitalk` two classes of 969 (cyclic) and ≈ 600
//! (acyclic) members are affected by every batch: 1 553 affected members
//! a batch are 164 units for 151 classes, and the cut scans the ≈ 580
//! exploded ones.
//!
//! Mapping a node to its unit, or to the atom of its unaffected class,
//! therefore preserves the relation, which is why the hybrid regroup is
//! exact; `qpgc_reach::closure` continues with L4 and L5, which replace the
//! atoms by closure rows, L6, which patches them, and L7′, which keeps the
//! id of an affected class that comes back with its members.
//!
//! ## Bisimilarity: nodes, not classes
//!
//! For a [`Equivalence::KEYED`] relation a class is not a cone's unit:
//! bisimilar nodes share their successor classes, not their ancestors, so
//! the class-level cone of an update holds nodes no update reaches. Write
//! `S` for the sources of the effective updates, `A` — now a node set —
//! for the nodes that reach `S`, and `U = V ∖ A`. `A` is the same in `G`
//! and `G′` (take a path's first changed edge), found by a walk over `G′`'s
//! in-edges.
//!
//! **B1 (untouched nodes keep their behaviour).** `U` is closed under
//! successors in both graphs, and the subgraph below `x ∈ U` is unchanged.
//! So (i) the `U`-members of an old class stay one class, (ii) the
//! `U`-parts of distinct old classes stay apart, (iii) no edge runs from
//! `U` into `A`, and (iv) a class with a `U`-member keeps its key —
//! `(label, out-row targets)` over the old ids — because every member of
//! a bisimulation class has the same successor-class set, and each target
//! then has a `U`-member too. The cut takes `A` only; a class's `U`-part
//! stays under its old id (its atom, should the hybrid kernel run).
//!
//! **B2 (keys).** A bisimulation quotient is its own coarsest partition:
//! no two live classes share a key, its own id in its row read as a
//! `SELF` token. The step places the units of `A` bottom-up, one strongly
//! connected component of the unit graph at a time in reverse topological
//! order, with its successors placed. An acyclic unit's key is its label
//! and its successors' ids: a hit names the class it joins, a miss forms a
//! new group under a provisional id. A cyclic component is one group
//! exactly when its units share a label and either their successors
//! outside it are equal (key with `SELF` — a lookup can only find a class
//! whose row holds itself) or they become equal with one self-looped
//! successor class added, which they then join. Any other cyclic component
//! splits into several groups, and the step falls back to the hybrid
//! kernel, counted in [`IncStats::hybrid_fallbacks`]. A class whose member
//! set the step did not change keeps its id: by (iv) a class with a
//! `U`-member then also keeps its key; a class wholly inside `A` keeps its
//! id only if its key over the kept ids is its old key, so a step that
//! retires and bears nothing left the quotient graph as it was. On
//! `pattern_citation` a batch reaches 18.7 nodes in 16.4 of ≈ 770 classes;
//! it bears 24.8.
//!
//! The rows answer a lookup. A class whose key holds an old id `s` lies in
//! `s`'s in-row, so the shortest such in-row holds every candidate. A key
//! with no successor but `SELF` — a sink, `(label, [])`, or a class whose
//! only successor is itself, `(label, [SELF])` — is at most one class per
//! label and kind, which a per-label table notes as it is born: a class
//! that keeps its id keeps its key, so no other class becomes rowless, and
//! an entry whose id was since retired or recycled fails the key check on
//! read. A class wholly inside `A` is passed over: its key is stale.
//!
//! ## Cost
//!
//! Rows are the only representation of the class-level edges: the cone
//! walks, class-level reachability probes, the hybrid graph's atom edges
//! and the stable exports all read them in place. A step updates them in
//! `O(deg)` per retired or born class — a retired class is unlinked from
//! its neighbours' rows, a born class's rows are rebuilt from its members'
//! adjacency — and in `O(log deg)` per update between two classes it
//! neither retired nor bore (a kept class is never relinked), so locate,
//! cut and splice are paid for the affected region (the adjacency of its
//! exploded members, and the rows of the classes kept whole), not for
//! `|Er|`. Every count is exact: an update the caller withholds is counted
//! too.
//!
//! The regroup is what differs. On the hybrid graph it costs one pass over
//! all rows to collect the atoms' edges, one counting-sort bulk load
//! ([`CsrGraph::from_edges`]) and one run of [`Equivalence::partition`] on
//! `|Vr| − |AFF| + #units` nodes — for reachability equivalence a closure,
//! however small the batch. That is the path of a bisimulation step whose
//! units close a cycle that splits, and the reference the closure regroup
//! is tested against. `incRCM` regroups against the closure of the old
//! quotient, which it holds at every size: per unit the closure rows of its
//! distinct unaffected neighbours, plus an intersection of two closure
//! rows per group that may absorb — no node for any unaffected class
//! ([`IncStats::hybrid_nodes`] is then the unit count). Keeping that closure
//! current is paid for the batch too: the step patches the rows and columns
//! of the classes it retired, created and rewired, and never sweeps
//! (`qpgc_reach::closure`, lemma L6). An affected class that the closure
//! regroup finds with its members keeps its id and is not relinked: a batch
//! that changes no class splices, patches and republishes nothing.
//!
//! Bisimilarity regroups through its keys: one condensation of the unit
//! graph, and per unit one sort of its placed successors and one lookup —
//! a scan of the shortest in-row of its successors, comparing each
//! candidate's row (over `pattern_citation`'s quotient that in-row holds
//! 1.8 classes on average, and at most 128 over the Table 2 emulators at
//! ÷10) — so nothing per class outside the cut. On `pattern_citation` a
//! step costs ≈ 64 µs against ≈ 770 µs on the hybrid graph, two thirds of
//! it the relink of the classes that change. No key state but the
//! per-label table of rowless classes is kept between steps, and the step
//! refreshes it from the classes it bears.

#![deny(clippy::disallowed_types)]

use std::collections::BTreeMap;
use std::fmt::Debug;

use crate::csr::CsrGraph;
use crate::graph::LabeledGraph;
use crate::ids::{Label, LabelInterner, NodeId};
use crate::scc::Condensation;
use crate::update::PartitionDelta;

/// A partition of a graph's nodes under dense class ids
/// `0..members.len()`, with the relation's per-class payload alongside:
/// the one partition type of both relations. Both batch kernels return it
/// (`qpgc_reach`'s `reachability_partition` as `Classes<bool>`, the cyclic
/// flag; `qpgc_pattern`'s `bisimulation_partition_csr` as `Classes<Label>`,
/// the shared label).
#[derive(Clone, Debug)]
pub struct Classes<C> {
    /// `class_of[v]` — dense class id of node `v`.
    pub class_of: Vec<u32>,
    /// Members per class, ascending node order.
    pub members: Vec<Vec<NodeId>>,
    /// The relation's payload per class ([`Equivalence::Class`]).
    pub payload: Vec<C>,
}

impl<C> Classes<C> {
    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.members.len()
    }

    /// The class id of node `v`.
    pub fn class_of(&self, v: NodeId) -> u32 {
        self.class_of[v.index()]
    }
}

/// The equivalence relation an [`IncrementalQuotient`] maintains. Every
/// item states a property of the relation itself.
pub trait Equivalence {
    /// What a class of this relation carries besides its members: the
    /// cyclic flag for reachability equivalence (do the members reach
    /// themselves by a non-empty path), the shared node label for
    /// bisimilarity.
    type Class: Copy + Debug;

    /// Whether two nodes are equivalent exactly when they carry one label
    /// and their successors fall in the same classes (bisimilarity). It
    /// decides three things at once, which no relation maintained here
    /// needs apart:
    /// - *locate*: only the nodes that reach an update source can change
    ///   class (B1 of the module header), so a keyed step locates node by
    ///   node; an unkeyed one (reachability equivalence) compares ancestor
    ///   sets too, so an update `(u, w)` disturbs the ancestors of `[u]`
    ///   **and** the descendants of `[w]`, and a node's in-edges are part
    ///   of its identity;
    /// - *regroup*: no two classes share that key (B2), so the quotient
    ///   regroups by looking keys up among its rows
    ///   ([`IncrementalQuotient::regroup_keyed`]);
    /// - *self edges*: a keyed quotient relates a class to itself through
    ///   an ordinary quotient edge — an intra-class edge is a hypernode self
    ///   loop that pattern matching must see, so `(c, c)` is counted like
    ///   any other class pair — while an unkeyed one is a DAG over classes
    ///   and keeps self-reachability in [`Equivalence::cyclic`].
    ///
    /// The payload of a keyed relation is its class label.
    const KEYED: bool;

    /// Whether a class with this payload reaches itself by a non-empty
    /// path that the quotient edges do not already record — the atom self
    /// loop of the hybrid graph, and the cyclic flag of a reachability
    /// class. Always `false` for a [`Equivalence::KEYED`] relation.
    fn cyclic(class: Self::Class) -> bool;

    /// The node label a whole class presents to the relation (constant
    /// for label-blind relations).
    fn class_label(class: Self::Class) -> Label;

    /// The node label `v` presents to the relation (constant for
    /// label-blind relations).
    fn node_label(g: &LabeledGraph, v: NodeId) -> Label;

    /// The batch kernel: the relation's partition of `g`, a pure function
    /// of `g` computed on the calling thread. It takes the frozen form
    /// because every kernel is a read-only whole-graph sweep: the quotient
    /// freezes the data graph once and builds each hybrid graph as a CSR
    /// directly.
    fn partition(g: &CsrGraph) -> Classes<Self::Class>;
}

/// Statistics of one incremental maintenance step (either relation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncStats {
    /// Number of normalized updates the step maintained: the ones it
    /// recomputed from and the ones it only counted in the rows.
    pub effective_updates: usize,
    /// Number of those updates dropped from the recomputation as
    /// redundant, the `implied` ones of
    /// [`IncrementalQuotient::apply_effective`]: for reachability, the
    /// insertions the old closure already implies and the deletions off its
    /// transitive reduction; always `0` for bisimulation, which has no
    /// such rule.
    pub redundant_dropped: usize,
    /// Number of affected equivalence classes: the classes the step cut
    /// into units, all retired but those it kept (an absorbed
    /// unaffected class is not one). For a [`Equivalence::KEYED`] relation
    /// this is node-level: the classes with a member that reaches an update
    /// source.
    pub affected_classes: usize,
    /// Number of original nodes the step cut into units: the members of
    /// the affected classes, or for a [`Equivalence::KEYED`] relation the
    /// nodes that reach an update source.
    pub affected_nodes: usize,
    /// Number of nodes of the graph the step regrouped on (`0` when it
    /// recomputed nothing): on the hybrid path one atom per live class with
    /// a member outside the cut plus one node per unit of the [`Cut`]; the
    /// units alone when the relation regrouped them without the hybrid
    /// graph (`incRCM` against its held closure, `incPCM` by its keys).
    /// The name predates the other paths.
    pub hybrid_nodes: usize,
    /// Number of steps whose keyed regroup fell back to the hybrid kernel
    /// (a cycle of units that splits into several classes); `0` or `1` for
    /// one step.
    pub hybrid_fallbacks: usize,
    /// Number of classes the step created (`PartitionDelta::born`). A
    /// regroup that names the groups it keeps bears exactly the classes
    /// whose members or cyclic flag (for a [`Equivalence::KEYED`] relation,
    /// members or key) the batch changed; with the rewired ones that is
    /// `|ΔVr|`, the class side of the paper's `|ΔGr|`. The hybrid regroup
    /// bears every group it forms.
    pub changed_classes: usize,
    /// Number of classes the step kept with their members and cyclic flag
    /// but new cones (`PartitionDelta::rewired`; `incRCM` against its held
    /// closure only): neither retired nor born, their class-level edges
    /// rewritten.
    pub rewired_classes: usize,
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
            hybrid_fallbacks: self.hybrid_fallbacks + other.hybrid_fallbacks,
            changed_classes: self.changed_classes + other.changed_classes,
            rewired_classes: self.rewired_classes + other.rewired_classes,
        }
    }
}

/// The affected region of one maintenance step, cut into **units**: the
/// sets of nodes the step already knows to stay together (lemma L3 of the
/// module header). A unit is a cyclic affected class the batch deletes no
/// internal edge of (*kept whole*), or the cut members of one exploded
/// affected class that share their out- and in-neighbourhoods. The cut
/// members of a class are all of them, or for a [`Equivalence::KEYED`]
/// relation those that reach an update source; the others stay under the
/// class's id (B1). Units are numbered by (class id, first member); the
/// units of one class are contiguous.
///
/// The cut also carries the unit graph a regroup runs on: the edges between
/// units, and per unit the classes *outside the cut* it has an edge to and
/// from — read off the adjacency of one member per unit (every member of a
/// class kept whole).
#[derive(Clone, Debug)]
pub struct Cut {
    /// Membership table of the affected classes (those with a cut member),
    /// by (old) class id.
    is_affected: Vec<bool>,
    /// Membership table of the classes every member of which is cut.
    is_whole: Vec<bool>,
    /// The affected classes, ascending.
    affected: Vec<u32>,
    /// `units_of_class[c]` — the units of class `c`, as a range of unit ids
    /// (empty at unaffected ids).
    units_of_class: Vec<(u32, u32)>,
    /// The class each unit was cut from.
    class_of_unit: Vec<u32>,
    /// CSR offsets into `member_list`, one range per unit.
    member_offsets: Vec<u32>,
    /// Members of every unit, ascending within the unit.
    member_list: Vec<NodeId>,
    /// The edges between units, duplicates and self loops included; a unit
    /// kept whole has a self loop.
    edges: Vec<(u32, u32)>,
    /// CSR offsets into `out_classes` / `in_classes`, one range per unit.
    out_offsets: Vec<u32>,
    in_offsets: Vec<u32>,
    /// Per unit, ascending: the classes outside the cut it has an edge to …
    out_classes: Vec<u32>,
    /// … and, unless the relation is [`Equivalence::KEYED`], from.
    in_classes: Vec<u32>,
}

impl Cut {
    /// Size of the (pre-step) stable id space the cut was taken over.
    pub fn id_space(&self) -> usize {
        self.is_affected.len()
    }

    /// Number of units.
    pub fn unit_count(&self) -> usize {
        self.class_of_unit.len()
    }

    /// The affected classes, ascending.
    pub fn affected(&self) -> &[u32] {
        &self.affected
    }

    /// Whether class `c` is affected.
    pub fn is_affected(&self, c: u32) -> bool {
        self.is_affected[c as usize]
    }

    /// Whether every member of class `c` is cut: the class has no part
    /// left under its id.
    fn is_whole(&self, c: u32) -> bool {
        self.is_whole[c as usize]
    }

    /// Whether the ascending unit list `units` is exactly the units class
    /// `c` was cut into.
    fn is_own(&self, c: u32, units: &[u32]) -> bool {
        let own = self.units_of_class(c);
        let at = |u: Option<&u32>| u.map(|&u| u as usize);
        units.len() == own.len()
            && at(units.first()) == Some(own.start)
            && at(units.last()) == own.end.checked_sub(1)
    }

    /// The units class `c` was cut into (empty for an unaffected class).
    pub fn units_of_class(&self, c: u32) -> std::ops::Range<usize> {
        let (lo, hi) = self.units_of_class[c as usize];
        lo as usize..hi as usize
    }

    /// The affected class unit `u` was cut from.
    pub fn class_of_unit(&self, u: usize) -> u32 {
        self.class_of_unit[u]
    }

    /// Members of unit `u`, ascending.
    pub fn members(&self, u: usize) -> &[NodeId] {
        &self.member_list[self.member_offsets[u] as usize..self.member_offsets[u + 1] as usize]
    }

    /// The edges between units (duplicates and self loops included).
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// The classes outside the cut unit `u` has an edge to, ascending.
    pub fn out_classes(&self, u: usize) -> &[u32] {
        &self.out_classes[self.out_offsets[u] as usize..self.out_offsets[u + 1] as usize]
    }

    /// The classes outside the cut with an edge to unit `u`, ascending
    /// (empty for a [`Equivalence::KEYED`] relation).
    pub fn in_classes(&self, u: usize) -> &[u32] {
        &self.in_classes[self.in_offsets[u] as usize..self.in_offsets[u + 1] as usize]
    }
}

/// One rebuilt class as a regroup returns it: the units it is made of and,
/// at most, one unaffected class that joins them.
#[derive(Clone, Debug)]
pub struct Group<C> {
    /// The units of the group, ascending.
    pub units: Vec<u32>,
    /// The class whose members outside the cut the group absorbs (which is
    /// thereby retired), if any: an unaffected class, or the part of an
    /// affected class of a [`Equivalence::KEYED`] relation that does not
    /// reach an update source.
    pub absorbs: Option<u32>,
    /// The affected class the group *is*, when the regroup can tell: its
    /// units are exactly that class's, with its cyclic flag, and it absorbs
    /// nothing (lemma L7′ of `qpgc_reach::closure`: its cones may have
    /// moved), or for a [`Equivalence::KEYED`] relation its members and key
    /// are the class's (B2). The class then keeps its id and is neither
    /// retired nor born.
    pub unchanged: Option<u32>,
    /// The relation's payload of the rebuilt class.
    pub class: C,
}

/// What a regroup hands back to [`IncrementalQuotient::apply_effective`].
#[derive(Clone, Debug)]
pub struct Regrouped<C> {
    /// Number of nodes of the graph the relation was recomputed on
    /// ([`IncStats::hybrid_nodes`]).
    pub nodes: usize,
    /// The rebuilt classes **in splice order** — the order stable ids are
    /// handed out in, skipping the unchanged groups: groups that absorb a
    /// class first, ascending by that class's id, then the others (by
    /// first unit on the hybrid and closure paths, in the order the key
    /// regroup formed them on its own).
    pub groups: Vec<Group<C>>,
    /// Whether a keyed regroup fell back to the hybrid kernel
    /// ([`IncStats::hybrid_fallbacks`]).
    pub fallback: bool,
}

/// The neighbourhood of one proto-unit (an exploded member, or a class kept
/// whole) as sorted token runs in a shared buffer: `start..mid` its
/// out-neighbours, `mid..end` its in-neighbours. `hash` folds both runs: it
/// orders proto-units so that equal neighbourhoods end up adjacent without
/// comparing token runs that differ — only an order to sort by, equality is
/// decided on the runs themselves.
struct Span {
    first: NodeId,
    start: usize,
    mid: usize,
    end: usize,
    hash: u64,
}

/// An FxHash-style multiply–rotate fold of two token runs.
fn fold_tokens(out: &[u32], inn: &[u32]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let fold = |h: u64, &t: &u32| (h.rotate_left(5) ^ u64::from(t)).wrapping_mul(K);
    let h = out.iter().fold(out.len() as u64, fold);
    inn.iter().fold(h.rotate_left(32), fold)
}

/// Pushes onto `tokens`, sorted, one direction of the neighbourhood of a
/// class kept whole after the batch. First the neighbour classes `keep`
/// accepts: those of `row` — its old neighbours, ascending — that the
/// batch's `steps` (`(_, (neighbour, ±1))` per original edge, ascending)
/// leave with an edge, `count` reading how many they had, and those the
/// steps give their first. Then the exploded members that `met` it
/// (`(_, member token)`, ascending per exploded class), merged.
fn whole_tokens(
    row: impl Iterator<Item = u32>,
    count: impl Fn(u32) -> u32,
    steps: &[(u32, (u32, i32))],
    met: &[(u32, u32)],
    keep: impl Fn(u32) -> bool,
    tokens: &mut Vec<u32>,
) {
    let mut nets: Vec<(u32, i64)> = Vec::new();
    for &(_, (b, step)) in steps {
        match nets.last_mut() {
            Some((last, net)) if *last == b => *net += i64::from(step),
            _ => nets.push((b, i64::from(step))),
        }
    }
    let mut nets = nets.into_iter().peekable();
    // The net step of `b`, after pushing the classes below it that the
    // steps give a first edge.
    let mut net_at = |b: Option<u32>, tokens: &mut Vec<u32>| {
        while let Some((t, net)) = nets.next_if(|&(t, _)| b.is_none_or(|b| t < b)) {
            if net > 0 && keep(t) {
                tokens.push(t);
            }
        }
        nets.next_if(|&(t, _)| Some(t) == b)
            .map_or(0, |(_, net)| net)
    };
    for b in row {
        let net = net_at(Some(b), tokens);
        if keep(b) && (net == 0 || i64::from(count(b)) + net > 0) {
            tokens.push(b);
        }
    }
    net_at(None, tokens);
    let from = tokens.len();
    tokens.extend(met.iter().map(|&(_, t)| t));
    // A stable sort merges the ascending runs.
    tokens[from..].sort();
}

/// The run of `list`, sorted by its first field, whose first field is `c`.
fn run_of<T>(list: &[(u32, T)], c: u32) -> &[(u32, T)] {
    let from = list.partition_point(|&(k, _)| k < c);
    &list[from..from + list[from..].partition_point(|&(k, _)| k == c)]
}

/// Sorts `tokens[from..]` and squeezes its duplicates out.
fn seal(tokens: &mut Vec<u32>, from: usize) {
    tokens[from..].sort_unstable();
    let mut kept = from;
    for i in from..tokens.len() {
        if i == from || tokens[i] != tokens[kept - 1] {
            tokens[kept] = tokens[i];
            kept += 1;
        }
    }
    tokens.truncate(kept);
}

/// Marks a class that is wholly cut (or not live) in the per-step class →
/// hybrid-atom table.
const NO_ATOM: u32 = u32::MAX;

/// A class's own id in its key, and the self loop of a cyclic unit's key
/// (B2): sorts after every id.
const SELF: u32 = u32::MAX;

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
    /// empty for inactive ids. `(c, c)` entries exist only for a
    /// [`Equivalence::KEYED`] relation.
    out_rows: Vec<Vec<(u32, u32)>>,
    /// `in_rows[c]` — the sources of the class edges into `c`, ascending:
    /// the mirror of `out_rows`.
    in_rows: Vec<Vec<u32>>,
    /// Scratch of [`IncrementalQuotient::cut`]: the unit of each exploded
    /// member. Meaningful only during a step, and only for members of that
    /// step's exploded classes; kept across steps so a step allocates
    /// nothing of size `|V|`.
    unit_of_node: Vec<u32>,
    /// Scratch of a [`Equivalence::KEYED`] relation's step: marks the nodes
    /// that reach an update source (empty until the first step, all `false`
    /// between steps).
    in_cone: Vec<bool>,
    /// The rowless classes of a [`Equivalence::KEYED`] relation by label:
    /// `rowless[l][0]` the sink with key `(l, [])`, `rowless[l][1]` the
    /// class with key `(l, [SELF])` — at most one each (B2). Noted as they
    /// are born, and checked on read: an entry may name an id since retired
    /// or recycled.
    rowless: Vec<[Option<u32>; 2]>,
}

impl<E: Equivalence> IncrementalQuotient<E> {
    /// Partitions `g` from scratch (the batch step that is then
    /// maintained) and builds the class-level rows from its edges.
    pub fn new(g: &LabeledGraph) -> Self {
        let partition = E::partition(&g.freeze());
        let classes = partition.class_count();
        let mut q = IncrementalQuotient {
            unit_of_node: vec![0; partition.class_of.len()],
            in_cone: Vec::new(),
            rowless: Vec::new(),
            class_of: partition.class_of,
            members: partition.members,
            payload: partition.payload,
            active: vec![true; classes],
            free_ids: Vec::new(),
            live: classes,
            out_rows: vec![Vec::new(); classes],
            in_rows: vec![Vec::new(); classes],
        };
        let all: Vec<u32> = (0..classes as u32).collect();
        q.link(g, &all);
        q.note_rowless(&all);
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

    /// The sources of the class-level edges entering class `c`, ascending.
    pub fn in_row(&self, c: u32) -> &[u32] {
        &self.in_rows[c as usize]
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

    /// B1's `A`: the nodes of `g` that reach the source of an update, by a
    /// walk over `g`'s in-edges — marked in `in_cone` and returned grouped
    /// by class, ascending.
    fn node_cone(&mut self, g: &LabeledGraph, updates: &[(NodeId, NodeId)]) -> Vec<NodeId> {
        self.in_cone.resize(g.node_count(), false);
        let mut cone: Vec<NodeId> = Vec::new();
        let mut stack: Vec<NodeId> = Vec::new();
        let in_cone = &mut self.in_cone;
        let mut visit = |v: NodeId, stack: &mut Vec<NodeId>| {
            if !std::mem::replace(&mut in_cone[v.index()], true) {
                stack.push(v);
            }
        };
        for &(u, _) in updates {
            visit(u, &mut stack);
        }
        while let Some(v) = stack.pop() {
            cone.push(v);
            for &z in g.in_neighbors(v) {
                visit(z, &mut stack);
            }
        }
        cone.sort_unstable_by_key(|&v| (self.class_of[v.index()], v));
        cone
    }

    /// The key of live class `c` after its label: its out-row targets,
    /// ascending, its own id read as [`SELF`] (B2).
    fn key_tokens(&self, c: u32) -> impl Iterator<Item = u32> + '_ {
        let row = &self.out_rows[c as usize];
        let looped = row.binary_search_by_key(&c, |&(t, _)| t).is_ok();
        let others = row.iter().map(|&(t, _)| t).filter(move |&t| t != c);
        others.chain(looped.then_some(SELF))
    }

    /// The live class outside the cut with key `(label, tokens)`, if any
    /// (B2). A key with an old successor `s` reads the shortest in-row of
    /// such an `s`; a key with none, its label's entry in the rowless
    /// table. A key with a provisional id finds nothing.
    fn keyed(&self, cut: &Cut, label: Label, tokens: &[u32]) -> Option<u32> {
        let successors = tokens.strip_suffix(&[SELF]).unwrap_or(tokens);
        if successors.iter().any(|&t| t as usize >= cut.id_space()) {
            return None;
        }
        let shortest = successors
            .iter()
            .min_by_key(|&&s| self.in_rows[s as usize].len());
        let candidates = match shortest {
            Some(&s) => &self.in_rows[s as usize][..],
            None => (self.rowless.get(label.0 as usize))
                .map_or(&[][..], |entry| entry[tokens.len()].as_slice()),
        };
        candidates.iter().copied().find(|&c| {
            self.active[c as usize]
                && !cut.is_whole(c)
                && E::class_label(self.payload[c as usize]) == label
                && self.key_tokens(c).eq(tokens.iter().copied())
        })
    }

    /// Notes the rowless classes among the live classes `born` in the
    /// rowless table. A no-op unless the relation is [`Equivalence::KEYED`].
    fn note_rowless(&mut self, born: &[u32]) {
        if !E::KEYED {
            return;
        }
        for &c in born {
            let row = &self.out_rows[c as usize];
            if row.iter().all(|&(t, _)| t == c) {
                let label = E::class_label(self.payload[c as usize]).0 as usize;
                if self.rowless.len() <= label {
                    self.rowless.resize(label + 1, [None; 2]);
                }
                self.rowless[label][row.len()] = Some(c);
            }
        }
    }

    /// Maintains the quotient across the effective edge updates `updates`,
    /// which have **already been applied** to `g` (an update whose edge `g`
    /// holds is an insertion, any other a deletion), in four steps:
    ///
    /// 1. *locate* the affected classes over the class-level edges of the
    ///    **old** quotient — the ancestors of every update source's class
    ///    and the descendants of every target's class; for a
    ///    [`Equivalence::KEYED`] relation, the nodes that reach an update
    ///    source, over `g` (B1);
    /// 2. *cut* them into units ([`Cut`]);
    /// 3. *regroup*: `regroup` says which units, and which class outside
    ///    the cut if any, make up each rebuilt class —
    ///    [`IncrementalQuotient::regroup_hybrid`] for any relation, or a
    ///    relation's own shortcut to the same partition, which may also
    ///    name the groups that are an affected class unchanged;
    /// 4. *splice* the groups back under stable ids, and count the batch's
    ///    edges between two classes the splice neither retired nor bore.
    ///
    /// `implied` are updates, also already applied to `g`, that the caller
    /// withheld from the recomputation because the relation does not
    /// depend on them, even beside `updates` (`incRCM`'s neutral updates:
    /// implied insertions and deletions off the transitive reduction). They
    /// seed no cone; the step counts them in the rows of the classes it
    /// keeps, and the cut reads them beside the rows of a class kept whole.
    /// They are in the statistics' `effective_updates` and
    /// `redundant_dropped`. With no update nothing is recomputed and the
    /// delta is empty.
    pub fn apply_effective(
        &mut self,
        g: &LabeledGraph,
        updates: &[(NodeId, NodeId)],
        implied: &[(NodeId, NodeId)],
        regroup: impl FnOnce(&Self, &LabeledGraph, &Cut) -> Regrouped<E::Class>,
    ) -> (IncStats, PartitionDelta) {
        let mut stats = IncStats {
            effective_updates: updates.len() + implied.len(),
            redundant_dropped: implied.len(),
            ..IncStats::default()
        };
        if updates.is_empty() {
            self.count(g, implied, &[]);
            let delta = PartitionDelta {
                id_space: self.members.len(),
                ..PartitionDelta::default()
            };
            return (stats, delta);
        }
        let mut is_affected = vec![false; self.id_space()];
        let cone = if E::KEYED {
            let cone = self.node_cone(g, updates);
            for v in &cone {
                is_affected[self.class_of(*v) as usize] = true;
            }
            cone
        } else {
            let sources = updates.iter().map(|&(a, _)| self.class_of(a));
            self.cone(sources, false, &mut is_affected);
            if !E::KEYED {
                let targets = updates.iter().map(|&(_, b)| self.class_of(b));
                self.cone(targets, true, &mut is_affected);
            }
            Vec::new()
        };
        let affected = marked(&is_affected);
        stats.affected_classes = affected.len();
        stats.affected_nodes = if E::KEYED {
            cone.len()
        } else {
            (affected.iter())
                .map(|&c| self.members[c as usize].len())
                .sum()
        };
        let cut = self.cut(g, updates, implied, is_affected, affected, &cone);
        let regrouped = regroup(self, g, &cut);
        stats.hybrid_nodes = regrouped.nodes;
        stats.hybrid_fallbacks = usize::from(regrouped.fallback);
        let delta = self.splice(g, cut, regrouped.groups);
        self.count(g, updates.iter().chain(implied), &delta.born);
        self.note_rowless(&delta.born);
        for v in cone {
            self.in_cone[v.index()] = false;
        }
        stats.changed_classes = delta.born.len();
        (stats, delta)
    }

    /// Counts the batch's `edges` (already applied to `g`: an edge `g`
    /// holds was inserted, any other deleted) between two classes that
    /// are not `born`, one original edge each, adding or removing the class
    /// edge where its count leaves or reaches 0. `link` counted every edge
    /// that touches a born class, and no other row moved in the splice.
    /// Insertions are counted first, so a class edge the batch keeps never
    /// reaches 0 on the way.
    fn count<'a>(
        &mut self,
        g: &LabeledGraph,
        edges: impl IntoIterator<Item = &'a (NodeId, NodeId)> + Clone,
        born: &[u32],
    ) {
        let is_born = mark(born, self.id_space());
        for inserted in [true, false] {
            for &(u, w) in edges.clone() {
                let (a, b) = (self.class_of(u), self.class_of(w));
                if g.has_edge(u, w) != inserted
                    || is_born[a as usize]
                    || is_born[b as usize]
                    || (!E::KEYED && a == b)
                {
                    continue;
                }
                let out = &mut self.out_rows[a as usize];
                let at = out.partition_point(|&(t, _)| t < b);
                let inn = &mut self.in_rows[b as usize];
                let from = inn.partition_point(|&s| s < a);
                match out.get_mut(at) {
                    Some((t, count)) if *t == b && (inserted || *count > 1) => {
                        if inserted {
                            *count += 1;
                        } else {
                            *count -= 1;
                        }
                    }
                    entry => {
                        // Not for a keyed relation: `a` holds an update
                        // source, so it is affected and, not born, unchanged.
                        // A class that keeps its id keeps its key (B1(iv),
                        // B2), and `b` was neither retired nor born, so `a`'s
                        // row held `b` before the step exactly when it does
                        // after it: only counts move here, and no class
                        // becomes rowless.
                        debug_assert!(!E::KEYED, "class {a} kept its id, not its key");
                        if entry.is_some_and(|&mut (t, _)| t == b) {
                            out.remove(at);
                            inn.remove(from);
                        } else {
                            debug_assert!(inserted, "a deleted edge was counted");
                            out.insert(at, (b, 1));
                            inn.insert(from, a);
                        }
                    }
                }
            }
        }
    }

    /// Cuts the affected classes (`affected`, ascending, with `is_affected`
    /// its membership table) into units — lemma L3 of the module header.
    /// The cut members of an affected class are all its members, or for a
    /// [`Equivalence::KEYED`] relation its members in `cone` (B1), which
    /// holds them grouped by class.
    ///
    /// An exploded member's neighbourhood is read off its adjacency; a
    /// class kept whole is not scanned. Its class neighbours are its old
    /// rows with the batch's edges at its members — `updates` and the
    /// `implied` ones alike, all in `g` — counted in: a neighbour stays
    /// while an edge is left. Its exploded neighbours are the exploded
    /// members whose own scan met the class, in the other direction. A
    /// debug build checks both against a scan of its members.
    fn cut(
        &mut self,
        g: &LabeledGraph,
        updates: &[(NodeId, NodeId)],
        implied: &[(NodeId, NodeId)],
        is_affected: Vec<bool>,
        affected: Vec<u32>,
        cone: &[NodeId],
    ) -> Cut {
        let ids = self.id_space();
        let class_of = &self.class_of;
        let mut parts = cone.chunk_by(|v, w| class_of[v.index()] == class_of[w.index()]);
        let parts: Vec<&[NodeId]> = (affected.iter())
            .map(|&c| match E::KEYED {
                true => parts.next().expect("a cone part per affected class"),
                false => &self.members[c as usize][..],
            })
            .collect();
        let mut is_whole = vec![false; ids];
        for (&c, part) in affected.iter().zip(&parts) {
            is_whole[c as usize] = part.len() == self.members[c as usize].len();
        }
        // L3(a): a cyclic class stays whole unless the batch deletes one of
        // its internal edges.
        let mut kept_whole = vec![false; ids];
        for &c in &affected {
            kept_whole[c as usize] = E::cyclic(self.payload[c as usize]);
        }
        for &(a, b) in updates {
            let c = self.class_of(a);
            if c == self.class_of(b) && !g.has_edge(a, b) {
                kept_whole[c as usize] = false;
            }
        }

        // A neighbour reads as its class where it moves with the class (it
        // is not cut, or its class is kept whole) and as itself otherwise;
        // node tokens lie past the class ids.
        let class_of = &self.class_of;
        let in_cone = &self.in_cone;
        let token = |w: &NodeId| {
            let c = class_of[w.index()];
            let cut = if E::KEYED {
                in_cone[w.index()]
            } else {
                is_affected[c as usize]
            };
            if cut && !kept_whole[c as usize] {
                ids as u32 + w.0
            } else {
                c
            }
        };
        let mut tokens: Vec<u32> = Vec::new();
        let mut spans: Vec<Span> = Vec::new();
        // The proto-units of class `affected[i]` are `spans[first_span[i]..
        // first_span[i + 1]]`.
        let mut first_span: Vec<usize> = Vec::with_capacity(affected.len() + 1);
        // One proto-unit: `proto`'s out- and in-neighbourhoods, less the
        // class `inside` the proto-unit itself is.
        let scan = |tokens: &mut Vec<u32>, proto: &[NodeId], inside: Option<u32>| {
            let outside = |t: &u32| Some(*t) != inside;
            let start = tokens.len();
            for &v in proto {
                tokens.extend(g.out_neighbors(v).iter().map(token).filter(outside));
            }
            seal(tokens, start);
            let mid = tokens.len();
            if !E::KEYED {
                for &v in proto {
                    tokens.extend(g.in_neighbors(v).iter().map(token).filter(outside));
                }
                seal(tokens, mid);
            }
            Span {
                first: proto[0],
                start,
                mid,
                end: tokens.len(),
                hash: fold_tokens(&tokens[start..mid], &tokens[mid..]),
            }
        };
        for (&c, members) in affected.iter().zip(&parts) {
            first_span.push(spans.len());
            if kept_whole[c as usize] {
                // Read from its rows below, once every member is scanned.
                spans.push(Span {
                    first: members[0],
                    start: 0,
                    mid: 0,
                    end: 0,
                    hash: 0,
                });
            } else {
                spans.extend(members.chunks(1).map(|v| scan(&mut tokens, v, None)));
            }
        }
        first_span.push(spans.len());

        // A class kept whole, from its rows. Per direction (out, in): the
        // batch's edges between its members and a neighbour that reads as
        // a class, as `(class, (neighbour, ±1))`, and the exploded members
        // whose scan met it, as `(class, member token)`.
        let mut steps: [Vec<(u32, (u32, i32))>; 2] = [Vec::new(), Vec::new()];
        for &(u, w) in updates.iter().chain(implied) {
            let (a, b) = (class_of[u.index()], class_of[w.index()]);
            let step = if g.has_edge(u, w) { 1 } else { -1 };
            if a != b && kept_whole[a as usize] && token(&w) == b {
                steps[0].push((a, (b, step)));
            }
            if a != b && kept_whole[b as usize] && token(&u) == a {
                steps[1].push((b, (a, step)));
            }
        }
        let mut met: [Vec<(u32, u32)>; 2] = [Vec::new(), Vec::new()];
        let any_whole = affected.iter().any(|&c| kept_whole[c as usize]);
        for span in spans.iter().filter(|_| any_whole) {
            if kept_whole[class_of[span.first.index()] as usize] {
                continue;
            }
            let member = ids as u32 + span.first.0;
            for (list, run) in met
                .iter_mut()
                .zip([span.mid..span.end, span.start..span.mid])
            {
                // Class tokens sort before node tokens.
                let classes = tokens[run].iter().take_while(|&&t| (t as usize) < ids);
                list.extend(
                    classes
                        .filter(|&&t| kept_whole[t as usize])
                        .map(|&c| (c, member)),
                );
            }
        }
        steps.iter_mut().for_each(|list| list.sort_unstable());
        // Already grouped by class when one class is kept whole: a run.
        met.iter_mut()
            .for_each(|list| list.sort_by_key(|&(c, _)| c));
        let out_rows = &self.out_rows;
        // The original edges behind the old class edge `(a, b)`.
        let edges = |a: u32, b: u32| {
            let row = &out_rows[a as usize];
            let at = row.partition_point(|&(t, _)| t < b);
            row.get(at).filter(|&&(t, _)| t == b).map_or(0, |&(_, n)| n)
        };
        let moves_whole = |b: u32| !is_affected[b as usize] || kept_whole[b as usize];
        for (&c, (&members, &at)) in affected.iter().zip(parts.iter().zip(&first_span)) {
            if !kept_whole[c as usize] {
                continue;
            }
            debug_assert!(!E::KEYED, "a keyed relation keeps no class whole");
            let keep = |b: u32| b != c && moves_whole(b);
            let start = tokens.len();
            let out = self.out_rows[c as usize].iter().map(|&(b, _)| b);
            let (out_steps, out_met) = (run_of(&steps[0], c), run_of(&met[0], c));
            whole_tokens(out, |b| edges(c, b), out_steps, out_met, keep, &mut tokens);
            let mid = tokens.len();
            if !E::KEYED {
                let inn = self.in_rows[c as usize].iter().copied();
                let (in_steps, in_met) = (run_of(&steps[1], c), run_of(&met[1], c));
                whole_tokens(inn, |s| edges(s, c), in_steps, in_met, keep, &mut tokens);
            }
            let end = tokens.len();
            spans[at] = Span {
                first: members[0],
                start,
                mid,
                end,
                hash: fold_tokens(&tokens[start..mid], &tokens[mid..end]),
            };
            if cfg!(debug_assertions) {
                let scanned = scan(&mut tokens, members, Some(c));
                let runs = |s: &Span| (&tokens[s.start..s.mid], &tokens[s.mid..s.end]);
                assert_eq!(
                    runs(&spans[at]),
                    runs(&scanned),
                    "class {c} kept whole: its rows and the batch disagree with its members"
                );
                tokens.truncate(scanned.start);
            }
        }

        // L3(b): proto-units of one class with equal neighbourhoods are one
        // unit. Taking the members in ascending order and opening a unit
        // where a neighbourhood is first seen numbers the units by their
        // first members.
        let same = |i: usize, j: usize| {
            let (a, b) = (&spans[i], &spans[j]);
            a.hash == b.hash
                && a.mid - a.start == b.mid - b.start
                && tokens[a.start..a.end] == tokens[b.start..b.end]
        };
        let mut cut = Cut {
            units_of_class: vec![(0, 0); ids],
            class_of_unit: Vec::new(),
            member_offsets: vec![0],
            member_list: Vec::new(),
            edges: Vec::new(),
            out_offsets: vec![0],
            in_offsets: vec![0],
            out_classes: Vec::new(),
            in_classes: Vec::new(),
            is_affected,
            is_whole,
            affected,
        };
        // The span that speaks for each unit, and the unit of each span.
        let mut speaker: Vec<usize> = Vec::new();
        let mut unit_of_span = vec![0u32; spans.len()];
        // Open addressing with linear probing over one class's units (as in
        // the reachability kernel's refinement): a slot holds a unit id
        // + 1, `0` marks it free; the hash picks the slot, the token runs
        // decide.
        let mut slots: Vec<u32> = Vec::new();
        for (i, &c) in cut.affected.iter().enumerate() {
            let class_spans = first_span[i]..first_span[i + 1];
            let first_unit = speaker.len();
            let mask = (2 * class_spans.len()).next_power_of_two() - 1;
            slots.clear();
            slots.resize(mask + 1, 0);
            for j in class_spans.clone() {
                let mut at = (spans[j].hash >> 32) as usize & mask;
                unit_of_span[j] = loop {
                    match slots[at].checked_sub(1) {
                        None => {
                            slots[at] = speaker.len() as u32 + 1;
                            speaker.push(j);
                            cut.class_of_unit.push(c);
                            break speaker.len() as u32 - 1;
                        }
                        Some(unit) if same(speaker[unit as usize], j) => break unit,
                        Some(_) => at = (at + 1) & mask,
                    }
                };
            }
            cut.units_of_class[c as usize] = (first_unit as u32, speaker.len() as u32);
            if kept_whole[c as usize] {
                let unit = first_unit as u32;
                cut.member_list.extend(&self.members[c as usize]);
                cut.member_offsets.push(cut.member_list.len() as u32);
                cut.edges.push((unit, unit));
                continue;
            }
            // The members, grouped by unit: a counting sort.
            let base = cut.member_list.len() as u32;
            cut.member_offsets.resize(speaker.len() + 1, base);
            for j in class_spans.clone() {
                cut.member_offsets[unit_of_span[j] as usize + 1] += 1;
            }
            for unit in first_unit..speaker.len() {
                cut.member_offsets[unit + 1] += cut.member_offsets[unit] - base;
            }
            cut.member_list
                .resize(cut.member_list.len() + class_spans.len(), NodeId(0));
            // `slots` is spent: it serves as the fill cursors.
            slots.clear();
            slots.extend(&cut.member_offsets[first_unit..speaker.len()]);
            for j in class_spans {
                let (unit, v) = (unit_of_span[j], spans[j].first);
                let cursor = &mut slots[unit as usize - first_unit];
                cut.member_list[*cursor as usize] = v;
                *cursor += 1;
                self.unit_of_node[v.index()] = unit;
            }
        }

        // The unit graph, from each unit's speaker.
        for (unit, &i) in speaker.iter().enumerate() {
            let unit = unit as u32;
            let s = &spans[i];
            for &t in &tokens[s.start..s.mid] {
                if t as usize >= ids {
                    let w = self.unit_of_node[t as usize - ids];
                    cut.edges.push((unit, w));
                } else if kept_whole[t as usize] {
                    cut.edges.push((unit, cut.units_of_class[t as usize].0));
                } else {
                    cut.out_classes.push(t);
                }
            }
            // An edge from another unit is that unit's out-edge.
            for &t in &tokens[s.mid..s.end] {
                if (t as usize) < ids && !kept_whole[t as usize] {
                    cut.in_classes.push(t);
                }
            }
            cut.out_offsets.push(cut.out_classes.len() as u32);
            cut.in_offsets.push(cut.in_classes.len() as u32);
        }
        cut
    }

    /// The regroup every relation has: runs the batch kernel
    /// ([`Equivalence::partition`]) on the **hybrid graph** — one atom per
    /// live class with members outside the cut (a cyclic atom gets a self
    /// loop), wired by the rows, plus the unit graph of `cut`, each unit
    /// labelled like its first member. Mapping a node to its atom or unit
    /// preserves the relation (for a [`Equivalence::KEYED`] relation by
    /// B1: the part of a class outside the cut keeps the class's row), so
    /// the kernel's groups are the new classes; its first-seen numbering —
    /// atoms before units, both ascending — is the splice order. A lone
    /// atom is an unchanged class if nothing of it was cut, and an atom
    /// with exactly the units cut from its class is that class unchanged.
    pub fn regroup_hybrid(&self, g: &LabeledGraph, cut: &Cut) -> Regrouped<E::Class> {
        let mut labels: Vec<Label> = Vec::new();
        let mut class_of_atom: Vec<u32> = Vec::new();
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut atom_of_class = vec![NO_ATOM; self.id_space()];
        for c in (0..self.id_space()).filter(|&c| self.active[c] && !cut.is_whole[c]) {
            let h = NodeId::new(labels.len());
            atom_of_class[c] = h.0;
            labels.push(E::class_label(self.payload[c]));
            class_of_atom.push(c as u32);
            if E::cyclic(self.payload[c]) {
                // A cyclic class reaches itself via non-empty paths; the self
                // loop keeps that visible to the equivalence computation.
                edges.push((h, h));
            }
        }
        let atoms = labels.len();
        let unit_node = |u: u32| NodeId::new(atoms + u as usize);
        labels.extend((0..cut.unit_count()).map(|u| E::node_label(g, cut.members(u)[0])));

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
        edges.extend(cut.edges.iter().map(|&(u, w)| (unit_node(u), unit_node(w))));
        for u in 0..cut.unit_count() {
            let hu = unit_node(u as u32);
            let atom = |&c: &u32| NodeId(atom_of_class[c as usize]);
            edges.extend(cut.out_classes(u).iter().map(|c| (hu, atom(c))));
            edges.extend(cut.in_classes(u).iter().map(|c| (atom(c), hu)));
        }
        // Several edges can land on one pair: the bulk load sorts and
        // deduplicates once.
        let hybrid = CsrGraph::from_edges(labels, LabelInterner::new(), edges);
        let part = E::partition(&hybrid);

        let mut groups = Vec::new();
        for (nodes, &class) in part.members.iter().zip(&part.payload) {
            // Atoms stay pairwise inequivalent (L1, B1), and come first.
            debug_assert!(nodes[1..].iter().all(|h| h.index() >= atoms));
            let absorbs = (nodes[0].index() < atoms).then(|| class_of_atom[nodes[0].index()]);
            let units: Vec<u32> = nodes[usize::from(absorbs.is_some())..]
                .iter()
                .map(|h| (h.index() - atoms) as u32)
                .collect();
            if absorbs.is_some_and(|c| !cut.is_affected[c as usize]) && units.is_empty() {
                continue;
            }
            groups.push(Group {
                unchanged: absorbs
                    .filter(|&c| cut.is_affected[c as usize] && cut.is_own(c, &units)),
                units,
                absorbs,
                class,
            });
        }
        Regrouped {
            nodes: hybrid.node_count(),
            groups,
            fallback: false,
        }
    }

    /// The regroup of a [`Equivalence::KEYED`] relation (B2): places the
    /// units bottom-up, one strongly connected component of the unit graph
    /// at a time in reverse topological order, each by a lookup of its key
    /// — its label and the classes its successors were placed in — among
    /// the rows of the classes with members outside the cut and among the
    /// groups this step formed. A hit joins that class or group, a miss
    /// forms a new group. A cycle of units that splits into several
    /// classes falls back to [`IncrementalQuotient::regroup_hybrid`] for
    /// the step. No node stands for a class outside the cut
    /// ([`IncStats::hybrid_nodes`] is the unit count).
    pub fn regroup_keyed(&self, g: &LabeledGraph, cut: &Cut) -> Regrouped<E::Class> {
        let ids = cut.id_space() as u32;
        let n = cut.unit_count();
        let unit_node = |&(u, w): &(u32, u32)| (NodeId(u), NodeId(w));
        let units = CsrGraph::from_edges(
            vec![Label(0); n],
            LabelInterner::new(),
            cut.edges().iter().map(unit_node),
        );
        let sccs = Condensation::of(&units);
        let label_of =
            |u: NodeId| E::class_label(self.payload[cut.class_of_unit(u.index()) as usize]);
        // The class each unit joins: an old id, or `ids + k` for the `k`-th
        // group the step forms.
        let mut joins = vec![u32::MAX; n];
        // The groups the step forms, in the order they formed, under their
        // keys — label, and successor tokens with SELF for a self loop.
        let mut fresh: Vec<(Label, Vec<u32>)> = Vec::new();
        let mut fresh_group: BTreeMap<(Label, Vec<u32>), u32> = BTreeMap::new();
        // Per unit of a component, its successors outside the component as
        // placed: `runs[bounds[i]..bounds[i + 1]]`, ascending.
        let (mut runs, mut bounds) = (Vec::new(), Vec::new());
        let mut key: Vec<u32> = Vec::new();
        for comp in 0..sccs.component_count() as u32 {
            let members = sccs.members(comp);
            let label = label_of(members[0]);
            let inner = members.len() > 1 || units.has_edge(members[0], members[0]);
            if members.iter().any(|&u| label_of(u) != label) {
                return self.fall_back(g, cut);
            }
            runs.clear();
            bounds.clear();
            bounds.push(0);
            for &u in members {
                let start = runs.len();
                runs.extend(cut.out_classes(u.index()));
                let out = units.out_neighbors(u).iter();
                let out = out.filter(|&&w| sccs.component_of(w) != comp);
                runs.extend(out.map(|w| joins[w.index()]));
                seal(&mut runs, start);
                bounds.push(runs.len());
            }
            let run = |i: usize| &runs[bounds[i]..bounds[i + 1]];
            // A placed successor `k` the component joins: a class of its
            // label with a self loop, whose key is every unit's with `k`
            // read as SELF (a self loop makes `k` its own successor).
            let joins_successor = |k: u32, key: &mut Vec<u32>| {
                key.clear();
                let own = if k < ids {
                    key.extend(self.key_tokens(k));
                    E::class_label(self.payload[k as usize])
                } else {
                    let (own, tokens) = &fresh[(k - ids) as usize];
                    key.extend(tokens);
                    *own
                };
                own == label
                    && key.last() == Some(&SELF)
                    && (0..members.len()).all(|i| {
                        let others = run(i).iter().copied().filter(|&t| t != k);
                        others.chain([SELF]).eq(key.iter().copied())
                    })
            };
            let mut place = runs.iter().copied().find(|&k| joins_successor(k, &mut key));
            if place.is_none() {
                // One group with a key of its own, or several groups.
                if !(1..members.len()).all(|i| run(i) == run(0)) {
                    return self.fall_back(g, cut);
                }
                key.clear();
                key.extend(run(0));
                key.extend(inner.then_some(SELF));
                let old = self.keyed(cut, label, &key);
                place = Some(old.unwrap_or_else(|| {
                    let next = ids + fresh.len() as u32;
                    *fresh_group.entry((label, key.clone())).or_insert_with(|| {
                        fresh.push((label, key.clone()));
                        next
                    })
                }));
            }
            for &u in members {
                joins[u.index()] = place.expect("placed");
            }
        }
        self.keyed_groups(cut, &joins, &fresh)
    }

    /// [`IncrementalQuotient::regroup_hybrid`], counted as a fallback.
    fn fall_back(&self, g: &LabeledGraph, cut: &Cut) -> Regrouped<E::Class> {
        Regrouped {
            fallback: true,
            ..self.regroup_hybrid(g, cut)
        }
    }

    /// The groups of a key regroup that placed unit `u` in `joins[u]` (an
    /// old id, or `ids + k` for the `k`-th of the `fresh` groups), in splice
    /// order: the old classes units joined, and the partly cut classes,
    /// ascending; then the fresh groups in the order they formed. A group
    /// is an affected class unchanged when its units are exactly the
    /// class's and, for a wholly cut class, its key is the class's old key.
    fn keyed_groups(
        &self,
        cut: &Cut,
        joins: &[u32],
        fresh: &[(Label, Vec<u32>)],
    ) -> Regrouped<E::Class> {
        let ids = cut.id_space() as u32;
        let mut pairs: Vec<(u32, u32)> = (0..joins.len() as u32)
            .map(|u| (joins[u as usize], u))
            .collect();
        // A partly cut class none of whose units came back is its part
        // outside the cut alone.
        let partial = cut.affected().iter().filter(|&&c| !cut.is_whole(c));
        pairs.extend(partial.map(|&c| (c, SELF)));
        pairs.sort_unstable();
        let mut groups = Vec::new();
        // The id each fresh group keeps, its old class's, if it keeps one.
        let mut kept: Vec<Option<u32>> = Vec::new();
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            let units: Vec<u32> = run.iter().map(|p| p.1).filter(|&u| u != SELF).collect();
            let c = run[0].0;
            if c < ids {
                groups.push(Group {
                    unchanged: Some(c).filter(|&c| cut.is_affected(c) && cut.is_own(c, &units)),
                    absorbs: Some(c),
                    units,
                    class: self.payload[c as usize],
                });
                continue;
            }
            let old = cut.class_of_unit(units[0] as usize);
            let unchanged = cut.is_whole(old) && cut.is_own(old, &units) && {
                // Its key over the ids the groups below it keep.
                let as_kept = |&t: &u32| match t < ids || t == SELF {
                    true => Some(t),
                    false => kept[(t - ids) as usize],
                };
                (fresh[(c - ids) as usize].1.iter())
                    .map(as_kept)
                    .collect::<Option<Vec<u32>>>()
                    .is_some_and(|mut placed| {
                        placed.sort_unstable();
                        placed.into_iter().eq(self.key_tokens(old))
                    })
            };
            kept.push(unchanged.then_some(old));
            groups.push(Group {
                unchanged: unchanged.then_some(old),
                absorbs: None,
                units,
                class: self.payload[old as usize],
            });
        }
        Regrouped {
            nodes: joins.len(),
            groups,
            fallback: false,
        }
    }

    /// Retires the affected classes but the unchanged ones, and the
    /// absorbed classes, and creates one class per other group, in the
    /// order given. Returns the structured delta of retired and created
    /// classes.
    fn splice(
        &mut self,
        g: &LabeledGraph,
        cut: Cut,
        groups: Vec<Group<E::Class>>,
    ) -> PartitionDelta {
        // Pass A: collect the member sets of every group *before* any class
        // id is retired or recycled (an absorbed class hands over its
        // member list wholesale here). An unchanged class keeps its own.
        let mut pending: Vec<(Vec<NodeId>, E::Class)> = Vec::new();
        for group in groups.iter().filter(|group| group.unchanged.is_none()) {
            let mut member_nodes: Vec<NodeId> = match group.absorbs {
                Some(c) => std::mem::take(&mut self.members[c as usize]),
                None => Vec::new(),
            };
            if group.absorbs.is_some_and(|c| cut.is_affected(c)) {
                // The part of the class outside the cut (B1).
                member_nodes.retain(|v| !self.in_cone[v.index()]);
            }
            for &u in &group.units {
                member_nodes.extend(cut.members(u as usize));
            }
            member_nodes.sort_unstable();
            pending.push((member_nodes, group.class));
        }

        // Pass B: retire changed classes — the affected ones but those
        // unchanged, plus any unaffected class that merges with something —
        // and unlink them from the rows of the classes that stay; their
        // edges are rebuilt below from the adjacency of the new classes'
        // members. Retiring in ascending id order keeps the free-id stack —
        // and hence the ids recycled by Pass C — fully deterministic.
        let mut is_retired = cut.is_affected;
        for group in &groups {
            if let Some(c) = group.absorbs {
                is_retired[c as usize] = true;
            }
            if let Some(k) = group.unchanged {
                is_retired[k as usize] = false;
            }
        }
        let removed = marked(&is_retired);
        for &c in &removed {
            self.unlink(c, &is_retired);
            self.active[c as usize] = false;
            self.members[c as usize].clear();
            self.free_ids.push(c);
        }
        self.live -= removed.len();

        // Pass C: create the new classes (recycling retired ids).
        let mut born: Vec<u32> = Vec::new();
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
            self.members[id as usize] = member_nodes;
            self.payload[id as usize] = class;
            self.active[id as usize] = true;
            born.push(id);
        }
        self.live += born.len();
        self.link(g, &born);

        PartitionDelta {
            removed,
            born,
            rewired: Vec::new(),
            id_space: self.members.len(),
        }
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
    /// of their members (`class_of` is already final). A born class's
    /// edges are counted in a per-id table, so its rows are filled in
    /// ascending order by appending — its in-row sorted once, for the
    /// entries other born classes appended — and only the rows of its
    /// surviving neighbours take sorted insertions.
    fn link(&mut self, g: &LabeledGraph, born: &[u32]) {
        let is_born = mark(born, self.id_space());
        let mut count = vec![0u32; self.id_space()];
        let mut touched: Vec<u32> = Vec::new();
        for &id in born {
            // Out-edges, and the in-edges from classes that are not born:
            // an edge from another born class is that class's out-edge.
            for out in [true, false] {
                for &v in &self.members[id as usize] {
                    let ends = if out {
                        g.out_neighbors(v)
                    } else {
                        g.in_neighbors(v)
                    };
                    for &w in ends {
                        let c = self.class_of[w.index()];
                        let counted = if out {
                            E::KEYED || c != id
                        } else {
                            !is_born[c as usize]
                        };
                        if counted {
                            touched.extend((count[c as usize] == 0).then_some(c));
                            count[c as usize] += 1;
                        }
                    }
                }
                touched.sort_unstable();
                for c in touched.drain(..) {
                    let entry = std::mem::take(&mut count[c as usize]);
                    let (a, b) = if out { (id, c) } else { (c, id) };
                    if out {
                        self.out_rows[id as usize].push((c, entry));
                    } else {
                        let row = &mut self.out_rows[c as usize];
                        row.insert(row.partition_point(|&(t, _)| t < id), (id, entry));
                    }
                    let inn = &mut self.in_rows[b as usize];
                    if is_born[b as usize] {
                        inn.push(a);
                    } else {
                        inn.insert(inn.partition_point(|&s| s < a), a);
                    }
                }
            }
        }
        for &id in born {
            self.in_rows[id as usize].sort_unstable();
        }
    }

    /// Checks the maintained state against `g` (which must be the graph the
    /// last step was applied to): every row is strictly ascending with
    /// non-zero counts, in-rows mirror out-rows, inactive ids have empty
    /// rows and appear in none, `free_ids` and the active ids partition the
    /// id space, the live counter equals a scan, `members` inverts
    /// `class_of`, and the `(target, count)` entries equal a recount of
    /// `g`'s edges through `class_of`. `Err` names the first violation.
    pub fn check_invariants(&self, g: &LabeledGraph) -> Result<(), String> {
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
            .filter(|&(a, b)| E::KEYED || a != b)
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
                if counted != edges {
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
        if E::KEYED {
            self.check_keys()?;
        }
        Ok(())
    }

    /// B2 and the rowless table: no two live classes share a key — sorted
    /// by `(label, key)`, neighbours differ — and each rowless class is its
    /// label's entry.
    fn check_keys(&self) -> Result<(), String> {
        let mut keys: Vec<(Label, Vec<u32>, u32)> = (marked(&self.active).into_iter())
            .map(|c| {
                let label = E::class_label(self.payload[c as usize]);
                (label, self.key_tokens(c).collect(), c)
            })
            .collect();
        keys.sort_unstable();
        if let Some(w) = keys
            .windows(2)
            .find(|w| w[0].0 == w[1].0 && w[0].1 == w[1].1)
        {
            let (label, tokens, c) = &w[0];
            return Err(format!(
                "classes {c} and {} share the key ({label:?}, {tokens:?})",
                w[1].2
            ));
        }
        for (label, tokens, c) in keys.iter().filter(|k| k.1.iter().all(|&t| t == SELF)) {
            let entry = (self.rowless.get(label.0 as usize)).and_then(|entry| entry[tokens.len()]);
            if entry != Some(*c) {
                return Err(format!(
                    "rowless class {c} is missing from the table, which holds {entry:?}"
                ));
            }
        }
        Ok(())
    }
}

/// The ids marked in a per-id table, ascending.
fn marked(table: &[bool]) -> Vec<u32> {
    (0..table.len() as u32)
        .filter(|&c| table[c as usize])
        .collect()
}

/// The per-id table of `len` ids that marks `ids`.
fn mark(ids: &[u32], len: usize) -> Vec<bool> {
    let mut table = vec![false; len];
    for &c in ids {
        table[c as usize] = true;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A keyed relation whose partition puts every node in a class of its
    /// own: not a bisimulation, so two sinks of one label are two live
    /// classes with one key.
    struct Singletons;

    impl Equivalence for Singletons {
        type Class = Label;
        const KEYED: bool = true;

        fn cyclic(_: Label) -> bool {
            false
        }

        fn class_label(class: Label) -> Label {
            class
        }

        fn node_label(g: &LabeledGraph, v: NodeId) -> Label {
            g.label(v)
        }

        fn partition(g: &CsrGraph) -> Classes<Label> {
            let nodes = (0..g.node_count()).map(NodeId::new);
            Classes {
                class_of: (0..g.node_count() as u32).collect(),
                members: nodes.clone().map(|v| vec![v]).collect(),
                payload: nodes.map(|v| g.label(v)).collect(),
            }
        }
    }

    fn graph(labels: &[&str], edges: &[(u32, u32)]) -> LabeledGraph {
        let mut g = LabeledGraph::new();
        for l in labels {
            g.add_node_with_label(l);
        }
        for &(u, v) in edges {
            g.add_edge(NodeId(u), NodeId(v));
        }
        g
    }

    #[test]
    fn check_invariants_names_a_key_two_live_classes_share() {
        // Two `L` sinks, and an `M` above one of them.
        let g = graph(&["L", "L", "M"], &[(2, 0)]);
        let q = IncrementalQuotient::<Singletons>::new(&g);
        let err = q.check_invariants(&g).expect_err("two sinks share a key");
        assert_eq!(err, "classes 0 and 1 share the key (L0, [])");
    }

    #[test]
    fn check_invariants_finds_a_rowless_class_missing_from_its_table() {
        // A sink `L`, an `M` above it and a self-looped `N`.
        let g = graph(&["L", "M", "N"], &[(1, 0), (2, 2)]);
        let mut q = IncrementalQuotient::<Singletons>::new(&g);
        assert_eq!(q.check_invariants(&g), Ok(()));
        assert_eq!(q.rowless, vec![[Some(0), None], [None; 2], [None, Some(2)]]);
        q.rowless[2] = [None; 2];
        let err = q.check_invariants(&g).expect_err("the table lost a class");
        assert!(err.starts_with("rowless class 2 is missing"), "{err}");
    }
}
