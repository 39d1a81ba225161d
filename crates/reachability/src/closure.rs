//! The reachability closure of the maintained quotient, swept at
//! construction and patched by each step, read twice per batch: by the
//! step's regroup, and by the publication that follows it.
//!
//! [`QuotientClosure`] is what a snapshot publication used to sweep for
//! itself and throw away — the descendant rows of the quotient DAG, the
//! ancestor rows, and the reduced edge list — over the maintainer's
//! **stable** ids, proper paths only (an acyclic class is not in its own
//! row; the quotient is a DAG, so no class is). Each row is an
//! [`IdRows`] row: a sorted list of class ids while it is short, a bitmap
//! over the id space once the list would be larger, so the closure costs
//! what it holds, and the maintainer holds it at every size. A row's
//! length is the count that orders the 2-hop landmarks.
//!
//! ## Regrouping against it
//!
//! [`IncrementalQuotient`] cuts
//! the affected classes of a batch into units (lemmas L1–L3 there: the
//! unaffected classes keep their cones, no strongly connected component
//! mixes the two sides, a unit cannot split). [`QuotientClosure::regroup`]
//! says which units, and which unaffected class, form each new class
//! without a node for any unaffected class:
//!
//! **L4 (signatures from rows).** Condense the unit graph; over its
//! components, children first, let `D[comp]` be the union over the
//! unaffected classes `c` a unit of `comp` has an edge to of
//! `desc[c] ∪ {c}`, over the child components `b` of `D[b] ∪ units(b)`,
//! and of `comp`'s own units if it is cyclic — a set over the old ids
//! and one id per unit past them. A row `desc[c]` is exact for the new graph (L1)
//! when an affected old id `k` in it is read as *all* of old class `k`
//! (old-equivalent nodes share their ancestors, `c` among them), so
//! *normalise*: replace every affected id in `D[comp]` by the unit ids of
//! its class, which are contiguous. `A[comp]` likewise, parents first, from
//! `anc` and the classes with an edge *to* a unit. A descendant set of the
//! new graph is a union of whole unaffected classes and whole units (reach
//! one member of either and you reach them all), and those partition `V`:
//! two components are equivalent in the new graph iff their normalised
//! `(D, A)` rows are equal. The grouping of the batch kernel
//! (`group_rows`) groups them; a cyclic component is alone in its group.
//!
//! **L5 (absorption).** An acyclic group is equivalent to the unaffected
//! class `C` iff its rows, with unit ids mapped back to old ids, are
//! `desc[C]` and `anc[C]` — where a row that holds some units of an
//! affected class and not the others maps to nothing (`C`'s cones hold old
//! classes whole). At most one `C` qualifies (unaffected classes stay
//! pairwise inequivalent, L1) and never a cyclic one (L2). Such a `C`
//! reaches every class `d` of the group's descendant row and is reached
//! from every class `a` of its ancestor row — in the old quotient too, its
//! cones being frozen (L1) — so `C ∈ anc[d] ∩ desc[a]`. The candidates are
//! that intersection for the `d` with the fewest ancestors and the `a` with
//! the fewest descendants (one row alone when the other group row is
//! empty), filtered to the live, acyclic, unaffected classes with the
//! group's two row lengths, then compared row for row — no hash decides. A
//! group with neither row is isolated, and its only candidate is the one
//! live acyclic class with two empty rows. This is where
//! the far-away merge is found: `C` needs no edge to the group, no common
//! neighbour and no node in any graph, only its two rows.
//!
//! **L7′ (members, not cones, decide an id).** Affected is not changed. A
//! group whose units are exactly the units of one affected class `k` — all
//! of them and nothing else — with `k`'s cyclic flag, and which absorbs no
//! unaffected class, has `k`'s members and flag: it keeps the id `k`. It
//! is not retired, not born, its class-level rows neither unlinked nor
//! relinked (the batch's own edges at a kept class are counted in place),
//! and its id is in the `PartitionDelta` only if it is *rewired*: when its
//! two rows over the old ids, less `k`'s own id (a cyclic group's rows hold
//! its own units), are not `anc[k]` and `desc[k]`. An unrewired kept class
//! has its cones as node sets too — its rows are exact (L4) — and L5 skips
//! it: an unaffected class with its rows would have been equivalent to
//! `k`. The third condition is needed: once `k`'s cones have moved they can
//! be an unaffected class's, and then the two are one class, born. When
//! every group is kept unrewired the delta is empty and the serving layer
//! republishes. Only this regroup tells: the hybrid kernel bears every
//! group it forms, so from the first kept class on the two paths give one
//! partition under different ids.
//!
//! Groups are returned in the order the hybrid kernel's first-seen
//! numbering would give them — absorbing groups by absorbed class id, then
//! the others by first unit — and the splice hands out ids in that order,
//! skipping the kept groups.
//!
//! ## Patching it
//!
//! After the splice the closure is **patched**, not swept
//! ([`QuotientClosure::advance`]). The splice hands out one id per group
//! but the kept ones, in group order; call those classes *born*, and the
//! affected classes it did not keep and the absorbed ones *retired*.
//! First the rows of the retired ids are cleared, and their columns from
//! the rows that hold them — the old ancestors' descendant rows and the old
//! descendants' ancestor rows. A born or rewired class's two rows are its
//! group's signatures read over the new ids (a rewired class's old rows are
//! cleared first): an unaffected id stays itself, an absorbed id and a unit
//! id become the id of the group they joined (the kept id, for a unit of a
//! kept group), and the class's own id is dropped (a cyclic group's
//! signature holds its own units; rows hold proper paths only). By L4 these
//! are exact.
//!
//! **L6 (the rest moves only where a born class is).** Call a class
//! *frozen* when the step left its members and its cones unchanged as node
//! sets: an unaffected class (L1) or a kept one that is not rewired (L7′).
//! The survivors of a step are the frozen and the rewired classes. (a)
//! *Columns.* The born classes partition the nodes of the retired ones. So
//! the row of a frozen class `r` loses exactly the retired columns and gains
//! exactly the born classes that hold a node of its cone: `b` enters
//! `desc[r]` iff `r ∈ anc[b]`, which the born rows already say. A rewired
//! class's column in `r` stays as it was: `r`'s cone and the rewired class's
//! members are the node sets they were. Setting the born columns by
//! transposing the born rows into the frozen rows (a rewired row has them
//! from its signature already) therefore completes every frozen row, and no
//! other id of it moves. (b) *Reduction.* An edge `(x, y)` of the DAG is
//! kept iff no class lies strictly between, `desc[x] ∩ anc[y] = ∅`. Let `x`
//! and `y` be frozen. The nodes strictly between them — reached from `x`,
//! reaching `y`, in neither — are the same before and after the step, and a
//! class lies strictly between iff it holds one of them, so the answer is
//! the same on both sides. Where it is "none", `x` reaches `y` iff a class
//! edge `(x, y)` exists, on both sides; so a class edge between two frozen
//! classes that appears or disappears in the step is never kept, and one
//! that stays keeps its status. The kept edges that touch no retired and no
//! rewired id therefore stay kept, and only the edges that touch a born or a
//! rewired class are decided, each by one intersection test of two rows.
//!
//! ## Cost
//!
//! Rows are read as what they hold — their ids, or `id_space / 64` words
//! where they are bitmaps. A regroup reads, per unit, the rows of its
//! distinct unaffected neighbours (a row already inside the signature is
//! skipped), condenses and groups the units, and per acyclic group with
//! new rows intersects two rows and compares the candidates; only an
//! isolated group scans the id space. The patch removes one id per pair
//! of a retired id and a row holding it, writes the born and rewired rows,
//! inserts one id per pair of a born class and a frozen class in its
//! cones, and decides the edges touching a written row — nothing at all
//! when every group is kept unrewired. Only construction (and recovery,
//! which constructs) sweeps.

#![deny(clippy::disallowed_types)]

use qpgc_graph::ids::LabelInterner;
use qpgc_graph::quotient::{Cut, Equivalence, Group, IncrementalQuotient, Regrouped};
use qpgc_graph::reach_sets::DagReach;
use qpgc_graph::scc::Condensation;
use qpgc_graph::transitive::transitive_reduction_dag;
use qpgc_graph::update::PartitionDelta;
use qpgc_graph::{CsrGraph, IdRows, IdSet, Label, NodeId, RowBuilder};

use crate::equivalence::{group_rows, key_hash};

const WORD: usize = u64::BITS as usize;

/// The closure of a quotient DAG over stable class ids — see the module
/// header.
#[derive(Clone, Debug)]
pub struct QuotientClosure {
    /// Row `c`: the classes `c` properly reaches.
    desc: IdRows,
    /// Row `c`: the classes that properly reach `c` (the transpose).
    anc: IdRows,
    /// The transitive reduction of the quotient's edges.
    kept: Vec<(NodeId, NodeId)>,
}

/// What a regroup against the closure leaves for the patch after the
/// splice ([`QuotientClosure::advance`]): the normalised signatures of L4,
/// and where each group and each unit went.
#[derive(Debug)]
pub struct Signatures {
    /// Per unit component: its descendants over the old unaffected ids,
    /// then one id per unit past them.
    below: IdRows,
    /// Per unit component: its ancestors, likewise.
    above: IdRows,
    /// Per group, in splice order: one of its components (they all have
    /// the group's rows).
    comp_of_group: Vec<usize>,
    /// Per group, in splice order: the class it is, keeping its id (L7′).
    unchanged: Vec<Option<u32>>,
    /// The kept ids whose rows moved, ascending.
    rewired: Vec<u32>,
    /// Per unit: its group, in splice order.
    group_of_unit: Vec<u32>,
    /// `(class, group)` per group that absorbs an unaffected class,
    /// ascending by class.
    absorbed: Vec<(u32, u32)>,
}

impl Signatures {
    /// The classes the regroup kept with their members and cyclic flag but
    /// new cones (L7′), ascending: [`PartitionDelta::rewired`].
    pub fn rewired(&self) -> &[u32] {
        &self.rewired
    }

    /// The id each group ends up with, in splice order: the class a kept
    /// group is, and the next of the splice's `born` ids for every other
    /// group.
    fn ids(&self, born: &[u32]) -> Vec<u32> {
        let mut born = born.iter();
        let mut next = || *born.next().expect("one born id per changed group");
        (self.unchanged.iter())
            .map(|&kept| kept.unwrap_or_else(&mut next))
            .collect()
    }
}

impl QuotientClosure {
    /// Sweeps the closure of the quotient with `id_space` ids and the
    /// class-level `edges` (inactive ids have none): the descendant rows,
    /// the kept edges of the transitive reduction over them, and the
    /// ancestor rows.
    ///
    /// # Panics
    ///
    /// Panics if `edges` has a cycle — the quotient of the reachability
    /// equivalence relation is a DAG.
    pub fn sweep(id_space: usize, edges: Vec<(u32, u32)>) -> Self {
        let dag = DagReach::from_edges(id_space, edges)
            .expect("the quotient of the reachability equivalence relation is a DAG");
        Self::of_dag(&dag)
    }

    /// [`QuotientClosure::sweep`] over a prepared DAG.
    fn of_dag(dag: &DagReach) -> Self {
        let desc = dag.descendants();
        QuotientClosure {
            kept: transitive_reduction_dag(dag, &desc),
            anc: dag.ancestors(),
            desc,
        }
    }

    /// Size of the id space the closure covers.
    pub fn id_space(&self) -> usize {
        self.desc.rows()
    }

    /// Whether class `from` reaches class `to` by a non-empty path.
    pub fn reaches(&self, from: u32, to: u32) -> bool {
        self.desc.row(from as usize).contains(to)
    }

    /// The transitively reduced edges of the quotient, sorted by
    /// `(source, target)`.
    pub fn kept(&self) -> &[(NodeId, NodeId)] {
        &self.kept
    }

    /// `(|anc(c)|, |desc(c)|)`: how many classes properly reach `c` and
    /// are properly reached by it.
    pub fn counts(&self, c: NodeId) -> (u64, u64) {
        (
            self.anc.len(c.index()) as u64,
            self.desc.len(c.index()) as u64,
        )
    }

    /// The descendant rows: row `c` holds the classes `c` properly reaches.
    pub fn descendants(&self) -> &IdRows {
        &self.desc
    }

    /// The ancestor rows: row `c` holds the classes that properly reach `c`.
    pub fn ancestors(&self) -> &IdRows {
        &self.anc
    }

    /// Approximate heap footprint in bytes: both row sets and the kept
    /// edges, at capacity.
    pub fn heap_bytes(&self) -> usize {
        self.desc.heap_bytes()
            + self.anc.heap_bytes()
            + self.kept.capacity() * std::mem::size_of::<(NodeId, NodeId)>()
    }

    /// Checks the closure against the quotient it claims to describe, the
    /// one with `id_space` ids and the class-level `edges`: field by field —
    /// descendant rows, ancestor rows, kept edges — against a fresh sweep
    /// ([`QuotientClosure::sweep`]), rows compared as sets. `Err` names the
    /// first field that differs.
    pub fn check(&self, id_space: usize, edges: Vec<(u32, u32)>) -> Result<(), String> {
        if self.id_space() != id_space {
            return Err(format!(
                "closure over {} ids, the quotient has {id_space}",
                self.id_space()
            ));
        }
        let dag = DagReach::from_edges(id_space, edges).map_err(|e| e.to_string())?;
        let swept = Self::of_dag(&dag);
        let fields = [
            (self.desc == swept.desc, "descendant rows"),
            (self.anc == swept.anc, "ancestor rows"),
            (self.kept == swept.kept, "kept edges"),
        ];
        match fields.iter().find(|&&(same, _)| !same) {
            Some((_, field)) => Err(format!("held {field} differ from a fresh sweep")),
            None => Ok(()),
        }
    }

    /// Patches this closure — of the quotient a step was taken over — into
    /// the closure of `q`, the quotient after it, by L4, L6 and L7′ of the
    /// module header. `delta` is what the step's splice returned, and
    /// `signatures` what its regroup against this closure handed back
    /// ([`QuotientClosure::regroup`]). The rows grow in place to
    /// `delta.id_space`.
    pub fn advance<E: Equivalence>(
        &mut self,
        delta: &PartitionDelta,
        signatures: Signatures,
        q: &IncrementalQuotient<E>,
    ) {
        if delta.is_empty() {
            // Every group is an affected class unchanged (L7′).
            return;
        }
        let old = self.id_space();
        let ids = delta.id_space;
        let group_ids = signatures.ids(&delta.born);

        // Retired ids go: their columns from the rows that hold them — the
        // old ancestors' descendant rows and the old descendants' ancestor
        // rows — then their own rows, and a rewired class's old rows.
        let mut retired = vec![false; old];
        delta
            .removed
            .iter()
            .for_each(|&k| retired[k as usize] = true);
        for &k in &delta.removed {
            let i = k as usize;
            set_column(&mut self.desc, self.anc.row(i), k, &retired, false);
            set_column(&mut self.anc, self.desc.row(i), k, &retired, false);
        }
        for &k in delta.removed.iter().chain(&delta.rewired) {
            self.desc.clear(k as usize);
            self.anc.clear(k as usize);
        }

        // Born and rewired rows are the signatures, read over the new ids.
        self.desc.grow(ids, ids);
        self.anc.grow(ids, ids);
        let (born, rewired) = (&delta.born, &delta.rewired);
        let mut changed = vec![false; ids];
        born.iter()
            .chain(rewired)
            .for_each(|&c| changed[c as usize] = true);
        let read = Reading::new(&signatures, &group_ids, old);
        let mut row = RowBuilder::new(ids);
        let written = (group_ids.iter())
            .zip(&signatures.comp_of_group)
            .filter(|&(&c, _)| changed[c as usize]);
        for (&c, &comp) in written {
            read.row(&mut row, signatures.below.row(comp), c);
            self.desc.set(c as usize, &mut row);
            read.row(&mut row, signatures.above.row(comp), c);
            self.anc.set(c as usize, &mut row);
        }

        // L6(a): every frozen row gains the born columns, by transposition.
        for &b in born {
            set_column(&mut self.desc, self.anc.row(b as usize), b, &changed, true);
            set_column(&mut self.anc, self.desc.row(b as usize), b, &changed, true);
        }

        // L6(b): the kept edges that touch a retired or a rewired id go;
        // each edge that touches a born or a rewired class is decided by
        // its two rows.
        let gone = |c: NodeId| retired.get(c.index()) == Some(&true) || changed[c.index()];
        self.kept.retain(|&(x, y)| !gone(x) && !gone(y));
        let mut decided: Vec<(NodeId, NodeId)> = Vec::new();
        let between =
            |x: u32, y: u32| (self.desc.row(x as usize)).intersects(&self.anc.row(y as usize));
        for &b in born.iter().chain(rewired) {
            for &(c, _) in q.out_row(b) {
                if !between(b, c) {
                    decided.push((NodeId(b), NodeId(c)));
                }
            }
            for &x in q.in_row(b) {
                if !changed[x as usize] && !between(x, b) {
                    decided.push((NodeId(x), NodeId(b)));
                }
            }
        }
        // Two sorted runs, which the stable sort merges in one pass.
        decided.sort_unstable();
        self.kept.append(&mut decided);
        self.kept.sort();
    }

    /// Regroups the units of `cut` against this closure — which must be the
    /// closure of the quotient the cut was taken over, whose liveness and
    /// cyclic flags per id are `active` and `cyclic` — by lemmas L4, L5 and
    /// L7′ of the module header. The signatures go back with the groups, for
    /// the patch after the splice, with the kept classes that are rewired.
    pub fn regroup(
        &self,
        active: &[bool],
        cyclic: &[bool],
        cut: &Cut,
    ) -> (Regrouped<bool>, Signatures) {
        let ids = self.id_space();
        debug_assert_eq!(ids, cut.id_space());
        let units = cut.unit_count();
        let unit_node = |&(u, w): &(u32, u32)| (NodeId(u), NodeId(w));
        let graph = CsrGraph::from_edges(
            vec![Label(0); units],
            LabelInterner::new(),
            cut.edges().iter().map(unit_node),
        );
        let cond = Condensation::of(&graph);
        let cyclic_comp = cond.cyclic_flags(&graph);

        // L4: the normalised signatures, grouped as the batch kernel groups
        // its rows. Unit `u` is id `ids + u`.
        let unit_id = |u: usize| (ids + u) as u32;
        let signatures = |closure: &IdRows, downward: bool| {
            let comps = cond.component_count();
            let mut rows = IdRows::new(comps, ids + units);
            let mut row = RowBuilder::new(ids + units);
            let mut affected = Vec::new();
            for i in 0..comps {
                // Tarjan numbers a component after its children.
                let comp = if downward { i } else { comps - 1 - i };
                let next = if downward {
                    cond.scc_out(comp as u32)
                } else {
                    cond.scc_in(comp as u32)
                };
                for &b in next {
                    row.extend(rows.row(b as usize));
                    cond.members(b)
                        .iter()
                        .for_each(|u| row.insert(unit_id(u.index())));
                }
                for u in cond.members(comp as u32) {
                    let classes = if downward {
                        cut.out_classes(u.index())
                    } else {
                        cut.in_classes(u.index())
                    };
                    for &c in classes {
                        // A class already in the row brought its row with it.
                        if !row.holds(c) {
                            row.insert(c);
                            row.extend(closure.row(c as usize));
                        }
                    }
                    if cyclic_comp[comp] {
                        row.insert(unit_id(u.index()));
                    }
                }
                // Normalise: an affected id reads as the units of its class.
                row.take(cut.affected(), &mut affected);
                for &k in &affected {
                    cut.units_of_class(k).for_each(|u| row.insert(unit_id(u)));
                }
                rows.set(comp, &mut row);
            }
            rows
        };
        let below = signatures(&self.desc, true);
        let above = signatures(&self.anc, false);
        let block = group_rows(&below, &above, &cyclic_comp, &key_hash);

        // Groups in first-seen unit order, as the kernel numbers them.
        let mut group_of_block = vec![usize::MAX; block.len()];
        let mut groups: Vec<Group<bool>> = Vec::new();
        let mut comp_of_group: Vec<usize> = Vec::new();
        for u in 0..units {
            let comp = cond.component_of(NodeId::new(u)) as usize;
            let slot = &mut group_of_block[block[comp] as usize];
            if *slot == usize::MAX {
                *slot = groups.len();
                groups.push(Group {
                    units: Vec::new(),
                    absorbs: None,
                    unchanged: None,
                    class: cyclic_comp[comp],
                });
                comp_of_group.push(comp);
            }
            groups[*slot].units.push(u as u32);
        }

        // Each group's rows over the old ids. L7′: a group that is one
        // affected class keeps its id unless it absorbs, rewired when its
        // rows moved. L5: every acyclic group with new rows, against the
        // unaffected classes in the closure rows of its nearest neighbours.
        let (mut anc, mut desc) = (RowBuilder::new(ids), RowBuilder::new(ids));
        let mut own = Vec::new();
        let mut rewired: Vec<u32> = Vec::new();
        for (group, &comp) in groups.iter_mut().zip(&comp_of_group) {
            let kept = kept_class(group, cyclic, cut);
            let whole = over_old_ids(above.row(comp), cut, &mut anc)
                && over_old_ids(below.row(comp), cut, &mut desc);
            if whole {
                if let Some(k) = kept {
                    // A cyclic group's rows hold its own units.
                    anc.take(&[k], &mut own);
                    desc.take(&[k], &mut own);
                    if anc.set() == self.anc.row(k as usize)
                        && desc.set() == self.desc.row(k as usize)
                    {
                        group.unchanged = kept;
                        continue;
                    }
                }
                if !group.class {
                    group.absorbs =
                        self.absorbed(group, anc.set(), desc.set(), active, cyclic, cut);
                }
            }
            group.unchanged = kept.filter(|_| group.absorbs.is_none());
            rewired.extend(group.unchanged);
        }
        rewired.sort_unstable();

        // Stable: the groups that absorb nothing stay in first-unit order.
        let mut spliced: Vec<(Group<bool>, usize)> =
            groups.into_iter().zip(comp_of_group).collect();
        spliced.sort_by_key(|(group, _)| group.absorbs.map_or((1, 0), |c| (0, c)));
        let (groups, comp_of_group): (Vec<_>, Vec<_>) = spliced.into_iter().unzip();
        let mut group_of_unit = vec![0u32; units];
        let mut absorbed = Vec::new();
        for (i, group) in groups.iter().enumerate() {
            for &u in &group.units {
                group_of_unit[u as usize] = i as u32;
            }
            absorbed.extend(group.absorbs.map(|c| (c, i as u32)));
        }
        let regrouped = Regrouped {
            nodes: units,
            groups,
            fallback: false,
        };
        let signatures = Signatures {
            below,
            above,
            unchanged: regrouped.groups.iter().map(|g| g.unchanged).collect(),
            rewired,
            comp_of_group,
            group_of_unit,
            absorbed,
        };
        (regrouped, signatures)
    }

    /// L5: the unaffected class the acyclic `group` is equivalent to, given
    /// its rows over the old ids, `anc` and `desc`. Such a
    /// class reaches every class of `desc` and is reached from every class
    /// of `anc`, so it lies in the ancestor row of the one and the
    /// descendant row of the other: the intersection of the shortest two
    /// holds every candidate. A class's ancestors hold its parents', so the
    /// shortest rows lie next to the group: among its units' unaffected
    /// neighbours when they have any, else among all of the group's row. A
    /// group with neither row is isolated, and so is its candidate: the one
    /// live acyclic class with two empty rows. A candidate is taken when it
    /// is live, acyclic and unaffected and its two rows are the group's.
    fn absorbed(
        &self,
        group: &Group<bool>,
        anc: IdSet<'_>,
        desc: IdSet<'_>,
        active: &[bool],
        cyclic: &[bool],
        cut: &Cut,
    ) -> Option<u32> {
        let fewest = |row: IdSet<'_>, next: fn(&Cut, usize) -> &[u32], by: &IdRows| {
            let key = |&c: &u32| by.len(c as usize);
            let mut near = group.units.iter().flat_map(|&u| next(cut, u as usize));
            match near.next() {
                Some(&c) => near.copied().chain([c]).min_by_key(key),
                None => row.iter().min_by_key(key),
            }
        };
        let below = fewest(desc, Cut::out_classes, &self.anc).map(|d| self.anc.row(d as usize));
        let above = fewest(anc, Cut::in_classes, &self.desc).map(|a| self.desc.row(a as usize));
        let candidates: Box<dyn Iterator<Item = u32>> = match (below, above) {
            (Some(below), Some(above)) => {
                let (short, long) = if below.len() <= above.len() {
                    (below, above)
                } else {
                    (above, below)
                };
                Box::new(short.iter().filter(move |&c| long.contains(c)))
            }
            (Some(row), None) | (None, Some(row)) => Box::new(row.iter()),
            (None, None) => Box::new(
                (0..self.id_space() as u32)
                    .filter(|&c| self.desc.len(c as usize) + self.anc.len(c as usize) == 0),
            ),
        };
        let mut candidates = candidates.filter(|&c| {
            let i = c as usize;
            self.anc.len(i) == anc.len()
                && self.desc.len(i) == desc.len()
                && active[i]
                && !cyclic[i]
                && !cut.is_affected(c)
                && self.anc.row(i) == anc
                && self.desc.row(i) == desc
        });
        candidates.next()
    }
}

/// L7′: the affected class `group` is — the class whose units are exactly
/// the group's, when it has the group's cyclic flag. It keeps its id unless
/// the group absorbs an unaffected class.
fn kept_class(group: &Group<bool>, cyclic: &[bool], cut: &Cut) -> Option<u32> {
    let (&first, &last) = (group.units.first()?, group.units.last()?);
    let k = cut.class_of_unit(first as usize);
    let units = cut.units_of_class(k);
    let exact = units.start == first as usize
        && units.end == last as usize + 1
        && units.len() == group.units.len();
    (exact && cyclic[k as usize] == group.class).then_some(k)
}

/// Sets (`on`) or clears column `col` in the rows of `rows` that `holders`
/// names, but in the rows `skip` marks.
fn set_column(rows: &mut IdRows, holders: IdSet<'_>, col: u32, skip: &[bool], on: bool) {
    for r in holders.iter().filter(|&r| !skip[r as usize]) {
        if on {
            rows.insert(r as usize, col);
        } else {
            rows.remove(r as usize, col);
        }
    }
}

/// How a signature row reads over the ids after the splice.
struct Reading {
    /// Size of the id space the signatures were taken over; unit `u` is
    /// id `old + u`.
    old: usize,
    /// Per unit: the id of the class it joined.
    id_of_unit: Vec<u32>,
    /// `(class, id of the class it joined)` per absorbed class, ascending.
    absorbed: Vec<(u32, u32)>,
}

impl Reading {
    /// The reading of `signatures`, taken over `old` ids, whose groups
    /// ended up with the ids `group_ids`.
    fn new(signatures: &Signatures, group_ids: &[u32], old: usize) -> Self {
        Reading {
            old,
            id_of_unit: (signatures.group_of_unit.iter())
                .map(|&i| group_ids[i as usize])
                .collect(),
            absorbed: (signatures.absorbed.iter())
                .map(|&(c, i)| (c, group_ids[i as usize]))
                .collect(),
        }
    }

    /// Gathers into `row` the signature `sig` of the class `own`: its
    /// unaffected ids as they are, an absorbed id and a unit as the id of
    /// the class they joined, and never `own` itself.
    fn row(&self, row: &mut RowBuilder, sig: IdSet<'_>, own: u32) {
        for x in sig.iter() {
            let id = match (x as usize).checked_sub(self.old) {
                Some(u) => self.id_of_unit[u],
                None => match self.absorbed.binary_search_by_key(&x, |&(c, _)| c) {
                    Ok(i) => self.absorbed[i].1,
                    Err(_) => x,
                },
            };
            if id != own {
                row.insert(id);
            }
        }
    }
}

/// Gathers into `out`, emptied first, the signature row `sig` read over
/// the old ids alone: its unaffected ids as they are, plus the id of every
/// affected class *all* of whose units it holds. `false` when it holds some
/// but not all units of a class — no set of old classes is that row.
fn over_old_ids(sig: IdSet<'_>, cut: &Cut, out: &mut RowBuilder) -> bool {
    let ids = cut.id_space();
    out.clear();
    // A bitmap's whole words below the first unit go over as they are.
    let from = match sig {
        IdSet::Bits(words, _) => {
            let low = &words[..(ids / WORD).min(words.len())];
            out.extend(IdSet::Bits(
                low,
                low.iter().map(|w| w.count_ones() as usize).sum(),
            ));
            (low.len() * WORD) as u32
        }
        IdSet::List(_) => 0,
    };
    let mut at = sig.iter_from(from);
    while let Some(x) = at.next() {
        let Some(u) = (x as usize).checked_sub(ids) else {
            out.insert(x);
            continue;
        };
        // Unit ids ascend, and a class's units are contiguous.
        let k = cut.class_of_unit(u);
        let mut units = cut.units_of_class(k);
        if units.next() != Some(u) || !units.all(|v| at.next() == Some((ids + v) as u32)) {
            return false;
        }
        out.insert(k);
    }
    true
}
