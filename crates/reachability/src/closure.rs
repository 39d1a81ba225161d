//! The reachability closure of the maintained quotient, swept at
//! construction and patched by each step, read twice per batch: by the
//! step's regroup, and by the publication that follows it.
//!
//! [`QuotientClosure`] is what a snapshot publication used to sweep for
//! itself and throw away — the descendant matrix of the quotient DAG (from
//! the sweep its transitive reduction runs anyway), the ancestor matrix,
//! the reduced edge list and the rows' popcounts — over the maintainer's
//! **stable** ids, proper paths only (an acyclic class is not in its own
//! row; the quotient is a DAG, so no class is). The maintainer holds one
//! while its id space fits one column chunk
//! ([`DEFAULT_CHUNK`](qpgc_graph::reach_sets::DEFAULT_CHUNK) ids: two
//! matrices of at most 2 MiB each, resident per maintainer); a larger
//! quotient has none, and both readers fall back to their chunked paths.
//! A step that takes the id space past one chunk drops the closure.
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
//! and of `comp`'s own units if it is cyclic — a bit row of width
//! `id_space + #units`. A row `desc[c]` is exact for the new graph (L1)
//! when an affected old id `k` in it is read as *all* of old class `k`
//! (old-equivalent nodes share their ancestors, `c` among them), so
//! *normalise*: replace every affected id in `D[comp]` by the unit bits of
//! its class, which are contiguous. `A[comp]` likewise, parents first, from
//! `anc` and the classes with an edge *to* a unit. A descendant set of the
//! new graph is a union of whole unaffected classes and whole units (reach
//! one member of either and you reach them all), and those partition `V`:
//! two components are equivalent in the new graph iff their normalised
//! `(D, A)` rows are equal. The refinement of the batch kernel
//! (`refine_chunk`) groups them; a cyclic component is alone in its group.
//!
//! **L5 (absorption).** An acyclic group is equivalent to the unaffected
//! class `C` iff its rows, with unit bits mapped back to old ids, are
//! `desc[C]` and `anc[C]` — where a row that holds some units of an
//! affected class and not the others maps to nothing (`C`'s cones hold old
//! classes whole). At most one `C` qualifies (unaffected classes stay
//! pairwise inequivalent, L1) and never a cyclic one (L2). The candidates
//! are the unaffected live acyclic classes with the group's two popcounts:
//! one pass over the popcount table against the sorted keys of the groups,
//! then an exact row comparison — no hash decides. This is where the
//! far-away merge is found: `C` needs no edge to the group, no common
//! neighbour and no node in any graph, only its two rows.
//!
//! **L7 (an unchanged class).** Affected is not changed. A group whose
//! units are exactly the units of one affected class `k` — all of them and
//! nothing else, absorbing nothing — with `k`'s cyclic flag, and whose two
//! rows over the old ids, less `k`'s own bit (a cyclic group's rows hold its
//! own units), are `anc[k]` and `desc[k]`, *is* `k`: its rows are exact
//! (L4), so `k`'s members, cyclic flag and cones as node sets are what they
//! were. It keeps the id `k` and is from then on treated as unaffected: not
//! retired, not born, its class-level rows neither unlinked nor relinked
//! (the batch's own edges between two such classes are counted in place),
//! and not in the `PartitionDelta`. When every group is unchanged the delta
//! is empty and the serving layer republishes. L5 skips an unchanged group:
//! an unaffected class with its rows would have been equivalent to `k`.
//! Only this regroup tells: the hybrid kernel bears every group it forms,
//! so from the first unchanged class on the two paths give one partition
//! under different ids.
//!
//! Groups are returned in the order the hybrid kernel's first-seen
//! numbering would give them — absorbing groups by absorbed class id, then
//! the others by first unit — and the splice hands out ids in that order,
//! skipping the unchanged groups.
//!
//! ## Patching it
//!
//! After the splice the closure is **patched**, not swept
//! ([`QuotientClosure::advance`]). The splice hands out one id per group
//! but the unchanged ones, in group order; call those classes *born*, and
//! the affected classes it did not keep and the absorbed ones *retired*.
//! First the rows of the retired ids are cleared, and their columns from
//! the rows that hold them — the old ancestors' descendant rows and the old
//! descendants' ancestor rows. A born class's two rows are its group's
//! signatures read over the new ids: an unaffected id stays itself, an
//! absorbed id and a unit bit become the id of the group they joined (the
//! kept id, for a unit of an unchanged group), and the class's own id is
//! dropped (a cyclic group's signature holds its own units; rows hold
//! proper paths only). By L4 these are exact.
//!
//! **L6 (the rest moves only where a born class is).** Call a class
//! *frozen* when the step left its members and its cones unchanged as node
//! sets: an unaffected class (L1) or an unchanged one (L7). The survivors of
//! a step are exactly the frozen classes. (a) *Columns.* The born classes
//! partition the nodes of the retired ones. So the row of a frozen class
//! `r` loses exactly the retired columns and gains exactly the born classes
//! that hold a node of its cone: `b` enters `desc[r]` iff `r ∈ anc[b]`,
//! which the born rows already say. Setting the born columns by transposing
//! the born rows therefore completes every frozen row, and no other bit of
//! it moves. (b) *Reduction.* An edge `(x, y)` of the DAG is kept iff no
//! class lies strictly between, `desc[x] ∩ anc[y] = ∅`. Let `x` and `y` be
//! frozen. The nodes strictly between them — reached from `x`, reaching
//! `y`, in neither — are the same before and after the step, and a class
//! lies strictly between iff it holds one of them, so the answer is the same
//! on both sides. Where it is "none", `x` reaches `y` iff a class edge
//! `(x, y)` exists, on both sides; so a class edge between two frozen
//! classes that appears or disappears in the step is never kept, and one
//! that stays keeps its status. The kept edges that touch no retired id
//! therefore stay kept, and only the edges that touch a born class are
//! decided, each by one AND of two rows.
//!
//! ## Cost
//!
//! A regroup costs `Σ` over the units of their distinct unaffected
//! neighbours `× id_space / 64` words for the row unions, a condensation
//! and a refinement over the units, one pass over the popcount table, and
//! one row comparison per group that is one affected class's units. The
//! patch costs, in `id_space / 64`-word rows: one per retired id and per
//! row holding a retired column, two per born class and one per edge
//! touching it, plus one bit per pair of a born class and a frozen class in
//! its cones, and one pass over the kept edges — nothing at all when every
//! group is unchanged. A born class's signature rows are read a group at a
//! time, one unit bit per group, so a batch that explodes a class into
//! thousands of units pays `#units / 64` words a row for them, not a bit
//! each. Popcounts are recounted for the born rows and adjusted by the bits
//! set and cleared everywhere else. Only construction (and recovery, which
//! constructs) sweeps: `O(|Er| · id_space / 64)` words per direction.

#![deny(clippy::disallowed_types)]

use qpgc_graph::ids::LabelInterner;
use qpgc_graph::quotient::{Cut, Equivalence, Group, IncrementalQuotient, Regrouped};
use qpgc_graph::reach_sets::DagReach;
use qpgc_graph::scc::Condensation;
use qpgc_graph::transitive::transitive_reduction_dag;
use qpgc_graph::update::PartitionDelta;
use qpgc_graph::{BitMatrix, CsrGraph, Label, NodeId};

use crate::equivalence::{key_hash, refine_chunk};

const WORD: usize = u64::BITS as usize;

/// The closure of a quotient DAG over stable class ids — see the module
/// header.
#[derive(Clone, Debug)]
pub struct QuotientClosure {
    /// Row `c`: the classes `c` properly reaches.
    desc: BitMatrix,
    /// Row `c`: the classes that properly reach `c` (the transpose).
    anc: BitMatrix,
    /// The transitive reduction of the quotient's edges.
    kept: Vec<(NodeId, NodeId)>,
    /// `(|anc[c]|, |desc[c]|)` per id.
    counts: Vec<(u32, u32)>,
}

/// What a regroup against the closure leaves for the patch after the
/// splice ([`QuotientClosure::advance`]): the normalised signatures of L4,
/// and where each group and each unit went.
#[derive(Debug)]
pub struct Signatures {
    /// Per unit component: its descendants over the old unaffected ids,
    /// then one bit per unit.
    below: BitMatrix,
    /// Per unit component: its ancestors, likewise.
    above: BitMatrix,
    /// Per group, in splice order: one of its components (they all have
    /// the group's rows).
    comp_of_group: Vec<usize>,
    /// Per group, in splice order: the class it is, unchanged (L7).
    unchanged: Vec<Option<u32>>,
    /// Per unit: its group, in splice order.
    group_of_unit: Vec<u32>,
    /// `(class, group)` per group that absorbs an unaffected class.
    absorbed: Vec<(u32, u32)>,
}

impl Signatures {
    /// The id each group ends up with, in splice order: the class an
    /// unchanged group is, and the next of the splice's `born` ids for
    /// every other group.
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
    /// class-level `edges` (inactive ids have none): the descendant rows
    /// and the kept edges from one transitive reduction, the ancestor rows
    /// from a sweep of their own — both whole, in one column chunk however
    /// large `id_space` is: the caller decides up to which size it holds a
    /// closure at all.
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
        let id_space = dag.node_count();
        let mut swept = None;
        let kept = transitive_reduction_dag(dag, id_space, |_, desc| swept = Some(desc));
        // An empty quotient has no chunk for the reduction to sweep.
        let desc = swept.unwrap_or_else(|| dag.full_descendants());
        let anc = dag.full_ancestors();
        let counts = (0..id_space)
            .map(|c| (anc.count_ones(c) as u32, desc.count_ones(c) as u32))
            .collect();
        QuotientClosure {
            desc,
            anc,
            kept,
            counts,
        }
    }

    /// Size of the id space the closure was swept over.
    pub fn id_space(&self) -> usize {
        self.counts.len()
    }

    /// Whether class `from` reaches class `to` by a non-empty path.
    pub fn reaches(&self, from: u32, to: u32) -> bool {
        self.desc.contains(from as usize, to as usize)
    }

    /// The transitively reduced edges of the quotient, sorted by
    /// `(source, target)`.
    pub fn kept(&self) -> &[(NodeId, NodeId)] {
        &self.kept
    }

    /// `(|anc(c)|, |desc(c)|)`: how many classes properly reach `c` and
    /// are properly reached by it.
    pub fn counts(&self, c: NodeId) -> (u64, u64) {
        let (anc, desc) = self.counts[c.index()];
        (u64::from(anc), u64::from(desc))
    }

    /// Scratch copies of the descendant and the ancestor matrix, on spare
    /// buffers, for a consumer that strikes its input
    /// ([`TwoHopIndex::from_closure`](crate::two_hop::TwoHopIndex::from_closure)).
    pub fn matrices(&self) -> (BitMatrix, BitMatrix) {
        (
            BitMatrix::copy_of(&self.desc),
            BitMatrix::copy_of(&self.anc),
        )
    }

    /// Checks the closure against the quotient it claims to describe, the
    /// one with `id_space` ids and the class-level `edges`: field by field —
    /// descendant rows, ancestor rows, kept edges, popcounts — against a
    /// fresh sweep ([`QuotientClosure::sweep`]). `Err` names the first field
    /// that differs.
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
            (self.counts == swept.counts, "popcounts"),
        ];
        match fields.iter().find(|&&(same, _)| !same) {
            Some((_, field)) => Err(format!("held {field} differ from a fresh sweep")),
            None => Ok(()),
        }
    }

    /// Patches this closure — of the quotient a step was taken over — into
    /// the closure of `q`, the quotient after it, by L4 and L6 of the module
    /// header. `delta` is what the step's splice returned, and `signatures`
    /// what its regroup against this closure handed back
    /// ([`QuotientClosure::regroup`]). The matrices grow in place to
    /// `delta.id_space`; the caller drops the closure instead when that
    /// is past one column chunk.
    pub fn advance<E: Equivalence>(
        &mut self,
        delta: &PartitionDelta,
        signatures: Signatures,
        q: &IncrementalQuotient<E>,
    ) {
        if delta.is_empty() {
            // Every group is an affected class unchanged (L7).
            return;
        }
        let old = self.id_space();
        let ids = delta.id_space;
        let group_ids = signatures.ids(&delta.born);

        // Retired ids go. Row 0: the retired ids; row 1: the descendant rows
        // holding one of them, row 2: the ancestor rows — read off the old
        // rows of the retired ids before any of them is cleared.
        let mut masks = BitMatrix::new(3, old);
        for &k in &delta.removed {
            masks.insert(0, k as usize);
            masks.union_row_with(1, self.anc.row(k as usize));
            masks.union_row_with(2, self.desc.row(k as usize));
        }
        masks.difference_rows(1, 0);
        masks.difference_rows(2, 0);
        for r in masks.ones(1) {
            self.counts[r].1 -= self.desc.difference_row_with(r, masks.row(0)) as u32;
        }
        for r in masks.ones(2) {
            self.counts[r].0 -= self.anc.difference_row_with(r, masks.row(0)) as u32;
        }
        for &k in &delta.removed {
            self.desc.clear_row(k as usize);
            self.anc.clear_row(k as usize);
            self.counts[k as usize] = (0, 0);
        }

        // Born rows are the signatures, read over the new ids.
        self.desc.grow(ids, ids);
        self.anc.grow(ids, ids);
        self.counts.resize(ids, (0, 0));
        let born = &delta.born;
        let mut read = Reading::new(&signatures, &group_ids, old);
        let changed = (signatures.unchanged.iter())
            .zip(&group_ids)
            .zip(&signatures.comp_of_group)
            .filter(|((kept, _), _)| kept.is_none());
        for ((_, &b), &comp) in changed {
            let b = b as usize;
            read.born_row(&mut self.desc, b, &signatures.below, comp);
            read.born_row(&mut self.anc, b, &signatures.above, comp);
            self.counts[b] = (
                self.anc.count_ones(b) as u32,
                self.desc.count_ones(b) as u32,
            );
        }

        // L6(a): every other row gains the born columns, by transposition.
        let mut born_mask = vec![0u64; ids.div_ceil(WORD)];
        for &b in born {
            born_mask[b as usize / WORD] |= 1 << (b as usize % WORD);
        }
        let is_born = |c: usize| born_mask[c / WORD] & (1 << (c % WORD)) != 0;
        for &b in born {
            let b = b as usize;
            for r in ones_outside(self.anc.row(b), &born_mask) {
                self.desc.insert(r, b);
                self.counts[r].1 += 1;
            }
            for r in ones_outside(self.desc.row(b), &born_mask) {
                self.anc.insert(r, b);
                self.counts[r].0 += 1;
            }
        }

        // L6(b): the kept edges that touch a retired id go; each edge that
        // touches a born class is decided by its two rows.
        let retired = |c: NodeId| masks.contains(0, c.index());
        self.kept.retain(|&(x, y)| !retired(x) && !retired(y));
        let mut decided: Vec<(NodeId, NodeId)> = Vec::new();
        let between = |x: u32, y: u32| {
            let (below, above) = (self.desc.row(x as usize), self.anc.row(y as usize));
            below.iter().zip(above).any(|(d, a)| d & a != 0)
        };
        for &b in born {
            for &(c, _) in q.out_row(b) {
                if !between(b, c) {
                    decided.push((NodeId(b), NodeId(c)));
                }
            }
            for &x in q.in_row(b) {
                if !is_born(x as usize) && !between(x, b) {
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
    /// L7 of the module header. The signatures go back with the groups, for
    /// the patch after the splice.
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

        // L4: the normalised signatures, grouped by the kernel's refinement.
        let mut affected_ids = vec![0u64; ids.div_ceil(WORD)];
        for &k in cut.affected() {
            affected_ids[k as usize / WORD] |= 1 << (k as usize % WORD);
        }
        let signatures = |closure: &BitMatrix, downward: bool| {
            let comps = cond.component_count();
            let mut rows = BitMatrix::new(comps, ids + units);
            for i in 0..comps {
                // Tarjan numbers a component after its children.
                let comp = if downward { i } else { comps - 1 - i };
                let next = if downward {
                    cond.scc_out(comp as u32)
                } else {
                    cond.scc_in(comp as u32)
                };
                for &b in next {
                    rows.union_rows(comp, b as usize);
                    for u in cond.members(b) {
                        rows.insert(comp, ids + u.index());
                    }
                }
                for u in cond.members(comp as u32) {
                    let classes = if downward {
                        cut.out_classes(u.index())
                    } else {
                        cut.in_classes(u.index())
                    };
                    for &c in classes {
                        rows.union_row_with(comp, closure.row(c as usize));
                        rows.insert(comp, c as usize);
                    }
                    if cyclic_comp[comp] {
                        rows.insert(comp, ids + u.index());
                    }
                }
                for (w, &affected) in affected_ids.iter().enumerate() {
                    let mut hits = rows.row(comp)[w] & affected;
                    while hits != 0 {
                        let k = w * WORD + hits.trailing_zeros() as usize;
                        hits &= hits - 1;
                        rows.remove(comp, k);
                        for u in cut.units_of_class(k as u32) {
                            rows.insert(comp, ids + u);
                        }
                    }
                }
            }
            rows
        };
        let below = signatures(&self.desc, true);
        let above = signatures(&self.anc, false);
        let mut block = vec![0u32; cond.component_count()];
        refine_chunk(&below, &above, &cyclic_comp, &mut block, &key_hash);

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

        // Each group's rows over the old ids. L7: a group that is one
        // affected class with its old cones is that class, unchanged. L5:
        // every other acyclic group, keyed by its popcounts, against the
        // unaffected acyclic classes.
        let words = ids.div_ceil(WORD);
        let mut rows: Vec<u64> = Vec::new();
        let mut keyed: Vec<((u32, u32), usize, usize)> = Vec::new();
        for (i, group) in groups.iter_mut().enumerate() {
            let (at, comp) = (rows.len(), comp_of_group[i]);
            let whole = over_old_ids(&above, comp, cut, &mut rows)
                && over_old_ids(&below, comp, cut, &mut rows);
            if whole {
                let (anc, desc) = rows[at..].split_at_mut(words);
                group.unchanged = self.unchanged(group, cyclic, cut, anc, desc);
                if group.unchanged.is_none() && !group.class {
                    let count = |row: &[u64]| row.iter().map(|w| w.count_ones()).sum();
                    keyed.push(((count(anc), count(desc)), i, at));
                    continue;
                }
            }
            rows.truncate(at);
        }
        keyed.sort_unstable();
        for c in (0..ids).filter(|&c| active[c] && !cyclic[c] && !cut.is_affected(c as u32)) {
            let counts = self.counts[c];
            let from = keyed.partition_point(|entry| entry.0 < counts);
            for &(_, i, at) in keyed[from..].iter().take_while(|entry| entry.0 == counts) {
                let (anc, desc) = rows[at..at + 2 * words].split_at(words);
                if anc == self.anc.row(c) && desc == self.desc.row(c) {
                    groups[i].absorbs = Some(c as u32);
                }
            }
        }

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
            comp_of_group,
            group_of_unit,
            absorbed,
        };
        (regrouped, signatures)
    }

    /// L7: the affected class `group` is, unchanged — given the group's
    /// rows over the old ids, `anc` and `desc`. That is class `k` when the
    /// group's units are exactly `k`'s, it has `k`'s cyclic flag, and its
    /// rows less `k`'s own bit (which a cyclic group's rows hold: they hold
    /// its units) are `k`'s rows. Clears that bit of the rows.
    fn unchanged(
        &self,
        group: &Group<bool>,
        cyclic: &[bool],
        cut: &Cut,
        anc: &mut [u64],
        desc: &mut [u64],
    ) -> Option<u32> {
        let (&first, &last) = (group.units.first()?, group.units.last()?);
        let k = cut.class_of_unit(first as usize);
        let units = cut.units_of_class(k);
        let exact = units.start == first as usize
            && units.end == last as usize + 1
            && units.len() == group.units.len();
        if !exact || cyclic[k as usize] != group.class {
            return None;
        }
        let k = k as usize;
        for row in [&mut *anc, &mut *desc] {
            row[k / WORD] &= !(1 << (k % WORD));
        }
        (*anc == *self.anc.row(k) && *desc == *self.desc.row(k)).then_some(k as u32)
    }
}

/// How a signature row reads over the ids after the splice.
struct Reading {
    /// Size of the id space the signatures were taken over; unit `u` is
    /// bit `old + u`.
    old: usize,
    /// Over a signature row: the bit of each group's first unit. A group's
    /// units are equivalent, so a row holds all of them or none, and one
    /// speaks for the rest — a row is read in groups, not in units.
    firsts: Vec<u64>,
    /// Per unit: the id of the class it joined.
    id_of_unit: Vec<u32>,
    /// `(class, id of the class it joined)` per absorbed class.
    absorbed: Vec<(u32, u32)>,
    /// Scratch of one row: its words over the old ids …
    low: Vec<u64>,
    /// … and the ids it gains.
    joined: Vec<u32>,
}

impl Reading {
    /// The reading of `signatures`, taken over `old` ids, whose groups
    /// ended up with the ids `group_ids`.
    fn new(signatures: &Signatures, group_ids: &[u32], old: usize) -> Self {
        let mut firsts = vec![0u64; signatures.below.width().div_ceil(WORD)];
        let mut seen = vec![false; group_ids.len()];
        for (u, &i) in signatures.group_of_unit.iter().enumerate() {
            if !std::mem::replace(&mut seen[i as usize], true) {
                firsts[(old + u) / WORD] |= 1 << ((old + u) % WORD);
            }
        }
        Reading {
            old,
            firsts,
            id_of_unit: (signatures.group_of_unit.iter())
                .map(|&i| group_ids[i as usize])
                .collect(),
            absorbed: (signatures.absorbed.iter())
                .map(|&(c, i)| (c, group_ids[i as usize]))
                .collect(),
            low: Vec::new(),
            joined: Vec::new(),
        }
    }

    /// Writes row `b` of `rows`, all clear, from row `comp` of `signature`:
    /// its unaffected ids as they are, an absorbed id and a unit as the id
    /// of the class they joined, and never `b` itself.
    fn born_row(&mut self, rows: &mut BitMatrix, b: usize, signature: &BitMatrix, comp: usize) {
        self.low.clear();
        old_id_words(signature, comp, self.old, &mut self.low);
        rows.union_row_with(b, &self.low);
        // Every absorbed id is cleared before any id is set: an absorbed
        // class's id can be handed to another group.
        self.joined.clear();
        for &(c, to) in &self.absorbed {
            if rows.contains(b, c as usize) {
                rows.remove(b, c as usize);
                self.joined.push(to);
            }
        }
        let firsts = signature.row(comp).iter().zip(&self.firsts);
        let units = ones_of(firsts.map(|(&word, &first)| word & first));
        (self.joined).extend(units.map(|bit| self.id_of_unit[bit - self.old]));
        for &id in &self.joined {
            rows.insert(b, id as usize);
        }
        rows.remove(b, b);
    }
}

/// The set bits of `row` that `mask` has clear, ascending.
fn ones_outside<'a>(row: &'a [u64], mask: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
    ones_of(row.iter().zip(mask).map(|(&r, &m)| r & !m))
}

/// The positions of the set bits of consecutive words, ascending.
fn ones_of(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, mut word)| {
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                w * WORD + bit
            })
        })
    })
}

/// Appends to `out` the words of row `comp` of a signature matrix over the
/// `ids` old ids, without the unit bits past them.
fn old_id_words(rows: &BitMatrix, comp: usize, ids: usize, out: &mut Vec<u64>) {
    out.extend_from_slice(&rows.row(comp)[..ids.div_ceil(WORD)]);
    if !ids.is_multiple_of(WORD) {
        // The unit bits start inside the last word.
        *out.last_mut().expect("a word holds the last id") &= (1 << (ids % WORD)) - 1;
    }
}

/// Appends to `out` row `comp` of a signature matrix read over the old ids
/// alone: its unaffected ids as they are, plus the id of every affected
/// class *all* of whose unit bits are set. `false` when the row holds some
/// but not all units of a class — no set of old classes is that row.
fn over_old_ids(rows: &BitMatrix, comp: usize, cut: &Cut, out: &mut Vec<u64>) -> bool {
    let ids = cut.id_space();
    let at = out.len();
    old_id_words(rows, comp, ids, out);
    let mut bits = rows.ones_from(comp, ids);
    while let Some(bit) = bits.next() {
        let k = cut.class_of_unit(bit - ids) as usize;
        let mut units = cut.units_of_class(k as u32);
        if units.next() != Some(bit - ids) || !units.all(|u| bits.next() == Some(ids + u)) {
            return false;
        }
        out[at + k / WORD] |= 1 << (k % WORD);
    }
    true
}
