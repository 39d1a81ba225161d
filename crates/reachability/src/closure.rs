//! The reachability closure of the maintained quotient, swept once per
//! batch and read twice: by the publication that follows the step that
//! swept it, and by the **next** step's regroup.
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
//!
//! ## Regrouping against it
//!
//! [`IncrementalQuotient`](qpgc_graph::quotient::IncrementalQuotient) cuts
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
//! Groups are returned in the order the hybrid kernel's first-seen
//! numbering would give them — absorbing groups by absorbed class id, then
//! the others by first unit — so every stable id comes out the same on
//! either path.
//!
//! ## Cost
//!
//! A regroup costs `Σ` over the units of their distinct unaffected
//! neighbours `× id_space / 64` words for the row unions, a condensation
//! and a refinement over the units, and one pass over the popcount table.
//! The sweep that refreshes the closure after the step is the part that
//! does not depend on the batch: `O(|Er| · id_space / 64)` words per
//! direction, as the publication paid before.

use qpgc_graph::ids::LabelInterner;
use qpgc_graph::quotient::{Cut, Group, Regrouped};
use qpgc_graph::reach_sets::DagReach;
use qpgc_graph::scc::Condensation;
use qpgc_graph::transitive::transitive_reduction_dag;
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
        let mut swept = None;
        let kept = transitive_reduction_dag(&dag, id_space, |_, desc| swept = Some(desc));
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

    /// Checks the closure against the quotient it claims to describe:
    /// every row against sweeps of their own over `edges`, the kept edges
    /// against a reduction of their own.
    pub fn check(&self, id_space: usize, edges: Vec<(u32, u32)>) -> Result<(), String> {
        if self.id_space() != id_space {
            return Err(format!(
                "closure over {} ids, the quotient has {id_space}",
                self.id_space()
            ));
        }
        let dag = DagReach::from_edges(id_space, edges).map_err(|e| e.to_string())?;
        if self.desc != dag.full_descendants() {
            return Err("held descendant rows differ from a sweep of the rows".to_string());
        }
        if self.anc != dag.full_ancestors() {
            return Err("held ancestor rows differ from a sweep of the rows".to_string());
        }
        if self.kept != transitive_reduction_dag(&dag, id_space, |_, _| {}) {
            return Err("held kept edges differ from the transitive reduction".to_string());
        }
        let stale = (0..id_space).find(|&c| {
            let (anc, desc) = self.counts[c];
            (anc as usize, desc as usize) != (self.anc.count_ones(c), self.desc.count_ones(c))
        });
        match stale {
            Some(c) => Err(format!("held popcounts of class {c} differ from its rows")),
            None => Ok(()),
        }
    }

    /// Regroups the units of `cut` against this closure — which must be the
    /// closure of the quotient the cut was taken over, whose liveness and
    /// cyclic flags per id are `active` and `cyclic` — by lemmas L4 and L5
    /// of the module header.
    pub fn regroup(&self, active: &[bool], cyclic: &[bool], cut: &Cut) -> Regrouped<bool> {
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
                    class: cyclic_comp[comp],
                });
                comp_of_group.push(comp);
            }
            groups[*slot].units.push(u as u32);
        }

        // L5: an acyclic group's rows over the old ids, keyed by their
        // popcounts, against the unaffected acyclic classes.
        let words = ids.div_ceil(WORD);
        let mut rows: Vec<u64> = Vec::new();
        let mut keyed: Vec<((u32, u32), usize, usize)> = Vec::new();
        for (i, group) in groups.iter().enumerate() {
            let (at, comp) = (rows.len(), comp_of_group[i]);
            let whole = !group.class
                && over_old_ids(&above, comp, cut, &mut rows)
                && over_old_ids(&below, comp, cut, &mut rows);
            if !whole {
                rows.truncate(at);
                continue;
            }
            let (anc, desc) = rows[at..].split_at(words);
            let count = |row: &[u64]| row.iter().map(|w| w.count_ones()).sum();
            keyed.push(((count(anc), count(desc)), i, at));
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
        groups.sort_by_key(|group| group.absorbs.map_or((1, 0), |c| (0, c)));
        Regrouped {
            nodes: units,
            groups,
        }
    }
}

/// Appends to `out` row `comp` of a signature matrix read over the old ids
/// alone: its unaffected ids as they are, plus the id of every affected
/// class *all* of whose unit bits are set. `false` when the row holds some
/// but not all units of a class — no set of old classes is that row.
fn over_old_ids(rows: &BitMatrix, comp: usize, cut: &Cut, out: &mut Vec<u64>) -> bool {
    let ids = cut.id_space();
    let at = out.len();
    out.extend_from_slice(&rows.row(comp)[..ids.div_ceil(WORD)]);
    if !ids.is_multiple_of(WORD) {
        // The unit bits start inside the last word.
        *out.last_mut().expect("a word holds the last id") &= (1 << (ids % WORD)) - 1;
    }
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
