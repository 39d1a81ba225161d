//! The boundary summary: how cross-shard reachability composes.
//!
//! A sharded store keeps **intra-shard** edges inside per-shard
//! maintainers and parks **cross-shard** edges on the router. Any
//! global path decomposes at its cross edges into intra-shard segments,
//! and every such segment is already answered by the `Gr` its shard has
//! just published — so the summary does not probe the shards pair by
//! pair, it runs one reachability algorithm over their quotients *as
//! they are*, stitched together at the boundary nodes.
//!
//! ## The composite graph
//!
//! Per cut, `BoundarySummary::build` lays out one graph with
//!
//! * a **node vertex** `X_x` per boundary node `x` (an endpoint of a live
//!   cross edge),
//! * a **class vertex** `C_{s,c}` per row `c` of shard `s`'s quotient,
//!   read "every member of `c` has been reached", and
//! * a **member vertex** `M_{s,c}` per row, read "standing on some member
//!   of `c`",
//!
//! and the edges `M_c → C_d` for each edge `c → d` of the shard's
//! transitively reduced `Gr` plus `M_c → C_c` iff `c` is cyclic (what one
//! member reaches by a non-empty shard-local path), `C_c → C_d` for the
//! same `Gr` edges, `C_c → X_y` for each boundary node `y` of class `c`,
//! `X_x → M_{class(x)}`, and `X_x → X_y` for each cross edge. That is
//! linear in `B + Σ|Gr_s| + |cross|`, where the boundary has `B` nodes.
//!
//! Node vertices *and* class vertices, because neither alone is both
//! exact and small. Two reach-equivalent nodes of a shard share ancestors
//! and descendants but — in an acyclic class — do not reach each other,
//! so merging boundary nodes into their class would invent the path
//! `x ⇝ sibling`; and a summary over node vertices only needs an edge per
//! shard-locally reachable *pair*, a transitive closure of most of the
//! graph. Splitting the roles keeps both: `X_x` leaves its class through
//! `M`, which steps to *other* classes (or to its own only when the class
//! is cyclic), so an acyclic class is never entered from one of its own
//! members, only from a proper ancestor — exactly the shard-local truth —
//! while the shard's interior costs `|Gr_s|`, not `B²`.
//!
//! ## The flat construction
//!
//! The composite is a counted `u32` CSR laid out straight from the shards'
//! `Gr`s and the cross edges: node vertices, then per shard its class and
//! member blocks, a class vertex listing its boundary members first. One
//! iterative Tarjan fills each component's bit-row of boundary vertices
//! as the component closes, when every row its edges lead to is final:
//! their union, the node vertices its edges enter, and its own node
//! vertices when it is a cycle. A node vertex alone in its component thus
//! never holds its own bit, and its component's row is what `x` reaches by
//! a non-empty path; global cycles that only cross edges close are
//! ordinary components.
//!
//! The rows the read side needs — `X_x`'s, and `M_c`'s, the same for any
//! non-boundary member of `c` — and the backward rows of a Kahn pass over
//! each shard's `Gr` ("boundary nodes of this shard that reach the members
//! of `c`") are interned by content, in first-occurrence order, through an
//! open-addressed table. A query is then one AND over two rows: see
//! `BoundarySummary::bridges`.
//!
//! No summary is carried over between cuts, but the router keeps the
//! build's working buffers (`Scratch`) from one bump to the next: a
//! buffer allocated afresh every batch past the allocator's `mmap`
//! threshold is unmapped again each time, a TLB shootdown on every core
//! that runs a reader.

use std::sync::Arc;

use qpgc_graph::{CsrGraph, NodeId, NodePartition};

use crate::snapshot::Snapshot;

/// `vertex_of` entry of a node that is no boundary node.
const INTERIOR: u32 = u32::MAX;

/// The Tarjan index of a composite vertex not reached yet, the component
/// of one not closed yet, and an empty slot of the interning table.
const UNSET: u32 = u32::MAX;

/// The two interned rows of one quotient row of one shard.
#[derive(Clone, Copy, Debug, PartialEq)]
struct ClassRows {
    /// Boundary vertices any member reaches by a non-empty path.
    from: u32,
    /// Boundary vertices of the same shard that reach the members
    /// shard-locally (a member itself only when the class is cyclic).
    into: u32,
}

/// The reachability summary over one consistent cut's cross edges.
///
/// Immutable once built — it is published inside a
/// [`ShardedSnapshot`](crate::sharded::ShardedSnapshot) and shares its
/// lifetime, so readers compose queries against exactly the cross-edge set
/// and shard snapshots of one watermark.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BoundarySummary {
    /// Boundary vertex of every node ([`INTERIOR`] for the rest), numbered
    /// in ascending node-id order; empty when there is no cross edge.
    vertex_of: Vec<u32>,
    /// Row of each boundary vertex: the boundary vertices it reaches by a
    /// non-empty path.
    vertex_row: Vec<u32>,
    /// Per shard, per quotient row (stable class id).
    class_rows: Vec<Vec<ClassRows>>,
    /// The interned bit-rows, `words` blocks each, bit `i` = vertex `i`.
    rows: Vec<u64>,
    words: usize,
}

/// The working buffers of [`BoundarySummary::build`], kept by the router
/// between watermark bumps (see the module docs). Every build overwrites
/// what it reads, so a build that panicked half way leaves nothing the
/// next one sees.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The live cross edges, as node ids and then as vertex pairs.
    cross: Vec<(u32, u32)>,
    /// The class vertex `C` and member vertex `M` of each boundary
    /// vertex's class.
    home: Vec<(u32, u32)>,
    /// The composite CSR.
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// The component of each composite vertex, and what finds it.
    tarjan: Tarjan,
    /// Boundary vertices in or below each component, `words` a row.
    closed: Vec<u64>,
    /// Kahn over one shard's `Gr`: pending in-edges, the ready classes,
    /// the backward row of each class and the row a class hands down.
    pending: Vec<u32>,
    ready: Vec<u32>,
    into: Vec<u64>,
    carry: Vec<u64>,
    /// The interned rows and the open-addressed table of their ids.
    rows: Vec<u64>,
    slots: Vec<u32>,
}

/// Sets bit `i` of `row`.
#[inline]
fn set_bit(row: &mut [u64], i: u32) {
    row[i as usize / 64] |= 1 << (i % 64);
}

/// `dst |= src`, word by word.
#[inline]
fn union(dst: &mut [u64], src: &[u64]) {
    for (a, b) in dst.iter_mut().zip(src) {
        *a |= b;
    }
}

/// Content-interning of `words`-word rows into `rows`, probing linearly
/// in `slots` (a power of two at least twice the rows interned).
fn intern(rows: &mut Vec<u64>, slots: &mut [u32], words: usize, row: &[u64]) -> u32 {
    let hash = row.iter().fold(0u64, |h, &w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
    });
    let mask = slots.len() - 1;
    let mut at = (hash >> (64 - slots.len().trailing_zeros())) as usize;
    loop {
        match slots[at] {
            UNSET => {
                let id = (rows.len() / words) as u32;
                rows.extend_from_slice(row);
                slots[at] = id;
                return id;
            }
            id if &rows[id as usize * words..][..words] == row => return id,
            _ => at = (at + 1) & mask,
        }
    }
}

/// Tarjan's working arrays: visit index, low link and component per
/// composite vertex, the component stack and the DFS frames (vertex, next
/// edge).
#[derive(Debug, Default)]
struct Tarjan {
    index: Vec<u32>,
    low: Vec<u32>,
    comp: Vec<u32>,
    stack: Vec<u32>,
    frames: Vec<(u32, u32)>,
}

/// One iterative Tarjan over the CSR graph `offsets` / `targets`: numbers
/// its components into `tarjan.comp` and writes row `k` of `closed`,
/// `words` words: the vertices below `b` (the node vertices) that
/// component `k` reaches by a non-empty path.
fn close_components(
    offsets: &[u32],
    targets: &[u32],
    b: u32,
    words: usize,
    tarjan: &mut Tarjan,
    closed: &mut Vec<u64>,
) {
    let Tarjan {
        index,
        low,
        comp,
        stack,
        frames,
    } = tarjan;
    let n = offsets.len() - 1;
    index.clear();
    index.resize(n, UNSET);
    low.clear();
    low.resize(n, 0);
    comp.clear();
    comp.resize(n, UNSET);
    stack.clear();
    frames.clear();
    closed.clear();
    // A component closes after every component it reaches, so its row only
    // reads finished rows.
    let mut visited = 0u32;
    let mut components = 0u32;
    for root in 0..n as u32 {
        if index[root as usize] != UNSET {
            continue;
        }
        index[root as usize] = visited;
        low[root as usize] = visited;
        visited += 1;
        stack.push(root);
        frames.push((root, offsets[root as usize]));
        while let Some(&mut (v, ref mut next)) = frames.last_mut() {
            let v = v as usize;
            if *next < offsets[v + 1] {
                let w = targets[*next as usize] as usize;
                *next += 1;
                if index[w] == UNSET {
                    index[w] = visited;
                    low[w] = visited;
                    visited += 1;
                    stack.push(w as u32);
                    frames.push((w as u32, offsets[w]));
                } else if comp[w] == UNSET {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent as usize] = low[parent as usize].min(low[v]);
            }
            if low[v] != index[v] {
                continue;
            }
            let first = stack
                .iter()
                .rposition(|&w| w as usize == v)
                .expect("a component root is on the stack");
            let members = &stack[first..];
            for &w in members {
                comp[w as usize] = components;
            }
            closed.resize((components as usize + 1) * words, 0);
            let (done, row) = closed.split_at_mut(components as usize * words);
            if members.len() > 1 {
                for &w in members.iter().filter(|&&w| w < b) {
                    set_bit(row, w);
                }
            }
            for &u in members {
                let u = u as usize;
                for &w in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
                    let k = comp[w as usize];
                    if k != components {
                        union(row, &done[k as usize * words..][..words]);
                        if w < b {
                            set_bit(row, w);
                        }
                    }
                }
            }
            stack.truncate(first);
            components += 1;
        }
    }
}

impl BoundarySummary {
    /// Builds the summary of one cut: `cross` is the live cross-edge set
    /// (any order, duplicates tolerated), `snaps` the per-shard snapshots
    /// of the same watermark, `scratch` the router's working buffers. See
    /// the module docs for the construction.
    pub(crate) fn build(
        snaps: &[Arc<Snapshot>],
        cross: impl Iterator<Item = (NodeId, NodeId)>,
        part: &NodePartition,
        scratch: &mut Scratch,
    ) -> BoundarySummary {
        let Scratch {
            cross: pairs,
            home,
            offsets,
            targets,
            tarjan,
            closed,
            pending,
            ready,
            into,
            carry,
            rows,
            slots,
        } = scratch;
        pairs.clear();
        pairs.extend(cross.map(|(u, v)| (u.0, v.0)));
        if pairs.is_empty() {
            return BoundarySummary::default();
        }
        let mut vertex_of = vec![INTERIOR; snaps[0].node_count()];
        let mut b = 0u32;
        for &(u, v) in pairs.iter() {
            for x in [u, v] {
                if vertex_of[x as usize] == INTERIOR {
                    vertex_of[x as usize] = 0;
                    b += 1;
                }
            }
        }

        // Composite layout: X_0..X_B, then per shard its C block and its M
        // block, each as long as the shard's stable-id space.
        // An `Arc` bump on the plain backend, one decode on the succinct.
        let grs: Vec<Arc<CsrGraph>> = snaps.iter().map(|s| s.quotient().to_plain_arc()).collect();
        let mut base = Vec::with_capacity(snaps.len());
        let mut total = b;
        for gr in &grs {
            base.push(total);
            total += 2 * gr.node_count() as u32;
        }
        home.clear();
        for (v, slot) in vertex_of.iter_mut().enumerate() {
            if *slot != INTERIOR {
                *slot = home.len() as u32;
                let node = NodeId(v as u32);
                let s = part.shard_of(node);
                let c = snaps[s]
                    .class_of(node)
                    .expect("boundary nodes are nodes of the store");
                let cv = base[s] + c;
                home.push((cv, cv + grs[s].node_count() as u32));
            }
        }
        for pair in pairs.iter_mut() {
            *pair = (vertex_of[pair.0 as usize], vertex_of[pair.1 as usize]);
        }

        // Counted CSR: out-degrees into `offsets[v + 1]`, prefix sums, then
        // every edge at its source's cursor `offsets[v]`; the cursors end
        // one row on, so a shift by one restores the row starts. A class
        // vertex's boundary members are placed before its `Gr` successors.
        let n = total as usize;
        offsets.clear();
        offsets.resize(n + 1, 0);
        for (x, &(cv, _)) in (0..).zip(home.iter()) {
            offsets[x + 1] += 1;
            offsets[cv as usize + 1] += 1;
        }
        for &(x, _) in pairs.iter() {
            offsets[x as usize + 1] += 1;
        }
        for (s, gr) in grs.iter().enumerate() {
            let classes = gr.node_count();
            for (c, &cyclic) in snaps[s].cyclic_slice().iter().enumerate() {
                let out = gr.out_neighbors(NodeId(c as u32)).len() as u32;
                let cv = base[s] as usize + c;
                offsets[cv + 1] += out;
                offsets[cv + classes + 1] += out + u32::from(cyclic);
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        targets.clear();
        targets.resize(offsets[n] as usize, 0);
        let mut push = |from: u32, to: u32| {
            let at = &mut offsets[from as usize];
            targets[*at as usize] = to;
            *at += 1;
        };
        for (x, &(cv, mv)) in (0..).zip(home.iter()) {
            push(cv, x);
            push(x, mv);
        }
        for &(x, y) in pairs.iter() {
            push(x, y);
        }
        for (s, gr) in grs.iter().enumerate() {
            for (c, &cyclic) in (0u32..).zip(snaps[s].cyclic_slice()) {
                let cv = base[s] + c;
                let mv = cv + gr.node_count() as u32;
                for &d in gr.out_neighbors(NodeId(c)) {
                    push(mv, base[s] + d.0);
                    push(cv, base[s] + d.0);
                }
                if cyclic {
                    push(mv, cv);
                }
            }
        }
        offsets.copy_within(..n, 1);
        offsets[0] = 0;

        let words = (b as usize).div_ceil(64);
        close_components(offsets, targets, b, words, tarjan, closed);
        let closed_of = |v: u32| &closed[tarjan.comp[v as usize] as usize * words..][..words];

        rows.clear();
        slots.clear();
        slots.resize((2 * n).next_power_of_two(), UNSET);
        let mut vertex_row = Vec::with_capacity(b as usize);
        for x in 0..b {
            vertex_row.push(intern(rows, slots, words, closed_of(x)));
        }
        let mut class_rows = Vec::with_capacity(snaps.len());
        for (s, gr) in grs.iter().enumerate() {
            // Kahn over the shard's `Gr`. Row `c`: what reaches the members
            // of `c` from above, plus `c`'s own boundary members when `c`
            // is cyclic; a child inherits the row and the members either
            // way (`carry`).
            let classes = gr.node_count();
            let members = |c: usize| {
                let cv = base[s] as usize + c;
                let out = &targets[offsets[cv] as usize..offsets[cv + 1] as usize];
                &out[..out.partition_point(|&t| t < b)]
            };
            pending.clear();
            pending.resize(classes, 0);
            for c in 0..classes as u32 {
                for &d in gr.out_neighbors(NodeId(c)) {
                    pending[d.index()] += 1;
                }
            }
            ready.clear();
            ready.extend((0..classes as u32).filter(|&c| pending[c as usize] == 0));
            into.clear();
            into.resize(classes * words, 0);
            let cyclic = snaps[s].cyclic_slice();
            while let Some(c) = ready.pop() {
                let c = c as usize;
                carry.clear();
                carry.extend_from_slice(&into[c * words..][..words]);
                for &x in members(c) {
                    set_bit(carry, x);
                    if cyclic[c] {
                        set_bit(&mut into[c * words..][..words], x);
                    }
                }
                for &d in gr.out_neighbors(NodeId(c as u32)) {
                    union(&mut into[d.index() * words..][..words], carry);
                    pending[d.index()] -= 1;
                    if pending[d.index()] == 0 {
                        ready.push(d.0);
                    }
                }
            }
            let mut per_class = Vec::with_capacity(classes);
            for c in 0..classes {
                let mv = base[s] + (classes + c) as u32;
                per_class.push(ClassRows {
                    from: intern(rows, slots, words, closed_of(mv)),
                    into: intern(rows, slots, words, &into[c * words..][..words]),
                });
            }
            class_rows.push(per_class);
        }

        BoundarySummary {
            vertex_of,
            vertex_row,
            class_rows,
            rows: rows.to_vec(),
            words,
        }
    }

    /// Number of boundary vertices (distinct cross-edge endpoints).
    pub fn vertex_count(&self) -> usize {
        self.vertex_row.len()
    }

    fn row(&self, id: u32) -> &[u64] {
        &self.rows[id as usize * self.words..][..self.words]
    }

    /// Whether a path `u ⇝ w` exists that passes through a boundary node
    /// after leaving `u`: `u` reaches — by a non-empty path anywhere in the
    /// graph — either `w` itself or a boundary node of `w`'s shard that
    /// shard-locally reaches `w`. `from` and `to` are the shard and stable
    /// class of `u` and of `w`; paths that touch no boundary node are
    /// purely shard-local and the caller's first check.
    pub(crate) fn bridges(
        &self,
        u: NodeId,
        from: (usize, u32),
        w: NodeId,
        to: (usize, u32),
    ) -> bool {
        if self.vertex_row.is_empty() {
            return false;
        }
        let reached = self.row(match self.vertex_of[u.index()] {
            INTERIOR => self.class_rows[from.0][from.1 as usize].from,
            x => self.vertex_row[x as usize],
        });
        let y = self.vertex_of[w.index()];
        if y != INTERIOR && reached[y as usize / 64] & (1 << (y % 64)) != 0 {
            return true;
        }
        let into = self.row(self.class_rows[to.0][to.1 as usize].into);
        reached.iter().zip(into).any(|(a, b)| a & b != 0)
    }

    /// Heap footprint, for capacity accounting next to
    /// [`Snapshot::heap_bytes`].
    pub fn heap_bytes(&self) -> usize {
        (self.vertex_of.capacity() + self.vertex_row.capacity()) * std::mem::size_of::<u32>()
            + self
                .class_rows
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<ClassRows>())
                .sum::<usize>()
            + self.rows.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use qpgc_graph::traversal::bfs_reachable;
    use qpgc_graph::{LabeledGraph, NodeId, NodePartition, UpdateBatch};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::{BoundarySummary, INTERIOR};
    use crate::sharded::{ShardedSnapshot, ShardedStore};
    use crate::store::StoreConfig;

    /// The first `count` node ids the two-way partition gives to `shard`.
    fn owned(shard: usize, count: usize) -> Vec<NodeId> {
        let part = NodePartition::new(2);
        (0..)
            .map(NodeId)
            .filter(|&v| part.shard_of(v) == shard)
            .take(count)
            .collect()
    }

    /// Publishes `edges` on a two-shard store and checks every pair of the
    /// cut against BFS on the data graph before handing the cut back.
    fn two_shard_cut(edges: &[(NodeId, NodeId)]) -> std::sync::Arc<ShardedSnapshot> {
        let n = edges.iter().map(|&(u, v)| u.0.max(v.0)).max().unwrap() + 1;
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node_with_label("X");
        }
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        let cut = ShardedStore::new(g.clone(), StoreConfig::builder().shards(2).build())
            .unwrap()
            .load();
        for u in g.nodes() {
            for w in g.nodes() {
                assert_eq!(cut.reachable(u, w), bfs_reachable(&g, u, w), "({u},{w})");
            }
        }
        cut
    }

    /// `a` and `b` share a shard-local class (same parent, no children)
    /// and both sit on the boundary: whoever reaches one must not be
    /// handed the other.
    #[test]
    fn acyclic_boundary_siblings_do_not_reach_each_other() {
        let (home, away) = (owned(0, 3), owned(1, 2));
        let (p, a, b) = (home[0], home[1], home[2]);
        let (y, z) = (away[0], away[1]);
        let cut = two_shard_cut(&[(p, a), (p, b), (a, z), (b, z), (y, a)]);
        let local = &cut.shard_snapshots()[0];
        assert_eq!(local.class_of(a), local.class_of(b));
        assert!(!cut.reachable(a, b) && !cut.reachable(b, a));
        assert!(cut.reachable(y, a) && cut.reachable(y, z) && !cut.reachable(y, b));
    }

    /// Both shard quotients are chains; only the two cross edges close the
    /// cycle `a → a2 ⇒ b → b2 ⇒ a`.
    #[test]
    fn a_cycle_closed_only_by_cross_edges_is_one_component() {
        let (home, away) = (owned(0, 3), owned(1, 3));
        let (t, a, a2) = (home[0], home[1], home[2]);
        let (b, b2, h) = (away[0], away[1], away[2]);
        let cut = two_shard_cut(&[(t, a), (a, a2), (a2, b), (b, b2), (b2, a), (b2, h)]);
        for &u in &[a, a2, b, b2] {
            for &w in &[a, a2, b, b2, h] {
                assert!(cut.reachable(u, w), "({u},{w})");
            }
            assert!(cut.reachable(t, u) && !cut.reachable(u, t));
        }
    }

    /// `u` and `w` share a shard that holds no path between them; the only
    /// one detours through the other shard.
    #[test]
    fn a_path_may_leave_a_shard_and_come_back() {
        let (home, away) = (owned(0, 4), owned(1, 2));
        let (u, u2, w2, w) = (home[0], home[1], home[2], home[3]);
        let (x, x2) = (away[0], away[1]);
        let cut = two_shard_cut(&[(u, u2), (u2, x), (x, x2), (x2, w2), (w2, w)]);
        assert!(!cut.shard_snapshots()[0].reachable(u, w));
        assert!(cut.reachable(u, w) && !cut.reachable(w, u));
    }

    /// A cyclic class reaches its own members: entering it at boundary
    /// node `a` reaches the interior member `c` and the boundary member
    /// `b`, and leaves through `b`.
    #[test]
    fn a_boundary_node_inside_a_cyclic_class_reaches_its_classmates() {
        let (home, away) = (owned(0, 3), owned(1, 2));
        let (a, b, c) = (home[0], home[1], home[2]);
        let (z, y) = (away[0], away[1]);
        let cut = two_shard_cut(&[(a, b), (b, c), (c, a), (z, a), (b, y)]);
        let local = &cut.shard_snapshots()[0];
        assert_eq!(local.class_of(a), local.class_of(c));
        assert!(cut.reachable(z, c) && cut.reachable(z, b) && cut.reachable(z, y));
        assert!(cut.reachable(c, y) && !cut.reachable(y, z));
    }

    /// The nodes `x` reaches by a non-empty path over the edges `keep`
    /// admits, by BFS on the data graph.
    fn reached_from(
        g: &LabeledGraph,
        x: NodeId,
        keep: impl Fn(NodeId, NodeId) -> bool,
    ) -> Vec<bool> {
        let mut seen = vec![false; g.node_count()];
        let mut queue = vec![x];
        while let Some(u) = queue.pop() {
            for &w in g.out_neighbors(u) {
                if keep(u, w) && !seen[w.index()] {
                    seen[w.index()] = true;
                    queue.push(w);
                }
            }
        }
        seen
    }

    /// The boundary vertices row `id` holds, ascending.
    fn bits(summary: &BoundarySummary, id: u32) -> Vec<u32> {
        let row = summary.row(id);
        (0..summary.vertex_count() as u32)
            .filter(|&y| row[y as usize / 64] & (1 << (y % 64)) != 0)
            .collect()
    }

    /// Checks every row of `cut`'s summary against BFS on `g`: the boundary
    /// is the set of live cross-edge endpoints, a boundary node's row is
    /// what it reaches by a non-empty path, an interior node's class `from`
    /// row is the same for that node, and a class's `into` row holds the
    /// boundary nodes of its shard that reach a member by a non-empty path
    /// inside the shard. Every pair of the cut answers like BFS too.
    fn rows_match_bfs(cut: &ShardedSnapshot, g: &LabeledGraph, part: &NodePartition) {
        let summary = cut.boundary();
        let local =
            |s: usize| move |u: NodeId, w: NodeId| part.shard_of(u) == s && part.shard_of(w) == s;
        let mut boundary: Vec<NodeId> = g
            .edges()
            .filter(|&(u, w)| part.shard_of(u) != part.shard_of(w))
            .flat_map(|(u, w)| [u, w])
            .collect();
        boundary.sort_unstable();
        boundary.dedup();
        assert_eq!(summary.vertex_count(), boundary.len());
        if boundary.is_empty() {
            assert_eq!(*summary, BoundarySummary::default());
        } else {
            let vertex = |v: NodeId| summary.vertex_of[v.index()];
            for (x, &node) in boundary.iter().enumerate() {
                assert_eq!(vertex(node), x as u32);
            }
            let expect = |reached: &[bool], within: Option<usize>| -> Vec<u32> {
                boundary
                    .iter()
                    .filter(|&&y| {
                        reached[y.index()] && within.is_none_or(|s| part.shard_of(y) == s)
                    })
                    .map(|&y| vertex(y))
                    .collect()
            };
            for v in g.nodes() {
                let s = part.shard_of(v);
                let c = cut.shard_snapshots()[s].class_of(v).unwrap();
                let id = match vertex(v) {
                    INTERIOR => summary.class_rows[s][c as usize].from,
                    x => summary.vertex_row[x as usize],
                };
                let reached = reached_from(g, v, |_, _| true);
                assert_eq!(bits(summary, id), expect(&reached, None), "row of {v}");
            }
            for (s, snap) in cut.shard_snapshots().iter().enumerate() {
                let members = |c: u32| {
                    g.nodes()
                        .filter(move |&v| part.shard_of(v) == s && snap.class_of(v) == Some(c))
                };
                for c in 0..snap.quotient().node_count() as u32 {
                    let mut into = vec![false; g.node_count()];
                    for &y in boundary.iter().filter(|&&y| part.shard_of(y) == s) {
                        let reached = reached_from(g, y, local(s));
                        into[y.index()] = members(c).any(|m| reached[m.index()]);
                    }
                    let id = summary.class_rows[s][c as usize].into;
                    assert_eq!(
                        bits(summary, id),
                        expect(&into, Some(s)),
                        "into row of {s}:{c}"
                    );
                }
            }
        }
        for u in g.nodes() {
            for w in g.nodes() {
                assert_eq!(cut.reachable(u, w), bfs_reachable(g, u, w), "({u},{w})");
            }
        }
    }

    /// The summary's rows, not only its answers, against BFS on `G`: seeded
    /// random graphs at 2, 3 and 4 shards with self loops and random
    /// cycles, plus a cycle closed only by cross edges and a cyclic class
    /// holding both boundary and interior members; then mixed batches that
    /// insert cross edges already present (duplicates in the cross-edge
    /// list a bump reads), and a last batch that deletes every cross edge.
    #[test]
    fn summary_rows_are_bfs_reach_sets() {
        let n = 36u32;
        for shards in [2usize, 3, 4] {
            let mut rng = StdRng::seed_from_u64(45 + shards as u64);
            let part = NodePartition::new(shards);
            let of = |s: usize| (0..n).map(NodeId).filter(move |&v| part.shard_of(v) == s);
            let (home, away): (Vec<NodeId>, Vec<NodeId>) = (of(0).collect(), of(1).collect());
            let mut g = LabeledGraph::new();
            for _ in 0..n {
                g.add_node_with_label("X");
            }
            for _ in 0..40 {
                g.add_edge(NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
            }
            for v in [home[0], away[1]] {
                g.add_edge(v, v);
            }
            // Shard-local chains joined into one cycle by two cross edges.
            let (a, a2, b, b2) = (home[1], home[2], away[2], away[3]);
            for (u, w) in [(a, a2), (a2, b), (b, b2), (b2, a)] {
                g.add_edge(u, w);
            }
            // A shard-local cycle with one boundary member, `c`.
            let (c, d, e) = (home[3], home[4], home[5]);
            for (u, w) in [(c, d), (d, e), (e, c), (c, away[4])] {
                g.add_edge(u, w);
            }
            let store = ShardedStore::new(g.clone(), StoreConfig::builder().shards(shards).build())
                .unwrap();
            let cut = store.load();
            let snap = &cut.shard_snapshots()[0];
            assert!(
                snap.class_of(c) == snap.class_of(e)
                    && snap.cyclic_slice()[snap.class_of(c).unwrap() as usize]
            );
            rows_match_bfs(&cut, &g, &part);

            for _ in 0..6 {
                let mut batch = UpdateBatch::new();
                let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
                let mut touched = Vec::new();
                for _ in 0..8 {
                    let (u, w) = if rng.gen_bool(0.5) {
                        (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)))
                    } else {
                        edges[rng.gen_range(0..edges.len())]
                    };
                    if touched.contains(&(u, w)) {
                        continue;
                    }
                    touched.push((u, w));
                    // Half the picks of a present edge re-insert it.
                    if g.has_edge(u, w) && rng.gen_bool(0.5) {
                        batch.delete(u, w);
                    } else {
                        batch.insert(u, w);
                    }
                }
                let cross = edges
                    .iter()
                    .find(|&&(u, w)| part.shard_of(u) != part.shard_of(w));
                if let Some(&(u, w)) = cross.filter(|e| !touched.contains(e)) {
                    batch.insert(u, w);
                }
                store.try_apply(&batch).expect("batch applies");
                batch.apply_to(&mut g);
                rows_match_bfs(&store.load(), &g, &part);
            }

            let mut batch = UpdateBatch::new();
            for (u, w) in g
                .edges()
                .filter(|&(u, w)| part.shard_of(u) != part.shard_of(w))
            {
                batch.delete(u, w);
            }
            store.try_apply(&batch).expect("batch applies");
            batch.apply_to(&mut g);
            assert_eq!(store.load().boundary().vertex_count(), 0);
            rows_match_bfs(&store.load(), &g, &part);
        }
    }
}
