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
//! One [`Condensation`] of the composite and one children-first sweep
//! over its Tarjan ids give every component the bit-row of boundary
//! vertices it reaches; global cycles that only cross edges close are
//! ordinary components. The rows the read side needs — `X_x`'s, "what `x`
//! reaches by a non-empty path", and `M_c`'s, the same for any
//! non-boundary member of `c` — are interned by content, as are the
//! backward rows a Kahn pass over each shard's `Gr` produces ("boundary
//! nodes of this shard that reach the members of `c`"). A query is then
//! one AND over two rows: see `BoundarySummary::bridges`.
//!
//! There is one construction, run at every watermark bump from the
//! shards' current snapshots; nothing is carried over between cuts.

use std::collections::HashMap;
use std::sync::Arc;

use qpgc_graph::ids::LabelInterner;
use qpgc_graph::{BitMatrix, Condensation, CsrGraph, NodeId, NodePartition};

use crate::snapshot::Snapshot;

/// `vertex_of` entry of a node that is no boundary node.
const INTERIOR: u32 = u32::MAX;

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

/// Content-interning of bit-rows into one flat table.
struct RowTable {
    words: usize,
    rows: Vec<u64>,
    ids: HashMap<Box<[u64]>, u32>,
}

impl RowTable {
    fn intern(&mut self, row: &[u64]) -> u32 {
        if let Some(&id) = self.ids.get(row) {
            return id;
        }
        let id = (self.rows.len() / self.words) as u32;
        self.rows.extend_from_slice(row);
        self.ids.insert(row.into(), id);
        id
    }
}

impl BoundarySummary {
    /// Builds the summary of one cut: `cross` is the live cross-edge set
    /// (any order, duplicates tolerated), `snaps` the per-shard snapshots
    /// of the same watermark. See the module docs for the construction.
    pub(crate) fn build(
        snaps: &[Arc<Snapshot>],
        cross: impl Iterator<Item = (NodeId, NodeId)>,
        part: &NodePartition,
    ) -> BoundarySummary {
        let cross: Vec<(NodeId, NodeId)> = cross.collect();
        if cross.is_empty() {
            return BoundarySummary::default();
        }
        let mut vertex_of = vec![INTERIOR; snaps[0].node_count()];
        for &(u, v) in &cross {
            vertex_of[u.index()] = 0;
            vertex_of[v.index()] = 0;
        }
        let mut nodes: Vec<NodeId> = Vec::new();
        for (v, slot) in vertex_of.iter_mut().enumerate() {
            if *slot != INTERIOR {
                *slot = nodes.len() as u32;
                nodes.push(NodeId(v as u32));
            }
        }
        let vertices = nodes.len() as u32;

        // Composite layout: X_0..X_B, then per shard its C block and its M
        // block, each as long as the shard's stable-id space.
        let mut base = Vec::with_capacity(snaps.len());
        let mut total = vertices;
        for snap in snaps {
            base.push(total);
            total += 2 * snap.quotient().node_count() as u32;
        }
        let class_vertex = |s: usize, c: u32| NodeId(base[s] + c);
        let member_vertex =
            |s: usize, c: u32| NodeId(base[s] + snaps[s].quotient().node_count() as u32 + c);

        let mut edges: Vec<(NodeId, NodeId)> = cross
            .iter()
            .map(|&(u, v)| (NodeId(vertex_of[u.index()]), NodeId(vertex_of[v.index()])))
            .collect();
        for (x, &node) in nodes.iter().enumerate() {
            let s = part.shard_of(node);
            let c = snaps[s]
                .class_of(node)
                .expect("boundary nodes are nodes of the store");
            let x = NodeId(x as u32);
            edges.push((x, member_vertex(s, c)));
            edges.push((class_vertex(s, c), x));
        }
        for (s, snap) in snaps.iter().enumerate() {
            // An `Arc` bump on the plain backend, one decode on the succinct.
            let gr = snap.quotient().to_plain_arc();
            for (c, &cyclic) in (0u32..).zip(snap.cyclic_slice()) {
                for &d in gr.out_neighbors(NodeId(c)) {
                    edges.push((member_vertex(s, c), class_vertex(s, d.0)));
                    edges.push((class_vertex(s, c), class_vertex(s, d.0)));
                }
                if cyclic {
                    edges.push((member_vertex(s, c), class_vertex(s, c)));
                }
            }
        }
        let mut interner = LabelInterner::new();
        let label = interner.intern("σ");
        let composite = CsrGraph::from_edges(vec![label; total as usize], interner, edges);

        // Children first: Tarjan numbers a component after everything it
        // reaches, so row `k` of `closed` — the boundary vertices in or
        // below component `k` — only reads finished rows.
        let scc = Condensation::of(&composite);
        let words = (vertices as usize).div_ceil(64);
        let mut closed = BitMatrix::new(scc.component_count(), vertices as usize);
        for k in 0..scc.component_count() {
            for &m in scc.members(k as u32) {
                if m.0 < vertices {
                    closed.insert(k, m.index());
                }
            }
            for &j in scc.scc_out(k as u32) {
                closed.union_rows(k, j as usize);
            }
        }

        let mut table = RowTable {
            words,
            rows: Vec::new(),
            ids: HashMap::new(),
        };
        // A vertex alone in its component lies on no cycle: it reaches
        // everything below it but not itself. Its component's row is read
        // by nobody else once the sweep is done, so the bit is struck out
        // of it in place.
        let vertex_row: Vec<u32> = (0..vertices)
            .map(|x| {
                let k = scc.component_of(NodeId(x));
                if scc.members(k).len() == 1 {
                    closed.remove(k as usize, x as usize);
                }
                table.intern(closed.row(k as usize))
            })
            .collect();
        let closed_of = |v: NodeId| closed.row(scc.component_of(v) as usize);

        let class_rows: Vec<Vec<ClassRows>> = snaps
            .iter()
            .enumerate()
            .map(|(s, snap)| {
                // Kahn over the shard's `Gr` as the composite holds it: the
                // out-row of `C_c` lists `c`'s boundary members (below
                // `vertices`) and then its `Gr` successors.
                let classes = snap.quotient().node_count();
                let class_at = |t: NodeId| (t.0 - base[s]) as usize;
                let successors = |c: usize| {
                    let out = composite.out_neighbors(class_vertex(s, c as u32));
                    out.split_at(out.partition_point(|t| t.0 < vertices))
                };
                let mut pending = vec![0u32; classes];
                for c in 0..classes {
                    for &d in successors(c).1 {
                        pending[class_at(d)] += 1;
                    }
                }
                let mut ready: Vec<usize> = (0..classes).filter(|&c| pending[c] == 0).collect();
                // Row `c`: what reaches the members of `c` from above, plus
                // `c`'s own boundary members when `c` is cyclic; a child
                // inherits the row and the members either way.
                let mut into = BitMatrix::new(classes, vertices as usize);
                while let Some(c) = ready.pop() {
                    let (members, below) = successors(c);
                    if snap.cyclic_slice()[c] {
                        for &x in members {
                            into.insert(c, x.index());
                        }
                    }
                    for &d in below {
                        let d = class_at(d);
                        into.union_rows(d, c);
                        for &x in members {
                            into.insert(d, x.index());
                        }
                        pending[d] -= 1;
                        if pending[d] == 0 {
                            ready.push(d);
                        }
                    }
                }
                (0..classes)
                    .map(|c| ClassRows {
                        from: table.intern(closed_of(member_vertex(s, c as u32))),
                        into: table.intern(into.row(c)),
                    })
                    .collect()
            })
            .collect();

        let mut rows = table.rows;
        rows.shrink_to_fit();
        BoundarySummary {
            vertex_of,
            vertex_row,
            class_rows,
            rows,
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
    use qpgc_graph::{LabeledGraph, NodeId, NodePartition};

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
}
