//! Batch slicing by node partition — the update-side half of sharded
//! serving.
//!
//! A [`NodePartition`] assigns every node to one shard; an update whose
//! edge stays within a shard belongs to that shard's maintainer, while an
//! update crossing shards touches no shard subgraph and is routed to the
//! router's boundary graph instead. [`slice_batch`] performs that split
//! once, up front, so each shard's maintainer stages its own disjoint
//! slice without looking at any other.

use qpgc_graph::{NodePartition, UpdateBatch};

/// One [`UpdateBatch`] split by a [`NodePartition`]: the intra-shard slice
/// per shard (application order preserved within each slice) plus the
/// cross-shard remainder destined for the boundary graph.
#[derive(Clone, Debug)]
pub struct SlicedBatch {
    /// `per_shard[s]` — the updates whose edges live entirely in shard `s`.
    /// Always `partition.shards()` entries; untouched shards get an empty
    /// batch (they still republish, which is what keeps every
    /// shard's version aligned with the router watermark).
    pub per_shard: Vec<UpdateBatch>,
    /// Updates whose edges cross shards, in application order — boundary
    /// graph currency, never applied to any shard subgraph.
    pub cross: UpdateBatch,
}

/// Splits `batch` into per-shard intra slices and the cross-shard
/// remainder under `part`. Every update lands in exactly one slice, and
/// relative order is preserved within each slice — which is all the
/// incremental maintainers need, since updates in different slices touch
/// disjoint edge sets by construction.
pub fn slice_batch(batch: &UpdateBatch, part: &NodePartition) -> SlicedBatch {
    let mut per_shard = vec![UpdateBatch::new(); part.shards()];
    let mut cross = UpdateBatch::new();
    for u in batch.updates() {
        let (a, b) = u.edge();
        let sa = part.shard_of(a);
        let target = if sa == part.shard_of(b) {
            &mut per_shard[sa]
        } else {
            &mut cross
        };
        if u.is_insert() {
            target.insert(a, b);
        } else {
            target.delete(a, b);
        }
    }
    SlicedBatch { per_shard, cross }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpgc_graph::NodeId;

    #[test]
    fn every_update_lands_in_exactly_one_slice() {
        let part = NodePartition::new(3);
        let mut batch = UpdateBatch::new();
        for i in 0..40u32 {
            let u = NodeId(i);
            let v = NodeId((i * 7 + 3) % 40);
            if i % 2 == 0 {
                batch.insert(u, v);
            } else {
                batch.delete(u, v);
            }
        }
        let sliced = slice_batch(&batch, &part);
        assert_eq!(sliced.per_shard.len(), 3);
        assert_eq!(reassemble(&sliced).len(), batch.len());
        for (s, slice) in sliced.per_shard.iter().enumerate() {
            for u in slice.updates() {
                let (a, b) = u.edge();
                assert_eq!(part.shard_of(a), s);
                assert_eq!(part.shard_of(b), s);
            }
        }
        for u in sliced.cross.updates() {
            let (a, b) = u.edge();
            assert!(part.is_boundary(a, b));
        }
    }

    #[test]
    fn one_shard_slicing_is_the_identity() {
        let part = NodePartition::new(1);
        let mut batch = UpdateBatch::new();
        batch
            .insert(NodeId(0), NodeId(9))
            .delete(NodeId(4), NodeId(2));
        let sliced = slice_batch(&batch, &part);
        assert!(sliced.cross.is_empty());
        assert_eq!(sliced.per_shard[0], batch);
        assert!(!reassemble(&sliced).is_empty());
        assert!(reassemble(&slice_batch(&UpdateBatch::new(), &part)).is_empty());
    }

    /// Collects every update of `sliced` back into `(is_insert, edge)`
    /// tuples, shard slices first (in shard order) then the cross slice.
    fn reassemble(sliced: &SlicedBatch) -> Vec<(bool, (NodeId, NodeId))> {
        sliced
            .per_shard
            .iter()
            .chain(std::iter::once(&sliced.cross))
            .flat_map(|slice| slice.updates().iter().map(|u| (u.is_insert(), u.edge())))
            .collect()
    }

    #[test]
    fn empty_batch_slices_to_all_empty_slices() {
        let part = NodePartition::new(4);
        let sliced = slice_batch(&UpdateBatch::new(), &part);
        assert_eq!(sliced.per_shard.len(), 4);
        assert!(reassemble(&sliced).is_empty());
        assert_eq!(reassemble(&sliced).len(), 0);
        assert!(sliced.cross.is_empty());
        assert!(sliced.per_shard.iter().all(UpdateBatch::is_empty));
    }

    #[test]
    fn duplicate_edges_slice_to_the_same_slice_with_multiplicity() {
        let part = NodePartition::new(3);
        let (u, v) = (NodeId(0), NodeId(1));
        let mut batch = UpdateBatch::new();
        batch.insert(u, v).insert(u, v).insert(u, v);
        let sliced = slice_batch(&batch, &part);
        assert_eq!(reassemble(&sliced).len(), 3, "duplicates are not collapsed");
        let mut expected: Vec<(bool, (NodeId, NodeId))> = Vec::new();
        for up in batch.updates() {
            expected.push((up.is_insert(), up.edge()));
        }
        // All three copies land in one slice (same endpoints ⇒ same route).
        let nonempty: Vec<&UpdateBatch> = sliced
            .per_shard
            .iter()
            .chain(std::iter::once(&sliced.cross))
            .filter(|s| !s.is_empty())
            .collect();
        assert_eq!(nonempty.len(), 1);
        assert_eq!(reassemble(&sliced), expected);
    }

    #[test]
    fn self_loops_are_always_intra_shard() {
        let part = NodePartition::new(5);
        let mut batch = UpdateBatch::new();
        for i in 0..20u32 {
            batch.insert(NodeId(i), NodeId(i));
        }
        let sliced = slice_batch(&batch, &part);
        assert!(sliced.cross.is_empty(), "a self-loop cannot cross shards");
        assert_eq!(reassemble(&sliced).len(), batch.len());
        for (s, slice) in sliced.per_shard.iter().enumerate() {
            for up in slice.updates() {
                let (a, b) = up.edge();
                assert_eq!(a, b);
                assert_eq!(part.shard_of(a), s);
            }
        }
    }

    #[test]
    fn all_cross_batch_leaves_every_shard_slice_empty() {
        let part = NodePartition::new(2);
        // Pick endpoint pairs on opposite shards only.
        let mut batch = UpdateBatch::new();
        let mut want = 0;
        for u in 0..40u32 {
            for v in 0..40u32 {
                if part.shard_of(NodeId(u)) != part.shard_of(NodeId(v)) && want < 12 {
                    if want % 2 == 0 {
                        batch.insert(NodeId(u), NodeId(v));
                    } else {
                        batch.delete(NodeId(u), NodeId(v));
                    }
                    want += 1;
                }
            }
        }
        assert_eq!(batch.len(), 12);
        let sliced = slice_batch(&batch, &part);
        assert!(sliced.per_shard.iter().all(UpdateBatch::is_empty));
        assert_eq!(sliced.cross.len(), 12);
        assert_eq!(sliced.cross, batch);
    }

    /// Slice ∪ cross reconstructs the batch exactly: every update appears
    /// in exactly one slice with its kind intact, and a per-slice stable
    /// merge (slices preserve relative order) recovers the original
    /// sequence.
    #[test]
    fn slices_and_cross_reconstruct_the_batch_exactly() {
        let part = NodePartition::new(3);
        let mut batch = UpdateBatch::new();
        for i in 0..60u32 {
            let u = NodeId(i % 17);
            let v = NodeId((i * 13 + 5) % 23);
            if i % 3 == 0 {
                batch.delete(u, v);
            } else {
                batch.insert(u, v);
            }
        }
        let sliced = slice_batch(&batch, &part);
        assert_eq!(reassemble(&sliced).len(), batch.len());
        // Multiset equality: same (kind, edge) tuples, same multiplicities.
        let mut original: Vec<(bool, (NodeId, NodeId))> = batch
            .updates()
            .iter()
            .map(|u| (u.is_insert(), u.edge()))
            .collect();
        let mut rebuilt = reassemble(&sliced);
        original.sort();
        rebuilt.sort();
        assert_eq!(original, rebuilt);
        // Order: replaying the batch and consuming each update from the
        // front of its own slice must drain every slice exactly.
        let mut cursors = vec![0usize; part.shards() + 1];
        for up in batch.updates() {
            let (a, b) = up.edge();
            let sa = part.shard_of(a);
            let (slice, cursor) = if sa == part.shard_of(b) {
                (&sliced.per_shard[sa], &mut cursors[sa])
            } else {
                (&sliced.cross, &mut cursors[part.shards()])
            };
            let got = &slice.updates()[*cursor];
            assert_eq!(got.edge(), up.edge());
            assert_eq!(got.is_insert(), up.is_insert());
            *cursor += 1;
        }
        for (s, slice) in sliced.per_shard.iter().enumerate() {
            assert_eq!(cursors[s], slice.len(), "shard {s} fully consumed");
        }
        assert_eq!(cursors[part.shards()], sliced.cross.len());
    }

    #[test]
    fn kind_and_order_survive_slicing() {
        let part = NodePartition::new(4);
        // Find two nodes sharing a shard and two crossing, then interleave.
        let mut same = None;
        let mut diff = None;
        for v in 1..200u32 {
            if part.shard_of(NodeId(0)) == part.shard_of(NodeId(v)) {
                same.get_or_insert(v);
            } else {
                diff.get_or_insert(v);
            }
        }
        let (same, diff) = (same.unwrap(), diff.unwrap());
        let mut batch = UpdateBatch::new();
        batch
            .insert(NodeId(0), NodeId(same))
            .insert(NodeId(0), NodeId(diff))
            .delete(NodeId(0), NodeId(same));
        let sliced = slice_batch(&batch, &part);
        let home = part.shard_of(NodeId(0));
        let slice = &sliced.per_shard[home];
        assert_eq!(slice.len(), 2);
        assert!(slice.updates()[0].is_insert());
        assert!(!slice.updates()[1].is_insert());
        assert_eq!(sliced.cross.len(), 1);
        assert!(sliced.cross.updates()[0].is_insert());
    }
}
