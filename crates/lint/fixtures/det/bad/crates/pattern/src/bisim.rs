use std::thread::{self, spawn};

/// A second copy of the refinement's hot loop on scoped workers: whatever
/// it computes must stay bit-identical to the sequential one for ever.
fn fingerprints(work: &[u32]) -> Vec<u64> {
    let (left, right) = work.split_at(work.len() / 2);
    let (mut a, b) = std::thread::scope(|s| {
        let l = s.spawn(|| left.iter().map(|&v| u64::from(v) * 31).collect::<Vec<_>>());
        let r: Vec<u64> = right.iter().map(|&v| u64::from(v) * 31).collect();
        (l.join().unwrap(), r)
    });
    a.extend(b);
    a
}
