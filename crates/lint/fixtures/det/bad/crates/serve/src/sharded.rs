/// A scoped thread per shard on the write path: which shard a failure
/// names depends on which thread reaches the site first.
fn stage_all(slices: &[Vec<u32>]) -> Vec<usize> {
    std::thread::scope(|s| {
        let handles: Vec<_> = slices.iter().map(|v| s.spawn(move || v.len())).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}
