/// The refinement's one loop, on the calling thread.
fn fingerprints(work: &[u32]) -> Vec<u64> {
    work.iter().map(|&v| u64::from(v) * 31).collect()
}

thread_local! {
    /// Per-thread scratch is not a worker: nothing is scheduled.
    static SCRATCH: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}
