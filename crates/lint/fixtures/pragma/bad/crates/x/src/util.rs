fn helper(start: std::time::Instant) -> u64 {
    // qpgc-lint: allow(timing-gate)
    assert!(start.elapsed().as_secs() < 60);
    // qpgc-lint: allow(no-such-rule) -- typo'd rule name
    let w = 1;
    // qpgc-lint: allow(dead-surface) -- nothing here is a pub item
    w
}
