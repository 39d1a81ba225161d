fn helper(m: &std::sync::Mutex<u64>) -> u64 {
    // qpgc-lint: allow(lock-hygiene)
    let v = *m.lock().unwrap();
    // qpgc-lint: allow(no-such-rule) -- typo'd rule name
    let w = v + 1;
    // qpgc-lint: allow(hygiene) -- nothing here triggers hygiene
    w
}
