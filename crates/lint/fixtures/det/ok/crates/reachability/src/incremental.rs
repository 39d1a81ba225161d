use std::collections::{HashMap, HashSet};

fn sorted_ids(m: &HashMap<u32, u32>) -> Vec<u32> {
    let mut keys: Vec<u32> = m.keys().copied().collect();
    keys.sort_unstable();
    keys
}

fn member_total(s: &HashSet<u32>) -> usize {
    // qpgc-lint: allow(deterministic-iteration) -- commutative sum; order
    // cannot leak into the total.
    s.iter().map(|&v| v as usize).sum()
}
