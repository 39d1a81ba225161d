use std::collections::HashMap;

/// Group order feeds stable ids exactly as hybrid node order did: groups
/// keyed by signature must not come out in hash order.
fn groups_in_hash_order(by_signature: &HashMap<Vec<u64>, Vec<u32>>) -> Vec<Vec<u32>> {
    by_signature.values().cloned().collect()
}
