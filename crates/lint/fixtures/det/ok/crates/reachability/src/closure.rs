use std::collections::HashMap;

/// Groups come out ordered by their first unit, whatever order the map
/// holds them in.
fn groups_by_first_unit(by_signature: &HashMap<Vec<u64>, Vec<u32>>) -> Vec<Vec<u32>> {
    let mut groups: Vec<Vec<u32>> = by_signature.values().cloned().collect();
    groups.sort_unstable_by_key(|units| units[0]);
    groups
}
