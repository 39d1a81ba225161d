use std::collections::{HashMap, HashSet};

fn leak_order(m: &HashMap<u32, u32>, s: &HashSet<u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for (&k, _) in m.iter() {
        out.push(k);
    }
    for &v in s {
        out.push(v);
    }
    out
}
