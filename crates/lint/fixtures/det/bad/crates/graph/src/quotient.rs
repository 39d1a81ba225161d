use std::collections::HashMap;

struct Table {
    q_edges: HashMap<(u32, u32), u32>,
}

impl Table {
    fn hybrid_edges(&self) -> Vec<(u32, u32)> {
        self.q_edges.keys().copied().collect()
    }
}
