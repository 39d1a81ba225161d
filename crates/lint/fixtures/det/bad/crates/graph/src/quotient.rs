use std::collections::HashMap;

pub struct Table {
    q_edges: HashMap<(u32, u32), u32>,
}

impl Table {
    pub fn hybrid_edges(&self) -> Vec<(u32, u32)> {
        self.q_edges.keys().copied().collect()
    }
}
