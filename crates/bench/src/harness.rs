//! Small experiment framework: timing, result tables, query sampling.

use std::time::{Duration, Instant};

use qpgc_graph::{LabeledGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One row of an experiment result table: a label plus named numeric cells.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (dataset name, parameter value, …).
    pub label: String,
    /// `(column name, value)` pairs, in display order.
    pub cells: Vec<(String, f64)>,
}

impl Row {
    /// Creates a row with no cells yet.
    pub fn new(label: impl Into<String>) -> Self {
        Row {
            label: label.into(),
            cells: Vec::new(),
        }
    }

    /// Adds a named cell.
    pub fn cell(mut self, name: &str, value: f64) -> Self {
        self.cells.push((name.to_string(), value));
        self
    }

    /// Looks a cell up by column name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.cells.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// The result of one experiment: an identifier, a free-form description of
/// what the paper reported, and a table of measured rows.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Experiment id, e.g. `"table1"` or `"fig12e"`.
    pub id: String,
    /// What the corresponding table/figure in the paper shows.
    pub paper_reference: String,
    /// Measured rows.
    pub rows: Vec<Row>,
}

impl ExperimentResult {
    /// Creates an empty result.
    pub fn new(id: &str, paper_reference: &str) -> Self {
        ExperimentResult {
            id: id.to_string(),
            paper_reference: paper_reference.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Renders the result as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {} — {}\n", self.id, self.paper_reference));
        if self.rows.is_empty() {
            out.push_str("(no rows)\n");
            return out;
        }
        let label_width = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(8)
            .max(8);
        // Column headers above the first row and wherever the columns
        // change (a section of another shape).
        let mut headers: Vec<&str> = Vec::new();
        for row in &self.rows {
            let names: Vec<&str> = row.cells.iter().map(|(n, _)| n.as_str()).collect();
            if names != headers {
                headers = names;
                out.push_str(&format!("{:<label_width$}", ""));
                for h in &headers {
                    out.push_str(&format!(" {h:>14}"));
                }
                out.push('\n');
            }
            out.push_str(&format!("{:<label_width$}", row.label));
            for (_, v) in &row.cells {
                if v.abs() >= 1000.0 {
                    out.push_str(&format!(" {v:>14.0}"));
                } else {
                    out.push_str(&format!(" {v:>14.4}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Reads the dataset down-scaling factor from `QPGC_SCALE` (default 100).
pub fn scale_from_env() -> usize {
    std::env::var("QPGC_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(100)
}

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Timed calls per cell of the warm experiments (fig1, fig12b, c, e, f, h); the
/// fastest is reported.
pub(crate) const RUNS: usize = 7;

/// The fastest of `runs` timed calls of `f`, each on a fresh `setup()`:
/// the setup, and dropping what it built, stay outside the clock. Returns
/// the fastest call's result with its time.
///
/// # Panics
///
/// Panics if `runs` is zero.
pub fn best_of<S, T>(
    runs: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(&mut S) -> T,
) -> (T, Duration) {
    let mut best: Option<(T, Duration)> = None;
    for _ in 0..runs {
        let mut state = setup();
        let (result, time) = timed(|| f(&mut state));
        if best.as_ref().is_none_or(|&(_, fastest)| time < fastest) {
            best = Some((result, time));
        }
    }
    best.expect("at least one run")
}

/// Samples `count` random node pairs of `g` for reachability queries.
pub fn random_pairs(g: &LabeledGraph, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.node_count().max(1);
    (0..count)
        .map(|_| {
            (
                NodeId(rng.gen_range(0..n) as u32),
                NodeId(rng.gen_range(0..n) as u32),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_rendering() {
        let mut res = ExperimentResult::new("table1", "compression ratios");
        res.push(Row::new("P2P").cell("RCr", 0.0597).cell("RCaho", 0.73));
        res.push(Row::new("wikiVote").cell("RCr", 0.019).cell("RCaho", 0.65));
        let text = res.render();
        assert!(text.contains("table1"));
        assert!(text.contains("P2P"));
        assert!(text.contains("RCaho"));
        assert_eq!(res.rows[0].get("RCr"), Some(0.0597));
        assert_eq!(res.rows[0].get("missing"), None);
    }

    #[test]
    fn empty_result_renders() {
        let res = ExperimentResult::new("x", "y");
        assert!(res.render().contains("no rows"));
    }

    #[test]
    fn timed_returns_value() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn best_of_sets_up_every_run_and_keeps_the_fastest() {
        let mut setups = 0;
        let (calls, best) = best_of(
            5,
            || {
                setups += 1;
                vec![0u8; setups]
            },
            |state| state.len(),
        );
        assert_eq!(setups, 5);
        assert!((1..=5).contains(&calls));
        assert!(best.as_nanos() > 0);
    }

    #[test]
    fn random_pairs_in_range() {
        let mut g = LabeledGraph::new();
        for _ in 0..10 {
            g.add_node_with_label("X");
        }
        let pairs = random_pairs(&g, 50, 1);
        assert_eq!(pairs.len(), 50);
        assert!(pairs.iter().all(|(a, b)| a.index() < 10 && b.index() < 10));
        assert_eq!(random_pairs(&g, 50, 1), pairs);
    }

    #[test]
    fn scale_default() {
        // Do not set the env var here (tests run in parallel); just check
        // the default path parses.
        let s = scale_from_env();
        assert!(s >= 1);
    }
}
