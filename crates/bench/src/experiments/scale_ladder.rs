//! The scale ladder: the store's batches on graphs past the benchmark's
//! sizes (no counterpart in the paper).
//!
//! The benchmark's workloads stop at quotients of about 2 300 classes.
//! Each rung here builds the store a benchmark batch runs against — 2-hop
//! labels served, and the pattern view too on Citation — and applies 40
//! cone-local batches (cone cap 8, each drawn against the graph the
//! previous one left). It reports the median batch: its wall-clock apply,
//! the publication inside it, and the classes it affected, changed and
//! rewired, beside `compressR` on the starting graph and the heap of the
//! closure a maintainer holds for it. A cost that follows the id space
//! rather than the change shows as a slope down the ladder; a cliff inside
//! a rung, as a gap between the medians of its first and second 20
//! batches.

use std::time::Instant;

use qpgc_generators::datasets::{dataset, pattern_dataset};
use qpgc_generators::updates::local_batch;
use qpgc_reach::compress::compress_r;
use qpgc_reach::incremental::IncrementalReach;
use qpgc_serve::{CompressedStore, StoreConfig};

use crate::harness::{best_of, ExperimentResult, Row, RUNS};

/// Batches per rung.
const BATCHES: usize = 40;

/// The largest endpoint cone a generated update may have.
const CONE_CAP: u64 = 8;

/// One rung: dataset, divisor, updates per batch, whether patterns are
/// served.
type Rung = (&'static str, usize, usize, bool);

/// wikiTalk ÷1600 … ÷100 at 50 updates a batch, and Citation ÷400 … ÷50
/// with patterns at 10.
const RUNGS: [Rung; 9] = [
    ("wikiTalk", 1600, 50, false),
    ("wikiTalk", 800, 50, false),
    ("wikiTalk", 400, 50, false),
    ("wikiTalk", 200, 50, false),
    ("wikiTalk", 100, 50, false),
    ("Citation", 400, 10, true),
    ("Citation", 200, 10, true),
    ("Citation", 100, 10, true),
    ("Citation", 50, 10, true),
];

/// Runs the whole ladder at `scale / 100` of the divisors above (the
/// reproduction's default scale, 100, runs them as listed).
pub fn scale_ladder(scale: usize) -> ExperimentResult {
    let rungs = RUNGS.map(|(name, divisor, size, patterns)| {
        (name, (divisor * scale / 100).max(1), size, patterns)
    });
    ladder(&rungs)
}

fn ladder(rungs: &[Rung]) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "scale_ladder",
        "store batches past the benchmark's sizes, medians of 40 cone-local \
         batches (no paper counterpart)",
    );
    for &(name, divisor, size, patterns) in rungs {
        let g0 = if patterns {
            pattern_dataset(name, divisor, 0)
        } else {
            dataset(name, divisor, 0)
        };
        let mut g = g0.expect("a known dataset");
        let (_, t_compress) = best_of(RUNS, || (), |_| compress_r(&g));
        let closure = IncrementalReach::new(&g).closure().heap_bytes();
        let config = StoreConfig::builder()
            .two_hop(Default::default())
            .patterns(patterns)
            .build();
        let store = CompressedStore::new(g.clone(), config);
        let mut batches: Vec<[f64; 5]> = Vec::with_capacity(BATCHES);
        for i in 0..BATCHES as u64 {
            let batch = local_batch(&g, size, CONE_CAP, i);
            let t = Instant::now();
            let report = store.try_apply(&batch).expect("a generated batch is valid");
            let apply = t.elapsed().as_secs_f64() * 1e3;
            batch.apply_to(&mut g);
            let reach = report.reach;
            batches.push([
                apply,
                report.publish_ms,
                reach.affected_classes as f64,
                reach.changed_classes as f64,
                reach.rewired_classes as f64,
            ]);
        }
        let median = |of: &[[f64; 5]], k: usize| {
            let mut v: Vec<f64> = of.iter().map(|b| b[k]).collect();
            v.sort_by(f64::total_cmp);
            v.get(v.len() / 2).copied().unwrap_or(0.0)
        };
        let (first, second) = batches.split_at(BATCHES / 2);
        let cut = store.load();
        res.push(
            Row::new(format!("{name} ÷{divisor}"))
                .cell("classes", cut.class_count() as f64)
                .cell("ids", cut.quotient().node_count() as f64)
                .cell("apply (ms)", median(&batches, 0))
                .cell("1st half (ms)", median(first, 0))
                .cell("2nd half (ms)", median(second, 0))
                .cell("publish (ms)", median(&batches, 1))
                .cell("affected", median(&batches, 2))
                .cell("changed", median(&batches, 3))
                .cell("rewired", median(&batches, 4))
                .cell("compressR (ms)", t_compress.as_secs_f64() * 1e3)
                .cell("closure (KiB)", closure as f64 / 1024.0),
        );
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rung_reports_its_medians() {
        let res = ladder(&[("wikiTalk", 3000, 20, false), ("Citation", 800, 5, true)]);
        assert_eq!(res.rows.len(), 2);
        for row in &res.rows {
            assert!(row.get("classes").unwrap() > 0.0);
            assert!(row.get("ids").unwrap() >= row.get("classes").unwrap());
            assert!(row.get("apply (ms)").unwrap() > 0.0);
            assert!(row.get("compressR (ms)").unwrap() > 0.0);
            assert!(row.get("closure (KiB)").unwrap() > 0.0);
            assert!(row.get("rewired").unwrap() <= row.get("affected").unwrap());
        }
    }
}
