//! The scale ladder: the store's batches on graphs past the benchmark's
//! sizes (no counterpart in the paper).
//!
//! The benchmark's workloads stop at quotients of about 2 300 classes.
//! Each rung here builds the store a benchmark batch runs against — 2-hop
//! labels served, and the pattern view too on Citation — and applies 40
//! cone-local batches (cone cap 8, each drawn against the graph the
//! previous one left). It reports the median batch: its wall-clock apply,
//! the publication inside it, and the classes it affected, changed and
//! rewired, beside `compressR` on the starting graph, the heap of the
//! closure a maintainer holds for it, and the label entries and heap of
//! the first 2-hop index the store publishes. A cost that follows the id
//! space rather than the change shows as a slope down the ladder; a cliff
//! inside a rung, as a gap between the medians of its first and second 20
//! batches.
//!
//! A second section runs the 2-shard router on wikiTalk ÷6000 … ÷750 (the
//! benchmark's sharded workload is ÷3000) at 10 updates a batch and
//! reports the median apply, the watermark bump inside it (`publish_ms`
//! less the shards' own publications), the boundary vertices and the heap
//! of the last cut's boundary summary: how the bump grows with the
//! boundary.

use std::time::Instant;

use qpgc_generators::datasets::{dataset, pattern_dataset};
use qpgc_generators::updates::local_batch;
use qpgc_reach::compress::compress_r;
use qpgc_reach::incremental::IncrementalReach;
use qpgc_serve::{CompressedStore, ShardedStore, StoreConfig};

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

/// wikiTalk divisors of the 2-shard section, at 10 updates a batch.
const SHARDED_RUNGS: [usize; 4] = [6000, 3000, 1500, 750];

/// Runs the whole ladder at `scale / 100` of the divisors above (the
/// reproduction's default scale, 100, runs them as listed).
pub fn scale_ladder(scale: usize) -> ExperimentResult {
    let rungs = RUNGS.map(|(name, divisor, size, patterns)| {
        (name, (divisor * scale / 100).max(1), size, patterns)
    });
    let mut res = ladder(&rungs);
    sharded_ladder(&mut res, &SHARDED_RUNGS.map(|d| (d * scale / 100).max(1)));
    res
}

/// The median of column `k` over `of`.
fn median<const N: usize>(of: &[[f64; N]], k: usize) -> f64 {
    let mut v: Vec<f64> = of.iter().map(|b| b[k]).collect();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
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
        let first = store.load();
        let index = first.two_hop().expect("the store serves a 2-hop index");
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
                .cell("closure (KiB)", closure as f64 / 1024.0)
                .cell("2-hop entries", index.label_entries() as f64)
                .cell("2-hop (KiB)", index.heap_bytes() as f64 / 1024.0),
        );
    }
    res
}

/// The 2-shard section: one row per wikiTalk divisor.
fn sharded_ladder(res: &mut ExperimentResult, divisors: &[usize]) {
    for &divisor in divisors {
        let mut g = dataset("wikiTalk", divisor, 0).expect("a known dataset");
        let config = StoreConfig::builder()
            .two_hop(Default::default())
            .shards(2)
            .build();
        let store = ShardedStore::new(g.clone(), config).expect("reachability only");
        let mut batches: Vec<[f64; 2]> = Vec::with_capacity(BATCHES);
        for i in 0..BATCHES as u64 {
            let batch = local_batch(&g, 10, CONE_CAP, i);
            let t = Instant::now();
            let report = store.try_apply(&batch).expect("a generated batch is valid");
            let apply = t.elapsed().as_secs_f64() * 1e3;
            batch.apply_to(&mut g);
            let shards: f64 = report.shards.iter().map(|s| s.publish_ms).sum();
            batches.push([apply, report.publish_ms - shards]);
        }
        let cut = store.load();
        res.push(
            Row::new(format!("wikiTalk ÷{divisor}, 2 shards"))
                .cell("nodes", g.node_count() as f64)
                .cell("apply (ms)", median(&batches, 0))
                .cell("bump (ms)", median(&batches, 1))
                .cell("boundary", cut.boundary().vertex_count() as f64)
                .cell("summary (KiB)", cut.boundary().heap_bytes() as f64 / 1024.0),
        );
    }
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
            assert!(row.get("2-hop entries").unwrap() > 0.0);
            assert!(row.get("2-hop (KiB)").unwrap() > 0.0);
            assert!(row.get("rewired").unwrap() <= row.get("affected").unwrap());
        }
    }

    #[test]
    fn a_sharded_rung_reports_its_bump() {
        let mut res = ExperimentResult::new("scale_ladder", "");
        sharded_ladder(&mut res, &[12000]);
        let row = &res.rows[0];
        assert!(row.get("boundary").unwrap() > 0.0);
        assert!(row.get("summary (KiB)").unwrap() > 0.0);
        assert!(row.get("bump (ms)").unwrap() > 0.0);
        assert!(row.get("apply (ms)").unwrap() >= row.get("bump (ms)").unwrap());
    }
}
