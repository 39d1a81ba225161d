//! Keeping a compressed graph fresh while the underlying network evolves —
//! the Section 5 scenario. A citation-style graph receives batches of edge
//! insertions and deletions; the compression is maintained incrementally
//! and compared against recompression from scratch, both for correctness
//! and for cost.
//!
//! Run with `cargo run -p qpgc-examples --bin evolving_graph --release`.

#![allow(clippy::print_stdout)]

use std::time::Instant;

use qpgc::prelude::*;
use qpgc::reach_engine::compress::compress_r;
use qpgc_examples::section;
use qpgc_generators::synthetic::{citation_graph, SyntheticConfig};
use qpgc_generators::updates::{delete_batch, insert_batch};

fn main() {
    let g0 = citation_graph(&SyntheticConfig::new(4000, 16_000, 30, 3));
    println!(
        "initial graph: |V| = {}, |E| = {}",
        g0.node_count(),
        g0.edge_count()
    );

    section("reachability compression, maintained over 6 update batches");
    let mut maintained = MaintainedGraph::new(g0.clone(), false);
    println!(
        "initial hypernodes: {} (ratio {:.1}%)",
        maintained.reach().class_count(),
        100.0 * compress_r(&g0).ratio(&g0)
    );

    for step in 0..6u64 {
        // Alternate insert-heavy and delete-heavy batches of ~1% of |E|.
        let size = maintained.graph().edge_count() / 100;
        let batch = if step % 2 == 0 {
            insert_batch(maintained.graph(), size, 100 + step)
        } else {
            delete_batch(maintained.graph(), size, 200 + step)
        };

        let t = Instant::now();
        let (stats, _) = maintained.apply(&batch).reach;
        let inc_time = t.elapsed();

        let t = Instant::now();
        let scratch = compress_r(maintained.graph());
        let batch_time = t.elapsed();

        let identical = canonical(&scratch.partition.class_of)
            == canonical(&maintained.reach().stable_quotient().class_of);
        println!(
            "step {step}: {:4} updates | {:4} redundant dropped | affected {:4} classes | incRCM {:>9.3?} vs compressR {:>9.3?} | identical = {identical}",
            batch.len(),
            stats.redundant_dropped,
            stats.affected_classes,
            inc_time,
            batch_time,
        );
        assert!(
            identical,
            "incremental maintenance must equal recompression"
        );
    }

    section("both compressions over one graph, under the same kind of churn");
    let mut maintained = MaintainedGraph::new(g0.clone(), true);
    let hypernodes = |m: &MaintainedGraph| m.pattern().expect("patterns on").class_count();
    let mut query = Pattern::new();
    let a = query.add_node("L1");
    let b = query.add_node("L2");
    query.add_edge(a, b, 2);

    println!("initial pattern hypernodes: {}", hypernodes(&maintained));
    for step in 0..4u64 {
        let size = maintained.graph().edge_count() / 200;
        let batch = if step % 2 == 0 {
            insert_batch(maintained.graph(), size, 300 + step)
        } else {
            delete_batch(maintained.graph(), size, 400 + step)
        };
        let t = Instant::now();
        let (stats, _) = maintained.apply(&batch).pattern.expect("patterns on");
        let inc_time = t.elapsed();
        let answer = maintained.match_pattern(&query);
        let direct = qpgc::pattern_engine::bounded::bounded_match(maintained.graph(), &query);
        let agree = match (&answer, &direct) {
            (None, None) => true,
            (Some(x), Some(y)) => x.canonical() == y.canonical(),
            _ => false,
        };
        println!(
            "step {step}: {:4} updates | affected {:4} classes | incRCM+incPCM {:>9.3?} | hypernodes {} | query answers agree = {agree}",
            batch.len(),
            stats.affected_classes,
            inc_time,
            hypernodes(&maintained),
        );
        assert!(agree);
    }
    println!("\nall incremental results verified against from-scratch evaluation");
}

/// The classes of a node → class table as node ids, sorted by first
/// member: equal for two partitions into the same classes, however each
/// numbers them.
fn canonical(class_of: &[u32]) -> Vec<Vec<u32>> {
    let mut classes = std::collections::BTreeMap::<u32, Vec<u32>>::new();
    for (v, &c) in class_of.iter().enumerate() {
        classes.entry(c).or_default().push(v as u32);
    }
    let mut classes: Vec<Vec<u32>> = classes.into_values().collect();
    classes.sort_unstable();
    classes
}
