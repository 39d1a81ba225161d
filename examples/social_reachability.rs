//! Reachability analytics over an (emulated) social network, showing the
//! paper's headline result: social graphs compress by ~95 % for
//! reachability, and any reachability algorithm — plain BFS, bidirectional
//! BFS, even a 2-hop index — runs on the compressed graph unchanged and
//! much faster.
//!
//! Run with `cargo run -p qpgc-examples --bin social_reachability --release`.

#![allow(clippy::print_stdout)]

use std::time::Instant;

use qpgc::prelude::*;
use qpgc::reach_engine::two_hop::TwoHopIndex;
use qpgc_examples::{pct, section};
use qpgc_generators::datasets::dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // An emulated socEpinions-like social graph (see qpgc-generators docs).
    let g = dataset("socEpinions", 40, 7).expect("known dataset");
    println!(
        "emulated social network: |V| = {}, |E| = {}",
        g.node_count(),
        g.edge_count()
    );

    section("compress once");
    let t = Instant::now();
    let scheme = ReachCompression::compress(&g);
    let gr = scheme.compressed_graph();
    println!(
        "compressR took {:?}; |Vr| = {}, |Er| = {}  (RCr = {})",
        t.elapsed(),
        gr.node_count(),
        gr.edge_count(),
        pct(scheme.ratio(&g)),
    );

    section("query the compressed graph with unchanged algorithms");
    let mut rng = StdRng::seed_from_u64(1);
    let queries: Vec<ReachQuery> = (0..2000)
        .map(|_| {
            ReachQuery::new(
                NodeId(rng.gen_range(0..g.node_count()) as u32),
                NodeId(rng.gen_range(0..g.node_count()) as u32),
            )
        })
        .collect();

    let t = Instant::now();
    let on_g: usize = queries.iter().filter(|q| q.evaluate(&g)).count();
    let time_g = t.elapsed();

    let t = Instant::now();
    let on_gr: usize = queries.iter().filter(|q| scheme.answer(q)).count();
    let time_gr = t.elapsed();

    println!(
        "BFS on G : {on_g}/{} reachable in {time_g:?}",
        queries.len()
    );
    println!(
        "BFS on Gr: {on_gr}/{} reachable in {time_gr:?}",
        queries.len()
    );
    assert_eq!(on_g, on_gr, "compression must preserve every answer");
    if time_gr < time_g {
        let saving = 100.0 * (1.0 - time_gr.as_secs_f64() / time_g.as_secs_f64());
        println!("query time reduced by {saving:.0}% on the compressed graph");
    }

    section("index the compressed graph (2-hop labelling)");
    let t = Instant::now();
    let idx_gr = TwoHopIndex::build(gr);
    println!(
        "2-hop on Gr: {} label entries, ~{} KiB, built in {:?}",
        idx_gr.label_entries(),
        idx_gr.heap_bytes() / 1024,
        t.elapsed()
    );
    let t = Instant::now();
    let idx_g = TwoHopIndex::build(&g);
    println!(
        "2-hop on G : {} label entries, ~{} KiB, built in {:?}",
        idx_g.label_entries(),
        idx_g.heap_bytes() / 1024,
        t.elapsed()
    );

    // The index over Gr answers original queries through the rewriting F.
    let via_index: usize = queries
        .iter()
        .filter(|q| {
            let (a, b) = scheme.rewrite(q);
            if a == b {
                scheme.answer(q)
            } else {
                idx_gr.query(a, b)
            }
        })
        .count();
    assert_eq!(via_index, on_g);
    println!("2-hop-on-Gr answers agree with BFS-on-G: true");
}
