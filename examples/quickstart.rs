//! Quickstart: compress a graph once, answer reachability and pattern
//! queries on the compressed form, and keep it maintained under updates.
//!
//! Run with `cargo run -p qpgc-examples --bin quickstart`.

#![allow(clippy::print_stdout)]

use qpgc::prelude::*;
use qpgc_examples::{pct, section};

fn main() {
    // ----------------------------------------------------------------- //
    // 1. Build a data graph (a tiny social/recommendation network).      //
    // ----------------------------------------------------------------- //
    let mut g = LabeledGraph::new();
    let alice = g.add_node_with_label("user");
    let bob = g.add_node_with_label("user");
    let carol = g.add_node_with_label("user");
    let shop1 = g.add_node_with_label("shop");
    let shop2 = g.add_node_with_label("shop");
    let item = g.add_node_with_label("item");
    for (u, v) in [
        (alice, shop1),
        (bob, shop1),
        (alice, shop2),
        (bob, shop2),
        (carol, alice),
        (shop1, item),
        (shop2, item),
    ] {
        g.add_edge(u, v);
    }
    println!(
        "original graph: |V| = {}, |E| = {}",
        g.node_count(),
        g.edge_count()
    );

    // ----------------------------------------------------------------- //
    // 2. Reachability preserving compression (Section 3 of the paper).   //
    // ----------------------------------------------------------------- //
    section("reachability preserving compression");
    let reach = ReachCompression::compress(&g);
    println!(
        "compressed graph: |Vr| = {}, |Er| = {} (ratio {})",
        reach.compressed_graph().node_count(),
        reach.compressed_graph().edge_count(),
        pct(reach.ratio(&g)),
    );
    let q = ReachQuery::new(carol, item);
    println!("QR(carol, item) on G  = {}", q.evaluate(&g));
    println!(
        "QR(carol, item) on Gr = {}   (same answer, smaller graph)",
        reach.answer(&q)
    );
    // Every reachability query, not just this one, is preserved.
    for u in g.nodes() {
        for w in g.nodes() {
            let q = ReachQuery::new(u, w);
            assert_eq!(reach.answer(&q), q.evaluate(&g), "QR({u}, {w})");
        }
    }
    println!(
        "all {} reachability answers agree = true",
        g.node_count().pow(2)
    );

    // ----------------------------------------------------------------- //
    // 3. Pattern preserving compression (Section 4).                     //
    // ----------------------------------------------------------------- //
    section("pattern preserving compression");
    let pat = PatternView::compress(&g);
    println!(
        "compressed graph: |Vr| = {}, |Er| = {} (ratio {})",
        pat.compressed_graph().node_count(),
        pat.compressed_graph().edge_count(),
        pct(pat.ratio(&g)),
    );
    // "users who can reach an item within 2 hops"
    let mut query = Pattern::new();
    let qu = query.add_node("user");
    let qi = query.add_node("item");
    query.add_edge(qu, qi, 2);
    let answer = pat.answer(&query);
    match &answer {
        Some(relation) => {
            let users: Vec<String> = relation
                .matches_of(qu)
                .iter()
                .map(|v| format!("{v}"))
                .collect();
            println!("users within 2 hops of an item: {}", users.join(", "));
        }
        None => println!("pattern does not match"),
    }
    let direct = qpgc::pattern_engine::bounded::bounded_match(&g, &query);
    assert_eq!(
        answer.map(|m| m.canonical()),
        direct.map(|m| m.canonical()),
        "the pattern answer on Gr must be the answer on G"
    );
    println!("pattern answers agree = true");

    // ----------------------------------------------------------------- //
    // 4. Incremental maintenance (Section 5).                            //
    // ----------------------------------------------------------------- //
    section("incremental maintenance");
    let mut maintained = MaintainedGraph::new(g, false);
    println!(
        "hypernodes before update: {}",
        maintained.reach().class_count()
    );
    let mut batch = UpdateBatch::new();
    batch.delete(shop1, item).insert(carol, shop1);
    let (stats, _) = maintained.apply(&batch).reach;
    println!(
        "applied {} effective updates; affected {} hypernodes, rewrote {}",
        stats.effective_updates, stats.affected_classes, stats.changed_classes
    );
    println!(
        "hypernodes after update:  {}",
        maintained.reach().class_count()
    );
    let after = maintained.reach().query(carol, item);
    println!("QR(carol, item) after update = {after}");
    assert_eq!(
        after,
        ReachQuery::new(carol, item).evaluate(maintained.graph())
    );
    println!("maintained answer agrees = true");
}
