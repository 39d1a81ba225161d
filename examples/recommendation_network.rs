//! The paper's running example (Fig. 2): a multi-agent recommendation
//! network with book server agents (BSA), music shop agents (MSA),
//! facilitator agents (FA) and customers (C), queried by a bookstore owner
//! looking for potential buyers.
//!
//! Run with `cargo run -p qpgc-examples --bin recommendation_network`.

#![allow(clippy::print_stdout)]

use qpgc::prelude::*;
use qpgc_examples::{pct, section};

/// Builds the recommendation network of Fig. 2 with `k` customers behind
/// the FA3/FA4 facilitators.
fn build_network(k: usize) -> (LabeledGraph, Vec<NodeId>) {
    let mut g = LabeledGraph::new();
    let bsa1 = g.add_node_with_label("BSA");
    let bsa2 = g.add_node_with_label("BSA");
    let msa1 = g.add_node_with_label("MSA");
    let msa2 = g.add_node_with_label("MSA");
    let fa1 = g.add_node_with_label("FA");
    let fa2 = g.add_node_with_label("FA");
    let fa3 = g.add_node_with_label("FA");
    let fa4 = g.add_node_with_label("FA");
    let c1 = g.add_node_with_label("C");
    let c2 = g.add_node_with_label("C");

    // BSA1/BSA2 each recommend an MSA and an FA.
    g.add_edge(bsa1, msa1);
    g.add_edge(bsa1, fa1);
    g.add_edge(bsa2, msa2);
    g.add_edge(bsa2, fa2);
    // The MSAs recommend the "back office" facilitators FA3/FA4.
    g.add_edge(msa1, fa3);
    g.add_edge(msa2, fa4);
    // FA1/FA2 serve customers C1/C2, who interact back with them.
    g.add_edge(fa1, c1);
    g.add_edge(fa2, c2);
    g.add_edge(c1, fa1);
    g.add_edge(c2, fa2);

    // Customers C3..C{k} all interact with both FA3 and FA4.
    let mut customers = vec![c1, c2];
    for _ in 0..k {
        let c = g.add_node_with_label("C");
        g.add_edge(fa3, c);
        g.add_edge(fa4, c);
        g.add_edge(c, fa3);
        g.add_edge(c, fa4);
        customers.push(c);
    }
    (g, customers)
}

fn main() {
    let k = 40;
    let (g, customers) = build_network(k);
    println!(
        "recommendation network: |V| = {}, |E| = {} ({} customers)",
        g.node_count(),
        g.edge_count(),
        customers.len()
    );

    // --------------------------------------------------------------- //
    // The bookstore owner's pattern Qp: find BSAs whose customers       //
    // (within 2 hops) interact with an FA.                              //
    // --------------------------------------------------------------- //
    section("the bookstore owner's pattern query");
    let mut qp = Pattern::new();
    let q_bsa = qp.add_node("BSA");
    let q_c = qp.add_node("C");
    let q_fa = qp.add_node("FA");
    qp.add_edge(q_bsa, q_c, 2); // customers within 2 hops of the BSA
    qp.add_edge(q_c, q_fa, 1); // who interact with an FA
    qp.add_edge(q_fa, q_c, 1); // and the FA answers back

    let scheme = PatternView::compress(&g);
    println!(
        "compressed graph Gr: |Vr| = {}, |Er| = {}  (PCr = {})",
        scheme.compressed_graph().node_count(),
        scheme.compressed_graph().edge_count(),
        pct(scheme.ratio(&g)),
    );

    match scheme.answer(&qp) {
        Some(answer) => {
            println!(
                "matched: {} BSAs, {} customers, {} FAs",
                answer.matches_of(q_bsa).len(),
                answer.matches_of(q_c).len(),
                answer.matches_of(q_fa).len()
            );
        }
        None => println!("the pattern does not match"),
    }

    // The same query evaluated directly on G gives the identical answer.
    let direct = qpgc::pattern_engine::bounded::bounded_match(&g, &qp).expect("matches on G");
    let via_gr = scheme.answer(&qp).expect("matches via Gr");
    assert_eq!(direct.canonical(), via_gr.canonical());
    println!("answers identical on G and Gr: true");

    // --------------------------------------------------------------- //
    // Reachability view of the same network.                            //
    // --------------------------------------------------------------- //
    section("reachability preserving compression of the same network");
    let reach = ReachCompression::compress(&g);
    println!(
        "Gr for reachability: |Vr| = {}, |Er| = {}  (RCr = {})",
        reach.compressed_graph().node_count(),
        reach.compressed_graph().edge_count(),
        pct(reach.ratio(&g)),
    );
    let q = ReachQuery::new(NodeId(0), customers[customers.len() - 1]);
    println!("QR(BSA1, C{k}) = {} (computed on Gr)", reach.answer(&q));
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

    // --------------------------------------------------------------- //
    // The network evolves: a new recommendation appears (Example 7).    //
    // --------------------------------------------------------------- //
    section("incremental maintenance after new recommendations");
    let fa1 = NodeId(4);
    let c_last = customers[customers.len() - 1];
    let mut maintained = MaintainedGraph::new(g, true);
    let hypernodes = |m: &MaintainedGraph| m.pattern().expect("patterns on").class_count();
    let before = hypernodes(&maintained);
    let mut batch = UpdateBatch::new();
    batch.insert(fa1, c_last); // FA1 now also recommends the last customer
    let (stats, _) = maintained.apply(&batch).pattern.expect("patterns on");
    println!(
        "hypernodes: {before} -> {} (affected {} classes, rewrote {})",
        hypernodes(&maintained),
        stats.affected_classes,
        stats.changed_classes
    );
    let maintained_answer = maintained.match_pattern(&qp);
    println!(
        "owner's pattern still matches: {}",
        maintained_answer.is_some()
    );
    let direct = qpgc::pattern_engine::bounded::bounded_match(maintained.graph(), &qp);
    assert_eq!(
        maintained_answer.map(|m| m.canonical()),
        direct.map(|m| m.canonical())
    );
    println!("maintained answer agrees with G = true");
}
