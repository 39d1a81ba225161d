//! The single store's update streams, as entries into the model checker
//! (`qpgc_tests::check`): each runs it over the configuration the former
//! hand-rolled streams drove, on their seeds (odd seeds draw a DAG), every
//! command judged by BFS and `bounded_match` on the model.

use qpgc_tests::{check_configs, Config};

/// Commands per run: eight of the kinds a single store admits, in seeded
/// order. Runs are short so the entries keep every graph of the streams.
const STEPS: usize = 8;

/// The plain single store, with or without the 2-hop index and patterns.
fn plain_store(two_hop: bool, patterns: bool) -> impl Fn(&Config) -> bool {
    move |c| {
        *c == Config {
            two_hop,
            patterns,
            ..Config::default()
        }
    }
}

/// The 85 seeds of the former 2-hop streams. Both publication paths must
/// occur often.
#[test]
fn streams_with_two_hop_stay_oracle_exact() {
    let seeds = (1000..1030)
        .chain(1100..1130)
        .chain(3000..3020)
        .chain(4000..4005);
    let coverage = check_configs(seeds, STEPS, plain_store(true, false));
    let (built, republished) = (coverage.rebuilt, coverage.republished);
    assert!(built > 100, "only {built} built publications");
    assert!(republished > 10, "only {republished} republications");
}

/// The 40 seeds of the former streams without an index.
#[test]
fn streams_without_index_stay_oracle_exact() {
    let seeds = (2000..2020).chain(2100..2120);
    check_configs(seeds, STEPS, plain_store(false, false));
}

/// The 53 seeds of the former pattern streams: views that were built and
/// views that were shared.
#[test]
fn pattern_streams_stay_oracle_exact() {
    let seeds = (5000..5015)
        .chain(5100..5115)
        .chain(5200..5215)
        .chain(6000..6008);
    let coverage = check_configs(seeds, STEPS, plain_store(false, true));
    let views = coverage.views_built;
    assert!(views > 60, "only {views} views built");
    let publications = coverage.rebuilt + coverage.republished;
    assert!(views < publications, "no publication shared its view");
}

/// One long run, so retired and recycled class ids accumulate across many
/// generations.
#[test]
fn long_chains_stay_consistent() {
    check_configs(71..72, 200, plain_store(true, false));
}
