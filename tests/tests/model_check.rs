//! The model checker over every store configuration that exists (see
//! `qpgc_tests`): the 8 single-store and 12 router configurations each run
//! seeded command sequences against the BFS / `bounded_match` model, must
//! exercise every command kind they admit and both publication paths,
//! prune some update as neutral, and replay to the same state at
//! `threads = 2`. The 12 pattern-serving router configurations run to
//! their refusal.

use qpgc_tests::{assert_refused, check_configs, Config};

fn check_every(routers: bool) {
    for config in Config::all()
        .into_iter()
        .filter(|c| c.shards.is_some() == routers)
    {
        let coverage = check_configs(0..2, 40, |c| *c == config);
        coverage.assert_complete(&config);
        assert!(coverage.pruned > 0, "{config:?}: no update was pruned");
    }
}

#[test]
fn every_single_store_configuration_matches_the_model() {
    check_every(false);
}

#[test]
fn every_router_configuration_matches_the_model() {
    check_every(true);
}

#[test]
fn there_are_twenty_configurations_and_pattern_serving_routers_are_refused() {
    assert_eq!(Config::all().len(), 20);
    assert_eq!(Config::refused().len(), 12);
    Config::refused().into_iter().for_each(assert_refused);
}
