//! Fault injection through the model checker's `Fault` command, at
//! **every** failpoint site, on single, pattern-serving, 2-shard and
//! 4-shard stores. Requires the `failpoints` feature:
//!
//! ```text
//! cargo test -p qpgc_tests --features failpoints --test fault_injection
//! ```
//!
//! A fault must surface as `Err` naming its site and leave the same cut
//! served; the store then continues, or recovers from its log to the
//! durable history. A fault in a snapshot save must leave the file on disk
//! as it was. `qpgc_lint`'s `failpoint-registry` rule checks the
//! `*_SITES` lists against every `fail_point!` in the workspace.

#![cfg(feature = "failpoints")]

use qpgc_fault::FaultPlan;
use qpgc_tests::{check_script, Command, Config};

/// Sites a single-writer `CompressedStore` apply traverses (log sites
/// included — every checker store writes through a log).
const SINGLE_SITES: &[&str] = &[
    "store/maintain",
    "store/stage",
    "store/publish",
    "log/append_torn",
    "log/append",
];

/// Sites a sharded apply traverses: router-level sites plus the staging
/// sites of the single store, which the router runs once per shard.
const SHARDED_SITES: &[&str] = &[
    "sharded/slice",
    "shard/stage",
    "store/maintain",
    "store/stage",
    "store/publish",
    "sharded/boundary",
    "sharded/commit",
    "log/append_torn",
    "log/append",
];

/// Sites a snapshot save traverses: the fault falls between writing the
/// new file aside and renaming it over the old one.
const SAVE_SITES: &[&str] = &["persist/save"];

/// Two clean batches, then for every site a fault at its first hit
/// followed by `then` and a recovery from the log: the recovered store must
/// hold exactly the committed history, so a record a `log/append` fault
/// left past the committed end must have been truncated by the next clean
/// append.
fn at_every_site(config: Config, seed: u64, sites: &[&'static str], then: &[Command]) {
    let mut script = vec![Command::Mixed, Command::Mixed];
    for &site in sites {
        script.push(Command::Fault { site, hit: 1 });
        script.extend(then);
        script.push(Command::Recover);
    }
    check_script(config, seed, &script);
}

fn sharded(shards: usize) -> Config {
    let shards = Some(shards);
    Config {
        shards,
        ..Config::default()
    }
}

/// What follows a fault: the store continues (a no-op batch republishes, a
/// clean batch applies), or it is dropped and recovered from its log — one
/// compression of the log's final graph — and carries on with a neutral
/// batch and a mixed one.
const CONTINUE: &[Command] = &[Command::Noop, Command::Mixed, Command::Pattern];
const RECOVER: &[Command] = &[Command::Recover, Command::Neutral, Command::Mixed];

#[test]
fn single_store_survives_a_fault_at_every_site() {
    at_every_site(Config::default(), 0xFA01, SINGLE_SITES, &CONTINUE[..2]);
}

#[test]
fn pattern_serving_store_survives_a_fault_at_every_staging_site() {
    let config = Config {
        patterns: true,
        ..Config::default()
    };
    at_every_site(config, 0xFA03, &SINGLE_SITES[..3], CONTINUE);
}

#[test]
fn sharded_store_survives_a_fault_at_every_site() {
    for shards in [2, 4] {
        let seed = 0xFA02 + shards as u64;
        at_every_site(sharded(shards), seed, SHARDED_SITES, &CONTINUE[..2]);
    }
}

#[test]
fn the_failing_shard_is_the_one_the_hit_count_names() {
    let site = "store/maintain";
    for shards in [2, 4] {
        let mut script = Vec::new();
        for hit in 1..=shards as u64 {
            script.extend([Command::Fault { site, hit }, Command::Mixed]);
        }
        check_script(sharded(shards), 0xFA05 + shards as u64, &script);
    }
}

#[test]
fn single_store_recovers_by_replay_after_a_kill_at_every_site() {
    at_every_site(Config::default(), 0xA11, SINGLE_SITES, RECOVER);
}

#[test]
fn sharded_store_recovers_by_replay_after_a_kill_at_every_site() {
    for shards in [2, 4] {
        let seed = 0xA11 + shards as u64;
        at_every_site(sharded(shards), seed, SHARDED_SITES, RECOVER);
    }
}

/// A save that fails before its rename, over a file saved earlier and over
/// none: the previous file is left byte for byte and still loads, and a
/// boot from it and the log's tail answers like the model.
#[test]
fn a_failed_save_leaves_the_previous_file_intact() {
    use Command::{Boot, Mixed, Save};
    let succinct = Config {
        format: qpgc_serve::SnapshotFormat::Succinct,
        two_hop: true,
        ..Config::default()
    };
    for &site in SAVE_SITES {
        let fault = Command::Fault { site, hit: 1 };
        let script = [Mixed, Save, Mixed, fault, Boot, Mixed, fault, Boot];
        for config in [Config::default(), succinct] {
            check_script(config, 0x5A7E, &script);
        }
    }
}

/// Validation rejects a batch before any site fires, armed or not.
#[test]
fn invalid_batches_reject_before_any_site_fires() {
    let _armed = qpgc_fault::install(FaultPlan::new().fail_at("store/maintain", 1));
    for config in [Config::default(), sharded(2)] {
        check_script(config, 0xFA77, &[Command::Conflict, Command::OutOfRange]);
    }
}
