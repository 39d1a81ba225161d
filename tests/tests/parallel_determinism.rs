//! `StoreConfig::threads` shards store-level bulk reads and nothing else,
//! so no published structure may depend on it. Every model-checker run
//! (`qpgc_tests::check`) replays its commands at `threads = 2` and asserts
//! the same state hash — quotient edges, `class_of`, the 2-hop landmark
//! order, the pattern view, `heap_bytes` — after every command. These
//! entries replay at 2 and at 4 threads, on the plain-backend configuration
//! and the ten seeds each the former thread-count differential covered.

use std::ops::Range;

use qpgc_tests::{check_at, Config};

/// Runs eight commands on each seed of `seeds` against the plain store
/// with `shards`, the 2-hop index and patterns as given, replayed at 2 and
/// 4 threads.
fn replayed(seeds: Range<u64>, shards: Option<usize>, two_hop: bool, patterns: bool) {
    let config = Config {
        shards,
        two_hop,
        patterns,
        ..Config::default()
    };
    for seed in seeds {
        check_at(config, seed, 8, &[2, 4]);
    }
}

#[test]
fn two_hop_streams_are_thread_count_invariant() {
    replayed(9100..9110, None, true, false);
}

#[test]
fn pattern_streams_are_thread_count_invariant() {
    replayed(9200..9210, None, false, true);
}

#[test]
fn combined_streams_are_thread_count_invariant() {
    replayed(9300..9310, None, true, true);
}

#[test]
fn sharded_streams_are_deterministic_at_any_thread_count() {
    replayed(9400..9410, Some(2), true, false);
}
