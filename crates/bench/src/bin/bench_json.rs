//! Writes a machine-readable perf snapshot (see `qpgc_bench::perf`).
//!
//! ```text
//! cargo run --release -p qpgc_bench --bin bench_json -- --out BENCH_<n>.json
//! cargo run --release -p qpgc_bench --bin bench_json -- --compare BENCH_9.json
//! QPGC_SCALE=500 cargo run --release -p qpgc_bench --bin bench_json
//! ```
//!
//! Without `--out` the snapshot goes to `target/bench_snapshot.json`, which
//! git ignores: a bare run never overwrites a committed `BENCH_<n>.json`.
//!
//! Unlike `reproduce`, the default scale here is **1** (full citHepTh-scale,
//! ≈28k nodes) because the snapshot exists to track the perf trajectory at a
//! meaningful size; set `QPGC_SCALE` to shrink it (CI smoke uses 500).
//! `--compare PREV.json` additionally prints the per-phase regression table
//! against a previously committed snapshot — the ROADMAP's
//! compare-against-previous convention.

use qpgc_bench::perf::{compare_report, perf_snapshot};

fn main() {
    let mut out_path = String::from("target/bench_snapshot.json");
    let mut compare_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args
                    .get(i)
                    .unwrap_or_else(|| {
                        eprintln!("--out requires a path");
                        std::process::exit(2);
                    })
                    .clone();
            }
            "--compare" => {
                i += 1;
                compare_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| {
                            eprintln!("--compare requires a path to a previous BENCH_<n>.json");
                            std::process::exit(2);
                        })
                        .clone(),
                );
            }
            other => {
                eprintln!(
                    "unknown argument `{other}`; usage: bench_json [--out PATH] [--compare PREV.json]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // Read the comparison snapshot up front: a typo'd path must fail before
    // the (potentially minutes-long) benchmark run, not after it.
    let compare = compare_path.map(|prev_path| {
        let prev = std::fs::read_to_string(&prev_path).unwrap_or_else(|e| {
            eprintln!("failed to read {prev_path}: {e}");
            std::process::exit(1);
        });
        (prev_path, prev)
    });

    let scale = std::env::var("QPGC_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1);

    eprintln!("# perf snapshot at scale 1/{scale} (QPGC_SCALE to change)");
    let snap = perf_snapshot(scale);
    for (name, ms) in &snap.phases_ms {
        eprintln!("  {name:>16}: {ms:>10.3} ms");
    }
    eprintln!("  bisim speedup (baseline/csr): {:.2}x", snap.bisim_speedup);
    for row in &snap.bulk {
        eprintln!(
            "  bulk {} queries on {} @ {} thread(s): {:>10.3} ms ({:.0} qps)",
            snap.serve_queries, snap.serve_dataset, row.threads, row.elapsed_ms, row.qps
        );
    }
    for row in &snap.snapshot_incremental {
        eprintln!(
            "  snapshot_incremental {} (1/{}, two_hop={}, patterns={}): full {:.3} ms vs delta {:.3} ms ({:.2}x, {}/{} patched, {} pattern-patched)",
            row.dataset,
            row.scale,
            row.two_hop,
            row.serve_patterns,
            row.full_ms,
            row.delta_ms,
            row.speedup,
            row.patched_batches,
            row.batches,
            row.pattern_patched_batches
        );
    }
    for row in &snap.store_sharding.throughput {
        eprintln!(
            "  store_sharding {} (1/{}) @ {} shard(s): apply {:.3} ms ({:.0} upd/s), publish {:.3} ms, {} cross edges, {} boundary vertices",
            snap.store_sharding.dataset,
            snap.store_sharding.scale,
            row.shard_count,
            row.apply_ms,
            row.updates_per_sec,
            row.publish_ms,
            row.cross_edges,
            row.boundary_vertices
        );
    }
    for row in &snap.store_sharding.latency {
        eprintln!(
            "  store_sharding latency @ {} shard(s), cross_shard={}: {} queries in {:.3} ms ({:.0} qps)",
            row.shard_count, row.cross_shard, row.queries, row.elapsed_ms, row.qps
        );
    }
    for row in &snap.robustness {
        eprintln!(
            "  robustness {} (1/{}): guard {:.3} ms of {:.3} ms apply ({:.3}% overhead), logged {:.3} ms, replay {:.1} batches/s",
            row.dataset,
            row.scale,
            row.guard_ms,
            row.apply_ms,
            row.overhead_pct,
            row.logged_ms,
            row.replay_batches_per_sec
        );
    }
    for row in &snap.parallel_maintenance {
        eprintln!(
            "  parallel_maintenance {} {} @ {} thread(s): {:.3} ms ({:.2}x)",
            row.task, row.dataset, row.threads, row.elapsed_ms, row.speedup
        );
    }

    for row in &snap.succinct_snapshot {
        eprintln!(
            "  succinct_snapshot {} (1/{}): {} -> {} bytes ({:.3}x, {:.2} bits/edge), query {:.3} ms vs {:.3} ms plain ({:.2}x)",
            row.dataset,
            row.scale,
            row.plain_bytes,
            row.succinct_bytes,
            row.heap_ratio,
            row.bits_per_edge,
            row.succinct_query_ms,
            row.plain_query_ms,
            row.query_ratio
        );
    }
    for row in &snap.succinct_boot {
        eprintln!(
            "  succinct_boot {} (1/{}, {} batches of {}): {} bytes on disk, save {:.3} ms, load {:.3} ms, boot {:.3} ms vs full replay {:.3} ms",
            row.dataset,
            row.scale,
            row.batches,
            row.batch_size,
            row.snapshot_file_bytes,
            row.save_ms,
            row.load_ms,
            row.boot_ms,
            row.replay_ms
        );
    }

    if let Some((prev_path, prev)) = compare {
        eprintln!("# regression vs {prev_path}");
        eprint!("{}", compare_report(&prev, &snap));
    }

    // The default path's directory is missing when the build went to another
    // target directory; the run is too long to lose to that.
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, snap.to_json()).unwrap_or_else(|e| {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out_path}");
}
