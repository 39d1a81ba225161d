//! The reproduction driver: regenerates every table and figure of the
//! paper's evaluation on the emulated datasets.
//!
//! ```text
//! cargo run --release -p qpgc_bench --bin reproduce -- all
//! cargo run --release -p qpgc_bench --bin reproduce -- table1 fig12e
//! QPGC_SCALE=50 cargo run --release -p qpgc_bench --bin reproduce -- table1
//! ```
//!
//! `QPGC_SCALE` divides the original dataset sizes (default 100); lower
//! values give results closer to the paper's scale at the cost of runtime.

#![allow(clippy::print_stdout)]

use std::time::Instant;

use qpgc_bench::experiments::{run, ALL_EXPERIMENTS};
use qpgc_bench::harness::scale_from_env;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_from_env();

    let requested: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };

    println!("# Query preserving graph compression — reproduction run");
    println!("# dataset scale factor: 1/{scale} of the original sizes (set QPGC_SCALE to change)");
    println!();

    let mut failed = false;
    for id in requested {
        let t = Instant::now();
        match run(id, scale) {
            Some(result) => {
                print!("{}", result.render());
                println!("  [{} rows, ran in {:?}]", result.rows.len(), t.elapsed());
                println!();
            }
            None => {
                eprintln!("unknown experiment id `{id}`; known ids: {ALL_EXPERIMENTS:?}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(2);
    }
}
