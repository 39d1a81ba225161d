//! `qpgc_lint` binary: lints the workspace and reports findings.
//!
//! ```text
//! cargo run -p qpgc_lint              # human output, exit 1 on findings
//! cargo run -p qpgc_lint -- --json    # machine output for CI artifacts
//! cargo run -p qpgc_lint -- --root P  # lint a different tree (fixtures)
//! ```

#![allow(clippy::print_stdout)]

use std::path::PathBuf;

use qpgc_lint::engine::run_root;
use qpgc_lint::to_json;

fn main() {
    let mut json = false;
    // Default to the workspace this binary was built from: the manifest
    // dir is `crates/lint`, so the root is two levels up.
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--root" => {
                i += 1;
                root = PathBuf::from(args.get(i).unwrap_or_else(|| {
                    eprintln!("--root requires a path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument `{other}`; usage: qpgc_lint [--json] [--root PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if !root.join("Cargo.toml").is_file() {
        eprintln!("no Cargo.toml under {} — pass --root", root.display());
        std::process::exit(2);
    }

    let findings = run_root(&root);
    if json {
        print!("{}", to_json(&findings));
    } else {
        for f in &findings {
            println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        if findings.is_empty() {
            eprintln!("qpgc_lint: workspace clean");
        } else {
            eprintln!("qpgc_lint: {} finding(s)", findings.len());
        }
    }
    std::process::exit(if findings.is_empty() { 0 } else { 1 });
}
