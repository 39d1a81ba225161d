//! # qpgc_benchmark — the repository's benchmark
//!
//! One command runs one of six named workloads against the serving stack,
//! prints every metric by name with its unit and sample count, checks every
//! answer against an oracle (BFS / bounded simulation on the uncompressed
//! graph), and exits non-zero on a wrong answer:
//!
//! ```text
//! cargo run --release --manifest-path qpgc_benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <u64> [--seconds <s>] [--trace <0|1>] \
//!     [--json <file>] [--smoke] [--flip-answer]
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics with tracing
//! off; `--trace 1` replays the workload with a span around every call into
//! a layer and reports the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `README.md` beside this package for the tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapter;
mod inputs;
mod json;
mod layers;
mod run;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Value;
use run::{Options, Outcome};
use spec::{MetricDef, Sizes, Workload, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "usage: qpgc_benchmark --workload <name|all> [--seed <u64>] [--seconds <s>] \
                     [--trace <0|1>] [--json <file>] [--smoke] [--flip-answer]";

struct Cli {
    workloads: Vec<&'static Workload>,
    traced: bool,
    json: Option<PathBuf>,
    options: Options,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut workloads = Vec::new();
    let mut traced = false;
    let mut json = None;
    let mut seed = 0u64;
    let mut seconds = 15.0f64;
    let mut sizes = Sizes::FULL;
    let mut flip_answer = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads = match name.as_str() {
                    "all" => WORKLOADS.iter().collect(),
                    name => vec![spec::workload(name).ok_or(format!("unknown workload {name}"))?],
                };
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--json" => json = Some(PathBuf::from(value()?)),
            "--smoke" => sizes = Sizes::SMOKE,
            "--flip-answer" => flip_answer = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(Cli {
        workloads,
        traced,
        json,
        options: Options {
            seed,
            seconds,
            sizes,
            flip_answer,
            work_dir: work_dir(),
            threads: parallelism().min(2),
        },
    })
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Where the log, snapshot and trace files go: under the build's target
/// directory, which is inside the checkout and ignored by git.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("qpgc_benchmark_work")
}

/// The result object: `correct`, `attempted`, `failed`, and every metric of
/// `table` with its unit.
fn result_value(outcome: &Outcome, table: &[MetricDef]) -> Value {
    let metrics = table.iter().map(|def| {
        let value = outcome.value(def.name).unwrap_or(f64::NAN);
        let entry = Value::obj([("value", Value::Num(value)), ("unit", Value::str(def.unit))]);
        (def.name, entry)
    });
    Value::obj([
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::Int(outcome.attempted)),
        ("failed", Value::Int(outcome.failed)),
        ("metrics", Value::obj(metrics)),
    ])
}

fn print_header(options: &Options, traced: bool) {
    let profile = if cfg!(debug_assertions) {
        "debug (numbers are not comparable)"
    } else {
        "release"
    };
    println!("qpgc_benchmark");
    println!("  available_parallelism (nproc): {}", parallelism());
    println!(
        "  StoreConfig::threads: 1; busy threads at most: {} (1 writer, 1 reader, closed loops)",
        options.threads
    );
    println!("  build profile: {profile}");
    println!(
        "  seed: {}  target seconds: {}  traced: {traced}",
        options.seed, options.seconds
    );
    println!("  log flush policy: the product's (File::flush, no fsync); latencies are");
    println!("  the sandbox's, not a device's");
}

fn print_outcome(workload: &Workload, outcome: &Outcome, table: &[MetricDef]) {
    println!();
    println!("workload {}: {}", workload.name, workload.why);
    for def in table {
        let better = def.better.as_str();
        match outcome.metrics.iter().find(|m| m.name == def.name) {
            Some(m) => println!(
                "  {:<38} {:>16.4} {:<6} n={:<8} better: {better}",
                m.name, m.value, def.unit, m.samples
            ),
            None => println!("  {:<38} {:>16} {:<6}", def.name, "missing", def.unit),
        }
    }
    println!(
        "  {:<38} {:>16.6} {:<6} {} failed of {} attempted",
        "failed_share",
        outcome.failed_share(),
        "ratio",
        outcome.failed,
        outcome.attempted
    );
    for note in &outcome.notes {
        println!("  ({note})");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cli.options.work_dir) {
        eprintln!("cannot create {}: {e}", cli.options.work_dir.display());
        return ExitCode::from(2);
    }
    print_header(&cli.options, cli.traced);

    let table = if cli.traced { PER_LAYER } else { END_TO_END };
    let mut results = Vec::new();
    for &workload in &cli.workloads {
        let outcome = if cli.traced {
            layers::run_traced(workload, &cli.options)
        } else {
            run::run_end_to_end(workload, &cli.options)
        };
        print_outcome(workload, &outcome, table);
        results.push((workload.name, result_value(&outcome, table)));
    }

    let correct = results
        .iter()
        .all(|(_, r)| r.get("correct") == Some(&Value::Bool(true)));
    // One workload: the result object itself. `all`: one object per
    // workload, keyed by name.
    let last_line = if results.len() == 1 {
        results.remove(0).1
    } else {
        Value::obj(results)
    };
    let rendered = last_line.render();
    if let Some(path) = &cli.json {
        if let Err(e) = std::fs::write(path, format!("{rendered}\n")) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!();
    println!("{rendered}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: at least one answer differs from the oracle");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke options with a work directory of the test's own (tests run on
    /// parallel threads and must not share log or snapshot files).
    fn smoke_options(test: &str, flip_answer: bool) -> Options {
        Options {
            seed: 11,
            seconds: 0.0,
            sizes: Sizes::SMOKE,
            flip_answer,
            work_dir: {
                let dir = work_dir().join(format!("test_{}_{test}", std::process::id()));
                std::fs::create_dir_all(&dir).unwrap();
                dir
            },
            threads: 2,
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_accepts_the_drivers_arguments_and_rejects_nonsense() {
        let cli = parse_cli(&args(&[
            "--workload",
            "dense_cithepth",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .map_err(|e| panic!("{e}"))
        .unwrap();
        assert_eq!(cli.workloads.len(), 1);
        assert!(cli.traced);
        assert_eq!(cli.options.seed, 7);
        assert_eq!(
            parse_cli(&args(&["--workload", "all"]))
                .unwrap()
                .workloads
                .len(),
            6
        );
        assert!(parse_cli(&args(&[])).is_err());
        assert!(parse_cli(&args(&["--workload", "nope"])).is_err());
        assert!(parse_cli(&args(&["--workload", "all", "--trace", "2"])).is_err());
        assert!(parse_cli(&args(&["--workload", "all", "--seed"])).is_err());
    }

    #[test]
    fn smoke_pass_runs_every_workload_and_output_carries_every_metric() {
        let options = smoke_options("end_to_end", false);
        for workload in WORKLOADS {
            let outcome = run::run_end_to_end(workload, &options);
            assert_eq!(outcome.failed, 0, "{}: oracle disagrees", workload.name);
            assert!(outcome.attempted > 200, "{}", workload.name);
            let parsed = json::parse(&result_value(&outcome, END_TO_END).render()).unwrap();
            assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
            let metrics = parsed.get("metrics").unwrap();
            for def in END_TO_END {
                let entry = metrics
                    .get(def.name)
                    .unwrap_or_else(|| panic!("{}", def.name));
                assert_eq!(entry.get("unit"), Some(&Value::str(def.unit)));
                let positive = match entry.get("value") {
                    Some(Value::Num(x)) => *x > 0.0,
                    Some(Value::Int(i)) => *i > 0,
                    _ => false,
                };
                assert!(positive, "{} {} must be > 0", workload.name, def.name);
            }
        }
    }

    #[test]
    fn smoke_traced_pass_reports_every_layer_and_writes_the_trace() {
        let options = smoke_options("traced", false);
        for name in ["compact_cithepth", "sharded_wikitalk", "pattern_citation"] {
            let workload = spec::workload(name).unwrap();
            let outcome = layers::run_traced(workload, &options);
            assert_eq!(outcome.failed, 0, "{name}: oracle disagrees");
            assert_eq!(outcome.metrics.len(), PER_LAYER.len());
            let trace = options.work_dir.join(format!("trace_{name}.jsonl"));
            let text = std::fs::read_to_string(trace).unwrap();
            assert!(text.lines().count() > 6 * 4, "{name}: spans per batch");
            assert!(text.lines().all(|l| json::parse(l).is_ok()));
            let ran = |metric: &str| outcome.value(metric).unwrap() != 0.0;
            assert!(ran("reach.incremental.apply_ms"), "{name}");
            assert_eq!(ran("reach.two_hop.build_ms"), name != "compact_cithepth");
            assert_eq!(ran("serve.wal.recover_s"), name == "compact_cithepth");
            assert_eq!(ran("serve.store.boot_s"), name == "compact_cithepth");
            assert_eq!(ran("serve.boundary.vertices"), name == "sharded_wikitalk");
            assert_eq!(ran("pattern.view.classes"), name == "pattern_citation");
        }
    }

    #[test]
    fn a_flipped_answer_is_counted_as_a_failure() {
        let workload = spec::workload("churn_wikitalk").unwrap();
        let outcome = run::run_end_to_end(workload, &smoke_options("flipped", true));
        assert_eq!(outcome.failed, 1);
        assert!(outcome.failed_share() > 0.0);
        let value = result_value(&outcome, END_TO_END);
        assert_eq!(value.get("correct"), Some(&Value::Bool(false)));
    }
}
