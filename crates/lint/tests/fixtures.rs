//! Fixture corpus tests: every rule is pinned by at least one positive
//! (violating) and one negative (clean) miniature workspace under
//! `crates/lint/fixtures/`, with exact diagnostics — rule id, relative
//! file, line — asserted. A drift meta-test injects a fake `fail_point!`
//! site into a temp tree and checks both registry directions, and a final
//! self-check runs the linter over the real workspace and requires it
//! clean (the same bar the CI `static-analysis` gate enforces).

use std::path::{Path, PathBuf};

use qpgc_lint::engine::run_root;
use qpgc_lint::Finding;

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// The (rule, file, line) triples of `findings`, in engine order.
fn pins(findings: &[Finding]) -> Vec<(&'static str, &str, usize)> {
    findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect()
}

#[test]
fn lock_hygiene_flags_bare_unwrap_and_expect() {
    let findings = run_root(&fixture_root("lock/bad"));
    assert_eq!(
        pins(&findings),
        [
            ("lock-hygiene", "crates/s/src/store.rs", 4),
            ("lock-hygiene", "crates/s/src/store.rs", 5),
            ("lock-hygiene", "crates/s/src/store.rs", 6),
        ]
    );
    assert!(
        findings[0].message.contains("PoisonError::into_inner"),
        "message must name the recovery idiom: {}",
        findings[0].message
    );
}

#[test]
fn lock_hygiene_accepts_poison_recovery() {
    assert_eq!(pins(&run_root(&fixture_root("lock/ok"))), []);
}

#[test]
fn determinism_flags_unsorted_hash_iteration_in_scope() {
    let findings = run_root(&fixture_root("det/bad"));
    assert_eq!(
        pins(&findings),
        [
            // The shared skeleton is in scope too: the rule fires there.
            ("deterministic-iteration", "crates/graph/src/quotient.rs", 9),
            // Scheduling order is the other leak: no worker threads in the
            // kernel crates, imported (line 1) or called by path (line 7).
            ("deterministic-iteration", "crates/pattern/src/bisim.rs", 1),
            ("deterministic-iteration", "crates/pattern/src/bisim.rs", 7),
            // So is the closure regroup: its group order feeds stable ids.
            (
                "deterministic-iteration",
                "crates/reachability/src/closure.rs",
                6
            ),
            (
                "deterministic-iteration",
                "crates/reachability/src/incremental.rs",
                5
            ),
            (
                "deterministic-iteration",
                "crates/reachability/src/incremental.rs",
                8
            ),
            // And out of the serving crate's write path: a scoped thread
            // per shard makes the failing shard a race.
            ("deterministic-iteration", "crates/serve/src/sharded.rs", 4),
        ]
    );
}

#[test]
fn determinism_accepts_sorted_chains_and_justified_pragmas() {
    assert_eq!(pins(&run_root(&fixture_root("det/ok"))), []);
}

#[test]
fn timing_gate_flags_ungated_wall_clock_asserts() {
    let findings = run_root(&fixture_root("timing/bad"));
    assert_eq!(pins(&findings), [("timing-gate", "tests/tests/t.rs", 7)]);
    assert!(findings[0].message.contains("QPGC_TIMING_TESTS"));
}

#[test]
fn timing_gate_accepts_env_gated_functions() {
    assert_eq!(pins(&run_root(&fixture_root("timing/ok"))), []);
}

#[test]
fn failpoint_registry_flags_both_directions() {
    let findings = run_root(&fixture_root("registry/bad"));
    assert_eq!(
        pins(&findings),
        [
            ("failpoint-registry", "crates/serve/src/a.rs", 2),
            ("failpoint-registry", "tests/tests/fault_injection.rs", 1),
        ]
    );
    assert!(findings[0].message.contains("store/ghost"), "unarmed site");
    assert!(
        findings[1].message.contains("store/armed_but_dead"),
        "dead armed site"
    );
}

#[test]
fn failpoint_registry_accepts_matched_sites() {
    assert_eq!(pins(&run_root(&fixture_root("registry/ok"))), []);
}

#[test]
fn hygiene_flags_missing_forbid_and_banned_macros() {
    let findings = run_root(&fixture_root("hygiene/bad"));
    assert_eq!(
        pins(&findings),
        [
            ("hygiene", "crates/x/src/lib.rs", 1),
            ("hygiene", "crates/x/src/lib.rs", 2),
            ("hygiene", "crates/x/src/lib.rs", 3),
            ("hygiene", "crates/x/src/lib.rs", 7),
        ]
    );
    assert!(findings[0].message.contains("forbid(unsafe_code)"));
}

#[test]
fn hygiene_accepts_forbidding_roots_bins_and_test_modules() {
    assert_eq!(pins(&run_root(&fixture_root("hygiene/ok"))), []);
}

#[test]
fn dead_surface_flags_a_pub_fn_only_tests_call() {
    // Neither the test module, the integration suite nor the example's
    // re-export is a caller; the example's call keeps `served` live. The
    // example reads the field `limit`, which calls no fn of that name.
    let findings = run_root(&fixture_root("dead/bad"));
    assert_eq!(
        pins(&findings),
        [
            ("dead-surface", "crates/x/src/lib.rs", 9),
            ("dead-surface", "crates/x/src/lib.rs", 14),
        ]
    );
    assert!(findings[0].message.contains("only_tested"));
    assert!(findings[1].message.contains("limit"));
}

#[test]
fn dead_surface_accepts_a_pragmad_oracle() {
    assert_eq!(pins(&run_root(&fixture_root("dead/ok"))), []);
}

#[test]
fn pragma_hygiene_flags_unjustified_unknown_and_unused_allows() {
    let findings = run_root(&fixture_root("pragma/bad"));
    assert_eq!(
        pins(&findings),
        [
            ("pragma", "crates/x/src/util.rs", 2),       // no justification
            ("lock-hygiene", "crates/x/src/util.rs", 3), // finding stands
            ("pragma", "crates/x/src/util.rs", 4),       // unknown rule id
            ("pragma", "crates/x/src/util.rs", 6),       // suppresses nothing
        ]
    );
    assert!(findings[0].message.contains("no justification"));
    assert!(findings[2].message.contains("unknown rule"));
    assert!(findings[3].message.contains("unused pragma"));
}

/// Drift meta-test: start from a registry-consistent temp tree, inject a
/// fake `fail_point!` site into a new file, and assert the registry rule
/// flags it; then arm a site whose `fail_point!` no longer exists and
/// assert the dead-site direction fires too.
#[test]
fn failpoint_registry_catches_injected_drift() {
    let root = std::env::temp_dir().join(format!("qpgc_lint_drift_{}", std::process::id()));
    let write = |rel: &str, text: &str| {
        let p = root.join(rel);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(p, text).unwrap();
    };

    write(
        "crates/core/src/pipeline.rs",
        "fn publish() {\n    qpgc_fault::fail_point!(\"store/publish\");\n}\n",
    );
    write(
        "tests/tests/fault_injection.rs",
        "const ALL_SITES: &[&str] = &[\"store/publish\"];\n\
         #[test]\nfn arm() {\n    for s in ALL_SITES {\n        let _ = s;\n    }\n}\n",
    );
    assert_eq!(pins(&run_root(&root)), [], "consistent tree must be clean");

    // Drift 1: a new fail_point! site nobody arms.
    write(
        "crates/core/src/drift.rs",
        "fn oops() {\n    qpgc_fault::fail_point!(\"ghost/injected\");\n}\n",
    );
    let findings = run_root(&root);
    assert_eq!(
        pins(&findings),
        [("failpoint-registry", "crates/core/src/drift.rs", 2)]
    );
    assert!(findings[0].message.contains("ghost/injected"));
    assert!(findings[0].message.contains("not armed"));

    // Drift 2: the site vanishes from the code but stays armed.
    write("crates/core/src/drift.rs", "fn oops() {}\n");
    write("crates/core/src/pipeline.rs", "fn publish() {}\n");
    let findings = run_root(&root);
    assert_eq!(
        pins(&findings),
        [("failpoint-registry", "tests/tests/fault_injection.rs", 1)]
    );
    assert!(findings[0].message.contains("store/publish"));
    assert!(findings[0].message.contains("dead site"));

    std::fs::remove_dir_all(&root).unwrap();
}

/// The real workspace must lint clean — the exact bar the CI
/// `static-analysis` gate holds, so a violation fails `cargo test` locally
/// before it ever reaches CI.
#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    assert!(root.join("Cargo.toml").exists(), "bad workspace root");
    let findings = run_root(root);
    assert!(
        findings.is_empty(),
        "workspace must lint clean; findings:\n{}",
        findings
            .iter()
            .map(|f| format!("  {}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
