//! Fixture corpus tests: every rule is pinned by at least one positive
//! (violating) and one negative (clean) miniature workspace under
//! `crates/lint/fixtures/`, with exact diagnostics — rule id, relative
//! file, line — asserted. A drift meta-test injects a fake `fail_point!`
//! site into a temp tree and checks both registry directions, and a final
//! self-check runs the linter over the real workspace and requires it
//! clean (the same bar the CI `static-analysis` gate enforces). The
//! invariants the toolchain checks instead are pinned by
//! `workspace_lint_table_covers_every_member`: clippy cannot report a lint
//! table that a crate never opted into.

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
fn dead_surface_flags_a_pub_fn_only_tests_call() {
    // Neither the test module, the integration suite nor the example's
    // re-export is a caller; the example's call keeps `served` live. The
    // example reads the field `limit`, which calls no fn of that name.
    let findings = run_root(&fixture_root("dead/bad"));
    assert_eq!(
        pins(&findings),
        [
            ("dead-surface", "crates/x/src/lib.rs", 7),
            ("dead-surface", "crates/x/src/lib.rs", 12),
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
            ("pragma", "crates/x/src/util.rs", 2),      // no justification
            ("timing-gate", "crates/x/src/util.rs", 3), // finding stands
            ("pragma", "crates/x/src/util.rs", 4),      // unknown rule id
            ("pragma", "crates/x/src/util.rs", 6),      // suppresses nothing
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

fn workspace_root() -> &'static Path {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    assert!(root.join("Cargo.toml").exists(), "bad workspace root");
    root
}

/// The real workspace must lint clean — the exact bar the CI
/// `static-analysis` gate holds, so a violation fails `cargo test` locally
/// before it ever reaches CI.
#[test]
fn workspace_lints_clean() {
    let findings = run_root(workspace_root());
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

/// The trimmed lines of the TOML table `header`, up to the next header.
fn table<'a>(toml: &'a str, header: &str) -> Vec<&'a str> {
    toml.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .map(str::trim)
        .collect()
}

/// The text of the multi-line TOML array `key = [ ... ]`.
fn array<'a>(toml: &'a str, key: &str) -> &'a str {
    let start = toml
        .find(&format!("{key} = ["))
        .unwrap_or_else(|| panic!("no `{key}` array"));
    let body = &toml[start..];
    &body[..body.find("\n]").unwrap_or(body.len())]
}

/// The toolchain enforces unsafe-freedom, debug-macro and stdout hygiene,
/// poison recovery and the thread and hash-collection bans only where the
/// configuration reaches: every member outside `vendor/` opts into the
/// workspace lint table, the table denies the lints, `clippy.toml` names
/// what they ban, and the four modules that feed stable class ids deny hash
/// collections. A crate added later without `[lints] workspace = true`
/// fails here rather than escaping every one of those checks.
#[test]
fn workspace_lint_table_covers_every_member() {
    let root = workspace_root();
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    let manifest = read("Cargo.toml");
    let clippy = read("clippy.toml");
    let mut missing = Vec::new();

    let members: Vec<&str> = array(&manifest, "members")
        .split('"')
        .skip(1)
        .step_by(2)
        .collect();
    assert!(members.contains(&"crates/serve"), "members: {members:?}");
    for member in members.iter().filter(|m| !m.starts_with("vendor/")) {
        if !table(&read(&format!("{member}/Cargo.toml")), "[lints]").contains(&"workspace = true") {
            missing.push(format!("{member}/Cargo.toml: `[lints] workspace = true`"));
        }
    }
    if !table(&manifest, "[workspace.lints.rust]").contains(&"unsafe_code = \"forbid\"") {
        missing.push("Cargo.toml: `unsafe_code = \"forbid\"`".to_string());
    }
    let clippy_lints = table(&manifest, "[workspace.lints.clippy]");
    for lint in [
        "dbg_macro",
        "todo",
        "unimplemented",
        "print_stdout",
        "disallowed_methods",
    ] {
        if !clippy_lints.contains(&format!("{lint} = \"deny\"").as_str()) {
            missing.push(format!("Cargo.toml: `{lint} = \"deny\"`"));
        }
    }
    let banned = [
        ("disallowed-methods", "std::sync::Mutex::lock"),
        ("disallowed-methods", "std::sync::RwLock::read"),
        ("disallowed-methods", "std::sync::RwLock::write"),
        ("disallowed-methods", "std::thread::spawn"),
        ("disallowed-methods", "std::thread::scope"),
        ("disallowed-types", "std::collections::HashMap"),
        ("disallowed-types", "std::collections::HashSet"),
    ];
    for (key, path) in banned {
        if !array(&clippy, key).contains(&format!("path = \"{path}\"")) {
            missing.push(format!("clippy.toml: `{path}` in `{key}`"));
        }
    }
    for module in [
        "crates/graph/src/quotient.rs",
        "crates/reachability/src/closure.rs",
        "crates/reachability/src/incremental.rs",
        "crates/pattern/src/incremental.rs",
    ] {
        if !read(module).contains("\n#![deny(clippy::disallowed_types)]\n") {
            missing.push(format!("{module}: `#![deny(clippy::disallowed_types)]`"));
        }
    }
    assert!(
        missing.is_empty(),
        "the lint configuration lost:\n  {}",
        missing.join("\n  ")
    );
}
