//! # qpgc_lint — the workspace invariant linter
//!
//! The paper's guarantee is query equivalence between `G` and its
//! compression `Gr`, and the repo proves it *dynamically* through the
//! differential suites. The static invariants that keep those suites
//! trustworthy are checked where the toolchain can check them: the
//! workspace lint table in the root `Cargo.toml` and `clippy.toml` forbid
//! unsafe code, keep `dbg!`/`todo!`/`unimplemented!`/`println!` out of
//! library code, route every lock acquisition through the poison-recovering
//! helpers, keep worker threads out of everything but bulk reads, and deny
//! hash collections in the modules whose iteration order feeds stable
//! class ids.
//!
//! `qpgc_lint` checks the rest — the invariants no compiler lint
//! expresses, because each is a fact about the whole workspace or about a
//! test convention rather than about a path: a hand-rolled
//! comment/string/char/raw-string-aware Rust lexer (zero dependencies —
//! the build container has no crates.io access) feeding a rule engine with
//! per-statement and file-scoped
//! `// qpgc-lint: allow(<rule>) -- <justification>` pragmas.
//!
//! Run it with `cargo run -p qpgc_lint` (human output) or
//! `cargo run -p qpgc_lint -- --json` (machine output, uploaded as a CI
//! artifact by the `static-analysis` gate). Exit code 0 means clean.
//!
//! ## Rules
//!
//! | id | invariant |
//! |----|-----------|
//! | `failpoint-registry` | `fail_point!` sites and the fault-injection arm list agree bidirectionally |
//! | `timing-gate` | wall-clock assertions sit in functions that check `QPGC_TIMING_TESTS` |
//! | `dead-surface` | every `pub` item of `crates/*/src` has a caller outside tests, or is a test oracle under a pragma naming its test |
//!
//! Every pragma must carry a `-- justification`; pragmas that suppress
//! nothing are themselves findings, so allows cannot rot.

#![warn(missing_docs)]

pub mod engine;
pub mod lexer;
pub mod rules;

/// One diagnostic: a rule violation (or pragma-hygiene problem) at a line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`timing-gate`, `dead-surface`, ...).
    pub rule: &'static str,
    /// Path relative to the linted root, `/`-separated.
    pub file: String,
    /// 1-based line the finding anchors to.
    pub line: usize,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl Finding {
    /// Builds a finding.
    pub fn new(rule: &'static str, file: &str, line: usize, message: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message: message.to_string(),
        }
    }
}

/// Renders findings as the `--json` report (stable shape:
/// `{"findings": [{"rule", "file", "line", "message"}...], "count": N}`).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let comma = if i + 1 == findings.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{comma}\n",
            escape_json(f.rule),
            escape_json(&f.file),
            f.line,
            escape_json(&f.message)
        ));
    }
    out.push_str(&format!("  ],\n  \"count\": {}\n}}\n", findings.len()));
    out
}

/// Escapes a string for embedding in a JSON literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_well_formed_and_escaped() {
        let findings = vec![Finding::new("timing-gate", "a/b.rs", 7, "say \"hi\"\n")];
        let json = to_json(&findings);
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\\\"hi\\\"\\n"));
        assert!(to_json(&[]).contains("\"count\": 0"));
    }
}
