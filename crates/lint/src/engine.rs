//! The rule engine: file walking, pragma resolution, structural helpers
//! (function spans, `#[cfg(test)]` regions, statement boundaries), and the
//! top-level [`run_root`] entry point that the binary and the test suites
//! share.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Kind, Lexed, Token};
use crate::rules;
use crate::Finding;

/// Directory names the walker never descends into, shared by every rule:
/// vendored dependency stubs, build output, proptest failure persistence,
/// and the linter's own (deliberately violating) fixture corpus. Hidden
/// directories (`.git`, `.github`, ...) are skipped as well.
pub const EXCLUDED_DIRS: &[&str] = &["vendor", "target", "proptest-regressions", "fixtures"];

/// True iff the walker must skip a directory with this (file) name.
pub fn is_excluded_dir(name: &str) -> bool {
    name.starts_with('.') || EXCLUDED_DIRS.contains(&name)
}

/// Collects every `.rs` file under `root` (sorted, exclusions applied),
/// as `(relative-path-with-/-separators, absolute-path)` pairs.
pub fn walk_rust_files(root: &Path) -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    walk_into(root, root, &mut out);
    out.sort();
    out
}

fn walk_into(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if !is_excluded_dir(&name) {
                walk_into(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
}

/// One `// qpgc-lint: allow(<rule>) -- <justification>` pragma, resolved.
#[derive(Clone, Debug)]
pub struct Allow {
    /// Rule id the pragma suppresses.
    pub rule: String,
    /// The text after `--`; empty means the pragma is itself a finding.
    pub justification: String,
    /// 1-based line the pragma comment sits on.
    pub line: usize,
    /// Lines the pragma covers: the whole file when it appears before the
    /// first token, otherwise the statement starting at/under the pragma.
    pub covers: (usize, usize),
    /// Pragmas whose body did not parse as `allow(<rule>)`.
    pub malformed: bool,
}

/// A lexed source file plus the structural facts rules ask about.
pub struct SourceFile {
    /// Path relative to the linted root, `/`-separated.
    pub rel: String,
    /// Lexed token stream and pragma comments.
    pub lexed: Lexed,
    /// Resolved `allow` pragmas.
    pub allows: Vec<Allow>,
    /// Token-index spans of `#[cfg(test)] mod ... { ... }` regions.
    pub test_regions: Vec<(usize, usize)>,
    /// Token-index spans of `fn` bodies (headers included), innermost last.
    pub fn_spans: Vec<FnSpan>,
}

/// One function's span in the token stream.
#[derive(Clone, Copy, Debug)]
pub struct FnSpan {
    /// Index of the `fn` keyword token.
    pub start: usize,
    /// Index of the closing `}` of the body (or last token when unclosed).
    pub end: usize,
}

impl SourceFile {
    /// Lexes `text` into a file record for `rel`.
    pub fn parse(rel: &str, text: &str) -> SourceFile {
        let lexed = lexer::lex(text);
        let test_regions = find_test_regions(&lexed.tokens);
        let fn_spans = find_fn_spans(&lexed.tokens);
        let allows = resolve_allows(&lexed);
        SourceFile {
            rel: rel.to_string(),
            lexed,
            allows,
            test_regions,
            fn_spans,
        }
    }

    /// True iff token index `i` lies inside a `#[cfg(test)]` module.
    pub fn in_test_region(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| s <= i && i <= e)
    }

    /// The innermost function span containing token index `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<FnSpan> {
        self.fn_spans
            .iter()
            .filter(|f| f.start <= i && i <= f.end)
            .min_by_key(|f| f.end - f.start)
            .copied()
    }
}

/// Scans for `#[cfg(... test ...)]` followed (after any further attributes)
/// by `[pub[(..)]] mod <name> {` and records the token span of the braces.
fn find_test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(is_punct(tokens, i, "#") && is_punct(tokens, i + 1, "[")) {
            i += 1;
            continue;
        }
        // Find the closing `]` of this attribute and whether it is a
        // cfg(...) mentioning `test`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut saw_cfg = false;
        let mut saw_test = false;
        while j < tokens.len() {
            match tokens[j].kind {
                Kind::Punct if tokens[j].text == "[" => depth += 1,
                Kind::Punct if tokens[j].text == "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Kind::Ident if tokens[j].text == "cfg" => saw_cfg = true,
                Kind::Ident if tokens[j].text == "test" => saw_test = true,
                _ => {}
            }
            j += 1;
        }
        if !(saw_cfg && saw_test) {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then require `mod <name> {`.
        let mut k = j + 1;
        while is_punct(tokens, k, "#") && is_punct(tokens, k + 1, "[") {
            let mut d = 0usize;
            while k < tokens.len() {
                if is_punct(tokens, k, "[") {
                    d += 1;
                } else if is_punct(tokens, k, "]") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k += 1;
            }
            k += 1;
        }
        // A visibility (`pub`, `pub(crate)`) may precede `mod`.
        if is_ident(tokens, k, "pub") {
            k += 1;
            if is_punct(tokens, k, "(") {
                while k < tokens.len() && !is_punct(tokens, k, ")") {
                    k += 1;
                }
                k += 1;
            }
        }
        if is_ident(tokens, k, "mod") {
            // An out-of-line `mod <name>;` has no body in this file.
            let body = (k..tokens.len())
                .find(|&m| is_punct(tokens, m, "{") || is_punct(tokens, m, ";"))
                .filter(|&m| is_punct(tokens, m, "{"));
            if let Some(open) = body {
                let close = matching_brace(tokens, open);
                regions.push((i, close));
                i = open + 1;
                continue;
            }
        }
        i = j + 1;
    }
    regions
}

/// Scans for `fn` keywords and records each function's body span.
fn find_fn_spans(tokens: &[Token]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    for i in 0..tokens.len() {
        if !is_ident(tokens, i, "fn") {
            continue;
        }
        // Find the body `{`: the first `{` at angle/paren depth 0 that is
        // not preceded by `=` (to step over `-> impl Trait` oddities the
        // simple scan cannot see, a `;` before any `{` means a bodyless
        // trait/extern declaration).
        let mut j = i + 1;
        let mut paren = 0i32;
        let mut body = None;
        while j < tokens.len() {
            match (tokens[j].kind, tokens[j].text.as_str()) {
                (Kind::Punct, "(") | (Kind::Punct, "[") => paren += 1,
                (Kind::Punct, ")") | (Kind::Punct, "]") => paren -= 1,
                (Kind::Punct, ";") if paren == 0 => break,
                (Kind::Punct, "{") if paren == 0 => {
                    body = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(open) = body {
            spans.push(FnSpan {
                start: i,
                end: matching_brace(tokens, open),
            });
        }
    }
    spans
}

/// Index of the `}` matching the `{` at `open` (last token if unclosed).
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == Kind::Punct {
            if t.text == "{" {
                depth += 1;
            } else if t.text == "}" {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// True iff `tokens[i]` is the punctuation `p`.
pub fn is_punct(tokens: &[Token], i: usize, p: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == Kind::Punct && t.text == p)
}

/// True iff `tokens[i]` is the identifier `id`.
pub fn is_ident(tokens: &[Token], i: usize, id: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == Kind::Ident && t.text == id)
}

/// Resolves pragma comments into [`Allow`]s with coverage spans.
fn resolve_allows(lexed: &Lexed) -> Vec<Allow> {
    let first_code_line = lexed.tokens.first().map(|t| t.line).unwrap_or(usize::MAX);
    lexed
        .pragmas
        .iter()
        .map(|p| {
            let (rule, justification, malformed) = parse_pragma_body(&p.body);
            let covers = if p.line < first_code_line {
                (1, usize::MAX) // file-scoped: sits above all code
            } else {
                statement_coverage(&lexed.tokens, p.line)
            };
            Allow {
                rule,
                justification,
                line: p.line,
                covers,
                malformed,
            }
        })
        .collect()
}

/// Parses `allow(<rule>) -- <justification>` → (rule, justification, bad).
fn parse_pragma_body(body: &str) -> (String, String, bool) {
    let (head, justification) = match body.split_once("--") {
        Some((h, j)) => (h.trim(), j.trim().to_string()),
        None => (body.trim(), String::new()),
    };
    let rule = head
        .strip_prefix("allow(")
        .and_then(|r| r.strip_suffix(')'))
        .map(|r| r.trim().to_string());
    match rule {
        Some(r) if !r.is_empty() => (r, justification, false),
        _ => (String::new(), justification, true),
    }
}

/// Lines covered by a pragma at `line`: from the pragma through the end of
/// the statement that starts at the first token at/after it (a trailing
/// pragma covers the statement on its own line). The statement ends at the
/// first `;` at nesting depth 0 or the `{` opening a block — which is what
/// makes a pragma placed directly above a `for`-loop header cover every
/// finding anchored inside that header.
fn statement_coverage(tokens: &[Token], line: usize) -> (usize, usize) {
    let Some(start) = tokens.iter().position(|t| t.line >= line) else {
        return (line, line);
    };
    let mut depth = 0i32;
    for t in &tokens[start..] {
        match (t.kind, t.text.as_str()) {
            (Kind::Punct, "(") | (Kind::Punct, "[") => depth += 1,
            (Kind::Punct, ")") | (Kind::Punct, "]") => depth -= 1,
            (Kind::Punct, ";") if depth <= 0 => return (line, t.line),
            (Kind::Punct, "{") if depth <= 0 => return (line, t.line),
            _ => {}
        }
    }
    (line, tokens.last().map(|t| t.line).unwrap_or(line))
}

/// Every rule id the engine accepts in `allow(...)` pragmas.
pub const RULE_IDS: &[&str] = &[
    rules::failpoints::RULE,
    rules::timing::RULE,
    rules::dead_surface::RULE,
];

/// Rule id for pragma-hygiene diagnostics emitted by the engine itself.
pub const PRAGMA_RULE: &str = "pragma";

/// Lints the workspace rooted at `root` and returns the surviving findings,
/// sorted by `(file, line, rule)`. This is the single entry point: the
/// binary, the fixture tests, and the workspace self-check all call it.
pub fn run_root(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    for (rel, path) in walk_rust_files(root) {
        if let Ok(text) = std::fs::read_to_string(&path) {
            files.push(SourceFile::parse(&rel, &text));
        }
    }
    let mut raw: Vec<Finding> = files.iter().flat_map(rules::timing::check).collect();
    raw.extend(rules::failpoints::check(&files));
    raw.extend(rules::dead_surface::check(&files));

    apply_pragmas(&files, raw)
}

/// Drops findings covered by a justified pragma, then reports pragma
/// hygiene: malformed pragmas, unknown rule ids, missing justifications,
/// and pragmas that suppressed nothing (so stale allows cannot linger).
fn apply_pragmas(files: &[SourceFile], raw: Vec<Finding>) -> Vec<Finding> {
    let mut used: BTreeSet<(String, usize)> = BTreeSet::new();
    let mut out: Vec<Finding> = Vec::new();

    for finding in raw {
        let file = files.iter().find(|f| f.rel == finding.file);
        let suppressor = file.and_then(|f| {
            f.allows.iter().find(|a| {
                !a.malformed
                    && a.rule == finding.rule
                    && a.covers.0 <= finding.line
                    && finding.line <= a.covers.1
            })
        });
        match suppressor {
            Some(a) if !a.justification.is_empty() => {
                used.insert((finding.file.clone(), a.line));
            }
            Some(a) => {
                // Unjustified pragma: the finding stands AND the pragma is
                // flagged below; mark used so it is not double-reported.
                used.insert((finding.file.clone(), a.line));
                out.push(finding);
            }
            None => out.push(finding),
        }
    }

    for f in files {
        for a in &f.allows {
            if a.malformed {
                out.push(Finding::new(
                    PRAGMA_RULE,
                    &f.rel,
                    a.line,
                    "malformed pragma: expected `qpgc-lint: allow(<rule>) -- <justification>`",
                ));
            } else if !RULE_IDS.contains(&a.rule.as_str()) {
                out.push(Finding::new(
                    PRAGMA_RULE,
                    &f.rel,
                    a.line,
                    &format!(
                        "pragma names unknown rule `{}` (known: {})",
                        a.rule,
                        RULE_IDS.join(", ")
                    ),
                ));
            } else if a.justification.is_empty() {
                out.push(Finding::new(
                    PRAGMA_RULE,
                    &f.rel,
                    a.line,
                    &format!(
                        "pragma for `{}` carries no justification: write `-- <why this is sound>`",
                        a.rule
                    ),
                ));
            } else if !used.contains(&(f.rel.clone(), a.line)) {
                out.push(Finding::new(
                    PRAGMA_RULE,
                    &f.rel,
                    a.line,
                    &format!(
                        "unused pragma: no `{}` finding here to suppress — delete it",
                        a.rule
                    ),
                ));
            }
        }
    }

    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excluded_dirs_cover_the_shared_list_and_hidden_dirs() {
        for name in [
            "vendor",
            "target",
            "proptest-regressions",
            "fixtures",
            ".git",
            ".github",
        ] {
            assert!(is_excluded_dir(name), "{name} must be excluded");
        }
        for name in ["crates", "tests", "src", "examples"] {
            assert!(!is_excluded_dir(name), "{name} must be walked");
        }
    }

    #[test]
    fn walker_skips_excluded_trees() {
        let root = std::env::temp_dir().join(format!("qpgc_lint_walk_{}", std::process::id()));
        let mk = |rel: &str| {
            let p = root.join(rel);
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(p, "fn x() {}\n").unwrap();
        };
        mk("crates/a/src/lib.rs");
        mk("vendor/rand/src/lib.rs");
        mk("target/debug/build.rs");
        mk("crates/a/proptest-regressions/regress.rs");
        mk("crates/lint/fixtures/bad.rs");
        let rels: Vec<String> = walk_rust_files(&root).into_iter().map(|(r, _)| r).collect();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(rels, ["crates/a/src/lib.rs"]);
    }

    #[test]
    fn pragma_bodies_parse_and_malform() {
        let (rule, just, bad) = parse_pragma_body("allow(timing-gate) -- demo");
        assert_eq!(
            (rule.as_str(), just.as_str(), bad),
            ("timing-gate", "demo", false)
        );
        let (_, _, bad) = parse_pragma_body("allowed(timing-gate)");
        assert!(bad);
        let (rule, just, bad) = parse_pragma_body("allow(dead-surface)");
        assert_eq!(
            (rule.as_str(), just.as_str(), bad),
            ("dead-surface", "", false)
        );
    }

    #[test]
    fn test_regions_and_fn_spans_are_found() {
        let src = "fn a() { let x = 1; }\n#[cfg(test)]\nmod tests {\n fn b() {}\n}\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.fn_spans.len(), 2);
        assert_eq!(f.test_regions.len(), 1);
        // Token for `b` lies inside the test region; `a`'s does not.
        let b_idx = f.lexed.tokens.iter().position(|t| t.text == "b").unwrap();
        let a_idx = f.lexed.tokens.iter().position(|t| t.text == "a").unwrap();
        assert!(f.in_test_region(b_idx));
        assert!(!f.in_test_region(a_idx));
    }

    #[test]
    fn test_regions_allow_visibility_and_skip_out_of_line_mods() {
        let src = "#[cfg(test)]\nmod sim;\npub use m::{a};\n\
                   #[cfg(test)]\npub(crate) mod tests {\n fn b() {}\n}\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.test_regions.len(), 1);
        let a_idx = f.lexed.tokens.iter().position(|t| t.text == "a").unwrap();
        let b_idx = f.lexed.tokens.iter().position(|t| t.text == "b").unwrap();
        assert!(!f.in_test_region(a_idx));
        assert!(f.in_test_region(b_idx));
    }
}
