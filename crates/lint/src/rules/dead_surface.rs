//! **dead-surface** — the product ships nothing only tests call. A `pub`
//! fn, struct, enum, const or trait declared outside test modules under
//! `crates/*/src` is dead when its name appears in no other non-test token
//! of a caller: `crates/*/src`, the reproduction (`crates/bench`), the
//! benchmark package (`qpgc_benchmark/src`) or `examples/`. Integration
//! suites and test modules do not count as callers, and neither do doc
//! comments or `use` lines — a re-export is not a call.
//!
//! A `pub fn` is named only where a mention is call-shaped: followed by
//! `(` or `::<`, or a path segment after `::` — so a field or a local that
//! shares its name keeps nothing alive, and neither does another `fn` of
//! that name being defined. The match is still by name, so a dead method
//! that shares its name with a live one goes unflagged; the rule never
//! flags an item that has a caller.
//!
//! An oracle — a reference implementation a test compares against — stays
//! where it is under `// qpgc-lint: allow(dead-surface) -- oracle of
//! <test>`.

use std::collections::BTreeMap;

use crate::engine::{is_ident, is_punct, SourceFile};
use crate::lexer::{Kind, Token};
use crate::Finding;

/// Rule id.
pub const RULE: &str = "dead-surface";

/// The item keywords audited after `pub`.
const ITEMS: &[&str] = &["fn", "struct", "enum", "const", "trait"];

/// True iff `rel` is product code: `crates/<name>/src/...`.
fn is_product(rel: &str) -> bool {
    let mut parts = rel.split('/');
    parts.next() == Some("crates") && parts.next().is_some() && parts.next() == Some("src")
}

/// True iff `rel` may call into the product.
fn is_caller(rel: &str) -> bool {
    is_product(rel)
        || rel.starts_with("crates/bench/")
        || rel.starts_with("qpgc_benchmark/src/")
        || rel.starts_with("examples/")
}

/// Flags `pub` items of the product that no caller names.
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut mentions: BTreeMap<&str, usize> = BTreeMap::new();
    let mut calls: BTreeMap<&str, usize> = BTreeMap::new();
    for f in files.iter().filter(|f| is_caller(&f.rel)) {
        let tokens = &f.lexed.tokens;
        let mut in_use = false;
        for (i, t) in tokens.iter().enumerate() {
            if is_ident(tokens, i, "use") {
                in_use = true;
            } else if in_use {
                in_use = !is_punct(tokens, i, ";");
            } else if t.kind == Kind::Ident && !f.in_test_region(i) {
                *mentions.entry(t.text.as_str()).or_default() += 1;
                if is_call(tokens, i) {
                    *calls.entry(t.text.as_str()).or_default() += 1;
                }
            }
        }
    }

    let mut out = Vec::new();
    for f in files.iter().filter(|f| is_product(&f.rel)) {
        for (kind, i) in pub_items(f) {
            let name = &f.lexed.tokens[i];
            // A fn's own definition is not a call; any other item's name is
            // mentioned once where it is declared.
            let (named, declared) = match kind {
                "fn" => (&calls, 0),
                _ => (&mentions, 1),
            };
            if named.get(name.text.as_str()).copied().unwrap_or(0) <= declared {
                out.push(Finding::new(
                    RULE,
                    &f.rel,
                    name.line,
                    &format!(
                        "`pub {kind} {}` has no caller outside tests: delete it, or mark a \
                         test oracle with `// qpgc-lint: allow({RULE}) -- oracle of <test>`",
                        name.text
                    ),
                ));
            }
        }
    }
    out
}

/// Whether the name at `i` is mentioned the way a fn is used: called
/// (`name(`, `name::<`) or named as a path segment (`Type::name`), and not
/// defined (`fn name`).
fn is_call(tokens: &[Token], i: usize) -> bool {
    let after_path = i >= 2 && is_punct(tokens, i - 2, ":") && is_punct(tokens, i - 1, ":");
    let turbofish = (1..=2).all(|k| is_punct(tokens, i + k, ":")) && is_punct(tokens, i + 3, "<");
    let defined = i >= 1 && is_ident(tokens, i - 1, "fn");
    !defined && (is_punct(tokens, i + 1, "(") || turbofish || after_path)
}

/// `(keyword, name token index)` of every non-test `pub <item> <name>` in
/// `file`. `pub(crate)` items are rustc's to police; qualified fns
/// (`pub const fn`, `pub unsafe fn`) are not audited — the workspace has
/// none.
fn pub_items(file: &SourceFile) -> Vec<(&'static str, usize)> {
    let tokens = &file.lexed.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !is_ident(tokens, i, "pub") || file.in_test_region(i) {
            continue;
        }
        let Some(kind) = ITEMS.iter().find(|kw| is_ident(tokens, i + 1, kw)) else {
            continue;
        };
        if tokens.get(i + 2).is_some_and(|t| t.kind == Kind::Ident) {
            out.push((*kind, i + 2));
        }
    }
    out
}
