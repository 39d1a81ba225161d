//! **hygiene** — two structural conventions:
//!
//! 1. Every crate root (`lib.rs`) carries `#![forbid(unsafe_code)]`, so
//!    "no unsafe" stays a compiler-enforced property of the whole
//!    workspace rather than a habit.
//! 2. `dbg!` / `todo!` / `unimplemented!` never ship, and `println!` (raw
//!    stdout) stays out of library code — binaries, tests, and examples
//!    are the only places that own stdout (`eprintln!` is allowed).

use crate::engine::{is_ident, is_punct, SourceFile};
use crate::lexer::Kind;
use crate::Finding;

/// Rule id.
pub const RULE: &str = "hygiene";

/// Macros banned outside binaries, tests, and examples.
const BANNED: &[&str] = &["dbg", "todo", "unimplemented", "println"];

/// Checks crate-root attributes and banned-macro usage.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let tokens = &file.lexed.tokens;

    if file.rel.ends_with("lib.rs") && !has_forbid_unsafe(file) {
        out.push(Finding::new(
            RULE,
            &file.rel,
            1,
            "crate root lacks `#![forbid(unsafe_code)]` — every workspace crate \
             forbids unsafe at the root",
        ));
    }

    for i in 0..tokens.len() {
        if !(tokens[i].kind == Kind::Ident
            && BANNED.contains(&tokens[i].text.as_str())
            && is_punct(tokens, i + 1, "!"))
        {
            continue;
        }
        if allowed_context(file, i) {
            continue;
        }
        out.push(Finding::new(
            RULE,
            &file.rel,
            tokens[i].line,
            &format!(
                "`{}!` in library code: binaries, tests, and examples are the \
                 only allowed contexts (use eprintln!/a Result for the rest)",
                tokens[i].text
            ),
        ));
    }
    out
}

/// True iff the crate root carries `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(file: &SourceFile) -> bool {
    let tokens = &file.lexed.tokens;
    (0..tokens.len()).any(|i| {
        is_punct(tokens, i, "#")
            && is_punct(tokens, i + 1, "!")
            && is_punct(tokens, i + 2, "[")
            && is_ident(tokens, i + 3, "forbid")
            && is_punct(tokens, i + 4, "(")
            && is_ident(tokens, i + 5, "unsafe_code")
    })
}

/// Banned macros are fine in binary targets, test code (both
/// `tests/` trees and `#[cfg(test)]` modules), and examples.
fn allowed_context(file: &SourceFile, token_idx: usize) -> bool {
    let p = format!("/{}", file.rel);
    p.contains("/bin/")
        || p.contains("/tests/")
        || p.contains("/examples/")
        || p.ends_with("/main.rs")
        || p.ends_with("/build.rs")
        || file.in_test_region(token_idx)
}
