//! **deterministic-iteration** — inside the incremental-maintenance
//! modules, iterating a `HashMap`/`HashSet` leaks the hasher's per-process
//! random order into whatever the loop builds. That is exactly the PR 4
//! stable-id bug: hybrid node ids handed out in `HashSet` iteration order
//! made identical update streams produce different stable class ids, which
//! the serving layer's snapshot differential then tripped over. The fix —
//! and the idiom this rule enforces — is to funnel hash iteration through a
//! sort (`collect` + `sort_unstable`, or a `BTreeMap`/`BTreeSet`) before
//! order can matter, or to carry an audited pragma arguing why order cannot
//! leak (order-insensitive set outputs, commutative folds).
//!
//! The rule is scoped to the maintenance modules ([`in_scope`]) because
//! that is where iteration order feeds stable ids; elsewhere hash iteration
//! is routine and harmless.
//!
//! Scheduling order is the other way nondeterminism reaches stable ids —
//! and which shard a failure names — so the same rule keeps
//! `std::thread::{scope, spawn}` out of the kernel crates and the serving
//! crate ([`THREADLESS_CRATES`]): compression, maintenance and publication
//! run on the writer's thread, one loop per kernel and one staging loop
//! per store, with nothing to keep bit-identical to them. A store's
//! `threads` shards bulk reads only; `qpgc_serve`'s `bulk.rs` spawns them
//! under a justified pragma.

use std::collections::BTreeSet;

use crate::engine::{is_ident, is_punct, matching_brace, SourceFile};
use crate::lexer::{Kind, Token};
use crate::Finding;

/// Rule id.
pub const RULE: &str = "deterministic-iteration";

/// The incremental-maintenance modules whose iteration order feeds stable
/// class ids: the shared skeleton (class table, cone walks, the cut into
/// units, the hybrid-graph regroup, the splice), the closure regroup (the
/// order of the groups it returns is the order ids are handed out in,
/// exactly as hybrid node order is) and the two maintainers instantiating
/// the skeleton.
const SCOPE_SUFFIXES: &[&str] = &[
    "graph/src/quotient.rs",
    "reachability/src/closure.rs",
    "reachability/src/incremental.rs",
    "pattern/src/incremental.rs",
];

/// True iff the rule audits this file.
pub fn in_scope(rel: &str) -> bool {
    SCOPE_SUFFIXES.iter().any(|s| rel.ends_with(s))
}

/// The crates whose code computes partitions and stable ids, and the one
/// that stages and publishes them: no worker threads in their sources.
const THREADLESS_CRATES: &[&str] = &[
    "crates/graph/src/",
    "crates/reachability/src/",
    "crates/pattern/src/",
    "crates/core/src/",
    "crates/serve/src/",
];

/// Iteration methods that surface hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// An identifier starting with one of these within the statement chain
/// counts as funnelling through a sort.
const SORTED_MARKS: &[&str] = &["sort", "BTreeMap", "BTreeSet", "BinaryHeap"];

/// Flags worker threads in the kernel and serving crates and unsorted
/// hash-collection iteration in the maintenance modules.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let mut out = thread_sites(file);
    if in_scope(&file.rel) {
        out.extend(hash_iteration_sites(file));
    }
    out
}

/// `thread::scope` / `thread::spawn` — called by path or imported, alone or
/// in a `thread::{..}` group — anywhere in a kernel or serving crate's
/// sources.
fn thread_sites(file: &SourceFile) -> Vec<Finding> {
    if !THREADLESS_CRATES.iter().any(|c| file.rel.starts_with(c)) {
        return Vec::new();
    }
    let tokens = &file.lexed.tokens;
    let spawns = |i: usize| is_ident(tokens, i, "scope") || is_ident(tokens, i, "spawn");
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let path = is_ident(tokens, i, "thread")
            && is_punct(tokens, i + 1, ":")
            && is_punct(tokens, i + 2, ":");
        if !path {
            continue;
        }
        let named = if is_punct(tokens, i + 3, "{") {
            (i + 4..matching_brace(tokens, i + 3)).any(spawns)
        } else {
            spawns(i + 3)
        };
        if named {
            out.push(Finding::new(
                RULE,
                &file.rel,
                tokens[i].line,
                "worker thread in a kernel or serving crate: compression, maintenance and \
                 publication run on the writer's thread, so that stable ids and failures \
                 cannot depend on scheduling — only bulk reads may spawn, under a pragma",
            ));
        }
    }
    out
}

/// Unsorted hash-collection iteration (see the module docs).
fn hash_iteration_sites(file: &SourceFile) -> Vec<Finding> {
    let tokens = &file.lexed.tokens;
    let hash_names = hash_typed_names(tokens);
    let mut out = Vec::new();
    let mut flagged_lines = BTreeSet::new();

    for i in 0..tokens.len() {
        // Form 1: `<name>.iter()/.keys()/...` on a hash-typed name.
        let method_site = tokens[i].kind == Kind::Ident
            && hash_names.contains(&tokens[i].text)
            && is_punct(tokens, i + 1, ".")
            && ITER_METHODS.iter().any(|m| is_ident(tokens, i + 2, m))
            && is_punct(tokens, i + 3, "(");
        // Form 2: `for <pat> in [&[mut]] <name> {` — direct iteration.
        let direct_site = tokens[i].kind == Kind::Ident
            && hash_names.contains(&tokens[i].text)
            && is_punct(tokens, i + 1, "{")
            && in_for_header(tokens, i);
        if !(method_site || direct_site) {
            continue;
        }
        if has_sort_in_chain(tokens, i) {
            continue;
        }
        if flagged_lines.insert(tokens[i].line) {
            out.push(Finding::new(
                RULE,
                &file.rel,
                tokens[i].line,
                &format!(
                    "iteration over hash collection `{}` without a sort in the statement \
                     chain: hash order is random per process and leaks into stable ids \
                     (the PR 4 divergence) — collect + sort_unstable, use a BTree map/set, \
                     or add `// qpgc-lint: allow({RULE}) -- <why order cannot leak>`",
                    tokens[i].text
                ),
            ));
        }
    }
    out
}

/// Names declared with a `HashMap`/`HashSet` type or initialised from one:
/// `name: [&][mut] [std::collections::]Hash{Map,Set}<...>` (fields, lets,
/// params) and `name = Hash{Map,Set}::...` bindings.
fn hash_typed_names(tokens: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..tokens.len() {
        if !(is_ident(tokens, i, "HashMap") || is_ident(tokens, i, "HashSet")) {
            continue;
        }
        // Walk back over `&`, `mut`, lifetimes, and a `std::collections::`
        // path prefix to find `name :` or `name =`.
        let mut j = i;
        while j > 0 {
            let prev = &tokens[j - 1];
            let skip = matches!(prev.kind, Kind::Lifetime)
                || (prev.kind == Kind::Punct && (prev.text == "&" || prev.text == ":"))
                || (prev.kind == Kind::Ident
                    && matches!(prev.text.as_str(), "mut" | "std" | "collections" | "dyn"));
            if !skip {
                break;
            }
            j -= 1;
            // A `:` might be the `name :` introducer — check and stop there.
            if tokens[j].kind == Kind::Punct
                && tokens[j].text == ":"
                && j > 0
                && tokens[j - 1].kind == Kind::Ident
                && !matches!(tokens[j - 1].text.as_str(), "std" | "collections")
                && !is_punct(tokens, j.wrapping_sub(2), ":")
                && !is_punct(tokens, j + 1, ":")
            {
                names.insert(tokens[j - 1].text.clone());
                break;
            }
        }
        // `name = HashMap::new()` / `let [mut] name = HashSet::from_iter(..)`.
        if j >= 1 && is_punct(tokens, j - 1, "=") && j >= 2 && tokens[j - 2].kind == Kind::Ident {
            names.insert(tokens[j - 2].text.clone());
        }
    }
    names
}

/// True iff token `i` sits in a `for ... in ...` header: scanning backwards
/// within the current statement finds `in` preceded (eventually) by `for`.
fn in_for_header(tokens: &[Token], i: usize) -> bool {
    let mut saw_in = false;
    let mut j = i;
    while j > 0 {
        j -= 1;
        match (tokens[j].kind, tokens[j].text.as_str()) {
            (Kind::Ident, "in") => saw_in = true,
            (Kind::Ident, "for") => return saw_in,
            (Kind::Punct, ";") | (Kind::Punct, "{") | (Kind::Punct, "}") => return false,
            _ => {}
        }
    }
    false
}

/// True iff the statement containing token `i`, or the two source lines
/// after it, mentions a sorting construct ([`SORTED_MARKS`]). This is the
/// "statement chain" heuristic: it accepts both in-chain sorts
/// (`collect::<BTreeSet<_>>()`) and the workspace's collect-then-sort idiom
/// (`let mut v: Vec<_> = set.iter().collect(); v.sort_unstable();`).
fn has_sort_in_chain(tokens: &[Token], i: usize) -> bool {
    // Statement start: walk back to the previous `;`, `{`, or `}`.
    let mut s = i;
    while s > 0 {
        let t = &tokens[s - 1];
        if t.kind == Kind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            break;
        }
        s -= 1;
    }
    // Statement end: forward to the first `;` or block-opening `{` at
    // bracket depth 0 relative to the iteration site.
    let mut depth = 0i32;
    let mut end = i;
    for (j, t) in tokens.iter().enumerate().skip(i) {
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" | "{" if depth <= 0 => {
                    end = j;
                    break;
                }
                _ => {}
            }
        }
        end = j;
    }
    let window_end_line = tokens[end].line + 2;
    tokens[s..]
        .iter()
        .take_while(|t| t.line <= window_end_line)
        .any(|t| t.kind == Kind::Ident && SORTED_MARKS.iter().any(|m| t.text.starts_with(m)))
}
