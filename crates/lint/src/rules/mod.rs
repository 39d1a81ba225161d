//! The three invariants no compiler lint expresses, one module per rule.
//! The per-file rule (timing gate) exposes `check(&SourceFile) ->
//! Vec<Finding>`; the cross-file rules (failpoint registry, dead surface)
//! take the whole file set.

pub mod dead_surface;
pub mod failpoints;
pub mod timing;
