//! The six enforced invariants, one module per rule. Each per-file rule
//! exposes `check(&SourceFile) -> Vec<Finding>`; the cross-file rules
//! (failpoint registry, dead surface) take the whole file set.

pub mod dead_surface;
pub mod determinism;
pub mod failpoints;
pub mod hygiene;
pub mod lock_hygiene;
pub mod timing;
