//! The five enforced invariants, one module per rule. Each per-file rule
//! exposes `check(&SourceFile) -> Vec<Finding>`; the cross-file rule
//! (failpoint registry) takes the whole file set.

pub mod determinism;
pub mod failpoints;
pub mod hygiene;
pub mod lock_hygiene;
pub mod timing;
