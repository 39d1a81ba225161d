//! Error types shared by the graph substrate.

use std::fmt;

/// Errors produced by DAG-only operations.
#[derive(Debug)]
pub enum GraphError {
    /// An operation required a DAG but the graph contained a cycle.
    NotADag,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NotADag => write!(f, "operation requires an acyclic graph"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Convenience result alias for graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(GraphError::NotADag.to_string().contains("acyclic"));
    }
}
