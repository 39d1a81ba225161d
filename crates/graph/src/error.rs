//! Error types shared by the graph substrate.

use std::fmt;

/// Errors produced by DAG-only operations and by reading graphs.
#[derive(Debug)]
pub enum GraphError {
    /// An operation required a DAG but the graph contained a cycle.
    NotADag,
    /// A parse error while reading the text edge-list format.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// An underlying I/O error.
    Io(std::io::Error),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NotADag => write!(f, "operation requires an acyclic graph"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// Convenience result alias for graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(GraphError::NotADag.to_string().contains("acyclic"));
        let p = GraphError::Parse {
            line: 4,
            message: "bad edge".into(),
        };
        assert!(p.to_string().contains("line 4"));
        let io = GraphError::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
    }

    #[test]
    fn io_error_has_source() {
        use std::error::Error;
        let io = GraphError::from(std::io::Error::other("x"));
        assert!(io.source().is_some());
        assert!(GraphError::NotADag.source().is_none());
    }
}
