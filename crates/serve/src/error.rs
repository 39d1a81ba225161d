//! Typed failure surface of the serving stores.
//!
//! Every fallible store operation returns a [`StoreError`] instead of
//! panicking or crashing the process, and the apply pipeline upholds one
//! invariant across all of them: **an error leaves the served cut
//! bit-identical to before** — the watermark untouched, every published
//! `Arc` still valid, the next clean batch free to proceed.

use std::fmt;

use qpgc_graph::BatchError;

/// Why reading or writing an [`UpdateLog`](crate::wal::UpdateLog) or a
/// snapshot file ([`crate::persist`]) failed.
#[derive(Debug)]
pub enum LogError {
    /// An underlying I/O error (open, read, write, sync, truncate).
    Io(std::io::Error),
    /// Real corruption: a whole record failed its CRC32 check, a record
    /// does not decode or is of a kind the file does not hold, or a
    /// snapshot file's record runs past the end (it is written whole, so
    /// unlike the torn tail a crash mid-append leaves in a log, which
    /// replay silently drops, its truncation is corruption). A boot also
    /// reports a snapshot file that is not the log's cut this way.
    Corrupt {
        /// Byte offset of the offending record's length prefix (0 where no
        /// one record is at fault).
        offset: u64,
        /// Which record failed, and how.
        detail: String,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "i/o error: {e}"),
            LogError::Corrupt { offset, detail } => {
                write!(f, "corrupt file at offset {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for LogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LogError::Io(e) => Some(e),
            LogError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> Self {
        LogError::Io(e)
    }
}

/// Why a store operation was rejected or aborted.
///
/// Variants split into *rejections* (checked before any state is touched:
/// [`StoreError::InvalidBatch`], [`StoreError::PatternsUnsupported`]) and
/// *aborts* (a fault mid-pipeline, unwound and rolled back:
/// [`StoreError::WriterFailed`], [`StoreError::ShardFailed`],
/// [`StoreError::Log`]). Both leave the served cut untouched.
#[derive(Debug)]
pub enum StoreError {
    /// The batch failed validation ([`UpdateBatch::validate`] /
    /// [`UpdateBatch::validate_labels`]); nothing was applied anywhere.
    ///
    /// [`UpdateBatch::validate`]: qpgc_graph::UpdateBatch::validate
    /// [`UpdateBatch::validate_labels`]: qpgc_graph::UpdateBatch::validate_labels
    InvalidBatch(BatchError),
    /// Pattern serving was requested on a backend that cannot provide it
    /// (a sharded store: bisimulation does not decompose over a node
    /// partition).
    PatternsUnsupported,
    /// The single-store writer panicked mid-application. The panic was
    /// caught, the writer state rolled back to the pre-batch graph, and
    /// the served snapshot left untouched.
    WriterFailed {
        /// The panic payload, stringified.
        cause: String,
    },
    /// Staging one shard of a sharded application panicked (or the
    /// boundary rebuild did). The shard index is the first failure in
    /// shard order: every shard staged before it was discarded, none after
    /// it was touched, the router's cross-edge set is as it was, and the
    /// old cut is still served.
    ShardFailed {
        /// Index of the failing shard, or `usize::MAX` when the fault hit
        /// the router itself (slicing, boundary rebuild, cut assembly, log
        /// append).
        shard: usize,
        /// The panic payload, stringified.
        cause: String,
    },
    /// Reading or writing the update log or a snapshot file failed. On
    /// the write path the staged application was discarded and the log
    /// truncated back to its last committed record.
    Log(LogError),
}

impl StoreError {
    /// The shard index of a [`StoreError::ShardFailed`] meaning "the
    /// router, not any shard" — slicing, boundary rebuild, cut assembly or
    /// the log append faulted.
    pub const ROUTER: usize = usize::MAX;
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::InvalidBatch(e) => write!(f, "invalid update batch: {e}"),
            StoreError::PatternsUnsupported => write!(
                f,
                "pattern serving is not supported on a sharded store \
                 (bisimulation does not decompose over a node partition)"
            ),
            StoreError::WriterFailed { cause } => {
                write!(f, "writer failed mid-apply (rolled back): {cause}")
            }
            StoreError::ShardFailed { shard, cause } if *shard == StoreError::ROUTER => {
                write!(f, "router failed mid-apply (rolled back): {cause}")
            }
            StoreError::ShardFailed { shard, cause } => {
                write!(f, "shard {shard} failed mid-apply (rolled back): {cause}")
            }
            StoreError::Log(e) => write!(f, "persistence failure: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::InvalidBatch(e) => Some(e),
            StoreError::Log(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BatchError> for StoreError {
    fn from(e: BatchError) -> Self {
        StoreError::InvalidBatch(e)
    }
}

impl From<LogError> for StoreError {
    fn from(e: LogError) -> Self {
        StoreError::Log(e)
    }
}

/// Stringifies a caught panic payload for a [`StoreError`] cause field.
pub(crate) fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpgc_graph::NodeId;

    #[test]
    fn display_messages() {
        let e = StoreError::InvalidBatch(BatchError::NodeOutOfBounds {
            node: NodeId(9),
            node_count: 3,
        });
        assert!(e.to_string().contains("invalid update batch"));
        assert!(StoreError::PatternsUnsupported
            .to_string()
            .contains("sharded"));
        let w = StoreError::WriterFailed {
            cause: "boom".into(),
        };
        assert!(w.to_string().contains("rolled back"));
        let s = StoreError::ShardFailed {
            shard: 2,
            cause: "boom".into(),
        };
        assert!(s.to_string().contains("shard 2"));
        let r = StoreError::ShardFailed {
            shard: StoreError::ROUTER,
            cause: "boom".into(),
        };
        assert!(r.to_string().contains("router"));
        let l = StoreError::Log(LogError::Corrupt {
            offset: 42,
            detail: "bad crc".into(),
        });
        assert!(l.to_string().contains("offset 42"));
    }

    #[test]
    fn panic_cause_extracts_strings() {
        assert_eq!(panic_cause(Box::new("a str")), "a str");
        assert_eq!(panic_cause(Box::new(String::from("a string"))), "a string");
        assert_eq!(panic_cause(Box::new(17u32)), "non-string panic payload");
    }
}
