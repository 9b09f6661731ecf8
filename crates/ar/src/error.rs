//! Error types for the AR-model layer.

use std::fmt;

/// Errors raised while building, training, or querying an AR model.
#[derive(Debug, Clone)]
pub enum ArError {
    /// A query referenced a table unknown to the model schema.
    UnknownTable(String),
    /// A query referenced an unknown column (table, column).
    UnknownColumn(String, String),
    /// An underlying storage/schema error.
    Storage(sam_storage::StorageError),
    /// The workload or configuration is unusable (message).
    Invalid(String),
    /// An I/O failure while persisting or restoring model state (message —
    /// the underlying `io::Error` is not `Clone`).
    Io(String),
    /// An estimate's deadline passed before its pass finished; the pass
    /// was abandoned.
    DeadlineExceeded,
}

impl fmt::Display for ArError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArError::UnknownTable(t) => write!(f, "unknown table in query: {t}"),
            ArError::UnknownColumn(t, c) => write!(f, "unknown column in query: {t}.{c}"),
            ArError::Storage(e) => write!(f, "storage error: {e}"),
            ArError::Invalid(m) => write!(f, "invalid input: {m}"),
            ArError::Io(m) => write!(f, "i/o error: {m}"),
            ArError::DeadlineExceeded => write!(f, "estimate deadline exceeded"),
        }
    }
}

impl std::error::Error for ArError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sam_storage::StorageError> for ArError {
    fn from(e: sam_storage::StorageError) -> Self {
        ArError::Storage(e)
    }
}

impl From<std::io::Error> for ArError {
    fn from(e: std::io::Error) -> Self {
        ArError::Io(e.to_string())
    }
}
