//! Serving-layer error type with HTTP status mapping.

use std::fmt;

/// Errors surfaced to HTTP clients (each maps to a status code) or to
/// embedding callers of the serving primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Malformed request (bad JSON, unparsable SQL, bad parameters) → 400.
    BadRequest(String),
    /// Unknown model, job, or route → 404.
    NotFound(String),
    /// The resource exists but is in the wrong state for the request
    /// (e.g. exporting a job that has not finished) → 409.
    Conflict(String),
    /// `queue_capacity` estimates are already admitted → 429 (backpressure).
    Overloaded,
    /// The request's deadline passed before its estimate finished → 504.
    DeadlineExceeded,
    /// The server is shutting down and no longer accepts work → 503.
    ShuttingDown,
    /// The shard is quiesced for a rebalance (`POST /admin/drain`) and
    /// rejects new generate/train work until resumed → 503.
    Draining,
    /// Internal failure (I/O, poisoned state) → 500.
    Internal(String),
}

impl ServeError {
    /// The HTTP status code this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest(_) => 400,
            ServeError::NotFound(_) => 404,
            ServeError::Conflict(_) => 409,
            ServeError::Overloaded => 429,
            ServeError::DeadlineExceeded => 504,
            ServeError::ShuttingDown => 503,
            ServeError::Draining => 503,
            ServeError::Internal(_) => 500,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::NotFound(m) => write!(f, "not found: {m}"),
            ServeError::Conflict(m) => write!(f, "conflict: {m}"),
            ServeError::Overloaded => write!(f, "estimate queue is full, retry later"),
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Draining => write!(f, "shard is draining for rebalance, retry shortly"),
            ServeError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_match_semantics() {
        assert_eq!(ServeError::BadRequest("x".into()).status(), 400);
        assert_eq!(ServeError::NotFound("x".into()).status(), 404);
        assert_eq!(ServeError::Conflict("x".into()).status(), 409);
        assert_eq!(ServeError::Overloaded.status(), 429);
        assert_eq!(ServeError::DeadlineExceeded.status(), 504);
        assert_eq!(ServeError::ShuttingDown.status(), 503);
        assert_eq!(ServeError::Draining.status(), 503);
        assert_eq!(ServeError::Internal("x".into()).status(), 500);
    }
}
