//! # sam-serve — concurrent model-serving subsystem
//!
//! Serves trained SAM models over HTTP for the two production workloads the
//! paper's pipeline produces: **cardinality estimation** (interactive, high
//! QPS) and **database generation** (long-running, asynchronous).
//!
//! Built entirely on `std` (TcpListener + threads + channels):
//!
//! * [`ModelRegistry`] — versioned, hot-swappable model store; reloads never
//!   disturb in-flight requests.
//! * Estimates — `POST /estimate` runs progressive sampling
//!   ([`sam_ar::Estimator::estimate_before`]) on the connection thread that
//!   parsed it, under the model version's one estimator; at most
//!   [`ServeConfig::queue_capacity`] run or wait at once (one more is 429),
//!   and the deadline ends the wait and the pass alike (504).
//! * [`JobRegistry`] — the one table of background jobs, generation and
//!   training alike: stage/progress polling, cooperative cancellation
//!   ([`sam_core::JobControl`]), one thread wrapper, one status document.
//! * [`Journal`] — append-only on-disk job log ([`ServeConfig::journal_dir`]):
//!   completed jobs survive a restart (status + export), interrupted jobs
//!   resume bit-for-bit from their recorded seed
//!   ([`Server::replay_journal`]).
//! * [`training`] — train-as-a-service: `POST /train` ingests a
//!   streamed labelled workload (gzip/deflate request bodies accepted),
//!   trains a candidate on a background thread with journaled + checkpointed
//!   epochs (a SIGKILL mid-train resumes bit-for-bit on restart), shadow-
//!   evaluates it against the incumbent on a held-out slice, and promotes
//!   the winner as a new registry version — with
//!   `POST /models/{name}/rollback` to walk back a bad promotion.
//! * [`QualityMonitor`] — shadow-samples a fraction of live estimates and
//!   scores them off the hot path against the exact cardinalities of the
//!   model's attached reference relations, keeping
//!   per-model-version sliding-window Q-Error stats behind `GET /quality`
//!   and streaming threshold breaches to a JSONL audit file.
//! * [`Server`] — hand-rolled HTTP/1.1 + JSON front end: **keep-alive
//!   connections by default** (pipelining honoured, idle timeout,
//!   per-connection request cap, negotiated `Connection` state echoed),
//!   streaming **chunked CSV/JSONL export** of finished jobs with bounded
//!   memory (≤ 64 KiB in flight per export), gzip/deflate content coding
//!   negotiated via `Accept-Encoding` ([`compress`] — a dependency-free
//!   DEFLATE), per-request deadlines, and graceful shutdown that finishes
//!   in-flight estimates and running jobs.
//!
//! Operator guide (endpoints, flags, metrics, degradation):
//! `docs/SERVING.md` at the repository root.
//!
//! [`ServeConfig::journal_dir`]: server::ServeConfig::journal_dir
//! [`ServeConfig::queue_capacity`]: server::ServeConfig::queue_capacity
//! [`Server::replay_journal`]: server::Server::replay_journal

#![warn(missing_docs)]
// The vendored `json!` macro expands recursively per key; the estimate
// response document overflows the default limit.
#![recursion_limit = "512"]

pub mod cache;
pub mod compress;
pub mod error;
pub mod http;
pub mod jobs;
pub mod journal;
pub mod metrics;
pub mod quality;
pub mod registry;
pub mod server;
pub mod sync;
pub mod training;

pub use cache::{EstimateCache, EstimateKey};
pub use compress::{gunzip, zlib_decode, Coding, Encoder};
pub use error::ServeError;
pub use jobs::{JobRecord, JobRegistry, JobState};
pub use journal::{
    Journal, ReplayEntry, ReplayState, ReplayedJob, ReplayedTrain, RollbackRecord, TrainReplayState,
};
pub use metrics::ServeMetrics;
pub use quality::{QualityConfig, QualityCounters, QualityMonitor, QualityTask};
pub use registry::{ModelEntry, ModelRegistry};
pub use server::{ReplaySummary, ServeConfig, Server};
pub use training::{split_workload, SplitWorkload, TrainSpec};
