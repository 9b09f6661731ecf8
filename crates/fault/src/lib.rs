//! # sam-fault — deterministic fault injection for durability paths
//!
//! Every path in this workspace that must survive a crash — the serve-side
//! job journal, persisted result CSVs, model checkpoints, training
//! snapshots — does its I/O through the [`FaultFs`] abstraction in this
//! crate instead of calling `std::fs` directly. In production the
//! implementation is [`RealFs`], a zero-overhead passthrough. In tests it
//! is [`FaultyFs`], which executes a deterministic, seedable
//! [`FaultPlan`]: *fail the Nth write with `ENOSPC`*, *tear this write
//! after k bytes*, and so on — the failure modes a full disk or a power
//! cut actually produce, reproduced bit-for-bit on every run.
//!
//! Orthogonally, [`crash_point`] marks the instants where a hard crash is
//! interesting (between a tmp write and its rename, between an fsync and
//! the commit record…). Each call site is a named point; the crash-matrix
//! test harness enumerates the registered names, re-runs the scenario in a
//! subprocess with `SAM_FAULT_CRASH=<name>` set, and the process exits with
//! [`CRASH_EXIT_CODE`] at exactly that point — a real `process::exit`, so
//! no destructor gets to "helpfully" flush buffers the way an unwinding
//! panic would. Production cost of an unarmed crash point is one relaxed
//! atomic load.
//!
//! [`crc32`] is the IEEE CRC-32 used by the journal's per-record framing,
//! the checkpoint files and, as the incremental [`Crc32`], gzip;
//! [`sweep_tmp_files`] removes `*.tmp` orphans a crash may have left
//! between tmp-write and rename.

#![warn(missing_docs)]

pub mod crash;
pub mod crc;
pub mod fs;
pub mod plan;
pub mod sweep;

pub use crash::{armed_crash_point, crash_point, CRASH_ENV, CRASH_EXIT_CODE};
pub use crc::{crc32, Crc32};
pub use fs::{tmp_sibling, write_atomic, FaultFile, FaultFs, FaultyFs, RealFs};
pub use plan::{FaultKind, FaultPlan, ScheduledFault};
pub use sweep::sweep_tmp_files;

use std::sync::Arc;

/// The production filesystem: a shared [`RealFs`] handle. Durability code
/// defaults to this when the caller does not inject a filesystem.
pub fn real_fs() -> Arc<dyn FaultFs> {
    Arc::new(RealFs)
}
