//! Append-only on-disk job journal: restart-safe generation serving.
//!
//! With `--journal-dir` (or [`ServeConfig::journal_dir`]) set, every
//! generation job writes its lifecycle to `journal.jsonl` — one CRC-framed
//! JSON record per line, append-only, flushed per event and fsynced on
//! terminal events:
//!
//! ```text
//! accepted → running → relation* → completed | failed | cancelled
//!                  ↑ resumed (after a restart replays an interrupted job)
//! ```
//!
//! Training jobs (`POST /train`) share the log and the id space with their
//! own vocabulary — `train_accepted → running → epoch* → evaluating →
//! promoted | rejected | failed | cancelled` — plus standalone `rollback`
//! records; see [`TrainReplayState`].
//!
//! Completed jobs additionally persist their generated relations as CSV
//! under `<dir>/jobs/<id>/<table>.csv` (written to a temp file, fsynced,
//! then renamed, so a crash mid-write never leaves a half table behind).
//!
//! ## Record framing and corruption handling
//!
//! Each line is `<8-hex-crc32> <json>`; the CRC covers the JSON text, so
//! any single-bit flip (and any burst up to 32 bits) is detected. Lines
//! beginning with `{` are the pre-framing legacy format and still replay.
//! [`Journal::open_with`] runs recovery before accepting writes:
//!
//! * a **torn tail** (a final line a crash cut short) is truncated away
//!   and counted on `journal_torn_tails`;
//! * **corrupt mid-log records** are moved to `quarantine.jsonl` and
//!   counted on `journal_corrupt_records` — never parsed, never silently
//!   dropped;
//! * orphaned `*.tmp` files from interrupted atomic writes are swept.
//!
//! ## Compaction
//!
//! [`Journal::compact`] folds the log into per-job final states, writes
//! them to `snapshot.jsonl` with the atomic tmp+fsync+rename protocol, and
//! truncates the log. [`Journal::replay`] folds the snapshot first, then
//! the log; the `accepted` fold never downgrades a snapshot-restored state,
//! so a crash anywhere inside compaction replays to the same jobs.
//!
//! [`Journal::replay`] folds everything into the **last known state per
//! job**. The server applies it at startup ([`Server::replay_journal`]):
//! completed jobs reload their CSVs and are re-servable (status *and*
//! streamed export); interrupted jobs (last event `accepted`/`running`/
//! `resumed`) are re-spawned with their recorded [`GenerationConfig`] — the
//! RNG seed lives in the config, so the regenerated database is bit-for-bit
//! the one the crashed run would have produced.
//!
//! All durability I/O goes through a [`sam_fault::FaultFs`], so every
//! failure mode above is exercised deterministically in tests.
//!
//! [`ServeConfig::journal_dir`]: crate::server::ServeConfig::journal_dir
//! [`Server::replay_journal`]: crate::server::Server::replay_journal

use crate::error::ServeError;
use crate::sync::Lock;
use sam_core::{GenerationConfig, JoinKeyStrategy};
use sam_fault::{crash_point, crc32, sweep_tmp_files, write_atomic, FaultFile, FaultFs};
use sam_obs::Counter;
use sam_storage::csv::write_csv_atomic;
use sam_storage::Database;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the event log inside the journal directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";
/// File name of the compaction snapshot (replayed before the log).
pub const SNAPSHOT_FILE: &str = "snapshot.jsonl";
/// File name corrupt records are moved to during recovery.
pub const QUARANTINE_FILE: &str = "quarantine.jsonl";
/// Advisory single-owner lock inside the journal directory, holding the
/// owning pid. A second process opening the same store fails fast instead
/// of interleaving appends; a lock left by a dead process (SIGKILL) is
/// taken over on the next open.
pub const LOCK_FILE: &str = "journal.lock";

/// Last known state of a **training job**, folded from the event log.
///
/// Training jobs journal their own lifecycle alongside generation jobs:
///
/// ```text
/// train_accepted → running → epoch* → evaluating → promoted | rejected
///                      ↑ resumed                 ↘ failed | cancelled
/// ```
///
/// `epoch` events are progress markers (the checkpoint under the job
/// directory is the authoritative resume state); `promoted` carries the
/// registry version the candidate was hot-swapped in as, and replaying it
/// re-applies the promotion so a restarted server serves the same model.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainReplayState {
    /// The run had not reached a verdict when the server stopped — re-spawn
    /// it; training auto-resumes bit-for-bit from the job's checkpoint.
    Interrupted,
    /// The candidate passed the promotion gate and was registered as
    /// `version`; `summary` holds the shadow-evaluation scores.
    Promoted {
        /// Registry version the candidate was promoted as.
        version: u64,
        /// Shadow-evaluation summary (gate scores, holdout size).
        summary: Value,
    },
    /// The candidate finished training but failed the promotion gate.
    Rejected(Value),
    /// Training errored with this message.
    Failed(String),
    /// Training was cancelled.
    Cancelled,
}

/// One training job reconstructed from the journal.
#[derive(Debug, Clone)]
pub struct ReplayedTrain {
    /// Job id as originally served (training and generation jobs share one
    /// id space).
    pub id: u64,
    /// Registry name of the model being retrained.
    pub model: String,
    /// The incumbent's version at submission — what `GET /jobs/{id}`
    /// reports as `model_version` unless the job was promoted. Logs written
    /// before the `train_accepted` event carried it fall back to a
    /// `rejected` summary's `incumbent_version`, else 0.
    pub version: u64,
    /// The full training spec recorded at accept time — opaque to the
    /// journal; the training subsystem serialises and re-parses it.
    pub spec: Value,
    /// Last state the journal records.
    pub state: TrainReplayState,
}

/// One model rollback reconstructed from the journal. Rollbacks are
/// journalled (under their own id in the shared job-id space) so replay
/// re-applies promotions *and* rollbacks in order, converging on the same
/// served version the crashed server had.
#[derive(Debug, Clone, PartialEq)]
pub struct RollbackRecord {
    /// Id the rollback was journalled under.
    pub id: u64,
    /// Model name that was rolled back.
    pub model: String,
}

/// One folded journal entry, as [`Journal::replay_full`] hands them back:
/// a generation job, a training job, or a rollback record, all sharing the
/// id space.
#[derive(Debug, Clone)]
pub enum ReplayEntry {
    /// A generation job (`accepted` …).
    Generate(ReplayedJob),
    /// A training job (`train_accepted` …).
    Train(ReplayedTrain),
    /// A standalone `rollback` record.
    Rollback(RollbackRecord),
}

/// Last known state of a job, folded from the event log.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayState {
    /// Accepted (and possibly running) when the server stopped — must be
    /// re-run from its recorded config.
    Interrupted,
    /// Reached `completed`; the summary document was recorded and the
    /// result CSVs should exist on disk.
    Completed(Value),
    /// Reached `failed` with this error message.
    Failed(String),
    /// Reached `cancelled`.
    Cancelled,
}

/// One job reconstructed from the journal.
#[derive(Debug, Clone)]
pub struct ReplayedJob {
    /// Job id as originally served.
    pub id: u64,
    /// Model name the job ran against.
    pub model: String,
    /// Model version at original submission (informational — replay binds
    /// to the currently registered version).
    pub version: u64,
    /// Full generation config, including the RNG seed.
    pub config: GenerationConfig,
    /// Last state the journal records.
    pub state: ReplayState,
}

fn strategy_str(s: JoinKeyStrategy) -> &'static str {
    match s {
        JoinKeyStrategy::GroupAndMerge => "group_and_merge",
        JoinKeyStrategy::PairwiseViews => "pairwise_views",
    }
}

fn parse_strategy(s: &str) -> Option<JoinKeyStrategy> {
    match s {
        "group_and_merge" => Some(JoinKeyStrategy::GroupAndMerge),
        "pairwise_views" => Some(JoinKeyStrategy::PairwiseViews),
        _ => None,
    }
}

/// The journal's observability counters (mirrored on `/metrics`).
#[derive(Debug, Clone)]
pub struct JournalCounters {
    /// Events appended.
    pub events: Arc<Counter>,
    /// Corrupt records quarantined during recovery or skipped during
    /// replay.
    pub corrupt_records: Arc<Counter>,
    /// Torn tails truncated during recovery.
    pub torn_tails: Arc<Counter>,
    /// Compactions performed.
    pub compactions: Arc<Counter>,
}

impl JournalCounters {
    /// Counters for a journal outside a server (CLI tools, tests): the
    /// given `events` counter plus process-global counters for the rest.
    pub fn standalone(events: Arc<Counter>) -> Self {
        JournalCounters {
            events,
            corrupt_records: sam_obs::counter("sam_journal_corrupt_records_total"),
            torn_tails: sam_obs::counter("sam_journal_torn_tails_total"),
            compactions: sam_obs::counter("sam_journal_compactions_total"),
        }
    }
}

/// Frame a JSON record for the log: CRC-32 of the text, space, the text.
fn frame(json: &str) -> String {
    format!("{:08x} {json}", crc32(json.as_bytes()))
}

/// Extract the JSON payload of a log line, if the line is intact:
/// CRC-framed lines must pass their checksum, legacy lines (starting `{`)
/// must simply be non-empty. Returns `None` for corrupt lines.
fn line_payload(line: &str) -> Option<&str> {
    if line.starts_with('{') {
        return Some(line);
    }
    let (crc_hex, body) = line.split_at_checked(8)?;
    let body = body.strip_prefix(' ')?;
    let expected = u32::from_str_radix(crc_hex, 16).ok()?;
    (crc32(body.as_bytes()) == expected).then_some(body)
}

/// Take the single-owner lock on a journal directory, or fail fast if a
/// *running* process already holds it. The lock holds the owner's pid;
/// liveness is checked against `/proc/<pid>` so a lock left behind by a
/// SIGKILLed worker never wedges the store — its replacement takes over on
/// the next open. A lock holding our own pid is also taken over (one
/// process may reopen its own store, e.g. across a close/open cycle in
/// tests).
fn acquire_lock(fs: &dyn FaultFs, dir: &Path) -> Result<(), ServeError> {
    let path = dir.join(LOCK_FILE);
    if fs.exists(&path) {
        let holder = fs
            .read(&path)
            .ok()
            .and_then(|bytes| String::from_utf8(bytes).ok())
            .and_then(|text| text.trim().parse::<u32>().ok());
        if let Some(pid) = holder {
            if pid != std::process::id() && pid_alive(pid) {
                return Err(ServeError::Internal(format!(
                    "journal dir {dir:?} is owned by running process {pid} \
                     ({LOCK_FILE}); refusing to open a second owner — stop \
                     that process first, or point this one at its own store"
                )));
            }
        }
    }
    let mut file = fs
        .create(&path)
        .map_err(|e| ServeError::Internal(format!("create journal lock {path:?}: {e}")))?;
    let _ = file.write_all(std::process::id().to_string().as_bytes());
    let _ = file.flush();
    Ok(())
}

/// Whether `pid` is a live process. Uses `/proc`; on platforms without it
/// every lock reads as stale, degrading to lock-takeover (never to a
/// wedged store).
fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

/// Append-only journal over one directory. Cheap to clone via [`Arc`];
/// all writers share one file handle behind a mutex.
pub struct Journal {
    dir: PathBuf,
    fs: Arc<dyn FaultFs>,
    file: Lock<Box<dyn FaultFile>>,
    counters: JournalCounters,
}

impl Drop for Journal {
    fn drop(&mut self) {
        // Graceful release of the single-owner lock — but only while it
        // still names this process: a replacement owner that took over
        // after our SIGKILL-then-zombie must not have its lock clobbered
        // by our late exit.
        let path = self.dir.join(LOCK_FILE);
        let ours = self
            .fs
            .read(&path)
            .ok()
            .and_then(|bytes| String::from_utf8(bytes).ok())
            .and_then(|text| text.trim().parse::<u32>().ok())
            == Some(std::process::id());
        if ours {
            let _ = self.fs.remove_file(&path);
        }
    }
}

impl Journal {
    /// Open a journal under `dir` on the real filesystem with standalone
    /// counters — see [`Journal::open_with`] for the full constructor.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] if the directory or log file cannot be
    /// created or opened for append.
    pub fn open(dir: &Path, events: Arc<Counter>) -> Result<Journal, ServeError> {
        Journal::open_with(
            dir,
            JournalCounters::standalone(events),
            sam_fault::real_fs(),
        )
    }

    /// Open (creating the directory and log file if needed) a journal under
    /// `dir`, doing all I/O through `fs`. Runs recovery first: sweeps
    /// orphaned `*.tmp` files, truncates a torn tail, and quarantines
    /// corrupt mid-log records into [`QUARANTINE_FILE`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] if recovery fails or the log file cannot be
    /// created or opened for append.
    pub fn open_with(
        dir: &Path,
        counters: JournalCounters,
        fs: Arc<dyn FaultFs>,
    ) -> Result<Journal, ServeError> {
        fs.create_dir_all(dir)
            .map_err(|e| ServeError::Internal(format!("create journal dir {dir:?}: {e}")))?;
        acquire_lock(&*fs, dir)?;
        sweep_tmp_files(&*fs, dir)
            .map_err(|e| ServeError::Internal(format!("sweep tmp files in {dir:?}: {e}")))?;
        recover(&*fs, dir, &counters)
            .map_err(|e| ServeError::Internal(format!("recover journal in {dir:?}: {e}")))?;
        let path = dir.join(JOURNAL_FILE);
        let file = fs
            .open_append(&path)
            .map_err(|e| ServeError::Internal(format!("open journal {path:?}: {e}")))?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            fs,
            file: Lock::new(file),
            counters,
        })
    }

    /// The directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Directory holding job `id`'s persisted result CSVs.
    pub fn job_dir(&self, id: u64) -> PathBuf {
        self.dir.join("jobs").join(id.to_string())
    }

    /// Current size of the event log in bytes (0 if missing).
    pub fn log_len(&self) -> u64 {
        self.fs.file_len(&self.dir.join(JOURNAL_FILE)).unwrap_or(0)
    }

    fn append(&self, event: &Value, sync: bool) {
        let _span = sam_obs::span!(
            "journal_append",
            event = event.get("event").and_then(Value::as_str).unwrap_or("?")
        );
        let json = serde_json::to_string(event).unwrap_or_else(|_| "{}".to_string());
        let line = format!("{}\n", frame(&json));
        let mut file = self.file.lock();
        crash_point("journal.append.pre_write");
        // Journal I/O is best-effort by design: a full disk must degrade
        // durability, not take serving down. The line goes out in ONE write
        // call, so an injected torn write models a real mid-line crash.
        let _ = file.write_all(line.as_bytes());
        let _ = file.flush();
        crash_point("journal.append.written");
        if sync {
            let _ = file.sync_data();
        }
        self.counters.events.inc();
    }

    /// Record acceptance of a new job (the event that makes it resumable).
    pub fn accepted(&self, id: u64, model: &str, version: u64, config: &GenerationConfig) {
        self.append(&accepted_event(id, model, version, config), true);
    }

    /// Record that a replayed interrupted job was re-spawned.
    pub fn resumed(&self, id: u64) {
        self.append(&json!({"event": "resumed", "job": id}), true);
    }

    /// Record that the job thread started generating.
    pub fn running(&self, id: u64) {
        self.append(&json!({"event": "running", "job": id}), false);
    }

    /// Record per-relation progress: `table` was generated with `rows` rows
    /// (and, when journaling results, persisted to disk).
    pub fn relation(&self, id: u64, table: &str, rows: usize) {
        self.append(
            &json!({"event": "relation", "job": id, "table": table, "rows": rows}),
            false,
        );
    }

    /// Record successful completion with the job's summary document.
    pub fn completed(&self, id: u64, summary: &Value) {
        self.append(
            &json!({"event": "completed", "job": id, "summary": summary}),
            true,
        );
    }

    /// Record failure.
    pub fn failed(&self, id: u64, error: &str) {
        self.append(&json!({"event": "failed", "job": id, "error": error}), true);
    }

    /// Record cancellation.
    pub fn cancelled(&self, id: u64) {
        self.append(&json!({"event": "cancelled", "job": id}), true);
    }

    /// Record acceptance of a training job with its full spec (the event
    /// that makes the run resumable — the spec plus the persisted workload
    /// and checkpoint under the job directory reconstruct it exactly).
    /// `version` is the incumbent's version at submission.
    pub fn train_accepted(&self, id: u64, model: &str, version: u64, spec: &Value) {
        self.append(&train_accepted_event(id, model, version, spec), true);
    }

    /// Record one finished training epoch (progress marker; the checkpoint
    /// is the authoritative resume state, so this is not fsynced).
    pub fn epoch(&self, id: u64, epoch: usize, total: usize, loss: f32) {
        self.append(
            &json!({"event": "epoch", "job": id, "epoch": epoch, "total": total,
                    "loss": loss as f64}),
            false,
        );
    }

    /// Record that training finished and shadow evaluation began.
    pub fn evaluating(&self, id: u64) {
        self.append(&json!({"event": "evaluating", "job": id}), false);
    }

    /// Record that the candidate passed the gate and was registered as
    /// `version`. Persist the candidate's weights *before* this commit
    /// event, so a replay that sees `promoted` can always re-load them.
    pub fn promoted(&self, id: u64, version: u64, summary: &Value) {
        self.append(
            &json!({"event": "promoted", "job": id, "version": version, "summary": summary}),
            true,
        );
    }

    /// Record that the candidate finished training but failed the gate.
    pub fn rejected(&self, id: u64, summary: &Value) {
        self.append(
            &json!({"event": "rejected", "job": id, "summary": summary}),
            true,
        );
    }

    /// Record an operator rollback of `model` (journalled under its own id
    /// so replay re-applies promotions and rollbacks in order).
    pub fn rollback(&self, id: u64, model: &str, from_version: u64, version: u64) {
        self.append(
            &json!({"event": "rollback", "job": id, "model": model,
                    "from_version": from_version, "version": version}),
            true,
        );
    }

    /// Persist every relation of `db` as CSV under [`job_dir`](Self::job_dir),
    /// emitting one `relation` event per table. Each file is written with
    /// the atomic tmp+fsync+rename protocol, so readers (and restarts)
    /// never observe half a table.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] on filesystem errors (the job itself still
    /// completes; the caller downgrades this to a log line).
    pub fn persist_results(&self, id: u64, db: &Database) -> Result<(), ServeError> {
        let mut span = sam_obs::span!("journal_persist", job = id);
        let dir = self.job_dir(id);
        self.fs
            .create_dir_all(&dir)
            .map_err(|e| ServeError::Internal(format!("create {dir:?}: {e}")))?;
        let mut bytes = 0u64;
        for table in db.tables() {
            let path = dir.join(format!("{}.csv", table.name()));
            write_csv_atomic(table, &path, &*self.fs)
                .map_err(|e| ServeError::Internal(format!("persist {path:?}: {e}")))?;
            bytes += self.fs.file_len(&path).unwrap_or(0);
            self.relation(id, table.name(), table.num_rows());
        }
        span.record("bytes", bytes);
        Ok(())
    }

    /// Fold the snapshot (if any) and the event log into the last known
    /// state of every **generation** job, sorted by id. Unknown events are
    /// skipped (forward compatibility over strictness — a newer server's
    /// extra events must not brick an older one's replay); corrupt lines
    /// are skipped and counted on `journal_corrupt_records`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] if the snapshot or log file exists but
    /// cannot be read.
    pub fn replay(&self) -> Result<Vec<ReplayedJob>, ServeError> {
        let generate = |entry| match entry {
            ReplayEntry::Generate(job) => Some(job),
            _ => None,
        };
        Ok(self
            .replay_full()?
            .into_iter()
            .filter_map(generate)
            .collect())
    }

    /// [`replay`](Self::replay) without the filter: every folded entry —
    /// generation jobs, training jobs and rollback records — in one list
    /// sorted by id, which is what [`Server::replay_journal`] applies.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] if the snapshot or log file exists but
    /// cannot be read.
    ///
    /// [`Server::replay_journal`]: crate::server::Server::replay_journal
    pub fn replay_full(&self) -> Result<Vec<ReplayEntry>, ServeError> {
        let mut entries: BTreeMap<u64, ReplayEntry> = BTreeMap::new();
        for name in [SNAPSHOT_FILE, JOURNAL_FILE] {
            let path = self.dir.join(name);
            if !self.fs.exists(&path) {
                continue;
            }
            let bytes = self
                .fs
                .read(&path)
                .map_err(|e| ServeError::Internal(format!("read journal {path:?}: {e}")))?;
            for raw in bytes.split(|&b| b == b'\n') {
                if raw.is_empty() {
                    continue;
                }
                let payload = std::str::from_utf8(raw).ok().and_then(line_payload);
                let Some(payload) = payload else {
                    self.counters.corrupt_records.inc();
                    continue;
                };
                let Ok(doc) = serde_json::parse_value(payload.trim()) else {
                    self.counters.corrupt_records.inc();
                    continue;
                };
                fold_event(&mut entries, &doc);
            }
        }
        Ok(entries.into_values().collect())
    }

    /// Compact the journal: fold the current state, write it to
    /// [`SNAPSHOT_FILE`] with the atomic commit protocol, then truncate the
    /// log. Replay after a crash at *any* point inside compaction yields
    /// the same jobs — the snapshot is replayed first and the `accepted`
    /// fold never downgrades a state it already restored. Returns the
    /// number of jobs in the snapshot.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] on filesystem errors; the journal stays
    /// replayable (the old snapshot+log remain authoritative).
    pub fn compact(&self) -> Result<usize, ServeError> {
        let mut span = sam_obs::span!("journal_compact");
        let entries = self.replay_full()?;
        let mut snapshot = String::new();
        let mut push = |event: Value| {
            snapshot.push_str(&frame(&serde_json::to_string(&event).unwrap_or_default()));
            snapshot.push('\n');
        };
        // Every entry survives as its accept record plus (when reached) its
        // terminal verdict.
        for entry in &entries {
            match entry {
                ReplayEntry::Generate(job) => {
                    let id = job.id;
                    push(accepted_event(id, &job.model, job.version, &job.config));
                    match &job.state {
                        ReplayState::Interrupted => {}
                        ReplayState::Completed(summary) => {
                            push(json!({"event": "completed", "job": id, "summary": summary}));
                        }
                        ReplayState::Failed(error) => {
                            push(json!({"event": "failed", "job": id, "error": error}));
                        }
                        ReplayState::Cancelled => push(json!({"event": "cancelled", "job": id})),
                    }
                }
                ReplayEntry::Train(t) => {
                    let id = t.id;
                    push(train_accepted_event(id, &t.model, t.version, &t.spec));
                    match &t.state {
                        TrainReplayState::Interrupted => {}
                        TrainReplayState::Promoted { version, summary } => push(json!({
                            "event": "promoted", "job": id,
                            "version": version, "summary": summary
                        })),
                        TrainReplayState::Rejected(summary) => {
                            push(json!({"event": "rejected", "job": id, "summary": summary}));
                        }
                        TrainReplayState::Failed(error) => {
                            push(json!({"event": "failed", "job": id, "error": error}));
                        }
                        TrainReplayState::Cancelled => {
                            push(json!({"event": "cancelled", "job": id}));
                        }
                    }
                }
                ReplayEntry::Rollback(r) => {
                    push(json!({"event": "rollback", "job": r.id, "model": r.model}));
                }
            }
        }
        let jobs = entries.len();
        crash_point("journal.compact.pre_snapshot");
        let snap_path = self.dir.join(SNAPSHOT_FILE);
        write_atomic(&*self.fs, &snap_path, snapshot.as_bytes())
            .map_err(|e| ServeError::Internal(format!("write snapshot {snap_path:?}: {e}")))?;
        crash_point("journal.compact.snapshotted");
        // Truncate under the writer lock so no append lands in between; the
        // append handle is O_APPEND, so later writes start at the new end.
        let log_path = self.dir.join(JOURNAL_FILE);
        {
            let _file = self.file.lock();
            self.fs
                .truncate(&log_path, 0)
                .map_err(|e| ServeError::Internal(format!("truncate {log_path:?}: {e}")))?;
        }
        crash_point("journal.compact.truncated");
        self.counters.compactions.inc();
        span.record("jobs", jobs);
        Ok(jobs)
    }
}

fn accepted_event(id: u64, model: &str, version: u64, config: &GenerationConfig) -> Value {
    json!({
        "event": "accepted",
        "job": id,
        "model": model,
        "version": version,
        "foj_samples": config.foj_samples,
        "batch": config.batch,
        "seed": config.seed,
        "strategy": strategy_str(config.strategy),
    })
}

fn train_accepted_event(id: u64, model: &str, version: u64, spec: &Value) -> Value {
    json!({"event": "train_accepted", "job": id, "model": model, "version": version, "spec": spec})
}

/// Apply one event document to the fold. `accepted`/`train_accepted`/
/// `rollback` only fill a vacant slot: after compaction the snapshot is
/// authoritative, and a stale accept left in a not-yet-truncated log must
/// not downgrade a terminal state back to `Interrupted`.
fn fold_event(entries: &mut BTreeMap<u64, ReplayEntry>, doc: &Value) {
    let (Some(event), Some(id)) = (
        doc.get("event").and_then(Value::as_str),
        doc.get("job").and_then(Value::as_u64),
    ) else {
        return;
    };
    match event {
        "accepted" => {
            let Some(model) = doc.get("model").and_then(Value::as_str) else {
                return;
            };
            let strategy = doc
                .get("strategy")
                .and_then(Value::as_str)
                .and_then(parse_strategy)
                .unwrap_or(JoinKeyStrategy::GroupAndMerge);
            entries.entry(id).or_insert_with(|| {
                ReplayEntry::Generate(ReplayedJob {
                    id,
                    model: model.to_string(),
                    version: doc.get("version").and_then(Value::as_u64).unwrap_or(0),
                    config: GenerationConfig {
                        foj_samples: doc.get("foj_samples").and_then(Value::as_u64).unwrap_or(0)
                            as usize,
                        batch: doc.get("batch").and_then(Value::as_u64).unwrap_or(1).max(1)
                            as usize,
                        seed: doc.get("seed").and_then(Value::as_u64).unwrap_or(0),
                        strategy,
                    },
                    state: ReplayState::Interrupted,
                })
            });
        }
        "train_accepted" => {
            let Some(model) = doc.get("model").and_then(Value::as_str) else {
                return;
            };
            entries.entry(id).or_insert_with(|| {
                ReplayEntry::Train(ReplayedTrain {
                    id,
                    model: model.to_string(),
                    version: doc.get("version").and_then(Value::as_u64).unwrap_or(0),
                    spec: doc.get("spec").cloned().unwrap_or(Value::Null),
                    state: TrainReplayState::Interrupted,
                })
            });
        }
        "rollback" => {
            let Some(model) = doc.get("model").and_then(Value::as_str) else {
                return;
            };
            entries.entry(id).or_insert_with(|| {
                ReplayEntry::Rollback(RollbackRecord {
                    id,
                    model: model.to_string(),
                })
            });
        }
        "running" | "resumed" | "relation" | "epoch" | "evaluating" => {
            // Still non-terminal; nothing to update — relation/epoch events
            // may precede a terminal record that never made it to disk.
        }
        "completed" => {
            if let Some(ReplayEntry::Generate(job)) = entries.get_mut(&id) {
                job.state =
                    ReplayState::Completed(doc.get("summary").cloned().unwrap_or(Value::Null));
            }
        }
        "promoted" => {
            if let Some(ReplayEntry::Train(train)) = entries.get_mut(&id) {
                train.state = TrainReplayState::Promoted {
                    version: doc.get("version").and_then(Value::as_u64).unwrap_or(0),
                    summary: doc.get("summary").cloned().unwrap_or(Value::Null),
                };
            }
        }
        "rejected" => {
            if let Some(ReplayEntry::Train(train)) = entries.get_mut(&id) {
                let summary = doc.get("summary").cloned().unwrap_or(Value::Null);
                if train.version == 0 {
                    // Accepted before `train_accepted` recorded the version.
                    train.version = summary
                        .get("incumbent_version")
                        .and_then(Value::as_u64)
                        .unwrap_or(0);
                }
                train.state = TrainReplayState::Rejected(summary);
            }
        }
        "failed" => {
            let error = doc
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unknown error")
                .to_string();
            match entries.get_mut(&id) {
                Some(ReplayEntry::Generate(job)) => job.state = ReplayState::Failed(error),
                Some(ReplayEntry::Train(train)) => train.state = TrainReplayState::Failed(error),
                _ => {}
            }
        }
        "cancelled" => match entries.get_mut(&id) {
            Some(ReplayEntry::Generate(job)) => job.state = ReplayState::Cancelled,
            Some(ReplayEntry::Train(train)) => train.state = TrainReplayState::Cancelled,
            _ => {}
        },
        _ => {}
    }
}

/// Pre-open recovery: classify every line of the log as intact, corrupt
/// (mid-log), or a torn tail. Torn tails are truncated away; corrupt lines
/// are moved to [`QUARANTINE_FILE`] and the remaining intact lines written
/// back atomically.
fn recover(fs: &dyn FaultFs, dir: &Path, counters: &JournalCounters) -> std::io::Result<()> {
    let path = dir.join(JOURNAL_FILE);
    if !fs.exists(&path) {
        return Ok(());
    }
    let bytes = fs.read(&path)?;
    let mut intact: Vec<&[u8]> = Vec::new();
    let mut quarantined: Vec<&[u8]> = Vec::new();
    let mut torn_tail = false;
    let mut good_prefix_len = 0usize; // bytes of leading intact lines
    let mut prefix_clean = true;
    let mut offset = 0usize;
    while offset < bytes.len() {
        let end = bytes[offset..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|p| offset + p);
        let (line, next, complete) = match end {
            Some(nl) => (&bytes[offset..nl], nl + 1, true),
            None => (&bytes[offset..], bytes.len(), false),
        };
        let valid = complete
            && std::str::from_utf8(line)
                .ok()
                .and_then(line_payload)
                .is_some();
        if valid {
            intact.push(line);
            if prefix_clean {
                good_prefix_len = next;
            }
        } else if line.is_empty() {
            // A bare blank line is harmless; keep position but drop it.
        } else if complete {
            quarantined.push(line);
            prefix_clean = false;
        } else {
            // The unterminated final line: a torn tail. Not quarantined as
            // corrupt — it is the expected residue of a crash mid-append.
            torn_tail = true;
        }
        offset = next;
    }
    if quarantined.is_empty() && !torn_tail && offset == bytes.len() && good_prefix_len == offset {
        return Ok(()); // clean log, nothing to do
    }
    if !quarantined.is_empty() {
        let mut q = fs.open_append(&dir.join(QUARANTINE_FILE))?;
        for line in &quarantined {
            q.write_all(line)?;
            q.write_all(b"\n")?;
            counters.corrupt_records.inc();
        }
        q.sync_data()?;
        crash_point("journal.recover.quarantined");
        // Rewrite the log with only the intact lines, atomically.
        let mut clean = Vec::with_capacity(bytes.len());
        for line in &intact {
            clean.extend_from_slice(line);
            clean.push(b'\n');
        }
        write_atomic(fs, &path, &clean)?;
        if torn_tail {
            counters.torn_tails.inc();
        }
    } else if torn_tail || good_prefix_len < bytes.len() {
        // Only a torn tail (possibly with trailing blank lines): truncate
        // to the last complete intact line.
        fs.truncate(&path, good_prefix_len as u64)?;
        if torn_tail {
            counters.torn_tails.inc();
        }
        crash_point("journal.recover.truncated");
    }
    Ok(())
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("dir", &self.dir).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sam_journal_unit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn temp_journal(tag: &str) -> Journal {
        Journal::open(&temp_dir(tag), sam_obs::counter("test_journal_events")).unwrap()
    }

    fn config(seed: u64) -> GenerationConfig {
        GenerationConfig {
            foj_samples: 123,
            batch: 7,
            seed,
            strategy: JoinKeyStrategy::GroupAndMerge,
        }
    }

    fn append_raw(journal: &Journal, bytes: &[u8]) {
        std::fs::OpenOptions::new()
            .append(true)
            .open(journal.dir().join(JOURNAL_FILE))
            .unwrap()
            .write_all(bytes)
            .unwrap();
    }

    #[test]
    fn replay_folds_to_last_state() {
        let journal = temp_journal("fold");
        journal.accepted(1, "m", 1, &config(9));
        journal.running(1);
        journal.completed(1, &json!({"tables": []}));
        journal.accepted(2, "m", 1, &config(10));
        journal.running(2);
        journal.accepted(3, "m", 2, &config(11));
        journal.running(3);
        journal.failed(3, "boom");
        journal.accepted(4, "m", 2, &config(12));
        journal.cancelled(4);

        let jobs = journal.replay().unwrap();
        assert_eq!(jobs.len(), 4);
        assert!(matches!(jobs[0].state, ReplayState::Completed(_)));
        assert_eq!(jobs[1].state, ReplayState::Interrupted);
        assert_eq!(jobs[1].config.seed, 10);
        assert_eq!(jobs[1].config.foj_samples, 123);
        assert_eq!(jobs[2].state, ReplayState::Failed("boom".into()));
        assert_eq!(jobs[3].state, ReplayState::Cancelled);
        let _ = std::fs::remove_dir_all(journal.dir());
    }

    #[test]
    fn replay_survives_garbage_lines_and_missing_file() {
        let journal = temp_journal("garbage");
        assert!(journal.replay().unwrap().is_empty());
        journal.accepted(1, "m", 1, &config(1));
        append_raw(&journal, b"not json\n{\"event\":\"mystery\",\"job\":1}\n");
        let jobs = journal.replay().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].state, ReplayState::Interrupted);
        let _ = std::fs::remove_dir_all(journal.dir());
    }

    #[test]
    fn legacy_plain_json_lines_still_replay() {
        let journal = temp_journal("legacy");
        append_raw(
            &journal,
            b"{\"event\":\"accepted\",\"job\":5,\"model\":\"m\",\"version\":1,\
              \"foj_samples\":10,\"batch\":2,\"seed\":3,\"strategy\":\"group_and_merge\"}\n\
              {\"event\":\"completed\",\"job\":5,\"summary\":{\"ok\":true}}\n",
        );
        let jobs = journal.replay().unwrap();
        assert_eq!(jobs.len(), 1);
        assert!(matches!(jobs[0].state, ReplayState::Completed(_)));
        let _ = std::fs::remove_dir_all(journal.dir());
    }

    #[test]
    fn strategy_round_trips() {
        for s in [
            JoinKeyStrategy::GroupAndMerge,
            JoinKeyStrategy::PairwiseViews,
        ] {
            assert_eq!(parse_strategy(strategy_str(s)), Some(s));
        }
        assert_eq!(parse_strategy("nonsense"), None);
    }

    /// Recovery truncates a torn tail (crash mid-append) and the journal
    /// replays the surviving prefix.
    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        {
            let journal = Journal::open(&dir, sam_obs::counter("test_torn_events")).unwrap();
            journal.accepted(1, "m", 1, &config(1));
            journal.completed(1, &json!({}));
        }
        // A crash mid-append: half a framed line, no newline.
        std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_FILE))
            .unwrap()
            .write_all(b"deadbeef {\"event\":\"acc")
            .unwrap();
        let counters = JournalCounters::standalone(sam_obs::counter("test_torn_events2"));
        let torn_before = counters.torn_tails.get();
        let journal = Journal::open_with(&dir, counters.clone(), sam_fault::real_fs()).unwrap();
        assert_eq!(counters.torn_tails.get(), torn_before + 1);
        let jobs = journal.replay().unwrap();
        assert_eq!(jobs.len(), 1);
        assert!(matches!(jobs[0].state, ReplayState::Completed(_)));
        // The tail is gone from disk; appends continue cleanly.
        journal.accepted(2, "m", 1, &config(2));
        assert_eq!(journal.replay().unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A corrupt mid-log record (bit flip) is quarantined, counted, and the
    /// rest of the log replays.
    #[test]
    fn corrupt_mid_log_record_is_quarantined() {
        let dir = temp_dir("quarantine");
        {
            let journal = Journal::open(&dir, sam_obs::counter("test_q_events")).unwrap();
            journal.accepted(1, "m", 1, &config(1));
            journal.accepted(2, "m", 1, &config(2));
            journal.completed(2, &json!({}));
        }
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside the first record's JSON body.
        let flip_at = 20;
        bytes[flip_at] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();

        let counters = JournalCounters::standalone(sam_obs::counter("test_q_events2"));
        let corrupt_before = counters.corrupt_records.get();
        let journal = Journal::open_with(&dir, counters.clone(), sam_fault::real_fs()).unwrap();
        assert_eq!(counters.corrupt_records.get(), corrupt_before + 1);
        let quarantine = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
        assert_eq!(quarantine.lines().count(), 1, "one record quarantined");
        let jobs = journal.replay().unwrap();
        assert_eq!(jobs.len(), 1, "job 1's corrupted accept is gone");
        assert_eq!(jobs[0].id, 2);
        assert!(matches!(jobs[0].state, ReplayState::Completed(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Compaction preserves replayability bit-for-bit, shrinks the log, and
    /// replays identically even if the log was never truncated (crash
    /// between snapshot and truncate).
    #[test]
    fn compaction_preserves_replay_and_is_crash_idempotent() {
        let dir = temp_dir("compact");
        let journal = Journal::open(&dir, sam_obs::counter("test_c_events")).unwrap();
        journal.accepted(1, "m", 1, &config(1));
        journal.running(1);
        journal.completed(1, &json!({"tables": [{"t": "A"}]}));
        journal.accepted(2, "m", 1, &config(2));
        journal.failed(2, "boom");
        journal.accepted(3, "m", 2, &config(3));
        journal.running(3);

        let before = journal.replay().unwrap();
        let log_before = journal.log_len();
        assert!(log_before > 0);

        let jobs = journal.compact().unwrap();
        assert_eq!(jobs, 3);
        assert_eq!(journal.log_len(), 0, "log truncated");

        let after = journal.replay().unwrap();
        assert_eq!(before.len(), after.len());
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.id, a.id);
            assert_eq!(b.state, a.state);
            assert_eq!(b.config.seed, a.config.seed);
            assert_eq!(b.model, a.model);
        }

        // Simulate the compaction crash window: snapshot written, log NOT
        // truncated (restore the old log contents). Replay must not change.
        let stale_log: String = before
            .iter()
            .flat_map(|j| {
                let acc =
                    serde_json::to_string(&accepted_event(j.id, &j.model, j.version, &j.config))
                        .unwrap();
                vec![frame(&acc) + "\n"]
            })
            .collect();
        std::fs::write(dir.join(JOURNAL_FILE), stale_log).unwrap();
        let replayed = journal.replay().unwrap();
        for (b, a) in before.iter().zip(&replayed) {
            assert_eq!(
                b.state, a.state,
                "stale accepted must not downgrade job {}",
                b.id
            );
        }

        // New activity after compaction still lands in the log and replays.
        journal.accepted(4, "m", 2, &config(4));
        assert_eq!(journal.replay().unwrap().len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn trains(entries: &[ReplayEntry]) -> Vec<&ReplayedTrain> {
        entries
            .iter()
            .filter_map(|entry| match entry {
                ReplayEntry::Train(train) => Some(train),
                _ => None,
            })
            .collect()
    }

    /// Training jobs fold through their own vocabulary and share the id
    /// space — and the one id-ordered list — with generation jobs and
    /// rollback records.
    #[test]
    fn train_events_fold_to_last_state() {
        let journal = temp_journal("train_fold");
        let spec = json!({"model": "m", "epochs": 8, "seed": 3});
        // id 1: a generation job; ids 2-5: training jobs; id 6: a rollback.
        journal.accepted(1, "m", 1, &config(9));
        journal.completed(1, &json!({}));
        journal.train_accepted(2, "m", 1, &spec);
        journal.running(2);
        journal.epoch(2, 1, 8, 0.5);
        journal.epoch(2, 2, 8, 0.25);
        journal.train_accepted(3, "m", 1, &spec);
        journal.evaluating(3);
        journal.promoted(3, 2, &json!({"candidate_p95": 1.5}));
        journal.train_accepted(4, "m", 2, &spec);
        journal.rejected(4, &json!({"reason": "worse than incumbent"}));
        journal.train_accepted(5, "m", 2, &spec);
        journal.failed(5, "boom");
        journal.rollback(6, "m", 2, 3);

        let entries = journal.replay_full().unwrap();
        assert_eq!(entries.len(), 6, "one list, sorted by id");
        assert!(matches!(&entries[0], ReplayEntry::Generate(job) if job.id == 1));
        let trains = trains(&entries);
        let train_ids: Vec<u64> = trains.iter().map(|t| t.id).collect();
        assert_eq!(train_ids, [2, 3, 4, 5]);
        assert_eq!(trains[0].state, TrainReplayState::Interrupted);
        assert_eq!(trains[0].spec, spec);
        assert!(matches!(
            trains[1].state,
            TrainReplayState::Promoted { version: 2, .. }
        ));
        assert!(matches!(trains[2].state, TrainReplayState::Rejected(_)));
        assert_eq!(trains[2].version, 2, "incumbent version at submission");
        assert_eq!(trains[3].state, TrainReplayState::Failed("boom".into()));
        assert!(matches!(
            &entries[5],
            ReplayEntry::Rollback(r) if *r == RollbackRecord { id: 6, model: "m".into() }
        ));
        // The generation-only view still returns only generation jobs.
        assert_eq!(journal.replay().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(journal.dir());
    }

    /// Compaction must retain training jobs and rollback records — the
    /// snapshot replays to the same training state the log did, incumbent
    /// version included.
    #[test]
    fn compaction_retains_train_records() {
        let journal = temp_journal("train_compact");
        let spec = json!({"model": "m", "epochs": 4});
        journal.train_accepted(1, "m", 4, &spec);
        journal.running(1);
        journal.epoch(1, 1, 4, 0.9);
        journal.train_accepted(2, "m", 4, &spec);
        journal.promoted(2, 5, &json!({"candidate_p95": 2.0}));
        journal.rollback(3, "m", 5, 6);

        let before = journal.replay_full().unwrap();
        let count = journal.compact().unwrap();
        assert_eq!(count, 3, "two trains + one rollback in the snapshot");
        assert_eq!(journal.log_len(), 0);

        let after_entries = journal.replay_full().unwrap();
        assert_eq!(after_entries.len(), 3);
        let (before, after) = (trains(&before), trains(&after_entries));
        assert_eq!(after.len(), 2);
        assert_eq!(after[0].state, TrainReplayState::Interrupted);
        assert_eq!(after[0].spec, spec);
        assert_eq!(after[0].version, 4);
        assert_eq!(after[1].state, before[1].state);
        assert!(matches!(
            &after_entries[2],
            ReplayEntry::Rollback(r) if *r == RollbackRecord { id: 3, model: "m".into() }
        ));
        let _ = std::fs::remove_dir_all(journal.dir());
    }

    /// `train_accepted` lines written before the event carried the
    /// incumbent's version still replay: the version comes from a
    /// `rejected` summary's `incumbent_version` when there is one, else 0 —
    /// and compaction writes the recovered version into the snapshot.
    #[test]
    fn train_accepted_without_version_key_still_replays() {
        let journal = temp_journal("train_legacy");
        append_raw(
            &journal,
            b"{\"event\":\"train_accepted\",\"job\":7,\"model\":\"m\",\"spec\":{}}\n\
              {\"event\":\"rejected\",\"job\":7,\"summary\":{\"incumbent_version\":3}}\n\
              {\"event\":\"train_accepted\",\"job\":8,\"model\":\"m\",\"spec\":{}}\n\
              {\"event\":\"cancelled\",\"job\":8}\n",
        );
        for pass in ["log", "snapshot"] {
            let entries = journal.replay_full().unwrap();
            let trains = trains(&entries);
            assert!(matches!(trains[0].state, TrainReplayState::Rejected(_)));
            assert_eq!(trains[0].version, 3, "{pass}: from the rejected summary");
            assert_eq!(trains[1].state, TrainReplayState::Cancelled);
            assert_eq!(trains[1].version, 0, "{pass}: nothing recorded it");
            journal.compact().unwrap();
        }
        let _ = std::fs::remove_dir_all(journal.dir());
    }

    /// Two-owner protection: a lock held by a *running* process (pid 1 is
    /// always alive) makes a second open fail fast with a clear error; a
    /// lock left by a dead process is taken over; a graceful drop releases
    /// the lock.
    #[test]
    fn lockfile_blocks_second_owner_and_recovers_stale() {
        let dir = temp_dir("lock");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOCK_FILE), "1").unwrap();
        let err = Journal::open(&dir, sam_obs::counter("test_journal_events")).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("owned by running process 1"),
            "unhelpful two-owner error: {msg}"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join(LOCK_FILE)).unwrap(),
            "1",
            "a refused open must not clobber the holder's lock"
        );

        // Dead holder (u32::MAX is never a live pid): takeover.
        std::fs::write(dir.join(LOCK_FILE), u32::MAX.to_string()).unwrap();
        let journal = Journal::open(&dir, sam_obs::counter("test_journal_events")).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join(LOCK_FILE)).unwrap(),
            std::process::id().to_string()
        );
        journal.accepted(1, "m", 2, &config(7));

        // Graceful close releases the lock for the next owner.
        drop(journal);
        assert!(!dir.join(LOCK_FILE).exists());
        let reopened = Journal::open(&dir, sam_obs::counter("test_journal_events")).unwrap();
        assert_eq!(reopened.replay().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Appends framed with CRC: every line round-trips through
    /// `line_payload`, and a flipped bit is rejected.
    #[test]
    fn framing_round_trips_and_rejects_flips() {
        let json = r#"{"event":"running","job":9}"#;
        let line = frame(json);
        assert_eq!(line_payload(&line), Some(json));
        let mut flipped = line.into_bytes();
        let last = flipped.len() - 3;
        flipped[last] ^= 0x10;
        let flipped = String::from_utf8(flipped).unwrap();
        assert_eq!(line_payload(&flipped), None);
    }
}
