//! Background jobs: the one table, thread wrapper and status document that
//! generation (`POST /generate`) and training (`POST /train`) share.
//!
//! A job is accepted immediately and runs on its own thread. Generation goes
//! through [`TrainedSam::generate_controlled`], which reports stage +
//! progress and honours cancellation via [`JobControl`]; training lives in
//! [`crate::training`] and honours the same handle at epoch boundaries.
//! Clients poll `GET /jobs/{id}` and stream finished relations from
//! `GET /jobs/{id}/export` (the record keeps the generated [`Database`]
//! alive for exactly that). Shutdown *drains*: [`JobRegistry::drain`] joins
//! every job thread, so accepted jobs always reach a terminal state.
//!
//! `JobRegistry::start` is the only place a job thread is spawned and owns
//! everything around the work; the work itself — `run_job` here,
//! `training::run_train_job` there — only returns a [`JobState`].
//!
//! With a [`Journal`] attached, every lifecycle transition is appended to
//! the on-disk log and completed results are persisted as CSV, which is
//! what makes jobs replayable across a server restart (see
//! [`crate::journal`]).

use crate::journal::Journal;
use crate::metrics::ServeMetrics;
use crate::registry::ModelEntry;
use crate::sync::Lock;
use sam_core::{GenerationConfig, JobControl, JobStage, SamError, TrainedSam};
use sam_storage::Database;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Terminal or running state of a job. `Done` is generation's success
/// state; `Promoted` / `Rejected` are training's two verdicts.
pub enum JobState {
    /// Still working (see [`JobControl`] for stage/progress).
    Running,
    /// Generation finished successfully.
    Done {
        /// Result summary served at `GET /jobs/{id}`.
        summary: Value,
        /// The generated database, held for streamed export.
        db: Arc<Database>,
    },
    /// Training candidate won shadow evaluation and now serves as `version`.
    Promoted {
        /// Version minted for the candidate in the model registry.
        version: u64,
        /// Evaluation summary (candidate/incumbent p95, gate, wall time).
        summary: Value,
    },
    /// Training candidate lost shadow evaluation; the incumbent keeps
    /// serving.
    Rejected {
        /// Evaluation summary explaining the verdict.
        summary: Value,
    },
    /// Failed with an error message.
    Failed(String),
    /// Cancelled before completion.
    Cancelled,
}

/// The training-only part of a [`JobRecord`]: what the `training` object,
/// `stage` and `progress` of a training job's status document are drawn from.
#[derive(Clone, Copy)]
pub(crate) struct TrainProgress {
    pub(crate) epoch: u64,
    pub(crate) total_epochs: u64,
    /// Loss of the last completed epoch; NaN before the first.
    pub(crate) loss: f64,
    /// `accepted` → `training` → `evaluating` → `finished`.
    pub(crate) stage: &'static str,
}

impl TrainProgress {
    pub(crate) fn new(epoch: u64, total_epochs: u64, stage: &'static str) -> TrainProgress {
        TrainProgress {
            epoch,
            total_epochs,
            loss: f64::NAN,
            stage,
        }
    }
}

/// One background job: control handle plus current state.
pub struct JobRecord {
    /// Job id (unique per server, stable across journal replays).
    pub id: u64,
    /// Model name the job runs against (for training: the model retrained).
    pub model: String,
    /// Model version pinned at submission (for training: the incumbent the
    /// candidate competes against).
    pub version: u64,
    /// Cooperative cancel / progress handle shared with the job thread.
    pub control: JobControl,
    /// `Some` exactly for training jobs.
    pub(crate) training: Option<Lock<TrainProgress>>,
    state: Lock<JobState>,
}

impl JobRecord {
    /// A running record; `training` makes it a training job.
    pub(crate) fn new(
        id: u64,
        model: &str,
        version: u64,
        training: Option<TrainProgress>,
    ) -> JobRecord {
        JobRecord {
            id,
            model: model.to_string(),
            version,
            control: JobControl::new(),
            training: training.map(Lock::new),
            state: Lock::new(JobState::Running),
        }
    }

    /// Whether the job reached a terminal state.
    pub fn is_finished(&self) -> bool {
        !matches!(*self.state.lock(), JobState::Running)
    }

    /// The generated database, once a generation job is done (`None` while
    /// running, after failure/cancellation, and for training jobs).
    pub fn result_database(&self) -> Option<Arc<Database>> {
        match &*self.state.lock() {
            JobState::Done { db, .. } => Some(Arc::clone(db)),
            _ => None,
        }
    }

    /// Short state label (`running` / `done` / `promoted` / `rejected` /
    /// `failed` / `cancelled`), for error messages and logs.
    pub fn state_label(&self) -> &'static str {
        state_label(&self.state.lock())
    }

    /// Status document served at `GET /jobs/{id}`: one envelope for both
    /// kinds, plus a `training` object (and epoch-exact `progress`) on
    /// training jobs.
    pub fn status_json(&self) -> Value {
        let state = self.state.lock();
        let (version, result, error) = match &*state {
            JobState::Done { summary, .. } | JobState::Rejected { summary } => {
                (self.version, summary.clone(), Value::Null)
            }
            JobState::Promoted { version, summary } => (*version, summary.clone(), Value::Null),
            JobState::Failed(msg) => (self.version, Value::Null, Value::String(msg.clone())),
            JobState::Running | JobState::Cancelled => (self.version, Value::Null, Value::Null),
        };
        let (stage, progress, training) = match &self.training {
            None => (
                self.control.stage().to_string(),
                self.control.progress(),
                None,
            ),
            Some(t) => {
                let t = *t.lock();
                let total = t.total_epochs.max(1);
                let training = json!({
                    "epoch": t.epoch,
                    "total_epochs": total,
                    "loss": if t.loss.is_nan() { Value::Null } else { json!(t.loss) },
                });
                (
                    t.stage.to_string(),
                    (t.epoch as f64 / total as f64).min(1.0),
                    Some(training),
                )
            }
        };
        let mut doc = json!({
            "id": self.id,
            "model": self.model.clone(),
            "model_version": version,
            "state": state_label(&state),
            "stage": stage,
            "progress": progress,
            "result": result,
            "error": error,
        });
        if let (Some(training), Value::Object(fields)) = (training, &mut doc) {
            fields.push(("training".to_string(), training));
        }
        doc
    }
}

fn state_label(state: &JobState) -> &'static str {
    match state {
        JobState::Running => "running",
        JobState::Done { .. } => "done",
        JobState::Promoted { .. } => "promoted",
        JobState::Rejected { .. } => "rejected",
        JobState::Failed(_) => "failed",
        JobState::Cancelled => "cancelled",
    }
}

/// Summary document for a finished generation run.
fn summary_json(db: &Database, foj_samples: usize, wall_seconds: f64) -> Value {
    let tables: Vec<Value> = db
        .tables()
        .iter()
        .map(|t| json!({"table": t.name(), "rows": t.num_rows()}))
        .collect();
    json!({
        "tables": Value::Array(tables),
        "foj_samples": foj_samples,
        "wall_seconds": wall_seconds,
    })
}

/// Concurrent job table for generation and training jobs alike. All
/// methods take `&self`.
pub struct JobRegistry {
    next_id: AtomicU64,
    jobs: Lock<HashMap<u64, Arc<JobRecord>>>,
    handles: Lock<Vec<JoinHandle<()>>>,
    journal: Option<Arc<Journal>>,
    metrics: Arc<ServeMetrics>,
}

impl JobRegistry {
    /// Empty registry counting on `metrics`; with `Some(journal)`, every job
    /// lifecycle event is appended to it and completed results are
    /// persisted as CSV.
    pub fn new(journal: Option<Arc<Journal>>, metrics: Arc<ServeMetrics>) -> Self {
        JobRegistry {
            next_id: AtomicU64::new(0),
            jobs: Lock::new(HashMap::new()),
            handles: Lock::new(Vec::new()),
            journal,
            metrics,
        }
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// Ensure freshly assigned ids start after `id` (journal replay keeps
    /// original job ids; new jobs must not collide with them).
    pub fn reserve_through(&self, id: u64) {
        self.next_id.fetch_max(id, Ordering::Relaxed);
    }

    /// Mint a fresh id from the shared job-id space. Generation jobs,
    /// training jobs, and rollback audit records all draw from this one
    /// counter, so `GET /jobs/{id}` and the journal are unambiguous about
    /// what an id names.
    pub fn allocate_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Start a generation job on its own thread; returns the job id.
    pub fn spawn(&self, entry: Arc<ModelEntry>, config: GenerationConfig) -> u64 {
        let id = self.allocate_id();
        if let Some(journal) = &self.journal {
            journal.accepted(id, &entry.name, entry.version, &config);
        }
        self.spawn_with_id(id, entry, config);
        id
    }

    /// Re-spawn a journal-replayed interrupted job under its original id.
    /// The recorded config carries the RNG seed, so the regenerated
    /// database is bit-for-bit what the interrupted run would have produced.
    pub fn respawn(&self, id: u64, entry: Arc<ModelEntry>, config: GenerationConfig) {
        if let Some(journal) = &self.journal {
            journal.resumed(id);
        }
        self.spawn_with_id(id, entry, config);
    }

    fn spawn_with_id(&self, id: u64, entry: Arc<ModelEntry>, config: GenerationConfig) {
        self.start(
            JobRecord::new(id, &entry.name, entry.version, None),
            move |record, journal| run_job(&entry.trained, &config, record, journal),
        );
    }

    /// The one spawn path: put `record` in the table and run `work` (handed
    /// the record and the journal, if any) on a named thread, wrapped in
    /// everything generation and training share.
    /// Before the work: the per-kind started counter, the submitting
    /// request's trace id, the journal's `running` event. After it: a
    /// panic becomes `Failed` (+ `worker_panics`) instead of an abandoned
    /// `Running` record that would poll as in-flight forever; `failed` and
    /// `cancelled` are journalled (success events are commit records the
    /// work writes itself, after persisting what they promise); the
    /// per-kind terminal counter is bumped — `jobs_finished` for
    /// generation, `trains_promoted|rejected|failed` for training, a
    /// cancelled train counting as failed — and only then does the state
    /// become visible, so a client that polls a terminal state finds the
    /// counters already moved.
    pub(crate) fn start<F>(&self, record: JobRecord, work: F)
    where
        F: FnOnce(&JobRecord, Option<&Journal>) -> JobState + Send + 'static,
    {
        self.reserve_through(record.id);
        let record = Arc::new(record);
        self.jobs.lock().insert(record.id, Arc::clone(&record));
        let metrics = Arc::clone(&self.metrics);
        let (thread, what, started) = match record.training {
            Some(_) => ("train", "training", &metrics.trains_started),
            None => ("job", "generation", &metrics.jobs_started),
        };
        started.inc();
        let journal = self.journal.clone();
        // Carry the submitting request's trace id onto the job thread so the
        // job's spans correlate with the POST that started it.
        let trace_id = sam_obs::current_trace_id();
        let handle = std::thread::Builder::new()
            .name(format!("sam-serve-{thread}-{}", record.id))
            .spawn(move || {
                sam_obs::set_trace_id(trace_id);
                if record.training.is_none() {
                    // The failover tests' first worker-kill point: before any
                    // work or journal line (`run_job` has the other two).
                    sam_fault::crash_point("serve.job.pre_run");
                }
                if let Some(journal) = &journal {
                    journal.running(record.id);
                }
                let work = std::panic::AssertUnwindSafe(|| work(&record, journal.as_deref()));
                let outcome = std::panic::catch_unwind(work).unwrap_or_else(|payload| {
                    metrics.worker_panics.inc();
                    let cause = crate::sync::panic_message(payload.as_ref());
                    JobState::Failed(format!("{what} panicked: {cause}"))
                });
                if let Some(journal) = &journal {
                    match &outcome {
                        JobState::Failed(msg) => journal.failed(record.id, msg),
                        JobState::Cancelled => journal.cancelled(record.id),
                        _ => {}
                    }
                }
                match (&record.training, &outcome) {
                    (None, _) => metrics.jobs_finished.inc(),
                    (Some(_), JobState::Promoted { .. }) => metrics.trains_promoted.inc(),
                    (Some(_), JobState::Rejected { .. }) => metrics.trains_rejected.inc(),
                    (Some(_), _) => metrics.trains_failed.inc(),
                }
                if let Some(t) = &record.training {
                    t.lock().stage = "finished";
                }
                *record.state.lock() = outcome;
            })
            .expect("spawn job thread");
        self.handles.lock().push(handle);
    }

    /// Insert a generation job record already in a terminal state (journal
    /// replay of completed / failed / cancelled jobs). No thread is spawned.
    pub fn insert_terminal(&self, id: u64, model: &str, version: u64, state: JobState) {
        self.insert(id, model, version, false, state);
    }

    /// The one terminal inserter, for either kind: a restored `training`
    /// job reads as one finished epoch of one (`stage: finished`).
    pub(crate) fn insert(
        &self,
        id: u64,
        model: &str,
        version: u64,
        training: bool,
        state: JobState,
    ) {
        self.reserve_through(id);
        let progress = training.then(|| TrainProgress::new(1, 1, "finished"));
        let record = JobRecord::new(id, model, version, progress);
        if matches!(state, JobState::Done { .. }) {
            record.control.set_stage(JobStage::Finished);
            record.control.set_progress(1, 1);
        }
        *record.state.lock() = state;
        self.jobs.lock().insert(id, Arc::new(record));
    }

    /// Look up a job by id.
    pub fn get(&self, id: u64) -> Option<Arc<JobRecord>> {
        self.jobs.lock().get(&id).cloned()
    }

    /// Request cancellation (generation stops at its next chunk boundary,
    /// training at its next epoch boundary); returns false for unknown ids.
    pub fn cancel(&self, id: u64) -> bool {
        self.get(id).map(|record| record.control.cancel()).is_some()
    }

    /// Join every job thread (drain semantics — jobs run to completion or to
    /// their next cancellation check; none are abandoned mid-write. For a
    /// long train, request cancellation first).
    pub fn drain(&self) {
        let handles: Vec<_> = self.handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// The generation work: generate, persist, commit.
fn run_job(
    trained: &TrainedSam,
    config: &GenerationConfig,
    record: &JobRecord,
    journal: Option<&Journal>,
) -> JobState {
    // Deterministic worker-kill points for the sharded-serving failover
    // tests: after generation (results in memory only) and after results
    // are persisted-and-committed (`start` has the one before any work). A
    // journal replay must recover the accepted job bit-for-bit from each.
    let generated = trained.generate_controlled(config, &record.control);
    sam_fault::crash_point("serve.job.generated");
    match generated {
        Ok((db, report)) => {
            let summary = summary_json(&db, report.foj_samples, report.wall_seconds);
            if let Some(journal) = journal {
                // Persist-then-commit: CSVs land on disk before the
                // `completed` event, so a `completed` in the log implies the
                // results it promises exist.
                match journal.persist_results(record.id, &db) {
                    Ok(()) => {
                        sam_fault::crash_point("serve.job.persisted");
                        journal.completed(record.id, &summary);
                    }
                    Err(e) => {
                        sam_obs::counter("sam_journal_persist_errors_total").inc();
                        journal.failed(record.id, &format!("persist results: {e}"));
                    }
                }
            }
            JobState::Done {
                summary,
                db: Arc::new(db),
            }
        }
        Err(SamError::Cancelled) => JobState::Cancelled,
        Err(e) => JobState::Failed(e.to_string()),
    }
}
