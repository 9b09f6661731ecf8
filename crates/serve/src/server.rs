//! The HTTP server: accept loop, keep-alive connection handling, routing,
//! journal replay, and graceful shutdown.
//!
//! Built on `std::net::TcpListener` with one thread per connection. Each
//! connection serves **many requests** (HTTP/1.1 keep-alive) through the
//! shared connection loop in [`crate::http::listener`], fed
//! [`ServeConfig::idle_timeout_ms`] and [`ServeConfig::max_conn_requests`].
//! Every request path is parsed once, by [`Route::parse`]; the endpoints are
//! the variants of [`Route`], each documented there (`docs/SERVING.md` is
//! the operator guide). The router's admin routes answer 404 here.
//!
//! With [`ServeConfig::journal_dir`] set, accepted jobs are journaled to
//! disk and [`Server::replay_journal`] (call it after loading models)
//! restores them across restarts — completed jobs re-serve status and
//! export from persisted CSVs, interrupted ones re-run from their recorded
//! RNG seed. See [`crate::journal`].
//!
//! An estimate runs on the connection thread that parsed it, under its
//! model's estimator ([`ModelEntry::estimator`]); the deadline bounds both
//! the wait for the estimator and the pass itself.
//!
//! Shutdown order matters: stop accepting, join connection handlers (which
//! finishes every in-flight estimate), then join all background jobs (drain
//! semantics — accepted jobs reach a terminal state before
//! [`Server::shutdown`] returns).

use crate::cache::{EstimateCache, EstimateKey};
use crate::compress::{Coding, Encoder};
use crate::error::ServeError;
use crate::http::{self, query_param, split_target, Acceptor, ChunkedWriter, Request, Route};
use crate::jobs::{JobRegistry, JobState};
use crate::journal::{Journal, ReplayEntry, ReplayState, ReplayedTrain, TrainReplayState};
use crate::metrics::ServeMetrics;
use crate::quality::{QualityConfig, QualityMonitor, QualityTask};
use crate::registry::{ModelEntry, ModelRegistry};
use crate::training::{self, TrainJob, TrainSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sam_core::{GenerationConfig, JoinKeyStrategy};
use sam_obs::{CacheOutcome, Endpoint, FlightRecorder, SlowEntry, SlowLog};
use sam_query::{parse_query, Query};
use sam_storage::csv::write_csv;
use sam_storage::jsonl::write_jsonl;
use sam_storage::{csv::read_csv, Database, DatabaseStats, Table};
use serde_json::{json, Value};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on progressive-sampling paths per estimate request.
const MAX_SAMPLES: usize = 1_000_000;
/// Upper bound on FOJ samples per generation job.
const MAX_FOJ_SAMPLES: usize = 5_000_000;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Estimates admitted at once, waiting for their model or computing;
    /// one more is answered 429.
    pub queue_capacity: usize,
    /// Progressive-sampling paths when the request omits `samples`.
    pub default_samples: usize,
    /// Per-request deadline when the request omits `timeout_ms`.
    pub default_timeout_ms: u64,
    /// LRU estimate-cache entries (0 disables the cache).
    pub cache_capacity: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout_ms: u64,
    /// Requests served per connection before the server closes it (the
    /// response to the last one carries `Connection: close`). Bounds the
    /// lifetime of any single connection for fair load balancing.
    pub max_conn_requests: usize,
    /// Directory for the on-disk job journal and persisted results;
    /// `None` disables journaling (jobs die with the process).
    pub journal_dir: Option<PathBuf>,
    /// Compact the journal during [`Server::replay_journal`] when the log
    /// exceeds this many bytes; `None` disables auto-compaction.
    pub journal_compact_bytes: Option<u64>,
    /// Fraction of answered `/estimate` requests shadow-scored by the
    /// quality drift monitor (`--quality-sample`; 0 disables it).
    pub quality_sample: f64,
    /// Sliding-window size per model version for quality statistics.
    pub quality_window: usize,
    /// Q-Error above which a shadow score raises an alert and is appended
    /// to the audit file (`--quality-alert-qerror`).
    pub quality_alert_qerror: f64,
    /// JSONL audit file for threshold-crossing estimates (consumable by
    /// `workgen mine` as seeds); `None` keeps alerts in metrics only.
    pub quality_audit: Option<PathBuf>,
    /// Flight-recorder ring size in events (`--flight-capacity`).
    pub flight_capacity: usize,
    /// Requests at or above this latency enter the slow-query log.
    pub slow_query_ms: u64,
    /// Absolute promotion gate for training jobs: a candidate is promoted
    /// only if its p95 holdout Q-Error is at or below this **and** does not
    /// regress the incumbent's (`--promote-max-qerror`; a `POST /train`
    /// request can tighten or loosen it with `max_qerror=`).
    pub promote_max_qerror: f64,
    /// First job id minus one: ids are minted from `job_id_base + 1`
    /// upward. A sharded router gives each worker slot a disjoint base so
    /// a job id alone identifies the shard that owns it (`--job-id-base`).
    pub job_id_base: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 64,
            default_samples: 200,
            default_timeout_ms: 10_000,
            cache_capacity: 1024,
            idle_timeout_ms: 30_000,
            max_conn_requests: 1_000,
            journal_dir: None,
            journal_compact_bytes: Some(4 * 1024 * 1024),
            quality_sample: 0.01,
            quality_window: 256,
            quality_alert_qerror: 100.0,
            quality_audit: None,
            flight_capacity: 512,
            slow_query_ms: 250,
            promote_max_qerror: 1000.0,
            job_id_base: 0,
        }
    }
}

/// What [`Server::replay_journal`] restored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Completed jobs whose results were reloaded from persisted CSVs.
    pub completed: usize,
    /// Interrupted jobs re-spawned from their recorded config/seed.
    pub resumed: usize,
    /// Jobs restored in a failed/cancelled terminal state, plus jobs that
    /// could not be restored (model gone, results missing).
    pub failed: usize,
}

struct ServerState {
    config: ServeConfig,
    registry: Arc<ModelRegistry>,
    /// Every background job, generation (`POST /generate`) and training
    /// (`POST /train`) alike.
    jobs: JobRegistry,
    metrics: Arc<ServeMetrics>,
    /// Estimates admitted and not yet answered, against
    /// [`ServeConfig::queue_capacity`].
    in_flight: AtomicUsize,
    /// Completed estimates keyed on (model, version, canonical query,
    /// samples, seed); consulted before the estimator.
    cache: EstimateCache,
    shutting_down: Arc<AtomicBool>,
    /// Quiesced by a router rebalance (`POST /admin/drain`): new
    /// generate/train work answers 503 until `POST /admin/resume`, while
    /// reads keep working.
    draining: AtomicBool,
    /// Monotonic per-request trace id, attached to span output (and the
    /// estimate response body) for request ↔ trace correlation.
    next_trace_id: AtomicU64,
    /// Always-on ring of recent request events (`GET /debug/flight`).
    flight: Arc<FlightRecorder>,
    /// Requests above [`ServeConfig::slow_query_ms`] (`GET /debug/slow`).
    slow: SlowLog,
    /// Shadow-scoring quality drift monitor (`GET /quality`).
    quality: QualityMonitor,
}

/// A running server. Dropping it shuts it down gracefully.
pub struct Server {
    state: Arc<ServerState>,
    acceptor: Acceptor,
}

impl Server {
    /// Bind and start serving in background threads.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] if the address cannot be bound or the
    /// journal directory (when configured) cannot be created.
    pub fn start(config: ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::Internal(format!("bind {}: {e}", config.addr)))?;
        let metrics = Arc::new(ServeMetrics::default());
        let journal = match &config.journal_dir {
            Some(dir) => Some(Arc::new(Journal::open_with(
                dir,
                metrics.journal_counters(),
                sam_fault::real_fs(),
            )?)),
            None => None,
        };
        let flight = Arc::new(FlightRecorder::new(config.flight_capacity));
        let cache = EstimateCache::new(config.cache_capacity);
        let registry = Arc::new(ModelRegistry::new());
        metrics.set_build_info(env!("CARGO_PKG_VERSION"), env!("SAM_GIT_SHA"));
        let quality = QualityMonitor::start(
            QualityConfig {
                sample: config.quality_sample,
                window: config.quality_window,
                alert_qerror: config.quality_alert_qerror,
                audit_path: config.quality_audit.clone(),
            },
            metrics.quality_counters(),
        );
        let slow = SlowLog::new(64);
        let jobs = JobRegistry::new(journal, Arc::clone(&metrics));
        // Shard mode: mint every job id above this worker's range base so a
        // router can route /jobs/{id} by the id alone.
        jobs.reserve_through(config.job_id_base);
        let state = Arc::new(ServerState {
            config,
            registry,
            jobs,
            metrics,
            in_flight: AtomicUsize::new(0),
            cache,
            shutting_down: Arc::new(AtomicBool::new(false)),
            draining: AtomicBool::new(false),
            next_trace_id: AtomicU64::new(0),
            flight,
            slow,
            quality,
        });
        let conn_state = Arc::clone(&state);
        let acceptor = Acceptor::spawn(
            listener,
            "sam-serve",
            Arc::clone(&state.shutting_down),
            move |stream| handle_connection(stream, &conn_state),
        )
        .map_err(|e| ServeError::Internal(format!("spawn accept loop: {e}")))?;
        Ok(Server { state, acceptor })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// The model registry, for programmatic loading (CLI, tests).
    pub fn registry(&self) -> &ModelRegistry {
        &self.state.registry
    }

    /// The job table (generation and training jobs).
    pub fn jobs(&self) -> &JobRegistry {
        &self.state.jobs
    }

    /// Server metrics.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.state.metrics
    }

    /// Replay the on-disk journal: restore every journaled job to its last
    /// known state. Call **after** registering/loading models — replay
    /// binds each job to the model registered under its recorded name.
    ///
    /// Completed jobs reload their persisted CSVs (status and export are
    /// served as if the job had just finished); interrupted jobs re-run
    /// from their recorded config, whose seed makes the rerun bit-for-bit
    /// identical; failed/cancelled jobs are restored in that terminal
    /// state. Jobs whose model is no longer registered (or whose persisted
    /// results are unreadable) are restored as failed with an explanatory
    /// error rather than dropped.
    ///
    /// Training jobs and rollbacks replay the same way, **before** the
    /// generation jobs and in journal order: recorded promotions re-load
    /// the persisted candidate weights and hot-swap them back in, recorded
    /// rollbacks re-apply, and an interrupted training job re-spawns from
    /// its persisted workload split — auto-resuming from its last on-disk
    /// checkpoint, so the resumed run is bit-for-bit what the interrupted
    /// one would have produced. (Versions are re-minted during replay; they
    /// match the recorded ones whenever the models loaded before replay
    /// match the pre-restart loads.)
    ///
    /// No-op returning the default summary when journaling is off.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] if the journal log exists but cannot be
    /// read at all; per-job restore problems are folded into
    /// [`ReplaySummary::failed`] instead of aborting the replay.
    pub fn replay_journal(&self) -> Result<ReplaySummary, ServeError> {
        let Some(journal) = self.state.jobs.journal().cloned() else {
            return Ok(ReplaySummary::default());
        };
        let mut span = sam_obs::span!("journal_replay");
        let mut summary = ReplaySummary::default();
        // One id-ordered list, applied in one loop — registry history
        // first: promotions and rollbacks re-apply in id order (ids are
        // minted monotonically, so id order is event order), leaving the
        // registry's current version and rollback history as the journal
        // last recorded them. Generation jobs then bind to the restored
        // registry state. The sort is stable, so each half stays id-ordered.
        let mut entries = journal.replay_full()?;
        entries.sort_by_key(|entry| matches!(entry, ReplayEntry::Generate(_)));
        for entry in entries {
            self.restore_entry(&journal, entry, &mut summary);
        }
        span.record("completed", summary.completed);
        span.record("resumed", summary.resumed);
        span.record("failed", summary.failed);

        // Auto-compaction: replay already paid for the full fold, so this
        // is the natural moment to shrink an oversized log to a snapshot.
        if let Some(limit) = self.state.config.journal_compact_bytes {
            if journal.log_len() > limit {
                journal.compact()?;
            }
        }
        Ok(summary)
    }

    /// Restore one replayed entry (see [`replay_journal`](Self::replay_journal)
    /// for what each recorded state comes back as): re-apply a rollback, or
    /// bring a job back as a terminal record or a re-spawned thread.
    fn restore_entry(
        &self,
        journal: &Arc<Journal>,
        entry: ReplayEntry,
        summary: &mut ReplaySummary,
    ) {
        let (jobs, registry) = (&self.state.jobs, &self.state.registry);
        let failed = |why: String| Some(JobState::Failed(why));
        // `restored` is `None` when the job re-spawned on its own thread.
        let (id, model, version, training, restored) = match entry {
            ReplayEntry::Rollback(r) => {
                // Mints no job, but its id is taken. The model (or its
                // history) may be gone after a restart with different
                // loads; the rollback is then a no-op, not a replay abort.
                jobs.reserve_through(r.id);
                let _ = registry.rollback(&r.model);
                return;
            }
            ReplayEntry::Generate(job) => {
                let (mut version, entry) = (job.version, registry.get(&job.model));
                let restored = match (job.state, entry) {
                    (ReplayState::Failed(msg), _) => failed(msg),
                    (ReplayState::Cancelled, _) => Some(JobState::Cancelled),
                    (_, None) => failed(format!(
                        "model '{}' not registered after restart",
                        job.model
                    )),
                    (ReplayState::Completed(done), Some(entry)) => {
                        match load_persisted_results(journal, job.id, &entry.trained) {
                            Ok(db) => {
                                version = entry.version;
                                Some(JobState::Done {
                                    summary: done,
                                    db: Arc::new(db),
                                })
                            }
                            Err(e) => failed(format!(
                                "completed before restart, but results unavailable: {e}"
                            )),
                        }
                    }
                    (ReplayState::Interrupted, Some(entry)) => {
                        jobs.respawn(job.id, entry, job.config);
                        None
                    }
                };
                (job.id, job.model, version, false, restored)
            }
            ReplayEntry::Train(t) => {
                let restored = match &t.state {
                    TrainReplayState::Promoted { summary: eval, .. } => {
                        let path = journal.job_dir(t.id).join("model.json");
                        match registry.promote_from_file(&t.model, &path) {
                            Ok(version) => Some(JobState::Promoted {
                                version,
                                summary: eval.clone(),
                            }),
                            Err(e) => failed(format!(
                                "promoted before restart, but candidate unavailable: {e}"
                            )),
                        }
                    }
                    TrainReplayState::Rejected(eval) => Some(JobState::Rejected {
                        summary: eval.clone(),
                    }),
                    TrainReplayState::Failed(msg) => failed(msg.clone()),
                    TrainReplayState::Cancelled => Some(JobState::Cancelled),
                    TrainReplayState::Interrupted => match self.respawn_train(journal, &t) {
                        Ok(()) => None,
                        Err(e) => {
                            failed(format!("interrupted before restart and not resumable: {e}"))
                        }
                    },
                };
                (t.id, t.model, t.version, true, restored)
            }
        };
        self.state.metrics.jobs_replayed.inc();
        let Some(job_state) = restored else {
            summary.resumed += 1;
            return;
        };
        match job_state {
            JobState::Failed(_) | JobState::Cancelled => summary.failed += 1,
            _ => summary.completed += 1,
        }
        jobs.insert(id, &model, version, training, job_state);
    }

    /// Re-spawn an interrupted training job under its original id, from the
    /// spec recorded at acceptance and the workload split persisted next to
    /// the journal.
    fn respawn_train(&self, journal: &Arc<Journal>, t: &ReplayedTrain) -> Result<(), ServeError> {
        let spec = TrainSpec::from_value(&t.spec)?;
        let incumbent = self.state.registry.get(&spec.model).ok_or_else(|| {
            ServeError::NotFound(format!(
                "model '{}' not registered after restart",
                spec.model
            ))
        })?;
        let split = training::load_persisted_workload(journal, t.id)?;
        let stats = resolve_stats(&spec, &incumbent)?;
        journal.resumed(t.id);
        training::spawn(
            &self.state.jobs,
            TrainJob {
                id: t.id,
                spec,
                incumbent,
                split,
                stats,
                registry: Arc::clone(&self.state.registry),
                promote_max_qerror: self.state.config.promote_max_qerror,
            },
        );
        Ok(())
    }

    /// Graceful shutdown: stop accepting connections, finish in-flight
    /// requests (estimates included), and join every generation and
    /// training job (for a long train, `POST /jobs/{id}/cancel` first — a
    /// SIGKILL instead leaves an `Interrupted` journal state that resumes
    /// from its checkpoint on the next replay). Idempotent; also runs on
    /// drop.
    pub fn shutdown(&self) {
        self.acceptor.shutdown();
        self.state.jobs.drain();
        self.state.quality.shutdown();
    }

    /// The flight recorder (programmatic access for tests and tools; HTTP
    /// clients use `GET /debug/flight`).
    pub fn flight(&self) -> &FlightRecorder {
        &self.state.flight
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Load a completed job's persisted CSVs back into a [`Database`], using
/// the model's target schema for typing.
fn load_persisted_results(
    journal: &Journal,
    id: u64,
    trained: &sam_core::TrainedSam,
) -> Result<Database, ServeError> {
    let dir = journal.job_dir(id);
    let schema = trained.db_schema();
    let mut tables: Vec<Table> = Vec::new();
    for table_schema in schema.tables() {
        let path = dir.join(format!("{}.csv", table_schema.name));
        let file = std::fs::File::open(&path)
            .map_err(|e| ServeError::Internal(format!("open {path:?}: {e}")))?;
        let table = read_csv(table_schema.clone(), std::io::BufReader::new(file))
            .map_err(|e| ServeError::Internal(format!("parse {path:?}: {e}")))?;
        tables.push(table);
    }
    // No integrity re-check: these are bytes we persisted ourselves, and
    // replay must stay cheap even for large results.
    Database::new(schema.clone(), tables, false)
        .map_err(|e| ServeError::Internal(format!("rebuild database for job {id}: {e}")))
}

/// Serialization of a streamed relation export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExportFormat {
    Csv,
    Jsonl,
}

impl ExportFormat {
    fn content_type(self) -> &'static str {
        match self {
            ExportFormat::Csv => "text/csv",
            ExportFormat::Jsonl => "application/jsonl",
        }
    }
}

/// Byte window of a ranged export: resume streaming at `start` of a
/// `total`-byte identity serialization.
struct ExportRange {
    start: u64,
    total: u64,
}

/// What a route handler produced: a JSON document, a preformatted text
/// body (the Prometheus exposition), or a streamed relation export.
enum Reply {
    Json(u16, Value),
    Text(u16, String),
    /// Stream one table of a job's result database as a chunked body in
    /// the given format, optionally compressed with the negotiated content
    /// coding. With `range` set, only the byte suffix from `range.start`
    /// goes out (206, identity-coded).
    Export {
        db: Arc<Database>,
        table_index: usize,
        format: ExportFormat,
        coding: Option<Coding>,
        range: Option<ExportRange>,
    },
    /// `Range` start at or past the end of the representation: 416 with
    /// the representation length in `Content-Range: bytes */total`.
    RangeNotSatisfiable {
        total: u64,
    },
}

/// Per-request telemetry the route handlers fill in and the connection
/// handler flushes into the flight recorder (and, for slow estimates, the
/// slow-query log) after the response is written.
struct Telemetry {
    endpoint: Endpoint,
    model_version: u64,
    batch_size: u64,
    cache: CacheOutcome,
    /// `(model, sql)` for estimates, so slow-log entries say what ran.
    slow_detail: Option<(String, String)>,
}

impl Telemetry {
    fn new() -> Telemetry {
        Telemetry {
            endpoint: Endpoint::Other,
            model_version: 0,
            batch_size: 0,
            cache: CacheOutcome::NotApplicable,
            slow_detail: None,
        }
    }
}

fn handle_connection(stream: &TcpStream, state: &Arc<ServerState>) {
    state.metrics.http_connections.inc();
    http::serve_connection(
        stream,
        &state.shutting_down,
        Duration::from_millis(state.config.idle_timeout_ms.max(1)),
        state.config.max_conn_requests.max(1),
        |started, request, keep_alive| handle_request(stream, state, started, request, keep_alive),
    );
}

/// Route one parsed (or unparseable) request, write the reply echoing
/// `keep_alive`, and record its telemetry.
fn handle_request(
    stream: &TcpStream,
    state: &Arc<ServerState>,
    started: Instant,
    request: Result<Request, ServeError>,
    keep_alive: bool,
) -> std::io::Result<bool> {
    state.metrics.http_requests.inc();
    let trace_id = state.next_trace_id.fetch_add(1, Ordering::Relaxed) + 1;
    sam_obs::set_trace_id(Some(trace_id));
    let mut telemetry = Telemetry::new();
    let reply = match request {
        Ok(request) => {
            let _span = sam_obs::span!("request", method = request.method, path = request.path);
            route(&request, state, &mut telemetry).unwrap_or_else(error_reply)
        }
        Err(e) => error_reply(e),
    };
    let status = match &reply {
        Reply::Json(status, _) | Reply::Text(status, _) => *status,
        Reply::Export { range: None, .. } => 200,
        Reply::Export { range: Some(_), .. } => 206,
        Reply::RangeNotSatisfiable { .. } => 416,
    };
    let mut writer = stream;
    let io = match reply {
        Reply::Json(status, body) => {
            let text = serde_json::to_string(&body).unwrap_or_else(|_| "{}".to_string());
            http::write_json_response(&mut writer, status, &text, keep_alive)
        }
        Reply::Text(status, text) => http::write_response(
            &mut writer,
            status,
            http::PROMETHEUS_TEXT,
            &[],
            text.as_bytes(),
            keep_alive,
        ),
        Reply::Export {
            db,
            table_index,
            format,
            coding,
            range,
        } => stream_export(
            &mut writer,
            &db,
            table_index,
            format,
            coding,
            range,
            keep_alive,
            state,
        ),
        Reply::RangeNotSatisfiable { total } => {
            let body = serde_json::to_string(&json!({
                "error": format!("range start beyond representation end ({total} bytes)"),
            }))
            .unwrap_or_else(|_| "{}".to_string());
            http::write_response(
                &mut writer,
                416,
                "application/json",
                &[("Content-Range", &format!("bytes */{total}"))],
                body.as_bytes(),
                keep_alive,
            )
        }
    };
    // Flight events include response-write time: that's the latency the
    // client saw, which is what a post-mortem cares about.
    let latency = started.elapsed();
    state.flight.record(
        trace_id,
        telemetry.endpoint,
        telemetry.model_version,
        telemetry.batch_size,
        telemetry.cache,
        latency.as_nanos() as u64,
        status,
    );
    if telemetry.endpoint == Endpoint::Estimate
        && latency >= Duration::from_millis(state.config.slow_query_ms.max(1))
    {
        let (model, detail) = telemetry.slow_detail.unwrap_or_default();
        state.slow.push(SlowEntry {
            ts_ms: sam_obs::flight::unix_ms(),
            trace_id,
            latency_ms: latency.as_secs_f64() * 1e3,
            model,
            detail,
        });
    }
    io.map(|()| false)
}

/// Stream one relation as a chunked body in the requested format, through
/// the negotiated content coding. All validation happened in the router;
/// from here on the status line is committed, so mid-stream errors can only
/// abort the connection (clients detect the missing terminal chunk as
/// truncation). Compression composes with the bounded-chunk writer: rows →
/// [`Encoder`] (64 KiB compression blocks) → [`ChunkedWriter`] (64 KiB
/// transfer chunks) → socket, so memory stays bounded either way.
#[allow(clippy::too_many_arguments)]
fn stream_export(
    writer: &mut &TcpStream,
    db: &Database,
    table_index: usize,
    format: ExportFormat,
    coding: Option<Coding>,
    range: Option<ExportRange>,
    keep_alive: bool,
    state: &ServerState,
) -> std::io::Result<()> {
    let table = &db.tables()[table_index];
    let mut span = sam_obs::span!("export", table = table.name(), rows = table.num_rows());
    let content_range = range
        .as_ref()
        .map(|r| format!("bytes {}-{}/{}", r.start, r.total - 1, r.total));
    http::write_chunked_headers(
        writer,
        if range.is_some() { 206 } else { 200 },
        format.content_type(),
        coding.map(Coding::token),
        content_range.as_deref(),
        keep_alive,
    )?;
    let mut chunked = ChunkedWriter::new(writer);
    match (coding, range) {
        (Some(coding), _) => {
            // The router never negotiates a coding for ranged requests.
            let mut encoder = Encoder::new(chunked, coding);
            write_rows(table, format, &mut encoder)?;
            chunked = encoder.finish()?;
        }
        (None, Some(r)) => {
            // Resume: re-serialize deterministically, dropping the bytes
            // the client already holds. Row serialization is a pure
            // function of the stored table, so the suffix lines up exactly
            // with the interrupted stream's.
            let mut skip = SkipWriter {
                inner: &mut chunked,
                remaining: r.start,
            };
            write_rows(table, format, &mut skip)?;
        }
        (None, None) => {
            write_rows(table, format, &mut chunked)?;
        }
    }
    // Count before the terminal chunk goes out: a client that observes the
    // end of the stream must also observe the bumped counter on its next
    // `/metrics` scrape, even over a different connection.
    state.metrics.exports_ok.inc();
    chunked.finish()?;
    span.record("ok", true);
    Ok(())
}

fn write_rows<W: std::io::Write>(
    table: &Table,
    format: ExportFormat,
    out: &mut W,
) -> std::io::Result<()> {
    match format {
        ExportFormat::Csv => write_csv(table, out),
        ExportFormat::Jsonl => write_jsonl(table, out),
    }
}

/// Byte length of `table`'s identity serialization in `format` — the
/// counting pre-pass a ranged export needs to validate the offset and fill
/// `Content-Range`, without buffering the representation.
fn serialized_len(table: &Table, format: ExportFormat) -> std::io::Result<u64> {
    let mut counter = CountingWriter(0);
    write_rows(table, format, &mut counter)?;
    Ok(counter.0)
}

/// [`Write`] sink that only counts.
struct CountingWriter(u64);

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// [`Write`] adapter that discards the first `remaining` bytes and forwards
/// the rest — how a ranged export resumes mid-representation while the rows
/// are re-serialized from the start.
struct SkipWriter<'a, W: std::io::Write> {
    inner: &'a mut W,
    remaining: u64,
}

impl<W: std::io::Write> std::io::Write for SkipWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let skip = self.remaining.min(buf.len() as u64) as usize;
        self.remaining -= skip as u64;
        if skip < buf.len() {
            self.inner.write_all(&buf[skip..])?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Parse the request's route and run its handler. The flight-recorder label
/// comes from the route; a request that fails to parse stays `other`.
fn route(
    request: &Request,
    state: &Arc<ServerState>,
    telemetry: &mut Telemetry,
) -> Result<Reply, ServeError> {
    // The request target may carry a query string (`/metrics?format=...`).
    let (path, query) = split_target(&request.path);
    let route = Route::parse(&request.method, path)?;
    telemetry.endpoint = route.endpoint();
    let (status, body) = match route {
        Route::Metrics if query_param(query, "format") == Some("prometheus") => {
            return Ok(Reply::Text(200, state.metrics.render_prometheus()))
        }
        Route::Metrics => (200, state.metrics.to_json()),
        Route::Export(id) => return export_route(state, request, id, query),
        Route::Healthz => (
            200,
            json!({
                "status": "ok",
                "models": state.registry.len(),
                "shutting_down": state.shutting_down.load(Ordering::SeqCst),
                "draining": state.draining.load(Ordering::SeqCst),
            }),
        ),
        Route::ListModels => (200, list_models(state)),
        Route::LoadModel => load_model_route(state, &request.body)?,
        Route::Estimate => estimate_route(state, &request.body, telemetry)?,
        // New background work is refused while shutting down or draining.
        Route::Generate | Route::Train if state.shutting_down.load(Ordering::SeqCst) => {
            return Err(ServeError::ShuttingDown)
        }
        Route::Generate | Route::Train if state.draining.load(Ordering::SeqCst) => {
            return Err(ServeError::Draining)
        }
        Route::Generate => generate_route(state, &request.body)?,
        Route::Train => train_route(state, &request.body, query)?,
        Route::Rollback(name) => rollback_route(state, name)?,
        Route::Job(id) => match state.jobs.get(id) {
            Some(record) => (200, record.status_json()),
            None => return Err(ServeError::NotFound(format!("job {id}"))),
        },
        Route::Cancel(id) if state.jobs.cancel(id) => {
            (200, json!({"job_id": id, "cancelled": true}))
        }
        Route::Cancel(id) => return Err(ServeError::NotFound(format!("job {id}"))),
        Route::Quality => (200, state.quality.report()),
        Route::BuildInfo => (200, buildinfo_route(state)),
        Route::Flight => (200, flight_route(state, query)),
        Route::Slow => (200, slow_route(state)),
        Route::LogLevel => (200, json!({"level": log_level_name(sam_obs::log_level())})),
        Route::SetLogLevel => loglevel_route(&request.body)?,
        Route::Drain => drain_route(state)?,
        Route::Resume => {
            state.draining.store(false, Ordering::SeqCst);
            (200, json!({"draining": false}))
        }
        Route::Topology | Route::Join | Route::Leave => return Err(Route::not_found(path)),
    };
    Ok(Reply::Json(status, body))
}

fn error_reply(e: ServeError) -> Reply {
    Reply::Json(e.status(), json!({"error": e.to_string()}))
}

/// `GET /debug/buildinfo` — which build is serving, for how long, and how
/// the flight recorder is doing.
fn buildinfo_route(state: &ServerState) -> Value {
    json!({
        "version": env!("CARGO_PKG_VERSION"),
        "git_sha": env!("SAM_GIT_SHA"),
        "uptime_seconds": state.metrics.started.elapsed().as_secs_f64(),
        "models": state.registry.len(),
        "flight": {
            "capacity": state.flight.capacity(),
            "total": state.flight.total(),
            "dropped": state.flight.dropped(),
        },
    })
}

/// `GET /debug/flight?last=N` — the last N request events (default 50),
/// oldest first.
fn flight_route(state: &ServerState, query: &str) -> Value {
    let last = query_param(query, "last")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(50);
    let events: Vec<Value> = state
        .flight
        .recent(last)
        .iter()
        .map(|e| {
            json!({
                "seq": e.seq,
                "ts_ms": e.ts_ms,
                "trace_id": e.trace_id,
                "endpoint": e.endpoint.as_str(),
                "model_version": e.model_version,
                "batch_size": e.batch_size,
                "cache": e.cache.as_str(),
                "latency_ms": e.latency_ns as f64 / 1e6,
                "status": e.status,
            })
        })
        .collect();
    json!({
        "capacity": state.flight.capacity(),
        "total": state.flight.total(),
        "dropped": state.flight.dropped(),
        "events": Value::Array(events),
    })
}

/// `GET /debug/slow` — requests that exceeded the slow-query threshold.
fn slow_route(state: &ServerState) -> Value {
    let entries: Vec<Value> = state
        .slow
        .entries()
        .iter()
        .map(|e| {
            json!({
                "ts_ms": e.ts_ms,
                "trace_id": e.trace_id,
                "latency_ms": e.latency_ms,
                "model": e.model.clone(),
                "detail": e.detail.clone(),
            })
        })
        .collect();
    json!({
        "threshold_ms": state.config.slow_query_ms,
        "entries": Value::Array(entries),
    })
}

fn log_level_name(level: sam_obs::LogLevel) -> &'static str {
    match level {
        sam_obs::LogLevel::Silent => "silent",
        sam_obs::LogLevel::Info => "info",
        sam_obs::LogLevel::Debug => "debug",
    }
}

/// `PUT /debug/loglevel` with `{"level": "silent"|"info"|"debug"}` —
/// change the process log level without a restart.
fn loglevel_route(body: &str) -> Result<(u16, Value), ServeError> {
    let doc = parse_body(body)?;
    let level: sam_obs::LogLevel = str_field(&doc, "level")?
        .parse()
        .map_err(ServeError::BadRequest)?;
    sam_obs::set_log_level(level);
    Ok((200, json!({"level": log_level_name(level)})))
}

/// `GET /jobs/{id}/export?relation=R[&format=csv|jsonl]` — resolve the
/// job's result database, the requested relation and format, and the
/// content coding the client accepts (gzip preferred over deflate; identity
/// when the client sent no `Accept-Encoding`); the connection handler does
/// the actual streaming.
///
/// A `Range: bytes=N-` header resumes an interrupted download of a
/// completed job: the response is `206 Partial Content` with
/// `Content-Range: bytes N-(total-1)/total`, carrying exactly the byte
/// suffix of the identity serialization (row output is deterministic, so
/// the suffix continues the interrupted stream bit-for-bit). Ranges
/// address identity bytes, so ranged responses ignore `Accept-Encoding`.
/// `N` at or past the end is `416` with `Content-Range: bytes */total`.
fn export_route(
    state: &ServerState,
    request: &Request,
    id: u64,
    query: &str,
) -> Result<Reply, ServeError> {
    let record = state
        .jobs
        .get(id)
        .ok_or_else(|| ServeError::NotFound(format!("job {id}")))?;
    if record.training.is_some() {
        return Err(ServeError::Conflict(format!(
            "job {id} is a training job: it has no relations to export"
        )));
    }
    let format = match query_param(query, "format") {
        None | Some("csv") => ExportFormat::Csv,
        Some("jsonl") => ExportFormat::Jsonl,
        Some(other) => {
            return Err(ServeError::BadRequest(format!(
                "unsupported export format '{other}' (csv or jsonl)"
            )))
        }
    };
    let db = record.result_database().ok_or_else(|| {
        ServeError::Conflict(format!(
            "job {id} is not done (state: {})",
            record.state_label()
        ))
    })?;
    let relation = query_param(query, "relation")
        .ok_or_else(|| ServeError::BadRequest("missing query parameter 'relation'".to_string()))?;
    let table_index = db
        .tables()
        .iter()
        .position(|t| t.name() == relation)
        .ok_or_else(|| ServeError::NotFound(format!("relation '{relation}' in job {id}")))?;
    let range = match request.range_start {
        Some(start) => {
            let total = serialized_len(&db.tables()[table_index], format).map_err(|e| {
                ServeError::Internal(format!("cannot size export of '{relation}': {e}"))
            })?;
            if start >= total {
                return Ok(Reply::RangeNotSatisfiable { total });
            }
            Some(ExportRange { start, total })
        }
        None => None,
    };
    // Byte ranges address the identity representation; a per-request
    // compression stream has no stable offsets, so ranged responses skip
    // coding negotiation entirely.
    let coding = if range.is_some() {
        None
    } else if request.accepts_encoding("gzip") {
        Some(Coding::Gzip)
    } else if request.accepts_encoding("deflate") {
        Some(Coding::Deflate)
    } else {
        None
    };
    Ok(Reply::Export {
        db,
        table_index,
        format,
        coding,
        range,
    })
}

fn list_models(state: &ServerState) -> Value {
    let models: Vec<Value> = state
        .registry
        .list()
        .iter()
        .map(|entry| {
            json!({
                "name": entry.name.clone(),
                "version": entry.version,
                "tables": entry.table_names(),
            })
        })
        .collect();
    json!({"models": Value::Array(models)})
}

fn load_model_route(state: &ServerState, body: &str) -> Result<(u16, Value), ServeError> {
    let doc = parse_body(body)?;
    let name = str_field(&doc, "name")?;
    let path = str_field(&doc, "path")?;
    // Optional directory of `{table}.csv` reference relations: with them
    // attached, the quality monitor scores this model's sampled estimates
    // against exact cardinalities (without them it does not score it).
    let data = doc.get("data").and_then(Value::as_str);
    let version = state.registry.load_file_with_data(name, path, data)?;
    Ok((200, json!({"name": name, "version": version})))
}

fn estimate_route(
    state: &ServerState,
    body: &str,
    telemetry: &mut Telemetry,
) -> Result<(u16, Value), ServeError> {
    let started = Instant::now();
    let result = run_estimate(state, body, started, telemetry);
    match &result {
        Ok(_) => {
            state.metrics.estimates_ok.inc();
            let latency = started.elapsed();
            state.metrics.estimate_latency.record(latency);
            // Exemplar: link this request's latency bucket to its trace id,
            // so a spike in the histogram points straight at a flight-recorder
            // event to pull up.
            if let Some(trace_id) = sam_obs::current_trace_id() {
                state
                    .metrics
                    .estimate_exemplars
                    .observe(latency.as_nanos() as u64, trace_id);
            }
        }
        Err(ServeError::Overloaded) => state.metrics.rejected_overload.inc(),
        Err(ServeError::DeadlineExceeded) => state.metrics.deadline_exceeded.inc(),
        Err(_) => state.metrics.estimate_errors.inc(),
    }
    result
}

fn run_estimate(
    state: &ServerState,
    body: &str,
    started: Instant,
    telemetry: &mut Telemetry,
) -> Result<(u16, Value), ServeError> {
    let doc = parse_body(body)?;
    let model_name = str_field(&doc, "model")?;
    let sql = str_field(&doc, "sql")?;
    let samples = opt_u64(&doc, "samples")?
        .unwrap_or(state.config.default_samples as u64)
        .clamp(1, MAX_SAMPLES as u64) as usize;
    let seed = opt_u64(&doc, "seed")?.unwrap_or(0);
    let timeout_ms = opt_u64(&doc, "timeout_ms")?
        .unwrap_or(state.config.default_timeout_ms)
        .max(1);

    let entry = state
        .registry
        .get(model_name)
        .ok_or_else(|| ServeError::NotFound(format!("model '{model_name}'")))?;
    telemetry.model_version = entry.version;
    telemetry.slow_detail = Some((entry.name.clone(), sql.to_string()));
    let query =
        parse_query(sql).map_err(|e| ServeError::BadRequest(format!("invalid SQL: {e}")))?;

    // Estimation is deterministic in this key, so a cached answer is the
    // answer; the version component makes hot swaps self-invalidating.
    let cache_key = EstimateKey {
        model: entry.name.clone(),
        version: entry.version,
        query: query.canonical_string(),
        samples,
        seed,
    };
    if let Some(estimate) = state.cache.get(&cache_key) {
        state.metrics.cache_hits.inc();
        telemetry.cache = CacheOutcome::Hit;
        let trace_id = sam_obs::current_trace_id().map_or(Value::Null, |id| json!(id));
        return Ok((
            200,
            json!({
                "model": entry.name.clone(),
                "model_version": entry.version,
                "estimate": estimate,
                "samples": samples,
                "batch_size": 0,
                "cached": true,
                "latency_ms": started.elapsed().as_secs_f64() * 1e3,
                "trace_id": trace_id,
            }),
        ));
    }
    state.metrics.cache_misses.inc();
    telemetry.cache = CacheOutcome::Miss;

    let deadline = started + Duration::from_millis(timeout_ms);
    let _admitted = admit(state)?;
    let estimate = compute_estimate(state, &entry, &query, samples, seed, deadline)?;
    state.cache.insert(cache_key, estimate);
    telemetry.batch_size = 1;
    let trace_id_num = sam_obs::current_trace_id();
    // Only a model with reference relations is quality-scored.
    if entry.reference.is_some() && state.quality.should_sample() {
        state.quality.submit(QualityTask {
            entry: Arc::clone(&entry),
            query,
            estimate,
            trace_id: trace_id_num.unwrap_or(0),
        });
    }
    let trace_id = trace_id_num.map_or(Value::Null, |id| json!(id));
    Ok((
        200,
        json!({
            "model": entry.name.clone(),
            "model_version": entry.version,
            "estimate": estimate,
            "samples": samples,
            "batch_size": 1,
            "cached": false,
            "latency_ms": started.elapsed().as_secs_f64() * 1e3,
            "trace_id": trace_id,
        }),
    ))
}

/// A slot among the [`ServeConfig::queue_capacity`] estimates admitted at
/// once, given back on drop.
struct Admitted<'a>(&'a AtomicUsize);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Admit one more estimate, or answer 429 when `queue_capacity` are already
/// waiting for their model or computing.
fn admit(state: &ServerState) -> Result<Admitted<'_>, ServeError> {
    let admitted = Admitted(&state.in_flight);
    if state.in_flight.fetch_add(1, Ordering::AcqRel) >= state.config.queue_capacity.max(1) {
        return Err(ServeError::Overloaded);
    }
    Ok(admitted)
}

/// Run one estimate on this thread under the entry's estimator. The
/// deadline ends the wait for the estimator and the pass alike (504). A
/// panic inside the pass is contained: it answers 500, counts in
/// `worker_panics`, dumps the flight recorder, and the entry gets a fresh
/// estimator, since the panicked pass may have left its trie half-written.
fn compute_estimate(
    state: &ServerState,
    entry: &ModelEntry,
    query: &Query,
    samples: usize,
    seed: u64,
    deadline: Instant,
) -> Result<f64, ServeError> {
    let mut estimator = entry
        .estimator
        .take_before(deadline)
        .ok_or(ServeError::DeadlineExceeded)?;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut rng = StdRng::seed_from_u64(seed);
        estimator.estimate_before(query, samples, &mut rng, deadline)
    }));
    match result {
        Ok(Ok(estimate)) => {
            let metrics = &state.metrics;
            metrics.batches.inc();
            metrics.batched_requests.inc();
            metrics.mean_batch_size.set(1.0);
            Ok(estimate)
        }
        Ok(Err(sam_ar::ArError::DeadlineExceeded)) => Err(ServeError::DeadlineExceeded),
        Ok(Err(e)) => Err(ServeError::BadRequest(e.to_string())),
        Err(payload) => {
            *estimator = sam_ar::Estimator::new(entry.trained.model().clone());
            state.metrics.worker_panics.inc();
            let msg = crate::sync::panic_message(payload.as_ref());
            // The requests leading up to a crash are the context a
            // post-mortem needs; preserve them in the logs right away.
            state
                .flight
                .dump_stderr(50, &format!("estimate panic: {msg}"));
            Err(ServeError::Internal(format!("estimation panicked: {msg}")))
        }
    }
}

fn generate_route(state: &ServerState, body: &str) -> Result<(u16, Value), ServeError> {
    let doc = parse_body(body)?;
    let model_name = str_field(&doc, "model")?;
    let foj_samples = opt_u64(&doc, "foj_samples")?
        .unwrap_or(2_000)
        .clamp(1, MAX_FOJ_SAMPLES as u64) as usize;
    let batch = opt_u64(&doc, "batch")?.unwrap_or(256).max(1) as usize;
    let seed = opt_u64(&doc, "seed")?.unwrap_or(0);
    let entry = state
        .registry
        .get(model_name)
        .ok_or_else(|| ServeError::NotFound(format!("model '{model_name}'")))?;
    let config = GenerationConfig {
        foj_samples,
        batch,
        seed,
        strategy: JoinKeyStrategy::GroupAndMerge,
    };
    let id = state.jobs.spawn(entry, config);
    Ok((
        202,
        json!({"job_id": id, "status_url": format!("/jobs/{id}")}),
    ))
}

/// `POST /admin/drain` — quiesce this worker for a router rebalance: stop
/// accepting generate/train work (503 + `Retry-After` until
/// `POST /admin/resume`), join every in-flight job, and checkpoint the
/// journal so a new owner of this shard's store resumes from a compact,
/// fully-committed log. Estimates and reads keep working throughout.
/// Idempotent; blocks until in-flight work lands.
fn drain_route(state: &ServerState) -> Result<(u16, Value), ServeError> {
    state.draining.store(true, Ordering::SeqCst);
    state.jobs.drain();
    let mut compacted = 0;
    if let Some(journal) = state.jobs.journal() {
        compacted = journal.compact()?;
    }
    Ok((
        200,
        json!({
            "draining": true,
            "journal_events_compacted": compacted,
        }),
    ))
}

/// `POST /train?model=M&...` — accept a streamed labelled-workload body
/// (the interchange format; gzip/deflate request coding handled upstream in
/// [`http`]), split off the holdout slice, and start a training job. `202`
/// with the job id; progress and verdict at `GET /jobs/{id}`.
fn train_route(
    state: &Arc<ServerState>,
    body: &str,
    query: &str,
) -> Result<(u16, Value), ServeError> {
    let spec = TrainSpec::from_query(query)?;
    let incumbent = state.registry.get(&spec.model).ok_or_else(|| {
        ServeError::NotFound(format!(
            "model '{}' (register it via POST /models before retraining)",
            spec.model
        ))
    })?;
    let split = training::split_workload(body, spec.holdout, spec.seed)?;
    let stats = resolve_stats(&spec, &incumbent)?;
    let id = state.jobs.allocate_id();
    if let Some(journal) = state.jobs.journal() {
        // Persist-then-commit: the workload split lands on disk before the
        // accepted event, so an accepted record is always resumable.
        training::persist_workload(journal, id, &split)?;
        journal.train_accepted(id, &spec.model, incumbent.version, &spec.to_value());
    }
    training::spawn(
        &state.jobs,
        TrainJob {
            id,
            spec,
            incumbent,
            split,
            stats,
            registry: Arc::clone(&state.registry),
            promote_max_qerror: state.config.promote_max_qerror,
        },
    );
    Ok((
        202,
        json!({"job_id": id, "status_url": format!("/jobs/{id}")}),
    ))
}

/// Statistics source for retraining: an explicit `data=<dir>` of reference
/// CSVs wins; otherwise the incumbent's attached reference database.
fn resolve_stats(spec: &TrainSpec, incumbent: &ModelEntry) -> Result<DatabaseStats, ServeError> {
    if let Some(dir) = &spec.data {
        let db =
            crate::registry::load_reference_database(incumbent.trained.db_schema(), dir.as_ref())?;
        return Ok(DatabaseStats::from_database(&db));
    }
    if let Some(db) = &incumbent.reference {
        return Ok(DatabaseStats::from_database(db));
    }
    Err(ServeError::BadRequest(format!(
        "no statistics source for retraining '{}': pass data=<dir> or register the model with \
         reference data",
        spec.model
    )))
}

/// `POST /models/{name}/rollback` — restore the most recently superseded
/// version under a new version number (see
/// [`crate::registry::ModelRegistry::rollback`]); journaled so the restore
/// replays across restarts.
fn rollback_route(state: &ServerState, name: &str) -> Result<(u16, Value), ServeError> {
    let (version, restored_from) = state.registry.rollback(name)?;
    if let Some(journal) = state.jobs.journal() {
        let id = state.jobs.allocate_id();
        journal.rollback(id, name, restored_from, version);
    }
    state.metrics.rollbacks.inc();
    Ok((
        200,
        json!({"model": name, "version": version, "restored_from": restored_from}),
    ))
}

fn parse_body(body: &str) -> Result<Value, ServeError> {
    if body.trim().is_empty() {
        return Err(ServeError::BadRequest("missing JSON body".to_string()));
    }
    serde_json::parse_value(body).map_err(|e| ServeError::BadRequest(format!("invalid JSON: {e}")))
}

fn str_field<'a>(doc: &'a Value, key: &str) -> Result<&'a str, ServeError> {
    doc.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| ServeError::BadRequest(format!("missing string field '{key}'")))
}

fn opt_u64(doc: &Value, key: &str) -> Result<Option<u64>, ServeError> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) if v.is_null() => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ServeError::BadRequest(format!("field '{key}' must be a non-negative integer"))
        }),
    }
}
