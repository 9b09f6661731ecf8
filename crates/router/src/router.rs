//! The router itself: accept loop, request routing, worker supervision,
//! and draining rebalance.
//!
//! The router owns no model state. It parses every request path with
//! [`Route::parse`] and maps the route to the worker slot that owns it —
//! by the `model` field for estimate/generate/train,
//! by the job-id range for `/jobs/*`, by fan-out for `/metrics`,
//! `/models`, and `/quality` — and proxies the existing HTTP/1.1 surface
//! unchanged. Managed workers are spawned, health-probed, and restarted
//! with bounded exponential backoff; while a shard is down or draining the
//! router answers `503` with `Retry-After` instead of hanging, and retries
//! idempotent requests once against a recovered worker.

use crate::metrics::RouterMetrics;
use crate::proxy::{self, ConnPool};
use crate::ring::HashRing;
use crate::worker::{
    job_id_base, restart_backoff, slot_for_job, spawn_worker, ModelSpec, WorkerHealth, WorkerSpec,
};
use sam_obs::Endpoint;
use sam_serve::http::{
    self, build_request, query_param, split_target, Acceptor, Request, Response, Route,
};
use sam_serve::sync::Lock;
use sam_serve::ServeError;
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a client connection may sit idle between requests before the
/// router closes it (silently, like a worker does).
const CLIENT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Router tunables.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Router bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker launch command: program plus leading args (e.g.
    /// `["sam-cli", "serve"]`). May be empty when every slot is external.
    pub worker_cmd: Vec<String>,
    /// Managed worker slots spawned at startup (`0..workers`).
    pub workers: usize,
    /// Initial model placements.
    pub models: Vec<ModelSpec>,
    /// Root for per-shard job stores; slot `s` uses `store_root/shard-s`.
    pub store_root: PathBuf,
    /// Extra flags appended to every managed worker's command line.
    pub worker_flags: Vec<String>,
    /// Per-slot overrides (index = slot): external address, store dir,
    /// first-spawn environment.
    pub specs: Vec<WorkerSpec>,
    /// Health probe period.
    pub health_interval_ms: u64,
    /// Connect + I/O timeout of one health probe.
    pub probe_timeout_ms: u64,
    /// Connect + I/O timeout of a proxied request.
    pub proxy_timeout_ms: u64,
    /// First restart backoff; doubles per consecutive failure.
    pub restart_backoff_ms: u64,
    /// Restart backoff ceiling.
    pub restart_backoff_cap_ms: u64,
    /// How long an idempotent request waits for a shard to recover before
    /// its one retry (also the advertised `Retry-After` is ~1s regardless).
    pub retry_wait_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            worker_cmd: Vec::new(),
            workers: 2,
            models: Vec::new(),
            store_root: PathBuf::from("sam-shards"),
            worker_flags: Vec::new(),
            specs: Vec::new(),
            health_interval_ms: 200,
            probe_timeout_ms: 1_000,
            proxy_timeout_ms: 120_000,
            restart_backoff_ms: 100,
            restart_backoff_cap_ms: 5_000,
            retry_wait_ms: 2_000,
        }
    }
}

/// Where a model lives: its (re-loadable) spec and owning slot.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The spec needed to (re)load the model anywhere: checkpoint path and
    /// optional reference data.
    pub spec: ModelSpec,
    /// Owning worker slot.
    pub slot: usize,
}

/// One worker slot's live runtime state.
pub struct WorkerRuntime {
    /// Slot index (stable identity; survives process restarts).
    pub slot: usize,
    spec: WorkerSpec,
    pool: ConnPool,
    child: Lock<Option<Child>>,
    health: Lock<WorkerHealth>,
    restarts: AtomicU64,
    spawned_once: AtomicBool,
    draining: AtomicBool,
    restart_attempt: AtomicU64,
    restart_not_before: Lock<Option<Instant>>,
}

impl WorkerRuntime {
    fn new(slot: usize, spec: WorkerSpec, config: &RouterConfig) -> WorkerRuntime {
        let addr = spec.external_addr.clone().unwrap_or_default();
        WorkerRuntime {
            slot,
            spec,
            pool: ConnPool::new(
                addr,
                Duration::from_millis(config.probe_timeout_ms.max(1)),
                Duration::from_millis(config.proxy_timeout_ms.max(1)),
            ),
            child: Lock::new(None),
            health: Lock::new(WorkerHealth::Starting),
            restarts: AtomicU64::new(0),
            spawned_once: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            restart_attempt: AtomicU64::new(0),
            restart_not_before: Lock::new(None),
        }
    }

    /// Whether the router spawned (and therefore restarts) this worker.
    pub fn is_managed(&self) -> bool {
        self.spec.external_addr.is_none()
    }

    /// Current health.
    pub fn health(&self) -> WorkerHealth {
        self.health.lock().clone()
    }

    /// Times this worker's process was respawned after dying.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Upstream address currently routed to.
    pub fn addr(&self) -> String {
        self.pool.addr()
    }

    /// OS pid of the managed child, if running.
    pub fn pid(&self) -> Option<u32> {
        self.child.lock().as_ref().map(Child::id)
    }

    fn set_health(&self, health: WorkerHealth) {
        *self.health.lock() = health;
    }
}

struct RouterState {
    config: RouterConfig,
    workers: Lock<BTreeMap<usize, Arc<WorkerRuntime>>>,
    ring: Lock<HashRing>,
    placement: Lock<BTreeMap<String, Placement>>,
    /// Models mid-rebalance: requests for them answer 503 + `Retry-After`
    /// until the move commits.
    moving: Lock<BTreeSet<String>>,
    metrics: RouterMetrics,
    shutting_down: Arc<AtomicBool>,
}

/// A running router. Dropping it shuts it down and kills managed workers.
pub struct Router {
    state: Arc<RouterState>,
    acceptor: Acceptor,
    health_thread: Lock<Option<JoinHandle<()>>>,
}

impl Router {
    /// Place models, spawn managed workers, bind, and start routing.
    ///
    /// # Errors
    ///
    /// Bind/spawn failures, a slot pin outside the pool, or a managed slot
    /// without a worker command.
    pub fn start(config: RouterConfig) -> std::io::Result<Router> {
        let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, m);
        if config.workers == 0 && config.specs.is_empty() {
            return Err(bad("router needs at least one worker slot".into()));
        }
        let slots = config.workers.max(config.specs.len());
        let mut ring = HashRing::new();
        for slot in 0..slots {
            ring.add_slot(slot);
        }
        let mut placement = BTreeMap::new();
        for spec in &config.models {
            let slot = match spec.pin {
                Some(pin) if pin < slots => pin,
                Some(pin) => {
                    return Err(bad(format!(
                        "model '{}' pinned to slot {pin}, but the pool has slots 0..{slots}",
                        spec.name
                    )))
                }
                None => ring.slot_for(&spec.name).expect("ring is non-empty"),
            };
            placement.insert(
                spec.name.clone(),
                Placement {
                    spec: spec.clone(),
                    slot,
                },
            );
        }

        let mut workers = BTreeMap::new();
        for slot in 0..slots {
            let mut spec = config.specs.get(slot).cloned().unwrap_or_default();
            if spec.external_addr.is_none() && spec.store_dir.is_none() {
                spec.store_dir = Some(config.store_root.join(format!("shard-{slot}")));
            }
            workers.insert(slot, Arc::new(WorkerRuntime::new(slot, spec, &config)));
        }

        let state = Arc::new(RouterState {
            config,
            workers: Lock::new(workers),
            ring: Lock::new(ring),
            placement: Lock::new(placement),
            moving: Lock::new(BTreeSet::new()),
            metrics: RouterMetrics::new(),
            shutting_down: Arc::new(AtomicBool::new(false)),
        });

        // Spawn every managed worker before accepting traffic; a spawn
        // failure tears down the ones already started.
        let initial: Vec<Arc<WorkerRuntime>> = state.workers.lock().values().cloned().collect();
        for worker in &initial {
            if worker.is_managed() {
                if let Err(e) = spawn_slot(&state, worker) {
                    for started in &initial {
                        kill_worker(started);
                    }
                    return Err(e);
                }
            }
        }

        let listener = TcpListener::bind(&state.config.addr)?;
        let conn_state = Arc::clone(&state);
        let acceptor = Acceptor::spawn(
            listener,
            "sam-router",
            Arc::clone(&state.shutting_down),
            move |stream| handle_connection(stream, &conn_state),
        )?;
        let health_state = Arc::clone(&state);
        let health_thread = std::thread::Builder::new()
            .name("sam-router-health".to_string())
            .spawn(move || health_loop(&health_state))?;
        Ok(Router {
            state,
            acceptor,
            health_thread: Lock::new(Some(health_thread)),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Snapshot of slot → runtime, for tests and the CLI.
    pub fn workers(&self) -> Vec<Arc<WorkerRuntime>> {
        self.state.workers.lock().values().cloned().collect()
    }

    /// Current placement snapshot (model → slot).
    pub fn placement(&self) -> BTreeMap<String, usize> {
        self.state
            .placement
            .lock()
            .iter()
            .map(|(name, p)| (name.clone(), p.slot))
            .collect()
    }

    /// Router metrics handle.
    pub fn metrics(&self) -> &RouterMetrics {
        &self.state.metrics
    }

    /// Join a new managed worker slot and rebalance ring-assigned models
    /// onto it with draining quiesce. Returns the new slot.
    ///
    /// # Errors
    ///
    /// A human-readable message if the worker cannot be spawned; the
    /// topology is left unchanged in that case.
    pub fn join_worker(&self) -> Result<usize, String> {
        join_worker(&self.state)
    }

    /// Remove worker `slot`. With `replace` the shard is quiesced and its
    /// process replaced by a fresh one on the same store (the new owner
    /// resumes every journaled job); without, the shard is drained, its
    /// models are reassigned across the remaining ring, and the slot is
    /// retired.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown slots or a failed drain.
    pub fn leave_worker(&self, slot: usize, replace: bool) -> Result<(), String> {
        leave_worker(&self.state, slot, replace)
    }

    /// Graceful shutdown: stop accepting, join handlers (idle keep-alive
    /// connections are closed within a poll tick), kill managed workers
    /// (their journals make this safe — accepted jobs resume on the next
    /// start from the same stores). Idempotent; runs on drop.
    pub fn shutdown(&self) {
        self.acceptor.shutdown();
        if let Some(handle) = self.health_thread.lock().take() {
            let _ = handle.join();
        }
        for worker in self.state.workers.lock().values() {
            kill_worker(worker);
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Build the command-line args for (re)spawning `slot` from the current
/// placement.
fn worker_args(state: &RouterState, worker: &WorkerRuntime) -> Vec<String> {
    let mut args = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
    if let Some(store) = &worker.spec.store_dir {
        args.push("--journal-dir".to_string());
        args.push(store.display().to_string());
    }
    args.push("--job-id-base".to_string());
    args.push(job_id_base(worker.slot).to_string());
    let models: Vec<String> = state
        .placement
        .lock()
        .values()
        .filter(|p| p.slot == worker.slot)
        .map(|p| p.spec.to_serve_spec())
        .collect();
    if !models.is_empty() {
        args.push("--models".to_string());
        args.push(models.join(","));
    }
    args.extend(state.config.worker_flags.iter().cloned());
    args
}

/// Spawn (or respawn) the managed worker for a slot and point its pool at
/// the fresh address. First spawn applies the spec's environment (the
/// crash-arming hook); respawns never do.
fn spawn_slot(state: &RouterState, worker: &WorkerRuntime) -> std::io::Result<()> {
    if state.config.worker_cmd.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "slot {} is managed but no worker command is set",
                worker.slot
            ),
        ));
    }
    if let Some(store) = &worker.spec.store_dir {
        std::fs::create_dir_all(store)?;
    }
    let args = worker_args(state, worker);
    let first = !worker.spawned_once.swap(true, Ordering::SeqCst);
    let env: &[(String, String)] = if first { &worker.spec.env } else { &[] };
    let process = spawn_worker(&state.config.worker_cmd, &args, env)?;
    worker.pool.reset(process.addr.clone());
    *worker.child.lock() = Some(process.child);
    worker.set_health(WorkerHealth::Starting);
    worker.restart_attempt.store(0, Ordering::Relaxed);
    *worker.restart_not_before.lock() = None;
    Ok(())
}

fn kill_worker(worker: &WorkerRuntime) {
    if let Some(mut child) = worker.child.lock().take() {
        let _ = child.kill();
        let _ = child.wait();
    }
    worker.pool.clear();
}

fn placed_count(state: &RouterState, slot: usize) -> usize {
    state
        .placement
        .lock()
        .values()
        .filter(|p| p.slot == slot)
        .count()
}

fn health_loop(state: &Arc<RouterState>) {
    let interval = Duration::from_millis(state.config.health_interval_ms.max(10));
    while !state.shutting_down.load(Ordering::SeqCst) {
        let workers: Vec<Arc<WorkerRuntime>> = state.workers.lock().values().cloned().collect();
        for worker in workers {
            if state.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            supervise(state, &worker);
        }
        std::thread::sleep(interval);
    }
}

/// One supervision pass over one worker: reap a dead child (scheduling its
/// respawn with exponential backoff), attempt a due respawn, otherwise
/// probe health.
fn supervise(state: &Arc<RouterState>, worker: &Arc<WorkerRuntime>) {
    if matches!(worker.health(), WorkerHealth::Stopped) {
        return;
    }
    if worker.is_managed() {
        let died = {
            let mut child = worker.child.lock();
            match child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                Some(_status) => {
                    *child = None;
                    true
                }
                None => false,
            }
        };
        if died {
            worker.pool.clear();
            let attempt = worker.restart_attempt.load(Ordering::Relaxed) as u32;
            worker.set_health(WorkerHealth::Restarting { attempt });
            *worker.restart_not_before.lock() = Some(
                Instant::now()
                    + restart_backoff(
                        state.config.restart_backoff_ms,
                        state.config.restart_backoff_cap_ms,
                        attempt,
                    ),
            );
        }
        let due = {
            let not_before = worker.restart_not_before.lock();
            matches!(*not_before, Some(t) if Instant::now() >= t)
        };
        if due {
            match spawn_slot(state, worker) {
                Ok(()) => {
                    worker.restarts.fetch_add(1, Ordering::Relaxed);
                    state.metrics.worker_restarts.inc();
                }
                Err(_) => {
                    let attempt = worker.restart_attempt.fetch_add(1, Ordering::Relaxed) as u32 + 1;
                    worker.set_health(WorkerHealth::Restarting { attempt });
                    *worker.restart_not_before.lock() = Some(
                        Instant::now()
                            + restart_backoff(
                                state.config.restart_backoff_ms,
                                state.config.restart_backoff_cap_ms,
                                attempt,
                            ),
                    );
                    return;
                }
            }
        }
        if worker.child.lock().is_none() {
            // Still waiting out the backoff window.
            return;
        }
    }
    worker.set_health(probe_worker(state, worker));
}

fn probe_worker(state: &RouterState, worker: &WorkerRuntime) -> WorkerHealth {
    proxy::probe(
        &worker.pool.addr(),
        Duration::from_millis(state.config.probe_timeout_ms.max(1)),
        placed_count(state, worker.slot),
    )
}

/// Client-side writer that records whether any byte has gone out — the
/// retry-safety gate for streamed relays.
struct TrackedWriter<W: Write> {
    inner: W,
    wrote: bool,
}

impl<W: Write> Write for TrackedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if !buf.is_empty() {
            self.wrote = true;
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

fn handle_connection(stream: &TcpStream, state: &Arc<RouterState>) {
    let mut writer = std::io::BufWriter::new(stream);
    http::serve_connection(
        stream,
        &state.shutting_down,
        CLIENT_IDLE_TIMEOUT,
        usize::MAX,
        |_started, request: Result<Request, ServeError>, keep_alive| match request {
            Ok(request) => handle_request(state, &request, &mut writer, keep_alive),
            Err(e) => respond_error(&mut writer, &e, keep_alive),
        },
    );
}

fn respond_json<W: Write>(
    out: &mut W,
    status: u16,
    body: &Value,
    keep_alive: bool,
) -> std::io::Result<bool> {
    let text = serde_json::to_string(body).unwrap_or_else(|_| "{}".to_string());
    http::write_json_response(out, status, &text, keep_alive)?;
    Ok(!keep_alive)
}

fn respond_error<W: Write>(out: &mut W, e: &ServeError, keep_alive: bool) -> std::io::Result<bool> {
    respond_json(
        out,
        e.status(),
        &json!({"error": e.to_string()}),
        keep_alive,
    )
}

/// Re-emit a buffered upstream response to the client, preserving status,
/// content type, and any upstream `Retry-After`.
fn respond_upstream<W: Write>(
    out: &mut W,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<bool> {
    let retry = resp
        .header("retry-after")
        .map(|after| ("Retry-After", after));
    http::write_response(
        out,
        resp.status,
        resp.header("content-type").unwrap_or("application/json"),
        retry.as_slice(),
        &resp.body,
        keep_alive,
    )?;
    Ok(!keep_alive)
}

fn unavailable<W: Write>(
    state: &RouterState,
    out: &mut W,
    detail: &str,
    keep_alive: bool,
) -> std::io::Result<bool> {
    state.metrics.unavailable.inc();
    respond_json(out, 503, &json!({"error": detail}), keep_alive)
}

fn worker_for_slot(state: &RouterState, slot: usize) -> Option<Arc<WorkerRuntime>> {
    state.workers.lock().get(&slot).cloned()
}

fn slot_for_model(state: &RouterState, model: &str) -> Option<usize> {
    state.placement.lock().get(model).map(|p| p.slot)
}

/// Wait until `worker` reports healthy (or the deadline passes).
fn wait_for_healthy(worker: &WorkerRuntime, deadline: Duration) -> bool {
    let until = Instant::now() + deadline;
    loop {
        if matches!(worker.health(), WorkerHealth::Healthy) {
            return true;
        }
        if Instant::now() >= until {
            return false;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Proxy one request to a slot. A job export streams through unbuffered; a
/// failure before any client byte answers 503, one after the head leaves
/// the client a truncated chunked stream (which it detects). Every other
/// request is buffered, with the single-retry policy for idempotent ones
/// ([`Route::idempotent`]): on a transport failure, wait for the supervisor
/// to bring the shard back and send exactly once more.
fn proxy_to_slot<W: Write>(
    state: &RouterState,
    slot: usize,
    request: &Request,
    route: Route<'_>,
    out: &mut W,
    keep_alive: bool,
) -> std::io::Result<bool> {
    let idempotent = route.idempotent();
    let Some(worker) = worker_for_slot(state, slot) else {
        return respond_json(
            out,
            404,
            &json!({"error": format!("no shard owns slot {slot} (worker departed)")}),
            keep_alive,
        );
    };
    if worker.draining.load(Ordering::SeqCst) {
        return unavailable(
            state,
            out,
            &format!("shard {slot} is draining; retry shortly"),
            keep_alive,
        );
    }
    if !matches!(worker.health(), WorkerHealth::Healthy) {
        // Give a recovering shard one grace window before failing
        // idempotent traffic; fail non-idempotent traffic fast so the
        // client backs off (Retry-After) rather than risking a duplicate
        // accept.
        if !idempotent
            || !wait_for_healthy(&worker, Duration::from_millis(state.config.retry_wait_ms))
        {
            return unavailable(
                state,
                out,
                &format!("shard {slot} is {}; retry shortly", worker.health().label()),
                keep_alive,
            );
        }
    }
    let upstream_request = render_upstream(request);
    if let Route::Export(_) = route {
        let mut tracked = TrackedWriter {
            inner: out,
            wrote: false,
        };
        return match proxy::relay(&worker.pool, &upstream_request, &mut tracked, keep_alive) {
            Ok((_status, close)) => {
                state.metrics.proxied_ok.inc();
                Ok(close)
            }
            Err(e) if !tracked.wrote => {
                worker.pool.clear();
                state.metrics.upstream_errors.inc();
                unavailable(
                    state,
                    tracked.inner,
                    &format!("shard {slot} unreachable ({e}); retry shortly"),
                    keep_alive,
                )
            }
            Err(e) => Err(e),
        };
    }
    match worker.pool.exchange(&upstream_request) {
        Ok(resp) => {
            state.metrics.proxied_ok.inc();
            respond_upstream(out, &resp, keep_alive)
        }
        Err(first_err) => {
            worker.pool.clear();
            if idempotent
                && wait_for_healthy(&worker, Duration::from_millis(state.config.retry_wait_ms))
            {
                state.metrics.retries.inc();
                if let Ok(resp) = worker.pool.exchange(&upstream_request) {
                    state.metrics.proxied_ok.inc();
                    return respond_upstream(out, &resp, keep_alive);
                }
            }
            state.metrics.upstream_errors.inc();
            unavailable(
                state,
                out,
                &format!("shard {slot} unreachable ({first_err}); retry shortly"),
                keep_alive,
            )
        }
    }
}

/// Render `request` for the upstream worker, forwarding the headers that
/// matter there (content negotiation + resume).
fn render_upstream(request: &Request) -> Vec<u8> {
    let accept = request.accept_encoding.join(", ");
    let range = request.range_start.map(|start| format!("bytes={start}-"));
    let mut headers = Vec::new();
    if !accept.is_empty() {
        headers.push(("Accept-Encoding", accept.as_str()));
    }
    if let Some(range) = &range {
        headers.push(("Range", range.as_str()));
    }
    build_request(
        &request.method,
        &request.path,
        &headers,
        request.body.as_bytes(),
    )
}

fn handle_request<W: Write>(
    state: &Arc<RouterState>,
    request: &Request,
    out: &mut W,
    keep_alive: bool,
) -> std::io::Result<bool> {
    state.metrics.requests.inc();
    let (path, query) = split_target(&request.path);
    let route = match Route::parse(&request.method, path) {
        Ok(route) => route,
        Err(e) => return respond_error(out, &e, keep_alive),
    };
    // Training, quality and the `/debug/*` routes go to the shard of the
    // model their query names.
    let by_model =
        matches!(route, Route::Train | Route::Quality) || route.endpoint() == Endpoint::Debug;
    if let (true, Some(model)) = (by_model, query_param(query, "model")) {
        return route_by_model(state, model, request, route, out, keep_alive);
    }
    match route {
        Route::Healthz => respond_json(out, 200, &healthz_json(state), keep_alive),
        Route::Metrics => {
            if query_param(query, "format") == Some("prometheus") {
                let body = sam_obs::Registry::global().render_prometheus();
                http::write_response(
                    out,
                    200,
                    http::PROMETHEUS_TEXT,
                    &[],
                    body.as_bytes(),
                    keep_alive,
                )?;
                Ok(!keep_alive)
            } else {
                respond_json(out, 200, &merged_metrics(state), keep_alive)
            }
        }
        Route::ListModels => respond_json(out, 200, &merged_models(state), keep_alive),
        Route::LoadModel => load_model_via_router(state, request, out, keep_alive),
        Route::Rollback(name) => match slot_for_model(state, name) {
            Some(slot) => proxy_to_slot(state, slot, request, route, out, keep_alive),
            None => respond_json(
                out,
                404,
                &json!({"error": format!("model '{name}' is not placed on any shard")}),
                keep_alive,
            ),
        },
        Route::Estimate | Route::Generate => {
            route_by_body_model(state, request, route, out, keep_alive)
        }
        Route::Train => respond_json(
            out,
            400,
            &json!({"error": "POST /train requires model=<name> in the query"}),
            keep_alive,
        ),
        Route::Quality => respond_json(out, 200, &fanout_quality(state), keep_alive),
        Route::BuildInfo => respond_json(out, 200, &router_buildinfo(state), keep_alive),
        Route::Flight | Route::Slow | Route::LogLevel | Route::SetLogLevel => respond_json(
            out,
            400,
            &json!({"error": "debug routes need model=<name> to pick a shard (the router keeps no per-model state)"}),
            keep_alive,
        ),
        Route::Job(id) | Route::Export(id) | Route::Cancel(id) => {
            proxy_to_slot(state, slot_for_job(id), request, route, out, keep_alive)
        }
        Route::Topology => respond_json(out, 200, &topology_json(state), keep_alive),
        Route::Join => match join_worker(state) {
            Ok(slot) => respond_json(out, 200, &json!({"joined": slot}), keep_alive),
            Err(e) => respond_json(out, 500, &json!({"error": e}), keep_alive),
        },
        Route::Leave => {
            let slot = query_param(query, "slot").and_then(|v| v.parse::<usize>().ok());
            let replace = query_param(query, "replace") == Some("true");
            match slot {
                Some(slot) => match leave_worker(state, slot, replace) {
                    Ok(()) => respond_json(
                        out,
                        200,
                        &json!({"left": slot, "replaced": replace}),
                        keep_alive,
                    ),
                    Err(e) => respond_json(out, 409, &json!({"error": e}), keep_alive),
                },
                None => respond_json(
                    out,
                    400,
                    &json!({"error": "POST /admin/leave requires slot=<n>"}),
                    keep_alive,
                ),
            }
        }
        // A worker's own quiesce: the router drains through `/admin/leave`.
        Route::Drain | Route::Resume => respond_error(out, &Route::not_found(path), keep_alive),
    }
}

/// Route by a model name taken from the request body's `"model"` field.
fn route_by_body_model<W: Write>(
    state: &Arc<RouterState>,
    request: &Request,
    route: Route<'_>,
    out: &mut W,
    keep_alive: bool,
) -> std::io::Result<bool> {
    let model = serde_json::parse_value(&request.body)
        .ok()
        .and_then(|doc| doc.get("model").and_then(Value::as_str).map(str::to_string));
    match model {
        Some(model) => route_by_model(state, &model, request, route, out, keep_alive),
        None => respond_json(
            out,
            400,
            &json!({"error": "missing string field 'model'"}),
            keep_alive,
        ),
    }
}

fn route_by_model<W: Write>(
    state: &Arc<RouterState>,
    model: &str,
    request: &Request,
    route: Route<'_>,
    out: &mut W,
    keep_alive: bool,
) -> std::io::Result<bool> {
    if state.moving.lock().contains(model) {
        return unavailable(
            state,
            out,
            &format!("model '{model}' is mid-rebalance; retry shortly"),
            keep_alive,
        );
    }
    match slot_for_model(state, model) {
        Some(slot) => proxy_to_slot(state, slot, request, route, out, keep_alive),
        None => respond_json(
            out,
            404,
            &json!({"error": format!("model '{model}' is not placed on any shard (POST /models to load it)")}),
            keep_alive,
        ),
    }
}

/// `POST /models` through the router: assign a shard by the ring, forward,
/// and record the placement (with the spec needed to re-load the model on
/// worker restart or rebalance) once the owning worker confirms.
fn load_model_via_router<W: Write>(
    state: &Arc<RouterState>,
    request: &Request,
    out: &mut W,
    keep_alive: bool,
) -> std::io::Result<bool> {
    let Some(doc) = serde_json::parse_value(&request.body).ok() else {
        return respond_json(out, 400, &json!({"error": "invalid JSON body"}), keep_alive);
    };
    let (Some(name), Some(path)) = (
        doc.get("name").and_then(Value::as_str),
        doc.get("path").and_then(Value::as_str),
    ) else {
        return respond_json(
            out,
            400,
            &json!({"error": "POST /models needs string fields 'name' and 'path'"}),
            keep_alive,
        );
    };
    // The placement is re-sent on the worker's `--models` line at every
    // restart, so refuse here what that line cannot carry back.
    let data = doc.get("data").and_then(Value::as_str);
    let spec = match ModelSpec::placed(name, path, data) {
        Ok(spec) => spec,
        Err(e) => return respond_json(out, 400, &json!({"error": e}), keep_alive),
    };
    let slot = slot_for_model(state, name)
        .or_else(|| state.ring.lock().slot_for(name))
        .unwrap_or(0);
    let close = proxy_to_slot(state, slot, request, Route::LoadModel, out, keep_alive)?;
    // Record the placement optimistically: even if the load just failed,
    // re-loading on restart is idempotent and a later successful load of
    // the same name must land on the same shard anyway.
    state
        .placement
        .lock()
        .insert(name.to_string(), Placement { spec, slot });
    Ok(close)
}

fn worker_json(state: &RouterState, worker: &WorkerRuntime) -> Value {
    json!({
        "slot": worker.slot,
        "addr": worker.addr(),
        "health": worker.health().label(),
        "managed": worker.is_managed(),
        "restarts": worker.restarts(),
        "draining": worker.draining.load(Ordering::SeqCst),
        "pid": worker.pid().map_or(Value::Null, |p| json!(p)),
        "models": placed_count(state, worker.slot),
    })
}

fn healthz_json(state: &RouterState) -> Value {
    let workers: Vec<Value> = state
        .workers
        .lock()
        .values()
        .map(|w| worker_json(state, w))
        .collect();
    let healthy = workers
        .iter()
        .filter(|w| w.get("health").and_then(Value::as_str) == Some("healthy"))
        .count();
    json!({
        "status": if healthy == workers.len() { "ok" } else { "degraded" },
        "role": "router",
        "workers": Value::Array(workers),
        "models": state.placement.lock().len(),
        "shutting_down": state.shutting_down.load(Ordering::SeqCst),
    })
}

fn router_buildinfo(state: &RouterState) -> Value {
    json!({
        "version": env!("CARGO_PKG_VERSION"),
        "role": "router",
        "workers": state.workers.lock().len(),
        "models": state.placement.lock().len(),
    })
}

fn topology_json(state: &RouterState) -> Value {
    let workers: Vec<Value> = state
        .workers
        .lock()
        .values()
        .map(|w| worker_json(state, w))
        .collect();
    let placement: Vec<Value> = state
        .placement
        .lock()
        .iter()
        .map(
            |(name, p)| json!({"model": name.clone(), "slot": p.slot, "path": p.spec.path.clone()}),
        )
        .collect();
    let moving: Vec<Value> = state
        .moving
        .lock()
        .iter()
        .map(|m| Value::String(m.clone()))
        .collect();
    json!({
        "slots": state.ring.lock().slots(),
        "workers": Value::Array(workers),
        "placement": Value::Array(placement),
        "moving": Value::Array(moving),
    })
}

/// Fan one GET out to every healthy worker; returns `(slot, response)`.
fn fanout(state: &RouterState, path: &str) -> Vec<(usize, Response)> {
    let workers: Vec<Arc<WorkerRuntime>> = state.workers.lock().values().cloned().collect();
    let request = build_request("GET", path, &[], b"");
    let mut out = Vec::new();
    for worker in workers {
        if !matches!(worker.health(), WorkerHealth::Healthy) {
            continue;
        }
        state.metrics.fanouts.inc();
        if let Ok(resp) = worker.pool.exchange(&request) {
            out.push((worker.slot, resp));
        }
    }
    out
}

/// Merge JSON documents: numbers sum, objects merge recursively, anything
/// else first-wins. This is what makes the fan-out `/metrics` read like a
/// single server's counters.
fn merge_value(into: &mut Value, from: &Value) {
    match (into, from) {
        (Value::Object(a), Value::Object(b)) => {
            for (key, bv) in b {
                match a.iter_mut().find(|(k, _)| k == key) {
                    Some((_, av)) => merge_value(av, bv),
                    None => a.push((key.clone(), bv.clone())),
                }
            }
        }
        (Value::Number(_), Value::Number(_)) => {
            // Handled below — replace via arithmetic on f64.
        }
        _ => {}
    }
}

/// Post-order numeric sum for [`merge_value`] (objects handled there);
/// numbers need the extra pass because `merge_value` cannot rebind the
/// `into` enum variant while matching on it.
fn sum_numbers(into: &mut Value, from: &Value) {
    if let (Value::Object(a), Value::Object(b)) = (&mut *into, from) {
        for (key, bv) in b {
            if let Some((_, av)) = a.iter_mut().find(|(k, _)| k == key) {
                sum_numbers(av, bv);
            }
        }
        return;
    }
    let (Some(x), Some(y)) = (into.as_f64(), from.as_f64()) else {
        return;
    };
    *into = json!(x + y);
}

fn merged_metrics(state: &RouterState) -> Value {
    let responses = fanout(state, "/metrics");
    let mut merged = Value::Object(Vec::new());
    for (_slot, resp) in &responses {
        if let Ok(doc) = serde_json::parse_value(&resp.text()) {
            sum_numbers(&mut merged, &doc);
            merge_value(&mut merged, &doc);
        }
    }
    if let Value::Object(fields) = &mut merged {
        fields.push(("router".to_string(), state.metrics.to_json()));
        fields.push(("shards".to_string(), json!(responses.len())));
    }
    merged
}

fn merged_models(state: &RouterState) -> Value {
    let mut models: Vec<Value> = Vec::new();
    for (slot, resp) in fanout(state, "/models") {
        let Ok(doc) = serde_json::parse_value(&resp.text()) else {
            continue;
        };
        let Some(list) = doc.get("models").and_then(Value::as_array) else {
            continue;
        };
        for entry in list {
            if let Value::Object(fields) = entry {
                let mut fields = fields.clone();
                fields.push(("shard".to_string(), json!(slot)));
                models.push(Value::Object(fields));
            }
        }
    }
    json!({"models": Value::Array(models)})
}

fn fanout_quality(state: &RouterState) -> Value {
    let shards: Vec<Value> = fanout(state, "/quality")
        .into_iter()
        .map(|(slot, resp)| {
            let report = serde_json::parse_value(&resp.text()).unwrap_or(Value::Null);
            json!({"slot": slot, "report": report})
        })
        .collect();
    json!({"shards": Value::Array(shards)})
}

/// Ask a worker to quiesce: finish in-flight jobs, checkpoint the journal,
/// and reject new work until resumed.
fn drain_shard(worker: &WorkerRuntime) -> Result<(), String> {
    worker.draining.store(true, Ordering::SeqCst);
    let request = build_request("POST", "/admin/drain", &[], b"");
    match worker.pool.exchange(&request) {
        Ok(resp) if resp.status == 200 => Ok(()),
        Ok(resp) => Err(format!(
            "shard {} refused to drain: {} {}",
            worker.slot,
            resp.status,
            resp.text()
        )),
        Err(e) => Err(format!("shard {} drain failed: {e}", worker.slot)),
    }
}

fn resume_shard(worker: &WorkerRuntime) {
    let request = build_request("POST", "/admin/resume", &[], b"");
    let _ = worker.pool.exchange(&request);
    worker.draining.store(false, Ordering::SeqCst);
}

/// Join a fresh managed worker slot: plan the moved-model set from a ring
/// preview, quiesce the source shards, spawn the new owner with the moved
/// models, commit the ring + placement, resume the sources.
fn join_worker(state: &Arc<RouterState>) -> Result<usize, String> {
    let new_slot = state
        .workers
        .lock()
        .keys()
        .next_back()
        .map_or(0, |max| max + 1);
    // Plan: unpinned models whose ring ownership moves to the joiner.
    let moved: Vec<(String, Placement)> = {
        let ring = state.ring.lock();
        state
            .placement
            .lock()
            .iter()
            .filter(|(name, p)| {
                p.spec.pin.is_none() && ring.slot_for_with(name, new_slot) == Some(new_slot)
            })
            .map(|(name, p)| (name.clone(), p.clone()))
            .collect()
    };
    {
        let mut moving = state.moving.lock();
        for (name, _) in &moved {
            moving.insert(name.clone());
        }
    }
    let finish = |state: &RouterState, names: &[(String, Placement)]| {
        let mut moving = state.moving.lock();
        for (name, _) in names {
            moving.remove(name);
        }
    };

    // Quiesce every source shard that loses a model.
    let sources: BTreeSet<usize> = moved.iter().map(|(_, p)| p.slot).collect();
    let mut drained: Vec<Arc<WorkerRuntime>> = Vec::new();
    for &slot in &sources {
        if let Some(worker) = worker_for_slot(state, slot) {
            if let Err(e) = drain_shard(&worker) {
                for w in &drained {
                    resume_shard(w);
                }
                finish(state, &moved);
                return Err(e);
            }
            drained.push(worker);
        }
    }

    // Spawn the new owner with the moved models already on its command
    // line: its journal store is fresh, its models load at boot.
    let spec = WorkerSpec {
        store_dir: Some(state.config.store_root.join(format!("shard-{new_slot}"))),
        external_addr: None,
        env: Vec::new(),
    };
    let worker = Arc::new(WorkerRuntime::new(new_slot, spec, &state.config));
    {
        // Placement must describe the new world before spawn_slot computes
        // the worker's --models flag.
        let mut placement = state.placement.lock();
        for (name, p) in &moved {
            placement.insert(
                name.clone(),
                Placement {
                    spec: p.spec.clone(),
                    slot: new_slot,
                },
            );
        }
    }
    let spawn_result = spawn_slot(state, &worker)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            if wait_for_probe(state, &worker) {
                Ok(())
            } else {
                Err(format!("joined worker {new_slot} never became healthy"))
            }
        });
    match spawn_result {
        Ok(()) => {
            state.workers.lock().insert(new_slot, Arc::clone(&worker));
            state.ring.lock().add_slot(new_slot);
            for w in &drained {
                resume_shard(w);
            }
            finish(state, &moved);
            state.metrics.rebalances.inc();
            Ok(new_slot)
        }
        Err(e) => {
            kill_worker(&worker);
            // Roll the placement back to the pre-join owners.
            let mut placement = state.placement.lock();
            for (name, p) in &moved {
                placement.insert(name.clone(), p.clone());
            }
            drop(placement);
            for w in &drained {
                resume_shard(w);
            }
            finish(state, &moved);
            Err(e)
        }
    }
}

/// Probe the worker directly (the health thread may be sleeping) until it
/// answers healthy or a generous deadline passes.
fn wait_for_probe(state: &RouterState, worker: &WorkerRuntime) -> bool {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let health = probe_worker(state, worker);
        worker.set_health(health.clone());
        if matches!(health, WorkerHealth::Healthy) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Remove a worker slot, either replacing its process in place (same
/// store — the replacement resumes every journaled job) or draining and
/// reassigning its models across the remaining ring.
fn leave_worker(state: &Arc<RouterState>, slot: usize, replace: bool) -> Result<(), String> {
    let Some(worker) = worker_for_slot(state, slot) else {
        return Err(format!("no worker at slot {slot}"));
    };
    if !worker.is_managed() {
        return Err(format!(
            "slot {slot} is external; the router cannot manage its lifecycle"
        ));
    }
    if replace {
        // Quiesce, kill, respawn on the same store: the new process is the
        // shard's new owner and resumes from the shared job store.
        let _ = drain_shard(&worker);
        kill_worker(&worker);
        worker.draining.store(false, Ordering::SeqCst);
        spawn_slot(state, &worker).map_err(|e| e.to_string())?;
        worker.restarts.fetch_add(1, Ordering::Relaxed);
        state.metrics.worker_restarts.inc();
        if !wait_for_probe(state, &worker) {
            return Err(format!(
                "replacement worker for slot {slot} never became healthy"
            ));
        }
        state.metrics.rebalances.inc();
        return Ok(());
    }
    if state.workers.lock().len() <= 1 {
        return Err("cannot retire the last worker slot".to_string());
    }
    let owned: Vec<(String, Placement)> = state
        .placement
        .lock()
        .iter()
        .filter(|(_, p)| p.slot == slot)
        .map(|(name, p)| (name.clone(), p.clone()))
        .collect();
    {
        let mut moving = state.moving.lock();
        for (name, _) in &owned {
            moving.insert(name.clone());
        }
    }
    let drain_result = drain_shard(&worker);
    if let Err(e) = drain_result {
        resume_shard(&worker);
        let mut moving = state.moving.lock();
        for (name, _) in &owned {
            moving.remove(name);
        }
        return Err(e);
    }
    // Retire the slot from the ring, then hand each model to its new owner
    // via POST /models (loads from the recorded checkpoint spec).
    state.ring.lock().remove_slot(slot);
    let mut errors = Vec::new();
    for (name, p) in &owned {
        let new_slot = state.ring.lock().slot_for(name);
        let Some(new_slot) = new_slot else {
            errors.push(format!("no remaining shard for '{name}'"));
            continue;
        };
        let Some(new_owner) = worker_for_slot(state, new_slot) else {
            errors.push(format!("shard {new_slot} missing for '{name}'"));
            continue;
        };
        let body = match &p.spec.data {
            Some(data) => {
                json!({"name": name.clone(), "path": p.spec.path.clone(), "data": data.clone()})
            }
            None => json!({"name": name.clone(), "path": p.spec.path.clone()}),
        };
        let body_text = serde_json::to_string(&body).unwrap_or_default();
        let request = build_request("POST", "/models", &[], body_text.as_bytes());
        match new_owner.pool.exchange(&request) {
            Ok(resp) if resp.status == 200 => {
                state.placement.lock().insert(
                    name.clone(),
                    Placement {
                        spec: p.spec.clone(),
                        slot: new_slot,
                    },
                );
            }
            Ok(resp) => errors.push(format!(
                "move '{name}' to shard {new_slot}: {} {}",
                resp.status,
                resp.text()
            )),
            Err(e) => errors.push(format!("move '{name}' to shard {new_slot}: {e}")),
        }
    }
    kill_worker(&worker);
    worker.set_health(WorkerHealth::Stopped);
    state.workers.lock().remove(&slot);
    {
        let mut moving = state.moving.lock();
        for (name, _) in &owned {
            moving.remove(name);
        }
    }
    state.metrics.rebalances.inc();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_numbers_and_unions_objects() {
        let mut a = serde_json::parse_value(
            r#"{"counters": {"requests": 3, "errors": 1}, "build": {"version": "1.0"}}"#,
        )
        .unwrap();
        let b = serde_json::parse_value(
            r#"{"counters": {"requests": 4, "jobs": 2}, "build": {"version": "1.0"}}"#,
        )
        .unwrap();
        sum_numbers(&mut a, &b);
        merge_value(&mut a, &b);
        let counters = a.get("counters").unwrap();
        assert_eq!(counters.get("requests").and_then(Value::as_f64), Some(7.0));
        assert_eq!(counters.get("errors").and_then(Value::as_f64), Some(1.0));
        assert_eq!(counters.get("jobs").and_then(Value::as_f64), Some(2.0));
        assert_eq!(
            a.get("build")
                .unwrap()
                .get("version")
                .and_then(Value::as_str),
            Some("1.0")
        );
    }

    #[test]
    fn default_config_is_sane() {
        let config = RouterConfig::default();
        assert_eq!(config.workers, 2);
        assert!(config.restart_backoff_ms < config.restart_backoff_cap_ms);
    }
}
