//! Deterministic failover for the sharded serving topology: a router
//! fronting two `sam-cli serve` worker subprocesses must never lose an
//! accepted generation job to a worker death.
//!
//! Two killers, one contract:
//!
//! * **Crash-point matrix** — arm `SAM_FAULT_CRASH` at each job-lifecycle
//!   point (`serve.job.pre_run`, `serve.job.generated`,
//!   `serve.job.persisted`) in worker 0's first process generation. The
//!   worker dies deterministically mid-protocol; the supervisor respawns it
//!   on the same per-shard store; the journal replay resumes the job from
//!   its recorded seed.
//! * **SIGKILL mid-generate** — no arming, just `kill -9` on the pid the
//!   router publishes at `/admin/topology` while the job is running.
//!
//! In both cases the resumed job's export must be **bit-for-bit** what an
//! uninterrupted same-seed run produces, the other shard must answer 200
//! throughout, and the router must report the restart in its metrics.

use sam::prelude::*;
use sam::router::{ModelSpec, Router, RouterConfig, WorkerHealth, WorkerSpec};
use serde_json::Value as Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GENERATE_BODY: &str = r#"{"model": "alpha", "foj_samples": 20000, "batch": 64, "seed": 11}"#;

fn request(addr: &str, method: &str, path: &str, body: &str) -> Option<(u16, Vec<u8>)> {
    let response = sam::serve::http::request(addr, method, path, &[], body.as_bytes()).ok()?;
    Some((response.status, response.body))
}

fn json_request(addr: &str, method: &str, path: &str, body: &str) -> Option<(u16, Json)> {
    let (status, body) = request(addr, method, path, body)?;
    let text = std::str::from_utf8(&body).ok()?;
    Some((status, serde_json::parse_value(text).ok()?))
}

/// Train a tiny model on the Figure-3 database and persist it for the CLI.
fn train_and_save(dir: &Path) -> PathBuf {
    let db = sam::storage::paper_example::figure3_database();
    let stats = DatabaseStats::from_database(&db);
    let mut gen = WorkloadGenerator::new(&db, 7);
    let workload = label_workload(&db, gen.multi_workload(24, 2)).unwrap();
    let config = SamConfig {
        model: ArModelConfig {
            hidden: vec![12],
            seed: 3,
            residual: false,
        },
        train: TrainConfig {
            epochs: 4,
            batch_size: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    let trained = Sam::fit(db.schema(), &stats, &workload, &config).unwrap();
    let path = dir.join("model.json");
    std::fs::write(
        &path,
        sam::ar::save_model(trained.model(), trained.db_schema()),
    )
    .unwrap();
    path
}

/// The uninterrupted reference: generate in-process through the same
/// load path the workers use.
fn fresh_generate(model_path: &Path) -> Database {
    let text = std::fs::read_to_string(model_path).unwrap();
    let (model, db_schema) = sam::ar::load_model(&text).unwrap();
    let report = sam::ar::TrainReport {
        epoch_losses: Vec::new(),
        constraints_processed: 0,
        wall_seconds: 0.0,
    };
    let trained = Sam::from_frozen(db_schema, model, report);
    let config = GenerationConfig {
        foj_samples: 20_000,
        batch: 64,
        seed: 11,
        strategy: JoinKeyStrategy::GroupAndMerge,
    };
    let (db, _) = trained.generate(&config).unwrap();
    db
}

fn model_spec(name: &str, slot: usize, model_path: &Path) -> ModelSpec {
    ModelSpec {
        name: name.to_string(),
        path: model_path.display().to_string(),
        data: None,
        pin: Some(slot),
    }
}

/// Router over two managed `sam-cli serve` workers, `alpha` on shard 0 and
/// `beta` on shard 1, with `env` applied to worker 0's first spawn.
fn start_router(store_root: &Path, model_path: &Path, env: Vec<(String, String)>) -> Router {
    Router::start(RouterConfig {
        worker_cmd: vec![
            env!("CARGO_BIN_EXE_sam-cli").to_string(),
            "serve".to_string(),
        ],
        workers: 2,
        models: vec![
            model_spec("alpha", 0, model_path),
            model_spec("beta", 1, model_path),
        ],
        store_root: store_root.to_path_buf(),
        specs: vec![
            WorkerSpec {
                env,
                ..WorkerSpec::default()
            },
            WorkerSpec::default(),
        ],
        health_interval_ms: 100,
        retry_wait_ms: 3_000,
        ..RouterConfig::default()
    })
    .expect("start router")
}

fn wait_all_healthy(router: &Router, deadline: Duration) {
    let until = Instant::now() + deadline;
    loop {
        let workers = router.workers();
        if workers
            .iter()
            .all(|w| matches!(w.health(), WorkerHealth::Healthy))
        {
            return;
        }
        assert!(
            Instant::now() < until,
            "workers never became healthy: {:?}",
            workers
                .iter()
                .map(|w| (w.slot, w.health().label()))
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Background poller hammering the *surviving* shard (`beta`) with
/// estimates through the router. Counts hard failures (non-200); the
/// failover contract says there must be none.
struct SurvivorPoller {
    stop: Arc<AtomicBool>,
    ok: Arc<AtomicU64>,
    failures: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl SurvivorPoller {
    fn start(addr: String) -> SurvivorPoller {
        let stop = Arc::new(AtomicBool::new(false));
        let ok = Arc::new(AtomicU64::new(0));
        let failures = Arc::new(AtomicU64::new(0));
        let (t_stop, t_ok, t_fail) = (Arc::clone(&stop), Arc::clone(&ok), Arc::clone(&failures));
        let handle = std::thread::spawn(move || {
            let body = r#"{"model":"beta","sql":"SELECT COUNT(*) FROM A","samples":16,"seed":5}"#;
            while !t_stop.load(Ordering::SeqCst) {
                match request(&addr, "POST", "/estimate", body) {
                    Some((200, _)) => {
                        t_ok.fetch_add(1, Ordering::SeqCst);
                    }
                    _ => {
                        t_fail.fetch_add(1, Ordering::SeqCst);
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        SurvivorPoller {
            stop,
            ok,
            failures,
            handle: Some(handle),
        }
    }

    fn finish(mut self) -> (u64, u64) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        (
            self.ok.load(Ordering::SeqCst),
            self.failures.load(Ordering::SeqCst),
        )
    }
}

/// Submit the alpha generate job through the router. An armed
/// `serve.job.pre_run` can kill the worker before the 202 is written, so a
/// transport failure is tolerated — the job id is then recovered from the
/// shard's journal (`accepted` is logged before the job thread starts).
fn submit_generate(addr: &str, shard0_store: &Path) -> u64 {
    if let Some((status, doc)) = json_request(addr, "POST", "/generate", GENERATE_BODY) {
        if status == 202 {
            return doc.get("job_id").and_then(Json::as_u64).expect("job_id");
        }
    }
    let log = shard0_store.join("journal.jsonl");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let text = std::fs::read_to_string(&log).unwrap_or_default();
        if let Some(id) = text.lines().find_map(|line| {
            // Journal lines are `<checksum> <json>`.
            let payload = line.split_once(' ').map_or(line, |(_, rest)| rest);
            let doc = serde_json::parse_value(payload).ok()?;
            (doc.get("event").and_then(Json::as_str) == Some("accepted"))
                .then(|| doc.get("job").and_then(Json::as_u64))
                .flatten()
        }) {
            return id;
        }
        assert!(
            Instant::now() < deadline,
            "no accepted event in {}:\n{text}",
            log.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Poll the job through the router until `done`, then require its exported
/// relations to be bit-for-bit the uninterrupted reference.
fn assert_job_resumes_bit_for_bit(addr: &str, id: u64, reference: &Database, label: &str) {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        match json_request(addr, "GET", &format!("/jobs/{id}"), "") {
            Some((200, doc)) => match doc.get("state").and_then(Json::as_str) {
                Some("done") => break,
                Some("running") => {}
                other => panic!("{label}: job {id} in unexpected state {other:?}: {doc:?}"),
            },
            // 503 while the owning shard restarts is part of the contract;
            // transport glitches during the failover window likewise.
            Some((503, _)) | None => {}
            Some((status, doc)) => panic!("{label}: GET /jobs/{id} -> {status}: {doc:?}"),
        }
        assert!(
            Instant::now() < deadline,
            "{label}: job {id} never finished"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    for table in reference.tables() {
        // The shared client de-frames a chunked export, and fails the
        // exchange if the stream is not well-formed through its end.
        let (status, exported) = request(
            addr,
            "GET",
            &format!("/jobs/{id}/export?relation={}", table.name()),
            "",
        )
        .expect("export exchange");
        assert_eq!(status, 200, "{label}: export {}", table.name());
        let mut want = Vec::new();
        sam::storage::csv::write_csv(table, &mut want).unwrap();
        assert_eq!(
            exported,
            want,
            "{label}: table {} differs from the uninterrupted run",
            table.name()
        );
    }
}

fn wait_restart(router: &Router, slot: usize, deadline: Duration) {
    let until = Instant::now() + deadline;
    loop {
        let worker = router
            .workers()
            .into_iter()
            .find(|w| w.slot == slot)
            .expect("slot exists");
        if worker.restarts() >= 1 && matches!(worker.health(), WorkerHealth::Healthy) {
            return;
        }
        assert!(
            Instant::now() < until,
            "shard {slot} never restarted healthy (restarts {}, {})",
            worker.restarts(),
            worker.health().label()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// One full kill-and-recover cycle with worker 0 armed to die at `point`
/// (empty = no arming; the caller kills by pid instead).
fn run_failover(point: Option<&str>, tag: &str) {
    let dir =
        std::env::temp_dir().join(format!("sam_router_failover_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = train_and_save(&dir);
    let store_root = dir.join("shards");
    let env = match point {
        Some(point) => vec![(sam::fault::CRASH_ENV.to_string(), point.to_string())],
        None => Vec::new(),
    };

    let router = start_router(&store_root, &model_path, env);
    let addr = router.addr().to_string();
    wait_all_healthy(&router, Duration::from_secs(60));
    let label = point.unwrap_or("sigkill");

    let poller = SurvivorPoller::start(addr.clone());
    let shard0_store = store_root.join("shard-0");
    let id = submit_generate(&addr, &shard0_store);
    assert_eq!(id, 1, "shard 0 mints from job-id base 0");

    if point.is_none() {
        // SIGKILL path: wait until the job is journaled as running, then
        // kill the pid the router publishes at /admin/topology.
        let log = shard0_store.join("journal.jsonl");
        let deadline = Instant::now() + Duration::from_secs(60);
        while !std::fs::read_to_string(&log)
            .unwrap_or_default()
            .contains("\"running\"")
        {
            assert!(Instant::now() < deadline, "job never reached running");
            std::thread::sleep(Duration::from_millis(10));
        }
        let (status, topology) = json_request(&addr, "GET", "/admin/topology", "").unwrap();
        assert_eq!(status, 200);
        let pid = topology
            .get("workers")
            .and_then(Json::as_array)
            .and_then(|workers| {
                workers.iter().find_map(|w| {
                    (w.get("slot").and_then(Json::as_u64) == Some(0))
                        .then(|| w.get("pid").and_then(Json::as_u64))
                        .flatten()
                })
            })
            .expect("shard 0 pid in topology");
        let killed = std::process::Command::new("kill")
            .args(["-9", &pid.to_string()])
            .status()
            .expect("run kill");
        assert!(killed.success(), "kill -9 {pid} failed");
    }

    // The supervisor must respawn shard 0 (crash-armed workers never re-arm
    // on respawn), and the replayed journal must finish the job bit-for-bit.
    wait_restart(&router, 0, Duration::from_secs(120));
    assert!(
        router.metrics().worker_restarts.get() >= 1,
        "restart not reported in router metrics"
    );
    let reference = fresh_generate(&model_path);
    assert_job_resumes_bit_for_bit(&addr, id, &reference, label);

    let (survivor_ok, survivor_failures) = poller.finish();
    assert_eq!(
        survivor_failures, 0,
        "{label}: surviving shard answered non-200 during failover"
    );
    assert!(
        survivor_ok > 0,
        "{label}: surviving shard saw no successful requests"
    );

    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_at_pre_run_resumes_bit_for_bit() {
    run_failover(Some("serve.job.pre_run"), "pre_run");
}

#[test]
fn crash_after_generation_resumes_bit_for_bit() {
    run_failover(Some("serve.job.generated"), "generated");
}

#[test]
fn crash_after_persist_resumes_bit_for_bit() {
    run_failover(Some("serve.job.persisted"), "persisted");
}

#[test]
fn sigkill_via_topology_pid_resumes_bit_for_bit() {
    run_failover(None, "sigkill");
}
