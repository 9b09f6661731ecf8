//! Integration tests for the serving subsystem: happy paths, graceful
//! degradation (429 / 400 / 404 / 504), hot swap, and drain-on-shutdown.

mod support;

use sam_core::{Sam, SamConfig, TrainedSam};
use sam_query::{label_workload, WorkloadGenerator};
use sam_serve::{ServeConfig, Server};
use sam_storage::{
    paper_example, ColumnDef, DataType, Database, DatabaseStats, Table, TableSchema, Value as Cell,
};
use serde_json::Value;
use std::time::{Duration, Instant};

/// Train a small model on the paper's Figure-3 database.
fn tiny_model(arch_seed: u64) -> TrainedSam {
    let db = paper_example::figure3_database();
    let stats = DatabaseStats::from_database(&db);
    let mut gen = WorkloadGenerator::new(&db, 7);
    let workload = label_workload(&db, gen.multi_workload(24, 2)).unwrap();
    let config = SamConfig {
        model: sam_ar::ArModelConfig {
            hidden: vec![12],
            seed: arch_seed,
            residual: false,
        },
        train: sam_ar::TrainConfig {
            epochs: 4,
            batch_size: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    Sam::fit(db.schema(), &stats, &workload, &config).unwrap()
}

/// Blocking one-shot HTTP client (`Connection: close`) over the shared
/// wire layer.
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, Value) {
    let response =
        sam_serve::http::request(addr, method, path, &[], body.as_bytes()).expect("exchange");
    (
        response.status,
        serde_json::parse_value(&response.text()).expect("JSON body"),
    )
}

/// Send `method path` on a keep-alive connection: it must be answered with
/// `status` and a JSON `error`, and `GET /healthz` must then get 200 on the
/// same connection.
fn assert_rejected_on_live_connection(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    status: u16,
) {
    let mut conn = support::Conn::open(addr);
    let response = conn.request(method, path, "");
    assert_eq!(response.status, status, "{method} {path}");
    let doc = response.json();
    assert!(
        doc.get("error").and_then(Value::as_str).is_some(),
        "{method} {path}: no error in {doc:?}"
    );
    assert_eq!(
        conn.request("GET", "/healthz", "").status,
        200,
        "after {method} {path}"
    );
}

fn start_server(config: ServeConfig) -> Server {
    let server = Server::start(config).expect("start server");
    server.registry().insert("demo", tiny_model(3));
    server
}

#[test]
fn health_models_and_estimate_roundtrip() {
    let server = start_server(ServeConfig::default());
    let addr = server.addr();

    let (status, health) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("models").and_then(Value::as_u64), Some(1));

    let (status, models) = http(addr, "GET", "/models", "");
    assert_eq!(status, 200);
    let list = models.get("models").and_then(Value::as_array).unwrap();
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].get("name").and_then(Value::as_str), Some("demo"));
    assert_eq!(list[0].get("version").and_then(Value::as_u64), Some(1));

    let body = r#"{"model": "demo", "sql": "SELECT COUNT(*) FROM A", "samples": 64, "seed": 1}"#;
    let (status, est) = http(addr, "POST", "/estimate", body);
    assert_eq!(status, 200, "estimate failed: {est:?}");
    let value = est.get("estimate").and_then(Value::as_f64).unwrap();
    assert!(value.is_finite() && value >= 0.0);
    assert!(est.get("batch_size").and_then(Value::as_u64).unwrap() >= 1);

    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(metrics.get("estimates_ok").and_then(Value::as_u64), Some(1));
    server.shutdown();
}

#[test]
fn malformed_and_missing_requests_degrade_cleanly() {
    let server = start_server(ServeConfig::default());
    let addr = server.addr();

    // Invalid JSON → 400.
    let (status, body) = http(addr, "POST", "/estimate", "{not json");
    assert_eq!(status, 400, "{body:?}");

    // Missing required field → 400.
    let (status, _) = http(addr, "POST", "/estimate", r#"{"model": "demo"}"#);
    assert_eq!(status, 400);

    // Unparsable SQL → 400.
    let (status, body) = http(
        addr,
        "POST",
        "/estimate",
        r#"{"model": "demo", "sql": "DELETE FROM A"}"#,
    );
    assert_eq!(status, 400);
    assert!(body
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("SQL"));

    // Unknown model → 404.
    let (status, _) = http(
        addr,
        "POST",
        "/estimate",
        r#"{"model": "nope", "sql": "SELECT COUNT(*) FROM A"}"#,
    );
    assert_eq!(status, 404);

    // Unknown job → 404; bad job id → 400.
    let (status, _) = http(addr, "GET", "/jobs/999", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/jobs/abc", "");
    assert_eq!(status, 400);

    // Unknown route → 404.
    let (status, _) = http(addr, "GET", "/nope", "");
    assert_eq!(status, 404);

    // A word where the job id goes, a rollback with no name segment or an
    // empty one, and a job path with an unknown action: a 4xx on a
    // connection that stays usable.
    assert_rejected_on_live_connection(addr, "GET", "/jobs/export", 400);
    assert_rejected_on_live_connection(addr, "POST", "/models/rollback", 404);
    assert_rejected_on_live_connection(addr, "POST", "/models//rollback", 400);
    assert_rejected_on_live_connection(addr, "GET", "/jobs/7/nope", 404);

    // Wrongly typed field → 400.
    let (status, _) = http(
        addr,
        "POST",
        "/estimate",
        r#"{"model": "demo", "sql": "SELECT COUNT(*) FROM A", "samples": "many"}"#,
    );
    assert_eq!(status, 400);

    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert!(
        metrics
            .get("estimate_errors")
            .and_then(Value::as_u64)
            .unwrap()
            >= 4
    );
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_429() {
    // One estimate admitted at a time: while it chews on a big request,
    // further requests bounce.
    let server = start_server(ServeConfig {
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let slow = r#"{"model": "demo", "sql": "SELECT COUNT(*) FROM A, B, C", "samples": 100000, "timeout_ms": 120000}"#;

    // Fire several requests on parallel connections without waiting for
    // replies; with capacity 1, at least one of 6 must get 429.
    let clients: Vec<_> = (0..6)
        .map(|_| {
            let body = slow.to_string();
            std::thread::spawn(move || http(addr, "POST", "/estimate", &body).0)
        })
        .collect();
    let statuses: Vec<u16> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let rejected = statuses.iter().filter(|&&s| s == 429).count();
    let served = statuses.iter().filter(|&&s| s == 200).count();
    assert!(rejected >= 1, "expected at least one 429, got {statuses:?}");
    assert!(
        served >= 1,
        "expected at least one success, got {statuses:?}"
    );

    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(
        metrics.get("rejected_overload").and_then(Value::as_u64),
        Some(rejected as u64)
    );
    server.shutdown();
}

#[test]
fn missed_deadline_returns_504() {
    let server = start_server(ServeConfig::default());
    let addr = server.addr();
    let body = r#"{"model": "demo", "sql": "SELECT COUNT(*) FROM A, B, C", "samples": 400000, "timeout_ms": 1}"#;
    let (status, payload) = http(addr, "POST", "/estimate", body);
    assert_eq!(status, 504, "{payload:?}");
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert!(
        metrics
            .get("deadline_exceeded")
            .and_then(Value::as_u64)
            .unwrap()
            >= 1
    );
    server.shutdown();
}

#[test]
fn hot_swap_bumps_version_without_downtime() {
    let server = start_server(ServeConfig::default());
    let addr = server.addr();
    assert_eq!(server.registry().insert("demo", tiny_model(9)), 2);
    let (status, est) = http(
        addr,
        "POST",
        "/estimate",
        r#"{"model": "demo", "sql": "SELECT COUNT(*) FROM A", "samples": 32}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(est.get("model_version").and_then(Value::as_u64), Some(2));
    server.shutdown();
}

#[test]
fn repeated_estimate_is_served_from_cache() {
    let server = start_server(ServeConfig::default());
    let addr = server.addr();
    let body = r#"{"model": "demo", "sql": "SELECT COUNT(*) FROM A, B", "samples": 64, "seed": 5}"#;

    let (status, first) = http(addr, "POST", "/estimate", body);
    assert_eq!(status, 200, "{first:?}");
    assert_eq!(first.get("cached").and_then(Value::as_bool), Some(false));
    let estimate = first.get("estimate").and_then(Value::as_f64).unwrap();

    let (status, second) = http(addr, "POST", "/estimate", body);
    assert_eq!(status, 200);
    assert_eq!(second.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(second.get("batch_size").and_then(Value::as_u64), Some(0));
    assert_eq!(
        second.get("estimate").and_then(Value::as_f64),
        Some(estimate),
        "cached answer must equal the computed one"
    );

    // A different seed is a different key — computed, not served stale.
    let other =
        r#"{"model": "demo", "sql": "SELECT COUNT(*) FROM A, B", "samples": 64, "seed": 6}"#;
    let (_, third) = http(addr, "POST", "/estimate", other);
    assert_eq!(third.get("cached").and_then(Value::as_bool), Some(false));

    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(metrics.get("cache_hits").and_then(Value::as_u64), Some(1));
    assert_eq!(metrics.get("cache_misses").and_then(Value::as_u64), Some(2));

    // Hot swap bumps the version, which invalidates every old cache key.
    server.registry().insert("demo", tiny_model(9));
    let (_, after_swap) = http(addr, "POST", "/estimate", body);
    assert_eq!(
        after_swap.get("cached").and_then(Value::as_bool),
        Some(false),
        "swap must not serve the old version's estimate"
    );
    assert_eq!(
        after_swap.get("model_version").and_then(Value::as_u64),
        Some(2)
    );
    server.shutdown();
}

#[test]
fn zero_capacity_disables_estimate_cache() {
    let server = start_server(ServeConfig {
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let body = r#"{"model": "demo", "sql": "SELECT COUNT(*) FROM A", "samples": 32, "seed": 1}"#;
    let (_, first) = http(addr, "POST", "/estimate", body);
    let (_, second) = http(addr, "POST", "/estimate", body);
    assert_eq!(first.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(second.get("cached").and_then(Value::as_bool), Some(false));
    // Determinism holds without the cache (same seed → same estimate).
    assert_eq!(
        first.get("estimate").and_then(Value::as_f64),
        second.get("estimate").and_then(Value::as_f64)
    );
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(metrics.get("cache_hits").and_then(Value::as_u64), Some(0));
    server.shutdown();
}

#[test]
fn shutdown_drains_running_generation_job() {
    let server = start_server(ServeConfig::default());
    let addr = server.addr();
    let (status, accepted) = http(
        addr,
        "POST",
        "/generate",
        r#"{"model": "demo", "foj_samples": 2000, "batch": 64, "seed": 2}"#,
    );
    assert_eq!(status, 202, "{accepted:?}");
    let id = accepted.get("job_id").and_then(Value::as_u64).unwrap();

    // Poll once over HTTP while the server is still up.
    let (status, polled) = http(addr, "GET", &format!("/jobs/{id}"), "");
    assert_eq!(status, 200);
    assert!(matches!(
        polled.get("state").and_then(Value::as_str),
        Some("running") | Some("done")
    ));

    // Shutdown must block until the job reached a terminal state (drain).
    server.shutdown();
    let record = server.jobs().get(id).expect("job record survives shutdown");
    assert!(
        record.is_finished(),
        "shutdown returned with job unfinished"
    );
    let status = record.status_json();
    assert_eq!(status.get("state").and_then(Value::as_str), Some("done"));
    let tables = status
        .get("result")
        .and_then(|r| r.get("tables"))
        .and_then(Value::as_array)
        .unwrap();
    assert_eq!(tables.len(), 3);
}

#[test]
fn cancel_endpoint_cancels_long_job() {
    let server = start_server(ServeConfig::default());
    let addr = server.addr();
    let (status, accepted) = http(
        addr,
        "POST",
        "/generate",
        r#"{"model": "demo", "foj_samples": 2000000, "batch": 64, "seed": 2}"#,
    );
    assert_eq!(status, 202);
    let id = accepted.get("job_id").and_then(Value::as_u64).unwrap();
    let (status, cancelled) = http(addr, "POST", &format!("/jobs/{id}/cancel"), "");
    assert_eq!(status, 200);
    assert_eq!(
        cancelled.get("cancelled").and_then(Value::as_bool),
        Some(true)
    );

    // The job must reach a terminal state quickly (next chunk boundary).
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, polled) = http(addr, "GET", &format!("/jobs/{id}"), "");
        match polled.get("state").and_then(Value::as_str) {
            Some("cancelled") | Some("done") => break,
            _ if Instant::now() > deadline => panic!("job did not terminate: {polled:?}"),
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    server.shutdown();
}

/// An untrained model over one table: column `c` takes `domains[c]` values.
fn untrained_table_model(domains: &[i64], hidden: Vec<usize>) -> TrainedSam {
    let columns = (0..domains.len())
        .map(|c| ColumnDef::content(format!("c{c}"), DataType::Int))
        .collect();
    let rows: Vec<Vec<Cell>> = (0..64i64)
        .map(|r| domains.iter().map(|&d| Cell::Int(r % d)).collect())
        .collect();
    let db = Database::single(Table::from_rows(TableSchema::new("W", columns), &rows).unwrap());
    let stats = DatabaseStats::from_database(&db);
    let schema = sam_ar::ArSchema::build(
        db.schema(),
        &stats,
        &[],
        &sam_ar::EncodingOptions::default(),
    )
    .unwrap();
    let config = sam_ar::ArModelConfig {
        hidden,
        seed: 1,
        residual: false,
    };
    let model = sam_ar::ArModel::new(schema, &config).freeze();
    Sam::from_frozen(db.schema().clone(), model, empty_report())
}

fn empty_report() -> sam_ar::TrainReport {
    sam_ar::TrainReport {
        epoch_losses: vec![],
        constraints_processed: 0,
        wall_seconds: 0.0,
    }
}

/// A model-invariant violation inside a pass (here a network whose column
/// domains are not its schema's, so a sampled code indexes past a fanout
/// weight row) answers 500 and counts in `worker_panics`; the model's
/// estimator is handed back, so the next request on it is answered.
#[test]
fn a_panic_inside_an_estimate_answers_500_and_frees_the_model() {
    let tiny = tiny_model(3);
    let mismatched = untrained_table_model(&[50; 7], vec![16]);
    let broken = sam_ar::FrozenModel {
        schema: tiny.model().schema.clone(),
        net: mismatched.model().net.clone(),
    };
    let server = Server::start(ServeConfig::default()).expect("start server");
    server.registry().insert(
        "broken",
        Sam::from_frozen(tiny.db_schema().clone(), broken, empty_report()),
    );
    let addr = server.addr();
    // `A` alone scales by the fanouts of `B` and `C`; the full join does not.
    let scaled = r#"{"model": "broken", "sql": "SELECT COUNT(*) FROM A", "samples": 64}"#;
    let (status, body) = http(addr, "POST", "/estimate", scaled);
    assert_eq!(status, 500, "{body:?}");
    let join = r#"{"model": "broken", "sql": "SELECT COUNT(*) FROM A, B, C", "samples": 64}"#;
    let (status, body) = http(addr, "POST", "/estimate", join);
    assert_eq!(status, 200, "{body:?}");
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(
        metrics.get("worker_panics").and_then(Value::as_u64),
        Some(1)
    );
    server.shutdown();
}

/// An untrained model over one table of 80 two-valued columns. Sample paths
/// diverge within a few columns, after which every column costs about the
/// same, so a pass stopped at a column boundary stops close to its deadline.
fn wide_model() -> TrainedSam {
    untrained_table_model(&[2; 80], vec![512, 512, 512])
}

fn wide_estimate(samples: u64, seed: u64, timeout_ms: u64) -> String {
    format!(
        r#"{{"model": "wide", "sql": "SELECT COUNT(*) FROM W", "samples": {samples}, "seed": {seed}, "timeout_ms": {timeout_ms}}}"#
    )
}

/// A server holding [`wide_model`] as `wide`, and a sample count whose pass
/// computes for about eight seconds on this build, scaled from timed passes
/// that grow until one takes a quarter second.
fn wide_server() -> (Server, u64) {
    let server = Server::start(ServeConfig::default()).expect("start server");
    server.registry().insert("wide", wide_model());
    let mut samples = 8;
    loop {
        let started = Instant::now();
        let body = wide_estimate(samples, samples, 600_000);
        let (status, reply) = http(server.addr(), "POST", "/estimate", &body);
        assert_eq!(status, 200, "{reply:?}");
        let took = started.elapsed().as_secs_f64();
        if took >= 0.25 {
            return (server, (samples as f64 * 8.0 / took) as u64);
        }
        samples *= 4;
    }
}

/// The deadline ends the work, and no request waits for another's pass. A
/// pass sized to compute for seconds answers 504 at its deadline, and the
/// model's next request does not wait for the abandoned pass; a request
/// sent while a long pass computes, whose one path dies at its first
/// column, is answered inside its own deadline, and the long pass still
/// ends at its own.
#[test]
fn the_deadline_ends_the_work_as_well_as_the_wait() {
    let (server, samples) = wide_server();
    let addr = server.addr();
    let started = Instant::now();
    let (status, body) = http(addr, "POST", "/estimate", &wide_estimate(samples, 1, 50));
    let took = started.elapsed();
    assert_eq!(status, 504, "{samples} samples: {body:?}");
    assert!(took < Duration::from_secs(1), "504 after {took:?}");

    let started = Instant::now();
    let (status, body) = http(addr, "POST", "/estimate", &wide_estimate(1, 2, 10_000));
    let took = started.elapsed();
    assert_eq!(status, 200, "{body:?}");
    assert!(
        took < Duration::from_secs(1),
        "the next estimate took {took:?}"
    );

    let long = std::thread::spawn(move || {
        let started = Instant::now();
        let (status, _) = http(addr, "POST", "/estimate", &wide_estimate(samples, 3, 3_000));
        (status, started.elapsed())
    });
    std::thread::sleep(Duration::from_millis(300));
    let started = Instant::now();
    let empty = r#"{"model": "wide", "sql": "SELECT COUNT(*) FROM W WHERE W.c0 < 0", "samples": 1, "timeout_ms": 200}"#;
    let (status, body) = http(addr, "POST", "/estimate", empty);
    let took = started.elapsed();
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("estimate").and_then(Value::as_f64), Some(0.0));
    assert!(took < Duration::from_millis(150), "200 after {took:?}");
    let (status, took) = long.join().unwrap();
    assert_eq!(status, 504, "{samples} samples finished inside 3 s");
    assert!(
        took < Duration::from_secs(4),
        "the long pass answered after {took:?}"
    );

    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(
        metrics.get("deadline_exceeded").and_then(Value::as_u64),
        Some(2)
    );
    server.shutdown();
}
