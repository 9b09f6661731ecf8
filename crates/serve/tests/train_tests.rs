//! Train-as-a-service integration tests over live HTTP: promotion of a
//! tying candidate, rejection of worse candidates and gate breaches with
//! the incumbent left untouched, and rollback restoring prior answers
//! bit-for-bit.

mod support;

use sam_core::{Sam, SamConfig};
use sam_query::Workload;
use sam_query::{label_workload, WorkloadGenerator};
use sam_serve::{ServeConfig, Server};
use sam_storage::{paper_example, Database, DatabaseStats};
use serde_json::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::{http, tiny_model};

/// The deterministic 24-query labelled workload every test trains on.
fn demo_workload(db: &Database) -> Workload {
    let mut gen = WorkloadGenerator::new(db, 7);
    label_workload(db, gen.multi_workload(24, 2)).unwrap()
}

/// Minimal JSON string escape for SQL text (quotes and backslashes).
fn escape(sql: &str) -> String {
    sql.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serialize `workload` as a JSONL `/train` body, flagging the last
/// `holdout` queries with `"holdout": true` (explicit-split mode).
fn jsonl_body(workload: &Workload, holdout: usize) -> String {
    let n = workload.len();
    let mut body = String::new();
    for (i, lq) in workload.iter().enumerate() {
        let flag = if i >= n - holdout {
            ", \"holdout\": true"
        } else {
            ""
        };
        body.push_str(&format!(
            "{{\"sql\": \"{}\", \"card\": {}{flag}}}\n",
            escape(&lq.query.to_string()),
            lq.cardinality
        ));
    }
    body
}

/// Poll `GET /jobs/{id}` until the training job leaves `running`.
fn wait_terminal(addr: std::net::SocketAddr, id: u64) -> Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, polled) = http(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{polled:?}");
        match polled.get("state").and_then(Value::as_str) {
            Some("running") => {
                assert!(Instant::now() < deadline, "train {id} did not finish");
                std::thread::sleep(Duration::from_millis(20));
            }
            Some(_) => return polled,
            None => panic!("no state in {polled:?}"),
        }
    }
}

fn current_version(addr: std::net::SocketAddr, name: &str) -> u64 {
    let (status, models) = http(addr, "GET", "/models", "");
    assert_eq!(status, 200);
    models
        .get("models")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
        .and_then(|m| m.get("version"))
        .and_then(Value::as_u64)
        .unwrap()
}

/// A candidate trained with the incumbent's exact architecture, seed, and
/// training slice ties the shadow evaluation — and a tie promotes (a fresh
/// model with identical quality is preferred, because its training run is
/// the more recent evidence).
#[test]
fn tying_candidate_is_promoted_and_serves() {
    let db = paper_example::figure3_database();
    let workload = demo_workload(&db);
    let holdout = 6;

    // Train the incumbent on exactly the slice the server will train the
    // candidate on (everything but the flagged holdout), replicating the
    // SamConfig `/train` builds from its spec.
    let train_slice = Workload::new(workload.queries[..workload.len() - holdout].to_vec());
    let stats = DatabaseStats::from_database(&db);
    let config = SamConfig {
        model: sam_ar::ArModelConfig {
            hidden: vec![12],
            seed: 5,
            residual: false,
        },
        train: sam_ar::TrainConfig {
            epochs: 4,
            batch_size: 8,
            lr: 5e-3,
            seed: 5,
            checkpoint: None,
            ..Default::default()
        },
        encoding: Default::default(),
    };
    let incumbent = Sam::fit(db.schema(), &stats, &train_slice, &config).unwrap();

    let server = Server::start(ServeConfig::default()).unwrap();
    server
        .registry()
        .insert_with_reference("demo", incumbent, Arc::new(db.clone()));
    let addr = server.addr();

    let (status, accepted) = http(
        addr,
        "POST",
        "/train?model=demo&epochs=4&batch=8&hidden=12&seed=5&lr=0.005",
        &jsonl_body(&workload, holdout),
    );
    assert_eq!(status, 202, "{accepted:?}");
    let id = accepted.get("job_id").and_then(Value::as_u64).unwrap();

    let done = wait_terminal(addr, id);
    assert_eq!(
        done.get("state").and_then(Value::as_str),
        Some("promoted"),
        "{done:?}"
    );
    assert_eq!(done.get("model_version").and_then(Value::as_u64), Some(2));
    let result = done.get("result").unwrap();
    let candidate = result.get("candidate_p95").and_then(Value::as_f64).unwrap();
    let incumbent_p95 = result.get("incumbent_p95").and_then(Value::as_f64).unwrap();
    assert_eq!(
        candidate, incumbent_p95,
        "identical training must tie exactly: {result:?}"
    );

    // The registry now serves the candidate as v2.
    assert_eq!(current_version(addr, "demo"), 2);
    let (status, est) = http(
        addr,
        "POST",
        "/estimate",
        r#"{"model": "demo", "sql": "SELECT COUNT(*) FROM A", "samples": 64, "seed": 1}"#,
    );
    assert_eq!(status, 200, "{est:?}");
    assert_eq!(est.get("model_version").and_then(Value::as_u64), Some(2));

    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(
        metrics.get("trains_promoted").and_then(Value::as_u64),
        Some(1)
    );
    server.shutdown();
}

/// An undertrained candidate (single epoch, tiny width, fresh seed)
/// scores worse than the incumbent and must be rejected even when the
/// absolute gate is wide open — the incumbent keeps serving, version
/// unchanged. Everything here is seeded, so the head-to-head outcome is
/// deterministic.
#[test]
fn worse_candidate_is_rejected_and_incumbent_keeps_serving() {
    let db = paper_example::figure3_database();
    let workload = demo_workload(&db);

    let server = Server::start(ServeConfig::default()).unwrap();
    server
        .registry()
        .insert_with_reference("demo", tiny_model(1), Arc::new(db.clone()));
    let addr = server.addr();

    let (status, accepted) = http(
        addr,
        "POST",
        "/train?model=demo&epochs=1&batch=8&hidden=2&seed=999&max_qerror=1e15",
        &jsonl_body(&workload, 6),
    );
    assert_eq!(status, 202, "{accepted:?}");
    let id = accepted.get("job_id").and_then(Value::as_u64).unwrap();

    let done = wait_terminal(addr, id);
    assert_eq!(
        done.get("state").and_then(Value::as_str),
        Some("rejected"),
        "{done:?}"
    );
    let result = done.get("result").unwrap();
    let candidate = result.get("candidate_p95").and_then(Value::as_f64).unwrap();
    let incumbent = result.get("incumbent_p95").and_then(Value::as_f64).unwrap();
    assert!(
        candidate > incumbent,
        "rejection must come from losing to the incumbent: {result:?}"
    );

    assert_eq!(current_version(addr, "demo"), 1);
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(
        metrics.get("trains_rejected").and_then(Value::as_u64),
        Some(1)
    );
    server.shutdown();
}

/// `max_qerror` below 1 is an impossible bar (Q-Error is ≥ 1 by
/// definition), so even a candidate that ties the incumbent is rejected:
/// the absolute gate binds before the head-to-head comparison.
#[test]
fn promotion_gate_rejects_candidates_above_max_qerror() {
    let db = paper_example::figure3_database();
    let workload = demo_workload(&db);

    let server = Server::start(ServeConfig::default()).unwrap();
    server
        .registry()
        .insert_with_reference("demo", tiny_model(1), Arc::new(db.clone()));
    let addr = server.addr();

    // Plain SQL `-- card=` body this time: both ingest formats feed /train.
    let body = sam_query::format_workload(&workload);
    let (status, accepted) = http(
        addr,
        "POST",
        "/train?model=demo&epochs=4&batch=8&hidden=12&seed=1&max_qerror=0.99",
        &body,
    );
    assert_eq!(status, 202, "{accepted:?}");
    let id = accepted.get("job_id").and_then(Value::as_u64).unwrap();

    let done = wait_terminal(addr, id);
    assert_eq!(
        done.get("state").and_then(Value::as_str),
        Some("rejected"),
        "{done:?}"
    );
    assert_eq!(current_version(addr, "demo"), 1);
    server.shutdown();
}

/// Training against an unregistered name is a 404 up front, not a failed
/// background job.
#[test]
fn train_without_incumbent_is_a_404() {
    let db = paper_example::figure3_database();
    let workload = demo_workload(&db);
    let server = Server::start(ServeConfig::default()).unwrap();
    let (status, body) = http(
        server.addr(),
        "POST",
        "/train?model=ghost",
        &sam_query::format_workload(&workload),
    );
    assert_eq!(status, 404, "{body:?}");
    server.shutdown();
}

/// Rollback re-registers the superseded weights under a new version and
/// must serve the **exact** pre-swap answers; a second rollback with no
/// history left is a 409.
#[test]
fn rollback_restores_prior_answers_bit_for_bit() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    server.registry().insert("demo", tiny_model(1));

    let estimate = |expect_version: u64| -> f64 {
        let (status, est) = http(
            addr,
            "POST",
            "/estimate",
            r#"{"model": "demo", "sql": "SELECT COUNT(*) FROM A WHERE A.a = 'm'", "samples": 64, "seed": 9}"#,
        );
        assert_eq!(status, 200, "{est:?}");
        assert_eq!(
            est.get("model_version").and_then(Value::as_u64),
            Some(expect_version),
            "{est:?}"
        );
        est.get("estimate").and_then(Value::as_f64).unwrap()
    };

    let v1_answer = estimate(1);
    server.registry().insert("demo", tiny_model(2));
    let v2_answer = estimate(2);

    let (status, rolled) = http(addr, "POST", "/models/demo/rollback", "");
    assert_eq!(status, 200, "{rolled:?}");
    assert_eq!(rolled.get("model").and_then(Value::as_str), Some("demo"));
    assert_eq!(rolled.get("version").and_then(Value::as_u64), Some(3));
    assert_eq!(rolled.get("restored_from").and_then(Value::as_u64), Some(1));

    let restored = estimate(3);
    assert_eq!(
        restored.to_bits(),
        v1_answer.to_bits(),
        "rollback must serve v1's answers exactly (v1 {v1_answer}, v2 {v2_answer}, restored {restored})"
    );

    // v1's entry was consumed by the rollback; nothing left to restore.
    let (status, conflict) = http(addr, "POST", "/models/demo/rollback", "");
    assert_eq!(status, 409, "{conflict:?}");
    let (status, _) = http(addr, "POST", "/models/ghost/rollback", "");
    assert_eq!(status, 404);

    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(metrics.get("rollbacks").and_then(Value::as_u64), Some(1));
    server.shutdown();
}

/// `str::parse::<f64>` takes `nan`, `inf` and negatives; a job trained on
/// them burns its epochs on NaN weights. Each is a `400` that names the
/// parameter, mints no job id and leaves the incumbent alone.
#[test]
fn hostile_lr_and_max_qerror_are_400_and_start_nothing() {
    let db = paper_example::figure3_database();
    let body = sam_query::format_workload(&demo_workload(&db));
    let server = Server::start(ServeConfig::default()).unwrap();
    server
        .registry()
        .insert_with_reference("demo", tiny_model(1), Arc::new(db.clone()));
    let addr = server.addr();

    for key in ["lr", "max_qerror"] {
        for bad in ["nan", "NaN", "inf", "-inf", "infinity", "0", "-1", "-0.005"] {
            let path = format!("/train?model=demo&epochs=1&batch=8&hidden=2&{key}={bad}");
            let (status, answer) = http(addr, "POST", &path, &body);
            assert_eq!(status, 400, "{key}={bad}: {answer:?}");
            let message = answer.get("error").and_then(Value::as_str).unwrap_or("");
            assert!(
                message.contains(&format!("'{key}'")),
                "{key}={bad}: {answer:?}"
            );
        }
    }
    // `lr` trains as an f32: out of its range is out of range.
    for bad in ["1e300", "1e-300"] {
        let path = format!("/train?model=demo&lr={bad}");
        assert_eq!(http(addr, "POST", &path, &body).0, 400, "lr={bad}");
    }

    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(
        metrics.get("trains_started").and_then(Value::as_u64),
        Some(0)
    );
    assert_eq!(current_version(addr, "demo"), 1);
    // The first id is still unspent.
    assert_eq!(http(addr, "GET", "/jobs/1", "").0, 404);
    let (status, accepted) = http(
        addr,
        "POST",
        "/train?model=demo&epochs=1&batch=8&hidden=2&lr=0.01&max_qerror=50",
        &body,
    );
    assert_eq!(status, 202, "{accepted:?}");
    assert_eq!(accepted.get("job_id").and_then(Value::as_u64), Some(1));
    wait_terminal(addr, 1);
    server.shutdown();
}
