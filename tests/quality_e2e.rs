//! End-to-end test of the quality-observability layer: a served model with
//! reference relations attached is driven with estimates, and the quality
//! drift monitor must surface the (inevitably imperfect) answers — in
//! `GET /quality`, in `/metrics` (JSON and Prometheus), in the flight
//! recorder, and in the JSONL audit file, whose lines must feed straight
//! back into `workgen mine` as seeds.

use sam::prelude::*;
use sam::serve::{ServeConfig, Server};
use sam::storage::paper_example;
use serde_json::Value as Json;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn http_raw(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let response =
        sam::serve::http::request(addr, method, path, &[], body.as_bytes()).expect("exchange");
    (response.status, response.text())
}

fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let (status, payload) = http_raw(addr, method, path, body);
    (
        status,
        serde_json::parse_value(&payload).expect("JSON body"),
    )
}

fn train_demo_model() -> (TrainedSam, Vec<Query>, Database) {
    let db = paper_example::figure3_database();
    let stats = DatabaseStats::from_database(&db);
    let mut gen = WorkloadGenerator::new(&db, 13);
    let workload = label_workload(&db, gen.multi_workload(24, 2)).unwrap();
    let config = SamConfig {
        model: ArModelConfig {
            hidden: vec![12],
            seed: 5,
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
    let queries: Vec<Query> = workload
        .iter()
        .map(|lq| lq.query.clone())
        .filter(|q| parse_query(&q.to_string()).as_ref() == Ok(q))
        .take(6)
        .collect();
    assert!(queries.len() >= 3, "need round-trippable queries");
    (trained, queries, db)
}

/// Drive estimates through a server whose quality monitor samples 100% of
/// traffic against attached reference relations with a threshold barely
/// above perfect (a 4-epoch toy model is nowhere near it), then check every
/// surface the drift should appear on.
#[test]
fn quality_drift_surfaces_everywhere() {
    let (trained, queries, db) = train_demo_model();
    let audit_path =
        std::env::temp_dir().join(format!("sam_quality_audit_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&audit_path);

    let server = Server::start(ServeConfig {
        workers: 2,
        max_batch: 4,
        quality_sample: 1.0,
        quality_window: 64,
        quality_alert_qerror: 1.001,
        quality_audit: Some(audit_path.clone()),
        flight_capacity: 128,
        ..ServeConfig::default()
    })
    .expect("start server");
    server
        .registry()
        .insert_with_reference("demo", trained, Arc::new(db.clone()));
    let addr = server.addr();

    // Distinct (query, seed) pairs: cache misses only, so every answered
    // estimate is eligible for shadow scoring.
    let mut trace_ids: Vec<u64> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let body = serde_json::to_string(&serde_json::json!({
            "model": "demo",
            "sql": q.to_string(),
            "samples": 48,
            "seed": 1000 + i as u64,
        }))
        .unwrap();
        let (status, doc) = http(addr, "POST", "/estimate", &body);
        assert_eq!(status, 200, "estimate failed: {doc:?}");
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
        trace_ids.push(
            doc.get("trace_id")
                .and_then(Json::as_u64)
                .expect("trace id"),
        );
    }
    let driven = trace_ids.len() as u64;

    // The scorer runs on its own thread; wait until every submitted task
    // is accounted for (scored or dropped).
    let deadline = Instant::now() + Duration::from_secs(30);
    let quality = loop {
        let (status, doc) = http(addr, "GET", "/quality", "");
        assert_eq!(status, 200);
        let done = doc.get("samples").and_then(Json::as_u64).unwrap_or(0)
            + doc.get("dropped").and_then(Json::as_u64).unwrap_or(0);
        if done >= driven {
            break doc;
        }
        assert!(Instant::now() < deadline, "quality scorer stalled: {doc:?}");
        std::thread::sleep(Duration::from_millis(50));
    };

    // /quality: the toy model cannot be within 0.1% on every query, so the
    // worst window Q-Error must sit above the alert threshold.
    assert_eq!(quality.get("sample").and_then(Json::as_f64), Some(1.0));
    let alerts = quality.get("alerts").and_then(Json::as_u64).unwrap();
    assert!(alerts > 0, "no quality alerts: {quality:?}");
    let models = quality
        .get("models")
        .and_then(Json::as_array)
        .expect("models array");
    assert_eq!(models.len(), 1);
    let entry = &models[0];
    assert_eq!(entry.get("model").and_then(Json::as_str), Some("demo"));
    assert_eq!(entry.get("mode").and_then(Json::as_str), Some("exact"));
    let worst = entry.get("worst_qerror").and_then(Json::as_f64).unwrap();
    assert!(worst > 1.001, "worst Q-Error {worst} not above threshold");
    assert!(
        entry.get("p50_qerror").and_then(Json::as_f64).unwrap() <= worst,
        "p50 must not exceed worst"
    );

    // /metrics (JSON): quality counters visible to scrapers.
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(
        metrics.get("quality_alerts").and_then(Json::as_u64),
        Some(alerts)
    );
    assert!(
        metrics
            .get("quality_samples")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    assert!(
        metrics
            .get("quality_worst_qerror")
            .and_then(Json::as_f64)
            .unwrap()
            > 1.001
    );
    assert!(
        metrics
            .get("uptime_seconds")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0
    );
    assert!(metrics
        .get("cache_hit_ratio")
        .and_then(Json::as_f64)
        .is_some());

    // /metrics (Prometheus): families with HELP/TYPE, build info with
    // labels, and latency-bucket exemplars pointing at real trace ids.
    let (status, text) = http_raw(addr, "GET", "/metrics?format=prometheus", "");
    assert_eq!(status, 200);
    assert!(text.contains("# TYPE sam_quality_alerts_total counter"));
    assert!(text.contains("# HELP sam_quality_worst_qerror"));
    assert!(text.contains("# TYPE sam_estimate_latency_seconds histogram"));
    assert!(text.contains("sam_build_info{"));
    assert!(text.contains("version=\""));
    assert!(text.contains("sam_uptime_seconds"));
    assert!(
        text.contains("# {trace_id=\""),
        "no exemplar on the latency histogram"
    );

    // /debug/flight: the driven estimates' trace ids are all in the ring.
    let (status, flight) = http(addr, "GET", "/debug/flight?last=50", "");
    assert_eq!(status, 200);
    let events = flight.get("events").and_then(Json::as_array).unwrap();
    let estimate_traces: Vec<u64> = events
        .iter()
        .filter(|e| e.get("endpoint").and_then(Json::as_str) == Some("estimate"))
        .filter_map(|e| e.get("trace_id").and_then(Json::as_u64))
        .collect();
    for id in &trace_ids {
        assert!(
            estimate_traces.contains(id),
            "trace {id} missing from flight recorder: {estimate_traces:?}"
        );
    }
    for e in events {
        assert_eq!(e.get("status").and_then(Json::as_u64), Some(200));
    }

    // /debug/buildinfo: identity and flight-recorder health.
    let (status, info) = http(addr, "GET", "/debug/buildinfo", "");
    assert_eq!(status, 200);
    assert!(info.get("version").and_then(Json::as_str).is_some());
    assert!(info.get("git_sha").and_then(Json::as_str).is_some());
    assert!(info.get("uptime_seconds").and_then(Json::as_f64).unwrap() > 0.0);
    assert_eq!(info.get("models").and_then(Json::as_u64), Some(1));
    let fl = info.get("flight").expect("flight block");
    assert_eq!(fl.get("capacity").and_then(Json::as_u64), Some(128));
    assert!(fl.get("total").and_then(Json::as_u64).unwrap() > 0);

    // /debug/loglevel: live get/put round trip (restored afterwards).
    let (status, level) = http(addr, "GET", "/debug/loglevel", "");
    assert_eq!(status, 200);
    assert_eq!(level.get("level").and_then(Json::as_str), Some("silent"));
    let (status, level) = http(addr, "PUT", "/debug/loglevel", r#"{"level":"info"}"#);
    assert_eq!(status, 200);
    assert_eq!(level.get("level").and_then(Json::as_str), Some("info"));
    let (status, _) = http(addr, "PUT", "/debug/loglevel", r#"{"level":"nope"}"#);
    assert_eq!(status, 400);
    let (status, level) = http(addr, "PUT", "/debug/loglevel", r#"{"level":"silent"}"#);
    assert_eq!(status, 200);
    assert_eq!(level.get("level").and_then(Json::as_str), Some("silent"));

    // Shutdown flushes the audit file; its JSONL lines must parse as
    // workload seeds and feed `workgen mine` without error.
    let model = server.registry().get("demo").unwrap();
    server.shutdown();
    let audit_text = std::fs::read_to_string(&audit_path).expect("audit file written");
    assert!(!audit_text.trim().is_empty(), "audit file empty");
    for line in audit_text.lines() {
        let doc = serde_json::parse_value(line).expect("audit line is JSON");
        assert!(doc.get("sql").and_then(Json::as_str).is_some());
        assert!(doc.get("q_error").and_then(Json::as_f64).unwrap() > 1.001);
        assert!(trace_ids.contains(&doc.get("trace_id").and_then(Json::as_u64).unwrap()));
    }
    let seeds: Vec<Query> = sam::query::read_workload_entries(audit_text.as_bytes())
        .expect("audit re-reads as workload")
        .into_iter()
        .map(|(q, _)| q)
        .collect();
    assert!(!seeds.is_empty());
    let report = sam::workgen::mine_hard_queries(
        model.trained.model(),
        &db,
        &seeds,
        &sam::workgen::MinerConfig {
            top_k: 2,
            rounds: 1,
            pool: 4,
            mutants: 2,
            samples: 16,
            seed: 7,
        },
    )
    .expect("audit seeds mine cleanly");
    assert!(!report.worst.is_empty());
    let _ = std::fs::remove_file(&audit_path);
}

/// Only a model with reference relations is scored: a data-less model
/// served beside one with data gets no window in `GET /quality`, and none
/// of its estimates counts as a sample or as dropped.
#[test]
fn data_less_model_gets_no_quality_window() {
    let (trained, queries, db) = train_demo_model();
    let server = Server::start(ServeConfig {
        workers: 1,
        quality_sample: 1.0,
        quality_alert_qerror: 1.5,
        ..ServeConfig::default()
    })
    .expect("start server");
    server.registry().insert("bare", trained.clone());
    server
        .registry()
        .insert_with_reference("demo", trained, Arc::new(db));
    let addr = server.addr();

    // The data-less model's estimates go first: the scorer is FIFO, so once
    // the referenced model's samples are in, anything submitted for the
    // data-less one would have been scored or dropped too.
    let driven = 3u64;
    for model in ["bare", "demo"] {
        for (i, q) in queries.iter().take(driven as usize).enumerate() {
            let body = serde_json::to_string(&serde_json::json!({
                "model": model,
                "sql": q.to_string(),
                "samples": 32,
                "seed": 500 + i as u64,
            }))
            .unwrap();
            let (status, _) = http(addr, "POST", "/estimate", &body);
            assert_eq!(status, 200);
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let quality = loop {
        let (_, doc) = http(addr, "GET", "/quality", "");
        let done = doc.get("samples").and_then(Json::as_u64).unwrap_or(0)
            + doc.get("dropped").and_then(Json::as_u64).unwrap_or(0);
        if done >= driven {
            break doc;
        }
        assert!(Instant::now() < deadline, "quality scorer stalled: {doc:?}");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(quality.get("samples").and_then(Json::as_u64), Some(driven));
    assert_eq!(quality.get("dropped").and_then(Json::as_u64), Some(0));
    let models = quality.get("models").and_then(Json::as_array).unwrap();
    assert_eq!(models.len(), 1, "{quality:?}");
    assert_eq!(models[0].get("model").and_then(Json::as_str), Some("demo"));
    assert_eq!(models[0].get("window").and_then(Json::as_u64), Some(driven));
    server.shutdown();
}
