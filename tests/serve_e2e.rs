//! End-to-end test of the serving subsystem through the public facade:
//! concurrent HTTP clients must get estimates **bit-identical** to the
//! in-process API, and generation jobs must produce the same database shape
//! as a direct `generate` call.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sam::prelude::*;
use sam::serve::{ServeConfig, Server};
use sam::storage::paper_example;
use serde_json::Value as Json;
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

fn train_demo_model() -> (TrainedSam, Vec<Query>) {
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
    // Queries whose SQL text round-trips through the parser, so the HTTP
    // client and the in-process API see the exact same Query.
    let queries: Vec<Query> = workload
        .iter()
        .map(|lq| lq.query.clone())
        .filter(|q| parse_query(&q.to_string()).as_ref() == Ok(q))
        .take(6)
        .collect();
    assert!(queries.len() >= 3, "need round-trippable queries");
    (trained, queries)
}

/// ≥8 concurrent clients hammer `/estimate`; every response must equal an
/// in-process `Estimator::estimate` with the same (query, samples, seed) —
/// concurrency and the estimate cache must be invisible in the results.
#[test]
fn concurrent_http_estimates_are_bit_identical_to_in_process() {
    const CLIENTS: usize = 8;
    const SAMPLES: usize = 96;

    let (trained, queries) = train_demo_model();
    let server = Server::start(ServeConfig::default()).expect("start server");
    server.registry().insert("demo", trained);
    let addr = server.addr();
    let model = server.registry().get("demo").unwrap();

    // Expected values computed in-process, sequentially.
    let mut expected = Vec::new();
    for (c, q) in (0..CLIENTS).flat_map(|c| queries.iter().map(move |q| (c, q))) {
        let seed = 1000 + c as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let est = sam::ar::Estimator::new(model.trained.model().clone())
            .estimate(q, SAMPLES, &mut rng)
            .expect("in-process estimate");
        expected.push((c, q.to_string(), seed, est));
    }

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let sqls: Vec<String> = queries.iter().map(|q| q.to_string()).collect();
            std::thread::spawn(move || {
                let seed = 1000 + c as u64;
                sqls.into_iter()
                    .map(|sql| {
                        let body = serde_json::to_string(&serde_json::json!({
                            "model": "demo",
                            "sql": sql,
                            "samples": SAMPLES,
                            "seed": seed,
                        }))
                        .unwrap();
                        let (status, reply) = http(addr, "POST", "/estimate", &body);
                        assert_eq!(status, 200, "estimate failed: {reply:?}");
                        (
                            reply.get("estimate").and_then(Json::as_f64).unwrap(),
                            reply.get("batch_size").and_then(Json::as_u64).unwrap(),
                        )
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let got: Vec<Vec<(f64, u64)>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for (c, sql, _seed, want) in &expected {
        let q_idx = queries.iter().position(|q| q.to_string() == *sql).unwrap();
        let (est, _batch) = got[*c][q_idx];
        assert_eq!(
            est, *want,
            "client {c} query {sql:?}: server {est} != in-process {want}"
        );
    }

    let (_, metrics) = http(addr, "GET", "/metrics", "");
    let total = (CLIENTS * queries.len()) as u64;
    assert_eq!(
        metrics.get("estimates_ok").and_then(Json::as_u64),
        Some(total)
    );
    assert_eq!(
        metrics.get("batched_requests").and_then(Json::as_u64),
        Some(total)
    );

    // Prometheus exposition: valid text format with non-zero batch counts
    // and latency histogram buckets for the estimates just served.
    let (status, prom) = http_raw(addr, "GET", "/metrics?format=prometheus", "");
    assert_eq!(status, 200);
    assert!(prom.contains("# TYPE sam_batches_total counter"), "{prom}");
    let batches_line = prom
        .lines()
        .find(|l| l.starts_with("sam_batches_total "))
        .expect("sam_batches_total sample");
    let batches: u64 = batches_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(batches > 0, "served estimates must record batches: {prom}");
    assert!(
        prom.contains("# TYPE sam_estimate_latency_seconds histogram"),
        "{prom}"
    );
    assert!(
        prom.contains("sam_estimate_latency_seconds_bucket{le=\""),
        "{prom}"
    );
    assert!(
        prom.contains("sam_estimate_latency_seconds_bucket{le=\"+Inf\"}"),
        "{prom}"
    );
    server.shutdown();
}

/// `/generate` job lifecycle: accepted → polled to `done` → the summary
/// matches an in-process `generate` with the same configuration.
#[test]
fn generation_job_matches_in_process_generate() {
    let (trained, _) = train_demo_model();
    let gen_config = GenerationConfig {
        foj_samples: 400,
        batch: 64,
        seed: 11,
        strategy: JoinKeyStrategy::GroupAndMerge,
    };
    let (direct, _) = trained.generate(&gen_config).expect("direct generate");

    let server = Server::start(ServeConfig::default()).expect("start server");
    server.registry().insert("demo", trained);
    let addr = server.addr();

    let (status, accepted) = http(
        addr,
        "POST",
        "/generate",
        r#"{"model": "demo", "foj_samples": 400, "batch": 64, "seed": 11}"#,
    );
    assert_eq!(status, 202, "{accepted:?}");
    let id = accepted.get("job_id").and_then(Json::as_u64).unwrap();

    let deadline = Instant::now() + Duration::from_secs(120);
    let done = loop {
        let (status, polled) = http(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200);
        match polled.get("state").and_then(Json::as_str) {
            Some("done") => break polled,
            Some("running") => {
                assert!(Instant::now() < deadline, "job did not finish in time");
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected job state {other:?}: {polled:?}"),
        }
    };
    assert_eq!(done.get("progress").and_then(Json::as_f64), Some(1.0));
    let tables = done
        .get("result")
        .and_then(|r| r.get("tables"))
        .and_then(Json::as_array)
        .expect("result tables");
    assert_eq!(tables.len(), direct.tables().len());
    for summary in tables {
        let name = summary.get("table").and_then(Json::as_str).unwrap();
        let rows = summary.get("rows").and_then(Json::as_u64).unwrap() as usize;
        let want = direct.table_by_name(name).unwrap().num_rows();
        assert_eq!(rows, want, "table {name}: server {rows} != direct {want}");
    }
    server.shutdown();
}
