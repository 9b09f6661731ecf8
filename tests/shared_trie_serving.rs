//! Acceptance lock for serving estimates from one prefix trie per model
//! version: concurrent connections answer with the bits of a fresh
//! in-process `Estimator`, and conditionals cached while serving one
//! connection serve every other connection.
//!
//! This is the only test in this binary on purpose: it asserts on the
//! process-global `sam_obs` counters, which other tests would contaminate.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sam::ar::{ArModel, ArModelConfig, ArSchema, Estimator};
use sam::prelude::*;
use sam::serve::http::{build_request, Conn};
use sam::serve::{ServeConfig, Server};
use serde_json::Value as Json;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const CONNECTIONS: usize = 4;
const PER_CONNECTION: usize = 8;
const SAMPLES: usize = 64;

/// An untrained model over one table of eight 40-valued columns: sample
/// paths diverge within a column or two, so distinct queries walk mostly
/// distinct prefixes.
fn wide_table_model() -> TrainedSam {
    let columns = (0..8)
        .map(|c| ColumnDef::content(format!("c{c}"), DataType::Int))
        .collect();
    let rows: Vec<Vec<Value>> = (0..160i64)
        .map(|r| (0..8).map(|c| Value::Int((r * (c + 1)) % 40)).collect())
        .collect();
    let db = Database::single(Table::from_rows(TableSchema::new("W", columns), &rows).unwrap());
    let stats = DatabaseStats::from_database(&db);
    let schema = ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
    let config = ArModelConfig {
        hidden: vec![64, 64],
        seed: 3,
        residual: false,
    };
    let model = ArModel::new(schema, &config).freeze();
    let report = sam::ar::TrainReport {
        epoch_losses: vec![],
        constraints_processed: 0,
        wall_seconds: 0.0,
    };
    Sam::from_frozen(db.schema().clone(), model, report)
}

/// Request `k`: a distinct range predicate and its own seed.
fn request(k: usize) -> (String, u64) {
    let sql = format!(
        "SELECT COUNT(*) FROM W WHERE W.c{} <= {}",
        k % 8,
        5 + k % 30
    );
    (sql, k as u64)
}

/// One round: connection `c` sends the requests of `plan[c]`, all
/// connections at once. Returns each connection's estimates, in order.
fn round(conns: Vec<Conn>, plan: Vec<Vec<usize>>) -> (Vec<Conn>, Vec<Vec<(usize, f64)>>) {
    let start = Arc::new(Barrier::new(conns.len()));
    let handles: Vec<_> = conns
        .into_iter()
        .zip(plan)
        .map(|(mut conn, ks)| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let got: Vec<(usize, f64)> = ks
                    .into_iter()
                    .map(|k| {
                        let (sql, seed) = request(k);
                        let body = serde_json::to_string(&serde_json::json!({
                            "model": "w",
                            "sql": sql,
                            "samples": SAMPLES,
                            "seed": seed,
                        }))
                        .unwrap();
                        let raw = build_request("POST", "/estimate", &[], body.as_bytes());
                        let reply = conn.exchange(&raw).expect("exchange");
                        let doc = serde_json::parse_value(&reply.text()).expect("JSON body");
                        assert_eq!(reply.status, 200, "request {k}: {doc:?}");
                        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));
                        (k, doc.get("estimate").and_then(Json::as_f64).unwrap())
                    })
                    .collect();
                (conn, got)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).unzip()
}

#[test]
fn every_connection_reads_the_model_versions_one_trie() {
    let config = ServeConfig {
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let server = Server::start(config).expect("start server");
    server.registry().insert("w", wide_table_model());
    let addr = server.addr();
    let model = server.registry().get("w").unwrap().trained.model().clone();

    let total = CONNECTIONS * PER_CONNECTION;
    let expected: Vec<u64> = (0..total)
        .map(|k| {
            let (sql, seed) = request(k);
            let query = parse_query(&sql).expect("the request's SQL parses");
            Estimator::new(model.clone())
                .estimate(&query, SAMPLES, &mut StdRng::seed_from_u64(seed))
                .expect("in-process estimate")
                .to_bits()
        })
        .collect();
    let check = |answers: &[Vec<(usize, f64)>], round: &str| {
        for &(k, estimate) in answers.iter().flatten() {
            assert_eq!(
                estimate.to_bits(),
                expected[k],
                "{round}: request {k} served {estimate}, not the in-process bits"
            );
        }
    };

    let conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::new(addr, Duration::from_secs(5), Duration::from_secs(60)))
        .collect();
    let plan = |shift: usize| -> Vec<Vec<usize>> {
        (0..CONNECTIONS)
            .map(|c| {
                let owner = (c + shift) % CONNECTIONS;
                (0..PER_CONNECTION)
                    .map(|i| owner * PER_CONNECTION + i)
                    .collect()
            })
            .collect()
    };

    // Round 1, cold: every connection's requests are its own.
    let (conns, first) = round(conns, plan(0));
    check(&first, "round 1");

    // Round 2: the same requests, each on another connection than the one
    // that sent it first. One trie per model version means every prefix is
    // already cached, whichever connection or pass cached it.
    let forwards = sam::obs::counter("sam_forward_total");
    let trie_hits = sam::obs::counter("sam_trie_hits_total");
    let (forwards_before, hits_before) = (forwards.get(), trie_hits.get());
    let (_conns, second) = round(conns, plan(1));
    check(&second, "round 2");
    assert_eq!(
        forwards.get() - forwards_before,
        0,
        "a connection forwarded a prefix another connection's pass had cached"
    );
    assert!(
        trie_hits.get() > hits_before,
        "round 2 must read the cached conditionals"
    );

    let reply = sam::serve::http::request(addr, "GET", "/metrics", &[], b"").unwrap();
    let metrics = serde_json::parse_value(&reply.text()).unwrap();
    assert_eq!(
        metrics.get("estimates_ok").and_then(Json::as_u64),
        Some(2 * total as u64)
    );
    server.shutdown();
}
