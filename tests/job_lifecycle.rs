//! The serve tier's one job table on the tier-1 path: generation and
//! training jobs share an id space, a status document, a cancel route, a
//! pair of counters per kind, and one journal replay — so every id gets one
//! answer from every route, before and after a restart.

use sam::prelude::*;
use sam::serve::{ServeConfig, Server};
use sam::storage::paper_example;
use serde_json::Value as Json;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let response =
        sam::serve::http::request(addr, method, path, &[], body.as_bytes()).expect("exchange");
    let doc = serde_json::parse_value(&response.text()).unwrap_or(Json::Null);
    (response.status, doc)
}

/// A server with the Figure-3 model registered as `demo` v1 (reference data
/// attached, so `/train` has statistics), plus a labelled workload body.
fn demo_server(config: ServeConfig) -> (Server, String) {
    let db = paper_example::figure3_database();
    let stats = DatabaseStats::from_database(&db);
    let mut gen = WorkloadGenerator::new(&db, 7);
    let workload = label_workload(&db, gen.multi_workload(24, 2)).unwrap();
    let config_fit = SamConfig {
        model: ArModelConfig {
            hidden: vec![12],
            seed: 1,
            residual: false,
        },
        train: TrainConfig {
            epochs: 4,
            batch_size: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    let trained = Sam::fit(db.schema(), &stats, &workload, &config_fit).unwrap();
    let server = Server::start(config).expect("start server");
    server
        .registry()
        .insert_with_reference("demo", trained, Arc::new(db));
    (server, sam::query::format_workload(&workload))
}

fn submit(addr: SocketAddr, path: &str, body: &str) -> u64 {
    let (status, accepted) = http(addr, "POST", path, body);
    assert_eq!(status, 202, "{path}: {accepted:?}");
    accepted.get("job_id").and_then(Json::as_u64).unwrap()
}

/// A small generation that finishes, and one big enough to be cancelled.
const GENERATE: &str = r#"{"model": "demo", "foj_samples": 300, "batch": 64, "seed": 3}"#;
const GENERATE_LONG: &str = r#"{"model": "demo", "foj_samples": 5000000, "batch": 64, "seed": 3}"#;
/// Q-Error is ≥ 1 by definition, so this gate rejects every candidate.
const TRAIN: &str = "/train?model=demo&epochs=1&batch=8&hidden=2&seed=9&max_qerror=0.99";
const TRAIN_LONG: &str = "/train?model=demo&epochs=10000&batch=8&hidden=2&seed=9";

/// Poll `GET /jobs/{id}` until the job leaves `running`; returns the state
/// label and the whole document.
fn wait_terminal(addr: SocketAddr, id: u64) -> (String, Json) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, doc) = http(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "job {id}: {doc:?}");
        let state = doc.get("state").and_then(Json::as_str).unwrap().to_string();
        if state != "running" {
            return (state, doc);
        }
        assert!(Instant::now() < deadline, "job {id} did not finish");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn counter(addr: SocketAddr, name: &str) -> u64 {
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    metrics.get(name).and_then(Json::as_u64).unwrap()
}

/// `jobs_started`/`jobs_finished` count generation jobs only; every started
/// training job lands on exactly one of `trains_promoted|rejected|failed`,
/// a cancelled one on `trains_failed`.
#[test]
fn job_counters_pair_up_per_kind() {
    let (server, workload) = demo_server(ServeConfig::default());
    let addr = server.addr();
    let generated = submit(addr, "/generate", GENERATE);
    let trained = submit(addr, TRAIN, &workload);
    assert_eq!(wait_terminal(addr, generated).0, "done");
    assert_eq!(wait_terminal(addr, trained).0, "rejected");
    let terminal = |addr| {
        ["trains_promoted", "trains_rejected", "trains_failed"]
            .iter()
            .map(|name| counter(addr, name))
            .sum::<u64>()
    };
    assert_eq!(counter(addr, "jobs_started"), 1);
    assert_eq!(counter(addr, "jobs_finished"), 1);
    assert_eq!(counter(addr, "trains_started"), 1);
    assert_eq!(terminal(addr), 1);

    let cancelled = submit(addr, TRAIN_LONG, &workload);
    assert_eq!(
        http(addr, "POST", &format!("/jobs/{cancelled}/cancel"), "").0,
        200
    );
    assert_eq!(wait_terminal(addr, cancelled).0, "cancelled");
    assert_eq!(
        counter(addr, "trains_failed"),
        1,
        "cancelled counts as failed"
    );
    assert_eq!(counter(addr, "trains_started"), terminal(addr));
    assert_eq!(counter(addr, "jobs_finished"), 1, "trains never touch it");
    server.shutdown();
}

/// One generate and one train run to a verdict, one of each is cancelled;
/// `/export` answers for every id; after a restart on the same journal all
/// four ids poll exactly as they did, and fresh ids start above them.
#[test]
fn both_kinds_keep_one_answer_per_id_across_a_restart() {
    let dir = std::env::temp_dir().join(format!("sam_job_lifecycle_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journalled = || ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let (server, workload) = demo_server(journalled());
    let addr = server.addr();
    let ids = [
        (submit(addr, "/generate", GENERATE), "done"),
        (submit(addr, TRAIN, &workload), "rejected"),
        (submit(addr, "/generate", GENERATE_LONG), "cancelled"),
        (submit(addr, TRAIN_LONG, &workload), "cancelled"),
    ];
    for (id, want) in &ids[2..] {
        let (status, doc) = http(addr, "POST", &format!("/jobs/{id}/cancel"), "");
        assert_eq!(status, 200, "cancel {id} ({want}): {doc:?}");
    }
    let before: Vec<Json> = ids
        .iter()
        .map(|(id, want)| {
            let (state, doc) = wait_terminal(addr, *id);
            assert_eq!(&state, want, "job {id}: {doc:?}");
            doc
        })
        .collect();
    assert!(before[0].get("training").is_none());
    assert!(before[1].get("training").is_some());
    assert_eq!(
        before[1].get("model_version").and_then(Json::as_u64),
        Some(1)
    );

    // One table, one answer per id: a finished generation exports, an
    // unfinished one and a training job are conflicts, not unknown ids.
    let export = |addr, id: u64| http(addr, "GET", &format!("/jobs/{id}/export?relation=A"), "");
    assert_eq!(export(addr, ids[0].0).0, 200);
    for (id, needle) in [(ids[1].0, "training job"), (ids[2].0, "not done")] {
        let (status, doc) = export(addr, id);
        assert_eq!(status, 409, "job {id}: {doc:?}");
        let error = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(needle), "job {id}: {error}");
    }
    assert_eq!(export(addr, ids[3].0 + 1).0, 404);
    server.shutdown();
    drop(server);

    let (server, _) = demo_server(journalled());
    let addr = server.addr();
    let replay = server.replay_journal().expect("replay");
    assert_eq!((replay.completed, replay.failed, replay.resumed), (2, 2, 0));
    for ((id, _), was) in ids.iter().zip(&before) {
        let (_, now) = wait_terminal(addr, *id);
        for key in ["state", "model", "model_version", "result", "error"] {
            assert_eq!(now.get(key), was.get(key), "job {id}: '{key}' changed");
        }
        assert_eq!(now.get("training").is_some(), was.get("training").is_some());
    }
    assert_eq!(export(addr, ids[0].0).0, 200);
    assert_eq!(export(addr, ids[1].0).0, 409);
    let fresh = submit(addr, "/generate", GENERATE);
    assert!(fresh > ids[3].0, "fresh id {fresh} collides with {ids:?}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
