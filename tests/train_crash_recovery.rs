//! Crash recovery for train-as-a-service: SIGKILL a `sam-cli serve` process
//! mid-training, restart it on the same journal directory, and require the
//! resumed job to finish, pass its shadow evaluation, and promote a model
//! **bit-for-bit identical** to the one an uninterrupted run with the same
//! spec produces. A crash costs wall time, never results — the same
//! guarantee generation jobs get, extended to training.

use sam::prelude::*;
use serde_json::Value as Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn json_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let response =
        sam::serve::http::request(addr, method, path, &[], body.as_bytes()).expect("exchange");
    (
        response.status,
        serde_json::parse_value(&response.text()).expect("JSON body"),
    )
}

/// A deliberately weak incumbent (one epoch, width 2): the retrained
/// candidate must beat it, so both runs end in promotion.
fn write_incumbent_and_data(dir: &Path) -> (PathBuf, PathBuf) {
    let db = sam::storage::paper_example::figure3_database();
    let stats = DatabaseStats::from_database(&db);
    let mut gen = WorkloadGenerator::new(&db, 7);
    let workload = label_workload(&db, gen.multi_workload(24, 2)).unwrap();
    let config = SamConfig {
        model: ArModelConfig {
            hidden: vec![2],
            seed: 3,
            residual: false,
        },
        train: TrainConfig {
            epochs: 1,
            batch_size: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    let trained = Sam::fit(db.schema(), &stats, &workload, &config).unwrap();
    let model_path = dir.join("model.json");
    std::fs::write(
        &model_path,
        sam::ar::save_model(trained.model(), trained.db_schema()),
    )
    .unwrap();

    let data_dir = dir.join("data");
    std::fs::create_dir_all(&data_dir).unwrap();
    for table in db.tables() {
        let mut file =
            std::fs::File::create(data_dir.join(format!("{}.csv", table.name()))).unwrap();
        sam::storage::csv::write_csv(table, &mut file).unwrap();
        file.flush().unwrap();
    }
    (model_path, data_dir)
}

/// The workload the candidate retrains on: larger than the incumbent's so
/// each epoch takes long enough for the SIGKILL to land mid-train.
fn training_body() -> String {
    let db = sam::storage::paper_example::figure3_database();
    let mut gen = WorkloadGenerator::new(&db, 21);
    let workload = label_workload(&db, gen.multi_workload(300, 2)).unwrap();
    sam::query::format_workload(&workload)
}

fn spawn_server(model: &Path, data: &Path, journal: &Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sam-cli"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--models",
            &format!("demo={}={}", model.display(), data.display()),
            "--journal-dir",
            &journal.display().to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sam-cli serve");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read server stdout") == 0 {
            panic!("server exited before announcing its address");
        }
        if let Some(rest) = line.split("listening on http://").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address token")
                .parse()
                .expect("server address");
        }
    };
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = reader.read_to_string(&mut sink);
    });
    (child, addr)
}

const TRAIN_PATH: &str =
    "/train?model=demo&epochs=60&batch=16&hidden=12&seed=5&holdout=0.2&eval_samples=64&checkpoint_every=1";

/// Submit the training job and wait for it to reach a terminal state;
/// panics unless that state is `promoted`. Returns the job id.
fn run_to_promotion(addr: SocketAddr, body: &str) -> u64 {
    let (status, accepted) = json_request(addr, "POST", TRAIN_PATH, body);
    assert_eq!(status, 202, "{accepted:?}");
    let id = accepted.get("job_id").and_then(Json::as_u64).unwrap();
    wait_promoted(addr, id);
    id
}

fn wait_promoted(addr: SocketAddr, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, polled) = json_request(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "job unknown: {polled:?}");
        match polled.get("state").and_then(Json::as_str) {
            Some("promoted") => return,
            Some("running") => {
                assert!(Instant::now() < deadline, "training did not finish");
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("training reached unexpected state {other:?}: {polled:?}"),
        }
    }
}

#[test]
fn killed_server_resumes_training_and_promotes_identical_model() {
    let dir = std::env::temp_dir().join(format!("sam_train_crash_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (model_path, data_dir) = write_incumbent_and_data(&dir);
    let body = training_body();

    // Reference run, never interrupted: train to promotion and keep the
    // persisted candidate bytes.
    let journal_fresh = dir.join("journal_fresh");
    let (mut child, addr) = spawn_server(&model_path, &data_dir, &journal_fresh);
    let fresh_id = run_to_promotion(addr, &body);
    let fresh_model = std::fs::read(
        journal_fresh
            .join("jobs")
            .join(fresh_id.to_string())
            .join("model.json"),
    )
    .expect("fresh run persisted its candidate");
    child.kill().expect("stop reference server");
    let _ = child.wait();

    // Crash run: SIGKILL as soon as the journal shows training underway
    // (an epoch record), before any terminal event.
    let journal_crash = dir.join("journal_crash");
    let (mut child, addr) = spawn_server(&model_path, &data_dir, &journal_crash);
    let (status, accepted) = json_request(addr, "POST", TRAIN_PATH, &body);
    assert_eq!(status, 202, "{accepted:?}");
    let id = accepted.get("job_id").and_then(Json::as_u64).unwrap();

    let log = journal_crash.join("journal.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let text = std::fs::read_to_string(&log).unwrap_or_default();
        assert!(
            !text.contains("\"promoted\"") && !text.contains("\"rejected\""),
            "training finished before the kill landed; raise epochs in TRAIN_PATH"
        );
        if text.contains("\"epoch\"") {
            break;
        }
        assert!(Instant::now() < deadline, "training never reached an epoch");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL server");
    let _ = child.wait();

    // Restart on the same journal: the interrupted job must come back under
    // its id, resume from its checkpoint, and promote.
    let (mut child, addr) = spawn_server(&model_path, &data_dir, &journal_crash);
    wait_promoted(addr, id);

    let log_text = std::fs::read_to_string(&log).unwrap();
    assert!(
        log_text.contains("\"resumed\""),
        "restart did not resume the interrupted training job:\n{log_text}"
    );

    // The promoted candidate serves as a new version of the incumbent name.
    let (status, est) = json_request(
        addr,
        "POST",
        "/estimate",
        r#"{"model": "demo", "sql": "SELECT COUNT(*) FROM A", "samples": 64, "seed": 1}"#,
    );
    assert_eq!(status, 200, "{est:?}");
    assert!(est.get("model_version").and_then(Json::as_u64).unwrap() >= 2);

    // Bit-for-bit: the resumed run's promoted weights equal the
    // uninterrupted run's.
    let resumed_model = std::fs::read(
        journal_crash
            .join("jobs")
            .join(id.to_string())
            .join("model.json"),
    )
    .expect("resumed run persisted its candidate");
    assert_eq!(
        resumed_model, fresh_model,
        "resumed training diverged from the uninterrupted run"
    );

    child.kill().expect("stop server");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
