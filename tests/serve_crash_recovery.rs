//! True crash recovery: SIGKILL a `sam-cli serve` process mid-generation,
//! restart it on the same journal directory, and require the resumed job to
//! finish and export **bit-for-bit** the database a fresh run with the same
//! seed produces. This is the end-to-end guarantee `--journal-dir` makes:
//! a crash costs wall time, never results.

use sam::prelude::*;
use sam::serve::http::Response;
use serde_json::Value as Json;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One-shot request (`Connection: close`) through the shared client.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    sam::serve::http::request(addr, method, path, &[], body.as_bytes()).expect("exchange")
}

fn json_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let response = request(addr, method, path, body);
    let text = std::str::from_utf8(&response.body).expect("UTF-8 body");
    (
        response.status,
        serde_json::parse_value(text).expect("JSON body"),
    )
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

/// Generate in-process through the **same load path the server uses**
/// (`load_model` + `Sam::from_frozen`), so the comparison pins down the
/// serving stack, not checkpoint round-tripping.
fn fresh_generate(model_path: &Path, config: &GenerationConfig) -> Database {
    let text = std::fs::read_to_string(model_path).unwrap();
    let (model, db_schema) = sam::ar::load_model(&text).unwrap();
    let report = sam::ar::TrainReport {
        epoch_losses: Vec::new(),
        constraints_processed: 0,
        wall_seconds: 0.0,
    };
    let trained = Sam::from_frozen(db_schema, model, report);
    let (db, _) = trained.generate(config).unwrap();
    db
}

/// Spawn `sam-cli serve` on an ephemeral port and parse the bound address
/// from its startup banner.
fn spawn_server(model: &Path, journal: &Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sam-cli"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--models",
            &format!("demo={}", model.display()),
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
    // Keep draining stdout so the child can never block on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = reader.read_to_string(&mut sink);
    });
    (child, addr)
}

#[test]
fn killed_server_resumes_job_and_export_matches_fresh_run() {
    let dir = std::env::temp_dir().join(format!("sam_crash_recovery_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal_dir = dir.join("journal");
    let model_path = train_and_save(&dir);
    let gen_config = GenerationConfig {
        foj_samples: 20_000,
        batch: 64,
        seed: 11,
        strategy: JoinKeyStrategy::GroupAndMerge,
    };

    // Submit a job and SIGKILL the server the moment the journal shows it
    // running — no drain, no terminal event, exactly a crash.
    let (mut child, addr) = spawn_server(&model_path, &journal_dir);
    let (status, accepted) = json_request(
        addr,
        "POST",
        "/generate",
        r#"{"model": "demo", "foj_samples": 20000, "batch": 64, "seed": 11}"#,
    );
    assert_eq!(status, 202, "{accepted:?}");
    let id = accepted.get("job_id").and_then(Json::as_u64).unwrap();

    let log = journal_dir.join("journal.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !std::fs::read_to_string(&log)
        .unwrap_or_default()
        .contains("\"running\"")
    {
        assert!(Instant::now() < deadline, "job never reached running");
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL server");
    let _ = child.wait();

    // Restart on the same journal: the job must come back under its id and
    // run to completion from its recorded seed.
    let (mut child, addr) = spawn_server(&model_path, &journal_dir);
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, polled) = json_request(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "job unknown after restart: {polled:?}");
        match polled.get("state").and_then(Json::as_str) {
            Some("done") => break,
            Some("running") => {
                assert!(Instant::now() < deadline, "resumed job did not finish");
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("resumed job in unexpected state {other:?}: {polled:?}"),
        }
    }

    // The journal must show an actual resume (the kill landed mid-job, so
    // replay re-spawned the job rather than reloading a completed one).
    let log_text = std::fs::read_to_string(&log).unwrap();
    assert!(
        log_text.contains("\"resumed\""),
        "restart did not resume the interrupted job:\n{log_text}"
    );

    // Every exported relation must match a fresh same-seed run exactly.
    let reference = fresh_generate(&model_path, &gen_config);
    for table in reference.tables() {
        let response = request(
            addr,
            "GET",
            &format!("/jobs/{id}/export?relation={}", table.name()),
            "",
        );
        assert_eq!(response.status, 200, "export {}", table.name());
        assert_eq!(
            response.header("transfer-encoding"),
            Some("chunked"),
            "{:?}",
            response.headers
        );
        // The shared client only returns a body whose chunked stream was
        // well-formed through the terminal chunk.
        let exported = response.body;
        let mut want = Vec::new();
        sam::storage::csv::write_csv(table, &mut want).unwrap();
        assert_eq!(
            exported,
            want,
            "table {}: resumed export differs from fresh run",
            table.name()
        );
    }

    child.kill().expect("stop server");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
