//! `sam-cli train --addr` retry policy against a scripted listener: a
//! `--follow` poll (idempotent `GET`) that dies mid-response is retried,
//! a `POST /train` that dies after its body went out is **not** resubmitted
//! (the server may already have accepted it).

use sam::serve::http::read_request;
use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::process::Command;
use std::sync::{Arc, Mutex};

/// What the scripted server does with the next accepted connection.
#[derive(Clone, Copy)]
enum Step {
    /// Answer 200/202 with this JSON body.
    Answer(u16, &'static str),
    /// Read the request, send half a response, drop the connection.
    DropMidResponse,
}

/// Serve `script` one connection per step; returns the address and the log
/// of `METHOD path` lines actually received.
fn scripted_server(script: Vec<Step>) -> (String, Arc<Mutex<Vec<String>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&seen);
    std::thread::spawn(move || {
        for (step, stream) in script.into_iter().zip(listener.incoming()) {
            let mut stream = stream.expect("accept");
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let Ok(Some(request)) = read_request(&mut reader) else {
                continue;
            };
            log.lock()
                .unwrap()
                .push(format!("{} {}", request.method, request.path));
            let _ = match step {
                Step::Answer(status, body) => {
                    sam::serve::http::write_json_response(&mut stream, status, body, false)
                }
                Step::DropMidResponse => stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Le"),
            };
        }
    });
    (addr, seen)
}

fn train_remote(addr: &str, workload: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sam-cli"))
        .args(["train", "--addr", addr, "--model", "m", "--workload"])
        .arg(workload)
        .args(["--follow", "true", "--poll-ms", "10", "--retries", "1"])
        .output()
        .expect("run sam-cli")
}

fn workload_file(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("sam-retry-{tag}-{}.sql", std::process::id()));
    std::fs::write(&path, "SELECT COUNT(*) FROM A -- card=1\n").unwrap();
    path
}

#[test]
fn follow_poll_is_retried_after_a_mid_response_drop() {
    let (addr, seen) = scripted_server(vec![
        Step::Answer(202, r#"{"job_id": 7}"#),
        Step::DropMidResponse,
        Step::Answer(
            200,
            r#"{"state": "promoted", "stage": "finished", "model_version": 2}"#,
        ),
    ]);
    let workload = workload_file("poll");
    let out = train_remote(&addr, &workload);
    let _ = std::fs::remove_file(&workload);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "poll was not retried: {stderr}");
    assert!(stderr.contains("retry 1/1"), "{stderr}");
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 3, "{seen:?}");
    assert!(seen[0].starts_with("POST /train?model=m"), "{seen:?}");
    assert_eq!(&seen[1..], ["GET /jobs/7", "GET /jobs/7"]);
}

#[test]
fn post_train_is_not_resubmitted_after_a_mid_response_drop() {
    let (addr, seen) = scripted_server(vec![
        Step::DropMidResponse,
        Step::Answer(202, r#"{"job_id": 8}"#),
    ]);
    let workload = workload_file("post");
    let out = train_remote(&addr, &workload);
    let _ = std::fs::remove_file(&workload);
    assert!(
        !out.status.success(),
        "a POST whose fate is unknown must surface as an error"
    );
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 1, "POST /train was sent twice: {seen:?}");
}
