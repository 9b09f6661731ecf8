//! A `sam-cli router`'s workers live exactly as long as the router: a router
//! killed with SIGKILL, which runs no handler, takes its `sam-cli serve`
//! workers with it, and a worker the router spawns on a request's thread
//! outlives that request. Linux only: the kernel's parent-death signal does
//! the killing.
#![cfg(target_os = "linux")]

use serde_json::Value as Json;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGKILL: i32 = 9;

/// True while process `pid` exists and has not exited (a zombie has).
fn running(pid: u32) -> bool {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return false;
    };
    // `pid (comm) state …`: the state follows the last `)`.
    let state = stat
        .rsplit_once(')')
        .and_then(|(_, rest)| rest.trim_start().chars().next());
    !matches!(state, None | Some('Z') | Some('X'))
}

/// A `sam-cli router` child with one worker. Dropping it SIGKILLs the
/// router and every worker pid in `workers`, so a failing test leaves no
/// process behind.
struct RouterProcess {
    child: Child,
    addr: String,
    workers: Vec<u32>,
    store: PathBuf,
}

impl RouterProcess {
    fn start(tag: &str) -> RouterProcess {
        let store =
            std::env::temp_dir().join(format!("sam_router_workers_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store);
        let mut child = Command::new(env!("CARGO_BIN_EXE_sam-cli"))
            .args(["router", "--addr", "127.0.0.1:0", "--workers", "1"])
            .arg("--store-root")
            .arg(&store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("start sam-cli router");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let addr = loop {
            let mut line = String::new();
            let read = stdout
                .read_line(&mut line)
                .expect("read the router's stdout");
            assert!(read > 0, "the router exited before its banner");
            if let Some(rest) = line.split("sam-router listening on http://").nth(1) {
                break rest.split_whitespace().next().expect("address").to_string();
            }
        };
        std::thread::spawn(move || std::io::copy(&mut stdout, &mut std::io::sink()));
        RouterProcess {
            child,
            addr,
            workers: Vec::new(),
            store,
        }
    }

    fn request(&self, method: &str, path: &str) -> (u16, Json) {
        let response = sam::serve::http::request(&self.addr, method, path, &[], b"")
            .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
        let text = String::from_utf8(response.body).expect("utf-8 body");
        let json = serde_json::parse_value(&text).expect("JSON body");
        (response.status, json)
    }

    /// Each worker's pid by slot, from `/admin/topology`; remembered for
    /// the clean-up.
    fn worker_pids(&mut self) -> Vec<(u64, u32)> {
        let (status, topology) = self.request("GET", "/admin/topology");
        assert_eq!(status, 200, "topology: {topology:?}");
        let workers = topology
            .get("workers")
            .and_then(Json::as_array)
            .expect("workers");
        let pids: Vec<(u64, u32)> = workers
            .iter()
            .map(|w| {
                let slot = w.get("slot").and_then(Json::as_u64).expect("slot");
                let pid = w.get("pid").and_then(Json::as_u64).expect("pid");
                (slot, pid as u32)
            })
            .collect();
        self.workers = pids.iter().map(|&(_, pid)| pid).collect();
        pids
    }
}

impl Drop for RouterProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for &pid in &self.workers {
            if running(pid) {
                // SAFETY: a plain system call on a pid this test started.
                unsafe { kill(pid as i32, SIGKILL) };
            }
        }
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

#[test]
fn a_router_killed_with_sigkill_takes_its_workers_with_it() {
    let mut router = RouterProcess::start("sigkill");
    let pids = router.worker_pids();
    assert_eq!(pids.len(), 1, "one worker: {pids:?}");
    let pid = pids[0].1;
    assert!(
        running(pid),
        "worker {pid} runs before the router is killed"
    );

    router.child.kill().expect("SIGKILL the router");
    router.child.wait().expect("reap the router");
    let deadline = Instant::now() + Duration::from_secs(5);
    while running(pid) {
        assert!(
            Instant::now() < deadline,
            "worker {pid} still runs 5 s after its router was killed with SIGKILL"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_worker_joined_over_http_outlives_the_join_request() {
    let mut router = RouterProcess::start("join");
    // `request` sends `Connection: close`: the connection, and the router
    // thread that served it and spawned the worker, end with the response.
    let (status, joined) = router.request("POST", "/admin/join");
    assert_eq!(status, 200, "join: {joined:?}");
    let slot = joined
        .get("joined")
        .and_then(Json::as_u64)
        .expect("joined slot");
    let pids = router.worker_pids();
    let pid = pids
        .iter()
        .find(|&&(s, _)| s == slot)
        .map(|&(_, pid)| pid)
        .expect("the joined worker's pid");

    std::thread::sleep(Duration::from_secs(1));
    assert!(
        running(pid),
        "joined worker {pid} died with its request's thread"
    );
    let (status, health) = router.request("GET", "/healthz");
    assert_eq!(status, 200, "healthz: {health:?}");
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("ok"),
        "every worker healthy a second after the join: {health:?}"
    );
    assert!(running(pid), "joined worker {pid} still runs");
}
