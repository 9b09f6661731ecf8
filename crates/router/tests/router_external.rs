//! Router integration tests against *external* in-process `sam-serve`
//! workers (`WorkerSpec::external_addr`): routing by model, fan-out merges,
//! degradation to `503` + `Retry-After` while a shard is down or draining,
//! and the surviving shard answering throughout. The subprocess half of the
//! story (spawn, restart, crash points, bit-for-bit resume) lives in the
//! root `tests/router_failover.rs`.

use sam_core::{Sam, SamConfig, TrainedSam};
use sam_query::eval::label_workload;
use sam_query::WorkloadGenerator;
use sam_router::router::{Router, RouterConfig};
use sam_router::worker::{ModelSpec, WorkerHealth, WorkerSpec};
use sam_serve::{ServeConfig, Server};
use sam_storage::{paper_example, DatabaseStats};
use serde_json::Value;
use std::time::{Duration, Instant};

fn train_model(seed: u64) -> TrainedSam {
    let db = paper_example::figure3_database();
    let stats = DatabaseStats::from_database(&db);
    let mut gen = WorkloadGenerator::new(&db, seed);
    let workload = label_workload(&db, gen.multi_workload(16, 2)).unwrap();
    let mut config = SamConfig::default();
    config.model.hidden = vec![8];
    config.model.seed = seed;
    config.train.epochs = 2;
    config.train.batch_size = 8;
    Sam::fit(db.schema(), &stats, &workload, &config).unwrap()
}

fn start_worker(model: &str, seed: u64) -> Server {
    let server = Server::start(ServeConfig::default()).expect("start worker server");
    server.registry().insert(model, train_model(seed));
    server
}

/// One-shot HTTP exchange returning `(status, headers, body)`.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let response =
        sam_serve::http::request(addr, method, path, &[], body.as_bytes()).expect("exchange");
    let head: Vec<String> = response
        .headers
        .iter()
        .map(|(name, value)| format!("{name}: {value}"))
        .collect();
    (response.status, head.join("\r\n"), response.text())
}

fn wait_all_healthy(router: &Router, deadline: Duration) {
    let until = Instant::now() + deadline;
    loop {
        let workers = router.workers();
        if workers
            .iter()
            .all(|w| matches!(w.health(), WorkerHealth::Healthy))
        {
            return;
        }
        assert!(
            Instant::now() < until,
            "workers never became healthy: {:?}",
            workers
                .iter()
                .map(|w| (w.slot, w.health().label()))
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn wait_unhealthy(router: &Router, slot: usize, deadline: Duration) {
    let until = Instant::now() + deadline;
    loop {
        let health = router
            .workers()
            .into_iter()
            .find(|w| w.slot == slot)
            .expect("slot exists")
            .health();
        if !matches!(health, WorkerHealth::Healthy) {
            return;
        }
        assert!(Instant::now() < until, "shard {slot} never went unhealthy");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn pinned(name: &str, slot: usize) -> ModelSpec {
    ModelSpec {
        name: name.to_string(),
        path: "external-worker-owns-the-checkpoint".to_string(),
        data: None,
        pin: Some(slot),
    }
}

#[test]
fn routes_fan_out_and_degrade_with_retry_after() {
    let alpha = start_worker("alpha", 11);
    let beta = start_worker("beta", 23);

    let router = Router::start(RouterConfig {
        models: vec![pinned("alpha", 0), pinned("beta", 1)],
        specs: vec![
            WorkerSpec {
                external_addr: Some(alpha.addr().to_string()),
                ..WorkerSpec::default()
            },
            WorkerSpec {
                external_addr: Some(beta.addr().to_string()),
                ..WorkerSpec::default()
            },
        ],
        health_interval_ms: 50,
        retry_wait_ms: 300,
        ..RouterConfig::default()
    })
    .expect("start router");
    let addr = router.addr().to_string();
    wait_all_healthy(&router, Duration::from_secs(10));

    // Pass-through by model: each estimate lands on its owning shard.
    for model in ["alpha", "beta"] {
        let body = format!(
            "{{\"model\":\"{model}\",\"sql\":\"SELECT COUNT(*) FROM A\",\"samples\":32,\"seed\":7}}"
        );
        let (status, _, payload) = http(&addr, "POST", "/estimate", &body);
        assert_eq!(status, 200, "estimate {model}: {payload}");
        let doc = serde_json::parse_value(&payload).unwrap();
        assert!(doc.get("estimate").is_some(), "no estimate in {payload}");
    }

    // GET /models fans out and annotates each entry with its shard.
    let (status, _, payload) = http(&addr, "GET", "/models", "");
    assert_eq!(status, 200);
    let doc = serde_json::parse_value(&payload).unwrap();
    let models = doc.get("models").and_then(Value::as_array).unwrap();
    let mut seen: Vec<(String, u64)> = models
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).unwrap().to_string(),
                m.get("shard").and_then(Value::as_u64).unwrap(),
            )
        })
        .collect();
    seen.sort();
    assert_eq!(
        seen,
        vec![("alpha".to_string(), 0), ("beta".to_string(), 1)]
    );

    // /metrics JSON is the numeric merge of every shard, plus router keys.
    let (status, _, payload) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc = serde_json::parse_value(&payload).unwrap();
    assert!(doc.get("router").is_some(), "no router section: {payload}");
    assert_eq!(doc.get("shards").and_then(Value::as_u64), Some(2));
    // Summed counters come back as floats (numeric merge is f64-based).
    let estimates = doc
        .get("estimates_ok")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    assert!(
        estimates >= 2.0,
        "merged estimates_ok = {estimates}: {payload}"
    );

    // The router's own buildinfo names its role.
    let (status, _, payload) = http(&addr, "GET", "/debug/buildinfo", "");
    assert_eq!(status, 200);
    let doc = serde_json::parse_value(&payload).unwrap();
    assert_eq!(doc.get("role").and_then(Value::as_str), Some("router"));

    // Unknown models are a routing miss, not a proxied error.
    let (status, _, _) = http(
        &addr,
        "POST",
        "/estimate",
        "{\"model\":\"ghost\",\"sql\":\"SELECT COUNT(*) FROM A\"}",
    );
    assert_eq!(status, 404);

    // A *draining* shard (serve-side quiesce) rejects new generate work
    // with 503 + Retry-After, relayed through the router unchanged.
    let (status, _, _) = http(&alpha.addr().to_string(), "POST", "/admin/drain", "");
    assert_eq!(status, 200);
    let (status, head, _) = http(
        &addr,
        "POST",
        "/generate",
        "{\"model\":\"alpha\",\"seed\":1}",
    );
    assert_eq!(status, 503, "draining shard must refuse generate");
    assert!(
        head.to_ascii_lowercase().contains("retry-after:"),
        "503 without Retry-After:\n{head}"
    );
    let (status, _, _) = http(&alpha.addr().to_string(), "POST", "/admin/resume", "");
    assert_eq!(status, 200);

    // Kill shard 1 outright (external worker: the router detects it but
    // never restarts it). Non-idempotent requests for beta fail fast with
    // 503 + Retry-After; alpha keeps answering 200 throughout.
    let unavailable_before = router.metrics().unavailable.get();
    beta.shutdown();
    wait_unhealthy(&router, 1, Duration::from_secs(10));
    let (status, head, _) = http(
        &addr,
        "POST",
        "/generate",
        "{\"model\":\"beta\",\"seed\":1}",
    );
    assert_eq!(status, 503, "dead shard must answer 503");
    assert!(
        head.to_ascii_lowercase().contains("retry-after:"),
        "503 without Retry-After:\n{head}"
    );
    assert!(router.metrics().unavailable.get() > unavailable_before);

    let (status, _, payload) = http(
        &addr,
        "POST",
        "/estimate",
        "{\"model\":\"alpha\",\"sql\":\"SELECT COUNT(*) FROM A\",\"samples\":16,\"seed\":3}",
    );
    assert_eq!(status, 200, "surviving shard must keep serving: {payload}");

    router.shutdown();
    alpha.shutdown();
}

/// An idle keep-alive client must cost the router nothing: no stray
/// response is ever written into the idle connection (the client's next
/// read is a clean EOF, zero bytes), and `shutdown()` does not wait out the
/// idle timeout for it.
#[test]
fn idle_keep_alive_client_gets_clean_eof_and_does_not_stall_shutdown() {
    use sam_serve::http::{build_request, read_body, Conn};
    use std::io::Read;

    let alpha = start_worker("alpha", 11);
    let router = Router::start(RouterConfig {
        workers: 1,
        models: vec![pinned("alpha", 0)],
        specs: vec![WorkerSpec {
            external_addr: Some(alpha.addr().to_string()),
            ..WorkerSpec::default()
        }],
        health_interval_ms: 50,
        ..RouterConfig::default()
    })
    .expect("start router");
    wait_all_healthy(&router, Duration::from_secs(10));

    let timeout = Duration::from_secs(60);
    let mut conn = Conn::new(router.addr(), timeout, timeout);
    let (head, reader) = conn
        .send(&build_request("GET", "/healthz", &[], b""))
        .expect("first request");
    assert_eq!(head.status, 200);
    read_body(reader, &head).expect("healthz body");

    // The connection now sits idle, keep-alive negotiated.
    let started = Instant::now();
    router.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "an idle client held shutdown for {:?}",
        started.elapsed()
    );
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("clean close");
    assert!(
        rest.is_empty(),
        "router wrote into an idle connection: {}",
        String::from_utf8_lossy(&rest)
    );
    alpha.shutdown();
}

/// Malformed job and rollback paths, a job path with an unknown action and
/// an unknown debug route, on a keep-alive connection: each is the 4xx a
/// worker gives with a JSON `error`, and `GET /healthz` then gets 200 on the
/// same connection.
#[test]
fn bad_paths_answer_4xx_and_keep_the_connection() {
    use sam_serve::http::{build_request, read_body, read_head};
    use std::io::{BufReader, Write};

    let alpha = start_worker("alpha", 11);
    let router = Router::start(RouterConfig {
        workers: 1,
        models: vec![pinned("alpha", 0)],
        specs: vec![WorkerSpec {
            external_addr: Some(alpha.addr().to_string()),
            ..WorkerSpec::default()
        }],
        health_interval_ms: 50,
        ..RouterConfig::default()
    })
    .expect("start router");
    wait_all_healthy(&router, Duration::from_secs(10));

    for (method, path, want) in [
        ("POST", "/models/rollback", 404),
        ("GET", "/jobs/export", 400),
        ("POST", "/models//rollback", 400),
        ("GET", "/jobs/7/nope", 404),
        ("GET", "/debug/nope?model=alpha", 404),
    ] {
        let stream = std::net::TcpStream::connect(router.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut exchange = |method: &str, path: &str| {
            let request = build_request(method, path, &[], b"");
            reader.get_mut().write_all(&request).expect("send");
            let head = read_head(&mut reader)
                .unwrap_or_else(|e| panic!("{method} {path}: connection dropped ({e})"));
            let body = read_body(&mut reader, &head).expect("body");
            (head.status, String::from_utf8(body).expect("UTF-8 body"))
        };
        let (status, body) = exchange(method, path);
        assert_eq!(status, want, "{method} {path}: {body}");
        let doc = serde_json::parse_value(&body).expect("JSON body");
        assert!(
            doc.get("error").and_then(Value::as_str).is_some(),
            "{method} {path}: no error in {body}"
        );
        let (status, _) = exchange("GET", "/healthz");
        assert_eq!(status, 200, "GET /healthz after {method} {path}");
    }
    router.shutdown();
    alpha.shutdown();
}

/// A `POST /models` whose name or path the worker's `--models` line could
/// not carry back on a restart (`a@b` would come back pinned, `a,b` as two
/// specs) is a 400 from the router: nothing is placed and the worker never
/// sees the load.
#[test]
fn a_model_the_worker_command_line_cannot_carry_is_refused_up_front() {
    let alpha = start_worker("alpha", 11);
    let router = Router::start(RouterConfig {
        workers: 1,
        models: vec![pinned("alpha", 0)],
        specs: vec![WorkerSpec {
            external_addr: Some(alpha.addr().to_string()),
            ..WorkerSpec::default()
        }],
        health_interval_ms: 50,
        ..RouterConfig::default()
    })
    .expect("start router");
    let addr = router.addr().to_string();
    wait_all_healthy(&router, Duration::from_secs(10));

    for body in [
        r#"{"name":"a@b","path":"m.json"}"#,
        r#"{"name":"m@1","path":"m.json"}"#,
        r#"{"name":"a,b","path":"m.json"}"#,
        r#"{"name":" a","path":"m.json"}"#,
        r#"{"name":"a","path":"m=1.json"}"#,
        r#"{"name":"a","path":"m.json","data":"d,e"}"#,
    ] {
        let (status, _, payload) = http(&addr, "POST", "/models", body);
        assert_eq!(status, 400, "{body}: {payload}");
        let doc = serde_json::parse_value(&payload).unwrap();
        assert!(
            doc.get("error").and_then(Value::as_str).is_some(),
            "{body}: no error in {payload}"
        );
    }
    let placed: Vec<String> = router.placement().into_keys().collect();
    assert_eq!(placed, ["alpha"]);
    assert_eq!(alpha.registry().len(), 1);
    router.shutdown();
    alpha.shutdown();
}
