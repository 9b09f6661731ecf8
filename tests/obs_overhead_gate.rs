//! Overhead regression gate for the observability layer: with the flight
//! recorder at production capacity and 1% quality sampling, a keep-alive
//! estimate burst must not be more than 2% slower (plus a small absolute
//! epsilon for scheduler noise) than a server with observability dialed to
//! its minimum. The model is served with its reference relations attached,
//! so the sampled estimates are scored against exact cardinalities, and the
//! instrumented server must have scored at least one. Run by CI with `-- --ignored` in release mode; `#[ignore]`d
//! by default because a timing gate under a debug build measures nothing.

use sam::prelude::*;
use sam::serve::http::{build_request, Conn};
use sam::serve::{ServeConfig, Server};
use sam::storage::paper_example;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BURST: usize = 300;
const ROUNDS: usize = 5;
/// Relative budget from the issue: observability may cost at most 2%.
const MAX_RELATIVE_OVERHEAD: f64 = 0.02;
/// Absolute epsilon so a sub-100µs estimate path doesn't fail the gate on
/// scheduler noise: on a single-core runner the background quality scorer
/// competes with the inference worker for the same CPU, which shows up as
/// a few µs of jitter that a purely relative budget cannot absorb.
/// Measured overhead is 1–4µs; a real synchronous stall still fails.
const EPSILON: Duration = Duration::from_micros(25);

fn train_demo_model() -> (TrainedSam, String, Database) {
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
    let sql = workload
        .iter()
        .map(|lq| lq.query.to_string())
        .find(|s| parse_query(s).is_ok())
        .expect("round-trippable query");
    (trained, sql, db)
}

/// One keep-alive connection, `n` sequential estimate requests with
/// distinct seeds (cache misses, so the full estimate path runs each
/// time); returns the median request latency.
fn burst_median(addr: std::net::SocketAddr, sql: &str, n: usize, seed_base: u64) -> Duration {
    let timeout = Duration::from_secs(30);
    let mut conn = Conn::new(addr, timeout, timeout);
    let mut latencies = Vec::with_capacity(n);
    for i in 0..n {
        let body = format!(
            "{{\"model\":\"demo\",\"sql\":{},\"samples\":32,\"seed\":{}}}",
            serde_json::to_string(&serde_json::json!(sql)).unwrap(),
            seed_base + i as u64
        );
        let request = build_request("POST", "/estimate", &[], body.as_bytes());
        let started = Instant::now();
        conn.exchange(&request).expect("connection died");
        latencies.push(started.elapsed());
    }
    latencies.sort();
    latencies[latencies.len() / 2]
}

fn start_server(
    trained: TrainedSam,
    db: &Database,
    quality_sample: f64,
    flight_capacity: usize,
) -> Server {
    let server = Server::start(ServeConfig {
        // The gate exercises the full estimate path: no cache assists.
        cache_capacity: 0,
        quality_sample,
        flight_capacity,
        ..ServeConfig::default()
    })
    .expect("start server");
    server
        .registry()
        .insert_with_reference("demo", trained, Arc::new(db.clone()));
    server
}

#[test]
#[ignore = "timing gate; run in release via CI (-- --ignored)"]
fn obs_overhead_under_two_percent() {
    let (trained, sql, db) = train_demo_model();
    let bare = start_server(trained.clone(), &db, 0.0, 1);
    let instrumented = start_server(trained, &db, 0.01, 512);

    // Warm both paths (thread spin-up, allocator, branch predictors).
    burst_median(bare.addr(), &sql, 50, 1_000_000);
    burst_median(instrumented.addr(), &sql, 50, 1_000_000);

    // Interleave rounds so drift (thermal, other tenants) hits both
    // configurations equally; keep the per-config minimum of medians,
    // which filters additive noise.
    let mut bare_best = Duration::MAX;
    let mut instr_best = Duration::MAX;
    for round in 0..ROUNDS {
        let base = (round as u64 + 1) * 10_000;
        bare_best = bare_best.min(burst_median(bare.addr(), &sql, BURST, base));
        instr_best = instr_best.min(burst_median(instrumented.addr(), &sql, BURST, base));
    }

    let budget = bare_best.mul_f64(1.0 + MAX_RELATIVE_OVERHEAD) + EPSILON;
    eprintln!(
        "obs overhead gate: bare median {:?}, instrumented median {:?}, budget {:?} ({:+.2}%)",
        bare_best,
        instr_best,
        budget,
        (instr_best.as_secs_f64() / bare_best.as_secs_f64() - 1.0) * 100.0
    );
    assert!(
        instr_best <= budget,
        "observability overhead too high: bare {bare_best:?} vs instrumented {instr_best:?} \
         (budget {budget:?})"
    );

    // The gate timed a live scorer: the instrumented server scored some of
    // its ~1 550 estimates (the scorer runs behind a queue, so wait for it).
    let deadline = Instant::now() + Duration::from_secs(30);
    while instrumented.metrics().quality_samples.get() == 0 {
        assert!(
            Instant::now() < deadline,
            "the instrumented server scored no quality sample"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(bare.metrics().quality_samples.get(), 0);
}
