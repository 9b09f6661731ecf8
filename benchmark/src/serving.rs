//! The three serving workloads: a child `sam-cli serve` (or `sam-cli
//! router` with two workers) with shipped defaults, driven closed loop over
//! a few keep-alive connections, one request in flight each.
//!
//! * `serve_distinct` — every query distinct: each request misses the
//!   estimate LRU, so batcher + `ar::infer` + the forward kernel dominate.
//! * `serve_repeat` — a small hot set: each request hits the LRU, so HTTP
//!   parse, SQL canonicalisation, cache lookup and the JSON write are the
//!   whole cost.
//! * `router_repeat` — the hot set through the router to two workers: the
//!   worker's cost is an LRU hit, so the router hop is the measured thing.

use crate::client::{build_request, Client};
use crate::inputs::{corpus, query_pool, Corpus, PoolQuery};
use crate::layers;
use crate::procs::{peak_rss_mb, wait_gone, ChildGuard};
use crate::report::Outcome;
use crate::sizes::{Sizes, DATA_SEED, ESTIMATE_SAMPLES, ESTIMATE_SEED, VERIFIED};
use crate::stats::{median, percentile_sorted, q_error, sorted, span_cost_share, spread};
use crate::trace::Tracer;
use crate::Ctx;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sam::ar::{estimate_cardinality, load_model, save_model, FrozenModel};
use sam::prelude::*;
use serde_json::{json, Value};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// Readiness is polled this often, so its jitter stays far below `setup_s`.
const READY_POLL: Duration = Duration::from_millis(2);

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Distinct,
    Repeat,
    Router,
}

/// One request of a phase: pre-rendered bytes plus what is known about the
/// right answer.
struct Planned {
    sql: String,
    raw: Vec<u8>,
    /// Exact cardinality on the reference data.
    truth: u64,
    /// The in-process estimator's answer, once verification has computed
    /// it: the served answer must equal it bit for bit.
    oracle: Option<f64>,
}

/// What the client saw for one request.
#[derive(Clone, Copy, Default)]
struct Seen {
    latency_ms: f64,
    /// `None` marks a failed request: transport error, non-200, or no
    /// finite estimate in the body.
    estimate: Option<f64>,
}

fn estimate_body(model: &str, sql: &str) -> Vec<u8> {
    let body = json!({
        "model": model,
        "sql": sql,
        "samples": ESTIMATE_SAMPLES,
        "seed": ESTIMATE_SEED,
    });
    serde_json::to_string(&body)
        .expect("a JSON tree serialises")
        .into_bytes()
}

fn plan(model: &str, q: &PoolQuery) -> Planned {
    Planned {
        sql: q.sql.clone(),
        raw: build_request("POST", "/estimate", &estimate_body(model, &q.sql)),
        truth: q.truth,
        oracle: None,
    }
}

/// Pull `"estimate":<number>` out of a response body without building a
/// JSON tree: at tens of thousands of requests per second the client shares
/// the cores with the server, so its own cost is kept small and fixed.
fn parse_estimate(body: &[u8]) -> Option<f64> {
    const KEY: &[u8] = b"\"estimate\":";
    let at = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let rest = &body[at..];
    let end = rest.iter().position(|&b| b == b',' || b == b'}')?;
    let value: f64 = std::str::from_utf8(&rest[..end])
        .ok()?
        .trim()
        .parse()
        .ok()?;
    value.is_finite().then_some(value)
}

/// Send `plans[order[i]]` for every `i ≡ lane (mod lanes)` on one
/// connection, one at a time.
fn drive_lane(
    client: &mut Client,
    plans: &[Planned],
    order: &[usize],
    lane: usize,
    lanes: usize,
    first_id: u64,
    tracer: &mut Tracer,
) -> Vec<(usize, Seen)> {
    let mut seen = Vec::with_capacity(order.len() / lanes + 1);
    for (i, &plan) in order.iter().enumerate().skip(lane).step_by(lanes) {
        tracer.begin("client.request", first_id + i as u64);
        let t = Instant::now();
        let estimate = match client.send(&plans[plan].raw) {
            Ok(response) if response.status == 200 => parse_estimate(&response.body),
            Ok(response) => {
                eprintln!(
                    "request {i}: status {} {}",
                    response.status,
                    response.text()
                );
                None
            }
            Err(e) => {
                eprintln!("request {i}: {e}");
                None
            }
        };
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.end();
        seen.push((
            i,
            Seen {
                latency_ms,
                estimate,
            },
        ));
    }
    seen
}

/// One closed-loop round over all connections; returns the wall time and
/// what each request saw, in request order.
fn drive_round(
    clients: &mut [Client],
    plans: &[Planned],
    order: &[usize],
    first_id: u64,
    tracer: &mut Tracer,
) -> (f64, Vec<Seen>) {
    let lanes = clients.len();
    let started = Instant::now();
    let lanes_seen: Vec<(Vec<(usize, Seen)>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                let mut lane_tracer = tracer.fork(lane as u32 + 1);
                scope.spawn(move || {
                    let seen = drive_lane(
                        client,
                        plans,
                        order,
                        lane,
                        lanes,
                        first_id,
                        &mut lane_tracer,
                    );
                    (seen, lane_tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut all = vec![Seen::default(); order.len()];
    for (seen, lane_tracer) in lanes_seen {
        for (i, s) in seen {
            all[i] = s;
        }
        tracer.absorb(lane_tracer);
    }
    (wall, all)
}

/// A timed phase: `rounds` equal rounds over `order`, each round a
/// contiguous slice. A traced run records spans on odd rounds only, so the
/// two halves give the span cost.
struct Phase {
    round_s: Vec<f64>,
    round_traced: Vec<bool>,
    seen: Vec<Seen>,
}

fn drive_phase(
    clients: &mut [Client],
    plans: &[Planned],
    order: &[usize],
    rounds: usize,
    traced: bool,
    tracer: &mut Tracer,
) -> Phase {
    let per_round = order.len() / rounds;
    let mut phase = Phase {
        round_s: Vec::new(),
        round_traced: Vec::new(),
        seen: Vec::new(),
    };
    let mut quiet = Tracer::new(false);
    for round in 0..rounds {
        let slice = &order[round * per_round..(round + 1) * per_round];
        let spans_on = traced && round % 2 == 1;
        let first_id = (round * per_round) as u64;
        let tracer = if spans_on { &mut *tracer } else { &mut quiet };
        tracer.begin("bench.round", round as u64);
        let (wall, seen) = drive_round(clients, plans, slice, first_id, tracer);
        tracer.end();
        phase.round_s.push(wall);
        phase.round_traced.push(spans_on);
        phase.seen.extend(seen);
    }
    phase
}

fn new_clients(addr: SocketAddr, connections: usize) -> Vec<Client> {
    (0..connections)
        .map(|_| Client::new(addr, REQUEST_TIMEOUT))
        .collect()
}

fn get_json(client: &mut Client, path: &str) -> Result<Value, String> {
    let response = client.get(path).map_err(|e| format!("GET {path}: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET {path}: status {}", response.status));
    }
    serde_json::parse_value(&response.text()).map_err(|e| format!("GET {path}: {e}"))
}

fn num(doc: &Value, path: &[&str]) -> f64 {
    let mut v = doc;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

/// Poll `probe` every [`READY_POLL`] until it returns `Some`.
fn wait_ready<T>(what: &str, mut probe: impl FnMut() -> Option<T>) -> Result<T, String> {
    let deadline = Instant::now() + READY_TIMEOUT;
    loop {
        if let Some(v) = probe() {
            return Ok(v);
        }
        if Instant::now() >= deadline {
            return Err(format!("{what} not ready after {READY_TIMEOUT:?}"));
        }
        std::thread::sleep(READY_POLL);
    }
}

/// The served model: trained in process during set-up, saved for the child,
/// and loaded back from the saved bytes as the in-process oracle.
struct ServedModel {
    corpus: Corpus,
    path: PathBuf,
    oracle: FrozenModel,
}

/// The served model is part of the fixture, like the database: it is
/// trained from `DATA_SEED` in every run, so `--seed` changes the requests
/// and nothing about the server's work per request shape.
fn train_served_model(ctx: &Ctx, sizes: &Sizes) -> Result<ServedModel, String> {
    let corpus = corpus(sizes.serve_titles, sizes.serve_train_queries, DATA_SEED);
    let mut config = SamConfig::default();
    config.train.epochs = sizes.serve_train_epochs;
    config.train.seed = DATA_SEED;
    config.model.seed = DATA_SEED;
    let trained = Sam::fit(corpus.db.schema(), &corpus.stats, &corpus.workload, &config)
        .map_err(|e| format!("fit: {e}"))?;
    let json = save_model(trained.model(), trained.db_schema());
    let path = ctx.run_dir.join("model.json");
    std::fs::write(&path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
    let (oracle, _) = load_model(&json).map_err(|e| format!("reload model: {e}"))?;
    Ok(ServedModel {
        corpus,
        path,
        oracle,
    })
}

fn oracle_answer(model: &FrozenModel, sql: &str) -> Result<f64, String> {
    let query = parse_query(sql).map_err(|e| format!("parse {sql:?}: {e}"))?;
    let mut rng = StdRng::seed_from_u64(ESTIMATE_SEED);
    estimate_cardinality(model, &query, ESTIMATE_SAMPLES, &mut rng)
        .map_err(|e| format!("estimate {sql:?}: {e}"))
}

/// The processes behind the address the clients talk to.
struct Deployment {
    guard: ChildGuard,
    /// Worker processes of a router (empty for a plain server).
    worker_pids: Vec<u32>,
    /// Address of worker 0, for the direct-to-worker round.
    worker0: Option<SocketAddr>,
}

impl Deployment {
    fn pids(&self) -> Vec<u32> {
        let mut pids = vec![self.guard.pid()];
        pids.extend(&self.worker_pids);
        pids
    }
}

fn start_server(ctx: &Ctx, model: &ServedModel) -> Result<Deployment, String> {
    let args = vec![
        "serve".to_string(),
        "--addr".to_string(),
        "127.0.0.1:0".to_string(),
        "--models".to_string(),
        format!("imdb_a={}", model.path.display()),
    ];
    let guard = ChildGuard::spawn(&ctx.sam_cli, &args, &ctx.run_dir.join("serve.stderr"))?;
    let mut probe = Client::new(guard.addr, REQUEST_TIMEOUT);
    wait_ready("server", || {
        probe.get("/healthz").ok().filter(|r| r.status == 200)
    })?;
    Ok(Deployment {
        guard,
        worker_pids: Vec::new(),
        worker0: None,
    })
}

fn start_router(ctx: &Ctx, model: &ServedModel) -> Result<Deployment, String> {
    let path = model.path.display();
    let args = vec![
        "router".to_string(),
        "--addr".to_string(),
        "127.0.0.1:0".to_string(),
        "--workers".to_string(),
        "2".to_string(),
        "--models".to_string(),
        format!("imdb_a@0={path},imdb_b@1={path}"),
        "--store-root".to_string(),
        ctx.run_dir.join("shards").display().to_string(),
    ];
    let guard = ChildGuard::spawn(&ctx.sam_cli, &args, &ctx.run_dir.join("router.stderr"))?;
    let mut probe = Client::new(guard.addr, REQUEST_TIMEOUT);
    let workers = wait_ready("router workers", || {
        let topology = get_json(&mut probe, "/admin/topology").ok()?;
        let workers = topology.get("workers")?.as_array()?.clone();
        let healthy = workers
            .iter()
            .all(|w| w.get("health").and_then(Value::as_str) == Some("healthy"));
        (workers.len() == 2 && healthy).then_some(workers)
    })?;
    let worker_pids = workers
        .iter()
        .filter_map(|w| w.get("pid").and_then(Value::as_u64))
        .map(|p| p as u32)
        .collect::<Vec<_>>();
    let worker0 = workers
        .iter()
        .find(|w| w.get("slot").and_then(Value::as_u64) == Some(0))
        .and_then(|w| w.get("addr").and_then(Value::as_str))
        .and_then(|a| a.parse().ok());
    if worker_pids.len() != 2 || worker0.is_none() {
        return Err("router topology lists no pid or address for its workers".into());
    }
    Ok(Deployment {
        guard,
        worker_pids,
        worker0,
    })
}

pub fn run(ctx: &mut Ctx, kind: Kind) -> Result<Outcome, String> {
    let sizes = ctx.sizes.clone();
    let mut out = Outcome::default();
    let rounds = sizes.serve_rounds;

    // ---- set-up: data, exact labels, the served model, the query pool,
    // the child process, and one warm-up pass.
    let mut model = train_served_model(ctx, &sizes)?;
    // `plans` are the distinct requests; `warmup` and `timed` index them.
    let (mut plans, warmup, timed): (Vec<Planned>, Vec<usize>, Vec<usize>) = match kind {
        Kind::Distinct => {
            let measured = rounds * sizes.distinct_per_round;
            let pool = query_pool(
                &mut model.corpus,
                sizes.distinct_warmup + measured,
                ctx.seed,
            );
            (
                pool.iter().map(|q| plan("imdb_a", q)).collect(),
                (0..sizes.distinct_warmup).collect(),
                (sizes.distinct_warmup..pool.len()).collect(),
            )
        }
        Kind::Repeat | Kind::Router => {
            let hot = query_pool(&mut model.corpus, sizes.hot_set, ctx.seed);
            let models: &[&str] = if kind == Kind::Router {
                &["imdb_a", "imdb_b"]
            } else {
                &["imdb_a"]
            };
            let plans: Vec<Planned> = models
                .iter()
                .flat_map(|name| hot.iter().map(|q| plan(name, q)))
                .collect();
            // The hot set cycles, one model after the other.
            let per_round = if kind == Kind::Router {
                sizes.router_per_round
            } else {
                sizes.repeat_per_round
            };
            let cycle = plans.len();
            (
                plans,
                (0..cycle).collect(),
                (0..rounds * per_round).map(|n| n % cycle).collect(),
            )
        }
    };

    let deployment = if kind == Kind::Router {
        start_router(ctx, &model)?
    } else {
        start_server(ctx, &model)?
    };
    let connections = match kind {
        Kind::Distinct => sizes.miss_connections,
        Kind::Repeat | Kind::Router => sizes.hit_connections,
    };
    let mut clients = new_clients(deployment.guard.addr, connections);
    let mut control = Client::new(deployment.guard.addr, REQUEST_TIMEOUT);
    let mut quiet = Tracer::new(false);
    let (_, warm_seen) = drive_round(&mut clients, &plans, &warmup, 0, &mut quiet);
    out.set("setup_s", ctx.process_start.elapsed().as_secs_f64());

    // ---- timed phase.
    let before = get_json(&mut control, "/metrics")?;
    let phase = drive_phase(
        &mut clients,
        &plans,
        &timed,
        rounds,
        ctx.traced,
        &mut ctx.tracer,
    );
    let after = get_json(&mut control, "/metrics")?;
    let per_round = timed.len() / rounds;

    // ---- the hop: the same hot set straight at worker 0 (which serves
    // `imdb_a`, the first `hot_set` plans).
    let direct_order: Vec<usize> = (0..sizes.router_direct)
        .map(|n| n % sizes.hot_set)
        .collect();
    let direct_seen = match deployment.worker0 {
        Some(worker0) => {
            let mut direct_clients = new_clients(worker0, connections);
            drive_round(&mut direct_clients, &plans, &direct_order, 0, &mut quiet).1
        }
        None => Vec::new(),
    };

    // ---- verification. The in-process estimator answers the first
    // `VERIFIED` plans. A hot query beyond those must repeat the answer the
    // warm-up pass got for it — from either model of the router workload,
    // which are the same file.
    for plan in plans.iter_mut().take(VERIFIED) {
        plan.oracle = Some(oracle_answer(&model.oracle, &plan.sql)?);
    }
    if kind != Kind::Distinct {
        for (&i, seen) in warmup.iter().zip(&warm_seen) {
            let first = plans[i % sizes.hot_set].oracle.or(seen.estimate);
            plans[i].oracle = plans[i].oracle.or(first);
        }
    }
    // A request fails on a transport error, a non-200, a non-finite
    // estimate, or an answer that differs from the oracle's.
    let mut verified = 0usize;
    let mut judge = |plan: &Planned, seen: &Seen, out: &mut Outcome| -> Option<f64> {
        out.attempted += 1;
        let ok = match (seen.estimate, plan.oracle) {
            (Some(got), Some(want)) => got.to_bits() == want.to_bits(),
            (Some(_), None) => true,
            (None, _) => false,
        };
        if !ok {
            out.failed += 1;
            return None;
        }
        verified += usize::from(plan.oracle.is_some());
        seen.estimate.map(|e| q_error(e, plan.truth as f64))
    };
    for (&i, seen) in warmup.iter().zip(&warm_seen) {
        judge(&plans[i], seen, &mut out);
    }
    let qerrors: Vec<f64> = timed
        .iter()
        .zip(&phase.seen)
        .filter_map(|(&i, seen)| judge(&plans[i], seen, &mut out))
        .collect();
    for (&i, seen) in direct_order.iter().zip(&direct_seen) {
        judge(&plans[i], seen, &mut out);
    }
    if qerrors.is_empty() {
        return Err("no request of the timed phase succeeded".into());
    }

    // Latency percentiles follow the median-of-rounds rule too: nearest-rank
    // within each round, then the median round, so one disturbed round
    // cannot move them.
    let sorted_rounds: Vec<Vec<f64>> = phase
        .seen
        .chunks(per_round)
        .map(|round| sorted(&round.iter().map(|s| s.latency_ms).collect::<Vec<_>>()))
        .collect();
    let round_percentile = |p: f64| {
        let per_round: Vec<f64> = sorted_rounds
            .iter()
            .map(|round| percentile_sorted(round, p))
            .collect();
        median(&per_round)
    };
    let latencies = sorted(&phase.seen.iter().map(|s| s.latency_ms).collect::<Vec<_>>());
    let qerrors = sorted(&qerrors);
    let p50 = round_percentile(50.0);
    out.set(
        "throughput_per_s",
        per_round as f64 / median(&phase.round_s),
    );
    out.set("latency_p50_ms", p50);
    out.set("latency_p95_ms", round_percentile(95.0));
    out.set("qerror_p50", percentile_sorted(&qerrors, 50.0));
    out.set(
        "peak_rss_mb",
        deployment.pids().iter().map(|&p| peak_rss_mb(p)).sum(),
    );

    let sent = warmup.len() + timed.len() + direct_seen.len();
    match kind {
        Kind::Distinct => out.check(
            format!("the first {VERIFIED} served answers equal the in-process estimator bit for bit"),
            verified == VERIFIED.min(plans.len()),
        ),
        Kind::Repeat => out.check(
            format!("every answer repeats bit for bit, the first {VERIFIED} hot queries as the in-process estimator computes them"),
            verified == sent,
        ),
        Kind::Router => out.check(
            format!("routed and direct-to-worker answers agree bit for bit, the first {VERIFIED} hot queries with the in-process estimator"),
            verified == sent && direct_seen.len() == sizes.router_direct,
        ),
    }
    let delta = |path: &[&str]| num(&after, path) - num(&before, path);
    let (hits, misses) = (delta(&["cache_hits"]), delta(&["cache_misses"]));
    match kind {
        Kind::Distinct => out.check("every timed request missed the estimate cache", hits == 0.0),
        _ => out.check("every timed request hit the estimate cache", misses == 0.0),
    }

    out.fact("titles", json!(sizes.serve_titles));
    out.fact("train_queries", json!(sizes.serve_train_queries));
    out.fact("train_epochs", json!(sizes.serve_train_epochs));
    out.fact("connections", json!(connections));
    out.fact("estimate_samples", json!(ESTIMATE_SAMPLES));
    out.fact("rounds", json!(rounds));
    out.fact("requests_per_round", json!(per_round));
    out.fact("distinct_requests", json!(plans.len()));
    out.fact("warmup_requests", json!(warmup.len()));
    out.fact("round_s", json!(phase.round_s.clone()));
    out.fact(
        "client_connects",
        json!(clients.iter().map(Client::connects).sum::<u64>()),
    );

    if ctx.traced {
        let times = model.corpus.times;
        out.set("datasets.synthesize_s", times.datasets_synthesize_s);
        out.set("storage.stats_s", times.storage_stats_s);
        out.set("query.label_queries_per_s", times.query_label_queries_per_s);
        out.set(
            "workgen.synthesize_queries_per_s",
            times.workgen_synthesize_queries_per_s,
        );

        // The latency histogram reports count and mean; their product is
        // the sum, whose delta covers exactly the timed phase.
        let lat_sum = |doc: &Value| {
            num(doc, &["estimate_latency_ms", "mean"]) * num(doc, &["estimate_latency_ms", "count"])
        };
        let lat_count = delta(&["estimate_latency_ms", "count"]);
        let server_mean = if lat_count > 0.0 {
            (lat_sum(&after) - lat_sum(&before)) / lat_count
        } else {
            0.0
        };
        let client_mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
        let batches = delta(&["batches"]);
        out.set("serve.cache_hit_share", hits / (hits + misses).max(1.0));
        out.set(
            "serve.mean_batch_size",
            if batches > 0.0 {
                delta(&["batched_requests"]) / batches
            } else {
                0.0
            },
        );
        out.set("serve.server_latency_mean_ms", server_mean);
        out.set("serve.wire_overhead_ms", client_mean - server_mean);
        out.set("serve.rejected_overload", delta(&["rejected_overload"]));
        out.set("serve.deadline_exceeded", delta(&["deadline_exceeded"]));
        out.set("serve.quality_samples", delta(&["quality_samples"]));
        out.set("serve.quality_dropped", delta(&["quality_dropped"]));
        out.set("quality.qerror_p90", percentile_sorted(&qerrors, 90.0));
        out.set("bench.estimate_p99_ms", percentile_sorted(&latencies, 99.0));
        out.set("bench.estimate_max_ms", latencies[latencies.len() - 1]);
        out.set("bench.round_spread", spread(&phase.round_s));
        if let Some(cost) = span_cost_share(&phase.round_s, &phase.round_traced) {
            out.set("bench.span_cost_share", cost);
        }

        // Shares of the client-observed time: inference is what the server
        // spends on misses, the hop is what the router adds over a direct
        // request, the rest is HTTP, SQL canonicalisation and the cache.
        let direct_p50 = if direct_seen.is_empty() {
            0.0
        } else {
            percentile_sorted(
                &sorted(&direct_seen.iter().map(|s| s.latency_ms).collect::<Vec<_>>()),
                50.0,
            )
        };
        let miss_share = misses / (hits + misses).max(1.0);
        let infer = (miss_share * server_mean / client_mean).clamp(0.0, 1.0);
        let hop = if kind == Kind::Router {
            ((p50 - direct_p50) / p50).clamp(0.0, 1.0)
        } else {
            0.0
        };
        out.set("share.infer", infer);
        out.set("share.router_hop", hop);
        out.set("share.http_cache", (1.0 - infer - hop).max(0.0));

        let startup_s = deployment.guard.startup.as_secs_f64();
        match kind {
            Kind::Distinct => {
                out.set("serve.startup_s", startup_s);
                let sqls: Vec<&str> = timed
                    .iter()
                    .take(VERIFIED)
                    .map(|&i| plans[i].sql.as_str())
                    .collect();
                layers::inference(&model.oracle, &sqls, &mut out)?;
            }
            Kind::Repeat => {
                out.set("serve.startup_s", startup_s);
                layers::wire(&plans[0].raw, &plans[0].sql, &mut out)?;
            }
            Kind::Router => {
                out.set("router.startup_s", startup_s);
                out.set("router.hop_p50_ms", p50 - direct_p50);
                out.set("router.proxied_ok", delta(&["router", "proxied_ok"]));
                out.set("router.retries", delta(&["router", "retries"]));
                out.set(
                    "router.upstream_errors",
                    delta(&["router", "upstream_errors"]),
                );
                out.set("router.unavailable", delta(&["router", "unavailable"]));
                layers::wire(&plans[0].raw, &plans[0].sql, &mut out)?;
                if let Some(worker0) = deployment.worker0 {
                    layers::router(worker0, &plans[0].raw, &mut out)?;
                }
            }
        }
    }

    // ---- tear-down: kill the group, reap the child, see the workers gone.
    let workers = deployment.worker_pids.clone();
    drop(clients);
    drop(control);
    drop(deployment);
    out.check(
        "every child process ended",
        wait_gone(&workers, Duration::from_secs(10)),
    );
    Ok(out)
}
