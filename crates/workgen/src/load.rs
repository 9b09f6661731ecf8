//! Open-loop HTTP load generation against a running `sam-serve`.
//!
//! Replays a query trace as `POST /estimate` requests at a target *offered*
//! rate over N keep-alive connections. The schedule is open-loop in the
//! wrk2 sense: request `k` has the fixed scheduled start `t0 + k/rate`, and
//! its latency is measured **from that scheduled instant**, not from the
//! moment a connection happened to become free — so when the server falls
//! behind, queueing delay shows up in the percentiles instead of being
//! silently absorbed (no coordinated omission).
//!
//! Latencies land in the `sam-metrics` histogram machinery twice: a local
//! [`LatencyHistogram`] snapshotted into the [`LoadReport`], and the global
//! `sam-obs` registry (`workgen_load_latency`) so traces and other
//! observers see the run.

use crate::error::WorkgenError;
use sam_metrics::{LatencyHistogram, LatencySnapshot};
use sam_query::query::Query;
use sam_serve::http::{build_request, Conn};
use sam_storage::jsonl::push_json_str;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-run knobs.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:8080`.
    pub addr: String,
    /// Registered model name the estimates target.
    pub model: String,
    /// Offered request rate (requests / second).
    pub rate: f64,
    /// Keep-alive client connections.
    pub connections: usize,
    /// Run length; `ceil(rate * duration)` requests are scheduled.
    pub duration: Duration,
    /// Progressive samples per estimate request.
    pub samples: u64,
    /// Per-request timeout, sent to the server and applied to socket reads.
    pub timeout_ms: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:8080".to_string(),
            model: "default".to_string(),
            rate: 100.0,
            connections: 4,
            duration: Duration::from_secs(10),
            samples: 64,
            timeout_ms: 10_000,
        }
    }
}

/// Outcome of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The offered rate the schedule was built for.
    pub offered_rate: f64,
    /// Requests scheduled (`ceil(rate * duration)`).
    pub scheduled: u64,
    /// Requests with a parsed HTTP response.
    pub completed: u64,
    /// Transport-level failures (connect, write, read, timeout).
    pub errors: u64,
    /// Responses with 2xx status.
    pub status_2xx: u64,
    /// Responses with 4xx status.
    pub status_4xx: u64,
    /// Responses with 5xx status.
    pub status_5xx: u64,
    /// Wall-clock run time in seconds.
    pub elapsed_secs: f64,
    /// Completed requests per second of wall clock.
    pub throughput: f64,
    /// Scheduled-start-to-response latency distribution.
    pub latency: LatencySnapshot,
    /// Per-class breakdown when the run mixed request classes (mined seed
    /// queries vs synthetic trace); empty for a single-class run.
    pub classes: Vec<ClassReport>,
}

/// Latency breakdown for one request class of a mixed load run.
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// Class label (`synthetic` or `mined`).
    pub label: String,
    /// Distinct queries of this class in the replayed trace.
    pub trace_queries: u64,
    /// Requests of this class with a parsed HTTP response.
    pub completed: u64,
    /// Transport-level failures on requests of this class.
    pub errors: u64,
    /// Scheduled-start-to-response latency distribution for this class.
    pub latency: LatencySnapshot,
}

impl LoadReport {
    /// Markdown table header matching [`LoadReport::markdown_row`].
    pub fn markdown_header() -> String {
        "| offered req/s | achieved req/s | completed | errors | 5xx | p50 ms | p95 ms | p99 ms | max ms |\n\
         |---|---|---|---|---|---|---|---|---|"
            .to_string()
    }

    /// One Markdown table row (the EXPERIMENTS.md format).
    pub fn markdown_row(&self) -> String {
        format!(
            "| {:.0} | {:.1} | {} | {} | {} | {:.2} | {:.2} | {:.2} | {:.2} |",
            self.offered_rate,
            self.throughput,
            self.completed,
            self.errors,
            self.status_5xx,
            self.latency.p50_ms,
            self.latency.p95_ms,
            self.latency.p99_ms,
            self.latency.max_ms,
        )
    }

    /// Markdown section breaking latency percentiles down by request class
    /// (mined seed queries vs the synthetic trace). `None` unless the run
    /// actually mixed classes — single-class runs have nothing to compare.
    /// Deliberately a different column count from [`markdown_header`]
    /// (9 columns) and the server-delta section (2), so table-shape-aware
    /// consumers can tell the sections apart.
    ///
    /// [`markdown_header`]: LoadReport::markdown_header
    pub fn markdown_class_section(&self) -> Option<String> {
        if self.classes.len() < 2 {
            return None;
        }
        let mut out = String::from(
            "### Per-class latency (mined seeds vs synthetic)\n\n\
             | class | trace queries | completed | errors | p50 ms | p95 ms |\n\
             |---|---|---|---|---|---|",
        );
        for class in &self.classes {
            out.push_str(&format!(
                "\n| {} | {} | {} | {} | {:.2} | {:.2} |",
                class.label,
                class.trace_queries,
                class.completed,
                class.errors,
                class.latency.p50_ms,
                class.latency.p95_ms,
            ));
        }
        Some(out)
    }
}

/// Server-side counters scraped from `GET /metrics` (the JSON document).
/// Scraped before and after a load run, the difference says what the
/// *server* thinks happened — which the client-side numbers alone cannot
/// (cache hits, worker panics, quality alerts are invisible from outside).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// HTTP requests the server accepted.
    pub http_requests: u64,
    /// Estimates answered 200.
    pub estimates_ok: u64,
    /// Estimate-cache hits.
    pub cache_hits: u64,
    /// Estimate-cache misses.
    pub cache_misses: u64,
    /// Estimate panics the server contained (each answered 500).
    pub worker_panics: u64,
    /// Estimates shadow-scored by the quality monitor.
    pub quality_samples: u64,
    /// Shadow scores whose Q-Error crossed the alert threshold.
    pub quality_alerts: u64,
}

impl ServerCounters {
    /// Counter-wise difference `self - before` (saturating, so a server
    /// restart mid-run degrades to zeros instead of nonsense).
    pub fn delta(&self, before: &ServerCounters) -> ServerCounters {
        ServerCounters {
            http_requests: self.http_requests.saturating_sub(before.http_requests),
            estimates_ok: self.estimates_ok.saturating_sub(before.estimates_ok),
            cache_hits: self.cache_hits.saturating_sub(before.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(before.cache_misses),
            worker_panics: self.worker_panics.saturating_sub(before.worker_panics),
            quality_samples: self.quality_samples.saturating_sub(before.quality_samples),
            quality_alerts: self.quality_alerts.saturating_sub(before.quality_alerts),
        }
    }

    /// Cache hit rate over the window, `None` before any lookup.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let lookups = self.cache_hits + self.cache_misses;
        (lookups > 0).then(|| self.cache_hits as f64 / lookups as f64)
    }

    /// Markdown section for the load report (deltas over the run window).
    pub fn markdown_section(&self) -> String {
        let hit_rate = self
            .cache_hit_rate()
            .map_or_else(|| "n/a".to_string(), |r| format!("{:.1}%", r * 100.0));
        format!(
            "### Server-side delta (scraped from /metrics)\n\n\
             | metric | value |\n|---|---|\n\
             | http requests | {} |\n\
             | estimates ok | {} |\n\
             | cache hit rate | {hit_rate} |\n\
             | worker panics | {} |\n\
             | quality samples | {} |\n\
             | quality alerts | {} |",
            self.http_requests,
            self.estimates_ok,
            self.worker_panics,
            self.quality_samples,
            self.quality_alerts,
        )
    }
}

/// Scrape `GET /metrics` from the server and parse the counters this
/// module reports on. `None` on any transport or parse problem — a load
/// run must not fail because the scrape did.
pub fn scrape_server_counters(addr: &str, timeout: Duration) -> Option<ServerCounters> {
    let request = build_request("GET", "/metrics", &[("Connection", "close")], b"");
    let response = Conn::new(addr, timeout, timeout).exchange(&request).ok()?;
    let doc = serde_json::parse_value(&response.text()).ok()?;
    // A router's merged /metrics sums counters across shards in f64, so
    // the fields may come back as floats — accept either representation.
    let field = |key: &str| {
        doc.get(key)
            .and_then(|v| v.as_u64().or_else(|| v.as_f64().map(|f| f as u64)))
            .unwrap_or(0)
    };
    Some(ServerCounters {
        http_requests: field("http_requests"),
        estimates_ok: field("estimates_ok"),
        cache_hits: field("cache_hits"),
        cache_misses: field("cache_misses"),
        worker_panics: field("worker_panics"),
        quality_samples: field("quality_samples"),
        quality_alerts: field("quality_alerts"),
    })
}

/// Pre-rendered request: the full HTTP bytes for one trace entry.
fn render_request(config: &LoadConfig, query: &Query, seed: u64) -> Vec<u8> {
    let mut body = String::with_capacity(160);
    body.push_str("{\"model\":");
    push_json_str(&mut body, &config.model);
    body.push_str(",\"sql\":");
    push_json_str(&mut body, &query.to_string());
    body.push_str(&format!(
        ",\"samples\":{},\"seed\":{},\"timeout_ms\":{}}}",
        config.samples, seed, config.timeout_ms
    ));
    build_request(
        "POST",
        "/estimate",
        &[("Content-Type", "application/json")],
        body.as_bytes(),
    )
}

/// Shared run state across worker threads.
struct RunState {
    next: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    by_class: [AtomicU64; 3], // 2xx / 4xx / 5xx
    latency: LatencyHistogram,
    // Per request-class (synthetic / mined) breakdown, indexed like `labels`
    // in the run loop. Single-class runs only ever touch slot 0.
    class_completed: Vec<AtomicU64>,
    class_errors: Vec<AtomicU64>,
    class_latency: Vec<LatencyHistogram>,
}

/// Replay `trace` against the server in `config` and report throughput and
/// latency percentiles.
///
/// Worker `i` owns one keep-alive connection; workers pull scheduled
/// requests from a shared counter, sleep until each request's scheduled
/// instant, and time it from that instant. A transport error costs that
/// one request (counted in `errors`) and the connection is re-established;
/// a pooled socket the server merely idle-closed is re-dialled by
/// [`Conn`] without costing the request.
///
/// # Errors
///
/// [`WorkgenError::Load`] on invalid configuration (zero rate, empty
/// trace, …) or if not a single request completed.
pub fn run_load(trace: &[Query], config: &LoadConfig) -> Result<LoadReport, WorkgenError> {
    run_load_with_seeds(trace, &[], config)
}

/// Like [`run_load`], but replays a mined hard-query seed set *alongside*
/// the synthetic trace and reports per-class latency percentiles
/// ([`LoadReport::classes`], rendered by
/// [`LoadReport::markdown_class_section`]).
///
/// The two traces are interleaved proportionally (each class appears
/// throughout the request cycle at its share of the combined trace), so
/// mined and synthetic requests experience the same server conditions and
/// their percentiles are directly comparable. With an empty `mined` slice
/// this is exactly `run_load`.
///
/// # Errors
///
/// Same as [`run_load`]; `synthetic` may be empty if `mined` is not.
pub fn run_load_with_seeds(
    synthetic: &[Query],
    mined: &[Query],
    config: &LoadConfig,
) -> Result<LoadReport, WorkgenError> {
    if synthetic.is_empty() && mined.is_empty() {
        return Err(WorkgenError::Load("empty query trace".into()));
    }
    if !(config.rate > 0.0 && config.rate.is_finite()) {
        return Err(WorkgenError::Load(format!("bad rate {}", config.rate)));
    }
    if config.connections == 0 {
        return Err(WorkgenError::Load("need at least one connection".into()));
    }
    let scheduled = (config.rate * config.duration.as_secs_f64()).ceil() as u64;
    if scheduled == 0 {
        return Err(WorkgenError::Load(
            "duration too short: zero requests".into(),
        ));
    }

    // Pre-render every distinct request once (tagged with its class index);
    // the schedule cycles the combined trace. Mined entries are spread
    // proportionally through the cycle rather than appended as a block, so
    // both classes sample the whole run, not disjoint phases of it.
    let mixed = !synthetic.is_empty() && !mined.is_empty();
    let class_count = if mixed { 2 } else { 1 };
    let total = synthetic.len() + mined.len();
    let mut requests: Vec<(Vec<u8>, usize)> = Vec::with_capacity(total);
    let (mut si, mut mi) = (0usize, 0usize);
    for k in 0..total {
        let mined_due = (k + 1) * mined.len() / total;
        let (query, class) = if mi < mined_due {
            mi += 1;
            (&mined[mi - 1], if mixed { 1 } else { 0 })
        } else {
            si += 1;
            (&synthetic[si - 1], 0)
        };
        requests.push((render_request(config, query, k as u64), class));
    }

    let state = Arc::new(RunState {
        next: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        by_class: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        latency: LatencyHistogram::new(),
        class_completed: (0..class_count).map(|_| AtomicU64::new(0)).collect(),
        class_errors: (0..class_count).map(|_| AtomicU64::new(0)).collect(),
        class_latency: (0..class_count).map(|_| LatencyHistogram::new()).collect(),
    });
    let global_latency = sam_obs::histogram("workgen_load_latency");
    let interval = Duration::from_secs_f64(1.0 / config.rate);
    // Small lead time so every worker is parked before the first slot.
    let t0 = Instant::now() + Duration::from_millis(20);

    let workers: Vec<_> = (0..config.connections)
        .map(|_| {
            let state = Arc::clone(&state);
            let global_latency = Arc::clone(&global_latency);
            let requests = requests.clone();
            let addr = config.addr.clone();
            let timeout = Duration::from_millis(config.timeout_ms.max(1));
            std::thread::spawn(move || {
                let mut conn = Conn::new(&addr, timeout, timeout);
                loop {
                    let k = state.next.fetch_add(1, Ordering::Relaxed);
                    if k >= scheduled {
                        break;
                    }
                    let due = t0 + interval.mul_f64(k as f64);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let (request, trace_class) = &requests[(k % requests.len() as u64) as usize];
                    match conn.exchange(request) {
                        Ok(response) => {
                            // Latency from the *scheduled* start: queueing
                            // behind a busy connection is part of the number.
                            let lat = due.elapsed();
                            state.latency.record(lat);
                            state.class_latency[*trace_class].record(lat);
                            global_latency.record(lat);
                            state.completed.fetch_add(1, Ordering::Relaxed);
                            state.class_completed[*trace_class].fetch_add(1, Ordering::Relaxed);
                            let class = match response.status {
                                200..=299 => 0,
                                400..=499 => 1,
                                _ => 2,
                            };
                            state.by_class[class].fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            state.errors.fetch_add(1, Ordering::Relaxed);
                            state.class_errors[*trace_class].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        let _ = w.join();
    }

    let elapsed_secs = (Instant::now() - t0).as_secs_f64().max(f64::MIN_POSITIVE);
    let completed = state.completed.load(Ordering::Relaxed);
    let errors = state.errors.load(Ordering::Relaxed);
    if completed == 0 {
        return Err(WorkgenError::Load(format!(
            "no request completed against {} ({} transport errors)",
            config.addr, errors
        )));
    }
    let classes = if mixed {
        let trace_counts = [synthetic.len() as u64, mined.len() as u64];
        ["synthetic", "mined"]
            .iter()
            .enumerate()
            .map(|(i, label)| ClassReport {
                label: label.to_string(),
                trace_queries: trace_counts[i],
                completed: state.class_completed[i].load(Ordering::Relaxed),
                errors: state.class_errors[i].load(Ordering::Relaxed),
                latency: state.class_latency[i].snapshot(),
            })
            .collect()
    } else {
        Vec::new()
    };
    Ok(LoadReport {
        offered_rate: config.rate,
        scheduled,
        completed,
        errors,
        status_2xx: state.by_class[0].load(Ordering::Relaxed),
        status_4xx: state.by_class[1].load(Ordering::Relaxed),
        status_5xx: state.by_class[2].load(Ordering::Relaxed),
        elapsed_secs,
        throughput: completed as f64 / elapsed_secs,
        latency: state.latency.snapshot(),
        classes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        let q = Query::single("T", vec![]);
        let bad_rate = LoadConfig {
            rate: 0.0,
            ..LoadConfig::default()
        };
        assert!(matches!(
            run_load(std::slice::from_ref(&q), &bad_rate),
            Err(WorkgenError::Load(_))
        ));
        assert!(matches!(
            run_load(&[], &LoadConfig::default()),
            Err(WorkgenError::Load(_))
        ));
        let no_conns = LoadConfig {
            connections: 0,
            ..LoadConfig::default()
        };
        assert!(matches!(
            run_load(std::slice::from_ref(&q), &no_conns),
            Err(WorkgenError::Load(_))
        ));
    }

    #[test]
    fn unreachable_server_reports_load_error() {
        let q = Query::single("T", vec![]);
        // Reserved TEST-NET-1 address: connects fail fast or time out.
        let config = LoadConfig {
            addr: "127.0.0.1:1".to_string(),
            rate: 50.0,
            connections: 2,
            duration: Duration::from_millis(100),
            timeout_ms: 200,
            ..LoadConfig::default()
        };
        let err = run_load(std::slice::from_ref(&q), &config);
        assert!(matches!(err, Err(WorkgenError::Load(_))));
    }

    #[test]
    fn markdown_report_shape() {
        let header = LoadReport::markdown_header();
        assert_eq!(header.lines().count(), 2);
        let cols = header.lines().next().unwrap().matches('|').count();
        let report = LoadReport {
            offered_rate: 100.0,
            scheduled: 10,
            completed: 10,
            errors: 0,
            status_2xx: 10,
            status_4xx: 0,
            status_5xx: 0,
            elapsed_secs: 0.1,
            throughput: 100.0,
            latency: LatencyHistogram::new().snapshot(),
            classes: Vec::new(),
        };
        assert_eq!(report.markdown_row().matches('|').count(), cols);
        // Single-class runs have nothing to compare.
        assert!(report.markdown_class_section().is_none());
    }

    #[test]
    fn class_section_shape_differs_from_main_table() {
        let class = |label: &str| ClassReport {
            label: label.to_string(),
            trace_queries: 4,
            completed: 8,
            errors: 1,
            latency: LatencyHistogram::new().snapshot(),
        };
        let report = LoadReport {
            offered_rate: 100.0,
            scheduled: 16,
            completed: 16,
            errors: 2,
            status_2xx: 16,
            status_4xx: 0,
            status_5xx: 0,
            elapsed_secs: 0.1,
            throughput: 160.0,
            latency: LatencyHistogram::new().snapshot(),
            classes: vec![class("synthetic"), class("mined")],
        };
        let section = report.markdown_class_section().expect("two classes");
        assert!(section.contains("| synthetic |"));
        assert!(section.contains("| mined |"));
        // Shape-aware report consumers key on column count: the class table
        // must collide with neither the 9-column main table nor the
        // 2-column server-delta table.
        let main_cols = LoadReport::markdown_header()
            .lines()
            .next()
            .unwrap()
            .matches('|')
            .count();
        for line in section.lines().filter(|l| l.starts_with('|')) {
            let cols = line.matches('|').count();
            assert_ne!(cols, main_cols, "clashes with main table: {line}");
            assert_ne!(cols, 3, "clashes with 2-column delta table: {line}");
        }
    }

    #[test]
    fn mixed_run_reports_both_classes_against_canned_server() {
        use std::io::{BufReader, Write as _};
        use std::net::TcpListener;

        // Minimal canned HTTP server: reads each request's headers + body and
        // answers 200 with an empty JSON object, keep-alive.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut conns = Vec::new();
            for stream in listener.incoming().take(2) {
                let stream = stream.expect("accept");
                conns.push(std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream);
                    while let Ok(Some(_)) = sam_serve::http::read_request(&mut reader) {
                        let response = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                             Content-Length: 2\r\n\r\n{}";
                        if reader.get_mut().write_all(response.as_bytes()).is_err() {
                            return;
                        }
                    }
                }));
            }
            for c in conns {
                let _ = c.join();
            }
        });

        let synthetic = vec![Query::single("S", vec![]), Query::single("T", vec![])];
        let mined = vec![Query::single("M", vec![])];
        let config = LoadConfig {
            addr,
            rate: 200.0,
            connections: 2,
            duration: Duration::from_millis(150),
            timeout_ms: 2_000,
            ..LoadConfig::default()
        };
        let report = run_load_with_seeds(&synthetic, &mined, &config).expect("load run");
        assert_eq!(report.classes.len(), 2);
        assert_eq!(report.classes[0].label, "synthetic");
        assert_eq!(report.classes[1].label, "mined");
        assert_eq!(report.classes[0].trace_queries, 2);
        assert_eq!(report.classes[1].trace_queries, 1);
        // The proportional interleave cycles all three queries, so with ~30
        // scheduled requests both classes must complete some.
        assert!(report.classes[0].completed > 0, "synthetic class starved");
        assert!(report.classes[1].completed > 0, "mined class starved");
        assert_eq!(
            report.completed,
            report.classes[0].completed + report.classes[1].completed
        );
        assert!(report.markdown_class_section().is_some());
        drop(report);
        let _ = server.join();
    }

    #[test]
    fn server_counter_delta_and_section() {
        let before = ServerCounters {
            http_requests: 10,
            estimates_ok: 8,
            cache_hits: 2,
            cache_misses: 6,
            worker_panics: 0,
            quality_samples: 1,
            quality_alerts: 0,
        };
        let after = ServerCounters {
            http_requests: 110,
            estimates_ok: 104,
            cache_hits: 26,
            cache_misses: 78,
            worker_panics: 1,
            quality_samples: 3,
            quality_alerts: 2,
        };
        let delta = after.delta(&before);
        assert_eq!(delta.http_requests, 100);
        assert_eq!(delta.cache_hits, 24);
        assert_eq!(delta.cache_hit_rate(), Some(24.0 / 96.0));
        let section = delta.markdown_section();
        assert!(section.contains("| http requests | 100 |"));
        assert!(section.contains("| cache hit rate | 25.0% |"));
        assert!(section.contains("| quality alerts | 2 |"));
        // Counter reset (restart mid-run) saturates to zero, and a window
        // with no lookups has no hit rate.
        let reset = before.delta(&after);
        assert_eq!(reset.http_requests, 0);
        assert_eq!(reset.cache_hit_rate(), None);
        assert!(reset
            .markdown_section()
            .contains("| cache hit rate | n/a |"));
    }

    #[test]
    fn scrape_unreachable_server_is_none() {
        assert_eq!(
            scrape_server_counters("127.0.0.1:1", Duration::from_millis(200)),
            None
        );
    }

    #[test]
    fn rendered_request_is_valid_http_with_json_body() {
        let q = Query::single("T", vec![]);
        let config = LoadConfig {
            model: "demo".to_string(),
            samples: 16,
            ..LoadConfig::default()
        };
        let bytes = render_request(&config, &q, 3);
        let text = String::from_utf8(bytes).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("POST /estimate HTTP/1.1"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        let doc = serde_json::parse_value(body).expect("body must be JSON");
        assert_eq!(doc.get("model").and_then(|v| v.as_str()), Some("demo"));
        assert_eq!(doc.get("samples").and_then(|v| v.as_u64()), Some(16));
        assert_eq!(
            doc.get("sql").and_then(|v| v.as_str()),
            Some("SELECT COUNT(*) FROM T")
        );
    }
}
