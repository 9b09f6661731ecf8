//! Server-side request counters and latency tracking for `/metrics`.
//!
//! All metrics live on a per-server [`sam_obs::Registry`] (so two servers in
//! one process never mix counts) and are exposed two ways:
//!
//! * `GET /metrics` — the original flat JSON document, shape-stable since
//!   the subsystem landed (dashboards parse it);
//! * `GET /metrics?format=prometheus` — Prometheus text exposition of the
//!   server registry *plus* the process-global registry (training /
//!   inference / pipeline instrumentation), rendered by `sam-obs`.
//!
//! The handles below are `Arc`s over atomics; bumping one is a single
//! relaxed `fetch_add` — the registry lock is only taken at construction.

use sam_metrics::LatencyHistogram;
use sam_obs::{Counter, Exemplars, Gauge, Registry};
use serde_json::{json, Value};
use std::sync::Arc;
use std::time::Instant;

/// Cheap concurrent counters + an estimate-latency histogram. One instance
/// per server, shared by every connection handler and inference worker.
#[derive(Debug)]
pub struct ServeMetrics {
    registry: Registry,
    /// All HTTP requests routed (any endpoint, any outcome).
    pub http_requests: Arc<Counter>,
    /// TCP connections accepted. With keep-alive clients this grows much
    /// slower than `http_requests`; the ratio is the mean requests per
    /// connection.
    pub http_connections: Arc<Counter>,
    /// `/estimate` calls answered 200.
    pub estimates_ok: Arc<Counter>,
    /// `/estimate` calls answered 4xx/5xx (excluding 429s/504s below).
    pub estimate_errors: Arc<Counter>,
    /// `/estimate` calls rejected with 429 (queue full).
    pub rejected_overload: Arc<Counter>,
    /// `/estimate` calls that missed their deadline (504).
    pub deadline_exceeded: Arc<Counter>,
    /// Micro-batches executed by inference workers.
    pub batches: Arc<Counter>,
    /// Requests summed over those micro-batches (ratio = mean batch size).
    pub batched_requests: Arc<Counter>,
    /// Running mean batch size (batched_requests / batches; 0 until the
    /// first batch). Updated by the workers after every batch.
    pub mean_batch_size: Arc<Gauge>,
    /// `/estimate` calls answered from the LRU estimate cache (no batcher
    /// round trip).
    pub cache_hits: Arc<Counter>,
    /// `/estimate` calls that missed the cache and went to the batcher.
    pub cache_misses: Arc<Counter>,
    /// Generation jobs accepted.
    pub jobs_started: Arc<Counter>,
    /// Generation jobs that reached a terminal state.
    pub jobs_finished: Arc<Counter>,
    /// Training jobs accepted (`POST /train`).
    pub trains_started: Arc<Counter>,
    /// Training jobs whose candidate won shadow evaluation and was
    /// hot-swapped in as a new model version.
    pub trains_promoted: Arc<Counter>,
    /// Training jobs whose candidate lost shadow evaluation (incumbent
    /// kept serving).
    pub trains_rejected: Arc<Counter>,
    /// Training jobs that failed, panicked or were cancelled before a
    /// verdict.
    pub trains_failed: Arc<Counter>,
    /// Model rollbacks performed (`POST /models/{name}/rollback`).
    pub rollbacks: Arc<Counter>,
    /// Relation exports streamed to completion (`GET /jobs/{id}/export`).
    pub exports_ok: Arc<Counter>,
    /// Events appended to the on-disk job journal (0 without
    /// `--journal-dir`).
    pub journal_events: Arc<Counter>,
    /// Jobs reconstructed from the journal at startup (completed reloads +
    /// interrupted resumes + terminal re-inserts).
    pub jobs_replayed: Arc<Counter>,
    /// Corrupt journal records quarantined during recovery or skipped
    /// during replay.
    pub journal_corrupt_records: Arc<Counter>,
    /// Torn journal tails truncated during recovery.
    pub journal_torn_tails: Arc<Counter>,
    /// Journal compactions performed (manual or replay-triggered).
    pub journal_compactions: Arc<Counter>,
    /// Worker or job threads that panicked and were recovered (the request
    /// got a 500 / the job failed instead of hanging forever).
    pub worker_panics: Arc<Counter>,
    /// End-to-end `/estimate` latency (arrival → reply).
    pub estimate_latency: Arc<LatencyHistogram>,
    /// Per-bucket exemplars for `estimate_latency`: the latest trace id
    /// that landed in each latency bucket, rendered in the Prometheus
    /// exposition so slow buckets link to flight-recorder entries.
    pub estimate_exemplars: Arc<Exemplars>,
    /// Estimates shadow-scored by the quality monitor.
    pub quality_samples: Arc<Counter>,
    /// Shadow scores whose Q-Error crossed the alert threshold.
    pub quality_alerts: Arc<Counter>,
    /// Shadow-scoring tasks dropped (scorer queue full or scoring failed).
    pub quality_dropped: Arc<Counter>,
    /// Worst Q-Error currently in any model's sliding window.
    pub quality_worst_qerror: Arc<Gauge>,
    /// Seconds since the server started (derived at render time).
    pub uptime_seconds: Arc<Gauge>,
    /// Estimate-cache hit ratio `hits / (hits + misses)` (derived at
    /// render time; 0 before any lookup).
    pub cache_hit_ratio: Arc<Gauge>,
    /// When this server's metrics were created (≈ server start).
    pub started: Instant,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        let registry = Registry::new();
        for (name, help) in [
            ("sam_http_requests_total", "HTTP requests routed"),
            ("sam_estimates_ok_total", "Estimates answered 200"),
            (
                "sam_estimate_latency_seconds",
                "End-to-end /estimate latency (arrival to reply)",
            ),
            (
                "sam_estimate_cache_hit_ratio",
                "Estimate-cache hits / lookups",
            ),
            (
                "sam_quality_samples_total",
                "Estimates shadow-scored by the quality drift monitor",
            ),
            (
                "sam_quality_alerts_total",
                "Shadow scores whose Q-Error crossed the alert threshold",
            ),
            (
                "sam_quality_worst_qerror",
                "Worst Q-Error in any model's sliding window",
            ),
            ("sam_uptime_seconds", "Seconds since server start"),
            ("sam_build_info", "Constant 1; version/git_sha in labels"),
            ("sam_worker_panics_total", "Recovered worker panics"),
        ] {
            registry.describe(name, help);
        }
        let (estimate_latency, estimate_exemplars) =
            registry.histogram_with_exemplars("sam_estimate_latency_seconds");
        ServeMetrics {
            http_requests: registry.counter("sam_http_requests_total"),
            http_connections: registry.counter("sam_http_connections_total"),
            estimates_ok: registry.counter("sam_estimates_ok_total"),
            estimate_errors: registry.counter("sam_estimate_errors_total"),
            rejected_overload: registry.counter("sam_rejected_overload_total"),
            deadline_exceeded: registry.counter("sam_deadline_exceeded_total"),
            batches: registry.counter("sam_batches_total"),
            batched_requests: registry.counter("sam_batched_requests_total"),
            mean_batch_size: registry.gauge("sam_mean_batch_size"),
            cache_hits: registry.counter("sam_estimate_cache_hits_total"),
            cache_misses: registry.counter("sam_estimate_cache_misses_total"),
            jobs_started: registry.counter("sam_jobs_started_total"),
            jobs_finished: registry.counter("sam_jobs_finished_total"),
            trains_started: registry.counter("sam_trains_started_total"),
            trains_promoted: registry.counter("sam_trains_promoted_total"),
            trains_rejected: registry.counter("sam_trains_rejected_total"),
            trains_failed: registry.counter("sam_trains_failed_total"),
            rollbacks: registry.counter("sam_rollbacks_total"),
            exports_ok: registry.counter("sam_exports_ok_total"),
            journal_events: registry.counter("sam_journal_events_total"),
            jobs_replayed: registry.counter("sam_jobs_replayed_total"),
            journal_corrupt_records: registry.counter("sam_journal_corrupt_records_total"),
            journal_torn_tails: registry.counter("sam_journal_torn_tails_total"),
            journal_compactions: registry.counter("sam_journal_compactions_total"),
            worker_panics: registry.counter("sam_worker_panics_total"),
            estimate_latency,
            estimate_exemplars,
            quality_samples: registry.counter("sam_quality_samples_total"),
            quality_alerts: registry.counter("sam_quality_alerts_total"),
            quality_dropped: registry.counter("sam_quality_dropped_total"),
            quality_worst_qerror: registry.gauge("sam_quality_worst_qerror"),
            uptime_seconds: registry.gauge("sam_uptime_seconds"),
            cache_hit_ratio: registry.gauge("sam_estimate_cache_hit_ratio"),
            started: Instant::now(),
            registry,
        }
    }
}

impl ServeMetrics {
    /// JSON rendering for the `/metrics` endpoint. The document shape is
    /// frozen (see `json_shape_is_backward_compatible`): every key is always
    /// present, including `mean_batch_size` — `0.0` before the first batch,
    /// never absent.
    pub fn to_json(&self) -> Value {
        self.refresh_derived();
        let batches = self.batches.get();
        let batched = self.batched_requests.get();
        let lat = self.estimate_latency.snapshot();
        json!({
            "http_requests": self.http_requests.get(),
            "http_connections": self.http_connections.get(),
            "estimates_ok": self.estimates_ok.get(),
            "estimate_errors": self.estimate_errors.get(),
            "rejected_overload": self.rejected_overload.get(),
            "deadline_exceeded": self.deadline_exceeded.get(),
            "batches": batches,
            "batched_requests": batched,
            "mean_batch_size": if batches == 0 { 0.0 } else { batched as f64 / batches as f64 },
            "cache_hits": self.cache_hits.get(),
            "cache_misses": self.cache_misses.get(),
            "jobs_started": self.jobs_started.get(),
            "jobs_finished": self.jobs_finished.get(),
            "trains_started": self.trains_started.get(),
            "trains_promoted": self.trains_promoted.get(),
            "trains_rejected": self.trains_rejected.get(),
            "trains_failed": self.trains_failed.get(),
            "rollbacks": self.rollbacks.get(),
            "exports_ok": self.exports_ok.get(),
            "journal_events": self.journal_events.get(),
            "jobs_replayed": self.jobs_replayed.get(),
            "journal_corrupt_records": self.journal_corrupt_records.get(),
            "journal_torn_tails": self.journal_torn_tails.get(),
            "journal_compactions": self.journal_compactions.get(),
            "worker_panics": self.worker_panics.get(),
            "quality_samples": self.quality_samples.get(),
            "quality_alerts": self.quality_alerts.get(),
            "quality_dropped": self.quality_dropped.get(),
            "quality_worst_qerror": self.quality_worst_qerror.get(),
            "uptime_seconds": self.uptime_seconds.get(),
            "cache_hit_ratio": self.cache_hit_ratio.get(),
            "estimate_latency_ms": {
                "count": lat.count,
                "mean": lat.mean_ms,
                "p50": lat.p50_ms,
                "p90": lat.p90_ms,
                "p95": lat.p95_ms,
                "p99": lat.p99_ms,
                "max": lat.max_ms,
            },
        })
    }

    /// The journal's counter bundle, wired to this server's registry.
    pub fn journal_counters(&self) -> crate::journal::JournalCounters {
        crate::journal::JournalCounters {
            events: Arc::clone(&self.journal_events),
            corrupt_records: Arc::clone(&self.journal_corrupt_records),
            torn_tails: Arc::clone(&self.journal_torn_tails),
            compactions: Arc::clone(&self.journal_compactions),
        }
    }

    /// The quality monitor's counter bundle, wired to this registry.
    pub fn quality_counters(&self) -> crate::quality::QualityCounters {
        crate::quality::QualityCounters {
            samples: Arc::clone(&self.quality_samples),
            alerts: Arc::clone(&self.quality_alerts),
            dropped: Arc::clone(&self.quality_dropped),
            worst: Arc::clone(&self.quality_worst_qerror),
        }
    }

    /// Publish build identity as the conventional constant-1 `build_info`
    /// gauge with the identity in labels. Called once at server start.
    pub fn set_build_info(&self, version: &str, git_sha: &str) {
        self.registry
            .gauge_with(
                "sam_build_info",
                &[("version", version), ("git_sha", git_sha)],
            )
            .set(1.0);
    }

    /// Recompute the derived gauges (uptime, cache hit ratio) from their
    /// sources. Cheap; called at every render so scrapes are current.
    fn refresh_derived(&self) {
        self.uptime_seconds
            .set(self.started.elapsed().as_secs_f64());
        let hits = self.cache_hits.get();
        let lookups = hits + self.cache_misses.get();
        self.cache_hit_ratio.set(if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        });
    }

    /// Prometheus text exposition: this server's registry followed by the
    /// process-global one (training / inference / pipeline metrics). Metric
    /// names are disjoint between the two, so the concatenation is valid.
    pub fn render_prometheus(&self) -> String {
        self.refresh_derived();
        let mut out = self.registry.render_prometheus();
        out.push_str(&Registry::global().render_prometheus());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn json_reflects_counters() {
        let m = ServeMetrics::default();
        m.http_requests.inc();
        m.http_requests.inc();
        m.batches.inc();
        m.batched_requests.add(8);
        m.estimate_latency.record(Duration::from_millis(3));
        let v = m.to_json();
        assert_eq!(v.get("http_requests").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("mean_batch_size").unwrap().as_f64(), Some(8.0));
        let lat = v.get("estimate_latency_ms").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(1));
    }

    /// The `/metrics` JSON document is an API: every key the original
    /// implementation emitted must stay present (with the same types), and
    /// `mean_batch_size` must be `0.0` — not absent — before any batch runs.
    #[test]
    fn json_shape_is_backward_compatible() {
        let m = ServeMetrics::default();
        let v = m.to_json();
        for key in [
            "http_requests",
            "estimates_ok",
            "estimate_errors",
            "rejected_overload",
            "deadline_exceeded",
            "batches",
            "batched_requests",
            "jobs_started",
            "jobs_finished",
        ] {
            assert_eq!(v.get(key).and_then(Value::as_u64), Some(0), "key {key}");
        }
        assert_eq!(
            v.get("mean_batch_size").and_then(Value::as_f64),
            Some(0.0),
            "mean_batch_size must be present (0.0) even with zero batches"
        );
        let lat = v.get("estimate_latency_ms").expect("histogram object");
        for key in ["count", "mean", "p50", "p90", "p95", "p99", "max"] {
            assert!(lat.get(key).is_some(), "latency key {key}");
        }
    }

    #[test]
    fn prometheus_rendering_includes_server_metrics() {
        let m = ServeMetrics::default();
        m.batches.inc();
        m.batched_requests.add(4);
        m.mean_batch_size.set(4.0);
        m.estimate_latency.record(Duration::from_micros(250));
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE sam_batches_total counter"));
        assert!(text.contains("sam_batches_total 1"));
        assert!(text.contains("sam_mean_batch_size 4.0"));
        assert!(text.contains("# TYPE sam_estimate_latency_seconds histogram"));
        assert!(text.contains("sam_estimate_latency_seconds_bucket{le=\""));
        assert!(text.contains("sam_estimate_latency_seconds_count 1"));
    }
}
