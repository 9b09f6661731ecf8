//! Quality drift monitor: shadow-scores a sampled fraction of live
//! `/estimate` traffic and keeps per-model-version sliding-window Q-Error
//! statistics.
//!
//! The serving tier's throughput metrics say nothing about whether the
//! model's *answers* are still good — a drifting or mis-promoted model
//! looks healthy until someone runs an offline eval. This module closes
//! that gap on live traffic: for models that carry their reference
//! relations ([`crate::registry::ModelEntry::reference`]), the estimate path
//! submits a configurable fraction of answered requests (default 1%) to a
//! background scorer, which computes the true cardinality with
//! [`sam_query::evaluate_cardinality`] and records the Q-Error, the real
//! model error. A model served without reference data is not scored.
//!
//! Per (model, version) the monitor keeps a bounded sliding window of
//! Q-Errors (p50/p95/worst on demand), bumps an alert counter whenever a
//! score crosses the configured threshold, and appends threshold-crossing
//! offenders to a JSONL audit file whose lines `workgen mine` accepts as
//! seeds — the observe → mine → retrain loop.
//!
//! Scoring runs on one background thread behind a bounded channel:
//! submission is `try_send`, so the estimate hot path never blocks on the
//! monitor (a full queue increments a drop counter instead).

use crate::registry::ModelEntry;
use crate::sync::Lock;
use sam_metrics::q_error;
use sam_obs::{Counter, Gauge};
use sam_query::{evaluate_cardinality, Query};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{SystemTime, UNIX_EPOCH};

/// Quality-monitor tunables (the `--quality-*` serve flags).
#[derive(Debug, Clone)]
pub struct QualityConfig {
    /// Fraction of answered `/estimate` requests to shadow-score, in
    /// `[0, 1]`. 0 disables the monitor.
    pub sample: f64,
    /// Sliding-window size per model version.
    pub window: usize,
    /// Q-Error above which a sample counts as an alert and is written to
    /// the audit file.
    pub alert_qerror: f64,
    /// JSONL audit file for threshold-crossing offenders; `None` keeps
    /// alerts in metrics only.
    pub audit_path: Option<PathBuf>,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            sample: 0.01,
            window: 256,
            alert_qerror: 100.0,
            audit_path: None,
        }
    }
}

/// One answered estimate handed to the scorer.
pub struct QualityTask {
    /// Model entry the estimate ran against (pins the version); it carries
    /// the reference relations the estimate is scored against.
    pub entry: Arc<ModelEntry>,
    /// The parsed query.
    pub query: Query,
    /// The estimate the client received.
    pub estimate: f64,
    /// Trace id of the originating request.
    pub trace_id: u64,
}

/// Counter bundle the monitor shares with the server's `/metrics` registry.
#[derive(Debug, Clone)]
pub struct QualityCounters {
    /// Estimates shadow-scored.
    pub samples: Arc<Counter>,
    /// Scores above the alert threshold.
    pub alerts: Arc<Counter>,
    /// Tasks dropped (scorer queue full or scoring failed).
    pub dropped: Arc<Counter>,
    /// Worst Q-Error currently in any model's sliding window.
    pub worst: Arc<Gauge>,
}

/// Sliding-window stats for one (model, version).
struct WindowStats {
    /// Most recent Q-Errors, oldest first, capped at the window size.
    qerrors: Vec<f64>,
    /// Worst Q-Error ever seen for this version (not just the window).
    all_time_worst: f64,
    /// Alert-threshold crossings for this version.
    alerts: u64,
}

impl WindowStats {
    fn new() -> WindowStats {
        WindowStats {
            qerrors: Vec::new(),
            all_time_worst: 0.0,
            alerts: 0,
        }
    }

    fn push(&mut self, q: f64, window: usize) {
        if self.qerrors.len() == window.max(1) {
            self.qerrors.remove(0);
        }
        self.qerrors.push(q);
        if q > self.all_time_worst {
            self.all_time_worst = q;
        }
    }

    /// `p` in `[0, 1]` over the current window (nearest-rank).
    fn percentile(&self, p: f64) -> f64 {
        if self.qerrors.is_empty() {
            return 0.0;
        }
        let mut sorted = self.qerrors.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn worst_in_window(&self) -> f64 {
        self.qerrors.iter().copied().fold(0.0, f64::max)
    }
}

/// Shared between the submitting side and the scorer thread.
struct QualityShared {
    config: QualityConfig,
    counters: QualityCounters,
    /// (model, version) → window stats.
    windows: Lock<BTreeMap<(String, u64), WindowStats>>,
    /// Open audit sink (line-buffered; flushed per record so `workgen
    /// mine` can consume the file while the server runs).
    audit: Lock<Option<std::fs::File>>,
}

/// Handle owned by the server: sampling decision, task submission, report
/// rendering, shutdown.
pub struct QualityMonitor {
    shared: Arc<QualityShared>,
    tx: Lock<Option<SyncSender<QualityTask>>>,
    worker: Lock<Option<JoinHandle<()>>>,
    /// Every `sample_every`-th estimate is scored (0 = never).
    sample_every: u64,
    submitted: AtomicU64,
}

impl QualityMonitor {
    /// Start the scorer thread (no thread when sampling is disabled).
    pub fn start(config: QualityConfig, counters: QualityCounters) -> QualityMonitor {
        let sample_every = if config.sample <= 0.0 {
            0
        } else {
            (1.0 / config.sample.min(1.0)).round().max(1.0) as u64
        };
        let audit = config.audit_path.as_ref().and_then(|path| {
            std::fs::File::options()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| eprintln!("[quality] cannot open audit file {path:?}: {e}"))
                .ok()
        });
        let shared = Arc::new(QualityShared {
            config,
            counters,
            windows: Lock::new(BTreeMap::new()),
            audit: Lock::new(audit),
        });
        let (tx, worker) = if sample_every > 0 {
            let (tx, rx) = std::sync::mpsc::sync_channel::<QualityTask>(64);
            let worker_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name("sam-serve-quality".to_string())
                .spawn(move || {
                    while let Ok(task) = rx.recv() {
                        score_task(&worker_shared, &task);
                    }
                })
                .expect("spawn quality scorer");
            (Some(tx), Some(handle))
        } else {
            (None, None)
        };
        QualityMonitor {
            shared,
            tx: Lock::new(tx),
            worker: Lock::new(worker),
            sample_every,
            submitted: AtomicU64::new(0),
        }
    }

    /// Whether the next answered estimate should be shadow-scored
    /// (counter-based: every `round(1/sample)`-th call returns true).
    pub fn should_sample(&self) -> bool {
        if self.sample_every == 0 {
            return false;
        }
        self.submitted
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.sample_every)
    }

    /// Hand a task to the scorer without blocking; a full queue counts a
    /// drop instead of stalling the estimate path.
    pub fn submit(&self, task: QualityTask) {
        let guard = self.tx.lock();
        let Some(tx) = guard.as_ref() else { return };
        match tx.try_send(task) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.shared.counters.dropped.inc();
            }
        }
    }

    /// The `GET /quality` document.
    pub fn report(&self) -> Value {
        let windows = self.shared.windows.lock();
        let models: Vec<Value> = windows
            .iter()
            .map(|((model, version), stats)| {
                json!({
                    "model": model.clone(),
                    "version": *version,
                    "mode": "exact",
                    "window": stats.qerrors.len(),
                    "p50_qerror": stats.percentile(0.50),
                    "p95_qerror": stats.percentile(0.95),
                    "worst_qerror": stats.worst_in_window(),
                    "all_time_worst_qerror": stats.all_time_worst,
                    "alerts": stats.alerts,
                })
            })
            .collect();
        json!({
            "sample": self.shared.config.sample,
            "window": self.shared.config.window,
            "alert_qerror": self.shared.config.alert_qerror,
            "audit_path": self.shared.config.audit_path.as_ref()
                .map_or(Value::Null, |p| json!(p.display().to_string())),
            "samples": self.shared.counters.samples.get(),
            "alerts": self.shared.counters.alerts.get(),
            "dropped": self.shared.counters.dropped.get(),
            "models": Value::Array(models),
        })
    }

    /// Stop accepting tasks, drain the queue, join the scorer, flush the
    /// audit file. Idempotent.
    pub fn shutdown(&self) {
        drop(self.tx.lock().take());
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
        if let Some(file) = self.shared.audit.lock().as_mut() {
            let _ = file.flush();
        }
    }
}

impl Drop for QualityMonitor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Score one task and fold the result into the shared state.
fn score_task(shared: &QualityShared, task: &QualityTask) {
    // Evaluation can panic on an unexpected query or reference database; a
    // scoring panic must not kill the monitor thread.
    let scored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| score(task)));
    match scored {
        Ok(Some(truth)) => record(shared, task, truth),
        Ok(None) | Err(_) => shared.counters.dropped.inc(),
    }
}

/// The task's exact cardinality on the entry's reference relations; `None`
/// when the entry has none or the query does not evaluate.
fn score(task: &QualityTask) -> Option<u64> {
    let db = task.entry.reference.as_ref()?;
    evaluate_cardinality(db, &task.query).ok()
}

/// Fold a scored sample into windows, counters, and the audit file.
fn record(shared: &QualityShared, task: &QualityTask, truth: u64) {
    let q = q_error(task.estimate, truth as f64);
    let alert = q > shared.config.alert_qerror;
    let worst_anywhere;
    {
        let mut windows = shared.windows.lock();
        let stats = windows
            .entry((task.entry.name.clone(), task.entry.version))
            .or_insert_with(WindowStats::new);
        stats.push(q, shared.config.window);
        if alert {
            stats.alerts += 1;
        }
        worst_anywhere = windows
            .values()
            .map(WindowStats::worst_in_window)
            .fold(0.0, f64::max);
    }
    shared.counters.worst.set(worst_anywhere);
    if alert {
        shared.counters.alerts.inc();
        append_audit(shared, task, truth, q);
    }
    // Counted last: whoever sees this sample counted also sees its window
    // entry, its alert and its audit line.
    shared.counters.samples.inc();
}

/// Append one JSONL audit record (a shape `workgen mine` reads as seeds).
fn append_audit(shared: &QualityShared, task: &QualityTask, truth: u64, q: f64) {
    let mut guard = shared.audit.lock();
    let Some(file) = guard.as_mut() else { return };
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0);
    // The truth is an exact count, emitted as an integer so the seed reader
    // treats it as a trusted cardinality label.
    let line = json!({
        "ts_ms": ts_ms,
        "model": task.entry.name.clone(),
        "version": task.entry.version,
        "sql": task.query.to_string(),
        "estimate": task.estimate,
        "truth": truth,
        "q_error": q,
        "mode": "exact",
        "trace_id": task.trace_id,
    });
    let text = serde_json::to_string(&line).unwrap_or_default();
    let _ = writeln!(file, "{text}");
    let _ = file.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_fraction_maps_to_stride() {
        let counters = test_counters();
        let m = QualityMonitor::start(
            QualityConfig {
                sample: 0.25,
                ..QualityConfig::default()
            },
            counters,
        );
        let hits = (0..100).filter(|_| m.should_sample()).count();
        assert_eq!(hits, 25);
        m.shutdown();
    }

    #[test]
    fn zero_sampling_disables_monitor() {
        let m = QualityMonitor::start(
            QualityConfig {
                sample: 0.0,
                ..QualityConfig::default()
            },
            test_counters(),
        );
        assert!((0..100).all(|_| !m.should_sample()));
        // No worker thread to join; shutdown is a no-op.
        m.shutdown();
    }

    #[test]
    fn window_stats_cap_and_percentiles() {
        let mut s = WindowStats::new();
        for q in [1.0, 2.0, 3.0, 4.0, 100.0] {
            s.push(q, 4);
        }
        // Window capped at 4: the 1.0 fell out.
        assert_eq!(s.qerrors, vec![2.0, 3.0, 4.0, 100.0]);
        assert_eq!(s.all_time_worst, 100.0);
        assert_eq!(s.percentile(0.5), 3.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(s.worst_in_window(), 100.0);
    }

    fn test_counters() -> QualityCounters {
        let registry = sam_obs::Registry::new();
        QualityCounters {
            samples: registry.counter("q_samples_total"),
            alerts: registry.counter("q_alerts_total"),
            dropped: registry.counter("q_dropped_total"),
            worst: registry.gauge("q_worst"),
        }
    }
}
