//! Micro-batching queue for cardinality estimates (the serving hot path).
//!
//! Connection handlers `try_send` requests into one bounded channel — a full
//! queue is immediate backpressure ([`ServeError::Overloaded`], HTTP 429),
//! never an unbounded backlog. A pool of worker threads drains the queue:
//! each worker blocks for one request, then opportunistically drains up to
//! `max_batch - 1` more without waiting, groups the drained requests by model,
//! and runs one batched progressive-sampling pass per group through the
//! model entry's [`sam_ar::Estimator`], so conditionals cached by earlier
//! batches of the same model version are reused and steady-state flushes
//! allocate no activation matrices. Batched estimates are bit-identical to
//! sequential ones (each request keeps its own seeded RNG), so batching is
//! invisible to clients except in throughput.
//!
//! Shutdown: dropping the sender side lets workers finish draining whatever
//! is queued, then exit on channel disconnect.

use crate::error::ServeError;
use crate::metrics::ServeMetrics;
use crate::registry::ModelEntry;
use crate::sync::Lock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sam_query::Query;
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// One queued estimate request.
pub struct EstimateJob {
    /// Model to estimate against (pinned version).
    pub entry: Arc<ModelEntry>,
    /// Parsed COUNT(*) query.
    pub query: Query,
    /// Progressive-sampling paths.
    pub samples: usize,
    /// RNG seed (per request, so batching cannot change results).
    pub seed: u64,
    /// Absolute deadline; expired requests are answered 504 without running.
    pub deadline: Instant,
    /// Reply channel back to the connection handler.
    pub reply: SyncSender<BatchReply>,
}

/// Worker's answer to one [`EstimateJob`].
pub struct BatchReply {
    /// The estimate, or the error to surface.
    pub result: Result<f64, ServeError>,
    /// How many requests shared the forward passes (1 = no co-batching).
    pub batch_size: usize,
}

/// Handle over the queue and worker pool.
pub struct Batcher {
    tx: Lock<Option<SyncSender<EstimateJob>>>,
    workers: Lock<Vec<JoinHandle<()>>>,
}

impl Batcher {
    /// Start `workers` threads behind a queue of `queue_capacity` slots.
    /// With a flight recorder attached, a worker panic dumps the recent
    /// request history to stderr before the 500s go out.
    pub fn start(
        workers: usize,
        queue_capacity: usize,
        max_batch: usize,
        metrics: Arc<ServeMetrics>,
        flight: Option<Arc<sam_obs::FlightRecorder>>,
    ) -> Batcher {
        let (tx, rx) = std::sync::mpsc::sync_channel::<EstimateJob>(queue_capacity.max(1));
        let rx = Arc::new(Lock::new(rx));
        let handles = (0..workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let metrics = Arc::clone(&metrics);
                let flight = flight.clone();
                let max_batch = max_batch.max(1);
                std::thread::Builder::new()
                    .name(format!("sam-serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, max_batch, &metrics, flight.as_deref()))
                    .expect("spawn inference worker")
            })
            .collect();
        Batcher {
            tx: Lock::new(Some(tx)),
            workers: Lock::new(handles),
        }
    }

    /// Enqueue without blocking. Full queue → [`ServeError::Overloaded`];
    /// after [`shutdown`](Self::shutdown) → [`ServeError::ShuttingDown`].
    pub fn submit(&self, job: EstimateJob) -> Result<(), ServeError> {
        let guard = self.tx.lock();
        let tx = guard.as_ref().ok_or(ServeError::ShuttingDown)?;
        match tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(ServeError::Overloaded),
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Stop accepting work, let workers drain the queue, and join them.
    pub fn shutdown(&self) {
        drop(self.tx.lock().take());
        let handles: Vec<_> = self.workers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    rx: &Lock<Receiver<EstimateJob>>,
    max_batch: usize,
    metrics: &ServeMetrics,
    flight: Option<&sam_obs::FlightRecorder>,
) {
    loop {
        let mut jobs = Vec::new();
        {
            let guard = rx.lock();
            match guard.recv() {
                Ok(job) => jobs.push(job),
                // All senders dropped: queue fully drained, worker exits.
                Err(_) => return,
            }
            while jobs.len() < max_batch {
                match guard.try_recv() {
                    Ok(job) => jobs.push(job),
                    Err(_) => break,
                }
            }
        }

        let now = Instant::now();
        let (live, expired): (Vec<_>, Vec<_>) = jobs.into_iter().partition(|j| j.deadline > now);
        for job in expired {
            let _ = job.reply.try_send(BatchReply {
                result: Err(ServeError::DeadlineExceeded),
                batch_size: 0,
            });
        }
        if live.is_empty() {
            continue;
        }

        // Group by model entry so each group shares forward passes. Keying on
        // the Arc pointer distinguishes versions even under the same name.
        let mut groups: HashMap<usize, Vec<EstimateJob>> = HashMap::new();
        for job in live {
            groups
                .entry(Arc::as_ptr(&job.entry) as usize)
                .or_default()
                .push(job);
        }
        for (_, group) in groups {
            run_group(group, metrics, flight);
        }
    }
}

fn run_group(
    group: Vec<EstimateJob>,
    metrics: &ServeMetrics,
    flight: Option<&sam_obs::FlightRecorder>,
) {
    let batch_size = group.len();
    // A panic inside estimation (a model-invariant violation, an indexing
    // bug) must not kill the worker thread: every waiter in the group would
    // hang until its deadline and the pool would silently shrink. Contain
    // it, answer 500s, and keep the worker alive. `Lock` clears the
    // estimator mutex's poison on the next acquisition.
    let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let requests: Vec<(&Query, usize)> = group.iter().map(|j| (&j.query, j.samples)).collect();
        let mut rngs: Vec<StdRng> = group
            .iter()
            .map(|j| StdRng::seed_from_u64(j.seed))
            .collect();
        // The entry's estimator persists across batches of this model
        // version, so conditionals computed for earlier requests are reused
        // here (bit-identical results, strictly fewer forward passes) and
        // its sample buffers stay warm. Holding the lock across the pass
        // serialises same-version groups; distinct versions still estimate
        // concurrently.
        group[0]
            .entry
            .estimator
            .lock()
            .estimate_batch(&requests, &mut rngs)
    }));
    let results = match results {
        Ok(results) => results,
        Err(payload) => {
            metrics.worker_panics.inc();
            let msg = crate::sync::panic_message(payload.as_ref());
            // The requests leading up to a crash are the context a
            // post-mortem needs; preserve them in the logs right away.
            if let Some(flight) = flight {
                flight.dump_stderr(50, &format!("worker panic: {msg}"));
            }
            for job in group {
                let _ = job.reply.try_send(BatchReply {
                    result: Err(ServeError::Internal(format!("estimation panicked: {msg}"))),
                    batch_size,
                });
            }
            return;
        }
    };
    metrics.batches.inc();
    metrics.batched_requests.add(batch_size as u64);
    let batches = metrics.batches.get();
    if batches > 0 {
        metrics
            .mean_batch_size
            .set(metrics.batched_requests.get() as f64 / batches as f64);
    }
    for (job, result) in group.into_iter().zip(results) {
        let _ = job.reply.try_send(BatchReply {
            result: result.map_err(|e| ServeError::BadRequest(e.to_string())),
            batch_size,
        });
    }
}
