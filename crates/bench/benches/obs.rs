//! Observability overhead: the instrumentation must be invisible when
//! nothing is listening (the <2 % acceptance bar on the serving path).
//!
//! * `estimate/silent` vs `estimate/spanned_silent` — the serving-path
//!   workload (a micro-batched estimate), bare vs wrapped in a `span!`,
//!   with the silent sink and tracing off. The two must be within noise:
//!   an idle `span!` is two relaxed atomic loads and a branch, and the
//!   matmul counters are one cached-handle `fetch_add` per kernel call.
//! * `primitives/*` — the raw cost of one counter bump, one gauge set, and
//!   one inert `span!`, to make regressions attributable.
//! * `estimate/traced` — the same workload with the in-memory collector
//!   on, to show what tracing itself costs when enabled.
//! * `flight/*` — the always-on flight recorder's per-request cost: one
//!   `record` (the estimate-path event), one `record` under the sampling
//!   arithmetic of 1% quality shadow-scoring, and a 50-event `recent` read
//!   (the `GET /debug/flight` path, which must not stall writers).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sam_ar::{ArModel, ArModelConfig, ArSchema, EncodingOptions, Estimator, FrozenModel};
use sam_obs::{CacheOutcome, Endpoint, FlightRecorder};
use sam_query::{Query, WorkloadGenerator};
use sam_storage::DatabaseStats;

const SAMPLES: usize = 64;
const BATCH: usize = 8;

fn build_model() -> (FrozenModel, Vec<Query>) {
    let db = sam_datasets::census(1_000, 5);
    let stats = DatabaseStats::from_database(&db);
    let mut gen = WorkloadGenerator::new(&db, 5);
    let queries = gen.single_workload("census", BATCH);
    let schema =
        ArSchema::build(db.schema(), &stats, &queries, &EncodingOptions::default()).unwrap();
    let model = ArModel::new(
        schema,
        &ArModelConfig {
            hidden: vec![32, 32],
            seed: 5,
            residual: false,
        },
    )
    .freeze();
    (model, queries)
}

fn run_batch(model: &FrozenModel, queries: &[Query]) -> f64 {
    let requests: Vec<(&Query, usize)> = queries.iter().map(|q| (q, SAMPLES)).collect();
    let mut rngs: Vec<StdRng> = (0..queries.len())
        .map(|i| StdRng::seed_from_u64(i as u64))
        .collect();
    // A fresh estimator per batch: the cold serving-path cost.
    Estimator::new(model.clone())
        .estimate_batch(&requests, &mut rngs)
        .into_iter()
        .map(|r| r.unwrap())
        .sum()
}

fn bench_estimate_overhead(c: &mut Criterion) {
    let (model, queries) = build_model();
    sam_obs::set_log_level(sam_obs::LogLevel::Silent);
    sam_obs::disable_tracing();

    let mut group = c.benchmark_group("estimate");
    group.bench_function("silent", |b| b.iter(|| run_batch(&model, &queries)));
    group.bench_function("spanned_silent", |b| {
        b.iter(|| {
            let _span = sam_obs::span!("bench_estimate", batch = BATCH);
            run_batch(&model, &queries)
        })
    });
    sam_obs::enable_tracing();
    group.bench_function("traced", |b| {
        b.iter(|| {
            let _span = sam_obs::span!("bench_estimate", batch = BATCH);
            run_batch(&model, &queries)
        })
    });
    sam_obs::disable_tracing();
    group.finish();
}

fn bench_primitives(c: &mut Criterion) {
    sam_obs::set_log_level(sam_obs::LogLevel::Silent);
    sam_obs::disable_tracing();
    let counter = sam_obs::counter("bench_counter_total");
    let gauge = sam_obs::gauge("bench_gauge");

    let mut group = c.benchmark_group("primitives");
    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    group.bench_function("gauge_set", |b| b.iter(|| gauge.set(1.5)));
    group.bench_function("inert_span", |b| {
        b.iter(|| sam_obs::span!("bench_span", value = 7))
    });
    group.finish();
}

fn bench_flight_recorder(c: &mut Criterion) {
    let recorder = FlightRecorder::new(512);
    let mut group = c.benchmark_group("flight");
    let mut trace = 0u64;
    group.bench_function("record", |b| {
        b.iter(|| {
            trace += 1;
            recorder.record(
                trace,
                Endpoint::Estimate,
                1,
                4,
                CacheOutcome::Miss,
                1_250_000,
                200,
            );
        })
    });
    // The estimate path's extra arithmetic when 1% quality sampling is on:
    // a counter-stride decision per request on top of the flight event.
    let sample_counter = std::sync::atomic::AtomicU64::new(0);
    group.bench_function("record_with_1pct_sampling", |b| {
        b.iter(|| {
            trace += 1;
            recorder.record(
                trace,
                Endpoint::Estimate,
                1,
                4,
                CacheOutcome::Miss,
                1_250_000,
                200,
            );
            let sampled = sample_counter
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                .is_multiple_of(100);
            criterion::black_box(sampled)
        })
    });
    group.bench_function("recent_50", |b| {
        b.iter(|| criterion::black_box(recorder.recent(50).len()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_estimate_overhead,
    bench_primitives,
    bench_flight_recorder
);
criterion_main!(benches);
