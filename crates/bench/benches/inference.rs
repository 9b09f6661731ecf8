//! Progressive-sampling inference microbenchmark: cardinality-estimate
//! latency vs sample-path count (the variance/latency ablation DESIGN.md
//! lists), plus the intervalization ablation — a raw large-domain column vs
//! an intervalized one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sam_ar::{ArModel, ArModelConfig, ArSchema, EncodingOptions, Estimator};
use sam_query::WorkloadGenerator;
use sam_storage::DatabaseStats;

fn bench_inference(c: &mut Criterion) {
    let db = sam_datasets::census(2_000, 2);
    let stats = DatabaseStats::from_database(&db);
    let mut gen = WorkloadGenerator::new(&db, 2);
    let queries = gen.single_workload("census", 64);

    let schema =
        ArSchema::build(db.schema(), &stats, &queries, &EncodingOptions::default()).unwrap();
    let model = ArModel::new(
        schema,
        &ArModelConfig {
            hidden: vec![32],
            seed: 2,
            residual: false,
        },
    )
    .freeze();

    let mut group = c.benchmark_group("progressive_sampling_paths");
    group.sample_size(20);
    for paths in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(paths), &paths, |b, &paths| {
            let mut rng = StdRng::seed_from_u64(0);
            // A fresh estimator per iteration: the cold cost, no trie reuse.
            b.iter(|| {
                Estimator::new(model.clone())
                    .estimate(&queries[0], paths, &mut rng)
                    .unwrap()
            })
        });
    }
    group.finish();

    // Intervalization ablation: same data, raw vs intervalized numeric
    // domains. Raw keeps every distinct value (bigger model, slower steps).
    let mut group = c.benchmark_group("intervalization_ablation");
    group.sample_size(10);
    for (label, threshold) in [("intervalized", 64usize), ("raw_domains", usize::MAX)] {
        let schema = ArSchema::build(
            db.schema(),
            &stats,
            &queries,
            &EncodingOptions {
                intervalize_threshold: threshold,
            },
        )
        .unwrap();
        let width: usize = schema.domain_sizes().iter().sum();
        let model = ArModel::new(
            schema,
            &ArModelConfig {
                hidden: vec![32],
                seed: 2,
                residual: false,
            },
        )
        .freeze();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{label}_width{width}")),
            &width,
            |b, _| {
                let mut rng = StdRng::seed_from_u64(0);
                b.iter(|| {
                    Estimator::new(model.clone())
                        .estimate(&queries[0], 64, &mut rng)
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
