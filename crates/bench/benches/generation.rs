//! Figure 6 / §5.6 microbenchmarks: generation-stage throughput — batched
//! tuple sampling (Algorithm 1), inverse probability weighting + scaling
//! (Algorithm 2), and Group-and-Merge key assignment (Algorithm 3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sam_ar::{sample_model_rows, ArModel, ArModelConfig, ArSchema, EncodingOptions};
use sam_core::{assemble_database, assign_keys_group_merge, weigh_samples, JoinKeyStrategy};
use sam_storage::DatabaseStats;

fn bench_generation(c: &mut Criterion) {
    let db = sam_datasets::imdb(&sam_datasets::ImdbConfig {
        titles: 500,
        seed: 1,
        ..Default::default()
    });
    let stats = DatabaseStats::from_database(&db);
    let schema = ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
    let model = ArModel::new(
        schema.clone(),
        &ArModelConfig {
            hidden: vec![32],
            seed: 1,
            residual: false,
        },
    )
    .freeze();

    let mut group = c.benchmark_group("alg1_sampling");
    group.sample_size(10);
    for n in [512usize, 2048, 8192] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| sample_model_rows(&model, n, 256, 7))
        });
    }
    group.finish();

    let rows = sample_model_rows(&model, 8192, 256, 7);

    let mut group = c.benchmark_group("alg2_weighting");
    group.sample_size(20);
    for n in [1024usize, 4096, 8192] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| weigh_samples(&schema, &rows[..n]))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("alg3_group_and_merge");
    group.sample_size(20);
    for n in [1024usize, 4096, 8192] {
        let w = weigh_samples(&schema, &rows[..n]);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| assign_keys_group_merge(&schema, &rows[..n], &w))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("end_to_end_assembly");
    group.sample_size(10);
    for strategy in [
        JoinKeyStrategy::GroupAndMerge,
        JoinKeyStrategy::PairwiseViews,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{strategy:?}")),
            &strategy,
            |b, &s| b.iter(|| assemble_database(db.schema(), &schema, &rows[..4096], s, 3)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_generation);
criterion_main!(benches);
