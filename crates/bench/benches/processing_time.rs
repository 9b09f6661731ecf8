//! Figure 5 microbenchmark: workload-processing cost per method.
//!
//! `sam_train_epoch/*` measures one DPS epoch at growing workload sizes
//! (expect linear scaling); `pgm_fit/*` measures the PGM build+solve
//! (expect super-linear growth in both time and unknowns).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sam_ar::{train, ArModel, ArModelConfig, ArSchema, EncodingOptions, TrainConfig};
use sam_pgm::{fit_single_pgm, PgmConfig};
use sam_query::{label_workload, WorkloadGenerator};
use sam_storage::DatabaseStats;

fn bench_processing(c: &mut Criterion) {
    let db = sam_datasets::census(2_000, 1);
    let stats = DatabaseStats::from_database(&db);
    let mut gen = WorkloadGenerator::new(&db, 1);
    let full = label_workload(&db, gen.single_workload("census", 512)).unwrap();

    let mut group = c.benchmark_group("sam_train_epoch");
    group.sample_size(10);
    for n in [64usize, 128, 256, 512] {
        let workload = full.truncate(n);
        let queries: Vec<_> = workload.iter().map(|lq| lq.query.clone()).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let schema =
                    ArSchema::build(db.schema(), &stats, &queries, &EncodingOptions::default())
                        .unwrap();
                let mut model = ArModel::new(
                    schema,
                    &ArModelConfig {
                        hidden: vec![32],
                        seed: 0,
                        residual: false,
                    },
                );
                train(
                    &mut model,
                    &workload,
                    &TrainConfig {
                        epochs: 1,
                        batch_size: 64,
                        ..Default::default()
                    },
                )
                .unwrap()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("pgm_fit");
    group.sample_size(10);
    for n in [2usize, 4, 8, 16] {
        let workload = full.truncate(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                fit_single_pgm(
                    db.tables()[0].schema(),
                    &stats.table(0).columns,
                    stats.table(0).num_rows,
                    &workload.queries,
                    &PgmConfig {
                        max_iters: 500,
                        ..Default::default()
                    },
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_processing);
criterion_main!(benches);
