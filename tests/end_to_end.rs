//! End-to-end integration tests spanning every crate: dataset → workload →
//! training → generation → evaluation. Kept at tiny scale (debug builds).

use sam::prelude::*;

fn tiny_sam_config(seed: u64) -> SamConfig {
    SamConfig {
        model: ArModelConfig {
            hidden: vec![24],
            seed,
            residual: false,
        },
        train: TrainConfig {
            epochs: 6,
            batch_size: 32,
            lr: 1e-2,
            seed,
            ..Default::default()
        },
        encoding: EncodingOptions::default(),
    }
}

#[test]
fn census_pipeline_satisfies_constraints() {
    let target = sam::datasets::census(600, 11);
    let stats = DatabaseStats::from_database(&target);
    let mut gen = WorkloadGenerator::new(&target, 11);
    let workload = label_workload(&target, gen.single_workload("census", 150)).unwrap();

    let trained = Sam::fit(target.schema(), &stats, &workload, &tiny_sam_config(11)).unwrap();
    let (synthetic, _) = trained.generate(&GenerationConfig::default()).unwrap();

    assert_eq!(synthetic.tables()[0].num_rows(), 600);
    let qe: Vec<f64> = workload
        .iter()
        .map(|lq| {
            let got = evaluate_cardinality(&synthetic, &lq.query).unwrap() as f64;
            q_error(got, lq.cardinality as f64)
        })
        .collect();
    let p = Percentiles::from_values(&qe);
    assert!(p.median < 3.0, "median Q-Error too high: {}", p.median);
}

#[test]
fn imdb_pipeline_reproduces_sizes_and_joins() {
    let target = sam::datasets::imdb(&sam::datasets::ImdbConfig {
        titles: 250,
        seed: 5,
        ..Default::default()
    });
    let stats = DatabaseStats::from_database(&target);
    let mut gen = WorkloadGenerator::new(&target, 5);
    let workload = label_workload(&target, gen.multi_workload(200, 2)).unwrap();

    let trained = Sam::fit(target.schema(), &stats, &workload, &tiny_sam_config(5)).unwrap();
    let (synthetic, _) = trained
        .generate(&GenerationConfig {
            foj_samples: 4_000,
            batch: 256,
            seed: 3,
            strategy: JoinKeyStrategy::GroupAndMerge,
        })
        .unwrap();

    // Sizes near targets (tiny model + tiny workload → loose bound; the
    // quick-scale experiments land within a fraction of a percent).
    for t in target.tables() {
        let want = t.num_rows() as f64;
        let got = synthetic.table_by_name(t.name()).unwrap().num_rows() as f64;
        assert!(
            (got - want).abs() <= (want * 0.30).max(10.0),
            "{}: {got} vs {want}",
            t.name()
        );
    }

    // Unfiltered 2-way joins land in the right ballpark.
    for fact in ["cast_info", "movie_info"] {
        let q = Query::join(vec!["title".into(), fact.into()], vec![]);
        let want = evaluate_cardinality(&target, &q).unwrap() as f64;
        let got = evaluate_cardinality(&synthetic, &q).unwrap() as f64;
        assert!(
            q_error(got, want) < 1.5,
            "{fact}: join size {got} vs {want}"
        );
    }
}

#[test]
fn pgm_baseline_runs_end_to_end() {
    let target = sam::datasets::census(400, 2);
    let stats = DatabaseStats::from_database(&target);
    let mut gen = WorkloadGenerator::new(&target, 2);
    let workload = label_workload(&target, gen.single_workload("census", 10)).unwrap();

    let pgm = sam::pgm::fit_single_pgm(
        target.tables()[0].schema(),
        &stats.table(0).columns,
        stats.table(0).num_rows,
        &workload.queries,
        &sam::pgm::PgmConfig::default(),
    );
    assert!(!pgm.exceeded);
    let table = pgm.generate(target.tables()[0].schema(), 400, 2);
    assert_eq!(table.num_rows(), 400);
}

#[test]
fn ablation_strategies_both_generate_valid_databases() {
    let target = sam::datasets::imdb(&sam::datasets::ImdbConfig {
        titles: 150,
        seed: 9,
        ..Default::default()
    });
    let stats = DatabaseStats::from_database(&target);
    let mut gen = WorkloadGenerator::new(&target, 9);
    let workload = label_workload(&target, gen.multi_workload(120, 2)).unwrap();
    let trained = Sam::fit(target.schema(), &stats, &workload, &tiny_sam_config(9)).unwrap();

    for strategy in [
        JoinKeyStrategy::GroupAndMerge,
        JoinKeyStrategy::PairwiseViews,
    ] {
        let (db, _) = trained
            .generate(&GenerationConfig {
                foj_samples: 2_000,
                batch: 256,
                seed: 9,
                strategy,
            })
            .unwrap();
        // Referential integrity was checked during assembly; spot-check a
        // join evaluates without error.
        let q = Query::join(vec!["title".into(), "movie_keyword".into()], vec![]);
        evaluate_cardinality(&db, &q).unwrap();
    }
}

#[test]
fn engine_agrees_with_evaluator_on_generated_data() {
    let target = sam::datasets::census(300, 4);
    let stats = DatabaseStats::from_database(&target);
    let mut gen = WorkloadGenerator::new(&target, 4);
    let workload = label_workload(&target, gen.single_workload("census", 60)).unwrap();
    let trained = Sam::fit(target.schema(), &stats, &workload, &tiny_sam_config(4)).unwrap();
    let (synthetic, _) = trained.generate(&GenerationConfig::default()).unwrap();

    let engine = sam::engine::Engine::new(&synthetic);
    for lq in workload.iter().take(20) {
        let (count, _) = engine.count(&lq.query).unwrap();
        assert_eq!(count, evaluate_cardinality(&synthetic, &lq.query).unwrap());
    }
}
