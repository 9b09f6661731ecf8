//! Seeded input synthesis. The same `--seed` gives byte-identical query
//! workloads; the database is fixed (`sizes::DATA_SEED`). The program under
//! test receives only what is generated here.

use crate::sizes::DATA_SEED;
use sam::datasets::{imdb, ImdbConfig};
use sam::prelude::*;
use sam::workgen::{synthesize, ShapeWeights, SynthProfile, SynthTarget};
use std::time::Instant;

/// Set-up layer timings, reported as per-layer metrics on every workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub datasets_synthesize_s: f64,
    pub storage_stats_s: f64,
    pub query_label_queries_per_s: f64,
    pub workgen_synthesize_queries_per_s: f64,
}

/// The reference database, its statistics and a labelled training workload.
pub struct Corpus {
    pub db: Database,
    pub stats: DatabaseStats,
    pub workload: Workload,
    pub times: SetupTimes,
}

/// Build the IMDB stand-in at `titles` and label `queries` MSCN-style join
/// queries (≤ 2 joins) drawn at `seed` exactly.
pub fn corpus(titles: usize, queries: usize, seed: u64) -> Corpus {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let db = imdb(&ImdbConfig {
        titles,
        seed: DATA_SEED,
        ..Default::default()
    });
    times.datasets_synthesize_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let stats = DatabaseStats::from_database(&db);
    times.storage_stats_s = t.elapsed().as_secs_f64();

    let unlabelled = WorkloadGenerator::new(&db, seed).multi_workload(queries, 2);
    let t = Instant::now();
    let workload = label_workload(&db, unlabelled).expect("generated queries evaluate");
    times.query_label_queries_per_s = queries as f64 / t.elapsed().as_secs_f64();

    Corpus {
        db,
        stats,
        workload,
        times,
    }
}

/// One request of a serving workload with its exact answer.
pub struct PoolQuery {
    pub sql: String,
    pub truth: u64,
}

/// The synthesis profile of the serving pools: 1–3 joined tables, the
/// default point / range / IN / DNF mixture, one to three predicates.
fn pool_profile() -> SynthProfile {
    SynthProfile {
        name: "benchmark-pool".to_string(),
        join_weights: vec![1.0, 1.0, 1.0],
        shapes: ShapeWeights {
            point: 0.25,
            range: 0.45,
            in_list: 0.2,
            dnf: 0.1,
        },
        preds_min: 1,
        preds_max: 3,
        ..SynthProfile::default()
    }
}

/// `count` distinct queries from `sam_workgen::synthesize` at `seed`, each
/// labelled with its exact cardinality on `corpus.db`.
pub fn query_pool(corpus: &mut Corpus, count: usize, seed: u64) -> Vec<PoolQuery> {
    let profile = pool_profile();
    let target = SynthTarget::new(corpus.db.schema(), &corpus.stats, &profile)
        .expect("the IMDB stand-in has filterable columns");
    let t = Instant::now();
    let queries = synthesize(&target, &profile, seed, count as u64);
    corpus.times.workgen_synthesize_queries_per_s =
        queries.len() as f64 / t.elapsed().as_secs_f64();
    assert_eq!(
        queries.len(),
        count,
        "synthesis ran out of distinct queries"
    );
    queries
        .iter()
        .map(|q| PoolQuery {
            sql: q.to_string(),
            truth: evaluate_cardinality(&corpus.db, q).expect("synthesized queries evaluate"),
        })
        .collect()
}
