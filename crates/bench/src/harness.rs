//! Shared experiment harness: scales, dataset bundles, method drivers.
//!
//! `run_all` accepts `--scale {smoke|quick|full}`, `--seed N` and
//! `--only <id>[,<id>...]` ([`parse_args`]). `smoke` is a seconds-level
//! sanity run, `quick` (default) reproduces every trend in minutes on a
//! laptop CPU, `full` pushes sizes toward the paper's (hours; still
//! CPU-bound — see DESIGN.md scale substitution).

use sam_ar::{ArModelConfig, EncodingOptions, TrainConfig};
use sam_core::{GenerationConfig, JoinKeyStrategy, Sam, SamConfig, TrainedSam};
use sam_metrics::q_error;
use sam_pgm::PgmConfig;
use sam_query::{evaluate_cardinality, label_workload, Query, Workload, WorkloadGenerator};
use sam_storage::{Database, DatabaseStats};
use std::time::Instant;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds: tiny data, tiny models (CI sanity).
    Smoke,
    /// Minutes: every trend reproducible (default).
    Quick,
    /// Toward paper sizes (hours on CPU).
    Full,
}

impl Scale {
    /// Parse from a CLI token.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// Parsed CLI context.
#[derive(Debug, Clone, Copy)]
pub struct ExpContext {
    /// Chosen scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
}

/// `run_all`'s command line, printed with every argument error.
pub const USAGE: &str =
    "usage: run_all [--scale smoke|quick|full] [--seed N] [--only <id>[,<id>...]]";

/// Parse `--scale`, `--seed` and `--only` from `args` (program name
/// excluded). `suites` are the ids `--only` may name; the second result is
/// the ids it named, or all of `suites` without it.
///
/// # Errors
///
/// A one-line message for an unknown argument, a flag without a value, a
/// scale or seed that does not parse, or an `--only` id not in `suites`.
pub fn parse_args<'a>(
    args: impl IntoIterator<Item = String>,
    suites: &[&'a str],
) -> Result<(ExpContext, Vec<&'a str>), String> {
    let mut ctx = ExpContext {
        scale: Scale::Quick,
        seed: 0,
    };
    let mut selected = suites.to_vec();
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()) {
            ("--scale" | "--seed" | "--only", None) => {
                return Err(format!("`{flag}` needs a value"))
            }
            ("--scale", Some(value)) => {
                ctx.scale = Scale::parse(&value)
                    .ok_or_else(|| format!("unknown scale `{value}` (smoke, quick or full)"))?;
            }
            ("--seed", Some(value)) => {
                ctx.seed = value
                    .parse()
                    .map_err(|_| format!("seed `{value}` is not a non-negative integer"))?;
            }
            ("--only", Some(value)) => {
                selected = value
                    .split(',')
                    .map(|id| {
                        suites.iter().copied().find(|s| *s == id).ok_or_else(|| {
                            format!("unknown experiment `{id}`; valid: {}", suites.join(", "))
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok((ctx, selected))
}

/// A dataset ready for experiments.
pub struct Bundle {
    /// Human-readable dataset name.
    pub name: &'static str,
    /// The target database (the "customer data" SAM never sees directly).
    pub db: Database,
    /// Its metadata summary (what SAM does see).
    pub stats: DatabaseStats,
}

/// Synthetic Census at the given scale.
pub fn census_bundle(scale: Scale, seed: u64) -> Bundle {
    let rows = match scale {
        Scale::Smoke => 2_000,
        Scale::Quick => 12_000,
        Scale::Full => 48_000,
    };
    let db = sam_datasets::census(rows, seed);
    let stats = DatabaseStats::from_database(&db);
    Bundle {
        name: "Census",
        db,
        stats,
    }
}

/// Synthetic DMV at the given scale.
pub fn dmv_bundle(scale: Scale, seed: u64) -> Bundle {
    let rows = match scale {
        Scale::Smoke => 3_000,
        Scale::Quick => 20_000,
        Scale::Full => 120_000,
    };
    let db = sam_datasets::dmv(rows, seed);
    let stats = DatabaseStats::from_database(&db);
    Bundle {
        name: "DMV",
        db,
        stats,
    }
}

/// Synthetic IMDB (JOB-light star) at the given scale.
pub fn imdb_bundle(scale: Scale, seed: u64) -> Bundle {
    let titles = match scale {
        Scale::Smoke => 400,
        Scale::Quick => 2_000,
        Scale::Full => 8_000,
    };
    let db = sam_datasets::imdb(&sam_datasets::ImdbConfig {
        titles,
        seed,
        ..Default::default()
    });
    let stats = DatabaseStats::from_database(&db);
    Bundle {
        name: "IMDB",
        db,
        stats,
    }
}

/// Workload sizes per scale: (train single, train multi, test).
pub fn workload_sizes(scale: Scale) -> (usize, usize, usize) {
    match scale {
        Scale::Smoke => (300, 300, 100),
        Scale::Quick => (4_000, 4_000, 400),
        Scale::Full => (20_000, 20_000, 1_000),
    }
}

/// SAM hyperparameters per scale.
pub fn sam_config(scale: Scale, seed: u64) -> SamConfig {
    let (hidden, epochs, batch) = match scale {
        Scale::Smoke => (vec![32], 4, 32),
        Scale::Quick => (vec![64, 64], 10, 64),
        Scale::Full => (vec![128, 128], 20, 64),
    };
    SamConfig {
        model: ArModelConfig {
            hidden,
            seed,
            residual: false,
        },
        train: TrainConfig {
            epochs,
            batch_size: batch,
            lr: 5e-3,
            seed,
            ..Default::default()
        },
        encoding: EncodingOptions::default(),
    }
}

/// PGM solver settings per scale.
pub fn pgm_config(scale: Scale) -> PgmConfig {
    match scale {
        Scale::Smoke => PgmConfig {
            max_iters: 1_500,
            tol: 1e-7,
            max_variables: 50_000,
        },
        _ => PgmConfig::default(),
    }
}

/// Generation settings per scale.
pub fn generation_config(scale: Scale, seed: u64, strategy: JoinKeyStrategy) -> GenerationConfig {
    let foj_samples = match scale {
        Scale::Smoke => 2_000,
        Scale::Quick => 20_000,
        Scale::Full => 100_000,
    };
    GenerationConfig {
        foj_samples,
        batch: 512,
        seed,
        strategy,
    }
}

/// Train SAM on a labelled workload and report wall time.
pub fn fit_sam(bundle: &Bundle, workload: &Workload, config: &SamConfig) -> TrainedSam {
    Sam::fit(bundle.db.schema(), &bundle.stats, workload, config)
        .expect("SAM training succeeds on harness workloads")
}

/// Build + label a single-relation workload on the bundle's only table.
pub fn single_workload(bundle: &Bundle, n: usize, seed: u64) -> Workload {
    let table = bundle.db.tables()[0].name().to_string();
    let mut gen = WorkloadGenerator::new(&bundle.db, seed);
    let queries = gen.single_workload(&table, n);
    label_workload(&bundle.db, queries).expect("labelling succeeds")
}

/// Build + label an MSCN-style multi-relation workload (0–2 joins).
pub fn multi_workload(bundle: &Bundle, n: usize, seed: u64) -> Workload {
    let mut gen = WorkloadGenerator::new(&bundle.db, seed);
    let queries = gen.multi_workload(n, 2);
    label_workload(&bundle.db, queries).expect("labelling succeeds")
}

/// Q-Errors of a query set evaluated against a generated database, with the
/// true cardinalities taken from the labels.
pub fn q_errors_on(generated: &Database, workload: &[sam_query::LabeledQuery]) -> Vec<f64> {
    workload
        .iter()
        .map(|lq| {
            let got = evaluate_cardinality(generated, &lq.query).unwrap_or(0) as f64;
            q_error(got, lq.cardinality as f64)
        })
        .collect()
}

/// Label `queries` on `truth_db` and measure their Q-Error on `generated`.
pub fn q_errors_fresh(truth_db: &Database, generated: &Database, queries: &[Query]) -> Vec<f64> {
    queries
        .iter()
        .map(|q| {
            let truth = evaluate_cardinality(truth_db, q).unwrap_or(0) as f64;
            let got = evaluate_cardinality(generated, q).unwrap_or(0) as f64;
            q_error(got, truth)
        })
        .collect()
}

/// Time a closure in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Build + label a deduplicated *test* workload of single-relation queries
/// from an independent seed stream (paper: "ensured to have no duplicate
/// query").
pub fn test_single_workload(bundle: &Bundle, n: usize, seed: u64) -> Workload {
    let table = bundle.db.tables()[0].name().to_string();
    let mut gen = WorkloadGenerator::new(&bundle.db, seed ^ 0xD15EA5E);
    // Overdraw, dedup, truncate.
    let queries = sam_query::dedup_queries(gen.single_workload(&table, n * 3));
    label_workload(&bundle.db, queries.into_iter().take(n).collect()).expect("labelling succeeds")
}

/// Build + label a JOB-light-style test workload (joins of 2..=6 tables).
pub fn job_light_workload(bundle: &Bundle, n: usize, seed: u64) -> Workload {
    let mut gen = WorkloadGenerator::new(&bundle.db, seed ^ 0x10B);
    let queries = sam_query::dedup_queries(gen.job_light_style(n * 2));
    label_workload(&bundle.db, queries.into_iter().take(n).collect()).expect("labelling succeeds")
}

/// Fit the single-relation PGM baseline on a bundle.
pub fn fit_pgm_single(
    bundle: &Bundle,
    workload: &Workload,
    config: &sam_pgm::PgmConfig,
) -> sam_pgm::TablePgm {
    let schema = bundle.db.tables()[0].schema().clone();
    sam_pgm::fit_single_pgm(
        &schema,
        &bundle.stats.table(0).columns,
        bundle.stats.table(0).num_rows,
        &workload.queries,
        config,
    )
}

/// Generate a single-relation database from a fitted PGM.
pub fn pgm_generate_single(bundle: &Bundle, pgm: &sam_pgm::TablePgm, seed: u64) -> Database {
    let schema = bundle.db.tables()[0].schema().clone();
    let rows = bundle.stats.table(0).num_rows as usize;
    Database::single(pgm.generate(&schema, rows, seed))
}

/// Fit the multi-relation PGM baseline (per-view models).
pub fn fit_pgm_multi(
    bundle: &Bundle,
    workload: &Workload,
    config: &sam_pgm::PgmConfig,
) -> sam_pgm::MultiPgm {
    let sizes = sam_pgm::view_sizes_from_database(&bundle.db, &workload.queries)
        .expect("view sizes computable");
    sam_pgm::fit_multi_pgm(
        bundle.db.schema(),
        &bundle.stats,
        &workload.queries,
        &sizes,
        config,
    )
    .expect("multi PGM fit succeeds")
}

/// Cross entropy (Eq 1, bits) between the original and generated versions
/// of `table` (for IMDB use `title`, the paper's choice).
pub fn table_cross_entropy(original: &Database, generated: &Database, table: &str) -> f64 {
    sam_metrics::pairwise_cross_entropy(
        original.table_by_name(table).expect("table exists"),
        generated.table_by_name(table).expect("table exists"),
        32,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUITES: &[&str] = &["fig5", "table1", "seeds"];

    fn parse(args: &[&str]) -> Result<(ExpContext, Vec<&'static str>), String> {
        parse_args(args.iter().map(|a| a.to_string()), SUITES)
    }

    #[test]
    fn defaults_to_quick_seed_zero_and_every_suite() {
        let (ctx, only) = parse(&[]).unwrap();
        assert_eq!((ctx.scale, ctx.seed), (Scale::Quick, 0));
        assert_eq!(only, SUITES);
    }

    #[test]
    fn reads_every_flag() {
        let (ctx, only) =
            parse(&["--scale", "smoke", "--seed", "7", "--only", "seeds,fig5"]).unwrap();
        assert_eq!((ctx.scale, ctx.seed), (Scale::Smoke, 7));
        assert_eq!(only, ["seeds", "fig5"]);
    }

    #[test]
    fn rejects_unknown_arguments() {
        assert!(parse(&["--scales", "smoke"])
            .unwrap_err()
            .contains("--scales"));
        assert!(parse(&["smoke"]).unwrap_err().contains("smoke"));
    }

    #[test]
    fn rejects_a_misspelled_scale() {
        assert!(parse(&["--scale", "ful"]).unwrap_err().contains("ful"));
    }

    #[test]
    fn rejects_a_seed_that_is_not_a_number() {
        assert!(parse(&["--seed", "x"]).unwrap_err().contains("`x`"));
        assert!(parse(&["--seed", "-1"]).is_err());
    }

    #[test]
    fn rejects_a_flag_without_its_value() {
        for flag in ["--scale", "--seed", "--only"] {
            assert!(parse(&[flag]).unwrap_err().contains("needs a value"));
        }
    }

    #[test]
    fn rejects_unknown_only_ids_and_lists_the_valid_ones() {
        let err = parse(&["--only", "fig5,fig9"]).unwrap_err();
        assert!(
            err.contains("`fig9`") && err.contains("fig5, table1, seeds"),
            "{err}"
        );
        assert!(parse(&["--only", ""]).is_err());
    }
}
