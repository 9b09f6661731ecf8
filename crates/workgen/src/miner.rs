//! Adversarial hard-query mining: find the queries a trained model is
//! worst at.
//!
//! Mutate-and-climb over predicate bounds, guided by *measured* Q-Error:
//! each round keeps the current worst pool, mutates every member a few ways
//! (shift a literal along the sorted domain, swap the comparison operator,
//! grow / shrink an IN list), scores all fresh mutants in one batched
//! estimator call (one [`Estimator`] across rounds, so its prefix trie is
//! shared exactly like the serving path's), and merges survivors back by
//! Q-Error. Seeds are scored first, so the mined worst set can only be as
//! bad or worse than the synthesized baseline — the kth-worst Q-Error is
//! monotone nondecreasing in the round number by construction.

use crate::error::WorkgenError;
use crate::rng::SplitMix64;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sam_ar::{Estimator, FrozenModel};
use sam_metrics::q_error;
use sam_query::eval::evaluate_cardinality;
use sam_query::predicate::{CompareOp, Constraint};
use sam_query::query::Query;
use sam_storage::{Database, DatabaseStats, Domain};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Miner knobs.
#[derive(Debug, Clone)]
pub struct MinerConfig {
    /// Size of the reported worst set.
    pub top_k: usize,
    /// Mutation rounds after the seed scoring pass.
    pub rounds: usize,
    /// Survivor pool carried between rounds (≥ `top_k` is sensible).
    pub pool: usize,
    /// Mutants generated per pool member per round.
    pub mutants: usize,
    /// Progressive samples per estimate (the serving default is 64).
    pub samples: usize,
    /// Seed for mutation choices and estimator RNGs.
    pub seed: u64,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            top_k: 10,
            rounds: 8,
            pool: 16,
            mutants: 4,
            samples: 64,
            seed: 0,
        }
    }
}

/// One scored query.
#[derive(Debug, Clone)]
pub struct MinedQuery {
    /// The query.
    pub query: Query,
    /// True cardinality on the target database.
    pub truth: u64,
    /// Model estimate.
    pub estimate: f64,
    /// `max(estimate/truth, truth/estimate)` with zero protection.
    pub q_error: f64,
}

/// Result of a mining run.
#[derive(Debug, Clone)]
pub struct MinerReport {
    /// The worst queries found, Q-Error descending (≤ `top_k`).
    pub worst: Vec<MinedQuery>,
    /// Mean Q-Error over the seed set (the synthesized baseline).
    pub baseline_mean: f64,
    /// Max Q-Error over the seed set.
    pub baseline_max: f64,
    /// Worst Q-Error after each round (index 0 = after seed scoring);
    /// monotone nondecreasing by construction.
    pub worst_trail: Vec<f64>,
    /// Distinct queries scored (estimate + truth evaluation).
    pub evaluated: u64,
    /// Rounds actually run.
    pub rounds_run: usize,
}

/// Sorted domains of every filterable column, for bound mutations.
struct DomainMap {
    by_column: HashMap<(String, String), Arc<Domain>>,
}

impl DomainMap {
    fn new(db: &Database) -> Self {
        let stats = DatabaseStats::from_database(db);
        let mut by_column = HashMap::new();
        for table in &stats.tables {
            for col in &table.columns {
                by_column.insert(
                    (table.name.clone(), col.name.clone()),
                    Arc::clone(&col.domain),
                );
            }
        }
        DomainMap { by_column }
    }

    fn get(&self, table: &str, column: &str) -> Option<&Domain> {
        self.by_column
            .get(&(table.to_string(), column.to_string()))
            .map(|d| d.as_ref())
    }
}

/// FNV-1a over the canonical string — the "already scored" key.
fn query_key(q: &Query) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in q.canonical_string().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The domain code closest to `lit` (where an equality at `lit` would land).
fn code_near(domain: &Domain, lit: &sam_storage::Value) -> u32 {
    let below = domain.codes_le(lit).end;
    below.saturating_sub(1)
}

/// Produce one mutated copy of `q`, or `None` if the query has no
/// mutable predicate.
fn mutate(q: &Query, domains: &DomainMap, rng: &mut SplitMix64) -> Option<Query> {
    if q.predicates.is_empty() {
        return None;
    }
    let mut out = q.clone();
    let pi = rng.below(out.predicates.len() as u64) as usize;
    let pred = &mut out.predicates[pi];
    let domain = domains.get(&pred.table, &pred.column)?;
    let len = domain.len() as u64;
    if len == 0 {
        return None;
    }
    match &mut pred.constraint {
        Constraint::Compare(op, lit) => {
            if rng.below(3) == 0 {
                // Swap the operator: flips which side of the bound matches.
                let ops = [
                    CompareOp::Lt,
                    CompareOp::Le,
                    CompareOp::Eq,
                    CompareOp::Ge,
                    CompareOp::Gt,
                ];
                *op = ops[rng.below(ops.len() as u64) as usize];
            } else {
                // Shift the literal along the sorted domain. Steps are a
                // mix of fine (±1) and coarse (up to ~1/8 of the domain) so
                // the climb can both tune a bound and escape a plateau.
                let span = (len / 8).max(1);
                let step = 1 + rng.below(span);
                let code = code_near(domain, lit) as i64;
                let next = if rng.below(2) == 0 {
                    code - step as i64
                } else {
                    code + step as i64
                };
                let next = next.clamp(0, len as i64 - 1) as u32;
                *lit = domain.value(next).clone();
            }
        }
        Constraint::In(vals) => match rng.below(3) {
            // Add a random domain value.
            0 => {
                let v = domain.value(rng.below(len) as u32).clone();
                if !vals.contains(&v) {
                    vals.push(v);
                }
            }
            // Drop one (keep the list non-empty).
            1 if vals.len() > 1 => {
                let i = rng.below(vals.len() as u64) as usize;
                vals.remove(i);
            }
            // Replace one.
            _ => {
                let i = rng.below(vals.len() as u64) as usize;
                vals[i] = domain.value(rng.below(len) as u32).clone();
            }
        },
    }
    Some(out)
}

/// Score a batch: model estimate via the run's estimator, truth via exact
/// evaluation. Queries the estimator rejects are dropped.
fn score_batch(
    estimator: &mut Estimator,
    db: &Database,
    queries: Vec<Query>,
    samples: usize,
    rng_seed: &mut u64,
) -> Result<Vec<MinedQuery>, WorkgenError> {
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    let requests: Vec<(&Query, usize)> = queries.iter().map(|q| (q, samples)).collect();
    let mut rngs: Vec<StdRng> = (0..queries.len())
        .map(|_| {
            *rng_seed = rng_seed.wrapping_add(1);
            StdRng::seed_from_u64(*rng_seed)
        })
        .collect();
    let estimates = estimator.estimate_batch(&requests, &mut rngs);
    let mut out = Vec::with_capacity(queries.len());
    for (q, est) in queries.into_iter().zip(estimates) {
        let Ok(estimate) = est else {
            continue; // e.g. a table the model was not trained on
        };
        let truth = evaluate_cardinality(db, &q).map_err(|e| WorkgenError::Eval(e.to_string()))?;
        out.push(MinedQuery {
            q_error: q_error(estimate, truth as f64),
            query: q,
            truth,
            estimate,
        });
    }
    Ok(out)
}

/// Keep `ranked` sorted by Q-Error descending and truncated to `cap`.
fn merge_ranked(ranked: &mut Vec<MinedQuery>, fresh: &[MinedQuery], cap: usize) {
    ranked.extend(fresh.iter().cloned());
    ranked.sort_by(|a, b| b.q_error.total_cmp(&a.q_error));
    ranked.truncate(cap);
}

/// Mine the `top_k` worst queries for `model` on `db`, climbing from
/// `seeds`.
///
/// # Errors
///
/// [`WorkgenError::Eval`] if `seeds` is empty, every seed is rejected by
/// the estimator, or truth evaluation fails.
pub fn mine_hard_queries(
    model: &FrozenModel,
    db: &Database,
    seeds: &[Query],
    config: &MinerConfig,
) -> Result<MinerReport, WorkgenError> {
    if seeds.is_empty() {
        return Err(WorkgenError::Eval("no seed queries to mine from".into()));
    }
    let domains = DomainMap::new(db);
    let mut estimator = Estimator::new(model.clone());
    let mut rng = SplitMix64::new(config.seed);
    let mut rng_seed = config.seed ^ 0x6d69_6e65_7221_7221; // estimator streams
    let mut seen: HashSet<u64> = seeds.iter().map(query_key).collect();

    let scored_seeds = score_batch(
        &mut estimator,
        db,
        seeds.to_vec(),
        config.samples,
        &mut rng_seed,
    )?;
    if scored_seeds.is_empty() {
        return Err(WorkgenError::Eval(
            "estimator rejected every seed query".into(),
        ));
    }
    let mut evaluated = scored_seeds.len() as u64;
    let baseline_mean =
        scored_seeds.iter().map(|m| m.q_error).sum::<f64>() / scored_seeds.len() as f64;
    let baseline_max = scored_seeds
        .iter()
        .map(|m| m.q_error)
        .fold(f64::NEG_INFINITY, f64::max);

    let cap = config.pool.max(config.top_k).max(1);
    let mut pool: Vec<MinedQuery> = Vec::new();
    merge_ranked(&mut pool, &scored_seeds, cap);
    let mut worst_trail = vec![pool[0].q_error];

    let mut rounds_run = 0;
    for _ in 0..config.rounds {
        let mut fresh: Vec<Query> = Vec::new();
        for survivor in &pool {
            for _ in 0..config.mutants {
                if let Some(m) = mutate(&survivor.query, &domains, &mut rng) {
                    if seen.insert(query_key(&m)) {
                        fresh.push(m);
                    }
                }
            }
        }
        if fresh.is_empty() {
            break; // mutation space exhausted around the pool
        }
        let scored = score_batch(&mut estimator, db, fresh, config.samples, &mut rng_seed)?;
        evaluated += scored.len() as u64;
        merge_ranked(&mut pool, &scored, cap);
        worst_trail.push(pool[0].q_error);
        rounds_run += 1;
    }

    let mut worst = pool;
    worst.truncate(config.top_k.max(1));
    Ok(MinerReport {
        worst,
        baseline_mean,
        baseline_max,
        worst_trail,
        evaluated,
        rounds_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SynthProfile;
    use crate::synth::{synthesize, SynthTarget};
    use sam_core::{Sam, SamConfig, TrainedSam};
    use sam_query::label_workload;
    use sam_query::workload::WorkloadGenerator;
    use sam_storage::paper_example;

    /// A small deterministic model on the Figure-3 database.
    fn tiny_model(db: &Database) -> TrainedSam {
        let stats = DatabaseStats::from_database(db);
        let mut gen = WorkloadGenerator::new(db, 7);
        let workload = label_workload(db, gen.multi_workload(24, 2)).unwrap();
        let config = SamConfig {
            model: sam_ar::ArModelConfig {
                hidden: vec![12],
                seed: 1,
                residual: false,
            },
            train: sam_ar::TrainConfig {
                epochs: 4,
                batch_size: 8,
                ..Default::default()
            },
            ..Default::default()
        };
        Sam::fit(db.schema(), &stats, &workload, &config).unwrap()
    }

    fn seeds(db: &Database, n: u64) -> Vec<Query> {
        let profile = SynthProfile {
            preds_min: 1,
            preds_max: 2,
            ..SynthProfile::default()
        };
        let target = SynthTarget::from_database(db, &profile).unwrap();
        synthesize(&target, &profile, 42, n)
    }

    #[test]
    fn mined_worst_dominates_baseline_and_is_monotone() {
        let db = paper_example::figure3_database();
        let trained = tiny_model(&db);
        let seeds = seeds(&db, 12);
        let config = MinerConfig {
            top_k: 5,
            rounds: 4,
            pool: 8,
            mutants: 3,
            samples: 16,
            seed: 9,
        };
        let report = mine_hard_queries(trained.model(), &db, &seeds, &config).unwrap();

        assert!(!report.worst.is_empty() && report.worst.len() <= 5);
        for w in report.worst.windows(2) {
            assert!(w[0].q_error >= w[1].q_error, "worst set must be sorted");
        }
        assert!(
            report.worst[0].q_error >= report.baseline_max,
            "mined worst ({}) must be at least the seed baseline ({})",
            report.worst[0].q_error,
            report.baseline_max
        );
        for w in report.worst_trail.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "worst trail must be monotone");
        }
        assert!(report.evaluated >= seeds.len() as u64);
        // Every reported query is real: truth re-evaluates identically.
        for m in &report.worst {
            assert_eq!(evaluate_cardinality(&db, &m.query).unwrap(), m.truth);
        }
    }

    #[test]
    fn mining_is_deterministic() {
        let db = paper_example::figure3_database();
        let trained = tiny_model(&db);
        let seeds = seeds(&db, 8);
        let config = MinerConfig {
            rounds: 3,
            samples: 8,
            seed: 4,
            ..MinerConfig::default()
        };
        let a = mine_hard_queries(trained.model(), &db, &seeds, &config).unwrap();
        let b = mine_hard_queries(trained.model(), &db, &seeds, &config).unwrap();
        assert_eq!(a.worst.len(), b.worst.len());
        for (x, y) in a.worst.iter().zip(&b.worst) {
            assert_eq!(x.query, y.query);
            assert_eq!(x.q_error, y.q_error);
        }
    }

    #[test]
    fn empty_seeds_error() {
        let db = paper_example::figure3_database();
        let trained = tiny_model(&db);
        let err = mine_hard_queries(trained.model(), &db, &[], &MinerConfig::default());
        assert!(matches!(err, Err(WorkgenError::Eval(_))));
    }

    #[test]
    fn mutation_stays_in_query_class() {
        let db = paper_example::figure3_database();
        let domains = DomainMap::new(&db);
        let graph = db.graph();
        let mut rng = SplitMix64::new(2);
        for (i, q) in seeds(&db, 10).iter().enumerate() {
            for _ in 0..20 {
                if let Some(m) = mutate(q, &domains, &mut rng) {
                    assert_eq!(m.tables, q.tables, "mutation must not change tables");
                    let closure = m.table_closure(graph).expect("resolves");
                    assert!(!closure.is_empty(), "seed {i} mutated out of the graph");
                    evaluate_cardinality(&db, &m).expect("mutant must stay evaluable");
                }
            }
        }
    }
}
