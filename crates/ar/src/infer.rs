//! Progressive-sampling cardinality inference (paper §4.1, Naru \[36\]).
//!
//! Hard (non-differentiable) progressive sampling from a [`FrozenModel`]:
//! per sample path, columns are drawn in autoregressive order; constrained
//! columns contribute their in-range conditional mass, fanout-scaled columns
//! contribute the sampled bin's inverse-fanout weight, and the estimate is
//! the normaliser times the mean path product. Disjunctive queries combine
//! their inclusion–exclusion terms (§2.2).
//!
//! [`Estimator`] is the one entry point: a handle on the model, the prefix
//! trie of conditionals cached by earlier calls (shared with the handle's
//! clones) and its own reusable batch-major sample state, so a trie can only
//! ever serve the model it was built with.

#![allow(clippy::needless_range_loop)]
use crate::batch::SampleBatch;
use crate::error::ArError;
use crate::model::FrozenModel;
use crate::model_schema::StepRule;
use crate::trie::PrefixTrie;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use sam_query::{DnfQuery, Query};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Draw a category from an unnormalised weight row; returns `None` if the
/// total mass is not positive.
pub(crate) fn sample_weighted(weights: &[f32], rng: &mut impl Rng) -> Option<usize> {
    let total: f32 = weights.iter().sum();
    if total <= 0.0 || total.is_nan() {
        return None;
    }
    let mut u = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        if u < w {
            return Some(i);
        }
        u -= w;
    }
    // Floating-point slack: return the last positive-weight bin.
    weights.iter().rposition(|&w| w > 0.0)
}

/// A progressive-sampling estimator bound to one model.
///
/// It holds a clone of the [`FrozenModel`] it samples from (the weights are
/// `Arc`-shared, so the clone is cheap), a prefix trie that caches each
/// visited sample-path prefix's conditionals across calls, and the
/// batch-major sample buffers every call reuses. A new model version needs a
/// new `Estimator`; nothing else invalidates the trie.
///
/// A clone is a handle on the same model and the same trie with buffers of
/// its own, so clones estimate on several threads at once and each reuses
/// what the others cached. A pass holds the trie's lock only to read a
/// column's cached conditionals and to write back the ones it computed; the
/// forward and the sampling run outside it.
///
/// What the estimator saw before never changes an answer. Conditionals are a
/// pure per-row function of the prefix, so a cached row is bit-identical to
/// a fresh forward, and each request consumes only its own RNG: an estimate
/// equals, bit for bit, the one a fresh estimator gives on the same
/// (query, samples, RNG stream). History, and passes running beside it,
/// change cost only.
pub struct Estimator {
    model: FrozenModel,
    trie: Arc<Mutex<PrefixTrie>>,
    batch: SampleBatch,
}

impl Clone for Estimator {
    fn clone(&self) -> Estimator {
        Estimator {
            model: self.model.clone(),
            trie: Arc::clone(&self.trie),
            batch: SampleBatch::new(),
        }
    }
}

impl Estimator {
    /// An estimator over `model` with nothing cached.
    pub fn new(model: FrozenModel) -> Estimator {
        Estimator {
            model,
            trie: Arc::default(),
            batch: SampleBatch::new(),
        }
    }

    /// Estimate `Card(query)` with `n_samples` progressive-sampling paths.
    pub fn estimate(
        &mut self,
        query: &Query,
        n_samples: usize,
        rng: &mut impl Rng,
    ) -> Result<f64, ArError> {
        estimate_until(
            &self.model,
            query,
            n_samples,
            rng,
            &self.trie,
            &mut self.batch,
            None,
        )
    }

    /// [`estimate`](Self::estimate), abandoned with
    /// [`ArError::DeadlineExceeded`] if `deadline` has passed at the start
    /// of a column. An abandoned pass leaves the trie holding only exact
    /// conditionals, so the estimator and its clones stay usable and later
    /// answers keep their bits.
    pub fn estimate_before(
        &mut self,
        query: &Query,
        n_samples: usize,
        rng: &mut impl Rng,
        deadline: Instant,
    ) -> Result<f64, ArError> {
        estimate_until(
            &self.model,
            query,
            n_samples,
            rng,
            &self.trie,
            &mut self.batch,
            Some(deadline),
        )
    }

    /// Estimate a disjunctive query via inclusion–exclusion (paper §2.2):
    /// each conjunction term is estimated with progressive sampling and the
    /// terms are summed with alternating signs, clamped at zero (term noise
    /// can push the sum below it).
    ///
    /// Term `k` runs on an RNG seeded by the `k`-th draw from `rng`, so its
    /// estimate is what [`estimate`](Self::estimate) returns on that stream.
    /// The terms differ only in which predicates constrain them, so their
    /// sample paths overlap, and a later term reads the conditionals an
    /// earlier one cached on the trie.
    pub fn estimate_dnf(
        &mut self,
        dnf: &DnfQuery,
        n_samples: usize,
        rng: &mut impl Rng,
    ) -> Result<f64, ArError> {
        let mut total = 0.0f64;
        for (sign, term) in dnf.inclusion_exclusion_terms() {
            let mut term_rng = StdRng::seed_from_u64(rng.gen());
            total += sign as f64 * self.estimate(&term, n_samples, &mut term_rng)?;
        }
        Ok(total.max(0.0))
    }
}

/// Benchmark-harness shim for one cold estimate; every other caller uses
/// [`Estimator::estimate`]. The harness under `benchmark/` builds against
/// this name.
#[doc(hidden)]
pub fn estimate_cardinality(
    model: &FrozenModel,
    query: &Query,
    n_samples: usize,
    rng: &mut impl Rng,
) -> Result<f64, ArError> {
    Estimator::new(model.clone()).estimate(query, n_samples, rng)
}

/// Inference counters on the global [`sam_obs::Registry`], resolved once.
/// `forwards` counts column forwards, `requests`/`batch_rows` the passes
/// (one request each) and their sample paths, `dedup_hits` the rows that
/// skipped their forward row because an earlier row of the pass sat on the
/// same uncached trie node (off-trie rows never merge), and `trie_hits` the
/// rows served from conditionals an *earlier* pass, on the estimator or a
/// clone, cached on their trie.
struct ObsCounters {
    forwards: std::sync::Arc<sam_obs::Counter>,
    requests: std::sync::Arc<sam_obs::Counter>,
    batch_rows: std::sync::Arc<sam_obs::Counter>,
    dedup_hits: std::sync::Arc<sam_obs::Counter>,
    trie_hits: std::sync::Arc<sam_obs::Counter>,
}

fn obs_counters() -> &'static ObsCounters {
    static COUNTERS: std::sync::OnceLock<ObsCounters> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| ObsCounters {
        forwards: sam_obs::counter("sam_forward_total"),
        requests: sam_obs::counter("sam_estimate_requests_total"),
        batch_rows: sam_obs::counter("sam_estimate_batch_rows_total"),
        dedup_hits: sam_obs::counter("sam_dedup_hits_total"),
        trie_hits: sam_obs::counter("sam_trie_hits_total"),
    })
}

/// Estimates for `requests`, `rngs[j]` driving request `j`, one pass each
/// on a trie of the caller's: `trie` and `batch` must belong to `model`.
/// Public only because the harness under `benchmark/` builds against this
/// name with parts it keeps itself; every other caller uses [`Estimator`].
#[doc(hidden)]
pub fn estimate_cardinality_batch_with<R: Rng>(
    model: &FrozenModel,
    requests: &[(&Query, usize)],
    rngs: &mut [R],
    trie: &mut PrefixTrie,
    batch: &mut SampleBatch,
) -> Vec<Result<f64, ArError>> {
    let shared = Mutex::new(std::mem::take(trie));
    let results = requests
        .iter()
        .zip(rngs)
        .map(|(&(query, n_samples), rng)| {
            estimate_until(model, query, n_samples, rng, &shared, batch, None)
        })
        .collect();
    *trie = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
    results
}

/// The trie, also after a pass that panicked while holding it: every write
/// is a whole `child` or `set_probs` call, so it holds exact conditionals
/// only, whatever the panicking pass was doing.
fn lock(trie: &Mutex<PrefixTrie>) -> MutexGuard<'_, PrefixTrie> {
    trie.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One progressive-sampling pass over `n_samples` paths of `query`, with an
/// optional deadline checked before each column: once it has passed, the
/// pass ends with [`ArError::DeadlineExceeded`]. Conditionals reach the
/// trie only from a finished forward, so an abandoned pass leaves none
/// half-written.
fn estimate_until(
    model: &FrozenModel,
    query: &Query,
    n_samples: usize,
    rng: &mut impl Rng,
    trie: &Mutex<PrefixTrie>,
    batch: &mut SampleBatch,
    deadline: Option<Instant>,
) -> Result<f64, ArError> {
    let rules = model.schema.query_rules(query)?;
    let rows = n_samples.max(1);
    let obs = obs_counters();
    obs.requests.inc();
    obs.batch_rows.add(rows as u64);
    batch.reset(model, rows);
    // A constrained step's in-range conditional, reused across rows.
    let mut masked: Vec<f32> = Vec::new();

    for i in 0..model.net.num_columns() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(ArError::DeadlineExceeded);
        }
        // Paths with identical code prefixes sit on the same trie node and
        // have identical carried first-layer sums (the same codes added in
        // the same order), hence identical conditionals: the forward pass
        // runs on distinct *uncached* nodes (and on paths off a full trie)
        // only, selected by a batch row mask. A query's paths all start at
        // the root and overlap for several columns; prefixes cached by
        // earlier passes on the trie skip the forward entirely. Values are unchanged either way: each path reads the
        // same conditionals a per-path forward would give. The trie is
        // locked only to classify and to descend; passes on clones forward
        // and sample side by side in between.
        let d = model.net.domain_size(i);
        let summary = batch.classify_column(&lock(trie));
        obs.dedup_hits.add(summary.dedup_hits);
        obs.trie_hits.add(summary.cached_hits);
        if !summary.any_live {
            // Every path died on an empty range; the estimate is 0.
            break;
        }
        if summary.fresh_rows > 0 {
            obs.forwards.inc();
            batch.forward_fresh(model, i);
        }

        for r in 0..rows {
            if !batch.is_live(r) {
                continue;
            }
            let code = match &rules[i] {
                StepRule::Free => sample_weighted(batch.p_row(r, d), rng).unwrap_or(0),
                StepRule::InRange(frac) => {
                    masked.clear();
                    masked.extend(batch.p_row(r, d).iter().zip(frac).map(|(p, f)| p * f));
                    let mass: f32 = masked.iter().sum();
                    batch.scale_factor(r, mass as f64);
                    match sample_weighted(&masked, rng) {
                        Some(c) => c,
                        None => {
                            batch.kill(r);
                            continue;
                        }
                    }
                }
                StepRule::WeightBySampled(w) => {
                    let code = sample_weighted(batch.p_row(r, d), rng).unwrap_or(0);
                    batch.scale_factor(r, w[code] as f64);
                    code
                }
            };
            batch.advance(model, i, r, code as u32);
        }
        batch.descend(&mut lock(trie), d);
    }

    Ok(batch.mean_factor() * model.schema.normalizer())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ArModel, ArModelConfig};
    use crate::model_schema::{ArSchema, EncodingOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sam_query::{CompareOp, Predicate, Query};
    use sam_storage::{paper_example, DatabaseStats, Value};

    fn figure3_model() -> FrozenModel {
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        let schema =
            ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        ArModel::new(schema, &ArModelConfig::default()).freeze()
    }

    #[test]
    fn sample_weighted_respects_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = [0.0f32, 0.7, 0.3];
        let mut counts = [0usize; 3];
        for _ in 0..5000 {
            counts[sample_weighted(&w, &mut rng).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let f1 = counts[1] as f32 / 5000.0;
        assert!((f1 - 0.7).abs() < 0.03, "freq {f1}");
    }

    #[test]
    fn sample_weighted_zero_mass() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_weighted(&[0.0, 0.0], &mut rng), None);
    }

    #[test]
    fn untrained_model_estimates_unfiltered_query_as_normalizer() {
        // With no predicates on a single relation, every path factor is 1, so
        // the estimate must equal |T| regardless of weights.
        let db = paper_example::figure3_database();
        let single = sam_storage::Database::single(db.table_by_name("A").unwrap().clone());
        let stats = DatabaseStats::from_database(&single);
        let schema =
            ArSchema::build(single.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        let model = ArModel::new(schema, &ArModelConfig::default()).freeze();
        let mut rng = StdRng::seed_from_u64(2);
        let est = Estimator::new(model)
            .estimate(&Query::single("A", vec![]), 32, &mut rng)
            .unwrap();
        assert!((est - 4.0).abs() < 1e-3);
    }

    #[test]
    fn dnf_estimate_is_the_signed_sum_of_its_terms() {
        let model = figure3_model();
        let scope = || vec!["A".to_string(), "B".to_string()];
        let dnf = DnfQuery::new(vec![
            Query::join(
                scope(),
                vec![Predicate::compare("A", "a", CompareOp::Eq, Value::str("m"))],
            ),
            Query::join(
                scope(),
                vec![Predicate::compare("B", "b", CompareOp::Le, Value::str("b"))],
            ),
        ])
        .unwrap();

        let got = Estimator::new(model.clone())
            .estimate_dnf(&dnf, 32, &mut StdRng::seed_from_u64(11))
            .unwrap();

        // The same terms one at a time, each on the seed the caller's RNG
        // hands out in term order.
        let mut seeds = StdRng::seed_from_u64(11);
        let mut alone = Estimator::new(model);
        let mut total = 0.0f64;
        for (sign, term) in dnf.inclusion_exclusion_terms() {
            let mut rng = StdRng::seed_from_u64(seeds.gen());
            total += sign as f64 * alone.estimate(&term, 32, &mut rng).unwrap();
        }
        assert_eq!(got.to_bits(), total.max(0.0).to_bits());
    }

    #[test]
    fn capped_trie_falls_back_without_changing_estimates() {
        // A two-node trie sends almost every path off the trie, where each
        // takes a forward row of its own, as at the node cap of a
        // long-running server.
        let model = figure3_model();
        let queries = [
            Query::join(vec!["A".into(), "B".into(), "C".into()], vec![]),
            Query::join(
                vec!["A".into(), "B".into()],
                vec![Predicate::compare("A", "a", CompareOp::Eq, Value::str("n"))],
            ),
        ];

        let mut capped = Estimator {
            model: model.clone(),
            trie: Arc::new(Mutex::new(PrefixTrie::with_node_cap(2))),
            batch: SampleBatch::new(),
        };
        let mut default = Estimator::new(model);
        // Twice each: the second round runs on whatever the first cached.
        for _ in 0..2 {
            for (q, seed) in queries.iter().zip(5..) {
                let a = capped.estimate(q, 24, &mut StdRng::seed_from_u64(seed));
                let b = default.estimate(q, 24, &mut StdRng::seed_from_u64(seed));
                let (a, b) = (a.unwrap(), b.unwrap());
                assert_eq!(a.to_bits(), b.to_bits(), "capped trie changed an estimate");
            }
        }
    }

    #[test]
    fn abandoned_passes_leave_later_estimates_bit_identical() {
        let model = figure3_model();
        let q = Query::join(vec!["A".into(), "B".into(), "C".into()], vec![]);
        let mut abandoned = Estimator::new(model.clone());
        let passed = Instant::now();
        assert!(matches!(
            abandoned.estimate_before(&q, 64, &mut StdRng::seed_from_u64(1), passed),
            Err(ArError::DeadlineExceeded)
        ));
        // Deadlines that fall somewhere inside a pass, abandoning it at
        // whichever column the clock reaches first.
        for micros in [5u64, 20, 80, 320, 1_280] {
            let deadline = Instant::now() + std::time::Duration::from_micros(micros);
            let _ =
                abandoned.estimate_before(&q, 4_096, &mut StdRng::seed_from_u64(micros), deadline);
        }
        let mut fresh = Estimator::new(model);
        for seed in 0..4 {
            let a = abandoned.estimate(&q, 256, &mut StdRng::seed_from_u64(seed));
            let b = fresh.estimate(&q, 256, &mut StdRng::seed_from_u64(seed));
            assert_eq!(a.unwrap().to_bits(), b.unwrap().to_bits(), "seed {seed}");
        }
    }

    /// Clones of one estimator on two threads, on a trie that fills after
    /// a few passes: every answer has the bits of a lone fresh estimator.
    #[test]
    fn clones_on_two_threads_answer_with_a_lone_estimators_bits() {
        let model = figure3_model();
        let queries = [
            Query::join(vec!["A".into(), "B".into(), "C".into()], vec![]),
            Query::join(
                vec!["A".into(), "B".into()],
                vec![Predicate::compare("A", "a", CompareOp::Eq, Value::str("n"))],
            ),
            Query::single("A", vec![]),
            Query::join(
                vec!["A".into(), "B".into(), "C".into()],
                vec![Predicate::compare("B", "b", CompareOp::Le, Value::str("b"))],
            ),
        ];
        let request = |k: usize| (&queries[k % queries.len()], 16 + k % 40, k as u64);
        let lone = |k: usize| {
            let (q, n, seed) = request(k);
            Estimator::new(model.clone())
                .estimate(q, n, &mut StdRng::seed_from_u64(seed))
                .unwrap()
                .to_bits()
        };
        let shared = Estimator {
            model: model.clone(),
            trie: Arc::new(Mutex::new(PrefixTrie::with_node_cap(64))),
            batch: SampleBatch::new(),
        };
        std::thread::scope(|scope| {
            for t in 0..2 {
                let mut clone = shared.clone();
                scope.spawn(move || {
                    for k in (t..96).step_by(2) {
                        let (q, n, seed) = request(k);
                        let got = clone.estimate(q, n, &mut StdRng::seed_from_u64(seed));
                        assert_eq!(got.unwrap().to_bits(), lone(k), "request {k}");
                    }
                });
            }
        });
        assert_eq!(shared.trie.lock().unwrap().len(), 64, "the trie filled");
    }

    /// A clone whose pass panics (a network whose column domains are not
    /// its schema's, so a sampled code indexes past a fanout weight row)
    /// leaves the shared trie serving every later pass with the same bits.
    #[test]
    fn a_panicked_pass_leaves_its_clones_estimates_bit_identical() {
        use sam_storage::{ColumnDef, DataType, Database, Table, TableSchema};
        let columns = (0..7)
            .map(|c| ColumnDef::content(format!("c{c}"), DataType::Int))
            .collect();
        let rows: Vec<Vec<Value>> = (0..64i64)
            .map(|r| (0..7).map(|_| Value::Int(r % 50)).collect())
            .collect();
        let wide =
            Database::single(Table::from_rows(TableSchema::new("W", columns), &rows).unwrap());
        let stats = DatabaseStats::from_database(&wide);
        let wide_schema =
            ArSchema::build(wide.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        let config = ArModelConfig {
            hidden: vec![16],
            seed: 1,
            residual: false,
        };
        let broken = FrozenModel {
            schema: figure3_model().schema,
            net: ArModel::new(wide_schema, &config).freeze().net,
        };
        // `A` alone scales by the fanouts of `B` and `C`; the full join
        // does not.
        let scaled = Query::single("A", vec![]);
        let join = Query::join(vec!["A".into(), "B".into(), "C".into()], vec![]);

        let shared = Estimator::new(broken.clone());
        let mut panicking = shared.clone();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            panicking.estimate(&scaled, 64, &mut StdRng::seed_from_u64(1))
        }));
        assert!(panicked.is_err(), "the mismatched network must panic");
        drop(panicking);
        assert!(
            shared.trie.lock().unwrap().len() > 1,
            "the pass cached nodes"
        );

        let mut later = shared.clone();
        let mut fresh = Estimator::new(broken);
        for seed in 0..4 {
            let a = later.estimate(&join, 64, &mut StdRng::seed_from_u64(seed));
            let b = fresh.estimate(&join, 64, &mut StdRng::seed_from_u64(seed));
            assert_eq!(a.unwrap().to_bits(), b.unwrap().to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn join_estimate_is_bounded_by_foj_size() {
        // For any join query the per-path factor is ≤ 1, so the estimate is
        // ≤ |FOJ| even untrained.
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        let schema =
            ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        let model = ArModel::new(schema, &ArModelConfig::default()).freeze();
        let mut rng = StdRng::seed_from_u64(5);
        let q = Query::join(vec!["A".into(), "B".into(), "C".into()], vec![]);
        let est = Estimator::new(model).estimate(&q, 64, &mut rng).unwrap();
        assert!(est <= 8.0 + 1e-6);
        assert!(est >= 0.0);
    }
}
