//! Progressive-sampling cardinality inference (paper §4.1, Naru \[36\]).
//!
//! Hard (non-differentiable) progressive sampling from a [`FrozenModel`]:
//! per sample path, columns are drawn in autoregressive order; constrained
//! columns contribute their in-range conditional mass, fanout-scaled columns
//! contribute the sampled bin's inverse-fanout weight, and the estimate is
//! the normaliser times the mean path product. Disjunctive queries combine
//! their inclusion–exclusion terms (§2.2).
//!
//! [`Estimator`] is the one entry point: it owns the model, the prefix trie
//! of conditionals cached by earlier calls and the reusable batch-major
//! sample state, so a trie can only ever serve the model it was built with.

#![allow(clippy::needless_range_loop)]
use crate::batch::SampleBatch;
use crate::error::ArError;
use crate::model::FrozenModel;
use crate::model_schema::StepRule;
use crate::trie::PrefixTrie;
use rand::Rng;
use rand::SeedableRng;
use sam_query::{DnfQuery, Query};
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
/// It owns a clone of the [`FrozenModel`] it samples from (the weights are
/// `Arc`-shared, so the clone is cheap), a prefix trie that caches each
/// visited sample-path prefix's conditionals across calls, and the
/// batch-major sample buffers every call reuses. A new model version needs a
/// new `Estimator`; nothing else invalidates the trie.
///
/// What the estimator saw before never changes an answer. Conditionals are a
/// pure per-row function of the prefix, so a cached row is bit-identical to
/// a fresh forward, and each request consumes only its own RNG: an estimate
/// equals, bit for bit, the one a fresh estimator gives on the same
/// (query, samples, RNG stream). History changes cost only.
pub struct Estimator {
    model: FrozenModel,
    trie: PrefixTrie,
    batch: SampleBatch,
}

impl Estimator {
    /// An estimator over `model` with nothing cached.
    pub fn new(model: FrozenModel) -> Estimator {
        Estimator {
            model,
            trie: PrefixTrie::new(),
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
        self.estimate_batch(&[(query, n_samples)], std::slice::from_mut(rng))
            .pop()
            .expect("exactly one result for one request")
    }

    /// [`estimate`](Self::estimate), abandoned with
    /// [`ArError::DeadlineExceeded`] if `deadline` has passed at the start
    /// of a column. An abandoned pass leaves the trie holding only exact
    /// conditionals, so the estimator stays usable and later answers keep
    /// their bits.
    pub fn estimate_before(
        &mut self,
        query: &Query,
        n_samples: usize,
        rng: &mut impl Rng,
        deadline: Instant,
    ) -> Result<f64, ArError> {
        estimate_batch_until(
            &self.model,
            &[(query, n_samples)],
            std::slice::from_mut(rng),
            &mut self.trie,
            &mut self.batch,
            Some(deadline),
        )
        .pop()
        .expect("exactly one result for one request")
    }

    /// Estimate several queries in one batch, sharing each column's
    /// forward pass across every request's sample paths.
    ///
    /// `rngs[j]` drives request `j` alone, and rows are visited per request
    /// in ascending order within each column, so every request consumes its
    /// RNG stream exactly as a lone [`estimate`](Self::estimate) call would
    /// and the estimates are bit-identical to sequential ones. The forward pass is row-independent, so
    /// stacking requests changes throughput, not values.
    ///
    /// Requests whose predicates fail to resolve against the model schema
    /// get their own `Err` slot without affecting the rest of the batch.
    pub fn estimate_batch<R: Rng>(
        &mut self,
        requests: &[(&Query, usize)],
        rngs: &mut [R],
    ) -> Vec<Result<f64, ArError>> {
        estimate_cardinality_batch_with(
            &self.model,
            requests,
            rngs,
            &mut self.trie,
            &mut self.batch,
        )
    }

    /// Estimate a disjunctive query via inclusion–exclusion (paper §2.2):
    /// each conjunction term is estimated with progressive sampling and the
    /// terms are summed with alternating signs, clamped at zero (term noise
    /// can push the sum below it).
    ///
    /// Term `k` runs on an RNG seeded by the `k`-th draw from `rng`, so its
    /// estimate is what [`estimate`](Self::estimate) returns on that stream.
    /// All terms go through one batch: they differ only in which predicates
    /// constrain them, so their sample paths overlap and share forward rows.
    pub fn estimate_dnf(
        &mut self,
        dnf: &DnfQuery,
        n_samples: usize,
        rng: &mut impl Rng,
    ) -> Result<f64, ArError> {
        let terms = dnf.inclusion_exclusion_terms();
        let mut rngs: Vec<rand::rngs::StdRng> = terms
            .iter()
            .map(|_| rand::rngs::StdRng::seed_from_u64(rng.gen()))
            .collect();
        let requests: Vec<(&Query, usize)> = terms.iter().map(|(_, q)| (q, n_samples)).collect();
        let mut total = 0.0f64;
        for ((sign, _), est) in terms.iter().zip(self.estimate_batch(&requests, &mut rngs)) {
            total += *sign as f64 * est?;
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
/// `forwards` counts column forwards, `requests`/`batch_rows` the requests
/// and sample paths of each pass, `dedup_hits` the rows that skipped their
/// forward row because an earlier row of the pass sat on the same uncached
/// trie node (off-trie rows never merge), and `trie_hits` the rows served
/// from conditionals a *previous* batch cached on the estimator's trie.
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

/// Per-request state of one sampling pass: resolved step rules plus the
/// request's row window inside the stacked sample batch.
struct BatchSlot {
    request: usize,
    rules: Vec<StepRule>,
    start: usize,
    rows: usize,
}

/// The progressive-sampling loop behind [`Estimator::estimate_batch`]:
/// `trie` and `batch` must belong to `model` (the estimator guarantees it).
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
    estimate_batch_until(model, requests, rngs, trie, batch, None)
}

/// [`estimate_cardinality_batch_with`] with an optional deadline, checked
/// before each column: once it has passed, every request still sampling
/// gets [`ArError::DeadlineExceeded`]. Conditionals reach the trie only
/// from a finished forward, so the abandoned pass leaves none half-written.
fn estimate_batch_until<R: Rng>(
    model: &FrozenModel,
    requests: &[(&Query, usize)],
    rngs: &mut [R],
    trie: &mut PrefixTrie,
    batch: &mut SampleBatch,
    deadline: Option<Instant>,
) -> Vec<Result<f64, ArError>> {
    assert_eq!(
        requests.len(),
        rngs.len(),
        "one RNG per batched request (got {} requests, {} rngs)",
        requests.len(),
        rngs.len()
    );
    let n_cols = model.net.num_columns();

    let mut results: Vec<Option<Result<f64, ArError>>> = Vec::with_capacity(requests.len());
    let mut slots: Vec<BatchSlot> = Vec::with_capacity(requests.len());
    let mut total_rows = 0usize;
    for (request, (query, n_samples)) in requests.iter().enumerate() {
        match model.schema.query_rules(query) {
            Ok(rules) => {
                let rows = (*n_samples).max(1);
                slots.push(BatchSlot {
                    request,
                    rules,
                    start: total_rows,
                    rows,
                });
                total_rows += rows;
                results.push(None);
            }
            Err(e) => results.push(Some(Err(e))),
        }
    }

    if !slots.is_empty() {
        let obs = obs_counters();
        obs.requests.add(slots.len() as u64);
        obs.batch_rows.add(total_rows as u64);
        batch.reset(model, total_rows);
        // A constrained step's in-range conditional, reused across rows.
        let mut masked: Vec<f32> = Vec::new();
        let mut expired = false;

        for i in 0..n_cols {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                expired = true;
                break;
            }
            // Paths with identical code prefixes sit on the same trie node
            // and have identical carried first-layer sums (the same codes
            // added in the same order), hence identical conditionals: the
            // forward pass runs on distinct *uncached* nodes (and on paths
            // off a full trie) only, selected by a batch row mask. Requests
            // batched together share prefixes (every path starts empty;
            // similar queries stay overlapped for several columns), and
            // prefixes cached by earlier batches on the trie skip the
            // forward entirely. Values are unchanged either way: each path
            // reads the same conditionals a per-path forward would give.
            let summary = batch.begin_column(model, i, trie);
            obs.dedup_hits.add(summary.dedup_hits);
            obs.trie_hits.add(summary.cached_hits);
            if summary.fresh_rows > 0 {
                obs.forwards.inc();
            }
            if !summary.any_live {
                // Every path died on an empty range; all estimates are 0.
                break;
            }

            let d = model.net.domain_size(i);
            for slot in &slots {
                let rng = &mut rngs[slot.request];
                for r in slot.start..slot.start + slot.rows {
                    if !batch.is_live(r) {
                        continue;
                    }
                    let code = match &slot.rules[i] {
                        StepRule::Free => {
                            sample_weighted(batch.p_row(trie, r, d), rng).unwrap_or(0)
                        }
                        StepRule::InRange(frac) => {
                            masked.clear();
                            masked.extend(
                                batch.p_row(trie, r, d).iter().zip(frac).map(|(p, f)| p * f),
                            );
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
                            let code = sample_weighted(batch.p_row(trie, r, d), rng).unwrap_or(0);
                            batch.scale_factor(r, w[code] as f64);
                            code
                        }
                    };
                    batch.advance(trie, model, i, r, code as u32);
                }
            }
        }

        for slot in &slots {
            results[slot.request] = Some(if expired {
                Err(ArError::DeadlineExceeded)
            } else {
                Ok(batch.mean_factor(slot.start, slot.rows) * model.schema.normalizer())
            });
        }
    }

    results
        .into_iter()
        .map(|r| r.expect("every request resolved to a result"))
        .collect()
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
    fn batched_estimates_are_bit_identical_to_sequential() {
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        let schema =
            ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        let model = ArModel::new(schema, &ArModelConfig::default()).freeze();

        let queries = [
            Query::join(vec!["A".into(), "B".into()], vec![]),
            Query::join(vec!["A".into(), "B".into(), "C".into()], vec![]),
            Query::single("A", vec![]),
        ];
        let counts = [16usize, 48, 7];
        let seeds = [101u64, 7, 3];

        let sequential: Vec<f64> = queries
            .iter()
            .zip(counts)
            .zip(seeds)
            .map(|((q, n), s)| {
                let mut rng = StdRng::seed_from_u64(s);
                Estimator::new(model.clone())
                    .estimate(q, n, &mut rng)
                    .unwrap()
            })
            .collect();

        let requests: Vec<(&Query, usize)> = queries.iter().zip(counts).collect();
        let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        let batched = Estimator::new(model).estimate_batch(&requests, &mut rngs);

        for (seq, got) in sequential.iter().zip(&batched) {
            let got = *got.as_ref().unwrap();
            assert_eq!(*seq, got, "batched estimate diverged from sequential");
        }
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
        let requests: Vec<(&Query, usize)> = queries.iter().map(|q| (q, 24)).collect();
        let rngs = || -> Vec<StdRng> { (5..7).map(StdRng::seed_from_u64).collect() };

        let mut capped = Estimator {
            model: model.clone(),
            trie: PrefixTrie::with_node_cap(2),
            batch: SampleBatch::new(),
        };
        let mut default = Estimator::new(model);
        // Twice each: the second round runs on whatever the first cached.
        for _ in 0..2 {
            let a = capped.estimate_batch(&requests, &mut rngs());
            let b = default.estimate_batch(&requests, &mut rngs());
            for (a, b) in a.iter().zip(&b) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
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

    #[test]
    fn batched_estimate_isolates_bad_requests() {
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        let schema =
            ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        let model = ArModel::new(schema, &ArModelConfig::default()).freeze();

        let good = Query::single("A", vec![]);
        let bad = Query::single("no_such_table", vec![]);
        let requests = vec![(&good, 8usize), (&bad, 8usize), (&good, 8usize)];
        let mut rngs: Vec<StdRng> = (0..3).map(StdRng::seed_from_u64).collect();
        let out = Estimator::new(model).estimate_batch(&requests, &mut rngs);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
        assert!(out[2].is_ok());
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
