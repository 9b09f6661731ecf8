//! End-to-end Q-Error parity between the quantised `Int8Blocked` kernel
//! and the `ReferenceF32` baseline on the committed fixture model.
//!
//! Per-block int8 quantisation perturbs logits by at most ~1e-1 relative
//! (see the `backend_parity` proptest in `sam-nn`), which can flip a few
//! discrete sampling choices — but the progressive-sampling estimate must
//! stay within a small Q-Error of the full-precision run, or the fast
//! kernel is not a drop-in replacement for estimation workloads.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sam_ar::{load_model, Estimator};
use sam_nn::BackendKind;
use sam_query::Query;

const V1_FIXTURE: &str = include_str!("fixtures/model_v1.json");

/// Q-Error between two positive estimates: max(a/b, b/a). Estimates of 0
/// on both sides count as perfect parity; 0 on one side only is maximal.
fn q_error(a: f64, b: f64) -> f64 {
    if a == 0.0 && b == 0.0 {
        1.0
    } else if a == 0.0 || b == 0.0 {
        f64::INFINITY
    } else {
        (a / b).max(b / a)
    }
}

#[test]
fn int8_estimates_match_f32_within_q_error_bound() {
    let (f32_model, _) = load_model(V1_FIXTURE).unwrap();
    let int8_model = load_model(V1_FIXTURE)
        .unwrap()
        .0
        .with_backend(BackendKind::Int8Blocked);
    assert_eq!(int8_model.backend_kind(), BackendKind::Int8Blocked);
    let mut full_estimator = Estimator::new(f32_model);
    let mut quant_estimator = Estimator::new(int8_model);

    let queries = [
        Query::join(vec!["A".into()], vec![]),
        Query::join(vec!["A".into(), "B".into()], vec![]),
        Query::join(vec!["A".into(), "B".into(), "C".into()], vec![]),
    ];
    for (qi, q) in queries.iter().enumerate() {
        for seed in [1u64, 7, 42] {
            let full = full_estimator
                .estimate(q, 128, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            let quant = quant_estimator
                .estimate(q, 128, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            let qe = q_error(full, quant);
            assert!(
                qe <= 1.25,
                "query {qi} seed {seed}: f32 {full} vs int8 {quant} (q-error {qe})"
            );
        }
    }
}

#[test]
fn int8_estimates_are_deterministic_per_seed() {
    let model = load_model(V1_FIXTURE)
        .unwrap()
        .0
        .with_backend(BackendKind::Int8Blocked);
    let q = Query::join(vec!["A".into(), "B".into()], vec![]);
    let a = Estimator::new(model.clone())
        .estimate(&q, 64, &mut StdRng::seed_from_u64(3))
        .unwrap();
    let b = Estimator::new(model)
        .estimate(&q, 64, &mut StdRng::seed_from_u64(3))
        .unwrap();
    assert_eq!(a, b);
}
