//! Backward-compatibility lock for the model checkpoint format: a
//! version-1 file (written before the weight-layout section existed) must
//! keep loading, land on the `f32` kernel, and drive estimation
//! and sampling exactly as it did when written.
//!
//! The fixture was generated by `examples/gen_persist_fixture.rs` while the
//! format was at v1 and is committed verbatim — never regenerate it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sam_ar::{load_model, save_model, Estimator};
use sam_query::Query;

const V1_FIXTURE: &str = include_str!("fixtures/model_v1.json");

#[test]
fn v1_checkpoint_loads_on_reference_backend() {
    assert!(V1_FIXTURE.contains("\"version\":1"));
    assert!(!V1_FIXTURE.contains("\"layout\""));
    let (model, db_schema) = load_model(V1_FIXTURE).expect("v1 checkpoint must keep loading");
    assert_eq!(db_schema.tables().len(), 3);

    // The fixture model is usable end to end: estimation is finite,
    // bounded by the full-outer-join size, and deterministic per seed, and
    // sampling produces the requested rows.
    let q = Query::join(vec!["A".into(), "B".into(), "C".into()], vec![]);
    let est = Estimator::new(model.clone())
        .estimate(&q, 32, &mut StdRng::seed_from_u64(2))
        .unwrap();
    assert!(
        est.is_finite() && (0.0..=8.0 + 1e-6).contains(&est),
        "estimate {est}"
    );
    let again = Estimator::new(model.clone())
        .estimate(&q, 32, &mut StdRng::seed_from_u64(2))
        .unwrap();
    assert_eq!(est, again);
    let rows = sam_ar::sample::sample_model_rows(&model, 16, 8, 9);
    assert_eq!(rows.len(), 16);
}

#[test]
fn v1_checkpoint_resaves_as_current_version() {
    let (model, db_schema) = load_model(V1_FIXTURE).unwrap();
    let json = save_model(&model, &db_schema);
    assert!(json.contains("\"version\":2"));
    assert!(json.contains("\"weights\":\"f32\""));
    let (reloaded, _) = load_model(&json).unwrap();

    // Upgrading the container format must not perturb the weights: the
    // re-saved model estimates bit-identically to the v1 original.
    let q = Query::join(vec!["A".into(), "B".into()], vec![]);
    let a = Estimator::new(model)
        .estimate(&q, 64, &mut StdRng::seed_from_u64(1))
        .unwrap();
    let b = Estimator::new(reloaded)
        .estimate(&q, 64, &mut StdRng::seed_from_u64(1))
        .unwrap();
    assert_eq!(a, b);
}
