//! Acceptance test for the observability layer: a traced train + generate
//! run must produce a valid Chrome trace with one span per training epoch
//! and one per generation stage.
//!
//! Kept in its own test binary: the trace collector is process-global, and
//! this test must see exactly the spans of its own run.

use sam::prelude::*;
use sam::storage::paper_example;
use serde_json::Value as Json;

const EPOCHS: usize = 5;

#[test]
fn traced_run_covers_every_epoch_and_generation_stage() {
    let db = paper_example::figure3_database();
    let stats = DatabaseStats::from_database(&db);
    let mut gen = WorkloadGenerator::new(&db, 21);
    let workload = label_workload(&db, gen.multi_workload(16, 2)).unwrap();
    let config = SamConfig {
        model: ArModelConfig {
            hidden: vec![12],
            seed: 2,
            residual: false,
        },
        train: TrainConfig {
            epochs: EPOCHS,
            batch_size: 8,
            ..Default::default()
        },
        ..Default::default()
    };

    sam::obs::enable_tracing();
    let trained = Sam::fit(db.schema(), &stats, &workload, &config).unwrap();
    let (generated, _) = trained
        .generate(&GenerationConfig {
            foj_samples: 200,
            batch: 64,
            seed: 3,
            strategy: JoinKeyStrategy::GroupAndMerge,
        })
        .unwrap();
    sam::obs::disable_tracing();
    assert_eq!(generated.tables().len(), 3);

    let trace = sam::obs::take_chrome_trace();
    let doc = serde_json::parse_value(&trace).expect("trace is valid JSON");
    let events = doc.as_array().expect("trace is a JSON array");
    assert!(!events.is_empty(), "traced run must emit events");

    let count = |name: &str| {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .count()
    };
    assert_eq!(count("train"), 1, "one span for the training run");
    assert_eq!(count("epoch"), EPOCHS, "one span per training epoch");
    assert_eq!(count("generate"), 1, "one span for the generation run");
    for stage in ["sample", "weight", "scale", "group_merge", "assemble"] {
        assert_eq!(count(stage), 1, "one span for generation stage {stage}");
    }

    // Every complete event carries the fields Chrome/Perfetto require.
    for e in events {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("ts").and_then(Json::as_u64).is_some());
        assert!(e.get("dur").and_then(Json::as_u64).is_some());
        assert!(e.get("pid").and_then(Json::as_u64).is_some());
        assert!(e.get("tid").and_then(Json::as_u64).is_some());
    }

    // Epoch spans carry their epoch index as an arg, 0..EPOCHS.
    let mut epochs: Vec<u64> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("epoch"))
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("epoch"))
                .and_then(Json::as_str)
                .expect("epoch arg")
                .parse()
                .expect("numeric epoch")
        })
        .collect();
    epochs.sort_unstable();
    assert_eq!(epochs, (0..EPOCHS as u64).collect::<Vec<_>>());
}
