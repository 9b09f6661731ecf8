//! End-to-end: synthesize a trace, stand up a real `sam-serve`, replay the
//! trace open-loop, and check the latency report.

use sam_core::{Sam, SamConfig, TrainedSam};
use sam_query::{label_workload, WorkloadGenerator};
use sam_serve::{ServeConfig, Server};
use sam_storage::{paper_example, Database, DatabaseStats};
use sam_workgen::{run_load, synthesize, LoadConfig, SynthProfile, SynthTarget};
use std::time::Duration;

fn tiny_model(db: &Database) -> TrainedSam {
    let stats = DatabaseStats::from_database(db);
    let mut gen = WorkloadGenerator::new(db, 7);
    let workload = label_workload(db, gen.multi_workload(24, 2)).unwrap();
    let config = SamConfig {
        model: sam_ar::ArModelConfig {
            hidden: vec![12],
            seed: 3,
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

#[test]
fn open_loop_replay_reports_finite_latency_and_no_5xx() {
    let db = paper_example::figure3_database();
    let server = Server::start(ServeConfig::default()).expect("server starts");
    server.registry().insert("demo", tiny_model(&db));

    let profile = SynthProfile {
        preds_min: 1,
        preds_max: 2,
        ..SynthProfile::default()
    };
    let target = SynthTarget::from_database(&db, &profile).unwrap();
    let trace = synthesize(&target, &profile, 17, 24);
    assert!(!trace.is_empty());

    let config = LoadConfig {
        addr: server.addr().to_string(),
        model: "demo".to_string(),
        rate: 120.0,
        connections: 3,
        duration: Duration::from_millis(1200),
        samples: 16,
        timeout_ms: 5_000,
    };
    let report = run_load(&trace, &config).expect("load run completes");

    assert!(report.completed > 0, "some requests must complete");
    assert_eq!(report.status_5xx, 0, "no server errors under modest load");
    assert_eq!(
        report.completed,
        report.status_2xx + report.status_4xx + report.status_5xx
    );
    assert_eq!(report.status_4xx, 0, "all trace queries are valid");
    assert_eq!(report.latency.count, report.completed);
    assert!(
        report.latency.p99_ms.is_finite() && report.latency.p99_ms > 0.0,
        "p99 must be a real number, got {}",
        report.latency.p99_ms
    );
    assert!(report.latency.p50_ms <= report.latency.p99_ms + 1e-9);
    assert!(report.throughput > 0.0);
    // The server side must have seen exactly the completed estimates.
    assert!(server.metrics().estimates_ok.get() >= report.status_2xx);

    // The markdown row renders with real numbers (EXPERIMENTS.md format).
    let row = report.markdown_row();
    assert_eq!(
        row.matches('|').count(),
        sam_workgen::LoadReport::markdown_header()
            .lines()
            .next()
            .unwrap()
            .matches('|')
            .count()
    );

    server.shutdown();
}

#[test]
fn overload_shows_up_as_queueing_latency_not_lost_requests() {
    // One connection at an offered rate the tiny server can absorb, but with
    // a schedule long enough that scheduled-time accounting matters: all
    // requests complete and every latency is measured from its slot.
    let db = paper_example::figure3_database();
    let server = Server::start(ServeConfig::default()).expect("server starts");
    server.registry().insert("demo", tiny_model(&db));

    let profile = SynthProfile::default();
    let target = SynthTarget::from_database(&db, &profile).unwrap();
    let trace = synthesize(&target, &profile, 5, 8);

    let config = LoadConfig {
        addr: server.addr().to_string(),
        model: "demo".to_string(),
        rate: 400.0,
        connections: 1,
        duration: Duration::from_millis(500),
        samples: 16,
        timeout_ms: 5_000,
    };
    let report = run_load(&trace, &config).expect("load run completes");
    assert_eq!(report.errors, 0, "keep-alive replay must not drop requests");
    assert_eq!(report.completed, report.scheduled);
    assert_eq!(report.status_5xx, 0);
    server.shutdown();
}
