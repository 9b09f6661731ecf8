//! End-to-end workload tooling through the `sam::workgen` facade: profile
//! round-trip, byte-identical synthesis, seed disjointness, adversarial
//! mining beating its baseline, and a live open-loop replay against a real
//! in-process server.

use sam::prelude::*;
use sam::workgen::{
    mine_hard_queries, run_load, synthesize, synthesize_into, LoadConfig, MinerConfig,
    SynthProfile, SynthTarget,
};
use std::collections::HashSet;
use std::time::Duration;

fn census_db() -> Database {
    sam::datasets::census(400, 11)
}

fn synth_text(db: &Database, profile: &SynthProfile, seed: u64, count: u64, label: bool) -> String {
    let target = SynthTarget::from_database(db, profile).unwrap();
    let mut buf = Vec::new();
    let label_db = if label { Some(db) } else { None };
    synthesize_into(&target, profile, seed, count, label_db, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

#[test]
fn same_profile_and_seed_is_byte_identical_and_distinct_seeds_are_disjoint() {
    let db = census_db();
    let profile = SynthProfile::default();

    let a = synth_text(&db, &profile, 42, 200, false);
    let b = synth_text(&db, &profile, 42, 200, false);
    assert_eq!(a, b, "same profile + seed must reproduce byte-for-byte");

    // A profile that survives a TOML round trip produces the same bytes.
    let round = SynthProfile::from_toml(&profile.to_toml()).unwrap();
    assert_eq!(round, profile);
    assert_eq!(synth_text(&db, &round, 42, 200, false), a);

    let c = synth_text(&db, &profile, 43, 200, false);
    let set_a: HashSet<&str> = a.lines().collect();
    let set_c: HashSet<&str> = c.lines().collect();
    let overlap = set_a.intersection(&set_c).count();
    assert!(
        overlap * 10 < set_a.len(),
        "different seeds should explore mostly different queries ({overlap} shared)"
    );
}

#[test]
fn synthesized_lines_parse_and_labels_match_ground_truth() {
    let db = census_db();
    let profile = SynthProfile::default();
    let text = synth_text(&db, &profile, 7, 64, true);
    let mut checked = 0;
    for line in text.lines() {
        let (sql, card) = line.split_once(" -- card=").expect("labelled line");
        let q = parse_query(sql).expect("emitted SQL parses back");
        let truth = evaluate_cardinality(&db, &q).unwrap();
        assert_eq!(truth, card.parse::<u64>().unwrap(), "label matches: {sql}");
        checked += 1;
    }
    assert!(checked >= 32, "expected a real batch, got {checked}");
}

fn quick_model(db: &Database) -> sam::core::TrainedSam {
    let stats = DatabaseStats::from_database(db);
    let mut gen = WorkloadGenerator::new(db, 5);
    let workload = label_workload(db, gen.single_workload(db.tables()[0].name(), 32)).unwrap();
    let config = SamConfig {
        model: sam::ar::ArModelConfig {
            hidden: vec![12],
            seed: 5,
            residual: false,
        },
        train: sam::ar::TrainConfig {
            epochs: 3,
            batch_size: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    Sam::fit(db.schema(), &stats, &workload, &config).unwrap()
}

#[test]
fn miner_beats_the_synthesized_baseline() {
    let db = sam::storage::paper_example::figure3_database();
    let trained = quick_model(&db);
    let profile = SynthProfile::default();
    let target = SynthTarget::from_database(&db, &profile).unwrap();
    let seeds = synthesize(&target, &profile, 3, 24);
    assert!(!seeds.is_empty());

    let config = MinerConfig {
        top_k: 5,
        rounds: 4,
        samples: 32,
        ..Default::default()
    };
    let report = mine_hard_queries(trained.model(), &db, &seeds, &config).unwrap();

    let worst = report.worst.first().expect("non-empty worst set");
    assert!(
        worst.q_error >= report.baseline_max - 1e-9,
        "mined worst ({}) must dominate the seed baseline max ({})",
        worst.q_error,
        report.baseline_max
    );
    for pair in report.worst_trail.windows(2) {
        assert!(
            pair[1] >= pair[0] - 1e-12,
            "worst Q-Error climbs monotonically"
        );
    }
    // The report is reproducible: a second run is identical.
    let again = mine_hard_queries(trained.model(), &db, &seeds, &config).unwrap();
    assert_eq!(again.worst.len(), report.worst.len());
    for (a, b) in again.worst.iter().zip(&report.worst) {
        assert_eq!(a.query.canonical_string(), b.query.canonical_string());
        assert_eq!(a.truth, b.truth);
    }
}

#[test]
fn load_replay_against_live_server_reports_finite_percentiles_and_no_5xx() {
    let db = sam::storage::paper_example::figure3_database();
    let server = sam::serve::Server::start(sam::serve::ServeConfig::default()).unwrap();
    server.registry().insert("e2e", quick_model(&db));

    let profile = SynthProfile::default();
    let target = SynthTarget::from_database(&db, &profile).unwrap();
    let trace = synthesize(&target, &profile, 13, 16);

    let config = LoadConfig {
        addr: server.addr().to_string(),
        model: "e2e".to_string(),
        rate: 150.0,
        connections: 2,
        duration: Duration::from_millis(800),
        samples: 16,
        timeout_ms: 5_000,
    };
    let report = run_load(&trace, &config).unwrap();
    assert!(report.completed > 0);
    assert_eq!(report.status_5xx, 0);
    assert_eq!(report.status_4xx, 0);
    assert!(report.latency.p99_ms.is_finite() && report.latency.p99_ms > 0.0);
    assert!(report.throughput > 0.0);
    server.shutdown();
}
