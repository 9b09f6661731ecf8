//! Golden workloads and labels: same database and seed ⇒ the same query text
//! and the same exact cardinalities, to the byte.
//!
//! Four workload shapes are drawn on the 2 000-title IMDB stand-in at seeds
//! 0 and 61: MSCN-style joins (`multi_workload`), JOB-light-style joins
//! (`job_light_style`), single-relation queries (`single_workload`) and a
//! coverage-restricted single-relation workload (`coverage_workload`). The
//! SQL text of every query and the `label_workload` cardinality of every
//! query are hashed with FNV-1a and compared with constants recorded before
//! join sums moved onto dictionary codes. The query text locks the
//! generator's join-consistent row pick (every RNG draw after it depends on
//! the match list); the labels lock the exact evaluator.
//!
//! The stand-in's title years go through `f64::powf`, so the constants are
//! pinned to x86_64 Linux and the test skips with a message elsewhere.
//!
//! To re-record after an intended change, run the test and paste the
//! `actual` table from the failure message over `GOLDEN`; say in CHANGES.md
//! which hashes moved and why.

use sam::prelude::*;

/// `(seed, workload, FNV-1a of the SQL text, FNV-1a of the labels)`.
const GOLDEN: &[(u64, &str, u64, u64)] = &[
    (0, "multi", 0x23eeeb679b12274d, 0xaa7285fa9f66a21b),
    (0, "job_light", 0xf0e594e8ba288a34, 0xa07f7fee92b482ce),
    (0, "single", 0x68a8ea021eccb90f, 0xb93b8e72f59e60d0),
    (0, "coverage", 0x28086c4fa376d658, 0x37d3a5cb9def0fcc),
    (61, "multi", 0x10fe95ebdcdfe376, 0xb338192db836095c),
    (61, "job_light", 0x8cc8fe4798e96337, 0x16a01ad6c761860f),
    (61, "single", 0xd4dd1f46c60fa224, 0x24c15403237a632f),
    (61, "coverage", 0xef11c48a2e7ade3d, 0x4ebd86d87b6ca0bd),
];

/// FNV-1a, 64-bit, continued from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Every golden workload at `seed`, in `GOLDEN` order.
fn workloads(db: &Database, seed: u64) -> Vec<(&'static str, Vec<Query>)> {
    let mut gen = WorkloadGenerator::new(db, seed);
    vec![
        ("multi", gen.multi_workload(300, 2)),
        ("job_light", gen.job_light_style(60)),
        ("single", gen.single_workload("cast_info", 150)),
        ("coverage", gen.coverage_workload("title", 150, 0.3)),
    ]
}

#[test]
fn workload_text_and_labels_match_golden_hashes() {
    if !cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        eprintln!("skipping: golden hashes are recorded on x86_64 Linux");
        return;
    }
    let db = sam::datasets::imdb(&sam::datasets::ImdbConfig {
        titles: 2_000,
        seed: 1,
        ..Default::default()
    });
    let mut actual = Vec::new();
    for seed in [0, 61] {
        for (name, queries) in workloads(&db, seed) {
            let sql = queries
                .iter()
                .fold(FNV_OFFSET, |h, q| fnv1a(h, format!("{q};\n").as_bytes()));
            let workload = label_workload(&db, queries).unwrap();
            // The joins must not all be empty, or the labels lock nothing.
            assert!(
                name == "single"
                    || name == "coverage"
                    || workload
                        .queries
                        .iter()
                        .any(|lq| lq.query.tables.len() > 2 && lq.cardinality > 0),
                "{name} at seed {seed} has no non-empty multi-way join"
            );
            let labels = workload
                .queries
                .iter()
                .fold(FNV_OFFSET, |h, lq| fnv1a(h, &lq.cardinality.to_le_bytes()));
            actual.push((seed, name, sql, labels));
        }
    }
    let table: String = actual
        .iter()
        .map(|(s, n, q, l)| format!("    ({s}, {n:?}, {q:#018x}, {l:#018x}),\n"))
        .collect();
    assert_eq!(actual, GOLDEN, "actual:\n{table}");
}
