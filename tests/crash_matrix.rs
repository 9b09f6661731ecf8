//! Crash-matrix harness: re-execute this test binary as a child process with
//! `SAM_FAULT_CRASH=<point>` armed, let it die (exit code 86) at the named
//! crash point mid-durability-protocol, then verify in the parent that
//! recovery holds the invariant the protocol promises:
//!
//! * **training checkpoints** — a crash at any point of the atomic snapshot
//!   protocol costs wall time, never correctness: a rerun converges to the
//!   bit-for-bit same model as an uninterrupted run;
//! * **journal appends** — a crash around an append loses at most the
//!   in-flight event; the log never becomes unreplayable;
//! * **journal compaction** — a crash at any point inside compaction
//!   replays to exactly the pre-compaction job states;
//! * **atomic CSV / model writes** — the destination is never torn: it is
//!   absent or complete, and orphaned `*.tmp` files are swept on reopen.
//!
//! Child scenarios live in the `#[ignore]`d `crash_child` test, dispatched
//! on `SAM_CRASH_CHILD`; the matrix spawns it via `current_exe()`.

use sam::ar::{train, ArModel, ArModelConfig, ArSchema, CheckpointConfig, EncodingOptions};
use sam::core::{GenerationConfig, JoinKeyStrategy};
use sam::fault::{CRASH_ENV, CRASH_EXIT_CODE};
use sam::prelude::TrainConfig;
use sam::query::{label_workload, Workload, WorkloadGenerator};
use sam::serve::journal::{Journal, ReplayState, QUARANTINE_FILE, SNAPSHOT_FILE};
use sam::storage::{paper_example, DatabaseStats};
use serde_json::json;
use std::path::{Path, PathBuf};
use std::process::Command;

const CHILD_ENV: &str = "SAM_CRASH_CHILD";
const DIR_ENV: &str = "SAM_CRASH_DIR";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sam_crash_matrix_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run one child scenario with `point` armed; the child MUST die at the
/// point (exit 86) — a normal exit means the point never fired and the
/// matrix entry is vacuous.
fn crash_child_at(scenario: &str, point: &str, dir: &Path) {
    let status = Command::new(std::env::current_exe().expect("current_exe"))
        .args(["crash_child", "--exact", "--ignored", "--nocapture"])
        .env(CHILD_ENV, scenario)
        .env(DIR_ENV, dir)
        .env(CRASH_ENV, point)
        .status()
        .expect("spawn crash child");
    assert_eq!(
        status.code(),
        Some(CRASH_EXIT_CODE),
        "scenario {scenario:?} did not crash at point {point:?} (status {status:?})"
    );
}

fn no_tmp_files(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            no_tmp_files(&path);
        } else {
            assert!(
                path.extension().is_none_or(|e| e != "tmp"),
                "orphaned tmp file survived recovery: {path:?}"
            );
        }
    }
}

// ---------------------------------------------------------------- training

/// Deterministic tiny training fixture shared by child and parent.
fn train_fixture() -> (ArSchema, Workload, sam::storage::Database) {
    let db = paper_example::figure3_database();
    let single = sam::storage::Database::single(db.table_by_name("A").unwrap().clone());
    let stats = DatabaseStats::from_database(&single);
    let mut gen = WorkloadGenerator::new(&single, 5);
    let workload = label_workload(&single, gen.single_workload("A", 16)).unwrap();
    let schema = ArSchema::build(
        single.schema(),
        &stats,
        &workload
            .queries
            .iter()
            .map(|q| q.query.clone())
            .collect::<Vec<_>>(),
        &EncodingOptions::default(),
    )
    .unwrap();
    (schema, workload, single)
}

fn train_config(dir: &Path) -> TrainConfig {
    TrainConfig {
        epochs: 4,
        batch_size: 8,
        lr: 1e-2,
        seed: 21,
        checkpoint: Some(CheckpointConfig::new(dir, 1)),
        ..TrainConfig::default()
    }
}

fn model_config() -> ArModelConfig {
    ArModelConfig {
        hidden: vec![8],
        seed: 11,
        residual: false,
    }
}

/// Train to completion in-process and return the persisted model JSON.
fn train_to_json(dir: &Path) -> String {
    let (schema, workload, single) = train_fixture();
    let mut model = ArModel::new(schema, &model_config());
    train(&mut model, &workload, &train_config(dir)).unwrap();
    sam::ar::save_model(&model.freeze(), single.schema())
}

// ---------------------------------------------------------------- journal

fn gen_config(seed: u64) -> GenerationConfig {
    GenerationConfig {
        foj_samples: 64,
        batch: 4,
        seed,
        strategy: JoinKeyStrategy::GroupAndMerge,
    }
}

/// The fixed journal history the compaction scenario starts from.
fn seed_journal(journal: &Journal) {
    journal.accepted(1, "m", 1, &gen_config(1));
    journal.running(1);
    journal.completed(1, &json!({"tables": []}));
    journal.accepted(2, "m", 1, &gen_config(2));
    journal.failed(2, "boom");
    journal.accepted(3, "m", 2, &gen_config(3));
    journal.running(3);
}

fn assert_seeded_states(jobs: &[sam::serve::ReplayedJob]) {
    assert_eq!(jobs.len(), 3);
    assert!(matches!(jobs[0].state, ReplayState::Completed(_)));
    assert_eq!(jobs[1].state, ReplayState::Failed("boom".into()));
    assert_eq!(jobs[2].state, ReplayState::Interrupted);
    assert_eq!(jobs[2].config.seed, 3);
}

// ---------------------------------------------------------------- child

/// Child entry point: dispatches on `SAM_CRASH_CHILD`, runs the workload,
/// and dies at whatever crash point `SAM_FAULT_CRASH` armed. Ignored in
/// normal runs; only the matrix spawns it.
#[test]
#[ignore = "crash-matrix child process; spawned by the matrix tests"]
fn crash_child() {
    let Ok(scenario) = std::env::var(CHILD_ENV) else {
        return;
    };
    let dir = PathBuf::from(std::env::var(DIR_ENV).expect("SAM_CRASH_DIR"));
    match scenario.as_str() {
        "train" => {
            let (schema, workload, _) = train_fixture();
            let mut model = ArModel::new(schema, &model_config());
            // Dies at the armed point during the first checkpoint save.
            let _ = train(&mut model, &workload, &train_config(&dir));
        }
        "journal_append" => {
            let journal = Journal::open(&dir, sam::obs::counter("crash_child_events")).unwrap();
            journal.accepted(1, "m", 1, &gen_config(7));
        }
        "journal_compact" => {
            // The history was written by the parent; compaction crashes.
            let journal = Journal::open(&dir, sam::obs::counter("crash_child_events")).unwrap();
            let _ = journal.compact();
        }
        "csv" => {
            let db = paper_example::figure3_database();
            let table = db.table_by_name("A").unwrap();
            let _ = sam::storage::csv::write_csv_atomic(
                table,
                &dir.join("A.csv"),
                &*sam::fault::real_fs(),
            );
        }
        "model_save" => {
            let (schema, workload, single) = train_fixture();
            let mut model = ArModel::new(schema, &model_config());
            let mut cfg = train_config(&dir.join("ckpt"));
            cfg.epochs = 1;
            train(&mut model, &workload, &cfg).unwrap();
            let _ = sam::ar::save_model_file(
                &model.freeze(),
                single.schema(),
                &dir.join("model.json"),
                &*sam::fault::real_fs(),
            );
        }
        other => panic!("unknown crash child scenario {other:?}"),
    }
}

// ---------------------------------------------------------------- matrix

/// A crash at any point of the checkpoint commit protocol — before the tmp
/// write, mid-protocol with the tmp on disk, or after the rename — never
/// costs correctness: a rerun over the same checkpoint dir converges to the
/// bit-for-bit same model and final checkpoint as an uninterrupted run.
#[test]
fn train_checkpoint_crash_matrix() {
    let base = scratch("train");
    let reference = train_to_json(&base.join("reference"));
    let ref_ckpt = std::fs::read(
        base.join("reference")
            .join(sam::ar::checkpoint::CHECKPOINT_FILE),
    )
    .unwrap();
    for point in [
        "train.ckpt.pre_write",
        "atomic.tmp_written",
        "atomic.pre_rename",
        "train.ckpt.saved",
    ] {
        let dir = base.join(point.replace('.', "_"));
        std::fs::create_dir_all(&dir).unwrap();
        crash_child_at("train", point, &dir);
        let resumed = train_to_json(&dir);
        assert_eq!(
            resumed, reference,
            "crash at {point}: resumed model differs from uninterrupted run"
        );
        let ckpt = std::fs::read(dir.join(sam::ar::checkpoint::CHECKPOINT_FILE)).unwrap();
        assert_eq!(ckpt, ref_ckpt, "crash at {point}: final checkpoint differs");
        no_tmp_files(&dir);
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// A crash around a journal append loses at most the in-flight event: the
/// reopened journal replays cleanly (no corruption, no quarantine) with the
/// event either fully present or fully absent.
#[test]
fn journal_append_crash_matrix() {
    let base = scratch("append");
    for (point, event_survives) in [
        ("journal.append.pre_write", false),
        ("journal.append.written", true),
    ] {
        let dir = base.join(point.replace('.', "_"));
        crash_child_at("journal_append", point, &dir);
        let journal = Journal::open(&dir, sam::obs::counter("matrix_append_events")).unwrap();
        let jobs = journal.replay().unwrap();
        if event_survives {
            assert_eq!(jobs.len(), 1, "crash at {point}");
            assert_eq!(jobs[0].id, 1);
            assert_eq!(jobs[0].state, ReplayState::Interrupted);
            assert_eq!(jobs[0].config.seed, 7, "config must round-trip the crash");
        } else {
            assert!(
                jobs.is_empty(),
                "crash at {point}: event must be lost whole"
            );
        }
        assert!(
            !dir.join(QUARANTINE_FILE).exists(),
            "crash at {point}: a clean crash must not quarantine anything"
        );
        // The journal accepts writes again after recovery.
        journal.accepted(9, "m", 1, &gen_config(9));
        assert!(journal.replay().unwrap().iter().any(|j| j.id == 9));
        no_tmp_files(&dir);
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// A crash at any point inside compaction — before the snapshot, with the
/// snapshot tmp on disk, after the snapshot committed but before (or after)
/// the log truncate — replays to exactly the pre-compaction job states, and
/// a repeated compaction converges.
#[test]
fn journal_compaction_crash_matrix() {
    let base = scratch("compact");
    for point in [
        "journal.compact.pre_snapshot",
        "atomic.tmp_written",
        "atomic.pre_rename",
        "journal.compact.snapshotted",
        "journal.compact.truncated",
    ] {
        let dir = base.join(point.replace('.', "_"));
        {
            let journal = Journal::open(&dir, sam::obs::counter("matrix_compact_events")).unwrap();
            seed_journal(&journal);
        }
        crash_child_at("journal_compact", point, &dir);
        let journal = Journal::open(&dir, sam::obs::counter("matrix_compact_events")).unwrap();
        let jobs = journal.replay().unwrap();
        assert_seeded_states(&jobs);
        // Finishing the interrupted compaction converges to the same state.
        journal.compact().unwrap();
        assert_seeded_states(&journal.replay().unwrap());
        assert!(
            journal.log_len() == 0,
            "crash at {point}: log not truncated"
        );
        assert!(dir.join(SNAPSHOT_FILE).exists());
        no_tmp_files(&dir);
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Atomic CSV persistence: a crash anywhere in the protocol leaves the
/// destination absent or byte-complete, never torn, and reopening sweeps
/// the orphaned tmp.
#[test]
fn csv_persist_crash_matrix() {
    let base = scratch("csv");
    let db = paper_example::figure3_database();
    let table = db.table_by_name("A").unwrap();
    let mut want = Vec::new();
    sam::storage::csv::write_csv(table, &mut want).unwrap();
    for (point, file_lands) in [
        ("csv.pre_write", false),
        ("atomic.tmp_written", false),
        ("atomic.pre_rename", false),
    ] {
        let dir = base.join(point.replace('.', "_"));
        std::fs::create_dir_all(&dir).unwrap();
        crash_child_at("csv", point, &dir);
        let out = dir.join("A.csv");
        if file_lands {
            assert_eq!(std::fs::read(&out).unwrap(), want, "crash at {point}");
        } else {
            assert!(
                !out.exists() || std::fs::read(&out).unwrap() == want,
                "crash at {point}: destination must be absent or complete"
            );
        }
        sam::fault::sweep_tmp_files(&*sam::fault::real_fs(), &dir).unwrap();
        no_tmp_files(&dir);
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Atomic model save: a crash before the rename leaves no (or a stale)
/// destination — never a torn model file a later load would choke on.
#[test]
fn model_save_crash_matrix() {
    let base = scratch("model");
    for point in ["model.save.pre_write", "atomic.pre_rename"] {
        let dir = base.join(point.replace('.', "_"));
        std::fs::create_dir_all(&dir).unwrap();
        crash_child_at("model_save", point, &dir);
        let out = dir.join("model.json");
        if out.exists() {
            // Whatever landed must be a complete, loadable model.
            sam::ar::load_model_file(&out, &*sam::fault::real_fs()).unwrap();
        }
        sam::fault::sweep_tmp_files(&*sam::fault::real_fs(), &dir).unwrap();
        no_tmp_files(&dir);
    }
    let _ = std::fs::remove_dir_all(&base);
}
