//! Golden bytes of generation: same model and seed ⇒ the same CSVs, under
//! both join-key strategies, for joins and for a single relation, at two
//! model shapes.
//!
//! A small 6-table IMDB bundle is trained for two epochs at a fixed seed on
//! a 24×24 residual MADE, then generated from with `foj_samples` not a
//! multiple of `batch`, so the last sampling batch is ragged; the model
//! also generates with `PairwiseViews` keys. A
//! small census model generates its single relation, again with a ragged
//! last batch. The same imdb bundle is also trained at the benchmark's model
//! shape, `SamConfig::default()` (MADE 64×64, no residual), and generated
//! from. The model files and every table's CSV rendering are hashed
//! with FNV-1a and compared with recorded constants (the imdb Group-and-Merge
//! ones from before generation moved to the column-block forward, the
//! pairwise and census ones from before assembly went column-major, the
//! default-shape ones from before each column's forward ran on the hidden
//! units its logits read). A three-level `org → team → member` tree is
//! trained and generated from as well, so the grouping of a deeper table by
//! its ancestors' keys and the products of leftover boosts down two levels
//! are in the locked bytes (constants from before Group-and-Merge moved to
//! flat arrays). A change to training, sampling or assembly that moves a
//! byte of either fails here.
//!
//! A CSV cannot show a dictionary wider than the values its column holds, so
//! a second test rebuilds every generated table with `Table::from_rows` from
//! its own rows and asks for the same dictionaries and codes. A sampled code only moves when a logit crosses its
//! draw, so a one-ulp kernel change can leave the CSVs as they were: the
//! forward kernels' bits are locked per logit by `backend_parity` in
//! `crates/nn/tests/proptests.rs`.
//!
//! Training and sampling go through `f32::exp`/`ln` (softmax, Gumbel noise),
//! so through the platform libm: the constants are pinned to x86_64 Linux and
//! the test skips with a message elsewhere. Sampling seeds each batch by its
//! global index, so the bytes do not depend on the rayon thread count either
//! (CI runs this file at 1 and 4 threads).
//!
//! To re-record after an intended change, run the test and paste the
//! `actual` table from the failure message over `GOLDEN`; say in CHANGES.md
//! which hashes moved and why.

use rand::prelude::*;
use rand::rngs::StdRng;
use sam::prelude::*;
use std::sync::OnceLock;

/// `(case, file, FNV-1a of its bytes)`: the trained imdb model file, its
/// generated CSVs in schema order, the pairwise CSVs, the census model file
/// and its generated relation, the default-shape imdb model file and its
/// CSVs, then the three-level model file and its CSVs.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("f32", "model.json", 0xa94ebe8694a7ae36),
    ("f32", "title", 0x2efc16c7fb820327),
    ("f32", "cast_info", 0x09db5bb7c38cd341),
    ("f32", "movie_companies", 0xb8e04567a074bcd7),
    ("f32", "movie_info", 0x678fc2aefda2d09d),
    ("f32", "movie_info_idx", 0x9cc5e52faed659b3),
    ("f32", "movie_keyword", 0x3a1cd7095589a862),
    ("f32-pairwise", "title", 0xbea96683cd31d6b0),
    ("f32-pairwise", "cast_info", 0x1b6a27f7515f6508),
    ("f32-pairwise", "movie_companies", 0x1d423f7e80968f8c),
    ("f32-pairwise", "movie_info", 0x300173d24cbed1ed),
    ("f32-pairwise", "movie_info_idx", 0xdb7ea2607d0cb485),
    ("f32-pairwise", "movie_keyword", 0x08afc3d10a6bc729),
    ("census", "model.json", 0x02a2d0a710ef14c1),
    ("census", "census", 0x1a7969584cdfcd62),
    ("f32-default", "model.json", 0x125901104f5d2dee),
    ("f32-default", "title", 0x0036010ceafbc90e),
    ("f32-default", "cast_info", 0xd112dede756d0b7f),
    ("f32-default", "movie_companies", 0x2a7d8fca8b541558),
    ("f32-default", "movie_info", 0x979423c598cc36d0),
    ("f32-default", "movie_info_idx", 0x9763977549c3f979),
    ("f32-default", "movie_keyword", 0xccfc71b83a731184),
    ("three-level", "model.json", 0x5ecdce2f84eacce4),
    ("three-level", "org", 0x35c283097290efa4),
    ("three-level", "team", 0xfdeef2477e477c36),
    ("three-level", "member", 0xf92c3fd8c06dbf2e),
];

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a over the CSV rendering of one table.
fn csv_hash(table: &Table) -> u64 {
    let mut csv = Vec::new();
    sam::storage::csv::write_csv(table, &mut csv).expect("writing to memory cannot fail");
    fnv1a(&csv)
}

/// Two residual hidden layers, so the skip path is in the locked bits.
fn residual_config() -> SamConfig {
    SamConfig {
        model: ArModelConfig {
            hidden: vec![24, 24],
            seed: 5,
            residual: true,
        },
        train: TrainConfig {
            epochs: 2,
            batch_size: 32,
            lr: 1e-2,
            seed: 5,
            ..Default::default()
        },
        encoding: EncodingOptions::default(),
    }
}

/// `SamConfig::default()` for two epochs: MADE 64×64 without residual
/// skips, the model shape `pipeline_join` trains and generates from.
fn default_config() -> SamConfig {
    let mut config = SamConfig::default();
    config.train.epochs = 2;
    assert_eq!(
        (config.model.hidden.as_slice(), config.model.residual),
        (&[64, 64][..], false)
    );
    config
}

fn trained_imdb(config: &SamConfig) -> TrainedSam {
    let target = sam::datasets::imdb(&sam::datasets::ImdbConfig {
        titles: 250,
        seed: 5,
        ..Default::default()
    });
    let stats = DatabaseStats::from_database(&target);
    let mut gen = WorkloadGenerator::new(&target, 5);
    let workload = label_workload(&target, gen.multi_workload(200, 2)).unwrap();
    Sam::fit(target.schema(), &stats, &workload, config).unwrap()
}

/// A census model: its single relation has intervalized columns, so
/// decoding draws within bins.
fn trained_census() -> TrainedSam {
    let target = sam::datasets::census(400, 5);
    let stats = DatabaseStats::from_database(&target);
    let mut gen = WorkloadGenerator::new(&target, 5);
    let workload = label_workload(&target, gen.single_workload("census", 150)).unwrap();
    Sam::fit(target.schema(), &stats, &workload, &residual_config()).unwrap()
}

/// `org(id, sector) → team(id, org_id, size) → member(team_id, role)`, as in
/// `tests/deep_tree.rs`: the sector drives the team count, the size the
/// member count, and a member's role follows its org's sector.
fn three_level_db() -> Database {
    let org = TableSchema::new(
        "org",
        vec![
            ColumnDef::primary_key("id"),
            ColumnDef::content("sector", DataType::Int),
        ],
    );
    let team = TableSchema::new(
        "team",
        vec![
            ColumnDef::primary_key("id"),
            ColumnDef::foreign_key("org_id", "org"),
            ColumnDef::content("size", DataType::Int),
        ],
    );
    let member = TableSchema::new(
        "member",
        vec![
            ColumnDef::foreign_key("team_id", "team"),
            ColumnDef::content("role", DataType::Int),
        ],
    );
    let edge = |pk: &str, fk: &str, col: &str| ForeignKeyEdge {
        pk_table: pk.into(),
        fk_table: fk.into(),
        fk_column: col.into(),
    };
    let schema = DatabaseSchema::new(
        vec![org.clone(), team.clone(), member.clone()],
        vec![
            edge("org", "team", "org_id"),
            edge("team", "member", "team_id"),
        ],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let (mut orgs, mut teams, mut members) = (Vec::new(), Vec::new(), Vec::new());
    for o in 1..=80i64 {
        let sector = rng.gen_range(0..4i64);
        orgs.push(vec![Value::Int(o), Value::Int(sector)]);
        for _ in 0..1 + rng.gen_range(0..=sector + 1) {
            let id = teams.len() as i64 + 1;
            let size = rng.gen_range(0..3i64);
            teams.push(vec![Value::Int(id), Value::Int(o), Value::Int(size)]);
            for _ in 0..(size + 1) * 2 {
                let role = (sector + rng.gen_range(0..2i64)) % 5;
                members.push(vec![Value::Int(id), Value::Int(role)]);
            }
        }
    }
    let tables = vec![
        Table::from_rows(org, &orgs).unwrap(),
        Table::from_rows(team, &teams).unwrap(),
        Table::from_rows(member, &members).unwrap(),
    ];
    Database::new(schema, tables, true).unwrap()
}

fn trained_three_level() -> TrainedSam {
    let target = three_level_db();
    let stats = DatabaseStats::from_database(&target);
    let mut gen = WorkloadGenerator::new(&target, 5);
    let workload = label_workload(&target, gen.multi_workload(200, 2)).unwrap();
    Sam::fit(target.schema(), &stats, &workload, &residual_config()).unwrap()
}

/// Every locked case: `(case, model file or None, generated database)`.
fn cases() -> &'static [(String, Option<String>, Database)] {
    static CASES: OnceLock<Vec<(String, Option<String>, Database)>> = OnceLock::new();
    CASES.get_or_init(|| {
        let imdb = trained_imdb(&residual_config());
        let mut config = GenerationConfig {
            foj_samples: 1_000,
            batch: 96, // 1 000 = 10 × 96 + 40: the last batch is ragged
            seed: 3,
            strategy: JoinKeyStrategy::GroupAndMerge,
        };
        let model_file = |t: &TrainedSam| sam::ar::save_model(t.model(), t.db_schema());
        let mut cases = Vec::new();
        let (db, _) = imdb.generate(&config).unwrap();
        cases.push(("f32".into(), Some(model_file(&imdb)), db));
        config.strategy = JoinKeyStrategy::PairwiseViews;
        let (db, _) = imdb.generate(&config).unwrap();
        cases.push(("f32-pairwise".into(), None, db));
        // A single relation samples exactly |T| = 400 rows: 4 × 96 + 16.
        let census = trained_census();
        config.strategy = JoinKeyStrategy::GroupAndMerge;
        let (db, _) = census.generate(&config).unwrap();
        cases.push(("census".into(), Some(model_file(&census)), db));
        // The benchmark's model shape.
        let imdb = trained_imdb(&default_config());
        let (db, _) = imdb.generate(&config).unwrap();
        cases.push(("f32-default".into(), Some(model_file(&imdb)), db));
        let deep = trained_three_level();
        let (db, _) = deep.generate(&config).unwrap();
        cases.push(("three-level".into(), Some(model_file(&deep)), db));
        cases
    })
}

fn on_pinned_platform() -> bool {
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        return true;
    }
    eprintln!(
        "generation_bytes: skipped, the golden hashes are recorded on x86_64 Linux \
         (softmax and Gumbel noise go through the platform libm)"
    );
    false
}

#[test]
fn generated_csvs_match_the_recorded_bytes_under_every_backend() {
    if !on_pinned_platform() {
        return;
    }
    // One `(case, file, hash)` line per file, in `GOLDEN`'s layout.
    let line =
        |case: &str, file: &str, hash: u64| format!("    ({case:?}, {file:?}, 0x{hash:016x}),\n");
    let mut got = String::new();
    for (case, model_file, db) in cases() {
        if let Some(file) = model_file {
            got += &line(case, "model.json", fnv1a(file.as_bytes()));
        }
        for table in db.tables() {
            got += &line(case, table.name(), csv_hash(table));
        }
    }
    let want: String = GOLDEN.iter().map(|&(k, f, h)| line(k, f, h)).collect();
    assert!(
        got == want,
        "generated bytes moved\nexpected:\n{want}actual:\n{got}"
    );
}

#[test]
fn generated_tables_equal_a_from_rows_rebuild_of_their_rows() {
    if !on_pinned_platform() {
        return;
    }
    for (case, _, db) in cases() {
        for table in db.tables() {
            let rows: Vec<Vec<Value>> = table.iter_rows().collect();
            let rebuilt = Table::from_rows(table.schema().clone(), &rows).unwrap();
            assert_eq!(rebuilt.num_rows(), table.num_rows());
            for c in 0..table.num_columns() {
                let (got, want) = (table.column(c), rebuilt.column(c));
                let name = &table.schema().columns[c].name;
                assert_eq!(
                    got.domain().values(),
                    want.domain().values(),
                    "{case}: {}.{name} has another dictionary",
                    table.name()
                );
                assert_eq!(
                    got.codes(),
                    want.codes(),
                    "{case}: {}.{name} has other codes",
                    table.name()
                );
            }
        }
    }
}
