//! Golden bytes of generation: same model and seed ⇒ the same CSVs, under
//! every inference backend and both join-key strategies, for joins and for a
//! single relation, at two model shapes.
//!
//! A small 6-table IMDB bundle is trained for two epochs at a fixed seed on
//! a 24×24 residual MADE, then generated from under `f32`, `f16` and `int8`
//! with `foj_samples` not a multiple of `batch`, so the last sampling batch
//! is ragged; the f32 model also generates with `PairwiseViews` keys. A
//! small census model generates its single relation, again with a ragged
//! last batch. The same imdb bundle is also trained at the benchmark's model
//! shape, `SamConfig::default()` (MADE 64×64, no residual), and generated
//! from on f32. The model files and every table's CSV rendering are hashed
//! with FNV-1a and compared with recorded constants (the imdb Group-and-Merge
//! ones from before generation moved to the column-block forward, the
//! pairwise and census ones from before assembly went column-major, the
//! default-shape ones from before each column's forward ran on the hidden
//! units its logits read). A change to training, sampling or assembly that
//! moves a byte of either fails here.
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

use sam::nn::BackendKind;
use sam::prelude::*;
use std::sync::OnceLock;

/// `(case, file, FNV-1a of its bytes)`: the trained imdb model file, each
/// backend's generated CSVs in schema order, the f32 pairwise CSVs, the
/// census model file and its generated relation, then the default-shape imdb
/// model file and its f32 CSVs.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("f32", "model.json", 0xa94ebe8694a7ae36),
    ("f32", "title", 0x2efc16c7fb820327),
    ("f32", "cast_info", 0x09db5bb7c38cd341),
    ("f32", "movie_companies", 0xb8e04567a074bcd7),
    ("f32", "movie_info", 0x678fc2aefda2d09d),
    ("f32", "movie_info_idx", 0x9cc5e52faed659b3),
    ("f32", "movie_keyword", 0x3a1cd7095589a862),
    ("f16", "title", 0x33e89ebf4bfdec93),
    ("f16", "cast_info", 0x0c2680d680159426),
    ("f16", "movie_companies", 0x49bc470557de877b),
    ("f16", "movie_info", 0x22feaffc4e74182c),
    ("f16", "movie_info_idx", 0xe1388add81867356),
    ("f16", "movie_keyword", 0x9e2fe87d419c6d13),
    ("int8", "title", 0x1db0dd48655429d6),
    ("int8", "cast_info", 0xd7c65a319c34d008),
    ("int8", "movie_companies", 0xea28b672b2f9559f),
    ("int8", "movie_info", 0x42ce83df7ae64aa9),
    ("int8", "movie_info_idx", 0x3609142906699d37),
    ("int8", "movie_keyword", 0xdbf488676ca1a924),
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
        for kind in BackendKind::ALL {
            let (db, _) = imdb.clone().with_backend(kind).generate(&config).unwrap();
            let file = (kind == BackendKind::ReferenceF32).then(|| model_file(&imdb));
            cases.push((kind.name().to_string(), file, db));
        }
        config.strategy = JoinKeyStrategy::PairwiseViews;
        let (db, _) = imdb.generate(&config).unwrap();
        cases.push(("f32-pairwise".into(), None, db));
        // A single relation samples exactly |T| = 400 rows: 4 × 96 + 16.
        let census = trained_census();
        config.strategy = JoinKeyStrategy::GroupAndMerge;
        let (db, _) = census.generate(&config).unwrap();
        cases.push(("census".into(), Some(model_file(&census)), db));
        // The benchmark's model shape, on the f32 kernel.
        let imdb = trained_imdb(&default_config());
        let (db, _) = imdb.generate(&config).unwrap();
        cases.push(("f32-default".into(), Some(model_file(&imdb)), db));
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
