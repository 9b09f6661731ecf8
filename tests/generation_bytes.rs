//! Golden bytes of generation: same model and seed ⇒ the same CSVs, under
//! every inference backend.
//!
//! A small 6-table IMDB bundle is trained for two epochs at a fixed seed,
//! then generated from under `f32`, `f16` and `int8` with `foj_samples` not
//! a multiple of `batch`, so the last sampling batch is ragged. The model
//! file and every table's CSV rendering are hashed with FNV-1a and compared
//! with constants recorded before generation moved to the column-block
//! forward. A change to training, sampling or assembly that moves a byte of
//! either fails here. A sampled code only moves when a logit crosses its
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

/// `(backend, file, FNV-1a of its bytes)`: the trained model file, then
/// each backend's generated CSVs in schema order.
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

fn trained() -> TrainedSam {
    let target = sam::datasets::imdb(&sam::datasets::ImdbConfig {
        titles: 250,
        seed: 5,
        ..Default::default()
    });
    let stats = DatabaseStats::from_database(&target);
    let mut gen = WorkloadGenerator::new(&target, 5);
    let workload = label_workload(&target, gen.multi_workload(200, 2)).unwrap();
    // Two residual hidden layers, so the skip path is in the locked bits.
    let config = SamConfig {
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
    };
    Sam::fit(target.schema(), &stats, &workload, &config).unwrap()
}

#[test]
fn generated_csvs_match_the_recorded_bytes_under_every_backend() {
    if !cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        eprintln!(
            "generation_bytes: skipped, the golden hashes are recorded on x86_64 Linux \
             (softmax and Gumbel noise go through the platform libm)"
        );
        return;
    }
    let trained = trained();
    let config = GenerationConfig {
        foj_samples: 1_000,
        batch: 96, // 1 000 = 10 × 96 + 40: the last batch is ragged
        seed: 3,
        strategy: JoinKeyStrategy::GroupAndMerge,
    };
    // One `(backend, file, hash)` line per file, in `GOLDEN`'s layout.
    let line =
        |kind: &str, file: &str, hash: u64| format!("    ({kind:?}, {file:?}, 0x{hash:016x}),\n");
    let model_file = sam::ar::save_model(trained.model(), trained.db_schema());
    let mut got = line("f32", "model.json", fnv1a(model_file.as_bytes()));
    for kind in BackendKind::ALL {
        let (db, _) = trained
            .clone()
            .with_backend(kind)
            .generate(&config)
            .unwrap();
        for table in db.tables() {
            got += &line(kind.name(), table.name(), csv_hash(table));
        }
    }
    let want: String = GOLDEN.iter().map(|&(k, f, h)| line(k, f, h)).collect();
    assert!(
        got == want,
        "generated bytes moved\nexpected:\n{want}actual:\n{got}"
    );
}
