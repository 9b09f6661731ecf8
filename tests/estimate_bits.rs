//! Golden bits of estimation: same model, queries and seeds ⇒ the same
//! estimates, to the bit, under every inference backend.
//!
//! The small 6-table IMDB bundle of `generation_bytes.rs` is trained for two
//! epochs at a fixed seed on a 24×24 residual MADE, and again at the
//! benchmark's model shape, `SamConfig::default()` (MADE 64×64, no
//! residual). One long-lived `Estimator` per backend on the first model, and
//! one f32 `Estimator` on the second, answers a fixed query set twice in
//! small micro-batches (the second pass on other seeds, so its paths mix
//! trie hits with fresh prefixes), then once in a single call whose sample
//! paths put more than 64 fresh rows into a column (the parallel forward
//! branch of the sample batch). The `to_bits` of every estimate are hashed
//! with FNV-1a and compared with recorded constants. A one-ulp change of any
//! logit the estimator reads moves a conditional mass, hence an estimate's
//! bits, so this guards the estimate path the way the per-logit
//! `backend_parity` guards the kernels.
//!
//! Progressive sampling goes through `f32::exp` (softmax) and training
//! through the platform libm, so the constants are pinned to x86_64 Linux
//! and the test skips with a message elsewhere. Rows are forwarded
//! independently, so the bits do not depend on the rayon thread count
//! (CI runs this file at 1 and 4 threads).
//!
//! To re-record after an intended change, run the test and paste the
//! `actual` table from the failure message over `GOLDEN`; say in CHANGES.md
//! which hashes moved and why.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sam::ar::Estimator;
use sam::nn::BackendKind;
use sam::prelude::*;

/// `(backend, FNV-1a of every estimate's bits)`: the residual model on every
/// backend (recorded before cold estimates moved to the column-block
/// forward), then the default-shape model on f32 (recorded before each
/// column's forward ran on only the hidden units its logits read).
const GOLDEN: &[(&str, u64)] = &[
    ("f32", 0xa28e3932941de023),
    ("f16", 0x1004d188e855eb44),
    ("int8", 0x27e9fc5067000fb2),
    ("f32-default", 0xbe6baad7788ade78),
];

/// FNV-1a, 64-bit, continued from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The imdb bundle trained under `config`, and the held-out queries.
fn trained(config: &SamConfig) -> (TrainedSam, Vec<Query>) {
    let target = sam::datasets::imdb(&sam::datasets::ImdbConfig {
        titles: 250,
        seed: 5,
        ..Default::default()
    });
    let stats = DatabaseStats::from_database(&target);
    let mut gen = WorkloadGenerator::new(&target, 5);
    let workload = label_workload(&target, gen.multi_workload(200, 2)).unwrap();
    let trained = Sam::fit(target.schema(), &stats, &workload, config).unwrap();
    // Held-out queries on another seed: joins and range predicates, so both
    // free and constrained steps are sampled.
    let queries = WorkloadGenerator::new(&target, 9).multi_workload(24, 2);
    (trained, queries)
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
/// skips, the model shape `pipeline_join` trains and `serve_distinct`
/// estimates with.
fn default_config() -> SamConfig {
    let mut config = SamConfig::default();
    config.train.epochs = 2;
    assert_eq!(
        (config.model.hidden.as_slice(), config.model.residual),
        (&[64, 64][..], false)
    );
    config
}

/// Every estimate one long-lived estimator gives over the fixed schedule,
/// folded into one hash.
fn estimate_hash(estimator: &mut Estimator, queries: &[Query]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut fold = |results: Vec<Result<f64, sam::ar::ArError>>| {
        for r in results {
            let bits = r.expect("every held-out query resolves").to_bits();
            hash = fnv1a(hash, &bits.to_le_bytes());
        }
    };
    // Small micro-batches, twice over: cold, then warm on other seeds.
    for pass in 0..2u64 {
        for (c, chunk) in queries.chunks(3).enumerate() {
            let requests: Vec<(&Query, usize)> = chunk.iter().map(|q| (q, 24)).collect();
            let mut rngs: Vec<StdRng> = (0..chunk.len())
                .map(|j| StdRng::seed_from_u64(1_000 * pass + 10 * c as u64 + j as u64))
                .collect();
            fold(estimator.estimate_batch(&requests, &mut rngs));
        }
    }
    // One call with 8 × 160 paths on fresh seeds: its columns forward well
    // over 64 fresh rows at once.
    let requests: Vec<(&Query, usize)> = queries.iter().take(8).map(|q| (q, 160)).collect();
    let mut rngs: Vec<StdRng> = (0..requests.len())
        .map(|j| StdRng::seed_from_u64(7_000 + j as u64))
        .collect();
    fold(estimator.estimate_batch(&requests, &mut rngs));
    hash
}

#[test]
fn estimates_match_the_recorded_bits_under_every_backend() {
    if !cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        eprintln!(
            "estimate_bits: skipped, the golden hashes are recorded on x86_64 Linux \
             (training and the sampling softmax go through the platform libm)"
        );
        return;
    }
    let (residual, queries) = trained(&residual_config());
    let line = |kind: &str, hash: u64| format!("    ({kind:?}, 0x{hash:016x}),\n");
    let mut got = String::new();
    for kind in BackendKind::ALL {
        let mut estimator = Estimator::new(residual.model().clone().with_backend(kind));
        got += &line(kind.name(), estimate_hash(&mut estimator, &queries));
    }
    // The benchmark's model shape, on the f32 kernel.
    let (default, queries) = trained(&default_config());
    let mut estimator = Estimator::new(default.model().clone());
    got += &line("f32-default", estimate_hash(&mut estimator, &queries));
    let want: String = GOLDEN.iter().map(|&(k, h)| line(k, h)).collect();
    assert!(
        got == want,
        "estimate bits moved\nexpected:\n{want}actual:\n{got}"
    );
}
