//! Unconditional tuple sampling from a trained model (Algorithm 1).
//!
//! Sequentially samples every model column from its predicted conditional,
//! batched; the paper notes the process is *embarrassingly parallel* (GPU
//! batching in the original) — here batches run across CPU cores via rayon.

use crate::batch::SampleBatch;
use crate::infer::sample_weighted;
use crate::model::FrozenModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// One sampled full-outer-join row: a model bin code per model column.
pub type ModelRow = Vec<u32>;

/// Sample `count` rows in batches of `batch` (rows of one forward pass).
/// Deterministic given `seed`; batches are processed in parallel.
pub fn sample_model_rows(
    model: &FrozenModel,
    count: usize,
    batch: usize,
    seed: u64,
) -> Vec<ModelRow> {
    let batch = batch.max(1);
    let n_batches = count.div_ceil(batch);
    sample_model_rows_range(model, count, batch, seed, 0..n_batches)
}

/// Sample only batches `batches` of the run that [`sample_model_rows`]
/// would perform with the same `(count, batch, seed)`. Each batch draws
/// from an RNG seeded by the *global* batch index, so concatenating
/// consecutive ranges reproduces the full run bit-for-bit — this is what
/// lets callers (e.g. cancellable generation jobs) sample in chunks with
/// progress checks in between without changing the output.
pub fn sample_model_rows_range(
    model: &FrozenModel,
    count: usize,
    batch: usize,
    seed: u64,
    batches: std::ops::Range<usize>,
) -> Vec<ModelRow> {
    let batch = batch.max(1);
    let n_batches = count.div_ceil(batch);
    let batches = batches.start.min(n_batches)..batches.end.min(n_batches);
    // `map_init` builds one `SampleBatch` per rayon job split, not per
    // worker: a split reuses its carry/logits/probability buffers
    // across the batches it draws, and a call pays for a few splits' worth
    // of allocation and reset rather than three matrices per batch.
    batches
        .into_par_iter()
        .map_init(SampleBatch::new, |scratch, b| {
            let rows = batch.min(count - b * batch);
            let mut rng =
                StdRng::seed_from_u64(seed ^ (b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            sample_batch_with(model, rows, &mut rng, scratch)
        })
        .flatten_iter()
        .collect()
}

/// Sample one batch of rows sequentially into caller-owned scratch, so a
/// driver looping over many batches reuses the matrix buffers. Output is
/// independent of the scratch's history (it is fully reset per call).
fn sample_batch_with(
    model: &FrozenModel,
    rows: usize,
    rng: &mut StdRng,
    scratch: &mut SampleBatch,
) -> Vec<ModelRow> {
    let n_cols = model.net.num_columns();
    scratch.reset_dense(model, rows);
    let mut out = vec![vec![0u32; n_cols]; rows];
    for i in 0..n_cols {
        scratch.forward_column_dense(model, i);
        let d = model.net.domain_size(i);
        for (r, row) in out.iter_mut().enumerate() {
            let code = sample_weighted(scratch.dense_probs_row(r, d), rng).unwrap_or(0) as u32;
            row[i] = code;
            scratch.carry_code(model, i, r, code);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ArModel, ArModelConfig};
    use crate::model_schema::{ArSchema, EncodingOptions};
    use sam_storage::{paper_example, DatabaseStats};

    fn model() -> FrozenModel {
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        let schema =
            ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        ArModel::new(schema, &ArModelConfig::default()).freeze()
    }

    #[test]
    fn samples_have_right_shape_and_ranges() {
        let m = model();
        let rows = sample_model_rows(&m, 100, 32, 1);
        assert_eq!(rows.len(), 100);
        let sizes = m.schema.domain_sizes();
        for row in &rows {
            assert_eq!(row.len(), sizes.len());
            for (c, &code) in row.iter().enumerate() {
                assert!((code as usize) < sizes[c], "col {c} code {code}");
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = model();
        let a = sample_model_rows(&m, 64, 16, 9);
        let b = sample_model_rows(&m, 64, 16, 9);
        assert_eq!(a, b);
        let c = sample_model_rows(&m, 64, 16, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn ranged_sampling_composes_to_the_full_run() {
        let m = model();
        let full = sample_model_rows(&m, 70, 16, 3);
        let mut chunked = Vec::new();
        // 70 rows at batch 16 → 5 batches; stitch from uneven ranges.
        for range in [0..2, 2..3, 3..5] {
            chunked.extend(sample_model_rows_range(&m, 70, 16, 3, range));
        }
        assert_eq!(full, chunked);
        // Out-of-range requests clamp instead of panicking.
        assert!(sample_model_rows_range(&m, 70, 16, 3, 5..9).is_empty());
    }

    #[test]
    fn exact_count_even_with_ragged_last_batch() {
        let m = model();
        assert_eq!(sample_model_rows(&m, 7, 3, 0).len(), 7);
        assert_eq!(sample_model_rows(&m, 1, 64, 0).len(), 1);
    }
}
