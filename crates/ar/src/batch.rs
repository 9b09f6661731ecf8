//! Batch-major sample state: every live sample path of a micro-batch as an
//! explicit, typed batch dimension.
//!
//! Progressive sampling (estimation) and unconditional sampling (tuple
//! generation) both advance a batch of sample paths column by column. The
//! historical estimator treated that batch as an incidental row dimension,
//! re-assembling a compact one-hot input matrix from each path's sampled
//! codes at every column. [`SampleBatch`] makes the batch first-class
//! instead: one persistent row-per-path activation matrix maintained
//! incrementally (sampling a code sets a single element), one persistent
//! logits buffer, and one persistent conditional-probability buffer. Each
//! column step is then a single forward over the batch for that column's
//! logit block alone, with trie hits and within-batch dedup expressed as row
//! masks (`ColumnMasks` in the trie module) that every kernel consumes
//! natively — no per-column scatter/gather vectors and no per-column
//! allocation in the batch.
//!
//! All buffers are reusable across calls: every [`Estimator`](crate::Estimator)
//! owns one next to its [`PrefixTrie`] (the serving tier keeps one estimator
//! per model version), and the generation pipeline keeps one per rayon
//! worker, so in steady state the batch reallocates none of its buffers.
//!
//! Everything here is value-preserving: per-row forward arithmetic is
//! row-independent, so masked batch-major forwards are
//! bit-identical, row for row, to the compact per-column forwards they
//! replace (locked by `batched_estimates_are_bit_identical_to_sequential`
//! and the determinism tests in [`crate::sample`]).

use crate::model::FrozenModel;
use crate::trie::{ColumnMasks, ColumnSummary, PrefixTrie};
use rayon::prelude::*;
use sam_nn::Matrix;

/// Rows per rayon task when a column's fresh rows are forwarded in
/// parallel. Small enough that a default-sized micro-batch (8 × 64 paths)
/// spans many cores, large enough that per-task overhead stays negligible.
const PAR_FORWARD_ROWS: usize = 64;

/// Reusable batch-major state for one micro-batch of sample paths; see the
/// module docs. Construct once (an estimator or a sampling worker keeps one)
/// and let the per-call `reset` size it — buffers are only
/// reallocated when the batch shape grows or the model changes width.
#[derive(Debug)]
pub struct SampleBatch {
    rows: usize,
    width: usize,
    /// One-hot activations, one row per sample path, maintained
    /// incrementally as codes are sampled.
    input: Matrix,
    /// Logits of the latest forward; only fresh rows of a column are
    /// written (masked rows keep stale values that are never read).
    logits: Matrix,
    /// Conditionals of the current column's fresh representative rows, in
    /// the leading `domain_size` columns of each row.
    probs: Matrix,
    /// Row masks of the current column (fresh / cached / representative).
    masks: ColumnMasks,
    /// Per-path factor product; `0.0` marks a dead path.
    factors: Vec<f64>,
    /// Dense path only: each row's running first-layer sum over its set
    /// inputs, so a column's forward does not rescan the one-hot row.
    carry: Matrix,
    /// Sampled codes per path (the off-trie dedup key).
    codes: Vec<Vec<u32>>,
    /// Each path's trie node (depth == column index), or `OFF_TRIE`.
    node: Vec<usize>,
}

impl Default for SampleBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl SampleBatch {
    /// An empty batch; the first `reset` sizes it.
    pub fn new() -> SampleBatch {
        SampleBatch {
            rows: 0,
            width: 0,
            input: Matrix::zeros(0, 0),
            logits: Matrix::zeros(0, 0),
            probs: Matrix::zeros(0, 0),
            masks: ColumnMasks::default(),
            carry: Matrix::zeros(0, 0),
            factors: Vec::new(),
            codes: Vec::new(),
            node: Vec::new(),
        }
    }

    /// Prepare for a fresh pass of `rows` sample paths against `model`:
    /// clear activations and factors, reset every path to the trie root.
    /// Reuses every buffer whose shape still fits.
    pub(crate) fn reset(&mut self, model: &FrozenModel, rows: usize) {
        let width = model.net.total_width();
        let max_domain = (0..model.net.num_columns())
            .map(|i| model.net.domain_size(i))
            .max()
            .unwrap_or(0);
        self.rows = rows;
        self.width = width;
        resize_or_clear(&mut self.input, rows, width, true);
        resize_or_clear(&mut self.logits, rows, width, false);
        resize_or_clear(&mut self.probs, rows, max_domain, false);
        self.factors.clear();
        self.factors.resize(rows, 1.0);
        self.codes.iter_mut().for_each(Vec::clear);
        self.codes.resize_with(rows, Vec::new);
        self.node.clear();
        self.node.resize(rows, PrefixTrie::ROOT); // every path starts at the root
    }

    /// Advance the batch to column `i`: classify rows against the trie into
    /// masks, forward column `i`'s logit block for the fresh representatives,
    /// softmax their conditionals, and cache them on the trie. Returns the
    /// classification counts (the caller folds them into process metrics).
    pub(crate) fn begin_column(
        &mut self,
        model: &FrozenModel,
        i: usize,
        trie: &mut PrefixTrie,
    ) -> ColumnSummary {
        let summary = trie.classify_column(&self.factors, &self.node, &self.codes, &mut self.masks);
        if summary.fresh_rows == 0 {
            return summary;
        }
        self.forward_fresh(model, i, summary.fresh_rows as usize);
        model.net.conditional_probs_masked_into(
            &self.logits,
            i,
            &self.masks.fresh,
            &mut self.probs,
        );
        let d = model.net.domain_size(i);
        for r in 0..self.rows {
            if self.masks.fresh[r] {
                trie.set_probs(self.node[r], &self.probs.row(r)[..d]);
            }
        }
        summary
    }

    /// Column `i`'s logit block for the fresh rows, the only logits the
    /// step reads. Small fresh counts go through the kernel's masked
    /// forward in place; large ones (many stacked requests) are gathered
    /// once and forwarded in parallel row chunks, and only block `i` is
    /// copied back. Per-row arithmetic is identical either way, so this is
    /// a pure throughput choice.
    fn forward_fresh(&mut self, model: &FrozenModel, i: usize, n_fresh: usize) {
        if n_fresh <= PAR_FORWARD_ROWS {
            model.net.forward_column_into(
                &self.input,
                Some(&self.masks.fresh),
                i,
                &mut self.logits,
            );
            return;
        }
        let fresh_rows: Vec<usize> = (0..self.rows).filter(|&r| self.masks.fresh[r]).collect();
        let width = self.width;
        let input = &self.input;
        let n_chunks = n_fresh.div_ceil(PAR_FORWARD_ROWS);
        let chunks: Vec<(usize, Matrix)> = (0..n_chunks)
            .into_par_iter()
            .map(|c| {
                let start = c * PAR_FORWARD_ROWS;
                let end = (start + PAR_FORWARD_ROWS).min(n_fresh);
                let mut chunk = Matrix::zeros(end - start, width);
                for (ci, &r) in fresh_rows[start..end].iter().enumerate() {
                    chunk.row_mut(ci).copy_from_slice(input.row(r));
                }
                let mut logits = Matrix::zeros(end - start, width);
                model.net.forward_column_into(&chunk, None, i, &mut logits);
                (start, logits)
            })
            .collect();
        let block = model.net.offset(i)..model.net.offset(i) + model.net.domain_size(i);
        for (start, logits) in chunks {
            for ci in 0..logits.rows() {
                self.logits.row_mut(fresh_rows[start + ci])[block.clone()]
                    .copy_from_slice(&logits.row(ci)[block.clone()]);
            }
        }
    }

    /// Column `i` conditionals for live row `r` (`d` = the column's domain
    /// size): the trie's cached row when the mask says so, otherwise the
    /// freshly computed row of `r`'s representative.
    pub(crate) fn p_row<'a>(&'a self, trie: &'a PrefixTrie, r: usize, d: usize) -> &'a [f32] {
        if self.masks.cached[r] {
            trie.probs(self.node[r]).expect("classified as cached")
        } else {
            &self.probs.row(self.masks.rep[r])[..d]
        }
    }

    /// Record the sampled `code` for row `r` at column `i`: extend the code
    /// prefix, set the one-hot activation, and descend the trie.
    pub(crate) fn advance(
        &mut self,
        trie: &mut PrefixTrie,
        model: &FrozenModel,
        i: usize,
        r: usize,
        code: u32,
    ) {
        self.codes[r].push(code);
        self.input.set(r, model.net.offset(i) + code as usize, 1.0);
        self.node[r] = trie.child(self.node[r], code);
    }

    /// Whether path `r` is still alive (non-zero factor).
    pub(crate) fn is_live(&self, r: usize) -> bool {
        self.factors[r] != 0.0
    }

    /// Multiply path `r`'s factor by `by`.
    pub(crate) fn scale_factor(&mut self, r: usize, by: f64) {
        self.factors[r] *= by;
    }

    /// Kill path `r` (an empty conditional range).
    pub(crate) fn kill(&mut self, r: usize) {
        self.factors[r] = 0.0;
    }

    /// Mean factor over the row window `[start, start + rows)`.
    pub(crate) fn mean_factor(&self, start: usize, rows: usize) -> f64 {
        self.factors[start..start + rows].iter().sum::<f64>() / rows as f64
    }

    // ------------------------------------------------- dense (no-trie) path

    /// Prepare for unconditional sampling: like
    /// [`reset`](SampleBatch::reset), plus an all-live mask so every row is
    /// forwarded each column and a zeroed first-layer carry.
    pub(crate) fn reset_dense(&mut self, model: &FrozenModel, rows: usize) {
        self.reset(model, rows);
        self.masks.fresh.clear();
        self.masks.fresh.resize(rows, true);
        model.net.reset_carry(&mut self.carry, rows);
    }

    /// Forward the whole batch for column `i`'s logit block and softmax it
    /// into the probability buffer (unconditional sampling: every row is
    /// live and fresh every column, and only block `i` is read). The first
    /// layer starts from the carried sums.
    pub(crate) fn forward_column_dense(&mut self, model: &FrozenModel, i: usize) {
        model
            .net
            .forward_column_carried_into(&self.input, &self.carry, i, &mut self.logits);
        model.net.conditional_probs_masked_into(
            &self.logits,
            i,
            &self.masks.fresh,
            &mut self.probs,
        );
    }

    /// Row `r`'s conditionals after [`forward_column_dense`]
    /// (`d` = the column's domain size).
    pub(crate) fn dense_probs_row(&self, r: usize, d: usize) -> &[f32] {
        &self.probs.row(r)[..d]
    }

    /// Set one activation element directly and add it to the row's
    /// first-layer carry (unconditional sampling records codes in its own
    /// output rows, not in the batch). Columns are sampled in offset order,
    /// so every row's inputs arrive in ascending `pos`.
    pub(crate) fn set_input_onehot(&mut self, model: &FrozenModel, r: usize, pos: usize) {
        self.input.set(r, pos, 1.0);
        model.net.carry_onehot(&mut self.carry, r, pos);
    }
}

/// Give `m` the requested shape, reusing its allocation when it already
/// matches; `zero` additionally clears retained contents (buffers whose
/// stale values are never read skip the memset).
fn resize_or_clear(m: &mut Matrix, rows: usize, cols: usize, zero: bool) {
    if m.rows() != rows || m.cols() != cols {
        *m = Matrix::zeros(rows, cols);
    } else if zero {
        m.clear();
    }
}
