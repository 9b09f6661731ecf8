//! Batch-major sample state: every live sample path of a batch as an
//! explicit, typed batch dimension.
//!
//! Progressive sampling (estimation) and unconditional sampling (tuple
//! generation) both advance a batch of sample paths column by column, and
//! both set exactly one code per column, in column order. [`SampleBatch`]
//! keeps the batch on codes: each path's trie node and its running
//! first-layer sum (the carry), to which sampling a code adds one row of the
//! transposed first layer; there is no one-hot input. Beside them sit one
//! persistent logits buffer and one persistent conditional-probability
//! buffer. Each column step is then a single forward over the batch for
//! that column's logit block alone, starting from the carried sums, with
//! trie hits and rows sharing one uncached node expressed as row masks
//! (`ColumnMasks` in the trie module) that the kernel consumes natively —
//! no per-column scatter/gather vectors and no per-column allocation in the
//! batch.
//!
//! All buffers are reusable across calls: every [`Estimator`](crate::Estimator)
//! owns one next to its [`PrefixTrie`] (the serving tier keeps one estimator
//! per model version), and the generation pipeline keeps one per rayon
//! worker, so in steady state the batch reallocates none of its buffers.
//!
//! Everything here is value-preserving: a carried sum has the bits of the
//! first layer's axpy over the path's one-hot row, and per-row forward
//! arithmetic is row-independent, so masked batch-major forwards are
//! bit-identical, row for row, to the compact per-column forwards they
//! replace (locked by `batched_estimates_are_bit_identical_to_sequential`,
//! the estimate-bits test and the determinism tests in [`crate::sample`]).

use crate::model::FrozenModel;
use crate::trie::{ColumnMasks, ColumnSummary, PrefixTrie};
use sam_nn::Matrix;

/// Reusable batch-major state for one batch of sample paths; see the
/// module docs. Construct once (an estimator or a sampling worker keeps one)
/// and let the per-call `reset` size it — buffers are only
/// reallocated when the batch shape grows or the model changes width.
#[derive(Debug)]
pub struct SampleBatch {
    rows: usize,
    /// Each row's running first-layer sum over its sampled codes, so a
    /// column's forward starts from it.
    carry: Matrix,
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
            carry: Matrix::zeros(0, 0),
            logits: Matrix::zeros(0, 0),
            probs: Matrix::zeros(0, 0),
            masks: ColumnMasks::default(),
            factors: Vec::new(),
            node: Vec::new(),
        }
    }

    /// Prepare for a fresh pass of `rows` sample paths against `model`:
    /// zero the carried sums, clear factors, reset every path to the trie
    /// root. Reuses every buffer whose shape still fits.
    pub(crate) fn reset(&mut self, model: &FrozenModel, rows: usize) {
        let max_domain = (0..model.net.num_columns())
            .map(|i| model.net.domain_size(i))
            .max()
            .unwrap_or(0);
        self.rows = rows;
        model.net.reset_carry(&mut self.carry, rows);
        resize(&mut self.logits, rows, model.net.total_width());
        resize(&mut self.probs, rows, max_domain);
        self.factors.clear();
        self.factors.resize(rows, 1.0);
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
        let summary = trie.classify_column(&self.factors, &self.node, &mut self.masks);
        if summary.fresh_rows == 0 {
            return summary;
        }
        // Column `i`'s logit block for the fresh rows, the only logits the
        // step reads, forwarded in place under the fresh mask.
        model.net.forward_column_carried_into(
            &self.carry,
            Some(&self.masks.fresh),
            i,
            &mut self.logits,
        );
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

    /// Record the sampled `code` for row `r` at column `i`: add the code to
    /// the row's carried sum and descend the trie.
    pub(crate) fn advance(
        &mut self,
        trie: &mut PrefixTrie,
        model: &FrozenModel,
        i: usize,
        r: usize,
        code: u32,
    ) {
        self.carry_code(model, i, r, code);
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

    /// Add code `code` of column `i` to row `r`'s carried first-layer sum:
    /// row `offset(i) + code` of the transposed first layer. Columns are
    /// sampled in order, so every row's codes arrive in ascending input
    /// position, the order the first layer's axpy adds them in.
    pub(crate) fn carry_code(&mut self, model: &FrozenModel, i: usize, r: usize, code: u32) {
        model
            .net
            .carry_onehot(&mut self.carry, r, model.net.offset(i) + code as usize);
    }

    // ------------------------------------------------- dense (no-trie) path

    /// Prepare for unconditional sampling: like
    /// [`reset`](SampleBatch::reset), plus an all-live mask so every row is
    /// forwarded each column.
    pub(crate) fn reset_dense(&mut self, model: &FrozenModel, rows: usize) {
        self.reset(model, rows);
        self.masks.fresh.clear();
        self.masks.fresh.resize(rows, true);
    }

    /// Forward the whole batch for column `i`'s logit block and softmax it
    /// into the probability buffer (unconditional sampling: every row is
    /// live and fresh every column, and only block `i` is read). The
    /// unconditional sampler records its codes in its own output rows and
    /// adds each to the batch through [`carry_code`](SampleBatch::carry_code).
    pub(crate) fn forward_column_dense(&mut self, model: &FrozenModel, i: usize) {
        model
            .net
            .forward_column_carried_into(&self.carry, None, i, &mut self.logits);
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
}

/// Give `m` the requested shape, reusing its allocation when it already
/// matches; its stale values are never read, so it is not cleared.
fn resize(m: &mut Matrix, rows: usize, cols: usize) {
    if m.rows() != rows || m.cols() != cols {
        *m = Matrix::zeros(rows, cols);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ArModel, ArModelConfig};
    use crate::model_schema::{ArSchema, EncodingOptions};
    use sam_storage::{paper_example, DatabaseStats};

    fn figure3_model() -> FrozenModel {
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        let schema =
            ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        ArModel::new(schema, &ArModelConfig::default()).freeze()
    }

    /// Eight live rows advanced by the same code at column 0, then
    /// classified at column 1 against `trie`.
    fn column_one_after_one_code(trie: &mut PrefixTrie) -> ColumnSummary {
        let model = figure3_model();
        let mut batch = SampleBatch::new();
        batch.reset(&model, 8);
        batch.begin_column(&model, 0, trie);
        for r in 0..8 {
            batch.advance(trie, &model, 0, r, 0);
        }
        batch.begin_column(&model, 1, trie)
    }

    #[test]
    fn rows_on_one_uncached_node_share_one_forward_row() {
        let summary = column_one_after_one_code(&mut PrefixTrie::new());
        assert_eq!((summary.fresh_rows, summary.dedup_hits), (1, 7));
        assert_eq!(summary.cached_hits, 0);
    }

    #[test]
    fn rows_off_the_trie_are_never_merged() {
        // A root-only trie: the same code sends all eight rows off it.
        let summary = column_one_after_one_code(&mut PrefixTrie::with_node_cap(1));
        assert_eq!((summary.fresh_rows, summary.dedup_hits), (8, 0));
        assert_eq!(summary.cached_hits, 0);
    }
}
