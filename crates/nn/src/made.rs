//! MADE — Masked Autoencoder for Distribution Estimation (Germain et al.,
//! ICML 2015), the autoregressive architecture instantiating SAM (§4.1).
//!
//! Inputs are per-column one-hot blocks; outputs are per-column logit blocks.
//! Binary masks on the weight matrices enforce the autoregressive property:
//! the logits of column `i` depend only on the (encoded) values of columns
//! `< i`, so `softmax(logits_i)` is `P(X_i | x_{<i})` and their chain product
//! is the joint (Eq 3 of the paper, no independence assumptions).

use crate::backend::{FrozenLayers, ReferenceF32};
use crate::matrix::Matrix;
use crate::optim::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

/// Architecture hyperparameters.
#[derive(Debug, Clone)]
pub struct MadeConfig {
    /// Per-column domain sizes (one-hot block widths), in autoregressive order.
    pub domain_sizes: Vec<usize>,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// RNG seed for weight initialisation and mask degrees.
    pub seed: u64,
    /// ResMADE (Naru/NeuroCard): residual connections between equal-width
    /// hidden layers. A skip keeps each unit's degree, so the
    /// autoregressive masks stay valid.
    pub residual: bool,
}

impl MadeConfig {
    /// Plain MADE with the given shape.
    pub fn new(domain_sizes: Vec<usize>, hidden: Vec<usize>, seed: u64) -> Self {
        MadeConfig {
            domain_sizes,
            hidden,
            seed,
            residual: false,
        }
    }
}

/// One affine layer: weights, bias, and the autoregressive mask.
struct Layer {
    w: ParamId,
    b: ParamId,
    mask: Rc<Matrix>,
    /// Add the layer input to its output before the activation (ResMADE).
    residual: bool,
}

/// A MADE network bound to a [`ParamStore`].
pub struct Made {
    config: MadeConfig,
    /// Input/output offsets of each column's one-hot block.
    offsets: Vec<usize>,
    total_width: usize,
    layers: Vec<Layer>,
}

/// Build the 0/1 mask for a layer given degrees of its input and output
/// units. `strict` uses `>` (the final layer), otherwise `>=`.
fn build_mask(out_deg: &[usize], in_deg: &[usize], strict: bool) -> Matrix {
    Matrix::from_fn(out_deg.len(), in_deg.len(), |r, c| {
        let ok = if strict {
            out_deg[r] > in_deg[c]
        } else {
            out_deg[r] >= in_deg[c]
        };
        if ok {
            1.0
        } else {
            0.0
        }
    })
}

fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..=bound))
}

impl Made {
    /// Construct a MADE and register its parameters in `store`.
    pub fn new(config: MadeConfig, store: &mut ParamStore) -> Self {
        assert!(!config.domain_sizes.is_empty(), "need at least one column");
        assert!(
            config.domain_sizes.iter().all(|&d| d > 0),
            "domains must be non-empty"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = config.domain_sizes.len();
        let mut offsets = Vec::with_capacity(n);
        let mut total = 0usize;
        for &d in &config.domain_sizes {
            offsets.push(total);
            total += d;
        }

        // Unit degrees: input/output block for column i has degree i+1;
        // hidden units cycle through 1..=max(n-1, 1).
        let io_deg: Vec<usize> = config
            .domain_sizes
            .iter()
            .enumerate()
            .flat_map(|(i, &d)| std::iter::repeat_n(i + 1, d))
            .collect();
        let hidden_mod = (n - 1).max(1);
        let hidden_deg =
            |width: usize| -> Vec<usize> { (0..width).map(|k| 1 + (k % hidden_mod)).collect() };

        let mut layers = Vec::new();
        let mut prev_deg = io_deg.clone();
        let mut prev_width = total;
        for (li, &h) in config.hidden.iter().enumerate() {
            let deg = hidden_deg(h);
            let mask = Rc::new(build_mask(&deg, &prev_deg, false));
            let w = store.add(xavier(h, prev_width, &mut rng));
            let b = store.add(Matrix::zeros(1, h));
            // Residual only between equal-width hidden layers (never from
            // the input, whose width differs in general).
            let residual = config.residual && li > 0 && prev_width == h;
            layers.push(Layer {
                w,
                b,
                mask,
                residual,
            });
            prev_deg = deg;
            prev_width = h;
        }
        // Output layer (strict comparison → column i sees only columns < i).
        let mask = Rc::new(build_mask(&io_deg, &prev_deg, true));
        let w = store.add(xavier(total, prev_width, &mut rng));
        let b = store.add(Matrix::zeros(1, total));
        layers.push(Layer {
            w,
            b,
            mask,
            residual: false,
        });

        Made {
            config,
            offsets,
            total_width: total,
            layers,
        }
    }

    /// Number of modelled columns.
    pub fn num_columns(&self) -> usize {
        self.config.domain_sizes.len()
    }

    /// Domain size of column `i`.
    pub fn domain_size(&self, i: usize) -> usize {
        self.config.domain_sizes[i]
    }

    /// One-hot block offset of column `i` in the input/output vector.
    pub fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Width of the concatenated one-hot encoding (== logit vector width).
    pub fn total_width(&self) -> usize {
        self.total_width
    }

    /// Bind the parameters as tape leaves for one training step. The same
    /// binding is reused across the several forward passes DPS performs.
    pub fn bind<'m>(&'m self, tape: &mut Tape, store: &ParamStore) -> BoundMade<'m> {
        let vars = self
            .layers
            .iter()
            .map(|l| {
                (
                    tape.leaf(store.value(l.w).clone()),
                    tape.leaf(store.value(l.b).clone()),
                )
            })
            .collect();
        BoundMade { made: self, vars }
    }

    /// Snapshot the effective (masked) weights for fast inference/sampling
    /// on the f32 kernel ([`ReferenceF32`]).
    pub fn freeze(&self, store: &ParamStore) -> FrozenMade {
        let layers = self
            .layers
            .iter()
            .map(|l| {
                let eff = store.value(l.w).mul_elem(&l.mask);
                (eff, store.value(l.b).clone())
            })
            .collect();
        FrozenMade::assemble(
            Arc::new(FrozenLayers {
                layers,
                residual: self.layers.iter().map(|l| l.residual).collect(),
            }),
            self.config.domain_sizes.clone(),
        )
    }
}

/// A MADE whose parameters are bound to tape leaves for one step.
pub struct BoundMade<'m> {
    made: &'m Made,
    /// Per layer: (weight var, bias var).
    vars: Vec<(Var, Var)>,
}

impl<'m> BoundMade<'m> {
    /// Forward pass on the tape: `input` (batch × total_width) → logits
    /// (batch × total_width). ReLU between layers, none after the last.
    pub fn forward(&self, tape: &mut Tape, input: Var) -> Var {
        let width = self.made.total_width;
        self.forward_cols(tape, input, width, 0..width)
    }

    /// Forward pass that evaluates the last layer for column `i`'s logit
    /// block only (batch × domain_size(i)) — what one DPS step reads. The
    /// block is bit-identical to that block of [`BoundMade::forward`].
    ///
    /// The first layer reads only the inputs of columns `< i`, the prefix
    /// `0..offset(i)`: by the masks, a first-layer unit that sees a later
    /// input has a degree no unit on the way to column `i`'s logits takes
    /// from, so the block's sums meet its value only times an exact zero
    /// weight, and its gradient is an exact `+0`.
    pub fn forward_column(&self, tape: &mut Tape, input: Var, i: usize) -> Var {
        let offset = self.made.offset(i);
        self.forward_cols(
            tape,
            input,
            offset,
            offset..offset + self.made.domain_size(i),
        )
    }

    /// The layer walk: the one-hot first layer on inputs `0..live`, hidden
    /// layers at full width, then logits `cols` of the output layer (which
    /// is never residual).
    fn forward_cols(&self, tape: &mut Tape, input: Var, live: usize, cols: Range<usize>) -> Var {
        let mut h = input;
        let last = self.vars.len() - 1;
        for (i, ((w, b), layer)) in self.vars.iter().zip(&self.made.layers).enumerate() {
            let out = if i == last {
                cols.clone()
            } else {
                0..layer.mask.rows()
            };
            let mask = Some(Rc::clone(&layer.mask));
            let lin = if i == 0 {
                tape.onehot_linear_cols(h, *w, *b, mask, live, out)
            } else {
                tape.masked_linear_cols(h, *w, *b, mask, out)
            };
            let pre = if layer.residual {
                tape.add(lin, h)
            } else {
                lin
            };
            h = if i != last { tape.relu(pre) } else { pre };
        }
        h
    }

    /// Logit block of column `i` from a full logits var.
    pub fn logits_of(&self, tape: &mut Tape, logits: Var, i: usize) -> Var {
        tape.slice_cols(logits, self.made.offset(i), self.made.domain_size(i))
    }

    /// After `tape.backward`, fold each parameter's gradient into the store.
    pub fn apply_grads(&self, tape: &Tape, store: &mut ParamStore) {
        for ((wv, bv), layer) in self.vars.iter().zip(&self.made.layers) {
            for (id, var) in [(layer.w, *wv), (layer.b, *bv)] {
                if let Some(g) = tape.grad_ref(var) {
                    store.accumulate_grad(id, g);
                }
            }
        }
    }
}

/// An immutable snapshot of a trained MADE for inference and sampling
/// (`Send + Sync`; safe to share across sampling threads).
///
/// A thin handle: the canonical f32 layer stack and the plans built from
/// it live in a shared [`ReferenceF32`], which executes every forward pass
/// (see [`crate::backend`]), so a clone copies no weights.
#[derive(Debug, Clone)]
pub struct FrozenMade {
    /// The kernel, owning the effective (masked) weights.
    kernel: Arc<ReferenceF32>,
    offsets: Vec<usize>,
    domain_sizes: Vec<usize>,
    total_width: usize,
}

impl FrozenMade {
    fn assemble(params: Arc<FrozenLayers>, domain_sizes: Vec<usize>) -> Self {
        let mut offsets = Vec::with_capacity(domain_sizes.len());
        let mut total = 0usize;
        for &d in &domain_sizes {
            offsets.push(total);
            total += d;
        }
        // The logit ranges this handle's forwards ask for: each column's
        // block, then the full width.
        let ranges: Vec<Range<usize>> = offsets
            .iter()
            .zip(&domain_sizes)
            .map(|(&o, &d)| o..o + d)
            .chain(std::iter::once(0..total))
            .collect();
        FrozenMade {
            kernel: Arc::new(ReferenceF32::new(params, &ranges)),
            offsets,
            domain_sizes,
            total_width: total,
        }
    }

    /// Reassemble from raw parts (model deserialisation). `layers` hold the
    /// *effective* (already masked) weights as `(out×in, 1×out)` pairs and
    /// `residual` one ResMADE flag per layer. The parts come from a file, so
    /// every shape the forward kernels rely on is checked here rather than
    /// asserted there: a non-empty stack, widths that chain from the one-hot
    /// input (`Σ domain_sizes`) back to logits of the same width, row-vector
    /// biases, and square layers wherever a residual skip adds input to
    /// output.
    pub fn from_parts(
        layers: Vec<(Matrix, Matrix)>,
        residual: Vec<bool>,
        domain_sizes: Vec<usize>,
    ) -> Result<Self, String> {
        if layers.is_empty() {
            return Err("model has no layers".into());
        }
        if residual.len() != layers.len() {
            return Err(format!(
                "{} residual flags for {} layers",
                residual.len(),
                layers.len()
            ));
        }
        let total: usize = domain_sizes.iter().sum();
        let mut width = total;
        for (i, ((w, b), &skip)) in layers.iter().zip(&residual).enumerate() {
            if w.cols() != width {
                return Err(format!(
                    "layer {i} takes {} inputs but its input is {width} wide",
                    w.cols()
                ));
            }
            if (b.rows(), b.cols()) != (1, w.rows()) {
                return Err(format!(
                    "layer {i} bias is {}x{}, expected 1x{}",
                    b.rows(),
                    b.cols(),
                    w.rows()
                ));
            }
            if skip && w.rows() != w.cols() {
                return Err(format!(
                    "layer {i} is residual but not square ({}x{})",
                    w.rows(),
                    w.cols()
                ));
            }
            width = w.rows();
        }
        if width != total {
            return Err(format!(
                "last layer emits {width} logits, domains need {total}"
            ));
        }
        Ok(Self::assemble(
            Arc::new(FrozenLayers { layers, residual }),
            domain_sizes,
        ))
    }

    /// Per-layer residual flags.
    pub fn residual_flags(&self) -> &[bool] {
        &self.kernel.params().residual
    }

    /// The effective (masked) layer weights and biases.
    pub fn layers(&self) -> &[(Matrix, Matrix)] {
        &self.kernel.params().layers
    }

    /// Number of modelled columns.
    pub fn num_columns(&self) -> usize {
        self.domain_sizes.len()
    }

    /// Domain size of column `i`.
    pub fn domain_size(&self, i: usize) -> usize {
        self.domain_sizes[i]
    }

    /// One-hot block offset of column `i`.
    pub fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Input/logits width.
    pub fn total_width(&self) -> usize {
        self.total_width
    }

    /// Forward pass: `input` (batch × total_width) → logits.
    pub fn forward(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(input.rows(), self.total_width);
        self.forward_batch_into(input, None, &mut out);
        out
    }

    /// Full-width forward of the rows with `live[r] == true` (every row for
    /// `None`); masked-out rows of `out` are left untouched. Per-row results
    /// are bit-identical to an unmasked forward.
    pub fn forward_batch_into(&self, input: &Matrix, live: Option<&[bool]>, out: &mut Matrix) {
        self.kernel
            .forward_cols_into(input, live, 0..self.total_width, out);
    }

    /// Forward the live rows of `input` for column `i`'s logit block only:
    /// `out[r, offset(i)..offset(i) + domain_size(i)]` of each live row is
    /// written with the bits of that block of [`FrozenMade::forward`];
    /// nothing else of `out` is touched (see
    /// [`ReferenceF32::forward_cols_into`]).
    pub fn forward_column_into(
        &self,
        input: &Matrix,
        live: Option<&[bool]>,
        i: usize,
        out: &mut Matrix,
    ) {
        let offset = self.offset(i);
        self.kernel
            .forward_cols_into(input, live, offset..offset + self.domain_size(i), out);
    }

    /// Make `carry` the first-layer sums of `rows` empty inputs: `rows ×`
    /// the first layer's width, all zero (the sum starts at zero; the bias
    /// is added after it). Keeps the allocation when the shape fits.
    pub fn reset_carry(&self, carry: &mut Matrix, rows: usize) {
        let width = self.layers()[0].0.rows();
        if (carry.rows(), carry.cols()) == (rows, width) {
            carry.clear();
        } else {
            *carry = Matrix::zeros(rows, width);
        }
    }

    /// Record input `pos` of row `r` as set to `1.0` in `carry` (from
    /// [`reset_carry`](FrozenMade::reset_carry)): adds row `pos` of the
    /// transposed first layer. Inputs must be set in ascending `pos`, which
    /// sampling column by column does.
    pub fn carry_onehot(&self, carry: &mut Matrix, r: usize, pos: usize) {
        for (o, &v) in carry.row_mut(r).iter_mut().zip(self.kernel.carry_row(pos)) {
            *o += v;
        }
    }

    /// [`forward_column_into`](FrozenMade::forward_column_into) of every row
    /// of a one-hot `input` whose first-layer sums were carried into `carry`
    /// by [`carry_onehot`](FrozenMade::carry_onehot): the same bits, without
    /// rescanning the input (see
    /// [`ReferenceF32::forward_carried_cols_into`]).
    pub fn forward_column_carried_into(
        &self,
        input: &Matrix,
        carry: &Matrix,
        i: usize,
        out: &mut Matrix,
    ) {
        let offset = self.offset(i);
        self.kernel.forward_carried_cols_into(
            input,
            carry,
            offset..offset + self.domain_size(i),
            out,
        );
    }

    /// Row-wise softmax of column `i`'s logit block.
    pub fn conditional_probs(&self, logits: &Matrix, i: usize) -> Matrix {
        let mut out = Matrix::zeros(logits.rows(), self.domain_sizes[i]);
        self.conditional_probs_masked_into(logits, i, &vec![true; logits.rows()], &mut out);
        out
    }

    /// Row-wise softmax of column `i`'s logit block for masked rows only,
    /// written into the leading `domain_size(i)` columns of the same rows
    /// of `out` (a `rows × max_domain` buffer). Masked-out rows are left
    /// untouched; a live row's arithmetic does not depend on the mask.
    pub fn conditional_probs_masked_into(
        &self,
        logits: &Matrix,
        i: usize,
        live: &[bool],
        out: &mut Matrix,
    ) {
        let off = self.offset(i);
        let d = self.domain_size(i);
        debug_assert!(out.cols() >= d);
        for (r, &row_live) in live.iter().enumerate().take(logits.rows()) {
            if !row_live {
                continue;
            }
            let row = &logits.row(r)[off..off + d];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            let dst = &mut out.row_mut(r)[..d];
            for (o, &v) in dst.iter_mut().zip(row) {
                let e = (v - m).exp();
                *o = e;
                sum += e;
            }
            let inv = 1.0 / sum.max(f32::MIN_POSITIVE);
            dst.iter_mut().for_each(|o| *o *= inv);
        }
    }

    /// Compatibility shim, the only one, with [`with_backend`](Self::with_backend)
    /// and [`BackendKind`]: `benchmark/src/layers.rs` still asks
    /// `model.net.as_made()` from when the backbone was an enum, and times
    /// `with_backend(kind)` for every kind of `BackendKind::ALL` from when
    /// there were three kernels. `benchmark/` is frozen for PRs that are not
    /// about the benchmark. Delete the three together with those calls.
    pub fn as_made(&self) -> Option<&FrozenMade> {
        Some(self)
    }

    /// Part of the [`as_made`](Self::as_made) compatibility shim: the model
    /// itself, since there is one kernel.
    #[doc(hidden)]
    pub fn with_backend(&self, _kind: BackendKind) -> FrozenMade {
        self.clone()
    }
}

/// Part of the [`FrozenMade::as_made`] compatibility shim: the one kernel,
/// under the name the frozen benchmark harness iterates over.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The f32 kernel, [`ReferenceF32`].
    ReferenceF32,
}

impl BackendKind {
    /// Every kind: the one kernel.
    pub const ALL: [BackendKind; 1] = [BackendKind::ReferenceF32];

    /// The name the benchmark keys its metric by.
    pub fn name(self) -> &'static str {
        "f32"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Made, ParamStore) {
        let mut store = ParamStore::new();
        let made = Made::new(
            MadeConfig {
                domain_sizes: vec![3, 2, 4],
                hidden: vec![16, 16],
                seed: 1,
                residual: false,
            },
            &mut store,
        );
        (made, store)
    }

    #[test]
    fn offsets_and_widths() {
        let (made, _) = tiny();
        assert_eq!(made.total_width(), 9);
        assert_eq!(made.offset(0), 0);
        assert_eq!(made.offset(1), 3);
        assert_eq!(made.offset(2), 5);
    }

    /// The defining MADE property: logits of column i are invariant to
    /// changes in the inputs of columns >= i.
    #[test]
    fn autoregressive_property() {
        let (made, store) = tiny();
        let frozen = made.freeze(&store);
        let mut base = Matrix::zeros(1, 9);
        base.set(0, 0, 1.0); // col 0 = code 0
        base.set(0, 3, 1.0); // col 1 = code 0
        base.set(0, 5, 1.0); // col 2 = code 0
        let l1 = frozen.forward(&base);

        // Perturb column 2's encoding: logits of cols 0, 1 must not change.
        let mut alt = base.clone();
        alt.set(0, 5, 0.0);
        alt.set(0, 8, 1.0);
        let l2 = frozen.forward(&alt);
        for j in 0..5 {
            assert!(
                (l1.get(0, j) - l2.get(0, j)).abs() < 1e-6,
                "logit {j} leaked from column 2"
            );
        }

        // Perturb column 1: logits of col 0 unchanged, col 2 may change.
        let mut alt = base.clone();
        alt.set(0, 3, 0.0);
        alt.set(0, 4, 1.0);
        let l3 = frozen.forward(&alt);
        for j in 0..3 {
            assert!((l1.get(0, j) - l3.get(0, j)).abs() < 1e-6);
        }

        // Column 0's logits are input-independent entirely.
        let mut rnd = Matrix::zeros(1, 9);
        for j in 0..9 {
            rnd.set(0, j, 0.37 * (j as f32 + 1.0));
        }
        let l4 = frozen.forward(&rnd);
        for j in 0..3 {
            assert!((l1.get(0, j) - l4.get(0, j)).abs() < 1e-5);
        }
    }

    #[test]
    fn tape_forward_matches_frozen() {
        let (made, store) = tiny();
        let frozen = made.freeze(&store);
        let mut input = Matrix::zeros(2, 9);
        input.set(0, 1, 1.0);
        input.set(1, 2, 1.0);
        input.set(1, 4, 1.0);
        let expected = frozen.forward(&input);

        let mut tape = Tape::new();
        let bound = made.bind(&mut tape, &store);
        let iv = tape.leaf(input);
        let logits = bound.forward(&mut tape, iv);
        let got = tape.value(logits);
        for r in 0..2 {
            for c in 0..9 {
                assert!((got.get(r, c) - expected.get(r, c)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn conditional_probs_are_normalised() {
        let (made, store) = tiny();
        let frozen = made.freeze(&store);
        let input = Matrix::zeros(3, 9);
        let logits = frozen.forward(&input);
        for i in 0..3 {
            let p = frozen.conditional_probs(&logits, i);
            for r in 0..p.rows() {
                let s: f32 = p.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-5, "col {i} row {r} sums to {s}");
                assert!(p.row(r).iter().all(|&x| x >= 0.0));
            }
        }
    }

    #[test]
    fn single_column_model_is_bias_only() {
        let mut store = ParamStore::new();
        let made = Made::new(
            MadeConfig {
                domain_sizes: vec![5],
                hidden: vec![8],
                seed: 3,
                residual: false,
            },
            &mut store,
        );
        let frozen = made.freeze(&store);
        let a = frozen.forward(&Matrix::zeros(1, 5));
        let mut onehot = Matrix::zeros(1, 5);
        onehot.set(0, 2, 1.0);
        let b = frozen.forward(&onehot);
        for j in 0..5 {
            assert!(
                (a.get(0, j) - b.get(0, j)).abs() < 1e-6,
                "1-column model must ignore its input"
            );
        }
    }

    #[test]
    fn gradients_flow_into_all_layers() {
        let (made, mut store) = tiny();
        let mut tape = Tape::new();
        let bound = made.bind(&mut tape, &store);
        let mut input = Matrix::zeros(1, 9);
        input.set(0, 0, 1.0);
        let iv = tape.leaf(input);
        let logits = bound.forward(&mut tape, iv);
        // Train column 2's block toward something.
        let block = bound.logits_of(&mut tape, logits, 2);
        let p = tape.softmax_rows(block, 1.0);
        let s = tape.row_dot_const(p, Rc::new(vec![1.0, 0.0, 0.0, 0.0]));
        let loss = tape.sq_err_mean(s, Rc::new(vec![1.0]));
        tape.backward(loss);
        bound.apply_grads(&tape, &mut store);
        // At least the output layer and one hidden layer must have signal.
        let grads: Vec<f32> = (0..store.len())
            .map(|i| store.grad(ParamId(i)).norm_sq())
            .collect();
        assert!(grads.iter().sum::<f32>() > 0.0);
    }
}

#[cfg(test)]
mod resmade_tests {
    use super::*;

    #[test]
    fn residual_made_keeps_autoregressive_property() {
        let mut store = ParamStore::new();
        let made = Made::new(
            MadeConfig {
                domain_sizes: vec![3, 2, 4],
                hidden: vec![20, 20, 20],
                seed: 8,
                residual: true,
            },
            &mut store,
        );
        let frozen = made.freeze(&store);
        // Residual flags: first hidden layer no, subsequent equal-width
        // hidden layers yes, output layer no.
        assert_eq!(frozen.residual_flags(), &[false, true, true, false]);

        let base = Matrix::zeros(1, 9);
        let l1 = frozen.forward(&base);
        let mut alt = base.clone();
        alt.set(0, 5, 1.0); // perturb column 2
        let l2 = frozen.forward(&alt);
        for j in 0..5 {
            assert!(
                (l1.get(0, j) - l2.get(0, j)).abs() < 1e-6,
                "residual skip leaked column 2 into logit {j}"
            );
        }
    }

    #[test]
    fn residual_tape_forward_matches_frozen() {
        let mut store = ParamStore::new();
        let made = Made::new(
            MadeConfig {
                domain_sizes: vec![2, 3],
                hidden: vec![12, 12],
                seed: 3,
                residual: true,
            },
            &mut store,
        );
        let frozen = made.freeze(&store);
        let mut input = Matrix::zeros(2, 5);
        input.set(0, 0, 1.0);
        input.set(1, 1, 1.0);
        let expected = frozen.forward(&input);

        let mut tape = Tape::new();
        let bound = made.bind(&mut tape, &store);
        let iv = tape.leaf(input);
        let logits = bound.forward(&mut tape, iv);
        let got = tape.value(logits);
        for r in 0..2 {
            for c in 0..5 {
                assert!((got.get(r, c) - expected.get(r, c)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn mismatched_widths_disable_residual() {
        let mut store = ParamStore::new();
        let made = Made::new(
            MadeConfig {
                domain_sizes: vec![2, 2],
                hidden: vec![8, 16],
                seed: 1,
                residual: true,
            },
            &mut store,
        );
        let frozen = made.freeze(&store);
        assert_eq!(frozen.residual_flags(), &[false, false, false]);
    }
}
