//! Reverse-mode automatic differentiation over matrices.
//!
//! A [`Tape`] records a DAG of matrix ops; [`Tape::backward`] walks it in
//! reverse, accumulating gradients. The op set is exactly what Differentiable
//! Progressive Sampling (paper §4.1) requires: masked linear layers,
//! ReLU, temperature softmax (for Gumbel-Softmax), addition of a node
//! (ResMADE skips, the sum of log factors) or a constant (Gumbel noise),
//! addition of a node into a block of columns (the progressively filled
//! input), column slicing/padding (per-column logit blocks), constant
//! row-dots (in-range mass and expected inverse fanout), logs, and a
//! mean-squared-error head on log cardinalities.
//!
//! The progressive input of column `i + 1` is column `i`'s, plus its sample
//! added into the column's block: [`Tape::add_cols`], one pass forward, the
//! whole gradient handed to the previous input and the block's columns to
//! the sample backward. It has the bits of [`Tape::pad_cols`] then
//! [`Tape::add`], which build the same input in three passes and hand the
//! padded node a full-width gradient it reads one block of; either form is
//! a progressive input to the one-hot first layer's carried sums.
//!
//! A step of DPS runs the same weight leaves through one forward per model
//! column, so the tape keeps what is constant per step: the first masked
//! linear on a weight packs `w ∘ mask`. A layer may compute only some of its
//! output units and read only some of its input units
//! ([`Tape::masked_linear_units`]), which is how a column's forward visits
//! only the hidden units its logits read: each use gathers its compact block
//! of the pack into one reused buffer, padded for the register tile, and its
//! forward and input gradient run on the tile ([`dense_tiled`],
//! [`matmul_tiled`]) over that block, and so does its weight gradient. The
//! tile has the serial dot product's bits on finite values; training refuses
//! a non-finite parameter, so the precondition holds on every step it keeps.
//! The one-hot first layer ([`Tape::onehot_linear_units`]) walks its input's non-zeros
//! instead, and carries its sums from one progressive input to the next, so
//! a progressively filled input is never summed or rescanned twice.

use crate::backend::{dense_tiled, gather, matmul_tiled, TileIsa, TILE_PAD};
use crate::matrix::Matrix;
use std::ops::Range;
use std::rc::Rc;

/// Handle to a tape node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    Leaf,
    /// Units `outs` of `y = x @ (w ∘ mask)ᵀ + b` with `w: out×in`,
    /// `b: 1×out`; `w` and `mask` are those of `packed[pack]`, and `input`
    /// says what `x` holds of the layer's input.
    MaskedLinear {
        x: Var,
        b: Var,
        pack: usize,
        input: Input,
        outs: Rc<[usize]>,
    },
    Relu(Var),
    /// Row-wise `softmax(x / temp)`.
    SoftmaxRows {
        x: Var,
        temp: f32,
    },
    Add(Var, Var),
    /// `y = x + c` for a constant matrix (gradient passes through to `x`).
    AddConst {
        x: Var,
    },
    /// Columns `start..start+width` of `x`.
    SliceCols {
        x: Var,
        start: usize,
    },
    /// `x` placed at column `offset` inside a zero matrix of width `total`.
    PadCols {
        x: Var,
        offset: usize,
    },
    /// `x` plus `y` added into columns `offset..offset + y.cols()`: the
    /// progressive input, `add(x, pad_cols(y, offset, x.cols()))` in one op.
    AddCols {
        x: Var,
        y: Var,
        offset: usize,
    },
    /// Per-row dot with a constant weight vector: `y[i] = Σ_j x[i,j]·w[j]`.
    RowDotConst {
        x: Var,
        w: Rc<Vec<f32>>,
    },
    /// Per-row dot with a constant weight *matrix*: `y[i] = Σ_j x[i,j]·W[i,j]`
    /// (each batch row has its own weights — batches mix queries with
    /// different predicate masks).
    RowDotRows {
        x: Var,
        w: Rc<Matrix>,
    },
    /// Elementwise `ln(x + eps)`.
    Log {
        x: Var,
        eps: f32,
    },
    /// Scalar `mean((x[i,0] - target[i])²)`.
    SqErrMeanConst {
        x: Var,
        target: Rc<Vec<f32>>,
    },
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    /// The sums a one-hot layer built on this value, until the next
    /// progressive input takes them over.
    carry: Option<Carry>,
}

/// What a masked linear layer reads of its input `x`.
#[derive(Clone)]
enum Input {
    /// `x` holds units `ins` of the layer's input, ascending, one a column.
    Units(Rc<[usize]>),
    /// `x` is one-hot, and its inputs `0..prefix.live` enter.
    OneHot(Rc<Prefix>),
}

/// Where a value is non-zero within a range of its columns: per row,
/// ascending column positions.
struct Nonzeros {
    /// Row `r`'s positions are `pos[starts[r]..starts[r + 1]]`.
    starts: Vec<usize>,
    pos: Vec<usize>,
}

impl Nonzeros {
    fn row(&self, r: usize) -> &[usize] {
        &self.pos[self.starts[r]..self.starts[r + 1]]
    }

    /// The non-zero positions of `m`'s columns `cols`, in one pass.
    fn scan(m: &Matrix, cols: Range<usize>) -> Nonzeros {
        let mut nz = Nonzeros {
            starts: vec![0],
            pos: Vec::new(),
        };
        for r in 0..m.rows() {
            let row = m.row(r);
            nz.pos.extend(cols.clone().filter(|&c| row[c] != 0.0));
            nz.starts.push(nz.pos.len());
        }
        nz
    }
}

/// Where a one-hot input's columns `0..live` are non-zero: one segment per
/// extension of the carry, the segments over ascending ranges of columns.
struct Prefix {
    live: usize,
    nonzeros: Vec<Rc<Nonzeros>>,
}

/// A one-hot layer's pre-bias sums over its input's `prefix`: `sums[r, u]`
/// adds `x[r, p] · effᵀ[p, u]` over row `r`'s non-zero inputs `p`, in
/// ascending order from `+0`, for every output `u` of the layer.
struct Carry {
    pack: usize,
    prefix: Rc<Prefix>,
    sums: Matrix,
}

/// A weight node's effective matrices, built by the first masked linear on
/// it and used by every later forward and backward of the step. Node values
/// are immutable once recorded, so a pack cannot go stale.
struct Pack {
    w: Var,
    mask: Option<Rc<Matrix>>,
    /// `w ∘ mask` (`out×in`): every use gathers its compact block from it.
    eff: Matrix,
    /// `effᵀ` (`in×out`), built by the first one-hot use: a carry adds up
    /// its rows.
    eff_t: Option<Matrix>,
}

/// The gradient tape.
pub struct Tape {
    nodes: Vec<Node>,
    packed: Vec<Pack>,
    /// The instance of the register tile this CPU runs.
    isa: TileIsa,
    /// What one use's product on the tile reads, padded for it and rebuilt
    /// for each use: a compact block of a pack, or a dense input.
    compact: Matrix,
    /// Per input of a one-hot layer, the row of its weight-gradient sums in
    /// the use being walked back (`usize::MAX` between uses).
    slot_of: Vec<usize>,
}

impl Default for Tape {
    fn default() -> Self {
        Tape {
            nodes: Vec::new(),
            packed: Vec::new(),
            isa: TileIsa::detect(),
            compact: Matrix::default(),
            slot_of: Vec::new(),
        }
    }
}

impl Tape {
    /// Empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff no nodes are recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            carry: None,
        });
        Var(self.nodes.len() - 1)
    }

    /// Record a leaf (input or parameter) node.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of a node (zeros if it never received one).
    pub fn grad(&self, v: Var) -> Matrix {
        match self.grad_ref(v) {
            Some(g) => g.clone(),
            None => Matrix::zeros(self.nodes[v.0].value.rows(), self.nodes[v.0].value.cols()),
        }
    }

    /// The accumulated gradient of a node, `None` if it never received one.
    pub(crate) fn grad_ref(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Index of `w`'s pack, building it on first use.
    ///
    /// # Panics
    /// Panics if `w` is already packed with a different mask (another `Rc`,
    /// or `Some` against `None`): reusing the pack would multiply through the
    /// wrong weights.
    fn pack(&mut self, w: Var, mask: Option<Rc<Matrix>>) -> usize {
        if let Some(i) = self.packed.iter().position(|p| p.w == w) {
            let same = match (&self.packed[i].mask, &mask) {
                (None, None) => true,
                (Some(a), Some(b)) => Rc::ptr_eq(a, b),
                _ => false,
            };
            assert!(
                same,
                "masked_linear: weight node {} was already used with a different mask",
                w.0
            );
            return i;
        }
        let wv = &self.nodes[w.0].value;
        let eff = match &mask {
            Some(m) => wv.mul_elem(m),
            None => wv.clone(),
        };
        self.packed.push(Pack {
            w,
            mask,
            eff,
            eff_t: None,
        });
        self.packed.len() - 1
    }

    /// `x @ (w ∘ mask)ᵀ + b`. `mask` (same shape as `w`) freezes connections
    /// — the MADE autoregressive masks. Every use of one `w` on a tape must
    /// pass the same mask.
    pub fn masked_linear(&mut self, x: Var, w: Var, b: Var, mask: Option<Rc<Matrix>>) -> Var {
        let out = self.nodes[w.0].value.rows();
        self.masked_linear_cols(x, w, b, mask, 0..out)
    }

    /// Columns `cols` of [`Tape::masked_linear`]'s output (`batch × cols.len()`),
    /// each element computed exactly as the full-width op computes it; the
    /// backward touches only rows `cols` of the `w` and `b` gradients.
    pub fn masked_linear_cols(
        &mut self,
        x: Var,
        w: Var,
        b: Var,
        mask: Option<Rc<Matrix>>,
        cols: Range<usize>,
    ) -> Var {
        let ins = (0..self.nodes[x.0].value.cols()).collect();
        self.masked_linear_units(x, w, b, mask, ins, cols.collect())
    }

    /// Units `outs` of [`Tape::masked_linear`]'s output (`batch × outs.len()`)
    /// for an `x` that holds units `ins` of the layer's input
    /// (`batch × ins.len()`), both ascending. Where `mask` is zero on every
    /// weight that joins a unit left out of `ins` to a unit of `outs`, each
    /// element has the bits of the full-width op on any input with `x`'s
    /// values at `ins`: a term left out is a finite value times `±0`, which
    /// leaves a sum that starts at `+0` as it is. The backward touches only
    /// rows `outs` and columns `ins` of the `w` gradient and units `outs` of
    /// the `b` gradient; the rest of a full-width use's gradient there is
    /// such a `±0` term, or a product with a zero mask.
    pub fn masked_linear_units(
        &mut self,
        x: Var,
        w: Var,
        b: Var,
        mask: Option<Rc<Matrix>>,
        ins: Rc<[usize]>,
        outs: Rc<[usize]>,
    ) -> Var {
        let pack = self.pack(w, mask);
        let bias = self.bias(b, pack, &outs);
        let xv = &self.nodes[x.0].value;
        assert_eq!(xv.cols(), ins.len(), "input width must equal its units");
        gather(&mut self.compact, &self.packed[pack].eff, &outs, &ins, true);
        let y = dense_tiled(
            self.isa,
            xv,
            &self.compact,
            0..outs.len(),
            &bias,
            false,
            false,
        );
        let input = Input::Units(ins);
        self.push(
            y,
            Op::MaskedLinear {
                x,
                b,
                pack,
                input,
                outs,
            },
        )
    }

    /// [`Tape::onehot_linear_units`] for output columns `cols`.
    pub fn onehot_linear_cols(
        &mut self,
        x: Var,
        w: Var,
        b: Var,
        mask: Option<Rc<Matrix>>,
        live: usize,
        cols: Range<usize>,
    ) -> Var {
        self.onehot_linear_units(x, w, b, mask, live, cols.collect())
    }

    /// [`Tape::masked_linear_units`] of `x`'s first `live` columns only (the
    /// rest neither enter the sum nor receive a gradient), for a one-hot
    /// input: the layer's pre-bias sums at every output add the rows of
    /// `effᵀ` at each row's non-zero inputs, in ascending order from `+0`,
    /// which is the dense sum less its exact-zero terms, and units `outs` of
    /// the result are those sums plus the bias. The weight gradient likewise
    /// visits only those inputs.
    ///
    /// The sums are carried: when `x` is a progressive input `a + pad(y)`
    /// ([`Tape::add_cols`], or [`Tape::add`] of a [`Tape::pad_cols`]) and
    /// this layer has summed `a` up to an input at or below the block's
    /// offset, `x`'s sums start from `a`'s and add only `x`'s non-zeros from
    /// there to `live`. Below the block `x` is `a` plus `+0`, so the terms
    /// and their order are those of the whole sum.
    pub fn onehot_linear_units(
        &mut self,
        x: Var,
        w: Var,
        b: Var,
        mask: Option<Rc<Matrix>>,
        live: usize,
        outs: Rc<[usize]>,
    ) -> Var {
        let pack = self.pack(w, mask);
        let bias = self.bias(b, pack, &outs);
        let (prefix, sums) = self.carry(x, pack, live);
        let mut y = Matrix::zeros(sums.rows(), outs.len());
        for r in 0..sums.rows() {
            let sum = sums.row(r);
            for ((o, &u), &bb) in y.row_mut(r).iter_mut().zip(outs.iter()).zip(&bias) {
                *o = sum[u] + bb;
            }
        }
        let input = Input::OneHot(prefix);
        self.push(
            y,
            Op::MaskedLinear {
                x,
                b,
                pack,
                input,
                outs,
            },
        )
    }

    /// Units `outs` of bias `b`, checked against `pack`'s output width.
    fn bias(&self, b: Var, pack: usize, outs: &[usize]) -> Vec<f32> {
        let bv = &self.nodes[b.0].value;
        assert_eq!(bv.rows(), 1, "bias must be a row vector");
        assert_eq!(
            bv.cols(),
            self.packed[pack].eff.rows(),
            "bias width must equal out features"
        );
        outs.iter().map(|&u| bv.get(0, u)).collect()
    }

    /// The sums of `pack`'s one-hot layer over inputs `0..live` of `x`,
    /// carried over from `x`'s left term when `x` is a progressive input
    /// (see [`Tape::onehot_linear_units`]), else from `+0`; they stay
    /// on `x` for the next input to take over.
    fn carry(&mut self, x: Var, pack: usize, live: usize) -> (Rc<Prefix>, &Matrix) {
        let mut base = None;
        if let Some((a, offset)) = self.progressive(x) {
            let fits = |c: &Carry| c.pack == pack && c.prefix.live <= offset.min(live);
            if self.nodes[a.0].carry.as_ref().is_some_and(fits) {
                base = self.nodes[a.0].carry.take();
            }
        }
        let xv = &self.nodes[x.0].value;
        assert!(live <= xv.cols(), "live prefix out of range");
        let Pack { eff, eff_t, .. } = &mut self.packed[pack];
        let eff_t = eff_t.get_or_insert_with(|| eff.transpose());
        let (mut sums, mut nonzeros, from) = match base {
            Some(c) => (c.sums, c.prefix.nonzeros.clone(), c.prefix.live),
            None => (Matrix::zeros(xv.rows(), eff.rows()), Vec::new(), 0),
        };
        let added = Nonzeros::scan(xv, from..live);
        for r in 0..xv.rows() {
            let sum = sums.row_mut(r);
            for &p in added.row(r) {
                let a = xv.get(r, p);
                for (o, &wv) in sum.iter_mut().zip(eff_t.row(p)) {
                    *o += a * wv;
                }
            }
        }
        nonzeros.push(Rc::new(added));
        let prefix = Rc::new(Prefix { live, nonzeros });
        let carry = self.nodes[x.0].carry.insert(Carry {
            pack,
            prefix: Rc::clone(&prefix),
            sums,
        });
        (prefix, &carry.sums)
    }

    /// The left term and the block's offset when `x` is a progressive
    /// input: [`Tape::add_cols`], or [`Tape::add`] of a [`Tape::pad_cols`].
    fn progressive(&self, x: Var) -> Option<(Var, usize)> {
        match self.nodes[x.0].op {
            Op::AddCols { x: a, offset, .. } => Some((a, offset)),
            Op::Add(a, padded) => match self.nodes[padded.0].op {
                Op::PadCols { offset, .. } => Some((a, offset)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Elementwise `max(x, 0)`.
    pub fn relu(&mut self, x: Var) -> Var {
        let y = self.nodes[x.0].value.map(|v| v.max(0.0));
        self.push(y, Op::Relu(x))
    }

    /// Row-wise temperature softmax (numerically stabilised).
    pub fn softmax_rows(&mut self, x: Var, temp: f32) -> Var {
        let xv = &self.nodes[x.0].value;
        let mut y = Matrix::zeros(xv.rows(), xv.cols());
        for r in 0..xv.rows() {
            let row = xv.row(r);
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            let out = y.row_mut(r);
            for (o, &v) in out.iter_mut().zip(row) {
                let e = ((v - m) / temp).exp();
                *o = e;
                sum += e;
            }
            let inv = 1.0 / sum.max(f32::MIN_POSITIVE);
            out.iter_mut().for_each(|o| *o *= inv);
        }
        self.push(y, Op::SoftmaxRows { x, temp })
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut y = self.nodes[a.0].value.clone();
        y.add_assign(&self.nodes[b.0].value);
        self.push(y, Op::Add(a, b))
    }

    /// `x + c` for a constant matrix.
    pub fn add_const(&mut self, x: Var, c: Rc<Matrix>) -> Var {
        let mut y = self.nodes[x.0].value.clone();
        y.add_assign(&c);
        self.push(y, Op::AddConst { x })
    }

    /// Columns `start..start+width` of `x`.
    pub fn slice_cols(&mut self, x: Var, start: usize, width: usize) -> Var {
        let xv = &self.nodes[x.0].value;
        assert!(start + width <= xv.cols(), "slice out of range");
        let y = Matrix::from_fn(xv.rows(), width, |r, c| xv.get(r, start + c));
        self.push(y, Op::SliceCols { x, start })
    }

    /// `x + pad_cols(y, offset, x.cols())` with that pair's bits, in one op
    /// and one pass: every element is `a + b`, with `b` from `y` inside the
    /// block and `+0` outside it, so a `−0` of `x` becomes `+0` there as the
    /// padded sum makes it. The backward hands `x` the whole gradient as
    /// [`Tape::add`] does and `y` its block of columns, at the turn in the
    /// reverse walk at which a padded node recorded just before the add
    /// would have.
    pub fn add_cols(&mut self, x: Var, y: Var, offset: usize) -> Var {
        let (xv, yv) = (&self.nodes[x.0].value, &self.nodes[y.0].value);
        let (total, width) = (xv.cols(), yv.cols());
        assert_eq!(xv.rows(), yv.rows(), "add_cols: row count mismatch");
        assert!(offset + width <= total, "add_cols: block out of range");
        let plus_zero = |v: &f32| v + 0.0;
        let mut out = Vec::with_capacity(xv.len());
        for r in 0..xv.rows() {
            let (a, b) = (xv.row(r), yv.row(r));
            out.extend(a[..offset].iter().map(plus_zero));
            out.extend(a[offset..offset + width].iter().zip(b).map(|(a, b)| a + b));
            out.extend(a[offset + width..].iter().map(plus_zero));
        }
        let value = Matrix::from_vec(xv.rows(), total, out);
        self.push(value, Op::AddCols { x, y, offset })
    }

    /// `x` embedded at column `offset` of a zero matrix with `total` columns.
    pub fn pad_cols(&mut self, x: Var, offset: usize, total: usize) -> Var {
        let xv = &self.nodes[x.0].value;
        assert!(offset + xv.cols() <= total, "pad out of range");
        let mut y = Matrix::zeros(xv.rows(), total);
        for r in 0..xv.rows() {
            let src = xv.row(r);
            y.row_mut(r)[offset..offset + src.len()].copy_from_slice(src);
        }
        self.push(y, Op::PadCols { x, offset })
    }

    /// `y[i] = Σ_j x[i,j]·w[j]` as a `batch×1` column.
    pub fn row_dot_const(&mut self, x: Var, w: Rc<Vec<f32>>) -> Var {
        let xv = &self.nodes[x.0].value;
        assert_eq!(xv.cols(), w.len(), "weight length mismatch");
        let y = Matrix::from_fn(xv.rows(), 1, |r, _| {
            xv.row(r).iter().zip(w.iter()).map(|(a, b)| a * b).sum()
        });
        self.push(y, Op::RowDotConst { x, w })
    }

    /// `y[i] = Σ_j x[i,j]·W[i,j]` as a `batch×1` column (per-row weights).
    pub fn row_dot_rows(&mut self, x: Var, w: Rc<Matrix>) -> Var {
        let xv = &self.nodes[x.0].value;
        assert_eq!(
            (xv.rows(), xv.cols()),
            (w.rows(), w.cols()),
            "weight matrix shape mismatch"
        );
        let y = Matrix::from_fn(xv.rows(), 1, |r, _| {
            xv.row(r).iter().zip(w.row(r)).map(|(a, b)| a * b).sum()
        });
        self.push(y, Op::RowDotRows { x, w })
    }

    /// Elementwise `ln(x + eps)`.
    pub fn log(&mut self, x: Var, eps: f32) -> Var {
        let y = self.nodes[x.0].value.map(|v| (v + eps).ln());
        self.push(y, Op::Log { x, eps })
    }

    /// Scalar loss `mean_i (x[i,0] - target[i])²`.
    pub fn sq_err_mean(&mut self, x: Var, target: Rc<Vec<f32>>) -> Var {
        let xv = &self.nodes[x.0].value;
        assert_eq!(xv.cols(), 1, "loss input must be a column");
        assert_eq!(xv.rows(), target.len(), "target length mismatch");
        let n = target.len().max(1) as f32;
        let mse = xv
            .data()
            .iter()
            .zip(target.iter())
            .map(|(a, t)| (a - t) * (a - t))
            .sum::<f32>()
            / n;
        self.push(
            Matrix::from_vec(1, 1, vec![mse]),
            Op::SqErrMeanConst { x, target },
        )
    }

    fn accumulate(&mut self, v: Var, g: Matrix) {
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// [`Tape::accumulate`] of `g` into the first `g.cols()` columns of `v`'s
    /// gradient. The columns past them would add `+0`, which leaves any value
    /// but `−0` as it was, and a gradient built of sums that start at `+0`
    /// is never `−0`.
    fn accumulate_prefix(&mut self, v: Var, g: &Matrix) {
        let (rows, cols) = (self.nodes[v.0].value.rows(), self.nodes[v.0].value.cols());
        let slot = self.nodes[v.0]
            .grad
            .get_or_insert_with(|| Matrix::zeros(rows, cols));
        for r in 0..rows {
            for (o, &d) in slot.row_mut(r).iter_mut().zip(g.row(r)) {
                *o += d;
            }
        }
    }

    /// [`Tape::accumulate`] for a gradient that passes through unchanged.
    fn accumulate_ref(&mut self, v: Var, g: &Matrix) {
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_assign(g),
            slot @ None => *slot = Some(g.clone()),
        }
    }

    /// Run backpropagation from a scalar (`1×1`) root.
    pub fn backward(&mut self, root: Var) {
        let rv = &self.nodes[root.0].value;
        assert_eq!(
            (rv.rows(), rv.cols()),
            (1, 1),
            "backward root must be scalar"
        );
        self.nodes[root.0].grad = Some(Matrix::full(1, 1, 1.0));

        for i in (0..=root.0).rev() {
            // Moved out while the node's inputs (all at lower indices) take
            // their share, put back below so that `grad` keeps answering.
            let Some(g) = self.nodes[i].grad.take() else {
                continue;
            };
            // Decompose op without holding a borrow across accumulate calls.
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::MaskedLinear {
                    x,
                    b,
                    pack,
                    input,
                    outs,
                } => {
                    let (x, b, input, outs) = (*x, *b, input.clone(), Rc::clone(outs));
                    let pack = &self.packed[*pack];
                    let (out, inp, w) = (pack.eff.rows(), pack.eff.cols(), pack.w);
                    // This use's weight gradient is complete (summed over the
                    // batch) before it joins the other uses', masked.
                    let mut gw_leaf = self.nodes[w.0]
                        .grad
                        .take()
                        .unwrap_or_else(|| Matrix::zeros(out, inp));
                    let (xv, mask) = (&self.nodes[x.0].value, pack.mask.as_deref());
                    // The weight gradient, then the input gradient
                    // `g @ eff[outs, ins]` on the tile.
                    let gx = match &input {
                        Input::OneHot(prefix) => {
                            let (live, nonzeros) = (prefix.live, &prefix.nonzeros);
                            let slot_of = &mut self.slot_of;
                            onehot_weight_grad(
                                &g,
                                xv,
                                nonzeros,
                                &outs,
                                mask,
                                slot_of,
                                &mut gw_leaf,
                            );
                            self.compact.reset(outs.len(), live + TILE_PAD);
                            for (k, &u) in outs.iter().enumerate() {
                                self.compact.row_mut(k)[..live]
                                    .copy_from_slice(&pack.eff.row(u)[..live]);
                            }
                            matmul_tiled(self.isa, &g, &self.compact, 0..outs.len(), 0..live)
                        }
                        Input::Units(ins) => {
                            let padded = &mut self.compact;
                            dense_weight_grad(
                                self.isa,
                                &g,
                                xv,
                                ins,
                                &outs,
                                mask,
                                padded,
                                &mut gw_leaf,
                            );
                            gather(&mut self.compact, &pack.eff, &outs, ins, false);
                            matmul_tiled(self.isa, &g, &self.compact, 0..outs.len(), 0..ins.len())
                        }
                    };
                    self.nodes[w.0].grad = Some(gw_leaf);
                    let mut gb = vec![0.0f32; outs.len()];
                    for r in 0..g.rows() {
                        for (o, &v) in gb.iter_mut().zip(g.row(r)) {
                            *o += v;
                        }
                    }
                    let gb_leaf = self.nodes[b.0]
                        .grad
                        .get_or_insert_with(|| Matrix::zeros(1, out));
                    for (&u, &v) in outs.iter().zip(&gb) {
                        gb_leaf.row_mut(0)[u] += v;
                    }
                    match input {
                        Input::OneHot(_) => self.accumulate_prefix(x, &gx),
                        Input::Units(_) => self.accumulate(x, gx),
                    }
                }
                Op::Relu(x) => {
                    let x = *x;
                    let xv = &self.nodes[x.0].value;
                    let pass = |(&g, &x): (&f32, &f32)| if x > 0.0 { g } else { 0.0 };
                    let gx = g.data().iter().zip(xv.data()).map(pass).collect();
                    self.accumulate(x, Matrix::from_vec(g.rows(), g.cols(), gx));
                }
                Op::SoftmaxRows { x, temp } => {
                    let (x, temp) = (*x, *temp);
                    let yv = &self.nodes[i].value;
                    let mut gx = Matrix::zeros(g.rows(), g.cols());
                    for r in 0..g.rows() {
                        let gr = g.row(r);
                        let yr = yv.row(r);
                        let dot: f32 = gr.iter().zip(yr).map(|(a, b)| a * b).sum();
                        let out = gx.row_mut(r);
                        for ((o, &gi), &yi) in out.iter_mut().zip(gr).zip(yr) {
                            *o = yi * (gi - dot) / temp;
                        }
                    }
                    self.accumulate(x, gx);
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    self.accumulate_ref(a, &g);
                    self.accumulate_ref(b, &g);
                }
                Op::AddConst { x } => {
                    let x = *x;
                    self.accumulate_ref(x, &g);
                }
                Op::AddCols { x, y, offset } => {
                    let (x, y, offset) = (*x, *y, *offset);
                    self.accumulate_ref(x, &g);
                    let w = self.nodes[y.0].value.cols();
                    let gy = Matrix::from_fn(g.rows(), w, |r, c| g.get(r, offset + c));
                    self.accumulate(y, gy);
                }
                Op::SliceCols { x, start } => {
                    let (x, start) = (*x, *start);
                    let xv = &self.nodes[x.0].value;
                    let mut gx = Matrix::zeros(xv.rows(), xv.cols());
                    for r in 0..g.rows() {
                        let src = g.row(r);
                        gx.row_mut(r)[start..start + src.len()].copy_from_slice(src);
                    }
                    self.accumulate(x, gx);
                }
                Op::PadCols { x, offset } => {
                    let (x, offset) = (*x, *offset);
                    let xv = &self.nodes[x.0].value;
                    let w = xv.cols();
                    let gx = Matrix::from_fn(xv.rows(), w, |r, c| g.get(r, offset + c));
                    self.accumulate(x, gx);
                }
                Op::RowDotConst { x, w } => {
                    let (x, w) = (*x, Rc::clone(w));
                    let xv = &self.nodes[x.0].value;
                    let gx = Matrix::from_fn(xv.rows(), xv.cols(), |r, c| g.get(r, 0) * w[c]);
                    self.accumulate(x, gx);
                }
                Op::RowDotRows { x, w } => {
                    let (x, w) = (*x, Rc::clone(w));
                    let xv = &self.nodes[x.0].value;
                    let gx =
                        Matrix::from_fn(xv.rows(), xv.cols(), |r, c| g.get(r, 0) * w.get(r, c));
                    self.accumulate(x, gx);
                }
                Op::Log { x, eps } => {
                    let (x, eps) = (*x, *eps);
                    let xv = &self.nodes[x.0].value;
                    let gx = Matrix::from_fn(g.rows(), g.cols(), |r, c| {
                        g.get(r, c) / (xv.get(r, c) + eps)
                    });
                    self.accumulate(x, gx);
                }
                Op::SqErrMeanConst { x, target } => {
                    let (x, target) = (*x, Rc::clone(target));
                    let xv = &self.nodes[x.0].value;
                    let n = target.len().max(1) as f32;
                    let scale = g.get(0, 0) * 2.0 / n;
                    let gx =
                        Matrix::from_fn(xv.rows(), 1, |r, _| scale * (xv.get(r, 0) - target[r]));
                    self.accumulate(x, gx);
                }
            }
            self.nodes[i].grad = Some(g);
        }
    }
}

/// Add one dense use's weight gradient into rows `outs` × columns `ins` of
/// `gw_leaf`, masked: `gᵀx` on the tile, each entry summed over the batch,
/// rows ascending, before it joins the leaf's. `padded` receives `x` padded
/// for the tile.
#[allow(clippy::too_many_arguments)]
fn dense_weight_grad(
    isa: TileIsa,
    g: &Matrix,
    x: &Matrix,
    ins: &[usize],
    outs: &[usize],
    mask: Option<&Matrix>,
    padded: &mut Matrix,
    gw_leaf: &mut Matrix,
) {
    padded.reset(x.rows(), ins.len() + TILE_PAD);
    for r in 0..x.rows() {
        padded.row_mut(r)[..ins.len()].copy_from_slice(x.row(r));
    }
    let gw = matmul_tiled(isa, &g.transpose(), padded, 0..x.rows(), 0..ins.len());
    for (j, &row) in outs.iter().enumerate() {
        let (dst, keep) = (gw_leaf.row_mut(row), mask.map(|m| m.row(row)));
        for (&p, &s) in ins.iter().zip(gw.row(j)) {
            dst[p] += s * keep.map_or(1.0, |k| k[p]);
        }
    }
}

/// Add one one-hot use's weight gradient into rows `outs` of `gw_leaf`,
/// masked: the dense `gᵀx` over the inputs `nonzeros` lists less its
/// exact-zero terms. Each input that some row has non-zero gets a slot of
/// sums over the batch, rows ascending, as the dense product adds them;
/// `slot_of` maps an input to its slot and is all `usize::MAX` again on
/// return.
fn onehot_weight_grad(
    g: &Matrix,
    x: &Matrix,
    nonzeros: &[Rc<Nonzeros>],
    outs: &[usize],
    mask: Option<&Matrix>,
    slot_of: &mut Vec<usize>,
    gw_leaf: &mut Matrix,
) {
    let n = outs.len();
    let (mut used, mut sums) = (Vec::new(), Vec::new());
    slot_of.resize(x.cols(), usize::MAX);
    // An input lies in one segment, so segment by segment its rows still
    // come in ascending order.
    for seg in nonzeros {
        for r in 0..g.rows() {
            for &p in seg.row(r) {
                if slot_of[p] == usize::MAX {
                    slot_of[p] = used.len();
                    used.push(p);
                    sums.resize(sums.len() + n, 0.0);
                }
                let (slot, a) = (slot_of[p], x.get(r, p));
                for (o, &gv) in sums[slot * n..(slot + 1) * n].iter_mut().zip(g.row(r)) {
                    *o += gv * a;
                }
            }
        }
    }
    for (j, &row) in outs.iter().enumerate() {
        let (dst, keep) = (gw_leaf.row_mut(row), mask.map(|m| m.row(row)));
        for (slot, &p) in used.iter().enumerate() {
            dst[p] += sums[slot * n + j] * keep.map_or(1.0, |k| k[p]);
        }
    }
    for &p in &used {
        slot_of[p] = usize::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check for a scalar function of one leaf.
    fn grad_check(build: impl Fn(&mut Tape, Var) -> Var, x0: Matrix, tol: f32) {
        // Analytic gradient.
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let loss = build(&mut tape, x);
        tape.backward(loss);
        let g = tape.grad(x);

        // Numeric gradient.
        let h = 1e-3f32;
        for idx in 0..x0.len() {
            let mut xp = x0.clone();
            xp.data_mut()[idx] += h;
            let mut tp = Tape::new();
            let vp = tp.leaf(xp);
            let lossp = build(&mut tp, vp);
            let lp = tp.value(lossp).get(0, 0);

            let mut xm = x0.clone();
            xm.data_mut()[idx] -= h;
            let mut tm = Tape::new();
            let vm = tm.leaf(xm);
            let lossm = build(&mut tm, vm);
            let lm = tm.value(lossm).get(0, 0);

            let numeric = (lp - lm) / (2.0 * h);
            let analytic = g.data()[idx];
            assert!(
                (numeric - analytic).abs() <= tol * (1.0 + numeric.abs().max(analytic.abs())),
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn grad_linear_relu_chain() {
        let w0 = Matrix::from_vec(2, 3, vec![0.5, -0.3, 0.8, -0.1, 0.2, 0.4]);
        let b0 = Matrix::from_vec(1, 2, vec![0.1, -0.2]);
        let target = Rc::new(vec![0.7f32, -0.4]);
        grad_check(
            move |t, x| {
                let w = t.leaf(w0.clone());
                let b = t.leaf(b0.clone());
                let h = t.masked_linear(x, w, b, None);
                let h = t.relu(h);
                let s = t.row_dot_const(h, Rc::new(vec![1.0, -1.0]));
                t.sq_err_mean(s, Rc::clone(&target))
            },
            Matrix::from_vec(2, 3, vec![0.3, 0.9, -0.5, 0.2, 0.1, 0.6]),
            2e-2,
        );
    }

    #[test]
    fn grad_masked_linear_respects_mask() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        let w = tape.leaf(Matrix::from_vec(1, 2, vec![0.5, 0.5]));
        let b = tape.leaf(Matrix::zeros(1, 1));
        let mask = Rc::new(Matrix::from_vec(1, 2, vec![1.0, 0.0]));
        let y = tape.masked_linear(x, w, b, Some(mask));
        // Forward: only the unmasked connection contributes.
        assert!((tape.value(y).get(0, 0) - 0.5).abs() < 1e-6);
        let loss = tape.sq_err_mean(y, Rc::new(vec![0.0]));
        tape.backward(loss);
        let gw = tape.grad(w);
        assert!(gw.get(0, 0).abs() > 0.0);
        assert_eq!(gw.get(0, 1), 0.0, "masked weight must get zero grad");
        let gx = tape.grad(x);
        assert_eq!(gx.get(0, 1), 0.0, "masked input must get zero grad");
    }

    /// Gradients through a ranged masked linear, checked for the input, the
    /// weights and the bias in turn (the other two held as constants).
    #[test]
    fn grad_masked_linear_cols() {
        let x0 = Matrix::from_vec(2, 3, vec![0.3, 0.9, -0.5, 0.2, 0.0, 0.6]);
        let w0 = Matrix::from_fn(4, 3, |r, c| {
            0.25 * (r as f32 - 1.5) + 0.4 * (c as f32 - 1.0)
        });
        let b0 = Matrix::from_vec(1, 4, vec![0.1, -0.2, 0.3, -0.4]);
        let mask = Rc::new(Matrix::from_fn(4, 3, |r, c| {
            ((r + c) % 3 != 0) as u8 as f32
        }));
        let target = Rc::new(vec![0.7f32, -0.4]);
        for wrt in 0..3 {
            let (x0, w0, b0) = (x0.clone(), w0.clone(), b0.clone());
            let (mask, target) = (Rc::clone(&mask), Rc::clone(&target));
            let start = [x0.clone(), w0.clone(), b0.clone()][wrt].clone();
            grad_check(
                move |t, v| {
                    let mut leaves = [x0.clone(), w0.clone(), b0.clone()].map(|m| t.leaf(m));
                    leaves[wrt] = v;
                    let [x, w, b] = leaves;
                    let y = t.masked_linear_cols(x, w, b, Some(Rc::clone(&mask)), 1..3);
                    let s = t.row_dot_const(y, Rc::new(vec![1.0, -2.0]));
                    t.sq_err_mean(s, Rc::clone(&target))
                },
                start,
                2e-2,
            );
        }
    }

    #[test]
    fn masked_linear_cols_is_a_block_of_the_full_output() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::from_vec(2, 3, vec![1.0, 0.0, -0.5, 0.0, 2.0, 0.25]));
        let w = tape.leaf(Matrix::from_fn(5, 3, |r, c| {
            0.3 * r as f32 - 0.7 * c as f32
        }));
        let b = tape.leaf(Matrix::from_fn(1, 5, |_, c| c as f32));
        let full = tape.masked_linear(x, w, b, None);
        let block = tape.masked_linear_cols(x, w, b, None, 2..4);
        let (full, block) = (tape.value(full), tape.value(block));
        assert_eq!((block.rows(), block.cols()), (2, 2));
        for r in 0..2 {
            assert_eq!(block.row(r), &full.row(r)[2..4]);
        }
    }

    #[test]
    #[should_panic(expected = "different mask")]
    fn reusing_a_weight_with_another_mask_panics() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(1, 2));
        let w = tape.leaf(Matrix::full(2, 2, 1.0));
        let b = tape.leaf(Matrix::zeros(1, 2));
        tape.masked_linear(x, w, b, Some(Rc::new(Matrix::full(2, 2, 1.0))));
        // Equal contents, but another `Rc`: the pack cannot tell, so it refuses.
        tape.masked_linear(x, w, b, Some(Rc::new(Matrix::full(2, 2, 1.0))));
    }

    #[test]
    #[should_panic(expected = "different mask")]
    fn reusing_a_masked_weight_without_a_mask_panics() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(1, 2));
        let w = tape.leaf(Matrix::full(2, 2, 1.0));
        let b = tape.leaf(Matrix::zeros(1, 2));
        tape.masked_linear(x, w, b, Some(Rc::new(Matrix::full(2, 2, 1.0))));
        tape.masked_linear(x, w, b, None);
    }

    #[test]
    fn grad_softmax_log_chain() {
        let target = Rc::new(vec![-0.5f32, 0.2]);
        grad_check(
            move |t, x| {
                let p = t.softmax_rows(x, 1.0);
                let s = t.row_dot_const(p, Rc::new(vec![1.0, 0.0, 1.0]));
                let l = t.log(s, 1e-6);
                t.sq_err_mean(l, Rc::clone(&target))
            },
            Matrix::from_vec(2, 3, vec![0.1, 0.7, -0.4, 0.9, 0.0, 0.3]),
            2e-2,
        );
    }

    #[test]
    fn grad_softmax_with_temperature() {
        let target = Rc::new(vec![0.4f32]);
        grad_check(
            move |t, x| {
                let p = t.softmax_rows(x, 0.5);
                let s = t.row_dot_const(p, Rc::new(vec![0.3, 0.6, 0.1]));
                t.sq_err_mean(s, Rc::clone(&target))
            },
            Matrix::from_vec(1, 3, vec![0.2, -0.1, 0.5]),
            2e-2,
        );
    }

    #[test]
    fn grad_slice_pad_add() {
        let target = Rc::new(vec![1.0f32]);
        grad_check(
            move |t, x| {
                let a = t.slice_cols(x, 0, 2);
                let b = t.slice_cols(x, 2, 2);
                let sum = t.add(a, b);
                let padded = t.pad_cols(sum, 1, 4);
                let s = t.row_dot_const(padded, Rc::new(vec![0.5, 1.0, -1.0, 2.0]));
                t.sq_err_mean(s, Rc::clone(&target))
            },
            Matrix::from_vec(1, 4, vec![0.3, -0.2, 0.8, 0.1]),
            2e-2,
        );
    }

    #[test]
    fn grad_row_dot_rows() {
        let w = Rc::new(Matrix::from_vec(2, 3, vec![1.0, 0.5, 0.0, 0.2, 0.0, 2.0]));
        let target = Rc::new(vec![0.3f32, -0.1]);
        grad_check(
            move |t, x| {
                let s = t.row_dot_rows(x, Rc::clone(&w));
                t.sq_err_mean(s, Rc::clone(&target))
            },
            Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.9, 0.1, 0.4, -0.6]),
            2e-2,
        );
    }

    #[test]
    fn grad_add_const() {
        let c = Rc::new(Matrix::from_vec(1, 2, vec![0.5, -0.5]));
        let target = Rc::new(vec![0.0f32]);
        grad_check(
            move |t, x| {
                let a = t.add_const(x, Rc::clone(&c));
                let d = t.row_dot_const(a, Rc::new(vec![1.0, 1.0]));
                t.sq_err_mean(d, Rc::clone(&target))
            },
            Matrix::from_vec(1, 2, vec![0.4, -0.7]),
            2e-2,
        );
    }

    #[test]
    fn add_accumulates_gradients_through_shared_node() {
        // loss = mean((x + x)²) → dloss/dx = 4x.
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::from_vec(1, 1, vec![1.5]));
        let y = tape.add(x, x);
        let loss = tape.sq_err_mean(y, Rc::new(vec![0.0]));
        tape.backward(loss);
        assert!((tape.grad(x).get(0, 0) - 12.0).abs() < 1e-5); // 2·(2x)·2 = 4x·... = 12 at x=1.5
    }
}
