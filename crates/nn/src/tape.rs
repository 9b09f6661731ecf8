//! Reverse-mode automatic differentiation over matrices.
//!
//! A [`Tape`] records a DAG of matrix ops; [`Tape::backward`] walks it in
//! reverse, accumulating gradients. The op set is exactly what Differentiable
//! Progressive Sampling (paper §4.1) requires: masked linear layers,
//! ReLU, temperature softmax (for Gumbel-Softmax), addition of a node
//! (ResMADE skips, the progressively filled input) or a constant (Gumbel
//! noise), column slicing/padding (per-column one-hot blocks), constant
//! row-dots (in-range mass and expected inverse fanout), logs, and a
//! mean-squared-error head on log cardinalities.
//!
//! A step of DPS runs the same weight leaves through one forward per model
//! column, so the tape keeps what is constant per step: the first
//! [`Tape::masked_linear`] on a weight packs `w ∘ mask` and its transpose,
//! each padded for the register tile, and every later forward and backward
//! on that leaf multiplies through the pack. A dense layer's forward and
//! input gradient run on the tile ([`dense_tiled`], [`matmul_tiled`]), which
//! has the serial dot product's bits on finite values; training refuses a
//! non-finite parameter, so the precondition holds on every step it keeps.
//! Its weight gradient stays on the axpy [`Matrix::matmul_transa_into`],
//! which skips the zeros of a ReLU-gated gradient that the tile has to
//! multiply. The one-hot first layer ([`Tape::onehot_linear_cols`]) walks
//! its input's non-zeros instead, which the tape knows from how the input
//! was built, so a progressively filled input is never rescanned.

use crate::backend::{dense_tiled, matmul_tiled, tile_padded, TileIsa, TILE_PAD};
use crate::matrix::Matrix;
use std::ops::Range;
use std::rc::Rc;

/// Handle to a tape node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    Leaf,
    /// Columns `cols` of `y = x @ (w ∘ mask)ᵀ + b` with `w: out×in`,
    /// `b: 1×out`; `w` and `mask` are those of `packed[pack]`. With
    /// `onehot`, only inputs `0..live` enter, through their non-zeros.
    MaskedLinear {
        x: Var,
        b: Var,
        pack: usize,
        cols: Range<usize>,
        onehot: Option<OneHot>,
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
    /// [`Tape::nonzeros`] of the value, once asked for.
    nonzeros: Option<Rc<Nonzeros>>,
}

/// Where a value may be non-zero: per row, ascending column positions, and
/// every position not listed holds an exact zero.
struct Nonzeros {
    /// Row `r`'s positions are `pos[starts[r]..starts[r + 1]]`.
    starts: Vec<usize>,
    pos: Vec<usize>,
}

impl Nonzeros {
    fn row(&self, r: usize) -> &[usize] {
        &self.pos[self.starts[r]..self.starts[r + 1]]
    }

    /// One pass over a value.
    fn scan(m: &Matrix) -> Nonzeros {
        let mut nz = Nonzeros {
            starts: vec![0],
            pos: Vec::new(),
        };
        for r in 0..m.rows() {
            let row = m.row(r);
            nz.pos.extend((0..row.len()).filter(|&c| row[c] != 0.0));
            nz.starts.push(nz.pos.len());
        }
        nz
    }

    /// The positions of `a + b`, row by row: the merge of both lists.
    fn union(a: &Nonzeros, b: &Nonzeros) -> Nonzeros {
        let mut nz = Nonzeros {
            starts: vec![0],
            pos: Vec::with_capacity(a.pos.len() + b.pos.len()),
        };
        for r in 0..a.starts.len() - 1 {
            let (mut x, mut y) = (a.row(r), b.row(r));
            while let (Some(&p), Some(&q)) = (x.first(), y.first()) {
                nz.pos.push(p.min(q));
                x = if p <= q { &x[1..] } else { x };
                y = if q <= p { &y[1..] } else { y };
            }
            nz.pos.extend_from_slice(x);
            nz.pos.extend_from_slice(y);
            nz.starts.push(nz.pos.len());
        }
        nz
    }
}

/// A first layer's view of its input: inputs `0..live` enter, and `index`
/// lists where they may be non-zero.
struct OneHot {
    live: usize,
    index: Rc<Nonzeros>,
}

/// A weight node's effective matrices, built by the first masked linear on
/// it and used by every later forward and backward of the step. Node values
/// are immutable once recorded, so a pack cannot go stale. Both carry
/// [`TILE_PAD`] zero columns past the end, for the tile.
struct Pack {
    w: Var,
    mask: Option<Rc<Matrix>>,
    /// `w ∘ mask` (`out×in`, padded): the input gradient adds up its rows.
    eff: Matrix,
    /// `effᵀ` (`in×out`, padded): the forward adds up its rows.
    eff_t: Matrix,
}

/// The gradient tape.
pub struct Tape {
    nodes: Vec<Node>,
    packed: Vec<Pack>,
    /// The instance of the register tile this CPU runs.
    isa: TileIsa,
    /// One dense masked-linear use's weight gradient, summed over the batch
    /// before it is added to the leaf's.
    gw: Matrix,
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
            gw: Matrix::default(),
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
            nonzeros: None,
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
            eff_t: tile_padded(&eff.transpose()),
            eff: tile_padded(&eff),
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
        let pack = self.pack(w, mask);
        let (xv, bias) = (&self.nodes[x.0].value, self.bias(b, pack, &cols));
        let eff_t = &self.packed[pack].eff_t;
        let y = dense_tiled(self.isa, xv, eff_t, cols.clone(), bias, false, false);
        let op = Op::MaskedLinear {
            x,
            b,
            pack,
            cols,
            onehot: None,
        };
        self.push(y, op)
    }

    /// [`Tape::masked_linear_cols`] of `x`'s first `live` columns only (the
    /// rest neither enter the sum nor receive a gradient), for a one-hot
    /// input: each row adds the rows of `effᵀ` at its non-zero inputs, in
    /// ascending order, which is the dense sum less its exact-zero terms.
    /// The weight gradient likewise visits only those inputs.
    pub fn onehot_linear_cols(
        &mut self,
        x: Var,
        w: Var,
        b: Var,
        mask: Option<Rc<Matrix>>,
        live: usize,
        cols: Range<usize>,
    ) -> Var {
        let pack = self.pack(w, mask);
        let index = self.nonzeros(x);
        let (xv, bias) = (&self.nodes[x.0].value, self.bias(b, pack, &cols));
        assert!(live <= xv.cols(), "live prefix out of range");
        let eff_t = &self.packed[pack].eff_t;
        let mut y = Matrix::zeros(xv.rows(), cols.len());
        for r in 0..xv.rows() {
            let out = y.row_mut(r);
            for &p in index.row(r).iter().take_while(|&&p| p < live) {
                let a = xv.get(r, p);
                if a == 0.0 {
                    continue;
                }
                for (o, &wv) in out.iter_mut().zip(&eff_t.row(p)[cols.clone()]) {
                    *o += a * wv;
                }
            }
            for (o, &bb) in out.iter_mut().zip(bias) {
                *o += bb;
            }
        }
        let onehot = Some(OneHot { live, index });
        self.push(
            y,
            Op::MaskedLinear {
                x,
                b,
                pack,
                cols,
                onehot,
            },
        )
    }

    /// Columns `cols` of bias `b`, checked against `pack`'s output width.
    fn bias(&self, b: Var, pack: usize, cols: &Range<usize>) -> &[f32] {
        let bv = &self.nodes[b.0].value;
        assert_eq!(bv.rows(), 1, "bias must be a row vector");
        assert_eq!(
            bv.cols(),
            self.packed[pack].eff.rows(),
            "bias width must equal out features"
        );
        &bv.row(0)[cols.clone()]
    }

    /// Where `v`'s value may be non-zero, from how it was built: a padded
    /// block's positions are its input's, shifted; a sum's are the union of
    /// its terms'; any other value is scanned once. A DPS input — the
    /// previous input plus the padded sample of one column — therefore costs
    /// a scan of that column's sample, never of the filled prefix again.
    fn nonzeros(&mut self, v: Var) -> Rc<Nonzeros> {
        if let Some(nz) = &self.nodes[v.0].nonzeros {
            return Rc::clone(nz);
        }
        let nz = match self.nodes[v.0].op {
            Op::Add(a, b) => {
                let (a, b) = (self.nonzeros(a), self.nonzeros(b));
                Nonzeros::union(&a, &b)
            }
            Op::PadCols { x, offset } => {
                let inner = self.nonzeros(x);
                Nonzeros {
                    starts: inner.starts.clone(),
                    pos: inner.pos.iter().map(|&p| p + offset).collect(),
                }
            }
            _ => Nonzeros::scan(&self.nodes[v.0].value),
        };
        let nz = Rc::new(nz);
        self.nodes[v.0].nonzeros = Some(Rc::clone(&nz));
        nz
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
                    cols,
                    onehot,
                } => {
                    let (x, b, cols) = (*x, *b, cols.clone());
                    let onehot = onehot.as_ref().map(|o| (o.live, Rc::clone(&o.index)));
                    let pack = &self.packed[*pack];
                    let (out, inp) = (pack.eff.rows(), pack.eff.cols() - TILE_PAD);
                    // y = x[·, ..live] @ effᵀ[..live, cols] + b[cols]
                    let live = onehot.as_ref().map_or(inp, |o| o.0);
                    let gx = matmul_tiled(self.isa, &g, &pack.eff, cols.clone(), 0..live);
                    // This use's weight gradient is complete (summed over the
                    // batch) before it joins the other uses', masked.
                    let mut gw_leaf = self.nodes[pack.w.0]
                        .grad
                        .take()
                        .unwrap_or_else(|| Matrix::zeros(out, inp));
                    let (xv, mask) = (&self.nodes[x.0].value, pack.mask.as_deref());
                    match onehot {
                        Some((live, index)) => {
                            let slot_of = &mut self.slot_of;
                            onehot_weight_grad(
                                &g,
                                xv,
                                &index,
                                live,
                                &cols,
                                mask,
                                slot_of,
                                &mut gw_leaf,
                            );
                        }
                        None => {
                            // The axpy skips the zeros of the ReLU-gated `g`,
                            // which the tile would multiply: it is the faster.
                            g.matmul_transa_into(xv, &mut self.gw);
                            for (r, row) in cols.clone().enumerate() {
                                let (dst, src) = (gw_leaf.row_mut(row), self.gw.row(r));
                                match mask {
                                    Some(m) => {
                                        for ((o, &s), &keep) in
                                            dst.iter_mut().zip(src).zip(m.row(row))
                                        {
                                            *o += s * keep;
                                        }
                                    }
                                    None => {
                                        for (o, &s) in dst.iter_mut().zip(src) {
                                            *o += s;
                                        }
                                    }
                                }
                            }
                        }
                    }
                    let w = pack.w;
                    self.nodes[w.0].grad = Some(gw_leaf);
                    let mut gb = vec![0.0f32; cols.len()];
                    for r in 0..g.rows() {
                        for (o, &v) in gb.iter_mut().zip(g.row(r)) {
                            *o += v;
                        }
                    }
                    let gb_leaf = self.nodes[b.0]
                        .grad
                        .get_or_insert_with(|| Matrix::zeros(1, out));
                    for (o, &v) in gb_leaf.row_mut(0)[cols].iter_mut().zip(&gb) {
                        *o += v;
                    }
                    self.accumulate_prefix(x, &gx);
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

/// Add one one-hot use's weight gradient into rows `cols` of `gw_leaf`,
/// masked: the dense `gᵀx` over inputs `0..live` less its exact-zero terms.
/// Each input that some row has non-zero gets a slot of sums over the batch,
/// rows ascending, as the dense product adds them; `slot_of` maps an input
/// to its slot and is all `usize::MAX` again on return.
#[allow(clippy::too_many_arguments)]
fn onehot_weight_grad(
    g: &Matrix,
    x: &Matrix,
    index: &Nonzeros,
    live: usize,
    cols: &Range<usize>,
    mask: Option<&Matrix>,
    slot_of: &mut Vec<usize>,
    gw_leaf: &mut Matrix,
) {
    let n = cols.len();
    let (mut used, mut sums) = (Vec::new(), Vec::new());
    slot_of.resize(x.cols(), usize::MAX);
    for r in 0..g.rows() {
        for &p in index.row(r).iter().take_while(|&&p| p < live) {
            let a = x.get(r, p);
            if a == 0.0 {
                continue;
            }
            if slot_of[p] == usize::MAX {
                slot_of[p] = used.len();
                used.push(p);
                sums.resize(sums.len() + n, 0.0);
            }
            let slot = slot_of[p];
            for (o, &gv) in sums[slot * n..(slot + 1) * n].iter_mut().zip(g.row(r)) {
                *o += gv * a;
            }
        }
    }
    for (j, row) in cols.clone().enumerate() {
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
