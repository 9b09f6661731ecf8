//! Bit-lock of the training tape's masked linear layer.
//!
//! Same seed ⇒ same weights is the system's spine, and `sam-nn`'s tape is
//! where a training step's arithmetic lives. The tape multiplies through
//! step-packed weights — the register tile for dense products, a walk over
//! the non-zeros of the first layer's one-hot input — and evaluates one
//! column's logit block at a time; at `7bd41c8` it multiplied through
//! `Matrix::matmul_transb` (since deleted), one serial dot product per
//! output. Its `masked_linear` is written out below as the oracle, and
//! the tape must reproduce it to the bit. Nothing on the compared path calls
//! libm (no softmax, no log), so the expected bits do not depend on the
//! machine.
//!
//! The whole-step oracle runs one progressive step of a 17-column MADE, with
//! softmax samples fed back straight-through or soft, and redoes its backward
//! by hand from the parent's formulas: every column's input gradient and
//! every parameter gradient must come out with the same bits. Its softmax is
//! the tape's, computed twice on the same machine.

use sam::nn::{Made, MadeConfig, Matrix, ParamId, ParamStore, Tape, Var};
use std::ops::Range;
use std::rc::Rc;

/// Seeded values without `rand`: a 64-bit LCG.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }

    /// A value in `[-1, 1)` with a full mantissa, so that products and sums
    /// round and the order of a sum shows in its bits.
    fn unit(&mut self) -> f32 {
        self.below(1 << 24) as f32 / (1 << 23) as f32 - 1.0
    }

    fn dense(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.unit())
    }

    /// At most `set` non-zeros per row, most of them exactly 1 — a batch of
    /// progressive-sampling prefixes.
    fn sparse(&mut self, rows: usize, cols: usize, set: usize) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for _ in 0..set {
                let v = if self.below(4) == 0 { self.unit() } else { 1.0 };
                m.set(r, self.below(cols), v);
            }
        }
        m
    }

    fn zero_one(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.below(3).min(1) as f32)
    }
}

/// `((0 + t(0)) + t(1)) + …`: the serial sum every kernel here must match.
fn serial_sum(n: usize, term: impl Fn(usize) -> f32) -> f32 {
    let mut acc = 0.0f32;
    for k in 0..n {
        acc += term(k);
    }
    acc
}

/// `7bd41c8`'s `Tape::masked_linear` forward.
fn parent_forward(x: &Matrix, w: &Matrix, b: &Matrix, mask: Option<&Matrix>) -> Matrix {
    let eff = match mask {
        Some(m) => w.mul_elem(m),
        None => w.clone(),
    };
    // One serial dot product per output, `acc += a·b` for `p` ascending.
    let mut y = Matrix::from_fn(x.rows(), eff.rows(), |r, j| {
        serial_sum(x.cols(), |p| x.get(r, p) * eff.get(j, p))
    });
    for r in 0..y.rows() {
        let row = y.row_mut(r);
        for (o, &bb) in row.iter_mut().zip(b.row(0)) {
            *o += bb;
        }
    }
    y
}

/// `7bd41c8`'s `Op::MaskedLinear` backward arm: gradients of `x`, `w`, `b`
/// for an output gradient `g`, every product written out as a serial sum
/// (the kernels the tape multiplies through are what is under test).
fn parent_backward(
    g: &Matrix,
    x: &Matrix,
    w: &Matrix,
    mask: Option<&Matrix>,
) -> (Matrix, Matrix, Matrix) {
    let eff = match mask {
        Some(m) => w.mul_elem(m),
        None => w.clone(),
    };
    let gx = Matrix::from_fn(g.rows(), eff.cols(), |r, p| {
        serial_sum(g.cols(), |j| g.get(r, j) * eff.get(j, p))
    });
    let mut gw = Matrix::from_fn(g.cols(), x.cols(), |j, p| {
        serial_sum(g.rows(), |r| g.get(r, j) * x.get(r, p))
    });
    if let Some(m) = mask {
        gw = gw.mul_elem(m);
    }
    let mut gb = Matrix::zeros(1, g.cols());
    for r in 0..g.rows() {
        for (o, &v) in gb.row_mut(0).iter_mut().zip(g.row(r)) {
            *o += v;
        }
    }
    (gx, gw, gb)
}

/// `7bd41c8`'s `Tape::accumulate`: the first gradient moves in, later ones add.
fn accumulate(slot: &mut Option<Matrix>, g: Matrix) {
    match slot {
        Some(existing) => existing.add_assign(&g),
        None => *slot = Some(g),
    }
}

fn columns(m: &Matrix, cols: Range<usize>) -> Matrix {
    Matrix::from_fn(m.rows(), cols.len(), |r, c| m.get(r, cols.start + c))
}

fn assert_same_bits(what: &str, got: &Matrix, want: &Matrix) {
    assert_matches(what, got, want, |g, w| g.to_bits() == w.to_bits());
}

/// Gradients may differ in the sign of a zero: the parent wrote `-0.0` where a
/// negative gradient met a `0` mask and its first use moved in unadded, while
/// the tape adds every use to `+0.0`. Adam treats the two alike.
fn assert_same_bits_or_both_zero(what: &str, got: &Matrix, want: &Matrix) {
    assert_matches(what, got, want, |g, w| {
        g.to_bits() == w.to_bits() || (g == 0.0 && w == 0.0)
    });
}

fn assert_matches(what: &str, got: &Matrix, want: &Matrix, same: impl Fn(f32, f32) -> bool) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}: shape"
    );
    for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(same(g, w), "{what}: element {i}: {g} vs {w}");
    }
}

/// One weight leaf through one to three forwards, full-width or ranged, with
/// and without a mask, on dense and one-hot-sparse inputs: forward values and
/// the three gradients against the parent's formulas.
#[test]
fn masked_linear_reproduces_the_serial_dot_product_to_the_bit() {
    linear_uses_reproduce_the_parent(false);
}

/// The same for the one-hot first layer, `onehot_linear_cols`, on a live
/// prefix that ends anywhere: the parent's formulas on the input with its
/// columns past the prefix zeroed, and no gradient past it.
#[test]
fn onehot_linear_reproduces_the_serial_dot_product_on_its_prefix() {
    linear_uses_reproduce_the_parent(true);
}

/// `x` with columns `live..` set to zero.
fn prefix(x: &Matrix, live: usize) -> Matrix {
    Matrix::from_fn(
        x.rows(),
        x.cols(),
        |r, c| if c < live { x.get(r, c) } else { 0.0 },
    )
}

fn linear_uses_reproduce_the_parent(onehot: bool) {
    for case in 0..24u64 {
        let mut rng = Lcg(case + 1);
        let (masked, sparse, ranged) = (case & 1 != 0, case & 2 != 0, case & 4 != 0);
        let uses = 1 + (case % 3) as usize;
        let (rows, inp, out) = (1 + rng.below(9), 1 + rng.below(48), 2 + rng.below(30));
        let cols = if ranged {
            let lo = rng.below(out - 1);
            lo..lo + 1 + rng.below(out - lo)
        } else {
            0..out
        };
        let live = if onehot { rng.below(inp + 1) } else { inp };
        let what = format!(
            "case {case} ({rows}x{inp} -> {out}, cols {cols:?}, masked {masked}, \
             sparse {sparse}, {uses} uses, live {live})"
        );

        let wm = rng.dense(out, inp);
        let bm = rng.dense(1, out);
        let mask = masked.then(|| Rc::new(rng.zero_one(out, inp)));
        let mut tape = Tape::new();
        let (w, b) = (tape.leaf(wm.clone()), tape.leaf(bm.clone()));

        let mut recorded: Vec<(Var, Matrix, Var)> = Vec::new();
        let mut total: Option<Var> = None;
        for _ in 0..uses {
            let xm = if sparse {
                rng.sparse(rows, inp, 1 + inp / 8)
            } else {
                rng.dense(rows, inp)
            };
            let x = tape.leaf(xm.clone());
            let y = if onehot {
                tape.onehot_linear_cols(x, w, b, mask.clone(), live, cols.clone())
            } else if ranged {
                tape.masked_linear_cols(x, w, b, mask.clone(), cols.clone())
            } else {
                tape.masked_linear(x, w, b, mask.clone())
            };
            let xm = prefix(&xm, live);
            let want = parent_forward(&xm, &wm, &bm, mask.as_deref());
            assert_same_bits(
                &format!("{what}: forward"),
                tape.value(y),
                &columns(&want, cols.clone()),
            );
            // A scalar head made of multiplies and adds only.
            let s = tape.row_dot_rows(y, Rc::new(rng.dense(rows, cols.len())));
            total = Some(match total {
                Some(t) => tape.add(t, s),
                None => s,
            });
            recorded.push((x, xm, y));
        }
        let targets = Rc::new((0..rows).map(|_| rng.unit()).collect::<Vec<f32>>());
        let loss = tape.sq_err_mean(total.expect("at least one use"), targets);
        tape.backward(loss);

        // The backward walk meets the uses last to first.
        let (mut gw_want, mut gb_want) = (None, None);
        for (x, xm, y) in recorded.iter().rev() {
            // What `SliceCols` handed the parent's full-width op for a block:
            // the block's gradient inside zeros.
            let g = tape.grad(*y);
            let mut g_full = Matrix::zeros(rows, out);
            for r in 0..rows {
                g_full.row_mut(r)[cols.clone()].copy_from_slice(g.row(r));
            }
            let (gx, gw, gb) = parent_backward(&g_full, xm, &wm, mask.as_deref());
            let gx = prefix(&gx, live);
            assert_same_bits_or_both_zero(&format!("{what}: grad x"), &tape.grad(*x), &gx);
            accumulate(&mut gw_want, gw);
            accumulate(&mut gb_want, gb);
        }
        assert_same_bits_or_both_zero(
            &format!("{what}: grad w"),
            &tape.grad(w),
            &gw_want.expect("at least one use"),
        );
        assert_same_bits_or_both_zero(
            &format!("{what}: grad b"),
            &tape.grad(b),
            &gb_want.expect("at least one use"),
        );
    }
}

/// Model shapes for the network-level locks: the benchmark's 17 columns among
/// them, ResMADE skips on and off.
fn models() -> Vec<(Made, ParamStore)> {
    let shapes: [(&[usize], &[usize], bool); 4] = [
        (&[3, 2, 4], &[16, 16], false),
        (&[2, 5, 3, 7], &[20, 20, 20], true),
        (&[6, 2], &[8, 12], true),
        (
            &[4, 9, 2, 31, 3, 5, 2, 12, 7, 2, 3, 40, 6, 2, 8, 3, 5],
            &[32, 32],
            true,
        ),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(seed, &(domains, hidden, residual))| {
            let mut store = ParamStore::new();
            let made = Made::new(
                MadeConfig {
                    domain_sizes: domains.to_vec(),
                    hidden: hidden.to_vec(),
                    seed: seed as u64 + 40,
                    residual,
                },
                &mut store,
            );
            // Biases start at zero; give them something to add.
            let mut rng = Lcg(seed as u64 + 7);
            for id in (0..store.len()).map(ParamId) {
                if store.value(id).rows() == 1 {
                    let cols = store.value(id).cols();
                    *store.value_mut(id) = rng.dense(1, cols);
                }
            }
            (made, store)
        })
        .collect()
}

/// `BoundMade::forward` against the parent's layer walk (serial dot products
/// over the frozen effective weights, bias, skip, ReLU), and
/// `forward_column(i)` against block `i` of `forward`.
#[test]
fn made_forward_and_every_column_block_match_to_the_bit() {
    for (m, (made, store)) in models().iter().enumerate() {
        let frozen = made.freeze(store);
        let width = made.total_width();
        let mut rng = Lcg(m as u64 + 90);
        for input in [
            rng.sparse(5, width, made.num_columns()),
            rng.dense(3, width),
        ] {
            let last = frozen.layers().len() - 1;
            let mut want = input.clone();
            for (l, (w, b)) in frozen.layers().iter().enumerate() {
                let mut y = parent_forward(&want, w, b, None);
                if frozen.residual_flags()[l] {
                    y.add_assign(&want);
                }
                want = if l != last { y.map(|v| v.max(0.0)) } else { y };
            }

            let mut tape = Tape::new();
            let bound = made.bind(&mut tape, store);
            let iv = tape.leaf(input);
            let logits = bound.forward(&mut tape, iv);
            assert_same_bits(&format!("model {m}: forward"), tape.value(logits), &want);
            for i in 0..made.num_columns() {
                let block = bound.forward_column(&mut tape, iv, i);
                let at = made.offset(i)..made.offset(i) + made.domain_size(i);
                assert_same_bits(
                    &format!("model {m}: column {i}"),
                    tape.value(block),
                    &columns(&want, at),
                );
            }
        }
    }
}

/// One progressive step over every column — the block fed back as the next
/// input, a factor per column, a squared-error head — built from `forward` +
/// `logits_of` (the shape the parent trained with) or from `forward_column`.
/// Returns the parameter gradients it leaves in the store.
fn step_gradients(made: &Made, store: &mut ParamStore, per_column: bool) -> Vec<Matrix> {
    let (rows, width) = (6, made.total_width());
    let mut rng = Lcg(5);
    let mut tape = Tape::new();
    let bound = made.bind(&mut tape, store);
    let mut input = tape.leaf(Matrix::zeros(rows, width));
    let mut total: Option<Var> = None;
    for i in 0..made.num_columns() {
        let d = made.domain_size(i);
        let block = if per_column {
            bound.forward_column(&mut tape, input, i)
        } else {
            let logits = bound.forward(&mut tape, input);
            bound.logits_of(&mut tape, logits, i)
        };
        // Straight-through without the softmax: the value becomes one-hot
        // (up to rounding), the gradient stays the block's.
        let value = tape.value(block);
        let shift = Matrix::from_fn(rows, d, |r, c| {
            (if c == (r + i) % d { 1.0 } else { 0.0 }) - value.get(r, c)
        });
        let y = tape.add_const(block, Rc::new(shift));
        let factor = tape.row_dot_rows(y, Rc::new(rng.dense(rows, d)));
        total = Some(match total {
            Some(t) => tape.add(t, factor),
            None => factor,
        });
        let padded = tape.pad_cols(y, made.offset(i), width);
        input = tape.add(input, padded);
    }
    let targets = Rc::new((0..rows).map(|_| rng.unit()).collect::<Vec<f32>>());
    let loss = tape.sq_err_mean(total.expect("at least one column"), targets);
    tape.backward(loss);
    store.zero_grads();
    bound.apply_grads(&tape, store);
    (0..store.len())
        .map(|k| store.grad(ParamId(k)).clone())
        .collect()
}

#[test]
fn a_step_of_forward_columns_leaves_the_gradients_of_full_forwards() {
    for (m, (made, mut store)) in models().into_iter().enumerate() {
        let full = step_gradients(&made, &mut store, false);
        let per_column = step_gradients(&made, &mut store, true);
        assert!(
            full.iter().any(|g| g.norm_sq() > 0.0),
            "model {m}: the step must produce gradients"
        );
        for (k, (got, want)) in per_column.iter().zip(&full).enumerate() {
            assert_same_bits_or_both_zero(&format!("model {m}: parameter {k}"), got, want);
        }
    }
}

/// The MADE masks (Germain et al.), layer by layer: input and output units of
/// column `c` have degree `c + 1`, hidden unit `k` degree `1 + k mod (n − 1)`;
/// a hidden unit sees units of lower or equal degree, an output unit hidden
/// units of strictly lower degree.
fn made_masks(domains: &[usize], hidden: &[usize]) -> Vec<Matrix> {
    let io: Vec<usize> = (0..domains.len())
        .flat_map(|c| std::iter::repeat_n(c + 1, domains[c]))
        .collect();
    let modulus = (domains.len() - 1).max(1);
    let mut masks = Vec::new();
    let mut prev = io.clone();
    for &h in hidden {
        let deg: Vec<usize> = (0..h).map(|k| 1 + k % modulus).collect();
        masks.push(Matrix::from_fn(h, prev.len(), |r, c| {
            (deg[r] >= prev[c]) as u8 as f32
        }));
        prev = deg;
    }
    masks.push(Matrix::from_fn(io.len(), prev.len(), |r, c| {
        (io[r] > prev[c]) as u8 as f32
    }));
    masks
}

/// `Tape::softmax_rows` at temperature 1, as the tape computes it.
fn softmax(x: &Matrix) -> Matrix {
    let mut y = Matrix::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        let m = x.row(r).iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (o, &v) in y.row_mut(r).iter_mut().zip(x.row(r)) {
            *o = (v - m).exp();
            sum += *o;
        }
        let inv = 1.0 / sum.max(f32::MIN_POSITIVE);
        y.row_mut(r).iter_mut().for_each(|o| *o *= inv);
    }
    y
}

/// What a straight-through sample adds to the soft value: one-hot of the
/// row's largest entry minus the value, so the sum is `s + (1 − s)` there
/// (not always exactly 1) and `s + (0 − s) = +0` elsewhere.
fn straight_through_shift(soft: &Matrix) -> Matrix {
    let mut shift = Matrix::zeros(soft.rows(), soft.cols());
    for r in 0..soft.rows() {
        let row = soft.row(r);
        let argmax = (0..row.len())
            .max_by(|&a, &b| row[a].total_cmp(&row[b]))
            .unwrap_or(0);
        for (c, s) in shift.row_mut(r).iter_mut().enumerate() {
            *s = (if c == argmax { 1.0 } else { 0.0 }) - row[c];
        }
    }
    shift
}

/// `y[r] = Σ_c x[r,c]·w[r,c]` as `Tape::row_dot_rows` computes it.
fn row_dots(x: &Matrix, w: &Matrix) -> Vec<f32> {
    (0..x.rows())
        .map(|r| x.row(r).iter().zip(w.row(r)).map(|(a, b)| a * b).sum())
        .collect()
}

/// One column's forward through the parent's layer walk, full width: every
/// layer's input and pre-activation, and the logits.
struct ColumnForward {
    inputs: Vec<Matrix>,
    pre: Vec<Matrix>,
    logits: Matrix,
}

fn parent_column_forward(frozen: &sam::nn::FrozenMade, x: &Matrix) -> ColumnForward {
    let last = frozen.layers().len() - 1;
    let (mut inputs, mut pre) = (Vec::new(), Vec::new());
    let mut h = x.clone();
    for (l, (w, b)) in frozen.layers().iter().enumerate() {
        let mut y = parent_forward(&h, w, b, None);
        if frozen.residual_flags()[l] {
            y.add_assign(&h);
        }
        inputs.push(h);
        if l == last {
            return ColumnForward {
                inputs,
                pre,
                logits: y,
            };
        }
        h = y.map(|v| v.max(0.0));
        pre.push(y);
    }
    unreachable!("a MADE has an output layer")
}

/// One progressive step over every column of `made`, straight-through or
/// soft: the column's logit block from `forward_column`, a temperature-1
/// softmax, the sample fed back as the next input, a random row-dot factor per
/// column and a squared-error head. The forward blocks, every column's input
/// gradient and every parameter gradient are compared with the parent's
/// formulas (`parent_forward`, `parent_backward`) run backwards by hand in the
/// order the tape accumulates.
fn step_matches_the_parent_formulas(
    made: &Made,
    store: &mut ParamStore,
    rows: usize,
    straight_through: bool,
) {
    let (n, width) = (made.num_columns(), made.total_width());
    let frozen = made.freeze(store);
    let domains: Vec<usize> = (0..n).map(|i| made.domain_size(i)).collect();
    let hidden: Vec<usize> = frozen.layers()[..frozen.layers().len() - 1]
        .iter()
        .map(|(w, _)| w.rows())
        .collect();
    let masks = made_masks(&domains, &hidden);
    let what =
        format!("{n} columns, hidden {hidden:?}, {rows} rows, straight-through {straight_through}");
    let mut rng = Lcg(rows as u64 * 31 + straight_through as u64);

    // The tape's step.
    let mut tape = Tape::new();
    let bound = made.bind(&mut tape, store);
    let mut inputs = vec![tape.leaf(Matrix::zeros(rows, width))];
    let (mut blocks, mut heads) = (Vec::new(), Vec::new());
    let mut total: Option<Var> = None;
    for i in 0..n {
        let block = bound.forward_column(&mut tape, inputs[i], i);
        let soft = tape.softmax_rows(block, 1.0);
        let y = if straight_through {
            let shift = straight_through_shift(tape.value(soft));
            tape.add_const(soft, Rc::new(shift))
        } else {
            soft
        };
        let head = rng.dense(rows, domains[i]);
        let factor = tape.row_dot_rows(y, Rc::new(head.clone()));
        total = Some(match total {
            Some(t) => tape.add(t, factor),
            None => factor,
        });
        let padded = tape.pad_cols(y, made.offset(i), width);
        inputs.push(tape.add(inputs[i], padded));
        blocks.push(block);
        heads.push(head);
    }
    let targets: Vec<f32> = (0..rows).map(|_| rng.unit()).collect();
    let loss = tape.sq_err_mean(total.expect("columns"), Rc::new(targets.clone()));
    tape.backward(loss);
    store.zero_grads();
    bound.apply_grads(&tape, store);

    // The parent's forward, column by column.
    let mut x = Matrix::zeros(rows, width);
    let (mut forwards, mut softs) = (Vec::new(), Vec::new());
    let mut sum: Option<Vec<f32>> = None;
    for i in 0..n {
        let at = made.offset(i)..made.offset(i) + domains[i];
        let fwd = parent_column_forward(&frozen, &x);
        let block = columns(&fwd.logits, at.clone());
        assert_same_bits(
            &format!("{what}: column {i} logits"),
            tape.value(blocks[i]),
            &block,
        );
        let soft = softmax(&block);
        let mut y = soft.clone();
        if straight_through {
            y.add_assign(&straight_through_shift(&soft));
        }
        let factor = row_dots(&y, &heads[i]);
        sum = Some(match sum {
            Some(s) => s.iter().zip(&factor).map(|(a, b)| a + b).collect(),
            None => factor,
        });
        for r in 0..rows {
            for (o, &v) in x.row_mut(r)[at.clone()].iter_mut().zip(y.row(r)) {
                *o += v;
            }
        }
        forwards.push(fwd);
        softs.push(soft);
    }

    // The parent's backward: the head, then the columns last to first.
    let scale = 1.0f32 * 2.0 / rows as f32;
    let g_total: Vec<f32> = (0..rows)
        .map(|r| scale * (sum.as_ref().expect("columns")[r] - targets[r]))
        .collect();
    let layers = frozen.layers();
    let mut gw_leaf: Vec<Matrix> = layers
        .iter()
        .map(|(w, _)| Matrix::zeros(w.rows(), w.cols()))
        .collect();
    let mut gb_leaf: Vec<Matrix> = layers
        .iter()
        .map(|(w, _)| Matrix::zeros(1, w.rows()))
        .collect();
    // Gradient of the input of column `i + 1`, `None` past the last column.
    let mut g_next: Option<Matrix> = None;
    for i in (0..n).rev() {
        let at = made.offset(i)..made.offset(i) + domains[i];
        let mut g_y = Matrix::from_fn(rows, domains[i], |r, c| g_total[r] * heads[i].get(r, c));
        if let Some(g) = &g_next {
            g_y.add_assign(&columns(g, at.clone()));
        }
        // Softmax backward at temperature 1.
        let soft = &softs[i];
        let mut g = Matrix::zeros(rows, width);
        for r in 0..rows {
            let dot: f32 = g_y.row(r).iter().zip(soft.row(r)).map(|(a, b)| a * b).sum();
            for (c, o) in g.row_mut(r)[at.clone()].iter_mut().enumerate() {
                *o = soft.get(r, c) * (g_y.get(r, c) - dot) / 1.0;
            }
        }
        let fwd = &forwards[i];
        for l in (0..layers.len()).rev() {
            let (mut gx, gw, gb) =
                parent_backward(&g, &fwd.inputs[l], &layers[l].0, Some(&masks[l]));
            gw_leaf[l].add_assign(&gw);
            gb_leaf[l].add_assign(&gb);
            if frozen.residual_flags()[l] {
                gx.add_assign(&g);
            }
            // Through the ReLU that made this layer's input.
            g = match l {
                0 => gx,
                _ => Matrix::from_fn(rows, gx.cols(), |r, c| {
                    if fwd.pre[l - 1].get(r, c) > 0.0 {
                        gx.get(r, c)
                    } else {
                        0.0
                    }
                }),
            };
        }
        if let Some(next) = &g_next {
            g.add_assign(next);
        }
        assert_same_bits(
            &format!("{what}: input gradient of column {i}"),
            &tape.grad(inputs[i]),
            &g,
        );
        g_next = Some(g);
    }
    for l in 0..layers.len() {
        let (w, b) = (ParamId(2 * l), ParamId(2 * l + 1));
        assert_same_bits(
            &format!("{what}: layer {l} weight gradient"),
            store.grad(w),
            &gw_leaf[l],
        );
        assert_same_bits(
            &format!("{what}: layer {l} bias gradient"),
            store.grad(b),
            &gb_leaf[l],
        );
    }
}

/// The benchmark's shape — 17 columns, MADE 64×64, no skips — at 33 rows so
/// the last four-row tile is partial, straight-through and soft; the
/// residual 17-column model of `models()`; and a MADE with no hidden layer,
/// whose one-hot first layer is its output layer.
#[test]
fn a_progressive_step_has_the_parent_gradients_to_the_bit() {
    let domains = [4, 9, 2, 31, 3, 5, 2, 12, 7, 2, 3, 40, 6, 2, 8, 3, 5];
    for (hidden, residual) in [(&[64, 64][..], false), (&[32, 32], true), (&[], false)] {
        let mut store = ParamStore::new();
        let made = Made::new(
            MadeConfig {
                domain_sizes: domains.to_vec(),
                hidden: hidden.to_vec(),
                seed: 17,
                residual,
            },
            &mut store,
        );
        let mut rng = Lcg(23);
        for id in (0..store.len()).map(ParamId) {
            if store.value(id).rows() == 1 {
                let cols = store.value(id).cols();
                *store.value_mut(id) = rng.dense(1, cols);
            }
        }
        for straight_through in [true, false] {
            step_matches_the_parent_formulas(&made, &mut store, 33, straight_through);
        }
    }
}

/// One progressive step like `step_gradients`, with the sample fed back
/// soft (the block's softmax, every entry non-zero) or straight-through (the
/// softmax shifted to one-hot), from an all-zero input or from a dense one.
/// Returns each column's logit block, each column's input gradient, and the
/// parameter gradients left in the store.
fn fed_back_step(
    made: &Made,
    store: &mut ParamStore,
    per_column: bool,
    soft: bool,
    dense_start: bool,
) -> (Vec<Matrix>, Vec<Matrix>, Vec<Matrix>) {
    let (rows, width) = (5, made.total_width());
    let mut rng = Lcg(11);
    let start = if dense_start {
        rng.dense(rows, width)
    } else {
        Matrix::zeros(rows, width)
    };
    let mut tape = Tape::new();
    let bound = made.bind(&mut tape, store);
    let mut inputs = vec![tape.leaf(start)];
    let (mut blocks, mut total) = (Vec::new(), None);
    for i in 0..made.num_columns() {
        let block = if per_column {
            bound.forward_column(&mut tape, inputs[i], i)
        } else {
            let logits = bound.forward(&mut tape, inputs[i]);
            bound.logits_of(&mut tape, logits, i)
        };
        let probs = tape.softmax_rows(block, 1.0);
        let y = if soft {
            probs
        } else {
            let shift = straight_through_shift(tape.value(probs));
            tape.add_const(probs, Rc::new(shift))
        };
        let head = rng.dense(rows, made.domain_size(i));
        let factor = tape.row_dot_rows(y, Rc::new(head));
        total = Some(match total {
            Some(t) => tape.add(t, factor),
            None => factor,
        });
        let padded = tape.pad_cols(y, made.offset(i), width);
        inputs.push(tape.add(inputs[i], padded));
        blocks.push(block);
    }
    let targets = Rc::new((0..rows).map(|_| rng.unit()).collect::<Vec<f32>>());
    let loss = tape.sq_err_mean(total.expect("at least one column"), targets);
    tape.backward(loss);
    store.zero_grads();
    bound.apply_grads(&tape, store);
    let n = made.num_columns();
    (
        blocks.iter().map(|&b| tape.value(b).clone()).collect(),
        inputs[..n].iter().map(|&x| tape.grad(x)).collect(),
        (0..store.len())
            .map(|k| store.grad(ParamId(k)).clone())
            .collect(),
    )
}

/// Live-set edge cases of `forward_column`, against `forward` + `logits_of`
/// to the bit — logit blocks, every column's input gradient and every
/// parameter gradient — with samples fed back soft and straight-through,
/// from a zero and from a dense first input: a single-column model, whose
/// logits read no hidden unit; hidden layers narrower than `n − 1`, so the
/// top degrees have no unit and the last columns share one live set; and a
/// residual stack, where column 0 reads no unit of any layer and both sides
/// of every skip are empty.
#[test]
fn forward_columns_match_full_forwards_on_live_set_edge_cases() {
    let shapes: [(&[usize], &[usize], bool); 4] = [
        (&[5], &[8], false),
        (&[5], &[8, 8], true),
        (&[3, 2, 4, 2, 5, 3], &[3, 3], false),
        (&[4, 3, 2], &[6, 6, 6], true),
    ];
    for (m, &(domains, hidden, residual)) in shapes.iter().enumerate() {
        let mut store = ParamStore::new();
        let made = Made::new(
            MadeConfig {
                domain_sizes: domains.to_vec(),
                hidden: hidden.to_vec(),
                seed: m as u64 + 60,
                residual,
            },
            &mut store,
        );
        let mut rng = Lcg(m as u64 + 3);
        for id in (0..store.len()).map(ParamId) {
            if store.value(id).rows() == 1 {
                let cols = store.value(id).cols();
                *store.value_mut(id) = rng.dense(1, cols);
            }
        }
        for soft in [true, false] {
            for dense_start in [false, true] {
                let what = format!(
                    "domains {domains:?}, hidden {hidden:?}, residual {residual}, \
                     soft {soft}, dense start {dense_start}"
                );
                let full = fed_back_step(&made, &mut store, false, soft, dense_start);
                let per_column = fed_back_step(&made, &mut store, true, soft, dense_start);
                assert!(
                    full.2.iter().any(|g| g.norm_sq() > 0.0),
                    "{what}: the step must produce gradients"
                );
                let kinds = ["logits of column", "input gradient of column", "parameter"];
                let pairs = [
                    (&per_column.0, &full.0),
                    (&per_column.1, &full.1),
                    (&per_column.2, &full.2),
                ];
                for (kind, (got, want)) in kinds.iter().zip(pairs) {
                    assert_eq!(got.len(), want.len(), "{what}: {kind} count");
                    for (k, (g, w)) in got.iter().zip(want).enumerate() {
                        assert_same_bits(&format!("{what}: {kind} {k}"), g, w);
                    }
                }
            }
        }
    }
}

/// Every output of `added_back_step`, in its order.
const ADDED_BACK: [&str; 5] = [
    "logits of column",
    "value of input",
    "gradient of input",
    "gradient of sample",
    "parameter gradient",
];

/// One progressive step like `fed_back_step`, from `start`, each sample
/// added back into the next input by `add_cols` (`one_op`) or by `pad_cols`
/// then `add`. With `rewind`, every odd column's sample goes back at the
/// previous column's offset, under the prefix the first layer's sums on the
/// previous input already cover. Returns, in `ADDED_BACK`'s order, every
/// column's logit block, every input's value and gradient, every sample's
/// gradient and the parameter gradients left in the store.
fn added_back_step(
    made: &Made,
    store: &mut ParamStore,
    one_op: bool,
    soft: bool,
    start: &Matrix,
    rewind: bool,
) -> [Vec<Matrix>; 5] {
    let (rows, width) = (start.rows(), made.total_width());
    let mut rng = Lcg(13);
    let mut tape = Tape::new();
    let bound = made.bind(&mut tape, store);
    let mut inputs = vec![tape.leaf(start.clone())];
    let (mut blocks, mut samples, mut total) = (Vec::new(), Vec::new(), None);
    for i in 0..made.num_columns() {
        let block = bound.forward_column(&mut tape, inputs[i], i);
        let probs = tape.softmax_rows(block, 1.0);
        let y = if soft {
            probs
        } else {
            let shift = straight_through_shift(tape.value(probs));
            tape.add_const(probs, Rc::new(shift))
        };
        let head = rng.dense(rows, made.domain_size(i));
        let factor = tape.row_dot_rows(y, Rc::new(head));
        total = Some(match total {
            Some(t) => tape.add(t, factor),
            None => factor,
        });
        let offset = made.offset(if rewind && i % 2 == 1 { i - 1 } else { i });
        let next = if one_op {
            tape.add_cols(inputs[i], y, offset)
        } else {
            let padded = tape.pad_cols(y, offset, width);
            tape.add(inputs[i], padded)
        };
        inputs.push(next);
        blocks.push(block);
        samples.push(y);
    }
    let targets = Rc::new((0..rows).map(|_| rng.unit()).collect::<Vec<f32>>());
    let loss = tape.sq_err_mean(total.expect("at least one column"), targets);
    tape.backward(loss);
    store.zero_grads();
    bound.apply_grads(&tape, store);
    [
        blocks.iter().map(|&b| tape.value(b).clone()).collect(),
        inputs.iter().map(|&x| tape.value(x).clone()).collect(),
        inputs.iter().map(|&x| tape.grad(x)).collect(),
        samples.iter().map(|&y| tape.grad(y)).collect(),
        (0..store.len())
            .map(|k| store.grad(ParamId(k)).clone())
            .collect(),
    ]
}

/// `add_cols` against `pad_cols` + `add`, to the bit: every column's logit
/// block, every input's value and gradient, every sample's gradient and
/// every parameter gradient, on the benchmark's 17-column shape and on a
/// residual model, samples fed back soft and straight-through, from a zero
/// start, a dense one and one of signed zeros (the padded sum turns a `−0`
/// outside the block into `+0`), each in column order and rewound (a block
/// added under the carried prefix, which the carry must not take over).
#[test]
fn add_cols_has_the_bits_of_pad_cols_then_add() {
    let domains = [4, 9, 2, 31, 3, 5, 2, 12, 7, 2, 3, 40, 6, 2, 8, 3, 5];
    for (hidden, residual) in [(&[64, 64][..], false), (&[32, 32], true)] {
        let mut store = ParamStore::new();
        let made = Made::new(
            MadeConfig {
                domain_sizes: domains.to_vec(),
                hidden: hidden.to_vec(),
                seed: 19,
                residual,
            },
            &mut store,
        );
        let mut rng = Lcg(29);
        for id in (0..store.len()).map(ParamId) {
            if store.value(id).rows() == 1 {
                let cols = store.value(id).cols();
                *store.value_mut(id) = rng.dense(1, cols);
            }
        }
        let (rows, width) = (9, made.total_width());
        let starts = [
            ("zero", Matrix::zeros(rows, width)),
            ("dense", rng.dense(rows, width)),
            (
                "signed zeros",
                Matrix::from_fn(rows, width, |r, c| match (r + c) % 3 {
                    0 => -0.0,
                    _ => 0.0,
                }),
            ),
        ];
        for soft in [true, false] {
            for (name, start) in &starts {
                for rewind in [false, true] {
                    let what = format!(
                        "hidden {hidden:?}, residual {residual}, soft {soft}, \
                         {name} start, rewind {rewind}"
                    );
                    let got = added_back_step(&made, &mut store, true, soft, start, rewind);
                    let want = added_back_step(&made, &mut store, false, soft, start, rewind);
                    assert!(
                        want[4].iter().any(|g| g.norm_sq() > 0.0),
                        "{what}: the step must produce gradients"
                    );
                    for (kind, (got, want)) in ADDED_BACK.iter().zip(got.iter().zip(&want)) {
                        assert_eq!(got.len(), want.len(), "{what}: {kind} count");
                        for (k, (g, w)) in got.iter().zip(want).enumerate() {
                            assert_same_bits(&format!("{what}: {kind} {k}"), g, w);
                        }
                    }
                }
            }
        }
    }
}
