//! Bit-lock of the training tape's masked linear layer.
//!
//! Same seed ⇒ same weights is the system's spine, and `sam-nn`'s tape is
//! where a training step's arithmetic lives. The tape multiplies through
//! step-packed weights with an axpy kernel and evaluates one column's logit
//! block at a time; the commit before that (`7bd41c8`) multiplied through
//! `Matrix::matmul_transb` (since deleted), one serial dot product per
//! output. Its `masked_linear` is written out below as the oracle, and
//! the tape must reproduce it to the bit. Nothing on the compared path calls
//! libm (no softmax, no log), so the expected bits do not depend on the
//! machine.

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

/// `7bd41c8`'s `Tape::masked_linear` forward.
fn parent_forward(x: &Matrix, w: &Matrix, b: &Matrix, mask: Option<&Matrix>) -> Matrix {
    let eff = match mask {
        Some(m) => w.mul_elem(m),
        None => w.clone(),
    };
    // One serial dot product per output, `acc += a·b` for `p` ascending.
    let mut y = Matrix::from_fn(x.rows(), eff.rows(), |r, j| {
        let mut acc = 0.0f32;
        for p in 0..x.cols() {
            acc += x.get(r, p) * eff.get(j, p);
        }
        acc
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
/// for an output gradient `g`.
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
    let gx = g.matmul(&eff);
    let mut gw = g.matmul_transa(x);
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
        let what = format!(
            "case {case} ({rows}x{inp} -> {out}, cols {cols:?}, masked {masked}, \
             sparse {sparse}, {uses} uses)"
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
            let y = if ranged {
                tape.masked_linear_cols(x, w, b, mask.clone(), cols.clone())
            } else {
                tape.masked_linear(x, w, b, mask.clone())
            };
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
