//! Property-based tests for the neural substrate: algebraic identities of
//! the matrix kernels, randomized gradient checks of the tape, MADE's
//! autoregressive invariant under random configurations, and inference
//! kernel parity (the `ReferenceF32` bit-match lock, its carried first
//! layer and its register-tiled dense layers).

use proptest::prelude::*;
use sam_nn::backend::{dense_tiled, matmul_tiled, TileIsa, TILE_PAD};
use sam_nn::{FrozenMade, Made, MadeConfig, Matrix, ParamStore, Tape};
use std::rc::Rc;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// The pre-refactor `FrozenMade::forward` loop, one serial dot product per
/// output written out, kept as the oracle the `ReferenceF32` kernel must
/// bit-match forever.
fn legacy_forward(frozen: &FrozenMade, input: &Matrix) -> Matrix {
    let mut h = input.clone();
    let last = frozen.layers().len() - 1;
    for (i, (w, b)) in frozen.layers().iter().enumerate() {
        let mut y = Matrix::from_fn(h.rows(), w.rows(), |r, j| {
            let mut acc = 0.0f32;
            for p in 0..h.cols() {
                acc += h.get(r, p) * w.get(j, p);
            }
            acc
        });
        for r in 0..y.rows() {
            let row = y.row_mut(r);
            for (o, &bb) in row.iter_mut().zip(b.row(0)) {
                *o += bb;
            }
        }
        if frozen.residual_flags()[i] {
            y.add_assign(&h);
        }
        if i != last {
            y = y.map(|v| v.max(0.0));
        }
        h = y;
    }
    h
}

/// A random frozen MADE plus a batch of random one-hot-ish inputs.
fn random_frozen(
    domains: &[usize],
    hidden: Vec<usize>,
    seed: u64,
    residual: bool,
) -> (FrozenMade, Matrix) {
    let mut store = ParamStore::new();
    let made = Made::new(
        MadeConfig {
            domain_sizes: domains.to_vec(),
            hidden,
            seed,
            residual,
        },
        &mut store,
    );
    let frozen = made.freeze(&store);
    let width = frozen.total_width();
    let mut input = Matrix::zeros(37, width);
    // One-hot rows with a seeded spread, like real sampling prefixes.
    for r in 0..input.rows() {
        for (i, &d) in domains.iter().enumerate() {
            if (r + i) % 3 != 0 {
                let code = (r * 31 + i * 17 + seed as usize) % d;
                input.set(r, frozen.offset(i) + code, 1.0);
            }
        }
    }
    (frozen, input)
}

proptest! {
    /// (AB)ᵀ = BᵀAᵀ.
    #[test]
    fn matmul_transpose_identity(a in arb_matrix(3, 4), b in arb_matrix(4, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// matmul distributes over addition: A(B + C) = AB + AC.
    #[test]
    fn matmul_distributes(
        a in arb_matrix(2, 3),
        b in arb_matrix(3, 3),
        c in arb_matrix(3, 3),
    ) {
        let mut bc = b.clone();
        bc.add_assign(&c);
        let left = a.matmul(&bc);
        let mut right = a.matmul(&b);
        right.add_assign(&a.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Randomized gradient check of a softmax → weighted-sum → log → MSE
    /// chain (the exact op composition DPS uses).
    #[test]
    fn random_gradient_check(
        x0 in arb_matrix(2, 4),
        w in prop::collection::vec(0.05f32..1.0, 4),
        t in prop::collection::vec(-1.0f32..1.0, 2),
    ) {
        let build = |tape: &mut Tape, x| {
            let p = tape.softmax_rows(x, 1.0);
            let s = tape.row_dot_const(p, Rc::new(w.clone()));
            let l = tape.log(s, 1e-6);
            tape.sq_err_mean(l, Rc::new(t.clone()))
        };
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let loss = build(&mut tape, x);
        tape.backward(loss);
        let grad = tape.grad(x);

        let h = 1e-2f32;
        for idx in 0..x0.len() {
            let mut xp = x0.clone();
            xp.data_mut()[idx] += h;
            let mut tp = Tape::new();
            let vp = tp.leaf(xp);
            let lp = build(&mut tp, vp);
            let fp = tp.value(lp).get(0, 0);

            let mut xm = x0.clone();
            xm.data_mut()[idx] -= h;
            let mut tm = Tape::new();
            let vm = tm.leaf(xm);
            let lm = build(&mut tm, vm);
            let fm = tm.value(lm).get(0, 0);

            let numeric = (fp - fm) / (2.0 * h);
            let analytic = grad.data()[idx];
            prop_assert!(
                (numeric - analytic).abs() <= 0.05 * (1.0 + numeric.abs().max(analytic.abs())),
                "idx {}: numeric {} vs analytic {}", idx, numeric, analytic
            );
        }
    }

    /// MADE's autoregressive property holds for random shapes and seeds:
    /// perturbing column j's input never changes logits of columns <= j.
    #[test]
    fn made_autoregressive_property(
        domains in prop::collection::vec(2usize..5, 2..5),
        hidden in 4usize..24,
        seed in 0u64..1000,
        perturb_col in any::<prop::sample::Index>(),
    ) {
        let mut store = ParamStore::new();
        let made = Made::new(
            MadeConfig { domain_sizes: domains.clone(), hidden: vec![hidden], seed, residual: false },
            &mut store,
        );
        let frozen = made.freeze(&store);
        let width = frozen.total_width();
        let base = Matrix::zeros(1, width);
        let l1 = frozen.forward(&base);

        let j = perturb_col.index(domains.len());
        let mut alt = base.clone();
        alt.set(0, frozen.offset(j), 1.0);
        let l2 = frozen.forward(&alt);

        // Logits of all columns i <= j must be untouched.
        for i in 0..=j {
            let off = frozen.offset(i);
            for k in 0..frozen.domain_size(i) {
                prop_assert!(
                    (l1.get(0, off + k) - l2.get(0, off + k)).abs() < 1e-5,
                    "column {} leaked into column {}", j, i
                );
            }
        }
    }

    /// `ReferenceF32` bit-matches the pre-refactor forward loop and stays
    /// within float tolerance of the tape-bound training forward, on random
    /// model shapes, seeds, and residual settings. Its column-block forward
    /// bit-matches the full forward's block.
    /// Shapes include a first domain wider than the 16-wide tile (column 0
    /// reads no hidden unit, and its block spans several tiles) and more
    /// columns than hidden units (some degrees have no unit).
    #[test]
    fn backend_parity(
        domains in prop::collection::vec(2usize..5, 2..10),
        wide_first in prop_oneof![Just(0usize), 17usize..40],
        hidden in 3usize..20,
        seed in 0u64..1000,
        residual in any::<bool>(),
        zero_weight in any::<prop::sample::Index>(),
        prefix_seed in any::<u64>(),
    ) {
        let mut domains = domains;
        if wide_first != 0 {
            domains[0] = wide_first;
        }
        let (frozen, input) = random_frozen(&domains, vec![hidden, hidden], seed, residual);
        let reference = frozen.forward(&input);

        // (a) ReferenceF32 is bit-exact against the legacy loop.
        let legacy = legacy_forward(&frozen, &input);
        for (x, y) in reference.data().iter().zip(legacy.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }

        // (b) Matches the tape-bound training forward within float tolerance.
        let mut store = ParamStore::new();
        let made = Made::new(
            MadeConfig {
                domain_sizes: domains.clone(),
                hidden: vec![hidden, hidden],
                seed,
                residual,
            },
            &mut store,
        );
        let mut tape = Tape::new();
        let bound = made.bind(&mut tape, &store);
        let x = tape.leaf(input.clone());
        let logits = bound.forward(&mut tape, x);
        let tape_out = tape.value(logits);
        for (x, y) in reference.data().iter().zip(tape_out.data()) {
            prop_assert!((x - y).abs() < 1e-4, "reference {} vs tape {}", x, y);
        }

        // (e) The column-block forward from the one-hot rows' carried
        // first-layer sums: every column's block, asked for alone,
        // overwrites that block of a poisoned buffer with the bits of the
        // legacy loop's full forward, once for every row and once under a
        // row mask. Masked-out rows stay poisoned, and so does every logit
        // of a live row outside the block. Biases start at zero, so they get
        // seeded values here for the order of the bias add to show in the
        // bits. The one-hot rows get an all-zero row beside them (the first
        // column's empty prefix). One weight the masks keep is set to
        // exactly `0.0`, as training could leave it: the f32 kernel reads
        // what a forward needs from the weights' zeros, not from the masks.
        let mut layers: Vec<(Matrix, Matrix)> = frozen
            .layers()
            .iter()
            .enumerate()
            .map(|(l, (w, b))| {
                let step = |j: usize| (seed as usize * 31 + l * 17 + j * 7) % 97;
                let bias = Matrix::from_fn(1, b.cols(), |_, j| step(j) as f32 / 97.0 - 0.5);
                (w.clone(), bias)
            })
            .collect();
        let kept: Vec<(usize, usize, usize)> = layers
            .iter()
            .enumerate()
            .flat_map(|(l, (w, _))| {
                (0..w.rows()).flat_map(move |r| (0..w.cols()).map(move |c| (l, r, c)))
            })
            .filter(|&(l, r, c)| layers[l].0.get(r, c) != 0.0)
            .collect();
        let (l, r, c) = kept[zero_weight.index(kept.len())];
        layers[l].0.set(r, c, 0.0);
        let biased =
            FrozenMade::from_parts(layers, frozen.residual_flags().to_vec(), domains.clone()).unwrap();
        let rows = input.rows() + 1;
        let width = biased.total_width();
        let input = Matrix::from_fn(rows, width, |r, c| {
            if r < input.rows() { input.get(r, c) } else { 0.0 }
        });
        let full = legacy_forward(&biased, &input);
        let mut carried = Matrix::zeros(0, 0);
        biased.reset_carry(&mut carried, rows);
        for r in 0..rows {
            for pos in (0..width).filter(|&p| input.get(r, p) == 1.0) {
                biased.carry_onehot(&mut carried, r, pos);
            }
        }
        for i in 0..domains.len() {
            let block = biased.offset(i)..biased.offset(i) + biased.domain_size(i);
            let mask: Vec<bool> = (0..rows).map(|r| !(r + i + seed as usize).is_multiple_of(3)).collect();
            for live in [None, Some(mask.as_slice())] {
                let mut out = Matrix::full(rows, width, f32::NAN);
                biased.forward_column_carried_into(&carried, live, i, &mut out);
                for r in 0..rows {
                    let row_live = live.is_none_or(|m| m[r]);
                    for c in 0..width {
                        if row_live && block.contains(&c) {
                            prop_assert_eq!(
                                out.get(r, c).to_bits(),
                                full.get(r, c).to_bits(),
                                "column {} row {} logit {} (masked: {})",
                                i, r, c, live.is_some()
                            );
                        } else {
                            prop_assert!(
                                out.get(r, c).is_nan(),
                                "column {} wrote row {} logit {} outside the live block",
                                i, r, c
                            );
                        }
                    }
                }
            }
        }

        // (f) The carried first layer: rows get random one-hot prefixes
        // column by column, as sampling sets them, with each set input added
        // to the row's carried sum. Before every column is set, the carried
        // forward's block has the bits of the legacy loop on the same
        // one-hot rows, on every column's block.
        let mut state = prefix_seed | 1;
        let mut next_code = |d: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % d as u64) as usize
        };
        let net = &biased;
        let mut onehot = Matrix::zeros(rows, width);
        let mut carry = Matrix::full(3, 5, f32::NAN); // reset reshapes it
        net.reset_carry(&mut carry, rows);
        for (i, &d) in domains.iter().enumerate() {
            let block = net.offset(i)..net.offset(i) + d;
            let want = legacy_forward(net, &onehot);
            let mut got = Matrix::full(rows, width, f32::NAN);
            net.forward_column_carried_into(&carry, None, i, &mut got);
            for r in 0..rows {
                for c in block.clone() {
                    prop_assert_eq!(
                        got.get(r, c).to_bits(),
                        want.get(r, c).to_bits(),
                        "carried column {} row {} logit {}",
                        i, r, c
                    );
                }
            }
            for r in 0..rows {
                let pos = net.offset(i) + next_code(d);
                onehot.set(r, pos, 1.0);
                net.carry_onehot(&mut carry, r, pos);
            }
        }
    }

    /// Softmax outputs are valid distributions for arbitrary logits.
    #[test]
    fn softmax_is_distribution(x in arb_matrix(3, 5), temp in 0.2f32..3.0) {
        let mut tape = Tape::new();
        let v = tape.leaf(x);
        let p = tape.softmax_rows(v, temp);
        let out = tape.value(p);
        for r in 0..out.rows() {
            let sum: f32 = out.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(out.row(r).iter().all(|&x| (0.0..=1.0001).contains(&x)));
        }
    }
}

/// `n` floats from a xorshift stream: uniform in `[-2, 2)`, and an exact zero
/// in `zero_quarters` of every four (at random).
fn xorshift_values(seed: u64, n: usize, zero_quarters: u64) -> Vec<f32> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let bits = next();
            if bits & 3 < zero_quarters {
                0.0
            } else {
                ((bits >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The register-tiled dense layer, through every compiled instance this
    /// CPU runs, has the bits of `matmul_block` followed by bias, residual
    /// and ReLU in that order: on row counts that leave a partial tile of
    /// four rows or of eight (the training batch of 32 and one more among
    /// them), on hidden widths that are and are not a multiple of the tile
    /// width, and on blocks that end at the padded edge or anywhere before
    /// it — the live prefix `0..offset_i` of a first-layer input gradient.
    /// The left operand is a post-ReLU activation (half zeros) or a
    /// ReLU-gated gradient (three quarters zeros), and weights are signed,
    /// so `−0` products occur. A left operand with no columns against a pack
    /// with no rows gives `+0` sums.
    #[test]
    fn backend_parity_dense_tile(
        rows in prop_oneof![Just(1usize), Just(3), Just(5), Just(7), Just(9), Just(15), Just(32), Just(33), Just(257)],
        hidden in prop_oneof![Just(16usize), Just(24), Just(64)],
        wide_out in any::<bool>(),
        residual in any::<bool>(),
        relu in any::<bool>(),
        gated in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let width = if wide_out && !residual { 2 * hidden + 5 } else { hidden };
        let zeros = if gated { 3 } else { 2 };
        let x = Matrix::from_vec(rows, hidden, xorshift_values(seed, rows * hidden, zeros));
        let w = xorshift_values(seed ^ 0x5bd1_e995, hidden * width, 0);
        let w_t = Matrix::from_fn(hidden, width + TILE_PAD, |p, j| {
            if j < width { w[p * width + j] } else { 0.0 }
        });
        let bias = xorshift_values(seed ^ 0x27d4_eb2f, width, 0);
        let prefix = 1 + (seed >> 7) as usize % width;
        for cols in [0..width, 3..width.min(21), width - 2..width, 0..prefix] {
            let mut want = x.matmul_block(&w_t, 0..hidden, cols.clone());
            for r in 0..rows {
                for (c, o) in cols.clone().zip(want.row_mut(r)) {
                    *o += bias[c];
                    if residual {
                        *o += x.get(r, c);
                    }
                    if relu {
                        *o = o.max(0.0);
                    }
                }
            }
            for isa in TileIsa::available() {
                let got = dense_tiled(
                    isa, &x, &w_t, cols.clone(), &bias[cols.clone()], residual, relu,
                );
                prop_assert_eq!((got.rows(), got.cols()), (rows, cols.len()));
                for (i, (g, e)) in got.data().iter().zip(want.data()).enumerate() {
                    prop_assert_eq!(
                        g.to_bits(),
                        e.to_bits(),
                        "{:?} block {:?}: row {} output {}",
                        isa, cols, i / cols.len(), cols.start + i % cols.len()
                    );
                }
            }
        }

        // No inputs at all, as a logit block that reads no hidden unit
        // (column 0's) meets the tile: `x` has no columns, the pack no
        // rows, and the blocks span several tiles. Every sum is `+0`, so an
        // output is `+0 + bias` (a `−0` bias comes out `+0`), then the ReLU.
        let width = 37;
        let x = Matrix::zeros(rows, 0);
        let w_t = Matrix::zeros(0, width + TILE_PAD);
        let mut bias = xorshift_values(seed ^ 0x27d4_eb2f, width, 1);
        bias[(seed >> 3) as usize % width] = -0.0;
        for cols in [0..width, 17..width, width - 2..width] {
            for isa in TileIsa::available() {
                let got = dense_tiled(isa, &x, &w_t, cols.clone(), &bias[cols.clone()], false, relu);
                prop_assert_eq!((got.rows(), got.cols()), (rows, cols.len()));
                for r in 0..rows {
                    for (j, c) in cols.clone().enumerate() {
                        let mut want = 0.0f32 + bias[c];
                        if relu {
                            want = want.max(0.0);
                        }
                        prop_assert_eq!(
                            got.get(r, j).to_bits(),
                            want.to_bits(),
                            "{:?} empty input, block {:?}: row {} output {}",
                            isa, cols, r, c
                        );
                    }
                }
            }
        }
    }

    /// The tape's products on the tile, `x @ w_t[rows, cols]`, have the bits
    /// of `matmul_block` through every compiled instance: a ReLU-gated
    /// gradient (three quarters zeros, and whole columns zero where a unit
    /// cannot reach the logits being trained) against the padded `w ∘ mask`
    /// of a layer, at the rows of one output block (the output layer's input
    /// gradient) or all of them, over a live prefix `0..offset_i` that ends
    /// anywhere (the first layer's input gradient) or the full width.
    #[test]
    fn backend_parity_matmul_tile(
        rows in prop_oneof![Just(1usize), Just(3), Just(7), Just(9), Just(15), Just(32), Just(33), Just(257)],
        out in prop_oneof![Just(16usize), Just(64), Just(144)],
        width in prop_oneof![Just(5usize), Just(64), Just(199)],
        seed in any::<u64>(),
    ) {
        let w = xorshift_values(seed ^ 0x5bd1_e995, out * width, 1);
        let eff = Matrix::from_fn(out, width + TILE_PAD, |j, p| {
            if p < width { w[j * width + p] } else { 0.0 }
        });
        let start = (seed >> 11) as usize % out;
        let block = start..start + 1 + (seed >> 23) as usize % (out - start);
        let prefix = 1 + (seed >> 37) as usize % width;
        for rows_of_w in [0..out, block] {
            let k = rows_of_w.len();
            let g = xorshift_values(seed, rows * k, 3);
            let g = Matrix::from_fn(rows, k, |r, j| {
                if (seed >> (j % 64)) & 1 == 0 { 0.0 } else { g[r * k + j] }
            });
            for cols in [0..width, 0..prefix] {
                let want = g.matmul_block(&eff, rows_of_w.clone(), cols.clone());
                for isa in TileIsa::available() {
                    let got = matmul_tiled(isa, &g, &eff, rows_of_w.clone(), cols.clone());
                    prop_assert_eq!((got.rows(), got.cols()), (rows, cols.len()));
                    for (i, (a, e)) in got.data().iter().zip(want.data()).enumerate() {
                        prop_assert_eq!(
                            a.to_bits(),
                            e.to_bits(),
                            "{:?} rows {:?} block {:?}: row {} output {}",
                            isa, rows_of_w, cols, i / cols.len(), i % cols.len()
                        );
                    }
                }
            }
        }
    }
}
