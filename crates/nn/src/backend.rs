//! The frozen-inference kernel.
//!
//! Every serving-path estimate and every generated tuple funnels through a
//! frozen forward pass, so this is where serving throughput lives.
//! [`ReferenceF32`] owns a frozen MADE-style layer stack (affine layers with
//! optional residual skips after the first, ReLU between, none after the
//! last) and computes the bits of the historical `FrozenMade::forward` loop
//! (a serial dot product per output) for the live rows, the requested logit
//! block and only the hidden units that block reads (one plan per column
//! block, built from the weights' exact zeros at construction).
//!
//! Sampling sets one code per column, in column order, so the first layer
//! is never multiplied: each sample path carries its first-layer pre-bias
//! sum, one row of the transposed first layer added per sampled code, and
//! the forward starts from that sum. Every post-ReLU layer runs the
//! register-tiled [`dense_tiled`] over compact weights. A row-liveness mask
//! selects which paths need this column's forward (trie-cached, deduped and
//! dead paths are masked out of an estimate; generation forwards every
//! row), and a column step reads one column's logit block, so the output
//! layer is asked for that block only. The tile has three compiled
//! instances of one generic loop, picked once per process
//! ([`TileIsa::detect`]): a portable and an AVX2 instance on the eight-lane
//! `F32x8` helper (plain fixed-size arrays the compiler lowers to SIMD
//! registers on stable Rust), and an AVX-512 instance on explicit `__m512`
//! multiplies and adds over 8-row tiles. All three give the same bits.

use crate::matrix::Matrix;
use std::ops::Range;
use std::sync::Arc;

/// The frozen layer stack the kernel executes: effective (already masked)
/// affine layers plus per-layer residual-skip flags. This is the canonical
/// f32 form — persistence serialises it and the kernel's plans are derived
/// from it.
#[derive(Debug, Clone)]
pub struct FrozenLayers {
    /// Per layer: (effective weights `out×in`, bias `1×out`).
    pub layers: Vec<(Matrix, Matrix)>,
    /// Per layer: add the layer input to its output before the activation.
    pub residual: Vec<bool>,
}

// -------------------------------------------------------------- ReferenceF32

/// The f32 kernel, the one every frozen forward runs on. It starts from
/// each row's first-layer pre-bias sum (carried by the sampler, or the axpy
/// of an input by [`forward_cols_into`](Self::forward_cols_into)), gathers
/// the live rows into a compact matrix (an unmasked batch is used as it is)
/// and walks the layers for the requested logit block only, on that block's
/// `Plan`; the block is copied back to the live rows. The first layer's live
/// units get bias and ReLU. Every later layer reads a post-ReLU activation
/// and runs the register-tiled [`dense_tiled`], on the instance
/// [`TileIsa::detect`] picked at construction, over the plan's compact
/// weights: the live inputs × the live outputs. For finite weights (model
/// files with a non-finite weight are refused at load) every logit has the
/// bits of the serial dot product `((0 + x₀w₀) + x₁w₁) + …` that the
/// historical `FrozenMade::forward` computed, a lock the parity tests keep
/// against that loop written out.
#[derive(Debug, Clone)]
pub struct ReferenceF32 {
    params: Arc<FrozenLayers>,
    /// The first layer's effective weights transposed (`in×out`): the
    /// axpy's operand and the rows a carried sum adds. Later layers are
    /// read through the plans' compact copies.
    first_t: Matrix,
    /// One plan per range given at construction; any other range gets its
    /// plan built each time it is asked for.
    plans: Vec<Plan>,
    /// The compiled instance of [`dense_tiled`] this CPU runs.
    isa: TileIsa,
}

/// What the forward of one logit block reads, derived from the exact zeros
/// of the effective weights (a model file carries those, not the MADE
/// degrees) by [`live_units`]. A unit that is not live only ever meets its
/// live consumers through a `±0` weight: its term is a finite post-ReLU
/// value times `±0`, and adding that `±0` to a sum that starts at `+0`, and
/// so is never `−0`, leaves the sum's bits as they are. So the walk skips
/// those units, and the remaining terms still run in ascending index order.
#[derive(Debug, Clone)]
struct Plan {
    cols: Range<usize>,
    /// The first layer's live units, ascending.
    first: Vec<usize>,
    /// Per layer after the first: `effᵀ` over the live inputs × the live
    /// outputs (both ascending), with [`TILE_PAD`] zero columns past the
    /// end, and the bias of the live outputs.
    packs: Vec<(Matrix, Vec<f32>)>,
    /// Where `cols.start` sits among the output layer's live units: `cols`
    /// itself, or a superset of it when that layer is residual.
    block_at: usize,
}

/// The units a forward of outputs `cols` of the last layer reads, per layer
/// and ascending: entry `i` lists layer `i`'s live outputs (the last entry
/// is `cols`, or a superset of it when the last layer is residual). `links`
/// holds each layer's `out×in` matrix, whose non-zero entries join an
/// output to an input: the effective weights for inference, the MADE masks
/// for training. Working back from `cols`, an input of a layer is live when
/// a non-zero entry joins it to a live output. A residual layer adds its
/// input unit `j` to its output unit `j`, so both sides of a skip hold one
/// live set, their union, taken to a fixpoint.
pub(crate) fn live_units(
    links: &[&Matrix],
    residual: &[bool],
    cols: Range<usize>,
) -> Vec<Vec<usize>> {
    let last = links.len() - 1;
    let mut live: Vec<Vec<bool>> = links.iter().map(|w| vec![false; w.rows()]).collect();
    live[last][cols].fill(true);
    let mut grew = true;
    while grew {
        grew = false;
        for i in (1..=last).rev() {
            let (lower, upper) = live.split_at_mut(i);
            let (ins, outs) = (&mut lower[i - 1], &mut upper[0]);
            let mut mark = |j: usize| grew |= !std::mem::replace(&mut ins[j], true);
            for o in (0..outs.len()).filter(|&o| outs[o]) {
                for (j, &v) in links[i].row(o).iter().enumerate() {
                    if v != 0.0 {
                        mark(j);
                    }
                }
                if residual[i] {
                    mark(o);
                }
            }
            if residual[i] {
                for (o, &l) in outs.iter_mut().zip(ins.iter()) {
                    grew |= l && !std::mem::replace(o, true);
                }
            }
        }
    }
    live.iter()
        .map(|l| (0..l.len()).filter(|&u| l[u]).collect())
        .collect()
}

impl Plan {
    fn new(params: &FrozenLayers, cols: Range<usize>) -> Plan {
        let layers = &params.layers;
        let last = layers.len() - 1;
        let links: Vec<&Matrix> = layers.iter().map(|(w, _)| w).collect();
        let mut live = live_units(&links, &params.residual, cols.clone());
        let packs = (1..=last)
            .map(|i| {
                let (w, b) = &layers[i];
                let (ins, outs) = (&live[i - 1], &live[i]);
                let mut pack = Matrix::default();
                gather(&mut pack, w, outs, ins, true);
                (pack, outs.iter().map(|&o| b.get(0, o)).collect())
            })
            .collect();
        let block_at = live[last].partition_point(|&u| u < cols.start);
        Plan {
            cols,
            first: live.swap_remove(0),
            packs,
            block_at,
        }
    }
}

impl ReferenceF32 {
    /// Wrap shared frozen layers, with a plan for each logit range of
    /// `blocks` (a model's column blocks and its full width). The first
    /// layer must not be residual: its input is the one-hot encoding, which
    /// the carried sums stand for ([`FrozenMade::from_parts`](crate::FrozenMade::from_parts)
    /// refuses such a file).
    pub fn new(params: Arc<FrozenLayers>, blocks: &[Range<usize>]) -> Self {
        assert!(!params.residual[0], "the first layer has no residual skip");
        let first_t = params.layers[0].0.transpose();
        let plans = blocks
            .iter()
            .map(|cols| Plan::new(&params, cols.clone()))
            .collect();
        ReferenceF32 {
            params,
            first_t,
            plans,
            isa: TileIsa::detect(),
        }
    }

    /// The layer stack this kernel runs.
    pub(crate) fn params(&self) -> &FrozenLayers {
        &self.params
    }

    /// The plan of `cols`.
    fn plan(&self, cols: Range<usize>) -> std::borrow::Cow<'_, Plan> {
        match self.plans.iter().find(|p| p.cols == cols) {
            Some(plan) => std::borrow::Cow::Borrowed(plan),
            None => std::borrow::Cow::Owned(Plan::new(&self.params, cols)),
        }
    }

    /// The walk over the rows of `sums`, the first layer's pre-bias sums,
    /// for logits `cols`; row `k` of `out` gets row `k`'s block. The plan's
    /// live first-layer units get bias and ReLU (layer 0 is never residual:
    /// its input is the one-hot encoding); layers 1.. are [`dense_tiled`] on
    /// the plan's compact weights.
    fn walk(&self, sums: &Matrix, cols: Range<usize>, mut out: impl FnMut(usize, &[f32])) {
        let plan = self.plan(cols.clone());
        let last = plan.packs.len();
        let bias = self.params.layers[0].1.row(0);
        let mut h = Matrix::zeros(sums.rows(), plan.first.len());
        for k in 0..h.rows() {
            let sum = sums.row(k);
            for (o, &u) in h.row_mut(k).iter_mut().zip(&plan.first) {
                let v = sum[u] + bias[u];
                *o = if last != 0 { v.max(0.0) } else { v };
            }
        }
        for (i, (pack, bias)) in (1..).zip(&plan.packs) {
            h = dense_tiled(
                self.isa,
                &h,
                pack,
                0..bias.len(),
                bias,
                self.params.residual[i],
                i != last,
            );
        }
        let block = plan.block_at..plan.block_at + cols.len();
        for k in 0..h.rows() {
            out(k, &h.row(k)[block.clone()]);
        }
    }

    /// The forward of a batch of rows of any input (`rows × in_width`):
    /// the axpy [`Matrix::matmul_block`] of `input` by `effᵀ₀` gives every
    /// row's first-layer sums, then the carried forward
    /// [`forward_carried_cols_into`](Self::forward_carried_cols_into) runs on
    /// them with the same `live` and `cols`. The axpy takes each sum from
    /// `+0` over the inputs in ascending order, skipping zeros, so a sum has
    /// the bits of the serial dot product, and a one-hot row's sum those of
    /// its carry.
    pub fn forward_cols_into(
        &self,
        input: &Matrix,
        live: Option<&[bool]>,
        cols: Range<usize>,
        out: &mut Matrix,
    ) {
        let sums = input.matmul_block(&self.first_t, 0..input.cols(), 0..self.first_t.cols());
        self.forward_carried_cols_into(&sums, live, cols, out);
    }

    /// Row `pos` of the first layer's transposed weights: what setting
    /// one-hot input `pos` adds to a row's carried first-layer sum.
    pub fn carry_row(&self, pos: usize) -> &[f32] {
        self.first_t.row(pos)
    }

    /// The one forward. `carry` (rows × the first layer's width) holds one
    /// row per sample path: that path's first-layer pre-bias sum, built by
    /// adding [`carry_row`](Self::carry_row)`(pos)` for each set one-hot
    /// input `pos` in ascending order, starting from `+0`. That is the sum
    /// the axpy over the one-hot row computes (`1.0 · effᵀ₀[pos]` is
    /// `effᵀ₀[pos]`), so it has the same bits. `live` masks the rows that
    /// need this forward (paths whose conditionals are trie-cached, deduped
    /// onto a representative row, or dead are masked out; `None` forwards
    /// every row). Each live row runs the output layer for logits `cols`,
    /// and the hidden layers for only the units those logits read; every
    /// element of `out[r, cols]` of a live row is overwritten, and nothing
    /// else of `out` is touched.
    ///
    /// Per-row arithmetic does not depend on the mask or the other rows,
    /// and narrowing to `cols` only drops terms that add an exact `±0`, so
    /// masking and narrowing change cost, never values: the block is
    /// bit-identical to the same block of a full-width forward.
    pub fn forward_carried_cols_into(
        &self,
        carry: &Matrix,
        live: Option<&[bool]>,
        cols: Range<usize>,
        out: &mut Matrix,
    ) {
        assert_eq!(out.rows(), carry.rows(), "output buffer shape mismatch");
        assert_eq!(
            carry.cols(),
            self.first_t.cols(),
            "carried sum shape mismatch"
        );
        // Under a mask the live rows are gathered first, so every layer
        // multiplies a compact matrix; unmasked, the sums are used as they are.
        let live_rows: Vec<usize> = (0..carry.rows())
            .filter(|&r| live.is_none_or(|m| m[r]))
            .collect();
        let compact = live.map(|_| {
            let mut compact = Matrix::zeros(live_rows.len(), carry.cols());
            for (k, &r) in live_rows.iter().enumerate() {
                compact.row_mut(k).copy_from_slice(carry.row(r));
            }
            compact
        });
        let sums = compact.as_ref().unwrap_or(carry);
        self.walk(sums, cols.clone(), |k, block| {
            out.row_mut(live_rows[k])[cols.clone()].copy_from_slice(block)
        });
    }
}

// --------------------------------------------------------------------- simd

/// Portable eight-lane f32 vector for the tile's inner loop: a plain
/// fixed-size array whose `#[inline(always)]` lane-wise ops (its pair's
/// [`Lanes`] impl) the compiler reliably lowers to one 256-bit SIMD
/// register (or two 128-bit ones) on stable Rust — no intrinsics, no
/// nightly features, no new dependencies. The portable and AVX2 instances hold a row's `JB = 16`
/// partial sums in two of these across the whole input loop, so the hot
/// loop is loads plus lane-wise multiply-adds with no per-element memory
/// round-trips.
#[derive(Clone, Copy, Debug)]
struct F32x8([f32; 8]);

/// One row's [`JB`] = 16 sums of a tile, held in registers across the
/// input loop: two [`F32x8`]s, or one AVX-512 `__m512`. `add_mul` is
/// `self + a * w` lane by lane: a rounded multiply, then a rounded add,
/// never one fused operation, so every form rounds as the scalar loop does.
///
/// # Safety
///
/// The methods may run instructions of the instance that uses the form
/// (`__m512`: AVX-512F); a caller must have detected them.
trait Lanes: Copy {
    unsafe fn zero() -> Self;
    unsafe fn load(w: &[f32; JB]) -> Self;
    unsafe fn add_mul(self, a: f32, w: Self) -> Self;
    unsafe fn store(self, d: &mut [f32; JB]);
}

impl Lanes for [F32x8; 2] {
    #[inline(always)]
    unsafe fn zero() -> Self {
        [F32x8([0.0; 8]); 2]
    }

    #[inline(always)]
    unsafe fn load(w: &[f32; JB]) -> Self {
        std::array::from_fn(|h| F32x8(std::array::from_fn(|l| w[8 * h + l])))
    }

    #[inline(always)]
    unsafe fn add_mul(mut self, a: f32, w: Self) -> Self {
        for (s, w) in self.iter_mut().zip(&w) {
            for l in 0..8 {
                s.0[l] += a * w.0[l];
            }
        }
        self
    }

    #[inline(always)]
    unsafe fn store(self, d: &mut [f32; JB]) {
        d[..8].copy_from_slice(&self[0].0);
        d[8..].copy_from_slice(&self[1].0);
    }
}

/// Explicit intrinsics: a sixteen-lane array compiled under `avx512f`
/// ran ten times slower than this.
#[cfg(target_arch = "x86_64")]
impl Lanes for std::arch::x86_64::__m512 {
    #[inline(always)]
    unsafe fn zero() -> Self {
        std::arch::x86_64::_mm512_setzero_ps()
    }

    #[inline(always)]
    unsafe fn load(w: &[f32; JB]) -> Self {
        std::arch::x86_64::_mm512_loadu_ps(w.as_ptr())
    }

    #[inline(always)]
    unsafe fn add_mul(self, a: f32, w: Self) -> Self {
        use std::arch::x86_64::{_mm512_add_ps, _mm512_mul_ps, _mm512_set1_ps};
        _mm512_add_ps(self, _mm512_mul_ps(_mm512_set1_ps(a), w))
    }

    #[inline(always)]
    unsafe fn store(self, d: &mut [f32; JB]) {
        std::arch::x86_64::_mm512_storeu_ps(d.as_mut_ptr(), self)
    }
}

// ---------------------------------------------------------------- dense tile

/// Outputs of one register tile of [`dense_tiled`] (one [`Lanes`] per row).
const JB: usize = 16;

/// Zero columns past the end of every transposed weight that
/// [`dense_tiled`] reads, so the last 16-wide tile of any block is full.
pub const TILE_PAD: usize = JB;

/// `src[rows, cols]`, or its transpose with `transpose`, into `dst` with
/// [`TILE_PAD`] zero columns past the end: the compact block the tile reads.
/// `dst` keeps its allocation.
pub(crate) fn gather(
    dst: &mut Matrix,
    src: &Matrix,
    rows: &[usize],
    cols: &[usize],
    transpose: bool,
) {
    if transpose {
        dst.reset(cols.len(), rows.len() + TILE_PAD);
    } else {
        dst.reset(rows.len(), cols.len() + TILE_PAD);
    }
    for (k, &r) in rows.iter().enumerate() {
        let from = src.row(r);
        for (p, &c) in cols.iter().enumerate() {
            let (i, j) = if transpose { (p, k) } else { (k, p) };
            dst.set(i, j, from[c]);
        }
    }
}

/// One compiled instance of [`dense_tiled`], all three from one generic
/// body: portable and AVX2 run 4-row tiles on two `F32x8`s per row,
/// AVX-512 runs 8-row tiles on one `__m512` per row. [`TileIsa::detect`]
/// picks the widest the CPU has, and [`TileIsa::available`] lists every
/// instance this CPU can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileIsa(Isa);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl TileIsa {
    /// The instance for this CPU: AVX-512 where `avx512f` is detected, else
    /// AVX2 where that is, else portable.
    pub fn detect() -> TileIsa {
        *Self::available().last().expect("the portable instance")
    }

    /// Every instance this CPU can run, portable first, widest last.
    pub fn available() -> Vec<TileIsa> {
        let mut isas = vec![TileIsa(Isa::Portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                isas.push(TileIsa(Isa::Avx2));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                isas.push(TileIsa(Isa::Avx512));
            }
        }
        isas
    }
}

/// One dense layer of a post-ReLU activation: for every row `i` of `x` and
/// output `j` of `cols`, the sum `((0 + x[i,0]·w_t[0,j]) + x[i,1]·w_t[1,j]) + …`
/// over the inputs in ascending order, then `+ bias[j - cols.start]`, then
/// `+ x[i, j]` when `residual`, then `max(·, 0)` when `relu`. Row `i` of the
/// result holds outputs `cols`.
///
/// A register tile of 4 rows (8 on AVX-512) × 16 outputs keeps its sums in
/// registers for the whole input loop, and adds every product, zero or
/// not: a zero input adds an exact `±0` to a sum that starts at `+0` and so
/// is never `−0`. For finite weights the bits are therefore those of
/// [`Matrix::matmul_block`] (which skips zero inputs) and of the serial dot
/// product, whichever instance runs: lane-wise multiply and add are IEEE
/// operations, and no fused multiply-add is used.
///
/// `w_t` (`in×out`) must have at least `cols.end + TILE_PAD` columns
/// ([`ReferenceF32`] pads each `effᵀ` with [`TILE_PAD`] zero columns), so
/// the last tile of `cols` reads a full 16 outputs; sums past `cols` are
/// never stored. Rows of a last partial tile reread `x`'s last row and are
/// never stored either.
pub fn dense_tiled(
    isa: TileIsa,
    x: &Matrix,
    w_t: &Matrix,
    cols: Range<usize>,
    bias: &[f32],
    residual: bool,
    relu: bool,
) -> Matrix {
    assert_eq!(bias.len(), cols.len(), "dense tile bias width");
    assert!(
        !residual || cols.end <= x.cols(),
        "residual block out of range"
    );
    let epilogue = Epilogue {
        bias,
        residual,
        relu,
    };
    tiled(isa, x, w_t, 0..w_t.rows(), cols, Some(epilogue))
}

/// `x @ w_t[rows, cols]` on the register tile of [`dense_tiled`], with no
/// bias, skip or ReLU: for finite `w_t`, the bits of
/// [`Matrix::matmul_block`]. `x` has `rows.len()` columns, and `w_t` the
/// [`TILE_PAD`] columns past `cols.end` that [`dense_tiled`] asks for.
pub fn matmul_tiled(
    isa: TileIsa,
    x: &Matrix,
    w_t: &Matrix,
    rows: Range<usize>,
    cols: Range<usize>,
) -> Matrix {
    tiled(isa, x, w_t, rows, cols, None)
}

/// What [`dense_tiled`] does to a sum before storing it.
#[derive(Clone, Copy)]
struct Epilogue<'a> {
    bias: &'a [f32],
    residual: bool,
    relu: bool,
}

/// The shared entry of [`dense_tiled`] and [`matmul_tiled`].
fn tiled(
    isa: TileIsa,
    x: &Matrix,
    w_t: &Matrix,
    rows: Range<usize>,
    cols: Range<usize>,
    epilogue: Option<Epilogue>,
) -> Matrix {
    let (m, k, n) = (x.rows(), x.cols(), cols.len());
    assert!(
        rows.len() == k && rows.end <= w_t.rows(),
        "dense tile shape mismatch"
    );
    assert!(
        cols.end + TILE_PAD <= w_t.cols(),
        "dense tile reads past the padding"
    );
    crate::obs_hooks::count_matmul!(m, k, n);
    let mut y = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return y;
    }
    let row0 = rows.start;
    match isa.0 {
        // SAFETY: the two-`F32x8` lanes run baseline instructions only.
        Isa::Portable => unsafe {
            tiled_body::<[F32x8; 2], 4>(x, w_t, row0, cols, epilogue, &mut y)
        },
        // SAFETY (both): `TileIsa::available` only hands out `Avx2` after
        // `is_x86_feature_detected!("avx2")` and `Avx512` after
        // `is_x86_feature_detected!("avx512f")`, and the field is private.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { tiled_avx2(x, w_t, row0, cols, epilogue, &mut y) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { tiled_avx512(x, w_t, row0, cols, epilogue, &mut y) },
    }
    y
}

/// The AVX2 instance of the tile; callers must have detected AVX2 (only an
/// `Isa::Avx2` from [`TileIsa::available`] leads here).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tiled_avx2(
    x: &Matrix,
    w_t: &Matrix,
    row0: usize,
    cols: Range<usize>,
    epilogue: Option<Epilogue>,
    y: &mut Matrix,
) {
    // SAFETY: the two-`F32x8` lanes need no more than this function enables.
    unsafe { tiled_body::<[F32x8; 2], 4>(x, w_t, row0, cols, epilogue, y) }
}

/// The AVX-512 instance of the tile; callers must have detected AVX-512F
/// (only an `Isa::Avx512` from [`TileIsa::available`] leads here).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn tiled_avx512(
    x: &Matrix,
    w_t: &Matrix,
    row0: usize,
    cols: Range<usize>,
    epilogue: Option<Epilogue>,
    y: &mut Matrix,
) {
    // SAFETY: the `__m512` lanes need AVX-512F, which this function enables.
    unsafe { tiled_body::<std::arch::x86_64::__m512, 8>(x, w_t, row0, cols, epilogue, y) }
}

/// The tile loop over `R`-row tiles of `L` lanes per row, inlined into
/// each compiled instance: `x`'s input `p` meets row `row0 + p` of `w_t`.
///
/// # Safety
///
/// The CPU runs `L`'s instructions (see [`Lanes`]), and `w_t` has the
/// shape [`tiled`] asserts: rows `row0..row0 + x.cols()`, and [`TILE_PAD`]
/// columns past `cols.end`.
#[inline(always)]
unsafe fn tiled_body<L: Lanes, const R: usize>(
    x: &Matrix,
    w_t: &Matrix,
    row0: usize,
    cols: Range<usize>,
    epilogue: Option<Epilogue>,
    y: &mut Matrix,
) {
    let (m, k) = (x.rows(), x.cols());
    let stride = w_t.cols();
    // The tile's inputs, interleaved: `quad[p]` holds input `p` of its rows.
    let mut quad = vec![[0.0f32; R]; k];
    for i0 in (0..m).step_by(R) {
        let rows: [&[f32]; R] = std::array::from_fn(|r| x.row((i0 + r).min(m - 1)));
        for (p, q) in quad.iter_mut().enumerate() {
            *q = std::array::from_fn(|r| rows[r][p]);
        }
        for j0 in cols.clone().step_by(JB) {
            let mut acc = [L::zero(); R];
            // Input `p`'s 16 weights start `p` rows below `w`. A raw walk,
            // not `chunks`, whose per-input bookkeeping made the 8-row tile
            // ≈ 1.3× slower. An input with no columns reads no weights (its
            // pack may have no rows at all), and its sums stay `+0`.
            let mut w = w_t.data().as_ptr().wrapping_add(row0 * stride + j0);
            for q in &quad {
                // SAFETY: row `row0 + p` of `w_t` exists, and `j0 + JB` is
                // at most `cols.end + TILE_PAD - 1`, inside the row.
                let lanes = L::load(&*w.cast::<[f32; JB]>());
                w = w.wrapping_add(stride);
                for (sums, &a) in acc.iter_mut().zip(q) {
                    *sums = sums.add_mul(a, lanes);
                }
            }
            let (c0, jn) = (j0 - cols.start, JB.min(cols.end - j0));
            for (r, sums) in acc.iter().enumerate().take(m - i0) {
                let mut tile = [0.0f32; JB];
                sums.store(&mut tile);
                let out = &mut y.row_mut(i0 + r)[c0..c0 + jn];
                match epilogue {
                    None => out.copy_from_slice(&tile[..jn]),
                    Some(e) => {
                        for (j, (o, &s)) in out.iter_mut().zip(&tile).enumerate() {
                            let mut v = s + e.bias[c0 + j];
                            if e.residual {
                                v += rows[r][j0 + j];
                            }
                            if e.relu {
                                v = v.max(0.0);
                            }
                            *o = v;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer_stack(seed: u64, dims: &[(usize, usize)]) -> Arc<FrozenLayers> {
        // Deterministic pseudo-random weights without pulling in rand here.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f32 / (1u64 << 53) as f32) * 2.0 - 0.5
        };
        let layers = dims
            .iter()
            .map(|&(out, inp)| {
                (
                    Matrix::from_fn(out, inp, |_, _| next()),
                    Matrix::from_fn(1, out, |_, _| next()),
                )
            })
            .collect::<Vec<_>>();
        Arc::new(FrozenLayers {
            residual: vec![false; layers.len()],
            layers,
        })
    }

    /// The historical `FrozenMade::forward` loop — one serial dot product per
    /// output, then bias, residual and ReLU — the kernel's oracle.
    fn serial_forward(params: &FrozenLayers, input: &Matrix) -> Matrix {
        let last = params.layers.len() - 1;
        let mut h = input.clone();
        for (i, (w, b)) in params.layers.iter().enumerate() {
            let mut y = crate::matrix::serial_dot_products(&h, w);
            for r in 0..y.rows() {
                for (o, &bb) in y.row_mut(r).iter_mut().zip(b.row(0)) {
                    *o += bb;
                }
            }
            if params.residual[i] {
                y.add_assign(&h);
            }
            if i != last {
                y = y.map(|v| v.max(0.0));
            }
            h = y;
        }
        h
    }

    /// `available` lists the portable instance first, then one instance per
    /// extension the CPU reports, and `detect` is the last of them: the
    /// parity tests loop over `available`, so no compiled instance this CPU
    /// can run goes untested.
    #[test]
    fn available_lists_every_detected_instance_and_detect_is_the_last() {
        let isas = TileIsa::available();
        #[allow(unused_mut)]
        let mut want = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                want.push(Isa::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                want.push(Isa::Avx512);
            }
        }
        assert_eq!(isas.iter().map(|t| t.0).collect::<Vec<_>>(), want);
        assert_eq!(Some(&TileIsa::detect()), isas.last());
    }

    /// The one forward, masked and narrowed to a logit block: live rows of
    /// the block carry the bits of the serial loop. Masked-out rows keep a
    /// sentinel, and so does every logit of a live row outside the block.
    #[test]
    fn masked_forward_matches_unmasked_per_row() {
        let mut params = (*layer_stack(11, &[(70, 23), (70, 70), (23, 70)])).clone();
        params.residual[1] = true;
        let params = Arc::new(params);
        let kernel = ReferenceF32::new(Arc::clone(&params), &[]);
        let rows = 13;
        let input = Matrix::from_fn(
            rows,
            23,
            |r, c| if (r * 5 + c) % 4 == 0 { 0.9 } else { 0.0 },
        );
        let mask: Vec<bool> = (0..rows).map(|r| r % 3 != 1).collect();
        let sentinel = -7.25f32;
        let full = serial_forward(&params, &input);
        for cols in [0..23, 5..12, 22..23] {
            let mut masked = Matrix::full(rows, 23, sentinel);
            kernel.forward_cols_into(&input, Some(&mask), cols.clone(), &mut masked);
            for (r, &row_live) in mask.iter().enumerate() {
                for c in 0..23 {
                    if row_live && cols.contains(&c) {
                        assert_eq!(
                            full.get(r, c).to_bits(),
                            masked.get(r, c).to_bits(),
                            "block {cols:?} row {r} col {c} diverged under mask"
                        );
                    } else {
                        assert_eq!(
                            masked.get(r, c),
                            sentinel,
                            "block {cols:?} wrote row {r} col {c} outside the live block"
                        );
                    }
                }
            }
        }
    }

    /// Residual stacks whose weights are eight ninths exact zeros, so a layer's
    /// live inputs differ from its live outputs and some units reach no
    /// logit: every block, and ranges that are not blocks, has the bits of
    /// the serial loop, masked, unmasked and from a carried first layer.
    /// With skips on every layer after the first, on the middle one only,
    /// and on the output layer (whose live set is then wider than the block).
    #[test]
    fn sparse_residual_stacks_match_the_serial_loop_on_every_block() {
        let skips = [
            [false, true, true],
            [false, true, false],
            [false, false, true],
        ];
        for (seed, residual) in (21..30).zip(skips.into_iter().cycle()) {
            let mut params = (*layer_stack(seed, &[(12, 12), (12, 12), (12, 12)])).clone();
            for (l, (w, _)) in params.layers.iter_mut().enumerate() {
                for (k, v) in w.data_mut().iter_mut().enumerate() {
                    let h =
                        (seed * 1009 + (l * 144 + k) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    if !(h >> 32).is_multiple_of(9) {
                        *v = 0.0;
                    }
                }
            }
            params.residual = residual.to_vec();
            let blocks = [0..1, 1..4, 4..9, 9..12];
            let reference = ReferenceF32::new(Arc::new(params.clone()), &blocks);
            let rows = 9;
            let input = Matrix::from_fn(rows, 12, |r, c| ((r * 3 + c) % 4 == 0) as u8 as f32);
            let want = serial_forward(&params, &input);
            let mut carry = Matrix::zeros(rows, 12);
            for r in 0..rows {
                for pos in (0..12).filter(|&p| input.get(r, p) == 1.0) {
                    let w = reference.carry_row(pos);
                    for (o, &v) in carry.row_mut(r).iter_mut().zip(w) {
                        *o += v;
                    }
                }
            }
            let mask: Vec<bool> = (0..rows).map(|r| r % 4 != 2).collect();
            for cols in blocks.iter().cloned().chain([0..12, 5..6, 2..11]) {
                let mut outs = [
                    Matrix::zeros(rows, 12),
                    Matrix::zeros(rows, 12),
                    Matrix::zeros(rows, 12),
                ];
                reference.forward_cols_into(&input, None, cols.clone(), &mut outs[0]);
                reference.forward_cols_into(&input, Some(&mask), cols.clone(), &mut outs[1]);
                reference.forward_carried_cols_into(&carry, None, cols.clone(), &mut outs[2]);
                for (how, out) in ["unmasked", "masked", "carried"].iter().zip(&outs) {
                    for r in (0..rows).filter(|&r| *how != "masked" || mask[r]) {
                        for c in cols.clone() {
                            assert_eq!(
                                out.get(r, c).to_bits(),
                                want.get(r, c).to_bits(),
                                "skips {residual:?}, {how} block {cols:?}: row {r} logit {c}"
                            );
                        }
                    }
                }
            }
        }
    }
}
