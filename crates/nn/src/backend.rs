//! Pluggable frozen-inference runtime.
//!
//! Every serving-path estimate and every generated tuple funnels through a
//! frozen forward pass, so this is where serving throughput lives. The
//! [`InferenceBackend`] trait is the seam: a backend owns a frozen MADE-style
//! layer stack (affine layers with optional residual skips, ReLU between,
//! none after the last) and pushes a row-chunk of inputs through it into a
//! caller-provided output buffer. Three implementations ship:
//!
//! * [`ReferenceF32`] — the bits of the historical `FrozenMade::forward`
//!   loop (a serial dot product per output), computed for the live rows,
//!   the requested logit block and only the hidden units that block reads
//!   (one plan per column block, built from the weights' exact zeros at
//!   construction): a sparse axpy for the one-hot first layer and the
//!   register-tiled [`dense_tiled`] over compact weights for every
//!   post-ReLU layer. It shares the effective f32 weights with the frozen
//!   handle and doubles as the parity oracle for every other backend.
//! * [`BlockedF16`] — weights repacked at freeze time into column-major
//!   blocks sized for the row-chunked loop and stored as IEEE 754 `binary16`
//!   bits (no external crates). The inner kernel dequantises one block into
//!   an f32 scratch tile and reuses it for every row of the chunk, so the
//!   conversion cost amortises across the batch; input zeros (one-hot rows
//!   are almost entirely zero) skip the whole tile row. Accumulation stays
//!   in f32 — only the stored weights are half precision.
//! * [`Int8Blocked`] — the same block grid, but weights quantised to `i8`
//!   with one f32 scale per block (symmetric: scale = block max / 127).
//!   Dequantisation is a vectorisable int→float convert + multiply instead
//!   of the f16 table gather, all-zero blocks — which the autoregressive
//!   masks produce in large triangular regions — are skipped outright, and
//!   a per-tile bitmask skips individual all-zero weight rows inside
//!   surviving tiles (the masks' finer structure), so the kernel does
//!   strictly less work than [`BlockedF16`] per forward.
//!
//! Every forward enters through [`InferenceBackend::forward_cols_into`]. The
//! sample batch is one persistent row-per-path matrix; a row-liveness mask
//! selects which paths need this column's forward (trie-cached, deduped and
//! dead paths are masked out of an estimate; generation forwards every row),
//! and a column step reads one column's logit block, so the output layer is
//! asked for that block only. [`ReferenceF32`] gathers the live rows and
//! computes just the block from the hidden units it reads; the blocked
//! kernels skip masked-out rows in place and compute their full width. The
//! dense tile and the blocked kernels' inner loops use the portable
//! eight-lane `F32x8` helper — plain fixed-size arrays the compiler lowers
//! to SIMD registers on stable Rust, no intrinsics and no new dependencies.

use crate::matrix::Matrix;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

// ------------------------------------------------------------------ binary16

/// Convert an `f32` to IEEE 754 `binary16` bits with round-to-nearest-even.
/// Overflow saturates to ±inf; NaN maps to a quiet NaN.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN: keep NaN-ness (quiet bit set), drop the payload.
        return if mant != 0 {
            sign | 0x7e00
        } else {
            sign | 0x7c00
        };
    }
    // Re-bias: f32 exponent −127, f16 exponent −15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow → ±inf
    }
    if unbiased >= -14 {
        // Normal f16. Mantissa 23 → 10 bits, round to nearest even.
        let mant16 = mant >> 13;
        let round_bits = mant & 0x1fff;
        let mut out = sign | (((unbiased + 15) as u16) << 10) | mant16 as u16;
        if round_bits > 0x1000 || (round_bits == 0x1000 && (mant16 & 1) != 0) {
            out += 1; // carries ripple into the exponent correctly
        }
        return out;
    }
    if unbiased >= -25 {
        // Subnormal f16: implicit leading 1 becomes explicit, shifted.
        let full = mant | 0x0080_0000;
        let shift = (-14 - unbiased) + 13;
        let mant16 = full >> shift;
        let round_bit = 1u32 << (shift - 1);
        let round_bits = full & ((round_bit << 1) - 1);
        let mut out = sign | mant16 as u16;
        if round_bits > round_bit || (round_bits == round_bit && (mant16 & 1) != 0) {
            out += 1;
        }
        return out;
    }
    sign // underflow → ±0
}

/// Convert IEEE 754 `binary16` bits back to `f32` (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h as u32) & 0x8000) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;
    let bits = match (exp, mant) {
        (0, 0) => sign,
        (0, m) => {
            // Subnormal (`m × 2⁻²⁴`): normalise so the leading 1 sits at
            // bit 10, then re-bias into a normal f32.
            let lead = m.leading_zeros() - 21; // zeros above bit 10
            let m10 = m << lead; // in [2¹⁰, 2¹¹): value = 2^(−14−lead)·(m10/2¹⁰)
            let exp32 = 127 - 14 - lead;
            sign | (exp32 << 23) | ((m10 & 0x03ff) << 13)
        }
        (0x1f, 0) => sign | 0x7f80_0000,
        (0x1f, m) => sign | 0x7f80_0000 | (m << 13) | 0x0040_0000,
        (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

/// The 64K-entry `binary16 → f32` decode table, built once per process.
/// Dequantisation in the blocked kernel is a single indexed load.
fn f16_table() -> &'static [f32; 1 << 16] {
    static TABLE: std::sync::OnceLock<Box<[f32; 1 << 16]>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = vec![0.0f32; 1 << 16].into_boxed_slice();
        for (i, slot) in t.iter_mut().enumerate() {
            *slot = f16_bits_to_f32(i as u16);
        }
        t.try_into().expect("exact length")
    })
}

// ----------------------------------------------------------------- the seam

/// Which inference backend a frozen model runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Bit-exact f32 reference kernels (the parity oracle).
    ReferenceF32,
    /// Column-major-blocked `binary16` weights with f32 accumulation.
    BlockedF16,
    /// Column-major-blocked `i8` weights with per-block f32 scales.
    Int8Blocked,
}

impl BackendKind {
    /// Every selectable kernel, in documentation order.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::ReferenceF32,
        BackendKind::BlockedF16,
        BackendKind::Int8Blocked,
    ];

    /// Stable identifier, used by persistence and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::ReferenceF32 => "f32",
            BackendKind::BlockedF16 => "f16",
            BackendKind::Int8Blocked => "int8",
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" | "reference" | "reference_f32" => Ok(BackendKind::ReferenceF32),
            "f16" | "blocked" | "blocked_f16" => Ok(BackendKind::BlockedF16),
            "int8" | "int8_blocked" => Ok(BackendKind::Int8Blocked),
            other => Err(format!(
                "unknown backend {other:?} (valid kernels: f32, f16, int8)"
            )),
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The frozen layer stack a backend executes: effective (already masked)
/// affine layers plus per-layer residual-skip flags. This is the canonical
/// f32 form — persistence serialises it and every backend is derived from it.
#[derive(Debug, Clone)]
pub struct FrozenLayers {
    /// Per layer: (effective weights `out×in`, bias `1×out`).
    pub layers: Vec<(Matrix, Matrix)>,
    /// Per layer: add the layer input to its output before the activation.
    pub residual: Vec<bool>,
}

/// A frozen-inference backend: forwards a row-chunk of inputs through the
/// frozen layer stack into a caller-provided output buffer.
///
/// Rows are independent sample paths, so implementations are free to chunk
/// or reorder work per row as long as per-row arithmetic is preserved.
pub trait InferenceBackend: Send + Sync + fmt::Debug {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// The one forward. `input` (rows × in_width) holds one row per sample
    /// path, and `live` masks the rows that need this forward (paths whose
    /// conditionals are trie-cached, deduped onto a representative row, or
    /// dead are masked out; `None` forwards every row). Each live row runs
    /// the output layer for logits `cols`, and the hidden layers for at
    /// least the units those logits read (the f32 kernel computes only
    /// those; f16 and int8 run every unit); every element of `out[r, cols]`
    /// of a live row is overwritten, and masked-out rows of `out` are never
    /// touched. An implementation may also overwrite a live row outside
    /// `cols`.
    ///
    /// Per-row arithmetic does not depend on the mask or the other rows,
    /// and narrowing to `cols` only drops terms that add an exact `±0`, so
    /// masking and narrowing change cost, never values: the block is
    /// bit-identical to the same block of a full-width forward.
    fn forward_cols_into(
        &self,
        input: &Matrix,
        live: Option<&[bool]>,
        cols: Range<usize>,
        out: &mut Matrix,
    );

    /// Row `pos` of the first layer's transposed weights, when this kernel
    /// can start a forward from a carried first-layer sum
    /// ([`forward_carried_cols_into`](InferenceBackend::forward_carried_cols_into));
    /// `None` (the default) when it walks every layer from the input.
    fn carry_row(&self, _pos: usize) -> Option<&[f32]> {
        None
    }

    /// The forward of every row of a one-hot `input` for logits `cols`,
    /// given `carry`: per row, the first layer's pre-bias sum, built by
    /// adding [`carry_row`](InferenceBackend::carry_row)`(pos)` for each set
    /// input `pos` in ascending order, starting from zero. A kernel that
    /// carries starts from that sum; the default ignores it and runs
    /// [`forward_cols_into`](InferenceBackend::forward_cols_into) on
    /// `input`. Either way the block has the bits of the full walk.
    fn forward_carried_cols_into(
        &self,
        input: &Matrix,
        _carry: &Matrix,
        cols: Range<usize>,
        out: &mut Matrix,
    ) {
        self.forward_cols_into(input, None, cols, out);
    }
}

/// Build a backend of `kind` over `params`, for forwards that ask for the
/// logit ranges `blocks` (a model's column blocks and its full width).
pub fn build_backend(
    kind: BackendKind,
    params: &Arc<FrozenLayers>,
    blocks: &[Range<usize>],
) -> Arc<dyn InferenceBackend> {
    match kind {
        BackendKind::ReferenceF32 => Arc::new(ReferenceF32::new(Arc::clone(params), blocks)),
        BackendKind::BlockedF16 => Arc::new(BlockedF16::new(params)),
        BackendKind::Int8Blocked => Arc::new(Int8Blocked::new(params)),
    }
}

// -------------------------------------------------------------- ReferenceF32

/// The f32 oracle: every other backend and the model files are checked
/// against its bits. It gathers the live rows into a compact matrix (an
/// unmasked input is used as it is) and walks the layers for the requested
/// logit block only, on that block's `Plan`; the block is copied
/// back to the live rows. The first layer reads the one-hot input and runs
/// the sparse axpy [`Matrix::matmul_block`] (or starts from a carried sum),
/// and its live units get bias, residual and ReLU. Every later layer reads
/// a post-ReLU activation and runs the register-tiled [`dense_tiled`], on
/// the instance [`TileIsa::detect`] picked at construction, over the
/// plan's compact weights: the live inputs × the live outputs. For finite
/// weights (model files with a non-finite weight are refused at load) every
/// logit has the bits of the serial dot product `((0 + x₀w₀) + x₁w₁) + …`
/// that the historical `FrozenMade::forward` computed, a lock the parity
/// tests keep against that loop written out. Unconditional sampling
/// carries each row's first-layer sum from column to column and enters the
/// walk after it (`forward_carried_cols_into`), with the same bits.
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
/// degrees). Working back from the block, an input of a layer is live when
/// a weight that is not `±0` joins it to a live output. A unit that is not
/// live only ever meets its live consumers through a `±0` weight: its term
/// is a finite post-ReLU value times `±0`, and adding that `±0` to a sum
/// that starts at `+0`, and so is never `−0`, leaves the sum's bits as they
/// are. So the walk skips those units, and the remaining terms still run
/// in ascending index order. A residual layer adds its input unit `j` to
/// its output unit `j`, so both sides of a skip hold one live set, their
/// union, taken to a fixpoint.
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

impl Plan {
    fn new(params: &FrozenLayers, cols: Range<usize>) -> Plan {
        let layers = &params.layers;
        let last = layers.len() - 1;
        let mut live: Vec<Vec<bool>> = layers.iter().map(|(w, _)| vec![false; w.rows()]).collect();
        live[last][cols.clone()].fill(true);
        let mut grew = true;
        while grew {
            grew = false;
            for i in (1..=last).rev() {
                let (lower, upper) = live.split_at_mut(i);
                let (ins, outs) = (&mut lower[i - 1], &mut upper[0]);
                let mut mark = |j: usize| grew |= !std::mem::replace(&mut ins[j], true);
                for o in (0..outs.len()).filter(|&o| outs[o]) {
                    for (j, &v) in layers[i].0.row(o).iter().enumerate() {
                        if v != 0.0 {
                            mark(j);
                        }
                    }
                    if params.residual[i] {
                        mark(o);
                    }
                }
                if params.residual[i] {
                    for (o, &l) in outs.iter_mut().zip(ins.iter()) {
                        grew |= l && !std::mem::replace(o, true);
                    }
                }
            }
        }
        let mut live: Vec<Vec<usize>> = live
            .iter()
            .map(|l| (0..l.len()).filter(|&u| l[u]).collect())
            .collect();
        let packs = (1..=last)
            .map(|i| {
                let (w, b) = &layers[i];
                let (ins, outs) = (&live[i - 1], &live[i]);
                let pack = Matrix::from_fn(ins.len(), outs.len() + TILE_PAD, |p, q| {
                    outs.get(q).map_or(0.0, |&o| w.get(o, ins[p]))
                });
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
    /// `blocks` (a model's column blocks and its full width).
    pub fn new(params: Arc<FrozenLayers>, blocks: &[Range<usize>]) -> Self {
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

    /// The plan of `cols`.
    fn plan(&self, cols: Range<usize>) -> std::borrow::Cow<'_, Plan> {
        match self.plans.iter().find(|p| p.cols == cols) {
            Some(plan) => std::borrow::Cow::Borrowed(plan),
            None => std::borrow::Cow::Owned(Plan::new(&self.params, cols)),
        }
    }

    /// The walk over the rows of `input` for logits `cols`; row `k` of
    /// `out` gets row `k`'s block. Layer 0 is the axpy
    /// `input.matmul_block(effᵀ₀, 0..in, ·)` over the span of the plan's
    /// live units, or `carry` when given (the first layer's pre-bias sums
    /// for the rows of `input`); its live units get bias, residual and ReLU.
    /// Layers 1.. are [`dense_tiled`] on the plan's compact weights.
    fn walk(
        &self,
        input: &Matrix,
        carry: Option<&Matrix>,
        cols: Range<usize>,
        mut out: impl FnMut(usize, &[f32]),
    ) {
        let plan = self.plan(cols.clone());
        let last = plan.packs.len();
        let units = &plan.first;
        let span = match (units.first(), units.last()) {
            (Some(&lo), Some(&hi)) => lo..hi + 1,
            _ => 0..0,
        };
        let axpy;
        let (sums, base) = match carry {
            Some(carry) => (carry, 0),
            None => {
                axpy = input.matmul_block(&self.first_t, 0..input.cols(), span.clone());
                (&axpy, span.start)
            }
        };
        let bias = self.params.layers[0].1.row(0);
        let residual = self.params.residual[0];
        let mut h = Matrix::zeros(input.rows(), units.len());
        for k in 0..h.rows() {
            let (sum, x) = (sums.row(k), input.row(k));
            for (o, &u) in h.row_mut(k).iter_mut().zip(units) {
                let mut v = sum[u - base] + bias[u];
                if residual {
                    v += x[u];
                }
                if last != 0 {
                    v = v.max(0.0);
                }
                *o = v;
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
}

impl InferenceBackend for ReferenceF32 {
    fn kind(&self) -> BackendKind {
        BackendKind::ReferenceF32
    }

    fn forward_cols_into(
        &self,
        input: &Matrix,
        live: Option<&[bool]>,
        cols: Range<usize>,
        out: &mut Matrix,
    ) {
        assert_eq!(out.rows(), input.rows(), "output buffer shape mismatch");
        // Under a mask the live rows are gathered first, so every layer
        // multiplies a compact matrix; unmasked, the input is used as it is.
        let live_rows: Vec<usize> = (0..input.rows()).filter(|&r| row_live(live, r)).collect();
        let compact = live.map(|_| {
            let mut compact = Matrix::zeros(live_rows.len(), input.cols());
            for (k, &r) in live_rows.iter().enumerate() {
                compact.row_mut(k).copy_from_slice(input.row(r));
            }
            compact
        });
        let input = compact.as_ref().unwrap_or(input);
        self.walk(input, None, cols.clone(), |k, block| {
            out.row_mut(live_rows[k])[cols.clone()].copy_from_slice(block)
        });
    }

    fn carry_row(&self, pos: usize) -> Option<&[f32]> {
        Some(self.first_t.row(pos))
    }

    /// Layer 1 starts from `carry` instead of scanning `input`: for a
    /// one-hot input the axpy adds `1.0 · effᵀ₀[pos]` = `effᵀ₀[pos]` for
    /// the set inputs in ascending order from zero, which is how `carry`
    /// was built, so the sums have the same bits. Bias, residual and ReLU
    /// follow as in the walk, then layers 2..n unchanged.
    fn forward_carried_cols_into(
        &self,
        input: &Matrix,
        carry: &Matrix,
        cols: Range<usize>,
        out: &mut Matrix,
    ) {
        assert_eq!(out.rows(), input.rows(), "output buffer shape mismatch");
        assert_eq!(
            (carry.rows(), carry.cols()),
            (input.rows(), self.first_t.cols()),
            "carried sum shape mismatch"
        );
        self.walk(input, Some(carry), cols.clone(), |k, block| {
            out.row_mut(k)[cols.clone()].copy_from_slice(block)
        });
    }
}

// --------------------------------------------------------------------- simd

/// Portable eight-lane f32 vector for the blocked kernels' inner loops: a
/// plain fixed-size array with `#[inline(always)]` lane-wise ops, which the
/// compiler reliably lowers to one 256-bit SIMD register (or two 128-bit
/// ones) on stable Rust — no intrinsics, no nightly features, no new
/// dependencies. The kernels hold a block row's `JB = 16` partial sums in
/// two of these across a whole tile walk, so the hot loop is loads plus
/// lane-wise multiply-adds with no per-element memory round-trips.
#[derive(Clone, Copy, Debug)]
struct F32x8([f32; 8]);

impl F32x8 {
    const ZERO: F32x8 = F32x8([0.0; 8]);

    #[inline(always)]
    fn load(s: &[f32]) -> F32x8 {
        F32x8(s.try_into().expect("eight lanes"))
    }

    #[inline(always)]
    fn store(self, d: &mut [f32]) {
        d.copy_from_slice(&self.0);
    }

    /// `self + a * w`, lane-wise: a rounded multiply, then a rounded add,
    /// never one fused operation, so the rounding matches the scalar loop
    /// bit-for-bit.
    #[inline(always)]
    fn add_mul(mut self, a: f32, w: F32x8) -> F32x8 {
        for l in 0..8 {
            self.0[l] += a * w.0[l];
        }
        self
    }
}

// ---------------------------------------------------------------- dense tile

/// Rows of one register tile of [`dense_tiled`].
const TILE_ROWS: usize = 4;

/// Zero columns past the end of every transposed weight that
/// [`dense_tiled`] reads, so the last 16-wide tile of any block is full.
pub const TILE_PAD: usize = JB;

/// `m` with [`TILE_PAD`] zero columns past its end, as the tile reads it.
pub(crate) fn tile_padded(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols() + TILE_PAD);
    for r in 0..m.rows() {
        out.row_mut(r)[..m.cols()].copy_from_slice(m.row(r));
    }
    out
}

/// One compiled instance of [`dense_tiled`]. Both instances run the same
/// generic body: [`TileIsa::detect`] picks AVX2 when the CPU has it, and
/// [`TileIsa::available`] lists every instance this CPU can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileIsa(Isa);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl TileIsa {
    /// The instance for this CPU: AVX2 where it is detected, else portable.
    pub fn detect() -> TileIsa {
        *Self::available().last().expect("the portable instance")
    }

    /// Every instance this CPU can run, portable first.
    pub fn available() -> Vec<TileIsa> {
        let mut isas = vec![TileIsa(Isa::Portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            isas.push(TileIsa(Isa::Avx2));
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
/// A register tile of 4 rows × 16 outputs keeps its sums in eight-lane
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
    match isa.0 {
        Isa::Portable => tiled_body(x, w_t, rows.start, cols, epilogue, &mut y),
        // SAFETY: `TileIsa::available` only hands out `Avx2` after
        // `is_x86_feature_detected!("avx2")`, and the field is private.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { tiled_avx2(x, w_t, rows.start, cols, epilogue, &mut y) },
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
    tiled_body(x, w_t, row0, cols, epilogue, y);
}

/// The tile loop, inlined into each compiled instance: `x`'s input `p`
/// meets row `row0 + p` of `w_t`.
#[inline(always)]
fn tiled_body(
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
    let mut quad = vec![[0.0f32; TILE_ROWS]; k];
    for i0 in (0..m).step_by(TILE_ROWS) {
        let rows: [&[f32]; TILE_ROWS] = std::array::from_fn(|r| x.row((i0 + r).min(m - 1)));
        for (p, q) in quad.iter_mut().enumerate() {
            *q = std::array::from_fn(|r| rows[r][p]);
        }
        for j0 in cols.clone().step_by(JB) {
            let mut acc = [[F32x8::ZERO; 2]; TILE_ROWS];
            // An input with no columns reads no weights (its pack may have
            // no rows at all), and its sums stay `+0`.
            let weights = w_t
                .data()
                .get(row0 * stride + j0..)
                .unwrap_or_default()
                .chunks(stride);
            for (q, w) in quad.iter().zip(weights) {
                let (w0, w1) = (F32x8::load(&w[..8]), F32x8::load(&w[8..JB]));
                for (sums, &a) in acc.iter_mut().zip(q) {
                    sums[0] = sums[0].add_mul(a, w0);
                    sums[1] = sums[1].add_mul(a, w1);
                }
            }
            let (c0, jn) = (j0 - cols.start, JB.min(cols.end - j0));
            for (r, sums) in acc.iter().enumerate().take(m - i0) {
                let mut tile = [0.0f32; JB];
                sums[0].store(&mut tile[..8]);
                sums[1].store(&mut tile[8..]);
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

// ----------------------------------------------------- blocked kernel shared

/// Outputs per weight block (the vectorised inner-loop width).
const JB: usize = 16;
/// Inputs per weight block (the dequantised scratch depth). Must stay ≤ 256
/// so the int8 kernel's compacted tile-row indices fit a `u8`.
const KB: usize = 64;
const _: () = assert!(KB <= 256, "compacted tile-row indices are u8");

/// True when `r` needs this forward (no mask ⇒ every row is live).
#[inline(always)]
fn row_live(live: Option<&[bool]>, r: usize) -> bool {
    live.is_none_or(|m| m[r])
}

/// Accumulate one dequantised `KB×JB` tile into every live row:
/// `y[r, j0..j0+jn] += x[r, k0..k0+kn] @ tile`. Full-width blocks keep the
/// row's `JB` partial sums in two [`F32x8`] registers across the tile walk;
/// ragged edge blocks take the scalar loop. Zero inputs (one-hot /
/// post-ReLU rows are mostly zeros) skip their tile row in both paths.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn accumulate_tile_rows(
    x: &Matrix,
    y: &mut Matrix,
    scratch: &[f32],
    live: Option<&[bool]>,
    k0: usize,
    kn: usize,
    j0: usize,
    jn: usize,
) {
    for r in 0..x.rows() {
        if !row_live(live, r) {
            continue;
        }
        let x_row = &x.row(r)[k0..k0 + kn];
        let y_row = &mut y.row_mut(r)[j0..j0 + jn];
        if jn == JB {
            let mut acc0 = F32x8::load(&y_row[..8]);
            let mut acc1 = F32x8::load(&y_row[8..]);
            for (kl, &a) in x_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let tile = &scratch[kl * JB..kl * JB + JB];
                acc0 = acc0.add_mul(a, F32x8::load(&tile[..8]));
                acc1 = acc1.add_mul(a, F32x8::load(&tile[8..]));
            }
            acc0.store(&mut y_row[..8]);
            acc1.store(&mut y_row[8..]);
        } else {
            for (kl, &a) in x_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let tile = &scratch[kl * JB..kl * JB + jn];
                for (o, &wv) in y_row.iter_mut().zip(tile) {
                    *o += a * wv;
                }
            }
        }
    }
}

/// Walk a packed layer stack: forward each layer with `forward_layer`, then
/// apply the residual skip and inter-layer ReLU to live rows only. The last
/// layer writes straight into the caller's buffer; masked-out rows of `out`
/// are never touched. Shared by the f16 and int8 kernels.
fn run_packed_stack<L>(
    layers: &[L],
    residual: impl Fn(&L) -> bool,
    out_dim: impl Fn(&L) -> usize,
    mut forward_layer: impl FnMut(&L, &Matrix, &mut Matrix, Option<&[bool]>),
    input: &Matrix,
    live: Option<&[bool]>,
    out: &mut Matrix,
) {
    let rows = input.rows();
    let last = layers.len() - 1;
    let mut h: Option<Matrix> = None;
    for (i, layer) in layers.iter().enumerate() {
        let mut y = if i == last {
            // Write the final layer straight into the caller's buffer.
            std::mem::replace(out, Matrix::zeros(0, 0))
        } else {
            Matrix::zeros(rows, out_dim(layer))
        };
        let x: &Matrix = h.as_ref().unwrap_or(input);
        forward_layer(layer, x, &mut y, live);
        if residual(layer) {
            for r in 0..rows {
                if !row_live(live, r) {
                    continue;
                }
                for (o, &a) in y.row_mut(r).iter_mut().zip(x.row(r)) {
                    *o += a;
                }
            }
        }
        if i != last {
            for r in 0..rows {
                if !row_live(live, r) {
                    continue;
                }
                for v in y.row_mut(r) {
                    *v = v.max(0.0);
                }
            }
            h = Some(y);
        } else {
            *out = y;
        }
    }
}

// --------------------------------------------------------------- BlockedF16

/// One layer repacked for the blocked kernel: `binary16` weights laid out
/// block-by-block, column-major within the block — for each input `k` of a
/// block, the `JB` output weights sit contiguously, so the row-update inner
/// loop is a unit-stride multiply-add over the scratch tile.
#[derive(Debug, Clone)]
struct PackedLayer {
    out_dim: usize,
    in_dim: usize,
    /// Block grid: `j_blocks × k_blocks` tiles of `KB×JB` half weights,
    /// zero-padded at the edges.
    data: Vec<u16>,
    bias: Vec<f32>,
    residual: bool,
}

impl PackedLayer {
    fn pack(w: &Matrix, b: &Matrix, residual: bool) -> PackedLayer {
        let (out_dim, in_dim) = (w.rows(), w.cols());
        let jbn = out_dim.div_ceil(JB);
        let kbn = in_dim.div_ceil(KB);
        let mut data = vec![0u16; jbn * kbn * JB * KB];
        for jb in 0..jbn {
            for kb in 0..kbn {
                let base = (jb * kbn + kb) * JB * KB;
                for kl in 0..KB.min(in_dim - kb * KB) {
                    let k = kb * KB + kl;
                    for jl in 0..JB.min(out_dim - jb * JB) {
                        let j = jb * JB + jl;
                        data[base + kl * JB + jl] = f32_to_f16_bits(w.get(j, k));
                    }
                }
            }
        }
        PackedLayer {
            out_dim,
            in_dim,
            data,
            bias: b.row(0).to_vec(),
            residual,
        }
    }

    /// `y[r] = x[r] @ W.T + bias` for live rows over the packed blocks;
    /// masked-out rows of `y` are never touched.
    fn forward(&self, x: &Matrix, y: &mut Matrix, scratch: &mut [f32], live: Option<&[bool]>) {
        debug_assert_eq!(x.cols(), self.in_dim);
        debug_assert_eq!((y.rows(), y.cols()), (x.rows(), self.out_dim));
        let table = f16_table();
        for r in 0..x.rows() {
            if row_live(live, r) {
                y.row_mut(r).copy_from_slice(&self.bias);
            }
        }
        let jbn = self.out_dim.div_ceil(JB);
        let kbn = self.in_dim.div_ceil(KB);
        for jb in 0..jbn {
            let j0 = jb * JB;
            let jn = JB.min(self.out_dim - j0);
            for kb in 0..kbn {
                let k0 = kb * KB;
                let kn = KB.min(self.in_dim - k0);
                // Dequantise the tile once; every row of the chunk reuses it.
                let block = &self.data[(jb * kbn + kb) * JB * KB..][..JB * KB];
                for (s, &h) in scratch.iter_mut().zip(block) {
                    *s = table[h as usize];
                }
                accumulate_tile_rows(x, y, scratch, live, k0, kn, j0, jn);
            }
        }
    }
}

/// Half-precision blocked backend: `binary16` storage, f32 accumulation,
/// weight tiles dequantised once per row-chunk.
#[derive(Debug, Clone)]
pub struct BlockedF16 {
    layers: Vec<PackedLayer>,
}

impl BlockedF16 {
    /// Repack frozen f32 layers into blocked `binary16` form.
    pub fn new(params: &FrozenLayers) -> Self {
        let layers = params
            .layers
            .iter()
            .zip(&params.residual)
            .map(|((w, b), &residual)| PackedLayer::pack(w, b, residual))
            .collect();
        BlockedF16 { layers }
    }
}

impl InferenceBackend for BlockedF16 {
    fn kind(&self) -> BackendKind {
        BackendKind::BlockedF16
    }

    /// The full-width masked forward: `cols` is ignored.
    fn forward_cols_into(
        &self,
        input: &Matrix,
        live: Option<&[bool]>,
        _cols: Range<usize>,
        out: &mut Matrix,
    ) {
        let mut scratch = [0.0f32; JB * KB];
        run_packed_stack(
            &self.layers,
            |l| l.residual,
            |l| l.out_dim,
            |l, x, y, m| l.forward(x, y, &mut scratch, m),
            input,
            live,
            out,
        );
    }
}

// -------------------------------------------------------------- Int8Blocked

/// One layer quantised for the int8 kernel: the [`PackedLayer`] block grid,
/// but each `KB×JB` tile stores `i8` codes plus one f32 dequantisation
/// scale (symmetric: scale = tile max / 127, so zero weights encode as
/// exact zero) — and only the tile rows that carry a nonzero code are
/// stored at all. The autoregressive masks zero out large triangular
/// regions of every weight matrix; compacting the surviving rows at pack
/// time means the run-time loops walk exactly the nonzero weight rows, with
/// no per-row branching, and all-zero tiles vanish as empty row ranges.
#[derive(Debug, Clone)]
struct PackedLayerI8 {
    out_dim: usize,
    in_dim: usize,
    /// Compacted codes: for each tile in `(jb, kb)` grid order, the `JB`
    /// codes of each nonzero tile row, rows in ascending `kl` order.
    data: Vec<i8>,
    /// `kl` index (within the tile) of each stored row, parallel to the
    /// row order of `data`.
    row_kl: Vec<u8>,
    /// Per-tile prefix offsets into the stored rows: tile `t` owns rows
    /// `tile_off[t]..tile_off[t + 1]`. Length `jbn · kbn + 1`.
    tile_off: Vec<u32>,
    /// One dequantisation scale per tile (unused for empty tiles).
    scales: Vec<f32>,
    bias: Vec<f32>,
    residual: bool,
}

impl PackedLayerI8 {
    fn pack(w: &Matrix, b: &Matrix, residual: bool) -> PackedLayerI8 {
        let (out_dim, in_dim) = (w.rows(), w.cols());
        let jbn = out_dim.div_ceil(JB);
        let kbn = in_dim.div_ceil(KB);
        let mut data = Vec::new();
        let mut row_kl = Vec::new();
        let mut tile_off = Vec::with_capacity(jbn * kbn + 1);
        tile_off.push(0u32);
        let mut scales = vec![0.0f32; jbn * kbn];
        for jb in 0..jbn {
            for kb in 0..kbn {
                let jn = JB.min(out_dim - jb * JB);
                let kn = KB.min(in_dim - kb * KB);
                let mut max_abs = 0.0f32;
                for kl in 0..kn {
                    for jl in 0..jn {
                        max_abs = max_abs.max(w.get(jb * JB + jl, kb * KB + kl).abs());
                    }
                }
                if max_abs > 0.0 {
                    let inv = 127.0 / max_abs;
                    scales[jb * kbn + kb] = max_abs / 127.0;
                    for kl in 0..kn {
                        let mut row = [0i8; JB];
                        let mut any = false;
                        for (jl, slot) in row.iter_mut().enumerate().take(jn) {
                            let q = (w.get(jb * JB + jl, kb * KB + kl) * inv).round();
                            let code = q.clamp(-127.0, 127.0) as i8;
                            *slot = code;
                            any |= code != 0;
                        }
                        if any {
                            data.extend_from_slice(&row);
                            row_kl.push(kl as u8);
                        }
                    }
                }
                tile_off.push(row_kl.len() as u32);
            }
        }
        PackedLayerI8 {
            out_dim,
            in_dim,
            data,
            row_kl,
            tile_off,
            scales,
            bias: b.row(0).to_vec(),
            residual,
        }
    }

    /// `y[r] = x[r] @ W.T + bias` for live rows; masked-out rows of `y` are
    /// never touched. Same tile walk as [`PackedLayer::forward`], but per
    /// tile only the stored (nonzero) weight rows are dequantised —
    /// contiguously, a convert + multiply with no table gather — and the
    /// per-sample accumulate iterates those rows directly, looking each
    /// one's input activation up by its `kl` index. Tiles the masks zeroed
    /// out entirely are empty row ranges and cost nothing.
    fn forward(&self, x: &Matrix, y: &mut Matrix, scratch: &mut [f32], live: Option<&[bool]>) {
        debug_assert_eq!(x.cols(), self.in_dim);
        debug_assert_eq!((y.rows(), y.cols()), (x.rows(), self.out_dim));
        let mut first_live = None;
        for r in 0..x.rows() {
            if row_live(live, r) {
                y.row_mut(r).copy_from_slice(&self.bias);
                first_live.get_or_insert(r);
            }
        }
        // Pick the accumulate flavour from the activation density of one
        // live row: one-hot input rows are ~2% nonzero and want the
        // zero-skipping loop, post-ReLU hidden rows are ~50% nonzero and
        // run faster as a straight branch-free SIMD walk (the skip branch
        // on near-random data mispredicts more than the multiplies cost).
        let dense = match first_live {
            None => return,
            Some(r) => {
                let nnz = x.row(r).iter().filter(|&&a| a != 0.0).count();
                nnz * 4 >= self.in_dim
            }
        };
        let jbn = self.out_dim.div_ceil(JB);
        let kbn = self.in_dim.div_ceil(KB);
        for jb in 0..jbn {
            let j0 = jb * JB;
            let jn = JB.min(self.out_dim - j0);
            for kb in 0..kbn {
                let t = jb * kbn + kb;
                let (r0, r1) = (self.tile_off[t] as usize, self.tile_off[t + 1] as usize);
                if r0 == r1 {
                    continue; // masked-out (all-zero) region of the weights
                }
                let scale = self.scales[t];
                let k0 = kb * KB;
                // Dequantise the stored rows back to back; every sample row
                // of the chunk reuses the scratch tile.
                let nrows = r1 - r0;
                let block = &self.data[r0 * JB..r1 * JB];
                for (s, &q) in scratch[..nrows * JB].iter_mut().zip(block) {
                    *s = q as f32 * scale;
                }
                let kls = &self.row_kl[r0..r1];
                accumulate_compacted_rows(
                    x,
                    y,
                    &scratch[..nrows * JB],
                    kls,
                    live,
                    k0,
                    j0,
                    jn,
                    dense,
                );
            }
        }
    }
}

/// Int8 counterpart of [`accumulate_tile_rows`]: the tile's weight rows are
/// already compacted to the nonzero ones, so the inner loop walks them
/// directly and fetches each row's activation via its `kl` index — zero
/// *weight* rows never appear at all. `dense` drops the zero-activation
/// skip for activation-dense rows, where a branch-free SIMD walk beats the
/// mispredict-prone test (adding `a · w` with `a == 0` contributes an exact
/// `+0.0`, value-preserving at the kernel's tolerance).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn accumulate_compacted_rows(
    x: &Matrix,
    y: &mut Matrix,
    scratch: &[f32],
    kls: &[u8],
    live: Option<&[bool]>,
    k0: usize,
    j0: usize,
    jn: usize,
    dense: bool,
) {
    for r in 0..x.rows() {
        if !row_live(live, r) {
            continue;
        }
        let x_row = &x.row(r)[k0..];
        let y_row = &mut y.row_mut(r)[j0..j0 + jn];
        if jn == JB {
            let mut acc0 = F32x8::load(&y_row[..8]);
            let mut acc1 = F32x8::load(&y_row[8..]);
            if dense {
                for (ri, &kl) in kls.iter().enumerate() {
                    let a = x_row[kl as usize];
                    let tile = &scratch[ri * JB..ri * JB + JB];
                    acc0 = acc0.add_mul(a, F32x8::load(&tile[..8]));
                    acc1 = acc1.add_mul(a, F32x8::load(&tile[8..]));
                }
            } else {
                for (ri, &kl) in kls.iter().enumerate() {
                    let a = x_row[kl as usize];
                    if a == 0.0 {
                        continue;
                    }
                    let tile = &scratch[ri * JB..ri * JB + JB];
                    acc0 = acc0.add_mul(a, F32x8::load(&tile[..8]));
                    acc1 = acc1.add_mul(a, F32x8::load(&tile[8..]));
                }
            }
            acc0.store(&mut y_row[..8]);
            acc1.store(&mut y_row[8..]);
        } else {
            for (ri, &kl) in kls.iter().enumerate() {
                let a = x_row[kl as usize];
                if a == 0.0 {
                    continue;
                }
                let tile = &scratch[ri * JB..ri * JB + jn];
                for (o, &wv) in y_row.iter_mut().zip(tile) {
                    *o += a * wv;
                }
            }
        }
    }
}

/// Int8 blocked backend: `i8` storage with per-block f32 scales, f32
/// accumulation, zero-tile skipping. Quantisation error is bounded per
/// weight by `tile_max / 254` (half a quantisation step), so logits track
/// the reference within a few percent — enough for estimate parity, at
/// roughly half the memory traffic of [`BlockedF16`] and none of its
/// table-gather dequantisation cost.
#[derive(Debug, Clone)]
pub struct Int8Blocked {
    layers: Vec<PackedLayerI8>,
}

impl Int8Blocked {
    /// Quantise frozen f32 layers into blocked int8 form.
    pub fn new(params: &FrozenLayers) -> Self {
        let layers = params
            .layers
            .iter()
            .zip(&params.residual)
            .map(|((w, b), &residual)| PackedLayerI8::pack(w, b, residual))
            .collect();
        Int8Blocked { layers }
    }
}

impl InferenceBackend for Int8Blocked {
    fn kind(&self) -> BackendKind {
        BackendKind::Int8Blocked
    }

    /// The full-width masked forward: `cols` is ignored.
    fn forward_cols_into(
        &self,
        input: &Matrix,
        live: Option<&[bool]>,
        _cols: Range<usize>,
        out: &mut Matrix,
    ) {
        let mut scratch = [0.0f32; JB * KB];
        run_packed_stack(
            &self.layers,
            |l| l.residual,
            |l| l.out_dim,
            |l, x, y, m| l.forward(x, y, &mut scratch, m),
            input,
            live,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_trips_representable_values() {
        for &x in &[0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0] {
            assert_eq!(f16_bits_to_f32(f32_to_f16_bits(x)), x, "{x}");
        }
        // Every f16 bit pattern decodes and re-encodes to itself (finite
        // values; NaN payloads are normalised to one quiet NaN).
        for bits in 0u16..=0xffff {
            let x = f16_bits_to_f32(bits);
            if x.is_nan() {
                assert!(f16_bits_to_f32(f32_to_f16_bits(x)).is_nan());
            } else {
                assert_eq!(f32_to_f16_bits(x), bits, "bits {bits:#06x} ({x})");
            }
        }
    }

    #[test]
    fn f16_conversion_error_is_bounded() {
        // Relative error of a single f32→f16 round trip is at most 2^-11
        // for normal values.
        let mut x = 6.1e-5f32; // just above the f16 normal threshold
        while x < 6.0e4 {
            for v in [x, -x] {
                let rt = f16_bits_to_f32(f32_to_f16_bits(v));
                assert!(
                    ((rt - v) / v).abs() <= 1.0 / 2048.0,
                    "{v} → {rt}: relative error too large"
                );
            }
            x *= 1.37;
        }
    }

    #[test]
    fn f16_handles_specials() {
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
        assert_eq!(f32_to_f16_bits(1e10), 0x7c00, "overflow saturates to inf");
        assert_eq!(f32_to_f16_bits(1e-10), 0x0000, "underflow flushes to zero");
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Subnormal f16 (smallest positive: 2^-24).
        let tiny = 5.960_464_5e-8f32;
        assert_eq!(f32_to_f16_bits(tiny), 0x0001);
        assert_eq!(f16_bits_to_f32(0x0001), tiny);
    }

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

    #[test]
    fn blocked_f16_tracks_reference_within_tolerance() {
        let params = layer_stack(3, &[(50, 37), (50, 50), (37, 50)]);
        let reference = ReferenceF32::new(Arc::clone(&params), &[]);
        let blocked = BlockedF16::new(&params);
        let input = Matrix::from_fn(9, 37, |r, c| if (r + c) % 3 == 0 { 0.0 } else { 0.3 });
        let mut a = Matrix::zeros(9, 37);
        let mut b = Matrix::zeros(9, 37);
        reference.forward_cols_into(&input, None, 0..37, &mut a);
        blocked.forward_cols_into(&input, None, 0..37, &mut b);
        for (x, y) in a.data().iter().zip(b.data()) {
            let scale = x.abs().max(1.0);
            assert!(
                (x - y).abs() / scale < 2e-2,
                "f16 diverged: {x} vs {y} (rel {})",
                (x - y).abs() / scale
            );
        }
    }

    #[test]
    fn int8_blocked_tracks_reference_within_tolerance() {
        let params = layer_stack(3, &[(50, 37), (50, 50), (37, 50)]);
        let reference = ReferenceF32::new(Arc::clone(&params), &[]);
        let quantised = Int8Blocked::new(&params);
        let input = Matrix::from_fn(9, 37, |r, c| if (r + c) % 3 == 0 { 0.0 } else { 0.3 });
        let mut a = Matrix::zeros(9, 37);
        let mut b = Matrix::zeros(9, 37);
        reference.forward_cols_into(&input, None, 0..37, &mut a);
        quantised.forward_cols_into(&input, None, 0..37, &mut b);
        for (x, y) in a.data().iter().zip(b.data()) {
            let scale = x.abs().max(1.0);
            assert!(
                (x - y).abs() / scale < 1e-1,
                "int8 diverged: {x} vs {y} (rel {})",
                (x - y).abs() / scale
            );
        }
    }

    #[test]
    fn int8_blocked_handles_residual_and_ragged_dims() {
        let mut params = (*layer_stack(9, &[(70, 23), (70, 70), (23, 70)])).clone();
        params.residual[1] = true;
        let params = Arc::new(params);
        let reference = ReferenceF32::new(Arc::clone(&params), &[]);
        let quantised = Int8Blocked::new(&params);
        let input = Matrix::from_fn(130, 23, |r, c| if (r * 7 + c) % 5 == 0 { 0.7 } else { 0.0 });
        let mut a = Matrix::zeros(130, 23);
        let mut b = Matrix::zeros(130, 23);
        reference.forward_cols_into(&input, None, 0..23, &mut a);
        quantised.forward_cols_into(&input, None, 0..23, &mut b);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() / x.abs().max(1.0) < 1e-1, "{x} vs {y}");
        }
    }

    #[test]
    fn int8_quantisation_preserves_exact_zero_weights() {
        // The autoregressive masks rely on zeroed weights staying zero: a
        // masked (future-column) weight must never leak signal. Symmetric
        // quantisation maps 0.0 → code 0 → 0.0 exactly.
        let params = layer_stack(5, &[(32, 32), (32, 32)]);
        let mut masked = (*params).clone();
        for (w, _) in &mut masked.layers {
            let cols = w.cols();
            let rows = w.rows();
            for r in 0..rows {
                for c in 0..cols {
                    if (r + c) % 2 == 0 {
                        w.set(r, c, 0.0);
                    }
                }
            }
        }
        let masked = Arc::new(masked);
        let q = Int8Blocked::new(&masked);
        for (layer, (w, _)) in q.layers.iter().zip(&masked.layers) {
            // Reconstruct the dequantised weights from the compacted tiles;
            // anything not stored is zero by construction.
            let mut recon = Matrix::zeros(layer.out_dim, layer.in_dim);
            let kbn = layer.in_dim.div_ceil(KB);
            for jb in 0..layer.out_dim.div_ceil(JB) {
                for kb in 0..kbn {
                    let t = jb * kbn + kb;
                    let scale = layer.scales[t];
                    let (r0, r1) = (layer.tile_off[t] as usize, layer.tile_off[t + 1] as usize);
                    for ri in r0..r1 {
                        let kl = layer.row_kl[ri] as usize;
                        for jl in 0..JB.min(layer.out_dim - jb * JB) {
                            let code = layer.data[ri * JB + jl];
                            recon.set(jb * JB + jl, kb * KB + kl, code as f32 * scale);
                        }
                    }
                }
            }
            for jl in 0..layer.out_dim {
                for kl in 0..layer.in_dim {
                    if w.get(jl, kl) == 0.0 {
                        let v = recon.get(jl, kl);
                        assert_eq!(v, 0.0, "zero weight ({jl},{kl}) dequantised to {v}");
                    }
                }
            }
        }
    }

    /// The historical `FrozenMade::forward` loop — one serial dot product per
    /// output, then bias, residual and ReLU — the f32 backend's oracle.
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

    /// The one forward, masked and narrowed to a logit block: live rows of
    /// the block carry the bits of the serial loop on f32 and of the
    /// backend's own unmasked full-width forward on f16 and int8.
    /// Masked-out rows keep a sentinel, and on f32 so does every logit of a
    /// live row outside the block.
    #[test]
    fn masked_forward_matches_unmasked_per_row() {
        let mut params = (*layer_stack(11, &[(70, 23), (70, 70), (23, 70)])).clone();
        params.residual[1] = true;
        let params = Arc::new(params);
        let backends: [Box<dyn InferenceBackend>; 3] = [
            Box::new(ReferenceF32::new(Arc::clone(&params), &[])),
            Box::new(BlockedF16::new(&params)),
            Box::new(Int8Blocked::new(&params)),
        ];
        let rows = 13;
        let input = Matrix::from_fn(
            rows,
            23,
            |r, c| if (r * 5 + c) % 4 == 0 { 0.9 } else { 0.0 },
        );
        let mask: Vec<bool> = (0..rows).map(|r| r % 3 != 1).collect();
        let sentinel = -7.25f32;
        for backend in &backends {
            let f32_oracle = backend.kind() == BackendKind::ReferenceF32;
            let full = if f32_oracle {
                serial_forward(&params, &input)
            } else {
                let mut full = Matrix::zeros(rows, 23);
                backend.forward_cols_into(&input, None, 0..23, &mut full);
                full
            };
            for cols in [0..23, 5..12, 22..23] {
                let mut masked = Matrix::full(rows, 23, sentinel);
                backend.forward_cols_into(&input, Some(&mask), cols.clone(), &mut masked);
                for (r, &row_live) in mask.iter().enumerate() {
                    for c in 0..23 {
                        if row_live && cols.contains(&c) {
                            assert_eq!(
                                full.get(r, c).to_bits(),
                                masked.get(r, c).to_bits(),
                                "{:?} block {cols:?} row {r} col {c} diverged under mask",
                                backend.kind()
                            );
                        } else if !row_live || f32_oracle {
                            assert_eq!(
                                masked.get(r, c),
                                sentinel,
                                "{:?} block {cols:?} wrote row {r} col {c} outside the live block",
                                backend.kind()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Residual stacks whose weights are eight ninths exact zeros, so a layer's
    /// live inputs differ from its live outputs and some units reach no
    /// logit: every block, and ranges that are not blocks, has the bits of
    /// the serial loop, masked, unmasked and from a carried first layer.
    /// With skips on every layer, on the middle one only, and on the
    /// output layer (whose live set is then wider than the block).
    #[test]
    fn sparse_residual_stacks_match_the_serial_loop_on_every_block() {
        let skips = [
            [true, true, true],
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
                    let w = reference.carry_row(pos).expect("f32 carries");
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
                reference.forward_carried_cols_into(&input, &carry, cols.clone(), &mut outs[2]);
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

    #[test]
    fn backend_kind_parses_all_names_and_rejects_unknown() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
        }
        let err = "avx512".parse::<BackendKind>().unwrap_err();
        for name in ["f32", "f16", "int8"] {
            assert!(err.contains(name), "error {err:?} does not list {name}");
        }
    }

    #[test]
    fn blocked_f16_handles_residual_and_ragged_dims() {
        // Dims deliberately not multiples of the block sizes; middle layer
        // residual.
        let mut params = (*layer_stack(9, &[(70, 23), (70, 70), (23, 70)])).clone();
        params.residual[1] = true;
        let params = Arc::new(params);
        let reference = ReferenceF32::new(Arc::clone(&params), &[]);
        let blocked = BlockedF16::new(&params);
        let input = Matrix::from_fn(130, 23, |r, c| if (r * 7 + c) % 5 == 0 { 0.7 } else { 0.0 });
        let mut a = Matrix::zeros(130, 23);
        let mut b = Matrix::zeros(130, 23);
        reference.forward_cols_into(&input, None, 0..23, &mut a);
        blocked.forward_cols_into(&input, None, 0..23, &mut b);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() / x.abs().max(1.0) < 2e-2, "{x} vs {y}");
        }
    }
}
