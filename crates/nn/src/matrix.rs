//! Dense row-major `f32` matrices with the kernels the tape needs.
//!
//! Sized for the models in this reproduction (hidden widths in the tens to
//! hundreds): plain `ikj` matmul loops that vectorise well, no BLAS.

use std::fmt;
use std::ops::Range;

/// A dense row-major matrix of `f32` (the default is the empty `0×0`).
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Build by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other` (`self: m×k`, `other: k×n`).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_block(other, 0..other.rows, 0..other.cols)
    }

    /// `self @ other[rows, cols]` (`self: m×k` with `k == rows.len()`), the
    /// product against a sub-block of `other` without copying it out.
    ///
    /// An axpy loop: row `p` of the block, scaled by `self[i, p]`, is added to
    /// output row `i` for `p` ascending, and zero multipliers are skipped. Every
    /// output element is therefore the sum `((0 + a₀b₀) + a₁b₁) + …` in the
    /// order a dot product takes it — a skipped term is an exact `±0` added to
    /// an accumulator that is never `−0` — so for finite values the result is
    /// bit-identical to one serial dot product per output element against the
    /// transposed block, while the inner loop vectorises over outputs and a
    /// one-hot row of `self` costs one row-add per set column. The inference
    /// kernel's first layer multiplies through it, and it is the
    /// oracle the register tile (`backend::dense_tiled`) is held to.
    pub fn matmul_block(&self, other: &Matrix, rows: Range<usize>, cols: Range<usize>) -> Matrix {
        assert!(
            rows.end <= other.rows && cols.end <= other.cols,
            "matmul block out of range"
        );
        assert_eq!(self.cols, rows.len(), "matmul shape mismatch");
        let (m, k, n) = (self.rows, rows.len(), cols.len());
        crate::obs_hooks::count_matmul!(m, k, n);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (p, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.row(rows.start + p)[cols.clone()];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self.T @ other` (`self: k×m`, `other: k×n`) written into `out`, which
    /// is reshaped to `m×n` and keeps its allocation — a caller that
    /// multiplies at one shape again and again passes the same `out`. An
    /// axpy over `p` ascending that skips zeros of `self`, so each element is
    /// the serial sum `((0 + a₀b₀) + a₁b₁) + …` as in
    /// [`Matrix::matmul_block`].
    pub fn matmul_transa_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_transa shape mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        crate::obs_hooks::count_matmul!(m, k, n);
        (out.rows, out.cols) = (m, n);
        out.data.clear();
        out.data.resize(m * n, 0.0);
        for p in 0..k {
            let a_row = self.row(p);
            let b_row = other.row(p);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Elementwise in-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise product copy.
    pub fn mul_elem(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Map every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Fill with zeros.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Frobenius-norm squared.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }
}

/// `x @ w.T` with one serial dot product per output element, `acc += a·b`
/// for `p` ascending: the historical inference kernel, kept as the oracle the
/// axpy kernels must match to the bit.
#[cfg(test)]
pub(crate) fn serial_dot_products(x: &Matrix, w: &Matrix) -> Matrix {
    assert_eq!(x.cols(), w.cols());
    Matrix::from_fn(x.rows(), w.rows(), |i, j| {
        let mut acc = 0.0f32;
        for p in 0..x.cols() {
            acc += x.get(i, p) * w.get(j, p);
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Matrix {
        Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.])
    }

    fn b() -> Matrix {
        Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.])
    }

    #[test]
    fn matmul_basics() {
        let c = a().matmul(&b());
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn serial_dot_products_match_explicit_transpose() {
        let bt = b().transpose();
        let c1 = a().matmul(&b());
        let c2 = serial_dot_products(&a(), &bt);
        assert_eq!(c1, c2);
    }

    /// The axpy kernel against a sub-block gives, bit for bit, the serial dot
    /// products over that block — zeros in the left operand included.
    #[test]
    fn matmul_block_matches_serial_dot_products_on_the_block_to_the_bit() {
        let x = Matrix::from_fn(3, 4, |r, c| {
            if (r + c) % 3 == 0 {
                0.0
            } else {
                0.37 * r as f32 - 0.11 * c as f32
            }
        });
        let other = Matrix::from_fn(6, 5, |r, c| {
            (0.13 * r as f32 - 0.29).powi(3) + 0.7 * c as f32
        });
        let (rows, cols) = (1..5, 2..5);
        let block = Matrix::from_fn(rows.len(), cols.len(), |r, c| {
            other.get(rows.start + r, cols.start + c)
        });
        let got = x.matmul_block(&other, rows, cols);
        let want = serial_dot_products(&x, &block.transpose());
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!((got.rows(), got.cols()), (3, 3));
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn matmul_transa_into_reshapes_and_clears_a_used_buffer() {
        let mut out = Matrix::full(7, 1, 9.0);
        a().transpose().matmul_transa_into(&b(), &mut out);
        assert_eq!(out, a().matmul(&b()));
    }

    #[test]
    fn elementwise_ops() {
        let m = a();
        let doubled = m.map(|x| 2.0 * x);
        assert_eq!(doubled.get(1, 2), 12.0);
        let prod = m.mul_elem(&m);
        assert_eq!(prod.get(0, 1), 4.0);
        let mut acc = Matrix::zeros(2, 3);
        acc.add_assign(&m);
        acc.add_assign(&m.map(|x| -x));
        assert_eq!(acc.norm_sq(), 0.0);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = a().matmul(&a());
    }
}
