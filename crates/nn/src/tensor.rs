//! A minimal dense 2-D tensor (row-major `f64`).
//!
//! All neural-network state in this reproduction — activations, weights,
//! gradients — is a [`Tensor`].  Scalars are `1×1` tensors and vectors are
//! `1×n` row vectors.

use rand::Rng;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Tensor {
    /// A tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A tensor filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f64) -> Tensor {
        Tensor { rows, cols, data: vec![value; rows * cols] }
    }

    /// A `1×1` tensor holding a scalar.
    pub fn scalar(value: f64) -> Tensor {
        Tensor { rows: 1, cols: 1, data: vec![value] }
    }

    /// A `1×n` row vector with the given entries.
    pub fn row(values: &[f64]) -> Tensor {
        Tensor { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// Builds a tensor from a row-major buffer.
    ///
    /// # Panics
    /// Panics if the buffer length does not match `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows * cols");
        Tensor { rows, cols, data }
    }

    /// Stacks equally sized row slices into a batch-major `B×n` tensor (the
    /// input layout of mini-batch forward passes).
    ///
    /// # Panics
    /// Panics if `rows` is empty or the slices have unequal lengths.
    pub fn stack_rows(rows: &[&[f64]]) -> Tensor {
        assert!(!rows.is_empty(), "cannot stack zero rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all stacked rows must have the same length");
            data.extend_from_slice(row);
        }
        Tensor { rows: rows.len(), cols, data }
    }

    /// Xavier/Glorot-uniform initialization, the standard choice for the fully
    /// connected layers used by FIGRET and DOTE.
    pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Tensor {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-limit..limit)).collect();
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of one row.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// The value of a `1×1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1×1`.
    pub fn as_scalar(&self) -> f64 {
        assert_eq!(self.shape(), (1, 1), "tensor is not a scalar");
        self.data[0]
    }

    /// Sets every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// `self += other` element-wise.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += scale * other` element-wise.
    pub fn axpy(&mut self, scale: f64, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in axpy");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Matrix product `self · other`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        matmul_acc(self, other, &mut out.data);
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Largest element.  NaNs are ignored (`f64::max` propagates the other
    /// operand), so a tensor that is empty or all-NaN yields
    /// `f64::NEG_INFINITY`.
    pub fn max_value(&self) -> f64 {
        self.data.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

/// Rows of the left operand that [`matmul_acc`] walks together: each row of
/// the right operand (a weight row, in a dense layer) is read once per block
/// of rows instead of once per row.
const ROW_BLOCK: usize = 8;

/// `out += a · b`, with `out` the row-major `a.rows() × b.cols()` buffer.
///
/// The loop is k-outer inside blocks of [`ROW_BLOCK`] rows, and the inner
/// loop is an axpy over a contiguous row of `b`.  Every output element still
/// adds its products in ascending `k` (skipping zero entries of `a`), so the
/// result is bit-identical to the textbook `i`-outer, `k`-inner product.
pub(crate) fn matmul_acc(a: &Tensor, b: &Tensor, out: &mut [f64]) {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    assert_eq!(out.len(), a.rows * b.cols, "output must be rows(a) × cols(b)");
    let (inner, n) = (a.cols, b.cols);
    for start in (0..a.rows).step_by(ROW_BLOCK) {
        let rows = start..(start + ROW_BLOCK).min(a.rows);
        for k in 0..inner {
            let row_b = &b.data[k * n..(k + 1) * n];
            for i in rows.clone() {
                let x = a.data[i * inner + k];
                if x == 0.0 {
                    continue;
                }
                for (o, w) in out[i * n..(i + 1) * n].iter_mut().zip(row_b) {
                    *o += x * w;
                }
            }
        }
    }
}

/// `out += aᵀ · b` without materializing `aᵀ`, with `out` the row-major
/// `a.cols() × b.cols()` buffer.
///
/// Output row `i` accumulates `a[k][i] · b[k]` over ascending `k` (skipping
/// zero entries of `a`) while it stays in cache: bit-identical to
/// `a.transpose().matmul(b)`.
pub(crate) fn matmul_tn_acc(a: &Tensor, b: &Tensor, out: &mut [f64]) {
    assert_eq!(a.rows, b.rows, "outer dimensions must agree");
    assert_eq!(out.len(), a.cols * b.cols, "output must be cols(a) × cols(b)");
    let n = b.cols;
    for i in 0..a.cols {
        let row_out = &mut out[i * n..(i + 1) * n];
        for k in 0..a.rows {
            let x = a.data[k * a.cols + i];
            if x == 0.0 {
                continue;
            }
            for (o, w) in row_out.iter_mut().zip(&b.data[k * n..(k + 1) * n]) {
                *o += x * w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn constructors_and_accessors() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(1, 2), 6.0);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        assert_eq!(Tensor::scalar(3.5).as_scalar(), 3.5);
        assert_eq!(Tensor::row(&[1.0, 2.0]).shape(), (1, 2));
        assert_eq!(Tensor::full(2, 2, 7.0).data(), &[7.0; 4]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn arithmetic_helpers() {
        let mut a = Tensor::row(&[1.0, 2.0]);
        let b = Tensor::row(&[3.0, 4.0]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[4.0, 6.0]);
        a.axpy(-2.0, &b);
        assert_eq!(a.data(), &[-2.0, -2.0]);
        a.fill_zero();
        assert_eq!(a.data(), &[0.0, 0.0]);
        assert!((Tensor::row(&[3.0, 4.0]).norm() - 5.0).abs() < 1e-12);
        assert_eq!(Tensor::row(&[1.0, 9.0, 3.0]).max_value(), 9.0);
        assert_eq!(Tensor::row(&[1.0, f64::NAN, 3.0]).max_value(), 3.0);
        assert_eq!(Tensor::row(&[]).max_value(), f64::NEG_INFINITY);
    }

    #[test]
    fn xavier_is_bounded_and_seeded() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = Tensor::xavier_uniform(20, 30, &mut rng);
        let limit = (6.0f64 / 50.0).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= limit));
        let mut rng2 = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(t, Tensor::xavier_uniform(20, 30, &mut rng2));
    }

    #[test]
    fn stack_rows_builds_batches() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        let t = Tensor::stack_rows(&[&a, &b]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.row_slice(0), &a);
        assert_eq!(t.row_slice(1), &b);
        assert_eq!(t.get(1, 2), 6.0);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn stack_rows_checks_widths() {
        let a = [1.0, 2.0];
        let b = [3.0];
        let _ = Tensor::stack_rows(&[&a, &b]);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn stack_rows_rejects_empty() {
        let _ = Tensor::stack_rows(&[]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_checks_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
