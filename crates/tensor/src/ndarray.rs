//! Dense, row-major, 2-D f32 storage.
//!
//! Every value in the study is a matrix: node-feature matrices `[N, F]`,
//! per-edge matrices `[E, F]`, weight matrices `[F_in, F_out]`, column
//! vectors `[N, 1]`, and scalars `[1, 1]`. A fixed-rank representation keeps
//! indexing trivial and lets the inner loops vectorize.
//!
//! `NdArray` is pure math with no autograd and no device instrumentation —
//! those live in [`crate::autograd`] and [`crate::ops`].

use std::fmt;

use crate::gemm;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq, Default)]
pub struct NdArray {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for NdArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NdArray[{}x{}]", self.rows, self.cols)?;
        if self.len() <= 8 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl NdArray {
    /// Creates an array of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        NdArray {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an array filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        NdArray {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a `[1, 1]` scalar.
    pub fn scalar(value: f32) -> Self {
        NdArray::full(1, 1, value)
    }

    /// Creates an array from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "shape [{rows}x{cols}] vs {} elems",
            data.len()
        );
        NdArray { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the backing buffer in bytes.
    pub fn byte_size(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// Immutable view of the backing buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a `[1, 1]` array.
    ///
    /// # Panics
    ///
    /// Panics if the array is not a scalar.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.shape(),
            (1, 1),
            "item() on non-scalar {:?}",
            self.shape()
        );
        self.data[0]
    }

    /// Elementwise map into a new array.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> NdArray {
        NdArray {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combine with `other` into a new array.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &NdArray, f: impl Fn(f32, f32) -> f32) -> NdArray {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        NdArray {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &NdArray) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &NdArray) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Dense matmul `self [m,k] @ b [k,n] -> [m,n]`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, b: &NdArray) -> NdArray {
        assert_eq!(
            self.cols,
            b.rows,
            "matmul [{:?}] x [{:?}]",
            self.shape(),
            b.shape()
        );
        let (m, k, n) = (self.rows, self.cols, b.cols);
        let mut out = vec![0.0f32; m * n];
        gemm::matmul(&self.data, &b.data, &mut out, m, k, n);
        NdArray {
            rows: m,
            cols: n,
            data: out,
        }
    }

    /// `self [m,k] @ b.T` where `b` is `[n,k]`, giving `[m,n]`.
    pub fn matmul_nt(&self, b: &NdArray) -> NdArray {
        assert_eq!(
            self.cols,
            b.cols,
            "matmul_nt [{:?}] x [{:?}]^T",
            self.shape(),
            b.shape()
        );
        let (m, k, n) = (self.rows, self.cols, b.rows);
        let mut out = vec![0.0f32; m * n];
        gemm::matmul_nt(&self.data, &b.data, &mut out, m, k, n);
        NdArray {
            rows: m,
            cols: n,
            data: out,
        }
    }

    /// `self.T @ b` where `self` is `[m,k]` and `b` is `[m,n]`, giving `[k,n]`.
    pub fn matmul_tn(&self, b: &NdArray) -> NdArray {
        assert_eq!(
            self.rows,
            b.rows,
            "matmul_tn [{:?}]^T x [{:?}]",
            self.shape(),
            b.shape()
        );
        let (m, k, n) = (self.rows, self.cols, b.cols);
        let mut out = vec![0.0f32; k * n];
        gemm::matmul_tn(&self.data, &b.data, &mut out, m, k, n);
        NdArray {
            rows: k,
            cols: n,
            data: out,
        }
    }

    /// Sum of every element.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Per-column sums, shape `[1, cols]`.
    pub fn col_sums(&self) -> NdArray {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        NdArray {
            rows: 1,
            cols: self.cols,
            data: out,
        }
    }

    /// Per-row sums, shape `[rows, 1]`.
    pub fn row_sums(&self) -> NdArray {
        let data = (0..self.rows).map(|r| self.row(r).iter().sum()).collect();
        NdArray {
            rows: self.rows,
            cols: 1,
            data,
        }
    }

    /// Index of the maximum element of each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

impl From<Vec<f32>> for NdArray {
    /// Converts a flat vector into a column vector `[n, 1]`.
    fn from(v: Vec<f32>) -> Self {
        let rows = v.len();
        NdArray {
            rows,
            cols: 1,
            data: v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_values() {
        let a = NdArray::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = NdArray::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    /// `x` transposed, by index.
    fn transpose(x: &NdArray) -> NdArray {
        let data = (0..x.cols).flat_map(|c| (0..x.rows).map(move |r| x.at(r, c)));
        NdArray::from_vec(x.cols, x.rows, data.collect())
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = NdArray::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = NdArray::from_vec(4, 3, (0..12).map(|i| i as f32).collect());
        let direct = a.matmul_nt(&b);
        let via_t = a.matmul(&transpose(&b));
        assert_eq!(direct, via_t);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = NdArray::from_vec(5, 3, (0..15).map(|i| i as f32 * 0.5).collect());
        let b = NdArray::from_vec(5, 2, (0..10).map(|i| i as f32).collect());
        let direct = a.matmul_tn(&b);
        let via_t = transpose(&a).matmul(&b);
        assert_eq!(direct, via_t);
    }

    #[test]
    fn col_and_row_sums() {
        let a = NdArray::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.col_sums().data(), &[5., 7., 9.]);
        assert_eq!(a.row_sums().data(), &[6., 15.]);
        assert_eq!(a.sum(), 21.0);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let a = NdArray::from_vec(2, 3, vec![1., 3., 3., 0., -1., -2.]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn map_zip_axpy() {
        let a = NdArray::from_vec(1, 3, vec![1., -2., 3.]);
        let b = NdArray::from_vec(1, 3, vec![1., 1., 1.]);
        assert_eq!(a.map(f32::abs).data(), &[1., 2., 3.]);
        assert_eq!(a.zip(&b, |x, y| x + y).data(), &[2., -1., 4.]);
        let mut c = b.clone();
        c.axpy(2.0, &a);
        assert_eq!(c.data(), &[3., -3., 7.]);
    }

    #[test]
    fn item_and_scalar() {
        assert_eq!(NdArray::scalar(3.5).item(), 3.5);
    }

    #[test]
    #[should_panic(expected = "item() on non-scalar")]
    fn item_rejects_matrix() {
        NdArray::zeros(2, 2).item();
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        NdArray::zeros(2, 3).matmul(&NdArray::zeros(2, 3));
    }

    #[test]
    fn non_finite_detection() {
        let mut a = NdArray::zeros(2, 2);
        assert!(!a.has_non_finite());
        a.data_mut()[3] = f32::NAN;
        assert!(a.has_non_finite());
    }
}
