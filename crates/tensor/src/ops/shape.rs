//! Column concatenation.

use gnn_device::{record, Kernel};

use crate::autograd::{accumulate, Backward, Tensor};
use crate::ndarray::NdArray;

struct ConcatColsBack {
    cols_a: usize,
    cols_b: usize,
}

impl Backward for ConcatColsBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        record(Kernel::elementwise("concat_back", grad.len(), 0, 2));
        let n = grad.rows();
        let mut da = NdArray::zeros(n, self.cols_a);
        let mut db = NdArray::zeros(n, self.cols_b);
        for r in 0..n {
            let g = grad.row(r);
            da.row_mut(r).copy_from_slice(&g[..self.cols_a]);
            db.row_mut(r).copy_from_slice(&g[self.cols_a..]);
        }
        accumulate(&parents[0], da);
        accumulate(&parents[1], db);
    }
    fn name(&self) -> &'static str {
        "concat_cols"
    }
}

impl Tensor {
    /// Concatenates `self [N, F1]` and `other [N, F2]` along columns into
    /// `[N, F1 + F2]`.
    ///
    /// # Panics
    ///
    /// Panics if row counts disagree.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        let a = self.data();
        let b = other.data();
        assert_eq!(a.rows(), b.rows(), "concat_cols row mismatch");
        let (ca, cb) = (a.cols(), b.cols());
        record(Kernel::elementwise("concat_cols", a.len() + b.len(), 0, 3));
        let mut out = NdArray::zeros(a.rows(), ca + cb);
        for r in 0..a.rows() {
            out.row_mut(r)[..ca].copy_from_slice(a.row(r));
            out.row_mut(r)[ca..].copy_from_slice(b.row(r));
        }
        drop(a);
        drop(b);
        Tensor::from_op(
            out,
            vec![self.clone(), other.clone()],
            Box::new(ConcatColsBack {
                cols_a: ca,
                cols_b: cb,
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_and_split_grads() {
        let a = Tensor::param(NdArray::from_vec(2, 1, vec![1., 2.]));
        let b = Tensor::param(NdArray::from_vec(2, 2, vec![3., 4., 5., 6.]));
        let y = a.concat_cols(&b);
        assert_eq!(y.data().data(), &[1., 3., 4., 2., 5., 6.]);
        let w = Tensor::new(NdArray::from_vec(2, 3, vec![1., 10., 100., 2., 20., 200.]));
        y.mul(&w).backward();
        assert_eq!(a.grad().unwrap().data(), &[1., 2.]);
        assert_eq!(b.grad().unwrap().data(), &[10., 100., 20., 200.]);
    }
}
