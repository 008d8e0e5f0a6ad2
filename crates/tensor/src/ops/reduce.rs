//! Full reductions to scalars.

use gnn_device::{record, Kernel, KernelKind};

use crate::autograd::{accumulate, Backward, Tensor};
use crate::ndarray::NdArray;

struct SumAllBack {
    shape: (usize, usize),
}

impl Backward for SumAllBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        let g = grad.item();
        record(Kernel::elementwise(
            "sum_back",
            self.shape.0 * self.shape.1,
            1,
            2,
        ));
        accumulate(&parents[0], NdArray::full(self.shape.0, self.shape.1, g));
    }
    fn name(&self) -> &'static str {
        "sum_all"
    }
}

impl Tensor {
    /// Sum of all elements, as a `[1, 1]` tensor.
    pub fn sum_all(&self) -> Tensor {
        let x = self.data();
        record(Kernel::new(
            "sum_all",
            KernelKind::Reduction,
            x.len() as u64,
            4 * x.len() as u64,
        ));
        let s = NdArray::scalar(x.sum());
        let shape = x.shape();
        drop(x);
        Tensor::from_op(s, vec![self.clone()], Box::new(SumAllBack { shape }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_all_grad_is_ones() {
        let x = Tensor::param(NdArray::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let s = x.sum_all();
        assert_eq!(s.item(), 10.0);
        s.backward();
        assert_eq!(x.grad().unwrap().data(), &[1.; 4]);
    }
}

struct SumColsBack {
    cols: usize,
}

impl Backward for SumColsBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        record(Kernel::elementwise(
            "sum_cols_back",
            grad.rows() * self.cols,
            1,
            2,
        ));
        let mut dx = NdArray::zeros(grad.rows(), self.cols);
        for r in 0..grad.rows() {
            let g = grad.at(r, 0);
            for v in dx.row_mut(r) {
                *v = g;
            }
        }
        accumulate(&parents[0], dx);
    }
    fn name(&self) -> &'static str {
        "sum_cols"
    }
}

impl Tensor {
    /// Row-wise sum of `self [N, F]`, producing `[N, 1]`.
    pub fn sum_cols(&self) -> Tensor {
        let x = self.data();
        record(Kernel::new(
            "sum_cols",
            KernelKind::Reduction,
            x.len() as u64,
            4 * (x.len() + x.rows()) as u64,
        ));
        let out = x.row_sums();
        let cols = x.cols();
        drop(x);
        Tensor::from_op(out, vec![self.clone()], Box::new(SumColsBack { cols }))
    }
}

#[cfg(test)]
mod sum_cols_tests {
    use super::*;

    #[test]
    fn sum_cols_values_and_grads() {
        let x = Tensor::param(NdArray::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let y = x.sum_cols();
        assert_eq!(y.data().data(), &[6., 15.]);
        let w = Tensor::new(NdArray::from_vec(2, 1, vec![1., 10.]));
        y.mul(&w).backward();
        assert_eq!(x.grad().unwrap().data(), &[1., 1., 1., 10., 10., 10.]);
    }
}
