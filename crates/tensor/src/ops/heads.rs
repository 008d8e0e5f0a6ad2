//! Multi-head helpers for attention-style models.
//!
//! Head-structured tensors are stored flat as `[N, H * D]` (head-major
//! columns). These ops provide the two per-head contractions GAT-style
//! layers need without a general reshape/broadcast machinery:
//! [`Tensor::head_dot`] projects features onto a per-head attention vector
//! and [`Tensor::mul_per_head`] weights per-head feature blocks by per-head
//! scalars.

use gnn_device::{record, Kernel};

use crate::autograd::{accumulate, Backward, Tensor};
use crate::ndarray::NdArray;

fn head_dims(total_cols: usize, heads: usize, op: &str) -> usize {
    assert!(heads > 0, "{op}: heads must be positive");
    assert_eq!(
        total_cols % heads,
        0,
        "{op}: columns {total_cols} not divisible by heads {heads}"
    );
    total_cols / heads
}

struct HeadDotBack {
    heads: usize,
}

impl Backward for HeadDotBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        let (x, a) = (parents[0].data(), parents[1].data());
        let d = x.cols() / self.heads;
        record(Kernel::elementwise("head_dot_back", x.len(), 2, 4));
        if parents[0].needs_grad() {
            let mut dx = NdArray::zeros(x.rows(), x.cols());
            for r in 0..x.rows() {
                let gr = grad.row(r);
                let dxr = dx.row_mut(r);
                for h in 0..self.heads {
                    let g = gr[h];
                    for k in 0..d {
                        dxr[h * d + k] = g * a.data()[h * d + k];
                    }
                }
            }
            accumulate(&parents[0], dx);
        }
        if parents[1].needs_grad() {
            let mut da = NdArray::zeros(1, x.cols());
            for r in 0..x.rows() {
                let gr = grad.row(r);
                let xr = x.row(r);
                for h in 0..self.heads {
                    let g = gr[h];
                    for k in 0..d {
                        da.data_mut()[h * d + k] += g * xr[h * d + k];
                    }
                }
            }
            accumulate(&parents[1], da);
        }
    }
    fn name(&self) -> &'static str {
        "head_dot"
    }
}

struct MulPerHeadBack {
    heads: usize,
}

impl Backward for MulPerHeadBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        let (x, w) = (parents[0].data(), parents[1].data());
        let d = x.cols() / self.heads;
        record(Kernel::elementwise("mul_per_head_back", x.len(), 2, 4));
        if parents[0].needs_grad() {
            let mut dx = NdArray::zeros(x.rows(), x.cols());
            for r in 0..x.rows() {
                let gr = grad.row(r);
                let wr = w.row(r);
                let dxr = dx.row_mut(r);
                for h in 0..self.heads {
                    for k in 0..d {
                        dxr[h * d + k] = gr[h * d + k] * wr[h];
                    }
                }
            }
            accumulate(&parents[0], dx);
        }
        if parents[1].needs_grad() {
            let mut dw = NdArray::zeros(x.rows(), self.heads);
            for r in 0..x.rows() {
                let gr = grad.row(r);
                let xr = x.row(r);
                let dwr = dw.row_mut(r);
                for h in 0..self.heads {
                    let mut acc = 0.0;
                    for k in 0..d {
                        acc += gr[h * d + k] * xr[h * d + k];
                    }
                    dwr[h] = acc;
                }
            }
            accumulate(&parents[1], dw);
        }
    }
    fn name(&self) -> &'static str {
        "mul_per_head"
    }
}

impl Tensor {
    /// Per-head dot product with an attention vector: for `self [N, H*D]` and
    /// `a [1, H*D]`, produces `[N, H]` with
    /// `out[n, h] = sum_k self[n, h*D+k] * a[0, h*D+k]`.
    ///
    /// # Panics
    ///
    /// Panics if column counts disagree or are not divisible by `heads`.
    pub fn head_dot(&self, a: &Tensor, heads: usize) -> Tensor {
        let (x, av) = (self.data(), a.data());
        assert_eq!(av.shape(), (1, x.cols()), "head_dot attention vector shape");
        let d = head_dims(x.cols(), heads, "head_dot");
        record(Kernel::elementwise("head_dot", x.len(), 2, 3));
        let mut out = NdArray::zeros(x.rows(), heads);
        for r in 0..x.rows() {
            let xr = x.row(r);
            let orow = out.row_mut(r);
            for h in 0..heads {
                let mut acc = 0.0;
                for k in 0..d {
                    acc += xr[h * d + k] * av.data()[h * d + k];
                }
                orow[h] = acc;
            }
        }
        Tensor::from_op(
            out,
            vec![self.clone(), a.clone()],
            Box::new(HeadDotBack { heads }),
        )
    }

    /// Scales each head's feature block by a per-row, per-head scalar: for
    /// `self [N, H*D]` and `w [N, H]`, produces `[N, H*D]` with
    /// `out[n, h*D+k] = self[n, h*D+k] * w[n, h]`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul_per_head(&self, w: &Tensor, heads: usize) -> Tensor {
        let (x, wv) = (self.data(), w.data());
        assert_eq!(wv.shape(), (x.rows(), heads), "mul_per_head weight shape");
        let d = head_dims(x.cols(), heads, "mul_per_head");
        record(Kernel::elementwise("mul_per_head", x.len(), 1, 3));
        let mut out = NdArray::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            let xr = x.row(r);
            let wr = wv.row(r);
            let orow = out.row_mut(r);
            for h in 0..heads {
                for k in 0..d {
                    orow[h * d + k] = xr[h * d + k] * wr[h];
                }
            }
        }
        Tensor::from_op(
            out,
            vec![self.clone(), w.clone()],
            Box::new(MulPerHeadBack { heads }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_dot_two_heads() {
        // 2 heads x 2 dims. Row: [1,2 | 3,4], a: [1,0 | 0,1]
        let x = Tensor::param(NdArray::from_vec(1, 4, vec![1., 2., 3., 4.]));
        let a = Tensor::param(NdArray::from_vec(1, 4, vec![1., 0., 0., 1.]));
        let y = x.head_dot(&a, 2);
        assert_eq!(y.data().data(), &[1., 4.]);
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[1., 0., 0., 1.]);
        assert_eq!(a.grad().unwrap().data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn single_head_dot_is_rowwise_dot() {
        let x = Tensor::param(NdArray::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let a = Tensor::param(NdArray::from_vec(1, 3, vec![1., 1., 1.]));
        let y = x.head_dot(&a, 1);
        assert_eq!(y.data().data(), &[6., 15.]);
    }

    #[test]
    fn mul_per_head_scales_blocks() {
        let x = Tensor::param(NdArray::from_vec(1, 4, vec![1., 2., 3., 4.]));
        let w = Tensor::param(NdArray::from_vec(1, 2, vec![10., 100.]));
        let y = x.mul_per_head(&w, 2);
        assert_eq!(y.data().data(), &[10., 20., 300., 400.]);
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[10., 10., 100., 100.]);
        assert_eq!(w.grad().unwrap().data(), &[3., 7.]);
    }

    #[test]
    #[should_panic(expected = "not divisible by heads")]
    fn indivisible_heads_panics() {
        let x = Tensor::new(NdArray::zeros(1, 5));
        let a = Tensor::new(NdArray::zeros(1, 5));
        x.head_dot(&a, 2);
    }
}
