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
use crate::par;

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
        record(Kernel::elementwise("head_dot_back", x.len(), 2, 4));
        let parts = par::scalar_parts(x.len());
        if parents[0].needs_grad() {
            accumulate(
                &parents[0],
                head_dot_dx(grad, &a, x.shape(), self.heads, parts),
            );
        }
        if parents[1].needs_grad() {
            accumulate(&parents[1], head_dot_da(grad, &x, self.heads, parts));
        }
    }
    fn name(&self) -> &'static str {
        "head_dot"
    }
}

/// `out[n, h] = Σ_k x[n, h·D+k] · a[h·D+k]` in ascending `k`, in `parts`
/// row ranges.
fn head_dot_fwd(x: &NdArray, a: &NdArray, heads: usize, parts: usize) -> NdArray {
    let d = x.cols() / heads;
    let mut out = NdArray::zeros(x.rows(), heads);
    par::each_row(parts, out.data_mut(), heads, |r, orow| {
        let xr = x.row(r);
        for (h, o) in orow.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in 0..d {
                acc += xr[h * d + k] * a.data()[h * d + k];
            }
            *o = acc;
        }
    });
    out
}

/// `dx[n, h·D+k] = g[n, h] · a[h·D+k]`, in `parts` row ranges of the
/// `(rows, cols)` gradient.
fn head_dot_dx(
    grad: &NdArray,
    a: &NdArray,
    (rows, cols): (usize, usize),
    heads: usize,
    parts: usize,
) -> NdArray {
    let d = cols / heads;
    let mut dx = NdArray::zeros(rows, cols);
    par::each_row(parts, dx.data_mut(), cols, |r, dxr| {
        let gr = grad.row(r);
        for h in 0..heads {
            let g = gr[h];
            for k in 0..d {
                dxr[h * d + k] = g * a.data()[h * d + k];
            }
        }
    });
    dx
}

/// `da[h·D+k] = Σ_n g[n, h] · x[n, h·D+k]` in ascending `n`. Its one
/// output row is split as a `[F, 1]` column, like `matmul_tn`'s output: each
/// of the `parts` owns a window of `da`'s columns and sums it over every
/// row.
fn head_dot_da(grad: &NdArray, x: &NdArray, heads: usize, parts: usize) -> NdArray {
    let d = x.cols() / heads;
    let mut da = NdArray::zeros(1, x.cols());
    let bound = |i| par::even(x.cols(), parts, i);
    par::for_rows(
        parts,
        bound,
        da.data_mut(),
        1,
        &mut [(); 0],
        |cols, da, _| {
            for r in 0..x.rows() {
                let (gr, xr) = (grad.row(r), &x.row(r)[cols.clone()]);
                for ((c, o), &xv) in cols.clone().zip(da.iter_mut()).zip(xr) {
                    *o += gr[c / d] * xv;
                }
            }
        },
    );
    da
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
        head_dims(x.cols(), heads, "head_dot");
        record(Kernel::elementwise("head_dot", x.len(), 2, 3));
        let out = head_dot_fwd(&x, &av, heads, par::scalar_parts(x.len()));
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

    /// `head_dot`'s forward and its `dx` split rows, its `da` splits
    /// columns; each gives the serial bits at 2, 3 and 7 parts.
    #[test]
    fn parts_equal_the_serial_kernels() {
        let vals = |n: usize, salt: f32| {
            (0..n)
                .map(|i| ((i as f32 + salt) * 0.37).sin() * 1e3)
                .collect()
        };
        let (rows, heads, d) = (5, 2, 3);
        let x = NdArray::from_vec(rows, heads * d, vals(rows * heads * d, 0.5));
        let a = NdArray::from_vec(1, heads * d, vals(heads * d, 1.5));
        let g = NdArray::from_vec(rows, heads, vals(rows * heads, 2.5));
        let bits = |a: &NdArray| a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for parts in [2, 3, 7] {
            assert_eq!(
                bits(&head_dot_fwd(&x, &a, heads, parts)),
                bits(&head_dot_fwd(&x, &a, heads, 1))
            );
            assert_eq!(
                bits(&head_dot_dx(&g, &a, x.shape(), heads, parts)),
                bits(&head_dot_dx(&g, &a, x.shape(), heads, 1))
            );
            assert_eq!(
                bits(&head_dot_da(&g, &x, heads, parts)),
                bits(&head_dot_da(&g, &x, heads, 1))
            );
        }
    }

    #[test]
    #[should_panic(expected = "not divisible by heads")]
    fn indivisible_heads_panics() {
        let x = Tensor::new(NdArray::zeros(1, 5));
        let a = Tensor::new(NdArray::zeros(1, 5));
        x.head_dot(&a, 2);
    }
}
