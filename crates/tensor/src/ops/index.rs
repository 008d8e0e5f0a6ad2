//! Row gather and scatter-add through index arrays.
//!
//! These two kernels are the vocabulary of PyG-style message passing:
//! messages are built by gathering source-node rows along edges and
//! aggregated by scatter-adding them into destination-node rows. Their
//! backward rules are each other. A whole message chain is computed fused
//! by [`crate::mp`], whose PyG lowering replays these kernels' events.

use gnn_device::{record, Kernel};

use crate::autograd::{accumulate, Backward, Tensor};
use crate::ndarray::NdArray;
use crate::ops::Ids;
use crate::shape_error::ShapeError;

/// Validates a gather index array against the number of source rows.
/// Shared by [`Tensor::gather_rows`] (panics on `Err`) and the `gnn-lint`
/// index-safety pass (reports the same message).
pub fn check_gather_idx(idx: &[u32], n: usize) -> Result<(), ShapeError> {
    if idx.iter().any(|&i| (i as usize) >= n) {
        return Err(ShapeError::index_oob("gather_rows", "n", n));
    }
    Ok(())
}

/// Validates a scatter index array against source rows and output extent.
/// Shared by [`Tensor::scatter_add_rows`] and the `gnn-lint` index pass.
pub fn check_scatter_idx(idx: &[u32], src_rows: usize, out_rows: usize) -> Result<(), ShapeError> {
    if idx.len() != src_rows {
        return Err(ShapeError::index_length(
            "scatter_add_rows",
            idx.len(),
            src_rows,
        ));
    }
    if idx.iter().any(|&i| (i as usize) >= out_rows) {
        return Err(ShapeError::index_oob(
            "scatter_add_rows",
            "out_rows",
            out_rows,
        ));
    }
    Ok(())
}

pub(crate) fn gather_raw(x: &NdArray, idx: &[u32]) -> NdArray {
    let cols = x.cols();
    let mut out = NdArray::zeros(idx.len(), cols);
    for (r, &i) in idx.iter().enumerate() {
        debug_assert!(
            (i as usize) < x.rows(),
            "gather_raw index out of bounds (n = {})",
            x.rows()
        );
        out.row_mut(r).copy_from_slice(x.row(i as usize));
    }
    out
}

pub(crate) fn scatter_add_raw(src: &NdArray, idx: &[u32], out_rows: usize) -> NdArray {
    let cols = src.cols();
    let mut out = NdArray::zeros(out_rows, cols);
    for (r, &i) in idx.iter().enumerate() {
        debug_assert!(
            (i as usize) < out_rows,
            "scatter_add_raw index out of bounds (out_rows = {out_rows})"
        );
        let dst = &mut out.data_mut()[i as usize * cols..(i as usize + 1) * cols];
        for (d, &s) in dst.iter_mut().zip(src.row(r)) {
            *d += s;
        }
    }
    out
}

struct GatherBack {
    idx: Ids,
    src_rows: usize,
}

impl Backward for GatherBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        record(Kernel::scatter("gather_back", grad.rows(), grad.cols()));
        accumulate(&parents[0], scatter_add_raw(grad, &self.idx, self.src_rows));
    }
    fn name(&self) -> &'static str {
        "gather_rows"
    }
}

struct ScatterAddBack {
    idx: Ids,
}

impl Backward for ScatterAddBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        record(Kernel::gather(
            "scatter_add_back",
            self.idx.len(),
            grad.cols(),
        ));
        accumulate(&parents[0], gather_raw(grad, &self.idx));
    }
    fn name(&self) -> &'static str {
        "scatter_add_rows"
    }
}

impl Tensor {
    /// Selects rows of `self [N, F]` by `idx`, producing `[idx.len(), F]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, idx: &Ids) -> Tensor {
        let x = self.data();
        let n = x.rows();
        if let Err(e) = check_gather_idx(idx, n) {
            panic!("{e}");
        }
        record(Kernel::gather("gather_rows", idx.len(), x.cols()));
        let out = gather_raw(&x, idx);
        drop(x);
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(GatherBack {
                idx: idx.clone(),
                src_rows: n,
            }),
        )
    }

    /// Accumulates the rows of `self [E, F]` into `out_rows` destination rows
    /// selected by `idx`, producing `[out_rows, F]`.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != self.rows()` or any index is out of bounds.
    pub fn scatter_add_rows(&self, idx: &Ids, out_rows: usize) -> Tensor {
        let x = self.data();
        if let Err(e) = check_scatter_idx(idx, x.rows(), out_rows) {
            panic!("{e}");
        }
        record(Kernel::scatter("scatter_add_rows", x.rows(), x.cols()));
        let out = scatter_add_raw(&x, idx, out_rows);
        drop(x);
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(ScatterAddBack { idx: idx.clone() }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    fn ids(v: Vec<u32>) -> Ids {
        Rc::new(v)
    }

    #[test]
    fn gather_selects_rows() {
        let x = Tensor::param(NdArray::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
        let y = x.gather_rows(&ids(vec![2, 0, 2]));
        assert_eq!(y.data().data(), &[5., 6., 1., 2., 5., 6.]);
    }

    #[test]
    fn gather_backward_scatters() {
        let x = Tensor::param(NdArray::from_vec(3, 1, vec![1., 2., 3.]));
        let y = x.gather_rows(&ids(vec![2, 0, 2]));
        y.backward();
        // row 2 gathered twice, row 0 once, row 1 never.
        assert_eq!(x.grad().unwrap().data(), &[1., 0., 2.]);
    }

    #[test]
    fn scatter_add_accumulates() {
        let src = Tensor::param(NdArray::from_vec(3, 2, vec![1., 1., 2., 2., 3., 3.]));
        let y = src.scatter_add_rows(&ids(vec![1, 1, 0]), 2);
        assert_eq!(y.data().data(), &[3., 3., 3., 3.]);
    }

    #[test]
    fn scatter_backward_gathers() {
        let src = Tensor::param(NdArray::from_vec(2, 1, vec![1., 2.]));
        let y = src.scatter_add_rows(&ids(vec![1, 1]), 3);
        // weight row 1 by 5 through a mul, to see grads route back.
        let w = Tensor::new(NdArray::from_vec(3, 1, vec![0., 5., 0.]));
        let z = y.mul(&w);
        z.backward();
        assert_eq!(src.grad().unwrap().data(), &[5., 5.]);
    }

    #[test]
    fn gather_then_scatter_is_message_passing_roundtrip() {
        // out[d] = sum over edges e with dst[e]==d of x[src[e]] — one GNN
        // aggregation. For a 2-cycle each node receives the other's feature.
        let x = Tensor::param(NdArray::from_vec(2, 1, vec![10., 20.]));
        let src = ids(vec![0, 1]);
        let dst = ids(vec![1, 0]);
        let msg = x.gather_rows(&src);
        let agg = msg.scatter_add_rows(&dst, 2);
        assert_eq!(agg.data().data(), &[20., 10.]);
        agg.backward();
        assert_eq!(x.grad().unwrap().data(), &[1., 1.]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_oob_panics() {
        let x = Tensor::new(NdArray::zeros(2, 2));
        x.gather_rows(&ids(vec![5]));
    }

    #[test]
    #[should_panic(expected = "index length mismatch")]
    fn scatter_length_mismatch_panics() {
        let x = Tensor::new(NdArray::zeros(2, 2));
        x.scatter_add_rows(&ids(vec![0]), 2);
    }
}
