//! Fused generalized sparse kernels (DGL's GSpMM / GSDDMM).
//!
//! GSpMM "fuses two steps, computing messages by the source node and edge
//! features and aggregating the messages as the features on destination
//! nodes, into one kernel" (Section IV-C). These are custom autograd
//! operations registered against `gnn-tensor`'s [`Backward`] extension
//! point: each records one fused device kernel (plus DGL's host-side
//! dispatch cost [`crate::costs::OP_DISPATCH`]) instead of the gather/
//! scatter pair the PyG-like framework launches.

// Kernel-style loops co-index several slices; index form is clearer here.
#![allow(clippy::needless_range_loop)]

use gnn_device::{host, record, Kernel, KernelKind};
use gnn_tensor::{accumulate, Backward, Ids, NdArray, Tensor};

use crate::batch::HeteroBatch;
use crate::costs;

/// Models writing a `[rows, cols]` tensor into a heterograph frame
/// (`g.edata[...]` / `g.ndata[...]`): DGL materializes a copy in the frame
/// before its kernels can read it — extra device memory, a copy kernel, and
/// host bookkeeping. This is a key structural difference from the PyG-like
/// framework, and the source of DGL's larger footprint on edge-heavy models
/// (paper Section IV-D).
pub(crate) fn frame_write(rows: usize, cols: usize) {
    gnn_device::alloc((4 * rows * cols) as u64);
    record(Kernel::elementwise("frame_write", rows * cols, 0, 2));
    host(costs::FRAME_WRITE_PER_ROW * rows as f64);
}

fn spmm_kernel(name: &'static str, edges: usize, cols: usize, mul: bool) -> Kernel {
    let elems = edges as u64 * cols as u64;
    Kernel::new(
        name,
        KernelKind::SpMM,
        if mul { 2 * elems } else { elems },
        8 * elems + 8 * edges as u64 + if mul { 4 * edges as u64 } else { 0 },
    )
}

fn sddmm_kernel(name: &'static str, edges: usize, cols: usize) -> Kernel {
    let elems = edges as u64 * cols as u64;
    Kernel::new(
        name,
        KernelKind::SDDMM,
        elems,
        12 * elems + 8 * edges as u64,
    )
}

/// Debug-build bounds check on an edge index pair; release builds rely on
/// `gnn-lint` having proven the indices in-bounds before the run.
fn debug_check_edges(src: &[u32], dst: &[u32], num_nodes: usize) {
    debug_assert!(
        src.iter().chain(dst).all(|&v| (v as usize) < num_nodes),
        "edge index out of bounds (num_nodes = {num_nodes})"
    );
}

fn copy_sum_raw(x: &NdArray, src: &[u32], dst: &[u32], out_rows: usize) -> NdArray {
    let cols = x.cols();
    debug_check_edges(src, &[], x.rows());
    debug_check_edges(&[], dst, out_rows);
    let mut out = NdArray::zeros(out_rows, cols);
    for e in 0..src.len() {
        let s = src[e] as usize;
        let d = dst[e] as usize;
        let (srow_start, drow_start) = (s * cols, d * cols);
        for c in 0..cols {
            out.data_mut()[drow_start + c] += x.data()[srow_start + c];
        }
    }
    out
}

struct GSpmmCopySumBack {
    src: Ids,
    dst: Ids,
    in_rows: usize,
}

impl Backward for GSpmmCopySumBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        host(costs::OP_DISPATCH);
        record(spmm_kernel(
            "gspmm_copy_sum_back",
            self.src.len(),
            grad.cols(),
            false,
        ));
        // Reverse-direction SpMM: dx[src] += grad[dst].
        accumulate(
            &parents[0],
            copy_sum_raw(grad, &self.dst, &self.src, self.in_rows),
        );
    }
    fn name(&self) -> &'static str {
        "gspmm_copy_sum"
    }
}

/// Fused copy-from-source + sum-by-destination: `out[i] = Σ_{j→i} x[j]`.
///
/// # Panics
///
/// Panics if `x` has fewer rows than the batch has nodes.
pub fn gspmm_copy_sum(batch: &HeteroBatch, x: &Tensor) -> Tensor {
    let xv = x.data();
    assert_eq!(
        xv.rows(),
        batch.num_nodes,
        "gspmm: node feature rows mismatch"
    );
    gnn_device::traced("rgl", "gspmm_copy_sum", || {
        host(costs::OP_DISPATCH);
        // `update_all` stages the source features in the ndata frame first.
        frame_write(batch.num_nodes, xv.cols());
        record(spmm_kernel(
            "gspmm_copy_sum",
            batch.num_edges(),
            xv.cols(),
            false,
        ));
        let out = copy_sum_raw(&xv, &batch.src, &batch.dst, batch.num_nodes);
        Tensor::from_op(
            out,
            vec![x.clone()],
            Box::new(GSpmmCopySumBack {
                src: batch.src.clone(),
                dst: batch.dst.clone(),
                in_rows: batch.num_nodes,
            }),
        )
    })
}

struct GSpmmMulSumBack {
    src: Ids,
    dst: Ids,
}

impl Backward for GSpmmMulSumBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        let (x, w) = (parents[0].data(), parents[1].data());
        let cols = grad.cols();
        let heads = w.cols();
        let d = cols / heads;
        host(costs::OP_DISPATCH);
        if parents[0].needs_grad() {
            record(spmm_kernel(
                "gspmm_mul_sum_back_x",
                self.src.len(),
                cols,
                true,
            ));
            let mut dx = NdArray::zeros(x.rows(), cols);
            for e in 0..self.src.len() {
                let s = self.src[e] as usize;
                let dn = self.dst[e] as usize;
                let wr = w.row(e);
                for h in 0..heads {
                    let wv = wr[h];
                    for k in 0..d {
                        *dx.at_mut(s, h * d + k) += wv * grad.at(dn, h * d + k);
                    }
                }
            }
            accumulate(&parents[0], dx);
        }
        if parents[1].needs_grad() {
            record(sddmm_kernel("gsddmm_dot_back_w", self.src.len(), cols));
            let mut dw = NdArray::zeros(self.src.len(), heads);
            for e in 0..self.src.len() {
                let s = self.src[e] as usize;
                let dn = self.dst[e] as usize;
                let dwr = dw.row_mut(e);
                for h in 0..heads {
                    let mut acc = 0.0;
                    for k in 0..d {
                        acc += grad.at(dn, h * d + k) * x.at(s, h * d + k);
                    }
                    dwr[h] = acc;
                }
            }
            accumulate(&parents[1], dw);
        }
    }
    fn name(&self) -> &'static str {
        "gspmm_mul_sum"
    }
}

/// Fused multiply-by-edge-weight + sum-by-destination:
/// `out[i, h·D+k] = Σ_{e: j→i} w[e, h] · x[j, h·D+k]`.
///
/// `w` is `[E, H]` with `x.cols()` divisible by `H` (use `H = 1` for scalar
/// edge weights).
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn gspmm_mul_sum(batch: &HeteroBatch, x: &Tensor, w: &Tensor) -> Tensor {
    let (xv, wv) = (x.data(), w.data());
    assert_eq!(
        xv.rows(),
        batch.num_nodes,
        "gspmm: node feature rows mismatch"
    );
    assert_eq!(
        wv.rows(),
        batch.num_edges(),
        "gspmm: edge weight rows mismatch"
    );
    let heads = wv.cols();
    assert!(
        heads > 0 && xv.cols().is_multiple_of(heads),
        "gspmm: cols not divisible by heads"
    );
    let d = xv.cols() / heads;
    debug_check_edges(&batch.src, &batch.dst, batch.num_nodes);
    gnn_device::traced("rgl", "gspmm_mul_sum", || {
        host(costs::OP_DISPATCH);
        // Source features and edge weights are staged in the ndata/edata
        // frames before the fused kernel can read them.
        frame_write(batch.num_nodes, xv.cols());
        frame_write(batch.num_edges(), heads);
        record(spmm_kernel(
            "gspmm_mul_sum",
            batch.num_edges(),
            xv.cols(),
            true,
        ));
        let mut out = NdArray::zeros(batch.num_nodes, xv.cols());
        for e in 0..batch.num_edges() {
            let s = batch.src[e] as usize;
            let dn = batch.dst[e] as usize;
            let wr = wv.row(e);
            for h in 0..heads {
                let wvv = wr[h];
                for k in 0..d {
                    *out.at_mut(dn, h * d + k) += wvv * xv.at(s, h * d + k);
                }
            }
        }
        Tensor::from_op(
            out,
            vec![x.clone(), w.clone()],
            Box::new(GSpmmMulSumBack {
                src: batch.src.clone(),
                dst: batch.dst.clone(),
            }),
        )
    })
}

struct GsddmmAddBack {
    src: Ids,
    dst: Ids,
    u_rows: usize,
    v_rows: usize,
}

impl Backward for GsddmmAddBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        host(costs::OP_DISPATCH);
        if parents[0].needs_grad() {
            record(spmm_kernel(
                "gsddmm_add_back_u",
                self.src.len(),
                grad.cols(),
                false,
            ));
            let mut du = NdArray::zeros(self.u_rows, grad.cols());
            for (e, &s) in self.src.iter().enumerate() {
                let dr = du.row_mut(s as usize);
                for (c, &g) in grad.row(e).iter().enumerate() {
                    dr[c] += g;
                }
            }
            accumulate(&parents[0], du);
        }
        if parents[1].needs_grad() {
            record(spmm_kernel(
                "gsddmm_add_back_v",
                self.dst.len(),
                grad.cols(),
                false,
            ));
            let mut dv = NdArray::zeros(self.v_rows, grad.cols());
            for (e, &dn) in self.dst.iter().enumerate() {
                let dr = dv.row_mut(dn as usize);
                for (c, &g) in grad.row(e).iter().enumerate() {
                    dr[c] += g;
                }
            }
            accumulate(&parents[1], dv);
        }
    }
    fn name(&self) -> &'static str {
        "gsddmm_u_add_v"
    }
}

/// Fused per-edge binary add (DGL's `u_add_v`): `out[e] = u[src_e] + v[dst_e]`.
///
/// # Panics
///
/// Panics if `u` and `v` disagree in width or don't cover the batch's nodes.
pub fn gsddmm_u_add_v(batch: &HeteroBatch, u: &Tensor, v: &Tensor) -> Tensor {
    let uv = u.data();
    let vv = v.data();
    assert_eq!(uv.cols(), vv.cols(), "gsddmm: operand widths differ");
    assert_eq!(uv.rows(), batch.num_nodes, "gsddmm: u rows mismatch");
    assert_eq!(vv.rows(), batch.num_nodes, "gsddmm: v rows mismatch");
    debug_check_edges(&batch.src, &batch.dst, batch.num_nodes);
    gnn_device::traced("rgl", "gsddmm_u_add_v", || {
        host(costs::OP_DISPATCH);
        record(sddmm_kernel("gsddmm_u_add_v", batch.num_edges(), uv.cols()));
        // The per-edge result lands in the edata frame.
        frame_write(batch.num_edges(), uv.cols());
        let mut out = NdArray::zeros(batch.num_edges(), uv.cols());
        for e in 0..batch.num_edges() {
            let s = batch.src[e] as usize;
            let dn = batch.dst[e] as usize;
            let orow = out.row_mut(e);
            for c in 0..uv.cols() {
                orow[c] = uv.at(s, c) + vv.at(dn, c);
            }
        }
        let (u_rows, v_rows) = (uv.rows(), vv.rows());
        Tensor::from_op(
            out,
            vec![u.clone(), v.clone()],
            Box::new(GsddmmAddBack {
                src: batch.src.clone(),
                dst: batch.dst.clone(),
                u_rows,
                v_rows,
            }),
        )
    })
}

/// DGL's `edge_softmax`: softmax of per-edge scores grouped by destination
/// node. Thin wrapper over the segment-softmax kernel plus dispatch cost.
pub fn edge_softmax(batch: &HeteroBatch, scores: &Tensor) -> Tensor {
    gnn_device::traced("rgl", "edge_softmax", || {
        host(costs::OP_DISPATCH);
        frame_write(batch.num_edges(), scores.shape().1);
        scores.segment_softmax(&batch.dst, batch.num_nodes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_graph::Graph;

    fn toy_batch() -> HeteroBatch {
        // edges: 0->1, 2->1, 1->0
        let g = Graph::from_edges(3, &[(0, 1), (2, 1), (1, 0)]);
        HeteroBatch::from_parts(
            &g,
            NdArray::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]),
            vec![0; 3],
            1,
            vec![0],
        )
    }

    #[test]
    fn copy_sum_matches_manual_aggregation() {
        let b = toy_batch();
        let x = Tensor::param(NdArray::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
        let out = gspmm_copy_sum(&b, &x);
        // node1 <- node0 + node2 ; node0 <- node1 ; node2 <- nothing
        assert_eq!(out.data().row(1), &[6., 8.]);
        assert_eq!(out.data().row(0), &[3., 4.]);
        assert_eq!(out.data().row(2), &[0., 0.]);
        out.sum_all().backward();
        // dx[j] = #out-edges of j.
        assert_eq!(x.grad().unwrap().data(), &[1., 1., 1., 1., 1., 1.]);
    }

    #[test]
    fn copy_sum_equals_pyg_gather_scatter() {
        // The fused kernel must be numerically identical to the PyG path.
        let b = toy_batch();
        let x = Tensor::new(NdArray::from_vec(3, 2, vec![0.5, -1., 2., 0.25, -3., 1.5]));
        let fused = gspmm_copy_sum(&b, &x);
        let unfused = x.gather_rows(&b.src).scatter_add_rows(&b.dst, b.num_nodes);
        assert_eq!(fused.data().data(), unfused.data().data());
    }

    #[test]
    fn mul_sum_weights_messages() {
        let b = toy_batch();
        let x = Tensor::param(NdArray::from_vec(3, 2, vec![1., 1., 2., 2., 3., 3.]));
        let w = Tensor::param(NdArray::from_vec(3, 1, vec![10., 100., 0.5]));
        let out = gspmm_mul_sum(&b, &x, &w);
        // node1 <- 10*x0 + 100*x2 = [310, 310]; node0 <- 0.5*x1 = [1,1]
        assert_eq!(out.data().row(1), &[310., 310.]);
        assert_eq!(out.data().row(0), &[1., 1.]);
        out.sum_all().backward();
        // dw[e] = sum_c x[src_e]; for e0: x0 sums to 2.
        assert_eq!(w.grad().unwrap().data(), &[2., 6., 4.]);
        // dx[0] = w(e0) on both cols.
        assert_eq!(x.grad().unwrap().row(0), &[10., 10.]);
    }

    #[test]
    fn mul_sum_multihead_routes_per_head() {
        let b = toy_batch();
        // 2 heads x 1 dim.
        let x = Tensor::param(NdArray::from_vec(3, 2, vec![1., 5., 2., 6., 3., 7.]));
        let w = Tensor::new(NdArray::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]));
        let out = gspmm_mul_sum(&b, &x, &w);
        // node1: head0 gets 1*x0h0 + 0*x2h0 = 1; head1 gets 0*x0h1 + 1*x2h1 = 7.
        assert_eq!(out.data().row(1), &[1., 7.]);
    }

    #[test]
    fn u_add_v_and_gradients() {
        let b = toy_batch();
        let u = Tensor::param(NdArray::from_vec(3, 1, vec![1., 2., 3.]));
        let v = Tensor::param(NdArray::from_vec(3, 1, vec![10., 20., 30.]));
        let out = gsddmm_u_add_v(&b, &u, &v);
        // edges (0->1): u0+v1=21 ; (2->1): u2+v1=23 ; (1->0): u1+v0=12
        assert_eq!(out.data().data(), &[21., 23., 12.]);
        out.sum_all().backward();
        assert_eq!(u.grad().unwrap().data(), &[1., 1., 1.]);
        // Node 1 is the destination of two edges, node 2 of none.
        assert_eq!(v.grad().unwrap().data(), &[1., 2., 0.]);
    }

    #[test]
    fn edge_softmax_normalizes_per_destination() {
        let b = toy_batch();
        let s = Tensor::new(NdArray::from_vec(3, 1, vec![1., 3., 0.5]));
        let a = edge_softmax(&b, &s);
        let d = a.data();
        // Edges 0 and 1 share destination 1.
        assert!((d.data()[0] + d.data()[1] - 1.0).abs() < 1e-5);
        assert!((d.data()[2] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn fused_kernels_launch_fewer_than_unfused() {
        let b = toy_batch();
        let x = Tensor::param(NdArray::zeros(3, 2));

        // Compare message-passing kernels by kind: the fused path also
        // records a frame_write staging copy (an Elementwise launch), so
        // total launch counts tie; the fusion claim is one SpMM replacing
        // the gather + scatter pair.
        let mp_kernels = |report: &gnn_device::DeviceReport| -> u64 {
            report
                .kind_counts
                .iter()
                .filter(|(k, _)| {
                    matches!(
                        k,
                        KernelKind::SpMM
                            | KernelKind::SDDMM
                            | KernelKind::Gather
                            | KernelKind::Scatter
                    )
                })
                .map(|(_, n)| n)
                .sum()
        };

        let h1 = gnn_device::session::install(gnn_device::Session::new(
            gnn_device::CostModel::rtx2080ti(),
        ));
        gspmm_copy_sum(&b, &x);
        let fused = mp_kernels(&gnn_device::session::finish(h1));

        let h2 = gnn_device::session::install(gnn_device::Session::new(
            gnn_device::CostModel::rtx2080ti(),
        ));
        x.gather_rows(&b.src).scatter_add_rows(&b.dst, b.num_nodes);
        let unfused = mp_kernels(&gnn_device::session::finish(h2));

        assert!(fused < unfused, "{fused} !< {unfused}");
    }

    #[test]
    #[should_panic(expected = "edge weight rows mismatch")]
    fn mul_sum_shape_check() {
        let b = toy_batch();
        let x = Tensor::new(NdArray::zeros(3, 2));
        let w = Tensor::new(NdArray::zeros(1, 1));
        gspmm_mul_sum(&b, &x, &w);
    }
}
