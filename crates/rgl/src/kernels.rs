//! DGL's generalized sparse kernels (GSpMM / GSDDMM) and their lowering.
//!
//! GSpMM "fuses two steps, computing messages by the source node and edge
//! features and aggregating the messages as the features on destination
//! nodes, into one kernel" (Section IV-C). Each op here is DGL's *lowering*
//! of a `gnn_tensor::mp` kernel: it records the frame writes that stage its
//! operands, one fused device kernel per direction and DGL's host-side
//! dispatch cost [`crate::costs::OP_DISPATCH`], where the PyG-like
//! framework records a gather/scatter pair. The lowering decides what is
//! recorded; `mp` computes both frameworks' sums on the same host kernels,
//! over the batch's CSC.

use gnn_device::{host, record, Kernel, KernelKind};
use gnn_tensor::mp::{self, Lowering, Shape};
use gnn_tensor::Tensor;

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

/// `update_all(copy_u, sum)`: the source features are staged in the ndata
/// frame, then one GSpMM each way.
#[derive(Debug)]
pub struct CopySum;

impl Lowering for CopySum {
    fn forward(&self, s: Shape) {
        host(costs::OP_DISPATCH);
        frame_write(s.in_rows, s.cols);
        record(spmm_kernel("gspmm_copy_sum", s.edges, s.cols, false));
    }
    fn backward(&self, s: Shape, _needs: [bool; 2], grad: &mut dyn FnMut(usize)) {
        host(costs::OP_DISPATCH);
        // Reverse-direction SpMM: dx[src] += grad[dst].
        record(spmm_kernel("gspmm_copy_sum_back", s.edges, s.cols, false));
        grad(0);
    }
}

/// `update_all(u_mul_e, sum)`: source features and edge weights are staged
/// in the ndata/edata frames; the backward is a GSpMM for the features and
/// a GSDDMM dot for the weights.
#[derive(Debug)]
pub struct MulSum;

impl Lowering for MulSum {
    fn forward(&self, s: Shape) {
        host(costs::OP_DISPATCH);
        frame_write(s.in_rows, s.cols);
        frame_write(s.edges, s.heads);
        record(spmm_kernel("gspmm_mul_sum", s.edges, s.cols, true));
    }
    fn backward(&self, s: Shape, needs: [bool; 2], grad: &mut dyn FnMut(usize)) {
        host(costs::OP_DISPATCH);
        if needs[0] {
            record(spmm_kernel("gspmm_mul_sum_back_x", s.edges, s.cols, true));
            grad(0);
        }
        if needs[1] {
            record(sddmm_kernel("gsddmm_dot_back_w", s.edges, s.cols));
            grad(1);
        }
    }
}

/// `apply_edges(u_add_v)`: one GSDDMM whose result lands in the edata
/// frame; the backward reduces the edge gradient onto each endpoint.
#[derive(Debug)]
pub struct AddUV;

impl Lowering for AddUV {
    fn forward(&self, s: Shape) {
        host(costs::OP_DISPATCH);
        record(sddmm_kernel("gsddmm_u_add_v", s.edges, s.cols));
        frame_write(s.edges, s.cols);
    }
    fn backward(&self, s: Shape, needs: [bool; 2], grad: &mut dyn FnMut(usize)) {
        host(costs::OP_DISPATCH);
        if needs[0] {
            record(spmm_kernel("gsddmm_add_back_u", s.edges, s.cols, false));
            grad(0);
        }
        if needs[1] {
            record(spmm_kernel("gsddmm_add_back_v", s.edges, s.cols, false));
            grad(1);
        }
    }
}

/// Fused copy-from-source + sum-by-destination: `out[i] = Σ_{j→i} x[j]`.
///
/// # Panics
///
/// Panics if `x` does not have one row per node of the batch.
pub fn gspmm_copy_sum(batch: &HeteroBatch, x: &Tensor) -> Tensor {
    assert_eq!(
        x.shape().0,
        batch.num_nodes,
        "gspmm: node feature rows mismatch"
    );
    gnn_device::traced("rgl", "gspmm_copy_sum", || {
        mp::copy_u_sum(batch.edges(), x, &CopySum)
    })
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
    assert_eq!(
        x.shape().0,
        batch.num_nodes,
        "gspmm: node feature rows mismatch"
    );
    gnn_device::traced("rgl", "gspmm_mul_sum", || {
        mp::u_mul_e_sum(batch.edges(), x, w, &MulSum)
    })
}

/// Fused per-edge binary add (DGL's `u_add_v`): `out[e] = u[src_e] + v[dst_e]`.
///
/// # Panics
///
/// Panics if `u` and `v` disagree in width or an endpoint is not one of
/// their rows.
pub fn gsddmm_u_add_v(batch: &HeteroBatch, u: &Tensor, v: &Tensor) -> Tensor {
    gnn_device::traced("rgl", "gsddmm_u_add_v", || {
        mp::u_add_v(batch.edges(), u, v, &AddUV)
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
    use gnn_tensor::NdArray;

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
