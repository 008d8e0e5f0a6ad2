//! GATConv, DGL style.

use gnn_device::{record, Kernel};
use gnn_tensor::nn::{init, Linear};
use gnn_tensor::Tensor;
use rand::Rng;

use crate::batch::HeteroBatch;
use crate::costs;
use crate::kernels::{edge_softmax, gsddmm_u_add_v, gspmm_mul_sum};

/// Multi-head graph attention, DGL lowering: per-node attention halves,
/// a GSDDMM `u_add_v` to form per-edge scores, DGL's `edge_softmax`, and one
/// fused GSpMM for the weighted aggregation.
///
/// Mirrors the paper's two GAT findings: the fused aggregation ("key
/// operation") is *cheaper* than PyG's gather/scatter pair, but the
/// attention-parameter computation costs *more* — DGL materializes the
/// head-shaped `[N, H, D]` view (an explicit reshape copy here) and runs
/// the score construction through dispatched GSDDMM calls.
#[derive(Debug)]
pub struct GatConv {
    lin: Linear,
    attn_l: Tensor,
    attn_r: Tensor,
    heads: usize,
    out_per_head: usize,
}

impl GatConv {
    /// Creates the layer; output dimension is `out_per_head * heads`.
    ///
    /// # Panics
    ///
    /// Panics if `heads == 0`.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        out_per_head: usize,
        heads: usize,
        rng: &mut R,
    ) -> Self {
        assert!(heads > 0, "GAT needs at least one head");
        let width = out_per_head * heads;
        let limit = (6.0 / (width + heads) as f32).sqrt();
        GatConv {
            lin: Linear::new_no_bias(in_dim, width, rng),
            attn_l: Tensor::param(init::uniform(1, width, limit, rng)),
            attn_r: Tensor::param(init::uniform(1, width, limit, rng)),
            heads,
            out_per_head,
        }
    }

    /// Applies the layer.
    pub fn forward(&self, batch: &HeteroBatch, x: &Tensor, _training: bool) -> Tensor {
        gnn_device::host(costs::LAYER_OVERHEAD);
        let z = self.lin.forward(x);
        // DGL materializes the [N, H, D] head view — an explicit copy.
        record(Kernel::elementwise("head_view_copy", z.data().len(), 0, 2));
        gnn_device::host(costs::OP_DISPATCH);
        let al = z.head_dot(&self.attn_l, self.heads); // attending (dst) half
        let ar = z.head_dot(&self.attn_r, self.heads); // attended (src) half

        // Per-edge scores via fused u_add_v, then leaky relu + edge softmax.
        let scores = gsddmm_u_add_v(batch, &ar, &al).leaky_relu(0.2);
        let alpha = edge_softmax(batch, &scores);
        gspmm_mul_sum(batch, &z, &alpha)
    }

    /// Output feature dimension (`out_per_head * heads`).
    pub fn out_dim(&self) -> usize {
        self.out_per_head * self.heads
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Tensor> {
        let mut p = self.lin.params();
        p.push(self.attn_l.clone());
        p.push(self.attn_r.clone());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_graph::Graph;
    use gnn_tensor::NdArray;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_batch() -> HeteroBatch {
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
    fn output_width_and_convexity() {
        let b = toy_batch();
        let mut rng = StdRng::seed_from_u64(0);
        let conv = GatConv::new(2, 3, 2, &mut rng);
        let out = conv.forward(&b, &b.x, true);
        assert_eq!(out.shape(), (3, 6));
        // Node 1 output must lie between neighbours' z rows coordinatewise.
        let z = conv.lin.forward(&b.x);
        let zd = z.data();
        for c in 0..6 {
            let lo = zd.at(0, c).min(zd.at(2, c)) - 1e-5;
            let hi = zd.at(0, c).max(zd.at(2, c)) + 1e-5;
            assert!((lo..=hi).contains(&out.data().at(1, c)));
        }
    }

    #[test]
    fn attention_grads_flow() {
        let b = toy_batch();
        let mut rng = StdRng::seed_from_u64(1);
        let conv = GatConv::new(2, 3, 4, &mut rng);
        conv.forward(&b, &b.x, true).sum_all().backward();
        assert!(conv.attn_l.grad().is_some());
        assert!(conv.attn_r.grad().is_some());
    }

    #[test]
    fn aggregation_is_fused_but_attention_costs_extra() {
        // Paper Section IV-C: DGL GAT's key op (aggregation) is cheaper than
        // PyG's, but attention computation is more expensive. Structurally:
        // exactly one SpMM for aggregation, plus SDDMM + softmax + reshape
        // copies on the attention path.
        let b = toy_batch();
        let mut rng = StdRng::seed_from_u64(2);
        let conv = GatConv::new(2, 3, 2, &mut rng);
        let h = gnn_device::session::install(gnn_device::Session::new(
            gnn_device::CostModel::rtx2080ti(),
        ));
        conv.forward(&b, &b.x, true);
        let report = gnn_device::session::finish(h);
        let count = |k: gnn_device::KernelKind| {
            report
                .kind_counts
                .iter()
                .find(|(kk, _)| *kk == k)
                .map(|(_, n)| *n)
                .unwrap_or(0)
        };
        assert_eq!(count(gnn_device::KernelKind::SpMM), 1);
        assert_eq!(count(gnn_device::KernelKind::SDDMM), 1);
        assert_eq!(count(gnn_device::KernelKind::Softmax), 1);
        assert_eq!(count(gnn_device::KernelKind::Scatter), 0);
    }
}
