//! GAT convolution (Veličković et al.), multi-head attention.

use gnn_tensor::mp;
use gnn_tensor::nn::{init, Linear};
use gnn_tensor::Tensor;
use rand::Rng;

use crate::batch::Batch;
use crate::{costs, message};

/// Multi-head graph attention. Per head `h` with projected features
/// `z = W x`:
///
/// `e_ij = LeakyReLU(a_l · z_i + a_r · z_j)`,
/// `α_ij = softmax_j(e_ij)` over `i`'s in-neighbourhood (plus the self
/// edge), `h_i' = Σ_j α_ij z_j`, heads concatenated.
///
/// PyG lowering: GEMM, two per-head projections, gather/gather/add/
/// leaky-relu on edges, segment softmax keyed by destination, per-head
/// weighting, scatter_add.
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
    pub fn forward(&self, batch: &Batch, x: &Tensor, _training: bool) -> Tensor {
        gnn_device::host(costs::LAYER_OVERHEAD);
        let z = self.lin.forward(x);
        // Per-node attention halves.
        let al = z.head_dot(&self.attn_l, self.heads); // [N, H]
        let ar = z.head_dot(&self.attn_r, self.heads); // [N, H]

        // Per-edge scores e = leaky(al[dst] + ar[src]) — dst is the
        // attending node i, src the attended j.
        gnn_device::traced("rustyg", "gat.gather_scatter", || {
            let scores = al
                .gather_rows(&batch.dst)
                .add(&ar.gather_rows(&batch.src))
                .leaky_relu(0.2);
            let alpha = scores.segment_softmax(&batch.dst, batch.num_nodes); // [E, H]
            mp::u_mul_e_sum(batch.edges(), &z, &alpha, &message::MUL_PER_HEAD)
        })
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

    fn toy_batch() -> Batch {
        let g = Graph::from_edges(3, &[(0, 1), (2, 1), (1, 0)]);
        Batch::from_parts(
            &g,
            NdArray::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]),
            vec![0, 0, 0],
            1,
            vec![0],
        )
    }

    #[test]
    fn output_width_is_heads_times_dim() {
        let b = toy_batch();
        let mut rng = StdRng::seed_from_u64(0);
        let conv = GatConv::new(2, 4, 8, &mut rng);
        let out = conv.forward(&b, &b.x, true);
        assert_eq!(out.shape(), (3, 32));
        assert_eq!(conv.out_dim(), 32);
    }

    #[test]
    fn attention_is_convex_combination() {
        // Node 1 attends over {0, 2}; its output per head must lie inside
        // the convex hull of the z rows of 0 and 2 (coordinatewise between
        // min and max).
        let b = toy_batch();
        let mut rng = StdRng::seed_from_u64(1);
        let conv = GatConv::new(2, 3, 2, &mut rng);
        let z = conv.lin.forward(&b.x);
        let out = conv.forward(&b, &b.x, true);
        let zd = z.data();
        let od = out.data();
        for c in 0..6 {
            let lo = zd.at(0, c).min(zd.at(2, c)) - 1e-5;
            let hi = zd.at(0, c).max(zd.at(2, c)) + 1e-5;
            assert!(
                (lo..=hi).contains(&od.at(1, c)),
                "col {c}: {} outside [{lo}, {hi}]",
                od.at(1, c)
            );
        }
    }

    #[test]
    fn attention_params_receive_gradients() {
        let b = toy_batch();
        let mut rng = StdRng::seed_from_u64(2);
        let conv = GatConv::new(2, 3, 4, &mut rng);
        conv.forward(&b, &b.x, true).sum_all().backward();
        assert!(conv.attn_l.grad().is_some());
        assert!(conv.attn_r.grad().is_some());
    }

    #[test]
    fn isolated_node_output_is_zero() {
        // A node with no in-edges aggregates nothing (PyG GATConv without
        // self-loops); the stack's residual path carries its identity.
        let g = Graph::from_edges(2, &[(0, 1)]);
        let b = Batch::from_parts(
            &g,
            NdArray::from_vec(2, 2, vec![1., 2., 3., 4.]),
            vec![0, 0],
            1,
            vec![0],
        );
        let mut rng = StdRng::seed_from_u64(3);
        let conv = GatConv::new(2, 2, 2, &mut rng);
        let out = conv.forward(&b, &b.x, true);
        assert!(out.data().row(0).iter().all(|&v| v == 0.0));
        assert!(out.data().row(1).iter().any(|&v| v != 0.0));
    }
}
