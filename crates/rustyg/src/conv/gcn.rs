//! GCN convolution (Kipf & Welling), PyG lowering.

use gnn_tensor::mp;
use gnn_tensor::nn::Linear;
use gnn_tensor::Tensor;
use rand::Rng;

use crate::batch::Batch;
use crate::{costs, message};

/// Graph convolution with degree-renormalized mean aggregation:
/// `h_i' = (1 / deg_i) * (W h_i + sum_{j in N(i)} W h_j)`, the paper's
/// Eq. (1) with the self-loop renormalization trick (`deg` counts the node
/// itself).
///
/// PyG lowering: one GEMM, then gather → scatter_add over the edge index,
/// then a per-row degree scale.
#[derive(Debug)]
pub struct GcnConv {
    lin: Linear,
}

impl GcnConv {
    /// Creates the layer.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        GcnConv {
            lin: Linear::new(in_dim, out_dim, rng),
        }
    }

    /// Applies the layer (linear activation; the model applies the
    /// nonlinearity).
    pub fn forward(&self, batch: &Batch, x: &Tensor, _training: bool) -> Tensor {
        gnn_device::host(costs::LAYER_OVERHEAD);
        let h = self.lin.forward(x);
        let agg = gnn_device::traced("rustyg", "gcn.gather_scatter", || {
            mp::copy_u_sum(batch.edges(), &h, &message::COPY)
        });
        // Self-loop contribution + mean normalization.
        agg.add(&h).mul_col(&batch.inv_deg)
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.lin.out_dim()
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Tensor> {
        self.lin.params()
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
        // 0 <-> 1, isolated 2
        let g = Graph::from_edges(3, &[(0, 1), (1, 0)]);
        Batch::from_parts(
            &g,
            NdArray::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]),
            vec![0, 0, 0],
            1,
            vec![0],
        )
    }

    #[test]
    fn isolated_node_keeps_self_feature() {
        let b = toy_batch();
        let mut rng = StdRng::seed_from_u64(0);
        let conv = GcnConv::new(2, 2, &mut rng);
        let out = conv.forward(&b, &b.x, true);
        // Node 2 has deg 1 (self only): out row = W x_2 exactly.
        let h =
            b.x.matmul(&conv.lin.params()[0])
                .add_bias(&conv.lin.params()[1]);
        let expect = h.data().row(2).to_vec();
        assert_eq!(out.data().row(2), &expect[..]);
    }

    #[test]
    fn neighbors_average() {
        let b = toy_batch();
        let mut rng = StdRng::seed_from_u64(1);
        let conv = GcnConv::new(2, 3, &mut rng);
        let out = conv.forward(&b, &b.x, true);
        let h =
            b.x.matmul(&conv.lin.params()[0])
                .add_bias(&conv.lin.params()[1]);
        // Node 0: (h0 + h1) / 2.
        let hd = h.data();
        for c in 0..3 {
            let expect = (hd.at(0, c) + hd.at(1, c)) / 2.0;
            assert!((out.data().at(0, c) - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_reach_weights() {
        let b = toy_batch();
        let mut rng = StdRng::seed_from_u64(2);
        let conv = GcnConv::new(2, 2, &mut rng);
        conv.forward(&b, &b.x, true).sum_all().backward();
        for p in conv.params() {
            assert!(p.grad().is_some(), "parameter missing gradient");
        }
    }
}
