//! GraphSAGE convolution (Hamilton et al.), max/mean-pool aggregator family.

use gnn_tensor::mp;
use gnn_tensor::nn::Linear;
use gnn_tensor::Tensor;
use rand::Rng;

use crate::batch::Batch;
use crate::{costs, message};

/// GraphSAGE with the mean-pool aggregator of the study's Table II/III
/// (`sage_aggregator: meanpool`):
///
/// `a_i = mean_{j in N(i)} ReLU(W_pool h_j)`,
/// `h_i' = W Concat(h_i, a_i)`, then L2-normalized per the paper
/// ("embeddings vectors are projected onto the unit ball").
#[derive(Debug)]
pub struct SageConv {
    pool: Linear,
    lin: Linear,
}

impl SageConv {
    /// Creates the layer.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        SageConv {
            pool: Linear::new(in_dim, in_dim, rng),
            lin: Linear::new(2 * in_dim, out_dim, rng),
        }
    }

    /// Applies the layer.
    pub fn forward(&self, batch: &Batch, x: &Tensor, _training: bool) -> Tensor {
        gnn_device::host(costs::LAYER_OVERHEAD);
        let pooled = self.pool.forward(x).relu();
        // Mean over in-neighbours: scatter sum, then divide by the
        // renormalized degree (counts self once; the isolated-node case
        // stays finite).
        let agg = gnn_device::traced("rustyg", "sage.gather_scatter", || {
            mp::copy_u_sum(batch.edges(), &pooled, &message::COPY).mul_col(&batch.inv_deg)
        });
        let h = self.lin.forward(&x.concat_cols(&agg));
        h.l2_normalize_rows(1e-12)
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.lin.out_dim()
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Tensor> {
        let mut p = self.pool.params();
        p.extend(self.lin.params());
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
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (2, 0)]);
        Batch::from_parts(
            &g,
            NdArray::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]),
            vec![0, 0, 0],
            1,
            vec![0],
        )
    }

    #[test]
    fn output_rows_are_unit_norm() {
        let b = toy_batch();
        let mut rng = StdRng::seed_from_u64(0);
        let conv = SageConv::new(2, 4, &mut rng);
        let out = conv.forward(&b, &b.x, true);
        for r in 0..3 {
            let n: f32 = out.data().row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4, "row {r} norm {n}");
        }
    }

    #[test]
    fn param_count_covers_pool_and_update() {
        let mut rng = StdRng::seed_from_u64(1);
        let conv = SageConv::new(2, 4, &mut rng);
        assert_eq!(conv.params().len(), 4);
        assert_eq!(conv.out_dim(), 4);
    }

    #[test]
    fn gradients_flow_through_both_linears() {
        let b = toy_batch();
        let mut rng = StdRng::seed_from_u64(2);
        let conv = SageConv::new(2, 4, &mut rng);
        conv.forward(&b, &b.x, true).sum_all().backward();
        for (i, p) in conv.params().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} missing grad");
        }
    }
}
