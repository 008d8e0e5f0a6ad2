//! GatedGCN convolution (Bresson & Laurent) — PyG-style, no persistent edge
//! features.

// Kernel-style loops co-index several slices; index form is clearer here.
#![allow(clippy::needless_range_loop)]

use gnn_tensor::mp;
use gnn_tensor::nn::Linear;
use gnn_tensor::Tensor;
use rand::Rng;

use crate::batch::Batch;
use crate::{costs, message};

/// Residual gated graph convolution:
///
/// `h_i' = A h_i + Σ_j η_ij ⊙ (B h_j)`, with edge gates
/// `η_ij = σ(e_ij) / (Σ_{j'} σ(e_ij') + ε)` and gate logits
/// `e_ij = D h_i + E h_j`.
///
/// This is the PyG construction the paper contrasts with DGL's: the gate
/// logits are recomputed on the fly from node endpoints each layer — **no
/// explicit edge-feature tensor is stored or updated**, which is exactly why
/// the paper finds GatedGCN under PyG roughly 2× faster and far leaner in
/// memory than under DGL (Sections IV-A obs. 3 and IV-D obs. 2).
#[derive(Debug)]
pub struct GatedGcnConv {
    a: Linear,
    b: Linear,
    d: Linear,
    e: Linear,
}

impl GatedGcnConv {
    /// Creates the layer.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        GatedGcnConv {
            a: Linear::new(in_dim, out_dim, rng),
            b: Linear::new(in_dim, out_dim, rng),
            d: Linear::new(in_dim, out_dim, rng),
            e: Linear::new(in_dim, out_dim, rng),
        }
    }

    /// Applies the layer.
    pub fn forward(&self, batch: &Batch, x: &Tensor, _training: bool) -> Tensor {
        gnn_device::host(costs::LAYER_OVERHEAD);
        let ah = self.a.forward(x);
        let bh = self.b.forward(x);
        let dh = self.d.forward(x);
        let eh = self.e.forward(x);
        // Gate logits per edge, from endpoints only.
        let agg = gnn_device::traced("rustyg", "gated.gather_scatter", || {
            let gates = dh
                .gather_rows(&batch.dst)
                .add(&eh.gather_rows(&batch.src))
                .sigmoid(); // [E, F]
            let denom = gates
                .scatter_add_rows(&batch.dst, batch.num_nodes)
                .add_scalar(1e-6); // [N, F]
            let num = mp::u_mul_e_sum(batch.edges(), &bh, &gates, &message::MUL);
            num.div(&denom)
        });
        ah.add(&agg)
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.a.out_dim()
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Tensor> {
        [&self.a, &self.b, &self.d, &self.e]
            .iter()
            .flat_map(|l| l.params())
            .collect()
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
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (2, 1)]);
        Batch::from_parts(
            &g,
            NdArray::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]),
            vec![0, 0, 0],
            1,
            vec![0],
        )
    }

    #[test]
    fn shape_and_params() {
        let b = toy_batch();
        let mut rng = StdRng::seed_from_u64(0);
        let conv = GatedGcnConv::new(2, 4, &mut rng);
        let out = conv.forward(&b, &b.x, true);
        assert_eq!(out.shape(), (3, 4));
        assert_eq!(conv.params().len(), 8);
    }

    #[test]
    fn isolated_node_falls_back_to_self_path() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let b = Batch::from_parts(
            &g,
            NdArray::from_vec(2, 2, vec![1., 2., 3., 4.]),
            vec![0, 0],
            1,
            vec![0],
        );
        let mut rng = StdRng::seed_from_u64(1);
        let conv = GatedGcnConv::new(2, 3, &mut rng);
        let out = conv.forward(&b, &b.x, true);
        // Node 0 has no in-edges: out = A h_0 exactly (gate sum ~ 0).
        let ah = conv.a.forward(&b.x);
        for c in 0..3 {
            assert!((out.data().at(0, c) - ah.data().at(0, c)).abs() < 1e-4);
        }
    }

    #[test]
    fn all_four_linears_get_gradients() {
        let b = toy_batch();
        let mut rng = StdRng::seed_from_u64(2);
        let conv = GatedGcnConv::new(2, 4, &mut rng);
        conv.forward(&b, &b.x, true).sum_all().backward();
        for (i, p) in conv.params().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} missing grad");
        }
    }

    #[test]
    fn gates_normalize_messages() {
        // With a single in-edge, eta = sigma/(sigma + eps) ~ 1, so the
        // neighbour term approaches B h_j.
        let g = Graph::from_edges(2, &[(1, 0)]);
        let b = Batch::from_parts(
            &g,
            NdArray::from_vec(2, 2, vec![0.5, -0.2, 1.0, 2.0]),
            vec![0, 0],
            1,
            vec![0],
        );
        let mut rng = StdRng::seed_from_u64(3);
        let conv = GatedGcnConv::new(2, 2, &mut rng);
        let out = conv.forward(&b, &b.x, true);
        let expect = conv.a.forward(&b.x).data().row(0).to_vec();
        let bh = conv.b.forward(&b.x);
        for c in 0..2 {
            let full = expect[c] + bh.data().at(1, c);
            assert!(
                (out.data().at(0, c) - full).abs() < 1e-3,
                "col {c}: {} vs {full}",
                out.data().at(0, c)
            );
        }
    }
}
