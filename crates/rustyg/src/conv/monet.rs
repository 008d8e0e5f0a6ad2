//! MoNet / GMM convolution (Monti et al.).

use gnn_tensor::mp;
use gnn_tensor::nn::{init, Linear};
use gnn_tensor::{NdArray, Tensor};
use rand::Rng;

use crate::batch::Batch;
use crate::{costs, message};

/// Gaussian Mixture Model convolution with degree pseudo-coordinates
/// (the benchmarking-gnns construction the study follows):
///
/// raw pseudo-coordinate `u_ij = (deg_i^-1/2, deg_j^-1/2)`, projected by a
/// learnable linear + tanh; kernel weights
/// `w_k(u) = exp(-1/2 · Σ_d (u_d - μ_kd)^2 σ_kd^-2)`;
/// `h_i' = Σ_k Σ_j w_k(u_ij) (W_k h_j)_i` aggregated by sum.
#[derive(Debug)]
pub struct MoNetConv {
    pseudo_proj: Linear,
    mu: Vec<Tensor>,        // K x [1, P]
    inv_sigma: Vec<Tensor>, // K x [1, P]
    fc: Vec<Linear>,        // K x (in -> out)
    pseudo_dim: usize,
}

impl MoNetConv {
    /// Creates the layer with `kernels` Gaussians over a `pseudo_dim`-d
    /// pseudo-coordinate space (the study uses 2 and 2).
    ///
    /// # Panics
    ///
    /// Panics if `kernels == 0` or `pseudo_dim == 0`.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        out_dim: usize,
        kernels: usize,
        pseudo_dim: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            kernels > 0 && pseudo_dim > 0,
            "MoNet needs kernels and pseudo dims"
        );
        MoNetConv {
            pseudo_proj: Linear::new(2, pseudo_dim, rng),
            mu: (0..kernels)
                .map(|_| Tensor::param(init::uniform(1, pseudo_dim, 1.0, rng)))
                .collect(),
            inv_sigma: (0..kernels)
                .map(|_| Tensor::param(NdArray::full(1, pseudo_dim, 1.0)))
                .collect(),
            fc: (0..kernels)
                .map(|_| Linear::new_no_bias(in_dim, out_dim, rng))
                .collect(),
            pseudo_dim,
        }
    }

    /// Applies the layer.
    pub fn forward(&self, batch: &Batch, x: &Tensor, _training: bool) -> Tensor {
        gnn_device::host(costs::LAYER_OVERHEAD);
        // Raw per-edge pseudo-coordinates from endpoint degrees.
        let u_dst = batch.inv_sqrt_deg.gather_rows(&batch.dst);
        let u_src = batch.inv_sqrt_deg.gather_rows(&batch.src);
        let pseudo = self
            .pseudo_proj
            .forward(&u_dst.concat_cols(&u_src))
            .tanh_act(); // [E, P]

        let mut out: Option<Tensor> = None;
        for k in 0..self.fc.len() {
            // Gaussian weight w_k(u) as an [E, 1] column.
            let diff = pseudo.add_bias(&self.mu[k].scale(-1.0));
            let scaled = diff
                .mul(&diff)
                .mul_row(&self.inv_sigma[k].mul(&self.inv_sigma[k]));
            let w = scaled.sum_cols().scale(-0.5).exp(); // [E, 1]
            let agg = gnn_device::traced("rustyg", "monet.gather_scatter", || {
                mp::u_mul_e_sum(batch.edges(), &self.fc[k].forward(x), &w, &message::MUL_COL)
            });
            out = Some(match out {
                Some(acc) => acc.add(&agg),
                None => agg,
            });
        }
        out.expect("at least one kernel")
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.fc[0].out_dim()
    }

    /// Number of Gaussian kernels.
    pub fn kernels(&self) -> usize {
        self.fc.len()
    }

    /// Pseudo-coordinate dimensionality.
    pub fn pseudo_dim(&self) -> usize {
        self.pseudo_dim
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Tensor> {
        let mut p = self.pseudo_proj.params();
        for k in 0..self.fc.len() {
            p.push(self.mu[k].clone());
            p.push(self.inv_sigma[k].clone());
            p.extend(self.fc[k].params());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_graph::Graph;
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
    fn shape_and_param_count() {
        let b = toy_batch();
        let mut rng = StdRng::seed_from_u64(0);
        let conv = MoNetConv::new(2, 4, 2, 2, &mut rng);
        let out = conv.forward(&b, &b.x, true);
        assert_eq!(out.shape(), (3, 4));
        // proj(w,b) + 2 x (mu, inv_sigma, W) = 2 + 6
        assert_eq!(conv.params().len(), 8);
        assert_eq!(conv.kernels(), 2);
        assert_eq!(conv.pseudo_dim(), 2);
    }

    #[test]
    fn gaussian_params_receive_gradients() {
        let b = toy_batch();
        let mut rng = StdRng::seed_from_u64(1);
        let conv = MoNetConv::new(2, 3, 2, 2, &mut rng);
        conv.forward(&b, &b.x, true).sum_all().backward();
        for (i, p) in conv.params().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} missing grad");
        }
    }

    #[test]
    fn no_in_edges_means_zero_output() {
        let g = Graph::from_edges(2, &[(1, 0)]);
        let b = Batch::from_parts(
            &g,
            NdArray::from_vec(2, 2, vec![1., 2., 3., 4.]),
            vec![0, 0],
            1,
            vec![0],
        );
        let mut rng = StdRng::seed_from_u64(2);
        let conv = MoNetConv::new(2, 2, 2, 2, &mut rng);
        let out = conv.forward(&b, &b.x, true);
        assert!(out.data().row(1).iter().all(|&v| v == 0.0));
    }
}
