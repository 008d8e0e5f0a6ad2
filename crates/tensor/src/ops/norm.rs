//! Normalization kernels: batch normalization and row-wise L2 normalization.
//!
//! Batch norm appears in GIN and in all four-layer graph-classification
//! architectures of the study; L2 row normalization is GraphSAGE's
//! "project onto the unit ball" step.

// Kernel-style loops co-index several slices; index form is clearer here.
#![allow(clippy::needless_range_loop)]

use gnn_device::{record, Kernel, KernelKind};

use crate::autograd::{accumulate, records, Backward, Tensor};
use crate::ndarray::NdArray;

/// Result of a training-mode batch-norm application.
///
/// `batch_mean` / `batch_var` let the owning layer update its running
/// statistics (a non-differentiable side effect, like PyTorch).
#[derive(Debug)]
pub struct BatchNormOutput {
    /// The normalized, scaled, shifted activations.
    pub out: Tensor,
    /// Per-feature batch mean `[1, F]`.
    pub batch_mean: NdArray,
    /// Per-feature biased batch variance `[1, F]`.
    pub batch_var: NdArray,
}

struct BatchNormBack {
    xhat: NdArray,
    invstd: Vec<f32>,
}

impl Backward for BatchNormBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        let (n, f) = grad.shape();
        record(Kernel::new(
            "batch_norm_back",
            KernelKind::Norm,
            (4 * n * f) as u64,
            (20 * n * f) as u64,
        ));
        let mut dbeta = vec![0.0f32; f];
        let mut dgamma = vec![0.0f32; f];
        for r in 0..n {
            let g = grad.row(r);
            let xh = self.xhat.row(r);
            for j in 0..f {
                dbeta[j] += g[j];
                dgamma[j] += g[j] * xh[j];
            }
        }
        if parents[0].needs_grad() {
            let nf = n as f32;
            let gamma = parents[1].data();
            let mut dx = NdArray::zeros(n, f);
            for r in 0..n {
                let g = grad.row(r);
                let xh = self.xhat.row(r);
                let dr = dx.row_mut(r);
                for j in 0..f {
                    dr[j] = gamma.data()[j] * self.invstd[j] / nf
                        * (nf * g[j] - dbeta[j] - xh[j] * dgamma[j]);
                }
            }
            accumulate(&parents[0], dx);
        }
        accumulate(&parents[1], NdArray::from_vec(1, f, dgamma));
        accumulate(&parents[2], NdArray::from_vec(1, f, dbeta));
    }
    fn name(&self) -> &'static str {
        "batch_norm"
    }
}

struct BatchNormEvalBack {
    scale: Vec<f32>, // gamma * invstd (per feature)
    xhat: NdArray,
}

impl Backward for BatchNormEvalBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        let (n, f) = grad.shape();
        record(Kernel::new(
            "batch_norm_eval_back",
            KernelKind::Norm,
            (2 * n * f) as u64,
            (12 * n * f) as u64,
        ));
        if parents[0].needs_grad() {
            let mut dx = NdArray::zeros(n, f);
            for r in 0..n {
                let g = grad.row(r);
                let dr = dx.row_mut(r);
                for j in 0..f {
                    dr[j] = g[j] * self.scale[j];
                }
            }
            accumulate(&parents[0], dx);
        }
        let mut dgamma = vec![0.0f32; f];
        let mut dbeta = vec![0.0f32; f];
        for r in 0..n {
            let g = grad.row(r);
            let xh = self.xhat.row(r);
            for j in 0..f {
                dgamma[j] += g[j] * xh[j];
                dbeta[j] += g[j];
            }
        }
        accumulate(&parents[1], NdArray::from_vec(1, f, dgamma));
        accumulate(&parents[2], NdArray::from_vec(1, f, dbeta));
    }
    fn name(&self) -> &'static str {
        "batch_norm_eval"
    }
}

struct L2NormalizeBack {
    y: NdArray,
    norms: Vec<f32>,
}

impl Backward for L2NormalizeBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        let (n, f) = grad.shape();
        record(Kernel::new(
            "l2_normalize_back",
            KernelKind::Norm,
            (3 * n * f) as u64,
            (16 * n * f) as u64,
        ));
        let mut dx = NdArray::zeros(n, f);
        for r in 0..n {
            let g = grad.row(r);
            let y = self.y.row(r);
            let dot: f32 = g.iter().zip(y).map(|(&a, &b)| a * b).sum();
            let inv = 1.0 / self.norms[r];
            let dr = dx.row_mut(r);
            for j in 0..f {
                dr[j] = (g[j] - y[j] * dot) * inv;
            }
        }
        accumulate(&parents[0], dx);
    }
    fn name(&self) -> &'static str {
        "l2_normalize"
    }
}

impl Tensor {
    /// Training-mode batch normalization of `self [N, F]` with learnable
    /// `gamma [1, F]` and `beta [1, F]`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or `N == 0`.
    pub fn batch_norm_train(&self, gamma: &Tensor, beta: &Tensor, eps: f32) -> BatchNormOutput {
        let x = self.data();
        let (n, f) = x.shape();
        assert!(n > 0, "batch_norm on empty batch");
        assert_eq!(gamma.shape(), (1, f), "gamma shape");
        assert_eq!(beta.shape(), (1, f), "beta shape");
        record(Kernel::new(
            "batch_norm",
            KernelKind::Norm,
            (5 * n * f) as u64,
            (16 * n * f) as u64,
        ));
        let mean = {
            let mut m = x.col_sums();
            for v in m.data_mut() {
                *v /= n as f32;
            }
            m
        };
        let mut var = NdArray::zeros(1, f);
        for r in 0..n {
            let xr = x.row(r);
            for j in 0..f {
                let d = xr[j] - mean.data()[j];
                var.data_mut()[j] += d * d;
            }
        }
        for v in var.data_mut() {
            *v /= n as f32;
        }
        let invstd: Vec<f32> = var.data().iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
        let gv: Vec<f32> = gamma.data().data().to_vec();
        let bv: Vec<f32> = beta.data().data().to_vec();
        let mut xhat = NdArray::zeros(n, f);
        let mut out = NdArray::zeros(n, f);
        for r in 0..n {
            let xr = x.row(r);
            let xhr = xhat.row_mut(r);
            let or = out.row_mut(r);
            for j in 0..f {
                xhr[j] = (xr[j] - mean.data()[j]) * invstd[j];
                or[j] = gv[j] * xhr[j] + bv[j];
            }
        }
        let t = Tensor::from_op(
            out,
            vec![self.clone(), gamma.clone(), beta.clone()],
            Box::new(BatchNormBack { xhat, invstd }),
        );
        BatchNormOutput {
            out: t,
            batch_mean: mean,
            batch_var: var,
        }
    }

    /// Inference-mode batch normalization using running statistics.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn batch_norm_eval(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        running_mean: &NdArray,
        running_var: &NdArray,
        eps: f32,
    ) -> Tensor {
        let x = self.data();
        let (n, f) = x.shape();
        assert_eq!(gamma.shape(), (1, f), "gamma shape");
        assert_eq!(beta.shape(), (1, f), "beta shape");
        assert_eq!(running_mean.shape(), (1, f), "running mean shape");
        assert_eq!(running_var.shape(), (1, f), "running var shape");
        record(Kernel::new(
            "batch_norm_eval",
            KernelKind::Norm,
            (3 * n * f) as u64,
            (12 * n * f) as u64,
        ));
        let invstd: Vec<f32> = running_var
            .data()
            .iter()
            .map(|&v| 1.0 / (v + eps).sqrt())
            .collect();
        let gv: Vec<f32> = gamma.data().data().to_vec();
        let bv: Vec<f32> = beta.data().data().to_vec();
        // `out` holds x-hat first; x-hat is backward-only state, copied out
        // only when the node is recorded.
        let mut out = NdArray::zeros(n, f);
        for r in 0..n {
            let xr = x.row(r);
            let or = out.row_mut(r);
            for j in 0..f {
                or[j] = (xr[j] - running_mean.data()[j]) * invstd[j];
            }
        }
        let xhat = if records([self, gamma, beta]) {
            out.clone()
        } else {
            NdArray::default()
        };
        for r in 0..n {
            let or = out.row_mut(r);
            for j in 0..f {
                or[j] = gv[j] * or[j] + bv[j];
            }
        }
        let scale: Vec<f32> = gv.iter().zip(&invstd).map(|(&g, &i)| g * i).collect();
        Tensor::from_op(
            out,
            vec![self.clone(), gamma.clone(), beta.clone()],
            Box::new(BatchNormEvalBack { scale, xhat }),
        )
    }

    /// Projects each row onto the unit L2 ball: `y = x / max(||x||, eps)`.
    pub fn l2_normalize_rows(&self, eps: f32) -> Tensor {
        let x = self.data();
        let (n, f) = x.shape();
        record(Kernel::new(
            "l2_normalize",
            KernelKind::Norm,
            (3 * n * f) as u64,
            (8 * n * f) as u64,
        ));
        // The norms and the output copy are backward-only state.
        let keep = records([self]);
        let mut out = NdArray::zeros(n, f);
        let mut norms = Vec::with_capacity(if keep { n } else { 0 });
        for r in 0..n {
            let xr = x.row(r);
            let norm = xr.iter().map(|&v| v * v).sum::<f32>().sqrt().max(eps);
            if keep {
                norms.push(norm);
            }
            let or = out.row_mut(r);
            for j in 0..f {
                or[j] = xr[j] / norm;
            }
        }
        let y = if keep {
            out.clone()
        } else {
            NdArray::default()
        };
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(L2NormalizeBack { y, norms }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_norm_zero_mean_unit_var() {
        let x = Tensor::param(NdArray::from_vec(4, 1, vec![1., 2., 3., 4.]));
        let gamma = Tensor::param(NdArray::from_vec(1, 1, vec![1.]));
        let beta = Tensor::param(NdArray::from_vec(1, 1, vec![0.]));
        let bn = x.batch_norm_train(&gamma, &beta, 1e-5);
        let y = bn.out.data();
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        let var: f32 = y
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
        assert_eq!(bn.batch_mean.item(), 2.5);
    }

    #[test]
    fn batch_norm_gradcheck() {
        let vals = vec![0.5, -1.0, 2.0, 0.3, 1.1, -0.4];
        let x = Tensor::param(NdArray::from_vec(3, 2, vals.clone()));
        let gamma = Tensor::param(NdArray::from_vec(1, 2, vec![1.5, 0.7]));
        let beta = Tensor::param(NdArray::from_vec(1, 2, vec![0.1, -0.2]));
        // f = sum(w * bn(x)) with asymmetric weights
        let w = Tensor::new(NdArray::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
        x.batch_norm_train(&gamma, &beta, 1e-5)
            .out
            .mul(&w)
            .backward();
        let analytic = x.grad().unwrap();

        let f = |v: &[f32]| -> f32 {
            let weights = [1.0f32, 2., 3., 4., 5., 6.];
            let g = [1.5f32, 0.7];
            let b = [0.1f32, -0.2];
            let mut total = 0.0;
            for j in 0..2 {
                let col: Vec<f32> = (0..3).map(|r| v[r * 2 + j]).collect();
                let mu: f32 = col.iter().sum::<f32>() / 3.0;
                let var: f32 = col.iter().map(|&c| (c - mu) * (c - mu)).sum::<f32>() / 3.0;
                let istd = 1.0 / (var + 1e-5).sqrt();
                for (r, &c) in col.iter().enumerate() {
                    total += weights[r * 2 + j] * (g[j] * (c - mu) * istd + b[j]);
                }
            }
            total
        };
        let eps = 1e-3;
        for i in 0..vals.len() {
            let mut up = vals.clone();
            up[i] += eps;
            let mut dn = vals.clone();
            dn[i] -= eps;
            let numeric = (f(&up) - f(&dn)) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[i]).abs() < 5e-2,
                "i={i}: {numeric} vs {}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    fn batch_norm_eval_uses_running_stats() {
        let x = Tensor::new(NdArray::from_vec(2, 1, vec![3., 5.]));
        let gamma = Tensor::param(NdArray::from_vec(1, 1, vec![2.]));
        let beta = Tensor::param(NdArray::from_vec(1, 1, vec![1.]));
        let rm = NdArray::from_vec(1, 1, vec![4.0]);
        let rv = NdArray::from_vec(1, 1, vec![1.0]);
        let y = x.batch_norm_eval(&gamma, &beta, &rm, &rv, 0.0);
        // (3-4)/1*2+1 = -1 ; (5-4)/1*2+1 = 3
        assert!((y.data().data()[0] + 1.0).abs() < 1e-5);
        assert!((y.data().data()[1] - 3.0).abs() < 1e-5);
    }

    #[test]
    fn l2_normalize_unit_rows() {
        let x = Tensor::param(NdArray::from_vec(2, 2, vec![3., 4., 0., 0.]));
        let y = x.l2_normalize_rows(1e-12);
        let d = y.data();
        assert!((d.at(0, 0) - 0.6).abs() < 1e-6);
        assert!((d.at(0, 1) - 0.8).abs() < 1e-6);
        // zero row stays finite
        assert_eq!(d.at(1, 0), 0.0);
        drop(d);
        y.backward();
        assert!(!x.grad().unwrap().has_non_finite());
    }

    #[test]
    fn l2_normalize_gradcheck() {
        let vals = vec![0.8, -0.5, 1.2];
        let x = Tensor::param(NdArray::from_vec(1, 3, vals.clone()));
        let w = Tensor::new(NdArray::from_vec(1, 3, vec![1., 2., 3.]));
        x.l2_normalize_rows(1e-12).mul(&w).backward();
        let analytic = x.grad().unwrap();
        let f = |v: &[f32]| -> f32 {
            let n = v.iter().map(|&a| a * a).sum::<f32>().sqrt();
            v.iter()
                .zip([1.0f32, 2., 3.])
                .map(|(&a, w)| a / n * w)
                .sum()
        };
        let eps = 1e-3;
        for i in 0..3 {
            let mut up = vals.clone();
            up[i] += eps;
            let mut dn = vals.clone();
            dn[i] -= eps;
            let numeric = (f(&up) - f(&dn)) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[i]).abs() < 1e-2,
                "i={i}: {numeric} vs {}",
                analytic.data()[i]
            );
        }
    }
}
