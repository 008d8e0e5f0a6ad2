//! Classification losses and accuracy.

// Kernel-style loops co-index several slices; index form is clearer here.
#![allow(clippy::needless_range_loop)]

use gnn_device::{record, Kernel, KernelKind};

use crate::autograd::{accumulate, records, Backward, Tensor};
use crate::ndarray::NdArray;

struct CrossEntropyBack {
    /// softmax(logits) with the true-class probability reduced by 1, divided
    /// by the batch size — i.e. d(mean CE)/d(logits) for unit upstream grad.
    dlogits: NdArray,
}

impl Backward for CrossEntropyBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        record(Kernel::new(
            "cross_entropy_back",
            KernelKind::Softmax,
            self.dlogits.len() as u64,
            (8 * self.dlogits.len()) as u64,
        ));
        let g = grad.item();
        accumulate(&parents[0], self.dlogits.map(|v| v * g));
    }
    fn name(&self) -> &'static str {
        "cross_entropy"
    }
}

/// Mean cross-entropy between `logits [N, C]` and integer `labels`.
///
/// Numerically stable (log-sum-exp with max shift); fuses log-softmax and
/// NLL in one recorded kernel, as cuDNN does.
///
/// # Panics
///
/// Panics if `labels.len() != N`, `N == 0`, or a label is out of range.
pub fn cross_entropy(logits: &Tensor, labels: &[u32]) -> Tensor {
    let x = logits.data();
    let (n, c) = x.shape();
    assert!(n > 0, "cross_entropy on empty batch");
    assert_eq!(labels.len(), n, "labels length mismatch");
    assert!(
        labels.iter().all(|&l| (l as usize) < c),
        "label out of range ({c} classes)"
    );
    record(Kernel::new(
        "cross_entropy",
        KernelKind::Softmax,
        (5 * n * c) as u64,
        (12 * n * c) as u64,
    ));
    // `dlogits` is backward-only state: under `no_grad` only the loss is built.
    let keep = records([logits]);
    let mut total = 0.0f64;
    let mut dlogits = if keep {
        NdArray::zeros(n, c)
    } else {
        NdArray::default()
    };
    for r in 0..n {
        let row = x.row(r);
        let m = row.iter().cloned().fold(f32::MIN, f32::max);
        let sum_exp: f32 = row.iter().map(|&v| (v - m).exp()).sum();
        let lse = m + sum_exp.ln();
        let label = labels[r] as usize;
        total += f64::from(lse - row[label]);
        if keep {
            let dr = dlogits.row_mut(r);
            for j in 0..c {
                let onehot = if j == label { 1.0 } else { 0.0 };
                dr[j] = ((row[j] - m).exp() / sum_exp - onehot) / n as f32;
            }
        }
    }
    let loss = NdArray::scalar((total / n as f64) as f32);
    drop(x);
    Tensor::from_op(
        loss,
        vec![logits.clone()],
        Box::new(CrossEntropyBack { dlogits }),
    )
}

/// Fraction of rows whose argmax equals the label, in `[0, 1]`.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the number of logit rows.
pub fn accuracy(logits: &Tensor, labels: &[u32]) -> f64 {
    let x = logits.data();
    assert_eq!(labels.len(), x.rows(), "labels length mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let preds = x.argmax_rows();
    let correct = preds
        .iter()
        .zip(labels)
        .filter(|&(&p, &l)| p == l as usize)
        .count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_logits_give_low_loss_high_acc() {
        let logits = Tensor::param(NdArray::from_vec(2, 3, vec![10., 0., 0., 0., 10., 0.]));
        let labels = [0u32, 1];
        let loss = cross_entropy(&logits, &labels);
        assert!(loss.item() < 1e-3);
        assert_eq!(accuracy(&logits, &labels), 1.0);
    }

    #[test]
    fn uniform_logits_loss_is_log_c() {
        let logits = Tensor::param(NdArray::zeros(4, 5));
        let loss = cross_entropy(&logits, &[0, 1, 2, 3]);
        assert!((loss.item() - 5.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_is_softmax_minus_onehot_over_n() {
        let logits = Tensor::param(NdArray::from_vec(1, 2, vec![0., 0.]));
        let loss = cross_entropy(&logits, &[1]);
        loss.backward();
        let g = logits.grad().unwrap();
        assert!((g.data()[0] - 0.5).abs() < 1e-6);
        assert!((g.data()[1] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        let logits = Tensor::param(NdArray::from_vec(2, 2, vec![0.5, -0.5, 0.2, 0.1]));
        let labels = [1u32, 0];
        let l0 = cross_entropy(&logits, &labels);
        let start = l0.item();
        l0.backward();
        let g = logits.grad().unwrap();
        logits.data_mut().axpy(-1.0, &g);
        let l1 = cross_entropy(&logits, &labels);
        assert!(l1.item() < start, "{} !< {start}", l1.item());
    }

    #[test]
    fn stable_for_large_logits() {
        let logits = Tensor::param(NdArray::from_vec(1, 2, vec![1000.0, -1000.0]));
        let loss = cross_entropy(&logits, &[0]);
        assert!(loss.item().is_finite());
        loss.backward();
        assert!(!logits.grad().unwrap().has_non_finite());
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::new(NdArray::from_vec(3, 2, vec![1., 0., 0., 1., 1., 0.]));
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_label_panics() {
        let logits = Tensor::new(NdArray::zeros(1, 2));
        cross_entropy(&logits, &[5]);
    }
}
