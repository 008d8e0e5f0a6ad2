//! Dense matrix multiplication (the cuBLAS GEMM of the simulated device).

use gnn_device::{record, Kernel};

use crate::autograd::{accumulate, Backward, Tensor};
use crate::ndarray::NdArray;
use crate::shape_error::ShapeError;

/// Validates matmul inner dimensions; `Err` carries the exact message the
/// runtime panics with (and that `gnn-lint` reports statically).
pub fn check_matmul(lhs_cols: usize, rhs_rows: usize) -> Result<(), ShapeError> {
    if lhs_cols != rhs_rows {
        return Err(ShapeError::inner_dim("matmul", lhs_cols, rhs_rows));
    }
    Ok(())
}

/// Holds nothing: both operands are the node's parents, borrowed again
/// when the gradient arrives (each borrow ends before `accumulate`).
struct MatmulBack;

impl Backward for MatmulBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        let ((a_rows, a_cols), (b_rows, _)) = (parents[0].shape(), parents[1].shape());
        // dA = dC @ B^T
        if parents[0].needs_grad() {
            record(Kernel::gemm(
                "matmul_back_a",
                grad.rows(),
                grad.cols(),
                b_rows,
            ));
            let da = grad.matmul_nt(&parents[1].data());
            accumulate(&parents[0], da);
        }
        // dB = A^T @ dC
        if parents[1].needs_grad() {
            record(Kernel::gemm("matmul_back_b", a_cols, a_rows, grad.cols()));
            let db = parents[0].data().matmul_tn(grad);
            accumulate(&parents[1], db);
        }
    }

    fn name(&self) -> &'static str {
        "matmul"
    }
}

impl Tensor {
    /// Dense matmul `self [m,k] @ other [k,n] -> [m,n]`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree, with the [`ShapeError`] rendering
    /// `gnn-lint` reports for the same defect.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let ((m, k), (b_rows, n)) = (self.shape(), other.shape());
        if let Err(e) = check_matmul(k, b_rows) {
            panic!("{e}");
        }
        record(Kernel::gemm("matmul", m, k, n));
        // Both borrows end with this statement; nothing is copied.
        let data = self.data().matmul(&other.data());
        Tensor::from_op(
            data,
            vec![self.clone(), other.clone()],
            Box::new(MatmulBack),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_forward_known() {
        let a = Tensor::param(NdArray::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let b = Tensor::param(NdArray::from_vec(2, 2, vec![5., 6., 7., 8.]));
        let c = a.matmul(&b);
        assert_eq!(c.data().data(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_gradients_match_formula() {
        // y = sum(A @ B); dA = ones @ B^T, dB = A^T @ ones
        let a = Tensor::param(NdArray::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let b = Tensor::param(NdArray::from_vec(3, 2, vec![1., -1., 0.5, 2., -2., 0.]));
        let y = a.matmul(&b);
        y.backward();
        let ones = NdArray::full(2, 2, 1.0);
        assert_eq!(a.grad().unwrap(), ones.matmul_nt(&b.data()));
        assert_eq!(b.grad().unwrap(), a.data().matmul_tn(&ones));
    }

    #[test]
    fn matmul_gradient_numerical_check() {
        // Finite-difference check on a single element.
        let mut base = vec![0.3, -0.7, 0.2, 0.9, -0.1, 0.4];
        let bv = vec![0.5, 1.5, -0.5, 0.25, 2.0, -1.0];
        let f = |av: &[f32]| {
            let a = NdArray::from_vec(2, 3, av.to_vec());
            let b = NdArray::from_vec(3, 2, bv.clone());
            a.matmul(&b).sum()
        };
        let a = Tensor::param(NdArray::from_vec(2, 3, base.clone()));
        let b = Tensor::param(NdArray::from_vec(3, 2, bv.clone()));
        a.matmul(&b).backward();
        let analytic = a.grad().unwrap();
        let eps = 1e-3;
        for i in 0..base.len() {
            let orig = base[i];
            base[i] = orig + eps;
            let up = f(&base);
            base[i] = orig - eps;
            let down = f(&base);
            base[i] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[i]).abs() < 1e-2,
                "grad mismatch at {i}: {numeric} vs {}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "matmul: inner dimensions disagree (lhs cols = 3, rhs rows = 2)")]
    fn matmul_inner_dim_mismatch_panics_with_shape_error() {
        let a = Tensor::new(NdArray::zeros(2, 3));
        let b = Tensor::new(NdArray::zeros(2, 2));
        a.matmul(&b);
    }

    #[test]
    fn matmul_records_gemm_kernels() {
        let h = gnn_device::session::install(gnn_device::Session::new(
            gnn_device::CostModel::rtx2080ti(),
        ));
        let a = Tensor::param(NdArray::zeros(8, 8));
        let b = Tensor::param(NdArray::zeros(8, 8));
        a.matmul(&b).backward();
        let report = gnn_device::session::finish(h);
        let gemms = report
            .kind_counts
            .iter()
            .find(|(k, _)| *k == gnn_device::KernelKind::Gemm)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert_eq!(gemms, 3, "forward + two backward GEMMs");
    }
}
