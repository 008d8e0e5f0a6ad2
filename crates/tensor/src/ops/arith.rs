//! Elementwise and broadcast arithmetic.

use gnn_device::{record, Kernel};

use crate::autograd::{accumulate, Backward, Tensor};
use crate::ndarray::NdArray;

struct AddBack;
impl Backward for AddBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        accumulate(&parents[0], grad.clone());
        accumulate(&parents[1], grad.clone());
    }
    fn name(&self) -> &'static str {
        "add"
    }
}

struct SubBack;
impl Backward for SubBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        accumulate(&parents[0], grad.clone());
        record(Kernel::elementwise("sub_back", grad.len(), 1, 2));
        accumulate(&parents[1], grad.map(|g| -g));
    }
    fn name(&self) -> &'static str {
        "sub"
    }
}

struct MulBack;
impl Backward for MulBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        record(Kernel::elementwise("mul_back", grad.len(), 2, 4));
        accumulate(&parents[0], grad.zip(&parents[1].data(), |g, b| g * b));
        accumulate(&parents[1], grad.zip(&parents[0].data(), |g, a| g * a));
    }
    fn name(&self) -> &'static str {
        "mul"
    }
}

struct DivBack;
impl Backward for DivBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        record(Kernel::elementwise("div_back", grad.len(), 4, 4));
        let (a, b) = (parents[0].data(), parents[1].data());
        accumulate(&parents[0], grad.zip(&b, |g, b| g / b));
        let mut db = grad.zip(&a, |g, a| g * a);
        for (d, &b) in db.data_mut().iter_mut().zip(b.data()) {
            *d = -*d / (b * b);
        }
        accumulate(&parents[1], db);
    }
    fn name(&self) -> &'static str {
        "div"
    }
}

struct ScaleBack {
    c: f32,
}
impl Backward for ScaleBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        record(Kernel::elementwise("scale_back", grad.len(), 1, 2));
        accumulate(&parents[0], grad.map(|g| g * self.c));
    }
    fn name(&self) -> &'static str {
        "scale"
    }
}

struct AddScalarBack;
impl Backward for AddScalarBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        accumulate(&parents[0], grad.clone());
    }
    fn name(&self) -> &'static str {
        "add_scalar"
    }
}

struct AddBiasBack;
impl Backward for AddBiasBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        accumulate(&parents[0], grad.clone());
        record(Kernel::new(
            "bias_back",
            gnn_device::KernelKind::Reduction,
            grad.len() as u64,
            4 * (grad.len() + grad.cols()) as u64,
        ));
        accumulate(&parents[1], grad.col_sums());
    }
    fn name(&self) -> &'static str {
        "add_bias"
    }
}

struct MulColBack;
impl Backward for MulColBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        record(Kernel::elementwise("mul_col_back", grad.len(), 2, 4));
        let (a, c) = (parents[0].data(), parents[1].data());
        let (n, f) = grad.shape();
        let mut da = NdArray::zeros(n, f);
        let mut dc = NdArray::zeros(n, 1);
        for r in 0..n {
            let cr = c.at(r, 0);
            let gr = grad.row(r);
            let ar = a.row(r);
            let dar = da.row_mut(r);
            let mut acc = 0.0;
            for j in 0..f {
                dar[j] = gr[j] * cr;
                acc += gr[j] * ar[j];
            }
            *dc.at_mut(r, 0) = acc;
        }
        accumulate(&parents[0], da);
        accumulate(&parents[1], dc);
    }
    fn name(&self) -> &'static str {
        "mul_col"
    }
}

struct ScaleByBack;
impl Backward for ScaleByBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        record(Kernel::elementwise("scale_by_back", grad.len(), 2, 3));
        let s = parents[1].item();
        accumulate(&parents[0], grad.map(|g| g * s));
        let ds: f32 = grad
            .data()
            .iter()
            .zip(parents[0].data().data())
            .map(|(&g, &x)| g * x)
            .sum();
        accumulate(&parents[1], NdArray::scalar(ds));
    }
    fn name(&self) -> &'static str {
        "scale_by"
    }
}

impl Tensor {
    /// Elementwise `self + other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let data = self.data().zip(&other.data(), |a, b| a + b);
        record(Kernel::elementwise("add", data.len(), 1, 3));
        Tensor::from_op(data, vec![self.clone(), other.clone()], Box::new(AddBack))
    }

    /// Elementwise `self - other`.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let data = self.data().zip(&other.data(), |a, b| a - b);
        record(Kernel::elementwise("sub", data.len(), 1, 3));
        Tensor::from_op(data, vec![self.clone(), other.clone()], Box::new(SubBack))
    }

    /// Elementwise `self * other` (Hadamard product).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        let data = self.data().zip(&other.data(), |x, y| x * y);
        record(Kernel::elementwise("mul", data.len(), 1, 3));
        Tensor::from_op(data, vec![self.clone(), other.clone()], Box::new(MulBack))
    }

    /// Elementwise `self / other`.
    pub fn div(&self, other: &Tensor) -> Tensor {
        let data = self.data().zip(&other.data(), |x, y| x / y);
        record(Kernel::elementwise("div", data.len(), 1, 3));
        Tensor::from_op(data, vec![self.clone(), other.clone()], Box::new(DivBack))
    }

    /// `self * c` for a compile-time-known constant `c`.
    pub fn scale(&self, c: f32) -> Tensor {
        let data = self.data().map(|x| x * c);
        record(Kernel::elementwise("scale", data.len(), 1, 2));
        Tensor::from_op(data, vec![self.clone()], Box::new(ScaleBack { c }))
    }

    /// `self + c` elementwise for a constant `c`.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        let data = self.data().map(|x| x + c);
        record(Kernel::elementwise("add_scalar", data.len(), 1, 2));
        Tensor::from_op(data, vec![self.clone()], Box::new(AddScalarBack))
    }

    /// `self * s` where `s` is a learnable `[1, 1]` tensor (e.g. GIN's
    /// `1 + eps`).
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a scalar tensor.
    pub fn scale_by(&self, s: &Tensor) -> Tensor {
        assert_eq!(s.shape(), (1, 1), "scale_by expects a scalar tensor");
        let sv = s.item();
        let data = self.data().map(|v| v * sv);
        record(Kernel::elementwise("scale_by", data.len(), 1, 2));
        Tensor::from_op(data, vec![self.clone(), s.clone()], Box::new(ScaleByBack))
    }

    /// Adds a `[1, F]` bias row to every row of `self [N, F]`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `[1, self.cols]`.
    pub fn add_bias(&self, bias: &Tensor) -> Tensor {
        let b = bias.data();
        let mut data = self.data().clone();
        assert_eq!(b.shape(), (1, data.cols()), "bias shape mismatch");
        for r in 0..data.rows() {
            for (v, &bv) in data.row_mut(r).iter_mut().zip(b.data()) {
                *v += bv;
            }
        }
        record(Kernel::elementwise("add_bias", data.len(), 1, 3));
        Tensor::from_op(
            data,
            vec![self.clone(), bias.clone()],
            Box::new(AddBiasBack),
        )
    }

    /// Multiplies each row of `self [N, F]` by the per-row scalar in
    /// `col [N, 1]` (degree normalization and attention weighting).
    ///
    /// # Panics
    ///
    /// Panics if `col` is not `[self.rows, 1]`.
    pub fn mul_col(&self, col: &Tensor) -> Tensor {
        let c = col.data();
        let mut data = self.data().clone();
        assert_eq!(c.shape(), (data.rows(), 1), "mul_col shape mismatch");
        for r in 0..data.rows() {
            let cv = c.at(r, 0);
            for v in data.row_mut(r) {
                *v *= cv;
            }
        }
        record(Kernel::elementwise("mul_col", data.len(), 1, 3));
        Tensor::from_op(data, vec![self.clone(), col.clone()], Box::new(MulColBack))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: Vec<f32>) -> Tensor {
        Tensor::param(NdArray::from_vec(rows, cols, v))
    }

    #[test]
    fn add_sub_mul_div_values_and_grads() {
        let a = t(1, 3, vec![1., 2., 3.]);
        let b = t(1, 3, vec![4., 5., 6.]);
        assert_eq!(a.add(&b).data().data(), &[5., 7., 9.]);
        assert_eq!(a.sub(&b).data().data(), &[-3., -3., -3.]);
        assert_eq!(a.mul(&b).data().data(), &[4., 10., 18.]);
        let q = a.div(&b);
        assert!((q.data().at(0, 0) - 0.25).abs() < 1e-6);

        let y = a.mul(&b);
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[4., 5., 6.]);
        assert_eq!(b.grad().unwrap().data(), &[1., 2., 3.]);
    }

    #[test]
    fn div_gradients() {
        let a = t(1, 2, vec![2.0, 6.0]);
        let b = t(1, 2, vec![4.0, 3.0]);
        let y = a.div(&b);
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[0.25, 1.0 / 3.0]);
        // d(a/b)/db = -a/b^2
        let db = b.grad().unwrap();
        assert!((db.at(0, 0) - (-2.0 / 16.0)).abs() < 1e-6);
        assert!((db.at(0, 1) - (-6.0 / 9.0)).abs() < 1e-6);
    }

    #[test]
    fn scale_and_add_scalar() {
        let a = t(1, 2, vec![1., -2.]);
        let y = a.scale(3.0).add_scalar(1.0);
        assert_eq!(y.data().data(), &[4., -5.]);
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[3., 3.]);
    }

    #[test]
    fn scale_by_learnable_scalar() {
        let a = t(1, 2, vec![2., 3.]);
        let s = Tensor::param(NdArray::scalar(1.5));
        let y = a.scale_by(&s);
        assert_eq!(y.data().data(), &[3.0, 4.5]);
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[1.5, 1.5]);
        assert_eq!(s.grad().unwrap().item(), 5.0); // sum(x) = 2 + 3
    }

    #[test]
    fn add_bias_broadcasts_and_reduces_grad() {
        let x = t(2, 3, vec![0., 0., 0., 1., 1., 1.]);
        let b = t(1, 3, vec![1., 2., 3.]);
        let y = x.add_bias(&b);
        assert_eq!(y.data().data(), &[1., 2., 3., 2., 3., 4.]);
        y.backward();
        assert_eq!(b.grad().unwrap().data(), &[2., 2., 2.]);
        assert_eq!(x.grad().unwrap().data(), &[1.; 6]);
    }

    #[test]
    fn mul_col_scales_rows() {
        let x = t(2, 2, vec![1., 2., 3., 4.]);
        let c = t(2, 1, vec![10., 100.]);
        let y = x.mul_col(&c);
        assert_eq!(y.data().data(), &[10., 20., 300., 400.]);
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[10., 10., 100., 100.]);
        assert_eq!(c.grad().unwrap().data(), &[3., 7.]);
    }

    #[test]
    #[should_panic(expected = "zip shape mismatch")]
    fn add_shape_mismatch_panics() {
        let a = t(1, 2, vec![0., 0.]);
        let b = t(2, 1, vec![0., 0.]);
        a.add(&b);
    }

    #[test]
    fn ops_record_kernels() {
        let h = gnn_device::session::install(gnn_device::Session::new(
            gnn_device::CostModel::rtx2080ti(),
        ));
        let a = t(4, 4, vec![1.0; 16]);
        let b = t(4, 4, vec![2.0; 16]);
        let y = a.add(&b).mul(&a);
        y.backward();
        let report = gnn_device::session::finish(h);
        assert!(
            report.kernel_count >= 3,
            "fwd add+mul and backward kernels expected"
        );
    }
}

struct MulRowBack;
impl Backward for MulRowBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        record(Kernel::elementwise("mul_row_back", grad.len(), 2, 4));
        let (n, f) = grad.shape();
        if parents[0].needs_grad() {
            let r = parents[1].data();
            let mut da = NdArray::zeros(n, f);
            for row in 0..n {
                let gr = grad.row(row);
                let dar = da.row_mut(row);
                for j in 0..f {
                    dar[j] = gr[j] * r.data()[j];
                }
            }
            accumulate(&parents[0], da);
        }
        if parents[1].needs_grad() {
            let a = parents[0].data();
            let mut dr = NdArray::zeros(1, f);
            for row in 0..n {
                let gr = grad.row(row);
                let ar = a.row(row);
                for j in 0..f {
                    dr.data_mut()[j] += gr[j] * ar[j];
                }
            }
            accumulate(&parents[1], dr);
        }
    }
    fn name(&self) -> &'static str {
        "mul_row"
    }
}

impl Tensor {
    /// Multiplies every row of `self [N, F]` elementwise by `row [1, F]`
    /// (feature-wise scaling, e.g. Gaussian-kernel inverse bandwidths).
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `[1, self.cols]`.
    pub fn mul_row(&self, row: &Tensor) -> Tensor {
        let r = row.data();
        let mut data = self.data().clone();
        assert_eq!(r.shape(), (1, data.cols()), "mul_row shape mismatch");
        for i in 0..data.rows() {
            for (v, &rv) in data.row_mut(i).iter_mut().zip(r.data()) {
                *v *= rv;
            }
        }
        record(Kernel::elementwise("mul_row", data.len(), 1, 3));
        Tensor::from_op(data, vec![self.clone(), row.clone()], Box::new(MulRowBack))
    }
}

#[cfg(test)]
mod mul_row_tests {
    use super::*;

    #[test]
    fn mul_row_values_and_grads() {
        let x = Tensor::param(NdArray::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let r = Tensor::param(NdArray::from_vec(1, 2, vec![10., 100.]));
        let y = x.mul_row(&r);
        assert_eq!(y.data().data(), &[10., 200., 30., 400.]);
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[10., 100., 10., 100.]);
        assert_eq!(r.grad().unwrap().data(), &[4., 6.]);
    }
}
