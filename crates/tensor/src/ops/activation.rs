//! Pointwise nonlinearities.

use gnn_device::{record, Kernel};

use crate::autograd::{accumulate, records, Backward, Tensor};
use crate::ndarray::NdArray;

/// Backward rule of a pointwise op whose derivative is computed from the
/// forward *output* (`y`): sigmoid, tanh, exp. The output is not a parent,
/// so it is saved — and copied only when the node is recorded.
struct FromOutputBack {
    y: NdArray,
    dydx_from_y: fn(f32) -> f32,
    op: &'static str,
}

impl Backward for FromOutputBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        record(Kernel::elementwise(self.op, grad.len(), 2, 3));
        accumulate(
            &parents[0],
            grad.zip(&self.y, |g, y| g * (self.dydx_from_y)(y)),
        );
    }
    fn name(&self) -> &'static str {
        self.op
    }
}

/// Backward rule of a pointwise op whose derivative is computed from the
/// forward *input* (`x`, the parent): relu, leaky-relu, log.
struct FromInputBack {
    dydx_from_x: Box<dyn Fn(f32) -> f32>,
    op: &'static str,
}

impl Backward for FromInputBack {
    fn backward(&self, grad: &NdArray, parents: &[Tensor]) {
        record(Kernel::elementwise(self.op, grad.len(), 2, 3));
        accumulate(
            &parents[0],
            grad.zip(&parents[0].data(), |g, x| g * (self.dydx_from_x)(x)),
        );
    }
    fn name(&self) -> &'static str {
        self.op
    }
}

fn unary_from_output(
    x: &Tensor,
    f: fn(f32) -> f32,
    dydx_from_y: fn(f32) -> f32,
    op: &'static str,
) -> Tensor {
    let y = x.data().map(f);
    record(Kernel::elementwise(op, y.len(), 2, 2));
    let saved = if records([x]) {
        y.clone()
    } else {
        NdArray::default()
    };
    Tensor::from_op(
        y,
        vec![x.clone()],
        Box::new(FromOutputBack {
            y: saved,
            dydx_from_y,
            op,
        }),
    )
}

fn unary_from_input(
    x: &Tensor,
    f: impl Fn(f32) -> f32,
    dydx_from_x: Box<dyn Fn(f32) -> f32>,
    op: &'static str,
) -> Tensor {
    let y = x.data().map(f);
    record(Kernel::elementwise(op, y.len(), 2, 2));
    Tensor::from_op(
        y,
        vec![x.clone()],
        Box::new(FromInputBack { dydx_from_x, op }),
    )
}

impl Tensor {
    /// Rectified linear unit `max(x, 0)`.
    pub fn relu(&self) -> Tensor {
        // `x > 0` exactly when `max(x, 0) > 0` (NaN included), so reading
        // the derivative off the input gives the same bits as off the output.
        unary_from_input(
            self,
            |x| x.max(0.0),
            Box::new(|x| if x > 0.0 { 1.0 } else { 0.0 }),
            "relu",
        )
    }

    /// Leaky ReLU with negative slope `slope` (GAT uses 0.2).
    pub fn leaky_relu(&self, slope: f32) -> Tensor {
        unary_from_input(
            self,
            |v| if v > 0.0 { v } else { slope * v },
            Box::new(move |v| if v > 0.0 { 1.0 } else { slope }),
            "leaky_relu",
        )
    }

    /// Logistic sigmoid `1 / (1 + e^-x)`.
    pub fn sigmoid(&self) -> Tensor {
        unary_from_output(
            self,
            |x| 1.0 / (1.0 + (-x).exp()),
            |y| y * (1.0 - y),
            "sigmoid",
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh_act(&self) -> Tensor {
        unary_from_output(self, f32::tanh, |y| 1.0 - y * y, "tanh")
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        unary_from_output(self, f32::exp, |y| y, "exp")
    }

    /// Elementwise natural logarithm.
    pub fn log(&self) -> Tensor {
        unary_from_input(self, f32::ln, Box::new(|v| 1.0 / v), "log")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::param(NdArray::from_vec(1, n, v))
    }

    #[test]
    fn relu_forward_backward() {
        let x = t(vec![-1.0, 0.0, 2.0]);
        let y = x.relu();
        assert_eq!(y.data().data(), &[0.0, 0.0, 2.0]);
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_slope() {
        let x = t(vec![-2.0, 3.0]);
        let y = x.leaky_relu(0.2);
        let yd: Vec<f32> = y.data().data().to_vec();
        assert!((yd[0] + 0.4).abs() < 1e-6);
        assert_eq!(yd[1], 3.0);
        y.backward();
        let g = x.grad().unwrap();
        assert!((g.data()[0] - 0.2).abs() < 1e-6);
        assert_eq!(g.data()[1], 1.0);
    }

    #[test]
    fn sigmoid_matches_closed_form_grad() {
        let x = t(vec![0.0, 1.0, -1.0]);
        let y = x.sigmoid();
        assert!((y.data().data()[0] - 0.5).abs() < 1e-6);
        y.backward();
        let g = x.grad().unwrap();
        // sigmoid'(0) = 0.25
        assert!((g.data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_grad() {
        let x = t(vec![0.5]);
        let y = x.tanh_act();
        y.backward();
        let expect = 1.0 - 0.5f32.tanh().powi(2);
        assert!((x.grad().unwrap().data()[0] - expect).abs() < 1e-6);
    }

    #[test]
    fn exp_log_roundtrip_grads() {
        let x = t(vec![0.7]);
        let y = x.exp().log(); // identity
        assert!((y.data().data()[0] - 0.7).abs() < 1e-5);
        y.backward();
        assert!((x.grad().unwrap().data()[0] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn numeric_gradcheck_sigmoid_chain() {
        let v = vec![0.3, -0.6, 1.2];
        let x = t(v.clone());
        // f = sum(sigmoid(relu(x)))
        let y = x.relu().sigmoid();
        y.backward();
        let analytic = x.grad().unwrap();
        let f = |vals: &[f32]| -> f32 {
            vals.iter()
                .map(|&a| 1.0 / (1.0 + (-a.max(0.0)).exp()))
                .sum()
        };
        let eps = 1e-3;
        for i in 0..v.len() {
            let mut up = v.clone();
            up[i] += eps;
            let mut dn = v.clone();
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
