//! # gnn-tensor
//!
//! Dense f32 tensor library with reverse-mode autograd, purpose-built for the
//! GNN framework performance study. It plays the role PyTorch plays under
//! PyG/DGL in the original paper: the numerical substrate both frameworks
//! lower to.
//!
//! Two properties matter for the study:
//!
//! 1. **Real numerics** — models genuinely train; accuracies in the
//!    reproduced tables come from actual gradient descent, not a mock.
//! 2. **Device instrumentation** — every op reports the kernels a GPU
//!    implementation would launch (forward *and* backward) to the
//!    thread-local [`gnn_device::Session`], so the simulated timeline,
//!    memory, and utilization reflect the actual op stream of each
//!    framework.
//!
//! # What the tape keeps
//!
//! A recorded node holds its parent tensors and a [`Backward`] rule, and
//! the rule holds only what it reads that is not a parent: index arrays,
//! shapes, a dropout mask, or its own op's output (sigmoid, tanh, exp,
//! segment softmax, L2 normalization) and batch norm's normalized input.
//! Parent values are borrowed again when the gradient arrives, never
//! copied. Under [`no_grad`] that extra state is not built at all, so an
//! inference op allocates its output and nothing else. [`Tensor::backward`]
//! releases each node as soon as its rule has run, so an intermediate
//! buffer lives exactly until its last consumer's gradient is computed.
//! None of this changes a recorded kernel, a device allocation or a float:
//! it only moves host memory.
//!
//! # Example: one step of logistic regression
//!
//! ```
//! use gnn_tensor::{cross_entropy, NdArray, Tensor};
//!
//! let x = Tensor::new(NdArray::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]));
//! let w = Tensor::param(NdArray::zeros(2, 2));
//! let labels = [0u32, 0, 1, 1];
//!
//! let loss = cross_entropy(&x.matmul(&w), &labels);
//! loss.backward();
//! let grad = w.grad().expect("parameter gradient");
//! w.data_mut().axpy(-0.5, &grad); // SGD step
//! w.zero_grad();
//! ```

pub mod autograd;
mod gemm;
pub mod ndarray;
pub mod nn;
pub mod ops;
pub mod shape_error;

pub use autograd::{accumulate, grad_enabled, inference, no_grad, Backward, Tensor};
pub use ndarray::NdArray;
pub use ops::loss::{accuracy, cross_entropy};
pub use ops::Ids;
pub use shape_error::{ShapeError, ShapeErrorKind};
