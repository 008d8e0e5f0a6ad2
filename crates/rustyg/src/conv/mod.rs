//! The six conv layers of the study, PyG style.
//!
//! Every layer records message passing as the gather/scatter primitives
//! (`index_select` + `scatter_add`, the lowerings of [`crate::message`])
//! and computes it on `gnn_tensor::mp`'s fused kernels, pays the Python
//! dispatch overhead [`crate::costs::LAYER_OVERHEAD`] once per forward, and
//! exposes `forward(&Batch, &Tensor, training) -> Tensor` plus `params()`.

mod gat;
mod gated;
mod gcn;
mod gin;
mod monet;
mod sage;

pub use gat::GatConv;
pub use gated::GatedGcnConv;
pub use gcn::GcnConv;
pub use gin::GinConv;
pub use monet::MoNetConv;
pub use sage::SageConv;
