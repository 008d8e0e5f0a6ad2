//! The six conv layers of the study, DGL style.
//!
//! Every layer lowers message passing onto the fused [`crate::kernels`]
//! (GSpMM/GSDDMM/edge-softmax, computed by `gnn_tensor::mp`), pays the heavier DGL dispatch overhead
//! [`crate::costs::LAYER_OVERHEAD`] per forward, and exposes
//! `forward(&HeteroBatch, &Tensor, training) -> Tensor` plus `params()`.
//!
//! Architectural differences from the `rustyg` counterparts — all taken
//! from the paper's Section IV-C observations:
//!
//! - [`GraphConv`] normalizes node features **before and after** the fused
//!   aggregation ("the node features are normalized before and after
//!   updating by the key operations").
//! - [`GatConv`] spends extra operations computing attention ("computing
//!   attention parameters for GAT in DGL takes more time than PyG"),
//!   although its fused aggregation kernel itself is cheaper.
//! - [`GatedGcnConv`] maintains and updates an explicit `[E, F]`
//!   edge-feature tensor through a fully connected layer every layer.

mod gat;
mod gated;
mod gcn;
mod gin;
mod monet;
mod sage;

pub use gat::GatConv;
pub use gated::GatedGcnConv;
pub use gcn::GraphConv;
pub use gin::GinConv;
pub use monet::MoNetConv;
pub use sage::SageConv;
