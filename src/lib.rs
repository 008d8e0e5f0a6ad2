//! # gnn-suite
//!
//! A full Rust reproduction of **"Performance Analysis of Graph Neural
//! Network Frameworks"** (Wu, Sun, Sun & Sun, ISPASS 2021): six GNN models
//! (GCN, GIN, GraphSAGE, GAT, MoNet, GatedGCN) trained on five datasets
//! (Cora, PubMed, ENZYMES, DD, MNIST-superpixels) under two GNN frameworks
//! with deliberately different architectures, profiled for training time,
//! epoch-time breakdown, layer-wise time, peak memory, GPU utilization, and
//! multi-GPU scaling.
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`tensor`] — dense f32 autograd engine instrumented for the device model
//! - [`device`] — simulated GPU: roofline cost model, timeline, memory,
//!   `DataParallel` multi-GPU composition
//! - [`graph`] — COO/CSC topology, disjoint-union batching, k-NN builder
//! - [`datasets`] — synthetic generators matched to the paper's Table I
//! - [`pyg`] — `rustyg`, the PyG-like framework (gather/scatter, cheap
//!   collation)
//! - [`dgl`] — `rgl`, the DGL-like framework (heterograph wrapper, fused
//!   GSpMM/GSDDMM, segment pooling)
//! - [`models`] — the six architectures under both frameworks (Tables II/III)
//! - [`train`] — Adam, plateau decay, node/graph task loops, multi-GPU
//! - [`core`] — experiment runners and report rendering for every
//!   table/figure
//! - [`obs`] — structured tracing (Chrome trace-event export) and run
//!   metrics
//! - [`faults`] — deterministic fault injection and the chaos suite
//! - [`lint`] — ahead-of-run static analysis of the configured sweep
//! - [`serve`] — batched, fault-tolerant inference serving over trained
//!   checkpoints
//!
//! # Quickstart
//!
//! ```
//! use gnn_suite::core::{export, runner, RunConfig};
//!
//! // Regenerate Table I at smoke scale and print it as `gnn-bench table1` does.
//! let stats = runner::table1(&RunConfig::smoke());
//! print!("{}", export::TABLE1.text(&stats));
//! ```
//!
//! The `gnn-bench` executable has one command per table/figure; see the
//! README for the full reproduction recipe.

pub use gnn_core as core;
pub use gnn_datasets as datasets;
pub use gnn_device as device;
pub use gnn_faults as faults;
pub use gnn_graph as graph;
pub use gnn_lint as lint;
pub use gnn_models as models;
pub use gnn_obs as obs;
pub use gnn_serve as serve;
pub use gnn_tensor as tensor;
pub use gnn_train as train;
pub use rgl as dgl;
pub use rustyg as pyg;
