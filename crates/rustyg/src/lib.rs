//! # rustyg — the PyG-like framework
//!
//! One of the two GNN frameworks under study, architected after PyTorch
//! Geometric:
//!
//! - **Message passing as gather → edge-compute → scatter** over flat COO
//!   index arrays ([`Batch::src`]/[`Batch::dst`]): that is what the
//!   simulated device records, per-edge `[E, F]` tensors included — PyG's
//!   `MessagePassing` lowering onto `index_select`/`scatter_add`
//!   ([`message`]). The host computes the same sums, bit for bit, on the
//!   fused `gnn_tensor::mp` kernels over [`Batch::csc`]: the lowering decides
//!   what is recorded, `mp` how it is computed.
//! - **Zero-overhead mini-batching**: a batch of graphs is collated by plain
//!   concatenation with offset edge indices — the "advanced mini-batching
//!   strategy in which there is no computational or memory overhead" the
//!   paper credits to PyG (Fey & Lenssen).
//! - **Scatter-based pooling**: readout is `scatter_add` + count division,
//!   PyG's `global_mean_pool` on top of the torch scatter API.
//!
//! Six conv layers mirror `torch_geometric.nn`: [`GcnConv`], [`SageConv`],
//! [`GinConv`], [`GatConv`], [`MoNetConv`], and [`GatedGcnConv`] (the PyG
//! GatedGCN keeps no explicit edge-feature state — the paper's Section IV-A
//! observation 3).
//!
//! # Example
//!
//! ```
//! use gnn_datasets::TudSpec;
//! use rand::SeedableRng;
//!
//! let ds = TudSpec::enzymes().scaled(0.05).generate(0);
//! let loader = rustyg::DataLoader::new(&ds);
//! let batch = loader.load(&[0, 1, 2]);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let conv = rustyg::GcnConv::new(18, 32, &mut rng);
//! let h = conv.forward(&batch, &batch.x, true);
//! assert_eq!(h.shape().1, 32);
//! ```

pub mod batch;
pub mod cached;
pub mod conv;
pub mod costs;
pub mod loader;
pub mod message;
pub mod pool;
pub mod sampled;

pub use batch::Batch;
pub use cached::CachedLoader;
pub use conv::{GatConv, GatedGcnConv, GcnConv, GinConv, MoNetConv, SageConv};
pub use loader::DataLoader;
pub use pool::{global_max_pool, global_mean_pool, global_sum_pool};
