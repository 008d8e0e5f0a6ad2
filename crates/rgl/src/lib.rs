//! # rgl — the DGL-like framework
//!
//! The second GNN framework under study, architected after Deep Graph
//! Library, with the three structural properties the paper traces DGL's
//! performance profile to:
//!
//! 1. **Heterograph generality.** Every batch is wrapped as a typed
//!    heterograph even when the data is homogeneous: node/edge type arrays
//!    are materialized, ids are remapped per type, and the COO topology is
//!    converted to CSC — "although graphs in dataset ENZYMES and DD are not
//!    heterogeneous graphs, all graphs are treated as heterogeneous graphs
//!    during data processing, which brings extra-time loss" (Section IV-C).
//!    The collation path also cannot use the backend's native data ops
//!    (DGL supports multiple DNN backends), so it pays a lower host copy
//!    bandwidth. See [`loader`] and [`costs`].
//! 2. **Fused generalized kernels.** Message passing lowers onto
//!    [`kernels::gspmm_copy_sum`] / [`kernels::gspmm_mul_sum`] (message +
//!    aggregate fused into one kernel) and [`kernels::gsddmm_u_add_v`]
//!    (per-edge binary ops), each paying a framework dispatch cost on the
//!    host. These are DGL's lowerings of the `gnn_tensor::mp` kernels, which
//!    compute `rustyg`'s sums too: the framework decides what is recorded,
//!    `mp` how it is computed. Fewer, fatter kernels than `rustyg`'s gather/scatter — but more
//!    surrounding normalization ops per layer (e.g. [`GraphConv`]'s pre- and
//!    post-norm, Section IV-C).
//! 3. **Mandatory edge state in GatedGCN.** [`GatedGcnConv`] updates an
//!    explicit `[E, F]` edge-feature tensor through a fully connected layer
//!    every layer — the paper's explanation for GatedGCN-under-DGL being
//!    ~2× slower and far more memory-hungry than under PyG.
//!
//! # Example
//!
//! ```
//! use gnn_datasets::TudSpec;
//! use rand::SeedableRng;
//!
//! let ds = TudSpec::enzymes().scaled(0.05).generate(0);
//! let loader = rgl::DataLoader::new(&ds);
//! let batch = loader.load(&[0, 1, 2]);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let conv = rgl::GraphConv::new(18, 32, &mut rng);
//! let h = conv.forward(&batch, &batch.x, true);
//! assert_eq!(h.shape().1, 32);
//! ```

pub mod batch;
pub mod conv;
pub mod costs;
pub mod kernels;
pub mod loader;
pub mod pool;
pub mod sampled;

pub use batch::HeteroBatch;
pub use conv::{GatConv, GatedGcnConv, GinConv, GraphConv, MoNetConv, SageConv};
pub use loader::DataLoader;
pub use pool::{segment_max_pool, segment_mean_pool, segment_sum_pool};
