//! # gnn-core
//!
//! The study itself, as a library: experiment specifications for every
//! table and figure of "Performance Analysis of Graph Neural Network
//! Frameworks" (ISPASS 2021), runners that sweep datasets × models ×
//! frameworks, and plain-text report rendering matching the paper's
//! presentation.
//!
//! | Experiment | Content | Runner |
//! |---|---|---|
//! | Table I    | dataset statistics                          | [`runner::table1`] |
//! | Table IV   | node classification time + accuracy         | [`runner::table4`] |
//! | Table V    | graph classification time + accuracy        | [`runner::table5`] |
//! | Fig. 1/2   | epoch-time breakdown vs batch size           | [`runner::profile_sweep`] |
//! | Fig. 3     | layer-wise execution time of one batch       | [`runner::layer_times`] |
//! | Fig. 4/5   | peak memory and GPU utilization vs batch     | [`runner::profile_sweep`] |
//! | Fig. 6     | multi-GPU epoch time (GCN/GAT on MNIST)      | [`runner::multi_gpu`] |
//!
//! Every runner takes a [`RunConfig`] whose `quick()` preset keeps the full
//! experiment *structure* (all models, both frameworks) at laptop scale,
//! while `paper()` restores the paper's dataset sizes, epoch counts, seeds
//! and folds.
//!
//! # Example
//!
//! ```
//! use gnn_core::{runner, RunConfig};
//!
//! let rows = runner::table1(&RunConfig::smoke());
//! assert_eq!(rows.len(), 5); // Cora, PubMed, ENZYMES, MNIST, DD
//! ```

pub mod config;
pub mod experiments;
pub mod export;
pub mod report;
pub mod runner;
pub mod sweep;

/// The cell catalog every runner here builds from, re-exported for the
/// layers above (`gnn-lint`, `gnn-bench`) that walk the same grid.
pub use gnn_train::cell;

pub use config::{
    ensure_artifact_dir, ensure_artifact_path, validate_artifact_dir, validate_artifact_path,
    ArtifactPathError, RunConfig, TraceConfig,
};
pub use report::render_table;
pub use sweep::{sweep, CellOutcome, CellStatus, SampleRow, SweepOutcome};
