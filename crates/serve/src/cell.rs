//! Endpoint addressing: every (experiment, dataset, model, framework) cell
//! of the paper's sweep is a servable endpoint.
//!
//! An endpoint's address *is* its training cell's — the same
//! [`CellId`](gnn_train::cell::CellId) from the catalog the sweep builds
//! from — so a serving run names exactly the checkpoints a training sweep
//! wrote, and trace / fault events attribute to the same paths across
//! subsystems. This module re-exports the catalog's address.

pub use gnn_train::cell::{
    default_endpoints, sample_dataset, CellError, CellId, TaskKind, GRAPH_DATASETS, NODE_DATASETS,
};
