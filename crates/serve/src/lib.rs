//! `gnn-serve`: batched, fault-tolerant inference serving for the GNN
//! framework study.
//!
//! The training side of this repository reproduces the paper's sweep; this
//! crate closes the loop by *serving* those models. Every one of the 60
//! sweep cells is an addressable endpoint ([`CellId`] — the sweep's own
//! address, re-exported from the cell catalog in [`gnn_train::cell`]); an
//! immutable [`ModelRegistry`] builds each endpoint's dataset and
//! architecture with the catalog code the sweep trains with and pours
//! `gnn-ckpt v1` checkpoint weights back in via
//! [`gnn_train::Checkpoint::load_params`]. A seeded open-loop client
//! workload ([`workload::generate`]) flows through a dynamic batcher
//! ([`BatchPolicy`]: max-batch-size + max-queue-delay over bounded queues
//! with typed [`ServeError::Overloaded`] backpressure) onto simulated
//! device replicas; forwards run in [`gnn_tensor::inference`] mode through
//! the frameworks' real batch-collation paths.
//!
//! Everything is deterministic: same config + same seed → bit-identical
//! replies, latencies, and `serve_metrics.csv` — including under armed
//! `gnn-faults` plans, because the engine's fault tolerance (OOM
//! split-and-retry, kernel retry, replica shedding) preserves outputs and
//! answers every request. See [`engine::serve`] for the entry point and
//! [`ServeReport`] for what a run yields; the `gnn-bench serve` binary
//! sweeps batching policies across endpoints from the command line.
//!
//! There is **one dispatch loop** (the private `dispatch` module) and two
//! constructors of it. [`engine::serve`] plays a [`ServeConfig`] as a
//! one-shard fleet with every policy off; [`fleet::serve_fleet`] plays a
//! [`FleetConfig`] with them on: a deterministic router ([`Router`]:
//! consistent hashing or least-loaded), health checking with ejection and
//! re-admission ([`HealthPolicy`]), per-shard admission control with typed
//! [`ServeError::Shed`], token-bucket retry budgets and hedged requests
//! (extra work provably ≤ `(1 + budget) × submitted`), and
//! queue-depth-driven replica autoscaling ([`AutoscalePolicy`]) — all on
//! the same serve clock, all bit-reproducible, all surviving `gnn-faults`
//! shard blackouts and network stragglers. The two differ in their inputs,
//! not in which loop ran them; [`whatif::predict`] rides the same loop
//! with replayed service times. Configuration errors are typed
//! ([`ServeConfigError`], [`WorkloadError`]) at construction time.

#![warn(missing_docs)]

pub mod autoscale;
pub mod batcher;
pub mod cell;
mod dispatch;
pub mod engine;
pub mod error;
pub mod fleet;
pub mod health;
pub mod metrics;
pub mod registry;
pub mod router;
pub mod whatif;
pub mod workload;

pub use autoscale::{AutoscalePolicy, Autoscaler, ScaleAction};
pub use batcher::{BatchPolicy, EndpointQueue, Pending, ServeError};
pub use cell::{
    default_endpoints, sample_dataset, CellId, TaskKind, GRAPH_DATASETS, NODE_DATASETS,
};
pub use engine::{serve, ServeConfig, MAX_KERNEL_RETRIES};
pub use error::ServeConfigError;
pub use fleet::{serve_fleet, FleetConfig, FleetWorkload};
pub use health::{HealthPolicy, HealthState, HealthTransition};
pub use metrics::{
    percentile, BatchRecord, FleetStats, MetricsRow, Outcome, QueueStats, RequestRecord,
    ServeReport, SERVE_METRICS, SERVE_METRICS_SCHEMA,
};
pub use registry::{argmax, Endpoint, ModelRegistry, SERVE_SAMPLE_SALT};
pub use router::{Router, RoutingPolicy};
pub use whatif::predict;
pub use workload::{ClosedLoop, Request, WorkloadError, WorkloadKind, WorkloadSpec};
