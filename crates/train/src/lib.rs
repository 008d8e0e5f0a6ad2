//! # gnn-train
//!
//! The training harness of the study: [`Adam`] with the paper's
//! plateau-decay schedule ([`ReduceLrOnPlateau`]), the full-batch
//! node-classification loop (Section IV-A: max 200 epochs on Cora/PubMed),
//! the mini-batch graph-classification loop (Section IV-B: batch 128,
//! stratified 10-fold CV, lr halved on 25-epoch validation plateaus until
//! 1e-6), per-phase epoch profiling (data loading / forward / backward /
//! update / other — the categories of Figs. 1–2), and the
//! `DataParallel`-style multi-GPU epoch composition behind Fig. 6.
//!
//! All loops are generic over the framework through
//! [`gnn_models::ModelBatch`] / [`gnn_models::Loader`], so the *same* code
//! trains a model under either framework — mirroring the paper's controlled
//! comparison ("we make sure that the key properties of the training
//! algorithm are the same across implementations").
//!
//! There is one loop per task kind — [`run_node_task_supervised`],
//! [`run_graph_fold_supervised`], [`run_sampled_task_supervised`] — driving
//! the shared run state of [`supervisor`] (retry, roll-back, batch halving,
//! checkpoint/resume, per-epoch metrics). [`run_node_task`],
//! [`run_graph_fold`] and [`run_sampled_task`] are those loops under
//! `Supervisor::default()` with the [`TrainError`] turned into a panic, so
//! two runs differ in their inputs and policy, never in which loop ran
//! them. `tests/training_golden.rs` at the workspace root pins all of them
//! across commits.

pub mod cell;
pub mod checkpoint;
mod epoch_trace;
pub mod graph_task;
pub mod metrics;
pub mod multi_gpu;
pub mod node_task;
pub mod optim;
pub mod sampled_task;
pub mod scheduler;
pub mod supervisor;

pub use checkpoint::Checkpoint;
pub use graph_task::{
    run_cross_validation, run_graph_fold, CvOutcome, FoldOutcome, GraphTaskConfig,
};
pub use metrics::{mean_std, Summary};
pub use multi_gpu::{
    data_parallel_epoch_time, data_parallel_epoch_time_supervised, MultiGpuConfig,
};
pub use node_task::{run_node_task, NodeOutcome, NodeTaskConfig};
pub use optim::Adam;
pub use sampled_task::{
    run_sampled_task, SampledLoader, SampledTaskConfig, EVAL_SALT, TEST_POOL_SALT, TRAIN_POOL_SALT,
    VAL_POOL_SALT,
};
pub use scheduler::ReduceLrOnPlateau;
pub use supervisor::{
    run_graph_fold_supervised, run_node_task_supervised, run_sampled_task_supervised, Supervised,
    Supervisor, TrainError,
};
