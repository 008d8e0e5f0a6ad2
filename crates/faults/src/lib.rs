//! # gnn-faults: deterministic fault injection for the GNN study
//!
//! Long benchmarking campaigns die in the worst possible way: hours into a
//! 60-cell sweep, one device OOM or NaN loss aborts the whole process and
//! leaves no artifacts. This crate provides the *controlled* version of
//! those failures so the rest of the workspace can practice surviving them:
//!
//! - A [`FaultPlan`] is a **seeded, deterministic schedule** of faults —
//!   "the 120th device allocation fails", "kernel launch 300 is corrupt",
//!   "replica 2 dies at data-parallel step 3", "the training loss at epoch
//!   2 is poisoned to NaN", "serving shard 1 is blacked out over simulated
//!   seconds [0.03, 0.09)". No wall-clock randomness anywhere: the same
//!   plan and workload always produce the same faults at the same
//!   simulated instants. Fleet-level kinds
//!   ([`FaultKind::ShardBlackout`], [`FaultKind::NetStraggler`]) trigger on
//!   simulated-time windows instead of counters — the serve clock is
//!   deterministic, so the triggers still are.
//! - A thread-local [`Injector`] (install pattern identical to
//!   `gnn_device::session` / `gnn_obs`) is consulted by hooks inside the
//!   *real* code paths: `gnn_device::Session::{alloc, record}`, the
//!   `gnn-train` loss computation, and the `gnn-serve` dispatch loop. With
//!   no injector installed every hook is a no-op, so production runs pay a
//!   thread-local read per hook and nothing else.
//! - Faults that model asynchronous device errors (OOM, kernel faults) use
//!   **sticky-error semantics** like CUDA: the hook records a pending
//!   [`Fault`] and execution continues until the supervisor synchronizes
//!   with [`take_pending`] at a step boundary.
//!
//! Every fired fault is appended to the injector's [`FaultLog`] and emitted
//! as an instant event on the `faults` track of the `gnn-obs` trace, so
//! Chrome traces show exactly where a run was perturbed.
//!
//! The supervision layer that consumes these faults — retry with backoff,
//! checkpoint/resume, batch halving — lives in `gnn_train::supervisor`;
//! serving sheds a failed replica in `gnn_serve`'s dispatch loop; the sweep
//! isolation that turns per-cell failures into `CellOutcome` records lives
//! in `gnn_core::runner`.

pub mod inject;
pub mod plan;

pub use inject::{
    events_since, finish, install, is_active, on_alloc, on_dp_step, on_kernel, poison_loss,
    set_cell, set_epoch, shard_down, shard_net_factor, take_pending, Fault, FaultEvent, FaultLog,
    Injector, InjectorHandle,
};
pub use plan::{FaultKind, FaultPlan, FaultSpec, PlanParseError};
