//! `gnn-lint`: ahead-of-run static analysis for the GNN framework study.
//!
//! A full paper sweep trains 60 (model, dataset, framework) cells for
//! minutes to hours; a shape mismatch in layer 3, an out-of-bounds edge
//! index, or a frozen parameter surfaces only deep into that run — or
//! worse, never (a dead parameter just silently degrades accuracy). This
//! crate verifies the whole configured run *before execution*:
//!
//! - **Shape/dtype inference** ([`ir`], [`lower`]): every model × framework
//!   [`StackPlan`] — the plan `gnn_models::build` instantiates — is lowered
//!   and replayed symbolically (node counts stay symbolic, widths
//!   concrete) and each op's shape rule is checked, with diagnostics
//!   rendered through the same [`gnn_tensor::ShapeError`] the runtime
//!   panics with.
//! - **Index safety** ([`index_check`]): edge indices, split indices,
//!   labels, and batching offsets of the generated datasets are proven
//!   in-bounds for the kernels that will consume them.
//! - **Autograd tape audit** ([`tape`]): detects dead (frozen or
//!   disconnected) parameters and backwards that can never run.
//! - **Fault-plan audit** ([`fault_plan`]): armed chaos campaigns are
//!   checked for specs that can never fire under the configured run
//!   (zero triggers on 1-based counters, poisonings past the last epoch,
//!   replica failures on GPUs no experiment creates) or can never be
//!   survived (a memory limit of zero, or one below the certified
//!   persistent footprint of the largest cell).
//! - **Serve-config audit** ([`serve_check`]): inference-serving runs
//!   are reported against the engine's own rules
//!   (`ServeConfig::violations`), plus warnings for batching policies that
//!   can never fire (zero delay with a batch size above one, batch sizes
//!   beyond the dataset's admissible targets), endpoints naming unknown
//!   cells, and policies whose `max_batch` cannot fit one replica
//!   session's certified inference footprint.
//! - **Sample-config audit** ([`sample_check`]): every rule a giant-graph
//!   sampling spec breaks (`SampleSpec::violations`) is reported at once,
//!   before any RMAT graph is generated; sampled cells are then lowered
//!   through the same IR and memory-certified at their fan-out union
//!   bounds ([`lint_sample_spec`], shared with `gnn-bench sample --lint`).
//! - **Fleet-config audit** ([`fleet_check`]): sharded serving runs are
//!   reported against the fleet engine's own rules
//!   (`FleetConfig::violations`), plus warnings for retry budgets above 1
//!   that let recovery traffic amplify a brownout and health thresholds
//!   whose ejection horizon reaches the workload's simulated length
//!   (failover becomes dead code under test), and fleet fault specs
//!   (`blackout`, `netslow`) naming shards the fleet does not have or
//!   windows that can never fire.
//! - **Memory certification** ([`memory`], [`liveness`]): every cell's
//!   lowering is priced allocation-by-allocation into a closed-form
//!   symbolic peak-memory expression (forward activations, autograd-saved
//!   tensors, parameters, optimizer state), evaluated against the
//!   datasets' concrete sizes. Cells that provably cannot fit a device,
//!   and fault-plan memory ceilings that admit no batch size under the
//!   supervisor's batch-halving degradation, are rejected statically; the
//!   full per-cell table exports as `memory.json` next to `lint.json`.
//!
//! Entry points: [`run::lint_run`] / [`run::lint_run_with_memory`] (the
//! `--lint` gate of the `gnn-bench` commands, and `gnn-bench lint`, the
//! standalone analyzer), and the per-pass APIs for tests. Machine-readable findings land in
//! `lint.json` next to the `gnn-obs` trace artifacts (see the README's
//! findings-format reference).

pub mod fault_plan;
pub mod fleet_check;
pub mod index_check;
pub mod ir;
pub mod liveness;
pub mod lower;
pub mod memory;
pub mod report;
pub mod run;
pub mod sample_check;
pub mod serve_check;
pub mod tape;

pub use fault_plan::{check_fault_plan, check_memory_ceilings};
pub use fleet_check::{check_fleet_config, check_fleet_fault_plan};
pub use gnn_models::build::{LayerPlan, StackPlan, Task};
pub use ir::{DType, GraphBuilder, OpGraph, Rows, SymShape};
pub use lower::lower_stack;
pub use memory::{
    certify_graph_cell, certify_node_cell, certify_sample_cell, footprint, CellCert, CellFootprint,
    MemExpr, MemVerdict, MemoryReport,
};
pub use report::{Finding, FindingKind, LintReport};
pub use run::{certify_run, lint_run, lint_run_with_memory, lint_sample_spec};
pub use sample_check::{check_sample_spec, resolve_sample_specs};
pub use serve_check::{check_replica_memory, check_serve_config};
pub use tape::audit_tape;
