//! Simulated GPU device model for the GNN framework performance study.
//!
//! The original paper ("Performance Analysis of Graph Neural Network
//! Frameworks", ISPASS 2021) profiles CUDA kernels on an NVIDIA RTX 2080Ti
//! with `nvprof`/Nsight and reads GPU memory from `nvidia-smi`. This crate is
//! the substitute substrate: a deterministic, analytical device model that the
//! tensor engine (`gnn-tensor`) reports every kernel launch, host-side
//! operation, and memory allocation to.
//!
//! The key property is that **kernel counts, kinds, and shapes are real** —
//! they are emitted by the actual Rust execution of each model under each
//! framework — and only their *durations* come from a roofline cost model
//! calibrated once against the 2080Ti. Utilization, memory, and time-breakdown
//! results are therefore structural consequences of how each framework
//! executes, not hard-coded numbers.
//!
//! # Architecture
//!
//! - [`kernel::Kernel`] — a device kernel launch descriptor (kind, flops, bytes).
//! - [`cost::CostModel`] — roofline timing: `launch + max(flops/peak, bytes/bw)`.
//! - [`counters`] — analytical hardware counters per launch: FLOPs, split
//!   DRAM traffic, arithmetic intensity, boundness, and attained roofline
//!   fraction; each kind's read/write split is one arm of an exhaustive match.
//! - [`timeline::Timeline`] — a single-stream execution timeline with a host
//!   clock and a device-free clock; tracks busy time for utilization.
//! - [`memory::MemoryTracker`] — a caching-allocator-style tracker with
//!   persistent (parameter) and per-step (activation) segments and peak watermark.
//! - [`session::Session`] — combines the above with training-phase attribution
//!   (data loading / forward / backward / update / other) and named layer scopes.
//! - [`multi`] — PCIe transfer model and `DataParallel`-style multi-GPU epoch
//!   composition used by the Fig. 6 reproduction.
//!
//! # Example
//!
//! ```
//! use gnn_device::{session, CostModel, Kernel, Phase, Session};
//!
//! let s = session::install(Session::new(CostModel::rtx2080ti()));
//! session::set_phase(Phase::Forward);
//! session::record(Kernel::gemm("linear", 1024, 256, 128));
//! session::set_phase(Phase::Other);
//! let report = session::finish(s);
//! assert_eq!(report.kernel_count, 1);
//! assert!(report.phase_time(Phase::Forward) > 0.0);
//! ```

pub mod cost;
pub mod counters;
pub mod feature_cache;
pub mod kernel;
pub mod memory;
pub mod multi;
pub mod pipeline;
pub mod session;
pub mod timeline;

pub use cost::{
    component_label, kind_index, CostModel, Speedups, COMPONENT_HOST, COMPONENT_LAUNCH,
    PRICED_KINDS, WHATIF_COMPONENTS,
};
pub use counters::{read_fraction, Bound, KernelCounters};
pub use feature_cache::{FeatureCache, FetchStats};
pub use kernel::{Kernel, KernelKind};
pub use memory::MemoryTracker;
pub use multi::{DataParallel, MultiGpuError, PcieModel, StepCost};
pub use session::{
    default_cost_model, with_default_cost_model, DeviceReport, KindProfile, Phase, Session,
    SessionError,
};
pub use timeline::Timeline;

/// Convenience re-export of the free functions that tensor/framework code
/// calls on the thread-local session. All of them are no-ops when no session
/// is installed, so library code can be instrumented unconditionally.
pub use session::{alloc, free, host, record, scope, set_phase, sim_now, traced, with};
