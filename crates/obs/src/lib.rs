//! # gnn-obs: structured tracing and run-wide metrics
//!
//! A low-overhead observability layer for the GNN performance study. The
//! rest of the workspace reports what it is doing through the free
//! functions in [`recorder`] ([`span_begin`], [`complete`], [`instant`],
//! [`counter`], [`epoch`], ...); a thread-local [`Collector`] gathers the
//! stream and two exporters turn it into artifacts:
//!
//! - **Chrome trace JSON** ([`chrome`]) — load `trace.json` into
//!   `chrome://tracing` or <https://ui.perfetto.dev> to see training phases,
//!   per-layer scopes, individual kernels, and memory counters on a
//!   timeline.
//! - **JSONL metrics** ([`metrics`]) — `metrics.jsonl` has one record per
//!   training epoch (loss, accuracy, phase breakdown, kernel counts by
//!   kind, peak memory, utilization) for plotting and regression tracking.
//!
//! On top of the stream sit two analysis layers:
//!
//! - **Trace analysis** ([`analysis`]) — reconstructs the critical path of
//!   an epoch or serve run from the recorded events: per-kind device time,
//!   idle, phase spans, hotspots, and serve queue-wait/execute/idle — each
//!   budget summing exactly to its total.
//! - **Metrics registry** ([`registry`]) — typed counters, gauges, and
//!   log-scale latency histograms with exact nearest-rank quantiles,
//!   replacing ad-hoc summary math in train/serve.
//!
//! The Chrome export also parses back ([`parse_chrome_trace`]), so saved
//! traces can be re-analyzed offline with the same code paths.
//!
//! ## Dual timestamps
//!
//! The workspace *simulates* a GPU: kernel durations come from a roofline
//! cost model and elapse on a [`Timeline`] whose clock is independent of
//! the host's. Every event therefore carries **two** timestamps:
//!
//! - `sim` — seconds on the simulated device/host timeline, supplied by
//!   the caller (ultimately from the active `gnn_device::Session`). This
//!   is the clock the study's figures are drawn in, and the one the Chrome
//!   export uses for its time axis.
//! - `wall` — host wall-clock seconds since the collector was installed,
//!   stamped by the collector itself. This measures what the *simulation*
//!   costs to run, and lets the JSONL stream correlate simulated progress
//!   with real elapsed time (e.g. epochs/second of actual compute).
//!
//! The two clocks advance at unrelated rates: a simulated second of GPU
//! work might take microseconds of host time to model. Exports keep both —
//! every Chrome event but a counter puts `wall_s` in its `args`; metrics
//! records carry `sim_time` and `wall_time` side by side.
//!
//! ## No-op guarantee
//!
//! With no collector installed every reporting function returns without
//! observable effect, and — critically — instrumentation never advances or
//! synchronizes the simulated clocks on its own: simulated timestamps are
//! read with non-mutating accessors, so enabling tracing does not perturb
//! the numbers being measured. The integration suite asserts that a traced
//! run and an untraced run produce identical `Session` phase totals.
//!
//! ## Install pattern
//!
//! Same shape as `gnn_device::session`:
//!
//! ```
//! use gnn_obs::{Collector, install, finish, span_begin, span_end};
//!
//! let handle = install(Collector::new());
//! span_begin("phase", "forward", 0.0);
//! span_end("phase", 0.25);
//! let trace = finish(handle);
//! assert_eq!(trace.events.len(), 2);
//! let json = trace.to_chrome_json(); // feed to chrome://tracing
//! ```
//!
//! [`Timeline`]: https://docs.rs/gnn-device
//! [`span_begin`]: recorder::span_begin
//! [`complete`]: recorder::complete
//! [`instant`]: recorder::instant
//! [`counter`]: recorder::counter
//! [`epoch`]: recorder::epoch
//! [`Collector`]: recorder::Collector

pub mod analysis;
pub mod chrome;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod registry;
pub mod whatif;

pub use analysis::{analyze, ServeAttribution, SessionAttribution, TraceAnalysis};
pub use chrome::parse_chrome_trace;
pub use json::Value;
pub use metrics::parse_metrics_jsonl;
pub use recorder::{
    complete, counter, epoch, finish, install, instant, is_active, sched_host, sched_launch,
    sched_sync, session_started, span_begin, span_end, Collector, CollectorHandle, EpochRecord,
    EventKind, Trace, TraceEvent,
};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry};
pub use whatif::{SchedEntry, SchedOp, Speedups};

/// Well-known track names used by the workspace's instrumentation, so the
/// Chrome export groups consistently across crates.
pub mod tracks {
    /// Training-phase spans (data load / forward / backward / update).
    pub const PHASE: &str = "phase";
    /// Individual kernel slices on the simulated device stream.
    pub const KERNELS: &str = "kernels";
    /// Named scopes (per-layer, per-operator).
    pub const SCOPES: &str = "scopes";
    /// Device memory counters.
    pub const MEMORY: &str = "memory";
    /// Training-loop markers (epochs, evaluations).
    pub const TRAIN: &str = "train";
    /// Experiment-runner markers (sweep cells).
    pub const RUNNER: &str = "runner";
    /// Injected-fault markers (`gnn-faults` fire events).
    pub const FAULTS: &str = "faults";
    /// Inference-serving spans and counters (`gnn-serve`: per-request
    /// enqueue→reply spans, per-batch forward slices, queue-depth counters).
    pub const SERVE: &str = "serve";
    /// Fleet-serving markers (`gnn-serve` fleet engine: routing decisions,
    /// sheds, retries, hedges, health ejections/re-admissions, autoscale
    /// events).
    pub const FLEET: &str = "fleet";
    /// Giant-graph sampling markers (`gnn-sample` + sampled loaders:
    /// per-block fan-out instants, feature-cache hit/miss counters,
    /// partition-remote traffic).
    pub const SAMPLE: &str = "sample";
}
