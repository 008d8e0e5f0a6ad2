//! The five workloads. Each is a fixed amount of work per round, driven
//! through the crates' public entry points; each also has an unrolled copy
//! of its entry point's loop, built from public calls only, that the
//! traced run times layer by layer.

pub mod graph;
pub mod node;
pub mod sampled;
pub mod serve;

use std::time::Instant;

use gnn_device::DeviceReport;

use crate::span::Tracer;

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let began = Instant::now();
    let out = f();
    (out, began.elapsed().as_secs_f64())
}

/// Name and one-line reason of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "node_fullbatch",
        "full-graph GCN/GAT epochs on PubMed: one large sparse-input GEMM dominates and the working set is far beyond cache",
    ),
    (
        "graph_minibatch",
        "GIN/MoNet/GatedGCN on ENZYMES at batch 16: thousands of small kernels, so per-op fixed costs and gather/scatter vs fused GSpMM decide",
    ),
    (
        "sampled_rmat",
        "neighbor- and layer-sampled SAGE on a 1M-node RMAT graph: the only user of gnn-sample, the sampled loaders and the feature cache; large set-up",
    ),
    (
        "serve_single",
        "open-loop inference through the single dispatch loop: no tape, no backward, batches of 1 to 8",
    ),
    (
        "serve_fleet",
        "the fleet dispatch loop (router, health, hedging, autoscale, failover) under the canonical fault plan, open and closed loop",
    ),
];

/// The framework a cell runs under; picks the span names its layers get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fw {
    Pyg,
    Dgl,
}

pub const FRAMEWORKS: [Fw; 2] = [Fw::Pyg, Fw::Dgl];

impl Fw {
    pub fn label(self) -> &'static str {
        match self {
            Fw::Pyg => "PyG",
            Fw::Dgl => "DGL",
        }
    }

    fn pick(self, pyg: &'static str, dgl: &'static str) -> &'static str {
        match self {
            Fw::Pyg => pyg,
            Fw::Dgl => dgl,
        }
    }

    pub fn collate(self) -> &'static str {
        self.pick("rustyg.collate", "rgl.collate")
    }

    pub fn forward(self) -> &'static str {
        self.pick("rustyg.forward", "rgl.forward")
    }

    pub fn eval_forward(self) -> &'static str {
        self.pick("rustyg.eval_forward", "rgl.eval_forward")
    }

    pub fn sampled_load(self) -> &'static str {
        self.pick("rustyg.sampled_load", "rgl.sampled_load")
    }
}

/// What one cell run (training) or one serve call returned, reduced to what
/// the checks and the counts need.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRun {
    pub name: String,
    /// Hash of every simulated stat, kernel count and outcome field.
    pub digest: u64,
    /// Whether every returned float was finite.
    pub finite: bool,
    /// Host wall seconds of the run, clocked around the entry-point call.
    pub wall_s: f64,
    /// Simulated seconds the cost model charged.
    pub sim_s: f64,
    /// The workload's items this run covered.
    pub items: u64,
    /// Operations attempted: 1 for a training cell, the requests of a
    /// serve call.
    pub attempted: u64,
    /// Of those, how many failed: requests rejected, shed or dropped. (A
    /// run that fails a check is counted by the checks.)
    pub failed: u64,
    /// Whether `answered + rejected + shed == requests` with none dropped
    /// (always true for training cells).
    pub conserved: bool,
    /// Exact counts from the device reports, labelled "computed".
    pub kernels: u64,
    pub flops: u64,
    pub bytes: u64,
}

impl CellRun {
    /// A training cell from its outcome digest and device report.
    pub fn training(
        name: String,
        digest: &crate::digest::Digest,
        wall_s: f64,
        sim_s: f64,
        items: u64,
        report: &DeviceReport,
    ) -> Self {
        CellRun {
            name,
            digest: digest.finish(),
            finite: digest.all_finite(),
            wall_s,
            sim_s,
            items,
            attempted: 1,
            failed: 0,
            conserved: true,
            kernels: report.kernel_count,
            flops: report.total_flops,
            bytes: report.total_bytes,
        }
    }
}

/// What the unrolled copy of a round saw beyond the cells themselves.
#[derive(Debug, Default)]
pub struct Unrolled {
    pub cells: Vec<CellRun>,
    /// Per cell, the loss of every training step (empty for serve calls).
    pub losses: Vec<Vec<f32>>,
    /// Whether a cell's step losses can be held against each other: every
    /// step sees the same batch (full-graph epochs) or batches large enough
    /// that batch-to-batch noise is far below what training moves (512 seed
    /// nodes). Batches of 16 graphs are not: over 40 seeds the first of six
    /// such losses was the lowest in 6, with training working.
    pub comparable_steps: bool,
    /// Per-layer values the workload reads off its own state instead of off
    /// spans, by metric name.
    pub values: Vec<(&'static str, f64)>,
}

/// One workload: inputs made from the seed in `setup`, then identical
/// rounds.
pub trait Workload: Sized {
    /// Generates inputs and builds everything that outlives a round.
    /// Spans are recorded when `t` is enabled.
    fn setup(seed: u64, t: &Tracer) -> Self;

    /// One round through the crates' entry points.
    fn round(&self) -> Vec<CellRun>;

    /// The same round through the unrolled copy of the entry points' loops.
    fn unrolled(&self, t: &Tracer) -> Unrolled;

    /// Per-layer values that need rounds of their own, given the median
    /// wall seconds of an entry-point round.
    fn extra_layers(&self, _entry_round_s: f64) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}
