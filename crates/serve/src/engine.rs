//! The single engine: [`ServeConfig`], its thin constructors of the one
//! dispatch loop (`dispatch.rs`), and the fault-surviving batch executor.
//!
//! [`serve`], [`run`] and the what-if profiler's `run_with` play a
//! [`ServeConfig`] in *single mode*: one shard, no router, no probes, no
//! hedging, no autoscaling, no admission cap, zero retry budget, zero net
//! delay. A single-engine run is a one-shard fleet with every policy off,
//! reported as `routing: "single"` with no fleet counters.
//!
//! A dispatched batch installs a fresh `gnn-device` session and runs the
//! endpoint's forward in inference mode; the session's `total_time` is the
//! batch's service time. Every source of time (arrivals, cost model, fault
//! plan) is seeded or analytic, so a rerun of the same [`ServeConfig`]
//! reproduces every reply bit-identically — also under a `gnn-faults` plan:
//!
//! - **OOM on a batch** → split-and-retry: each half re-executes in its
//!   own session, recursively down to single requests. Eval-mode outputs
//!   do not depend on batch composition, so only timing and the split
//!   counters change.
//! - **Kernel fault** → retried in place up to [`MAX_KERNEL_RETRIES`]
//!   times, then accepted with a note.
//! - **Replica failure** (`on_dp_step`) → the replica is marked dead and
//!   later batches go to the survivors. The last replica refuses to die.

use std::path::PathBuf;

use gnn_device::{CostModel, Session};
use gnn_faults::Fault;

use crate::batcher::BatchPolicy;
use crate::cell::{default_endpoints, CellId};
use crate::dispatch::{simulate, Plan};
use crate::error::ServeConfigError;
use crate::metrics::ServeReport;
use crate::registry::{Endpoint, ModelRegistry};
use crate::workload::{self, Request, WorkloadSpec};

/// Whole-batch retries after a kernel fault before accepting with a note.
pub const MAX_KERNEL_RETRIES: usize = 3;

/// Everything one serving run needs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Cells to load and serve.
    pub endpoints: Vec<CellId>,
    /// Total requests in the synthetic workload.
    pub requests: usize,
    /// Mean arrival rate, requests per simulated second.
    pub rate: f64,
    /// Seed for workload generation (and dataset/architecture generation,
    /// shared with the sweep convention).
    pub seed: u64,
    /// Batching policy.
    pub policy: BatchPolicy,
    /// Per-endpoint queue bound; arrivals beyond it are refused with
    /// [`crate::ServeError::Overloaded`].
    pub queue_cap: usize,
    /// Device replicas executing batches.
    pub replicas: usize,
    /// Dataset scale factor (sweep convention).
    pub scale: f64,
    /// Directory of `gnn-ckpt v1` checkpoints to restore weights from.
    pub ckpt_dir: Option<PathBuf>,
    /// Cost model pricing every replica session. The default is the paper's
    /// RTX 2080Ti; the causal profiler's conformance pass overlays what-if
    /// speedups here (`CostModel::with_speedups`) to re-run a policy under
    /// a hypothetically faster component.
    pub cost: CostModel,
    /// SLO latency target (seconds) reports grade attainment against.
    pub slo_target: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            endpoints: default_endpoints(),
            requests: 400,
            rate: 2000.0,
            seed: 0,
            policy: BatchPolicy {
                max_batch: 8,
                max_delay: 0.002,
            },
            queue_cap: 32,
            replicas: 2,
            scale: 0.05,
            ckpt_dir: None,
            cost: CostModel::rtx2080ti(),
            slo_target: 0.005,
        }
    }
}

impl ServeConfig {
    /// The single-mode plan: one shard, every fleet policy off.
    fn plan(&self) -> Plan<'_> {
        Plan {
            shards: 1,
            replicas_per_shard: self.replicas,
            policy: self.policy,
            queue_cap: self.queue_cap,
            slo_target: self.slo_target,
            cost: &self.cost,
            fleet: None,
        }
    }

    /// Validates the config, mirroring the `serve-config` lint's hard
    /// rules (the lint additionally warns about never-firing policies).
    ///
    /// # Errors
    ///
    /// Returns the typed [`ServeConfigError`] naming what is impossible
    /// (its `Display` matches the stringly diagnostics of earlier
    /// releases).
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        if self.endpoints.is_empty() {
            return Err(ServeConfigError::NoEndpoints);
        }
        if self.requests == 0 {
            return Err(ServeConfigError::NoRequests);
        }
        if !(self.rate.is_finite() && self.rate > 0.0) {
            return Err(ServeConfigError::BadRate(self.rate));
        }
        self.plan().validate()
    }

    /// Validates, builds the registry, and generates the seeded open-loop
    /// workload — everything [`serve`] and [`crate::predict`] share ahead
    /// of the dispatch loop.
    pub(crate) fn prepare(&self) -> Result<(ModelRegistry, Vec<Request>), ServeConfigError> {
        self.validate()?;
        let registry = ModelRegistry::build(
            &self.endpoints,
            self.scale,
            self.seed,
            self.ckpt_dir.as_deref(),
        )?;
        let spec = WorkloadSpec::open_loop(self.seed, self.requests, self.rate)?;
        let requests = workload::generate(&spec, &registry.target_space())?;
        Ok((registry, requests))
    }
}

/// Runs one complete serving session: builds the registry, generates the
/// seeded workload, and plays it through the batcher onto the replicas.
/// Returns a report answering *every* submitted request (served or
/// rejected — never dropped; the dispatch core asserts it).
///
/// Fault hooks are called unconditionally; they are no-ops unless the
/// caller armed a `gnn-faults` plan (the `gnn-bench serve` binary does
/// this for `--faults` runs).
///
/// # Errors
///
/// Returns a typed [`ServeConfigError`] for an invalid config or a
/// registry that fails to build (unknown cell, unreadable checkpoint).
pub fn serve(cfg: &ServeConfig) -> Result<ServeReport, ServeConfigError> {
    let (registry, requests) = cfg.prepare()?;
    Ok(run(cfg, &registry, requests))
}

/// Plays an explicit request stream (sorted by arrival) against an
/// already-built registry. Exposed separately so property tests can drive
/// arbitrary arrival patterns through the real engine.
pub fn run(cfg: &ServeConfig, registry: &ModelRegistry, requests: Vec<Request>) -> ServeReport {
    run_with(cfg, registry, requests, &mut |endpoint, targets, notes| {
        exec_targets(endpoint, targets, notes, &cfg.cost)
    })
}

/// A pluggable batch executor for the dispatch core: endpoint + batched
/// targets (+ a notes sink) → the batch's [`Execution`].
pub(crate) type BatchExecutor<'a> =
    dyn FnMut(&Endpoint, &[u32], &mut Vec<String>) -> Execution + 'a;

/// [`run`] with a pluggable batch executor: the real path runs the
/// endpoint's forward in a device session; the causal profiler substitutes
/// replayed-from-capture service times so policy what-ifs re-simulate the
/// *queue dynamics* on the serve clock instead of scaling latencies naively.
pub(crate) fn run_with(
    cfg: &ServeConfig,
    registry: &ModelRegistry,
    requests: Vec<Request>,
    exec_batch: &mut BatchExecutor<'_>,
) -> ServeReport {
    simulate(&cfg.plan(), registry, requests, None, exec_batch)
}

/// Result of executing one dispatched batch, including every retry.
#[derive(Default)]
pub(crate) struct Execution {
    pub(crate) outputs: Vec<Vec<f32>>,
    pub(crate) duration: f64,
    pub(crate) oom_splits: usize,
    pub(crate) kernel_retries: usize,
    /// Hardware counters summed over every attempt's session report.
    pub(crate) flops: u64,
    pub(crate) bytes: u64,
    pub(crate) busy: f64,
    /// Largest session peak memory across every attempt (bytes).
    pub(crate) peak_memory: u64,
}

impl Execution {
    /// Attained roofline fraction of the batch's device-busy time against
    /// the replica cost model's peaks.
    pub(crate) fn roofline(&self, cost: &CostModel) -> f64 {
        if self.busy <= 0.0 {
            return 0.0;
        }
        let flop_frac = self.flops as f64 / self.busy / cost.peak_flops;
        let bw_frac = self.bytes as f64 / self.busy / cost.peak_bw;
        flop_frac.max(bw_frac).clamp(0.0, 1.0)
    }

    pub(crate) fn intensity(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.flops as f64 / self.bytes as f64
        }
    }
}

/// Executes a batch of `targets` on the endpoint, surviving injected OOMs
/// and kernel faults (module docs). Each attempt runs in its own device
/// session priced by `cost`; the batch's service time is the sum over all
/// attempts. Single and fleet runs both execute batches through this path.
pub(crate) fn exec_targets(
    endpoint: &Endpoint,
    targets: &[u32],
    notes: &mut Vec<String>,
    cost: &CostModel,
) -> Execution {
    let mut acc = Execution::default();
    loop {
        let handle = gnn_device::session::install(Session::new(cost.clone()));
        acc.outputs = endpoint.serve_batch(targets);
        let report = gnn_device::session::finish(handle);
        acc.duration += report.total_time;
        acc.flops += report.total_flops;
        acc.bytes += report.total_bytes;
        acc.busy += report.busy_time;
        acc.peak_memory = acc.peak_memory.max(report.peak_memory);
        match gnn_faults::take_pending() {
            None => return acc,
            Some(Fault::Oom { .. }) if targets.len() > 1 => {
                // Split-and-retry: halve the batch and re-execute each
                // half. Outputs are batch-composition independent in
                // eval mode, so replies stay bit-identical.
                let mid = targets.len() / 2;
                let left = exec_targets(endpoint, &targets[..mid], notes, cost);
                let right = exec_targets(endpoint, &targets[mid..], notes, cost);
                acc.outputs = left.outputs;
                acc.outputs.extend(right.outputs);
                acc.duration = acc.duration + left.duration + right.duration;
                acc.oom_splits = 1 + left.oom_splits + right.oom_splits;
                acc.kernel_retries += left.kernel_retries + right.kernel_retries;
                acc.flops += left.flops + right.flops;
                acc.bytes += left.bytes + right.bytes;
                acc.busy = acc.busy + left.busy + right.busy;
                acc.peak_memory = acc.peak_memory.max(left.peak_memory).max(right.peak_memory);
                return acc;
            }
            Some(Fault::Oom { bytes }) => {
                // Already a single request: the simulated forward still
                // completed, so answer it and note the persistent OOM.
                notes.push(format!(
                    "{}: persistent OOM ({bytes} B) at batch size 1; answered anyway",
                    endpoint.cell.path()
                ));
                return acc;
            }
            Some(Fault::Kernel { name }) if acc.kernel_retries >= MAX_KERNEL_RETRIES => {
                notes.push(format!(
                    "{}: kernel `{name}` still faulting after {MAX_KERNEL_RETRIES} retries; \
                     accepting result",
                    endpoint.cell.path()
                ));
                return acc;
            }
            Some(Fault::Kernel { .. }) => acc.kernel_retries += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            endpoints: vec![
                CellId::parse("table4/Cora/GCN/PyG").unwrap(),
                CellId::parse("table5/ENZYMES/GIN/DGL").unwrap(),
            ],
            requests: 60,
            rate: 500.0,
            seed: 7,
            policy: BatchPolicy {
                max_batch: 4,
                max_delay: 0.004,
            },
            queue_cap: 16,
            replicas: 2,
            scale: 0.05,
            ckpt_dir: None,
            cost: gnn_device::CostModel::rtx2080ti(),
            slo_target: 0.005,
        }
    }

    #[test]
    fn config_validation_rejects_impossible_setups() {
        let mut cfg = small_cfg();
        cfg.replicas = 0;
        assert_eq!(cfg.validate().unwrap_err(), ServeConfigError::NoReplicas);
        let mut cfg = small_cfg();
        cfg.queue_cap = 2; // below max_batch 4
        assert_eq!(
            cfg.validate().unwrap_err(),
            ServeConfigError::QueueBelowBatch {
                queue_cap: 2,
                max_batch: 4
            }
        );
        let mut cfg = small_cfg();
        cfg.rate = 0.0;
        assert_eq!(cfg.validate().unwrap_err(), ServeConfigError::BadRate(0.0));
        let mut cfg = small_cfg();
        cfg.slo_target = 0.0;
        assert_eq!(
            cfg.validate().unwrap_err(),
            ServeConfigError::BadSloTarget(0.0)
        );
        assert!(small_cfg().validate().is_ok());
    }

    #[test]
    fn every_request_is_answered_exactly_once() {
        let cfg = small_cfg();
        let report = serve(&cfg).unwrap();
        assert_eq!(report.requests.len(), cfg.requests, "nothing dropped");
        for (i, r) in report.requests.iter().enumerate() {
            assert_eq!(r.id, i as u64, "records sorted and dense by id");
            assert!(r.reply >= r.enqueue);
            if r.served() {
                assert!(!r.output.is_empty());
                assert!(r.latency() > 0.0);
            }
        }
        assert!(report.answered() > 0);
        assert!(report.makespan > 0.0);
        assert!(!report.batches.is_empty());
        for b in &report.batches {
            assert!(b.size >= 1 && b.size <= cfg.policy.max_batch);
            assert!(b.peak_memory > 0, "every dispatch allocates on-device");
        }
    }

    #[test]
    fn same_seed_reruns_are_bit_identical() {
        let cfg = small_cfg();
        let a = serve(&cfg).unwrap();
        let b = serve(&cfg).unwrap();
        assert_eq!(a.requests.len(), b.requests.len());
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.output, y.output, "request {} outputs differ", x.id);
            assert_eq!(x.enqueue.to_bits(), y.enqueue.to_bits());
            assert_eq!(x.reply.to_bits(), y.reply.to_bits());
        }
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    }

    #[test]
    fn sampled_endpoints_answer_every_request_under_canonical_faults() {
        let mut cfg = small_cfg();
        cfg.endpoints = vec![
            CellId::parse("sample/rmat-4k-neighbor/SAGE/PyG").unwrap(),
            CellId::parse("sample/rmat-4k-layerwise/SAGE/DGL").unwrap(),
        ];
        cfg.requests = 40;
        let handle = gnn_faults::install(gnn_faults::FaultPlan::canonical());
        let report = serve(&cfg);
        drop(handle);
        let report = report.unwrap();
        assert_eq!(report.requests.len(), cfg.requests, "conservation");
        assert_eq!(
            report.answered() + report.rejected(),
            cfg.requests,
            "every request gets a reply even while the fault plan fires"
        );
        assert!(report.answered() > 0);
        for r in report.requests.iter().filter(|r| r.served()) {
            assert_eq!(r.output.len(), 8, "8 RMAT classes per sampled answer");
        }
    }

    #[test]
    fn overload_rejects_instead_of_growing_queues() {
        let mut cfg = small_cfg();
        // One slow endpoint, tiny queue, arrivals far faster than service.
        cfg.endpoints = vec![CellId::parse("table5/DD/MoNet/DGL").unwrap()];
        cfg.requests = 120;
        cfg.rate = 100_000.0;
        cfg.queue_cap = 4;
        cfg.policy = BatchPolicy {
            max_batch: 4,
            max_delay: 0.001,
        };
        cfg.replicas = 1;
        let report = serve(&cfg).unwrap();
        assert!(report.rejected() > 0, "overload must trigger backpressure");
        assert_eq!(
            report.answered() + report.rejected(),
            cfg.requests,
            "rejected requests are answered, not dropped"
        );
        for q in &report.queues {
            assert!(q.max_depth <= cfg.queue_cap);
        }
    }
}
