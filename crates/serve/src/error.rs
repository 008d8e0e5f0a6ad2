//! Typed configuration errors for the serving layer.
//!
//! Every way a [`crate::ServeConfig`] / [`crate::FleetConfig`] can be
//! impossible, a cell path can fail to parse, or a registry can fail to
//! build is one variant of [`ServeConfigError`]. Its `Display` is the one
//! text of the rule: the engine refuses with it and the `gnn-lint`
//! finding carries it, saying why the config cannot run where the knob
//! alone does not.

use std::fmt;

use crate::cell::CellError;
use crate::workload::WorkloadError;

/// Why a serving configuration (single-engine or fleet) is impossible, a
/// cell path is unaddressable, or a registry cannot be built.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeConfigError {
    /// The config names no endpoints.
    NoEndpoints,
    /// The batching policy's `max_batch` is zero.
    ZeroMaxBatch,
    /// The batching policy's `max_delay` is negative or non-finite.
    BadMaxDelay(f64),
    /// The per-endpoint queue bound is below `max_batch`, so a full batch
    /// could never accumulate.
    QueueBelowBatch {
        /// Configured queue bound.
        queue_cap: usize,
        /// Configured batch-size cap.
        max_batch: usize,
    },
    /// The config has zero replicas.
    NoReplicas,
    /// A cell path is unaddressable or a cell's dataset unknown: the
    /// catalog's own error, rendered unchanged.
    Cell(CellError),
    /// A checkpoint existed for the endpoint but failed to load.
    Checkpoint {
        /// The endpoint's cell path.
        cell: String,
        /// The checkpoint loader's diagnostic.
        message: String,
    },
    /// The workload specification is degenerate.
    Workload(WorkloadError),
    /// The fleet config has zero shards.
    NoShards,
    /// The per-shard admission cap is zero — every request would shed.
    ZeroAdmissionCap,
    /// The router's retry budget is negative or non-finite.
    BadRetryBudget(f64),
    /// The health checker's probe interval is zero, negative, or
    /// non-finite — it could never observe a shard.
    BadProbeInterval(f64),
    /// The health checker's failure threshold is zero.
    ZeroFailThreshold,
    /// The health checker's re-admission threshold is zero.
    ZeroReadmitThreshold,
    /// The hedge delay is zero, negative, or non-finite.
    BadHedgeDelay(f64),
    /// The router↔shard network delay is negative or non-finite.
    BadNetDelay(f64),
    /// The SLO latency target is zero, negative, or non-finite.
    BadSloTarget(f64),
    /// The autoscaler's replica floor is zero.
    ZeroMinReplicas,
    /// The autoscaler's replica floor exceeds its ceiling.
    AutoscaleBounds {
        /// Configured floor.
        min: usize,
        /// Configured ceiling.
        max: usize,
    },
    /// The autoscaler's scale-down watermark is not below its scale-up
    /// watermark, so it would oscillate or never act.
    AutoscaleWatermarks {
        /// Scale-down queue-depth watermark.
        low: usize,
        /// Scale-up queue-depth watermark.
        high: usize,
    },
    /// The autoscaler's cooldown is negative or non-finite.
    BadCooldown(f64),
}

impl ServeConfigError {
    /// The config knob a rule violation names, the last component of its
    /// lint finding path (`serve/policy`, `fleet/health`, ...).
    pub fn knob(&self) -> &'static str {
        use ServeConfigError::*;
        match self {
            NoEndpoints | Cell(_) | Checkpoint { .. } => "endpoints",
            ZeroMaxBatch | BadMaxDelay(_) | QueueBelowBatch { .. } => "policy",
            NoReplicas => "replicas",
            Workload(_) => "workload",
            NoShards => "shards",
            ZeroAdmissionCap => "admission",
            BadRetryBudget(_) => "retry-budget",
            BadProbeInterval(_) | ZeroFailThreshold | ZeroReadmitThreshold => "health",
            BadHedgeDelay(_) => "hedge",
            BadNetDelay(_) => "net-delay",
            BadSloTarget(_) => "slo",
            ZeroMinReplicas
            | AutoscaleBounds { .. }
            | AutoscaleWatermarks { .. }
            | BadCooldown(_) => "autoscale",
        }
    }
}

impl fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeConfigError::NoEndpoints => write!(f, "serve config has no endpoints"),
            ServeConfigError::ZeroMaxBatch => {
                write!(
                    f,
                    "max_batch must be at least 1: no batch can ever dispatch"
                )
            }
            ServeConfigError::BadMaxDelay(delay) => {
                write!(f, "max_delay {delay} must be finite and non-negative")
            }
            ServeConfigError::QueueBelowBatch {
                queue_cap,
                max_batch,
            } => write!(
                f,
                "queue_cap {queue_cap} below max_batch {max_batch}: a full batch could never \
                 accumulate"
            ),
            ServeConfigError::NoReplicas => {
                write!(
                    f,
                    "need at least one replica: no device session can execute batches"
                )
            }
            ServeConfigError::Cell(err) => write!(f, "{err}"),
            ServeConfigError::Checkpoint { cell, message } => {
                write!(f, "endpoint {cell}: {message}")
            }
            ServeConfigError::Workload(err) => write!(f, "{err}"),
            ServeConfigError::NoShards => {
                write!(
                    f,
                    "fleet config has no shards: every arrival sheds as unroutable"
                )
            }
            ServeConfigError::ZeroAdmissionCap => {
                write!(
                    f,
                    "admission cap must be at least 1: every request sheds before queuing"
                )
            }
            ServeConfigError::BadRetryBudget(budget) => {
                write!(f, "retry budget {budget} must be finite and non-negative")
            }
            ServeConfigError::BadProbeInterval(interval) => {
                write!(
                    f,
                    "probe interval {interval} must be positive: health is never observed"
                )
            }
            ServeConfigError::ZeroFailThreshold => {
                write!(f, "health fail threshold must be at least 1")
            }
            ServeConfigError::ZeroReadmitThreshold => {
                write!(f, "health readmit threshold must be at least 1")
            }
            ServeConfigError::BadHedgeDelay(delay) => {
                write!(f, "hedge delay {delay} must be positive")
            }
            ServeConfigError::BadNetDelay(delay) => {
                write!(f, "network delay {delay} must be finite and non-negative")
            }
            ServeConfigError::BadSloTarget(target) => {
                write!(f, "slo target {target} must be positive")
            }
            ServeConfigError::ZeroMinReplicas => write!(
                f,
                "autoscale min_replicas must be at least 1: scale-down can empty a shard, \
                 which then fails every health probe"
            ),
            ServeConfigError::AutoscaleBounds { min, max } => write!(
                f,
                "autoscale min_replicas {min} above max_replicas {max}: no replica count \
                 satisfies both bounds"
            ),
            ServeConfigError::AutoscaleWatermarks { low, high } => write!(
                f,
                "autoscale queue_low {low} must be below queue_high {high}: without a dead \
                 band between them the controller thrashes"
            ),
            ServeConfigError::BadCooldown(cooldown) => write!(
                f,
                "autoscale cooldown {cooldown} must be finite and non-negative"
            ),
        }
    }
}

impl std::error::Error for ServeConfigError {}

impl From<CellError> for ServeConfigError {
    fn from(err: CellError) -> Self {
        ServeConfigError::Cell(err)
    }
}

impl From<WorkloadError> for ServeConfigError {
    fn from(err: WorkloadError) -> Self {
        ServeConfigError::Workload(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renderings_stay_byte_identical_to_the_stringly_era() {
        // Artifacts (lint findings, CSV notes) embedded these exact strings
        // before the enum existed; the typed variants must render them
        // unchanged.
        assert_eq!(
            ServeConfigError::NoEndpoints.to_string(),
            "serve config has no endpoints"
        );
        assert_eq!(
            ServeConfigError::from(WorkloadError::BadRate(0.0)).to_string(),
            "arrival rate 0 must be positive"
        );
        assert_eq!(
            ServeConfigError::QueueBelowBatch {
                queue_cap: 2,
                max_batch: 4
            }
            .to_string(),
            "queue_cap 2 below max_batch 4: a full batch could never accumulate"
        );
        assert_eq!(
            ServeConfigError::from(CellError::MalformedCellPath("a/b".into())).to_string(),
            "cell path `a/b` must be experiment/dataset/model/framework"
        );
        assert_eq!(
            ServeConfigError::from(CellError::UnknownDataset {
                experiment: "table4".into(),
                dataset: "ENZYMES".into(),
                path: "table4/ENZYMES/GCN/PyG".into()
            })
            .to_string(),
            "unknown table4 dataset `ENZYMES` in `table4/ENZYMES/GCN/PyG`"
        );
        assert_eq!(
            ServeConfigError::Checkpoint {
                cell: "table4/Cora/GCN/PyG".into(),
                message: "bad magic".into()
            }
            .to_string(),
            "endpoint table4/Cora/GCN/PyG: bad magic"
        );
    }

    #[test]
    fn fleet_variants_name_the_offending_knob() {
        assert!(ServeConfigError::BadRetryBudget(f64::NAN)
            .to_string()
            .contains("retry budget"));
        assert!(ServeConfigError::AutoscaleWatermarks { low: 9, high: 4 }
            .to_string()
            .contains("queue_low 9"));
        let from: ServeConfigError = WorkloadError::NoEndpoints.into();
        assert_eq!(from.to_string(), "workload needs at least one endpoint");
    }
}
