//! Typed lint findings and the run-level report.
//!
//! Every pass appends [`Finding`]s; the [`LintReport`] aggregates them with
//! coverage counters and exports machine-readable JSON (`lint.json`) next to
//! the trace artifacts of the observability layer.

use std::fmt;

use gnn_obs::{Column, Table, Value};

/// The category of a finding, one per analysis rule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// Symbolic shape/dtype inference found operands that cannot compose.
    ShapeMismatch,
    /// A concrete index array addresses rows outside its target extent.
    IndexOutOfBounds,
    /// A trainable parameter receives no gradient from the loss.
    DeadParameter,
    /// A differentiable op's backward can never be invoked.
    UnreachableBackward,
    /// A fault-injection spec can never fire (or can never be survived)
    /// under the configured run.
    InvalidFaultPlan,
    /// A serving configuration breaks one of the engine's rules, has a
    /// batching policy that can never fire, or names unknown cells.
    InvalidServeConfig,
    /// A giant-graph sampling configuration is degenerate: zero fan-outs,
    /// seed batches larger than the node range, a feature cache bigger
    /// than the features it caches, or RMAT parameters that cannot
    /// generate a graph.
    InvalidSampleConfig,
    /// A fleet configuration is degenerate or self-defeating: no routable
    /// shards, a retry budget that can amplify a brownout, health
    /// thresholds that can never eject within the run's horizon, or a
    /// fault plan naming shards the fleet does not have.
    InvalidFleetConfig,
    /// A cell's certified minimum memory footprint exceeds a device's
    /// capacity: no admissible batch size exists, so the cell provably
    /// cannot run there.
    PeakExceedsDeviceMemory,
    /// A fault-plan memory ceiling admits no batch size: even after the
    /// supervisor's batch-halving degradation reaches batch 1, the
    /// certified floor still overflows (the fixed point is failure).
    CeilingUnsatisfiable,
    /// A serve policy's `max_batch` cannot fit one replica session's
    /// certified inference footprint.
    ServeBatchExceedsReplicaMemory,
    /// A memory certificate's bounds are out of order: not `0 <
    /// persistent < floor_fatal <= peak_upper`, or a certified peak below
    /// the ideal free-at-last-use one.
    CertificateInconsistent,
}

impl FindingKind {
    /// Stable machine-readable label (used in `lint.json`).
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::ShapeMismatch => "shape-mismatch",
            FindingKind::IndexOutOfBounds => "index-out-of-bounds",
            FindingKind::DeadParameter => "dead-parameter",
            FindingKind::UnreachableBackward => "unreachable-backward",
            FindingKind::InvalidFaultPlan => "invalid-fault-plan",
            FindingKind::InvalidServeConfig => "serve-config",
            FindingKind::InvalidSampleConfig => "sample-config",
            FindingKind::InvalidFleetConfig => "fleet-config",
            FindingKind::PeakExceedsDeviceMemory => "peak-exceeds-device-memory",
            FindingKind::CeilingUnsatisfiable => "ceiling-unsatisfiable",
            FindingKind::ServeBatchExceedsReplicaMemory => "serve-batch-exceeds-replica-memory",
            FindingKind::CertificateInconsistent => "certificate-inconsistency",
        }
    }
}

/// One statically detected defect: what rule fired, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule family.
    pub kind: FindingKind,
    /// Op path within the sweep, e.g.
    /// `table4/Cora/GCN/PyG/conv2/matmul` or `faults/2`.
    pub path: String,
    /// Human-readable diagnosis. For shape defects this is the exact
    /// [`gnn_tensor::ShapeError`] rendering the runtime would panic with.
    pub message: String,
}

impl Finding {
    /// Creates a finding.
    pub fn new(kind: FindingKind, path: impl Into<String>, message: impl Into<String>) -> Self {
        Finding {
            kind,
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.kind.label(), self.path, self.message)
    }
}

/// Aggregated result of linting one configured run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    /// All findings, in discovery order.
    pub findings: Vec<Finding>,
    /// (model, dataset, framework) cells whose lowering was walked.
    pub cells_checked: usize,
    /// Total symbolic ops inferred across all cells.
    pub ops_checked: usize,
    /// Generated datasets whose index arrays were proven in-bounds.
    pub datasets_checked: usize,
}

impl LintReport {
    /// Whether the run is safe to execute.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings of one kind.
    pub fn of_kind(&self, kind: FindingKind) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.kind == kind).collect()
    }

    /// The report as a JSON tree (the `lint.json` schema; see README).
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            (
                "coverage".into(),
                Value::Obj(vec![
                    ("cells".into(), self.cells_checked.into()),
                    ("ops".into(), self.ops_checked.into()),
                    ("datasets".into(), self.datasets_checked.into()),
                ]),
            ),
            ("clean".into(), Value::Bool(self.is_clean())),
            ("findings".into(), FINDINGS.json_rows(&self.findings)),
        ])
    }
}

/// The findings rows of `lint.json` and `memory.json`.
pub const FINDINGS: Table<Finding> = Table {
    schema: None,
    columns: &[
        Column::new("kind", |f| f.kind.label().into()),
        Column::new("path", |f| f.path.as_str().into()),
        Column::new("message", |f| f.message.as_str().into()),
    ],
};

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "gnn-lint: {} cell(s), {} op(s), {} dataset(s) checked — {}",
            self.cells_checked,
            self.ops_checked,
            self.datasets_checked,
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} finding(s)", self.findings.len())
            }
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let mut r = LintReport {
            cells_checked: 2,
            ops_checked: 17,
            datasets_checked: 1,
            ..LintReport::default()
        };
        r.findings.push(Finding::new(
            FindingKind::ShapeMismatch,
            "Cora/GCN/PyG/conv2/matmul",
            "matmul: inner dimensions disagree (lhs cols = 80, rhs rows = 64)",
        ));
        let json = r.to_value().to_json();
        let v = gnn_obs::json::parse(&json).expect("valid json");
        assert_eq!(v.get("clean"), Some(&Value::Bool(false)));
        let findings = v.get("findings").and_then(|f| f.as_arr()).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("kind").and_then(|k| k.as_str()),
            Some("shape-mismatch")
        );
        assert_eq!(
            v.get("coverage")
                .and_then(|c| c.get("ops"))
                .and_then(|o| o.as_u64()),
            Some(17)
        );
    }

    #[test]
    fn display_lists_findings() {
        let mut r = LintReport::default();
        assert!(r.is_clean());
        assert!(r.to_string().contains("clean"));
        r.findings.push(Finding::new(
            FindingKind::InvalidFaultPlan,
            "faults/0",
            "boom",
        ));
        assert!(!r.is_clean());
        let s = r.to_string();
        assert!(s.contains("[invalid-fault-plan] faults/0: boom"));
        assert_eq!(r.of_kind(FindingKind::InvalidFaultPlan).len(), 1);
        assert!(r.of_kind(FindingKind::DeadParameter).is_empty());
    }
}
