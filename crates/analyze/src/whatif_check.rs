//! What-if audit: cross-checking causal-profiler predictions against
//! critical-path budgets.
//!
//! The causal profiler (`gnn-bench whatif`) predicts end-to-end run time
//! under virtual component speedups by replaying the recorded device
//! schedule. Those predictions obey hard physics that hold regardless of
//! how the schedule interleaves: speeding a component up can never slow
//! the run down, predictions must be monotone non-increasing in the
//! speedup factor, and no speedup can save more time than the component's
//! total recorded cost (its critical-path budget — even removing the
//! component entirely only recovers what was spent on it). This pass
//! checks every prediction against all three invariants and flags
//! violations under [`FindingKind::WhatIfInconsistent`]; the `whatif`
//! command refuses to publish a report that fails its own physics.

use gnn_device::{component_label, WHATIF_COMPONENTS};

use crate::report::{Finding, FindingKind};

/// One cell's what-if predictions, distilled to plain data for auditing.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfCellAudit {
    /// Cell path, e.g. `table4/Cora/GCN/PyG`.
    pub cell: String,
    /// Measured end-to-end time under the identity (no-speedup) model.
    pub base_total: f64,
    /// Total recorded base cost per component ([`WHATIF_COMPONENTS`]
    /// entries): the upper bound on any speedup's achievable saving.
    pub budgets: [f64; WHATIF_COMPONENTS],
    /// Predictions as `(component, speedup_factor, predicted_total)`
    /// triples. Factors for one component must appear in increasing order
    /// (the profiler's grid order).
    pub predictions: Vec<(usize, f64, f64)>,
}

/// Audits what-if predictions, appending one finding per violated
/// invariant. Paths are `whatif/<cell>/<component-label>`.
///
/// Tolerances are relative to the cell's base time (`1e-9 * base_total`
/// plus an absolute `1e-15` floor): the profiler's replay is bit-exact, so
/// anything past float-noise scale is a real inconsistency.
pub fn check_whatif(cells: &[WhatIfCellAudit], findings: &mut Vec<Finding>) {
    for cell in cells {
        let eps = 1e-9 * cell.base_total.abs() + 1e-15;
        for component in 0..WHATIF_COMPONENTS {
            let path = format!("whatif/{}/{}", cell.cell, component_label(component));
            let mut prev: Option<(f64, f64)> = None;
            for &(c, k, predicted) in cell.predictions.iter().filter(|&&(c, _, _)| c == component) {
                debug_assert_eq!(c, component);
                if predicted > cell.base_total + eps {
                    findings.push(Finding::new(
                        FindingKind::WhatIfInconsistent,
                        path.clone(),
                        format!(
                            "a {k}x speedup predicts {predicted:.9e}s, slower than the \
                             measured base {:.9e}s",
                            cell.base_total
                        ),
                    ));
                }
                if let Some((pk, pt)) = prev {
                    if predicted > pt + eps {
                        findings.push(Finding::new(
                            FindingKind::WhatIfInconsistent,
                            path.clone(),
                            format!(
                                "prediction is not monotone in the speedup: {k}x predicts \
                                 {predicted:.9e}s but {pk}x predicted {pt:.9e}s"
                            ),
                        ));
                    }
                }
                let saving = cell.base_total - predicted;
                if saving > cell.budgets[component] + eps {
                    findings.push(Finding::new(
                        FindingKind::WhatIfInconsistent,
                        path.clone(),
                        format!(
                            "a {k}x speedup claims to save {saving:.9e}s, more than the \
                             component's total recorded cost {:.9e}s",
                            cell.budgets[component]
                        ),
                    ));
                }
                prev = Some((k, predicted));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_cell() -> WhatIfCellAudit {
        let mut budgets = [0.0; WHATIF_COMPONENTS];
        budgets[0] = 4e-4; // gemm
        budgets[12] = 2e-4; // host
        WhatIfCellAudit {
            cell: "table4/Cora/GCN/PyG".into(),
            base_total: 1e-3,
            budgets,
            predictions: vec![
                (0, 1.25, 9.2e-4),
                (0, 2.0, 8.0e-4),
                (0, f64::INFINITY, 6.0e-4),
                (12, 2.0, 9.0e-4),
            ],
        }
    }

    #[test]
    fn consistent_predictions_pass() {
        let mut findings = Vec::new();
        check_whatif(&[clean_cell()], &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn slower_than_base_is_flagged() {
        let mut cell = clean_cell();
        cell.predictions.push((3, 1.5, 1.2e-3));
        let mut findings = Vec::new();
        check_whatif(&[cell], &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, FindingKind::WhatIfInconsistent);
        assert!(findings[0].path.ends_with("/gather"));
        assert!(findings[0]
            .message
            .contains("slower than the measured base"));
    }

    #[test]
    fn non_monotone_grid_is_flagged() {
        let mut cell = clean_cell();
        // 2x predicting more time than 1.25x did.
        cell.predictions = vec![(0, 1.25, 8.0e-4), (0, 2.0, 9.0e-4)];
        let mut findings = Vec::new();
        check_whatif(&[cell], &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("not monotone"));
    }

    #[test]
    fn saving_beyond_budget_is_flagged() {
        let mut cell = clean_cell();
        // Claims to save 5e-4 s on a component that only cost 4e-4 s.
        cell.predictions = vec![(0, f64::INFINITY, 5.0e-4)];
        let mut findings = Vec::new();
        check_whatif(&[cell], &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0]
            .message
            .contains("more than the component's total recorded cost"));
    }

    #[test]
    fn float_noise_is_tolerated() {
        let mut cell = clean_cell();
        // One ulp-scale wobble above base must not fire.
        cell.predictions = vec![(5, 1.1, 1e-3 + 1e-13)];
        let mut findings = Vec::new();
        check_whatif(&[cell], &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
