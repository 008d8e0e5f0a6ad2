//! Plain-text report rendering, one renderer per table/figure.

use gnn_device::session::PHASES;

use crate::runner::{LayerTimeRow, MultiGpuRow, ProfileRow, TableRow};
use crate::sweep::SweepOutcome;

/// Renders a padded ASCII table.
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for r in rows {
        assert_eq!(r.len(), headers.len(), "row width mismatch");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}", w = w))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&format!("|-{}-|", sep.join("-|-")));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

fn fmt_secs(t: f64) -> String {
    if t >= 3600.0 {
        format!("{:.2}hr", t / 3600.0)
    } else if t >= 1.0 {
        format!("{t:.2}s")
    } else {
        format!("{:.4}s", t)
    }
}

/// Renders Table IV (node classification) or Table V (graph
/// classification).
pub fn table_report(rows: &[TableRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                r.model.label().to_string(),
                r.framework.label().to_string(),
                format!("{}/{}", fmt_secs(r.epoch_time), fmt_secs(r.total_time)),
                format!("{}", r.acc),
            ]
        })
        .collect();
    render_table(
        &["Dataset", "Model", "Framework", "Epoch/Total", "Acc±s.d."],
        &body,
    )
}

/// Renders the Figs. 1/2 epoch-time breakdown for one dataset.
pub fn breakdown_report(rows: &[ProfileRow]) -> String {
    let mut headers = vec!["Model", "Framework", "Batch"];
    headers.extend(PHASES.iter().map(|p| p.label()));
    headers.push("total");
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![
                r.model.label().to_string(),
                r.framework.label().to_string(),
                r.batch_size.to_string(),
            ];
            cells.extend(r.phase_times.iter().map(|t| format!("{:.1}ms", t * 1e3)));
            cells.push(format!("{:.1}ms", r.epoch_time() * 1e3));
            cells
        })
        .collect();
    render_table(&headers, &body)
}

/// Which resource columns [`resources_report_filtered`] includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceMetric {
    /// Peak memory only (Fig. 4).
    Memory,
    /// Utilization only (Fig. 5).
    Utilization,
    /// Both columns.
    Both,
}

/// Renders the Figs. 4/5 sweep with a column filter.
pub fn resources_report_filtered(rows: &[ProfileRow], metric: ResourceMetric) -> String {
    let mut headers = vec!["Dataset", "Model", "Framework", "Batch"];
    if metric != ResourceMetric::Utilization {
        headers.push("PeakMem");
    }
    if metric != ResourceMetric::Memory {
        headers.push("GPUUtil");
    }
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![
                r.dataset.clone(),
                r.model.label().to_string(),
                r.framework.label().to_string(),
                r.batch_size.to_string(),
            ];
            if metric != ResourceMetric::Utilization {
                cells.push(format!("{:.1}MB", r.peak_memory as f64 / 1e6));
            }
            if metric != ResourceMetric::Memory {
                cells.push(format!("{:.1}%", r.utilization * 100.0));
            }
            cells
        })
        .collect();
    render_table(&headers, &body)
}

/// Renders the Fig. 4 (memory) and Fig. 5 (utilization) sweep: both
/// columns.
pub fn resources_report(rows: &[ProfileRow]) -> String {
    resources_report_filtered(rows, ResourceMetric::Both)
}

/// Renders Fig. 3 (layer-wise execution time of one training batch).
pub fn layer_report(rows: &[LayerTimeRow]) -> String {
    // Collect the union of scope names in first-seen order.
    let mut scope_names: Vec<String> = Vec::new();
    for r in rows {
        for (name, _) in &r.scopes {
            if !scope_names.contains(name) {
                scope_names.push(name.clone());
            }
        }
    }
    let mut headers: Vec<&str> = vec!["Model", "Framework"];
    headers.extend(scope_names.iter().map(String::as_str));
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.model.label().to_string(), r.framework.label().to_string()];
            for name in &scope_names {
                let t = r
                    .scopes
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, t)| *t)
                    .unwrap_or(0.0);
                cells.push(format!("{:.2}ms", t * 1e3));
            }
            cells
        })
        .collect();
    render_table(&headers, &body)
}

/// Renders Fig. 6 (multi-GPU epoch times).
pub fn fig6_report(rows: &[MultiGpuRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.label().to_string(),
                r.framework.label().to_string(),
                r.batch_size.to_string(),
                r.n_gpus.to_string(),
                format!("{:.1}ms", r.epoch_time * 1e3),
            ]
        })
        .collect();
    render_table(&["Model", "Framework", "Batch", "GPUs", "Epoch"], &body)
}

/// Renders the fault-isolated sweep: one row per cell with its status,
/// retries, and fired faults, followed by ok/degraded/failed totals and
/// (when the sweep armed the fault plan itself) the full fault log.
pub fn sweep_report(out: &SweepOutcome) -> String {
    let body: Vec<Vec<String>> = out
        .cells
        .iter()
        .map(|c| {
            vec![
                c.experiment.clone(),
                c.dataset.clone(),
                c.model.label().to_string(),
                c.framework.label().to_string(),
                c.status.label().to_string(),
                c.retries.to_string(),
                if c.faults.is_empty() {
                    "-".to_string()
                } else {
                    c.faults.join("; ")
                },
            ]
        })
        .collect();
    let mut s = render_table(
        &[
            "Experiment",
            "Dataset",
            "Model",
            "Framework",
            "Status",
            "Retries",
            "Faults",
        ],
        &body,
    );
    let (ok, degraded, failed) = out.counts();
    s.push_str(&format!(
        "cells: {} ok, {degraded} degraded, {failed} failed (of {})\n",
        ok,
        out.cells.len()
    ));
    for c in out.cells.iter().filter(|c| !c.detail.is_empty()) {
        s.push_str(&format!(
            "  {}/{}/{}/{}: {}\n",
            c.experiment,
            c.dataset,
            c.model.label(),
            c.framework.label(),
            c.detail
        ));
    }
    if let Some(log) = &out.fault_log {
        s.push_str(&format!("faults fired: {}\n", log.len()));
    }
    s
}

/// Renders a run-wide summary of a finished trace: one row per training
/// run (from the JSONL epoch records) plus aggregate kernel/event totals.
///
/// This is what the reproduction commands print after saving trace
/// artifacts, so a `--trace` run ends with a human-readable digest of what
/// the trace contains.
pub fn run_summary(trace: &gnn_obs::Trace) -> String {
    let mut out = String::new();
    let mut runs: Vec<&str> = Vec::new();
    for e in &trace.epochs {
        if !runs.contains(&e.run.as_str()) {
            runs.push(&e.run);
        }
    }
    if runs.is_empty() {
        out.push_str("no epoch records (no training loop ran under the collector)\n");
    } else {
        let body: Vec<Vec<String>> = runs
            .iter()
            .map(|run| {
                let recs: Vec<_> = trace.epochs.iter().filter(|e| &e.run == run).collect();
                let last = recs[recs.len() - 1];
                let kernels: u64 = recs
                    .iter()
                    .flat_map(|r| r.kernel_counts.iter())
                    .map(|(_, n)| n)
                    .sum();
                vec![
                    (*run).to_string(),
                    recs.len().to_string(),
                    format!("{:.4}", last.loss),
                    last.accuracy
                        .map_or_else(|| "-".to_string(), |a| format!("{:.1}%", a * 100.0)),
                    kernels.to_string(),
                    format!("{:.1}MB", last.peak_memory as f64 / 1e6),
                    format!("{:.1}%", last.utilization * 100.0),
                    fmt_secs(last.sim_time),
                    fmt_secs(last.wall_time),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &[
                "Run", "Epochs", "Loss", "Acc", "Kernels", "PeakMem", "Util", "Sim", "Wall",
            ],
            &body,
        ));
    }
    // Aggregate per-kind kernel launches across every epoch record.
    let mut kinds: Vec<(String, u64)> = Vec::new();
    for (kind, n) in trace.epochs.iter().flat_map(|e| e.kernel_counts.iter()) {
        match kinds.iter_mut().find(|(k, _)| k == kind) {
            Some((_, total)) => *total += n,
            None => kinds.push((kind.clone(), *n)),
        }
    }
    if !kinds.is_empty() {
        let parts: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
        out.push_str(&format!("kernel launches: {}\n", parts.join(", ")));
    }
    out.push_str(&format!(
        "trace events: {} across {} tracks\n",
        trace.events.len(),
        {
            let mut tracks: Vec<&str> = trace.events.iter().map(|e| e.track.as_str()).collect();
            tracks.sort_unstable();
            tracks.dedup();
            tracks.len()
        }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_pads_columns() {
        let s = render_table(
            &["a", "bb"],
            &[
                vec!["xxx".into(), "y".into()],
                vec!["z".into(), "wwww".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{s}");
    }

    #[test]
    fn resource_metric_filters_columns() {
        let row = ProfileRow {
            dataset: "ENZYMES".into(),
            model: gnn_models::ModelKind::Gcn,
            framework: gnn_models::FrameworkKind::RustyG,
            batch_size: 64,
            phase_times: [0.0; 5],
            peak_memory: 1_000_000,
            utilization: 0.3,
            kind_counts: vec![(gnn_device::KernelKind::Gemm, 4)],
        };
        let mem = resources_report_filtered(std::slice::from_ref(&row), ResourceMetric::Memory);
        assert!(mem.contains("PeakMem") && !mem.contains("GPUUtil"));
        let util =
            resources_report_filtered(std::slice::from_ref(&row), ResourceMetric::Utilization);
        assert!(!util.contains("PeakMem") && util.contains("GPUUtil"));
        let both = resources_report_filtered(&[row], ResourceMetric::Both);
        assert!(both.contains("PeakMem") && both.contains("GPUUtil"));
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_secs(0.0049), "0.0049s");
        assert_eq!(fmt_secs(5.82), "5.82s");
        assert_eq!(fmt_secs(828.0), "828.00s");
        assert_eq!(fmt_secs(2.0 * 3600.0), "2.00hr");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn uneven_rows_rejected() {
        render_table(&["a"], &[vec!["x".into(), "y".into()]]);
    }

    #[test]
    fn sweep_report_counts_statuses_and_lists_details() {
        use crate::sweep::{CellOutcome, CellStatus, SweepOutcome};
        let cell = |status, detail: &str, faults: Vec<String>| CellOutcome {
            experiment: "table4".into(),
            dataset: "Cora".into(),
            model: gnn_models::ModelKind::Gcn,
            framework: gnn_models::FrameworkKind::RustyG,
            status,
            detail: detail.into(),
            faults,
            retries: 1,
            peak_memory: 0,
        };
        let out = SweepOutcome {
            cells: vec![
                cell(CellStatus::Ok, "", vec![]),
                cell(
                    CellStatus::Degraded,
                    "halving batch size to 8",
                    vec!["oom:device OOM allocating 64 B".into()],
                ),
                cell(
                    CellStatus::Failed,
                    "retries exhausted after 4 attempts",
                    vec![],
                ),
            ],
            ..SweepOutcome::default()
        };
        let s = sweep_report(&out);
        assert!(
            s.contains("cells: 1 ok, 1 degraded, 1 failed (of 3)"),
            "{s}"
        );
        assert!(s.contains("halving batch size to 8"), "{s}");
        assert!(s.contains("retries exhausted"), "{s}");
        assert!(s.contains("oom:device OOM"), "{s}");
    }

    #[test]
    fn run_summary_lists_runs_and_kernel_totals() {
        let rec = |run: &str, epoch: u32| gnn_obs::EpochRecord {
            run: run.into(),
            epoch,
            loss: 0.5 / (epoch + 1) as f64,
            accuracy: Some(0.7),
            lr: 1e-3,
            phase_times: vec![("forward".into(), 0.1)],
            kernel_counts: vec![("gemm".into(), 10), ("gather".into(), 2)],
            flops: 5_000_000,
            bytes: 3_000_000,
            peak_memory: 2_000_000,
            utilization: 0.4,
            sim_time: 0.2 * (epoch + 1) as f64,
            wall_time: 0.01,
        };
        let trace = gnn_obs::Trace {
            events: vec![],
            epochs: vec![rec("a", 0), rec("a", 1), rec("b", 0)],
            schedule: vec![],
        };
        let s = run_summary(&trace);
        assert!(s.contains("| a"), "{s}");
        assert!(s.contains("| b"), "{s}");
        assert!(s.contains("kernel launches: gemm=30, gather=6"), "{s}");
        assert!(s.contains("trace events: 0"), "{s}");
    }

    #[test]
    fn run_summary_empty_trace_degrades_gracefully() {
        let trace = gnn_obs::Trace {
            events: vec![],
            epochs: vec![],
            schedule: vec![],
        };
        let s = run_summary(&trace);
        assert!(s.contains("no epoch records"), "{s}");
    }
}
