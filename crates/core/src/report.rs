//! The text the training commands print besides their tables: the
//! fault-isolated sweep's outcome and a traced run's summary. Every table
//! here, like every table the commands print, is the text rendering of a
//! `gnn_obs::Table` column list ([`Table::text`]).

use gnn_obs::{Column, EpochRecord, Table, Value};

use crate::export::CELL_OUTCOMES;
use crate::sweep::SweepOutcome;

/// Renders the fault-isolated sweep: the [`CELL_OUTCOMES`] rows, then
/// ok/degraded/failed totals and (when the sweep armed the fault plan
/// itself) how many faults fired.
pub fn sweep_report(out: &SweepOutcome) -> String {
    let (ok, degraded, failed) = out.counts();
    let mut s = CELL_OUTCOMES.text(&out.cells);
    s += &format!(
        "cells: {ok} ok, {degraded} degraded, {failed} failed (of {})\n",
        out.cells.len()
    );
    if let Some(log) = &out.fault_log {
        s += &format!("faults fired: {}\n", log.len());
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
    // (run, epochs, kernel launches, last epoch record)
    let runs_table: Table<(&str, usize, u64, &EpochRecord)> = Table {
        schema: None,
        columns: &[
            Column::new("run", |&(run, ..)| run.into()),
            Column::new("epochs", |&(_, epochs, ..)| epochs.into()),
            Column::new("kernels", |&(_, _, kernels, _)| kernels.into()),
            Column::new("loss", |(.., e)| e.loss.into()),
            Column::new("accuracy", |(.., e)| {
                e.accuracy.map_or("-".into(), Value::from)
            }),
            Column::new("peak_memory_bytes", |(.., e)| e.peak_memory.into()),
            Column::new("utilization", |(.., e)| e.utilization.into()),
            Column::new("sim_s", |(.., e)| e.sim_time.into()),
            Column::new("wall_s", |(.., e)| e.wall_time.into()),
        ],
    };
    let mut runs: Vec<&str> = Vec::new();
    for e in &trace.epochs {
        if !runs.contains(&e.run.as_str()) {
            runs.push(&e.run);
        }
    }
    let mut out = String::new();
    if runs.is_empty() {
        out.push_str("no epoch records (no training loop ran under the collector)\n");
    } else {
        out.push_str(&runs_table.text(runs.iter().map(|&run| {
            let recs: Vec<&EpochRecord> = trace.epochs.iter().filter(|e| e.run == run).collect();
            let kernels = recs.iter().flat_map(|r| &r.kernel_counts).map(|(_, n)| n);
            (run, recs.len(), kernels.sum(), recs[recs.len() - 1])
        })));
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
