//! CSV export of experiment results, for downstream plotting.
//!
//! Each exporter mirrors a runner's row type. Fields are stable,
//! machine-readable column names; times are seconds, memory is bytes,
//! utilization is a fraction.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::runner::{LayerTimeRow, MultiGpuRow, ProfileRow, TableRow};
use crate::sweep::CellOutcome;

fn esc(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Renders Table IV or Table V rows as CSV.
pub fn table_csv(rows: &[TableRow]) -> String {
    let mut out = String::from("dataset,model,framework,epoch_s,total_s,acc_mean,acc_std\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            esc(&r.dataset),
            r.model.label(),
            r.framework.label(),
            r.epoch_time,
            r.total_time,
            r.acc.mean,
            r.acc.std
        );
    }
    out
}

/// Renders profile-sweep rows (Figs. 1/2/4/5) as CSV.
pub fn profile_csv(rows: &[ProfileRow]) -> String {
    let mut out = String::from(
        "dataset,model,framework,batch_size,data_load_s,forward_s,backward_s,update_s,\
         other_s,epoch_s,peak_memory_bytes,utilization\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            esc(&r.dataset),
            r.model.label(),
            r.framework.label(),
            r.batch_size,
            r.phase_times[0],
            r.phase_times[1],
            r.phase_times[2],
            r.phase_times[3],
            r.phase_times[4],
            r.epoch_time(),
            r.peak_memory,
            r.utilization
        );
    }
    out
}

/// Renders per-kind kernel launch counts from profile-sweep rows as
/// long-format CSV: one line per (configuration, kernel kind).
pub fn kernel_counts_csv(rows: &[ProfileRow]) -> String {
    let mut out = String::from("dataset,model,framework,batch_size,kind,count\n");
    for r in rows {
        for (kind, count) in &r.kind_counts {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                esc(&r.dataset),
                r.model.label(),
                r.framework.label(),
                r.batch_size,
                kind.label(),
                count
            );
        }
    }
    out
}

/// Renders layer-time rows (Fig. 3) as long-format CSV.
pub fn layer_times_csv(rows: &[LayerTimeRow]) -> String {
    let mut out = String::from("model,framework,scope,seconds\n");
    for r in rows {
        for (scope, t) in &r.scopes {
            let _ = writeln!(
                out,
                "{},{},{},{}",
                r.model.label(),
                r.framework.label(),
                esc(scope),
                t
            );
        }
    }
    out
}

/// Renders multi-GPU rows (Fig. 6) as CSV.
pub fn multi_gpu_csv(rows: &[MultiGpuRow]) -> String {
    let mut out = String::from("model,framework,batch_size,n_gpus,epoch_s\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            r.model.label(),
            r.framework.label(),
            r.batch_size,
            r.n_gpus,
            r.epoch_time
        );
    }
    out
}

/// Schema tag stamped into `cell_outcomes.csv` as a leading `# schema:`
/// comment line; bumped on any column change so downstream consumers fail
/// loudly on drift instead of misreading shifted columns.
pub const CELL_OUTCOMES_SCHEMA: &str = "gnn-cell-outcomes/v1";

/// Verifies that `text` (a CSV artifact) starts with the expected
/// `# schema: <tag>` comment line.
///
/// # Errors
///
/// Returns a diagnostic naming the expected and found tags.
pub fn check_csv_schema(text: &str, schema: &str) -> Result<(), String> {
    let expected = format!("# schema: {schema}");
    match text.lines().next() {
        Some(first) if first == expected => Ok(()),
        Some(first) => Err(format!(
            "CSV schema mismatch: expected `{expected}`, found `{first}`"
        )),
        None => Err(format!("empty CSV, expected `{expected}`")),
    }
}

/// Renders per-cell sweep outcomes as CSV: one line per (experiment,
/// dataset, model, framework) cell, with its status, retry count, detail
/// message and the faults that fired while it ran. The first line is a
/// `# schema:` comment ([`CELL_OUTCOMES_SCHEMA`]); consumers should skip
/// `#` lines and may assert the tag via [`check_csv_schema`].
pub fn cell_outcomes_csv(cells: &[CellOutcome]) -> String {
    let mut out = format!("# schema: {CELL_OUTCOMES_SCHEMA}\n");
    out.push_str(
        "experiment,dataset,model,framework,status,retries,detail,faults,peak_mem_bytes\n",
    );
    for c in cells {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            esc(&c.experiment),
            esc(&c.dataset),
            c.model.label(),
            c.framework.label(),
            c.status.label(),
            c.retries,
            esc(&c.detail),
            esc(&c.faults.join("; ")),
            c.peak_memory
        );
    }
    out
}

/// Writes `csv` to `path`, creating parent directories.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv(path: &Path, csv: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, csv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_models::{FrameworkKind, ModelKind};
    use gnn_train::Summary;

    fn t4_row() -> TableRow {
        TableRow {
            dataset: "Cora".into(),
            model: ModelKind::Gcn,
            framework: FrameworkKind::RustyG,
            epoch_time: 0.005,
            total_time: 1.0,
            acc: Summary {
                mean: 80.8,
                std: 1.3,
            },
        }
    }

    #[test]
    fn table_csv_shape() {
        let csv = table_csv(&[t4_row()]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].split(',').count(), 7);
        assert!(lines[1].starts_with("Cora,GCN,PyG,0.005,1,"));
    }

    #[test]
    fn escaping_quotes_and_commas() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a,b"), "\"a,b\"");
        assert_eq!(esc("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn profile_csv_has_all_phases() {
        let row = ProfileRow {
            dataset: "ENZYMES".into(),
            model: ModelKind::Gat,
            framework: FrameworkKind::Rgl,
            batch_size: 128,
            phase_times: [0.01, 0.002, 0.003, 0.001, 0.004],
            peak_memory: 1_000_000,
            utilization: 0.25,
            kind_counts: vec![
                (gnn_device::KernelKind::Gemm, 40),
                (gnn_device::KernelKind::Gather, 12),
            ],
        };
        let csv = profile_csv(std::slice::from_ref(&row));
        let header = csv.lines().next().unwrap();
        for col in [
            "data_load_s",
            "forward_s",
            "backward_s",
            "update_s",
            "other_s",
        ] {
            assert!(header.contains(col), "missing column {col}");
        }
        assert!(csv.contains("ENZYMES,GAT,DGL,128,0.01,"));

        let counts = kernel_counts_csv(&[row]);
        let lines: Vec<&str> = counts.lines().collect();
        assert_eq!(lines[0], "dataset,model,framework,batch_size,kind,count");
        assert_eq!(lines.len(), 3);
        assert!(counts.contains("ENZYMES,GAT,DGL,128,gemm,40"));
        assert!(counts.contains("ENZYMES,GAT,DGL,128,gather,12"));
    }

    #[test]
    fn layer_csv_is_long_format() {
        let row = LayerTimeRow {
            model: ModelKind::Gin,
            framework: FrameworkKind::RustyG,
            scopes: vec![("conv1".into(), 0.001), ("readout".into(), 0.0002)],
        };
        let csv = layer_times_csv(&[row]);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("GIN,PyG,conv1,0.001"));
    }

    #[test]
    fn cell_outcomes_csv_escapes_details() {
        use crate::sweep::{CellOutcome, CellStatus};
        let cells = vec![
            CellOutcome {
                experiment: "table4".into(),
                dataset: "Cora".into(),
                model: ModelKind::Gcn,
                framework: FrameworkKind::RustyG,
                status: CellStatus::Ok,
                detail: String::new(),
                faults: vec![],
                retries: 0,
                peak_memory: 1 << 20,
            },
            CellOutcome {
                experiment: "table5".into(),
                dataset: "ENZYMES".into(),
                model: ModelKind::Gat,
                framework: FrameworkKind::Rgl,
                status: CellStatus::Degraded,
                detail: "device OOM, halving batch size to 16".into(),
                faults: vec!["oom:device OOM allocating 64 B".into()],
                retries: 2,
                peak_memory: 2 << 20,
            },
        ];
        let csv = cell_outcomes_csv(&cells);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], format!("# schema: {CELL_OUTCOMES_SCHEMA}"));
        assert_eq!(lines[1].split(',').count(), 9);
        assert!(lines[1].ends_with(",peak_mem_bytes"));
        assert!(lines[2].starts_with("table4,Cora,GCN,PyG,ok,0,,"));
        assert!(lines[2].ends_with(&format!(",{}", 1 << 20)));
        // The comma-bearing detail must be quoted to keep the column count.
        assert!(lines[3].contains("\"device OOM, halving batch size to 16\""));
        assert!(lines[3].contains("degraded"));
        // Parse-back guard: consumers assert the tag and fail on drift.
        assert!(check_csv_schema(&csv, CELL_OUTCOMES_SCHEMA).is_ok());
        assert!(check_csv_schema(&csv, "gnn-cell-outcomes/v2").is_err());
        assert!(check_csv_schema("", CELL_OUTCOMES_SCHEMA).is_err());
        let err = check_csv_schema("a,b\n1,2\n", CELL_OUTCOMES_SCHEMA).unwrap_err();
        assert!(err.contains(CELL_OUTCOMES_SCHEMA), "{err}");
    }

    #[test]
    fn write_csv_roundtrip() {
        let dir = std::env::temp_dir().join("gnn_export_test");
        let path = dir.join("nested/out.csv");
        write_csv(&path, "a,b\n1,2\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
