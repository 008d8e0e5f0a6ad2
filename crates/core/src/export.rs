//! The columns of every table and figure, each declared once as a
//! [`Table`] over a runner's row type: its CSV (for downstream plotting)
//! and the table `gnn-bench` prints ([`Table::text`]) both come from it.
//! Fields are stable, machine-readable column names; times are seconds,
//! memory is bytes, utilization is a fraction.

use gnn_datasets::DatasetStats;
use gnn_device::KernelKind;
use gnn_models::{FrameworkKind, ModelKind};
use gnn_obs::{Column, Table};

use crate::runner::{LayerTimeRow, MultiGpuRow, ProfileRow, TableRow};
use crate::sweep::CellOutcome;

/// Table I: one row per dataset.
pub const TABLE1: Table<DatasetStats> = Table {
    schema: None,
    columns: &[
        Column::new("dataset", |r| r.name.as_str().into()),
        Column::new("graphs", |r| r.num_graphs.into()),
        Column::fixed("avg_nodes", 2, |r| r.avg_nodes.into()),
        Column::fixed("avg_edges", 2, |r| r.avg_edges.into()),
        Column::new("features", |r| r.feature_dim.into()),
        Column::new("classes", |r| r.num_classes.into()),
    ],
};

/// Table IV or Table V: one row per (dataset, model, framework) cell.
pub const TABLE_ROWS: Table<TableRow> = Table {
    schema: None,
    columns: &[
        Column::new("dataset", |r| r.dataset.as_str().into()),
        Column::new("model", |r| r.model.label().into()),
        Column::new("framework", |r| r.framework.label().into()),
        Column::new("epoch_s", |r| r.epoch_time.into()),
        Column::new("total_s", |r| r.total_time.into()),
        Column::new("acc_mean", |r| r.acc.mean.into()),
        Column::new("acc_std", |r| r.acc.std.into()),
    ],
};

/// The profile sweep behind Figs. 1/2 (phase breakdown) and Figs. 4/5
/// (peak memory, utilization): one row per configuration.
pub const PROFILE: Table<ProfileRow> = Table {
    schema: None,
    columns: &[
        Column::new("dataset", |r| r.dataset.as_str().into()),
        Column::new("model", |r| r.model.label().into()),
        Column::new("framework", |r| r.framework.label().into()),
        Column::new("batch_size", |r| r.batch_size.into()),
        Column::new("data_load_s", |r| r.phase_times[0].into()),
        Column::new("forward_s", |r| r.phase_times[1].into()),
        Column::new("backward_s", |r| r.phase_times[2].into()),
        Column::new("update_s", |r| r.phase_times[3].into()),
        Column::new("other_s", |r| r.phase_times[4].into()),
        Column::new("epoch_s", |r| r.epoch_time().into()),
        Column::new("peak_memory_bytes", |r| r.peak_memory.into()),
        Column::new("utilization", |r| r.utilization.into()),
    ],
};

/// Fig. 6: one row per (model, framework, batch size, GPU count).
pub const MULTI_GPU: Table<MultiGpuRow> = Table {
    schema: None,
    columns: &[
        Column::new("model", |r| r.model.label().into()),
        Column::new("framework", |r| r.framework.label().into()),
        Column::new("batch_size", |r| r.batch_size.into()),
        Column::new("n_gpus", |r| r.n_gpus.into()),
        Column::new("epoch_s", |r| r.epoch_time.into()),
    ],
};

/// Fig. 3 in long format: one row per (model, framework, layer scope),
/// as [`layer_time_rows`] lists them.
pub const LAYER_TIMES: Table<(ModelKind, FrameworkKind, String, f64)> = Table {
    schema: None,
    columns: &[
        Column::new("model", |(model, ..)| model.label().into()),
        Column::new("framework", |(_, framework, ..)| framework.label().into()),
        Column::new("scope", |(_, _, scope, _)| scope.as_str().into()),
        Column::new("seconds", |&(.., t)| t.into()),
    ],
};

/// The [`LAYER_TIMES`] rows of `rows`.
pub fn layer_time_rows(
    rows: &[LayerTimeRow],
) -> impl Iterator<Item = (ModelKind, FrameworkKind, String, f64)> + '_ {
    rows.iter()
        .flat_map(|r| (r.scopes.iter()).map(|(scope, t)| (r.model, r.framework, scope.clone(), *t)))
}

/// Renders per-kind kernel launch counts from profile-sweep rows as
/// long-format CSV: one line per (configuration, kernel kind).
pub fn kernel_counts_csv(rows: &[ProfileRow]) -> String {
    let table: Table<(&ProfileRow, KernelKind, u64)> = Table {
        schema: None,
        columns: &[
            Column::new("dataset", |(r, ..)| r.dataset.as_str().into()),
            Column::new("model", |(r, ..)| r.model.label().into()),
            Column::new("framework", |(r, ..)| r.framework.label().into()),
            Column::new("batch_size", |(r, ..)| r.batch_size.into()),
            Column::new("kind", |(_, kind, _)| kind.label().into()),
            Column::new("count", |&(.., count)| count.into()),
        ],
    };
    table.csv(
        rows.iter()
            .flat_map(|r| r.kind_counts.iter().map(move |&(kind, n)| (r, kind, n))),
    )
}

/// Schema tag stamped into `cell_outcomes.csv` as a leading `# schema:`
/// comment line; bumped on any column change so downstream consumers fail
/// loudly on drift instead of misreading shifted columns.
pub const CELL_OUTCOMES_SCHEMA: &str = "gnn-cell-outcomes/v1";

/// `cell_outcomes.csv`: one line per (experiment, dataset, model,
/// framework) cell, with its status, retry count, detail message and the
/// faults that fired while it ran, under a `# schema:` comment
/// ([`CELL_OUTCOMES_SCHEMA`]); consumers should skip `#` lines.
pub const CELL_OUTCOMES: Table<CellOutcome> = Table {
    schema: Some(CELL_OUTCOMES_SCHEMA),
    columns: &[
        Column::new("experiment", |c| c.experiment.as_str().into()),
        Column::new("dataset", |c| c.dataset.as_str().into()),
        Column::new("model", |c| c.model.label().into()),
        Column::new("framework", |c| c.framework.label().into()),
        Column::new("status", |c| c.status.label().into()),
        Column::new("retries", |c| c.retries.into()),
        Column::new("detail", |c| c.detail.as_str().into()),
        Column::new("faults", |c| c.faults.join("; ").into()),
        Column::new("peak_mem_bytes", |c| c.peak_memory.into()),
    ],
};

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
        let csv = TABLE_ROWS.csv(&[t4_row()]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].split(',').count(), 7);
        assert!(lines[1].starts_with("Cora,GCN,PyG,0.005,1,"));
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
        let csv = PROFILE.csv(std::slice::from_ref(&row));
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
        let csv = LAYER_TIMES.csv(layer_time_rows(&[row]));
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
        let csv = CELL_OUTCOMES.csv(&cells);
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
        // The header is the writer's column list, under the schema line.
        assert!(csv.starts_with(&CELL_OUTCOMES.header()));
    }
}
