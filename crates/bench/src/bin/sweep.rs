//! Runs the full fault-isolated paper sweep: every Table IV/V cell (60 in
//! all) under supervised training, finishing the remaining cells even when
//! some fail.
//!
//! This is the chaos-suite entry point: `sweep --faults canonical` must end
//! with every cell `ok` or `degraded`, and `--ckpt <dir>` + `--resume`
//! lets a killed run continue bit-identically. With `--trace <dir>`, the
//! per-cell outcomes (`cell_outcomes.csv`) and both tables (`table4.csv`,
//! `table5.csv`) are also exported next to the usual trace artifacts.
//!
//! Exits nonzero if any cell failed.

use std::process::ExitCode;

use gnn_core::export::{cell_outcomes_csv, table4_csv, table5_csv};
use gnn_core::report::{sweep_report, table4_report, table5_report};
use gnn_core::CellStatus;

fn main() -> ExitCode {
    let cfg = gnn_bench::args(env!("CARGO_BIN_NAME")).run_config();
    let mut run = gnn_bench::Run::train(&cfg);
    println!(
        "Fault-isolated sweep (scale = {}, node epochs = {}, graph epochs = {}, faults = {})\n",
        cfg.scale,
        cfg.node_epochs,
        cfg.graph_epochs,
        if cfg.faults.is_some() { "armed" } else { "off" },
    );
    let out = run.exec(|| gnn_core::sweep(&cfg));
    print!("{}", table4_report(&out.table4));
    println!();
    print!("{}", table5_report(&out.table5));
    println!();
    print!("{}", sweep_report(&out));
    if let Some(dir) = run.trace_dir().map(std::path::Path::to_path_buf) {
        run.write(
            "cells",
            dir.join("cell_outcomes.csv"),
            &cell_outcomes_csv(&out.cells),
        );
        run.write("table4", dir.join("table4.csv"), &table4_csv(&out.table4));
        run.write("table5", dir.join("table5.csv"), &table5_csv(&out.table5));
    }
    let failed = out
        .cells
        .iter()
        .filter(|c| c.status == CellStatus::Failed)
        .count();
    if failed > 0 {
        run.error(format!("{failed} cell(s) failed"));
    }
    run.finish()
}
