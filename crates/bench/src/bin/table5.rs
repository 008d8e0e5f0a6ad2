//! Reproduces Table V: graph classification on ENZYMES and DD — per-epoch
//! and total training time plus cross-validated test accuracy.

use std::process::ExitCode;

use gnn_core::{report, runner};

fn main() -> ExitCode {
    let cfg = gnn_bench::args(env!("CARGO_BIN_NAME")).run_config();
    let mut run = gnn_bench::Run::train(&cfg);
    println!(
        "Table V — graph classification (scale = {}, epoch cap = {}, folds = {})\n",
        cfg.scale, cfg.graph_epochs, cfg.folds
    );
    let rows = run.exec(|| runner::table5(&cfg));
    print!("{}", report::table5_report(&rows));
    run.finish()
}
