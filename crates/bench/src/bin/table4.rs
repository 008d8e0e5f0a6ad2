//! Reproduces Table IV: node classification on Cora and PubMed — per-epoch
//! and total training time plus test accuracy for six models under both
//! frameworks.

use std::process::ExitCode;

use gnn_core::{report, runner};

fn main() -> ExitCode {
    let cfg = gnn_bench::args(env!("CARGO_BIN_NAME")).run_config();
    let mut run = gnn_bench::Run::train(&cfg);
    println!(
        "Table IV — node classification (scale = {}, epochs = {}, seeds = {})\n",
        cfg.scale, cfg.node_epochs, cfg.seeds
    );
    let rows = run.exec(|| runner::table4(&cfg));
    print!("{}", report::table4_report(&rows));
    run.finish()
}
