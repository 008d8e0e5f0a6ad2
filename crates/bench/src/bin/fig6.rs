//! Reproduces Fig. 6: per-epoch time of data-parallel GCN and GAT training
//! on MNIST superpixels across 1/2/4/8 simulated GPUs, batch 128/256/512.

use std::process::ExitCode;

use gnn_core::{report, runner};

fn main() -> ExitCode {
    let cfg = gnn_bench::args(env!("CARGO_BIN_NAME")).run_config();
    let mut run = gnn_bench::Run::train(&cfg);
    println!(
        "Fig. 6 — multi-GPU scaling on MNIST (scale = {})\n",
        cfg.scale
    );
    let rows = run.exec(|| runner::multi_gpu(&cfg));
    print!("{}", report::fig6_report(&rows));
    run.finish()
}
