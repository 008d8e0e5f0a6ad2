//! Reproduces Fig. 3: layer-wise execution time of training one ENZYMES
//! batch (conv1..conv4 + readout) for six models under both frameworks.

use std::process::ExitCode;

use gnn_core::{report, runner};

fn main() -> ExitCode {
    let cfg = gnn_bench::args(env!("CARGO_BIN_NAME")).run_config();
    let mut run = gnn_bench::Run::train(&cfg);
    println!(
        "Fig. 3 — layer-wise execution time, one ENZYMES batch (scale = {})\n",
        cfg.scale
    );
    let rows = run.exec(|| runner::layer_times(&cfg));
    print!("{}", report::layer_report(&rows));
    run.finish()
}
