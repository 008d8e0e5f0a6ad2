//! Reproduces Figs. 1 and 2: execution-time breakdown per epoch (data
//! loading / forward / backward / update / other) for six models under both
//! frameworks at batch sizes 64/128/256. `--dataset enzymes` gives Fig. 1,
//! `--dataset dd` gives Fig. 2.

use std::process::ExitCode;

use gnn_core::export::kernel_counts_csv;
use gnn_core::runner::GraphDs;
use gnn_core::{report, runner};

fn main() -> ExitCode {
    let args = gnn_bench::args(env!("CARGO_BIN_NAME"));
    let cfg = args.run_config();
    let ds = args.dataset.unwrap_or(GraphDs::Enzymes);
    let fig = match ds {
        GraphDs::Dd => "Fig. 2 (DD)",
        _ => "Fig. 1 (ENZYMES)",
    };
    let mut run = gnn_bench::Run::train(&cfg);
    println!("{fig} — epoch-time breakdown (scale = {})\n", cfg.scale);
    let rows = run.exec(|| runner::profile_sweep(&cfg, ds));
    print!("{}", report::breakdown_report(&rows));
    if let Some(dir) = run.trace_dir() {
        let path = dir.join("kernel_counts.csv");
        run.write("kernels", path, &kernel_counts_csv(&rows));
    }
    run.finish()
}
