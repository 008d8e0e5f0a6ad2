//! Reproduces Figs. 4 and 5: peak device memory and GPU compute utilization
//! of six models under both frameworks on ENZYMES and DD, batch 64/128/256.
//! `--metric memory` or `--metric utilization` filters the columns.

use std::process::ExitCode;

use gnn_core::export::kernel_counts_csv;
use gnn_core::report::ResourceMetric;
use gnn_core::runner::GraphDs;
use gnn_core::{report, runner};

fn main() -> ExitCode {
    let args = gnn_bench::args(env!("CARGO_BIN_NAME"));
    let cfg = args.run_config();
    let which = args.metric.unwrap_or(ResourceMetric::Both);
    let metric = match which {
        ResourceMetric::Memory => "memory",
        ResourceMetric::Utilization => "utilization",
        ResourceMetric::Both => "both",
    };
    let mut run = gnn_bench::Run::train(&cfg);
    println!(
        "Figs. 4/5 — {metric} (scale = {}, batch sizes = {:?})\n",
        cfg.scale, cfg.batch_sizes
    );
    let rows = run.exec(|| {
        let mut rows = runner::profile_sweep(&cfg, GraphDs::Enzymes);
        rows.extend(runner::profile_sweep(&cfg, GraphDs::Dd));
        rows
    });
    print!("{}", report::resources_report_filtered(&rows, which));
    if let Some(dir) = run.trace_dir() {
        let path = dir.join("kernel_counts.csv");
        run.write("kernels", path, &kernel_counts_csv(&rows));
    }
    run.finish()
}
