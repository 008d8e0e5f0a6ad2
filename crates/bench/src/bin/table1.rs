//! Reproduces Table I: dataset statistics.

use std::process::ExitCode;

use gnn_core::runner;

fn main() -> ExitCode {
    let cfg = gnn_bench::args(env!("CARGO_BIN_NAME")).run_config();
    let run = gnn_bench::Run::train(&cfg);
    println!("Table I — dataset statistics (scale = {})\n", cfg.scale);
    let rows = runner::table1(&cfg);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.num_graphs.to_string(),
                format!("{:.2}", r.avg_nodes),
                format!("{:.2}", r.avg_edges),
                r.feature_dim.to_string(),
                r.num_classes.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        gnn_core::render_table(
            &[
                "Dataset",
                "#Graph",
                "#Nodes(Avg.)",
                "#Edges(Avg.)",
                "#Feature",
                "#Classes"
            ],
            &body
        )
    );
    run.finish()
}
