//! Prints the experiment index: every table/figure of the paper mapped to
//! its workload, implementing modules, and regenerating command.

use gnn_core::experiments::EXPERIMENTS;

fn main() {
    gnn_bench::args(env!("CARGO_BIN_NAME"));
    println!("Experiment index — \"Performance Analysis of GNN Frameworks\" (ISPASS 2021)\n");
    for e in &EXPERIMENTS {
        println!("{:?} ({})", e.id, e.paper_ref);
        println!("  workload: {}", e.workload);
        println!("  modules:  {}", e.modules);
        println!("  command:  {}", e.command);
        println!();
    }
}
