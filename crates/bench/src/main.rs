//! `gnn-bench <command> [flags]`: every table, figure, harness and the
//! static analyzer of the study behind one executable. `gnn-bench --help`
//! lists the commands, `gnn-bench <command> --help` a command's flags.

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    gnn_bench::cli::main(&argv)
}
