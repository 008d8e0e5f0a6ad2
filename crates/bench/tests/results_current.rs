//! The checked-in `results/*.txt` files are the stdout of the commands the
//! experiment registry names for them. Every file must exist and start with
//! its command line; the two cheap ones (`table1`, `fig3`, a few seconds
//! each) are re-run here and compared byte for byte, so a change that moves
//! a printed number must regenerate `results/` in the same commit. The
//! longer ones are regenerated the same way by hand or in CI.

use std::process::Command;

use gnn_core::experiments::{Output, EXPERIMENTS};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn outputs() -> impl Iterator<Item = &'static Output> {
    EXPERIMENTS.iter().flat_map(|e| e.outputs)
}

fn read(out: &Output) -> String {
    std::fs::read_to_string(format!("{ROOT}/{}", out.file))
        .unwrap_or_else(|e| panic!("{}: {e}; regenerate it: {}", out.file, regenerate(out)))
}

/// The shell line that rewrites `out.file` from the repository root.
fn regenerate(out: &Output) -> String {
    let argv = out.command.strip_prefix("gnn-bench ").unwrap();
    format!("cargo run --release -p gnn-bench -- {argv} > {}", out.file)
}

#[test]
fn every_results_file_starts_with_its_command() {
    let mut files = 0;
    for out in outputs() {
        let text = read(out);
        assert_eq!(
            text.lines().next(),
            Some(out.command),
            "{} does not start with `{}`; regenerate it: {}",
            out.file,
            out.command,
            regenerate(out)
        );
        files += 1;
    }
    assert!(files >= 9, "only {files} registry outputs");
}

#[test]
fn cheap_results_match_a_fresh_run() {
    for name in ["results/table1.txt", "results/fig3.txt"] {
        let out = outputs().find(|o| o.file == name).unwrap();
        let argv: Vec<&str> = out.command.split_whitespace().skip(1).collect();
        let run = Command::new(env!("CARGO_BIN_EXE_gnn-bench"))
            .args(&argv)
            .output()
            .unwrap();
        assert!(run.status.success(), "`{}` failed", out.command);
        let fresh = String::from_utf8(run.stdout).unwrap();
        assert!(
            fresh == read(out),
            "{} is not the stdout of `{}`; regenerate it: {}",
            out.file,
            out.command,
            regenerate(out)
        );
    }
}
