//! Standalone static analyzer for the paper sweep.
//!
//! ```text
//! gnn-lint [--smoke|--quick|--full] [--scale F] [--seed N] [--faults P] [--json DIR]
//! ```
//!
//! Lints every cell, dataset, and schedule the selected configuration would
//! run — including the memory certification of all 60 cells — prints the
//! report, and exits non-zero if any finding survives. CI's `lint-clean`
//! job is exactly `gnn-lint --full`; its `lint-mem` job adds `--faults
//! canonical` and diffs `memory.json` across reruns.

use std::process::ExitCode;

use gnn_core::RunConfig;
use gnn_faults::FaultPlan;
use gnn_lint::lint_and_export;

const USAGE: &str =
    "usage: gnn-lint [--smoke|--quick|--full] [--scale F] [--seed N] [--faults P] [--json DIR]

  --smoke      lint at smoke-test scale (default)
  --quick      lint at laptop scale
  --full       lint at paper scale
  --scale F    override the dataset scale, 0 < F <= 1
  --seed N     override the base RNG seed
  --faults P   audit a fault plan against the run: canonical, canonical-fleet,
               seeded:N or a plan file (the same operand every gnn-bench binary takes)
  --json DIR   additionally write DIR/lint.json and DIR/memory.json";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig::smoke();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => cfg = RunConfig::smoke(),
            "--quick" => cfg = RunConfig::quick(),
            "--full" => cfg = RunConfig::paper(),
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                let scale: f64 = v.parse().map_err(|_| format!("bad scale '{v}'"))?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(format!("scale {scale} out of (0, 1]"));
                }
                cfg.scale = scale;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                cfg.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--faults" => {
                let v = it.next().ok_or("--faults needs a plan")?;
                cfg = cfg.with_faults(FaultPlan::from_spec(v)?);
            }
            "--json" => {
                let dir = it.next().ok_or("--json needs a directory")?;
                cfg = cfg.with_trace(dir);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("gnn-lint: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = lint_and_export(&cfg);
    print!("{report}");
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
