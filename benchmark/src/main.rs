//! Host wall-clock benchmark of the GNN framework study.
//!
//! Single process, single thread. Every workload is a fixed amount of work
//! per round, driven through the crates' public entry points and timed from
//! outside; see `README.md` next to this package for the metrics, the
//! workloads and how they are predicted to interact.

mod alloc;
mod compare;
mod digest;
mod layers;
mod metrics;
mod micro;
mod procfs;
mod run;
mod span;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};

use gnn_obs::json::{parse, Value};

use metrics::{Metric, END_TO_END, PER_LAYER};
use run::RunOutput;
use workloads::graph::GraphMinibatch;
use workloads::node::NodeFullbatch;
use workloads::sampled::SampledRmat;
use workloads::serve::{ServeFleet, ServeSingle};
use workloads::WORKLOADS;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: gnn-hostbench run --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
       gnn-hostbench all [--seed N] [--seconds S] [--runs R] [--trace] [--out FILE]
       gnn-hostbench compare <a.json> <b.json>
       gnn-hostbench --list
       gnn-hostbench --check";

/// Where `--trace` writes `<workload>.trace.json`: `out/` in this package.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        runs: 1,
        out: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => o.workload = Some(value(&mut i)?.clone()),
            "--seed" => {
                o.seed = value(&mut i)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                o.seconds = value(&mut i)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?;
            }
            "--runs" => {
                o.runs = value(&mut i)?
                    .parse()
                    .ok()
                    .filter(|r| (1..=100).contains(r))
                    .ok_or("--runs takes a whole number in 1..=100")?;
            }
            "--out" => o.out = Some(value(&mut i)?.clone()),
            // A bare `--trace` turns tracing on; `--trace 0|1` sets it.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    o.trace = false;
                    i += 1;
                }
                Some("1") => {
                    o.trace = true;
                    i += 1;
                }
                _ => o.trace = true,
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(o)
}

/// Runs `name` in this process: checks only, or one measured run.
fn run_workload(name: &str, o: &Options, check_only: bool) -> Result<RunOutput, String> {
    fn go<W: workloads::Workload>(
        name: &str,
        o: &Options,
        check_only: bool,
    ) -> Result<RunOutput, String> {
        if check_only {
            return Ok(run::check::<W>(o.seed));
        }
        if !o.trace {
            return Ok(run::end_to_end::<W>(o.seed, o.seconds));
        }
        let (out, trace) = run::per_layer::<W>(name, o.seed, o.seconds);
        let path = format!("{OUT_DIR}/{name}.trace.json");
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, trace))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("  trace written to {path}");
        Ok(out)
    }
    match name {
        "node_fullbatch" => go::<NodeFullbatch>(name, o, check_only),
        "graph_minibatch" => go::<GraphMinibatch>(name, o, check_only),
        "sampled_rmat" => go::<SampledRmat>(name, o, check_only),
        "serve_single" => go::<ServeSingle>(name, o, check_only),
        "serve_fleet" => go::<ServeFleet>(name, o, check_only),
        other => Err(format!(
            "unknown workload `{other}`; --list names the workloads"
        )),
    }
}

fn result_line(out: &RunOutput) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|(m, v)| {
            // A non-finite value would print as `null`; a metric that could
            // not be computed reads 0 and fails the run instead.
            let value = if v.is_finite() { *v } else { 0.0 };
            let entry = vec![
                ("value".to_owned(), Value::Num(value)),
                ("unit".to_owned(), Value::from(m.unit)),
            ];
            (m.name.to_owned(), Value::Obj(entry))
        })
        .collect();
    Value::Obj(vec![
        ("correct".to_owned(), Value::Bool(out.correct)),
        ("attempted".to_owned(), Value::from(out.attempted)),
        ("failed".to_owned(), Value::from(out.failed)),
        ("metrics".to_owned(), Value::Obj(metrics)),
    ])
    .to_json()
}

fn cmd_run(o: &Options) -> Result<ExitCode, String> {
    let name = o.workload.as_deref().ok_or("run needs --workload <name>")?;
    println!(
        "workload {name}, seed {}, {} s of rounds, {}",
        o.seed,
        o.seconds,
        if o.trace { "traced" } else { "untraced" }
    );
    let mut out = run_workload(name, o, false)?;
    if out.metrics.iter().any(|(_, v)| !v.is_finite()) {
        out.correct = false;
        out.notes
            .push("  CHECK FAILED a metric is not a finite number".to_owned());
    }
    for (m, v) in &out.metrics {
        println!("  {:<36} {:>16.6} {}", m.name, v, m.unit);
    }
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "  operations: {} attempted, {} failed; checks {}",
        out.attempted,
        out.failed,
        if out.correct { "passed" } else { "FAILED" }
    );
    println!("sim_digest {:016x}", out.sim_digest);
    println!("{}", result_line(&out));
    Ok(if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, each in a process of its own so that `VmHWM` is per
/// workload, `--runs` times over; optionally collected into one file.
fn cmd_all(o: &Options) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        for trace in if o.trace { vec![0u64, 1] } else { vec![0] } {
            for _ in 0..o.runs {
                let output = Command::new(&exe)
                    .args(["run", "--workload", name])
                    .args(["--seed", &o.seed.to_string()])
                    .args(["--seconds", &o.seconds.to_string()])
                    .args(["--trace", &trace.to_string()])
                    .output()
                    .map_err(|e| format!("spawning {name}: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                let line = stdout.lines().last().unwrap_or_default();
                let result = parse(line).map_err(|e| format!("{name}: result line: {e}"))?;
                let digest = stdout
                    .lines()
                    .find_map(|l| l.strip_prefix("sim_digest "))
                    .ok_or_else(|| format!("{name}: no sim_digest line"))?;
                all_correct &=
                    output.status.success() && result.get("correct") == Some(&Value::Bool(true));
                let mut members = vec![
                    ("workload".to_owned(), Value::from(name)),
                    ("seed".to_owned(), Value::from(o.seed)),
                    ("trace".to_owned(), Value::from(trace)),
                    ("sim_digest".to_owned(), Value::from(digest)),
                ];
                members.extend(result.as_obj().unwrap_or_default().iter().cloned());
                runs.push(Value::Obj(members));
            }
        }
    }
    if let Some(path) = &o.out {
        let doc = Value::Obj(vec![
            ("schema".to_owned(), Value::from("gnn-hostbench/v1")),
            ("seed".to_owned(), Value::from(o.seed)),
            ("seconds".to_owned(), Value::Num(o.seconds)),
            ("runs".to_owned(), Value::Arr(runs)),
            // This benchmark states what was measured; it claims no gain.
            ("claim".to_owned(), Value::Null),
        ]);
        std::fs::write(path, doc.to_json() + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("results written to {path}");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<16} {why}");
    }
    let row = |m: &Metric| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", bound {:.0} %", b * 100.0));
        println!(
            "  {:<36} [{}; {} is better{bound}] {}",
            m.name,
            m.unit,
            m.better.label(),
            m.what
        );
    };
    println!("end-to-end metrics (untraced run):");
    END_TO_END.iter().for_each(row);
    println!("per-layer metrics (--trace run):");
    PER_LAYER.iter().for_each(row);
}

/// One set-up and two rounds per workload at seed 0, checks only.
fn cmd_check() -> Result<ExitCode, String> {
    let o = parse_options(&[])?;
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let out = run_workload(name, &o, true)?;
        println!(
            "{name:<16} {} ({} operations attempted, {} failed)",
            if out.correct { "ok" } else { "FAILED" },
            out.attempted,
            out.failed
        );
        out.notes.iter().for_each(|note| println!("{note}"));
        ok &= out.correct;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = args.split_first().ok_or("no command")?;
    match cmd.as_str() {
        "run" => cmd_run(&parse_options(rest)?),
        "all" => cmd_all(&parse_options(rest)?),
        "compare" => match rest {
            [a, b] => {
                let (table, any_worse) = compare::compare(a, b)?;
                print!("{table}");
                Ok(if any_worse {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                })
            }
            _ => Err("compare takes two result files".to_owned()),
        },
        "--list" => {
            cmd_list();
            Ok(ExitCode::SUCCESS)
        }
        "--check" => cmd_check(),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    if !alloc::pin_malloc_thresholds() {
        eprintln!("note: malloc thresholds not pinned (not glibc); timings may be bimodal");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let o = parse_options(&args(&[
            "--workload",
            "serve_fleet",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(o.workload.as_deref(), Some("serve_fleet"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
        let o = parse_options(&args(&["--trace", "0", "--seed", "3"])).expect("valid");
        assert_eq!((o.seed, o.trace), (3, false));
        // A bare flag, as the README writes it.
        let o = parse_options(&args(&["--trace", "--seed", "3"])).expect("valid");
        assert_eq!((o.seed, o.trace), (3, true));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--runs", "0"],
            &["--frobnicate"],
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad:?}");
        }
        let o = parse_options(&[]).expect("defaults");
        assert!(run_workload("no_such_workload", &o, true).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let out = RunOutput {
            correct: true,
            attempted: 12,
            failed: 0,
            sim_digest: 0,
            metrics: vec![(&END_TO_END[0], 1.25), (&END_TO_END[1], f64::NAN)],
            notes: Vec::new(),
        };
        let doc = parse(&result_line(&out)).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(12));
        let metric = doc.get("metrics").and_then(|m| m.get("items_per_s"));
        assert_eq!(
            metric.and_then(|m| m.get("value")).and_then(Value::as_f64),
            Some(1.25)
        );
        assert_eq!(
            metric.and_then(|m| m.get("unit")).and_then(Value::as_str),
            Some("items/s")
        );
        // A value that is not a number never reaches the line as `null`.
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s"));
        assert_eq!(
            setup.and_then(|m| m.get("value")).and_then(Value::as_f64),
            Some(0.0)
        );
    }
}
