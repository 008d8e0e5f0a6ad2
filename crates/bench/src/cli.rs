//! The command and flag tables behind `gnn-bench <command> [flags]`.
//!
//! Every flag any command takes is one row of [`FLAGS`]: its spelling, its
//! operand, one line of help, and the code that parses and checks the
//! operand into [`Args`]. Every command is one row of [`COMMANDS`]: its
//! name, one line of help, the function that runs it, and the flags it
//! reads; [`parse`] refuses any other flag by name, so no command accepts
//! a flag it would ignore, and [`usage`] renders a command's help from the
//! same rows. Flags do not depend on their order: a
//! preset (`--quick|--full|--smoke`) picks the base configuration and
//! every other flag overrides it wherever it stands. A flag given twice,
//! or two flags that set the same thing (`--endpoints` and
//! `--all-endpoints`), are refused.
//!
//! Defaults are not part of the table: an [`Args`] field is `None` unless
//! its flag was given, and the builders below fill the rest from each
//! configuration's own `Default`.

use std::path::PathBuf;
use std::process::ExitCode;

use gnn_core::runner::GraphDs;
use gnn_core::{RunConfig, TraceConfig};
use gnn_faults::FaultPlan;
use gnn_sample::SampleSpec;
use gnn_serve::{
    BatchPolicy, CellId, FleetConfig, FleetWorkload, RoutingPolicy, ServeConfig, WorkloadKind,
};

use crate::commands;
use crate::report::{default_policies, ReportConfig};
use crate::sample::SampleConfig;
use crate::whatif::WhatIfConfig;

/// One command-line flag.
pub struct Flag {
    /// Spelling, e.g. `--scale`.
    pub name: &'static str,
    /// Operand placeholder in the usage text; empty for a switch.
    pub operand: &'static str,
    /// One line of help.
    pub help: &'static str,
    /// Parses and checks the operand (`""` for a switch) into [`Args`].
    set: fn(&mut Args, &str) -> Result<(), String>,
}

const fn row(
    name: &'static str,
    operand: &'static str,
    help: &'static str,
    set: fn(&mut Args, &str) -> Result<(), String>,
) -> Flag {
    Flag {
        name,
        operand,
        help,
        set,
    }
}

/// Every flag of every `gnn-bench` command: spelling, operand (empty for a
/// switch), help, and the parse-and-check that stores it in [`Args`].
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    // The training configuration (`RunConfig`).
    row("--quick", "", "laptop scale: ~15% datasets, short training (default except for lint)",
        |a, _| fill(&mut a.preset, RunConfig::quick(), "another preset")),
    row("--full", "", "paper scale: full datasets, 200 node epochs, 10 folds",
        |a, _| fill(&mut a.preset, RunConfig::paper(), "another preset")),
    row("--smoke", "", "smoke-test scale: 5% datasets, a few epochs",
        |a, _| fill(&mut a.preset, RunConfig::smoke(), "another preset")),
    row("--scale", "f", "dataset scale in (0, 1]",
        |a, v| set(&mut a.scale, fraction(v))),
    row("--seed", "n", "base RNG seed",
        |a, v| set(&mut a.seed, num(v))),
    row("--epochs", "n", "training epochs (a cap per task for the tables and figures)",
        |a, v| set(&mut a.epochs, positive(v))),
    row("--folds", "n", "cross-validation folds trained per graph cell",
        |a, v| set(&mut a.folds, positive(v))),
    row("--seeds", "n", "seeds trained per node cell",
        |a, v| set(&mut a.seeds, positive(v))),
    row("--dataset", "enzymes|dd", "dataset of the breakdown (Fig. 1 or Fig. 2)",
        |a, v| set(&mut a.dataset, one_of(v, &[
            ("enzymes", GraphDs::Enzymes),
            ("dd", GraphDs::Dd),
        ]))),
    // The run harness (`crate::Run`).
    row("--trace", "dir", "write trace.json, metrics.jsonl and the run's other artifacts into dir",
        |a, v| set(&mut a.trace, artifact_dir(v))),
    row("--lint", "", "gnn-lint what is about to run; refuse to start on any finding",
        |a, _| on(&mut a.lint)),
    row("--faults", "plan", "fault plan: canonical, canonical-fleet, seeded:<n> or a file",
        |a, v| set(&mut a.faults, FaultPlan::from_spec(v))),
    row("--ckpt", "dir", "sweep writes per-cell checkpoints here; serve/fleet load them",
        |a, v| set(&mut a.ckpt, artifact_dir(v))),
    row("--resume", "", "restore cells from their checkpoints (default --ckpt out/ckpt)",
        |a, _| on(&mut a.resume)),
    // Serving (`ServeConfig`, `FleetConfig`).
    row("--endpoints", "cell,...", "cells to serve (default: the six representative ones)",
        |a, v| {
            let given = v.split(',').map(str::to_owned).collect();
            fill(&mut a.endpoints, given, "--all-endpoints")
        }),
    row("--all-endpoints", "", "serve all 60 sweep cells",
        |a, _| {
            let all = CellId::all().iter().map(CellId::path).collect();
            fill(&mut a.endpoints, all, "--endpoints")
        }),
    row("--policies", "b@us,...", "batching policies to sweep: <max_batch>@<max_delay_us>",
        |a, v| set(&mut a.policies, list(v, policy))),
    row("--policy", "b@us", "the fleet's batching policy",
        |a, v| set(&mut a.policy, policy(v))),
    row("--requests", "n", "requests per policy run",
        |a, v| set(&mut a.requests, num(v))),
    row("--rate", "req/s", "arrival rate per simulated second",
        |a, v| set(&mut a.rate, num(v))),
    row("--queue-cap", "n", "per-endpoint queue capacity",
        |a, v| set(&mut a.queue_cap, num(v))),
    row("--replicas", "n", "device replicas (per shard for fleet)",
        |a, v| set(&mut a.replicas, num(v))),
    row("--shards", "n", "endpoint shards",
        |a, v| set(&mut a.shards, num(v))),
    row("--routing", "p,...", "routing policies to sweep: consistent-hash, least-loaded",
        |a, v| set(&mut a.routing, list(v, routing))),
    row("--admission-cap", "n", "per-shard admission cap",
        |a, v| set(&mut a.admission_cap, num(v))),
    row("--retry-budget", "frac", "retry/hedge tokens earned per primary admission",
        |a, v| set(&mut a.retry_budget, num(v))),
    row("--hedge-after", "us|off", "hedge a request queued this long onto a second shard",
        |a, v| set(&mut a.hedge_after, if v == "off" { Ok(None) } else { micros(v).map(Some) })),
    row("--no-autoscale", "", "pin every shard's replica count",
        |a, _| on(&mut a.no_autoscale)),
    row("--slo-ms", "ms", "latency SLO target",
        |a, v| set(&mut a.slo, millis(v))),
    row("--workload", "kind",
        "open | diurnal[:<period_ms>@<amp>] | flash[:<at_ms>@<width_ms>@<x>] | closed:<c>@<us>",
        |a, v| set(&mut a.workload, workload(v))),
    // Sampled training (`SampleConfig`).
    row("--specs", "name,...", "RMAT catalog specs to sweep (default rmat-1m)",
        |a, v| set(&mut a.specs, list(v, spec))),
    row("--fanouts", "AxB,...", "fan-out schedules to sweep (default: each spec's own)",
        |a, v| set(&mut a.fanouts, list(v, |s| s.split('x').map(num).collect()))),
    row("--cache-rows", "n,...", "feature-cache sizes to sweep (default: each spec's own)",
        |a, v| set(&mut a.cache_rows, list(v, num))),
    // Documents (`report`, `whatif`, `sample`).
    row("--out", "path", "where the run's document is written",
        |a, v| set(&mut a.out, artifact_path(v))),
    row("--baseline", "path", "report to diff against (default: see `report` docs)",
        |a, v| set(&mut a.baseline, Ok(v.into()))),
    row("--threshold", "frac", "regression threshold of the diff (default 0.05)",
        |a, v| set(&mut a.threshold, non_negative(v))),
    row("--no-diff", "", "write the report without diffing it",
        |a, _| on(&mut a.no_diff)),
    row("--cells", "cell,...", "cells to profile (default: the six representative ones)",
        |a, v| fill(&mut a.cells, list(v, cell)?, "--all-cells")),
    row("--all-cells", "", "profile all 60 sweep cells",
        |a, _| fill(&mut a.cells, CellId::all().to_vec(), "--cells")),
    row("--conformance", "", "re-run sampled predictions for real; fail on any mismatch",
        |a, _| on(&mut a.conformance)),
];

/// One `gnn-bench` command: what it does, what runs it, and the flags it
/// reads.
pub struct Command {
    /// Command name, e.g. `table4`.
    pub name: &'static str,
    /// One line of help for `gnn-bench --help`.
    pub about: &'static str,
    /// The command's body.
    pub run: fn(Args) -> ExitCode,
    /// The [`FLAGS`] rows the command reads, space-separated, in usage
    /// order.
    pub flags: &'static str,
}

const fn cmd(
    name: &'static str,
    about: &'static str,
    run: fn(Args) -> ExitCode,
    flags: &'static str,
) -> Command {
    Command {
        name,
        about,
        run,
        flags,
    }
}

/// Every `gnn-bench` command and the flags it reads.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    cmd("table1", "Table I: dataset statistics", commands::table1,
        "--quick --full --smoke --scale --seed --lint"),
    cmd("table4", "Table IV: node classification time and accuracy", commands::table4,
        "--quick --full --smoke --scale --seed --epochs --seeds --trace --lint --faults"),
    cmd("table5", "Table V: graph classification time and accuracy", commands::table5,
        "--quick --full --smoke --scale --seed --epochs --folds --trace --lint --faults"),
    cmd("fig1_2", "Figs. 1-2, 4-5: epoch-time breakdown, memory, utilization on ENZYMES or DD",
        commands::fig1_2,
        "--quick --full --smoke --scale --seed --epochs --dataset --trace --lint --faults"),
    cmd("fig3", "Fig. 3: layer-wise execution time of one ENZYMES batch", commands::fig3,
        "--quick --full --smoke --scale --seed --trace --lint"),
    cmd("fig6", "Fig. 6: multi-GPU scaling of GCN/GAT on MNIST", commands::fig6,
        "--quick --full --smoke --scale --seed --trace --lint"),
    cmd("sweep", "Fault-isolated sweep over all 60 cells", commands::sweep,
        "--quick --full --smoke --scale --seed --epochs --folds --seeds \
         --trace --lint --faults --ckpt --resume"),
    cmd("serve", "Inference serving: batching-policy sweep over trained cells", commands::serve,
        "--endpoints --all-endpoints --policies --requests --rate --seed --scale \
         --queue-cap --replicas --ckpt --trace --lint --faults"),
    cmd("fleet", "Fleet serving: routing-policy sweep over sharded endpoints under chaos",
        commands::fleet,
        "--endpoints --all-endpoints --shards --replicas --routing --policy \
         --requests --rate --seed --scale --queue-cap --admission-cap --retry-budget \
         --hedge-after --no-autoscale --slo-ms --workload --ckpt --trace --lint --faults"),
    cmd("sample", "Sampled training: fan-out/cache sweep over RMAT graphs", commands::sample,
        "--specs --fanouts --cache-rows --epochs --seed --out --lint --faults"),
    cmd("report", "Regression observatory: BENCH_<n>.json, diffed against a baseline",
        commands::report,
        "--out --baseline --threshold --scale --epochs --seed --requests --rate \
         --slo-ms --no-diff"),
    cmd("whatif", "Causal profiler: virtual-speedup experiments -> whatif.json",
        commands::whatif,
        "--out --cells --all-cells --scale --epochs --seed --policies --requests \
         --rate --slo-ms --conformance"),
    cmd("lint", "Static analysis of the whole configured sweep (--smoke by default)",
        commands::lint,
        "--quick --full --smoke --scale --seed --faults --trace"),
    cmd("ablation_batching", "Ablation: per-epoch collation vs pre-collated batches",
        commands::ablation_batching,
        "--quick --full --smoke --scale --seed --epochs"),
    cmd("ablation_fusion", "Ablation: fused GSpMM vs gather+scatter by feature width",
        commands::ablation_fusion, ""),
    cmd("ablation_launch", "Ablation: kernel-launch overhead vs GPU utilization",
        commands::ablation_launch,
        "--quick --full --smoke --scale --seed"),
    cmd("ablation_overlap", "Ablation: prefetch overlap of loading and compute",
        commands::ablation_overlap,
        "--quick --full --smoke --scale --seed"),
    cmd("index", "The experiment index: each table/figure and its command", commands::index, ""),
];

/// What a command line set, parsed and checked. Each field holds the
/// [`FLAGS`] row of its name (`queue_cap` is `--queue-cap`) and is `None`
/// (or `false`) unless that flag was given.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// `--quick|--full|--smoke`: the base training configuration.
    pub preset: Option<RunConfig>,
    pub scale: Option<f64>,
    pub seed: Option<u64>,
    pub epochs: Option<usize>,
    pub folds: Option<usize>,
    pub seeds: Option<usize>,
    pub dataset: Option<GraphDs>,
    pub trace: Option<PathBuf>,
    pub lint: bool,
    pub faults: Option<FaultPlan>,
    pub ckpt: Option<PathBuf>,
    pub resume: bool,
    /// `--endpoints` or `--all-endpoints`, as given (unparsed, so the
    /// serve and fleet lints can name a bad entry).
    pub endpoints: Option<Vec<String>>,
    pub policies: Option<Vec<BatchPolicy>>,
    pub policy: Option<BatchPolicy>,
    pub requests: Option<usize>,
    pub rate: Option<f64>,
    pub queue_cap: Option<usize>,
    pub replicas: Option<usize>,
    pub shards: Option<usize>,
    pub routing: Option<Vec<RoutingPolicy>>,
    pub admission_cap: Option<usize>,
    pub retry_budget: Option<f64>,
    /// `--hedge-after`, in seconds; `Some(None)` is `off`.
    pub hedge_after: Option<Option<f64>>,
    pub no_autoscale: bool,
    /// `--slo-ms`, in seconds.
    pub slo: Option<f64>,
    pub workload: Option<FleetWorkload>,
    pub specs: Option<Vec<SampleSpec>>,
    pub fanouts: Option<Vec<Vec<usize>>>,
    pub cache_rows: Option<Vec<usize>>,
    pub out: Option<PathBuf>,
    pub baseline: Option<PathBuf>,
    pub threshold: Option<f64>,
    pub no_diff: bool,
    /// `--cells` or `--all-cells`.
    pub cells: Option<Vec<CellId>>,
    pub conformance: bool,
}

/// The [`COMMANDS`] row named `name`.
fn command(name: &str) -> Result<&'static Command, String> {
    COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command: {name}"))
}

/// The [`FLAGS`] row spelled `name`.
fn flag(name: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|f| f.name == name)
}

/// Runs `gnn-bench <command> [flags]`, given `argv` without the program
/// name. A command's output starts with its command line, so a saved
/// output names the command that reproduces it. `--help` prints the
/// command list, `<command> --help` the command's usage; an unknown
/// command, or a command line [`parse`] refuses, prints the error and the
/// usage and exits 2.
pub fn main(argv: &[String]) -> ExitCode {
    let help = |a: &String| a == "--help" || a == "-h";
    let Some((name, rest)) = argv.split_first() else {
        return refuse("no command given", &overview());
    };
    if help(name) {
        print!("{}", overview());
        return ExitCode::SUCCESS;
    }
    let cmd = match command(name) {
        Ok(cmd) => cmd,
        Err(msg) => return refuse(&msg, &overview()),
    };
    if rest.iter().any(help) {
        print!("{}", usage(name));
        return ExitCode::SUCCESS;
    }
    match parse(name, rest) {
        Ok(args) => {
            println!("gnn-bench {}", argv.join(" "));
            (cmd.run)(args)
        }
        Err(msg) => refuse(&msg, &usage(name)),
    }
}

/// Prints `msg` and `usage` to stderr; exit status 2.
fn refuse(msg: &str, usage: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprint!("{usage}");
    ExitCode::from(2)
}

/// `gnn-bench --help`: every command with its one line of help.
pub(crate) fn overview() -> String {
    let width = COMMANDS.iter().map(|c| c.name.len()).max().unwrap_or(0);
    let mut out = String::from("usage: gnn-bench <command> [flags]\n\ncommands:\n");
    for c in COMMANDS {
        out.push_str(&format!("  {:<width$}  {}\n", c.name, c.about));
    }
    out.push_str("\n`gnn-bench <command> --help` lists the flags a command reads.\n");
    out
}

/// Parses `argv` (the flags after the command name) as command `name`'s
/// command line.
///
/// # Errors
///
/// Returns a message naming the command or the flag: an unknown command,
/// a flag the command does not read, one given twice, a missing operand,
/// or an operand that fails its check.
pub fn parse(name: &str, argv: &[String]) -> Result<Args, String> {
    let cmd = command(name)?;
    let mut args = Args::default();
    let mut given: Vec<&str> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let reads = cmd.flags.split_whitespace().any(|n| n == arg);
        let f = match flag(arg) {
            Some(f) if reads => f,
            Some(_) => return Err(format!("{name} does not take {arg}")),
            None => return Err(format!("unknown flag: {arg}")),
        };
        if given.contains(&f.name) {
            return Err(format!("{} given twice", f.name));
        }
        given.push(f.name);
        let operand = if f.operand.is_empty() {
            ""
        } else {
            it.next()
                .ok_or_else(|| format!("{} requires a value", f.name))?
        };
        (f.set)(&mut args, operand).map_err(|e| format!("{}: {e}", f.name))?;
    }
    Ok(args)
}

/// Command `name`'s usage text: one line per flag it reads.
///
/// # Panics
///
/// Panics if `name` is not a [`COMMANDS`] row.
pub fn usage(name: &str) -> String {
    let rows: Vec<&Flag> = command(name)
        .unwrap_or_else(|e| panic!("{e}"))
        .flags
        .split_whitespace()
        .filter_map(flag)
        .collect();
    if rows.is_empty() {
        return format!("usage: gnn-bench {name} (takes no flags)\n");
    }
    let spell = |f: &Flag| format!("{} {}", f.name, f.operand).trim_end().to_owned();
    let width = rows.iter().map(|f| spell(f).len()).max().unwrap_or(0);
    let mut out = format!("usage: gnn-bench {name} [flags]\n\n");
    for f in rows {
        out.push_str(&format!("  {:<width$}  {}\n", spell(f), f.help));
    }
    out
}

impl Args {
    /// The training configuration: the preset (`--quick` by default)
    /// with every other training flag applied over it.
    pub fn run_config(&self) -> RunConfig {
        self.config_over(RunConfig::quick)
    }

    /// What `lint` checks: [`Args::run_config`] with `--smoke` as the
    /// default preset, and the lint gate on.
    pub fn lint_config(&self) -> RunConfig {
        self.config_over(RunConfig::smoke).with_lint()
    }

    fn config_over(&self, default: fn() -> RunConfig) -> RunConfig {
        let mut cfg = self.preset.clone().unwrap_or_else(default);
        cfg.scale = self.scale.unwrap_or(cfg.scale);
        cfg.seed = self.seed.unwrap_or(cfg.seed);
        cfg.node_epochs = self.epochs.unwrap_or(cfg.node_epochs);
        cfg.graph_epochs = self.epochs.unwrap_or(cfg.graph_epochs);
        cfg.folds = self.folds.unwrap_or(cfg.folds);
        cfg.seeds = self.seeds.unwrap_or(cfg.seeds);
        cfg.trace = TraceConfig {
            dir: self.trace.clone(),
        };
        cfg.lint_first = self.lint;
        cfg.faults = self.faults.clone();
        // Resuming is meaningless without somewhere to find checkpoints.
        cfg.ckpt_dir = (self.ckpt.clone()).or_else(|| self.resume.then(|| "out/ckpt".into()));
        cfg.resume = self.resume;
        cfg
    }

    /// The endpoint paths as given (the default six when none were) and
    /// the cells among them that parse; the rest surface through the
    /// serve/fleet lint or the registry build.
    pub fn endpoints(&self) -> (Vec<String>, Vec<CellId>) {
        let raw = self.endpoints.clone().unwrap_or_else(|| {
            gnn_serve::default_endpoints()
                .iter()
                .map(CellId::path)
                .collect()
        });
        let cells = raw.iter().filter_map(|p| CellId::parse(p).ok()).collect();
        (raw, cells)
    }

    /// `--policies`, or the default three-policy sweep.
    pub fn policies(&self) -> Vec<BatchPolicy> {
        self.policies.clone().unwrap_or_else(default_policies)
    }

    /// `--routing`, or both routing policies.
    pub fn routings(&self) -> Vec<RoutingPolicy> {
        (self.routing.clone())
            .unwrap_or_else(|| vec![RoutingPolicy::ConsistentHash, RoutingPolicy::LeastLoaded])
    }

    /// The single-engine serve configuration; `policy` is the first of
    /// [`Args::policies`].
    pub fn serve_config(&self) -> ServeConfig {
        let d = ServeConfig::default();
        ServeConfig {
            endpoints: self.endpoints().1,
            requests: self.requests.unwrap_or(d.requests),
            rate: self.rate.unwrap_or(d.rate),
            seed: self.seed.unwrap_or(d.seed),
            policy: self.policies()[0],
            queue_cap: self.queue_cap.unwrap_or(d.queue_cap),
            replicas: self.replicas.unwrap_or(d.replicas),
            scale: self.scale.unwrap_or(d.scale),
            ckpt_dir: self.ckpt.clone(),
            ..d
        }
    }

    /// The fleet configuration; `routing` is the first of
    /// [`Args::routings`].
    pub fn fleet_config(&self) -> FleetConfig {
        let d = FleetConfig::default();
        FleetConfig {
            endpoints: self.endpoints().1,
            shards: self.shards.unwrap_or(d.shards),
            replicas_per_shard: self.replicas.unwrap_or(d.replicas_per_shard),
            routing: self.routings()[0],
            policy: self.policy.unwrap_or(d.policy),
            queue_cap: self.queue_cap.unwrap_or(d.queue_cap),
            admission_cap: self.admission_cap.unwrap_or(d.admission_cap),
            retry_budget: self.retry_budget.unwrap_or(d.retry_budget),
            hedge_after: self.hedge_after.unwrap_or(d.hedge_after),
            autoscale: if self.no_autoscale { None } else { d.autoscale },
            slo_target: self.slo.unwrap_or(d.slo_target),
            workload: self.workload.clone().unwrap_or(d.workload),
            requests: self.requests.unwrap_or(d.requests),
            rate: self.rate.unwrap_or(d.rate),
            seed: self.seed.unwrap_or(d.seed),
            scale: self.scale.unwrap_or(d.scale),
            ckpt_dir: self.ckpt.clone(),
            ..d
        }
    }

    /// What one `sample` run sweeps.
    pub fn sample_config(&self) -> SampleConfig {
        let d = SampleConfig::default();
        SampleConfig {
            specs: self.specs.clone().unwrap_or(d.specs),
            fanouts: self.fanouts.clone().unwrap_or(d.fanouts),
            cache_rows: self.cache_rows.clone().unwrap_or(d.cache_rows),
            epochs: self.epochs.unwrap_or(d.epochs),
            seed: self.seed.unwrap_or(d.seed),
            out: self.out.clone().unwrap_or(d.out),
        }
    }

    /// What one `report` run covers.
    pub fn report_config(&self) -> ReportConfig {
        let d = ReportConfig::default();
        ReportConfig {
            scale: self.scale.unwrap_or(d.scale),
            epochs: self.epochs.unwrap_or(d.epochs),
            seed: self.seed.unwrap_or(d.seed),
            requests: self.requests.unwrap_or(d.requests),
            rate: self.rate.unwrap_or(d.rate),
            slo_target: self.slo.unwrap_or(d.slo_target),
            ..d
        }
    }

    /// What one `whatif` run profiles.
    pub fn whatif_config(&self) -> WhatIfConfig {
        let d = WhatIfConfig::default();
        WhatIfConfig {
            cells: self.cells.clone().unwrap_or(d.cells),
            scale: self.scale.unwrap_or(d.scale),
            epochs: self.epochs.unwrap_or(d.epochs),
            seed: self.seed.unwrap_or(d.seed),
            policies: self.policies.clone().unwrap_or(d.policies),
            requests: self.requests.unwrap_or(d.requests),
            rate: self.rate.unwrap_or(d.rate),
            slo_target: self.slo.unwrap_or(d.slo_target),
        }
    }
}

/// Stores a flag's parsed operand.
fn set<T>(slot: &mut Option<T>, value: Result<T, String>) -> Result<(), String> {
    *slot = Some(value?);
    Ok(())
}

/// Turns a switch on.
fn on(switch: &mut bool) -> Result<(), String> {
    *switch = true;
    Ok(())
}

/// Fills a slot two flags share, refusing the second of them.
fn fill<T>(slot: &mut Option<T>, value: T, other: &str) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!("cannot be combined with {other}"));
    }
    *slot = Some(value);
    Ok(())
}

/// A comma-separated list, each entry parsed by `entry`.
fn list<T>(v: &str, entry: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    v.split(',').map(entry).collect()
}

/// One of `choices`, ignoring case.
fn one_of<T: Copy>(v: &str, choices: &[(&str, T)]) -> Result<T, String> {
    let found = choices
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case(v));
    found.map(|&(_, choice)| choice).ok_or_else(|| {
        let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
        format!("`{v}` is not one of {}", names.join(", "))
    })
}

fn num<T: std::str::FromStr>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("`{v}`: {e}"))
}

fn positive(v: &str) -> Result<usize, String> {
    match num(v)? {
        0 => Err("must be positive".into()),
        n => Ok(n),
    }
}

fn non_negative(v: &str) -> Result<f64, String> {
    match num(v)? {
        x if x < 0.0 => Err("must be non-negative".into()),
        x => Ok(x),
    }
}

fn fraction(v: &str) -> Result<f64, String> {
    match num(v)? {
        x if x > 0.0 && x <= 1.0 => Ok(x),
        x => Err(format!("{x} out of (0, 1]")),
    }
}

/// Milliseconds, in seconds.
fn millis(v: &str) -> Result<f64, String> {
    Ok(num::<f64>(v)? * 1e-3)
}

/// Microseconds, in seconds.
fn micros(v: &str) -> Result<f64, String> {
    Ok(num::<f64>(v)? * 1e-6)
}

/// A directory operand, checked to be creatable and writable without
/// creating anything, so a doomed `--trace`/`--ckpt` fails before the run
/// instead of after it.
fn artifact_dir(v: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(v);
    gnn_core::validate_artifact_dir(&dir).map_err(|e| e.to_string())?;
    Ok(dir)
}

/// A file operand, checked the same way as [`artifact_dir`].
fn artifact_path(v: &str) -> Result<PathBuf, String> {
    let path = PathBuf::from(v);
    gnn_core::validate_artifact_path(&path).map_err(|e| e.to_string())?;
    Ok(path)
}

/// A cataloged sweep cell.
fn cell(path: &str) -> Result<CellId, String> {
    CellId::parse(path).map_err(|e| e.to_string())
}

/// A cataloged sampling spec.
fn spec(name: &str) -> Result<SampleSpec, String> {
    SampleSpec::get(name).map_err(|e| format!("{e} (catalog: {})", SampleSpec::names().join(", ")))
}

/// A routing policy.
fn routing(name: &str) -> Result<RoutingPolicy, String> {
    RoutingPolicy::parse(name).ok_or_else(|| format!("`{name}` (consistent-hash|least-loaded)"))
}

/// A batching policy: `<max_batch>@<delay_us>`, e.g. `8@2000`.
fn policy(spec: &str) -> Result<BatchPolicy, String> {
    let (batch, delay) = spec
        .split_once('@')
        .ok_or_else(|| format!("policy `{spec}` must be <max_batch>@<delay_us>"))?;
    Ok(BatchPolicy {
        max_batch: num(batch)?,
        max_delay: micros(delay)?,
    })
}

/// A fleet arrival process: `open`, `diurnal[:<period_ms>@<amplitude>]`,
/// `flash[:<at_ms>@<width_ms>@<factor>]`, or `closed:<clients>@<think_us>`.
fn workload(spec: &str) -> Result<FleetWorkload, String> {
    let (kind, params) = spec.split_once(':').unwrap_or((spec, ""));
    let parts: Vec<&str> = params.split('@').collect();
    Ok(match (kind, parts.as_slice()) {
        ("open", [""]) => FleetWorkload::Open(WorkloadKind::OpenLoop),
        ("diurnal", [""]) => FleetWorkload::Open(WorkloadKind::Diurnal {
            period: 0.05,
            amplitude: 0.5,
        }),
        ("flash", [""]) => FleetWorkload::Open(WorkloadKind::FlashCrowd {
            at: 0.02,
            width: 0.02,
            factor: 4.0,
        }),
        ("diurnal", [period, amplitude]) => FleetWorkload::Open(WorkloadKind::Diurnal {
            period: millis(period)?,
            amplitude: num(amplitude)?,
        }),
        ("flash", [at, width, factor]) => FleetWorkload::Open(WorkloadKind::FlashCrowd {
            at: millis(at)?,
            width: millis(width)?,
            factor: num(factor)?,
        }),
        ("closed", [clients, think]) => FleetWorkload::Closed {
            clients: num(clients)?,
            think_time: micros(think)?,
        },
        _ => {
            return Err(format!(
                "`{spec}`: expected open, diurnal[:<period_ms>@<amplitude>], \
                 flash[:<at_ms>@<width_ms>@<factor>] or closed:<clients>@<think_us>"
            ))
        }
    })
}
