//! # gnn-bench
//!
//! Reproduction binaries — one per table/figure of the paper — plus the
//! shared command-line plumbing. Each binary prints the same rows/series
//! the paper reports, at a configurable scale:
//!
//! | Binary    | Reproduces |
//! |-----------|------------|
//! | `table1`  | Table I — dataset statistics |
//! | `table4`  | Table IV — node classification time/accuracy |
//! | `table5`  | Table V — graph classification time/accuracy |
//! | `fig1_2`  | Figs. 1–2 — epoch-time breakdown (`--dataset enzymes|dd`) |
//! | `fig3`    | Fig. 3 — layer-wise execution time on ENZYMES |
//! | `fig4_5`  | Figs. 4–5 — peak memory + GPU utilization |
//! | `fig6`    | Fig. 6 — multi-GPU scaling of GCN/GAT on MNIST |
//! | `sweep`   | Fault-isolated sweep over all 60 cells |
//! | `serve`   | Inference serving: batching-policy sweep over trained cells |
//! | `sample`  | Giant-graph sampled training: fan-out/cache sweep over seeded RMAT graphs → `sample_metrics.csv` |
//! | `fleet`   | Fleet serving: routing-policy sweep over sharded endpoints under chaos |
//! | `report`  | Regression observatory: canonical cells + serve policies → `BENCH_<n>.json`, diffed against the previous report |
//! | `whatif`  | Causal profiler: virtual-speedup experiments over the recorded timeline → ranked opportunities in `whatif.json` (`--conformance` re-runs the top predictions for real) |
//!
//! Common flags: `--quick` (default), `--full` (paper scale), `--smoke`,
//! `--scale <f>`, `--seed <n>`, `--epochs <n>`, `--folds <n>`,
//! `--trace <dir>` to write `trace.json` (Chrome trace-event format) and
//! `metrics.jsonl` (one record per training epoch) into `<dir>`, and
//! `--lint` to run the `gnn-lint` static analyzer over the configured sweep
//! first and refuse to execute on any finding (with `--trace`, the findings
//! also land in `<dir>/lint.json`).
//!
//! Robustness flags (see the `gnn-faults` crate and the `sweep` binary):
//! `--faults <plan>` arms a deterministic fault-injection plan around the
//! run, where `<plan>` is `canonical` (the fixed chaos-suite plan),
//! `canonical-fleet` (the chaos suite plus a shard blackout and a network
//! straggler for fleet runs), `seeded:<n>` (a plan derived from seed `n`),
//! or a path to a plan file. Every training binary runs the one loop per
//! task of `gnn-train`, so `--faults` means the same on `table4`,
//! `table5`, `fig1_2` and `fig4_5` as on `sweep` and `sample`: a transient
//! fault is retried (its back-off shows in the simulated times, never in
//! losses or accuracies), a poisoned loss is rolled back and replayed, a
//! persistent OOM halves the batch, and what outlasts that surfaces as a
//! typed `TrainError` — recorded per cell by `sweep`/`sample`, a panic
//! naming it in the binaries that have no cell record to put it in. (The
//! ablations share this parser but never arm the plan.)
//! `--ckpt <dir>` writes per-cell training checkpoints into `<dir>` and
//! `--resume` restores cells from those checkpoints, so a killed run
//! continues where it stopped with bit-identical metrics (`--resume`
//! implies `--ckpt out/ckpt` unless a directory was given). Only `sweep`
//! trains under them; the other binaries sharing this parser accept and
//! ignore both, `sample` has neither, and `serve`/`fleet` read `--ckpt` to
//! load trained weights.
//!
//! Every number these binaries print is *simulated* device time. The real
//! CPU time of the library itself — the tensor kernels, the message-passing
//! lowerings, the two frameworks' collation paths, whole workloads — is
//! measured by the standalone `benchmark/` package (see its README), which
//! records what it times and gates on it.

pub mod report;
pub mod sample;
pub mod whatif;

use gnn_core::RunConfig;
use gnn_faults::FaultPlan;

/// Parses a `--faults` operand: `canonical`, `canonical-fleet`,
/// `seeded:<n>`, or a plan file.
fn parse_fault_plan(spec: &str) -> Result<FaultPlan, String> {
    match spec {
        "canonical" => Ok(FaultPlan::canonical()),
        "canonical-fleet" => Ok(FaultPlan::canonical_fleet()),
        s => {
            if let Some(seed) = s.strip_prefix("seeded:") {
                seed.parse::<u64>()
                    .map(FaultPlan::seeded)
                    .map_err(|e| format!("--faults seeded:<n>: {e}"))
            } else {
                FaultPlan::load(std::path::Path::new(s))
            }
        }
    }
}

/// Parses and validates an artifact-directory flag value: the destination
/// must be creatable and writable ([`gnn_core::validate_artifact_dir`]),
/// so a doomed `--trace`/`--ckpt` path fails at parse time with a typed
/// diagnostic naming the path, instead of after the training run.
fn artifact_dir(
    name: &str,
    value_of: &mut impl FnMut(&str) -> Result<String, String>,
) -> Result<std::path::PathBuf, String> {
    let dir = std::path::PathBuf::from(value_of(name)?);
    gnn_core::validate_artifact_dir(&dir).map_err(|e| format!("{name}: {e}"))?;
    Ok(dir)
}

/// Parsed command-line options shared by the reproduction binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Scaled run configuration.
    pub config: RunConfig,
    /// Value of `--dataset`, if given.
    pub dataset: Option<String>,
    /// Value of `--metric`, if given.
    pub metric: Option<String>,
}

/// Parses `args` (without the program name).
///
/// # Errors
///
/// Returns a human-readable message on unknown flags or unparsable values.
pub fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut config = RunConfig::quick();
    let mut dataset = None;
    let mut metric = None;
    // Tracked outside `config` so these hold regardless of flag order
    // (preset flags rebuild the config).
    let mut lint = false;
    let mut faults = None;
    let mut ckpt_dir: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value_of = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--quick" => config = RunConfig::quick().with_seed(config.seed),
            "--full" | "--paper" => config = RunConfig::paper().with_seed(config.seed),
            "--smoke" => config = RunConfig::smoke().with_seed(config.seed),
            "--scale" => {
                let v: f64 = value_of("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
                if !(v > 0.0 && v <= 1.0) {
                    return Err(format!("--scale {v} out of (0, 1]"));
                }
                config.scale = v;
            }
            "--seed" => {
                config.seed = value_of("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--epochs" => {
                let v: usize = value_of("--epochs")?
                    .parse()
                    .map_err(|e| format!("--epochs: {e}"))?;
                config.node_epochs = v;
                config.graph_epochs = v;
            }
            "--folds" => {
                config.folds = value_of("--folds")?
                    .parse()
                    .map_err(|e| format!("--folds: {e}"))?;
            }
            "--seeds" => {
                config.seeds = value_of("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
            }
            "--trace" => {
                config.trace = gnn_core::TraceConfig::to(artifact_dir("--trace", &mut value_of)?);
            }
            "--lint" => lint = true,
            "--faults" => faults = Some(parse_fault_plan(&value_of("--faults")?)?),
            "--ckpt" => ckpt_dir = Some(artifact_dir("--ckpt", &mut value_of)?),
            "--resume" => resume = true,
            "--dataset" => dataset = Some(value_of("--dataset")?.to_lowercase()),
            "--metric" => metric = Some(value_of("--metric")?.to_lowercase()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    config.lint_first = lint;
    config.faults = faults;
    if resume && ckpt_dir.is_none() {
        // Resuming is meaningless without somewhere to find checkpoints.
        ckpt_dir = Some("out/ckpt".into());
    }
    config.ckpt_dir = ckpt_dir;
    config.resume = resume;
    Ok(CliOptions {
        config,
        dataset,
        metric,
    })
}

/// Parsed command-line options of the `serve` binary.
#[derive(Debug, Clone)]
pub struct ServeCliOptions {
    /// Base serving config; `policy` holds the first entry of `policies`.
    pub serve: gnn_serve::ServeConfig,
    /// Batching policies to sweep, in declaration order.
    pub policies: Vec<gnn_serve::BatchPolicy>,
    /// Raw endpoint paths as given (pre-parse, for the serve-config lint).
    pub endpoints_raw: Vec<String>,
    /// Run the `serve-config` lint first and refuse to serve on findings.
    pub lint: bool,
    /// Fault plan to arm around the run.
    pub faults: Option<FaultPlan>,
    /// Directory for trace artifacts and `serve_metrics.csv`.
    pub trace: Option<std::path::PathBuf>,
}

/// Parses a `--policies` entry: `<max_batch>@<delay_us>`, e.g. `8@2000`.
fn parse_policy(spec: &str) -> Result<gnn_serve::BatchPolicy, String> {
    let (batch, delay) = spec
        .split_once('@')
        .ok_or_else(|| format!("policy `{spec}` must be <max_batch>@<delay_us>"))?;
    let max_batch: usize = batch
        .parse()
        .map_err(|e| format!("policy `{spec}` max_batch: {e}"))?;
    let delay_us: f64 = delay
        .parse()
        .map_err(|e| format!("policy `{spec}` delay_us: {e}"))?;
    Ok(gnn_serve::BatchPolicy {
        max_batch,
        max_delay: delay_us * 1e-6,
    })
}

/// Parses the `serve` binary's arguments (without the program name).
///
/// Flags: `--endpoints <cell,cell,...>` (default: the representative
/// six-cell set), `--all-endpoints` (all 60 sweep cells),
/// `--policies <b@us,b@us,...>` (default `1@0,4@1000,8@2000`),
/// `--requests <n>`, `--rate <req/s>`, `--seed <n>`, `--scale <f>`,
/// `--queue-cap <n>`, `--replicas <n>`, `--ckpt <dir>`, `--trace <dir>`,
/// `--lint`, `--faults canonical|seeded:<n>|<path>`.
///
/// # Errors
///
/// Returns a human-readable message on unknown flags or unparsable values.
pub fn parse_serve_args(args: &[String]) -> Result<ServeCliOptions, String> {
    let mut serve = gnn_serve::ServeConfig::default();
    let mut policies = vec![
        gnn_serve::BatchPolicy {
            max_batch: 1,
            max_delay: 0.0,
        },
        gnn_serve::BatchPolicy {
            max_batch: 4,
            max_delay: 0.001,
        },
        gnn_serve::BatchPolicy {
            max_batch: 8,
            max_delay: 0.002,
        },
    ];
    let mut endpoints_raw: Vec<String> = serve.endpoints.iter().map(|c| c.path()).collect();
    let mut lint = false;
    let mut faults = None;
    let mut trace = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value_of = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--endpoints" => {
                endpoints_raw = value_of("--endpoints")?
                    .split(',')
                    .map(str::to_owned)
                    .collect();
            }
            "--all-endpoints" => {
                endpoints_raw = gnn_serve::CellId::all().iter().map(|c| c.path()).collect();
            }
            "--policies" => {
                policies = value_of("--policies")?
                    .split(',')
                    .map(parse_policy)
                    .collect::<Result<_, _>>()?;
                if policies.is_empty() {
                    return Err("--policies needs at least one policy".into());
                }
            }
            "--requests" => {
                serve.requests = value_of("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?;
            }
            "--rate" => {
                serve.rate = value_of("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?;
            }
            "--seed" => {
                serve.seed = value_of("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--scale" => {
                let v: f64 = value_of("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
                if !(v > 0.0 && v <= 1.0) {
                    return Err(format!("--scale {v} out of (0, 1]"));
                }
                serve.scale = v;
            }
            "--queue-cap" => {
                serve.queue_cap = value_of("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?;
            }
            "--replicas" => {
                serve.replicas = value_of("--replicas")?
                    .parse()
                    .map_err(|e| format!("--replicas: {e}"))?;
            }
            "--ckpt" => serve.ckpt_dir = Some(artifact_dir("--ckpt", &mut value_of)?),
            "--trace" => trace = Some(artifact_dir("--trace", &mut value_of)?),
            "--lint" => lint = true,
            "--faults" => faults = Some(parse_fault_plan(&value_of("--faults")?)?),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    // Endpoint parse errors surface through the lint (when enabled) or the
    // registry build; keep whatever parses so `serve` holds a usable config.
    serve.endpoints = endpoints_raw
        .iter()
        .filter_map(|p| gnn_serve::CellId::parse(p).ok())
        .collect();
    serve.policy = policies[0];
    Ok(ServeCliOptions {
        serve,
        policies,
        endpoints_raw,
        lint,
        faults,
        trace,
    })
}

/// Parsed command-line options of the `fleet` binary.
#[derive(Debug, Clone)]
pub struct FleetCliOptions {
    /// Base fleet config; `routing` holds the first entry of `routings`.
    pub fleet: gnn_serve::FleetConfig,
    /// Routing policies to sweep, in declaration order.
    pub routings: Vec<gnn_serve::RoutingPolicy>,
    /// Raw endpoint paths as given (pre-parse, for the fleet-config lint).
    pub endpoints_raw: Vec<String>,
    /// Run the `fleet-config` lint first and refuse to serve on findings.
    pub lint: bool,
    /// Fault plan to arm around each routing-policy run.
    pub faults: Option<FaultPlan>,
    /// Directory for trace artifacts and `serve_metrics.csv`.
    pub trace: Option<std::path::PathBuf>,
}

/// Parses a `--workload` operand into a fleet arrival process:
/// `open`, `diurnal[:<period_ms>@<amplitude>]`,
/// `flash[:<at_ms>@<width_ms>@<factor>]`, or
/// `closed:<clients>@<think_us>`.
fn parse_fleet_workload(spec: &str) -> Result<gnn_serve::FleetWorkload, String> {
    use gnn_serve::{FleetWorkload, WorkloadKind};
    let bad = |what: &str| format!("--workload `{spec}`: {what}");
    match spec {
        "open" => return Ok(FleetWorkload::Open(WorkloadKind::OpenLoop)),
        "diurnal" => {
            return Ok(FleetWorkload::Open(WorkloadKind::Diurnal {
                period: 0.05,
                amplitude: 0.5,
            }))
        }
        "flash" => {
            return Ok(FleetWorkload::Open(WorkloadKind::FlashCrowd {
                at: 0.02,
                width: 0.02,
                factor: 4.0,
            }))
        }
        _ => {}
    }
    let (kind, params) = spec
        .split_once(':')
        .ok_or_else(|| bad("unknown workload (open|diurnal|flash|closed:<c>@<us>)"))?;
    let parts: Vec<&str> = params.split('@').collect();
    let num = |s: &str| -> Result<f64, String> { s.parse().map_err(|e| bad(&format!("{e}"))) };
    match (kind, parts.as_slice()) {
        ("diurnal", [period_ms, amplitude]) => Ok(FleetWorkload::Open(WorkloadKind::Diurnal {
            period: num(period_ms)? * 1e-3,
            amplitude: num(amplitude)?,
        })),
        ("flash", [at_ms, width_ms, factor]) => Ok(FleetWorkload::Open(WorkloadKind::FlashCrowd {
            at: num(at_ms)? * 1e-3,
            width: num(width_ms)? * 1e-3,
            factor: num(factor)?,
        })),
        ("closed", [clients, think_us]) => Ok(FleetWorkload::Closed {
            clients: clients.parse().map_err(|e| bad(&format!("clients: {e}")))?,
            think_time: num(think_us)? * 1e-6,
        }),
        _ => Err(bad(
            "expected diurnal:<period_ms>@<amplitude>, flash:<at_ms>@<width_ms>@<factor>, \
             or closed:<clients>@<think_us>",
        )),
    }
}

/// Parses the `fleet` binary's arguments (without the program name).
///
/// Flags: `--endpoints <cell,cell,...>` (default: the representative
/// six-cell set), `--all-endpoints`, `--shards <n>`, `--replicas <n>`
/// (per shard), `--routing <policy,policy,...>` (default: both
/// `consistent-hash` and `least-loaded`), `--policy <b@us>`,
/// `--requests <n>`, `--rate <req/s>`, `--seed <n>`, `--scale <f>`,
/// `--queue-cap <n>`, `--admission-cap <n>`, `--retry-budget <frac>`,
/// `--hedge-after <us|off>`, `--no-autoscale`, `--slo-ms <ms>`,
/// `--workload open|diurnal|flash|closed:<c>@<us>` (see
/// [`gnn_serve::FleetWorkload`]), `--ckpt <dir>`, `--trace <dir>`,
/// `--lint`, `--faults canonical|canonical-fleet|seeded:<n>|<path>`.
///
/// # Errors
///
/// Returns a human-readable message on unknown flags or unparsable values.
pub fn parse_fleet_args(args: &[String]) -> Result<FleetCliOptions, String> {
    let mut fleet = gnn_serve::FleetConfig::default();
    let mut routings = vec![
        gnn_serve::RoutingPolicy::ConsistentHash,
        gnn_serve::RoutingPolicy::LeastLoaded,
    ];
    let mut endpoints_raw: Vec<String> = fleet.endpoints.iter().map(|c| c.path()).collect();
    let mut lint = false;
    let mut faults = None;
    let mut trace = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value_of = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--endpoints" => {
                endpoints_raw = value_of("--endpoints")?
                    .split(',')
                    .map(str::to_owned)
                    .collect();
            }
            "--all-endpoints" => {
                endpoints_raw = gnn_serve::CellId::all().iter().map(|c| c.path()).collect();
            }
            "--shards" => {
                fleet.shards = value_of("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--replicas" => {
                fleet.replicas_per_shard = value_of("--replicas")?
                    .parse()
                    .map_err(|e| format!("--replicas: {e}"))?;
            }
            "--routing" => {
                routings = value_of("--routing")?
                    .split(',')
                    .map(|s| {
                        gnn_serve::RoutingPolicy::parse(s).ok_or_else(|| {
                            format!("--routing `{s}` (consistent-hash|least-loaded)")
                        })
                    })
                    .collect::<Result<_, _>>()?;
                if routings.is_empty() {
                    return Err("--routing needs at least one policy".into());
                }
            }
            "--policy" => fleet.policy = parse_policy(&value_of("--policy")?)?,
            "--requests" => {
                fleet.requests = value_of("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?;
            }
            "--rate" => {
                fleet.rate = value_of("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?;
            }
            "--seed" => {
                fleet.seed = value_of("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--scale" => {
                let v: f64 = value_of("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
                if !(v > 0.0 && v <= 1.0) {
                    return Err(format!("--scale {v} out of (0, 1]"));
                }
                fleet.scale = v;
            }
            "--queue-cap" => {
                fleet.queue_cap = value_of("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?;
            }
            "--admission-cap" => {
                fleet.admission_cap = value_of("--admission-cap")?
                    .parse()
                    .map_err(|e| format!("--admission-cap: {e}"))?;
            }
            "--retry-budget" => {
                fleet.retry_budget = value_of("--retry-budget")?
                    .parse()
                    .map_err(|e| format!("--retry-budget: {e}"))?;
            }
            "--hedge-after" => {
                let v = value_of("--hedge-after")?;
                fleet.hedge_after = if v == "off" {
                    None
                } else {
                    let us: f64 = v.parse().map_err(|e| format!("--hedge-after: {e}"))?;
                    Some(us * 1e-6)
                };
            }
            "--no-autoscale" => fleet.autoscale = None,
            "--slo-ms" => {
                let ms: f64 = value_of("--slo-ms")?
                    .parse()
                    .map_err(|e| format!("--slo-ms: {e}"))?;
                fleet.slo_target = ms * 1e-3;
            }
            "--workload" => fleet.workload = parse_fleet_workload(&value_of("--workload")?)?,
            "--ckpt" => fleet.ckpt_dir = Some(artifact_dir("--ckpt", &mut value_of)?),
            "--trace" => trace = Some(artifact_dir("--trace", &mut value_of)?),
            "--lint" => lint = true,
            "--faults" => faults = Some(parse_fault_plan(&value_of("--faults")?)?),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    // Endpoint parse errors surface through the lint (when enabled) or the
    // registry build; keep whatever parses so the config stays usable.
    fleet.endpoints = endpoints_raw
        .iter()
        .filter_map(|p| gnn_serve::CellId::parse(p).ok())
        .collect();
    fleet.routing = routings[0];
    Ok(FleetCliOptions {
        fleet,
        routings,
        endpoints_raw,
        lint,
        faults,
        trace,
    })
}

/// Parsed command-line options of the `sample` binary.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleCliOptions {
    /// Catalog spec names to sweep (default: the million-node headline).
    pub specs: Vec<String>,
    /// Fan-out schedule overrides (`--fanouts 10x5,5x3`); empty = each
    /// spec's own schedule.
    pub fanouts: Vec<Vec<usize>>,
    /// Feature-cache size overrides in rows; empty = each spec's own.
    pub cache_rows: Vec<usize>,
    /// Training epochs per cell.
    pub epochs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Destination of `sample_metrics.csv`.
    pub out: std::path::PathBuf,
    /// Run the `sample-config` lint + memory certification first and
    /// refuse to run on findings.
    pub lint: bool,
    /// Fault plan to arm around the run.
    pub faults: Option<FaultPlan>,
}

/// Parses a `--fanouts` entry: hop counts joined by `x`, e.g. `10x5`.
fn parse_fanout(spec: &str) -> Result<Vec<usize>, String> {
    spec.split('x')
        .map(|h| {
            h.parse::<usize>()
                .map_err(|e| format!("fan-out `{spec}`: {e}"))
        })
        .collect()
}

/// Parses the `sample` binary's arguments (without the program name).
///
/// Flags: `--specs <name,name,...>` (default `rmat-1m`),
/// `--fanouts <AxB,AxB,...>` (fan-out variants; default: each spec's own
/// schedule), `--cache-rows <n,n,...>` (cache variants; default: each
/// spec's own), `--epochs <n>` (default 2), `--seed <n>`,
/// `--out <path>` (default `sample_metrics.csv`), `--lint`,
/// `--faults canonical|seeded:<n>|<path>`.
///
/// # Errors
///
/// Returns a human-readable message on unknown flags or unparsable values.
pub fn parse_sample_args(args: &[String]) -> Result<SampleCliOptions, String> {
    let mut o = SampleCliOptions {
        specs: vec!["rmat-1m".to_owned()],
        fanouts: Vec::new(),
        cache_rows: Vec::new(),
        epochs: 2,
        seed: 0,
        out: std::path::PathBuf::from("sample_metrics.csv"),
        lint: false,
        faults: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value_of = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--specs" => {
                o.specs = value_of("--specs")?.split(',').map(str::to_owned).collect();
                if o.specs.iter().any(String::is_empty) {
                    return Err("--specs entries must be non-empty".into());
                }
            }
            "--fanouts" => {
                o.fanouts = value_of("--fanouts")?
                    .split(',')
                    .map(parse_fanout)
                    .collect::<Result<_, _>>()?;
            }
            "--cache-rows" => {
                o.cache_rows = value_of("--cache-rows")?
                    .split(',')
                    .map(|n| n.parse().map_err(|e| format!("--cache-rows: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--epochs" => {
                o.epochs = value_of("--epochs")?
                    .parse()
                    .map_err(|e| format!("--epochs: {e}"))?;
                if o.epochs == 0 {
                    return Err("--epochs must be positive".into());
                }
            }
            "--seed" => {
                o.seed = value_of("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => o.out = value_of("--out")?.into(),
            "--lint" => o.lint = true,
            "--faults" => o.faults = Some(parse_fault_plan(&value_of("--faults")?)?),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(o)
}

/// When the config asks for it (`--lint`), statically verifies the whole
/// configured sweep with `gnn-lint` before anything executes and refuses to
/// run on any finding. With `--trace <dir>` the findings are also written to
/// `<dir>/lint.json`. A no-op when `lint_first` is unset.
pub fn lint_gate(cfg: &RunConfig) {
    if !cfg.lint_first {
        return;
    }
    let report = gnn_lint::lint_and_export(cfg);
    print!("{report}");
    if !report.is_clean() {
        eprintln!("error: gnn-lint found problems; refusing to run");
        std::process::exit(1);
    }
}

/// Runs `f` under a `gnn-obs` collector when the config enables tracing
/// (`--trace <dir>`), then writes `trace.json` + `metrics.jsonl` into the
/// directory and prints a run-wide summary. When the config carries a fault
/// plan (`--faults <plan>`), the plan is armed around `f` and the faults
/// that fired are printed afterwards. Without `--trace` and `--faults` this
/// is exactly `f()` (after the [`lint_gate`], if `--lint` was given).
pub fn traced<T>(cfg: &RunConfig, f: impl FnOnce() -> T) -> T {
    lint_gate(cfg);
    // Arm the fault plan for the whole run; code that arms its own plan
    // (e.g. `gnn_core::sweep`) detects the active injector and reuses it.
    let fault_handle = match &cfg.faults {
        Some(plan) if !gnn_faults::is_active() => Some(gnn_faults::install(plan.clone())),
        _ => None,
    };
    let report_faults = |handle: Option<gnn_faults::InjectorHandle>| {
        if let Some(h) = handle {
            let log = gnn_faults::finish(h);
            if !log.is_empty() {
                println!("faults fired ({}):", log.len());
                for line in log.summary().lines() {
                    println!("  {line}");
                }
            }
        }
    };
    let Some(dir) = cfg.trace.dir() else {
        let out = f();
        report_faults(fault_handle);
        return out;
    };
    let handle = gnn_obs::install(gnn_obs::Collector::new());
    let out = f();
    report_faults(fault_handle);
    let trace = gnn_obs::finish(handle);
    match trace.save(dir) {
        Ok((trace_path, metrics_path)) => {
            println!();
            println!("trace:   {}", trace_path.display());
            println!("metrics: {}", metrics_path.display());
        }
        Err(e) => eprintln!("error: writing trace artifacts to {}: {e}", dir.display()),
    }
    print!("{}", gnn_core::report::run_summary(&trace));
    out
}

/// Parses the process arguments, exiting with usage on error.
pub fn cli_options() -> CliOptions {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: [--quick|--full|--smoke] [--scale f] [--seed n] [--epochs n] \
                 [--folds n] [--seeds n] [--dataset enzymes|dd] [--metric memory|utilization] \
                 [--trace dir] [--lint] [--faults canonical|seeded:n|path] [--ckpt dir] \
                 [--resume]"
            );
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_to_quick() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.config, RunConfig::quick());
        assert!(o.dataset.is_none());
    }

    #[test]
    fn full_and_overrides() {
        let o = parse_args(&s(&["--full", "--scale", "0.5", "--seed", "7"])).unwrap();
        assert_eq!(o.config.scale, 0.5);
        assert_eq!(o.config.seed, 7);
        assert_eq!(o.config.folds, 10);
    }

    #[test]
    fn dataset_and_metric_lowercased() {
        let o = parse_args(&s(&["--dataset", "DD", "--metric", "Memory"])).unwrap();
        assert_eq!(o.dataset.as_deref(), Some("dd"));
        assert_eq!(o.metric.as_deref(), Some("memory"));
    }

    #[test]
    fn epochs_sets_both_task_caps() {
        let o = parse_args(&s(&["--epochs", "9"])).unwrap();
        assert_eq!(o.config.node_epochs, 9);
        assert_eq!(o.config.graph_epochs, 9);
    }

    #[test]
    fn trace_flag_sets_directory() {
        let o = parse_args(&s(&["--trace", "out/run1"])).unwrap();
        assert!(o.config.trace.enabled());
        assert_eq!(o.config.trace.dir(), Some(std::path::Path::new("out/run1")));
        assert!(parse_args(&s(&["--trace"])).is_err());
    }

    #[test]
    fn artifact_dir_flags_reject_unusable_paths() {
        let dir = std::env::temp_dir().join(format!("gnn_bench_artifact_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("plain.txt");
        std::fs::write(&file, "x").unwrap();
        let blocked = file.join("nested").display().to_string();

        for flag in ["--trace", "--ckpt"] {
            let err = parse_args(&s(&[flag, &blocked])).unwrap_err();
            assert!(err.contains(flag), "{err}");
            assert!(err.contains(&blocked), "error must name the path: {err}");
            assert!(err.contains("not a directory"), "{err}");
            let err = parse_serve_args(&s(&[flag, &blocked])).unwrap_err();
            assert!(err.contains(&blocked), "{err}");
        }
        // Good paths still parse, and validation creates nothing.
        let fresh = dir.join("fresh/run");
        let o = parse_args(&s(&["--trace", fresh.to_str().unwrap()])).unwrap();
        assert_eq!(o.config.trace.dir(), Some(fresh.as_path()));
        assert!(!fresh.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lint_flag_is_order_robust() {
        let o = parse_args(&s(&["--lint"])).unwrap();
        assert!(o.config.lint_first);
        let o = parse_args(&s(&["--full", "--lint"])).unwrap();
        assert!(o.config.lint_first);
        assert_eq!(o.config.folds, 10);
        // Preset flags rebuild the config, but --lint survives either way.
        let o = parse_args(&s(&["--lint", "--smoke"])).unwrap();
        assert!(o.config.lint_first);
        assert!(!parse_args(&s(&["--full"])).unwrap().config.lint_first);
    }

    #[test]
    fn faults_flag_parses_all_plan_forms() {
        let o = parse_args(&s(&["--faults", "canonical"])).unwrap();
        assert_eq!(o.config.faults, Some(FaultPlan::canonical()));
        let o = parse_args(&s(&["--faults", "seeded:42"])).unwrap();
        assert_eq!(o.config.faults, Some(FaultPlan::seeded(42)));
        // Plan files round-trip through the plan's own text format.
        let dir = std::env::temp_dir().join("gnn_bench_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.txt");
        std::fs::write(&path, FaultPlan::seeded(7).to_text()).unwrap();
        let o = parse_args(&s(&["--faults", path.to_str().unwrap()])).unwrap();
        assert_eq!(o.config.faults, Some(FaultPlan::seeded(7)));
        let _ = std::fs::remove_dir_all(&dir);

        assert!(parse_args(&s(&["--faults"])).is_err());
        assert!(parse_args(&s(&["--faults", "seeded:x"])).is_err());
        assert!(parse_args(&s(&["--faults", "/no/such/plan"])).is_err());
        // Order-robust across preset rebuilds, like --lint.
        let o = parse_args(&s(&["--faults", "canonical", "--smoke"])).unwrap();
        assert_eq!(o.config.faults, Some(FaultPlan::canonical()));
    }

    #[test]
    fn resume_implies_a_checkpoint_dir() {
        let o = parse_args(&s(&["--resume"])).unwrap();
        assert!(o.config.resume);
        assert_eq!(
            o.config.ckpt_dir.as_deref(),
            Some(std::path::Path::new("out/ckpt"))
        );
        let o = parse_args(&s(&["--ckpt", "my/ckpts", "--resume"])).unwrap();
        assert_eq!(
            o.config.ckpt_dir.as_deref(),
            Some(std::path::Path::new("my/ckpts"))
        );
        let o = parse_args(&s(&["--ckpt", "my/ckpts"])).unwrap();
        assert!(!o.config.resume, "--ckpt alone must not imply --resume");
    }

    #[test]
    fn serve_args_defaults_and_overrides() {
        let o = parse_serve_args(&[]).unwrap();
        assert_eq!(o.serve.endpoints.len(), 6);
        assert_eq!(o.policies.len(), 3);
        assert_eq!(o.serve.policy, o.policies[0]);
        assert!(!o.lint);
        assert!(o.faults.is_none());

        let o = parse_serve_args(&s(&[
            "--endpoints",
            "table4/Cora/GCN/PyG,table5/DD/MoNet/DGL",
            "--policies",
            "16@4000",
            "--requests",
            "250",
            "--rate",
            "1500",
            "--seed",
            "9",
            "--replicas",
            "3",
            "--queue-cap",
            "64",
            "--lint",
            "--faults",
            "canonical",
            "--trace",
            "out/serve",
        ]))
        .unwrap();
        assert_eq!(o.serve.endpoints.len(), 2);
        assert_eq!(o.endpoints_raw.len(), 2);
        assert_eq!(o.policies.len(), 1);
        assert_eq!(o.serve.policy.max_batch, 16);
        assert!((o.serve.policy.max_delay - 0.004).abs() < 1e-12);
        assert_eq!(o.serve.requests, 250);
        assert_eq!(o.serve.rate, 1500.0);
        assert_eq!(o.serve.seed, 9);
        assert_eq!(o.serve.replicas, 3);
        assert_eq!(o.serve.queue_cap, 64);
        assert!(o.lint);
        assert_eq!(o.faults, Some(FaultPlan::canonical()));
        assert_eq!(o.trace.as_deref(), Some(std::path::Path::new("out/serve")));

        let o = parse_serve_args(&s(&["--all-endpoints"])).unwrap();
        assert_eq!(o.serve.endpoints.len(), 60);
    }

    #[test]
    fn serve_args_keep_raw_unknown_endpoints_for_lint() {
        let o = parse_serve_args(&s(&["--endpoints", "table4/Cora/GCN/PyG,bogus/cell"])).unwrap();
        assert_eq!(o.endpoints_raw.len(), 2, "raw list keeps the bad entry");
        assert_eq!(o.serve.endpoints.len(), 1, "config keeps what parses");
    }

    #[test]
    fn serve_args_reject_malformed_values() {
        assert!(parse_serve_args(&s(&["--policies", "8"])).is_err());
        assert!(parse_serve_args(&s(&["--policies", "x@10"])).is_err());
        assert!(parse_serve_args(&s(&["--policies", ""])).is_err());
        assert!(parse_serve_args(&s(&["--rate"])).is_err());
        assert!(parse_serve_args(&s(&["--scale", "2.0"])).is_err());
        assert!(parse_serve_args(&s(&["--bogus"])).is_err());
    }

    #[test]
    fn fleet_args_defaults_and_overrides() {
        let o = parse_fleet_args(&[]).unwrap();
        assert_eq!(o.fleet.endpoints.len(), 6);
        assert_eq!(
            o.routings,
            vec![
                gnn_serve::RoutingPolicy::ConsistentHash,
                gnn_serve::RoutingPolicy::LeastLoaded
            ]
        );
        assert_eq!(o.fleet.routing, o.routings[0]);
        assert!(o.fleet.autoscale.is_some());
        assert!(!o.lint);
        assert!(o.faults.is_none());

        let o = parse_fleet_args(&s(&[
            "--endpoints",
            "table4/Cora/GCN/PyG,table5/DD/MoNet/DGL",
            "--shards",
            "4",
            "--replicas",
            "3",
            "--routing",
            "least-loaded",
            "--policy",
            "16@4000",
            "--requests",
            "250",
            "--rate",
            "1500",
            "--seed",
            "9",
            "--queue-cap",
            "64",
            "--admission-cap",
            "96",
            "--retry-budget",
            "0.25",
            "--hedge-after",
            "8000",
            "--no-autoscale",
            "--slo-ms",
            "10",
            "--workload",
            "closed:12@500",
            "--lint",
            "--faults",
            "canonical-fleet",
            "--trace",
            "out/fleet",
        ]))
        .unwrap();
        assert_eq!(o.fleet.endpoints.len(), 2);
        assert_eq!(o.fleet.shards, 4);
        assert_eq!(o.fleet.replicas_per_shard, 3);
        assert_eq!(o.routings, vec![gnn_serve::RoutingPolicy::LeastLoaded]);
        assert_eq!(o.fleet.policy.max_batch, 16);
        assert_eq!(o.fleet.requests, 250);
        assert_eq!(o.fleet.rate, 1500.0);
        assert_eq!(o.fleet.seed, 9);
        assert_eq!(o.fleet.queue_cap, 64);
        assert_eq!(o.fleet.admission_cap, 96);
        assert!((o.fleet.retry_budget - 0.25).abs() < 1e-12);
        assert!((o.fleet.hedge_after.unwrap() - 0.008).abs() < 1e-12);
        assert!(o.fleet.autoscale.is_none());
        assert!((o.fleet.slo_target - 0.010).abs() < 1e-12);
        assert!(matches!(
            o.fleet.workload,
            gnn_serve::FleetWorkload::Closed { clients: 12, .. }
        ));
        assert!(o.lint);
        assert_eq!(o.faults, Some(FaultPlan::canonical_fleet()));
        assert_eq!(o.trace.as_deref(), Some(std::path::Path::new("out/fleet")));

        let o = parse_fleet_args(&s(&["--hedge-after", "off"])).unwrap();
        assert!(o.fleet.hedge_after.is_none());
    }

    #[test]
    fn fleet_workloads_parse_all_forms() {
        use gnn_serve::{FleetWorkload, WorkloadKind};
        assert_eq!(
            parse_fleet_workload("open").unwrap(),
            FleetWorkload::Open(WorkloadKind::OpenLoop)
        );
        let FleetWorkload::Open(WorkloadKind::Diurnal { period, amplitude }) =
            parse_fleet_workload("diurnal:40@0.8").unwrap()
        else {
            panic!("expected diurnal")
        };
        assert!((period - 0.04).abs() < 1e-12);
        assert!((amplitude - 0.8).abs() < 1e-12);
        let FleetWorkload::Open(WorkloadKind::FlashCrowd { at, width, factor }) =
            parse_fleet_workload("flash:10@5@6").unwrap()
        else {
            panic!("expected flash crowd")
        };
        assert!((at - 0.01).abs() < 1e-12);
        assert!((width - 0.005).abs() < 1e-12);
        assert!((factor - 6.0).abs() < 1e-12);
        assert!(matches!(
            parse_fleet_workload("diurnal").unwrap(),
            FleetWorkload::Open(WorkloadKind::Diurnal { .. })
        ));
        assert!(matches!(
            parse_fleet_workload("flash").unwrap(),
            FleetWorkload::Open(WorkloadKind::FlashCrowd { .. })
        ));
        assert!(parse_fleet_workload("bogus").is_err());
        assert!(parse_fleet_workload("closed:x@500").is_err());
        assert!(parse_fleet_workload("flash:1@2").is_err());
    }

    #[test]
    fn fleet_faults_flag_accepts_the_fleet_plan() {
        let o = parse_fleet_args(&s(&["--faults", "canonical-fleet"])).unwrap();
        assert_eq!(o.faults, Some(FaultPlan::canonical_fleet()));
        let o = parse_args(&s(&["--faults", "canonical-fleet"])).unwrap();
        assert_eq!(o.config.faults, Some(FaultPlan::canonical_fleet()));
        assert!(parse_fleet_args(&s(&["--routing", "random"])).is_err());
        assert!(parse_fleet_args(&s(&["--routing", ""])).is_err());
        assert!(parse_fleet_args(&s(&["--retry-budget"])).is_err());
    }

    #[test]
    fn sample_args_defaults_and_overrides() {
        let o = parse_sample_args(&[]).unwrap();
        assert_eq!(o.specs, vec!["rmat-1m".to_owned()]);
        assert!(o.fanouts.is_empty());
        assert!(o.cache_rows.is_empty());
        assert_eq!(o.epochs, 2);
        assert_eq!(o.out, std::path::PathBuf::from("sample_metrics.csv"));
        assert!(!o.lint);
        assert!(o.faults.is_none());

        let o = parse_sample_args(&s(&[
            "--specs",
            "rmat-4k,rmat-64k",
            "--fanouts",
            "10x5,4x2",
            "--cache-rows",
            "512,64",
            "--epochs",
            "3",
            "--seed",
            "7",
            "--out",
            "out/sample/sample_metrics.csv",
            "--lint",
            "--faults",
            "canonical",
        ]))
        .unwrap();
        assert_eq!(o.specs.len(), 2);
        assert_eq!(o.fanouts, vec![vec![10, 5], vec![4, 2]]);
        assert_eq!(o.cache_rows, vec![512, 64]);
        assert_eq!(o.epochs, 3);
        assert_eq!(o.seed, 7);
        assert!(o.lint);
        assert_eq!(o.faults, Some(FaultPlan::canonical()));
    }

    #[test]
    fn sample_args_reject_malformed_values() {
        assert!(parse_sample_args(&s(&["--fanouts", "10@5"])).is_err());
        assert!(parse_sample_args(&s(&["--fanouts", "axb"])).is_err());
        assert!(parse_sample_args(&s(&["--cache-rows", "x"])).is_err());
        assert!(parse_sample_args(&s(&["--epochs", "0"])).is_err());
        assert!(parse_sample_args(&s(&["--specs", ""])).is_err());
        assert!(parse_sample_args(&s(&["--bogus"])).is_err());
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse_args(&s(&["--bogus"])).is_err());
        assert!(parse_args(&s(&["--scale", "2.0"])).is_err());
        assert!(parse_args(&s(&["--scale"])).is_err());
    }
}
