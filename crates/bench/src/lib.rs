//! # gnn-bench
//!
//! Reproduction binaries — one per table/figure of the paper — plus the
//! one flag table and the one run harness they all share. Each binary
//! prints the same rows/series the paper reports, at a configurable scale:
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
//! plus four ablations (`ablation_*`) and `index`, the experiment index.
//!
//! **Flags.** Every flag is parsed, checked and documented once, in
//! [`cli::FLAGS`]; every binary reads exactly the flags its
//! [`cli::COMMANDS`] row lists and refuses any other by name (exit 2 with
//! its usage). `<binary> --help` prints that list. The training binaries
//! build a `RunConfig` from a preset (`--quick` by default, `--full`,
//! `--smoke`) with `--scale`, `--seed`, `--epochs`, `--folds`, `--seeds`
//! over it, in any order.
//!
//! **The run harness.** [`Run`] is what every binary that lints, traces,
//! arms faults or writes artifacts goes through. `--lint` runs `gnn-lint`
//! over exactly what is about to run and refuses to start on any finding
//! (exit 1; with `--trace`, the findings also land in `<dir>/lint.json`).
//! `--faults <plan>` arms a deterministic fault plan — `canonical`,
//! `canonical-fleet` (the chaos suite plus a shard blackout and a network
//! straggler), `seeded:<n>`, or a plan file — around the work and prints
//! the faults that fired. Every training binary runs the one loop per task
//! of `gnn-train`, so `--faults` means the same on `table4`, `table5`,
//! `fig1_2` and `fig4_5` as on `sweep` and `sample`: a transient fault is
//! retried (its back-off shows in the simulated times, never in losses or
//! accuracies), a poisoned loss is rolled back and replayed, a persistent
//! OOM halves the batch, and what outlasts that surfaces as a typed
//! `TrainError` — recorded per cell by `sweep`/`sample`, a panic naming it
//! in the binaries that have no cell record to put it in. `--trace <dir>`
//! records the run and writes `trace.json` (Chrome trace-event format) and
//! `metrics.jsonl` (one record per training epoch) into `<dir>`, followed
//! by a run-wide summary. Only `sweep` trains under `--ckpt <dir>` (per-cell
//! checkpoints) and `--resume` (restore cells from them, bit-identically;
//! implies `--ckpt out/ckpt`); `serve`/`fleet` read `--ckpt` to load
//! trained weights. A failed artifact write, a dropped request, a failed
//! cell or a regression ends the run with exit 1.
//!
//! Every number these binaries print is *simulated* device time. The real
//! CPU time of the library itself — the tensor kernels, the message-passing
//! lowerings, the two frameworks' collation paths, whole workloads — is
//! measured by the standalone `benchmark/` package (see its README), which
//! records what it times and gates on it.

pub mod cli;
pub mod report;
pub mod sample;
pub mod whatif;

use std::fmt::Display;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gnn_core::RunConfig;
use gnn_faults::FaultPlan;
use gnn_lint::LintReport;
use gnn_serve::{ServeConfigError, ServeReport};

/// Parses this process's command line as binary `bin`'s (each binary
/// passes `env!("CARGO_BIN_NAME")`). `--help` prints the binary's usage
/// and exits 0; a command line [`cli::parse`] refuses prints the error and
/// the usage and exits 2.
pub fn args(bin: &str) -> cli::Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", cli::usage(bin));
        std::process::exit(0);
    }
    cli::parse(bin, &argv).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        eprint!("{}", cli::usage(bin));
        std::process::exit(2);
    })
}

/// The one run harness: the lint gate, the fault plan, the trace
/// collector, artifact writes and the exit status, the same for every
/// binary.
pub struct Run {
    trace: Option<PathBuf>,
    faults: Option<FaultPlan>,
    collector: Option<gnn_obs::CollectorHandle>,
    failed: bool,
}

impl Run {
    /// A run that records into `trace` (when given) and arms `faults`
    /// (when given) around every [`Run::exec`].
    pub fn new(trace: Option<&Path>, faults: Option<&FaultPlan>) -> Run {
        Run {
            trace: trace.map(Path::to_path_buf),
            faults: faults.cloned(),
            collector: None,
            failed: false,
        }
    }

    /// The run a training configuration describes. With `--lint` the
    /// whole configured sweep is the gate, and its memory certificates
    /// land in `memory.json` beside `lint.json`.
    pub fn train(cfg: &RunConfig) -> Run {
        let mut run = Run::new(cfg.trace.dir(), cfg.faults.as_ref());
        if cfg.lint_first {
            let (report, memory) = gnn_lint::lint_run_with_memory(cfg);
            if let Some(dir) = cfg.trace.dir() {
                run.wrote("memory", memory.save(dir));
            }
            run.gate(report);
        }
        run
    }

    /// The trace directory, where a binary puts its own artifacts.
    pub fn trace_dir(&self) -> Option<&Path> {
        self.trace.as_deref()
    }

    /// The lint gate: prints `report`, saves it as `lint.json` in the
    /// trace directory, and exits with status 1 on any finding, before
    /// anything runs.
    pub fn gate(&mut self, report: LintReport) {
        print!("{report}");
        if let Some(dir) = self.trace.clone() {
            self.wrote("lint", report.save(&dir));
        }
        if !report.is_clean() {
            eprintln!("error: gnn-lint found problems; refusing to run");
            std::process::exit(1);
        }
    }

    /// Runs `f` with the fault plan armed (afresh on every call, so each
    /// call faces the same faults) and prints the faults that fired. The
    /// trace collector starts with the first call and records until
    /// [`Run::finish`].
    pub fn exec<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if self.trace.is_some() && self.collector.is_none() {
            self.collector = Some(gnn_obs::install(gnn_obs::Collector::new()));
        }
        // Code that arms its own plan (`gnn_core::sweep`) finds this
        // injector active and reuses it.
        let injector = match &self.faults {
            Some(plan) if !gnn_faults::is_active() => Some(gnn_faults::install(plan.clone())),
            _ => None,
        };
        let out = f();
        if let Some(log) = injector.map(gnn_faults::finish) {
            if !log.is_empty() {
                println!("faults fired ({}):", log.len());
                for line in log.summary().lines() {
                    println!("  {line}");
                }
            }
        }
        out
    }

    /// Reports an artifact write: its path, or the error (which fails the
    /// run).
    pub fn wrote(&mut self, label: &str, written: io::Result<PathBuf>) {
        match written {
            Ok(path) => println!("{:<8} {}", format!("{label}:"), path.display()),
            Err(e) => self.error(format!("writing {label}: {e}")),
        }
    }

    /// Writes `text` to `path`, creating its directory, and reports it.
    pub fn write(&mut self, label: &str, path: PathBuf, text: &str) {
        let written = path
            .parent()
            .filter(|dir| !dir.as_os_str().is_empty())
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, text))
            .map(|()| path);
        self.wrote(label, written);
    }

    /// Prints an error; the run will exit with status 1.
    pub fn error(&mut self, msg: impl Display) {
        eprintln!("error: {msg}");
        self.failed = true;
    }

    /// Ends the run: saves `trace.json` and `metrics.jsonl` and prints the
    /// run summary when tracing, and returns the exit status.
    pub fn finish(mut self) -> ExitCode {
        if let (Some(handle), Some(dir)) = (self.collector.take(), self.trace.clone()) {
            let trace = gnn_obs::finish(handle);
            match trace.save(&dir) {
                Ok((trace_path, metrics_path)) => {
                    self.wrote("trace", Ok(trace_path));
                    self.wrote("metrics", Ok(metrics_path));
                }
                Err(e) => self.error(format!("writing trace artifacts to {}: {e}", dir.display())),
            }
            print!("{}", gnn_core::report::run_summary(&trace));
        }
        if self.failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }

    /// One `serve`/`fleet` policy run of `requests` requests: prints its
    /// summary, and fails the run if a request missed its terminal outcome
    /// (answered, rejected or shed) or retries and hedges outgrew their
    /// budget.
    pub fn served(
        &mut self,
        policy: &str,
        requests: usize,
        outcome: Result<ServeReport, ServeConfigError>,
    ) -> Option<ServeReport> {
        let report = outcome
            .map_err(|e| self.error(format!("{policy}: {e}")))
            .ok()?;
        print!("{}", report.summary());
        println!();
        let terminal = report.answered() + report.rejected() + report.shed();
        if terminal != requests {
            let dropped = requests - terminal;
            self.error(format!("{policy} dropped {dropped} request(s)"));
        }
        if let Some(fleet) = &report.fleet {
            let bound = (1.0 + fleet.retry_budget) * fleet.submitted as f64;
            if fleet.dispatched as f64 > bound + 1e-9 {
                self.error(format!(
                    "{policy} amplified: {} dispatched > (1 + {}) x {}",
                    fleet.dispatched, fleet.retry_budget, fleet.submitted
                ));
            }
        }
        Some(report)
    }

    /// Ends the policy sweep of a `serve`/`fleet` run over `endpoints`
    /// endpoints: says how many serve initialization weights, and writes
    /// `serve_metrics.csv` into the trace directory.
    pub fn served_all(&mut self, reports: &[ServeReport], endpoints: usize) {
        if let Some(report) = reports.first() {
            if report.restored_endpoints < endpoints {
                println!(
                    "note: {}/{endpoints} endpoint(s) restored from checkpoints; the rest \
                     serve their deterministic initialization weights",
                    report.restored_endpoints
                );
            }
        }
        if let Some(dir) = self.trace.clone() {
            self.wrote("serve", gnn_serve::write_serve_metrics(&dir, reports));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::cli::{parse, usage, Args, COMMANDS, FLAGS};
    use super::*;
    use gnn_core::report::ResourceMetric;
    use gnn_core::runner::GraphDs;
    use gnn_serve::{FleetWorkload, RoutingPolicy, WorkloadKind};

    /// Parses `line`, split on whitespace, as binary `bin`'s command line.
    fn args(bin: &str, line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(bin, &argv)
    }

    fn cfg(bin: &str, line: &str) -> RunConfig {
        args(bin, line).unwrap().run_config()
    }

    #[test]
    fn defaults_to_quick() {
        let a = args("table4", "").unwrap();
        assert_eq!(a.run_config(), RunConfig::quick());
        assert!(a.dataset.is_none());
    }

    #[test]
    fn full_and_overrides() {
        let c = cfg("table5", "--full --scale 0.5 --seed 7");
        assert_eq!(c.scale, 0.5);
        assert_eq!(c.seed, 7);
        assert_eq!(c.folds, 10);
        // Overrides hold wherever the preset stands.
        assert_eq!(cfg("table5", "--scale 0.5 --seed 7 --full"), c);
    }

    #[test]
    fn dataset_and_metric_lowercased() {
        let a = args("fig1_2", "--dataset DD").unwrap();
        assert_eq!(a.dataset, Some(GraphDs::Dd));
        let a = args("fig4_5", "--metric Memory").unwrap();
        assert_eq!(a.metric, Some(ResourceMetric::Memory));
        assert!(args("fig1_2", "--dataset cora").is_err());
        assert!(args("fig4_5", "--metric speed").is_err());
    }

    #[test]
    fn epochs_sets_both_task_caps() {
        let c = cfg("sweep", "--epochs 9");
        assert_eq!(c.node_epochs, 9);
        assert_eq!(c.graph_epochs, 9);
        assert!(args("sweep", "--epochs 0").is_err());
    }

    #[test]
    fn trace_flag_sets_directory() {
        let c = cfg("table4", "--trace out/run1");
        assert!(c.trace.enabled());
        assert_eq!(c.trace.dir(), Some(Path::new("out/run1")));
        assert!(args("table4", "--trace").is_err());
        // A preset after --trace no longer drops it.
        let c = cfg("table4", "--trace out/run1 --smoke");
        assert_eq!(c.trace.dir(), Some(Path::new("out/run1")));
    }

    #[test]
    fn artifact_dir_flags_reject_unusable_paths() {
        let dir = std::env::temp_dir().join(format!("gnn_bench_artifact_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("plain.txt");
        std::fs::write(&file, "x").unwrap();
        let blocked = file.join("nested").display().to_string();

        for flag in ["--trace", "--ckpt"] {
            let err = args("sweep", &format!("{flag} {blocked}")).unwrap_err();
            assert!(err.contains(flag), "{err}");
            assert!(err.contains(&blocked), "error must name the path: {err}");
            assert!(err.contains("not a directory"), "{err}");
            let err = args("serve", &format!("{flag} {blocked}")).unwrap_err();
            assert!(err.contains(&blocked), "{err}");
        }
        let err = args("report", &format!("--out {blocked}/B.json")).unwrap_err();
        assert!(err.contains("--out"), "{err}");
        // Good paths still parse, and validation creates nothing.
        let fresh = dir.join("fresh/run");
        let c = cfg("sweep", &format!("--trace {}", fresh.display()));
        assert_eq!(c.trace.dir(), Some(fresh.as_path()));
        assert!(!fresh.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lint_flag_is_order_robust() {
        assert!(cfg("table4", "--lint").lint_first);
        let c = cfg("table5", "--full --lint");
        assert!(c.lint_first);
        assert_eq!(c.folds, 10);
        assert!(cfg("table4", "--lint --smoke").lint_first);
        assert!(!cfg("table4", "--full").lint_first);
    }

    #[test]
    fn faults_flag_parses_all_plan_forms() {
        let c = cfg("table4", "--faults canonical");
        assert_eq!(c.faults, Some(FaultPlan::canonical()));
        let c = cfg("table4", "--faults seeded:42");
        assert_eq!(c.faults, Some(FaultPlan::seeded(42)));
        // Plan files round-trip through the plan's own text format.
        let dir = std::env::temp_dir().join("gnn_bench_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.txt");
        std::fs::write(&path, FaultPlan::seeded(7).to_text()).unwrap();
        let c = cfg("table4", &format!("--faults {}", path.display()));
        assert_eq!(c.faults, Some(FaultPlan::seeded(7)));
        let _ = std::fs::remove_dir_all(&dir);

        for bad in ["--faults", "--faults seeded:x", "--faults /no/such/plan"] {
            assert!(args("table4", bad).is_err(), "{bad}");
        }
        let c = cfg("table4", "--faults canonical --smoke");
        assert_eq!(c.faults, Some(FaultPlan::canonical()));
    }

    #[test]
    fn resume_implies_a_checkpoint_dir() {
        let c = cfg("sweep", "--resume");
        assert!(c.resume);
        assert_eq!(c.ckpt_dir.as_deref(), Some(Path::new("out/ckpt")));
        let c = cfg("sweep", "--ckpt my/ckpts --resume");
        assert_eq!(c.ckpt_dir.as_deref(), Some(Path::new("my/ckpts")));
        let c = cfg("sweep", "--ckpt my/ckpts");
        assert!(!c.resume, "--ckpt alone must not imply --resume");
    }

    #[test]
    fn serve_args_defaults_and_overrides() {
        let a = args("serve", "").unwrap();
        let serve = a.serve_config();
        assert_eq!(serve.endpoints.len(), 6);
        assert_eq!(a.policies().len(), 3);
        assert_eq!(serve.policy, a.policies()[0]);
        assert!(!a.lint);
        assert!(a.faults.is_none());

        let a = args(
            "serve",
            "--endpoints table4/Cora/GCN/PyG,table5/DD/MoNet/DGL --policies 16@4000 \
             --requests 250 --rate 1500 --seed 9 --replicas 3 --queue-cap 64 --lint \
             --faults canonical --trace out/serve",
        )
        .unwrap();
        let serve = a.serve_config();
        assert_eq!(serve.endpoints.len(), 2);
        assert_eq!(a.endpoints().0.len(), 2);
        assert_eq!(a.policies().len(), 1);
        assert_eq!(serve.policy.max_batch, 16);
        assert!((serve.policy.max_delay - 0.004).abs() < 1e-12);
        assert_eq!(serve.requests, 250);
        assert_eq!(serve.rate, 1500.0);
        assert_eq!(serve.seed, 9);
        assert_eq!(serve.replicas, 3);
        assert_eq!(serve.queue_cap, 64);
        assert!(a.lint);
        assert_eq!(a.faults, Some(FaultPlan::canonical()));
        assert_eq!(a.trace.as_deref(), Some(Path::new("out/serve")));

        let a = args("serve", "--all-endpoints").unwrap();
        assert_eq!(a.serve_config().endpoints.len(), 60);
    }

    #[test]
    fn serve_args_keep_raw_unknown_endpoints_for_lint() {
        let a = args("serve", "--endpoints table4/Cora/GCN/PyG,bogus/cell").unwrap();
        let (raw, cells) = a.endpoints();
        assert_eq!(raw.len(), 2, "raw list keeps the bad entry");
        assert_eq!(cells.len(), 1, "config keeps what parses");
    }

    #[test]
    fn serve_args_reject_malformed_values() {
        for bad in [
            "--policies 8",
            "--policies x@10",
            "--policies @",
            "--rate",
            "--scale 2.0",
            "--bogus",
        ] {
            assert!(args("serve", bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn fleet_args_defaults_and_overrides() {
        let a = args("fleet", "").unwrap();
        let fleet = a.fleet_config();
        assert_eq!(fleet.endpoints.len(), 6);
        assert_eq!(
            a.routings(),
            vec![RoutingPolicy::ConsistentHash, RoutingPolicy::LeastLoaded]
        );
        assert_eq!(fleet.routing, a.routings()[0]);
        assert!(fleet.autoscale.is_some());
        assert!(!a.lint);
        assert!(a.faults.is_none());

        let a = args(
            "fleet",
            "--endpoints table4/Cora/GCN/PyG,table5/DD/MoNet/DGL --shards 4 --replicas 3 \
             --routing least-loaded --policy 16@4000 --requests 250 --rate 1500 --seed 9 \
             --queue-cap 64 --admission-cap 96 --retry-budget 0.25 --hedge-after 8000 \
             --no-autoscale --slo-ms 10 --workload closed:12@500 --lint \
             --faults canonical-fleet --trace out/fleet",
        )
        .unwrap();
        let fleet = a.fleet_config();
        assert_eq!(fleet.endpoints.len(), 2);
        assert_eq!(fleet.shards, 4);
        assert_eq!(fleet.replicas_per_shard, 3);
        assert_eq!(a.routings(), vec![RoutingPolicy::LeastLoaded]);
        assert_eq!(fleet.policy.max_batch, 16);
        assert_eq!(fleet.requests, 250);
        assert_eq!(fleet.rate, 1500.0);
        assert_eq!(fleet.seed, 9);
        assert_eq!(fleet.queue_cap, 64);
        assert_eq!(fleet.admission_cap, 96);
        assert!((fleet.retry_budget - 0.25).abs() < 1e-12);
        assert!((fleet.hedge_after.unwrap() - 0.008).abs() < 1e-12);
        assert!(fleet.autoscale.is_none());
        assert!((fleet.slo_target - 0.010).abs() < 1e-12);
        assert!(matches!(
            fleet.workload,
            FleetWorkload::Closed { clients: 12, .. }
        ));
        assert!(a.lint);
        assert_eq!(a.faults, Some(FaultPlan::canonical_fleet()));
        assert_eq!(a.trace.as_deref(), Some(Path::new("out/fleet")));

        let a = args("fleet", "--hedge-after off").unwrap();
        assert!(a.fleet_config().hedge_after.is_none());
    }

    #[test]
    fn fleet_workloads_parse_all_forms() {
        let workload = |w: &str| args("fleet", &format!("--workload {w}")).map(|a| a.workload);
        assert_eq!(
            workload("open").unwrap(),
            Some(FleetWorkload::Open(WorkloadKind::OpenLoop))
        );
        let Some(FleetWorkload::Open(WorkloadKind::Diurnal { period, amplitude })) =
            workload("diurnal:40@0.8").unwrap()
        else {
            panic!("expected diurnal")
        };
        assert!((period - 0.04).abs() < 1e-12);
        assert!((amplitude - 0.8).abs() < 1e-12);
        let Some(FleetWorkload::Open(WorkloadKind::FlashCrowd { at, width, factor })) =
            workload("flash:10@5@6").unwrap()
        else {
            panic!("expected flash crowd")
        };
        assert!((at - 0.01).abs() < 1e-12);
        assert!((width - 0.005).abs() < 1e-12);
        assert!((factor - 6.0).abs() < 1e-12);
        assert!(matches!(
            workload("diurnal").unwrap(),
            Some(FleetWorkload::Open(WorkloadKind::Diurnal { .. }))
        ));
        assert!(matches!(
            workload("flash").unwrap(),
            Some(FleetWorkload::Open(WorkloadKind::FlashCrowd { .. }))
        ));
        for bad in ["bogus", "closed:x@500", "flash:1@2", "open:1", "closed"] {
            assert!(workload(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn fleet_faults_flag_accepts_the_fleet_plan() {
        let a = args("fleet", "--faults canonical-fleet").unwrap();
        assert_eq!(a.faults, Some(FaultPlan::canonical_fleet()));
        let c = cfg("sweep", "--faults canonical-fleet");
        assert_eq!(c.faults, Some(FaultPlan::canonical_fleet()));
        for bad in ["--routing random", "--routing ,", "--retry-budget"] {
            assert!(args("fleet", bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn sample_args_defaults_and_overrides() {
        let a = args("sample", "").unwrap();
        let s = a.sample_config();
        assert_eq!(
            s.specs,
            vec![gnn_sample::SampleSpec::get("rmat-1m").unwrap()]
        );
        assert!(s.fanouts.is_empty());
        assert!(s.cache_rows.is_empty());
        assert_eq!(s.epochs, 2);
        assert_eq!(s.out, PathBuf::from("sample_metrics.csv"));
        assert!(!a.lint);
        assert!(a.faults.is_none());

        let a = args(
            "sample",
            "--specs rmat-4k,rmat-64k --fanouts 10x5,4x2 --cache-rows 512,64 --epochs 3 \
             --seed 7 --out out/sample/sample_metrics.csv --lint --faults canonical",
        )
        .unwrap();
        let s = a.sample_config();
        assert_eq!(s.specs.len(), 2);
        assert_eq!(s.fanouts, vec![vec![10, 5], vec![4, 2]]);
        assert_eq!(s.cache_rows, vec![512, 64]);
        assert_eq!(s.epochs, 3);
        assert_eq!(s.seed, 7);
        assert_eq!(s.out, PathBuf::from("out/sample/sample_metrics.csv"));
        assert!(a.lint);
        assert_eq!(a.faults, Some(FaultPlan::canonical()));
    }

    #[test]
    fn sample_args_reject_malformed_values() {
        for bad in [
            "--fanouts 10@5",
            "--fanouts axb",
            "--cache-rows x",
            "--epochs 0",
            "--specs ,",
            "--specs rmat-4k,rmat-9000",
            "--bogus",
        ] {
            assert!(args("sample", bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn unknown_flag_rejected() {
        assert_eq!(
            args("table4", "--bogus").unwrap_err(),
            "unknown flag: --bogus"
        );
        assert!(args("table4", "--scale 2.0").is_err());
        assert!(args("table4", "--scale").is_err());
    }

    #[test]
    fn binaries_refuse_the_flags_they_do_not_read() {
        for (bin, flag) in [
            ("table1", "--trace"),
            ("table1", "--epochs"),
            ("table4", "--ckpt"),
            ("table4", "--resume"),
            ("table4", "--folds"),
            ("table5", "--seeds"),
            ("fig3", "--faults"),
            ("fig6", "--epochs"),
            ("ablation_batching", "--faults"),
            ("ablation_launch", "--lint"),
            ("ablation_fusion", "--smoke"),
            ("index", "--full"),
            ("serve", "--epochs"),
            ("fleet", "--policies"),
            ("sample", "--ckpt"),
            ("report", "--trace"),
            ("whatif", "--faults"),
        ] {
            let err = args(bin, flag).unwrap_err();
            assert_eq!(err, format!("{bin} does not take {flag}"));
            assert!(
                !usage(bin).contains(&format!("{flag} ")),
                "{bin} lists {flag}"
            );
        }
        assert!(usage("index").contains("takes no flags"));
    }

    #[test]
    fn repeated_and_conflicting_flags_are_refused() {
        let err = args("table4", "--seed 1 --seed 2").unwrap_err();
        assert_eq!(err, "--seed given twice");
        assert!(args("table4", "--smoke --full").is_err());
        assert!(args("serve", "--all-endpoints --endpoints x").is_err());
        assert!(args("whatif", "--cells table4/Cora/GCN/PyG --all-cells").is_err());
    }

    #[test]
    fn every_binary_has_one_row_and_every_row_is_read() {
        let bins: std::collections::BTreeSet<String> =
            std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
                .collect();
        let rows: std::collections::BTreeSet<String> =
            COMMANDS.iter().map(|c| c.name.to_owned()).collect();
        assert_eq!(bins, rows);
        assert_eq!(rows.len(), COMMANDS.len(), "one row per binary");
        for (i, f) in FLAGS.iter().enumerate() {
            assert!(
                FLAGS[..i].iter().all(|g| g.name != f.name),
                "{} twice",
                f.name
            );
            let read = |c: &cli::Command| c.flags.split_whitespace().any(|n| n == f.name);
            assert!(COMMANDS.iter().any(read), "{} is read by no binary", f.name);
        }
        for c in COMMANDS {
            for name in c.flags.split_whitespace() {
                assert!(FLAGS.iter().any(|f| f.name == name), "{}: {name}", c.name);
                assert!(usage(c.name).contains(name));
            }
        }
    }

    /// Every `gnn-bench` invocation a reader or CI is shown — `--bin <name>
    /// -- <flags>` and `./target/release/<name> <flags>` — as `(name, argv)`.
    fn documented_invocations(text: &str) -> Vec<(String, Vec<String>)> {
        let text = text.replace("\\\n", " ");
        let mut found = Vec::new();
        for line in text.lines() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            for (i, &token) in tokens.iter().enumerate() {
                let (name, rest) = match token.strip_prefix("./target/release/") {
                    Some(name) => (name, &tokens[i + 1..]),
                    None if token == "--bin" && i + 1 < tokens.len() => {
                        let rest = &tokens[i + 2..];
                        (tokens[i + 1], rest.strip_prefix(&["--"][..]).unwrap_or(&[]))
                    }
                    None => continue,
                };
                let name = name.trim_matches(|c| c == '`' || c == '.' || c == ',');
                if COMMANDS.iter().all(|c| c.name != name) {
                    continue;
                }
                let mut argv = Vec::new();
                for &arg in rest {
                    if arg.starts_with('#') || ["&&", "|", ">", ";"].contains(&arg) {
                        break;
                    }
                    argv.push(arg.trim_matches('`').to_owned());
                    if arg.ends_with('`') {
                        break;
                    }
                }
                found.push((name.to_owned(), argv));
            }
        }
        found
    }

    #[test]
    fn every_documented_command_line_parses() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut checked = 0;
        for doc in [
            "README.md",
            "EXPERIMENTS.md",
            "DESIGN.md",
            ".github/workflows/ci.yml",
            ".claude/skills/verify/SKILL.md",
        ] {
            let text = std::fs::read_to_string(format!("{root}/{doc}")).unwrap();
            for (bin, argv) in documented_invocations(&text) {
                if let Err(e) = parse(&bin, &argv) {
                    panic!("{doc}: `{bin} {}`: {e}", argv.join(" "));
                }
                checked += 1;
            }
        }
        for e in &gnn_core::experiments::EXPERIMENTS {
            for (bin, argv) in documented_invocations(e.command) {
                assert!(parse(&bin, &argv).is_ok(), "{}", e.command);
                checked += 1;
            }
        }
        assert!(
            checked >= 40,
            "only {checked} documented command lines found"
        );
    }

    #[test]
    fn report_and_whatif_flags_override_their_configs() {
        let a = args("report", "--scale 0.1 --epochs 3 --slo-ms 10 --no-diff").unwrap();
        let r = a.report_config();
        assert_eq!((r.scale, r.epochs), (0.1, 3));
        assert!((r.slo_target - 0.010).abs() < 1e-12);
        assert_eq!(r.cells, report::ReportConfig::default().cells);
        assert!(a.no_diff);

        let w = args("whatif", "--all-cells --policies 2@500")
            .unwrap()
            .whatif_config();
        assert_eq!(w.cells.len(), 60);
        assert_eq!(w.policies.len(), 1);
        assert_eq!(w.requests, whatif::WhatIfConfig::default().requests);
        assert!(args("whatif", "--cells bogus/cell").is_err());
        assert!(args("report", "--threshold -1").is_err());
    }
}
