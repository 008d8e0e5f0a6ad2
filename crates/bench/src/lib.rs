//! # gnn-bench
//!
//! The study's one executable, `gnn-bench <command> [flags]`: 18 commands,
//! one per table/figure of the paper plus the harnesses around them and
//! the static analyzer, over one command table, one flag table and one run
//! harness. Each table/figure command prints the same rows/series the
//! paper reports, at a configurable scale, as the text rendering of the
//! same `gnn_obs::Table` column list its CSV export uses
//! (`gnn_core::export`), under a first line that repeats the command line:
//!
//! | Command   | Reproduces |
//! |-----------|------------|
//! | `table1`  | Table I — dataset statistics |
//! | `table4`  | Table IV — node classification time/accuracy |
//! | `table5`  | Table V — graph classification time/accuracy |
//! | `fig1_2`  | Figs. 1–2 — epoch-time breakdown, and Figs. 4–5 — peak memory + GPU utilization (`--dataset enzymes|dd`) |
//! | `fig3`    | Fig. 3 — layer-wise execution time on ENZYMES |
//! | `fig6`    | Fig. 6 — multi-GPU scaling of GCN/GAT on MNIST |
//! | `sweep`   | Fault-isolated sweep over all 60 cells |
//! | `serve`   | Inference serving: batching-policy sweep over trained cells |
//! | `sample`  | Giant-graph sampled training: fan-out/cache sweep over seeded RMAT graphs → `sample_metrics.csv` |
//! | `fleet`   | Fleet serving: routing-policy sweep over sharded endpoints under chaos |
//! | `report`  | Regression observatory: canonical cells + serve policies → `BENCH_<n>.json`, diffed against the previous report |
//! | `whatif`  | Causal profiler: virtual-speedup experiments over the recorded timeline → ranked opportunities in `whatif.json` (`--conformance` re-runs the top predictions for real) |
//! | `lint`    | `gnn-lint` over the whole configured sweep (`--smoke` by default); `--trace <dir>` writes `lint.json` and `memory.json` |
//!
//! plus four ablations (`ablation_*`) and `index`, the experiment index.
//!
//! **Commands and flags.** Every command is one row of [`cli::COMMANDS`]:
//! its name, one line of help (`gnn-bench --help` lists them), the
//! function in `commands.rs` that runs it, and the flags it reads. Every
//! flag is parsed, checked and documented once, in [`cli::FLAGS`]; a
//! command refuses any flag its row does not list, by name (exit 2 with
//! its usage). `gnn-bench <command> --help` prints that list. The training
//! commands build a `RunConfig` from a preset (`--quick` by default,
//! `--full`, `--smoke`) with `--scale`, `--seed`, `--epochs`, `--folds`,
//! `--seeds` over it, in any order.
//!
//! **The run harness.** [`Run`] is what every command that lints, traces,
//! arms faults or writes artifacts goes through. `--lint` runs `gnn-lint`
//! over exactly what is about to run and refuses to start on any finding
//! (exit 1; with `--trace`, the findings also land in `<dir>/lint.json`).
//! `--faults <plan>` arms a deterministic fault plan — `canonical`,
//! `canonical-fleet` (the chaos suite plus a shard blackout and a network
//! straggler), `seeded:<n>`, or a plan file — around the work and prints
//! the faults that fired. Every training command runs the one loop per task
//! of `gnn-train`, so `--faults` means the same on `table4`, `table5` and
//! `fig1_2` as on `sweep` and `sample`: a transient fault is
//! retried (its back-off shows in the simulated times, never in losses or
//! accuracies), a poisoned loss is rolled back and replayed, a persistent
//! OOM halves the batch, and what outlasts that surfaces as a typed
//! `TrainError` — recorded per cell by `sweep`/`sample`, a panic naming it
//! in the commands that have no cell record to put it in. `--trace <dir>`
//! records the run and writes `trace.json` (Chrome trace-event format) and
//! `metrics.jsonl` (one record per training epoch) into `<dir>`, followed
//! by a run-wide summary. Only `sweep` trains under `--ckpt <dir>` (per-cell
//! checkpoints) and `--resume` (restore cells from them, bit-identically;
//! implies `--ckpt out/ckpt`); `serve`/`fleet` read `--ckpt` to load
//! trained weights. A failed artifact write, a dropped request, a failed
//! cell, a regression or a document row that breaks its `check` (each
//! document's invariants, beside its column lists) ends the run with
//! exit 1.
//!
//! Every number these commands print is *simulated* device time. The real
//! CPU time of the library itself — the tensor kernels, the message-passing
//! lowerings, the two frameworks' collation paths, whole workloads — is
//! measured by the standalone `benchmark/` package (see its README), which
//! records what it times and gates on it.

pub mod cli;
mod commands;
pub mod report;
pub mod sample;
pub mod whatif;

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gnn_core::RunConfig;
use gnn_faults::FaultPlan;
use gnn_lint::LintReport;
use gnn_serve::{ServeConfigError, ServeReport, SERVE_METRICS};

/// The one run harness: the lint gate, the fault plan, the trace
/// collector, artifact writes and the exit status, the same for every
/// command.
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
                run.write(
                    "memory",
                    dir.join("memory.json"),
                    &memory.to_value().to_json(),
                );
            }
            run.gate(report);
        }
        run
    }

    /// The trace directory, where a command puts its own artifacts.
    pub fn trace_dir(&self) -> Option<&Path> {
        self.trace.as_deref()
    }

    /// The lint gate: prints `report`, saves it as `lint.json` in the
    /// trace directory, and exits with status 1 on any finding, before
    /// anything runs.
    pub fn gate(&mut self, report: LintReport) {
        print!("{report}");
        if let Some(dir) = self.trace.clone() {
            self.write("lint", dir.join("lint.json"), &report.to_value().to_json());
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

    /// Writes `text` to `path`, creating its directory, and reports it:
    /// its path, or the error (which fails the run).
    pub fn write(&mut self, label: &str, path: PathBuf, text: &str) {
        let written = path
            .parent()
            .filter(|dir| !dir.as_os_str().is_empty())
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, text));
        match written {
            Ok(()) => println!("{:<8} {}", format!("{label}:"), path.display()),
            Err(e) => self.error(format!("writing {label}: {e}")),
        }
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
            self.write("trace", dir.join("trace.json"), &trace.to_chrome_json());
            self.write(
                "metrics",
                dir.join("metrics.jsonl"),
                &trace.to_metrics_jsonl(),
            );
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
            let csv = SERVE_METRICS.csv(reports.iter().flat_map(ServeReport::metrics_rows));
            self.write("serve", dir.join("serve_metrics.csv"), &csv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::cli::{parse, usage, Args, COMMANDS, FLAGS};
    use super::*;
    use gnn_core::runner::GraphDs;
    use gnn_serve::{FleetWorkload, RoutingPolicy, ServeConfig, WorkloadKind};

    /// Parses `line`, split on whitespace, as command `cmd`'s flags.
    fn args(cmd: &str, line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(cmd, &argv)
    }

    fn cfg(cmd: &str, line: &str) -> RunConfig {
        args(cmd, line).unwrap().run_config()
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
    fn dataset_lowercased() {
        let a = args("fig1_2", "--dataset DD").unwrap();
        assert_eq!(a.dataset, Some(GraphDs::Dd));
        assert!(args("fig1_2", "--dataset cora").is_err());
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
        for (cmd, flag) in [
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
            ("lint", "--lint"),
        ] {
            let err = args(cmd, flag).unwrap_err();
            assert_eq!(err, format!("{cmd} does not take {flag}"));
            assert!(
                !usage(cmd).contains(&format!("{flag} ")),
                "{cmd} lists {flag}"
            );
        }
        assert!(usage("index").contains("takes no flags"));
    }

    #[test]
    fn lint_reads_its_flags_in_any_order() {
        let lint = |line: &str| args("lint", line).unwrap().lint_config();
        assert_eq!(lint(""), RunConfig::smoke().with_lint());
        let c = lint("--faults canonical --full");
        assert_eq!(c, lint("--full --faults canonical"));
        assert_eq!(c.faults, Some(FaultPlan::canonical()));
        assert_eq!(c.scale, RunConfig::paper().scale);
        let c = lint("--scale 0.1 --full --trace out/lint");
        assert_eq!(c, lint("--full --trace out/lint --scale 0.1"));
        assert_eq!((c.scale, c.folds), (0.1, RunConfig::paper().folds));
        assert_eq!(c.trace.dir(), Some(Path::new("out/lint")));
        for (line, err) in [
            ("--epochs 3", "lint does not take --epochs"),
            ("--ckpt out/ckpt", "lint does not take --ckpt"),
            ("--json out/lint", "unknown flag: --json"),
        ] {
            assert_eq!(args("lint", line).unwrap_err(), err);
        }
    }

    #[test]
    fn lint_writes_lint_and_memory_json() {
        let dir = std::env::temp_dir().join(format!("gnn_bench_lint_{}", std::process::id()));
        let line = format!("--trace {}", dir.display());
        let status = commands::lint(args("lint", &line).unwrap());
        assert_eq!(status, ExitCode::SUCCESS);
        let doc = |name: &str| {
            let text = std::fs::read_to_string(dir.join(name)).unwrap();
            gnn_obs::json::parse(&text).unwrap()
        };
        for name in ["lint.json", "memory.json"] {
            assert_eq!(doc(name).get("clean"), Some(&gnn_obs::Value::Bool(true)));
        }
        let cells = doc("memory.json")
            .get("cells")
            .and_then(|c| c.as_arr().map(<[_]>::len));
        assert_eq!(cells, Some(60));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_creates_parent_directories_and_fails_the_run_on_error() {
        let dir = std::env::temp_dir().join(format!("gnn_bench_write_{}", std::process::id()));
        let mut run = Run::new(None, None);
        run.write("csv", dir.join("nested/out.csv"), "a,b\n1,2\n");
        let text = std::fs::read_to_string(dir.join("nested/out.csv")).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        assert!(!run.failed);
        // A parent that is a plain file cannot be created.
        run.write("csv", dir.join("nested/out.csv/x.csv"), "");
        assert!(run.failed);
        let _ = std::fs::remove_dir_all(&dir);
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
    fn every_command_has_one_row_and_every_row_is_read() {
        for (i, c) in COMMANDS.iter().enumerate() {
            assert!(
                COMMANDS[..i].iter().all(|d| d.name != c.name),
                "{} twice",
                c.name
            );
        }
        assert_eq!(args("tabel4", "").unwrap_err(), "unknown command: tabel4");
        for (i, f) in FLAGS.iter().enumerate() {
            assert!(
                FLAGS[..i].iter().all(|g| g.name != f.name),
                "{} twice",
                f.name
            );
            let read = |c: &cli::Command| c.flags.split_whitespace().any(|n| n == f.name);
            assert!(
                COMMANDS.iter().any(read),
                "{} is read by no command",
                f.name
            );
        }
        for c in COMMANDS {
            for name in c.flags.split_whitespace() {
                assert!(FLAGS.iter().any(|f| f.name == name), "{}: {name}", c.name);
                assert!(usage(c.name).contains(name));
            }
        }
    }

    #[test]
    fn every_command_row_has_a_description() {
        let overview = cli::overview();
        for c in COMMANDS {
            assert!(!c.about.trim().is_empty(), "{} has no description", c.name);
            let listed = |l: &str| l.trim_start().starts_with(c.name) && l.ends_with(c.about);
            assert!(overview.lines().any(listed), "{} is not listed", c.name);
        }
    }

    /// Every `gnn-bench` command line a reader or CI is shown —
    /// `gnn-bench <command> <flags>`, `./target/release/gnn-bench <command>
    /// <flags>` and `cargo run ... -p gnn-bench -- <command> <flags>` — as
    /// `(command, flags)`. A `--bin <name>` names a binary that no longer
    /// exists and comes back as the command `--bin <name>`.
    fn documented_invocations(text: &str) -> Vec<(String, Vec<String>)> {
        let text = text.replace("\\\n", " ");
        let word = |t: &str| t.trim_matches(|c| "`(),.;:".contains(c)).to_owned();
        let mut found = Vec::new();
        for line in text.lines() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            for (i, &token) in tokens.iter().enumerate() {
                let rest = match token {
                    "--bin" => {
                        let name = tokens.get(i + 1).map_or(String::new(), |t| word(t));
                        found.push((format!("--bin {name}"), Vec::new()));
                        continue;
                    }
                    // `cargo run ... -p gnn-bench ... -- <command>`; no other
                    // cargo subcommand runs a command line.
                    "gnn-bench" if i > 0 && tokens[i - 1] == "-p" => {
                        match tokens[i..].iter().position(|&t| t == "--") {
                            Some(dash) if tokens[..i].contains(&"run") => &tokens[i + dash + 1..],
                            _ => continue,
                        }
                    }
                    _ if token.trim_start_matches(['`', '(']).rsplit('/').next()
                        == Some("gnn-bench") =>
                    {
                        &tokens[i + 1..]
                    }
                    _ => continue,
                };
                let mut words = Vec::new();
                for &raw in rest {
                    if raw.starts_with('#') || ["&&", "|", ">", ";"].contains(&raw) {
                        break;
                    }
                    words.push(word(raw));
                    if raw.trim_end_matches(|c| "),.;:".contains(c)).ends_with('`') {
                        break;
                    }
                }
                match words.split_first() {
                    // Neither `<command>` nor `--help` is a command.
                    Some((command, argv)) if !command.starts_with(['<', '-']) => {
                        found.push((command.clone(), argv.to_vec()));
                    }
                    _ => {}
                }
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
            for (command, argv) in documented_invocations(&text) {
                if let Err(e) = parse(&command, &argv) {
                    panic!("{doc}: `gnn-bench {command} {}`: {e}", argv.join(" "));
                }
                checked += 1;
            }
        }
        for out in gnn_core::experiments::EXPERIMENTS
            .iter()
            .flat_map(|e| e.outputs)
        {
            let found = documented_invocations(out.command);
            assert_eq!(found.len(), 1, "{}", out.command);
            for (command, argv) in found {
                assert!(parse(&command, &argv).is_ok(), "{}", out.command);
                checked += 1;
            }
        }
        assert!(
            checked >= 40,
            "only {checked} documented command lines found"
        );
    }

    /// CI's `serve --faults canonical` line, run as `serve` runs it (one
    /// plan armed across the policies), answers every request. The command
    /// only fails on a dropped request, and a rejected or shed one is
    /// terminal, so this is what holds CI's own settings to their answers.
    #[test]
    fn ci_canonical_serve_line_answers_every_request() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let ci = std::fs::read_to_string(format!("{root}/.github/workflows/ci.yml")).unwrap();
        let lines = documented_invocations(&ci);
        let (command, argv) = (lines.iter())
            .find(|(c, argv)| c == "serve" && argv.iter().any(|a| a == "--faults"))
            .expect("ci.yml runs `serve --faults`");
        let a = parse(command, argv).unwrap();
        let serve = a.serve_config();
        let handle = gnn_faults::install(a.faults.clone().unwrap());
        for policy in a.policies() {
            let cfg = ServeConfig {
                policy,
                ..serve.clone()
            };
            let answered = gnn_serve::serve(&cfg).unwrap().answered();
            assert_eq!(answered, serve.requests, "{}", policy.label());
        }
        assert!(!gnn_faults::finish(handle).is_empty(), "the plan fires");
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
