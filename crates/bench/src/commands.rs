//! The body of every `gnn-bench` command, one function per [`COMMANDS`]
//! row: each takes the parsed [`Args`] and returns the exit status.
//!
//! [`COMMANDS`]: crate::cli::COMMANDS

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gnn_core::export::{
    kernel_counts_csv, layer_time_rows, CELL_OUTCOMES, LAYER_TIMES, MULTI_GPU, PROFILE, TABLE1,
    TABLE_ROWS,
};
use gnn_core::runner::{self, GraphDs};
use gnn_core::CellStatus;
use gnn_device::component_label;
use gnn_device::pipeline::{pipeline_speedup, pipelined_epoch_time, serial_epoch_time};
use gnn_models::adapt::{CachedRustygLoader, RustygLoader};
use gnn_models::config::{ModelKind, ALL_FRAMEWORKS};
use gnn_models::{build, GnnStack, Loader, ModelBatch};
use gnn_obs::{Column, Table};
use gnn_sample::SamplerKind;
use gnn_serve::{FleetConfig, ServeConfig};
use gnn_tensor::{cross_entropy, NdArray, Tensor};
use gnn_train::cell::{with_graph_stack, GraphJob};
use gnn_train::{run_graph_fold, GraphTaskConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cli::Args;
use crate::report::{diff_reports, render_diff, resolve_baseline, run_report};
use crate::sample::{expand_variants, run_sample_sweep, SAMPLE_METRICS};
use crate::whatif::{run_conformance, run_serve_conformance, run_whatif, ConformanceRecord};
use crate::Run;

/// Reproduces Table I: dataset statistics.
pub(crate) fn table1(args: Args) -> ExitCode {
    let cfg = args.run_config();
    let run = Run::train(&cfg);
    println!("Table I — dataset statistics (scale = {})\n", cfg.scale);
    print!("{}", TABLE1.text(runner::table1(&cfg)));
    run.finish()
}

/// Reproduces Table IV: node classification on Cora and PubMed — per-epoch
/// and total training time plus test accuracy for six models under both
/// frameworks.
pub(crate) fn table4(args: Args) -> ExitCode {
    let cfg = args.run_config();
    let mut run = Run::train(&cfg);
    println!(
        "Table IV — node classification (scale = {}, epochs = {}, seeds = {})\n",
        cfg.scale, cfg.node_epochs, cfg.seeds
    );
    let rows = run.exec(|| runner::table4(&cfg));
    print!("{}", TABLE_ROWS.text(&rows));
    run.finish()
}

/// Reproduces Table V: graph classification on ENZYMES and DD — per-epoch
/// and total training time plus cross-validated test accuracy.
pub(crate) fn table5(args: Args) -> ExitCode {
    let cfg = args.run_config();
    let mut run = Run::train(&cfg);
    println!(
        "Table V — graph classification (scale = {}, epoch cap = {}, folds = {})\n",
        cfg.scale, cfg.graph_epochs, cfg.folds
    );
    let rows = run.exec(|| runner::table5(&cfg));
    print!("{}", TABLE_ROWS.text(&rows));
    run.finish()
}

/// Reproduces Figs. 1 and 2: execution-time breakdown per epoch (data
/// loading / forward / backward / update / other) for six models under both
/// frameworks at batch sizes 64/128/256, with each configuration's peak
/// device memory (Fig. 4) and GPU compute utilization (Fig. 5).
/// `--dataset enzymes` gives Fig. 1, `--dataset dd` gives Fig. 2; the two
/// runs together give Figs. 4 and 5.
pub(crate) fn fig1_2(args: Args) -> ExitCode {
    let cfg = args.run_config();
    let ds = args.dataset.unwrap_or(GraphDs::Enzymes);
    let fig = match ds {
        GraphDs::Dd => "Fig. 2 (DD)",
        _ => "Fig. 1 (ENZYMES)",
    };
    let mut run = Run::train(&cfg);
    println!(
        "{fig} — epoch-time breakdown, peak memory and utilization (scale = {})\n",
        cfg.scale
    );
    let rows = run.exec(|| runner::profile_sweep(&cfg, ds));
    print!("{}", PROFILE.text(&rows));
    if let Some(dir) = run.trace_dir() {
        let path = dir.join("kernel_counts.csv");
        run.write("kernels", path, &kernel_counts_csv(&rows));
    }
    run.finish()
}

/// Reproduces Fig. 3: layer-wise execution time of training one ENZYMES
/// batch (conv1..conv4 + readout) for six models under both frameworks.
pub(crate) fn fig3(args: Args) -> ExitCode {
    let cfg = args.run_config();
    let mut run = Run::train(&cfg);
    println!(
        "Fig. 3 — layer-wise execution time, one ENZYMES batch (scale = {})\n",
        cfg.scale
    );
    let rows = run.exec(|| runner::layer_times(&cfg));
    print!("{}", LAYER_TIMES.text(layer_time_rows(&rows)));
    run.finish()
}

/// Reproduces Fig. 6: per-epoch time of data-parallel GCN and GAT training
/// on MNIST superpixels across 1/2/4/8 simulated GPUs, batch 128/256/512.
pub(crate) fn fig6(args: Args) -> ExitCode {
    let cfg = args.run_config();
    let mut run = Run::train(&cfg);
    println!(
        "Fig. 6 — multi-GPU scaling on MNIST (scale = {})\n",
        cfg.scale
    );
    let rows = run.exec(|| runner::multi_gpu(&cfg));
    print!("{}", MULTI_GPU.text(&rows));
    run.finish()
}

/// Runs the full fault-isolated paper sweep: every Table IV/V cell (60 in
/// all) under supervised training, finishing the remaining cells even when
/// some fail.
///
/// This is the chaos-suite entry point: `sweep --faults canonical` must end
/// with every cell `ok` or `degraded`, and `--ckpt <dir>` + `--resume`
/// lets a killed run continue bit-identically. With `--trace <dir>`, the
/// per-cell outcomes (`cell_outcomes.csv`) and both tables (`table4.csv`,
/// `table5.csv`) are also exported next to the usual trace artifacts.
///
/// Exits nonzero if any cell failed.
pub(crate) fn sweep(args: Args) -> ExitCode {
    let cfg = args.run_config();
    let mut run = Run::train(&cfg);
    println!(
        "Fault-isolated sweep (scale = {}, node epochs = {}, graph epochs = {}, faults = {})\n",
        cfg.scale,
        cfg.node_epochs,
        cfg.graph_epochs,
        if cfg.faults.is_some() { "armed" } else { "off" },
    );
    let out = run.exec(|| gnn_core::sweep(&cfg));
    print!("{}", TABLE_ROWS.text(&out.table4));
    println!();
    print!("{}", TABLE_ROWS.text(&out.table5));
    println!();
    print!("{}", gnn_core::report::sweep_report(&out));
    if let Some(dir) = run.trace_dir().map(Path::to_path_buf) {
        let cells = CELL_OUTCOMES.csv(&out.cells);
        run.write("cells", dir.join("cell_outcomes.csv"), &cells);
        for (label, rows) in [("table4", &out.table4), ("table5", &out.table5)] {
            let csv = TABLE_ROWS.csv(rows);
            run.write(label, dir.join(format!("{label}.csv")), &csv);
        }
    }
    let failed = out
        .cells
        .iter()
        .filter(|c| c.status == CellStatus::Failed)
        .count();
    if failed > 0 {
        run.error(format!("{failed} cell(s) failed"));
    }
    run.finish()
}

/// Inference serving: sweeps batching policies over trained sweep cells
/// under a seeded open-loop client workload.
///
/// For each `--policies` entry the engine loads the configured endpoints
/// (restoring `gnn-ckpt v1` weights from `--ckpt <dir>` when present),
/// replays the same seeded request stream through the dynamic batcher onto
/// the device replicas, and prints latency percentiles, throughput, batch
/// occupancy, and queue depths. With `--trace <dir>` the per-request spans
/// land on the `serve` obs track and `<dir>/serve_metrics.csv` gets one
/// aggregate + one per-endpoint row per policy. `--faults <plan>` arms a
/// fault plan around the whole run: the engine answers every request
/// anyway (OOM split-and-retry, kernel retries, replica shedding).
///
/// Exits nonzero if any request went unanswered (dropped — must never
/// happen) or the `--lint` gate found a degenerate config.
pub(crate) fn serve(args: Args) -> ExitCode {
    let serve = args.serve_config();
    let policies = args.policies();
    let mut run = Run::new(args.trace.as_deref(), args.faults.as_ref());
    if args.lint {
        let mut findings = Vec::new();
        gnn_lint::check_serve_config(&args.endpoints().0, &serve, &mut findings);
        run.gate(gnn_lint::LintReport {
            findings,
            ..Default::default()
        });
    }

    println!(
        "Inference serving: {} endpoint(s), {} request(s) at {} req/s, seed {}, \
         {} replica(s), faults {}\n",
        serve.endpoints.len(),
        serve.requests,
        serve.rate,
        serve.seed,
        serve.replicas,
        if args.faults.is_some() {
            "armed"
        } else {
            "off"
        },
    );

    // One plan armed across every policy run, in declaration order.
    let outcomes: Vec<_> = run.exec(|| {
        (policies.iter())
            .map(|&policy| {
                gnn_serve::serve(&ServeConfig {
                    policy,
                    ..serve.clone()
                })
            })
            .collect()
    });
    let reports: Vec<_> = (policies.iter().zip(outcomes))
        .filter_map(|(p, outcome)| {
            run.served(&format!("policy {}", p.label()), serve.requests, outcome)
        })
        .collect();
    run.served_all(&reports, serve.endpoints.len());
    run.finish()
}

/// Fleet serving: sweeps routing policies over a sharded fleet of
/// endpoint replicas under a seeded workload and a chaos plan.
///
/// For each `--routing` entry the engine builds the configured fleet
/// (shards × replicas, health checking, admission control, retry budget,
/// hedging, autoscaling), replays the same seeded arrival process through
/// the router, and prints latency percentiles, SLO attainment, and the
/// resilience counters (sheds, retries, hedges, ejections, failover
/// latency). The same fault plan is re-armed around every policy run, so
/// the policies are compared under identical chaos. With `--trace <dir>`
/// the spans land on the `serve`/`fleet` obs tracks and
/// `<dir>/serve_metrics.csv` gets one aggregate + one per-endpoint row
/// per routing policy.
///
/// Exits nonzero if any request misses its terminal typed outcome
/// (answered + rejected + shed must equal submitted — zero drops), if the
/// `--lint` gate found a degenerate fleet config, or if the fault plan
/// audit found a spec that can never fire.
pub(crate) fn fleet(args: Args) -> ExitCode {
    let fleet = args.fleet_config();
    let routings = args.routings();
    let mut run = Run::new(args.trace.as_deref(), args.faults.as_ref());
    if args.lint {
        let mut findings = Vec::new();
        gnn_lint::check_fleet_config(&args.endpoints().0, &fleet, &mut findings);
        if let Some(plan) = &args.faults {
            gnn_lint::check_fleet_fault_plan(plan, &fleet, &mut findings);
        }
        run.gate(gnn_lint::LintReport {
            findings,
            ..Default::default()
        });
    }

    println!(
        "Fleet serving: {} endpoint(s), {} shard(s) x {} replica(s), {} request(s) at \
         {} req/s, seed {}, routing {}, faults {}\n",
        fleet.endpoints.len(),
        fleet.shards,
        fleet.replicas_per_shard,
        fleet.requests,
        fleet.rate,
        fleet.seed,
        routings
            .iter()
            .map(|r| r.label())
            .collect::<Vec<_>>()
            .join(","),
        if args.faults.is_some() {
            "armed"
        } else {
            "off"
        },
    );

    let reports: Vec<_> = (routings.iter())
        .filter_map(|&routing| {
            let cfg = FleetConfig {
                routing,
                ..fleet.clone()
            };
            // The plan is re-armed around every policy run: dp-step-indexed
            // faults (replica death) count steps from arming, so each policy
            // faces identical chaos and the comparison stays fair.
            let outcome = run.exec(|| gnn_serve::serve_fleet(&cfg));
            run.served(
                &format!("routing {}", routing.label()),
                cfg.requests,
                outcome,
            )
        })
        .collect();
    run.served_all(&reports, fleet.endpoints.len());
    run.finish()
}

/// Giant-graph sampled training: sweeps fan-out schedules and feature-cache
/// sizes over seeded RMAT graphs, in both frameworks under both sampler
/// kinds.
///
/// Each catalog spec (`--specs`, default the million-node `rmat-1m`) is
/// generated once; every (fanouts, cache_rows) variant then trains a
/// GraphSAGE cell per sampler kind per framework with the fault-tolerant
/// supervised runner — `--faults canonical` exercises the same OOM
/// split/retry/poison machinery as the main sweep. Results land in a
/// schema-stamped `sample_metrics.csv` (`--out`); a rerun with the same
/// flags reproduces the file byte-for-byte, which CI enforces with `cmp`.
///
/// `--lint` audits every variant first (the `sample-config` pass plus IR
/// lowering, tape audit, and closed-form memory certification at the
/// fan-out union bounds) and refuses to run on any finding.
///
/// Exits nonzero on lint findings, dead cells, or a failed write.
pub(crate) fn sample(args: Args) -> ExitCode {
    let cfg = args.sample_config();
    let variants = expand_variants(&cfg.specs, &cfg.fanouts, &cfg.cache_rows);
    let mut run = Run::new(None, args.faults.as_ref());
    if args.lint {
        let mut report = gnn_lint::LintReport::default();
        let mut memory = gnn_lint::MemoryReport::default();
        for variant in &variants {
            gnn_lint::lint_sample_spec(&variant.spec, &mut report, &mut memory);
        }
        report.findings.append(&mut memory.findings);
        run.gate(report);
    }

    println!(
        "Sampled training: {} spec(s), {} variant(s), {} epoch(s), seed {}, faults {}\n",
        cfg.specs.len(),
        variants.len(),
        cfg.epochs,
        cfg.seed,
        if args.faults.is_some() {
            "armed"
        } else {
            "off"
        },
    );
    let (rows, errors) = run.exec(|| run_sample_sweep(&variants, cfg.epochs, cfg.seed));

    print!("{}", SAMPLE_METRICS.text(&rows));
    println!();
    for e in &errors {
        run.error(e);
    }
    run.write("metrics", cfg.out.clone(), &SAMPLE_METRICS.csv(&rows));
    let expected = variants.len() * SamplerKind::all().len() * ALL_FRAMEWORKS.len();
    if rows.len() != expected {
        run.error(format!(
            "{} of {expected} cell(s) produced rows",
            rows.len()
        ));
    }
    run.finish()
}

/// The highest-numbered `BENCH_<n>.json` in `out`'s directory other than
/// `out` — the natural baseline for a report trajectory.
fn discover_baseline(out: &Path) -> Option<PathBuf> {
    // A bare `BENCH_33.json` has an empty parent: scan the current dir.
    let dir = out
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    let number = |p: &Path| {
        let name = p.file_name()?.to_str()?;
        name.strip_prefix("BENCH_")?
            .strip_suffix(".json")?
            .parse::<u64>()
            .ok()
    };
    (std::fs::read_dir(dir).ok()?)
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|path| path.file_name() != out.file_name())
        .filter_map(|path| Some((number(&path)?, path)))
        .max_by_key(|(n, _)| *n)
        .map(|(_, path)| path)
}

/// The regression observatory: runs the canonical performance report and
/// diffs it against the previous checked-in baseline.
///
/// Trains the six representative sweep cells at a fixed small scale plus
/// the default sampled cells (RMAT neighbor/layer-wise under both
/// frameworks), sweeps the serve batching policies over the same
/// endpoints (sampled ones included), sweeps the fleet routing policies
/// under the canonical fleet chaos plan, and
/// writes a schema-versioned `BENCH_<n>.json` (default `BENCH_33.json`)
/// whose every number is simulated — a rerun with the same flags
/// reproduces the file byte-for-byte, which CI enforces with `cmp`. When
/// a baseline exists (`--baseline <path>`, the highest-numbered other
/// `BENCH_*.json` next to the output, or the output itself before it is
/// overwritten; unreadable candidates — e.g. an older schema version —
/// fall through to the next), the two documents are diffed metric by
/// metric and the process exits nonzero on any regression past
/// `--threshold` (default 5%).
pub(crate) fn report(args: Args) -> ExitCode {
    let cfg = args.report_config();
    let out = args.out.clone().unwrap_or_else(|| "BENCH_33.json".into());
    let threshold = args.threshold.unwrap_or(0.05);
    let mut run = Run::new(None, None);

    println!(
        "Performance report: {} cell(s), {} serve policy(ies), scale {}, {} epoch(s), seed {}\n",
        cfg.cells.len(),
        cfg.policies.len(),
        cfg.scale,
        cfg.epochs,
        cfg.seed,
    );

    // The previous document must be read before the new one overwrites it
    // in place (the usual CI flow regenerates BENCH_33.json on top of the
    // checked-in baseline). Candidates that fail to read or parse —
    // typically an older schema version (a `v2` report without the
    // sampled rows) still checked in for history — fall through to the
    // next one.
    let candidates: Vec<PathBuf> = (args.baseline.clone().into_iter())
        .chain(discover_baseline(&out))
        .chain(out.exists().then(|| out.clone()))
        .collect();
    let (baseline, warnings) = resolve_baseline(&candidates);
    for w in &warnings {
        eprintln!("warning: {w}");
    }

    let report = match run_report(&cfg) {
        Ok(report) => report,
        Err(errors) => return refuse(run, &errors),
    };
    print!("{}", report.summary());
    println!();
    run.write("report", out, &report.to_json());

    if args.no_diff {
        return run.finish();
    }
    let Some((path, previous)) = baseline else {
        println!("no baseline found — skipping diff");
        return run.finish();
    };
    println!(
        "diff vs {} (threshold {:.1}%):",
        path.display(),
        threshold * 100.0
    );
    let lines = match diff_reports(&previous, &report.to_value(), threshold) {
        Ok(lines) => lines,
        Err(e) => {
            run.error(format!("baseline {}: {e}", path.display()));
            return run.finish();
        }
    };
    print!("{}", render_diff(&lines));
    match lines.iter().filter(|l| l.regression).count() {
        0 => println!("no regressions"),
        n => run.error(format!("{n} metric(s) regressed past the threshold")),
    }
    run.finish()
}

/// Ends a run whose document broke its own `check`: prints each broken
/// row and fails the run; the document is not written.
fn refuse(mut run: Run, errors: &[String]) -> ExitCode {
    for e in errors {
        run.error(e);
    }
    run.finish()
}

/// Prints a conformance table and returns how many records missed.
fn gate_conformance(title: &str, records: &[ConformanceRecord]) -> usize {
    println!("{title}:");
    let mut misses = 0;
    for r in records {
        let err = r.relative_error();
        // The replay is exact; anything past float-noise scale is a miss
        // (the acceptance bar is 1%, the engine holds itself to 1e-9).
        let ok = err <= 1e-9;
        if !ok {
            misses += 1;
        }
        println!(
            "  {} {:<28} {:<12} {:>5}x predicted {:.9e} actual {:.9e} (rel err {:.2e})",
            if ok { "ok  " } else { "MISS" },
            r.subject,
            component_label(r.component),
            r.speedup,
            r.predicted,
            r.actual,
            err,
        );
    }
    misses
}

/// The causal what-if profiler: virtual-speedup experiments over the
/// recorded device timeline, with ranked optimization opportunities.
///
/// Trains the configured cells once under an observability collector,
/// replays every (component, speedup) experiment over the captured
/// schedule, re-simulates every serve policy under every speedup through
/// the discrete-event engine, and writes a schema-versioned, byte-
/// reproducible `whatif.json` plus a ranked opportunity table on stdout.
/// The predictions pass the `gnn-lint` what-if audit before anything is
/// published, and `--conformance` really re-runs sampled experiments
/// under overlaid cost models and refuses to pass unless predictions
/// match measurements exactly.
///
/// Writes `out/whatif/whatif.json` unless `--out` says otherwise.
pub(crate) fn whatif(args: Args) -> ExitCode {
    let cfg = args.whatif_config();
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| "out/whatif/whatif.json".into());
    let mut run = Run::new(None, None);

    println!(
        "Causal what-if profile: {} cell(s), {} serve policy(ies), scale {}, {} epoch(s), seed {}\n",
        cfg.cells.len(),
        cfg.policies.len(),
        cfg.scale,
        cfg.epochs,
        cfg.seed,
    );

    let report = match run_whatif(&cfg) {
        Ok(report) => report,
        Err(errors) => return refuse(run, &errors),
    };
    print!("{}", report.summary());
    println!();
    run.write("whatif", out, &report.to_json());

    if !args.conformance {
        return run.finish();
    }
    println!();
    let misses = gate_conformance(
        "conformance (cells: predicted vs re-trained total time)",
        &run_conformance(&cfg, &report),
    ) + gate_conformance(
        "conformance (serve: predicted vs re-served p95)",
        &run_serve_conformance(&cfg, &report),
    );
    if misses > 0 {
        run.error(format!(
            "{misses} conformance record(s) diverged from reality"
        ));
    } else {
        println!("conformance: every prediction matched its re-run");
    }
    run.finish()
}

/// Standalone static analysis of the paper sweep: the `--lint` gate of
/// the training commands with nothing run after it. Lints every cell,
/// dataset and schedule the selected configuration (`--smoke` unless a
/// preset is given) would run — including the memory certification of all
/// 60 cells and, with `--faults`, the audit of the plan — prints the
/// report, writes `lint.json` and `memory.json` into `--trace <dir>`, and
/// exits non-zero if any finding survives.
pub(crate) fn lint(args: Args) -> ExitCode {
    Run::train(&args.lint_config()).finish()
}

/// Ablation: standard per-epoch collation vs pre-collated (cached) batches.
///
/// The paper's conclusion argues "more efficient graph batching strategies
/// will greatly speed up GNN training". This ablation quantifies the claim:
/// the same GCN trained on ENZYMES with the ordinary PyG-style loader and
/// with a pre-collating loader that replays device-resident batches. The
/// data-loading phase collapses, epoch time drops by its share, and GPU
/// utilization rises.
pub(crate) fn ablation_batching(args: Args) -> ExitCode {
    let cfg = args.run_config();
    let ds = GraphDs::Enzymes.generate(&cfg);
    let folds = gnn_datasets::stratified_kfold(&ds.labels(), 10, cfg.seed);
    let fold = &folds[0];

    println!(
        "Ablation — batching strategy (GCN on ENZYMES, scale = {})\n",
        cfg.scale
    );

    let task = GraphTaskConfig {
        batch_size: 64.min(fold.train.len().max(1)),
        init_lr: 1e-3,
        patience: 1000,
        decay_factor: 0.5,
        min_lr: 1e-9,
        max_epochs: cfg.graph_epochs.clamp(2, 4),
        seed: cfg.seed,
        shuffle: true,
    };

    let mut rows = Vec::new();
    for (name, cached) in [("standard", false), ("pre-collated", true)] {
        let mut rng = StdRng::seed_from_u64(cfg.seed + 1);
        let model =
            build::graph_model_rustyg(ModelKind::Gcn, ds.feature_dim, ds.num_classes, &mut rng);
        let out = if cached {
            let loader = CachedRustygLoader::new(&ds);
            run_graph_fold(&model, &loader, fold, &task)
        } else {
            let loader = RustygLoader::new(&ds);
            run_graph_fold(&model, &loader, fold, &task)
        };
        let e = out.epochs.max(1) as f64;
        let load = out.report.phase_times[0] / e;
        let compute = (out.report.phase_times[1] + out.report.phase_times[2]) / e;
        rows.push((
            name,
            out.epoch_time * 1e3,
            load * 1e3,
            compute * 1e3,
            out.report.utilization() * 100.0,
        ));
    }
    print!("{}", BATCHING.text(&rows));
    println!(
        "\npre-collation speeds the epoch up {:.2}x — the paper's suggested win.",
        rows[0].1 / rows[1].1
    );
    ExitCode::SUCCESS
}

/// `ablation_batching`'s rows, one per loader.
const BATCHING: Table<(&str, f64, f64, f64, f64)> = Table {
    schema: None,
    columns: &[
        Column::new("loader", |r| r.0.into()),
        Column::fixed("epoch_ms", 1, |r| r.1.into()),
        Column::fixed("data_load_ms", 1, |r| r.2.into()),
        Column::fixed("compute_ms", 1, |r| r.3.into()),
        Column::fixed("gpu_util_pct", 1, |r| r.4.into()),
    ],
};

/// Ablation: fused GSpMM vs gather+scatter as a function of feature width.
///
/// DGL's key design bet is kernel fusion; PyG's is thin composable ops with
/// minimal dispatch. This ablation sweeps the feature width of one
/// aggregation over a fixed graph and reports where each lowering wins on
/// the simulated device: at narrow features the extra launch + dispatch
/// dominates (PyG-style wins); at wide features the fused kernel's lower
/// memory traffic wins — until DGL's dispatch overhead eats the margin.
pub(crate) fn ablation_fusion(_: Args) -> ExitCode {
    let mut rng = StdRng::seed_from_u64(0);
    let nodes = 4096;
    let edges = 16384;
    let src: Vec<u32> = (0..edges).map(|_| rng.gen_range(0..nodes as u32)).collect();
    let dst: Vec<u32> = (0..edges).map(|_| rng.gen_range(0..nodes as u32)).collect();
    let g = gnn_graph::Graph::new(nodes, src, dst);

    println!("Ablation — aggregation lowering vs feature width");
    println!("(graph: {nodes} nodes, {edges} edges; simulated device time)\n");

    let mut rows = Vec::new();
    for width in [4usize, 16, 64, 128, 256, 512] {
        let feats = NdArray::from_vec(
            nodes,
            width,
            (0..nodes * width)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect(),
        );
        let pyg = rustyg::Batch::from_parts(&g, feats.clone(), vec![0; nodes], 1, vec![0]);
        let dgl = rgl::HeteroBatch::from_parts(&g, feats, vec![0; nodes], 1, vec![0]);

        let h = gnn_device::session::install(gnn_device::Session::new(
            gnn_device::CostModel::rtx2080ti(),
        ));
        let x = Tensor::new(pyg.x.data().clone());
        let _ = x
            .gather_rows(&pyg.src)
            .scatter_add_rows(&pyg.dst, pyg.num_nodes);
        let t_pyg = gnn_device::session::finish(h).total_time;

        let h = gnn_device::session::install(gnn_device::Session::new(
            gnn_device::CostModel::rtx2080ti(),
        ));
        let x = Tensor::new(dgl.x.data().clone());
        let _ = rgl::kernels::gspmm_copy_sum(&dgl, &x);
        let t_dgl = gnn_device::session::finish(h).total_time;
        let winner = if t_pyg < t_dgl { "unfused" } else { "fused" };
        rows.push((width, t_pyg * 1e6, t_dgl * 1e6, winner));
    }
    print!("{}", FUSION.text(&rows));
    println!();
    println!("The fused kernel's device-side win grows with width, but DGL's");
    println!("per-op dispatch keeps a fixed tax — the paper's observation that");
    println!("DGL's *key operations* can be faster while its layers are slower.");
    ExitCode::SUCCESS
}

/// `ablation_fusion`'s rows, one per feature width.
const FUSION: Table<(usize, f64, f64, &str)> = Table {
    schema: None,
    columns: &[
        Column::new("width", |r| r.0.into()),
        Column::fixed("gather_scatter_us", 1, |r| r.1.into()),
        Column::fixed("fused_gspmm_us", 1, |r| r.2.into()),
        Column::new("winner", |r| r.3.into()),
    ],
};

/// Ablation: kernel-launch overhead vs GPU utilization.
///
/// The paper's Section IV-D asks why GNN utilization is so low. This
/// ablation holds the workload fixed (one GCN training batch on ENZYMES)
/// and sweeps the host's kernel-launch overhead in the cost model: GNN
/// training is *launch-bound* — utilization rises sharply as launches get
/// cheaper, which is exactly why kernel fusion and CUDA-graph-style
/// batched launch are the optimizations that matter for GNNs.
pub(crate) fn ablation_launch(args: Args) -> ExitCode {
    let cfg = args.run_config();
    let ds = GraphDs::Enzymes.generate(&cfg);
    let loader = RustygLoader::new(&ds);
    let idx: Vec<u32> = (0..64u32.min(ds.samples.len() as u32)).collect();

    println!("Ablation — launch overhead vs utilization (GCN, one training batch)\n");

    let mut rows = Vec::new();
    for launch_us in [0.5f64, 1.0, 2.0, 4.0, 6.0, 10.0, 20.0] {
        let model = gnn_device::CostModel::builder()
            .launch_overhead(launch_us * 1e-6)
            .build();
        let handle = gnn_device::session::install(gnn_device::Session::new(model));
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let stack =
            build::graph_model_rustyg(ModelKind::Gcn, ds.feature_dim, ds.num_classes, &mut rng);
        let batch = loader.load(&idx);
        let logits = stack.forward(&batch, true);
        cross_entropy(&logits, &batch.labels).backward();
        let report = gnn_device::session::finish(handle);
        rows.push((
            launch_us,
            report.total_time * 1e3,
            report.utilization() * 100.0,
        ));
    }
    print!("{}", LAUNCH.text(&rows));
    println!();
    println!("Same kernels, same math — only the launch cost moves. GNN training");
    println!("is launch-bound at CUDA's ~6us, which caps utilization (Fig. 5).");
    ExitCode::SUCCESS
}

/// `ablation_launch`'s rows, one per launch cost.
const LAUNCH: Table<(f64, f64, f64)> = Table {
    schema: None,
    columns: &[
        Column::fixed("launch_us", 1, |r| r.0.into()),
        Column::fixed("batch_ms", 2, |r| r.1.into()),
        Column::fixed("gpu_util_pct", 1, |r| r.2.into()),
    ],
};

/// One batch's `(load, compute)` simulated seconds.
struct Measure<'a>(&'a [u32]);

impl GraphJob for Measure<'_> {
    type Out = (f64, f64);

    fn run<L: Loader>(self, stack: &GnnStack<L::Batch>, loader: &L) -> (f64, f64) {
        let h = gnn_device::session::install(gnn_device::Session::new(
            gnn_device::CostModel::rtx2080ti(),
        ));
        let batch = loader.load(self.0);
        let mut load = 0.0;
        gnn_device::with(|s| load = s.now());
        let logits = stack.forward(&batch, true);
        cross_entropy(&logits, batch.labels()).backward();
        let report = gnn_device::session::finish(h);
        (load, report.total_time - load)
    }
}

/// Ablation: overlapping data loading with device compute.
///
/// The paper's Section IV-D points out that low GPU utilization means
/// "further improvement can be achieved by overlapping CPU runtime or data
/// communication with GPU execution". This ablation measures each model's
/// per-batch load and compute cost on ENZYMES under both frameworks and
/// reports the epoch time with and without a double-buffered prefetch
/// pipeline.
pub(crate) fn ablation_overlap(args: Args) -> ExitCode {
    let cfg = args.run_config();
    let ds = GraphDs::Enzymes.generate(&cfg);
    let batch: Vec<u32> = (0..64u32.min(ds.samples.len() as u32)).collect();
    let n_batches = 8;

    println!(
        "Ablation — prefetch overlap on ENZYMES (batch {}, {} batches/epoch)\n",
        batch.len(),
        n_batches
    );
    let mut rows = Vec::new();
    for model in gnn_models::config::ALL_MODELS {
        for fw in ALL_FRAMEWORKS {
            let (load, compute) = with_graph_stack(fw, model, &ds, cfg.seed, Measure(&batch));
            rows.push((
                model.label(),
                fw.label(),
                load * 1e3,
                compute * 1e3,
                serial_epoch_time(load, compute, n_batches) * 1e3,
                pipelined_epoch_time(load, compute, n_batches) * 1e3,
                pipeline_speedup(load, compute, n_batches),
            ));
        }
    }
    print!("{}", OVERLAP.text(&rows));
    println!();
    println!("Loading dominates, so the pipeline hides most of the compute — but");
    println!("the loader itself remains the bottleneck: pre-collation (see");
    println!("ablation_batching) attacks the root cause, prefetch only the overlap.");
    ExitCode::SUCCESS
}

/// `ablation_overlap`'s rows, one per model and framework.
#[allow(clippy::type_complexity)]
const OVERLAP: Table<(&str, &str, f64, f64, f64, f64, f64)> = Table {
    schema: None,
    columns: &[
        Column::new("model", |r| r.0.into()),
        Column::new("framework", |r| r.1.into()),
        Column::fixed("load_ms", 1, |r| r.2.into()),
        Column::fixed("compute_ms", 1, |r| r.3.into()),
        Column::fixed("serial_ms", 1, |r| r.4.into()),
        Column::fixed("pipelined_ms", 1, |r| r.5.into()),
        Column::fixed("speedup", 2, |r| r.6.into()),
    ],
};

/// Prints the experiment index: every table/figure of the paper mapped to
/// its workload, implementing modules, and the commands that regenerate
/// its `results/` files.
pub(crate) fn index(_: Args) -> ExitCode {
    println!("Experiment index — \"Performance Analysis of GNN Frameworks\" (ISPASS 2021)\n");
    for e in &gnn_core::experiments::EXPERIMENTS {
        println!("{:?} ({})", e.id, e.paper_ref);
        println!("  workload: {}", e.workload);
        println!("  modules:  {}", e.modules);
        for out in e.outputs {
            println!("  command:  {} > {}", out.command, out.file);
        }
        println!();
    }
    ExitCode::SUCCESS
}
