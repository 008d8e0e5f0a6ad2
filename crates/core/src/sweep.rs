//! The fault-isolated paper sweep: every Table IV/V cell under supervised
//! training, with per-cell outcome records.
//!
//! [`sweep`] runs the full (dataset × model × framework) grid — 24 node
//! cells (Cora/PubMed) plus 36 graph cells (ENZYMES/DD/MNIST), 60 in all —
//! through the supervised loops of `gnn_train::supervisor`. A failure in
//! one cell (a fault that survives retry and degradation, or a panic from
//! deeper in the stack) is caught, recorded as a [`CellOutcome`] with
//! status `failed`, and the sweep moves on to the remaining cells. Cells
//! that needed degradation (batch halved, world shrunk) finish with status
//! `degraded`; everything else is `ok`. Under the canonical fault plan
//! (`FaultPlan::canonical()`), every cell must end `ok` or `degraded` —
//! never `failed` — which is exactly what the CI chaos job asserts.
//!
//! When the config sets a checkpoint directory, every cell writes per-epoch
//! checkpoints there; a killed sweep re-run with `resume` restores each
//! cell from its file and reproduces the uninterrupted sweep's metrics
//! byte-for-byte (already-finished cells restore their recorded metrics
//! without retraining).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::rc::Rc;

use gnn_datasets::{stratified_kfold, CitationSpec, GraphDataset, NodeDataset};
use gnn_faults::FaultLog;
use gnn_models::{
    build, config::ALL_FRAMEWORKS, config::ALL_MODELS, graph_hparams, node_hparams, FrameworkKind,
    ModelKind,
};
use gnn_sample::{RmatGraph, SampleConfigError, SampleSpec, SamplerKind};
use gnn_train::supervisor::{run_sampled_task_supervised, Supervised, Supervisor, TrainError};
use gnn_train::{mean_std, GraphTaskConfig, NodeOutcome, NodeTaskConfig, SampledTaskConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::RunConfig;
use crate::runner::{mark_cell, run_graph, run_node, GraphDs, Table4Row, Table5Row};

/// How one sweep cell ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Trained to completion with no degradation (transient faults may have
    /// been retried away).
    Ok,
    /// Finished, but a degradation policy fired (batch halved, data-parallel
    /// world shrunk): the result is valid but obtained under reduced
    /// conditions.
    Degraded,
    /// The cell could not complete; its error is in
    /// [`CellOutcome::detail`] and the sweep continued without it.
    Failed,
}

impl CellStatus {
    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Degraded => "degraded",
            CellStatus::Failed => "failed",
        }
    }
}

/// Per-cell record of the sweep: what ran, how it ended, what the injector
/// did to it.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Experiment the cell belongs to (`table4` / `table5`).
    pub experiment: String,
    /// Dataset name.
    pub dataset: String,
    /// Model.
    pub model: ModelKind,
    /// Framework.
    pub framework: FrameworkKind,
    /// How the cell ended.
    pub status: CellStatus,
    /// Error message (failed cells) or supervisor notes (degraded/retried
    /// cells); empty for clean cells.
    pub detail: String,
    /// Faults that fired while this cell ran, as `kind:detail` strings.
    pub faults: Vec<String>,
    /// Step retries the supervisor performed in this cell.
    pub retries: usize,
    /// Largest device-session allocator high-water mark (bytes) across the
    /// cell's runs/folds; 0 for failed cells. The static certifier's
    /// `peak_upper` must dominate this, which the conformance suite
    /// asserts.
    pub peak_memory: u64,
}

/// One completed sampled-training cell (giant-graph subsystem): SAGE
/// trained by neighbor-sampled mini-batches over a synthetic RMAT graph.
#[derive(Debug, Clone)]
pub struct SampleRow {
    /// `gnn_sample::SampleSpec` name (e.g. `rmat-1m`).
    pub spec: String,
    /// Sampler kind the loader used.
    pub sampler: SamplerKind,
    /// Model (the sweep trains SAGE — the GraphSAGE recipe).
    pub model: ModelKind,
    /// Framework.
    pub framework: FrameworkKind,
    /// Simulated seconds per epoch.
    pub epoch_time: f64,
    /// Simulated total training seconds.
    pub total_time: f64,
    /// Seed-node test accuracy over seeds, percent.
    pub acc: gnn_train::Summary,
    /// Lifetime feature-cache hit rate of the last run's loader.
    pub cache_hit_rate: f64,
}

/// Result of the fault-isolated sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Table IV rows for every node cell that completed.
    pub table4: Vec<Table4Row>,
    /// Table V-style rows for every graph cell that completed (ENZYMES, DD,
    /// and MNIST).
    pub table5: Vec<Table5Row>,
    /// Sampled-training rows for every `sample/…` cell that completed
    /// (empty unless the config names sample specs).
    pub sample: Vec<SampleRow>,
    /// One record per cell, in execution order — including failed cells.
    pub cells: Vec<CellOutcome>,
    /// The full fault log, when this sweep armed the config's plan itself
    /// (`None` when a caller had already installed an injector).
    pub fault_log: Option<FaultLog>,
}

impl SweepOutcome {
    /// `(ok, degraded, failed)` cell counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for cell in &self.cells {
            match cell.status {
                CellStatus::Ok => c.0 += 1,
                CellStatus::Degraded => c.1 += 1,
                CellStatus::Failed => c.2 += 1,
            }
        }
        c
    }

    /// Whether no cell failed (degraded cells count as survived).
    pub fn all_survived(&self) -> bool {
        self.cells.iter().all(|c| c.status != CellStatus::Failed)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .map(|m| format!("panic: {m}"))
        .unwrap_or_else(|| "panic with non-string payload".into())
}

/// Builds the supervisor policy for one training run of a cell.
fn supervisor_for(cfg: &RunConfig, cell: &str, run_idx: usize) -> Supervisor {
    let checkpoint_path: Option<PathBuf> = cfg.ckpt_dir.as_ref().map(|dir| {
        let file = format!("{}_{run_idx}.ckpt", cell.replace('/', "_"));
        dir.join(file)
    });
    Supervisor {
        checkpoint_path,
        resume: cfg.resume,
        ..Supervisor::default()
    }
}

/// Turns a cell's runs into a (status, detail, retries) triple.
fn digest<T>(runs: &[Supervised<T>]) -> (CellStatus, String, usize) {
    let degraded = runs.iter().any(|r| r.degraded);
    let retries: usize = runs.iter().map(|r| r.retries).sum();
    let notes: Vec<&str> = runs
        .iter()
        .flat_map(|r| r.notes.iter().map(String::as_str))
        .collect();
    let status = if degraded {
        CellStatus::Degraded
    } else {
        CellStatus::Ok
    };
    (status, notes.join("; "), retries)
}

/// Runs the full fault-isolated paper sweep. See the module docs.
pub fn sweep(cfg: &RunConfig) -> SweepOutcome {
    // Arm the config's fault plan unless a caller already installed an
    // injector (e.g. the bench harness arming it around the whole process).
    let own_handle = match &cfg.faults {
        Some(plan) if !gnn_faults::is_active() => Some(gnn_faults::install(plan.clone())),
        _ => None,
    };
    if let Some(dir) = &cfg.ckpt_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
        }
    }

    let mut out = SweepOutcome::default();

    // Node cells (Table IV).
    for spec in [CitationSpec::cora(), CitationSpec::pubmed()] {
        let ds = spec.scaled(cfg.scale).generate(cfg.seed);
        for model in ALL_MODELS {
            for framework in ALL_FRAMEWORKS {
                node_cell(cfg, &ds, model, framework, &mut out);
            }
        }
    }
    // Graph cells (Table V grid, plus MNIST for full coverage).
    for which in [GraphDs::Enzymes, GraphDs::Dd, GraphDs::Mnist] {
        let ds = which.generate(cfg);
        let folds = stratified_kfold(&ds.labels(), 10, cfg.seed);
        for model in ALL_MODELS {
            for framework in ALL_FRAMEWORKS {
                graph_cell(cfg, &ds, &folds, model, framework, &mut out);
            }
        }
    }
    // Sampled cells (giant-graph subsystem), opt-in via `sample_specs`.
    for name in &cfg.sample_specs {
        sample_spec_cells(cfg, name, &mut out);
    }

    out.fault_log = own_handle.map(gnn_faults::finish);
    out
}

fn node_cell(
    cfg: &RunConfig,
    ds: &NodeDataset,
    model: ModelKind,
    framework: FrameworkKind,
    out: &mut SweepOutcome,
) {
    let cell = format!("table4/{}/{}/{}", ds.name, model.label(), framework.label());
    gnn_faults::set_cell(&cell);
    mark_cell("table4", &ds.name, model, framework);
    let events_before = gnn_faults::events_since(0).len();

    let task = NodeTaskConfig {
        max_epochs: cfg.node_epochs,
        lr: node_hparams(model).lr,
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        (0..cfg.seeds)
            .map(|s| {
                let sup = supervisor_for(cfg, &cell, s);
                run_node(framework, model, ds, &task, cfg.seed + 1 + s as u64, &sup)
            })
            .collect::<Result<Vec<_>, TrainError>>()
    }))
    .map_err(panic_message)
    .and_then(|r| r.map_err(|e| e.to_string()));

    let (status, detail, retries) = match &result {
        Ok(runs) => digest(runs),
        Err(msg) => (CellStatus::Failed, msg.clone(), 0),
    };
    let mut peak_memory = 0;
    if let Ok(runs) = result {
        let accs: Vec<f64> = runs.iter().map(|r| r.outcome.test_acc).collect();
        peak_memory = runs
            .iter()
            .map(|r| r.outcome.report.peak_memory)
            .max()
            .unwrap_or(0);
        let last = runs.last().expect("seeds >= 1");
        out.table4.push(Table4Row {
            dataset: ds.name.clone(),
            model,
            framework,
            epoch_time: last.outcome.epoch_time,
            total_time: last.outcome.total_time,
            acc: mean_std(&accs),
        });
    }
    out.cells.push(CellOutcome {
        experiment: "table4".into(),
        dataset: ds.name.clone(),
        model,
        framework,
        status,
        detail,
        faults: fired_since(events_before),
        retries,
        peak_memory,
    });
}

fn graph_cell(
    cfg: &RunConfig,
    ds: &GraphDataset,
    folds: &[gnn_datasets::Fold],
    model: ModelKind,
    framework: FrameworkKind,
    out: &mut SweepOutcome,
) {
    let cell = format!("table5/{}/{}/{}", ds.name, model.label(), framework.label());
    gnn_faults::set_cell(&cell);
    mark_cell("table5", &ds.name, model, framework);
    let events_before = gnn_faults::events_since(0).len();

    let mut task = GraphTaskConfig::from_hparams(&graph_hparams(model), cfg.graph_epochs, cfg.seed);
    task.batch_size = task.batch_size.min((folds[0].train.len() / 3).max(8));

    let result = catch_unwind(AssertUnwindSafe(|| {
        folds
            .iter()
            .take(cfg.folds)
            .enumerate()
            .map(|(i, fold)| {
                let sup = supervisor_for(cfg, &cell, i);
                run_graph(
                    framework,
                    model,
                    ds,
                    fold,
                    &task,
                    cfg.seed + 10 + i as u64,
                    &sup,
                )
            })
            .collect::<Result<Vec<_>, TrainError>>()
    }))
    .map_err(panic_message)
    .and_then(|r| r.map_err(|e| e.to_string()));

    let (status, detail, retries) = match &result {
        Ok(runs) => digest(runs),
        Err(msg) => (CellStatus::Failed, msg.clone(), 0),
    };
    let mut peak_memory = 0;
    if let Ok(runs) = result {
        let accs: Vec<f64> = runs.iter().map(|r| r.outcome.test_acc).collect();
        let epoch_times: Vec<f64> = runs.iter().map(|r| r.outcome.epoch_time).collect();
        let total_times: Vec<f64> = runs.iter().map(|r| r.outcome.total_time).collect();
        peak_memory = runs
            .iter()
            .map(|r| r.outcome.report.peak_memory)
            .max()
            .unwrap_or(0);
        out.table5.push(Table5Row {
            dataset: ds.name.clone(),
            model,
            framework,
            epoch_time: mean_std(&epoch_times).mean,
            total_time: mean_std(&total_times).mean,
            acc: mean_std(&accs),
        });
    }
    out.cells.push(CellOutcome {
        experiment: "table5".into(),
        dataset: ds.name.clone(),
        model,
        framework,
        status,
        detail,
        faults: fired_since(events_before),
        retries,
        peak_memory,
    });
}

/// Runs one supervised sampled-training run, returning the outcome and the
/// loader's lifetime feature-cache hit rate.
fn run_sample_supervised(
    framework: FrameworkKind,
    spec: &SampleSpec,
    graph: &Rc<RmatGraph>,
    kind: SamplerKind,
    task: &SampledTaskConfig,
    seed: u64,
    sup: &Supervisor,
) -> Result<(Supervised<NodeOutcome>, f64), TrainError> {
    let f = spec.rmat.feature_dim;
    let c = spec.rmat.num_classes;
    let mut rng = StdRng::seed_from_u64(seed);
    match framework {
        FrameworkKind::RustyG => {
            let stack = build::node_model_rustyg(ModelKind::Sage, f, c, &mut rng);
            let loader = rustyg::sampled::SampledLoader::new(graph.clone(), spec, kind)
                .expect("catalog specs validate before cells run");
            let run = run_sampled_task_supervised(&stack, &loader, task, sup)?;
            Ok((run, loader.cache_hit_rate()))
        }
        FrameworkKind::Rgl => {
            let stack = build::node_model_rgl(ModelKind::Sage, f, c, &mut rng);
            let loader = rgl::sampled::SampledLoader::new(graph.clone(), spec, kind)
                .expect("catalog specs validate before cells run");
            let run = run_sampled_task_supervised(&stack, &loader, task, sup)?;
            Ok((run, loader.cache_hit_rate()))
        }
    }
}

/// Records a sampled cell that could not even be constructed (unknown spec
/// name or degenerate config) as one failed cell, without running anything.
fn sample_failed(name: &str, err: &SampleConfigError, out: &mut SweepOutcome) {
    out.cells.push(CellOutcome {
        experiment: "sample".into(),
        dataset: name.to_owned(),
        model: ModelKind::Sage,
        framework: FrameworkKind::RustyG,
        status: CellStatus::Failed,
        detail: err.to_string(),
        faults: Vec::new(),
        retries: 0,
        peak_memory: 0,
    });
}

/// Expands one configured spec name into its sampler × framework cells.
/// The RMAT graph is generated once per spec and shared (read-only) by
/// every cell, so the million-node headline spec pays generation once.
fn sample_spec_cells(cfg: &RunConfig, name: &str, out: &mut SweepOutcome) {
    let spec = match SampleSpec::get(name) {
        Ok(spec) => spec,
        Err(e) => return sample_failed(name, &e, out),
    };
    if let Err(e) = spec.validate() {
        return sample_failed(name, &e, out);
    }
    let graph = match RmatGraph::generate(spec.rmat) {
        Ok(g) => Rc::new(g),
        Err(e) => return sample_failed(name, &e, out),
    };
    for kind in SamplerKind::all() {
        for framework in ALL_FRAMEWORKS {
            sample_cell(cfg, &spec, &graph, kind, framework, out);
        }
    }
}

fn sample_cell(
    cfg: &RunConfig,
    spec: &SampleSpec,
    graph: &Rc<RmatGraph>,
    kind: SamplerKind,
    framework: FrameworkKind,
    out: &mut SweepOutcome,
) {
    let model = ModelKind::Sage;
    // The sampler kind rides in the dataset component so the cell path
    // keeps the 4-segment `experiment/dataset/model/framework` shape.
    let dataset = format!("{}-{}", spec.name, kind.label());
    let cell = format!("sample/{dataset}/{}/{}", model.label(), framework.label());
    gnn_faults::set_cell(&cell);
    mark_cell("sample", &dataset, model, framework);
    let events_before = gnn_faults::events_since(0).len();

    let task = SampledTaskConfig {
        max_epochs: cfg.sample_epochs,
        lr: node_hparams(model).lr,
        batch_seeds: spec.batch_seeds,
        train_seeds: spec.batch_seeds * 4,
        eval_seeds: spec.batch_seeds,
        seed: cfg.seed,
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        (0..cfg.seeds)
            .map(|s| {
                let sup = supervisor_for(cfg, &cell, s);
                run_sample_supervised(
                    framework,
                    spec,
                    graph,
                    kind,
                    &task,
                    cfg.seed + 1 + s as u64,
                    &sup,
                )
            })
            .collect::<Result<Vec<_>, TrainError>>()
    }))
    .map_err(panic_message)
    .and_then(|r| r.map_err(|e| e.to_string()));

    let (status, detail, retries) = match &result {
        Ok(runs) => {
            let sups: Vec<&Supervised<NodeOutcome>> = runs.iter().map(|(r, _)| r).collect();
            let degraded = sups.iter().any(|r| r.degraded);
            let retries: usize = sups.iter().map(|r| r.retries).sum();
            let notes: Vec<&str> = sups
                .iter()
                .flat_map(|r| r.notes.iter().map(String::as_str))
                .collect();
            let status = if degraded {
                CellStatus::Degraded
            } else {
                CellStatus::Ok
            };
            (status, notes.join("; "), retries)
        }
        Err(msg) => (CellStatus::Failed, msg.clone(), 0),
    };
    let mut peak_memory = 0;
    if let Ok(runs) = result {
        let accs: Vec<f64> = runs.iter().map(|(r, _)| r.outcome.test_acc).collect();
        peak_memory = runs
            .iter()
            .map(|(r, _)| r.outcome.report.peak_memory)
            .max()
            .unwrap_or(0);
        let (last, hit_rate) = runs.last().expect("seeds >= 1");
        out.sample.push(SampleRow {
            spec: spec.name.to_owned(),
            sampler: kind,
            model,
            framework,
            epoch_time: last.outcome.epoch_time,
            total_time: last.outcome.total_time,
            acc: mean_std(&accs),
            cache_hit_rate: *hit_rate,
        });
    }
    out.cells.push(CellOutcome {
        experiment: "sample".into(),
        dataset,
        model,
        framework,
        status,
        detail,
        faults: fired_since(events_before),
        retries,
        peak_memory,
    });
}

fn fired_since(n: usize) -> Vec<String> {
    gnn_faults::events_since(n)
        .into_iter()
        .map(|e| format!("{}:{}", e.kind, e.detail))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_faults::{FaultKind, FaultPlan};

    fn tiny_cfg() -> RunConfig {
        // One model pair per experiment would be even faster, but the grid
        // is fixed; shrink everything else instead.
        let mut cfg = RunConfig::smoke();
        cfg.scale = 0.03;
        cfg.node_epochs = 2;
        cfg.graph_epochs = 1;
        cfg
    }

    #[test]
    fn clean_sweep_covers_sixty_cells_all_ok() {
        let out = sweep(&tiny_cfg());
        assert_eq!(out.cells.len(), 60);
        assert_eq!(out.table4.len(), 24);
        assert_eq!(out.table5.len(), 36);
        let (ok, degraded, failed) = out.counts();
        assert_eq!((ok, degraded, failed), (60, 0, 0));
        assert!(out.all_survived());
        assert!(out.fault_log.is_none(), "no plan configured");
    }

    #[test]
    fn canonical_chaos_sweep_survives_and_traces_faults() {
        let obs = gnn_obs::install(gnn_obs::Collector::new());
        let out = sweep(&tiny_cfg().with_faults(FaultPlan::canonical()));
        let trace = gnn_obs::finish(obs);

        assert_eq!(out.cells.len(), 60);
        let (_, _, failed) = out.counts();
        assert_eq!(
            failed, 0,
            "canonical plan must leave every cell ok/degraded"
        );
        assert!(out.all_survived());
        let log = out.fault_log.expect("the sweep armed the plan");
        assert!(!log.is_empty(), "the canonical plan must actually fire");
        // Every fired fault is an instant event on the faults track, so
        // chaos campaigns are visible in the Chrome trace.
        let traced = trace.events.iter().filter(|e| e.track == "faults").count();
        assert_eq!(traced, log.len());
    }

    #[test]
    fn sampled_cells_are_opt_in_and_survive_canonical_chaos() {
        // Default sweeps never grow sampled cells...
        assert!(tiny_cfg().sample_specs.is_empty());
        // ...but a config naming a spec appends sampler × framework cells
        // after the classic 60, and the canonical plan must not fail them.
        let mut cfg = tiny_cfg().with_samples(["rmat-4k"]);
        cfg.sample_epochs = 1;
        cfg.seeds = 1;
        let out = sweep(&cfg.with_faults(FaultPlan::canonical()));
        assert_eq!(out.cells.len(), 64, "60 classic + 2 kinds x 2 frameworks");
        assert_eq!(out.sample.len(), 4);
        assert!(out.all_survived());
        for row in &out.sample {
            assert_eq!(row.spec, "rmat-4k");
            assert!(row.total_time > 0.0);
            assert!((0.0..=1.0).contains(&row.cache_hit_rate));
        }
        let sampled: Vec<&CellOutcome> = out
            .cells
            .iter()
            .filter(|c| c.experiment == "sample")
            .collect();
        assert_eq!(sampled.len(), 4);
        assert!(sampled.iter().all(|c| c.peak_memory > 0));
        assert!(sampled
            .iter()
            .any(|c| c.dataset == "rmat-4k-neighbor" || c.dataset == "rmat-4k-layerwise"));
    }

    #[test]
    fn unknown_sample_spec_is_one_failed_cell() {
        let mut cfg = tiny_cfg().with_samples(["no-such-spec"]);
        cfg.sample_epochs = 1;
        let out = sweep(&cfg);
        assert_eq!(out.cells.len(), 61);
        let bad = out.cells.last().unwrap();
        assert_eq!(bad.status, CellStatus::Failed);
        assert_eq!(bad.experiment, "sample");
        assert!(bad.detail.contains("no-such-spec"), "{}", bad.detail);
        assert!(out.sample.is_empty());
    }

    #[test]
    fn dense_kernel_faults_fail_isolated_cells_only() {
        // Kernel faults dense enough to exhaust every retry budget — but
        // only for the very first cells (the counters are global), so the
        // sweep must record failures AND keep finishing later cells.
        let plan = (1..=200u64).fold(FaultPlan::empty(), |p, i| {
            p.with(FaultKind::KernelFault { at: i })
        });
        let out = sweep(&tiny_cfg().with_faults(plan));
        assert_eq!(out.cells.len(), 60, "sweep must visit every cell");
        let (_, _, failed) = out.counts();
        assert!(failed >= 1, "dense faults must fail at least one cell");
        assert!(
            out.cells.last().unwrap().status == CellStatus::Ok,
            "late cells (past the fault window) must still run clean"
        );
        let broken = out
            .cells
            .iter()
            .find(|c| c.status == CellStatus::Failed)
            .unwrap();
        assert!(broken.detail.contains("kernel fault"), "{}", broken.detail);
        assert!(!broken.faults.is_empty());
        let log = out.fault_log.expect("sweep armed the plan");
        assert!(!log.is_empty());
        // Fault events carry the cell that was running.
        assert!(log.events[0].cell.starts_with("table4/"));
    }
}
