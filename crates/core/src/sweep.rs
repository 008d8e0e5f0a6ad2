//! The fault-isolated paper sweep: every Table IV/V cell under supervised
//! training, with per-cell outcome records.
//!
//! [`sweep`] runs the full (dataset × model × framework) grid — 24 node
//! cells (Cora/PubMed) plus 36 graph cells (ENZYMES/DD/MNIST), 60 in all,
//! then any opted-in sampled cells — through the supervised loops of
//! `gnn_train`. What a cell is (its path, dataset, recipe, seeds and
//! framework) comes from [`gnn_train::cell`]; what this module adds is one
//! cell body, [`run_cell`], whatever the task: a failure in one cell (a
//! fault that survives retry and degradation, or a panic from deeper in the
//! stack) is caught, recorded as a [`CellOutcome`] with status `failed`,
//! and the sweep moves on to the remaining cells. Cells that needed
//! degradation (batch halved, world shrunk) finish with status `degraded`;
//! everything else is `ok`. Under the canonical fault plan
//! (`FaultPlan::canonical()`), every cell must end `ok` or `degraded` —
//! never `failed` — which is exactly what the CI chaos job asserts.
//!
//! When the config sets a checkpoint directory, every cell writes per-epoch
//! checkpoints there; a killed sweep re-run with `resume` restores each
//! cell from its file and reproduces the uninterrupted sweep's metrics
//! byte-for-byte (already-finished cells restore their recorded metrics
//! without retraining).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use gnn_faults::FaultLog;
use gnn_models::{FrameworkKind, ModelKind};
use gnn_sample::{RmatGraph, SampleConfigError, SampleSpec, SamplerKind};
use gnn_train::cell::{
    sample_dataset, train, CellData, CellId, TaskKind, Trained, CLASSIC_DATASETS,
};
use gnn_train::{Supervised, Supervisor};

use crate::config::RunConfig;
use crate::runner::{mark_cell, mean_over, per_cell, Table4Row, Table5Row};

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
    /// Experiment the cell belongs to (`table4` / `table5` / `sample`).
    pub experiment: String,
    /// Dataset name (`<spec>-<sampler>` for sampled cells).
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

/// Builds the supervisor policy for run `run_idx` of `cell`.
fn supervisor_for(cfg: &RunConfig, cell: &CellId, run_idx: usize) -> Supervisor {
    Supervisor {
        checkpoint_path: cfg
            .ckpt_dir
            .as_ref()
            .map(|dir| dir.join(cell.ckpt_file(run_idx))),
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

    // The classic grid: node cells (Table IV), then graph cells (Table V,
    // plus MNIST for full coverage). Each dataset is generated once.
    for (task, datasets) in CLASSIC_DATASETS {
        for dataset in datasets {
            let data = CellData::generate(task, dataset, cfg.scale, cfg.seed)
                .expect("the classic grid names datasets the catalog generates");
            for cell in CellId::grid(task, dataset) {
                run_cell(cfg, &cell, &data, &mut out);
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

/// Records a sampled cell that could not even be constructed (unknown spec
/// name or degenerate config) as one failed cell, without running anything.
fn sample_failed(name: &str, err: &SampleConfigError, out: &mut SweepOutcome) {
    out.cells.push(CellOutcome {
        experiment: TaskKind::Sample.experiment().into(),
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
    let prepared = SampleSpec::get(name).and_then(|spec| {
        spec.validate()?;
        Ok((Rc::new(RmatGraph::generate(spec.rmat)?), spec))
    });
    let (graph, spec) = match prepared {
        Ok(prepared) => prepared,
        Err(e) => return sample_failed(name, &e, out),
    };
    for (kind, cell) in CellId::sample_grid(spec.name) {
        let data = CellData::Sample(graph.clone(), spec.clone(), kind);
        run_cell(cfg, &cell, &data, out);
    }
}

/// The one cell body: trains every run of `cell` on `data` with panics and
/// typed errors caught, pushes the cell's table row if it completed, and
/// records its [`CellOutcome`] either way.
fn run_cell(cfg: &RunConfig, cell: &CellId, data: &CellData, out: &mut SweepOutcome) {
    gnn_faults::set_cell(&cell.path());
    let experiment = cell.task.experiment();
    mark_cell(experiment, &cell.dataset, cell.model, cell.framework);
    let events_before = gnn_faults::events_since(0).len();

    let (epochs, runs) = per_cell(cfg, cell.task);
    let result = catch_unwind(AssertUnwindSafe(|| {
        (0..runs)
            .map(|i| {
                let sup = supervisor_for(cfg, cell, i);
                train(cell, data, epochs, cfg.seed, i, &sup)
            })
            .collect::<Result<Vec<_>, _>>()
    }))
    .map_err(panic_message)
    .and_then(|r| r.map_err(|e| e.to_string()));

    let (status, detail, retries) = match &result {
        Ok(runs) => digest(runs),
        Err(msg) => (CellStatus::Failed, msg.clone(), 0),
    };
    let mut peak_memory = 0;
    if let Ok(runs) = result {
        let runs: Vec<Trained> = runs.into_iter().map(|r| r.outcome).collect();
        peak_memory = runs.iter().map(|r| r.report.peak_memory).max().unwrap_or(0);
        push_row(cell, &runs, out);
    }
    out.cells.push(CellOutcome {
        experiment: experiment.into(),
        dataset: cell.dataset.clone(),
        model: cell.model,
        framework: cell.framework,
        status,
        detail,
        faults: fired_since(events_before),
        retries,
        peak_memory,
    });
}

/// Distills a completed cell's runs into its table's row.
fn push_row(cell: &CellId, runs: &[Trained], out: &mut SweepOutcome) {
    match cell.task {
        TaskKind::Node => out.table4.push(Table4Row::from_runs(cell, runs)),
        TaskKind::Graph => out.table5.push(Table5Row::from_runs(cell, runs)),
        TaskKind::Sample => {
            let (spec, sampler) =
                sample_dataset(&cell.dataset).expect("sampled cells name cataloged specs");
            // Like Table IV: the last seed's times, accuracy over all seeds.
            let last = runs.last().expect("a cell has at least one run");
            out.sample.push(SampleRow {
                spec: spec.name.to_owned(),
                sampler,
                model: cell.model,
                framework: cell.framework,
                epoch_time: last.epoch_time,
                total_time: last.total_time,
                acc: mean_over(runs, |r| r.test_acc),
                cache_hit_rate: last.cache_hit_rate,
            });
        }
    }
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

    /// FNV-1a over everything a sweep reports: `cell_outcomes.csv`, both
    /// table CSVs and the sampled rows. The constants in the tests below
    /// were captured from the commit before the cell catalog existed, on
    /// sweeps these tests already ran; a deliberate behaviour change
    /// re-captures them (the failure prints the new value).
    fn outcome_digest(out: &SweepOutcome) -> u64 {
        use crate::export::{cell_outcomes_csv, table4_csv, table5_csv};
        let mut text = cell_outcomes_csv(&out.cells) + &table4_csv(&out.table4);
        text += &table5_csv(&out.table5);
        for row in &out.sample {
            text += &format!("{row:?}\n");
        }
        text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |hash, b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
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
        let digest = outcome_digest(&out);
        assert_eq!(
            digest, 0xb420_810b_6f94_3215,
            "clean sweep moved: {digest:#018x}"
        );
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
        let digest = outcome_digest(&out);
        assert_eq!(
            digest, 0xd073_623a_b3f1_8395,
            "chaos sweep moved: {digest:#018x}"
        );
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
        let digest = outcome_digest(&out);
        assert_eq!(
            digest, 0xb338_46b6_643b_91a8,
            "sampled chaos sweep moved: {digest:#018x}"
        );
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
