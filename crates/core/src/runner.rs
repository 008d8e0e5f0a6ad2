//! Experiment runners: one function per table/figure of the paper.
//!
//! Every runner takes its grid, datasets, recipes and framework dispatch
//! from [`gnn_train::cell`] — the same catalog the fault-isolated sweep
//! ([`crate::sweep`]) builds from — and adds only what its table or figure
//! reports. Tables IV/V train each cell through [`train`] under the default
//! policy; the profiling figures, whose batch sizes and epoch counts are
//! their own, build a cell and hand it their task; Figs. 3 and 6, which
//! need the stack and loader at their real types, are [`GraphJob`]s.

use std::rc::Rc;

use gnn_datasets::{DatasetStats, GraphDataset};
use gnn_device::{DeviceReport, KernelKind};
use gnn_models::{
    config::ALL_FRAMEWORKS, graph_hparams, FrameworkKind, GnnStack, Loader, ModelKind,
};
use gnn_obs as obs;
use gnn_train::cell::{
    build, folds, graph_dataset, node_dataset, train, with_graph_stack, CellData, CellId, GraphJob,
    Task, TaskKind, Trained, FOLDS, NODE_DATASETS,
};
use gnn_train::{
    mean_std, GraphTaskConfig, MultiGpuConfig, Summary, Supervised, Supervisor, TrainError,
};

use crate::config::RunConfig;

/// Marks the start of one sweep cell on the runner track, so traces show
/// where each (dataset, model, framework) combination begins. Instant
/// events only — the runner itself never touches the simulated clocks.
pub(crate) fn mark_cell(
    experiment: &str,
    dataset: &str,
    model: ModelKind,
    framework: FrameworkKind,
) {
    if !obs::is_active() {
        return;
    }
    obs::instant(
        obs::tracks::RUNNER,
        experiment,
        gnn_device::sim_now(),
        vec![
            ("dataset".to_owned(), obs::Value::from(dataset)),
            ("model".to_owned(), obs::Value::from(model.label())),
            ("framework".to_owned(), obs::Value::from(framework.label())),
        ],
    );
}

/// The graph-classification datasets used by the profiling experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphDs {
    /// ENZYMES (Figs. 1, 3, 4, 5; Table V).
    Enzymes,
    /// DD (Fig. 2, 4, 5; Table V).
    Dd,
    /// MNIST superpixels (Fig. 6).
    Mnist,
}

impl GraphDs {
    /// The dataset's name, as cell paths and the catalog spell it.
    pub fn name(self) -> &'static str {
        match self {
            GraphDs::Enzymes => "ENZYMES",
            GraphDs::Dd => "DD",
            GraphDs::Mnist => "MNIST",
        }
    }

    /// Generates the dataset at the config's scale.
    pub fn generate(self, cfg: &RunConfig) -> GraphDataset {
        graph_dataset(self.name(), cfg.scale, cfg.seed).expect("GraphDs names cataloged datasets")
    }
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// Regenerates Table I: statistics of all five datasets at the configured
/// scale.
pub fn table1(cfg: &RunConfig) -> Vec<DatasetStats> {
    let node = |name| {
        node_dataset(name, cfg.scale, cfg.seed)
            .expect("Table I names cataloged datasets")
            .stats()
    };
    let graph = |ds: GraphDs| ds.generate(cfg).stats();
    vec![
        node("Cora"),
        node("PubMed"),
        graph(GraphDs::Enzymes),
        graph(GraphDs::Mnist),
        graph(GraphDs::Dd),
    ]
}

// ---------------------------------------------------------------------------
// Table IV — node classification
// ---------------------------------------------------------------------------

/// One cell of Table IV.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Dataset name.
    pub dataset: String,
    /// Model.
    pub model: ModelKind,
    /// Framework.
    pub framework: FrameworkKind,
    /// Simulated seconds per epoch.
    pub epoch_time: f64,
    /// Simulated total training seconds.
    pub total_time: f64,
    /// Test accuracy over seeds, percent.
    pub acc: Summary,
}

impl Table4Row {
    /// Distills a node cell's runs: the last seed's times, accuracy over
    /// all seeds.
    pub(crate) fn from_runs(cell: &CellId, runs: &[Trained]) -> Self {
        let last = runs.last().expect("a cell has at least one run");
        Table4Row {
            dataset: cell.dataset.clone(),
            model: cell.model,
            framework: cell.framework,
            epoch_time: last.epoch_time,
            total_time: last.total_time,
            acc: mean_over(runs, |r| r.test_acc),
        }
    }
}

/// Mean ± s.d. of one quantity over a cell's runs.
pub(crate) fn mean_over(runs: &[Trained], f: fn(&Trained) -> f64) -> Summary {
    mean_std(&runs.iter().map(f).collect::<Vec<_>>())
}

/// Unwraps a run the way the plain `gnn_train` entry points do: the tables
/// have no cell to record a failure in, so a [`TrainError`] is a panic.
fn healthy(run: Result<Supervised<Trained>, TrainError>) -> Trained {
    run.unwrap_or_else(|e| panic!("{e}")).outcome
}

/// How a config trains one cell of `task`: `(epochs, runs)`. Node and
/// sampled cells repeat over seeds, graph cells over folds.
pub(crate) fn per_cell(cfg: &RunConfig, task: TaskKind) -> (usize, usize) {
    match task {
        TaskKind::Node => (cfg.node_epochs, cfg.seeds),
        TaskKind::Graph => (cfg.graph_epochs, cfg.folds.min(FOLDS)),
        TaskKind::Sample => (cfg.sample_epochs, cfg.seeds),
    }
}

/// Trains every cell of `task`'s `datasets` under the default policy and
/// returns each cell with its runs.
fn train_grid(cfg: &RunConfig, task: TaskKind, datasets: &[&str]) -> Vec<(CellId, Vec<Trained>)> {
    let (epochs, runs) = per_cell(cfg, task);
    let sup = Supervisor::default();
    let mut trained = Vec::new();
    for dataset in datasets {
        let data = CellData::generate(task, dataset, cfg.scale, cfg.seed)
            .expect("the tables name cataloged datasets");
        for cell in CellId::grid(task, dataset) {
            mark_cell(task.experiment(), dataset, cell.model, cell.framework);
            let runs = (0..runs)
                .map(|i| healthy(train(&cell, &data, epochs, cfg.seed, i, &sup)))
                .collect();
            trained.push((cell, runs));
        }
    }
    trained
}

/// Regenerates Table IV: epoch/total time and accuracy ± s.d. for the six
/// models × two frameworks on Cora and PubMed.
pub fn table4(cfg: &RunConfig) -> Vec<Table4Row> {
    train_grid(cfg, TaskKind::Node, &NODE_DATASETS)
        .iter()
        .map(|(cell, runs)| Table4Row::from_runs(cell, runs))
        .collect()
}

// ---------------------------------------------------------------------------
// Table V — graph classification
// ---------------------------------------------------------------------------

/// One cell of Table V.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Dataset name.
    pub dataset: String,
    /// Model.
    pub model: ModelKind,
    /// Framework.
    pub framework: FrameworkKind,
    /// Simulated seconds per epoch (mean over folds).
    pub epoch_time: f64,
    /// Simulated total seconds (mean over folds).
    pub total_time: f64,
    /// Test accuracy over folds, percent.
    pub acc: Summary,
}

impl Table5Row {
    /// Distills a graph cell's runs: times and accuracy over its folds.
    pub(crate) fn from_runs(cell: &CellId, runs: &[Trained]) -> Self {
        Table5Row {
            dataset: cell.dataset.clone(),
            model: cell.model,
            framework: cell.framework,
            epoch_time: mean_over(runs, |r| r.epoch_time).mean,
            total_time: mean_over(runs, |r| r.total_time).mean,
            acc: mean_over(runs, |r| r.test_acc),
        }
    }
}

/// Regenerates Table V: epoch/total time and 10-fold accuracy for the six
/// models × two frameworks on ENZYMES and DD.
pub fn table5(cfg: &RunConfig) -> Vec<Table5Row> {
    let datasets = [GraphDs::Enzymes, GraphDs::Dd].map(GraphDs::name);
    train_grid(cfg, TaskKind::Graph, &datasets)
        .iter()
        .map(|(cell, runs)| Table5Row::from_runs(cell, runs))
        .collect()
}

// ---------------------------------------------------------------------------
// Figs. 1/2 (epoch-time breakdown) and 4/5 (memory, utilization)
// ---------------------------------------------------------------------------

/// One profiled configuration: the union of what Figs. 1/2 (phase
/// breakdown) and Figs. 4/5 (peak memory, utilization) report.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Dataset name.
    pub dataset: String,
    /// Model.
    pub model: ModelKind,
    /// Framework.
    pub framework: FrameworkKind,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Per-epoch time per phase `[data_load, forward, backward, update,
    /// other]`, seconds.
    pub phase_times: [f64; 5],
    /// Peak device memory, bytes.
    pub peak_memory: u64,
    /// GPU compute utilization in `[0, 1]` (paper Eq. 5).
    pub utilization: f64,
    /// Kernel launch counts per kind over the whole profiled run (not
    /// per-epoch), in first-seen order.
    pub kind_counts: Vec<(KernelKind, u64)>,
}

impl ProfileRow {
    /// Total per-epoch time.
    pub fn epoch_time(&self) -> f64 {
        self.phase_times.iter().sum()
    }
}

/// Profiles every model × framework × batch size on `dataset` — the data
/// behind Figs. 1/2 (phase breakdown) and Figs. 4/5 (memory/utilization).
/// The cells are the catalog's; the task is the figures' own (configured
/// batch sizes, no lr decay, at most three epochs of fold 0).
pub fn profile_sweep(cfg: &RunConfig, dataset: GraphDs) -> Vec<ProfileRow> {
    let ds = Rc::new(dataset.generate(cfg));
    let folds = folds(&ds, cfg.seed);
    let fold = &folds[0];
    let data = CellData::Graph(ds.clone(), Rc::default());
    let epochs = cfg.graph_epochs.clamp(1, 3);
    let sup = Supervisor::default();
    let mut rows = Vec::new();
    for cell in CellId::grid(TaskKind::Graph, dataset.name()) {
        let (model, framework) = (cell.model, cell.framework);
        for &batch_size in &cfg.batch_sizes {
            mark_cell("profile_sweep", &ds.name, model, framework);
            let task = GraphTaskConfig {
                batch_size: batch_size.min(fold.train.len().max(1)),
                init_lr: graph_hparams(model).init_lr,
                patience: 1000,
                decay_factor: 0.5,
                min_lr: 1e-9,
                max_epochs: epochs,
                seed: cfg.seed,
                shuffle: true,
            };
            let built = build(framework, model, &data, cfg.seed + 77);
            let out = healthy(built.train(&Task::Graph(task, fold), &sup));
            let e = out.epochs.max(1) as f64;
            let mut phase_times = out.report.phase_times;
            for t in &mut phase_times {
                *t /= e;
            }
            rows.push(ProfileRow {
                dataset: ds.name.clone(),
                model,
                framework,
                batch_size,
                phase_times,
                peak_memory: out.report.peak_memory,
                utilization: out.report.utilization(),
                kind_counts: out.report.kind_counts,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Fig. 3 — layer-wise execution time
// ---------------------------------------------------------------------------

/// Layer-wise forward execution times of one training batch (Fig. 3).
#[derive(Debug, Clone)]
pub struct LayerTimeRow {
    /// Model.
    pub model: ModelKind,
    /// Framework.
    pub framework: FrameworkKind,
    /// `(scope, seconds)` pairs: `conv1..conv4` and `readout`.
    pub scopes: Vec<(String, f64)>,
}

/// Regenerates Fig. 3: per-layer execution time of the six models training
/// one ENZYMES batch (batch size 128) under both frameworks.
pub fn layer_times(cfg: &RunConfig) -> Vec<LayerTimeRow> {
    let ds = GraphDs::Enzymes.generate(cfg);
    let batch: Vec<u32> = (0..128u32.min(ds.samples.len() as u32)).collect();
    let mut rows = Vec::new();
    for cell in CellId::grid(TaskKind::Graph, &ds.name) {
        let (model, framework) = (cell.model, cell.framework);
        mark_cell("layer_times", &ds.name, model, framework);
        let report = with_graph_stack(framework, model, &ds, cfg.seed + 5, OneBatch(&batch));
        rows.push(LayerTimeRow {
            model,
            framework,
            scopes: report.scopes,
        });
    }
    rows
}

/// One training batch under a throwaway profiling session: load, forward,
/// loss, backward.
struct OneBatch<'a>(&'a [u32]);

impl GraphJob for OneBatch<'_> {
    type Out = DeviceReport;

    fn run<L: Loader>(self, stack: &GnnStack<L::Batch>, loader: &L) -> DeviceReport {
        use gnn_models::ModelBatch;
        let handle = gnn_device::session::install(gnn_device::Session::new(
            gnn_device::CostModel::rtx2080ti(),
        ));
        let b = loader.load(self.0);
        let logits = stack.forward(&b, true);
        let loss = gnn_tensor::cross_entropy(&logits, b.labels());
        loss.backward();
        gnn_device::session::finish(handle)
    }
}

// ---------------------------------------------------------------------------
// Fig. 6 — multi-GPU scaling
// ---------------------------------------------------------------------------

/// One point of Fig. 6.
#[derive(Debug, Clone)]
pub struct MultiGpuRow {
    /// Model (the paper uses GCN and GAT).
    pub model: ModelKind,
    /// Framework.
    pub framework: FrameworkKind,
    /// Global batch size.
    pub batch_size: usize,
    /// Simulated GPU count.
    pub n_gpus: usize,
    /// Simulated seconds per epoch.
    pub epoch_time: f64,
}

/// Regenerates Fig. 6: per-epoch time of GCN and GAT on MNIST with
/// data-parallel training over 1/2/4/8 GPUs at batch sizes 128/256/512.
pub fn multi_gpu(cfg: &RunConfig) -> Vec<MultiGpuRow> {
    let ds = GraphDs::Mnist.generate(cfg);
    let epoch_samples = ds.samples.len();
    let mut rows = Vec::new();
    for model in [ModelKind::Gcn, ModelKind::Gat] {
        for framework in ALL_FRAMEWORKS {
            mark_cell("multi_gpu", &ds.name, model, framework);
            for &batch_size in &[128usize, 256, 512] {
                let batch_size = batch_size.min(epoch_samples);
                for &n_gpus in &[1usize, 2, 4, 8] {
                    let point = MultiGpuConfig {
                        n_gpus,
                        batch_size,
                        epoch_samples,
                    };
                    rows.push(MultiGpuRow {
                        model,
                        framework,
                        batch_size,
                        n_gpus,
                        epoch_time: with_graph_stack(framework, model, &ds, cfg.seed + 6, &point),
                    });
                }
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_models::config::ALL_MODELS;

    #[test]
    fn table1_smoke_has_all_datasets() {
        let rows = table1(&RunConfig::smoke());
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["Cora", "PubMed", "ENZYMES", "MNIST", "DD"]);
        // Feature/class dims survive any scale.
        assert_eq!(rows[0].feature_dim, 1433);
        assert_eq!(rows[4].num_classes, 2);
    }

    #[test]
    fn profile_sweep_smoke_shapes() {
        let mut cfg = RunConfig::smoke();
        cfg.batch_sizes = [4, 8, 16];
        let rows = profile_sweep(&cfg, GraphDs::Enzymes);
        assert_eq!(rows.len(), 6 * 2 * 3);
        for r in &rows {
            assert!(r.epoch_time() > 0.0);
            assert!(r.peak_memory > 0);
            assert!((0.0..=1.0).contains(&r.utilization));
            assert!(
                !r.kind_counts.is_empty(),
                "{:?}/{:?} profiled no kernels",
                r.model,
                r.framework
            );
            assert!(r.kind_counts.iter().all(|(_, n)| *n > 0));
        }
        // PyG loads data faster than DGL for every (model, batch) pair.
        for m in ALL_MODELS {
            for bs in cfg.batch_sizes {
                let pyg = rows
                    .iter()
                    .find(|r| {
                        r.model == m && r.batch_size == bs && r.framework == FrameworkKind::RustyG
                    })
                    .unwrap();
                let dgl = rows
                    .iter()
                    .find(|r| {
                        r.model == m && r.batch_size == bs && r.framework == FrameworkKind::Rgl
                    })
                    .unwrap();
                assert!(
                    dgl.phase_times[0] > pyg.phase_times[0],
                    "{m:?}/{bs}: DGL data load {} !> PyG {}",
                    dgl.phase_times[0],
                    pyg.phase_times[0]
                );
            }
        }
    }

    #[test]
    fn layer_times_smoke_has_conv_scopes() {
        let rows = layer_times(&RunConfig::smoke());
        assert_eq!(rows.len(), 12);
        for r in &rows {
            let names: Vec<&str> = r.scopes.iter().map(|(n, _)| n.as_str()).collect();
            for expect in ["conv1", "conv2", "conv3", "conv4", "readout"] {
                assert!(names.contains(&expect), "{:?} missing {expect}", r.model);
            }
        }
    }
}
