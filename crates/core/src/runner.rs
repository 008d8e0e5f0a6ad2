//! Experiment runners: one function per table/figure of the paper.

use gnn_datasets::{
    stratified_kfold, CitationSpec, DatasetStats, GraphDataset, NodeDataset, SuperpixelSpec,
    TudSpec,
};
use gnn_device::KernelKind;
use gnn_models::adapt::{RglLoader, RustygLoader};
use gnn_models::{
    build, config::ALL_FRAMEWORKS, config::ALL_MODELS, graph_hparams, node_hparams, FrameworkKind,
    ModelKind,
};
use gnn_obs as obs;
use gnn_train::{
    data_parallel_epoch_time, mean_std, run_graph_fold_supervised, run_node_task_supervised,
    FoldOutcome, GraphTaskConfig, MultiGpuConfig, NodeOutcome, NodeTaskConfig, Summary, Supervised,
    Supervisor, TrainError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    /// Generates the dataset at the config's scale.
    pub fn generate(self, cfg: &RunConfig) -> GraphDataset {
        match self {
            GraphDs::Enzymes => TudSpec::enzymes().scaled(cfg.scale).generate(cfg.seed),
            GraphDs::Dd => TudSpec::dd().scaled(cfg.scale).generate(cfg.seed),
            GraphDs::Mnist => {
                // MNIST is 70k graphs; even "paper" runs subsample harder.
                SuperpixelSpec::mnist()
                    .scaled((cfg.scale * 0.1).min(1.0))
                    .generate(cfg.seed)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// Regenerates Table I: statistics of all five datasets at the configured
/// scale.
pub fn table1(cfg: &RunConfig) -> Vec<DatasetStats> {
    vec![
        CitationSpec::cora()
            .scaled(cfg.scale)
            .generate(cfg.seed)
            .stats(),
        CitationSpec::pubmed()
            .scaled(cfg.scale)
            .generate(cfg.seed)
            .stats(),
        GraphDs::Enzymes.generate(cfg).stats(),
        GraphDs::Mnist.generate(cfg).stats(),
        GraphDs::Dd.generate(cfg).stats(),
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

/// Builds `model` under `framework` and trains it on `ds` — the one
/// framework match of the node task. The tables run it under the default
/// policy and [`healthy`]; the fault-isolated sweep passes each cell's own.
pub(crate) fn run_node(
    framework: FrameworkKind,
    model: ModelKind,
    ds: &NodeDataset,
    cfg: &NodeTaskConfig,
    seed: u64,
    sup: &Supervisor,
) -> Result<Supervised<NodeOutcome>, TrainError> {
    let f = ds.features.cols();
    let c = ds.num_classes;
    let mut rng = StdRng::seed_from_u64(seed);
    match framework {
        FrameworkKind::RustyG => {
            let stack = build::node_model_rustyg(model, f, c, &mut rng);
            let batch = rustyg::loader::full_graph_batch(ds);
            run_node_task_supervised(&stack, &batch, ds, cfg, sup)
        }
        FrameworkKind::Rgl => {
            let stack = build::node_model_rgl(model, f, c, &mut rng);
            let batch = rgl::loader::full_graph_batch(ds);
            run_node_task_supervised(&stack, &batch, ds, cfg, sup)
        }
    }
}

/// Unwraps a run the way the plain `gnn_train` entry points do: the tables
/// have no cell to record a failure in, so a [`TrainError`] is a panic.
fn healthy<T>(run: Result<Supervised<T>, TrainError>) -> T {
    run.unwrap_or_else(|e| panic!("{e}")).outcome
}

/// Regenerates Table IV: epoch/total time and accuracy ± s.d. for the six
/// models × two frameworks on Cora and PubMed.
pub fn table4(cfg: &RunConfig) -> Vec<Table4Row> {
    let sup = Supervisor::default();
    let mut rows = Vec::new();
    for spec in [CitationSpec::cora(), CitationSpec::pubmed()] {
        let ds = spec.scaled(cfg.scale).generate(cfg.seed);
        for model in ALL_MODELS {
            for framework in ALL_FRAMEWORKS {
                mark_cell("table4", &ds.name, model, framework);
                let task = NodeTaskConfig {
                    max_epochs: cfg.node_epochs,
                    lr: node_hparams(model).lr,
                };
                let mut accs = Vec::with_capacity(cfg.seeds);
                let mut epoch_time = 0.0;
                let mut total_time = 0.0;
                for s in 0..cfg.seeds {
                    let seed = cfg.seed + 1 + s as u64;
                    let out = healthy(run_node(framework, model, &ds, &task, seed, &sup));
                    accs.push(out.test_acc);
                    epoch_time = out.epoch_time;
                    total_time = out.total_time;
                }
                rows.push(Table4Row {
                    dataset: ds.name.clone(),
                    model,
                    framework,
                    epoch_time,
                    total_time,
                    acc: mean_std(&accs),
                });
            }
        }
    }
    rows
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

/// Builds `model` under `framework` and trains it on one fold of `ds` —
/// the one framework match of the graph task (see [`run_node`]).
pub(crate) fn run_graph(
    framework: FrameworkKind,
    model: ModelKind,
    ds: &GraphDataset,
    fold: &gnn_datasets::Fold,
    task: &GraphTaskConfig,
    seed: u64,
    sup: &Supervisor,
) -> Result<Supervised<FoldOutcome>, TrainError> {
    let f = ds.feature_dim;
    let c = ds.num_classes;
    let mut rng = StdRng::seed_from_u64(seed);
    match framework {
        FrameworkKind::RustyG => {
            let stack = build::graph_model_rustyg(model, f, c, &mut rng);
            let loader = RustygLoader::new(ds);
            run_graph_fold_supervised(&stack, &loader, fold, task, sup)
        }
        FrameworkKind::Rgl => {
            let stack = build::graph_model_rgl(model, f, c, &mut rng);
            let loader = RglLoader::new(ds);
            run_graph_fold_supervised(&stack, &loader, fold, task, sup)
        }
    }
}

/// Regenerates Table V: epoch/total time and 10-fold accuracy for the six
/// models × two frameworks on ENZYMES and DD.
pub fn table5(cfg: &RunConfig) -> Vec<Table5Row> {
    let sup = Supervisor::default();
    let mut rows = Vec::new();
    for which in [GraphDs::Enzymes, GraphDs::Dd] {
        let ds = which.generate(cfg);
        let folds = stratified_kfold(&ds.labels(), 10, cfg.seed);
        for model in ALL_MODELS {
            for framework in ALL_FRAMEWORKS {
                mark_cell("table5", &ds.name, model, framework);
                let mut task = GraphTaskConfig::from_hparams(
                    &graph_hparams(model),
                    cfg.graph_epochs,
                    cfg.seed,
                );
                // Keep several batches per epoch at reduced dataset scale.
                task.batch_size = task.batch_size.min((folds[0].train.len() / 3).max(8));
                let mut accs = Vec::new();
                let mut epoch_times = Vec::new();
                let mut total_times = Vec::new();
                for (i, fold) in folds.iter().take(cfg.folds).enumerate() {
                    let seed = cfg.seed + 10 + i as u64;
                    let out = healthy(run_graph(framework, model, &ds, fold, &task, seed, &sup));
                    accs.push(out.test_acc);
                    epoch_times.push(out.epoch_time);
                    total_times.push(out.total_time);
                }
                rows.push(Table5Row {
                    dataset: ds.name.clone(),
                    model,
                    framework,
                    epoch_time: mean_std(&epoch_times).mean,
                    total_time: mean_std(&total_times).mean,
                    acc: mean_std(&accs),
                });
            }
        }
    }
    rows
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
pub fn profile_sweep(cfg: &RunConfig, dataset: GraphDs) -> Vec<ProfileRow> {
    let ds = dataset.generate(cfg);
    let folds = stratified_kfold(&ds.labels(), 10, cfg.seed);
    let fold = &folds[0];
    let epochs = cfg.graph_epochs.clamp(1, 3);
    let sup = Supervisor::default();
    let mut rows = Vec::new();
    for model in ALL_MODELS {
        for framework in ALL_FRAMEWORKS {
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
                let seed = cfg.seed + 77;
                let out = healthy(run_graph(framework, model, &ds, fold, &task, seed, &sup));
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
    let n = ds.samples.len() as u32;
    let batch: Vec<u32> = (0..128u32.min(n)).collect();
    let mut rows = Vec::new();
    for model in ALL_MODELS {
        for framework in ALL_FRAMEWORKS {
            mark_cell("layer_times", &ds.name, model, framework);
            let mut rng = StdRng::seed_from_u64(cfg.seed + 5);
            let report = match framework {
                FrameworkKind::RustyG => {
                    let stack =
                        build::graph_model_rustyg(model, ds.feature_dim, ds.num_classes, &mut rng);
                    let loader = RustygLoader::new(&ds);
                    one_batch_report(&stack, &loader, &batch)
                }
                FrameworkKind::Rgl => {
                    let stack =
                        build::graph_model_rgl(model, ds.feature_dim, ds.num_classes, &mut rng);
                    let loader = RglLoader::new(&ds);
                    one_batch_report(&stack, &loader, &batch)
                }
            };
            rows.push(LayerTimeRow {
                model,
                framework,
                scopes: report.scopes,
            });
        }
    }
    rows
}

fn one_batch_report<L: gnn_models::Loader>(
    stack: &gnn_models::GnnStack<L::Batch>,
    loader: &L,
    idx: &[u32],
) -> gnn_device::DeviceReport {
    use gnn_models::ModelBatch;
    let handle =
        gnn_device::session::install(gnn_device::Session::new(gnn_device::CostModel::rtx2080ti()));
    let b = loader.load(idx);
    let logits = stack.forward(&b, true);
    let loss = gnn_tensor::cross_entropy(&logits, b.labels());
    loss.backward();
    gnn_device::session::finish(handle)
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
            let mut rng = StdRng::seed_from_u64(cfg.seed + 6);
            for &batch_size in &[128usize, 256, 512] {
                let batch_size = batch_size.min(epoch_samples);
                for &n_gpus in &[1usize, 2, 4, 8] {
                    let mcfg = MultiGpuConfig {
                        n_gpus,
                        batch_size,
                        epoch_samples,
                    };
                    let epoch_time = match framework {
                        FrameworkKind::RustyG => {
                            let stack = build::graph_model_rustyg(
                                model,
                                ds.feature_dim,
                                ds.num_classes,
                                &mut rng,
                            );
                            let loader = RustygLoader::new(&ds);
                            data_parallel_epoch_time(&stack, &loader, &mcfg)
                        }
                        FrameworkKind::Rgl => {
                            let stack = build::graph_model_rgl(
                                model,
                                ds.feature_dim,
                                ds.num_classes,
                                &mut rng,
                            );
                            let loader = RglLoader::new(&ds);
                            data_parallel_epoch_time(&stack, &loader, &mcfg)
                        }
                    };
                    rows.push(MultiGpuRow {
                        model,
                        framework,
                        batch_size,
                        n_gpus,
                        epoch_time,
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
