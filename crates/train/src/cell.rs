//! The cell catalog: what a cell of the study *is*, written once.
//!
//! The paper is a grid — six models × five datasets × two frameworks, "the
//! same model, hyper-parameters and splits under both" — and every layer
//! above this crate consumes it: `gnn_core` trains it (sweep, tables,
//! figures), `gnn-bench` reports on slices of it, `gnn-serve` restores and
//! serves it, `gnn-lint` lints and certifies it. They build from the three
//! things here, so none keeps a copy of its own:
//!
//! 1. **The address** — [`CellId`], its path and checkpoint file name, and
//!    the grid ([`CellId::grid`], [`CellId::sample_grid`], [`CellId::all`])
//!    in the one order everything walks it.
//! 2. **The recipe** — dataset by name ([`node_dataset`], [`graph_dataset`]:
//!    the only place that knows MNIST subsamples ten times harder), the
//!    splits and batch clamp ([`folds`], [`graph_batch_size`]), and, on
//!    [`CellData`], the architecture seed and task config of run `i`.
//! 3. **The framework match** — [`build`] turns a cell into a [`Built`]
//!    stack on its data with the framework erased: it trains under a
//!    [`Supervisor`], forwards for serving and takes a checkpoint's weights.
//!    [`with_graph_stack`] hands code that must stay generic over the
//!    loader (Figs. 3 and 6, the overlap ablation) the stack and loader at
//!    their real types. These two are the only matches on a
//!    [`FrameworkKind`] that build anything.
//!
//! [`train`] is the three together: run `i` of a cell, as every table,
//! sweep and report trains it.

use std::cell::OnceCell;
use std::fmt;
use std::rc::Rc;

use gnn_datasets::{
    stratified_kfold, CitationSpec, Fold, GraphDataset, NodeDataset, SuperpixelSpec, TudSpec,
};
use gnn_device::DeviceReport;
use gnn_models::adapt::{RglLoader, RustygLoader};
use gnn_models::config::{ALL_FRAMEWORKS, ALL_MODELS};
use gnn_models::{build as models, graph_hparams, node_hparams};
use gnn_models::{FrameworkKind, GnnStack, Loader, ModelBatch, ModelKind};
use gnn_sample::{RmatGraph, SampleConfigError, SampleSpec, SamplerKind};
use gnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{
    run_graph_fold_supervised, run_node_task_supervised, run_sampled_task_supervised, Checkpoint,
    GraphTaskConfig, NodeTaskConfig, SampledLoader, SampledTaskConfig, Supervised, Supervisor,
    TrainError,
};

// ---------------------------------------------------------------------------
// 1. The address
// ---------------------------------------------------------------------------

/// Which task family a cell belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Node classification over a citation graph (`table4` cells): trained
    /// full-batch; a served batch is answered by one full-graph forward.
    Node,
    /// Graph classification (`table5` cells): trained and served through
    /// the framework's concat/hetero mini-batch collation.
    Graph,
    /// Seed-node classification over a giant RMAT graph (`sample` cells):
    /// every batch is the sampled union block of its seed nodes — the graph
    /// never fits on device, so there is no full-graph path.
    Sample,
}

impl TaskKind {
    /// The experiment prefix used in cell paths.
    pub fn experiment(self) -> &'static str {
        match self {
            TaskKind::Node => "table4",
            TaskKind::Graph => "table5",
            TaskKind::Sample => "sample",
        }
    }
}

/// The node datasets of Table IV, in paper order.
pub const NODE_DATASETS: [&str; 2] = ["Cora", "PubMed"];
/// The graph datasets of Table V (plus MNIST), in paper order.
pub const GRAPH_DATASETS: [&str; 3] = ["ENZYMES", "DD", "MNIST"];
/// The classic grid's datasets by task, in sweep order. Sampled cells are
/// opt-in and named by spec, so they have no list.
pub const CLASSIC_DATASETS: [(TaskKind, &[&str]); 2] = [
    (TaskKind::Node, &NODE_DATASETS),
    (TaskKind::Graph, &GRAPH_DATASETS),
];

/// Splits a sampled cell's dataset component — `<spec>-<sampler>`, e.g.
/// `rmat-1m-neighbor` — into its catalog spec and sampler kind. `None`
/// when either half is unknown.
pub fn sample_dataset(dataset: &str) -> Option<(SampleSpec, SamplerKind)> {
    for kind in SamplerKind::all() {
        if let Some(prefix) = dataset.strip_suffix(kind.label()) {
            let name = prefix.strip_suffix('-')?;
            if let Ok(spec) = SampleSpec::get(name) {
                return Some((spec, kind));
            }
        }
    }
    None
}

/// Why a cell path does not address a cell, or a dataset name is not one
/// the catalog generates. Lint findings and artifacts embed the `Display`
/// renderings, so they never change.
#[derive(Debug, Clone, PartialEq)]
pub enum CellError {
    /// A cell path did not have four `/`-separated components.
    MalformedCellPath(String),
    /// A cell path named an experiment other than `table4` / `table5` /
    /// `sample`.
    UnknownExperiment {
        /// The unknown experiment component.
        experiment: String,
        /// The full path it appeared in.
        path: String,
    },
    /// A cell path named a dataset its experiment does not include (for
    /// `sample`, one that is not a cataloged `<spec>-<sampler>` pair).
    UnknownDataset {
        /// The experiment component (`table4`, `table5` or `sample`).
        experiment: String,
        /// The unknown dataset component.
        dataset: String,
        /// The full path it appeared in.
        path: String,
    },
    /// A cell path named an unknown model.
    UnknownModel {
        /// The unknown model component.
        model: String,
        /// The full path it appeared in.
        path: String,
    },
    /// A cell path named an unknown framework.
    UnknownFramework {
        /// The unknown framework component.
        framework: String,
        /// The full path it appeared in.
        path: String,
    },
    /// A name [`node_dataset`] does not know (a parsed [`CellId`] never
    /// carries one).
    UnknownNodeDataset(String),
    /// A name [`graph_dataset`] does not know.
    UnknownGraphDataset(String),
    /// A sampled dataset component that is not a cataloged
    /// `<spec>-<sampler>` pair.
    UnknownSampleDataset(String),
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::MalformedCellPath(path) => write!(
                f,
                "cell path `{path}` must be experiment/dataset/model/framework"
            ),
            CellError::UnknownExperiment { experiment, path } => {
                write!(f, "unknown experiment `{experiment}` in `{path}`")
            }
            CellError::UnknownDataset {
                experiment,
                dataset,
                path,
            } => write!(f, "unknown {experiment} dataset `{dataset}` in `{path}`"),
            CellError::UnknownModel { model, path } => {
                write!(f, "unknown model `{model}` in `{path}`")
            }
            CellError::UnknownFramework { framework, path } => {
                write!(f, "unknown framework `{framework}` in `{path}`")
            }
            CellError::UnknownNodeDataset(name) => write!(f, "unknown node dataset `{name}`"),
            CellError::UnknownGraphDataset(name) => write!(f, "unknown graph dataset `{name}`"),
            CellError::UnknownSampleDataset(name) => write!(
                f,
                "unknown sample dataset `{name}` (want `<spec>-<neighbor|layerwise>`)"
            ),
        }
    }
}

impl std::error::Error for CellError {}

/// One cell of the study: the address of a training run, of the checkpoint
/// it writes and of the endpoint that serves it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellId {
    /// Task family (fixes the experiment prefix).
    pub task: TaskKind,
    /// Dataset name as generated (`Cora`, `PubMed`, `ENZYMES`, `DD`,
    /// `MNIST`) or, for sampled cells, `<spec>-<sampler>` (e.g.
    /// `rmat-1m-neighbor`).
    pub dataset: String,
    /// Model architecture.
    pub model: ModelKind,
    /// Framework the model runs under.
    pub framework: FrameworkKind,
}

impl CellId {
    /// The canonical cell path, e.g. `table4/Cora/GCN/PyG`.
    pub fn path(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.task.experiment(),
            self.dataset,
            self.model.label(),
            self.framework.label()
        )
    }

    /// The checkpoint file of this cell's run `run_idx` (seed index for
    /// node and sampled cells, fold index for graph cells): what the sweep
    /// writes and the serving registry restores.
    pub fn ckpt_file(&self, run_idx: usize) -> String {
        format!("{}_{run_idx}.ckpt", self.path().replace('/', "_"))
    }

    /// Parses a cell path back into a [`CellId`].
    ///
    /// # Errors
    ///
    /// Returns the [`CellError`] variant naming the unknown component.
    pub fn parse(path: &str) -> Result<CellId, CellError> {
        let own = str::to_owned;
        let parts: Vec<&str> = path.split('/').collect();
        let [experiment, dataset, model, framework] = parts[..] else {
            return Err(CellError::MalformedCellPath(own(path)));
        };
        let task = [TaskKind::Node, TaskKind::Graph, TaskKind::Sample]
            .into_iter()
            .find(|t| t.experiment() == experiment)
            .ok_or_else(|| CellError::UnknownExperiment {
                experiment: own(experiment),
                path: own(path),
            })?;
        let dataset_known = match task {
            TaskKind::Node => NODE_DATASETS.contains(&dataset),
            TaskKind::Graph => GRAPH_DATASETS.contains(&dataset),
            TaskKind::Sample => sample_dataset(dataset).is_some(),
        };
        if !dataset_known {
            return Err(CellError::UnknownDataset {
                experiment: own(experiment),
                dataset: own(dataset),
                path: own(path),
            });
        }
        let model = ALL_MODELS
            .into_iter()
            .find(|m| m.label() == model)
            .ok_or_else(|| CellError::UnknownModel {
                model: own(model),
                path: own(path),
            })?;
        let framework = ALL_FRAMEWORKS
            .into_iter()
            .find(|f| f.label() == framework)
            .ok_or_else(|| CellError::UnknownFramework {
                framework: own(framework),
                path: own(path),
            })?;
        Ok(CellId {
            task,
            dataset: own(dataset),
            model,
            framework,
        })
    }

    /// The cells of one dataset: every model under every framework. The
    /// sweep, the tables and the lint all iterate this, so they agree on
    /// the order by construction.
    pub fn grid(task: TaskKind, dataset: &str) -> Vec<CellId> {
        let mut cells = Vec::with_capacity(ALL_MODELS.len() * ALL_FRAMEWORKS.len());
        for model in ALL_MODELS {
            for framework in ALL_FRAMEWORKS {
                cells.push(CellId {
                    task,
                    dataset: dataset.to_owned(),
                    model,
                    framework,
                });
            }
        }
        cells
    }

    /// The sampled cells of one spec, each with its sampler kind: SAGE (the
    /// GraphSAGE recipe) under every sampler kind × framework. The kind
    /// rides in the dataset component so the path keeps its four segments.
    pub fn sample_grid(spec: &str) -> Vec<(SamplerKind, CellId)> {
        let mut cells = Vec::new();
        for kind in SamplerKind::all() {
            let dataset = format!("{spec}-{}", kind.label());
            let sage = CellId::grid(TaskKind::Sample, &dataset)
                .into_iter()
                .filter(|cell| cell.model == ModelKind::Sage);
            cells.extend(sage.map(|cell| (kind, cell)));
        }
        cells
    }

    /// Every cell of the *classic* grid, 24 node + 36 graph:
    /// [`CLASSIC_DATASETS`] × [`CellId::grid`], which is also how the sweep
    /// executes them. Sampled cells are addressable
    /// (`sample/<spec>-<sampler>/<model>/<framework>`) but opt-in, so they
    /// are deliberately not part of this grid.
    pub fn all() -> Vec<CellId> {
        let mut cells = Vec::with_capacity(60);
        for (task, datasets) in CLASSIC_DATASETS {
            for dataset in datasets {
                cells.extend(CellId::grid(task, dataset));
            }
        }
        cells
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.path())
    }
}

/// The reduced representative endpoint set the `gnn-bench serve` binary
/// targets by default (and CI serves under the canonical fault plan): both
/// task families, both frameworks, isotropic and anisotropic models.
pub fn default_endpoints() -> Vec<CellId> {
    [
        "table4/Cora/GCN/PyG",
        "table4/Cora/GAT/DGL",
        "table4/PubMed/SAGE/PyG",
        "table5/ENZYMES/GIN/DGL",
        "table5/ENZYMES/GatedGCN/PyG",
        "table5/DD/MoNet/DGL",
    ]
    .iter()
    .map(|p| CellId::parse(p).expect("default endpoints are valid cells"))
    .collect()
}

// ---------------------------------------------------------------------------
// 2. The recipe
// ---------------------------------------------------------------------------

/// Generates the citation dataset `name` at `scale`, or says the name is
/// not one of [`NODE_DATASETS`].
pub fn node_dataset(name: &str, scale: f64, seed: u64) -> Result<NodeDataset, CellError> {
    let spec = match name {
        "Cora" => CitationSpec::cora(),
        "PubMed" => CitationSpec::pubmed(),
        other => return Err(CellError::UnknownNodeDataset(other.to_owned())),
    };
    Ok(spec.scaled(scale).generate(seed))
}

/// Generates the graph-classification dataset `name` at `scale`, or says
/// the name is not one of [`GRAPH_DATASETS`].
pub fn graph_dataset(name: &str, scale: f64, seed: u64) -> Result<GraphDataset, CellError> {
    Ok(match name {
        "ENZYMES" => TudSpec::enzymes().scaled(scale).generate(seed),
        "DD" => TudSpec::dd().scaled(scale).generate(seed),
        // MNIST is 70k graphs; even "paper" runs subsample ten times harder.
        "MNIST" => SuperpixelSpec::mnist()
            .scaled((scale * 0.1).min(1.0))
            .generate(seed),
        other => return Err(CellError::UnknownGraphDataset(other.to_owned())),
    })
}

/// Folds of the paper's stratified cross-validation protocol.
pub const FOLDS: usize = 10;

/// The [`FOLDS`] stratified 8:1:1 folds every graph cell of `ds` trains on.
pub fn folds(ds: &GraphDataset, seed: u64) -> Vec<Fold> {
    stratified_kfold(&ds.labels(), FOLDS, seed)
}

/// The mini-batch size `model`'s graph cells run at: Table III's, clamped
/// against fold 0's training split so a reduced-scale dataset still yields
/// several batches per epoch.
pub fn graph_batch_size(model: ModelKind, folds: &[Fold]) -> usize {
    graph_hparams(model)
        .batch_size
        .min((folds[0].train.len() / 3).max(8))
}

/// The data one dataset's cells share. Every payload is reference-counted,
/// so a consumer generates it once per dataset and clones it into each
/// cell.
#[derive(Debug, Clone)]
pub enum CellData {
    /// A citation graph.
    Node(Rc<NodeDataset>),
    /// A graph-classification dataset and the base seed and [`folds`] its
    /// cells train under — computed when the first cell trains, never for
    /// serving, which has no use for splits and runs at scales too small to
    /// stratify.
    Graph(Rc<GraphDataset>, Rc<OnceCell<(u64, Vec<Fold>)>>),
    /// An RMAT graph with the spec (fan-outs and cache size possibly
    /// overridden) and sampler kind its blocks are drawn under.
    Sample(Rc<RmatGraph>, SampleSpec, SamplerKind),
}

impl CellData {
    /// Generates the data behind `task`'s dataset component `dataset`, or
    /// says which name is unknown. RMAT specs fix their own size and seed,
    /// so sampled cells train, serve and certify on the same graph whatever
    /// the run's `scale` and `seed`.
    pub fn generate(
        task: TaskKind,
        dataset: &str,
        scale: f64,
        seed: u64,
    ) -> Result<CellData, CellError> {
        Ok(match task {
            TaskKind::Node => CellData::Node(Rc::new(node_dataset(dataset, scale, seed)?)),
            TaskKind::Graph => {
                CellData::Graph(Rc::new(graph_dataset(dataset, scale, seed)?), Rc::default())
            }
            TaskKind::Sample => {
                let (spec, kind) = sample_dataset(dataset)
                    .ok_or_else(|| CellError::UnknownSampleDataset(dataset.to_owned()))?;
                let graph = RmatGraph::generate(spec.rmat).expect("catalog specs generate cleanly");
                CellData::Sample(Rc::new(graph), spec, kind)
            }
        })
    }

    /// The architecture seed of run `run` (seed index or fold index) under
    /// base seed `seed`; a checkpoint of that run restores into the
    /// bit-identical architecture built from the same seed.
    pub fn arch_seed(&self, seed: u64, run: usize) -> u64 {
        match self {
            CellData::Node(_) | CellData::Sample(..) => seed + 1 + run as u64,
            CellData::Graph(..) => seed + 10 + run as u64,
        }
    }

    /// The task of `model`'s run `run` on this data, from the
    /// hyper-parameter tables: Table II's learning rate for node and
    /// sampled cells (pools sized in batches of the spec's seed count),
    /// Table III's schedule at [`graph_batch_size`] on fold `run` for graph
    /// cells.
    pub fn task(&self, model: ModelKind, epochs: usize, seed: u64, run: usize) -> Task<'_> {
        match self {
            CellData::Node(_) => Task::Node(NodeTaskConfig {
                max_epochs: epochs,
                lr: node_hparams(model).lr,
            }),
            CellData::Graph(ds, split) => {
                let (split_seed, folds) = split.get_or_init(|| (seed, folds(ds, seed)));
                assert_eq!(*split_seed, seed, "one dataset's cells share a base seed");
                let mut cfg = GraphTaskConfig::from_hparams(&graph_hparams(model), epochs, seed);
                cfg.batch_size = graph_batch_size(model, folds);
                Task::Graph(cfg, &folds[run])
            }
            CellData::Sample(_, spec, _) => Task::Sampled(SampledTaskConfig {
                max_epochs: epochs,
                lr: node_hparams(model).lr,
                ..SampledTaskConfig::quick(spec.batch_seeds, seed)
            }),
        }
    }
}

/// One training run's configuration, by task.
#[derive(Debug, Clone)]
pub enum Task<'a> {
    /// Full-batch node classification.
    Node(NodeTaskConfig),
    /// Mini-batch graph classification on one fold.
    Graph(GraphTaskConfig, &'a Fold),
    /// Neighbor-sampled seed-node classification.
    Sampled(SampledTaskConfig),
}

/// What one training run of a cell yields, whatever its task.
#[derive(Debug, Clone)]
pub struct Trained {
    /// Test accuracy in percent (at the best-validation epoch for node and
    /// sampled cells, at the end of training for graph cells).
    pub test_acc: f64,
    /// Epochs trained.
    pub epochs: usize,
    /// Mean simulated seconds per epoch.
    pub epoch_time: f64,
    /// Total simulated training seconds.
    pub total_time: f64,
    /// Full device report.
    pub report: DeviceReport,
    /// End-of-run feature-cache hit rate of a sampled cell's loader; 0 for
    /// the classic cells, which have no cache.
    pub cache_hit_rate: f64,
}

/// Trains run `run` of `cell` on its dataset's `data` for `epochs` under
/// `sup` (whose loop's [`TrainError`] it returns): the architecture seeded
/// by [`CellData::arch_seed`], the task from [`CellData::task`]. Every
/// table, sweep and report trains a cell through here, so they differ in
/// their inputs and policy only.
pub fn train(
    cell: &CellId,
    data: &CellData,
    epochs: usize,
    seed: u64,
    run: usize,
    sup: &Supervisor,
) -> Result<Supervised<Trained>, TrainError> {
    let task = data.task(cell.model, epochs, seed, run);
    build(cell.framework, cell.model, data, data.arch_seed(seed, run)).train(&task, sup)
}

// ---------------------------------------------------------------------------
// 3. The framework match
// ---------------------------------------------------------------------------

type ModelFn<B> = fn(ModelKind, usize, usize, &mut StdRng) -> GnnStack<B>;
type SampledFn<S> = fn(Rc<RmatGraph>, &SampleSpec, SamplerKind) -> Result<S, SampleConfigError>;

/// One of the two frameworks as a type — a table of everything a cell's
/// `PyG` and `DGL` variants differ in: the batch its stacks run on and how
/// its models, full-graph batch and two loaders are made.
trait Framework: 'static {
    type Batch: ModelBatch;
    type Loader<'a>: Loader<Batch = Self::Batch>;
    type Sampled: SampledLoader<Batch = Self::Batch>;
    const NODE_MODEL: ModelFn<Self::Batch>;
    const GRAPH_MODEL: ModelFn<Self::Batch>;
    const FULL_GRAPH_BATCH: fn(&NodeDataset) -> Self::Batch;
    const SAMPLED_LOADER: SampledFn<Self::Sampled>;
    fn loader(ds: &GraphDataset) -> Self::Loader<'_>;
}

struct RustyG;
struct Rgl;

impl Framework for RustyG {
    type Batch = rustyg::Batch;
    type Loader<'a> = RustygLoader<'a>;
    type Sampled = rustyg::sampled::SampledLoader;
    const NODE_MODEL: ModelFn<Self::Batch> = models::node_model_rustyg;
    const GRAPH_MODEL: ModelFn<Self::Batch> = models::graph_model_rustyg;
    const FULL_GRAPH_BATCH: fn(&NodeDataset) -> Self::Batch = rustyg::loader::full_graph_batch;
    const SAMPLED_LOADER: SampledFn<Self::Sampled> = rustyg::sampled::SampledLoader::new;
    fn loader(ds: &GraphDataset) -> Self::Loader<'_> {
        RustygLoader::new(ds)
    }
}

impl Framework for Rgl {
    type Batch = rgl::HeteroBatch;
    type Loader<'a> = RglLoader<'a>;
    type Sampled = rgl::sampled::SampledLoader;
    const NODE_MODEL: ModelFn<Self::Batch> = models::node_model_rgl;
    const GRAPH_MODEL: ModelFn<Self::Batch> = models::graph_model_rgl;
    const FULL_GRAPH_BATCH: fn(&NodeDataset) -> Self::Batch = rgl::loader::full_graph_batch;
    const SAMPLED_LOADER: SampledFn<Self::Sampled> = rgl::sampled::SampledLoader::new;
    fn loader(ds: &GraphDataset) -> Self::Loader<'_> {
        RglLoader::new(ds)
    }
}

/// A built cell at its framework's types: a stack on its data.
struct BuiltOn<F: Framework> {
    stack: GnnStack<F::Batch>,
    data: DataOn<F>,
}

enum DataOn<F: Framework> {
    Node(Rc<NodeDataset>),
    Graph(Rc<GraphDataset>),
    Sample(F::Sampled),
}

impl<F: Framework> BuiltOn<F> {
    fn new(model: ModelKind, data: &CellData, arch_seed: u64) -> Self {
        let rng = &mut StdRng::seed_from_u64(arch_seed);
        match data {
            CellData::Node(ds) => BuiltOn {
                stack: (F::NODE_MODEL)(model, ds.features.cols(), ds.num_classes, rng),
                data: DataOn::Node(ds.clone()),
            },
            CellData::Graph(ds, _) => BuiltOn {
                stack: (F::GRAPH_MODEL)(model, ds.feature_dim, ds.num_classes, rng),
                data: DataOn::Graph(ds.clone()),
            },
            CellData::Sample(graph, spec, kind) => {
                let (f, c) = (spec.rmat.feature_dim, spec.rmat.num_classes);
                let loader = (F::SAMPLED_LOADER)(graph.clone(), spec, *kind)
                    .expect("sample specs are validated before their cells are built");
                BuiltOn {
                    stack: (F::NODE_MODEL)(model, f, c, rng),
                    data: DataOn::Sample(loader),
                }
            }
        }
    }
}

/// A built cell with its framework erased: a stack on its data.
pub trait Built {
    /// Trains the stack on `task` under `sup`, whose loop's [`TrainError`]
    /// it returns. Panics if `task` is not of the cell's task kind.
    fn train(&self, task: &Task<'_>, sup: &Supervisor) -> Result<Supervised<Trained>, TrainError>;

    /// The eval-mode logits of one served batch: the full-graph forward for
    /// a node cell (`targets` select rows afterwards), the collated graphs
    /// `targets` for a graph cell, the union block of seed nodes `targets`
    /// sampled under `salt` for a sampled cell (seeds first in its rows).
    /// The caller chooses inference mode.
    fn forward(&self, targets: &[u32], salt: u64) -> Tensor;

    /// Pours a checkpoint's parameters and batch-norm statistics into the
    /// stack (see [`Checkpoint::load_params`]).
    fn restore(&self, ckpt: &Checkpoint);
}

impl<F: Framework> Built for BuiltOn<F> {
    fn train(&self, task: &Task<'_>, sup: &Supervisor) -> Result<Supervised<Trained>, TrainError> {
        let stack = &self.stack;
        let node = |o: crate::NodeOutcome, cache_hit_rate| Trained {
            test_acc: o.test_acc,
            epochs: o.epochs,
            epoch_time: o.epoch_time,
            total_time: o.total_time,
            report: o.report,
            cache_hit_rate,
        };
        Ok(match (&self.data, task) {
            (DataOn::Node(ds), Task::Node(cfg)) => {
                let batch = (F::FULL_GRAPH_BATCH)(ds);
                run_node_task_supervised(stack, &batch, ds, cfg, sup)?.map(|o| node(o, 0.0))
            }
            (DataOn::Graph(ds), Task::Graph(cfg, fold)) => {
                run_graph_fold_supervised(stack, &F::loader(ds), fold, cfg, sup)?.map(|o| Trained {
                    test_acc: o.test_acc,
                    epochs: o.epochs,
                    epoch_time: o.epoch_time,
                    total_time: o.total_time,
                    report: o.report,
                    cache_hit_rate: 0.0,
                })
            }
            (DataOn::Sample(loader), Task::Sampled(cfg)) => {
                run_sampled_task_supervised(stack, loader, cfg, sup)?
                    .map(|o| node(o, loader.cache_hit_rate()))
            }
            _ => panic!("{task:?} is not a task of this cell's kind"),
        })
    }

    fn forward(&self, targets: &[u32], salt: u64) -> Tensor {
        match &self.data {
            DataOn::Node(ds) => self.stack.forward(&(F::FULL_GRAPH_BATCH)(ds), false),
            DataOn::Graph(ds) => self.stack.forward(&F::loader(ds).load(targets), false),
            DataOn::Sample(loader) => self.stack.forward(&loader.load(targets, salt), false),
        }
    }

    fn restore(&self, ckpt: &Checkpoint) {
        ckpt.load_params(&self.stack.params(), &self.stack.norm_layers());
    }
}

/// Builds `model` under `framework` on `data`, its parameters drawn from
/// `arch_seed`; a sampled cell gets a fresh loader with a cold feature
/// cache. Panics on a degenerate sample spec: callers validate specs first.
pub fn build(
    framework: FrameworkKind,
    model: ModelKind,
    data: &CellData,
    arch_seed: u64,
) -> Box<dyn Built> {
    match framework {
        FrameworkKind::RustyG => Box::new(BuiltOn::<RustyG>::new(model, data, arch_seed)),
        FrameworkKind::Rgl => Box::new(BuiltOn::<Rgl>::new(model, data, arch_seed)),
    }
}

/// Builds `model`'s graph-classification stack under `framework` from
/// `arch_seed`, as [`build`] would, and runs `job` on it and `ds`'s
/// mini-batch loader at their real types — the hand-off for code that must
/// stay generic over the loader.
pub fn with_graph_stack<J: GraphJob>(
    framework: FrameworkKind,
    model: ModelKind,
    ds: &GraphDataset,
    arch_seed: u64,
    job: J,
) -> J::Out {
    fn run<F: Framework, J: GraphJob>(
        model: ModelKind,
        ds: &GraphDataset,
        seed: u64,
        job: J,
    ) -> J::Out {
        let rng = &mut StdRng::seed_from_u64(seed);
        let stack = (F::GRAPH_MODEL)(model, ds.feature_dim, ds.num_classes, rng);
        job.run(&stack, &F::loader(ds))
    }
    match framework {
        FrameworkKind::RustyG => run::<RustyG, J>(model, ds, arch_seed, job),
        FrameworkKind::Rgl => run::<Rgl, J>(model, ds, arch_seed, job),
    }
}

/// A computation generic over the framework's loader, for
/// [`with_graph_stack`].
pub trait GraphJob {
    /// What the computation yields.
    type Out;
    /// Runs it on `stack` and `loader`.
    fn run<L: Loader>(self, stack: &GnnStack<L::Batch>, loader: &L) -> Self::Out;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_round_trip_for_all_sixty_cells() {
        let cells = CellId::all();
        assert_eq!(cells.len(), 60);
        for cell in &cells {
            let parsed = CellId::parse(&cell.path()).unwrap();
            assert_eq!(&parsed, cell);
        }
    }

    #[test]
    fn ckpt_file_matches_sweep_convention() {
        let cell = CellId::parse("table4/Cora/GCN/PyG").unwrap();
        assert_eq!(cell.ckpt_file(0), "table4_Cora_GCN_PyG_0.ckpt");
        let cell = CellId::parse("table5/ENZYMES/GatedGCN/DGL").unwrap();
        assert_eq!(cell.ckpt_file(3), "table5_ENZYMES_GatedGCN_DGL_3.ckpt");
    }

    #[test]
    fn parse_rejects_unknown_components() {
        assert!(CellId::parse("table4/Cora/GCN").is_err());
        assert!(CellId::parse("table6/Cora/GCN/PyG").is_err());
        assert!(CellId::parse("table4/ENZYMES/GCN/PyG")
            .unwrap_err()
            .to_string()
            .contains("dataset"));
        assert!(CellId::parse("table4/Cora/VGG/PyG")
            .unwrap_err()
            .to_string()
            .contains("model"));
        assert!(CellId::parse("table4/Cora/GCN/TF")
            .unwrap_err()
            .to_string()
            .contains("framework"));
    }

    #[test]
    fn sample_cells_parse_but_stay_out_of_the_classic_grid() {
        let cell = CellId::parse("sample/rmat-1m-neighbor/SAGE/PyG").unwrap();
        assert_eq!(cell.task, TaskKind::Sample);
        assert_eq!(cell.dataset, "rmat-1m-neighbor");
        assert_eq!(cell.path(), "sample/rmat-1m-neighbor/SAGE/PyG");
        assert_eq!(cell.ckpt_file(0), "sample_rmat-1m-neighbor_SAGE_PyG_0.ckpt");
        let (spec, kind) = sample_dataset("rmat-1m-neighbor").unwrap();
        assert_eq!(spec.name, "rmat-1m");
        assert_eq!(kind.label(), "neighbor");
        assert!(sample_dataset("rmat-1m").is_none(), "sampler kind required");
        assert!(sample_dataset("rmat-9z-layerwise").is_none());
        assert!(CellId::parse("sample/rmat-1m/SAGE/PyG")
            .unwrap_err()
            .to_string()
            .contains("dataset"));
        assert!(!CellId::all().iter().any(|c| c.task == TaskKind::Sample));
    }

    #[test]
    fn default_endpoints_cover_both_tasks_and_frameworks() {
        let eps = default_endpoints();
        assert!(eps.len() >= 6);
        assert!(eps.iter().any(|c| c.task == TaskKind::Node));
        assert!(eps.iter().any(|c| c.task == TaskKind::Graph));
        assert!(eps.iter().any(|c| c.framework == FrameworkKind::RustyG));
        assert!(eps.iter().any(|c| c.framework == FrameworkKind::Rgl));
    }

    #[test]
    fn sample_grid_cells_parse_and_name_their_sampler() {
        let cells = CellId::sample_grid("rmat-4k");
        assert_eq!(cells.len(), 4, "2 sampler kinds x 2 frameworks");
        for (kind, cell) in &cells {
            assert_eq!(&CellId::parse(&cell.path()).unwrap(), cell);
            assert_eq!(sample_dataset(&cell.dataset).unwrap().1, *kind);
        }
    }

    #[test]
    #[should_panic(expected = "not a task of this cell's kind")]
    fn a_task_of_the_wrong_kind_is_a_caller_bug() {
        let data = CellData::generate(TaskKind::Node, "Cora", 0.05, 0).unwrap();
        let graph = CellData::generate(TaskKind::Graph, "ENZYMES", 0.05, 0).unwrap();
        let task = graph.task(ModelKind::Gcn, 1, 0, 0);
        let built = build(FrameworkKind::RustyG, ModelKind::Gcn, &data, 1);
        let _ = built.train(&task, &Supervisor::default());
    }
}
