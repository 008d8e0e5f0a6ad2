//! Neighbor-sampled node classification over giant synthetic graphs.
//!
//! The full-batch node loop (`node_task`) holds the whole graph on device;
//! this loop holds *nothing* but the feature cache. Every step draws a
//! mini-batch of seed nodes from a deterministic pool, asks the
//! framework's sampled loader for the union block (paying that framework's
//! sampling/collate/transfer tax), and takes the loss on the seed rows
//! only — the GraphSAGE training recipe.
//!
//! The loop is generic over [`SampledLoader`], implemented by
//! `rustyg::sampled::SampledLoader` and `rgl::sampled::SampledLoader`, so
//! the same code runs the paper-style controlled comparison on the
//! sampled workload class.
//!
//! There is one loop, [`run_sampled_task_supervised`]; retry, seed-batch
//! halving, NaN roll-back, checkpoint/resume and the per-epoch bookkeeping
//! come from [`crate::supervisor`], and [`run_sampled_task`] is the same
//! loop under the default policy. Each block's device memory is released
//! when its step commits, so the peak does not grow with the number of
//! batches per epoch.

use gnn_device::Phase;
use gnn_models::{GnnStack, ModelBatch};
use gnn_tensor::{accuracy, cross_entropy};
use std::rc::Rc;

use crate::node_task::{node_outcome, NodeOutcome};
use crate::optim::Adam;
use crate::supervisor::{in_session, Run, Setup, Supervised, Supervisor, TrainError};

/// Salt separating the train/val/test seed pools of a sampled run.
pub const TRAIN_POOL_SALT: u64 = 0x7A1;
/// Validation-pool salt.
pub const VAL_POOL_SALT: u64 = 0x7A2;
/// Test-pool salt.
pub const TEST_POOL_SALT: u64 = 0x7A3;
/// Salt offset separating evaluation sampling from training sampling.
pub const EVAL_SALT: u64 = 1 << 32;

/// A framework-specific sampled-block loader the training loop can drive.
///
/// `load` takes seed node ids (all below [`SampledLoader::graph_nodes`])
/// and a salt, and must be *replayable*: the same `(seeds, salt)` yields a
/// bit-identical batch, so fault-retried steps and resumed runs recompute
/// the identical block.
pub trait SampledLoader {
    /// The framework's batch type.
    type Batch: ModelBatch;
    /// Loads the sampled union block for `seeds`. Seeds come first in the
    /// batch's node order; labels cover every union node.
    fn load(&self, seeds: &[u32], salt: u64) -> Self::Batch;
    /// Node count of the underlying graph.
    fn graph_nodes(&self) -> usize;
    /// Deterministic pool of `count` distinct seed nodes for `salt`.
    fn seed_pool(&self, count: usize, salt: u64) -> Vec<u32>;
    /// Bytes held resident on device across the run (the feature cache).
    fn resident_bytes(&self) -> u64;
    /// Stable name for traces (`<spec>/<sampler-kind>`).
    fn label(&self) -> String;
    /// Lifetime hit rate of the loader's feature cache, in `[0, 1]`.
    fn cache_hit_rate(&self) -> f64;
}

impl SampledLoader for rustyg::sampled::SampledLoader {
    type Batch = rustyg::Batch;

    fn load(&self, seeds: &[u32], salt: u64) -> rustyg::Batch {
        self.try_load_block(seeds, salt)
            .expect("training seeds come from the loader's own pool")
    }

    fn graph_nodes(&self) -> usize {
        self.graph().num_nodes()
    }

    fn seed_pool(&self, count: usize, salt: u64) -> Vec<u32> {
        self.graph().seed_pool(count, salt)
    }

    fn resident_bytes(&self) -> u64 {
        self.spec().cache_rows as u64 * self.spec().row_bytes()
    }

    fn label(&self) -> String {
        format!("{}/{}", self.spec().name, self.kind().label())
    }

    fn cache_hit_rate(&self) -> f64 {
        rustyg::sampled::SampledLoader::cache_hit_rate(self)
    }
}

impl SampledLoader for rgl::sampled::SampledLoader {
    type Batch = rgl::HeteroBatch;

    fn load(&self, seeds: &[u32], salt: u64) -> rgl::HeteroBatch {
        self.try_load_block(seeds, salt)
            .expect("training seeds come from the loader's own pool")
    }

    fn graph_nodes(&self) -> usize {
        self.graph().num_nodes()
    }

    fn seed_pool(&self, count: usize, salt: u64) -> Vec<u32> {
        self.graph().seed_pool(count, salt)
    }

    fn resident_bytes(&self) -> u64 {
        self.spec().cache_rows as u64 * self.spec().row_bytes()
    }

    fn label(&self) -> String {
        format!("{}/{}", self.spec().name, self.kind().label())
    }

    fn cache_hit_rate(&self) -> f64 {
        rgl::sampled::SampledLoader::cache_hit_rate(self)
    }
}

/// Sampled-training run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledTaskConfig {
    /// Training epochs (one epoch = one pass over the seed pool).
    pub max_epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed nodes per mini-batch.
    pub batch_seeds: usize,
    /// Training-pool size in seed nodes.
    pub train_seeds: usize,
    /// Validation/test-pool size in seed nodes.
    pub eval_seeds: usize,
    /// Shuffle seed for the per-epoch pool order.
    pub seed: u64,
}

impl SampledTaskConfig {
    /// A small default sized for sweep cells: pools are a few batches.
    pub fn quick(batch_seeds: usize, seed: u64) -> Self {
        SampledTaskConfig {
            max_epochs: 3,
            lr: 0.01,
            batch_seeds,
            train_seeds: batch_seeds * 4,
            eval_seeds: batch_seeds,
            seed,
        }
    }
}

/// Evaluates accuracy over the seed rows of `pool`, in batches.
fn eval_sampled<L: SampledLoader>(
    model: &GnnStack<L::Batch>,
    loader: &L,
    pool: &[u32],
    batch_seeds: usize,
    salt: u64,
) -> f64 {
    let mut correct_weighted = 0.0f64;
    let mut total = 0usize;
    for chunk in pool.chunks(batch_seeds) {
        let batch = loader.load(chunk, salt);
        let logits = gnn_tensor::no_grad(|| model.forward(&batch, false));
        let ids: gnn_tensor::Ids = Rc::new((0..chunk.len() as u32).collect());
        let labels = &batch.labels()[..chunk.len()];
        correct_weighted += accuracy(&logits.gather_rows(&ids), labels) * chunk.len() as f64;
        total += chunk.len();
    }
    if total == 0 {
        0.0
    } else {
        correct_weighted / total as f64
    }
}

/// Trains `model` by neighbor-sampled mini-batches and reports the same
/// quantities as the full-batch node task: [`run_sampled_task_supervised`]
/// under `Supervisor::default()`.
///
/// # Panics
///
/// Panics if the config is degenerate (zero pools or batch), and with the
/// [`TrainError`] if a fault armed around the call outlasts the default
/// retry budget and the seed-halving ladder.
pub fn run_sampled_task<L: SampledLoader>(
    model: &GnnStack<L::Batch>,
    loader: &L,
    cfg: &SampledTaskConfig,
) -> NodeOutcome {
    run_sampled_task_supervised(model, loader, cfg, &Supervisor::default())
        .unwrap_or_else(|e| panic!("{e}"))
        .outcome
}

/// Neighbor-sampled node classification under a [`Supervisor`] policy: the
/// giant-graph loop with typed errors, retry, seed-minibatch halving on
/// persistent OOM, NaN rollback, and checkpoint/resume.
///
/// Sampling is a pure function of `(seeds, epoch)`, so a retried or resumed
/// step replays the identical block.
///
/// # Errors
///
/// Returns a [`TrainError`] on faults that survive retry and degradation,
/// diverged losses, or checkpoint IO failures.
///
/// # Panics
///
/// Panics on caller bugs (zero batch or pool sizes).
pub fn run_sampled_task_supervised<L: SampledLoader>(
    model: &GnnStack<L::Batch>,
    loader: &L,
    cfg: &SampledTaskConfig,
    sup: &Supervisor,
) -> Result<Supervised<NodeOutcome>, TrainError> {
    assert!(cfg.batch_seeds > 0, "batch seeds must be positive");
    assert!(cfg.train_seeds > 0, "train pool must be non-empty");

    let (run, report) = in_session(|| {
        gnn_device::with(|s| {
            s.alloc_persistent(2 * model.param_bytes() + loader.resident_bytes());
        });
        let opt = Adam::new(model.params(), cfg.lr);
        let setup = Setup {
            name: format!("sample/{}/{}", model.name(), loader.label()),
            order: loader.seed_pool(cfg.train_seeds, TRAIN_POOL_SALT),
            seed: Some(cfg.seed),
            shuffle: true,
            batch: cfg.batch_seeds,
            ..Setup::default()
        };
        let val_pool = loader.seed_pool(cfg.eval_seeds, VAL_POOL_SALT);
        let test_pool = loader.seed_pool(cfg.eval_seeds, TEST_POOL_SALT);

        let mut run = Run::start(model, opt, setup, sup)?;
        while run.epoch < cfg.max_epochs as u64 {
            let epoch = run.begin_epoch();
            let trained = run.train_epoch("seed batch", "1 seed per batch", |chunk| {
                gnn_device::set_phase(Phase::DataLoad);
                let batch = loader.load(chunk, epoch);
                gnn_device::set_phase(Phase::Forward);
                let logits = model.forward(&batch, true);
                let ids: gnn_tensor::Ids = Rc::new((0..chunk.len() as u32).collect());
                let labels: Vec<u32> = batch.labels()[..chunk.len()].to_vec();
                let loss = cross_entropy(&logits.gather_rows(&ids), &labels);
                gnn_device::set_phase(Phase::Backward);
                loss.backward();
                loss
            })?;
            let Some(last_loss) = trained else {
                continue;
            };

            gnn_device::set_phase(Phase::Other);
            let batch = run.batch;
            let eval = |run: &mut Run<'_>, pool: &[u32]| {
                run.eval(|| eval_sampled(model, loader, pool, batch, EVAL_SALT + epoch) * 100.0)
            };
            let val_acc = eval(&mut run, &val_pool)?;
            if val_acc > run.best_val {
                run.best_val = val_acc;
                run.test_at_best = eval(&mut run, &test_pool)?;
            }
            gnn_device::with(|s| s.end_step());
            run.end_epoch(last_loss, val_acc / 100.0)?;
        }
        Ok(run)
    })?;
    Ok(node_outcome(run, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_models::{build, ModelKind};
    use gnn_sample::{RmatGraph, SampleSpec, SamplerKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::rc::Rc as StdRc;

    fn fixture() -> (
        GnnStack<rustyg::Batch>,
        rustyg::sampled::SampledLoader,
        SampledTaskConfig,
    ) {
        let spec = SampleSpec::get("rmat-4k").unwrap();
        let graph = StdRc::new(RmatGraph::generate(spec.rmat).unwrap());
        let loader =
            rustyg::sampled::SampledLoader::new(graph, &spec, SamplerKind::Neighbor).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let model = build::node_model_rustyg(
            ModelKind::Sage,
            spec.rmat.feature_dim,
            spec.rmat.num_classes,
            &mut rng,
        );
        (model, loader, SampledTaskConfig::quick(32, 5))
    }

    #[test]
    fn sampled_training_runs_and_reports() {
        let (model, loader, cfg) = fixture();
        let out = run_sampled_task(&model, &loader, &cfg);
        assert_eq!(out.epochs, 3);
        assert!(out.total_time > 0.0);
        assert!(out.report.kernel_count > 0);
        assert!(out.best_val_acc >= 0.0 && out.best_val_acc <= 100.0);
        // DataLoad phase is charged (the sampled loaders' collate path).
        assert!(out.report.phase_time(gnn_device::Phase::DataLoad) > 0.0);
    }

    #[test]
    fn sampled_training_is_deterministic() {
        let run = || {
            let (model, loader, cfg) = fixture();
            let out = run_sampled_task(&model, &loader, &cfg);
            (
                out.best_val_acc.to_bits(),
                out.test_acc.to_bits(),
                out.total_time.to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sampled_labels_are_learnable() {
        // With class-biased features, even a short run should beat chance
        // (12.5% over 8 classes) on validation seeds.
        let (model, loader, mut cfg) = fixture();
        cfg.max_epochs = 6;
        cfg.train_seeds = 256;
        let out = run_sampled_task(&model, &loader, &cfg);
        assert!(
            out.best_val_acc > 12.5,
            "best val {} should beat chance",
            out.best_val_acc
        );
    }
}
