//! Mini-batch graph classification (the paper's Section IV-B protocol).
//!
//! One loop, [`run_graph_fold_supervised`]: a step is one collated chunk of
//! the (reshuffled) training fold, every epoch ends with a validation pass
//! that feeds the plateau scheduler, training stops at the learning-rate
//! floor, and the test fold is evaluated once at the end. Retry, batch
//! halving, NaN roll-back, checkpoint/resume and the per-epoch bookkeeping
//! come from [`crate::supervisor`]; [`run_graph_fold`] (and through it
//! [`run_cross_validation`]) is the same loop under the default policy.

use gnn_datasets::Fold;
use gnn_device::{DeviceReport, Phase};
use gnn_models::{GnnStack, GraphHParams, Loader, ModelBatch};
use gnn_tensor::{accuracy, cross_entropy};
#[cfg(test)]
use rand::{rngs::StdRng, SeedableRng};

use crate::optim::Adam;
use crate::scheduler::ReduceLrOnPlateau;
use crate::supervisor::{in_session, Run, Setup, Supervised, Supervisor, TrainError};

/// Graph-classification run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphTaskConfig {
    /// Mini-batch size (the paper uses 128).
    pub batch_size: usize,
    /// Initial Adam learning rate (Table III).
    pub init_lr: f32,
    /// Plateau patience in epochs.
    pub patience: usize,
    /// Decay factor on plateau.
    pub decay_factor: f32,
    /// Stop once the lr decays to this value.
    pub min_lr: f32,
    /// Hard epoch cap (the paper trains until lr hits the floor; laptop
    /// runs cap it).
    pub max_epochs: usize,
    /// Shuffle seed.
    pub seed: u64,
    /// Reshuffle the training set every epoch. Pre-batched pipelines (see
    /// `rustyg::CachedLoader`) fix the batch composition instead.
    pub shuffle: bool,
}

impl GraphTaskConfig {
    /// Builds a config from Table III hyper-parameters with an epoch cap.
    pub fn from_hparams(hp: &GraphHParams, max_epochs: usize, seed: u64) -> Self {
        GraphTaskConfig {
            batch_size: hp.batch_size,
            init_lr: hp.init_lr,
            patience: hp.patience,
            decay_factor: hp.decay_factor,
            min_lr: hp.min_lr,
            max_epochs,
            seed,
            shuffle: true,
        }
    }
}

/// Result of training on one cross-validation fold.
#[derive(Debug, Clone)]
pub struct FoldOutcome {
    /// Test accuracy at the end of training, in percent.
    pub test_acc: f64,
    /// Epochs trained before the lr floor / cap.
    pub epochs: usize,
    /// Mean simulated seconds per epoch (training + validation).
    pub epoch_time: f64,
    /// Total simulated seconds.
    pub total_time: f64,
    /// Full device report.
    pub report: DeviceReport,
}

/// Trains `model` on `fold.train`, schedules on `fold.val`, and evaluates
/// on `fold.test` — one fold of the paper's 10-fold protocol:
/// [`run_graph_fold_supervised`] under `Supervisor::default()`.
///
/// # Panics
///
/// Panics if the fold's training split is empty or the batch size is zero,
/// and with the [`TrainError`] if a fault armed around the call outlasts
/// the default retry budget and the batch-halving ladder.
pub fn run_graph_fold<L: Loader>(
    model: &GnnStack<L::Batch>,
    loader: &L,
    fold: &Fold,
    cfg: &GraphTaskConfig,
) -> FoldOutcome {
    run_graph_fold_supervised(model, loader, fold, cfg, &Supervisor::default())
        .unwrap_or_else(|e| panic!("{e}"))
        .outcome
}

/// Mini-batch graph classification under a [`Supervisor`] policy: the
/// Section IV-B fold loop with typed errors, retry, batch-halving OOM
/// degradation, NaN rollback, and checkpoint/resume.
///
/// # Errors
///
/// Returns a [`TrainError`] on faults that survive retry and degradation,
/// diverged losses, or checkpoint IO failures.
///
/// # Panics
///
/// Panics on caller bugs (empty fold, zero batch size).
pub fn run_graph_fold_supervised<L: Loader>(
    model: &GnnStack<L::Batch>,
    loader: &L,
    fold: &Fold,
    cfg: &GraphTaskConfig,
    sup: &Supervisor,
) -> Result<Supervised<FoldOutcome>, TrainError> {
    assert!(!fold.train.is_empty(), "empty training fold");
    assert!(cfg.batch_size > 0, "batch size must be positive");

    let ((run, test_acc), report) = in_session(|| {
        gnn_device::with(|s| s.alloc_persistent(2 * model.param_bytes()));
        let opt = Adam::new(model.params(), cfg.init_lr);
        let setup = Setup {
            name: format!("graph/{}/bs{}", model.name(), cfg.batch_size),
            sched: Some(ReduceLrOnPlateau::new(
                cfg.decay_factor,
                cfg.patience,
                cfg.min_lr,
            )),
            order: fold.train.clone(),
            seed: Some(cfg.seed),
            shuffle: cfg.shuffle,
            batch: cfg.batch_size,
        };
        let mut run = Run::start(model, opt, setup, sup)?;
        while run.epoch < cfg.max_epochs as u64 {
            // A resumed fold whose checkpoint was taken at the lr floor must
            // not train further (fresh runs always get their first epoch:
            // the floor is checked after an epoch, not before).
            if run.epoch > 0 && at_lr_floor(&run) {
                break;
            }
            run.begin_epoch();
            let trained = run.train_epoch("batch size", "batch size 1", |chunk| {
                gnn_device::set_phase(Phase::DataLoad);
                let batch = loader.load(chunk);
                gnn_device::set_phase(Phase::Forward);
                let logits = model.forward(&batch, true);
                let loss = cross_entropy(&logits, batch.labels());
                gnn_device::set_phase(Phase::Backward);
                loss.backward();
                loss
            })?;
            if trained.is_none() {
                continue;
            }

            // Validation pass (inference mode, attributed to "other").
            let batch = run.batch;
            let (val_loss, val_acc) = run.eval(|| evaluate(model, loader, &fold.val, batch))?;
            if let Some(sched) = run.sched.as_mut() {
                let new_lr = sched.step(val_loss, run.opt.lr());
                if new_lr != run.opt.lr() {
                    run.opt.set_lr(new_lr);
                }
            }
            run.end_epoch(val_loss, val_acc)?;
            if at_lr_floor(&run) {
                break;
            }
        }

        // Final test evaluation ("the model parameters at the end of training
        // are used for evaluations on test sets").
        let batch = run.batch;
        let (_, test_acc) = run.eval(|| evaluate(model, loader, &fold.test, batch))?;
        Ok((run, test_acc))
    })?;
    let (epochs, epoch_time, total_time) = run.timing();
    Ok(run.finish(FoldOutcome {
        test_acc: test_acc * 100.0,
        epochs,
        epoch_time,
        total_time,
        report,
    }))
}

/// Whether the plateau scheduler has decayed the learning rate to its floor.
fn at_lr_floor(run: &Run<'_>) -> bool {
    run.sched
        .as_ref()
        .is_some_and(|s| s.should_stop(run.opt.lr()))
}

/// Mean loss and accuracy over `indices`, batched, in inference mode.
pub fn evaluate<L: Loader>(
    model: &GnnStack<L::Batch>,
    loader: &L,
    indices: &[u32],
    batch_size: usize,
) -> (f32, f64) {
    if indices.is_empty() {
        return (f32::INFINITY, 0.0);
    }
    let mut total_loss = 0.0f64;
    let mut total_correct = 0.0f64;
    let mut total = 0usize;
    for chunk in indices.chunks(batch_size) {
        let batch = loader.load(chunk);
        // Inference mode: no tape, like torch.no_grad() around validation.
        let logits = gnn_tensor::no_grad(|| model.forward(&batch, false));
        let loss = cross_entropy(&logits, batch.labels());
        total_loss += f64::from(loss.item()) * chunk.len() as f64;
        total_correct += accuracy(&logits, batch.labels()) * chunk.len() as f64;
        total += chunk.len();
        gnn_device::with(|s| s.end_step());
    }
    (
        (total_loss / total as f64) as f32,
        total_correct / total as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_datasets::{stratified_kfold, TudSpec};
    use gnn_models::adapt::{RglLoader, RustygLoader};
    use gnn_models::{build, ModelKind};

    fn quick_cfg(max_epochs: usize) -> GraphTaskConfig {
        GraphTaskConfig {
            batch_size: 32,
            init_lr: 1e-3,
            patience: 5,
            decay_factor: 0.5,
            min_lr: 1e-6,
            max_epochs,
            seed: 0,
            shuffle: true,
        }
    }

    #[test]
    fn gcn_learns_enzymes_fold() {
        let ds = TudSpec::enzymes().scaled(0.3).generate(0);
        let folds = stratified_kfold(&ds.labels(), 10, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let model = build::graph_model_rustyg(ModelKind::Gcn, 18, 6, &mut rng);
        let loader = RustygLoader::new(&ds);
        let out = run_graph_fold(&model, &loader, &folds[0], &quick_cfg(8));
        assert!(out.epochs > 0 && out.epochs <= 8);
        assert!(
            out.test_acc > 25.0,
            "GCN should beat 6-class chance (16.7%), got {}",
            out.test_acc
        );
        assert!(out.report.phase_time(Phase::DataLoad) > 0.0);
    }

    #[test]
    fn dgl_epoch_slower_than_pyg_same_model() {
        // The paper's headline: training-time performance of DGL is worse.
        let ds = TudSpec::enzymes().scaled(0.2).generate(1);
        let folds = stratified_kfold(&ds.labels(), 10, 1);
        let cfg = quick_cfg(2);

        let mut rng = StdRng::seed_from_u64(1);
        let pyg_model = build::graph_model_rustyg(ModelKind::Gcn, 18, 6, &mut rng);
        let pyg_loader = RustygLoader::new(&ds);
        let pyg = run_graph_fold(&pyg_model, &pyg_loader, &folds[0], &cfg);

        let mut rng = StdRng::seed_from_u64(1);
        let dgl_model = build::graph_model_rgl(ModelKind::Gcn, 18, 6, &mut rng);
        let dgl_loader = RglLoader::new(&ds);
        let dgl = run_graph_fold(&dgl_model, &dgl_loader, &folds[0], &cfg);

        assert!(
            dgl.epoch_time > pyg.epoch_time,
            "DGL epoch {} must exceed PyG epoch {}",
            dgl.epoch_time,
            pyg.epoch_time
        );
    }

    #[test]
    fn lr_floor_stops_training_early() {
        let ds = TudSpec::enzymes().scaled(0.2).generate(2);
        let folds = stratified_kfold(&ds.labels(), 10, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let model = build::graph_model_rustyg(ModelKind::Gcn, 18, 6, &mut rng);
        let loader = RustygLoader::new(&ds);
        // Initial lr already at the floor: the run must stop after the
        // first epoch regardless of the validation trajectory.
        let cfg = GraphTaskConfig {
            batch_size: 32,
            init_lr: 1e-4,
            patience: 0,
            decay_factor: 0.5,
            min_lr: 1e-4,
            max_epochs: 50,
            seed: 2,
            shuffle: true,
        };
        let out = run_graph_fold(&model, &loader, &folds[0], &cfg);
        assert_eq!(out.epochs, 1, "lr floor must stop training immediately");
    }
}

/// Result of a full cross-validation run.
#[derive(Debug, Clone)]
pub struct CvOutcome {
    /// Per-fold outcomes, in fold order.
    pub folds: Vec<FoldOutcome>,
    /// Test accuracy mean ± s.d. over folds, percent.
    pub accuracy: crate::metrics::Summary,
    /// Mean simulated seconds per epoch over folds.
    pub epoch_time: f64,
    /// Mean simulated total seconds over folds.
    pub total_time: f64,
}

/// Runs the paper's full cross-validation protocol: a fresh model per fold
/// (from `make_model`), trained with `cfg`, aggregated as mean ± s.d. —
/// "the reported performance is the average and standard deviation over all
/// the 10 folds" (Section IV-B).
///
/// # Panics
///
/// Panics if `folds` is empty.
pub fn run_cross_validation<L: Loader>(
    make_model: impl Fn(usize) -> GnnStack<L::Batch>,
    loader: &L,
    folds: &[Fold],
    cfg: &GraphTaskConfig,
) -> CvOutcome {
    assert!(!folds.is_empty(), "need at least one fold");
    let outcomes: Vec<FoldOutcome> = folds
        .iter()
        .enumerate()
        .map(|(i, fold)| {
            let model = make_model(i);
            run_graph_fold(&model, loader, fold, cfg)
        })
        .collect();
    let accs: Vec<f64> = outcomes.iter().map(|o| o.test_acc).collect();
    let epochs: Vec<f64> = outcomes.iter().map(|o| o.epoch_time).collect();
    let totals: Vec<f64> = outcomes.iter().map(|o| o.total_time).collect();
    CvOutcome {
        accuracy: crate::metrics::mean_std(&accs),
        epoch_time: crate::metrics::mean_std(&epochs).mean,
        total_time: crate::metrics::mean_std(&totals).mean,
        folds: outcomes,
    }
}

#[cfg(test)]
mod cv_tests {
    use super::*;
    use gnn_datasets::{stratified_kfold, TudSpec};
    use gnn_models::adapt::RustygLoader;
    use gnn_models::{build, ModelKind};

    #[test]
    fn cross_validation_aggregates() {
        let ds = TudSpec::enzymes().scaled(0.15).generate(4);
        let folds = stratified_kfold(&ds.labels(), 10, 4);
        let loader = RustygLoader::new(&ds);
        let cfg = GraphTaskConfig {
            batch_size: 16,
            init_lr: 1e-3,
            patience: 100,
            decay_factor: 0.5,
            min_lr: 1e-9,
            max_epochs: 2,
            seed: 4,
            shuffle: true,
        };
        let cv = run_cross_validation(
            |i| {
                let mut rng = StdRng::seed_from_u64(40 + i as u64);
                build::graph_model_rustyg(ModelKind::Gcn, 18, 6, &mut rng)
            },
            &loader,
            &folds[..2],
            &cfg,
        );
        assert_eq!(cv.folds.len(), 2);
        assert!(cv.epoch_time > 0.0);
        assert!(cv.accuracy.std >= 0.0);
        let manual: Vec<f64> = cv.folds.iter().map(|f| f.test_acc).collect();
        assert_eq!(cv.accuracy.mean, crate::metrics::mean_std(&manual).mean);
    }

    #[test]
    #[should_panic(expected = "at least one fold")]
    fn empty_folds_rejected() {
        let ds = TudSpec::enzymes().scaled(0.1).generate(5);
        let loader = RustygLoader::new(&ds);
        let cfg = GraphTaskConfig {
            batch_size: 8,
            init_lr: 1e-3,
            patience: 1,
            decay_factor: 0.5,
            min_lr: 1e-6,
            max_epochs: 1,
            seed: 0,
            shuffle: true,
        };
        run_cross_validation(
            |_| {
                let mut rng = StdRng::seed_from_u64(0);
                build::graph_model_rustyg(ModelKind::Gcn, 18, 6, &mut rng)
            },
            &loader,
            &[],
            &cfg,
        );
    }
}
