//! Full-batch node classification (the paper's Section IV-A protocol).
//!
//! One loop, [`run_node_task_supervised`]: a step is the whole graph, the
//! loss is taken on the training rows, and every epoch evaluates the
//! validation and test rows of one inference forward. Retry, NaN roll-back,
//! checkpoint/resume and the per-epoch bookkeeping come from
//! [`crate::supervisor`]; [`run_node_task`] is the same loop under the
//! default policy.

use gnn_datasets::NodeDataset;
use gnn_device::{DeviceReport, Phase};
use gnn_models::{GnnStack, ModelBatch};
use gnn_tensor::{accuracy, cross_entropy};
use std::rc::Rc;

use crate::optim::Adam;
use crate::supervisor::{in_session, Run, Setup, Step, Supervised, Supervisor, TrainError};

/// Node-classification run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeTaskConfig {
    /// Maximum training epochs (the paper uses 200).
    pub max_epochs: usize,
    /// Adam learning rate (Table II).
    pub lr: f32,
}

impl NodeTaskConfig {
    /// The paper's setting with the given Table II learning rate.
    pub fn paper(lr: f32) -> Self {
        NodeTaskConfig {
            max_epochs: 200,
            lr,
        }
    }
}

/// Result of one node-classification training run.
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// Test accuracy at the best-validation epoch, in percent.
    pub test_acc: f64,
    /// Best validation accuracy, in percent.
    pub best_val_acc: f64,
    /// Epochs trained.
    pub epochs: usize,
    /// Mean simulated seconds per epoch.
    pub epoch_time: f64,
    /// Total simulated training time in seconds.
    pub total_time: f64,
    /// Full device report (kernels, memory, utilization, phases).
    pub report: DeviceReport,
}

/// Trains `model` full-batch on the citation dataset and reports the
/// Table IV quantities: [`run_node_task_supervised`] under
/// `Supervisor::default()`.
///
/// The profiling session is installed internally; `batch` should be built
/// by the caller from the same dataset (`rustyg::loader::full_graph_batch`
/// or `rgl::loader::full_graph_batch`).
///
/// # Panics
///
/// Panics if the dataset splits are empty or the batch does not match the
/// dataset's node count, and with the [`TrainError`] if a fault armed
/// around the call outlasts the default retry budget.
pub fn run_node_task<B: ModelBatch>(
    model: &GnnStack<B>,
    batch: &B,
    ds: &NodeDataset,
    cfg: &NodeTaskConfig,
) -> NodeOutcome {
    run_node_task_supervised(model, batch, ds, cfg, &Supervisor::default())
        .unwrap_or_else(|e| panic!("{e}"))
        .outcome
}

/// Full-batch node classification under a [`Supervisor`] policy: the
/// Section IV-A loop with typed errors, retry, NaN rollback, and
/// checkpoint/resume.
///
/// # Errors
///
/// Returns a [`TrainError`] instead of panicking on device faults that
/// survive the retry budget, diverged losses, or checkpoint IO failures.
///
/// # Panics
///
/// Panics on caller bugs (empty splits, batch/dataset mismatch).
pub fn run_node_task_supervised<B: ModelBatch>(
    model: &GnnStack<B>,
    batch: &B,
    ds: &NodeDataset,
    cfg: &NodeTaskConfig,
    sup: &Supervisor,
) -> Result<Supervised<NodeOutcome>, TrainError> {
    assert!(!ds.train_idx.is_empty(), "empty training split");
    assert_eq!(
        batch.num_nodes(),
        ds.graph.num_nodes(),
        "batch/dataset mismatch"
    );

    let (run, report) = in_session(|| {
        // Parameters + gradients + dataset resident on device for the whole run.
        gnn_device::with(|s| {
            s.alloc_persistent(2 * model.param_bytes() + batch.feature_bytes());
        });
        let opt = Adam::new(model.params(), cfg.lr);

        let train_idx: gnn_tensor::Ids = Rc::new(ds.train_idx.clone());
        let val_idx: gnn_tensor::Ids = Rc::new(ds.val_idx.clone());
        let test_idx: gnn_tensor::Ids = Rc::new(ds.test_idx.clone());
        let train_labels = ds.labels_at(&ds.train_idx);
        let val_labels = ds.labels_at(&ds.val_idx);
        let test_labels = ds.labels_at(&ds.test_idx);

        let setup = Setup {
            name: format!("node/{}/{}", model.name(), ds.name),
            ..Setup::default()
        };
        let mut run = Run::start(model, opt, setup, sup)?;
        while run.epoch < cfg.max_epochs as u64 {
            run.begin_epoch();
            let step = run.step(0..0, |_| {
                gnn_device::set_phase(Phase::DataLoad);
                // Full-batch: the graph is already resident; per-epoch loading
                // is just the epoch bookkeeping.
                gnn_device::host(20e-6);
                gnn_device::set_phase(Phase::Forward);
                let logits = model.forward(batch, true);
                let loss = cross_entropy(&logits.gather_rows(&train_idx), &train_labels);
                gnn_device::set_phase(Phase::Backward);
                loss.backward();
                loss
            })?;
            let loss = match step {
                Step::Done(loss) => loss,
                Step::RolledBack => continue,
                Step::Oom { attempts } => {
                    // Full-batch training has no batch to shrink.
                    return Err(TrainError::RetriesExhausted {
                        attempts,
                        cause: "device OOM (full-batch task cannot reduce its batch)".into(),
                    });
                }
            };

            // Validation / test evaluation (inference mode, no tape).
            let eval_logits = run.eval(|| gnn_tensor::no_grad(|| model.forward(batch, false)))?;
            let val_acc = accuracy(&eval_logits.gather_rows(&val_idx), &val_labels) * 100.0;
            if val_acc > run.best_val {
                run.best_val = val_acc;
                run.test_at_best =
                    accuracy(&eval_logits.gather_rows(&test_idx), &test_labels) * 100.0;
            }
            gnn_device::with(|s| s.end_step());
            run.end_epoch(loss, val_acc / 100.0)?;
        }
        Ok(run)
    })?;
    Ok(node_outcome(run, report))
}

/// Assembles the outcome of a run that tracked test accuracy at the best
/// validation epoch (the node and sampled tasks).
pub(crate) fn node_outcome(run: Run<'_>, report: DeviceReport) -> Supervised<NodeOutcome> {
    let (epochs, epoch_time, total_time) = run.timing();
    let outcome = NodeOutcome {
        test_acc: run.test_at_best,
        best_val_acc: run.best_val,
        epochs,
        epoch_time,
        total_time,
        report,
    };
    run.finish(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_datasets::CitationSpec;
    use gnn_models::{build, ModelKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gcn_learns_synthetic_cora() {
        let ds = CitationSpec::cora().scaled(0.15).generate(0);
        let mut rng = StdRng::seed_from_u64(0);
        let model = build::node_model_rustyg(ModelKind::Gcn, 1433, 7, &mut rng);
        let batch = rustyg::loader::full_graph_batch(&ds);
        let out = run_node_task(
            &model,
            &batch,
            &ds,
            &NodeTaskConfig {
                max_epochs: 30,
                lr: 0.01,
            },
        );
        assert!(
            out.test_acc > 40.0,
            "GCN should beat chance (14%) clearly, got {}",
            out.test_acc
        );
        assert_eq!(out.epochs, 30);
        assert!(out.epoch_time > 0.0);
        assert!((out.total_time - out.epoch_time * 30.0).abs() < 1e-6);
    }

    #[test]
    fn a_fault_armed_around_the_plain_entry_point_is_handled() {
        use gnn_faults::{FaultKind, FaultPlan};

        let run = |plan: Option<FaultPlan>| {
            let ds = CitationSpec::cora().scaled(0.08).generate(7);
            let mut rng = StdRng::seed_from_u64(7);
            let model = build::node_model_rustyg(ModelKind::Gcn, 1433, 7, &mut rng);
            let batch = rustyg::loader::full_graph_batch(&ds);
            let cfg = NodeTaskConfig {
                max_epochs: 3,
                lr: 0.01,
            };
            let handle = plan.map(gnn_faults::install);
            let out = run_node_task(&model, &batch, &ds, &cfg);
            let pending = gnn_faults::take_pending();
            (out, pending, handle.map(gnn_faults::finish))
        };
        let (clean, _, _) = run(None);
        let (faulted, pending, log) = run(Some(FaultPlan::empty().with(FaultKind::Oom { at: 30 })));

        assert_eq!(log.expect("a plan was armed").len(), 1, "the OOM must fire");
        assert!(pending.is_none(), "the fault was left pending: {pending:?}");
        assert_eq!(clean.test_acc.to_bits(), faulted.test_acc.to_bits());
        assert_eq!(clean.best_val_acc.to_bits(), faulted.best_val_acc.to_bits());
        // One retry under the default policy: its back-off, plus the
        // aborted attempt's own time.
        assert!(
            faulted.report.total_time >= clean.report.total_time + Supervisor::default().backoff,
            "faulted {} s vs clean {} s",
            faulted.report.total_time,
            clean.report.total_time
        );
    }

    #[test]
    fn phases_are_populated() {
        let ds = CitationSpec::cora().scaled(0.1).generate(1);
        let mut rng = StdRng::seed_from_u64(1);
        let model = build::node_model_rgl(ModelKind::Gcn, 1433, 7, &mut rng);
        let batch = rgl::loader::full_graph_batch(&ds);
        let out = run_node_task(
            &model,
            &batch,
            &ds,
            &NodeTaskConfig {
                max_epochs: 3,
                lr: 0.01,
            },
        );
        for phase in [Phase::Forward, Phase::Backward, Phase::Update, Phase::Other] {
            assert!(out.report.phase_time(phase) > 0.0, "phase {phase:?} empty");
        }
        assert!(out.report.peak_memory > 0);
        let u = out.report.utilization();
        assert!((0.0..=1.0).contains(&u));
    }
}
