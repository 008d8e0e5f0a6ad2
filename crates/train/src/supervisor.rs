//! The supervision policy and the run state every training loop drives:
//! typed errors, bounded retry, checkpoint/resume, and graceful degradation.
//!
//! There is one loop per task kind — [`crate::node_task`],
//! [`crate::graph_task`], [`crate::sampled_task`] — and each says only what
//! its task decides: how a step's batch and loss are built, what evaluation
//! is, when to stop. Everything the loops do *around* that lives here, once,
//! on the private `Run` state under a [`Supervisor`] policy. The plain entry
//! points (`run_node_task`, `run_graph_fold`, `run_sampled_task`) are the
//! supervised ones under `Supervisor::default()` with a [`TrainError`]
//! turned into a panic, so a fault armed around any of them is handled the
//! same way and every loop releases a step's device memory where the
//! `gnn-lint` memory certificate says it does: when the step commits.
//!
//! - **Typed failures** — every abnormal exit is a [`TrainError`], never a
//!   panic, so the sweep runner can record the cell and move on.
//! - **Retry with backoff** — transient device faults (one-shot OOM, kernel
//!   faults from `gnn-faults`) roll the step back (batch-norm running
//!   stats restored, gradients cleared — parameters are untouched until
//!   `opt.step`) and replay it. Because the forward pass uses no RNG, a
//!   successfully retried run is **bit-identical** to a fault-free one; the
//!   property tests in `tests/faults.rs` assert exactly that.
//! - **Checkpoint/resume** — per-epoch [`Checkpoint`] files capture params,
//!   optimizer moments, scheduler state, shuffle RNG, and batch-norm
//!   statistics, so a killed run resumed with `--resume` reproduces the
//!   uninterrupted loss curve exactly.
//! - **Graceful degradation** — persistent OOM (a memory ceiling) halves
//!   the mini-batch size and continues; a NaN-poisoned loss rolls back to
//!   the last checkpoint and replays.

use std::path::PathBuf;

use gnn_device::{DeviceReport, Phase, Session, SessionError};
use gnn_faults::Fault;
use gnn_models::{GnnStack, ModelBatch};
use gnn_tensor::nn::BatchNorm1d;
use gnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::checkpoint::Checkpoint;
use crate::epoch_trace::EpochTracker;
use crate::optim::Adam;
use crate::scheduler::ReduceLrOnPlateau;
#[cfg(test)]
use crate::{graph_task::GraphTaskConfig, node_task::NodeTaskConfig};

pub use crate::graph_task::run_graph_fold_supervised;
pub use crate::node_task::run_node_task_supervised;
pub use crate::sampled_task::run_sampled_task_supervised;

/// Why a supervised training run stopped abnormally.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// A device fault persisted past the retry budget.
    RetriesExhausted {
        /// Attempts made on the failing step.
        attempts: usize,
        /// The last fault observed.
        cause: String,
    },
    /// The loss went NaN/Inf and rollback could not clear it (a genuinely
    /// diverged run, not a one-shot poisoning).
    NanLoss {
        /// Epoch at which the loss diverged.
        epoch: u64,
    },
    /// A profiling-session protocol violation.
    Session(SessionError),
    /// Checkpoint IO/parse failure.
    Checkpoint(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::RetriesExhausted { attempts, cause } => {
                write!(f, "fault persisted after {attempts} attempts: {cause}")
            }
            TrainError::NanLoss { epoch } => {
                write!(
                    f,
                    "loss diverged to NaN at epoch {epoch} (rollback did not clear it)"
                )
            }
            TrainError::Session(e) => write!(f, "session protocol violation: {e}"),
            TrainError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<SessionError> for TrainError {
    fn from(e: SessionError) -> Self {
        TrainError::Session(e)
    }
}

/// Retry/checkpoint policy for supervised runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Supervisor {
    /// Retries allowed per training step before giving up (or, for OOM,
    /// degrading).
    pub max_retries: usize,
    /// Simulated seconds of host backoff added per retry attempt
    /// (multiplied by the attempt number: linear backoff).
    pub backoff: f64,
    /// Where to write per-epoch checkpoints (`None` disables them; in-memory
    /// rollback for NaN recovery works regardless).
    pub checkpoint_path: Option<PathBuf>,
    /// Checkpoint every N epochs (when a path is set).
    pub checkpoint_every: u64,
    /// Resume from `checkpoint_path` if the file exists.
    pub resume: bool,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            max_retries: 3,
            backoff: 1e-3,
            checkpoint_path: None,
            checkpoint_every: 1,
            resume: false,
        }
    }
}

impl Supervisor {
    /// Enables per-epoch checkpoints at `path` (builder-style).
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Enables resume-from-checkpoint (builder-style).
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }
}

/// A supervised run's result: the underlying outcome plus what the
/// supervisor had to do to get there.
#[derive(Debug, Clone)]
pub struct Supervised<T> {
    /// The training outcome.
    pub outcome: T,
    /// Whether any degradation policy fired (batch halved, world shrunk).
    pub degraded: bool,
    /// Total step retries performed.
    pub retries: usize,
    /// Human-readable log of every supervisor intervention.
    pub notes: Vec<String>,
    /// Per-epoch loss curve (training loss for the node task, validation
    /// loss for the graph task) — the series resume tests compare
    /// bit-for-bit.
    pub losses: Vec<f64>,
}

impl<T> Supervised<T> {
    /// Maps the outcome, keeping the supervisor's record of the run.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Supervised<U> {
        Supervised {
            outcome: f(self.outcome),
            degraded: self.degraded,
            retries: self.retries,
            notes: self.notes,
            losses: self.losses,
        }
    }
}

/// Rolls the device/optimizer state of an aborted step back so it can be
/// replayed: batch-norm stats restored, gradients cleared, step-scoped
/// device memory released. Parameters are untouched because `opt.step`
/// never ran.
fn unwind_step(norms: &[&BatchNorm1d], snap: &[(Vec<f32>, Vec<f32>)], opt: &Adam) {
    for (bn, (mean, var)) in norms.iter().zip(snap) {
        bn.set_running_stats(mean, var);
    }
    opt.zero_grad();
    gnn_device::with(|s| s.end_step());
}

fn fault_to_error(fault: &Fault, attempts: usize) -> TrainError {
    TrainError::RetriesExhausted {
        attempts,
        cause: fault.to_string(),
    }
}

/// Total training time as a left fold continuing from `prior`. A fresh run
/// has `prior == 0.0` (so this equals `times.iter().sum()`); a resumed run's
/// `prior` is the same left fold over the epochs the earlier session timed,
/// so the combined fold is bit-identical to the uninterrupted run's sum.
fn accumulated(prior: f64, times: &[f64]) -> f64 {
    let mut total = prior;
    for t in times {
        total += t;
    }
    total
}

/// Fast-forwards a fresh session's clock to the checkpointed value so every
/// subsequent timestamp matches the uninterrupted run bit-for-bit.
fn restore_clock(clock: f64) {
    let mut now = 0.0;
    gnn_device::with(|s| now = s.now());
    if clock > now {
        gnn_device::host(clock - now);
    }
}

/// Runs `body` inside a fresh device session and returns what it produced
/// next to the session's report.
///
/// # Errors
///
/// Passes `body`'s error through (the session is uninstalled first, and the
/// training failure is surfaced rather than any secondary finish issue), or
/// reports a session protocol violation at finish.
pub(crate) fn in_session<T>(
    body: impl FnOnce() -> Result<T, TrainError>,
) -> Result<(T, DeviceReport), TrainError> {
    let handle = gnn_device::session::install(Session::new(gnn_device::default_cost_model()));
    match body() {
        Ok(out) => Ok((out, gnn_device::session::try_finish(handle)?)),
        Err(e) => {
            let _ = gnn_device::session::try_finish(handle);
            Err(e)
        }
    }
}

/// What a task loop hands [`Run::start`] besides its optimizer. The default
/// is a full-batch task: no scheduler, no sample order, no RNG.
#[derive(Default)]
pub(crate) struct Setup {
    /// Run label of the per-epoch metrics records.
    pub name: String,
    /// Plateau scheduler, for tasks that decay the learning rate.
    pub sched: Option<ReduceLrOnPlateau>,
    /// Training samples in visiting order (empty for full-batch tasks).
    pub order: Vec<u32>,
    /// Seed of the shuffle RNG; `None` for tasks that draw no randomness.
    pub seed: Option<u64>,
    /// Whether every epoch begins by permuting `order`.
    pub shuffle: bool,
    /// Samples per training step.
    pub batch: usize,
}

/// How one [`Run::step`] ended, when it did not end the run.
pub(crate) enum Step {
    /// The step committed (`opt.step` ran); carries its loss.
    Done(f32),
    /// OOM outlasted the retry budget — the loop should shrink its batch
    /// and replay, if it has a batch to shrink.
    Oom { attempts: usize },
    /// The loss came back NaN/Inf and the run was rolled back to its last
    /// snapshot — the loop should start over from [`Run::epoch`].
    RolledBack,
}

/// The mutable state of one supervised training run, and every piece of
/// bookkeeping the three task loops share: resume, retried steps and
/// evaluations, NaN roll-back, batch halving, per-epoch timing, metrics,
/// snapshots and checkpoint files.
pub(crate) struct Run<'a> {
    sup: &'a Supervisor,
    params: Vec<Tensor>,
    norms: Vec<&'a BatchNorm1d>,
    pub opt: Adam,
    pub sched: Option<ReduceLrOnPlateau>,
    rng: Option<StdRng>,
    shuffle: bool,
    pub order: Vec<u32>,
    /// Effective samples per step (halved by persistent OOM).
    pub batch: usize,
    /// Epochs fully completed.
    pub epoch: u64,
    /// Best validation accuracy so far, percent (tasks that track one).
    pub best_val: f64,
    /// Test accuracy at the best-validation epoch, percent.
    pub test_at_best: f64,
    losses: Vec<f64>,
    epoch_times: Vec<f64>,
    /// Training seconds accumulated by earlier sessions (restored from the
    /// checkpoint on resume); `epoch_times` only covers this process.
    prior_time: f64,
    degraded: bool,
    retries: usize,
    notes: Vec<String>,
    /// State at the last epoch boundary, with the sample order it had then
    /// (the order is training state the checkpoint file rebuilds by replay).
    rollback: (Checkpoint, Vec<u32>),
    last_rollback_epoch: Option<u64>,
    last_mark: f64,
    tracker: EpochTracker,
}

impl<'a> Run<'a> {
    /// Takes over `opt` and `setup`, resumes from the supervisor's checkpoint
    /// file if asked to and there is one, snapshots the starting state and
    /// marks the clock. Call inside the session, after the task's
    /// persistent allocations.
    pub(crate) fn start<B: ModelBatch>(
        model: &'a GnnStack<B>,
        opt: Adam,
        setup: Setup,
        sup: &'a Supervisor,
    ) -> Result<Self, TrainError> {
        let mut run = Run {
            sup,
            params: model.params(),
            norms: model.norm_layers(),
            opt,
            sched: setup.sched,
            rng: setup.seed.map(StdRng::seed_from_u64),
            shuffle: setup.shuffle,
            order: setup.order,
            batch: setup.batch,
            epoch: 0,
            best_val: 0.0,
            test_at_best: 0.0,
            losses: Vec::new(),
            epoch_times: Vec::new(),
            prior_time: 0.0,
            degraded: false,
            retries: 0,
            notes: Vec::new(),
            rollback: Default::default(),
            last_rollback_epoch: None,
            last_mark: 0.0,
            tracker: EpochTracker::new(setup.name),
        };
        if sup.resume {
            if let Some(path) = sup.checkpoint_path.as_deref().filter(|p| p.exists()) {
                let ckpt = Checkpoint::load(path).map_err(TrainError::Checkpoint)?;
                run.restore(&ckpt);
                run.prior_time = ckpt.total_time;
                restore_clock(ckpt.clock);
                // The shuffle order is itself training state: rebuild it by
                // replaying the completed epochs' shuffles with a fresh stream
                // (the stored RNG state is where that replay would end).
                if let (true, Some(seed)) = (run.shuffle, setup.seed) {
                    let mut replay = StdRng::seed_from_u64(seed);
                    for _ in 0..run.epoch {
                        run.order.shuffle(&mut replay);
                    }
                }
                run.notes
                    .push(format!("resumed from checkpoint at epoch {}", run.epoch));
            }
        }
        run.rollback = (run.capture(), run.order.clone());
        gnn_device::with(|s| run.last_mark = s.now());
        Ok(run)
    }

    fn capture(&self) -> Checkpoint {
        let mut ckpt = Checkpoint::capture(
            &self.params,
            &self.norms,
            &self.opt,
            self.sched.as_ref(),
            self.rng.as_ref(),
            self.epoch,
        );
        ckpt.best_val = self.best_val;
        ckpt.test_at_best = self.test_at_best;
        ckpt.losses = self.losses.clone();
        ckpt.total_time = accumulated(self.prior_time, &self.epoch_times);
        gnn_device::with(|s| ckpt.clock = s.now());
        ckpt
    }

    fn restore(&mut self, ckpt: &Checkpoint) {
        let rng = ckpt.restore(
            &self.params,
            &self.norms,
            &mut self.opt,
            self.sched.as_mut(),
        );
        if rng.is_some() {
            self.rng = rng;
        }
        self.epoch = ckpt.epoch;
        self.best_val = ckpt.best_val;
        self.test_at_best = ckpt.test_at_best;
        self.losses = ckpt.losses.clone();
    }

    /// Opens the next epoch: tells the injector which one it is, reshuffles
    /// the sample order if the task does, and returns the epoch index.
    pub(crate) fn begin_epoch(&mut self) -> u64 {
        gnn_faults::set_epoch(self.epoch);
        if let (true, Some(rng)) = (self.shuffle, self.rng.as_mut()) {
            self.order.shuffle(rng);
        }
        self.epoch
    }

    /// Runs one training step — `compute` (data load, forward, loss,
    /// backward) over `order[chunk]`, then the optimizer update — retrying
    /// transient device faults under the supervisor's budget. A committed
    /// step releases its step-scoped device memory.
    ///
    /// `compute` must be a pure replayable step: given the same model state
    /// it reproduces the same loss tensor (every loop satisfies this — the
    /// forward pass draws no RNG).
    pub(crate) fn step(
        &mut self,
        chunk: std::ops::Range<usize>,
        mut compute: impl FnMut(&[u32]) -> Tensor,
    ) -> Result<Step, TrainError> {
        let mut attempts = 0usize;
        loop {
            let snap: Vec<_> = self.norms.iter().map(|bn| bn.running_stats()).collect();
            let loss = compute(&self.order[chunk.clone()]);
            if let Some(fault) = gnn_faults::take_pending() {
                unwind_step(&self.norms, &snap, &self.opt);
                attempts += 1;
                self.retries += 1;
                if attempts > self.sup.max_retries {
                    return match fault {
                        Fault::Oom { .. } => Ok(Step::Oom { attempts }),
                        Fault::Kernel { .. } => Err(fault_to_error(&fault, attempts)),
                    };
                }
                self.notes.push(format!(
                    "epoch {}: retrying step after {fault} (attempt {attempts})",
                    self.epoch
                ));
                gnn_device::host(self.sup.backoff * attempts as f64);
                continue;
            }
            let loss_val = gnn_faults::poison_loss(loss.item(), gnn_device::sim_now());
            if !loss_val.is_finite() {
                unwind_step(&self.norms, &snap, &self.opt);
                self.roll_back()?;
                return Ok(Step::RolledBack);
            }
            gnn_device::set_phase(Phase::Update);
            self.opt.step();
            self.opt.zero_grad();
            gnn_device::set_phase(Phase::Other);
            gnn_device::with(|s| s.end_step());
            return Ok(Step::Done(loss_val));
        }
    }

    /// Returns to the last epoch boundary after a poisoned loss.
    fn roll_back(&mut self) -> Result<(), TrainError> {
        let epoch = self.epoch;
        if self.last_rollback_epoch == Some(epoch) {
            // Rolling back did not clear the NaN: genuine divergence.
            return Err(TrainError::NanLoss { epoch });
        }
        self.last_rollback_epoch = Some(epoch);
        let (ckpt, order) = std::mem::take(&mut self.rollback);
        self.notes.push(format!(
            "epoch {epoch}: NaN loss — rolled back to checkpoint at epoch {} and replaying",
            ckpt.epoch
        ));
        self.restore(&ckpt);
        self.order.clone_from(&order);
        self.rollback = (ckpt, order);
        Ok(())
    }

    /// One mini-batch epoch: every `batch`-sized chunk of the sample order
    /// through [`Run::step`], in order. Persistent OOM halves the batch
    /// (worded as `what`, e.g. "batch size") and replays the failed chunk,
    /// down to one sample (`floor`, e.g. "batch size 1"). Returns the last
    /// step's loss, or `None` if a poisoned loss rolled the run back.
    pub(crate) fn train_epoch(
        &mut self,
        what: &str,
        floor: &str,
        mut compute: impl FnMut(&[u32]) -> Tensor,
    ) -> Result<Option<f32>, TrainError> {
        let mut pos = 0usize;
        let mut last_loss = 0.0f32;
        while pos < self.order.len() {
            let end = (pos + self.batch).min(self.order.len());
            match self.step(pos..end, &mut compute)? {
                Step::Done(loss) => {
                    last_loss = loss;
                    pos = end;
                }
                Step::Oom { attempts } => {
                    if self.batch == 1 {
                        return Err(TrainError::RetriesExhausted {
                            attempts,
                            cause: format!("device OOM persists even at {floor}"),
                        });
                    }
                    self.batch = (self.batch / 2).max(1);
                    self.degraded = true;
                    self.notes.push(format!(
                        "epoch {}: halving {what} to {} after persistent OOM",
                        self.epoch, self.batch
                    ));
                    // `pos` unchanged: replay the failed chunk at the smaller
                    // size.
                }
                Step::RolledBack => return Ok(None),
            }
        }
        Ok(Some(last_loss))
    }

    /// Runs `eval` with bounded retries on device faults. Evaluation mutates
    /// nothing (inference mode), so a retry is a plain redo.
    pub(crate) fn eval<T>(&mut self, mut eval: impl FnMut() -> T) -> Result<T, TrainError> {
        let mut attempts = 0usize;
        loop {
            let out = eval();
            let Some(fault) = gnn_faults::take_pending() else {
                return Ok(out);
            };
            gnn_device::with(|s| s.end_step());
            attempts += 1;
            self.retries += 1;
            if attempts > self.sup.max_retries {
                return Err(fault_to_error(&fault, attempts));
            }
            self.notes.push(format!(
                "epoch {}: retrying evaluation after {fault} (attempt {attempts})",
                self.epoch
            ));
            gnn_device::host(self.sup.backoff * attempts as f64);
        }
    }

    /// Closes the epoch: times it, emits its metrics record, appends `loss`
    /// to the loss curve, snapshots the state for roll-back and, on the
    /// supervisor's schedule, writes the checkpoint file.
    pub(crate) fn end_epoch(&mut self, loss: f32, accuracy: f64) -> Result<(), TrainError> {
        let mut now = 0.0;
        gnn_device::with(|s| now = s.now());
        self.epoch_times.push(now - self.last_mark);
        self.last_mark = now;
        self.tracker
            .emit(f64::from(loss), Some(accuracy), f64::from(self.opt.lr()));
        self.losses.push(f64::from(loss));
        self.epoch += 1;

        self.rollback = (self.capture(), self.order.clone());
        if let Some(path) = &self.sup.checkpoint_path {
            if self.epoch.is_multiple_of(self.sup.checkpoint_every) {
                self.rollback.0.save(path).map_err(TrainError::Checkpoint)?;
            }
        }
        Ok(())
    }

    /// `(epochs, mean seconds per epoch, total seconds)` over every epoch
    /// trained, earlier sessions' included.
    pub(crate) fn timing(&self) -> (usize, f64, f64) {
        let epochs = self.losses.len();
        let total = accumulated(self.prior_time, &self.epoch_times);
        (epochs, total / epochs.max(1) as f64, total)
    }

    /// Wraps the task's outcome with what the supervisor had to do.
    pub(crate) fn finish<T>(self, outcome: T) -> Supervised<T> {
        Supervised {
            outcome,
            degraded: self.degraded,
            retries: self.retries,
            notes: self.notes,
            losses: self.losses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_datasets::{stratified_kfold, CitationSpec, TudSpec};
    use gnn_faults::{FaultKind, FaultPlan};
    use gnn_models::adapt::RustygLoader;
    use gnn_models::{build, ModelKind};

    fn node_fixture() -> (
        GnnStack<rustyg::Batch>,
        rustyg::Batch,
        gnn_datasets::NodeDataset,
    ) {
        let ds = CitationSpec::cora().scaled(0.08).generate(7);
        let mut rng = StdRng::seed_from_u64(7);
        let model = build::node_model_rustyg(ModelKind::Gcn, 1433, 7, &mut rng);
        let batch = rustyg::loader::full_graph_batch(&ds);
        (model, batch, ds)
    }

    fn node_cfg() -> NodeTaskConfig {
        NodeTaskConfig {
            max_epochs: 5,
            lr: 0.01,
        }
    }

    #[test]
    fn supervised_node_matches_dimensions() {
        let (model, batch, ds) = node_fixture();
        let out =
            run_node_task_supervised(&model, &batch, &ds, &node_cfg(), &Supervisor::default())
                .unwrap();
        assert_eq!(out.outcome.epochs, 5);
        assert_eq!(out.losses.len(), 5);
        assert_eq!(out.retries, 0);
        assert!(!out.degraded);
    }

    #[test]
    fn transient_faults_are_retried_and_metrics_unchanged() {
        let (model, batch, ds) = node_fixture();
        let clean =
            run_node_task_supervised(&model, &batch, &ds, &node_cfg(), &Supervisor::default())
                .unwrap();

        let (model, batch, ds) = node_fixture();
        let plan = FaultPlan::empty()
            .with(FaultKind::Oom { at: 30 })
            .with(FaultKind::KernelFault { at: 100 });
        let h = gnn_faults::install(plan);
        let faulted =
            run_node_task_supervised(&model, &batch, &ds, &node_cfg(), &Supervisor::default())
                .unwrap();
        let log = gnn_faults::finish(h);

        assert_eq!(log.len(), 2, "both faults must fire: {:?}", log.events);
        assert!(faulted.retries >= 2);
        assert_eq!(
            clean.losses, faulted.losses,
            "retried run must be bit-identical"
        );
        assert_eq!(clean.outcome.test_acc, faulted.outcome.test_acc);
        assert_eq!(clean.outcome.best_val_acc, faulted.outcome.best_val_acc);
    }

    #[test]
    fn nan_poisoning_rolls_back_and_recovers() {
        let (model, batch, ds) = node_fixture();
        let clean =
            run_node_task_supervised(&model, &batch, &ds, &node_cfg(), &Supervisor::default())
                .unwrap();

        let (model, batch, ds) = node_fixture();
        let h = gnn_faults::install(FaultPlan::empty().with(FaultKind::NanLoss { epoch: 2 }));
        let poisoned =
            run_node_task_supervised(&model, &batch, &ds, &node_cfg(), &Supervisor::default())
                .unwrap();
        let log = gnn_faults::finish(h);

        assert_eq!(log.len(), 1);
        assert!(poisoned.notes.iter().any(|n| n.contains("rolled back")));
        assert_eq!(clean.losses, poisoned.losses, "replay must be clean");
    }

    #[test]
    fn kernel_fault_beyond_budget_is_typed_not_a_panic() {
        let (model, batch, ds) = node_fixture();
        // A kernel fault on every launch: retries cannot win.
        let plan = (1..=2000u64).fold(FaultPlan::empty(), |p, i| {
            p.with(FaultKind::KernelFault { at: i })
        });
        let h = gnn_faults::install(plan);
        let err = run_node_task_supervised(
            &model,
            &batch,
            &ds,
            &NodeTaskConfig {
                max_epochs: 200,
                lr: 0.01,
            },
            &Supervisor {
                max_retries: 1,
                ..Supervisor::default()
            },
        )
        .unwrap_err();
        gnn_faults::finish(h);
        assert!(matches!(err, TrainError::RetriesExhausted { .. }), "{err}");
        assert!(err.to_string().contains("kernel fault"));
    }

    #[test]
    fn graph_memlimit_halves_batch_and_continues() {
        let ds = TudSpec::enzymes().scaled(0.2).generate(8);
        let folds = stratified_kfold(&ds.labels(), 10, 8);
        let mut rng = StdRng::seed_from_u64(8);
        let model = build::graph_model_rustyg(ModelKind::Gcn, 18, 6, &mut rng);
        let loader = RustygLoader::new(&ds);
        let cfg = GraphTaskConfig {
            batch_size: 32,
            init_lr: 1e-3,
            patience: 5,
            decay_factor: 0.5,
            min_lr: 1e-6,
            max_epochs: 2,
            seed: 8,
            shuffle: true,
        };
        // A ceiling one byte under the fault-free peak: the peak-reaching
        // allocation (a full-size training batch) must fail, while halved
        // batches fit.
        let probe =
            run_graph_fold_supervised(&model, &loader, &folds[0], &cfg, &Supervisor::default())
                .unwrap();
        let limit = probe.outcome.report.peak_memory - 1;

        let mut rng = StdRng::seed_from_u64(8);
        let model = build::graph_model_rustyg(ModelKind::Gcn, 18, 6, &mut rng);
        let h = gnn_faults::install(FaultPlan::empty().with(FaultKind::MemLimit { bytes: limit }));
        let out =
            run_graph_fold_supervised(&model, &loader, &folds[0], &cfg, &Supervisor::default())
                .unwrap();
        let log = gnn_faults::finish(h);

        assert!(out.degraded, "memory ceiling must trigger degradation");
        assert!(!log.is_empty());
        assert!(
            out.notes.iter().any(|n| n.contains("halving batch size")),
            "{:?}",
            out.notes
        );
        assert!(out.outcome.epochs > 0);
    }

    #[test]
    fn checkpoint_resume_reproduces_loss_curve() {
        let dir = std::env::temp_dir().join("gnn-sup-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("node.ckpt");
        std::fs::remove_file(&path).ok();

        let cfg = NodeTaskConfig {
            max_epochs: 6,
            lr: 0.01,
        };
        let (model, batch, ds) = node_fixture();
        let full =
            run_node_task_supervised(&model, &batch, &ds, &cfg, &Supervisor::default()).unwrap();

        // "Kill" a checkpointing run at epoch 3...
        let (model, batch, ds) = node_fixture();
        let sup = Supervisor::default().with_checkpoint(&path);
        run_node_task_supervised(
            &model,
            &batch,
            &ds,
            &NodeTaskConfig {
                max_epochs: 3,
                lr: 0.01,
            },
            &sup,
        )
        .unwrap();

        // ...and resume it on a *fresh* model to the full horizon.
        let (model, batch, ds) = node_fixture();
        let resumed =
            run_node_task_supervised(&model, &batch, &ds, &cfg, &sup.clone().with_resume(true))
                .unwrap();

        assert_eq!(
            full.losses, resumed.losses,
            "loss curve must be bit-identical"
        );
        assert_eq!(full.outcome.test_acc, resumed.outcome.test_acc);
        assert_eq!(full.outcome.best_val_acc, resumed.outcome.best_val_acc);
        std::fs::remove_file(&path).ok();
    }
}
