//! `graph_minibatch`: `gnn_train::run_graph_fold` on ENZYMES at scale 0.2,
//! fold 0 of a 10-fold split, batch size 16, one epoch.

use gnn_datasets::{stratified_kfold, Fold, GraphDataset, TudSpec};
use gnn_device::{Phase, Session};
use gnn_models::adapt::{RglLoader, RustygLoader};
use gnn_models::{build, graph_hparams, GnnStack, Loader, ModelBatch, ModelKind};
use gnn_tensor::{accuracy, cross_entropy};
use gnn_train::{run_graph_fold, Adam, FoldOutcome, GraphTaskConfig, ReduceLrOnPlateau};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::{timed, CellRun, Fw, Unrolled, Workload, FRAMEWORKS};
use crate::digest::Digest;
use crate::span::Tracer;
use crate::stats::summarize;

/// GIN is the GEMM-heavy isotropic model; MoNet and GatedGCN are the
/// anisotropic ones whose edge-wise work separates gather/scatter from the
/// fused GSpMM/GSDDMM kernels.
const MODELS: [ModelKind; 3] = [ModelKind::Gin, ModelKind::MoNet, ModelKind::GatedGcn];
const SCALE: f64 = 0.2;
const BATCH_SIZE: usize = 16;

pub struct GraphMinibatch {
    seed: u64,
    ds: GraphDataset,
    fold: Fold,
}

fn cell_run(kind: ModelKind, fw: Fw, wall_s: f64, items: usize, out: &FoldOutcome) -> CellRun {
    let mut d = Digest::new();
    d.f64(out.test_acc);
    d.u64(out.epochs as u64);
    d.f64(out.epoch_time);
    d.f64(out.total_time);
    d.device_report(&out.report);
    CellRun::training(
        format!("{}/{}", kind.label(), fw.label()),
        &d,
        wall_s,
        out.total_time,
        items as u64,
        &out.report,
    )
}

impl GraphMinibatch {
    fn cfg(&self, kind: ModelKind) -> GraphTaskConfig {
        GraphTaskConfig {
            batch_size: BATCH_SIZE,
            ..GraphTaskConfig::from_hparams(&graph_hparams(kind), 1, self.seed)
        }
    }

    /// Same seeding as `gnn_core::sweep` fold 0.
    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed + 10)
    }

    /// The round's items: nodes of the fold's training graphs. Graph sizes
    /// are log-normal, so graphs per second would swing with the seed by
    /// more than any bound; host time follows the node count.
    fn train_nodes(&self) -> usize {
        self.fold
            .train
            .iter()
            .map(|&g| self.ds.samples[g as usize].graph.num_nodes())
            .sum()
    }

    fn cells() -> impl Iterator<Item = (ModelKind, Fw)> {
        MODELS
            .into_iter()
            .flat_map(|m| FRAMEWORKS.into_iter().map(move |fw| (m, fw)))
    }
}

impl Workload for GraphMinibatch {
    fn setup(seed: u64, t: &Tracer) -> Self {
        let ds = t.scope("datasets.generate", || {
            TudSpec::enzymes().scaled(SCALE).generate(seed)
        });
        let fold = stratified_kfold(&ds.labels(), 10, seed).swap_remove(0);
        GraphMinibatch { seed, ds, fold }
    }

    fn round(&self) -> Vec<CellRun> {
        let (feat, classes) = (self.ds.feature_dim, self.ds.num_classes);
        Self::cells()
            .map(|(kind, fw)| {
                let cfg = self.cfg(kind);
                let mut rng = self.rng();
                let (out, wall_s) = timed(|| match fw {
                    Fw::Pyg => {
                        let model = build::graph_model_rustyg(kind, feat, classes, &mut rng);
                        run_graph_fold(&model, &RustygLoader::new(&self.ds), &self.fold, &cfg)
                    }
                    Fw::Dgl => {
                        let model = build::graph_model_rgl(kind, feat, classes, &mut rng);
                        run_graph_fold(&model, &RglLoader::new(&self.ds), &self.fold, &cfg)
                    }
                });
                cell_run(kind, fw, wall_s, self.train_nodes(), &out)
            })
            .collect()
    }

    /// `obs.collector_overhead_share`: rounds with a `gnn_obs` collector
    /// installed against the entry-point rounds already timed without one.
    /// This is the workload with the most kernel records per second.
    fn extra_layers(&self, entry_round_s: f64) -> Vec<(&'static str, f64)> {
        let with: Vec<f64> = (0..2)
            .map(|_| {
                let handle = gnn_obs::install(gnn_obs::Collector::new());
                let (_, wall_s) = timed(|| self.round());
                drop(gnn_obs::finish(handle));
                wall_s
            })
            .collect();
        let with_s = summarize(&with).median;
        vec![(
            "obs.collector_overhead_share",
            (with_s - entry_round_s) / entry_round_s,
        )]
    }

    fn unrolled(&self, t: &Tracer) -> Unrolled {
        let (feat, classes) = (self.ds.feature_dim, self.ds.num_classes);
        let mut un = Unrolled::default();
        let mut last = (0.0, 0.0);
        for (kind, fw) in Self::cells() {
            t.set_cell(&format!("{}/{}", kind.label(), fw.label()));
            let cfg = self.cfg(kind);
            let ((out, losses), wall_s) = timed(|| {
                t.scope("cell", || {
                    let mut rng = self.rng();
                    match fw {
                        Fw::Pyg => {
                            let model = t.scope("models.build", || {
                                build::graph_model_rustyg(kind, feat, classes, &mut rng)
                            });
                            fold_loop(
                                t,
                                fw,
                                &model,
                                &RustygLoader::new(&self.ds),
                                &self.fold,
                                &cfg,
                            )
                        }
                        Fw::Dgl => {
                            let model = t.scope("models.build", || {
                                build::graph_model_rgl(kind, feat, classes, &mut rng)
                            });
                            fold_loop(t, fw, &model, &RglLoader::new(&self.ds), &self.fold, &cfg)
                        }
                    }
                })
            });
            last = (f64::from(*losses.last().expect("one step")), out.test_acc);
            un.cells
                .push(cell_run(kind, fw, wall_s, self.train_nodes(), &out));
            un.losses.push(losses);
        }
        un.values.push(("train.final_loss", last.0));
        un.values.push(("train.test_acc", last.1));
        un
    }
}

/// `gnn_train::run_graph_fold`, statement for statement, with a span around
/// each call into a layer. Returns the outcome and every step's loss.
fn fold_loop<L: Loader>(
    t: &Tracer,
    fw: Fw,
    model: &GnnStack<L::Batch>,
    loader: &L,
    fold: &Fold,
    cfg: &GraphTaskConfig,
) -> (FoldOutcome, Vec<f32>) {
    let handle = gnn_device::session::install(Session::new(gnn_device::default_cost_model()));
    gnn_device::with(|s| s.alloc_persistent(2 * model.param_bytes()));
    let mut opt = Adam::new(model.params(), cfg.init_lr);
    let mut sched = ReduceLrOnPlateau::new(cfg.decay_factor, cfg.patience, cfg.min_lr);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut epoch_times = Vec::new();
    let mut last_mark = 0.0f64;
    let mut order = fold.train.clone();
    let mut losses = Vec::new();

    for _epoch in 0..cfg.max_epochs {
        if cfg.shuffle {
            order.shuffle(&mut rng);
        }
        for chunk in order.chunks(cfg.batch_size) {
            let batch = t.scope("train.data_load", || {
                gnn_device::set_phase(Phase::DataLoad);
                t.scope(fw.collate(), || loader.load(chunk))
            });

            let loss = t.scope("train.forward", || {
                gnn_device::set_phase(Phase::Forward);
                let logits = t.scope(fw.forward(), || model.forward(&batch, true));
                t.scope("tensor.loss", || cross_entropy(&logits, batch.labels()))
            });

            t.scope("train.backward", || {
                gnn_device::set_phase(Phase::Backward);
                loss.backward();
            });

            t.scope("train.update", || {
                gnn_device::set_phase(Phase::Update);
                opt.step();
                opt.zero_grad();
            });

            gnn_device::set_phase(Phase::Other);
            gnn_device::with(|s| s.end_step());
            losses.push(loss.item());
        }

        let (val_loss, _val_acc) = t.scope("train.eval", || {
            evaluate(t, fw, model, loader, &fold.val, cfg.batch_size)
        });
        let new_lr = sched.step(val_loss, opt.lr());
        if new_lr != opt.lr() {
            opt.set_lr(new_lr);
        }

        let mut now = 0.0;
        gnn_device::with(|s| now = s.now());
        epoch_times.push(now - last_mark);
        last_mark = now;

        if sched.should_stop(opt.lr()) {
            break;
        }
    }

    let (_, test_acc) = t.scope("train.eval", || {
        evaluate(t, fw, model, loader, &fold.test, cfg.batch_size)
    });

    let report = gnn_device::session::finish(handle);
    let epochs = epoch_times.len();
    let total_time: f64 = epoch_times.iter().sum();
    let outcome = FoldOutcome {
        test_acc: test_acc * 100.0,
        epochs,
        epoch_time: total_time / epochs.max(1) as f64,
        total_time,
        report,
    };
    (outcome, losses)
}

/// `gnn_train::graph_task::evaluate` with spans.
fn evaluate<L: Loader>(
    t: &Tracer,
    fw: Fw,
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
        let batch = t.scope(fw.collate(), || loader.load(chunk));
        let logits = t.scope(fw.eval_forward(), || {
            gnn_tensor::no_grad(|| model.forward(&batch, false))
        });
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
