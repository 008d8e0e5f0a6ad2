//! `node_fullbatch`: `gnn_train::run_node_task` on PubMed at scale 1.0.

use std::rc::Rc;

use gnn_datasets::{CitationSpec, NodeDataset};
use gnn_device::{Phase, Session};
use gnn_models::{build, node_hparams, GnnStack, ModelBatch, ModelKind};
use gnn_tensor::{accuracy, cross_entropy, Ids};
use gnn_train::{run_node_task, Adam, NodeOutcome, NodeTaskConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{timed, CellRun, Fw, Unrolled, Workload};
use crate::digest::Digest;
use crate::span::Tracer;

/// (model, framework, epochs). GCN is the GEMM-bound pair; GAT adds the
/// gather/scatter and segment-softmax paths over the same 88k edges. Two
/// GCN epochs give the traced run a loss to compare; a GAT epoch costs as
/// much as three of GCN's, so it gets one.
const CELLS: [(ModelKind, Fw, usize); 4] = [
    (ModelKind::Gcn, Fw::Pyg, 2),
    (ModelKind::Gcn, Fw::Dgl, 2),
    (ModelKind::Gat, Fw::Pyg, 1),
    (ModelKind::Gat, Fw::Dgl, 1),
];

pub struct NodeFullbatch {
    seed: u64,
    ds: NodeDataset,
    pyg: rustyg::Batch,
    dgl: rgl::HeteroBatch,
}

fn cell_run(kind: ModelKind, fw: Fw, wall_s: f64, out: &NodeOutcome) -> CellRun {
    let mut d = Digest::new();
    d.node_outcome(out);
    CellRun::training(
        format!("{}/{}", kind.label(), fw.label()),
        &d,
        wall_s,
        out.total_time,
        out.epochs as u64,
        &out.report,
    )
}

impl NodeFullbatch {
    /// Same seeding as `gnn_core::sweep` run 0, rebuilt every round so each
    /// round trains from identical weights.
    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed + 1)
    }

    fn dims(&self) -> (usize, usize) {
        (self.ds.features.cols(), self.ds.num_classes)
    }
}

impl Workload for NodeFullbatch {
    fn setup(seed: u64, t: &Tracer) -> Self {
        let ds = t.scope("datasets.generate", || {
            CitationSpec::pubmed().scaled(1.0).generate(seed)
        });
        let pyg = t.scope(Fw::Pyg.collate(), || rustyg::loader::full_graph_batch(&ds));
        let dgl = t.scope(Fw::Dgl.collate(), || rgl::loader::full_graph_batch(&ds));
        NodeFullbatch { seed, ds, pyg, dgl }
    }

    fn round(&self) -> Vec<CellRun> {
        let (feat, classes) = self.dims();
        CELLS
            .iter()
            .map(|&(kind, fw, epochs)| {
                let cfg = NodeTaskConfig {
                    max_epochs: epochs,
                    lr: node_hparams(kind).lr,
                };
                let mut rng = self.rng();
                let (out, wall_s) = timed(|| match fw {
                    Fw::Pyg => {
                        let model = build::node_model_rustyg(kind, feat, classes, &mut rng);
                        run_node_task(&model, &self.pyg, &self.ds, &cfg)
                    }
                    Fw::Dgl => {
                        let model = build::node_model_rgl(kind, feat, classes, &mut rng);
                        run_node_task(&model, &self.dgl, &self.ds, &cfg)
                    }
                });
                cell_run(kind, fw, wall_s, &out)
            })
            .collect()
    }

    fn unrolled(&self, t: &Tracer) -> Unrolled {
        let (feat, classes) = self.dims();
        let mut un = Unrolled {
            comparable_steps: true,
            ..Unrolled::default()
        };
        let mut last = (0.0, 0.0);
        for &(kind, fw, epochs) in &CELLS {
            t.set_cell(&format!("{}/{}", kind.label(), fw.label()));
            let cfg = NodeTaskConfig {
                max_epochs: epochs,
                lr: node_hparams(kind).lr,
            };
            let ((out, losses), wall_s) = timed(|| {
                t.scope("cell", || {
                    let mut rng = self.rng();
                    match fw {
                        Fw::Pyg => {
                            let model = t.scope("models.build", || {
                                build::node_model_rustyg(kind, feat, classes, &mut rng)
                            });
                            node_loop(t, fw, &model, &self.pyg, &self.ds, &cfg)
                        }
                        Fw::Dgl => {
                            let model = t.scope("models.build", || {
                                build::node_model_rgl(kind, feat, classes, &mut rng)
                            });
                            node_loop(t, fw, &model, &self.dgl, &self.ds, &cfg)
                        }
                    }
                })
            });
            last = (f64::from(*losses.last().expect("one epoch")), out.test_acc);
            un.cells.push(cell_run(kind, fw, wall_s, &out));
            un.losses.push(losses);
        }
        un.values.push(("train.final_loss", last.0));
        un.values.push(("train.test_acc", last.1));
        un
    }
}

/// `gnn_train::run_node_task`, statement for statement, with a span around
/// each call into a layer. Returns the outcome and every epoch's loss.
fn node_loop<B: ModelBatch>(
    t: &Tracer,
    fw: Fw,
    model: &GnnStack<B>,
    batch: &B,
    ds: &NodeDataset,
    cfg: &NodeTaskConfig,
) -> (NodeOutcome, Vec<f32>) {
    let handle = gnn_device::session::install(Session::new(gnn_device::default_cost_model()));
    gnn_device::with(|s| {
        s.alloc_persistent(2 * model.param_bytes() + batch.feature_bytes());
    });
    let mut opt = Adam::new(model.params(), cfg.lr);

    let train_idx: Ids = Rc::new(ds.train_idx.clone());
    let val_idx: Ids = Rc::new(ds.val_idx.clone());
    let test_idx: Ids = Rc::new(ds.test_idx.clone());
    let train_labels = ds.labels_at(&ds.train_idx);
    let val_labels = ds.labels_at(&ds.val_idx);
    let test_labels = ds.labels_at(&ds.test_idx);

    let mut best_val = 0.0f64;
    let mut test_at_best = 0.0f64;
    let mut epoch_times = Vec::with_capacity(cfg.max_epochs);
    let mut last_mark = 0.0f64;
    let mut losses = Vec::with_capacity(cfg.max_epochs);

    for _epoch in 0..cfg.max_epochs {
        t.scope("train.data_load", || {
            gnn_device::set_phase(Phase::DataLoad);
            gnn_device::host(20e-6);
        });

        let loss = t.scope("train.forward", || {
            gnn_device::set_phase(Phase::Forward);
            let logits = t.scope(fw.forward(), || model.forward(batch, true));
            t.scope("tensor.loss", || {
                cross_entropy(&logits.gather_rows(&train_idx), &train_labels)
            })
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

        t.scope("train.eval", || {
            gnn_device::set_phase(Phase::Other);
            let eval_logits = t.scope(fw.eval_forward(), || {
                gnn_tensor::no_grad(|| model.forward(batch, false))
            });
            let val_acc = accuracy(&eval_logits.gather_rows(&val_idx), &val_labels) * 100.0;
            if val_acc > best_val {
                best_val = val_acc;
                test_at_best = accuracy(&eval_logits.gather_rows(&test_idx), &test_labels) * 100.0;
            }
            gnn_device::with(|s| s.end_step());
        });

        let mut now = 0.0;
        gnn_device::with(|s| now = s.now());
        epoch_times.push(now - last_mark);
        last_mark = now;
        losses.push(loss.item());
    }

    let report = gnn_device::session::finish(handle);
    let epochs = epoch_times.len();
    let total_time: f64 = epoch_times.iter().sum();
    let outcome = NodeOutcome {
        test_acc: test_at_best,
        best_val_acc: best_val,
        epochs,
        epoch_time: total_time / epochs.max(1) as f64,
        total_time,
        report,
    };
    (outcome, losses)
}
