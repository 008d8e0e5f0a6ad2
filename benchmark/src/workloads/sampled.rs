//! `sampled_rmat`: `gnn_train::run_sampled_task`, SAGE on `rmat-1m`.

use std::rc::Rc;

use gnn_device::Phase;
use gnn_models::{build, GnnStack, ModelBatch, ModelKind};
use gnn_sample::{sample_block, RmatGraph, SampleSpec, SamplerKind};
use gnn_tensor::{accuracy, cross_entropy, Ids};
use gnn_train::{
    run_sampled_task, Adam, NodeOutcome, SampledLoader, SampledTaskConfig, EVAL_SALT,
    TEST_POOL_SALT, TRAIN_POOL_SALT, VAL_POOL_SALT,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::{timed, CellRun, Fw, Unrolled, Workload, FRAMEWORKS};
use crate::digest::Digest;
use crate::span::Tracer;

const BATCH_SEEDS: usize = 512;
const TRAIN_BATCHES: usize = 10;

pub struct SampledRmat {
    seed: u64,
    spec: SampleSpec,
    graph: Rc<RmatGraph>,
}

fn cell_name(kind: SamplerKind, fw: Fw) -> String {
    format!("{}/{}", kind.label(), fw.label())
}

fn cell_run(kind: SamplerKind, fw: Fw, wall_s: f64, items: usize, out: &NodeOutcome) -> CellRun {
    let mut d = Digest::new();
    d.node_outcome(out);
    CellRun::training(
        cell_name(kind, fw),
        &d,
        wall_s,
        out.total_time,
        items as u64,
        &out.report,
    )
}

impl SampledRmat {
    fn cfg(&self) -> SampledTaskConfig {
        SampledTaskConfig {
            max_epochs: 1,
            lr: 0.01,
            batch_seeds: BATCH_SEEDS,
            train_seeds: BATCH_SEEDS * TRAIN_BATCHES,
            eval_seeds: BATCH_SEEDS,
            seed: self.seed,
        }
    }

    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed + 1)
    }

    fn cells() -> impl Iterator<Item = (SamplerKind, Fw)> {
        SamplerKind::all()
            .into_iter()
            .flat_map(|k| FRAMEWORKS.into_iter().map(move |fw| (k, fw)))
    }

    /// A fresh loader per cell and round, so every round starts from a cold
    /// feature cache and does identical work.
    fn pyg_loader(&self, kind: SamplerKind) -> rustyg::sampled::SampledLoader {
        rustyg::sampled::SampledLoader::new(self.graph.clone(), &self.spec, kind)
            .expect("catalog spec is valid")
    }

    fn dgl_loader(&self, kind: SamplerKind) -> rgl::sampled::SampledLoader {
        rgl::sampled::SampledLoader::new(self.graph.clone(), &self.spec, kind)
            .expect("catalog spec is valid")
    }
}

impl Workload for SampledRmat {
    fn setup(seed: u64, t: &Tracer) -> Self {
        let mut spec = SampleSpec::get("rmat-1m").expect("rmat-1m is cataloged");
        // Everything about the graph (edges, features, labels) derives from
        // this one generator seed.
        spec.rmat.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let graph = t.scope("sample.rmat_generate", || {
            Rc::new(RmatGraph::generate(spec.rmat).expect("catalog RMAT config is valid"))
        });
        SampledRmat { seed, spec, graph }
    }

    fn round(&self) -> Vec<CellRun> {
        let (feat, classes) = (self.spec.rmat.feature_dim, self.spec.rmat.num_classes);
        let cfg = self.cfg();
        Self::cells()
            .map(|(kind, fw)| {
                let mut rng = self.rng();
                let (out, wall_s) = timed(|| match fw {
                    Fw::Pyg => {
                        let model =
                            build::node_model_rustyg(ModelKind::Sage, feat, classes, &mut rng);
                        run_sampled_task(&model, &self.pyg_loader(kind), &cfg)
                    }
                    Fw::Dgl => {
                        let model = build::node_model_rgl(ModelKind::Sage, feat, classes, &mut rng);
                        run_sampled_task(&model, &self.dgl_loader(kind), &cfg)
                    }
                });
                cell_run(kind, fw, wall_s, cfg.train_seeds, &out)
            })
            .collect()
    }

    fn unrolled(&self, t: &Tracer) -> Unrolled {
        let (feat, classes) = (self.spec.rmat.feature_dim, self.spec.rmat.num_classes);
        let cfg = self.cfg();
        let mut un = Unrolled {
            comparable_steps: true,
            ..Unrolled::default()
        };
        let mut last = (0.0, 0.0);
        let mut hit_rates = Vec::new();
        for (kind, fw) in Self::cells() {
            t.set_cell(&cell_name(kind, fw));
            let ((out, losses, hit_rate), wall_s) = timed(|| {
                t.scope("cell", || {
                    let mut rng = self.rng();
                    match fw {
                        Fw::Pyg => {
                            let model = t.scope("models.build", || {
                                build::node_model_rustyg(ModelKind::Sage, feat, classes, &mut rng)
                            });
                            let loader = self.pyg_loader(kind);
                            let (out, losses) = sampled_loop(t, fw, &model, &loader, &cfg);
                            (out, losses, loader.cache_hit_rate())
                        }
                        Fw::Dgl => {
                            let model = t.scope("models.build", || {
                                build::node_model_rgl(ModelKind::Sage, feat, classes, &mut rng)
                            });
                            let loader = self.dgl_loader(kind);
                            let (out, losses) = sampled_loop(t, fw, &model, &loader, &cfg);
                            (out, losses, loader.cache_hit_rate())
                        }
                    }
                })
            });
            last = (f64::from(*losses.last().expect("one step")), out.test_acc);
            hit_rates.push(hit_rate);
            un.cells
                .push(cell_run(kind, fw, wall_s, cfg.train_seeds, &out));
            un.losses.push(losses);
        }

        // The sampler alone, outside any cell: the loaders call it inside
        // `try_load_block`, where it cannot be told apart from collation.
        t.set_cell("sampler");
        let pool = self.graph.seed_pool(cfg.train_seeds, TRAIN_POOL_SALT);
        for (kind, name) in [
            (SamplerKind::Neighbor, "sample.sample_block.neighbor"),
            (SamplerKind::LayerWise, "sample.sample_block.layerwise"),
        ] {
            for chunk in pool.chunks(cfg.batch_seeds) {
                let block = t.scope(name, || {
                    sample_block(&self.graph, chunk, &self.spec.fanouts, kind, 0)
                });
                std::hint::black_box(block.expect("pool seeds are in range"));
            }
        }

        un.values.push(("train.final_loss", last.0));
        un.values.push(("train.test_acc", last.1));
        un.values.push((
            "device.cache_hit_rate",
            hit_rates.iter().sum::<f64>() / hit_rates.len() as f64,
        ));
        un
    }
}

/// `gnn_train::run_sampled_task`, statement for statement, with a span
/// around each call into a layer. Returns the outcome and every step's loss.
fn sampled_loop<L: SampledLoader>(
    t: &Tracer,
    fw: Fw,
    model: &GnnStack<L::Batch>,
    loader: &L,
    cfg: &SampledTaskConfig,
) -> (NodeOutcome, Vec<f32>) {
    let handle =
        gnn_device::session::install(gnn_device::Session::new(gnn_device::default_cost_model()));
    gnn_device::with(|s| {
        s.alloc_persistent(2 * model.param_bytes() + loader.resident_bytes());
    });
    let mut opt = Adam::new(model.params(), cfg.lr);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut order = loader.seed_pool(cfg.train_seeds, TRAIN_POOL_SALT);
    let val_pool = loader.seed_pool(cfg.eval_seeds, VAL_POOL_SALT);
    let test_pool = loader.seed_pool(cfg.eval_seeds, TEST_POOL_SALT);

    let mut best_val = 0.0f64;
    let mut test_at_best = 0.0f64;
    let mut epoch_times = Vec::with_capacity(cfg.max_epochs);
    let mut last_mark = 0.0f64;
    let mut losses = Vec::new();

    for epoch in 0..cfg.max_epochs as u64 {
        order.shuffle(&mut rng);
        for chunk in order.chunks(cfg.batch_seeds) {
            let batch = t.scope("train.data_load", || {
                gnn_device::set_phase(Phase::DataLoad);
                t.scope(fw.sampled_load(), || loader.load(chunk, epoch))
            });
            let loss = t.scope("train.forward", || {
                gnn_device::set_phase(Phase::Forward);
                let logits = t.scope(fw.forward(), || model.forward(&batch, true));
                t.scope("tensor.loss", || {
                    let ids: Ids = Rc::new((0..chunk.len() as u32).collect());
                    let labels: Vec<u32> = batch.labels()[..chunk.len()].to_vec();
                    cross_entropy(&logits.gather_rows(&ids), &labels)
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
            losses.push(loss.item());
        }

        t.scope("train.eval", || {
            gnn_device::set_phase(Phase::Other);
            let salt = EVAL_SALT + epoch;
            let val_acc = eval_sampled(t, fw, model, loader, &val_pool, cfg.batch_seeds, salt);
            let val_acc = val_acc * 100.0;
            if val_acc > best_val {
                best_val = val_acc;
                test_at_best =
                    eval_sampled(t, fw, model, loader, &test_pool, cfg.batch_seeds, salt) * 100.0;
            }
            gnn_device::with(|s| s.end_step());
        });

        let mut now = 0.0;
        gnn_device::with(|s| now = s.now());
        epoch_times.push(now - last_mark);
        last_mark = now;
    }

    let report = gnn_device::session::finish(handle);
    let total_time: f64 = epoch_times.iter().sum();
    let outcome = NodeOutcome {
        test_acc: test_at_best,
        best_val_acc: best_val,
        epochs: cfg.max_epochs,
        epoch_time: total_time / cfg.max_epochs.max(1) as f64,
        total_time,
        report,
    };
    (outcome, losses)
}

/// `gnn_train::sampled_task::eval_sampled` with spans.
fn eval_sampled<L: SampledLoader>(
    t: &Tracer,
    fw: Fw,
    model: &GnnStack<L::Batch>,
    loader: &L,
    pool: &[u32],
    batch_seeds: usize,
    salt: u64,
) -> f64 {
    let mut correct_weighted = 0.0f64;
    let mut total = 0usize;
    for chunk in pool.chunks(batch_seeds) {
        let batch = t.scope(fw.sampled_load(), || loader.load(chunk, salt));
        let logits = t.scope(fw.eval_forward(), || {
            gnn_tensor::no_grad(|| model.forward(&batch, false))
        });
        let ids: Ids = Rc::new((0..chunk.len() as u32).collect());
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
