//! Cross-commit golden digests for the training loops.
//!
//! `crates/train/tests/faults.rs` compares two runs of the *same* build;
//! these constants pin the training computation across builds. For every
//! task kind × framework, on a fixture small enough for tier-1, four
//! FNV-1a digests:
//!
//! - **plain** — the unsupervised entry point: every outcome field and
//!   every `DeviceReport` field *except* `peak_memory` (when these
//!   constants were captured the plain node and sampled loops were separate
//!   code that released step memory later than their supervised twins; now
//!   that they are the same loop the peaks are asserted equal instead);
//! - **clean** — the supervised entry point under `Supervisor::default()`:
//!   everything, `peak_memory`, `losses`, `retries`, `degraded` and `notes`
//!   included;
//! - **chaos** — the same under `FaultPlan::canonical()`;
//! - **resumed** — the same, killed at an epoch and resumed on a fresh
//!   model from its `gnn-ckpt` file.
//!
//! A refactor of `gnn-train` that moves any of these by one bit fails
//! `cargo test -q`. A deliberate behaviour change re-captures them (the
//! failure message prints the new values).

use std::rc::Rc;

use gnn_datasets::{stratified_kfold, CitationSpec, TudSpec};
use gnn_device::DeviceReport;
use gnn_faults::FaultPlan;
use gnn_models::adapt::{RglLoader, RustygLoader};
use gnn_models::{build, ModelKind};
use gnn_sample::{RmatGraph, SampleSpec, SamplerKind};
use gnn_train::{
    run_graph_fold, run_graph_fold_supervised, run_node_task, run_node_task_supervised,
    run_sampled_task, run_sampled_task_supervised, FoldOutcome, GraphTaskConfig, NodeOutcome,
    NodeTaskConfig, SampledTaskConfig, Supervised, Supervisor,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        s.bytes().for_each(|b| self.u64(u64::from(b)));
    }

    fn report(&mut self, r: &DeviceReport, with_peak: bool) {
        self.f64(r.total_time);
        self.f64(r.busy_time);
        self.u64(r.kernel_count);
        r.phase_times.iter().for_each(|t| self.f64(*t));
        if with_peak {
            self.u64(r.peak_memory);
        }
        self.u64(r.persistent_memory);
        for (name, t) in &r.scopes {
            self.str(name);
            self.f64(*t);
        }
        for (kind, launches) in &r.kind_counts {
            self.str(kind.label());
            self.u64(*launches);
        }
        for p in &r.profile {
            self.str(p.kind.label());
            self.u64(p.launches);
            self.u64(p.flops);
            self.u64(p.bytes);
            self.f64(p.device_time);
        }
        self.u64(r.total_flops);
        self.u64(r.total_bytes);
        self.f64(r.peak_flops);
        self.f64(r.peak_bw);
    }
}

/// What the two outcome types share, for hashing.
trait Outcome {
    fn hash(&self, h: &mut Fnv, with_peak: bool);
    fn peak_memory(&self) -> u64;
}

impl Outcome for NodeOutcome {
    fn hash(&self, h: &mut Fnv, with_peak: bool) {
        h.f64(self.test_acc);
        h.f64(self.best_val_acc);
        h.u64(self.epochs as u64);
        h.f64(self.epoch_time);
        h.f64(self.total_time);
        h.report(&self.report, with_peak);
    }

    fn peak_memory(&self) -> u64 {
        self.report.peak_memory
    }
}

impl Outcome for FoldOutcome {
    fn hash(&self, h: &mut Fnv, with_peak: bool) {
        h.f64(self.test_acc);
        h.u64(self.epochs as u64);
        h.f64(self.epoch_time);
        h.f64(self.total_time);
        h.report(&self.report, with_peak);
    }

    fn peak_memory(&self) -> u64 {
        self.report.peak_memory
    }
}

fn plain_digest<O: Outcome>(o: &O) -> u64 {
    let mut h = Fnv::new();
    o.hash(&mut h, false);
    h.0
}

fn supervised_digest<O: Outcome>(s: &Supervised<O>) -> u64 {
    let mut h = Fnv::new();
    s.outcome.hash(&mut h, true);
    h.u64(u64::from(s.degraded));
    h.u64(s.retries as u64);
    h.u64(s.notes.len() as u64);
    s.notes.iter().for_each(|n| h.str(n));
    h.u64(s.losses.len() as u64);
    s.losses.iter().for_each(|l| h.f64(*l));
    h.0
}

/// The four digests of one fixture. `run(epochs, None)` is the plain entry
/// point (wrapped so both arms return one type); `run(epochs, Some(sup))`
/// the supervised one. Every call builds a fresh model.
fn digests<O: Outcome>(
    name: &str,
    epochs: usize,
    kill_at: usize,
    run: impl Fn(usize, Option<&Supervisor>) -> Supervised<O>,
) -> (String, [u64; 4]) {
    let plain = run(epochs, None);
    let clean = run(epochs, Some(&Supervisor::default()));

    let handle = gnn_faults::install(FaultPlan::canonical());
    let chaos = run(epochs, Some(&Supervisor::default()));
    let log = gnn_faults::finish(handle);
    assert!(!log.is_empty(), "{name}: the canonical plan never fired");
    assert!(chaos.retries > 0, "{name}: nothing was retried");

    let dir = std::env::temp_dir().join("gnn-training-golden");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{}.ckpt", name.replace('/', "_")));
    let _ = std::fs::remove_file(&path);
    let sup = Supervisor::default().with_checkpoint(&path);
    run(kill_at, Some(&sup));
    let resumed = run(epochs, Some(&sup.clone().with_resume(true)));
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        clean.losses, resumed.losses,
        "{name}: resume moved the loss"
    );
    assert_eq!(
        plain.outcome.peak_memory(),
        clean.outcome.peak_memory(),
        "{name}: the plain entry point must report its supervised twin's peak"
    );

    (
        name.to_owned(),
        [
            plain_digest(&plain.outcome),
            supervised_digest(&clean),
            supervised_digest(&chaos),
            supervised_digest(&resumed),
        ],
    )
}

/// Wraps a plain outcome so a fixture closure has one return type.
fn unsupervised<O>(outcome: O) -> Supervised<O> {
    Supervised {
        outcome,
        degraded: false,
        retries: 0,
        notes: Vec::new(),
        losses: Vec::new(),
    }
}

fn assert_golden(got: &[(String, [u64; 4])], want: &[(&str, [u64; 4])]) {
    let show = |name: &str, d: &[u64; 4]| {
        format!(
            "(\"{name}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}])",
            d[0], d[1], d[2], d[3]
        )
    };
    let got: Vec<String> = got.iter().map(|(n, d)| show(n, d)).collect();
    let want: Vec<String> = want.iter().map(|(n, d)| show(n, d)).collect();
    assert_eq!(
        got, want,
        "training digests [plain, clean, chaos, resumed] moved across commits"
    );
}

#[test]
fn node_task_digests_are_pinned() {
    let ds = CitationSpec::cora().scaled(0.08).generate(7);
    let (f, c) = (ds.features.cols(), ds.num_classes);
    let cfg = |max_epochs| NodeTaskConfig {
        max_epochs,
        lr: 0.01,
    };
    let got = [
        digests("node/GCN/rustyg", 4, 2, |epochs, sup| {
            let model =
                build::node_model_rustyg(ModelKind::Gcn, f, c, &mut StdRng::seed_from_u64(7));
            let batch = rustyg::loader::full_graph_batch(&ds);
            match sup {
                None => unsupervised(run_node_task(&model, &batch, &ds, &cfg(epochs))),
                Some(sup) => {
                    run_node_task_supervised(&model, &batch, &ds, &cfg(epochs), sup).unwrap()
                }
            }
        }),
        digests("node/GAT/rgl", 4, 2, |epochs, sup| {
            let model = build::node_model_rgl(ModelKind::Gat, f, c, &mut StdRng::seed_from_u64(7));
            let batch = rgl::loader::full_graph_batch(&ds);
            match sup {
                None => unsupervised(run_node_task(&model, &batch, &ds, &cfg(epochs))),
                Some(sup) => {
                    run_node_task_supervised(&model, &batch, &ds, &cfg(epochs), sup).unwrap()
                }
            }
        }),
    ];
    assert_golden(
        &got,
        &[
            (
                "node/GCN/rustyg",
                [
                    0xad4e_b5ce_7fb3_7655,
                    0xb57e_65aa_3274_d99e,
                    0x5772_297b_ad44_e83b,
                    0xf9ca_7afd_5753_a7da,
                ],
            ),
            (
                "node/GAT/rgl",
                [
                    0xd140_d08d_d19d_40d3,
                    0x3f1f_1d38_e2cb_06bb,
                    0xa0fc_d435_a1a9_230a,
                    0x1d39_d01f_9451_47a2,
                ],
            ),
        ],
    );
}

#[test]
fn graph_fold_digests_are_pinned() {
    let ds = TudSpec::enzymes().scaled(0.15).generate(8);
    let folds = stratified_kfold(&ds.labels(), 10, 8);
    let (f, c) = (ds.feature_dim, ds.num_classes);
    let cfg = |max_epochs| GraphTaskConfig {
        batch_size: 16,
        init_lr: 1e-3,
        patience: 5,
        decay_factor: 0.5,
        min_lr: 1e-6,
        max_epochs,
        seed: 8,
        shuffle: true,
    };
    let got = [
        digests("graph/GIN/rustyg", 3, 2, |epochs, sup| {
            let model =
                build::graph_model_rustyg(ModelKind::Gin, f, c, &mut StdRng::seed_from_u64(8));
            let loader = RustygLoader::new(&ds);
            match sup {
                None => unsupervised(run_graph_fold(&model, &loader, &folds[0], &cfg(epochs))),
                Some(sup) => {
                    run_graph_fold_supervised(&model, &loader, &folds[0], &cfg(epochs), sup)
                        .unwrap()
                }
            }
        }),
        digests("graph/GatedGCN/rgl", 3, 1, |epochs, sup| {
            let model =
                build::graph_model_rgl(ModelKind::GatedGcn, f, c, &mut StdRng::seed_from_u64(8));
            let loader = RglLoader::new(&ds);
            match sup {
                None => unsupervised(run_graph_fold(&model, &loader, &folds[0], &cfg(epochs))),
                Some(sup) => {
                    run_graph_fold_supervised(&model, &loader, &folds[0], &cfg(epochs), sup)
                        .unwrap()
                }
            }
        }),
    ];
    assert_golden(
        &got,
        &[
            (
                "graph/GIN/rustyg",
                [
                    0x3795_2023_35ba_3386,
                    0xc65e_d3fa_ab15_3ae8,
                    0xf829_1537_1b7b_391e,
                    0xaa82_ae7b_3183_d692,
                ],
            ),
            (
                "graph/GatedGCN/rgl",
                [
                    0x92ea_edce_e954_5848,
                    0xa7a9_ba4b_0e30_6595,
                    0x9828_4e1c_e640_e7fb,
                    0x47a0_c08b_a9d2_760b,
                ],
            ),
        ],
    );
}

#[test]
fn sampled_task_digests_are_pinned() {
    let spec = SampleSpec::get("rmat-4k").unwrap();
    let graph = Rc::new(RmatGraph::generate(spec.rmat).unwrap());
    let (f, c) = (spec.rmat.feature_dim, spec.rmat.num_classes);
    let cfg = |max_epochs| SampledTaskConfig {
        max_epochs,
        ..SampledTaskConfig::quick(32, 5)
    };
    let got = [
        digests("sampled/neighbor/rustyg", 3, 1, |epochs, sup| {
            let model =
                build::node_model_rustyg(ModelKind::Sage, f, c, &mut StdRng::seed_from_u64(5));
            let loader =
                rustyg::sampled::SampledLoader::new(graph.clone(), &spec, SamplerKind::Neighbor)
                    .unwrap();
            match sup {
                None => unsupervised(run_sampled_task(&model, &loader, &cfg(epochs))),
                Some(sup) => {
                    run_sampled_task_supervised(&model, &loader, &cfg(epochs), sup).unwrap()
                }
            }
        }),
        digests("sampled/layerwise/rgl", 3, 2, |epochs, sup| {
            let model = build::node_model_rgl(ModelKind::Sage, f, c, &mut StdRng::seed_from_u64(5));
            let loader =
                rgl::sampled::SampledLoader::new(graph.clone(), &spec, SamplerKind::LayerWise)
                    .unwrap();
            match sup {
                None => unsupervised(run_sampled_task(&model, &loader, &cfg(epochs))),
                Some(sup) => {
                    run_sampled_task_supervised(&model, &loader, &cfg(epochs), sup).unwrap()
                }
            }
        }),
    ];
    assert_golden(
        &got,
        &[
            (
                "sampled/neighbor/rustyg",
                [
                    0x77eb_34fb_3916_e2e8,
                    0xbbca_f5e8_5a37_04f7,
                    0xe572_ca58_52ef_a317,
                    0x6069_e4b3_0eee_975c,
                ],
            ),
            (
                "sampled/layerwise/rgl",
                [
                    0x835a_08d1_5ac2_9847,
                    0xefdd_20d8_afe2_bfbd,
                    0xc3c3_3542_9a62_ba6d,
                    0x8c62_cda7_3249_ac2f,
                ],
            ),
        ],
    );
}
