//! Property tests for the robustness layer.
//!
//! Two invariants hold for *every* seed and split point, not just the
//! hand-picked ones in the unit tests:
//!
//! 1. **Fault transparency** — a seeded [`FaultPlan`] contains only
//!    transient faults, so a supervisor that retries them must finish with
//!    metrics bit-identical to the fault-free run (timing is allowed to
//!    differ; the backoff and straggler delays are real).
//! 2. **Resume reproducibility** — training to any epoch, "dying", and
//!    resuming from the checkpoint file on a fresh model reproduces the
//!    uninterrupted run's loss curve and accuracies exactly, including the
//!    shuffle order of mini-batch (graph) training.

use gnn_datasets::{stratified_kfold, CitationSpec, TudSpec};
use gnn_faults::FaultPlan;
use gnn_models::adapt::RustygLoader;
use gnn_models::{build, ModelKind};
use gnn_train::{
    run_graph_fold_supervised, run_node_task_supervised, FoldOutcome, GraphTaskConfig, NodeOutcome,
    NodeTaskConfig, Supervised, Supervisor,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn node_run(
    plan: Option<FaultPlan>,
    sup: &Supervisor,
    max_epochs: usize,
) -> Supervised<NodeOutcome> {
    let ds = CitationSpec::cora().scaled(0.08).generate(7);
    let mut rng = StdRng::seed_from_u64(7);
    let model = build::node_model_rustyg(ModelKind::Gcn, 1433, 7, &mut rng);
    let batch = rustyg::loader::full_graph_batch(&ds);
    let cfg = NodeTaskConfig {
        max_epochs,
        lr: 0.01,
    };
    let handle = plan.map(gnn_faults::install);
    let out = run_node_task_supervised(&model, &batch, &ds, &cfg, sup).expect("run survives");
    if let Some(h) = handle {
        gnn_faults::finish(h);
    }
    out
}

fn graph_run(
    plan: Option<FaultPlan>,
    sup: &Supervisor,
    max_epochs: usize,
) -> Supervised<FoldOutcome> {
    let ds = TudSpec::enzymes().scaled(0.15).generate(8);
    let folds = stratified_kfold(&ds.labels(), 10, 8);
    let mut rng = StdRng::seed_from_u64(8);
    let model = build::graph_model_rustyg(ModelKind::Gcn, 18, 6, &mut rng);
    let loader = RustygLoader::new(&ds);
    let cfg = GraphTaskConfig {
        batch_size: 16,
        init_lr: 1e-3,
        patience: 5,
        decay_factor: 0.5,
        min_lr: 1e-6,
        max_epochs,
        seed: 8,
        shuffle: true,
    };
    let handle = plan.map(gnn_faults::install);
    let out = run_graph_fold_supervised(&model, &loader, &folds[0], &cfg, sup).expect("survives");
    if let Some(h) = handle {
        gnn_faults::finish(h);
    }
    out
}

/// A throwaway checkpoint path unique to this test case.
fn ckpt_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("gnn-faults-proptests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{tag}.ckpt"));
    let _ = std::fs::remove_file(&path);
    path
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Any seeded plan (one-shot OOM, kernel fault, NaN poisoning at
    /// arbitrary deterministic trigger points) leaves the node task's
    /// metrics bit-identical to the fault-free run.
    #[test]
    fn seeded_plans_are_metric_transparent_on_node_tasks(seed in 0u64..10_000) {
        let clean = node_run(None, &Supervisor::default(), 4);
        let faulted = node_run(Some(FaultPlan::seeded(seed)), &Supervisor::default(), 4);
        prop_assert_eq!(&clean.losses, &faulted.losses, "loss curves diverged");
        prop_assert_eq!(clean.outcome.test_acc, faulted.outcome.test_acc);
        prop_assert_eq!(clean.outcome.best_val_acc, faulted.outcome.best_val_acc);
        prop_assert_eq!(clean.outcome.epochs, faulted.outcome.epochs);
        prop_assert!(!faulted.degraded, "transient faults must not degrade the run");
    }

    /// Same transparency on mini-batch graph training, where retried steps
    /// additionally interact with the shuffle order and BN running stats.
    #[test]
    fn seeded_plans_are_metric_transparent_on_graph_folds(seed in 0u64..10_000) {
        let clean = graph_run(None, &Supervisor::default(), 3);
        let faulted = graph_run(Some(FaultPlan::seeded(seed)), &Supervisor::default(), 3);
        prop_assert_eq!(&clean.losses, &faulted.losses, "loss curves diverged");
        prop_assert_eq!(clean.outcome.test_acc, faulted.outcome.test_acc);
        prop_assert_eq!(clean.outcome.epochs, faulted.outcome.epochs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    /// Checkpointing at any epoch and resuming on a fresh model reproduces
    /// the uninterrupted node run exactly.
    #[test]
    fn node_resume_is_bit_identical_at_any_split(split in 1usize..6) {
        let path = ckpt_path(&format!("node-split-{split}"));
        let full = node_run(None, &Supervisor::default(), 6);
        let sup = Supervisor::default().with_checkpoint(&path);
        node_run(None, &sup, split); // the "killed" run
        let resumed = node_run(None, &sup.clone().with_resume(true), 6);
        prop_assert_eq!(&full.losses, &resumed.losses, "loss curves diverged");
        prop_assert_eq!(full.outcome.test_acc, resumed.outcome.test_acc);
        prop_assert_eq!(full.outcome.best_val_acc, resumed.outcome.best_val_acc);
        // Timing too: the checkpoint carries the device clock, so even the
        // measured durations must match bit-for-bit.
        prop_assert_eq!(
            full.outcome.total_time.to_bits(),
            resumed.outcome.total_time.to_bits(),
            "total_time diverged"
        );
        prop_assert_eq!(
            full.outcome.epoch_time.to_bits(),
            resumed.outcome.epoch_time.to_bits(),
            "epoch_time diverged"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// The graph-task variant: the resumed run must also reconstruct the
    /// epoch shuffle order it would have used, not just the parameters.
    #[test]
    fn graph_resume_is_bit_identical_at_any_split(split in 1usize..4) {
        let path = ckpt_path(&format!("graph-split-{split}"));
        let full = graph_run(None, &Supervisor::default(), 4);
        let sup = Supervisor::default().with_checkpoint(&path);
        graph_run(None, &sup, split); // the "killed" run
        let resumed = graph_run(None, &sup.clone().with_resume(true), 4);
        prop_assert_eq!(&full.losses, &resumed.losses, "loss curves diverged");
        prop_assert_eq!(full.outcome.test_acc, resumed.outcome.test_acc);
        prop_assert_eq!(full.outcome.epochs, resumed.outcome.epochs);
        prop_assert_eq!(
            full.outcome.total_time.to_bits(),
            resumed.outcome.total_time.to_bits(),
            "total_time diverged"
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// Resuming a run that already finished must not train further — the
/// metrics come straight out of the checkpoint, byte-identical.
#[test]
fn resuming_a_finished_run_is_a_no_op() {
    let path = ckpt_path("node-finished");
    let sup = Supervisor::default().with_checkpoint(&path);
    let full = node_run(None, &sup, 5);
    let resumed = node_run(None, &sup.clone().with_resume(true), 5);
    assert_eq!(full.losses, resumed.losses);
    assert_eq!(full.outcome.test_acc, resumed.outcome.test_acc);
    assert_eq!(
        full.outcome.total_time.to_bits(),
        resumed.outcome.total_time.to_bits()
    );
    assert_eq!(
        full.outcome.epoch_time.to_bits(),
        resumed.outcome.epoch_time.to_bits()
    );
    let _ = std::fs::remove_file(&path);
}
