//! Ablation: standard per-epoch collation vs pre-collated (cached) batches.
//!
//! The paper's conclusion argues "more efficient graph batching strategies
//! will greatly speed up GNN training". This ablation quantifies the claim:
//! the same GCN trained on ENZYMES with the ordinary PyG-style loader and
//! with a pre-collating loader that replays device-resident batches. The
//! data-loading phase collapses, epoch time drops by its share, and GPU
//! utilization rises.

use gnn_datasets::stratified_kfold;
use gnn_models::adapt::{CachedRustygLoader, RustygLoader};
use gnn_models::{build, ModelKind};
use gnn_train::{run_graph_fold, GraphTaskConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cfg = gnn_bench::args(env!("CARGO_BIN_NAME")).run_config();
    let ds = gnn_core::runner::GraphDs::Enzymes.generate(&cfg);
    let folds = stratified_kfold(&ds.labels(), 10, cfg.seed);
    let fold = &folds[0];

    println!(
        "Ablation — batching strategy (GCN on ENZYMES, scale = {})\n",
        cfg.scale
    );
    println!(
        "{:<14} {:>10} {:>11} {:>10} {:>9}",
        "loader", "epoch", "data_load", "compute", "gpu util"
    );

    let task = GraphTaskConfig {
        batch_size: 64.min(fold.train.len().max(1)),
        init_lr: 1e-3,
        patience: 1000,
        decay_factor: 0.5,
        min_lr: 1e-9,
        max_epochs: cfg.graph_epochs.clamp(2, 4),
        seed: cfg.seed,
        shuffle: true,
    };

    let mut standard_epoch = 0.0;
    for (name, cached) in [("standard", false), ("pre-collated", true)] {
        let mut rng = StdRng::seed_from_u64(cfg.seed + 1);
        let model =
            build::graph_model_rustyg(ModelKind::Gcn, ds.feature_dim, ds.num_classes, &mut rng);
        let out = if cached {
            let loader = CachedRustygLoader::new(&ds);
            run_graph_fold(&model, &loader, fold, &task)
        } else {
            let loader = RustygLoader::new(&ds);
            run_graph_fold(&model, &loader, fold, &task)
        };
        let e = out.epochs.max(1) as f64;
        let load = out.report.phase_times[0] / e;
        let compute = (out.report.phase_times[1] + out.report.phase_times[2]) / e;
        println!(
            "{name:<14} {:>8.1}ms {:>9.1}ms {:>8.1}ms {:>8.1}%",
            out.epoch_time * 1e3,
            load * 1e3,
            compute * 1e3,
            out.report.utilization() * 100.0
        );
        if !cached {
            standard_epoch = out.epoch_time;
        } else {
            println!(
                "\npre-collation speeds the epoch up {:.2}x — the paper's suggested win.",
                standard_epoch / out.epoch_time
            );
        }
    }
}
