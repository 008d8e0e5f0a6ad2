//! Ablation: kernel-launch overhead vs GPU utilization.
//!
//! The paper's Section IV-D asks why GNN utilization is so low. This
//! ablation holds the workload fixed (one GCN training batch on ENZYMES)
//! and sweeps the host's kernel-launch overhead in the cost model: GNN
//! training is *launch-bound* — utilization rises sharply as launches get
//! cheaper, which is exactly why kernel fusion and CUDA-graph-style
//! batched launch are the optimizations that matter for GNNs.

use gnn_models::adapt::RustygLoader;
use gnn_models::{build, Loader, ModelKind};
use gnn_tensor::cross_entropy;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cfg = gnn_bench::args(env!("CARGO_BIN_NAME")).run_config();
    let ds = gnn_core::runner::GraphDs::Enzymes.generate(&cfg);
    let loader = RustygLoader::new(&ds);
    let idx: Vec<u32> = (0..64u32.min(ds.samples.len() as u32)).collect();

    println!("Ablation — launch overhead vs utilization (GCN, one training batch)\n");
    println!(
        "{:>12} {:>12} {:>10}",
        "launch cost", "batch time", "gpu util"
    );

    for launch_us in [0.5f64, 1.0, 2.0, 4.0, 6.0, 10.0, 20.0] {
        let model = gnn_device::CostModel::builder()
            .launch_overhead(launch_us * 1e-6)
            .build();
        let handle = gnn_device::session::install(gnn_device::Session::new(model));
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let stack =
            build::graph_model_rustyg(ModelKind::Gcn, ds.feature_dim, ds.num_classes, &mut rng);
        let batch = loader.load(&idx);
        let logits = stack.forward(&batch, true);
        cross_entropy(&logits, &batch.labels).backward();
        let report = gnn_device::session::finish(handle);
        println!(
            "{launch_us:>10.1}us {:>10.2}ms {:>9.1}%",
            report.total_time * 1e3,
            report.utilization() * 100.0
        );
    }
    println!();
    println!("Same kernels, same math — only the launch cost moves. GNN training");
    println!("is launch-bound at CUDA's ~6us, which caps utilization (Fig. 5).");
}
