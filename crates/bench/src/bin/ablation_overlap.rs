//! Ablation: overlapping data loading with device compute.
//!
//! The paper's Section IV-D points out that low GPU utilization means
//! "further improvement can be achieved by overlapping CPU runtime or data
//! communication with GPU execution". This ablation measures each model's
//! per-batch load and compute cost on ENZYMES under both frameworks and
//! reports the epoch time with and without a double-buffered prefetch
//! pipeline.

use gnn_core::runner::GraphDs;
use gnn_device::pipeline::{pipeline_speedup, pipelined_epoch_time, serial_epoch_time};
use gnn_models::{GnnStack, Loader, ModelBatch};
use gnn_tensor::cross_entropy;
use gnn_train::cell::{with_graph_stack, GraphJob};

/// One batch's `(load, compute)` simulated seconds.
struct Measure<'a>(&'a [u32]);

impl GraphJob for Measure<'_> {
    type Out = (f64, f64);

    fn run<L: Loader>(self, stack: &GnnStack<L::Batch>, loader: &L) -> (f64, f64) {
        let h = gnn_device::session::install(gnn_device::Session::new(
            gnn_device::CostModel::rtx2080ti(),
        ));
        let batch = loader.load(self.0);
        let mut load = 0.0;
        gnn_device::with(|s| load = s.now());
        let logits = stack.forward(&batch, true);
        cross_entropy(&logits, batch.labels()).backward();
        let report = gnn_device::session::finish(h);
        (load, report.total_time - load)
    }
}

fn main() {
    let cfg = gnn_bench::args(env!("CARGO_BIN_NAME")).run_config();
    let ds = GraphDs::Enzymes.generate(&cfg);
    let batch: Vec<u32> = (0..64u32.min(ds.samples.len() as u32)).collect();
    let n_batches = 8;

    println!(
        "Ablation — prefetch overlap on ENZYMES (batch {}, {} batches/epoch)\n",
        batch.len(),
        n_batches
    );
    println!(
        "{:<10} {:<5} {:>9} {:>10} {:>11} {:>11} {:>8}",
        "model", "fw", "load", "compute", "serial", "pipelined", "speedup"
    );
    for model in gnn_models::config::ALL_MODELS {
        for fw in gnn_models::config::ALL_FRAMEWORKS {
            let (load, compute) = with_graph_stack(fw, model, &ds, cfg.seed, Measure(&batch));
            println!(
                "{:<10} {:<5} {:>7.1}ms {:>8.1}ms {:>9.1}ms {:>9.1}ms {:>7.2}x",
                model.label(),
                fw.label(),
                load * 1e3,
                compute * 1e3,
                serial_epoch_time(load, compute, n_batches) * 1e3,
                pipelined_epoch_time(load, compute, n_batches) * 1e3,
                pipeline_speedup(load, compute, n_batches)
            );
        }
    }
    println!();
    println!("Loading dominates, so the pipeline hides most of the compute — but");
    println!("the loader itself remains the bottleneck: pre-collation (see");
    println!("ablation_batching) attacks the root cause, prefetch only the overlap.");
}
