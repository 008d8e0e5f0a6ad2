//! Framework face-off: the same GatedGCN model trained on the same batches
//! under both frameworks, with the full epoch-time breakdown — a miniature
//! of the paper's Figs. 1–2 plus its sharpest finding, the GatedGCN gap.
//!
//! ```sh
//! cargo run --release --example framework_faceoff
//! ```

use gnn_core::export::PROFILE;
use gnn_core::runner::GraphDs;
use gnn_core::{runner, RunConfig};
use gnn_models::{FrameworkKind, ModelKind};

fn main() {
    let mut cfg = RunConfig::quick().with_scale(0.2);
    cfg.batch_sizes = [32, 64, 128];
    cfg.graph_epochs = 2;

    println!("Profiling all models on ENZYMES (scale 0.2)...\n");
    let rows = runner::profile_sweep(&cfg, GraphDs::Enzymes);
    print!("{}", PROFILE.text(&rows));

    // Zoom in on the paper's sharpest finding: GatedGCN under DGL.
    let gated = |fw: FrameworkKind| {
        rows.iter()
            .find(|r| r.model == ModelKind::GatedGcn && r.framework == fw && r.batch_size == 64)
            .expect("profiled row")
    };
    let pyg = gated(FrameworkKind::RustyG);
    let dgl = gated(FrameworkKind::Rgl);
    println!();
    println!(
        "GatedGCN @ batch 64: DGL epoch = {:.1} ms vs PyG {:.1} ms ({:.2}x) —",
        dgl.epoch_time() * 1e3,
        pyg.epoch_time() * 1e3,
        dgl.epoch_time() / pyg.epoch_time()
    );
    println!("DGL updates an explicit edge-feature tensor through a fully connected");
    println!("layer every layer (paper Section IV-A, observation 3).");
    println!(
        "Peak memory: DGL {:.1} MB vs PyG {:.1} MB.",
        dgl.peak_memory as f64 / 1e6,
        pyg.peak_memory as f64 / 1e6
    );
}
