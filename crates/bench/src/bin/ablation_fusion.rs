//! Ablation: fused GSpMM vs gather+scatter as a function of feature width.
//!
//! DGL's key design bet is kernel fusion; PyG's is thin composable ops with
//! minimal dispatch. This ablation sweeps the feature width of one
//! aggregation over a fixed graph and reports where each lowering wins on
//! the simulated device: at narrow features the extra launch + dispatch
//! dominates (PyG-style wins); at wide features the fused kernel's lower
//! memory traffic wins — until DGL's dispatch overhead eats the margin.

use gnn_graph::Graph;
use gnn_tensor::{NdArray, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    gnn_bench::args(env!("CARGO_BIN_NAME"));
    let mut rng = StdRng::seed_from_u64(0);
    let nodes = 4096;
    let edges = 16384;
    let src: Vec<u32> = (0..edges).map(|_| rng.gen_range(0..nodes as u32)).collect();
    let dst: Vec<u32> = (0..edges).map(|_| rng.gen_range(0..nodes as u32)).collect();
    let g = Graph::new(nodes, src, dst);

    println!("Ablation — aggregation lowering vs feature width");
    println!("(graph: {nodes} nodes, {edges} edges; simulated device time)\n");
    println!(
        "{:>6} {:>14} {:>14} {:>8}",
        "width", "gather+scatter", "fused gspmm", "winner"
    );

    for width in [4usize, 16, 64, 128, 256, 512] {
        let feats = NdArray::from_vec(
            nodes,
            width,
            (0..nodes * width)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect(),
        );
        let pyg = rustyg::Batch::from_parts(&g, feats.clone(), vec![0; nodes], 1, vec![0]);
        let dgl = rgl::HeteroBatch::from_parts(&g, feats, vec![0; nodes], 1, vec![0]);

        let h = gnn_device::session::install(gnn_device::Session::new(
            gnn_device::CostModel::rtx2080ti(),
        ));
        let x = Tensor::new(pyg.x.data().clone());
        let _ = x
            .gather_rows(&pyg.src)
            .scatter_add_rows(&pyg.dst, pyg.num_nodes);
        let t_pyg = gnn_device::session::finish(h).total_time;

        let h = gnn_device::session::install(gnn_device::Session::new(
            gnn_device::CostModel::rtx2080ti(),
        ));
        let x = Tensor::new(dgl.x.data().clone());
        let _ = rgl::kernels::gspmm_copy_sum(&dgl, &x);
        let t_dgl = gnn_device::session::finish(h).total_time;

        println!(
            "{width:>6} {:>12.1}us {:>12.1}us {:>8}",
            t_pyg * 1e6,
            t_dgl * 1e6,
            if t_pyg < t_dgl { "unfused" } else { "fused" }
        );
    }
    println!();
    println!("The fused kernel's device-side win grows with width, but DGL's");
    println!("per-op dispatch keeps a fixed tax — the paper's observation that");
    println!("DGL's *key operations* can be faster while its layers are slower.");
}
