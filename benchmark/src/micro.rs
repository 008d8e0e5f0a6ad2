//! The fixed kernel micro-set, at the shapes the workloads use.
//!
//! Every traced run times it, whatever the workload: it reads the tensor,
//! graph, framework-kernel and device layers in isolation, so a layer
//! metric that moves here can be held against the end-to-end metric it is
//! predicted to move.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use gnn_datasets::TudSpec;
use gnn_device::{CostModel, FeatureCache, Session};
use gnn_graph::{disjoint_union, Graph};
use gnn_models::adapt::{Loader, RustygLoader};
use gnn_models::{build, ModelKind};
use gnn_tensor::{Ids, NdArray, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::summarize;

/// PubMed's feature matrix: rows, columns, share of non-zeros.
const TALL: (usize, usize, f64) = (19_717, 500, 0.10);
/// The message-passing shape: nodes, edges, feature width.
const MP: (usize, usize, usize) = (4096, 16_384, 64);

/// Median seconds of `reps` calls of `f`, after one call that warms caches
/// and the allocator.
fn median_s(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    summarize(&samples).median
}

fn dense(rows: usize, cols: usize, rng: &mut StdRng) -> NdArray {
    NdArray::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
    )
}

fn random_ids(len: usize, below: usize, rng: &mut StdRng) -> Ids {
    Rc::new((0..len).map(|_| rng.gen_range(0..below as u32)).collect())
}

/// Simulated seconds the default cost model charges for what `f` launches.
fn sim_s(f: impl FnOnce()) -> f64 {
    let handle = gnn_device::session::install(Session::new(CostModel::rtx2080ti()));
    f();
    gnn_device::session::finish(handle).total_time
}

/// Runs the micro-set on inputs made from `seed`.
pub fn run(seed: u64) -> Vec<(&'static str, f64)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d69_6372);
    let mut out = Vec::new();

    // --- tensor: GEMM in its three layouts -------------------------------
    let (m, k, density) = TALL;
    let mut tall = dense(m, k, &mut rng);
    for x in tall.data_mut() {
        if rng.gen_range(0.0f64..1.0) >= density {
            *x = 0.0;
        }
    }
    let w_tall = dense(k, 64, &mut rng);
    let s = median_s(5, || {
        black_box(tall.matmul(&w_tall));
    });
    // Dense-equivalent FLOPs: skipping zeros shows up as a higher rate.
    out.push((
        "tensor.matmul_gflops.sparse_tall",
        2.0 * (m * k * 64) as f64 / s / 1e9,
    ));
    drop((tall, w_tall));

    let a = dense(1024, 128, &mut rng);
    let b = dense(128, 128, &mut rng);
    let c = dense(1024, 128, &mut rng);
    let small_flops = 2.0 * (1024 * 128 * 128) as f64;
    let gemm_s = median_s(30, || {
        black_box(a.matmul(&b));
    });
    out.push((
        "tensor.matmul_gflops.dense_small",
        small_flops / gemm_s / 1e9,
    ));
    let s = median_s(30, || {
        black_box(a.matmul_nt(&b));
    });
    out.push(("tensor.matmul_nt_gflops", small_flops / s / 1e9));
    let s = median_s(30, || {
        black_box(a.matmul_tn(&c));
    });
    out.push(("tensor.matmul_tn_gflops", small_flops / s / 1e9));

    // --- tensor: indexed and normalising kernels --------------------------
    let (n, e, f) = MP;
    let x = Tensor::new(dense(n, f, &mut rng));
    let msgs = Tensor::new(dense(e, f, &mut rng));
    let src = random_ids(e, n, &mut rng);
    let dst = random_ids(e, n, &mut rng);
    let moved_gb = 2.0 * (e * f * 4) as f64 / 1e9;
    let gather_s = median_s(30, || {
        black_box(x.gather_rows(&src));
    });
    out.push(("tensor.gather_rows_gbps", moved_gb / gather_s));
    let scatter_s = median_s(30, || {
        black_box(msgs.scatter_add_rows(&dst, n));
    });
    out.push(("tensor.scatter_add_gbps", moved_gb / scatter_s));

    let scores = Tensor::new(dense(e, 8, &mut rng));
    let s = median_s(30, || {
        black_box(scores.segment_softmax(&dst, n));
    });
    out.push(("tensor.segment_softmax_us", s * 1e6));

    let gamma = Tensor::param(NdArray::full(1, f, 1.0));
    let beta = Tensor::param(NdArray::zeros(1, f));
    let s = median_s(30, || {
        black_box(x.batch_norm_train(&gamma, &beta, 1e-5).out);
    });
    out.push(("tensor.batch_norm_us", s * 1e6));

    // The fixed cost of one grad-tracked op: tape node, allocation, session
    // lookup. 1x8 operands make the arithmetic itself vanish.
    let p = Tensor::param(dense(1, 8, &mut rng));
    let q = Tensor::param(dense(1, 8, &mut rng));
    const OPS: usize = 2000;
    let s = median_s(15, || {
        for _ in 0..OPS {
            black_box(p.add(&q));
        }
    });
    out.push(("tensor.small_op_ns", s / OPS as f64 * 1e9));

    // --- graph -------------------------------------------------------------
    let graph = Graph::new(n, src.to_vec(), dst.to_vec());
    let s = median_s(30, || {
        black_box(graph.csc());
    });
    out.push(("graph.csc_us", s * 1e6));

    let tud = TudSpec::enzymes().scaled(0.05).generate(seed);
    let sixteen: Vec<&Graph> = tud.samples.iter().take(16).map(|g| &g.graph).collect();
    let s = median_s(50, || {
        black_box(disjoint_union(&sixteen));
    });
    out.push(("graph.disjoint_union_us", s * 1e6));

    // --- frameworks: one message-passing step, both ways -------------------
    let gs_s = median_s(30, || {
        black_box(x.gather_rows(&src).scatter_add_rows(&dst, n));
    });
    out.push(("rustyg.gather_scatter_us", gs_s * 1e6));
    let hetero = rgl::HeteroBatch::from_parts(&graph, x.data().clone(), vec![0; n], 1, vec![0; n]);
    let spmm_s = median_s(30, || {
        black_box(rgl::kernels::gspmm_copy_sum(&hetero, &x));
    });
    out.push(("rgl.gspmm_us", spmm_s * 1e6));

    // --- device: what the cost model charges against what the host took ----
    let (ta, tb) = (Tensor::new(a), Tensor::new(b));
    out.push((
        "device.sim_over_host.gemm",
        sim_s(|| drop(ta.matmul(&tb))) / gemm_s,
    ));
    out.push((
        "device.sim_over_host.gather",
        sim_s(|| drop(x.gather_rows(&src))) / gather_s,
    ));
    out.push((
        "device.sim_over_host.scatter",
        sim_s(|| drop(msgs.scatter_add_rows(&dst, n))) / scatter_s,
    ));
    out.push((
        "device.sim_over_host.spmm",
        sim_s(|| drop(rgl::kernels::gspmm_copy_sum(&hetero, &x))) / spmm_s,
    ));

    // The price of recording a kernel: the same no-grad forward with and
    // without a session installed, interleaved so drift hits both alike.
    let model = build::graph_model_rustyg(
        ModelKind::Gin,
        tud.feature_dim,
        tud.num_classes,
        &mut StdRng::seed_from_u64(seed),
    );
    let idx: Vec<u32> = (0..16).collect();
    let batch = RustygLoader::new(&tud).load(&idx);
    let forward = || {
        black_box(gnn_tensor::no_grad(|| model.forward(&batch, false)));
    };
    forward();
    let (mut with, mut without, mut kernels) = (Vec::new(), Vec::new(), 0u64);
    for _ in 0..40 {
        let t0 = Instant::now();
        forward();
        without.push(t0.elapsed().as_secs_f64());
        let handle = gnn_device::session::install(Session::new(CostModel::rtx2080ti()));
        let t0 = Instant::now();
        forward();
        with.push(t0.elapsed().as_secs_f64());
        kernels = gnn_device::session::finish(handle).kernel_count;
    }
    let extra_s = summarize(&with).median - summarize(&without).median;
    out.push((
        "device.record_ns_per_kernel",
        extra_s / kernels.max(1) as f64 * 1e9,
    ));

    // The feature cache at the `rmat-1m` geometry, one 8k-row block a call.
    let mut cache = FeatureCache::new(65_536, 256, 1 << 20, 4, 0);
    let blocks: Vec<Vec<u32>> = (0..32)
        .map(|_| (0..8192).map(|_| rng.gen_range(0..1u32 << 20)).collect())
        .collect();
    let mut next = 0;
    let s = median_s(31, || {
        black_box(cache.fetch(&blocks[next % blocks.len()]));
        next += 1;
    });
    out.push(("device.cache_fetch_ns_per_row", s / 8192.0 * 1e9));

    out
}
