//! The metric catalogue: every name the benchmark prints, with its unit,
//! its better direction and what it reads. `BENCHMARK.json` lists the same
//! names; a unit test holds the two together.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// Whether `b` is worse than `a` in this direction.
    pub fn worse(self, a: f64, b: f64) -> bool {
        match self {
            Better::Higher => b < a,
            Better::Lower => b > a,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// What a user of the repo would see. Every workload reports all four.
pub const END_TO_END: [Metric; 4] = [
    e2e(
        "items_per_s",
        "items/s",
        Higher,
        0.25,
        "the workload's items per round over the round wall seconds, taken as the sum of each cell's lower quartile across rounds (host)",
    ),
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "input generation, model/registry construction and the warm-up round; median of 3 set-ups (host)",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Lower,
        0.25,
        "VmHWM of the process at exit",
    ),
    e2e(
        "sim_s",
        "s",
        Lower,
        0.20,
        "simulated seconds the cost model charges for one round; bit-exact at a fixed seed",
    ),
];

/// Single layers, named `<crate>.<metric>`, all from the traced run. A layer
/// the workload never enters reports 0.
pub const PER_LAYER: [Metric; 65] = [
    layer("tensor.matmul_gflops.sparse_tall", "GFLOP/s", Higher, "NdArray::matmul, 19717x500 at 10% density by 500x64, dense-equivalent FLOPs"),
    layer("tensor.matmul_gflops.dense_small", "GFLOP/s", Higher, "NdArray::matmul, 1024x128 by 128x128"),
    layer("tensor.matmul_nt_gflops", "GFLOP/s", Higher, "NdArray::matmul_nt, 1024x128 by (128x128)^T"),
    layer("tensor.matmul_tn_gflops", "GFLOP/s", Higher, "NdArray::matmul_tn, (1024x128)^T by 1024x128"),
    layer("tensor.gather_rows_gbps", "GB/s", Higher, "Tensor::gather_rows, 16384 rows of a 4096x64 matrix, computed bytes read+written"),
    layer("tensor.scatter_add_gbps", "GB/s", Higher, "Tensor::scatter_add_rows, 16384x64 into 4096 rows, computed bytes"),
    layer("tensor.segment_softmax_us", "us", Lower, "Tensor::segment_softmax, 16384x8 scores over 4096 segments"),
    layer("tensor.batch_norm_us", "us", Lower, "Tensor::batch_norm_train on 4096x64"),
    layer("tensor.small_op_ns", "ns", Lower, "one grad-tracked add of 1x8 tensors: the fixed cost per op"),
    layer("tensor.backward_ms", "ms", Lower, "Tensor::backward per training step (median)"),
    layer("graph.disjoint_union_us", "us", Lower, "disjoint_union of 16 ENZYMES-sized graphs"),
    layer("graph.csc_us", "us", Lower, "Graph::csc on 4096 nodes / 16384 edges"),
    layer("datasets.generate_s", "s", Lower, "the workload's dataset generator (PubMed or ENZYMES)"),
    layer("models.build_ms", "ms", Lower, "one model build (median over cells)"),
    layer("rustyg.collate_us", "us", Lower, "rustyg Loader::load / full_graph_batch per call (median)"),
    layer("rgl.collate_us", "us", Lower, "rgl Loader::load / full_graph_batch per call (median)"),
    layer("rustyg.forward_ms", "ms", Lower, "GnnStack::forward, training mode, rustyg cells (median)"),
    layer("rgl.forward_ms", "ms", Lower, "GnnStack::forward, training mode, rgl cells (median)"),
    layer("rustyg.eval_forward_ms", "ms", Lower, "no-grad GnnStack::forward, rustyg cells (median)"),
    layer("rgl.eval_forward_ms", "ms", Lower, "no-grad GnnStack::forward, rgl cells (median)"),
    layer("rustyg.gather_scatter_us", "us", Lower, "gather_rows then scatter_add_rows, 4096 nodes / 16384 edges / 64 features"),
    layer("rgl.gspmm_us", "us", Lower, "gspmm_copy_sum on the same graph and features"),
    layer("rustyg.sampled_load_us", "us", Lower, "rustyg SampledLoader::try_load_block per 512-seed block (median)"),
    layer("rgl.sampled_load_us", "us", Lower, "rgl SampledLoader::try_load_block per 512-seed block (median)"),
    layer("sample.rmat_generate_s", "s", Lower, "RmatGraph::generate for rmat-1m"),
    layer("sample.sample_block_us.neighbor", "us", Lower, "sample_block, Neighbor, per 512-seed block (median)"),
    layer("sample.sample_block_us.layerwise", "us", Lower, "sample_block, LayerWise, per 512-seed block (median)"),
    layer("device.record_ns_per_kernel", "ns", Lower, "no-grad forward with a session installed minus without, per kernel"),
    layer("device.kernels_per_item", "count", Lower, "kernel launches per item, computed from the device reports"),
    layer("device.flops_per_item", "flop", Lower, "FLOPs per item, computed from the device reports"),
    layer("device.bytes_per_item", "B", Lower, "modelled DRAM bytes per item, computed from the device reports"),
    layer("device.cache_fetch_ns_per_row", "ns", Lower, "FeatureCache::fetch per row at the rmat-1m geometry"),
    layer("device.cache_hit_rate", "ratio", Higher, "feature-cache hit rate of the sampled loaders (mean over cells)"),
    layer("device.sim_over_host.gemm", "ratio", Higher, "modelled over measured time of the dense_small GEMM"),
    layer("device.sim_over_host.gather", "ratio", Higher, "modelled over measured time of the gather micro-kernel"),
    layer("device.sim_over_host.scatter", "ratio", Higher, "modelled over measured time of the scatter micro-kernel"),
    layer("device.sim_over_host.spmm", "ratio", Higher, "modelled over measured time of the GSpMM micro-kernel"),
    layer("train.optim_step_us", "us", Lower, "Adam::step + zero_grad per training step (median)"),
    layer("train.share.data_load", "ratio", Lower, "share of unrolled-loop time in data loading"),
    layer("train.share.forward", "ratio", Lower, "share of unrolled-loop time in forward + loss"),
    layer("train.share.backward", "ratio", Lower, "share of unrolled-loop time in backward"),
    layer("train.share.update", "ratio", Lower, "share of unrolled-loop time in the optimizer"),
    layer("train.share.eval", "ratio", Lower, "share of unrolled-loop time in validation/test evaluation"),
    layer("train.harness_gap_share", "ratio", Lower, "entry-point wall minus unrolled-loop wall, as a share: drift between the copy and the real loop"),
    layer("train.final_loss", "loss", Lower, "last training-step loss of the round's last cell"),
    layer("train.test_acc", "%", Higher, "test accuracy of the round's last cell"),
    layer("serve.registry_build_s", "s", Lower, "ModelRegistry::build of the six default endpoints"),
    layer("serve.workload_generate_us", "us", Lower, "workload::generate of one open-loop request stream"),
    layer("serve.exec_us_per_batch", "us", Lower, "Endpoint::serve_batch per replayed batch (median)"),
    layer("serve.loop_us_per_req", "us", Lower, "call wall minus replayed execution (and registry build), per request: the dispatch loop itself"),
    layer("serve.batches_per_req", "ratio", Lower, "dispatched batches per request, exact"),
    layer("serve.sim_p50_ms", "ms", Lower, "simulated p50 enqueue-to-reply latency"),
    layer("serve.sim_p99_ms", "ms", Lower, "simulated p99 enqueue-to-reply latency"),
    layer("serve.sim_slo_attainment", "ratio", Higher, "share of submitted requests answered within the SLO target, simulated"),
    layer("serve.retries", "count", Lower, "fleet retry re-admissions per round"),
    layer("serve.hedges", "count", Lower, "fleet hedge twins per round"),
    layer("obs.collector_overhead_share", "ratio", Lower, "graph_minibatch round with a gnn_obs collector installed against without"),
    layer("proc.allocs_per_item", "count", Lower, "heap allocations per item in the traced rounds, exact"),
    layer("proc.alloc_mb_per_item", "MB", Lower, "heap megabytes requested per item in the traced rounds, exact"),
    layer("proc.sys_share", "ratio", Lower, "kernel-mode share of CPU time over the entry-point rounds"),
    layer("proc.minor_faults_per_item", "count", Lower, "minor page faults per item over the entry-point rounds"),
    layer("bench.trace_overhead_share", "ratio", Lower, "traced unrolled round against the same round untraced"),
    layer("bench.round_s_min", "s", Lower, "fastest entry-point round of the traced run"),
    layer("bench.round_s_iqr_share", "ratio", Lower, "quartile distance of the entry-point rounds over their median"),
    layer("bench.unrolled_sim_match", "ratio", Higher, "share of cells whose unrolled copy reproduces the entry point's sim_digest bit for bit"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_obs::json::{parse, Value};

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn catalogued(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.label().into()))
            .collect()
    }

    /// `BENCHMARK.json` sits one directory up, outside this package.
    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");
        assert_eq!(listed(&doc, "end_to_end"), catalogued(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), catalogued(&PER_LAYER));
        for (m, listed) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").and_then(Value::as_arr).expect("list"))
        {
            assert_eq!(listed.get("bound").and_then(Value::as_f64), m.bound);
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
