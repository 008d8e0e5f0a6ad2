//! Conformance suite for `gnn-lint` (the ahead-of-run static analyzer).
//!
//! Two halves:
//!
//! 1. **Clean sweep** — every (model, dataset, framework) cell the paper
//!    reports lints clean at smoke scale, so the reproduction binaries can
//!    gate on `--lint` without false positives.
//! 2. **Seeded defects** — each class of bug the analyzer exists to catch
//!    (wrong hidden dimension, corrupted edge index, frozen parameter,
//!    overlapping timeline kernels, impossible device config) is injected
//!    into an otherwise-clean artifact and must produce exactly the
//!    expected finding, naming the offending op/kernel, with the same
//!    message the runtime would die with.

use gnn_core::RunConfig;
use gnn_lint::{
    audit_tape, data_parallel_schedule, lint_run, lower_stack, FindingKind, GraphBuilder, Lane,
    Rows, Schedule, Slice, StackPlan,
};
use gnn_models::config::{FrameworkKind, ModelKind, ALL_FRAMEWORKS, ALL_MODELS};

// ---------------------------------------------------------------------------
// 1. The paper sweep is lint-clean.
// ---------------------------------------------------------------------------

#[test]
fn all_60_paper_cells_lint_clean_at_smoke_scale() {
    let report = lint_run(&RunConfig::smoke());
    assert!(report.is_clean(), "unexpected findings:\n{report}");
    assert_eq!(report.cells_checked, 60, "12 cells × 5 datasets");
    assert_eq!(report.datasets_checked, 5);
    assert_eq!(
        report.schedules_checked, 16,
        "2 models × 2 fw × 4 GPU counts"
    );
}

/// One grid order: the certifier walks the cells in the order the sweep
/// trains them and `CellId::all()` lists them — they all iterate the
/// catalog's grid — with any sampled cells after, sampler × framework.
#[test]
fn certificates_follow_the_sweep_order() {
    let paths = |cfg: &RunConfig| -> Vec<String> {
        let certs = gnn_lint::certify_run(cfg);
        certs.cells.iter().map(|cert| cert.path()).collect()
    };
    let grid: Vec<String> = gnn_serve::CellId::all().iter().map(|c| c.path()).collect();
    assert_eq!(paths(&RunConfig::smoke()), grid);

    let sampled = paths(&RunConfig::smoke().with_samples(["rmat-4k"]));
    assert_eq!(sampled[..60], grid[..]);
    assert_eq!(
        sampled[60..],
        [
            "sample/rmat-4k-neighbor/SAGE/PyG",
            "sample/rmat-4k-neighbor/SAGE/DGL",
            "sample/rmat-4k-layerwise/SAGE/PyG",
            "sample/rmat-4k-layerwise/SAGE/DGL",
        ]
    );
}

#[test]
fn every_cell_lowering_reaches_a_loss_and_has_trainable_params() {
    for model in ALL_MODELS {
        for fw in ALL_FRAMEWORKS {
            for plan in [
                StackPlan::node(model, fw, 1433, 7),
                StackPlan::graph(model, fw, 3, 10),
            ] {
                let g = lower_stack(&plan, "t");
                assert!(g.findings.is_empty(), "{model:?}/{fw:?}: {:?}", g.findings);
                assert!(g.loss.is_some(), "{model:?}/{fw:?} never reaches a loss");
                assert!(g.params().next().is_some());
                assert!(g.param_bytes() > 0);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2a. Seeded defect: wrong hidden dimension.
// ---------------------------------------------------------------------------

#[test]
fn wrong_hidden_dim_is_caught_at_the_offending_matmul() {
    let mut plan = StackPlan::node(ModelKind::Gcn, FrameworkKind::RustyG, 1433, 7);
    // Layer 2 claims a 64-wide input while layer 1 produces 80 columns.
    plan.layers[1].in_dim = 64;
    let g = lower_stack(&plan, "table4/Cora/GCN/PyG");
    assert_eq!(g.findings.len(), 1, "{:?}", g.findings);
    let f = &g.findings[0];
    assert_eq!(f.kind, FindingKind::ShapeMismatch);
    assert!(
        f.path.contains("conv2"),
        "path must name the layer: {}",
        f.path
    );
    assert!(
        f.path.ends_with("matmul"),
        "path must name the op: {}",
        f.path
    );
    // Byte-identical to the runtime panic (see shape_error_parity below).
    assert_eq!(
        f.message,
        gnn_tensor::ShapeError::inner_dim("matmul", 80, 64).to_string()
    );
}

#[test]
fn runtime_matmul_panic_matches_the_lint_message() {
    use gnn_tensor::{NdArray, Tensor};
    let a = Tensor::param(NdArray::zeros(2, 80));
    let b = Tensor::param(NdArray::zeros(64, 7));
    let panic_msg = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.matmul(&b)))
        .expect_err("mismatched matmul must panic")
        .downcast::<String>()
        .expect("panic payload is the ShapeError rendering");
    assert_eq!(
        *panic_msg,
        gnn_tensor::ShapeError::inner_dim("matmul", 80, 64).to_string()
    );
}

// ---------------------------------------------------------------------------
// 2b. Seeded defect: corrupted edge index.
// ---------------------------------------------------------------------------

#[test]
fn corrupted_edge_index_is_caught_with_the_kernel_message() {
    // `Graph::new` itself rejects bad endpoints, so corrupt the raw halves —
    // the form the batching/loader layers hand the kernels.
    let mut out = vec![];
    gnn_lint::index_check::check_edge_index(&[0, 1, 9], &[1, 2, 0], 3, "table4/Cora", &mut out);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].kind, FindingKind::IndexOutOfBounds);
    assert_eq!(out[0].path, "table4/Cora/src");
    assert!(
        out[0]
            .message
            .contains("gather_rows index out of bounds (n = 3)"),
        "{}",
        out[0].message
    );

    let mut out = vec![];
    gnn_lint::index_check::check_edge_index(&[0, 1, 2], &[1, 9, 0], 3, "table4/Cora", &mut out);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].path, "table4/Cora/dst");
    assert!(
        out[0]
            .message
            .contains("scatter_add_rows index out of bounds (out_rows = 3)"),
        "{}",
        out[0].message
    );
}

// ---------------------------------------------------------------------------
// 2c. Seeded defect: frozen parameter / dead weight.
// ---------------------------------------------------------------------------

#[test]
fn frozen_parameter_is_reported_as_dead() {
    let mut b = GraphBuilder::with_prefix("table4/Cora/GCN/PyG");
    let x = b.input("x", Rows::Nodes, 4);
    let w = b.frozen_param("conv1.w", 4, 7);
    let h = b.matmul(x, w);
    let labels = b.index_input("labels", Rows::Nodes, Rows::Const(7));
    b.cross_entropy(h, labels, 7);
    let g = b.finish();

    let mut out = vec![];
    audit_tape(&g, &mut out);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].kind, FindingKind::DeadParameter);
    assert!(out[0].path.contains("conv1.w"), "{}", out[0].path);
    assert!(
        out[0].message.contains("requires_grad = false"),
        "{}",
        out[0].message
    );
}

#[test]
fn parameter_detached_from_the_loss_is_reported() {
    let mut b = GraphBuilder::with_prefix("t");
    let x = b.input("x", Rows::Nodes, 4);
    let w = b.param("conv1.w", 4, 7);
    let h = b.matmul(x, w);
    // A second weight that never feeds the loss.
    let _orphan = b.param("conv2.w", 7, 7);
    let labels = b.index_input("labels", Rows::Nodes, Rows::Const(7));
    b.cross_entropy(h, labels, 7);
    let g = b.finish();

    let mut out = vec![];
    audit_tape(&g, &mut out);
    assert!(
        out.iter()
            .any(|f| f.kind == FindingKind::DeadParameter && f.path.contains("conv2.w")),
        "{out:?}"
    );
}

// ---------------------------------------------------------------------------
// 2d. Seeded defect: overlapping timeline kernels.
// ---------------------------------------------------------------------------

#[test]
fn overlapping_kernels_on_one_stream_are_reported() {
    let sched = Schedule {
        slices: vec![
            Slice::new("gemm", Lane::Stream(0), 0.0, 2.0),
            Slice::new("scatter_add", Lane::Stream(0), 1.5, 3.0),
        ],
    };
    let mut out = vec![];
    sched.check("fig6/GCN/PyG/gpus1", &mut out);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].kind, FindingKind::TimelineOverlap);
    // The finding names both offending kernels.
    assert!(out[0].message.contains("gemm"), "{}", out[0].message);
    assert!(out[0].message.contains("scatter_add"), "{}", out[0].message);
}

#[test]
fn concurrent_write_to_a_shared_buffer_is_a_race() {
    let sched = Schedule {
        slices: vec![
            Slice::new("compute0", Lane::Stream(0), 0.0, 2.0).writing(["grads"]),
            Slice::new("reduce", Lane::Stream(1), 1.0, 3.0).reading(["grads"]),
        ],
    };
    let mut out = vec![];
    sched.check("fig6/GCN/PyG/gpus2", &mut out);
    assert!(
        out.iter()
            .any(|f| f.kind == FindingKind::BufferRace && f.path == "fig6/GCN/PyG/gpus2/grads"),
        "{out:?}"
    );
}

// ---------------------------------------------------------------------------
// 2e. Seeded defect: impossible device config (typed, not a panic).
// ---------------------------------------------------------------------------

#[test]
fn zero_gpu_config_is_a_typed_error_everywhere() {
    use gnn_device::{DataParallel, MultiGpuError, PcieModel, StepCost};
    let dp = DataParallel {
        n_gpus: 0,
        pcie: PcieModel::pcie3_x16(),
        param_bytes: 1024,
    };
    let step = StepCost {
        host_load: 1e-3,
        input_bytes: 1024,
        compute: 1e-3,
        output_bytes: 128,
        update: 1e-4,
    };
    // The schedule builder and the runtime epoch estimator agree on the
    // rejection instead of dividing by zero.
    assert_eq!(
        data_parallel_schedule(&dp, &step),
        Err(MultiGpuError::ZeroGpus)
    );
    assert_eq!(dp.epoch_time(&step, 10), Err(MultiGpuError::ZeroGpus));
    let one = DataParallel::new(1, 1024);
    assert_eq!(one.epoch_time(&step, 0), Err(MultiGpuError::ZeroSteps));
}

// ---------------------------------------------------------------------------
// The schedule model prices exactly like the runtime estimator.
// ---------------------------------------------------------------------------

#[test]
fn lint_schedules_price_identically_to_the_runtime_step_model() {
    use gnn_device::{DataParallel, StepCost};
    let step = StepCost {
        host_load: 5e-3,
        input_bytes: 2_000_000,
        compute: 2e-3,
        output_bytes: 40_000,
        update: 1e-4,
    };
    for n in [1usize, 2, 4, 8] {
        let dp = DataParallel::new(n, 500_000);
        let sched = data_parallel_schedule(&dp, &step).unwrap();
        let mut out = vec![];
        sched.check("t", &mut out);
        assert!(out.is_empty(), "gpus{n}: {out:?}");
        assert!(
            (sched.makespan() - dp.step_time(&step)).abs() < 1e-9,
            "gpus{n}: schedule {} != step_time {}",
            sched.makespan(),
            dp.step_time(&step)
        );
    }
}
