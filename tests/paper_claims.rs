//! End-to-end checks of the paper's qualitative claims — the *shape* of
//! every reproduced result, asserted at smoke scale. Each test names the
//! paper section it guards.

use std::sync::OnceLock;

use gnn_core::runner::{self, GraphDs, ProfileRow};
use gnn_core::RunConfig;
use gnn_models::{FrameworkKind, ModelKind};

fn smoke() -> RunConfig {
    let mut cfg = RunConfig::smoke();
    cfg.batch_sizes = [8, 16, 32];
    cfg
}

/// `runner::profile_sweep` at smoke scale on ENZYMES, computed once and
/// copied to every claim that reads it (the sweep is seeded, so each test
/// sees the rows it used to compute for itself).
fn enzymes_profile() -> Vec<ProfileRow> {
    static ROWS: OnceLock<Vec<ProfileRow>> = OnceLock::new();
    ROWS.get_or_init(|| runner::profile_sweep(&smoke(), GraphDs::Enzymes))
        .clone()
}

#[test]
fn claim_dgl_data_loading_dominates_and_exceeds_pyg() {
    // Section IV-C: "the data loading time of DGL is significantly longer
    // than that of PyG across all models".
    let rows = enzymes_profile();
    for model in gnn_models::config::ALL_MODELS {
        let pyg = rows
            .iter()
            .find(|r| {
                r.model == model && r.framework == FrameworkKind::RustyG && r.batch_size == 16
            })
            .unwrap();
        let dgl = rows
            .iter()
            .find(|r| r.model == model && r.framework == FrameworkKind::Rgl && r.batch_size == 16)
            .unwrap();
        assert!(
            dgl.phase_times[0] > 1.5 * pyg.phase_times[0],
            "{model:?}: DGL load {:.2e} vs PyG {:.2e}",
            dgl.phase_times[0],
            pyg.phase_times[0]
        );
        // Data loading is a major share of the PyG epoch too (intro claim).
        // Smoke-scale batches understate the share (per-layer dispatch is
        // amplified relative to tiny loads); at quick/full scale the share
        // is far higher — see EXPERIMENTS.md.
        assert!(
            pyg.phase_times[0] / pyg.epoch_time() > 0.12,
            "{model:?}: loading share {:.2}",
            pyg.phase_times[0] / pyg.epoch_time()
        );
    }
}

#[test]
fn claim_total_epoch_time_pyg_beats_dgl_for_all_models() {
    // Tables IV/V headline: "the implementations with framework PyG can get
    // the best training time performance for all models".
    let rows = enzymes_profile();
    for model in gnn_models::config::ALL_MODELS {
        for bs in [8usize, 16, 32] {
            let t = |fw: FrameworkKind| {
                rows.iter()
                    .find(|r| r.model == model && r.framework == fw && r.batch_size == bs)
                    .unwrap()
                    .epoch_time()
            };
            assert!(
                t(FrameworkKind::Rgl) > t(FrameworkKind::RustyG),
                "{model:?}@{bs}: DGL must be slower"
            );
        }
    }
}

#[test]
fn claim_gatedgcn_gap_is_the_largest() {
    // Section IV-A observation 3: GatedGCN under DGL can be ~2x its PyG
    // time — the widest framework gap among the six models.
    let rows = enzymes_profile();
    // Compare compute (forward + backward): at smoke scale the collation
    // cost is framework-constant and would wash the per-model signal out.
    let ratio = |model: ModelKind| {
        let t = |fw: FrameworkKind| {
            let r = rows
                .iter()
                .find(|r| r.model == model && r.framework == fw && r.batch_size == 16)
                .unwrap();
            r.phase_times[1] + r.phase_times[2]
        };
        t(FrameworkKind::Rgl) / t(FrameworkKind::RustyG)
    };
    let gated = ratio(ModelKind::GatedGcn);
    for other in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gin] {
        assert!(
            gated > ratio(other),
            "GatedGCN ratio {gated:.2} must exceed {other:?} ratio {:.2}",
            ratio(other)
        );
    }
    assert!(gated > 1.5, "GatedGCN DGL/PyG ratio too small: {gated:.2}");
}

#[test]
fn claim_gpu_utilization_is_low() {
    // Section IV-D observation 4: "for many cases, the maximum is no more
    // than 40%" — utilization is low across the board.
    let rows = enzymes_profile();
    let max_util = rows.iter().map(|r| r.utilization).fold(0.0f64, f64::max);
    assert!(max_util < 0.5, "utilization should be low, got {max_util}");
    for r in &rows {
        assert!(r.utilization > 0.0, "device never idle-only");
    }
}

#[test]
fn claim_dgl_memory_gap_is_extreme_for_gatedgcn() {
    // Section IV-D observation 2: DGL memory >= PyG in most cases, with the
    // gap "very big" for GatedGCN (explicit edge features).
    let rows = enzymes_profile();
    let mem = |model: ModelKind, fw: FrameworkKind| {
        rows.iter()
            .find(|r| r.model == model && r.framework == fw && r.batch_size == 32)
            .unwrap()
            .peak_memory as f64
    };
    let gated_ratio = mem(ModelKind::GatedGcn, FrameworkKind::Rgl)
        / mem(ModelKind::GatedGcn, FrameworkKind::RustyG);
    let gcn_ratio =
        mem(ModelKind::Gcn, FrameworkKind::Rgl) / mem(ModelKind::Gcn, FrameworkKind::RustyG);
    assert!(
        gated_ratio > gcn_ratio,
        "GatedGCN memory gap {gated_ratio:.2} vs GCN {gcn_ratio:.2}"
    );
    // At smoke scale the edata frames are small relative to activations;
    // the full-scale gap is larger (see EXPERIMENTS.md).
    assert!(
        gated_ratio > 1.1,
        "GatedGCN DGL memory must clearly exceed PyG: {gated_ratio:.2}"
    );
}

#[test]
fn claim_anisotropic_models_cost_more_memory() {
    // Section IV-D observation 1: anisotropic GNNs need more memory.
    let rows = enzymes_profile();
    let mem = |model: ModelKind| {
        rows.iter()
            .find(|r| {
                r.model == model && r.framework == FrameworkKind::RustyG && r.batch_size == 32
            })
            .unwrap()
            .peak_memory
    };
    assert!(mem(ModelKind::Gat) > mem(ModelKind::Gcn));
    assert!(mem(ModelKind::GatedGcn) > mem(ModelKind::Gcn));
}

#[test]
fn claim_multi_gpu_saturates() {
    // Section IV-E / Fig. 6: 1 -> 2 -> 4 modest improvement; 4 -> 8 flat or
    // worse.
    let rows = runner::multi_gpu(&smoke());
    for model in [ModelKind::Gcn, ModelKind::Gat] {
        for fw in gnn_models::config::ALL_FRAMEWORKS {
            let t = |gpus: usize| {
                rows.iter()
                    .find(|r| {
                        r.model == model
                            && r.framework == fw
                            && r.batch_size == 128
                            && r.n_gpus == gpus
                    })
                    .unwrap()
                    .epoch_time
            };
            assert!(
                t(2) <= t(1) * 1.05,
                "{model:?}/{fw:?}: 2 GPUs should not be much worse"
            );
            let gain_4_8 = (t(4) - t(8)) / t(4);
            assert!(
                gain_4_8 < 0.2,
                "{model:?}/{fw:?}: 4->8 gain {gain_4_8:.2} too large"
            );
        }
    }
}

#[test]
fn claim_layer_times_dgl_conv_slower_and_conv1_heaviest() {
    // Section IV-C / Fig. 3: DGL conv layers cost more than PyG's, and
    // conv1 (largest input width) dominates the conv stack.
    let rows = runner::layer_times(&smoke());
    for model in gnn_models::config::ALL_MODELS {
        let scope_sum = |fw: FrameworkKind| -> f64 {
            rows.iter()
                .find(|r| r.model == model && r.framework == fw)
                .unwrap()
                .scopes
                .iter()
                .filter(|(n, _)| n.starts_with("conv"))
                .map(|(_, t)| t)
                .sum()
        };
        assert!(
            scope_sum(FrameworkKind::Rgl) > scope_sum(FrameworkKind::RustyG),
            "{model:?}: DGL conv stack must cost more"
        );
    }
    // conv1 >= other convs for the DGL GIN row (paper calls GIN's conv1
    // GSpMM out explicitly).
    let gin = rows
        .iter()
        .find(|r| r.model == ModelKind::Gin && r.framework == FrameworkKind::Rgl)
        .unwrap();
    let t = |name: &str| gin.scopes.iter().find(|(n, _)| n == name).unwrap().1;
    assert!(
        t("conv1") >= t("conv3") * 0.8,
        "conv1 {:.2e} vs conv3 {:.2e}",
        t("conv1"),
        t("conv3")
    );
}
