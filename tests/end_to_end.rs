//! End-to-end training runs spanning every crate: datasets → loaders →
//! models → training loop → device report → aggregation.

use gnn_core::RunConfig;
use gnn_core::{export, runner};
use gnn_datasets::{stratified_kfold, CitationSpec, TudSpec};
use gnn_models::adapt::RustygLoader;
use gnn_models::{build, ModelKind};
use gnn_train::{mean_std, run_graph_fold, run_node_task, GraphTaskConfig, NodeTaskConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the CSV renderings of a run's rows. The constants below pin
/// the tables and figures across commits the way `tests/training_golden.rs`
/// pins the loops under them: they were captured from the commit before the
/// cell catalog existed, on runs these tests already made. A deliberate
/// behaviour change re-captures them (the failure prints the new value).
fn csv_digest(csvs: &[String]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in csvs.iter().flat_map(|csv| csv.bytes()) {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn table4_smoke_produces_full_grid() {
    let mut cfg = RunConfig::smoke();
    cfg.scale = 0.05;
    let rows = runner::table4(&cfg);
    // 2 datasets x 6 models x 2 frameworks.
    assert_eq!(rows.len(), 24);
    for r in &rows {
        assert!(r.epoch_time > 0.0, "{:?}", r);
        assert!(r.total_time >= r.epoch_time);
        assert!((0.0..=100.0).contains(&r.acc.mean));
    }
    // Every PyG cell beats its DGL sibling on epoch time.
    for chunk in rows.chunks(2) {
        let (pyg, dgl) = (&chunk[0], &chunk[1]);
        assert_eq!(pyg.model, dgl.model);
        assert!(dgl.epoch_time > pyg.epoch_time, "{:?} vs {:?}", dgl, pyg);
    }
    let digest = csv_digest(&[export::TABLE_ROWS.csv(&rows)]);
    assert_eq!(
        digest, 0x37ca_a25b_32f6_fb65,
        "table4.csv moved: {digest:#018x}"
    );
}

#[test]
fn table5_smoke_produces_full_grid() {
    let cfg = RunConfig::smoke();
    let rows = runner::table5(&cfg);
    assert_eq!(rows.len(), 24);
    let datasets: Vec<&str> = rows.iter().map(|r| r.dataset.as_str()).collect();
    assert!(datasets.contains(&"ENZYMES"));
    assert!(datasets.contains(&"DD"));
    for r in &rows {
        assert!(r.epoch_time > 0.0);
        assert!((0.0..=100.0).contains(&r.acc.mean));
    }
    let digest = csv_digest(&[export::TABLE_ROWS.csv(&rows)]);
    assert_eq!(
        digest, 0x6e64_e6fe_6ba2_d8cf,
        "table5.csv moved: {digest:#018x}"
    );
}

#[test]
fn node_training_improves_over_initialization() {
    let ds = CitationSpec::pubmed().scaled(0.05).generate(0);
    let mut rng = StdRng::seed_from_u64(0);
    let model = build::node_model_rustyg(ModelKind::Sage, 500, 3, &mut rng);
    let batch = rustyg::loader::full_graph_batch(&ds);

    let untrained = run_node_task(
        &model,
        &batch,
        &ds,
        &NodeTaskConfig {
            max_epochs: 1,
            lr: 1e-3,
        },
    );
    let trained = run_node_task(
        &model,
        &batch,
        &ds,
        &NodeTaskConfig {
            max_epochs: 40,
            lr: 1e-3,
        },
    );
    assert!(
        trained.best_val_acc >= untrained.best_val_acc,
        "{} !>= {}",
        trained.best_val_acc,
        untrained.best_val_acc
    );
    assert!(
        trained.test_acc > 33.4,
        "must beat 3-class chance: {}",
        trained.test_acc
    );
}

#[test]
fn cross_validation_aggregates_multiple_folds() {
    let ds = TudSpec::enzymes().scaled(0.15).generate(1);
    let folds = stratified_kfold(&ds.labels(), 10, 1);
    let loader = RustygLoader::new(&ds);
    let cfg = GraphTaskConfig {
        batch_size: 16,
        init_lr: 1e-3,
        patience: 100,
        decay_factor: 0.5,
        min_lr: 1e-9,
        max_epochs: 3,
        seed: 1,
        shuffle: true,
    };
    let mut accs = Vec::new();
    for (i, fold) in folds.iter().take(3).enumerate() {
        let mut rng = StdRng::seed_from_u64(20 + i as u64);
        let model = build::graph_model_rustyg(ModelKind::Gcn, 18, 6, &mut rng);
        let out = run_graph_fold(&model, &loader, fold, &cfg);
        accs.push(out.test_acc);
    }
    let s = mean_std(&accs);
    assert!(s.mean >= 0.0 && s.std >= 0.0);
    assert_eq!(accs.len(), 3);
}

#[test]
fn reports_render_for_every_experiment() {
    let mut cfg = RunConfig::smoke();
    cfg.batch_sizes = [4, 8, 16];
    let table4 = runner::table4(&cfg);
    let t4 = export::TABLE_ROWS.text(&table4);
    assert!(t4.contains("GatedGCN") && t4.contains("PyG") && t4.contains("DGL"));
    let sweep = runner::profile_sweep(&cfg, runner::GraphDs::Enzymes);
    let fig1245 = export::PROFILE.text(&sweep);
    for column in ["data_load_s", "peak_memory_bytes", "utilization"] {
        assert!(fig1245.contains(column), "{column}");
    }
    let layers = runner::layer_times(&cfg);
    let fig3 = export::LAYER_TIMES.text(export::layer_time_rows(&layers));
    assert!(fig3.contains("conv1"));
    let multi = runner::multi_gpu(&cfg);
    let fig6 = export::MULTI_GPU.text(&multi);
    assert!(fig6.contains("n_gpus"));
    // One text line per row under the header and its rule.
    assert_eq!(t4.lines().count(), table4.len() + 2);
    assert_eq!(fig6.lines().count(), multi.len() + 2);
    let digest = csv_digest(&[
        export::TABLE_ROWS.csv(&table4),
        export::PROFILE.csv(&sweep),
        export::kernel_counts_csv(&sweep),
        export::LAYER_TIMES.csv(export::layer_time_rows(&layers)),
        export::MULTI_GPU.csv(&multi),
    ]);
    assert_eq!(
        digest, 0x2df9_e5d4_daeb_58e7,
        "a table or figure CSV moved: {digest:#018x}"
    );
}

#[test]
fn simulated_epoch_time_is_run_length_invariant() {
    // The simulated per-epoch cost must not depend on how many epochs we
    // run (it is a structural property of the workload).
    let ds = CitationSpec::cora().scaled(0.08).generate(2);
    let mut rng = StdRng::seed_from_u64(1);
    let model = build::node_model_rustyg(ModelKind::Gcn, 1433, 7, &mut rng);
    let batch = rustyg::loader::full_graph_batch(&ds);
    let short = run_node_task(
        &model,
        &batch,
        &ds,
        &NodeTaskConfig {
            max_epochs: 3,
            lr: 0.01,
        },
    );
    let long = run_node_task(
        &model,
        &batch,
        &ds,
        &NodeTaskConfig {
            max_epochs: 12,
            lr: 0.01,
        },
    );
    let rel = (short.epoch_time - long.epoch_time).abs() / long.epoch_time;
    assert!(
        rel < 0.05,
        "epoch time drifted {rel:.3}: {} vs {}",
        short.epoch_time,
        long.epoch_time
    );
}
