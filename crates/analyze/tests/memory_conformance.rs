//! Cross-validation of the static memory certifier against the runtime
//! allocator.
//!
//! Two independent checks keep the symbolic model honest:
//!
//! 1. **Dominance and tightness** — for every cell of the paper sweep, the
//!    certified `peak_upper` must dominate the peak device memory the real
//!    supervised training run reports, and stay within a 2x factor of it
//!    (a bound that loose would certify anything). The same must hold under
//!    the canonical chaos plan: transient faults are retried, never
//!    allocated past the certified worst case.
//!
//! 2. **Ceiling verdicts** (property-based) — for random (cell, ceiling)
//!    pairs, the certifier's verdict must agree with what actually happens
//!    when a `MemLimit` fault at that ceiling is armed under the
//!    supervisor: `Fits` runs finish clean and undegraded, `Fatal`
//!    ceilings kill the run with a typed error. `Unknown` is the honest
//!    middle band and asserts nothing.

use std::rc::Rc;

use gnn_core::{sweep, CellStatus, RunConfig};
use gnn_datasets::{CitationSpec, TudSpec};
use gnn_faults::{FaultKind, FaultPlan};
use gnn_lint::{certify_graph_cell, certify_node_cell, certify_run, MemVerdict};
use gnn_models::config::{graph_hparams, node_hparams, ALL_FRAMEWORKS, ALL_MODELS};
use gnn_models::{build as models, FrameworkKind, ModelKind};
use gnn_train::cell::{build, folds, graph_batch_size, CellData, Task, Trained};
use gnn_train::{GraphTaskConfig, NodeTaskConfig, Supervised, Supervisor, TrainError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The smallest config that still trains all 60 cells (mirrors the sweep's
/// own tiny test config).
fn tiny_cfg() -> RunConfig {
    let mut cfg = RunConfig::smoke();
    cfg.scale = 0.03;
    cfg.node_epochs = 2;
    cfg.graph_epochs = 1;
    cfg
}

/// Certifies `cfg`'s sweep, runs it for real, and checks every cell's
/// observed allocator high-water mark against its certificate.
fn assert_certs_dominate(cfg: &RunConfig) {
    // Certify first: the sweep arms the config's fault plan and the
    // certifier must not run under an injector it did not ask for.
    let certs = certify_run(cfg);
    let out = sweep(cfg);
    assert_eq!(out.cells.len(), 60);
    for cell in &out.cells {
        let path = format!(
            "{}/{}/{}/{}",
            cell.experiment,
            cell.dataset,
            cell.model.label(),
            cell.framework.label()
        );
        assert_ne!(cell.status, CellStatus::Failed, "{path}: {}", cell.detail);
        let cert = certs
            .cell(&path)
            .unwrap_or_else(|| panic!("no certificate for {path}"));
        assert!(cell.peak_memory > 0, "{path}: sweep recorded no peak");
        assert!(
            cert.peak_upper >= cell.peak_memory,
            "{path}: certified peak {} B does not dominate observed {} B",
            cert.peak_upper,
            cell.peak_memory
        );
        assert!(
            cert.peak_upper as f64 <= 2.0 * cell.peak_memory as f64,
            "{path}: certified peak {} B is more than 2x the observed {} B",
            cert.peak_upper,
            cell.peak_memory
        );
    }
}

#[test]
fn certified_bounds_dominate_the_runtime_allocator() {
    assert_certs_dominate(&tiny_cfg());
}

#[test]
fn certified_bounds_hold_under_the_canonical_chaos_plan() {
    assert_certs_dominate(&tiny_cfg().with_faults(FaultPlan::canonical()));
}

/// Sampled cells certify in closed form (fan-out union bounds, no graph in
/// hand); the bound must still dominate what the supervised sampled runner
/// actually allocates, and stay within a 4x factor — looser than the
/// classic cells' 2x because the union bound assumes no frontier
/// deduplication, which real blocks always have.
#[test]
fn sampled_certs_dominate_the_runtime_allocator() {
    use gnn_sample::{RmatGraph, SampleSpec, SamplerKind};
    use gnn_train::SampledTaskConfig;

    let spec = SampleSpec::get("rmat-4k").unwrap();
    let graph = Rc::new(RmatGraph::generate(spec.rmat).unwrap());
    let task = SampledTaskConfig {
        max_epochs: 2,
        lr: node_hparams(ModelKind::Sage).lr,
        batch_seeds: spec.batch_seeds,
        train_seeds: spec.batch_seeds * 4,
        eval_seeds: spec.batch_seeds,
        seed: 9,
    };
    let sup = Supervisor::default();
    for kind in SamplerKind::all() {
        for fw in ALL_FRAMEWORKS {
            let cert = gnn_lint::certify_sample_cell(fw, &spec, kind);
            let data = CellData::Sample(graph.clone(), spec.clone(), kind);
            let run = build(fw, ModelKind::Sage, &data, 9)
                .train(&Task::Sampled(task), &sup)
                .unwrap_or_else(|e| panic!("{}: clean run died: {e}", cert.path()));
            let observed = run.outcome.report.peak_memory;
            assert!(observed > 0, "{}: no peak recorded", cert.path());
            assert!(
                cert.peak_upper >= observed,
                "{}: certified peak {} B does not dominate observed {} B",
                cert.path(),
                cert.peak_upper,
                observed
            );
            assert!(
                cert.peak_upper <= 4 * observed,
                "{}: certified peak {} B is more than 4x the observed {} B",
                cert.path(),
                cert.peak_upper,
                observed
            );
        }
    }
}

/// The certificates describe the training loop, not which entry point ran
/// it. For a node cell the certificate is exact: the plain `run_node_task`
/// (Table IV, `BENCH_10.json`, the host benchmark) peaks at the certified
/// `peak_upper` to the byte, on all twelve Cora cells at two scales and
/// seeds. A lowering or allocator change that drifts a node certificate
/// fails here by name.
#[test]
fn node_certs_equal_the_plain_entry_points_peak() {
    use gnn_train::run_node_task;

    for (scale, seed) in [(0.05, 7), (0.2, 3)] {
        let ds = CitationSpec::cora().scaled(scale).generate(seed);
        let (f, c) = (ds.features.cols(), ds.num_classes);
        for model in ALL_MODELS {
            for fw in ALL_FRAMEWORKS {
                let cert = certify_node_cell(model, fw, &ds);
                let task = NodeTaskConfig {
                    max_epochs: 2,
                    lr: node_hparams(model).lr,
                };
                let mut rng = StdRng::seed_from_u64(seed);
                let out = match fw {
                    FrameworkKind::RustyG => {
                        let stack = models::node_model_rustyg(model, f, c, &mut rng);
                        let batch = rustyg::loader::full_graph_batch(&ds);
                        run_node_task(&stack, &batch, &ds, &task)
                    }
                    FrameworkKind::Rgl => {
                        let stack = models::node_model_rgl(model, f, c, &mut rng);
                        let batch = rgl::loader::full_graph_batch(&ds);
                        run_node_task(&stack, &batch, &ds, &task)
                    }
                };
                assert_eq!(
                    cert.peak_upper,
                    out.report.peak_memory,
                    "{} at Cora {scale}, seed {seed}: certified peak vs observed",
                    cert.path()
                );
            }
        }
    }
}

/// Likewise `run_sampled_task` on every `rmat-4k` cell — at the sweep's 4
/// batches per epoch and at 40: a step's block is released when the step
/// commits, so the peak must not grow with the number of batches.
#[test]
fn sampled_certs_dominate_the_plain_entry_point_at_any_epoch_length() {
    use gnn_sample::{RmatGraph, SampleSpec, SamplerKind};
    use gnn_train::{run_sampled_task, SampledTaskConfig};

    let spec = SampleSpec::get("rmat-4k").unwrap();
    let graph = Rc::new(RmatGraph::generate(spec.rmat).unwrap());
    let (f, c) = (spec.rmat.feature_dim, spec.rmat.num_classes);
    for batches in [4, 40] {
        let task = SampledTaskConfig {
            max_epochs: 1,
            lr: node_hparams(ModelKind::Sage).lr,
            batch_seeds: spec.batch_seeds,
            train_seeds: spec.batch_seeds * batches,
            eval_seeds: spec.batch_seeds,
            seed: 9,
        };
        for kind in SamplerKind::all() {
            for fw in ALL_FRAMEWORKS {
                let cert = gnn_lint::certify_sample_cell(fw, &spec, kind);
                let mut rng = StdRng::seed_from_u64(9);
                let out = match fw {
                    FrameworkKind::RustyG => {
                        let stack = models::node_model_rustyg(ModelKind::Sage, f, c, &mut rng);
                        let loader =
                            rustyg::sampled::SampledLoader::new(graph.clone(), &spec, kind)
                                .unwrap();
                        run_sampled_task(&stack, &loader, &task)
                    }
                    FrameworkKind::Rgl => {
                        let stack = models::node_model_rgl(ModelKind::Sage, f, c, &mut rng);
                        let loader =
                            rgl::sampled::SampledLoader::new(graph.clone(), &spec, kind).unwrap();
                        run_sampled_task(&stack, &loader, &task)
                    }
                };
                assert_cert_bounds(&cert, out.report.peak_memory, 4);
            }
        }
    }
}

/// Dominance and tightness of one certificate against one observed peak:
/// `observed <= peak_upper <= slack * observed`.
fn assert_cert_bounds(cert: &gnn_lint::CellCert, observed: u64, slack: u64) {
    assert!(observed > 0, "{}: no peak recorded", cert.path());
    assert!(
        cert.peak_upper >= observed,
        "{}: certified peak {} B does not dominate observed {} B",
        cert.path(),
        cert.peak_upper,
        observed
    );
    assert!(
        cert.peak_upper <= slack * observed,
        "{}: certified peak {} B is more than {slack}x the observed {} B",
        cert.path(),
        cert.peak_upper,
        observed
    );
}

/// Maps `frac` in [0, 100] onto a ceiling spanning from well below the
/// cell's fatal floor to comfortably above its certified peak, so the
/// strategy exercises all three verdict bands.
fn ceiling_from(frac: u64, floor_fatal: u64, peak_upper: u64) -> u64 {
    let lo = floor_fatal / 2;
    let hi = peak_upper + peak_upper / 2;
    lo + (hi - lo) * frac / 100
}

fn node_ceiling_case(model: ModelKind, fw: FrameworkKind, frac: u64) {
    let ds = Rc::new(CitationSpec::cora().scaled(0.05).generate(7));
    let cert = certify_node_cell(model, fw, &ds);
    let ceiling = ceiling_from(frac, cert.floor_fatal, cert.peak_upper);
    let verdict = cert.ceiling_verdict(ceiling);
    if verdict == MemVerdict::Unknown {
        return; // between the bounds: the certifier honestly proves nothing
    }
    let task = Task::Node(NodeTaskConfig {
        max_epochs: 2,
        lr: node_hparams(model).lr,
    });
    let handle =
        gnn_faults::install(FaultPlan::empty().with(FaultKind::MemLimit { bytes: ceiling }));
    let result = build(fw, model, &CellData::Node(ds), 7).train(&task, &Supervisor::default());
    gnn_faults::finish(handle);
    assert_verdict(&cert, ceiling, verdict, result);
}

/// The supervised runtime must land on the certified verdict: `Fits` runs
/// finish clean and undegraded, `Fatal` ceilings kill the run.
fn assert_verdict(
    cert: &gnn_lint::CellCert,
    ceiling: u64,
    verdict: MemVerdict,
    result: Result<Supervised<Trained>, TrainError>,
) {
    match verdict {
        MemVerdict::Fits => {
            let run = result.unwrap_or_else(|e| {
                panic!(
                    "{}: certified Fits at {ceiling} B but run died: {e}",
                    cert.path()
                )
            });
            assert!(
                !run.degraded,
                "{}: certified Fits at {ceiling} B but the run degraded",
                cert.path()
            );
        }
        MemVerdict::Fatal => assert!(
            result.is_err(),
            "{}: certified Fatal at {ceiling} B but the run survived",
            cert.path()
        ),
        MemVerdict::Unknown => unreachable!(),
    }
}

fn graph_ceiling_case(model: ModelKind, fw: FrameworkKind, frac: u64) {
    let ds = Rc::new(TudSpec::enzymes().scaled(0.15).generate(8));
    let folds = folds(&ds, 8);
    let mut task = GraphTaskConfig::from_hparams(&graph_hparams(model), 1, 8);
    task.batch_size = graph_batch_size(model, &folds);
    let cert = certify_graph_cell(model, fw, &ds, task.batch_size);
    let ceiling = ceiling_from(frac, cert.floor_fatal, cert.peak_upper);
    let verdict = cert.ceiling_verdict(ceiling);
    if verdict == MemVerdict::Unknown {
        return;
    }
    let data = CellData::Graph(ds, Rc::default());
    let handle =
        gnn_faults::install(FaultPlan::empty().with(FaultKind::MemLimit { bytes: ceiling }));
    let result =
        build(fw, model, &data, 8).train(&Task::Graph(task, &folds[0]), &Supervisor::default());
    gnn_faults::finish(handle);
    assert_verdict(&cert, ceiling, verdict, result);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Full-graph node training under a random memory ceiling behaves
    /// exactly as the certificate's verdict predicts.
    #[test]
    fn node_ceiling_verdicts_match_the_supervised_runtime(
        midx in 0usize..ALL_MODELS.len(),
        fwi in 0usize..ALL_FRAMEWORKS.len(),
        frac in 0u64..=100,
    ) {
        node_ceiling_case(ALL_MODELS[midx], ALL_FRAMEWORKS[fwi], frac);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Mini-batch graph training, where the supervisor may halve the batch
    /// before giving up, still lands on the certified verdict: `Fatal`
    /// ceilings admit no batch size at all.
    #[test]
    fn graph_ceiling_verdicts_match_the_supervised_runtime(
        midx in 0usize..ALL_MODELS.len(),
        fwi in 0usize..ALL_FRAMEWORKS.len(),
        frac in 0u64..=100,
    ) {
        graph_ceiling_case(ALL_MODELS[midx], ALL_FRAMEWORKS[fwi], frac);
    }
}
