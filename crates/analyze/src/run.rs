//! Whole-run linting: the configured paper sweep, end to end.
//!
//! [`lint_run`] expands a [`RunConfig`] into everything the `gnn-bench` commands
//! would execute — all 60 (model, dataset, framework) cells of Tables IV/V
//! and the datasets at the configured scale — and runs every analysis pass
//! over each piece:
//!
//! 1. symbolic shape/dtype inference over each cell's lowering
//!    ([`crate::lower`]),
//! 2. the autograd tape audit ([`crate::tape`]),
//! 3. index-safety proofs over the generated datasets
//!    ([`crate::index_check`]),
//! 4. fault-plan auditing when the config arms one — specs that can never
//!    fire or never be survived under this run ([`crate::fault_plan`]),
//! 5. sample-config auditing and closed-form certification of any
//!    configured giant-graph sampling cells, without generating their RMAT
//!    graphs ([`lint_sample_spec`], which `gnn-bench sample --lint` also
//!    runs),
//! 6. memory certification of every cell at the generated datasets'
//!    concrete sizes ([`crate::memory`]), including device-capacity checks
//!    and — for armed plans — memory ceilings that admit no batch size.
//!
//! Finding paths are rooted at the sweep position:
//! `table4/Cora/GCN/PyG/conv2/matmul`, `table5/MNIST/GatedGCN/DGL/...`.

use gnn_core::cell::{
    folds, graph_batch_size, graph_dataset, node_dataset, CellId, TaskKind, GRAPH_DATASETS,
    NODE_DATASETS,
};
use gnn_core::RunConfig;
use gnn_models::build::StackPlan;
use gnn_sample::SampleSpec;

use crate::fault_plan::{check_fault_plan, check_memory_ceilings};
use crate::index_check::{check_graph_dataset, check_node_dataset};
use crate::lower::lower_stack;
use crate::memory::{
    certify_graph_cell, certify_node_cell, certify_sample_cell, check_device_fit, MemoryReport,
};
use crate::report::LintReport;
use crate::sample_check::{check_sample_spec, resolve_sample_specs};
use crate::tape::audit_tape;

fn lint_cell(plan: &StackPlan, path: &str, report: &mut LintReport) -> u64 {
    let graph = lower_stack(plan, path);
    report.findings.extend(graph.findings.iter().cloned());
    audit_tape(&graph, &mut report.findings);
    report.ops_checked += graph.nodes.len();
    report.cells_checked += 1;
    graph.param_bytes()
}

/// Lints one sampled spec's cells (`sample/<spec>-<kind>/SAGE/<fw>`):
/// every `sample-config` violation, each cell's lowering and tape audit,
/// and — only when the spec validates, since the union bounds of a broken
/// fan-out schedule are garbage — its closed-form memory certificate,
/// checked against both devices.
pub fn lint_sample_spec(spec: &SampleSpec, report: &mut LintReport, memory: &mut MemoryReport) {
    let valid = check_sample_spec(spec, &mut report.findings) == 0;
    report.datasets_checked += 1;
    let (f, c) = (spec.rmat.feature_dim, spec.rmat.num_classes);
    for (kind, cell) in CellId::sample_grid(spec.name) {
        let plan = StackPlan::node(cell.model, cell.framework, f, c);
        lint_cell(&plan, &cell.path(), report);
        if valid {
            let cert = certify_sample_cell(cell.framework, spec, kind);
            check_device_fit(&cert, &mut memory.findings);
            memory.cells.push(cert);
        }
    }
}

/// Lints the full sweep a [`RunConfig`] describes. Deterministic: the same
/// config always yields the same report.
pub fn lint_run(cfg: &RunConfig) -> LintReport {
    lint_run_with_memory(cfg).0
}

/// Certifies the memory footprint of every cell the config sweeps, without
/// the rest of the lint. Deterministic, like [`lint_run`].
pub fn certify_run(cfg: &RunConfig) -> MemoryReport {
    lint_run_with_memory(cfg).1
}

/// Lints the sweep and certifies its memory in one pass over the generated
/// datasets (each dataset is built once and shared by both analyses). The
/// memory findings — device-capacity violations and unsatisfiable fault
/// ceilings — appear in *both* reports, so `lint_run` alone still gates
/// them.
pub fn lint_run_with_memory(cfg: &RunConfig) -> (LintReport, MemoryReport) {
    let mut report = LintReport::default();
    let mut memory = MemoryReport::default();

    // Armed fault plans are audited first: a chaos campaign whose specs
    // cannot fire (or cannot be survived) should be rejected before the
    // sweep spends anything.
    if let Some(plan) = &cfg.faults {
        check_fault_plan(plan, cfg, &mut report.findings);
    }

    // The grid, its order and its datasets are the catalog's — what the
    // sweep will train is what gets linted and certified, cell for cell.

    // Table IV: node classification on the citation graphs.
    for name in NODE_DATASETS {
        let ds = node_dataset(name, cfg.scale, cfg.seed).expect("the grid's datasets generate");
        let ds_path = format!("{}/{name}", TaskKind::Node.experiment());
        check_node_dataset(&ds, &ds_path, &mut report.findings);
        report.datasets_checked += 1;
        for cell in CellId::grid(TaskKind::Node, name) {
            let (model, fw) = (cell.model, cell.framework);
            let plan = StackPlan::node(model, fw, ds.features.cols(), ds.num_classes);
            lint_cell(&plan, &cell.path(), &mut report);
            let cert = certify_node_cell(model, fw, &ds);
            check_device_fit(&cert, &mut memory.findings);
            memory.cells.push(cert);
        }
    }

    // Table V: graph classification on ENZYMES / DD / MNIST.
    for name in GRAPH_DATASETS {
        let ds = graph_dataset(name, cfg.scale, cfg.seed).expect("the grid's datasets generate");
        let ds_path = format!("{}/{name}", TaskKind::Graph.experiment());
        let batch = cfg.batch_sizes.iter().copied().max().unwrap_or(128);
        check_graph_dataset(&ds, batch, &ds_path, &mut report.findings);
        report.datasets_checked += 1;
        let folds = folds(&ds, cfg.seed);
        for cell in CellId::grid(TaskKind::Graph, name) {
            let (model, fw) = (cell.model, cell.framework);
            let plan = StackPlan::graph(model, fw, ds.feature_dim, ds.num_classes);
            lint_cell(&plan, &cell.path(), &mut report);
            // Certify at the exact (clamped) batch the cell would run.
            let cert = certify_graph_cell(model, fw, &ds, graph_batch_size(model, &folds));
            check_device_fit(&cert, &mut memory.findings);
            memory.cells.push(cert);
        }
    }

    // Sampled cells: audited and certified entirely in closed form — no
    // RMAT graph is generated, so linting the million-node spec costs the
    // same as the 4k one.
    for spec in resolve_sample_specs(&cfg.sample_specs, &mut report.findings) {
        lint_sample_spec(&spec, &mut report, &mut memory);
    }

    memory.findings.extend(memory.check());
    // Memory-ceiling audit last: it needs the certified footprints of the
    // whole sweep to know the worst cell a `MemLimit` must accommodate.
    if let Some(plan) = &cfg.faults {
        check_memory_ceilings(plan, &memory.cells, &mut memory.findings);
    }
    report.findings.extend(memory.findings.iter().cloned());

    (report, memory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FindingKind;

    #[test]
    fn smoke_sweep_is_clean_and_covers_all_60_cells() {
        let report = lint_run(&RunConfig::smoke());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.cells_checked, 60);
        assert_eq!(report.datasets_checked, 5);
        assert!(report.ops_checked > 1000, "{}", report.ops_checked);
    }

    #[test]
    fn armed_fault_plans_are_audited() {
        use gnn_faults::{FaultKind, FaultPlan};
        let clean = lint_run(&RunConfig::smoke().with_faults(FaultPlan::canonical()));
        assert!(clean.is_clean(), "{clean}");
        let bad = RunConfig::smoke()
            .with_faults(FaultPlan::empty().with(FaultKind::ReplicaFailure { gpu: 99, at: 1 }));
        let report = lint_run(&bad);
        assert_eq!(report.of_kind(FindingKind::InvalidFaultPlan).len(), 1);
        assert!(
            report.to_string().contains("invalid-fault-plan"),
            "{report}"
        );
    }

    #[test]
    fn certify_run_covers_all_60_cells_deterministically() {
        let cfg = RunConfig::smoke();
        let memory = certify_run(&cfg);
        assert!(memory.is_clean(), "{memory}");
        assert_eq!(memory.cells.len(), 60);
        // Every lowered cell has a certificate at its lint path, with
        // ordered bounds.
        for cert in &memory.cells {
            assert!(cert.persistent > 0, "{}", cert.path());
            assert!(
                cert.persistent < cert.floor_fatal && cert.floor_fatal <= cert.peak_upper,
                "{}: persistent {} floor {} upper {}",
                cert.path(),
                cert.persistent,
                cert.floor_fatal,
                cert.peak_upper
            );
        }
        assert!(memory.cell("table4/Cora/GCN/PyG").is_some());
        assert!(memory.cell("table5/DD/GatedGCN/DGL").is_some());
        // Byte-identical export across reruns: CI's memory-certifier
        // entry diffs two runs.
        let again = certify_run(&cfg);
        assert_eq!(memory.to_value().to_json(), again.to_value().to_json());
    }

    #[test]
    fn sampled_cells_are_linted_and_certified_without_graph_generation() {
        // rmat-1m is the million-node headline spec; linting it must stay
        // closed-form (this test would time out if a graph were built).
        let cfg = RunConfig::smoke().with_samples(["rmat-1m", "rmat-4k"]);
        let (report, memory) = lint_run_with_memory(&cfg);
        assert!(report.is_clean(), "{report}");
        // 60 classic cells + 2 specs × 2 sampler kinds × 2 frameworks.
        assert_eq!(report.cells_checked, 68);
        assert_eq!(report.datasets_checked, 7);
        assert_eq!(memory.cells.len(), 68);
        let cert = memory
            .cell("sample/rmat-1m-neighbor/SAGE/PyG")
            .expect("sampled cert at its sweep path");
        assert_eq!(cert.experiment, "sample");
        // Bounds hold at the fan-out union, not the full graph: the
        // rmat-1m union of 512 seeds with fanouts [10, 5] is 31,232 nodes.
        assert_eq!(cert.nodes, 31_232);
        assert!(cert.persistent < cert.floor_fatal && cert.floor_fatal <= cert.peak_upper);
        assert!(memory.cell("sample/rmat-4k-layerwise/SAGE/DGL").is_some());
        // Deterministic export, like the classic cells.
        let again = certify_run(&cfg);
        assert_eq!(memory.to_value().to_json(), again.to_value().to_json());
    }

    #[test]
    fn broken_sample_spec_fails_the_lint() {
        let cfg = RunConfig::smoke().with_samples(["rmat-9z"]);
        let report = lint_run(&cfg);
        assert!(!report.is_clean());
        assert_eq!(report.of_kind(FindingKind::InvalidSampleConfig).len(), 1);
        assert!(report.to_string().contains("sample/rmat-9z"), "{report}");
    }

    #[test]
    fn unsatisfiable_memory_ceilings_fail_the_lint() {
        use gnn_faults::{FaultKind, FaultPlan};
        // 1 MiB sits above zero (so check_fault_plan passes it) but below
        // any cell's persistent footprint at smoke scale.
        let cfg = RunConfig::smoke()
            .with_faults(FaultPlan::empty().with(FaultKind::MemLimit { bytes: 1 << 20 }));
        let report = lint_run(&cfg);
        assert!(!report.is_clean());
        assert_eq!(report.of_kind(FindingKind::InvalidFaultPlan).len(), 1);
    }
}
