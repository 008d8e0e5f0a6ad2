//! Serve-config auditing: proving an inference-serving run can actually
//! fire its batches before any model is loaded.
//!
//! A [`gnn_serve::ServeConfig`] is plain data checked only when the engine
//! runs, so a misconfigured serving sweep fails late or silently: an
//! endpoint naming a cell the sweep never trains serves nothing, a
//! `max_delay` of zero with `max_batch > 1` dispatches every request alone
//! (the batcher exists but never batches), and a `max_batch` beyond the
//! dataset's admissible targets can never fill. This pass flags every
//! degenerate knob under [`FindingKind::InvalidServeConfig`] ahead of the
//! run — the `gnn-bench serve` binary's `--lint` gate refuses to start on
//! any finding.
//!
//! It also prices every endpoint's inference footprint through the memory
//! certifier ([`crate::memory`]) and rejects policies whose worst
//! `max_batch`-sized dispatch cannot fit one replica session's device
//! memory ([`FindingKind::ServeBatchExceedsReplicaMemory`]).

use gnn_core::cell::{graph_dataset, node_dataset};
use gnn_device::CostModel;
use gnn_serve::registry::target_count;
use gnn_serve::{CellId, ServeConfig, TaskKind, WorkloadKind, WorkloadSpec};

use crate::lower::StackPlan;
use crate::memory::footprint;
use crate::report::{Finding, FindingKind};

/// Audits a serving run before execution, appending one finding per
/// degenerate knob. `endpoints` are the *raw* endpoint paths as given on
/// the command line (pre-parse, so unknown cells are reportable);
/// `cfg.endpoints` itself is not consulted. Paths are `serve/policy`,
/// `serve/workload`, `serve/replicas`, `serve/endpoints/<i>`, or
/// `serve/<cell>/memory`.
pub fn check_serve_config(endpoints: &[String], cfg: &ServeConfig, findings: &mut Vec<Finding>) {
    if endpoints.is_empty() {
        findings.push(Finding::new(
            FindingKind::InvalidServeConfig,
            "serve/endpoints",
            "no endpoints configured: the registry would be empty",
        ));
    }
    let mut cells = Vec::new();
    for (i, raw) in endpoints.iter().enumerate() {
        match CellId::parse(raw) {
            Ok(cell) => cells.push(cell),
            Err(e) => findings.push(Finding::new(
                FindingKind::InvalidServeConfig,
                format!("serve/endpoints/{i}"),
                e.to_string(),
            )),
        }
    }

    let policy = &cfg.policy;
    let mut policy_flag = |message: String| {
        findings.push(Finding::new(
            FindingKind::InvalidServeConfig,
            "serve/policy",
            message,
        ));
    };
    if policy.max_batch == 0 {
        policy_flag("max_batch=0 can never dispatch a batch".into());
    }
    if !(policy.max_delay.is_finite() && policy.max_delay >= 0.0) {
        policy_flag(format!(
            "max_delay={} must be finite and non-negative",
            policy.max_delay
        ));
    } else if policy.max_delay == 0.0 && policy.max_batch > 1 {
        policy_flag(format!(
            "max_delay=0 with max_batch={} can never batch: the head request \
             dispatches immediately, so the batcher degenerates to batch size 1",
            policy.max_batch
        ));
    }
    if cfg.queue_cap < policy.max_batch {
        policy_flag(format!(
            "queue_cap={} below max_batch={}: a full batch can never accumulate",
            cfg.queue_cap, policy.max_batch
        ));
    }
    // The size-fill rule can also never fire when a named endpoint's
    // dataset has fewer admissible targets than one batch holds.
    for cell in &cells {
        match target_count(cell, cfg.scale, cfg.seed) {
            Ok(n) if (policy.max_batch as u64) > u64::from(n) => {
                findings.push(Finding::new(
                    FindingKind::InvalidServeConfig,
                    format!("serve/{}", cell.path()),
                    format!(
                        "max_batch={} exceeds the dataset's {n} admissible target(s) \
                         at scale {}: a full batch can never fill",
                        policy.max_batch, cfg.scale
                    ),
                ));
            }
            Ok(_) => {}
            Err(e) => findings.push(Finding::new(
                FindingKind::InvalidServeConfig,
                format!("serve/{}", cell.path()),
                e.to_string(),
            )),
        }
    }

    // Workload degeneracy rides the typed constructor: the lint finding's
    // message is exactly the `WorkloadError` the engine would refuse with.
    for err in workload_errors(cfg.requests, cfg.rate) {
        findings.push(Finding::new(
            FindingKind::InvalidServeConfig,
            "serve/workload",
            err,
        ));
    }
    if cfg.replicas == 0 {
        findings.push(Finding::new(
            FindingKind::InvalidServeConfig,
            "serve/replicas",
            "replicas=0: no device session can execute batches",
        ));
    }

    check_replica_memory(&cells, cfg, CostModel::rtx2080ti().device_memory, findings);
}

/// Probes each workload knob independently through the typed
/// [`WorkloadSpec::new`] constructor (one finding per degenerate knob, even
/// when several are degenerate at once — the constructor itself stops at
/// the first).
fn workload_errors(requests: usize, rate: f64) -> Vec<String> {
    let mut out = Vec::new();
    if let Err(e) = WorkloadSpec::new(0, requests, 1.0, WorkloadKind::OpenLoop) {
        out.push(e.to_string());
    }
    if let Err(e) = WorkloadSpec::new(0, 1, rate, WorkloadKind::OpenLoop) {
        out.push(e.to_string());
    }
    out
}

/// Audits each endpoint's certified inference footprint against one
/// replica session's device `capacity` (production uses the RTX 2080 Ti's,
/// the study's serving card), appending
/// [`FindingKind::ServeBatchExceedsReplicaMemory`] findings at
/// `serve/<cell>/memory`.
///
/// Each dispatch installs a fresh device session, so the footprint is the
/// loader's batch allocation plus one no-grad forward:
///
/// - node endpoints answer from a *full-graph* forward, so the batch size
///   is irrelevant — an oversized graph can never be answered at all
///   (OOM splitting re-runs the same full graph);
/// - graph endpoints collate the requested samples, so the worst
///   `max_batch`-sized batch (the largest node counts and, independently,
///   the largest edge counts the workload can compose) bounds every
///   dispatch; when it cannot fit, the policy's `max_batch` is unreachable
///   and every full batch burns an OOM split before succeeding.
pub fn check_replica_memory(
    cells: &[CellId],
    cfg: &ServeConfig,
    capacity: u64,
    findings: &mut Vec<Finding>,
) {
    for cell in cells {
        let Some((need, detail)) = replica_footprint(cell, cfg) else {
            continue; // unknown dataset: already flagged against the parse
        };
        if need > capacity {
            findings.push(Finding::new(
                FindingKind::ServeBatchExceedsReplicaMemory,
                format!("serve/{}/memory", cell.path()),
                format!(
                    "certified inference footprint {need} B ({detail}) exceeds one \
                     replica session's {capacity} B of device memory"
                ),
            ));
        }
    }
}

/// The certified per-dispatch device footprint of `cell` under `cfg`, with
/// a human-readable breakdown; `None` for unknown dataset names.
fn replica_footprint(cell: &CellId, cfg: &ServeConfig) -> Option<(u64, String)> {
    let (model, fw) = (cell.model, cell.framework);
    // Per task: the stack, the worst dispatch's nodes / edges / graphs, and
    // how to describe it.
    let (plan, n, e, graphs, detail) = match cell.task {
        TaskKind::Node => {
            let ds = node_dataset(&cell.dataset, cfg.scale, cfg.seed).ok()?;
            let (n, e) = (ds.graph.num_nodes() as u64, ds.graph.num_edges() as u64);
            let plan = StackPlan::node(model, fw, ds.features.cols(), ds.num_classes);
            let detail = format!("full-graph forward over {n} nodes / {e} edges");
            (plan, n, e, 1, detail)
        }
        TaskKind::Graph => {
            let ds = graph_dataset(&cell.dataset, cfg.scale, cfg.seed).ok()?;
            if ds.samples.is_empty() || cfg.policy.max_batch == 0 {
                return None; // degenerate cases carry their own findings
            }
            let b = cfg.policy.max_batch.min(ds.samples.len());
            let top = |count: fn(&gnn_datasets::GraphSample) -> usize| -> u64 {
                let mut counts: Vec<u64> = ds.samples.iter().map(|s| count(s) as u64).collect();
                counts.sort_unstable_by(|a, b| b.cmp(a));
                counts.iter().take(b).sum()
            };
            let (n, e) = (top(|s| s.graph.num_nodes()), top(|s| s.graph.num_edges()));
            let plan = StackPlan::graph(model, fw, ds.feature_dim, ds.num_classes);
            let detail = format!("worst max_batch={b} composition: {n} nodes / {e} edges");
            (plan, n, e, b as u64, detail)
        }
        TaskKind::Sample => {
            // A sampled dispatch forwards the union block of at most
            // `max_batch` seed nodes; the fan-out schedule bounds that
            // union without generating the (possibly million-node) graph.
            let (spec, _) = gnn_serve::sample_dataset(&cell.dataset)?;
            let seeds = cfg.policy.max_batch;
            if seeds == 0 {
                return None; // degenerate policy carries its own finding
            }
            let n = gnn_sample::max_union_nodes(seeds, &spec.fanouts);
            let e = gnn_sample::max_union_edges(seeds, &spec.fanouts);
            let plan = StackPlan::node(model, fw, spec.rmat.feature_dim, spec.rmat.num_classes);
            let detail = format!("worst max_batch={seeds}-seed union block: {n} nodes / {e} edges");
            (plan, n, e, 1, detail)
        }
    };
    let fp = footprint(&plan);
    let need = fp.load.eval(n, e, graphs) + fp.forward.minus_const(4).eval(n, e, graphs);
    Some((need, detail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_serve::BatchPolicy;

    fn raw(paths: &[&str]) -> Vec<String> {
        paths.iter().map(|p| (*p).to_string()).collect()
    }

    fn lint(endpoints: &[String], cfg: &ServeConfig) -> Vec<Finding> {
        let mut findings = Vec::new();
        check_serve_config(endpoints, cfg, &mut findings);
        findings
    }

    #[test]
    fn default_config_is_clean() {
        let cfg = ServeConfig::default();
        let endpoints: Vec<String> = cfg.endpoints.iter().map(|c| c.path()).collect();
        let findings = lint(&endpoints, &cfg);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unknown_cells_are_flagged_by_position() {
        let cfg = ServeConfig::default();
        let endpoints = raw(&[
            "table4/Cora/GCN/PyG",
            "table6/Cora/GCN/PyG",
            "table4/Cora/VGG/PyG",
        ]);
        let findings = lint(&endpoints, &cfg);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .all(|f| f.kind == FindingKind::InvalidServeConfig));
        assert_eq!(findings[0].path, "serve/endpoints/1");
        assert_eq!(findings[1].path, "serve/endpoints/2");
        assert!(findings[1].message.contains("model"));
    }

    #[test]
    fn never_firing_policies_are_flagged() {
        let mut cfg = ServeConfig {
            policy: BatchPolicy {
                max_batch: 8,
                max_delay: 0.0,
            },
            ..ServeConfig::default()
        };
        let endpoints = raw(&["table4/Cora/GCN/PyG"]);
        let findings = lint(&endpoints, &cfg);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("can never batch"));

        cfg.policy = BatchPolicy {
            max_batch: 0,
            max_delay: 0.001,
        };
        let findings = lint(&endpoints, &cfg);
        assert!(findings
            .iter()
            .any(|f| f.message.contains("can never dispatch")));

        // max_batch == 1 with zero delay is a legitimate no-batching mode.
        cfg.policy = BatchPolicy {
            max_batch: 1,
            max_delay: 0.0,
        };
        assert!(lint(&endpoints, &cfg).is_empty());
    }

    #[test]
    fn oversized_batches_and_starved_queues_are_flagged() {
        // ENZYMES at smoke scale has a few dozen graphs; 10_000 cannot fill.
        let mut cfg = ServeConfig {
            policy: BatchPolicy {
                max_batch: 10_000,
                max_delay: 0.001,
            },
            queue_cap: 20_000,
            ..ServeConfig::default()
        };
        let endpoints = raw(&["table5/ENZYMES/GIN/DGL"]);
        let findings = lint(&endpoints, &cfg);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].path.contains("ENZYMES"));
        assert!(findings[0].message.contains("can never fill"));

        cfg.policy = BatchPolicy {
            max_batch: 8,
            max_delay: 0.001,
        };
        cfg.queue_cap = 4;
        let findings = lint(&endpoints, &cfg);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("never accumulate"));
    }

    #[test]
    fn replica_memory_is_certified_per_endpoint() {
        let cfg = ServeConfig::default();
        let cells: Vec<CellId> = cfg.endpoints.clone();

        // The default fleet fits the production card (also covered by
        // `default_config_is_clean`), and trivially an infinite card.
        let mut findings = Vec::new();
        check_replica_memory(&cells, &cfg, u64::MAX, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");

        // A replica with almost no memory can serve nothing: every
        // endpoint's footprint is flagged at its memory path.
        let mut findings = Vec::new();
        check_replica_memory(&cells, &cfg, 1 << 10, &mut findings);
        assert_eq!(findings.len(), cells.len(), "{findings:?}");
        assert!(findings
            .iter()
            .all(|f| f.kind == FindingKind::ServeBatchExceedsReplicaMemory));
        assert!(findings
            .iter()
            .any(|f| f.path == format!("serve/{}/memory", cells[0].path())));
        // Node endpoints report the full graph; graph endpoints the worst
        // max_batch composition.
        assert!(findings.iter().any(|f| f.message.contains("full-graph")));
        assert!(findings.iter().any(|f| f.message.contains("max_batch")));

        // The graph footprint grows with the policy's max_batch, so a
        // capacity between the two compositions separates the policies.
        let graph_cell: Vec<CellId> = cells
            .iter()
            .filter(|c| c.task == gnn_serve::TaskKind::Graph)
            .take(1)
            .cloned()
            .collect();
        let small = replica_need(&graph_cell[0], 1, &cfg);
        let large = replica_need(&graph_cell[0], 64, &cfg);
        assert!(small < large, "{small} vs {large}");
        let mut between = ServeConfig {
            policy: gnn_serve::BatchPolicy {
                max_batch: 64,
                max_delay: 0.001,
            },
            ..ServeConfig::default()
        };
        let mut findings = Vec::new();
        check_replica_memory(&graph_cell, &between, small.max(large - 1), &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        between.policy.max_batch = 1;
        let mut findings = Vec::new();
        check_replica_memory(&graph_cell, &between, small, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    fn replica_need(cell: &CellId, max_batch: usize, base: &ServeConfig) -> u64 {
        let cfg = ServeConfig {
            policy: gnn_serve::BatchPolicy {
                max_batch,
                max_delay: 0.001,
            },
            ..base.clone()
        };
        super::replica_footprint(cell, &cfg)
            .expect("known dataset")
            .0
    }

    #[test]
    fn degenerate_workload_and_fleet_are_flagged() {
        let cfg = ServeConfig {
            requests: 0,
            rate: 0.0,
            replicas: 0,
            ..ServeConfig::default()
        };
        let findings = lint(&raw(&["table4/Cora/GCN/PyG"]), &cfg);
        assert_eq!(findings.len(), 3, "{findings:?}");
        let findings = lint(&[], &cfg);
        assert!(findings.iter().any(|f| f.path == "serve/endpoints"));
    }
}
