//! Serve-config auditing: the engine's own hard rules plus the warnings
//! only a static pass can give, before any model is loaded.
//!
//! Every rule [`gnn_serve::ServeConfig::validate`] enforces is reported
//! from [`gnn_serve::ServeConfig::violations`], one finding per broken
//! rule under [`FindingKind::InvalidServeConfig`], with the engine's own
//! error text. On top, this pass warns about configs the engine accepts
//! but that cannot do what they say: a `max_delay` of zero with
//! `max_batch > 1` dispatches every request alone (the batcher exists but
//! never batches), a `max_batch` beyond a dataset's admissible targets can
//! never fill, and an endpoint naming an unknown cell serves nothing. The
//! `gnn-bench serve` command's `--lint` gate refuses to start on any
//! finding.
//!
//! It also prices every endpoint's inference footprint through the memory
//! certifier ([`crate::memory`]) and rejects policies whose worst
//! `max_batch`-sized dispatch cannot fit one replica session's device
//! memory ([`FindingKind::ServeBatchExceedsReplicaMemory`]).

use gnn_core::cell::{graph_dataset, node_dataset};
use gnn_device::CostModel;
use gnn_models::build::StackPlan;
use gnn_serve::registry::target_count;
use gnn_serve::{CellId, ServeConfig, ServeConfigError, TaskKind};

use crate::memory::footprint;
use crate::report::{Finding, FindingKind};

/// Parses the *raw* endpoint paths as given on the command line, one
/// `kind` finding at `<root>/endpoints/<i>` per path that names no cell.
pub(crate) fn parse_endpoints(
    kind: FindingKind,
    root: &str,
    endpoints: &[String],
    findings: &mut Vec<Finding>,
) -> Vec<CellId> {
    let mut cells = Vec::new();
    for (i, raw) in endpoints.iter().enumerate() {
        match CellId::parse(raw) {
            Ok(cell) => cells.push(cell),
            Err(e) => findings.push(Finding::new(
                kind,
                format!("{root}/endpoints/{i}"),
                e.to_string(),
            )),
        }
    }
    cells
}

/// One `kind` finding per violated engine rule, at `<root>/<knob>`.
pub(crate) fn report_violations(
    kind: FindingKind,
    root: &str,
    violations: Vec<ServeConfigError>,
    findings: &mut Vec<Finding>,
) {
    for err in violations {
        findings.push(Finding::new(
            kind,
            format!("{root}/{}", err.knob()),
            err.to_string(),
        ));
    }
}

/// Audits a serving run before execution, appending one finding per
/// broken rule or warning. `endpoints` are the *raw* endpoint paths as
/// given on the command line (pre-parse, so unknown cells are reportable).
/// Paths are `serve/<knob>` ([`ServeConfigError::knob`]),
/// `serve/endpoints/<i>`, `serve/<cell>`, or `serve/<cell>/memory`.
pub fn check_serve_config(endpoints: &[String], cfg: &ServeConfig, findings: &mut Vec<Finding>) {
    let kind = FindingKind::InvalidServeConfig;
    let cells = parse_endpoints(kind, "serve", endpoints, findings);
    report_violations(kind, "serve", cfg.violations(), findings);

    let max_batch = cfg.policy.max_batch;
    if cfg.policy.max_delay == 0.0 && max_batch > 1 {
        findings.push(Finding::new(
            kind,
            "serve/policy",
            format!(
                "max_delay=0 with max_batch={max_batch} can never batch: the head request \
                 dispatches immediately, so the batcher degenerates to batch size 1"
            ),
        ));
    }
    // The size-fill rule can also never fire when a named endpoint's
    // dataset has fewer admissible targets than one batch holds.
    for cell in &cells {
        let message = match target_count(cell, cfg.scale, cfg.seed) {
            Ok(n) if (max_batch as u64) > u64::from(n) => format!(
                "max_batch={max_batch} exceeds the dataset's {n} admissible target(s) \
                 at scale {}: a full batch can never fill",
                cfg.scale
            ),
            Ok(_) => continue,
            Err(e) => e.to_string(),
        };
        findings.push(Finding::new(
            kind,
            format!("serve/{}", cell.path()),
            message,
        ));
    }

    check_replica_memory(&cells, cfg, CostModel::rtx2080ti().device_memory, findings);
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
    use gnn_serve::{BatchPolicy, FleetConfig, FleetWorkload, WorkloadKind};

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

        // max_batch == 1 with zero delay is a legitimate no-batching mode.
        cfg.policy = BatchPolicy {
            max_batch: 1,
            max_delay: 0.0,
        };
        assert!(lint(&endpoints, &cfg).is_empty());
    }

    #[test]
    fn oversized_batches_are_flagged() {
        // ENZYMES at smoke scale has a few dozen graphs; 10_000 cannot fill.
        let cfg = ServeConfig {
            policy: BatchPolicy {
                max_batch: 10_000,
                max_delay: 0.001,
            },
            queue_cap: 20_000,
            ..ServeConfig::default()
        };
        let findings = lint(&raw(&["table5/ENZYMES/GIN/DGL"]), &cfg);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].path.contains("ENZYMES"));
        assert!(findings[0].message.contains("can never fill"));
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

    /// The lint and the engines agree rule by rule: a config with one
    /// knob broken gets exactly one finding, carrying the error `validate`
    /// refuses with, and a valid config gets none.
    #[test]
    fn each_broken_rule_is_one_finding_with_the_engines_error() {
        fn expect(
            kind: FindingKind,
            root: &str,
            verdict: Result<(), ServeConfigError>,
        ) -> Vec<Finding> {
            let err = verdict.err().into_iter();
            err.map(|e| Finding::new(kind, format!("{root}/{}", e.knob()), e.to_string()))
                .collect()
        }
        let serve: &[fn(&mut ServeConfig)] = &[
            |_| {},
            |c| c.endpoints.clear(),
            |c| c.requests = 0,
            |c| c.rate = -1.0,
            |c| c.replicas = 0,
            |c| c.policy.max_batch = 0,
            |c| c.policy.max_delay = f64::NAN,
            |c| c.queue_cap = 2,
            |c| c.slo_target = 0.0,
        ];
        for break_knob in serve {
            let mut cfg = ServeConfig::default();
            break_knob(&mut cfg);
            let endpoints: Vec<String> = cfg.endpoints.iter().map(CellId::path).collect();
            let kind = FindingKind::InvalidServeConfig;
            assert_eq!(
                lint(&endpoints, &cfg),
                expect(kind, "serve", cfg.validate())
            );
        }

        fn autoscale(c: &mut FleetConfig) -> &mut gnn_serve::AutoscalePolicy {
            c.autoscale.as_mut().expect("the default fleet autoscales")
        }
        let fleet: &[fn(&mut FleetConfig)] = &[
            |_| {},
            |c| c.endpoints.clear(),
            |c| c.shards = 0,
            |c| c.replicas_per_shard = 0,
            |c| c.policy.max_batch = 0,
            |c| c.policy.max_delay = -1.0,
            |c| c.queue_cap = 2,
            |c| c.admission_cap = 0,
            |c| c.retry_budget = f64::NAN,
            |c| c.health.probe_interval = 0.0,
            |c| c.health.fail_threshold = 0,
            |c| c.health.readmit_threshold = 0,
            |c| c.hedge_after = Some(-1.0),
            |c| c.net_delay = -1.0,
            |c| c.slo_target = 0.0,
            |c| autoscale(c).min_replicas = 0,
            |c| autoscale(c).min_replicas = 5,
            |c| autoscale(c).queue_low = 24,
            |c| autoscale(c).cooldown = f64::NAN,
            |c| c.requests = 0,
            |c| c.rate = 0.0,
            |c| {
                c.workload = FleetWorkload::Open(WorkloadKind::Diurnal {
                    period: 0.0,
                    amplitude: 0.5,
                })
            },
            |c| {
                c.workload = FleetWorkload::Closed {
                    clients: 0,
                    think_time: 0.01,
                }
            },
        ];
        for break_knob in fleet {
            let mut cfg = FleetConfig::default();
            break_knob(&mut cfg);
            let endpoints: Vec<String> = cfg.endpoints.iter().map(CellId::path).collect();
            let mut findings = Vec::new();
            crate::check_fleet_config(&endpoints, &cfg, &mut findings);
            let kind = FindingKind::InvalidFleetConfig;
            assert_eq!(findings, expect(kind, "fleet", cfg.validate()));
        }
    }
}
