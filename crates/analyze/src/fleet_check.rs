//! Fleet-config auditing: the fleet engine's own hard rules plus the
//! warnings only a static pass can give, before any model is loaded.
//!
//! Every rule [`gnn_serve::FleetConfig::validate`] enforces is reported
//! from [`gnn_serve::FleetConfig::violations`], one finding per broken
//! rule under [`FindingKind::InvalidFleetConfig`], with the engine's own
//! error text. On top, this pass warns about fleets the engine accepts
//! but that silently measure the wrong thing: a retry budget above 1 lets
//! every primary admission fund more than one retry, so the recovery
//! machinery can *amplify* a brownout instead of containing it; an
//! ejection horizon (`fail_threshold × probe_interval`) at or past the
//! run's simulated length can never eject, so failover paths are dead
//! code under test. The `gnn-bench fleet` command's `--lint` gate refuses
//! to start on any finding.
//!
//! The fleet fault audit ([`check_fleet_fault_plan`]) cross-checks the
//! armed plan against the fleet's shape: a `blackout` or `netslow` spec
//! naming a shard the fleet does not have can never fire, an empty or
//! inverted window `[from, until)` likewise, and a `netslow` factor ≤ 1 is
//! not a straggler at all.

use gnn_faults::{FaultKind, FaultPlan};
use gnn_serve::{FleetConfig, FleetWorkload};

use crate::report::{Finding, FindingKind};
use crate::serve_check::{parse_endpoints, report_violations};

fn flag(findings: &mut Vec<Finding>, path: impl Into<String>, message: impl Into<String>) {
    findings.push(Finding::new(FindingKind::InvalidFleetConfig, path, message));
}

/// Audits a fleet serving run before execution, appending one finding per
/// broken rule or warning. `endpoints` are the *raw* endpoint paths as
/// given on the command line (pre-parse, so unknown cells are reportable).
/// Paths are `fleet/<knob>` ([`gnn_serve::ServeConfigError::knob`]) or
/// `fleet/endpoints/<i>`.
pub fn check_fleet_config(endpoints: &[String], cfg: &FleetConfig, findings: &mut Vec<Finding>) {
    let kind = FindingKind::InvalidFleetConfig;
    parse_endpoints(kind, "fleet", endpoints, findings);
    report_violations(kind, "fleet", cfg.violations(), findings);

    if cfg.retry_budget > 1.0 && cfg.retry_budget.is_finite() {
        flag(
            findings,
            "fleet/retry-budget",
            format!(
                "retry_budget={} exceeds 1: each admission funds more than one \
                 retry/hedge, so recovery traffic can amplify a brownout \
                 (dispatched work is bounded only by {}x submitted)",
                cfg.retry_budget,
                1.0 + cfg.retry_budget
            ),
        );
    }
    // A fleet whose ejection horizon reaches the run's simulated length can
    // never eject anything: the failover machinery is dead code under test.
    // Only the open-loop kinds have a pre-computable horizon (requests /
    // mean rate); closed loops self-pace.
    let health = &cfg.health;
    let horizon = cfg.requests as f64 / cfg.rate;
    let eject_after = health.fail_threshold as f64 * health.probe_interval;
    if matches!(cfg.workload, FleetWorkload::Open(_))
        && horizon.is_finite()
        && horizon > 0.0
        && eject_after.is_finite()
        && eject_after >= horizon
    {
        flag(
            findings,
            "fleet/health",
            format!(
                "ejection needs {} consecutive probes x {}s = {eject_after}s, but \
                 the workload's horizon is only ~{horizon:.4}s ({} requests at \
                 {}/s): the health checker can never eject a shard in this run",
                health.fail_threshold, health.probe_interval, cfg.requests, cfg.rate
            ),
        );
    }
}

/// Audits an armed fault plan against the fleet's shape, appending one
/// finding per fleet-level spec that can never fire (or fires vacuously).
/// Paths are `fleet/faults/<i>`. Non-fleet kinds (OOM, kernel, PCIe,
/// replica, NaN) are the generic fault-plan lint's business
/// ([`crate::check_fault_plan`]) and pass through untouched.
pub fn check_fleet_fault_plan(plan: &FaultPlan, cfg: &FleetConfig, findings: &mut Vec<Finding>) {
    for (i, spec) in plan.specs.iter().enumerate() {
        let path = format!("fleet/faults/{i}");
        match spec.kind {
            FaultKind::ShardBlackout { shard, from, until } => {
                check_window(findings, &path, "blackout", shard, from, until, cfg);
            }
            FaultKind::NetStraggler {
                shard,
                from,
                until,
                factor,
            } => {
                check_window(findings, &path, "netslow", shard, from, until, cfg);
                if !(factor.is_finite() && factor > 1.0) {
                    flag(
                        findings,
                        &path,
                        format!(
                            "netslow factor={factor} must exceed 1: a unit factor \
                             injects nothing"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

fn check_window(
    findings: &mut Vec<Finding>,
    path: &str,
    kind: &str,
    shard: usize,
    from: f64,
    until: f64,
    cfg: &FleetConfig,
) {
    if shard >= cfg.shards {
        flag(
            findings,
            path,
            format!(
                "{kind} names shard {shard}, but the fleet has only {} shard(s) \
                 (indices 0..{}): the fault can never fire",
                cfg.shards,
                cfg.shards.saturating_sub(1)
            ),
        );
    }
    if !(from.is_finite() && until.is_finite() && from >= 0.0) {
        flag(
            findings,
            path,
            format!("{kind} window [{from}, {until}) must be finite and non-negative"),
        );
    } else if from >= until {
        flag(
            findings,
            path,
            format!("{kind} window [{from}, {until}) is empty: the fault can never fire"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_endpoints(cfg: &FleetConfig) -> Vec<String> {
        cfg.endpoints.iter().map(|c| c.path()).collect()
    }

    fn lint(cfg: &FleetConfig) -> Vec<Finding> {
        let mut findings = Vec::new();
        check_fleet_config(&raw_endpoints(cfg), cfg, &mut findings);
        findings
    }

    #[test]
    fn default_fleet_is_clean() {
        let findings = lint(&FleetConfig::default());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unknown_cells_are_flagged_by_position() {
        let mut findings = Vec::new();
        check_fleet_config(
            &["table4/Cora/GCN/PyG".into(), "table9/Nope/GCN/PyG".into()],
            &FleetConfig::default(),
            &mut findings,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].kind.label(), "fleet-config");
        assert_eq!(findings[0].path, "fleet/endpoints/1");
    }

    #[test]
    fn amplifying_retry_budgets_are_flagged() {
        let cfg = FleetConfig {
            retry_budget: 1.5,
            ..FleetConfig::default()
        };
        let findings = lint(&cfg);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("amplify"));
        assert_eq!(findings[0].path, "fleet/retry-budget");

        // A budget of exactly 1 is the boundary: bounded, not amplifying.
        let cfg = FleetConfig {
            retry_budget: 1.0,
            ..FleetConfig::default()
        };
        assert!(lint(&cfg).is_empty());
    }

    #[test]
    fn never_ejecting_health_thresholds_are_flagged() {
        // 400 requests at 2000/s is a 0.2s horizon; 50 probes x 0.005s =
        // 0.25s can never be reached.
        let mut cfg = FleetConfig::default();
        cfg.health.fail_threshold = 50;
        let findings = lint(&cfg);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("can never eject"));
        assert_eq!(findings[0].path, "fleet/health");

        // Closed loops self-pace: no horizon, no never-eject finding.
        let mut cfg = FleetConfig {
            workload: FleetWorkload::Closed {
                clients: 4,
                think_time: 0.001,
            },
            ..FleetConfig::default()
        };
        cfg.health.fail_threshold = 50;
        assert!(lint(&cfg).is_empty());
    }

    #[test]
    fn fleet_fault_audit_catches_unfireable_specs() {
        let cfg = FleetConfig::default(); // 3 shards
        let plan = FaultPlan::empty()
            .with(FaultKind::ShardBlackout {
                shard: 7,
                from: 0.01,
                until: 0.05,
            })
            .with(FaultKind::ShardBlackout {
                shard: 0,
                from: 0.05,
                until: 0.05,
            })
            .with(FaultKind::NetStraggler {
                shard: 1,
                from: 0.0,
                until: 0.1,
                factor: 1.0,
            })
            .with(FaultKind::Oom { at: 3 });
        let mut findings = Vec::new();
        check_fleet_fault_plan(&plan, &cfg, &mut findings);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings[0].message.contains("only 3 shard(s)"));
        assert!(findings[1].message.contains("empty"));
        assert!(findings[2].message.contains("injects nothing"));
        assert_eq!(findings[0].path, "fleet/faults/0");

        let mut findings = Vec::new();
        check_fleet_fault_plan(&FaultPlan::canonical_fleet(), &cfg, &mut findings);
        assert!(
            findings.is_empty(),
            "canonical fleet plan is clean: {findings:?}"
        );
    }
}
