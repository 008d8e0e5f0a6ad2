//! Fleet-config auditing: proving a sharded serving run can route, eject,
//! and recover before any model is loaded.
//!
//! A [`gnn_serve::FleetConfig`] is plain data checked only when the fleet
//! engine runs, so a misconfigured chaos experiment fails late or — worse —
//! runs and silently measures the wrong thing: a fleet with zero shards
//! routes nothing; a retry budget above 1 lets every primary admission fund
//! more than one retry, so the recovery machinery can *amplify* a brownout
//! instead of containing it; health thresholds whose ejection horizon
//! (`fail_threshold × probe_interval`) exceeds the run's simulated length
//! can never eject, so failover paths are dead code under test. This pass
//! flags every such knob under [`FindingKind::InvalidFleetConfig`] ahead of
//! the run — the `gnn-bench fleet` command's `--lint` gate refuses to start
//! on any finding.
//!
//! The fleet fault audit ([`check_fleet_fault_plan`]) cross-checks the
//! armed plan against the fleet's shape: a `blackout` or `netslow` spec
//! naming a shard the fleet does not have can never fire, an empty or
//! inverted window `[from, until)` likewise, and a `netslow` factor ≤ 1 is
//! not a straggler at all.

use gnn_faults::{FaultKind, FaultPlan};
use gnn_serve::{CellId, ClosedLoop, FleetConfig, FleetWorkload, WorkloadSpec};

use crate::report::{Finding, FindingKind};

fn flag(findings: &mut Vec<Finding>, path: impl Into<String>, message: impl Into<String>) {
    findings.push(Finding::new(FindingKind::InvalidFleetConfig, path, message));
}

/// Audits a fleet serving run before execution, appending one finding per
/// degenerate knob. `endpoints` are the *raw* endpoint paths as given on
/// the command line (pre-parse, so unknown cells are reportable);
/// `cfg.endpoints` itself is not consulted. Paths are `fleet/shards`,
/// `fleet/endpoints/<i>`, `fleet/admission`, `fleet/retry-budget`,
/// `fleet/hedge`, `fleet/health`, `fleet/autoscale`, or `fleet/workload`.
pub fn check_fleet_config(endpoints: &[String], cfg: &FleetConfig, findings: &mut Vec<Finding>) {
    if endpoints.is_empty() {
        flag(
            findings,
            "fleet/endpoints",
            "no endpoints configured: every request would be unroutable",
        );
    }
    for (i, raw) in endpoints.iter().enumerate() {
        if let Err(e) = CellId::parse(raw) {
            flag(findings, format!("fleet/endpoints/{i}"), e.to_string());
        }
    }

    if cfg.shards == 0 {
        flag(
            findings,
            "fleet/shards",
            "shards=0: the router has nowhere to send any request \
             (every arrival sheds as unroutable)",
        );
    }
    if cfg.replicas_per_shard == 0 {
        flag(
            findings,
            "fleet/shards",
            "replicas_per_shard=0: every shard fails its first health probe \
             and the whole fleet ejects",
        );
    }
    if cfg.admission_cap == 0 {
        flag(
            findings,
            "fleet/admission",
            "admission_cap=0: every request sheds before queuing",
        );
    }

    if !(cfg.retry_budget.is_finite() && cfg.retry_budget >= 0.0) {
        flag(
            findings,
            "fleet/retry-budget",
            format!(
                "retry_budget={} must be finite and non-negative",
                cfg.retry_budget
            ),
        );
    } else if cfg.retry_budget > 1.0 {
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
    if let Some(h) = cfg.hedge_after {
        if !(h.is_finite() && h > 0.0) {
            flag(
                findings,
                "fleet/hedge",
                format!("hedge_after={h} must be positive"),
            );
        }
    }

    check_health(cfg, findings);
    check_autoscale(cfg, findings);
    check_workload(cfg, findings);
}

fn check_health(cfg: &FleetConfig, findings: &mut Vec<Finding>) {
    let health = &cfg.health;
    if !(health.probe_interval.is_finite() && health.probe_interval > 0.0) {
        flag(
            findings,
            "fleet/health",
            format!(
                "probe_interval={} must be positive: health is never observed",
                health.probe_interval
            ),
        );
        return; // the horizon check below would divide by nonsense
    }
    if health.fail_threshold == 0 {
        flag(
            findings,
            "fleet/health",
            "fail_threshold=0: ejection can never be reached",
        );
    }
    if health.readmit_threshold == 0 {
        flag(
            findings,
            "fleet/health",
            "readmit_threshold=0: re-admission can never be reached",
        );
    }
    // A fleet whose ejection horizon exceeds the run's simulated length can
    // never eject anything: the failover machinery is dead code under test.
    // Only the open-loop kinds have a pre-computable horizon (requests /
    // mean rate); closed loops self-pace.
    if let FleetWorkload::Open(_) = cfg.workload {
        if cfg.rate > 0.0 && cfg.rate.is_finite() && health.fail_threshold > 0 {
            let horizon = cfg.requests as f64 / cfg.rate;
            let eject_after = health.fail_threshold as f64 * health.probe_interval;
            if eject_after >= horizon && horizon > 0.0 {
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
    }
}

fn check_autoscale(cfg: &FleetConfig, findings: &mut Vec<Finding>) {
    let Some(a) = &cfg.autoscale else { return };
    if a.min_replicas == 0 {
        flag(
            findings,
            "fleet/autoscale",
            "min_replicas=0: scale-down can empty a shard, which then fails \
             every health probe",
        );
    }
    if a.min_replicas > a.max_replicas {
        flag(
            findings,
            "fleet/autoscale",
            format!(
                "min_replicas={} above max_replicas={}: no replica count satisfies \
                 both bounds",
                a.min_replicas, a.max_replicas
            ),
        );
    }
    if a.queue_low >= a.queue_high {
        flag(
            findings,
            "fleet/autoscale",
            format!(
                "queue_low={} not below queue_high={}: one queue depth triggers both \
                 scale-up and scale-down, so the controller thrashes",
                a.queue_low, a.queue_high
            ),
        );
    }
    if !(a.cooldown.is_finite() && a.cooldown >= 0.0) {
        flag(
            findings,
            "fleet/autoscale",
            format!("cooldown={} must be finite and non-negative", a.cooldown),
        );
    }
}

fn check_workload(cfg: &FleetConfig, findings: &mut Vec<Finding>) {
    // The typed constructors are the source of truth: the lint message is
    // exactly the `WorkloadError` the engine would refuse with.
    match &cfg.workload {
        FleetWorkload::Open(kind) => {
            if let Err(e) = WorkloadSpec::new(cfg.seed, cfg.requests, cfg.rate, *kind) {
                flag(findings, "fleet/workload", e.to_string());
            }
        }
        FleetWorkload::Closed {
            clients,
            think_time,
        } => {
            if let Err(e) = ClosedLoop::new(cfg.seed, cfg.requests, *clients, *think_time) {
                flag(findings, "fleet/workload", e.to_string());
            }
        }
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
    use gnn_serve::{AutoscalePolicy, WorkloadKind};

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
    fn unroutable_fleets_are_flagged() {
        let mut cfg = FleetConfig {
            shards: 0,
            ..FleetConfig::default()
        };
        let findings = lint(&cfg);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].kind, FindingKind::InvalidFleetConfig);
        assert_eq!(findings[0].kind.label(), "fleet-config");
        assert!(findings[0].message.contains("unroutable"));

        cfg.shards = 2;
        cfg.endpoints.clear();
        let mut findings = Vec::new();
        check_fleet_config(&[], &cfg, &mut findings);
        assert!(findings.iter().any(|f| f.path == "fleet/endpoints"));

        let cfg = FleetConfig::default();
        let mut findings = Vec::new();
        check_fleet_config(
            &["table4/Cora/GCN/PyG".into(), "table9/Nope/GCN/PyG".into()],
            &cfg,
            &mut findings,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
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

        let cfg = FleetConfig {
            retry_budget: f64::NAN,
            ..FleetConfig::default()
        };
        let findings = lint(&cfg);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("finite"));

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

        let mut cfg = FleetConfig::default();
        cfg.health.probe_interval = 0.0;
        let findings = lint(&cfg);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("never observed"));

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
    fn degenerate_autoscale_and_workloads_are_flagged() {
        let cfg = FleetConfig {
            autoscale: Some(AutoscalePolicy {
                queue_high: 4,
                queue_low: 4,
                min_replicas: 3,
                max_replicas: 2,
                cooldown: 0.01,
            }),
            ..FleetConfig::default()
        };
        let findings = lint(&cfg);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.path == "fleet/autoscale"));
        assert!(findings.iter().any(|f| f.message.contains("thrashes")));

        let cfg = FleetConfig {
            workload: FleetWorkload::Open(WorkloadKind::Diurnal {
                period: 0.0,
                amplitude: 0.5,
            }),
            ..FleetConfig::default()
        };
        let findings = lint(&cfg);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].path, "fleet/workload");
        assert!(findings[0].message.contains("period"));

        let cfg = FleetConfig {
            workload: FleetWorkload::Closed {
                clients: 0,
                think_time: 0.01,
            },
            ..FleetConfig::default()
        };
        let findings = lint(&cfg);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("client"));
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
