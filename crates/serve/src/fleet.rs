//! The fleet: [`FleetConfig`] and [`serve_fleet`] — validate + registry +
//! workload + the one dispatch loop (`dispatch.rs`), the same loop the
//! single engine runs with every policy below switched off.
//!
//! A fleet is `shards` endpoint shards, each owning its own per-endpoint
//! batch queues and replica slots. A router ([`crate::Router`]) picks the
//! shard for every arrival; a health checker ([`crate::HealthState`])
//! probes every shard at fixed simulated intervals and ejects shards that
//! fail consecutively (blackout windows, dead replicas), draining their
//! queues into failover re-routes or typed sheds; an autoscaler
//! ([`crate::Autoscaler`]) moves each shard's replica count between
//! watermarks. Every knob is deterministic, so a rerun with the same
//! [`FleetConfig`] and fault plan reproduces `serve_metrics.csv`
//! bit-identically — asserted by the router-determinism property test,
//! `tests/serving_golden.rs` and the serving entry of CI's `artifacts`
//! job.
//!
//! **Conservation.** Every generated request reaches exactly one terminal
//! typed outcome: answered ([`crate::Outcome::Ok`]), rejected
//! ([`crate::Outcome::Rejected`], full queue), or shed
//! ([`crate::Outcome::Shed`] — admission cap, unroutable, or ejection drain
//! without a retry token). The core asserts it at the end of every run.
//!
//! **Bounded amplification.** Retries and hedges spend from a token
//! bucket that earns `retry_budget` tokens per primary admission and pays
//! one token per extra enqueue, so total enqueued work is provably
//! ≤ `(1 + retry_budget) × submitted` — asserted at runtime on every run;
//! the `fleet-config` lint warns when the budget exceeds 1.

use std::path::PathBuf;

use gnn_device::CostModel;

use crate::autoscale::AutoscalePolicy;
use crate::batcher::BatchPolicy;
use crate::cell::{default_endpoints, CellId};
use crate::dispatch::{simulate, Plan};
use crate::engine::exec_targets;
use crate::error::ServeConfigError;
use crate::health::HealthPolicy;
use crate::metrics::ServeReport;
use crate::registry::ModelRegistry;
use crate::router::RoutingPolicy;
use crate::workload::{self, ClosedLoop, WorkloadKind, WorkloadSpec};

/// The arrival process a fleet run drives.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetWorkload {
    /// A pre-generated open-loop stream ([`WorkloadKind`]): constant-rate,
    /// diurnal, or flash-crowd.
    Open(WorkloadKind),
    /// A closed loop of `clients` simulated users, each keeping one
    /// request outstanding with exponential `think_time` gaps.
    Closed {
        /// Concurrent simulated clients.
        clients: usize,
        /// Mean think time between a reply and the client's next request.
        think_time: f64,
    },
}

/// Everything one fleet serving run needs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Cells every shard loads and serves.
    pub endpoints: Vec<CellId>,
    /// Endpoint shards in the fleet.
    pub shards: usize,
    /// Replica slots each shard starts with.
    pub replicas_per_shard: usize,
    /// Routing policy at the fleet front door.
    pub routing: RoutingPolicy,
    /// Batching policy every shard runs.
    pub policy: BatchPolicy,
    /// Per-endpoint queue bound within each shard.
    pub queue_cap: usize,
    /// Per-shard outstanding-request cap; arrivals beyond it are shed
    /// with [`crate::ServeError::Shed`] before queuing.
    pub admission_cap: usize,
    /// Retry tokens earned per primary admission; retries and hedge twins
    /// spend one token each, so extra work ≤ `retry_budget × submitted`.
    pub retry_budget: f64,
    /// Hedge a queued request onto a second shard after this many
    /// simulated seconds without dispatch (`None` disables hedging).
    pub hedge_after: Option<f64>,
    /// Health-checking knobs.
    pub health: HealthPolicy,
    /// Autoscaling knobs (`None` pins replica counts).
    pub autoscale: Option<AutoscalePolicy>,
    /// One-way router↔shard network delay added to every reply (scaled by
    /// an active `netslow` fault's factor).
    pub net_delay: f64,
    /// SLO latency target (seconds) the report grades attainment against.
    pub slo_target: f64,
    /// The arrival process.
    pub workload: FleetWorkload,
    /// Total requests (open loop: generated up front; closed loop: the
    /// minting budget).
    pub requests: usize,
    /// Mean arrival rate for open-loop kinds, requests per simulated second.
    pub rate: f64,
    /// Seed for workload, dataset, and architecture generation.
    pub seed: u64,
    /// Dataset scale factor (sweep convention).
    pub scale: f64,
    /// Directory of `gnn-ckpt v1` checkpoints to restore weights from.
    pub ckpt_dir: Option<PathBuf>,
    /// Cost model pricing every replica session.
    pub cost: CostModel,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            endpoints: default_endpoints(),
            shards: 3,
            replicas_per_shard: 2,
            routing: RoutingPolicy::ConsistentHash,
            policy: BatchPolicy {
                max_batch: 8,
                max_delay: 0.002,
            },
            queue_cap: 32,
            admission_cap: 64,
            retry_budget: 0.5,
            hedge_after: Some(0.01),
            health: HealthPolicy::default(),
            autoscale: Some(AutoscalePolicy::default()),
            net_delay: 0.0002,
            slo_target: 0.005,
            workload: FleetWorkload::Open(WorkloadKind::OpenLoop),
            requests: 400,
            rate: 2000.0,
            seed: 0,
            scale: 0.05,
            ckpt_dir: None,
            cost: CostModel::rtx2080ti(),
        }
    }
}

impl FleetConfig {
    /// The fleet-mode plan: this topology, with this config's policies on.
    fn plan(&self) -> Plan<'_> {
        Plan {
            shards: self.shards,
            replicas_per_shard: self.replicas_per_shard,
            policy: self.policy,
            queue_cap: self.queue_cap,
            slo_target: self.slo_target,
            cost: &self.cost,
            fleet: Some(self),
        }
    }

    /// Every hard rule the config breaks, in precedence order: no
    /// endpoints, the batching, topology and fleet-policy rules, then the
    /// workload's ([`WorkloadSpec`] or [`ClosedLoop`]).
    pub fn violations(&self) -> Vec<ServeConfigError> {
        let mut out = Vec::new();
        if self.endpoints.is_empty() {
            out.push(ServeConfigError::NoEndpoints);
        }
        out.extend(self.plan().violations());
        let workload = match &self.workload {
            FleetWorkload::Open(kind) => WorkloadSpec {
                seed: self.seed,
                requests: self.requests,
                rate: self.rate,
                kind: *kind,
            }
            .violations(),
            FleetWorkload::Closed {
                clients,
                think_time,
            } => ClosedLoop::violations(self.requests, *clients, *think_time),
        };
        out.extend(workload.into_iter().map(ServeConfigError::from));
        out
    }

    /// Validates the config.
    ///
    /// # Errors
    ///
    /// Returns the first of [`FleetConfig::violations`].
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        self.violations().into_iter().next().map_or(Ok(()), Err)
    }
}

/// Runs one complete fleet serving session. Returns a report with one
/// terminal record per generated request (answered, rejected, or shed —
/// never dropped) and fleet counters in [`ServeReport::fleet`].
///
/// Fault hooks (`shard_down`, `shard_net_factor`, `on_dp_step`, and the
/// per-kernel hooks inside batch execution) are called unconditionally;
/// they are no-ops unless a `gnn-faults` plan is armed.
///
/// # Errors
///
/// Returns a typed [`ServeConfigError`] for an invalid config or a
/// registry that fails to build.
///
/// # Panics
///
/// Panics on an engine bug: a request without a terminal outcome, or
/// `dispatched ≤ (1 + retry_budget) × submitted` violated.
pub fn serve_fleet(cfg: &FleetConfig) -> Result<ServeReport, ServeConfigError> {
    cfg.validate()?;
    let registry =
        ModelRegistry::build(&cfg.endpoints, cfg.scale, cfg.seed, cfg.ckpt_dir.as_deref())?;
    let space = registry.target_space();
    let (incoming, closed) = match &cfg.workload {
        FleetWorkload::Open(kind) => {
            let spec = WorkloadSpec::new(cfg.seed, cfg.requests, cfg.rate, *kind)?;
            (workload::generate(&spec, &space)?, None)
        }
        FleetWorkload::Closed {
            clients,
            think_time,
        } => {
            let mut cl = ClosedLoop::new(cfg.seed, cfg.requests, *clients, *think_time)?;
            let mut first = cl.initial(&space)?;
            first.sort_by(|a, b| {
                (a.arrival, a.id)
                    .partial_cmp(&(b.arrival, b.id))
                    .expect("finite arrivals")
            });
            (first, Some(cl))
        }
    };
    Ok(simulate(
        &cfg.plan(),
        &registry,
        incoming,
        closed,
        &mut |endpoint, targets, notes| exec_targets(endpoint, targets, notes, &cfg.cost),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_faults::FaultPlan;

    fn small_fleet() -> FleetConfig {
        FleetConfig {
            endpoints: vec![
                CellId::parse("table4/Cora/GCN/PyG").unwrap(),
                CellId::parse("table5/ENZYMES/GIN/DGL").unwrap(),
            ],
            shards: 2,
            replicas_per_shard: 1,
            routing: RoutingPolicy::LeastLoaded,
            policy: BatchPolicy {
                max_batch: 4,
                max_delay: 0.002,
            },
            queue_cap: 16,
            admission_cap: 24,
            retry_budget: 0.5,
            hedge_after: Some(0.01),
            health: HealthPolicy {
                probe_interval: 0.005,
                fail_threshold: 2,
                readmit_threshold: 2,
            },
            autoscale: None,
            net_delay: 0.0002,
            slo_target: 0.01,
            workload: FleetWorkload::Open(WorkloadKind::OpenLoop),
            requests: 80,
            rate: 1500.0,
            seed: 7,
            scale: 0.05,
            ckpt_dir: None,
            cost: CostModel::rtx2080ti(),
        }
    }

    #[test]
    fn validation_rejects_degenerate_fleets() {
        let mut cfg = small_fleet();
        cfg.shards = 0;
        assert_eq!(cfg.validate().unwrap_err(), ServeConfigError::NoShards);
        let mut cfg = small_fleet();
        cfg.admission_cap = 0;
        assert_eq!(
            cfg.validate().unwrap_err(),
            ServeConfigError::ZeroAdmissionCap
        );
        let mut cfg = small_fleet();
        cfg.retry_budget = f64::NAN;
        assert!(matches!(
            cfg.validate().unwrap_err(),
            ServeConfigError::BadRetryBudget(_)
        ));
        let mut cfg = small_fleet();
        cfg.health.fail_threshold = 0;
        assert_eq!(
            cfg.validate().unwrap_err(),
            ServeConfigError::ZeroFailThreshold
        );
        let mut cfg = small_fleet();
        cfg.autoscale = Some(AutoscalePolicy {
            queue_low: 8,
            queue_high: 8,
            ..AutoscalePolicy::default()
        });
        assert_eq!(
            cfg.validate().unwrap_err(),
            ServeConfigError::AutoscaleWatermarks { low: 8, high: 8 }
        );
        let mut cfg = small_fleet();
        cfg.rate = 0.0;
        assert!(matches!(
            cfg.validate().unwrap_err(),
            ServeConfigError::Workload(_)
        ));
        assert!(small_fleet().validate().is_ok());
    }

    #[test]
    fn every_request_reaches_a_terminal_outcome() {
        let cfg = small_fleet();
        let report = serve_fleet(&cfg).unwrap();
        assert_eq!(report.requests.len(), cfg.requests);
        for (i, r) in report.requests.iter().enumerate() {
            assert_eq!(r.id, i as u64, "records dense and sorted by id");
            assert!(r.reply >= r.enqueue);
        }
        assert_eq!(
            report.answered() + report.rejected() + report.shed(),
            cfg.requests,
            "conservation: answered + rejected + shed == submitted"
        );
        assert!(report.answered() > 0);
        let fleet = report.fleet.as_ref().unwrap();
        assert_eq!(fleet.submitted, cfg.requests);
        assert!(
            fleet.dispatched as f64 <= (1.0 + cfg.retry_budget) * fleet.submitted as f64,
            "budget bound"
        );
        // Batches land on both shards under least-loaded routing.
        assert!(report.batches.iter().any(|b| b.shard == 0));
        assert!(report.batches.iter().any(|b| b.shard == 1));
    }

    #[test]
    fn same_seed_fleet_reruns_are_bit_identical() {
        let cfg = small_fleet();
        let a = serve_fleet(&cfg).unwrap();
        let b = serve_fleet(&cfg).unwrap();
        assert_eq!(a.requests.len(), b.requests.len());
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.reply.to_bits(), y.reply.to_bits());
            assert_eq!(x.output, y.output);
        }
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    }

    #[test]
    fn blackout_ejects_the_shard_and_conserves_requests() {
        let mut cfg = small_fleet();
        cfg.requests = 150;
        cfg.rate = 2000.0; // ~75ms horizon, covering the blackout window
        let plan = FaultPlan::empty().with(gnn_faults::FaultKind::ShardBlackout {
            shard: 1,
            from: 0.01,
            until: 0.05,
        });
        let handle = gnn_faults::install(plan);
        let report = serve_fleet(&cfg).unwrap();
        let log = gnn_faults::finish(handle);
        assert_eq!(
            report.answered() + report.rejected() + report.shed(),
            cfg.requests,
            "conservation holds under blackout"
        );
        let fleet = report.fleet.as_ref().unwrap();
        assert!(fleet.ejections >= 1, "the dark shard must be ejected");
        assert!(
            fleet.readmissions >= 1,
            "the shard recovers after the window"
        );
        assert!(
            fleet.retries + fleet.sheds > 0,
            "drained requests either failed over or shed"
        );
        assert!(
            log.events.iter().any(|e| e.kind == "blackout"),
            "the injector logged the blackout"
        );
        assert!(
            fleet.dispatched as f64 <= (1.0 + cfg.retry_budget) * fleet.submitted as f64,
            "budget bound holds under chaos"
        );
        // No batch dispatched on the dark shard inside its window.
        for b in &report.batches {
            if b.shard == 1 {
                assert!(
                    b.start < 0.01 || b.start >= 0.05,
                    "batch {} started at {} on the dark shard",
                    b.id,
                    b.start
                );
            }
        }
    }

    #[test]
    fn zero_retry_budget_never_amplifies() {
        let mut cfg = small_fleet();
        cfg.retry_budget = 0.0;
        cfg.requests = 100;
        let plan = FaultPlan::empty().with(gnn_faults::FaultKind::ShardBlackout {
            shard: 0,
            from: 0.005,
            until: 0.04,
        });
        let handle = gnn_faults::install(plan);
        let report = serve_fleet(&cfg).unwrap();
        gnn_faults::finish(handle);
        let fleet = report.fleet.as_ref().unwrap();
        assert_eq!(fleet.retries, 0);
        assert_eq!(fleet.hedges, 0);
        assert!(
            fleet.dispatched <= fleet.submitted,
            "zero budget: dispatched ≤ submitted"
        );
        assert_eq!(
            report.answered() + report.rejected() + report.shed(),
            cfg.requests
        );
    }

    #[test]
    fn net_straggler_inflates_reply_latency_in_its_window() {
        let mut cfg = small_fleet();
        cfg.shards = 1;
        cfg.net_delay = 0.001;
        cfg.hedge_after = None;
        cfg.requests = 60;
        let baseline = serve_fleet(&cfg).unwrap();
        let plan = FaultPlan::empty().with(gnn_faults::FaultKind::NetStraggler {
            shard: 0,
            from: 0.0,
            until: 10.0,
            factor: 50.0,
        });
        let handle = gnn_faults::install(plan);
        let slowed = serve_fleet(&cfg).unwrap();
        gnn_faults::finish(handle);
        let (bp50, _, _) = baseline.latency_percentiles();
        let (sp50, _, _) = slowed.latency_percentiles();
        assert!(
            sp50 > bp50 + 0.04,
            "straggler must inflate p50: baseline {bp50}, slowed {sp50}"
        );
    }

    #[test]
    fn autoscaler_adds_replicas_under_a_flash_crowd() {
        let mut cfg = small_fleet();
        cfg.workload = FleetWorkload::Open(WorkloadKind::FlashCrowd {
            at: 0.01,
            width: 0.05,
            factor: 6.0,
        });
        cfg.requests = 200;
        cfg.rate = 1000.0;
        cfg.admission_cap = 64;
        cfg.queue_cap = 64;
        cfg.autoscale = Some(AutoscalePolicy {
            queue_high: 6,
            queue_low: 1,
            min_replicas: 1,
            max_replicas: 4,
            cooldown: 0.005,
        });
        let report = serve_fleet(&cfg).unwrap();
        let fleet = report.fleet.as_ref().unwrap();
        assert!(
            fleet.scale_ups > 0,
            "flash crowd must trigger scale-ups: {fleet:?}"
        );
        assert_eq!(
            report.answered() + report.rejected() + report.shed(),
            cfg.requests
        );
    }

    #[test]
    fn closed_loop_workload_self_paces() {
        let mut cfg = small_fleet();
        cfg.workload = FleetWorkload::Closed {
            clients: 4,
            think_time: 0.002,
        };
        cfg.requests = 60;
        let report = serve_fleet(&cfg).unwrap();
        assert_eq!(
            report.requests.len(),
            60,
            "budget fully minted and answered"
        );
        assert_eq!(report.answered() + report.rejected() + report.shed(), 60);
        // Closed loops cannot overload a healthy fleet: at most `clients`
        // requests are ever outstanding, so nothing is rejected or shed.
        assert_eq!(report.answered(), 60);
        for q in &report.queues {
            assert!(q.max_depth <= 4, "at most one request per client queued");
        }
    }

    #[test]
    fn consistent_hash_and_least_loaded_both_serve_everything() {
        for routing in [RoutingPolicy::ConsistentHash, RoutingPolicy::LeastLoaded] {
            let mut cfg = small_fleet();
            cfg.routing = routing;
            let report = serve_fleet(&cfg).unwrap();
            assert_eq!(report.routing, routing.label());
            assert_eq!(
                report.answered() + report.rejected() + report.shed(),
                cfg.requests,
                "{routing} conserves requests"
            );
        }
    }
}
