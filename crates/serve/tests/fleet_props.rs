//! Property tests of the fleet engine: request conservation under shard
//! blackouts and replica death (every request answered, rejected, or shed
//! — zero drops), router determinism (same seed + same fault plan ⇒
//! bit-identical `serve_metrics.csv`), and the retry/hedge amplification
//! bound (`dispatched ≤ (1 + budget) × submitted`) for arbitrary budgets.

use gnn_faults::{FaultKind, FaultPlan};
use gnn_serve::{
    serve_fleet, BatchPolicy, CellId, FleetConfig, FleetWorkload, HealthPolicy, RoutingPolicy,
    WorkloadKind, SERVE_METRICS,
};
use proptest::prelude::*;

fn base_cfg() -> FleetConfig {
    FleetConfig {
        endpoints: vec![
            CellId::parse("table4/Cora/GCN/PyG").unwrap(),
            CellId::parse("table5/ENZYMES/GIN/DGL").unwrap(),
        ],
        shards: 2,
        replicas_per_shard: 1,
        policy: BatchPolicy {
            max_batch: 4,
            max_delay: 0.002,
        },
        queue_cap: 16,
        admission_cap: 24,
        health: HealthPolicy {
            probe_interval: 0.005,
            fail_threshold: 2,
            readmit_threshold: 2,
        },
        autoscale: None,
        workload: FleetWorkload::Open(WorkloadKind::OpenLoop),
        requests: 120,
        rate: 2500.0,
        scale: 0.05,
        ..FleetConfig::default()
    }
}

/// Renders a report the way `gnn-bench fleet` writes `serve_metrics.csv`.
fn csv_of(report: &gnn_serve::ServeReport) -> String {
    SERVE_METRICS.csv(report.metrics_rows())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Conservation under chaos: a shard blackout plus a replica death
    /// still leaves every request with exactly one terminal typed outcome
    /// — answered, rejected, or shed; never dropped — across seeds,
    /// routing policies, and blackout geometry.
    #[test]
    fn conservation_under_blackout_and_replica_death(
        seed in 0..64u64,
        routing_ch in 0..2usize,
        dark_shard in 0..2usize,
        from_ms in 2..30u32,
        width_ms in 5..40u32,
        replica_step in 1..40u64,
    ) {
        let mut cfg = base_cfg();
        cfg.seed = seed;
        cfg.replicas_per_shard = 2;
        cfg.routing = if routing_ch == 1 {
            RoutingPolicy::ConsistentHash
        } else {
            RoutingPolicy::LeastLoaded
        };
        let from = from_ms as f64 * 1e-3;
        let plan = FaultPlan::empty()
            .with(FaultKind::ShardBlackout {
                shard: dark_shard,
                from,
                until: from + width_ms as f64 * 1e-3,
            })
            .with(FaultKind::ReplicaFailure {
                gpu: 0,
                at: replica_step,
            });
        let handle = gnn_faults::install(plan);
        let report = serve_fleet(&cfg).unwrap();
        gnn_faults::finish(handle);
        prop_assert_eq!(report.requests.len(), cfg.requests, "one record per request");
        for (i, r) in report.requests.iter().enumerate() {
            prop_assert_eq!(r.id, i as u64, "ids dense and unique");
            prop_assert!(r.reply >= r.enqueue, "no time travel");
        }
        prop_assert_eq!(
            report.answered() + report.rejected() + report.shed(),
            cfg.requests,
            "answered + rejected + shed == submitted"
        );
        prop_assert_eq!(report.dropped(cfg.requests), 0);
        let fleet = report.fleet.as_ref().unwrap();
        prop_assert_eq!(fleet.submitted, cfg.requests);
    }

    /// Router determinism: the same seed and the same fault plan replay the
    /// entire run — every CSV byte of `serve_metrics.csv` — identically.
    #[test]
    fn same_seed_and_plan_give_bit_identical_csv(
        seed in 0..64u64,
        routing_ch in 0..2usize,
    ) {
        let mut cfg = base_cfg();
        cfg.seed = seed;
        cfg.routing = if routing_ch == 1 {
            RoutingPolicy::ConsistentHash
        } else {
            RoutingPolicy::LeastLoaded
        };
        let run = || {
            let handle = gnn_faults::install(FaultPlan::canonical_fleet());
            let report = serve_fleet(&cfg).unwrap();
            gnn_faults::finish(handle);
            report
        };
        let a = run();
        let b = run();
        prop_assert_eq!(csv_of(&a), csv_of(&b), "serve_metrics.csv must be bit-identical");
        for (x, y) in a.requests.iter().zip(&b.requests) {
            prop_assert_eq!(x.reply.to_bits(), y.reply.to_bits());
            prop_assert_eq!(&x.output, &y.output);
        }
    }

    /// The token bucket bounds amplification for any budget: total queue
    /// admissions never exceed `(1 + budget) × submitted`, even while a
    /// blackout is forcing failover retries and hedges are firing.
    #[test]
    fn dispatch_bound_holds_for_arbitrary_budgets(
        seed in 0..32u64,
        budget_tenths in 0..20u32,
        hedge_on in 0..2usize,
    ) {
        let mut cfg = base_cfg();
        cfg.seed = seed;
        cfg.retry_budget = budget_tenths as f64 / 10.0;
        cfg.hedge_after = if hedge_on == 1 { Some(0.004) } else { None };
        let handle = gnn_faults::install(FaultPlan::canonical_fleet());
        let report = serve_fleet(&cfg).unwrap();
        gnn_faults::finish(handle);
        let fleet = report.fleet.as_ref().unwrap();
        prop_assert!(
            fleet.dispatched as f64 <= (1.0 + cfg.retry_budget) * fleet.submitted as f64 + 1e-9,
            "dispatched {} exceeds (1 + {}) x {}",
            fleet.dispatched,
            cfg.retry_budget,
            fleet.submitted
        );
        prop_assert_eq!(
            report.answered() + report.rejected() + report.shed(),
            cfg.requests
        );
    }
}
