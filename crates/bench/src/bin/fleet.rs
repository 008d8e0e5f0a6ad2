//! Fleet serving: sweeps routing policies over a sharded fleet of
//! endpoint replicas under a seeded workload and a chaos plan.
//!
//! For each `--routing` entry the engine builds the configured fleet
//! (shards × replicas, health checking, admission control, retry budget,
//! hedging, autoscaling), replays the same seeded arrival process through
//! the router, and prints latency percentiles, SLO attainment, and the
//! resilience counters (sheds, retries, hedges, ejections, failover
//! latency). The same fault plan is re-armed around every policy run, so
//! the policies are compared under identical chaos. With `--trace <dir>`
//! the spans land on the `serve`/`fleet` obs tracks and
//! `<dir>/serve_metrics.csv` gets one aggregate + one per-endpoint row
//! per routing policy.
//!
//! Exits nonzero if any request misses its terminal typed outcome
//! (answered + rejected + shed must equal submitted — zero drops), if the
//! `--lint` gate found a degenerate fleet config, or if the fault plan
//! audit found a spec that can never fire.

use std::process::ExitCode;

use gnn_serve::FleetConfig;

fn main() -> ExitCode {
    let args = gnn_bench::args(env!("CARGO_BIN_NAME"));
    let fleet = args.fleet_config();
    let routings = args.routings();
    let mut run = gnn_bench::Run::new(args.trace.as_deref(), args.faults.as_ref());
    if args.lint {
        let mut findings = Vec::new();
        gnn_lint::check_fleet_config(&args.endpoints().0, &fleet, &mut findings);
        if let Some(plan) = &args.faults {
            gnn_lint::check_fleet_fault_plan(plan, &fleet, &mut findings);
        }
        run.gate(gnn_lint::LintReport {
            findings,
            ..Default::default()
        });
    }

    println!(
        "Fleet serving: {} endpoint(s), {} shard(s) x {} replica(s), {} request(s) at \
         {} req/s, seed {}, routing {}, faults {}\n",
        fleet.endpoints.len(),
        fleet.shards,
        fleet.replicas_per_shard,
        fleet.requests,
        fleet.rate,
        fleet.seed,
        routings
            .iter()
            .map(|r| r.label())
            .collect::<Vec<_>>()
            .join(","),
        if args.faults.is_some() {
            "armed"
        } else {
            "off"
        },
    );

    let reports: Vec<_> = (routings.iter())
        .filter_map(|&routing| {
            let cfg = FleetConfig {
                routing,
                ..fleet.clone()
            };
            // The plan is re-armed around every policy run: dp-step-indexed
            // faults (replica death) count steps from arming, so each policy
            // faces identical chaos and the comparison stays fair.
            let outcome = run.exec(|| gnn_serve::serve_fleet(&cfg));
            run.served(
                &format!("routing {}", routing.label()),
                cfg.requests,
                outcome,
            )
        })
        .collect();
    run.served_all(&reports, fleet.endpoints.len());
    run.finish()
}
