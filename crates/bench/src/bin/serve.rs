//! Inference serving: sweeps batching policies over trained sweep cells
//! under a seeded open-loop client workload.
//!
//! For each `--policies` entry the engine loads the configured endpoints
//! (restoring `gnn-ckpt v1` weights from `--ckpt <dir>` when present),
//! replays the same seeded request stream through the dynamic batcher onto
//! the device replicas, and prints latency percentiles, throughput, batch
//! occupancy, and queue depths. With `--trace <dir>` the per-request spans
//! land on the `serve` obs track and `<dir>/serve_metrics.csv` gets one
//! aggregate + one per-endpoint row per policy. `--faults <plan>` arms a
//! fault plan around the whole run: the engine answers every request
//! anyway (OOM split-and-retry, kernel retries, replica shedding).
//!
//! Exits nonzero if any request went unanswered (dropped — must never
//! happen) or the `--lint` gate found a degenerate config.

use std::process::ExitCode;

use gnn_serve::ServeConfig;

fn main() -> ExitCode {
    let args = gnn_bench::args(env!("CARGO_BIN_NAME"));
    let serve = args.serve_config();
    let policies = args.policies();
    let mut run = gnn_bench::Run::new(args.trace.as_deref(), args.faults.as_ref());
    if args.lint {
        let mut findings = Vec::new();
        gnn_lint::check_serve_config(&args.endpoints().0, &serve, &mut findings);
        run.gate(gnn_lint::LintReport {
            findings,
            ..Default::default()
        });
    }

    println!(
        "Inference serving: {} endpoint(s), {} request(s) at {} req/s, seed {}, \
         {} replica(s), faults {}\n",
        serve.endpoints.len(),
        serve.requests,
        serve.rate,
        serve.seed,
        serve.replicas,
        if args.faults.is_some() {
            "armed"
        } else {
            "off"
        },
    );

    // One plan armed across every policy run, in declaration order.
    let outcomes: Vec<_> = run.exec(|| {
        (policies.iter())
            .map(|&policy| {
                gnn_serve::serve(&ServeConfig {
                    policy,
                    ..serve.clone()
                })
            })
            .collect()
    });
    let reports: Vec<_> = (policies.iter().zip(outcomes))
        .filter_map(|(p, outcome)| {
            run.served(&format!("policy {}", p.label()), serve.requests, outcome)
        })
        .collect();
    run.served_all(&reports, serve.endpoints.len());
    run.finish()
}
