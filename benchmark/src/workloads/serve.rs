//! `serve_single` and `serve_fleet`: the two dispatch loops of `gnn-serve`.
//!
//! Arrival times are simulated, so the load generator cannot fall behind:
//! the host metric is requests simulated per host second.

use std::collections::BTreeMap;

use gnn_device::Session;
use gnn_faults::FaultPlan;
use gnn_obs::Histogram;
use gnn_serve::engine;
use gnn_serve::workload::{self, WorkloadKind, WorkloadSpec};
use gnn_serve::{
    default_endpoints, serve_fleet, BatchPolicy, FleetConfig, FleetWorkload, ModelRegistry,
    RoutingPolicy, ServeConfig, ServeReport,
};

use super::{timed, CellRun, Unrolled, Workload};
use crate::digest::Digest;
use crate::span::Tracer;

const SCALE: f64 = 0.05;
const RATE: f64 = 2000.0;
const POLICY: BatchPolicy = BatchPolicy {
    max_batch: 8,
    max_delay: 0.002,
};
/// One endpoint of the six (DD/MoNet) takes three quarters of the host time,
/// so a round's cost follows how many of its requests land there: under a
/// thousand requests, throughput swings with the seed by more than a sixth.
const SINGLE_REQUESTS: usize = 1000;
/// Per call: the horizon the canonical fleet plan's fault windows are sized
/// for (400 requests at 2,000 req/s, 0.2 simulated seconds).
const FLEET_REQUESTS: usize = 400;

fn cell_run(name: &str, wall_s: f64, requests: usize, report: &ServeReport) -> CellRun {
    let mut d = Digest::new();
    d.serve_report(report);
    let (answered, rejected, shed) = (report.answered(), report.rejected(), report.shed());
    let dropped = report.dropped(requests);
    CellRun {
        name: name.to_owned(),
        digest: d.finish(),
        finite: d.all_finite(),
        wall_s,
        sim_s: report.makespan,
        items: requests as u64,
        attempted: requests as u64,
        failed: (rejected + shed + dropped) as u64,
        conserved: answered + rejected + shed == requests && dropped == 0,
        // The serve report carries no kernel profile; the traced run counts
        // these while replaying the batches.
        kernels: 0,
        flops: 0,
        bytes: 0,
    }
}

/// Replays `report`'s batches through `Endpoint::serve_batch`, each in its
/// own device session as the engines do, and adds the device counts to
/// `cell`. A hedged request answered by its twin leaves the losing batch
/// short of a target, so the replay is an estimate there.
fn replay(t: &Tracer, registry: &ModelRegistry, report: &ServeReport, cell: &mut CellRun) -> f64 {
    let endpoint_of: BTreeMap<String, usize> = registry
        .iter()
        .enumerate()
        .map(|(i, e)| (e.cell.path(), i))
        .collect();
    let mut targets: BTreeMap<u64, Vec<(u64, u32)>> = BTreeMap::new();
    for q in &report.requests {
        if let Some(b) = q.batch {
            targets.entry(b).or_default().push((q.id, q.target));
        }
    }
    let mut exec_s = 0.0;
    t.scope("serve.replay", || {
        for b in &report.batches {
            let Some(mut reqs) = targets.remove(&b.id) else {
                continue;
            };
            reqs.sort_unstable();
            let batch_targets: Vec<u32> = reqs.into_iter().map(|(_, target)| target).collect();
            let endpoint = registry.get(endpoint_of[&b.endpoint]);
            let (dev, wall_s) = timed(|| {
                t.scope("serve.exec_batch", || {
                    let handle = gnn_device::session::install(Session::new(
                        gnn_device::CostModel::rtx2080ti(),
                    ));
                    std::hint::black_box(endpoint.serve_batch(&batch_targets));
                    gnn_device::session::finish(handle)
                })
            });
            exec_s += wall_s;
            cell.kernels += dev.kernel_count;
            cell.flops += dev.total_flops;
            cell.bytes += dev.total_bytes;
        }
    });
    exec_s
}

/// The dispatch loop itself: what the calls took beyond executing their
/// batches (and beyond the registry `serve_fleet` builds inside each call).
fn loop_us_per_req(calls_s: f64, other_s: f64, requests: usize) -> (&'static str, f64) {
    (
        "serve.loop_us_per_req",
        (calls_s - other_s) / requests as f64 * 1e6,
    )
}

/// Pooled simulated latency figures of one or more reports.
fn sim_values(reports: &[&ServeReport], un: &mut Unrolled) {
    let mut hist = Histogram::from_values(
        reports
            .iter()
            .flat_map(|r| r.requests.iter())
            .filter(|q| q.served())
            .map(|q| q.latency()),
    );
    let requests: usize = reports.iter().map(|r| r.requests.len()).sum();
    let batches: usize = reports.iter().map(|r| r.batches.len()).sum();
    let attained: f64 = reports
        .iter()
        .map(|r| r.slo_attainment(r.slo_target) * r.requests.len() as f64)
        .sum();
    let fleet = |f: fn(&gnn_serve::FleetStats) -> usize| -> f64 {
        reports
            .iter()
            .filter_map(|r| r.fleet.as_ref())
            .map(f)
            .sum::<usize>() as f64
    };
    un.values.extend([
        ("serve.sim_p50_ms", hist.quantile(50.0) * 1e3),
        ("serve.sim_p99_ms", hist.quantile(99.0) * 1e3),
        ("serve.sim_slo_attainment", attained / requests as f64),
        ("serve.batches_per_req", batches as f64 / requests as f64),
        ("serve.retries", fleet(|f| f.retries)),
        ("serve.hedges", fleet(|f| f.hedges)),
    ]);
}

/// The open-loop request stream of `seed` over `registry`'s endpoints.
fn open_loop_stream(
    seed: u64,
    requests: usize,
    registry: &ModelRegistry,
) -> Vec<gnn_serve::Request> {
    let spec = WorkloadSpec {
        seed,
        requests,
        rate: RATE,
        kind: WorkloadKind::OpenLoop,
    };
    workload::generate(&spec, &registry.target_space()).expect("valid workload spec")
}

pub struct ServeSingle {
    cfg: ServeConfig,
    registry: ModelRegistry,
}

impl ServeSingle {
    fn requests(&self) -> Vec<gnn_serve::Request> {
        open_loop_stream(self.cfg.seed, self.cfg.requests, &self.registry)
    }
}

impl Workload for ServeSingle {
    fn setup(seed: u64, t: &Tracer) -> Self {
        let cfg = ServeConfig {
            endpoints: default_endpoints(),
            requests: SINGLE_REQUESTS,
            rate: RATE,
            seed,
            policy: POLICY,
            replicas: 2,
            scale: SCALE,
            ..ServeConfig::default()
        };
        cfg.validate().expect("valid serve config");
        let registry = t.scope("serve.registry_build", || {
            ModelRegistry::build(&cfg.endpoints, cfg.scale, cfg.seed, None)
                .expect("default endpoints build")
        });
        ServeSingle { cfg, registry }
    }

    fn round(&self) -> Vec<CellRun> {
        let (report, wall_s) = timed(|| engine::run(&self.cfg, &self.registry, self.requests()));
        vec![cell_run("single/open", wall_s, self.cfg.requests, &report)]
    }

    fn unrolled(&self, t: &Tracer) -> Unrolled {
        t.set_cell("single/open");
        let mut un = Unrolled::default();
        let ((report, call_s), wall_s) = timed(|| {
            t.scope("cell", || {
                let requests = t.scope("serve.workload_generate", || self.requests());
                timed(|| {
                    t.scope("serve.call", || {
                        engine::run(&self.cfg, &self.registry, requests)
                    })
                })
            })
        });
        let mut cell = cell_run("single/open", wall_s, self.cfg.requests, &report);
        let exec_s = replay(t, &self.registry, &report, &mut cell);
        un.values
            .push(loop_us_per_req(call_s, exec_s, self.cfg.requests));
        sim_values(&[&report], &mut un);
        un.cells.push(cell);
        un.losses.push(Vec::new());
        un
    }
}

pub struct ServeFleet {
    base: FleetConfig,
}

/// The two calls of a round: the sticky router under an open loop, then the
/// load-aware router under a closed loop of 16 clients thinking 2 ms.
const FLEET_CALLS: [(&str, RoutingPolicy, FleetWorkload); 2] = [
    (
        "consistent-hash/open",
        RoutingPolicy::ConsistentHash,
        FleetWorkload::Open(WorkloadKind::OpenLoop),
    ),
    (
        "least-loaded/closed",
        RoutingPolicy::LeastLoaded,
        FleetWorkload::Closed {
            clients: 16,
            think_time: 0.002,
        },
    ),
];

impl ServeFleet {
    /// One `serve_fleet` call with the canonical fleet plan armed around it,
    /// so dp-step-indexed faults count from the same origin in every call.
    fn call(&self, routing: RoutingPolicy, workload: &FleetWorkload) -> ServeReport {
        let cfg = FleetConfig {
            routing,
            workload: workload.clone(),
            ..self.base.clone()
        };
        let plan = gnn_faults::install(FaultPlan::canonical_fleet());
        let report = serve_fleet(&cfg);
        gnn_faults::finish(plan);
        report.expect("valid fleet config")
    }
}

impl Workload for ServeFleet {
    fn setup(seed: u64, _t: &Tracer) -> Self {
        let base = FleetConfig {
            endpoints: default_endpoints(),
            policy: POLICY,
            requests: FLEET_REQUESTS,
            rate: RATE,
            seed,
            scale: SCALE,
            ..FleetConfig::default()
        };
        base.validate().expect("valid fleet config");
        ServeFleet { base }
    }

    fn round(&self) -> Vec<CellRun> {
        FLEET_CALLS
            .iter()
            .map(|(name, routing, workload)| {
                let (report, wall_s) = timed(|| self.call(*routing, workload));
                cell_run(name, wall_s, self.base.requests, &report)
            })
            .collect()
    }

    fn unrolled(&self, t: &Tracer) -> Unrolled {
        let mut un = Unrolled::default();
        // `serve_fleet` builds this same registry inside every call.
        t.set_cell("registry");
        let (registry, registry_s) = timed(|| {
            t.scope("serve.registry_build", || {
                ModelRegistry::build(&self.base.endpoints, self.base.scale, self.base.seed, None)
                    .expect("default endpoints build")
            })
        });
        std::hint::black_box(t.scope("serve.workload_generate", || {
            open_loop_stream(self.base.seed, self.base.requests, &registry)
        }));

        let mut reports = Vec::new();
        let (mut calls_s, mut other_s) = (0.0, 0.0);
        for (name, routing, workload) in &FLEET_CALLS {
            t.set_cell(name);
            let (report, wall_s) = timed(|| {
                t.scope("cell", || {
                    t.scope("serve.call", || self.call(*routing, workload))
                })
            });
            calls_s += wall_s;
            let mut cell = cell_run(name, wall_s, self.base.requests, &report);
            other_s += registry_s + replay(t, &registry, &report, &mut cell);
            un.cells.push(cell);
            un.losses.push(Vec::new());
            reports.push(report);
        }
        un.values.push(loop_us_per_req(
            calls_s,
            other_s,
            FLEET_CALLS.len() * self.base.requests,
        ));
        sim_values(&reports.iter().collect::<Vec<_>>(), &mut un);
        un
    }
}
