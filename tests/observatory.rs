//! Integration tests of the critical-path observatory against the full
//! stack: real traced training runs (both frameworks) and a real traced
//! serving run, analyzed end to end.
//!
//! The load-bearing guarantees checked here:
//!
//! 1. **Exhaustive attribution** — `gnn_obs::analyze` splits every
//!    session's simulated time into kernel kinds plus idle, and a serve
//!    run's makespan into execute / queue-wait / idle, with the rows
//!    summing back to the total.
//! 2. **Counters everywhere** — every kernel slice and every framework
//!    span (rustyg and rgl tracks) carries FLOPs, bytes, arithmetic
//!    intensity, and roofline args; serve batch/execute spans too.
//! 3. **Round trips** — the Chrome export preserves counter args
//!    verbatim, and the serve latency histogram's quantiles are
//!    bit-identical to nearest-rank quantiles of the sorted sample.
//! 4. **Fleet resilience is visible** — under the canonical fleet plan,
//!    every shed, retry, hedge, ejection and readmission the fleet counts
//!    is one instant on the `fleet` track, and there are some.

use gnn_datasets::CitationSpec;
use gnn_faults::FaultPlan;
use gnn_models::{build, ModelKind};
use gnn_obs as obs;
use gnn_serve::{
    default_endpoints, serve, serve_fleet, BatchPolicy, FleetConfig, ServeConfig, ServeReport,
};
use gnn_train::{run_node_task, NodeOutcome, NodeTaskConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Summation over a few thousand kernel slices accumulates at most a few
/// ulps of error; anything past this bound is a real attribution leak.
const REL_TOL: f64 = 1e-9;

fn traced_node_run_rustyg() -> (NodeOutcome, obs::Trace) {
    let handle = obs::install(obs::Collector::new());
    let ds = CitationSpec::cora().scaled(0.05).generate(7);
    let mut rng = StdRng::seed_from_u64(1);
    let stack =
        build::node_model_rustyg(ModelKind::Gcn, ds.features.cols(), ds.num_classes, &mut rng);
    let batch = rustyg::loader::full_graph_batch(&ds);
    let out = run_node_task(
        &stack,
        &batch,
        &ds,
        &NodeTaskConfig {
            max_epochs: 2,
            lr: 0.01,
        },
    );
    (out, obs::finish(handle))
}

fn traced_node_run_rgl() -> (NodeOutcome, obs::Trace) {
    let handle = obs::install(obs::Collector::new());
    let ds = CitationSpec::cora().scaled(0.05).generate(7);
    let mut rng = StdRng::seed_from_u64(1);
    let stack = build::node_model_rgl(ModelKind::Gcn, ds.features.cols(), ds.num_classes, &mut rng);
    let batch = rgl::loader::full_graph_batch(&ds);
    let out = run_node_task(
        &stack,
        &batch,
        &ds,
        &NodeTaskConfig {
            max_epochs: 1,
            lr: 0.01,
        },
    );
    (out, obs::finish(handle))
}

fn traced_serve_run() -> (ServeReport, obs::Trace) {
    let handle = obs::install(obs::Collector::new());
    let cfg = ServeConfig {
        endpoints: default_endpoints()[..1].to_vec(),
        requests: 40,
        rate: 2000.0,
        seed: 0,
        policy: BatchPolicy {
            max_batch: 4,
            max_delay: 0.001,
        },
        ..ServeConfig::default()
    };
    let report = serve(&cfg).expect("serve run must succeed");
    (report, obs::finish(handle))
}

fn arg<'a>(args: &'a [(String, obs::Value)], key: &str) -> Option<&'a obs::Value> {
    args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn num(args: &[(String, obs::Value)], key: &str) -> f64 {
    arg(args, key)
        .and_then(obs::Value::as_f64)
        .unwrap_or_else(|| panic!("span missing numeric arg {key:?}: {args:?}"))
}

/// Complete slices on one track as `(name, args)` pairs, in trace order.
fn slices<'a>(trace: &'a obs::Trace, track: &str) -> Vec<(&'a str, &'a [(String, obs::Value)])> {
    trace
        .events
        .iter()
        .filter(|e| e.track == track)
        .filter_map(|e| match &e.kind {
            obs::recorder::EventKind::Complete { name, args, .. } => {
                Some((name.as_str(), args.as_slice()))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn critical_path_attributes_every_session_exactly() {
    let (out, trace) = traced_node_run_rustyg();
    let analysis = obs::analyze(&trace);
    assert!(!analysis.sessions.is_empty());
    for s in &analysis.sessions {
        assert!(s.total > 0.0, "session {} spans no time", s.generation);
        let sum: f64 = s.rows().iter().fold(0.0, |acc, (_, t)| acc + t);
        assert!(
            (sum - s.total).abs() <= REL_TOL * s.total,
            "attribution leak in session {}: rows sum {sum}, total {}",
            s.generation,
            s.total
        );
        assert!(s.idle >= 0.0);
        assert!(!s.kinds.is_empty(), "no kernel kinds attributed");
        assert!(!s.hotspots.is_empty(), "no hotspots ranked");
    }
    // The training session's attribution covers the device report's clock:
    // the run total equals the analyzed total of the last generation.
    let last = analysis.sessions.last().unwrap();
    assert!(
        (last.total - out.report.total_time).abs() <= REL_TOL * out.report.total_time,
        "analyzed total {} vs device report total {}",
        last.total,
        out.report.total_time
    );
    // The rendered report is non-empty and names the idle residual.
    let text = analysis.report();
    assert!(text.contains("idle"));
    assert!(text.contains("session"));
}

#[test]
fn every_kernel_slice_carries_hardware_counters() {
    let (_, trace) = traced_node_run_rustyg();
    let kernels = slices(&trace, obs::tracks::KERNELS);
    assert!(!kernels.is_empty());
    let mut flops_seen = 0.0;
    for (name, args) in &kernels {
        assert!(
            arg(args, "kind").is_some_and(|v| v.as_str().is_some()),
            "kernel {name} missing kind"
        );
        let flops = num(args, "flops");
        let bytes = num(args, "bytes");
        let roofline = num(args, "roofline");
        assert!(flops >= 0.0 && bytes > 0.0, "kernel {name} moved no bytes");
        assert!(num(args, "ai") >= 0.0);
        assert!(
            (0.0..=1.0).contains(&roofline),
            "kernel {name} roofline {roofline} outside [0, 1]"
        );
        flops_seen += flops;
    }
    assert!(flops_seen > 0.0, "no kernel reported any FLOPs");
}

#[test]
fn framework_spans_carry_counters_on_both_tracks() {
    for (label, trace) in [
        ("rustyg", traced_node_run_rustyg().1),
        ("rgl", traced_node_run_rgl().1),
    ] {
        let spans = slices(&trace, label);
        assert!(!spans.is_empty(), "no traced spans on the {label} track");
        for (name, args) in &spans {
            for key in ["flops", "bytes", "ai", "roofline"] {
                assert!(
                    arg(args, key).is_some_and(|v| v.as_f64().is_some()),
                    "{label} span {name} missing {key}"
                );
            }
            let roofline = num(args, "roofline");
            assert!(
                (0.0..=1.0).contains(&roofline),
                "{label}/{name}: {roofline}"
            );
        }
        // The framework layer does real work somewhere in the run.
        assert!(spans.iter().any(|(_, args)| num(args, "flops") > 0.0));
    }
}

#[test]
fn serve_attribution_sums_to_makespan() {
    let (report, trace) = traced_serve_run();
    let analysis = obs::analyze(&trace);
    let sv = analysis.serve.expect("serve events must be in the trace");
    assert!(sv.makespan > 0.0);
    assert!(sv.execute > 0.0, "no batch-execute time attributed");
    let sum: f64 = sv.rows().iter().fold(0.0, |acc, (_, t)| acc + t);
    assert!(
        (sum - sv.makespan).abs() <= REL_TOL * sv.makespan,
        "serve attribution leak: rows sum {sum}, makespan {}",
        sv.makespan
    );
    // One request span per served request, and every batch observed.
    let served = report.requests.iter().filter(|r| r.served()).count() as u64;
    assert_eq!(sv.requests, served);
    assert_eq!(sv.batches, report.batches.len() as u64);

    // The engine emits the queue-wait / execute split per request, and the
    // execute sub-spans carry roofline counters.
    let spans = slices(&trace, obs::tracks::SERVE);
    for name in ["queue_wait", "execute", "request", "batch"] {
        assert!(
            spans.iter().any(|(n, _)| *n == name),
            "no {name} span on the serve track"
        );
    }
    for (name, args) in spans
        .iter()
        .filter(|(n, _)| *n == "execute" || *n == "batch")
    {
        assert!(num(args, "flops") > 0.0, "{name} span reports zero FLOPs");
        assert!(num(args, "bytes") > 0.0, "{name} span reports zero bytes");
        let roofline = num(args, "roofline");
        assert!((0.0..=1.0).contains(&roofline), "{name}: {roofline}");
    }
}

#[test]
fn chrome_round_trip_preserves_counter_args() {
    let (_, trace) = traced_node_run_rustyg();
    let parsed = obs::parse_chrome_trace(&trace.to_chrome_json()).expect("chrome trace parses");
    let round = obs::Trace {
        events: parsed,
        epochs: vec![],
        schedule: vec![],
    };
    for track in [obs::tracks::KERNELS, "rustyg", obs::tracks::SERVE] {
        let before = slices(&trace, track);
        let after = slices(&round, track);
        assert_eq!(before.len(), after.len(), "slice count changed on {track}");
        for ((n0, a0), (n1, a1)) in before.iter().zip(&after) {
            assert_eq!(n0, n1);
            // Custom args survive verbatim (order and values); only the
            // injected wall_s stamp is engine metadata, not a counter.
            assert_eq!(a0, a1, "args changed across the round trip for {n0}");
        }
    }
    // Analysis of the round-tripped trace attributes the same work: kind
    // rows and totals agree to timestamp (µs-scaling) precision.
    let a0 = obs::analyze(&trace);
    let a1 = obs::analyze(&round);
    assert_eq!(a0.sessions.len(), a1.sessions.len());
    for (s0, s1) in a0.sessions.iter().zip(&a1.sessions) {
        assert!((s0.total - s1.total).abs() <= 1e-9 * s0.total.max(1e-12));
        assert_eq!(s0.kinds.len(), s1.kinds.len());
        for ((k0, t0), (k1, t1)) in s0.kinds.iter().zip(&s1.kinds) {
            assert_eq!(k0, k1);
            assert!(
                (t0 - t1).abs() <= 1e-9 * t0.max(1e-12),
                "{k0}: {t0} vs {t1}"
            );
        }
    }
}

#[test]
fn serve_histogram_quantiles_match_exact_sorted_quantiles() {
    let (report, _) = traced_serve_run();
    let mut sorted: Vec<f64> = report
        .requests
        .iter()
        .filter(|r| r.served())
        .map(|r| r.latency())
        .collect();
    assert!(!sorted.is_empty());
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let mut hist = report.latency_histogram();
    assert_eq!(hist.count(), sorted.len());
    for p in [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
        // Nearest-rank definition, computed independently of the library.
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        let expected = sorted[rank.clamp(1, sorted.len()) - 1];
        assert_eq!(
            hist.quantile(p),
            expected,
            "histogram p{p} diverged from the sorted sample"
        );
        // ...and from the serve crate's legacy percentile helper.
        assert_eq!(hist.quantile(p), gnn_serve::percentile(&sorted, p));
    }
    let (p50, p95, p99) = report.latency_percentiles();
    assert!(p50 <= p95 && p95 <= p99);
    assert!((0.0..=1.0).contains(&report.slo_attainment(0.005)));
}

#[test]
fn fleet_resilience_events_are_instants_on_the_fleet_track() {
    let cfg = FleetConfig {
        requests: 120,
        rate: 2000.0,
        seed: 0,
        ..FleetConfig::default()
    };
    let faults = gnn_faults::install(FaultPlan::canonical_fleet());
    let handle = obs::install(obs::Collector::new());
    let report = serve_fleet(&cfg).expect("fleet run must succeed");
    let trace = obs::finish(handle);
    gnn_faults::finish(faults);
    let stats = report.fleet.expect("a fleet run has fleet stats");
    let instants = |kind: &str| {
        let fleet_instant = |e: &&obs::TraceEvent| {
            e.track == obs::tracks::FLEET
                && matches!(&e.kind, obs::EventKind::Instant { name, .. } if name == kind)
        };
        trace.events.iter().filter(fleet_instant).count()
    };
    let counted = [
        ("shed", stats.sheds),
        ("retry", stats.retries),
        ("hedge", stats.hedges),
        ("eject", stats.ejections),
        ("readmit", stats.readmissions),
    ];
    for (kind, count) in counted {
        assert_eq!(instants(kind), count, "{kind} instants");
    }
    let total: usize = counted.iter().map(|(_, n)| n).sum();
    assert!(
        total > 0,
        "the canonical fleet plan exercised no resilience path"
    );
}
