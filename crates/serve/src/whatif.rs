//! Causal what-if prediction for serving policies: re-simulates the
//! discrete-event engine with virtually sped-up batch service times.
//!
//! Naively scaling recorded latencies by a speedup factor is wrong for a
//! queueing system — faster service drains queues sooner, which changes
//! batch composition, which changes service times again. [`predict`]
//! therefore re-runs the *real* dispatch loop (through [`crate::engine`]'s
//! `run_with`) end to end: every dispatched batch's service time comes from
//! capturing the endpoint's forward once under the base cost model and
//! replaying the captured device schedule under the hypothetical speedups
//! (`gnn_obs::whatif::replay_schedule`). Captures are memoized per
//! (endpoint, batch composition) and taken lazily, so compositions that
//! only arise *because* of the speedup are captured too.
//!
//! Because the replay is bit-exact against a real overlaid cost model, the
//! predicted report — every reply timestamp, percentile, and SLO number —
//! is bit-identical to actually re-running [`crate::serve`] with
//! `cfg.cost.with_speedups(..)`. The conformance tests hold it to that.

use std::collections::HashMap;

use gnn_device::Session;
use gnn_obs::whatif::{replay_schedule, SchedEntry, Speedups};
use gnn_obs::{self as obs};

use crate::engine::{run_with, Execution, ServeConfig};
use crate::error::ServeConfigError;
use crate::metrics::ServeReport;
use crate::registry::Endpoint;

/// One memoized base-model capture of an endpoint forward for a specific
/// batch composition.
struct CapturedBatch {
    schedule: Vec<SchedEntry>,
    outputs: Vec<Vec<f32>>,
    flops: u64,
    bytes: u64,
    peak_memory: u64,
}

fn capture_batch(endpoint: &Endpoint, targets: &[u32], cfg: &ServeConfig) -> CapturedBatch {
    let oh = obs::install(obs::Collector::new());
    let handle = gnn_device::session::install(Session::new(cfg.cost.clone()));
    let outputs = endpoint.serve_batch(targets);
    let report = gnn_device::session::finish(handle);
    let trace = obs::finish(oh);
    CapturedBatch {
        schedule: trace.schedule,
        outputs,
        flops: report.total_flops,
        bytes: report.total_bytes,
        peak_memory: report.peak_memory,
    }
}

/// Predicts the full serve report of `cfg` with `speedups` virtually
/// applied, by re-simulating queue dynamics on the serve clock with
/// replayed-from-capture service times.
///
/// The prediction is bit-identical to re-running [`crate::serve`] with
/// `cfg.cost.with_speedups(speedups)` on a clean (fault-free) fleet.
/// Intended for clean what-if analysis: run it without a `gnn-faults` plan
/// armed and without an ambient trace collector (captures install their own
/// short-lived collector, which would displace one).
///
/// # Errors
///
/// Returns a typed [`ServeConfigError`] for an invalid config or a
/// registry that fails to build, like [`crate::serve`].
pub fn predict(cfg: &ServeConfig, speedups: &Speedups) -> Result<ServeReport, ServeConfigError> {
    let (registry, requests) = cfg.prepare()?;
    let mut cache: HashMap<(String, Vec<u32>), CapturedBatch> = HashMap::new();
    Ok(run_with(
        cfg,
        &registry,
        requests,
        &mut |endpoint, targets, _notes| {
            let key = (endpoint.cell.path(), targets.to_vec());
            let captured = cache
                .entry(key)
                .or_insert_with(|| capture_batch(endpoint, targets, cfg));
            let replayed = replay_schedule(&captured.schedule, speedups);
            Execution {
                outputs: captured.outputs.clone(),
                duration: replayed.total,
                oom_splits: 0,
                kernel_retries: 0,
                flops: captured.flops,
                bytes: captured.bytes,
                busy: replayed.busy,
                peak_memory: captured.peak_memory,
            }
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatchPolicy;
    use crate::cell::CellId;
    use crate::engine::serve;
    use gnn_obs::whatif::{COMPONENT_HOST, COMPONENT_LAUNCH};

    fn cfg() -> ServeConfig {
        ServeConfig {
            endpoints: vec![
                CellId::parse("table4/Cora/GCN/PyG").unwrap(),
                CellId::parse("table5/ENZYMES/GIN/DGL").unwrap(),
            ],
            requests: 50,
            rate: 800.0,
            seed: 3,
            policy: BatchPolicy {
                max_batch: 4,
                max_delay: 0.003,
            },
            queue_cap: 32,
            replicas: 2,
            scale: 0.05,
            ..ServeConfig::default()
        }
    }

    fn assert_reports_identical(predicted: &ServeReport, actual: &ServeReport, label: &str) {
        assert_eq!(predicted.requests.len(), actual.requests.len(), "{label}");
        for (p, a) in predicted.requests.iter().zip(&actual.requests) {
            assert_eq!(p.id, a.id, "{label}");
            assert_eq!(p.enqueue.to_bits(), a.enqueue.to_bits(), "{label}: enqueue");
            assert_eq!(
                p.dispatch.to_bits(),
                a.dispatch.to_bits(),
                "{label}: dispatch"
            );
            assert_eq!(
                p.reply.to_bits(),
                a.reply.to_bits(),
                "{label}: reply of request {}",
                p.id
            );
            assert_eq!(p.output, a.output, "{label}: outputs");
            assert_eq!(p.batch_size, a.batch_size, "{label}: batch composition");
        }
        assert_eq!(
            predicted.makespan.to_bits(),
            actual.makespan.to_bits(),
            "{label}: makespan"
        );
    }

    #[test]
    fn identity_prediction_reproduces_the_real_run() {
        let cfg = cfg();
        let predicted = predict(&cfg, &Speedups::identity()).unwrap();
        let actual = serve(&cfg).unwrap();
        assert_reports_identical(&predicted, &actual, "identity");
    }

    #[test]
    fn predictions_match_real_overlaid_reruns_bit_exactly() {
        let base = cfg();
        // Gemm (compute), SpMM (message passing), launch, and host levers at
        // finite and infinite factors; the sweep-side tests cover the rest.
        for component in [0usize, 8, COMPONENT_LAUNCH, COMPONENT_HOST] {
            for k in [1.25, 2.0, f64::INFINITY] {
                let s = Speedups::component(component, k);
                let predicted = predict(&base, &s).unwrap();
                let mut overlaid = base.clone();
                overlaid.cost = base.cost.with_speedups(&s);
                let actual = serve(&overlaid).unwrap();
                assert_reports_identical(
                    &predicted,
                    &actual,
                    &format!("component {component} at {k}x"),
                );
            }
        }
    }

    #[test]
    fn speeding_up_service_never_hurts_latency_percentiles() {
        let cfg = cfg();
        let base = predict(&cfg, &Speedups::identity()).unwrap();
        let (p50, _, _) = base.latency_percentiles();
        for component in [0usize, COMPONENT_LAUNCH] {
            let faster = predict(&cfg, &Speedups::component(component, 2.0)).unwrap();
            let (f50, _, _) = faster.latency_percentiles();
            assert!(
                f50 <= p50 + 1e-12,
                "2x {component} must not raise p50: {f50} vs {p50}"
            );
        }
    }
}
