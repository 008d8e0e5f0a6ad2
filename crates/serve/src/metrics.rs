//! Per-request accounting, latency percentiles, and `serve_metrics.csv`.
//!
//! Every timestamp is simulated seconds on the serve clock (the same clock
//! batches execute on), so latency is exactly `reply - enqueue` with no
//! wall-time jitter — reruns with the same seed reproduce every figure in
//! this module bit-identically. Floats are written with Rust's shortest
//! round-trip formatting, so the CSV itself is byte-stable across reruns.

use std::fmt::Write as _;

use gnn_obs::{Column, Histogram, Table};

use crate::batcher::{BatchPolicy, ServeError};

/// How one request was answered.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Served: the output row is the model's logits for the target.
    Ok,
    /// Refused with a typed error (counted separately, never dropped).
    Rejected(ServeError),
    /// Shed by admission control or an ejection drain with no retry token
    /// — also a terminal typed reply, never a drop.
    Shed(ServeError),
}

/// The full service record of one request.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Request id (submission order).
    pub id: u64,
    /// Cell path of the endpoint.
    pub endpoint: String,
    /// Requested target (node or graph index).
    pub target: u32,
    /// Simulated admission time (= arrival).
    pub enqueue: f64,
    /// Simulated time the request's batch started executing (rejections:
    /// equal to `enqueue`).
    pub dispatch: f64,
    /// Simulated time the reply left the server.
    pub reply: f64,
    /// Id of the batch that served it (rejections: `None`).
    pub batch: Option<u64>,
    /// Size of that batch.
    pub batch_size: usize,
    /// Served logits row (empty for rejections).
    pub output: Vec<f32>,
    /// Predicted class (rejections: 0, unused).
    pub class: u32,
    /// How the request ended.
    pub outcome: Outcome,
}

impl RequestRecord {
    /// Enqueue-to-reply latency on the serve clock.
    pub fn latency(&self) -> f64 {
        self.reply - self.enqueue
    }

    /// Whether the request was served (not rejected).
    pub fn served(&self) -> bool {
        matches!(self.outcome, Outcome::Ok)
    }
}

/// The execution record of one dispatched batch.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Dense batch id, in dispatch order.
    pub id: u64,
    /// Cell path of the endpoint.
    pub endpoint: String,
    /// Shard that dispatched it (0 in the single-engine path).
    pub shard: usize,
    /// Replica that executed it.
    pub replica: usize,
    /// Simulated dispatch time.
    pub start: f64,
    /// Total service duration, including faulted attempts and retries.
    pub duration: f64,
    /// Requests in the batch.
    pub size: usize,
    /// OOM split-and-retry halvings performed.
    pub oom_splits: usize,
    /// Whole-batch retries after kernel faults.
    pub kernel_retries: usize,
    /// Largest device-session allocator high-water mark (bytes) across the
    /// batch's attempts, including OOM-split re-executions. Cross-checked
    /// against the static certifier's per-cell bound.
    pub peak_memory: u64,
}

/// Per-endpoint queue statistics.
#[derive(Debug, Clone)]
pub struct QueueStats {
    /// Cell path.
    pub endpoint: String,
    /// Largest observed depth.
    pub max_depth: usize,
    /// Mean depth at admission times.
    pub mean_depth: f64,
}

/// Fleet-level counters a fleet run adds on top of per-request records.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Shards configured at start.
    pub shards: usize,
    /// Requests submitted to the router.
    pub submitted: usize,
    /// Queue admissions the fleet performed: primary admissions plus
    /// every retry re-admission and hedge twin. Bounded at runtime by
    /// `(1 + retry_budget) × submitted`.
    pub dispatched: usize,
    /// Re-admissions spent from the retry token bucket (ejection drains).
    pub retries: usize,
    /// Hedge twins enqueued on a second shard.
    pub hedges: usize,
    /// Requests shed (admission control, unroutable, or drained without a
    /// token).
    pub sheds: usize,
    /// Health-checker shard ejections.
    pub ejections: usize,
    /// Health-checker shard re-admissions.
    pub readmissions: usize,
    /// Autoscaler replica additions.
    pub scale_ups: usize,
    /// Autoscaler replica removals.
    pub scale_downs: usize,
    /// Enqueue-to-reply latencies of requests that were answered only
    /// after a failover re-route or by a hedge twin.
    pub failover_latencies: Vec<f64>,
    /// The configured retry budget (tokens earned per primary admission).
    pub retry_budget: f64,
}

impl FleetStats {
    /// p99 latency of failover-served requests (0 when none failed over).
    pub fn failover_p99(&self) -> f64 {
        let mut hist = Histogram::from_values(self.failover_latencies.iter().copied());
        hist.quantile(99.0)
    }
}

/// Everything one serving run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The batching policy that ran.
    pub policy: BatchPolicy,
    /// Routing-policy label: `single` for the one-engine path,
    /// `consistent-hash` / `least-loaded` for fleet runs.
    pub routing: String,
    /// SLO latency target (seconds) the run was graded against.
    pub slo_target: f64,
    /// Fleet counters (`None` for the single-engine path).
    pub fleet: Option<FleetStats>,
    /// One record per submitted request, in id order. Nothing is ever
    /// dropped: every submitted request has exactly one record.
    pub requests: Vec<RequestRecord>,
    /// One record per dispatched batch, in dispatch order.
    pub batches: Vec<BatchRecord>,
    /// Per-endpoint queue statistics.
    pub queues: Vec<QueueStats>,
    /// Simulated time of the last reply.
    pub makespan: f64,
    /// Replicas configured at start.
    pub replicas: usize,
    /// Replicas lost to injected failures during the run.
    pub replicas_lost: usize,
    /// Endpoints whose weights came from checkpoints.
    pub restored_endpoints: usize,
    /// Supervisor-style notes (persistent OOM at batch size 1, exhausted
    /// kernel retries, refused replica shutdowns).
    pub notes: Vec<String>,
}

impl ServeReport {
    /// Requests served with logits.
    pub fn answered(&self) -> usize {
        self.requests.iter().filter(|r| r.served()).count()
    }

    /// Requests refused with [`Outcome::Rejected`] (full queue).
    pub fn rejected(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Rejected(_)))
            .count()
    }

    /// Requests shed with [`Outcome::Shed`] (admission control,
    /// unroutable, or ejection drain).
    pub fn shed(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Shed(_)))
            .count()
    }

    /// Requests that vanished without any reply — always 0 by
    /// construction; exposed so CI can assert it.
    pub fn dropped(&self, submitted: usize) -> usize {
        submitted - self.requests.len()
    }

    /// Served enqueue-to-reply latencies as a [`Histogram`] (the typed
    /// registry primitive; its nearest-rank [`Histogram::quantile`] is
    /// bit-identical to [`percentile`] on the sorted latencies).
    pub fn latency_histogram(&self) -> Histogram {
        Histogram::from_values(
            self.requests
                .iter()
                .filter(|r| r.served())
                .map(RequestRecord::latency),
        )
    }

    /// `(p50, p95, p99)` enqueue-to-reply latency over served requests.
    pub fn latency_percentiles(&self) -> (f64, f64, f64) {
        let mut hist = self.latency_histogram();
        (
            hist.quantile(50.0),
            hist.quantile(95.0),
            hist.quantile(99.0),
        )
    }

    /// Fraction of **submitted** requests answered within `target`
    /// seconds. Rejections and sheds count against attainment (they were
    /// submitted and not served in time); an empty run attains trivially.
    pub fn slo_attainment(&self, target: f64) -> f64 {
        if self.requests.is_empty() {
            return 1.0;
        }
        let hist = self.latency_histogram();
        hist.fraction_le(target) * self.answered() as f64 / self.requests.len() as f64
    }

    /// Served requests per simulated second.
    pub fn throughput(&self) -> f64 {
        if self.makespan > 0.0 {
            self.answered() as f64 / self.makespan
        } else {
            0.0
        }
    }

    /// Mean requests per dispatched batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.batches.iter().map(|b| b.size as f64).sum::<f64>() / self.batches.len() as f64
    }

    /// Mean batch fill fraction relative to the policy's `max_batch`.
    pub fn occupancy(&self) -> f64 {
        self.mean_batch_size() / self.policy.max_batch as f64
    }

    /// Total OOM splits across batches.
    pub fn oom_splits(&self) -> usize {
        self.batches.iter().map(|b| b.oom_splits).sum()
    }

    /// Total kernel-fault retries across batches.
    pub fn kernel_retries(&self) -> usize {
        self.batches.iter().map(|b| b.kernel_retries).sum()
    }

    /// Largest device-session peak memory (bytes) across all batches.
    pub fn peak_memory(&self) -> u64 {
        self.batches
            .iter()
            .map(|b| b.peak_memory)
            .max()
            .unwrap_or(0)
    }

    /// Human-readable run summary (the block the serve binary prints).
    pub fn summary(&self) -> String {
        let (p50, p95, p99) = self.latency_percentiles();
        let mut s = String::new();
        let _ = writeln!(
            s,
            "policy {} [{}]: {} served, {} rejected, {} shed, 0 dropped over {:.4}s",
            self.policy.label(),
            self.routing,
            self.answered(),
            self.rejected(),
            self.shed(),
            self.makespan
        );
        let _ = writeln!(
            s,
            "  latency p50 {:.3}ms  p95 {:.3}ms  p99 {:.3}ms",
            p50 * 1e3,
            p95 * 1e3,
            p99 * 1e3
        );
        let _ = writeln!(
            s,
            "  throughput {:.1} req/s  batches {}  occupancy {:.2}  replicas {}-{}",
            self.throughput(),
            self.batches.len(),
            self.occupancy(),
            self.replicas,
            self.replicas_lost
        );
        if let Some(fleet) = &self.fleet {
            let _ = writeln!(
                s,
                "  fleet: {} shard(s)  {} retries  {} hedges  {} ejection(s)/{} readmission(s)  \
                 scale +{}/-{}  failover p99 {:.3}ms",
                fleet.shards,
                fleet.retries,
                fleet.hedges,
                fleet.ejections,
                fleet.readmissions,
                fleet.scale_ups,
                fleet.scale_downs,
                fleet.failover_p99() * 1e3
            );
        }
        if self.oom_splits() + self.kernel_retries() > 0 {
            let _ = writeln!(
                s,
                "  faults survived: {} OOM split(s), {} kernel retry(ies)",
                self.oom_splits(),
                self.kernel_retries()
            );
        }
        for note in &self.notes {
            let _ = writeln!(s, "  note: {note}");
        }
        s
    }

    /// This report's rows of [`SERVE_METRICS`]: one aggregate row (`all`),
    /// then one row per endpoint, each scoping the report to its
    /// endpoint's requests, batches and queue. Router-level counters
    /// (retries, hedges, failover) have no per-endpoint decomposition: the
    /// aggregate row carries them and endpoint rows read 0.
    pub fn metrics_rows(&self) -> Vec<MetricsRow> {
        let mut endpoints: Vec<&str> = self.queues.iter().map(|q| q.endpoint.as_str()).collect();
        endpoints.sort_unstable();
        let row = |scope: &str, report| MetricsRow {
            scope: scope.to_owned(),
            report,
            throughput: self.throughput(),
        };
        let mut rows = vec![row("all", self.clone())];
        for ep in endpoints {
            let mut scoped = self.clone();
            scoped.fleet = None;
            scoped.requests.retain(|r| r.endpoint == ep);
            scoped.batches.retain(|b| b.endpoint == ep);
            scoped.queues = (self.queues.iter().find(|q| q.endpoint == ep).cloned())
                .into_iter()
                .collect();
            rows.push(row(ep, scoped));
        }
        rows
    }

    /// [`ServeReport::metrics_rows`] as CSV lines, without the header.
    pub fn csv_rows(&self) -> String {
        SERVE_METRICS.csv_rows(self.metrics_rows())
    }
}

/// One line of `serve_metrics.csv`: the report scoped to one endpoint (or
/// `all`), beside the whole run's throughput.
pub struct MetricsRow {
    scope: String,
    report: ServeReport,
    throughput: f64,
}

/// Schema tag stamped into `serve_metrics.csv` as a leading `# schema:`
/// comment line; bumped on any column change so downstream consumers fail
/// loudly on drift instead of misreading shifted columns. v2 added the
/// fleet columns (`routing`, `shed`, `slo_attainment`, `retries`,
/// `hedges`, `failover_p99_s`).
pub const SERVE_METRICS_SCHEMA: &str = "gnn-serve-metrics/v2";

/// `serve_metrics.csv`: every policy's [`ServeReport::metrics_rows`] under
/// one header.
pub const SERVE_METRICS: Table<MetricsRow> = Table {
    schema: Some(SERVE_METRICS_SCHEMA),
    columns: &[
        Column::new("policy", |r| r.report.policy.label().into()),
        Column::new("routing", |r| r.report.routing.as_str().into()),
        Column::new("max_batch", |r| r.report.policy.max_batch.into()),
        Column::new("max_delay_s", |r| r.report.policy.max_delay.into()),
        Column::new("endpoint", |r| r.scope.as_str().into()),
        Column::new("requests", |r| r.report.requests.len().into()),
        Column::new("answered", |r| r.report.answered().into()),
        Column::new("rejected", |r| r.report.rejected().into()),
        Column::new("shed", |r| r.report.shed().into()),
        // The dispatch core asserts records == submitted on every run.
        Column::new("dropped", |_| 0u64.into()),
        Column::new("p50_s", |r| r.report.latency_percentiles().0.into()),
        Column::new("p95_s", |r| r.report.latency_percentiles().1.into()),
        Column::new("p99_s", |r| r.report.latency_percentiles().2.into()),
        Column::new("throughput_rps", |r| r.throughput.into()),
        Column::new("mean_batch", |r| r.report.mean_batch_size().into()),
        Column::new("occupancy", |r| r.report.occupancy().into()),
        Column::new("max_queue_depth", |r| {
            (r.report.queues.iter())
                .map(|q| q.max_depth)
                .max()
                .unwrap_or(0)
                .into()
        }),
        Column::new("mean_queue_depth", |r| {
            mean(r.report.queues.iter().map(|q| q.mean_depth)).into()
        }),
        Column::new("peak_mem_bytes", |r| r.report.peak_memory().into()),
        Column::new("slo_attainment", |r| {
            r.report.slo_attainment(r.report.slo_target).into()
        }),
        Column::new("retries", |r| {
            r.report.fleet.as_ref().map_or(0, |f| f.retries).into()
        }),
        Column::new("hedges", |r| {
            r.report.fleet.as_ref().map_or(0, |f| f.hedges).into()
        }),
        Column::new("failover_p99_s", |r| {
            (r.report.fleet.as_ref())
                .map_or(0.0, FleetStats::failover_p99)
                .into()
        }),
    ],
};

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (`0` for empty
/// input). Deterministic: no interpolation, so the result is always an
/// exact element of the input.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    fn sample_report() -> ServeReport {
        let policy = BatchPolicy {
            max_batch: 4,
            max_delay: 0.001,
        };
        let mk = |id: u64, enq: f64, reply: f64, served: bool| RequestRecord {
            id,
            endpoint: "table4/Cora/GCN/PyG".into(),
            target: id as u32,
            enqueue: enq,
            dispatch: enq,
            reply,
            batch: served.then_some(0),
            batch_size: 2,
            output: if served { vec![0.0; 7] } else { vec![] },
            class: 0,
            outcome: if served {
                Outcome::Ok
            } else {
                Outcome::Rejected(ServeError::Overloaded { queue_depth: 4 })
            },
        };
        ServeReport {
            policy,
            routing: "single".into(),
            slo_target: 0.005,
            fleet: None,
            requests: vec![
                mk(0, 0.0, 0.010, true),
                mk(1, 0.001, 0.010, true),
                mk(2, 0.002, 0.002, false),
            ],
            batches: vec![BatchRecord {
                id: 0,
                endpoint: "table4/Cora/GCN/PyG".into(),
                shard: 0,
                replica: 0,
                start: 0.002,
                duration: 0.008,
                size: 2,
                oom_splits: 0,
                kernel_retries: 0,
                peak_memory: 4096,
            }],
            queues: vec![QueueStats {
                endpoint: "table4/Cora/GCN/PyG".into(),
                max_depth: 2,
                mean_depth: 1.5,
            }],
            makespan: 0.010,
            replicas: 2,
            replicas_lost: 0,
            restored_endpoints: 0,
            notes: vec![],
        }
    }

    #[test]
    fn report_counts_and_csv_shape() {
        let r = sample_report();
        assert_eq!(r.answered(), 2);
        assert_eq!(r.rejected(), 1);
        assert_eq!(r.dropped(3), 0);
        assert!((r.mean_batch_size() - 2.0).abs() < 1e-12);
        assert!((r.occupancy() - 0.5).abs() < 1e-12);
        assert_eq!(r.peak_memory(), 4096);
        let text = SERVE_METRICS.csv(r.metrics_rows());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], format!("# schema: {SERVE_METRICS_SCHEMA}"));
        assert!(lines[1].starts_with("policy,routing,max_batch,"));
        assert_eq!(lines.len(), 4, "schema + header + all + one endpoint");
        assert!(
            lines[2].starts_with("b4/d1000us,single,4,0.001,all,3,2,1,0,0,"),
            "{}",
            lines[2]
        );
        assert!(lines[2].contains(",4096,"), "{}", lines[2]);
        assert!(
            lines[2].ends_with(",0,0,0"),
            "single-engine rows carry zero retries/hedges/failover: {}",
            lines[2]
        );
        assert!(lines[3].contains("table4/Cora/GCN/PyG"));
        // Every row carries the header's column count.
        for line in &lines[1..] {
            assert_eq!(
                line.split(',').count(),
                SERVE_METRICS.columns.len(),
                "{line}"
            );
        }
    }

    #[test]
    fn histogram_percentiles_match_legacy_percentile_fn() {
        let r = sample_report();
        let mut lats: Vec<f64> = r
            .requests
            .iter()
            .filter(|q| q.served())
            .map(RequestRecord::latency)
            .collect();
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (p50, p95, p99) = r.latency_percentiles();
        assert_eq!(p50, percentile(&lats, 50.0));
        assert_eq!(p95, percentile(&lats, 95.0));
        assert_eq!(p99, percentile(&lats, 99.0));
    }

    #[test]
    fn slo_attainment_counts_rejections_against() {
        let r = sample_report();
        // Both served requests land within 10ms, but one of three
        // submissions was rejected: attainment is 2/3, not 1.
        assert!((r.slo_attainment(0.010) - 2.0 / 3.0).abs() < 1e-12);
        // A 1ms target excludes every served request too.
        assert_eq!(r.slo_attainment(0.001), 0.0);
        let empty = ServeReport {
            requests: vec![],
            batches: vec![],
            queues: vec![],
            ..r
        };
        assert_eq!(empty.slo_attainment(0.010), 1.0);
    }

    #[test]
    fn summary_mentions_percentiles_and_throughput() {
        let s = sample_report().summary();
        assert!(s.contains("p50"));
        assert!(s.contains("p95"));
        assert!(s.contains("p99"));
        assert!(s.contains("throughput"));
        assert!(s.contains("0 dropped"));
    }

    #[test]
    fn shed_outcomes_count_separately_from_rejections() {
        let mut r = sample_report();
        r.requests[2].outcome = Outcome::Shed(ServeError::Shed { queue_depth: 64 });
        assert_eq!(r.answered(), 2);
        assert_eq!(r.rejected(), 0);
        assert_eq!(r.shed(), 1);
        // Sheds still count against SLO attainment.
        assert!((r.slo_attainment(0.010) - 2.0 / 3.0).abs() < 1e-12);
        let s = r.summary();
        assert!(s.contains("1 shed"), "{s}");
    }

    #[test]
    fn fleet_rows_carry_router_counters_on_the_aggregate_row() {
        let mut r = sample_report();
        r.routing = "least-loaded".into();
        r.fleet = Some(FleetStats {
            shards: 3,
            submitted: 3,
            dispatched: 4,
            retries: 1,
            hedges: 2,
            sheds: 0,
            ejections: 1,
            readmissions: 1,
            scale_ups: 0,
            scale_downs: 0,
            failover_latencies: vec![0.004, 0.009],
            retry_budget: 0.5,
        });
        assert_eq!(r.fleet.as_ref().unwrap().failover_p99(), 0.009);
        let text = SERVE_METRICS.csv(r.metrics_rows());
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[2].starts_with("b4/d1000us,least-loaded,"),
            "{}",
            lines[2]
        );
        assert!(
            lines[2].ends_with(",1,2,0.009"),
            "aggregate row carries retries/hedges/failover: {}",
            lines[2]
        );
        assert!(
            lines[3].ends_with(",0,0,0"),
            "endpoint rows read 0 for router-level counters: {}",
            lines[3]
        );
    }

    #[test]
    fn fleet_summary_line_names_the_counters() {
        let mut r = sample_report();
        r.fleet = Some(FleetStats {
            shards: 2,
            ..FleetStats::default()
        });
        let s = r.summary();
        assert!(s.contains("fleet: 2 shard(s)"), "{s}");
        assert!(s.contains("failover p99"), "{s}");
    }
}
