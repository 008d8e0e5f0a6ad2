//! The performance-report harness behind `gnn-bench report`.
//!
//! Runs a canonical slice of the study — the six representative sweep
//! cells plus the serve policy sweep and the fleet routing-policy sweep
//! under the canonical fleet chaos plan — and distills each run into the
//! numbers the regression observatory tracks: per-cell epoch time with its
//! kernel/transfer/idle split and roofline utilization, per-policy serve
//! latency percentiles with SLO attainment, and per-routing-policy fleet
//! resilience counters (sheds, retries, hedges, failover latency). A cell
//! is trained as run 0 of the sweep would train it — dataset, recipe,
//! architecture seed and framework all come from [`gnn_train::cell`]; this
//! module holds no description of a cell of its own. The result serializes
//! to a schema-versioned JSON document (`BENCH_<n>.json` at the repo root)
//! whose every number is *simulated* — no wall-clock anywhere — so a rerun
//! with the same config reproduces the file byte-for-byte. CI runs the
//! report twice and `cmp`s the outputs.
//!
//! [`diff_reports`] compares two documents metric by metric with a
//! configurable regression threshold: time-like metrics regress when they
//! grow past `previous * (1 + threshold)`, attainment-like metrics when
//! they shrink past `previous * (1 - threshold)`.

use std::path::PathBuf;

use gnn_faults::FaultPlan;
use gnn_obs::{json, Value};
use gnn_serve::{default_endpoints, BatchPolicy, CellId, FleetConfig, RoutingPolicy, ServeConfig};
use gnn_train::cell::{train, CellData, Trained};
use gnn_train::Supervisor;

/// Schema tag every report document carries; bumped on breaking change.
/// `v2` added the `fleet` section (per-routing-policy resilience rows);
/// `v3` added the `sample` section (per-sampled-cell training rows with
/// feature-cache hit rates).
pub const REPORT_SCHEMA: &str = "gnn-bench-report/v3";

/// What one report run covers.
#[derive(Debug, Clone)]
pub struct ReportConfig {
    /// Cells to train (the representative six by default).
    pub cells: Vec<CellId>,
    /// Sampled cells to train (`sample/<spec>-<sampler>/...`); reported
    /// in the `sample` section and served alongside `cells` in the serve
    /// policy sweep.
    pub sample_cells: Vec<CellId>,
    /// Dataset scale factor.
    pub scale: f64,
    /// Training epochs per cell.
    pub epochs: usize,
    /// Generation / workload seed.
    pub seed: u64,
    /// Serve batching policies to sweep.
    pub policies: Vec<BatchPolicy>,
    /// Requests per serve policy run.
    pub requests: usize,
    /// Serve arrival rate, requests per simulated second.
    pub rate: f64,
    /// SLO latency target in simulated seconds.
    pub slo_target: f64,
}

impl Default for ReportConfig {
    fn default() -> Self {
        ReportConfig {
            cells: default_endpoints(),
            sample_cells: default_sample_cells(),
            scale: 0.05,
            epochs: 2,
            seed: 0,
            policies: vec![
                BatchPolicy {
                    max_batch: 1,
                    max_delay: 0.0,
                },
                BatchPolicy {
                    max_batch: 4,
                    max_delay: 0.001,
                },
                BatchPolicy {
                    max_batch: 8,
                    max_delay: 0.002,
                },
            ],
            requests: 120,
            rate: 2000.0,
            slo_target: 0.005,
        }
    }
}

/// The sampled cells the report trains by default: the CI-speed RMAT
/// spec under both sampler kinds and both frameworks, so the report
/// tracks each framework's sampling/gather tax separately.
pub fn default_sample_cells() -> Vec<CellId> {
    [
        "sample/rmat-4k-neighbor/SAGE/PyG",
        "sample/rmat-4k-layerwise/SAGE/PyG",
        "sample/rmat-4k-neighbor/SAGE/DGL",
        "sample/rmat-4k-layerwise/SAGE/DGL",
    ]
    .iter()
    .map(|p| CellId::parse(p).expect("default sample cells are valid"))
    .collect()
}

/// One trained cell's distilled performance numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Cell path, e.g. `table4/Cora/GCN/PyG`.
    pub cell: String,
    /// Mean simulated seconds per epoch.
    pub epoch_time: f64,
    /// Total simulated training seconds.
    pub total_time: f64,
    /// Device time in non-transfer kernels.
    pub kernel_time: f64,
    /// Device time in transfer kernels.
    pub transfer_time: f64,
    /// Simulated time the device sat idle.
    pub idle_time: f64,
    /// Total floating-point operations.
    pub flops: u64,
    /// Total DRAM traffic in bytes.
    pub bytes: u64,
    /// Run-wide arithmetic intensity, FLOPs per byte.
    pub arithmetic_intensity: f64,
    /// Fraction of the nearer roofline ceiling sustained while busy.
    pub roofline_utilization: f64,
    /// Busy / elapsed device utilization.
    pub utilization: f64,
}

/// One serve policy's distilled latency numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePolicyReport {
    /// Policy label, e.g. `b8/d2000us`.
    pub policy: String,
    /// Median enqueue-to-reply latency, simulated seconds.
    pub p50: f64,
    /// 95th-percentile latency.
    pub p95: f64,
    /// 99th-percentile latency.
    pub p99: f64,
    /// Served requests per simulated second.
    pub throughput: f64,
    /// Fraction of submitted requests answered within the SLO target.
    pub slo_attainment: f64,
    /// Requests served.
    pub served: usize,
    /// Requests rejected.
    pub rejected: usize,
}

/// One fleet routing policy's distilled resilience numbers, measured
/// under the canonical fleet chaos plan (shard blackout + network
/// straggler + the chaos suite).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPolicyReport {
    /// Routing label, `consistent-hash` or `least-loaded`.
    pub routing: String,
    /// Median enqueue-to-reply latency, simulated seconds.
    pub p50: f64,
    /// 95th-percentile latency.
    pub p95: f64,
    /// 99th-percentile latency.
    pub p99: f64,
    /// Served requests per simulated second.
    pub throughput: f64,
    /// Fraction of submitted requests answered within the SLO target.
    pub slo_attainment: f64,
    /// Requests answered.
    pub answered: usize,
    /// Requests shed by admission control or ejection drains.
    pub shed: usize,
    /// Failover retries spent from the token bucket.
    pub retries: usize,
    /// Hedge twins dispatched.
    pub hedges: usize,
    /// 99th-percentile failover latency (seconds), 0 when nothing failed
    /// over.
    pub failover_p99: f64,
}

/// One sampled cell's distilled training numbers (`v3`'s `sample`
/// section): besides the time split, the feature-cache hit rate — the
/// number that decides whether giant-graph training is gather-bound.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleCellReport {
    /// Cell path, e.g. `sample/rmat-4k-neighbor/SAGE/PyG`.
    pub cell: String,
    /// Mean simulated seconds per epoch.
    pub epoch_time: f64,
    /// Total simulated training seconds.
    pub total_time: f64,
    /// Device time in non-transfer kernels.
    pub kernel_time: f64,
    /// Device time in transfer kernels (the gather/upload tax).
    pub transfer_time: f64,
    /// End-of-run feature-cache hit rate in `[0, 1]`.
    pub cache_hit_rate: f64,
    /// Test accuracy at the best-validation epoch, in percent.
    pub test_acc: f64,
}

/// The full report document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema tag ([`REPORT_SCHEMA`]).
    pub schema: String,
    /// Config echo: scale, epochs, seed, requests, rate, SLO target.
    pub config: Vec<(String, f64)>,
    /// One entry per trained cell, in config order.
    pub cells: Vec<CellReport>,
    /// One entry per sampled cell, in config order (`v3`).
    pub sample: Vec<SampleCellReport>,
    /// One entry per serve policy, in config order.
    pub serve: Vec<ServePolicyReport>,
    /// One entry per fleet routing policy, under the canonical fleet
    /// chaos plan.
    pub fleet: Vec<FleetPolicyReport>,
}

/// Trains one cell — run 0 of it, exactly as the sweep would: the catalog's
/// dataset, recipe, architecture seed and framework — under the default
/// policy. Shared between the report harness and the causal what-if
/// profiler (`crate::whatif`), which needs the raw device report for
/// roofline attribution and runs under an observability collector to
/// capture the device schedule.
///
/// # Panics
///
/// Panics if the cell names an unknown dataset or training fails (both
/// indicate a broken config, not a run-time condition).
pub(crate) fn train_cell(cell: &CellId, scale: f64, epochs: usize, seed: u64) -> Trained {
    let data =
        CellData::generate(cell.task, &cell.dataset, scale, seed).unwrap_or_else(|e| panic!("{e}"));
    train(cell, &data, epochs, seed, 0, &Supervisor::default())
        .unwrap_or_else(|e| panic!("{e}"))
        .outcome
}

fn run_sample_cell(cell: &CellId, cfg: &ReportConfig) -> SampleCellReport {
    let out = train_cell(cell, cfg.scale, cfg.epochs, cfg.seed);
    SampleCellReport {
        cell: cell.path(),
        epoch_time: out.epoch_time,
        total_time: out.total_time,
        kernel_time: out.report.kernel_exec_time(),
        transfer_time: out.report.transfer_time(),
        cache_hit_rate: out.cache_hit_rate,
        test_acc: out.test_acc,
    }
}

fn run_cell(cell: &CellId, cfg: &ReportConfig) -> CellReport {
    let out = train_cell(cell, cfg.scale, cfg.epochs, cfg.seed);
    let dev = out.report;
    CellReport {
        cell: cell.path(),
        epoch_time: out.epoch_time,
        total_time: out.total_time,
        kernel_time: dev.kernel_exec_time(),
        transfer_time: dev.transfer_time(),
        idle_time: dev.idle_time(),
        flops: dev.total_flops,
        bytes: dev.total_bytes,
        arithmetic_intensity: dev.arithmetic_intensity(),
        roofline_utilization: dev.roofline_utilization(),
        utilization: dev.utilization(),
    }
}

/// Runs the full report: trains every configured cell, then sweeps the
/// serve policies over the same endpoints. Deterministic: every number is
/// simulated, so the same config yields the same [`BenchReport`] —
/// byte-for-byte once rendered.
///
/// # Panics
///
/// Panics if a configured cell names an unknown dataset or serving fails
/// (both indicate a broken config, not a run-time condition).
pub fn run_report(cfg: &ReportConfig) -> BenchReport {
    let cells: Vec<CellReport> = cfg.cells.iter().map(|c| run_cell(c, cfg)).collect();
    let sample: Vec<SampleCellReport> = cfg
        .sample_cells
        .iter()
        .map(|c| run_sample_cell(c, cfg))
        .collect();
    // Sampled endpoints ride the same serve policy sweep as the classic
    // cells: each dispatch samples the union block of its seed batch.
    let endpoints: Vec<CellId> = cfg.cells.iter().chain(&cfg.sample_cells).cloned().collect();
    let mut serve = Vec::with_capacity(cfg.policies.len());
    for policy in &cfg.policies {
        let scfg = ServeConfig {
            endpoints: endpoints.clone(),
            requests: cfg.requests,
            rate: cfg.rate,
            seed: cfg.seed,
            policy: *policy,
            scale: cfg.scale,
            ..ServeConfig::default()
        };
        let report = gnn_serve::serve(&scfg).expect("serve run failed");
        let (p50, p95, p99) = report.latency_percentiles();
        serve.push(ServePolicyReport {
            policy: policy.label(),
            p50,
            p95,
            p99,
            throughput: report.throughput(),
            slo_attainment: report.slo_attainment(cfg.slo_target),
            served: report.answered(),
            rejected: report.rejected(),
        });
    }
    let mut fleet = Vec::with_capacity(2);
    for routing in [RoutingPolicy::ConsistentHash, RoutingPolicy::LeastLoaded] {
        let fcfg = FleetConfig {
            endpoints: cfg.cells.clone(),
            routing,
            requests: cfg.requests,
            rate: cfg.rate,
            seed: cfg.seed,
            scale: cfg.scale,
            slo_target: cfg.slo_target,
            ..FleetConfig::default()
        };
        // Each routing policy runs under its own arming of the canonical
        // fleet plan, so dp-step-indexed faults hit both policies alike.
        let handle =
            (!gnn_faults::is_active()).then(|| gnn_faults::install(FaultPlan::canonical_fleet()));
        let report = gnn_serve::serve_fleet(&fcfg).expect("fleet run failed");
        if let Some(h) = handle {
            gnn_faults::finish(h);
        }
        let (p50, p95, p99) = report.latency_percentiles();
        let stats = report.fleet.as_ref().expect("fleet stats present");
        fleet.push(FleetPolicyReport {
            routing: routing.label().to_owned(),
            p50,
            p95,
            p99,
            throughput: report.throughput(),
            slo_attainment: report.slo_attainment(cfg.slo_target),
            answered: report.answered(),
            shed: report.shed(),
            retries: stats.retries,
            hedges: stats.hedges,
            failover_p99: stats.failover_p99(),
        });
    }
    BenchReport {
        schema: REPORT_SCHEMA.to_owned(),
        config: vec![
            ("scale".to_owned(), cfg.scale),
            ("epochs".to_owned(), cfg.epochs as f64),
            ("seed".to_owned(), cfg.seed as f64),
            ("requests".to_owned(), cfg.requests as f64),
            ("rate".to_owned(), cfg.rate),
            ("slo_target".to_owned(), cfg.slo_target),
        ],
        cells,
        sample,
        serve,
        fleet,
    }
}

impl BenchReport {
    /// The document as a JSON tree (deterministic key order).
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("schema".into(), Value::from(self.schema.as_str())),
            (
                "config".into(),
                Value::Obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "cells".into(),
                Value::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Value::Obj(vec![
                                ("cell".into(), Value::from(c.cell.as_str())),
                                ("epoch_time".into(), Value::Num(c.epoch_time)),
                                ("total_time".into(), Value::Num(c.total_time)),
                                ("kernel_time".into(), Value::Num(c.kernel_time)),
                                ("transfer_time".into(), Value::Num(c.transfer_time)),
                                ("idle_time".into(), Value::Num(c.idle_time)),
                                ("flops".into(), Value::from(c.flops)),
                                ("bytes".into(), Value::from(c.bytes)),
                                (
                                    "arithmetic_intensity".into(),
                                    Value::Num(c.arithmetic_intensity),
                                ),
                                (
                                    "roofline_utilization".into(),
                                    Value::Num(c.roofline_utilization),
                                ),
                                ("utilization".into(), Value::Num(c.utilization)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "sample".into(),
                Value::Arr(
                    self.sample
                        .iter()
                        .map(|c| {
                            Value::Obj(vec![
                                ("cell".into(), Value::from(c.cell.as_str())),
                                ("epoch_time".into(), Value::Num(c.epoch_time)),
                                ("total_time".into(), Value::Num(c.total_time)),
                                ("kernel_time".into(), Value::Num(c.kernel_time)),
                                ("transfer_time".into(), Value::Num(c.transfer_time)),
                                ("cache_hit_rate".into(), Value::Num(c.cache_hit_rate)),
                                ("test_acc".into(), Value::Num(c.test_acc)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "serve".into(),
                Value::Arr(
                    self.serve
                        .iter()
                        .map(|s| {
                            Value::Obj(vec![
                                ("policy".into(), Value::from(s.policy.as_str())),
                                ("p50".into(), Value::Num(s.p50)),
                                ("p95".into(), Value::Num(s.p95)),
                                ("p99".into(), Value::Num(s.p99)),
                                ("throughput".into(), Value::Num(s.throughput)),
                                ("slo_attainment".into(), Value::Num(s.slo_attainment)),
                                ("served".into(), Value::from(s.served)),
                                ("rejected".into(), Value::from(s.rejected)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "fleet".into(),
                Value::Arr(
                    self.fleet
                        .iter()
                        .map(|f| {
                            Value::Obj(vec![
                                ("routing".into(), Value::from(f.routing.as_str())),
                                ("p50".into(), Value::Num(f.p50)),
                                ("p95".into(), Value::Num(f.p95)),
                                ("p99".into(), Value::Num(f.p99)),
                                ("throughput".into(), Value::Num(f.throughput)),
                                ("slo_attainment".into(), Value::Num(f.slo_attainment)),
                                ("answered".into(), Value::from(f.answered)),
                                ("shed".into(), Value::from(f.shed)),
                                ("retries".into(), Value::from(f.retries)),
                                ("hedges".into(), Value::from(f.hedges)),
                                ("failover_p99".into(), Value::Num(f.failover_p99)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the document as pretty-stable JSON (one trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = self.to_value().to_json();
        s.push('\n');
        s
    }

    /// Human-readable summary table.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<28} {:>10} {:>9} {:>9} {:>9} {:>9}",
            "cell", "epoch ms", "kernel%", "xfer%", "idle%", "roofline"
        );
        for c in &self.cells {
            let total = c.kernel_time + c.transfer_time + c.idle_time;
            let pct = |v: f64| if total > 0.0 { 100.0 * v / total } else { 0.0 };
            let _ = writeln!(
                s,
                "{:<28} {:>10.3} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
                c.cell,
                c.epoch_time * 1e3,
                pct(c.kernel_time),
                pct(c.transfer_time),
                pct(c.idle_time),
                c.roofline_utilization * 100.0,
            );
        }
        if !self.sample.is_empty() {
            let _ = writeln!(
                s,
                "{:<34} {:>10} {:>9} {:>8} {:>8}",
                "sampled cell", "epoch ms", "xfer ms", "cache%", "test%"
            );
            for c in &self.sample {
                let _ = writeln!(
                    s,
                    "{:<34} {:>10.3} {:>9.3} {:>7.1}% {:>7.1}%",
                    c.cell,
                    c.epoch_time * 1e3,
                    c.transfer_time * 1e3,
                    c.cache_hit_rate * 100.0,
                    c.test_acc,
                );
            }
        }
        let _ = writeln!(
            s,
            "{:<14} {:>9} {:>9} {:>9} {:>11} {:>8}",
            "policy", "p50 ms", "p95 ms", "p99 ms", "thru req/s", "SLO"
        );
        for p in &self.serve {
            let _ = writeln!(
                s,
                "{:<14} {:>9.3} {:>9.3} {:>9.3} {:>11.1} {:>7.1}%",
                p.policy,
                p.p50 * 1e3,
                p.p95 * 1e3,
                p.p99 * 1e3,
                p.throughput,
                p.slo_attainment * 100.0,
            );
        }
        if !self.fleet.is_empty() {
            let _ = writeln!(
                s,
                "{:<16} {:>9} {:>9} {:>7} {:>6} {:>7} {:>7} {:>10}",
                "fleet routing", "p50 ms", "p99 ms", "SLO", "shed", "retry", "hedge", "failover"
            );
            for f in &self.fleet {
                let _ = writeln!(
                    s,
                    "{:<16} {:>9.3} {:>9.3} {:>6.1}% {:>6} {:>7} {:>7} {:>7.3}ms",
                    f.routing,
                    f.p50 * 1e3,
                    f.p99 * 1e3,
                    f.slo_attainment * 100.0,
                    f.shed,
                    f.retries,
                    f.hedges,
                    f.failover_p99 * 1e3,
                );
            }
        }
        s
    }
}

/// Parses a report document, validating the schema tag.
///
/// # Errors
///
/// Returns a diagnostic on malformed JSON, a wrong schema tag, or missing
/// fields.
pub fn parse_bench_report(text: &str) -> Result<BenchReport, String> {
    let doc = json::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(|s| s.as_str())
        .ok_or("missing schema tag")?;
    if schema != REPORT_SCHEMA {
        return Err(format!(
            "schema mismatch: file is `{schema}`, this build reads `{REPORT_SCHEMA}`"
        ));
    }
    let config = doc
        .get("config")
        .and_then(|c| c.as_obj())
        .ok_or("missing config object")?
        .iter()
        .map(|(k, v)| {
            v.as_f64()
                .map(|n| (k.clone(), n))
                .ok_or_else(|| format!("config.{k} is not a number"))
        })
        .collect::<Result<_, _>>()?;
    let num = |obj: &Value, key: &str| -> Result<f64, String> {
        obj.get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("missing numeric field `{key}`"))
    };
    let text_field = |obj: &Value, key: &str| -> Result<String, String> {
        obj.get(key)
            .and_then(|v| v.as_str())
            .map(str::to_owned)
            .ok_or_else(|| format!("missing string field `{key}`"))
    };
    let cells = doc
        .get("cells")
        .and_then(|c| c.as_arr())
        .ok_or("missing cells array")?
        .iter()
        .map(|c| {
            Ok(CellReport {
                cell: text_field(c, "cell")?,
                epoch_time: num(c, "epoch_time")?,
                total_time: num(c, "total_time")?,
                kernel_time: num(c, "kernel_time")?,
                transfer_time: num(c, "transfer_time")?,
                idle_time: num(c, "idle_time")?,
                flops: num(c, "flops")? as u64,
                bytes: num(c, "bytes")? as u64,
                arithmetic_intensity: num(c, "arithmetic_intensity")?,
                roofline_utilization: num(c, "roofline_utilization")?,
                utilization: num(c, "utilization")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let sample = doc
        .get("sample")
        .and_then(|s| s.as_arr())
        .ok_or("missing sample array")?
        .iter()
        .map(|c| {
            Ok(SampleCellReport {
                cell: text_field(c, "cell")?,
                epoch_time: num(c, "epoch_time")?,
                total_time: num(c, "total_time")?,
                kernel_time: num(c, "kernel_time")?,
                transfer_time: num(c, "transfer_time")?,
                cache_hit_rate: num(c, "cache_hit_rate")?,
                test_acc: num(c, "test_acc")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let serve = doc
        .get("serve")
        .and_then(|s| s.as_arr())
        .ok_or("missing serve array")?
        .iter()
        .map(|s| {
            Ok(ServePolicyReport {
                policy: text_field(s, "policy")?,
                p50: num(s, "p50")?,
                p95: num(s, "p95")?,
                p99: num(s, "p99")?,
                throughput: num(s, "throughput")?,
                slo_attainment: num(s, "slo_attainment")?,
                served: num(s, "served")? as usize,
                rejected: num(s, "rejected")? as usize,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let fleet = doc
        .get("fleet")
        .and_then(|f| f.as_arr())
        .ok_or("missing fleet array")?
        .iter()
        .map(|f| {
            Ok(FleetPolicyReport {
                routing: text_field(f, "routing")?,
                p50: num(f, "p50")?,
                p95: num(f, "p95")?,
                p99: num(f, "p99")?,
                throughput: num(f, "throughput")?,
                slo_attainment: num(f, "slo_attainment")?,
                answered: num(f, "answered")? as usize,
                shed: num(f, "shed")? as usize,
                retries: num(f, "retries")? as usize,
                hedges: num(f, "hedges")? as usize,
                failover_p99: num(f, "failover_p99")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(BenchReport {
        schema: schema.to_owned(),
        config,
        cells,
        sample,
        serve,
        fleet,
    })
}

/// One metric compared between two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffLine {
    /// Metric path, e.g. `table4/Cora/GCN/PyG epoch_time` or
    /// `serve b8/d2000us p95`.
    pub metric: String,
    /// Baseline value.
    pub previous: f64,
    /// Current value.
    pub current: f64,
    /// Whether the change crossed the regression threshold.
    pub regression: bool,
}

impl DiffLine {
    /// Relative change, `current / previous - 1` (0 when previous is 0).
    pub fn delta(&self) -> f64 {
        if self.previous == 0.0 {
            0.0
        } else {
            self.current / self.previous - 1.0
        }
    }
}

fn compare(
    metric: String,
    previous: f64,
    current: f64,
    threshold: f64,
    higher_is_worse: bool,
    out: &mut Vec<DiffLine>,
) {
    let regression = if higher_is_worse {
        current > previous * (1.0 + threshold)
    } else {
        current < previous * (1.0 - threshold)
    };
    out.push(DiffLine {
        metric,
        previous,
        current,
        regression,
    });
}

/// Compares `current` against `previous` metric by metric. Time-like
/// metrics (epoch time, latency percentiles) regress when they grow past
/// the threshold; attainment regresses when it shrinks past it. Metrics
/// present on only one side are skipped — the diff tracks drift, not
/// coverage.
pub fn diff_reports(
    previous: &BenchReport,
    current: &BenchReport,
    threshold: f64,
) -> Vec<DiffLine> {
    let mut out = Vec::new();
    for cur in &current.cells {
        let Some(prev) = previous.cells.iter().find(|c| c.cell == cur.cell) else {
            continue;
        };
        compare(
            format!("{} epoch_time", cur.cell),
            prev.epoch_time,
            cur.epoch_time,
            threshold,
            true,
            &mut out,
        );
        compare(
            format!("{} roofline_utilization", cur.cell),
            prev.roofline_utilization,
            cur.roofline_utilization,
            threshold,
            false,
            &mut out,
        );
    }
    for cur in &current.sample {
        let Some(prev) = previous.sample.iter().find(|c| c.cell == cur.cell) else {
            continue;
        };
        compare(
            format!("{} epoch_time", cur.cell),
            prev.epoch_time,
            cur.epoch_time,
            threshold,
            true,
            &mut out,
        );
        compare(
            format!("{} cache_hit_rate", cur.cell),
            prev.cache_hit_rate,
            cur.cache_hit_rate,
            threshold,
            false,
            &mut out,
        );
    }
    for cur in &current.serve {
        let Some(prev) = previous.serve.iter().find(|s| s.policy == cur.policy) else {
            continue;
        };
        compare(
            format!("serve {} p95", cur.policy),
            prev.p95,
            cur.p95,
            threshold,
            true,
            &mut out,
        );
        compare(
            format!("serve {} p99", cur.policy),
            prev.p99,
            cur.p99,
            threshold,
            true,
            &mut out,
        );
        compare(
            format!("serve {} slo_attainment", cur.policy),
            prev.slo_attainment,
            cur.slo_attainment,
            threshold,
            false,
            &mut out,
        );
    }
    for cur in &current.fleet {
        let Some(prev) = previous.fleet.iter().find(|f| f.routing == cur.routing) else {
            continue;
        };
        compare(
            format!("fleet {} p99", cur.routing),
            prev.p99,
            cur.p99,
            threshold,
            true,
            &mut out,
        );
        compare(
            format!("fleet {} slo_attainment", cur.routing),
            prev.slo_attainment,
            cur.slo_attainment,
            threshold,
            false,
            &mut out,
        );
        compare(
            format!("fleet {} failover_p99", cur.routing),
            prev.failover_p99,
            cur.failover_p99,
            threshold,
            true,
            &mut out,
        );
    }
    out
}

/// Renders the diff lines; regressions are prefixed `REGRESSION`.
pub fn render_diff(lines: &[DiffLine]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for l in lines {
        let _ = writeln!(
            s,
            "{} {:<44} {:>14.6} -> {:>14.6} ({:+.1}%)",
            if l.regression {
                "REGRESSION"
            } else {
                "        ok"
            },
            l.metric,
            l.previous,
            l.current,
            l.delta() * 100.0,
        );
    }
    s
}

/// Resolves the first readable baseline among `candidates`, in order,
/// returning it alongside one warning line per candidate skipped. A
/// candidate fails (and falls through to the next) when the file is
/// unreadable or the document does not parse — most commonly an older
/// schema version still checked in for history, e.g. a `v2` report from
/// before the `sample` section existed. Falling through instead of
/// erroring lets a report trajectory cross schema bumps without manual
/// baseline surgery.
pub fn resolve_baseline(candidates: &[PathBuf]) -> (Option<(PathBuf, BenchReport)>, Vec<String>) {
    let mut warnings = Vec::new();
    for p in candidates {
        match std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_bench_report(&text))
        {
            Ok(r) => return (Some((p.clone(), r)), warnings),
            Err(e) => warnings.push(format!("baseline {} unreadable: {e}", p.display())),
        }
    }
    (None, warnings)
}

/// A single-cell, single-policy config for tests and smoke runs.
pub fn tiny_report_config() -> ReportConfig {
    ReportConfig {
        cells: vec![CellId::parse("table4/Cora/GCN/PyG").expect("tiny cell is valid")],
        sample_cells: vec![
            CellId::parse("sample/rmat-4k-neighbor/SAGE/PyG").expect("tiny sample cell is valid")
        ],
        epochs: 1,
        policies: vec![BatchPolicy {
            max_batch: 4,
            max_delay: 0.001,
        }],
        requests: 40,
        ..ReportConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            schema: REPORT_SCHEMA.to_owned(),
            config: vec![("scale".into(), 0.05), ("epochs".into(), 2.0)],
            cells: vec![CellReport {
                cell: "table4/Cora/GCN/PyG".into(),
                epoch_time: 0.010,
                total_time: 0.020,
                kernel_time: 0.012,
                transfer_time: 0.003,
                idle_time: 0.005,
                flops: 1_000_000,
                bytes: 4_000_000,
                arithmetic_intensity: 0.25,
                roofline_utilization: 0.42,
                utilization: 0.75,
            }],
            sample: vec![SampleCellReport {
                cell: "sample/rmat-4k-neighbor/SAGE/PyG".into(),
                epoch_time: 0.030,
                total_time: 0.060,
                kernel_time: 0.020,
                transfer_time: 0.015,
                cache_hit_rate: 0.65,
                test_acc: 40.0,
            }],
            serve: vec![ServePolicyReport {
                policy: "b4/d1000us".into(),
                p50: 0.001,
                p95: 0.002,
                p99: 0.003,
                throughput: 800.0,
                slo_attainment: 0.95,
                served: 118,
                rejected: 2,
            }],
            fleet: vec![FleetPolicyReport {
                routing: "consistent-hash".into(),
                p50: 0.0012,
                p95: 0.0025,
                p99: 0.004,
                throughput: 750.0,
                slo_attainment: 0.9,
                answered: 110,
                shed: 10,
                retries: 6,
                hedges: 3,
                failover_p99: 0.008,
            }],
        }
    }

    #[test]
    fn document_round_trips() {
        let r = sample();
        let text = r.to_json();
        let back = parse_bench_report(&text).expect("parse own output");
        assert_eq!(back, r);
        // And the rendering is stable through a round trip.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn parser_rejects_wrong_schema() {
        let text = sample().to_json().replace(REPORT_SCHEMA, "bogus/v9");
        let err = parse_bench_report(&text).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn diff_flags_time_growth_and_attainment_drop() {
        let prev = sample();
        let mut cur = sample();
        cur.cells[0].epoch_time *= 1.20; // +20% over a 5% threshold
        cur.serve[0].slo_attainment = 0.80; // attainment drop
        cur.fleet[0].failover_p99 *= 2.0; // failover latency growth
        let lines = diff_reports(&prev, &cur, 0.05);
        let regressions: Vec<&DiffLine> = lines.iter().filter(|l| l.regression).collect();
        assert_eq!(regressions.len(), 3, "{}", render_diff(&lines));
        assert!(regressions[0].metric.contains("epoch_time"));
        assert!(regressions[1].metric.contains("slo_attainment"));
        assert!(regressions[2].metric.contains("failover_p99"));
        // Identical reports never regress.
        assert!(diff_reports(&prev, &prev, 0.05)
            .iter()
            .all(|l| !l.regression));
    }

    #[test]
    fn diff_skips_unmatched_metrics() {
        let prev = sample();
        let mut cur = sample();
        cur.cells[0].cell = "table4/PubMed/GCN/PyG".into();
        let lines = diff_reports(&prev, &cur, 0.05);
        assert!(lines.iter().all(|l| {
            l.metric.starts_with("sample/")
                || l.metric.starts_with("serve ")
                || l.metric.starts_with("fleet ")
        }));
        cur.sample[0].cell = "sample/rmat-64k-neighbor/SAGE/PyG".into();
        cur.fleet[0].routing = "least-loaded".into();
        let lines = diff_reports(&prev, &cur, 0.05);
        assert!(lines.iter().all(|l| l.metric.starts_with("serve ")));
    }

    #[test]
    fn diff_flags_sampled_cache_and_time_drift() {
        let prev = sample();
        let mut cur = sample();
        cur.sample[0].epoch_time *= 1.20;
        cur.sample[0].cache_hit_rate = 0.40; // hit-rate collapse
        let lines = diff_reports(&prev, &cur, 0.05);
        let regressions: Vec<&DiffLine> = lines.iter().filter(|l| l.regression).collect();
        assert_eq!(regressions.len(), 2, "{}", render_diff(&lines));
        assert!(regressions[0].metric.contains("epoch_time"));
        assert!(regressions[1].metric.contains("cache_hit_rate"));
    }

    #[test]
    fn baseline_resolution_falls_through_old_schemas() {
        let dir = std::env::temp_dir().join("gnn_bench_baseline_fallthrough");
        std::fs::create_dir_all(&dir).unwrap();
        let old = dir.join("BENCH_9.json");
        let new = dir.join("BENCH_10.json");
        // A v2-era document: no `sample` section, old schema tag.
        let v2 = sample()
            .to_json()
            .replace(REPORT_SCHEMA, "gnn-bench-report/v2");
        std::fs::write(&old, v2).unwrap();
        std::fs::write(&new, sample().to_json()).unwrap();
        let missing = dir.join("nope.json");
        let (found, warnings) = resolve_baseline(&[missing.clone(), old.clone(), new.clone()]);
        let (path, report) = found.expect("v3 candidate resolves");
        assert_eq!(path, new);
        assert_eq!(report, sample());
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("nope.json"), "{}", warnings[0]);
        assert!(
            warnings[1].contains("schema mismatch"),
            "old-schema candidates fall through with a warning: {}",
            warnings[1]
        );
        // Nothing readable: no baseline, all candidates warned about.
        let (none, warnings) = resolve_baseline(&[missing, old]);
        assert!(none.is_none());
        assert_eq!(warnings.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_report_is_deterministic() {
        let cfg = tiny_report_config();
        let a = run_report(&cfg);
        let b = run_report(&cfg);
        assert_eq!(a.to_json(), b.to_json(), "report must be bit-identical");
        assert_eq!(a.cells.len(), 1);
        assert_eq!(a.sample.len(), 1);
        assert_eq!(a.serve.len(), 1);
        let sc = &a.sample[0];
        assert_eq!(sc.cell, "sample/rmat-4k-neighbor/SAGE/PyG");
        assert!(sc.epoch_time > 0.0 && sc.total_time > 0.0);
        assert!(sc.transfer_time > 0.0, "sampled gather always uploads");
        assert!((0.0..=1.0).contains(&sc.cache_hit_rate));
        assert!((0.0..=100.0).contains(&sc.test_acc));
        let c = &a.cells[0];
        assert!(c.epoch_time > 0.0);
        assert!(c.flops > 0 && c.bytes > 0);
        assert!(c.kernel_time > 0.0 && c.transfer_time >= 0.0 && c.idle_time >= 0.0);
        assert!(
            (c.kernel_time + c.transfer_time + c.idle_time - c.total_time).abs()
                < 1e-9 * c.total_time.max(1.0),
            "split must sum to total"
        );
        assert!((0.0..=1.0).contains(&c.roofline_utilization));
        assert!(a.serve[0].p50 > 0.0);
        assert!((0.0..=1.0).contains(&a.serve[0].slo_attainment));
        // Both routing policies ran under the canonical fleet chaos plan
        // and every request reached a terminal outcome.
        assert_eq!(a.fleet.len(), 2);
        assert_eq!(a.fleet[0].routing, "consistent-hash");
        assert_eq!(a.fleet[1].routing, "least-loaded");
        for f in &a.fleet {
            assert!(f.p50 > 0.0 && f.p50 <= f.p99);
            assert!((0.0..=1.0).contains(&f.slo_attainment));
            assert!(f.answered + f.shed <= cfg.requests);
            assert!(f.answered > 0, "the fleet must answer under chaos");
        }
    }
}
