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
//! with the same config reproduces the file byte-for-byte. CI `cmp`s a
//! fresh run against the checked-in `BENCH_33.json`, and
//! [`BenchReport::check`] holds every row to its invariants before the
//! file is written.
//!
//! The document is written once and never parsed back into these types:
//! [`resolve_baseline`] reads a baseline as a [`Value`] tree, and
//! [`diff_reports`] compares two trees metric by metric with a
//! configurable regression threshold: time-like metrics regress when they
//! grow past `previous * (1 + threshold)`, attainment-like metrics when
//! they shrink past `previous * (1 - threshold)`.

use std::path::PathBuf;

use gnn_faults::FaultPlan;
use gnn_obs::{json, Column, Table, Value};
use gnn_serve::{default_endpoints, BatchPolicy, CellId, FleetConfig, RoutingPolicy, ServeConfig};
use gnn_train::cell::{train, CellData, Trained};
use gnn_train::Supervisor;

/// Schema tag every report document carries; bumped on breaking change.
/// `v2` added the `fleet` section (per-routing-policy resilience rows);
/// `v3` added the `sample` section (per-sampled-cell training rows with
/// feature-cache hit rates); `v4` reads a cell row's `total_time` off the
/// device session, the clock its kernel/transfer/idle split comes from,
/// instead of the epoch clock, which leaves a graph fold's final
/// evaluation out.
pub const REPORT_SCHEMA: &str = "gnn-bench-report/v4";

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
            policies: default_policies(),
            requests: 120,
            rate: 2000.0,
            slo_target: 0.005,
        }
    }
}

/// The batching policies swept when none are named (`serve`, `report`,
/// `whatif`): unbatched, up to 4 within 1 ms, and up to 8 within 2 ms.
pub(crate) fn default_policies() -> Vec<BatchPolicy> {
    [(1, 0.0), (4, 0.001), (8, 0.002)]
        .map(|(max_batch, max_delay)| BatchPolicy {
            max_batch,
            max_delay,
        })
        .to_vec()
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
    /// Simulated seconds of the whole device session (evaluation
    /// included): `kernel_time + transfer_time + idle_time`.
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

/// The full report document, tagged [`REPORT_SCHEMA`] when rendered.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
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

/// The `cells` rows of the report document.
pub const CELL_ROWS: Table<CellReport> = Table {
    schema: None,
    columns: &[
        Column::new("cell", |c| c.cell.as_str().into()),
        Column::new("epoch_time", |c| c.epoch_time.into()),
        Column::new("total_time", |c| c.total_time.into()),
        Column::new("kernel_time", |c| c.kernel_time.into()),
        Column::new("transfer_time", |c| c.transfer_time.into()),
        Column::new("idle_time", |c| c.idle_time.into()),
        Column::new("flops", |c| c.flops.into()),
        Column::new("bytes", |c| c.bytes.into()),
        Column::new("arithmetic_intensity", |c| c.arithmetic_intensity.into()),
        Column::new("roofline_utilization", |c| c.roofline_utilization.into()),
        Column::new("utilization", |c| c.utilization.into()),
    ],
};

/// The `sample` rows of the report document.
pub const SAMPLE_ROWS: Table<SampleCellReport> = Table {
    schema: None,
    columns: &[
        Column::new("cell", |c| c.cell.as_str().into()),
        Column::new("epoch_time", |c| c.epoch_time.into()),
        Column::new("total_time", |c| c.total_time.into()),
        Column::new("kernel_time", |c| c.kernel_time.into()),
        Column::new("transfer_time", |c| c.transfer_time.into()),
        Column::new("cache_hit_rate", |c| c.cache_hit_rate.into()),
        Column::new("test_acc", |c| c.test_acc.into()),
    ],
};

/// The `serve` rows of the report document.
pub const SERVE_ROWS: Table<ServePolicyReport> = Table {
    schema: None,
    columns: &[
        Column::new("policy", |s| s.policy.as_str().into()),
        Column::new("p50", |s| s.p50.into()),
        Column::new("p95", |s| s.p95.into()),
        Column::new("p99", |s| s.p99.into()),
        Column::new("throughput", |s| s.throughput.into()),
        Column::new("slo_attainment", |s| s.slo_attainment.into()),
        Column::new("served", |s| s.served.into()),
        Column::new("rejected", |s| s.rejected.into()),
    ],
};

/// The `fleet` rows of the report document.
pub const FLEET_ROWS: Table<FleetPolicyReport> = Table {
    schema: None,
    columns: &[
        Column::new("routing", |f| f.routing.as_str().into()),
        Column::new("p50", |f| f.p50.into()),
        Column::new("p95", |f| f.p95.into()),
        Column::new("p99", |f| f.p99.into()),
        Column::new("throughput", |f| f.throughput.into()),
        Column::new("slo_attainment", |f| f.slo_attainment.into()),
        Column::new("answered", |f| f.answered.into()),
        Column::new("shed", |f| f.shed.into()),
        Column::new("retries", |f| f.retries.into()),
        Column::new("hedges", |f| f.hedges.into()),
        Column::new("failover_p99", |f| f.failover_p99.into()),
    ],
};

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
        total_time: dev.total_time,
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
/// # Errors
///
/// The lines of [`BenchReport::check`] when the document breaks its own
/// invariants.
///
/// # Panics
///
/// Panics if a configured cell names an unknown dataset or serving fails
/// (both indicate a broken config, not a run-time condition).
pub fn run_report(cfg: &ReportConfig) -> Result<BenchReport, Vec<String>> {
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
    let report = BenchReport {
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
    };
    let errors = report.check();
    if errors.is_empty() {
        Ok(report)
    } else {
        Err(errors)
    }
}

impl BenchReport {
    /// What every report must hold, one line per row that breaks it
    /// (none when it holds): each `cells` row's kernel, transfer and idle
    /// times sum to its `total_time`, within `1e-9` relative.
    pub fn check(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for c in &self.cells {
            let split = c.kernel_time + c.transfer_time + c.idle_time;
            if (split - c.total_time).abs() > 1e-9 * c.total_time.abs() {
                errors.push(format!(
                    "cells `{}`: kernel + transfer + idle time {split} s is not total_time {} s",
                    c.cell, c.total_time
                ));
            }
        }
        errors
    }

    /// The document as a JSON tree (deterministic key order).
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("schema".into(), Value::from(REPORT_SCHEMA)),
            (
                "config".into(),
                Value::Obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
            ("cells".into(), CELL_ROWS.json_rows(&self.cells)),
            ("sample".into(), SAMPLE_ROWS.json_rows(&self.sample)),
            ("serve".into(), SERVE_ROWS.json_rows(&self.serve)),
            ("fleet".into(), FLEET_ROWS.json_rows(&self.fleet)),
        ])
    }

    /// Renders the document as pretty-stable JSON (one trailing newline).
    pub fn to_json(&self) -> String {
        self.to_value().to_json() + "\n"
    }

    /// The document's row sections as text tables, in document order.
    pub fn summary(&self) -> String {
        [
            CELL_ROWS.text(&self.cells),
            SAMPLE_ROWS.text(&self.sample),
            SERVE_ROWS.text(&self.serve),
            FLEET_ROWS.text(&self.fleet),
        ]
        .join("\n")
    }
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

/// What [`diff_reports`] compares, one row per metric:
/// `(section, id field, label prefix, metric, higher_is_worse)`. Rows of
/// one section are adjacent, in the order their lines are printed.
#[rustfmt::skip]
const DIFFED: &[(&str, &str, &str, &str, bool)] = &[
    ("cells", "cell", "", "epoch_time", true),
    ("cells", "cell", "", "roofline_utilization", false),
    ("sample", "cell", "", "epoch_time", true),
    ("sample", "cell", "", "cache_hit_rate", false),
    ("serve", "policy", "serve ", "p95", true),
    ("serve", "policy", "serve ", "p99", true),
    ("serve", "policy", "serve ", "slo_attainment", false),
    ("fleet", "routing", "fleet ", "p99", true),
    ("fleet", "routing", "fleet ", "slo_attainment", false),
    ("fleet", "routing", "fleet ", "failover_p99", true),
];

/// Compares the `current` report document against `previous` metric by
/// metric, for every `DIFFED` row. Time-like metrics (epoch time,
/// latency percentiles) regress when they grow past the threshold;
/// attainment regresses when it shrinks past it. Rows present on only one
/// side are skipped — the diff tracks drift, not coverage.
///
/// # Errors
///
/// Names the section or metric when either document lacks a diffed
/// section, or a matched row lacks a diffed metric or holds a non-number
/// there.
pub fn diff_reports(
    previous: &Value,
    current: &Value,
    threshold: f64,
) -> Result<Vec<DiffLine>, String> {
    fn rows<'a>(doc: &'a Value, section: &str) -> Result<&'a [Value], String> {
        (doc.get(section).and_then(Value::as_arr)).ok_or(format!("no `{section}` array"))
    }
    let mut out = Vec::new();
    for metrics in DIFFED.chunk_by(|a, b| a.0 == b.0) {
        let (section, id, prefix, ..) = metrics[0];
        let previous_rows = rows(previous, section)?;
        for cur in rows(current, section)? {
            let name = cur.get(id).and_then(Value::as_str).unwrap_or_default();
            let Some(prev) = previous_rows
                .iter()
                .find(|p| p.get(id).and_then(Value::as_str) == Some(name))
            else {
                continue;
            };
            for &(.., metric, higher_is_worse) in metrics {
                let value = |row: &Value| {
                    (row.get(metric).and_then(Value::as_f64))
                        .ok_or(format!("{section} `{name}`: `{metric}` is not a number"))
                };
                let (previous, current) = (value(prev)?, value(cur)?);
                let regression = if higher_is_worse {
                    current > previous * (1.0 + threshold)
                } else {
                    current < previous * (1.0 - threshold)
                };
                out.push(DiffLine {
                    metric: format!("{prefix}{name} {metric}"),
                    previous,
                    current,
                    regression,
                });
            }
        }
    }
    Ok(out)
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
/// returning its document tree alongside one warning line per candidate
/// skipped. A candidate fails (and falls through to the next) when the
/// file is unreadable, is not JSON, or carries another schema tag — most
/// commonly an older schema version still checked in for history, e.g. a
/// `v2` report from before the `sample` section existed. Falling through
/// instead of erroring lets a report trajectory cross schema bumps without
/// manual baseline surgery.
pub fn resolve_baseline(candidates: &[PathBuf]) -> (Option<(PathBuf, Value)>, Vec<String>) {
    let mut warnings = Vec::new();
    for p in candidates {
        let doc = std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text))
            .and_then(|doc| match doc.get("schema").and_then(Value::as_str) {
                Some(REPORT_SCHEMA) => Ok(doc),
                Some(schema) => Err(format!(
                    "schema mismatch: file is `{schema}`, this build reads `{REPORT_SCHEMA}`"
                )),
                None => Err("missing schema tag".to_owned()),
            });
        match doc {
            Ok(doc) => return (Some((p.clone(), doc)), warnings),
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

    fn diff(previous: &BenchReport, current: &BenchReport) -> Vec<DiffLine> {
        diff_reports(&previous.to_value(), &current.to_value(), 0.05).unwrap()
    }

    #[test]
    fn diff_flags_time_growth_and_attainment_drop() {
        let prev = sample();
        let mut cur = sample();
        cur.cells[0].epoch_time *= 1.20; // +20% over a 5% threshold
        cur.serve[0].slo_attainment = 0.80; // attainment drop
        cur.fleet[0].failover_p99 *= 2.0; // failover latency growth
        let lines = diff(&prev, &cur);
        let regressions: Vec<&DiffLine> = lines.iter().filter(|l| l.regression).collect();
        assert_eq!(regressions.len(), 3, "{}", render_diff(&lines));
        assert!(regressions[0].metric.contains("epoch_time"));
        assert!(regressions[1].metric.contains("slo_attainment"));
        assert!(regressions[2].metric.contains("failover_p99"));
        // Identical reports never regress.
        assert!(diff(&prev, &prev).iter().all(|l| !l.regression));
    }

    #[test]
    fn diff_skips_unmatched_metrics() {
        let prev = sample();
        let mut cur = sample();
        cur.cells[0].cell = "table4/PubMed/GCN/PyG".into();
        let lines = diff(&prev, &cur);
        assert!(lines.iter().all(|l| {
            l.metric.starts_with("sample/")
                || l.metric.starts_with("serve ")
                || l.metric.starts_with("fleet ")
        }));
        cur.sample[0].cell = "sample/rmat-64k-neighbor/SAGE/PyG".into();
        cur.fleet[0].routing = "least-loaded".into();
        let lines = diff(&prev, &cur);
        assert!(lines.iter().all(|l| l.metric.starts_with("serve ")));
    }

    #[test]
    fn diff_flags_sampled_cache_and_time_drift() {
        let prev = sample();
        let mut cur = sample();
        cur.sample[0].epoch_time *= 1.20;
        cur.sample[0].cache_hit_rate = 0.40; // hit-rate collapse
        let lines = diff(&prev, &cur);
        let regressions: Vec<&DiffLine> = lines.iter().filter(|l| l.regression).collect();
        assert_eq!(regressions.len(), 2, "{}", render_diff(&lines));
        assert!(regressions[0].metric.contains("epoch_time"));
        assert!(regressions[1].metric.contains("cache_hit_rate"));
    }

    #[test]
    fn diff_lines_follow_the_document_order() {
        let mut prev = sample();
        prev.cells.push(CellReport {
            cell: "table5/DD/GIN/DGL".into(),
            ..prev.cells[0].clone()
        });
        let labels: Vec<String> = diff(&prev, &prev).into_iter().map(|l| l.metric).collect();
        assert_eq!(
            labels[..5],
            [
                "table4/Cora/GCN/PyG epoch_time",
                "table4/Cora/GCN/PyG roofline_utilization",
                "table5/DD/GIN/DGL epoch_time",
                "table5/DD/GIN/DGL roofline_utilization",
                "sample/rmat-4k-neighbor/SAGE/PyG epoch_time",
            ]
        );
        assert_eq!(labels.len(), 12);
        assert_eq!(labels[6], "serve b4/d1000us p95");
        assert_eq!(labels[11], "fleet consistent-hash failover_p99");
    }

    #[test]
    fn diff_refuses_a_baseline_row_without_its_metric() {
        let current = sample().to_value();
        let text = sample()
            .to_json()
            .replace("\"p99\":0.003", "\"p99\":\"fast\"");
        let err = diff_reports(&json::parse(&text).unwrap(), &current, 0.05).unwrap_err();
        assert_eq!(err, "serve `b4/d1000us`: `p99` is not a number");
        let text = sample()
            .to_json()
            .replace("\"roofline_utilization\"", "\"roofline\"");
        let err = diff_reports(&json::parse(&text).unwrap(), &current, 0.05).unwrap_err();
        assert!(err.contains("`roofline_utilization`"), "{err}");
        let text = sample().to_json().replace("\"fleet\"", "\"fleets\"");
        let err = diff_reports(&json::parse(&text).unwrap(), &current, 0.05).unwrap_err();
        assert_eq!(err, "no `fleet` array");
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
        assert_eq!(report, sample().to_value());
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
    fn check_names_the_cell_row_whose_split_misses_its_total() {
        let mut report = sample();
        assert_eq!(report.check(), Vec::<String>::new());
        report.cells.push(CellReport {
            cell: "table5/DD/GIN/DGL".into(),
            idle_time: 0.006,
            ..report.cells[0].clone()
        });
        let errors = report.check();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].starts_with("cells `table5/DD/GIN/DGL`"),
            "{errors:?}"
        );
    }

    #[test]
    fn tiny_report_is_deterministic() {
        let cfg = tiny_report_config();
        let a = run_report(&cfg).unwrap();
        let b = run_report(&cfg).unwrap();
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
        assert_eq!(a.check(), Vec::<String>::new(), "split must sum to total");
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
