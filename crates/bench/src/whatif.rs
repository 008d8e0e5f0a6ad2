//! The causal what-if profiler behind `gnn-bench whatif`.
//!
//! A coz-style profiler answers "what would speeding component X up by k×
//! do to the *end-to-end* number?" — which is not proportional to X's
//! share of the time, because components overlap (kernels hide behind
//! host work and vice versa) and queues re-equilibrate. This harness runs
//! virtual-speedup experiments over the study's deterministic timeline:
//!
//! - **Training cells**: each configured sweep cell trains once under an
//!   observability collector, capturing the device session's full
//!   schedule ([`gnn_obs::whatif::SchedOp`] stream). For every what-if
//!   component (the 11 priced kernel kinds, the launch overhead, and pure
//!   host work) and every factor in [`SPEEDUP_GRID`], the schedule is
//!   replayed with that component's costs divided by the factor.
//! - **Serve policies**: latency percentiles under a speedup cannot be
//!   scaled naively — faster service drains queues sooner, changing batch
//!   compositions. Each policy's what-if goes through
//!   [`gnn_serve::predict`], which re-simulates the real dispatch loop
//!   with replayed-from-capture service times.
//!
//! Because the cost model applies an overlaid speedup as the same final
//! division the replay performs (`gnn_device::CostModel::with_speedups`),
//! every prediction is **bit-identical** to actually re-running with the
//! overlay — not a model, a replay. [`run_conformance`] and
//! [`run_serve_conformance`] hold the published numbers to that by really
//! re-running cells and policies under overlaid cost models.
//!
//! The resulting [`WhatIfReport`] renders to a schema-versioned,
//! byte-reproducible `whatif.json` ([`WHATIF_SCHEMA`]); speedup factors
//! are encoded as string labels because `inf` is not a JSON number. A
//! ranked opportunity table ([`Opportunity`]) orders components by their
//! predicted end-to-end win at the reference 2× speedup, with each
//! component's roofline bound attributed from the aggregate hardware
//! counters. Before publishing, predictions pass the `gnn-lint` what-if
//! audit ([`audit_whatif`]): never slower than base, monotone in the
//! factor, savings within critical-path budgets.

use gnn_device::{
    component_label, CostModel, Speedups, COMPONENT_HOST, COMPONENT_LAUNCH, PRICED_KINDS,
    WHATIF_COMPONENTS,
};
use gnn_lint::report::Finding;
use gnn_lint::whatif_check::{check_whatif, WhatIfCellAudit};
use gnn_obs::whatif::{component_budgets, replay_schedule, SchedEntry};
use gnn_obs::{self as obs, json, Value};
use gnn_serve::{BatchPolicy, CellId, ServeConfig, ServeReport};

use crate::report::train_cell;

/// Schema tag every what-if document carries; bumped on breaking change.
pub const WHATIF_SCHEMA: &str = "gnn-whatif/v1";

/// The virtual speedup factors every component is tried at. `INFINITY`
/// removes the component entirely — the theoretical ceiling.
pub const SPEEDUP_GRID: [f64; 5] = [1.1, 1.25, 1.5, 2.0, f64::INFINITY];

/// The grid factor opportunities are ranked at: 2× is the conventional
/// "what a focused optimization effort plausibly buys" reference point.
pub const REFERENCE_SPEEDUP: f64 = 2.0;

/// Stable string label of a grid factor (`inf` for `INFINITY`) — the JSON
/// encoding, since infinity is not a valid JSON number.
///
/// # Panics
///
/// Panics on a factor outside [`SPEEDUP_GRID`].
pub fn speedup_label(k: f64) -> &'static str {
    if k == 1.1 {
        "1.1"
    } else if k == 1.25 {
        "1.25"
    } else if k == 1.5 {
        "1.5"
    } else if k == 2.0 {
        "2"
    } else if k == f64::INFINITY {
        "inf"
    } else {
        panic!("speedup {k} is not on the what-if grid")
    }
}

/// Inverse of [`speedup_label`].
pub fn parse_speedup(label: &str) -> Option<f64> {
    SPEEDUP_GRID
        .iter()
        .copied()
        .find(|&k| speedup_label(k) == label)
}

/// Component index of a [`component_label`] string.
pub fn component_from_label(label: &str) -> Option<usize> {
    (0..WHATIF_COMPONENTS).find(|&c| component_label(c) == label)
}

/// What one what-if profiling run covers. Mirrors the report harness's
/// knobs: the same cells, scale, and serve sweep, so predictions line up
/// with the regression observatory's numbers.
#[derive(Debug, Clone)]
pub struct WhatIfConfig {
    /// Cells to profile (the representative six by default; `--all-cells`
    /// covers the full 60-cell sweep).
    pub cells: Vec<CellId>,
    /// Dataset scale factor.
    pub scale: f64,
    /// Training epochs per cell.
    pub epochs: usize,
    /// Generation / workload seed.
    pub seed: u64,
    /// Serve batching policies to what-if.
    pub policies: Vec<BatchPolicy>,
    /// Requests per serve policy simulation.
    pub requests: usize,
    /// Serve arrival rate, requests per simulated second.
    pub rate: f64,
    /// SLO latency target in simulated seconds.
    pub slo_target: f64,
}

impl Default for WhatIfConfig {
    fn default() -> Self {
        WhatIfConfig {
            cells: gnn_serve::default_endpoints(),
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

/// One virtual-speedup experiment's outcome for a training cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellPrediction {
    /// What-if component index (see [`component_label`]).
    pub component: usize,
    /// Virtual speedup factor (a [`SPEEDUP_GRID`] entry).
    pub speedup: f64,
    /// Predicted end-to-end session time in simulated seconds.
    pub predicted_total: f64,
    /// Predicted per-epoch time (`predicted_total / epochs`).
    pub predicted_epoch: f64,
}

/// One cell's what-if profile: base measurement, per-component budgets,
/// and the full grid of predictions.
#[derive(Debug, Clone, PartialEq)]
pub struct CellWhatIf {
    /// Cell path, e.g. `table4/Cora/GCN/PyG`.
    pub cell: String,
    /// Epochs trained (the divisor behind per-epoch numbers).
    pub epochs: usize,
    /// Measured end-to-end session time under the base cost model. This
    /// is the device session horizon — setup included — which is what the
    /// replay predicts exactly; it differs from the report harness's
    /// epoch-sum by the pre-loop setup time.
    pub base_total_time: f64,
    /// `base_total_time / epochs`.
    pub base_epoch_time: f64,
    /// Total recorded base cost per component: the ceiling on any
    /// speedup's achievable saving.
    pub budgets: [f64; WHATIF_COMPONENTS],
    /// Predictions in (component, grid) order: 13 × 5 entries.
    pub predictions: Vec<CellPrediction>,
}

/// Latency/SLO numbers of one (real or predicted) serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeLatency {
    /// Median enqueue-to-reply latency, simulated seconds.
    pub p50: f64,
    /// 95th-percentile latency.
    pub p95: f64,
    /// 99th-percentile latency.
    pub p99: f64,
    /// Fraction of submitted requests answered within the SLO target.
    pub slo_attainment: f64,
    /// Served requests per simulated second.
    pub throughput: f64,
    /// End-to-end simulated makespan of the serve run.
    pub makespan: f64,
}

impl ServeLatency {
    fn of(report: &ServeReport, slo_target: f64) -> Self {
        let (p50, p95, p99) = report.latency_percentiles();
        ServeLatency {
            p50,
            p95,
            p99,
            slo_attainment: report.slo_attainment(slo_target),
            throughput: report.throughput(),
            makespan: report.makespan,
        }
    }
}

/// One virtual-speedup experiment's outcome for a serve policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePrediction {
    /// What-if component index.
    pub component: usize,
    /// Virtual speedup factor.
    pub speedup: f64,
    /// Predicted latency/SLO numbers with queue dynamics re-simulated.
    pub latency: ServeLatency,
}

/// One serve policy's what-if profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeWhatIf {
    /// Policy label, e.g. `b8/d2000us`.
    pub policy: String,
    /// The identity prediction — bit-identical to the real run.
    pub base: ServeLatency,
    /// Predictions in (component, grid) order: 13 × 5 entries.
    pub predictions: Vec<ServePrediction>,
}

/// One ranked optimization opportunity: what optimizing a component is
/// predicted to buy end-to-end, and what physically limits the component.
#[derive(Debug, Clone, PartialEq)]
pub struct Opportunity {
    /// What-if component index.
    pub component: usize,
    /// The reference factor the ranking uses ([`REFERENCE_SPEEDUP`]).
    pub speedup: f64,
    /// Predicted end-to-end seconds saved across all profiled cells at
    /// the reference speedup.
    pub predicted_win: f64,
    /// `predicted_win` as a fraction of total base time.
    pub win_fraction: f64,
    /// Seconds saved at infinite speedup — the theoretical ceiling.
    pub ceiling: f64,
    /// Roofline bound of the component from the aggregate hardware
    /// counters: `compute`, `bandwidth`, or `overhead` for kernel kinds
    /// (per-kernel fixed cost dominating), `host` for the launch and
    /// host-work levers (they are host-side by construction).
    pub bound: String,
}

/// The full what-if document.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfReport {
    /// Schema tag ([`WHATIF_SCHEMA`]).
    pub schema: String,
    /// Config echo: scale, epochs, seed, requests, rate, SLO target.
    pub config: Vec<(String, f64)>,
    /// One entry per profiled cell, in config order.
    pub cells: Vec<CellWhatIf>,
    /// One entry per serve policy, in config order.
    pub serve: Vec<ServeWhatIf>,
    /// Opportunities ranked by `predicted_win`, descending.
    pub opportunities: Vec<Opportunity>,
}

/// Per-kind aggregate counters across all profiled cells, for roofline
/// attribution of the opportunity table.
#[derive(Debug, Clone, Copy, Default)]
struct KindAggregate {
    flops: u64,
    bytes: u64,
    launches: u64,
}

/// Captures one cell: trains it under an observability collector with the
/// base cost model and returns the recorded schedule plus the device
/// report. The capture must not run inside another collector (it installs
/// its own).
fn capture_cell(cell: &CellId, cfg: &WhatIfConfig) -> (Vec<SchedEntry>, gnn_device::DeviceReport) {
    let handle = obs::install(obs::Collector::new());
    let dev = train_cell(cell, cfg.scale, cfg.epochs, cfg.seed).report;
    let trace = obs::finish(handle);
    (trace.schedule, dev)
}

/// Roofline bound of one kernel-kind component from its aggregate
/// counters under `model`.
fn kind_bound(model: &CostModel, component: usize, agg: &KindAggregate) -> &'static str {
    let kind = PRICED_KINDS[component];
    let (flops_eff, bw_eff) = model.efficiency(kind);
    let compute = agg.flops as f64 / (model.peak_flops * flops_eff);
    let traffic = agg.bytes as f64 / (model.peak_bw * bw_eff);
    let overhead = agg.launches as f64 * model.kernel_overhead;
    if overhead >= compute.max(traffic) {
        "overhead"
    } else if compute >= traffic {
        "compute"
    } else {
        "bandwidth"
    }
}

/// Runs the full what-if profile: captures every configured cell once,
/// replays all virtual-speedup experiments, re-simulates every serve
/// policy under every speedup, and ranks the opportunities.
/// Deterministic: every number is simulated or replayed, so the same
/// config yields the same report — byte-for-byte once rendered.
///
/// # Panics
///
/// Panics if a configured cell names an unknown dataset, a serve
/// prediction fails (both indicate a broken config), or a captured
/// schedule fails its identity cross-check against the measured session
/// horizon (which would indicate the capture ran inside another
/// collector, or a session the runner did not report).
pub fn run_whatif(cfg: &WhatIfConfig) -> WhatIfReport {
    let identity = Speedups::identity();
    let mut cells = Vec::with_capacity(cfg.cells.len());
    let mut aggregates = [KindAggregate::default(); PRICED_KINDS.len()];
    for cell in &cfg.cells {
        let (schedule, dev) = capture_cell(cell, cfg);
        // The whole method stands on this: replaying the capture with no
        // speedup must reproduce the measured horizon bit for bit.
        let replay_base = replay_schedule(&schedule, &identity);
        assert_eq!(
            replay_base.total.to_bits(),
            dev.total_time.to_bits(),
            "{}: identity replay diverged from the measured session horizon",
            cell.path()
        );
        for profile in &dev.profile {
            if let Some(i) = PRICED_KINDS.iter().position(|&k| k == profile.kind) {
                aggregates[i].flops += profile.flops;
                aggregates[i].bytes += profile.bytes;
                aggregates[i].launches += profile.launches;
            }
        }
        let epochs = cfg.epochs.max(1);
        let mut predictions = Vec::with_capacity(WHATIF_COMPONENTS * SPEEDUP_GRID.len());
        for component in 0..WHATIF_COMPONENTS {
            for k in SPEEDUP_GRID {
                let replayed = replay_schedule(&schedule, &Speedups::component(component, k));
                predictions.push(CellPrediction {
                    component,
                    speedup: k,
                    predicted_total: replayed.total,
                    predicted_epoch: replayed.total / epochs as f64,
                });
            }
        }
        cells.push(CellWhatIf {
            cell: cell.path(),
            epochs,
            base_total_time: dev.total_time,
            base_epoch_time: dev.total_time / epochs as f64,
            budgets: component_budgets(&schedule),
            predictions,
        });
    }

    let mut serve = Vec::with_capacity(cfg.policies.len());
    for policy in &cfg.policies {
        let scfg = serve_config(cfg, *policy);
        let base_report =
            gnn_serve::predict(&scfg, &identity).expect("serve what-if base run failed");
        let mut predictions = Vec::with_capacity(WHATIF_COMPONENTS * SPEEDUP_GRID.len());
        for component in 0..WHATIF_COMPONENTS {
            for k in SPEEDUP_GRID {
                let report = gnn_serve::predict(&scfg, &Speedups::component(component, k))
                    .expect("serve what-if prediction failed");
                predictions.push(ServePrediction {
                    component,
                    speedup: k,
                    latency: ServeLatency::of(&report, cfg.slo_target),
                });
            }
        }
        serve.push(ServeWhatIf {
            policy: policy.label(),
            base: ServeLatency::of(&base_report, cfg.slo_target),
            predictions,
        });
    }

    let opportunities = rank_opportunities(&cells, &aggregates);
    WhatIfReport {
        schema: WHATIF_SCHEMA.to_owned(),
        config: vec![
            ("scale".to_owned(), cfg.scale),
            ("epochs".to_owned(), cfg.epochs as f64),
            ("seed".to_owned(), cfg.seed as f64),
            ("requests".to_owned(), cfg.requests as f64),
            ("rate".to_owned(), cfg.rate),
            ("slo_target".to_owned(), cfg.slo_target),
        ],
        cells,
        serve,
        opportunities,
    }
}

/// The serve config one policy's what-ifs run under: the profiled cells
/// as endpoints, same seed and scale.
pub fn serve_config(cfg: &WhatIfConfig, policy: BatchPolicy) -> ServeConfig {
    ServeConfig {
        endpoints: cfg.cells.clone(),
        requests: cfg.requests,
        rate: cfg.rate,
        seed: cfg.seed,
        policy,
        scale: cfg.scale,
        ..ServeConfig::default()
    }
}

fn rank_opportunities(cells: &[CellWhatIf], aggregates: &[KindAggregate]) -> Vec<Opportunity> {
    let model = gnn_device::default_cost_model();
    let total_base: f64 = cells.iter().map(|c| c.base_total_time).sum();
    let saving_at = |component: usize, k: f64| -> f64 {
        cells
            .iter()
            .map(|c| {
                let p = c
                    .predictions
                    .iter()
                    .find(|p| p.component == component && p.speedup == k)
                    .expect("prediction grid is complete");
                c.base_total_time - p.predicted_total
            })
            .sum()
    };
    let mut opportunities: Vec<Opportunity> = (0..WHATIF_COMPONENTS)
        .map(|component| {
            let predicted_win = saving_at(component, REFERENCE_SPEEDUP);
            let bound = if component == COMPONENT_LAUNCH || component == COMPONENT_HOST {
                "host".to_owned()
            } else {
                kind_bound(&model, component, &aggregates[component]).to_owned()
            };
            Opportunity {
                component,
                speedup: REFERENCE_SPEEDUP,
                predicted_win,
                win_fraction: if total_base > 0.0 {
                    predicted_win / total_base
                } else {
                    0.0
                },
                ceiling: saving_at(component, f64::INFINITY),
                bound,
            }
        })
        .collect();
    // Descending by win; component index breaks exact ties so the order —
    // and therefore the rendered document — is total and reproducible.
    opportunities.sort_by(|a, b| {
        b.predicted_win
            .partial_cmp(&a.predicted_win)
            .expect("wins are finite")
            .then(a.component.cmp(&b.component))
    });
    opportunities
}

/// Distills a report into the plain-data form the `gnn-lint` what-if
/// audit consumes and runs the audit: predictions must never be slower
/// than base, must be monotone in the factor, and must not claim savings
/// past critical-path budgets. An empty result means the report passed.
pub fn audit_whatif(report: &WhatIfReport) -> Vec<Finding> {
    let cells: Vec<WhatIfCellAudit> = report
        .cells
        .iter()
        .map(|c| WhatIfCellAudit {
            cell: c.cell.clone(),
            base_total: c.base_total_time,
            budgets: c.budgets,
            predictions: c
                .predictions
                .iter()
                .map(|p| (p.component, p.speedup, p.predicted_total))
                .collect(),
        })
        .collect();
    let mut findings = Vec::new();
    check_whatif(&cells, &mut findings);
    findings
}

/// One prediction-vs-reality comparison from a conformance pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceRecord {
    /// Cell path or serve policy label.
    pub subject: String,
    /// What-if component index.
    pub component: usize,
    /// Virtual speedup factor.
    pub speedup: f64,
    /// What the profiler predicted.
    pub predicted: f64,
    /// What a real re-run under the overlaid cost model measured.
    pub actual: f64,
}

impl ConformanceRecord {
    /// Relative error of the prediction (0 when both are 0).
    pub fn relative_error(&self) -> f64 {
        if self.actual == 0.0 {
            self.predicted.abs()
        } else {
            (self.predicted - self.actual).abs() / self.actual.abs()
        }
    }
}

/// Conformance pass over the training cells: for each cell, picks one
/// (component, factor) experiment — rotating through the grid by cell
/// index, so a full 60-cell run samples every component and factor
/// several times over — really re-trains the cell under the overlaid
/// cost model, and records predicted vs measured end-to-end time. The
/// replay is exact, so the two must agree to the bit; the binary gates on
/// [`ConformanceRecord::relative_error`].
pub fn run_conformance(cfg: &WhatIfConfig, report: &WhatIfReport) -> Vec<ConformanceRecord> {
    let mut records = Vec::with_capacity(cfg.cells.len());
    for (i, cell) in cfg.cells.iter().enumerate() {
        let component = i % WHATIF_COMPONENTS;
        let k = SPEEDUP_GRID[(i / WHATIF_COMPONENTS) % SPEEDUP_GRID.len()];
        let profiled = report
            .cells
            .iter()
            .find(|c| c.cell == cell.path())
            .expect("conformance config matches the profiled cells");
        let predicted = profiled
            .predictions
            .iter()
            .find(|p| p.component == component && p.speedup == k)
            .expect("prediction grid is complete")
            .predicted_total;
        let overlaid =
            gnn_device::default_cost_model().with_speedups(&Speedups::component(component, k));
        let dev = gnn_device::with_default_cost_model(overlaid, || {
            train_cell(cell, cfg.scale, cfg.epochs, cfg.seed).report
        });
        records.push(ConformanceRecord {
            subject: cell.path(),
            component,
            speedup: k,
            predicted,
            actual: dev.total_time,
        });
    }
    records
}

/// Conformance pass over the serve policies: for each policy, picks one
/// (component, factor) experiment, really re-serves under the overlaid
/// cost model, and records predicted vs measured p95 latency.
pub fn run_serve_conformance(cfg: &WhatIfConfig, report: &WhatIfReport) -> Vec<ConformanceRecord> {
    let mut records = Vec::with_capacity(cfg.policies.len());
    for (i, policy) in cfg.policies.iter().enumerate() {
        let component = i % WHATIF_COMPONENTS;
        let k = SPEEDUP_GRID[(i + 1) % SPEEDUP_GRID.len()];
        let profiled = report
            .serve
            .iter()
            .find(|s| s.policy == policy.label())
            .expect("conformance config matches the profiled policies");
        let predicted = profiled
            .predictions
            .iter()
            .find(|p| p.component == component && p.speedup == k)
            .expect("prediction grid is complete")
            .latency
            .p95;
        let mut scfg = serve_config(cfg, *policy);
        scfg.cost = scfg.cost.with_speedups(&Speedups::component(component, k));
        let actual = gnn_serve::serve(&scfg).expect("serve conformance re-run failed");
        let (_, p95, _) = actual.latency_percentiles();
        records.push(ConformanceRecord {
            subject: policy.label(),
            component,
            speedup: k,
            predicted,
            actual: p95,
        });
    }
    records
}

fn latency_value(l: &ServeLatency) -> Value {
    Value::Obj(vec![
        ("p50".into(), Value::Num(l.p50)),
        ("p95".into(), Value::Num(l.p95)),
        ("p99".into(), Value::Num(l.p99)),
        ("slo_attainment".into(), Value::Num(l.slo_attainment)),
        ("throughput".into(), Value::Num(l.throughput)),
        ("makespan".into(), Value::Num(l.makespan)),
    ])
}

impl WhatIfReport {
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
                "speedups".into(),
                Value::Arr(
                    SPEEDUP_GRID
                        .iter()
                        .map(|&k| Value::from(speedup_label(k)))
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
                                ("epochs".into(), Value::from(c.epochs)),
                                ("base_total_time".into(), Value::Num(c.base_total_time)),
                                ("base_epoch_time".into(), Value::Num(c.base_epoch_time)),
                                (
                                    "budgets".into(),
                                    Value::Obj(
                                        c.budgets
                                            .iter()
                                            .enumerate()
                                            .map(|(i, &b)| {
                                                (component_label(i).to_owned(), Value::Num(b))
                                            })
                                            .collect(),
                                    ),
                                ),
                                (
                                    "predictions".into(),
                                    Value::Arr(
                                        c.predictions
                                            .iter()
                                            .map(|p| {
                                                Value::Obj(vec![
                                                    (
                                                        "component".into(),
                                                        Value::from(component_label(p.component)),
                                                    ),
                                                    (
                                                        "speedup".into(),
                                                        Value::from(speedup_label(p.speedup)),
                                                    ),
                                                    (
                                                        "predicted_total".into(),
                                                        Value::Num(p.predicted_total),
                                                    ),
                                                    (
                                                        "predicted_epoch".into(),
                                                        Value::Num(p.predicted_epoch),
                                                    ),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
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
                                ("base".into(), latency_value(&s.base)),
                                (
                                    "predictions".into(),
                                    Value::Arr(
                                        s.predictions
                                            .iter()
                                            .map(|p| {
                                                Value::Obj(vec![
                                                    (
                                                        "component".into(),
                                                        Value::from(component_label(p.component)),
                                                    ),
                                                    (
                                                        "speedup".into(),
                                                        Value::from(speedup_label(p.speedup)),
                                                    ),
                                                    ("latency".into(), latency_value(&p.latency)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "opportunities".into(),
                Value::Arr(
                    self.opportunities
                        .iter()
                        .map(|o| {
                            Value::Obj(vec![
                                (
                                    "component".into(),
                                    Value::from(component_label(o.component)),
                                ),
                                ("speedup".into(), Value::from(speedup_label(o.speedup))),
                                ("predicted_win".into(), Value::Num(o.predicted_win)),
                                ("win_fraction".into(), Value::Num(o.win_fraction)),
                                ("ceiling".into(), Value::Num(o.ceiling)),
                                ("bound".into(), Value::from(o.bound.as_str())),
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

    /// Human-readable opportunity table plus per-policy base latencies.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<12} {:>8} {:>12} {:>8} {:>12} {:>10}",
            "component", "speedup", "win ms", "win %", "ceiling ms", "bound"
        );
        for o in &self.opportunities {
            let _ = writeln!(
                s,
                "{:<12} {:>7}x {:>12.4} {:>7.2}% {:>12.4} {:>10}",
                component_label(o.component),
                speedup_label(o.speedup),
                o.predicted_win * 1e3,
                o.win_fraction * 100.0,
                o.ceiling * 1e3,
                o.bound,
            );
        }
        for sv in &self.serve {
            let _ = writeln!(
                s,
                "serve {:<12} p50 {:>8.3} ms  p95 {:>8.3} ms  p99 {:>8.3} ms  SLO {:>5.1}%",
                sv.policy,
                sv.base.p50 * 1e3,
                sv.base.p95 * 1e3,
                sv.base.p99 * 1e3,
                sv.base.slo_attainment * 100.0,
            );
        }
        s
    }
}

fn parse_latency(v: &Value) -> Result<ServeLatency, String> {
    let num = |key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(|x| x.as_f64())
            .ok_or_else(|| format!("missing numeric field `{key}`"))
    };
    Ok(ServeLatency {
        p50: num("p50")?,
        p95: num("p95")?,
        p99: num("p99")?,
        slo_attainment: num("slo_attainment")?,
        throughput: num("throughput")?,
        makespan: num("makespan")?,
    })
}

/// Parses a what-if document, validating the schema tag.
///
/// # Errors
///
/// Returns a diagnostic on malformed JSON, a wrong schema tag, unknown
/// component or speedup labels, or missing fields.
pub fn parse_whatif_report(text: &str) -> Result<WhatIfReport, String> {
    let doc = json::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(|s| s.as_str())
        .ok_or("missing schema tag")?;
    if schema != WHATIF_SCHEMA {
        return Err(format!(
            "schema mismatch: file is `{schema}`, this build reads `{WHATIF_SCHEMA}`"
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
    let component_of = |obj: &Value| -> Result<usize, String> {
        let label = text_field(obj, "component")?;
        component_from_label(&label).ok_or_else(|| format!("unknown component `{label}`"))
    };
    let speedup_of = |obj: &Value| -> Result<f64, String> {
        let label = text_field(obj, "speedup")?;
        parse_speedup(&label).ok_or_else(|| format!("unknown speedup `{label}`"))
    };
    let cells = doc
        .get("cells")
        .and_then(|c| c.as_arr())
        .ok_or("missing cells array")?
        .iter()
        .map(|c| {
            let mut budgets = [0.0; WHATIF_COMPONENTS];
            let budget_obj = c
                .get("budgets")
                .and_then(|b| b.as_obj())
                .ok_or("missing budgets object")?;
            for (label, v) in budget_obj {
                let i = component_from_label(label)
                    .ok_or_else(|| format!("unknown budget component `{label}`"))?;
                budgets[i] = v
                    .as_f64()
                    .ok_or_else(|| format!("budget `{label}` is not a number"))?;
            }
            let predictions = c
                .get("predictions")
                .and_then(|p| p.as_arr())
                .ok_or("missing predictions array")?
                .iter()
                .map(|p| {
                    Ok(CellPrediction {
                        component: component_of(p)?,
                        speedup: speedup_of(p)?,
                        predicted_total: num(p, "predicted_total")?,
                        predicted_epoch: num(p, "predicted_epoch")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(CellWhatIf {
                cell: text_field(c, "cell")?,
                epochs: num(c, "epochs")? as usize,
                base_total_time: num(c, "base_total_time")?,
                base_epoch_time: num(c, "base_epoch_time")?,
                budgets,
                predictions,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let serve = doc
        .get("serve")
        .and_then(|s| s.as_arr())
        .ok_or("missing serve array")?
        .iter()
        .map(|s| {
            let predictions = s
                .get("predictions")
                .and_then(|p| p.as_arr())
                .ok_or("missing predictions array")?
                .iter()
                .map(|p| {
                    Ok(ServePrediction {
                        component: component_of(p)?,
                        speedup: speedup_of(p)?,
                        latency: parse_latency(p.get("latency").ok_or("missing latency")?)?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(ServeWhatIf {
                policy: text_field(s, "policy")?,
                base: parse_latency(s.get("base").ok_or("missing base latency")?)?,
                predictions,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let opportunities = doc
        .get("opportunities")
        .and_then(|o| o.as_arr())
        .ok_or("missing opportunities array")?
        .iter()
        .map(|o| {
            Ok(Opportunity {
                component: component_of(o)?,
                speedup: speedup_of(o)?,
                predicted_win: num(o, "predicted_win")?,
                win_fraction: num(o, "win_fraction")?,
                ceiling: num(o, "ceiling")?,
                bound: text_field(o, "bound")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(WhatIfReport {
        schema: schema.to_owned(),
        config,
        cells,
        serve,
        opportunities,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One tiny cell, one epoch, one policy: enough structure to exercise
    /// every code path while keeping the test fast.
    fn tiny_cfg() -> WhatIfConfig {
        WhatIfConfig {
            cells: vec![CellId::parse("table4/Cora/GCN/PyG").unwrap()],
            scale: 0.03,
            epochs: 1,
            seed: 0,
            policies: vec![BatchPolicy {
                max_batch: 4,
                max_delay: 0.001,
            }],
            requests: 20,
            rate: 1500.0,
            slo_target: 0.005,
        }
    }

    #[test]
    fn whatif_report_is_complete_consistent_and_deterministic() {
        let cfg = tiny_cfg();
        let report = run_whatif(&cfg);
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.serve.len(), 1);
        assert_eq!(
            report.cells[0].predictions.len(),
            WHATIF_COMPONENTS * SPEEDUP_GRID.len()
        );
        assert_eq!(
            report.serve[0].predictions.len(),
            WHATIF_COMPONENTS * SPEEDUP_GRID.len()
        );
        assert_eq!(report.opportunities.len(), WHATIF_COMPONENTS);
        // Ranked descending, and the top opportunity carries a bound.
        for pair in report.opportunities.windows(2) {
            assert!(pair[0].predicted_win >= pair[1].predicted_win);
        }
        let top = &report.opportunities[0];
        assert!(
            top.predicted_win > 0.0,
            "something must be worth speeding up"
        );
        assert!(["compute", "bandwidth", "overhead", "host"].contains(&top.bound.as_str()));
        for o in &report.opportunities {
            assert!(
                o.ceiling >= o.predicted_win - 1e-15,
                "infinite speedup cannot win less than 2x"
            );
        }
        // Physics audit comes back clean.
        assert!(audit_whatif(&report).is_empty());
        // Deterministic to the byte.
        let again = run_whatif(&cfg);
        assert_eq!(report.to_json(), again.to_json());
    }

    #[test]
    fn whatif_json_round_trips() {
        let report = run_whatif(&tiny_cfg());
        let text = report.to_json();
        let parsed = parse_whatif_report(&text).unwrap();
        assert_eq!(parsed, report);
        assert_eq!(parsed.to_json(), text);
        assert!(parse_whatif_report("{}").is_err());
        assert!(parse_whatif_report(&text.replace(WHATIF_SCHEMA, "gnn-whatif/v0")).is_err());
    }

    #[test]
    fn sweep_conformance_is_exact_on_a_real_retrain() {
        let cfg = tiny_cfg();
        let report = run_whatif(&cfg);
        // The rotating sample plus a hand-picked set covering a kernel
        // kind, the launch lever, and the host lever at finite and
        // infinite factors.
        for record in run_conformance(&cfg, &report) {
            assert_eq!(
                record.predicted.to_bits(),
                record.actual.to_bits(),
                "{} component {} at {}x",
                record.subject,
                record.component,
                record.speedup
            );
        }
        let profiled = &report.cells[0];
        for (component, k) in [
            (0usize, 2.0),
            (8, 1.1),
            (COMPONENT_LAUNCH, f64::INFINITY),
            (COMPONENT_HOST, 1.5),
        ] {
            let predicted = profiled
                .predictions
                .iter()
                .find(|p| p.component == component && p.speedup == k)
                .unwrap()
                .predicted_total;
            let overlaid =
                gnn_device::default_cost_model().with_speedups(&Speedups::component(component, k));
            let dev = gnn_device::with_default_cost_model(overlaid, || {
                train_cell(&cfg.cells[0], cfg.scale, cfg.epochs, cfg.seed).report
            });
            assert_eq!(
                predicted.to_bits(),
                dev.total_time.to_bits(),
                "component {component} at {k}x"
            );
        }
    }

    #[test]
    fn serve_conformance_is_exact_on_a_real_reserve() {
        let cfg = tiny_cfg();
        let report = run_whatif(&cfg);
        for record in run_serve_conformance(&cfg, &report) {
            assert_eq!(
                record.predicted.to_bits(),
                record.actual.to_bits(),
                "policy {} component {} at {}x",
                record.subject,
                record.component,
                record.speedup
            );
        }
    }

    #[test]
    fn labels_round_trip() {
        for k in SPEEDUP_GRID {
            assert_eq!(parse_speedup(speedup_label(k)), Some(k));
        }
        assert_eq!(parse_speedup("3"), None);
        for c in 0..WHATIF_COMPONENTS {
            assert_eq!(component_from_label(component_label(c)), Some(c));
        }
        assert_eq!(component_from_label("flux-capacitor"), None);
    }
}
