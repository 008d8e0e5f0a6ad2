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
//! counters. Before publishing, [`WhatIfReport::check`] holds every
//! prediction to its physics: never slower than base, monotone in the
//! factor, savings within critical-path budgets.

use gnn_device::{
    component_label, kind_index, CostModel, Speedups, COMPONENT_HOST, COMPONENT_LAUNCH,
    PRICED_KINDS, WHATIF_COMPONENTS,
};
use gnn_obs::whatif::{component_budgets, replay_schedule, SchedEntry};
use gnn_obs::{self as obs, Column, Table, Value};
use gnn_serve::{BatchPolicy, CellId, ServeConfig, ServeReport};

use crate::report::{default_policies, train_cell};

/// Schema tag every what-if document carries; bumped on breaking change.
pub const WHATIF_SCHEMA: &str = "gnn-whatif/v1";

/// The virtual speedup factors every component is tried at. `INFINITY`
/// removes the component entirely — the theoretical ceiling.
pub const SPEEDUP_GRID: [f64; 5] = [1.1, 1.25, 1.5, 2.0, f64::INFINITY];

/// The grid factor opportunities are ranked at: 2× is the conventional
/// "what a focused optimization effort plausibly buys" reference point.
pub const REFERENCE_SPEEDUP: f64 = 2.0;

/// Stable string label of each [`SPEEDUP_GRID`] factor, in grid order —
/// the JSON encoding, since infinity is not a valid JSON number.
const SPEEDUP_LABELS: [&str; 5] = ["1.1", "1.25", "1.5", "2", "inf"];

/// The label of grid factor `k`: its `SPEEDUP_LABELS` entry.
///
/// # Panics
///
/// Panics on a factor outside [`SPEEDUP_GRID`].
pub fn speedup_label(k: f64) -> &'static str {
    match SPEEDUP_GRID.iter().position(|&g| g == k) {
        Some(i) => SPEEDUP_LABELS[i],
        None => panic!("speedup {k} is not on the what-if grid"),
    }
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
            policies: default_policies(),
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

/// The full what-if document, tagged [`WHATIF_SCHEMA`] when rendered.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfReport {
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
/// # Errors
///
/// The lines of [`WhatIfReport::check`] when the predictions break their
/// own physics.
///
/// # Panics
///
/// Panics if a configured cell names an unknown dataset, a serve
/// prediction fails (both indicate a broken config), or a captured
/// schedule fails its identity cross-check against the measured session
/// horizon (which would indicate the capture ran inside another
/// collector, or a session the runner did not report).
pub fn run_whatif(cfg: &WhatIfConfig) -> Result<WhatIfReport, Vec<String>> {
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
            let agg = &mut aggregates[kind_index(profile.kind)];
            agg.flops += profile.flops;
            agg.bytes += profile.bytes;
            agg.launches += profile.launches;
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
    let report = WhatIfReport {
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
    };
    let errors = report.check();
    if errors.is_empty() {
        Ok(report)
    } else {
        Err(errors)
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
/// replay is exact, so the two must agree to the bit; the `whatif` command gates on
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

/// The `cells` rows of the what-if document.
pub const CELL_ROWS: Table<CellWhatIf> = Table {
    schema: None,
    columns: &[
        Column::new("cell", |c| c.cell.as_str().into()),
        Column::new("epochs", |c| c.epochs.into()),
        Column::new("base_total_time", |c| c.base_total_time.into()),
        Column::new("base_epoch_time", |c| c.base_epoch_time.into()),
        Column::new("budgets", |c| {
            let budgets = c.budgets.iter().enumerate();
            Value::Obj(
                budgets
                    .map(|(i, &b)| (component_label(i).into(), b.into()))
                    .collect(),
            )
        }),
        Column::new("predictions", |c| {
            CELL_PREDICTION_ROWS.json_rows(&c.predictions)
        }),
    ],
};

/// The `predictions` rows of one what-if cell.
pub const CELL_PREDICTION_ROWS: Table<CellPrediction> = Table {
    schema: None,
    columns: &[
        Column::new("component", |p| component_label(p.component).into()),
        Column::new("speedup", |p| speedup_label(p.speedup).into()),
        Column::new("predicted_total", |p| p.predicted_total.into()),
        Column::new("predicted_epoch", |p| p.predicted_epoch.into()),
    ],
};

/// The `serve` rows of the what-if document.
pub const SERVE_ROWS: Table<ServeWhatIf> = Table {
    schema: None,
    columns: &[
        Column::new("policy", |s| s.policy.as_str().into()),
        Column::new("base", |s| LATENCY.json_row(&s.base)),
        Column::new("predictions", |s| {
            SERVE_PREDICTION_ROWS.json_rows(&s.predictions)
        }),
    ],
};

/// The `predictions` rows of one what-if serve policy.
pub const SERVE_PREDICTION_ROWS: Table<ServePrediction> = Table {
    schema: None,
    columns: &[
        Column::new("component", |p| component_label(p.component).into()),
        Column::new("speedup", |p| speedup_label(p.speedup).into()),
        Column::new("latency", |p| LATENCY.json_row(&p.latency)),
    ],
};

/// A serve run's latency numbers: each serve row's `base`, and each of
/// its predictions' `latency`.
pub const LATENCY: Table<ServeLatency> = Table {
    schema: None,
    columns: &[
        Column::new("p50", |l| l.p50.into()),
        Column::new("p95", |l| l.p95.into()),
        Column::new("p99", |l| l.p99.into()),
        Column::new("slo_attainment", |l| l.slo_attainment.into()),
        Column::new("throughput", |l| l.throughput.into()),
        Column::new("makespan", |l| l.makespan.into()),
    ],
};

/// The `opportunities` rows of the what-if document.
pub const OPPORTUNITY_ROWS: Table<Opportunity> = Table {
    schema: None,
    columns: &[
        Column::new("component", |o| component_label(o.component).into()),
        Column::new("speedup", |o| speedup_label(o.speedup).into()),
        Column::new("predicted_win", |o| o.predicted_win.into()),
        Column::new("win_fraction", |o| o.win_fraction.into()),
        Column::new("ceiling", |o| o.ceiling.into()),
        Column::new("bound", |o| o.bound.as_str().into()),
    ],
};

impl WhatIfReport {
    /// What every what-if document must hold, one line per row that
    /// breaks it (none when it holds). For each `cells` row:
    ///
    /// - no prediction is slower than the base total: speeding a
    ///   component up can never slow the run down;
    /// - a component's predictions are monotone non-increasing in the
    ///   speedup factor;
    /// - no prediction saves more than the component's budget: even
    ///   removing it only recovers what was spent on it;
    /// - the budgets cover the base total (host and device overlap, so
    ///   together they may over-cover it, never under).
    ///
    /// The replay is bit-exact, so the first three allow only float noise
    /// (`1e-9` of the base total plus `1e-15` s). Last, each opportunity's
    /// ceiling (infinite speedup) wins at least its predicted win (the
    /// reference speedup).
    pub fn check(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for c in &self.cells {
            let base = c.base_total_time;
            let eps = 1e-9 * base.abs() + 1e-15;
            let mut last: [Option<&CellPrediction>; WHATIF_COMPONENTS] = [None; WHATIF_COMPONENTS];
            for p in &c.predictions {
                let at = format!(
                    "cells `{}`: {} at {}x",
                    c.cell,
                    component_label(p.component),
                    speedup_label(p.speedup)
                );
                let predicted = p.predicted_total;
                if predicted > base + eps {
                    errors.push(format!(
                        "{at} predicts {predicted} s, slower than base_total_time {base} s"
                    ));
                }
                if let Some(prev) =
                    last[p.component].filter(|q| predicted > q.predicted_total + eps)
                {
                    errors.push(format!(
                        "{at} predicts {predicted} s, more than {}x's {} s: not monotone in the \
                         speedup",
                        speedup_label(prev.speedup),
                        prev.predicted_total
                    ));
                }
                let (saving, budget) = (base - predicted, c.budgets[p.component]);
                if saving > budget + eps {
                    errors.push(format!(
                        "{at} saves {saving} s, more than the component's budget {budget} s"
                    ));
                }
                last[p.component] = Some(p);
            }
            let covered: f64 = c.budgets.iter().sum();
            if covered < base * (1.0 - 1e-9) {
                errors.push(format!(
                    "cells `{}`: budgets sum to {covered} s, less than base_total_time {base} s",
                    c.cell
                ));
            }
        }
        for o in &self.opportunities {
            if o.ceiling < o.predicted_win - 1e-12 {
                errors.push(format!(
                    "opportunities `{}`: ceiling {} s is below predicted_win {} s",
                    component_label(o.component),
                    o.ceiling,
                    o.predicted_win
                ));
            }
        }
        errors
    }

    /// The document as a JSON tree (deterministic key order).
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("schema".into(), Value::from(WHATIF_SCHEMA)),
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
                Value::Arr(SPEEDUP_LABELS.map(Value::from).to_vec()),
            ),
            ("cells".into(), CELL_ROWS.json_rows(&self.cells)),
            ("serve".into(), SERVE_ROWS.json_rows(&self.serve)),
            (
                "opportunities".into(),
                OPPORTUNITY_ROWS.json_rows(&self.opportunities),
            ),
        ])
    }

    /// Renders the document as pretty-stable JSON (one trailing newline).
    pub fn to_json(&self) -> String {
        self.to_value().to_json() + "\n"
    }

    /// The ranked opportunities, then the serve policies' base latencies
    /// (one [`LATENCY`] row per policy, in the order the caption names
    /// them), as text tables.
    pub fn summary(&self) -> String {
        let policies: Vec<&str> = self.serve.iter().map(|s| s.policy.as_str()).collect();
        format!(
            "{}\nserve base latency, one row per policy ({}):\n{}",
            OPPORTUNITY_ROWS.text(&self.opportunities),
            policies.join(", "),
            LATENCY.text(self.serve.iter().map(|s| &s.base)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_obs::json;

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

    /// The tiny config's report, built once and shared by the tests that
    /// only read it (or a clone of it).
    fn tiny_report() -> &'static WhatIfReport {
        static REPORT: std::sync::OnceLock<WhatIfReport> = std::sync::OnceLock::new();
        REPORT.get_or_init(|| run_whatif(&tiny_cfg()).unwrap())
    }

    #[test]
    fn whatif_report_is_complete_consistent_and_deterministic() {
        let report = tiny_report();
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
        // Deterministic to the byte.
        let again = run_whatif(&tiny_cfg()).unwrap();
        assert_eq!(report.to_json(), again.to_json());
    }

    #[test]
    fn check_names_the_cell_whose_budgets_miss_its_base_total() {
        let mut report = tiny_report().clone();
        assert_eq!(report.check(), Vec::<String>::new());
        report.cells[0].budgets = [0.0; WHATIF_COMPONENTS];
        let errors = report.check();
        assert!(
            errors
                .iter()
                .any(|e| e.starts_with("cells `table4/Cora/GCN/PyG`: budgets")),
            "{errors:?}"
        );
    }

    #[test]
    fn check_names_the_opportunity_whose_ceiling_is_below_its_win() {
        let mut report = tiny_report().clone();
        let top = &mut report.opportunities[0];
        top.ceiling = top.predicted_win / 2.0;
        let label = component_label(top.component);
        let errors = report.check();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].starts_with(&format!("opportunities `{label}`")),
            "{errors:?}"
        );
    }

    /// The tiny report's cell, and the index of the first (1.1x)
    /// prediction of the component with the most to win.
    fn top_component(report: &mut WhatIfReport) -> (&mut CellWhatIf, usize) {
        let component = report.opportunities[0].component;
        let cell = &mut report.cells[0];
        let first = (cell.predictions.iter())
            .position(|p| p.component == component)
            .unwrap();
        (cell, first)
    }

    #[test]
    fn check_names_the_prediction_slower_than_base() {
        let mut report = tiny_report().clone();
        let (cell, first) = top_component(&mut report);
        cell.predictions[first].predicted_total = cell.base_total_time * 1.2;
        let label = component_label(cell.predictions[first].component);
        let errors = report.check();
        assert_eq!(errors.len(), 1, "{errors:?}");
        let at = format!("cells `table4/Cora/GCN/PyG`: {label} at 1.1x predicts");
        assert!(errors[0].starts_with(&at), "{errors:?}");
        assert!(
            errors[0].contains("slower than base_total_time"),
            "{errors:?}"
        );
    }

    #[test]
    fn check_names_the_prediction_not_monotone_in_the_speedup() {
        let mut report = tiny_report().clone();
        let (cell, first) = top_component(&mut report);
        // 1.25x predicting more time than 1.1x did, still below base.
        let slower = (cell.predictions[first].predicted_total + cell.base_total_time) / 2.0;
        cell.predictions[first + 1].predicted_total = slower;
        let errors = report.check();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains(" at 1.25x predicts"), "{errors:?}");
        assert!(errors[0].contains("more than 1.1x's"), "{errors:?}");
        assert!(
            errors[0].ends_with("not monotone in the speedup"),
            "{errors:?}"
        );
    }

    #[test]
    fn check_names_the_saving_beyond_its_budget() {
        let mut report = tiny_report().clone();
        let (cell, first) = top_component(&mut report);
        // Removing the component claims to save 1e-6 of base more than it
        // ever cost.
        let inf = first + SPEEDUP_GRID.len() - 1;
        let budget = cell.budgets[cell.predictions[inf].component];
        cell.predictions[inf].predicted_total = cell.base_total_time * (1.0 - 1e-6) - budget;
        let errors = report.check();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains(" at infx saves"), "{errors:?}");
        assert!(
            errors[0].contains("more than the component's budget"),
            "{errors:?}"
        );
    }

    #[test]
    fn check_tolerates_float_noise() {
        let mut report = tiny_report().clone();
        let (cell, first) = top_component(&mut report);
        // A 1e-10 relative wobble above base is replay noise, not physics.
        cell.predictions[first].predicted_total = cell.base_total_time * (1.0 + 1e-10);
        assert_eq!(report.check(), Vec::<String>::new());
    }

    #[test]
    fn whatif_json_round_trips() {
        let report = tiny_report();
        let text = report.to_json();
        assert_eq!(json::parse(&text).unwrap(), report.to_value());
        assert!(text.starts_with(&format!("{{\"schema\":\"{WHATIF_SCHEMA}\"")));
    }

    /// Cross-commit pin of the whole document: FNV-1a over its bytes.
    /// A deliberate format change re-captures it (the failure prints the
    /// new value).
    #[test]
    fn whatif_json_bytes_are_pinned() {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in tiny_report().to_json().bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(format!("{hash:#018x}"), "0x649b32d9915fbd51");
    }

    #[test]
    fn sweep_conformance_is_exact_on_a_real_retrain() {
        let cfg = tiny_cfg();
        let report = tiny_report();
        // The rotating sample plus a hand-picked set covering a kernel
        // kind, the launch lever, and the host lever at finite and
        // infinite factors.
        for record in run_conformance(&cfg, report) {
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
        for record in run_serve_conformance(&cfg, tiny_report()) {
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
        // Every grid factor and every component has a label of its own, so
        // a label in the document names exactly one.
        let speedups: std::collections::BTreeSet<_> = SPEEDUP_GRID.map(speedup_label).into();
        assert_eq!(speedups.len(), SPEEDUP_GRID.len());
        let components: std::collections::BTreeSet<_> =
            (0..WHATIF_COMPONENTS).map(component_label).collect();
        assert_eq!(components.len(), WHATIF_COMPONENTS);
    }
}
