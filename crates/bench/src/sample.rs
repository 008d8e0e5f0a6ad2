//! The `gnn-bench sample` sweep: giant-graph sampled training over
//! fan-out and cache policies, exported as `sample_metrics.csv`.
//!
//! Each sweep point is one (spec, fanouts, cache_rows) variant trained
//! under both sampler kinds and both frameworks with the fault-tolerant
//! supervised runner, so an armed `--faults` plan exercises the same
//! OOM/retry/poison machinery the main sweep does. The RMAT graph is
//! generated once per spec and shared read-only by every variant and
//! cell — the million-node headline spec pays generation exactly once.
//!
//! Every number is simulated and every sampler draw is seeded, so a rerun
//! with the same flags reproduces the CSV byte-for-byte; CI enforces this
//! with `cmp`.

use std::path::PathBuf;
use std::rc::Rc;

use gnn_obs::{Column, Table};
use gnn_sample::{RmatGraph, SampleSpec, SamplerKind};
use gnn_train::cell::{train, CellData, CellId};
use gnn_train::{Supervisor, TrainError};

/// Schema tag stamped into `sample_metrics.csv` as a leading `# schema:`
/// comment. Bump on any column change so consumers fail loudly instead of
/// misreading shifted fields.
pub const SAMPLE_METRICS_SCHEMA: &str = "gnn-sample-metrics/v1";

/// `sample_metrics.csv`: one line per [`SampleRunRow`]. Fixed-precision
/// times and rates keep equal runs byte-identical.
pub const SAMPLE_METRICS: Table<SampleRunRow> = Table {
    schema: Some(SAMPLE_METRICS_SCHEMA),
    columns: &[
        Column::new("spec", |r| r.spec.as_str().into()),
        Column::new("fanouts", |r| r.fanouts.as_str().into()),
        Column::new("cache_rows", |r| r.cache_rows.into()),
        Column::new("sampler", |r| r.sampler.into()),
        Column::new("framework", |r| r.framework.into()),
        Column::new("batch_seeds", |r| r.batch_seeds.into()),
        Column::new("epochs", |r| r.epochs.into()),
        Column::fixed("epoch_time", 6, |r| r.epoch_time.into()),
        Column::fixed("total_time", 6, |r| r.total_time.into()),
        Column::fixed("kernel_time", 6, |r| r.kernel_time.into()),
        Column::fixed("transfer_time", 6, |r| r.transfer_time.into()),
        Column::fixed("cache_hit_rate", 4, |r| r.cache_hit_rate.into()),
        Column::fixed("test_acc", 2, |r| r.test_acc.into()),
        Column::new("peak_memory", |r| r.peak_memory.into()),
        Column::new("retries", |r| r.retries.into()),
        Column::new("degraded", |r| r.degraded.into()),
    ],
};

/// What every `sample_metrics.csv` must hold, one line per row that
/// breaks it (none when it holds): each row's epoch time and peak memory
/// are positive and its hit rate and accuracy in range, and on otherwise
/// identical cells a larger cache never hits less than a smaller one
/// whose size divides it — the cache is direct-mapped on `node % rows`,
/// so on one fetch sequence every hit of the smaller cache is a hit of
/// the larger one.
pub fn check(rows: &[SampleRunRow]) -> Vec<String> {
    let name = |r: &SampleRunRow| {
        format!(
            "{} {} cache {} {} {}",
            r.spec, r.fanouts, r.cache_rows, r.sampler, r.framework
        )
    };
    let mut errors = Vec::new();
    for r in rows {
        if !(r.epoch_time > 0.0
            && (0.0..=1.0).contains(&r.cache_hit_rate)
            && (0.0..=100.0).contains(&r.test_acc)
            && r.peak_memory > 0)
        {
            errors.push(format!(
                "row `{}`: epoch_time {}, cache_hit_rate {}, test_acc {} or peak_memory {} \
                 out of range",
                name(r),
                r.epoch_time,
                r.cache_hit_rate,
                r.test_acc,
                r.peak_memory
            ));
        }
    }
    let same_cell = |a: &SampleRunRow, b: &SampleRunRow| {
        (&a.spec, &a.fanouts, a.sampler, a.framework)
            == (&b.spec, &b.fanouts, b.sampler, b.framework)
    };
    for big in rows {
        for small in rows.iter().filter(|s| same_cell(s, big)) {
            let divides = small.cache_rows > 0
                && small.cache_rows < big.cache_rows
                && big.cache_rows % small.cache_rows == 0;
            if divides && big.cache_hit_rate < small.cache_hit_rate {
                errors.push(format!(
                    "row `{}`: hit rate {} is below the {}-row cache's {}",
                    name(big),
                    big.cache_hit_rate,
                    small.cache_rows,
                    small.cache_hit_rate
                ));
            }
        }
    }
    errors
}

/// What one `sample` run sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleConfig {
    /// Catalog specs (default: the million-node `rmat-1m`).
    pub specs: Vec<SampleSpec>,
    /// Fan-out schedule overrides; empty = each spec's own schedule.
    pub fanouts: Vec<Vec<usize>>,
    /// Feature-cache size overrides in rows; empty = each spec's own.
    pub cache_rows: Vec<usize>,
    /// Training epochs per cell.
    pub epochs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Destination of `sample_metrics.csv`.
    pub out: PathBuf,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            specs: vec![SampleSpec::get("rmat-1m").expect("rmat-1m is cataloged")],
            fanouts: Vec::new(),
            cache_rows: Vec::new(),
            epochs: 2,
            seed: 0,
            out: PathBuf::from("sample_metrics.csv"),
        }
    }
}

/// One sweep variant: a catalog spec with its fan-out schedule and/or
/// feature-cache size overridden.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleVariant {
    /// The spec with overrides applied (`name` stays the catalog name).
    pub spec: SampleSpec,
}

impl SampleVariant {
    /// `AxB` rendering of the variant's fan-out schedule (CSV-safe).
    pub fn fanout_label(&self) -> String {
        self.spec
            .fanouts
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("x")
    }
}

/// Expands `specs` × `fanouts` × `cache_rows` into the sweep's variants.
/// Empty override lists mean "the spec's own value", so the default run
/// still sweeps something: the catalog point plus each single-axis
/// override.
pub fn expand_variants(
    specs: &[SampleSpec],
    fanouts: &[Vec<usize>],
    cache_rows: &[usize],
) -> Vec<SampleVariant> {
    let mut variants = Vec::new();
    for spec in specs {
        let fanout_axis: Vec<Vec<usize>> = if fanouts.is_empty() {
            vec![spec.fanouts.clone()]
        } else {
            fanouts.to_vec()
        };
        let cache_axis: Vec<usize> = if cache_rows.is_empty() {
            vec![spec.cache_rows]
        } else {
            cache_rows.to_vec()
        };
        for fo in &fanout_axis {
            for &cr in &cache_axis {
                let mut s = spec.clone();
                s.fanouts = fo.clone();
                s.cache_rows = cr;
                variants.push(SampleVariant { spec: s });
            }
        }
    }
    variants
}

/// One finished cell of the sample sweep: a row of [`SAMPLE_METRICS`].
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRunRow {
    /// Catalog spec name.
    pub spec: String,
    /// Fan-out schedule, `AxB` form.
    pub fanouts: String,
    /// Feature-cache rows of the variant.
    pub cache_rows: usize,
    /// Sampler kind label.
    pub sampler: &'static str,
    /// Framework label.
    pub framework: &'static str,
    /// Seed nodes per mini-batch.
    pub batch_seeds: usize,
    /// Epochs trained.
    pub epochs: usize,
    /// Mean simulated seconds per epoch.
    pub epoch_time: f64,
    /// Total simulated seconds.
    pub total_time: f64,
    /// Simulated kernel-execution seconds.
    pub kernel_time: f64,
    /// Simulated PCIe/NVLink transfer seconds (the sampled gather tax).
    pub transfer_time: f64,
    /// Lifetime feature-cache hit rate in [0, 1].
    pub cache_hit_rate: f64,
    /// Test accuracy (%) at the best validation epoch.
    pub test_acc: f64,
    /// Allocator high-water mark in bytes.
    pub peak_memory: u64,
    /// Fault retries the supervisor absorbed.
    pub retries: usize,
    /// Whether the supervisor degraded (halved the seed batch).
    pub degraded: bool,
}

/// Trains `cell` — one of the variant's sampler × framework cells, run 0 as
/// the sweep would train it — with the fault-tolerant supervised runner and
/// distills it into a CSV row.
///
/// # Errors
///
/// Propagates [`TrainError`] when the supervisor gives up (exhausted
/// retries, unsurvivable ceiling).
pub fn run_sample_variant_cell(
    variant: &SampleVariant,
    graph: &Rc<RmatGraph>,
    kind: SamplerKind,
    cell: &CellId,
    epochs: usize,
    seed: u64,
) -> Result<SampleRunRow, TrainError> {
    let spec = &variant.spec;
    gnn_faults::set_cell(&cell.path());
    // The variant's spec, not the catalog's: its fan-outs and cache size
    // are the sweep's axes.
    let data = CellData::Sample(graph.clone(), spec.clone(), kind);
    let run = train(cell, &data, epochs, seed, 0, &Supervisor::default())?;
    Ok(SampleRunRow {
        spec: spec.name.to_owned(),
        fanouts: variant.fanout_label(),
        cache_rows: spec.cache_rows,
        sampler: kind.label(),
        framework: cell.framework.label(),
        batch_seeds: spec.batch_seeds,
        epochs: run.outcome.epochs,
        epoch_time: run.outcome.epoch_time,
        total_time: run.outcome.total_time,
        kernel_time: run.outcome.report.kernel_exec_time(),
        transfer_time: run.outcome.report.transfer_time(),
        cache_hit_rate: run.outcome.cache_hit_rate,
        test_acc: run.outcome.test_acc,
        peak_memory: run.outcome.report.peak_memory,
        retries: run.retries,
        degraded: run.degraded,
    })
}

/// Runs the whole sample sweep: every variant × sampler kind × framework,
/// generating each catalog spec's RMAT graph exactly once. Cells that die
/// (the supervisor gave up) and rows that break [`check`] are reported as
/// errors alongside the rows that finished.
pub fn run_sample_sweep(
    variants: &[SampleVariant],
    epochs: usize,
    seed: u64,
) -> (Vec<SampleRunRow>, Vec<String>) {
    let mut rows = Vec::new();
    let mut errors = Vec::new();
    let mut graphs: Vec<(gnn_sample::RmatConfig, Rc<RmatGraph>)> = Vec::new();
    for variant in variants {
        let graph = match graphs.iter().find(|(cfg, _)| *cfg == variant.spec.rmat) {
            Some((_, g)) => g.clone(),
            None => match RmatGraph::generate(variant.spec.rmat) {
                Ok(g) => {
                    let g = Rc::new(g);
                    graphs.push((variant.spec.rmat, g.clone()));
                    g
                }
                Err(e) => {
                    errors.push(format!("{}: {e}", variant.spec.name));
                    continue;
                }
            },
        };
        for (kind, cell) in CellId::sample_grid(variant.spec.name) {
            match run_sample_variant_cell(variant, &graph, kind, &cell, epochs, seed) {
                Ok(row) => rows.push(row),
                Err(e) => errors.push(format!(
                    "{cell} (fanouts {}, cache {}): {e}",
                    variant.fanout_label(),
                    variant.spec.cache_rows,
                )),
            }
        }
    }
    errors.extend(check(&rows));
    (rows, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_variant() -> SampleVariant {
        SampleVariant {
            spec: SampleSpec::get("rmat-4k").unwrap(),
        }
    }

    #[test]
    fn variant_expansion_covers_both_axes() {
        let specs = [SampleSpec::get("rmat-4k").unwrap()];
        let base = expand_variants(&specs, &[], &[]);
        assert_eq!(base.len(), 1);
        assert_eq!(base[0].spec, specs[0]);
        let grid = expand_variants(&specs, &[vec![4, 2], vec![2, 2]], &[512, 64]);
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[0].fanout_label(), "4x2");
        assert_eq!(grid[3].fanout_label(), "2x2");
        assert_eq!(grid[3].spec.cache_rows, 64);
        assert_eq!(grid[3].spec.name, "rmat-4k");
    }

    #[test]
    fn sweep_rows_are_deterministic_and_schema_clean() {
        let variants = [tiny_variant()];
        let (rows, errors) = run_sample_sweep(&variants, 2, 11);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(rows.len(), 4, "2 kinds x 2 frameworks");
        for row in &rows {
            assert!(row.epoch_time > 0.0);
            assert!(row.transfer_time > 0.0, "sampled gather tax must show");
            assert!((0.0..=1.0).contains(&row.cache_hit_rate));
            assert!((0.0..=100.0).contains(&row.test_acc));
            assert!(row.peak_memory > 0);
        }
        let (again, _) = run_sample_sweep(&variants, 2, 11);
        assert_eq!(rows, again, "same flags, same rows");

        let text = SAMPLE_METRICS.csv(&rows);
        assert!(text.starts_with(&SAMPLE_METRICS.header()));
        assert_eq!(text.lines().count(), 2 + rows.len());
        for line in text.lines().skip(2) {
            assert_eq!(
                line.split(',').count(),
                SAMPLE_METRICS.columns.len(),
                "{line}"
            );
        }
    }

    fn fixed_row() -> SampleRunRow {
        SampleRunRow {
            spec: "rmat-4k".into(),
            fanouts: "4x2".into(),
            cache_rows: 512,
            sampler: "neighbor",
            framework: "PyG",
            batch_seeds: 64,
            epochs: 2,
            epoch_time: 0.1,
            total_time: 1.0 / 3.0,
            kernel_time: 0.0,
            transfer_time: 2e-7,
            cache_hit_rate: 0.65,
            test_acc: 12.5,
            peak_memory: 1 << 20,
            retries: 0,
            degraded: false,
        }
    }

    #[test]
    fn schema_check_rejects_drift() {
        // The tag and the header come from the one column list, and each
        // row prints its times, rate and accuracy at fixed precision.
        let text = SAMPLE_METRICS.csv(&[fixed_row()]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], format!("# schema: {SAMPLE_METRICS_SCHEMA}"));
        assert_eq!(
            lines[2],
            "rmat-4k,4x2,512,neighbor,PyG,64,2,0.100000,0.333333,0.000000,0.000000,0.6500,\
             12.50,1048576,0,false"
        );
    }

    #[test]
    fn check_names_the_row_out_of_range() {
        let mut rows = vec![fixed_row(), fixed_row()];
        rows[1].fanouts = "2x2".into();
        assert_eq!(check(&rows), Vec::<String>::new());
        rows[1].cache_hit_rate = 1.5;
        let errors = check(&rows);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].starts_with("row `rmat-4k 2x2 cache 512"),
            "{errors:?}"
        );
    }

    #[test]
    fn check_names_the_larger_cache_that_hits_less() {
        let mut rows = vec![fixed_row(), fixed_row(), fixed_row()];
        rows[1].cache_rows = 2048;
        rows[1].cache_hit_rate = 0.7;
        // 768 rows is larger than 512 but not a multiple: no claim.
        rows[2].cache_rows = 768;
        rows[2].cache_hit_rate = 0.1;
        assert_eq!(check(&rows), Vec::<String>::new());
        rows[1].cache_hit_rate = 0.6;
        let errors = check(&rows);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].starts_with("row `rmat-4k 4x2 cache 2048"),
            "{errors:?}"
        );
    }

    #[test]
    fn failed_generation_is_reported_not_panicked() {
        let mut v = tiny_variant();
        v.spec.rmat.scale = 0;
        let (rows, errors) = run_sample_sweep(&[v], 1, 3);
        assert!(rows.is_empty());
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("rmat-4k"), "{errors:?}");
    }
}
