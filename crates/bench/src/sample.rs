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

use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use gnn_sample::{RmatGraph, SampleSpec, SamplerKind};
use gnn_train::cell::{train, CellData, CellId};
use gnn_train::{Supervisor, TrainError};

/// Schema tag stamped into `sample_metrics.csv` as a leading `# schema:`
/// comment. Bump on any column change so consumers fail loudly instead of
/// misreading shifted fields.
pub const SAMPLE_METRICS_SCHEMA: &str = "gnn-sample-metrics/v1";

/// Column header of `sample_metrics.csv`.
pub const SAMPLE_CSV_HEADER: &str = "spec,fanouts,cache_rows,sampler,framework,batch_seeds,\
     epochs,epoch_time,total_time,kernel_time,transfer_time,cache_hit_rate,test_acc,\
     peak_memory,retries,degraded";

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

/// One finished cell of the sample sweep: a CSV row of `sample_metrics.csv`.
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

impl SampleRunRow {
    /// The row as a CSV line (no trailing newline). Fixed-precision float
    /// formatting keeps equal runs byte-identical.
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.4},{:.2},{},{},{}",
            self.spec,
            self.fanouts,
            self.cache_rows,
            self.sampler,
            self.framework,
            self.batch_seeds,
            self.epochs,
            self.epoch_time,
            self.total_time,
            self.kernel_time,
            self.transfer_time,
            self.cache_hit_rate,
            self.test_acc,
            self.peak_memory,
            self.retries,
            self.degraded,
        )
    }
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
/// (the supervisor gave up) are reported as errors alongside the rows
/// that finished.
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
    (rows, errors)
}

/// Validates a `sample_metrics.csv` text: the `# schema:` stamp followed
/// by [`SAMPLE_CSV_HEADER`], with every data row carrying the header's
/// column count.
///
/// # Errors
///
/// Human-readable message naming the first malformed line.
pub fn check_sample_metrics_schema(text: &str) -> Result<(), String> {
    let expected = format!("# schema: {SAMPLE_METRICS_SCHEMA}");
    let mut lines = text.lines();
    match lines.next() {
        Some(first) if first == expected => {}
        Some(first) => return Err(format!("schema mismatch: `{first}` (want `{expected}`)")),
        None => return Err("empty file".into()),
    }
    let cols = SAMPLE_CSV_HEADER.split(',').count();
    match lines.next() {
        Some(h) if h == SAMPLE_CSV_HEADER => {}
        Some(h) => return Err(format!("header mismatch: `{h}`")),
        None => return Err("missing header".into()),
    }
    for (i, line) in lines.enumerate() {
        let n = line.split(',').count();
        if n != cols {
            return Err(format!(
                "row {} has {n} column(s), want {cols}: `{line}`",
                i + 1
            ));
        }
    }
    Ok(())
}

/// Writes `sample_metrics.csv` to `path` (parent directories created),
/// self-checking the written text against the schema first.
///
/// # Errors
///
/// I/O errors from directory creation or the write.
pub fn write_sample_metrics(path: &Path, rows: &[SampleRunRow]) -> io::Result<PathBuf> {
    if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut csv = format!("# schema: {SAMPLE_METRICS_SCHEMA}\n{SAMPLE_CSV_HEADER}\n");
    for row in rows {
        csv.push_str(&row.to_csv());
        csv.push('\n');
    }
    check_sample_metrics_schema(&csv).expect("writer stamped a malformed schema header");
    std::fs::write(path, csv)?;
    Ok(path.to_path_buf())
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

        let dir = std::env::temp_dir().join(format!("gnn_sample_csv_{}", std::process::id()));
        let path = dir.join("sample_metrics.csv");
        write_sample_metrics(&path, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        check_sample_metrics_schema(&text).unwrap();
        assert_eq!(text.lines().count(), 2 + rows.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_check_rejects_drift() {
        assert!(check_sample_metrics_schema("").is_err());
        assert!(check_sample_metrics_schema("# schema: gnn-sample-metrics/v0\n").is_err());
        let good = format!("# schema: {SAMPLE_METRICS_SCHEMA}\n{SAMPLE_CSV_HEADER}\n");
        check_sample_metrics_schema(&good).unwrap();
        let bad_row = format!("{good}a,b,c\n");
        let err = check_sample_metrics_schema(&bad_row).unwrap_err();
        assert!(err.contains("row 1"), "{err}");
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
