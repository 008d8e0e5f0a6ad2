//! Run-scale configuration.

use std::fmt;
use std::path::{Path, PathBuf};

use gnn_faults::FaultPlan;

/// A typed error for an unusable artifact destination (`--trace`,
/// `--ckpt`, `--out`): names the offending path and why it cannot be used.
///
/// Before this existed, a bad artifact path surfaced only when the first
/// write happened — after minutes of training, and for some paths as a
/// panic. The `gnn-bench` commands now validate destinations at flag-parse time
/// and report this error instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactPathError {
    /// The offending path, as given on the command line.
    pub path: PathBuf,
    /// Why the path cannot be used.
    pub reason: String,
}

impl fmt::Display for ArtifactPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "artifact path `{}` is unusable: {}",
            self.path.display(),
            self.reason
        )
    }
}

impl std::error::Error for ArtifactPathError {}

impl ArtifactPathError {
    fn new(path: &Path, reason: impl Into<String>) -> Self {
        ArtifactPathError {
            path: path.to_path_buf(),
            reason: reason.into(),
        }
    }
}

/// Validates that `dir` can serve as an artifact directory *without
/// creating anything*: no existing ancestor may be a non-directory, and
/// the nearest existing ancestor must be writable (checked with a probe
/// file that is removed again). Suitable for flag-parse time, so a doomed
/// `--trace`/`--ckpt` destination fails before any training runs.
///
/// # Errors
///
/// Returns an [`ArtifactPathError`] naming `dir` and the blocking
/// condition.
pub fn validate_artifact_dir(dir: &Path) -> Result<(), ArtifactPathError> {
    if dir.as_os_str().is_empty() {
        return Err(ArtifactPathError::new(dir, "empty path"));
    }
    // The nearest existing ancestor decides: everything below it will be
    // created with `create_dir_all`, which only needs that ancestor to be
    // a writable directory.
    let mut existing: Option<&Path> = None;
    for ancestor in dir.ancestors() {
        if ancestor.as_os_str().is_empty() {
            continue;
        }
        if ancestor.exists() {
            existing = Some(ancestor);
            break;
        }
    }
    // A fully relative path may have no existing ancestor; the current
    // directory is then the creation root.
    let root = existing.unwrap_or(Path::new("."));
    if !root.is_dir() {
        return Err(ArtifactPathError::new(
            dir,
            format!("`{}` exists but is not a directory", root.display()),
        ));
    }
    let probe = root.join(format!(".gnn-artifact-probe-{}", std::process::id()));
    match std::fs::write(&probe, b"probe") {
        Ok(()) => {
            let _ = std::fs::remove_file(&probe);
            Ok(())
        }
        Err(e) => Err(ArtifactPathError::new(
            dir,
            format!("`{}` is not writable: {e}", root.display()),
        )),
    }
}

/// Validates that `path` can serve as an artifact *file* destination: it
/// must not be an existing directory, and its parent must pass
/// [`validate_artifact_dir`]. Creates nothing.
///
/// # Errors
///
/// Returns an [`ArtifactPathError`] naming `path` and the blocking
/// condition.
pub fn validate_artifact_path(path: &Path) -> Result<(), ArtifactPathError> {
    if path.is_dir() {
        return Err(ArtifactPathError::new(
            path,
            "is a directory, expected a file path",
        ));
    }
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    validate_artifact_dir(parent).map_err(|e| ArtifactPathError::new(path, e.reason))
}

/// Trace-emission settings for a run (see the `gnn-obs` crate).
///
/// Disabled by default. When a directory is set, commands that honor the
/// config install a `gnn_obs::Collector` around the experiment and write
/// `trace.json` (Chrome trace-event format, loadable in Perfetto or
/// `chrome://tracing`) and `metrics.jsonl` (one record per training epoch)
/// into it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Output directory for `trace.json` + `metrics.jsonl`; `None`
    /// disables tracing entirely (the instrumented code paths are no-ops).
    pub dir: Option<PathBuf>,
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub fn off() -> Self {
        TraceConfig { dir: None }
    }

    /// Tracing enabled, artifacts written under `dir`.
    pub fn to(dir: impl Into<PathBuf>) -> Self {
        TraceConfig {
            dir: Some(dir.into()),
        }
    }

    /// Whether tracing is enabled.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The output directory, if tracing is enabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }
}

/// Controls the scale of an experiment run.
///
/// All presets keep the full experiment *structure* — every model, both
/// frameworks, every dataset the experiment uses — and only trade dataset
/// size, epoch counts, seeds, and folds.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Dataset subsampling factor in `(0, 1]`.
    pub scale: f64,
    /// Seeds per (dataset, model, framework) cell of Table IV.
    pub seeds: usize,
    /// Max epochs for node-classification runs (paper: 200).
    pub node_epochs: usize,
    /// Epoch cap for graph-classification runs (paper: until lr floor).
    pub graph_epochs: usize,
    /// Cross-validation folds actually trained (paper: 10).
    pub folds: usize,
    /// Mini-batch sizes for the breakdown/resource sweeps (paper: 64/128/256).
    pub batch_sizes: [usize; 3],
    /// Base RNG seed.
    pub seed: u64,
    /// Trace emission (off in every preset; see [`TraceConfig`]).
    pub trace: TraceConfig,
    /// Run the `gnn-lint` static analyzer over the configured sweep before
    /// executing anything, and abort on findings (off in every preset; the
    /// `gnn-bench` commands enable it via `--lint`).
    pub lint_first: bool,
    /// Deterministic fault-injection plan armed around the run (`None` in
    /// every preset; the `gnn-bench` commands set it via `--faults <plan>`).
    pub faults: Option<FaultPlan>,
    /// Directory for per-cell training checkpoints (`None` disables
    /// checkpointing; set via `--ckpt <dir>`, or implied by `--resume`).
    pub ckpt_dir: Option<PathBuf>,
    /// Resume cells from checkpoints found in `ckpt_dir` (the `--resume`
    /// flag): a killed sweep continues where it stopped, bit-identically.
    pub resume: bool,
    /// Sampled-training specs (`gnn_sample::SampleSpec` names) appended to
    /// the sweep as `sample/…` cells. Empty in every preset: the classic
    /// 60-cell grid is unchanged unless a caller opts in (the
    /// `gnn-bench sample` command, or [`RunConfig::with_samples`]).
    pub sample_specs: Vec<String>,
    /// Epochs per sampled-training cell (each epoch is one pass over the
    /// seed pool in mini-batches, so this is deliberately small).
    pub sample_epochs: usize,
}

impl RunConfig {
    /// Paper-scale protocol: full datasets, 200 node epochs, lr-floor
    /// stopping with a generous cap, 4 seeds, 10 folds.
    pub fn paper() -> Self {
        RunConfig {
            scale: 1.0,
            seeds: 4,
            node_epochs: 200,
            graph_epochs: 1000,
            folds: 10,
            batch_sizes: [64, 128, 256],
            seed: 0,
            trace: TraceConfig::off(),
            lint_first: false,
            faults: None,
            ckpt_dir: None,
            resume: false,
            sample_specs: Vec::new(),
            sample_epochs: 4,
        }
    }

    /// Laptop-scale default: ~15% datasets, short training, 2 seeds/folds.
    /// Timing *shapes* (who wins, by what factor) are preserved; absolute
    /// accuracies are lower because training is truncated.
    pub fn quick() -> Self {
        RunConfig {
            scale: 0.15,
            seeds: 2,
            node_epochs: 40,
            graph_epochs: 6,
            folds: 2,
            batch_sizes: [64, 128, 256],
            seed: 0,
            trace: TraceConfig::off(),
            lint_first: false,
            faults: None,
            ckpt_dir: None,
            resume: false,
            sample_specs: Vec::new(),
            sample_epochs: 3,
        }
    }

    /// Minimal smoke-test scale for CI and unit tests.
    pub fn smoke() -> Self {
        RunConfig {
            scale: 0.05,
            seeds: 1,
            node_epochs: 3,
            graph_epochs: 2,
            folds: 1,
            batch_sizes: [8, 16, 32],
            seed: 0,
            trace: TraceConfig::off(),
            lint_first: false,
            faults: None,
            ckpt_dir: None,
            resume: false,
            sample_specs: Vec::new(),
            sample_epochs: 2,
        }
    }

    /// Replaces the dataset scale.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale <= 1`.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale {scale} out of (0, 1]");
        self.scale = scale;
        self
    }

    /// Replaces the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables trace emission into `dir`.
    pub fn with_trace(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace = TraceConfig::to(dir);
        self
    }

    /// Enables the ahead-of-run static analysis gate (`gnn-lint`).
    pub fn with_lint(mut self) -> Self {
        self.lint_first = true;
        self
    }

    /// Arms a fault-injection plan around the run.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enables per-cell checkpointing into `dir`.
    pub fn with_ckpt_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.ckpt_dir = Some(dir.into());
        self
    }

    /// Enables resume-from-checkpoint (requires a checkpoint directory).
    pub fn with_resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Appends sampled-training cells for the named
    /// `gnn_sample::SampleSpec`s to the sweep.
    pub fn with_samples<I, S>(mut self, specs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.sample_specs = specs.into_iter().map(Into::into).collect();
        self
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_scale() {
        assert!(RunConfig::smoke().scale < RunConfig::quick().scale);
        assert!(RunConfig::quick().scale < RunConfig::paper().scale);
        assert_eq!(RunConfig::paper().node_epochs, 200);
        assert_eq!(RunConfig::paper().folds, 10);
        assert_eq!(RunConfig::paper().batch_sizes, [64, 128, 256]);
    }

    #[test]
    fn builders_apply() {
        let c = RunConfig::quick().with_scale(0.5).with_seed(9);
        assert_eq!(c.scale, 0.5);
        assert_eq!(c.seed, 9);
    }

    #[test]
    #[should_panic(expected = "out of (0, 1]")]
    fn bad_scale_panics() {
        RunConfig::quick().with_scale(2.0);
    }

    #[test]
    fn lint_is_off_in_every_preset_and_settable() {
        assert!(!RunConfig::paper().lint_first);
        assert!(!RunConfig::quick().lint_first);
        assert!(!RunConfig::smoke().lint_first);
        assert!(RunConfig::smoke().with_lint().lint_first);
    }

    #[test]
    fn faults_and_resume_are_off_in_every_preset() {
        for cfg in [RunConfig::paper(), RunConfig::quick(), RunConfig::smoke()] {
            assert!(cfg.faults.is_none());
            assert!(cfg.ckpt_dir.is_none());
            assert!(!cfg.resume);
        }
        let c = RunConfig::smoke()
            .with_faults(FaultPlan::canonical())
            .with_ckpt_dir("out/ckpt")
            .with_resume();
        assert_eq!(c.faults, Some(FaultPlan::canonical()));
        assert_eq!(c.ckpt_dir.as_deref(), Some(Path::new("out/ckpt")));
        assert!(c.resume);
    }

    #[test]
    fn artifact_paths_under_a_file_are_typed_errors() {
        let dir = std::env::temp_dir().join(format!("gnn_core_artifact_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("plain.txt");
        std::fs::write(&file, "x").unwrap();

        // A directory nested under a plain file can never be created.
        let blocked = file.join("sub/deeper");
        let err = validate_artifact_dir(&blocked).unwrap_err();
        assert_eq!(err.path, blocked);
        assert!(err.reason.contains("not a directory"), "{err}");
        assert!(err.to_string().contains(&blocked.display().to_string()));

        // Missing-but-creatable parents are fine (and nothing is created).
        let fresh = dir.join("a/b/c");
        assert!(validate_artifact_dir(&fresh).is_ok());
        assert!(!fresh.exists(), "validation must not create directories");

        // A file destination must not name an existing directory, and
        // inherits its parent's validation.
        assert!(validate_artifact_path(&dir).is_err());
        assert!(validate_artifact_path(&file.join("x.json")).is_err());
        assert!(validate_artifact_path(&dir.join("out/report.json")).is_ok());

        assert!(validate_artifact_dir(Path::new("")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_is_off_by_default_and_settable() {
        assert!(!RunConfig::quick().trace.enabled());
        assert!(!RunConfig::paper().trace.enabled());
        let c = RunConfig::smoke().with_trace("out/traces");
        assert!(c.trace.enabled());
        assert_eq!(c.trace.dir(), Some(std::path::Path::new("out/traces")));
    }
}
