//! The regression observatory: runs the canonical performance report and
//! diffs it against the previous checked-in baseline.
//!
//! Trains the six representative sweep cells at a fixed small scale plus
//! the default sampled cells (RMAT neighbor/layer-wise under both
//! frameworks), sweeps the serve batching policies over the same
//! endpoints (sampled ones included), sweeps the fleet routing policies
//! under the canonical fleet chaos plan, and
//! writes a schema-versioned `BENCH_<n>.json` (default `BENCH_10.json`)
//! whose every number is simulated — a rerun with the same flags
//! reproduces the file byte-for-byte, which CI enforces with `cmp`. When
//! a baseline exists (`--baseline <path>`, the highest-numbered other
//! `BENCH_*.json` next to the output, or the output itself before it is
//! overwritten; unreadable candidates — e.g. an older schema version —
//! fall through to the next), the two documents are diffed metric by
//! metric and the process exits nonzero on any regression past
//! `--threshold` (default 5%). `report --help` lists every flag.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gnn_bench::report::{diff_reports, render_diff, resolve_baseline, run_report};

/// The highest-numbered `BENCH_<n>.json` in `dir` other than `out` —
/// the natural baseline for a report trajectory.
fn discover_baseline(out: &Path) -> Option<PathBuf> {
    // A bare `BENCH_10.json` has an empty parent: scan the current dir.
    let dir = out
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()? {
        let Ok(entry) = entry else { continue };
        let path = entry.path();
        if path.file_name() == out.file_name() {
            continue;
        }
        let n = path
            .file_name()
            .and_then(|s| s.to_str())
            .and_then(|name| name.strip_prefix("BENCH_")?.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok());
        let Some(n) = n else { continue };
        if best.as_ref().is_none_or(|(b, _)| n > *b) {
            best = Some((n, path));
        }
    }
    best.map(|(_, p)| p)
}

fn main() -> ExitCode {
    let args = gnn_bench::args(env!("CARGO_BIN_NAME"));
    let cfg = args.report_config();
    let out = args.out.clone().unwrap_or_else(|| "BENCH_10.json".into());
    let threshold = args.threshold.unwrap_or(0.05);
    let mut run = gnn_bench::Run::new(None, None);

    println!(
        "Performance report: {} cell(s), {} serve policy(ies), scale {}, {} epoch(s), seed {}\n",
        cfg.cells.len(),
        cfg.policies.len(),
        cfg.scale,
        cfg.epochs,
        cfg.seed,
    );

    // The previous document must be read before the new one overwrites it
    // in place (the usual CI flow regenerates BENCH_10.json on top of the
    // checked-in baseline). Candidates that fail to read or parse —
    // typically an older schema version (a `v2` report without the
    // sampled rows) still checked in for history — fall through to the
    // next one.
    let candidates: Vec<PathBuf> = (args.baseline.clone().into_iter())
        .chain(discover_baseline(&out))
        .chain(out.exists().then(|| out.clone()))
        .collect();
    let (baseline, warnings) = resolve_baseline(&candidates);
    for w in &warnings {
        eprintln!("warning: {w}");
    }

    let report = run_report(&cfg);
    print!("{}", report.summary());
    println!();
    run.write("report", out, &report.to_json());

    if args.no_diff {
        return run.finish();
    }
    let Some((path, previous)) = baseline else {
        println!("no baseline found — skipping diff");
        return run.finish();
    };
    println!(
        "diff vs {} (threshold {:.1}%):",
        path.display(),
        threshold * 100.0
    );
    let lines = diff_reports(&previous, &report, threshold);
    print!("{}", render_diff(&lines));
    match lines.iter().filter(|l| l.regression).count() {
        0 => println!("no regressions"),
        n => run.error(format!("{n} metric(s) regressed past the threshold")),
    }
    run.finish()
}
