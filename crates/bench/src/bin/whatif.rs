//! The causal what-if profiler: virtual-speedup experiments over the
//! recorded device timeline, with ranked optimization opportunities.
//!
//! Trains the configured cells once under an observability collector,
//! replays every (component, speedup) experiment over the captured
//! schedule, re-simulates every serve policy under every speedup through
//! the discrete-event engine, and writes a schema-versioned, byte-
//! reproducible `whatif.json` plus a ranked opportunity table on stdout.
//! The predictions pass the `gnn-lint` what-if audit before anything is
//! published, and `--conformance` really re-runs sampled experiments
//! under overlaid cost models and refuses to pass unless predictions
//! match measurements exactly.
//!
//! Writes `out/whatif/whatif.json` unless `--out` says otherwise;
//! `whatif --help` lists every flag.

use std::process::ExitCode;

use gnn_bench::whatif::{
    audit_whatif, run_conformance, run_serve_conformance, run_whatif, ConformanceRecord,
};
use gnn_device::component_label;

/// Prints a conformance table and returns how many records missed.
fn gate_conformance(title: &str, records: &[ConformanceRecord]) -> usize {
    println!("{title}:");
    let mut misses = 0;
    for r in records {
        let err = r.relative_error();
        // The replay is exact; anything past float-noise scale is a miss
        // (the acceptance bar is 1%, the engine holds itself to 1e-9).
        let ok = err <= 1e-9;
        if !ok {
            misses += 1;
        }
        println!(
            "  {} {:<28} {:<12} {:>5}x predicted {:.9e} actual {:.9e} (rel err {:.2e})",
            if ok { "ok  " } else { "MISS" },
            r.subject,
            component_label(r.component),
            r.speedup,
            r.predicted,
            r.actual,
            err,
        );
    }
    misses
}

fn main() -> ExitCode {
    let args = gnn_bench::args(env!("CARGO_BIN_NAME"));
    let cfg = args.whatif_config();
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| "out/whatif/whatif.json".into());
    let mut run = gnn_bench::Run::new(None, None);

    println!(
        "Causal what-if profile: {} cell(s), {} serve policy(ies), scale {}, {} epoch(s), seed {}\n",
        cfg.cells.len(),
        cfg.policies.len(),
        cfg.scale,
        cfg.epochs,
        cfg.seed,
    );

    let report = run_whatif(&cfg);

    let findings = audit_whatif(&report);
    if !findings.is_empty() {
        for f in &findings {
            eprintln!("{f}");
        }
        run.error(format!(
            "{} what-if prediction(s) violate their own physics; refusing to publish",
            findings.len()
        ));
        return run.finish();
    }

    print!("{}", report.summary());
    println!();
    run.write("whatif", out, &report.to_json());

    if !args.conformance {
        return run.finish();
    }
    println!();
    let misses = gate_conformance(
        "conformance (cells: predicted vs re-trained total time)",
        &run_conformance(&cfg, &report),
    ) + gate_conformance(
        "conformance (serve: predicted vs re-served p95)",
        &run_serve_conformance(&cfg, &report),
    );
    if misses > 0 {
        run.error(format!(
            "{misses} conformance record(s) diverged from reality"
        ));
    } else {
        println!("conformance: every prediction matched its re-run");
    }
    run.finish()
}
