//! Giant-graph sampled training: sweeps fan-out schedules and feature-cache
//! sizes over seeded RMAT graphs, in both frameworks under both sampler
//! kinds.
//!
//! Each catalog spec (`--specs`, default the million-node `rmat-1m`) is
//! generated once; every (fanouts, cache_rows) variant then trains a
//! GraphSAGE cell per sampler kind per framework with the fault-tolerant
//! supervised runner — `--faults canonical` exercises the same OOM
//! split/retry/poison machinery as the main sweep. Results land in a
//! schema-stamped `sample_metrics.csv` (`--out`); a rerun with the same
//! flags reproduces the file byte-for-byte, which CI enforces with `cmp`.
//!
//! `--lint` audits every variant first (the `sample-config` pass plus IR
//! lowering, tape audit, and closed-form memory certification at the
//! fan-out union bounds) and refuses to run on any finding.
//!
//! Exits nonzero on lint findings, dead cells, or a malformed CSV.

use std::process::ExitCode;

use gnn_bench::sample::{expand_variants, run_sample_sweep, write_sample_metrics, SampleVariant};
use gnn_lint::{audit_tape, certify_sample_cell, check_sample_spec, lower_stack, StackPlan};
use gnn_models::config::{ModelKind, ALL_FRAMEWORKS};
use gnn_sample::SamplerKind;

/// Audits every variant: all `sample-config` defects at once, the SAGE
/// lowering's shape/tape findings, and the closed-form memory certificates
/// against both device capacities. Returns the lint report.
fn lint_variants(variants: &[SampleVariant]) -> gnn_lint::LintReport {
    let mut report = gnn_lint::LintReport::default();
    for variant in variants {
        let spec = &variant.spec;
        check_sample_spec(spec, &mut report.findings);
        report.datasets_checked += 1;
        let clean = spec.validate().is_ok();
        for kind in SamplerKind::all() {
            for fw in ALL_FRAMEWORKS {
                let plan = StackPlan::node(
                    ModelKind::Sage,
                    fw,
                    spec.rmat.feature_dim,
                    spec.rmat.num_classes,
                );
                let path = format!(
                    "sample/{}-{}/{}/{}",
                    spec.name,
                    kind.label(),
                    ModelKind::Sage.label(),
                    fw.label()
                );
                let g = lower_stack(&plan, &path);
                report.findings.extend(g.findings.iter().cloned());
                audit_tape(&g, &mut report.findings);
                report.ops_checked += g.nodes.len();
                report.cells_checked += 1;
                // Certify only specs whose parameters make sense — the
                // union bounds of a broken fan-out schedule are garbage.
                if clean {
                    let cert = certify_sample_cell(fw, spec, kind);
                    gnn_lint::memory::check_device_fit(&cert, &mut report.findings);
                }
            }
        }
    }
    report
}

fn main() -> ExitCode {
    let args = gnn_bench::args(env!("CARGO_BIN_NAME"));
    let cfg = args.sample_config();
    let variants = expand_variants(&cfg.specs, &cfg.fanouts, &cfg.cache_rows);
    let mut run = gnn_bench::Run::new(None, args.faults.as_ref());
    if args.lint {
        run.gate(lint_variants(&variants));
    }

    println!(
        "Sampled training: {} spec(s), {} variant(s), {} epoch(s), seed {}, faults {}\n",
        cfg.specs.len(),
        variants.len(),
        cfg.epochs,
        cfg.seed,
        if args.faults.is_some() {
            "armed"
        } else {
            "off"
        },
    );
    let (rows, errors) = run.exec(|| run_sample_sweep(&variants, cfg.epochs, cfg.seed));

    println!(
        "{:<9} {:>7} {:>7} {:>10} {:>5} {:>10} {:>8} {:>7} {:>7}",
        "spec", "fanouts", "cache", "sampler", "fw", "epoch ms", "xfer ms", "cache%", "test%"
    );
    for row in &rows {
        println!(
            "{:<9} {:>7} {:>7} {:>10} {:>5} {:>10.2} {:>8.2} {:>7.1} {:>7.1}",
            row.spec,
            row.fanouts,
            row.cache_rows,
            row.sampler,
            row.framework,
            row.epoch_time * 1e3,
            row.transfer_time * 1e3,
            row.cache_hit_rate * 100.0,
            row.test_acc,
        );
    }
    println!();
    for e in &errors {
        run.error(e);
    }
    run.wrote("metrics", write_sample_metrics(&cfg.out, &rows));
    let expected = variants.len() * SamplerKind::all().len() * ALL_FRAMEWORKS.len();
    if rows.len() != expected {
        run.error(format!(
            "{} of {expected} cell(s) produced rows",
            rows.len()
        ));
    }
    run.finish()
}
