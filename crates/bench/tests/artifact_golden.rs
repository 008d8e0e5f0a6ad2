//! Cross-commit golden digests of the JSON documents `gnn-bench` writes.
//!
//! CI's `cmp` compares two runs of the *same* build; these constants pin
//! the bytes across builds. Each digest is FNV-1a over one whole document
//! — the BENCH report of [`tiny_report_config`] and the `lint.json` and
//! `memory.json` of the smoke sweep — so a refactor of the writers that
//! moves one key, one column or one digit fails `cargo test -q`. The
//! what-if document is pinned the same way next to its `tiny_cfg()` in
//! `src/whatif.rs`. A deliberate format change re-captures them (the
//! failure message prints the new value). The last test pins each
//! artifact's schema tag beside the columns it stands for.

use gnn_bench::report::{run_report, tiny_report_config};
use gnn_core::RunConfig;
use gnn_obs::Table;

fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn assert_golden(name: &str, text: &str, want: u64) {
    let got = fnv1a(text);
    assert_eq!(
        format!("{got:#018x}"),
        format!("{want:#018x}"),
        "{name} moved across commits"
    );
}

#[test]
fn tiny_bench_report_is_pinned() {
    let doc = run_report(&tiny_report_config()).unwrap().to_json();
    assert_golden("BENCH report", &doc, 0x022f_dd67_59b5_2bda);
}

#[test]
fn smoke_lint_and_memory_documents_are_pinned() {
    let (lint, memory) = gnn_lint::lint_run_with_memory(&RunConfig::smoke());
    assert_golden(
        "lint.json",
        &lint.to_value().to_json(),
        0xbacb_66fe_c2f3_ff31,
    );
    assert_golden(
        "memory.json",
        &memory.to_value().to_json(),
        0x60fa_84f5_a5c0_9b33,
    );
}

fn keys<R>(table: &Table<R>) -> String {
    let names: Vec<&str> = table.columns.iter().map(|c| c.name).collect();
    names.join(",")
}

/// Each schema tag, pinned together with the columns it stands for. A
/// column edit fails here: bump the artifact's tag in the same change,
/// then update its literal below.
#[test]
fn schema_tags_pin_their_columns() {
    assert_eq!(
        gnn_serve::SERVE_METRICS.header(),
        "# schema: gnn-serve-metrics/v2\n\
         policy,routing,max_batch,max_delay_s,endpoint,requests,answered,rejected,shed,dropped,\
         p50_s,p95_s,p99_s,throughput_rps,mean_batch,occupancy,max_queue_depth,mean_queue_depth,\
         peak_mem_bytes,slo_attainment,retries,hedges,failover_p99_s\n"
    );
    assert_eq!(
        gnn_bench::sample::SAMPLE_METRICS.header(),
        "# schema: gnn-sample-metrics/v1\n\
         spec,fanouts,cache_rows,sampler,framework,batch_seeds,epochs,epoch_time,total_time,\
         kernel_time,transfer_time,cache_hit_rate,test_acc,peak_memory,retries,degraded\n"
    );
    assert_eq!(
        gnn_core::export::CELL_OUTCOMES.header(),
        "# schema: gnn-cell-outcomes/v1\n\
         experiment,dataset,model,framework,status,retries,detail,faults,peak_mem_bytes\n"
    );

    use gnn_bench::report as bench;
    assert_eq!(
        [
            bench::REPORT_SCHEMA.to_owned(),
            keys(&bench::CELL_ROWS),
            keys(&bench::SAMPLE_ROWS),
            keys(&bench::SERVE_ROWS),
            keys(&bench::FLEET_ROWS),
        ],
        [
            "gnn-bench-report/v4",
            "cell,epoch_time,total_time,kernel_time,transfer_time,idle_time,flops,bytes,\
             arithmetic_intensity,roofline_utilization,utilization",
            "cell,epoch_time,total_time,kernel_time,transfer_time,cache_hit_rate,test_acc",
            "policy,p50,p95,p99,throughput,slo_attainment,served,rejected",
            "routing,p50,p95,p99,throughput,slo_attainment,answered,shed,retries,hedges,\
             failover_p99",
        ]
    );

    use gnn_bench::whatif;
    assert_eq!(
        [
            whatif::WHATIF_SCHEMA.to_owned(),
            keys(&whatif::CELL_ROWS),
            keys(&whatif::CELL_PREDICTION_ROWS),
            keys(&whatif::SERVE_ROWS),
            keys(&whatif::SERVE_PREDICTION_ROWS),
            keys(&whatif::LATENCY),
            keys(&whatif::OPPORTUNITY_ROWS),
        ],
        [
            "gnn-whatif/v1",
            "cell,epochs,base_total_time,base_epoch_time,budgets,predictions",
            "component,speedup,predicted_total,predicted_epoch",
            "policy,base,predictions",
            "component,speedup,latency",
            "p50,p95,p99,slo_attainment,throughput,makespan",
            "component,speedup,predicted_win,win_fraction,ceiling,bound",
        ]
    );
}
