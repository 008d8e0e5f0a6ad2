//! Cross-commit golden digests for the serving core.
//!
//! CI's `cmp` compares two runs of the *same* build; these constants pin
//! the serve clock across builds. Each digest is FNV-1a over the report's
//! `csv_rows()` plus every request's `enqueue`/`dispatch`/`reply`/`output`
//! bits, so a refactor of `gnn-serve` that moves any reply by one ulp —
//! single engine or fleet, clean or under the canonical fault plans —
//! fails `cargo test -q`. A deliberate behaviour change re-captures them
//! (the failure message prints the new value).

use gnn_faults::FaultPlan;
use gnn_serve::{
    serve, serve_fleet, BatchPolicy, FleetConfig, FleetWorkload, RoutingPolicy, ServeConfig,
    ServeReport, WorkloadKind,
};

const REQUESTS: usize = 120;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(report: &ServeReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut h, report.csv_rows().as_bytes());
    for r in &report.requests {
        for t in [r.enqueue, r.dispatch, r.reply] {
            fnv1a(&mut h, &t.to_bits().to_le_bytes());
        }
        for x in &r.output {
            fnv1a(&mut h, &x.to_bits().to_le_bytes());
        }
    }
    h
}

fn under(plan: Option<FaultPlan>, run: impl FnOnce() -> ServeReport) -> ServeReport {
    let handle = plan.map(gnn_faults::install);
    let report = run();
    if let Some(h) = handle {
        gnn_faults::finish(h);
    }
    report
}

/// The `gnn-bench serve` binary's default `--policies`.
fn cli_policies() -> [BatchPolicy; 3] {
    [(1, 0.0), (4, 0.001), (8, 0.002)].map(|(max_batch, max_delay)| BatchPolicy {
        max_batch,
        max_delay,
    })
}

fn single_digests(plan: Option<FaultPlan>) -> Vec<(String, u64)> {
    cli_policies()
        .into_iter()
        .map(|policy| {
            let cfg = ServeConfig {
                requests: REQUESTS,
                policy,
                ..ServeConfig::default()
            };
            let report = under(plan.clone(), || serve(&cfg).expect("serve run"));
            assert_eq!(report.requests.len(), REQUESTS, "conservation");
            (policy.label(), digest(&report))
        })
        .collect()
}

fn assert_golden(got: &[(String, u64)], want: &[(&str, u64)]) {
    let got: Vec<(&str, String)> = got
        .iter()
        .map(|(l, h)| (l.as_str(), format!("{h:#018x}")))
        .collect();
    let want: Vec<(&str, String)> = want
        .iter()
        .map(|(l, h)| (*l, format!("{h:#018x}")))
        .collect();
    assert_eq!(got, want, "serve-clock digests moved across commits");
}

#[test]
fn single_engine_clean_digests_are_pinned() {
    assert_golden(
        &single_digests(None),
        &[
            ("b1/d0us", 0xcbb0_77a0_ece3_7d7b),
            ("b4/d1000us", 0x44e3_07f1_50d2_a0b8),
            ("b8/d2000us", 0xce4f_3316_092a_8485),
        ],
    );
}

#[test]
fn single_engine_canonical_fault_digests_are_pinned() {
    assert_golden(
        &single_digests(Some(FaultPlan::canonical())),
        &[
            ("b1/d0us", 0xdb32_4885_38b9_0b0c),
            ("b4/d1000us", 0x0003_deb4_e228_eb0b),
            ("b8/d2000us", 0x6e47_ed5e_0d79_3a06),
        ],
    );
}

#[test]
fn fleet_canonical_chaos_digests_are_pinned() {
    let workloads = [
        ("open", FleetWorkload::Open(WorkloadKind::OpenLoop)),
        (
            "closed",
            FleetWorkload::Closed {
                clients: 8,
                think_time: 0.002,
            },
        ),
    ];
    let mut got = Vec::new();
    for routing in [RoutingPolicy::ConsistentHash, RoutingPolicy::LeastLoaded] {
        for (name, workload) in &workloads {
            let cfg = FleetConfig {
                requests: REQUESTS,
                routing,
                workload: workload.clone(),
                ..FleetConfig::default()
            };
            let report = under(Some(FaultPlan::canonical_fleet()), || {
                serve_fleet(&cfg).expect("fleet run")
            });
            assert_eq!(report.requests.len(), REQUESTS, "conservation");
            got.push((format!("{}/{name}", routing.label()), digest(&report)));
        }
    }
    assert_golden(
        &got,
        &[
            ("consistent-hash/open", 0xaaf0_68fd_7465_04e2),
            ("consistent-hash/closed", 0xcf96_d720_499e_93da),
            ("least-loaded/open", 0x4652_c8ad_0530_df78),
            ("least-loaded/closed", 0x209d_8210_d1b7_4f9d),
        ],
    );
}
