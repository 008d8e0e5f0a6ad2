//! Property-based tests of the device model's invariants.

use gnn_device::multi::{DataParallel, StepCost};
use gnn_device::{CostModel, Kernel, KernelKind, MemoryTracker, Timeline};
use proptest::prelude::*;

fn kernel_strategy() -> impl Strategy<Value = Kernel> {
    (0u64..10_000_000, 0u64..10_000_000, 0usize..8).prop_map(|(flops, bytes, kind)| {
        let kinds = [
            KernelKind::Gemm,
            KernelKind::Elementwise,
            KernelKind::Reduction,
            KernelKind::Gather,
            KernelKind::Scatter,
            KernelKind::Segment,
            KernelKind::SpMM,
            KernelKind::SDDMM,
        ];
        Kernel::new("k", kinds[kind], flops, bytes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Kernel time is positive and monotone in both flops and bytes.
    #[test]
    fn kernel_time_monotone(k in kernel_strategy(), extra in 1u64..1_000_000) {
        let m = CostModel::rtx2080ti();
        let base = m.kernel_time(&k);
        prop_assert!(base > 0.0);
        let more_flops = Kernel::new("k", k.kind, k.flops + extra, k.bytes);
        let more_bytes = Kernel::new("k", k.kind, k.flops, k.bytes + extra);
        prop_assert!(m.kernel_time(&more_flops) >= base);
        prop_assert!(m.kernel_time(&more_bytes) >= base);
    }

    /// Timeline: busy time never exceeds device-frontier time; host clock
    /// is monotone; utilization stays in [0, 1].
    #[test]
    fn timeline_invariants(
        ops in proptest::collection::vec((0u8..2, 0.0f64..1e-3), 1..60),
    ) {
        let mut t = Timeline::new();
        let mut last_now = 0.0;
        for (kind, dur) in ops {
            match kind {
                0 => t.host(dur),
                _ => {
                    t.launch(1e-6, dur);
                }
            }
            prop_assert!(t.now() >= last_now, "host clock must be monotone");
            last_now = t.now();
            prop_assert!(t.busy() <= t.device_free() + 1e-12);
        }
        t.sync();
        prop_assert!(t.now() >= t.device_free() - 1e-15);
        let util = t.utilization_over(0.0, t.now(), 0.0);
        prop_assert!((0.0..=1.0).contains(&util));
        prop_assert!(t.busy() <= t.now() + 1e-12, "can't be busier than elapsed");
    }

    /// Memory: peak is monotone over any allocation sequence and at least
    /// the final current value.
    #[test]
    fn memory_peak_monotone(
        ops in proptest::collection::vec((0u8..3, 1u64..10_000), 1..50),
    ) {
        let mut m = MemoryTracker::new();
        let mut last_peak = 0;
        for (kind, bytes) in ops {
            match kind {
                0 => m.alloc(bytes),
                1 => m.free(bytes),
                _ => m.end_step(),
            }
            prop_assert!(m.peak() >= last_peak, "peak must never decrease");
            prop_assert!(m.peak() >= m.current());
            last_peak = m.peak();
        }
    }

    /// DataParallel: per-step time is monotone in every cost component and
    /// strictly increases with replica count when compute is held constant.
    #[test]
    fn data_parallel_monotone(
        host_load in 0.0f64..0.1,
        compute in 0.0f64..0.1,
        input in 0u64..100_000_000,
        params in 0u64..50_000_000,
        gpus in 1usize..8,
    ) {
        let step = StepCost {
            host_load,
            input_bytes: input,
            compute,
            output_bytes: 1000,
        };
        let dp = DataParallel::new(gpus, params);
        let t = dp.step_time(&step);
        prop_assert!(t >= host_load + compute);
        let dp_more = DataParallel::new(gpus + 1, params);
        prop_assert!(
            dp_more.step_time(&step) > t,
            "more replicas with equal shard compute must cost more"
        );
        let bigger = StepCost { compute: compute + 0.01, ..step };
        prop_assert!(dp.step_time(&bigger) > t);
    }

    /// Sessions: total time >= busy time; phase times sum to total.
    #[test]
    fn session_accounting_consistent(
        ks in proptest::collection::vec(kernel_strategy(), 1..30),
        host in 0.0f64..1e-2,
    ) {
        let mut s = gnn_device::Session::new(CostModel::rtx2080ti());
        s.set_phase(gnn_device::Phase::Forward);
        for k in ks {
            s.record(k);
        }
        s.host(host);
        let report = s.into_report();
        prop_assert!(report.total_time >= report.busy_time - 1e-12);
        let sum: f64 = report.phase_times.iter().sum();
        prop_assert!((sum - report.total_time).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&report.utilization()));
    }
}
