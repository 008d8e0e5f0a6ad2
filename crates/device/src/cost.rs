//! Roofline cost model for simulated kernels and host-side framework work.
//!
//! A kernel's device time is `max(flops / eff_flops, bytes / eff_bw)` plus a
//! fixed device-side scheduling overhead; issuing it also costs the host a
//! launch overhead. The efficiency factors per [`KernelKind`] encode the
//! well-known behaviour of GNN workloads on GPUs: GEMMs approach peak FLOP/s
//! while gather/scatter/segment kernels are bound by irregular DRAM access.
//!
//! The host-side constants model the Python/C++ driver work the paper's
//! time-breakdown figures attribute to "data loading": collating a mini-batch
//! of graphs into one disjoint-union graph. The DGL-like framework pays a
//! documented multiplier for its heterograph generalization (see
//! `rgl::loader`).

use crate::kernel::{Kernel, KernelKind};

/// Analytical device + host cost model.
///
/// Construct via [`CostModel::rtx2080ti`] (the paper's hardware) or build a
/// custom one with [`CostModel::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Peak fp32 throughput in FLOP/s.
    pub peak_flops: f64,
    /// Peak DRAM bandwidth in bytes/s.
    pub peak_bw: f64,
    /// Host-side cost of issuing one kernel (seconds).
    pub launch_overhead: f64,
    /// Device-side fixed cost per kernel (scheduling, tail effects; seconds).
    pub kernel_overhead: f64,
    /// Usable device DRAM capacity in bytes. The static memory certifier
    /// (`gnn-lint`) compares each cell's certified peak footprint against
    /// this when deciding `peak-exceeds-device-memory`.
    pub device_memory: u64,
    /// Compute efficiency factor per kernel kind (fraction of `peak_flops`).
    flops_eff: [f64; 11],
    /// Bandwidth efficiency factor per kernel kind (fraction of `peak_bw`).
    bw_eff: [f64; 11],
    /// Hypothetical what-if speedups (identity on every real model); see
    /// [`CostModel::with_speedups`].
    speedups: Speedups,
}

pub use gnn_obs::whatif::{Speedups, COMPONENT_HOST, COMPONENT_LAUNCH, WHATIF_COMPONENTS};

/// Human-readable label of what-if component `component` (a kernel kind
/// label in [`PRICED_KINDS`] order, `"launch"`, or `"host"`).
///
/// # Panics
///
/// Panics if `component >= WHATIF_COMPONENTS`.
pub fn component_label(component: usize) -> &'static str {
    match component {
        COMPONENT_LAUNCH => "launch",
        COMPONENT_HOST => "host",
        i => PRICED_KINDS[i].label(),
    }
}

/// Every kernel kind the cost model prices, in efficiency-table order
/// ([`kind_index`]).
pub const PRICED_KINDS: [KernelKind; 11] = [
    KernelKind::Gemm,
    KernelKind::Elementwise,
    KernelKind::Reduction,
    KernelKind::Gather,
    KernelKind::Scatter,
    KernelKind::Segment,
    KernelKind::Softmax,
    KernelKind::Norm,
    KernelKind::SpMM,
    KernelKind::SDDMM,
    KernelKind::Transfer,
];

/// Position of `kind` in [`PRICED_KINDS`] and the efficiency tables.
pub fn kind_index(kind: KernelKind) -> usize {
    match kind {
        KernelKind::Gemm => 0,
        KernelKind::Elementwise => 1,
        KernelKind::Reduction => 2,
        KernelKind::Gather => 3,
        KernelKind::Scatter => 4,
        KernelKind::Segment => 5,
        KernelKind::Softmax => 6,
        KernelKind::Norm => 7,
        KernelKind::SpMM => 8,
        KernelKind::SDDMM => 9,
        KernelKind::Transfer => 10,
    }
}

impl CostModel {
    /// Cost model calibrated to the paper's NVIDIA RTX 2080Ti.
    ///
    /// Peak numbers are the published specs (13.45 TFLOP/s fp32, 616 GB/s
    /// GDDR6); efficiency factors are typical measured fractions for each
    /// kernel class on Turing (GEMM ~55% of peak FLOP/s for mid-size
    /// matrices, streaming elementwise ~80% of bandwidth, atomically
    /// scattered access ~25%...). Launch overhead of ~6 µs matches CUDA
    /// driver measurements and makes small-kernel-dominated workloads
    /// launch-bound, which is exactly the regime the paper observes.
    pub fn rtx2080ti() -> Self {
        CostModel {
            peak_flops: 13.45e12,
            peak_bw: 616.0e9,
            launch_overhead: 6.0e-6,
            kernel_overhead: 1.5e-6,
            device_memory: 11 * (1u64 << 30),
            //           gemm  elem  red   gath  scat  seg   smax  norm  spmm  sddmm xfer
            flops_eff: [
                0.55, 0.05, 0.05, 0.02, 0.02, 0.03, 0.03, 0.05, 0.10, 0.05, 1.0,
            ],
            // GNN gathers/scatters move whole feature rows (hundreds of
            // contiguous bytes), so their effective bandwidth sits well
            // above random-word access, below pure streaming.
            bw_eff: [
                0.85, 0.80, 0.70, 0.55, 0.50, 0.48, 0.45, 0.65, 0.55, 0.45, 0.60,
            ],
            speedups: Speedups::identity(),
        }
    }

    /// Cost model for an NVIDIA A100 (SXM, fp32 non-tensor-core): ~19.5
    /// TFLOP/s and 1555 GB/s HBM2e, same CUDA launch overheads. Useful for
    /// asking how the study's conclusions shift on newer hardware: more
    /// bandwidth narrows the device-side gaps, but launch-bound workloads
    /// stay launch-bound — GNN utilization drops even lower.
    pub fn a100() -> Self {
        CostModel {
            peak_flops: 19.5e12,
            peak_bw: 1555.0e9,
            device_memory: 40 * (1u64 << 30),
            ..CostModel::rtx2080ti()
        }
    }

    /// Starts building a custom cost model from the 2080Ti defaults.
    pub fn builder() -> CostModelBuilder {
        CostModelBuilder {
            model: CostModel::rtx2080ti(),
        }
    }

    /// Device execution time of `kernel` in seconds (excluding launch).
    ///
    /// Computed as the unscaled roofline time divided by the kernel kind's
    /// what-if speedup factor (`1.0` on every real model); the division is
    /// last so causal replay can reproduce an overlaid model exactly.
    pub fn kernel_time(&self, kernel: &Kernel) -> f64 {
        let (compute, traffic) = self.roofline_terms(kernel);
        let base = self.kernel_overhead + compute.max(traffic);
        base / self.speedups.kinds[kind_index(kernel.kind)]
    }

    /// The two roofline legs of `kernel`'s duration, in seconds: time under
    /// the effective compute rate and time under the effective bandwidth.
    /// `kernel_time` is their max plus the fixed kernel overhead; the
    /// counter model uses the individual terms to classify boundness.
    pub fn roofline_terms(&self, kernel: &Kernel) -> (f64, f64) {
        let i = kind_index(kernel.kind);
        let compute = kernel.flops as f64 / (self.peak_flops * self.flops_eff[i]);
        let traffic = kernel.bytes as f64 / (self.peak_bw * self.bw_eff[i]);
        (compute, traffic)
    }

    /// The `(flops, bandwidth)` efficiency fractions applied to `kind`.
    pub fn efficiency(&self, kind: KernelKind) -> (f64, f64) {
        let i = kind_index(kind);
        (self.flops_eff[i], self.bw_eff[i])
    }

    /// Host time spent issuing one kernel, in seconds.
    pub fn launch_time(&self) -> f64 {
        self.launch_overhead / self.speedups.launch
    }

    /// Derives a hypothetical model with `speedups` overlaid: every cost is
    /// the base model's value divided by the matching factor. The receiver
    /// is not mutated, so the real model stays intact.
    ///
    /// # Panics
    ///
    /// Panics if any factor is not positive (`f64::INFINITY` is allowed and
    /// removes the component's cost entirely).
    pub fn with_speedups(&self, speedups: &Speedups) -> CostModel {
        for (i, &k) in speedups.kinds.iter().enumerate() {
            assert!(
                k > 0.0,
                "speedup for {} must be positive",
                component_label(i)
            );
        }
        assert!(speedups.launch > 0.0, "launch speedup must be positive");
        assert!(speedups.host > 0.0, "host speedup must be positive");
        let mut m = self.clone();
        m.speedups = Speedups {
            kinds: std::array::from_fn(|i| self.speedups.kinds[i] * speedups.kinds[i]),
            launch: self.speedups.launch * speedups.launch,
            host: self.speedups.host * speedups.host,
        };
        m
    }

    /// The what-if speedup overlay in effect (identity on real models).
    pub fn speedups(&self) -> &Speedups {
        &self.speedups
    }

    /// The factor dividing pure host work, consumed by
    /// [`crate::session::Session::host`].
    pub fn host_speedup(&self) -> f64 {
        self.speedups.host
    }
}

/// Builder for custom [`CostModel`]s (used by calibration tests and ablations).
#[derive(Debug, Clone)]
pub struct CostModelBuilder {
    model: CostModel,
}

impl CostModelBuilder {
    /// Sets peak fp32 throughput (FLOP/s).
    pub fn peak_flops(mut self, v: f64) -> Self {
        self.model.peak_flops = v;
        self
    }

    /// Sets peak DRAM bandwidth (bytes/s).
    pub fn peak_bw(mut self, v: f64) -> Self {
        self.model.peak_bw = v;
        self
    }

    /// Sets host launch overhead per kernel (seconds).
    pub fn launch_overhead(mut self, v: f64) -> Self {
        self.model.launch_overhead = v;
        self
    }

    /// Sets device fixed overhead per kernel (seconds).
    pub fn kernel_overhead(mut self, v: f64) -> Self {
        self.model.kernel_overhead = v;
        self
    }

    /// Sets the usable device DRAM capacity (bytes).
    pub fn device_memory(mut self, bytes: u64) -> Self {
        self.model.device_memory = bytes;
        self
    }

    /// Sets the efficiency factors for one kernel kind.
    pub fn efficiency(mut self, kind: KernelKind, flops_frac: f64, bw_frac: f64) -> Self {
        let i = kind_index(kind);
        self.model.flops_eff[i] = flops_frac;
        self.model.bw_eff[i] = bw_frac;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> CostModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_is_compute_bound_at_scale() {
        let m = CostModel::rtx2080ti();
        let big = Kernel::gemm("mm", 4096, 4096, 4096);
        let t = m.kernel_time(&big);
        let compute = big.flops as f64 / (m.peak_flops * 0.55);
        assert!((t - (compute + m.kernel_overhead)).abs() < 1e-9);
    }

    #[test]
    fn scatter_is_memory_bound() {
        let m = CostModel::rtx2080ti();
        let k = Kernel::scatter("sc", 1_000_000, 64);
        let traffic = k.bytes as f64 / (m.peak_bw * 0.50);
        assert!((m.kernel_time(&k) - (traffic + m.kernel_overhead)).abs() < 1e-12);
    }

    #[test]
    fn tiny_kernel_dominated_by_overhead() {
        let m = CostModel::rtx2080ti();
        let k = Kernel::elementwise("relu", 8, 1, 2);
        let t = m.kernel_time(&k);
        assert!(
            t < 2.0 * m.kernel_overhead,
            "tiny kernels should be overhead bound: {t}"
        );
    }

    #[test]
    fn a100_is_strictly_faster_per_kernel() {
        let t = CostModel::rtx2080ti();
        let a = CostModel::a100();
        for k in [
            Kernel::gemm("mm", 512, 512, 512),
            Kernel::scatter("sc", 100_000, 64),
            Kernel::elementwise("relu", 1_000_000, 1, 2),
        ] {
            assert!(a.kernel_time(&k) < t.kernel_time(&k), "{}", k.name);
        }
        // Launch overhead is a host property: unchanged.
        assert_eq!(a.launch_time(), t.launch_time());
    }

    #[test]
    fn device_memory_capacities() {
        assert_eq!(CostModel::rtx2080ti().device_memory, 11u64 << 30);
        assert_eq!(CostModel::a100().device_memory, 40u64 << 30);
        let m = CostModel::builder().device_memory(1 << 20).build();
        assert_eq!(m.device_memory, 1 << 20);
    }

    #[test]
    fn builder_overrides_apply() {
        let m = CostModel::builder()
            .peak_flops(1e12)
            .launch_overhead(1e-5)
            .efficiency(KernelKind::Gemm, 1.0, 1.0)
            .build();
        assert_eq!(m.peak_flops, 1e12);
        assert_eq!(m.launch_time(), 1e-5);
        let k = Kernel::gemm("mm", 1024, 1024, 1024);
        let compute = k.flops as f64 / 1e12;
        assert!((m.kernel_time(&k) - (compute + m.kernel_overhead)).abs() < 1e-12);
    }

    #[test]
    fn speedup_overlay_divides_exactly() {
        let base = CostModel::rtx2080ti();
        for (i, kind) in PRICED_KINDS.iter().enumerate() {
            let k = Kernel::new("k", *kind, 1_000_000, 4_000_000);
            let twice = base.with_speedups(&Speedups::component(i, 2.0));
            // Bit-exact: the overlay divides the base value as its last step.
            assert_eq!(twice.kernel_time(&k), base.kernel_time(&k) / 2.0);
            let gone = base.with_speedups(&Speedups::component(i, f64::INFINITY));
            assert_eq!(gone.kernel_time(&k), 0.0);
            // Other kinds are untouched.
            let other = PRICED_KINDS[(i + 1) % PRICED_KINDS.len()];
            let o = Kernel::new("o", other, 1_000_000, 4_000_000);
            assert_eq!(twice.kernel_time(&o), base.kernel_time(&o));
        }
        let launch = base.with_speedups(&Speedups::component(COMPONENT_LAUNCH, 4.0));
        assert_eq!(launch.launch_time(), base.launch_time() / 4.0);
        let host = base.with_speedups(&Speedups::component(COMPONENT_HOST, 2.0));
        assert_eq!(host.host_speedup(), 2.0);
        // The receiver itself is never mutated.
        assert_eq!(base, CostModel::rtx2080ti());
        assert!(base.speedups().is_identity());
        assert!(!launch.speedups().is_identity());
    }

    #[test]
    fn component_labels_cover_all_levers() {
        let labels: Vec<&str> = (0..WHATIF_COMPONENTS).map(component_label).collect();
        assert_eq!(labels.len(), 13);
        assert_eq!(labels[COMPONENT_LAUNCH], "launch");
        assert_eq!(labels[COMPONENT_HOST], "host");
        assert!(labels.contains(&"gemm") && labels.contains(&"transfer"));
        let unique: std::collections::HashSet<&str> = labels.iter().copied().collect();
        assert_eq!(unique.len(), labels.len(), "labels must be distinct");
    }

    #[test]
    fn scatter_slower_than_gather_same_shape() {
        let m = CostModel::rtx2080ti();
        let g = Kernel::gather("g", 100_000, 64);
        let s = Kernel::scatter("s", 100_000, 64);
        assert!(m.kernel_time(&s) > m.kernel_time(&g));
    }

    #[test]
    fn fused_spmm_beats_gather_plus_scatter() {
        // The rationale for DGL's fused GSpMM kernel: one fused launch should
        // be cheaper than the gather + scatter pair RustyG issues.
        let m = CostModel::rtx2080ti();
        let edges = 50_000;
        let cols = 64;
        let fused = Kernel::new(
            "gspmm",
            KernelKind::SpMM,
            (edges * cols) as u64,
            (8 * edges * cols + 8 * edges) as u64,
        );
        let gather = Kernel::gather("g", edges, cols);
        let scatter = Kernel::scatter("s", edges, cols);
        assert!(
            m.kernel_time(&fused) + m.launch_time()
                < m.kernel_time(&gather) + m.kernel_time(&scatter) + 2.0 * m.launch_time()
        );
    }
}
