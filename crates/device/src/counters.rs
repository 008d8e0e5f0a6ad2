//! Analytical hardware counters: FLOPs, DRAM traffic, arithmetic intensity,
//! and roofline attribution per kernel launch.
//!
//! The source paper reads these from `nvprof`; the follow-up study
//! ("Characterizing the Efficiency of GNN Frameworks with a Magnifying
//! Glass") shows the framework gaps live in memory traffic and arithmetic
//! intensity rather than raw FLOPs. Here the counters are derived
//! analytically from the same [`Kernel`] descriptors the cost model prices,
//! so every traced slice can carry the full counter set at zero simulation
//! cost: [`CostModel::counters`] never touches the timeline.
//!
//! [`KernelCounters`] are the per-launch derived counters: work, split
//! traffic, intensity, boundness class, and attained roofline fraction.
//! [`read_fraction`] splits each kind's DRAM traffic into reads and
//! writes, one arm per [`KernelKind`].

use crate::cost::CostModel;
use crate::kernel::{Kernel, KernelKind};

/// Which roofline resource bounds a kernel's duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// The compute leg dominates: duration ≈ flops / effective FLOP rate.
    Compute,
    /// The traffic leg dominates: duration ≈ bytes / effective bandwidth.
    Bandwidth,
    /// The fixed per-kernel overhead exceeds both legs (tiny kernels — the
    /// launch-bound regime the paper's utilization numbers expose).
    Overhead,
}

impl Bound {
    /// Stable label used in trace args and reports.
    pub fn label(self) -> &'static str {
        match self {
            Bound::Compute => "compute",
            Bound::Bandwidth => "bandwidth",
            Bound::Overhead => "overhead",
        }
    }
}

/// Derived counters for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCounters {
    /// Floating-point operations performed.
    pub flops: u64,
    /// Bytes read from DRAM.
    pub bytes_read: u64,
    /// Bytes written to DRAM.
    pub bytes_written: u64,
    /// Arithmetic intensity in FLOP/byte (0 for traffic-free kernels).
    pub intensity: f64,
    /// Device duration in seconds — identical to
    /// [`CostModel::kernel_time`], so deriving counters cannot drift from
    /// the priced duration.
    pub duration: f64,
    /// Which roofline resource bounds the duration.
    pub bound: Bound,
    /// Attained fraction of the binding *peak* rate over the kernel's
    /// duration: `max(flops/dur/peak_flops, bytes/dur/peak_bw)`, clamped
    /// to `[0, 1]`. Low values on the binding leg are efficiency losses
    /// (irregular access, overhead), exactly what the roofline plot shows.
    pub roofline: f64,
}

impl KernelCounters {
    /// Total DRAM traffic in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// Fraction of `kind`'s DRAM traffic that is reads, in `[0, 1]`.
///
/// The [`Kernel`] constructors fold reads and writes into one `bytes`
/// figure, so the split is a per-kind constant rather than per-launch. The
/// comment on each arm is the closed form of the constructors' FLOP and
/// byte counts. A GEMM streams two input operands per output (2/3 reads);
/// a scatter-add reads source and destination and writes the destination
/// back (2/3); a gather reads source rows + indices and writes the same
/// volume out (~1/2); reductions and segment ops read far more than they
/// write. The match is exhaustive, so every kind the cost model prices has
/// a split by construction.
pub fn read_fraction(kind: KernelKind) -> f64 {
    match kind {
        // flops 2*m*k*n; bytes 4*(m*k + k*n + m*n)
        KernelKind::Gemm => 2.0 / 3.0,
        // flops elems * ops_per_elem; bytes 4 * elems * streams
        KernelKind::Elementwise => 0.6,
        // flops elems; bytes 4 * (elems + outputs)
        KernelKind::Reduction => 0.95,
        // flops 0; bytes 8*rows*cols + 4*rows
        KernelKind::Gather => 0.5,
        // flops rows*cols; bytes 12*rows*cols + 4*rows
        KernelKind::Scatter => 2.0 / 3.0,
        // flops rows*cols; bytes 4*(rows*cols + segments*cols) + 4*rows
        KernelKind::Segment => 0.85,
        // flops ~4*elems (max, sub-exp, sum, div); bytes 4*elems*(read passes + write)
        KernelKind::Softmax => 0.65,
        // flops ~3*elems (stats + apply); bytes 4*elems*(2 reads + 1 write)
        KernelKind::Norm => 0.7,
        // flops nnz*cols; bytes 8*nnz*cols + 8*nnz (fused gather+reduce)
        KernelKind::SpMM => 0.75,
        // flops nnz*cols; bytes 8*nnz*cols + 4*nnz (two endpoint reads, edge write)
        KernelKind::SDDMM => 0.8,
        // flops 0; bytes payload bytes
        KernelKind::Transfer => 0.5,
    }
}

impl CostModel {
    /// Derives the full counter set for one kernel launch.
    ///
    /// Pure and non-mutating: the duration is exactly
    /// [`CostModel::kernel_time`], so instrumentation that calls this can
    /// never perturb the simulation.
    pub fn counters(&self, kernel: &Kernel) -> KernelCounters {
        let (compute, traffic) = self.roofline_terms(kernel);
        let duration = self.kernel_time(kernel);
        let bound = if self.kernel_overhead >= compute.max(traffic) {
            Bound::Overhead
        } else if compute >= traffic {
            Bound::Compute
        } else {
            Bound::Bandwidth
        };
        let bytes_read = (kernel.bytes as f64 * read_fraction(kernel.kind)).round() as u64;
        let bytes_written = kernel.bytes - bytes_read.min(kernel.bytes);
        let intensity = if kernel.bytes == 0 {
            0.0
        } else {
            kernel.flops as f64 / kernel.bytes as f64
        };
        let roofline = if duration <= 0.0 {
            0.0
        } else {
            let flop_frac = kernel.flops as f64 / duration / self.peak_flops;
            let bw_frac = kernel.bytes as f64 / duration / self.peak_bw;
            flop_frac.max(bw_frac).clamp(0.0, 1.0)
        };
        KernelCounters {
            flops: kernel.flops,
            bytes_read,
            bytes_written,
            intensity,
            duration,
            bound,
            roofline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{kind_index, PRICED_KINDS};

    #[test]
    fn every_priced_kind_appears_once_with_a_read_fraction() {
        for (i, kind) in PRICED_KINDS.into_iter().enumerate() {
            assert_eq!(kind_index(kind), i, "{kind:?} sits at its table index");
            let f = read_fraction(kind);
            assert!((0.0..=1.0).contains(&f), "{kind:?} reads {f}");
        }
    }

    #[test]
    fn big_gemm_is_compute_bound_with_high_roofline() {
        let m = CostModel::rtx2080ti();
        let c = m.counters(&Kernel::gemm("mm", 4096, 4096, 4096));
        assert_eq!(c.bound, Bound::Compute);
        // Attained fraction equals the GEMM compute efficiency factor.
        let (eff, _) = m.efficiency(KernelKind::Gemm);
        assert!((c.roofline - eff).abs() < 0.01, "roofline {}", c.roofline);
        assert!(c.intensity > 100.0);
    }

    #[test]
    fn scatter_is_bandwidth_bound() {
        let m = CostModel::rtx2080ti();
        let c = m.counters(&Kernel::scatter("sc", 1_000_000, 64));
        assert_eq!(c.bound, Bound::Bandwidth);
        let (_, bw_eff) = m.efficiency(KernelKind::Scatter);
        assert!((c.roofline - bw_eff).abs() < 0.01);
        assert!(c.intensity < 1.0);
    }

    #[test]
    fn tiny_kernel_is_overhead_bound() {
        let m = CostModel::rtx2080ti();
        let c = m.counters(&Kernel::elementwise("relu", 8, 1, 2));
        assert_eq!(c.bound, Bound::Overhead);
        assert!(c.roofline < 0.01);
    }

    #[test]
    fn byte_split_sums_to_total_traffic() {
        let m = CostModel::rtx2080ti();
        for k in [
            Kernel::gemm("mm", 128, 64, 32),
            Kernel::gather("g", 1000, 64),
            Kernel::scatter("s", 1000, 64),
            Kernel::segment("seg", 1000, 64, 100),
            Kernel::transfer("h2d", 1 << 20),
        ] {
            let c = m.counters(&k);
            assert_eq!(c.bytes(), k.bytes, "{}", k.name);
        }
    }

    #[test]
    fn duration_matches_priced_kernel_time_exactly() {
        let m = CostModel::rtx2080ti();
        for k in [
            Kernel::gemm("mm", 128, 64, 32),
            Kernel::elementwise("relu", 10_000, 1, 2),
            Kernel::transfer("h2d", 1 << 20),
        ] {
            assert_eq!(m.counters(&k).duration, m.kernel_time(&k), "{}", k.name);
        }
    }

    #[test]
    fn roofline_is_always_a_fraction() {
        let m = CostModel::rtx2080ti();
        for k in [
            Kernel::gemm("mm", 1, 1, 1),
            Kernel::gemm("mm", 8192, 8192, 8192),
            Kernel::transfer("h2d", 1 << 30),
            Kernel::new("zero", KernelKind::Reduction, 0, 0),
        ] {
            let r = m.counters(&k).roofline;
            assert!((0.0..=1.0).contains(&r), "{} roofline {}", k.name, r);
        }
    }

    #[test]
    fn bound_labels_are_distinct() {
        let labels = [
            Bound::Compute.label(),
            Bound::Bandwidth.label(),
            Bound::Overhead.label(),
        ];
        assert_eq!(
            labels.len(),
            labels
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
        );
    }
}
