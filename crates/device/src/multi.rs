//! Multi-GPU data-parallel simulation.
//!
//! Models `torch.nn.DataParallel`, which is what both frameworks use in the
//! paper's Section IV-E: each step the host collates the full mini-batch,
//! scatters input chunks to every replica over PCIe, broadcasts parameters,
//! runs forward/backward on each device, gathers outputs, and reduces
//! gradients back to device 0. Host-side data loading is *not* parallelized —
//! the root cause of the paper's observation that going from 4 to 8 GPUs
//! brings no improvement (and sometimes a regression from transfer overhead).

use std::fmt;

/// Why a data-parallel configuration is rejected before any simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiGpuError {
    /// `n_gpus == 0`: there is no device to schedule on.
    ZeroGpus,
    /// `n_steps == 0`: an epoch with no steps has no defined schedule.
    ZeroSteps,
}

impl fmt::Display for MultiGpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiGpuError::ZeroGpus => write!(f, "data-parallel config needs at least one GPU"),
            MultiGpuError::ZeroSteps => {
                write!(f, "data-parallel epoch needs at least one step")
            }
        }
    }
}

impl std::error::Error for MultiGpuError {}

/// PCIe link model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieModel {
    /// Effective bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Per-transfer latency in seconds.
    pub latency: f64,
}

impl PcieModel {
    /// PCIe 3.0 x16 with realistic effective bandwidth (~12 GB/s of the
    /// 15.75 GB/s theoretical) and DMA setup latency.
    pub fn pcie3_x16() -> Self {
        PcieModel {
            bandwidth: 12.0e9,
            latency: 20.0e-6,
        }
    }

    /// Time to move `bytes` over the link.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

impl Default for PcieModel {
    fn default() -> Self {
        PcieModel::pcie3_x16()
    }
}

/// Configuration of a simulated `DataParallel` setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataParallel {
    /// Number of replicas (GPUs).
    pub n_gpus: usize,
    /// Interconnect model.
    pub pcie: PcieModel,
    /// Total model parameter bytes (broadcast + gradient-reduce volume).
    pub param_bytes: u64,
}

/// Per-step cost inputs for one mini-batch.
///
/// `compute` is the forward+backward device time for *one replica's share*
/// (batch / n_gpus); callers measure it by running the real model on a
/// sub-batch under a throwaway [`crate::Session`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepCost {
    /// Host-side batch collation time (serialized, never parallelized).
    pub host_load: f64,
    /// Bytes of input features/topology for the whole batch.
    pub input_bytes: u64,
    /// Device forward+backward time for one replica's sub-batch.
    pub compute: f64,
    /// Bytes of outputs gathered back to device 0.
    pub output_bytes: u64,
}

impl DataParallel {
    /// Creates a config over PCIe 3.0 x16.
    pub fn new(n_gpus: usize, param_bytes: u64) -> Self {
        assert!(n_gpus >= 1, "need at least one GPU");
        DataParallel {
            n_gpus,
            pcie: PcieModel::pcie3_x16(),
            param_bytes,
        }
    }

    /// Checks the configuration is well-formed (at least one replica).
    pub fn validate(&self) -> Result<(), MultiGpuError> {
        if self.n_gpus == 0 {
            return Err(MultiGpuError::ZeroGpus);
        }
        Ok(())
    }

    /// Simulated wall time of one training step: host load, the four PCIe
    /// phases around the parallel compute (scatter and replicate before,
    /// gather and reduce after).
    pub fn step_time(&self, step: &StepCost) -> f64 {
        let n = self.n_gpus as f64;
        // Scatter: the full input crosses the host link once, plus one DMA
        // setup per replica chunk.
        let scatter = n * self.pcie.latency + step.input_bytes as f64 / self.pcie.bandwidth;
        // Replicate: DataParallel broadcasts module parameters every step to
        // replicas 1..n.
        let replicate = (n - 1.0) * self.pcie.transfer_time(self.param_bytes);
        // Gather outputs to device 0.
        let gather = n * self.pcie.latency + step.output_bytes as f64 / self.pcie.bandwidth;
        // Reduce gradients from replicas 1..n to device 0.
        let reduce = (n - 1.0) * self.pcie.transfer_time(self.param_bytes);
        step.host_load + scatter + replicate + step.compute + gather + reduce
    }

    /// Simulated wall time of an epoch of identical steps.
    ///
    /// Rejects degenerate configs (`n_gpus == 0` — possible via a struct
    /// literal that bypasses [`DataParallel::new`] — or `n_steps == 0`)
    /// with a typed error instead of silently computing a meaningless time.
    pub fn epoch_time(&self, step: &StepCost, n_steps: usize) -> Result<f64, MultiGpuError> {
        self.validate()?;
        if n_steps == 0 {
            return Err(MultiGpuError::ZeroSteps);
        }
        Ok(self.step_time(step) * n_steps as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(compute: f64) -> StepCost {
        StepCost {
            host_load: 5e-3,
            input_bytes: 4_000_000,
            compute,
            output_bytes: 40_000,
        }
    }

    #[test]
    fn single_gpu_has_no_replication_cost() {
        let dp1 = DataParallel::new(1, 1_000_000);
        let dp2 = DataParallel::new(2, 1_000_000);
        // Same per-replica compute: 2 GPUs must be strictly slower because of
        // replication/reduction overhead.
        assert!(dp2.step_time(&step(1e-3)) > dp1.step_time(&step(1e-3)));
    }

    #[test]
    fn scaling_saturates_when_host_load_dominates() {
        // Mirrors Fig. 6: compute halves with replica count, but host data
        // loading is serialized, so 4 -> 8 GPUs shows no improvement.
        let param_bytes = 2_000_000;
        let full_compute = 20e-3;
        let t: Vec<f64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&n| DataParallel::new(n, param_bytes).step_time(&step(full_compute / n as f64)))
            .collect();
        assert!(t[1] < t[0], "2 GPUs should beat 1: {t:?}");
        assert!(t[2] < t[1], "4 GPUs should beat 2: {t:?}");
        let gain_4_to_8 = (t[2] - t[3]) / t[2];
        assert!(
            gain_4_to_8 < 0.10,
            "4->8 should be nearly flat or worse: {t:?}"
        );
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let p = PcieModel::pcie3_x16();
        assert!(p.transfer_time(1 << 20) < p.transfer_time(1 << 24));
        assert!(p.transfer_time(0) == p.latency);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_rejected() {
        DataParallel::new(0, 1);
    }

    #[test]
    fn epoch_time_scales_steps() {
        let dp = DataParallel::new(2, 1_000_000);
        let one = dp.epoch_time(&step(1e-3), 1).unwrap();
        let ten = dp.epoch_time(&step(1e-3), 10).unwrap();
        assert!((ten - 10.0 * one).abs() < 1e-12);
    }

    #[test]
    fn degenerate_epoch_configs_return_typed_errors() {
        // A struct literal can bypass `new`'s assert; epoch_time must still
        // reject it with a typed error rather than computing garbage.
        let bad = DataParallel {
            n_gpus: 0,
            pcie: PcieModel::pcie3_x16(),
            param_bytes: 1,
        };
        assert_eq!(bad.epoch_time(&step(1e-3), 4), Err(MultiGpuError::ZeroGpus));
        let ok = DataParallel::new(2, 1);
        assert_eq!(ok.epoch_time(&step(1e-3), 0), Err(MultiGpuError::ZeroSteps));
        assert!(MultiGpuError::ZeroGpus
            .to_string()
            .contains("at least one GPU"));
        assert!(MultiGpuError::ZeroSteps
            .to_string()
            .contains("at least one step"));
    }
}
