//! Multi-GPU training composition (the paper's Section IV-E / Fig. 6).
//!
//! `torch.nn.DataParallel` semantics: the host loads and collates the full
//! mini-batch, scatters shards to N replicas, broadcasts parameters, runs
//! forward/backward in parallel, gathers outputs and reduces gradients to
//! device 0. Per-replica compute is *measured* — the real model runs on a
//! shard under a throwaway profiling session — and composed with the PCIe
//! transfer model of [`gnn_device::multi`].

use gnn_device::multi::{DataParallel, StepCost};
use gnn_device::Session;
use gnn_models::{GnnStack, Loader, ModelBatch};
use gnn_tensor::cross_entropy;

use crate::supervisor::{Supervised, TrainError};

/// Configuration of one Fig. 6 measurement point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiGpuConfig {
    /// Number of simulated GPUs.
    pub n_gpus: usize,
    /// Global mini-batch size (split across replicas).
    pub batch_size: usize,
    /// Number of samples per epoch.
    pub epoch_samples: usize,
}

/// Simulated epoch time of data-parallel training, in seconds.
///
/// # Panics
///
/// Panics if the config has zero GPUs, batch size, or samples.
pub fn data_parallel_epoch_time<L: Loader>(
    model: &GnnStack<L::Batch>,
    loader: &L,
    cfg: &MultiGpuConfig,
) -> f64 {
    assert!(
        cfg.n_gpus >= 1 && cfg.batch_size >= 1 && cfg.epoch_samples >= 1,
        "bad config"
    );
    let n_batches = cfg.epoch_samples.div_ceil(cfg.batch_size);
    let (host_load, input_bytes) = measure_host_load(loader, cfg.batch_size);
    let (compute, output_bytes) = measure_shard_compute(model, loader, cfg.batch_size, cfg.n_gpus);
    let step = StepCost {
        host_load,
        input_bytes,
        compute,
        output_bytes,
        // Update time folded into the measured compute span.
        update: 0.0,
    };
    DataParallel::new(cfg.n_gpus, model.param_bytes())
        .epoch_time(&step, n_batches)
        .expect("validated config")
}

/// One Fig. 6 point as a job for [`crate::cell::with_graph_stack`]: the
/// data-parallel epoch time of whichever framework's stack it is handed.
impl crate::cell::GraphJob for &MultiGpuConfig {
    type Out = f64;

    fn run<L: Loader>(self, stack: &GnnStack<L::Batch>, loader: &L) -> f64 {
        data_parallel_epoch_time(stack, loader, self)
    }
}

/// Host-side collation cost and input size of the full batch (serialized;
/// DataParallel never parallelizes loading — the paper's scaling ceiling).
fn measure_host_load<L: Loader>(loader: &L, batch_size: usize) -> (f64, u64) {
    let full_idx: Vec<u32> = (0..batch_size as u32).collect();
    let handle = gnn_device::session::install(Session::new(gnn_device::default_cost_model()));
    let full_batch = loader.load(&full_idx);
    let load_report = gnn_device::session::finish(handle);
    let input_bytes = full_batch.feature_bytes() + 8 * full_batch.num_edges() as u64;
    (load_report.total_time, input_bytes)
}

/// Per-replica compute time and output size: runs the real model on one
/// shard of the batch under a throwaway profiling session.
fn measure_shard_compute<L: Loader>(
    model: &GnnStack<L::Batch>,
    loader: &L,
    batch_size: usize,
    n_gpus: usize,
) -> (f64, u64) {
    let shard = (batch_size / n_gpus).max(1);
    let shard_idx: Vec<u32> = (0..shard as u32).collect();
    let shard_batch = loader.load(&shard_idx);
    let handle = gnn_device::session::install(Session::new(gnn_device::default_cost_model()));
    let logits = model.forward(&shard_batch, true);
    let loss = cross_entropy(&logits, shard_batch.labels());
    loss.backward();
    let compute_report = gnn_device::session::finish(handle);
    for p in model.params() {
        p.zero_grad();
    }
    let output_bytes = (logits.shape().0 * logits.shape().1 * 4) as u64;
    (compute_report.total_time, output_bytes)
}

/// Supervised variant of [`data_parallel_epoch_time`]: steps through the
/// epoch one mini-batch at a time so an injected replica failure
/// (`gnn-faults`) can be absorbed mid-epoch — the world shrinks by one GPU,
/// the per-replica shard compute is re-measured at the new (larger) shard
/// size, and the schedule is re-priced for the remaining steps. PCIe
/// straggler faults slow individual transfer segments through the armed
/// injector inside `DataParallel::step_time`.
///
/// # Errors
///
/// Returns [`TrainError::WorldCollapsed`] if every replica fails.
///
/// # Panics
///
/// Panics on a zero-GPU/batch/sample config, exactly like the unsupervised
/// function.
pub fn data_parallel_epoch_time_supervised<L: Loader>(
    model: &GnnStack<L::Batch>,
    loader: &L,
    cfg: &MultiGpuConfig,
) -> Result<Supervised<f64>, TrainError> {
    assert!(
        cfg.n_gpus >= 1 && cfg.batch_size >= 1 && cfg.epoch_samples >= 1,
        "bad config"
    );
    let n_batches = cfg.epoch_samples.div_ceil(cfg.batch_size);
    let (host_load, input_bytes) = measure_host_load(loader, cfg.batch_size);

    let mut n_gpus = cfg.n_gpus;
    let (mut compute, mut output_bytes) =
        measure_shard_compute(model, loader, cfg.batch_size, n_gpus);
    let mut dp = DataParallel::new(n_gpus, model.param_bytes());
    let mut degraded = false;
    let mut notes = Vec::new();
    let mut total = 0.0f64;
    for _ in 0..n_batches {
        if let Some(gpu) = gnn_faults::on_dp_step(n_gpus, total) {
            if n_gpus == 1 {
                return Err(TrainError::WorldCollapsed);
            }
            n_gpus -= 1;
            degraded = true;
            notes.push(format!(
                "replica {gpu} failed: shrinking world to {n_gpus} GPUs and re-pricing"
            ));
            let (c, o) = measure_shard_compute(model, loader, cfg.batch_size, n_gpus);
            compute = c;
            output_bytes = o;
            dp = DataParallel::new(n_gpus, model.param_bytes());
        }
        let step = StepCost {
            host_load,
            input_bytes,
            compute,
            output_bytes,
            update: 0.0,
        };
        total += dp.step_time(&step);
    }
    Ok(Supervised {
        outcome: total,
        degraded,
        retries: 0,
        notes,
        losses: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_datasets::SuperpixelSpec;
    use gnn_models::adapt::RustygLoader;
    use gnn_models::{build, ModelKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scaling_curve_has_fig6_shape() {
        let ds = SuperpixelSpec::mnist().scaled(0.003).generate(0);
        let mut rng = StdRng::seed_from_u64(0);
        let model = build::graph_model_rustyg(ModelKind::Gcn, 1, 10, &mut rng);
        let loader = RustygLoader::new(&ds);
        let times: Vec<f64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&n| {
                data_parallel_epoch_time(
                    &model,
                    &loader,
                    &MultiGpuConfig {
                        n_gpus: n,
                        batch_size: 128,
                        epoch_samples: 512,
                    },
                )
            })
            .collect();
        // 1 -> 2 and 2 -> 4 give (at most modest) improvement; 4 -> 8 is
        // flat or worse, matching the paper's Fig. 6 narrative.
        assert!(times[1] <= times[0] * 1.02, "{times:?}");
        assert!(times[2] <= times[1] * 1.02, "{times:?}");
        let gain = (times[2] - times[3]) / times[2];
        assert!(gain < 0.15, "4->8 should not improve much: {times:?}");
        // Data loading keeps everything in the same ballpark: no superlinear
        // nonsense.
        assert!(times[3] > times[0] * 0.3, "{times:?}");
    }

    #[test]
    fn replica_failure_shrinks_world_and_reprices() {
        use gnn_faults::{FaultKind, FaultPlan};
        let ds = SuperpixelSpec::mnist().scaled(0.003).generate(2);
        let mut rng = StdRng::seed_from_u64(2);
        let model = build::graph_model_rustyg(ModelKind::Gcn, 1, 10, &mut rng);
        let loader = RustygLoader::new(&ds);
        let cfg = MultiGpuConfig {
            n_gpus: 4,
            batch_size: 64,
            epoch_samples: 512,
        };
        let clean = data_parallel_epoch_time_supervised(&model, &loader, &cfg).unwrap();
        assert!(!clean.degraded);
        assert!((clean.outcome - data_parallel_epoch_time(&model, &loader, &cfg)).abs() < 1e-9);

        let h = gnn_faults::install(
            FaultPlan::empty().with(FaultKind::ReplicaFailure { gpu: 1, at: 2 }),
        );
        let hurt = data_parallel_epoch_time_supervised(&model, &loader, &cfg).unwrap();
        let log = gnn_faults::finish(h);
        assert!(hurt.degraded);
        assert_eq!(log.len(), 1);
        assert!(
            hurt.notes[0].contains("shrinking world to 3 GPUs"),
            "{:?}",
            hurt.notes
        );
        // Three GPUs carry larger shards for the rest of the epoch: slower.
        assert!(
            hurt.outcome > clean.outcome,
            "{} vs {}",
            hurt.outcome,
            clean.outcome
        );
    }

    #[test]
    fn world_collapse_is_typed() {
        use gnn_faults::{FaultKind, FaultPlan};
        let ds = SuperpixelSpec::mnist().scaled(0.002).generate(3);
        let mut rng = StdRng::seed_from_u64(3);
        let model = build::graph_model_rustyg(ModelKind::Gcn, 1, 10, &mut rng);
        let loader = RustygLoader::new(&ds);
        let h = gnn_faults::install(
            FaultPlan::empty()
                .with(FaultKind::ReplicaFailure { gpu: 1, at: 1 })
                .with(FaultKind::ReplicaFailure { gpu: 0, at: 2 }),
        );
        let err = data_parallel_epoch_time_supervised(
            &model,
            &loader,
            &MultiGpuConfig {
                n_gpus: 2,
                batch_size: 16,
                epoch_samples: 64,
            },
        )
        .unwrap_err();
        gnn_faults::finish(h);
        assert_eq!(err, crate::supervisor::TrainError::WorldCollapsed);
    }

    #[test]
    #[should_panic(expected = "bad config")]
    fn zero_gpus_rejected() {
        let ds = SuperpixelSpec::mnist().scaled(0.002).generate(1);
        let mut rng = StdRng::seed_from_u64(1);
        let model = build::graph_model_rustyg(ModelKind::Gcn, 1, 10, &mut rng);
        let loader = RustygLoader::new(&ds);
        data_parallel_epoch_time(
            &model,
            &loader,
            &MultiGpuConfig {
                n_gpus: 0,
                batch_size: 8,
                epoch_samples: 8,
            },
        );
    }
}
