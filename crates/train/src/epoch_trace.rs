//! Per-epoch metrics emission into the `gnn-obs` stream.
//!
//! The run state every training loop drives (`supervisor::Run`) owns an
//! [`EpochTracker`]: once per epoch, from `Run::end_epoch`, it snapshots
//! the live session (phase times, kernel counts by kind, FLOP and byte
//! totals, peak memory, utilization) through the non-mutating accessors,
//! diffs against the previous epoch through a
//! [`gnn_obs::MetricsRegistry`] — gauges for monotone phase times,
//! counters for launch/FLOP/byte totals — and emits one
//! [`gnn_obs::EpochRecord`] plus an `epoch` instant on the `train` track.
//! Everything short-circuits when no collector is installed, so untraced
//! runs pay only an `is_active()` check per epoch.

use gnn_device::session::PHASES;
use gnn_device::Phase;
use gnn_obs as obs;
use gnn_obs::MetricsRegistry;

pub(crate) struct EpochTracker {
    run: String,
    epoch: u32,
    /// Snapshot-diffing state: `phase/<label>` gauges, `kind/<label>`,
    /// `flops`, and `bytes` counters, each advanced to the session's
    /// running total once per epoch.
    registry: MetricsRegistry,
}

impl EpochTracker {
    pub(crate) fn new(run: String) -> Self {
        EpochTracker {
            run,
            epoch: 0,
            registry: MetricsRegistry::new(),
        }
    }

    /// Emits the record for the epoch that just finished. Call at the end
    /// of each epoch, when the loop's current phase is [`Phase::Other`].
    pub(crate) fn emit(&mut self, loss: f64, accuracy: Option<f64>, lr: f64) {
        if !obs::is_active() {
            return;
        }
        // Flush the open phase span so the deltas cover the whole epoch.
        // Attribution-neutral: the time would land in Other at the next
        // transition anyway, and the loop has already synchronized.
        gnn_device::set_phase(Phase::Other);
        let Some((phases, kinds, (flops_total, bytes_total), peak, util, sim)) =
            gnn_device::session::query(|s| {
                (
                    s.phase_times_so_far(),
                    s.kind_counts_so_far().to_vec(),
                    s.counter_totals_so_far(),
                    s.memory().peak(),
                    s.utilization_so_far(),
                    s.sim_now(),
                )
            })
        else {
            return;
        };
        let phase_times: Vec<(String, f64)> = PHASES
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let dt = self
                    .registry
                    .gauge(&format!("phase/{}", p.label()))
                    .advance_to(phases[i]);
                (p.label().to_owned(), dt)
            })
            .filter(|(_, dt)| *dt > 0.0)
            .collect();
        let kernel_counts: Vec<(String, u64)> = kinds
            .iter()
            .map(|(kind, n)| {
                let dn = self
                    .registry
                    .counter(&format!("kind/{}", kind.label()))
                    .advance_to(*n);
                (kind.label().to_owned(), dn)
            })
            .filter(|(_, dn)| *dn > 0)
            .collect();
        let flops = self.registry.counter("flops").advance_to(flops_total);
        let bytes = self.registry.counter("bytes").advance_to(bytes_total);
        obs::instant(
            obs::tracks::TRAIN,
            "epoch",
            sim,
            vec![
                ("run".to_owned(), obs::Value::from(self.run.as_str())),
                ("epoch".to_owned(), obs::Value::from(self.epoch)),
                ("loss".to_owned(), obs::Value::Num(loss)),
                (
                    "accuracy".to_owned(),
                    accuracy.map(obs::Value::Num).unwrap_or(obs::Value::Null),
                ),
                ("lr".to_owned(), obs::Value::Num(lr)),
            ],
        );
        obs::epoch(obs::EpochRecord {
            run: self.run.clone(),
            epoch: self.epoch,
            loss,
            accuracy,
            lr,
            phase_times,
            kernel_counts,
            flops,
            bytes,
            peak_memory: peak,
            utilization: util,
            sim_time: sim,
            wall_time: 0.0, // stamped by the collector
        });
        self.epoch += 1;
    }
}
