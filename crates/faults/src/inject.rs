//! The thread-local fault injector.
//!
//! Mirrors the install pattern of `gnn_device::session` and `gnn_obs`:
//! [`install`] arms a [`FaultPlan`] for the current thread and returns an
//! [`InjectorHandle`]; the free hook functions ([`on_alloc`], [`on_kernel`],
//! [`on_dp_step`], [`poison_loss`]) are called from the real device,
//! training and serving code paths and are no-ops while nothing is
//! installed; [`finish`] disarms the injector and returns the [`FaultLog`]
//! of everything that fired.
//!
//! Faults that model asynchronous device errors (OOM, kernel corruption)
//! are *sticky*: the hook records a pending [`Fault`] and lets execution
//! continue, and the supervisor observes it at the next step boundary via
//! [`take_pending`] — the same programming model CUDA imposes on real
//! training loops.
//!
//! All triggers count deterministic workload events (allocations, kernel
//! launches, data-parallel steps) since install; the `sim`
//! arguments are simulated-time stamps supplied by the caller and are used
//! only for logging and trace emission, never for triggering.

use std::cell::RefCell;
use std::fmt;

use crate::plan::{FaultKind, FaultPlan};
use gnn_obs::{tracks, Value};

/// A fault the supervisor must react to, surfaced by [`take_pending`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// A device allocation of `bytes` failed (one-shot OOM or a persistent
    /// memory ceiling).
    Oom {
        /// Size of the allocation that failed.
        bytes: u64,
    },
    /// Kernel `name` launched but produced corrupt results.
    Kernel {
        /// Name of the faulted kernel.
        name: String,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Oom { bytes } => write!(f, "device OOM allocating {bytes} B"),
            Fault::Kernel { name } => write!(f, "kernel fault in `{name}`"),
        }
    }
}

/// One fired fault, as recorded in the [`FaultLog`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Stable kind label (`oom`, `memlimit`, `kernel`, `replica`, `nan`,
    /// `blackout`, `netslow`).
    pub kind: &'static str,
    /// Human-readable description of what fired.
    pub detail: String,
    /// Simulated time at which the fault fired.
    pub sim: f64,
    /// Training epoch current when the fault fired (per [`set_epoch`]).
    pub epoch: u64,
    /// Sweep cell current when the fault fired (per [`set_cell`]).
    pub cell: String,
}

/// Everything an injector fired over its lifetime, in firing order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLog {
    /// Fired faults, oldest first.
    pub events: Vec<FaultEvent>,
}

impl FaultLog {
    /// Number of fired faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing fired.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// One-line-per-event rendering for reports and CSV cells.
    pub fn summary(&self) -> String {
        self.events
            .iter()
            .map(|e| format!("{}:{}", e.kind, e.detail))
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// The armed fault state for one thread.
#[derive(Debug)]
pub struct Injector {
    plan: FaultPlan,
    /// One flag per plan spec; one-shot kinds set theirs on first fire.
    fired: Vec<bool>,
    /// Deterministic workload counters (events seen since install).
    allocs: u64,
    kernels: u64,
    dp_steps: u64,
    /// Sticky fault awaiting [`take_pending`].
    pending: Option<Fault>,
    epoch: u64,
    cell: String,
    log: FaultLog,
}

impl Injector {
    fn new(plan: FaultPlan) -> Self {
        let n = plan.specs.len();
        Injector {
            plan,
            fired: vec![false; n],
            allocs: 0,
            kernels: 0,
            dp_steps: 0,
            pending: None,
            epoch: 0,
            cell: String::new(),
            log: FaultLog::default(),
        }
    }

    fn fire(&mut self, kind: &'static str, detail: String, sim: f64) {
        gnn_obs::instant(
            tracks::FAULTS,
            kind,
            sim,
            vec![
                ("detail".to_owned(), Value::from(detail.as_str())),
                ("epoch".to_owned(), Value::from(self.epoch as f64)),
                ("cell".to_owned(), Value::from(self.cell.as_str())),
            ],
        );
        self.log.events.push(FaultEvent {
            kind,
            detail,
            sim,
            epoch: self.epoch,
            cell: self.cell.clone(),
        });
    }
}

thread_local! {
    static INJECTOR: RefCell<Option<Injector>> = const { RefCell::new(None) };
}

/// Token proving an injector is armed; pass to [`finish`] to disarm.
#[must_use = "dropping the handle leaves the injector armed; pass it to finish()"]
#[derive(Debug)]
pub struct InjectorHandle(());

/// Arms `plan` for the current thread, replacing any previous injector
/// (a replaced injector's log is discarded — a prior cell that panicked
/// mid-run must not leak faults into the next).
pub fn install(plan: FaultPlan) -> InjectorHandle {
    INJECTOR.with(|slot| *slot.borrow_mut() = Some(Injector::new(plan)));
    InjectorHandle(())
}

/// Disarms the current thread's injector and returns its [`FaultLog`].
pub fn finish(handle: InjectorHandle) -> FaultLog {
    let _ = handle;
    INJECTOR
        .with(|slot| slot.borrow_mut().take())
        .map(|inj| inj.log)
        .unwrap_or_default()
}

/// Whether an injector is armed on this thread.
pub fn is_active() -> bool {
    INJECTOR.with(|slot| slot.borrow().is_some())
}

fn with<T>(f: impl FnOnce(&mut Injector) -> T) -> Option<T> {
    INJECTOR.with(|slot| slot.borrow_mut().as_mut().map(f))
}

/// Tells the injector which training epoch is current (for `nan epoch=N`
/// triggers and event attribution). No-op when inactive.
pub fn set_epoch(epoch: u64) {
    with(|inj| inj.epoch = epoch);
}

/// Tells the injector which sweep cell is current (event attribution only).
/// No-op when inactive.
pub fn set_cell(cell: &str) {
    with(|inj| inj.cell = cell.to_owned());
}

/// Fired events from index `n` onward — lets the sweep runner slice the log
/// per cell without disarming the injector.
pub fn events_since(n: usize) -> Vec<FaultEvent> {
    with(|inj| inj.log.events.get(n..).unwrap_or_default().to_vec()).unwrap_or_default()
}

/// Takes the sticky pending fault, if any. Supervisors call this at step
/// boundaries — the injection sites themselves never unwind.
pub fn take_pending() -> Option<Fault> {
    with(|inj| inj.pending.take()).flatten()
}

/// Device-allocation hook: `bytes` requested with `current` bytes already
/// resident, at simulated time `sim`. May set a sticky OOM.
pub fn on_alloc(bytes: u64, current: u64, sim: f64) {
    with(|inj| {
        inj.allocs += 1;
        let at_now = inj.allocs;
        for i in 0..inj.plan.specs.len() {
            match inj.plan.specs[i].kind {
                FaultKind::Oom { at } if !inj.fired[i] && at_now == at => {
                    inj.fired[i] = true;
                    inj.pending = Some(Fault::Oom { bytes });
                    inj.fire("oom", format!("allocation #{at_now} of {bytes} B"), sim);
                }
                // A memory ceiling refires on every allocation that would
                // exceed it: degradation (smaller batches), not retry, is
                // the only way out.
                FaultKind::MemLimit { bytes: limit } if current + bytes > limit => {
                    inj.fired[i] = true;
                    inj.pending = Some(Fault::Oom { bytes });
                    inj.fire(
                        "memlimit",
                        format!("{} + {bytes} B exceeds {limit} B ceiling", current),
                        sim,
                    );
                }
                _ => {}
            }
        }
    });
}

/// Kernel-launch hook. May set a sticky kernel fault.
pub fn on_kernel(name: &str, sim: f64) {
    with(|inj| {
        inj.kernels += 1;
        let at_now = inj.kernels;
        for i in 0..inj.plan.specs.len() {
            if let FaultKind::KernelFault { at } = inj.plan.specs[i].kind {
                if !inj.fired[i] && at_now == at {
                    inj.fired[i] = true;
                    inj.pending = Some(Fault::Kernel {
                        name: name.to_owned(),
                    });
                    inj.fire("kernel", format!("launch #{at_now} `{name}`"), sim);
                }
            }
        }
    });
}

/// Data-parallel step hook: returns `Some(replica)` if a replica (0-based,
/// `< n_gpus`) fails at this step. The serving dispatch loop, its only
/// caller, sheds that replica.
pub fn on_dp_step(n_gpus: usize, sim: f64) -> Option<usize> {
    with(|inj| {
        inj.dp_steps += 1;
        let at_now = inj.dp_steps;
        let mut failed = None;
        for i in 0..inj.plan.specs.len() {
            if let FaultKind::ReplicaFailure { gpu, at } = inj.plan.specs[i].kind {
                if !inj.fired[i] && at_now == at && gpu < n_gpus {
                    inj.fired[i] = true;
                    failed = Some(gpu);
                    inj.fire(
                        "replica",
                        format!("replica {gpu} died at dp step #{at_now}"),
                        sim,
                    );
                }
            }
        }
        failed
    })
    .flatten()
}

/// Fleet shard-blackout hook: returns `Some(until)` if shard `shard` is
/// blacked out at simulated time `sim` (i.e. some `blackout` spec's window
/// `[from, until)` contains `sim`), giving the router the earliest time the
/// shard can come back. Fires the trace/log event once per spec, on the
/// first observation inside its window. `None` when healthy or when no
/// injector is armed.
///
/// Unlike the counter-triggered hooks this is a pure *query* of simulated
/// time — the serve clock is deterministic, so so is the trigger.
pub fn shard_down(shard: usize, sim: f64) -> Option<f64> {
    with(|inj| {
        let mut down_until = None;
        for i in 0..inj.plan.specs.len() {
            if let FaultKind::ShardBlackout {
                shard: s,
                from,
                until,
            } = inj.plan.specs[i].kind
            {
                if s == shard && from <= sim && sim < until {
                    if !inj.fired[i] {
                        inj.fired[i] = true;
                        inj.fire(
                            "blackout",
                            format!("shard {s} dark over [{from}, {until}) s"),
                            sim,
                        );
                    }
                    down_until = Some(down_until.map_or(until, |u: f64| u.max(until)));
                }
            }
        }
        down_until
    })
    .flatten()
}

/// Fleet network-straggler hook: returns the router↔shard slowdown
/// multiplier for traffic to `shard` at simulated time `sim` (1.0 when no
/// `netslow` window is active or no injector is armed). Fires the trace/log
/// event once per spec, on the first observation inside its window.
pub fn shard_net_factor(shard: usize, sim: f64) -> f64 {
    with(|inj| {
        let mut factor = 1.0;
        for i in 0..inj.plan.specs.len() {
            if let FaultKind::NetStraggler {
                shard: s,
                from,
                until,
                factor: f,
            } = inj.plan.specs[i].kind
            {
                if s == shard && from <= sim && sim < until {
                    if !inj.fired[i] {
                        inj.fired[i] = true;
                        inj.fire(
                            "netslow",
                            format!("shard {s} link ×{f} over [{from}, {until}) s"),
                            sim,
                        );
                    }
                    factor *= f;
                }
            }
        }
        factor
    })
    .unwrap_or(1.0)
}

/// Loss-poisoning hook: returns `loss`, or NaN if a `nan epoch=N` spec
/// fires for the current epoch (one-shot).
pub fn poison_loss(loss: f32, sim: f64) -> f32 {
    with(|inj| {
        let mut out = loss;
        for i in 0..inj.plan.specs.len() {
            if let FaultKind::NanLoss { epoch } = inj.plan.specs[i].kind {
                if !inj.fired[i] && inj.epoch == epoch {
                    inj.fired[i] = true;
                    out = f32::NAN;
                    inj.fire("nan", format!("loss poisoned at epoch {epoch}"), sim);
                }
            }
        }
        out
    })
    .unwrap_or(loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultKind, FaultPlan};

    fn plan(kinds: &[FaultKind]) -> FaultPlan {
        kinds.iter().fold(FaultPlan::empty(), |p, &k| p.with(k))
    }

    #[test]
    fn hooks_are_noops_without_install() {
        assert!(!is_active());
        on_alloc(100, 0, 0.0);
        on_kernel("gemm", 0.0);
        assert_eq!(on_dp_step(4, 0.0), None);
        assert_eq!(poison_loss(0.5, 0.0), 0.5);
        assert_eq!(take_pending(), None);
        assert!(events_since(0).is_empty());
    }

    #[test]
    fn oom_is_one_shot_and_sticky() {
        let h = install(plan(&[FaultKind::Oom { at: 2 }]));
        on_alloc(10, 0, 0.0);
        assert_eq!(take_pending(), None);
        on_alloc(20, 10, 1.0);
        assert_eq!(take_pending(), Some(Fault::Oom { bytes: 20 }));
        assert_eq!(take_pending(), None, "take_pending clears the fault");
        on_alloc(20, 10, 2.0); // same index never refires
        assert_eq!(take_pending(), None);
        let log = finish(h);
        assert_eq!(log.len(), 1);
        assert_eq!(log.events[0].kind, "oom");
        assert!(!is_active());
    }

    #[test]
    fn memlimit_refires_until_pressure_drops() {
        let h = install(plan(&[FaultKind::MemLimit { bytes: 100 }]));
        on_alloc(60, 50, 0.0);
        assert!(take_pending().is_some());
        on_alloc(60, 50, 1.0);
        assert!(take_pending().is_some(), "ceiling refires");
        on_alloc(40, 50, 2.0);
        assert_eq!(take_pending(), None, "under the ceiling passes");
        assert_eq!(finish(h).len(), 2);
    }

    #[test]
    fn kernel_fault_names_the_kernel() {
        let h = install(plan(&[FaultKind::KernelFault { at: 1 }]));
        on_kernel("spmm", 0.5);
        assert_eq!(
            take_pending(),
            Some(Fault::Kernel {
                name: "spmm".into()
            })
        );
        finish(h);
    }

    #[test]
    fn straggler_and_replica_fire_at_their_indices() {
        let h = install(plan(&[
            FaultKind::NetStraggler {
                shard: 1,
                from: 0.0,
                until: 10.0,
                factor: 4.0,
            },
            FaultKind::ReplicaFailure { gpu: 1, at: 2 },
        ]));
        assert_eq!(shard_net_factor(0, 1.0), 1.0);
        assert_eq!(shard_net_factor(1, 1.0), 4.0);
        assert_eq!(on_dp_step(4, 3.0), None);
        assert_eq!(on_dp_step(4, 4.0), Some(1));
        assert_eq!(on_dp_step(4, 5.0), None);
        assert_eq!(finish(h).len(), 2);
    }

    #[test]
    fn replica_outside_world_never_fires() {
        let h = install(plan(&[FaultKind::ReplicaFailure { gpu: 7, at: 1 }]));
        assert_eq!(on_dp_step(2, 0.0), None);
        assert!(finish(h).is_empty());
    }

    #[test]
    fn nan_poisons_once_at_its_epoch() {
        let h = install(plan(&[FaultKind::NanLoss { epoch: 1 }]));
        assert_eq!(poison_loss(0.7, 0.0), 0.7, "epoch 0 untouched");
        set_epoch(1);
        assert!(poison_loss(0.7, 1.0).is_nan());
        assert_eq!(poison_loss(0.6, 2.0), 0.6, "one-shot");
        finish(h);
    }

    #[test]
    fn events_since_slices_per_cell() {
        let h = install(plan(&[
            FaultKind::Oom { at: 1 },
            FaultKind::KernelFault { at: 1 },
        ]));
        set_cell("cell-a");
        on_alloc(8, 0, 0.0);
        let _ = take_pending();
        let mark = events_since(0).len();
        set_cell("cell-b");
        on_kernel("gemm", 1.0);
        let _ = take_pending();
        let tail = events_since(mark);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].cell, "cell-b");
        assert_eq!(tail[0].kind, "kernel");
        let log = finish(h);
        assert_eq!(log.events[0].cell, "cell-a");
        assert_eq!(log.summary().matches(';').count(), 1);
    }

    #[test]
    fn blackout_windows_answer_by_simulated_time() {
        let h = install(plan(&[FaultKind::ShardBlackout {
            shard: 1,
            from: 0.5,
            until: 1.5,
        }]));
        assert_eq!(shard_down(1, 0.0), None, "before the window");
        assert_eq!(shard_down(0, 1.0), None, "other shards unaffected");
        assert_eq!(shard_down(1, 0.5), Some(1.5), "window start is inclusive");
        assert_eq!(
            shard_down(1, 1.0),
            Some(1.5),
            "repeat queries keep answering"
        );
        assert_eq!(shard_down(1, 1.5), None, "window end is exclusive");
        let log = finish(h);
        assert_eq!(log.len(), 1, "event fires once per spec: {log:?}");
        assert_eq!(log.events[0].kind, "blackout");
    }

    #[test]
    fn net_straggler_scales_only_inside_its_window() {
        let h = install(plan(&[FaultKind::NetStraggler {
            shard: 0,
            from: 1.0,
            until: 2.0,
            factor: 4.0,
        }]));
        assert_eq!(shard_net_factor(0, 0.5), 1.0);
        assert_eq!(shard_net_factor(1, 1.5), 1.0, "other shards unaffected");
        assert_eq!(shard_net_factor(0, 1.0), 4.0);
        assert_eq!(shard_net_factor(0, 1.9), 4.0, "still active, logged once");
        assert_eq!(shard_net_factor(0, 2.0), 1.0, "window end is exclusive");
        let log = finish(h);
        assert_eq!(log.len(), 1, "{log:?}");
        assert_eq!(log.events[0].kind, "netslow");
    }

    #[test]
    fn fleet_hooks_are_noops_without_install() {
        assert!(!is_active());
        assert_eq!(shard_down(0, 1.0), None);
        assert_eq!(shard_net_factor(0, 1.0), 1.0);
    }

    #[test]
    fn install_replaces_previous_injector() {
        let _stale = install(plan(&[FaultKind::Oom { at: 1 }]));
        on_alloc(8, 0, 0.0);
        let h = install(plan(&[]));
        assert_eq!(take_pending(), None, "stale pending discarded");
        assert!(finish(h).is_empty(), "stale log discarded");
    }
}
