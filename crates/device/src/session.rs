//! Profiling sessions: the glue between the tensor engine and the device model.
//!
//! A [`Session`] owns a [`Timeline`], a [`MemoryTracker`], and a
//! [`CostModel`], attributes elapsed simulated time to training *phases*
//! (the categories of the paper's Figs. 1–2) and to named *scopes* (the
//! per-layer bars of Fig. 3). Tensor ops report kernels through the
//! thread-local free functions ([`record`], [`host`], [`alloc`], ...), which
//! are no-ops when no session is installed so instrumented code runs
//! unconditionally.

use std::cell::RefCell;
use std::rc::Rc;

use gnn_obs as obs;

use crate::cost::CostModel;
use crate::kernel::{Kernel, KernelKind};
use crate::memory::MemoryTracker;
use crate::timeline::Timeline;

/// A session-protocol violation, surfaced instead of a panic so supervised
/// training (`gnn_train::supervisor`) can fold it into its typed
/// `TrainError` rather than aborting a whole sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// [`Session::try_scope_exit`] was called with no scope open.
    ScopeExitWithoutEnter,
    /// [`try_finish`] was called while other clones of the handle's session
    /// were still alive.
    HandleStillShared,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::ScopeExitWithoutEnter => write!(f, "scope_exit without scope_enter"),
            SessionError::HandleStillShared => write!(f, "session handle still shared at finish"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Training-loop phase, matching the execution-time breakdown of the paper's
/// Figs. 1–2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Mini-batch fetch + collation into a disjoint-union graph.
    DataLoad,
    /// Forward propagation.
    Forward,
    /// Backward propagation.
    Backward,
    /// Optimizer parameter update.
    Update,
    /// Everything else (metrics, bookkeeping, evaluation).
    Other,
}

/// All phases in display order.
pub const PHASES: [Phase; 5] = [
    Phase::DataLoad,
    Phase::Forward,
    Phase::Backward,
    Phase::Update,
    Phase::Other,
];

impl Phase {
    fn index(self) -> usize {
        match self {
            Phase::DataLoad => 0,
            Phase::Forward => 1,
            Phase::Backward => 2,
            Phase::Update => 3,
            Phase::Other => 4,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::DataLoad => "data_load",
            Phase::Forward => "forward",
            Phase::Backward => "backward",
            Phase::Update => "update",
            Phase::Other => "other",
        }
    }
}

/// A live profiling session.
#[derive(Debug)]
pub struct Session {
    cost: CostModel,
    timeline: Timeline,
    memory: MemoryTracker,
    phase: Phase,
    phase_start: f64,
    phase_times: [f64; 5],
    scope_stack: Vec<(String, f64)>,
    scope_times: Vec<(String, f64)>,
    profile: Vec<KindProfile>,
    total_flops: u64,
    total_bytes: u64,
    /// Whether a phase span is currently open on the trace (tracing only).
    trace_phase_open: bool,
}

/// Accumulated counters for one kernel kind over a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindProfile {
    /// The kernel kind.
    pub kind: KernelKind,
    /// Number of launches.
    pub launches: u64,
    /// Total floating-point operations.
    pub flops: u64,
    /// Total DRAM traffic in bytes (reads + writes).
    pub bytes: u64,
    /// Total device execution time in seconds (includes kernel overhead).
    pub device_time: f64,
}

impl KindProfile {
    /// Arithmetic intensity of this kind's aggregate work, FLOP/byte.
    pub fn intensity(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.flops as f64 / self.bytes as f64
        }
    }
}

impl Session {
    /// Creates a session with the given cost model, starting in
    /// [`Phase::Other`].
    pub fn new(cost: CostModel) -> Self {
        Session {
            cost,
            timeline: Timeline::new(),
            memory: MemoryTracker::new(),
            phase: Phase::Other,
            phase_start: 0.0,
            phase_times: [0.0; 5],
            scope_stack: Vec::new(),
            scope_times: Vec::new(),
            profile: Vec::new(),
            total_flops: 0,
            total_bytes: 0,
            trace_phase_open: false,
        }
    }

    /// Records a kernel launch: host pays launch overhead, device queues the
    /// kernel's roofline duration.
    pub fn record(&mut self, kernel: Kernel) {
        if gnn_faults::is_active() {
            gnn_faults::on_kernel(kernel.name, self.sim_now());
        }
        let counters = self.cost.counters(&kernel);
        let launch = self.cost.launch_time();
        let (start, end) = self.timeline.launch(launch, counters.duration);
        if obs::is_active() {
            obs::sched_launch(
                crate::cost::kind_index(kernel.kind) as u8,
                launch,
                counters.duration,
            );
        }
        match self.profile.iter_mut().find(|p| p.kind == kernel.kind) {
            Some(p) => {
                p.launches += 1;
                p.flops += kernel.flops;
                p.bytes += kernel.bytes;
                p.device_time += counters.duration;
            }
            None => self.profile.push(KindProfile {
                kind: kernel.kind,
                launches: 1,
                flops: kernel.flops,
                bytes: kernel.bytes,
                device_time: counters.duration,
            }),
        }
        self.total_flops += kernel.flops;
        self.total_bytes += kernel.bytes;
        if obs::is_active() {
            obs::complete(
                obs::tracks::KERNELS,
                kernel.name,
                start,
                end - start,
                vec![
                    ("kind".to_owned(), obs::Value::from(kernel.kind.label())),
                    ("flops".to_owned(), obs::Value::from(kernel.flops)),
                    ("bytes".to_owned(), obs::Value::from(kernel.bytes)),
                    (
                        "bytes_read".to_owned(),
                        obs::Value::from(counters.bytes_read),
                    ),
                    (
                        "bytes_written".to_owned(),
                        obs::Value::from(counters.bytes_written),
                    ),
                    ("ai".to_owned(), obs::Value::Num(counters.intensity)),
                    ("roofline".to_owned(), obs::Value::Num(counters.roofline)),
                    ("bound".to_owned(), obs::Value::from(counters.bound.label())),
                ],
            );
        }
    }

    /// Advances the host clock by `seconds` of pure host work, divided by
    /// the cost model's what-if host speedup (`1.0` on real models).
    pub fn host(&mut self, seconds: f64) {
        let applied = seconds / self.cost.host_speedup();
        self.timeline.host(applied);
        if obs::is_active() {
            obs::sched_host(applied);
        }
    }

    /// Synchronizes the timeline, recording the sync on the captured
    /// schedule — syncs decide how device speedups propagate to the host
    /// clock, so causal replay needs every one of them.
    fn sync(&mut self) {
        self.timeline.sync();
        if obs::is_active() {
            obs::sched_sync();
        }
    }

    /// Switches the current phase, synchronizing and attributing the elapsed
    /// span to the previous phase.
    pub fn set_phase(&mut self, phase: Phase) {
        self.sync();
        let now = self.timeline.now();
        self.phase_times[self.phase.index()] += now - self.phase_start;
        self.phase = phase;
        self.phase_start = now;
        if obs::is_active() {
            if self.trace_phase_open {
                obs::span_end(obs::tracks::PHASE, now);
            }
            obs::span_begin(obs::tracks::PHASE, phase.label(), now);
            self.trace_phase_open = true;
        }
    }

    /// The simulated time a sync would land at, without performing one.
    ///
    /// Unlike [`Session::now`] this never mutates the timeline, so the
    /// tracing layer can timestamp events without perturbing phase
    /// attribution — a traced run and an untraced run stay identical.
    pub fn sim_now(&self) -> f64 {
        self.timeline.horizon()
    }

    /// Phase times attributed so far (excludes the currently open phase
    /// span), indexed like [`PHASES`].
    pub fn phase_times_so_far(&self) -> [f64; 5] {
        self.phase_times
    }

    /// Kernel launch counts per kind so far, in first-seen order.
    pub fn kind_counts_so_far(&self) -> Vec<(KernelKind, u64)> {
        self.profile.iter().map(|p| (p.kind, p.launches)).collect()
    }

    /// Total `(flops, bytes)` accumulated across all launches so far.
    pub fn counter_totals_so_far(&self) -> (u64, u64) {
        (self.total_flops, self.total_bytes)
    }

    /// Accumulated device busy time so far. Non-mutating, like
    /// [`Session::sim_now`].
    pub fn busy_so_far(&self) -> f64 {
        self.timeline.busy()
    }

    /// Device utilization so far: busy time over the simulated horizon.
    pub fn utilization_so_far(&self) -> f64 {
        let elapsed = self.timeline.horizon();
        if elapsed <= 0.0 {
            0.0
        } else {
            (self.timeline.busy() / elapsed).clamp(0.0, 1.0)
        }
    }

    /// Current simulated host time.
    pub fn now(&mut self) -> f64 {
        self.sync();
        self.timeline.now()
    }

    /// Enters a named scope (e.g. `"conv1"`). Scopes nest; a span is
    /// attributed to every scope on the stack when it closes.
    pub fn scope_enter(&mut self, name: &str) {
        self.sync();
        self.scope_stack
            .push((name.to_owned(), self.timeline.now()));
        if obs::is_active() {
            obs::span_begin(obs::tracks::SCOPES, name, self.timeline.now());
        }
    }

    /// Exits the innermost scope.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open; supervised code paths use
    /// [`Session::try_scope_exit`] instead.
    pub fn scope_exit(&mut self) {
        if let Err(e) = self.try_scope_exit() {
            panic!("{e}");
        }
    }

    /// Exits the innermost scope, reporting a protocol violation instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::ScopeExitWithoutEnter`] if no scope is open.
    pub fn try_scope_exit(&mut self) -> Result<(), SessionError> {
        self.sync();
        let (name, start) = self
            .scope_stack
            .pop()
            .ok_or(SessionError::ScopeExitWithoutEnter)?;
        let dur = self.timeline.now() - start;
        match self.scope_times.iter_mut().find(|(n, _)| *n == name) {
            Some((_, t)) => *t += dur,
            None => self.scope_times.push((name, dur)),
        }
        if obs::is_active() {
            obs::span_end(obs::tracks::SCOPES, self.timeline.now());
        }
        Ok(())
    }

    /// Registers a step-scoped device allocation.
    pub fn alloc(&mut self, bytes: u64) {
        if gnn_faults::is_active() {
            gnn_faults::on_alloc(bytes, self.memory.current(), self.sim_now());
        }
        self.memory.alloc(bytes);
        self.trace_memory();
    }

    /// Releases a step-scoped device allocation early.
    pub fn free(&mut self, bytes: u64) {
        self.memory.free(bytes);
        self.trace_memory();
    }

    /// Registers a persistent device allocation (parameters, optimizer state).
    pub fn alloc_persistent(&mut self, bytes: u64) {
        if gnn_faults::is_active() {
            gnn_faults::on_alloc(bytes, self.memory.current(), self.sim_now());
        }
        self.memory.alloc_persistent(bytes);
        self.trace_memory();
    }

    /// Ends a training step: releases all step-scoped memory.
    pub fn end_step(&mut self) {
        self.memory.end_step();
        self.trace_memory();
    }

    fn trace_memory(&self) {
        if obs::is_active() {
            obs::counter(
                obs::tracks::MEMORY,
                "device_bytes",
                self.memory.current() as f64,
                self.sim_now(),
            );
        }
    }

    /// Read-only view of the memory tracker.
    pub fn memory(&self) -> &MemoryTracker {
        &self.memory
    }

    /// The session's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Finalizes the session into a report.
    pub fn into_report(mut self) -> DeviceReport {
        self.set_phase(Phase::Other); // flush the open phase span
        if self.trace_phase_open {
            obs::span_end(obs::tracks::PHASE, self.timeline.now());
        }
        let kind_counts = self.kind_counts_so_far();
        DeviceReport {
            total_time: self.timeline.now(),
            busy_time: self.timeline.busy(),
            kernel_count: self.timeline.kernel_count(),
            phase_times: self.phase_times,
            peak_memory: self.memory.peak(),
            persistent_memory: self.memory.persistent(),
            scopes: self.scope_times,
            kind_counts,
            profile: self.profile,
            total_flops: self.total_flops,
            total_bytes: self.total_bytes,
            peak_flops: self.cost.peak_flops,
            peak_bw: self.cost.peak_bw,
        }
    }
}

/// Summary of a finished [`Session`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Total simulated wall time in seconds.
    pub total_time: f64,
    /// Accumulated device busy time in seconds.
    pub busy_time: f64,
    /// Number of kernels launched.
    pub kernel_count: u64,
    /// Time per phase, indexed like [`PHASES`].
    pub phase_times: [f64; 5],
    /// Peak device memory in bytes.
    pub peak_memory: u64,
    /// Persistent (parameter/optimizer) memory in bytes.
    pub persistent_memory: u64,
    /// Accumulated time per named scope, in first-seen order.
    pub scopes: Vec<(String, f64)>,
    /// Kernel launch counts per kind, in first-seen order.
    pub kind_counts: Vec<(KernelKind, u64)>,
    /// Accumulated counters per kind, in first-seen order.
    pub profile: Vec<KindProfile>,
    /// Total floating-point operations across all launches.
    pub total_flops: u64,
    /// Total DRAM traffic in bytes across all launches.
    pub total_bytes: u64,
    /// Peak FLOP rate of the session's cost model (for roofline fractions).
    pub peak_flops: f64,
    /// Peak DRAM bandwidth of the session's cost model.
    pub peak_bw: f64,
}

impl DeviceReport {
    /// GPU compute utilization per the paper's Eq. (5): busy / elapsed.
    pub fn utilization(&self) -> f64 {
        if self.total_time <= 0.0 {
            0.0
        } else {
            (self.busy_time / self.total_time).clamp(0.0, 1.0)
        }
    }

    /// Device time spent in transfer kernels.
    pub fn transfer_time(&self) -> f64 {
        // fold from +0.0: an empty `sum()` is IEEE -0.0, which would leak
        // a negative zero into reports for runs with no transfers.
        self.profile
            .iter()
            .filter(|p| p.kind == KernelKind::Transfer)
            .fold(0.0, |acc, p| acc + p.device_time)
    }

    /// Device time spent in compute (non-transfer) kernels.
    pub fn kernel_exec_time(&self) -> f64 {
        (self.busy_time - self.transfer_time()).max(0.0)
    }

    /// Time the device sat idle: elapsed minus busy.
    pub fn idle_time(&self) -> f64 {
        (self.total_time - self.busy_time).max(0.0)
    }

    /// Aggregate arithmetic intensity of the run, FLOP/byte.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.total_flops as f64 / self.total_bytes as f64
        }
    }

    /// Attained roofline fraction over device busy time: the larger of the
    /// achieved FLOP rate over peak FLOP/s and the achieved DRAM rate over
    /// peak bandwidth, clamped to `[0, 1]`.
    pub fn roofline_utilization(&self) -> f64 {
        if self.busy_time <= 0.0 || self.peak_flops <= 0.0 || self.peak_bw <= 0.0 {
            return 0.0;
        }
        let flop_frac = self.total_flops as f64 / self.busy_time / self.peak_flops;
        let bw_frac = self.total_bytes as f64 / self.busy_time / self.peak_bw;
        flop_frac.max(bw_frac).clamp(0.0, 1.0)
    }

    /// Time attributed to `phase` in seconds.
    pub fn phase_time(&self, phase: Phase) -> f64 {
        self.phase_times[phase.index()]
    }

    /// Time attributed to the named scope, if it was ever entered.
    pub fn scope_time(&self, name: &str) -> Option<f64> {
        self.scopes.iter().find(|(n, _)| n == name).map(|(_, t)| *t)
    }
}

impl std::fmt::Display for DeviceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "total {:.3} ms | busy {:.3} ms | util {:.1}% | {} kernels | peak mem {:.1} MB",
            self.total_time * 1e3,
            self.busy_time * 1e3,
            self.utilization() * 100.0,
            self.kernel_count,
            self.peak_memory as f64 / 1e6
        )?;
        writeln!(
            f,
            "  {:.2} GFLOP | {:.2} GB moved | AI {:.2} flop/B | roofline {:.1}%",
            self.total_flops as f64 / 1e9,
            self.total_bytes as f64 / 1e9,
            self.arithmetic_intensity(),
            self.roofline_utilization() * 100.0
        )?;
        for (phase, t) in PHASES.iter().zip(&self.phase_times) {
            writeln!(f, "  {:<10} {:.3} ms", phase.label(), t * 1e3)?;
        }
        for (name, t) in &self.scopes {
            writeln!(f, "  scope {:<12} {:.3} ms", name, t * 1e3)?;
        }
        Ok(())
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<RefCell<Session>>>> = const { RefCell::new(None) };
    static DEFAULT_COST: RefCell<Option<CostModel>> = const { RefCell::new(None) };
}

/// The cost model training and serving runners create their sessions with:
/// the paper's RTX 2080Ti unless a what-if harness has scoped an overlay in
/// with [`with_default_cost_model`].
pub fn default_cost_model() -> CostModel {
    DEFAULT_COST.with(|m| {
        m.borrow()
            .as_ref()
            .cloned()
            .unwrap_or_else(CostModel::rtx2080ti)
    })
}

/// Runs `f` with `model` installed as this thread's default cost model,
/// restoring the previous default afterwards (also on panic). The causal
/// profiler's conformance pass uses this to re-run a whole training cell
/// under a hypothetically sped-up model without threading the model through
/// every runner signature.
pub fn with_default_cost_model<T>(model: CostModel, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<CostModel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            DEFAULT_COST.with(|m| *m.borrow_mut() = prev);
        }
    }
    let prev = DEFAULT_COST.with(|m| m.borrow_mut().replace(model));
    let _restore = Restore(prev);
    f()
}

/// Handle to an installed session; pass back to [`finish`] to retrieve the
/// report.
#[derive(Debug, Clone)]
pub struct SessionHandle(Rc<RefCell<Session>>);

/// Installs `session` as the thread-local profiling session, replacing any
/// previous one.
pub fn install(session: Session) -> SessionHandle {
    let rc = Rc::new(RefCell::new(session));
    if obs::is_active() {
        // Each session restarts simulated time at zero; a new trace
        // generation keeps its events on their own Chrome-trace process.
        obs::session_started();
        let mut s = rc.borrow_mut();
        obs::span_begin(obs::tracks::PHASE, s.phase.label(), s.sim_now());
        s.trace_phase_open = true;
    }
    CURRENT.with(|c| *c.borrow_mut() = Some(rc.clone()));
    SessionHandle(rc)
}

/// Uninstalls the session and returns its report.
///
/// # Panics
///
/// Panics if other clones of the handle's session are still alive;
/// supervised code paths use [`try_finish`] instead.
pub fn finish(handle: SessionHandle) -> DeviceReport {
    match try_finish(handle) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// Uninstalls the session and returns its report, reporting a protocol
/// violation instead of panicking.
///
/// # Errors
///
/// Returns [`SessionError::HandleStillShared`] if other clones of the
/// handle's session are still alive (the session stays uninstalled — the
/// surviving clone holders keep it alive, but free functions no longer
/// reach it).
pub fn try_finish(handle: SessionHandle) -> Result<DeviceReport, SessionError> {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        if let Some(rc) = cur.as_ref() {
            if Rc::ptr_eq(rc, &handle.0) {
                *cur = None;
            }
        }
    });
    let session = Rc::try_unwrap(handle.0)
        .map_err(|_| SessionError::HandleStillShared)?
        .into_inner();
    Ok(session.into_report())
}

/// Runs `f` with the current session and returns its result, if any.
pub fn query<T, F: FnOnce(&Session) -> T>(f: F) -> Option<T> {
    CURRENT.with(|c| c.borrow().as_ref().map(|rc| f(&rc.borrow())))
}

/// Current simulated time on this thread's session (0 without one).
///
/// Non-mutating: reads the timeline horizon without synchronizing, so
/// instrumentation using it cannot perturb the simulation.
pub fn sim_now() -> f64 {
    query(Session::sim_now).unwrap_or(0.0)
}

/// Runs `f` with the current session, if any.
pub fn with<F: FnOnce(&mut Session)>(f: F) {
    CURRENT.with(|c| {
        if let Some(rc) = c.borrow().as_ref() {
            f(&mut rc.borrow_mut());
        }
    });
}

/// Records a kernel on the current session (no-op without one).
pub fn record(kernel: Kernel) {
    with(|s| s.record(kernel));
}

/// Advances the current session's host clock (no-op without one).
pub fn host(seconds: f64) {
    with(|s| s.host(seconds));
}

/// Switches the current session's phase (no-op without one).
pub fn set_phase(phase: Phase) {
    with(|s| s.set_phase(phase));
}

/// Registers a step-scoped allocation (no-op without a session).
pub fn alloc(bytes: u64) {
    with(|s| s.alloc(bytes));
}

/// Releases a step-scoped allocation (no-op without a session).
pub fn free(bytes: u64) {
    with(|s| s.free(bytes));
}

/// Runs `f` inside a named scope on the current session.
pub fn scope<T, F: FnOnce() -> T>(name: &str, f: F) -> T {
    with(|s| s.scope_enter(name));
    let out = f();
    with(|s| s.scope_exit());
    out
}

/// Runs `f` inside a pure tracing span on `track`, timestamped with the
/// non-mutating simulated clock.
///
/// Unlike [`scope`] this never synchronizes the timeline and never touches
/// scope accounting: with tracing disabled it is exactly `f()`, and with
/// tracing enabled the simulation still proceeds identically. Framework
/// internals (message-passing lowerings, fused kernels) use it to appear
/// as named slices in the Chrome trace.
///
/// With a session installed the slice carries the hardware counters the
/// wrapped work accumulated — FLOPs, DRAM bytes, arithmetic intensity, and
/// the attained roofline fraction over the device time it occupied — read
/// through the non-mutating accessors before and after `f`. Without a
/// session it degrades to a plain begin/end span pair.
pub fn traced<T, F: FnOnce() -> T>(track: &'static str, name: &str, f: F) -> T {
    if !obs::is_active() {
        return f();
    }
    let before = query(|s| (s.sim_now(), s.counter_totals_so_far(), s.busy_so_far()));
    let Some((start, (flops0, bytes0), busy0)) = before else {
        obs::span_begin(track, name, 0.0);
        let out = f();
        obs::span_end(track, 0.0);
        return out;
    };
    let out = f();
    let after = query(|s| {
        (
            s.sim_now(),
            s.counter_totals_so_far(),
            s.busy_so_far(),
            (s.cost_model().peak_flops, s.cost_model().peak_bw),
        )
    });
    let Some((end, (flops1, bytes1), busy1, (peak_flops, peak_bw))) = after else {
        return out;
    };
    let flops = flops1 - flops0;
    let bytes = bytes1 - bytes0;
    let busy = busy1 - busy0;
    let ai = if bytes == 0 {
        0.0
    } else {
        flops as f64 / bytes as f64
    };
    let roofline = if busy <= 0.0 {
        0.0
    } else {
        let flop_frac = flops as f64 / busy / peak_flops;
        let bw_frac = bytes as f64 / busy / peak_bw;
        flop_frac.max(bw_frac).clamp(0.0, 1.0)
    };
    obs::complete(
        track,
        name,
        start,
        (end - start).max(0.0),
        vec![
            ("flops".to_owned(), obs::Value::from(flops)),
            ("bytes".to_owned(), obs::Value::from(bytes)),
            ("ai".to_owned(), obs::Value::Num(ai)),
            ("roofline".to_owned(), obs::Value::Num(roofline)),
        ],
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_model() -> CostModel {
        CostModel::builder()
            .launch_overhead(1e-6)
            .kernel_overhead(1e-6)
            .build()
    }

    #[test]
    fn phases_accumulate_disjointly() {
        let mut s = Session::new(fast_model());
        s.set_phase(Phase::DataLoad);
        s.host(1.0);
        s.set_phase(Phase::Forward);
        s.record(Kernel::gemm("mm", 64, 64, 64));
        let report = s.into_report();
        assert!(report.phase_time(Phase::DataLoad) >= 1.0);
        assert!(report.phase_time(Phase::Forward) > 0.0);
        let sum: f64 = report.phase_times.iter().sum();
        assert!(
            (sum - report.total_time).abs() < 1e-9,
            "phases must partition total time"
        );
    }

    #[test]
    fn scopes_capture_layer_times() {
        let mut s = Session::new(fast_model());
        s.scope_enter("conv1");
        s.record(Kernel::gemm("mm", 128, 128, 128));
        s.scope_exit();
        s.scope_enter("conv2");
        s.record(Kernel::gemm("mm", 64, 64, 64));
        s.scope_exit();
        let report = s.into_report();
        let c1 = report.scope_time("conv1").unwrap();
        let c2 = report.scope_time("conv2").unwrap();
        assert!(c1 > c2, "bigger layer must take longer: {c1} vs {c2}");
        assert!(report.scope_time("conv3").is_none());
    }

    #[test]
    fn nested_scopes_attribute_to_all_levels() {
        let mut s = Session::new(fast_model());
        s.scope_enter("layer");
        s.scope_enter("inner");
        s.record(Kernel::elementwise("relu", 10_000, 1, 2));
        s.scope_exit();
        s.scope_exit();
        let report = s.into_report();
        let outer = report.scope_time("layer").unwrap();
        let inner = report.scope_time("inner").unwrap();
        assert!(outer >= inner);
    }

    #[test]
    fn thread_local_install_and_finish() {
        let h = install(Session::new(fast_model()));
        record(Kernel::gemm("mm", 8, 8, 8));
        host(0.5);
        alloc(1000);
        let report = finish(h);
        assert_eq!(report.kernel_count, 1);
        assert!(report.total_time >= 0.5);
        assert_eq!(report.peak_memory, 1000);
    }

    #[test]
    fn free_functions_are_noops_without_session() {
        // Must not panic or accumulate anywhere.
        record(Kernel::gemm("mm", 8, 8, 8));
        host(1.0);
        alloc(10);
        free(10);
        set_phase(Phase::Forward);
        let v = scope("s", || 42);
        assert_eq!(v, 42);
    }

    #[test]
    fn utilization_bounds() {
        let mut s = Session::new(fast_model());
        s.host(10.0); // long idle host span
        s.record(Kernel::gemm("mm", 8, 8, 8));
        let report = s.into_report();
        let u = report.utilization();
        assert!((0.0..=1.0).contains(&u));
        assert!(u < 0.01);
    }

    #[test]
    fn end_step_resets_activation_memory() {
        let h = install(Session::new(fast_model()));
        with(|s| s.alloc_persistent(100));
        alloc(900);
        with(|s| s.end_step());
        alloc(50);
        let report = finish(h);
        assert_eq!(report.peak_memory, 1000);
        assert_eq!(report.persistent_memory, 100);
    }

    #[test]
    fn report_display_is_informative() {
        let mut s = Session::new(fast_model());
        s.scope_enter("conv1");
        s.record(Kernel::gemm("mm", 64, 64, 64));
        s.scope_exit();
        let text = format!("{}", s.into_report());
        assert!(text.contains("util"));
        assert!(text.contains("conv1"));
        assert!(text.contains("forward") || text.contains("other"));
    }

    #[test]
    fn profile_accumulates_counters_per_kind() {
        let mut s = Session::new(fast_model());
        let a = Kernel::gemm("a", 8, 8, 8);
        let b = Kernel::gemm("b", 8, 8, 8);
        let t = Kernel::transfer("h2d", 4096);
        s.record(a);
        s.record(b);
        s.record(t);
        let report = s.into_report();
        let gemm = report
            .profile
            .iter()
            .find(|p| p.kind == KernelKind::Gemm)
            .unwrap();
        assert_eq!(gemm.launches, 2);
        assert_eq!(gemm.flops, a.flops + b.flops);
        assert_eq!(gemm.bytes, a.bytes + b.bytes);
        assert!(gemm.device_time > 0.0);
        assert_eq!(report.total_flops, a.flops + b.flops);
        assert_eq!(report.total_bytes, a.bytes + b.bytes + t.bytes);
        // Kernel/transfer/idle partition the elapsed time.
        let whole = report.kernel_exec_time() + report.transfer_time() + report.idle_time();
        assert!((whole - report.total_time).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&report.roofline_utilization()));
        assert!(report.arithmetic_intensity() > 0.0);
    }

    #[test]
    fn kernel_slices_carry_counter_args_when_traced() {
        let oh = obs::install(obs::Collector::new());
        let h = install(Session::new(fast_model()));
        record(Kernel::gemm("mm", 64, 64, 64));
        finish(h);
        let trace = obs::finish(oh);
        let slice = trace
            .events
            .iter()
            .find_map(|e| match &e.kind {
                obs::EventKind::Complete { name, args, .. } if name == "mm" => Some(args),
                _ => None,
            })
            .expect("kernel slice");
        for key in [
            "kind",
            "flops",
            "bytes",
            "bytes_read",
            "bytes_written",
            "ai",
            "roofline",
            "bound",
        ] {
            assert!(slice.iter().any(|(k, _)| k == key), "missing arg {key}");
        }
    }

    #[test]
    fn traced_slices_carry_counter_deltas() {
        let oh = obs::install(obs::Collector::new());
        let h = install(Session::new(fast_model()));
        let k = Kernel::gemm("mm", 64, 64, 64);
        traced("rustyg", "agg", || record(k));
        finish(h);
        let trace = obs::finish(oh);
        let args = trace
            .events
            .iter()
            .find_map(|e| match &e.kind {
                obs::EventKind::Complete { name, args, .. }
                    if e.track == "rustyg" && name == "agg" =>
                {
                    Some(args)
                }
                _ => None,
            })
            .expect("traced slice");
        let get = |key: &str| {
            args.iter()
                .find(|(n, _)| n == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing arg {key}"))
        };
        assert_eq!(get("flops").as_u64(), Some(k.flops));
        assert_eq!(get("bytes").as_u64(), Some(k.bytes));
        assert!(get("ai").as_f64().unwrap() > 0.0);
        let roofline = get("roofline").as_f64().unwrap();
        assert!((0.0..=1.0).contains(&roofline) && roofline > 0.0);
    }

    #[test]
    fn default_cost_model_scopes_and_restores() {
        assert_eq!(default_cost_model(), CostModel::rtx2080ti());
        let overlaid =
            CostModel::rtx2080ti().with_speedups(&crate::cost::Speedups::component(0, 2.0));
        let inner = with_default_cost_model(overlaid.clone(), default_cost_model);
        assert_eq!(inner, overlaid);
        assert_eq!(default_cost_model(), CostModel::rtx2080ti());
        // Restores the previous default even when `f` panics.
        let _ = std::panic::catch_unwind(|| {
            with_default_cost_model(overlaid, || panic!("boom"));
        });
        assert_eq!(default_cost_model(), CostModel::rtx2080ti());
    }

    fn capture_run(model: CostModel) -> (DeviceReport, obs::Trace) {
        let oh = obs::install(obs::Collector::new());
        let h = install(Session::new(model));
        set_phase(Phase::DataLoad);
        host(1e-3);
        set_phase(Phase::Forward);
        record(Kernel::gemm("mm", 64, 64, 64));
        record(Kernel::gather("g", 1000, 16));
        scope("layer", || {
            record(Kernel::elementwise("relu", 10_000, 1, 2))
        });
        host(2e-5);
        record(Kernel::transfer("h2d", 1 << 16));
        let report = finish(h);
        (report, obs::finish(oh))
    }

    #[test]
    fn captured_schedule_replays_overlaid_reruns_bit_exactly() {
        use gnn_obs::whatif::{replay_schedule, Speedups, WHATIF_COMPONENTS};
        let (base_report, base_trace) = capture_run(CostModel::rtx2080ti());
        assert!(!base_trace.schedule.is_empty());
        let identity = replay_schedule(&base_trace.schedule, &Speedups::identity());
        assert_eq!(identity.total, base_report.total_time);
        assert_eq!(identity.busy, base_report.busy_time);
        assert_eq!(identity.launches, base_report.kernel_count);
        for component in 0..WHATIF_COMPONENTS {
            for k in [1.1, 1.25, 1.5, 2.0, f64::INFINITY] {
                let s = Speedups::component(component, k);
                let predicted = replay_schedule(&base_trace.schedule, &s);
                let (re_report, _) = capture_run(CostModel::rtx2080ti().with_speedups(&s));
                assert_eq!(
                    predicted.total, re_report.total_time,
                    "prediction must equal the real re-run for component {component} at {k}x"
                );
                assert_eq!(predicted.busy, re_report.busy_time);
            }
        }
    }

    #[test]
    fn kind_counts_tally_launches() {
        let mut s = Session::new(fast_model());
        s.record(Kernel::gemm("a", 8, 8, 8));
        s.record(Kernel::gemm("b", 8, 8, 8));
        s.record(Kernel::gather("g", 10, 4));
        let report = s.into_report();
        assert_eq!(
            report
                .kind_counts
                .iter()
                .find(|(k, _)| *k == KernelKind::Gemm)
                .unwrap()
                .1,
            2
        );
        assert_eq!(
            report
                .kind_counts
                .iter()
                .find(|(k, _)| *k == KernelKind::Gather)
                .unwrap()
                .1,
            1
        );
    }
}
