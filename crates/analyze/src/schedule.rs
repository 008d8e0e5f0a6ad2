//! Device-timeline hazard detection.
//!
//! A [`Schedule`] is a set of time slices over host, compute-stream, and
//! PCIe-link lanes, each annotated with the buffers it reads and writes.
//! [`Schedule::check`] flags:
//!
//! - two slices overlapping on the same compute stream
//!   ([`FindingKind::TimelineOverlap`]) — the simulated device executes one
//!   stream serially, so an overlap means the schedule's times are wrong;
//! - two transfers overlapping on the same PCIe link
//!   ([`FindingKind::TransferOverlap`]) — `DataParallel` serializes every
//!   scatter/broadcast/gather/reduce over the single host link;
//! - concurrent slices on *different* lanes touching the same buffer with
//!   at least one writer ([`FindingKind::BufferRace`]).
//!
//! [`data_parallel_schedule`] expands a [`DataParallel`] config + step cost
//! into the exact slice sequence `DataParallel::step_time` prices, so the
//! hazard pass can vet the multi-GPU sweeps (the paper's Fig. 6) ahead of
//! the run.

use gnn_device::{DataParallel, MultiGpuError, StepCost};

use crate::report::{Finding, FindingKind};

/// Which serialized resource a slice occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// The (single) host thread.
    Host,
    /// A device compute stream, one per GPU.
    Stream(usize),
    /// A PCIe link; `DataParallel` funnels everything over link 0.
    Link(usize),
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lane::Host => write!(f, "host"),
            Lane::Stream(g) => write!(f, "stream{g}"),
            Lane::Link(l) => write!(f, "link{l}"),
        }
    }
}

/// One occupancy interval on a lane.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// Kernel/transfer name, e.g. `"compute[1]"`.
    pub name: String,
    /// Lane the slice occupies.
    pub lane: Lane,
    /// Start time (seconds).
    pub start: f64,
    /// End time (seconds).
    pub end: f64,
    /// Buffers read.
    pub reads: Vec<String>,
    /// Buffers written.
    pub writes: Vec<String>,
}

impl Slice {
    /// A slice with no buffer annotations.
    pub fn new(name: impl Into<String>, lane: Lane, start: f64, end: f64) -> Self {
        Slice {
            name: name.into(),
            lane,
            start,
            end,
            reads: vec![],
            writes: vec![],
        }
    }

    /// Adds read buffers.
    pub fn reading<I: IntoIterator<Item = S>, S: Into<String>>(mut self, bufs: I) -> Self {
        self.reads.extend(bufs.into_iter().map(Into::into));
        self
    }

    /// Adds written buffers.
    pub fn writing<I: IntoIterator<Item = S>, S: Into<String>>(mut self, bufs: I) -> Self {
        self.writes.extend(bufs.into_iter().map(Into::into));
        self
    }
}

const EPS: f64 = 1e-12;

fn overlaps(a: &Slice, b: &Slice) -> bool {
    a.start + EPS < b.end && b.start + EPS < a.end
}

fn conflicts(a: &Slice, b: &Slice) -> Option<String> {
    for w in &a.writes {
        if b.writes.contains(w) || b.reads.contains(w) {
            return Some(w.clone());
        }
    }
    b.writes.iter().find(|w| a.reads.contains(*w)).cloned()
}

/// A full device timeline for one step/epoch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    /// All slices, any order.
    pub slices: Vec<Slice>,
}

impl Schedule {
    /// End time of the latest slice.
    pub fn makespan(&self) -> f64 {
        self.slices.iter().fold(0.0, |m, s| m.max(s.end))
    }

    /// Runs all hazard rules, appending findings rooted at `path`.
    pub fn check(&self, path: &str, out: &mut Vec<Finding>) {
        for s in &self.slices {
            if s.end < s.start {
                out.push(Finding::new(
                    FindingKind::InvalidConfig,
                    format!("{path}/{}", s.name),
                    format!(
                        "slice ends before it starts ({:.3e} < {:.3e})",
                        s.end, s.start
                    ),
                ));
            }
        }
        for (i, a) in self.slices.iter().enumerate() {
            for b in &self.slices[i + 1..] {
                if !overlaps(a, b) {
                    continue;
                }
                if a.lane == b.lane {
                    let (kind, what) = match a.lane {
                        Lane::Link(_) => (FindingKind::TransferOverlap, "transfers"),
                        _ => (FindingKind::TimelineOverlap, "kernels"),
                    };
                    out.push(Finding::new(
                        kind,
                        format!("{path}/{}", a.lane),
                        format!(
                            "{what} '{}' and '{}' overlap on {} ([{:.3e}, {:.3e}] vs [{:.3e}, {:.3e}])",
                            a.name, b.name, a.lane, a.start, a.end, b.start, b.end
                        ),
                    ));
                } else if let Some(buf) = conflicts(a, b).or_else(|| conflicts(b, a)) {
                    out.push(Finding::new(
                        FindingKind::BufferRace,
                        format!("{path}/{buf}"),
                        format!(
                            "'{}' ({}) and '{}' ({}) access buffer '{buf}' concurrently with a writer",
                            a.name, a.lane, b.name, b.lane
                        ),
                    ));
                }
            }
        }
    }
}

/// Expands one `DataParallel` training step into the slice sequence its
/// cost model prices: host load, serialized scatter chunks, parameter
/// broadcasts, parallel per-replica compute, serialized gathers, gradient
/// reduces, and the optimizer update on device 0.
pub fn data_parallel_schedule(
    dp: &DataParallel,
    step: &StepCost,
) -> Result<Schedule, MultiGpuError> {
    dp.validate()?;
    let n = dp.n_gpus;
    let nf = n as f64;

    // Phase boundaries are `DataParallel::transfer_phases`, accumulated in
    // the same left-to-right order as `DataParallel::step_time`, so the
    // schedule's makespan is bit-identical to the priced step time — not
    // merely close. Per-chunk slices fill each phase; the last slice of a
    // phase is pinned to the grouped boundary so per-chunk rounding cannot
    // drift the total.
    let [scatter, replicate, gather, reduce] = dp.transfer_phases(step);
    let end_load = step.host_load;
    let end_scatter = end_load + scatter;
    let end_replicate = end_scatter + replicate;
    let end_compute = end_replicate + step.compute;
    let end_gather = end_compute + gather;
    let end_reduce = end_gather + reduce;
    let end_update = end_reduce + step.update;

    let mut slices = Vec::new();
    slices.push(Slice::new("host_load", Lane::Host, 0.0, end_load).writing(["batch"]));

    // Scatter: one chunk per replica, serialized over link 0.
    let chunk = dp.pcie.latency + step.input_bytes as f64 / nf / dp.pcie.bandwidth;
    let mut t = end_load;
    for g in 0..n {
        let end = if g + 1 == n { end_scatter } else { t + chunk };
        slices.push(
            Slice::new(format!("scatter[{g}]"), Lane::Link(0), t, end)
                .reading(["batch"])
                .writing([format!("input[{g}]")]),
        );
        t = end;
    }

    // Replicate parameters to replicas 1..n.
    let bcast = dp.pcie.transfer_time(dp.param_bytes);
    let mut t = end_scatter;
    for g in 1..n {
        let end = if g + 1 == n { end_replicate } else { t + bcast };
        slices.push(
            Slice::new(format!("broadcast[{g}]"), Lane::Link(0), t, end)
                .reading(["params[0]"])
                .writing([format!("params[{g}]")]),
        );
        t = end;
    }

    // Forward+backward in parallel, one stream per replica, disjoint buffers.
    for g in 0..n {
        slices.push(
            Slice::new(
                format!("compute[{g}]"),
                Lane::Stream(g),
                end_replicate,
                end_compute,
            )
            .reading([format!("input[{g}]"), format!("params[{g}]")])
            .writing([format!("out[{g}]"), format!("grads[{g}]")]),
        );
    }

    // Gather outputs to device 0.
    let out_chunk = dp.pcie.latency + step.output_bytes as f64 / nf / dp.pcie.bandwidth;
    let mut t = end_compute;
    for g in 0..n {
        let end = if g + 1 == n {
            end_gather
        } else {
            t + out_chunk
        };
        slices.push(
            Slice::new(format!("gather[{g}]"), Lane::Link(0), t, end)
                .reading([format!("out[{g}]")])
                .writing(["outs"]),
        );
        t = end;
    }

    // Reduce gradients from replicas 1..n into device 0.
    let mut t = end_gather;
    for g in 1..n {
        let end = if g + 1 == n { end_reduce } else { t + bcast };
        slices.push(
            Slice::new(format!("reduce[{g}]"), Lane::Link(0), t, end)
                .reading([format!("grads[{g}]")])
                .writing(["grads[0]"]),
        );
        t = end;
    }

    slices.push(
        Slice::new("update", Lane::Stream(0), end_reduce, end_update)
            .reading(["grads[0]"])
            .writing(["params[0]"]),
    );

    Ok(Schedule { slices })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step() -> StepCost {
        StepCost {
            host_load: 5e-3,
            input_bytes: 4_000_000,
            compute: 2e-3,
            output_bytes: 40_000,
            update: 1e-4,
        }
    }

    #[test]
    fn data_parallel_schedule_is_clean_and_prices_like_step_time() {
        for n in 1..=8 {
            let dp = DataParallel::new(n, 1_000_000);
            let sched = data_parallel_schedule(&dp, &step()).unwrap();
            let mut out = vec![];
            sched.check("fig6", &mut out);
            assert!(out.is_empty(), "n={n}: {out:?}");
            // Bit-identical, not approximately equal: the schedule is the
            // authority the lint pass vets, so its price must be the exact
            // number `DataParallel::step_time` charges the sweep.
            let expect = dp.step_time(&step());
            assert_eq!(
                sched.makespan().to_bits(),
                expect.to_bits(),
                "n={n}: {} vs {expect}",
                sched.makespan()
            );
        }
    }

    #[test]
    fn pricing_stays_bit_identical_for_awkward_step_costs() {
        // Odd byte counts and zero-duration phases exercise the rounding
        // paths where per-chunk accumulation would drift off the grouped
        // totals without the pinned phase boundaries.
        let costs = [
            StepCost {
                host_load: 3.7e-3,
                input_bytes: 1_234_567,
                compute: 9.1e-4,
                output_bytes: 7_777,
                update: 3.3e-5,
            },
            StepCost {
                host_load: 0.0,
                input_bytes: 1,
                compute: 0.0,
                output_bytes: 0,
                update: 0.0,
            },
        ];
        for step in costs {
            for n in 1..=8 {
                let dp = DataParallel::new(n, 999_999);
                let sched = data_parallel_schedule(&dp, &step).unwrap();
                let mut out = vec![];
                sched.check("fig6", &mut out);
                assert!(out.is_empty(), "n={n}: {out:?}");
                assert_eq!(
                    sched.makespan().to_bits(),
                    dp.step_time(&step).to_bits(),
                    "n={n} step={step:?}"
                );
            }
        }
    }

    #[test]
    fn zero_gpus_is_a_typed_error() {
        let dp = DataParallel {
            n_gpus: 0,
            pcie: gnn_device::PcieModel::pcie3_x16(),
            param_bytes: 1,
        };
        assert_eq!(
            data_parallel_schedule(&dp, &step()),
            Err(MultiGpuError::ZeroGpus)
        );
    }

    #[test]
    fn same_stream_overlap_is_flagged() {
        let sched = Schedule {
            slices: vec![
                Slice::new("k1", Lane::Stream(0), 0.0, 2.0),
                Slice::new("k2", Lane::Stream(0), 1.0, 3.0),
            ],
        };
        let mut out = vec![];
        sched.check("t", &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].kind, FindingKind::TimelineOverlap);
        assert!(out[0].message.contains("k1"));
        assert!(out[0].message.contains("k2"));
    }

    #[test]
    fn same_link_overlap_is_a_transfer_overlap() {
        let sched = Schedule {
            slices: vec![
                Slice::new("h2d", Lane::Link(0), 0.0, 1.0),
                Slice::new("d2h", Lane::Link(0), 0.5, 1.5),
            ],
        };
        let mut out = vec![];
        sched.check("t", &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, FindingKind::TransferOverlap);
    }

    #[test]
    fn cross_lane_write_conflict_is_a_race() {
        let sched = Schedule {
            slices: vec![
                Slice::new("compute", Lane::Stream(0), 0.0, 2.0).writing(["h"]),
                Slice::new("d2h", Lane::Link(0), 1.0, 3.0).reading(["h"]),
            ],
        };
        let mut out = vec![];
        sched.check("t", &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].kind, FindingKind::BufferRace);
        assert!(out[0].path.ends_with("/h"));
    }

    #[test]
    fn disjoint_buffers_on_different_lanes_are_fine() {
        let sched = Schedule {
            slices: vec![
                Slice::new("c0", Lane::Stream(0), 0.0, 2.0).writing(["a"]),
                Slice::new("c1", Lane::Stream(1), 0.0, 2.0).writing(["b"]),
            ],
        };
        let mut out = vec![];
        sched.check("t", &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn backwards_slice_is_invalid() {
        let sched = Schedule {
            slices: vec![Slice::new("k", Lane::Host, 2.0, 1.0)],
        };
        let mut out = vec![];
        sched.check("t", &mut out);
        assert!(out.iter().any(|f| f.kind == FindingKind::InvalidConfig));
    }
}
