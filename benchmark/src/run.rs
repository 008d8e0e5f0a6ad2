//! The run protocol: set-ups, warm-up, measured rounds, checks, and the
//! traced variant that times the unrolled loops and the micro-set.

use std::time::{Duration, Instant};

use crate::digest::Digest;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::span::Tracer;
use crate::stats::{summarize, Summary};
use crate::workloads::{timed, CellRun, Unrolled, Workload};
use crate::{alloc, layers, micro, procfs};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured rounds, however short `--seconds` is.
const MIN_ROUNDS: usize = 4;
/// Unrolled rounds with tracing and allocation counting on.
const TRACED_ROUNDS: u32 = 2;

/// What one invocation measured.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Hash over every cell's `sim_digest`, in cell order.
    pub sim_digest: u64,
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Printed above the result line: spreads, diagnostics, failed checks.
    pub notes: Vec<String>,
}

/// The correctness checks every run applies to what the entry points
/// return. No golden value is pinned: rounds are held against each other.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// The first round's cell names and digests.
    reference: Vec<(String, u64)>,
}

impl Checks {
    /// Every round of a cell must return finite floats, conserve its
    /// requests, and reproduce the first round's digest bit for bit. A
    /// failing check counts as a failed operation.
    fn round(&mut self, cells: &[CellRun]) {
        let first = self.reference.is_empty();
        for (i, c) in cells.iter().enumerate() {
            self.attempted += c.attempted;
            self.failed += c.failed;
            if !c.finite {
                self.failed += 1;
                self.problems
                    .push(format!("{}: non-finite value returned", c.name));
            }
            if !c.conserved {
                self.failed += 1;
                self.problems.push(format!(
                    "{}: answered + rejected + shed != requests, or a request was dropped",
                    c.name
                ));
            }
            if first {
                self.reference.push((c.name.clone(), c.digest));
            } else if self.reference.get(i) != Some(&(c.name.clone(), c.digest)) {
                self.failed += 1;
                self.problems.push(format!(
                    "{}: sim_digest {:016x} differs from the first round's",
                    c.name, c.digest
                ));
            }
        }
    }

    /// What only the unrolled loops see: every step's loss is finite, and a
    /// cell with at least two comparable steps ends below where it began.
    fn losses(&mut self, un: &Unrolled) {
        for (cell, losses) in un.cells.iter().zip(&un.losses) {
            if losses.iter().any(|l| !l.is_finite()) {
                self.failed += 1;
                self.problems
                    .push(format!("{}: non-finite training loss", cell.name));
            }
            if let (Some(first), Some(last)) = (losses.first(), losses.last()) {
                if un.comparable_steps && losses.len() >= 2 && last >= first {
                    self.failed += 1;
                    self.problems.push(format!(
                        "{}: loss did not fall over {} steps ({first} -> {last})",
                        cell.name,
                        losses.len()
                    ));
                }
            }
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

fn items(cells: &[CellRun]) -> u64 {
    cells.iter().map(|c| c.items).sum()
}

fn round_digest(cells: &[CellRun]) -> u64 {
    let mut d = Digest::new();
    cells.iter().for_each(|c| d.u64(c.digest));
    d.finish()
}

/// Wall seconds of one round: its cells' walls, summed.
fn round_wall_s(cells: &[CellRun]) -> f64 {
    cells.iter().map(|c| c.wall_s).sum()
}

/// The round wall time the throughput is taken over: each cell's lower
/// quartile across the rounds, summed over the cells. On this shared
/// machine a neighbour slows whole stretches of a run by up to half and
/// never speeds one up, so the noise is one-sided; the lower quartile drops
/// the slowed rounds cell by cell and still needs two fast rounds to agree.
/// (`measure` runs at least `MIN_ROUNDS`; under three the quartile rule
/// would extrapolate below the fastest.)
fn steady_round_s(rounds: &[Vec<CellRun>]) -> f64 {
    (0..rounds[0].len())
        .map(|i| {
            let walls: Vec<f64> = rounds.iter().map(|cells| cells[i].wall_s).collect();
            summarize(&walls).q1
        })
        .sum()
}

fn spread(label: &str, s: &Summary) -> String {
    format!(
        "  {label}: median {:.4} s, quartiles {:.4} .. {:.4}, min {:.4}, n={}",
        s.median, s.q1, s.q3, s.min, s.n
    )
}

fn failed_checks(checks: &Checks) -> impl Iterator<Item = String> + '_ {
    checks
        .problems
        .iter()
        .map(|p| format!("  CHECK FAILED {p}"))
}

/// Sets the workload up `SETUPS` times, each time through a warm-up round,
/// and keeps the last. Returns it with the set-up wall times.
fn set_up<W: Workload>(seed: u64, checks: &mut Checks) -> (W, Vec<f64>) {
    let off = Tracer::new(false);
    let mut kept = None;
    let mut walls = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        // Free the previous copy first, or peak RSS would count two.
        drop(kept.take());
        let ((w, cells), wall) = timed(|| {
            let w = W::setup(seed, &off);
            let cells = w.round();
            (w, cells)
        });
        checks.round(&cells);
        walls.push(wall);
        kept = Some(w);
    }
    (kept.expect("SETUPS > 0"), walls)
}

/// Entry-point rounds until `seconds` have passed, at least `MIN_ROUNDS`.
fn measure<W: Workload>(w: &W, seconds: f64, checks: &mut Checks) -> Vec<Vec<CellRun>> {
    let budget = Duration::from_secs_f64(seconds);
    let began = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || began.elapsed() < budget {
        let cells = w.round();
        checks.round(&cells);
        rounds.push(cells);
    }
    rounds
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end<W: Workload>(seed: u64, seconds: f64) -> RunOutput {
    let mut checks = Checks::default();
    let (w, setups) = set_up::<W>(seed, &mut checks);
    let rounds = measure(&w, seconds, &mut checks);

    let cells = &rounds[0];
    let walls: Vec<f64> = rounds.iter().map(|r| round_wall_s(r)).collect();
    let steady_s = steady_round_s(&rounds);
    let setup = summarize(&setups);
    let peak_rss_mb = procfs::peak_rss_mb().unwrap_or_else(|| {
        checks
            .problems
            .push("VmHWM not readable from /proc/self/status".to_owned());
        0.0
    });
    let values = [
        items(cells) as f64 / steady_s,
        setup.median,
        peak_rss_mb,
        cells.iter().map(|c| c.sim_s).sum(),
    ];
    let mut notes = vec![
        format!(
            "  items per round: {}; round wall as the sum of per-cell lower quartiles: {steady_s:.4} s",
            items(cells)
        ),
        spread("round wall", &summarize(&walls)),
        spread("set-up wall", &setup),
    ];
    notes.extend(failed_checks(&checks));
    RunOutput {
        correct: checks.correct(),
        attempted: checks.attempted,
        failed: checks.failed,
        sim_digest: round_digest(cells),
        metrics: END_TO_END.iter().zip(values).collect(),
        notes,
    }
}

/// The traced run: every per-layer metric, and the trace file.
pub fn per_layer<W: Workload>(name: &str, seed: u64, seconds: f64) -> (RunOutput, String) {
    let tracer = Tracer::new(true);
    let off = Tracer::new(false);
    let mut checks = Checks::default();
    let mut values: Vec<(&'static str, f64)> = Vec::new();

    // Set-up once, with spans; round 0 holds them.
    tracer.set_round(0);
    let w = W::setup(seed, &tracer);
    checks.round(&w.round());

    // Entry-point rounds, untraced, for half the budget.
    let before = procfs::stat_now();
    let rounds = measure(&w, seconds / 2.0, &mut checks);
    let after = procfs::stat_now();
    let cells = &rounds[0];
    let walls: Vec<f64> = rounds.iter().map(|r| round_wall_s(r)).collect();
    let round = summarize(&walls);
    let entry_items = (items(cells) * rounds.len() as u64) as f64;
    if let (Some(a), Some(b)) = (before, after) {
        let user = (b.utime_ticks - a.utime_ticks) as f64;
        let sys = (b.stime_ticks - a.stime_ticks) as f64;
        let share = if user + sys > 0.0 {
            sys / (user + sys)
        } else {
            0.0
        };
        values.push(("proc.sys_share", share));
        values.push((
            "proc.minor_faults_per_item",
            (b.minor_faults - a.minor_faults) as f64 / entry_items,
        ));
    }
    values.push(("bench.round_s_min", round.min));
    values.push(("bench.round_s_iqr_share", round.iqr_share()));

    // The unrolled copy: once with tracing off, then traced with the
    // allocator counting.
    let plain = w.unrolled(&off);
    checks.losses(&plain);
    let plain_s = round_wall_s(&plain.cells);
    let matching = plain
        .cells
        .iter()
        .zip(cells)
        .filter(|(u, e)| u.digest == e.digest)
        .count();
    values.push((
        "bench.unrolled_sim_match",
        matching as f64 / cells.len() as f64,
    ));
    // One unrolled round against the median entry-point round: neither is
    // picked for being fast.
    values.push((
        "train.harness_gap_share",
        (round.median - plain_s) / round.median,
    ));

    let mut traced_walls = Vec::new();
    let mut whole_walls = Vec::new();
    let mut traced = None;
    alloc::arm();
    let (allocs0, bytes0) = alloc::snapshot();
    for r in 1..=TRACED_ROUNDS {
        tracer.set_round(r);
        let (un, wall) = timed(|| w.unrolled(&tracer));
        whole_walls.push((r, wall));
        traced_walls.push(round_wall_s(&un.cells));
        traced = Some(un);
    }
    let (allocs1, bytes1) = alloc::snapshot();
    alloc::disarm();
    let traced = traced.expect("TRACED_ROUNDS > 0");
    checks.losses(&traced);
    let traced_s = summarize(&traced_walls).median;
    let traced_items = (items(&traced.cells) * u64::from(TRACED_ROUNDS)) as f64;
    values.push((
        "proc.allocs_per_item",
        (allocs1 - allocs0) as f64 / traced_items,
    ));
    values.push((
        "proc.alloc_mb_per_item",
        (bytes1 - bytes0) as f64 / 1e6 / traced_items,
    ));
    values.push(("bench.trace_overhead_share", (traced_s - plain_s) / plain_s));

    let per_item = |count: fn(&CellRun) -> u64| {
        traced.cells.iter().map(count).sum::<u64>() as f64 / items(&traced.cells) as f64
    };
    values.push(("device.kernels_per_item", per_item(|c| c.kernels)));
    values.push(("device.flops_per_item", per_item(|c| c.flops)));
    values.push(("device.bytes_per_item", per_item(|c| c.bytes)));

    let spans = tracer.spans();
    let mut notes = vec![
        spread("entry-point round wall", &round),
        format!("  unrolled round wall: {plain_s:.4} s untraced, {traced_s:.4} s traced"),
    ];
    for (r, wall) in whole_walls {
        let share = layers::root_coverage(&spans, r, wall);
        notes.push(format!(
            "  traced round {r}: root spans cover {share:.4} of {wall:.4} s"
        ));
        if (share - 1.0).abs() > 0.02 {
            checks.failed += 1;
            checks.problems.push(format!(
                "traced round {r}: root spans cover {share:.4} of the round wall, outside 2 %"
            ));
        }
    }
    values.extend(layers::from_spans(&spans));
    values.extend(traced.values);
    values.extend(w.extra_layers(round.median));
    values.extend(micro::run(seed));

    notes.extend(failed_checks(&checks));
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let v = values.iter().find(|v| v.0 == m.name).map_or(0.0, |v| v.1);
            (m, v)
        })
        .collect();
    let out = RunOutput {
        correct: checks.correct(),
        attempted: checks.attempted,
        failed: checks.failed,
        sim_digest: round_digest(cells),
        metrics,
        notes,
    };
    (out, tracer.to_json(name, seed))
}

/// `--check`: one set-up and two rounds, checks only, no metrics.
pub fn check<W: Workload>(seed: u64) -> RunOutput {
    let mut checks = Checks::default();
    let w = W::setup(seed, &Tracer::new(false));
    checks.round(&w.round());
    let cells = w.round();
    checks.round(&cells);
    RunOutput {
        correct: checks.correct(),
        attempted: checks.attempted,
        failed: checks.failed,
        sim_digest: round_digest(&cells),
        metrics: Vec::new(),
        notes: failed_checks(&checks).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::serve::ServeFleet;

    fn cell(name: &str, digest: u64) -> CellRun {
        CellRun {
            name: name.to_owned(),
            digest,
            finite: true,
            wall_s: 1.0,
            sim_s: 0.5,
            items: 10,
            attempted: 1,
            failed: 0,
            conserved: true,
            kernels: 0,
            flops: 0,
            bytes: 0,
        }
    }

    /// Digest stability across two in-process rounds, on the workload with
    /// the most moving parts: fault plan, router, hedging, autoscaler.
    #[test]
    fn two_rounds_of_a_real_workload_agree_bit_for_bit() {
        let out = check::<ServeFleet>(0);
        assert!(out.correct, "{:?}", out.notes);
        assert_eq!((out.attempted, out.failed), (1600, 0));
    }

    #[test]
    fn a_round_that_disagrees_with_the_first_is_a_failed_operation() {
        let mut checks = Checks::default();
        checks.round(&[cell("a", 1), cell("b", 2)]);
        checks.round(&[cell("a", 1), cell("b", 2)]);
        assert!(checks.correct());
        assert_eq!((checks.attempted, checks.failed), (4, 0));
        checks.round(&[cell("a", 1), cell("b", 3)]);
        assert!(!checks.correct());
        assert_eq!(checks.failed, 1);
        assert!(checks.problems[0].starts_with("b: sim_digest"));
    }

    #[test]
    fn non_finite_values_and_lost_requests_fail_the_run() {
        let mut checks = Checks::default();
        checks.round(&[CellRun {
            finite: false,
            ..cell("nan", 1)
        }]);
        assert_eq!((checks.failed, checks.problems.len()), (1, 1));
        let mut checks = Checks::default();
        checks.round(&[CellRun {
            conserved: false,
            ..cell("lost", 1)
        }]);
        assert_eq!((checks.failed, checks.problems.len()), (1, 1));
        // Rejected or shed requests are failed operations, not failed checks.
        let mut checks = Checks::default();
        checks.round(&[CellRun {
            attempted: 100,
            failed: 3,
            ..cell("shed", 1)
        }]);
        assert!(checks.correct());
        assert_eq!((checks.attempted, checks.failed), (100, 3));
    }

    #[test]
    fn a_rising_loss_fails_only_where_steps_are_comparable() {
        let unrolled = |comparable_steps, losses: Vec<f32>| Unrolled {
            cells: vec![cell("c", 1)],
            losses: vec![losses],
            comparable_steps,
            values: Vec::new(),
        };
        let mut checks = Checks::default();
        checks.losses(&unrolled(true, vec![1.0, 0.9]));
        checks.losses(&unrolled(true, vec![1.0]));
        checks.losses(&unrolled(false, vec![1.0, 1.2]));
        assert!(checks.correct());
        checks.losses(&unrolled(true, vec![1.0, 0.5, 1.0]));
        assert_eq!(checks.problems.len(), 1);
        checks.losses(&unrolled(false, vec![1.0, f32::NAN]));
        assert_eq!(checks.problems.len(), 2);
    }

    #[test]
    fn the_steady_round_takes_each_cells_lower_quartile() {
        let round = |a: f64, b: f64| {
            vec![
                CellRun {
                    wall_s: a,
                    ..cell("a", 1)
                },
                CellRun {
                    wall_s: b,
                    ..cell("b", 2)
                },
            ]
        };
        // Seven rounds: the lower quartile is the second smallest. The slow
        // burst hits cell a in some rounds and cell b in others.
        let rounds = vec![
            round(1.0, 2.0),
            round(1.5, 2.1),
            round(1.1, 3.0),
            round(1.6, 2.0),
            round(1.0, 2.9),
            round(1.2, 2.2),
            round(1.9, 2.0),
        ];
        assert_eq!(steady_round_s(&rounds), 1.0 + 2.0);
    }
}
