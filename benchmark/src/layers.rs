//! Per-layer metrics read off the spans of the traced rounds.

use crate::span::{self_times_ns, Span};
use crate::stats::median_or_zero;

/// The five phases of a training step, as the unrolled loops name them, and
/// the share metric each feeds.
const PHASES: [(&str, &str); 5] = [
    ("train.data_load", "train.share.data_load"),
    ("train.forward", "train.share.forward"),
    ("train.backward", "train.share.backward"),
    ("train.update", "train.share.update"),
    ("train.eval", "train.share.eval"),
];

/// (span name, metric name, metric units per second): the metric is the
/// median duration of the spans of that name.
const MEDIANS: [(&str, &str, f64); 18] = [
    ("train.backward", "tensor.backward_ms", 1e3),
    ("train.update", "train.optim_step_us", 1e6),
    ("datasets.generate", "datasets.generate_s", 1.0),
    ("models.build", "models.build_ms", 1e3),
    ("rustyg.collate", "rustyg.collate_us", 1e6),
    ("rgl.collate", "rgl.collate_us", 1e6),
    ("rustyg.forward", "rustyg.forward_ms", 1e3),
    ("rgl.forward", "rgl.forward_ms", 1e3),
    ("rustyg.eval_forward", "rustyg.eval_forward_ms", 1e3),
    ("rgl.eval_forward", "rgl.eval_forward_ms", 1e3),
    ("rustyg.sampled_load", "rustyg.sampled_load_us", 1e6),
    ("rgl.sampled_load", "rgl.sampled_load_us", 1e6),
    ("sample.rmat_generate", "sample.rmat_generate_s", 1.0),
    (
        "sample.sample_block.neighbor",
        "sample.sample_block_us.neighbor",
        1e6,
    ),
    (
        "sample.sample_block.layerwise",
        "sample.sample_block_us.layerwise",
        1e6,
    ),
    ("serve.registry_build", "serve.registry_build_s", 1.0),
    ("serve.workload_generate", "serve.workload_generate_us", 1e6),
    ("serve.exec_batch", "serve.exec_us_per_batch", 1e6),
];

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Total duration in seconds of the spans named `name`.
fn total_s(spans: &[Span], name: &str) -> f64 {
    seconds(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum(),
    )
}

/// The span-derived metrics. Spans of a name the workload never opened give
/// a median of 0.
pub fn from_spans(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for (span_name, metric, per_s) in MEDIANS {
        let durs: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == span_name)
            .map(|s| seconds(s.dur_ns()) * per_s)
            .collect();
        out.push((metric, median_or_zero(&durs)));
    }
    let phase_total: f64 = PHASES.iter().map(|(span, _)| total_s(spans, span)).sum();
    for (span_name, metric) in PHASES {
        let share = if phase_total > 0.0 {
            total_s(spans, span_name) / phase_total
        } else {
            0.0
        };
        out.push((metric, share));
    }
    out
}

/// Of one traced round: the summed duration of its root spans — their self
/// times plus what their children cover — as a share of the round's wall
/// time. Every statement of an unrolled round sits inside some root span, so
/// this is 1 but for the gaps between them.
pub fn root_coverage(spans: &[Span], round: u32, round_wall_s: f64) -> f64 {
    let selfs = self_times_ns(spans);
    let mut covered_ns = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.round != round {
            continue;
        }
        if s.parent.is_none() {
            covered_ns += selfs[i];
        } else if s.parent.is_some_and(|p| spans[p].parent.is_none()) {
            covered_ns += s.dur_ns();
        }
    }
    seconds(covered_ns) / round_wall_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 1,
            cell: None,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn shares_split_the_phase_time_and_medians_pick_the_middle_span() {
        let spans = [
            span("train.forward", 0, 3_000_000, None),
            span("train.backward", 3_000_000, 4_000_000, None),
            span("train.backward", 4_000_000, 7_000_000, None),
            span("train.backward", 7_000_000, 9_000_000, None),
        ];
        let metrics = from_spans(&spans);
        let get = |name: &str| metrics.iter().find(|m| m.0 == name).expect(name).1;
        assert!((get("train.share.forward") - 3.0 / 9.0).abs() < 1e-12);
        assert!((get("train.share.backward") - 6.0 / 9.0).abs() < 1e-12);
        assert_eq!(get("train.share.eval"), 0.0);
        assert_eq!(get("tensor.backward_ms"), 2.0);
        assert_eq!(get("rgl.collate_us"), 0.0);
    }

    #[test]
    fn coverage_counts_roots_and_their_children_once() {
        // Two roots of 40 and 50 ns with a 10 ns gap; grandchildren and
        // spans of other rounds add nothing.
        let mut spans = vec![
            span("cell", 0, 40, None),
            span("a", 5, 25, Some(0)),
            span("b", 10, 20, Some(1)),
            span("cell", 50, 100, None),
        ];
        spans.push(Span {
            round: 2,
            ..span("cell", 100, 1000, None)
        });
        let coverage = root_coverage(&spans, 1, 100e-9);
        assert!((coverage - 0.9).abs() < 1e-9, "{coverage}");
    }
}
