//! `compare <a.json> <b.json>`: per workload and end-to-end metric, both
//! medians, the delta, the bound, and a verdict.

use gnn_obs::json::{parse, Value};

use crate::metrics::{Better, Metric, END_TO_END};
use crate::stats::summarize;
use crate::workloads::WORKLOADS;

/// What the runs of two commits say about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// The spread is wider than the bound and neither side's runs all beat
    /// the other's: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `a` are the parent's runs, `b` the change's; neither is empty.
pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (sa, sb) = (summarize(a), summarize(b));
    let every = |xs: &[f64], ys: &[f64]| xs.iter().all(|&x| ys.iter().all(|&y| better.worse(y, x)));
    let b_beats_a = every(a, b);
    let a_beats_b = every(b, a);
    let past_bound = better.worse(sa.median, sb.median)
        && (sb.median - sa.median).abs() > bound * sa.median.abs();
    if b_beats_a {
        Verdict::Ok
    } else if a_beats_b {
        if past_bound {
            Verdict::Worse
        } else {
            Verdict::Ok
        }
    } else if sa.iqr_share().max(sb.iqr_share()) > bound {
        Verdict::Unresolved
    } else if past_bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The untraced runs of a results file: `(workload, sim_digest, metrics)`.
fn runs(doc: &Value) -> Result<Vec<(&str, &str, &Value)>, String> {
    doc.get("runs")
        .and_then(Value::as_arr)
        .ok_or("no `runs` array")?
        .iter()
        .filter(|r| r.get("trace").and_then(Value::as_u64) == Some(0))
        .map(|r| {
            let workload = r.get("workload").and_then(Value::as_str);
            let digest = r.get("sim_digest").and_then(Value::as_str);
            let metrics = r.get("metrics");
            match (workload, digest, metrics) {
                (Some(w), Some(d), Some(m)) => Ok((w, d, m)),
                _ => Err("a run lacks `workload`, `sim_digest` or `metrics`".to_owned()),
            }
        })
        .collect()
}

fn values(runs: &[(&str, &str, &Value)], workload: &str, metric: &Metric) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.0 == workload)
        .filter_map(|r| r.2.get(metric.name)?.get("value")?.as_f64())
        .collect()
}

/// Loads two result files written by `all --out` and renders the
/// comparison; `Err` when a file cannot be read.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, any_worse) = render(&load(path_a)?, &load(path_b)?)?;
    Ok((format!("a = {path_a}\nb = {path_b}\n{table}"), any_worse))
}

/// The comparison table of two result documents, and whether any verdict
/// is `worse`.
fn render(doc_a: &Value, doc_b: &Value) -> Result<(String, bool), String> {
    let (runs_a, runs_b) = (runs(doc_a)?, runs(doc_b)?);

    let mut out = String::new();
    let mut any_worse = false;
    for (workload, _) in WORKLOADS {
        let digests = |runs: &[(&str, &str, &Value)]| -> Vec<String> {
            let mut d: Vec<String> = runs
                .iter()
                .filter(|r| r.0 == workload)
                .map(|r| r.1.to_owned())
                .collect();
            d.sort_unstable();
            d.dedup();
            d
        };
        let (da, db) = (digests(&runs_a), digests(&runs_b));
        if da.is_empty() || db.is_empty() {
            out.push_str(&format!("{workload}: no runs on one side, skipped\n"));
            continue;
        }
        out.push_str(&format!(
            "{workload}: sim_digest {}\n",
            if da == db {
                format!("unchanged ({})", da.join(","))
            } else {
                format!("CHANGED: a {} -> b {}", da.join(","), db.join(","))
            }
        ));
        for m in &END_TO_END {
            let (a, b) = (values(&runs_a, workload, m), values(&runs_b, workload, m));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (sa, sb) = (summarize(&a), summarize(&b));
            let v = verdict(m.better, bound, &a, &b);
            any_worse |= v == Verdict::Worse;
            out.push_str(&format!(
                "  {:<12} a {:>12.4} (n={}, iqr {:.1} %)  b {:>12.4} (n={}, iqr {:.1} %)  \
                 delta {:+.2} % of a's {:.4} {}  bound {:.1} %, {} is better  {}\n",
                m.name,
                sa.median,
                sa.n,
                sa.iqr_share() * 100.0,
                sb.median,
                sb.n,
                sb.iqr_share() * 100.0,
                (sb.median - sa.median) / sa.median * 100.0,
                sa.median,
                m.unit,
                bound * 100.0,
                m.better.label(),
                v.label(),
            ));
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_drop_past_the_bound_is_worse_and_within_it_is_ok() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            verdict(Better::Higher, 0.10, &a, &[80.0, 81.0, 79.0]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, &a, &[95.0, 96.0, 94.0]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, &a, &[80.0, 81.0, 79.0]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, &a, &[120.0, 121.0, 119.0]),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved() {
        let a = [100.0, 60.0, 140.0, 90.0, 120.0];
        let b = [95.0, 70.0, 130.0, 85.0, 110.0];
        assert_eq!(verdict(Better::Higher, 0.10, &a, &b), Verdict::Unresolved);
        // Wide, but every run of b beats every run of a: resolved.
        let b = [150.0, 200.0, 180.0];
        assert_eq!(verdict(Better::Higher, 0.10, &a, &b), Verdict::Ok);
        // Wide, and every run of a beats every run of b, past the bound.
        let b = [50.0, 20.0, 40.0];
        assert_eq!(verdict(Better::Higher, 0.10, &a, &b), Verdict::Worse);
    }

    fn doc(digest: &str, items_per_s: &[f64]) -> Value {
        let runs: Vec<String> = items_per_s
            .iter()
            .map(|v| {
                format!(
                    r#"{{"workload":"serve_fleet","seed":0,"trace":0,"sim_digest":"{digest}",
                    "correct":true,"attempted":1,"failed":0,
                    "metrics":{{"items_per_s":{{"value":{v},"unit":"items/s"}}}}}}"#
                )
            })
            .collect();
        parse(&format!(r#"{{"runs":[{}],"claim":null}}"#, runs.join(","))).expect("fixture")
    }

    #[test]
    fn the_table_names_both_medians_the_base_and_the_verdict() {
        let a = doc("aa", &[100.0, 102.0, 98.0]);
        let (table, any_worse) = render(&a, &doc("aa", &[70.0, 71.0, 69.0])).expect("renders");
        assert!(any_worse);
        assert!(
            table.contains("serve_fleet: sim_digest unchanged (aa)"),
            "{table}"
        );
        assert!(
            table.contains("delta -30.00 % of a's 100.0000 items/s"),
            "{table}"
        );
        assert!(
            table.contains("bound 25.0 %, higher is better  worse"),
            "{table}"
        );
        assert!(
            table.contains("node_fullbatch: no runs on one side"),
            "{table}"
        );

        let (table, any_worse) = render(&a, &doc("bb", &[99.0, 101.0, 100.0])).expect("renders");
        assert!(!any_worse);
        assert!(
            table.contains("sim_digest CHANGED: a aa -> b bb"),
            "{table}"
        );
        assert!(table.contains("  ok\n"), "{table}");

        assert!(render(&a, &parse("{}").expect("json")).is_err());
    }

    #[test]
    fn single_runs_fall_back_to_the_median_rule() {
        assert_eq!(verdict(Better::Lower, 0.05, &[1.0], &[1.04]), Verdict::Ok);
        assert_eq!(
            verdict(Better::Lower, 0.05, &[1.0], &[1.06]),
            Verdict::Worse
        );
    }
}
