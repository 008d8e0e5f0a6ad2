//! JSONL per-epoch metrics export and its inverse.
//!
//! One JSON object per line, one line per epoch. The schema is stable and
//! covered by tests ([`parse_metrics_jsonl`] round-trips the writer's
//! output):
//!
//! ```json
//! {"run":"gcn/rustyg/cora","epoch":0,"loss":1.94,"accuracy":0.31,
//!  "lr":0.01,"sim_time":0.41,"wall_time":0.002,"utilization":0.55,
//!  "flops":52000000,"bytes":31000000,"peak_memory":1048576,
//!  "phase_times":{"data_load":0.1,"forward":0.2},
//!  "kernel_counts":{"gemm":12,"scatter":4}}
//! ```
//!
//! `accuracy` is `null` for tasks that do not evaluate one.

use crate::json::{self, Value};
use crate::recorder::EpochRecord;
use crate::table::{Column, Table};

/// Renders `records` as JSONL, one [`EPOCHS`] row per line (trailing
/// newline when non-empty).
pub fn metrics_jsonl(records: &[EpochRecord]) -> String {
    (records.iter())
        .map(|r| EPOCHS.json_row(r).to_json() + "\n")
        .collect()
}

/// The fields of one `metrics.jsonl` line.
pub const EPOCHS: Table<EpochRecord> = Table {
    schema: None,
    columns: &[
        Column::new("run", |r| r.run.as_str().into()),
        Column::new("epoch", |r| r.epoch.into()),
        Column::new("loss", |r| r.loss.into()),
        Column::new("accuracy", |r| r.accuracy.map_or(Value::Null, Value::Num)),
        Column::new("lr", |r| r.lr.into()),
        Column::new("sim_time", |r| r.sim_time.into()),
        Column::new("wall_time", |r| r.wall_time.into()),
        Column::new("utilization", |r| r.utilization.into()),
        Column::new("flops", |r| r.flops.into()),
        Column::new("bytes", |r| r.bytes.into()),
        Column::new("peak_memory", |r| r.peak_memory.into()),
        Column::new("phase_times", |r| {
            Value::Obj(
                (r.phase_times.iter())
                    .map(|(k, v)| (k.clone(), Value::from(*v)))
                    .collect(),
            )
        }),
        Column::new("kernel_counts", |r| {
            Value::Obj(
                (r.kernel_counts.iter())
                    .map(|(k, v)| (k.clone(), Value::from(*v)))
                    .collect(),
            )
        }),
    ],
};

/// Parses a JSONL metrics stream back into records.
///
/// Strict about the schema the writer produces: every required field must
/// be present with the right type. Blank lines are skipped.
pub fn parse_metrics_jsonl(text: &str) -> Result<Vec<EpochRecord>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |name: &str| {
            doc.get(name)
                .ok_or_else(|| format!("line {}: missing field '{name}'", i + 1))
        };
        let num = |name: &str| {
            field(name)?
                .as_f64()
                .ok_or_else(|| format!("line {}: field '{name}' is not a number", i + 1))
        };
        let accuracy = match field("accuracy")? {
            Value::Null => None,
            v => Some(
                v.as_f64()
                    .ok_or_else(|| format!("line {}: accuracy is not a number", i + 1))?,
            ),
        };
        let pairs = |name: &str| -> Result<Vec<(String, f64)>, String> {
            field(name)?
                .as_obj()
                .ok_or_else(|| format!("line {}: field '{name}' is not an object", i + 1))?
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("line {}: {name}.{k} is not a number", i + 1))
                })
                .collect::<Result<_, _>>()
        };
        records.push(EpochRecord {
            run: field("run")?
                .as_str()
                .ok_or_else(|| format!("line {}: run is not a string", i + 1))?
                .to_owned(),
            epoch: num("epoch")? as u32,
            loss: num("loss")?,
            accuracy,
            lr: num("lr")?,
            phase_times: pairs("phase_times")?,
            kernel_counts: pairs("kernel_counts")?
                .into_iter()
                .map(|(k, v)| (k, v as u64))
                .collect(),
            flops: field("flops")?
                .as_u64()
                .ok_or_else(|| format!("line {}: flops is not an integer", i + 1))?,
            bytes: field("bytes")?
                .as_u64()
                .ok_or_else(|| format!("line {}: bytes is not an integer", i + 1))?,
            peak_memory: field("peak_memory")?
                .as_u64()
                .ok_or_else(|| format!("line {}: peak_memory is not an integer", i + 1))?,
            utilization: num("utilization")?,
            sim_time: num("sim_time")?,
            wall_time: num("wall_time")?,
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(epoch: u32, accuracy: Option<f64>) -> EpochRecord {
        EpochRecord {
            run: "gcn/rustyg/cora".into(),
            epoch,
            loss: 1.5 / (epoch + 1) as f64,
            accuracy,
            lr: 0.01,
            phase_times: vec![("forward".into(), 0.25), ("backward".into(), 0.5)],
            kernel_counts: vec![("gemm".into(), 12), ("scatter".into(), 4)],
            flops: 123_456_789,
            bytes: 987_654_321,
            peak_memory: 1 << 20,
            utilization: 0.625,
            sim_time: 0.75 * (epoch + 1) as f64,
            wall_time: 0.001 * (epoch + 1) as f64,
        }
    }

    #[test]
    fn writer_and_parser_round_trip() {
        let records = vec![sample(0, Some(0.8)), sample(1, None)];
        let text = metrics_jsonl(&records);
        assert_eq!(text.lines().count(), 2, "one line per epoch");
        let back = parse_metrics_jsonl(&text).expect("parse own output");
        assert_eq!(back, records);
    }

    #[test]
    fn parser_rejects_missing_fields() {
        let err = parse_metrics_jsonl("{\"run\":\"r\",\"epoch\":0}\n").unwrap_err();
        assert!(err.contains("missing field"), "{err}");
    }

    #[test]
    fn empty_stream_is_empty() {
        assert_eq!(metrics_jsonl(&[]), "");
        assert!(parse_metrics_jsonl("\n\n").unwrap().is_empty());
    }
}
