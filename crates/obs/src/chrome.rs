//! Chrome trace-event JSON export.
//!
//! Produces the JSON object format (`{"traceEvents": [...]}`) understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev). Each session
//! generation becomes a *process* (its simulated clock restarts at zero, so
//! separate pids keep timelines from overlapping); each track becomes a
//! named *thread* within it. Spans map to `B`/`E` pairs, kernels to `X`
//! complete slices, counters to `C`, markers to `i`. Timestamps are
//! simulated microseconds; every event but a counter carries the host
//! wall-clock stamp in its `args.wall_s` so both clocks survive the export.
//! A counter's `args` are its series — an extra key would draw a second
//! series in the viewer — so counters export the simulated clock only.

use crate::json::Value;
use crate::recorder::{EventKind, TraceEvent};

/// Renders `events` as a Chrome trace-event JSON document.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut doc: Vec<Value> = Vec::new();
    // Stable track → tid mapping per generation, in first-seen order, with
    // metadata events naming each process and thread.
    let mut tracks: Vec<(u32, String)> = Vec::new();
    for event in events {
        let key = (event.generation, event.track.clone());
        if !tracks.contains(&key) {
            tracks.push(key);
        }
    }
    for (generation, track) in &tracks {
        let tid = tid_for(&tracks, *generation, track);
        if tid == 0 {
            doc.push(meta_event(
                "process_name",
                *generation,
                tid,
                &format!("session {generation}"),
            ));
        }
        doc.push(meta_event("thread_name", *generation, tid, track));
    }
    for event in events {
        let tid = tid_for(&tracks, event.generation, &event.track);
        let mut members: Vec<(String, Value)> = vec![
            ("pid".into(), Value::from(event.generation)),
            ("tid".into(), Value::from(tid)),
            ("ts".into(), Value::Num(event.sim * 1e6)),
        ];
        let wall = ("wall_s".to_owned(), Value::Num(event.wall));
        match &event.kind {
            EventKind::Begin { name } => {
                members.push(("ph".into(), Value::from("B")));
                members.push(("name".into(), Value::from(name.as_str())));
                members.push(("args".into(), Value::Obj(vec![wall])));
            }
            EventKind::End => {
                members.push(("ph".into(), Value::from("E")));
                members.push(("args".into(), Value::Obj(vec![wall])));
            }
            EventKind::Complete { name, dur, args } => {
                members.push(("ph".into(), Value::from("X")));
                members.push(("name".into(), Value::from(name.as_str())));
                members.push(("dur".into(), Value::Num(dur * 1e6)));
                let mut all = vec![wall];
                all.extend(args.iter().cloned());
                members.push(("args".into(), Value::Obj(all)));
            }
            EventKind::Instant { name, args } => {
                members.push(("ph".into(), Value::from("i")));
                members.push(("name".into(), Value::from(name.as_str())));
                members.push(("s".into(), Value::from("t")));
                let mut all = vec![wall];
                all.extend(args.iter().cloned());
                members.push(("args".into(), Value::Obj(all)));
            }
            EventKind::Counter { name, value } => {
                members.push(("ph".into(), Value::from("C")));
                members.push(("name".into(), Value::from(name.as_str())));
                members.push((
                    "args".into(),
                    Value::Obj(vec![(name.clone(), Value::Num(*value))]),
                ));
            }
        }
        doc.push(Value::Obj(members));
    }
    Value::Obj(vec![
        ("traceEvents".into(), Value::Arr(doc)),
        ("displayTimeUnit".into(), Value::from("ms")),
    ])
    .to_json()
}

fn tid_for(tracks: &[(u32, String)], generation: u32, track: &str) -> u32 {
    tracks
        .iter()
        .filter(|(g, _)| *g == generation)
        .position(|(_, t)| t == track)
        .expect("track registered above") as u32
}

/// Parses a Chrome trace-event JSON document produced by
/// [`chrome_trace_json`] back into the event stream.
///
/// Inverse up to timestamp precision: track names are recovered from the
/// `thread_name` metadata, generations from pids, wall-clock stamps from
/// `args.wall_s`, and every custom arg survives the round trip verbatim
/// (`args` re-enter in document order minus the injected `wall_s`).
/// Timestamps go through the µs scaling and back, so they match to float
/// rounding rather than bit-for-bit.
///
/// # Errors
///
/// Returns a diagnostic when the document is not valid JSON, is missing
/// `traceEvents`, references a thread with no `thread_name` metadata, or
/// contains an event of unknown phase.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let doc = crate::json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;
    // First pass: thread_name metadata maps (pid, tid) back to tracks.
    let mut threads: Vec<((u64, u64), String)> = Vec::new();
    for e in events {
        if e.get("ph").and_then(Value::as_str) == Some("M")
            && e.get("name").and_then(Value::as_str) == Some("thread_name")
        {
            let pid = e.get("pid").and_then(Value::as_u64).ok_or("meta pid")?;
            let tid = e.get("tid").and_then(Value::as_u64).ok_or("meta tid")?;
            let track = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
                .ok_or("thread_name without args.name")?;
            threads.push(((pid, tid), track.to_owned()));
        }
    }
    let mut out = Vec::new();
    for e in events {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or("event without ph")?;
        if ph == "M" {
            continue;
        }
        let pid = e.get("pid").and_then(Value::as_u64).ok_or("event pid")?;
        let tid = e.get("tid").and_then(Value::as_u64).ok_or("event tid")?;
        let track = threads
            .iter()
            .find(|(k, _)| *k == (pid, tid))
            .map(|(_, t)| t.clone())
            .ok_or_else(|| format!("no thread_name metadata for pid {pid} tid {tid}"))?;
        let sim = e.get("ts").and_then(Value::as_f64).ok_or("event ts")? / 1e6;
        let wall = e
            .get("args")
            .and_then(|a| a.get("wall_s"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let name = || {
            e.get("name")
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or("event without name")
        };
        let custom_args = || -> Vec<(String, Value)> {
            e.get("args")
                .and_then(Value::as_obj)
                .map(|members| {
                    members
                        .iter()
                        .filter(|(k, _)| k != "wall_s")
                        .cloned()
                        .collect()
                })
                .unwrap_or_default()
        };
        let kind = match ph {
            "B" => EventKind::Begin { name: name()? },
            "E" => EventKind::End,
            "X" => EventKind::Complete {
                name: name()?,
                dur: e
                    .get("dur")
                    .and_then(Value::as_f64)
                    .ok_or("X without dur")?
                    / 1e6,
                args: custom_args(),
            },
            "i" => EventKind::Instant {
                name: name()?,
                args: custom_args(),
            },
            "C" => {
                let name = name()?;
                let value = e
                    .get("args")
                    .and_then(|a| a.get(&name))
                    .and_then(Value::as_f64)
                    .ok_or("C without value")?;
                EventKind::Counter { name, value }
            }
            other => return Err(format!("unknown event phase {other}")),
        };
        out.push(TraceEvent {
            track,
            kind,
            sim,
            wall,
            generation: pid as u32,
        });
    }
    Ok(out)
}

fn meta_event(name: &str, pid: u32, tid: u32, value: &str) -> Value {
    Value::Obj(vec![
        ("ph".into(), Value::from("M")),
        ("pid".into(), Value::from(pid)),
        ("tid".into(), Value::from(tid)),
        ("name".into(), Value::from(name)),
        (
            "args".into(),
            Value::Obj(vec![("name".to_owned(), Value::from(value))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::recorder::{finish, install, span_begin, span_end, Collector};

    #[test]
    fn exports_valid_json_with_balanced_spans() {
        let h = install(Collector::new());
        crate::recorder::session_started();
        span_begin("phase", "forward", 0.0);
        crate::recorder::complete(
            "kernels",
            "gemm",
            0.01,
            0.02,
            vec![("kind".into(), Value::from("gemm"))],
        );
        span_end("phase", 0.05);
        crate::recorder::counter("memory", "device_bytes", 4096.0, 0.05);
        let trace = finish(h);
        let text = trace.to_chrome_json();
        let doc = json::parse(&text).expect("chrome trace must be valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert_eq!(
            phases.iter().filter(|p| **p == "B").count(),
            phases.iter().filter(|p| **p == "E").count(),
            "B/E events must balance"
        );
        assert!(phases.contains(&"X") && phases.contains(&"C") && phases.contains(&"M"));
        // The gemm slice: sim µs timestamps and a wall-clock arg.
        let x = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .unwrap();
        assert_eq!(x.get("ts").and_then(Value::as_f64), Some(1e4));
        assert_eq!(x.get("dur").and_then(Value::as_f64), Some(2e4));
        assert!(x
            .get("args")
            .and_then(|a| a.get("wall_s"))
            .and_then(Value::as_f64)
            .is_some());
        assert_eq!(
            x.get("args")
                .and_then(|a| a.get("kind"))
                .and_then(Value::as_str),
            Some("gemm")
        );
    }

    #[test]
    fn round_trip_preserves_counter_args() {
        let h = install(Collector::new());
        crate::recorder::session_started();
        span_begin("phase", "forward", 0.5);
        crate::recorder::complete(
            "kernels",
            "gemm",
            0.5,
            0.25,
            vec![
                ("kind".into(), Value::from("gemm")),
                ("flops".into(), Value::from(123456u64)),
                ("bytes".into(), Value::from(7890u64)),
                ("ai".into(), Value::Num(15.647)),
                ("roofline".into(), Value::Num(0.55)),
                ("bound".into(), Value::from("compute")),
            ],
        );
        crate::recorder::instant(
            "train",
            "epoch",
            0.75,
            vec![("n".into(), Value::from(3u32))],
        );
        crate::recorder::counter("memory", "device_bytes", 4096.0, 1.0);
        span_end("phase", 1.0);
        let trace = finish(h);
        let parsed = parse_chrome_trace(&trace.to_chrome_json()).expect("round trip");
        assert_eq!(parsed.len(), trace.events.len());
        for (orig, back) in trace.events.iter().zip(&parsed) {
            assert_eq!(orig.track, back.track);
            assert_eq!(orig.generation, back.generation);
            assert!((orig.sim - back.sim).abs() < 1e-9, "sim drifted");
            // A counter's args are its plotted series, so it carries no
            // wall_s (an extra key would draw a second series); every other
            // kind's wall stamp survives.
            if !matches!(orig.kind, EventKind::Counter { .. }) {
                assert!((orig.wall - back.wall).abs() < 1e-12, "wall lost");
            }
            // Kinds — including every custom arg — survive verbatim.
            match (&orig.kind, &back.kind) {
                (
                    EventKind::Complete {
                        name: a,
                        dur: da,
                        args: aa,
                    },
                    EventKind::Complete {
                        name: b,
                        dur: db,
                        args: ab,
                    },
                ) => {
                    assert_eq!(a, b);
                    assert!((da - db).abs() < 1e-9);
                    assert_eq!(aa, ab, "counter args must survive the round trip");
                }
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{}").is_err());
        // An event referencing a thread with no metadata.
        let doc = r#"{"traceEvents":[{"ph":"B","pid":1,"tid":9,"ts":0,"name":"x"}]}"#;
        assert!(parse_chrome_trace(doc).unwrap_err().contains("thread_name"));
    }

    #[test]
    fn separate_generations_get_separate_pids() {
        let h = install(Collector::new());
        crate::recorder::session_started();
        span_begin("phase", "a", 0.0);
        span_end("phase", 1.0);
        crate::recorder::session_started();
        span_begin("phase", "b", 0.0);
        span_end("phase", 1.0);
        let trace = finish(h);
        let doc = json::parse(&trace.to_chrome_json()).unwrap();
        let pids: std::collections::BTreeSet<u64> = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) != Some("M"))
            .filter_map(|e| e.get("pid").and_then(Value::as_u64))
            .collect();
        assert_eq!(pids.len(), 2, "each session needs its own pid: {pids:?}");
    }
}
