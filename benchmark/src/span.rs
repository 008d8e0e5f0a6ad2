//! Spans recorded from outside the crates, around calls into their public
//! functions.
//!
//! A [`Tracer`] keeps spans in memory; nothing is written until the run
//! ends. A disabled tracer runs the closure and records nothing, which is
//! how the same unrolled loop is timed with and without tracing.

use std::cell::RefCell;
use std::time::Instant;

use gnn_obs::json::Value;

use crate::alloc;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Traced round the span belongs to.
    pub round: u32,
    /// Index into the tracer's cell names (`None` outside any cell).
    pub cell: Option<usize>,
    /// Allocations made between entry and exit, children included.
    pub allocs: u64,
    /// Bytes requested between entry and exit, children included.
    pub alloc_bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    cells: Vec<String>,
    round: u32,
    cell: Option<usize>,
}

/// The in-memory span sink of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: RefCell::new(State {
                spans: Vec::new(),
                open: Vec::new(),
                cells: Vec::new(),
                round: 0,
                cell: None,
            }),
        }
    }

    /// Spans recorded from now on carry this round id.
    pub fn set_round(&self, round: u32) {
        self.state.borrow_mut().round = round;
    }

    /// Spans recorded from now on carry this cell name.
    pub fn set_cell(&self, name: &str) {
        let mut st = self.state.borrow_mut();
        let idx = st.cells.iter().position(|c| c == name).unwrap_or_else(|| {
            st.cells.push(name.to_owned());
            st.cells.len() - 1
        });
        st.cell = Some(idx);
    }

    /// Times `f` as a span named `name`, child of whatever span is open.
    pub fn scope<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut st = self.state.borrow_mut();
            let idx = st.spans.len();
            let (allocs, alloc_bytes) = alloc::snapshot();
            let span = Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: st.open.last().copied(),
                round: st.round,
                cell: st.cell,
                allocs,
                alloc_bytes,
            };
            st.spans.push(span);
            st.open.push(idx);
            idx
        };
        // The clock is read last on entry and first on exit, so the
        // tracer's own bookkeeping lands in the parent's self time.
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let (allocs, alloc_bytes) = alloc::snapshot();
        let mut st = self.state.borrow_mut();
        st.open.pop();
        let span = &mut st.spans[idx];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        span.alloc_bytes = alloc_bytes - span.alloc_bytes;
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// The trace file: one object with the cell-name table and the spans,
    /// one span a line.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let st = self.state.borrow();
        let selfs = self_times_ns(&st.spans);
        let index = |i: Option<usize>| i.map_or(Value::Null, Value::from);
        let spans: Vec<String> = st
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(i, (s, self_ns))| {
                Value::Obj(vec![
                    ("id".to_owned(), Value::from(i)),
                    ("name".to_owned(), Value::from(s.name)),
                    ("parent".to_owned(), index(s.parent)),
                    ("round".to_owned(), Value::from(s.round)),
                    ("cell".to_owned(), index(s.cell)),
                    ("start_ns".to_owned(), Value::from(s.start_ns)),
                    ("end_ns".to_owned(), Value::from(s.end_ns)),
                    ("self_ns".to_owned(), Value::from(self_ns)),
                    ("allocs".to_owned(), Value::from(s.allocs)),
                    ("alloc_bytes".to_owned(), Value::from(s.alloc_bytes)),
                ])
                .to_json()
            })
            .collect();
        let cells = Value::Arr(st.cells.iter().map(|c| Value::from(c.as_str())).collect());
        format!(
            "{{\"schema\":\"gnn-hostbench-trace/v1\",\"workload\":{},\"seed\":{seed},\
             \"cells\":{},\"spans\":[\n{}\n]}}\n",
            Value::from(workload).to_json(),
            cells.to_json(),
            spans.join(",\n")
        )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            round: 0,
            cell: None,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // children 10..40 and 30..70 overlap by 10; a third, 80..120,
        // sticks out of the parent and is clipped to 80..100.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 70, Some(0)),
            span(80, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 20);
    }

    #[test]
    fn a_child_inside_another_child_adds_nothing() {
        let spans = [
            span(0, 100, None),
            span(10, 90, Some(0)),
            span(20, 30, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_links_parents_rounds_and_cells() {
        let t = Tracer::new(true);
        t.set_round(3);
        t.set_cell("GCN/PyG");
        t.scope("outer", || t.scope("inner", || ()));
        t.set_cell("GCN/DGL");
        t.set_cell("GCN/PyG");
        t.scope("again", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.round == 3 && s.cell == Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let parsed = gnn_obs::json::parse(&t.to_json("w", 7)).expect("trace is valid JSON");
        assert_eq!(
            parsed.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(
            parsed.get("cells").and_then(|s| s.as_arr()).map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.scope("x", || 5), 5);
        assert!(t.spans().is_empty());
    }
}
