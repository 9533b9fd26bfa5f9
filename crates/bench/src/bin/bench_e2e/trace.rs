//! In-memory spans around the harness's own calls into each layer.
//!
//! A span is `(name, start_ns, end_ns, parent, op)`; spans of one operation
//! (a study iteration, an ingest epoch, a serve phase) share `op`. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover. Spans are kept in memory and written
//! out once, when the run ends; with tracing off `enter`/`time` still
//! measure (the metrics need the durations) but record nothing.

use crate::stats;
use crawler::json::{object, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Handle of an open span; `None` inside when tracing is off.
#[derive(Debug)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Close a span; spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        if let Some(index) = open.0 {
            let popped = self.stack.pop();
            assert_eq!(popped, Some(index), "spans must close innermost first");
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Run `work` inside a leaf span and return its result with its
    /// duration (measured whether or not tracing is on).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        work: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let open = self.enter(name, op);
        let start = Instant::now();
        let result = work();
        let elapsed = start.elapsed();
        self.exit(open);
        (result, elapsed)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span, in the order they were opened.
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|span| {
                object(vec![
                    ("name", Value::String(span.name.to_string())),
                    ("start_ns", Value::number_u64(span.start_ns)),
                    ("end_ns", Value::number_u64(span.end_ns)),
                    (
                        "parent",
                        span.parent
                            .map_or(Value::Null, |parent| Value::number_u64(parent as u64)),
                    ),
                    ("op", Value::number_u64(span.op)),
                ])
            })
            .collect();
        Value::Array(spans)
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span, so adjacent and overlapping children
/// are both handled).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Per-name totals over a trace: every span's self time, and the summed
/// duration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Total {
    pub self_ns: Vec<u64>,
    pub duration_ns: u64,
}

impl Total {
    /// Median self time of the spans of this name, in milliseconds.
    pub fn self_ms(&self) -> f64 {
        let ms: Vec<f64> = self.self_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        stats::median(&ms)
    }

    pub fn summed_self_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let total = out.entry(span.name).or_default();
        total.self_ns.push(self_ns);
        total.duration_ns += span.end_ns - span.start_ns;
    }
    out
}

/// Share of the `root`-named spans' wall time that their descendants'
/// self times account for, in percent — what the harness could attribute
/// to a named layer rather than to its own glue between calls.
pub fn attributed_pct(spans: &[Span], root: &'static str) -> f64 {
    let totals = totals(spans);
    let Some(root_total) = totals.get(root) else {
        return 0.0;
    };
    if root_total.duration_ns == 0 {
        return 0.0;
    }
    100.0 * (1.0 - root_total.summed_self_ns() as f64 / root_total.duration_ns as f64)
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
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 ⊃ a 10..60 ⊃ b 20..30: root keeps 50, a keeps 40.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_handles_adjacent_and_overlapping_children() {
        // Adjacent children 0..40 and 40..90 leave the parent 10.
        let adjacent = [
            span("root", 0, 100, None),
            span("a", 0, 40, Some(0)),
            span("b", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&adjacent)[0], 10);
        // Overlapping children 10..50 and 30..70 cover 60, not 80; a child
        // that outlives its parent is clipped to it.
        let overlapping = [
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&overlapping)[0], 100 - 60 - 10);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let spans = [
            span("root", 0, 1000, None),
            span("a", 100, 400, Some(0)),
            span("b", 150, 250, Some(1)),
            span("a", 400, 900, Some(0)),
        ];
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1000);
        let totals = totals(&spans);
        assert_eq!(totals["a"].self_ns, vec![200, 500]);
        assert_eq!(totals["a"].self_ms(), 350.0 / 1e6);
        assert_eq!(attributed_pct(&spans, "root"), 80.0);
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let mut tracer = Tracer::new(false);
        let outer = tracer.enter("outer", 1);
        let (value, elapsed) = tracer.time("leaf", 1, || 41 + 1);
        tracer.exit(outer);
        assert_eq!(value, 42);
        assert!(elapsed < Duration::from_secs(1));
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn an_enabled_tracer_nests_spans_under_the_open_one() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.enter("outer", 7);
        tracer.time("leaf", 7, || ());
        tracer.exit(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
