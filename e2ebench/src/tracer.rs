//! Wall-clock spans around the calls the benchmark makes into each layer.
//!
//! Every call is timed (the untraced run needs the durations for its
//! end-to-end metrics); only a traced run also keeps the spans, in memory,
//! until the run ends and [`Tracer::write_jsonl`] writes them out.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `framework.bringup`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// How many spans carried the name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the parts covered by child spans.
    pub self_ns: u64,
}

/// Span recorder. Spans nest through the `&mut Tracer` the timed closure
/// receives.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that keeps spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f`, returning its result and its wall time; record a span named
    /// `name` when tracing is on.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        let slot = if self.on {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            Some(self.spans.len() - 1)
        } else {
            None
        };
        let t0 = Instant::now();
        let out = f(self);
        let wall = t0.elapsed();
        if let Some(i) = slot {
            self.spans[i].end_ns = self.now_ns();
            self.open.pop();
        }
        (out, wall)
    }

    /// Whether spans are kept.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Close the spans a panic left open, at the current time.
    pub fn unwind(&mut self) {
        let now = self.now_ns();
        while let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// [`Tracer::time`] keeping only the result.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.time(name, f).0
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        totals(&self.spans)
    }

    /// Summed duration of the spans that have no parent.
    pub fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The spans as JSON lines: `{"name","start_ns","end_ns","parent"}`.
    pub fn write_jsonl(&self, out: &mut String) {
        use std::fmt::Write as _;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, s.start_ns, s.end_ns, parent
            );
        }
    }
}

/// Per-name totals of a span list whose parents precede their children.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "b",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 70,
                parent: Some(0),
            },
            Span {
                name: "c",
                start_ns: 55,
                end_ns: 60,
                parent: Some(2),
            },
        ];
        let t = totals(&spans);
        assert_eq!(
            t["a"],
            SpanTotals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t["b"],
            SpanTotals {
                count: 2,
                total_ns: 50,
                self_ns: 45
            }
        );
        assert_eq!(t["c"].self_ns, 5);
    }

    #[test]
    fn untraced_tracer_keeps_nothing_but_still_times() {
        let mut tr = Tracer::new(false);
        let (v, wall) = tr.time("x", |tr| tr.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(wall.as_nanos() > 0 || wall.is_zero());
        assert!(tr.spans.is_empty());
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            tr.span("inner", |_| ());
        });
        tr.span("next", |_| ());
        let s = &tr.spans;
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(tr.top_level_ns() >= s[0].end_ns - s[0].start_ns);
    }
}
